"""Span recording for the traced run.

The benchmark never edits the library.  Instead, :meth:`Tracer.install`
replaces each listed function with a wrapper that records one span per
call, in every ``bsi`` module namespace that holds a reference to the
function (the defining module, the modules that import it by name, and
the ``bsi`` package itself).  Spans stay in memory as
``[name, start, end, parent]`` rows and are written out by
:meth:`Tracer.write` when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Counts (calls, bytes, iterations) are kept at the same
boundaries.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# metric layer.function -> (defining module, function name)
LISTED = {
    "linalg.spd_solve": ("bsi._linalg", "spd_solve"),
    "linalg.spd_inverse": ("bsi._linalg", "spd_inverse"),
    "jmap.jmap_update_f": ("bsi.jmap", "jmap_update_f"),
    "jmap.jmap_update_z": ("bsi.jmap", "jmap_update_z"),
    "jmap.jmap_update_variance": ("bsi.jmap", "jmap_update_variance"),
    "jmap.solve_jmap": ("bsi.jmap", "solve_jmap"),
    "vba.vba_update_f": ("bsi.vba", "vba_update_f"),
    "vba.vba_update_z": ("bsi.vba", "vba_update_z"),
    "vba.vba_update_ig": ("bsi.vba", "vba_update_ig"),
    "vba.solve_vba": ("bsi.vba", "solve_vba"),
    "model.neg_log_posterior": ("bsi.model", "neg_log_posterior"),
    "model.validate_problem": ("bsi.model", "validate_problem"),
    "synth.generate_operator": ("bsi.synth", "generate_operator"),
    "synth.generate_sparse_signal": ("bsi.synth", "generate_sparse_signal"),
    "synth.synthesize_observation": ("bsi.synth", "synthesize_observation"),
    "cli.write_matrix": ("bsi.cli", "write_matrix"),
    "cli.read_matrix": ("bsi.cli", "read_matrix"),
    "cli.run_simulate": ("bsi.cli", "run_simulate"),
    "cli.run_solve": ("bsi.cli", "run_solve"),
    "cli.run_verify_priors": ("bsi.cli", "run_verify_priors"),
    "priors.bessel_k": ("bsi.priors", "bessel_k"),
    "priors.gh_pdf": ("bsi.priors", "gh_pdf"),
    "priors.reference_pdf": ("bsi.priors", "reference_pdf"),
    "priors.limit_deviation": ("bsi.priors", "limit_deviation"),
    "priors.gh_marginal_quadrature": ("bsi.priors", "gh_marginal_quadrature"),
}

IG_KINDS = ("eps", "xi", "z", "f")

# span names reported with a _s / _calls pair
SPAN_NAMES = [n for n in LISTED if n != "vba.vba_update_ig"] + [
    f"vba.vba_update_ig.{k}" for k in IG_KINDS]

COUNTERS = ("cli.bytes_written", "cli.bytes_read", "jmap.iterations",
            "vba.partial_iterations", "vba.full_iterations")

OP_PREFIX = "op."


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """In-memory span recorder with wrappers for the listed functions."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._installed = []
        self.paused = False

    # -- spans ---------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    # -- wrappers ------------------------------------------------------
    def _wrapper(self, label, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            name = label
            if label == "vba.vba_update_ig":
                name = f"{label}.{_arg(args, kwargs, 0, 'kind')}"
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._count(label, args, kwargs, out)
            return out

        return wrapped

    def _count(self, label, args, kwargs, out):
        if label == "cli.write_matrix":
            self.counts["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
        elif label == "cli.read_matrix":
            self.counts["cli.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif label == "jmap.solve_jmap":
            self.counts["jmap.iterations"] += out[1].iterations
        elif label == "vba.solve_vba":
            config = _arg(args, kwargs, 2, "config")
            full = config is not None and config.separability == "full"
            key = "vba.full_iterations" if full else "vba.partial_iterations"
            self.counts[key] += out[1].iterations

    def install(self):
        """Replace every listed function in every bsi namespace that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bsi" or n.startswith("bsi."))]
        for label, (module_name, attr) in LISTED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrapper(label, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    # -- results -------------------------------------------------------
    def summary(self):
        """Self time and call count per span name, plus op coverage.

        Coverage of an op is the share of its time spent in spans two
        levels below it, i.e. in the listed layers called by the entry
        point the op invokes (solve_jmap, run_solve, ...).
        """
        child = defaultdict(float)
        depth = []
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            depth.append(0 if parent < 0 else depth[parent] + 1)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        op_total = defaultdict(float)
        op_covered = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            if name.startswith(OP_PREFIX):
                op_total[name[len(OP_PREFIX):]] += duration
                continue
            self_s[name] += duration - child[i]
            calls[name] += 1
            if depth[i] == 2:
                root = self.spans[self.spans[parent][3]][0]
                if root.startswith(OP_PREFIX):
                    op_covered[root[len(OP_PREFIX):]] += duration
        coverage = {op: op_covered[op] / total for op, total in op_total.items() if total > 0}
        return self_s, calls, coverage

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
