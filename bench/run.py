"""Benchmark of the bsi solvers and CLI.

    python3 bench/run.py --workload {deconv,sensing-batch,cli} --seed N \
        --seconds S --trace {0,1} [--size tiny]

Run from the root of a checkout: the program is imported from ./src.
The run builds one round of inputs from (seed, round index), runs the
seven operations of workloads.OPS on it, checks every output, and repeats
whole rounds until S seconds have passed.  Round 0 is a warm-up whose
outputs also get the expensive oracle checks.  The last line of standard
output is one JSON object: with --trace 0 the end-to-end metrics (medians
over the rounds, scaled to a nominal host speed; the raw medians are on
the line before), with --trace 1 the per-layer metrics of a traced pass
over the same rounds.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: two threads on a 2-vCPU host
# made solves up to 2.5x slower and far noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "bsi", "__init__.py")):
        sys.exit(f"bench: no program source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import bsi
    if not os.path.abspath(bsi.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: bsi was imported from {bsi.__file__}, not from {SRC}")


_import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# Typical host_reference() time on the 2-vCPU development host.  Timings
# are reported scaled to it (see end_to_end).
REF_NOMINAL_S = 0.028


def host_reference():
    """A fixed pure-Python loop plus a fixed-size dgemm; moves with the host only."""
    tic = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    a = np.full((256, 256), 1.0 / 256)
    for _ in range(10):
        a = a @ a
    return time.perf_counter() - tic


class Run:
    """Rounds of one workload with their samples, counts and failures."""

    def __init__(self, name, spec, seed, work_dir, tracer=None):
        self.name, self.spec, self.seed = name, spec, seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.samples = {op: [] for op in workloads.OPS}
        self.setup = []
        self.host = []
        self.ratios = {m: [] for m in workloads.LIBRARY_OPS.values()}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _timed(self, op, fn, *args):
        tic = time.perf_counter()
        if self.tracer is None:
            out = fn(*args)
        else:
            out = self.tracer.call(tracing.OP_PREFIX + op, fn, *args)
        return out, time.perf_counter() - tic

    def _fail(self, op, message):
        self.failed += 1
        self.errors.append(f"{self.name} {op}: {message}")

    def _checked(self, op, check):
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            found = check()
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if found:
            self._fail(op, found)

    def round(self, index, record=True):
        spec = self.spec
        tic = time.perf_counter()
        inputs = workloads.build_round(spec, self.seed, index, self.work_dir)
        setup = time.perf_counter() - tic
        full = index == 0
        reps = max(spec.repeats.values(), default=1)
        for rep in range(reps):
            for op in workloads.OPS:
                if rep < spec.repeats.get(op, 1):
                    self._op(op, inputs, full and rep == 0, record)
        if record:
            self.setup.append(setup)
            self.host.append(host_reference())
        shutil.rmtree(inputs.round_dir, ignore_errors=True)

    def _op(self, op, inputs, full, record):
        spec = self.spec
        self.attempted += 1
        try:
            if op in workloads.LIBRARY_OPS:
                method = workloads.LIBRARY_OPS[op]
                results, seconds = self._timed(op, workloads.solve_library,
                                               spec, method, inputs.problems)
                self._checked(op, lambda: workloads.check_library(
                    method, inputs.problems, results))
                if spec.beat_baseline:
                    self.ratios[method] += workloads.baseline_ratios(inputs.problems, results)
            elif op == "import_s":
                seconds = workloads.fresh_import(SRC)
            else:
                _, seconds = self._timed(op, workloads.run_cli, inputs, op)
                self._checked(op, lambda: workloads.check_cli(spec, inputs, op, full))
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return
        if record:
            self.samples[op].append(seconds)

    def rounds_for(self, seconds, first=1):
        """Whole rounds from ``first`` until ``seconds`` have passed; returns the count."""
        start = time.perf_counter()
        index = first
        while True:
            self.round(index)
            index += 1
            if time.perf_counter() - start >= seconds:
                return index - first

    def check_accuracy(self):
        """The paper's claim over the run's problems, one check per method."""
        if self.spec.beat_baseline:
            for method, ratios in self.ratios.items():
                self.attempted += 1
                found = checks.beats_baseline(ratios)
                if found:
                    self._fail(method, found)

    def op_seconds(self):
        return sum(sum(v) for op, v in self.samples.items() if op != "import_s")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def raw_medians(run):
    medians = {"setup_s": statistics.median(run.setup)}
    medians.update((op, statistics.median(v)) for op, v in run.samples.items())
    return medians


def end_to_end(run):
    """Medians scaled by REF_NOMINAL_S / (the run's median host_reference()).

    The host drifts by up to +-20 % between runs for minutes at a time, and
    every op of a run moves with it; the per-round reference moves the same
    way, so the scaled medians spread about half as much between runs.
    """
    scale = REF_NOMINAL_S / statistics.median(run.host)
    metrics = {name: _metric(value * scale, "s") for name, value in raw_medians(run).items()}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = _metric(rss_kb / 1024.0, "MB")
    return metrics


def per_layer(tracer, overhead, host):
    self_s, calls, coverage = tracer.summary()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}_s"] = _metric(self_s.get(name, 0.0), "s")
        metrics[f"{name}_calls"] = _metric(calls.get(name, 0), "count")
    for name in tracing.COUNTERS:
        unit = "bytes" if "bytes" in name else "count"
        metrics[name] = _metric(tracer.counts.get(name, 0), unit)
    for op in workloads.LIBRARY_OPS.keys() | {"cli_simulate_s", "cli_solve_s",
                                              "cli_verify_priors_s"}:
        metrics[f"coverage.{op[:-2]}"] = _metric(coverage.get(op, 0.0), "ratio")
    metrics["host.ref_loop_s"] = _metric(host, "s")
    metrics["tracing.overhead_s"] = _metric(overhead, "s")
    return dict(sorted(metrics.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = (workloads.TINY if args.size == "tiny" else workloads.SPECS)[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = os.path.join(OUT_DIR, tag)
    try:
        run = Run(args.workload, spec, args.seed, work_dir)
        run.round(0, record=False)
        if args.trace == 0:
            run.rounds_for(args.seconds)
            run.check_accuracy()
            metrics = end_to_end(run)
        else:
            count = run.rounds_for(args.seconds / 2)
            tracer = tracing.Tracer()
            traced = Run(args.workload, spec, args.seed, work_dir, tracer)
            tracer.install()
            try:
                for index in range(1, count + 1):
                    traced.round(index)
            finally:
                tracer.uninstall()
            run.check_accuracy()
            traced.check_accuracy()
            overhead = traced.op_seconds() - run.op_seconds()
            metrics = per_layer(tracer, overhead, statistics.median(run.host + traced.host))
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))
            run.attempted += traced.attempted
            run.failed += traced.failed
            run.errors += traced.errors
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in run.errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"host.ref_loop_s {statistics.median(run.host)!r} rounds "
          f"{len(run.setup)} attempted {run.attempted} raw medians "
          + json.dumps(raw_medians(run)))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
