"""The package namespace and what each entry point imports.

``import bsi`` resolves its public names on first use, so each CLI mode
loads only the modules it calls: simulate needs numpy alone, solve adds
``scipy.linalg`` and only verify-priors loads ``scipy.special``.  No mode
loads ``scipy.integrate``, ``scipy.optimize`` or ``scipy.sparse``.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import bsi
import bsi.jmap
import bsi.model
import bsi.vba
from bsi.cli import EXIT_OK, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bsi.__file__)))
SCIPY_HEAVY = {"scipy.linalg", "scipy.special", "scipy.integrate"}


def loaded_modules(*args):
    """Every module a fresh ``python *args`` imports, read off ``-X importtime``."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def simulate_config(tmp_path):
    path = tmp_path / "simulate.json"
    path.write_text(json.dumps({
        "mode": "simulate", "seed": 3, "out_dir": str(tmp_path / "sim"),
        "simulate": {"length": 16, "sparsity": 2,
                     "operator": {"kind": "convolution", "kernel": [0.25, 0.5, 0.25]},
                     "noise": {"kind": "stationary", "sigma": 0.1}},
    }))
    return str(path)


class TestImportSets:
    def test_import_bsi_loads_no_submodule_and_no_scipy(self):
        loaded = loaded_modules("-c", "import bsi")
        assert "bsi" in loaded
        assert not {m for m in loaded
                    if m.startswith("bsi.") or m.split(".")[0] == "scipy"}

    def test_import_cli_leaves_out_scipy(self):
        loaded = loaded_modules("-c", "import bsi.cli")
        assert "bsi.cli" in loaded
        assert not loaded & SCIPY_HEAVY

    def test_simulate_leaves_out_scipy(self, tmp_path):
        loaded = loaded_modules("-m", "bsi", "simulate", "--config", simulate_config(tmp_path))
        assert (tmp_path / "sim" / "g.csv").exists()
        assert not loaded & SCIPY_HEAVY

    @pytest.mark.parametrize("method", ["jmap", "vba-partial"])
    def test_solve_leaves_out_special_and_integrate(self, tmp_path, method):
        assert main(["simulate", "--config", simulate_config(tmp_path)]) == EXIT_OK
        path = tmp_path / "solve.json"
        path.write_text(json.dumps({
            "mode": "solve", "method": method, "out_dir": str(tmp_path / "solve"),
            "solver": {"max_iter": 3},
            "inputs": {"g": str(tmp_path / "sim" / "g.csv"),
                       "H": str(tmp_path / "sim" / "H.csv")},
        }))
        loaded = loaded_modules("-m", "bsi", "solve", "--config", str(path))
        assert (tmp_path / "solve" / "result.json").exists()
        assert "scipy.linalg" in loaded
        assert not loaded & {"scipy.special", "scipy.integrate"}

    def test_verify_priors_loads_special_alone(self, tmp_path):
        path = tmp_path / "priors.json"
        path.write_text(json.dumps({
            "mode": "verify-priors", "seed": 3, "out_dir": str(tmp_path / "priors"),
            "priors": {"grid_step": 0.5, "mixture_draws": 1},
        }))
        loaded = loaded_modules("-m", "bsi", "verify-priors", "--config", str(path))
        assert (tmp_path / "priors" / "priors_report.json").exists()
        assert "scipy.special" in loaded
        assert not loaded & {"scipy.integrate", "scipy.optimize", "scipy.sparse"}


class TestLazyNamespace:
    def test_every_public_name_is_its_defining_module_object(self):
        for name in bsi.__all__:
            obj = getattr(bsi, name)
            assert obj.__module__.startswith("bsi."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
            assert vars(bsi)[name] is obj, name  # cached: later reads skip __getattr__

    def test_dir_and_star_import_cover_all(self):
        assert set(bsi.__all__) <= set(dir(bsi))
        namespace = {}
        exec("from bsi import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(bsi.__all__)
        assert all(namespace[name] is getattr(bsi, name) for name in bsi.__all__)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bsi.no_such_name
        assert not hasattr(bsi, "no_such_name")

    def test_submodule_reachable_from_bare_import(self, monkeypatch):
        monkeypatch.delattr(bsi, "rng")
        assert bsi.rng is sys.modules["bsi.rng"]

    def test_jmap_config_is_defined_once(self):
        assert bsi.jmap.JmapConfig is bsi.model.JmapConfig is bsi.JmapConfig

    @pytest.mark.parametrize("bad", [
        {"max_iter": 0}, {"max_iter": True}, {"tol_rel_f": math.nan},
        {"init": "warm"}, {"init": [math.inf]},
    ])
    def test_both_configs_share_the_limit_check(self, bad):
        messages = []
        for config in (bsi.model.JmapConfig, bsi.vba.VbaConfig):
            with pytest.raises(ValueError) as err:
                config(**bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
