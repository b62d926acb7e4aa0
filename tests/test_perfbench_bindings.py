"""The benchmark tracer wraps qotto functions at the names its callers bind.

A rename in qotto would otherwise surface only in a traced benchmark run;
here every name the tracer installs a wrapper on must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path}"
    assert callable(importlib.import_module("qotto.dynamics").solve_ivp)
    assert callable(importlib.import_module("qotto.cli").max_energy_deviation)
