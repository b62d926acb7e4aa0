"""The benchmark's independent checker accepts one round of every workload.

``perfbench/checks.py`` recomputes each output from the paper's closed forms
with numpy alone (the ``cycle --oracle`` columns within 1e-6 of them), so a
change that breaks an output the benchmark runs fails here, in the test
suite, and not first in a benchmark run.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from qotto.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_passes_the_checker(workload, tmp_path):
    samples, outcomes = {}, []
    for op in workloads.plan(workload, 1, str(tmp_path)):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(op["argv"])
        text = Path(op["out"]).read_text(encoding="utf-8") if code == 0 else ""
        failed, problems = checks.check(op, text, code)
        outcomes.append((op["id"], code, failed, problems))
        samples.setdefault(op["cmd"], (op, text))
    assert [o for o in outcomes if o[2] or o[3]] == []
    assert checks.self_test(list(samples.values())) == []
