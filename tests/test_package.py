"""The package namespace: ``import qotto`` loads nothing until a name is used.

Each public name resolves on first access to the object its home module
defines, so the lazy namespace offers the same names as importing every
submodule would, at the cost of only the modules a caller touches.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qotto

ROOT = Path(__file__).resolve().parents[1]

#: every public name of the package, by home module
HOMES = {
    "cycle": ["CycleConfig", "CycleReport", "CycleSweep", "build_config", "classify_regime",
              "max_energy_deviation", "strong_cycle", "strong_cycle_sweep",
              "strong_cycle_via_oracle", "weak_cycle"],
    "dynamics": ["QubitState", "VectorizedRep", "cp_divisibility_witness", "joint_state",
                 "joint_state_closed_form", "master_equation_rhs", "oracle_propagate",
                 "reduced_state", "total_hamiltonian", "vectorized_reps"],
    "errors": ["ConfigError", "IntegrationFailureError", "PositivityError", "QottoError",
               "SingularGeneratorError", "SupportViolationError"],
    "profiles": ["CouplingProfile", "MarkovianProfile", "NonMarkovianProfile", "RatePair",
                 "TabulatedProfile", "load_tabulated", "profile_from_spec", "rate_gamma",
                 "rate_pair"],
    "thermo": ["EnergyLedger", "connect_disconnect_work", "entropy_production", "gibbs_state",
               "heat_into_system", "internal_energy", "relative_entropy"],
    "tolerances": ["TOL", "Tolerances"],
}
NAMES = [(module, name) for module, names in HOMES.items() for name in names]
#: the submodules that a bare ``import qotto`` offers as attributes
SUBMODULES = ["cycle", "dynamics", "errors", "linalg", "profiles", "thermo", "tolerances"]


def _fresh(script: str) -> str:
    """stdout of ``script`` in a fresh interpreter that imports qotto from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh(
        "import sys, qotto\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('qotto.')))\n"
        "from qotto import TOL, ConfigError\n"
        "print('numpy' in sys.modules)\n")
    assert loaded.splitlines() == ["[]", "False"]


def test_submodules_resolve_after_bare_import():
    script = ("import types, qotto\n"
              + "".join(f"assert isinstance(qotto.{name}, types.ModuleType)\n"
                        f"assert qotto.{name}.__name__ == 'qotto.{name}'\n"
                        for name in SUBMODULES)
              + "print(qotto.cycle.strong_cycle is qotto.strong_cycle)\n")
    assert _fresh(script) == "True\n"


def test_all_is_the_public_names():
    assert len(NAMES) == 44
    assert sorted(qotto.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_home_modules_object(module, name):
    assert getattr(qotto, name) is getattr(importlib.import_module(f"qotto.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qotto import *", namespace)
    assert {name: namespace[name] for _, name in NAMES} == \
        {name: getattr(qotto, name) for _, name in NAMES}


def test_dir_lists_names_and_submodules():
    assert set(qotto.__all__) | set(SUBMODULES) <= set(dir(qotto))
    assert "sys" not in dir(qotto)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'qotto' has no attribute 'nope'$"):
        qotto.nope

