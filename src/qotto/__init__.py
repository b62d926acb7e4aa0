"""Two-qubit quantum Otto cycle with finite single-qubit baths.

One qubit is the working medium, a second qubit acts as the bath; an
engineered exchange coupling thermalizes the medium exactly. The package
provides the paper's results -- the closed-form joint state, the exact master
equation in GKLS form, the CP-divisibility witness and the weak-coupling and
strongly coupled (Markovian, non-Markovian, tabulated) Otto cycles -- and the
routes that audit them: an independent ODE oracle and the 4x4 thermodynamic
functionals. It needs numpy alone.

``import qotto`` loads no submodule and not numpy: each public name below is
imported from its home module on first use (PEP 562), so a caller that reads
only ``TOL`` or an error class pays for ``qotto.tolerances`` or
``qotto.errors`` alone.
"""

__version__ = "0.1.0"

#: public name -> its home module; a submodule maps to itself
_LAZY = {name: module for module, names in {
    "cycle": ("CycleConfig", "CycleReport", "CycleSweep", "build_config", "classify_regime",
              "max_energy_deviation", "strong_cycle", "strong_cycle_sweep",
              "strong_cycle_via_oracle", "weak_cycle"),
    "dynamics": ("QubitState", "VectorizedRep", "cp_divisibility_witness", "joint_state",
                 "joint_state_closed_form", "master_equation_rhs", "oracle_propagate",
                 "reduced_state", "total_hamiltonian", "vectorized_reps"),
    "errors": ("ConfigError", "IntegrationFailureError", "PositivityError", "QottoError",
               "SingularGeneratorError", "SupportViolationError"),
    "linalg": (),
    "profiles": ("CouplingProfile", "MarkovianProfile", "NonMarkovianProfile", "RatePair",
                 "TabulatedProfile", "load_tabulated", "profile_from_spec", "rate_gamma",
                 "rate_pair"),
    "thermo": ("EnergyLedger", "connect_disconnect_work", "entropy_production", "gibbs_state",
               "heat_into_system", "internal_energy", "relative_entropy"),
    "tolerances": ("TOL", "Tolerances"),
}.items() for name in (module, *names)}

__all__ = sorted(name for name, module in _LAZY.items() if name != module)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: only the former is the import
    # that python -X importtime reports. It binds the submodule in this namespace.
    __import__(f"{__name__}.{_LAZY[name]}")
    module = globals()[_LAZY[name]]
    value = module if _LAZY[name] == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
