"""Two-qubit quantum Otto cycle with finite single-qubit baths.

One qubit is the working medium, a second qubit acts as the bath; an
engineered exchange coupling thermalizes the medium exactly. The package
provides the closed-form joint dynamics, CP-divisibility diagnostics,
strong-coupling thermodynamic bookkeeping, and full four-stroke Otto cycles
in weak-coupling baseline, Markovian, and non-Markovian variants.
"""

from .cycle import (CycleConfig, CycleReport, CycleSweep, build_config, classify_regime,
                    max_energy_deviation, stroke_entropy_production_trace,
                    strong_cycle, strong_cycle_sweep, strong_cycle_via_oracle, weak_cycle)
from .dynamics import (QubitState, VectorizedRep, cp_divisibility_witness,
                       joint_state, joint_state_closed_form, master_equation_rhs,
                       oracle_propagate, reduced_state, total_hamiltonian,
                       vectorized_reps)
from .errors import (ConfigError, IntegrationFailureError, PositivityError,
                     QottoError, SingularGeneratorError, SupportViolationError,
                     UndefinedPowerError)
from .profiles import (CouplingProfile, MarkovianProfile, NonMarkovianProfile,
                       RatePair, TabulatedProfile, is_markovian, load_tabulated,
                       profile_from_spec, rate_gamma, rate_pair)
from .thermo import (EnergyLedger, connect_disconnect_work, entropy_production,
                     gibbs_state, heat_flow_integral, heat_into_system,
                     internal_energy, relative_entropy, von_neumann_entropy,
                     work_on_total)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"
