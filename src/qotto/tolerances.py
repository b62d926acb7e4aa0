"""Numerical tolerances used across the package.

Library code and the test suite share this single record so that validation
thresholds and acceptance thresholds cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-12            # |A - A^dag| entrywise
    trace_one: float = 1e-10            # |Tr rho - 1|
    psd_floor: float = -1e-10           # smallest admissible density eigenvalue
    eig_reconstruction: float = 1e-10   # |V D V^dag - A| max entry
    unitarity: float = 1e-10            # |U U^dag - 1| max entry
    qubit_positivity: float = 1e-12     # slack on |x|^2 <= p(1-p)
    profile_g_match: float = 1e-12      # |g - tanh(beta*omega)|
    cos_phase_singular: float = 1e-8    # |cos F| below this: map not invertible
    rate_floor: float = -1e-10          # gamma(t) >= rate_floor means CP-divisible
    witness_hermitian: float = 1e-9     # |M - M^dag| of the projected witness, relative to max|M|
    semigroup_rate: float = 1e-9        # |gamma - 1/(2g)| for the semigroup profile
    thermal_weight_identity: float = 1e-9  # |sin^2 F - (1 - e^{-t/g})|, semigroup
    entropy_eig_floor: float = 1e-14    # eigenvalues below this are exact zeros
    support_weight: float = 1e-12       # weight on a null space that makes S(rho||sigma) infinite
    first_law: float = 1e-8             # |dE - (W + Q)| / omega_h per stroke and per cycle
    full_thermalization: float = 1e-9   # sin^2 F_c >= 1 - this: cycle closes, audit first law
    entropy_production_floor: float = -1e-8
    boundary_work: float = 1e-12        # coupling/decoupling cost / omega_h
    clausius_weak: float = 1e-12        # beta_h Qh0 + beta_c Qc0 <= this
    carnot_slack: float = 1e-12
    oracle_match: float = 1e-6          # closed form vs integrator, max entry
    oracle_rtol: float = 1e-11          # relative step tolerance of the ODE oracle
    oracle_atol: float = 1e-13          # absolute step tolerance of the ODE oracle
    oracle_cycle_match: float = 1e-5    # closed-form vs oracle ledger, max work/heat entry / omega_h
    master_residual: float = 1e-5       # relative master-equation residual
    stroke_scaling: float = 1e-8        # heat/work scaling identities
    cycle_identity: float = 1e-12       # |W - (W_AB + W_CD)|


TOL = Tolerances()
