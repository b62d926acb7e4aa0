"""Exact joint and reduced dynamics of the qubit + single-qubit-bath model.

The total Hamiltonian omega (sigma_z x 1 + 1 x sigma_z) + f(t)/2 (sigma_x x
sigma_x + sigma_y x sigma_y) commutes with itself at different times, so the
joint state of a product input (arbitrary system qubit, diagonal bath qubit
with parameter g) is known in closed form for any accumulated phase
F(t). This module provides that closed form, the reduced qubit state, the
time-local master equation, the vectorized map/generator pair with its
reshuffled form and CP-divisibility witness, and an independent ODE oracle
that audits the closed forms.

Two audit routes live here. The oracle integrates the complex joint state
with DOP853 (8th-order Dormand-Prince) in one call, ``oracle_propagate``, at
``TOL.oracle_rtol`` and ``TOL.oracle_atol``; each stroke may spend at most
``ORACLE_RHS_BUDGET`` right-hand-side evaluations. The vectorized map, its
derivative and its inverse are built by one helper from a 2x2 population
block and a coherence factor, with the phase and the coupling each evaluated
once per time.

scipy is imported only by the oracle: the module-level ``solve_ivp`` loads
``scipy.integrate`` on the first integration, so importing this module (and
the closed forms, the witness and the CLI's non-oracle commands) needs numpy
alone.

Convention: the joint state evolves through U(t) = exp(-i * int_0^t H dt').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import IntegrationFailureError, PositivityError, SingularGeneratorError
from .profiles import CouplingProfile, RatePair
from .tolerances import TOL

#: honest integration starts here; f(t) ~ 1/(2 sqrt(g t)) diverges at t = 0
ORACLE_T_START = 1e-6
#: right-hand-side evaluations one oracle stroke may use: about 2 s of integration
ORACLE_RHS_BUDGET = 200_000

_COUPLING_PATTERN = np.zeros((4, 4), dtype=complex)
_COUPLING_PATTERN[1, 2] = 1.0
_COUPLING_PATTERN[2, 1] = 1.0

_FREE_PART = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)

_PHI_PLUS = np.zeros(4, dtype=complex)
_PHI_PLUS[0] = _PHI_PLUS[3] = 1.0 / math.sqrt(2.0)
_WITNESS_PROJECTOR = np.eye(4, dtype=complex) - np.outer(_PHI_PLUS, _PHI_PLUS.conj())


@dataclass(frozen=True)
class QubitState:
    """(p, x) parameterization of a qubit density matrix.

    p is the population of the sigma_z (+1) eigenstate |0>, x the complex
    coherence; positivity requires |x|^2 <= p(1-p).
    """

    p: float
    x: complex = 0j

    def __post_init__(self):
        if not -TOL.qubit_positivity <= self.p <= 1.0 + TOL.qubit_positivity:
            raise ValueError(f"population p must lie in [0, 1], got {self.p}")
        if abs(self.x) ** 2 > self.p * (1.0 - self.p) + TOL.qubit_positivity:
            raise ValueError(
                f"coherence too large: |x|^2 = {abs(self.x)**2:.3e} exceeds "
                f"p(1-p) = {self.p * (1.0 - self.p):.3e}")

    def matrix(self) -> np.ndarray:
        return np.array([[self.p, self.x], [np.conj(self.x), 1.0 - self.p]], dtype=complex)


def bath_thermal_matrix(g: float) -> np.ndarray:
    """diag((1-g)/2, (1+g)/2): thermal bath qubit with parameter g."""
    return np.diag([(1.0 - g) / 2.0, (1.0 + g) / 2.0]).astype(complex)


def total_hamiltonian(omega: float, f_value: float) -> np.ndarray:
    """omega (sigma_z x 1 + 1 x sigma_z) plus the exchange coupling at strength f_value."""
    return omega * _FREE_PART + f_value * _COUPLING_PATTERN


def coupling_hamiltonian(f_value: float) -> np.ndarray:
    """The exchange interaction alone: f_value at entries (1,2) and (2,1)."""
    return f_value * _COUPLING_PATTERN


def joint_state_closed_form(sys: QubitState, g: float, omega: float,
                            phase: float, t: float) -> np.ndarray:
    """Closed-form joint state at accumulated phase F = phase and time t.

    The input is the product of ``sys`` with the thermal bath qubit of
    parameter g; the output is the exactly evolved 4x4 density operator.
    """
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"bath parameter g must lie in [0, 1], got {g}")
    p, x = sys.p, complex(sys.x)
    lo = (1.0 - g) / 2.0
    hi = (1.0 + g) / 2.0
    cf = math.cos(phase)
    sf = math.sin(phase)
    s2f = math.sin(2.0 * phase)
    c2f = math.cos(2.0 * phase)
    ph = np.exp(-2j * omega * t)
    mid = 0.25j * (g + 2.0 * p - 1.0) * s2f

    rho = np.array([
        [lo * p, 1j * lo * x * ph * sf, lo * x * ph * cf, 0.0],
        [-1j * lo * np.conj(x * ph) * sf,
         lo * sf**2 + 0.5 * p * (g + c2f), mid, hi * x * ph * cf],
        [lo * np.conj(x * ph) * cf, -mid,
         lo * cf**2 + 0.5 * p * (g - c2f), -1j * hi * x * ph * sf],
        [0.0, hi * np.conj(x * ph) * cf, 1j * hi * np.conj(x * ph) * sf, hi * (1.0 - p)],
    ], dtype=complex)

    evals = np.linalg.eigvalsh(rho)
    if evals.min() < TOL.psd_floor or abs(np.trace(rho).real - 1.0) > TOL.trace_one:
        raise PositivityError(
            f"closed-form joint state invalid: min eig {evals.min():.3e}, "
            f"trace {np.trace(rho).real:.12g}")
    return rho


def joint_state(sys: QubitState, profile: CouplingProfile, omega: float,
                t: float) -> np.ndarray:
    """Closed-form joint state with the phase supplied by a coupling profile."""
    return joint_state_closed_form(sys, profile.g, omega, profile.phase(t), t)


def reduced_state(sys: QubitState, profile: CouplingProfile, omega: float,
                  t: float) -> QubitState:
    """Reduced qubit state: p(t) = p cos^2 F + (1-g)/2 sin^2 F, x(t) = x e^{-2i omega t} cos F."""
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    phase = profile.phase(t)
    cf = math.cos(phase)
    p_t = sys.p * cf**2 + 0.5 * (1.0 - profile.g) * math.sin(phase) ** 2
    x_t = complex(sys.x) * np.exp(-2j * omega * t) * cf
    return QubitState(p=min(max(p_t, 0.0), 1.0), x=x_t)


def master_equation_rhs(rho: np.ndarray, omega: float, rates: RatePair) -> np.ndarray:
    """Time-local generator: -i omega [sigma_z, rho] plus pumping/damping dissipators."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got {rho.shape}")
    sz, sp, sm = linalg.SIGMA_Z, linalg.SIGMA_PLUS, linalg.SIGMA_MINUS
    out = -1j * omega * (sz @ rho - rho @ sz)
    n_minus = sp @ sm
    n_plus = sm @ sp
    out += rates.gamma_minus * (sm @ rho @ sp - 0.5 * (n_minus @ rho + rho @ n_minus))
    out += rates.gamma_plus * (sp @ rho @ sm - 0.5 * (n_plus @ rho + rho @ n_plus))
    return out


# --- independent integrator -------------------------------------------------

#: the free part of -i [H, rho] per unit omega on the row-major vec(rho):
#: -i (d_i - d_j) with d = diag(_FREE_PART)
_FREE_COMMUTATOR = -1j * np.subtract.outer(np.diag(_FREE_PART), np.diag(_FREE_PART)).ravel()
#: -i [P, rho] as a 16x16 superoperator on the row-major vec(rho), P = _COUPLING_PATTERN
_COUPLING_COMMUTATOR = -1j * (np.kron(_COUPLING_PATTERN, np.eye(4))
                              - np.kron(np.eye(4), _COUPLING_PATTERN.T))


def _liouville_rhs(profile: CouplingProfile, omega: float, t_end: float):
    """d vec(rho)/dt = free * vec(rho) + f(t) C vec(rho), counted against ORACLE_RHS_BUDGET."""
    free = omega * _FREE_COMMUTATOR
    calls = 0

    def rhs(t, y):
        nonlocal calls
        calls += 1
        if calls > ORACLE_RHS_BUDGET:
            raise IntegrationFailureError(
                f"oracle stroke of duration {t_end!r} exceeds the budget of "
                f"{ORACLE_RHS_BUDGET} right-hand-side evaluations")
        return free * y + profile.f(t) * (_COUPLING_COMMUTATOR @ y)
    return rhs


def _seed_state(sys: QubitState, profile: CouplingProfile, omega: float,
                t_seed: float) -> np.ndarray:
    # H(t) is different-time commuting, so the sliver [0, t_seed] around the
    # f singularity is advanced exactly by its accumulated phase; honest
    # stepping takes over at t_seed where f is finite.
    rho0 = np.kron(sys.matrix(), bath_thermal_matrix(profile.g))
    h_eff = omega * t_seed * _FREE_PART + profile.phase(t_seed) * _COUPLING_PATTERN
    u = linalg.matrix_exp_skewhermitian(h_eff, 1.0)
    return u @ rho0 @ u.conj().T


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first oracle integration."""
    from scipy import integrate

    return integrate.solve_ivp(*args, **kwargs)


def oracle_propagate(sys: QubitState, profile: CouplingProfile, omega: float,
                     t: float) -> np.ndarray:
    """Joint state at time t by adaptive 8th-order integration of drho/dt = -i [H(t), rho].

    Deliberately avoids the commuting-Hamiltonian shortcut (except on the
    initial sliver below ``ORACLE_T_START``) so that it is an independent
    check of the closed-form state. The complex 16-vector vec(rho) is
    integrated as it is by DOP853 at ``TOL.oracle_rtol`` and
    ``TOL.oracle_atol``, with the right-hand side written as
    ``free * vec(rho) + f(t) C vec(rho)``: the free part is an elementwise
    scale, C the commutator with the exchange coupling as a 16x16
    superoperator. A stroke that needs more than ``ORACLE_RHS_BUDGET``
    evaluations (a non-Markovian one of a few hundred time units or more,
    whose ripple keeps the steps short) raises IntegrationFailureError.
    """
    if t <= 0.0:
        raise ValueError(f"oracle time must be positive, got {t}")
    t_seed = max(ORACLE_T_START, profile.t_min)
    if t <= t_seed:
        return _seed_state(sys, profile, omega, t)
    sol = solve_ivp(_liouville_rhs(profile, omega, t), (t_seed, t),
                    _seed_state(sys, profile, omega, t_seed).ravel(), method="DOP853",
                    rtol=TOL.oracle_rtol, atol=TOL.oracle_atol)
    if not sol.success:
        raise IntegrationFailureError(sol.message)
    return sol.y[:, -1].reshape(4, 4)


# --- vectorized map, generator and witness ----------------------------------

@dataclass(frozen=True)
class VectorizedRep:
    """Row-major vectorized dynamical map, its generator, and the reshuffled generator."""

    map_hat: np.ndarray
    gen_hat: np.ndarray
    omega_of_gen: np.ndarray


def reshuffle(a: np.ndarray) -> np.ndarray:
    """Index involution Omega: Omega(A)[(i,k),(j,l)] = A[(l,k),(j,i)] on 4x4 operators."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"reshuffle expects a 4x4 matrix, got {a.shape}")
    return a.reshape(2, 2, 2, 2).transpose(3, 1, 2, 0).reshape(4, 4)


def _vec_matrix(block, c: complex) -> np.ndarray:
    """4x4 vectorized superoperator of this model: the 2x2 ``block`` acts on the
    populations (indices 0 and 3), the coherences scale by c at [1,1] and conj(c) at [2,2]."""
    m = np.zeros((4, 4), dtype=complex)
    m[::3, ::3] = block
    m[1, 1] = c
    m[2, 2] = np.conj(c)
    return m


def vectorized_reps(profile: CouplingProfile, omega: float, t: float) -> VectorizedRep:
    """Vectorized map Lambda_t, generator L_t = dLambda_t Lambda_t^{-1}, and Omega(L_t)."""
    g = profile.g
    up, down = 0.5 * (1.0 + g), 0.5 * (1.0 - g)
    phase = profile.phase(t)
    cf, s = math.cos(phase), math.sin(phase) ** 2
    if abs(cf) < TOL.cos_phase_singular:
        raise SingularGeneratorError(
            f"dynamical map not invertible at t = {t}: |cos F| = {abs(cf):.2e}")
    rot = np.exp(-2j * omega * t)
    map_hat = _vec_matrix(((1.0 - up * s, down * s), (up * s, 1.0 - down * s)), rot * cf)
    # f(t) diverges at t = 0 but the products f sin(2F) and f sin(F) have
    # finite limits; evaluating them just above zero realizes those limits
    t_f = max(t, 1e-12)
    phase_f = phase if t_f == t else profile.phase(t_f)
    fval = profile.f(t_f)
    ds = fval * math.sin(2.0 * phase_f)
    dot = _vec_matrix(((-up * ds, down * ds), (up * ds, -down * ds)),
                      rot * (-2j * omega * math.cos(phase_f) - fval * math.sin(phase_f)))
    # adjugate inverse; the population-block determinant equals 1 - sin^2 F,
    # which is evaluated as cos^2 F to avoid cancellation near singularities
    c2 = cf**2
    inv = _vec_matrix((((1.0 - down * s) / c2, -down * s / c2),
                       (-up * s / c2, (1.0 - up * s) / c2)), np.conj(rot) / cf)
    gen_hat = dot @ inv
    return VectorizedRep(map_hat=map_hat, gen_hat=gen_hat,
                         omega_of_gen=reshuffle(gen_hat))


def cp_divisibility_witness(rep: VectorizedRep) -> tuple[bool, np.ndarray]:
    """PSD flag and spectrum of Pi Omega(L_t) Pi with Pi = 1 - |phi+><phi+|.

    For this model the projected operator is diag(0, (1+g) gamma, (1-g) gamma, 0)
    in the {phi+, |01>, |10>, phi-} basis, so positivity is equivalent to
    gamma(t) >= 0.
    """
    m = _WITNESS_PROJECTOR @ rep.omega_of_gen @ _WITNESS_PROJECTOR
    dev = np.max(np.abs(m - m.conj().T))
    if dev > TOL.witness_hermitian * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"projected witness operator is not Hermitian: deviation {dev:.3e}")
    evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return bool(evals.min() >= TOL.rate_floor), evals
