"""Strong-coupling thermodynamic bookkeeping over joint trajectories.

Definitions (units with hbar = k_B = 1, natural logarithms):

* work on the total setup = change of Tr[H_tot rho_SB], including the
  explicit time dependence of H_tot;
* heat into the system = energy leaving the bath, -Delta Tr[H_B rho_B];
* internal energy of the system = Tr[(H_S + H_SB) rho_SB];
* entropy production over one contact = relative entropy between the joint
  state and the product of its system marginal with the initial thermal bath.
  For a contact that starts from a product with a Gibbs bath this equals
  Delta S_S - beta Q (Esposito, Lindenberg and Van den Broeck, NJP 12,
  013013 (2010)); the closed-form cycle uses that scalar form, and the
  relative entropy here is its audit route.

Endpoint expressions are exact for these definitions, so no quadrature of the
instantaneous flow is needed; the tests keep a Simpson integral of that flow as
an independent audit of the heat.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import SupportViolationError
from .tolerances import TOL


class EnergyLedger(NamedTuple):
    """Per-stroke energy account; first law reads energy change = work + heat.

    Each entry is a float for one cycle, or an ndarray with one entry per cycle
    of a grid (a sweep's column); the residual follows elementwise.
    """

    work: float | np.ndarray
    heat: float | np.ndarray
    internal_energy_initial: float | np.ndarray
    internal_energy_final: float | np.ndarray
    entropy_production: float | np.ndarray = 0.0

    @property
    def first_law_residual(self):
        return (self.internal_energy_final - self.internal_energy_initial
                - self.work - self.heat)


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta h)/Z for Hermitian h."""
    evals, evecs = linalg.hermitian_eig(h)
    w = np.exp(-beta * (evals - evals.min()))
    w /= w.sum()
    return (evecs * w) @ evecs.conj().T


def internal_energy(rho_sb: np.ndarray, h_s: np.ndarray, h_sb: np.ndarray) -> float:
    """Tr[(H_S x 1 + H_SB) rho_SB] for a 4x4 joint state and 2x2 system Hamiltonian."""
    rho_sb = np.asarray(rho_sb, dtype=complex)
    h_s = np.asarray(h_s, dtype=complex)
    h_sb = np.asarray(h_sb, dtype=complex)
    if rho_sb.shape != (4, 4) or h_s.shape != (2, 2) or h_sb.shape != (4, 4):
        raise ValueError("expected rho_sb 4x4, h_s 2x2, h_sb 4x4")
    op = np.kron(h_s, linalg.IDENTITY_2) + h_sb
    return float(np.trace(op @ rho_sb).real)


def bath_energy(rho_sb: np.ndarray, h_b: np.ndarray) -> float:
    """Tr[H_B rho_B] with the bath marginal taken over the second factor."""
    rho_b = linalg.partial_trace_system(np.asarray(rho_sb, dtype=complex))
    return float(np.trace(np.asarray(h_b, dtype=complex) @ rho_b).real)


def heat_into_system(states: np.ndarray, h_b: np.ndarray) -> float:
    """-(Tr[H_B rho_B(end)] - Tr[H_B rho_B(start)]) over one contact with fixed H_B."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 3 or states.shape[1:] != (4, 4) or states.shape[0] < 2:
        raise ValueError("expected a trajectory of shape (n, 4, 4) with n >= 2")
    return -(bath_energy(states[-1], h_b) - bath_energy(states[0], h_b))


def connect_disconnect_work(h_sb_at_boundary: np.ndarray, rho: np.ndarray,
                            disconnect: bool = False) -> float:
    """Instantaneous coupling cost +/- Tr[H_SB rho] when the interaction switches."""
    rho = np.asarray(rho, dtype=complex)
    h_sb = np.asarray(h_sb_at_boundary, dtype=complex)
    if rho.shape != (4, 4) or h_sb.shape != (4, 4):
        raise ValueError("expected 4x4 operators")
    value = float(np.trace(h_sb @ rho).real)
    return -value if disconnect else value


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) = Tr[rho ln rho] - Tr[rho ln sigma] >= 0.

    Raises ``SupportViolationError`` when rho has weight on the null space of
    sigma, where the relative entropy is +infinity.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    r_vals, r_vecs = linalg.hermitian_eig(rho)
    s_vals, s_vecs = linalg.hermitian_eig(sigma)

    # weight of rho on each eigenvector of sigma
    overlaps = np.abs(r_vecs.conj().T @ s_vecs) ** 2  # overlaps[i, j] = |<u_i|w_j>|^2
    weights = r_vals @ overlaps
    null = s_vals <= TOL.entropy_eig_floor
    if np.any(weights[null] > TOL.support_weight):
        raise SupportViolationError(
            "relative entropy diverges: first state has support outside the second's")

    term_rho = sum(lam * math.log(lam) for lam in r_vals if lam > TOL.entropy_eig_floor)
    log_s = np.where(null, 0.0, np.log(np.maximum(s_vals, TOL.entropy_eig_floor)))
    term_cross = float(weights @ log_s)
    return term_rho - term_cross


def entropy_production(rho_sb: np.ndarray, beta: float, h_b: np.ndarray) -> float:
    """S(rho_SB || rho_S x rho_B^beta): total entropy produced since the contact began."""
    rho_sb = np.asarray(rho_sb, dtype=complex)
    rho_s = linalg.partial_trace_bath(rho_sb)
    reference = np.kron(rho_s, gibbs_state(np.asarray(h_b, dtype=complex), beta))
    return relative_entropy(rho_sb, reference)
