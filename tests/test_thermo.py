import math

import numpy as np
import pytest
from scipy.linalg import logm

from qotto import linalg
from qotto.dynamics import (QubitState, bath_thermal_matrix, coupling_hamiltonian,
                            joint_state_closed_form, oracle_propagate,
                            total_hamiltonian)
from qotto.errors import SupportViolationError
from qotto.profiles import MarkovianProfile, NonMarkovianProfile
from qotto.thermo import (EnergyLedger, connect_disconnect_work,
                          entropy_production, gibbs_state, heat_flow_integral,
                          heat_into_system, internal_energy, relative_entropy,
                          von_neumann_entropy, work_on_total)

W_C, W_H, BETA_C, BETA_H = 1.0, 2.0, 1.0, 0.2
G_C = math.tanh(BETA_C * W_C)
G_H = math.tanh(BETA_H * W_H)


def closed_form_trajectory(sys, profile, omega, times):
    return np.array([joint_state_closed_form(sys, profile.g, omega,
                                             profile.phase(float(t)), float(t))
                     for t in times])


def hot_stroke_inputs(tau, profile_cls=MarkovianProfile, n=201, t0=0.0):
    """Hot contact of the engine example: WM thermal at the cold bath."""
    sys = QubitState(p=(1.0 - G_C) / 2.0)
    profile = profile_cls(g=G_H)
    times = np.linspace(t0, tau, n)
    return sys, profile, closed_form_trajectory(sys, profile, W_H, times), times


class TestInternalEnergy:
    def test_product_state_without_interaction(self):
        rho_s = np.diag([0.3, 0.7]).astype(complex)
        rho = np.kron(rho_s, bath_thermal_matrix(0.5))
        h_s = 1.7 * linalg.SIGMA_Z
        value = internal_energy(rho, h_s, np.zeros((4, 4)))
        assert value == pytest.approx(np.trace(h_s @ rho_s).real, abs=1e-14)

    def test_maximally_mixed_traceless(self):
        h_sb = coupling_hamiltonian(0.37)
        value = internal_energy(np.eye(4) / 4, 2.0 * linalg.SIGMA_Z, h_sb)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_fully_thermalized_hot_contact(self):
        # after full population transfer the WM carries the hot-bath energy
        rho = joint_state_closed_form(QubitState(p=(1 - G_H) / 2), G_H, W_H,
                                      math.pi / 2, 3.0)
        value = internal_energy(rho, W_H * linalg.SIGMA_Z, np.zeros((4, 4)))
        assert value == pytest.approx(-W_H * G_H, abs=1e-12)


class TestHeat:
    def test_no_evolution_gives_zero(self):
        rho = np.kron(np.diag([0.3, 0.7]).astype(complex), bath_thermal_matrix(0.4))
        states = np.array([rho, rho, rho])
        assert heat_into_system(states, 1.3 * linalg.SIGMA_Z) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_hot_stroke_scales_with_thermal_weight(self, tau):
        sys, profile, states, _ = hot_stroke_inputs(tau)
        q = heat_into_system(states, W_H * linalg.SIGMA_Z)
        q0 = W_H * (G_C - G_H)
        assert q == pytest.approx(q0 * profile.thermal_weight(tau), abs=1e-12)

    def test_full_thermalization_value(self):
        sys, profile, states, _ = hot_stroke_inputs(60 * G_H)
        q = heat_into_system(states, W_H * linalg.SIGMA_Z)
        assert q == pytest.approx(0.76329039, abs=1e-8)

    @pytest.mark.parametrize("profile_cls,tol", [(MarkovianProfile, 1e-9),
                                                 (NonMarkovianProfile, 1e-6)])
    def test_integral_route_agrees(self, profile_cls, tol):
        # sqrt-spaced samples resolve the sqrt(t) kink of the flow at the head
        tau = 2.0
        sys = QubitState(p=(1.0 - G_C) / 2.0)
        profile = profile_cls(g=G_H)
        times = np.linspace(math.sqrt(1e-6), math.sqrt(tau), 1001) ** 2
        states = closed_form_trajectory(sys, profile, W_H, times)
        endpoint = heat_into_system(states, W_H * linalg.SIGMA_Z)
        integral = heat_flow_integral(times, states, W_H * linalg.SIGMA_Z,
                                      W_H * linalg.SIGMA_Z,
                                      lambda t: coupling_hamiltonian(profile.f(t)))
        assert integral == pytest.approx(endpoint, abs=tol)


class TestWork:
    def test_thermalization_stroke_costs_nothing(self):
        tau = 2.0
        sys, profile, states, times = hot_stroke_inputs(tau, n=101, t0=1e-6)
        w = work_on_total(times, states,
                          lambda t: total_hamiltonian(W_H, profile.f(t)))
        assert abs(w) <= 1e-8

    def test_quench_work_on_thermal_state(self):
        rho = np.diag([(1 - G_C) / 2, (1 + G_C) / 2]).astype(complex)
        times = np.array([0.0, 1.0])
        states = np.array([rho, rho])  # diagonal states are stationary under sigma_z
        omega_of_t = lambda t: (W_C + (W_H - W_C) * t) * linalg.SIGMA_Z
        w = work_on_total(times, states, omega_of_t)
        assert w == pytest.approx((W_C - W_H) * G_C, abs=1e-14)

    def test_constant_hamiltonian_constant_state(self):
        rho = np.kron(np.diag([0.2, 0.8]).astype(complex), bath_thermal_matrix(0.3))
        times = np.array([0.0, 2.0])
        w = work_on_total(times, np.array([rho, rho]),
                          lambda t: total_hamiltonian(1.0, 0.0))
        assert w == 0.0


class TestBoundaryWork:
    def test_product_state_costs_nothing(self):
        rho = np.kron(np.diag([0.3, 0.7]).astype(complex), bath_thermal_matrix(G_H))
        assert connect_disconnect_work(coupling_hamiltonian(5.0), rho) == 0.0

    def test_correlated_post_stroke_state_costs_nothing(self):
        sys, profile, states, _ = hot_stroke_inputs(1.5, n=2)
        w = connect_disconnect_work(coupling_hamiltonian(profile.f(1.5)), states[-1],
                                    disconnect=True)
        assert abs(w) <= 1e-12

    def test_functional_is_not_identically_zero(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 2] += 0.1
        rho[2, 1] += 0.1
        w = connect_disconnect_work(coupling_hamiltonian(2.0), rho)
        assert w == pytest.approx(0.4, abs=1e-14)
        assert connect_disconnect_work(coupling_hamiltonian(2.0), rho,
                                       disconnect=True) == pytest.approx(-0.4, abs=1e-14)


class TestEntropies:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(math.log(2), abs=1e-12)

    def test_pure_state_zero(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-13)

    def test_relative_entropy_self(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_reference_value(self):
        value = relative_entropy(np.diag([0.25, 0.75]), np.diag([0.5, 0.5]))
        assert value == pytest.approx(0.13081203, abs=1e-8)

    def test_support_violation_raises(self):
        with pytest.raises(SupportViolationError):
            relative_entropy(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))

    def test_matches_matrix_log_route(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            sigma = b @ b.conj().T
            sigma /= np.trace(sigma).real
            direct = relative_entropy(rho, sigma)
            via_log = np.trace(rho @ (logm(rho) - logm(sigma))).real
            assert direct == pytest.approx(via_log, abs=1e-10)

    def test_gibbs_state(self):
        rho = gibbs_state(W_H * linalg.SIGMA_Z, BETA_H)
        assert np.allclose(rho, bath_thermal_matrix(G_H), atol=1e-14)


class TestEntropyProduction:
    def test_zero_at_start(self):
        rho = np.kron(np.diag([0.3, 0.7]).astype(complex), bath_thermal_matrix(G_H))
        sigma = entropy_production(rho, BETA_H, W_H * linalg.SIGMA_Z)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_along_stroke(self):
        sys, profile, states, times = hot_stroke_inputs(2.0, n=40)
        for rho in states[1:]:
            assert entropy_production(rho, BETA_H, W_H * linalg.SIGMA_Z) >= -1e-8

    def test_equals_entropy_minus_beta_heat(self):
        beta, omega = 0.3, 2.0
        g = math.tanh(beta * omega)
        profile = MarkovianProfile(g=g)
        sys = QubitState(p=0.2, x=0.1j)
        times = np.linspace(0.0, 1.0, 3)
        states = closed_form_trajectory(sys, profile, omega, times)
        h_b = omega * linalg.SIGMA_Z
        direct = entropy_production(states[-1], beta, h_b)
        delta_s = (von_neumann_entropy(linalg.partial_trace_bath(states[-1]))
                   - von_neumann_entropy(linalg.partial_trace_bath(states[0])))
        delta_q = heat_into_system(states, h_b)
        assert direct == pytest.approx(delta_s - beta * delta_q, abs=1e-8)
        assert direct >= 0.0


class TestLedgerAndLimits:
    def test_first_law_on_oracle_stroke(self):
        profile = MarkovianProfile(g=G_H)
        sys = QubitState(p=(1 - G_C) / 2)
        times = (1e-6, 2.0)
        states = np.array([oracle_propagate(sys, profile, W_H, t) for t in times])
        h_s = W_H * linalg.SIGMA_Z
        e0 = internal_energy(states[0], h_s, coupling_hamiltonian(profile.f(times[0])))
        e1 = internal_energy(states[-1], h_s, coupling_hamiltonian(profile.f(times[-1])))
        q = heat_into_system(states, h_s)
        ledger = EnergyLedger(work=0.0, heat=q, internal_energy_initial=e0,
                              internal_energy_final=e1)
        assert abs(ledger.first_law_residual) <= 1e-8

    def test_weak_coupling_limit_recovers_weak_definitions(self):
        # coupling scaled by eps with time slowed by 1/eps: the strong
        # definitions must reduce to the weak ones within O(eps)
        eps = 1e-3
        base = MarkovianProfile(g=G_H)
        sys = QubitState(p=(1 - G_C) / 2)
        tau = 1.0 / eps  # rescaled stroke achieving the same thermal weight as tau=1
        times = np.linspace(0.0, tau, 9)
        phases = [base.phase(eps * float(t)) for t in times]
        states = np.array([joint_state_closed_form(sys, G_H, W_H, ph, float(t))
                           for t, ph in zip(times, phases)])
        h_s = W_H * linalg.SIGMA_Z

        q_strong = heat_into_system(states, h_s)
        sys_energies = [np.trace(h_s @ linalg.partial_trace_bath(r)).real for r in states]
        q_weak = sys_energies[-1] - sys_energies[0]  # H_S constant during the stroke
        assert abs(q_strong - q_weak) <= eps

        def h_tot(t):
            return total_hamiltonian(W_H, eps * base.f(max(eps * t, 1e-9)))
        w_strong = work_on_total(times, states, h_tot)
        assert abs(w_strong - 0.0) <= eps  # weak work vanishes: H_S is constant

        interaction = [internal_energy(r, h_s * 0.0, coupling_hamiltonian(1.0))
                       for r in states]
        assert max(abs(v) for v in interaction) <= eps
