import importlib.util
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qotto import dynamics, linalg
from qotto.cli import load_cycle_config
from qotto.cycle import (build_config, max_energy_deviation, strong_cycle,
                         strong_cycle_via_oracle)
from qotto.dynamics import (QubitState, bath_thermal_matrix,
                            coupling_hamiltonian, cp_divisibility_witness, joint_state,
                            joint_state_closed_form, master_equation_rhs,
                            oracle_propagate, reduced_state,
                            reshuffle, total_hamiltonian, vectorized_reps)
from qotto.errors import IntegrationFailureError, SingularGeneratorError
from qotto.profiles import (MarkovianProfile, NonMarkovianProfile, RatePair,
                            TabulatedProfile, rate_gamma, rate_pair)
from qotto.tolerances import TOL

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
PROFILES = [MarkovianProfile(g=0.8), NonMarkovianProfile(g=0.3),
            TabulatedProfile(g=0.6, times=np.linspace(0.05, 5.0, 40),
                             values=0.5 + 0.3 * np.sin(np.linspace(0.05, 5.0, 40)))]


def random_qubit_state(rng):
    p = rng.uniform(0.05, 0.95)
    radius = math.sqrt(p * (1 - p)) * rng.uniform(0.0, 0.95)
    angle = rng.uniform(0, 2 * math.pi)
    return QubitState(p=p, x=radius * np.exp(1j * angle))


@dataclass(frozen=True)
class CountingProfile(MarkovianProfile):
    """Markovian profile that records each evaluation of f and phase."""

    calls: list = field(default_factory=list, compare=False)

    def f(self, t):
        self.calls.append("f")
        return super().f(t)

    def phase(self, t):
        self.calls.append("phase")
        return super().phase(t)


@st.composite
def oracle_cases(draw, kind):
    """A valid cycle config of profile ``kind``, markovian, nonmarkovian or tabulated (a
    seeded table from t0 in [0.005, 0.5] to 4), with contacts shorter or longer than t0,
    and a qubit state."""
    omega_c = draw(st.floats(0.2, 3.0))
    omega_h = omega_c * draw(st.floats(1.05, 4.0))
    beta_h = draw(st.floats(0.01, 3.0)) / omega_h
    beta_c = beta_h * draw(st.floats(1.01, 20.0))
    t0 = draw(st.floats(0.005, 0.5))
    tau_h, tau_c = (draw(st.one_of(st.floats(1e-6, t0), st.floats(t0, 3.0))) for _ in range(2))
    config = build_config(omega_c, omega_h, beta_c, beta_h, tau_h, tau_c,
                          kind_h="markovian" if kind == "tabulated" else kind)
    if kind == "tabulated":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        times = np.linspace(t0, 4.0, 40)
        values = (rng.uniform(0.2, 2.0) * np.exp(-times / rng.uniform(0.5, 4.0))
                  * (1.0 + rng.uniform(0.0, 0.5) * np.sin(rng.uniform(1.0, 8.0) * times)) + 0.02)
        config = replace(config,
                         profile_h=TabulatedProfile(g=config.g_h, times=times, values=values),
                         profile_c=TabulatedProfile(g=config.g_c, times=times, values=values))
    p = draw(st.floats(0.05, 0.95))
    radius = math.sqrt(p * (1.0 - p)) * draw(st.floats(0.0, 0.95))
    return config, QubitState(p=p, x=radius * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))


def zero_coupling_profile(g=0.5):
    return TabulatedProfile(g=g, times=np.array([1e-9, 100.0]),
                            values=np.array([0.0, 0.0]))


class TestTotalHamiltonian:
    def test_free_part(self):
        assert np.allclose(total_hamiltonian(1.0, 0.0),
                           np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-15)

    def test_coupling_part(self):
        h = total_hamiltonian(0.0, 1.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.allclose(h, expected, atol=1e-15)

    def test_hermitian(self):
        h = total_hamiltonian(2.3, -0.7)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-15


class TestStateTypes:
    def test_qubit_state_positivity(self):
        QubitState(p=0.5, x=0.5)  # boundary is allowed
        with pytest.raises(ValueError):
            QubitState(p=0.5, x=0.6)
        with pytest.raises(ValueError):
            QubitState(p=1.4)


class TestJointStateClosedForm:
    def test_no_interaction_is_product_with_free_phases(self):
        sys = QubitState(p=0.3, x=0.2)
        omega, t = 1.3, 0.9
        rho = joint_state_closed_form(sys, 0.5, omega, 0.0, t)
        rotated = QubitState(p=0.3, x=0.2 * np.exp(-2j * omega * t))
        expected = np.kron(rotated.matrix(), bath_thermal_matrix(0.5))
        assert np.max(np.abs(rho - expected)) <= 1e-14

    def test_fully_transferred_diagonal_block(self):
        rho = joint_state_closed_form(QubitState(p=0.3), 0.5, 1.0, math.pi / 2, 1.0)
        assert np.allclose(rho, np.diag([0.075, 0.175, 0.225, 0.525]), atol=1e-14)

    def test_valid_density_operator_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            sys = random_qubit_state(rng)
            rho = joint_state_closed_form(sys, rng.uniform(0, 1), rng.uniform(0.2, 3),
                                          rng.uniform(0, 4), rng.uniform(0, 5))
            assert np.max(np.abs(rho - rho.conj().T)) <= TOL.hermitian
            assert abs(np.trace(rho) - 1.0) <= TOL.trace_one
            assert np.linalg.eigvalsh(rho).min() >= TOL.psd_floor

    def test_reduces_to_reduced_state(self):
        rng = np.random.default_rng(5)
        for profile in (MarkovianProfile(g=0.8), NonMarkovianProfile(g=0.3)):
            for _ in range(10):
                sys = random_qubit_state(rng)
                omega = rng.uniform(0.3, 2.5)
                t = rng.uniform(0.1, 4.0)
                marginal = linalg.partial_trace_bath(joint_state(sys, profile, omega, t))
                expected = reduced_state(sys, profile, omega, t).matrix()
                assert np.max(np.abs(marginal - expected)) <= 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=st.floats(0.0, 1.0), radius=st.floats(0.0, 1.0),
           angle=st.floats(0.0, 2.0 * math.pi), g=st.floats(0.0, 1.0),
           phase=st.floats(-10.0, 10.0), omega=st.floats(0.1, 10.0),
           omega_t=st.floats(0.0, 50.0))
    def test_matches_exponential_of_summed_generator(self, p, radius, angle, g, phase,
                                                     omega, omega_t):
        # expm of t H_free + F P assumes nothing of the two parts commuting; it drifts
        # past 1e-13 itself only at omega t ~ 1e3
        from scipy.linalg import expm
        sys = QubitState(p=p, x=radius * math.sqrt(p * (1.0 - p)) * np.exp(1j * angle))
        t = omega_t / omega
        u = expm(-1j * (t * total_hamiltonian(omega, 0.0) + phase * coupling_hamiltonian(1.0)))
        expected = u @ np.kron(sys.matrix(), bath_thermal_matrix(g)) @ u.conj().T
        rho = joint_state_closed_form(sys, g, omega, phase, t)
        assert np.max(np.abs(rho - expected)) <= 1e-13


class TestReducedState:
    def test_initial_state_unchanged(self):
        sys = QubitState(p=0.42, x=0.11 - 0.2j)
        out = reduced_state(sys, MarkovianProfile(g=0.6), 1.0, 0.0)
        assert out.p == pytest.approx(sys.p, abs=1e-15)
        assert out.x == pytest.approx(sys.x, abs=1e-15)

    def test_population_mixing(self):
        # p cos^2 F + (1-g)/2 sin^2 F at F = pi/4
        g = 0.5
        t_quarter = 0.8 * math.log(2.0)
        profile = MarkovianProfile(g=0.8)
        assert profile.phase(t_quarter) == pytest.approx(math.pi / 4, abs=1e-12)
        out = reduced_state(QubitState(p=0.3), MarkovianProfile(g=g), 1.0, g * math.log(2.0))
        expected = 0.3 * 0.5 + ((1 - g) / 2) * 0.5
        assert out.p == pytest.approx(expected, abs=1e-12)

    def test_asymptotic_thermal_state(self):
        g = 0.7
        profile = MarkovianProfile(g=g)
        out = reduced_state(QubitState(p=0.9, x=0.25), profile, 1.0, 60 * g)
        assert out.p == pytest.approx((1 - g) / 2, abs=1e-12)
        assert abs(out.x) <= 1e-12


class TestOracle:
    def test_zero_coupling_keeps_populations(self):
        profile = zero_coupling_profile()
        sys = QubitState(p=0.3, x=0.2)
        rho = oracle_propagate(sys, profile, 1.0, 2.0)
        expected = joint_state_closed_form(sys, profile.g, 1.0, 0.0, 2.0)
        assert np.max(np.abs(rho - expected)) <= 1e-8
        assert np.allclose(np.diag(rho).real,
                           np.diag(np.kron(sys.matrix(), bath_thermal_matrix(0.5))).real,
                           atol=1e-9)

    @pytest.mark.parametrize("profile", [MarkovianProfile(g=0.8),
                                         NonMarkovianProfile(g=0.3)])
    def test_matches_closed_form(self, profile):
        rng = np.random.default_rng(11)
        sys = random_qubit_state(rng)
        omega, t = 1.0, 2.0
        rho = oracle_propagate(sys, profile, omega, t)
        expected = joint_state(sys, profile, omega, t)
        assert np.max(np.abs(rho - expected)) <= 1e-6

    def test_preserves_trace_and_hermiticity(self):
        rho = oracle_propagate(QubitState(p=0.25, x=0.1j), MarkovianProfile(g=0.8),
                               1.5, 1.0)
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            oracle_propagate(QubitState(p=0.5), MarkovianProfile(g=0.5), 1.0, 0.0)

    def test_integrates_complex_state_at_shared_tolerances(self, monkeypatch):
        seen = []
        solve_ivp = dynamics.solve_ivp

        def recorder(fun, u_end, y0, **options):
            seen.append((y0.dtype, options["rtol"], options["atol"]))
            return solve_ivp(fun, u_end, y0, **options)
        monkeypatch.setattr(dynamics, "solve_ivp", recorder)
        strong_cycle_via_oracle(build_config(1.0, 2.0, 1.0, 0.2, tau_h=0.5, tau_c=0.5))
        assert seen == [(np.complex128, TOL.oracle_rtol, TOL.oracle_atol)] * 2

    @pytest.mark.parametrize("profile", PROFILES)
    def test_rhs_is_the_commutator(self, profile):
        # in u = sqrt(t / g): d rho/du = dt/du d rho/dt = 2 g u (-i [H(f(g u^2)), rho])
        rng = np.random.default_rng(5)
        omega, g = 1.7, profile.g
        us = np.sqrt(np.array([0.06, 0.4, 1.3, 2.7, 4.9]) / g)
        liouvillian = dynamics._liouville_rhs(profile, omega, 5.0)(us)
        for u, l_u in zip(us, liouvillian):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a + a.conj().T
            h = total_hamiltonian(omega, profile.f(g * u * u))
            expected = 2.0 * g * u * (-1j * (h @ rho - rho @ h))
            got = (l_u @ rho.ravel()).reshape(4, 4)
            assert np.max(np.abs(got - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("omega", [1.7, 1e308])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_batch_is_the_per_node_route_bit_for_bit(self, profile, omega):
        generator = dynamics._liouville_rhs(profile, omega, 5.0)
        us = np.concatenate([[0.0], np.sqrt(np.linspace(0.01, 5.0, 11) / profile.g)])
        batch = generator(us)
        assert batch.shape == (us.size, 16, 16) and np.isfinite(batch).all()
        for u, l_u in zip(us, batch):
            assert l_u.tobytes() == generator(np.array([u]))[0].tobytes()
        # past the float range, the free rates of the coherences a diagonal input leaves
        # at 0 still keep them at exactly 0
        rho = np.kron(np.diag([0.3, 0.7]), bath_thermal_matrix(profile.g)).ravel()
        assert np.isfinite(batch @ rho).all()

    @pytest.mark.parametrize("profile", [
        MarkovianProfile(g=0.8), NonMarkovianProfile(g=0.3),
        TabulatedProfile(g=0.6, times=np.linspace(0.05, 5.0, 40),
                         values=0.5 + 0.3 * np.sin(np.linspace(0.05, 5.0, 40)))])
    def test_never_reads_the_closed_form_phase(self, profile, monkeypatch):
        sys = QubitState(p=0.3, x=0.2 - 0.1j)
        expected = joint_state(sys, profile, 1.3, 2.0)

        def forbidden(self, t):
            raise AssertionError("the oracle read the closed-form phase")
        monkeypatch.setattr(type(profile), "phase", forbidden)
        rho = oracle_propagate(sys, profile, 1.3, 2.0)
        assert np.max(np.abs(rho - expected)) <= TOL.oracle_match

    @pytest.mark.parametrize("kind", ["markovian", "nonmarkovian", "tabulated"])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_valid_configs_keep_oracle_match(self, kind, data):
        config, sys = data.draw(oracle_cases(kind))
        oracle = strong_cycle_via_oracle(config)
        assert (max_energy_deviation(strong_cycle(config), oracle) / config.omega_h
                <= TOL.oracle_cycle_match)
        for profile, omega, tau in ((config.profile_h, config.omega_h, config.tau_h),
                                    (config.profile_c, config.omega_c, config.tau_c)):
            rho = oracle_propagate(sys, profile, omega, tau)
            assert np.max(np.abs(rho - joint_state(sys, profile, omega, tau))) <= TOL.oracle_match

    @pytest.fixture
    def rhs_calls(self, monkeypatch):
        """The nodes the oracle's generator is evaluated at, one per right-hand side."""
        calls = []
        solve_ivp = dynamics.solve_ivp

        def counting(generator, *args, **kwargs):
            def counted(us):
                calls.extend(us)
                return generator(us)
            return solve_ivp(counted, *args, **kwargs)
        monkeypatch.setattr(dynamics, "solve_ivp", counting)
        return calls

    # the non-Markovian ripple keeps the steps short however long the stroke
    # is, so its cost grows with its duration until the budget stops it
    def test_long_stroke_within_rhs_budget(self, rhs_calls):
        sys, profile = QubitState(p=0.05), NonMarkovianProfile(g=0.4)
        rho = oracle_propagate(sys, profile, 2.0, 100.0)
        assert np.max(np.abs(rho - joint_state(sys, profile, 2.0, 100.0))) <= 1e-6
        assert len(rhs_calls) <= dynamics.ORACLE_RHS_BUDGET

    def test_rhs_budget_stops_unbounded_stroke(self, rhs_calls, monkeypatch):
        # the generator reads the budget at each call; a small one stops in ms, in the
        # step attempt whose 12 right-hand sides cross it
        monkeypatch.setattr(dynamics, "ORACLE_RHS_BUDGET", 2000)
        with pytest.raises(IntegrationFailureError,
                           match=re.escape(f"1e+200 exceeds the budget of "
                                           f"{dynamics.ORACLE_RHS_BUDGET}")):
            oracle_propagate(QubitState(p=0.05), NonMarkovianProfile(g=0.4), 2.0, 1e200)
        assert (dynamics.ORACLE_RHS_BUDGET + 1 <= len(rhs_calls)
                <= dynamics.ORACLE_RHS_BUDGET + 12)

    def test_seed_one_audit_round_evaluates_its_pinned_nodes(self, rhs_calls, tmp_path):
        # the nine cycle --oracle configs of one seed-1 oracle_audit benchmark round: a
        # change to the oracle's step sequence changes this count
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        ops = workloads.plan("oracle_audit", 1, str(tmp_path))
        assert len(ops) == 9
        for op in ops:
            strong_cycle_via_oracle(load_cycle_config(op["argv"][op["argv"].index("--config") + 1],
                                                      [])[0])
        assert len(rhs_calls) == 10944


def _scipy_and_dop853(sys, profile, omega, t):
    """(final state or raised error, right-hand sides evaluated) of scipy's DOP853 on
    L(u) y and of ``dynamics.solve_ivp`` on the generator of L, for one oracle stroke,
    each with a fresh budgeted generator."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    rho0 = np.kron(sys.matrix(), bath_thermal_matrix(profile.g)).ravel()
    u_end = math.sqrt(t) / math.sqrt(profile.g)
    tolerances = {"rtol": TOL.oracle_rtol, "atol": TOL.oracle_atol}

    def by_scipy(generator):
        sol = scipy_solve_ivp(lambda u, y: generator(np.array([u]))[0] @ y, (0.0, u_end), rho0,
                              method="DOP853", **tolerances)
        assert sol.success, sol.message
        return sol.y[:, -1]

    results = []
    for solve in (by_scipy, lambda fun: dynamics.solve_ivp(fun, u_end, rho0, **tolerances)):
        generator, calls = dynamics._liouville_rhs(profile, omega, t), []

        def counted(us, generator=generator, calls=calls):
            calls.extend(us)
            return generator(us)
        try:
            results.append((solve(counted), len(calls)))
        except IntegrationFailureError as exc:
            results.append((str(exc), len(calls)))
    return results


class TestDop853:
    """``qotto.dop853`` takes scipy's DOP853 steps bit for bit, so the oracle's
    numbers do not depend on which of the two integrates them."""

    def test_tableau_is_scipys_bit_for_bit(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        from qotto import dop853
        for ours, theirs in ((dop853.C, ref.C[:12]), (dop853.A, ref.A[:12, :12]),
                             (dop853.B, ref.B), (dop853.E3, ref.E3), (dop853.E5, ref.E5)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == np.ascontiguousarray(theirs).tobytes()

    @pytest.mark.parametrize("kind", ["markovian", "nonmarkovian", "tabulated"])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_steps_like_scipy(self, kind, data):
        config, sys = data.draw(oracle_cases(kind))
        if not data.draw(st.booleans(), label="coherent"):
            sys = QubitState(p=sys.p)
        for profile, omega, tau in ((config.profile_h, config.omega_h, config.tau_h),
                                    (config.profile_c, config.omega_c, config.tau_c)):
            (theirs, their_calls), (ours, our_calls) = _scipy_and_dop853(sys, profile, omega, tau)
            assert np.array_equal(ours, theirs)
            assert our_calls == their_calls

    @pytest.mark.parametrize("sys, profile, omega, t", [
        (QubitState(p=0.3), MarkovianProfile(g=0.5), 1e308, 1.0),
        (QubitState(p=0.05), NonMarkovianProfile(g=0.4), 2.0, 100.0)])
    def test_named_strokes_step_like_scipy(self, sys, profile, omega, t):
        (theirs, their_calls), (ours, our_calls) = _scipy_and_dop853(sys, profile, omega, t)
        assert np.array_equal(ours, theirs)
        assert our_calls == their_calls

    def test_budget_stops_both_in_the_same_step_attempt(self, monkeypatch):
        monkeypatch.setattr(dynamics, "ORACLE_RHS_BUDGET", 2000)
        (theirs, their_calls), (ours, our_calls) = _scipy_and_dop853(
            QubitState(p=0.05), NonMarkovianProfile(g=0.4), 2.0, 1e200)
        assert ours == theirs
        assert their_calls == dynamics.ORACLE_RHS_BUDGET + 1
        # 2 right-hand sides start the run, then 12 per step attempt
        assert our_calls == 2 + 12 * math.ceil((their_calls - 2) / 12)

    def test_fails_like_scipy_below_the_smallest_step(self):
        # y' = y until u = 0.5 and NaN past it: each step across 0.5 is rejected until the
        # step falls below ten float spacings of u
        from scipy.integrate import solve_ivp as scipy_solve_ivp

        from qotto import dop853

        def cut_off(calls):
            def generator(us):
                calls.extend(us)
                return np.where(us < 0.5, 1.0, np.nan)[:, None, None] * np.eye(2, dtype=complex)
            return generator
        their_calls, our_calls = [], []
        theirs = cut_off(their_calls)
        with np.errstate(invalid="ignore"):
            sol = scipy_solve_ivp(lambda u, y: theirs(np.array([u]))[0] @ y, (0.0, 2.0),
                                  np.ones(2, dtype=complex), method="DOP853",
                                  rtol=TOL.oracle_rtol, atol=TOL.oracle_atol)
            assert sol.status == -1
            with pytest.raises(IntegrationFailureError, match=f"^{re.escape(sol.message)}$"):
                dop853.integrate(cut_off(our_calls), 2.0, np.ones(2, dtype=complex),
                                 TOL.oracle_rtol, TOL.oracle_atol)
        assert our_calls == their_calls


class TestMasterEquation:
    def test_asymptotic_state_is_stationary(self):
        g = 0.8
        rho = np.diag([(1 - g) / 2, (1 + g) / 2]).astype(complex)
        rates = RatePair(gamma_minus=(1 + g) / (2 * g), gamma_plus=(1 - g) / (2 * g))
        assert np.max(np.abs(master_equation_rhs(rho, 1.0, rates))) <= 1e-14

    def test_infinite_temperature_fixed_point(self):
        rates = RatePair(gamma_minus=0.7, gamma_plus=0.7)  # g = 0: equal rates
        rhs = master_equation_rhs(linalg.IDENTITY_2 / 2, 2.0, rates)
        assert np.max(np.abs(rhs)) <= 1e-15

    def test_finite_difference_residual_at_reference_point(self):
        profile = MarkovianProfile(g=0.5)
        sys = QubitState(p=0.3, x=0.2)
        omega, t, h = 1.0, 1.0, 1e-5
        fd = (reduced_state(sys, profile, omega, t + h).matrix()
              - reduced_state(sys, profile, omega, t - h).matrix()) / (2 * h)
        rhs = master_equation_rhs(reduced_state(sys, profile, omega, t).matrix(),
                                  omega, rate_pair(profile, t))
        assert np.max(np.abs(fd - rhs)) <= 1e-6

    @pytest.mark.parametrize("profile", [MarkovianProfile(g=0.3),
                                         NonMarkovianProfile(g=0.8)])
    def test_finite_difference_residual_random(self, profile):
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(6):
            sys = random_qubit_state(rng)
            omega = rng.uniform(0.3, 2.0)
            t = rng.uniform(0.2, 2.0)
            fd = (reduced_state(sys, profile, omega, t + h).matrix()
                  - reduced_state(sys, profile, omega, t - h).matrix()) / (2 * h)
            rhs = master_equation_rhs(reduced_state(sys, profile, omega, t).matrix(),
                                      omega, rate_pair(profile, t))
            scale = max(np.max(np.abs(rhs)), 1e-12)
            assert np.max(np.abs(fd - rhs)) / scale <= 1e-5


class TestVectorizedReps:
    def test_map_is_identity_at_zero(self):
        rep = vectorized_reps(MarkovianProfile(g=0.8), 1.0, 0.0)
        assert np.max(np.abs(rep.map_hat - np.eye(4))) <= 1e-14

    def test_generator_corner_entries(self):
        rep = vectorized_reps(MarkovianProfile(g=0.8), 1.0, 0.7)
        assert rep.gen_hat[0, 0] == pytest.approx(-1.125, abs=1e-9)
        assert rep.gen_hat[0, 3] == pytest.approx(0.125, abs=1e-9)
        assert rep.gen_hat[3, 0] == pytest.approx(1.125, abs=1e-9)
        assert rep.gen_hat[3, 3] == pytest.approx(-0.125, abs=1e-9)

    @pytest.mark.parametrize("profile,omega,t", [
        (MarkovianProfile(g=0.8), 1.0, 0.7),
        (MarkovianProfile(g=0.3), 2.0, 1.1),
        (NonMarkovianProfile(g=0.8), 0.5, 0.4),
    ])
    def test_generator_matches_closed_form(self, profile, omega, t):
        gamma = rate_gamma(profile, t)
        g = profile.g
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = -(1 + g) * gamma
        expected[0, 3] = (1 - g) * gamma
        expected[3, 0] = (1 + g) * gamma
        expected[3, 3] = -(1 - g) * gamma
        expected[1, 1] = -2j * omega - gamma
        expected[2, 2] = 2j * omega - gamma
        rep = vectorized_reps(profile, omega, t)
        assert np.max(np.abs(rep.gen_hat - expected)) <= 1e-9

    @pytest.mark.parametrize("profile,omega,t", [
        (MarkovianProfile(g=0.8), 1.0, 0.7),
        (NonMarkovianProfile(g=0.5), 1.5, 0.9),
    ])
    def test_reshuffled_generator_matches_closed_form(self, profile, omega, t):
        gamma = rate_gamma(profile, t)
        g = profile.g
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = -(1 + g) * gamma
        expected[0, 3] = 2j * omega - gamma
        expected[1, 1] = (1 + g) * gamma
        expected[2, 2] = (1 - g) * gamma
        expected[3, 0] = -2j * omega - gamma
        expected[3, 3] = -(1 - g) * gamma
        rep = vectorized_reps(profile, omega, t)
        assert np.max(np.abs(rep.omega_of_gen - expected)) <= 1e-9
        diag = np.diag(rep.omega_of_gen)
        assert np.allclose(diag, [-(1 + g) * gamma, (1 + g) * gamma,
                                  (1 - g) * gamma, -(1 - g) * gamma], atol=1e-9)

    def test_one_phase_and_one_coupling_evaluation(self):
        profile = CountingProfile(g=0.8)
        vectorized_reps(profile, 1.0, 0.7)
        assert sorted(profile.calls) == ["f", "phase"]
        # below t = 1e-12 the derivative takes f and F just above zero
        profile.calls.clear()
        vectorized_reps(profile, 1.0, 0.0)
        assert sorted(profile.calls) == ["f", "phase", "phase"]

    def test_reshuffle_is_involution(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(reshuffle(reshuffle(a)), a)

    def test_map_propagates_vectorized_state(self):
        rng = np.random.default_rng(19)
        for profile in (MarkovianProfile(g=0.8), NonMarkovianProfile(g=0.4)):
            for _ in range(10):
                sys = random_qubit_state(rng)
                omega = rng.uniform(0.3, 2.0)
                t = rng.uniform(0.1, 3.0)
                try:
                    rep = vectorized_reps(profile, omega, t)
                except SingularGeneratorError:
                    continue
                propagated = (rep.map_hat @ sys.matrix().reshape(-1)).reshape(2, 2)
                expected = reduced_state(sys, profile, omega, t).matrix()
                assert np.max(np.abs(propagated - expected)) <= 1e-10

    def test_singular_map_raises(self):
        profile = TabulatedProfile(g=0.5, times=np.array([0.01, 1.0]),
                                   values=np.array([2.0, 2.0]))
        with pytest.raises(SingularGeneratorError):
            vectorized_reps(profile, 1.0, math.pi / 4)


class TestWitness:
    def test_markovian_spectrum_and_psd(self):
        psd, evals = cp_divisibility_witness(vectorized_reps(MarkovianProfile(g=0.8), 1.0, 0.7))
        assert psd
        assert np.allclose(np.sort(evals), [0.0, 0.0, 0.125, 1.125], atol=1e-9)

    def test_negative_rate_is_not_psd(self):
        profile = NonMarkovianProfile(g=0.8)
        t = 0.114  # rate is strongly negative here
        assert rate_gamma(profile, t) < 0
        psd, evals = cp_divisibility_witness(vectorized_reps(profile, 1.0, t))
        assert not psd
        assert evals.min() < -1e-3

    def test_zero_rate_gives_zero_operator(self):
        profile = NonMarkovianProfile(g=0.8)
        lo, hi = 0.06, 0.114  # f changes sign in this window
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if profile.f(mid) > 0:
                lo = mid
            else:
                hi = mid
        t_zero = 0.5 * (lo + hi)
        psd, evals = cp_divisibility_witness(vectorized_reps(profile, 1.0, t_zero))
        assert psd
        assert np.max(np.abs(evals)) <= 1e-9

    def test_psd_iff_rate_nonnegative(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            profile = (MarkovianProfile if rng.random() < 0.5
                       else NonMarkovianProfile)(g=rng.uniform(0.2, 0.99))
            t = rng.uniform(0.05, 3.0)
            omega = rng.uniform(0.3, 2.0)
            try:
                rep = vectorized_reps(profile, omega, t)
                gamma = rate_gamma(profile, t)
            except SingularGeneratorError:
                continue
            psd, _ = cp_divisibility_witness(rep)
            assert psd == (gamma >= -1e-10)
            checked += 1
