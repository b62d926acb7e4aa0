import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qotto import linalg, thermo
from qotto.cycle import (STROKE_ORDER, SWEEP_AXES, CycleConfig, CycleReport,
                         apply_axis, build_config, strong_cycle_sweep,
                         classify_regime, max_energy_deviation, strong_cycle,
                         strong_cycle_via_oracle, weak_cycle)
from qotto.dynamics import QubitState, joint_state_closed_form
from qotto.errors import ConfigError, QottoError
from qotto.profiles import MarkovianProfile, NonMarkovianProfile, TabulatedProfile, time_grid
from qotto.thermo import EnergyLedger
from qotto.tolerances import TOL

ENGINE = dict(omega_c=1.0, omega_h=2.0, beta_c=1.0, beta_h=0.2)
FRIDGE = dict(omega_c=1.0, omega_h=2.0, beta_c=1.0, beta_h=0.6)


def random_config(rng, kind=None):
    omega_c = rng.uniform(0.5, 2.0)
    omega_h = omega_c * rng.uniform(1.2, 3.0)
    beta_h = rng.uniform(0.05, 1.0)
    beta_c = beta_h * rng.uniform(1.2, 4.0)
    kind = kind or ("markovian" if rng.random() < 0.5 else "nonmarkovian")
    return build_config(omega_c, omega_h, beta_c, beta_h,
                        tau_h=rng.uniform(0.1, 5.0), tau_c=rng.uniform(0.1, 5.0),
                        kind_h=kind)


def tabulated_spec(tmp_path) -> str:
    reference = MarkovianProfile(g=0.5)
    grid = np.linspace(1e-3, 3.0, 301) ** 2
    path = tmp_path / "table.txt"
    path.write_text("\n".join(f"{t:.17g} {reference.f(t):.17g}" for t in grid))
    return f"tabulated:{path}"


def entropy_trace(config: CycleConfig, stroke: str, n: int = 100) -> np.ndarray:
    """Entropy production along the ``stroke`` ("hot" or "cold") contact at times
    tau k / n, k = 1..n: the contact's sigma in the cycle whose contact stops there."""
    axis = f"tau_{stroke[0]}"
    sweep = strong_cycle_sweep(config, axis, time_grid(getattr(config, axis), n))
    return sweep.report.strokes[f"{stroke}_contact"].entropy_production


class TestWeakCycle:
    def test_engine_example(self):
        report = weak_cycle(build_config(**ENGINE, tau_h=2.0, tau_c=2.0))
        assert report.heat_hot == pytest.approx(0.76329039, abs=1e-8)
        assert report.heat_cold == pytest.approx(-0.38164519, abs=1e-8)
        assert report.work_total == pytest.approx(-0.38164519, abs=1e-8)
        assert report.eta == pytest.approx(0.5, abs=1e-12)
        assert report.regime == "engine"

    def test_refrigerator_example(self):
        report = weak_cycle(build_config(**FRIDGE, tau_h=2.0, tau_c=2.0))
        assert report.heat_cold == pytest.approx(0.07206045, abs=1e-8)
        assert report.work_total == pytest.approx(0.07206045, abs=1e-8)
        assert report.cop0 == pytest.approx(1.0, abs=1e-14)
        assert report.regime == "refrigerator"

    def test_degenerate_boundary(self):
        config = build_config(omega_c=1.0, omega_h=2.0, beta_c=1.0, beta_h=0.5,
                              tau_h=1.0, tau_c=1.0)
        report = weak_cycle(config)
        assert report.heat_hot == pytest.approx(0.0, abs=1e-14)
        assert report.heat_cold == pytest.approx(0.0, abs=1e-14)
        assert report.work_total == pytest.approx(0.0, abs=1e-14)
        assert report.regime == "other"

    def test_zero_duration_power_undefined(self):
        # the rates are NaN, as on the strong route; the energies do not depend on the
        # durations of a fully thermalizing cycle
        report = weak_cycle(build_config(**ENGINE, tau_h=0.0, tau_c=0.0))
        for name in ("power", "kappa", "power0", "kappa0"):
            assert math.isnan(getattr(report, name)), name
        for taus in ((2.0, 2.0), (0.0, 1.0), (1e-300, 0.0)):
            timed = weak_cycle(build_config(**ENGINE, tau_h=taus[0], tau_c=taus[1]))
            assert timed.strokes == report.strokes
            for name in ("work_total", "heat_hot", "heat_cold", "eta", "cop", "regime"):
                assert getattr(timed, name) == getattr(report, name), name
            assert timed.law_audits() == report.law_audits()

    def test_first_law_identity(self):
        report = weak_cycle(build_config(**ENGINE, tau_h=1.0, tau_c=1.0))
        assert abs(report.work_total
                   + report.heat_hot + report.heat_cold) <= 1e-12

    def test_clausius_inequality_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            config = random_config(rng)
            report = weak_cycle(config)
            clausius = (config.beta_h * report.heat_hot
                        + config.beta_c * report.heat_cold)
            assert clausius <= 1e-12


class TestConfigValidation:
    def test_all_problems_reported(self):
        config = CycleConfig(omega_c=-1.0, omega_h=-0.5, beta_c=0.1, beta_h=0.2,
                             tau_h=-1.0, tau_c=1.0)
        with pytest.raises(ConfigError) as err:
            config.validate()
        text = str(err.value)
        assert "omega_c" in text and "omega_h" in text
        assert "beta_c" in text and "tau_h" in text

    def test_profile_g_mismatch_detected(self):
        config = CycleConfig(**ENGINE, tau_h=1.0, tau_c=1.0,
                             profile_h=MarkovianProfile(g=0.5),
                             profile_c=MarkovianProfile(g=math.tanh(1.0)))
        with pytest.raises(ConfigError) as err:
            config.validate(need_profiles=True)
        assert "profile_h" in str(err.value)

    def test_non_finite_fields_rejected(self):
        config = CycleConfig(omega_c=1.0, omega_h=math.inf, beta_c=1.0, beta_h=0.2,
                             tau_h=math.nan, tau_c=-math.inf)
        problems = config.problems()
        assert len(problems) == 3
        for name, problem in zip(("omega_h", "tau_h", "tau_c"), problems):
            assert problem.startswith(f"{name} must be finite")

    def test_non_numbers_are_named_once_each(self):
        config = CycleConfig(omega_c="abc", omega_h=None, beta_c=True, beta_h=10**400,
                             tau_h=-1.0, tau_c=1.0)
        assert config.problems() == [
            "omega_c must be a number, got 'abc'", "omega_h must be a number, got None",
            "beta_c must be a number, got True",
            "beta_h must be a number, got an int too large for a float",
            "tau_h must be >= 0, got -1.0"]

    def test_infinite_total_duration_rejected(self):
        config = CycleConfig(**ENGINE, tau_h=1e308, tau_c=1e308)
        assert config.problems() == ["the total duration tau_u1 + tau_h + tau_u2 + tau_c "
                                     "must be finite, got inf"]

    def test_build_config_validates_before_building_profiles(self, monkeypatch):
        from qotto import cycle as cycle_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("a profile was built before validation")
        monkeypatch.setattr(cycle_mod, "profile_from_spec", forbidden)
        with pytest.raises(ConfigError) as err:
            build_config(omega_c=1.0, omega_h=2.0, beta_c=-1.0, beta_h=0.2,
                         tau_h=1.0, tau_c=1.0, kind_c=None)
        assert err.value.problems == ["beta_c must exceed beta_h, got -1.0 <= 0.2",
                                      "profile_c must be a string, got None"]

    def test_build_config_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_config(**ENGINE, tau_h=1.0, tau_c=1.0, kind_h="exotic")

    def test_build_config_tabulated_matches_cli_loader(self, tmp_path):
        from qotto.cli import load_cycle_config
        spec = tabulated_spec(tmp_path)
        built = build_config(**ENGINE, tau_h=1.0, tau_c=1.0, kind_h=spec)
        loaded, _ = load_cycle_config(None, [*(f"{key}={value!r}" for key, value in ENGINE.items()),
                                             "tau_h=1.0", "tau_c=1.0",
                                             f"profile_h={spec}", f"profile_c={spec}"])
        for a, b in ((built.profile_h, loaded.profile_h), (built.profile_c, loaded.profile_c)):
            assert type(a) is type(b) is TabulatedProfile
            assert a.g == b.g
            assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)

    def test_a_table_both_baths_share_is_read_once(self, tmp_path, monkeypatch):
        from qotto import profiles
        original, reads = profiles.load_tabulated, []

        def counting(path, g):
            reads.append(path)
            return original(path, g)
        monkeypatch.setattr(profiles, "load_tabulated", counting)
        spec = tabulated_spec(tmp_path)
        config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0, kind_h=spec)
        assert len(reads) == 1
        hot, cold = config.profile_h, config.profile_c
        assert (hot.g, cold.g) == (config.g_h, config.g_c)
        assert cold.source == hot.source and np.array_equal(cold.times, hot.times)
        assert np.array_equal(cold.phase(hot.times), original(reads[0], cold.g).phase(hot.times))
        build_config(**ENGINE, tau_h=1.0, tau_c=1.0, kind_h=spec, kind_c="markovian")
        assert len(reads) == 2

    @pytest.mark.parametrize("kind", ["markovian", "tabulated"])
    def test_shared_spec_keeps_the_cold_constructors_error(self, kind, tmp_path):
        spec = tabulated_spec(tmp_path) if kind == "tabulated" else kind
        # beta_c * omega_c underflows to 0, so g_c = 0 while every field rule holds
        with pytest.raises(ValueError, match=r"^bath parameter g must lie in \(0, 1\], got 0\.0$"):
            build_config(omega_c=1e-10, omega_h=2.0, beta_c=1e-315, beta_h=1e-320,
                         tau_h=1.0, tau_c=1.0, kind_h=spec)


class TestStrongCycle:
    def test_long_strokes_reduce_to_weak_cycle(self):
        tau = 60.0
        config = build_config(**ENGINE, tau_h=tau, tau_c=tau)
        strong = strong_cycle(config)
        weak = weak_cycle(config)
        assert strong.heat_hot == pytest.approx(weak.heat_hot, abs=1e-10)
        assert strong.heat_cold == pytest.approx(weak.heat_cold, abs=1e-10)
        assert strong.work_total == pytest.approx(weak.work_total, abs=1e-10)
        assert strong.power == pytest.approx(weak.power, abs=1e-12)
        assert strong.cyclicity_residual <= 1e-10

    def test_markovian_cop_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            config = random_config(rng, kind="markovian")
            report = strong_cycle(config)
            expected = report.cop0 * (1.0 - math.exp(-config.tau_c / config.g_c))
            if report.work_total != 0.0:
                assert report.cop == pytest.approx(expected, abs=1e-8)

    def test_refrigerator_half_cop(self):
        g_c = math.tanh(1.0)
        config = build_config(**FRIDGE, tau_h=50.0, tau_c=g_c * math.log(2.0))
        report = strong_cycle(config)
        assert report.regime == "refrigerator"
        assert report.cop == pytest.approx(0.5, abs=1e-8)

    def test_engine_half_thermal_weight(self):
        g_h = math.tanh(0.4)
        config = build_config(**ENGINE, tau_h=g_h * math.log(2.0), tau_c=3.0)
        report = strong_cycle(config)
        assert report.thermal_weight_hot == pytest.approx(0.5, abs=1e-12)
        assert report.heat_hot == pytest.approx(0.38164519, abs=1e-8)
        assert report.eta == pytest.approx(0.5, abs=1e-12)

    def test_zero_duration_strokes_transfer_nothing(self):
        config = build_config(**ENGINE, tau_h=0.0, tau_c=0.0)
        report = strong_cycle(config)
        assert report.heat_hot == 0.0
        assert report.heat_cold == 0.0
        for name in ("power", "kappa", "power0", "kappa0"):
            assert math.isnan(getattr(report, name)), name

    def test_scaling_identities_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            config = random_config(rng)
            report = strong_cycle(config)
            weak = weak_cycle(config)
            sw_h = report.thermal_weight_hot
            sw_c = report.thermal_weight_cold
            assert report.heat_hot == pytest.approx(weak.heat_hot * sw_h, abs=1e-8)
            assert report.heat_cold == pytest.approx(
                weak.heat_cold * sw_h * sw_c, abs=1e-8)
            assert report.work_total == pytest.approx(
                weak.work_total * sw_h, abs=1e-8)

    def test_efficiency_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            config = random_config(rng)
            report = strong_cycle(config)
            if report.heat_hot != 0.0:
                assert report.eta == pytest.approx(report.eta0, abs=1e-12)

    def test_cop_tracks_cold_thermal_weight(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            config = random_config(rng)
            report = strong_cycle(config)
            if report.work_total != 0.0:
                assert report.cop / report.cop0 == pytest.approx(
                    report.thermal_weight_cold, abs=1e-8)

    def test_boundary_works_vanish(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            report = strong_cycle(random_config(rng))
            for value in report.boundary_works().values():
                assert abs(value) <= 1e-12

    def test_first_law_per_stroke_and_cycle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            report = strong_cycle(random_config(rng))
            for ledger in report.strokes.values():
                assert abs(ledger.first_law_residual) <= 1e-8
            first = report.strokes["quench_up"].internal_energy_initial
            last = report.strokes["disconnect_cold"].internal_energy_final
            assert report.energy_residual == pytest.approx(last - first, abs=1e-10)

    def test_perfect_thermalization_closes_cycle(self):
        config = build_config(**FRIDGE, tau_h=2.0, tau_c=80.0)
        report = strong_cycle(config)
        assert abs(report.work_total + report.heat_hot + report.heat_cold) <= 1e-8
        assert report.cyclicity_residual <= 1e-9

    def test_carnot_bounds_random_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            report = strong_cycle(random_config(rng))
            if report.regime == "engine":
                assert report.eta <= report.carnot_eta + 1e-12
            elif report.regime == "refrigerator":
                assert report.cop <= report.carnot_cop + 1e-12

    def test_entropy_production_traces_nonnegative(self):
        # each trace ends at its contact's end, where it is the cycle's sigma; at
        # beta_c = 30 the cold bath's upper level rounds to zero, where the 4x4
        # relative entropy diverges and the scalar Delta S_S - beta Q does not
        for params in (ENGINE, FRIDGE, dict(ENGINE, beta_c=30.0)):
            config = build_config(**params, tau_h=2.0, tau_c=2.0)
            report = strong_cycle(config)
            for stroke in ("hot", "cold"):
                trace = entropy_trace(config, stroke, n=30)
                assert np.all(np.isfinite(trace))
                assert trace.min() >= TOL.entropy_production_floor
                sigma = report.strokes[f"{stroke}_contact"].entropy_production
                assert trace[-1] == pytest.approx(sigma, rel=0.0, abs=1e-9)

    def test_nonmarkovian_power_advantage(self):
        markovian = MarkovianProfile(g=0.8)
        nonmarkovian = NonMarkovianProfile(g=0.8)
        ts = np.linspace(1e-3, 1.0, 1000)
        gaps = [nonmarkovian.thermal_weight(float(t)) - markovian.thermal_weight(float(t))
                for t in ts]
        assert max(gaps) > 0.0


def _audit_sigmas(config: CycleConfig, phase_h: float, phase_c: float) -> list:
    """Contact entropy productions as relative entropies of the 4x4 closed-form states
    at contact phases phase_h and phase_c; None where a phase is zero or the audit
    route itself raises."""
    cw_h = 1.0 - math.sin(phase_h) ** 2
    p_c1 = (1.0 - config.g_h) / 2.0 + 0.5 * cw_h * (config.g_h - config.g_c)
    out = []
    for p_in, g, omega, beta, tau, phase in (
            ((1.0 - config.g_c) / 2.0, config.g_h, config.omega_h, config.beta_h,
             config.tau_h, phase_h),
            (p_c1, config.g_c, config.omega_c, config.beta_c, config.tau_c, phase_c)):
        try:
            rho = joint_state_closed_form(QubitState(p=p_in), g, omega, phase, tau)
            out.append(thermo.entropy_production(rho, beta, omega * linalg.SIGMA_Z)
                       if phase != 0.0 else None)
        except QottoError:
            out.append(None)
    return out


@st.composite
def valid_configs(draw):
    omega_c = draw(st.floats(0.2, 3.0))
    omega_h = omega_c * draw(st.floats(1.05, 4.0))
    x_c = draw(st.floats(0.01, 40.0))             # beta_c * omega_c
    x_h = draw(st.floats(0.01, 40.0))             # beta_h * omega_h
    beta_c, beta_h = x_c / omega_c, x_h / omega_h
    assume(beta_c > beta_h)
    kinds = st.sampled_from(["markovian", "nonmarkovian"])
    taus = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    return build_config(omega_c, omega_h, beta_c, beta_h,
                        tau_h=draw(taus), tau_c=draw(taus),
                        kind_h=draw(kinds), kind_c=draw(kinds))


class TestScalarRoute:
    def test_needs_no_joint_states_or_eigensolves(self, monkeypatch):
        from qotto import cycle as cycle_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("strong_cycle and the entropy trace must stay on scalars")
        monkeypatch.setattr(thermo, "entropy_production", forbidden)
        monkeypatch.setattr(thermo, "connect_disconnect_work", forbidden)
        monkeypatch.setattr(cycle_mod, "joint_state_closed_form", forbidden)
        monkeypatch.setattr(linalg, "hermitian_eig", forbidden)
        ts = np.linspace(0.01, 10.0, 50)
        tabulated = TabulatedProfile(g=math.tanh(1.0), times=ts, values=np.full_like(ts, 0.3))
        configs = [build_config(**ENGINE, tau_h=2.0, tau_c=1.5),
                   build_config(**ENGINE, tau_h=0.7, tau_c=2.5, kind_h="nonmarkovian"),
                   CycleConfig(**ENGINE, tau_h=1.0, tau_c=3.0,
                               profile_h=MarkovianProfile(g=math.tanh(0.4)),
                               profile_c=tabulated)]
        for config in configs:
            report = strong_cycle(config)
            assert all(ok for _, ok in report.law_audits().values())
            assert report.strokes["hot_contact"].entropy_production > 0.0
            for stroke in ("hot", "cold"):
                assert entropy_trace(config, stroke, n=20).min() > 0.0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(valid_configs())
    def test_valid_configs_match_audit_route(self, config):
        report = strong_cycle(config)
        for name, (value, ok) in report.law_audits().items():
            assert ok, f"{name} audit failed at {value!r}"
        if report.regime == "engine":
            assert report.eta == pytest.approx(report.eta0, rel=0.0, abs=1e-9)
        sigmas = (report.strokes["hot_contact"].entropy_production,
                  report.strokes["cold_contact"].entropy_production)
        phases = (config.profile_h.phase(config.tau_h), config.profile_c.phase(config.tau_c))
        for sigma, audit in zip(sigmas, _audit_sigmas(config, *phases)):
            if audit is not None:
                assert sigma == pytest.approx(audit, rel=0.0, abs=1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(valid_configs())
    def test_stroke_energies_are_those_of_qubit_states(self, config):
        # every population is a convex combination of (1 - g)/2 values, so each
        # stroke ends at omega (2 p - 1) with p in [0, 1/2]
        reports = [strong_cycle(config)] + ([weak_cycle(config)] if config.tau > 0.0 else [])
        for report in reports:
            for k, name in enumerate(STROKE_ORDER):
                # the first four strokes end at omega_h, the down-quench and the rest at omega_c
                omega = config.omega_h if k < 4 else config.omega_c
                slack = 2.0 * omega * TOL.qubit_positivity
                energy = report.strokes[name].internal_energy_final
                assert -omega - slack <= energy <= slack, name

    def test_weak_cycle_matches_audit_route(self):
        # the weak cycle is the closed form at F = pi/2, a zero-length hot
        # contact included: its entropy productions are the full-thermalization ones
        rng = np.random.default_rng(37)
        for k in range(60):
            config = random_config(rng)
            if k % 3 == 0:
                config = replace(config, tau_h=0.0)
            report = weak_cycle(config)
            sigmas = (report.strokes["hot_contact"].entropy_production,
                      report.strokes["cold_contact"].entropy_production)
            for sigma, audit in zip(sigmas, _audit_sigmas(config, math.pi / 2, math.pi / 2)):
                assert sigma == pytest.approx(audit, rel=0.0, abs=1e-9)


class TestEntropyProductionTrace:
    @pytest.mark.parametrize("kind", ["markovian", "nonmarkovian", "tabulated"])
    def test_matches_the_audit_route(self, kind, tmp_path):
        # each sample against the 4x4 relative entropy of the closed-form joint
        # state at the same time
        kind = tabulated_spec(tmp_path) if kind == "tabulated" else kind
        rng = np.random.default_rng(41)
        for _ in range(4):
            params = dict(omega_c=rng.uniform(0.5, 2.0), beta_h=rng.uniform(0.1, 1.0))
            params.update(omega_h=params["omega_c"] * rng.uniform(1.2, 3.0),
                          beta_c=params["beta_h"] * rng.uniform(1.2, 4.0))
            config = build_config(**params, tau_h=rng.uniform(0.2, 3.0),
                                  tau_c=rng.uniform(0.2, 3.0), kind_h=kind)
            ph, pc = config.profile_h, config.profile_c
            n = 25
            for stroke in ("hot", "cold"):
                trace = entropy_trace(config, stroke, n=n)
                tau = getattr(config, f"tau_{stroke[0]}")
                for k, sigma in enumerate(trace, start=1):
                    t = tau * k / n
                    if stroke == "hot":
                        audit = _audit_sigmas(replace(config, tau_h=t), ph.phase(t),
                                              pc.phase(config.tau_c))[0]
                    else:
                        audit = _audit_sigmas(replace(config, tau_c=t),
                                              ph.phase(config.tau_h), pc.phase(t))[1]
                    assert audit is not None
                    assert sigma == pytest.approx(audit, rel=0.0, abs=1e-9)


class TestOraclePath:
    @pytest.mark.parametrize("kind", ["markovian", "nonmarkovian", "tabulated",
                                      "tabulated_hot_shorter_than_t0"])
    def test_matches_closed_form(self, kind, tmp_path):
        tau_h = 0.02 if kind == "tabulated_hot_shorter_than_t0" else 2.0
        if kind.startswith("tabulated"):
            # a hot contact shorter than t0 = 0.05 is integrated with the head
            # convention f = f(t0); its disconnection cost evaluates f at t0
            grid = np.linspace(0.05, 6.0, 600)
            path = tmp_path / "table.txt"
            reference = MarkovianProfile(g=0.5)
            path.write_text("\n".join(f"{t:.17g} {reference.f(t):.17g}" for t in grid))
            kind = f"tabulated:{path}"
        config = build_config(**ENGINE, tau_h=tau_h, tau_c=2.0, kind_h=kind)
        closed = strong_cycle(config)
        oracle = strong_cycle_via_oracle(config)
        assert max_energy_deviation(closed, oracle) <= 1e-5
        for name in ("connect_hot", "connect_cold"):
            work = oracle.strokes[name].work
            assert work == 0.0 and math.copysign(1.0, work) == 1.0
        # each contact starts from the exact product state, so Re rho[1,2] and
        # with it the disconnection cost -2 f Re rho[1,2] stay exactly 0
        for name in ("disconnect_hot", "disconnect_cold"):
            assert oracle.strokes[name].work == 0.0

    def test_oracle_match_at_tiny_level_spacing(self):
        # a disconnection cost of rounding size f * 1e-18 would fail the audit,
        # which is relative to omega_h
        config = build_config(omega_c=1e-14, omega_h=2e-14, beta_c=1e14, beta_h=2e13,
                              tau_h=2.0, tau_c=2.0)
        deviation = max_energy_deviation(strong_cycle(config), strong_cycle_via_oracle(config))
        assert deviation / config.omega_h <= TOL.oracle_cycle_match

    def test_efficiency_via_oracle(self):
        config = build_config(**ENGINE, tau_h=1.3, tau_c=2.1)
        oracle = strong_cycle_via_oracle(config)
        assert oracle.eta == pytest.approx(oracle.eta0, abs=1e-8)

    def test_zero_duration_contacts(self):
        config = build_config(**ENGINE, tau_h=0.0, tau_c=0.0)
        report = strong_cycle_via_oracle(config)
        assert report.heat_hot == 0.0
        assert report.heat_cold == 0.0

    @pytest.mark.parametrize("durations, contact", [((0.0, 2.0), "hot_contact"),
                                                   ((2.0, 0.0), "cold_contact")])
    def test_zero_duration_contact_reports_positive_zeros(self, durations, contact):
        config = build_config(**ENGINE, tau_h=durations[0], tau_c=durations[1])
        ledger = strong_cycle_via_oracle(config).strokes[contact]
        for value in (ledger.heat, ledger.entropy_production):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestClassification:
    def test_sign_patterns(self):
        assert classify_regime(1.0, -0.5, -0.5) == "engine"
        assert classify_regime(-1.0, 0.5, 0.5) == "refrigerator"
        assert classify_regime(0.0, 0.0, 0.0) == "other"
        assert classify_regime(1.0, 0.5, -1.5) == "other"


class TestApplyAxis:
    def test_tau_axis(self):
        config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0)
        assert apply_axis(config, "tau_c", 3.0).tau_c == 3.0

    def test_g_axis_rebuilds_beta_and_profile(self):
        config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0)
        swept = apply_axis(config, "g_h", 0.5)
        assert swept.profile_h.g == pytest.approx(0.5, abs=1e-14)
        assert math.tanh(swept.beta_h * swept.omega_h) == pytest.approx(0.5, abs=1e-14)

    def test_omega_axis_rebuilds_profiles(self):
        config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0)
        swept = apply_axis(config, "omega_h", 3.0)
        assert swept.profile_h.g == pytest.approx(math.tanh(0.2 * 3.0), abs=1e-14)

    @pytest.mark.parametrize("axis, value", [("g_h", 0.3), ("omega_h", 3.0), ("beta_c", 2.5)])
    def test_axes_keep_profile_type_and_table(self, tmp_path, axis, value):
        for kind in ("markovian", "nonmarkovian", tabulated_spec(tmp_path)):
            config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0, kind_h=kind)
            swept = apply_axis(config, axis, value)
            for old, new, beta, omega in (
                    (config.profile_h, swept.profile_h, swept.beta_h, swept.omega_h),
                    (config.profile_c, swept.profile_c, swept.beta_c, swept.omega_c)):
                assert type(new) is type(old)
                assert new.g == np.tanh(beta * omega)
                if isinstance(old, TabulatedProfile):
                    assert np.array_equal(new.times, old.times)
                    assert np.array_equal(new.values, old.values)
                    assert new.phase(2.0) == old.phase(2.0)

    def test_bath_axis_validates_before_rebuilding(self):
        config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0)
        with pytest.raises(ConfigError) as err:
            apply_axis(config, "beta_c", -1.0)
        assert err.value.problems == ["beta_c must exceed beta_h, got -1.0 <= 0.2"]

    def test_unknown_axis(self):
        config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0)
        with pytest.raises(ConfigError):
            apply_axis(config, "volume", 1.0)


_TABLE_TIMES = np.linspace(0.01, 6.0, 300)
_TABLE = {"times": _TABLE_TIMES, "values": 0.5 + 0.3 * np.sin(_TABLE_TIMES)}
_EDGES = [0.0, -0.0, 1e-300, 1e308, math.inf, -math.inf, math.nan]


@st.composite
def sweep_cases(draw):
    """A valid base config, Markovian, non-Markovian or tabulated (to t = 6), one of the
    sweep axes, and grid values that reach past every constraint on it."""
    omega_c = draw(st.floats(0.2, 3.0))
    omega_h = omega_c * draw(st.floats(1.05, 4.0))
    beta_h = draw(st.floats(0.01, 3.0)) / omega_h
    beta_c = beta_h * draw(st.floats(1.01, 20.0))
    tau_h, tau_c, tau_u1, tau_u2 = (draw(st.floats(0.0, 5.0)) for _ in range(4))
    kind = draw(st.sampled_from(["markovian", "nonmarkovian", "tabulated"]))
    config = build_config(omega_c, omega_h, beta_c, beta_h, tau_h, tau_c, tau_u1, tau_u2,
                          kind_h="markovian" if kind == "tabulated" else kind)
    if kind == "tabulated":
        config = replace(config, profile_h=TabulatedProfile(g=config.g_h, **_TABLE),
                         profile_c=TabulatedProfile(g=config.g_c, **_TABLE))
    axis = draw(st.sampled_from(SWEEP_AXES))
    if axis in ("g_h", "g_c"):
        value = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 2**-53]))
    else:
        value = st.one_of(st.floats(-1.0, 10.0), st.sampled_from(_EDGES))
    return config, axis, draw(st.lists(value, min_size=1, max_size=12))


def _bits(value) -> str:
    return float(value).hex()


def _rejecting_base(name: str) -> CycleConfig:
    """A valid base config for the rejected-row cases; "tiny" has baths whose beta*omega
    underflows to 0 at small but positive beta or omega."""
    if name == "tabulated":
        config = build_config(1.0, 2.0, 1.0, 0.2, 2.0, 2.0)
        return replace(config, profile_h=TabulatedProfile(g=config.g_h, **_TABLE),
                       profile_c=TabulatedProfile(g=config.g_c, **_TABLE))
    return {"markovian": build_config(1.0, 2.0, 1.0, 0.2, 2.0, 1e308),
            "nonmarkovian": build_config(1.0, 2.0, 1.0, 0.2, 1e308, 2.0, kind_h="nonmarkovian"),
            "tiny": build_config(1e-300, 0.4, 0.4, 1e-31, 2.0, 2.0)}[name]


_NAN, _INF = math.nan, math.inf
# (base, axis, values, error cells): rows that every rule rejects in turn, on all 8 axes
_REJECTED_ROWS = [
    ("markovian", "tau_h", [_NAN, _INF, -_INF, -1.0, 1e308], [
        "tau_h must be finite, got nan", "tau_h must be finite, got inf",
        "tau_h must be finite, got -inf", "tau_h must be >= 0, got -1.0",
        "the total duration tau_u1 + tau_h + tau_u2 + tau_c must be finite, got inf"]),
    ("nonmarkovian", "tau_c", [_NAN, -_INF, -0.5, 1e308], [
        "tau_c must be finite, got nan", "tau_c must be finite, got -inf",
        "tau_c must be >= 0, got -0.5",
        "the total duration tau_u1 + tau_h + tau_u2 + tau_c must be finite, got inf"]),
    ("markovian", "g_h", [-0.5, 0.0, 1.0, 1.5, _NAN, _INF, 0.99], [
        "g_h must lie in (0, 1), got -0.5", "g_h must lie in (0, 1), got 0.0",
        "g_h must lie in (0, 1), got 1.0", "g_h must lie in (0, 1), got 1.5",
        "g_h must lie in (0, 1), got nan", "g_h must lie in (0, 1), got inf",
        "beta_c must exceed beta_h, got 1.0 <= 1.3233262061811228"]),
    ("nonmarkovian", "g_c", [0.0, -1.0, 1.0, _NAN, 0.1], [
        "g_c must lie in (0, 1), got 0.0", "g_c must lie in (0, 1), got -1.0",
        "g_c must lie in (0, 1), got 1.0", "g_c must lie in (0, 1), got nan",
        "beta_c must exceed beta_h, got 0.10033534773107558 <= 0.2"]),
    ("markovian", "omega_h", [_NAN, _INF, -1.0, 0.0, 0.5, 1.0], [
        "omega_h must be finite, got nan", "omega_h must be finite, got inf",
        "omega_h must be > 0, got -1.0", "omega_h must be > 0, got 0.0",
        "omega_h must exceed omega_c, got 0.5 <= 1.0",
        "omega_h must exceed omega_c, got 1.0 <= 1.0"]),
    ("nonmarkovian", "omega_c", [_NAN, -_INF, -1.0, 0.0, 2.0, 3.0], [
        "omega_c must be finite, got nan", "omega_c must be finite, got -inf",
        "omega_c must be > 0, got -1.0", "omega_c must be > 0, got 0.0",
        "omega_h must exceed omega_c, got 2.0 <= 2.0",
        "omega_h must exceed omega_c, got 2.0 <= 3.0"]),
    ("tiny", "omega_c", [5e-324], ["bath parameter g must lie in (0, 1], got 0.0"]),
    ("markovian", "beta_h", [_NAN, -0.5, 0.0, 1.0, 2.0, _INF], [
        "beta_h must be finite, got nan", "beta_h must be >= 0, got -0.5",
        "beta_h * omega_h must be > 0 so that the hot profile has g > 0, got 0.0 * 2.0",
        "beta_c must exceed beta_h, got 1.0 <= 1.0", "beta_c must exceed beta_h, got 1.0 <= 2.0",
        "beta_h must be finite, got inf"]),
    ("tiny", "beta_h", [5e-324],
     ["beta_h * omega_h must be > 0 so that the hot profile has g > 0, got 5e-324 * 0.4"]),
    ("markovian", "beta_c", [_NAN, 0.2, 0.1, -1.0, _INF, 0.0], [
        "beta_c must be finite, got nan", "beta_c must exceed beta_h, got 0.2 <= 0.2",
        "beta_c must exceed beta_h, got 0.1 <= 0.2", "beta_c must exceed beta_h, got -1.0 <= 0.2",
        "beta_c must be finite, got inf", "beta_c must exceed beta_h, got 0.0 <= 0.2"]),
    ("tiny", "beta_c", [1e-30], ["bath parameter g must lie in (0, 1], got 0.0"]),
    ("tabulated", "tau_h", [7.0, _NAN, -1.0], [
        "t = 7.0 outside tabulated domain [0.01, 6.0]", "tau_h must be finite, got nan",
        "tau_h must be >= 0, got -1.0"]),
    ("tabulated", "tau_c", [6.5, _INF], [
        "t = 6.5 outside tabulated domain [0.01, 6.0]", "tau_c must be finite, got inf"]),
    ("tabulated", "g_h", [1.0, 0.99], [
        "g_h must lie in (0, 1), got 1.0",
        "beta_c must exceed beta_h, got 1.0 <= 1.3233262061811228"]),
    ("tabulated", "omega_c", [0.0, 2.5], [
        "omega_c must be > 0, got 0.0", "omega_h must exceed omega_c, got 2.0 <= 2.5"]),
]


class TestStrongCycleSweep:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sweep_cases())
    def test_rows_are_the_scalar_route_bit_for_bit(self, case):
        base, axis, values = case
        sweep = strong_cycle_sweep(base, axis, values)
        rows, audits = sweep.report, sweep.report.law_audits()
        for k, value in enumerate(values):
            try:
                report = strong_cycle(apply_axis(base, axis, value))
            except (ValueError, QottoError) as exc:
                assert not sweep.valid[k] and sweep.errors[k] == str(exc)
                assert rows.regime[k] == "" and math.isnan(rows.eta0[k])
                continue
            assert sweep.valid[k] and sweep.errors[k] == ""
            assert rows.regime[k] == report.regime
            for field in CycleReport._fields:
                if field not in ("config", "strokes", "regime"):
                    assert _bits(getattr(rows, field)[k]) == \
                        _bits(getattr(report, field)), field
            for name, ledger in report.strokes.items():
                for field, column in zip(EnergyLedger._fields, rows.strokes[name]):
                    assert _bits(column[k]) == _bits(getattr(ledger, field)), (name, field)
            point = report.law_audits()
            for name, (column, passed) in audits.items():  # an audit the row skips: NaN, pass
                value, ok = point.get(name, (math.nan, True))
                assert _bits(column[k]) == _bits(value) and passed[k] == ok, name
            assert point.keys() <= audits.keys()

    @pytest.mark.parametrize("base, axis, values, cells", _REJECTED_ROWS,
                             ids=[f"{base}-{axis}" for base, axis, *_ in _REJECTED_ROWS])
    def test_rejected_rows_take_no_one_point_route(self, base, axis, values, cells,
                                                   monkeypatch):
        from qotto import cycle as cycle_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep row went through a one-point route")
        monkeypatch.setattr(cycle_mod, "strong_cycle", forbidden)
        monkeypatch.setattr(cycle_mod, "apply_axis", forbidden)
        sweep = strong_cycle_sweep(_rejecting_base(base), axis, values)
        assert not sweep.valid.any()
        assert sweep.errors == cells

    @pytest.mark.parametrize("base, axis, value, cell", [
        ((1, 2, 1, 0.2, 2, 2), "beta_h", 0.0,
         "beta_h * omega_h must be > 0 so that the hot profile has g > 0, got 0.0 * 2"),
        ((1, 2, 1, 0.2, 2, 2), "beta_h", 1e-320, ""),
        ((1, 2, 1, 0.2, 2, 2), "omega_h", math.nan, "omega_h must be finite, got nan"),
        # omega_c is the int 1 here, and a message shows a field as it was given
        ((1, 2, 1, 0.2, 2, 2), "omega_h", 0.5, "omega_h must exceed omega_c, got 0.5 <= 1"),
        ((1, 2, 1, 0.2, 2, 2), "g_h", 1.0, "g_h must lie in (0, 1), got 1.0"),
        ((1, 2, 1e-10, 1e-11, 2, 2), "omega_c", 1e-320,
         "bath parameter g must lie in (0, 1], got 0.0"),
        ((1, 2, 1e-10, 1e-11, 2, 2), "g_c", 5e-324,
         "beta_c must exceed beta_h, got 5e-324 <= 1e-11")])
    def test_precedence_edges(self, base, axis, value, cell):
        config = build_config(*base)
        sweep = strong_cycle_sweep(config, axis, [value])
        assert sweep.errors == [cell] and sweep.valid.tolist() == [cell == ""]
        if cell:
            with pytest.raises(ConfigError) as err:
                apply_axis(config, axis, value)
            assert str(err.value) == cell
        else:
            assert apply_axis(config, axis, value).profile_h.g > 0.0

    def test_table_end_is_a_rule(self):
        config = _rejecting_base("tabulated")
        sweep = strong_cycle_sweep(config, "tau_h", [5.0, 6.0, 6.000000000000001])
        assert sweep.valid.tolist() == [True, True, False]
        assert sweep.errors[2] == "t = 6.000000000000001 outside tabulated domain [0.01, 6.0]"
        for route in (strong_cycle, strong_cycle_via_oracle):  # the oracle names tau_h too
            with pytest.raises(ConfigError, match=f"^{re.escape(sweep.errors[2])}$"):
                route(replace(config, tau_h=6.000000000000001))

    @pytest.mark.parametrize("axis, values", [
        ("tau_h", [0.5, 1.0, 2.0, 3.5]), ("g_c", [0.3, 0.5, 0.7]),
        ("omega_h", [1.5, 2.0, 4.0])])
    def test_entries_are_full_length_columns(self, axis, values):
        # an all-valid sweep passes its columns through and repeats the entries that do
        # not vary along the axis; one with rejected rows scatters the same rows
        base = build_config(**ENGINE, tau_h=2.0, tau_c=1.0)
        rejected = {"tau_h": -1.0, "g_c": 1.5, "omega_h": 0.5}[axis]
        grid = np.array([rejected, *values, rejected])
        every, some = (strong_cycle_sweep(base, axis, v) for v in (values, grid))
        assert every.valid.all() and some.valid.tolist() == [False, *[True] * len(values), False]

        def entries(report):
            yield from ((f, getattr(report, f)) for f in report._fields
                        if f not in ("config", "strokes"))
            yield from ((f"{name}.{f}", column) for name, ledger in report.strokes.items()
                        for f, column in zip(EnergyLedger._fields, ledger))

        for (field, column), (_, scattered) in zip(entries(every.report), entries(some.report)):
            assert column.shape == (len(values),) and scattered.shape == grid.shape, field
            assert column.dtype == scattered.dtype, field
            assert column.tobytes() == scattered[1:-1].tobytes(), field
            ends = scattered[[0, -1]]
            assert (ends == "").all() if ends.dtype.kind == "U" else np.isnan(ends).all(), field

    def test_unknown_axis_and_invalid_base(self):
        config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0)
        with pytest.raises(ConfigError, match="unknown sweep axis 'volume'"):
            strong_cycle_sweep(config, "volume", [1.0])
        with pytest.raises(ConfigError, match="profile_h is required"):
            strong_cycle_sweep(replace(config, profile_h=None), "tau_h", [1.0])

    @pytest.mark.parametrize("values", [2.0, [[1.0, -1.0], [3.0, 4.0]], [[1.0, 2.0]]])
    def test_grid_must_be_one_dimensional(self, values):
        config = build_config(1.0, 2.0, 1.0, 0.2, 2.0, 2.0)
        shape = np.shape(values)
        with pytest.raises(ConfigError, match=re.escape(f"got shape {shape}")):
            strong_cycle_sweep(config, "tau_h", values)

    def test_entropy_trace_to_the_float_maximum(self):
        # tau * k overflows for a contact near the float maximum; the sample times
        # fall back to tau / n * k
        config = build_config(1.0, 2.0, 1.0, 0.2, 1e308, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = entropy_trace(config, "hot")
        assert trace.shape == (100,) and np.all(np.isfinite(trace))


def _assert_chained(strokes: dict) -> None:
    """Each stroke starts, bit for bit, at the energy the stroke before it ended with."""
    for before, after in zip(STROKE_ORDER, STROKE_ORDER[1:]):
        start = np.asarray(strokes[after].internal_energy_initial, dtype=float)
        end = np.asarray(strokes[before].internal_energy_final, dtype=float)
        assert start.tobytes() == end.tobytes(), after


class TestStrokeChain:
    """The nine stroke-boundary energies form one chain on every route."""

    def test_closed_form_routes(self):
        rng = np.random.default_rng(41)
        configs = [build_config(**ENGINE, tau_h=2.0, tau_c=2.0),
                   build_config(**FRIDGE, tau_h=0.7, tau_c=0.0, kind_h="nonmarkovian")]
        for config in configs + [random_config(rng) for _ in range(20)]:
            _assert_chained(strong_cycle(config).strokes)
            _assert_chained(weak_cycle(config).strokes)

    @pytest.mark.parametrize("kind", ["markovian", "nonmarkovian"])
    def test_oracle_route(self, kind):
        for params in (ENGINE, FRIDGE):
            _assert_chained(strong_cycle_via_oracle(
                build_config(**params, tau_h=1.3, tau_c=0.9, kind_h=kind)).strokes)

    @pytest.mark.parametrize("axis, lo, hi", [("tau_c", 0.1, 5.0), ("tau_h", -1.0, 3.0),
                                              ("g_h", 0.0, 1.2), ("omega_c", 0.5, 2.5)])
    def test_sweep_columns(self, axis, lo, hi):
        sweep = strong_cycle_sweep(build_config(**ENGINE, tau_h=2.0, tau_c=2.0), axis,
                                   np.linspace(lo, hi, 50))
        assert sweep.valid.any()
        _assert_chained(sweep.report.strokes)


def _baseline_rates(c: CycleConfig) -> tuple:
    """power0 = -W0 / tau and kappa0 = Q_c0 / tau, the weak cycle's rates."""
    return (-(c.omega_c - c.omega_h) * (c.g_c - c.g_h) / c.tau,
            c.omega_c * (c.g_h - c.g_c) / c.tau)


class TestBaselineRates:
    def test_one_point_routes(self):
        rng = np.random.default_rng(43)
        for config in [build_config(**FRIDGE, tau_h=2.0, tau_c=2.0, tau_u1=0.5)] + \
                [random_config(rng) for _ in range(20)]:
            power0, kappa0 = _baseline_rates(config)
            for report in (strong_cycle(config), weak_cycle(config)):
                assert (_bits(report.power0), _bits(report.kappa0)) == \
                    (_bits(power0), _bits(kappa0))

    @pytest.mark.parametrize("axis, lo, hi", [("tau_h", -1.0, 4.0), ("tau_c", -1.0, 4.0),
                                              ("g_h", 0.0, 1.2), ("g_c", 0.3, 1.0),
                                              ("omega_h", 0.5, 4.0), ("omega_c", 0.0, 2.5),
                                              ("beta_h", 0.0, 1.5), ("beta_c", 0.1, 3.0)])
    def test_every_valid_sweep_row(self, axis, lo, hi):
        sweep = strong_cycle_sweep(build_config(**ENGINE, tau_h=2.0, tau_c=1.0, tau_u2=0.25),
                                   axis, np.linspace(lo, hi, 40))
        valid, report = sweep.valid, sweep.report
        assert valid.any() and not valid.all()
        with np.errstate(all="ignore"):
            expected = _baseline_rates(report.config)
        for column, value in zip((report.power0, report.kappa0), expected):
            assert column[valid].tobytes() == value[valid].tobytes()
            assert np.isnan(column[~valid]).all()
