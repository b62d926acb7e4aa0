import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qotto import linalg, thermo
from qotto.cycle import (NUMERIC_FIELDS, STROKE_ORDER, SWEEP_AXES, CycleConfig, LedgerColumns,
                         _fields_valid, apply_axis, build_config, strong_cycle_sweep,
                         classify_regime, max_energy_deviation,
                         stroke_entropy_production_trace, strong_cycle,
                         strong_cycle_via_oracle, weak_cycle)
from qotto.dynamics import QubitState, joint_state_closed_form
from qotto.errors import ConfigError, QottoError, UndefinedPowerError
from qotto.profiles import MarkovianProfile, NonMarkovianProfile, TabulatedProfile
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
        config = build_config(**ENGINE, tau_h=0.0, tau_c=0.0)
        with pytest.raises(UndefinedPowerError):
            weak_cycle(config)

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
        loaded, _ = load_cycle_config(None, {**ENGINE, "tau_h": 1.0, "tau_c": 1.0,
                                             "profile_h": spec, "profile_c": spec})
        for a, b in ((built.profile_h, loaded.profile_h), (built.profile_c, loaded.profile_c)):
            assert type(a) is type(b) is TabulatedProfile
            assert a.g == b.g
            assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)


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
        assert math.isnan(report.power)

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
                trace = stroke_entropy_production_trace(config, stroke, n_points=30)
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
                assert stroke_entropy_production_trace(config, stroke, n_points=20).min() > 0.0

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
                trace = stroke_entropy_production_trace(config, stroke, n_points=n)
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

    def test_rejects_bad_stroke_and_zero_duration(self):
        config = build_config(**ENGINE, tau_h=2.0, tau_c=0.0)
        with pytest.raises(ValueError, match="stroke must be 'hot' or 'cold'"):
            stroke_entropy_production_trace(config, "warm")
        with pytest.raises(ValueError, match="cold contact has zero duration"):
            stroke_entropy_production_trace(config, "cold")


class TestOraclePath:
    @pytest.mark.parametrize("kind", ["markovian", "nonmarkovian", "tabulated",
                                      "tabulated_hot_shorter_than_t0"])
    def test_matches_closed_form(self, kind, tmp_path):
        tau_h = 0.02 if kind == "tabulated_hot_shorter_than_t0" else 2.0
        if kind.startswith("tabulated"):
            # t0 = 0.05 lies above the oracle's start time; a hot contact
            # shorter than t0 is the seed state alone, its disconnection
            # cost evaluates f at t0
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


class TestStrongCycleSweep:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sweep_cases())
    def test_rows_are_the_scalar_route_bit_for_bit(self, case):
        base, axis, values = case
        sweep = strong_cycle_sweep(base, axis, values)
        for k, value in enumerate(values):
            try:
                report = strong_cycle(apply_axis(base, axis, value))
            except (ValueError, QottoError) as exc:
                assert not sweep.valid[k] and sweep.errors[k] == str(exc)
                assert sweep.metrics["regime"][k] == "" and math.isnan(sweep.metrics["eta0"][k])
                continue
            assert sweep.valid[k] and sweep.errors[k] == ""
            assert sweep.metrics["regime"][k] == report.regime
            for name, column in sweep.metrics.items():
                if name != "regime":
                    assert _bits(column[k]) == _bits(getattr(report, name)), name
            for name, ledger in report.strokes.items():
                for field, column in zip(LedgerColumns._fields, sweep.strokes[name]):
                    assert _bits(column[k]) == _bits(getattr(ledger, field)), (name, field)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.fixed_dictionaries(
        {name: st.one_of(st.floats(-1.0, 5.0), st.sampled_from(_EDGES))
         for name in NUMERIC_FIELDS}), min_size=1, max_size=8))
    def test_mask_agrees_with_problems(self, rows):
        mask = _fields_valid({name: np.array([row[name] for row in rows])
                              for name in NUMERIC_FIELDS})
        assert mask.tolist() == [CycleConfig(**row).problems() == [] for row in rows]

    def test_unknown_axis_and_invalid_base(self):
        config = build_config(**ENGINE, tau_h=1.0, tau_c=1.0)
        with pytest.raises(ConfigError, match="unknown sweep axis 'volume'"):
            strong_cycle_sweep(config, "volume", [1.0])
        with pytest.raises(ConfigError, match="profile_h is required"):
            strong_cycle_sweep(replace(config, profile_h=None), "tau_h", [1.0])

    def test_entropy_trace_to_the_float_maximum(self):
        # tau * k overflows for a contact near the float maximum; the sample times
        # fall back to tau / n * k
        config = build_config(1.0, 2.0, 1.0, 0.2, 1e308, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = stroke_entropy_production_trace(config, "hot")
        assert trace.shape == (100,) and np.all(np.isfinite(trace))
