"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines as they happen). Every bound the shared ``TOL`` record holds is read
from it, so the library's validation thresholds and these acceptance bounds
cannot drift apart; the few it does not hold are pinned here, and nothing
is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from qotto.cycle import (apply_axis, build_config, stroke_entropy_production_trace,
                         strong_cycle, strong_cycle_via_oracle, weak_cycle)
from qotto import thermo
from qotto.dynamics import (ORACLE_T_START, QubitState, bath_thermal_matrix,
                            coupling_hamiltonian, cp_divisibility_witness, joint_state,
                            joint_state_closed_form, master_equation_rhs,
                            oracle_propagate, reduced_state, vectorized_reps)
from qotto.errors import SingularGeneratorError
from qotto.profiles import (MarkovianProfile, NonMarkovianProfile, rate_gamma,
                            rate_pair)
from qotto.tolerances import TOL

ENGINE = dict(omega_c=1.0, omega_h=2.0, beta_c=1.0, beta_h=0.2)
FRIDGE = dict(omega_c=1.0, omega_h=2.0, beta_c=1.0, beta_h=0.6)


def random_qubit_state(rng):
    p = rng.uniform(0.05, 0.95)
    radius = math.sqrt(p * (1 - p)) * rng.uniform(0.0, 0.95)
    return QubitState(p=p, x=radius * np.exp(1j * rng.uniform(0, 2 * math.pi)))


def random_cycle_config(rng, kind=None):
    omega_c = rng.uniform(0.5, 2.0)
    omega_h = omega_c * rng.uniform(1.2, 3.0)
    beta_h = rng.uniform(0.05, 1.0)
    beta_c = beta_h * rng.uniform(1.2, 4.0)
    kind = kind or ("markovian" if rng.random() < 0.5 else "nonmarkovian")
    return build_config(omega_c, omega_h, beta_c, beta_h,
                        tau_h=rng.uniform(0.1, 5.0), tau_c=rng.uniform(0.1, 5.0),
                        kind_h=kind)


def test_criterion_01_constant_rate_semigroup():
    start = time.perf_counter()
    worst = 0.0
    for g in (0.1, 0.5, 0.8, 0.99):
        profile = MarkovianProfile(g=g)
        for t in np.linspace(1e-3, 20 * g, 2000):
            worst = max(worst, abs(rate_gamma(profile, float(t)) - 1 / (2 * g)))
    elapsed = time.perf_counter() - start
    assert worst <= TOL.semigroup_rate
    assert elapsed < 1.0
    print(f"criterion 1 PASS: semigroup rate constant, max |gamma - 1/2g| = "
          f"{worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = 0
    for profile_cls in (MarkovianProfile, NonMarkovianProfile):
        for g in (0.3, 0.8):
            profile = profile_cls(g=g)
            for omega in (0.5, 2.0):
                for t in (0.5, 1.0, 3.0):
                    sys = random_qubit_state(rng)
                    dev = np.max(np.abs(oracle_propagate(sys, profile, omega, t)
                                        - joint_state(sys, profile, omega, t)))
                    worst = max(worst, dev)
                    cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 24
    assert worst <= TOL.oracle_match
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 24-case oracle equivalence, max entry deviation = "
          f"{worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_master_equation_residual():
    rng = np.random.default_rng(43)
    h = 1e-5
    worst = 0.0
    for _ in range(12):
        profile = (MarkovianProfile if rng.random() < 0.5
                   else NonMarkovianProfile)(g=rng.uniform(0.3, 0.95))
        sys = random_qubit_state(rng)
        omega = rng.uniform(0.3, 2.0)
        t = rng.uniform(0.2, 2.0)
        fd = (reduced_state(sys, profile, omega, t + h).matrix()
              - reduced_state(sys, profile, omega, t - h).matrix()) / (2 * h)
        rhs = master_equation_rhs(reduced_state(sys, profile, omega, t).matrix(),
                                  omega, rate_pair(profile, t))
        rel = np.max(np.abs(fd - rhs)) / max(np.max(np.abs(rhs)), 1e-12)
        worst = max(worst, rel)
    assert worst <= TOL.master_residual
    print(f"criterion 3 PASS: master-equation residual, max relative error = {worst:.2e}")


def test_criterion_04_witness_equivalence():
    rng = np.random.default_rng(44)
    mismatches = 0
    worst_spectrum = 0.0
    checked = 0
    while checked < 200:
        profile = (MarkovianProfile if rng.random() < 0.5
                   else NonMarkovianProfile)(g=rng.uniform(0.2, 0.99))
        t = rng.uniform(0.05, 3.0)
        omega = rng.uniform(0.3, 2.0)
        try:
            rep = vectorized_reps(profile, omega, t)
            gamma = rate_gamma(profile, t)
        except SingularGeneratorError:
            continue
        psd, evals = cp_divisibility_witness(rep)
        if psd != (gamma >= TOL.rate_floor):
            mismatches += 1
        expected = np.sort([0.0, 0.0, (1 - profile.g) * gamma, (1 + profile.g) * gamma])
        worst_spectrum = max(worst_spectrum,
                             float(np.max(np.abs(np.sort(evals) - expected))))
        checked += 1
    assert mismatches == 0
    assert worst_spectrum <= 1e-9
    print(f"criterion 4 PASS: 200-sample witness equivalence, 0 mismatches, "
          f"max spectrum deviation = {worst_spectrum:.2e}")


def test_criterion_05_rate_scan_reproduction():
    markovian = MarkovianProfile(g=0.8)
    nonmarkovian = NonMarkovianProfile(g=0.8)
    ts = np.linspace(2.0 / 2000, 2.0, 2000)
    gamma_m = np.array([rate_gamma(markovian, float(t)) for t in ts])
    gamma_nm = np.array([rate_gamma(nonmarkovian, float(t)) for t in ts])
    assert np.max(np.abs(gamma_m - 0.625)) <= 1e-9
    assert gamma_nm.min() < 0.0
    print(f"criterion 5 PASS: rate scan at g=0.8 constant at 0.625; "
          f"non-Markovian minimum {gamma_nm.min():.2f} < 0")


def test_criterion_06_power_ratio_reproduction():
    g = 0.8
    markovian = MarkovianProfile(g=g)
    nonmarkovian = NonMarkovianProfile(g=g)
    ts = np.linspace(1e-4, 5 * g, 4000)
    ratio_m = np.array([markovian.thermal_weight(float(t)) for t in ts])
    ratio_nm = np.array([nonmarkovian.thermal_weight(float(t)) for t in ts])
    assert np.max(np.abs(ratio_m - (-np.expm1(-ts / g)))) <= TOL.thermal_weight_identity
    early = ts <= 1.0
    assert np.max(ratio_nm[early] - ratio_m[early]) > 0.0
    assert ratio_m.max() > 0.99 and ratio_nm.max() > 0.99
    print("criterion 6 PASS: Markovian power ratio equals 1 - e^{-t/g}; "
          "non-Markovian exceeds it below t = 1 and both pass 0.99 by t = 5g")


def test_criterion_07_stroke_scalings():
    rng = np.random.default_rng(45)
    worst = 0.0
    for _ in range(50):
        config = random_cycle_config(rng)
        strong = strong_cycle(config)
        weak = weak_cycle(config)
        sw_h, sw_c = strong.thermal_weight_hot, strong.thermal_weight_cold
        worst = max(worst,
                    abs(strong.heat_hot - weak.heat_hot * sw_h),
                    abs(strong.heat_cold - weak.heat_cold * sw_h * sw_c),
                    abs(strong.work_total - weak.work_total * sw_h))
        quench_works = strong.strokes["quench_up"].work + strong.strokes["quench_down"].work
        assert abs(strong.work_total - quench_works) <= TOL.cycle_identity
        if strong.heat_hot != 0.0:
            assert abs(strong.eta - strong.eta0) <= TOL.cycle_identity
    assert worst <= TOL.stroke_scaling
    oracle = strong_cycle_via_oracle(build_config(**ENGINE, tau_h=1.7, tau_c=2.3))
    assert abs(oracle.eta - oracle.eta0) <= 1e-5
    print(f"criterion 7 PASS: stroke scalings within {worst:.2e}; eta = eta0 "
          f"in closed form and via oracle ({abs(oracle.eta - oracle.eta0):.2e})")


def test_criterion_08_refrigerator_cop():
    rng = np.random.default_rng(46)
    worst = 0.0
    for _ in range(30):
        config = random_cycle_config(rng, kind="markovian")
        report = strong_cycle(config)
        if report.work_total == 0.0:
            continue
        expected = report.cop0 * (-math.expm1(-config.tau_c / config.g_c))
        worst = max(worst, abs(report.cop - expected))
    assert worst <= TOL.stroke_scaling
    g_c = math.tanh(1.0)
    report = strong_cycle(build_config(**FRIDGE, tau_h=50.0, tau_c=g_c * math.log(2.0)))
    assert report.cop == pytest.approx(0.5, abs=1e-8)
    print(f"criterion 8 PASS: K = K0 (1 - e^(-tau_c/g_c)) within {worst:.2e}; "
          f"half-weight config gives K = {report.cop:.12f}")


def coupling_costs(config):
    """Connect and disconnect works of both contacts, +/- Tr[H_SB rho] on the 4x4
    closed-form states at each switching instant."""
    cw_h = 1.0 - config.profile_h.thermal_weight(config.tau_h)
    p_c1 = (1.0 - config.g_h) / 2.0 + 0.5 * cw_h * (config.g_h - config.g_c)
    costs = []
    for p_in, profile, omega, tau in (
            ((1.0 - config.g_c) / 2.0, config.profile_h, config.omega_h, config.tau_h),
            (p_c1, config.profile_c, config.omega_c, config.tau_c)):
        def h_sb(t):
            # f diverges at t = 0+; the overlap it multiplies vanishes there
            return coupling_hamiltonian(profile.f(max(t, ORACLE_T_START, profile.t_min)))
        start = np.kron(np.diag([p_in, 1.0 - p_in]).astype(complex),
                        bath_thermal_matrix(profile.g))
        end = joint_state_closed_form(QubitState(p=p_in), profile.g, omega,
                                      profile.phase(tau), tau)
        costs += [thermo.connect_disconnect_work(h_sb(0.0), start),
                  thermo.connect_disconnect_work(h_sb(tau), end, disconnect=True)]
    return costs


def test_criterion_09_zero_coupling_cost():
    rng = np.random.default_rng(47)
    worst = 0.0
    base = build_config(**ENGINE, tau_h=2.0, tau_c=2.0)
    grid = []
    for axis, lo, hi in (("tau_h", 0.1, 5.0), ("tau_c", 0.1, 5.0),
                         ("g_h", 0.1, 0.35), ("omega_h", 1.5, 4.0),
                         ("beta_h", 0.05, 0.45)):
        for value in np.linspace(lo, hi, 8):
            grid.append(apply_axis(base, axis, float(value)))
    for _ in range(40):
        grid.append(random_cycle_config(rng))
    for config in grid:
        reported = strong_cycle(config).boundary_works().values()
        for cost, value in zip(coupling_costs(config), reported):
            worst = max(worst, abs(cost), abs(cost - value))
    assert worst <= TOL.boundary_work
    print(f"criterion 9 PASS: {len(grid)} grid points, max coupling cost = "
          f"{worst:.2e}")


def test_criterion_10_thermodynamic_laws():
    rng = np.random.default_rng(48)
    # first law per stroke
    worst_first_law = 0.0
    for _ in range(40):
        report = strong_cycle(random_cycle_config(rng))
        worst_first_law = max(worst_first_law,
                              max(abs(lg.first_law_residual)
                                  for lg in report.strokes.values()))
    assert worst_first_law <= TOL.first_law
    # entropy production along both contact strokes, engine and refrigerator
    worst_sigma = math.inf
    for params in (ENGINE, FRIDGE):
        config = build_config(**params, tau_h=2.0, tau_c=2.0)
        for stroke in ("hot", "cold"):
            trace = stroke_entropy_production_trace(config, stroke, n_points=100)
            worst_sigma = min(worst_sigma, float(trace.min()))
    assert worst_sigma >= TOL.entropy_production_floor
    # weak-cycle Clausius inequality and Carnot bounds on a random grid
    worst_clausius = -math.inf
    for _ in range(100):
        config = random_cycle_config(rng)
        weak = weak_cycle(config)
        worst_clausius = max(worst_clausius,
                             config.beta_h * weak.heat_hot
                             + config.beta_c * weak.heat_cold)
    assert worst_clausius <= TOL.clausius_weak
    carnot_checked = 0
    for _ in range(200):
        report = strong_cycle(random_cycle_config(rng))
        if report.regime == "engine":
            assert report.eta <= report.carnot_eta + TOL.carnot_slack
            carnot_checked += 1
        elif report.regime == "refrigerator":
            assert report.cop <= report.carnot_cop + TOL.carnot_slack
            carnot_checked += 1
    assert carnot_checked > 0
    print(f"criterion 10 PASS: first law <= {worst_first_law:.2e}, entropy "
          f"production >= {worst_sigma:.2e}, Clausius <= {worst_clausius:.2e}, "
          f"Carnot bounds on {carnot_checked} classified points")
