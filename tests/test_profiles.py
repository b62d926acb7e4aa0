import math

import numpy as np
import pytest
from scipy.integrate import quad

from qotto.errors import ConfigError, SingularGeneratorError
from qotto.profiles import (MarkovianProfile, NonMarkovianProfile,
                            TabulatedProfile, is_markovian, load_tabulated,
                            profile_from_spec, rate_gamma, rate_pair)

T_HALF = 0.8 * math.log(2.0)  # semigroup profile with g = 0.8 reaches sin^2 F = 1/2 here


def quadrature_phase(profile, t):
    """Independent oracle for F(t): quadrature of f in the variable u = sqrt(t').

    The integrand is written out from the defining formulas (not via the
    library) so that this route shares no code with the implementation.
    """
    g = profile.g
    nonmarkovian = isinstance(profile, NonMarkovianProfile)

    def integrand(u):
        tt = u * u
        if tt == 0.0:
            return 1.0 / math.sqrt(g)
        base = math.exp(-tt / (2 * g)) / (2 * g * math.sqrt(-math.expm1(-tt / g)))
        if nonmarkovian:
            w = 10.0 * tt + 1.0
            base += -10.0 * math.sin(20.0 * tt) / w**2 + 20.0 * math.cos(20.0 * tt) / w
        return base * 2.0 * u

    value, err = quad(integrand, 0.0, math.sqrt(t), limit=400)
    assert err < 1e-8
    return value


class TestCouplingStrength:
    def test_markovian_value(self):
        assert MarkovianProfile(g=0.8).f(T_HALF) == pytest.approx(0.625, abs=1e-12)

    def test_markovian_decays(self):
        assert MarkovianProfile(g=0.5).f(40.0) < 1e-10

    def test_nonmarkovian_value(self):
        # frozen from a 30-digit evaluation of the defining expression
        value = NonMarkovianProfile(g=0.8).f(T_HALF)
        assert value == pytest.approx(1.146568770775536, abs=1e-12)

    @pytest.mark.parametrize("cls", [MarkovianProfile, NonMarkovianProfile])
    def test_domain_error(self, cls):
        with pytest.raises(ValueError):
            cls(g=0.5).f(0.0)
        with pytest.raises(ValueError):
            cls(g=0.5).f(-1.0)

    def test_g_range_enforced(self):
        with pytest.raises(ValueError):
            MarkovianProfile(g=0.0)
        with pytest.raises(ValueError):
            MarkovianProfile(g=1.2)


class TestNonMarkovianCorrection:
    @pytest.mark.parametrize("g", [0.2, 0.8, 0.99])
    def test_constant_rate_plus_correction_bit_for_bit(self, g):
        markovian, nonmarkovian = MarkovianProfile(g=g), NonMarkovianProfile(g=g)
        for t in np.linspace(1e-3, 10.0, 500):
            t = float(t)
            u = 10.0 * t + 1.0
            assert nonmarkovian.f(t) == (markovian.f(t) - 10.0 * math.sin(20.0 * t) / u**2
                                         + 20.0 * math.cos(20.0 * t) / u)
            assert nonmarkovian.phase(t) == markovian.phase(t) + math.sin(20.0 * t) / u


class TestAccumulatedPhase:
    @pytest.mark.parametrize("profile", [MarkovianProfile(g=0.3),
                                         NonMarkovianProfile(g=0.8)])
    def test_zero_at_zero(self, profile):
        assert profile.phase(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_markovian_saturates_at_half_pi(self):
        profile = MarkovianProfile(g=0.4)
        assert profile.phase(60 * 0.4) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_markovian_quarter_pi(self):
        assert MarkovianProfile(g=0.8).phase(T_HALF) == pytest.approx(
            math.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("g,t", [(0.8, 0.3), (0.8, 1.7), (0.3, 0.9), (0.99, 2.5)])
    def test_nonmarkovian_closed_form_matches_quadrature(self, g, t):
        profile = NonMarkovianProfile(g=g)
        assert profile.phase(t) == pytest.approx(
            quadrature_phase(profile, t), abs=1e-9)

    @pytest.mark.parametrize("g,t", [(0.5, 0.7), (0.9, 2.2)])
    def test_markovian_closed_form_matches_quadrature(self, g, t):
        profile = MarkovianProfile(g=g)
        assert profile.phase(t) == pytest.approx(
            quadrature_phase(profile, t), abs=1e-9)

    @pytest.mark.parametrize("profile", [MarkovianProfile(g=0.5),
                                         NonMarkovianProfile(g=0.5),
                                         MarkovianProfile(g=0.99),
                                         NonMarkovianProfile(g=0.2)])
    def test_phase_derivative_is_coupling(self, profile):
        h = 1e-6
        for t in np.linspace(0.05, 10 * profile.g, 80):
            fd = (profile.phase(t + h) - profile.phase(t - h)) / (2 * h)
            assert abs(fd - profile.f(t)) <= 1e-5 * max(1.0, abs(profile.f(t)))

    def test_nonmarkovian_still_saturates(self):
        for g in (0.2, 0.5, 0.8, 0.99):
            profile = NonMarkovianProfile(g=g)
            assert abs(profile.phase(50 * g) - math.pi / 2) <= 0.02


class TestThermalizationWeight:
    def test_zero_at_zero(self):
        assert MarkovianProfile(g=0.8).thermal_weight(0.0) == 0.0

    def test_half_at_half_life(self):
        assert MarkovianProfile(g=0.8).thermal_weight(T_HALF) == pytest.approx(
            0.5, abs=1e-12)

    def test_saturates_to_one(self):
        assert MarkovianProfile(g=0.7).thermal_weight(50 * 0.7) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [0.1, 0.5, 0.8, 0.99])
    def test_markovian_identity(self, g):
        profile = MarkovianProfile(g=g)
        for t in np.linspace(1e-3, 20 * g, 200):
            assert abs(profile.thermal_weight(t) - (-math.expm1(-t / g))) <= 1e-9


class TestRates:
    @pytest.mark.parametrize("g", [0.1, 0.5, 0.8, 0.99])
    def test_markovian_rate_constant(self, g):
        profile = MarkovianProfile(g=g)
        for t in np.linspace(1e-3, 20 * g, 500):
            assert abs(rate_gamma(profile, t) - 1 / (2 * g)) <= 1e-9

    def test_rate_pair_values(self):
        pair = rate_pair(MarkovianProfile(g=0.5), 0.4)
        assert pair.gamma_minus == pytest.approx(1.5, abs=1e-11)
        assert pair.gamma_plus == pytest.approx(0.5, abs=1e-11)

    def test_rate_pair_invariant(self):
        profile = NonMarkovianProfile(g=0.8)
        for t in (0.11, 0.5, 1.3):
            gamma = rate_gamma(profile, t)
            pair = rate_pair(profile, t)
            assert pair.gamma_minus == pytest.approx((1 + 0.8) * gamma, rel=1e-12)
            assert pair.gamma_plus == pytest.approx((1 - 0.8) * gamma, rel=1e-12)

    def test_nonmarkovian_rate_goes_negative(self):
        profile = NonMarkovianProfile(g=0.8)
        values = [rate_gamma(profile, t) for t in np.linspace(1e-3, 2.0, 2000)]
        assert min(values) < 0.0

    def test_singular_generator_without_closed_form(self):
        # constant f = 2 tabulated: F(t) = 2t crosses pi/2 at t = pi/4
        profile = TabulatedProfile(g=0.5, times=np.array([0.01, 1.0]),
                                   values=np.array([2.0, 2.0]))
        with pytest.raises(SingularGeneratorError):
            rate_gamma(profile, math.pi / 4)

    def test_markovian_closed_form_past_singularity(self):
        # |cos F| < 1e-8 needs t > ~37 g; the constant closed form still applies
        profile = MarkovianProfile(g=0.5)
        assert rate_gamma(profile, 40 * 0.5) == pytest.approx(1.0, abs=1e-12)


class TestIsMarkovian:
    def test_semigroup_is_markovian(self):
        for g in (0.3, 0.8):
            flag, first = is_markovian(MarkovianProfile(g=g), 20 * g)
            assert flag and first is None

    def test_corrected_profile_is_not(self):
        flag, first = is_markovian(NonMarkovianProfile(g=0.8), 2.0)
        assert not flag
        assert 0.0 < first <= 2.0

    def test_tabulated_constant_below_half_pi(self):
        profile = TabulatedProfile(g=0.5, times=np.array([0.01, 1.0]),
                                   values=np.array([1.0, 1.0]))
        flag, first = is_markovian(profile, 1.0)
        assert flag and first is None

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            is_markovian(MarkovianProfile(g=0.5), 0.0)


class TestTabulated:
    def test_requires_positive_start(self):
        with pytest.raises(ValueError):
            TabulatedProfile(g=0.5, times=np.array([0.0, 1.0]), values=np.array([1.0, 1.0]))

    def test_requires_monotone_grid(self):
        with pytest.raises(ValueError):
            TabulatedProfile(g=0.5, times=np.array([0.5, 0.2]), values=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("array", ["times", "values"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, array, bad):
        samples = {"times": np.array([0.1, 0.2, 0.3]), "values": np.array([1.0, 1.0, 1.0])}
        samples[array][1] = bad
        with pytest.raises(ValueError, match=r"^tabulated profile <memory> holds a non-finite"):
            TabulatedProfile(g=0.5, **samples)

    def test_linear_interpolation(self):
        profile = TabulatedProfile(g=0.5, times=np.array([0.1, 0.3]),
                                   values=np.array([1.0, 3.0]))
        assert profile.f(0.2) == pytest.approx(2.0, abs=1e-14)

    def test_out_of_domain(self):
        profile = TabulatedProfile(g=0.5, times=np.array([0.1, 0.3]),
                                   values=np.array([1.0, 3.0]))
        with pytest.raises(ValueError):
            profile.f(0.05)
        with pytest.raises(ValueError):
            profile.f(0.4)

    def test_phase_head_and_trapezoid(self):
        profile = TabulatedProfile(g=0.5, times=np.array([0.1, 0.3]),
                                   values=np.array([1.0, 3.0]))
        assert profile.head_phase_approximated
        assert profile.phase(0.1) == pytest.approx(0.1, abs=1e-14)  # f(t0) * t0
        # exact integral of the linear segment: 0.1 + int_0.1^0.3 (10 t) dt
        assert profile.phase(0.3) == pytest.approx(0.1 + 0.4, abs=1e-14)
        assert profile.phase(0.2) == pytest.approx(0.1 + 0.15, abs=1e-14)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("# coupling samples\n0.1 1.0\n0.2 2.0\n0.5 0.5\n")
        profile = load_tabulated(path, g=0.4)
        assert profile.g == 0.4
        assert profile.f(0.2) == pytest.approx(2.0)
        assert profile.f(0.35) == pytest.approx(1.25)

    def test_profile_from_spec(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("0.1 1.0\n0.2 2.0\n")
        assert type(profile_from_spec("markovian", 0.4)) is MarkovianProfile
        assert type(profile_from_spec("nonmarkovian", 0.4)) is NonMarkovianProfile
        tabulated = profile_from_spec(f"tabulated:{path}", 0.4)
        assert tabulated.g == 0.4 and list(tabulated.times) == [0.1, 0.2]
        with pytest.raises(ConfigError, match=r"unknown profile 'exotic' \(markovian\|"):
            profile_from_spec("exotic", 0.4)

    def test_sampled_markovian_approximates_closed_form(self):
        # sqrt-spaced grid keeps the trapezoid accurate through the 1/sqrt(t)
        # head; the remaining offset is the documented f(t0)*t0 approximation
        g = 0.8
        reference = MarkovianProfile(g=g)
        grid = np.linspace(1e-3, 2.0, 4001) ** 2
        profile = TabulatedProfile(g=g, times=grid,
                                   values=np.array([reference.f(t) for t in grid]))
        for t in (0.5, 1.0, 3.0):
            assert profile.phase(t) == pytest.approx(reference.phase(t), abs=1e-3)
            assert rate_gamma(profile, t) == pytest.approx(1 / (2 * g), abs=5e-3)


class TestArrays:
    """One numpy expression per profile method serves a float and a whole grid."""

    @pytest.mark.parametrize("profile", [
        MarkovianProfile(g=0.8), NonMarkovianProfile(g=0.3),
        TabulatedProfile(g=0.5, times=np.linspace(0.01, 6.0, 50),
                         values=1.0 + 0.5 * np.sin(np.linspace(0.01, 6.0, 50)))],
        ids=["markovian", "nonmarkovian", "tabulated"])
    def test_grid_is_the_float_route_bit_for_bit(self, profile):
        ts = np.linspace(max(profile.t_min, 0.02), 6.0, 257)
        for method in ("f", "phase", "thermal_weight", "rate"):
            grid = getattr(profile, method)(ts)
            singles = [getattr(profile, method)(float(t)) for t in ts]
            assert [float(v).hex() for v in grid] == [float(v).hex() for v in singles], method

    def test_bath_parameter_broadcasts(self):
        gs = np.array([0.2, 0.5, 0.9])
        for cls in (MarkovianProfile, NonMarkovianProfile):
            assert cls(g=gs).thermal_weight(1.3).tolist() == [
                cls(g=float(g)).thermal_weight(1.3) for g in gs]
        with pytest.raises(ValueError, match=r"bath parameter g must lie in \(0, 1\]"):
            MarkovianProfile(g=np.array([0.5, 0.0]))

    def test_grid_domain_error_names_the_first_bad_time(self):
        with pytest.raises(ValueError, match=r"^coupling strength requires t > 0, got t = -1.0$"):
            MarkovianProfile(g=0.5).f(np.array([0.5, -1.0, -2.0]))
        with pytest.raises(ValueError, match=r"^accumulated phase requires t >= 0, got t = -2.0$"):
            NonMarkovianProfile(g=0.5).phase(np.array([0.5, -2.0]))
        profile = TabulatedProfile(g=0.5, times=np.array([0.1, 0.3]), values=np.array([1.0, 3.0]))
        with pytest.raises(ValueError, match=r"^t = 0.4 outside tabulated domain \[0.1, 0.3\]$"):
            profile.phase(np.array([0.2, 0.4]))

    def test_rate_is_nan_where_the_map_is_singular(self):
        # constant f = 2: F(t) = 2t crosses pi/2 at t = pi/4
        profile = TabulatedProfile(g=0.5, times=np.array([0.01, 1.0]),
                                   values=np.array([2.0, 2.0]))
        gamma = profile.rate(np.array([0.5, math.pi / 4, 0.9]))
        assert math.isfinite(gamma[0]) and math.isnan(gamma[1]) and math.isfinite(gamma[2])
        assert MarkovianProfile(g=0.5).rate(np.array([20.0, 40.0])).tolist() == [1.0, 1.0]

    def test_is_markovian_raises_at_a_singular_first_stop(self):
        # F = c t reaches pi/2 at the 1000th point of the 2000-point grid on (0.01, 1],
        # before tan F could turn negative
        t_singular = 0.01 + 0.99 * 1000 / 2000
        c = math.pi / 2 / t_singular
        profile = TabulatedProfile(g=0.5, times=np.array([0.01, 1.0]), values=np.array([c, c]))
        with pytest.raises(SingularGeneratorError, match=f"not invertible at t = {t_singular}:"):
            is_markovian(profile, 1.0)
