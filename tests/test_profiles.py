import math

import numpy as np
import pytest
from scipy.integrate import quad

from qotto.errors import ConfigError, SingularGeneratorError
from qotto.profiles import (MarkovianProfile, NonMarkovianProfile, RatePair,
                            TabulatedProfile, load_tabulated, profile_from_spec,
                            rate_gamma, rate_pair, time_grid)
from qotto.tolerances import TOL

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
        with pytest.raises(ValueError):  # where 10 t + 1 = 0, before the ripple divides by it
            cls(g=0.5).f(-0.1)

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


_TABLE_TIMES = np.linspace(0.05, 5.0, 40)
_U_PROFILES = [MarkovianProfile(g=0.8), MarkovianProfile(g=0.05), NonMarkovianProfile(g=0.3),
               NonMarkovianProfile(g=0.99),
               TabulatedProfile(g=0.6, times=_TABLE_TIMES, values=0.5 + 0.3 * np.sin(_TABLE_TIMES))]


class TestPhaseRateInU:
    """dF/du in u = sqrt(t / g), the oracle's coupling: 2 g u f(g u^2), finite at u = 0."""

    @pytest.mark.parametrize("profile", _U_PROFILES)
    def test_is_the_coupling_times_dt_du(self, profile):
        g = profile.g
        # inside the table (g u^2 rounds away from t by an ulp), or from 1e-12 to 50; f
        # of the ripple passes through 0, so the relative bound has an equal absolute floor
        for t in np.geomspace(max(1.001 * profile.t_min, 1e-12),
                              min(0.999 * profile.t_max, 50.0), 300):
            u = math.sqrt(t / g)
            expected = 2.0 * g * u * profile.f(g * u * u)
            assert profile.dphase_du(u) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("profile,limit", zip(_U_PROFILES, [1.0, 1.0, 1.0, 1.0, 0.0]))
    def test_finite_limit_at_zero(self, profile, limit):
        assert profile.dphase_du(0.0) == limit
        for u in (1e-300, 1e-100, 1e-20):
            assert profile.dphase_du(u) == pytest.approx(limit, abs=1e-15)

    def test_tabulated_head_is_the_first_sample(self):
        # f = f(t0) below the table, the convention of phase: F = f(t0) t = f(t0) g u^2
        profile = _U_PROFILES[-1]
        u = math.sqrt(0.5 * profile.t_min / profile.g)
        assert profile.dphase_du(u) == pytest.approx(2.0 * profile.g * u * profile.values[0],
                                                     rel=1e-15)


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
            assert rate_gamma(profile, t) == 1 / (2 * g)

    @pytest.mark.parametrize("g", [1e-300, 0.1, 0.5, 0.8, 0.99, 1.0])
    def test_markovian_rate_is_the_semigroup_constant_bit_for_bit(self, g):
        # also where cos F = e^{-t/2g} underflows and f tan F is no longer defined
        profile = MarkovianProfile(g=g)
        for t in (5e-324, 1e-300, 30 * g, 1e308, math.inf):
            assert profile.rate(t) == 1 / (2 * g)
        ts = np.array([5e-324, 1e-300, 30 * g, 1e308, math.inf])
        assert profile.rate(ts).tolist() == [1 / (2 * g)] * 5

    def test_markovian_rate_nan_and_columns(self):
        assert math.isnan(MarkovianProfile(g=0.5).rate(math.nan))
        gamma = MarkovianProfile(g=0.5).rate(np.array([1.0, math.nan, 1e308]))
        assert gamma[0] == gamma[2] == 1.0 and math.isnan(gamma[1])
        baths = MarkovianProfile(g=np.array([0.5, 0.25, 0.8, 1.0]))
        gamma = baths.rate(np.array([1.0, math.nan, 60.0, 1e-300]))
        assert gamma[[0, 2, 3]].tolist() == [1.0, 0.625, 0.5] and math.isnan(gamma[1])
        assert baths.rate(40.0).tolist() == [1.0, 2.0, 0.625, 0.5]

    @pytest.mark.parametrize("t", [0.0, -1.0, np.array([1.0, -1.0])])
    def test_markovian_rate_rejects_like_f(self, t):
        bad = t if isinstance(t, float) else -1.0
        with pytest.raises(ValueError,
                           match=rf"^coupling strength requires t > 0, got t = {bad}$"):
            MarkovianProfile(g=0.5).rate(t)

    def test_rate_pair_values(self):
        assert rate_pair(MarkovianProfile(g=0.5), 0.4) == RatePair(gamma_minus=1.5,
                                                                   gamma_plus=0.5)

    def test_markovian_rate_pair_is_constant(self):
        # the GKLS coefficients (1 +/- g) / (2g) of the semigroup, at any t
        profile = MarkovianProfile(g=0.8)
        pairs = {rate_pair(profile, t) for t in (5e-324, 1e-3, 0.7, 24.0, 60.0, 1e308)}
        assert pairs == {RatePair(gamma_minus=(1 + 0.8) * 0.625, gamma_plus=(1 - 0.8) * 0.625)}

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
    """CP-divisible means gamma(t) >= TOL.rate_floor, the witness command's
    ``markovian_flag``, here on 2000 uniform times up to a horizon."""

    def test_semigroup_is_markovian(self):
        for g in (0.3, 0.8):
            assert np.all(MarkovianProfile(g=g).rate(time_grid(20 * g, 2000)) >= TOL.rate_floor)

    def test_corrected_profile_is_not(self):
        assert np.any(NonMarkovianProfile(g=0.8).rate(time_grid(2.0, 2000)) < TOL.rate_floor)

    def test_tabulated_constant_below_half_pi(self):
        profile = TabulatedProfile(g=0.5, times=np.array([0.01, 1.0]),
                                   values=np.array([1.0, 1.0]))
        assert np.all(profile.rate(0.01 + time_grid(0.99, 2000)) >= TOL.rate_floor)


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
        for method in ("f", "phase", "thermal_weight", "rate", "dphase_du"):
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
