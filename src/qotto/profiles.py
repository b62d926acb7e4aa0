"""Time-dependent coupling strength f(t) and derived rate functions.

A profile supplies the coupling f(t), its accumulated phase
F(t) = integral of f from 0 to t, the thermalization weight sin^2 F(t),
and the decay rate gamma(t) = f(t) tan F(t). Three variants are provided:

* ``MarkovianProfile`` -- the constant-rate choice; gamma(t) = 1/(2g) for
  all t > 0 and the reduced dynamics is a CP-divisible semigroup.
* ``NonMarkovianProfile`` -- the constant-rate f and F plus an oscillatory
  correction (and its closed-form integral) whose rate goes negative on
  short time windows.
* ``TabulatedProfile`` -- user-supplied (t, f) samples with linear
  interpolation.

Both analytic profiles diverge like 1/(2 sqrt(g t)) as t -> 0+, which is
integrable; F is therefore always evaluated from its closed form, never by
quadrature across the singularity. ``profile_from_spec`` is the one place
that turns a profile name (``markovian``, ``nonmarkovian``, ``tabulated:PATH``)
into a profile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularGeneratorError
from .tolerances import TOL


@dataclass(frozen=True)
class RatePair:
    """Emission/absorption rates (1 +/- g) * gamma at one instant."""

    gamma_minus: float
    gamma_plus: float


@dataclass(frozen=True)
class CouplingProfile:
    """Base class: bath parameter g = tanh(beta * omega), in (0, 1]."""

    g: float

    #: earliest time at which f is defined (tabulated profiles start at t0 > 0)
    t_min: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.g <= 1.0:
            raise ValueError(f"bath parameter g must lie in (0, 1], got {self.g}")

    def f(self, t: float) -> float:
        raise NotImplementedError

    def phase(self, t: float) -> float:
        raise NotImplementedError

    def thermal_weight(self, t: float) -> float:
        """sin^2 F(t): fraction of the bath population transferred by time t."""
        return math.sin(self.phase(t)) ** 2

    def _rate_at_singularity(self, t: float) -> float | None:
        """Closed-form gamma where the map is not invertible, if one exists."""
        return None


def _constant_rate_f(g: float, t: float) -> float:
    """Coupling f(t) of the constant-rate profile with bath parameter g."""
    if t <= 0.0:
        raise ValueError(f"coupling strength requires t > 0, got t = {t}")
    # -expm1 keeps 1 - e^{-t/g} accurate for t near 0
    return math.exp(-t / (2.0 * g)) / (2.0 * g * math.sqrt(-math.expm1(-t / g)))


def _constant_rate_phase(g: float, t: float) -> float:
    """Accumulated phase F(t) of the constant-rate profile with bath parameter g."""
    if t < 0.0:
        raise ValueError(f"accumulated phase requires t >= 0, got t = {t}")
    return math.pi / 2.0 - math.asin(math.exp(-t / (2.0 * g)))


@dataclass(frozen=True)
class MarkovianProfile(CouplingProfile):
    """Coupling with constant rate gamma = 1/(2g); CP-divisible for all t."""

    def f(self, t: float) -> float:
        return _constant_rate_f(self.g, t)

    def phase(self, t: float) -> float:
        return _constant_rate_phase(self.g, t)

    def _rate_at_singularity(self, t: float) -> float | None:
        return 1.0 / (2.0 * self.g)


# u**2 overflows a float above u ~ 1.3e154; past 1e154 the term sin(20t)/u^2
# is below 1e-307 and cannot change f
_SQUARE_MAX = 1e154


@dataclass(frozen=True)
class NonMarkovianProfile(CouplingProfile):
    """Constant-rate coupling plus an oscillatory correction.

    The correction -10 sin(20t)/(10t+1)^2 + 20 cos(20t)/(10t+1) is the exact
    derivative of sin(20t)/(10t+1), so the accumulated phase picks up that
    term in closed form. The rate f(t) tan F(t) dips below zero on short
    windows, breaking CP-divisibility, while F(t) -> pi/2 still holds and the
    asymptotic thermal state is unchanged. Once 20t overflows (t ~ 9e306)
    sin(20t) cannot be evaluated; the correction terms are below 3e-306
    there and count as 0.
    """

    def f(self, t: float) -> float:
        base, u = _constant_rate_f(self.g, t), 10.0 * t + 1.0
        if u < _SQUARE_MAX:
            return base - 10.0 * math.sin(20.0 * t) / u**2 + 20.0 * math.cos(20.0 * t) / u
        return base + (20.0 * math.cos(20.0 * t) / u if math.isfinite(20.0 * t) else 0.0)

    def phase(self, t: float) -> float:
        return _constant_rate_phase(self.g, t) + (
            math.sin(20.0 * t) / (10.0 * t + 1.0) if math.isfinite(20.0 * t) else 0.0)


@dataclass(frozen=True)
class TabulatedProfile(CouplingProfile):
    """Piecewise-linear coupling from sampled (t, f) pairs, t strictly increasing, t0 > 0.

    The head segment [0, t0] is outside the table; its phase contribution is
    approximated as f(t0) * t0 and the profile carries ``head_phase_approximated``
    so reports can flag it. Every sample must be finite; the error names
    ``source``, where the samples came from (the file, for ``load_tabulated``).
    """

    times: np.ndarray
    values: np.ndarray
    source: str = "<memory>"
    head_phase_approximated: bool = field(default=True, init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError(f"tabulated profile {self.source} holds a non-finite sample")
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("tabulated profile needs matching 1-d arrays with >= 2 samples")
        if times[0] <= 0.0:
            raise ValueError(f"tabulated grid must start at t0 > 0, got {times[0]}")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("tabulated time grid must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "t_min", float(times[0]))
        # phase at the grid nodes: f(t0)*t0 head term plus exact trapezoids
        nodes = np.empty_like(times)
        nodes[0] = values[0] * times[0]
        nodes[1:] = nodes[0] + np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))
        object.__setattr__(self, "_phase_nodes", nodes)

    def f(self, t: float) -> float:
        if t < self.times[0] or t > self.times[-1]:
            raise ValueError(
                f"t = {t} outside tabulated domain [{self.times[0]}, {self.times[-1]}]")
        return float(np.interp(t, self.times, self.values))

    def phase(self, t: float) -> float:
        if t < 0.0:
            raise ValueError(f"accumulated phase requires t >= 0, got t = {t}")
        if t <= self.times[0]:
            return float(self.values[0] * t)
        if t > self.times[-1]:
            raise ValueError(
                f"t = {t} outside tabulated domain [{self.times[0]}, {self.times[-1]}]")
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        if k >= self.times.size - 1:
            return float(self._phase_nodes[-1])
        dt = t - self.times[k]
        slope = (self.values[k + 1] - self.values[k]) / (self.times[k + 1] - self.times[k])
        return float(self._phase_nodes[k] + self.values[k] * dt + 0.5 * slope * dt**2)


def load_tabulated(path, g: float) -> TabulatedProfile:
    """Read a two-column whitespace-separated (t, f) file; '#' starts a comment."""
    with warnings.catch_warnings():  # an empty table is reported below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, comments="#", ndmin=2)
    if data.size == 0:
        raise ValueError(f"tabulated profile {path} holds no samples")
    if data.shape[1] != 2:
        raise ValueError(f"expected two columns (t, f) in {path}, got {data.shape[1]}")
    return TabulatedProfile(g=g, times=data[:, 0], values=data[:, 1], source=str(path))


def profile_from_spec(spec: str, g: float) -> CouplingProfile:
    """Profile named by a config spec: markovian, nonmarkovian or tabulated:PATH."""
    if spec == "markovian":
        return MarkovianProfile(g=g)
    if spec == "nonmarkovian":
        return NonMarkovianProfile(g=g)
    if spec.startswith("tabulated:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise ConfigError([f"profile '{spec}' names no table file (tabulated:PATH)"])
        return load_tabulated(path, g=g)
    raise ConfigError([f"unknown profile '{spec}' (markovian|nonmarkovian|tabulated:PATH)"])


def rate_gamma(profile: CouplingProfile, t: float) -> float:
    """Decay rate gamma(t) = f(t) tan F(t).

    Near |cos F| = 0 the map is not invertible and tan F cannot be evaluated;
    profiles with a finite closed-form rate (the Markovian one) return it,
    otherwise ``SingularGeneratorError`` is raised.
    """
    ph = profile.phase(t)
    c = math.cos(ph)
    if abs(c) < TOL.cos_phase_singular:
        closed = profile._rate_at_singularity(t)
        if closed is not None:
            return closed
        raise SingularGeneratorError(
            f"dynamical map not invertible at t = {t}: |cos F| = {abs(c):.2e}")
    return profile.f(t) * math.tan(ph)


def rate_pair(profile: CouplingProfile, t: float) -> RatePair:
    """Rates gamma_- = (1+g) gamma(t) and gamma_+ = (1-g) gamma(t)."""
    gamma = rate_gamma(profile, t)
    return RatePair(gamma_minus=(1.0 + profile.g) * gamma,
                    gamma_plus=(1.0 - profile.g) * gamma)


_MARKOVIAN_GRID = 2000


def is_markovian(profile: CouplingProfile, horizon: float) -> tuple[bool, float | None]:
    """CP-divisibility check: gamma(t) >= rate floor on a uniform sampling grid.

    Returns (flag, first_violation_time); the time is None when the flag is
    True. The 2000-point grid resolves the 20 rad/time oscillation of the
    non-Markovian correction on horizons of a few time units.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    lo = profile.t_min
    ts = lo + (horizon - lo) * np.arange(1, _MARKOVIAN_GRID + 1) / _MARKOVIAN_GRID
    for t in ts:
        if rate_gamma(profile, float(t)) < TOL.rate_floor:
            return False, float(t)
    return True, None
