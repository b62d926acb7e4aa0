"""Time-dependent coupling strength f(t) and derived rate functions.

A profile supplies the coupling f(t), its accumulated phase
F(t) = integral of f from 0 to t, the thermalization weight sin^2 F(t),
and the decay rate gamma(t) = f(t) tan F(t). Each takes t as a float or an
ndarray and broadcasts it against the bath parameter g, itself a float or an
ndarray (a column of baths, as a sweep evaluates them): one numpy expression
serves one instant and a whole grid alike. Three variants are provided:

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

With a Python float t and g the profiles never warn. On an array that
reaches past about 1e153, intermediate terms overflow to inf, which the
closed forms absorb; numpy warns about that unless the caller evaluates under
``np.errstate(over="ignore")``, as every qotto grid does.
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


def _first(bad, t):
    """The first t where ``bad`` holds, or None; ``bad`` is a bool for a float t and a
    bool array for an ndarray t."""
    if isinstance(bad, np.ndarray):
        return float(np.broadcast_to(t, bad.shape)[bad][0]) if bad.any() else None
    return t if bad else None


def time_grid(t_max: float, n: int) -> np.ndarray:
    """The n sample times t_max k / n, k = 1..n; t_max / n * k where t_max * k overflows."""
    k = np.arange(1, n + 1)
    with np.errstate(over="ignore"):
        ts = t_max * k / n
    return np.where(np.isfinite(ts), ts, t_max / n * k)


@dataclass(frozen=True)
class CouplingProfile:
    """Base class: bath parameter g = tanh(beta * omega), in (0, 1], a float or an ndarray."""

    g: float | np.ndarray

    #: earliest time at which f is defined (tabulated profiles start at t0 > 0)
    t_min: float = field(default=0.0, init=False, repr=False)
    #: latest time at which f and F are defined (the end of a tabulated grid)
    t_max: float = field(default=math.inf, init=False, repr=False)

    def __post_init__(self):
        if not np.all((0.0 < self.g) & (self.g <= 1.0)):
            raise ValueError(f"bath parameter g must lie in (0, 1], got {self.g}")

    def f(self, t):
        raise NotImplementedError

    def phase(self, t):
        raise NotImplementedError

    def thermal_weight(self, t):
        """sin^2 F(t): fraction of the bath population transferred by time t."""
        # squared as a product: a numpy scalar's ** 2 calls libm pow, an array's does not
        return np.square(np.sin(self.phase(t)))

    def rate(self, t):
        """Decay rate gamma(t) = f(t) tan F(t), NaN where it is undefined.

        Where |cos F| < TOL.cos_phase_singular the map is not invertible and
        tan F cannot be evaluated; a profile with a closed-form rate there (the
        Markovian one) returns it, the others NaN.
        """
        ph = self.phase(t)
        singular = np.abs(np.cos(ph)) < TOL.cos_phase_singular
        return np.where(singular, self._singular_rate(), self.f(t) * np.tan(ph))[()]

    def _singular_rate(self):
        """gamma where the map is not invertible: NaN unless a closed form exists."""
        return math.nan


def _constant_rate_f(g, t):
    """Coupling f(t) of the constant-rate profile with bath parameter g."""
    if (bad := _first(t <= 0.0, t)) is not None:
        raise ValueError(f"coupling strength requires t > 0, got t = {bad}")
    # -expm1 keeps 1 - e^{-t/g} accurate for t near 0
    return np.exp(-t / (2.0 * g)) / (2.0 * g * np.sqrt(-np.expm1(-t / g)))


def _constant_rate_phase(g, t):
    """Accumulated phase F(t) of the constant-rate profile with bath parameter g."""
    if (bad := _first(t < 0.0, t)) is not None:
        raise ValueError(f"accumulated phase requires t >= 0, got t = {bad}")
    return np.pi / 2.0 - np.arcsin(np.exp(-t / (2.0 * g)))


@dataclass(frozen=True)
class MarkovianProfile(CouplingProfile):
    """Coupling with constant rate gamma = 1/(2g); CP-divisible for all t."""

    def f(self, t):
        return _constant_rate_f(self.g, t)

    def phase(self, t):
        return _constant_rate_phase(self.g, t)

    def _singular_rate(self):
        return 1.0 / (2.0 * self.g)


# 20t overflows past t ~ 9e306, where the oscillating terms are below 3e-306; their
# argument is taken at t mod 2^1000, which is t itself below 1e301, so it stays finite
_OSCILLATION_WRAP = 2.0**1000


@dataclass(frozen=True)
class NonMarkovianProfile(CouplingProfile):
    """Constant-rate coupling plus an oscillatory correction.

    The correction -10 sin(20t)/(10t+1)^2 + 20 cos(20t)/(10t+1) is the exact
    derivative of sin(20t)/(10t+1), so the accumulated phase picks up that
    term in closed form. The rate f(t) tan F(t) dips below zero on short
    windows, breaking CP-divisibility, while F(t) -> pi/2 still holds and the
    asymptotic thermal state is unchanged.
    """

    def f(self, t):
        base, u, x = _constant_rate_f(self.g, t), 10.0 * t + 1.0, 20.0 * (t % _OSCILLATION_WRAP)
        return base - 10.0 * np.sin(x) / (u * u) + 20.0 * np.cos(x) / u

    def phase(self, t):
        return (_constant_rate_phase(self.g, t)
                + np.sin(20.0 * (t % _OSCILLATION_WRAP)) / (10.0 * t + 1.0))


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
        object.__setattr__(self, "t_max", float(times[-1]))
        # phase at the grid nodes: f(t0)*t0 head term plus exact trapezoids
        nodes = np.empty_like(times)
        nodes[0] = values[0] * times[0]
        nodes[1:] = nodes[0] + np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))
        object.__setattr__(self, "_phase_nodes", nodes)

    def _reject_outside(self, outside, t) -> None:
        if (bad := _first(outside, t)) is not None:
            raise ValueError(f"t = {bad} outside tabulated domain [{self.t_min}, {self.t_max}]")

    def f(self, t):
        self._reject_outside((t < self.t_min) | (t > self.t_max), t)
        return np.interp(t, self.times, self.values)

    def phase(self, t):
        if (bad := _first(t < 0.0, t)) is not None:
            raise ValueError(f"accumulated phase requires t >= 0, got t = {bad}")
        self._reject_outside(t > self.t_max, t)
        times, values, nodes = self.times, self.values, self._phase_nodes
        # the segment [times[k], times[k+1]] holding t; the head and the last node
        # are replaced below
        k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
        dt = t - times[k]
        slope = (values[k + 1] - values[k]) / (times[k + 1] - times[k])
        inside = nodes[k] + values[k] * dt + 0.5 * slope * np.square(dt)
        return np.where(t <= times[0], values[0] * t,
                        np.where(t >= times[-1], nodes[-1], inside))[()]


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
    """Decay rate gamma(t) = f(t) tan F(t) at one instant: ``profile.rate`` on a float.

    Where the map is not invertible (|cos F| = 0) and the profile has no
    closed-form rate there, ``SingularGeneratorError`` is raised.
    """
    gamma = profile.rate(t)
    if math.isnan(gamma):
        raise SingularGeneratorError(f"dynamical map not invertible at t = {t}: "
                                     f"|cos F| = {abs(math.cos(profile.phase(t))):.2e}")
    return float(gamma)


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
    ts = lo + time_grid(horizon - lo, _MARKOVIAN_GRID)
    with np.errstate(over="ignore"):
        gamma = profile.rate(ts)
    stop = (gamma < TOL.rate_floor) | np.isnan(gamma)
    if not stop.any():
        return True, None
    t = float(ts[stop.argmax()])
    rate_gamma(profile, t)  # SingularGeneratorError if the first stop is a singular point
    return False, t
