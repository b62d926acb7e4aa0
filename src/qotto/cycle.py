"""Four-stroke Otto cycle: weak-coupling baseline and strongly coupled variants.

The working medium is a qubit with Hamiltonian omega(t) sigma_z quenched
between omega_c and omega_h; each thermal contact couples it to a fresh
single-qubit bath through the exchange interaction. All strong-coupling
stroke energies reduce to the weak-coupling ones scaled by thermalization
weights sin^2 F of the contact strokes:

    Q_h = Q_h0 sin^2 F_h,   Q_c = Q_c0 sin^2 F_h sin^2 F_c,
    W   = W0   sin^2 F_h,   eta = eta0,   K = K0 sin^2 F_c.

The weak-coupling cycle is the same closed form at sin^2 F_h = sin^2 F_c = 1,
so one routine evaluates both.

The closed-form and oracle routes share one cycle skeleton (``_cycle``): the
quenches, the entropy productions, the stroke energies and the metrics. They
differ only in their two contacts, which the oracle integrates numerically.
The skeleton and the closed forms work elementwise on a float or an ndarray
per parameter: ``strong_cycle_sweep`` evaluates a whole grid over one swept
parameter at once, and ``strong_cycle``, ``weak_cycle`` and
``strong_cycle_via_oracle`` are its one-point case. ``_report`` alone builds the
stroke ledger and the report, from one point's values.

Partial thermalization in the final stroke breaks exact cyclicity; the
report carries the residual instead of silently assuming closure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import linalg, thermo
from .dynamics import (ORACLE_T_START, QubitState, bath_thermal_matrix,
                       coupling_hamiltonian, oracle_propagate)
# perfbench/tracing.py wraps this here, tests/test_perfbench_bindings.py pins it; ROADMAP item 3 removes it
from .dynamics import joint_state_closed_form
from .errors import ConfigError, IntegrationFailureError, QottoError, UndefinedPowerError
from .profiles import CouplingProfile, profile_from_spec, time_grid
from .thermo import EnergyLedger
from .tolerances import TOL

STROKE_ORDER = ("quench_up", "connect_hot", "hot_contact", "disconnect_hot",
                "quench_down", "connect_cold", "cold_contact", "disconnect_cold")
NUMERIC_FIELDS = ("omega_c", "omega_h", "beta_c", "beta_h",
                  "tau_u1", "tau_h", "tau_u2", "tau_c")
_HOT_SPEC = object()  # build_config's default kind_c: the same spec as kind_h


def _number_problem(name: str, value) -> str | None:
    """Why ``value`` is not a finite number in float range, or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{name} must be a number, got {value!r}"
    try:
        return None if math.isfinite(value) else f"{name} must be finite, got {value}"
    except OverflowError:
        return f"{name} must be a number, got an int too large for a float"


@dataclass(frozen=True)
class CycleConfig:
    """All cycle parameters; bath parameters g are fixed by g = tanh(beta * omega)."""

    omega_c: float
    omega_h: float
    beta_c: float
    beta_h: float
    tau_h: float
    tau_c: float
    tau_u1: float = 0.0
    tau_u2: float = 0.0
    profile_h: CouplingProfile | None = None
    profile_c: CouplingProfile | None = None

    @property
    def g_c(self) -> float:
        return float(np.tanh(self.beta_c * self.omega_c))

    @property
    def g_h(self) -> float:
        return float(np.tanh(self.beta_h * self.omega_h))

    @property
    def tau(self) -> float:
        return self.tau_u1 + self.tau_h + self.tau_u2 + self.tau_c

    def problems(self, need_profiles: bool = False) -> list[str]:
        """Every constraint violation, one message per offending field: the only validator
        of cycle inputs. A field that is not a finite number joins no range rule."""
        values, out = [], []
        for name in NUMERIC_FIELDS:
            value = getattr(self, name)
            if not (type(value) is float and math.isfinite(value)):  # else the common case
                fault = _number_problem(name, value)
                if fault:
                    out.append(fault)
                    value = math.nan  # fails every rule below
            values.append(value)
        omega_c, omega_h, beta_c, beta_h, *durations = values
        if omega_c <= 0.0:
            out.append(f"omega_c must be > 0, got {omega_c}")
        if omega_h <= 0.0:
            out.append(f"omega_h must be > 0, got {omega_h}")
        elif omega_h <= omega_c:
            out.append(f"omega_h must exceed omega_c, got {omega_h} <= {omega_c}")
        if beta_h < 0.0:
            out.append(f"beta_h must be >= 0, got {beta_h}")
        if beta_c <= beta_h:
            out.append(f"beta_c must exceed beta_h, got {beta_c} <= {beta_h}")
        for name, tau in zip(NUMERIC_FIELDS[4:], durations):
            if tau < 0.0:
                out.append(f"{name} must be >= 0, got {tau}")
        if math.isinf(sum(durations)):
            out.append("the total duration tau_u1 + tau_h + tau_u2 + tau_c must be "
                       f"finite, got {sum(durations)}")
        if need_profiles:
            for name, profile, g in (("profile_h", self.profile_h, np.tanh(beta_h * omega_h)),
                                     ("profile_c", self.profile_c, np.tanh(beta_c * omega_c))):
                if profile is None:
                    out.append(f"{name} is required for the strongly coupled cycle")
                elif abs(profile.g - g) > TOL.profile_g_match:
                    out.append(f"{name}.g = {profile.g} does not match tanh(beta*omega) = {g}")
        return out

    def validate(self, need_profiles: bool = False) -> None:
        problems = self.problems(need_profiles)
        if problems:
            raise ConfigError(problems)


def _fields_valid(fields: dict) -> np.ndarray:
    """``problems() == []`` elementwise, over float arrays of the ``NUMERIC_FIELDS``;
    the tests hold the two to each other."""
    omega_c, omega_h, beta_c, beta_h, *durations = (fields[name] for name in NUMERIC_FIELDS)
    ok = (omega_c > 0.0) & (omega_h > omega_c) & (beta_h >= 0.0) & (beta_c > beta_h)
    for name in NUMERIC_FIELDS:
        ok &= np.isfinite(fields[name])
    for tau in durations:
        ok &= tau >= 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite total is a problem
        return ok & np.isfinite(durations[0] + durations[1] + durations[2] + durations[3])


def _require_fields(config: CycleConfig, *more: str) -> None:
    """Raise the field faults of a config about to get profiles, and ``more``, together."""
    problems = config.problems()
    if not problems and config.g_h <= 0.0:
        problems.append("beta_h must be > 0 so that the hot profile has g > 0")
    if problems or more:
        raise ConfigError(problems + list(more))


def build_config(omega_c: float, omega_h: float, beta_c: float, beta_h: float,
                 tau_h: float, tau_c: float, tau_u1: float = 0.0, tau_u2: float = 0.0,
                 kind_h: str = "markovian", kind_c: str = _HOT_SPEC) -> CycleConfig:
    """Config whose profiles are built from the specs ``kind_h`` and ``kind_c``.

    Each spec is markovian, nonmarkovian or tabulated:PATH; ``kind_c``
    defaults to ``kind_h``, and each profile's g is tanh(beta * omega) of its
    bath. Field faults and non-string specs raise one ConfigError first.
    """
    kind_c = kind_h if kind_c is _HOT_SPEC else kind_c
    config = CycleConfig(omega_c=omega_c, omega_h=omega_h, beta_c=beta_c, beta_h=beta_h,
                         tau_h=tau_h, tau_c=tau_c, tau_u1=tau_u1, tau_u2=tau_u2)
    _require_fields(config, *(f"{name} must be a string, got {kind!r}"
                              for name, kind in (("profile_h", kind_h), ("profile_c", kind_c))
                              if not isinstance(kind, str)))
    return replace(config, profile_h=profile_from_spec(kind_h, config.g_h),
                   profile_c=profile_from_spec(kind_c, config.g_c))


@dataclass(frozen=True)
class CycleReport:
    """Per-stroke energy ledger plus derived performance metrics and law audits."""

    config: CycleConfig
    strokes: dict
    work_total: float
    heat_hot: float
    heat_cold: float
    tau: float
    thermal_weight_hot: float
    thermal_weight_cold: float
    eta: float
    power: float
    kappa: float
    cop: float
    regime: str
    eta0: float
    power0: float
    kappa0: float
    cop0: float
    carnot_eta: float
    carnot_cop: float
    cyclicity_residual: float
    energy_residual: float

    def boundary_works(self) -> dict[str, float]:
        return {name: self.strokes[name].work for name in STROKE_ORDER if "connect" in name}

    def law_audits(self) -> dict[str, tuple[float, bool]]:
        """name -> (value, passed). All tolerances come from the shared record.

        The energy audits (first law, boundary work) judge their residual in
        units of omega_h, which bounds every stroke energy, so a verdict does
        not depend on the arbitrary unit of energy; the entropy and Carnot
        audits are dimensionless already.
        """
        out = {}
        scale = self.config.omega_h
        stroke_res = max(abs(lg.first_law_residual) for lg in self.strokes.values()) / scale
        out["first_law_strokes"] = (stroke_res, stroke_res <= TOL.first_law)
        cycle_res = abs(self.work_total + self.heat_hot + self.heat_cold) / scale
        if self.thermal_weight_cold >= 1.0 - TOL.full_thermalization:
            out["first_law_cycle"] = (cycle_res, cycle_res <= TOL.first_law)
        min_sigma = min(lg.entropy_production for lg in self.strokes.values())
        out["entropy_production"] = (min_sigma, min_sigma >= TOL.entropy_production_floor)
        boundary = max(abs(w) for w in self.boundary_works().values()) / scale
        out["boundary_work"] = (boundary, boundary <= TOL.boundary_work)
        if self.regime == "engine":
            out["carnot"] = (self.eta, self.eta <= self.carnot_eta + TOL.carnot_slack)
        elif self.regime == "refrigerator":
            out["carnot"] = (self.cop, self.cop <= self.carnot_cop + TOL.carnot_slack)
        return out


def classify_regime(heat_hot, heat_cold, work):
    """Sign-based classification, elementwise: engine absorbs hot heat and outputs work."""
    engine = (heat_hot > 0.0) & (heat_cold < 0.0) & (work < 0.0)
    refrigerator = (heat_hot < 0.0) & (heat_cold > 0.0) & (work > 0.0)
    return np.where(engine, "engine", np.where(refrigerator, "refrigerator", "other"))[()]


def _binary_entropy(p):
    """Entropy of diagonal qubit states with populations p and 1 - p."""
    s = 0.0
    for q in (p, 1.0 - p):
        q = np.where(q > TOL.entropy_eig_floor, q, 1.0)  # an exact zero adds 1 log 1 = 0
        s = s - q * np.log(q)
    return s


class _Params(NamedTuple):
    """What the closed forms read of a config: each entry a float, or an ndarray of grid rows."""

    omega_c: float | np.ndarray
    omega_h: float | np.ndarray
    beta_c: float | np.ndarray
    beta_h: float | np.ndarray
    g_c: float | np.ndarray
    g_h: float | np.ndarray
    tau: float | np.ndarray

    @classmethod
    def of(cls, config: CycleConfig) -> _Params:
        return cls(config.omega_c, config.omega_h, config.beta_c, config.beta_h,
                   config.g_c, config.g_h, config.tau)


class LedgerColumns(NamedTuple):
    """One stroke's ledger entries, as in ``EnergyLedger``: each a float or an ndarray."""

    work: float | np.ndarray
    heat: float | np.ndarray
    internal_energy_initial: float | np.ndarray
    internal_energy_final: float | np.ndarray
    entropy_production: float | np.ndarray


def _cycle(c: _Params, hot: tuple, cold: tuple, w_cd, work, sw_h,
           sw_c) -> tuple[dict, dict]:
    """The cycle around a hot and a cold contact of thermal weights sw_h and sw_c.

    Each contact is ``(p_end, heat, energy_end, (w_connect, w_disconnect))``:
    the system population and internal energy it ends with, the heat it takes
    in and the costs of switching its coupling on and off. ``w_cd`` is the
    down-quench work. The two quench works are of size omega_h and cancel;
    their sum loses the relative precision of the net work W0 sin^2 F_h, so a
    route that knows the net work passes it as ``work`` (None: the sum).

    Each contact starts from the product of a diagonal system state with a
    Gibbs bath qubit, so its entropy production is Delta S_S - beta Q
    (Esposito, Lindenberg and Van den Broeck, NJP 12, 013013 (2010)) on both
    routes; the oracle's 4x4 relative entropy would diverge numerically once
    the bath's upper level rounds to zero.

    Every value is a float or an ndarray, taken elementwise. Returns each
    ``CycleReport`` metric by name, and each stroke's ``LedgerColumns`` by name.
    """
    # np.where evaluates both branches: the unguarded one may divide by zero or overflow
    with np.errstate(all="ignore"):
        wc, wh = c.omega_c, c.omega_h
        g_c, g_h = c.g_c, c.g_h
        p_c1, q_h, e_c1, (w_con_h, w_dis_h) = hot
        p_a0, q_c, e_a0, (w_con_c, w_dis_c) = cold
        w_ab = (wc - wh) * g_c
        e_b = -wh * g_c
        e_d = wc * (2.0 * p_c1 - 1.0)
        work = w_ab + w_cd if work is None else work

        s_a1, s_c1 = _binary_entropy((1.0 - g_c) / 2.0), _binary_entropy(p_c1)
        sigma_h = np.where(sw_h > 0.0, s_c1 - s_a1 - c.beta_h * q_h, 0.0)
        sigma_c = np.where(sw_c > 0.0, _binary_entropy(p_a0) - s_c1 - c.beta_c * q_c, 0.0)
        strokes = {
            "quench_up": LedgerColumns(w_ab, 0.0, -wc * g_c, e_b, 0.0),
            "connect_hot": LedgerColumns(w_con_h, 0.0, e_b, e_b + w_con_h, 0.0),
            "hot_contact": LedgerColumns(0.0, q_h, e_b + w_con_h, e_b + w_con_h + q_h, sigma_h),
            "disconnect_hot": LedgerColumns(w_dis_h, 0.0, e_c1, e_c1 + w_dis_h, 0.0),
            "quench_down": LedgerColumns(w_cd, 0.0, e_c1 + w_dis_h, e_d + w_dis_h, 0.0),
            "connect_cold": LedgerColumns(w_con_c, 0.0, e_d, e_d + w_con_c, 0.0),
            "cold_contact": LedgerColumns(0.0, q_c, e_d + w_con_c, e_d + w_con_c + q_c, sigma_c),
            "disconnect_cold": LedgerColumns(w_dis_c, 0.0, e_a0, e_a0 + w_dis_c, 0.0),
        }

        tau = c.tau

        def per_time(x):
            return np.where(tau > 0.0, np.divide(x, tau), math.nan)

        w0 = (wc - wh) * (g_c - g_h)
        carnot_cop = np.where(c.beta_h > 0.0, c.beta_h / (c.beta_c - c.beta_h), 0.0)
        metrics = dict(
            work_total=work, heat_hot=q_h, heat_cold=q_c,
            tau=tau, thermal_weight_hot=sw_h, thermal_weight_cold=sw_c,
            eta=np.where(q_h != 0.0, np.divide(-work, q_h), math.nan),
            power=per_time(-work), kappa=per_time(q_c),
            cop=np.where(work != 0.0, np.divide(q_c, work), math.nan),
            regime=classify_regime(q_h, q_c, work),
            eta0=1.0 - wc / wh, power0=per_time(-w0), kappa0=per_time(wc * (g_h - g_c)),
            cop0=wc / (wh - wc), carnot_eta=1.0 - c.beta_h / c.beta_c,
            carnot_cop=carnot_cop, cyclicity_residual=abs(p_a0 - (1.0 - g_c) / 2.0),
            energy_residual=work + q_h + q_c)
    return metrics, strokes


def _report(config: CycleConfig, metrics: dict, strokes: dict) -> CycleReport:
    """The report of one point of ``_cycle``: the one place a stroke ledger is built."""
    return CycleReport(
        config=config, regime=str(metrics["regime"]),
        strokes={name: EnergyLedger(*map(float, strokes[name])) for name in STROKE_ORDER},
        **{name: float(value) for name, value in metrics.items() if name != "regime"})


def weak_cycle(config: CycleConfig) -> CycleReport:
    """Baseline cycle: weak coupling, both contacts fully thermalizing (sin^2 F = 1)."""
    config.validate(need_profiles=False)
    if config.tau <= 0.0:
        raise UndefinedPowerError("power is undefined for a cycle of zero total duration")
    return _report(config, *_closed_form_cycle(_Params.of(config), 1.0, 1.0))


def strong_cycle(config: CycleConfig) -> CycleReport:
    """Strongly coupled cycle evaluated from the closed-form stroke scalars: the
    one-point case of ``strong_cycle_sweep``."""
    config.validate(need_profiles=True)
    return _report(config, *_closed_form_cycle(
        _Params.of(config), config.profile_h.thermal_weight(config.tau_h),
        config.profile_c.thermal_weight(config.tau_c)))


def _closed_form_cycle(c: _Params, sw_h, sw_c) -> tuple[dict, dict]:
    """The metrics and strokes of the cycle whose contacts have thermal weights sw_h and sw_c.

    Every closed-form joint state has a purely imaginary exchange coherence
    rho[1,2], so the coupling costs 2 f Re rho[1,2] vanish exactly.
    """
    wc, wh = c.omega_c, c.omega_h
    g_c, g_h = c.g_c, c.g_h
    p_c1 = (1.0 - g_h) / 2.0 + 0.5 * (1.0 - sw_h) * (g_h - g_c)
    p_a0 = p_c1 * (1.0 - sw_c) + (1.0 - g_c) / 2.0 * sw_c
    hot = (p_c1, wh * (g_c - g_h) * sw_h, wh * (2.0 * p_c1 - 1.0), (0.0, -0.0))
    cold = (p_a0, wc * (g_h - g_c) * sw_h * sw_c, wc * (2.0 * p_a0 - 1.0), (0.0, -0.0))
    w_cd = (wh - wc) * (g_h - (1.0 - sw_h) * (g_h - g_c))
    return _cycle(c, hot, cold, w_cd, (wc - wh) * (g_c - g_h) * sw_h, sw_h, sw_c)


def strong_cycle_via_oracle(config: CycleConfig) -> CycleReport:
    """Strong cycle with both contact strokes run through the ODE integrator.

    Every energy entry must match :func:`strong_cycle` within the oracle
    tolerance. The quenches have trivial dynamics (diagonal states are
    stationary under sigma_z), so only the two contacts differ from the
    closed form: each is integrated from the product of its system state with
    the Gibbs bath qubit, which has no exchange coherence and so a zero
    connection cost; its heat, end state and disconnection cost are read off
    the joint state it ends in.
    """
    config.validate(need_profiles=True)
    wc, wh = config.omega_c, config.omega_h
    ph, pc = config.profile_h, config.profile_c

    def contact(name: str, p_in: float, profile: CouplingProfile, omega: float,
                tau: float) -> tuple:
        start = np.kron(np.diag([p_in, 1.0 - p_in]).astype(complex),
                        bath_thermal_matrix(profile.g))
        end, heat = start, 0.0
        if tau > 0.0:
            try:
                end = oracle_propagate(QubitState(p=p_in), profile, omega, tau)
            except IntegrationFailureError as exc:
                raise IntegrationFailureError(f"{name} contact: {exc}") from exc
            heat = thermo.heat_into_system(np.array([start, end]), omega * linalg.SIGMA_Z)
        # f diverges at t = 0+; the end state's overlap with H_SB vanishes, so
        # any finite surrogate time serves the disconnection cost
        h_sb = coupling_hamiltonian(profile.f(max(tau, ORACLE_T_START, profile.t_min)))
        return (float(linalg.partial_trace_bath(end)[0, 0].real), heat,
                thermo.internal_energy(end, omega * linalg.SIGMA_Z, h_sb),
                (0.0, thermo.connect_disconnect_work(h_sb, end, disconnect=True)))

    hot = contact("hot", (1.0 - config.g_c) / 2.0, ph, wh, config.tau_h)
    p_c1 = hot[0]
    cold = contact("cold", p_c1, pc, wc, config.tau_c)
    return _report(config, *_cycle(_Params.of(config), hot, cold, (wc - wh) * (2.0 * p_c1 - 1.0),
                                   None, ph.thermal_weight(config.tau_h),
                                   pc.thermal_weight(config.tau_c)))


def max_energy_deviation(a: CycleReport, b: CycleReport) -> float:
    """Largest difference between matching work/heat ledger entries of two reports."""
    dev = 0.0
    for name in STROKE_ORDER:
        dev = max(dev, abs(a.strokes[name].work - b.strokes[name].work),
                  abs(a.strokes[name].heat - b.strokes[name].heat))
    return dev


def stroke_entropy_production_trace(config: CycleConfig, stroke: str,
                                    n_points: int = 100) -> np.ndarray:
    """Entropy production along one thermal contact at times tau k / n_points, k = 1..n:
    the contact's Delta S_S - beta Q in the cycle whose contact stops there, one
    ``strong_cycle_sweep`` over the contact's duration (the 4x4 relative entropy of
    ``joint_state_closed_form`` is its audit route)."""
    config.validate(need_profiles=True)
    if stroke not in ("hot", "cold"):
        raise ValueError(f"stroke must be 'hot' or 'cold', got {stroke!r}")
    axis = f"tau_{stroke[0]}"
    tau = getattr(config, axis)
    if tau <= 0.0:
        raise ValueError(f"{stroke} contact has zero duration")
    sweep = strong_cycle_sweep(config, axis, time_grid(tau, n_points))
    return sweep.strokes[f"{stroke}_contact"].entropy_production


SWEEP_AXES = ("tau_h", "tau_c", "g_h", "g_c", "omega_h", "omega_c", "beta_h", "beta_c")


def apply_axis(config: CycleConfig, axis: str, value: float) -> CycleConfig:
    """Sweepable copy of a config with one parameter, one of ``SWEEP_AXES``, replaced.

    Changing a frequency or temperature rebuilds the matching profile with
    the implied g; changing g_h or g_c adjusts the corresponding beta. The
    copy is validated before its profile is rebuilt.
    """
    if axis in ("tau_h", "tau_c"):
        return replace(config, **{axis: value})
    bath = axis[-1]  # h or c, the bath whose g changes
    if axis in ("omega_c", "omega_h", "beta_c", "beta_h"):
        cfg = replace(config, **{axis: value})
    elif axis in ("g_h", "g_c"):
        if not 0.0 < value < 1.0:
            raise ConfigError([f"{axis} must lie in (0, 1), got {value}"])
        omega = getattr(config, f"omega_{bath}")
        cfg = replace(config, **{f"beta_{bath}": float(np.arctanh(value)) / omega})
    else:
        raise ConfigError([f"unknown sweep axis '{axis}'"])
    _require_fields(cfg)
    profile = getattr(cfg, f"profile_{bath}")
    return cfg if profile is None else replace(
        cfg, **{f"profile_{bath}": replace(profile, g=getattr(cfg, f"g_{bath}"))})


@dataclass(frozen=True)
class CycleSweep:
    """Strong cycles over a grid of one parameter, one row per value of ``values``.

    ``metrics`` maps each ``CycleReport`` metric (``work_total``, ``regime``...)
    to its array over the rows, ``strokes`` each stroke to its ``LedgerColumns``
    of arrays. A row that is not ``valid`` holds NaN there (regime "") and, in
    ``errors``, the message ``strong_cycle(apply_axis(base, axis, value))``
    raises; valid rows hold "".
    """

    values: np.ndarray
    valid: np.ndarray
    errors: list
    metrics: dict
    strokes: dict


def strong_cycle_sweep(base: CycleConfig, axis: str, values) -> CycleSweep:
    """The strong cycle of ``base`` with ``axis`` (one of ``SWEEP_AXES``) set to each of
    ``values``, the closed forms evaluated once on whole columns.

    Row by row the result is bit for bit ``strong_cycle(apply_axis(base, axis, value))``.
    A vectorized mask stands in for ``CycleConfig.problems`` and the profile checks;
    only the rows it rejects take the scalar route, for their error message. ``base``
    must itself be valid (``validate(need_profiles=True)``).
    """
    base.validate(need_profiles=True)
    if axis not in SWEEP_AXES:
        raise ConfigError([f"unknown sweep axis '{axis}'"])
    values = np.asarray(values, dtype=float)
    fields = {name: np.full(values.shape, getattr(base, name), dtype=float)
              for name in NUMERIC_FIELDS}
    bath = axis[-1]
    profiles = {"h": base.profile_h, "c": base.profile_c}
    with np.errstate(all="ignore"):
        if axis in ("g_h", "g_c"):
            valid = (0.0 < values) & (values < 1.0)
            fields[f"beta_{bath}"] = np.arctanh(values) / fields[f"omega_{bath}"]
        else:
            valid = np.ones(values.shape, dtype=bool)
            fields[axis] = values
        g = {b: np.tanh(fields[f"beta_{b}"] * fields[f"omega_{b}"]) for b in "hc"}
        # a bath of g = 0 has no profile; a tabulated profile ends at its last sample
        valid &= _fields_valid(fields) & (g["h"] > 0.0) & (g["c"] > 0.0)
        for b in "hc":
            valid &= fields[f"tau_{b}"] <= profiles[b].t_max
        rows = {name: column[valid] for name, column in fields.items()}
        if axis not in ("tau_h", "tau_c"):
            profiles[bath] = replace(profiles[bath], g=g[bath][valid])
        metrics, strokes = _closed_form_cycle(
            _Params(rows["omega_c"], rows["omega_h"], rows["beta_c"], rows["beta_h"],
                    g["c"][valid], g["h"][valid],
                    rows["tau_u1"] + rows["tau_h"] + rows["tau_u2"] + rows["tau_c"]),
            profiles["h"].thermal_weight(rows["tau_h"]),
            profiles["c"].thermal_weight(rows["tau_c"]))

    def scatter(column, fill=math.nan):  # a column over the valid rows, onto every row
        out = np.full(values.shape, fill, dtype=np.asarray(column).dtype)
        out[valid] = column
        return out

    errors = [""] * values.size
    for index in np.flatnonzero(~valid):
        errors[index] = _sweep_error(base, axis, float(values[index]))
    return CycleSweep(
        values=values, valid=valid, errors=errors,
        metrics={name: scatter(column, "" if name == "regime" else math.nan)
                 for name, column in metrics.items()},
        strokes={name: LedgerColumns(*map(scatter, entries)) for name, entries in strokes.items()})


def _sweep_error(base: CycleConfig, axis: str, value: float) -> str:
    """The message ``strong_cycle(apply_axis(base, axis, value))`` raises, for a sweep row
    the mask rejects."""
    try:
        strong_cycle(apply_axis(base, axis, value))
    except (ValueError, QottoError) as exc:
        return str(exc)
    raise AssertionError(f"the sweep mask rejects {axis} = {value}, which strong_cycle accepts")
