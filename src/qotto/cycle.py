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

The closed-form and oracle routes share one cycle skeleton (``_cycle``), which
builds the ``CycleReport`` (quenches, entropy productions, the chain of stroke energies,
metrics) from each contact's heat and end state; the oracle integrates them. Each numeric field
of a ``CycleConfig`` and each entry of a ``CycleReport`` is a float or an ndarray,
and the skeleton, the closed forms and the law audits work elementwise:
``strong_cycle_sweep`` evaluates and audits a whole grid over one swept parameter
at once, and ``strong_cycle``, ``weak_cycle`` and ``strong_cycle_via_oracle`` are
its one-point case. One helper sets a swept parameter (``_set_axis``), one
rebuilds the profile it changes (``_rebuild_profile``) and one rule table
(``_rules``) judges a point or a grid.

Partial thermalization in the final stroke breaks exact cyclicity; the
report carries the residual instead of silently assuming closure. A cycle of
zero total duration has NaN power and cooling rate on every route.
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
from .errors import ConfigError, IntegrationFailureError
from .profiles import CouplingProfile, profile_from_spec, spec_faults
from .thermo import EnergyLedger
from .tolerances import TOL

STROKE_ORDER = ("quench_up", "connect_hot", "hot_contact", "disconnect_hot",
                "quench_down", "connect_cold", "cold_contact", "disconnect_cold")
NUMERIC_FIELDS = ("omega_c", "omega_h", "beta_c", "beta_h",
                  "tau_u1", "tau_h", "tau_u2", "tau_c")
_HOT_SPEC = object()  # build_config's default kind_c: the same spec as kind_h


@dataclass(frozen=True)
class CycleConfig:
    """All cycle parameters; bath parameters g are fixed by g = tanh(beta * omega).

    A numeric field is a float, or an ndarray of grid rows (a sweep's swept
    field); ``g_c``, ``g_h`` and ``tau`` follow elementwise. ``problems`` and
    ``validate`` judge a config of floats by the rule table (``_rules``), which
    ``strong_cycle_sweep`` evaluates on every row of a grid.
    """

    omega_c: float | np.ndarray
    omega_h: float | np.ndarray
    beta_c: float | np.ndarray
    beta_h: float | np.ndarray
    tau_h: float | np.ndarray
    tau_c: float | np.ndarray
    tau_u1: float | np.ndarray = 0.0
    tau_u2: float | np.ndarray = 0.0
    profile_h: CouplingProfile | None = None
    profile_c: CouplingProfile | None = None

    @property
    def g_c(self):
        return np.tanh(self.beta_c * self.omega_c)

    @property
    def g_h(self):
        return np.tanh(self.beta_h * self.omega_h)

    @property
    def tau(self):
        return self.tau_u1 + self.tau_h + self.tau_u2 + self.tau_c

    def problems(self, need_profiles: bool = False) -> list[str]:
        """Every constraint violation of one point, one message each (see ``_rules``)."""
        return list(_faults(self, need_profiles=need_profiles)[1][0])

    def validate(self, need_profiles: bool = False) -> None:
        _require(self, need_profiles=need_profiles)


def _number_rule(name: str, value) -> tuple[tuple, object]:
    """The rule that field ``name`` (a scalar or a column) holds finite floats, as (bad,
    template), and the field as later rules read it: NaN, which joins none, where it fails."""
    not_finite = f"{name} must be finite, got {{{name}}}"
    if isinstance(value, np.ndarray):
        finite = np.isfinite(value)
        return (~finite, not_finite), np.where(finite, value, math.nan)
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):  # float: no ABC
        return (True, f"{name} must be a number, got {{{name}!r}}"), math.nan
    try:
        value = float(value)
    except OverflowError:
        return (True, f"{name} must be a number, got an int too large for a float"), math.nan
    finite = math.isfinite(value)
    return (not finite, not_finite), value if finite else math.nan


def _rules(c: CycleConfig, need_profiles: bool = False, g_baths: str = "",
           ends: bool = False, axis: str | None = None, value=None) -> tuple[list, dict]:
    """The rule table of ``c``, whose numeric fields are floats or columns: stages of
    (bad, message template) rules, ``bad`` holding elementwise where a rule fails, and the
    values the templates name. The stages, by precedence: the (0, 1) range of ``value`` on
    a g ``axis``; the fields (with ``need_profiles``, and the profiles); g > 0 of the hot,
    then the cold bath, each named in ``g_baths`` (those whose profile is, or is about to be,
    built at its g); with ``ends``, the hot, then the cold contact within its table."""
    v, fields = {}, []
    for name in NUMERIC_FIELDS:
        rule, v[name] = _number_rule(name, getattr(c, name))
        fields.append(rule)
    tau = v["tau_u1"] + v["tau_h"] + v["tau_u2"] + v["tau_c"]
    g = {b: np.tanh(v[f"beta_{b}"] * v[f"omega_{b}"]) for b in "hc"}
    fields += [
        (v["omega_c"] <= 0.0, "omega_c must be > 0, got {omega_c}"),
        (v["omega_h"] <= 0.0, "omega_h must be > 0, got {omega_h}"),
        ((v["omega_h"] > 0.0) & (v["omega_h"] <= v["omega_c"]),
         "omega_h must exceed omega_c, got {omega_h} <= {omega_c}"),
        (v["beta_h"] < 0.0, "beta_h must be >= 0, got {beta_h}"),
        (v["beta_c"] <= v["beta_h"], "beta_c must exceed beta_h, got {beta_c} <= {beta_h}"),
        *((v[name] < 0.0, f"{name} must be >= 0, got {{{name}}}")
          for name in NUMERIC_FIELDS[4:]),
        (np.isinf(tau), "the total duration tau_u1 + tau_h + tau_u2 + tau_c must be finite, "
                        "got {tau}")]
    profiles = {b: getattr(c, f"profile_{b}") for b in "hc"}
    if need_profiles:
        fields += [(True, f"profile_{b} is required for the strongly coupled cycle")
                   if p is None else
                   (abs(p.g - g[b]) > TOL.profile_g_match,
                    f"profile_{b}.g = {{profile_{b}.g}} does not match tanh(beta*omega) = "
                    f"{{g_{b}}}")
                   for b, p in profiles.items()]
    stages = [fields]
    if axis in ("g_h", "g_c"):
        stages.insert(0, [(np.logical_not((0.0 < value) & (value < 1.0)),
                           f"{axis} must lie in (0, 1), got {{value}}")])
    stages += [[(g[b] <= 0.0, fault)] for b, fault in (  # the cold one is its profile's own
        ("h", "beta_h * omega_h must be > 0 so that the hot profile has g > 0, "
              "got {beta_h} * {omega_h}"),
        ("c", "bath parameter g must lie in (0, 1], got {g_c}")) if b in g_baths]
    stages += [[(v[f"tau_{b}"] > p.t_max, f"t = {{tau_{b}}} outside tabulated domain "
                                           f"[{{profile_{b}.t_min}}, {{profile_{b}.t_max}}]")]
               for b, p in profiles.items() if ends and p is not None]
    return stages, {**vars(c), "tau": tau, "g_h": g["h"], "g_c": g["c"], "value": value}


def _faults(c: CycleConfig, n: int = 1, **scope) -> tuple[np.ndarray, list[tuple]]:
    """The n rows of ``c`` (a point is row 0) under the ``_rules`` that ``scope`` selects:
    the mask of the rows that pass, and each row's messages, from its first failing stage."""
    stages, values = _rules(c, **scope)
    valid, faults = np.ones(n, dtype=bool), [()] * n
    for stage in stages:
        hits = [(valid & bad, template) for bad, template in stage
                if (bad.any() if isinstance(bad, np.ndarray) else bad)]
        for hit, template in hits:
            valid = valid & ~hit
            columns = {key: x.tolist() for key, x in values.items() if isinstance(x, np.ndarray)}
            for k in np.flatnonzero(hit).tolist():
                row = {**values, **{key: x[k] for key, x in columns.items()}}
                faults[k] += (template.format_map(row),)
    return valid, faults


def _require(c: CycleConfig, *more: str, **scope) -> None:
    """Raise the faults of the point ``c`` (see ``_faults``), and ``more``, together."""
    faults = [*_faults(c, **scope)[1][0], *more]
    if faults:
        raise ConfigError(faults)


def build_config(omega_c: float, omega_h: float, beta_c: float, beta_h: float,
                 tau_h: float, tau_c: float, tau_u1: float = 0.0, tau_u2: float = 0.0,
                 kind_h: str = "markovian", kind_c: str = _HOT_SPEC) -> CycleConfig:
    """Config whose profiles are built from the specs ``kind_h`` and ``kind_c``.

    Each spec is markovian, nonmarkovian or tabulated:PATH; ``kind_c``
    defaults to ``kind_h``, and each profile's g is tanh(beta * omega) of its
    bath. Field faults, a bath at g = 0, non-string specs and specs that name no profile
    raise one ConfigError before either profile is built; reading a table names its file.
    """
    kind_c = kind_h if kind_c is _HOT_SPEC else kind_c
    config = CycleConfig(omega_c=omega_c, omega_h=omega_h, beta_c=beta_c, beta_h=beta_h,
                         tau_h=tau_h, tau_c=tau_c, tau_u1=tau_u1, tau_u2=tau_u2)
    specs = {"profile_h": kind_h, "profile_c": kind_c}
    named = dict.fromkeys(kind for kind in specs.values() if isinstance(kind, str))  # each once
    _require(config, *(f"{name} must be a string, got {kind!r}"
                       for name, kind in specs.items() if not isinstance(kind, str)),
             *(fault for kind in named for fault in spec_faults(kind)), g_baths="hc")
    hot = profile_from_spec(kind_h, config.g_h)  # a spec both baths share is read once
    return replace(config, profile_h=hot, profile_c=replace(hot, g=config.g_c) if kind_c == kind_h
                   else profile_from_spec(kind_c, config.g_c))


class CycleReport(NamedTuple):
    """Per-stroke ledger, metrics and law audits: floats for one cycle, columns for a sweep."""

    config: CycleConfig
    strokes: dict
    work_total: float | np.ndarray
    heat_hot: float | np.ndarray
    heat_cold: float | np.ndarray
    tau: float | np.ndarray
    thermal_weight_hot: float | np.ndarray
    thermal_weight_cold: float | np.ndarray
    eta: float | np.ndarray
    power: float | np.ndarray
    kappa: float | np.ndarray
    cop: float | np.ndarray
    regime: str | np.ndarray
    eta0: float | np.ndarray
    power0: float | np.ndarray
    kappa0: float | np.ndarray
    cop0: float | np.ndarray
    carnot_eta: float | np.ndarray
    carnot_cop: float | np.ndarray
    cyclicity_residual: float | np.ndarray
    energy_residual: float | np.ndarray

    def boundary_works(self) -> dict:
        return {name: self.strokes[name].work for name in STROKE_ORDER if "connect" in name}

    def law_audits(self) -> dict:
        """name -> (value, passed): a float and a bool, or for a sweep two columns.

        Tolerances come from the shared record. The energy audits (first law, the net
        work against the sum of the two quench works, boundary work) judge their residual
        in units of omega_h, which bounds every stroke energy, so a verdict does not depend
        on the unit of energy; the entropy and Carnot audits are dimensionless.
        ``first_law_cycle`` applies where the cold contact thermalizes fully, ``carnot`` to
        an engine or a refrigerator; an audit that applies to no row is left out, and a row
        it skips holds NaN and passes.
        """
        with np.errstate(all="ignore"):  # quiet, as Python floats: an inf - inf residual is NaN
            scale, ledgers = self.config.omega_h, self.strokes.values()
            strokes = np.max([abs(lg.first_law_residual) for lg in ledgers], axis=0) / scale
            cycle = abs(self.energy_residual) / scale
            quenches = self.strokes["quench_up"].work + self.strokes["quench_down"].work
            identity = abs(self.work_total - quenches) / scale
            sigma = np.min([lg.entropy_production for lg in ledgers], axis=0)
            boundary = np.max([abs(w) for w in self.boundary_works().values()], axis=0) / scale
            engine = self.regime == "engine"
            carnot = np.where(engine, self.eta, self.cop)
            bound = np.where(engine, self.carnot_eta, self.carnot_cop) + TOL.carnot_slack
            audits = {  # name -> (value, passed, where the audit applies)
                "first_law_strokes": (strokes, strokes <= TOL.first_law, True),
                "first_law_cycle": (cycle, cycle <= TOL.first_law,
                                    self.thermal_weight_cold >= 1.0 - TOL.full_thermalization),
                "cycle_identity": (identity, identity <= TOL.cycle_identity, True),
                "entropy_production": (sigma, sigma >= TOL.entropy_production_floor, True),
                "boundary_work": (boundary, boundary <= TOL.boundary_work, True),
                "carnot": (carnot, carnot <= bound, engine | (self.regime == "refrigerator"))}
        out, point = {}, isinstance(self.regime, str)
        for name, (value, ok, applies) in audits.items():
            if np.any(applies):
                value, ok = np.where(applies, value, math.nan), np.where(applies, ok, True)
                out[name] = (float(value), bool(ok)) if point else (value, ok)
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


def _cycle(c: CycleConfig, hot: tuple, cold: tuple, w_cd, work, sw_h, sw_c) -> CycleReport:
    """The cycle around a hot and a cold contact of thermal weights sw_h and sw_c.

    Each contact is ``(p_end, heat, (w_connect, w_disconnect))``: the system
    population it ends with, the heat it takes in and the costs of switching its
    coupling on and off. It ends coupled, at omega (2 p_end - 1) - w_disconnect, read
    off the joint state that gives its heat; the nine stroke-boundary energies are
    stated once and each stroke runs from one to the next, so a contact's first law
    holds its heat to its population change. ``w_cd`` is the down-quench work. The two
    quench works are of size omega_h and cancel; their sum loses the relative precision
    of the net work W0 sin^2 F_h, so a route that knows it passes it as ``work`` (None: the sum).

    Each contact starts from the product of a diagonal system state with a
    Gibbs bath qubit, so its entropy production is Delta S_S - beta Q
    (Esposito, Lindenberg and Van den Broeck, NJP 12, 013013 (2010)) on both
    routes; the oracle's 4x4 relative entropy would diverge numerically once
    the bath's upper level rounds to zero.

    Every value is a float or an ndarray, taken elementwise, and so is each entry of
    the report. Callers enter ``np.errstate(all="ignore")``: np.where evaluates both
    branches, and the unguarded one may divide by zero or overflow.
    """
    wc, wh = c.omega_c, c.omega_h
    g_c, g_h = c.g_c, c.g_h
    p_c1, q_h, (w_con_h, w_dis_h) = hot
    p_a0, q_c, (w_con_c, w_dis_c) = cold
    w_ab = (wc - wh) * g_c
    work = w_ab + w_cd if work is None else work
    e_b, e_d = -wh * g_c, wc * (2.0 * p_c1 - 1.0)
    e_c, e_a = wh * (2.0 * p_c1 - 1.0), wc * (2.0 * p_a0 - 1.0)  # after each contact, decoupled
    energies = (-wc * g_c, e_b, e_b + w_con_h, e_c - w_dis_h, e_c,
                e_d, e_d + w_con_c, e_a - w_dis_c, e_a)

    s_a1, s_c1 = _binary_entropy((1.0 - g_c) / 2.0), _binary_entropy(p_c1)
    sigma_h = np.where(sw_h > 0.0, s_c1 - s_a1 - c.beta_h * q_h, 0.0)
    sigma_c = np.where(sw_c > 0.0, _binary_entropy(p_a0) - s_c1 - c.beta_c * q_c, 0.0)
    steps = ((w_ab, 0.0, 0.0), (w_con_h, 0.0, 0.0), (0.0, q_h, sigma_h), (w_dis_h, 0.0, 0.0),
             (w_cd, 0.0, 0.0), (w_con_c, 0.0, 0.0), (0.0, q_c, sigma_c), (w_dis_c, 0.0, 0.0))
    strokes = {name: EnergyLedger(w, q, e0, e1, sigma) for name, (w, q, sigma), e0, e1
               in zip(STROKE_ORDER, steps, energies, energies[1:])}

    tau, w0 = c.tau, (wc - wh) * (g_c - g_h)

    def per_time(x):
        return np.where(tau > 0.0, np.divide(x, tau), math.nan)

    return CycleReport(
        config=c, strokes=strokes, work_total=work, heat_hot=q_h, heat_cold=q_c,
        tau=tau, thermal_weight_hot=sw_h, thermal_weight_cold=sw_c,
        eta=np.where(q_h != 0.0, np.divide(-work, q_h), math.nan),
        power=per_time(-work), kappa=per_time(q_c),
        cop=np.where(work != 0.0, np.divide(q_c, work), math.nan),
        regime=classify_regime(q_h, q_c, work),
        eta0=1.0 - wc / wh, power0=per_time(-w0), kappa0=per_time(wc * (g_h - g_c)),
        cop0=wc / (wh - wc), carnot_eta=1.0 - c.beta_h / c.beta_c,
        carnot_cop=np.where(c.beta_h > 0.0, c.beta_h / (c.beta_c - c.beta_h), 0.0),
        cyclicity_residual=abs(p_a0 - (1.0 - g_c) / 2.0), energy_residual=work + q_h + q_c)


def _entries(r: CycleReport, fn, **changes) -> CycleReport:
    """``r`` with ``fn`` applied to each metric and each ledger entry, and ``changes`` made."""
    return r._replace(strokes={name: EnergyLedger._make(map(fn, lg))
                               for name, lg in r.strokes.items()},
                      **{name: fn(getattr(r, name)) for name in r._fields
                         if name not in ("config", "strokes")}, **changes)


def _report(r: CycleReport) -> CycleReport:
    """A one-point report of ``_cycle``, its entries turned into floats and its regime a str."""
    return _entries(r, lambda x: str(x) if isinstance(x, str) else float(x))


def weak_cycle(config: CycleConfig) -> CycleReport:
    """Baseline cycle: weak coupling, both contacts fully thermalizing (sin^2 F = 1); power
    and cooling rate are NaN for a cycle of zero total duration."""
    config.validate(need_profiles=False)
    return _report(_closed_form_cycle(config, weak=True))


def strong_cycle(config: CycleConfig) -> CycleReport:
    """Strongly coupled cycle evaluated from the closed-form stroke scalars: the
    one-point case of ``strong_cycle_sweep``, judged by the same rule table."""
    _require(config, need_profiles=True, ends=True)
    return _report(_closed_form_cycle(config))


def _closed_form_cycle(c: CycleConfig, weak: bool = False) -> CycleReport:
    """The cycle (``_cycle``) whose contacts have the thermal weights sin^2 F of ``c``'s
    profiles, or 1 for the ``weak`` baseline, under one ``np.errstate``: a config's g is
    a numpy scalar, and a bath near g = 0 overflows its profile's terms.

    Every closed-form joint state has a purely imaginary exchange coherence
    rho[1,2], so the coupling costs 2 f Re rho[1,2] vanish exactly.
    """
    with np.errstate(all="ignore"):
        sw_h, sw_c = (1.0, 1.0) if weak else (c.profile_h.thermal_weight(c.tau_h),
                                              c.profile_c.thermal_weight(c.tau_c))
        wc, wh = c.omega_c, c.omega_h
        g_c, g_h = c.g_c, c.g_h
        p_c1 = (1.0 - g_h) / 2.0 + 0.5 * (1.0 - sw_h) * (g_h - g_c)
        p_a0 = p_c1 * (1.0 - sw_c) + (1.0 - g_c) / 2.0 * sw_c
        hot = (p_c1, wh * (g_c - g_h) * sw_h, (0.0, -0.0))
        cold = (p_a0, wc * (g_h - g_c) * sw_h * sw_c, (0.0, -0.0))
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
    the joint state it ends in. One ``np.errstate`` covers the call, not each right-hand side.
    """
    _require(config, need_profiles=True, ends=True)
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
                (0.0, thermo.connect_disconnect_work(h_sb, end, disconnect=True)))

    with np.errstate(all="ignore"):
        hot = contact("hot", (1.0 - config.g_c) / 2.0, ph, wh, config.tau_h)
        p_c1 = hot[0]
        cold = contact("cold", p_c1, pc, wc, config.tau_c)
        return _report(_cycle(config, hot, cold, (wc - wh) * (2.0 * p_c1 - 1.0), None,
                              ph.thermal_weight(config.tau_h), pc.thermal_weight(config.tau_c)))


def max_energy_deviation(a: CycleReport, b: CycleReport) -> float:
    """Largest difference between matching work/heat ledger entries of two reports."""
    return max(0.0, *(abs(getattr(a.strokes[name], entry) - getattr(b.strokes[name], entry))
                      for name in STROKE_ORDER for entry in ("work", "heat")))


SWEEP_AXES = ("tau_h", "tau_c", "g_h", "g_c", "omega_h", "omega_c", "beta_h", "beta_c")


def _set_axis(config: CycleConfig, axis: str, value) -> CycleConfig:
    """Copy of a config with ``axis``, one of ``SWEEP_AXES``, set to ``value``, a float or
    an ndarray, unvalidated; a g axis sets its bath's beta to arctanh(value) / omega."""
    if axis not in SWEEP_AXES:
        raise ConfigError([f"unknown sweep axis '{axis}'"])
    if axis in ("g_h", "g_c"):
        axis, value = f"beta_{axis[-1]}", np.arctanh(value) / getattr(config, f"omega_{axis[-1]}")
    return replace(config, **{axis: value})


def _rebuild_profile(config: CycleConfig, axis: str) -> CycleConfig:
    """``config`` with the profile of the bath that ``axis`` changes rebuilt at that bath's
    g; a duration axis, or a bath without a profile, leaves the config as it is."""
    bath = axis[-1]
    profile = getattr(config, f"profile_{bath}")
    if axis in ("tau_h", "tau_c") or profile is None:
        return config
    return replace(config, **{f"profile_{bath}": replace(profile, g=getattr(config, f"g_{bath}"))})


def apply_axis(config: CycleConfig, axis: str, value: float) -> CycleConfig:
    """Sweepable copy of a config with one parameter, one of ``SWEEP_AXES``, replaced.

    Changing a frequency or temperature rebuilds the matching profile with
    the implied g; changing g_h or g_c adjusts the corresponding beta. The
    copy is validated, by the rule table, before its profile is rebuilt.
    """
    with np.errstate(all="ignore"):  # a g outside (0, 1) has no arctanh; a rule names it
        cfg = _set_axis(config, axis, value)
    _require(cfg, g_baths="hc", axis=axis, value=value)
    return _rebuild_profile(cfg, axis)


class CycleSweep(NamedTuple):
    """Strong cycles over a grid of one parameter, one row per value of ``values``.

    ``report`` is one ``CycleReport`` of columns over every row, whose ``config`` is
    the swept config of all rows (with the base's profiles): ``report.law_audits()``
    audits every row at once. A row that is not ``valid`` holds NaN in the report
    (regime "") and its messages in ``errors``; valid rows hold "". Every report entry
    is a full-length column: only a sweep with a rejected row scatters the valid rows'
    columns onto the grid; with every row valid they pass through as computed, and an
    entry that does not vary along the axis is repeated onto every row.
    """

    values: np.ndarray
    valid: np.ndarray
    errors: list
    report: CycleReport


def strong_cycle_sweep(base: CycleConfig, axis: str, values) -> CycleSweep:
    """The strong cycle of ``base`` with ``axis`` (one of ``SWEEP_AXES``) set to each of
    ``values``, a 1-d grid, the closed forms evaluated once on whole columns.

    Row by row the result is bit for bit ``strong_cycle`` on ``apply_axis``'s config for
    the row's value; the rule table judges every row at once and formats the rejected
    rows' messages. ``base`` must itself be valid (``validate(need_profiles=True)``).
    """
    base.validate(need_profiles=True)
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ConfigError([f"sweep values must form a 1-d grid, got shape {values.shape}"])
    with np.errstate(all="ignore"):
        swept = _set_axis(base, axis, values)
        valid, faults = _faults(swept, values.size, g_baths="hc", ends=True, axis=axis,
                                value=values)
        rows = _rebuild_profile(_set_axis(base, axis, values[valid]), axis)
        report = _closed_form_cycle(rows)

    def scatter(column):  # a column over the valid rows, onto every row; NaN or "" elsewhere
        column = np.asarray(column)
        out = np.full(values.shape, "" if column.dtype.kind == "U" else math.nan, column.dtype)
        out[valid] = column
        return out

    def spread(column):  # every row valid: a column as it is, a 0-d entry on every row
        column = np.asarray(column)
        return column if column.ndim else np.full(values.shape, column)

    return CycleSweep(values=values, valid=valid, errors=["; ".join(row) for row in faults],
                      report=_entries(report, spread if valid.all() else scatter, config=swept))

