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

Partial thermalization in the final stroke breaks exact cyclicity; the
report carries the residual instead of silently assuming closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, thermo
from .dynamics import (ORACLE_T_START, QubitState, bath_thermal_matrix,
                       coupling_hamiltonian, joint_state_closed_form,
                       oracle_propagate)
from .errors import ConfigError, UndefinedPowerError
from .profiles import CouplingProfile, profile_from_spec
from .thermo import EnergyLedger
from .tolerances import TOL

STROKE_ORDER = ("quench_up", "connect_hot", "hot_contact", "disconnect_hot",
                "quench_down", "connect_cold", "cold_contact", "disconnect_cold")
NUMERIC_FIELDS = ("omega_c", "omega_h", "beta_c", "beta_h",
                  "tau_u1", "tau_h", "tau_u2", "tau_c")


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
        return math.tanh(self.beta_c * self.omega_c)

    @property
    def g_h(self) -> float:
        return math.tanh(self.beta_h * self.omega_h)

    @property
    def tau(self) -> float:
        return self.tau_u1 + self.tau_h + self.tau_u2 + self.tau_c

    def problems(self, need_profiles: bool = False) -> list[str]:
        """Every constraint violation, one message per offending field."""
        out = [f"{name} must be finite, got {getattr(self, name)}"
               for name in NUMERIC_FIELDS if not math.isfinite(getattr(self, name))]
        if out:
            return out
        if not self.omega_c > 0.0:
            out.append(f"omega_c must be > 0, got {self.omega_c}")
        if not self.omega_h > 0.0:
            out.append(f"omega_h must be > 0, got {self.omega_h}")
        elif not self.omega_h > self.omega_c:
            out.append(f"omega_h must exceed omega_c, got {self.omega_h} <= {self.omega_c}")
        if self.beta_h < 0.0:
            out.append(f"beta_h must be >= 0, got {self.beta_h}")
        if not self.beta_c > self.beta_h:
            out.append(f"beta_c must exceed beta_h, got {self.beta_c} <= {self.beta_h}")
        for name in ("tau_u1", "tau_h", "tau_u2", "tau_c"):
            if getattr(self, name) < 0.0:
                out.append(f"{name} must be >= 0, got {getattr(self, name)}")
        if need_profiles:
            for name, profile, g in (("profile_h", self.profile_h, self.g_h),
                                     ("profile_c", self.profile_c, self.g_c)):
                if profile is None:
                    out.append(f"{name} is required for the strongly coupled cycle")
                elif abs(profile.g - g) > TOL.profile_g_match:
                    out.append(f"{name}.g = {profile.g} does not match tanh(beta*omega) = {g}")
        return out

    def validate(self, need_profiles: bool = False) -> None:
        problems = self.problems(need_profiles)
        if problems:
            raise ConfigError(problems)


def build_config(omega_c: float, omega_h: float, beta_c: float, beta_h: float,
                 tau_h: float, tau_c: float, tau_u1: float = 0.0, tau_u2: float = 0.0,
                 kind_h: str = "markovian", kind_c: str | None = None) -> CycleConfig:
    """Config whose profiles are built from the specs ``kind_h`` and ``kind_c``.

    Each spec is markovian, nonmarkovian or tabulated:PATH; ``kind_c``
    defaults to ``kind_h``, and each profile's g is tanh(beta * omega) of its bath.
    """
    g_h = math.tanh(beta_h * omega_h)
    if g_h <= 0.0:
        raise ConfigError(["beta_h must be > 0 so that the hot profile has g > 0"])
    return CycleConfig(omega_c=omega_c, omega_h=omega_h, beta_c=beta_c, beta_h=beta_h,
                       tau_h=tau_h, tau_c=tau_c, tau_u1=tau_u1, tau_u2=tau_u2,
                       profile_h=profile_from_spec(kind_h, g_h),
                       profile_c=profile_from_spec(kind_h if kind_c is None else kind_c,
                                                   math.tanh(beta_c * omega_c)))


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
        """name -> (value, passed). All tolerances come from the shared record."""
        out = {}
        stroke_res = max(abs(lg.first_law_residual) for lg in self.strokes.values())
        out["first_law_strokes"] = (stroke_res, stroke_res <= TOL.first_law)
        cycle_res = abs(self.work_total + self.heat_hot + self.heat_cold)
        if self.thermal_weight_cold >= 1.0 - TOL.full_thermalization:
            out["first_law_cycle"] = (cycle_res, cycle_res <= TOL.first_law)
        min_sigma = min(lg.entropy_production for lg in self.strokes.values())
        out["entropy_production"] = (min_sigma, min_sigma >= TOL.entropy_production_floor)
        boundary = max(abs(w) for w in self.boundary_works().values())
        out["boundary_work"] = (boundary, boundary <= TOL.boundary_work)
        if self.regime == "engine":
            out["carnot"] = (self.eta, self.eta <= self.carnot_eta + TOL.carnot_slack)
        elif self.regime == "refrigerator":
            out["carnot"] = (self.cop, self.cop <= self.carnot_cop + TOL.carnot_slack)
        return out


def classify_regime(heat_hot: float, heat_cold: float, work: float) -> str:
    """Sign-based classification: engine absorbs hot heat and outputs work."""
    if heat_hot > 0.0 and heat_cold < 0.0 and work < 0.0:
        return "engine"
    if heat_hot < 0.0 and heat_cold > 0.0 and work > 0.0:
        return "refrigerator"
    return "other"


def _binary_entropy(p: float) -> float:
    """Entropy of a diagonal qubit state with populations p and 1 - p."""
    s = 0.0
    for q in (p, 1.0 - p):
        if q > TOL.entropy_eig_floor:
            s -= q * math.log(q)
    return s


def _stroke_ledgers(e_a1: float, e_b: float, e_c1: float, e_d: float, e_a0: float,
                    w_ab: float, w_cd: float, q_h: float, q_c: float,
                    sigma_h: float, sigma_c: float,
                    coupling_costs: tuple = (0.0, 0.0, 0.0, 0.0)) -> dict:
    """The eight stroke ledgers from the stroke endpoint quantities.

    e_a1, e_b, e_c1, e_d, e_a0 are the internal energies at the cycle start,
    after the up-quench, at the end of the hot contact, after the down-quench
    and at the end of the cold contact; ``coupling_costs`` holds the hot
    connect, hot disconnect, cold connect and cold disconnect works.
    """
    w_con_h, w_dis_h, w_con_c, w_dis_c = coupling_costs
    return {
        "quench_up": EnergyLedger(w_ab, 0.0, e_a1, e_b),
        "connect_hot": EnergyLedger(w_con_h, 0.0, e_b, e_b + w_con_h),
        "hot_contact": EnergyLedger(0.0, q_h, e_b + w_con_h, e_b + w_con_h + q_h, sigma_h),
        "disconnect_hot": EnergyLedger(w_dis_h, 0.0, e_c1, e_c1 + w_dis_h),
        "quench_down": EnergyLedger(w_cd, 0.0, e_c1 + w_dis_h, e_d + w_dis_h),
        "connect_cold": EnergyLedger(w_con_c, 0.0, e_d, e_d + w_con_c),
        "cold_contact": EnergyLedger(0.0, q_c, e_d + w_con_c, e_d + w_con_c + q_c, sigma_c),
        "disconnect_cold": EnergyLedger(w_dis_c, 0.0, e_a0, e_a0 + w_dis_c),
    }


def _metrics(work: float, heat_hot: float, heat_cold: float,
             tau: float) -> tuple[float, float, float, float]:
    eta = -work / heat_hot if heat_hot != 0.0 else math.nan
    cop = heat_cold / work if work != 0.0 else math.nan
    power = -work / tau if tau > 0.0 else math.nan
    kappa = heat_cold / tau if tau > 0.0 else math.nan
    return eta, power, kappa, cop


def _assemble(config: CycleConfig, strokes: dict, work: float, sw_h: float,
              sw_c: float, p_back: float) -> CycleReport:
    """Report from the stroke ledgers and the net work ``work``.

    The two quench works are of size omega_h and cancel; their sum loses the
    relative precision of the net work W0 sin^2 F_h, so callers pass it in.
    """
    heat_hot = strokes["hot_contact"].heat
    heat_cold = strokes["cold_contact"].heat
    tau = config.tau
    eta, power, kappa, cop = _metrics(work, heat_hot, heat_cold, tau)

    g_c, g_h = config.g_c, config.g_h
    w0 = (config.omega_c - config.omega_h) * (g_c - g_h)
    qh0 = config.omega_h * (g_c - g_h)
    qc0 = config.omega_c * (g_h - g_c)
    eta0 = 1.0 - config.omega_c / config.omega_h
    power0 = -w0 / tau if tau > 0.0 else math.nan
    kappa0 = qc0 / tau if tau > 0.0 else math.nan
    cop0 = config.omega_c / (config.omega_h - config.omega_c)
    carnot_eta = 1.0 - config.beta_h / config.beta_c
    carnot_cop = (config.beta_h / (config.beta_c - config.beta_h)
                  if config.beta_h > 0.0 else 0.0)

    return CycleReport(
        config=config, strokes=strokes, work_total=work, heat_hot=heat_hot,
        heat_cold=heat_cold, tau=tau, thermal_weight_hot=sw_h,
        thermal_weight_cold=sw_c, eta=eta, power=power, kappa=kappa, cop=cop,
        regime=classify_regime(heat_hot, heat_cold, work),
        eta0=eta0, power0=power0, kappa0=kappa0, cop0=cop0,
        carnot_eta=carnot_eta, carnot_cop=carnot_cop,
        cyclicity_residual=abs(p_back - (1.0 - g_c) / 2.0),
        energy_residual=work + heat_hot + heat_cold)


def weak_cycle(config: CycleConfig) -> CycleReport:
    """Baseline cycle: weak coupling, both contacts fully thermalizing (sin^2 F = 1)."""
    config.validate(need_profiles=False)
    if config.tau <= 0.0:
        raise UndefinedPowerError("power is undefined for a cycle of zero total duration")
    return _closed_form_cycle(config, 1.0, 1.0)


def strong_cycle(config: CycleConfig) -> CycleReport:
    """Strongly coupled cycle evaluated from the closed-form stroke scalars."""
    config.validate(need_profiles=True)
    return _closed_form_cycle(config, config.profile_h.thermal_weight(config.tau_h),
                              config.profile_c.thermal_weight(config.tau_c))


def _closed_form_cycle(config: CycleConfig, sw_h: float, sw_c: float) -> CycleReport:
    """The cycle whose hot and cold contacts have thermal weights sw_h and sw_c.

    Each contact starts from the product of a diagonal system state with a
    Gibbs bath qubit, so its entropy production is Delta S_S - beta Q
    (Esposito, Lindenberg and Van den Broeck, NJP 12, 013013 (2010)), and
    every closed-form joint state has a purely imaginary exchange coherence
    rho[1,2], so the coupling costs 2 f Re rho[1,2] vanish exactly.
    """
    wc, wh = config.omega_c, config.omega_h
    g_c, g_h = config.g_c, config.g_h
    cw_h = 1.0 - sw_h

    p_a1 = (1.0 - g_c) / 2.0
    p_c1 = (1.0 - g_h) / 2.0 + 0.5 * cw_h * (g_h - g_c)
    p_a0 = p_c1 * (1.0 - sw_c) + (1.0 - g_c) / 2.0 * sw_c
    # a contact started from population p with bath parameter g has the joint
    # spectrum {(1 +/- g)/2 p, (1 +/- g)/2 (1 - p)}: a density operator
    # exactly when g and p lie in [0, 1]
    for g in (g_h, g_c):
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"bath parameter g must lie in [0, 1], got {g}")
    for p in (p_a1, p_c1, p_a0):
        QubitState(p=p)

    w_ab = (wc - wh) * g_c
    q_h = wh * (g_c - g_h) * sw_h
    w_cd = (wh - wc) * (g_h - cw_h * (g_h - g_c))
    q_c = wc * (g_h - g_c) * sw_h * sw_c

    s_a1, s_c1 = _binary_entropy(p_a1), _binary_entropy(p_c1)
    sigma_h = s_c1 - s_a1 - config.beta_h * q_h if sw_h > 0.0 else 0.0
    sigma_c = _binary_entropy(p_a0) - s_c1 - config.beta_c * q_c if sw_c > 0.0 else 0.0

    strokes = _stroke_ledgers(-wc * g_c, -wh * g_c, wh * (2.0 * p_c1 - 1.0),
                              wc * (2.0 * p_c1 - 1.0), wc * (2.0 * p_a0 - 1.0),
                              w_ab, w_cd, q_h, q_c, sigma_h, sigma_c,
                              (0.0, -0.0, 0.0, -0.0))
    return _assemble(config, strokes, (wc - wh) * (g_c - g_h) * sw_h, sw_h, sw_c, p_a0)


def _boundary_coupling(profile: CouplingProfile, t: float) -> np.ndarray:
    # f diverges at t = 0+; the coupling cost is f * (pattern overlap) and the
    # overlap vanishes at every boundary state, so any finite surrogate works
    t_ref = max(t, ORACLE_T_START, profile.t_min)
    return coupling_hamiltonian(profile.f(t_ref))


def strong_cycle_via_oracle(config: CycleConfig) -> CycleReport:
    """Strong cycle with both contact strokes run through the ODE integrator.

    Every energy entry must match :func:`strong_cycle` within the oracle
    tolerance; the unitary strokes have trivial dynamics (diagonal states are
    stationary under sigma_z) and are evaluated directly.
    """
    config.validate(need_profiles=True)
    wc, wh = config.omega_c, config.omega_h
    g_c, g_h = config.g_c, config.g_h
    ph, pc = config.profile_h, config.profile_c

    p_a1 = (1.0 - g_c) / 2.0
    w_ab = (wc - wh) * g_c
    e_a1 = -wc * g_c
    e_b = -wh * g_c

    def contact(p_in: float, profile: CouplingProfile, omega: float, tau: float,
                beta: float):
        start = np.kron(np.diag([p_in, 1.0 - p_in]).astype(complex),
                        bath_thermal_matrix(profile.g))
        if tau <= 0.0:
            return start, start, 0.0, 0.0
        end = oracle_propagate(QubitState(p=p_in), profile, omega, tau)
        h_b = omega * linalg.SIGMA_Z
        heat = -(thermo.bath_energy(end, h_b) - thermo.bath_energy(start, h_b))
        # Delta S_S - beta Q, as in strong_cycle; the 4x4 relative entropy
        # diverges numerically once the bath's upper level rounds to zero
        p_out = float(linalg.partial_trace_bath(end)[0, 0].real)
        sigma = _binary_entropy(p_out) - _binary_entropy(p_in) - beta * heat
        return start, end, heat, sigma

    hot_start, hot_end, q_h, sigma_h = contact(p_a1, ph, wh, config.tau_h, config.beta_h)
    p_c1 = float(linalg.partial_trace_bath(hot_end)[0, 0].real)

    e_c1 = thermo.internal_energy(hot_end, wh * linalg.SIGMA_Z,
                                  _boundary_coupling(ph, config.tau_h))
    w_cd = (wc - wh) * (2.0 * p_c1 - 1.0)
    e_d = wc * (2.0 * p_c1 - 1.0)

    cold_start, cold_end, q_c, sigma_c = contact(p_c1, pc, wc, config.tau_c, config.beta_c)
    e_a0 = thermo.internal_energy(cold_end, wc * linalg.SIGMA_Z,
                                  _boundary_coupling(pc, config.tau_c))

    w_con_h = thermo.connect_disconnect_work(_boundary_coupling(ph, 0.0), hot_start)
    w_dis_h = thermo.connect_disconnect_work(_boundary_coupling(ph, config.tau_h),
                                             hot_end, disconnect=True)
    w_con_c = thermo.connect_disconnect_work(_boundary_coupling(pc, 0.0), cold_start)
    w_dis_c = thermo.connect_disconnect_work(_boundary_coupling(pc, config.tau_c),
                                             cold_end, disconnect=True)

    strokes = _stroke_ledgers(e_a1, e_b, e_c1, e_d, e_a0, w_ab, w_cd, q_h, q_c,
                              sigma_h, sigma_c, (w_con_h, w_dis_h, w_con_c, w_dis_c))

    p_a0 = float(linalg.partial_trace_bath(cold_end)[0, 0].real)
    return _assemble(config, strokes, w_ab + w_cd, ph.thermal_weight(config.tau_h),
                     pc.thermal_weight(config.tau_c), p_a0)


def max_energy_deviation(a: CycleReport, b: CycleReport) -> float:
    """Largest difference between matching work/heat ledger entries of two reports."""
    dev = 0.0
    for name in STROKE_ORDER:
        dev = max(dev, abs(a.strokes[name].work - b.strokes[name].work),
                  abs(a.strokes[name].heat - b.strokes[name].heat))
    return dev


def stroke_entropy_production_trace(config: CycleConfig, stroke: str,
                                    n_points: int = 100) -> np.ndarray:
    """Entropy production sampled along one thermal contact, from the closed form."""
    config.validate(need_profiles=True)
    if stroke not in ("hot", "cold"):
        raise ValueError(f"stroke must be 'hot' or 'cold', got {stroke!r}")
    if stroke == "hot":
        p_in = (1.0 - config.g_c) / 2.0
        profile, omega, beta, tau = (config.profile_h, config.omega_h,
                                     config.beta_h, config.tau_h)
    else:
        cw_h = 1.0 - config.profile_h.thermal_weight(config.tau_h)
        p_in = (1.0 - config.g_h) / 2.0 + 0.5 * cw_h * (config.g_h - config.g_c)
        profile, omega, beta, tau = (config.profile_c, config.omega_c,
                                     config.beta_c, config.tau_c)
    if tau <= 0.0:
        raise ValueError(f"{stroke} contact has zero duration")
    times = tau * np.arange(1, n_points + 1) / n_points
    h_b = omega * linalg.SIGMA_Z
    out = np.empty(n_points)
    for k, t in enumerate(times):
        rho = joint_state_closed_form(QubitState(p=p_in), profile.g, omega,
                                      profile.phase(float(t)), float(t))
        out[k] = thermo.entropy_production(rho, beta, h_b)
    return out


def apply_axis(config: CycleConfig, axis: str, value: float) -> CycleConfig:
    """Sweepable copy of a config with one parameter replaced.

    Changing a frequency or temperature rebuilds the matching profile with
    the implied g; changing g_h or g_c adjusts the corresponding beta.
    """
    if axis in ("tau_h", "tau_c", "tau_u1", "tau_u2"):
        return replace(config, **{axis: value})
    if axis in ("omega_c", "omega_h", "beta_c", "beta_h"):
        cfg = replace(config, **{axis: value})
    elif axis in ("g_h", "g_c"):
        if not 0.0 < value < 1.0:
            raise ConfigError([f"{axis} must lie in (0, 1), got {value}"])
        if axis == "g_h":
            cfg = replace(config, beta_h=math.atanh(value) / config.omega_h)
        else:
            cfg = replace(config, beta_c=math.atanh(value) / config.omega_c)
    else:
        raise ConfigError([f"unknown sweep axis '{axis}'"])
    return _rebuild_profiles(cfg)


def _rebuild_profiles(config: CycleConfig) -> CycleConfig:
    def rebuilt(profile, g):
        return None if profile is None else replace(profile, g=g)
    return replace(config,
                   profile_h=rebuilt(config.profile_h, config.g_h),
                   profile_c=rebuilt(config.profile_c, config.g_c))
