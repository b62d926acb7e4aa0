"""Independent output checks for the qotto benchmark.

Every expected value here is computed from the paper's closed forms with
numpy alone; nothing is imported from qotto and no stored copy of an
earlier output is consulted. Units: hbar = k_B = 1, g = tanh(beta*omega).

Profiles
    Markovian      f = e^{-t/2g} / (2g sqrt(1 - e^{-t/g})),
                   F = arccos(e^{-t/2g}),  sin^2 F = 1 - e^{-t/g}
    non-Markovian  f + d/dt[sin(20t)/(10t+1)],  F + sin(20t)/(10t+1)
    tabulated      F = f(t0) t0 + integral of the piecewise-linear table
Cycle (W0, Qh0, Qc0 are the weak-coupling values)
    Q_h = Qh0 sin^2 F_h,  Q_c = Qc0 sin^2 F_h sin^2 F_c,  W = W0 sin^2 F_h,
    eta = eta0 = 1 - wc/wh (engine),  K = K0 sin^2 F_c (refrigerator),
    eta <= 1 - bh/bc,  K <= bh/(bc - bh),  per-stroke first law,
    hot-contact entropy production = Delta S_S - beta_h Q_h
Witness
    Markovian gamma = 1/(2g); min eig of the projected witness is
    min(0, (1-g) gamma, (1+g) gamma) (Rivas-Huelga-Plenio, PRL 105, 050403).

A check returns ``(failed, problems)``: ``failed`` marks an output that a
valid input should not produce (an invalid sweep row, a NaN rate where the
closed form is finite, a non-zero exit); ``problems`` lists values that
disagree with the formulas, which makes the run incorrect.
"""

from __future__ import annotations


import numpy as np

RTOL = 1e-9
ATOL = 1e-10
PERTURBATION = 1e-6
RATE_FLOOR = -1e-10
# qotto gives no non-Markovian rate where |cos F| < 1e-8 (its map is not
# invertible there); ours and its F may differ by a few ulps of F, which
# moves cos F by as much near cos F = 0
SINGULAR_COS = 1e-8
SINGULAR_ULPS = 8


# --- profiles ---------------------------------------------------------------

class Table:
    """Piecewise-linear (t, f) table read from the same file qotto reads."""

    def __init__(self, path):
        rows = []
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                line = line.split("#", 1)[0].strip()
                if line:
                    t, f = line.split()
                    rows.append((float(t), float(f)))
        self.t = np.array([r[0] for r in rows])
        self.f = np.array([r[1] for r in rows])
        seg = 0.5 * (self.f[1:] + self.f[:-1]) * np.diff(self.t)
        self.nodes = self.f[0] * self.t[0] + np.concatenate(([0.0], np.cumsum(seg)))

    def phase(self, t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.t, t, side="right") - 1, 0, self.t.size - 2)
        dt = t - self.t[k]
        slope = (self.f[k + 1] - self.f[k]) / (self.t[k + 1] - self.t[k])
        inside = self.nodes[k] + self.f[k] * dt + 0.5 * slope * dt * dt
        return np.where(t <= self.t[0], self.f[0] * t, inside)


def f_markovian(t, g):
    t = np.asarray(t, dtype=float)
    return np.exp(-t / (2 * g)) / (2 * g * np.sqrt(-np.expm1(-t / g)))


def phase_markovian(t, g):
    return np.arccos(np.exp(-np.asarray(t, dtype=float) / (2 * g)))


def f_nonmarkovian(t, g):
    t = np.asarray(t, dtype=float)
    u = 10 * t + 1
    return f_markovian(t, g) - 10 * np.sin(20 * t) / u**2 + 20 * np.cos(20 * t) / u


def phase_nonmarkovian(t, g):
    t = np.asarray(t, dtype=float)
    return phase_markovian(t, g) + np.sin(20 * t) / (10 * t + 1)


def thermal_weight(spec, t, g):
    """sin^2 F(t) for a profile spec as written in a qotto config."""
    if spec == "markovian":
        return -np.expm1(-np.asarray(t, dtype=float) / g)
    if spec == "nonmarkovian":
        return np.sin(phase_nonmarkovian(t, g)) ** 2
    if spec.startswith("tabulated:"):
        return np.sin(Table(spec.split(":", 1)[1]).phase(t)) ** 2
    raise ValueError(f"unknown profile {spec!r}")


def binary_entropy(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    for q in (p, 1 - p):
        ok = q > 1e-300
        out = out - np.where(ok, q * np.log(np.where(ok, q, 1.0)), 0.0)
    return out


# --- the cycle closed forms ------------------------------------------------------

def cycle_expectation(cfg, **override):
    """Every cycle quantity the paper gives in closed form, as numpy arrays.

    ``override`` replaces one parameter (scalar or array), as a sweep axis
    does; g_h and g_c move beta_h and beta_c.
    """
    c = dict(cfg)
    for axis, value in override.items():
        value = np.asarray(value, dtype=float)
        if axis == "g_h":
            c["beta_h"] = np.arctanh(value) / c["omega_h"]
        elif axis == "g_c":
            c["beta_c"] = np.arctanh(value) / c["omega_c"]
        else:
            c[axis] = value
    wc, wh, bc, bh = c["omega_c"], c["omega_h"], c["beta_c"], c["beta_h"]
    g_c, g_h = np.tanh(bc * wc), np.tanh(bh * wh)
    sw_h = thermal_weight(c["profile_h"], c["tau_h"], g_h)
    sw_c = thermal_weight(c["profile_c"], c["tau_c"], g_c)
    tau = c["tau_u1"] + c["tau_h"] + c["tau_u2"] + c["tau_c"]
    w0 = (wc - wh) * (g_c - g_h)
    qh0 = wh * (g_c - g_h)
    qc0 = wc * (g_h - g_c)
    e = {
        "valid": (wc > 0) & (wh > wc) & (bh >= 0) & (bc > bh),
        "g_c": g_c, "g_h": g_h, "gap": np.abs(g_c - g_h),
        "thermal_weight_hot": sw_h, "thermal_weight_cold": sw_c,
        "work": w0 * sw_h, "heat_hot": qh0 * sw_h, "heat_cold": qc0 * sw_h * sw_c,
        "work_up": (wc - wh) * g_c,
        "work_down": (wh - wc) * (g_h - (1 - sw_h) * (g_h - g_c)),
        "eta0": 1 - wc / wh, "cop0": wc / (wh - wc),
        "carnot_eta": 1 - bh / bc, "carnot_cop": bh / (bc - bh),
        "tau": tau,
        "cyclicity_residual": 0.5 * np.abs(g_c - g_h) * sw_h * (1 - sw_c),
    }
    e["power"] = -e["work"] / tau
    e["kappa"] = e["heat_cold"] / tau
    e["energy_residual"] = e["work"] + e["heat_hot"] + e["heat_cold"]
    p_a = (1 - g_c) / 2
    p_c = (1 - g_h) / 2 + 0.5 * (1 - sw_h) * (g_h - g_c)
    p_a0 = p_c * (1 - sw_c) + p_a * sw_c
    e["sigma_hot"] = binary_entropy(p_c) - binary_entropy(p_a) - bh * e["heat_hot"]
    e["sigma_cold"] = binary_entropy(p_a0) - binary_entropy(p_c) - bc * e["heat_cold"]
    e["engine"] = (g_c > g_h) & (sw_h > 0)
    e["refrigerator"] = (g_h > g_c) & (sw_h > 0) & (sw_c > 0)
    return e


# --- CSV --------------------------------------------------------------------

def parse_csv(text):
    """(metadata, header, rows of strings) from qotto's CSV format."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError("no header line")
    return meta, header, rows


def _column(header, rows, name):
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


def _close(name, got, want, problems, rtol=RTOL, atol=ATOL, mask=None):
    got = np.asarray(got, dtype=float)
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    tol = atol + rtol * np.abs(want)
    if np.ndim(tol) == 0:
        tol = np.full(got.shape, tol)
    bad = ~(np.abs(got - want) <= tol)
    if mask is not None:
        bad &= np.broadcast_to(mask, got.shape)
    if np.any(bad):
        k = int(np.flatnonzero(bad.ravel())[0])
        problems.append(f"{name}: got {got.ravel()[k]!r}, expected {want.ravel()[k]!r}")


def _check_performance(e, eta, cop, mask, problems):
    """eta = eta0 (engine), K = K0 sin^2 F_c (refrigerator), Carnot bounds.

    Returns the engine and refrigerator masks.
    """
    # eta and K divide by W, a sum of two stroke works that cancel to
    # W0 sin^2 F_h; its relative rounding error grows as the sum shrinks
    w_err = 1e-14 * (np.abs(e["work_up"]) + np.abs(e["work_down"])) / np.maximum(
        np.abs(e["work"]), 1e-300)
    shape = np.shape(eta)
    engine = np.broadcast_to(mask & e["engine"], shape)
    fridge = np.broadcast_to(mask & e["refrigerator"], shape)
    k_ref = e["cop0"] * e["thermal_weight_cold"]
    _close("eta = eta0", eta, e["eta0"], problems,
           atol=ATOL + w_err * np.abs(e["eta0"]), mask=engine)
    _close("K = K0 sin^2 F_c", cop, k_ref, problems,
           atol=ATOL + w_err * np.abs(k_ref), mask=fridge)
    if np.any(engine & (eta > e["carnot_eta"] + 1e-12 + w_err)):
        problems.append("engine efficiency above the Carnot bound")
    if np.any(fridge & (cop > e["carnot_cop"] + 1e-12 + w_err * np.abs(k_ref))):
        problems.append("refrigerator COP above the Carnot bound")
    return engine, fridge


# --- per-command checks --------------------------------------------------------

def check_cycle(op, text):
    cfg = op["config"]
    meta, header, rows = parse_csv(text)
    problems = []
    e = cycle_expectation(cfg)
    by = {r[0]: r for r in rows}
    col = {name: header.index(name) for name in header}

    def cell(stroke, name):
        return float(by[stroke][col[name]])

    strokes = [r[0] for r in rows if r[0] != "total"]
    for s in strokes:
        residual = (cell(s, "energy_final") - cell(s, "energy_initial")
                    - cell(s, "work") - cell(s, "heat"))
        _close(f"first law, {s}", residual, 0.0, problems)
        _close(f"entropy production >= 0, {s}",
               min(cell(s, "entropy_production"), 0.0), 0.0, problems)
        if "connect" in s:
            _close(f"coupling cost, {s}", cell(s, "work"), 0.0, problems)
    _close("W_AB", cell("quench_up", "work"), e["work_up"], problems)
    _close("W_CD", cell("quench_down", "work"), e["work_down"], problems)
    _close("Q_h", cell("hot_contact", "heat"), e["heat_hot"], problems)
    _close("Q_c", cell("cold_contact", "heat"), e["heat_cold"], problems)
    _close("W", cell("total", "work"), e["work"], problems)
    _close("sigma_hot", cell("hot_contact", "entropy_production"), e["sigma_hot"],
           problems, rtol=1e-7, atol=1e-9)
    _close("sigma_cold", cell("cold_contact", "entropy_production"), e["sigma_cold"],
           problems, rtol=1e-7, atol=1e-9)
    w, qh, qc = cell("total", "work"), cell("hot_contact", "heat"), cell("cold_contact", "heat")
    _check_performance(e, -w / qh if qh else np.nan, qc / w if w else np.nan, True, problems)
    if op.get("oracle"):
        for s in ("hot_contact", "cold_contact"):
            _close(f"oracle heat, {s}", cell(s, "heat_oracle"), cell(s, "heat"),
                   problems, rtol=0.0, atol=1e-6)
        _close("oracle W", cell("total", "work_oracle"), e["work"], problems,
               rtol=0.0, atol=1e-6)
        dev = float(meta.get("oracle_max_energy_deviation", "nan"))
        if not dev <= 1e-6:
            problems.append(f"oracle deviation {dev!r} above 1e-6")
    return False, problems


def check_sweep(op, text):
    cfg, axis = op["config"], op["axis"]
    _, header, rows = parse_csv(text)
    problems = []
    values = np.linspace(op["lo"], op["hi"], op["n"])
    if len(rows) != values.size:
        return True, [f"sweep wrote {len(rows)} rows, expected {values.size}"]
    _close("axis values", _column(header, rows, axis), values, problems, rtol=1e-15, atol=0.0)
    e = cycle_expectation(cfg, **{axis: values})
    valid = _column(header, rows, "valid") == 1
    should = np.broadcast_to(e["valid"], values.shape)
    if np.any(valid & ~should):
        problems.append("a row outside the cycle constraints is marked valid")
    failed = bool(np.any(should & ~valid))
    if not np.any(valid):
        return failed, problems
    got = {name: _column(header, rows, name) for name in header[4:-1]}
    for name in ("work", "heat_hot", "heat_cold", "eta0", "cop0", "carnot_eta",
                 "carnot_cop", "thermal_weight_hot", "thermal_weight_cold",
                 "power", "kappa", "cyclicity_residual", "energy_residual"):
        _close(name, got[name], e[name], problems, mask=valid)
    for name in ("w_connect_hot", "w_disconnect_hot", "w_connect_cold", "w_disconnect_cold"):
        _close(name, got[name], 0.0, problems, mask=valid)
    engine, fridge = _check_performance(e, got["eta"], got["cop"], valid, problems)
    regime = np.array([r[3] for r in rows])
    clear = (e["gap"] > 1e-9) & (np.abs(e["work"]) > 1e-12)
    if np.any(engine & clear & (regime != "engine")):
        problems.append("engine-regime row not labelled engine")
    if np.any(fridge & clear & (regime != "refrigerator")):
        problems.append("refrigerator-regime row not labelled refrigerator")
    return failed, problems


def check_witness(op, text):
    g, t_max, n = op["g"], op["t_max"], op["points"]
    _, header, rows = parse_csv(text)
    if len(rows) != n:
        return True, [f"witness wrote {len(rows)} rows, expected {n}"]
    problems = []
    t = _column(header, rows, "t")
    _close("t grid", t, t_max * np.arange(1, n + 1) / n, problems, rtol=1e-15, atol=0.0)
    failed = False
    for name, f_ref, phase_ref in (("markovian", f_markovian, phase_markovian),
                                   ("nonmarkovian", f_nonmarkovian, phase_nonmarkovian)):
        f = _column(header, rows, f"f_{name}")
        phase = _column(header, rows, f"F_{name}")
        gamma = _column(header, rows, f"gamma_{name}")
        flag = _column(header, rows, f"markovian_flag_{name}")
        wmin = _column(header, rows, f"witness_min_eig_{name}")
        _close(f"f_{name}", f, f_ref(t, g), problems)
        _close(f"F_{name}", phase, phase_ref(t, g), problems)
        undefined = np.isnan(gamma) | np.isnan(wmin) | (flag == -1)
        if name == "markovian":
            failed |= bool(np.any(undefined))
            cos_f = np.exp(-t / (2 * g))
            # f tan F loses relative accuracy as cos F -> 0
            _close("Markovian gamma = 1/(2g)", gamma, 1 / (2 * g), problems,
                   rtol=RTOL + 1e-15 / cos_f, atol=0.0, mask=~undefined)
        else:
            ref = phase_ref(t, g)
            singular = np.abs(np.cos(ref)) < SINGULAR_COS + SINGULAR_ULPS * np.spacing(np.abs(ref))
            failed |= bool(np.any(undefined & ~singular))
            _close("gamma = f tan F", gamma, f * np.tan(phase), problems,
                   rtol=1e-12, atol=0.0, mask=~undefined)
        ok = ~undefined
        _close(f"flag_{name}", flag, (gamma >= RATE_FLOOR).astype(float), problems,
               rtol=0.0, atol=0.0, mask=ok & (np.abs(gamma - RATE_FLOOR) > 1e-12))
        want = np.minimum(0.0, np.minimum((1 - g) * gamma, (1 + g) * gamma))
        _close(f"witness min eig, {name}", wmin, want, problems,
               rtol=0.0, atol=1e-9 * np.maximum(1.0, np.abs(gamma)), mask=ok)
    return failed, problems


def check_dynamics(op, text):
    g, t_max, n = op["g"], op["t_max"], op["points"]
    _, header, rows = parse_csv(text)
    if len(rows) != n:
        return True, [f"dynamics wrote {len(rows)} rows, expected {n}"]
    problems = []
    t = _column(header, rows, "t")
    _close("t grid", t, np.linspace(0.0, t_max, n), problems, rtol=1e-15, atol=0.0)
    _close("sin^2 F, markovian", _column(header, rows, "p_ratio_markovian"),
           -np.expm1(-t / g), problems)
    _close("sin^2 F, nonmarkovian", _column(header, rows, "p_ratio_nonmarkovian"),
           np.sin(phase_nonmarkovian(t, g)) ** 2, problems)
    return False, problems


CHECKS = {"cycle": check_cycle, "sweep": check_sweep,
          "witness": check_witness, "dynamics": check_dynamics}

# the cell each self-test perturbs: (row, column) of a value the paper fixes
_PERTURB_AT = {"cycle": ("hot_contact", "heat"), "sweep": (0, "heat_hot"),
               "witness": (0, "gamma_markovian"), "dynamics": (-1, "p_ratio_markovian")}


def check(op, text, exit_code=0):
    """(failed, problems) for one operation's exit code and CSV text."""
    if exit_code != 0:
        return True, []
    try:
        return CHECKS[op["cmd"]](op, text)
    except (ValueError, KeyError, IndexError) as exc:
        return True, [f"unreadable output: {exc!r}"]


def perturb(cmd, text):
    """The same CSV with one closed-form value scaled by 1 + PERTURBATION."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[data[0]].split(",")
    row_key, name = _PERTURB_AT[cmd]
    body = data[1:]
    if isinstance(row_key, int):
        i = body[row_key]
    else:
        i = next(k for k in body if lines[k].split(",")[0] == row_key)
    cells = lines[i].split(",")
    j = header.index(name)
    cells[j] = repr(float(cells[j]) * (1 + PERTURBATION))
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def self_test(samples):
    """Problems found by re-checking each (op, text) sample, then a perturbed copy.

    The untouched output must pass and the perturbed one must be rejected;
    otherwise the checks would pass anything.
    """
    problems = []
    for op, text in samples:
        if check(op, text)[1]:
            problems.append(f"self-test: {op['id']} fails its own check")
        elif not check(op, perturb(op["cmd"], text))[1]:
            problems.append(f"self-test: {op['id']} accepts a perturbed output")
    return problems
