"""Seeded inputs for the four workloads.

``plan(workload, seed, workdir)`` writes the input files a round needs
(configs, a tabulated profile) under ``workdir`` and returns the round: a
list of operations, each a qotto command line plus the parameters the
independent checks need. The same seed gives the same files and the same
operations in the same order.

Operations that must fail until a known fault is mended use fixed inputs,
so every run attempts exactly the same share of them whatever its seed.
Seeded values stay inside ranges where qotto's closed forms are valid and
its tolerances hold, so no other operation fails on any seed.
"""

from __future__ import annotations

import json
import math
import os
import random

# Nominal seconds one round takes on the 2-core reference machine. A run's
# number of rounds is fixed from --seconds and these, never from the clock,
# so the operations attempted and failed repeat exactly between runs.
ROUND_SECONDS = {"cli_cold": 6.5, "sweep_grid": 2.0, "oracle_audit": 1.0,
                 "witness_scan": 2.1}

WORKLOADS = tuple(ROUND_SECONDS)

SWEEP_POINTS = 200
WITNESS_POINTS = 2000

DEFAULT_CONFIG = {"omega_c": 1.0, "omega_h": 2.0, "beta_c": 1.0, "beta_h": 0.2,
                  "tau_u1": 0.0, "tau_h": 2.0, "tau_u2": 0.0, "tau_c": 2.0,
                  "profile_h": "markovian", "profile_c": "markovian"}


def rounds_for(workload: str, seconds: float) -> int:
    return max(2, math.ceil(seconds / ROUND_SECONDS[workload]))


def _write_table(rng: random.Random, path: str) -> None:
    """A positive, decaying, rippled coupling f(t) on [t0, 10], 400 samples."""
    amp, decay = rng.uniform(0.6, 1.6), rng.uniform(1.5, 4.0)
    ripple, freq = rng.uniform(0.1, 0.4), rng.uniform(2.0, 6.0)
    t0 = rng.uniform(0.005, 0.02)
    with open(path, "w", encoding="utf-8") as stream:
        stream.write("# t f(t)\n")
        for k in range(400):
            t = t0 + (10.0 - t0) * k / 399
            f = amp * math.exp(-t / decay) * (1.0 + ripple * math.sin(freq * t)) + 0.02
            stream.write(f"{t!r} {f!r}\n")


def _write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(config, stream)


def _op(workdir, ops, cmd, args, **params):
    op_id = f"{len(ops):02d}-{cmd}"
    out_path = os.path.join(workdir, "out", op_id + ".csv")
    ops.append({"id": op_id, "cmd": cmd, "argv": [cmd, *args, "--out", out_path],
                "out": out_path, **params})


def _seeded_config(rng: random.Random, profile_h: str, profile_c: str) -> dict:
    omega_c = rng.uniform(0.8, 1.2)
    return {"omega_c": omega_c, "omega_h": omega_c * rng.uniform(1.6, 2.4),
            "beta_c": rng.uniform(0.8, 1.6), "beta_h": rng.uniform(0.1, 0.4),
            "tau_u1": rng.uniform(0.0, 0.5), "tau_h": rng.uniform(0.5, 3.0),
            "tau_u2": rng.uniform(0.0, 0.5), "tau_c": rng.uniform(0.5, 3.0),
            "profile_h": profile_h, "profile_c": profile_c}


def _sweep_op(workdir, ops, config, axis, lo, hi, n, name):
    path = os.path.join(workdir, f"{name}.json")
    _write_config(path, config)
    _op(workdir, ops, "sweep", ["--config", path, "--sweep", f"{axis}:{lo!r}:{hi!r}:{n}"],
        config=config, axis=axis, lo=lo, hi=hi, n=n)


def _cli_cold(rng, workdir, table, ops):
    tab = f"tabulated:{table}"
    cfg = _seeded_config(rng, "markovian", "markovian")
    sets = [f"{k}={v!r}" for k, v in cfg.items() if not k.startswith("profile")]
    _op(workdir, ops, "cycle", sum((["--set", s] for s in sets), []), config=cfg)
    for name, ph, pc in (("nonmarkovian", "nonmarkovian", "nonmarkovian"),
                         ("mixed", tab, "nonmarkovian")):
        cfg = _seeded_config(rng, ph, pc)
        path = os.path.join(workdir, f"cycle-{name}.json")
        _write_config(path, cfg)
        _op(workdir, ops, "cycle", ["--config", path], config=cfg)
    cfg = {**DEFAULT_CONFIG, "profile_h": tab, "profile_c": tab,
           "tau_h": rng.uniform(0.5, 3.0), "tau_c": rng.uniform(0.5, 3.0)}
    _op(workdir, ops, "cycle", ["--set", f"profile_h={tab}", "--set", f"profile_c={tab}",
                                "--set", f"tau_h={cfg['tau_h']!r}",
                                "--set", f"tau_c={cfg['tau_c']!r}"], config=cfg)
    g, t_max = rng.uniform(0.3, 0.95), rng.uniform(2.0, 6.0)
    _op(workdir, ops, "dynamics", ["--g", repr(g), "--t-max", repr(t_max)],
        g=g, t_max=t_max, points=500)
    g, t_max = rng.uniform(0.3, 0.95), rng.uniform(1.0, 3.0)
    _op(workdir, ops, "witness", ["--g", repr(g), "--t-max", repr(t_max), "--points", "200"],
        g=g, t_max=t_max, points=200)
    _sweep_op(workdir, ops, _seeded_config(rng, "markovian", "markovian"), "tau_c",
              rng.uniform(0.05, 0.2), rng.uniform(3.0, 6.0), 50, "sweep-cold")


def _sweep_grid(rng, workdir, table, ops):
    for profile in ("markovian", "nonmarkovian", f"tabulated:{table}"):
        cfg = _seeded_config(rng, profile, profile)
        wc, wh, bc = cfg["omega_c"], cfg["omega_h"], cfg["beta_c"]
        ranges = {
            "tau_h": (rng.uniform(0.05, 0.2), rng.uniform(4.0, 8.0)),
            "tau_c": (rng.uniform(0.05, 0.2), rng.uniform(4.0, 8.0)),
            # beta_h = atanh(g_h)/omega_h stays below beta_c
            "g_h": (rng.uniform(0.02, 0.1), math.tanh(rng.uniform(0.3, 0.85) * bc * wh)),
            # crosses omega_h = beta_c omega_c / beta_h: engine and refrigerator rows
            "omega_h": (wc * rng.uniform(1.1, 1.4), wc * rng.uniform(2.6, 4.0)),
        }
        for axis, (lo, hi) in ranges.items():
            _sweep_op(workdir, ops, cfg, axis, lo, hi, SWEEP_POINTS,
                      f"sweep-{profile.split(':')[0]}-{axis}")
    # fixed cold-limit sweep: every row is a valid config, but strong_cycle
    # raises SupportViolationError once beta_c * omega_c is about 17
    _sweep_op(workdir, ops, dict(DEFAULT_CONFIG), "beta_c", 12.0, 24.0, SWEEP_POINTS,
              "sweep-cold-limit")


def _oracle_audit(rng, workdir, table, ops):
    # hot g (small beta*omega) and cold g (near 1); strokes shorter and
    # longer than g. Seeds jitter by a few percent so the integrator's work,
    # and with it the operation times, hardly depends on the seed.
    def jitter():
        return rng.uniform(0.97, 1.03)

    cases = []
    for kind in ("markovian", "nonmarkovian"):
        for beta_h, beta_c in ((0.1, 0.5), (0.6, 2.0)):
            for ratio in (0.5, 3.0):
                cases.append((kind, kind, beta_h, beta_c, ratio))
    cases.append(("markovian", "nonmarkovian", 0.3, 1.0, 1.5))
    for ph, pc, beta_h, beta_c, ratio in cases:
        scale = jitter()
        cfg = {"omega_c": scale, "omega_h": 2.0 * scale,
               "beta_c": beta_c * jitter(), "beta_h": beta_h * jitter(),
               "tau_u1": 0.1, "tau_u2": 0.1, "profile_h": ph, "profile_c": pc}
        g_h = math.tanh(cfg["beta_h"] * cfg["omega_h"])
        g_c = math.tanh(cfg["beta_c"] * cfg["omega_c"])
        cfg["tau_h"] = ratio * g_h * jitter()
        cfg["tau_c"] = ratio * g_c * jitter()
        path = os.path.join(workdir, f"oracle-{len(ops):02d}.json")
        _write_config(path, cfg)
        _op(workdir, ops, "cycle", ["--config", path, "--oracle"], config=cfg, oracle=True)


def _witness_scan(rng, workdir, table, ops):
    for k in range(6):
        g = rng.uniform(0.2, 0.95)
        # long horizons stay below 20 g, where cos F = e^{-t/2g} > 4e-5
        t_max = rng.uniform(1.0, 3.0) if k % 2 == 0 else g * rng.uniform(8.0, 20.0)
        _op(workdir, ops, "witness",
            ["--g", repr(g), "--t-max", repr(t_max), "--points", str(WITNESS_POINTS)],
            g=g, t_max=t_max, points=WITNESS_POINTS)
    # fixed: Markovian rows turn NaN from t ~ 29.5 although gamma = 1/(2g)
    _op(workdir, ops, "witness",
        ["--g", "0.8", "--t-max", "60", "--points", str(WITNESS_POINTS)],
        g=0.8, t_max=60.0, points=WITNESS_POINTS)


_BUILDERS = {"cli_cold": _cli_cold, "sweep_grid": _sweep_grid,
             "oracle_audit": _oracle_audit, "witness_scan": _witness_scan}


def plan(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of one round under workdir and return its operations."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    table = os.path.join(workdir, "profile.tab")
    _write_table(rng, table)
    ops = []
    _BUILDERS[workload](rng, workdir, table, ops)
    return ops
