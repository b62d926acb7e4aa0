import contextlib
import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qotto import __version__, cli, cycle, profiles
from qotto.cli import load_cycle_config, main
from qotto.cycle import NUMERIC_FIELDS, build_config, strong_cycle
from qotto.dynamics import cp_divisibility_witness, vectorized_reps
from qotto.errors import ConfigError, SingularGeneratorError
from qotto.profiles import MarkovianProfile, NonMarkovianProfile

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    """Re-parse an emitted CSV: (metadata, header, rows with floats restored)."""
    metadata, lines = {}, []
    with open(path, encoding="utf-8", newline="") as stream:
        for line in stream:
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    metadata[key.strip()] = value.strip()
            else:
                lines.append(line)
    header, *cells = csv.reader(lines)
    rows = []
    for row in cells:
        parsed = []
        for cell in row:
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        rows.append(parsed)
    return metadata, header, rows


def column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


def run(args):
    return main(args)


class TestWitnessScan:
    def test_markovian_constant_and_nonmarkovian_negative(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["witness", "--g", "0.8", "--t-max", "2", "--points", "2000",
                    "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        gamma_m = column(header, rows, "gamma_markovian")
        assert max(abs(v - 0.625) for v in gamma_m) <= 1e-9
        gamma_nm = column(header, rows, "gamma_nonmarkovian")
        assert min(gamma_nm) < 0.0
        flags = column(header, rows, "markovian_flag_nonmarkovian")
        assert 0 in flags
        wmin = column(header, rows, "witness_min_eig_nonmarkovian")
        assert min(v for v in wmin if not math.isnan(v)) < 0.0

    def test_half_g_rate(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["witness", "--g", "0.5", "--t-max", "2", "--points", "50",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        gamma_m = column(header, rows, "gamma_markovian")
        assert max(abs(v - 1.0) for v in gamma_m) <= 1e-9

    def test_markovian_columns_finite_past_the_singular_phase(self, tmp_path):
        # from t ~ 37g, |cos F| < 1e-8 and the map is not invertible, yet
        # gamma = 1/(2g) and the witness spectrum stay known in closed form
        out = tmp_path / "scan.csv"
        assert run(["witness", "--g", "0.8", "--t-max", "60", "--points", "2000",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        gammas = column(header, rows, "gamma_markovian")
        flags = column(header, rows, "markovian_flag_markovian")
        wmins = column(header, rows, "witness_min_eig_markovian")
        assert all(math.isfinite(v) for v in gammas + wmins)
        assert -1 not in flags
        for gamma, wmin in zip(gammas, wmins):
            closed = min(0.0, 1.8 * gamma, 0.2 * gamma)
            assert abs(wmin - closed) <= 1e-9 * max(1.0, abs(gamma))

    @pytest.mark.parametrize("argv", [["--g", "0.8", "--t-max", "2", "--points", "2000"],
                                      ["--g", "0.8", "--t-max", "60", "--points", "2000"]],
                             ids=["readme", "past-the-singular-phase"])
    def test_needs_no_maps_or_eigensolves(self, argv, tmp_path, monkeypatch):
        from qotto import cli

        def forbidden(*args, **kwargs):
            raise AssertionError("the witness scan must stay on scalars")
        monkeypatch.setattr(cli, "vectorized_reps", forbidden)
        monkeypatch.setattr(cli, "cp_divisibility_witness", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert run(["witness", *argv, "--out", str(tmp_path / "scan.csv")]) == 0

    @pytest.mark.parametrize("profile", [MarkovianProfile, NonMarkovianProfile])
    def test_matches_the_audit_witness(self, profile, tmp_path):
        # the 4x4 witness of the library, at the scan's omega = 1, wherever the map
        # is invertible
        out = tmp_path / "scan.csv"
        assert run(["witness", "--g", "0.8", "--t-max", "3", "--points", "300",
                    "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert float(meta["omega"]) == 1.0
        name = "markovian" if profile is MarkovianProfile else "nonmarkovian"
        reference = profile(g=0.8)
        checked = 0
        for t, gamma, wmin in zip(column(header, rows, "t"),
                                  column(header, rows, f"gamma_{name}"),
                                  column(header, rows, f"witness_min_eig_{name}")):
            try:
                _, evals = cp_divisibility_witness(vectorized_reps(reference, 1.0, t))
            except SingularGeneratorError:
                continue
            assert abs(wmin - float(evals.min())) <= 1e-9 * max(1.0, abs(gamma))
            checked += 1
        assert checked >= 250

    def test_empty_range_is_usage_error(self):
        assert run(["witness", "--t-max", "0", "--points", "100"]) == 1
        assert run(["witness", "--t-max", "2", "--points", "1"]) == 1


class TestPowerTrace:
    def test_markovian_closed_form_and_crossing(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run(["dynamics", "--g", "0.8", "--t-max", "5", "--points", "800",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        ts = column(header, rows, "t")
        markovian = column(header, rows, "p_ratio_markovian")
        nonmarkovian = column(header, rows, "p_ratio_nonmarkovian")
        assert rows[0][0] == 0.0 and markovian[0] == 0.0 and nonmarkovian[0] == 0.0
        for t, value in zip(ts, markovian):
            assert abs(value - (-math.expm1(-t / 0.8))) <= 1e-9
        gaps = [nm - m for t, m, nm in zip(ts, markovian, nonmarkovian) if t <= 1.0]
        assert max(gaps) > 0.0


class TestHugeTimes:
    """Valid times up to the float maximum give finite rows without a warning
    (the suite turns every warning into an error)."""

    def test_nonmarkovian_cycle_with_longest_hot_contact(self, tmp_path, capsys):
        out = tmp_path / "cycle.csv"
        assert run(["cycle", "--set", "profile_h=nonmarkovian", "--set", "tau_h=1e308",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert all(math.isfinite(cell) for row in rows for cell in row[1:])
        assert "thermal weights: hot 1," in capsys.readouterr().out

    def test_power_trace_to_the_float_maximum(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run(["dynamics", "--g", "1", "--t-max", "1e308", "--points", "3",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "t") == [0.0, 5e307, 1e308]
        assert column(header, rows, "p_ratio_nonmarkovian") == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("t_max", [1e200, 1e308])
    def test_witness_scan_to_huge_times(self, t_max, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["witness", "--t-max", repr(t_max), "--points", "3",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        ts = column(header, rows, "t")
        assert all(math.isfinite(t) for t in ts) and ts[-1] == pytest.approx(t_max)
        assert all(math.isfinite(f) for f in column(header, rows, "f_nonmarkovian"))


class TestCycleCommand:
    def test_engine_summary_and_audits(self, tmp_path, capsys):
        out = tmp_path / "cycle.csv"
        code = run(["cycle", "--set", "tau_h=60", "--set", "tau_c=60",
                    "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "regime: engine" in text
        assert "eta = 0.5" in text
        assert "FAIL" not in text
        _, header, rows = read_csv(out)
        strokes = column(header, rows, "stroke")
        assert strokes[-1] == "total"
        works = column(header, rows, "work")
        for name, w in zip(strokes, works):
            if "connect" in name:
                assert abs(w) <= 1e-12

    def test_refrigerator_half_cop(self, tmp_path, capsys):
        g_c = math.tanh(1.0)
        out = tmp_path / "cycle.csv"
        code = run(["cycle", "--set", "beta_h=0.6", "--set", "tau_h=50",
                    "--set", f"tau_c={g_c * math.log(2.0)}", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "regime: refrigerator" in text
        assert "K = 0.5" in text

    def test_barely_thermalized_hot_contact_keeps_eta0(self, tmp_path, capsys):
        # W = W0 sin^2 F_h is ~1e-16 here; as a sum of two quench works of
        # size omega_h it would read eta = 0.41
        code = run(["cycle", "--set", "tau_h=1e-15", "--set", "beta_c=2",
                    "--set", "beta_h=0.5", "--out", str(tmp_path / "cycle.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "regime: engine" in text
        assert "eta = 0.5 (eta0 = 0.5" in text

    def test_cold_baths_one_ulp_apart_pass_carnot(self, tmp_path, capsys):
        # g_c - g_h is one ulp: the net work must not be rounding noise
        code = run(["cycle", "--set", "beta_c=18.5", "--set", "beta_h=9.1",
                    "--out", str(tmp_path / "cycle.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "audit carnot: pass" in text
        assert "FAIL" not in text

    def test_oracle_columns(self, tmp_path):
        out = tmp_path / "cycle.csv"
        code = run(["cycle", "--set", "tau_h=1.0", "--set", "tau_c=1.0",
                    "--oracle", "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert "work_oracle" in header and "heat_oracle" in header
        dev = float(meta["oracle_max_energy_deviation"])
        assert dev <= 1e-5
        heats = column(header, rows, "heat")
        oracle_heats = column(header, rows, "heat_oracle")
        assert max(abs(a - b) for a, b in zip(heats, oracle_heats)) <= 1e-5

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"beta_h": 0.6, "tau_h": 3.0, "tau_c": 3.0}))
        out = tmp_path / "cycle.csv"
        assert run(["cycle", "--config", str(cfg), "--set", "tau_c=5.0",
                    "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert meta["config.beta_h"] == "0.59999999999999998"
        assert meta["config.tau_c"] == "5"

    def test_tabulated_profile_from_file(self, tmp_path):
        import numpy as np
        from qotto.profiles import MarkovianProfile
        g_c = math.tanh(1.0)
        reference = MarkovianProfile(g=g_c)
        grid = np.linspace(1e-3, 3.0, 3001) ** 2
        table = tmp_path / "cold.txt"
        table.write_text("# sampled coupling\n" + "\n".join(
            f"{t:.17g} {reference.f(t):.17g}" for t in grid))
        out = tmp_path / "cycle.csv"
        code = run(["cycle", "--set", f"profile_c=tabulated:{table}",
                    "--set", "tau_h=3.0", "--set", "tau_c=3.0", "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert meta["profile_c.head_phase_approximated"] == "True"
        # sampled profile reproduces the analytic cold heat to table accuracy
        heat = column(header, rows, "heat")[column(header, rows, "stroke").index("cold_contact")]
        analytic_cfg = ["cycle", "--set", "tau_h=3.0", "--set", "tau_c=3.0",
                        "--out", str(tmp_path / "ref.csv")]
        assert run(analytic_cfg) == 0
        _, rh, rrows = read_csv(tmp_path / "ref.csv")
        ref_heat = column(rh, rrows, "heat")[column(rh, rrows, "stroke").index("cold_contact")]
        assert heat == pytest.approx(ref_heat, abs=5e-3)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"volume": 2.0}))
        assert run(["cycle", "--config", str(cfg)]) == 1

    def test_bad_set_pair_rejected(self):
        assert run(["cycle", "--set", "tau_h"]) == 1
        assert run(["cycle", "--set", "tau_h=fast"]) == 1

    def test_missing_config_file_is_runtime_error(self, tmp_path):
        assert run(["cycle", "--config", str(tmp_path / "absent.json")]) == 2

    def test_summary_reports_the_sign_based_regime_only(self, tmp_path, capsys):
        assert run(["cycle", "--out", str(tmp_path / "c.csv")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "regime: engine"

    @pytest.mark.parametrize("text, kind", [("5", "int"), ("null", "NoneType"),
                                            ('"abc"', "str"), ("[1, 2]", "list")])
    def test_non_object_config_is_config_error(self, text, kind, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert run(["cycle", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert f"config file must hold a JSON object, got {kind}" in err
        assert "unknown config key" not in err


class TestSweep:
    def test_cop_monotone_toward_baseline(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--sweep", "tau_c:0.1:5:12", "--set", "beta_h=0.6",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        cops = column(header, rows, "cop")
        assert all(b > a for a, b in zip(cops, cops[1:]))
        assert cops[-1] < column(header, rows, "cop0")[-1]

    def test_eta_constant_over_tau_h(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--sweep", "tau_h:0.2:4:9", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        etas = column(header, rows, "eta")
        assert max(abs(v - 0.5) for v in etas) <= 1e-12

    def test_single_point_matches_cycle_totals(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        cycle_out = tmp_path / "cycle.csv"
        assert run(["sweep", "--sweep", "tau_c:2.0:2.0:1", "--out", str(sweep_out)]) == 0
        assert run(["cycle", "--out", str(cycle_out)]) == 0
        _, sh, srows = read_csv(sweep_out)
        _, ch, crows = read_csv(cycle_out)
        total = crows[-1]
        assert column(sh, srows, "work")[0] == total[ch.index("work")]
        assert (column(sh, srows, "heat_hot")[0] + column(sh, srows, "heat_cold")[0]
                == pytest.approx(total[ch.index("heat")], abs=1e-15))

    def test_cold_limit_rows_are_valid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--sweep", "beta_c:12:24:200", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 200
        assert column(header, rows, "valid") == [1] * 200
        assert all(math.isfinite(v) for v in column(header, rows, "eta"))

    def test_invalid_points_are_flagged(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # omega_h sweep dips below omega_c = 1: those grid points are skipped
        assert run(["sweep", "--sweep", "omega_h:0.5:3:6", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        valid = column(header, rows, "valid")
        assert 0 in valid and 1 in valid
        for row in rows:
            if row[header.index("valid")] == 0:
                assert row[header.index("regime")] == "skipped"

    def test_requires_axis_spec(self):
        assert run(["sweep"]) == 1
        assert run(["sweep", "--sweep", "tau_c:0:1"]) == 1
        assert run(["sweep", "--sweep", "volume:0:1:5"]) == 1
        assert run(["sweep", "--sweep", "tau_c:5:1:3"]) == 1


class TestOneArrayEvaluation:
    """sweep, witness and dynamics evaluate their grid in one array call each: none
    goes through the one-point strong_cycle, apply_axis or rate_gamma."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--sweep", "tau_h:0.1:5:1000"],
        ["sweep", "--sweep", "g_c:0.5:0.9:50", "--set", "profile_h=nonmarkovian"],
        ["witness"], ["witness", "--t-max", "60"], ["dynamics"]], ids=" ".join)
    def test_grids_take_no_one_point_route(self, argv, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a grid command went through a one-point route")
        for module, name in ((cli, "strong_cycle"), (cli, "apply_axis"), (cli, "rate_gamma"),
                             (cycle, "strong_cycle"), (cycle, "apply_axis"),
                             (profiles, "rate_gamma")):
            monkeypatch.setattr(module, name, forbidden)
        assert run([*argv, "--out", str(tmp_path / "grid.csv")]) == 0
        assert len(read_csv(tmp_path / "grid.csv")[2]) in (50, 500, 1000, 2000)


_CSV_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, math.nan, math.inf, -math.inf]))
_CSV_CELLS = st.one_of(_CSV_FLOATS, _CSV_FLOATS.map(np.float64), st.integers(-10**20, 10**20),
                       st.booleans(), st.text(max_size=8),
                       st.sampled_from(["a,b", 'say "hi"', "x\ny", "\r"]))


def _reference_cell(value) -> str:
    """One cell as a CSV cell: 17 significant digits, RFC 4180 quoting, str() otherwise."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, str) and any(ch in value for ch in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


class TestCsvCells:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=8), min_size=1, max_size=4))
    def test_cells_match_the_reference_formatting(self, rows):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_csv(None, ["h"], rows, {"k": 1.5})
        expected = f"# qotto {__version__}\n# k = 1.5\nh\n" + "".join(
            ",".join(_reference_cell(cell) for cell in row) + "\n" for row in rows)
        assert out.getvalue() == expected


class TestCsvContract:
    def test_round_trip_exact(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run(["dynamics", "--g", "0.8", "--t-max", "3", "--points", "50",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        from qotto.profiles import MarkovianProfile, NonMarkovianProfile
        m, nm = MarkovianProfile(g=0.8), NonMarkovianProfile(g=0.8)
        for t, pm, pnm in rows:
            assert pm == m.thermal_weight(t)
            assert pnm == nm.thermal_weight(t)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["witness", "--g", "0.8", "--t-max", "1", "--points", "64", "--seed", "7"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QOTTO_OUT_DIR", str(tmp_path))
        assert run(["dynamics", "--points", "4", "--t-max", "1", "--out", "x.csv"]) == 0
        assert (tmp_path / "x.csv").exists()

    def test_unwritable_output_is_runtime_error(self, tmp_path):
        out = tmp_path / "missing" / "deep" / "x.csv"
        assert run(["dynamics", "--points", "4", "--t-max", "1", "--out", str(out)]) == 2


class TestExitCodes:
    def test_audit_failure_exits_three(self, tmp_path, monkeypatch):
        from qotto import cycle as cycle_mod

        def broken_audits(self):
            return {"first_law_strokes": (1.0, False)}
        monkeypatch.setattr(cycle_mod.CycleReport, "law_audits", broken_audits)
        assert run(["cycle", "--out", str(tmp_path / "c.csv")]) == 3

    def test_runtime_failure_in_oracle_exits_two(self, tmp_path, capsys, monkeypatch):
        from qotto import cycle as cycle_mod
        from qotto.errors import IntegrationFailureError

        def failing(*args, **kwargs):
            raise IntegrationFailureError("step size underflow")
        monkeypatch.setattr(cycle_mod, "oracle_propagate", failing)
        code = run(["cycle", "--oracle", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("bath", ["hot", "cold"])
    def test_oracle_budget_exits_two(self, bath, tmp_path, capsys):
        from qotto.dynamics import ORACLE_RHS_BUDGET
        start = time.perf_counter()
        code = run(["cycle", "--oracle", "--set", f"profile_{bath[0]}=nonmarkovian",
                    "--set", f"tau_{bath[0]}=1e200", "--out", str(tmp_path / "c.csv")])
        elapsed = time.perf_counter() - start
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and f"budget of {ORACLE_RHS_BUDGET}" in err
        assert err.startswith(f"runtime error: {bath} contact: ")
        assert elapsed < 20.0  # about 2 s; unbounded before the budget

    def test_oracle_mismatch_exits_three(self, capsys, monkeypatch):
        from qotto import cli
        monkeypatch.setattr(cli, "max_energy_deviation", lambda closed, oracle: 1.0)
        assert run(["cycle", "--oracle"]) == 3
        err = capsys.readouterr().err
        # the audit reads the deviation in units of the default omega_h = 2
        assert "audit oracle_match: FAIL (5.000e-01)" in err.splitlines()
        assert err.endswith("audit failure: oracle_match\n")

    @pytest.mark.parametrize("argv", [["cycle", "--bogus"], []], ids=["bogus-flag", "bare"])
    def test_usage_error_exits_one(self, argv, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_csv_to_stdout(self, capsys):
        assert run(["dynamics", "--points", "3"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        header, *rows = csv.reader(lines)
        assert header == ["t", "p_ratio_markovian", "p_ratio_nonmarkovian"]
        assert [len(row) for row in rows] == [3, 3, 3]
        assert float(rows[-1][0]) == 5.0

    def test_non_numeric_sweep_bounds(self, capsys):
        assert run(["sweep", "--sweep", "tau_h:a:b:3"]) == 1
        assert capsys.readouterr().err == (
            "config error: --sweep bounds must be numeric, got 'tau_h:a:b:3'\n")

    @pytest.mark.parametrize("count", ["1e3", "2.5"])
    def test_non_integer_sweep_count(self, count, capsys):
        assert run(["sweep", "--sweep", f"tau_h:0:1:{count}"]) == 1
        assert capsys.readouterr().err == (
            f"config error: --sweep count must be an integer, got '{count}'\n")

    def test_oracle_answers_cold_bath(self, tmp_path):
        # the cold bath's upper level rounds to zero: the oracle's entropy
        # production must not go through the 4x4 relative entropy
        out = tmp_path / "c.csv"
        assert run(["cycle", "--oracle", "--set", "beta_c=1e6", "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert float(meta["oracle_max_energy_deviation"]) <= 1e-5

    @pytest.mark.parametrize("pair, field", [("tau_h=nan", "tau_h"), ("tau_c=inf", "tau_c")])
    def test_non_finite_value_is_config_error(self, pair, field, tmp_path, capsys):
        assert run(["cycle", "--set", pair, "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{field} must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["dynamics", "--t-max", "nan"], ["dynamics", "--t-max", "inf"],
        ["witness", "--t-max", "nan"], ["witness", "--t-max", "inf"],
        ["sweep", "--sweep", "tau_h:nan:1:3"], ["sweep", "--sweep", "tau_h:0:inf:3"],
    ], ids=" ".join)
    def test_non_finite_numbers_are_config_errors(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and argv[1] in err and "finite" in err
        assert not (tmp_path / "x.csv").exists()

    def test_mistyped_config_values_are_listed(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"omega_c": "abc", "tau_h": None, "beta_h": True,
                                    "profile_c": 1}))
        assert run(["cycle", "--config", str(path), "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        for key in ("omega_c", "tau_h", "beta_h", "profile_c"):
            assert key in err

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "qotto", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "qotto" in proc.stdout

    def test_only_the_oracle_imports_scipy(self, tmp_path):
        script = f"""
import sys
import qotto.cli
out = {str(tmp_path / "x.csv")!r}
for argv in (["dynamics"], ["witness", "--points", "20"],
             ["sweep", "--sweep", "tau_c:0.1:2:5"], ["cycle"]):
    assert qotto.cli.main(argv + ["--out", out]) == 0, argv
assert "scipy" not in sys.modules
assert qotto.cli.main(["cycle", "--oracle", "--out", out]) == 0
assert "scipy.integrate" in sys.modules
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _scaled_values(k: int, tau_h: float, tau_c: float) -> dict:
    """The default cycle with (omega, beta) -> (2^k omega, beta / 2^k)."""
    return {"omega_c": math.ldexp(1.0, k), "omega_h": math.ldexp(2.0, k),
            "beta_c": math.ldexp(1.0, -k), "beta_h": math.ldexp(0.2, -k),
            "tau_h": tau_h, "tau_c": tau_c}


def _as_sets(values: dict, profile: str) -> list[str]:
    pairs = [f"{key}={value!r}" for key, value in values.items()]
    pairs += [f"profile_h={profile}", f"profile_c={profile}"]
    return [arg for pair in pairs for arg in ("--set", pair)]


_STROKE_TIMES = st.floats(0.05, 6.0)


class TestEnergyScale:
    """hbar = k_B = 1 leaves the unit of energy free: scaling every omega by
    2^k and every beta by 2^-k, durations kept, scales each stroke energy by
    exactly 2^k, so no audit verdict or exit code may change."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(-60, 60), _STROKE_TIMES, _STROKE_TIMES,
           st.sampled_from(["markovian", "nonmarkovian"]))
    def test_closed_form_route(self, tmp_path_factory, k, tau_h, tau_c, profile):
        out = str(tmp_path_factory.getbasetemp() / "c.csv")
        reports, codes = [], []
        for j in (0, k):
            values = _scaled_values(j, tau_h, tau_c)
            reports.append(strong_cycle(build_config(**values, kind_h=profile)))
            codes.append(_cli(["cycle", *_as_sets(values, profile), "--out", out])[0])
        ref, report = reports
        for name in ref.strokes:
            for field in ("work", "heat", "internal_energy_initial", "internal_energy_final"):
                assert getattr(report.strokes[name], field) == \
                    math.ldexp(getattr(ref.strokes[name], field), k), (name, field)
        assert report.law_audits() == ref.law_audits()
        assert codes == [0, 0]

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(st.integers(-40, 60))
    def test_oracle_route(self, k):
        # not below k = -40: from omega_h ~ 1e-13 the oracle's disconnection
        # costs, rounding errors of size f * 1e-18 that do not scale with
        # omega, exceed TOL.oracle_cycle_match in units of omega_h
        for j in (0, k):
            code, err, _ = _cli(["cycle", "--oracle",
                                 *_as_sets(_scaled_values(j, 2.0, 2.0), "nonmarkovian")])
            assert code == 0, err
            assert "audit oracle_match: pass" in err


_SET_FAULTS = [
    (["beta_c=-1"], "beta_c must exceed beta_h, got -1.0 <= 0.2"),
    (["omega_c=-1", "beta_h=-1"],
     "omega_c must be > 0, got -1.0; beta_h must be >= 0, got -1.0"),
    (["omega_c=abc", "tau_h=xyz"],
     "omega_c must be a number, got 'abc'; tau_h must be a number, got 'xyz'"),
    (["tau_h=1e308", "tau_c=1e308"],
     "the total duration tau_u1 + tau_h + tau_u2 + tau_c must be finite, got inf"),
    (["tau_h=nan"], "tau_h must be finite, got nan"),
    (["beta_h=0"], "beta_h must be > 0 so that the hot profile has g > 0"),
    (["tau_h"], "--set expects key=value, got 'tau_h'"),
    (["tau_h", "volume=2", "omega_c=1"],
     "--set expects key=value, got 'tau_h'; unknown config key 'volume'"),
]


class TestConfigFaults:
    """Every config fault exits 1 with one line that names each offending field."""

    @pytest.mark.parametrize("sets, message", _SET_FAULTS,
                             ids=[" ".join(sets) for sets, _ in _SET_FAULTS])
    def test_set_faults(self, sets, message, tmp_path, capsys):
        argv = ["cycle"] + [arg for pair in sets for arg in ("--set", pair)]
        assert run(argv + ["--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"tau_h": 1' + "0" * 400 + "}",
         "tau_h must be a number, got an int too large for a float"),
        ('{"volume": 2, "beta": 1}', "unknown config key 'beta'; unknown config key 'volume'"),
        ('{"omega_c": "abc", "tau_c": null, "profile_c": 1}',
         "omega_c must be a number, got 'abc'; tau_c must be a number, got None; "
         "profile_c must be a string, got 1"),
    ], ids=["int-beyond-float", "unknown-keys", "mistyped"])
    def test_config_file_faults(self, text, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run(["cycle", "--config", str(path), "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("0.1 1\nnan 1\n0.3 1\n", "tabulated profile {path} holds a non-finite sample"),
        ("0.1 1\n0.2 1\n0.3 inf\n", "tabulated profile {path} holds a non-finite sample"),
        ("", "tabulated profile {path} holds no samples"),
        ("# t f\n# none yet\n", "tabulated profile {path} holds no samples"),
        ("0.1 1 2\n0.2 1 2\n", "expected two columns (t, f) in {path}, got 3"),
        ("0.1 1\n0.2 1\n", "t = 2.0 outside tabulated domain [0.1, 0.2]"),
    ], ids=["nan-time", "inf-value", "empty", "comments-only", "three-columns",
            "tau-past-table"])
    def test_table_faults(self, text, message, tmp_path, capsys):
        path = tmp_path / "table.txt"
        path.write_text(text)
        argv = ["cycle", "--set", f"profile_h=tabulated:{path}", "--out", str(tmp_path / "c.csv")]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"
        assert not (tmp_path / "c.csv").exists()

    def test_table_spec_without_path(self, tmp_path, capsys):
        assert run(["cycle", "--set", "profile_h=tabulated:",
                    "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err == (
            "config error: profile 'tabulated:' names no table file (tabulated:PATH)\n")

    def test_invalid_sweep_rows_carry_the_field_message(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--sweep", "beta_c:-1:1:3", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "valid") == [0, 0, 1]
        assert column(header, rows, "error") == [
            "beta_c must exceed beta_h, got -1.0 <= 0.2",
            "beta_c must exceed beta_h, got 0.0 <= 0.2", ""]
        assert all(len(row) == len(header) for row in rows)


# a numeric config value: valid, out of range, not finite, not a number, or a
# duration large enough that two of them overflow the cycle time
_VALUES = st.one_of(st.floats(0.1, 5.0), st.sampled_from(
    [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 10**400, True, None, "abc", ""]))
_RAW_CONFIGS = st.fixed_dictionaries(
    {}, optional={**{key: _VALUES for key in NUMERIC_FIELDS},
                  "profile_h": st.sampled_from(["markovian", 1, None]),
                  "profile_c": st.sampled_from(["markovian", 1, None])})
_DEFAULTS = {"omega_c": 1.0, "omega_h": 2.0, "beta_c": 1.0, "beta_h": 0.2,
             "tau_u1": 0.0, "tau_h": 2.0, "tau_u2": 0.0, "tau_c": 2.0,
             "profile_h": "markovian", "profile_c": "markovian"}


def _offending(raw: dict) -> set:
    """The config keys a validator must name for ``raw`` over the defaults."""
    cfg = {**_DEFAULTS, **raw}

    def number(value):
        try:
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:
            return False
    bad = {key for key in NUMERIC_FIELDS if not number(cfg[key])}
    ok = {key: cfg[key] for key in NUMERIC_FIELDS if key not in bad}
    rules = {"omega_c": lambda: ok["omega_c"] <= 0,
             "omega_h": lambda: ok["omega_h"] <= 0 or ok["omega_h"] <= ok["omega_c"],
             "beta_h": lambda: ok["beta_h"] < 0,
             "beta_c": lambda: ok["beta_c"] <= ok["beta_h"],
             **{key: lambda key=key: ok[key] < 0 for key in NUMERIC_FIELDS[4:]}}
    for key, rule in rules.items():
        try:
            if rule():
                bad.add(key)
        except KeyError:  # the rule reads a field that is not a number
            pass
    if all(key in ok for key in NUMERIC_FIELDS[4:]) and \
            sum(ok[key] for key in NUMERIC_FIELDS[4:]) == math.inf:
        bad.update(NUMERIC_FIELDS[4:])
    if not bad and math.tanh(ok["beta_h"] * ok["omega_h"]) <= 0.0:
        bad.add("beta_h")
    return bad | {key for key in ("profile_h", "profile_c") if not isinstance(cfg[key], str)}


def _named(error: ConfigError) -> set:
    """The config keys in the subjects (the text before ' must') of the messages."""
    return {key for problem in error.problems for key in _DEFAULTS
            if re.search(rf"\b{key}\b", problem.split(" must ")[0])}


def _cli(argv: list[str]) -> tuple:
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, err.getvalue(), out.getvalue()


class TestRawConfigs:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_RAW_CONFIGS)
    def test_one_error_names_every_fault_on_both_routes(self, tmp_path_factory, raw):
        work = tmp_path_factory.getbasetemp()
        path = work / "raw.json"
        path.write_text(json.dumps(raw))
        expected = _offending(raw)
        try:
            config, _ = load_cycle_config(str(path), {})
        except ConfigError as error:
            assert _named(error) == expected, str(error)
        else:
            assert not expected
            strong_cycle(config)
        # the same values as --set pairs, where text spells them exactly
        if all(isinstance(value, (float, str)) for value in raw.values()):
            sets = [arg for key, value in raw.items()
                    for arg in ("--set", f"{key}={value!r}" if isinstance(value, float)
                                else f"{key}={value}")]
            out = str(work / "c.csv")
            assert _cli(["cycle", *sets, "--out", out]) == \
                _cli(["cycle", "--config", str(path), "--out", out])


def _readme_examples() -> list[list[str]]:
    """argv of every ``qotto <command> ...`` line in the README's shell blocks."""
    return [shlex.split(line, comments=True)[1:]
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("qotto ") and "<command>" not in line]


class TestReadmeExamples:
    def test_cover_every_command(self):
        assert {argv[0] for argv in _readme_examples()} == {"dynamics", "witness",
                                                            "cycle", "sweep"}

    @pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
    def test_runs_without_warnings(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QOTTO_OUT_DIR", str(tmp_path))
        assert run(argv) == 0
        assert list(tmp_path.iterdir())
