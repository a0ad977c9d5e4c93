import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paircomp
import paircomp.cli as cli_module
from paircomp.cli import _build_parser, _sigterm_interrupts, main
from paircomp.hypotests import paired_t_test, sign_test, wilcoxon_signed_rank
from paircomp.reporting import fmt

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


SYNTH_RUN_CONFIG = """\
design: {alpha: 0.05, power: 0.85, d: 0.5, alternative: two_sided, test: t_test}
sampling: {se_max: 1.0, n0: 4, n_max: 40, diff: simple}
instances:
  synthetic_pool: {count: 50, delta: 0.3, sigma_phi: 1.0, noise_sd: 0.5}
master_seed: 99
output_dir: out
"""

# four pool instances, all selected, in an order other than the pool's
REPLAY_CONFIG = """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 0.4, n0: 4, n_max: 40}
algorithms:
  - {alias: one, kind: synthetic_normal, params: {mu: 0.0, sigma: 1.0}}
  - {alias: two, kind: synthetic_normal, params: {mu: 0.5, sigma: 1.5}}
instances:
  inline: [{id: a}, {id: b}, {id: c}, {id: d}]
use_all_instances: false
master_seed: 11
output_dir: out
"""


# every setting that no journaled row depends on, set explicitly
RESUMABLE_CONFIG = """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 0.4, n0: 4, n_max: 40}
algorithms:
  - {alias: one, kind: synthetic_normal, params: {mu: 0.0, sigma: 1.0},
     timeout: 60, concurrent_safe: true}
  - {alias: two, kind: synthetic_normal, params: {mu: 0.5, sigma: 1.5},
     timeout: 60, concurrent_safe: true}
instances:
  inline: [{id: a, payload: {two: {mu: 0.5}}}, {id: b}, {id: c}, {id: d},
           {id: e}, {id: f}]
use_all_instances: true
master_seed: 11
workers: 1
sigma_phi_bound: 1.0
output_dir: out
"""


class TestDesignCommand:
    def test_t_test_reference(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--power", "0.85", "--d", "0.5",
                               "--alpha", "0.05", "--alternative", "two-sided",
                               "--test", "t")
        assert code == 0
        assert "required instances (N*): 38" in out

    def test_wilcoxon_reference(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--power", "0.85", "--d", "0.5",
                               "--alpha", "0.05", "--alternative", "two-sided",
                               "--test", "wilcoxon")
        assert code == 0
        assert "required instances (N*): 45" in out

    def test_eighty_percent_reference(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--power", "0.80", "--d", "0.5",
                               "--alpha", "0.05", "--alternative", "two-sided",
                               "--test", "t")
        assert code == 0
        assert "required instances (N*): 34" in out

    def test_delta_with_bound(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--power", "0.85",
                               "--delta", "-0.25", "--sigma-bound", "0.5",
                               "--alpha", "0.05")
        assert code == 0
        assert "required instances (N*): 38" in out

    def test_zero_effect_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "design", "--power", "0.85", "--d", "0",
                               "--alpha", "0.05")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("d, test, n", [
        ("1e308", "sign", 4), ("1.7e308", "t", 2)])
    def test_overflowing_noncentrality_is_refused(self, capsys, d, test, n):
        # the t-test count is 2 at any huge d; the sign count divides it by 0.637
        code, out, err = run_cli(capsys, "design", "--power", "0.8", "--d", d,
                                 "--alpha", "0.05", "--test", test)
        assert code == 2
        assert err.splitlines() == [
            f"error: effect size d={float(d)!r} with N={n} instances makes the "
            f"noncentrality d*sqrt(N) overflow a float"]
        assert out == ""

    def test_delta_without_bound_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "design", "--power", "0.85",
                             "--delta", "0.2", "--alpha", "0.05")
        assert code == 2

    def test_machine_record(self, capsys, tmp_path):
        out_file = tmp_path / "design.json"
        code, _, _ = run_cli(capsys, "design", "--power", "0.85", "--d", "0.5",
                             "--alpha", "0.05", "--out", str(out_file))
        assert code == 0
        import json
        doc = json.loads(out_file.read_text())
        assert doc["n_instances"] == 38

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["design", "--power", "0.85", "--d", "0.5"])
        assert err.value.code == 2


class TestPowerCommand:
    def test_single_power_seven_digits(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--n", "100", "--d", "0.25",
                               "--alpha", "0.01", "--alternative", "one-sided")
        assert code == 0
        assert "power: 0.5554571" in out

    def test_curve_with_highlights(self, capsys, tmp_path):
        curve_file = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "power", "--n", "100",
                               "--d-range", "0.05:0.5", "--points", "300",
                               "--highlights", "0.25,0.5,0.8,0.95",
                               "--alpha", "0.01", "--alternative", "one-sided",
                               "--curve-out", str(curve_file))
        assert code == 0
        lines = curve_file.read_text().splitlines()
        assert lines[0] == "d,power"
        assert len(lines) == 301
        hits = {}
        for line in out.splitlines():
            if line.startswith("power ") and "reached at d = " in line:
                level, d = line.removeprefix("power ").split(" reached at d = ")
                hits[float(level)] = float(d)
        assert hits[0.25] == pytest.approx(0.17, abs=0.005)
        assert hits[0.5] == pytest.approx(0.24, abs=0.005)
        assert hits[0.8] == pytest.approx(0.32, abs=0.005)
        assert hits[0.95] == pytest.approx(0.40, abs=0.005)

    def test_single_point_curve_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "power", "--n", "100",
                             "--d-range", "0.05:0.5", "--points", "1",
                             "--alpha", "0.01")
        assert code == 2

    def test_d_and_range_together_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "power", "--n", "100", "--d", "0.2",
                             "--d-range", "0.1:0.3", "--alpha", "0.05")
        assert code == 2

    def test_zero_effect_gives_alpha(self, capsys):
        code, out, err = run_cli(capsys, "power", "--n", "100", "--d", "0",
                                 "--alpha", "0.05")
        assert code == 0, err
        assert out.splitlines() == ["power: 0.05"]

    def test_single_power_machine_record(self, capsys, tmp_path):
        out_file = tmp_path / "sub" / "power.json"
        code, _, _ = run_cli(capsys, "power", "--n", "100", "--d", "0.25",
                             "--alpha", "0.01", "--alternative", "one-sided",
                             "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["n"] == 100 and doc["d"] == 0.25
        assert doc["power"] == pytest.approx(0.5554571, abs=1e-7)

    def test_range_without_colon_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "power", "--n", "100", "--d-range", "0.1",
                               "--alpha", "0.05")
        assert code == 2
        assert "--d-range must look like LO:HI, got '0.1'" in err

    def test_non_numeric_highlights_is_usage_error(self, capsys):
        # a level outside (0, 1) is no power level either: 0 is reached
        # everywhere, 1 and beyond nowhere
        for highlights, message in [
                ("a,b", "--highlights must be comma-separated numbers, got 'a,b'"),
                ("0,-1,inf", "--highlights: power level 0 is not in (0, 1)"),
                ("0.5,-1", "--highlights: power level -1 is not in (0, 1)"),
                ("0.5,1", "--highlights: power level 1 is not in (0, 1)"),
                ("inf", "--highlights: power level inf is not in (0, 1)"),
                ("nan", "--highlights: power level nan is not in (0, 1)")]:
            code, out, err = run_cli(capsys, "power", "--n", "10",
                                     "--d-range", "0.1:0.5", "--points", "3",
                                     "--highlights", highlights, "--alpha", "0.05")
            assert code == 2, highlights
            assert message in err
            assert out == ""

    def test_curve_goes_to_stdout_without_curve_out(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--n", "40",
                               "--d-range", "0.1:0.5", "--points", "5",
                               "--alpha", "0.05")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "curve points: 5"
        ds, powers = zip(*(map(float, line.split(",")) for line in lines[1:]))
        assert ds == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
        assert list(powers) == sorted(powers)

    def test_curve_has_300_points_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--n", "40",
                               "--d-range", "0.1:0.5", "--alpha", "0.05")
        assert code == 0
        assert out.splitlines()[0] == "curve points: 300"

    @pytest.mark.parametrize("argv, message", [
        (["--d-range", "0.1:0.5", "--points", "3", "--out", "rec.json"],
         "--out goes with --d only"),
        (["--d", "0.3", "--highlights", "0.5", "--curve-out", "c.csv"],
         "--highlights goes with --d-range only"),
        (["--d", "0.3", "--points", "3"], "--points goes with --d-range only"),
        (["--d", "0.3", "--curve-out", "c.csv"],
         "--curve-out goes with --d-range only"),
    ], ids=["out-with-range", "highlights-with-d", "points-with-d",
            "curve-out-with-d"])
    def test_flag_of_the_other_mode_is_refused(self, capsys, tmp_path,
                                               monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "power", "--n", "100", "--alpha", "0.05",
                                 *argv)
        assert code == 2
        assert message in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--n", str(10 ** 400), "--d", "0.3"],
        ["--n", str(2 ** 1024), "--d-range", "0.1:0.5"],
        ["--n", "20", "--d-range", "0.1:0.5", "--points", str(10 ** 400)],
    ], ids=["n", "n-with-range", "points"])
    def test_flag_beyond_float_range_is_refused_naming_it(self, capsys, argv):
        code, out, err = run_cli(capsys, "power", "--alpha", "0.05", *argv)
        name = "n_points" if "--points" in argv else "n_instances"
        assert code == 2
        assert err.splitlines() == [f"error: {name} is beyond the range of a float"]
        assert out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--d-range", "0.1:inf", "--points", "3"],
         "need 0 < d_lo < d_hi < inf, got (0.1, inf)"),
        (["--d-range", "0.1:1e308", "--points", "3"],
         "effect size d=1e+308 with N=30 instances makes the noncentrality "
         "d*sqrt(N) overflow a float"),
        (["--d", "1e308"],
         "effect size d=1e+308 with N=30 instances makes the noncentrality "
         "d*sqrt(N) overflow a float"),
    ], ids=["infinite-range", "overflowing-range", "overflowing-d"])
    def test_effect_size_beyond_float_range_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "power", "--n", "30", "--alpha", "0.05",
                                 *argv)
        assert code == 2
        assert err.splitlines() == [f"error: {message}"]
        assert out == ""

    def test_unreached_level_is_reported(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "power", "--n", "20",
                               "--d-range", "0.05:0.2", "--points", "10",
                               "--highlights", "0.1,0.99", "--alpha", "0.05",
                               "--curve-out", str(tmp_path / "curve.csv"))
        assert code == 0
        assert "power 0.99 not reached on this range" in out.splitlines()
        assert any(line.startswith("power 0.1 reached at d = ")
                   for line in out.splitlines())


class TestAlphaBelowPrecision:
    """An alpha at or below 2**-53 makes 1 - alpha/2 round to 1; it is
    refused naming alpha, before the t quantile sees it."""

    MESSAGE = "alpha must exceed 2**-53, or 1 - alpha/2 rounds to 1, got "

    @pytest.mark.parametrize("argv", [
        ["design", "--d", "0.5", "--power", "0.8", "--alpha", "1e-17"],
        ["power", "--n", "20", "--d", "0.5", "--alpha", "1e-17"],
        ["power", "--n", "20", "--d-range", "0.1:1", "--alpha", "1e-17"],
        ["power", "--n", "20", "--d", "0.5", "--alpha", "1e-16"],
        ["power", "--n", "20", "--d", "0.5", "--alpha", "1e-16",
         "--alternative", "one-sided"],
    ], ids=["design", "power", "curve", "two-sided", "one-sided"])
    def test_command_refuses_it(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        prefix = "design: " if argv[0] == "design" else ""
        assert code == 2
        assert err.splitlines() == [f"error: {prefix}{self.MESSAGE}{argv[argv.index('--alpha') + 1]}"]
        assert out == ""

    @pytest.mark.parametrize("alpha, alternative", [("1e-17", "two_sided"),
                                                    ("1e-16", "one_sided")])
    def test_run_config_refuses_it(self, capsys, tmp_path, alpha, alternative):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace(
            "alpha: 0.05", f"alpha: {alpha}").replace("two_sided", alternative))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert err.splitlines() == [f"error: design: {self.MESSAGE}{alpha}"]
        assert out == ""
        assert not (tmp_path / "out").exists()


class TestRepsCommand:
    def test_generous_budget_stops_at_n0(self, capsys, tmp_path):
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 50.0, n0: 6, n_max: 40}
algorithms:
  - {alias: one, kind: synthetic_normal, params: {mu: 10.0, sigma: 1.0}}
  - {alias: two, kind: synthetic_normal, params: {mu: 12.0, sigma: 1.0}}
instances:
  inline: [{id: only}]
master_seed: 4
""")
        code, out, _ = run_cli(capsys, "reps", "--config", str(cfg),
                               "--instance", "only")
        assert code == 0
        assert "n1: 6" in out and "n2: 6" in out
        assert "budget exhausted: false" in out

    TINY_SPREAD = """\
design: {{alpha: 0.05, power: 0.8, d: 0.5}}
sampling: {{se_max: 1.0e-168, n0: 5, n_max: 40, se_method: {se_method}}}
algorithms:
  - {{alias: one, kind: synthetic_normal, params: {{mu: 1.0e-165, sigma: 1.0e-166}}}}
  - {{alias: two, kind: synthetic_normal, params: {{mu: 1.2e-165, sigma: 1.0e-166}}}}
instances:
  inline: [{{id: only}}]
master_seed: 4
"""

    def test_a_spread_squaring_below_the_float_range_keeps_the_bootstrap_se(
            self, capsys, tmp_path):
        # runs near 1e-165 with sigma 1e-166: the squared deviations of the
        # resampled differences, near 1e-333, were 0, so the SE read 0 and
        # sampling stopped after n0 runs, with the budget reported as met
        cfg = write_config(tmp_path, self.TINY_SPREAD.format(se_method="bootstrap"))
        code, out, _ = run_cli(capsys, "reps", "--config", str(cfg),
                               "--instance", "only")
        assert code == 0
        lines = out.splitlines()
        assert "budget exhausted: true" in lines
        se = float(next(line for line in lines if line.startswith("se: "))[4:])
        assert 1e-168 < se < 1e-165

    def test_a_spread_lost_by_the_running_sum_of_squares_exits_4(self, capsys, tmp_path):
        # the same runs under the parametric SE: the terms of Welford's
        # running sum of squares, near 1e-333, were 0, so the SE read 0 and
        # sampling stopped after n0 runs, with the budget reported as met
        cfg = write_config(tmp_path, self.TINY_SPREAD.format(se_method="parametric"))
        code, out, err = run_cli(capsys, "reps", "--config", str(cfg),
                                 "--instance", "only")
        assert code == 4
        assert out == ""
        assert err.startswith("error: the runs differ, but their running sum of squares")
        assert "rescale them or use se_method: bootstrap" in err

    def test_unknown_instance_is_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        code, _, err = run_cli(capsys, "reps", "--config", str(cfg),
                               "--instance", "missing")
        assert code == 2
        assert "missing" in err

    def test_replays_the_runs_of_run(self, capsys, tmp_path):
        cfg = write_config(tmp_path, REPLAY_CONFIG)
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        with (tmp_path / "out" / "results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(row["instance"] for row in rows) == ["a", "b", "c", "d"]
        for row in rows:
            code, out, _ = run_cli(capsys, "reps", "--config", str(cfg),
                                   "--instance", row["instance"])
            assert code == 0
            lines = out.splitlines()
            assert f"n1: {row['n1']}" in lines, row
            assert f"n2: {row['n2']}" in lines, row
            assert f"phi: {fmt(float(row['phi']))}" in lines, row

    def test_replays_run_under_the_seed_env(self, capsys, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, REPLAY_CONFIG)
        monkeypatch.setenv("PAIRCOMP_SEED", "5")
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        with (tmp_path / "out" / "results.csv").open() as fh:
            row = next(row for row in csv.DictReader(fh) if row["instance"] == "a")
        assert (row["n1"], row["n2"]) == ("7", "19")
        code, out, _ = run_cli(capsys, "reps", "--config", str(cfg), "--instance", "a")
        assert code == 0
        lines = out.splitlines()
        assert "n1: 7" in lines and "n2: 19" in lines
        assert f"phi: {fmt(float(row['phi']))}" in lines

    def test_unselected_instance_needs_a_seed(self, capsys, tmp_path):
        # d = 2 needs 5 of the 6 pool instances
        cfg = write_config(tmp_path, REPLAY_CONFIG.replace("d: 0.5", "d: 2.0")
                           .replace("{id: d}]", "{id: d}, {id: e}, {id: f}]"))
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        with (tmp_path / "out" / "results.csv").open() as fh:
            used = {row["instance"] for row in csv.DictReader(fh)}
        [unused] = {"a", "b", "c", "d", "e", "f"} - used
        code, _, err = run_cli(capsys, "reps", "--config", str(cfg),
                               "--instance", unused)
        assert code == 2
        assert unused in err and "--seed" in err
        code, out, _ = run_cli(capsys, "reps", "--config", str(cfg),
                               "--instance", unused, "--seed", "5")
        assert code == 0
        assert f"instance: {unused}" in out

    def test_zero_gap_keeps_the_parametric_se(self, capsys, tmp_path):
        # the first solver alternates 4 and 6, the second prints 5: after
        # n0 = 2 runs each the mean gap is exactly zero, and the percent SE
        # is its limit sqrt(2/2 + 0/2) / 5
        solver = tmp_path / "alternating.py"
        solver.write_text(textwrap.dedent("""\
            import sys
            from pathlib import Path
            counter = Path(sys.argv[1])
            k = int(counter.read_text()) if counter.exists() else 0
            counter.write_text(str(k + 1))
            print(4.0 + 2.0 * (k % 2))
            """))
        python = json.dumps(sys.executable)
        args = json.dumps([str(solver), str(tmp_path / "count")])
        cfg = write_config(tmp_path, f"""\
design: {{alpha: 0.05, power: 0.8, d: 0.5}}
sampling: {{se_max: 10.0, n0: 2, n_max: 8, diff: percent}}
algorithms:
  - {{alias: alt, kind: subprocess, params: {{executable: {python}, args: {args}}}}}
  - {{alias: five, kind: synthetic_normal, params: {{mu: 5.0, sigma: 0.0}}}}
instances:
  inline: [{{id: only}}]
master_seed: 3
""")
        code, out, err = run_cli(capsys, "reps", "--config", str(cfg),
                                 "--instance", "only")
        assert code == 0, err
        lines = out.splitlines()
        assert "phi: 0" in lines and "se: 0.2" in lines
        assert "se method: parametric" in lines
        assert not [line for line in lines if line.startswith("note:")]

    def test_annealing_demo_meets_budget_or_flags(self, capsys, tmp_path):
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5, alternative: one_sided}
sampling: {se_max: 0.01, n0: 20, n_max: 150, diff: percent}
algorithms:
  - {alias: cool, kind: demo_sann_tsp, params: {temp: 2000.0, budget: 800}}
  - {alias: hot, kind: demo_sann_tsp, params: {temp: 4000.0, budget: 800}}
instances:
  inline: [{id: tsp21, payload: {cities: 21, layout_seed: 7}}]
master_seed: 1234
""")
        code, out, _ = run_cli(capsys, "reps", "--config", str(cfg),
                               "--instance", "tsp21")
        assert code == 0
        se_line = next(ln for ln in out.splitlines() if ln.startswith("se: "))
        flag_line = next(ln for ln in out.splitlines()
                         if ln.startswith("budget exhausted: "))
        se = float(se_line.split(": ")[1])
        assert se <= 0.01 or flag_line.endswith("true")


TESTS = {"t_test": paired_t_test, "wilcoxon": wilcoxon_signed_rank, "sign": sign_test}


def assert_report_of_scaled(out: Path, test: str, mu0: float = 0.0) -> dict:
    """The run in ``out`` reports what ``test`` reports on its per-instance
    differences and ``mu0`` divided by 2**600, into float range: the same
    statistic and p-value, and locations 2**600 times as large, to the
    bit; its resampled means lie within the range of the differences."""
    report = json.loads((out / "report.json").read_text())
    phis = [row["phi_hat"] for row in report["per_instance"]]
    s = 2.0 ** 600
    ref = TESTS[test]([phi / s for phi in phis], mu0 / s, report["alpha"],
                      report["alternative"])
    assert (report["statistic"], report["p_value"]) == (ref.statistic, ref.p_value)
    assert [report["estimate"], *report["ci"]] == \
        [ref.estimate * s, ref.ci[0] * s, ref.ci[1] * s]
    boot = [float(v) for v in (out / "boot_sdm.csv").read_text().split()[1:]]
    assert len(boot) == 999 and all(min(phis) <= v <= max(phis) for v in boot)
    return report


class TestRunCommand:
    def test_results_table_rows(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        table = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert table[0] == "instance,phi,se,n1,n2,budget_exhausted"
        assert len(table) == 1 + 38  # header + min(N*, pool)
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "qq.csv").exists()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        run_cli(capsys, "run", "--config", str(cfg),
                "--output-dir", str(tmp_path / "a"))
        run_cli(capsys, "run", "--config", str(cfg),
                "--output-dir", str(tmp_path / "b"))
        for name in ("results.csv", "summary.txt", "report.json", "qq.csv",
                     "boot_sdm.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_seed_flag_changes_results(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        run_cli(capsys, "run", "--config", str(cfg),
                "--output-dir", str(tmp_path / "a"))
        run_cli(capsys, "run", "--config", str(cfg), "--seed", "12345",
                "--output-dir", str(tmp_path / "b"))
        assert (tmp_path / "a" / "results.csv").read_bytes() != \
               (tmp_path / "b" / "results.csv").read_bytes()

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        run_cli(capsys, "run", "--config", str(cfg), "--seed", "777",
                "--output-dir", str(tmp_path / "a"))
        monkeypatch.setenv("PAIRCOMP_SEED", "777")
        run_cli(capsys, "run", "--config", str(cfg),
                "--output-dir", str(tmp_path / "b"))
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
               (tmp_path / "b" / "results.csv").read_bytes()

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_seed_override_seeds_the_synthetic_pool(self, capsys, tmp_path,
                                                    monkeypatch, how):
        # the pool has no seed key, so its latent differences derive from
        # the master seed
        pool = SYNTH_RUN_CONFIG.replace("count: 50", "count: 40")
        reference = write_config(tmp_path, pool.replace("master_seed: 99",
                                                        "master_seed: 5"), "five.yaml")
        cfg = write_config(tmp_path, pool)
        assert run_cli(capsys, "run", "--config", str(reference),
                       "--output-dir", str(tmp_path / "a"))[0] == 0
        argv = ["run", "--config", str(cfg), "--output-dir", str(tmp_path / "b")]
        if how == "flag":
            argv += ["--seed", "5"]
        else:
            monkeypatch.setenv("PAIRCOMP_SEED", "5")
        assert run_cli(capsys, *argv)[0] == 0
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
               (tmp_path / "b" / "results.csv").read_bytes()

    def test_workers_env_override_keeps_results(self, capsys, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        run_cli(capsys, "run", "--config", str(cfg),
                "--output-dir", str(tmp_path / "a"))
        monkeypatch.setenv("PAIRCOMP_WORKERS", "3")
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg),
                             "--output-dir", str(tmp_path / "b"))
        assert code == 0
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
               (tmp_path / "b" / "results.csv").read_bytes()

    @pytest.mark.parametrize("how", ["config", "flag", "env"])
    def test_too_many_workers_exit_2_before_any_run(self, capsys, tmp_path, monkeypatch,
                                                    how):
        # a worker is a thread, which the system may refuse once runs began
        text, argv = SYNTH_RUN_CONFIG, []
        if how == "config":
            text += "workers: 1025\n"
        elif how == "flag":
            argv = ["--workers", "1025"]
        else:
            monkeypatch.setenv("PAIRCOMP_WORKERS", "1025")
        cfg = write_config(tmp_path, text)

        def refuse(thread):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), *argv)
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith("error: ") and "workers must be at most 1024, got 1025" in line
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["PAIRCOMP_WORKERS", "PAIRCOMP_SEED"])
    def test_bad_env_value_names_the_variable(self, capsys, tmp_path, monkeypatch,
                                              name):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        monkeypatch.setenv(name, "two")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert f"{name} must be an integer, got 'two'" in err

    def test_resume_completes_without_rerunning(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        run_cli(capsys, "run", "--config", str(cfg))
        journal = tmp_path / "out" / "checkpoint.jsonl"
        before = journal.read_text()
        results_before = (tmp_path / "out" / "results.csv").read_bytes()
        code, _, _ = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 0
        assert journal.read_text() == before
        assert (tmp_path / "out" / "results.csv").read_bytes() == results_before

    def test_resume_without_journal_is_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 2
        assert "resume" in err

    def test_validate_warnings_appear_verbatim_in_summary(self, capsys, tmp_path):
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 1.0, n0: 2, n_max: 20}
instances:
  synthetic_pool: {count: 40, delta: 0.2, sigma_phi: 1.0, noise_sd: 0.5}
master_seed: 5
output_dir: out
""")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "n0=2" in summary and "n0=2" in out

    def test_assumption_violation_exit_code(self, capsys, tmp_path):
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 0.05, n0: 4, n_max: 20, diff: percent}
algorithms:
  - {alias: neg, kind: synthetic_normal, params: {mu: -5.0, sigma: 1.0}}
  - {alias: pos, kind: synthetic_normal, params: {mu: 5.0, sigma: 1.0}}
instances:
  inline: [{id: x1}, {id: x2}, {id: x3}]
master_seed: 6
output_dir: out
""")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 4
        assert "positive" in err
        assert "): instance x1: " in err

    def test_runner_failure_exit_code(self, capsys, tmp_path):
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 0.5, n0: 3, n_max: 10}
algorithms:
  - {alias: ghost, kind: subprocess, params: {executable: /nonexistent/solver}}
  - {alias: fine, kind: synthetic_normal, params: {mu: 0.0, sigma: 1.0}}
instances:
  inline: [{id: x1}, {id: x2}]
master_seed: 7
output_dir: out
""")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 3
        assert "launch" in err
        # a runner error names its instance itself, and only once
        assert "instance=" in err and "): instance " not in err

    @pytest.mark.parametrize("command", ["run", "reps"])
    def test_overflowing_lognormal_run_exits_3_naming_the_run(self, capsys,
                                                              tmp_path, command):
        # exp of a normal draw near 1000 is beyond a float
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 0.5, n0: 3, n_max: 10}
algorithms:
  - {alias: huge, kind: synthetic_lognormal, params: {mu: 1000.0, sigma: 1.0}}
  - {alias: fine, kind: synthetic_normal, params: {mu: 0.0, sigma: 1.0}}
instances:
  inline: [{id: x}, {id: y}]
master_seed: 7
output_dir: out
""")
        argv = ["--instance", "x"] if command == "reps" else []
        code, _, err = run_cli(capsys, command, "--config", str(cfg), *argv)
        assert code == 3
        [line] = err.splitlines()
        assert line.startswith("error: ")
        assert "non-finite value inf" in line
        assert re.search(r"\| algorithm=huge \| instance=[xy] \| seed=\d+$", line)

    def test_degenerate_data_exit_code(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace(
            "delta: 0.3, sigma_phi: 1.0, noise_sd: 0.5",
            "delta: 0.5, sigma_phi: 0, noise_sd: 0"))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 4
        assert "identical" in err

    def test_two_instance_run_writes_empty_qq(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("count: 50", "count: 2"))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0, err
        assert (tmp_path / "out" / "qq.csv").read_text() == \
            "theoretical_quantile,sample_quantile\n"

    def test_resume_drops_torn_final_journal_line(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("count: 50", "count: 5"))
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        out = tmp_path / "out"
        journal = (out / "checkpoint.jsonl").read_bytes()
        expected = {name: (out / name).read_bytes()
                    for name in ("results.csv", "report.json")}
        last_row = journal.rindex(b"\n", 0, len(journal) - 1) + 1
        for cut in (last_row + 1, (last_row + len(journal)) // 2,
                    len(journal) - 2, len(journal) - 1):
            (out / "checkpoint.jsonl").write_bytes(journal[:cut])
            for name in expected:
                (out / name).unlink()
            code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
            assert code == 0, (cut, err)
            for name, data in expected.items():
                assert (out / name).read_bytes() == data, (cut, name)
            resumed = (out / "checkpoint.jsonl").read_bytes()
            assert sorted(resumed.splitlines(keepends=True)) == \
                sorted(journal.splitlines(keepends=True)), cut

    def test_resume_refuses_corrupt_interior_journal_line(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("count: 50", "count: 5"))
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        journal = tmp_path / "out" / "checkpoint.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:20] + b"\n"
        journal.write_bytes(b"".join(lines))
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 2
        assert "checkpoint.jsonl" in err and "line 3" in err

    def test_resume_refuses_invalid_utf8_journal_line(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("count: 50", "count: 5"))
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        journal = tmp_path / "out" / "checkpoint.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"instance_id": "', b'"instance_id": "\xff', 1)
        journal.write_bytes(b"".join(lines))
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 2
        assert "checkpoint.jsonl: line 3 is not a valid record" in err

    @pytest.mark.parametrize("line, edit", [
        (3, lambda row: {k: v for k, v in row.items() if k != "phi"}),
        (3, lambda row: [1, 2]),
        (1, lambda row: [1, 2]),
        (3, lambda row: {**row, "phi": "abc"}),
        (3, lambda row: {**row, "diff_kind": "ratio"}),
        (3, lambda row: {**row, "budget_exhausted": "false"}),
        (3, lambda row: {**row, "n1": 3.9}),
        (3, lambda row: {**row, "se": -1.0}),
        (3, lambda row: {**row, "phi": math.nan}),
        (3, lambda row: {**row, "phi": math.inf}),
        (3, lambda row: {**row, "phi": -math.inf}),
        (3, lambda row: {**row, "se": math.nan}),
        (3, lambda row: {**row, "se": math.inf}),
        (3, lambda row: {**row, "se": -math.inf}),
        (3, lambda row: {**row, "phi": 10**400}),
        (3, lambda row: {**row, "phi": True}),
        (3, lambda row: {**row, "se": str(row["se"])}),
    ], ids=["missing-field", "row-not-object", "header-not-object",
            "bad-number", "bad-enum", "flag-not-bool", "count-not-int",
            "negative-se", "phi-nan", "phi-inf", "phi-minus-inf",
            "se-nan", "se-inf", "se-minus-inf", "phi-beyond-float",
            "phi-bool", "se-numeric-string"])
    def test_resume_refuses_malformed_journal_record(self, capsys, tmp_path, line, edit):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("count: 50", "count: 5"))
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        journal = tmp_path / "out" / "checkpoint.jsonl"
        lines = journal.read_text().splitlines()
        lines[line - 1] = json.dumps(edit(json.loads(lines[line - 1])))
        journal.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 2
        assert f"checkpoint.jsonl: line {line} is not a valid record" in err

    @staticmethod
    def run_wide_runs(capsys, tmp_path, test, se_method):
        # sigma 1e200: the squares of the runs' deviations overflow a float
        cfg = write_config(tmp_path, f"""\
design: {{alpha: 0.05, power: 0.8, d: 0.5, test: {test}}}
sampling: {{se_max: 0.5, n0: 3, n_max: 8, se_method: {se_method},
           bootstrap: {{resamples: 100}}}}
algorithms:
  - {{alias: wide, kind: synthetic_normal, params: {{mu: 0.0, sigma: 1.0e+200}}}}
  - {{alias: narrow, kind: synthetic_normal, params: {{mu: 0.0, sigma: 1.0}}}}
instances:
  inline: [{{id: x}}, {{id: y}}, {{id: z}}]
master_seed: 3
use_all_instances: true
output_dir: out
""")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert caught == []
        return code, err

    @pytest.mark.parametrize("se_method", ["parametric"])
    @pytest.mark.parametrize("test", ["t_test", "wilcoxon", "sign"])
    def test_infinite_se_exits_4_at_the_first_se(self, capsys, tmp_path, test,
                                                 se_method):
        # the running variance overflows, so no number of runs could meet
        # the budget
        code, err = self.run_wide_runs(capsys, tmp_path, test, se_method)
        assert code == 4
        [line] = err.splitlines()
        assert line.startswith("error: experiment aborted after 0 instance(s)")
        assert line.endswith("): instance x: the standard error of the difference "
                             "is inf after 3 + 3 runs: the values overflow a "
                             "float at this scale; rescale them")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("test", ["t_test", "wilcoxon", "sign"])
    def test_wide_runs_keep_a_finite_bootstrap_se(self, capsys, tmp_path, test):
        # the bootstrap SE squares scaled deviations, so it stays finite,
        # and above the budget: every instance spends all its runs
        code, err = self.run_wide_runs(capsys, tmp_path, test, "bootstrap")
        assert (code, err) == (0, "")
        with (tmp_path / "out" / "results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert math.isfinite(float(row["se"])) and float(row["se"]) > 0.5, row
            assert (row["budget_exhausted"], int(row["n1"]) + int(row["n2"])) == ("true", 8)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_aborting_error_names_its_instance(self, capsys, tmp_path, workers):
        # only y has a negative baseline; x and z may finish first
        cfg = write_config(tmp_path, f"""\
design: {{alpha: 0.05, power: 0.8, d: 0.5}}
sampling: {{se_max: 0.05, n0: 4, n_max: 20, diff: percent}}
algorithms:
  - {{alias: base, kind: synthetic_normal, params: {{mu: 5.0, sigma: 1.0}}}}
  - {{alias: other, kind: synthetic_normal, params: {{mu: 6.0, sigma: 1.0}}}}
instances:
  inline: [{{id: x}}, {{id: y, payload: {{base: {{mu: -5.0}}}}}}, {{id: z}}]
master_seed: 6
use_all_instances: true
workers: {workers}
output_dir: out
""")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 4
        [line] = err.splitlines()
        assert line.startswith("error: experiment aborted after ")
        assert ("): instance y: percent differences assume a strictly positive "
                "baseline mean, got ") in line
        assert line.count("instance y") == 1

    def test_an_overflowing_parametric_guess_changes_no_output(self, capsys, tmp_path,
                                                               monkeypatch):
        # runs near 1e-150 with a mean gap near 1e-157: the parametric
        # percent SE overflows and refuses ("use se_method: bootstrap"); the
        # bootstrap, which sizes its early exit from that SE, must finish
        # as the full bootstrap SE does
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 1.0e-8, n0: 4, n_max: 30, diff: percent, se_method: bootstrap,
           bootstrap: {resamples: 200}}
algorithms:
  - {alias: one, kind: synthetic_normal, params: {mu: 1.0e-150, sigma: 1.0e-156}}
  - {alias: two, kind: synthetic_normal, params: {mu: 1.0e-150, sigma: 1.0e-156}}
instances:
  inline: [{id: x}, {id: y}, {id: z}]
master_seed: 5
use_all_instances: true
output_dir: out
""")
        overflows = []

        def se_percent(s1, s2):
            try:
                return parametric(s1, s2)
            except paircomp.errors.AssumptionViolationError as exc:
                overflows.append(str(exc))
                raise

        def full_bootstrap_se(s1, s2, diff_kind, resamples, seed, stop_above=None):
            return bootstrap_se(s1, s2, diff_kind, resamples, seed)

        parametric = paircomp.estimators.se_percent
        bootstrap_se = paircomp.estimators.bootstrap_se
        outputs = []
        for sampler_se in (bootstrap_se, full_bootstrap_se):
            with monkeypatch.context() as mp:
                mp.setattr(paircomp.estimators, "se_percent", se_percent)
                mp.setattr(paircomp.sampler, "bootstrap_se", sampler_se)
                code, out, err = run_cli(capsys, "run", "--config", str(cfg))
            files = sorted((tmp_path / "out").iterdir())
            outputs.append((code, out, err, [(f.name, f.read_bytes()) for f in files]))
            for f in files:
                f.unlink()
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0
        assert overflows and all("use se_method: bootstrap" in m for m in overflows)

    def test_overflowing_differences_exit_4_without_a_warning(self, capsys, tmp_path):
        # per-instance means of +-1e200 make the squares of the differences'
        # deviations overflow a float; the t-test computes on the
        # differences scaled by a power of two, and numpy's overflow
        # warning must not escape
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5, test: t_test}
sampling: {se_max: 0.5, n0: 3, n_max: 8}
algorithms:
  - {alias: wide, kind: synthetic_normal, params: {mu: 0.0, sigma: 0.0}}
  - {alias: narrow, kind: synthetic_normal, params: {mu: 0.0, sigma: 1.0}}
instances:
  inline: [{id: x, payload: {wide: {mu: 1.0e+200}}},
           {id: y, payload: {wide: {mu: -1.0e+200}}}, {id: z}]
master_seed: 3
use_all_instances: true
output_dir: out
""")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert caught == []
        report = assert_report_of_scaled(tmp_path / "out", "t_test")
        assert max(abs(row["phi_hat"]) for row in report["per_instance"]) > 1e199

    @pytest.mark.parametrize("test, message", [
        ("t_test", "the t statistic or its interval overflows a float; the "
                   "t-test is undefined at this scale"),
        ("wilcoxon", None),
        ("sign", None),
    ], ids=["t_test", "wilcoxon", "sign"])
    def test_overflowing_sums_exit_4_without_a_warning(self, capsys, tmp_path,
                                                       test, message):
        # two differences of 1.6e308 and one of 1: every difference is finite,
        # and their sums pass the float range.  Only the t interval, about
        # 1.07e308 +- 2.3e308, truly does: the t-test exits 4; the others
        # report what they report on the differences scaled into range
        cfg = write_config(tmp_path, f"""\
design: {{alpha: 0.05, power: 0.8, d: 0.5, test: {test}}}
sampling: {{se_max: 0.5, n0: 3, n_max: 8}}
algorithms:
  - {{alias: one, kind: synthetic_normal, params: {{mu: 0.0, sigma: 0.0}}}}
  - {{alias: two, kind: synthetic_normal, params: {{mu: 0.0, sigma: 0.0}}}}
instances:
  inline: [{{id: x, payload: {{one: {{mu: -8.0e+307}}, two: {{mu: 8.0e+307}}}}}},
           {{id: y, payload: {{one: {{mu: -7.0e+307}}, two: {{mu: 9.0e+307}}}}}},
           {{id: z, payload: {{two: {{mu: 1.0}}}}}}]
master_seed: 3
use_all_instances: true
output_dir: out
""")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert caught == []
        if message:
            assert (code, err) == (4, f"error: {message}\n")
            assert not (tmp_path / "out" / "report.json").exists()
            return
        assert (code, err) == (0, "")
        report = assert_report_of_scaled(tmp_path / "out", test)
        phis = [row["phi_hat"] for row in report["per_instance"]]
        assert sorted(phis)[:2] == [1.0, 1.6e308]
        if test == "wilcoxon":
            # the interval of 3 differences spans every Walsh average
            assert (report["estimate"], tuple(report["ci"])) == \
                oracles.walsh_stats_exact(phis, (0, 5))
        else:
            assert report["estimate"] == oracles.median_exact(phis) == 1.6e308
            assert report["ci"] == [1.0, max(phis)]

    @pytest.mark.parametrize("test, statistic", [("wilcoxon", "signed-rank"),
                                                 ("sign", "sign")],
                             ids=["wilcoxon", "sign"])
    def test_overflowing_difference_from_mu0_exits_4_without_a_warning(
            self, capsys, tmp_path, test, statistic):
        # differences of 1e308, 1 and 2: 1e308 - mu0 is past the float
        # range, but its sign and rank are not, and the test reports what
        # it reports on the differences and mu0 scaled into range
        cfg = write_config(tmp_path, f"""\
design: {{alpha: 0.05, power: 0.8, d: 0.5, test: {test}, mu0: -1.0e+308}}
sampling: {{se_max: 0.5, n0: 3, n_max: 8}}
algorithms:
  - {{alias: one, kind: synthetic_normal, params: {{mu: 0.0, sigma: 0.0}}}}
  - {{alias: two, kind: synthetic_normal, params: {{mu: 0.0, sigma: 0.0}}}}
instances:
  inline: [{{id: x, payload: {{two: {{mu: 1.0e+308}}}}}},
           {{id: y, payload: {{two: {{mu: 1.0}}}}}},
           {{id: z, payload: {{two: {{mu: 2.0}}}}}}]
master_seed: 3
use_all_instances: true
output_dir: out
""")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert caught == []
        assert (code, err) == (0, "")
        report = assert_report_of_scaled(tmp_path / "out", test, mu0=-1e308)
        # every difference lies above mu0
        assert report["statistic"] == {"wilcoxon": 6.0, "sign": 3.0}[test]

    def test_a_t_statistic_beyond_float_range_exits_4(self, capsys, tmp_path):
        # differences of 1, 1 + 2**-52 and 1 against mu0 = -1e308: the t
        # statistic, about 1e308 / 7e-17, is past the float range
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5, test: t_test, mu0: -1.0e+308}
sampling: {se_max: 0.5, n0: 3, n_max: 8}
algorithms:
  - {alias: one, kind: synthetic_normal, params: {mu: 0.0, sigma: 0.0}}
  - {alias: two, kind: synthetic_normal, params: {mu: 1.0, sigma: 0.0}}
instances:
  inline: [{id: x}, {id: y, payload: {two: {mu: 1.0000000000000002}}}, {id: z}]
master_seed: 3
use_all_instances: true
output_dir: out
""")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert caught == []
        assert (code, err) == (4, "error: the t statistic or its interval overflows "
                                  "a float; the t-test is undefined at this scale\n")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("test", ["t_test", "wilcoxon"])
    def test_an_overflowing_estimate_exits_4_and_journals_nothing(self, capsys,
                                                                  tmp_path, test):
        # runs of 1e308 and -1e308 on instance x: each is finite and their
        # spread is 0, but the difference of their means is -inf
        cfg = write_config(tmp_path, f"""\
design: {{alpha: 0.05, power: 0.8, d: 0.5, test: {test}}}
sampling: {{se_max: 0.5, n0: 3, n_max: 8}}
algorithms:
  - {{alias: one, kind: synthetic_normal, params: {{mu: 0.0, sigma: 0.0}}}}
  - {{alias: two, kind: synthetic_normal, params: {{mu: 1.0, sigma: 0.0}}}}
instances:
  inline: [{{id: x, payload: {{one: {{mu: 1.0e+308}}, two: {{mu: -1.0e+308}}}}}},
           {{id: y}}, {{id: z}}]
master_seed: 3
use_all_instances: true
output_dir: out
""")
        cause = ("instance x: the estimate of the difference is -inf after 3 + 3 "
                 "runs: the values overflow a float at this scale; rescale them")
        journal = tmp_path / "out" / "checkpoint.jsonl"
        for command in ("run", "resume"):
            code, out, err = run_cli(capsys, command, "--config", str(cfg))
            [line] = err.splitlines()
            assert code == 4
            assert line.startswith("error: experiment aborted after ")
            assert line.endswith(cause)
            assert '"x"' not in journal.read_text()
        code, out, err = run_cli(capsys, "reps", "--config", str(cfg), "--instance", "x")
        assert (code, err) == (4, f"error: {cause.split(': ', 1)[1]}\n")

    def test_percent_se_overflow_exits_4(self, capsys, tmp_path):
        # lognormal runs near exp(-368) ~ 1e-160: the parametric percent SE
        # squares the reciprocal of the mean gap, which overflows a float
        config = """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 0.5, n0: 3, n_max: 12, diff: percent, se_method: SE}
algorithms:
  - {alias: low, kind: synthetic_lognormal, params: {mu: -368.0, sigma: 0.3}}
  - {alias: high, kind: synthetic_lognormal, params: {mu: -367.9, sigma: 0.3}}
instances:
  inline: [{id: x}, {id: y}, {id: z}]
master_seed: 3
use_all_instances: true
output_dir: out
"""
        cfg = write_config(tmp_path, config.replace("SE", "parametric"))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 4
        [line] = err.splitlines()
        assert line.startswith("error: experiment aborted after 0 instance(s)")
        assert ("): instance x: the parametric percent-difference standard "
                "error overflows a float at this scale (mean gap ") in line
        assert line.endswith("rescale the values or use se_method: bootstrap")
        assert not (tmp_path / "out" / "report.json").exists()
        cfg = write_config(tmp_path, config.replace("SE", "bootstrap"))
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0

    def test_one_instance_run_is_refused_before_any_run(self, capsys, tmp_path):
        cfg = write_config(tmp_path, REPLAY_CONFIG.replace(
            "[{id: a}, {id: b}, {id: c}, {id: d}]", "[{id: a}]"))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "at least 2 instances" in err
        assert not (tmp_path / "out").exists()

    def test_sign_test_run(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("test: t_test",
                                                              "test: sign"))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0, err
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        with (out / "results.csv").open() as fh:
            phis = [float(row["phi"]) for row in csv.DictReader(fh)]
        assert report["test_family"] == "sign"
        assert report["n_instances_used"] == len(phis) == 50  # the whole pool
        assert report["statistic"] == sum(phi > 0 for phi in phis)
        assert "test family: sign" in (out / "summary.txt").read_text()

    def test_one_sided_summary_states_the_upper_bound(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("two_sided",
                                                              "one_sided"))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0, err
        out = tmp_path / "out"
        bound = json.loads((out / "report.json").read_text())["one_sided_bound"]
        summary = (out / "summary.txt").read_text().splitlines()
        assert f"one-sided upper bound (0.95): {fmt(bound)}" in summary

    def test_non_finite_solver_value_exit_code(self, capsys, tmp_path):
        solver = tmp_path / "nan_solver.py"
        solver.write_text("print('nan')\n")
        cfg = write_config(tmp_path, f"""\
design: {{alpha: 0.05, power: 0.8, d: 0.5}}
sampling: {{se_max: 0.5, n0: 3, n_max: 10}}
algorithms:
  - {{alias: nan, kind: subprocess,
      params: {{executable: {json.dumps(sys.executable)}, args: [{json.dumps(str(solver))}]}}}}
  - {{alias: fine, kind: synthetic_normal, params: {{mu: 0.0, sigma: 1.0}}}}
instances:
  inline: [{{id: x1}}, {{id: x2}}]
master_seed: 7
output_dir: out
""")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 3
        assert "non-finite value" in err and "algorithm=nan" in err

    def test_resume_refuses_journal_without_header(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("count: 50", "count: 5"))
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        journal = tmp_path / "out" / "checkpoint.jsonl"
        journal.write_text("".join(journal.read_text().splitlines(keepends=True)[1:]))
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 2
        assert "has no header line" in err

    @pytest.mark.parametrize("before, after", [
        ("timeout: 60", "timeout: 600"),
        ("concurrent_safe: true", "concurrent_safe: false"),
        ("workers: 1", "workers: 2"),
        ("sigma_phi_bound: 1.0", "sigma_phi_bound: 0.1"),
    ], ids=["timeout", "concurrent-safe", "workers", "sigma-phi-bound"])
    def test_resume_after_a_change_no_row_depends_on(self, capsys, tmp_path,
                                                     before, after):
        # e.g. a run stopped by a timeout resumes with a larger one
        edited = write_config(tmp_path, RESUMABLE_CONFIG.replace(before, after),
                              "edited.yaml")
        assert run_cli(capsys, "run", "--config", str(edited),
                       "--output-dir", str(tmp_path / "whole"))[0] == 0
        cfg = write_config(tmp_path, RESUMABLE_CONFIG)
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        out = tmp_path / "out"
        journal = (out / "checkpoint.jsonl").read_text().splitlines(keepends=True)
        (out / "checkpoint.jsonl").write_text("".join(journal[:4]))
        code, _, err = run_cli(capsys, "resume", "--config", str(edited))
        assert code == 0, err
        for name in ("results.csv", "report.json", "summary.txt", "qq.csv",
                     "boot_sdm.csv", "boot_sdm_qq.csv"):
            assert (out / name).read_bytes() == \
                   (tmp_path / "whole" / name).read_bytes(), name
        # rows land in completion order at two workers
        assert sorted((out / "checkpoint.jsonl").read_text().splitlines()) == \
               sorted((tmp_path / "whole" / "checkpoint.jsonl").read_text().splitlines())

    @pytest.mark.parametrize("config, before, after", [
        (SYNTH_RUN_CONFIG.replace("count: 50", "count: 12"),
         "delta: 0.3", "delta: 5.0"),
        (RESUMABLE_CONFIG, "{id: a, payload: {two: {mu: 0.5}}}",
         "{id: a, payload: {two: {mu: 3.0}}}"),
    ], ids=["pool-delta", "inline-payload"])
    def test_resume_refuses_a_changed_input(self, capsys, tmp_path, config,
                                            before, after):
        cfg = write_config(tmp_path, config)
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        journal = tmp_path / "out" / "checkpoint.jsonl"
        journal.write_text("".join(journal.read_text().splitlines(keepends=True)[:4]))
        assert before in config
        write_config(tmp_path, config.replace(before, after))
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 2
        assert "belongs to a different experiment configuration" in err

    def test_resume_refuses_an_older_journal_version(self, capsys, tmp_path):
        cfg = write_config(tmp_path, RESUMABLE_CONFIG)
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 0
        journal = tmp_path / "out" / "checkpoint.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        assert header["version"] == 2
        journal.write_text(json.dumps({**header, "version": 1}) + "\n"
                           + "".join(lines[1:]))
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 2
        assert "has version 1" in err and "only version 2" in err

    def test_missing_output_dir_is_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("output_dir: out\n", ""))
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2


class TestSizeBounds:
    """A size knob beyond its bound exits 2, naming it, before anything of
    that size is allocated; each test fails if the allocation is reached."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the allocation was reached")

    def test_curve_points(self, capsys, monkeypatch):
        monkeypatch.setattr(paircomp.design.np, "arange", self.refuse)
        code, out, err = run_cli(capsys, "power", "--n", "20", "--alpha", "0.05",
                                 "--d-range", "0.1:0.5", "--points", str(10 ** 10))
        assert code == 2
        assert err.splitlines() == ["error: at most 100000 curve points are allowed: "
                                    "each point is one noncentral t CDF"]
        assert out == ""

    def test_tsp_cities(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(paircomp.runners, "build_tsp_instance", self.refuse)
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 0.5}
sampling: {se_max: 0.5, n0: 3, n_max: 8}
algorithms:
  - {alias: cool, kind: demo_sann_tsp}
  - {alias: hot, kind: demo_sann_tsp}
instances:
  inline: [{id: a, payload: {cities: 1000000}}, {id: b, payload: {cities: 8}}]
master_seed: 3
output_dir: out
""")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert err.splitlines() == ["error: config: instance 'a', algorithm 'cool': "
                                    "payload.cities must be at most 1000, got 1000000"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "reps"])
    def test_first_stage_runs(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.setattr(paircomp.experiment, "first_stages", self.refuse)
        monkeypatch.setattr(paircomp.sampler, "first_stages", self.refuse)
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace(
            "n0: 4, n_max: 40", "n0: 100000000, n_max: 200000000"))
        argv = ["--instance", "synth-0000"] if command == "reps" else []
        code, out, err = run_cli(capsys, command, "--config", str(cfg), *argv)
        assert code == 2
        assert err.splitlines() == ["error: sampling: n0 must be at most 100000, got "
                                    "100000000: each instance in flight holds "
                                    "2 * n0 run seeds and keys"]
        assert not (tmp_path / "out").exists()


class TestConfigValidation:
    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG + "extra_knob: 3\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "extra_knob" in err

    def test_unknown_nested_key_rejected(self, capsys, tmp_path):
        bad = SYNTH_RUN_CONFIG.replace("se_max: 1.0", "se_max: 1.0, typo: 1")
        cfg = write_config(tmp_path, bad)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "typo" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--config",
                               str(tmp_path / "nope.yaml"))
        assert code == 2

    def test_manifest_form(self, capsys, tmp_path):
        manifest = tmp_path / "pool.yaml"
        manifest.write_text("""\
instances:
  - {id: a1}
  - {id: a2}
  - {id: a3}
""")
        cfg = write_config(tmp_path, """\
design: {alpha: 0.05, power: 0.8, d: 1.5}
sampling: {se_max: 5.0, n0: 3, n_max: 12}
algorithms:
  - {alias: one, kind: synthetic_normal, params: {mu: 0.0, sigma: 1.0}}
  - {alias: two, kind: synthetic_normal, params: {mu: 1.0, sigma: 1.0}}
instances: {manifest: pool.yaml}
master_seed: 3
output_dir: out
""")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0

    def test_synthetic_pool_with_algorithms_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG + """\
algorithms:
  - {alias: one, kind: synthetic_normal}
  - {alias: two, kind: synthetic_normal}
""")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2

    def test_too_many_resamples_exit_2_before_any_run(self, capsys, tmp_path):
        # with a parametric SE only the diagnostics read resamples: a run
        # spent every run, then died allocating 2**32 means
        bad = SYNTH_RUN_CONFIG.replace(
            "diff: simple}", "diff: simple, bootstrap: {resamples: 4294967296}}")
        cfg = write_config(tmp_path, bad)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith("error: sampling: at most 100000 bootstrap resamples "
                               "are allowed, got 4294967296")
        assert not (tmp_path / "out").exists()

    def test_too_many_pool_instances_exit_2_before_any_run(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("count: 50", "count: 1000001"))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith("error: instances.synthetic_pool: at most 1000000 "
                               "instances are allowed, got 1000001")
        assert not (tmp_path / "out").exists()

    def test_a_kill_while_the_journal_header_is_written_leaves_no_journal(
            self, capsys, tmp_path, monkeypatch):
        # the header is renamed into place whole: a run that ends at the
        # rename leaves no journal, and resume says there is nothing to
        # resume instead of refusing a partial header
        def interrupted(*args):
            raise KeyboardInterrupt
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG.replace("count: 50", "count: 5"))
        monkeypatch.setattr(os, "replace", interrupted)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        monkeypatch.undo()
        assert code == 3, err
        assert not (tmp_path / "out" / "checkpoint.jsonl").exists()
        assert not (tmp_path / "out" / "checkpoint.jsonl.part").exists()
        assert err.splitlines() == ["error: interrupted"]  # nothing to resume
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith("error: nothing to resume")

    def test_an_interrupt_while_the_config_is_read_exits_3(self, capsys, tmp_path,
                                                            monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        monkeypatch.setattr(cli_module, "load_config", interrupted)
        for command in ("run", "resume"):
            code, _, err = run_cli(capsys, command, "--config", str(cfg))
            assert code == 3, err
            assert err.splitlines() == ["error: interrupted"]
        assert not (tmp_path / "out").exists()

    # the pool has no seed of its own, so a negative master seed would
    # reach its seed derivation before the plan is built
    @pytest.mark.parametrize("command, how, message", [
        ("run", "flag", "config: master_seed must be non-negative, got -1"),
        ("run", "env", "config: master_seed must be non-negative, got -1"),
        ("reps", "flag", "--seed must be non-negative, got -1"),
        ("reps", "env", "config: master_seed must be non-negative, got -1"),
    ], ids=["run-flag", "run-env", "reps-flag", "reps-env"])
    def test_negative_seed_is_refused_naming_it(self, capsys, tmp_path,
                                                monkeypatch, command, how, message):
        cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
        argv = [command, "--config", str(cfg)]
        if command == "reps":
            argv += ["--instance", "synth-00000"]
        if how == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("PAIRCOMP_SEED", "-1")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--config", "{config}", "--output-dir", "{file}"], None),
    (["design", "--alpha", "0.05", "--power", "0.8", "--d", "0.5",
      "--out", "{file}/x.json"], "--out"),
    (["power", "--n", "20", "--d", "0.3", "--alpha", "0.05",
      "--out", "{file}/p.json"], "--out"),
    (["power", "--n", "20", "--d-range", "0.1:0.5", "--highlights", "0.5",
      "--alpha", "0.05", "--curve-out", "{file}/c.csv"], "--curve-out"),
], ids=["run-output-dir", "design-out", "power-out", "power-curve-out"])
def test_unwritable_output_path_exits_two(capsys, tmp_path, argv, flag):
    # a regular file where a directory must be
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, SYNTH_RUN_CONFIG)
    code, out, err = run_cli(capsys, *(arg.format(config=cfg, file=blocker)
                                       for arg in argv))
    assert code == 2
    # the output file is written before any result is printed
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and str(blocker) in line
    if flag:
        assert line.startswith(f"error: {flag}: cannot write {blocker}/")
    assert blocker.read_text() == ""


def test_only_the_first_sigterm_interrupts_and_the_handler_is_restored():
    # a second SIGTERM must not raise into the kill of the solvers that
    # the first one started
    previous = signal.getsignal(signal.SIGTERM)
    caught = 0
    with _sigterm_interrupts():
        for _ in range(2):
            try:
                signal.raise_signal(signal.SIGTERM)
                time.sleep(0.05)
            except KeyboardInterrupt:
                caught += 1
    assert caught == 1
    assert signal.getsignal(signal.SIGTERM) is previous


def test_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


# runs the command lines given as a JSON list in turn, in one process, and
# prints each one's exit code, stdout and stderr
CALL_IN_TURN = """
import contextlib, io, json, sys
from paircomp.cli import main

def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]

print(json.dumps([call(argv) for argv in json.loads(sys.argv[1])]))
"""

POWER_D = ["power", "--n", "30", "--d", "0.5", "--alpha", "0.05", "--out", "p.json"]
CALLS_IN_TURN = [
    ["--help"], ["design", "--help"], POWER_D,
    ["power", "--n", "30", "--d-range", "0.1:0.9", "--points", "20",
     "--highlights", "0.5,0.8", "--alpha", "0.05", "--curve-out", "c.csv"],
    ["design", "--alpha", "0.05", "--power", "0.8", "--d", "0.5", "--test", "sign",
     "--out", "d.json"],
    ["power", "--n", "many", "--alpha", "0.05"],
    POWER_D, ["design", "--help"], ["--help"],
]


def test_calls_in_one_process_equal_calls_in_fresh_ones(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(paircomp.__file__).parent.parent), env.get("PYTHONPATH")]))

    def call_in_turn(calls, cwd):
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", CALL_IN_TURN, json.dumps(calls)],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout), {p.name: p.read_bytes() for p in cwd.iterdir()}

    together, together_files = call_in_turn(CALLS_IN_TURN, tmp_path / "together")
    assert [code for code, _, _ in together] == [0, 0, 0, 0, 0, 2, 0, 0, 0]
    alone, alone_files = {}, {}
    for i, (argv, result) in enumerate(zip(CALLS_IN_TURN, together)):
        key = json.dumps(argv)
        if key not in alone:
            [alone[key]], files = call_in_turn([argv], tmp_path / f"alone-{i}")
            alone_files.update(files)
        assert result == alone[key], argv
    assert together_files == alone_files


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished 5-instance run: its config, journal and result files."""
    root = tmp_path_factory.mktemp("finished")
    cfg = write_config(root, SYNTH_RUN_CONFIG.replace("count: 50", "count: 5"))
    assert main(["run", "--config", str(cfg)]) == 0
    out = root / "out"
    results = {name: (out / name).read_bytes() for name in ("results.csv", "report.json")}
    return cfg, (out / "checkpoint.jsonl").read_bytes(), results


def resume_after_cut(finished_run, cut):
    """Resume from the finished journal cut to ``cut`` bytes, in a fresh directory."""
    cfg, journal, expected = finished_run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "checkpoint.jsonl").write_bytes(journal[:cut])
        code = main(["resume", "--config", str(cfg), "--output-dir", str(out)])
        got = {name: (out / name).read_bytes() for name in expected if (out / name).exists()}
    header_end = journal.index(b"\n") + 1
    if cut < header_end:
        assert code == 2, cut
    else:
        assert code == 0, cut
        assert got == expected, cut


class TestJournalTruncation:
    """Resuming from a journal cut at any byte reproduces the uncut results."""

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_cut_at_any_byte(self, finished_run, data):
        journal = finished_run[1]
        resume_after_cut(finished_run, data.draw(st.integers(0, len(journal))))

    def test_cut_around_the_header_newline(self, finished_run):
        header_end = finished_run[1].index(b"\n") + 1
        for cut in (0, header_end - 1, header_end, header_end + 1):
            resume_after_cut(finished_run, cut)


# long enough that seeded kills land before the journal exists, among its
# rows, and while the result files are written (about 0.4 s, 0.25 s and
# 0.05 s on a 2-core VM)
KILL_CONFIG = """\
design: {alpha: 0.05, power: 0.85, d: 0.5, test: t_test}
sampling: {se_max: 0.05, n0: 4, n_max: 60}
instances:
  synthetic_pool: {count: 600, delta: 0.3, sigma_phi: 1.0, noise_sd: 0.5}
use_all_instances: true
master_seed: 99
workers: 1
"""


def watched_run(cfg, out, kill=None):
    """``run`` of ``cfg`` into ``out`` in a fresh interpreter, watched every
    2 ms: the times from its start at which the journal and the results
    table were first seen and at which it ended, and its exit code.  With
    ``kill = (event, delay)`` it gets SIGKILL ``delay`` seconds after the
    event ("start", "journal" or "results") was seen."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(paircomp.__file__).parent.parent), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "paircomp", "run", "--config", str(cfg),
                             "--output-dir", str(out)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    start = time.monotonic()
    seen = {"start": 0.0}
    try:
        while proc.poll() is None:
            now = time.monotonic() - start
            for event, name in (("journal", "checkpoint.jsonl"), ("results", "results.csv")):
                if event not in seen and (out / name).exists():
                    seen[event] = now
            if kill and kill[0] in seen and now >= seen[kill[0]] + kill[1]:
                proc.kill()
                break
            time.sleep(0.002)
        err = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
        proc.wait()
    seen["end"] = time.monotonic() - start
    return seen, proc.returncode, err


def test_a_run_killed_anywhere_resumes_to_the_same_files(capsys, tmp_path):
    # SIGKILL at four seeded instants of a run: before the journal exists,
    # in each half of its rows, and while the result files are written.
    # `resume` then either refuses (no journal) or ends with every file,
    # the journal included, byte-identical to the uninterrupted run's
    cfg = write_config(tmp_path, KILL_CONFIG)
    times, code, err = watched_run(cfg, tmp_path / "whole")
    assert code == 0, err
    expected = {path.name: path.read_bytes() for path in (tmp_path / "whole").iterdir()}
    rng = random.Random(36)
    rows = times["results"] - times["journal"]
    kills = [("start", rng.uniform(0.0, times["journal"])),
             ("journal", rng.uniform(0.0, rows / 2)),
             ("journal", rng.uniform(rows / 2, rows)),
             ("results", rng.uniform(0.0, times["end"] - times["results"]))]
    codes = []
    for i, kill in enumerate(kills):
        out = tmp_path / f"killed-{i}"
        codes.append(watched_run(cfg, out, kill)[1])
        code, _, err = run_cli(capsys, "resume", "--config", str(cfg), "--output-dir", str(out))
        if code == 2:
            assert "nothing to resume" in err, kill
        else:
            assert code == 0, (kill, err)
            assert {path.name: path.read_bytes() for path in out.iterdir()} == expected, kill
    assert -signal.SIGKILL in codes


def magnitudes():
    """A power of ten from 1e-300 to 1e300, or now and then 0."""
    return st.floats(-330.0, 300.0).map(lambda e: 0.0 if e < -300.0 else 10.0 ** e)


def signed(values):
    return st.tuples(values, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


class TestExtremeScales:
    """The exit-code contract holds for means, spreads and null values across
    the float range.  Every config drawn is valid, so none may exit 2, and
    exit 3 comes only from a run whose value overflows."""

    @given(test=st.sampled_from(["t_test", "wilcoxon", "sign"]),
           diff=st.sampled_from(["simple", "percent"]),
           se_method=st.sampled_from(["parametric", "bootstrap"]),
           means=st.lists(st.tuples(signed(magnitudes()), signed(magnitudes())),
                          min_size=3, max_size=3),
           positive=st.booleans(),
           sigmas=st.tuples(magnitudes(), magnitudes()),
           se_max=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
           mu0=signed(magnitudes()),
           seed=st.integers(0, 2 ** 32 - 1))
    # the spread of one algorithm's runs overflows a float
    @example(test="wilcoxon", diff="simple", se_method="parametric",
             means=[(0.0, 0.0)] * 3, positive=False, sigmas=(1e200, 1.0),
             se_max=0.5, mu0=0.0, seed=3)
    @example(test="sign", diff="simple", se_method="bootstrap",
             means=[(0.0, 0.0)] * 3, positive=False, sigmas=(1e200, 1.0),
             se_max=0.5, mu0=0.0, seed=3)
    # differences of 1.6e308: their Walsh averages and resampled means
    # overflow unless scaled
    @example(test="wilcoxon", diff="simple", se_method="parametric",
             means=[(-8e307, 8e307), (-7e307, 9e307), (0.0, 1.0)], positive=False,
             sigmas=(0.0, 0.0), se_max=0.5, mu0=0.0, seed=3)
    @example(test="sign", diff="simple", se_method="parametric",
             means=[(-8e307, 8e307), (-7e307, 9e307), (0.0, 1.0)], positive=False,
             sigmas=(0.0, 0.0), se_max=0.5, mu0=0.0, seed=3)
    # means of 1e308 and -1e308: the difference of the means is -inf
    @example(test="wilcoxon", diff="simple", se_method="parametric",
             means=[(1e308, -1e308), (0.0, 0.0), (0.0, 1.0)], positive=False,
             sigmas=(0.0, 0.0), se_max=0.5, mu0=0.0, seed=3)
    # near-constant differences against mu0 = -1e308: t is past the float range
    @example(test="t_test", diff="simple", se_method="parametric",
             means=[(0.0, 1.0), (0.0, 1.0000000000000002), (0.0, 1.0)],
             positive=False, sigmas=(0.0, 0.0), se_max=0.5, mu0=-1e308, seed=3)
    @settings(max_examples=100, deadline=None)
    def test_exit_code_contract(self, test, diff, se_method, means, positive,
                                sigmas, se_max, mu0, seed):
        if positive:
            # positive means, and a baseline spread that keeps them so, for
            # percent differences to get past the baseline check
            means = [(abs(mu1), abs(mu2)) for mu1, mu2 in means]
            sigmas = (min(sigmas[0], min(mu1 for mu1, _ in means) / 4), sigmas[1])
        config = {
            "design": {"alpha": 0.05, "power": 0.8, "d": 0.5, "test": test,
                       "mu0": mu0},
            "sampling": {"se_max": se_max, "n0": 3, "n_max": 8, "diff": diff,
                         "se_method": se_method, "bootstrap": {"resamples": 100}},
            "algorithms": [
                {"alias": "one", "kind": "synthetic_normal",
                 "params": {"mu": 0.0, "sigma": sigmas[0]}},
                {"alias": "two", "kind": "synthetic_normal",
                 "params": {"mu": 0.0, "sigma": sigmas[1]}}],
            "instances": {"inline": [
                {"id": f"i{k}", "payload": {"one": {"mu": mu1}, "two": {"mu": mu2}}}
                for k, (mu1, mu2) in enumerate(means)]},
            "master_seed": seed,
            "use_all_instances": True,
        }
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            cfg = out / "config.yaml"
            cfg.write_text(json.dumps(config))
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(["run", "--config", str(cfg), "--output-dir", str(out)])
            assert caught == []
            assert code in (0, 3, 4)
            if code:
                [line] = err.getvalue().splitlines()
                assert line.startswith("error: ")
                assert code == 4 or "run produced a non-finite value" in line, line
            else:
                with (out / "results.csv").open() as fh:
                    for row in csv.DictReader(fh):
                        assert math.isfinite(float(row["phi"])), row
                        assert math.isfinite(float(row["se"])), row


# two valid configs, each of which ends well under a second
CONTRACT_BASES = {
    "pool": {
        "design": {"alpha": 0.05, "power": 0.8, "d": 0.5, "alternative": "two_sided",
                   "test": "t_test", "mu0": 0.0},
        "sampling": {"se_max": 0.5, "n0": 3, "n_max": 20, "diff": "simple",
                     "se_method": "parametric", "bootstrap": {"resamples": 100},
                     "force_balance": False},
        "instances": {"synthetic_pool": {"count": 6, "delta": 0.3, "sigma_phi": 1.0,
                                         "noise_sd": 0.5, "base_mean": 0.0, "seed": 3}},
        "master_seed": 5, "workers": 1, "use_all_instances": False,
        "output_dir": "out", "sigma_phi_bound": 1.0,
    },
    "inline": {
        "design": {"alpha": 0.05, "power": 0.8, "d": 0.5, "test": "wilcoxon"},
        "sampling": {"se_max": 0.3, "n0": 3, "n_max": 20, "diff": "percent",
                     "se_method": "bootstrap", "bootstrap": {"resamples": 100}},
        "algorithms": [
            {"alias": "one", "kind": "synthetic_lognormal",
             "params": {"mu": 0.0, "sigma": 0.5}, "timeout": 10.0,
             "concurrent_safe": True},
            {"alias": "two", "kind": "synthetic_lognormal",
             "params": {"mu": 0.1, "sigma": 0.8}}],
        "instances": {"inline": [{"id": f"i{k}", "payload": {"two": {"mu": 0.1 * k}}}
                                 for k in range(5)]},
        "master_seed": 7, "workers": 2, "use_all_instances": True, "output_dir": "out",
    },
}
CONTRACT_FIRST_IDS = {"pool": "synth-00000", "inline": "i0"}


def _leaves(node, path=()):
    """The path to every value of ``node`` that is not a nonempty container."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


_DELETE = "<deleted>"
CONTRACT_LEAVES = [(base, path) for base, doc in CONTRACT_BASES.items()
                   for path in _leaves(doc)]
CONTRACT_VALUES = ["x", None, 0.0, -0.0, 5e-324, 1e308, -1e308, math.nan, math.inf,
                   -math.inf, 2 ** 31, 2 ** 63, 2 ** 64, 10 ** 400, True, False, [], {},
                   _DELETE]


class TestConfigContract:
    """One leaf of a valid config replaced by an extreme or ill-typed value,
    or deleted: ``run`` and ``reps`` each end with 0, 2, 3 or 4, a failure
    with the one line ``error: ...``, no warning, and in bounded time."""

    @pytest.mark.parametrize("base", list(CONTRACT_BASES))
    def test_the_bases_run(self, capsys, tmp_path, base):
        cfg = write_config(tmp_path, yaml.safe_dump(CONTRACT_BASES[base]))
        for argv in (["run", "--config", str(cfg)],
                     ["reps", "--config", str(cfg), "--instance", CONTRACT_FIRST_IDS[base]]):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv

    def test_an_overflowing_latent_difference_exits_2(self, capsys, tmp_path):
        # found with two leaves changed at once: delta + sigma_phi * z
        # overflowed, and numpy's warning went to stderr beside the error
        doc = copy.deepcopy(CONTRACT_BASES["pool"])
        doc["instances"]["synthetic_pool"].update(delta=1e308, sigma_phi=1e308)
        cfg = write_config(tmp_path, yaml.safe_dump(doc))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        [line] = err.splitlines()
        assert code == 2
        assert line.startswith("error: config: instance ") and "got inf" in line

    @given(leaf=st.sampled_from(CONTRACT_LEAVES), value=st.sampled_from(CONTRACT_VALUES))
    @settings(max_examples=200, deadline=None)
    def test_exit_code_contract(self, leaf, value):
        base, path = leaf
        doc = copy.deepcopy(CONTRACT_BASES[base])
        node = doc
        for step in path[:-1]:
            node = node[step]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.yaml"
            cfg.write_text(yaml.safe_dump(doc))
            for argv in (["run", "--config", str(cfg)],
                         ["reps", "--config", str(cfg), "--instance",
                          CONTRACT_FIRST_IDS[base]]):
                err = io.StringIO()
                started = time.monotonic()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = main(argv)
                assert time.monotonic() - started < 10.0, argv
                assert caught == [], [str(w.message) for w in caught]
                assert code in (0, 2, 3, 4), argv
                if code:
                    [line] = err.getvalue().splitlines()
                    assert line.startswith("error: "), line


# a solver that leaves its pid behind and, while the hold file exists,
# sleeps 3 s before it prints its value
HELD_SOLVER = """\
import os, sys, time
from pathlib import Path
pids, hold, seed, offset = sys.argv[1:]
(Path(pids) / str(os.getpid())).touch()
if Path(hold).exists():
    time.sleep(3)
print(int(seed) % 1000 / 100 + float(offset))
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")  # a zombie has ended
    return not (stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] == "Z")


def _interrupt_cli(pids, signum, *argv):
    """Start ``python -m paircomp`` with ``argv`` and send it ``signum`` once
    a held solver has left its pid in ``pids``.  The command must end
    within 2 s with exit code 3, no traceback and no solver alive; returns
    its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(paircomp.__file__).parent.parent), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "paircomp", *argv],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        deadline = time.monotonic() + 60
        while not any(pids.iterdir()) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert any(pids.iterdir()), "no solver started"
        # timeout(1) sends SIGTERM twice: to the process, then to its group
        for _ in range(2 if signum == signal.SIGTERM else 1):
            proc.send_signal(signum)
        sent = time.monotonic()
        _, err = proc.communicate(timeout=30)
        assert time.monotonic() - sent < 2.0
    finally:
        proc.kill()
        proc.wait()
    assert [pid.name for pid in pids.iterdir() if _alive(int(pid.name))] == []
    assert proc.returncode == 3, err
    assert "Traceback" not in err
    return err


DESIGN_ARGV = ["design", "--alpha", "0.05", "--power", "0.8", "--d", "0.5"]
POWER_ARGV = ["power", "--n", "30", "--d", "0.5", "--alpha", "0.05"]


@pytest.mark.parametrize("argv, step", [(DESIGN_ARGV, "calc_instances"),
                                        (POWER_ARGV, "calc_power")],
                         ids=["design", "power"])
def test_an_interrupted_query_exits_3(capsys, monkeypatch, argv, step):
    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli_module, step, interrupted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", "error: interrupted\n")


# runs paircomp with its power computation slowed: it touches the file
# named first and sleeps, so that a signal lands inside the command
SLOW_POWER = """
import sys, time
from pathlib import Path
import paircomp.cli as cli

started = Path(sys.argv.pop(1))

def slow(*args):
    started.touch()
    time.sleep(30)

cli.calc_power = slow
cli.entrypoint()
"""


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["sigint", "sigterm"])
def test_a_signalled_power_query_exits_3(tmp_path, signum):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(paircomp.__file__).parent.parent), env.get("PYTHONPATH")]))
    started = tmp_path / "started"
    proc = subprocess.Popen([sys.executable, "-c", SLOW_POWER, str(started), *POWER_ARGV],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        deadline = time.monotonic() + 60
        while not started.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert started.exists(), "power did not start"
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (3, "", "error: interrupted\n")


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["sigint", "sigterm"])
def test_an_interrupted_reps_kills_its_solver_and_exits_3(tmp_path, signum):
    solver, pids, hold = tmp_path / "solver.py", tmp_path / "pids", tmp_path / "hold"
    solver.write_text(HELD_SOLVER)
    pids.mkdir()
    hold.touch()
    python = json.dumps(sys.executable)
    algorithms = "".join(
        f"  - {{alias: {alias}, kind: subprocess, params: {{executable: {python}, "
        f"args: {json.dumps([str(solver), str(pids), str(hold), '{seed}', '0'])}}}}}\n"
        for alias in ("one", "two"))
    cfg = write_config(tmp_path, (
        "design: {alpha: 0.05, power: 0.8, d: 0.5}\n"
        "sampling: {se_max: 0.01, n0: 2, n_max: 4}\n"
        "algorithms:\n" + algorithms + "instances:\n  inline: [{id: a}]\n"
        "master_seed: 7\n"))
    err = _interrupt_cli(pids, signum, "reps", "--config", str(cfg),
                         "--instance", "a", "--seed", "1")
    assert err.splitlines() == ["error: interrupted"]


@pytest.mark.parametrize("signum, workers", [
    pytest.param(signal.SIGINT, 1, id="1"),
    pytest.param(signal.SIGINT, 2, id="2"),
    # as `timeout` or a batch scheduler sends it: it stops a run as Ctrl-C does
    pytest.param(signal.SIGTERM, 1, id="sigterm-1"),
    pytest.param(signal.SIGTERM, 2, id="sigterm-2"),
])
def test_sigint_kills_the_solvers_and_resume_completes(capsys, tmp_path, signum, workers):
    solver, pids, hold = tmp_path / "solver.py", tmp_path / "pids", tmp_path / "hold"
    solver.write_text(HELD_SOLVER)
    pids.mkdir()
    python = json.dumps(sys.executable)

    def algorithm(alias, offset):
        args = json.dumps([str(solver), str(pids), str(hold), "{seed}", offset])
        return (f"  - {{alias: {alias}, kind: subprocess, "
                f"params: {{executable: {python}, args: {args}}}}}\n")

    cfg = write_config(tmp_path, (
        "design: {alpha: 0.05, power: 0.8, d: 0.5}\n"
        "sampling: {se_max: 0.01, n0: 2, n_max: 4}\n"
        "algorithms:\n" + algorithm("one", "0") + algorithm("two", "0.5") +
        "instances:\n  inline: [{id: a}, {id: b}, {id: c}, {id: d}]\n"
        f"use_all_instances: true\nmaster_seed: 7\nworkers: {workers}\n"
        "output_dir: out\n"))
    whole = tmp_path / "whole"
    assert run_cli(capsys, "run", "--config", str(cfg), "--output-dir", str(whole))[0] == 0
    for pid in pids.iterdir():
        pid.unlink()

    hold.touch()
    err = _interrupt_cli(pids, signum, "run", "--config", str(cfg))
    [line] = err.splitlines()
    assert line.startswith("error: interrupted") and "paircomp resume" in line

    hold.unlink()
    code, _, err = run_cli(capsys, "resume", "--config", str(cfg))
    assert code == 0, err
    out = tmp_path / "out"
    for name in ("results.csv", "report.json", "summary.txt", "qq.csv",
                 "boot_sdm.csv", "boot_sdm_qq.csv"):
        assert (out / name).read_bytes() == (whole / name).read_bytes(), name
    assert sorted((out / "checkpoint.jsonl").read_text().splitlines()) == \
           sorted((whole / "checkpoint.jsonl").read_text().splitlines())
