import csv
import json
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircomp.cli import main
from paircomp.reporting import fmt


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

    def test_unreached_level_is_reported(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "power", "--n", "20",
                               "--d-range", "0.05:0.2", "--points", "10",
                               "--highlights", "0.1,0.99", "--alpha", "0.05",
                               "--curve-out", str(tmp_path / "curve.csv"))
        assert code == 0
        assert "power 0.99 not reached on this range" in out.splitlines()
        assert any(line.startswith("power 0.1 reached at d = ")
                   for line in out.splitlines())


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

    def test_prints_the_bootstrap_fallback_note(self, capsys, tmp_path):
        # the first solver alternates 4 and 6, the second prints 5: after
        # n0 = 2 runs each the mean gap is exactly zero, so the percent SE
        # falls back to the bootstrap
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
        assert "phi: 0" in lines and "se method: bootstrap" in lines
        assert ("note: parametric percent SE degenerate at n1=2, n2=2; "
                "switched to bootstrap SE") in lines

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

    @pytest.mark.parametrize("line, edit", [
        (3, lambda row: {k: v for k, v in row.items() if k != "phi"}),
        (3, lambda row: [1, 2]),
        (1, lambda row: [1, 2]),
        (3, lambda row: {**row, "phi": "abc"}),
        (3, lambda row: {**row, "diff_kind": "ratio"}),
        (3, lambda row: {**row, "budget_exhausted": "false"}),
        (3, lambda row: {**row, "n1": 3.9}),
        (3, lambda row: {**row, "se": -1.0}),
    ], ids=["missing-field", "row-not-object", "header-not-object",
            "bad-number", "bad-enum", "flag-not-bool", "count-not-int",
            "negative-se"])
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
