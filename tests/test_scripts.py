"""Smoke tests: each experiment script runs end to end at a tiny size."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_tsp_demo_experiment(tmp_path):
    out = tmp_path / "out"
    proc = run_script("tsp_demo_experiment.py", "--cities", "8", "--pool-size", "4",
                      "--budget", "50", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("checkpoint.jsonl", "results.csv", "qq.csv", "summary.txt"):
        assert (out / name).stat().st_size > 0, name
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 1 + 4  # header + the whole pool
    assert "instances used: 4" in proc.stdout


def test_calibration_experiment(tmp_path):
    proc = run_script("calibration_experiment.py", "--replications", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "observed rejection rate with the effect:" in proc.stdout
    assert "observed rejection rate under the null:" in proc.stdout
    assert "6 experiments in" in proc.stdout
    assert list(tmp_path.iterdir()) == []  # it prints, and writes nothing


def test_code_lines(tmp_path):
    package = ROOT / "src" / "paircomp"
    proc = run_script("code_lines.py", str(package), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert [name for _, name in rows] == sorted(
        str(path.relative_to(package)) for path in package.rglob("*.py"))
    assert total == [str(sum(int(count) for count, _ in rows)), "total"]


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nimport os  # counted\n\n'
        'class A:\n    """Class docstring."""\n\n    def f(self):\n'
        '        """Function\n        docstring."""\n        x = """not a\n'
        '        docstring"""\n        return x\n')
    proc = run_script("code_lines.py", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # import, class, def, the two lines of the assigned string, return
    assert proc.stdout.splitlines() == ["     6  mod.py", "     6  total"]


# four instances, bootstrap SE: the in-process A/B's smallest useful config
AB_CONFIG = """\
design: {alpha: 0.05, power: 0.8, d: 0.5, test: wilcoxon}
sampling: {se_max: 0.05, n0: 5, n_max: 20, diff: percent, se_method: bootstrap}
algorithms:
  - {alias: one, kind: synthetic_lognormal, params: {mu: 0.0, sigma: 0.3}}
  - {alias: two, kind: synthetic_lognormal, params: {mu: 0.1, sigma: 0.4}}
instances:
  inline: [{id: a}, {id: b}, {id: c}, {id: d}]
use_all_instances: true
master_seed: 5
"""


def test_ab_inprocess_a_against_a(tmp_path):
    (tmp_path / "config.yaml").write_text(AB_CONFIG)
    proc = run_script("ab_inprocess.py", str(ROOT / "src"), str(ROOT / "src"), "config.yaml",
                      "--rounds", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rounds"] == 3 and len(result["ratios"]) == 3
    assert result["ratio_q1"] <= result["ratio_median"] <= result["ratio_q3"]
    assert result["outputs_identical"] is True
    assert "outputs identical" in proc.stdout.splitlines()[0]
    assert list(tmp_path.iterdir()) == [tmp_path / "config.yaml"]


def test_ab_inprocess_differing_outputs_exit_1(tmp_path):
    # a copy whose results table gains a line
    shutil.copytree(ROOT / "src" / "paircomp", tmp_path / "other" / "paircomp")
    with (tmp_path / "other" / "paircomp" / "reporting.py").open("a") as fh:
        fh.write("\n_table = write_results_table\n\n\n"
                 "def write_results_table(path, diffs):\n"
                 "    _table(path, diffs)\n"
                 "    Path(path).write_text(Path(path).read_text() + '\\n')\n")
    (tmp_path / "config.yaml").write_text(AB_CONFIG)
    proc = run_script("ab_inprocess.py", str(ROOT / "src"), str(tmp_path / "other"), "config.yaml",
                      "--rounds", "1", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["outputs_identical"] is False
