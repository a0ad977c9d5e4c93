"""Smoke tests: each experiment script runs end to end at a tiny size."""

import os
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
