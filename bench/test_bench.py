"""Self-test of the benchmark: every workload at mini size, traced and not.

Checks that the command prints every metric named in ``BENCHMARK.json``
with its unit, both on its own line and in the final JSON object; that
the output checks ran and passed; and that the command fails without a
result where there are no paircomp sources.  Run from the repository
root with ``python3 bench/test_bench.py`` or ``python3 -m pytest
bench/test_bench.py``; it takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--mini"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _check_output(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stdout
    assert any(re.match(r"checks: all passed \(\d+ timed ops, 0 failed\)", ln)
               for ln in lines), proc.stdout
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"], m
        assert isinstance(value["value"], (int, float)), m
        pattern = rf"metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])} \("
        assert any(re.match(pattern, ln) for ln in lines), (m, proc.stdout)


def test_workloads_untraced():
    for w in SPEC["workloads"]:
        _check_output(w["name"], 0)


def test_workloads_traced():
    for w in SPEC["workloads"]:
        _check_output(w["name"], 1)


def test_fails_without_sources():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_fails_without_sources, test_workloads_untraced,
                 test_workloads_traced):
        test()
        print(f"{test.__name__}: ok")
