"""The benchmark's workloads: inputs made from a seed, the ops, output checks.

Every op is one call of the public entry point ``paircomp.cli.main(argv)``
with argv exactly as a user would type it.  Inputs (config files, instance
pools, the subprocess solver and its instance files) are generated here
from the benchmark seed with the standard library's ``random``; the
program receives only those files.  Each workload has a full size, which
is timed, and a mini size, which is the warm-up op before timing and the
size the self-test uses.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is recorded in ``bench/README.md``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# plan outputs must agree with the scipy reference to this absolute
# tolerance on power; instance counts must match exactly unless the
# reference power at the boundary lies within it of the target
POWER_TOL = 1e-8

ARE_DIVISOR = {"t": 1.0, "wilcoxon": 0.86, "sign": 0.637}

SOLVER = '''\
"""Tiny stand-in solver: one noisy objective value per run."""
import random
import sys

path, seed, shift, scale = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
with open(path) as fh:
    mu, sd = (float(tok) for tok in fh.read().split())
print(repr(random.Random(seed).gauss(mu + shift, sd * scale)))
'''


@dataclass
class Op:
    """One closed-loop op: argv for ``paircomp.cli.main`` and its check.

    ``check`` reads the op's outputs after it returned 0 and gives an error
    message (or None) and the number of work items it completed.
    """
    label: str
    argv: list[str]
    check: Callable[[], tuple[str | None, int]]


def _rng(seed: int, *path) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + path))


def _seed63(seed: int, *path) -> int:
    return _rng(seed, *path).getrandbits(63)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    # whether op times are rescaled by the in-process speed probe (run.py)
    speed_scaled = True

    def __init__(self, seed: int, workdir: Path, mini: bool):
        self.seed = seed
        self.dir = workdir
        self.mini = mini
        self.dir.mkdir(parents=True, exist_ok=True)

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# plan: design and power queries


def _ref_power(n, d, alpha, two_sided):
    """Power of the paired t-test from scipy's noncentral t (array-friendly)."""
    import numpy as np
    from scipy.special import nctdtr, stdtrit
    n = np.asarray(n, dtype=float)
    df = n - 1.0
    ncp = np.asarray(d, dtype=float) * np.sqrt(n)
    if two_sided:
        hi = stdtrit(df, 1.0 - 0.5 * alpha)
        return 1.0 - (nctdtr(df, ncp, hi) - nctdtr(df, ncp, -hi))
    return 1.0 - nctdtr(df, ncp, stdtrit(df, 1.0 - alpha))


def _ref_n_t(d, alpha, target, two_sided) -> int:
    def power(n):
        return float(_ref_power(n, d, alpha, two_sided))
    lo, hi = 1, 2
    while power(hi) < target:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 2 and power(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


class Plan(Workload):
    """A sweep of ``design`` and ``power`` queries; no runs, no sampling."""
    name = "plan"

    TESTS = ("t", "wilcoxon", "sign")
    ALTERNATIVES = ("two-sided", "one-sided")
    ALPHAS = (0.01, 0.05, 0.1)
    TARGETS = (0.8, 0.85, 0.9)
    DESIGN_DS = (0.12, 0.3, 0.6, 1.0)
    POWER_NS = (10, 30, 100, 300, 1000, 2000)
    POWER_DS = (0.3, 0.9)
    # Curves come in two groups.  Ten one-sided curves at N = 20 and
    # alpha = 0.05 cost about the same and put the 90th-percentile query
    # inside that group, not on the edge between the design queries and
    # the curves.  The large-N curves cost the most; at N = 1000 the upper
    # end of the effect range puts |ncp| above 40, which takes the
    # noncentral CDF's quadrature path.
    SMALL_CURVES = ((20, "one-sided", 0.05),) * 10
    LARGE_CURVES = ((150, "two-sided", 0.01), (300, "one-sided", 0.05),
                    (600, "two-sided", 0.1), (1000, "one-sided", 0.01),
                    (1000, "two-sided", 0.05))
    CURVE_RANGE = (0.05, 1.5)
    # every effect size gets a jitter of up to this share, drawn afresh for
    # each seed and pass: distinct queries of a fixed shape
    JITTER = 0.05

    def ops(self, pass_index: int) -> list[Op]:
        rng = _rng(self.seed, self.name, pass_index)
        ops: list[Op] = []

        def add(kind, make, *params):
            ops.append(make(self.dir / f"{kind}-{len(ops)}", *params))

        def jitter(d):
            return round(d * (1.0 + self.JITTER * rng.uniform(-1.0, 1.0)), 4)
        tests = self.TESTS[:1] if self.mini else self.TESTS
        alphas = self.ALPHAS[1:2] if self.mini else self.ALPHAS
        for test in tests:
            for alt in self.ALTERNATIVES:
                for alpha in alphas:
                    for d in self.DESIGN_DS:
                        add("design", self._design, test, alt, alpha, jitter(d),
                            self.TARGETS[len(ops) % 3])
        for n in (self.POWER_NS[:1] if self.mini else self.POWER_NS):
            for alt in self.ALTERNATIVES:
                for d in self.POWER_DS[:1] if self.mini else self.POWER_DS:
                    add("power", self._power, n, jitter(d),
                        self.ALPHAS[len(ops) % 3], alt)
        curves = self.SMALL_CURVES + self.LARGE_CURVES
        for n, alt, alpha in curves[:1] if self.mini else curves:
            add("curve", self._curve, n, alpha, alt, 30 if self.mini else 300)
        return ops

    def _design(self, path, test, alt, alpha, d, target) -> Op:
        path = path.with_suffix(".json")
        argv = ["design", "--alpha", repr(alpha), "--power", repr(target),
                "--d", repr(d), "--alternative", alt, "--test", test,
                "--out", str(path)]

        def check():
            rec = json.loads(path.read_text())
            two = alt == "two-sided"
            n_t = _ref_n_t(d, alpha, target, two)
            div = ARE_DIVISOR[test]
            n_ref = n_t if div == 1.0 else math.ceil(round(n_t / div, 9))
            n_got = rec["n_instances"]
            if n_got != n_ref:
                edge = min(abs(float(_ref_power(m, d, alpha, two)) - target)
                           for m in (n_t - 1, n_t) if m >= 2)
                if edge > POWER_TOL:
                    return (f"design {argv}: N={n_got}, reference N={n_ref}", 1)
            ref = float(_ref_power(n_got, d, alpha, two))
            if abs(rec["achieved_power"] - ref) > POWER_TOL:
                return (f"design {argv}: power {rec['achieved_power']!r}, "
                        f"reference {ref!r}", 1)
            return None, 1
        return Op(path.stem, argv, check)

    def _power(self, path, n, d, alpha, alt) -> Op:
        path = path.with_suffix(".json")
        argv = ["power", "--n", str(n), "--d", repr(d), "--alpha", repr(alpha),
                "--alternative", alt, "--out", str(path)]

        def check():
            got = json.loads(path.read_text())["power"]
            ref = float(_ref_power(n, d, alpha, alt == "two-sided"))
            if abs(got - ref) > POWER_TOL:
                return f"power {argv}: {got!r}, reference {ref!r}", 1
            return None, 1
        return Op(path.stem, argv, check)

    def _curve(self, path, n, alpha, alt, points) -> Op:
        path = path.with_suffix(".csv")
        lo, hi = self.CURVE_RANGE
        argv = ["power", "--n", str(n), "--d-range", f"{lo}:{hi}",
                "--points", str(points), "--alpha", repr(alpha),
                "--alternative", alt, "--highlights", "0.5,0.8,0.9",
                "--curve-out", str(path)]

        def check():
            with path.open() as fh:
                rows = list(csv.reader(fh))[1:]
            if len(rows) != points:
                return f"curve {argv}: {len(rows)} points, expected {points}", 1
            ds = [float(r[0]) for r in rows]
            got = [float(r[1]) for r in rows]
            step = (hi - lo) / (points - 1)
            if any(abs(x - (lo + i * step)) > 1e-12 for i, x in enumerate(ds)):
                return f"curve {argv}: effect sizes off the requested grid", 1
            ref = _ref_power(n, ds, alpha, alt == "two-sided")
            worst = max(abs(g - float(r)) for g, r in zip(got, ref))
            if worst > POWER_TOL:
                return f"curve {argv}: power off the reference by {worst:.3g}", 1
            if any(b < a for a, b in zip(got, got[1:])):
                return f"curve {argv}: power is not nondecreasing in d", 1
            return None, 1
        return Op(path.stem, argv, check)


# ---------------------------------------------------------------------------
# run workloads


class RunWorkload(Workload):
    """Workloads of ``run`` (and ``resume``) ops over generated config files."""

    def __init__(self, seed, workdir, mini):
        super().__init__(seed, workdir, mini)
        # output digests by op label: every pass, traced or not, must
        # reproduce the bytes of the first
        self.digests: dict[str, str] = {}
        self._run_reports: dict[str, bytes] = {}
        self._ops = self.build()

    def build(self) -> list[Op]:
        raise NotImplementedError

    def ops(self, pass_index: int) -> list[Op]:
        return self._ops

    def _config(self, tag: str, doc: dict) -> Path:
        path = self.dir / f"{tag}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return path

    def _op(self, tag: str, kind: str, config: Path, doc: dict) -> Op:
        out = self.dir / f"out-{tag}"
        label = f"{kind}-{tag}"
        argv = [kind, "--config", str(config), "--output-dir", str(out)]
        sampling = doc["sampling"]
        expected = len(doc["instances"]["inline"]) if "inline" in doc["instances"] \
            else doc["instances"]["synthetic_pool"]["count"]

        def check():
            results, report = out / "results.csv", out / "report.json"
            with results.open() as fh:
                rows = list(csv.DictReader(fh))
            runs = 0
            for row in rows:
                n = int(row["n1"]) + int(row["n2"])
                runs += n
                exhausted = row["budget_exhausted"] == "true"
                if float(row["se"]) > sampling["se_max"] and not (
                        exhausted and n == sampling["n_max"]):
                    return (f"{label}: instance {row['instance']} has se "
                            f"{row['se']} > {sampling['se_max']} without an "
                            f"exhausted budget of {sampling['n_max']} runs", runs)
            rep_bytes = report.read_bytes()
            rep = json.loads(rep_bytes)
            if len(rows) != expected or rep["n_instances_used"] != expected \
                    or len(rep["per_instance"]) != expected:
                return f"{label}: expected {expected} instances", runs
            if not 0.0 <= rep["p_value"] <= 1.0:
                return f"{label}: p-value {rep['p_value']!r} outside [0, 1]", runs
            digest = _digest(results, report)
            if self.digests.setdefault(label, digest) != digest:
                return f"{label}: results.csv/report.json differ from pass 1", runs
            if kind == "run":
                self._run_reports[tag] = rep_bytes
                return None, runs
            if self._run_reports.get(tag) != rep_bytes:
                return f"{label}: report.json differs from the run's", 0
            # a resume re-runs nothing when the journal is complete
            return None, 0
        return Op(label, argv, check)


def _design(test: str) -> dict:
    return {"alpha": 0.05, "power": 0.8, "d": 0.5, "test": test}


class Synth(RunWorkload):
    """One ``run`` on a synthetic pool: simple differences, parametric SE."""
    name = "synth"

    def build(self):
        doc = {
            "design": _design("t_test"),
            # n_max sits where about 40% of the instances exhaust the budget
            "sampling": {"se_max": 0.2, "n0": 10, "n_max": 100,
                         "diff": "simple", "se_method": "parametric"},
            "instances": {"synthetic_pool": {
                "count": 10 if self.mini else 200, "delta": 0.3,
                "sigma_phi": 1.0, "noise_sd": 1.0,
                "seed": _seed63(self.seed, self.name, "pool")}},
            "master_seed": _seed63(self.seed, self.name, "master"),
            "use_all_instances": True,
            "workers": 1,
        }
        return [self._op("synth", "run", self._config("synth", doc), doc)]


class SynthBootstrap(RunWorkload):
    """One ``run`` on a lognormal pool: percent differences, bootstrap SE."""
    name = "synth-bootstrap"

    def build(self):
        rng = _rng(self.seed, self.name, "pool")
        count = 4 if self.mini else 30
        pool = []
        for j in range(count):
            base = rng.uniform(0.0, 1.0)
            pool.append({"id": f"lognormal-{j:03d}", "payload": {
                "algo1": {"mu": base, "sigma": rng.uniform(0.2, 0.5)},
                "algo2": {"mu": base + rng.gauss(0.05, 0.1),
                          "sigma": rng.uniform(0.2, 0.5)}}})
        doc = {
            "design": _design("wilcoxon"),
            # every instance spends its whole budget, so the work is the
            # same for every seed
            "sampling": {"se_max": 0.02, "n0": 10, "n_max": 80,
                         "diff": "percent", "se_method": "bootstrap",
                         "bootstrap": {"resamples": 999}},
            "algorithms": [
                {"alias": "algo1", "kind": "synthetic_lognormal",
                 "params": {"mu": 0.0, "sigma": 0.3}},
                {"alias": "algo2", "kind": "synthetic_lognormal",
                 "params": {"mu": 0.0, "sigma": 0.3}}],
            "instances": {"inline": pool},
            "master_seed": _seed63(self.seed, self.name, "master"),
            "use_all_instances": True,
            "workers": 1,
        }
        return [self._op("boot", "run", self._config("boot", doc), doc)]


class LargeN(RunWorkload):
    """``run`` then ``resume`` of one output directory for each test family.

    N stays above 1024: the sign test's exact binomial tail then overflows
    a float, and those ops count as failed until the program is fixed.
    """
    name = "large-n"

    def build(self):
        ops = []
        for test in ("t_test", "wilcoxon", "sign"):
            doc = {
                "design": _design(test),
                # minimum runs per instance: n_max = 2 * n0
                "sampling": {"se_max": 0.8, "n0": 2, "n_max": 4},
                "instances": {"synthetic_pool": {
                    "count": 40 if self.mini else 1100, "delta": 0.1,
                    "sigma_phi": 1.0, "noise_sd": 1.0,
                    "seed": _seed63(self.seed, self.name, "pool")}},
                "master_seed": _seed63(self.seed, self.name, "master"),
                "use_all_instances": True,
                "workers": 1,
            }
            config = self._config(test, doc)
            ops.append(self._op(test, "run", config, doc))
            ops.append(self._op(test, "resume", config, doc))
        return ops


class Subprocess(RunWorkload):
    """One ``run`` of two external solver processes at ``workers=2``."""
    name = "subprocess"
    # The time goes to spawning and waiting for solver processes on both
    # cores, which the in-process speed probe does not track: over five
    # seeds the scaled pass times spread twice as wide as the raw ones.
    speed_scaled = False

    def build(self):
        solver = self.dir / "solver.py"
        solver.write_text(SOLVER)
        inst_dir = self.dir / "instances"
        inst_dir.mkdir(exist_ok=True)
        rng = _rng(self.seed, self.name, "pool")
        pool = []
        for j in range(3 if self.mini else 8):
            path = inst_dir / f"inst-{j:03d}.txt"
            path.write_text(f"{rng.uniform(5.0, 15.0)!r} {rng.uniform(0.6, 1.4)!r}\n")
            pool.append({"id": path.stem, "payload": {"path": str(path)}})

        def algo(alias, shift, scale):
            return {"alias": alias, "kind": "subprocess", "timeout": 60,
                    "params": {"executable": sys.executable,
                               "args": ["-S", "-I", str(solver), "{instance}",
                                        "{seed}", shift, scale]}}
        doc = {
            "design": _design("t_test"),
            # every instance spends its whole budget: 160 runs, any seed
            "sampling": {"se_max": 0.05, "n0": 5, "n_max": 20},
            "algorithms": [algo("solver-a", "0.0", "1.0"),
                           algo("solver-b", "0.3", "1.5")],
            "instances": {"inline": pool},
            "master_seed": _seed63(self.seed, self.name, "master"),
            "use_all_instances": True,
            "workers": 2,
        }
        return [self._op("solver", "run", self._config("solver", doc), doc)]


WORKLOADS = {w.name: w for w in (Plan, Synth, SynthBootstrap, LargeN, Subprocess)}
