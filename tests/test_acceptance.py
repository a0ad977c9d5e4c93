"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured quantities.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import importlib.util
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from paircomp.cli import main as cli_main
from paircomp.design import (Alternative, ComparisonDesign, calc_instances,
                             calc_power, curve_highlights, power_curve)
from paircomp.distributions import t_cdf, t_quantile
from paircomp.estimators import (DiffKind, bootstrap_se,
                                 optimal_ratio_percent, optimal_ratio_simple,
                                 phi_percent, se_percent, se_simple)
from paircomp.hypotests import sign_test, wilcoxon_signed_rank
from paircomp.runners import bind, build_synthetic_pool
from paircomp.sampler import SamplingConfig, calc_nreps

import oracles


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_sample_size_exactness(capsys):
    calls = [
        (("--power", "0.85", "--test", "t"), "required instances (N*): 38"),
        (("--power", "0.85", "--test", "wilcoxon"), "required instances (N*): 45"),
        (("--power", "0.80", "--test", "t"), "required instances (N*): 34"),
    ]
    ok = True
    slowest = 0.0
    for extra, expected in calls:
        t0 = time.perf_counter()
        _, out = run_cli(capsys, "design", "--d", "0.5", "--alpha", "0.05",
                         "--alternative", "two-sided", *extra)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        ok = ok and expected in out and elapsed < 1.0
    with capsys.disabled():
        verdict(1, "sample-size exactness", ok,
                f"t=38/wilcoxon=45/power80=34, slowest call {slowest:.2f}s")
    assert ok


def test_criterion_2_power_exactness(capsys):
    t0 = time.perf_counter()
    _, out = run_cli(capsys, "power", "--n", "100", "--d", "0.25",
                     "--alpha", "0.01", "--alternative", "one-sided")
    elapsed = time.perf_counter() - t0
    line = next(ln for ln in out.splitlines() if ln.startswith("power: "))
    value = float(line.split(": ")[1])
    ok = abs(value - 0.5554571) < 1e-4 and "power: 0.5554571" in out and elapsed < 1.0
    with capsys.disabled():
        verdict(2, "power exactness", ok, f"printed {line!r} in {elapsed:.2f}s")
    assert ok


def test_criterion_3_power_curve_highlights(capsys):
    curve = power_curve(100, 0.01, Alternative.ONE_SIDED, (0.05, 0.5), 300)
    hits = dict(curve_highlights(curve, [0.25, 0.5, 0.8, 0.95]))
    expected = {0.25: 0.17, 0.5: 0.24, 0.8: 0.32, 0.95: 0.40}
    devs = {lvl: abs(hits[lvl] - expected[lvl]) for lvl in expected}
    ok = all(dev <= 0.005 for dev in devs.values())
    with capsys.disabled():
        verdict(3, "power-curve highlights", ok,
                ", ".join(f"d({lvl})={hits[lvl]:.4f}" for lvl in expected))
    assert ok


def _allocation_walk(a, bcoef, ratio_fn, se_max, n_max=5000):
    """Alg-style allocation on frozen statistics using production rules."""
    n1 = n2 = 2
    while math.sqrt(a / n1 + bcoef / n2) > se_max and n1 + n2 < n_max:
        if n1 / n2 < ratio_fn(n1, n2):
            n1 += 1
        else:
            n2 += 1
    return n1, n2


def test_criterion_4_kkt_optimality(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250809)
    worst_gap = -10
    checked = 0
    for trial in range(200):
        sd1, sd2 = rng.uniform(0.5, 3.0, 2)
        total_target = rng.uniform(20.0, 320.0)
        if trial % 2 == 0:
            # simple differences: se^2 = sd1^2/n1 + sd2^2/n2
            a, b = sd1**2, sd2**2
            se_max = (sd1 + sd2) / math.sqrt(total_target)
            s1 = SimpleNamespace(mean=0.0, sd=sd1, variance=sd1**2, n=2)
            s2 = SimpleNamespace(mean=0.0, sd=sd2, variance=sd2**2, n=2)
            ratio = optimal_ratio_simple(s1, s2)
        else:
            # percent differences: se^2 = phi^2 c1/n1 + phi^2 c2/n2
            mean1 = rng.uniform(5.0, 15.0)
            gain = rng.choice([-1, 1]) * rng.uniform(0.05, 0.5)
            s1 = SimpleNamespace(mean=mean1, sd=sd1, variance=sd1**2, n=2)
            s2 = SimpleNamespace(mean=mean1 * (1 + gain), sd=sd2,
                                 variance=sd2**2, n=2)
            c1, c2 = oracles.fieller_coefficients(s1, s2)
            phi = phi_percent(s1, s2)
            a, b = phi**2 * c1, phi**2 * c2
            se_max = (math.sqrt(a) + math.sqrt(b)) / math.sqrt(total_target)
            ratio = optimal_ratio_percent(s1, s2)
        g1, g2, gtot = oracles.grid_min_total_runs(a, b, se_max)
        w1, w2 = _allocation_walk(a, b, lambda n1, n2: ratio, se_max)
        assert math.sqrt(a / w1 + b / w2) <= se_max  # walk lands feasible
        worst_gap = max(worst_gap, (w1 + w2) - gtot)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 2 and checked == 200 and elapsed < 60.0
    with capsys.disabled():
        verdict(4, "allocation within 2 runs of grid optimum", ok,
                f"{checked} configurations, worst excess {worst_gap} runs, "
                f"{elapsed:.1f}s")
    assert ok


def test_criterion_5_sampler_se_contract(capsys):
    pool, (spec1, spec2) = build_synthetic_pool(
        1, delta=0.0, sigma_phi=0.0, noise_sd=1.0, seed=0)
    # spread ratio 2: first algorithm noisier
    spec1 = type(spec1)(alias=spec1.alias, kind=spec1.kind,
                        params={"mu": 0.0, "sigma": 2.0})
    spec2 = type(spec2)(alias=spec2.alias, kind=spec2.kind,
                        params={"mu": 0.0, "sigma": 1.0})
    instance = pool[0]
    r1, r2 = bind(spec1, instance), bind(spec2, instance)
    cfg = SamplingConfig(se_max=0.2, n0=10, n_max=600)
    ratios = []
    violations = 0
    for seed in range(100):
        out = calc_nreps(r1, r2, instance, cfg, seed=seed)
        if not out.budget_exhausted and out.se_hat > cfg.se_max:
            violations += 1
        ratios.append(out.n1 / out.n2)
    median_ratio = float(np.median(ratios))
    ok = violations == 0 and 0.8 * 2.0 <= median_ratio <= 1.2 * 2.0
    with capsys.disabled():
        verdict(5, "adaptive-sampler SE contract", ok,
                f"0 SE violations expected (got {violations}), median n1/n2 = "
                f"{median_ratio:.3f} for spread ratio 2")
    assert ok


def test_criterion_6_monte_carlo_calibration(capsys):
    t0 = time.perf_counter()
    alpha, d_star, sigma_phi, n0 = 0.05, 0.5, 1.0, 5
    noise_sd = math.sqrt(0.1)                    # per-observation noise
    sigma_eps = noise_sd * math.sqrt(2.0 / n0)   # SE of each difference at n0
    sigma_total = math.hypot(sigma_phi, sigma_eps)
    delta = d_star * sigma_total
    design = ComparisonDesign(alpha=alpha, power_target=0.80, mres_d=d_star)
    n_star = calc_instances(design).n_instances
    target_power = calc_power(n_star, d_star, alpha, design.alternative)
    sampling = SamplingConfig(se_max=0.45, n0=n0, n_max=4 * n0, resamples=100)

    # the calibration script's own harness, so the two cannot drift apart
    path = Path(__file__).resolve().parent.parent / "scripts" / "calibration_experiment.py"
    spec = importlib.util.spec_from_file_location("calibration_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    common = dict(sigma_phi=sigma_phi, noise_sd=noise_sd, replications=500)
    effect_rate = script.rejection_rate(n_star, design, sampling, delta=delta,
                                        seed_base=3_000_000, **common)
    null_rate = script.rejection_rate(n_star, design, sampling, delta=0.0,
                                      seed_base=6_000_000, **common)
    elapsed = time.perf_counter() - t0
    ok = (abs(effect_rate - target_power) < 0.05
          and abs(null_rate - alpha) < 0.015
          and elapsed < 300.0)
    with capsys.disabled():
        verdict(6, "Monte Carlo calibration", ok,
                f"N*={n_star}, power {effect_rate:.3f} vs {target_power:.3f}, "
                f"null rate {null_rate:.3f} vs {alpha}, {elapsed:.0f}s")
    assert ok


def test_criterion_7_bootstrap_parametric_agreement(capsys):
    rel_simple, rel_percent = [], []
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        s1 = oracles.instance_sample(rng.normal(10.0, 2.0, 100))
        s2 = oracles.instance_sample(rng.normal(12.0, 3.0, 100))
        par_simple = se_simple(s1, s2)
        rel_simple.append(abs(bootstrap_se(s1, s2, DiffKind.SIMPLE, 9999, seed)
                              - par_simple) / par_simple)
        par_percent = se_percent(s1, s2)
        rel_percent.append(abs(bootstrap_se(s1, s2, DiffKind.PERCENT, 9999, seed)
                               - par_percent) / par_percent)
    mean_simple = float(np.mean(rel_simple))
    mean_percent = float(np.mean(rel_percent))
    ok = mean_simple < 0.10 and mean_percent < 0.10
    with capsys.disabled():
        verdict(7, "bootstrap vs parametric SE", ok,
                f"mean relative discrepancy simple={mean_simple:.4f}, "
                f"percent={mean_percent:.4f} (R=9999, 50 seeds)")
    assert ok


def test_criterion_8_nonparametric_oracles(capsys):
    rng = np.random.default_rng(551)
    exact_matches = 0
    trials = 0
    for _ in range(30):
        n = int(rng.integers(5, 13))
        values = rng.normal(0.25, 1.0, n)
        for alt, name in ((Alternative.TWO_SIDED, "two_sided"),
                          (Alternative.ONE_SIDED, "less")):
            rep = wilcoxon_signed_rank(values, 0.0, 0.05, alt)
            w_oracle, p_oracle = oracles.wilcoxon_enumeration(values, 0.0, name)
            assert rep.statistic == w_oracle
            exact_matches += rep.p_value == p_oracle
            trials += 1

            srep = sign_test(values, 0.0, 0.05, alt)
            k = int((values > 0).sum())
            exact_matches += srep.p_value == oracles.sign_test_enumeration(k, n, name)
            trials += 1
    ok = exact_matches == trials
    with capsys.disabled():
        verdict(8, "nonparametric exact p oracles", ok,
                f"{exact_matches}/{trials} bit-exact matches")
    assert ok


def test_criterion_9_published_inference_replay(capsys):
    # replay of a published t-test outcome from its reported summary values:
    # mean difference -0.379, df = 33 (N = 34), two-sided 95% CI
    # [-0.517, -0.242], published p = 2.90e-6
    mean_d, df, n = -0.379, 33, 34
    ci_low, ci_high = -0.517, -0.242
    half_width = (ci_high - ci_low) / 2.0
    sigma = half_width * math.sqrt(n) / t_quantile(0.975, df)
    t0 = mean_d / (sigma / math.sqrt(n))
    p = 2.0 * t_cdf(t0, df)
    ratio = max(p / 2.90e-6, 2.90e-6 / p)
    ok = ratio <= 1.05
    with capsys.disabled():
        verdict(9, "published-inference replay", ok,
                f"sigma={sigma:.6f}, t0={t0:.4f}, p={p:.4e}, "
                f"ratio to 2.90e-6 = {ratio:.4f} (published inputs are "
                f"rounded to 3 decimals; the CI midpoint is -0.3795, not "
                f"-0.379)")
    assert ok, (
        f"replayed p {p:.4e} differs from 2.90e-6 by factor {ratio:.4f} > 1.05; "
        f"the tolerance is unattainable from the rounded published values")


ACCEPT_RUN_CONFIG = """\
design: {alpha: 0.05, power: 0.85, d: 0.5, alternative: two_sided, test: t_test}
sampling: {se_max: 0.8, n0: 5, n_max: 30, diff: simple}
instances:
  synthetic_pool: {count: 45, delta: 0.4, sigma_phi: 1.0, noise_sd: 0.4}
master_seed: 424242
"""


def test_criterion_10_run_determinism(capsys, tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(ACCEPT_RUN_CONFIG)
    code_a, _ = run_cli(capsys, "run", "--config", str(cfg),
                        "--output-dir", str(tmp_path / "a"))
    code_b, _ = run_cli(capsys, "run", "--config", str(cfg),
                        "--output-dir", str(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "results.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "results.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    with capsys.disabled():
        verdict(10, "byte-identical reruns", ok,
                f"{len(bytes_a)} bytes of results compared equal")
    assert ok
