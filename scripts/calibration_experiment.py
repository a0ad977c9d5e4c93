#!/usr/bin/env python3
"""Monte Carlo calibration of the whole pipeline.

Repeats full synthetic experiments at the designed instance count and
compares the observed rejection rate against the analytic power (and,
with a zero effect, against the significance level).  Useful as an
end-to-end sanity check after changes to the sampler or the tests.

Example:
    python scripts/calibration_experiment.py --replications 500 --d 0.5
"""

import argparse
import math
import time

from paircomp import (ComparisonDesign, ExperimentPlan, SamplingConfig,
                      build_synthetic_pool, calc_instances, calc_power,
                      run_experiment)


def rejection_rate(n_star, design, sampling, *, delta, sigma_phi, noise_sd,
                   replications, seed_base):
    rejections = 0
    for rep in range(replications):
        pool, specs = build_synthetic_pool(
            n_star, delta=delta, sigma_phi=sigma_phi, noise_sd=noise_sd,
            seed=seed_base + 2 * rep)
        plan = ExperimentPlan(design=design, sampling=sampling,
                              instance_pool=pool, algorithms=specs,
                              master_seed=seed_base + 2 * rep + 1,
                              use_all_instances=True)
        report, _ = run_experiment(plan)
        rejections += report.p_value < design.alpha
    return rejections / replications


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--power", type=float, default=0.80)
    parser.add_argument("--d", type=float, default=0.5,
                        help="standardized effect the design must detect")
    parser.add_argument("--sigma-phi", type=float, default=1.0,
                        help="across-instances spread of the true differences")
    parser.add_argument("--n0", type=int, default=5)
    parser.add_argument("--replications", type=int, default=500)
    parser.add_argument("--seed-base", type=int, default=3_000_000)
    args = parser.parse_args()

    # per-observation noise chosen so each difference estimate carries a
    # known within-instance error at the initial sample size
    noise_sd = math.sqrt(0.1)
    sigma_eps = noise_sd * math.sqrt(2.0 / args.n0)
    sigma_total = math.hypot(args.sigma_phi, sigma_eps)
    delta = args.d * sigma_total

    design = ComparisonDesign(alpha=args.alpha, power_target=args.power,
                              mres_d=args.d)
    sampling = SamplingConfig(se_max=0.45, n0=args.n0, n_max=4 * args.n0,
                              resamples=100)
    n_star = calc_instances(design).n_instances
    predicted = calc_power(n_star, args.d, args.alpha, design.alternative)

    print(f"designed instance count N* = {n_star}")
    print(f"predicted power at d = {args.d}: {predicted:.4f}")

    start = time.perf_counter()
    power_rate = rejection_rate(n_star, design, sampling, delta=delta,
                                sigma_phi=args.sigma_phi, noise_sd=noise_sd,
                                replications=args.replications,
                                seed_base=args.seed_base)
    null_rate = rejection_rate(n_star, design, sampling, delta=0.0,
                               sigma_phi=args.sigma_phi, noise_sd=noise_sd,
                               replications=args.replications,
                               seed_base=args.seed_base + 10_000_000)
    elapsed = time.perf_counter() - start

    print(f"observed rejection rate with the effect:  {power_rate:.4f}")
    print(f"observed rejection rate under the null:   {null_rate:.4f}")
    print(f"target alpha: {args.alpha}")
    print(f"{2 * args.replications} experiments in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
