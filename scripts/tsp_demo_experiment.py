#!/usr/bin/env python3
"""End-to-end demo: compare two simulated-annealing temperatures on TSP.

Builds a pool of random Euclidean TSP instances, plans the number of
instances for the requested power, adaptively samples both annealer
configurations on each chosen instance (percent differences under a
standard-error budget), and runs the paired test.

Example:
    python scripts/tsp_demo_experiment.py --out demo_results
"""

import argparse
from pathlib import Path

from paircomp import (AlgorithmKind, AlgorithmSpec, ComparisonDesign,
                      DiffKind, ExperimentPlan, SamplingConfig,
                      build_tsp_instance, calc_instances, run_experiment)
from paircomp.reporting import (render_summary, write_qq_points,
                                write_results_table)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cities", type=int, default=21)
    parser.add_argument("--pool-size", type=int, default=40)
    parser.add_argument("--budget", type=int, default=1500,
                        help="annealing steps per run")
    parser.add_argument("--se-max", type=float, default=0.02,
                        help="standard-error budget on the percent difference")
    parser.add_argument("--d", type=float, default=0.6)
    parser.add_argument("--power", type=float, default=0.80)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", type=Path, default=Path("tsp_demo_results"))
    args = parser.parse_args()

    pool = tuple(build_tsp_instance(f"tsp-{k:03d}", n_cities=args.cities,
                                    layout_seed=k)
                 for k in range(args.pool_size))
    algorithms = (
        AlgorithmSpec(alias="cool", kind=AlgorithmKind.DEMO_SANN_TSP,
                      params={"temp": 2000.0, "budget": args.budget}),
        AlgorithmSpec(alias="hot", kind=AlgorithmKind.DEMO_SANN_TSP,
                      params={"temp": 4000.0, "budget": args.budget}),
    )
    design = ComparisonDesign(alpha=0.05, power_target=args.power,
                              mres_d=args.d)
    sampling = SamplingConfig(se_max=args.se_max, n0=10, n_max=80,
                              diff_kind=DiffKind.PERCENT)
    plan = ExperimentPlan(design=design, sampling=sampling,
                          instance_pool=pool, algorithms=algorithms,
                          master_seed=args.seed)

    size = calc_instances(design)
    print(f"instances required for power {args.power} at d = {args.d}: "
          f"{size.n_instances} (pool holds {len(pool)})")

    args.out.mkdir(parents=True, exist_ok=True)
    report, diagnostics = run_experiment(
        plan, checkpoint_path=args.out / "checkpoint.jsonl")

    write_results_table(args.out / "results.csv", report.per_instance)
    write_qq_points(args.out / "qq.csv", diagnostics.qq_points)
    summary = render_summary(report, size, len(pool))
    (args.out / "summary.txt").write_text(summary)
    print(summary, end="")
    print(f"per-instance table: {args.out / 'results.csv'}")


if __name__ == "__main__":
    main()
