#!/usr/bin/env python3
"""In-process CPU A/B of two source trees of paircomp on one config.

Both trees' packages are loaded side by side in this interpreter, as
``pc_parent`` and ``pc_change``; the package imports itself only
relatively, so each tree runs its own modules.  Each tree loads the
config with its own ``load_config``.  After one untimed run of each,
every round runs ``run_experiment`` on the config's plan once per tree,
in a shuffled order, and times each run with ``time.process_time``.
The result is the median of the rounds' ratios change / parent, with
its quartiles (``statistics.quantiles``, inclusive).  The files ``run``
writes from a report (results table, report, Q-Q points, resampled
means) must be byte-identical between the trees in every run; the script
exits 1 if they are not.  It writes nothing outside a temporary
directory.

A tree is a directory holding the ``paircomp`` package, such as a
checkout's ``src``.  The last line of standard output is the result as
JSON.

Example:
    python scripts/ab_inprocess.py ../parent/src src config.yaml --rounds 10
"""

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path


class Tree:
    """One source tree's package, loaded under ``name``, and its plan."""

    def __init__(self, directory: Path, name: str, config: Path):
        package = directory / "paircomp"
        if not (package / "__init__.py").is_file():
            print(f"error: no paircomp package in {directory}", file=sys.stderr)
            raise SystemExit(2)
        spec = importlib.util.spec_from_file_location(
            name, package / "__init__.py", submodule_search_locations=[str(package)])
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        self.experiment = importlib.import_module(f"{name}.experiment")
        self.reporting = importlib.import_module(f"{name}.reporting")
        self.plan = importlib.import_module(f"{name}.config").load_config(config)[0]

    def run(self) -> tuple[float, str]:
        """One ``run_experiment``: its CPU seconds and its outputs' digest."""
        gc.collect()
        start = time.process_time()
        report, diagnostics = self.experiment.run_experiment(self.plan)
        cpu = time.process_time() - start
        write = self.reporting
        digest = hashlib.sha256()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            write.write_results_table(out / "results.csv", report.per_instance)
            write.write_report_json(out / "report.json", report)
            write.write_qq_points(out / "qq.csv", diagnostics.qq_points)
            write.write_values(out / "boot_sdm.csv", diagnostics.boot_sdm, "mean")
            write.write_qq_points(out / "boot_sdm_qq.csv", diagnostics.boot_sdm_qq)
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return cpu, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="the parent tree")
    parser.add_argument("change", type=Path, help="the changed tree")
    parser.add_argument("config", type=Path, help="a paircomp config file")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = {"parent": Tree(args.parent, "pc_parent", args.config),
             "change": Tree(args.change, "pc_change", args.config)}
    digests = {side: {tree.run()[1]} for side, tree in trees.items()}  # warm-up
    cpu = {side: [] for side in trees}
    order = list(trees)
    shuffle = random.Random(0).shuffle
    for _ in range(args.rounds):
        shuffle(order)
        for side in order:
            seconds, digest = trees[side].run()
            cpu[side].append(seconds)
            digests[side].add(digest)
    identical = len(digests["parent"] | digests["change"]) == 1
    ratios = [change / parent for parent, change in zip(cpu["parent"], cpu["change"])]
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    print(f"change / parent process_time over {args.rounds} round(s): "
          f"median {median:.4f}, IQR [{q1:.4f}, {q3:.4f}]; outputs "
          f"{'identical' if identical else 'DIFFER'}")
    print(json.dumps({
        "rounds": args.rounds, "ratio_median": round(median, 4),
        "ratio_q1": round(q1, 4), "ratio_q3": round(q3, 4),
        "ratios": [round(r, 4) for r in ratios],
        "parent_cpu_s": [round(s, 4) for s in cpu["parent"]],
        "change_cpu_s": [round(s, 4) for s in cpu["change"]],
        "outputs_identical": identical}))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
