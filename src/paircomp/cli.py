"""Command-line frontend.

Subcommands: ``design`` (required instance count), ``power`` (power of a
fixed-size experiment, single value or curve with highlights), ``reps``
(adaptive sampling of one instance), ``run`` (full experiment) and
``resume`` (continue an interrupted run from its checkpoint journal).

Exit codes: 0 completed, 2 usage or configuration error or an unwritable
output path, 3 runner failure or an interrupted command of any kind, 4
statistical-assumption violation or data on which a test is undefined
(e.g. all differences identical).  The statistical outcome of a test
never affects the exit code.  ``_EXIT_CODES`` is the one table from
error to exit code.  Every command takes SIGTERM as it takes Ctrl-C and
ends with exit 3 and one ``error: interrupted`` line; under ``reps``,
``run`` and ``resume`` no run starts, the solvers in flight are killed,
and ``resume`` goes on from the journal.

Environment: ``PAIRCOMP_WORKERS`` overrides the config's worker count and
``PAIRCOMP_SEED`` its master seed, for ``reps`` too; explicit flags beat
both.

The argument parser is built once per process, on the first ``main`` call,
and reused: building it costs more than a ``design`` or ``power`` query.
Parsing returns a fresh namespace each time and mutates no parser state,
and the help text reads the terminal width when it is formatted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import signal
import sys
import threading
from pathlib import Path

from .config import ALT_NAMES, TEST_NAMES, load_config, parse_design
from .design import calc_instances, calc_power, curve_highlights, power_curve
from .errors import (AssumptionViolationError, ConfigError, DegenerateDataError,
                     ExperimentAbortedError, PaircompError, RunnerError)
from .experiment import ExperimentPlan, run_experiment, select_instances
from .reporting import (fmt, render_size_result, render_summary,
                        write_power_curve, write_qq_points, write_report_json,
                        write_results_table, write_values)
from .runners import bind
from .sampler import calc_nreps

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNNER = 3
EXIT_ASSUMPTION = 4

# first match wins; an aborted experiment exits by its cause
_EXIT_CODES = (
    (AssumptionViolationError, EXIT_ASSUMPTION),
    (DegenerateDataError, EXIT_ASSUMPTION),
    (RunnerError, EXIT_RUNNER),
    (OSError, EXIT_USAGE),
    (ConfigError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
    (PaircompError, EXIT_RUNNER),
    (KeyboardInterrupt, EXIT_RUNNER),  # Ctrl-C, or SIGTERM (_sigterm_interrupts)
)
_HANDLED = tuple(cls for cls, _ in _EXIT_CODES)


def _exit_code(exc: BaseException) -> int:
    # a cause outside the table exits as the abort itself does
    tried = (exc.cause, exc) if isinstance(exc, ExperimentAbortedError) else (exc,)
    return next(code for e in tried for cls, code in _EXIT_CODES if isinstance(e, cls))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paircomp",
        description="Design and run statistically sound comparisons of two "
                    "stochastic algorithms on a problem class.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="required number of instances for a design")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--d", type=float, help="standardized minimally relevant effect size")
    p.add_argument("--delta", type=float, help="raw effect size (needs --sigma-bound)")
    p.add_argument("--sigma-bound", type=float,
                   help="upper bound for the total SD of the paired differences")
    p.add_argument("--alternative", choices=sorted(ALT_NAMES))
    p.add_argument("--test", choices=sorted(TEST_NAMES))
    p.add_argument("--out", type=Path, help="write a JSON record here")

    p = sub.add_parser("power", help="power of a fixed-size experiment (paired-t basis)")
    p.add_argument("--n", type=int, required=True, help="number of instances")
    p.add_argument("--d", type=float, help="single effect size")
    p.add_argument("--d-range", help="curve range as LO:HI")
    p.add_argument("--points", type=int,
                   help="curve points, with --d-range (default 300)")
    p.add_argument("--highlights", help="comma-separated power levels to "
                                        "invert, with --d-range")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alternative", choices=sorted(ALT_NAMES), default="two-sided")
    p.add_argument("--curve-out", type=Path,
                   help="write curve records here, with --d-range")
    p.add_argument("--out", type=Path, help="write a JSON record here, with --d")

    p = sub.add_parser("reps", help="adaptively sample both algorithms on one instance")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--instance", required=True, help="instance id from the pool")
    p.add_argument("--seed", type=int, help="override the derived instance seed")

    for name, extra in (("run", "run a full experiment"),
                        ("resume", "resume an interrupted experiment")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", type=Path, required=True)
        p.add_argument("--output-dir", type=Path, help="override the config's output_dir")
        p.add_argument("--workers", type=int,
                       help="instances sampled concurrently, in threads; this "
                            "speeds up subprocess runners only, since "
                            "in-process runners hold the GIL")
        p.add_argument("--seed", type=int, help="override the master seed")
    return parser


def _write_json(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True) + "\n")


def _write_output(flag: str, path: Path, write, record) -> None:
    """Write a command's output file before it prints anything, so that an
    unwritable path leaves stdout empty; the error names the flag."""
    try:
        write(path, record)
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot write {path}: {exc}") from None


def _cmd_design(args) -> int:
    design = parse_design({key: getattr(args, key) for key in (
        "alpha", "power", "d", "delta", "sigma_bound", "alternative", "test")
        if getattr(args, key) is not None})
    result = calc_instances(design)
    if args.out:
        _write_output("--out", args.out, _write_json, {
            "n_instances": result.n_instances,
            "achieved_power": result.achieved_power,
            "test_family": result.test_family.value,
            "ncp_at_n": result.ncp_at_n,
        })
    print(render_size_result(result))
    return EXIT_OK


def _cmd_power(args) -> int:
    alternative = ALT_NAMES[args.alternative]
    for flag in ("n", "points"):
        if abs(getattr(args, flag) or 0) > sys.float_info.max:
            raise ConfigError(f"--{flag} is beyond the range of a float")
    if (args.d is None) == (args.d_range is None):
        raise ConfigError("give exactly one of --d or --d-range")
    single = args.d is not None
    stray = [name for name in (("points", "highlights", "curve_out") if single
                               else ("out",)) if getattr(args, name) is not None]
    if stray:
        raise ConfigError(f"--{stray[0].replace('_', '-')} goes with "
                          f"{'--d-range' if single else '--d'} only")
    if single:
        power = calc_power(args.n, args.d, args.alpha, alternative)
        if args.out:
            _write_output("--out", args.out, _write_json,
                          {"n": args.n, "d": args.d, "power": power})
        print(f"power: {power:.7g}")
        return EXIT_OK

    try:
        lo_s, hi_s = args.d_range.split(":", 1)
        d_range = (float(lo_s), float(hi_s))
    except ValueError:
        raise ConfigError(f"--d-range must look like LO:HI, got {args.d_range!r}") from None
    try:
        levels = [float(tok) for tok in (args.highlights or "").split(",") if tok]
    except ValueError:
        raise ConfigError(f"--highlights must be comma-separated numbers, "
                          f"got {args.highlights!r}") from None
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ConfigError(f"--highlights: power level {fmt(level)} is not in (0, 1)")
    points = 300 if args.points is None else args.points
    curve = power_curve(args.n, args.alpha, alternative, d_range, points)
    if args.curve_out:
        _write_output("--curve-out", args.curve_out, write_power_curve, curve)
    print(f"curve points: {len(curve)}")
    if args.curve_out:
        print(f"curve records written to {args.curve_out}")
    else:
        for d, p in curve:
            print(f"{d!r},{p!r}")
    for level, d in curve_highlights(curve, levels):
        if d is None:
            print(f"power {fmt(level)} not reached on this range")
        else:
            print(f"power {fmt(level)} reached at d = {fmt(d)}")
    return EXIT_OK


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _load_plan(config: Path, seed: int | None = None,
               workers: int | None = None) -> tuple[ExperimentPlan, Path | None]:
    """A config's plan and output directory; the master seed and the worker
    count come from the flags, else from the environment, else the config."""
    overrides = {
        "master_seed": _env_int("PAIRCOMP_SEED") if seed is None else seed,
        "workers": _env_int("PAIRCOMP_WORKERS") if workers is None else workers,
    }
    return load_config(config, {key: value for key, value in overrides.items()
                                 if value is not None})


def _cmd_reps(args) -> int:
    # --seed here is the instance seed, so only the environment sets the master seed
    plan, _ = _load_plan(args.config)
    instance = next((inst for inst in plan.instance_pool
                     if inst.id == args.instance), None)
    if instance is None:
        raise ConfigError(f"instance {args.instance!r} is not in the pool "
                          f"({len(plan.instance_pool)} instance(s))")
    seed = args.seed
    if seed is None:
        # the seed `run` gave the instance, so that its runs replay exactly
        selected = select_instances(plan, calc_instances(plan.design).n_instances)
        seed = next((s for inst, s in selected if inst.id == args.instance), None)
        if seed is None:
            raise ConfigError(f"instance {args.instance!r} is not among the "
                              f"{len(selected)} instance(s) that run selects, "
                              f"so it has no derived seed; pass --seed")
    elif seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    run1, run2 = (bind(spec, instance) for spec in plan.algorithms)
    d = calc_nreps(run1, run2, instance, plan.sampling, seed)
    print(f"instance: {d.instance_id}")
    print(f"n1: {d.n1}")
    print(f"n2: {d.n2}")
    print(f"phi: {fmt(d.phi_hat)}")
    print(f"se: {fmt(d.se_hat)}")
    print(f"se method: {d.se_method.value}")
    print(f"budget exhausted: {str(d.budget_exhausted).lower()}")
    return EXIT_OK


def _cmd_run(args) -> int:
    resume = args.command == "resume"
    plan, out_dir = _load_plan(args.config, args.seed, args.workers)
    out_dir = args.output_dir or out_dir
    if out_dir is None:
        raise ConfigError("an output directory is required: set 'output_dir' in "
                          "the config or pass --output-dir")
    # main reads it on an interrupt
    args.checkpoint = checkpoint = out_dir / "checkpoint.jsonl"
    if resume and not checkpoint.exists():
        raise ConfigError(f"nothing to resume: {checkpoint} does not exist")

    report, diagnostics = run_experiment(plan, checkpoint_path=checkpoint,
                                         resume=resume)

    size_result = calc_instances(plan.design)
    write_results_table(out_dir / "results.csv", report.per_instance)
    write_report_json(out_dir / "report.json", report)
    write_qq_points(out_dir / "qq.csv", diagnostics.qq_points)
    write_values(out_dir / "boot_sdm.csv", diagnostics.boot_sdm, "mean")
    write_qq_points(out_dir / "boot_sdm_qq.csv", diagnostics.boot_sdm_qq)
    summary = render_summary(report, size_result, len(plan.instance_pool))
    (out_dir / "summary.txt").write_text(summary)
    print(summary, end="")
    print(f"results table: {out_dir / 'results.csv'}")
    return EXIT_OK


def _interrupt_once(signum, frame):
    # timeout(1) signals the process and then its group: a second
    # KeyboardInterrupt could land while main reports the first, and end
    # the command with a traceback instead of exit code 3
    signal.signal(signum, lambda *_: None)
    raise KeyboardInterrupt


@contextlib.contextmanager
def _sigterm_interrupts():
    """The first SIGTERM raises ``KeyboardInterrupt``, as Ctrl-C does, while
    the block runs, and later ones are ignored.  Only the main thread may
    install a handler; called on another thread, this changes nothing."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _interrupt_once)
    try:
        yield
    finally:
        # None: the old handler was not installed from Python
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


def _interrupted(args) -> str:
    journal = getattr(args, "checkpoint", None)
    if journal and journal.exists():  # only a journal on disk can be resumed
        return "interrupted; 'paircomp resume' continues from the checkpoint journal"
    return "interrupted"


_COMMANDS = {"design": _cmd_design, "power": _cmd_power, "reps": _cmd_reps,
             "run": _cmd_run, "resume": _cmd_run}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _sigterm_interrupts():
            return _COMMANDS[args.command](args)
    except _HANDLED as exc:
        text = _interrupted(args) if isinstance(exc, KeyboardInterrupt) else exc
        print(f"error: {text}", file=sys.stderr)
        return _exit_code(exc)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
