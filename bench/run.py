"""paircomp benchmark: closed-loop workloads through ``paircomp.cli.main``.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload synth --seed 1 --seconds 10 --trace 0

One client runs the workload's ops back to back in this process, each op
starting only when the previous one returned (a closed loop).  Set-up
(import, input generation, one warm-up pass at mini size) is timed three
times, once here and twice in fresh interpreters, and ``setup_s`` is the
median.  Then whole passes over the workload's ops repeat until
``--seconds`` have gone by.  Every op's outputs are checked.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics.  With ``--trace 1`` half the time runs
untraced and half traced (see ``tracer.py``); the result carries the
per-layer metrics and the tracing overhead.  A full record with the
environment is written to ``.bench_out/``; scratch files go to
``.bench_work/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3          # per untraced measurement
MIN_TRACED_PASSES = 2
MAX_MEASURE_S = 45.0    # no pass starts after this, whatever --seconds says
SETUP_PROBES = 2        # fresh-interpreter set-ups besides this process's own
SEGMENT_S = 0.4         # most op time between two speed probes
PROBE_REF_S = 0.010     # mean time of one probe repeat at reference speed

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "items_per_s": "1/s", "peak_rss_mb": "MB", "ok_share": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mini", action="store_true",
                   help="time the mini size instead of the full size (self-test)")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up once and print the set-up time (internal)")
    return p.parse_args(argv)


def _set_up(cls, seed: int, mini: bool, tag: str):
    """Import paircomp, generate inputs, run the warm-up pass; time it all."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import paircomp.cli  # noqa: F401  (timed: the program's import cost)
    timed = cls(seed, WORK / f"{cls.name}-{tag}", mini)
    warm = cls(seed, WORK / f"{cls.name}-{tag}-warm", True)
    warm_pass = _run_pass(warm, 0, None, None)
    raw = time.perf_counter() - start
    return raw * PROBE_REF_S / statistics.mean(_probe()), timed, warm_pass


def _run_op(op):
    import paircomp.cli as cli
    captured = io.StringIO()
    exc_name = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
        exc_name = "SystemExit"
    except Exception as exc:  # an uncaught error ends the CLI process with 1
        code = 1
        exc_name = type(exc).__name__
        captured.write(f"{exc_name}: {exc}\n")
    return time.perf_counter() - start, code, exc_name, captured.getvalue()


def _probe() -> list[float]:
    """Time a fixed mix of interpreter and numpy work: the machine's speed now.

    The mix resembles the program's hot paths (seed derivation and
    generator construction, small sorts, interpreted loops) but calls
    nothing in paircomp, so no change to the program moves it.  Returns
    the times of eight back-to-back repeats.
    """
    import numpy as np
    times = []
    for _ in range(8):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(20000):
            acc += (i * i) % 7
            table[i & 255] = acc
        for i in range(150):
            ss = np.random.SeedSequence(i, spawn_key=(1, i))
            seed = int(ss.generate_state(1, np.uint64)[0])
            np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).standard_normal()
        a = np.arange(4096, dtype=float)
        for i in range(100):
            np.sort(a[::-1] * (i + 1)).sum()
        times.append(time.perf_counter() - start)
    return times


class SpeedProbe:
    """Rescales measured times to the reference machine speed.

    The speed of a shared machine swings by tens of percent within
    seconds, and an op's wall time swings with it.  The probe runs between
    ops, at least every ``SEGMENT_S`` of op time, and the ops in between
    are scaled by ``PROBE_REF_S`` over the mean probe time just before and
    just after them.
    """

    def __init__(self):
        self.last = _probe()
        self.probes: list[float] = list(self.last)

    def next(self) -> float:
        """Probe now; return the factor for the ops since the last probe."""
        now = _probe()
        self.probes += now
        factor = PROBE_REF_S / statistics.mean(self.last + now)
        self.last = now
        return factor


def _run_pass(workload, index: int, tracer, speed: SpeedProbe | None) -> dict:
    """One pass over the workload's ops; failures are counted, never fatal.

    Latencies are at reference speed; ``raw_wall`` is the plain sum.
    """
    res = {"wall": 0.0, "raw_wall": 0.0, "lat": [], "labels": [], "items": 0,
           "attempted": 0, "failed": 0, "errors": [], "failures": []}
    segment: list[float] = []
    ops = workload.ops(index)
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{index}:{op.label}"
        elapsed, code, exc_name, text = _run_op(op)
        res["attempted"] += 1
        res["labels"].append(op.label)
        res["raw_wall"] += elapsed
        segment.append(elapsed)
        if code != 0:
            res["failed"] += 1
            tail = text.strip().splitlines()[-1:] or [""]
            res["failures"].append({"op": op.label, "exit_code": code,
                                    "exception": exc_name, "message": tail[0][:300]})
        else:
            try:
                error, items = op.check()
            except Exception as exc:  # an unreadable output is a failed check
                error, items = f"{op.label}: check raised {type(exc).__name__}: {exc}", 0
            res["items"] += items
            if error:
                res["failed"] += 1
                res["errors"].append(error)
        if sum(segment) >= SEGMENT_S or k == len(ops) - 1:
            factor = speed.next() if speed is not None and workload.speed_scaled else 1.0
            res["lat"] += [t * factor for t in segment]
            segment = []
    res["wall"] = sum(res["lat"])
    return res


def _measure(workload, seconds: float, first_index: int, min_passes: int, tracer,
             speed: SpeedProbe):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(workload, first_index + len(passes), tracer, speed))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(passes) >= min_passes) or elapsed >= MAX_MEASURE_S:
            return passes


def _probe_setups(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.mini:
        cmd.append("--mini")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _environment(args, passes: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "paircomp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "paircomp_commit": commit, "paircomp_src_sha256": src.hexdigest(),
            "seed": args.seed, "passes": passes, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "mini": args.mini}


def _totals(passes):
    return (sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes),
            [e for p in passes for e in p["errors"]],
            [f for p in passes for f in p["failures"]])


def _end_to_end(setup_s: float, passes) -> tuple[dict, dict]:
    # An op's latency is its median over passes: every pass repeats the
    # same ops, so the percentiles range over the workload's ops and not
    # over the machine's momentary speed.
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for label, t in zip(p["labels"], p["lat"]):
            by_op.setdefault(label, []).append(t)
    lat = [statistics.median(v) for v in by_op.values()]
    attempted, failed, _, _ = _totals(passes)
    p50, p90 = _nearest_rank(lat, 0.5), _nearest_rank(lat, 0.9)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_ms_p50": p50 * 1e3,
        "op_ms_p90": p90 * 1e3,
        "items_per_s": statistics.median(p["items"] / p["wall"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (attempted - failed) / attempted,
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES + 1} set-ups",
        "wall_s": f"median of {len(passes)} passes; unscaled median "
                  f"{statistics.median(p['raw_wall'] for p in passes):.4g} s",
        "op_ms_p50": f"{len(lat)} ops x {len(passes)} passes",
        "op_ms_p90": f"{len(lat)} ops x {len(passes)} passes, "
                     f"{sum(x > p90 for x in lat)} ops above",
        "items_per_s": f"median of {len(passes)} passes, "
                       f"{sum(p['items'] for p in passes)} items in all",
        "peak_rss_mb": "this process",
        "ok_share": f"{attempted - failed} of {attempted} ops",
    }
    return values, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "paircomp" / "__init__.py").is_file():
        print(f"error: no paircomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # the CLI reads these as defaults; the configs must decide alone
    os.environ.pop("PAIRCOMP_WORKERS", None)
    os.environ.pop("PAIRCOMP_SEED", None)
    tag = str(os.getpid())
    try:
        return _main(args, WORKLOADS[args.workload], tag)
    finally:
        for path in WORK.glob(f"{args.workload}-{tag}*"):
            shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _main(args, cls, tag: str) -> int:
    setup_s, workload, warm = _set_up(cls, args.seed, args.mini, tag)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + _probe_setups(args)

    record = {"setups_s": setups, "warm_up": warm}
    speed = SpeedProbe()
    if args.trace:
        from tracer import LAYER_UNITS, Tracer, layer_metrics
        untraced = _measure(workload, args.seconds / 2, 0, MIN_TRACED_PASSES, None,
                            speed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _measure(workload, args.seconds / 2, len(untraced),
                              MIN_TRACED_PASSES, tracer, speed)
        finally:
            tracer.restore()
        spans = tracer.spans
        passes = untraced + traced
        metrics = layer_metrics(spans, len(traced))
        metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                       - statistics.median(p["wall"] for p in untraced))
        units = LAYER_UNITS
        notes = {k: f"per pass, {len(traced)} traced passes" for k in metrics}
        notes["trace.overhead_s"] = (f"median traced pass minus median of "
                                     f"{len(untraced)} untraced passes")
        OUT.mkdir(exist_ok=True)
        Tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.csv", spans)
        record["spans"] = len(spans)
    else:
        passes = _measure(workload, args.seconds, 0, MIN_PASSES, None, speed)
        metrics, notes = _end_to_end(statistics.median(setups), passes)
        units = END_TO_END_UNITS

    attempted, failed, errors, failures = _totals(passes)
    errors = warm["errors"] + errors
    correct = not errors
    env = _environment(args, len(passes))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    print(f"paircomp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} mini={args.mini}")
    print("env: " + json.dumps(env, sort_keys=True))
    for f in warm["failures"]:
        print(f"warm-up failure: {json.dumps(f)}")
    seen: dict[str, int] = {}
    for f in failures:
        key = json.dumps(f)
        seen[key] = seen.get(key, 0) + 1
    for key, count in seen.items():
        print(f"failed op ({count}x): {key}")
    for e in errors:
        print(f"check failed: {e}")
    print(f"checks: {'all passed' if correct else f'{len(errors)} failed'} "
          f"({attempted} timed ops, {failed} failed)")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]} ({notes[name]})")

    record.update({"env": env, "result": result, "failures": failures,
                   "errors": errors, "notes": notes, "probes_s": speed.probes,
                   "passes": [{k: v for k, v in p.items() if k != "failures"}
                              for p in passes]})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
