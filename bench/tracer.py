"""Span tracing from outside the program, for the benchmark's traced run.

The tracer replaces public functions of :mod:`paircomp` where the calling
module binds them (for example ``paircomp.sampler.run_seed``, which the
sampler imported from ``paircomp.seeding``) with wrappers that record one
span per call: name, start, end, parent span, op id and thread.  Calls
inside one module are not wrapped, so every span marks a boundary between
two layers.  :meth:`Tracer.restore` puts the original functions back.

Each thread keeps its own span stack.  A span opened by a worker thread
with an empty stack takes as parent the innermost span open in the thread
that started tracing (the one running the op), so ``calc_nreps`` spans in
the experiment's thread pool nest under ``run_experiment``.  Spans stay in
memory; :func:`layer_metrics` reduces them and :meth:`Tracer.write` saves
them as CSV.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import tracemalloc

# (module, attribute or Class.method, span name).  The layer is the span
# name's first component and is always the module that defines the callee.
# Points whose attribute no longer exists are skipped, so a refactor that
# removes one leaves its layer counters at zero instead of breaking the run.
WRAP_POINTS = [
    ("paircomp.cli", "main", "cli.main"),
    ("paircomp.cli", "load_config", "config.load_config"),
    ("paircomp.cli", "calc_instances", "design.calc_instances"),
    ("paircomp.cli", "calc_power", "design.calc_power"),
    ("paircomp.cli", "power_curve", "design.power_curve"),
    ("paircomp.cli", "curve_highlights", "design.curve_highlights"),
    ("paircomp.cli", "run_experiment", "experiment.run_experiment"),
    ("paircomp.cli", "calc_nreps", "sampler.calc_nreps"),
    ("paircomp.cli", "derive_seed", "seeding.derive_seed"),
    ("paircomp.cli", "make_runner", "runners.make_runner"),
    ("paircomp.cli", "write_results_table", "reporting.write_results_table"),
    ("paircomp.cli", "write_report_json", "reporting.write_report_json"),
    ("paircomp.cli", "write_qq_points", "reporting.write_qq_points"),
    ("paircomp.cli", "write_values", "reporting.write_values"),
    ("paircomp.cli", "write_power_curve", "reporting.write_power_curve"),
    ("paircomp.cli", "render_summary", "reporting.render_summary"),
    ("paircomp.cli", "render_size_result", "reporting.render_size_result"),
    ("paircomp.config", "derive_seed", "seeding.derive_seed"),
    ("paircomp.config", "build_synthetic_pool", "runners.build_synthetic_pool"),
    ("paircomp.experiment", "validate_design", "design.validate_design"),
    ("paircomp.experiment", "calc_instances", "design.calc_instances"),
    ("paircomp.experiment", "calc_power", "design.calc_power"),
    ("paircomp.experiment", "calc_nreps", "sampler.calc_nreps"),
    ("paircomp.experiment", "derive_seed", "seeding.derive_seed"),
    ("paircomp.experiment", "make_generator", "seeding.make_generator"),
    ("paircomp.experiment", "make_runner", "runners.make_runner"),
    ("paircomp.experiment", "paired_t_test", "hypotests.paired_t_test"),
    ("paircomp.experiment", "wilcoxon_signed_rank", "hypotests.wilcoxon_signed_rank"),
    ("paircomp.experiment", "sign_test", "hypotests.sign_test"),
    ("paircomp.experiment", "build_diagnostics", "hypotests.build_diagnostics"),
    ("paircomp.design", "noncentral_t_cdf", "distributions.noncentral_t_cdf"),
    ("paircomp.design", "t_quantile", "distributions.t_quantile"),
    ("paircomp.hypotests", "t_cdf", "distributions.t_cdf"),
    ("paircomp.hypotests", "t_quantile", "distributions.t_quantile"),
    ("paircomp.hypotests", "bootstrap_sdm", "estimators.bootstrap_sdm"),
    ("paircomp.sampler", "run_seed", "seeding.run_seed"),
    ("paircomp.sampler", "derive_seed", "seeding.derive_seed"),
    ("paircomp.sampler", "se_simple", "estimators.se_simple"),
    ("paircomp.sampler", "se_percent", "estimators.se_percent"),
    ("paircomp.sampler", "bootstrap_se", "estimators.bootstrap_se"),
    ("paircomp.sampler", "optimal_ratio_simple", "estimators.optimal_ratio_simple"),
    ("paircomp.sampler", "optimal_ratio_percent", "estimators.optimal_ratio_percent"),
    ("paircomp.sampler", "phi_simple", "estimators.phi_simple"),
    ("paircomp.sampler", "phi_percent", "estimators.phi_percent"),
    ("paircomp.runners", "Runner.run", "runners.run"),
    ("paircomp.runners", "make_generator", "seeding.make_generator"),
    ("paircomp.estimators", "make_generator", "seeding.make_generator"),
]

LAYER_UNITS = {
    "distributions.calls": "count", "distributions.self_ms": "ms",
    "design.calls": "count", "design.self_ms": "ms",
    "seeding.calls": "count", "seeding.self_ms": "ms",
    "runners.runs": "count", "runners.self_ms": "ms", "runners.failed": "count",
    "estimators.se_evals": "count", "estimators.parametric_ms": "ms",
    "estimators.bootstrap_evals": "count", "estimators.bootstrap_ms": "ms",
    "sampler.instances": "count", "sampler.self_ms": "ms",
    "sampler.se_evals_per_run": "ratio", "sampler.exhausted_share": "ratio",
    "experiment.self_ms": "ms", "experiment.journal_bytes": "bytes",
    "experiment.worker_utilization": "ratio",
    "hypotests.test_ms": "ms", "hypotests.diagnostics_ms": "ms",
    "hypotests.peak_alloc_mb": "MB", "hypotests.failed": "count",
    "reporting.write_ms": "ms", "reporting.bytes": "bytes",
    "config.load_ms": "ms", "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}

PARAMETRIC_SE = {"estimators.se_simple", "estimators.se_percent"}
BOOTSTRAP = {"estimators.bootstrap_se", "estimators.bootstrap_sdm"}
TESTS = {"hypotests.paired_t_test", "hypotests.wilcoxon_signed_rank",
         "hypotests.sign_test"}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _written_bytes(args, kwargs, result, before):
    # every reporting writer takes the output path first and rewrites it
    return _file_size(args[0]) if args else 0


def _journal_before(args, kwargs):
    return _file_size(kwargs.get("checkpoint_path"))


def _journal_and_workers(args, kwargs, result, before):
    # a fresh run rewrites the journal, a resume appends to it
    after = _file_size(kwargs.get("checkpoint_path"))
    written = after - before if kwargs.get("resume") else after
    return written, (getattr(args[0], "workers", 1) if args else 1)


def _exhausted(args, kwargs, result, before):
    diff = getattr(result, "diff", None)
    return None if diff is None else int(bool(getattr(diff, "budget_exhausted", False)))


# span name -> (probe before the call or None, value recorded after it)
EXTRAS = {
    "experiment.run_experiment": (_journal_before, _journal_and_workers),
    "sampler.calc_nreps": (None, _exhausted),
}
EXTRAS.update({name: (None, _written_bytes) for _, _, name in WRAP_POINTS
               if name.startswith("reporting.write_")})


class Tracer:
    """Records spans for calls across the wrap points while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self._local.stack = self._root_stack
        for modname, attr, name in WRAP_POINTS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                continue
            cls_name, _, attr_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr_name, None) if owner is not None else None
            if fn is None:
                continue
            self._saved.append((owner, attr_name, fn))
            setattr(owner, attr_name, self._wrap(name, fn))

    def restore(self) -> None:
        for owner, attr_name, fn in reversed(self._saved):
            setattr(owner, attr_name, fn)
        self._saved.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        before_fn, after_fn = EXTRAS.get(name, (None, None))
        track_alloc = name.startswith("hypotests.")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            root = tracer._root_stack
            parent = stack[-1] if stack else (root[-1] if root else None)
            sid = next(tracer._ids)
            stack.append(sid)
            before = before_fn(args, kwargs) if before_fn else None
            if track_alloc:
                tracemalloc.start()
            ok = False
            result = extra = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                if track_alloc:
                    extra = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                elif after_fn:
                    extra = after_fn(args, kwargs, result, before)
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.op,
                                     threading.get_ident(), ok, extra))
        return wrapper

    @staticmethod
    def write(path, spans) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,thread,ok,extra\n")
            for s in spans:
                fh.write(",".join("" if v is None else str(v).replace(",", ";")
                                  for v in s) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        sid, start, end = s[0], s[2], s[3]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics, per timed pass, from the spans of ``passes`` passes."""
    selfs = self_times(spans)
    per = max(passes, 1)
    count: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    failed: dict[str, int] = {}
    m: dict[str, float] = {}
    dur_ns = {"param": 0, "boot": 0, "test": 0, "diag": 0, "write": 0,
              "config": 0, "nreps": 0, "exp_workers": 0}
    counts = {"se": 0, "boot": 0, "exhausted": 0, "nreps_known": 0}
    journal = written = 0
    peak_alloc = 0
    for s in spans:
        sid, name, start, end, _, _, _, ok, extra = s
        layer = name.split(".", 1)[0]
        count[layer] = count.get(layer, 0) + 1
        count[name] = count.get(name, 0) + 1
        self_ns[layer] = self_ns.get(layer, 0) + selfs[sid]
        if not ok:
            failed[layer] = failed.get(layer, 0) + 1
        dur = end - start
        if name in PARAMETRIC_SE:
            counts["se"] += 1
            dur_ns["param"] += selfs[sid]
        elif name == "estimators.bootstrap_se":
            counts["se"] += 1
        if name in BOOTSTRAP:
            counts["boot"] += 1
            dur_ns["boot"] += selfs[sid]
        if name in TESTS:
            dur_ns["test"] += dur
        if name == "hypotests.build_diagnostics":
            dur_ns["diag"] += dur
        if layer == "hypotests" and extra:
            peak_alloc = max(peak_alloc, extra)
        if layer == "reporting":
            dur_ns["write"] += dur
            written += extra or 0
        if layer == "config":
            dur_ns["config"] += dur
        if name == "sampler.calc_nreps":
            dur_ns["nreps"] += dur
            if extra is not None:
                counts["nreps_known"] += 1
                counts["exhausted"] += extra
        if name == "experiment.run_experiment":
            journal += extra[0] or 0
            dur_ns["exp_workers"] += dur * extra[1]

    def ms(ns):
        return ns / 1e6 / per

    runs = count.get("runners.run", 0)
    m["distributions.calls"] = count.get("distributions", 0) / per
    m["distributions.self_ms"] = ms(self_ns.get("distributions", 0))
    m["design.calls"] = count.get("design", 0) / per
    m["design.self_ms"] = ms(self_ns.get("design", 0))
    m["seeding.calls"] = count.get("seeding", 0) / per
    m["seeding.self_ms"] = ms(self_ns.get("seeding", 0))
    m["runners.runs"] = runs / per
    m["runners.self_ms"] = ms(self_ns.get("runners", 0))
    m["runners.failed"] = failed.get("runners", 0) / per
    m["estimators.se_evals"] = counts["se"] / per
    m["estimators.parametric_ms"] = ms(dur_ns["param"])
    m["estimators.bootstrap_evals"] = counts["boot"] / per
    m["estimators.bootstrap_ms"] = ms(dur_ns["boot"])
    m["sampler.instances"] = count.get("sampler.calc_nreps", 0) / per
    m["sampler.self_ms"] = ms(self_ns.get("sampler", 0))
    m["sampler.se_evals_per_run"] = counts["se"] / runs if runs else 0.0
    m["sampler.exhausted_share"] = (counts["exhausted"] / counts["nreps_known"]
                                    if counts["nreps_known"] else 0.0)
    m["experiment.self_ms"] = ms(self_ns.get("experiment", 0))
    m["experiment.journal_bytes"] = journal / per
    m["experiment.worker_utilization"] = (dur_ns["nreps"] / dur_ns["exp_workers"]
                                          if dur_ns["exp_workers"] else 0.0)
    m["hypotests.test_ms"] = ms(dur_ns["test"])
    m["hypotests.diagnostics_ms"] = ms(dur_ns["diag"])
    m["hypotests.peak_alloc_mb"] = peak_alloc / 2**20
    m["hypotests.failed"] = failed.get("hypotests", 0) / per
    m["reporting.write_ms"] = ms(dur_ns["write"])
    m["reporting.bytes"] = written / per
    m["config.load_ms"] = ms(dur_ns["config"])
    m["cli.self_ms"] = ms(self_ns.get("cli", 0))
    return m
