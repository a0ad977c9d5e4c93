"""Whole-experiment orchestration: pick instances, sample, test, diagnose.

The flow for one experiment:

1. compute the required number of instances for the design;
2. if the pool is smaller, warn with the power actually achievable at the
   pool size;
3. draw that many instances uniformly without replacement (deterministic
   under the master seed), or take the whole pool when requested;
4. adaptively sample both algorithms on each chosen instance;
5. run the designated paired test on the per-instance differences and
   attach normality diagnostics.

Per-instance seeds come from the master seed through a counter scheme
(see :mod:`paircomp.seeding`), so results are bit-reproducible and the
k-th instance's runs never depend on how many instances follow it.
Worker threads sample the instances, more than one at a time only when
both algorithm specs declare themselves safe for concurrent invocation.
The worker that completes an instance appends its row to a checkpoint
journal of newline-delimited records, so an interrupted experiment can
resume without re-running finished instances.  Every run is bound with
the experiment's stop event: on an interrupt the calling thread only sets
it, and each run then refuses to start or kills its own solver.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .design import (ComparisonDesign, TestFamily, calc_instances,
                     calc_power, validate_design)
from .errors import ConfigError, ExperimentAbortedError
from .estimators import DiffKind, PairedDifference, SEMethod
from .hypotests import (DiagnosticsBundle, TestReport, build_diagnostics,
                        paired_t_test, sign_test, wilcoxon_signed_rank)
from .runners import AlgorithmSpec, InstanceRef, _is_int, bind
from .sampler import SamplingConfig, calc_nreps
from .seeding import (DIAGNOSTICS_STREAM, INSTANCE_STREAM, SELECTION_STREAM,
                      derive_seed, first_stages, make_generator, run_keys)

__all__ = ["ExperimentPlan", "run_experiment", "select_instances"]

_JOURNAL_VERSION = 2

# a worker is a thread started after runs have begun, which the system may
# refuse (a per-user process limit) and so end the command midway; 1024 is
# far above the solvers a machine runs at once and below the usual limits
MAX_WORKERS = 1024


@dataclass(frozen=True)
class ExperimentPlan:
    design: ComparisonDesign
    sampling: SamplingConfig
    instance_pool: tuple[InstanceRef, ...]
    algorithms: tuple[AlgorithmSpec, AlgorithmSpec]
    master_seed: int
    use_all_instances: bool = False
    workers: int = 1
    sigma_phi_bound: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "instance_pool", tuple(self.instance_pool))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.instance_pool:
            raise ValueError("the instance pool must be nonempty")
        ids = [i.id for i in self.instance_pool]
        if len(set(ids)) != len(ids):
            raise ValueError("instance ids must be unique within the pool")
        a1, a2 = self.algorithms
        if a1.alias == a2.alias:
            raise ValueError("the two algorithm aliases must be distinct")
        for name in ("workers", "master_seed"):
            if not _is_int(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}, got {self.workers!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed!r}")
        # every run input is checked here, so a bad one stops nothing midway;
        # the bound runs are dropped, and sampling binds each instance again
        for inst in self.instance_pool:
            for spec in self.algorithms:
                try:
                    bind(spec, inst)
                except ValueError as exc:
                    raise ValueError(f"instance {inst.id!r}, algorithm "
                                     f"{spec.alias!r}: {exc}") from None


def _plan_fingerprint(plan: ExperimentPlan) -> str:
    # In: every input that decides which instances run, with which seeds,
    # and what each journaled row holds.  The design sizes the selection
    # and names the test; the sampling settings decide each row; an
    # algorithm's alias, kind and params decide its runs; an instance's id
    # and payload do too, in pool order, since selection draws positions;
    # the master seed and use_all_instances fix selection and seeds.
    # Out, since no row depends on them: timeout, concurrent_safe, the
    # worker count, sigma_phi_bound (it only adds a warning) and the
    # output directory.  So a resume may raise the timeout that stopped
    # a run.
    payload = {
        "design": asdict(plan.design),
        "sampling": asdict(plan.sampling),
        "algorithms": [{"alias": a.alias, "kind": a.kind, "params": a.params}
                       for a in plan.algorithms],
        "pool": [{"id": i.id, "payload": i.payload} for i in plan.instance_pool],
        "master_seed": plan.master_seed,
        "use_all_instances": plan.use_all_instances,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def select_instances(plan: ExperimentPlan,
                     n_required: int) -> list[tuple[InstanceRef, int]]:
    """The instances an experiment samples, in order, each with its seed.

    That is the whole pool, or ``n_required`` instances (at most the
    pool) drawn without replacement under the master seed.  The k-th
    selected instance gets the k-th seed of the instance stream: its seed
    follows the selection order, not its position in the pool.  All the
    seeds come from one ``run_keys`` block.
    """
    pool = plan.instance_pool
    if plan.use_all_instances:
        selected = list(pool)
    else:
        count = min(n_required, len(pool))
        rng = make_generator(derive_seed(plan.master_seed, SELECTION_STREAM))
        idx = rng.choice(len(pool), size=count, replace=False)
        selected = [pool[int(i)] for i in idx]
    (seeds,), _ = run_keys([(plan.master_seed, INSTANCE_STREAM)], range(len(selected)))
    return list(zip(selected, seeds.tolist()))


def _diff_to_row(diff: PairedDifference) -> dict:
    return {
        "kind": "instance",
        "instance_id": diff.instance_id,
        "phi": diff.phi_hat,
        "se": diff.se_hat,
        "n1": diff.n1,
        "n2": diff.n2,
        "diff_kind": diff.diff_kind.value,
        "se_method": diff.se_method.value,
        "budget_exhausted": diff.budget_exhausted,
    }


def _row_to_diff(row: dict) -> PairedDifference:
    n1, n2, exhausted = row["n1"], row["n2"], row["budget_exhausted"]
    phi, se = row["phi"], row["se"]
    # coercing these would hide corruption: bool("false") is True, int(3.9)
    # is 3, float(True) is 1.0.  run writes only a finite phi and se: a
    # non-finite phi fails every test, and a non-finite se stops sampling
    if not (isinstance(row["instance_id"], str) and type(n1) is int
            and type(n2) is int and type(exhausted) is bool
            and type(phi) is float and type(se) is float
            and math.isfinite(phi) and math.isfinite(se)):
        raise ValueError("a journal row field has the wrong type or value")
    return PairedDifference(
        instance_id=row["instance_id"],
        phi_hat=phi,
        se_hat=se,
        n1=n1,
        n2=n2,
        diff_kind=DiffKind(row["diff_kind"]),
        se_method=SEMethod(row["se_method"]),
        budget_exhausted=exhausted,
    )


class _Journal:
    """Append-only newline-delimited record file keyed by instance id.

    The header is written to a file beside it and renamed into place, so
    the journal exists only with its whole header; a write or rename that
    raises removes that file, and only a kill can leave it.  The file
    stays open from construction to :meth:`close`; each row is flushed as
    it is written, so the OS holds every finished row, as it would if the
    file were closed after each one.
    """

    def __init__(self, path: Path, fingerprint: str, resume: bool):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.completed: dict[str, PairedDifference] = {}
        if resume and self.path.exists():
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            header = {"kind": "header", "version": _JOURNAL_VERSION,
                      "fingerprint": fingerprint}
            part = self.path.with_name(self.path.name + ".part")
            try:
                part.write_text(json.dumps(header) + "\n")
                os.replace(part, self.path)
            finally:  # once renamed, it is gone already
                part.unlink(missing_ok=True)
        self._fh = self.path.open("a")

    def _load(self) -> None:
        data = self.path.read_bytes()
        # a row counts once its newline is written: an unterminated last
        # line is an append cut short, and its instance runs again
        complete = data.rfind(b"\n") + 1
        try:
            text = data[:complete].decode()
        except UnicodeDecodeError as exc:
            raise self._invalid(data.count(b"\n", 0, exc.start) + 1) from None
        rows = []
        for number, line in enumerate(text.split("\n"), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                row = None
            if not isinstance(row, dict):
                raise self._invalid(number)
            rows.append((number, row))
        if not rows:
            raise ConfigError(f"checkpoint journal {self.path} is empty")
        header = rows[0][1]
        if header.get("kind") != "header":
            raise ConfigError(f"checkpoint journal {self.path} has no header line")
        if header.get("version") != _JOURNAL_VERSION:
            raise ConfigError(
                f"checkpoint journal {self.path} has version "
                f"{header.get('version')!r}, and this paircomp resumes only "
                f"version {_JOURNAL_VERSION}; start it again with 'run'")
        if header.get("fingerprint") != self.fingerprint:
            raise ConfigError(
                f"checkpoint journal {self.path} belongs to a different "
                f"experiment configuration; refusing to resume")
        for number, row in rows[1:]:
            if row.get("kind") == "instance":
                try:
                    diff = _row_to_diff(row)
                except (KeyError, TypeError, ValueError):
                    raise self._invalid(number) from None
                self.completed[diff.instance_id] = diff
        if complete < len(data):
            # later appends must start on a fresh line
            with self.path.open("r+b") as fh:
                fh.truncate(complete)

    def _invalid(self, number: int) -> ConfigError:
        return ConfigError(f"checkpoint journal {self.path}: line {number} "
                           f"is not a valid record")

    def append(self, diff: PairedDifference) -> None:
        self._fh.write(json.dumps(_diff_to_row(diff)) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _run_test(family: TestFamily, phis, design: ComparisonDesign) -> TestReport:
    if family is TestFamily.T_TEST:
        return paired_t_test(phis, design.mu0, design.alpha, design.alternative)
    if family is TestFamily.WILCOXON:
        return wilcoxon_signed_rank(phis, design.mu0, design.alpha,
                                    design.alternative)
    return sign_test(phis, design.mu0, design.alpha, design.alternative)


def run_experiment(plan: ExperimentPlan, checkpoint_path: str | Path | None = None,
                   resume: bool = False) -> tuple[TestReport, DiagnosticsBundle]:
    """Execute the full comparison described by ``plan``.

    With a ``checkpoint_path``, each completed instance is journaled and
    ``resume=True`` skips instances already journaled under an identical
    configuration.  After an instance fails, or its row cannot be written,
    no instance starts; those running finish and are journaled, and the
    error names the failing one.  After an interrupt (Ctrl-C) on the calling
    thread no run starts, and each running solver is killed by its own run
    within one 0.1 s slice (``runners._POLL_S``), also when a second
    interrupt ends the wait for the workers; unfinished instances are not
    journaled.  A pool of one instance is refused.
    """
    pool_size = len(plan.instance_pool)
    if pool_size < 2:
        raise ValueError(f"an experiment needs at least 2 instances, the pool "
                         f"has {pool_size}; 'reps' samples a single instance")
    warnings = validate_design(plan.design, plan.sampling, plan.sigma_phi_bound)
    size_result = calc_instances(plan.design)
    if size_result.n_instances > pool_size:
        design = plan.design
        achievable = calc_power(pool_size, design.mres_d, design.alpha,
                                design.alternative)
        warnings.append(
            f"the design asks for {size_result.n_instances} instances but the "
            f"pool only has {pool_size}; power at the pool size is "
            f"{achievable:.6g} (target {design.power_target:g}) -- "
            f"consider relaxing the design or adding instances")

    selected = select_instances(plan, size_result.n_instances)

    workers = plan.workers if all(a.concurrent_safe for a in plan.algorithms) else 1

    # nothing between opening the journal and the try below can raise,
    # so its finally closes the journal on every exit
    journal = None
    if checkpoint_path is not None:
        journal = _Journal(Path(checkpoint_path), _plan_fingerprint(plan), resume)
    completed: dict[str, PairedDifference] = dict(journal.completed) if journal else {}
    pending = [(inst, seed) for inst, seed in selected
               if inst.id not in completed]

    # one queue for every worker count: a worker writes each row before it
    # takes the next instance, so with one worker the rows land in order
    todo = zip(pending, first_stages([seed for _, seed in pending], plan.sampling.n0))
    lock, stop, failures = threading.Lock(), threading.Event(), []
    a1, a2 = plan.algorithms

    def work() -> None:
        while True:
            with lock:  # after a failure no worker takes another instance
                if failures or (item := next(todo, None)) is None:
                    return
            (inst, seed), first = item
            try:
                diff = calc_nreps(bind(a1, inst, stop), bind(a2, inst, stop),
                                  inst, plan.sampling, seed, first)
                with lock:
                    if journal:
                        journal.append(diff)
                    completed[inst.id] = diff  # counted once its row is written
            except BaseException as exc:
                failures.append((inst, exc))
                return

    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                for f in [pool.submit(work) for _ in range(min(workers, len(pending)))]:
                    f.result()
            finally:  # after an interrupt each run stops itself
                stop.set()
    finally:
        if journal:
            journal.close()
    if failures:  # the pool has exited, so the count is final
        inst, exc = failures[0]
        if not isinstance(exc, Exception):
            raise exc
        raise ExperimentAbortedError(
            exc, checkpoint_path=journal.path if journal else None,
            completed=len(completed), instance_id=inst.id) from exc

    diffs = [completed[inst.id] for inst, _ in selected]
    phis = [d.phi_hat for d in diffs]
    report = _run_test(plan.design.test_family, phis, plan.design)
    report.per_instance = diffs
    report.warnings = warnings + report.warnings
    diagnostics = build_diagnostics(
        phis, resamples=plan.sampling.resamples,
        seed=derive_seed(plan.master_seed, DIAGNOSTICS_STREAM))
    return report, diagnostics
