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
Instances may be sampled concurrently when every runner declares itself
safe for concurrent invocation; the journal is written by the calling
thread only.  After each instance completes, its row is appended to a
newline-delimited checkpoint journal so an interrupted experiment can
resume without re-running finished instances.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path

from .design import (ComparisonDesign, TestFamily, calc_instances,
                     calc_power, validate_design)
from .errors import ConfigError, ExperimentAbortedError
from .estimators import DiffKind, PairedDifference, SEMethod
from .hypotests import (DiagnosticsBundle, TestReport, build_diagnostics,
                        paired_t_test, sign_test, wilcoxon_signed_rank)
from .runners import AlgorithmSpec, InstanceRef, Runner, read_run_inputs
from .sampler import SamplingConfig, SamplingOutcome, calc_nreps, first_stage
from .seeding import (DIAGNOSTICS_STREAM, INSTANCE_STREAM, SELECTION_STREAM,
                      derive_seed, make_generator, run_keys)

__all__ = ["ExperimentPlan", "run_experiment", "select_instances"]

_JOURNAL_VERSION = 2
# runs per first-stage kernel call: a chunk of instances' n0-stage seeds
# and keys is derived at once, so the kernel's fixed cost is shared and
# its temporaries stay bounded
_FIRST_STAGE_RUNS = 4096


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
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed!r}")
        # every run input is checked here, so a bad one stops nothing midway
        for inst in self.instance_pool:
            for spec in self.algorithms:
                try:
                    read_run_inputs(spec, inst)
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
    count = len(selected)
    seeds, _ = run_keys([plan.master_seed] * count, [INSTANCE_STREAM] * count,
                        range(count))
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
    # coercing these would hide corruption: bool("false") is True, int(3.9) is 3
    if not (isinstance(row["instance_id"], str) and type(n1) is int
            and type(n2) is int and type(exhausted) is bool):
        raise ValueError("a journal row field has the wrong type")
    return PairedDifference(
        instance_id=row["instance_id"],
        phi_hat=float(row["phi"]),
        se_hat=float(row["se"]),
        n1=n1,
        n2=n2,
        diff_kind=DiffKind(row["diff_kind"]),
        se_method=SEMethod(row["se_method"]),
        budget_exhausted=exhausted,
    )


class _Journal:
    """Append-only newline-delimited record file keyed by instance id."""

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
            self.path.write_text(json.dumps(header) + "\n")

    def _load(self) -> None:
        data = self.path.read_bytes()
        # a row counts once its newline is written: an unterminated last
        # line is an append cut short, and its instance runs again
        complete = data.rfind(b"\n") + 1
        rows = []
        for number, line in enumerate(data[:complete].decode().split("\n"), 1):
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
        with self.path.open("a") as fh:
            fh.write(json.dumps(_diff_to_row(diff)) + "\n")
        self.completed[diff.instance_id] = diff


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
    configuration.  A failing instance aborts the experiment; the journal
    keeps everything completed so far, including the instances that were
    still running when the failure came.  A pool of one instance is
    refused before any run: no paired test applies to one difference.
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

    journal = None
    if checkpoint_path is not None:
        journal = _Journal(Path(checkpoint_path), _plan_fingerprint(plan), resume)

    runner1, runner2 = (Runner(s) for s in plan.algorithms)
    workers = plan.workers
    if not (runner1.concurrent_safe and runner2.concurrent_safe):
        workers = 1

    completed: dict[str, PairedDifference] = dict(journal.completed) if journal else {}
    pending = [(inst, seed) for inst, seed in selected
               if inst.id not in completed]

    def first_stages():
        n0 = plan.sampling.n0
        step = max(1, _FIRST_STAGE_RUNS // (2 * n0))
        for start in range(0, len(pending), step):
            chunk = pending[start:start + step]
            yield from zip(chunk, first_stage([seed for _, seed in chunk], n0))

    def record(inst: InstanceRef, outcome: SamplingOutcome) -> None:
        completed[inst.id] = outcome.diff
        if journal:
            journal.append(outcome.diff)

    try:
        if workers == 1 or len(pending) <= 1:
            for (inst, seed), first in first_stages():
                record(inst, calc_nreps(runner1, runner2, inst, plan.sampling,
                                        seed, first))
        else:
            # journal rows land as instances complete, so an interrupt
            # loses at most the in-flight instances
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(calc_nreps, runner1, runner2, inst,
                                       plan.sampling, seed, first): inst
                           for (inst, seed), first in first_stages()}
                try:
                    for fut in as_completed(futures):
                        record(futures[fut], fut.result())
                except BaseException:
                    # drop the queued instances, wait for the running ones
                    # and keep every result they return
                    pool.shutdown(cancel_futures=True)
                    for fut, inst in futures.items():
                        if (inst.id not in completed and not fut.cancelled()
                                and fut.exception() is None):
                            record(inst, fut.result())
                    raise
    except Exception as exc:
        raise ExperimentAbortedError(
            exc, checkpoint_path=journal.path if journal else None,
            completed=len(completed)) from exc

    diffs = [completed[inst.id] for inst, _ in selected]
    phis = [d.phi_hat for d in diffs]
    report = _run_test(plan.design.test_family, phis, plan.design)
    report.per_instance = diffs
    report.warnings = warnings + report.warnings
    diagnostics = build_diagnostics(
        phis, resamples=plan.sampling.resamples,
        seed=derive_seed(plan.master_seed, DIAGNOSTICS_STREAM))
    return report, diagnostics
