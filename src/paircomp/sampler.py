"""Adaptive within-instance run allocation.

Both algorithms get ``n0`` initial runs on the instance; afterwards, while
the standard error of the paired-difference estimate exceeds the budget
``se_max`` and fewer than ``n_max`` total runs have been spent, one more
run goes to the algorithm whose share is below the optimal allocation
ratio (ties go to the second algorithm).  The loop is inherently
sequential: every allocation decision depends on all runs so far.

Run seeds are derived deterministically from the instance seed and the
(algorithm index, run index) pair, so outcomes are bit-reproducible and
re-running an instance never changes earlier draws.  A run's seed does
not depend on the allocation, so seeds and generator keys are derived in
blocks (see :mod:`paircomp.seeding`): the ``n0`` stage of each instance in
one block, which ``run_experiment`` derives for many instances at once,
and each algorithm's later runs in blocks that double from ``n0``, capped
by what is left of the ``n_max`` budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolationError, DegenerateRatioError
from .estimators import (MIN_RESAMPLES, DiffKind, InstanceSample,
                         PairedDifference, SEMethod, bootstrap_se,
                         phi_percent, phi_simple,
                         optimal_ratio_percent, optimal_ratio_simple,
                         se_percent, se_simple)
from .seeding import BOOTSTRAP_STREAM, derive_seed, run_keys

__all__ = ["SamplingConfig", "SamplingOutcome", "calc_nreps"]


@dataclass(frozen=True)
class SamplingConfig:
    """Budget and method knobs for sampling one instance.

    ``n_max`` caps the *total* number of runs n1+n2.  ``resamples`` is
    the bootstrap's draw count, for the bootstrap SE and for the
    diagnostics; the bootstrap's seeds derive from each instance's seed.
    ``force_balance`` alternates the two algorithms regardless of the
    ratio, for experimenters who want equal sample sizes.  ``n_max`` must
    stay below 2**32: a run index enters its seed as one 32-bit word.
    """

    se_max: float
    n0: int = 15
    n_max: int = 200
    diff_kind: DiffKind = DiffKind.SIMPLE
    se_method: SEMethod = SEMethod.PARAMETRIC
    resamples: int = 999
    force_balance: bool = False

    def __post_init__(self):
        object.__setattr__(self, "diff_kind", DiffKind(self.diff_kind))
        object.__setattr__(self, "se_method", SEMethod(self.se_method))
        if not (self.se_max > 0.0 and math.isfinite(self.se_max)):
            raise ValueError(f"se_max must be a positive finite real, got {self.se_max!r}")
        if self.n0 < 2:
            raise ValueError(f"n0 must be at least 2, got {self.n0!r}")
        if self.n_max < 2 * self.n0:
            raise ValueError(f"n_max={self.n_max!r} must be at least 2*n0={2 * self.n0}")
        if self.n_max >= 2 ** 32:
            raise ValueError(f"n_max must be below 2**32, got {self.n_max!r}")
        if self.resamples < MIN_RESAMPLES:
            raise ValueError(f"at least {MIN_RESAMPLES} bootstrap resamples are "
                             f"required, got {self.resamples!r}")


@dataclass
class SamplingOutcome:
    """Result of adaptively sampling two algorithms on one instance."""
    samples: tuple[InstanceSample, InstanceSample]
    diff: PairedDifference
    se_trace: list[tuple[int, int, float]]
    events: list[str] = field(default_factory=list)


def first_stage(instance_seeds, n0: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``n0``-stage run seeds and generator keys of each instance.

    One ``run_keys`` call serves them all.  Each instance's entry holds
    algorithm 0's runs 0 to n0-1, then algorithm 1's, as ``(seeds, keys)``.
    """
    width, count = 2 * n0, len(instance_seeds)
    seeds, keys = run_keys([seed for seed in instance_seeds for _ in range(width)],
                           ([0] * n0 + [1] * n0) * count,
                           np.tile(np.arange(n0), 2 * count))
    return [(seeds[k:k + width], keys[k:k + width])
            for k in range(0, width * count, width)]


def calc_nreps(runner1, runner2, instance, cfg: SamplingConfig, seed: int,
               first=None) -> SamplingOutcome:
    """Sample two algorithms on one instance until the SE budget is met.

    Returns when the standard error of the paired difference drops to
    ``cfg.se_max`` or the total-run budget ``cfg.n_max`` is exhausted
    (flagged on the result).  If the parametric percent-difference SE
    degenerates (zero mean gap), the instance falls back to the bootstrap
    estimate and the switch is recorded in ``events``.  ``first`` is the
    instance's entry of ``first_stage``, when the caller derived it along
    with other instances'; without it, it is derived here.
    """
    samples = (InstanceSample(), InstanceSample())
    runs = (runner1.bind(instance), runner2.bind(instance))
    events: list[str] = []
    se_method = cfg.se_method
    boot_seed = derive_seed(seed, BOOTSTRAP_STREAM)
    n0 = cfg.n0
    seeds, keys = first if first is not None else first_stage([seed], n0)[0]
    seeds, keys = seeds.tolist(), keys.tolist()
    # each algorithm's run seeds and keys derived so far, by run index
    derived = ((seeds[:n0], keys[:n0]), (seeds[n0:], keys[n0:]))
    block = [n0, n0]

    def do_run(algo_index: int) -> None:
        algo_seeds, algo_keys = derived[algo_index]
        r = samples[algo_index].n
        if r == len(algo_seeds):
            # the next block doubles, but never outruns the budget
            size = min(2 * block[algo_index],
                       cfg.n_max - samples[0].n - samples[1].n)
            block[algo_index] = size
            more_seeds, more_keys = run_keys([seed] * size, [algo_index] * size,
                                             np.arange(r, r + size))
            algo_seeds += more_seeds.tolist()
            algo_keys += more_keys.tolist()
        samples[algo_index].add(runs[algo_index](algo_seeds[r], algo_keys[r]))

    def current_se() -> float:
        nonlocal se_method
        s1, s2 = samples
        if cfg.diff_kind is DiffKind.PERCENT and s1.mean <= 0.0:
            raise AssumptionViolationError(
                f"instance {instance.id}: baseline mean "
                f"{s1.mean:g} is not strictly positive, percent differences do "
                f"not apply; use simple differences")
        if se_method is SEMethod.BOOTSTRAP:
            return bootstrap_se(s1, s2, cfg.diff_kind, cfg.resamples, boot_seed)
        if cfg.diff_kind is DiffKind.SIMPLE:
            return se_simple(s1, s2)
        try:
            return se_percent(s1, s2)
        except DegenerateRatioError:
            se_method = SEMethod.BOOTSTRAP
            events.append(
                f"parametric percent SE degenerate at n1={s1.n}, n2={s2.n}; "
                f"switched to bootstrap SE")
            return bootstrap_se(s1, s2, cfg.diff_kind, cfg.resamples, boot_seed)

    def allocation_ratio() -> float:
        s1, s2 = samples
        if cfg.diff_kind is DiffKind.SIMPLE:
            return optimal_ratio_simple(s1, s2)
        return optimal_ratio_percent(s1, s2)

    for _ in range(cfg.n0):
        do_run(0)
    for _ in range(cfg.n0):
        do_run(1)

    trace: list[tuple[int, int, float]] = []
    se = current_se()
    trace.append((samples[0].n, samples[1].n, se))

    while se > cfg.se_max and samples[0].n + samples[1].n < cfg.n_max:
        if cfg.force_balance:
            chosen = 0 if samples[0].n <= samples[1].n else 1
        else:
            # tie goes to the second algorithm
            chosen = 0 if samples[0].n / samples[1].n < allocation_ratio() else 1
        do_run(chosen)
        se = current_se()
        trace.append((samples[0].n, samples[1].n, se))

    s1, s2 = samples
    phi = phi_simple(s1, s2) if cfg.diff_kind is DiffKind.SIMPLE else phi_percent(s1, s2)
    diff = PairedDifference(
        instance_id=instance.id,
        phi_hat=phi,
        se_hat=se,
        n1=s1.n,
        n2=s2.n,
        diff_kind=cfg.diff_kind,
        se_method=se_method,
        budget_exhausted=se > cfg.se_max,
    )
    return SamplingOutcome(samples=samples, diff=diff, se_trace=trace,
                           events=events)
