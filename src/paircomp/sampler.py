"""Adaptive within-instance run allocation.

Each algorithm enters as its run on the instance, a function of the run
seed and its generator key that ``runners.bind`` returns; the sampler
calls it in one place, ``calc_nreps``'s ``do_run``.  Both algorithms get
``n0`` initial runs on the instance; afterwards, while the standard error
of the paired-difference estimate exceeds the budget ``se_max`` and fewer
than ``n_max`` total runs have been spent, one more run goes to the
algorithm whose share is below the optimal allocation ratio (ties go to
the second algorithm).  The loop is inherently sequential: every
allocation decision depends on all runs so far.

Run seeds are derived deterministically from the instance seed and the
(algorithm index, run index) pair, so outcomes are bit-reproducible and
re-running an instance never changes earlier draws.  A run's seed does
not depend on the allocation, so seeds and generator keys are derived in
blocks (see :mod:`paircomp.seeding`): the ``n0`` stage of each instance in
one block, which ``run_experiment`` derives for many instances at once,
and the later runs of both algorithms together, in joint blocks.  Both
algorithms' derived runs share one length L; when either needs run L, one
kernel call derives both algorithms' runs from L up to
L + max(L, ``_MIN_BLOCK``), capped at ``n_max - n0``, the most runs one
algorithm can have.  So the runs derived and never used number at most
three times the runs made, plus ``2 * _MIN_BLOCK``.

Only the last SE evaluation of an instance is reported.  Every earlier
one decides "SE > se_max?" and nothing else, so a bootstrap evaluation
made while runs remain in the budget may stop at a certified lower bound
above ``se_max`` (see :mod:`paircomp.estimators`).  The reported SE is
always exact: the evaluation after the run that spends the budget is a
full one, and an SE at or below ``se_max`` is never certified by a bound,
so the evaluation that finds it runs to all its resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionViolationError
from .estimators import (DiffKind, InstanceSample, PairedDifference,
                         SEMethod, _check_resamples, bootstrap_se,
                         phi_percent, phi_simple,
                         optimal_ratio_percent, optimal_ratio_simple,
                         se_percent, se_simple)
from .seeding import BOOTSTRAP_STREAM, derive_seed, first_stages, run_keys

__all__ = ["SamplingConfig", "calc_nreps"]

# fewest later runs derived at once: a kernel call costs tens of
# microseconds whatever its size, and a short instance leaves at most this
# many derived runs of each algorithm unused
_MIN_BLOCK = 64

# an instance in flight holds its first stage's seeds and keys as lists,
# which peaked at 44 MB at n0 = 10**5 (tracemalloc) and grow linearly
MAX_N0 = 10 ** 5


@dataclass(frozen=True)
class SamplingConfig:
    """Budget and method knobs for sampling one instance.

    ``n_max`` caps the *total* number of runs n1+n2.  ``resamples`` is
    the bootstrap's draw count, for the bootstrap SE and for the
    diagnostics; the bootstrap's seeds derive from each instance's seed.
    ``force_balance`` alternates the two algorithms regardless of the
    ratio, for experimenters who want equal sample sizes.  ``n0`` is 2 to
    ``MAX_N0``.  ``n_max`` must stay below 2**32: a run index enters its
    seed as one 32-bit word.
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
        if self.n0 > MAX_N0:
            raise ValueError(f"n0 must be at most {MAX_N0}, got {self.n0!r}: each "
                             f"instance in flight holds 2 * n0 run seeds and keys")
        if self.n_max < 2 * self.n0:
            raise ValueError(f"n_max={self.n_max!r} must be at least 2*n0={2 * self.n0}")
        if self.n_max >= 2 ** 32:
            raise ValueError(f"n_max must be below 2**32, got {self.n_max!r}")
        _check_resamples(self.resamples)


def calc_nreps(run1, run2, instance, cfg: SamplingConfig, seed: int,
               first=None) -> PairedDifference:
    """Sample two algorithms on one instance until the SE budget is met.

    ``run1`` and ``run2`` are the two algorithms' runs bound to the
    instance (see ``runners.bind``).  Returns the instance's
    ``PairedDifference`` (the estimate, its SE and both run counts) when
    the standard error drops to ``cfg.se_max`` or the total-run budget
    ``cfg.n_max`` is exhausted (flagged on the result).  The SE is
    ``cfg.se_method``'s throughout; the bootstrap's seed derives from
    ``seed``.  An SE that is not finite raises
    ``AssumptionViolationError`` at once, and so does an estimate that is
    not finite once sampling stops.  ``first`` is the instance's
    item of ``seeding.first_stages``, when the caller derived it along with
    other instances'; without it, it is derived here.
    """
    s1, s2 = samples = (InstanceSample(), InstanceSample())
    runs = (run1, run2)
    # the settings, read once: the loop below runs once per run
    n0, n_max, se_max = cfg.n0, cfg.n_max, cfg.se_max
    diff_kind, resamples, force_balance = cfg.diff_kind, cfg.resamples, cfg.force_balance
    # the kind's estimate, parametric SE and allocation ratio
    phi_of, se_of, ratio_of = (
        (phi_simple, se_simple, optimal_ratio_simple) if diff_kind is DiffKind.SIMPLE
        else (phi_percent, se_percent, optimal_ratio_percent))
    bootstrap = cfg.se_method is SEMethod.BOOTSTRAP
    boot_seed = derive_seed(seed, BOOTSTRAP_STREAM) if bootstrap else None
    seeds, keys = first if first is not None else next(first_stages([seed], n0))
    # both algorithms' run seeds and keys derived so far, one row each, by
    # run index; the rows always have one length
    algo_seeds, algo_keys = seeds.tolist(), keys.tolist()

    def do_run(algo_index: int) -> None:
        r = samples[algo_index].n
        if r == len(algo_seeds[algo_index]):
            # neither algorithm can have more than n_max - n0 runs
            stop = min(n_max - n0, r + max(r, _MIN_BLOCK))
            more_seeds, more_keys = run_keys([(seed, 0), (seed, 1)], range(r, stop))
            for row, more in zip(algo_seeds, more_seeds.tolist()):
                row += more
            for row, more in zip(algo_keys, more_keys.tolist()):
                row += more
        samples[algo_index].add(runs[algo_index](algo_seeds[algo_index][r],
                                                 algo_keys[algo_index][r]))

    def current_se() -> float:
        if bootstrap:
            # below the budget, the loop reads this SE only as "se >
            # se_max", so the evaluation may stop at a bound above se_max
            se = bootstrap_se(s1, s2, diff_kind, resamples, boot_seed,
                              se_max if s1.n + s2.n < n_max else None)
        else:
            se = se_of(s1, s2)
        if not math.isfinite(se):
            # no number of runs could meet the budget
            raise AssumptionViolationError(
                f"the standard error of the difference is {se} after "
                f"{s1.n} + {s2.n} runs: the values overflow a float at this "
                f"scale; rescale them")
        return se

    for _ in range(n0):
        do_run(0)
    for _ in range(n0):
        do_run(1)

    se = current_se()

    while se > se_max and s1.n + s2.n < n_max:
        if force_balance:
            chosen = 0 if s1.n <= s2.n else 1
        else:
            ratio = ratio_of(s1, s2)
            # tie goes to the second algorithm
            chosen = 0 if s1.n / s2.n < ratio else 1
        do_run(chosen)
        se = current_se()

    phi = phi_of(s1, s2)
    if not math.isfinite(phi):
        raise AssumptionViolationError(
            f"the estimate of the difference is {phi} after {s1.n} + {s2.n} "
            f"runs: the values overflow a float at this scale; rescale them")
    return PairedDifference(
        instance_id=instance.id,
        phi_hat=phi,
        se_hat=se,
        n1=s1.n,
        n2=s2.n,
        diff_kind=diff_kind,
        se_method=cfg.se_method,
        budget_exhausted=se > se_max,
    )
