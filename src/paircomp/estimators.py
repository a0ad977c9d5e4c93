"""Per-instance paired-difference estimators and their standard errors.

Two difference kinds are supported for a pair of observation samples
(x1, x2) on one instance:

* simple:   phi = mean(x2) - mean(x1),
  se = sqrt(s1^2/n1 + s2^2/n2)
* percent:  phi = (mean(x2) - mean(x1)) / mean(x1),
  se = |phi| * sqrt(c1/n1 + c2/n2)   (no-covariance Fieller form)
  with c1 = s1^2 [gap^-2 + mean1^-2],  c2 = s2^2 gap^-2,
  gap = mean(x2) - mean(x1); at gap = 0 it is the limit
  sqrt(s1^2/n1 + s2^2/n2) / mean(x1)

The total-run-minimizing allocation keeps n1/n2 at s1/s2 (simple) or
sqrt(c1/c2) = (s1/s2) sqrt(1 + phi^2) (percent).  A bootstrap of
``resamples`` draws under an integer ``seed`` provides a nonparametric
alternative for the standard errors and, separately, a resampled
sampling-distribution-of-the-mean for normality diagnostics.

Both bootstraps draw what ``Generator.integers`` on
``make_generator(seed)`` would draw, through one kernel that reads the
seed's 32-bit Philox word stream and maps the words to indices by
numpy's own rule; the seed must be an integer >= 0.  Every SE
evaluation for one instance reads a prefix of that stream, and one
thread samples one instance at a time, so each thread keeps one
``_Slot``, allocated once: the first 2**19 words (2 MiB) of the last
seed it read, the kernel's index and gather buffers (16 bytes per index
of a block of max(2**17, n), 2 MiB), and the last first side the SE
drew (8 bytes per resample), which an allocation step that adds a run
to the second algorithm reuses.  A block without a rejected word
allocates nothing.  Results are bit-identical to drawing them afresh
from a new generator.

An SE evaluation that only has to decide "is the SE above se_max?" may
stop early (``bootstrap_se``'s ``stop_above``).  For any k of the R
resampled differences phi_r, with their own mean, the sum of squares
SS_k about that mean is at most the sum over all R about theirs, so the
SE is at least sqrt(SS_k / (R - 1)).  The evaluation reads the second
side's first k rows, the very rows the full evaluation reads first, and
returns that bound when it certifies the SE above ``stop_above``;
otherwise it reads the other R - k rows from where the first k stopped
and finishes as the full evaluation does.  It stops early only where
the full evaluation could not raise: no resampled baseline mean is
nonpositive (under the percent kind, the redraw loop would run), and
every |phi_r| is at most 1e150 by a bound from the first side's extreme
means and the largest |x2| (so the SE is finite).  k is set from the
parametric SE so that the bound is likely to certify; when the
parametric SE is not finite or not above ``stop_above``, or k would pass
R / 2, the evaluation is a full one.

Every percent estimator (phi, the parametric SE and the bootstrap SE)
refuses a nonpositive baseline mean with the same
``AssumptionViolationError``.  The parametric SE is inf or nan where the
variance of the values overflows a float.  The bootstrap SE squares its
deviations scaled by a power of two (``_mean_spread``), so it is inf or
nan only where a resampled mean, a resampled difference, the sum of the
R differences or a deviation from their mean overflows a float.  The
sampler refuses such an SE.

Functions are duck-typed over any object exposing ``n``, ``mean``,
``variance`` and ``sd`` so tests can drive them with frozen statistics.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AssumptionViolationError
from .seeding import generator_key, philox_words

__all__ = [
    "DiffKind", "SEMethod", "InstanceSample", "PairedDifference",
    "phi_simple", "phi_percent",
    "se_simple", "se_percent", "optimal_ratio_simple", "optimal_ratio_percent",
    "bootstrap_se", "bootstrap_sdm",
]


class DiffKind(str, Enum):
    SIMPLE = "simple"
    PERCENT = "percent"


class SEMethod(str, Enum):
    PARAMETRIC = "parametric"
    BOOTSTRAP = "bootstrap"


@dataclass
class InstanceSample:
    """Observations of one algorithm on one instance with running statistics.

    Mean and spread are maintained incrementally (Welford update) so the
    adaptive sampler pays O(1) per appended run; the raw observations are
    kept for bootstrap resampling.  The spread uses the n-1 denominator
    and is defined only for n >= 2; it is not finite once the running mean
    has overflowed a float.
    """

    observations: list[float] = field(default_factory=list)
    n: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    def add(self, x: float) -> None:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"observations must be finite, got {x!r}")
        self.observations.append(x)
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        if self.n < 2:
            raise ValueError(f"variance undefined for n={self.n} (< 2 observations)")
        m2 = self._m2
        if m2 < 0.0:
            # a rounding-negative sum of squares counts as 0; one that is
            # -inf, as the mean overflows, as inf (later ones are nan)
            m2 = 0.0 if m2 > -math.inf else math.inf
        return m2 / (self.n - 1)

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


@dataclass
class PairedDifference:
    """Estimated performance difference on one instance, with its uncertainty."""
    instance_id: str
    phi_hat: float
    se_hat: float
    n1: int
    n2: int
    diff_kind: DiffKind
    se_method: SEMethod
    budget_exhausted: bool = False

    def __post_init__(self):
        self.diff_kind = DiffKind(self.diff_kind)
        self.se_method = SEMethod(self.se_method)
        if self.se_hat < 0.0:
            raise ValueError("standard error cannot be negative")


# the estimators the sampler calls once per run test both counts inline
# and call this only when one falls short, to name the first short sample
def _require_runs(k: int, who: str, *samples) -> None:
    for sample in samples:
        if sample.n < k:
            raise ValueError(f"{who} needs at least {k} observation(s), got n={sample.n}")


def _require_positive_baseline(s1) -> None:
    if s1.mean <= 0.0:
        raise AssumptionViolationError(
            f"percent differences assume a strictly positive baseline mean, got "
            f"{s1.mean:g}; use simple differences for this data")


def phi_simple(s1, s2) -> float:
    """Difference of mean performance, second algorithm minus first."""
    if s1.n < 1 or s2.n < 1:
        _require_runs(1, "phi_simple", s1, s2)
    return s2.mean - s1.mean


def phi_percent(s1, s2) -> float:
    """Relative mean gain of the second algorithm over the first.

    Requires a strictly positive baseline mean; otherwise the ratio is not
    meaningful and simple differences should be used instead.
    """
    if s1.n < 1 or s2.n < 1:
        _require_runs(1, "phi_percent", s1, s2)
    _require_positive_baseline(s1)
    return (s2.mean - s1.mean) / s1.mean


def se_simple(s1, s2) -> float:
    """Standard error of the simple mean difference."""
    if s1.n < 2 or s2.n < 2:
        _require_runs(2, "se_simple", s1, s2)
    return math.sqrt(s1.variance / s1.n + s2.variance / s2.n)


def se_percent(s1, s2) -> float:
    """Standard error of the percent difference (no-covariance ratio form).

    The gap^-2 factors of c1 and c2 cancel against phi^2, so at a zero
    mean gap the SE is its limit, the delta-method form
    sqrt(s1^2/n1 + s2^2/n2) / mean1.  The ratio form overflows a float
    when the gap or the baseline mean is below about 1.5e-154; that is
    refused as an assumption violation.
    """
    if s1.n < 2 or s2.n < 2:
        _require_runs(2, "se_percent", s1, s2)
    _require_positive_baseline(s1)
    gap = s2.mean - s1.mean
    v1, v2 = s1.variance, s2.variance
    if gap == 0.0:
        return math.sqrt(v1 / s1.n + v2 / s2.n) / s1.mean
    try:
        c1 = v1 * (gap ** -2 + s1.mean ** -2)
        c2 = v2 * gap ** -2
    except OverflowError:
        raise AssumptionViolationError(
            f"the parametric percent-difference standard error overflows a "
            f"float at this scale (mean gap {gap:g}, baseline mean "
            f"{s1.mean:g}); rescale the values or use se_method: "
            f"bootstrap") from None
    phi = gap / s1.mean
    return abs(phi) * math.sqrt(c1 / s1.n + c2 / s2.n)


def optimal_ratio_simple(s1, s2) -> float:
    """Run-allocation ratio n1/n2 minimizing total runs (simple differences).

    Equals the ratio of the sample spreads.  With a spread-free second
    algorithm the ratio is +inf ("always sample the first next"); if both
    spreads vanish it is 1 by convention.
    """
    if s1.n < 2 or s2.n < 2:
        _require_runs(2, "optimal_ratio_simple", s1, s2)
    sd1, sd2 = s1.sd, s2.sd
    if sd2 == 0.0:
        return 1.0 if sd1 == 0.0 else math.inf
    return sd1 / sd2


def optimal_ratio_percent(s1, s2) -> float:
    """Run-allocation ratio for percent differences: (s1/s2) sqrt(1 + phi^2)."""
    if s1.n < 2 or s2.n < 2:
        _require_runs(2, "optimal_ratio_percent", s1, s2)
    sd1, sd2 = s1.sd, s2.sd
    if sd2 == 0.0:
        return 1.0 if sd1 == 0.0 else math.inf
    phi = phi_percent(s1, s2)
    return (sd1 / sd2) * math.sqrt(1.0 + phi * phi)


MIN_RESAMPLES = 100
# a bootstrap evaluation holds a few arrays of 8 bytes per resample, under
# 1 MB each here; a larger count is refused before any run is spent
MAX_RESAMPLES = 100_000


def _check_resamples(resamples: int) -> None:
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"at least {MIN_RESAMPLES} bootstrap resamples are "
                         f"required, got {resamples!r}")
    if resamples > MAX_RESAMPLES:
        raise ValueError(f"at most {MAX_RESAMPLES} bootstrap resamples are "
                         f"allowed, got {resamples!r}: every bootstrap "
                         f"evaluation holds arrays of 8 bytes per resample")


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


# indices gathered per block of rows, so a resample of N values holds
# O(N) memory at any N; smaller blocks mean more numpy calls, each of
# which hands the GIL on, and that costs most when workers share cores
_GATHER_CHUNK = 1 << 17
# 32-bit words of its instance's stream a thread keeps (2 MiB)
_KEPT_WORDS = 1 << 19
# the fewest words a fill generates: a Philox call costs about 8 µs even
# for 1,000 words, so a fill of just the words a read lacks costs more
_MIN_FILL = 1 << 15


class _Slot(threading.local):
    """One thread's bootstrap state, allocated on its first use: the
    ``seed`` last read and its ``key``; ``filled`` words of its stream in
    ``store``, read through the read-only view ``words``; the kernel's
    ``indices`` and ``gather`` buffers; and ``first``, the last first
    side, as (resamples, x1 bytes, read-only means, word position)."""

    def __init__(self):
        self.seed = self.key = self.first = None
        self.filled = 0
        self.store = np.empty(_KEPT_WORDS, np.uint32)
        self.words = self.store[:]
        self.words.flags.writeable = False
        self.indices, self.gather = np.empty(_GATHER_CHUNK, np.uint64), np.empty(_GATHER_CHUNK)


_slot = _Slot()


def _words(seed: int, start: int, stop: int) -> np.ndarray:
    """Words [start, stop) of ``make_generator(seed)``'s 32-bit stream;
    read-only.  A new seed empties the thread's slot; a read past its kept
    words fills them to ``stop``, by at least ``_MIN_FILL`` and at most to
    the slot's size; words past that are generated afresh."""
    slot = _slot
    if seed != slot.seed:
        slot.seed, slot.key, slot.filled, slot.first = seed, generator_key(seed), 0, None
    filled = slot.filled
    if stop > filled < slot.store.size:
        end = min(max(stop, filled + _MIN_FILL), slot.store.size)
        slot.store[filled:end] = philox_words(slot.key, filled, end)
        slot.filled = filled = end
    if stop <= filled:
        return slot.words[start:stop]
    if start >= filled:
        return philox_words(slot.key, start, stop)
    return np.concatenate((slot.words[start:filled], philox_words(slot.key, filled, stop)))


def _word_indices(seed: int, pos: int, n: int, count: int,
                  out: np.ndarray) -> tuple[np.ndarray, int]:
    """``count`` indices below ``n``, drawn from word ``pos`` on of the
    seed's word stream, and the word position after them.

    This is numpy's rule for ``Generator.integers(0, n)`` with n <= 2**32
    (Lemire's): a word w gives m = w * n in 64 bits and the index m >> 32,
    and it is rejected, and the next word tried, while m mod 2**32 <
    2**32 mod n.  At n = 2**32 the index is the word itself, as numpy's
    path without rejection gives.  So the indices, and the position,
    are those of ``integers(0, n, count)`` on a generator that has drawn
    ``pos`` words.

    The indices go into ``out``, a uint64 array of at least ``count``
    entries, and the result is an int64 view of its first ``count``.
    Each read of words is checked by writing the low halves of w * n as
    uint32 into the unfilled part of ``out`` and taking their minimum;
    only a read with a rejected word (a word's chance is below n / 2**32)
    is masked, and the next read draws just the words it lacks.  So every
    word is read once and nothing else is allocated on a read without
    rejection.  Lemire's rule lives here alone.
    """
    if not 2 <= n <= 1 << 32:
        raise ValueError(f"indices below n need 2 <= n <= 2**32, got n={n}")
    threshold = (1 << 32) % n
    filled = 0
    while filled < count:
        need = count - filled
        words = _words(seed, pos, pos + need)
        pos += need
        if threshold:
            low = np.multiply(words, np.uint32(n), out=out[filled:].view(np.uint32)[:need])
            if np.minimum.reduce(low) < threshold:
                words = words[low >= threshold]
        out[filled:filled + words.size] = words
        filled += words.size
    indices = out[:count]
    indices *= n
    indices >>= 32
    return indices.view(np.int64), pos


def _word_means(seed: int, x: np.ndarray, count: int, pos: int) -> tuple[np.ndarray, int]:
    """Means of ``count`` with-replacement resamples of ``x``, read from
    word ``pos`` on of the seed's word stream a block of rows at a time,
    and the word position after them: the same floats, and the position
    where the generator stands, as one ``integers(0, n, (count, n))`` draw
    on a generator of ``seed`` that has drawn ``pos`` words.

    A block's indices and gathered values go into the slot's two
    buffers; they hold 2**17 indices, the largest block of any n up to
    that size, and are replaced only when a larger n comes.  A block's
    row sums go straight into the result, which is divided by n once, as
    ``ndarray.mean`` does.  The result is always a new array, never a
    view of a buffer: ``_first_side`` keeps it and ``bootstrap_sdm``
    returns it.
    """
    slot = _slot
    n = x.size
    rows = max(1, _GATHER_CHUNK // n)
    if slot.indices.size < rows * n:
        slot.indices, slot.gather = np.empty(rows * n, np.uint64), np.empty(rows * n)
    index_buffer, gather_buffer = slot.indices, slot.gather
    means = np.empty(count)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        size = (stop - start) * n
        indices, pos = _word_indices(seed, pos, n, size, index_buffer)
        # the indices are below n, so "clip" never clips; unlike "raise",
        # it writes straight into the buffer, and unlike "wrap", which
        # steps a bad index down by n at a time, it cannot stall on one
        gather = x.take(indices, out=gather_buffer[:size], mode="clip")
        np.add.reduce(gather.reshape(stop - start, n), axis=1, out=means[start:stop])
    means /= n
    return means, pos


def _first_side(seed: int, resamples: int, x1_bytes: bytes) -> tuple[np.ndarray, int]:
    """Resampled means of the first side, read-only, and the word
    position after them, where the second side goes on; the thread's
    last, while the seed, ``resamples`` and the bytes repeat."""
    slot = _slot
    if seed == slot.seed and slot.first and slot.first[:2] == (resamples, x1_bytes):
        return slot.first[2:]
    m1, pos = _word_means(seed, np.frombuffer(x1_bytes), resamples, 0)
    m1.flags.writeable = False
    slot.first = resamples, x1_bytes, m1, pos
    return m1, pos


def bootstrap_se(s1, s2, diff_kind: DiffKind, resamples: int, seed: int,
                 stop_above: float | None = None) -> float:
    """Bootstrap standard error of the paired difference.

    Draws ``resamples`` with-replacement resamples of each side (sizes
    n1, n2), computes the difference of the requested kind on each pair of
    resampled means, and returns the sample standard deviation of those
    values.  Deterministic for a fixed ``seed``.  Under the percent kind,
    a nonpositive baseline mean is refused as in ``phi_percent``, and
    resamples with a nonpositive baseline mean are rejected and redrawn;
    more than 100*R rejections abort.  Where a resampled mean, a resampled
    difference, their sum or a deviation from their mean overflows a
    float, the SE is inf or nan, without a warning.

    The indices are those ``Generator.integers`` would draw, one call
    after another, from ``make_generator(seed)``.  The thread keeps what
    an instance's evaluations reuse (see the module docstring): a call
    whose first side repeats the thread's last draws only the second
    side, and the result is the same to the last bit.

    Without ``stop_above`` the result is always that SE.  With it, the
    call may instead return a certified lower bound v with
    ``stop_above < v <= SE``, read from the first k resamples of the
    second side (see the module docstring); it never does so where the
    SE could be at or below ``stop_above``, nor where the full
    evaluation would raise or give an SE that is not finite.
    """
    _check_resamples(resamples)
    _check_seed(seed)
    _require_runs(2, "bootstrap_se", s1, s2)
    diff_kind = DiffKind(diff_kind)
    if diff_kind is DiffKind.PERCENT:
        _require_positive_baseline(s1)
    head = 0 if stop_above is None else _head_rows(s1, s2, diff_kind, resamples, stop_above)
    x1 = np.asarray(s1.observations, dtype=float)
    x2 = np.asarray(s2.observations, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _bootstrap_se(x1, x2, diff_kind, resamples, seed, head, stop_above)


# the largest |phi| an early exit allows: R <= 10**5 squared deviations of
# at most 2e150 sum to at most 4e305, so every sum the SE takes is finite
_PHI_CAP = 1e150
# the smallest se_max**2 * (R - 1) an early exit compares against, so that
# the rounding margins below stay far above the subnormal floats
_MIN_THRESHOLD = 1e-290


def _head_rows(s1, s2, diff_kind: DiffKind, R: int, se_max: float) -> int:
    """Rows of the second side to read before trying to certify the SE
    above ``se_max``, or 0 for a full evaluation.

    If the SE is near the parametric SE g, the first k rows give SS_k
    near (k - 1) g**2, so k = 1.5 (R - 1)(se_max / g)**2 + 2 rows are
    likely to certify; at least 32.  Where g cannot be had (the
    parametric percent SE overflows), is not finite or is not above
    ``se_max``, or k would pass R / 2, a head is more likely to cost a
    second read than to save one.  This only sets speed: the result is
    the same for any k.
    """
    try:
        guess = se_simple(s1, s2) if diff_kind is DiffKind.SIMPLE else se_percent(s1, s2)
    except (AssumptionViolationError, ArithmeticError):
        return 0
    if not (math.isfinite(guess) and guess > se_max
            and se_max * se_max * (R - 1) > _MIN_THRESHOLD):
        return 0
    ratio = se_max / guess
    k = max(32, math.ceil(1.5 * (R - 1) * ratio * ratio) + 2)
    return k if 2 * k <= R else 0


def _phi_bounded(m1: np.ndarray, x2: np.ndarray, percent: bool) -> bool:
    """Whether every resampled difference against the first side's means
    ``m1`` is at most ``_PHI_CAP`` in size, and, for the percent kind,
    no mean in ``m1`` is nonpositive.  A resampled mean of x2 is at most
    max|x2| in size, to rounding; a nan anywhere gives False."""
    low, high = m1.min(), m1.max()
    top2 = max(x2.max(), -x2.min())
    if percent:
        return low > 0.0 and (top2 + high) / low <= _PHI_CAP
    return top2 + max(high, -low) <= _PHI_CAP


def _certified_sd(phis: np.ndarray, R: int, se_max: float) -> float | None:
    """A lower bound above ``se_max`` on the sample SD of R values whose
    first k are ``phis``, or None where the first k cannot certify one.

    SS_k is computed as (k - 1) sd**2, sd from ``_mean_spread`` about
    the computed mean c of ``phis``.  Exactly, sum (phi - c)**2 = SS_k +
    k (c - mean)**2, and the rounding of a k-term sum and one division
    leaves |c - mean| <= k 2**-52 max|phi|.  The computed (k - 1) sd**2
    is within a relative (k + 10) 2**-53 < 1e-11 of the exact sum about
    c (k <= R / 2 <= 50000; the squares' power-of-two unit is exact, and
    a square that underflows errs by at most 2**-1075 of the largest),
    so it times (1 - 1e-6), less k (k 2**-52 max|phi|)**2, is at most
    SS_k.  It certifies when it exceeds se_max**2 (R - 1)(1 + 1e-6),
    whose margin covers the rounding of that threshold and of the
    returned sqrt(bound / (R - 1)); the full SE's own rounding is far
    below the 1e-6 taken off the bound.
    """
    k = phis.size
    sd = _mean_spread(phis)[1]
    top = float(max(phis.max(), -phis.min()))
    ss = (k - 1) * sd * sd * (1 - 1e-6) - k * (k * 2.0 ** -52 * top) ** 2
    if ss > se_max * se_max * (R - 1) * (1 + 1e-6):
        return math.sqrt(ss / (R - 1))
    return None


def _diffs(m1: np.ndarray, m2: np.ndarray, percent: bool) -> np.ndarray:
    phis = m2 - m1
    if percent:
        phis /= m1
    return phis


def _bootstrap_se(x1, x2, diff_kind: DiffKind, R: int, seed: int,
                  head: int, se_max: float | None) -> float:
    m1, pos = _first_side(seed, R, x1.tobytes())
    percent = diff_kind is DiffKind.PERCENT
    if head and _phi_bounded(m1, x2, percent):
        m2, pos = _word_means(seed, x2, head, pos)
        bound = _certified_sd(_diffs(m1[:head], m2, percent), R, se_max)
        if bound is not None:
            return bound
        rest, pos = _word_means(seed, x2, R - head, pos)
        m2 = np.concatenate((m2, rest))
    else:
        m2, pos = _word_means(seed, x2, R, pos)
    if percent:
        m1 = m1.copy()  # the rejection loop redraws entries in place
        rejected = 0
        bad = m1 <= 0.0
        while bad.any():
            rejected += int(bad.sum())
            if rejected > 100 * R:
                raise AssumptionViolationError(
                    f"bootstrap gave {rejected} resamples with nonpositive baseline "
                    f"mean (limit {100 * R}); percent differences are not viable "
                    f"for this data")
            k = int(bad.sum())
            m1[bad], pos = _word_means(seed, x1, k, pos)
            m2[bad], pos = _word_means(seed, x2, k, pos)
            bad = m1 <= 0.0
    return _mean_spread(_diffs(m1, m2, percent))[1]


def _mean_spread(values: np.ndarray) -> tuple[float, float]:
    """The mean and ``std(ddof=1)`` of ``values``, by the reductions numpy
    makes, without its Python wrapper.  The spread squares each deviation
    divided by the power of two at or below the largest, so the squares
    neither overflow nor, for a spread below about 1e-154, underflow; a
    power of two scales exactly, so it is numpy's spread to the bit
    wherever numpy's squares stay normal."""
    mean = np.add.reduce(values) / values.size
    dev = values - mean
    unit = math.ldexp(1.0, math.frexp(float(np.abs(dev).max()))[1] - 1)
    dev /= unit
    dev *= dev
    return float(mean), math.sqrt(np.add.reduce(dev) / (values.size - 1)) * unit


def bootstrap_sdm(sample, resamples: int, seed: int) -> np.ndarray:
    """Resampled sampling distribution of the mean (``resamples`` values).

    Feeds normality diagnostics: if the returned means look normal on a
    Q-Q plot, mean-based inference is on safe ground even when the data
    itself is not normal.  The means are those one (R, N)
    ``Generator.integers`` draw on ``make_generator(seed)`` gives, read
    from the seed's word stream as in ``bootstrap_se`` a block of rows at
    a time, so the extra memory is O(N) beyond the result.  A mean whose
    resampled sum overflows a float is +-inf, without a warning.
    """
    _check_resamples(resamples)
    _check_seed(seed)
    values = np.asarray(getattr(sample, "observations", sample), dtype=float)
    if values.size < 2:
        raise ValueError(f"at least 2 observations are required, got {values.size}")
    with np.errstate(over="ignore"):
        return _word_means(seed, values, resamples, 0)[0]
