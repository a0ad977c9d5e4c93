"""Independent oracle routines used by the test suite.

Each oracle computes an expected value by a route different from the
implementation it checks: quadrature instead of closed forms, exhaustive
enumeration instead of recursions, grid search instead of analytic
optima.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate

from paircomp.errors import AssumptionViolationError, DegenerateRatioError


def t_density(x: float, df: float) -> float:
    """Student-t density written out directly from its normalization."""
    lognorm = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
               - 0.5 * math.log(df * math.pi))
    return math.exp(lognorm - ((df + 1.0) / 2.0) * math.log1p(x * x / df))


def t_cdf_quadrature(x: float, df: float) -> float:
    """Adaptive quadrature of the t density, anchored at the median."""
    if x == 0.0:
        return 0.5
    lo, hi = (0.0, x) if x > 0 else (x, 0.0)
    val, _ = integrate.quad(t_density, lo, hi, args=(df,),
                            epsabs=1e-12, epsrel=1e-10, limit=200)
    return 0.5 + val if x > 0 else 0.5 - val


def normal_cdf_erf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def nct_cdf_monte_carlo(x: float, df: float, ncp: float, draws: int,
                        seed: int) -> tuple[float, float]:
    """Empirical P((Z + ncp)/sqrt(V/df) <= x) and its standard error."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(draws)
    v = rng.chisquare(df, draws)
    t = (z + ncp) / np.sqrt(v / df)
    p = float((t <= x).mean())
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / draws)
    return p, se


def wilcoxon_enumeration(values, mu0: float, alternative: str) -> tuple[float, float]:
    """(W, p) from all 2^n sign assignments of the absolute differences.

    Under the null every assignment of signs to |d_i| is equally likely;
    the tails of the rank-sum statistic are counted exhaustively and the
    two-sided p doubles the smaller tail (capped at 1).
    """
    d = [v - mu0 for v in values if v != mu0]
    n = len(d)
    absd = sorted(abs(v) for v in d)
    assert len(set(absd)) == n, "enumeration oracle requires tie-free data"
    ranks = {a: i + 1 for i, a in enumerate(absd)}
    w_obs = sum(ranks[abs(v)] for v in d if v > 0)
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(ranks[absd[i]] for i in range(n) if signs[i])
        le += w <= w_obs
        ge += w >= w_obs
    total = 2 ** n
    mean_w = n * (n + 1) / 4.0
    if alternative == "two_sided":
        tail = ge if w_obs > mean_w else le
        p = min(1.0, 2.0 * tail / total)
    else:  # "less"
        p = le / total
    return float(w_obs), p


def binomial_tail_sums(n: int, k: int) -> tuple[int, int, int]:
    """(#outcomes <= k, #outcomes >= k, 2^n) by Pascal's triangle addition."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return sum(row[: k + 1]), sum(row[k:]), 2 ** n


def sign_test_enumeration(k: int, n: int, alternative: str) -> float:
    """Sign-test p from the exact tail counts, rounded to float once.

    The ratio stays a Fraction of big integers until the end, so any n
    works, also beyond 1023 where 2^n no longer fits a float.
    """
    lower, upper, total = binomial_tail_sums(n, k)
    if alternative == "two_sided":
        return float(min(Fraction(1), Fraction(2 * min(lower, upper), total)))
    return float(Fraction(lower, total))


def sign_interval_rank(n: int, alpha: float) -> int:
    """Largest l with P(X < l) <= alpha/2 for X ~ Binomial(n, 1/2), exactly."""
    bound = Fraction(alpha) / 2 * 2 ** n
    acc = l = 0
    for i in range(n):
        acc += math.comb(n, i)
        if acc > bound:
            break
        l = i + 1
    return l


def se_percent_with_covariance(x1, x2) -> float:
    """Reference percent-difference SE keeping the covariance term.

    Only defined for balanced samples: the covariance pairs the i-th
    observations of the two algorithms elementwise, which presumes a
    pairing that independent sampling does not provide.  Used to validate
    the no-covariance form the sampler uses.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValueError("the covariance form requires balanced 1-D samples")
    n = x1.size
    if n < 2:
        raise ValueError("at least 2 observations per sample are required")
    m1 = float(x1.mean())
    if m1 <= 0.0:
        raise AssumptionViolationError("baseline mean must be strictly positive")
    gap = float(x2.mean()) - m1
    if gap == 0.0:
        raise DegenerateRatioError("undefined for a zero mean gap")
    v1 = float(x1.var(ddof=1))
    v2 = float(x2.var(ddof=1))
    cov = float(np.cov(x1, x2 - x1, ddof=1)[0, 1])
    phi = gap / m1
    inner = (v1 / n) / m1 ** 2 + (v1 / n + v2 / n) / gap ** 2 + (2.0 / n) * cov / (gap * m1)
    return abs(phi) * math.sqrt(max(inner, 0.0))


def grid_min_total_runs(a: float, bcoef: float, se_max: float,
                        n_lo: int = 2, n_hi: int = 400) -> tuple[int, int, int]:
    """Exhaustive minimizer of n1+n2 subject to sqrt(a/n1 + b/n2) <= se*.

    Covers both difference kinds: the simple SE squared is s1^2/n1 +
    s2^2/n2 and the percent SE squared is (phi^2 c1)/n1 + (phi^2 c2)/n2.
    Returns (n1, n2, n1+n2); raises if nothing in the grid is feasible.
    """
    n1 = np.arange(n_lo, n_hi + 1, dtype=float)
    n2 = np.arange(n_lo, n_hi + 1, dtype=float)
    se2 = a / n1[:, None] + bcoef / n2[None, :]
    feasible = se2 <= se_max * se_max
    if not feasible.any():
        raise AssertionError("grid too small for this configuration")
    total = n1[:, None] + n2[None, :]
    total = np.where(feasible, total, np.inf)
    flat = int(np.argmin(total))
    i, j = divmod(flat, n2.size)
    return int(n1[i]), int(n2[j]), int(n1[i] + n2[j])
