"""Central and noncentral Student-t CDFs and quantiles.

These four functions are the numeric substrate for every power and
sample-size computation in the package.  Each broadcasts over array
arguments and returns a float for scalar input.  Degrees of freedom are
accepted as any positive real, so the large-df normal limit is directly
testable.

The central pair is ``scipy.special.stdtr`` / ``stdtrit``; the quantile
is computed for p > 1/2 and negated below, so it is exactly antisymmetric
around p = 1/2.  The noncentral pair is ``nctdtr`` / ``nctdtrit``.  At
ncp = 0 both reduce exactly to the central functions: ``nctdtr`` then
equals ``stdtr`` bit for bit, and the quantile is :func:`t_quantile`.

``nctdtr`` returns NaN in parts of the far lower tail even at ordinary
designs (for example df = 99, ncp = 30, x = -2, which two-sided power
at N = 100, d = 0.6 reaches).  Two measures keep the CDF finite:

* x < 0 is evaluated through the reflection F(x; ncp) = 1 - F(-x; -ncp),
  since -T'(ncp) is distributed as T'(-ncp); this removes most of the
  NaN band;
* entries that are still not finite (large |ncp| against an x on the
  far side of it) fall back to adaptive quadrature of

    F(t) = E_V[ Phi(t sqrt(V/df) - ncp) ],   V/df ~ Gamma(df/2, rate=df/2),

  taken on whichever side, F or 1 - F, is the smaller.  On a sample of
  those entries it matches a 40-digit mpmath reference to 1e-17
  absolute.

Lower-tail CDF values far below machine epsilon come out as 0 rather
than with relative accuracy; power needs only the absolute value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

__all__ = ["t_cdf", "t_quantile", "noncentral_t_cdf", "noncentral_t_quantile"]


# Arguments go through np.float64, which turns array-likes into float
# arrays but keeps a scalar a numpy scalar: its arithmetic skips the ufunc
# dispatch a 0-d array pays, which is most of a scalar call's cost.


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def _df_ok(df):
    return (df > 0.0) & (df < math.inf)  # False for NaN as well


def _require(ok, message: str, **args) -> None:
    if not ok.all():
        got = ", ".join(f"{name}={value!r}" for name, value in args.items())
        raise ValueError(f"{message}, got {got}")


def t_cdf(x, df):
    """P(T <= x) for the central Student-t distribution."""
    x, df = np.float64(x), np.float64(df)
    _require(np.isfinite(x) & _df_ok(df),
             "x must be finite and df a positive finite real", x=x, df=df)
    return _scalar_or_array(special.stdtr(df, x))


def t_quantile(p, df):
    """Inverse of :func:`t_cdf`; antisymmetric around p = 1/2 by construction."""
    p, df = np.float64(p), np.float64(df)
    _require((p > 0.0) & (p < 1.0) & _df_ok(df),
             "p must lie strictly in (0, 1) and df be a positive finite real", p=p, df=df)
    # the upper quantile, negated below 1/2; stdtrit(df, 1/2) is exactly 0
    q = special.stdtrit(df, np.maximum(p, 1.0 - p))
    return _scalar_or_array(np.copysign(q, p - 0.5))


def noncentral_t_cdf(x, df, ncp):
    """P(T' <= x) for the noncentral t with noncentrality ``ncp``.

    Reduces exactly to :func:`t_cdf` at ncp = 0 and is nonincreasing in
    ncp for fixed x.
    """
    x, df, ncp = np.float64(x), np.float64(df), np.float64(ncp)
    _require(np.isfinite(x) & np.isfinite(ncp) & _df_ok(df),
             "x and ncp must be finite and df a positive finite real", x=x, df=df, ncp=ncp)
    # -T'(ncp) is distributed as T'(-ncp), so F(x; ncp) = 1 - F(-x; -ncp):
    # s = -1 moves x < 0 to the upper side (multiplying by -1 is exact).
    # At ncp = 0 nothing is moved: there nctdtr is stdtr, bit for bit.
    neg = (x < 0.0) & (ncp != 0.0)
    s = 1.0 - 2.0 * neg
    t, delta = s * x, s * ncp
    cdf = special.nctdtr(df, delta, t)
    if not np.isfinite(cdf).all():
        cdf = np.array(cdf)
        bad = ~np.isfinite(cdf)
        args = (a[bad] for a in np.broadcast_arrays(t, df, delta))
        cdf[bad] = [_nct_cdf_quadrature(*one) for one in zip(*args)]
    return _scalar_or_array(neg + s * cdf)  # 1 - cdf where x was moved


def _nct_cdf_quadrature(t: float, df: float, delta: float) -> float:
    """F(t) = int_0^inf Phi(t sqrt(u) - delta) g(u) du, u = V/df ~ Gamma(df/2, df/2)."""
    half = 0.5 * df
    log_norm = half * math.log(half) - float(special.gammaln(half))
    # Integrate whichever of F and 1 - F is the smaller (the side of the
    # normal argument at u = 1): log_norm carries an absolute error that
    # grows with df (5e-11 at df = 1e5), which is then relative to a
    # small integral instead of to one near 1.
    sign = -1.0 if t > delta else 1.0

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        log_g = log_norm + (half - 1.0) * math.log(u) - half * u
        return float(special.ndtr(sign * (t * math.sqrt(u) - delta))) * math.exp(log_g)

    # the Gamma weight has mean 1; split there for the infinite tail
    a, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400)
    c, _ = integrate.quad(integrand, 1.0, math.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    side = a + c
    return min(1.0, max(0.0, 1.0 - side if sign < 0.0 else side))


def noncentral_t_quantile(p, df, ncp):
    """Inverse of :func:`noncentral_t_cdf` in its first argument."""
    p, df, ncp = np.float64(p), np.float64(df), np.float64(ncp)
    _require((p > 0.0) & (p < 1.0) & _df_ok(df) & np.isfinite(ncp),
             "p must lie strictly in (0, 1), df be a positive finite real and "
             "ncp be finite", p=p, df=df, ncp=ncp)
    q = np.where(ncp == 0.0, t_quantile(p, df), special.nctdtrit(df, ncp, p))
    return _scalar_or_array(q)
