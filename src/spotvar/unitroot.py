"""Dickey-Fuller unit-root tests, original (non-augmented) form.

Three regressions of the differenced series on its lag:
  (a) no constant       dY_t = delta * Y_{t-1} + e_t
  (b) constant          dY_t = c + delta * Y_{t-1} + e_t
  (c) constant + trend  dY_t = c + b*t + delta * Y_{t-1} + e_t

The tau statistic delta_hat / se(delta_hat) is compared one-sided against
the left-tail critical value; rejection on all three models is the
mean-reversion indicator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NumericalBreakdown, RankDeficient, SeriesTooShort
from .errors import UnsupportedLevel


class DFModel(enum.Enum):
    NO_CONST = "a"
    CONST = "b"
    CONST_TREND = "c"


# 1% left-tail critical values for the tau statistic, transcribed from the
# standard Dickey-Fuller tables (Fuller 1976, Table 8.5.2; originally
# Dickey 1976). Keyed by sample-size bucket; lookup is conservative (next
# smaller bucket). The last row is the asymptotic value, applied from
# n = 10_000 up.
_CRITICAL_1PCT = {
    DFModel.NO_CONST: [(25, -2.66), (50, -2.62), (100, -2.60), (250, -2.58), (500, -2.58), (10_000, -2.58)],
    DFModel.CONST: [(25, -3.75), (50, -3.58), (100, -3.51), (250, -3.46), (500, -3.44), (10_000, -3.43)],
    DFModel.CONST_TREND: [(25, -4.38), (50, -4.15), (100, -4.04), (250, -3.99), (500, -3.98), (10_000, -3.96)],
}


# OpenBLAS runs a `ddot` on its thread pool only above this many elements
_DOT_SLICE = 10_000


def _dot(a, b):
    """a @ b for 1-d float64 arrays, as the left-to-right sum of the BLAS dots
    of consecutive slices of at most _DOT_SLICE elements.

    No slice wakes OpenBLAS's thread pool, so the result does not depend on
    the BLAS thread count (the threaded kernel sums per-thread partial dots),
    and a Monte Carlo worker uses one core. Up to _DOT_SLICE elements this is
    exactly the one call `a @ b`.
    """
    total = float(a[:_DOT_SLICE] @ b[:_DOT_SLICE])
    for start in range(_DOT_SLICE, len(a), _DOT_SLICE):
        stop = start + _DOT_SLICE
        total += float(a[start:stop] @ b[start:stop])
    return total


@dataclass(frozen=True)
class DFResult:
    variant: DFModel
    delta_hat: float
    se_delta: float
    tau: float
    critical_value_1pct: float
    reject_null: bool
    n_used: int


@dataclass(frozen=True)
class AR1Fit:
    """One AR(1) regression: n rows, the lag coefficient delta and its
    standard error (from the unbiased rss / (n - regressors)), the constant
    term (0.0 under model (a)) and the residual sum of squares."""

    n: int
    delta: float
    se_delta: float
    intercept: float
    rss: float


def ar1_regression(series, variant: DFModel) -> AR1Fit:
    """Least-squares regression of dY_t on Y_{t-1} plus the deterministic
    terms of `variant`: the one core behind every Dickey-Fuller model and
    the OU fit.

    A constant is removed by centering the response and the lag on their
    own means (Frisch-Waugh), a trend by projecting both off the centered,
    unit-norm trend: a QR on unit-norm columns. Its diagonal entry for the
    lag, ||lag residual|| / ||lag||, decides the rank, so the decision does
    not depend on the units of the series or on the length of the trend.
    Raises InsufficientData when rows <= regressors and RankDeficient when
    the lag is numerically a deterministic term.

    Works in place on the two arrays it allocates, the difference and the
    centered lag; the input series is never written.
    """
    v = np.asarray(getattr(series, "values", series), dtype=np.float64)
    x, y = v[:-1], np.diff(v)
    n = len(y)
    k = {DFModel.NO_CONST: 1, DFModel.CONST: 2, DFModel.CONST_TREND: 3}[variant]
    if n < k + 1:
        raise InsufficientData(f"{n} rows for {k} regressors")
    x_norm = math.sqrt(_dot(x, x))
    x_mean = y_mean = trend_term = 0.0
    if variant is not DFModel.NO_CONST:
        x_mean, y_mean = float(x.mean()), float(y.mean())
        x = x - x_mean  # from here on x is ours, no longer a view of v
        y -= y_mean
    if variant is DFModel.CONST_TREND:
        trend = np.arange(n) - (n - 1) / 2  # t = 1..n, centered
        trend_norm = math.sqrt(_dot(trend, trend))
        trend /= trend_norm
        tx, ty = _dot(trend, x), _dot(trend, y)
        x -= tx * trend
        y -= ty * trend
    xx = _dot(x, x)
    if not math.sqrt(xx) > n * np.finfo(np.float64).eps * x_norm:  # nan fails too
        raise RankDeficient("lag is collinear with the deterministic terms")
    delta = _dot(x, y) / xx
    # the residual y - delta * x, built in y; model (a)'s x is the caller's
    if variant is DFModel.NO_CONST:
        x = delta * x
    else:
        x *= delta
    y -= x
    rss = _dot(y, y)
    if variant is DFModel.CONST_TREND:
        # trend coefficient times the mean of t, to refer the constant to t = 0
        trend_term = (ty - delta * tx) / trend_norm * (n + 1) / 2
    intercept = y_mean - delta * x_mean - trend_term
    return AR1Fit(n, delta, math.sqrt(rss / (n - k) / xx), intercept, rss)


def critical_value(variant: DFModel, n, level=0.01):
    """Tabulated 1% tau critical value at the largest bucket <= n."""
    if level != 0.01:
        raise UnsupportedLevel(f"only the 1% level is tabulated, got {level}")
    table = _CRITICAL_1PCT[variant]
    chosen = table[0][1]
    for bucket, cv in table:
        if n >= bucket:
            chosen = cv
    return chosen


def df_test(series, variant: DFModel, alpha_level=0.01) -> DFResult:
    """Run one Dickey-Fuller regression and the 1% decision.

    `series` is a VariationSeries or a plain value sequence.
    """
    if len(series) < 25:
        raise SeriesTooShort(f"need >= 25 observations, got {len(series)}")
    fit = ar1_regression(series, variant)
    if not fit.se_delta > 0:
        raise NumericalBreakdown(f"model ({variant.value}) fits exactly: se(delta) is 0")
    tau = fit.delta / fit.se_delta
    cv = critical_value(variant, fit.n, alpha_level)
    return DFResult(
        variant=variant,
        delta_hat=fit.delta,
        se_delta=fit.se_delta,
        tau=tau,
        critical_value_1pct=cv,
        reject_null=tau < cv,
        n_used=fit.n,
    )
