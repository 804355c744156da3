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


# OpenBLAS runs a `ddot` on its thread pool only above this many elements;
# the AR(1) core and the OU simulator work through a series in slices of
# this many rows, so each slice's scratch stays in cache
_DOT_SLICE = 10_000


def _slice_sums(n, sums):
    """The totals of the lists of floats `sums(start, stop)` over the
    consecutive slices of at most _DOT_SLICE of rows 0..n, each total added
    left to right.

    With one BLAS dot per total and slice, no dot wakes OpenBLAS's thread
    pool, so a total does not depend on the BLAS thread count (the threaded
    kernel adds per-thread partial dots), and a Monte Carlo worker uses one
    core. Up to _DOT_SLICE rows a total is exactly its one slice's value.
    """
    totals = sums(0, min(n, _DOT_SLICE))
    for start in range(_DOT_SLICE, n, _DOT_SLICE):
        totals = [a + b for a, b in zip(totals, sums(start, min(n, start + _DOT_SLICE)))]
    return totals


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


def _pairwise_sum(rows, n, start=0):
    """The sum of the n values from `start` that `rows(start, stop)` returns
    slice by slice, with the bits of `np.add.reduce` on all n at once.
    numpy adds a contiguous float64 array along a fixed pairwise tree
    (`pairwise_sum` in its `loops_utils.h.src`), splitting n at n // 2
    rounded down to a multiple of 8; a subtree's sum depends only on its
    own values. Here the split stops at subtrees of at most _DOT_SLICE
    rows, and `np.add.reduce` adds each along the same tree from there."""
    if n <= _DOT_SLICE:
        return float(np.add.reduce(rows(start, start + n)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(rows, half, start) + _pairwise_sum(rows, n - half, start + half)


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

    The core allocates only slice scratch: each pass forms its slice of the
    lag and of the difference anew. Every sum of products runs through
    `_slice_sums`, and each slice is centered and projected with the
    floating-point operations of the whole-array form. The difference's
    mean keeps the bits of `np.diff(v).mean()`: `_pairwise_sum` adds the
    slices along numpy's own summation tree. The input series is never
    written.
    """
    v = np.asarray(getattr(series, "values", series), dtype=np.float64)
    n = len(v) - 1
    k = {DFModel.NO_CONST: 1, DFModel.CONST: 2, DFModel.CONST_TREND: 3}[variant]
    if n < k + 1:
        raise InsufficientData(f"{n} rows for {k} regressors")
    x_mean = y_mean = trend_term = 0.0
    norm = tx = ty = None  # the trend's norm and its dots with the centered rows

    def rows(start, stop, projected=True):
        """Rows start..stop of the lag and the difference, each less its
        mean (model (a)'s means are 0.0, and x - 0.0 is x), and of the
        unit-norm trend (None but under model (c)), in new arrays; the lag
        and the difference projected off the trend when `projected`."""
        x = v[start:stop] - x_mean
        dy = v[start + 1:stop + 1] - v[start:stop]
        dy -= y_mean
        t = None if norm is None else (steps[:stop - start] + (start - half)) / norm
        if projected and t is not None:
            x -= tx * t
            dy -= ty * t
        return x, t, dy

    if variant is not DFModel.NO_CONST:
        x_mean = float(v[:-1].mean())
        # divided as np.mean divides
        y_mean = _pairwise_sum(lambda start, stop: v[start + 1:stop + 1] - v[start:stop], n) / n

    if variant is DFModel.CONST_TREND:
        # rows start..stop of the centered trend t - (n + 1) / 2, t = 1..n,
        # are steps[:stop - start] + (start - half), exactly: each value is
        # a multiple of 1/2 below 2**52
        steps, half = np.arange(float(min(n, _DOT_SLICE))), (n - 1) / 2

        def trend_square(start, stop):
            t = steps[:stop - start] + (start - half)
            return [float(t @ t)]

        def trend_dots(start, stop):
            x, t, dy = rows(start, stop, projected=False)
            return [float(t @ x), float(t @ dy)]

        norm = math.sqrt(_slice_sums(n, trend_square)[0])
        tx, ty = _slice_sums(n, trend_dots)

    def normal_equations(start, stop):
        raw = v[start:stop]
        x, _, dy = rows(start, stop)
        return [float(raw @ raw), float(x @ x), float(x @ dy)]

    x_square, xx, xy = _slice_sums(n, normal_equations)
    if not math.sqrt(xx) > n * np.finfo(np.float64).eps * math.sqrt(x_square):  # nan fails too
        raise RankDeficient("lag is collinear with the deterministic terms")
    delta = xy / xx

    def residual_square(start, stop):
        x, _, dy = rows(start, stop)
        x *= delta
        np.subtract(dy, x, out=x)  # the residual, in the lag's array
        return [float(x @ x)]

    (rss,) = _slice_sums(n, residual_square)
    if variant is DFModel.CONST_TREND:
        # trend coefficient times the mean of t, to refer the constant to t = 0
        trend_term = (ty - delta * tx) / norm * (n + 1) / 2
    intercept = y_mean - delta * x_mean - trend_term
    return AR1Fit(n, delta, math.sqrt(rss / (n - k) / xx), intercept, rss)


def critical_value(variant: DFModel, n):
    """Tabulated 1% tau critical value at the largest bucket <= n."""
    table = _CRITICAL_1PCT[variant]
    return next((cv for bucket, cv in reversed(table) if n >= bucket), table[0][1])


def df_test(series, variant: DFModel) -> DFResult:
    """Run one Dickey-Fuller regression and the 1% decision.

    `series` is a VariationSeries or a plain value sequence.
    """
    if len(series) < 25:
        raise SeriesTooShort(f"need >= 25 observations, got {len(series)}")
    fit = ar1_regression(series, variant)
    if not fit.se_delta > 0:
        raise NumericalBreakdown(f"model ({variant.value}) fits exactly: se(delta) is 0")
    tau = fit.delta / fit.se_delta
    cv = critical_value(variant, fit.n)
    return DFResult(
        variant=variant,
        delta_hat=fit.delta,
        se_delta=fit.se_delta,
        tau=tau,
        critical_value_1pct=cv,
        reject_null=tau < cv,
        n_used=fit.n,
    )
