import math
from fractions import Fraction

import numpy as np
import pytest

from spotvar import OUParams, PriceSeries, VariationSeries, simulate_path

MINUTE_MS = 60_000
EPOCH_MS = 1_504_224_000_000  # 2017-09-01 00:00 UTC


def minute_grid(start_ms, n):
    return start_ms + MINUTE_MS * np.arange(n, dtype=np.int64)


def price_series(symbol, times, closes):
    return PriceSeries(symbol=symbol, times=np.asarray(times), closes=np.asarray(closes))


def quantile_oracle(values, q):
    """Sort-based brute-force quantile with linear interpolation between
    closest order statistics (midpoint-symmetric lerp)."""
    s = sorted(float(v) for v in values)
    n = len(s)
    h = (n - 1) * (q / 100.0)
    lo, hi = math.floor(h), math.ceil(h)
    t = h - lo
    a, b = s[lo], s[hi]
    r = a + (b - a) * t
    if t >= 0.5:
        r = b - (b - a) * (1 - t)
    return r


def exact_ar1_regression(values, model):
    """Exact rational least squares of dY_t on Y_{t-1} plus the deterministic
    terms of Dickey-Fuller `model` ("a", "b" or "c"), by Gauss-Jordan
    elimination on the normal equations. Returns (n, delta, se_delta^2,
    intercept, rss) as Fractions; the float inputs are taken exactly."""
    v = [Fraction(float(a)) for a in values]
    y = [b - a for a, b in zip(v, v[1:])]
    n = len(y)
    cols = [v[:-1]]
    if model in ("b", "c"):
        cols.append([Fraction(1)] * n)
    if model == "c":
        cols.append([Fraction(t) for t in range(1, n + 1)])
    k = len(cols)
    xtx = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]
    xty = [sum(a * b for a, b in zip(ci, y)) for ci in cols]
    # [X'X | X'y | e_0]: solving for both columns gives beta and (X'X)^-1_00
    rows = [xtx[i] + [xty[i], Fraction(i == 0)] for i in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [a / rows[c][c] for a in rows[c]]
        for r in range(k):
            if r != c:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    beta = [row[k] for row in rows]
    rss = sum(a * a for a in y) - sum(b * c for b, c in zip(beta, xty))
    se2 = rss / (n - k) * rows[0][k + 1]
    return n, beta[0], se2, beta[1] if k > 1 else Fraction(0), rss


@pytest.fixture
def ou_legs():
    """Three synthetic price legs (spot/num/den) on a 1000-minute grid whose
    variation is a known OU path."""
    params = OUParams(alpha=0.8, mu=-2e-5, sigma=0.0017)
    n = 1000
    v = simulate_path(params, 0.0, n - 1, 1.0, rng_seed=7)
    rng = np.random.default_rng(11)
    btc = 30_000.0 * np.exp(np.cumsum(rng.normal(0, 1e-3, n)))
    eth_over_btc = 0.07 * np.exp(np.cumsum(rng.normal(0, 1e-3, n)))
    eth = eth_over_btc * btc
    spot = eth_over_btc * np.exp(v)
    times = minute_grid(EPOCH_MS, n)
    return (
        price_series("ETHBTC", times, spot),
        price_series("ETHUSDT", times, eth),
        price_series("BTCUSDT", times, btc),
        VariationSeries(times, v),
        params,
    )


@pytest.fixture
def legs_dir(tmp_path, ou_legs):
    spot, num, den, _, _ = ou_legs
    paths = {}
    for leg, series in (("spot", spot), ("num", num), ("den", den)):
        p = tmp_path / f"{leg}.csv"
        series.to_csv(p)
        paths[leg] = p
    return tmp_path, paths
