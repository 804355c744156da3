import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spotvar
from spotvar import OUParams, PriceSeries, VariationSeries, log_likelihood, simulate_path
from spotvar.errors import InvalidParams

MINUTE_MS = 60_000
EPOCH_MS = 1_504_224_000_000  # 2017-09-01 00:00 UTC
# the directory holding the spotvar package this process imported
SOURCE_ROOT = str(Path(spotvar.__file__).resolve().parents[1])


def child_env(env=None):
    """This process's environment updated with `env`, with SOURCE_ROOT first
    on PYTHONPATH as an absolute path: a child interpreter then imports the
    same `spotvar` as this process, whatever its working directory, and
    never an installed copy by accident."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = SOURCE_ROOT + os.pathsep + inherited if inherited else SOURCE_ROOT
    return full_env


def run_python(code, env=None):
    """Run `code` in a fresh interpreter under `child_env(env)`; returns its
    standard output, stripped. A non-zero exit fails the calling test."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env(env))
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def minute_grid(start_ms, n):
    return start_ms + MINUTE_MS * np.arange(n, dtype=np.int64)


def price_series(symbol, times, closes):
    return PriceSeries(symbol=symbol, times=np.asarray(times), closes=np.asarray(closes))


def fstring_rows(times, values):
    """The `time,value` rows as the CSV writer formatted them before
    `csvrows`, one f-string per row: the oracle its bytes must equal."""
    rows = zip(np.asarray(times).tolist(), np.asarray(values).tolist())
    return "".join([f"{t},{v!r}\n" for t, v in rows]).encode()


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


def whole_array_dot(a, b):
    """a @ b as the left-to-right sum of the BLAS dots of consecutive
    10,000-element slices of whole-length arrays: the reference core's dot."""
    total = float(a[:10_000] @ b[:10_000])
    for start in range(10_000, len(a), 10_000):
        total += float(a[start:start + 10_000] @ b[start:start + 10_000])
    return total


def whole_array_ar1_regression(series, variant):
    """The AR(1) core as it was before it worked slice by slice: the same
    floating-point expressions on whole-length arrays. Returns (n, delta,
    se_delta, intercept, rss); `ar1_regression` must give the same bits."""
    v = np.asarray(getattr(series, "values", series), dtype=np.float64)
    x, y = v[:-1], np.diff(v)
    n = len(y)
    k = {"a": 1, "b": 2, "c": 3}[variant.value]
    x_norm = math.sqrt(whole_array_dot(x, x))
    x_mean = y_mean = trend_term = 0.0
    if variant.value != "a":
        x_mean, y_mean = float(x.mean()), float(y.mean())
        x = x - x_mean
        y -= y_mean
    if variant.value == "c":
        trend = np.arange(n) - (n - 1) / 2
        trend_norm = math.sqrt(whole_array_dot(trend, trend))
        trend /= trend_norm
        tx, ty = whole_array_dot(trend, x), whole_array_dot(trend, y)
        x -= tx * trend
        y -= ty * trend
    xx = whole_array_dot(x, x)
    assert math.sqrt(xx) > n * np.finfo(np.float64).eps * x_norm
    delta = whole_array_dot(x, y) / xx
    y -= delta * x
    rss = whole_array_dot(y, y)
    if variant.value == "c":
        trend_term = (ty - delta * tx) / trend_norm * (n + 1) / 2
    intercept = y_mean - delta * x_mean - trend_term
    return n, delta, math.sqrt(rss / (n - k) / xx), intercept, rss


def stationary_variance(params: OUParams):
    return params.sigma**2 / (2 * params.alpha)


def conditional_moments(params: OUParams, v_t, horizon):
    """Mean and variance of v at `horizon` time units ahead, given v_t."""
    params.validate()
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    decay = math.exp(-params.alpha * horizon)
    mean = params.mu + (v_t - params.mu) * decay
    var = params.sigma**2 / (2 * params.alpha) * (1 - decay**2)
    return mean, var


def numeric_refine(series, start: OUParams, dt=1.0, fatol=1e-10, xatol=1e-12):
    """Derivative-free local maximization of the log-likelihood starting at
    `start`. Returns (OUParams, log-likelihood). Used to verify that the
    closed form is a stationary maximum."""
    from scipy.optimize import minimize

    v = np.asarray(getattr(series, "values", series), dtype=np.float64)

    def neg_ll(theta):
        mu, log_alpha, log_sigma = theta
        try:
            p = OUParams(alpha=math.exp(log_alpha), mu=mu, sigma=math.exp(log_sigma))
            return -log_likelihood(p, v, dt)
        except (InvalidParams, OverflowError):
            return math.inf

    x0 = np.array([start.mu, math.log(start.alpha), math.log(start.sigma)])
    res = minimize(
        neg_ll,
        x0,
        method="Nelder-Mead",
        options={"fatol": fatol, "xatol": xatol, "maxiter": 2000},
    )
    mu, log_alpha, log_sigma = res.x
    refined = OUParams(alpha=math.exp(log_alpha), mu=mu, sigma=math.exp(log_sigma))
    return refined, -res.fun


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
