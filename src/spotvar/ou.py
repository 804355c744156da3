"""Ornstein-Uhlenbeck process: transition law, exact simulation, closed-form MLE.

The process dv = alpha*(mu - v)dt + sigma*dW has Gaussian transitions
  v_{t+h} | v_t ~ N(mu + (v_t - mu)*exp(-alpha*h),
                    sigma^2 * (1 - exp(-2*alpha*h)) / (2*alpha)),
which gives both an exact simulator (no Euler error) and a closed-form
maximum-likelihood estimator: with omega = exp(-alpha*h), v_{t+h} on v_t is
a Gaussian AR(1), so the MLE is the least-squares regression of
Dickey-Fuller model (b), computed by the shared core in `unitroot`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeries,
    InvalidArgument,
    InvalidParams,
    NonMeanReverting,
    NumericalBreakdown,
    RankDeficient,
    SeriesTooShort,
)
from .unitroot import _DOT_SLICE, DFModel, _slice_sums, ar1_regression


@dataclass(frozen=True)
class OUParams:
    """alpha: reversion speed (per time unit); mu: long-term mean;
    sigma: diffusion scale (per sqrt time unit)."""

    alpha: float
    mu: float
    sigma: float

    def validate(self):
        if not (0 < self.alpha < math.inf and 0 < self.sigma < math.inf
                and math.isfinite(self.mu)):
            raise InvalidParams(
                f"require finite alpha > 0, sigma > 0 and mu; got {self}"
            )


@dataclass(frozen=True)
class TransitionParams:
    """One-step transition law: omega = exp(-alpha*dt) and the conditional
    standard deviation cond_sd with cond_sd^2 = sigma^2*(1-omega^2)/(2*alpha)."""

    omega: float
    cond_sd: float


def transition_params(params: OUParams, dt=1.0) -> TransitionParams:
    """The law of one step of `dt`; `params` must have passed `validate`.
    Raises NumericalBreakdown when the conditional variance overflows."""
    omega = math.exp(-params.alpha * dt)
    try:
        cond_var = params.sigma**2 * (1 - omega**2) / (2 * params.alpha)
    except OverflowError:  # sigma**2 beyond the largest float
        cond_var = math.inf
    if not math.isfinite(cond_var):
        raise NumericalBreakdown(f"conditional variance overflows: {params}, dt={dt}")
    return TransitionParams(omega=omega, cond_sd=math.sqrt(cond_var))


@functools.cache
def _linear_filter():
    """The compiled filter core that `scipy.signal.lfilter` calls for float64
    input, loaded from its extension file in milliseconds, where
    `import scipy.signal` takes over a second."""
    import importlib.machinery
    import importlib.util
    from pathlib import Path

    import scipy

    folder = Path(scipy.__file__).parent / "signal"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_sigtools{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.signal._sigtools", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if hasattr(module, "_linear_filter"):
                return module._linear_filter
            break
    raise ImportError(
        f"no _sigtools extension with _linear_filter in {folder} (scipy {scipy.__version__})"
    )


def simulate_path(params: OUParams, v0, n_steps, dt=1.0, rng_seed=0, out=None):
    """Exact-transition simulation; returns the path including v0
    (length n_steps + 1). Deterministic given rng_seed.

    With `out`, a contiguous float64 array of length n_steps + 1, the path is
    written into it and `out` is returned: a Monte Carlo loop reuses one
    buffer for every path, with the same values as a fresh one."""
    params.validate()
    if n_steps < 1:
        raise InvalidArgument(f"n_steps must be >= 1, got {n_steps}")
    if not dt > 0:
        raise InvalidArgument(f"dt must be > 0, got {dt}")
    if not math.isfinite(v0):
        raise InvalidArgument(f"v0 must be finite, got {v0}")
    if out is None:
        out = np.empty(n_steps + 1)
    elif not (isinstance(out, np.ndarray) and out.shape == (n_steps + 1,)
              and out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable):
        raise InvalidArgument(
            f"out must be a writable contiguous float64 array of length {n_steps + 1}"
        )
    tp = transition_params(params, dt)
    rng = np.random.default_rng(rng_seed)
    linear_filter, b, a = _linear_filter(), np.array([1.0]), np.array([1.0, -tp.omega])
    state = np.array([tp.omega * (v0 - params.mu)])
    # v - mu is an AR(1) with coefficient omega; lfilter's core runs the
    # recursion v_k - mu = omega * (v_{k-1} - mu) + shock_k in C. The tail
    # of `out` is drawn, scaled, filtered and shifted one slice at a time;
    # the generator's stream and the carried filter state make the slices
    # one path, the same as one whole-length call.
    for start in range(1, n_steps + 1, _DOT_SLICE):
        shocks = out[start:start + _DOT_SLICE]
        rng.standard_normal(out=shocks)
        shocks *= tp.cond_sd
        x, state = linear_filter(b, a, shocks, -1, state)
        np.add(x, params.mu, out=shocks)
    out[0] = v0
    return out


def log_likelihood(params: OUParams, series, dt=1.0):
    """Exact transition log-likelihood of the observed path under params;
    NumericalBreakdown when the conditional variance underflows to 0."""
    params.validate()
    v = np.asarray(getattr(series, "values", series), dtype=np.float64)
    if len(v) < 2:
        raise SeriesTooShort("need >= 2 observations")
    tp = transition_params(params, dt)
    if not tp.cond_sd > 0:
        raise NumericalBreakdown(f"conditional variance underflows to 0: {params}, dt={dt}")
    n = len(v) - 1

    def residual_square(start, stop):
        resid = v[start + 1:stop + 1] - params.mu - (v[start:stop] - params.mu) * tp.omega
        return [float(resid @ resid)]

    (ss,) = _slice_sums(n, residual_square)
    return -0.5 * n * math.log(2 * math.pi) - n * math.log(tp.cond_sd) - ss / (2 * tp.cond_sd**2)


def mle_fit(series, dt=1.0):
    """Closed-form maximum-likelihood fit.

    The exact transition law makes dv_t = c + delta*v_{t-1} + e_t a Gaussian
    regression, so the MLE is the least-squares fit of Dickey-Fuller model
    (b): omega = 1 + delta, mu = -c/delta, conditional variance RSS/n.
    Returns (OUParams, TransitionParams, AR1Fit).

    Raises InvalidArgument unless dt > 0, SeriesTooShort below 4
    observations, DegenerateSeries on constant input, NonMeanReverting when
    omega >= 1 (alpha <= 0, i.e. the data looks like a random walk),
    NumericalBreakdown when omega <= 0, the conditional variance is
    non-positive or the lag is numerically constant.
    """
    if not dt > 0:
        raise InvalidArgument(f"dt must be > 0, got {dt}")
    v = np.asarray(getattr(series, "values", series), dtype=np.float64)
    if len(v) < 4:
        raise SeriesTooShort(f"need >= 4 observations, got {len(v)}")
    try:
        reg = ar1_regression(v, DFModel.CONST)
    except RankDeficient as exc:
        # a constant series is rank-deficient, so only a failed fit pays
        # for the pass over the series that tells it apart
        if np.ptp(v) == 0:
            raise DegenerateSeries("constant series has no OU fit") from None
        raise NumericalBreakdown(f"lag is numerically constant: {exc}") from exc
    omega = 1 + reg.delta
    if omega >= 1:
        raise NonMeanReverting(f"implied AR coefficient {omega} >= 1")
    if not omega > 0:
        raise NumericalBreakdown(f"implied AR coefficient {omega} <= 0")
    cond_var = reg.rss / reg.n
    if not cond_var > 0:
        raise NumericalBreakdown("non-positive conditional variance")
    alpha = -math.log1p(reg.delta) / dt
    # 1 - omega^2 = -delta*(2 + delta), which does not cancel near omega = 1
    sigma2 = cond_var * 2 * alpha / (-reg.delta * (2 + reg.delta))

    params = OUParams(alpha=alpha, mu=-reg.intercept / reg.delta, sigma=math.sqrt(sigma2))
    params.validate()
    return params, TransitionParams(omega=omega, cond_sd=math.sqrt(cond_var)), reg
