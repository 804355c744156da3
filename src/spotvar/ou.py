"""Ornstein-Uhlenbeck process: moments, exact simulation, closed-form MLE.

The process dv = alpha*(mu - v)dt + sigma*dW has Gaussian transitions
  v_{t+h} | v_t ~ N(mu + (v_t - mu)*exp(-alpha*h),
                    sigma^2 * (1 - exp(-2*alpha*h)) / (2*alpha)),
which gives both an exact simulator (no Euler error) and a closed-form
maximum-likelihood estimator: with omega = exp(-alpha*h), v_{t+h} on v_t is
a Gaussian AR(1), so the MLE is the least-squares regression of
Dickey-Fuller model (b), computed by the shared core in `unitroot`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import (
    DegenerateSeries,
    InvalidParams,
    NonMeanReverting,
    NumericalBreakdown,
    RankDeficient,
    SeriesTooShort,
)
from .unitroot import DFModel, ar1_regression


@dataclass(frozen=True)
class OUParams:
    """alpha: reversion speed (per time unit); mu: long-term mean;
    sigma: diffusion scale (per sqrt time unit)."""

    alpha: float
    mu: float
    sigma: float

    def validate(self):
        if not (self.alpha > 0 and self.sigma > 0 and math.isfinite(self.mu)):
            raise InvalidParams(
                f"require alpha > 0, sigma > 0, mu finite; got {self}"
            )

    def stationary_variance(self):
        return self.sigma**2 / (2 * self.alpha)


@dataclass(frozen=True)
class TransitionParams:
    """One-step transition law: omega = exp(-alpha*dt) and the conditional
    standard deviation cond_sd with cond_sd^2 = sigma^2*(1-omega^2)/(2*alpha)."""

    omega: float
    cond_sd: float

    def validate(self):
        if not (0 < self.omega < 1 and self.cond_sd > 0):
            raise InvalidParams(f"require 0 < omega < 1 and cond_sd > 0; got {self}")


def transition_params(params: OUParams, dt=1.0) -> TransitionParams:
    params.validate()
    omega = math.exp(-params.alpha * dt)
    cond_var = params.sigma**2 * (1 - omega**2) / (2 * params.alpha)
    return TransitionParams(omega=omega, cond_sd=math.sqrt(cond_var))


def conditional_moments(params: OUParams, v_t, horizon):
    """Mean and variance of v at `horizon` time units ahead, given v_t."""
    params.validate()
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    decay = math.exp(-params.alpha * horizon)
    mean = params.mu + (v_t - params.mu) * decay
    var = params.sigma**2 / (2 * params.alpha) * (1 - decay**2)
    return mean, var


def simulate_path(params: OUParams, v0, n_steps, dt=1.0, rng_seed=0):
    """Exact-transition simulation; returns the path including v0
    (length n_steps + 1). Deterministic given rng_seed."""
    params.validate()
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    tp = transition_params(params, dt)
    rng = np.random.default_rng(rng_seed)
    shocks = tp.cond_sd * rng.standard_normal(n_steps)
    # v - mu is an AR(1) with coefficient omega; lfilter runs the recursion
    # v_k - mu = omega * (v_{k-1} - mu) + shock_k in C.
    x, _ = lfilter([1.0], [1.0, -tp.omega], shocks, zi=[tp.omega * (v0 - params.mu)])
    out = np.empty(n_steps + 1)
    out[0] = v0
    out[1:] = x + params.mu
    return out


def log_likelihood(params: OUParams, series, dt=1.0):
    """Exact transition log-likelihood of the observed path under params."""
    params.validate()
    v = np.asarray(getattr(series, "values", series), dtype=np.float64)
    if len(v) < 2:
        raise SeriesTooShort("need >= 2 observations")
    tp = transition_params(params, dt)
    return _log_likelihood_trans(params.mu, tp.omega, tp.cond_sd, v)


def _log_likelihood_trans(mu, omega, cond_sd, v):
    n = len(v) - 1
    resid = v[1:] - mu - (v[:-1] - mu) * omega
    ss = float(resid @ resid)
    return -0.5 * n * math.log(2 * math.pi) - n * math.log(cond_sd) - ss / (2 * cond_sd**2)


def mle_fit(series, dt=1.0):
    """Closed-form maximum-likelihood fit.

    The exact transition law makes dv_t = c + delta*v_{t-1} + e_t a Gaussian
    regression, so the MLE is the least-squares fit of Dickey-Fuller model
    (b): omega = 1 + delta, mu = -c/delta, conditional variance RSS/n.
    Returns (OUParams, TransitionParams, AR1Fit).

    Raises SeriesTooShort below 4 observations, DegenerateSeries on
    constant input, NonMeanReverting when omega >= 1 (alpha <= 0, i.e. the
    data looks like a random walk), NumericalBreakdown when omega <= 0, the
    conditional variance is non-positive or the lag is numerically constant.
    """
    v = np.asarray(getattr(series, "values", series), dtype=np.float64)
    if len(v) < 4:
        raise SeriesTooShort(f"need >= 4 observations, got {len(v)}")
    if np.ptp(v) == 0:
        raise DegenerateSeries("constant series has no OU fit")
    try:
        reg = ar1_regression(v, DFModel.CONST)
    except RankDeficient as exc:
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
    tp = TransitionParams(omega=omega, cond_sd=math.sqrt(cond_var))
    tp.validate()
    return params, tp, reg


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
