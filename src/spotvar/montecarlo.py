"""Parametric Monte Carlo sampling distribution and percentile intervals.

Each replication simulates a fresh path from the fitted parameters and
refits; the empirical quantiles of the refitted parameters give the
confidence bounds. Per-replication seeds are spawned from the master seed
(numpy SeedSequence), so any replication is reproducible in isolation and
the result is independent of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InsufficientReplications, InvalidArgument, SpotvarError, TooManyFailures
from .ou import OUParams, mle_fit, simulate_path
from .parallel import pool_map


@dataclass(frozen=True)
class McConfig:
    replications: int = 1000
    path_length: int = 2_000_000
    dt: float = 1.0
    confidence: float = 0.90
    master_seed: int = 0
    initial_value: float | None = None  # None -> start at the fitted mean

    def __post_init__(self):
        if self.replications < 2:
            raise InvalidArgument(f"replications must be >= 2, got {self.replications}")
        if self.path_length < 3:
            raise InvalidArgument(f"path_length must be >= 3, got {self.path_length}")
        if not 0 < self.confidence < 1:
            raise InvalidArgument(f"confidence must lie in (0, 1), got {self.confidence}")


@dataclass(frozen=True)
class McSamples:
    """Per-parameter estimate vectors across replications, in seed order
    (failures excluded), and the number of replications that failed."""

    alpha: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    n_failed: int


# seeds per pool job; each job reuses one path buffer for all of them
_CHUNK = 8


def _replications(fitted, cfg, seeds):
    """Simulate and refit one replication per seed, all through one path
    buffer. Returns (alpha, mu, sigma) per seed, or None where the refit
    raised a SpotvarError."""
    v0 = cfg.initial_value if cfg.initial_value is not None else fitted.mu
    path = np.empty(cfg.path_length + 1)
    results = []
    for seed in seeds:
        simulate_path(fitted, v0, cfg.path_length, cfg.dt, rng_seed=seed, out=path)
        try:
            params, _, _ = mle_fit(path, cfg.dt)
        except SpotvarError:
            results.append(None)
            continue
        results.append((params.alpha, params.mu, params.sigma))
    return results


def sampling_distribution(fitted: OUParams, cfg: McConfig, pool=None) -> McSamples:
    """Simulate-and-refit replications; errors are excluded and counted.
    They run on `pool` if given, else in this process.

    Raises TooManyFailures if more than 1% of replications error out.
    """
    fitted.validate()
    seeds = np.random.SeedSequence(cfg.master_seed).spawn(cfg.replications)
    chunks = [seeds[i:i + _CHUNK] for i in range(0, len(seeds), _CHUNK)]
    job = partial(_replications, fitted, cfg)
    # chunks come back in order, so results are in seed order at any worker count
    results = [r for chunk in pool_map(pool, job, chunks) for r in chunk]

    ok = [r for r in results if r is not None]
    n_failed = cfg.replications - len(ok)
    if n_failed > 0.01 * cfg.replications:
        raise TooManyFailures(
            f"{n_failed}/{cfg.replications} replications failed to fit"
        )
    alpha, mu, sigma = np.array(ok).T
    return McSamples(alpha, mu, sigma, n_failed)


def confidence_intervals(samples: McSamples, confidence) -> dict:
    """Percentile-method bounds {"alpha": (lower, upper), "mu": ..., "sigma":
    ...}: the empirical quantiles at (1-c)/2 and (1+c)/2 (linear interpolation,
    as in the summary tables). lower <= upper always holds; the bounds need
    not bracket the point estimate."""
    lo_q = 100 * (1 - confidence) / 2
    hi_q = 100 * (1 + confidence) / 2
    bounds = {}
    for name in ("alpha", "mu", "sigma"):
        vec = getattr(samples, name)
        if len(vec) < 2:
            raise InsufficientReplications(f"{name}: need >= 2 estimates")
        lower = float(np.percentile(vec, lo_q, method="linear"))
        upper = float(np.percentile(vec, hi_q, method="linear"))
        bounds[name] = (lower, upper)
    return bounds
