import numpy as np
import pytest

from spotvar import (
    McConfig,
    McSamples,
    OUParams,
    confidence_intervals,
    mle_fit,
    sampling_distribution,
    simulate_path,
)
from spotvar.errors import InsufficientReplications, TooManyFailures
from spotvar import montecarlo
from spotvar.parallel import fork_pool

from conftest import fail_one_refit

FITTED = OUParams(0.845728, -2.424382e-05, 0.001703)


def _samples(vec):
    arr = np.asarray(vec, dtype=float)
    return McSamples(alpha=arr, mu=arr, sigma=arr, n_failed=0)


class TestSamplingDistribution:
    def test_deterministic_at_minimal_size(self):
        cfg = McConfig(replications=2, path_length=10, master_seed=99)
        a = sampling_distribution(FITTED, cfg)
        b = sampling_distribution(FITTED, cfg)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.sigma, b.sigma)
        assert len(a.alpha) == 2

    def test_worker_count_does_not_change_result(self):
        cfg = McConfig(replications=8, path_length=500, master_seed=7)
        seq = sampling_distribution(FITTED, cfg)
        with fork_pool(2) as pool:
            par = sampling_distribution(FITTED, cfg, pool=pool)
        assert np.array_equal(seq.alpha, par.alpha)
        assert np.array_equal(seq.mu, par.mu)
        assert np.array_equal(seq.sigma, par.sigma)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_give_each_seed_its_fresh_replication(self, workers):
        """Replications share a path buffer per chunk of seeds; each still
        equals a fresh simulate-and-refit of its own seed, in seed order,
        across a partial last chunk."""
        cfg = McConfig(replications=11, path_length=400, master_seed=5, initial_value=1e-4)
        with fork_pool(workers) as pool:
            samples = sampling_distribution(FITTED, cfg, pool=pool)
        fresh = []
        for seed in np.random.SeedSequence(5).spawn(11):
            params, _, _ = mle_fit(simulate_path(FITTED, 1e-4, 400, 1.0, rng_seed=seed))
            fresh.append((params.alpha, params.mu, params.sigma))
        assert np.array_equal(np.column_stack([samples.alpha, samples.mu, samples.sigma]),
                              np.array(fresh))

    def test_low_noise_concentration(self):
        fitted = OUParams(0.5, -2e-5, 1e-8)
        cfg = McConfig(replications=20, path_length=1000, master_seed=1)
        samples = sampling_distribution(fitted, cfg)
        assert np.all(np.abs(samples.mu - fitted.mu) < 1e-6)

    def test_too_many_failures(self, monkeypatch):
        from spotvar.errors import DegenerateSeries

        def always_fail(series, dt):
            raise DegenerateSeries("forced")

        monkeypatch.setattr(montecarlo, "mle_fit", always_fail)
        cfg = McConfig(replications=5, path_length=100, master_seed=2)
        with pytest.raises(TooManyFailures):
            sampling_distribution(FITTED, cfg)

    def test_one_failure_in_100_is_tolerated(self, monkeypatch):
        """A refit that raises for one seed of 100 is under the 1% limit: it
        is counted, and the other 99 estimates are those of a run where it
        does not raise, in seed order."""
        cfg = McConfig(replications=100, path_length=300, master_seed=4)
        clean = sampling_distribution(FITTED, cfg)
        fail_one_refit(monkeypatch, 36)
        samples = sampling_distribution(FITTED, cfg)
        assert samples.n_failed == 1
        for name in ("alpha", "mu", "sigma"):
            assert np.array_equal(getattr(samples, name), np.delete(getattr(clean, name), 36))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(replications=1)
        with pytest.raises(ValueError):
            McConfig(confidence=1.0)
        with pytest.raises(ValueError):
            McConfig(path_length=2)


class TestConfidenceIntervals:
    def test_sort_based_quantile_oracle_1_to_100(self):
        lower, upper = confidence_intervals(_samples(range(1, 101)), 0.90)["alpha"]
        assert lower == pytest.approx(5.95, abs=1e-12)
        assert upper == pytest.approx(95.05, abs=1e-12)

    def test_degenerate_distribution(self):
        assert confidence_intervals(_samples([3.0] * 10), 0.90)["mu"] == (3.0, 3.0)

    def test_lower_le_upper(self):
        rng = np.random.default_rng(5)
        bounds = confidence_intervals(_samples(rng.normal(size=51)), 0.5)
        assert list(bounds) == ["alpha", "mu", "sigma"]
        for lower, upper in bounds.values():
            assert lower <= upper

    def test_insufficient_replications(self):
        with pytest.raises(InsufficientReplications):
            confidence_intervals(_samples([1.0]), 0.9)


def test_ci_width_shrinks_with_path_length():
    widths = []
    for n in (10_000, 100_000):
        cfg = McConfig(replications=100, path_length=n, master_seed=3)
        samples = sampling_distribution(FITTED, cfg)
        lower, upper = confidence_intervals(samples, 0.90)["alpha"]
        widths.append(upper - lower)
    assert widths[0] > widths[1]
