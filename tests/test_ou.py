import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.signal import lfilter

from conftest import (
    conditional_moments,
    exact_ar1_regression,
    numeric_refine,
    stationary_variance,
    whole_array_dot,
)
from spotvar import (
    OUParams,
    VariationSeries,
    log_likelihood,
    mle_fit,
    simulate_path,
)
from spotvar.errors import (
    DegenerateSeries,
    InvalidArgument,
    InvalidParams,
    NonMeanReverting,
    NumericalBreakdown,
    SeriesTooShort,
)
from spotvar.ou import _linear_filter, transition_params

# Table-5-scale parameters used throughout as a realistic operating point
ALPHA, MU, SIGMA = 0.845728, -2.424382e-05, 0.001703
PARAMS = OUParams(ALPHA, MU, SIGMA)


class TestConditionalMoments:
    def test_zero_horizon(self):
        mean, var = conditional_moments(PARAMS, 0.001, 0)
        assert (mean, var) == (0.001, 0.0)

    def test_mean_is_fixed_point(self):
        for h in (0.5, 1, 10, 1000):
            mean, _ = conditional_moments(PARAMS, MU, h)
            assert mean == pytest.approx(MU, rel=1e-15)

    def test_against_high_precision_oracle(self):
        # mpmath 50-digit evaluation at v_t=0.001, horizon 1
        mean, var = conditional_moments(PARAMS, 0.001, 1)
        assert mean == pytest.approx(0.00041540746681372484, rel=1e-12)
        assert var == pytest.approx(1.3987017222241560e-06, rel=1e-12)

    def test_variance_saturates_at_stationary(self):
        _, var = conditional_moments(PARAMS, 0.001, 1e6)
        assert var == pytest.approx(stationary_variance(PARAMS), rel=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParams):
            conditional_moments(OUParams(-1.0, 0.0, 1.0), 0.0, 1)


class TestSimulatePath:
    def test_noise_free_limit_matches_conditional_means(self):
        params = OUParams(0.5, 0.001, 1e-300)
        v0 = 0.01
        path = simulate_path(params, v0, 50, 1.0, rng_seed=0)
        for k, v in enumerate(path):
            mean, _ = conditional_moments(params, v0, k)
            assert abs(v - mean) <= 1e-10

    def test_determinism_bit_identical(self):
        a = simulate_path(PARAMS, 0.0, 5, 1.0, rng_seed=42)
        b = simulate_path(PARAMS, 0.0, 5, 1.0, rng_seed=42)
        assert np.array_equal(a, b)
        c = simulate_path(PARAMS, 0.0, 5, 1.0, rng_seed=43)
        assert not np.array_equal(a, c)

    def test_stationary_moments_long_path(self):
        n = 1_000_000
        path = simulate_path(PARAMS, MU, n, 1.0, rng_seed=123)
        se = SIGMA / math.sqrt(2 * ALPHA * n)
        assert abs(path.mean() - MU) < 3 * se
        assert path.var() == pytest.approx(stationary_variance(PARAMS), rel=0.02)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            simulate_path(OUParams(0.0, 0.0, 1.0), 0.0, 10)

    @pytest.mark.parametrize("v0", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_start_is_rejected_before_any_draw(self, v0):
        buf = np.full(11, 7.0)
        with pytest.raises(InvalidArgument, match="v0"):
            simulate_path(PARAMS, v0, 10, out=buf)
        assert (buf == 7.0).all()

    # sigma**2 raises OverflowError; sigma**2 * (1 - omega**2) / (2 * alpha)
    # overflows to inf without one
    @pytest.mark.parametrize("params, dt", [(OUParams(1.0, 0.0, 1e200), 1.0),
                                            (OUParams(1e-20, 0.0, 1e150), 1e10)])
    def test_an_overflowing_conditional_variance_is_a_numeric_error(self, params, dt):
        with pytest.raises(NumericalBreakdown):
            simulate_path(params, 0.0, 5, dt)
        with pytest.raises(NumericalBreakdown):
            log_likelihood(params, [0.0, 1.0, 0.5], dt)

    def test_an_underflowing_conditional_variance_is_a_numeric_error(self):
        """sigma**2 underflows to 0: the path is the noise-free one (see
        `test_noise_free_limit_matches_conditional_means`), but its density
        has no logarithm."""
        params = OUParams(1.0, 0.0, 1e-200)
        assert transition_params(params).cond_sd == 0.0
        with pytest.raises(NumericalBreakdown, match="underflows"):
            log_likelihood(params, [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("n_steps", [1, 2, 5000, 20001])
    def test_out_buffer_is_bit_equal_to_a_fresh_path(self, n_steps):
        buf = np.full(n_steps + 1, np.nan)
        path = simulate_path(PARAMS, 0.001, n_steps, 1.0, rng_seed=9, out=buf)
        assert path is buf
        assert np.array_equal(buf, simulate_path(PARAMS, 0.001, n_steps, 1.0, rng_seed=9))

    def test_reused_buffer_gives_each_seed_its_fresh_path(self):
        buf = np.empty(5001)
        for seed in (1, 2):
            simulate_path(PARAMS, MU, 5000, 1.0, rng_seed=seed, out=buf)
            assert np.array_equal(buf, simulate_path(PARAMS, MU, 5000, 1.0, rng_seed=seed))

    @pytest.mark.parametrize("buf", [
        np.empty(10), np.empty(12), np.empty(11, dtype=np.float32), np.empty(22)[::2], [0.0] * 11,
    ])
    def test_out_buffer_of_the_wrong_shape_or_type(self, buf):
        with pytest.raises(InvalidArgument):
            simulate_path(PARAMS, 0.0, 10, out=buf)

    @pytest.mark.parametrize("seed", [5, 6])
    # one whole slice of 10,000 steps, one step past it, and inside a third
    @pytest.mark.parametrize("n_steps", [5000, 10_000, 10_001, 25_000, 200_000])
    def test_equals_the_lfilter_recursion(self, n_steps, seed):
        tp = transition_params(PARAMS)
        v0 = 0.001
        shocks = np.random.default_rng(seed).standard_normal(n_steps) * tp.cond_sd
        x, _ = lfilter([1.0], [1.0, -tp.omega], shocks, zi=[tp.omega * (v0 - MU)])
        expected = np.concatenate([[v0], x + MU])
        path = simulate_path(PARAMS, v0, n_steps, 1.0, rng_seed=seed)
        assert np.array_equal(path.view(np.int64), expected.view(np.int64))


class TestLinearFilterCore:
    """`simulate_path` calls the C core behind `scipy.signal.lfilter`,
    loaded from its file; these pin it to the public function."""

    @pytest.mark.parametrize("z", [0.0, 3.7e-4, -2.9e-4])
    @pytest.mark.parametrize("n", [1, 2, 5000, 20001])
    def test_bit_equal_to_lfilter(self, n, z):
        w = 0.43
        x = np.random.default_rng(n).standard_normal(n) * 1e-3
        out, zf = _linear_filter()(np.array([1.0]), np.array([1.0, -w]), x, -1, np.array([z]))
        ref, ref_zf = lfilter([1.0], [1.0, -w], x, zi=[z])
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        assert np.array_equal(zf.view(np.int64), ref_zf.view(np.int64))

    def test_missing_core_names_the_folder_and_version(self, monkeypatch, tmp_path):
        (tmp_path / "signal").mkdir()
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        with pytest.raises(ImportError) as err:
            _linear_filter.__wrapped__()
        assert str(tmp_path / "signal") in str(err.value)
        assert scipy.__version__ in str(err.value)


class TestLogLikelihood:
    def test_single_transition_zero_residual(self):
        tp = transition_params(PARAMS, 1.0)
        v1, _ = conditional_moments(PARAMS, 0.001, 1)
        ll = log_likelihood(PARAMS, np.array([0.001, v1]), 1.0)
        assert ll == pytest.approx(-0.5 * math.log(2 * math.pi) - math.log(tp.cond_sd), rel=1e-12)

    def test_equals_sum_of_gaussian_log_densities(self):
        rng = np.random.default_rng(3)
        v = simulate_path(PARAMS, 0.0, 200, 1.0, rng_seed=3)
        tp = transition_params(PARAMS, 1.0)
        means = MU + (v[:-1] - MU) * tp.omega
        oracle = sps.norm.logpdf(v[1:], loc=means, scale=tp.cond_sd).sum()
        assert log_likelihood(PARAMS, v, 1.0) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n_steps", [10_000, 10_001, 25_000])
    def test_same_bits_as_the_whole_array_residual(self, n_steps):
        v = simulate_path(PARAMS, 0.0, n_steps, 1.0, rng_seed=5)
        tp = transition_params(PARAMS, 1.0)
        resid = v[1:] - MU - (v[:-1] - MU) * tp.omega
        ss = whole_array_dot(resid, resid)
        expected = (-0.5 * n_steps * math.log(2 * math.pi) - n_steps * math.log(tp.cond_sd)
                    - ss / (2 * tp.cond_sd**2))
        assert log_likelihood(PARAMS, v, 1.0).hex() == expected.hex()

    def test_fitted_params_beat_perturbations(self):
        v = simulate_path(PARAMS, 0.0, 20_000, 1.0, rng_seed=4)
        fitted, _, _ = mle_fit(v)
        ll_star = log_likelihood(fitted, v)
        for d_mu in (-1e-4, 1e-4):
            p = OUParams(fitted.alpha, fitted.mu + d_mu, fitted.sigma)
            assert log_likelihood(p, v) < ll_star
        for f in (0.95, 1.05):
            p = OUParams(fitted.alpha * f, fitted.mu, fitted.sigma)
            assert log_likelihood(p, v) < ll_star


class TestMleFit:
    def test_matches_exact_oracle(self):
        # the ML fit is the exact least-squares fit of Dickey-Fuller model (b)
        v = simulate_path(PARAMS, 0.0, 49, 1.0, rng_seed=12)
        n, delta, _, intercept, rss = exact_ar1_regression(v, "b")
        omega, cond_var = 1 + delta, rss / n
        alpha = -math.log(omega)
        fitted, trans, reg = mle_fit(v)
        assert reg.n == n == 49
        assert trans.omega == pytest.approx(float(omega), rel=1e-12)
        assert trans.cond_sd == pytest.approx(math.sqrt(cond_var), rel=1e-12)
        assert fitted.alpha == pytest.approx(alpha, rel=1e-12)
        assert fitted.mu == pytest.approx(float(-intercept / delta), rel=1e-12)
        sigma2 = float(cond_var) * 2 * alpha / float(1 - omega**2)
        assert fitted.sigma == pytest.approx(math.sqrt(sigma2), rel=1e-12)

    def test_too_short(self):
        # three observations leave no residual degree of freedom
        with pytest.raises(SeriesTooShort):
            mle_fit(np.array([0.0, 1.0, 0.5]))

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    def test_dt_must_be_positive(self, dt):
        # a ValueError too, for callers that catch the built-in
        with pytest.raises(InvalidArgument):
            mle_fit(simulate_path(PARAMS, MU, 100, rng_seed=1), dt)
        with pytest.raises(ValueError):
            simulate_path(PARAMS, MU, 100, dt)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeries):
            mle_fit(np.full(100, 0.5))

    # a constant series is told apart only once the fit finds the lag
    # rank-deficient; 0.1 has no exact float mean, so centering leaves noise
    @pytest.mark.parametrize("value", [0.0, 0.1, -3.7e5, 1e-310])
    @pytest.mark.parametrize("n", [4, 129, 10_001])
    def test_every_constant_series_is_degenerate(self, value, n):
        with pytest.raises(DegenerateSeries):
            mle_fit(np.full(n, value))

    def test_exploding_series_non_mean_reverting(self):
        with pytest.raises(NonMeanReverting):
            mle_fit(1.1 ** np.arange(100, dtype=float))

    def test_simulation_ground_truth_recovery(self):
        true = OUParams(0.8, -2e-5, 0.0017)
        path = simulate_path(true, true.mu, 200_000, 1.0, rng_seed=5)
        fitted, trans, _ = mle_fit(path)
        assert fitted.alpha == pytest.approx(true.alpha, rel=0.05)
        assert fitted.mu == pytest.approx(true.mu, abs=1e-5)
        assert fitted.sigma == pytest.approx(true.sigma, rel=0.01)
        # conversion invariant: sigma recovered from cond_sd round-trips
        sigma2 = trans.cond_sd**2 * 2 * fitted.alpha / (1 - trans.omega**2)
        assert math.sqrt(sigma2) == pytest.approx(fitted.sigma, rel=1e-12)

    def test_translation_equivariance(self):
        path = simulate_path(PARAMS, 0.0, 20_000, 1.0, rng_seed=6)
        base, _, _ = mle_fit(path)
        shifted, _, _ = mle_fit(path + 0.37)
        assert shifted.mu == pytest.approx(base.mu + 0.37, rel=1e-9, abs=1e-12)
        assert shifted.alpha == pytest.approx(base.alpha, rel=1e-9)
        assert shifted.sigma == pytest.approx(base.sigma, rel=1e-9)
        # offsets far above the path's sd (~1.3e-3); rounding the shifted
        # values to float64 leaves ~1e-12 of noise, hence the tolerances
        for offset in (100.0, 1e4):
            shifted, _, _ = mle_fit(path + offset)
            assert shifted.mu - offset == pytest.approx(base.mu, rel=0, abs=1e-9)
            assert shifted.alpha == pytest.approx(base.alpha, rel=1e-9)
            assert shifted.sigma == pytest.approx(base.sigma, rel=1e-9)

    def test_scale_equivariance(self):
        path = simulate_path(PARAMS, 0.0, 20_000, 1.0, rng_seed=7)
        base, _, _ = mle_fit(path)
        k = 250.0
        scaled, _, _ = mle_fit(k * path)
        assert scaled.mu == pytest.approx(k * base.mu, rel=1e-9)
        assert scaled.sigma == pytest.approx(k * base.sigma, rel=1e-9)
        assert scaled.alpha == pytest.approx(base.alpha, rel=1e-9)

    def test_round_trip_error_shrinks_with_n(self):
        true = OUParams(0.6, 1e-4, 0.002)
        errs = []
        for n in (10_000, 100_000):
            path = simulate_path(true, true.mu, n, 1.0, rng_seed=8)
            fitted, _, _ = mle_fit(path)
            errs.append(abs(fitted.alpha - true.alpha) / true.alpha)
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("wrap", [np.asarray, lambda v: VariationSeries(np.arange(len(v)), v)])
    def test_input_is_never_written(self, wrap):
        series = wrap(simulate_path(PARAMS, 0.001, 2000, 1.0, rng_seed=6))
        values = getattr(series, "values", series)
        before = values.copy()
        mle_fit(series, 1.0)
        assert values.tobytes() == before.tobytes()

    def test_dt_rescaling(self):
        # same path read at dt=60 should report alpha 60x smaller and
        # sigma sqrt(60)x smaller than at dt=1
        path = simulate_path(PARAMS, 0.0, 50_000, 1.0, rng_seed=9)
        f1, _, _ = mle_fit(path, dt=1.0)
        f60, _, _ = mle_fit(path, dt=60.0)
        assert f60.alpha == pytest.approx(f1.alpha / 60.0, rel=1e-12)
        assert f60.mu == pytest.approx(f1.mu, rel=1e-12)
        assert f60.sigma == pytest.approx(f1.sigma / math.sqrt(60.0), rel=1e-12)

    def test_closed_form_is_stationary_maximum(self):
        path = simulate_path(PARAMS, 0.0, 5_000, 1.0, rng_seed=10)
        fitted, _, _ = mle_fit(path)
        ll_closed = log_likelihood(fitted, path)
        refined, ll_refined = numeric_refine(path, fitted)
        assert ll_refined - ll_closed <= 1e-6
        assert refined.alpha == pytest.approx(fitted.alpha, rel=1e-6)
        assert refined.mu == pytest.approx(fitted.mu, rel=1e-6, abs=1e-10)
        assert refined.sigma == pytest.approx(fitted.sigma, rel=1e-6)


def test_lognormal_quotient_is_lognormal():
    # two independent lognormal legs: ln of their quotient must be normal
    rng = np.random.default_rng(11)
    x1 = rng.normal(0.1, 0.2, 1_000_000)
    x2 = rng.normal(-0.05, 0.3, 1_000_000)
    q = np.log(np.exp(x1) / np.exp(x2))
    assert abs(sps.skew(q)) < 0.05
    assert abs(sps.kurtosis(q)) < 0.05
