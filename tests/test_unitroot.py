import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_ar1_regression, whole_array_ar1_regression
from spotvar import (
    DFModel,
    OUParams,
    VariationSeries,
    ar1_regression,
    critical_value,
    df_test,
    simulate_path,
)
from spotvar.errors import (
    InsufficientData,
    NumericalBreakdown,
    RankDeficient,
    SeriesTooShort,
)
from spotvar.unitroot import _pairwise_sum, _slice_sums


class TestAR1Regression:
    def test_matches_exact_oracle(self):
        # 40 points of a level-shifted random walk: the lag is far from
        # centered, as in the shift property tests below
        rng = np.random.default_rng(0)
        y = 2.0 + 0.3 * np.cumsum(rng.normal(size=40))
        for m in DFModel:
            n, delta, se2, intercept, rss = exact_ar1_regression(y, m.value)
            fit = ar1_regression(y, m)
            assert fit.n == n == 39
            assert fit.delta == pytest.approx(float(delta), rel=1e-12)
            assert fit.se_delta == pytest.approx(math.sqrt(se2), rel=1e-12)
            assert fit.intercept == pytest.approx(float(intercept), rel=1e-12)
            assert fit.rss == pytest.approx(float(rss), rel=1e-12)

    def test_exact_linear_data(self):
        # dY_t = -Y_{t-1}/2 holds exactly in float64
        y = 0.5 ** np.arange(31)
        for m in DFModel:
            fit = ar1_regression(y, m)
            assert fit.delta == -0.5
            assert fit.rss == 0.0

    def test_collinear_lag_rank_deficient(self):
        # 0.1 has no exact float mean, so centering leaves rounding noise
        for m in (DFModel.CONST, DFModel.CONST_TREND):
            with pytest.raises(RankDeficient):
                ar1_regression(np.full(40, 0.1), m)
        # a linear series: the lag is the trend column
        with pytest.raises(RankDeficient):
            ar1_regression(0.3 + 0.7 * np.arange(40), DFModel.CONST_TREND)

    @pytest.mark.parametrize("model", list(DFModel))
    @pytest.mark.parametrize("wrap", [np.asarray, lambda v: VariationSeries(np.arange(len(v)), v)])
    def test_input_is_never_written(self, model, wrap):
        """The core works in place on its own arrays; model (a)'s lag is a
        view of the input, so its residual must not be formed there."""
        rng = np.random.default_rng(4)
        series = wrap(0.01 + np.cumsum(rng.normal(size=500)) * 1e-3)
        values = getattr(series, "values", series)
        before = values.copy()
        ar1_regression(series, model)
        df_test(series, model)
        assert values.tobytes() == before.tobytes()

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData):
            ar1_regression(np.array([1.0, 2.0]), DFModel.NO_CONST)
        with pytest.raises(InsufficientData):
            ar1_regression(np.array([1.0, 2.0, 4.0]), DFModel.CONST_TREND)

    @pytest.mark.parametrize("model", list(DFModel))
    @pytest.mark.parametrize("rows", [9_999, 10_000, 10_001, 20_001, 25_001, 123_457, 2_093_753])
    def test_same_bits_as_the_whole_array_core(self, model, rows):
        """Slice by slice, the core computes what it computed on whole-length
        arrays, bit for bit: one row short of a slice, one slice, one row
        past it, two slices and a row, and the paper's sample size. At
        25,001 and 123,457 rows the leaves of the difference's summation
        tree fall off the 10,000-row grid, three or more levels down."""
        params = OUParams(alpha=0.8, mu=-2e-5, sigma=0.0017)
        path = simulate_path(params, 3e-3, rows, 1.0, rng_seed=rows)
        fit = ar1_regression(path, model)
        got = (fit.n, fit.delta, fit.se_delta, fit.intercept, fit.rss)
        expected = whole_array_ar1_regression(path, model)
        assert got[0] == expected[0] == rows
        assert [x.hex() for x in got[1:]] == [x.hex() for x in expected[1:]]


class TestPairwiseSum:
    """`_pairwise_sum` adds slices of the difference along numpy's own
    summation tree, so the core's mean of the difference has the bits of
    the whole-array mean."""

    @given(n=st.integers(2, 70_000), seed=st.integers(0, 2**32 - 1),
           zeros=st.sampled_from([0.0, 0.1, 0.9, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_the_whole_difference_mean(self, n, seed, zeros):
        # magnitudes from 1e-8 to 1e8 of both signs, and a share of zeros
        rng = np.random.default_rng(seed)
        v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)
        v[rng.random(n) < zeros] *= 0.0  # signed zeros
        got = _pairwise_sum(lambda start, stop: v[start + 1:stop + 1] - v[start:stop], n - 1)
        assert (got / (n - 1)).hex() == float(np.diff(v).mean()).hex()


def sliced_dot(a, b):
    return _slice_sums(len(a), lambda start, stop: [float(a[start:stop] @ b[start:stop])])[0]


class TestSlicedDot:
    """`_slice_sums` adds the BLAS dots of consecutive 10,000-element slices."""

    @pytest.mark.parametrize("n", [1, 9_999, 10_000])
    def test_one_slice_is_the_plain_dot(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert sliced_dot(a, b).hex() == float(a @ b).hex()
        assert sliced_dot(a, a).hex() == float(a @ a).hex()

    def test_three_slices_within_rounding_of_exact(self):
        n = 25_000
        rng = np.random.default_rng(25)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        exact = sum(Fraction(x) * Fraction(y) for x, y in zip(a.tolist(), b.tolist()))
        bound = n * np.finfo(np.float64).eps * math.fsum(np.abs(a * b))
        assert abs(Fraction(sliced_dot(a, b)) - exact) <= bound


class TestCriticalValues:
    def test_asymptotic_1pct_values(self):
        assert critical_value(DFModel.NO_CONST, 10**6) == -2.58
        assert critical_value(DFModel.CONST, 10**6) == -3.43
        assert critical_value(DFModel.CONST_TREND, 10**6) == -3.96

    def test_conservative_bucketing(self):
        # n=70 falls back to the n=50 row, not n=100
        assert critical_value(DFModel.CONST, 70) == -3.58
        assert critical_value(DFModel.CONST, 100) == -3.51


def _ar1(rho, n, seed, mean=0.0):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    y = np.empty(n)
    y[0] = mean
    for t in range(1, n):
        y[t] = mean * (1 - rho) + rho * y[t - 1] + e[t]
    return y


class TestDFTest:
    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            df_test(np.zeros(10), DFModel.CONST)

    @pytest.mark.parametrize("model", list(DFModel))
    def test_exact_fit_has_no_tau(self, model):
        # dY = -0.5 * Y holds exactly: residuals and se(delta) are 0
        with pytest.raises(NumericalBreakdown):
            df_test(0.5 ** np.arange(31.0), model)

    def test_tau_identity_bit_for_bit(self):
        y = _ar1(0.7, 500, seed=1)
        for m in DFModel:
            r = df_test(y, m)
            assert r.tau == r.delta_hat / r.se_delta
            assert r.reject_null == (r.tau < r.critical_value_1pct)
            assert r.n_used == 499

    def test_ar1_rejects_unit_root(self):
        y = _ar1(0.5, 10_000, seed=2)
        for m in DFModel:
            assert df_test(y, m).reject_null

    def test_random_walk_not_rejected_typical_seed(self):
        rng = np.random.default_rng(3)
        y = np.cumsum(rng.standard_normal(10_000))
        for m in DFModel:
            assert not df_test(y, m).reject_null

    def test_affine_shift_absorbed_by_intercept(self):
        y = _ar1(0.6, 2_000, seed=4)
        for m in (DFModel.CONST, DFModel.CONST_TREND):
            tau0 = df_test(y, m).tau
            for shifted in (y + 5.0, 1e-3 * y + 1e4):
                assert df_test(shifted, m).tau == pytest.approx(tau0, abs=1e-8)
        # tau is scale-free, and so is the rank decision: the trend column
        # (~2e4) must not swamp a lag column of ~1e-9
        y = _ar1(0.6, 20_000, seed=4)
        tau0 = df_test(y, DFModel.CONST_TREND).tau
        assert df_test(1e-9 * y, DFModel.CONST_TREND).tau == pytest.approx(tau0, rel=1e-9)

    def test_delta_hat_converges_to_rho_minus_one(self):
        rho = 0.8
        biases = []
        for n in (1_000, 10_000, 100_000):
            r = df_test(_ar1(rho, n, seed=5), DFModel.NO_CONST)
            biases.append(abs(r.delta_hat - (rho - 1)))
        assert biases[0] > biases[1] > biases[2]
