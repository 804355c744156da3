import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import exact_ar1_regression
from spotvar import DFModel, VariationSeries, ar1_regression, critical_value, df_test
from spotvar.errors import (
    InsufficientData,
    NumericalBreakdown,
    RankDeficient,
    SeriesTooShort,
)
from spotvar.unitroot import _dot


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


class TestSlicedDot:
    """`_dot` adds the BLAS dots of consecutive 10,000-element slices."""

    @pytest.mark.parametrize("n", [1, 9_999, 10_000])
    def test_one_slice_is_the_plain_dot(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert _dot(a, b).hex() == float(a @ b).hex()
        assert _dot(a, a).hex() == float(a @ a).hex()

    def test_three_slices_within_rounding_of_exact(self):
        n = 25_000
        rng = np.random.default_rng(25)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        exact = sum(Fraction(x) * Fraction(y) for x, y in zip(a.tolist(), b.tolist()))
        bound = n * np.finfo(np.float64).eps * math.fsum(np.abs(a * b))
        assert abs(Fraction(_dot(a, b)) - exact) <= bound


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
