"""Spot-quotient variation analysis toolkit.

Builds the ETHBTC spot-quotient variation series from exchange kline data,
summarizes it, tests it for mean reversion (Dickey-Fuller), fits an
Ornstein-Uhlenbeck process by exact closed-form maximum likelihood, and
quantifies estimator accuracy with parametric Monte Carlo.
"""

__version__ = "0.1.0"

from .ingest import PriceSeries, fetch_klines
from .variation import AlignedTriple, VariationSeries, align, compute_variation
from .summary import PercentileTable, YearSlice, percentiles, split_years, iqr
from .unitroot import AR1Fit, DFModel, DFResult, ar1_regression, df_test, critical_value
from .ou import (
    OUParams,
    TransitionParams,
    simulate_path,
    log_likelihood,
    mle_fit,
)
from .montecarlo import (
    McConfig,
    McSamples,
    CIReport,
    sampling_distribution,
    confidence_intervals,
)

__all__ = [
    "PriceSeries",
    "fetch_klines",
    "AlignedTriple",
    "VariationSeries",
    "align",
    "compute_variation",
    "PercentileTable",
    "YearSlice",
    "percentiles",
    "split_years",
    "iqr",
    "AR1Fit",
    "DFModel",
    "DFResult",
    "ar1_regression",
    "df_test",
    "critical_value",
    "OUParams",
    "TransitionParams",
    "simulate_path",
    "log_likelihood",
    "mle_fit",
    "McConfig",
    "McSamples",
    "CIReport",
    "sampling_distribution",
    "confidence_intervals",
]
