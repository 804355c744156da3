"""Preliminary examination: percentile tables, yearwise split, IQR.

Quantiles use linear interpolation between closest order statistics (the
common scientific-software default). "Year" is a 365-day window from the
sample epoch; the final slice absorbs leap-day drift by extending to the
sample end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, InvalidArgument, MissingRank
from .variation import VariationSeries

DAY_MS = 86_400_000
YEAR_MS = 365 * DAY_MS


def valid_probes(probes):
    """Whether every percentile rank in `probes` lies in [0, 100]."""
    return all(0 <= p <= 100 for p in probes)


def _check_probes(probes):
    if not valid_probes(probes):
        raise InvalidArgument(f"probes must lie in [0, 100], got {probes}")


@dataclass(frozen=True)
class PercentileTable:
    probes: tuple  # percentile ranks in [0, 100]
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "probes", tuple(float(p) for p in self.probes))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _check_probes(self.probes)
        order = np.argsort(self.probes)
        vals = np.array(self.values)[order]
        if np.any(np.diff(vals) < 0):
            raise ValueError("values must be non-decreasing in rank")

    def value_at(self, rank):
        for p, v in zip(self.probes, self.values):
            if p == rank:
                return v
        raise MissingRank(f"rank {rank} not in table")


@dataclass(frozen=True)
class YearSlice:
    label: int  # ordinal year number, 1-based
    start: int  # ms inclusive
    end: int  # ms exclusive
    series: VariationSeries


def percentiles(series: VariationSeries, probes) -> PercentileTable:
    """Empirical percentiles; rank 0 is the minimum, rank 100 the maximum."""
    if len(series) == 0:
        raise EmptySeries("cannot take percentiles of an empty series")
    probes = tuple(float(p) for p in probes)
    _check_probes(probes)  # before np.percentile, whose own check raises ValueError
    vals = np.percentile(series.values, probes, method="linear")
    return PercentileTable(probes=probes, values=tuple(vals))


def check_n_years(n_years):
    if n_years < 1:
        raise InvalidArgument(f"n_years must be >= 1, got {n_years}")


def split_years(series: VariationSeries, epoch_start_ms, n_years) -> list[YearSlice]:
    """Partition into 365-day slices; the last slice extends to the sample end.

    Half-open intervals, boundary points go to the later year. Samples
    outside the nominal windows are clamped into the first/last slice so
    every sample lands in exactly one slice.
    """
    check_n_years(n_years)
    slices = []
    sample_end = int(series.times[-1]) + 1 if len(series) else epoch_start_ms + n_years * YEAR_MS
    year_idx = np.clip((series.times - epoch_start_ms) // YEAR_MS, 0, n_years - 1)
    for k in range(n_years):
        start = epoch_start_ms + k * YEAR_MS
        end = epoch_start_ms + (k + 1) * YEAR_MS
        if k == n_years - 1:
            end = max(end, sample_end)
        mask = year_idx == k
        slices.append(
            YearSlice(
                label=k + 1,
                start=start,
                end=end,
                series=VariationSeries(series.times[mask], series.values[mask]),
            )
        )
    return slices


def iqr(table: PercentileTable) -> float:
    """Interquartile range: value at rank 75 minus value at rank 25."""
    return table.value_at(75) - table.value_at(25)
