"""Spot-quotient variation: align three price legs and take log differences.

The variation at a common timestamp is ln(spot) - ln(num/den). Under
no-arbitrage the quotient leg equals the spot leg and the variation is 0;
the whole point of the analysis is that empirically it is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyIntersection, InvalidValue, NonMonotonicTimestamp, NonPositivePrice
from .ingest import PriceSeries, int64_times, read_series_csv, write_series_csv


@dataclass(frozen=True)
class AlignedTriple:
    """Three close-price legs restricted to their common timestamps.

    `dropped` records how many timestamps each input lost to the
    intersection, keyed "spot"/"num"/"den".
    """

    times: np.ndarray
    spot: np.ndarray
    num: np.ndarray
    den: np.ndarray
    dropped: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class VariationSeries:
    """Timestamp-indexed variation values (dimensionless log units)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", int64_times(self.times))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.times.shape != self.values.shape:
            raise ValueError("times/values length mismatch")
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise NonMonotonicTimestamp("timestamps must be strictly increasing")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if len(bad):
            raise InvalidValue(f"non-finite variation value at row {bad[0]}")

    def __len__(self):
        return len(self.times)

    def restrict(self, start_ms, end_ms):
        """Sub-series over [start_ms, end_ms)."""
        mask = (self.times >= start_ms) & (self.times < end_ms)
        return VariationSeries(self.times[mask], self.values[mask])

    def to_csv(self, path_or_buf, header_comment=None):
        """Write the `open_time_ms,variation` CSV, after an optional
        `# header_comment` line."""
        write_series_csv(
            path_or_buf, "open_time_ms,variation", self.times, self.values, header_comment
        )

    @classmethod
    def from_csv(cls, path_or_buf):
        """Read an `open_time_ms,variation` CSV (comment lines allowed)."""
        return cls(*read_series_csv(path_or_buf))


def align(spot: PriceSeries, num: PriceSeries, den: PriceSeries) -> AlignedTriple:
    """Strict intersection of the three timestamp sets; no interpolation."""
    # PriceSeries timestamps are strictly increasing, hence unique
    common = np.intersect1d(spot.times, num.times, assume_unique=True)
    common = np.intersect1d(common, den.times, assume_unique=True)
    if len(common) == 0:
        raise EmptyIntersection(
            f"no common timestamps across {spot.symbol}/{num.symbol}/{den.symbol}"
        )

    def pick(series):
        idx = np.searchsorted(series.times, common)
        return series.closes[idx]

    dropped = {
        "spot": len(spot) - len(common),
        "num": len(num) - len(common),
        "den": len(den) - len(common),
    }
    return AlignedTriple(
        times=common.astype(np.int64),
        spot=pick(spot),
        num=pick(num),
        den=pick(den),
        dropped=dropped,
    )


def compute_variation(triple: AlignedTriple) -> VariationSeries:
    """values[i] = ln(spot[i]) - (ln(num[i]) - ln(den[i])).

    The quotient leg is evaluated as a difference of logs so all three legs
    round symmetrically; this differs from ln(num/den) by < 1e-14.
    """
    for name, leg in (("spot", triple.spot), ("num", triple.num), ("den", triple.den)):
        bad = np.nonzero(leg <= 0)[0]
        if len(bad):
            raise NonPositivePrice(int(bad[0]))
    values = np.log(triple.spot) - (np.log(triple.num) - np.log(triple.den))
    return VariationSeries(times=triple.times, values=values)
