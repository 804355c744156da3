"""Spot-quotient variation: align three price legs and take log differences.

The variation at a common timestamp is ln(spot) - ln(num/den). Under
no-arbitrage the quotient leg equals the spot leg and the variation is 0;
the whole point of the analysis is that empirically it is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyIntersection, InvalidValue, NonMonotonicTimestamp
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

    def to_csv(self, path, header_comment=None, pool=None):
        """Write the `open_time_ms,variation` CSV to the file at `path`, after
        an optional `# header_comment` line; rows are formatted on `pool` if
        given."""
        write_series_csv(path, "open_time_ms,variation", self.times, self.values,
                         header_comment, pool)

    @classmethod
    def from_csv(cls, path, pool=None):
        """Read the file at `path`, an `open_time_ms,variation` CSV (comment
        lines allowed), in byte ranges on `pool` if given."""
        return cls(*read_series_csv(path, pool))


def align(spot: PriceSeries, num: PriceSeries, den: PriceSeries) -> AlignedTriple:
    """Strict intersection of the three timestamp sets; no interpolation."""
    # PriceSeries timestamps are strictly increasing: a spot minute is common
    # when each other leg holds it where searchsorted would insert it
    common = np.ones(len(spot), dtype=bool)
    positions = []
    for leg in (num, den):
        idx = np.searchsorted(leg.times, spot.times)
        common &= leg.times[np.minimum(idx, len(leg) - 1)] == spot.times
        positions.append(idx)
    times = spot.times[common]
    if len(times) == 0:
        raise EmptyIntersection(
            f"no common timestamps across {spot.symbol}/{num.symbol}/{den.symbol}"
        )
    dropped = {
        "spot": len(spot) - len(times),
        "num": len(num) - len(times),
        "den": len(den) - len(times),
    }
    return AlignedTriple(
        times=times,
        spot=spot.closes[common],
        num=num.closes[positions[0][common]],
        den=den.closes[positions[1][common]],
        dropped=dropped,
    )


def compute_variation(triple: AlignedTriple) -> VariationSeries:
    """values[i] = ln(spot[i]) - (ln(num[i]) - ln(den[i])).

    The quotient leg is evaluated as a difference of logs so all three legs
    round symmetrically; this differs from ln(num/den) by < 1e-14.
    A price that is not positive and finite, which no PriceSeries holds,
    gives a non-finite value: InvalidValue naming the row.
    """
    values = np.log(triple.spot) - (np.log(triple.num) - np.log(triple.den))
    return VariationSeries(times=triple.times, values=values)
