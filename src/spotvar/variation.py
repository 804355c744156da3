"""Spot-quotient variation: align three price legs and take log differences.

The variation at a common timestamp is ln(spot) - ln(num/den). Under
no-arbitrage the quotient leg equals the spot leg and the variation is 0;
the whole point of the analysis is that empirically it is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyIntersection, InvalidValue, NonMonotonicTimestamp
from .ingest import int64_times, read_series_csv, write_series_csv

# rows per slice of the fold and of the variation, as in the AR(1) core
# (`unitroot._DOT_SLICE`): a slice's scratch stays in cache
_SLICE = 10_000


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
        if np.any(self.times[1:] <= self.times[:-1]):  # np.diff wraps in int64
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
        lines allowed), in blocks parsed on `pool` if given."""
        return cls(*read_series_csv(path, pool))


def align(legs) -> AlignedTriple:
    """Strict intersection of the timestamp sets of `legs`, an iterable of
    the spot, num and den PriceSeries in that order; no interpolation.

    Each leg is folded into the minutes common to the legs before it, then
    released before the next is taken from `legs`, so a generator that
    reads the legs on demand holds one at a time. The first leg's two
    columns are copied, and every later fold compacts the kept columns in
    place (`_fold`), so at the third fold this holds the three kept
    columns, the one it fills and the leg; no input leg is written.
    EmptyIntersection is raised only once every leg is taken: a later
    leg's own error comes first."""
    kept = []  # the common minutes, then each folded leg's closes at them
    sizes, symbols = [], []
    for leg in legs:
        sizes.append(len(leg))
        symbols.append(leg.symbol)
        kept = _fold(kept, leg) if kept else [leg.times.copy(), leg.closes.copy()]
        del leg
    if len(sizes) != 3:
        raise ValueError(f"align takes the spot, num and den legs, got {len(sizes)}")
    times = kept[0]
    if len(times) == 0:
        raise EmptyIntersection(f"no common timestamps across {'/'.join(symbols)}")
    dropped = {name: size - len(times) for name, size in zip(("spot", "num", "den"), sizes)}
    return AlignedTriple(*kept, dropped=dropped)


def _fold(kept, leg):
    """The rows of the columns `kept`, whose first holds the minutes, at the
    minutes `leg` holds too, and `leg`'s closes there as one more column.
    The kept columns, this module's own arrays, are compacted in place, one
    slice of _SLICE rows at a time: a slice is written at or before where
    it was read, so no row is overwritten before it is read."""
    closes = np.empty(len(kept[0]))
    at = 0
    for start in range(0, len(closes), _SLICE):
        minutes = kept[0][start:start + _SLICE]
        # leg.times is strictly increasing: a kept minute is common when
        # the leg holds it where searchsorted would insert it; a minute
        # past the leg's end, clamped to its last index, misses there
        idx = np.searchsorted(leg.times, minutes)
        np.minimum(idx, len(leg) - 1, out=idx)
        hit = leg.times[idx] == minutes
        idx = idx[hit]
        for column in kept:
            column[at:at + len(idx)] = column[start:start + _SLICE][hit]
        closes[at:at + len(idx)] = leg.closes[idx]
        at += len(idx)
    return [column[:at] for column in (*kept, closes)]


def compute_variation(triple: AlignedTriple) -> VariationSeries:
    """values[i] = ln(spot[i]) - (ln(num[i]) - ln(den[i])).

    The quotient leg is evaluated as a difference of logs so all three legs
    round symmetrically; this differs from ln(num/den) by < 1e-14.
    A price that is not positive and finite, which no PriceSeries holds,
    gives a non-finite value: InvalidValue naming the row. The values are
    formed one slice of _SLICE rows at a time into one array, so the only
    scratch is a slice's logs.
    """
    values = np.empty(len(triple.times))
    for start in range(0, len(values), _SLICE):
        rows = slice(start, start + _SLICE)
        values[rows] = np.log(triple.spot[rows]) - (np.log(triple.num[rows])
                                                    - np.log(triple.den[rows]))
    return VariationSeries(times=triple.times, values=values)
