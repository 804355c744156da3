"""Spot-quotient variation: align three price legs and take log differences.

The variation at a common timestamp is ln(spot) - ln(num/den). Under
no-arbitrage the quotient leg equals the spot leg and the variation is 0;
the whole point of the analysis is that empirically it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyIntersection, InvalidValue, NonMonotonicTimestamp
from .ingest import int64_times, read_series_csv, write_series_csv

# rows per slice of the fold, as in the AR(1) core
# (`unitroot._DOT_SLICE`): a slice's scratch stays in cache
_SLICE = 10_000
LEGS = ("spot", "num", "den")


class Aligned(NamedTuple):
    """The minutes common to the three legs, the variation at each, and
    how many minutes each leg lost to the intersection, keyed
    "spot"/"num"/"den"."""

    times: np.ndarray
    values: np.ndarray
    dropped: dict


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


def align(legs) -> Aligned:
    """Strict intersection of the timestamp sets of the legs, and the
    variation at each common minute; no interpolation. `legs` maps "spot",
    "num" and "den" to a PriceSeries or to a zero-argument loader of one.

    The legs are taken num, den, spot, and each is released before the
    next is loaded, so loaders hold one leg at a time. num's minutes are
    copied and its logs are the value column; den is folded in as
    `column - ln(den)`, then spot as `ln(spot) - column`, so each value is
    ln(spot) - (ln(num) - ln(den)), rounded as that formula is. The
    quotient is a difference of logs so that all three legs round alike;
    it differs from ln(num/den) by < 1e-14. Each fold compacts the two
    kept columns in place (`_fold`), so this holds them and the leg being
    folded; no input leg is written. EmptyIntersection is raised only
    once every leg is taken: a later leg's own error comes first."""
    if sorted(legs) != sorted(LEGS):
        raise ValueError(f"align takes the spot, num and den legs, got {sorted(legs)}")
    sizes, symbols = {}, {}
    for name in ("num", "den", "spot"):
        leg = legs[name]() if callable(legs[name]) else legs[name]
        sizes[name], symbols[name] = len(leg), leg.symbol
        if name == "num":
            times, values = leg.times.copy(), np.log(leg.closes)
        else:
            rows = _fold(times, values, leg, spot=name == "spot")
            times, values = times[:rows], values[:rows]
        del leg
    if len(times) == 0:
        names = "/".join(symbols[name] for name in LEGS)
        raise EmptyIntersection(f"no common timestamps across {names}")
    return Aligned(times, values, {name: sizes[name] - len(times) for name in LEGS})


def _fold(times, values, leg, spot):
    """Compact `times` and `values`, this module's own arrays, in place to
    the minutes `leg` holds too, each value combined with the log of `leg`'s
    close there: `value - ln(close)`, or `ln(close) - value` if `spot`.
    Returns the rows kept. One slice of _SLICE rows at a time: a slice is
    written at or before where it was read, so no row is overwritten
    before it is read."""
    at = 0
    for start in range(0, len(times), _SLICE):
        minutes = times[start:start + _SLICE]
        # leg.times is strictly increasing: a kept minute is common when
        # the leg holds it where searchsorted would insert it; a minute
        # past the leg's end, clamped to its last index, misses there
        idx = np.searchsorted(leg.times, minutes)
        np.minimum(idx, len(leg) - 1, out=idx)
        hit = leg.times[idx] == minutes
        logs, kept = np.log(leg.closes[idx[hit]]), values[start:start + _SLICE][hit]
        values[at:at + len(logs)] = logs - kept if spot else kept - logs
        times[at:at + len(logs)] = minutes[hit]
        at += len(logs)
    return at


def compute_variation(aligned: Aligned) -> VariationSeries:
    """The VariationSeries of `align`'s result: its checks reject a value
    that is not finite, naming the row. A separate call only so that the
    benchmark's tracer times it apart from `align`; the per-stage trace of
    ROADMAP item 2 lets it go."""
    return VariationSeries(aligned.times, aligned.values)
