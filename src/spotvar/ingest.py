"""Kline ingestion: Binance CSV archives and the klines REST endpoint.

Produces validated close-price series. The close ("ending price at the
interval") is the only field consumed downstream; timestamps are UTC
milliseconds throughout. Missing minutes are reported as GapWarning and
never interpolated.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInput,
    EmptyRange,
    GapWarning,
    InvalidValue,
    MalformedRow,
    NetworkError,
    NonMonotonicTimestamp,
)

MINUTE_MS = 60_000
BINANCE_KLINES_URL = "https://api.binance.com/api/v3/klines"
PAGE_LIMIT = 1000


@dataclass(frozen=True)
class Kline:
    """One exchange candle. Prices must be strictly positive and bracketed
    by low/high; close_time must follow open_time."""

    open_time: int
    open: float
    high: float
    low: float
    close: float
    volume: float
    close_time: int

    def validate(self):
        prices = (self.open, self.high, self.low, self.close)
        if any(p <= 0 for p in prices):
            raise ValueError("non-positive price")
        if self.low > min(self.open, self.close) or self.high < max(self.open, self.close):
            raise ValueError("low/high do not bracket open/close")
        if self.close_time <= self.open_time:
            raise ValueError("close_time must exceed open_time")


@dataclass(frozen=True)
class PriceSeries:
    """Timestamp-indexed close prices for one instrument.

    Timestamps are strictly increasing UTC milliseconds; closes strictly
    positive and finite. Immutable after construction, safe to share read-only.
    """

    symbol: str
    times: np.ndarray  # int64 ms
    closes: np.ndarray  # float64

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.int64))
        object.__setattr__(self, "closes", np.asarray(self.closes, dtype=np.float64))
        if self.times.shape != self.closes.shape or self.times.ndim != 1:
            raise ValueError("times and closes must be 1-d and equal length")
        if len(self.times) == 0:
            raise EmptyInput(f"{self.symbol}: empty series")
        deltas = np.diff(self.times)
        if np.any(deltas <= 0):
            raise NonMonotonicTimestamp(
                f"{self.symbol}: duplicate or decreasing timestamp"
            )
        bad = np.flatnonzero(~((self.closes > 0) & (self.closes < np.inf)))  # nan too
        if len(bad):
            c = float(self.closes[bad[0]])
            raise InvalidValue(f"{self.symbol}: close {c!r} at row {bad[0]} is not > 0 and finite")

    def __len__(self):
        return len(self.times)

    def to_csv(self, path_or_buf):
        """Write the normalized `open_time_ms,close` CSV."""
        own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
        f = open(path_or_buf, "w", newline="") if own else path_or_buf
        try:
            f.write("open_time_ms,close\n")
            for t, c in zip(self.times.tolist(), self.closes.tolist()):
                f.write(f"{t},{c!r}\n")
        finally:
            if own:
                f.close()

    @classmethod
    def from_csv(cls, path_or_buf, symbol=""):
        """Read a normalized `open_time_ms,close` CSV (comment lines allowed)."""
        own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
        f = open(path_or_buf, newline="") if own else path_or_buf
        try:
            times, closes = [], []
            for i, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if line.lower().startswith("open_time_ms"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise MalformedRow(i, f"expected 2 fields, got {len(parts)}")
                try:
                    times.append(int(parts[0]))
                    closes.append(float(parts[1]))
                except ValueError as exc:
                    raise MalformedRow(i, str(exc)) from exc
        finally:
            if own:
                f.close()
        if not times:
            raise EmptyInput("no data rows")
        return cls(symbol=symbol, times=np.array(times), closes=np.array(closes))


def find_gaps(times, interval_ms=MINUTE_MS):
    """Return the first missing timestamp of each gap (ms), or empty list."""
    times = np.asarray(times, dtype=np.int64)
    deltas = np.diff(times)
    idx = np.nonzero(deltas > interval_ms)[0]
    return [int(times[i] + interval_ms) for i in idx]


def _warn_gaps(symbol, times, interval_ms=MINUTE_MS):
    gaps = find_gaps(times, interval_ms)
    if gaps:
        warnings.warn(
            GapWarning(
                f"{symbol}: {len(gaps)} gap(s), first missing minute at {gaps[0]} ms"
            ),
            stacklevel=3,
        )
    return gaps


def parse_klines(raw, symbol):
    """Parse a Binance kline CSV byte/text stream into a PriceSeries.

    Rows have >= 7 comma-separated fields in Binance archive order
    (open_time, open, high, low, close, volume, close_time, ...). Rows are
    sorted by open_time; duplicate timestamps are rejected.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    if hasattr(raw, "read"):
        raw = raw.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")

    rows = []
    for line_no, fields in enumerate(csv.reader(io.StringIO(raw)), start=1):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue
        if len(fields) < 7:
            raise MalformedRow(line_no, f"expected >= 7 fields, got {len(fields)}")
        try:
            k = Kline(
                open_time=int(fields[0]),
                open=float(fields[1]),
                high=float(fields[2]),
                low=float(fields[3]),
                close=float(fields[4]),
                volume=float(fields[5]),
                close_time=int(fields[6]),
            )
            k.validate()
        except (ValueError, OverflowError) as exc:
            raise MalformedRow(line_no, str(exc)) from exc
        rows.append(k)

    if not rows:
        raise EmptyInput(f"{symbol}: zero kline rows")
    rows.sort(key=lambda k: k.open_time)
    times = np.array([k.open_time for k in rows], dtype=np.int64)
    if np.any(np.diff(times) == 0):
        raise NonMonotonicTimestamp(f"{symbol}: duplicate open_time")
    closes = np.array([k.close for k in rows], dtype=np.float64)
    series = PriceSeries(symbol=symbol, times=times, closes=closes)
    _warn_gaps(symbol, times)
    return series


@dataclass
class FetchConfig:
    endpoint: str = BINANCE_KLINES_URL
    page_limit: int = PAGE_LIMIT
    max_retries: int = 4
    backoff_base_s: float = 0.5
    pause_s: float = 0.0  # API pacing between pages
    sleep: object = field(default=time.sleep, repr=False)


def _get_with_retries(session, url, params, cfg):
    delay = cfg.backoff_base_s
    last_exc = None
    for attempt in range(cfg.max_retries + 1):
        try:
            resp = session.get(url, params=params, timeout=30)
            if resp.status_code in (418, 429) or resp.status_code >= 500:
                raise IOError(f"HTTP {resp.status_code}")
            resp.raise_for_status()
            return resp.json()
        except Exception as exc:  # noqa: BLE001 - transient classes vary by transport
            last_exc = exc
            if attempt == cfg.max_retries:
                break
            cfg.sleep(delay)
            delay *= 2
    raise NetworkError(f"{url}: retry budget exhausted ({last_exc})")


def fetch_klines(symbol, start_ms, end_ms, session=None, interval="1m", config=None):
    """Fetch 1m klines over [start_ms, end_ms) with pagination and retries.

    `session` needs only a `.get(url, params=..., timeout=...)` returning an
    object with `.status_code`, `.json()` and `.raise_for_status()`; defaults
    to a requests.Session. Gaps are reported via GapWarning, never filled.
    """
    if start_ms >= end_ms:
        raise EmptyRange(f"start {start_ms} >= end {end_ms}")
    cfg = config or FetchConfig()
    if session is None:
        import requests

        session = requests.Session()

    interval_ms = MINUTE_MS if interval == "1m" else None
    times, closes = [], []
    cursor = start_ms
    while cursor < end_ms:
        params = {
            "symbol": symbol,
            "interval": interval,
            "startTime": cursor,
            "endTime": end_ms - 1,
            "limit": cfg.page_limit,
        }
        page = _get_with_retries(session, cfg.endpoint, params, cfg)
        if not page:
            break
        for row in page:
            t = int(row[0])
            if t >= end_ms:
                break
            times.append(t)
            closes.append(float(row[4]))
        cursor = int(page[-1][0]) + (interval_ms or 1)
        if len(page) < cfg.page_limit:
            break
        if cfg.pause_s:
            cfg.sleep(cfg.pause_s)

    if not times:
        raise EmptyInput(f"{symbol}: endpoint returned no rows")
    series = PriceSeries(symbol=symbol, times=np.array(times), closes=np.array(closes))
    if interval_ms:
        _warn_gaps(symbol, series.times, interval_ms)
    return series
