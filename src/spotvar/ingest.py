"""Kline ingestion: Binance CSV archives and the klines REST endpoint.

Produces validated close-price series. The close ("ending price at the
interval") is the only field consumed downstream; timestamps are UTC
milliseconds throughout. Missing minutes are reported as GapWarning and
never interpolated.
"""

from __future__ import annotations

import contextlib
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
        object.__setattr__(self, "times", int64_times(self.times))
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
        write_series_csv(path_or_buf, "open_time_ms,close", self.times, self.closes)

    @classmethod
    def from_csv(cls, path_or_buf, symbol=""):
        """Read a normalized `open_time_ms,close` CSV (comment lines allowed)."""
        return cls(symbol, *read_series_csv(path_or_buf))


def _open(path_or_buf, mode):
    """A path opened as UTF-8 text, where bytes that are not UTF-8 read as
    lone surrogates; a text buffer as it is, left open."""
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        return open(path_or_buf, mode, newline="", encoding="utf-8", errors="surrogateescape")
    return contextlib.nullcontext(path_or_buf)


def write_series_csv(path_or_buf, header, times, values, header_comment=None):
    """Write `header`, then one `time,value` row per point. Values are
    written as repr, which round-trips float64 exactly."""
    with _open(path_or_buf, "w") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        f.write(header + "\n")
        for t, v in zip(times.tolist(), values.tolist()):
            f.write(f"{t},{v!r}\n")


def read_series_csv(path_or_buf):
    """Read a two-column `time,value` CSV into C-contiguous int64 times and
    float64 values. Blank lines, `#` comments and an `open_time_ms` header
    are skipped. A line that is not UTF-8 or not two numbers raises
    MalformedRow; a time outside the int64 range raises InvalidValue.

    numpy's C parser reads the rows after the leading skipped lines. With
    its deprecation warnings raised as errors it accepts no input the
    per-line reader rejects: numpy before 2.0 reads an integer field such
    as `1.0`, `1e3` or one beyond int64 through a float and only warns.
    Whenever it rejects an input or cannot apply (a buffer that cannot
    seek), the per-line reader decides: what it accepts, and the error and
    line number it reports."""
    with _open(path_or_buf, "r") as f:
        seekable = getattr(f, "seekable", None)
        if seekable and seekable():
            start = f.tell()
            try:
                return _read_rows_fast(f)
            except (ValueError, OverflowError, DeprecationWarning, EmptyInput):
                f.seek(start)
        times, values = _read_rows(f)
    return int64_times(times), np.asarray(values, dtype=np.float64)


def _skipped(line):
    """Whether the stripped `line` is blank, a `#` comment or an
    `open_time_ms` header. Raises UnicodeEncodeError on a lone surrogate."""
    if not line.isascii():
        line.encode("utf-8")
    return not line or line.startswith("#") or line.lower().startswith("open_time_ms")


def _read_rows_fast(f):
    """Skip the leading lines `_skipped` skips, then parse the rest with
    `np.loadtxt`."""
    while True:
        data_start = f.tell()
        line = f.readline()
        if not line:
            raise EmptyInput("no data rows")
        if not _skipped(line.strip()):
            break
    f.seek(data_start)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        rows = np.loadtxt(f, dtype=[("t", np.int64), ("v", np.float64)], delimiter=",",
                          comments=None, ndmin=1)
    # copies: a strided field view would change the summation order downstream
    return np.ascontiguousarray(rows["t"]), np.ascontiguousarray(rows["v"])


def _read_rows(f):
    """The per-line reader: lists of int times and float values."""
    times, values = [], []
    for i, line in enumerate(f, start=1):
        try:
            line = line.strip()
            if _skipped(line):
                continue
            t, v = line.split(",")
            times.append(int(t))
            values.append(float(v))
        except UnicodeEncodeError as exc:
            raise MalformedRow(i, "not UTF-8 text") from exc
        except ValueError as exc:
            raise MalformedRow(i, str(exc)) from exc
    if not times:
        raise EmptyInput("no data rows")
    return times, values


def int64_times(times):
    """`times` as an int64 array; a value out of range is InvalidValue."""
    try:
        return np.asarray(times, dtype=np.int64)
    except OverflowError as exc:
        raise InvalidValue(f"timestamp outside the int64 range: {exc}") from exc


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
    if hasattr(raw, "read"):
        raw = raw.read()
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRow(raw.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from exc

    rows = []
    reader = csv.reader(io.StringIO(raw))
    try:
        for fields in reader:
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue
            if len(fields) < 7:
                raise MalformedRow(reader.line_num, f"expected >= 7 fields, got {len(fields)}")
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
                raise MalformedRow(reader.line_num, str(exc)) from exc
            rows.append(k)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from exc

    if not rows:
        raise EmptyInput(f"{symbol}: zero kline rows")
    rows.sort(key=lambda k: k.open_time)
    series = PriceSeries(symbol, [k.open_time for k in rows], [k.close for k in rows])
    _warn_gaps(symbol, series.times)
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
    """GET and decode JSON, retrying transport errors, 418/429 (rate limit)
    and 5xx with exponential backoff. Any other 4xx, and a body that is not
    JSON, will not change on retry: they raise NetworkError at once."""
    delay = cfg.backoff_base_s
    last_exc = None
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            cfg.sleep(delay)
            delay *= 2
        try:
            resp = session.get(url, params=params, timeout=30)
        except Exception as exc:  # noqa: BLE001 - transient classes vary by transport
            last_exc = exc
            continue
        if resp.status_code in (418, 429) or resp.status_code >= 500:
            last_exc = IOError(f"HTTP {resp.status_code}")
        elif resp.status_code >= 400:
            raise NetworkError(f"{url}: HTTP {resp.status_code}, not retried")
        else:
            try:
                return resp.json()
            except ValueError as exc:
                raise NetworkError(f"{url}: response is not JSON ({exc})") from exc
    raise NetworkError(f"{url}: retry budget exhausted ({last_exc})")


def _kline_page(body, url):
    """(open_time, close) of each row of a klines response body. An error
    object such as `{"code": -1121, "msg": "Invalid symbol."}`, or a row that
    is not a list of at least 5 numeric fields, raises NetworkError."""
    if isinstance(body, dict) and "code" in body:
        raise NetworkError(f"{url}: error {body['code']}: {body.get('msg', '')}")
    if not isinstance(body, list):
        raise NetworkError(f"{url}: expected a list of klines, got {type(body).__name__}")
    rows = []
    for row in body:
        if not isinstance(row, list) or len(row) < 5:
            raise NetworkError(f"{url}: expected a kline row of >= 5 fields, got {row!r:.80}")
        try:
            rows.append((int(row[0]), float(row[4])))
        except (TypeError, ValueError, OverflowError) as exc:
            raise NetworkError(f"{url}: unexpected kline row {row!r:.80} ({exc})") from exc
    return rows


def fetch_klines(symbol, start_ms, end_ms, session=None, interval="1m", config=None):
    """Fetch 1m klines over [start_ms, end_ms) with pagination and retries.

    `session` needs only a `.get(url, params=..., timeout=...)` returning an
    object with `.status_code` and `.json()`; defaults to a requests.Session.
    Gaps are reported via GapWarning, never filled.
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
        page = _kline_page(_get_with_retries(session, cfg.endpoint, params, cfg), cfg.endpoint)
        if not page:
            break
        for t, close in page:
            if t >= end_ms:
                break
            times.append(t)
            closes.append(close)
        cursor = page[-1][0] + (interval_ms or 1)
        if len(page) < cfg.page_limit:
            break
        if cfg.pause_s:
            cfg.sleep(cfg.pause_s)

    if not times:
        raise EmptyInput(f"{symbol}: endpoint returned no rows")
    series = PriceSeries(symbol=symbol, times=times, closes=closes)
    if interval_ms:
        _warn_gaps(symbol, series.times, interval_ms)
    return series
