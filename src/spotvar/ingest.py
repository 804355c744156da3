"""Kline ingestion: Binance CSV archives and the klines REST endpoint.

Produces validated close-price series; `read_series_csv` reads both leg
formats. The close ("ending price at the interval") is the only field
consumed downstream; timestamps are UTC milliseconds throughout. Missing
minutes of kline legs and fetched series warn (GapWarning), never filled.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .csvrows import format_rows
from .errors import (
    EmptyInput,
    EmptyRange,
    GapWarning,
    InvalidValue,
    MalformedRow,
    NetworkError,
    NonMonotonicTimestamp,
)
from .parallel import pool_map

MINUTE_MS = 60_000
BINANCE_KLINES_URL = "https://api.binance.com/api/v3/klines"
PAGE_LIMIT = 1000

# rows formatted per job of the CSV writer
_WRITE_ROWS = 1 << 16
_ROW = np.dtype([("t", np.int64), ("v", np.float64)])
# a kline row's first seven fields, the open time and close named as in `_ROW`
_KLINE = np.dtype([("t", np.int64), ("open", np.float64), ("high", np.float64),
                   ("low", np.float64), ("v", np.float64), ("volume", np.float64),
                   ("close_time", np.int64)])
# rows per slice of the search for gaps
_GAP_SLICE = 1 << 16
# bytes of a leg's byte range parsed per block, before the cut at a newline.
# A pool worker's block buffer, freed, raises glibc's mmap threshold to its
# size: above the 4.7 MB array that `csvrows.format_rows` allocates per job,
# the `variation.csv` write reuses heap pages (at 4 MB blocks its workers
# faulted 40k pages in again, more than the whole parse)
_READ_BLOCK = 6 << 20


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
        if np.any(self.times[1:] <= self.times[:-1]):  # np.diff wraps in int64
            raise NonMonotonicTimestamp(
                f"{self.symbol}: duplicate or decreasing timestamp"
            )
        bad = np.flatnonzero(~((self.closes > 0) & (self.closes < np.inf)))  # nan too
        if len(bad):
            c = float(self.closes[bad[0]])
            raise InvalidValue(f"{self.symbol}: close {c!r} at row {bad[0]} is not > 0 and finite")

    def __len__(self):
        return len(self.times)

    def to_csv(self, path):
        """Write the normalized `open_time_ms,close` CSV to the file at `path`."""
        write_series_csv(path, "open_time_ms,close", self.times, self.closes)

    @classmethod
    def from_csv(cls, path, symbol="", pool=None):
        """Read the file at `path`, a normalized `open_time_ms,close` CSV
        (comment lines allowed), in byte ranges on `pool` if given."""
        return cls(symbol, *read_series_csv(path, pool))


def write_series_csv(path, header, times, values, header_comment=None, pool=None):
    """Write `header`, then one `time,value` row per point, to the file at
    `path`. Each row is the bytes of `f"{t},{v!r}\\n"`, and repr round-trips
    float64 exactly. Rows are formatted as ASCII bytes by
    `csvrows.format_rows`, in chunks of `_WRITE_ROWS`, on `pool` when
    given, and written in order."""
    chunks = ((times[i:i + _WRITE_ROWS], values[i:i + _WRITE_ROWS])
              for i in range(0, len(times), _WRITE_ROWS))
    head = (f"# {header_comment}\n" if header_comment else "") + header + "\n"
    rows = pool_map(pool, _format_rows, chunks)
    with open(path, "wb") as f:
        f.write(head.encode("utf-8", "surrogateescape"))
        f.writelines(rows)


def _format_rows(chunk):
    return format_rows(*chunk)


def read_series_csv(path, pool=None, kline=False):
    """Read the file at `path`, a two-column `time,value` CSV or, with
    `kline`, a Binance kline CSV (`_kline_row`), into C-contiguous int64
    times and float64 values. Both formats skip blank lines, `#` comments
    and an `open_time_ms` header, and split fields at every comma: no CSV
    quoting. A line that is not UTF-8 or not a row raises MalformedRow; a
    time outside the int64 range raises InvalidValue.

    numpy's C parser reads the file in byte ranges (`_read_ranges`), one
    per worker of `pool`, or one here without a pool. Each range is parsed
    from its own bytes to its end, so every line reaches numpy, whatever
    the worker count; a kline range's rows are then checked by column.
    With its deprecation warnings raised as errors numpy accepts no input
    the per-line reader rejects: numpy before 2.0 reads an integer field
    such as `1.0`, `1e3` or one beyond int64 through a float and only
    warns. If any range fails, or the file's size reads 0, as a pipe's
    does, the per-line reader reads the file once, start to end, and
    decides: what it accepts, and the error and line number it reports."""
    rows = _read_ranges(path, pool, kline) if os.path.getsize(path) else None
    if rows is not None:
        return rows
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
        times, values = _read_rows(f, _FORMATS[kline][2])
    return int64_times(times), np.asarray(values, dtype=np.float64)


def _skipped(line):
    """Whether the stripped `line` is blank, a `#` comment or an
    `open_time_ms` header. Raises UnicodeEncodeError on a lone surrogate."""
    if not line.isascii():
        line.encode("utf-8")
    return not line or line.startswith("#") or line.lower().startswith("open_time_ms")


def _lone_cr(data):
    """Whether `data` holds a carriage return that is not part of a CRLF:
    numpy ends a line there, and a split on newlines does not."""
    return b"\r" in data and data.count(b"\r") != data.count(b"\r\n")


def _read_ranges(path, pool=None, kline=False):
    """The rows of the seekable file at `path`, a kline CSV if `kline`,
    parsed in one byte range per worker of `pool`, or without a pool in one
    range, `[0, size)`, here; None if any range fails. The file is split at
    equal shares of its size, each split moved to just after the next
    newline. A range is parsed in blocks (`_parse_range`), so no process
    holds its bytes or its rows.

    Each range writes each block's times, then its values, to a file in a
    temporary directory, and this process reads them straight into the two
    columns. Sent back through the pool, they would arrive in pipe reads
    whose sizes depend on timing, and glibc's sliding mmap threshold then
    left this process's peak RSS at 246 or 304 MB from one paper-scale run
    to the next; a buffer larger than a column, freed, moves it too."""
    size = os.path.getsize(path)
    n = pool.workers if pool is not None else 1
    bounds = [0]
    with open(path, "rb") as f:
        for k in range(1, n):
            f.seek(max(bounds[-1], size * k // n))
            f.readline()
            bounds.append(f.tell())
    bounds.append(size)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, str(k)) for k in range(n)]
        jobs = zip(bounds, bounds[1:], outs)
        blocks = list(pool_map(pool, partial(_parse_range, path, kline), jobs))
        if None in blocks or not (rows := sum(map(sum, blocks))):
            return None
        columns = np.empty(rows, np.int64), np.empty(rows, np.float64)
        at = 0
        for out, counts in zip(outs, blocks):
            with open(f"{out}.rows", "rb") as f:
                for count in counts:
                    if any(f.readinto(c[at:at + count]) != c.itemsize * count for c in columns):
                        return None
                    at += count
        return columns


def _parse_range(path, kline, job):
    """Parse the rows in bytes [start, end) of the file at `path`, a kline
    CSV if `kline`, where `start` is 0 or follows a newline, and return the
    count of rows of each block. The range's leading lines that `_skipped`
    skips are dropped. The rest is parsed in blocks: each block,
    `_READ_BLOCK` bytes and on to just after the next newline or to the
    range's end, is copied verbatim to the file `out`, numpy parses the copy
    to its end, and the block's times, then its values, are appended to the
    file `out.rows`. Any line numpy cannot parse, the range's last
    included, makes it fail. Neither the range's bytes nor its rows are
    ever held whole.

    Returns None where the per-line reader must decide instead: a line
    numpy rejects, one `_skipped` cannot read, a kline row without positive,
    finite prices that pass `_kline_row`'s checks, or a lone carriage return
    (`_lone_cr`) in a leading line. numpy opens each copy as text, with
    Python's universal newlines, as the per-line reader opens the file, so
    both end a line at a CRLF, a newline or a lone carriage return; a block
    ends after a newline, so no CRLF is split between two blocks."""
    start, end, out = job
    dtype, usecols, _ = _FORMATS[kline]
    counts = []
    try:
        with (open(path, "rb") as f, open(out, "wb") as copy, open(f"{out}.rows", "wb") as rows,
              warnings.catch_warnings()):
            warnings.simplefilter("error", DeprecationWarning)
            # a block of blank lines parses to no rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            f.seek(start)
            line = f.readline(end - start)
            while line and _skipped(line.decode("utf-8", "surrogateescape").strip()):
                if _lone_cr(line):
                    return None
                line = f.readline(end - f.tell())
            block = memoryview(bytearray(min(_READ_BLOCK, end - f.tell())))
            while True:
                # each block overwrites the last: truncating a file to 0 frees its disk blocks
                copy.seek(0)
                copy.write(line)  # the first line that is not skipped, in the first block
                copy.write(block[:f.readinto(block[:end - f.tell()])])
                copy.write(f.readline(end - f.tell()))
                if not copy.tell():
                    return counts
                copy.truncate()  # flushed too
                line = b""
                parsed = np.loadtxt(out, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                                    encoding="utf-8", usecols=usecols)
                if kline:  # low > 0 and high < inf bound the prices they bracket; nan fails all
                    low, high, o, c = (parsed[k] for k in ("low", "high", "open", "v"))
                    if not np.all((low > 0) & (high < np.inf) & (low <= np.minimum(o, c))
                                  & (high >= np.maximum(o, c))
                                  & (parsed["close_time"] > parsed["t"])):
                        return None
                for name in ("t", "v"):  # tofile writes a strided view slowly
                    rows.write(np.ascontiguousarray(parsed[name]))
                counts.append(len(parsed))
    except (ValueError, OverflowError, DeprecationWarning, OSError):
        return None


def _read_rows(f, row):
    """The per-line reader: lists of int times and float values, a pair from
    `row` per line; a ValueError from `row` is MalformedRow at its line."""
    times, values = [], []
    for i, line in enumerate(f, start=1):
        try:
            line = line.strip()
            if _skipped(line):
                continue
            t, v = row(line)
            times.append(t)
            values.append(v)
        except UnicodeEncodeError as exc:
            raise MalformedRow(i, "not UTF-8 text") from exc
        except ValueError as exc:
            raise MalformedRow(i, str(exc)) from exc
    if not times:
        raise EmptyInput("no data rows")
    return times, values


def _series_row(line):
    t, v = line.split(",")
    return int(t), float(v)


def _kline_row(line):
    """The open time and close of a Binance kline row: open_time, open, high,
    low, close, volume, close_time, .... Prices must be strictly positive and
    bracketed by low/high, and close_time must follow open_time."""
    fields = line.split(",")
    if len(fields) < 7:
        raise ValueError(f"expected >= 7 fields, got {len(fields)}")
    open_time = int(fields[0])
    open_, high, low, close, _volume = map(float, fields[1:6])
    close_time = int(fields[6])
    if any(p <= 0 for p in (open_, high, low, close)):
        raise ValueError("non-positive price")
    if low > min(open_, close) or high < max(open_, close):
        raise ValueError("low/high do not bracket open/close")
    if close_time <= open_time:
        raise ValueError("close_time must exceed open_time")
    return open_time, close


# by format, kline or not: numpy's dtype and columns, and the per-line row
_FORMATS = {False: (_ROW, None, _series_row), True: (_KLINE, range(7), _kline_row)}


def int64_times(times):
    """`times` as an int64 array; a value out of range is InvalidValue."""
    try:
        return np.asarray(times, dtype=np.int64)
    except OverflowError as exc:
        raise InvalidValue(f"timestamp outside the int64 range: {exc}") from exc


def find_gaps(times):
    """Return the first missing minute of each gap (ms) in the strictly
    increasing `times`, or empty list."""
    times = np.asarray(times, dtype=np.int64)
    gaps = []
    for start in range(0, len(times) - 1, _GAP_SLICE):  # scratch is one slice's difference
        # the difference of increasing times is exact in uint64; in int64 it wraps
        steps = np.diff(times[start:start + _GAP_SLICE + 1].view(np.uint64))
        gaps += [int(times[start + i] + MINUTE_MS) for i in np.flatnonzero(steps > MINUTE_MS)]
    return gaps


def _warn_gaps(symbol, times):
    gaps = find_gaps(times)
    if gaps:
        warnings.warn(
            GapWarning(
                f"{symbol}: {len(gaps)} gap(s), first missing minute at {gaps[0]} ms"
            ),
            stacklevel=3,
        )


def read_leg(path, symbol, pool=None):
    """Read one leg file as a PriceSeries, in byte ranges on `pool` if given
    (`read_series_csv`). Its first line that is neither blank nor a `#`
    comment decides the format: seven or more comma-separated fields mean a
    Binance kline CSV, anything else a normalized `open_time_ms,close` CSV.
    A kline leg's rows are sorted by open time, and its gaps warn."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
        first = next((s for s in map(str.strip, f) if s and not s.startswith("#")), "")
    if first.count(",") < 6:
        return PriceSeries.from_csv(path, symbol, pool)
    times, closes = read_series_csv(path, pool, kline=True)
    if np.any(times[1:] < times[:-1]):
        order = np.argsort(times, kind="stable")
        times, closes = times[order], closes[order]
    series = PriceSeries(symbol, times, closes)
    _warn_gaps(symbol, series.times)
    return series


@dataclass
class FetchConfig:
    endpoint: str = BINANCE_KLINES_URL
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


def fetch_klines(symbol, start_ms, end_ms, session=None, config=None):
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

    times, closes = [], []
    cursor = start_ms
    while cursor < end_ms:
        params = {
            "symbol": symbol,
            "interval": "1m",
            "startTime": cursor,
            "endTime": end_ms - 1,
            "limit": PAGE_LIMIT,
        }
        page = _kline_page(_get_with_retries(session, cfg.endpoint, params, cfg), cfg.endpoint)
        if not page:
            break
        for t, close in page:
            if t >= end_ms:
                break
            times.append(t)
            closes.append(close)
        cursor = page[-1][0] + MINUTE_MS
        if len(page) < PAGE_LIMIT:
            break
        if cfg.pause_s:
            cfg.sleep(cfg.pause_s)

    if not times:
        raise EmptyInput(f"{symbol}: endpoint returned no rows")
    series = PriceSeries(symbol=symbol, times=times, closes=closes)
    _warn_gaps(symbol, series.times)
    return series
