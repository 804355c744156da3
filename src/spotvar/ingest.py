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

# with a pool, a plain-path file larger than this is parsed in byte ranges
_SPLIT_BYTES = 4 << 20
# rows formatted per job of the CSV writer
_WRITE_ROWS = 1 << 16
# names that numpy's loadtxt decompresses (numpy.lib._datasource)
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# bytes a range's worker reads at a time while it counts lines and commas
_BLOCK = 1 << 20
# a range's worker skips the lines before it at about this share of the cost
# of parsing them (numpy at paper scale), so later ranges are shorter
_SKIP_COST = 0.2
_ROW = np.dtype([("t", np.int64), ("v", np.float64)])


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
    def from_csv(cls, path_or_buf, symbol="", pool=None):
        """Read a normalized `open_time_ms,close` CSV (comment lines allowed)."""
        return cls(symbol, *read_series_csv(path_or_buf, pool))


def _is_path(path_or_buf):
    return isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")


def _open(path_or_buf, mode):
    """A path opened as UTF-8 text, where bytes that are not UTF-8 read as
    lone surrogates; a text buffer as it is, left open."""
    if _is_path(path_or_buf):
        return open(path_or_buf, mode, newline="", encoding="utf-8", errors="surrogateescape")
    return contextlib.nullcontext(path_or_buf)


def _plain_path(path_or_buf):
    """`path_or_buf` as an absolute path, which numpy never takes for a URL,
    or None for a buffer or a name numpy would decompress."""
    if not _is_path(path_or_buf):
        return None
    path = os.path.abspath(os.fsdecode(path_or_buf))
    return None if path.endswith(_COMPRESSED) else path


def write_series_csv(path_or_buf, header, times, values, header_comment=None, pool=None):
    """Write `header`, then one `time,value` row per point, to a path or a
    text buffer. Each row is the bytes of `f"{t},{v!r}\\n"`, and repr
    round-trips float64 exactly. Rows are formatted as ASCII bytes by
    `csvrows.format_rows`, in chunks of `_WRITE_ROWS`, on `pool` when
    given, and written in order: to a path in binary mode, to a text
    buffer decoded."""
    chunks = ((times[i:i + _WRITE_ROWS], values[i:i + _WRITE_ROWS])
              for i in range(0, len(times), _WRITE_ROWS))
    head = (f"# {header_comment}\n" if header_comment else "") + header + "\n"
    rows = pool_map(pool, _format_rows, chunks)
    if not _is_path(path_or_buf):
        path_or_buf.write(head)
        path_or_buf.writelines(chunk.decode("ascii") for chunk in rows)
        return
    with open(path_or_buf, "wb") as f:
        f.write(head.encode("utf-8", "surrogateescape"))
        f.writelines(rows)


def _format_rows(chunk):
    return format_rows(*chunk)


def read_series_csv(path_or_buf, pool=None):
    """Read a two-column `time,value` CSV into C-contiguous int64 times and
    float64 values. Blank lines, `#` comments and an `open_time_ms` header
    are skipped. A line that is not UTF-8 or not two numbers raises
    MalformedRow; a time outside the int64 range raises InvalidValue.

    numpy's C parser reads a plain path in byte ranges (`_read_ranges`):
    one per worker of `pool` when the file is above `_SPLIT_BYTES`, else
    one range, here. With its deprecation warnings raised as errors it
    accepts no input the per-line reader rejects: numpy before 2.0 reads an
    integer field such as `1.0`, `1e3` or one beyond int64 through a float
    and only warns. If any range fails, and for a text buffer or a name
    numpy would decompress, the per-line reader reads the whole input and
    decides: what it accepts, and the error and line number it reports."""
    path = _plain_path(path_or_buf)
    if path:
        split = pool is not None and os.path.getsize(path) > _SPLIT_BYTES
        rows = _read_ranges(path, pool if split else None)
        if rows is not None:
            return rows
    with _open(path_or_buf, "r") as f:
        times, values = _read_rows(f)
    return int64_times(times), np.asarray(values, dtype=np.float64)


def _skipped(line):
    """Whether the stripped `line` is blank, a `#` comment or an
    `open_time_ms` header. Raises UnicodeEncodeError on a lone surrogate."""
    if not line.isascii():
        line.encode("utf-8")
    return not line or line.startswith("#") or line.lower().startswith("open_time_ms")


def _loadtxt(path, skiprows, max_rows):
    """Rows of the file at `path` parsed by numpy into a structured array,
    deprecation warnings raised as errors. numpy's warning that a blank
    line does not count towards `max_rows` is silenced: blank lines are
    skipped by design."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        return np.loadtxt(path, dtype=_ROW, delimiter=",", comments=None,
                          skiprows=skiprows, max_rows=max_rows, ndmin=1, encoding="utf-8")


def _lone_cr(data):
    """Whether `data` holds a carriage return that is not part of a CRLF:
    numpy ends a line there, and a count of newlines does not."""
    return b"\r" in data and data.count(b"\r") != data.count(b"\r\n")


def _blocks(f, stop):
    """The bytes of binary file `f` from where it is up to offset `stop`, in
    blocks that never end between the carriage return and newline of a CRLF."""
    while f.tell() < stop:
        block = f.read(min(_BLOCK, stop - f.tell()))
        if not block:
            return
        if block.endswith(b"\r") and f.tell() < stop:
            block += f.read(1)
        yield block


def _read_ranges(path, pool=None):
    """The rows of the file at `path`, parsed in one byte range per worker of
    `pool`, each starting after a newline, or without a pool in one range,
    `[0, size)`, here; None if any range fails.

    Each range writes its times, then its values, to a file in a temporary
    directory, and this process reads them straight into the two columns.
    Sent back through the pool, they would arrive in pipe reads whose sizes
    depend on timing, and glibc's sliding mmap threshold then left this
    process's peak RSS at 246 or 304 MB from one paper-scale run to the
    next; a buffer larger than a column, freed, moves it too."""
    size, keep = os.path.getsize(path), 1 - _SKIP_COST
    n = pool.workers if pool is not None else 1
    bounds = [0]
    with open(path, "rb") as f:
        for k in range(1, n):
            # range j costs its length plus _SKIP_COST times its start: equal costs
            f.seek(max(bounds[-1], int(size * (1 - keep**k) / (1 - keep**n))))
            f.readline()
            bounds.append(f.tell())
    bounds.append(size)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, str(k)) for k in range(n)]
        jobs = zip(bounds, bounds[1:], outs)
        counts = list(pool_map(pool, partial(_parse_range, path), jobs))
        if None in counts or not sum(counts):
            return None
        columns = np.empty(sum(counts), np.int64), np.empty(sum(counts), np.float64)
        at = 0
        for out, count in zip(outs, counts):
            with open(out, "rb") as f:
                if any(f.readinto(c[at:at + count]) != c.itemsize * count for c in columns):
                    return None
            at += count
        return columns


def _parse_range(path, job):
    """Parse the rows in bytes [start, end) of the file at `path`, where
    `start` is 0 or follows a newline, write their times, then their
    values, to the file `out`, and return their count. The range's leading
    lines that `_skipped` skips are skipped, and numpy parses exactly the
    lines after them. numpy is told where they begin by their line number
    and where they end by their count of commas, one per row; a line it
    skips (an empty one) has none, and one with more or fewer fails.

    Returns None where the per-line reader must decide instead: a line
    numpy rejects, one `_skipped` cannot read, or a lone carriage return
    (`_lone_cr`) anywhere up to `end`, which numpy would count as a line
    end. A CRLF is one line end to both, and numpy parses it."""
    start, end, out = job
    try:
        with open(path, "rb") as f:
            line_no = rows = 0
            for block in _blocks(f, start):
                if _lone_cr(block):
                    return None
                line_no += block.count(b"\n")
            while f.tell() < end:
                line = f.readline()
                if _lone_cr(line):
                    return None
                if not _skipped(line.decode("utf-8", "surrogateescape").strip()):
                    rows = line.count(b",")
                    break
                line_no += 1
            for block in _blocks(f, end):
                if _lone_cr(block):
                    return None
                rows += block.count(b",")
        parsed = _loadtxt(path, skiprows=line_no, max_rows=rows) if rows else np.empty(0, _ROW)
        if len(parsed) != rows:
            return None
        with open(out, "wb") as f:
            for name in ("t", "v"):
                f.write(np.ascontiguousarray(parsed[name]))  # tofile writes a strided view slowly
        return rows
    except (ValueError, OverflowError, DeprecationWarning, OSError):
        return None


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


def find_gaps(times):
    """Return the first missing minute of each gap (ms), or empty list."""
    times = np.asarray(times, dtype=np.int64)
    deltas = np.diff(times)
    idx = np.nonzero(deltas > MINUTE_MS)[0]
    return [int(times[i] + MINUTE_MS) for i in idx]


def _warn_gaps(symbol, times):
    gaps = find_gaps(times)
    if gaps:
        warnings.warn(
            GapWarning(
                f"{symbol}: {len(gaps)} gap(s), first missing minute at {gaps[0]} ms"
            ),
            stacklevel=3,
        )


def parse_klines(raw, symbol):
    """Parse a Binance kline CSV byte/text stream into a PriceSeries.

    Rows have >= 7 comma-separated fields in Binance archive order
    (open_time, open, high, low, close, volume, close_time, ...). Prices
    must be strictly positive and bracketed by low/high, and close_time
    must follow open_time. Rows are sorted by open_time; duplicate
    timestamps are rejected.
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
                open_time = int(fields[0])
                open_, high, low, close, _volume = map(float, fields[1:6])
                close_time = int(fields[6])
                if any(p <= 0 for p in (open_, high, low, close)):
                    raise ValueError("non-positive price")
                if low > min(open_, close) or high < max(open_, close):
                    raise ValueError("low/high do not bracket open/close")
                if close_time <= open_time:
                    raise ValueError("close_time must exceed open_time")
            except (ValueError, OverflowError) as exc:
                raise MalformedRow(reader.line_num, str(exc)) from exc
            rows.append((open_time, close))
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from exc

    if not rows:
        raise EmptyInput(f"{symbol}: zero kline rows")
    rows.sort(key=lambda row: row[0])
    series = PriceSeries(symbol, *zip(*rows))
    _warn_gaps(symbol, series.times)
    return series


def read_leg(path, symbol, pool=None):
    """Read one leg file as a PriceSeries. Its first line that is neither
    blank nor a `#` comment decides the format: seven or more
    comma-separated fields mean a Binance kline CSV (`parse_klines`),
    anything else a normalized `open_time_ms,close` CSV, which a `pool`
    parses in byte ranges when it is large (`read_series_csv`)."""
    with open(path, "rb") as f:
        first = next((s for s in map(bytes.strip, f) if s and not s.startswith(b"#")), b"")
        if first.count(b",") < 6:
            return PriceSeries.from_csv(path, symbol, pool)
        f.seek(0)
        return parse_klines(f.read(), symbol)


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
