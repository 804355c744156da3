import io
import json
import multiprocessing
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import fstring_rows
from spotvar import PriceSeries, VariationSeries, fetch_klines, ingest
from spotvar.csvrows import format_rows
from spotvar.parallel import Pool, fork_pool
from spotvar.errors import (
    EmptyInput,
    EmptyRange,
    GapWarning,
    InvalidValue,
    MalformedRow,
    NetworkError,
    NonMonotonicTimestamp,
    SpotvarError,
)
from spotvar.ingest import MINUTE_MS, FetchConfig, find_gaps

DATA = Path(__file__).parent / "data"

SINGLE_ROW = b"1504224000000,4689.89,4689.89,4689.89,4689.89,0.5,1504224059999,2344.9,1,0.5,2344.9,0\n"

# hand-read from klines_10rows.csv, field index 4 of each row
FIXTURE_CLOSES = [
    4690.12, 4693.40, 4687.25, 4691.80, 4698.01,
    4700.00, 4699.50, 4692.61, 4690.75, 4697.33,
]


def _read_klines(directory, raw, symbol="BTCUSDT"):
    """`raw`, the bytes of a kline CSV, read as a leg file."""
    path = directory / "klines.csv"
    path.write_bytes(raw)
    return ingest.read_leg(path, symbol)


class TestParseKlines:
    """Kline legs, read by `read_leg`."""

    def test_single_well_formed_row(self, tmp_path):
        series = _read_klines(tmp_path, SINGLE_ROW)
        assert len(series) == 1
        assert series.closes[0] == 4689.89
        assert series.times[0] == 1504224000000

    def test_duplicate_open_time_rejected(self, tmp_path):
        raw = SINGLE_ROW + SINGLE_ROW
        with pytest.raises(NonMonotonicTimestamp):
            _read_klines(tmp_path, raw)

    def test_ten_row_fixture_against_hand_transcription(self):
        series = ingest.read_leg(DATA / "klines_10rows.csv", "BTCUSDT")
        assert series.closes.tolist() == FIXTURE_CLOSES
        assert series.times.tolist() == [1504224000000 + 60000 * k for k in range(10)]

    def test_unsorted_rows_are_sorted(self, tmp_path):
        rows = DATA.joinpath("klines_10rows.csv").read_text().splitlines()
        shuffled = "\n".join(rows[::-1]).encode()
        series = _read_klines(tmp_path, shuffled)
        assert series.closes.tolist() == FIXTURE_CLOSES

    def test_empty_input(self, tmp_path):
        for raw in (b"", b"open_time_ms,open,high,low,close,volume,close_time\n"):
            with pytest.raises(EmptyInput):
                _read_klines(tmp_path, raw)

    def test_malformed_row_reports_line_number(self, tmp_path):
        raw = SINGLE_ROW + b"not,a,kline\n"
        with pytest.raises(MalformedRow) as exc:
            _read_klines(tmp_path, raw)
        assert exc.value.line_no == 2

    def test_malformed_row_survives_pickling(self):
        """A process pool sends errors back pickled."""
        back = pickle.loads(pickle.dumps(MalformedRow(5, "bad")))
        assert str(back) == "malformed row at line 5: bad"
        assert back.line_no == 5

    def test_unparseable_price_rejected(self, tmp_path):
        raw = b"1504224000000,abc,4689.89,4689.89,4689.89,0.5,1504224059999\n"
        with pytest.raises(MalformedRow):
            _read_klines(tmp_path, raw)

    def test_price_bracket_invariant(self, tmp_path):
        # high below close violates the kline invariant
        raw = b"1504224000000,4689.89,4600.00,4689.89,4689.89,0.5,1504224059999\n"
        with pytest.raises(MalformedRow):
            _read_klines(tmp_path, raw)

    def test_gap_warned_not_filled(self, tmp_path):
        rows = DATA.joinpath("klines_10rows.csv").read_text().splitlines()
        with_gap = "\n".join(rows[:3] + rows[4:]).encode()
        with pytest.warns(GapWarning, match=str(1504224000000 + 3 * MINUTE_MS)):
            series = _read_klines(tmp_path, with_gap)
        assert len(series) == 9  # gap preserved, nothing interpolated

    @pytest.mark.parametrize("head", [b"# exported from the archive\n",
                                      b"open_time_ms,open,high,low,close,volume,close_time\n"])
    def test_leading_comment_and_header_are_skipped(self, tmp_path, head):
        """As in a normalized leg: the sniffer and the reader skip both."""
        series = _read_klines(tmp_path, head + DATA.joinpath("klines_10rows.csv").read_bytes())
        assert series.closes.tolist() == FIXTURE_CLOSES

    def test_a_quoted_field_is_malformed(self, tmp_path):
        """Fields are split at every comma; a quote is part of its field."""
        with pytest.raises(MalformedRow) as exc:
            _read_klines(tmp_path, b'"1504224000000"' + SINGLE_ROW[13:])
        assert exc.value.line_no == 1

    def test_a_lone_carriage_return_ends_a_line(self, tmp_path):
        """In the reader, and in the sniffer that reads past a comment."""
        second = SINGLE_ROW.replace(b"1504224000000", b"1504224060000").replace(
            b"1504224059999", b"1504224119999")
        for head in (b"", b"# exported from the archive\r"):
            series = _read_klines(tmp_path, head + SINGLE_ROW[:-1] + b"\r" + second)
            assert series.times.tolist() == [1504224000000, 1504224060000]


class TestSerializationRoundTrip:
    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("round_trip") / "series.csv"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10_000),
                st.floats(min_value=1e-8, max_value=1e8, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
            unique_by=lambda p: p[0],
        )
    )
    @settings(max_examples=100)
    def test_parse_serialize_identity(self, scratch, points):
        points.sort()
        times = 1504224000000 + MINUTE_MS * np.array([p[0] for p in points], dtype=np.int64)
        closes = np.array([p[1] for p in points])
        series = PriceSeries("X", times, closes)
        series.to_csv(scratch)
        back = PriceSeries.from_csv(scratch, "X")
        assert np.array_equal(back.times, series.times)
        assert np.array_equal(back.closes, series.closes)

    def test_sample_legs_round_trip_byte_for_byte(self, tmp_path):
        for leg in ("spot", "num", "den"):
            path = DATA / "sample_legs" / f"{leg}.csv"
            PriceSeries.from_csv(path, leg).to_csv(tmp_path / leg)
            assert (tmp_path / leg).read_bytes() == path.read_bytes()

    def test_minute_grid_property(self):
        series = ingest.read_leg(DATA / "klines_10rows.csv", "B")
        deltas = np.diff(series.times)
        assert np.all(deltas > 0)
        assert np.all(deltas % MINUTE_MS == 0)


# pieces of valid and invalid rows, so examples reach the parsers' later checks
_CSV_PIECES = [
    b"0", b"1", b"60000", b"9" * 20, b"-", b".", b"e", b",", b"\n", b"\r", b" ", b"#",
    b"nan", b"inf", b"open_time_ms", b"\xff", b"\xc3", b"\xc3\xa9", b"\x00", b'"',
]
_ARBITRARY_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(_CSV_PIECES), max_size=60).map(b"".join),
)


class TestArbitraryBytes:
    """Whatever the bytes, the readers return a series or raise SpotvarError."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "input.csv"

    @given(data=_ARBITRARY_BYTES)
    @settings(max_examples=300, deadline=None)
    def test_only_package_errors(self, scratch, data):
        scratch.write_bytes(data)
        for read in (
            lambda: PriceSeries.from_csv(scratch, "X"),
            lambda: VariationSeries.from_csv(scratch),
            lambda: ingest.read_leg(scratch, "X"),
            lambda: ingest.read_series_csv(scratch, kline=True),
        ):
            try:
                read()
            except SpotvarError:
                pass

    @pytest.mark.parametrize("line", [b"60000,\xff1.5", b"# caf\xe9", b"\xc3"])
    def test_not_utf8_is_malformed_row_at_its_line(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"open_time_ms,close\n0,1.5\n" + line + b"\n120000,1.5\n")
        for read in (lambda: PriceSeries.from_csv(path, "X"),
                     lambda: VariationSeries.from_csv(path)):
            with pytest.raises(MalformedRow) as exc:
                read()
            assert exc.value.line_no == 3

    def test_kline_not_utf8_is_malformed_row_at_its_line(self, tmp_path):
        with pytest.raises(MalformedRow) as exc:
            _read_klines(tmp_path, SINGLE_ROW + b"\xff" + SINGLE_ROW, "X")
        assert exc.value.line_no == 2

    def test_timestamp_beyond_int64_is_invalid_value(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"0,1.5\n{2**63},1.5\n")
        with pytest.raises(InvalidValue):
            PriceSeries.from_csv(path, "X")
        with pytest.raises(InvalidValue):
            VariationSeries.from_csv(path)
        with pytest.raises(InvalidValue):
            _read_klines(tmp_path, f"{2**63},1,1,1,1,1,{2**64}\n".encode(), "X")


def _mostly(usual, odd):
    """`usual` four times in five, else `odd`: most examples then hold
    whole files the fast path accepts, so a looser fast path shows."""
    return st.integers(0, 4).flatmap(lambda k: usual if k else odd)


_TIME_FIELD = _mostly(
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(str),
    st.one_of(
        st.integers(min_value=2**63, max_value=2**66).map(str),  # beyond int64
        st.integers(min_value=-(2**66), max_value=-(2**63) - 1).map(str),
        st.sampled_from(["1_0", "\u0661\u0662", "+7", "007", " 5 ", "1.0", "1e3", "", "0x1f",
                         "#1"]),
    ),
)
_VALUE_FIELD = _mostly(
    st.one_of(st.floats().map(repr), st.floats(width=32).map(str)),
    st.sampled_from([
        "nan", "-nan", "-inf", "Infinity", "1_0.5", "\u0663.\u0665", "1e400", ".5", "5.",
        "0x1p3", "nan(1)", "", " 2.5\t", "2 5", "2.5#c", "2.5 # c", "2.5,",
    ]),
)
_OTHER_LINE = st.sampled_from([
    "", "   ", "\t", "\x0c", "\xa0", "# comment", "  # indented", "#caf\xe9",
    "open_time_ms,close", "OPEN_TIME_MS,variation", "1,2,3", "abc", ",",
    "open_time_ms,open,high,low,close,volume,close_time",
])


_PRICE = st.floats(1e-300, 1e300).map(repr)
# one price for all four, or four that low and high bracket
_GOOD_PRICES = _PRICE.map(lambda p: [p] * 4) | st.lists(
    st.floats(1e-8, 1e8), min_size=4, max_size=4).map(sorted).map(
    lambda p: [repr(p[1]), repr(p[3]), repr(p[0]), repr(p[2])])
_ANY_PRICES = st.lists(
    _mostly(_PRICE, st.sampled_from(["0", "-0.0", "-1.5", "nan", "inf", "-inf", "1e400",
                                     "1_0.5", " 2.5\t", '"2.5"', ""])),
    min_size=4, max_size=4)


@st.composite
def _kline_lines(draw, odd_one_in, time):
    """A kline row: open time, open, high, low, close, volume, close time
    and five more fields. One row in `odd_one_in` is odd: each of its open
    time, prices, volume, close time and width is drawn at random one time
    in five. Any other row is well-formed: a `time`, one price for all four
    or four that bracket, a close time a minute on, and 7, 8 or 12 fields."""
    row_is_odd = draw(st.integers(0, odd_one_in - 1)) == 0

    def odd(strategy, usual):
        return draw(_mostly(usual, strategy) if row_is_odd else usual)

    t = odd(_TIME_FIELD, time)
    try:
        later = str(int(t) + 59_999)
    except ValueError:
        later = t
    fields = [t, *odd(_ANY_PRICES, _GOOD_PRICES), odd(_VALUE_FIELD, st.just("1.5")),
              odd(_TIME_FIELD, st.just(later)), "0", "1", "0", "0", "0"]
    return ",".join(fields[:odd(st.integers(1, 12), st.sampled_from([7, 8, 12]))])


def _csv_text(row):
    return st.lists(
        st.tuples(_mostly(row, _OTHER_LINE), st.sampled_from(["\n", "\r\n", "\r", ""])),
        max_size=8,
    ).map(lambda lines: "".join(line + end for line, end in lines))


_CSV_TEXT = {  # by format: kline or not
    False: _csv_text(st.builds("{},{}".format, _TIME_FIELD, _VALUE_FIELD)),
    True: _csv_text(_kline_lines(5, _TIME_FIELD)),
}


def _outcome(read):
    """Arrays read, or the class and line number of the error raised."""
    try:
        return read()
    except SpotvarError as exc:
        return type(exc), getattr(exc, "line_no", None)


def _per_line(buf, kline=False):
    times, values = ingest._read_rows(buf, ingest._FORMATS[kline][2])
    return ingest.int64_times(times), np.asarray(values, dtype=np.float64)


def _per_line_outcome(path, kline=False):
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
        return _outcome(lambda: _per_line(f, kline))


def _assert_same_outcome(fast, per_line):
    if isinstance(per_line[0], type):
        assert fast == per_line
        return
    assert not isinstance(fast[0], type), fast
    for got, want in zip(fast, per_line):
        assert got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))  # bit-equal


class TestFastReaderMatchesPerLine:
    """`read_series_csv` parses with numpy; whatever the text, it returns
    what the per-line reader returns, bit for bit, or raises the same error
    class at the same line, for normalized and kline CSVs alike."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("differential") / "input.csv"

    @given(texts=st.tuples(_CSV_TEXT[False], _CSV_TEXT[True]))
    @example(texts=("0,nan\nabc\n",  # a line without a comma after the last row
                    "60000,1.5,1.5,1.5,1.5,1,119999\n12345\n"))
    @example(texts=("60000,1.5\n12345\n", "60000,1.5,1.5,1.5,0,1,119999\n"))  # a zero close
    @settings(max_examples=500, deadline=None)
    def test_same_outcome(self, scratch, texts):
        """Each example is a normalized and a kline text."""
        for kline, text in zip((False, True), texts):
            scratch.write_bytes(text.encode("utf-8"))
            from_path = _outcome(lambda: ingest.read_series_csv(scratch, kline=kline))
            _assert_same_outcome(from_path, _per_line_outcome(scratch, kline))

    @pytest.mark.parametrize("text", [
        "open_time_ms,close\n60000,1.5\n",  # one row
        "# c\r\n\r\n60000,1.5\r\n120000,nan\r\n",
        "60000,1.5\n# interior comment\n120000,2.5\n",
        "60000,1.5\n1_20000,2_5\n",
        "\u0666\u0660000,1.5\n",
        f"60000,1.5\n{2**63},2.5\n",
        "60000,1.5\n120000,abc\n",
        "60000,1.5\n1.0,2.5\n",
        "60000,1.5\n1e3,2.5\n",
        "# c\r\nopen_time_ms,open,high,low,close,volume,close_time\r\n60000,2,3,1,2,1,119999\r\n",
        "60000,2,3,1,2,1,119999\n120000,2,3,1,nan,1,179999\n",
        "60000,2,3,1,2,1,119999\n120000,2,3,1,2,1\n",
        "60000,2,3,1,2,1,119999,0,1,0,0,0\n120000,2,3,1,2,1,179999,0\n",
    ])
    def test_edge_cases(self, tmp_path, text):
        """A one-row file, CRLF after a leading comment and blank line, and
        seven inputs the fast path hands to the per-line reader; kline rows
        after a header, with a nan close, of six fields and of mixed widths.
        Each file is read as both formats."""
        path = tmp_path / "input.csv"
        path.write_text(text, newline="")
        for kline in (False, True):
            _assert_same_outcome(_outcome(lambda: ingest.read_series_csv(path, kline=kline)),
                                 _outcome(lambda: _per_line(io.StringIO(text), kline)))

    @pytest.mark.parametrize("text", [
        "60000,1.5\n1.0,2.5\n", "60000,1.5\n1e3,2.5\n", f"60000,1.5\n{2**63},2.5\n",
    ])
    def test_loadtxt_deprecation_falls_back(self, monkeypatch, tmp_path, text):
        """numpy before 2.0 reads an integer field through a float and only
        warns; that warning hands the file to the per-line reader."""
        def loose_loadtxt(path, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            with open(path) as f:
                lines = f.read().splitlines()
            rows = [tuple(map(float, line.split(","))) for line in lines]
            with np.errstate(invalid="ignore"):  # a time beyond int64 wraps silently
                return np.array(rows, dtype=[("t", np.float64), ("v", np.float64)]).astype(dtype)

        path = tmp_path / "input.csv"
        path.write_text(text)
        monkeypatch.setattr(np, "loadtxt", loose_loadtxt)
        with pytest.raises(SpotvarError) as exc:
            ingest.read_series_csv(path)
        assert _outcome(lambda: _per_line(io.StringIO(text))) == (
            type(exc.value), getattr(exc.value, "line_no", None))


def _rarely(usual, odd):
    """`odd` one time in twenty, else `usual`: most examples then hold files
    that every byte range parses, so a range that reads too much shows."""
    return st.integers(0, 19).flatmap(lambda k: usual if k else odd)


_TIME_62 = st.integers(-(2**62), 2**62).map(str)
_RANGE_LINE = {  # by format: kline or not
    False: _rarely(
        st.builds("{},{}".format, _rarely(_TIME_62, _TIME_FIELD),
                  _rarely(st.floats().map(repr), _VALUE_FIELD)),
        st.sampled_from(["", "", "# comment", "#caf\xe9", "open_time_ms,close", "   ", "1,2,3",
                         "# lone carriage return\r1,2.5"]),
    ),
    True: _rarely(
        _kline_lines(20, _TIME_62),
        st.sampled_from(["", "", "# comment", "#caf\xe9", "   ", "1,2,3,4,5,6",
                         "open_time_ms,open,high,low,close,volume,close_time",
                         "# lone carriage return\r1,2,2,1,2,1.5,60000"]),
    ),
}
_RANGE_FILE = {kline: st.fixed_dictionaries({  # by format: kline or not
    "lines": st.lists(_RANGE_LINE[kline], min_size=1, max_size=40),
    "end": _rarely(st.just("\n"), st.just("\r\n")),
    "trailing_newline": _mostly(st.just(True), st.just(False)),
    "not_utf8_at": _rarely(st.none(), st.floats(0.5, 1.0)),  # a share of the file
    "name": _rarely(st.just("input.csv"), st.just("input.csv.gz")),
    "workers": st.sampled_from([2, 3, 5]),
    "kline": st.just(kline),
}) for kline in (False, True)}


def _rows(n, kline=False):
    """`n` distinct well-formed rows; kline rows of twelve fields."""
    if kline:
        return [f"{60_000 * k},{(k + 1) / 7!r},{(k + 2) / 7!r},{(k + 1) / 14!r},{(k + 1) / 7!r},"
                f"1.5,{60_000 * k + 59_999},0,1,0,0,0" for k in range(n)]
    return [f"{60_000 * k},{k / 7!r}" for k in range(n)]


def _spec(lines, end="\n", workers=3, kline=False):
    return {"lines": lines, "end": end, "trailing_newline": True, "not_utf8_at": None,
            "name": "input.csv", "workers": workers, "kline": kline}


# a row, a lone carriage return and a row on the line at index 20 of 40, inside
# the second of three ranges: numpy ends a line at the carriage return, as the
# per-line reader does, and the ranges parse the file
_LONE_CR_IN_RANGE = _rows(40)
_LONE_CR_IN_RANGE[20] = "1200000,1.5\r1200001,2.5"


def _range_file(directory, spec):
    data = spec["end"].join(spec["lines"]).encode("utf-8")
    if spec["trailing_newline"]:
        data += spec["end"].encode()
    if spec["not_utf8_at"] is not None:
        at = int(spec["not_utf8_at"] * len(data))
        data = data[:at] + b"\xff" + data[at:]
    path = directory / spec["name"]
    path.write_bytes(data)
    return path


class TestRangeReader:
    """With a pool, `read_series_csv` parses a file in one byte range per
    worker. Whatever the text, it returns what the serial reader returns,
    bit for bit, or raises the same error at the same line."""

    @pytest.fixture(scope="class")
    def pool(self):
        with fork_pool(5) as pool:
            yield pool

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("ranges")

    # no shrink phase: each shrink step runs pool jobs on files, and shrinking
    # one failure took minutes and hundreds of MB; a failure reports the
    # example hypothesis first found
    @given(specs=st.tuples(_RANGE_FILE[False], _RANGE_FILE[True]))
    @example(specs=(_spec(_LONE_CR_IN_RANGE),
                    _spec(_rows(40, kline=True), end="\r\n", kline=True)))
    @example(specs=(_spec(_rows(40), end="\r\n"), _spec(_rows(40, kline=True), kline=True)))
    @settings(max_examples=300, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    def test_same_outcome_as_the_serial_reader(self, pool, scratch, specs):
        """Also in one range, in this process. Each example is a normalized
        and a kline file."""
        for spec in specs:
            path, kline = _range_file(scratch, spec), spec["kline"]
            split = Pool(pool.executor, spec["workers"])  # one range per worker
            serial = _per_line_outcome(path, kline)
            _assert_same_outcome(_outcome(lambda: ingest.read_series_csv(path, kline=kline)),
                                 serial)
            # the ranges' rows if they parse the file, else the serial reader's
            _assert_same_outcome(_outcome(lambda: ingest.read_series_csv(path, split, kline)),
                                 serial)

    def test_ranges_skip_blank_lines_without_reading_the_next_range(self, pool, tmp_path):
        """Every range holds a blank line, which numpy skips: each range
        returns its own rows, none of the next range's, and the file has
        no trailing newline. Normalized and kline files."""
        for kline in (False, True):
            lines = ["# leading comment", "open_time_ms,close"]
            for k, row in enumerate(_rows(300, kline)):
                lines += [row, ""] if k % 10 == 3 else [row]
            path = tmp_path / "blank.csv"
            path.write_text("\n".join(lines))  # no trailing newline
            serial = ingest.read_series_csv(path, kline=kline)
            assert len(serial[0]) == 300
            for workers in (2, 3, 5):
                ranges = ingest._read_ranges(str(path), Pool(pool.executor, workers), kline)
                assert ranges is not None
                _assert_same_outcome(ranges, serial)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_line_without_a_comma_fails_wherever_it_is(self, pool, tmp_path, workers):
        """`abc` at every place in a file of 40 rows, normalized or kline,
        read in byte ranges however they fall: the last line of a range and
        of the file too."""
        split = Pool(pool.executor, workers)
        path = tmp_path / "abc.csv"
        for kline in (False, True):
            rows = _rows(40, kline)
            for k in range(len(rows) + 1):
                path.write_text("\n".join(rows[:k] + ["abc"] + rows[k:]) + "\n")
                read = _outcome(lambda: ingest.read_series_csv(path, split, kline))
                _assert_same_outcome(read, (MalformedRow, k + 1))

    @pytest.mark.parametrize("bad", [b"\xff", b"x", b"\r"])
    def test_a_failed_range_hands_the_file_to_the_serial_reader(self, pool, tmp_path, bad):
        for kline in (False, True):
            rows = _rows(300, kline)
            rows[250] = rows[250].replace(",", bad.decode("latin-1") + ",", 1)
            path = tmp_path / "bad.csv"
            path.write_bytes("\n".join(rows).encode("latin-1") + b"\n")
            assert ingest._read_ranges(str(path), pool, kline) is None
            serial = _outcome(lambda: ingest.read_series_csv(path, kline=kline))
            assert _outcome(lambda: ingest.read_series_csv(path, pool, kline)) == serial
            assert serial == (MalformedRow, 251)

    @pytest.mark.parametrize("odd, in_ranges", [
        ("{t},0,1,1,1,1.5,{c}", False),  # a zero open
        ("{t},1,1,-1,1,1.5,{c}", False),  # a negative low
        ("{t},1,2,1,nan,1.5,{c}", False),  # a nan close, which the per-line reader accepts
        ("{t},1,inf,1,1,1.5,{c}", False),  # an infinite high, which it accepts too
        ("{t},1,2,1,3,1.5,{c}", False),  # a high below the close
        ("{t},1,1,1,1,1.5,{t}", False),  # close_time not after open_time
        ("{t},1,1,1,1,1.5", False),  # six fields
        ("{t},1,2,0.5,1,1.5,{c},0", True),  # eight fields among twelve
        ("\n\n", True),  # a run of three blank lines
    ])
    def test_an_odd_kline_line_wherever_it_is(self, pool, tmp_path, odd, in_ranges):
        """One odd line at every place in a kline file of 12 rows, at 1, 2
        and 3 workers, so at both edges of every range: the byte ranges
        parse the file to the per-line reader's rows, or hand it over."""
        rows = _rows(12, kline=True)
        path = tmp_path / "odd.csv"
        for k in range(len(rows) + 1):
            t = 60_000 * k - 30_000  # between its neighbours' open times
            line = odd.format(t=t, c=t + 29_999)
            path.write_text("\n".join(rows[:k] + [line] + rows[k:]) + "\n")
            serial = _per_line_outcome(path, kline=True)
            for split in (None, Pool(pool.executor, 2), Pool(pool.executor, 3)):
                ranges = ingest._read_ranges(str(path), split, kline=True)
                if in_ranges:
                    _assert_same_outcome(ranges, serial)
                else:
                    assert ranges is None
            _assert_same_outcome(_outcome(lambda: ingest.read_series_csv(path, pool, True)),
                                 serial)

    def test_kline_rows_sorted_and_duplicates_rejected(self, pool, tmp_path):
        """`read_leg` sorts the rows of a kline leg by open time at 1, 2 and
        3 workers; a duplicate open time is NonMonotonicTimestamp."""
        rows = _rows(40, kline=True)
        order = np.random.default_rng(3).permutation(len(rows))
        shuffled, duplicate = tmp_path / "shuffled.csv", tmp_path / "duplicate.csv"
        shuffled.write_text("".join(f"{rows[i]}\n" for i in order))
        duplicate.write_text("".join(f"{row}\n" for row in rows[:30] + rows[29:]))
        want = _per_line_outcome(_range_file(tmp_path, _spec(rows, kline=True)), kline=True)
        for split in (None, Pool(pool.executor, 2), Pool(pool.executor, 3)):
            assert ingest._read_ranges(str(shuffled), split, kline=True) is not None
            leg = ingest.read_leg(shuffled, "X", split)
            _assert_same_outcome((leg.times, leg.closes), want)
            with pytest.raises(NonMonotonicTimestamp):
                ingest.read_leg(duplicate, "X", split)

    @pytest.mark.parametrize("head, end", [("# lone carriage return\r1,2.5\n", "\n"),
                                           ("open_time_ms,close\r\n", "\r\n")])
    def test_a_carriage_return_hands_the_file_to_the_serial_reader(self, pool, tmp_path,
                                                                    head, end):
        """Python and numpy end a line at a lone carriage return, the split
        of a range's leading lines on newlines does not: the per-line reader
        reads the file. A CRLF is one line end to all three, so the ranges
        parse the file."""
        path = tmp_path / "cr.csv"
        path.write_bytes((head + "".join(f"{60_000 * k},1.5{end}" for k in range(2, 300))).encode())
        serial = _per_line_outcome(path)
        assert len(serial[0]) == 298 + head.endswith("1,2.5\n")
        for ranges in (ingest._read_ranges(str(path), pool), ingest._read_ranges(str(path))):
            if end == "\r\n":
                _assert_same_outcome(ranges, serial)
            else:
                assert ranges is None
        _assert_same_outcome(ingest.read_series_csv(path, pool), serial)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_carriage_returns_on_block_boundaries(self, monkeypatch, tmp_path, block):
        """Each range is copied verbatim in blocks of a few bytes, so a CRLF
        and a lone carriage return fall on every block boundary. numpy ends
        a line at both, as the per-line reader does: a CRLF file of 40
        rows, and one where a lone carriage return ends any one of its
        lines, parse in byte ranges to the per-line reader's rows, at 1, 2
        and 3 workers."""
        monkeypatch.setattr(ingest, "_READ_BLOCK", block)
        rows = _rows(40)
        with fork_pool(3) as pool:  # forked after the patch
            for split in (None, Pool(pool.executor, 2), pool):
                for k in (None, *range(len(rows))):  # the line that ends in a lone CR
                    path = tmp_path / "cr.csv"
                    path.write_bytes("".join(f"{row}\r" if i == k else f"{row}\r\n"
                                             for i, row in enumerate(rows)).encode())
                    serial = _per_line_outcome(path)
                    assert len(serial[0]) == len(rows)
                    _assert_same_outcome(ingest._read_ranges(str(path), split), serial)

    # numpy warns when a block holds only blank lines; the warning must not
    # reach stderr, and here it fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [1, 64])
    def test_blocks_parse_as_the_whole_range(self, monkeypatch, tmp_path, block):
        """Each range is parsed in blocks of `block` bytes, each carried on
        to just after the next newline, so 100 rows span many blocks. At 1,
        2 and 3 workers the ranges give the per-line reader's rows for
        normalized rows and for kline rows of 7 and 12 fields, with LF line
        ends and no trailing newline, or CRLF line ends (a block's first
        read can end inside a CRLF), and with a run of blank lines longer
        than two blocks, so one block holds only blank lines. An odd line
        near the first blocks' edges, or last in the file, is MalformedRow
        at its line."""
        monkeypatch.setattr(ingest, "_READ_BLOCK", block)
        path = tmp_path / "blocks.csv"
        with fork_pool(3) as pool:  # forked after the patch
            for kline, odd in ((False, "1,2,3"), (True, "60000,1,1,1,1,1.5")):
                rows = _rows(100, kline)
                if kline:  # every other row of seven fields
                    rows[::2] = [",".join(row.split(",")[:7]) for row in rows[::2]]
                files = [(rows[:60] + [""] * 140 + rows[60:], end, trailing)
                         for end, trailing in (("\n", False), ("\r\n", True))]
                files += [(rows[:k] + [odd] + rows[k:], "\n", k < 100)
                          for k in (*range(8), 100)]
                for lines, end, trailing in files:
                    path.write_bytes((end.join(lines) + end * trailing).encode())
                    serial = _per_line_outcome(path, kline)
                    if odd in lines:
                        assert serial == (MalformedRow, lines.index(odd) + 1)
                    for split in (None, Pool(pool.executor, 2), pool):
                        if odd in lines:  # the ranges fail; the per-line reader decides
                            read = _outcome(lambda: ingest.read_series_csv(path, split, kline))
                        else:
                            read = ingest._read_ranges(str(path), split, kline)
                        _assert_same_outcome(read, serial)


_INT64 = st.integers(-(2**63), 2**63 - 1)
# the magnitudes whose digits `csvrows` computes itself, and a little beyond
_KERNEL_FLOATS = st.floats(1e-11, 1e16) | st.floats(-1e16, -1e-11)


def _same_rows(times, values):
    """`format_rows` on chunks of the writer's size writes the f-string rows."""
    times, values = np.asarray(times, np.int64), np.asarray(values, np.float64)
    k = ingest._WRITE_ROWS
    rows = b"".join(format_rows(times[i:i + k], values[i:i + k]) for i in range(0, len(times), k))
    assert rows == fstring_rows(times, values)


def _neighbours(values):
    """`values`, the doubles on either side of each, and all of them negated."""
    values = np.asarray(values, np.float64)
    near = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    return np.concatenate([near, -near])


class TestFormatRows:
    """`csvrows.format_rows` writes the bytes of `f"{t},{v!r}\\n"` for every
    int64 time and float64 value."""

    @given(st.lists(st.tuples(_INT64, st.floats() | _KERNEL_FLOATS), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_time_and_double(self, rows):
        _same_rows([t for t, _ in rows], [v for _, v in rows])

    def test_int64_times(self):
        powers = [10**k + d for k in range(19) for d in (-1, 0, 1)]
        times = [0, -(2**63), 2**63 - 1, *powers, *(-t for t in powers)]
        _same_rows(times, np.full(len(times), 1.5))

    def test_random_bit_patterns(self):
        """A million doubles of random sign and fraction bits, with exponents
        over the range `csvrows` computes itself, and doubles of any bits."""
        rng = np.random.default_rng(14)
        n = 1_000_000
        sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
        exponent = rng.integers(985, 1076, n, dtype=np.uint64) << np.uint64(52)
        fraction = rng.integers(0, 2**52, n, dtype=np.uint64)
        values = np.concatenate([(sign | exponent | fraction).view(np.float64),
                                 rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64)])
        _same_rows(np.arange(len(values)), values)

    @pytest.mark.parametrize("values", [
        pytest.param([2.0**k for k in range(-1074, 1024)], id="powers of two"),
        pytest.param([float(f"1e{k}") for k in range(-323, 309)], id="powers of ten"),
        # repr switches to `d.ddde±XX` below 1e-4 and from 1e16; csvrows
        # computes the digits of 1e-10 <= |v| < 1e15 itself
        pytest.param([1e-4, 1e16, 1e-10, 1e15, 9.999999999999999e-05, 9999999999999998.0],
                     id="layout and kernel edges"),
    ])
    def test_edges_and_their_neighbours(self, values):
        values = _neighbours(values)
        _same_rows(np.arange(len(values)), values)

    def test_short_decimals(self):
        rng = np.random.default_rng(15)
        u = rng.uniform(-1e4, 1e4, 5000) * 10.0 ** rng.integers(-8, 9, 5000)
        values = np.concatenate([np.round(u, k) for k in range(18)]
                                + [[round(float(v), k) for v in u[:200]] for k in range(12)])
        _same_rows(np.arange(len(values)), values)


class TestWriteSeriesCsv:
    def test_same_bytes_at_any_worker_count(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(4)
        times = np.cumsum(rng.integers(1, 10**6, 1000))
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
        values[:4] = [-0.0, np.nan, np.inf, 5e-324]
        # and values whose digits csvrows' integer arithmetic computes
        times = np.concatenate([times, times[-1] + np.arange(1, 501)])
        values = np.concatenate([values, rng.standard_normal(500) * 0.0017])
        monkeypatch.setattr(ingest, "_WRITE_ROWS", 7)
        written = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            with fork_pool(workers) as pool:
                ingest.write_series_csv(path, "t,v", times, values, "comment", pool)
            written.append(path.read_bytes())
        assert written[0] == written[1] == written[2]
        assert written[0] == b"# comment\nt,v\n" + fstring_rows(times, values)
        assert not multiprocessing.active_children()

    def test_non_finite_and_signed_zero_rows(self, tmp_path):
        times = np.arange(6) * MINUTE_MS
        values = np.array([np.nan, np.inf, -0.0, 5e-324, -np.inf, 0.001431325758769031])
        path = tmp_path / "v.csv"
        ingest.write_series_csv(path, "open_time_ms,variation", times, values, "hash=ab")
        assert path.read_text().splitlines() == [
            "# hash=ab", "open_time_ms,variation", "0,nan", "60000,inf", "120000,-0.0",
            "180000,5e-324", "240000,-inf", "300000,0.001431325758769031",
        ]


def _kline_row(open_time, close=100.0):
    return [
        open_time, str(close), str(close), str(close), str(close),
        "1.0", open_time + MINUTE_MS - 1, "0", 1, "0", "0", "0",
    ]


class FakeResponse:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status_code = status

    def json(self):
        return self.payload

    def raise_for_status(self):
        if self.status_code >= 400:
            raise IOError(f"HTTP {self.status_code}")


class FakeSession:
    """Serves canned kline rows like the Binance klines endpoint; the first
    `fail_first` calls answer with `fail_status`; with `body`, every other
    call answers 200 with that body."""

    def __init__(self, rows, fail_first=0, fail_status=503, body=None):
        self.rows = rows
        self.fail_first = fail_first
        self.fail_status = fail_status
        self.body = body
        self.calls = 0

    def get(self, url, params=None, timeout=None):
        self.calls += 1
        if self.calls <= self.fail_first:
            return FakeResponse(None, status=self.fail_status)
        if self.body is not None:
            return FakeResponse(self.body)
        start = params["startTime"]
        end = params["endTime"]
        limit = params["limit"]
        page = [r for r in self.rows if start <= r[0] <= end][:limit]
        return FakeResponse(page)


class TestFetchKlines:
    def _grid_rows(self, n, skip=()):
        t0 = 1504224000000
        return [
            _kline_row(t0 + k * MINUTE_MS, 100.0 + k)
            for k in range(n)
            if k not in skip
        ]

    def test_three_page_replay(self):
        rows = self._grid_rows(2500)
        session = FakeSession(rows)
        series = fetch_klines(
            "ETHBTC", rows[0][0], rows[-1][0] + MINUTE_MS, session=session
        )
        assert len(series) == 2500
        assert np.all(np.diff(series.times) == MINUTE_MS)
        assert session.calls == 3  # 1000 + 1000 + 500

    def test_missing_minute_warns_with_gap_location(self):
        rows = self._grid_rows(2500, skip={1500})
        session = FakeSession(rows)
        missing = 1504224000000 + 1500 * MINUTE_MS
        with pytest.warns(GapWarning, match=str(missing)):
            series = fetch_klines(
                "ETHBTC", rows[0][0], rows[-1][0] + MINUTE_MS, session=session
            )
        assert len(series) == 2499

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            fetch_klines("ETHBTC", 1504224000000, 1504224000000, session=FakeSession([]))

    def test_retries_then_succeeds(self):
        rows = self._grid_rows(10)
        session = FakeSession(rows, fail_first=2)
        cfg = FetchConfig(max_retries=3, sleep=lambda s: None)
        series = fetch_klines(
            "ETHBTC", rows[0][0], rows[-1][0] + MINUTE_MS, session=session, config=cfg
        )
        assert len(series) == 10

    def test_retry_budget_exhausted(self):
        rows = self._grid_rows(10)
        session = FakeSession(rows, fail_first=100)
        cfg = FetchConfig(max_retries=2, sleep=lambda s: None)
        with pytest.raises(NetworkError):
            fetch_klines(
                "ETHBTC", rows[0][0], rows[-1][0] + MINUTE_MS,
                session=session, config=cfg,
            )


    @pytest.mark.parametrize("status, calls, sleeps", [
        (400, 1, 0),  # e.g. a misspelt symbol
        (404, 1, 0),
        (429, 2, 1),  # rate limited: back off and retry
        (418, 2, 1),
        (503, 2, 1),
    ])
    def test_retries_only_transient_responses(self, status, calls, sleeps):
        rows = self._grid_rows(10)
        session = FakeSession(rows, fail_first=1, fail_status=status)
        slept = []
        cfg = FetchConfig(max_retries=4, sleep=slept.append)
        fetch = lambda: fetch_klines(  # noqa: E731
            "ETHBTC", rows[0][0], rows[-1][0] + MINUTE_MS, session=session, config=cfg
        )
        if calls == 1:
            with pytest.raises(NetworkError, match=f"HTTP {status}"):
                fetch()
        else:
            assert len(fetch()) == 10
        assert (session.calls, len(slept)) == (calls, sleeps)

    def test_malformed_json_fails_fast(self):
        class NotJson(FakeResponse):
            def json(self):
                return json.loads("<html>")

        class Session:
            calls = 0

            def get(self, url, params=None, timeout=None):
                Session.calls += 1
                return NotJson(None)

        slept = []
        cfg = FetchConfig(max_retries=4, sleep=slept.append)
        with pytest.raises(NetworkError, match="not JSON"):
            fetch_klines("ETHBTC", 0, MINUTE_MS, session=Session(), config=cfg)
        assert (Session.calls, slept) == (1, [])

    @pytest.mark.parametrize("body, message", [
        ({"code": -1121, "msg": "Invalid symbol."}, "-1121: Invalid symbol."),
        ({"unexpected": True}, "expected a list"),
        ("not a list", "expected a list"),
        ([[1504224000000, "1", "1", "1"]], ">= 5 fields"),
        ([{"open_time": 1504224000000}], ">= 5 fields"),
        ([[None, "1", "1", "1", "1"]], "unexpected kline row"),
        ([[1504224000000, "1", "1", "1", "abc"]], "unexpected kline row"),
    ])
    def test_unexpected_200_body_is_network_error(self, body, message):
        session = FakeSession([], body=body)
        with pytest.raises(NetworkError, match=message):
            fetch_klines("ETHBTC", 1504224000000, 1504224000000 + MINUTE_MS, session=session)
        assert session.calls == 1  # a 200 body does not change on retry


def test_find_gaps_reports_first_missing_minute():
    t0 = 1504224000000
    times = [t0, t0 + MINUTE_MS, t0 + 4 * MINUTE_MS]
    assert find_gaps(times) == [t0 + 2 * MINUTE_MS]


def test_find_gaps_across_the_int64_range():
    # the int64 difference of these times wraps below 0
    assert find_gaps([-2, 2**63 - 1]) == [-2 + MINUTE_MS]
    assert find_gaps([2**63 - 1 - MINUTE_MS, 2**63 - 1]) == []


class TestPriceSeriesOrder:
    """Neighbouring times are compared, not differenced: the difference
    of two int64 times can wrap."""

    def test_times_far_apart_in_order_are_accepted(self):
        series = PriceSeries("spot", [-2, 2**63 - 1], [1.0, 2.0])
        assert series.times.tolist() == [-2, 2**63 - 1]

    def test_times_far_apart_out_of_order_are_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            PriceSeries("spot", [2**63 - 1, -2], [1.0, 2.0])
