"""The AR(1) core and the OU simulator hold no array as long as the path
besides their input and `out`: every array they allocate is scratch for one
slice of 10,000 rows. `align` holds one leg at a time and compacts its own
columns slice by slice, and a leg's reader holds neither the file's bytes
nor its rows, only one block's. numpy reports its buffers to `tracemalloc`,
so the peak of traced memory during a call bounds what the call
allocates."""

import gc
import tracemalloc

import numpy as np
import pytest

from conftest import MINUTE_MS
from spotvar import (DFModel, OUParams, PriceSeries, align, ar1_regression,
                     compute_variation, df_test, mle_fit, simulate_path)
from spotvar import ingest
from spotvar.ingest import read_series_csv, write_series_csv

N = 200_000  # one slice is 0.05 path-lengths
T0 = 1_504_224_000_000
PARAMS = OUParams(alpha=0.8, mu=-2e-5, sigma=0.0017)


def traced_peak(call):
    """The peak of memory traced during `call()`, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


def peak_path_lengths(call):
    """The peak of memory traced during `call()`, in float64 arrays of
    N + 1 elements."""
    return traced_peak(call) / ((N + 1) * 8)


@pytest.fixture(scope="module")
def path():
    return simulate_path(PARAMS, PARAMS.mu, N, 1.0, rng_seed=3)


def test_fit_holds_the_difference_and_slice_scratch(path):
    """Each pass forms its slice of the lag and of the difference: the fit
    peaks at two slice-sized arrays, 0.1 path-lengths, where a whole-array
    difference alone is 1. The bound allows one slice more."""
    assert peak_path_lengths(lambda: mle_fit(path)) < 0.15


@pytest.mark.parametrize("model", list(DFModel))
def test_df_test_holds_the_difference_and_slice_scratch(path, model):
    """Models (a) and (b) hold a slice's lag and difference, as the fit
    does. Model (c) also holds the slice's trend, the product that projects
    a row off it and the trend's steps: five slice-sized arrays, 0.25
    path-lengths. Each bound allows one slice more."""
    bound = 0.30 if model is DFModel.CONST_TREND else 0.15
    assert peak_path_lengths(lambda: df_test(path, model)) < bound


@pytest.mark.parametrize("model", list(DFModel))
def test_the_core_leaves_no_reference_cycle(path, model):
    """A cycle among the core's closures would keep each call's slices
    alive until the collector ran: a Monte Carlo worker refitting 2M-step
    paths then peaked 17 MB higher."""
    gc.collect()
    gc.disable()
    try:
        ar1_regression(path, model)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_simulation_into_a_buffer_holds_slice_scratch():
    buf = np.empty(N + 1)
    assert peak_path_lengths(lambda: simulate_path(PARAMS, 0.0, N, 1.0, rng_seed=4, out=buf)) < 0.5


def _legs():
    """The spot, num and den legs of N rows, each built when it is taken;
    num starts 1,000 minutes late, so the first fold drops rows."""
    for k, name in enumerate(("spot", "num", "den")):
        start = T0 + (1000 * MINUTE_MS if name == "num" else 0)
        yield PriceSeries(name, np.arange(start, start + N * MINUTE_MS, MINUTE_MS),
                          np.random.default_rng(k).uniform(0.5, 2.0, N))


def test_align_holds_one_leg_at_a_time():
    """At the third fold `align` holds the three kept columns, the den
    closes it fills and the den leg's two columns: six arrays of N float64
    values, and slice scratch. Aligning and taking the variation peak at
    6.1 arrays; the bound allows about two slices' scratch more. With all
    three legs built first the peak is 11.2, with each leg held until the
    next is built 8.1, and with each fold's boolean-index copies of whole
    columns 7.5."""
    triple = None

    def fold():
        nonlocal triple
        triple = align(_legs())
        compute_variation(triple)

    assert peak_path_lengths(fold) < 6.5
    assert triple.dropped == {"spot": 1000, "num": 1000, "den": 1000}


def test_variation_holds_one_column_and_slice_scratch():
    """Beside the aligned legs, `compute_variation` holds its values, one
    column, a slice's logs, and the two boolean arrays, a quarter column,
    of VariationSeries' finite check: 1.24 arrays of N float64 values.
    Whole-column logs peak at 3.0."""
    triple = align(_legs())
    assert peak_path_lengths(lambda: compute_variation(triple)) < 1.5


def test_a_leg_is_read_without_holding_its_bytes(tmp_path):
    """Without a pool a leg of 1M rows is parsed here, in blocks of a few
    MB, one after another. A block's copy and rows are freed before the two
    columns are allocated, so the reader peaks at the columns; the bound
    allows a quarter more. The file's own bytes are 2.1 column sizes, and
    numpy's rows of the whole file with a contiguous copy of one column
    1.5: a reader that holds either peaks above the bound."""
    rows = 1_000_000
    path = tmp_path / "leg.csv"
    write_series_csv(path, "open_time_ms,close", T0 + MINUTE_MS * np.arange(rows),
                     np.random.default_rng(5).uniform(0.01, 0.1, rows))
    columns = rows * 16  # bytes of the int64 times and the float64 values
    assert path.stat().st_size > 2 * columns
    assert traced_peak(lambda: read_series_csv(path)) / columns < 1.25


def test_a_kline_leg_costs_what_its_minutes_cost(monkeypatch, tmp_path):
    """A kline row is 3.6 times the bytes of a normalized row, and numpy
    parses it into seven fields of 56 bytes, but a block's rows are freed
    before the next block is parsed: without a pool, a kline leg peaks
    within a tenth of the same minutes in normalized form. The blocks are
    scaled to the legs: 50,000 minutes, 0.8 MB of columns, in blocks of
    128 KB; a paper-scale leg has 33.5 MB, in blocks of 8 MB. Parsed whole,
    the kline leg peaks at 2.7 times the normalized one."""
    monkeypatch.setattr(ingest, "_READ_BLOCK", 1 << 17)
    times = (T0 + MINUTE_MS * np.arange(50_000)).tolist()
    closes = np.random.default_rng(6).uniform(0.01, 0.1, len(times)).tolist()
    path, klines = tmp_path / "leg.csv", tmp_path / "klines.csv"
    write_series_csv(path, "open_time_ms,close", times, closes)
    klines.write_text("".join(f"{t},{c!r},{c!r},{c!r},{c!r},1.5,{t + 59_999},0,1,0,0,0\n"
                              for t, c in zip(times, closes)))
    normalized = traced_peak(lambda: read_series_csv(path))
    assert traced_peak(lambda: read_series_csv(klines, kline=True)) < 1.1 * normalized
