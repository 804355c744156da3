"""The AR(1) core and the OU simulator hold no array as long as the path
besides their input and `out`: every array they allocate is scratch for one
slice of 10,000 rows. `align` holds one leg at a time, and a leg's reader
never holds the file's bytes. numpy reports its buffers to `tracemalloc`,
so the peak of traced memory during a call bounds what the call
allocates."""

import gc
import tracemalloc

import numpy as np
import pytest

from conftest import MINUTE_MS
from spotvar import (DFModel, OUParams, PriceSeries, align, ar1_regression,
                     compute_variation, df_test, mle_fit, simulate_path)
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


def test_align_holds_one_leg_at_a_time():
    """Three legs of N rows, each built when `align` takes it; num starts
    1,000 minutes late, so the first fold drops rows. Aligning and taking
    the variation peak at 7.5 arrays of N float64 values; with all three
    legs built first the peak is 11.1, and with each leg held until the
    next is built, 9.1."""

    def legs():
        for k, name in enumerate(("spot", "num", "den")):
            start = T0 + (1000 * MINUTE_MS if name == "num" else 0)
            yield PriceSeries(name, np.arange(start, start + N * MINUTE_MS, MINUTE_MS),
                              np.random.default_rng(k).uniform(0.5, 2.0, N))

    triple = None

    def fold():
        nonlocal triple
        triple = align(legs())
        compute_variation(triple)

    assert peak_path_lengths(fold) < 8.5
    assert triple.dropped == {"spot": 1000, "num": 1000, "den": 1000}


def test_a_leg_is_read_without_holding_its_bytes(tmp_path):
    """Without a pool a leg of 1M rows is parsed in one byte range, copied
    in blocks. The reader holds numpy's rows, as large as the two columns,
    and a contiguous copy of one column: 1.5 column sizes, and the bound
    allows a quarter more for numpy's growth of its rows as it parses. The
    file's own bytes are 2.1 column sizes; a reader that holds them peaks
    above the bound."""
    rows = 1_000_000
    path = tmp_path / "leg.csv"
    write_series_csv(path, "open_time_ms,close", T0 + MINUTE_MS * np.arange(rows),
                     np.random.default_rng(5).uniform(0.01, 0.1, rows))
    columns = rows * 16  # bytes of the int64 times and the float64 values
    assert path.stat().st_size > 2 * columns
    assert traced_peak(lambda: read_series_csv(path)) / columns < 1.75
