"""The AR(1) core and the OU simulator hold at most one array as long as
the path besides their input and `out`: every other array is scratch for
one slice of 10,000 rows. `align` holds one leg at a time. numpy reports
its buffers to `tracemalloc`, so the peak of traced memory during a call
bounds what the call allocates."""

import tracemalloc

import numpy as np
import pytest

from conftest import MINUTE_MS
from spotvar import (DFModel, OUParams, PriceSeries, align, compute_variation, df_test,
                     mle_fit, simulate_path)

N = 200_000  # one slice is 0.05 path-lengths
T0 = 1_504_224_000_000
PARAMS = OUParams(alpha=0.8, mu=-2e-5, sigma=0.0017)


def peak_path_lengths(call):
    """The peak of memory traced during `call()`, in float64 arrays of
    N + 1 elements."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / ((N + 1) * 8)


@pytest.fixture(scope="module")
def path():
    return simulate_path(PARAMS, PARAMS.mu, N, 1.0, rng_seed=3)


def test_fit_holds_the_difference_and_slice_scratch(path):
    assert peak_path_lengths(lambda: mle_fit(path)) < 1.6


@pytest.mark.parametrize("model", list(DFModel))
def test_df_test_holds_the_difference_and_slice_scratch(path, model):
    assert peak_path_lengths(lambda: df_test(path, model)) < 1.6


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
