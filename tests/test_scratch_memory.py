"""The AR(1) core and the OU simulator hold at most one array as long as
the path besides their input and `out`: every other array is scratch for
one slice of 10,000 rows. numpy reports its buffers to `tracemalloc`, so
the peak of traced memory during a call bounds what the call allocates."""

import tracemalloc

import numpy as np
import pytest

from spotvar import DFModel, OUParams, df_test, mle_fit, simulate_path

N = 200_000  # one slice is 0.05 path-lengths
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
