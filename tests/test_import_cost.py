"""`import scipy.signal` takes over a second. Simulation loads only the
compiled filter core behind `lfilter` from its file, so no run imports the
package: not the CLI, not a simulation, not a Monte Carlo pool. Each check
runs in a fresh interpreter, since this one may have imported scipy.signal
already."""

import sys
from concurrent.futures import Future

import pytest

from conftest import run_python
from spotvar import McConfig, OUParams, montecarlo, parallel


def test_cli_import_leaves_scipy_signal_out():
    loaded = run_python("import sys, spotvar.cli; print('scipy.signal' in sys.modules)")
    assert loaded == "False"


def test_simulation_and_parallel_sampling_leave_scipy_signal_out():
    loaded = run_python(
        "import sys\n"
        "from spotvar import McConfig, OUParams, sampling_distribution, simulate_path\n"
        "from spotvar.parallel import fork_pool\n"
        "params = OUParams(0.8, 0.0, 0.001)\n"
        "simulate_path(params, 0.0, 100, rng_seed=1)\n"
        "cfg = McConfig(replications=4, path_length=100, master_seed=1)\n"
        "with fork_pool(2) as pool:\n"
        "    sampling_distribution(params, cfg, pool=pool)\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    assert loaded == "False"


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks only on Linux")
def test_parallel_sampling_forks_whatever_the_default_start_method(monkeypatch):
    """Under forkserver or spawn (Python 3.14's Linux default is
    forkserver) every worker would import numpy and spotvar again; a
    forked one inherits the parent's."""
    contexts = []

    class SerialPool:
        def __init__(self, max_workers, mp_context=None):
            contexts.append(mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", SerialPool)
    cfg = McConfig(replications=4, path_length=100, master_seed=1)
    with parallel.fork_pool(2) as pool:
        montecarlo.sampling_distribution(OUParams(0.8, 0.0, 0.001), cfg, pool=pool)
    assert [c.get_start_method() for c in contexts] == ["fork"]
