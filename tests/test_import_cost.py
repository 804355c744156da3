"""`import scipy.signal` takes over a second. Only simulation needs it, so a
run that never simulates must not import it, and a Monte Carlo run must
import it once in the parent, before the pool forks, rather than once in
every worker. Each check runs in a fresh interpreter, since this one may
have imported scipy already."""

import sys

import pytest

from conftest import run_python
from spotvar import McConfig, OUParams, montecarlo


def test_cli_import_leaves_scipy_signal_out():
    loaded = run_python("import sys, spotvar.cli; print('scipy.signal' in sys.modules)")
    assert loaded == "False"


def test_parallel_sampling_imports_scipy_signal_in_the_parent():
    loaded = run_python(
        "import sys\n"
        "from spotvar import McConfig, OUParams, sampling_distribution\n"
        "cfg = McConfig(replications=4, path_length=100, master_seed=1)\n"
        "sampling_distribution(OUParams(0.8, 0.0, 0.001), cfg, workers=2)\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    assert loaded == "True"


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks only on Linux")
def test_parallel_sampling_forks_whatever_the_default_start_method(monkeypatch):
    """Under forkserver or spawn (Python 3.14's Linux default is
    forkserver) every worker would import scipy.signal again."""
    contexts = []

    class SerialPool:
        def __init__(self, max_workers, mp_context=None):
            contexts.append(mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    cfg = McConfig(replications=4, path_length=100, master_seed=1)
    montecarlo.sampling_distribution(OUParams(0.8, 0.0, 0.001), cfg, workers=2)
    assert [c.get_start_method() for c in contexts] == ["fork"]
