"""Results must not depend on the BLAS thread count. OpenBLAS runs a dot
product of more than 10,000 elements on its thread pool and adds the
per-thread partial dots, which rounds differently from one serial pass, so
a path that long would give other digits on a host with other cores.
OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so each setting runs
in a fresh interpreter."""

from conftest import run_python
from test_cli import bundle_digest, run_cli

THREADS = ("1", "2")

# a path twice the length at which OpenBLAS starts to thread
FIT_AND_DF = """
from spotvar import DFModel, OUParams, df_test, mle_fit, simulate_path
true = OUParams(alpha=0.8, mu=-2e-5, sigma=0.0017)
path = simulate_path(true, true.mu, 20_000, 1.0, rng_seed=3)
print(repr(mle_fit(path, 1.0)))
for model in DFModel:
    print(repr(df_test(path, model)))
"""


def test_fit_and_df_tests_do_not_depend_on_blas_threads():
    outputs = [run_python(FIT_AND_DF, env={"OPENBLAS_NUM_THREADS": t}) for t in THREADS]
    assert outputs[0].count("\n") == 3
    assert outputs[0] == outputs[1]


def test_ci_bundle_does_not_depend_on_blas_threads(tmp_path, ou_legs):
    variation = tmp_path / "variation.csv"
    ou_legs[3].to_csv(variation)
    digests = []
    for threads in THREADS:
        out = tmp_path / f"threads-{threads}"
        result = run_cli(
            "ci", "--input", variation, "--path-length", 20_000, "--replications", 8,
            "--out-dir", out, env={"OPENBLAS_NUM_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        digests.append(bundle_digest(out))
    assert digests[0] == digests[1]
