"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantity so the suite doubles as a run report
(`pytest tests/test_acceptance.py -s`).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from spotvar import (
    McConfig,
    OUParams,
    VariationSeries,
    confidence_intervals,
    df_test,
    iqr,
    log_likelihood,
    mle_fit,
    percentiles,
    sampling_distribution,
    simulate_path,
)
from spotvar.unitroot import DFModel
from spotvar import reports
from spotvar.summary import PercentileTable

from conftest import minute_grid, numeric_refine, quantile_oracle
from test_cli import bundle_digest, run_cli

TABLE5 = OUParams(alpha=0.845728, mu=-2.424382e-05, sigma=0.001703)
TABLE6_ALPHA_WIDTH = 0.847948 - 0.842325  # 0.005623


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_closed_form_is_stationary_maximum():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        true = OUParams(
            alpha=float(rng.uniform(0.1, 2.0)),
            mu=float(rng.uniform(-1e-3, 1e-3)),
            sigma=float(rng.uniform(1e-4, 1e-2)),
        )
        seed = int(rng.integers(2**31))
        path = simulate_path(true, true.mu, 50_000, 1.0, rng_seed=seed)
        fitted, _, _ = mle_fit(path, 1.0)
        ll_closed = log_likelihood(fitted, path, 1.0)
        _, ll_refined = numeric_refine(path, fitted, 1.0)
        improvement = max(0.0, ll_refined - ll_closed)
        assert improvement <= 1e-6, f"numeric maximizer improved by {improvement}"
        worst = max(worst, improvement)
    _report(1, f"50/50 paths, max log-likelihood improvement {worst:.3e} <= 1e-6")


def test_criterion_2_parameter_recovery_at_paper_scale():
    path = simulate_path(TABLE5, TABLE5.mu, 2_000_000, 1.0, rng_seed=1)
    fitted, _, _ = mle_fit(path, 1.0)
    assert fitted.alpha == pytest.approx(TABLE5.alpha, rel=0.02)
    assert fitted.mu == pytest.approx(TABLE5.mu, abs=0.5e-5)
    assert fitted.sigma == pytest.approx(TABLE5.sigma, rel=0.005)
    _report(
        2,
        f"n=2e6: alpha rel err {abs(fitted.alpha / TABLE5.alpha - 1):.2e} (<2e-2), "
        f"mu abs err {abs(fitted.mu - TABLE5.mu):.2e} (<5e-6), "
        f"sigma rel err {abs(fitted.sigma / TABLE5.sigma - 1):.2e} (<5e-3)",
    )


def test_criterion_3_mc_ci_reproduction_desk_scale():
    # Desk-scale fallback (spec-sanctioned): n_path = 200k, 200 replications;
    # the alpha CI width must be scaling-consistent with the paper's width at
    # n = 2e6 (times sqrt(10), +/-35%) and the mu interval entirely below 0.
    cfg = McConfig(replications=200, path_length=200_000, master_seed=2024)
    samples = sampling_distribution(TABLE5, cfg)
    report = confidence_intervals(samples, 0.90, TABLE5)
    width = report.upper["alpha"] - report.lower["alpha"]
    expected = TABLE6_ALPHA_WIDTH * math.sqrt(10)
    assert abs(width - expected) / expected <= 0.35
    assert report.upper["mu"] < 0 and report.lower["mu"] < 0
    _report(
        3,
        f"alpha CI width {width:.6f} vs scaling-consistent {expected:.6f} "
        f"(dev {abs(width / expected - 1):.1%} <= 35%); "
        f"mu CI [{report.lower['mu']:.3e}, {report.upper['mu']:.3e}] < 0",
    )


def test_criterion_4_df_size_and_power():
    n, seeds = 10_000, 100
    size = {m: 0 for m in DFModel}
    power = {m: 0 for m in DFModel}
    from scipy.signal import lfilter

    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.standard_normal(n))
        ar1 = lfilter([1.0], [1.0, -0.5], np.random.default_rng(seed + 10_000).standard_normal(n))
        for m in DFModel:
            size[m] += df_test(walk, m).reject_null
            power[m] += df_test(ar1, m).reject_null
    for m in DFModel:
        assert size[m] / seeds <= 0.05, f"{m}: size {size[m]}%"
        assert power[m] / seeds >= 0.99, f"{m}: power {power[m]}%"
    _report(
        4,
        "rejection rates under unit root "
        + str({m.value: f"{size[m]}%" for m in DFModel})
        + " (<=5%); under AR(1) rho=0.5 "
        + str({m.value: f"{power[m]}%" for m in DFModel})
        + " (>=99%)",
    )


def test_criterion_5_ci_coverage():
    true = OUParams(alpha=0.5, mu=0.0, sigma=0.01)
    experiments, reps, n = 200, 200, 5_000
    names = ("alpha", "mu", "sigma")
    covered = dict.fromkeys(names, 0)
    for k in range(experiments):
        data = simulate_path(true, true.mu, n, 1.0, rng_seed=100_000 + k)
        fitted, _, _ = mle_fit(data, 1.0)
        cfg = McConfig(replications=reps, path_length=n, master_seed=200_000 + k)
        samples = sampling_distribution(fitted, cfg)
        report = confidence_intervals(samples, 0.90, fitted)
        for name in names:
            covered[name] += report.lower[name] <= getattr(true, name) <= report.upper[name]
    rates = {name: covered[name] / experiments for name in names}
    for name, rate in rates.items():
        assert 0.84 <= rate <= 0.96, f"{name}: coverage {rate:.1%}"
    _report(5, "90% CI coverage of the true parameters: "
               + ", ".join(f"{name} {rate:.1%}" for name, rate in rates.items())
               + ", each in [84%, 96%]")


def test_criterion_6_summary_oracle_equivalence():
    rng = np.random.default_rng(6)
    t0 = 1_504_224_000_000
    for _ in range(1000):
        size = int(rng.integers(2, 40))
        vals = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=size)
        probes = sorted({0.0, 25.0, 75.0, 100.0} | set(np.round(rng.uniform(0, 100, 3), 4)))
        series = VariationSeries(minute_grid(t0, size), vals)
        table = percentiles(series, probes)
        for p, v in zip(table.probes, table.values):
            assert v == quantile_oracle(vals, p), f"rank {p} mismatch"
        assert iqr(table) == table.value_at(75) - table.value_at(25)

    # Year-2 identity: 0.000421 = 0.000214 - (-0.000207) in the renderer
    year2 = PercentileTable(
        probes=(0, 25, 50, 75, 100),
        values=(-0.025374, -0.000207, 3.573059e-06, 0.000214, 0.011835),
    )
    rendered = reports.yearwise_iqr_table([(2, iqr(year2))]).to_text()
    assert "Year 2  0.000421" in rendered
    _report(6, "1000/1000 random series match the sort-based oracle exactly; "
               "Year-2 IQR renders 0.000421")


@pytest.mark.skipif(
    not os.environ.get("SPOTVAR_DATA_DIR"),
    reason="criterion 7 is environment-dependent: set SPOTVAR_DATA_DIR to a "
    "directory holding ETHBTC.csv/ETHUSDT.csv/BTCUSDT.csv (normalized 1m "
    "closes, Sep 2017 - Aug 2021) to run the full-dataset reproduction",
)
def test_criterion_7_full_dataset_reproduction():
    from spotvar import PriceSeries, align, compute_variation

    data_dir = Path(os.environ["SPOTVAR_DATA_DIR"])
    legs = {
        name: PriceSeries.from_csv(data_dir / f"{sym}.csv", sym)
        for name, sym in (("spot", "ETHBTC"), ("num", "ETHUSDT"), ("den", "BTCUSDT"))
    }
    var = compute_variation(align(legs))
    table = percentiles(var, [0, 25, 50, 75, 100])

    def sig2(x):
        if x == 0:
            return 0.0
        from math import floor, log10
        d = floor(log10(abs(x)))
        return round(x, -d + 1)

    paper = (-0.084171, -0.000161, -9.312451e-07, 0.000155, 0.092048)
    for ours, theirs in zip(table.values, paper):
        assert sig2(ours) == pytest.approx(sig2(theirs), rel=1e-9)
    decisions = [df_test(var, m).reject_null for m in DFModel]
    assert all(decisions)
    _report(7, f"full-dataset percentiles match to 2 s.f.; DF rejects x3")


def test_criterion_8_report_determinism(tmp_path, legs_dir):
    _, paths = legs_dir
    manifest = {
        "inputs": {leg: str(p) for leg, p in paths.items()},
        "mc": {"replications": 30, "path_length": 400, "master_seed": 9},
    }
    mf = tmp_path / "manifest.json"
    mf.write_text(json.dumps(manifest))
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    r1 = run_cli("report", "--manifest", mf, "--out-dir", out1, "--workers", 1)
    r2 = run_cli("report", "--manifest", mf, "--out-dir", out2, "--workers", 2)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    d1, d2 = bundle_digest(out1), bundle_digest(out2)
    assert d1 == d2
    _report(8, f"bundles byte-identical across worker counts (sha256 {d1[:16]}…)")


def test_criterion_9_lognormal_quotient_normality():
    rng = np.random.default_rng(9)
    y1 = np.exp(rng.normal(0.2, 0.35, 1_000_000))  # lognormal leg
    y2 = np.exp(rng.normal(-0.1, 0.25, 1_000_000))  # lognormal leg
    q = np.log(y1 / y2)
    skew, kurt = float(sps.skew(q)), float(sps.kurtosis(q))
    assert abs(skew) <= 0.05
    assert abs(kurt) <= 0.05
    _report(9, f"ln(Y1/Y2) skewness {skew:+.4f}, excess kurtosis {kurt:+.4f} within ±0.05")
