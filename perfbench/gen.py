"""Seeded inputs for the benchmark workloads.

Two kinds of input, both pure functions of (seed, size):

- three normalized `open_time_ms,close` legs (spot = ETHBTC, num = ETHUSDT,
  den = BTCUSDT) whose variation ln(spot) - ln(num) + ln(den) is an exact
  Ornstein-Uhlenbeck path with the paper's Table 5 parameters; each leg
  independently misses ~0.1% of its minutes;
- a short `open_time_ms,variation` file holding such an OU path directly.

Only numpy and scipy are used, never the package under test, so the program
receives nothing but the generated files. The benchmark runs this file as its
own process, which keeps the generator's memory out of the benchmark's:

    python3 perfbench/gen.py DIR {legs|variation} SEED MINUTES
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

# Table 5 of the paper: per-minute OU fit of the ETHBTC variation.
TRUE_ALPHA = 0.845728
TRUE_MU = -2.424382e-05
TRUE_SIGMA = 0.001703

EPOCH_MS = 1_504_224_000_000  # 2017-09-01 00:00 UTC, the CLI's default epoch
MINUTE_MS = 60_000
MISSING_SHARE = 0.001
LEGS = ("spot", "num", "den")


def ou_path(rng, n):
    """Exact-transition OU path of n values, started from the stationary law."""
    omega = math.exp(-TRUE_ALPHA)
    stat_sd = TRUE_SIGMA / math.sqrt(2 * TRUE_ALPHA)
    cond_sd = stat_sd * math.sqrt(1 - omega * omega)
    x0 = stat_sd * rng.standard_normal()
    shocks = cond_sd * rng.standard_normal(n - 1)
    x, _ = lfilter([1.0], [1.0, -omega], shocks, zi=[omega * x0])
    return TRUE_MU + np.concatenate(([x0], x))


def _write_csv(path, header, times, values, chunk=200_000):
    # repr round-trips float64 exactly, as the program's own writers do
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for i in range(0, len(times), chunk):
            rows = zip(times[i:i + chunk].tolist(), values[i:i + chunk].tolist())
            f.writelines([f"{t},{v!r}\n" for t, v in rows])
        # on disk before the timed runs start, so no write-back overlaps them
        f.flush()
        os.fsync(f.fileno())


def _write_leg(job):
    _write_csv(*job)


def write_legs(out_dir, seed, minutes):
    """Write spot/num/den leg CSVs; return the rows written per leg and the
    number of minutes present in all three."""
    rng = np.random.default_rng([seed, 1])
    times = EPOCH_MS + MINUTE_MS * np.arange(minutes, dtype=np.int64)
    variation = ou_path(rng, minutes)
    btc = 30_000.0 * np.exp(np.cumsum(rng.normal(0.0, 5e-4, minutes)))
    eth_btc = 0.07 * np.exp(np.cumsum(rng.normal(0.0, 5e-4, minutes)))
    closes = {"spot": eth_btc * np.exp(variation), "num": eth_btc * btc, "den": btc}
    rows = {}
    jobs = []
    common = np.ones(minutes, dtype=bool)
    for leg in LEGS:
        keep = rng.random(minutes) >= MISSING_SHARE
        jobs.append((out_dir / f"{leg}.csv", "open_time_ms,close", times[keep], closes[leg][keep]))
        rows[leg] = int(keep.sum())
        common &= keep
    # formatting floats is most of the time; one leg per core
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_write_leg, jobs))
    return rows, int(common.sum())


def write_variation(out_dir, seed, minutes):
    rng = np.random.default_rng([seed, 2])
    times = EPOCH_MS + MINUTE_MS * np.arange(minutes, dtype=np.int64)
    _write_csv(out_dir / "variation.csv", "open_time_ms,variation", times, ou_path(rng, minutes))


def generate(directory, kind, seed, minutes):
    """Write the inputs of one kind ("legs" or "variation") into `directory`
    and return their metadata. Older directories of the same kind beside it
    are removed first, because one set of paper-scale legs is ~200 MB."""
    final = Path(directory)
    final.parent.mkdir(parents=True, exist_ok=True)
    for pattern in (f"{kind}-*", f".tmp-{kind}-*"):
        for old in final.parent.glob(pattern):
            shutil.rmtree(old)
    tmp = final.parent / f".tmp-{final.name}"
    tmp.mkdir()
    meta = {"seed": seed, "minutes": minutes,
            "true": {"alpha": TRUE_ALPHA, "mu": TRUE_MU, "sigma": TRUE_SIGMA}}
    if kind == "legs":
        meta["rows"], meta["aligned"] = write_legs(tmp, seed, minutes)
    else:
        write_variation(tmp, seed, minutes)
    (tmp / "meta.json").write_text(json.dumps(meta))
    tmp.rename(final)
    return meta


if __name__ == "__main__":
    directory, kind, seed, minutes = sys.argv[1:]
    print(json.dumps(generate(directory, kind, int(seed), int(minutes))))
