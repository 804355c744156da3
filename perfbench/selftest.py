#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
- every metric named in BENCHMARK.json is printed, by name and with its
  unit, for every workload, untraced and traced;
- a corrupted output bundle is counted as a failed operation;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 5


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True)


def check_metric_names(spec, trace):
    proc = bench("--workload", "all", "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    for workload in run.workloads(run.TINY, SEED):
        for metric in wanted:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"], (workload, metric, entry)
            line = rf"^{workload}: {re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$"
            assert re.search(line, proc.stdout, re.M), line
    expected = len(wanted) * len(run.workloads(run.TINY, SEED))
    assert len(result["metrics"]) == expected, sorted(result["metrics"])
    print(f"ok: {expected} {'per-layer' if trace else 'end-to-end'} metrics with units")


def check_corruption_caught():
    wl = run.workloads(run.TINY, SEED)["paper_tables"]
    in_dir, meta = run.generate(wl.inputs, SEED, wl.minutes)
    store = run.DigestStore(run.WORK / "selftest-digests.json")
    out_dir = run.WORK / "out" / "selftest"
    argv = [sys.executable, "-m", "spotvar.cli", *wl.cli_args(out_dir, 1)]

    tally = run.Tally()
    run.one_run(wl, argv, in_dir, out_dir, meta, "selftest", store, tally)
    assert tally.failed == 0, tally.problems

    table1 = out_dir / "table1_percentiles.csv"
    table1.write_bytes(table1.read_bytes().replace(b"e", b"E", 1))
    problems, _ = run.check_output(wl, 0, out_dir, meta, "selftest", store)
    assert any("digest" in p for p in problems), problems

    fit = out_dir / "table5_ou_fit.json"
    payload = json.loads(fit.read_text())
    payload["rows"][0][1] *= 1.05  # alpha off by 5%
    fit.write_text(json.dumps(payload))
    problems, _ = run.check_output(wl, 0, out_dir, meta, "selftest", store)
    assert any("alpha" in p for p in problems), problems

    tally.add(wl, problems, 0)
    assert (tally.attempted, tally.failed) == (2, 1), (tally.attempted, tally.failed)
    print("ok: corrupted bundles counted as failures")


def check_fails_without_program():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "paper_tables", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok: exits", proc.returncode, "without a program to run")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_fails_without_program()
    check_corruption_caught()
    check_metric_names(spec, trace=0)
    check_metric_names(spec, trace=1)


if __name__ == "__main__":
    main()
