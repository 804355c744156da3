#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spotvar CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs `python -m spotvar.cli` in a fresh process on inputs
generated from `--seed`, repeatedly until `--seconds` have passed (at least
once), and checks every output bundle. `--trace 0` prints the end-to-end
metrics (medians over the repetitions); `--trace 1` adds one traced
in-process run and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout holds no runnable program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_RUNS = 3
ALPHA_REL_TOL = 0.02  # acceptance criterion 2's tolerances
SIGMA_REL_TOL = 0.005

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "minutes_per_s": "min/s",
}
LAYER_UNITS = {
    "setup.import_spotvar_s": "s",
    "setup.import_scipy_signal_s": "s",
    **tracing.UNITS,
}


@dataclass(frozen=True)
class Sizes:
    leg_minutes: int
    short_minutes: int
    paper_path_length: int
    paper_replications: int
    short_path_length: int
    short_replications: int


# Paper scale: ~2.1M aligned minutes; Table 6 paths as long as the sample.
PAPER = Sizes(2_100_000, 20_000, 2_000_000, 32, 5_000, 2_000)
# Small enough for a self-test, large enough for the fit tolerances.
TINY = Sizes(300_000, 2_000, 2_000, 16, 200, 40)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # "legs" or "variation", see gen.generate
    minutes: int  # generated input size
    args: tuple  # CLI arguments, run from the input directory
    replications: int = 0
    path_length: int = 0
    workers: int = 1

    def cli_args(self, out_dir, workers):
        args = (*self.args, "--out-dir", str(out_dir))
        return args + ("--workers", str(workers)) if self.replications else args

    def work_minutes(self, meta):
        """Minutes processed by one run: aligned input minutes, or
        simulated-and-refitted minutes for the Monte Carlo workloads."""
        if self.replications:
            return self.replications * self.path_length
        return meta["aligned"]


def workloads(sizes, seed):
    workers = len(os.sched_getaffinity(0))
    legs = ("--spot", "spot.csv", "--num", "num.csv", "--den", "den.csv")

    def mc(name, path_length, replications, mc_workers):
        args = ("ci", "--input", "variation.csv", "--path-length", str(path_length),
                "--replications", str(replications), "--seed", str(seed))
        return Workload(name, "variation", sizes.short_minutes, args,
                        replications, path_length, mc_workers)

    return {
        "paper_tables": Workload("paper_tables", "legs", sizes.leg_minutes,
                                 ("report", *legs, "--skip-mc")),
        "mc_paper_paths": mc("mc_paper_paths", sizes.paper_path_length,
                             sizes.paper_replications, workers),
        "mc_short_paths": mc("mc_short_paths", sizes.short_path_length,
                             sizes.short_replications, 1),
    }


@dataclass(frozen=True)
class Run:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def program_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPOTVAR_")}
    env["PYTHONPATH"] = str(SRC)
    # byte-compile once, as an installed package is, not on every start
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv, cwd):
    """Run to completion; wall time, CPU time of the process and the children
    it waited for, and the largest resident set among them."""
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=program_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024)


def stderr_tail():
    return (WORK / "stderr.txt").read_text(errors="replace")[-400:].strip()


def bundle_digest(out_dir):
    """File names plus bytes of the whole bundle, as the CLI tests hash it."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _table(out_dir, name):
    return json.loads((Path(out_dir) / f"{name}.json").read_text())


def check_bundle(wl, out_dir, meta):
    """Checks that need no other run. Returns (problems, failed replications)."""
    try:
        if wl.replications:
            extra = _table(out_dir, "table6_confidence_intervals")["extra"]
            problems = []
            if int(extra["replications"]) != wl.replications:
                problems.append(f"table 6 reports {extra['replications']} replications")
            return problems, int(extra["failures"])
        problems = []
        df = _table(out_dir, "table4_dickey_fuller")["rows"]
        kept = [row[0] for row in df if row[1] != "Rejected"]
        if kept or len(df) != 3:
            problems.append(f"Dickey-Fuller does not reject on all three models: {kept}")
        fit = _table(out_dir, "table5_ou_fit")
        values = dict(fit["rows"])
        for name, tol in (("alpha", ALPHA_REL_TOL), ("sigma", SIGMA_REL_TOL)):
            true = meta["true"][name]
            if abs(values[name] - true) > tol * true:
                problems.append(f"fitted {name} {values[name]!r} not within {tol:.1%} of {true}")
        if int(fit["extra"]["n"]) + 1 != meta["aligned"]:
            problems.append(f"fit used n={fit['extra']['n']}, {meta['aligned']} minutes align")
        return problems, 0
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable bundle: {exc!r}"], 0


class DigestStore:
    """First digest seen per (workload, sizes, seed) in this checkout; every
    later run of the same workload and seed must reproduce it."""

    def __init__(self, path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key, digest):
        expected = self.known.setdefault(key, digest)
        if digest != expected:
            return [f"bundle digest {digest[:12]} differs from earlier run {expected[:12]}"]
        return []

    def save(self):
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, wl, problems, failed_replications):
        self.attempted += 1 + wl.replications
        self.failed += failed_replications + (1 if problems else 0)
        self.problems += [f"{wl.name}: {p}" for p in problems]


def check_output(wl, exit_code, out_dir, meta, digest_key, store):
    """Every check of one run. Returns (problems, failed replications)."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {stderr_tail()}"], 0
    problems, failed_reps = check_bundle(wl, out_dir, meta)
    if not problems:
        problems = store.check(digest_key, bundle_digest(out_dir))
    return problems, failed_reps


def one_run(wl, argv, in_dir, out_dir, meta, digest_key, store, tally):
    """Run and check once. Returns (Run, failed replications)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    run = run_process(argv, in_dir)
    problems, failed_reps = check_output(wl, run.exit_code, out_dir, meta, digest_key, store)
    tally.add(wl, problems, failed_reps)
    return run, failed_reps


def measure(wl, in_dir, meta, seconds, digest_key, store, tally):
    """Untraced repetitions: at least one, and another only while, at the
    average pace so far, it ends within `seconds` of the first start. A run
    so never overshoots by a partial repetition, and its length (hence the
    time it spans on a machine whose speed drifts) is the same on every
    seed."""
    out_dir = WORK / "out" / wl.name
    argv = [sys.executable, "-m", "spotvar.cli", *wl.cli_args(out_dir, wl.workers)]
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(one_run(wl, argv, in_dir, out_dir, meta, digest_key, store, tally)[0])
        elapsed = time.perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


class NoProgram(Exception):
    """The checkout holds no spotvar CLI that starts."""


def setup_seconds():
    """Median time for a fresh interpreter to reach a ready CLI."""
    runs = [run_process([sys.executable, "-m", "spotvar.cli", "--version"], ROOT)
            for _ in range(SETUP_RUNS)]
    if any(r.exit_code for r in runs):
        raise NoProgram(f"spotvar CLI does not start: {stderr_tail()}")
    return statistics.median(r.wall_s for r in runs)


def import_seconds():
    """Cumulative import times of spotvar and scipy.signal, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import spotvar.cli"],
        cwd=ROOT, env=program_env(), capture_output=True, text=True,
    )
    if proc.returncode:
        raise NoProgram(f"spotvar CLI does not import: {proc.stderr[-400:]}")
    spotvar_us = scipy_signal_us = 0
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative, name = int(fields[1]), fields[2]
        top_level = len(name) - len(name.lstrip()) == 1
        name = name.strip()
        if top_level and (name == "spotvar" or name.startswith("spotvar.")):
            spotvar_us += cumulative
        if name == "scipy.signal" and not scipy_signal_us:
            scipy_signal_us = cumulative
    return {"setup.import_spotvar_s": spotvar_us / 1e6,
            "setup.import_scipy_signal_s": scipy_signal_us / 1e6}


def traced_run(wl, in_dir, meta, untraced_wall, digest_key, store, tally):
    """One traced in-process run; Monte Carlo spans need --workers 1."""
    out_dir = WORK / "out" / f"{wl.name}-traced"
    spans_path = WORK / "spans.json"
    argv = [sys.executable, str(HERE / "tracing.py"), str(spans_path),
            *wl.cli_args(out_dir, 1)]
    run, failed_reps = one_run(wl, argv, in_dir, out_dir, meta, digest_key, store, tally)
    record = json.loads(spans_path.read_text()) if run.exit_code == 0 else {"spans": []}
    metrics = tracing.layer_metrics(
        record["spans"], run.wall_s, untraced_wall, wl.workers, wl.replications)
    metrics["montecarlo.failed_replications"] = failed_reps
    return metrics


def generate(kind, seed, minutes):
    """Inputs for (kind, seed, minutes), generated once and then reused.

    gen.py runs as its own process so that its memory never counts in the
    resident set of the commands this process starts."""
    directory = WORK / "inputs" / f"{kind}-{minutes}-seed{seed}"
    meta_path = directory / "meta.json"
    if meta_path.exists():
        return directory, json.loads(meta_path.read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), str(directory), kind, str(seed), str(minutes)],
        capture_output=True, text=True, check=True,
    )
    return directory, json.loads(proc.stdout)


def run_workload(wl, seed, seconds, trace, sizes_name, store, tally):
    # either call fails, before anything is generated, when there is no program
    startup = import_seconds() if trace else setup_seconds()
    start = time.perf_counter()
    in_dir, meta = generate(wl.inputs, seed, wl.minutes)
    print(f"{wl.name}: inputs for seed {seed} ready in "
          f"{time.perf_counter() - start:.3f} s (generated once per seed, not timed)")
    digest_key = f"{wl.name}|{sizes_name}|{seed}"
    runs = measure(wl, in_dir, meta, seconds, digest_key, store, tally)
    wall = statistics.median(r.wall_s for r in runs)
    print(f"{wl.name}: {len(runs)} untraced run(s), wall s "
          + " ".join(f"{r.wall_s:.3f}" for r in runs))
    if trace:
        metrics = {**startup,
                   **traced_run(wl, in_dir, meta, wall, digest_key, store, tally)}
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": startup,
            "minutes_per_s": wl.work_minutes(meta) / wall,
        }
        units = E2E_UNITS
        if wl.replications:
            print(f"{wl.name}: replications_per_s = {wl.replications / wall:.6g} 1/s")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_tables", "mc_paper_paths", "mc_short_paths", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes instead of paper scale")
    args = parser.parse_args(argv)

    if not (SRC / "spotvar" / "cli.py").is_file():
        print(f"no spotvar sources under {SRC}", file=sys.stderr)
        return 2

    sizes_name = "tiny" if args.tiny else "paper"
    table = workloads(TINY if args.tiny else PAPER, args.seed)
    chosen = list(table) if args.workload == "all" else [args.workload]
    store = DigestStore(WORK / "digests.json")
    tally = Tally()
    metrics = {}
    for name in chosen:
        try:
            result = run_workload(table[name], args.seed, args.seconds, args.trace,
                                  sizes_name, store, tally)
        except NoProgram as exc:
            print(exc, file=sys.stderr)
            return 2
        for metric, entry in result.items():
            print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
            metrics[metric if len(chosen) == 1 else f"{name}.{metric}"] = entry
    store.save()
    for problem in tally.problems:
        print(f"CHECK FAILED {problem}")
    print(f"failed_ratio = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
