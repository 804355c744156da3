import gzip
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import numpy as np
import pytest

import spotvar.cli as cli
from conftest import MINUTE_MS, child_env, fail_one_refit, fstring_rows
from spotvar import OUParams, VariationSeries, errors, ingest, parallel, simulate_path
from spotvar.cli import cli_entry

DATA = Path(__file__).parent / "data"
T0 = 1_504_224_000_000


def run_cli(*args, env=None, cwd=None, timeout=None):
    """Run ``python -m spotvar.cli`` in a child process.

    The child imports the same ``spotvar`` as this process (see
    ``conftest.child_env``), so neither a ``cwd`` nor an installed copy
    changes which code is tested.
    """
    return subprocess.run(
        [sys.executable, "-m", "spotvar.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=child_env(env),
        cwd=cwd,
        timeout=timeout,
    )


def bundle_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture
def manifest_file(tmp_path, legs_dir):
    _, paths = legs_dir
    manifest = {
        "inputs": {leg: str(p) for leg, p in paths.items()},
        "mc": {"replications": 40, "path_length": 500, "master_seed": 5},
    }
    mf = tmp_path / "manifest.json"
    mf.write_text(json.dumps(manifest))
    return mf


class TestVariationCommand:
    def test_writes_variation_series(self, tmp_path, legs_dir, ou_legs):
        _, paths = legs_dir
        out = tmp_path / "variation.csv"
        result = run_cli(
            "variation", "--spot", paths["spot"], "--num", paths["num"],
            "--den", paths["den"], "--out", out,
        )
        assert result.returncode == 0, result.stderr
        from spotvar import VariationSeries

        var = VariationSeries.from_csv(out)
        expected = ou_legs[3]
        assert len(var) == len(expected)
        # construction noise only: legs were built so the variation is the OU path
        assert np.allclose(var.values, expected.values, atol=1e-12)

    def test_raw_klines_input(self, tmp_path):
        raw = DATA / "klines_10rows.csv"
        out = tmp_path / "var.csv"
        result = run_cli(
            "variation", "--spot", raw, "--num", raw, "--den", raw, "--out", out,
        )
        assert result.returncode == 0, result.stderr

    def test_kline_legs_give_the_bytes_of_normalized_legs(self, tmp_path):
        klines = {leg: _as_klines(SAMPLE_LEGS[leg], tmp_path / f"{leg}.klines") for leg in LEGS}
        expected = _variation_bytes(SAMPLE_LEGS, tmp_path / "n.csv")
        assert _variation_bytes(klines, tmp_path / "k.csv") == expected
        # report reads kline legs too
        bundle = tmp_path / "bundle"
        assert cli_entry(["report", *_leg_args(klines), "--skip-mc", "--out-dir", str(bundle)]) == 0
        assert (bundle / "variation.csv").read_bytes().split(b"\n", 1)[1] == expected

    def test_comment_with_many_commas_is_not_a_kline_leg(self, tmp_path):
        spot = tmp_path / "spot.csv"
        spot.write_bytes(b"\n# a,b,c,d,e,f,g,h\n" + SAMPLE_LEGS["spot"].read_bytes())
        with_comment = _variation_bytes(dict(SAMPLE_LEGS, spot=spot), tmp_path / "c.csv")
        assert with_comment == _variation_bytes(SAMPLE_LEGS, tmp_path / "n.csv")

    def test_bad_later_kline_row_names_its_line(self, tmp_path, capsys):
        spot = _as_klines(SAMPLE_LEGS["spot"], tmp_path / "spot.klines")
        rows = spot.read_text().splitlines(keepends=True)
        t, c, *rest = rows[4].split(",")
        rows[4] = ",".join([t, c, f"{float(c) / 2!r}", *rest])  # high below close
        spot.write_text("".join(rows))
        argv = ["variation", *_leg_args(dict(SAMPLE_LEGS, spot=spot)), "--out", str(tmp_path / "v")]
        assert cli_entry(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "line 5:" in err[0], err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_den_is_reported_before_an_empty_intersection(self, tmp_path, capsys, workers):
        """spot's minutes are shifted half a minute, so no minute is common
        to the three legs; `align` reads num, den, then spot, and den's own
        load error, not the empty intersection, is reported."""
        header, *rows = SAMPLE_LEGS["spot"].read_text().splitlines()
        spot = tmp_path / "spot.csv"
        spot.write_text("\n".join([header] + [
            f"{int(t) + MINUTE_MS // 2},{c}" for t, c in (r.split(",") for r in rows)
        ]) + "\n")
        lines = SAMPLE_LEGS["den"].read_text().splitlines()
        lines[6] = "12x,0.5"
        den = tmp_path / "den.csv"
        den.write_text("\n".join(lines) + "\n")
        legs = dict(SAMPLE_LEGS, spot=spot, den=den)
        argv = ["variation", *_leg_args(legs), "--workers", workers, "--out", str(tmp_path / "v")]
        assert cli_entry(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].count("stage 'load'") == 1, err
        assert "line 7:" in err[0] and "align" not in err[0], err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_num_is_loaded_first(self, tmp_path, capsys, workers):
        """`align` loads num, den, then spot: with spot and num both
        malformed, num's line is reported."""
        legs = dict(SAMPLE_LEGS)
        for leg, row in (("spot", 4), ("num", 9)):
            lines = SAMPLE_LEGS[leg].read_text().splitlines()
            lines[row] = "12x,0.5"
            legs[leg] = tmp_path / f"{leg}.csv"
            legs[leg].write_text("\n".join(lines) + "\n")
        argv = ["variation", *_leg_args(legs), "--workers", workers, "--out", str(tmp_path / "v")]
        assert cli_entry(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].count("stage 'load'") == 1, err
        assert "line 10:" in err[0], err

    def test_unequal_drops_print_in_leg_order(self, tmp_path, capsys):
        """The legs lose 5, 4 and 3 minutes to the alignment; `variation`
        prints them keyed spot, num, den, whatever order they load in."""
        legs = {}
        for leg, cut in (("spot", {3}), ("num", {5, 6}), ("den", {8, 9, 10})):
            lines = SAMPLE_LEGS[leg].read_text().splitlines(keepends=True)
            legs[leg] = tmp_path / f"{leg}.csv"
            legs[leg].write_text("".join(l for i, l in enumerate(lines) if i not in cut))
        out = tmp_path / "v.csv"
        assert cli_entry(["variation", *_leg_args(legs), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"994 aligned minutes -> {out} (dropped: {{'spot': 5, 'num': 4, 'den': 3}})\n")

    def test_disjoint_timestamps_fail_at_align(self, tmp_path, legs_dir):
        _, paths = legs_dir
        shifted = tmp_path / "shifted.csv"
        lines = Path(paths["spot"]).read_text().splitlines()
        rows = [lines[0]] + [
            f"{int(l.split(',')[0]) + 7 * MINUTE_MS // 2},{l.split(',')[1]}"
            for l in lines[1:]
        ]
        shifted.write_text("\n".join(rows) + "\n")
        result = run_cli(
            "variation", "--spot", shifted, "--num", paths["num"],
            "--den", paths["den"], "--out", tmp_path / "v.csv",
        )
        assert result.returncode == 3
        assert "align" in result.stderr
        assert "no common timestamps across spot/num/den" in result.stderr


LEGS = ("spot", "num", "den")
SAMPLE_LEGS = {leg: DATA / "sample_legs" / f"{leg}.csv" for leg in LEGS}


def _as_klines(normalized, dest):
    """Write the `open_time_ms,close` rows of `normalized` to `dest` as
    Binance kline rows: open = high = low = close, one-minute candles."""
    rows = []
    for line in normalized.read_text().splitlines()[1:]:
        t, c = line.split(",")
        rows.append(f"{t},{c},{c},{c},{c},1.0,{int(t) + MINUTE_MS - 1},0,1,0,0,0\n")
    dest.write_text("".join(rows))
    return dest


def _leg_args(paths):
    return [a for leg in LEGS for a in (f"--{leg}", str(paths[leg]))]


def _variation_bytes(paths, out):
    """The bytes `variation` writes for the legs `paths`."""
    assert cli_entry(["variation", *_leg_args(paths), "--out", str(out)]) == 0
    return out.read_bytes()


def _running(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@pytest.fixture
def variation_csv(tmp_path, ou_legs):
    path = tmp_path / "variation.csv"
    ou_legs[3].to_csv(path)
    return path


class TestPipelineCommands:
    def test_summarize(self, tmp_path, variation_csv):
        result = run_cli("summarize", "--input", variation_csv, "--out-dir", tmp_path)
        assert result.returncode == 0, result.stderr
        for stem in ("table1_percentiles", "table2_yearwise_percentiles", "table3_yearwise_iqr"):
            for ext in ("txt", "csv", "json"):
                assert (tmp_path / f"{stem}.{ext}").exists()

    def test_dftest(self, tmp_path, variation_csv):
        result = run_cli("dftest", "--input", variation_csv, "--out-dir", tmp_path)
        assert result.returncode == 0, result.stderr
        # a 1000-point OU sample is decisively mean-reverting
        assert result.stdout.count("Rejected") == 3
        payload = json.loads((tmp_path / "table4_dickey_fuller.json").read_text())
        assert len(payload["rows"]) == 3

    def test_fit(self, tmp_path, variation_csv):
        result = run_cli("fit", "--input", variation_csv, "--out-dir", tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "table5_ou_fit.json").read_text())
        values = dict(payload["rows"])
        assert values["alpha"] > 0
        assert values["sigma"] > 0

    def test_simulate_then_fit_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        result = run_cli(
            "simulate", "--alpha", 0.8, "--mu", -2e-5, "--sigma", 0.0017,
            "--steps", 20000, "--seed", 3, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        result = run_cli("fit", "--input", out, "--out-dir", tmp_path)
        assert result.returncode == 0
        values = dict(json.loads((tmp_path / "table5_ou_fit.json").read_text())["rows"])
        assert values["alpha"] == pytest.approx(0.8, rel=0.15)

    def test_simulate_writes_the_fstring_rows(self, tmp_path):
        """`simulate` writes its CSV without a pool: the rows are the bytes
        `f"{t},{v!r}\\n"` writes for the simulated path."""
        out = tmp_path / "f.csv"
        result = run_cli(
            "simulate", "--alpha", 0.8, "--mu", -2e-5, "--sigma", 0.0017,
            "--steps", 5000, "--seed", 3, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        path = simulate_path(OUParams(alpha=0.8, mu=-2e-5, sigma=0.0017), -2e-5, 5000, rng_seed=3)
        rows = fstring_rows(np.arange(len(path)), path)
        assert out.read_bytes() == b"open_time_ms,variation\n" + rows

    def test_ci_command(self, tmp_path, variation_csv):
        result = run_cli(
            "ci", "--input", variation_csv, "--replications", 20,
            "--path-length", 300, "--seed", 1, "--out-dir", tmp_path,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "table6_confidence_intervals.json").read_text())
        assert payload["extra"]["replications"] == "20"
        assert result.stdout == "".join(
            f"{name}: {point:.6e} [{lower:.6e}, {upper:.6e}]\n"
            for name, point, lower, upper in payload["rows"]
        )

    def test_ci_tolerates_one_failed_replication(self, tmp_path, monkeypatch, capsys):
        """One refit of 100 raising is under the 1% limit: `ci` succeeds
        and Table 6 counts it."""
        fail_one_refit(monkeypatch, 36)
        argv = ["ci", "--input", str(DATA / "golden_report" / "variation.csv"),
                "--replications", "100", "--path-length", "300", "--workers", "1",
                "--out-dir", str(tmp_path)]
        assert cli_entry(argv) == 0, capsys.readouterr().err
        text = (tmp_path / "table6_confidence_intervals.txt").read_text()
        assert "\nreplications: 100\nfailures: 1\n" in text


class TestReportCommand:
    def test_full_bundle(self, tmp_path, manifest_file):
        out = tmp_path / "bundle"
        result = run_cli("report", "--manifest", manifest_file, "--out-dir", out)
        assert result.returncode == 0, result.stderr
        names = {p.name for p in out.iterdir()}
        for stem in (
            "table1_percentiles", "table2_yearwise_percentiles", "table3_yearwise_iqr",
            "table4_dickey_fuller", "table5_ou_fit", "table6_confidence_intervals",
        ):
            assert f"{stem}.txt" in names and f"{stem}.csv" in names and f"{stem}.json" in names
        assert "variation.csv" in names and "manifest.json" in names

        manifest = json.loads((out / "manifest.json").read_text())
        mhash = manifest["manifest_hash"]
        # every report cites the manifest hash that produced it
        for p in out.glob("table*.json"):
            assert json.loads(p.read_text())["manifest_hash"] == mhash
        for p in out.glob("table*.txt"):
            assert f"manifest: {mhash}" in p.read_text()
        for p in out.glob("table*.csv"):
            assert f"# manifest_hash={mhash}" in p.read_text()

    def test_skip_mc(self, tmp_path, manifest_file):
        out = tmp_path / "bundle"
        result = run_cli("report", "--manifest", manifest_file, "--out-dir", out, "--skip-mc")
        assert result.returncode == 0, result.stderr
        assert not (out / "table6_confidence_intervals.json").exists()
        assert (out / "table5_ou_fit.json").exists()

    def test_byte_identical_reruns(self, tmp_path, manifest_file):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        r1 = run_cli("report", "--manifest", manifest_file, "--out-dir", out1)
        r2 = run_cli("report", "--manifest", manifest_file, "--out-dir", out2)
        assert r1.returncode == r2.returncode == 0
        assert bundle_digest(out1) == bundle_digest(out2)

    def test_flag_overrides_manifest_seed(self, tmp_path, manifest_file):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        r1 = run_cli("report", "--manifest", manifest_file, "--out-dir", out1, "--seed", 5)
        r2 = run_cli("report", "--manifest", manifest_file, "--out-dir", out2, "--seed", 6)
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0, r2.stderr
        assert bundle_digest(out1) != bundle_digest(out2)

    def test_missing_leg_is_usage_error(self, tmp_path):
        result = run_cli("report", "--out-dir", tmp_path / "b")
        assert result.returncode == 2

    def test_unresolved_manifest_input_is_usage_error(self, tmp_path):
        # relative inputs resolve against the working directory; from
        # tmp_path the golden manifest's sample legs do not exist
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes((DATA / "golden_manifest.json").read_bytes())
        result = run_cli(
            "report", "--manifest", manifest.name, "--out-dir", "bundle", cwd=tmp_path,
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "leg 'den'" in result.stderr
        assert "sample_legs/den.csv" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "bundle").exists()

    def test_golden_bundle_match(self, tmp_path):
        # golden_report was generated once from the bundled 1000-minute
        # sample legs and hand-audited (table1 percentiles re-derived
        # independently from the raw leg CSVs)
        out = tmp_path / "bundle"
        result = run_cli(
            "report", "--manifest", "golden_manifest.json", "--out-dir", out, cwd=DATA,
        )
        assert result.returncode == 0, result.stderr
        golden = DATA / "golden_report"
        golden_files = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in out.iterdir()) == golden_files
        for name in golden_files:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_a_bundle_manifest_reruns_to_the_same_bundle(self, tmp_path):
        """The keys `report` adds to manifest.json (version, input hashes,
        manifest hash) are skipped on read, so feeding it back in resolves
        to the same settings, the same hash and the same bytes."""
        first, again = tmp_path / "first", tmp_path / "again"
        for manifest, out in (("golden_manifest.json", first), (first / "manifest.json", again)):
            result = run_cli("report", "--manifest", manifest, "--out-dir", out, cwd=DATA)
            assert result.returncode == 0, result.stderr
        assert bundle_digest(again) == bundle_digest(first)
        hashes = [json.loads((out / "manifest.json").read_text())["manifest_hash"]
                  for out in (first, again)]
        assert hashes[0] == hashes[1]


class TestWorkers:
    """`--workers` changes how the work is split, never what is written or
    reported. Run in process with the read block and the write chunk
    patched small, so that even the sample legs, about 32 kB each, are read
    in blocks of 8 kB and written in chunks."""

    @pytest.fixture
    def small_splits(self, monkeypatch):
        monkeypatch.setattr(ingest, "_READ_BLOCK", 8192)
        monkeypatch.setattr(ingest, "_WRITE_ROWS", 100)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_golden_bundle_at_any_worker_count(self, tmp_path, monkeypatch, small_splits,
                                               workers):
        monkeypatch.chdir(DATA)
        out = tmp_path / "bundle"
        argv = ["report", "--manifest", "golden_manifest.json", "--out-dir", str(out),
                "--workers", str(workers)]
        assert cli_entry(argv) == 0
        golden = DATA / "golden_report"
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
        for path in golden.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        assert not multiprocessing.active_children()

    def test_malformed_leg_gives_the_same_error_at_any_worker_count(self, tmp_path, capsys,
                                                                    small_splits):
        """A byte that is not UTF-8 in the last block, and a gzip file under
        a `.gz` name, which is read as it is, not decompressed."""
        num = SAMPLE_LEGS["num"].read_bytes()
        lines = num.splitlines(keepends=True)
        lines[800] = lines[800].replace(b",", b"\xff,")  # in the last block
        bad = {"num.csv": (b"".join(lines), 801), "num.csv.gz": (gzip.compress(num, mtime=0), 1)}
        for name, (data, line_no) in bad.items():
            legs = dict(SAMPLE_LEGS, num=tmp_path / name)
            legs["num"].write_bytes(data)
            errs = []
            for workers in (1, 2):
                argv = ["report", *_leg_args(legs), "--skip-mc", "--workers", str(workers),
                        "--out-dir", str(tmp_path / f"w{workers}")]
                assert cli_entry(argv) == 3
                errs.append(capsys.readouterr().err)
                assert not multiprocessing.active_children()
            assert errs[0] == errs[1]
            assert errs[0].startswith(
                f"error at stage 'load': malformed row at line {line_no}:"), errs[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_blank_line_prints_nothing(self, tmp_path, capfd, small_splits, workers):
        """A blank line inside a leg is skipped, in blocks parsed here or on
        a pool: nothing reaches stderr, in this process or a worker, and
        the rows are the same."""
        legs = {}
        for leg, path in SAMPLE_LEGS.items():
            lines = path.read_bytes().splitlines(keepends=True)
            legs[leg] = tmp_path / f"{leg}.csv"
            legs[leg].write_bytes(b"".join(lines[:500] + [b"\n"] + lines[500:]))
        out = tmp_path / "blank.csv"
        assert cli_entry(["variation", *_leg_args(legs), "--workers", str(workers),
                          "--out", str(out)]) == 0
        assert capfd.readouterr().err == ""
        assert out.read_bytes() == _variation_bytes(SAMPLE_LEGS, tmp_path / "plain.csv")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_pipe_is_read_once(self, tmp_path, variation_csv, workers):
        """A FIFO's size reads 0 and it cannot be seeked: with a pool or
        without, the per-line reader reads it once, start to end, and writes
        the Table 6 of the file. A child process, so a second open of the
        FIFO, which would wait for a writer that never comes, times out."""
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as f:
                    f.write(variation_csv.read_bytes())
            except BrokenPipeError:  # the reader closed the FIFO early
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        argv = ["ci", "--replications", "20", "--path-length", "300", "--seed", "1",
                "--workers", str(workers)]
        piped = run_cli(*argv, "--input", fifo, "--out-dir", tmp_path / "piped", timeout=60)
        assert piped.returncode == 0, piped.stderr
        writer.join(timeout=10)
        assert not writer.is_alive()
        from_file = run_cli(*argv, "--input", variation_csv, "--out-dir", tmp_path / "file")
        assert from_file.returncode == 0, from_file.stderr
        assert piped.stdout == from_file.stdout
        assert bundle_digest(tmp_path / "piped") == bundle_digest(tmp_path / "file")  # Table 6

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["ci", "--input", "VAR", "--replications", "20", "--path-length", "100",
         "--workers", "1", "--out-dir", "OUT"],
        ["report", *_leg_args(SAMPLE_LEGS), "--workers", "1", "--replications", "20",
         "--path-length", "100", "--out-dir", "OUT"],
        ["variation", *_leg_args(SAMPLE_LEGS), "--workers", "1", "--out", "OUT/v.csv"],
        ["summarize", "--input", "VAR", "--out-dir", "OUT"],
    ])
    def test_one_worker_forks_nothing(self, tmp_path, monkeypatch, small_splits,
                                      variation_csv, argv):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        files = {"VAR": str(variation_csv), "OUT": str(tmp_path / "out"),
                 "OUT/v.csv": str(tmp_path / "out" / "v.csv")}
        assert cli_entry([files.get(a, a) for a in argv]) == 0

    @pytest.mark.skipif(sys.platform != "linux", reason="PR_SET_PDEATHSIG is Linux-only")
    def test_workers_die_with_a_killed_command(self, tmp_path, variation_csv):
        """A command killed by a signal runs no cleanup; its pool workers
        must not run on as orphans. The Monte Carlo would take minutes."""
        argv = ["ci", "--input", variation_csv, "--replications", "100000", "--path-length",
                "100000", "--workers", "2", "--out-dir", tmp_path / "out"]
        proc = subprocess.Popen([sys.executable, "-m", "spotvar.cli", *map(str, argv)],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                env=child_env())
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                workers = children.read_text().split()
                time.sleep(0.05)
            assert len(workers) == 2, workers
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, workers))
        finally:
            proc.kill()
            proc.wait()
            for pid in filter(_running, workers):
                os.kill(int(pid), signal.SIGKILL)

    @pytest.mark.parametrize("command", ["variation", "ci", "report"])
    def test_workers_default_to_the_usable_cores(self, command):
        option = next(p for p in cli.main.commands[command].params if p.name == "workers")
        assert option.default is parallel.usable_cores
        assert parallel.usable_cores() >= 1


class TestBadValues:
    """A bad value in an input file is a data error (exit 3), not a crash;
    run in process, so an uncaught exception fails the test."""

    @pytest.mark.parametrize("close", ["0", "nan", "inf"])
    def test_report_bad_close(self, tmp_path, legs_dir, close):
        _, paths = legs_dir
        lines = paths["spot"].read_text().splitlines()
        lines[5] = f"{lines[5].split(',')[0]},{close}"
        paths["spot"].write_text("\n".join(lines) + "\n")
        code = cli_entry([
            "report", "--spot", str(paths["spot"]), "--num", str(paths["num"]),
            "--den", str(paths["den"]), "--out-dir", str(tmp_path / "b"), "--skip-mc",
        ])
        assert code == 3

    @pytest.mark.parametrize("value", ["inf", "abc"])
    def test_fit_bad_value(self, tmp_path, value):
        path = tmp_path / "variation.csv"
        path.write_text(f"open_time_ms,variation\n0,0.001\n60000,{value}\n120000,0.002\n")
        code = cli_entry(["fit", "--input", str(path), "--out-dir", str(tmp_path)])
        assert code == 3


class TestSlicesOfReport:
    def test_subcommands_write_reports_tables(self, tmp_path, legs_dir):
        """summarize, dftest, fit and ci on report's variation.csv, under the
        same settings, write report's tables; only the cited hash differs."""
        _, paths = legs_dir
        bundle, sliced = tmp_path / "bundle", tmp_path / "sliced"
        mc = ["--replications", "20", "--path-length", "300", "--seed", "4"]
        assert cli_entry([
            "report", "--spot", str(paths["spot"]), "--num", str(paths["num"]),
            "--den", str(paths["den"]), "--out-dir", str(bundle), *mc,
        ]) == 0
        var = str(bundle / "variation.csv")
        for command in (["summarize"], ["dftest"], ["fit"], ["ci", *mc]):
            assert cli_entry([*command, "--input", var, "--out-dir", str(sliced)]) == 0

        def without_hash(path):
            return [l for l in path.read_text().splitlines() if "manifest" not in l]

        written = sorted(p.name for p in sliced.iterdir())
        assert written == sorted(p.name for p in bundle.glob("table*"))
        for name in written:
            assert without_hash(sliced / name) == without_hash(bundle / name), name

    def test_a_slice_takes_its_defaults_from_the_settings_table(self, tmp_path, monkeypatch):
        """A default changed in `cli._SETTINGS` reaches the slices that run
        without its flag: Table 6's replication count and Table 3's rows."""
        for key, default in (("mc.replications", 25), ("year_split.n_years", 3)):
            monkeypatch.setitem(cli._SETTINGS, key, (default, *cli._SETTINGS[key][1:]))
        year_ms = 365 * 24 * 60 * MINUTE_MS
        times = T0 + np.arange(600, dtype=np.int64) * (6 * year_ms // 600)
        values = simulate_path(OUParams(0.8, 0.0, 0.001), 0.0, 599, rng_seed=2)
        var = tmp_path / "variation.csv"
        VariationSeries(times, values).to_csv(var)
        out = tmp_path / "out"
        assert cli_entry(["summarize", "--input", str(var), "--out-dir", str(out)]) == 0
        assert cli_entry(["ci", "--input", str(var), "--path-length", "100", "--workers", "1",
                          "--out-dir", str(out)]) == 0
        assert len(json.loads((out / "table3_yearwise_iqr.json").read_text())["rows"]) == 3
        extra = json.loads((out / "table6_confidence_intervals.json").read_text())["extra"]
        assert extra["replications"] == "25"


# 0.5**k is fitted exactly by all three Dickey-Fuller regressions: se(delta) = 0
EXACT_FIT = "open_time_ms,variation\n" + "".join(f"{k * MINUTE_MS},{0.5**k!r}\n" for k in range(31))
SIMULATE = "simulate --alpha 0.8 --mu 0 --sigma 0.001"
# click rejects the bad value before any request is sent
FETCH = f"fetch --symbol ETHBTC --start {T0} --end {T0 + MINUTE_MS} --endpoint http://127.0.0.1:9/k"
SAMPLE_INPUTS = {leg: str(path) for leg, path in SAMPLE_LEGS.items()}
NUM_FIFO = "input for leg 'num' is not a regular file: {fifo}"


def _category_code(cls):
    """The documented exit code of an error class's category."""
    for category, code in ((errors.NetworkError, 5), (errors.NumericError, 4),
                           (errors.DataError, 3)):
        if issubclass(cls, category):
            return code
    return 2


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.SpotvarError)),
    key=lambda c: c.__name__,
)
OUT_COMMANDS = [
    pytest.param(["variation", *_leg_args(SAMPLE_LEGS)], id="variation"),
    pytest.param([*SIMULATE.split(), "--steps", "10"], id="simulate"),
]
# every input option, with a directory ("DIR") as its value
DIR_INPUTS = [
    *(pytest.param([c, "--input", "DIR"], id=f"{c}-input") for c in ("summarize", "dftest", "fit", "ci")),
    pytest.param(["report", "--manifest", "DIR"], id="report-manifest"),
    *(pytest.param([c, *_leg_args({**SAMPLE_LEGS, leg: "DIR"})], id=f"{c}-{leg}")
      for c in ("variation", "report") for leg in LEGS),
]


class TestExitCodes:
    """An out-of-range value is a usage error (exit 2), caught before any
    input is read, and an exactly fitted series a numeric error (exit 4),
    reported in one line. Run in process,
    so an uncaught exception (exit 1 from the console script) fails the test."""

    @pytest.mark.parametrize("argv, code", [
        ("ci --input VAR --replications 1", 2),
        ("ci --input VAR --confidence 1.5", 2),
        ("ci --input VAR --path-length 2", 2),
        # only null means the sample size
        ("ci --input VAR --path-length 0", 2),
        ("report --manifest ZERO_PATH_LENGTH", 2),
        ("summarize --input VAR --years 0", 2),
        (f"{SIMULATE} --steps 0", 2),
        (f"{SIMULATE} --steps 10 --dt 0", 2),
        ("fit --input VAR --dt 0", 2),
        ("report --manifest NOT_JSON", 2),
        ("report --manifest NOT_OBJECT", 2),
        ("report --manifest MC_NOT_OBJECT", 2),
        ("report --manifest PROBE_OUT_OF_RANGE", 2),
        ("report --manifest PROBES_WITHOUT_QUARTILES", 2),
        ("report --manifest NO_PROBES", 2),
        ("report --manifest UNTABULATED_DF_LEVEL", 2),
        ("report --manifest NAN_DT", 2),
        ("report --manifest NEGATIVE_DT", 2),
        ("report --manifest CONFIDENCE_ABOVE_ONE", 2),
        ("report --manifest NO_YEARS", 2),
        ("report --manifest INFINITE_INITIAL_VALUE", 2),
        ("report --manifest SAMPLE --path-length 2", 2),
        ("report --manifest UNKNOWN_KEY", 2),
        ("report --manifest UNKNOWN_MC_KEY", 2),
        ("report --manifest UNKNOWN_INPUT_KEY", 2),
        ("report --manifest TOP_LEVEL_DOTTED_KEY", 2),
        ("report --manifest SAMPLE --workers 0", 2),
        ("ci --input VAR --workers 0", 2),
        (f"{FETCH} --backoff -1 --max-retries 1", 2),
        (f"{FETCH} --pause -1", 2),
        (f"{FETCH} --max-retries -1", 2),
        # numpy seeds only from non-negative integers
        ("ci --input VAR --seed -1", 2),
        ("report --manifest SAMPLE --seed -1", 2),
        ("SPOTVAR_SEED=-1 ci --input VAR", 2),
        ("SPOTVAR_SEED=-1 report --manifest SAMPLE", 2),
        ("report --manifest NEGATIVE_SEED", 2),
        (f"{SIMULATE} --steps 10 --seed -1", 2),
        # timestamps are int64 milliseconds
        ("summarize --input VAR --epoch-start 99999999999999999999", 2),
        ("report --manifest EPOCH_BEYOND_INT64", 2),
        ("dftest --input EXACT_FIT", 4),
        # alpha and sigma overflow to infinity
        ("fit --input VAR --dt 1e-320", 4),
        ("simulate --alpha inf --mu 0 --sigma 0.001 --steps 10", 4),
        ("simulate --alpha 0.8 --mu 0 --sigma inf --steps 10", 4),
        # sigma**2 overflows, so the conditional variance does
        ("simulate --alpha 1 --mu 0 --sigma 1e200 --steps 5", 4),
        # a path from a non-finite start is rejected before any draw
        (f"{SIMULATE} --steps 10 --v0 inf", 2),
        (f"{SIMULATE} --steps 10 --v0 nan", 2),
    ])
    def test_documented_exit_code(self, tmp_path, variation_csv, capsys, monkeypatch,
                                  argv, code):
        files = {"VAR": variation_csv}
        for name, text in (
            ("NOT_JSON", "{not json"),
            ("NOT_OBJECT", "[1, 2]"),
            ("MC_NOT_OBJECT", json.dumps({"inputs": SAMPLE_INPUTS, "mc": 5})),
            ("PROBE_OUT_OF_RANGE",
             json.dumps({"inputs": SAMPLE_INPUTS, "percentile_probes": [150]})),
            ("PROBES_WITHOUT_QUARTILES",
             json.dumps({"inputs": SAMPLE_INPUTS, "percentile_probes": [0, 50, 100]})),
            ("NO_PROBES", json.dumps({"inputs": SAMPLE_INPUTS, "percentile_probes": []})),
            ("UNTABULATED_DF_LEVEL", json.dumps({"inputs": SAMPLE_INPUTS, "df_level": 0.05})),
            ("NAN_DT", json.dumps({"inputs": SAMPLE_INPUTS, "dt": float("nan")})),
            ("NEGATIVE_DT", json.dumps({"inputs": SAMPLE_INPUTS, "dt": -1})),
            ("CONFIDENCE_ABOVE_ONE",
             json.dumps({"inputs": SAMPLE_INPUTS, "mc": {"confidence": 1.5}})),
            ("NO_YEARS", json.dumps({"inputs": SAMPLE_INPUTS, "year_split": {"n_years": 0}})),
            ("ZERO_PATH_LENGTH", json.dumps({"inputs": SAMPLE_INPUTS, "mc": {"path_length": 0}})),
            ("INFINITE_INITIAL_VALUE",
             json.dumps({"inputs": SAMPLE_INPUTS, "mc": {"initial_value": float("inf")}})),
            ("SAMPLE", json.dumps({"inputs": SAMPLE_INPUTS})),
            ("UNKNOWN_KEY", json.dumps({"inputs": SAMPLE_INPUTS, "foo": 1})),
            ("UNKNOWN_MC_KEY", json.dumps({"inputs": SAMPLE_INPUTS, "mc": {"replicatons": 5}})),
            ("UNKNOWN_INPUT_KEY",
             json.dumps({"inputs": dict(SAMPLE_INPUTS, extra=SAMPLE_INPUTS["spot"])})),
            # a setting nests in its section object, never under a dotted key
            ("TOP_LEVEL_DOTTED_KEY", json.dumps({"inputs": SAMPLE_INPUTS, "mc.replications": 20})),
            ("NEGATIVE_SEED", json.dumps({"inputs": SAMPLE_INPUTS, "mc": {"master_seed": -1}})),
            ("EPOCH_BEYOND_INT64",
             json.dumps({"inputs": SAMPLE_INPUTS, "year_split": {"epoch_start_ms": 2**63}})),
            ("EXACT_FIT", EXACT_FIT),
        ):
            files[name] = tmp_path / name
            files[name].write_text(text)
        args = [str(files.get(a, a)) for a in argv.split()]
        while "=" in args[0]:  # a leading NAME=value sets an environment variable
            monkeypatch.setenv(*args.pop(0).split("=", 1))
        if args[0] == "simulate":
            args += ["--out", str(tmp_path / "sim.csv")]
        else:
            args += ["--out-dir", str(tmp_path / "out")]
        assert cli_entry(args) == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        # a configuration error is caught before any input is read
        assert not (tmp_path / "out" / "variation.csv").exists()

    @pytest.mark.parametrize("command", ["ci --input VAR", "report --manifest SAMPLE"])
    def test_zero_workers_from_the_environment(self, tmp_path, variation_csv, capsys,
                                               monkeypatch, command):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"inputs": SAMPLE_INPUTS}))
        files = {"VAR": str(variation_csv), "SAMPLE": str(manifest)}
        monkeypatch.setenv("SPOTVAR_WORKERS", "0")
        args = [files.get(a, a) for a in command.split()] + ["--out-dir", str(tmp_path / "out")]
        assert cli_entry(args) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_error_class_exits_with_its_category_code(self, tmp_path, variation_csv,
                                                            capsys, monkeypatch, cls):
        def fail(*args, **kwargs):
            raise cls("injected")

        monkeypatch.setattr(cli, "df_test", fail)
        argv = ["dftest", "--input", str(variation_csv), "--out-dir", str(tmp_path)]
        assert cli_entry(argv) == _category_code(cls)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error at stage 'dftest':"), err

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_out_in_a_missing_directory_is_created(self, tmp_path, command):
        out = tmp_path / "new" / "dir" / "out.csv"
        assert cli_entry([*command, "--out", str(out)]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_out_that_is_a_directory_is_a_usage_error(self, tmp_path, capsys, command):
        assert cli_entry([*command, "--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, error", [
        pytest.param(["variation", *_leg_args(dict(SAMPLE_LEGS, num="FIFO"))], NUM_FIFO,
                     id="variation"),
        pytest.param(["report", *_leg_args(dict(SAMPLE_LEGS, num="FIFO"))], NUM_FIFO,
                     id="report-flag"),
        pytest.param(["report", "--manifest", "MANIFEST"], NUM_FIFO, id="report-manifest"),
        pytest.param(["report", "--manifest", "FIFO"], "manifest {fifo} is not a regular file",
                     id="manifest-fifo"),
    ])
    def test_a_leg_that_is_not_a_regular_file_is_a_usage_error(self, tmp_path, argv, error):
        """A FIFO with no writer, as a leg or as the manifest: opening it
        would wait forever, so it is refused before any input is opened, in
        a child that a hang times out."""
        fifo = tmp_path / "num.fifo"
        os.mkfifo(fifo)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"inputs": dict(SAMPLE_INPUTS, num=str(fifo))}))
        out = "--out" if argv[0] == "variation" else "--out-dir"
        args = [{"FIFO": fifo, "MANIFEST": manifest}.get(a, a) for a in argv]
        result = run_cli(*args, out, tmp_path / "out", timeout=60)
        assert result.returncode == 2
        assert result.stderr.splitlines() == ["usage error: " + error.format(fifo=fifo)]
        assert result.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", DIR_INPUTS)
    def test_input_that_is_a_directory_is_a_usage_error(self, tmp_path, capsys, argv):
        out = "--out" if argv[0] == "variation" else "--out-dir"
        args = [str(tmp_path) if a == "DIR" else a for a in argv]
        assert cli_entry([*args, out, str(tmp_path / "out")]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


class _KlineHandler(BaseHTTPRequestHandler):
    rows_by_symbol = {}

    def do_GET(self):
        q = parse_qs(urlparse(self.path).query)
        symbol = q["symbol"][0]
        start = int(q["startTime"][0])
        end = int(q["endTime"][0])
        limit = int(q.get("limit", ["1000"])[0])
        rows = [r for r in self.rows_by_symbol[symbol] if start <= r[0] <= end][:limit]
        payload = json.dumps(rows).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def kline_server():
    def make_rows(base_price, n):
        return [
            [T0 + k * MINUTE_MS, base_price, base_price, base_price, base_price,
             1.0, T0 + k * MINUTE_MS + MINUTE_MS - 1, 0, 1, 0, 0, 0]
            for k in range(n)
        ]

    _KlineHandler.rows_by_symbol = {
        "ETHBTC": make_rows(0.07, 120),
        "ETHUSDT": make_rows(2100.0, 120),
        "BTCUSDT": make_rows(30000.0, 120),
    }
    server = HTTPServer(("127.0.0.1", 0), _KlineHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/api/v3/klines"
    server.shutdown()


class TestFetchCommand:
    def test_recorded_fixture_replay(self, tmp_path, kline_server):
        result = run_cli(
            "fetch", "--symbol", "ETHBTC", "--symbol", "ETHUSDT", "--symbol", "BTCUSDT",
            "--start", T0, "--end", T0 + 120 * MINUTE_MS,
            "--endpoint", kline_server, "--out-dir", tmp_path,
        )
        assert result.returncode == 0, result.stderr
        from spotvar import PriceSeries

        for symbol in ("ETHBTC", "ETHUSDT", "BTCUSDT"):
            series = PriceSeries.from_csv(tmp_path / f"{symbol}.csv", symbol)
            assert len(series) == 120

    def test_unreachable_endpoint_exit_5(self, tmp_path):
        result = run_cli(
            "fetch", "--symbol", "ETHBTC", "--start", T0, "--end", T0 + MINUTE_MS,
            "--endpoint", "http://127.0.0.1:9/klines",
            "--max-retries", 1, "--backoff", 0.01, "--out-dir", tmp_path,
        )
        assert result.returncode == 5
        assert "NetworkError" in result.stderr or "retry budget" in result.stderr

    def test_empty_window_exit_3(self, tmp_path, kline_server):
        result = run_cli(
            "fetch", "--symbol", "ETHBTC", "--start", T0, "--end", T0,
            "--endpoint", kline_server, "--out-dir", tmp_path,
        )
        assert result.returncode == 3

    def test_missing_required_flag_exit_2(self):
        result = run_cli("fetch", "--symbol", "ETHBTC")
        assert result.returncode == 2
