import hashlib
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import numpy as np
import pytest

import spotvar
from conftest import MINUTE_MS
from spotvar.cli import cli_entry

DATA = Path(__file__).parent / "data"
T0 = 1_504_224_000_000
# the directory holding the spotvar package this process imported
SOURCE_ROOT = str(Path(spotvar.__file__).resolve().parents[1])


def run_cli(*args, env=None, cwd=None):
    """Run ``python -m spotvar.cli`` in a child process.

    The child imports the same ``spotvar`` as this process: its source root
    goes first on the child's ``PYTHONPATH`` as an absolute path, so neither
    a ``cwd`` nor an installed copy changes which code is tested.
    """
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = (
        SOURCE_ROOT + os.pathsep + inherited if inherited else SOURCE_ROOT
    )
    return subprocess.run(
        [sys.executable, "-m", "spotvar.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd,
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
            "variation", "--raw-klines", "--spot", raw, "--num", raw,
            "--den", raw, "--out", out,
        )
        assert result.returncode == 0, result.stderr

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


class TestPipelineCommands:
    @pytest.fixture
    def variation_csv(self, tmp_path, ou_legs):
        path = tmp_path / "variation.csv"
        ou_legs[3].to_csv(path)
        return path

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

    def test_ci_command(self, tmp_path, variation_csv):
        result = run_cli(
            "ci", "--input", variation_csv, "--replications", 20,
            "--path-length", 300, "--seed", 1, "--out-dir", tmp_path,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "table6_confidence_intervals.json").read_text())
        assert payload["extra"]["replications"] == "20"


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
