"""Command-line pipeline driver.

`report` runs the whole chain: legs -> variation -> Tables 1-3 (summary),
4 (df), 5 (fit), 6 (ci). `variation` runs its head; `summarize`, `dftest`,
`fit` and `ci` write a slice of its tables from a variation file, with its
defaults. Precedence: flag > environment variable > manifest file.

Exit codes: 0 success, 2 usage error (an out-of-range value included),
else the `exit_code` of the error's category in `spotvar.errors`.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import InvalidArgument, SpotvarError
from .ingest import BINANCE_KLINES_URL, FetchConfig, fetch_klines, read_leg
from .montecarlo import McConfig, confidence_intervals, sampling_distribution
from .ou import OUParams, log_likelihood, mle_fit, simulate_path
from .parallel import fork_pool, usable_cores
from .summary import check_n_years, iqr, percentiles, split_years, valid_probes
from .unitroot import DFModel, df_test
from .variation import VariationSeries, align, compute_variation
from . import reports

# 2017-09-01 00:00:00 UTC, the default sample epoch
DEFAULT_EPOCH_MS = 1_504_224_000_000
LEGS = ("spot", "num", "den")
TABLES = ("summary", "df", "fit", "ci")


class StageError(SpotvarError):
    def __init__(self, stage, cause):
        self.exit_code = cause.exit_code
        super().__init__(f"stage '{stage}': {cause}")


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _number(v):
    """A finite JSON number: `json.loads` also accepts NaN and Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and (
        isinstance(v, int) or math.isfinite(v))


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


# what each configuration value must be, checked before any input is read
_VALUE_CHECKS = {
    "inputs": ("an object of paths", lambda v: all(isinstance(p, str) for p in v.values())),
    "dt": ("a number > 0", lambda v: _number(v) and v > 0),
    "year_split.epoch_start_ms": ("an integer", _integer),
    "year_split.n_years": ("an integer", _integer),
    "percentile_probes": (
        "a list of numbers in [0, 100] holding 25 and 75 (Table 3's IQR)",
        lambda v: isinstance(v, list) and all(map(_number, v)) and valid_probes(v)
        and {25, 75} <= set(v),
    ),
    "df_level": ("0.01, the one tabulated level", lambda v: v == 0.01),
    "mc.replications": ("an integer", _integer),
    "mc.path_length": ("an integer or null", lambda v: v is None or _integer(v)),
    "mc.confidence": ("a number", _number),
    "mc.master_seed": ("an integer", _integer),
    "mc.initial_value": ("a number or null", lambda v: v is None or _number(v)),
    "skip_mc": ("true or false", lambda v: isinstance(v, bool)),
}


def _check_values(data):
    """Raise UsageError naming the first configuration value that is not
    what `_VALUE_CHECKS` requires, then run the range checks of the Monte
    Carlo settings and the year split on the well-typed values."""
    for key, (what, ok) in _VALUE_CHECKS.items():
        section, _, leaf = key.rpartition(".")
        value = data[section][leaf] if section else data[key]
        if not ok(value):
            raise click.UsageError(f"manifest value '{key}' must be {what}, got {value!r}")
    try:
        _mc_config(data, McConfig.path_length)
        check_n_years(data["year_split"]["n_years"])
    except InvalidArgument as exc:
        raise click.UsageError(str(exc)) from exc


def _mc_config(cfg, n):
    """The Monte Carlo settings of the resolved config `cfg`; a null path
    length means `n`, the sample size."""
    mc = cfg["mc"]
    return McConfig(
        replications=mc["replications"],
        path_length=mc["path_length"] or n,
        dt=cfg["dt"],
        confidence=mc["confidence"],
        master_seed=mc["master_seed"],
        initial_value=mc["initial_value"],
    )


class RunManifest:
    """Resolved run configuration plus content hashes of the inputs.

    The manifest hash covers everything that determines the outputs, so two
    runs with the same hash must produce byte-identical bundles, at any
    `--workers` and any BLAS thread count: Monte Carlo seeds are spawned per
    replication, and the AR(1) core takes its dot products in slices of
    10,000 elements, the most OpenBLAS computes in a `ddot` on one thread
    (`unitroot._dot`).
    """

    def __init__(self, data):
        self.data = data

    @classmethod
    def resolve(cls, manifest_file=None, overrides=None):
        base = {
            "inputs": {},
            "dt": 1.0,
            "year_split": {"epoch_start_ms": DEFAULT_EPOCH_MS, "n_years": 4},
            "percentile_probes": [0, 25, 50, 75, 100],
            "df_level": 0.01,
            "mc": {
                "replications": 1000,
                "path_length": None,  # None -> full-sample n
                "confidence": 0.90,
                "master_seed": 0,
                "initial_value": None,
            },
            "skip_mc": False,
            "version": __version__,
        }
        if manifest_file:
            try:
                loaded = json.loads(Path(manifest_file).read_text(encoding="utf-8"))
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
                raise click.UsageError(f"manifest {manifest_file} is not JSON: {exc}") from exc
            if not isinstance(loaded, dict):
                raise click.UsageError(f"manifest {manifest_file} is not a JSON object")
            for key, value in loaded.items():
                if not isinstance(base.get(key), dict):
                    base[key] = value
                elif isinstance(value, dict):
                    base[key].update(value)
                else:
                    raise click.UsageError(
                        f"manifest value '{key}' must be an object, got {value!r}"
                    )
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            node = base
            *parents, leaf = key.split(".")
            for p in parents:
                node = node[p]
            node[leaf] = value
        _check_values(base)
        return cls(base)

    def with_input_hashes(self):
        """Add the SHA-256 of every input; relative paths resolve against
        the working directory. A leg without an input, or an input that is
        not a file, is a usage error."""
        inputs = self.data["inputs"]
        for leg in sorted({*LEGS, *inputs}):
            if not inputs.get(leg):
                raise click.UsageError(f"missing input for leg '{leg}'")
            if not Path(inputs[leg]).is_file():
                raise click.UsageError(
                    f"input for leg '{leg}' not found: {inputs[leg]} "
                    f"(relative paths resolve against the working directory)"
                )
        hashes = {leg: _sha256_file(path) for leg, path in sorted(inputs.items())}
        data = dict(self.data, input_hashes=hashes)
        return RunManifest(data)

    @property
    def hash(self):
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def dump(self, path):
        payload = dict(self.data, manifest_hash=self.hash)
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@click.group()
@click.version_option(__version__)
def main():
    """Spot-quotient variation analysis pipeline."""


def _run(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SpotvarError as exc:
        raise StageError(stage, exc) from exc


PriceSeriesLoader = read_leg


def _load_legs(paths, pool=None):
    """Load the legs, align them, take the variation. Returns the variation
    and the rows each leg lost to the alignment."""
    legs = [_run("load", PriceSeriesLoader, paths[leg], leg, pool) for leg in LEGS]
    triple = _run("align", align, *legs)
    return _run("variation", compute_variation, triple), triple.dropped


def _tables(var, cfg, out, tables, mhash="", pool=None, verbose=True):
    """Write the `tables` subset of TABLES for `var` into `out`, under the
    resolved config `cfg`. Returns the DF results, fitted parameters and
    intervals computed, keyed "df", "fit" (`mle_fit`'s triple) and "ci"."""
    dt = cfg["dt"]
    if "ci" in tables:  # before any work: a sample too short to simulate fails at once
        mc_cfg = _mc_config(cfg, len(var))
    out.mkdir(parents=True, exist_ok=True)
    done = {}
    if "summary" in tables:
        probes, ys = cfg["percentile_probes"], cfg["year_split"]
        table1 = _run("summary", percentiles, var, probes)
        slices = _run("summary", split_years, var, ys["epoch_start_ms"], ys["n_years"])
        year_tables = [(s.label, percentiles(s.series, probes)) for s in slices if len(s.series)]
        year_iqrs = [(label, _run("summary", iqr, t)) for label, t in year_tables]
        reports.percentile_table(table1, mhash).write(out)
        reports.yearwise_percentile_table(year_tables, mhash).write(out)
        reports.yearwise_iqr_table(year_iqrs, mhash).write(out)
    if "df" in tables:
        done["df"] = [_run("dftest", df_test, var, m) for m in DFModel]
        reports.df_table(done["df"], mhash, verbose).write(out)
    if "fit" in tables or "ci" in tables:
        params, trans, stats = done["fit"] = _run("fit", mle_fit, var, dt)
    if "fit" in tables:
        loglik = log_likelihood(params, var, dt)
        reports.ou_fit_table(params, trans, stats, loglik, dt, mhash).write(out)
    if "ci" in tables:
        samples = _run("montecarlo", sampling_distribution, params, mc_cfg, pool=pool)
        done["ci"] = _run("montecarlo", confidence_intervals, samples, mc_cfg.confidence, params)
        reports.ci_table(done["ci"], mhash).write(out)
    return done


def _slice(input_path, out_dir, tables, overrides=None, workers=1, **kw):
    cfg = RunManifest.resolve(None, overrides).data
    with fork_pool(workers) as pool:
        var = _run("load", VariationSeries.from_csv, input_path, pool)
        return _tables(var, cfg, Path(out_dir), tables, pool=pool, **kw)


def _out_dir_option(default="."):
    return click.option("--out-dir", type=click.Path(file_okay=False), default=default)


_input_file = click.Path(exists=True, dir_okay=False)
_input_option = click.option("--input", "input_path", type=_input_file, required=True)
_dt_option = click.option("--dt", type=float, default=1.0, show_default=True)
_workers_option = click.option(
    "--workers", type=click.IntRange(min=1), envvar="SPOTVAR_WORKERS", default=usable_cores,
    show_default="the usable cores",
    help="processes that parse inputs, write variation.csv and run the Monte Carlo; "
         "1 forks none",
)


@main.command()
@click.option("--symbol", "symbols", multiple=True, required=True)
@click.option("--start", type=int, required=True, help="window start, ms UTC")
@click.option("--end", type=int, required=True, help="window end, ms UTC (exclusive)")
@click.option("--endpoint", envvar="SPOTVAR_ENDPOINT", default=None)
@click.option("--pause", type=click.FloatRange(min=0), default=0.0, help="seconds between pages")
@click.option("--max-retries", type=click.IntRange(min=0), default=4, show_default=True)
@click.option("--backoff", type=click.FloatRange(min=0), default=0.5, show_default=True)
@_out_dir_option()
def fetch(symbols, start, end, endpoint, pause, max_retries, backoff, out_dir):
    """Fetch 1m klines for each symbol and write <symbol>.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = FetchConfig(endpoint or BINANCE_KLINES_URL, max_retries=max_retries,
                      backoff_base_s=backoff, pause_s=pause)
    for symbol in symbols:
        series = _run("fetch", fetch_klines, symbol, start, end, config=cfg)
        path = out / f"{symbol}.csv"
        series.to_csv(path)
        click.echo(f"{symbol}: {len(series)} rows -> {path}")


@main.command("variation")
@click.option("--spot", type=_input_file, required=True)
@click.option("--num", type=_input_file, required=True)
@click.option("--den", type=_input_file, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default="variation.csv")
@_workers_option
def variation_cmd(spot, num, den, out, workers):
    """Align the three legs (normalized or Binance kline CSVs), write the variation series."""
    with fork_pool(workers) as pool:
        var, dropped = _load_legs({"spot": spot, "num": num, "den": den}, pool)
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        var.to_csv(out, pool=pool)
    click.echo(f"{len(var)} aligned minutes -> {out} (dropped: {dropped})")


@main.command()
@_input_option
@click.option("--epoch-start", type=int, default=DEFAULT_EPOCH_MS, show_default=True)
@click.option("--years", type=int, default=4, show_default=True)
@_out_dir_option()
def summarize(input_path, epoch_start, years, out_dir):
    """Emit the percentile / yearwise / IQR tables."""
    overrides = {"year_split.epoch_start_ms": epoch_start, "year_split.n_years": years}
    _slice(input_path, out_dir, ("summary",), overrides)
    click.echo(f"tables 1-3 -> {Path(out_dir)}")


@main.command()
@_input_option
@_out_dir_option()
@click.option("--verbose/--brief", default=True)
def dftest(input_path, out_dir, verbose):
    """Run the three Dickey-Fuller models at the 1% level."""
    for r in _slice(input_path, out_dir, ("df",), verbose=verbose)["df"]:
        decision = "Rejected" if r.reject_null else "Not rejected"
        click.echo(f"Model ({r.variant.value}): {decision} (tau={r.tau:.4f})")


@main.command()
@_input_option
@_dt_option
@_out_dir_option()
def fit(input_path, dt, out_dir):
    """Closed-form OU maximum-likelihood fit."""
    params, _, _ = _slice(input_path, out_dir, ("fit",), {"dt": dt})["fit"]
    click.echo(f"alpha={params.alpha:.6f} mu={params.mu:.6e} sigma={params.sigma:.6f}")


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--mu", type=float, required=True)
@click.option("--sigma", type=float, required=True)
@click.option("--v0", type=float, default=None, help="initial value (default mu)")
@click.option("--steps", type=int, required=True)
@_dt_option
@click.option("--seed", type=int, envvar="SPOTVAR_SEED", default=0)
@click.option("--out", type=click.Path(dir_okay=False), default="simulated.csv")
def simulate(alpha, mu, sigma, v0, steps, dt, seed, out):
    """Simulate an OU path via the exact transition law."""
    params = OUParams(alpha=alpha, mu=mu, sigma=sigma)
    start = mu if v0 is None else v0
    path = _run("simulate", simulate_path, params, start, steps, dt, seed)
    times = np.arange(len(path), dtype=np.int64)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    VariationSeries(times, path).to_csv(out)
    click.echo(f"{len(path)} values -> {out}")


@main.command()
@_input_option
@click.option("--replications", type=int, default=1000, show_default=True)
@click.option("--path-length", type=int, default=None, help="default: sample size")
@click.option("--confidence", type=float, default=0.90, show_default=True)
@click.option("--seed", type=int, envvar="SPOTVAR_SEED", default=0)
@_workers_option
@_dt_option
@_out_dir_option()
def ci(input_path, replications, path_length, confidence, seed, workers, dt, out_dir):
    """Fit, then Monte Carlo confidence intervals for the parameters."""
    overrides = {
        "dt": dt,
        "mc.replications": replications,
        "mc.path_length": path_length,
        "mc.confidence": confidence,
        "mc.master_seed": seed,
    }
    r = _slice(input_path, out_dir, ("ci",), overrides, workers=workers)["ci"]
    for name in ("alpha", "mu", "sigma"):
        click.echo(f"{name}: {r.point[name]:.6e} [{r.lower[name]:.6e}, {r.upper[name]:.6e}]")


@main.command()
@click.option("--manifest", "manifest_file", type=_input_file, default=None)
@click.option("--spot", type=_input_file, default=None)
@click.option("--num", type=_input_file, default=None)
@click.option("--den", type=_input_file, default=None)
@_out_dir_option("report")
@click.option("--seed", type=int, envvar="SPOTVAR_SEED", default=None)
@_workers_option
@click.option("--replications", type=int, default=None)
@click.option("--path-length", type=int, default=None)
@click.option("--skip-mc", is_flag=True, default=None)
def report(manifest_file, spot, num, den, out_dir, seed, workers, replications,
           path_length, skip_mc):
    """Run the full pipeline and emit the paper-shaped report bundle."""
    overrides = {
        "inputs.spot": spot,
        "inputs.num": num,
        "inputs.den": den,
        "mc.master_seed": seed,
        "mc.replications": replications,
        "mc.path_length": path_length,
        "skip_mc": skip_mc,
    }
    manifest = RunManifest.resolve(manifest_file, overrides)
    with fork_pool(workers) as pool:  # before any input is read
        manifest = manifest.with_input_hashes()
        mhash = manifest.hash
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        var, _ = _load_legs(manifest.data["inputs"], pool)
        var.to_csv(out / "variation.csv", header_comment=f"manifest_hash={mhash}", pool=pool)
        tables = TABLES[:-1] if manifest.data["skip_mc"] else TABLES
        _tables(var, manifest.data, out, tables, mhash, pool)
    manifest.dump(out / "manifest.json")
    click.echo(f"report bundle -> {out} (manifest {mhash[:12]})")


def cli_entry(argv=None):
    """Entry point with exit-code mapping for pipeline errors."""
    try:
        main.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:  # BadParameter too
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 2
    except SpotvarError as exc:
        click.echo(f"error{' at' if isinstance(exc, StageError) else ':'} {exc}", err=True)
        return exc.exit_code
    return 0


def entry():
    sys.exit(cli_entry())


if __name__ == "__main__":
    entry()
