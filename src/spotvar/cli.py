"""Command-line pipeline driver.

`report` runs the whole chain: legs -> variation -> Tables 1-3 (summary),
4 (df), 5 (fit), 6 (ci). `variation` runs its head; `summarize`, `dftest`,
`fit` and `ci` write a slice of its tables from a variation file, with its
defaults. `_SETTINGS` declares each run setting's key and default once, for
the manifest and for the flags (`_flag`). Precedence: flag > environment
variable > manifest file > default.

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


# every run setting: its default, what it must be and the check, run on
# the resolved value before any input is read; a manifest nests the dotted
# keys in their section objects
_SETTINGS = {
    **{f"inputs.{leg}": (None, "a path", lambda v: v is None or isinstance(v, str))
       for leg in LEGS},
    "dt": (1.0, "a number > 0", lambda v: _number(v) and v > 0),
    # 2017-09-01 00:00:00 UTC, the default sample epoch
    "year_split.epoch_start_ms": (1_504_224_000_000, "an integer", _integer),
    "year_split.n_years": (4, "an integer", _integer),
    "percentile_probes": (
        [0, 25, 50, 75, 100],
        "a list of numbers in [0, 100] holding 25 and 75 (Table 3's IQR)",
        lambda v: isinstance(v, list) and all(map(_number, v)) and valid_probes(v)
        and {25, 75} <= set(v),
    ),
    "df_level": (0.01, "0.01, the one tabulated level", lambda v: v == 0.01),
    "mc.replications": (1000, "an integer", _integer),
    # null: the sample size
    "mc.path_length": (None, "an integer or null", lambda v: v is None or _integer(v)),
    "mc.confidence": (0.90, "a number", _number),
    "mc.master_seed": (0, "an integer", _integer),
    "mc.initial_value": (None, "a number or null", lambda v: v is None or _number(v)),
    "skip_mc": (False, "true or false", lambda v: isinstance(v, bool)),
}
_SECTIONS = ("inputs", "year_split", "mc")
# what `report` writes into manifest.json besides the settings; skipped on read
_DERIVED = ("version", "input_hashes", "manifest_hash")


def _mc_config(cfg, n):
    """The Monte Carlo settings of the resolved config `cfg`; a null path
    length means `n`, the sample size."""
    mc = cfg["mc"]
    path_length = n if mc["path_length"] is None else mc["path_length"]
    return McConfig(**dict(mc, path_length=path_length), dt=cfg["dt"])


def _resolve(manifest_file, flags):
    """The `_SETTINGS` of a run, nested as a manifest nests them: a flag of
    `flags` (keyed by `_flag`'s parameter names) that is not None beats the
    manifest file, which beats the default. A key that is not a setting,
    a dotted one at the top level included, is a usage error; the
    `_DERIVED` keys are skipped, so a bundle's manifest.json resolves to
    the settings that wrote it."""
    values = {key: default for key, (default, _, _) in _SETTINGS.items()}
    loaded = {}
    if manifest_file:
        if not Path(manifest_file).is_file():  # opening a FIFO waits for a writer
            raise click.UsageError(f"manifest {manifest_file} is not a regular file")
        try:
            loaded = json.loads(Path(manifest_file).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise click.UsageError(f"manifest {manifest_file} is not JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise click.UsageError(f"manifest {manifest_file} is not a JSON object")
    for key, value in loaded.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise click.UsageError(f"manifest value '{key}' must be an object, got {value!r}")
            values.update((f"{key}.{leaf}", v) for leaf, v in value.items())
        elif key not in _DERIVED:
            values[key] = value
    values.update((name.replace("__", "."), v) for name, v in flags.items() if v is not None)
    unknown = sorted({key for key in loaded if "." in key} | (values.keys() - _SETTINGS.keys()))
    if unknown:
        raise click.UsageError(f"unknown manifest keys: {', '.join(unknown)}")
    cfg = {"version": __version__}
    for key, (_, what, ok) in _SETTINGS.items():
        value = values[key]
        if not ok(value):
            raise click.UsageError(f"manifest value '{key}' must be {what}, got {value!r}")
        section, _, leaf = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[leaf] = value
    try:  # the range checks of the Monte Carlo settings and the year split
        _mc_config(cfg, McConfig.path_length)
        check_n_years(cfg["year_split"]["n_years"])
    except InvalidArgument as exc:
        raise click.UsageError(str(exc)) from exc
    return cfg


def _manifest_hash(cfg):
    """The SHA-256 of the canonical JSON of `cfg`, the resolved settings and
    the input hashes. It covers everything that determines the outputs, so
    two runs with the same hash must produce byte-identical bundles, at any
    `--workers` and any BLAS thread count: Monte Carlo seeds are spawned per
    replication, and the AR(1) core and the log-likelihood take their dot
    products in slices of 10,000 elements, the most OpenBLAS computes in a
    `ddot` on one thread (`unitroot._slice_sums`)."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


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


def _check_legs(paths):
    """A usage error unless every leg names a regular file. Run before the
    pool forks and before any leg is opened: `read_leg` opens a leg twice,
    and opening a FIFO waits for a writer."""
    for leg in sorted(LEGS):
        path = paths.get(leg)
        if not path:
            raise click.UsageError(f"missing input for leg '{leg}'")
        if not Path(path).exists():
            raise click.UsageError(f"input for leg '{leg}' not found: {path} "
                                   f"(relative paths resolve against the working directory)")
        if not Path(path).is_file():
            raise click.UsageError(f"input for leg '{leg}' is not a regular file: {path}")


def _load_legs(paths, pool=None):
    """Load the legs, align them, take the variation. Returns the variation
    and the rows each leg lost to the alignment."""
    legs = [_run("load", PriceSeriesLoader, paths[leg], leg, pool) for leg in LEGS]
    triple = _run("align", align, *legs)
    return _run("variation", compute_variation, triple), triple.dropped


def _tables(var, cfg, out, tables, mhash="", pool=None):
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
        reports.df_table(done["df"], mhash).write(out)
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


def _slice(input_path, out_dir, tables, workers=1, **flags):
    cfg = _resolve(None, flags)
    with fork_pool(workers) as pool:
        var = _run("load", VariationSeries.from_csv, input_path, pool)
        return _tables(var, cfg, Path(out_dir), tables, pool=pool)


def _flag(flag, key, **click_kw):
    """A flag for the run setting `key`. It defaults to None, so that
    `_resolve` applies the setting's default, which `--help` shows; its
    parameter name is `key` with a double underscore for each dot."""
    default = _SETTINGS[key][0]
    if default is not None:
        click_kw.setdefault("help", f"default: {default}")
    return click.option(flag, key.replace(".", "__"), default=None, **click_kw)


def _out_dir_option(default="."):
    return click.option("--out-dir", type=click.Path(file_okay=False), default=default)


_input_file = click.Path(exists=True, dir_okay=False)
_input_option = click.option("--input", "input_path", type=_input_file, required=True)
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
def variation_cmd(out, workers, **legs):
    """Align the three legs (normalized or Binance kline CSVs), write the variation series."""
    _check_legs(legs)
    with fork_pool(workers) as pool:
        var, dropped = _load_legs(legs, pool)
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        var.to_csv(out, pool=pool)
    click.echo(f"{len(var)} aligned minutes -> {out} (dropped: {dropped})")


@main.command()
@_input_option
@_flag("--epoch-start", "year_split.epoch_start_ms", type=int)
@_flag("--years", "year_split.n_years", type=int)
@_out_dir_option()
def summarize(input_path, out_dir, **flags):
    """Emit the percentile / yearwise / IQR tables."""
    _slice(input_path, out_dir, ("summary",), **flags)
    click.echo(f"tables 1-3 -> {Path(out_dir)}")


@main.command()
@_input_option
@_out_dir_option()
def dftest(input_path, out_dir):
    """Run the three Dickey-Fuller models at the 1% level."""
    for r in _slice(input_path, out_dir, ("df",))["df"]:
        decision = "Rejected" if r.reject_null else "Not rejected"
        click.echo(f"Model ({r.variant.value}): {decision} (tau={r.tau:.4f})")


@main.command()
@_input_option
@_flag("--dt", "dt", type=float)
@_out_dir_option()
def fit(input_path, out_dir, **flags):
    """Closed-form OU maximum-likelihood fit."""
    params, _, _ = _slice(input_path, out_dir, ("fit",), **flags)["fit"]
    click.echo(f"alpha={params.alpha:.6f} mu={params.mu:.6e} sigma={params.sigma:.6f}")


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--mu", type=float, required=True)
@click.option("--sigma", type=float, required=True)
@click.option("--v0", type=float, default=None, help="initial value (default mu)")
@click.option("--steps", type=int, required=True)
@click.option("--dt", type=float, default=1.0, show_default=True)
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
@_flag("--replications", "mc.replications", type=int)
@_flag("--path-length", "mc.path_length", type=int, help="default: the sample size")
@_flag("--confidence", "mc.confidence", type=float)
@_flag("--seed", "mc.master_seed", type=int, envvar="SPOTVAR_SEED")
@_workers_option
@_flag("--dt", "dt", type=float)
@_out_dir_option()
def ci(input_path, workers, out_dir, **flags):
    """Fit, then Monte Carlo confidence intervals for the parameters."""
    r = _slice(input_path, out_dir, ("ci",), workers=workers, **flags)["ci"]
    for name in ("alpha", "mu", "sigma"):
        click.echo(f"{name}: {r.point[name]:.6e} [{r.lower[name]:.6e}, {r.upper[name]:.6e}]")


@main.command()
@click.option("--manifest", "manifest_file", type=_input_file, default=None)
@_flag("--spot", "inputs.spot", type=_input_file)
@_flag("--num", "inputs.num", type=_input_file)
@_flag("--den", "inputs.den", type=_input_file)
@_out_dir_option("report")
@_flag("--seed", "mc.master_seed", type=int, envvar="SPOTVAR_SEED")
@_workers_option
@_flag("--replications", "mc.replications", type=int)
@_flag("--path-length", "mc.path_length", type=int, help="default: the sample size")
@_flag("--skip-mc", "skip_mc", is_flag=True)
def report(manifest_file, out_dir, workers, **flags):
    """Run the full pipeline and emit the paper-shaped report bundle."""
    cfg = _resolve(manifest_file, flags)
    _check_legs(cfg["inputs"])
    with fork_pool(workers) as pool:  # before any input is read
        cfg["input_hashes"] = {leg: _sha256_file(cfg["inputs"][leg]) for leg in LEGS}
        mhash = _manifest_hash(cfg)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        var, _ = _load_legs(cfg["inputs"], pool)
        var.to_csv(out / "variation.csv", header_comment=f"manifest_hash={mhash}", pool=pool)
        _tables(var, cfg, out, TABLES[:-1] if cfg["skip_mc"] else TABLES, mhash, pool)
    manifest = json.dumps(dict(cfg, manifest_hash=mhash), indent=2, sort_keys=True)
    (out / "manifest.json").write_text(manifest + "\n")
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
