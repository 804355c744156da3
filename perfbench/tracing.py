"""Traced in-process run of the spotvar CLI, and the per-layer metrics.

Run as a script, it replaces the names through which `spotvar.cli`,
`spotvar.montecarlo` and `spotvar.reports` call into the other layers with
timing wrappers, calls `cli_entry` with the remaining arguments, and writes
the spans to a JSON file when the run ends:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json report --spot ...

Spans are kept in memory while the program runs. Spans recorded in process
pool children are lost, so Monte Carlo runs are traced with `--workers 1`.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# (module, attribute) -> span name. Module names are relative to `spotvar`.
FUNCTION_SPANS = {
    ("cli", "_sha256_file"): "cli.hash_inputs",
    ("cli", "PriceSeriesLoader"): "ingest.load",
    ("cli", "align"): "variation.align",
    ("cli", "compute_variation"): "variation.compute",
    ("cli", "percentiles"): "summary.percentiles",
    ("cli", "split_years"): "summary.split_years",
    ("cli", "df_test"): "unitroot.df",
    ("cli", "mle_fit"): "ou.fit",
    ("cli", "log_likelihood"): "ou.loglik",
    ("cli", "sampling_distribution"): "montecarlo.sampling",
    ("cli", "confidence_intervals"): "montecarlo.ci",
    ("montecarlo", "simulate_path"): "ou.simulate",
    ("montecarlo", "mle_fit"): "ou.refit",
}
# (module, class, method) -> span name
METHOD_SPANS = {
    ("variation", "VariationSeries", "to_csv"): "variation.write",
    ("variation", "VariationSeries", "from_csv"): "variation.read",
    ("reports", "TableWriter", "write"): "reports.write",
}


def _count(span, args, result):
    """Work done by one call, where the layer reports it."""
    if span == "ingest.load":
        return {"rows": len(result), "bytes": Path(args[0]).stat().st_size}
    if span == "variation.align":
        return {"rows_dropped": sum(result.dropped.values())}
    if span == "reports.write":
        return {"bytes": sum(p.stat().st_size for p in result)}
    return {}


def _timed(fn, span, spans):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            counts = _count(span, args, result) if result is not None else {}
            spans.append((span, start, end, counts))

    return wrapper


def install(spans):
    """Wrap every traced name; spans are appended to `spans`."""
    for (mod, attr), span in FUNCTION_SPANS.items():
        module = importlib.import_module(f"spotvar.{mod}")
        setattr(module, attr, _timed(getattr(module, attr), span, spans))
    for (mod, cls_name, meth), span in METHOD_SPANS.items():
        cls = getattr(importlib.import_module(f"spotvar.{mod}"), cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            fn = _timed(raw.__func__, span, spans)
            setattr(cls, meth, classmethod(fn))
        else:
            setattr(cls, meth, _timed(raw, span, spans))


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    spans = []
    start = time.perf_counter()
    import spotvar.cli as cli

    spans.append(("setup.import", start, time.perf_counter(), {}))
    install(spans)
    start = time.perf_counter()
    code = cli.cli_entry(cli_args)
    spans.append(("cli", start, time.perf_counter(), {}))
    Path(spans_path).write_text(json.dumps({"spans": spans}))
    return code


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    own = [s[2] - s[1] for s in spans]
    stack = []
    for i in order:
        while stack and spans[stack[-1]][2] <= spans[i][1]:
            stack.pop()
        if stack:
            own[stack[-1]] -= spans[i][2] - spans[i][1]
        stack.append(i)
    return own


SUMMED_SPANS = (
    "cli.hash_inputs", "ingest.load", "variation.align", "variation.compute",
    "variation.write", "variation.read", "summary.percentiles",
    "summary.split_years", "unitroot.df", "ou.fit", "ou.loglik",
    "montecarlo.ci", "reports.write",
)


UNITS = {
    "cli.hash_inputs_s": "s",
    "cli.self_s": "s",
    "ingest.load_s": "s",
    "ingest.rows": "count",
    "ingest.bytes": "B",
    "ingest.load_mb_per_s": "MB/s",
    "variation.align_s": "s",
    "variation.rows_dropped": "count",
    "variation.compute_s": "s",
    "variation.write_s": "s",
    "variation.read_s": "s",
    "summary.percentiles_s": "s",
    "summary.split_years_s": "s",
    "unitroot.df_s": "s",
    "ou.fit_s": "s",
    "ou.loglik_s": "s",
    "ou.simulate_s": "s",
    "ou.refit_s": "s",
    "montecarlo.replication_s": "s",
    "montecarlo.dispatch_s": "s",
    "montecarlo.parallel_efficiency": "ratio",
    "montecarlo.failed_replications": "count",
    "montecarlo.ci_s": "s",
    "reports.write_s": "s",
    "reports.bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.explained_share": "ratio",
}


def layer_metrics(spans, traced_wall, untraced_wall, workers, replications):
    """Per-layer metrics from one traced run. Layers a workload never calls
    read 0. `ou.simulate_s`, `ou.refit_s` and `montecarlo.replication_s` are
    medians per replication; the other times are self times summed over
    calls."""
    own = self_times(spans)
    by_name = {}
    for span, o in zip(spans, own):
        by_name.setdefault(span[0], []).append((span[2] - span[1], o, span[3]))

    def total(name, key=1):
        return sum(entry[key] for entry in by_name.get(name, []))

    def counted(name, field):
        return sum(entry[2].get(field, 0) for entry in by_name.get(name, []))

    def median(values):
        return statistics.median(values) if values else 0.0

    m = {f"{name}_s": total(name) for name in SUMMED_SPANS}
    m["cli.self_s"] = total("cli")
    m["ingest.rows"] = counted("ingest.load", "rows")
    m["ingest.bytes"] = counted("ingest.load", "bytes")
    load_s = m["ingest.load_s"]
    m["ingest.load_mb_per_s"] = m["ingest.bytes"] / 1e6 / load_s if load_s else 0.0
    m["variation.rows_dropped"] = counted("variation.align", "rows_dropped")
    m["reports.bytes"] = counted("reports.write", "bytes")

    simulate = [e[0] for e in by_name.get("ou.simulate", [])]
    refit = [e[0] for e in by_name.get("ou.refit", [])]
    replication = [a + b for a, b in zip(simulate, refit)]
    m["ou.simulate_s"] = median(simulate)
    m["ou.refit_s"] = median(refit)
    m["montecarlo.replication_s"] = median(replication)
    m["montecarlo.dispatch_s"] = total("montecarlo.sampling")
    serial = m["montecarlo.replication_s"] * replications
    m["montecarlo.parallel_efficiency"] = serial / (untraced_wall * workers) if replications else 0.0

    layers = sum(o for span, o in zip(spans, own) if span[0] != "cli")
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.explained_share"] = layers / traced_wall
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
