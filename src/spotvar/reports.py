"""Render analysis results as text / CSV / JSON tables.

Text renderings round to the display precision used for side-by-side
comparison (six decimals, scientific below 1e-4); CSV and JSON carry full
float64 precision (repr round-trips exactly). Every rendering cites the
manifest hash of the run that produced it.
"""

from __future__ import annotations

import json


def fmt_display(x):
    """Six decimals for moderate magnitudes, scientific below 1e-4."""
    if x == 0:
        return "0.000000"
    return f"{x:.6f}" if abs(x) >= 1e-4 else f"{x:.6e}"


def fmt_full(x):
    return repr(float(x))


class TableWriter:
    """One logical table, writable as .txt, .csv and .json side by side."""

    def __init__(self, name, title, columns, rows, manifest_hash="", extra=None):
        self.name = name
        self.title = title
        self.columns = columns
        self.rows = rows  # list of tuples; strings pass through, floats formatted
        self.manifest_hash = manifest_hash
        self.extra = extra or {}

    def _cell(self, v, formatter):
        return v if isinstance(v, str) else formatter(v)

    def to_text(self):
        lines = [self.title]
        rendered = [self.columns] + [
            [self._cell(v, fmt_display) for v in row] for row in self.rows
        ]
        widths = [max(len(r[i]) for r in rendered) for i in range(len(self.columns))]
        for r in rendered:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        for k, v in self.extra.items():
            lines.append(f"{k}: {self._cell(v, fmt_display)}")
        lines.append(f"manifest: {self.manifest_hash}")
        return "\n".join(lines) + "\n"

    def to_csv(self):
        lines = [f"# manifest_hash={self.manifest_hash}", ",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(self._cell(v, fmt_full) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [[self._cell(v, float) for v in row] for row in self.rows],
            "manifest_hash": self.manifest_hash,
        }
        if self.extra:
            payload["extra"] = {k: self._cell(v, float) for k, v in self.extra.items()}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, out_dir):
        paths = []
        for ext, render in (("txt", self.to_text), ("csv", self.to_csv), ("json", self.to_json)):
            path = out_dir / f"{self.name}.{ext}"
            path.write_text(render())
            paths.append(path)
        return paths


def percentile_table(table, manifest_hash=""):
    rows = [(f"{int(p)}" if float(p).is_integer() else f"{p}", v)
            for p, v in zip(table.probes, table.values)]
    return TableWriter(
        "table1_percentiles",
        "Percentiles of the variation",
        ("percentile", "value"),
        rows,
        manifest_hash,
    )


def yearwise_percentile_table(year_tables, manifest_hash=""):
    # year_tables: list of (label, PercentileTable) sharing the same probes
    probes = year_tables[0][1].probes
    columns = ("year",) + tuple(
        f"{int(p)}" if float(p).is_integer() else f"{p}" for p in probes
    )
    rows = [(f"Year {label}",) + tuple(t.values) for label, t in year_tables]
    return TableWriter(
        "table2_yearwise_percentiles",
        "Yearwise percentiles of the variation",
        columns,
        rows,
        manifest_hash,
    )


def yearwise_iqr_table(year_iqrs, manifest_hash=""):
    rows = [(f"Year {label}", v) for label, v in year_iqrs]
    return TableWriter(
        "table3_yearwise_iqr",
        "Yearwise interquartile range",
        ("year", "iqr"),
        rows,
        manifest_hash,
    )


def df_table(results, manifest_hash=""):
    columns = ("model", "decision", "tau", "critical_value_1pct", "delta_hat", "n")
    rows = [
        (
            f"Model ({r.variant.value})",
            "Rejected" if r.reject_null else "Not rejected",
            r.tau,
            r.critical_value_1pct,
            r.delta_hat,
            f"{r.n_used}",
        )
        for r in results
    ]
    return TableWriter(
        "table4_dickey_fuller",
        "Dickey-Fuller test results (1% level)",
        columns,
        rows,
        manifest_hash,
    )


def ou_fit_table(params, trans, stats, loglik, dt, manifest_hash=""):
    rows = [
        ("alpha", params.alpha),
        ("mu", params.mu),
        ("sigma", params.sigma),
        ("cond_sd", trans.cond_sd),
        ("omega", trans.omega),
    ]
    extra = {"n": f"{stats.n}", "log_likelihood": loglik, "dt": dt}
    return TableWriter(
        "table5_ou_fit",
        "Maximum-likelihood OU fit",
        ("parameter", "value"),
        rows,
        manifest_hash,
        extra=extra,
    )


def ci_table(report, manifest_hash=""):
    rows = [
        (name, report.point[name], report.lower[name], report.upper[name])
        for name in ("alpha", "mu", "sigma")
    ]
    extra = {
        "confidence": report.confidence,
        "replications": f"{report.replications}",
        "failures": f"{report.n_failed}",
        "master_seed": f"{report.master_seed}",
    }
    return TableWriter(
        "table6_confidence_intervals",
        "Monte Carlo confidence intervals",
        ("parameter", "point", "lower", "upper"),
        rows,
        manifest_hash,
        extra=extra,
    )
