"""Command line front end: analyze a chain, run the demo, emit plot data.

Subcommands
-----------
analyze   convergence report for a chain stored as CSV
demo      run the built-in lamp-reliability study end to end
plotdata  write plot-ready delimited files (no plotting here)

Exit codes: 0 when the stopping rule is satisfied, 2 when the run is
healthy but the effective sample size is still below the cutoff (pipelines
can loop on "run longer"), 1 for any error. Reports are JSON with floats
written to 17 significant digits so every value round-trips exactly.
The default output directory is the MCOUTPUT_OUT_DIR environment
variable, falling back to the current directory.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, lcd_demo
from .chain import ChainMatrix, discard_initial
from .errors import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    OutputAnalysisError,
    ParseError,
    UsageError,
)
from .inference import (
    CHECK_GROWTH,
    StoppingConfig,
    evaluate_verdict,
    min_ess_cutoff,
    summarize,
)
from .mcse import batch_means_sigma, correlogram, default_batch_size
from .quantiles import KDE_BANDWIDTH_RULE, kde_at, kde_bandwidth, normal_interval

__all__ = [
    "main",
    "cmd_analyze",
    "cmd_demo",
    "cmd_plotdata",
    "read_chain_csv",
    "write_chain_csv",
    "dumps_report",
]

PLOT_KINDS = ("trace", "acf", "ccf", "density", "region")


# ---------------------------------------------------------------------------
# serialization

def _write_json(obj, out, level, indent):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        # 17 significant digits: enough to reproduce any double exactly
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad_in + json.dumps(str(key)) + ": ")
            _write_json(value, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad_in)
            _write_json(value, out, level + 1, indent)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report):
    """Serialize a report dict: stable key order, 17-digit floats."""
    out = []
    _write_json(report, out, 0, 2)
    return "".join(out) + "\n"


def _write_csv(path, header, *columns):
    """Write a header row, then one CRLF-terminated line per row: float
    columns to 17 significant digits, every other column (integer indices
    and lags, string kinds) as ``str``. A ``range`` index column is written
    without ever being held as an array."""
    columns = [c if isinstance(c, range) else np.asarray(c) for c in columns]
    floats = [not isinstance(c, range) and c.dtype.kind == "f" for c in columns]
    line = ",".join("%.17g" if f else "%s" for f in floats)
    line += "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % row for row in zip(*columns))


def _chain_table(chain):
    return [chain.label(i) for i in range(chain.cols)], *chain.values.T


def write_chain_csv(chain, path):
    _write_csv(path, *_chain_table(chain))


def read_chain_csv(path):
    """Read a chain from comma-delimited text with a header row.

    The file must be UTF-8 text. Blank lines are skipped, so the header is
    the first non-blank row; a leading UTF-8 byte-order mark is dropped.
    Error lines are physical.
    """
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            numbered = enumerate(csv.reader(fh), start=1)
            header_line, header = next(
                ((n, row) for n, row in numbered if row), (1, None)
            )
            if header is None:
                raise ParseError("file is empty", line=1)
            labels = [cell.strip() for cell in header]
            width = len(labels)
            for lineno, row in numbered:
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(
                        f"expected {width} columns, got {len(row)}", line=lineno
                    )
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError as exc:
                    raise ParseError(str(exc), line=lineno) from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None
    if not rows:
        raise ParseError("no data rows after the header", line=header_line + 1)
    values = np.asarray(rows, dtype=float)
    del rows
    try:
        return ChainMatrix(values, labels)
    except DataError as exc:
        # only a non-finite cell gets here; find its line by reading again
        bad_row = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = [n for n, row in enumerate(csv.reader(fh), start=1) if row]
        raise ParseError(str(exc), line=lines[bad_row + 1]) from None


def _covariance_dict(est):
    return {
        "kind": est.kind,
        "batch_size": est.batch_size,
        "n_used": est.n_used,
        "is_psd": est.is_psd,
        "matrix": [[float(v) for v in row] for row in est.matrix],
    }


def _region_dict(region):
    return {
        "center": [float(v) for v in region.center],
        "shape": [[float(v) for v in row] for row in region.shape],
        "hotelling_q2": region.hotelling_q2,
        "df": region.df,
        "volume": region.volume,
    }


def _quantile_dict(column_label, q, alpha, entry):
    """A summary entry: its estimate, or nulls and the reason it failed."""
    failed = isinstance(entry, OutputAnalysisError)
    lo, hi = (None, None) if failed else entry.ci
    out = {
        "column": column_label,
        "q": q,
        "point": None if failed else entry.point,
        "indicator_sigma2": None if failed else entry.indicator_sigma2,
        "density_at": None if failed else entry.density_at,
        "ci_lo": lo,
        "ci_hi": hi,
        "alpha": alpha,
    }
    if failed:
        out["reason"] = str(entry)
    return out


# ---------------------------------------------------------------------------
# plot-data tables: (header, *columns), ready for _write_csv

def _safe(label):
    return "".join(c if c.isalnum() else "_" for c in str(label)).lower()


def _check_file_labels(chain):
    """Per-column files are named by label; two columns may not share one."""
    seen = {}
    for i in range(chain.cols):
        key = _safe(chain.label(i))
        if key in seen:
            raise UsageError(
                f"columns {chain.label(seen[key])!r} and {chain.label(i)!r} "
                f"would write the same '{key}' files; give them distinct labels"
            )
        seen[key] = i


def _trace_tables(stem, header, *columns):
    index = range(1, len(columns[0]) + 1)
    return {
        f"{stem}_trace_{_safe(label)}.csv": (["index", "value"], index, column)
        for label, column in zip(header, columns)
    }


def _correlogram_tables(chain, lags, pairs, kind, stem):
    """Correlogram and 3/sqrt(n) band of each column pair, by file name:
    ``acf`` names a file by the pair's first column, ``ccf`` by both."""
    tables = {}
    for i, j in pairs:
        series = correlogram(chain, lags, (i, j))
        columns = (i,) if kind == "acf" else (i, j)
        name = "_".join(_safe(chain.label(k)) for k in columns)
        band = np.full(len(series.lags), 3.0 / math.sqrt(series.n_used))
        table = (["lag", "value", "band"], series.lags, series.values, band)
        tables[f"{stem}_{kind}_{name}.csv"] = table
    return tables


def _density_tables(chain, summary, alpha, grid_points, stem):
    """Density curve and markers (mean, summary quantiles) of every column,
    by file name. The marker bands are Bonferroni-adjusted across all the
    markers, so they hold jointly at level 1 - alpha."""
    alpha /= chain.cols * (1 + len(summary.quantiles[0]))
    tables = {}
    for i in range(chain.cols):
        name = f"{stem}_density_{_safe(chain.label(i))}"
        col = chain.column(i)
        pad = 3.0 * kde_bandwidth(col)
        grid = np.linspace(col.min() - pad, col.max() + pad, grid_points)
        tables[f"{name}.csv"] = (["grid", "kde"], grid, kde_at(col, grid))
        mean = float(summary.mean[i])
        rows = [("mean", mean, *normal_interval(mean, alpha, summary.mcse[i]))]
        for qe in summary.quantiles[i]:
            sd = math.sqrt(qe.indicator_sigma2)
            scale = qe.density_at * math.sqrt(chain.rows)
            band = normal_interval(qe.point, alpha, sd, scale)
            rows.append((f"q{qe.q:g}", qe.point, *band))
        header = ["kind", "value", "band_lo", "band_hi"]
        tables[f"{name}_markers.csv"] = (header, *zip(*rows))
    return tables


def _region_tables(region, stem):
    points = np.vstack([region.boundary, region.center])
    kinds = ["boundary"] * len(region.boundary) + ["center"]
    return {f"{stem}_region.csv": (["kind", "x", "y"], kinds, *points.T)}


def _batch_size(args, n):
    return default_batch_size(n) if args.batch_size is None else args.batch_size


def _check_grid_points(args):
    if args.grid_points < 2:
        raise UsageError(f"--grid-points must be >= 2, got {args.grid_points}")


def _resolve_out_dir(arg):
    out_dir = Path(arg or os.environ.get("MCOUTPUT_OUT_DIR") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args):
    chain = read_chain_csv(args.input)
    if args.discard:
        chain = discard_initial(chain, args.discard)
    n, p = chain.rows, chain.cols
    if p > n:
        raise InsufficientDataError(f"more columns ({p}) than rows ({n})")
    for i in range(p):
        col = chain.column(i)
        if col.min() == col.max():
            raise DegenerateDataError(f"column '{chain.label(i)}' is constant")
    config = StoppingConfig(
        p=p, alpha=args.alpha, epsilon=args.epsilon, use_flat_top=args.flat_top
    )
    b = _batch_size(args, n)
    verdict, lam, sig = evaluate_verdict(chain, config, batch_size=b)
    summary = summarize(chain, sig, b, args.alpha, args.quantiles)

    quantile_entries = [
        _quantile_dict(chain.label(i), q, args.alpha, entry)
        for i in range(p)
        for q, entry in zip(args.quantiles, summary.quantiles[i])
    ]
    region, reason = summary.region, summary.region_reason

    report = {
        "tool": {"name": "mcoutput", "version": __version__},
        "kind": "analysis-report",
        "input": {
            "path": str(args.input),
            "n": n,
            "p": p,
            "labels": [chain.label(i) for i in range(p)],
        },
        "config": {
            "alpha": args.alpha,
            "epsilon": args.epsilon,
            "batch_size": b,
            "estimator": sig.kind,
            "flat_top_requested": bool(args.flat_top),
            "discard_first": args.discard,
            "quantile_levels": list(args.quantiles),
            "kde_bandwidth_rule": KDE_BANDWIDTH_RULE,
            "hotelling_df_rule": "batches - p",
        },
        "mean": [float(v) for v in summary.mean],
        "target_covariance": _covariance_dict(lam),
        "asymptotic_covariance": {
            **_covariance_dict(sig),
            "fallback_used": verdict.fallback_used,
        },
        "ess": verdict.ess,
        "cutoff": verdict.cutoff,
        "cutoff_rounded": config.cutoff.rounded,
        "n_star": config.n_star,
        "rhat": verdict.rhat,
        "terminated": verdict.terminate,
        "quantiles": quantile_entries,
        "region": None if region is None else _region_dict(region),
        "region_reason": None if reason is None else str(reason),
    }

    out_path = (
        Path(args.out)
        if args.out
        else _resolve_out_dir(args.out_dir) / f"{Path(args.input).stem}_report.json"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(dumps_report(report))
    status = "yes" if verdict.terminate else "no"
    print(
        f"n={n} p={p} b={b} estimator={sig.kind} "
        f"ess={verdict.ess:.1f} cutoff={config.cutoff.rounded} "
        f"rhat={verdict.rhat:.6f} terminated={status}"
    )
    print(f"report: {out_path}")
    return 0 if verdict.terminate else 2


def cmd_demo(args):
    _check_grid_points(args)
    config = lcd_demo.DemoConfig(
        seed=args.seed,
        alpha=args.alpha,
        epsilon=args.epsilon,
        max_n=args.max_n,
    )
    report = lcd_demo.run_demo(config)
    chain = report.chain
    summary = report.summary
    n = chain.rows

    params = (["lambda", "beta"], *report.params.T)
    lags = lcd_demo.ACF_LAGS
    tables = {
        "demo_chain.csv": _chain_table(chain),
        "demo_params.csv": params,
        **_trace_tables("demo", *params),
        **_correlogram_tables(chain, lags, [(0, 0), (1, 1)], "acf", "demo"),
        **_correlogram_tables(chain, lags, [(0, 1)], "ccf", "demo"),
        **_density_tables(chain, summary, config.alpha, args.grid_points, "demo"),
        **_region_tables(summary.region, "demo"),
    }
    out_dir = _resolve_out_dir(args.out_dir)
    for name, table in tables.items():
        _write_csv(out_dir / name, *table)
    files = {Path(name).stem.removeprefix("demo_"): name for name in tables}

    estimates = {}
    for i in range(chain.cols):
        label = chain.label(i)
        entries = summary.quantiles[i]
        estimates[label] = {
            "mean": float(summary.mean[i]),
            "mcse": float(summary.mcse[i]),
            "credible_lo": entries[0].point,
            "credible_hi": entries[-1].point,
            "quantiles": [
                _quantile_dict(label, qe.q, qe.alpha, qe) for qe in entries
            ],
        }

    final = report.final
    doc = {
        "tool": {"name": "mcoutput", "version": __version__},
        "kind": "demo-report",
        "config": {
            "seed": config.seed,
            "stream_id": lcd_demo.STREAM_ID,
            "proposal_sd": lcd_demo.PROPOSAL_SD,
            "beta_start": report.beta_start,
            "alpha": config.alpha,
            "epsilon": config.epsilon,
            "long_run_n": lcd_demo.LONG_RUN_N,
            "max_n": config.max_n,
            "check_growth": CHECK_GROWTH,
            "acf_lags": lcd_demo.ACF_LAGS,
            "credible_levels": list(lcd_demo.CREDIBLE_LEVELS),
            "kde_bandwidth_rule": KDE_BANDWIDTH_RULE,
            "bands": "Bonferroni-adjusted, simultaneous across markers",
        },
        "data": {
            "n_failures": len(lcd_demo.LCD_FAILURE_HOURS),
            "total_hours": sum(lcd_demo.LCD_FAILURE_HOURS),
        },
        "n": n,
        "terminated": report.terminated,
        "ess": final.ess,
        "cutoff": final.cutoff,
        "cutoff_rounded": min_ess_cutoff(config.alpha, config.epsilon, 2).rounded,
        "rhat": final.rhat,
        "accept_rate": report.accept_rate,
        "verdicts": [dataclasses.asdict(v) for v in report.verdicts],
        "estimates": estimates,
        "target_covariance": _covariance_dict(report.lambda_est),
        "asymptotic_covariance": _covariance_dict(report.sigma_est),
        "region": _region_dict(summary.region),
        "files": files,
    }
    report_path = out_dir / "demo_report.json"
    report_path.write_text(dumps_report(doc))
    status = "yes" if report.terminated else "no"
    print(
        f"n={n} ess={final.ess:.1f} cutoff={doc['cutoff_rounded']} "
        f"accept_rate={report.accept_rate:.3f} terminated={status}"
    )
    for label, est in estimates.items():
        print(
            f"{label}: mean={est['mean']:.4g} "
            f"ci=({est['credible_lo']:.4g}, {est['credible_hi']:.4g})"
        )
    print(f"report: {report_path}")
    return 0 if report.terminated else 2


def cmd_plotdata(args):
    if args.kind not in PLOT_KINDS:
        raise UsageError(
            f"unknown kind '{args.kind}'; choose from {', '.join(PLOT_KINDS)}"
        )
    chain = read_chain_csv(args.input)
    n, p = chain.rows, chain.cols
    stem = Path(args.input).stem
    # every table is computed before the output directory is made
    if args.kind in ("trace", "acf", "density"):
        _check_file_labels(chain)

    if args.kind == "trace":
        tables = _trace_tables(stem, *_chain_table(chain))
    elif args.kind == "acf":
        pairs = [(i, i) for i in range(p)]
        tables = _correlogram_tables(chain, args.lags, pairs, "acf", stem)
    elif args.kind == "ccf":
        tables = _correlogram_tables(chain, args.lags, [args.pair], "ccf", stem)
    elif args.kind == "density":
        _check_grid_points(args)
        if not 0.0 < args.alpha < 1.0:
            raise UsageError(f"--alpha must be inside (0, 1), got {args.alpha}")
        b = _batch_size(args, n)
        sigma = batch_means_sigma(chain, b)
        summary = summarize(chain, sigma, b, args.alpha, (0.025, 0.975))
        summary.raise_failures(region=False)
        tables = _density_tables(chain, summary, args.alpha, args.grid_points, stem)
    else:  # region
        if p != 2:
            raise UsageError(
                f"region plot data needs a two-column chain, got p={p}"
            )
        b = _batch_size(args, n)
        summary = summarize(chain, batch_means_sigma(chain, b), b, args.alpha, ())
        summary.raise_failures()
        tables = _region_tables(summary.region, stem)

    out_dir = _resolve_out_dir(args.out_dir)
    for name, table in tables.items():
        _write_csv(out_dir / name, *table)
    for name in tables:
        print(out_dir / name)
    return 0


# ---------------------------------------------------------------------------
# parser

def _parse_quantiles(text):
    try:
        levels = tuple(float(part) for part in text.split(","))
    except ValueError:
        levels = ()
    if not levels or not all(0.0 < q < 1.0 for q in levels):
        raise argparse.ArgumentTypeError(
            f"bad quantile list {text!r}: levels must be numbers inside (0, 1)"
        )
    return levels


def _parse_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bad column pair: {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad column pair: {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcoutput",
        description="MCMC output analysis: standard errors, effective sample "
        "size, sequential stopping, quantile intervals.",
        epilog="MCOUTPUT_OUT_DIR sets the default output directory.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="convergence report for a chain CSV")
    pa.add_argument("input", help="chain CSV with a header row")
    pa.add_argument("--alpha", type=float, default=0.05)
    pa.add_argument("--epsilon", type=float, default=0.05)
    pa.add_argument("--batch-size", type=int, default=None,
                    help="batch length b (default: even floor of n^(1/3))")
    pa.add_argument("--flat-top", action="store_true",
                    help="use the flat-top estimator, falling back to batch "
                    "means when it is unusable")
    pa.add_argument("--quantiles", type=_parse_quantiles,
                    default=(0.025, 0.975),
                    help="comma-separated levels (default 0.025,0.975)")
    pa.add_argument("--discard", type=int, default=0,
                    help="drop this many initial rows before analysis")
    pa.add_argument("--out", default=None, help="report path")
    pa.add_argument("--out-dir", default=None)
    pa.set_defaults(func=cmd_analyze)

    pd = sub.add_parser("demo", help="run the lamp-reliability demo")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--alpha", type=float, default=0.05)
    pd.add_argument("--epsilon", type=float, default=0.05)
    pd.add_argument("--max-n", type=int, default=200_000)
    pd.add_argument("--grid-points", type=int, default=201)
    pd.add_argument("--out-dir", default=None)
    pd.set_defaults(func=cmd_demo)

    pp = sub.add_parser("plotdata", help="write plot-ready CSV files")
    pp.add_argument("input", help="chain CSV with a header row")
    pp.add_argument("--kind", required=True,
                    help="one of: " + ", ".join(PLOT_KINDS))
    pp.add_argument("--lags", type=int, default=50)
    pp.add_argument("--grid-points", type=int, default=201)
    pp.add_argument("--pair", type=_parse_pair, default=(0, 1),
                    help="column pair for ccf, e.g. 0,1")
    pp.add_argument("--alpha", type=float, default=0.05)
    pp.add_argument("--batch-size", type=int, default=None)
    pp.add_argument("--out-dir", default=None)
    pp.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; reserve 2 for "not terminated"
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (OutputAnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
