"""Command line front end: analyze a chain, run the demo, emit plot data.

Subcommands
-----------
analyze   convergence report for a chain stored as CSV
demo      run the built-in lamp-reliability study end to end
plotdata  write plot-ready delimited files (no plotting here)

Exit codes: 0 when the stopping rule is satisfied, 2 when the run is
healthy but the effective sample size is still below the cutoff (pipelines
can loop on "run longer"), 1 for any error. Reports are JSON with floats
in the shortest form that round-trips exactly; CSVs keep 17 significant
digits (``%.17g``).
The default output directory is the MCOUTPUT_OUT_DIR environment
variable, falling back to the current directory.
"""

import argparse
import array
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, _csvrows, lcd_demo
from .chain import ChainMatrix, discard_initial
from .errors import (
    InsufficientDataError,
    NumericsError,
    OutputAnalysisError,
    ParseError,
    UsageError,
)
from .inference import (
    CHECK_GROWTH,
    StoppingConfig,
    evaluate_verdict,
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

def dumps_report(report):
    """Serialize a report dict: insertion key order, floats in the shortest
    form that round-trips exactly. A non-finite float raises NumericsError."""
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericsError(f"report: {exc}") from None


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
    The file is opened once. Its rows are read by ``np.loadtxt`` where that
    gives a finite value for every cell of every row; otherwise, and
    always for input that cannot seek (a pipe), the csv-module parser reads
    it from the start. That parser decides every error, which names the
    physical line of the first bad row in file order. A seekable file of
    at least 32 MiB is cut into byte ranges, one per CPU, each parsed by
    the same ``loadtxt`` step at the same time, all but the first in a
    child process; the ranges join to the same array, bit for bit, and a
    range that is not clean sends the file to the csv-module parser.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        if fh.seekable():
            chain = _loadtxt_chain(fh)
            if chain is not None:
                return chain
            fh.seek(0)
        return _csv_chain(fh, path)


def _loadtxt_chain(fh):
    """The chain in ``fh`` as ``np.loadtxt`` reads it, or None where the
    csv parser must decide: any error, a file with no data row, a field
    longer than the csv module's limit, a column count that differs from
    the header's, or a value that is not finite."""
    try:
        header, head_end = _csvrows.read_head(fh)
        labels = [cell.strip() for cell in header]
        arr = _csvrows.read_after_head(
            fh, head_end, len(labels), csv.field_size_limit()
        )
        return ChainMatrix._adopt(arr, labels)
    except (ValueError, csv.Error, OutputAnalysisError):
        return None


def _csv_chain(fh, name):
    """Parse an open chain file with the csv module, row by row."""
    values = array.array("d")
    reader = csv.reader(fh)
    try:
        header = next(filter(None, reader), None)
        if header is None:
            raise ParseError("file is empty", line=1)
        header_line = reader.line_num
        labels = [cell.strip() for cell in header]
        width = len(labels)
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num  # the physical line the record ends on
            if len(row) != width:
                raise ParseError(
                    f"expected {width} columns, got {len(row)}", line=lineno
                )
            try:
                cells = [float(cell) for cell in row]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not all(map(math.isfinite, cells)):
                raise ParseError("chain values must all be finite", line=lineno)
            values.extend(cells)
    except UnicodeDecodeError:
        raise ParseError(f"{name} is not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not values:
        raise ParseError("no data rows after the header", line=header_line + 1)
    return ChainMatrix._adopt(np.frombuffer(values).reshape(-1, width), labels)


def _covariance_dict(est):
    return {
        "kind": est.kind,
        "batch_size": est.batch_size,
        "n_used": est.n_used,
        "is_psd": est.is_psd,
        "matrix": est.matrix.tolist(),
    }


def _region_dict(region):
    return {
        "center": region.center.tolist(),
        "shape": region.shape.tolist(),
        "hotelling_q2": region.hotelling_q2,
        "df": region.df,
        "log_volume": region.log_volume,
    }


def _analysis(config, verdict, lam, sig, summary):
    """The check and summary fields of every report, in report order. A
    quantile entry is its estimate, or nulls and the reason it failed."""
    quantiles = []
    for label, entries in zip(summary.labels, summary.quantiles):
        for q, entry in zip(summary.levels, entries):
            failed = isinstance(entry, OutputAnalysisError)
            lo, hi = (None, None) if failed else entry.ci
            out = {
                "column": label,
                "q": q,
                "point": None if failed else entry.point,
                "indicator_sigma2": None if failed else entry.indicator_sigma2,
                "density_at": None if failed else entry.density_at,
                "ci_lo": lo,
                "ci_hi": hi,
                "alpha": config.alpha,
            }
            if failed:
                out["reason"] = str(entry)
            quantiles.append(out)
    region, reason = summary.region, summary.region_reason
    return {
        "mean": summary.mean.tolist(),
        "mcse": summary.mcse.tolist(),
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
        "quantiles": quantiles,
        "region": None if region is None else _region_dict(region),
        "region_reason": None if reason is None else str(reason),
    }


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


def _marker_alpha(alpha, p, levels):
    """The Bonferroni level of each density marker band: alpha split across
    the mean and ``levels`` markers of p columns, so the bands hold jointly
    at level 1 - alpha. A split level at which 1 - level/2 rounds to 1 is
    refused before any work, naming --alpha as given."""
    markers = p * (1 + len(levels))
    if 0.0 < alpha < 1.0 and 1.0 - alpha / markers / 2.0 == 1.0:
        smallest = math.nextafter(markers * 2.0**-53, 1.0)
        raise UsageError(
            f"--alpha {alpha} is split across {markers} density markers, and "
            f"1 - (alpha/{markers})/2 rounds to 1; the smallest accepted "
            f"--alpha is {smallest!r}"
        )
    return alpha / markers


def _density_tables(chain, summary, alpha, grid_points, stem):
    """Density curve and markers (mean, summary quantiles) of every column,
    by file name; ``alpha`` is each marker band's level (``_marker_alpha``)."""
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


def _batch_rule(args):
    b = args.batch_size
    return default_batch_size if b is None else lambda n: b


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
    config = StoppingConfig(
        p=p, alpha=args.alpha, epsilon=args.epsilon, use_flat_top=args.flat_top,
        batch_size_fn=_batch_rule(args),
    )
    verdict, lam, sig = evaluate_verdict(chain, config)
    summary = summarize(chain, sig, args.alpha, args.quantiles)
    b = sig.batch_size

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
        **_analysis(config, verdict, lam, sig, summary),
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
    marker_alpha = _marker_alpha(args.alpha, 2, lcd_demo.CREDIBLE_LEVELS)
    report = lcd_demo.run_demo(
        seed=args.seed, alpha=args.alpha, epsilon=args.epsilon, max_n=args.max_n
    )
    config = report.config
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
        **_density_tables(chain, summary, marker_alpha, args.grid_points, "demo"),
        **_region_tables(summary.region, "demo"),
    }
    out_dir = _resolve_out_dir(args.out_dir)
    for name, table in tables.items():
        _write_csv(out_dir / name, *table)
    files = {Path(name).stem.removeprefix("demo_"): name for name in tables}

    final = report.final
    doc = {
        "tool": {"name": "mcoutput", "version": __version__},
        "kind": "demo-report",
        "config": {
            "seed": args.seed,
            "stream_id": lcd_demo.STREAM_ID,
            "proposal_sd": lcd_demo.PROPOSAL_SD,
            "beta_start": lcd_demo.BETA_START,
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
        "accept_rate": report.accept_rate,
        "verdicts": [dataclasses.asdict(v) for v in report.verdicts],
        **_analysis(config, final, report.lambda_est, report.sigma_est, summary),
        "files": files,
    }
    report_path = out_dir / "demo_report.json"
    report_path.write_text(dumps_report(doc))
    status = "yes" if report.terminated else "no"
    print(
        f"n={n} ess={final.ess:.1f} cutoff={config.cutoff.rounded} "
        f"accept_rate={report.accept_rate:.3f} terminated={status}"
    )
    for label, mean, entries in zip(summary.labels, summary.mean, summary.quantiles):
        lo, hi = entries[0].point, entries[-1].point
        print(f"{label}: mean={mean:.4g} ci=({lo:.4g}, {hi:.4g})")
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
    if args.kind in ("acf", "ccf") and not 0 <= args.lags < n:
        raise UsageError(f"--lags must satisfy 0 <= lags < n={n}, got {args.lags}")

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
        levels = (0.025, 0.975)
        marker_alpha = _marker_alpha(args.alpha, p, levels)
        sigma = batch_means_sigma(chain, _batch_rule(args)(n))
        summary = summarize(chain, sigma, args.alpha, levels)
        summary.raise_failures(region=False)
        tables = _density_tables(chain, summary, marker_alpha, args.grid_points, stem)
    else:  # region
        if p != 2:
            raise UsageError(
                f"region plot data needs a two-column chain, got p={p}"
            )
        sigma = batch_means_sigma(chain, _batch_rule(args)(n))
        summary = summarize(chain, sigma, args.alpha, ())
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
