"""Command line behavior: exit codes, report contents, file outputs."""

import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

import mcoutput
from mcoutput import (
    ChainMatrix,
    RngStream,
    StoppingConfig,
    batch_means_sigma,
    default_batch_size,
    hotelling_region,
    lcd_demo,
    quantile_ci,
    sqrt_batch_size,
)
from mcoutput.cli import (
    dumps_report,
    main,
    read_chain_csv,
    write_chain_csv,
)
from mcoutput.errors import NumericsError, ParameterError, ParseError
from mcoutput.lcd_demo import BETA_START
from oracles import Ar1Spec, generate_ar1

# the check and summary fields every report carries, in report order
ANALYSIS_KEYS = [
    "mean", "mcse", "target_covariance", "asymptotic_covariance", "ess",
    "cutoff", "cutoff_rounded", "n_star", "rhat", "terminated", "quantiles",
    "region", "region_reason",
]


@pytest.fixture(scope="module")
def ar1_csv(tmp_path_factory):
    """A 100k-row AR(1) chain at rho = 0.5 stored the way analyze reads it."""
    path = tmp_path_factory.mktemp("chains") / "ar1.csv"
    chain = generate_ar1(Ar1Spec(rho=0.5), 100_000, RngStream(83))
    write_chain_csv(chain, path)
    return path


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_analyze_long_chain_terminates(ar1_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", str(ar1_csv), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    n = report["input"]["n"]
    assert n == 100_000
    # iid-equivalent fraction for AR(1) at rho = .5 is (1-rho)/(1+rho) = 1/3
    assert 0.28 < report["ess"] / n < 0.39
    assert report["terminated"] is True
    assert report["cutoff_rounded"] == 6146
    assert report["config"]["batch_size"] == 46
    assert report["config"]["estimator"] == "batch-means"
    assert report["rhat"] == pytest.approx(
        math.sqrt(1.0 + 1.0 / report["ess"]), rel=1e-15
    )
    assert report["region"] is not None
    assert report["region_reason"] is None
    assert len(report["quantiles"]) == 2
    shown = capsys.readouterr().out
    assert "terminated=yes" in shown


def _period_four_csv(tmp_path):
    """0, 0, 1, 1, ... plus small noise: at b = 4 the batch means are
    nearly equal and the half-batch means alternate, so flat-top is
    negative."""
    path = tmp_path / "period4.csv"
    x = np.tile([0.0, 0.0, 1.0, 1.0], 100) + 0.01 * RngStream(3).normal(size=400)
    write_chain_csv(ChainMatrix(x), path)
    return path


@pytest.mark.parametrize("case,fallback", [("ar1", False), ("period4", True)])
def test_analyze_flat_top_names_the_estimator_it_used(
    ar1_csv, tmp_path, case, fallback
):
    path = ar1_csv if case == "ar1" else _period_four_csv(tmp_path)
    out = tmp_path / "report.json"
    argv = ["analyze", str(path), "--flat-top", "--out", str(out)]
    if case == "period4":
        argv += ["--batch-size", "4"]
    assert main(argv) in (0, 2)
    report = json.loads(out.read_text())
    assert report["asymptotic_covariance"]["fallback_used"] is fallback
    expected = "batch-means" if fallback else "flat-top"
    assert report["config"]["estimator"] == expected
    assert report["asymptotic_covariance"]["kind"] == expected
    assert report["config"]["flat_top_requested"] is True
    assert report["config"]["batch_size"] % 2 == 0
    assert math.isfinite(report["ess"])


def test_analyze_report_is_deterministic_and_roundtrips(ar1_csv, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["analyze", str(ar1_csv), "--out", str(out1)])
    main(["analyze", str(ar1_csv), "--out", str(out2)])
    text = out1.read_text()
    assert text == out2.read_text()
    # parse, re-serialize: floats in the shortest form that round-trips
    # exactly make this byte-stable
    assert dumps_report(json.loads(text)) == text


def test_analyze_short_chain_says_run_longer(tmp_path):
    path = tmp_path / "short.csv"
    write_chain_csv(ChainMatrix(RngStream(5).normal(size=500)), path)
    assert main(["analyze", str(path), "--out-dir", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "short_report.json").read_text())
    assert report["terminated"] is False
    assert report["ess"] < report["n_star"]


def test_analyze_constant_column_is_an_error(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("x,y\n" + "".join(f"{v},1.0\n" for v in range(20)))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'y' is constant" in err


def test_analyze_ragged_row_reports_line(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("x,y\n1.0,2.0\n3.0\n")
    assert main(["analyze", str(path)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_analyze_empty_and_missing_files(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["analyze", str(empty)]) == 1
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 1
    assert main(["analyze", str(tmp_path)]) == 1  # IsADirectoryError path
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
def test_analyze_overflowing_chain_says_to_rescale(tmp_path, capsys):
    """The products of this finite chain overflow: numpy used to warn, and
    the error then blamed positive definiteness."""
    path = tmp_path / "huge.csv"
    write_chain_csv(ChainMatrix(RngStream(31).normal(size=(3000, 2)) * 1e160), path)
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: batch-means covariance overflows; rescale the chain\n"
    )


def test_plotdata_overflowing_acf_writes_nothing(tmp_path, capsys):
    """Its variances overflow: numpy used to warn, and all-nan files were
    written with exit code 0."""
    path = tmp_path / "huge.csv"
    write_chain_csv(ChainMatrix(RngStream(31).normal(size=(3000, 2)) * 1e160), path)
    out = tmp_path / "out"
    assert main(["plotdata", str(path), "--kind", "acf", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: correlogram of column pair (0, 0) overflows; rescale the chain\n"
    )
    assert not out.exists()


def test_analyze_underflowing_chain_says_to_rescale(tmp_path, capsys):
    """At 1e-170 the squares underflow to zero, and the error used to blame
    positive definiteness."""
    path = tmp_path / "tiny.csv"
    write_chain_csv(ChainMatrix(RngStream(3).normal(size=(3000, 2)) * 1e-170), path)
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: batch-means covariance underflows; rescale the chain\n"
    )


def _subnormal_spike_csv(tmp_path, seed, n):
    """Subnormal N(0, 1) * 1e-320 draws and one 1e-12 spike, in column 'a':
    the IQR is subnormal, so the KDE bandwidth underflows."""
    x = np.random.default_rng(seed).standard_normal(n) * 1e-320
    x[3] = 1e-12
    path = tmp_path / f"spike{n}.csv"
    write_chain_csv(ChainMatrix(x[:, None], ("a",)), path)
    return path


def test_analyze_underflowing_kde_bandwidth_is_a_quantile_reason(tmp_path, capsys):
    """The subnormal bandwidth made the density inf: numpy warned, and the
    report failed to serialize with exit code 1."""
    out = tmp_path / "report.json"
    argv = ["analyze", str(_subnormal_spike_csv(tmp_path, 0, 30)), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ""
    low, high = json.loads(out.read_text())["quantiles"]
    assert (low["q"], low["point"], low["ci_lo"]) == (0.025, None, None)
    assert low["reason"] == "KDE bandwidth underflows; rescale the chain"
    assert high["reason"] == "indicator series for threshold 1e-12 is constant"


def test_plotdata_underflowing_kde_bandwidth_writes_nothing(tmp_path, capsys):
    """The same chain at 300 rows used to give exit code 0 and a density
    file of inf."""
    path = _subnormal_spike_csv(tmp_path, 1, 300)
    out = tmp_path / "out"
    argv = ["plotdata", str(path), "--kind", "density", "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: column 'a', q=0.025: KDE bandwidth underflows; rescale the chain\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "cols, scale", [(10, 2.0**300), (10, 1e100), (10, 1e-100), (50, 1e30)]
)
def test_analyze_region_log_volume_on_any_scale(tmp_path, cols, scale):
    """The region's volume, e^2269 at 1e100 and e^-2336 at 1e-100, is no
    double: it used to overflow with a traceback, or be written as 0."""
    x = RngStream(41).normal(size=(20_000, cols))
    path = tmp_path / "scaled.csv"
    write_chain_csv(ChainMatrix(x * scale), path)
    assert main(["analyze", str(path), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "scaled_report.json").read_text())
    region = report["region"]
    sig = batch_means_sigma(ChainMatrix(x), report["config"]["batch_size"])
    unit = hotelling_region(x.mean(axis=0), sig, 20_000, 0.05, region["df"])
    assert math.isfinite(region["log_volume"])
    assert region["log_volume"] - unit.log_volume == pytest.approx(
        cols * math.log(scale), abs=1e-6
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_report_value_is_a_numerics_error(value):
    with pytest.raises(NumericsError, match="not JSON compliant"):
        dumps_report({"x": value})
    with pytest.raises(NumericsError, match="not JSON compliant"):
        dumps_report({"region": {"center": [0.0, value]}})


def test_analyze_cutoff_below_eight_names_alpha_and_epsilon(
    small_two_col, tmp_path, capsys
):
    """analyze has no n_star setting, yet this used to print "n_star must be
    >= 8, got 1"; an explicit n_star keeps that message."""
    args = ["analyze", str(small_two_col), "--alpha", "0.9", "--epsilon", "0.9"]
    assert main([*args, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: alpha=0.9, epsilon=0.9, p=2 give a minimum ESS of 1, below the "
        "8 rows the first check needs; lower alpha or epsilon\n"
    )
    with pytest.raises(ParameterError, match="^n_star must be >= 8, got 7$"):
        StoppingConfig(p=2, alpha=0.9, epsilon=0.9, n_star=7)
    assert StoppingConfig(p=2, alpha=0.9, epsilon=0.9, n_star=8).cutoff.rounded == 1


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xff4\n")
    with pytest.raises(ParseError, match="is not UTF-8 text"):
        read_chain_csv(path)
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out-dir", str(out)]) == 1
    assert main(["plotdata", str(path), "--kind", "trace", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text\n" * 2
    assert not out.exists()


def test_analyze_more_columns_than_rows(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("a,b\n1.0,2.0\n")
    assert main(["analyze", str(path)]) == 1
    assert "more columns" in capsys.readouterr().err


def test_analyze_discard_drops_initial_rows(tmp_path):
    path = tmp_path / "warm.csv"
    write_chain_csv(ChainMatrix(RngStream(7).normal(size=100)), path)
    main(["analyze", str(path), "--discard", "40", "--out-dir", str(tmp_path)])
    report = json.loads((tmp_path / "warm_report.json").read_text())
    assert report["input"]["n"] == 60
    assert report["config"]["discard_first"] == 40


def test_chain_csv_roundtrip_is_exact(tmp_path):
    chain = generate_ar1(Ar1Spec(rho=0.3, dim=2), 64, RngStream(11))
    path = tmp_path / "two.csv"
    write_chain_csv(chain, path)
    back = read_chain_csv(path)
    np.testing.assert_array_equal(back.values, chain.values)
    assert [back.label(i) for i in range(2)] == ["col0", "col1"]


def test_demo_small_run_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    args = ["demo", "--epsilon", "0.3", "--max-n", "2000"]
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    report = json.loads((d1 / "demo_report.json").read_text())
    assert (d1 / "demo_report.json").read_text() == (d2 / "demo_report.json").read_text()
    assert (d1 / "demo_chain.csv").read_text() == (d2 / "demo_chain.csv").read_text()
    assert report["terminated"] is True
    assert report["config"]["beta_start"] == BETA_START
    assert [v["n"] for v in report["verdicts"]] == [209, 2000]
    for name in report["files"].values():
        assert (d1 / name).exists()


@pytest.fixture(scope="module")
def small_demo(tmp_path_factory):
    """One ``demo --epsilon 0.3 --max-n 2000`` run: its directory and report."""
    out = tmp_path_factory.mktemp("demo")
    argv = ["demo", "--epsilon", "0.3", "--max-n", "2000", "--out-dir", str(out)]
    assert main(argv) == 0
    return out, json.loads((out / "demo_report.json").read_text())


def test_demo_plot_files_are_plotdata_output(small_demo, tmp_path):
    """plotdata on the exported chain and params, with the report's batch
    length for density and region, writes all ten demo plot files byte for
    byte."""
    out, report = small_demo
    chain, params = str(out / "demo_chain.csv"), str(out / "demo_params.csv")
    b = str(report["asymptotic_covariance"]["batch_size"])
    plots = tmp_path / "plots"
    for argv in (
        [chain, "--kind", "acf", "--lags", "50"],
        [chain, "--kind", "ccf", "--lags", "50"],
        [chain, "--kind", "density", "--batch-size", b],
        [chain, "--kind", "region", "--batch-size", b],
        [params, "--kind", "trace"],
    ):
        assert main(["plotdata", *argv, "--out-dir", str(plots)]) == 0
    files = report["files"]
    names = [name for key, name in files.items() if key not in ("chain", "params")]
    assert len(names) == len(list(plots.iterdir())) == 10
    for name in names:
        stem = "demo_params" if name.startswith("demo_trace_") else "demo_chain"
        twin = plots / name.replace("demo", stem, 1)
        assert twin.read_bytes() == (out / name).read_bytes(), name


def test_demo_density_mean_marker_is_the_reported_mean(small_demo):
    out, report = small_demo
    for label, mean in zip(["MTTF", "R1500"], report["mean"], strict=True):
        rows = _read_rows(out / report["files"][f"density_{label.lower()}_markers"])
        assert rows[1][:2] == ["mean", format(mean, ".17g")]


def test_demo_cutoff_echo_tracks_epsilon(tmp_path):
    assert main(
        ["demo", "--epsilon", "0.025", "--max-n", "500", "--out-dir", str(tmp_path)]
    ) == 2
    report = json.loads((tmp_path / "demo_report.json").read_text())
    assert report["cutoff_rounded"] == 30116
    assert [v["n"] for v in report["verdicts"]] == [500]
    assert main(["demo", "--max-n", "500", "--out-dir", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "demo_report.json").read_text())
    assert report["cutoff_rounded"] == 7529


def test_demo_cutoff_echo_is_the_run_s_stopping_cutoff(small_demo, tmp_path):
    _, report = small_demo
    assert report["cutoff_rounded"] == StoppingConfig(p=2, epsilon=0.3).cutoff.rounded
    assert main(["demo", "--max-n", "500", "--out-dir", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "demo_report.json").read_text())
    assert report["cutoff_rounded"] == StoppingConfig(p=2).cutoff.rounded


def test_demo_chain_reanalysis_reproduces_ess(small_demo, tmp_path):
    """Feeding the demo's own chain back through analyze with the same
    epsilon and batch length reproduces the demo's whole analysis block,
    key for key, in the same order and bit for bit."""
    demo_dir, demo_report = small_demo
    b = demo_report["asymptotic_covariance"]["batch_size"]
    assert b == sqrt_batch_size(demo_report["n"])
    out = tmp_path / "re.json"
    code = main(
        ["analyze", str(demo_dir / "demo_chain.csv"), "--epsilon", "0.3",
         "--batch-size", str(b), "--out", str(out)]
    )
    assert code == 0
    re_report = json.loads(out.read_text())
    for report in (demo_report, re_report):
        assert [key for key in report if key in ANALYSIS_KEYS] == ANALYSIS_KEYS
    for key in ANALYSIS_KEYS:
        assert re_report[key] == demo_report[key], key


def test_report_top_level_keys(small_demo, small_two_col, tmp_path):
    _, demo_report = small_demo
    assert list(demo_report) == [
        "tool", "kind", "config", "data", "n", "accept_rate", "verdicts",
        *ANALYSIS_KEYS, "files",
    ]
    assert list(demo_report["verdicts"][0]) == [
        "n", "ess", "cutoff", "rhat", "terminate", "fallback_used",
        "batch_size", "batches",
    ]
    out = tmp_path / "report.json"
    assert main(["analyze", str(small_two_col), "--out", str(out)]) in (0, 2)
    report = json.loads(out.read_text())
    assert list(report) == ["tool", "kind", "input", "config", *ANALYSIS_KEYS]


def test_analyze_mcse_is_root_diag_sigma_over_n(small_two_col, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(small_two_col), "--out", str(out)]) in (0, 2)
    report = json.loads(out.read_text())
    sigma = np.array(report["asymptotic_covariance"]["matrix"])
    expected = np.sqrt(np.diag(sigma) / report["input"]["n"])
    assert report["mcse"] == expected.tolist()


@pytest.fixture()
def small_two_col(tmp_path):
    path = tmp_path / "pair.csv"
    cross = [[1.0, 0.5], [0.5, 1.0]]
    chain = generate_ar1(
        Ar1Spec(rho=0.4, dim=2, cross_correlation=cross), 400, RngStream(13)
    )
    write_chain_csv(chain, path)
    return path


def test_plotdata_writes_every_kind(small_two_col, tmp_path, capsys):
    expected = {
        "trace": ["pair_trace_col0.csv", "pair_trace_col1.csv"],
        "acf": ["pair_acf_col0.csv", "pair_acf_col1.csv"],
        "ccf": ["pair_ccf_col0_col1.csv"],
        "density": [
            "pair_density_col0.csv", "pair_density_col0_markers.csv",
            "pair_density_col1.csv", "pair_density_col1_markers.csv",
        ],
        "region": ["pair_region.csv"],
    }
    for kind, names in expected.items():
        code = main(
            ["plotdata", str(small_two_col), "--kind", kind,
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == len(names)
        for name in names:
            assert (tmp_path / name).exists()
    # a ccf of one column with itself is still named as a ccf
    argv = ["plotdata", str(small_two_col), "--kind", "ccf", "--pair", "0,0"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert listed == [str(tmp_path / "pair_ccf_col0_col0.csv")]


def test_plotdata_acf_band_is_three_over_root_n(small_two_col, tmp_path):
    main(
        ["plotdata", str(small_two_col), "--kind", "acf", "--lags", "10",
         "--out-dir", str(tmp_path)]
    )
    rows = _read_rows(tmp_path / "pair_acf_col0.csv")
    assert rows[0] == ["lag", "value", "band"]
    assert len(rows) == 12  # header plus lags 0..10
    assert float(rows[1][1]) == 1.0
    assert float(rows[1][2]) == 3.0 / math.sqrt(400.0)


def test_plotdata_region_boundary_file(small_two_col, tmp_path):
    main(
        ["plotdata", str(small_two_col), "--kind", "region",
         "--out-dir", str(tmp_path)]
    )
    rows = _read_rows(tmp_path / "pair_region.csv")
    assert rows[0] == ["kind", "x", "y"]
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("boundary") == 128
    assert kinds[-1] == "center"


def test_plotdata_usage_errors(small_two_col, tmp_path, capsys):
    """A rejected invocation does not even create the output directory."""
    out = tmp_path / "out"
    assert main(
        ["plotdata", str(small_two_col), "--kind", "spiral", "--out-dir", str(out)]
    ) == 1
    assert "unknown kind" in capsys.readouterr().err
    one_col = tmp_path / "one.csv"
    write_chain_csv(ChainMatrix(RngStream(15).normal(size=64)), one_col)
    assert main(
        ["plotdata", str(one_col), "--kind", "region", "--out-dir", str(out)]
    ) == 1
    assert "two-column" in capsys.readouterr().err
    assert main(
        ["plotdata", str(small_two_col), "--kind", "ccf", "--pair", "0,5",
         "--out-dir", str(out)]
    ) == 1
    assert "column 5 out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["acf", "ccf"])
@pytest.mark.parametrize("lags", [None, "10", "-1"])
def test_plotdata_lags_outside_the_chain_name_the_option(tmp_path, capsys, kind,
                                                         lags):
    """A 10-row chain has lags 0..9; the default 50 and -1 are refused
    before any table, naming --lags rather than the library's max_lag."""
    path = tmp_path / "short.csv"
    write_chain_csv(ChainMatrix(RngStream(3).normal(size=(10, 2))), path)
    out = tmp_path / "out"
    argv = ["plotdata", str(path), "--kind", kind, "--out-dir", str(out)]
    assert main(argv + (["--lags", lags] if lags else [])) == 1
    got = lags or "50"
    want = f"error: --lags must satisfy 0 <= lags < n=10, got {got}\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


@pytest.mark.parametrize("b", ["0", "-4"])
def test_nonpositive_batch_size_is_an_error(small_two_col, tmp_path, capsys, b):
    """A zero batch length used to fall through to the default silently."""
    out = tmp_path / "out"
    for argv in (
        ["analyze", str(small_two_col)],
        ["plotdata", str(small_two_col), "--kind", "density"],
        ["plotdata", str(small_two_col), "--kind", "region"],
    ):
        assert main(argv + ["--batch-size", b, "--out-dir", str(out)]) == 1
        assert f"batch length must be >= 1, got {b}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points", ["1", "0"])
def test_grid_points_below_two_is_a_usage_error(small_two_col, tmp_path, capsys, points):
    out = tmp_path / "out"
    for argv in (
        ["plotdata", str(small_two_col), "--kind", "density"],
        ["demo", "--max-n", "500"],
    ):
        assert main(argv + ["--grid-points", points, "--out-dir", str(out)]) == 1
        assert f"--grid-points must be >= 2, got {points}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("levels", ["0.5,95", "nan", "0", "1", "0.5,-0.1", "abc"])
def test_quantile_levels_outside_unit_interval_are_rejected(
    small_two_col, tmp_path, capsys, levels
):
    """A level of 95 used to become a failure entry, and nan a null level."""
    out = tmp_path / "out"
    argv = ["analyze", str(small_two_col), "--quantiles", levels, "--out-dir", str(out)]
    assert main(argv) == 1
    assert "bad quantile list" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_too_few_batches_gives_no_region(tmp_path):
    path = tmp_path / "short.csv"
    write_chain_csv(ChainMatrix(RngStream(21).normal(size=(40, 2))), path)
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--batch-size", "10", "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["region"] is None
    assert report["region_reason"] == "too few batches for a region: q=2 <= p=2"


def _tied_tail_csv(tmp_path):
    """2000 x 2 draws with the top 10% of column 1 tied at its maximum, so
    the indicator series at its 0.975 quantile is constant."""
    x = RngStream(23).normal(size=(2000, 2))
    tail = x[:, 1] >= np.quantile(x[:, 1], 0.9)
    x[tail, 1] = x[:, 1].max()
    path = tmp_path / "tied.csv"
    write_chain_csv(ChainMatrix(x), path)
    return path


def test_analyze_tied_upper_tail_reports_a_quantile_failure(tmp_path):
    """The failed entry carries a reason and null estimates, and every
    other entry is computed."""
    path = _tied_tail_csv(tmp_path)
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--out", str(out)]) in (0, 2)
    entries = json.loads(out.read_text())["quantiles"]
    failed = [e for e in entries if "reason" in e]
    assert [(e["column"], e["q"]) for e in failed] == [("col1", 0.975)]
    assert "is constant" in failed[0]["reason"]
    for key in ("point", "indicator_sigma2", "density_at", "ci_lo", "ci_hi"):
        assert failed[0][key] is None
    assert all(e["point"] is not None for e in entries if "reason" not in e)


def test_plotdata_density_quantile_failure_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["plotdata", str(_tied_tail_csv(tmp_path)), "--kind", "density"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert "is constant" in capsys.readouterr().err
    assert not out.exists()


def _collinear_csv(tmp_path):
    v = RngStream(3).normal(size=400)
    path = tmp_path / "collinear.csv"
    write_chain_csv(ChainMatrix(np.column_stack([v, -v])), path)
    return path


def test_plotdata_region_failures_are_errors(tmp_path, capsys):
    out = tmp_path / "out"
    few = tmp_path / "short.csv"
    write_chain_csv(ChainMatrix(RngStream(21).normal(size=(40, 2))), few)
    argv = ["plotdata", str(few), "--kind", "region", "--batch-size", "10"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: too few batches for a region: q=2 <= p=2\n"
    argv = ["plotdata", str(_collinear_csv(tmp_path)), "--kind", "region"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "asymptotic covariance (batch-means) is not positive definite" in err
    assert not out.exists()


def test_plotdata_density_needs_no_region(tmp_path, capsys):
    """Collinear columns have no Hotelling region, but their densities do."""
    out = tmp_path / "out"
    argv = ["plotdata", str(_collinear_csv(tmp_path)), "--kind", "density"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert sorted(p.name for p in out.iterdir()) == [
        "collinear_density_col0.csv", "collinear_density_col0_markers.csv",
        "collinear_density_col1.csv", "collinear_density_col1_markers.csv",
    ]


@pytest.mark.parametrize("max_n", ["19", "30", "50"])
def test_demo_too_short_budget_is_an_error(tmp_path, capsys, max_n):
    """The correlograms to lag 50 need more than 50 draws: exit 1 before
    any draw, naming the budget, and create no output directory."""
    out = tmp_path / "out"
    assert main(["demo", "--max-n", max_n, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: max_n must be >= 51")
    assert err.rstrip().endswith(f"got {max_n}")
    assert not out.exists()


def test_demo_budget_that_cannot_be_reserved_is_an_error(tmp_path, capsys):
    """The controller reserves max_n x 2 doubles before the first draw:
    16 PB fails at once, naming max_n, and creates no output directory."""
    out = tmp_path / "out"
    assert main(["demo", "--max-n", str(10**15), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: max_n=1000000000000000 rows of p=2 doubles")
    assert err.rstrip().endswith("lower max_n")
    assert not out.exists()


def test_demo_seed_outside_int64_is_refused(tmp_path, capsys):
    """The key was reduced modulo 2**64: this seed ran seed 0."""
    out = tmp_path / "out"
    assert main(["demo", "--seed", str(2**64), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: seed must be in [-2**63, 2**63), got 18446744073709551616\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "demo"])
def test_cutoff_beyond_the_largest_double_is_an_error(
    small_two_col, tmp_path, capsys, command
):
    """This exited with an OverflowError traceback from min_ess_cutoff."""
    out = tmp_path / "out"
    source = [str(small_two_col)] if command == "analyze" else []
    argv = [command, *source, "--epsilon", "1e-160", "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: epsilon=1e-160, alpha=0.05, p=2 give a minimum ESS that exceeds "
        "the largest double; raise epsilon\n"
    )
    assert not out.exists()


LEVEL_ERROR = "error: alpha must exceed 2**-53, got "
MARKER_ALPHA_ERROR = (
    "error: --alpha 2e-16 is split across 6 density markers, and "
    "1 - (alpha/6)/2 rounds to 1; the smallest accepted --alpha is "
    f"{math.nextafter(6 * 2.0**-53, 1.0)!r}\n"
)


@pytest.mark.parametrize(
    "command, options, message",
    [
        ("analyze", ["--alpha", "5e-17"], LEVEL_ERROR),
        ("analyze", ["--alpha", "1e-16"], LEVEL_ERROR),
        ("plotdata", ["--kind", "region", "--alpha", "5e-17"], LEVEL_ERROR),
        ("plotdata", ["--kind", "density", "--alpha", "2e-16"], MARKER_ALPHA_ERROR),
    ],
    ids=["analyze-5e-17", "analyze-1e-16", "region-5e-17", "density-2e-16"],
)
def test_alpha_whose_level_rounds_to_one_is_an_error(
    small_two_col, tmp_path, capsys, command, options, message
):
    """1 - alpha/2 rounds to 1 (for density at the Bonferroni-adjusted
    alpha/6 = 3.3e-17, where the message names --alpha as given). These
    printed "prob must be inside (0, 1), got 1.0", failed on a -inf in the
    report, or wrote -inf,inf marker bands."""
    out = tmp_path / "out"
    argv = [command, str(small_two_col), *options, "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_demo_alpha_whose_marker_level_rounds_to_one_is_refused_before_any_draw(
    tmp_path, capsys, monkeypatch
):
    """This sampled the whole 200,000-draw budget, then named alpha/6."""
    def no_run(**settings):
        raise AssertionError("run_demo was called")

    monkeypatch.setattr(lcd_demo, "run_demo", no_run)
    out = tmp_path / "out"
    assert main(["demo", "--alpha", "2e-16", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == MARKER_ALPHA_ERROR
    assert not out.exists()


@pytest.mark.parametrize("cols", [1, 2, 5])
def test_smallest_accepted_density_alpha(tmp_path, capsys, cols):
    """With m = 3p markers, m * 2**-53 is refused and the next double up
    gives finite marker bands."""
    path = tmp_path / "chain.csv"
    write_chain_csv(ChainMatrix(RngStream(21).normal(size=(400, cols))), path)
    bound = 3 * cols * 2.0**-53
    argv = ["plotdata", str(path), "--kind", "density", "--out-dir"]
    assert main([*argv, str(tmp_path / "no"), f"--alpha={bound!r}"]) == 1
    assert f"split across {3 * cols} density markers" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()
    smallest = math.nextafter(bound, 1.0)
    assert main([*argv, str(tmp_path / "yes"), f"--alpha={smallest!r}"]) == 0
    for markers in (tmp_path / "yes").glob("*_markers.csv"):
        bands = [float(x) for row in _read_rows(markers)[1:] for x in row[2:]]
        assert all(map(math.isfinite, bands)), markers


def test_demo_smallest_budget_writes_a_report(tmp_path):
    out = tmp_path / "out"
    assert main(["demo", "--max-n", "51", "--out-dir", str(out)]) == 2
    report = json.loads((out / "demo_report.json").read_text())
    assert report["n"] == 51
    assert report["terminated"] is False


def test_utf8_byte_order_mark_is_not_part_of_the_first_label(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx,y\r\n1,2\r\n3,4\r\n")
    assert read_chain_csv(path).labels == ("x", "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_cell_reports_its_line(tmp_path, capsys, cell):
    """The line number counts the blank lines before the bad row."""
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y\n1,2\n\n3,4\n\n5,{cell}\n7,8\n")
    with pytest.raises(ParseError) as info:
        read_chain_csv(path)
    assert info.value.line == 6
    assert str(info.value) == "line 6: chain values must all be finite"
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "line 6:" in capsys.readouterr().err


def test_first_bad_line_in_file_order_is_reported(tmp_path):
    """A non-finite cell used to be found only after the whole file parsed,
    so a later unparsable cell was reported in its place."""
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\nnan,3\n4,5\nabc,6\n")
    with pytest.raises(ParseError) as info:
        read_chain_csv(path)
    assert str(info.value) == "line 3: chain values must all be finite"


@pytest.mark.parametrize("body", ["1,2\n3,4\n", "1,2\n3,inf\n5,6\n"])
def test_chain_file_is_opened_once(tmp_path, monkeypatch, body):
    path = tmp_path / "chain.csv"
    path.write_text("x,y\n" + body)
    calls = []

    def counting_open(file, *args, real_open=open, **kwargs):
        calls.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    try:
        read_chain_csv(path)
    except ParseError:
        pass
    monkeypatch.undo()
    assert calls == [path]


def test_reading_a_chain_holds_little_more_than_its_values(tmp_path):
    """Each row used to be kept as a list of Python floats and then copied
    into an array: a peak near 7x the data bytes."""
    path = tmp_path / "chain.csv"
    write_chain_csv(ChainMatrix(RngStream(5).normal(size=(20_000, 10))), path)
    tracemalloc.start()
    try:
        chain = read_chain_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * chain.values.nbytes


def test_row_whose_sum_overflows_reads_back_exactly(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x,y\n1e308,1e308\n-1.7976931348623157e308,1e308\n")
    values = read_chain_csv(path).values
    want = [[1e308, 1e308], [-np.finfo(float).max, 1e308]]
    np.testing.assert_array_equal(values, want)


def test_blank_lines_before_the_header_are_skipped(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("a,b\r\n1,2\r\n3,4\r\n5,6\r\n")
    padded = tmp_path / "padded.csv"
    padded.write_text("\r\n" + plain.read_text())
    want, got = read_chain_csv(plain), read_chain_csv(padded)
    assert got.labels == want.labels == ("a", "b")
    np.testing.assert_array_equal(got.values, want.values)


def test_ragged_row_after_leading_blanks_names_its_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("\n\na,b\n1,2\n3\n")
    with pytest.raises(ParseError) as info:
        read_chain_csv(path)
    assert info.value.line == 5
    assert "expected 2 columns, got 1" in str(info.value)


@pytest.mark.parametrize(
    "text", ['x,y\n"1\n",3\nabc,4\n', '"x\n",y\n1,2\nabc,4\n'],
    ids=["multi-line-cell", "multi-line-label"],
)
def test_row_after_a_multi_line_record_names_its_physical_line(
    tmp_path, capsys, text
):
    path = tmp_path / "quoted.csv"
    path.write_text(text)
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 4: could not convert string to float: 'abc'\n"


def test_non_finite_cell_after_leading_blanks_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\n\nx,y\n1,2\n\n3,inf\n")
    with pytest.raises(ParseError) as info:
        read_chain_csv(path)
    assert info.value.line == 6


@pytest.mark.parametrize("text", ["x,y\n", "x,y\r\n\n\r\n"])
def test_header_only_file_is_a_parse_error_and_warns_nothing(tmp_path, text):
    path = tmp_path / "header.csv"
    path.write_text(text, newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError) as info:
            read_chain_csv(path)
    assert str(info.value) == "line 2: no data rows after the header"
    assert caught == []


def test_well_formed_file_is_read_without_the_csv_parser(tmp_path, monkeypatch):
    """The fast path reads a finite, rectangular file on its own."""
    path = tmp_path / "chain.csv"
    chain = ChainMatrix(RngStream(8).normal(size=(40, 3)), [" a", "b ", "c,d"])
    write_chain_csv(chain, path)

    def refuse(fh, name):
        raise AssertionError("the csv parser was called")

    monkeypatch.setattr("mcoutput.cli._csv_chain", refuse)
    back = read_chain_csv(path)
    assert back.values.tobytes() == chain.values.tobytes()
    assert back.labels == ("a", "b", "c,d")
    assert not back.values.flags.writeable


def test_piped_chain_reads_like_the_file(tmp_path, fresh_python):
    """A pipe cannot seek back, so it goes to the csv parser alone."""
    path = tmp_path / "chain.csv"
    write_chain_csv(ChainMatrix(RngStream(9).normal(size=(3000, 2))), path)
    want = read_chain_csv(path)
    code = (
        "from mcoutput.cli import read_chain_csv\n"
        "c = read_chain_csv('/dev/stdin')\n"
        "print(c.labels, c.values.tobytes().hex())"
    )
    out = fresh_python("-c", code, stdin_text=path.read_text())
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{want.labels} {want.values.tobytes().hex()}\n"
    piped, direct = tmp_path / "piped.json", tmp_path / "direct.json"
    argv = ["-m", "mcoutput.cli", "analyze", "/dev/stdin", "--out", str(piped)]
    out = fresh_python(*argv, stdin_text=path.read_text())
    assert out.returncode == main(["analyze", str(path), "--out", str(direct)])
    reports = [json.loads(p.read_text()) for p in (piped, direct)]
    for report in reports:
        del report["input"]["path"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "text, line",
    [
        ("x\n1\n" + "0" * 131_073 + "\n", 3),  # finite, so loadtxt reads it
        ("x,y\n1,2\n3," + "a" * 131_073 + "\n", 3),
        ("\nx,y" + "z" * 131_073 + "\n1,2\n", 2),
    ],
    ids=["finite-cell", "text-cell", "label"],
)
def test_field_over_the_csv_limit_is_a_parse_error(tmp_path, capsys, text, line):
    """csv.Error escaped as a traceback; a long field that loadtxt could
    read is still refused, as the csv parser refuses it."""
    path = tmp_path / "long.csv"
    path.write_text(text)
    message = f"line {line}: field larger than field limit (131072)"
    with pytest.raises(ParseError) as info:
        read_chain_csv(path)
    assert str(info.value) == message
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_nul_byte_names_its_line(tmp_path):
    """Python 3.10's csv module raises csv.Error on NUL; later versions
    pass the cell to float()."""
    path = tmp_path / "nul.csv"
    path.write_bytes(b"x,y\n1,2\n3,4\x00\n")
    with pytest.raises(ParseError) as info:
        read_chain_csv(path)
    assert info.value.line == 3


@pytest.mark.parametrize("alpha", ["1.5", "0", "-1", "nan"])
def test_plotdata_density_rejects_alpha_outside_unit_interval(
    tmp_path, capsys, alpha
):
    path = tmp_path / "one.csv"
    write_chain_csv(ChainMatrix(RngStream(15).normal(size=64)), path)
    out = tmp_path / "out"
    argv = ["plotdata", str(path), "--kind", "density", f"--alpha={alpha}"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--alpha must be inside (0, 1)" in err
    assert f"got {float(alpha)}" in err


@pytest.mark.parametrize("header", ["x y,x_y", "a,a"])
def test_plotdata_labels_sharing_a_file_name_are_rejected(
    tmp_path, capsys, header
):
    path = tmp_path / "clash.csv"
    rows = "".join(f"{v},{-v}\n" for v in RngStream(3).normal(size=64))
    path.write_text(header + "\n" + rows)
    first, second = header.split(",")
    out = tmp_path / "out"
    for kind in ("trace", "acf", "density"):
        argv = ["plotdata", str(path), "--kind", kind, "--out-dir", str(out)]
        assert main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"columns {first!r} and {second!r}" in err
    # one file per invocation: no clash
    argv = ["plotdata", str(path), "--kind", "ccf", "--out-dir", str(out)]
    assert main(argv) == 0


def test_write_chain_csv_exact_bytes(tmp_path):
    """csv-module quoting in the header, CRLF line ends, 17-digit floats."""
    path = tmp_path / "quoted.csv"
    chain = ChainMatrix([[0.1, -2.5], [1e-300, 0.1]], ["a,b", 'q"x'])
    write_chain_csv(chain, path)
    assert path.read_bytes() == (
        b'"a,b","q""x"\r\n'
        b"0.10000000000000001,-2.5\r\n"
        b"1e-300,0.10000000000000001\r\n"
    )
    assert read_chain_csv(path).labels == ("a,b", 'q"x')


@pytest.fixture()
def tiny_exact(tmp_path):
    """64 rows of multiples of 1/8: the values and the column means are
    exact in binary, so their 17-digit text is short and known."""
    rows = [f"{((i * 7) % 11 - 5) / 4},{((i * 5) % 13 - 6) / 8}" for i in range(64)]
    path = tmp_path / "tiny.csv"
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    return path


def _crlf_lines(path):
    text = path.read_bytes()
    assert text.endswith(b"\r\n") and b"\n" not in text.replace(b"\r\n", b"")
    return text.decode().split("\r\n")[:-1]


def test_plotdata_files_exact_bytes(tiny_exact, small_two_col, tmp_path):
    out = tmp_path / "out"
    for kind in ("trace", "acf", "region"):
        argv = ["plotdata", str(tiny_exact), "--kind", kind, "--lags", "5"]
        assert main(argv + ["--out-dir", str(out)]) == 0

    trace = _crlf_lines(out / "tiny_trace_x.csv")
    assert trace[:4] == ["index,value", "1,-1.25", "2,0.5", "3,-0.5"]
    assert trace[-1] == "64,-1"
    assert [r.split(",")[0] for r in trace[1:]] == [str(i) for i in range(1, 65)]
    assert _crlf_lines(out / "tiny_trace_y.csv")[:3] == [
        "index,value", "1,-0.75", "2,-0.125"
    ]

    acf = _crlf_lines(out / "tiny_acf_x.csv")
    assert acf[:2] == ["lag,value,band", "0,1,0.375"]  # band 3/sqrt(64)
    assert [r.split(",")[0] for r in acf[1:]] == ["0", "1", "2", "3", "4", "5"]
    assert {r.split(",")[2] for r in acf[1:]} == {"0.375"}

    region = _crlf_lines(out / "tiny_region.csv")
    assert region[0] == "kind,x,y"
    assert len(region) == 1 + 129
    assert [r.split(",")[0] for r in region[1:-1]] == ["boundary"] * 128
    assert region[-1] == "center,-0.0078125,-0.00390625"
    for row in region[1:]:
        for cell in row.split(",")[1:]:
            assert format(float(cell), ".17g") == cell

    # tiny's top values tie, so its density fails; the pair chain's marker
    # bands are the estimate -/+ z * its standard error at the Bonferroni
    # level alpha / 6: the mean's, around the reports' mean, from Sigma's
    # diagonal, each quantile's exactly what quantile_ci gives at that level
    argv = ["plotdata", str(small_two_col), "--kind", "density"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    chain = read_chain_csv(small_two_col)
    n, b, alpha = chain.rows, default_batch_size(chain.rows), 0.05 / 6
    sigma = batch_means_sigma(chain, b)
    z = float(ndtri(1.0 - alpha / 2.0))
    for i in range(2):
        col = chain.column(i)
        mean = chain.values.mean(axis=0)[i]
        half = z * math.sqrt(float(sigma.matrix[i, i]) / n)
        rows = [("mean", mean, mean - half, mean + half)]
        for level in (0.025, 0.975):
            qe = quantile_ci(col, level, alpha, b)
            rows.append((f"q{level:g}", qe.point, *qe.ci))
        want = ["kind,value,band_lo,band_hi"] + [
            f"{kind},{v:.17g},{lo:.17g},{hi:.17g}" for kind, v, lo, hi in rows
        ]
        assert _crlf_lines(out / f"pair_density_col{i}_markers.csv") == want


def test_plotdata_density_failure_names_column_and_level(
    tiny_exact, tmp_path, capsys
):
    argv = ["plotdata", str(tiny_exact), "--kind", "density"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: column 'x', q=0.975: indicator series for threshold 1.25 is constant\n"
    )


def test_importing_the_cli_does_not_load_scipy_signal(fresh_python):
    """No command line path needs scipy.signal; the package never imports
    it. scipy.optimize is imported only when weibull_mle_beta runs."""
    code = (
        "import sys, mcoutput.cli\n"
        "print(*(m in sys.modules for m in ('scipy.signal', 'scipy.optimize')))"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


def test_module_entry_point_exit_codes(fresh_python, tmp_path):
    """``python -m mcoutput.cli`` passes main's return value to the shell."""
    done = fresh_python("-m", "mcoutput.cli", "--version")
    assert done.returncode == 0
    assert done.stdout.strip() == mcoutput.__version__
    path = tmp_path / "short.csv"
    write_chain_csv(ChainMatrix(RngStream(5).normal(size=500)), path)
    done = fresh_python("-m", "mcoutput.cli", "analyze", str(path),
                         "--out-dir", str(tmp_path))
    assert done.returncode == 2, done.stderr
    done = fresh_python("-m", "mcoutput.cli", "demo", "--max-n", "19",
                         "--out-dir", str(tmp_path / "demo"))
    assert done.returncode == 1
    assert "max_n" in done.stderr


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("MCOUTPUT_OUT_DIR", str(env_dir))
    path = tmp_path / "tiny.csv"
    write_chain_csv(ChainMatrix(RngStream(17).normal(size=64)), path)
    assert main(["analyze", str(path)]) == 2
    assert (env_dir / "tiny_report.json").exists()


def test_argparse_exits_are_remapped(capsys):
    assert main(["--version"]) == 0
    assert main([]) == 1
    assert main(["analyze"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_analyze_with_too_few_batches_names_them(tmp_path, capsys):
    """64 rows and 20 columns pick b = 4, so a = 16 <= p: the report used to
    be refused as a singular batch-means estimate."""
    path = tmp_path / "wide.csv"
    write_chain_csv(ChainMatrix(RngStream(91).normal(size=(64, 20))), path)
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: too few batches for Sigma: a=16 batches of length b=4 for p=20 "
        "components; a must exceed p: use a shorter batch or a longer chain\n"
    )
    assert not out.exists()
