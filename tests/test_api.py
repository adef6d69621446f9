"""The public surface: what the package exports, and that it all exists."""

import importlib

import pytest

import mcoutput

SUBMODULES = ("chain", "mcse", "inference", "quantiles", "lcd_demo", "cli")


def test_top_level_exports():
    assert set(mcoutput.__all__) == {
        "__version__",
        # chain
        "ChainMatrix", "RngStream", "discard_initial",
        # mcse
        "CovarianceEstimate", "CorrelogramSeries", "batch_means_sigma",
        "flat_top_sigma", "sample_cov_lambda", "default_batch_size",
        "sqrt_batch_size", "correlogram",
        # inference
        "EssCutoff", "StoppingConfig", "StoppingVerdict", "ConfidenceRegion",
        "chi2_quantile", "f_quantile", "min_ess_cutoff", "ess", "rhat_from_ess",
        "hotelling_region", "default_hotelling_df", "evaluate_verdict",
        "stopping_controller", "Summary", "summarize",
        # quantiles
        "QuantileEstimate", "empirical_quantile", "indicator_sigma2", "kde_at",
        "kde_bandwidth", "quantile_ci",
        # lcd_demo
        "LCD_FAILURE_HOURS", "DemoConfig", "DemoReport",
        "weibull_mle_beta", "run_demo",
        # errors
        "OutputAnalysisError", "DimensionError", "DataError", "ParseError",
        "ParameterError", "InsufficientDataError", "DegenerateDataError",
        "SingularEstimateError", "NumericsError", "DegreesOfFreedomError",
        "UsageError",
    }
    assert len(mcoutput.__all__) == len(set(mcoutput.__all__))


@pytest.mark.parametrize("name", ("mcoutput",) + SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(
        name if name == "mcoutput" else f"mcoutput.{name}"
    )
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
