"""MCMC output analysis toolkit.

Estimate Monte Carlo standard errors with (flat-top) batch means, turn
them into a multivariate effective sample size and Hotelling confidence
regions, stop simulations sequentially once the ESS clears a principled
cutoff, and attach Monte Carlo error to quantile estimates. Ships a
worked Bayesian Weibull reliability example and a small CLI
(``mcoutput analyze | demo | plotdata``).
"""

__version__ = "0.1.0"

from .chain import ChainMatrix, RngStream, discard_initial
from .errors import (
    DataError,
    DegenerateDataError,
    DegreesOfFreedomError,
    DimensionError,
    InsufficientDataError,
    NumericsError,
    OutputAnalysisError,
    ParameterError,
    ParseError,
    SingularEstimateError,
    UsageError,
)
from .inference import (
    ConfidenceRegion,
    EssCutoff,
    StoppingConfig,
    StoppingVerdict,
    Summary,
    chi2_quantile,
    default_hotelling_df,
    ess,
    evaluate_verdict,
    f_quantile,
    hotelling_region,
    min_ess_cutoff,
    rhat_from_ess,
    stopping_controller,
    summarize,
)
from .lcd_demo import (
    LCD_FAILURE_HOURS,
    DemoReport,
    run_demo,
    weibull_mle_beta,
)
from .mcse import (
    CorrelogramSeries,
    CovarianceEstimate,
    batch_means_sigma,
    correlogram,
    default_batch_size,
    flat_top_sigma,
    sample_cov_lambda,
    sqrt_batch_size,
)
from .quantiles import (
    QuantileEstimate,
    empirical_quantile,
    indicator_sigma2,
    kde_at,
    kde_bandwidth,
    quantile_ci,
)

__all__ = [
    "__version__",
    "ChainMatrix",
    "RngStream",
    "discard_initial",
    "CovarianceEstimate",
    "CorrelogramSeries",
    "batch_means_sigma",
    "flat_top_sigma",
    "sample_cov_lambda",
    "default_batch_size",
    "sqrt_batch_size",
    "correlogram",
    "EssCutoff",
    "StoppingConfig",
    "StoppingVerdict",
    "ConfidenceRegion",
    "chi2_quantile",
    "f_quantile",
    "min_ess_cutoff",
    "ess",
    "rhat_from_ess",
    "hotelling_region",
    "default_hotelling_df",
    "evaluate_verdict",
    "stopping_controller",
    "Summary",
    "summarize",
    "QuantileEstimate",
    "empirical_quantile",
    "indicator_sigma2",
    "kde_at",
    "kde_bandwidth",
    "quantile_ci",
    "LCD_FAILURE_HOURS",
    "DemoReport",
    "weibull_mle_beta",
    "run_demo",
    "OutputAnalysisError",
    "DimensionError",
    "DataError",
    "ParseError",
    "ParameterError",
    "InsufficientDataError",
    "DegenerateDataError",
    "SingularEstimateError",
    "NumericsError",
    "DegreesOfFreedomError",
    "UsageError",
]
