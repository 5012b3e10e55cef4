"""Prediction and credible intervals for random-effects meta-analysis.

The package has five layers:

- :mod:`metapred.core` - the dataset (effects and their SEs) and the
  classical estimators (Q, I^2, DerSimonian-Laird and REML heterogeneity,
  robust variances).
- :mod:`metapred.intervals` - plug-in t prediction intervals and the Wald
  confidence interval for the mean.
- :mod:`metapred.priors` / :mod:`metapred.bayes` - eleven noninformative
  priors for the heterogeneity scale and a deterministic quadrature engine
  for the resulting posterior prediction/credible intervals.
- :mod:`metapred.methods` - the registry of method tags: how each tag's
  interval is computed and whether it predicts a new study's effect or
  estimates the mean.
- :mod:`metapred.simulate` / :mod:`metapred.io` - a reproducible
  Monte-Carlo coverage harness and the CSV/config/report formats used by
  the ``metapred`` command line.
"""

from .bayes import (
    EngineConfig,
    PosteriorGrid,
    build_posterior_grid,
    credible_interval_mu,
    posterior_tau_moments,
    prediction_interval,
    predictive_cdf,
)
from .core import (
    HeterogeneityEstimate,
    MetaDataset,
    PooledEstimate,
    cochran_q,
    dl_tau2,
    i_squared,
    pooled_mu,
    q_test_pvalue,
    reml_tau2,
    robust_variance,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateDispersionWarning,
    DivergedPosteriorError,
    NumericFailure,
)
from .intervals import IntervalEstimate, hts_interval, wald_ci_mu
from .io import (
    ANALYZE_METHODS,
    AnalysisReport,
    MethodResult,
    emit_analysis_report,
    emit_coverage_table,
    parse_dataset_csv,
    parse_sim_config,
    run_analysis,
)
from .priors import (
    NAMED_PRIORS,
    BoundPrior,
    PriorFamily,
    bind_prior,
    log_prior_density,
    named_prior,
    prior_cdf,
)
from .simulate import (
    DEFAULT_METHODS,
    CoverageRecord,
    Scenario,
    SimConfig,
    replication_stream,
    run_replication,
    run_study,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "MetaDataset",
    "HeterogeneityEstimate",
    "PooledEstimate",
    "cochran_q",
    "q_test_pvalue",
    "i_squared",
    "dl_tau2",
    "reml_tau2",
    "pooled_mu",
    "robust_variance",
    # intervals
    "IntervalEstimate",
    "hts_interval",
    "wald_ci_mu",
    # priors
    "PriorFamily",
    "BoundPrior",
    "NAMED_PRIORS",
    "named_prior",
    "bind_prior",
    "log_prior_density",
    "prior_cdf",
    # bayes
    "EngineConfig",
    "PosteriorGrid",
    "build_posterior_grid",
    "predictive_cdf",
    "prediction_interval",
    "credible_interval_mu",
    "posterior_tau_moments",
    # simulate
    "Scenario",
    "SimConfig",
    "CoverageRecord",
    "DEFAULT_METHODS",
    "replication_stream",
    "simulate_dataset",
    "run_replication",
    "run_study",
    # io
    "ANALYZE_METHODS",
    "AnalysisReport",
    "MethodResult",
    "parse_dataset_csv",
    "parse_sim_config",
    "run_analysis",
    "emit_analysis_report",
    "emit_coverage_table",
    # errors
    "ConfigError",
    "DataError",
    "NumericFailure",
    "DivergedPosteriorError",
    "DegenerateDispersionWarning",
]
