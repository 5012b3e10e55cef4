"""The public surface: the exported names and the README quick start."""

import os
import re
import subprocess
import sys
from pathlib import Path

import metapred

PUBLIC_NAMES = [
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


def test_public_names():
    assert len(PUBLIC_NAMES) == 49
    assert metapred.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(metapred, name), name


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(quick_start, "README.md", "exec"), {})
    assert "IntervalEstimate" in capsys.readouterr().out


def test_import_loads_only_scipy_special():
    # scipy.stats and scipy.integrate (with the scipy.optimize and
    # scipy.sparse they load) cost most of a command-line call's start-up;
    # only the conventional prior's normaliser loads scipy.integrate, on use
    env = {**os.environ, "PYTHONPATH": str(Path(metapred.__file__).parents[1])}
    probe = "import sys, metapred; print(*[m for m in sys.modules if m.startswith('scipy.')])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    loaded = proc.stdout.split()
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.split(".")[1] in ("stats", "integrate")], loaded
