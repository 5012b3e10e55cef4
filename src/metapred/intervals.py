"""Frequentist prediction intervals and the Wald confidence interval.

The plug-in prediction interval is

    mu_hat +/- t_{n-2}^{alpha/2} * sqrt(tau2_hat + Var[mu_hat])

with the DerSimonian-Laird tau2 and inverse-variance Var[mu_hat] in the
classic variant; the HK/SJ variants swap in the REML tau2 and the matching
robust variance estimator while keeping the t_{n-2} multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import stats

from .core import MetaDataset, dl_tau2, pooled_mu, reml_tau2, robust_variance

__all__ = ["HTS_VARIANTS", "IntervalEstimate", "hts_interval", "wald_ci_mu"]

_KINDS = ("prediction", "confidence", "credible")
# hts_interval variant -> the method tag of the interval it returns
HTS_VARIANTS = {"DL": "hts", "HK": "hts-hk", "SJ": "hts-sj"}


@dataclass(frozen=True)
class IntervalEstimate:
    """An interval with its nominal level, method tag, and kind."""

    lower: float
    upper: float
    level: float
    method: str
    kind: str

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise ValueError(f"lower {self.lower!r} exceeds upper {self.upper!r}")
        if not (0.0 < self.level < 1.0):
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def _check_level(level: float) -> None:
    if not (isinstance(level, (int, float)) and 0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")


def _t_quantile(p: float, df: int) -> float:
    """t inverse CDF, Newton-polished to ~1e-15 relative error."""
    x = float(stats.t.ppf(p, df))
    return x - float(stats.t.cdf(x, df) - p) / float(stats.t.pdf(x, df))


def hts_interval(
    dataset: MetaDataset, level: float = 0.95, variant: str = "DL"
) -> IntervalEstimate:
    """Plug-in t prediction interval for the effect in a new study.

    Parameters
    ----------
    dataset : MetaDataset
        At least 3 studies (the t multiplier has n-2 degrees of freedom).
    level : float
        Nominal coverage, in (0, 1).
    variant : {"DL", "HK", "SJ"}
        "DL" uses tau2_DL and inverse-variance Var[mu_hat]; "HK"/"SJ" use
        tau2_REML and the matching robust variance in its place.
    """
    if dataset.n < 3:
        raise ValueError(
            f"plug-in prediction interval needs n >= 3, dataset has {dataset.n}"
        )
    _check_level(level)
    if variant not in HTS_VARIANTS:
        raise ValueError(f"variant must be one of {tuple(HTS_VARIANTS)}, got {variant!r}")

    if variant == "DL":
        tau2 = dl_tau2(dataset).tau2
        pooled = pooled_mu(dataset, tau2)
        spread = tau2 + pooled.var_mu_hat
    else:
        tau2 = reml_tau2(dataset).tau2
        pooled = pooled_mu(dataset, tau2)
        spread = tau2 + robust_variance(dataset, tau2, kind=variant)

    tq = _t_quantile(0.5 + level / 2.0, dataset.n - 2)
    half = tq * math.sqrt(spread)
    return IntervalEstimate(
        lower=pooled.mu_hat - half,
        upper=pooled.mu_hat + half,
        level=level,
        method=HTS_VARIANTS[variant],
        kind="prediction",
    )


def wald_ci_mu(dataset: MetaDataset, level: float = 0.95) -> IntervalEstimate:
    """Wald confidence interval for the grand mean with DL weights."""
    _check_level(level)
    tau2 = dl_tau2(dataset).tau2
    pooled = pooled_mu(dataset, tau2)
    z = float(stats.norm.ppf(0.5 + level / 2.0))
    half = z * math.sqrt(pooled.var_mu_hat)
    return IntervalEstimate(
        lower=pooled.mu_hat - half,
        upper=pooled.mu_hat + half,
        level=level,
        method="dl",
        kind="confidence",
    )
