"""Frequentist prediction intervals and the Wald confidence interval.

The plug-in prediction interval is

    mu_hat +/- t_{n-2}^{alpha/2} * sqrt(tau2_hat + Var[mu_hat])

with the DerSimonian-Laird tau2 and inverse-variance Var[mu_hat] in the
classic variant; the HK/SJ variants swap in the REML tau2 and the matching
robust variance estimator while keeping the t_{n-2} multiplier.

All of these tags on a block of datasets that share n run as one pass
(``_plugin_intervals``): one DL fit over the block's rows, one REML
scoring loop started from those DL values, one pooled-mean and robust
variance pass per estimator, and one t quantile. The pass gives each
tag's lower and upper endpoints on every dataset as arrays, with an array
of failure indices into the block's list of exceptions; ``hts_interval``
and ``wald_ci_mu`` read the one entry of a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .core import (
    MetaDataset,
    _dl_fits,
    _pooled,
    _reml_fits,
    _require_n,
    _robust_variances,
    _unwrap,
)

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
        _check_level(self.level)
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def _check_level(level: float) -> None:
    """ValueError unless level is a Python float in (0, 1). Other number
    types are refused: a numpy float32 level would carry its precision into
    the interval arithmetic and the reports."""
    if not (isinstance(level, float) and 0.0 < level < 1.0):
        raise ValueError(f"level must be a float in (0, 1), got {level!r}")


def _t_quantile(p: float, df: int) -> float:
    """t inverse CDF, Newton-polished to ~1e-15 relative error.

    special.stdtrit and special.stdtr are what scipy.stats.t's ppf and cdf
    wrap; the density is the closed form scipy.stats.t evaluates, so this
    returns the same bits without the rv_continuous dispatch.
    """
    x = float(special.stdtrit(df, p))
    log_pdf = (
        np.log(special.poch(0.5 * df, 0.5))
        - 0.5 * (np.log(df) + np.log(np.pi))
        - (df + 1) / 2 * np.log1p(x * x / df)
    )
    return x - float(special.stdtr(df, x) - p) / float(np.exp(log_pdf))


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
    if variant not in HTS_VARIANTS:
        _check_hts(dataset.n, level, variant)
    tag = HTS_VARIANTS[variant]
    errors: list = []
    outcomes = _plugin_intervals([tag], [dataset], level, errors)
    return _unwrap(_outcome(outcomes, errors, (0, 0), level, tag, "prediction"))


def wald_ci_mu(dataset: MetaDataset, level: float = 0.95) -> IntervalEstimate:
    """Wald confidence interval for the grand mean with DL weights."""
    errors: list = []
    outcomes = _plugin_intervals(["dl"], [dataset], level, errors)
    return _unwrap(_outcome(outcomes, errors, (0, 0), level, "dl", "confidence"))


# plug-in t tag -> its hts_interval variant
_VARIANT_OF = {tag: variant for variant, tag in HTS_VARIANTS.items()}


def _check_hts(n: int, level: float, variant: str) -> None:
    if n < 3:
        raise ValueError(f"plug-in prediction interval needs n >= 3, dataset has {n}")
    _check_level(level)
    if variant not in HTS_VARIANTS:
        raise ValueError(f"variant must be one of {tuple(HTS_VARIANTS)}, got {variant!r}")


def _outcome(outcomes, errors, entry, level, method, kind):
    """Entry `entry` of an engine's (lower, upper, failed) arrays as the
    public one-dataset functions give it: its IntervalEstimate, or its
    exception in errors when its failure index is not -1."""
    lower, upper, failed = (array[entry] for array in outcomes)
    if failed >= 0:
        return errors[failed]
    return IntervalEstimate(float(lower), float(upper), level, method, kind)


def _plugin_intervals(
    tags: Sequence[str], datasets: Sequence[MetaDataset], level: float, errors: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each plug-in t tag (hts, hts-hk, hts-sj) and Wald tag (dl) in tags on
    each dataset of a block that shares n, as (tags, datasets) arrays of
    lower endpoints, upper endpoints and failure indices: -1, or the
    position in errors (to which this appends) of the ValueError or
    NumericFailure that hts_interval or wald_ci_mu raises on that dataset
    alone, whose endpoints are then NaN.

    The checks of n and level hold for the whole block. DL is fitted once
    over the block's rows and starts REML, which runs one scoring loop for
    every row; each estimator then gets one pooled-mean pass, and the
    block one t quantile.
    """
    n = datasets[0].n
    lower, upper = np.full((2, len(tags), len(datasets)), math.nan)
    failed = np.full((len(tags), len(datasets)), -1)
    by_estimator: dict[str, list[int]] = {"DL": [], "REML": []}
    for k, tag in enumerate(tags):
        try:
            if tag == "dl":
                _check_level(level)
                _require_n(datasets[0], 2)
            else:
                _check_hts(n, level, _VARIANT_OF[tag])
        except ValueError as exc:
            failed[k] = len(errors)
            errors.append(exc)
            continue
        by_estimator["REML" if tag in ("hts-hk", "hts-sj") else "DL"].append(k)
    if not (by_estimator["DL"] or by_estimator["REML"]):
        return lower, upper, failed

    y = np.array([dataset.effects for dataset in datasets])
    v = np.array([dataset.variances for dataset in datasets])
    fits = {"DL": _dl_fits(y, v)}
    if by_estimator["REML"]:
        fits["REML"] = _reml_fits(y, v, fits["DL"])
    p = 0.5 + level / 2.0
    tq = _t_quantile(p, n - 2) if n > 2 else None  # no hts tag runs at n <= 2

    for estimator, ks in by_estimator.items():
        if not ks:
            continue
        rows = []
        for i, fit in enumerate(fits[estimator]):
            if isinstance(fit, Exception):
                failed[ks, i] = len(errors)
                errors.append(fit)
            else:
                rows.append(i)
        if not rows:
            continue
        tau2 = np.array([fits[estimator][i].tau2 for i in rows])
        w, total, mu = _pooled(y[rows], v[rows], tau2)
        var_mu = 1.0 / total
        spread = {"dl": var_mu, "hts": tau2 + var_mu}  # half-width: multiplier x sqrt(spread)
        if estimator == "REML":
            robust = _robust_variances(y[rows], w, total, mu, [_VARIANT_OF[tags[k]] for k in ks])
            spread.update({HTS_VARIANTS[kind]: tau2 + np.array(x) for kind, x in robust.items()})
        for k in ks:
            half = (float(special.ndtri(p)) if tags[k] == "dl" else tq) * np.sqrt(spread[tags[k]])
            lower[k, rows], upper[k, rows] = mu - half, mu + half
    return lower, upper, failed
