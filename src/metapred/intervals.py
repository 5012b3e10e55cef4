"""Frequentist prediction intervals and the Wald confidence interval.

The plug-in prediction interval is

    mu_hat +/- t_{n-2}^{alpha/2} * sqrt(tau2_hat + Var[mu_hat])

with the DerSimonian-Laird tau2 and inverse-variance Var[mu_hat] in the
classic variant; the HK/SJ variants swap in the REML tau2 and the matching
robust variance estimator while keeping the t_{n-2} multiplier.

All of these tags on a block of datasets that share n run as one pass
(``_plugin_intervals``): one DL fit over the block's rows, one REML
scoring loop started from those DL values, one pooled-mean and robust
variance pass per estimator, and one t quantile. ``hts_interval`` and
``wald_ci_mu`` are blocks of one.
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
    return _unwrap(_plugin_intervals([tag], [dataset], level)[0][tag])


def wald_ci_mu(dataset: MetaDataset, level: float = 0.95) -> IntervalEstimate:
    """Wald confidence interval for the grand mean with DL weights."""
    return _unwrap(_plugin_intervals(["dl"], [dataset], level)[0]["dl"])


# plug-in t tag -> its hts_interval variant
_VARIANT_OF = {tag: variant for variant, tag in HTS_VARIANTS.items()}


def _check_hts(n: int, level: float, variant: str) -> None:
    if n < 3:
        raise ValueError(f"plug-in prediction interval needs n >= 3, dataset has {n}")
    _check_level(level)
    if variant not in HTS_VARIANTS:
        raise ValueError(f"variant must be one of {tuple(HTS_VARIANTS)}, got {variant!r}")


def _interval(mu, multiplier, spread, level, method, kind):
    """The interval mu +/- multiplier * sqrt(spread). The fits it reads
    are finite (a non-finite DL or REML tau2 fails its fit first), so a
    ValueError here is a fault and propagates."""
    half = multiplier * math.sqrt(spread)
    return IntervalEstimate(mu - half, mu + half, level, method, kind)


def _plugin_intervals(
    tags: Sequence[str], datasets: Sequence[MetaDataset], level: float
) -> list[dict]:
    """Each plug-in t tag (hts, hts-hk, hts-sj) and Wald tag (dl) in tags on
    each dataset of a block that shares n: per dataset, a dict from tag to
    outcome (an IntervalEstimate, or the ValueError or NumericFailure that
    hts_interval or wald_ci_mu raises on that dataset alone).

    The checks of n and level hold for the whole block. DL is fitted once
    over the block's rows and starts REML, which runs one scoring loop for
    every row; each estimator then gets one pooled-mean pass, and the
    block one t quantile.
    """
    n = datasets[0].n
    out = [{} for _ in datasets]
    by_estimator: dict[str, list[str]] = {"DL": [], "REML": []}
    for tag in tags:
        try:
            if tag == "dl":
                _check_level(level)
                _require_n(datasets[0], 2)
            else:
                _check_hts(n, level, _VARIANT_OF[tag])
        except ValueError as exc:
            for outcomes in out:
                outcomes[tag] = exc
            continue
        by_estimator["REML" if tag in ("hts-hk", "hts-sj") else "DL"].append(tag)
    if not (by_estimator["DL"] or by_estimator["REML"]):
        return out

    y = np.array([dataset.effects for dataset in datasets])
    v = np.array([dataset.variances for dataset in datasets])
    fits = {"DL": _dl_fits(y, v)}
    if by_estimator["REML"]:
        fits["REML"] = _reml_fits(y, v, fits["DL"])
    p = 0.5 + level / 2.0
    z = float(special.ndtri(p)) if "dl" in by_estimator["DL"] else None
    hts = by_estimator["REML"] or "hts" in by_estimator["DL"]
    tq = _t_quantile(p, n - 2) if hts else None

    for estimator, est_tags in by_estimator.items():
        if not est_tags:
            continue
        rows = []
        for i, fit in enumerate(fits[estimator]):
            if isinstance(fit, Exception):
                out[i].update(dict.fromkeys(est_tags, fit))
            else:
                rows.append(i)
        if not rows:
            continue
        tau2 = [fits[estimator][i].tau2 for i in rows]
        y_rows, v_rows = y[rows], v[rows]
        w, total, mu = _pooled(y_rows, v_rows, tau2)
        if estimator == "REML":
            kinds = [_VARIANT_OF[tag] for tag in est_tags]
            robust = _robust_variances(y_rows, w, total, mu, kinds)
        for j, (i, t, mu_j, total_j) in enumerate(zip(rows, tau2, mu.tolist(), total.tolist())):
            var_mu = 1.0 / total_j
            for tag in est_tags:
                if tag == "dl":
                    out[i][tag] = _interval(mu_j, z, var_mu, level, tag, "confidence")
                else:
                    spread = t + (var_mu if tag == "hts" else robust[_VARIANT_OF[tag]][j])
                    out[i][tag] = _interval(mu_j, tq, spread, level, tag, "prediction")
    return out
