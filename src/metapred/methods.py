"""The method registry: every accepted method tag and how its interval is
computed. Prediction tags (the eleven prior names, ``hts``, ``hts-hk``,
``hts-sj``) target the effect in a new study; ``dl`` (Wald confidence
interval) and ``cred:<prior>`` (credible interval) target the grand mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .bayes import EngineConfig, PosteriorGrid, _mixture_intervals, _posterior_grids
from .core import MetaDataset
from .errors import NumericFailure
from .intervals import HTS_VARIANTS, IntervalEstimate, _Fits, _hts_interval, _wald_ci_mu
from .priors import NAMED_PRIORS, bind_prior

__all__ = ["Method", "METHODS", "lookup_method", "evaluate_methods"]


@dataclass(frozen=True)
class Method:
    """One tag: its IntervalEstimate kind, and the NAMED_PRIORS name of a
    Bayesian tag or the hts_interval variant of a plug-in t tag (neither for
    the Wald interval)."""

    kind: str
    prior: Optional[str] = None
    variant: Optional[str] = None


METHODS: dict[str, Method] = {
    **{tag: Method("prediction", variant=v) for v, tag in HTS_VARIANTS.items()},
    **{name: Method("prediction", prior=name) for name in NAMED_PRIORS},
    "dl": Method("confidence"),
    **{f"cred:{name}": Method("credible", prior=name) for name in NAMED_PRIORS},
}

# every Bayesian tag uses the default mean prior and tolerance
_ENGINE = EngineConfig()

_Outcome = Union[IntervalEstimate, ValueError, NumericFailure]


def lookup_method(tag: str) -> Method:
    """The registry entry for ``tag``; ValueError when the tag is unknown."""
    try:
        return METHODS[tag]
    except KeyError:
        raise ValueError(f"unknown method tag {tag!r}") from None


def _bayes_outcomes(pairs: list[tuple[str, str]], dataset: MetaDataset, level: float) -> dict:
    """The outcome of each (prior name, kind) pair: one grid batch for every
    prior named, then one inversion batch for every interval whose grid was
    built."""
    names = list(dict.fromkeys(name for name, _ in pairs))
    try:
        bound = bind_prior(NAMED_PRIORS[names[0]], dataset)
        priors = [replace(bound, family=NAMED_PRIORS[name]) for name in names]
        grids = dict(zip(names, _posterior_grids(dataset, priors, _ENGINE)))
    except (ValueError, NumericFailure) as exc:
        return dict.fromkeys(pairs, exc)
    out = {pair: grids[pair[0]] for pair in pairs}  # a failed grid is its error
    ready = [pair for pair in pairs if isinstance(grids[pair[0]], PosteriorGrid)]
    requests = [(grids[name], kind == "prediction") for name, kind in ready]
    try:
        intervals = _mixture_intervals(requests, level, _ENGINE.cdf_tolerance)
    except ValueError as exc:  # an invalid level fails every interval alike
        intervals = [exc] * len(ready)
    out.update(zip(ready, intervals))
    return out


def evaluate_methods(tags: Sequence[str], dataset: MetaDataset, level: float) -> list[_Outcome]:
    """Each tag's interval on one dataset, in order.

    A method that fails yields its ValueError or NumericFailure in place of
    an interval. An unknown tag raises ValueError before any interval is
    computed. The plug-in and Wald tags share one fit per heterogeneity
    estimator (DerSimonian-Laird for hts and dl, REML for hts-hk and
    hts-sj). The Bayesian tags are computed together: every prior they name
    gets its posterior grid from one batch that shares the likelihood
    evaluations, each grid serves its prediction and credible tags, and all
    their endpoints are inverted in one Newton batch. Every outcome equals
    what the public per-method functions (hts_interval, wald_ci_mu,
    build_posterior_grid with prediction_interval or credible_interval_mu)
    return or raise, bit for bit.
    """
    methods = [lookup_method(tag) for tag in tags]
    pairs = list(dict.fromkeys((m.prior, m.kind) for m in methods if m.prior is not None))
    bayes_outcomes = _bayes_outcomes(pairs, dataset, level) if pairs else {}
    fits = _Fits(dataset)
    out: list[_Outcome] = []
    for method in methods:
        if method.prior is not None:
            out.append(bayes_outcomes[method.prior, method.kind])
            continue
        try:
            if method.variant is not None:
                out.append(_hts_interval(dataset, level, method.variant, fits))
            else:
                out.append(_wald_ci_mu(dataset, level, fits))
        except (ValueError, NumericFailure) as exc:
            out.append(exc)
    return out
