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


def _bayes_outcomes(
    pairs: list[tuple[str, str]], datasets: Sequence[MetaDataset], level: float
) -> list[dict]:
    """The outcome of each (prior name, kind) pair on each dataset of a
    block: one grid batch for every prior named on every dataset, then one
    inversion batch for every interval whose grid was built."""
    names = list(dict.fromkeys(name for name, _ in pairs))
    out: list[dict] = []
    bound_outcomes, rows = [], []  # the outcomes and grid rows of every bound dataset
    for dataset in datasets:
        try:
            bound = bind_prior(NAMED_PRIORS[names[0]], dataset)
        except (ValueError, NumericFailure) as exc:
            out.append(dict.fromkeys(pairs, exc))
            continue
        out.append({})
        bound_outcomes.append(out[-1])
        rows += [(dataset, replace(bound, family=NAMED_PRIORS[name])) for name in names]
    try:
        grids = iter(_posterior_grids(rows, _ENGINE))
    except (ValueError, NumericFailure) as exc:
        grids = iter([exc] * len(rows))
    ready = []  # (dataset's outcomes, pair, grid) of every interval to invert
    for outcomes in bound_outcomes:
        by_name = {name: next(grids) for name in names}
        for pair in pairs:
            grid = outcomes[pair] = by_name[pair[0]]  # a failed grid is its error
            if isinstance(grid, PosteriorGrid):
                ready.append((outcomes, pair, grid))
    requests = [(grid, kind == "prediction") for _, (_, kind), grid in ready]
    try:
        intervals = _mixture_intervals(requests, level, _ENGINE.cdf_tolerance)
    except ValueError as exc:  # an invalid level fails every interval alike
        intervals = [exc] * len(ready)
    for (outcomes, pair, _), interval in zip(ready, intervals):
        outcomes[pair] = interval
    return out


def _evaluate_block(
    tags: Sequence[str], datasets: Sequence[MetaDataset], level: float
) -> list[list[_Outcome]]:
    """evaluate_methods on every dataset of a block, which must share their
    number of studies: one grid batch and one inversion batch for the
    Bayesian tags of all of them. Each dataset's outcomes equal its
    evaluate_methods outcomes bit for bit."""
    methods = [lookup_method(tag) for tag in tags]
    pairs = list(dict.fromkeys((m.prior, m.kind) for m in methods if m.prior is not None))
    bayes = _bayes_outcomes(pairs, datasets, level) if pairs else [{}] * len(datasets)
    out = []
    for dataset, bayes_outcomes in zip(datasets, bayes):
        fits = _Fits(dataset)
        outcomes: list[_Outcome] = []
        for method in methods:
            if method.prior is not None:
                outcomes.append(bayes_outcomes[method.prior, method.kind])
                continue
            try:
                if method.variant is not None:
                    outcomes.append(_hts_interval(dataset, level, method.variant, fits))
                else:
                    outcomes.append(_wald_ci_mu(dataset, level, fits))
            except (ValueError, NumericFailure) as exc:
                outcomes.append(exc)
        out.append(outcomes)
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
    return or raise, bit for bit. This is a block of one for the engine
    that the coverage study runs on a block of replications at a time.
    """
    (outcomes,) = _evaluate_block(tags, [dataset], level)
    return outcomes
