"""The method registry: every accepted method tag and how its interval is
computed. Prediction tags (the eleven prior names, ``hts``, ``hts-hk``,
``hts-sj``) target the effect in a new study; ``dl`` (Wald confidence
interval) and ``cred:<prior>`` (credible interval) target the grand mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .bayes import EngineConfig, _mixture_intervals, _posterior_grids
from .core import MetaDataset
from .errors import NumericFailure
from .intervals import HTS_VARIANTS, IntervalEstimate, _check_level, _plugin_intervals
from .priors import NAMED_PRIORS, _check_bindable

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
    inversion batch over its layout for every interval. A block with
    fewer than two studies, or an invalid level, fails every pair alike
    before any grid is built."""
    try:
        _check_bindable(datasets[0].n)  # the block shares n
        _check_level(level)
    except ValueError as exc:
        return [dict.fromkeys(pairs, exc) for _ in datasets]
    names = list(dict.fromkeys(name for name, _ in pairs))
    grids, index = _posterior_grids(datasets, [NAMED_PRIORS[name] for name in names], _ENGINE)
    column = {name: f for f, name in enumerate(names)}
    # a request whose grid failed gets the grid's error
    requests = [(rows[column[n]], kind == "prediction") for rows in index for n, kind in pairs]
    intervals = iter(_mixture_intervals(grids, requests, level, _ENGINE.cdf_tolerance))
    return [{pair: next(intervals) for pair in pairs} for _ in index]


def _evaluate_block(
    tags: Sequence[str], datasets: Sequence[MetaDataset], level: float
) -> list[list[_Outcome]]:
    """evaluate_methods on every dataset of a block, which must share their
    number of studies: one grid batch and one inversion batch for the
    Bayesian tags of all of them, and one pass (one DL fit, one REML
    scoring loop) for their plug-in and Wald tags. Each dataset's outcomes
    equal its evaluate_methods outcomes bit for bit."""
    methods = [lookup_method(tag) for tag in tags]
    pairs = list(dict.fromkeys((m.prior, m.kind) for m in methods if m.prior is not None))
    bayes = _bayes_outcomes(pairs, datasets, level) if pairs else [{}] * len(datasets)
    plugin_tags = list(dict.fromkeys(t for t, m in zip(tags, methods) if m.prior is None))
    plugin = [{}] * len(datasets)
    if plugin_tags:
        plugin = _plugin_intervals(plugin_tags, datasets, level)
    return [
        [
            bayes_outcomes[m.prior, m.kind] if m.prior is not None else plugin_outcomes[tag]
            for tag, m in zip(tags, methods)
        ]
        for bayes_outcomes, plugin_outcomes in zip(bayes, plugin)
    ]


def evaluate_methods(tags: Sequence[str], dataset: MetaDataset, level: float) -> list[_Outcome]:
    """Each tag's interval on one dataset, in order.

    A method that fails yields its ValueError or NumericFailure in place of
    an interval. An unknown tag raises ValueError before any interval is
    computed. The plug-in and Wald tags share one fit per heterogeneity
    estimator (DerSimonian-Laird for hts and dl, and as REML's start; REML
    for hts-hk and hts-sj). The Bayesian tags are computed together: every
    prior they name gets its posterior grid from one batch that shares the
    likelihood evaluations, each grid serves its prediction and credible
    tags, and all their endpoints are inverted in one Newton batch. Every
    outcome equals what the public per-method functions (hts_interval,
    wald_ci_mu, build_posterior_grid with prediction_interval or
    credible_interval_mu) return or raise, bit for bit, save that an
    invalid level fails every tag alike where those may first raise a
    grid's failure. This is a block of one for the engine
    that the coverage study runs on a block of replications at a time.
    """
    (outcomes,) = _evaluate_block(tags, [dataset], level)
    return outcomes
