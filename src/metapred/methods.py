"""The method registry: every accepted method tag and how its interval is
computed. Prediction tags (the eleven prior names, ``hts``, ``hts-hk``,
``hts-sj``) target the effect in a new study; ``dl`` (Wald confidence
interval) and ``cred:<prior>`` (credible interval) target the grand mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .bayes import EngineConfig, _mixture_intervals, _posterior_grids
from .core import MetaDataset
from .errors import NumericFailure
from .intervals import HTS_VARIANTS, IntervalEstimate, _check_level, _outcome, _plugin_intervals
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


def _bayes_intervals(
    pairs: list[tuple[str, str]], datasets: Sequence[MetaDataset], level: float, errors: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each (prior name, kind) pair on each dataset of a block, as (pairs,
    datasets) arrays of lower endpoints, upper endpoints and failure
    indices into errors (see _mixture_intervals): one grid batch for every
    prior named on every dataset, then one inversion batch over its layout
    for every interval. A block with fewer than two studies, or an invalid
    level, fails every pair alike before any grid is built."""
    try:
        _check_bindable(datasets[0].n)  # the block shares n
        _check_level(level)
    except ValueError as exc:
        errors.append(exc)
        shape = (len(pairs), len(datasets))
        return np.full(shape, math.nan), np.full(shape, math.nan), np.full(shape, len(errors) - 1)
    names = list(dict.fromkeys(name for name, _ in pairs))
    grids, index = _posterior_grids(datasets, [NAMED_PRIORS[name] for name in names], _ENGINE)
    column = {name: f for f, name in enumerate(names)}
    # a request whose grid failed gets the grid's error
    requests = [(rows[column[n]], kind == "prediction") for rows in index for n, kind in pairs]
    outcomes = _mixture_intervals(grids, requests, level, _ENGINE.cdf_tolerance, errors)
    return tuple(array.reshape(len(datasets), len(pairs)).T for array in outcomes)


def _evaluate_block(
    tags: Sequence[str], datasets: Sequence[MetaDataset], level: float, errors: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """evaluate_methods on every dataset of a block, which must share their
    number of studies, as (tags, datasets) arrays of lower endpoints, upper
    endpoints and failure indices: -1, or the position in errors (to which
    this appends) of the tag's ValueError or NumericFailure on the dataset,
    whose endpoints are then NaN. Each entry equals its evaluate_methods
    outcome bit for bit. An interval whose endpoints are out of order is a
    fault: the first, dataset after dataset, raises IntervalEstimate's
    ValueError."""
    methods = [lookup_method(tag) for tag in tags]
    bayes = [m.prior is not None for m in methods]
    keys = [(m.prior, m.kind) if b else tag for tag, m, b in zip(tags, methods, bayes)]
    rows = {}  # each key's (lower, upper, failed) rows
    for engine, wanted in ((_bayes_intervals, True), (_plugin_intervals, False)):
        batch = list(dict.fromkeys(key for key, b in zip(keys, bayes) if b == wanted))
        if batch:
            rows.update(zip(batch, zip(*engine(batch, datasets, level, errors))))
    shape = (len(tags), len(datasets))
    lower, upper, failed = (np.reshape([rows[key][j] for key in keys], shape) for j in range(3))
    inverted = ((failed < 0) & ~(lower <= upper)).T
    for i, k in np.argwhere(inverted)[:1].tolist():  # IntervalEstimate raises
        _outcome((lower, upper, failed), errors, (k, i), level, tags[k], methods[k].kind)
    return lower, upper, failed


def evaluate_methods(tags: Sequence[str], dataset: MetaDataset, level: float) -> list[_Outcome]:
    """Each tag's interval on one dataset, in order.

    A method that fails yields its ValueError or NumericFailure in place of
    an interval. An unknown tag raises ValueError before any interval is
    computed. The plug-in and Wald tags share one fit per heterogeneity
    estimator (DerSimonian-Laird for hts and dl, and as REML's start; REML
    for hts-hk and hts-sj); the Bayesian tags share one grid batch, a grid
    per prior serving its prediction and credible tags, and one Newton
    batch for all their endpoints. Every outcome equals what the public
    per-method functions (hts_interval, wald_ci_mu, build_posterior_grid
    with prediction_interval or credible_interval_mu) return or raise, bit
    for bit, save that an invalid level fails every tag alike where those
    may first raise a grid's failure. It reads _evaluate_block, the engine
    of the coverage study's blocks, on a block of one.
    """
    errors: list = []
    outcomes = _evaluate_block(tags, [dataset], level, errors)
    return [
        _outcome(outcomes, errors, (k, 0), level, METHODS[tag].prior or tag, METHODS[tag].kind)
        for k, tag in enumerate(tags)
    ]
