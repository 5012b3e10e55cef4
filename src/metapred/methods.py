"""The method registry: every accepted method tag and how its interval is
computed. Prediction tags (the eleven prior names, ``hts``, ``hts-hk``,
``hts-sj``) target the effect in a new study; ``dl`` (Wald confidence
interval) and ``cred:<prior>`` (credible interval) target the grand mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .bayes import (
    EngineConfig,
    build_posterior_grid,
    credible_interval_mu,
    prediction_interval,
)
from .core import MetaDataset
from .errors import NumericFailure
from .intervals import HTS_VARIANTS, IntervalEstimate, hts_interval, wald_ci_mu
from .priors import NAMED_PRIORS, bind_prior, named_prior

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


def lookup_method(tag: str) -> Method:
    """The registry entry for ``tag``; ValueError when the tag is unknown."""
    try:
        return METHODS[tag]
    except KeyError:
        raise ValueError(f"unknown method tag {tag!r}") from None


def _interval(method, dataset, level, grids, engine_config):
    if method.variant is not None:
        return hts_interval(dataset, level, variant=method.variant)
    if method.prior is None:
        return wald_ci_mu(dataset, level)
    grid = grids.get(method.prior)
    if grid is None:
        bound = bind_prior(named_prior(method.prior), dataset)
        grid = grids[method.prior] = build_posterior_grid(dataset, bound, engine_config)
    if method.kind == "credible":
        return credible_interval_mu(grid, level, engine_config.cdf_tolerance)
    return prediction_interval(grid, level, engine_config.cdf_tolerance)


def evaluate_methods(
    tags: Sequence[str],
    dataset: MetaDataset,
    level: float,
    engine_config: EngineConfig | None = None,
) -> list[Union[IntervalEstimate, ValueError, NumericFailure]]:
    """Each tag's interval on one dataset, in order.

    A method that fails yields its ValueError or NumericFailure in place of
    an interval. An unknown tag raises ValueError before any interval is
    computed. Each prior's posterior grid is built once and shared by its
    prediction and credible tags.
    """
    if engine_config is None:
        engine_config = EngineConfig()
    methods = [lookup_method(tag) for tag in tags]
    grids: dict = {}
    out: list = []
    for method in methods:
        try:
            out.append(_interval(method, dataset, level, grids, engine_config))
        except (ValueError, NumericFailure) as exc:
            out.append(exc)
    return out
