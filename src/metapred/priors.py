"""Noninformative priors for the between-study scale tau.

Eleven reference families are provided, each evaluable as a log density on
tau >= 0 once bound to a dataset. Binding fixes the data-derived constants:
s0^2 (harmonic mean of the within-study variances), the I^2-style average
variance sigma_hat^2, and the per-study variances needed by the
Jeffreys-type densities.

Improper families (uniform, sqrt, jeffreys, berger-deely) are evaluated in
their unnormalized form with the arbitrary constant fixed to 1; every
proper family is normalized so its density integrates to one (the
conventional family's constant has no closed form and is integrated
numerically on first use; only that loads scipy.integrate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import gammaincc, gammaln

from .core import MetaDataset, _weight_spread

__all__ = [
    "PriorFamily",
    "BoundPrior",
    "named_prior",
    "NAMED_PRIORS",
    "bind_prior",
    "log_prior_density",
    "log_prior_kernel",
    "prior_cdf",
]

_PROPER_KINDS = frozenset(
    {"conventional", "dumouchel", "shrinkage", "i2", "proper-uniform", "inv-gamma"}
)
_ALL_KINDS = _PROPER_KINDS | {"power", "jeffreys", "berger-deely"}


@dataclass(frozen=True)
class PriorFamily:
    """One prior family for tau, with its shape parameters.

    kind : one of power (p ~ tau^a), jeffreys, berger-deely, conventional,
        dumouchel, shrinkage, i2, proper-uniform (flat on (0, hi)), or
        inv-gamma (Gamma(shape, rate) on the precision 1/tau^2).
    blurb : one-line description shown by ``metapred priors list``; it
        takes no part in equality.
    """

    kind: str
    a: Optional[float] = None
    hi: Optional[float] = None
    shape: Optional[float] = None
    rate: Optional[float] = None
    blurb: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "power":
            if self.a is None or not (-1.0 < self.a < math.inf):
                raise ValueError("power prior needs a finite exponent a > -1 for integrability")
        if self.kind == "proper-uniform":
            if self.hi is None or not (0 < self.hi < math.inf):
                raise ValueError("proper-uniform prior needs a finite hi > 0")
        if self.kind == "inv-gamma":
            if (
                self.shape is None
                or self.rate is None
                or not (0 < self.shape < math.inf and 0 < self.rate < math.inf)
            ):
                raise ValueError("inv-gamma prior needs finite shape > 0 and rate > 0")

    @property
    def proper(self) -> bool:
        return self.kind in _PROPER_KINDS

    @property
    def name(self) -> str:
        """Canonical tag: the NAMED_PRIORS name when the family is one of the 11."""
        named = _NAME_OF.get(self)
        if named is not None:
            return named
        if self.kind == "power":
            return f"power({self.a:g})"
        if self.kind == "proper-uniform":
            return f"proper-uniform({self.hi:g})"
        if self.kind == "inv-gamma":
            return f"inv-gamma({self.shape:g},{self.rate:g})"
        return self.kind


# the eleven reference priors; `metapred priors list` prints them in this order
NAMED_PRIORS: dict[str, PriorFamily] = {
    "uniform": PriorFamily("power", a=0.0, blurb="improper, flat in tau"),
    "sqrt": PriorFamily("power", a=-0.5, blurb="improper, flat in sqrt(tau) (density 1/sqrt(tau))"),
    "jeffreys": PriorFamily("jeffreys", blurb="improper, information-based reference prior"),
    "berger-deely": PriorFamily(
        "berger-deely", blurb="improper, per-study geometric-mean variant of jeffreys"
    ),
    "conventional": PriorFamily(
        "conventional", blurb="proper variant of jeffreys (normalized numerically)"
    ),
    "dumouchel": PriorFamily("dumouchel", blurb="proper, log-logistic in tau with median s0"),
    "shrinkage": PriorFamily(
        "shrinkage", blurb="proper, uniform on the average shrinkage factor"
    ),
    "i2": PriorFamily("i2", blurb="proper, uniform on the heterogeneity fraction I^2"),
    "proper1": PriorFamily("proper-uniform", hi=10.0, blurb="proper, uniform on (0, 10)"),
    "proper2": PriorFamily(
        "inv-gamma", shape=0.001, rate=0.001,
        blurb="proper, Gamma(0.001, 0.001) on the precision 1/tau^2",
    ),
    "proper3": PriorFamily(
        "inv-gamma", shape=0.01, rate=0.01,
        blurb="proper, Gamma(0.01, 0.01) on the precision 1/tau^2",
    ),
}
_NAME_OF = {family: name for name, family in NAMED_PRIORS.items()}


def named_prior(name: str) -> PriorFamily:
    try:
        return NAMED_PRIORS[name]
    except KeyError:
        raise ValueError(
            f"unknown prior name {name!r}; choose from {', '.join(NAMED_PRIORS)}"
        ) from None


@dataclass(frozen=True)
class BoundPrior:
    """A prior family with its dataset-derived constants frozen in.

    s0_sq is the harmonic mean n / sum(sigma_i^-2); sigma_hat_sq is
    (n-1) sum(sigma_i^-2) / ((sum sigma_i^-2)^2 - sum sigma_i^-4).
    """

    family: PriorFamily
    s0_sq: float
    sigma_hat_sq: float
    sigma_sq: np.ndarray

    @property
    def name(self) -> str:
        return self.family.name

    @property
    def proper(self) -> bool:
        return self.family.proper

    @cached_property
    def log_norm(self) -> float:
        """Log normalizing constant that log_prior_density subtracts from
        the conventional family's kernel (0 for every other family).

        There is no closed form: it is log _conventional_mass(sigma_sq, inf),
        integrated numerically on first use. The posterior engine never
        needs it, since a constant cancels from the normalized posterior.
        """
        if self.family.kind != "conventional":
            return 0.0
        return math.log(_conventional_mass(self.sigma_sq, np.inf))


def _conventional_log_unnorm(tau, sigma_sq):
    tau = np.asarray(tau, dtype=float)
    n = np.shape(sigma_sq)[-1]
    t2 = tau[..., None] ** 2
    with np.errstate(divide="ignore"):
        out = np.log(tau) - 1.5 / n * np.sum(np.log(sigma_sq + t2), axis=-1)
    return out


def _conventional_mass(sigma_sq, upto):
    """Integral of the conventional kernel exp(_conventional_log_unnorm) over
    [0, upto], for log_norm (upto = inf) and prior_cdf.

    It runs in units of a data scale s, the power of 2 nearest the SEs'
    geometric mean: with tau = s u the kernel is s^-2 times the kernel of
    the variances sigma^2 / s^2 at u, so the mass is s x s^-2 = 1/s times
    an integral over u near unit scale, the range that quad's map of
    [0, inf) and its absolute tolerance resolve. A power of 2 rescales the
    variances without rounding.
    """
    # imported here: loading scipy.integrate pulls in scipy.optimize, sparse
    # and linalg, which only this numeric normalizer needs
    from scipy import integrate

    s = 2.0 ** round(0.5 * float(np.mean(np.log2(sigma_sq))))
    unit_sigma_sq = sigma_sq / (s * s)
    mass = integrate.quad(
        lambda u: math.exp(_conventional_log_unnorm(u, unit_sigma_sq)),
        0.0, upto / s, epsabs=1e-12, epsrel=1e-10, limit=200,
    )[0]
    return mass / s


def _check_bindable(n: int) -> None:
    """ValueError unless a dataset of n studies can bind a prior (n >= 2)."""
    if n < 2:
        raise ValueError(f"binding a prior needs n >= 2, dataset has {n}")


def _bound_constants(inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s0^2 and sigma_hat^2 of each row of the (rows, n) inverse within-study
    variances inv: s0^2 = n / S1 and sigma_hat^2 = (n - 1) S1 / (S1^2 - S2),
    with S1 = sum sigma_i^-2 and S2 = sum sigma_i^-4 over the row. Each row
    is summed on its own, so its constants do not depend on the other rows."""
    n = inv.shape[1]
    _check_bindable(n)
    return n / inv.sum(axis=1), (n - 1) / np.array(_weight_spread(inv))


def bind_prior(family: PriorFamily, dataset: MetaDataset) -> BoundPrior:
    """Fix a prior family's data-dependent constants for one dataset: a
    block of one of _bound_constants."""
    sigma_sq = dataset.variances
    s0_sq, sigma_hat_sq = _bound_constants(1.0 / sigma_sq[None])
    return BoundPrior(family, float(s0_sq[0]), float(sigma_hat_sq[0]), sigma_sq)


def log_prior_density(prior: BoundPrior, tau) -> float | np.ndarray:
    """Log prior density at tau (scalar or array), tau >= 0.

    Proper families are normalized; improper families return the displayed
    unnormalized form (power(a) returns a * log tau). At tau = 0 the
    continuous limit is returned, which is -inf wherever the density
    vanishes.
    """
    arr = np.asarray(tau, dtype=float)
    if np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise ValueError("tau must be finite and >= 0")
    out = log_prior_kernel(prior, np.atleast_1d(arr)) - prior.log_norm
    if arr.ndim == 0:
        return float(out[0])
    return out


def log_prior_kernel(prior: BoundPrior, tau: np.ndarray) -> np.ndarray:
    """log_prior_density without the conventional family's normalizer.

    Takes a 1-d array of tau >= 0 and does not validate it. Every other
    family returns exactly log_prior_density; the conventional one differs
    by the constant prior.log_norm, which cancels from a normalized
    posterior, so the posterior engine skips its quadrature.
    """
    return _log_kernel(
        prior.family,
        np.asarray(tau, dtype=float),
        prior.s0_sq,
        math.log(math.sqrt(prior.s0_sq)),
        prior.sigma_hat_sq,
        prior.sigma_sq,
    )


def _log_kernel(family, t, s0_sq, log_s0, sigma_hat_sq, sigma_sq):
    """log_prior_kernel of one family at the array t, with the bound
    constants given directly: s0_sq, log_s0 = log sqrt(s0_sq) and
    sigma_hat_sq broadcast against t (floats, or one value per row of t as
    a column), and sigma_sq, the within-study variances, broadcasts against
    t[..., None]. So one call serves a family on the rows of many datasets;
    every value is computed elementwise, or by a sum over the last
    (studies) axis, so it does not depend on the other rows."""
    kind = family.kind
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == "power":
            out = np.zeros_like(t) if family.a == 0.0 else family.a * np.log(t)
        elif kind == "jeffreys":
            ratios = t[..., None] / (sigma_sq + t[..., None] ** 2)
            out = 0.5 * np.log(np.sum(ratios**2, axis=-1))
        elif kind == "berger-deely":
            out = np.log(t) - np.mean(np.log(sigma_sq + t[..., None] ** 2), axis=-1)
        elif kind == "conventional":
            out = _conventional_log_unnorm(t, sigma_sq)
        elif kind == "dumouchel":
            out = log_s0 - 2.0 * np.log(np.sqrt(s0_sq) + t)
        elif kind == "shrinkage":
            out = np.log(2.0 * s0_sq * t) - 2.0 * np.log(s0_sq + t**2)
        elif kind == "i2":
            out = np.log(2.0 * sigma_hat_sq * t) - 2.0 * np.log(sigma_hat_sq + t**2)
        elif kind == "proper-uniform":
            out = np.where(t <= family.hi, -math.log(family.hi), -np.inf)
        elif kind == "inv-gamma":
            a, b = family.shape, family.rate
            out = np.where(
                t == 0.0,
                -np.inf,
                math.log(2.0)
                + a * math.log(b)
                - gammaln(a)
                - (2.0 * a + 1.0) * np.log(t)
                - b / t**2,
            )
        else:  # pragma: no cover - guarded by PriorFamily validation
            raise AssertionError(kind)
    return np.asarray(out, dtype=float)


def prior_cdf(prior: BoundPrior, tau: float) -> float:
    """CDF of a proper prior at tau; raises for improper families.

    Closed forms: dumouchel tau/(s0+tau); shrinkage tau^2/(s0^2+tau^2);
    i2 the same with sigma_hat^2; proper-uniform min(tau/hi, 1); inv-gamma
    the regularized upper incomplete gamma function of the precision. The
    conventional family's CDF is the kernel's mass up to tau over its total
    mass, both from _conventional_mass.
    """
    if not prior.proper:
        raise ValueError(
            f"prior '{prior.name}' is improper and has no distribution function"
        )
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    fam = prior.family
    kind = fam.kind
    if kind == "dumouchel":
        s0 = math.sqrt(prior.s0_sq)
        return tau / (s0 + tau)
    if kind == "shrinkage":
        return tau**2 / (prior.s0_sq + tau**2)
    if kind == "i2":
        return tau**2 / (prior.sigma_hat_sq + tau**2)
    if kind == "proper-uniform":
        return min(tau / fam.hi, 1.0)
    if kind == "inv-gamma":
        if tau == 0.0:
            return 0.0
        # P(T <= tau) = P(1/T^2 >= tau^-2) with 1/T^2 ~ Gamma(shape, rate);
        # dividing by the scale 1/rate rounds as the Gamma survival function does
        return float(gammaincc(fam.shape, tau**-2 / (1.0 / fam.rate)))
    # conventional
    if tau == 0.0:
        return 0.0
    return min(_conventional_mass(prior.sigma_sq, tau) / math.exp(prior.log_norm), 1.0)
