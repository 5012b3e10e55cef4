"""The meta-analysis dataset and classical random-effects estimators.

The model is the standard two-level Gaussian one: each study reports an
effect ``y_i`` with known within-study standard error ``sigma_i``, and the
true study effects scatter around a grand mean with between-study variance
``tau^2``. Everything here is a pure function of the dataset; effects are
assumed to already be on the analysis scale (log ratio measures, mean
differences, SMDs).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike
from scipy import stats

from .errors import DegenerateDispersionWarning, NumericFailure

__all__ = [
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
]


@dataclass(frozen=True, eq=False)
class MetaDataset:
    """The studies entering one meta-analysis: effects and their SEs.

    ``effects`` and ``std_errs`` are read-only 1-D float arrays of equal
    length (at least one study, finite effects, positive finite SEs);
    ``variances`` is ``std_errs**2``. Build one with :meth:`from_arrays`.
    """

    effects: np.ndarray
    std_errs: np.ndarray
    variances: np.ndarray = field(init=False)

    def __post_init__(self):
        effects = np.array(self.effects, dtype=float)
        std_errs = np.array(self.std_errs, dtype=float)
        if effects.ndim != 1 or std_errs.ndim != 1:
            raise ValueError("effects and std_errs must be 1-D")
        if len(effects) != len(std_errs):
            raise ValueError("effects and std_errs must have equal length")
        if len(effects) < 1:
            raise ValueError("a dataset needs at least one study")
        bad_effects = effects[~np.isfinite(effects)]
        if len(bad_effects):
            raise ValueError(f"study effect must be finite, got {bad_effects[0]}")
        bad_ses = std_errs[~((std_errs > 0) & (std_errs < np.inf))]
        if len(bad_ses):
            raise ValueError(f"study std_err must be positive and finite, got {bad_ses[0]}")
        arrays = {"effects": effects, "std_errs": std_errs, "variances": std_errs**2}
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_arrays(cls, effects: ArrayLike, std_errs: ArrayLike) -> "MetaDataset":
        """A dataset from per-study effects and SEs (copied, then validated)."""
        return cls(effects, std_errs)

    @property
    def n(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class HeterogeneityEstimate:
    """A between-study variance estimate with its method tag."""

    tau2: float
    method: str

    def __post_init__(self):
        if not (math.isfinite(self.tau2) and self.tau2 >= 0):
            raise ValueError(f"tau2 must be finite and >= 0, got {self.tau2!r}")


@dataclass(frozen=True)
class PooledEstimate:
    """Inverse-variance pooled mean with its weights and variance."""

    mu_hat: float
    var_mu_hat: float
    weights: np.ndarray


def _require_n(dataset: MetaDataset, k: int) -> None:
    if dataset.n < k:
        raise ValueError(f"need at least {k} studies, dataset has {dataset.n}")


def cochran_q(dataset: MetaDataset) -> float:
    """Cochran's Q: fixed-effect weighted sum of squared deviations.

    Q = sum_i w_i (y_i - ybar_w)^2 with w_i = sigma_i^-2 and ybar_w the
    fixed-effect pooled mean.
    """
    _require_n(dataset, 2)
    y = dataset.effects
    w = 1.0 / dataset.variances
    ybar = float(np.sum(w * y) / np.sum(w))
    return float(np.sum(w * (y - ybar) ** 2))


def q_test_pvalue(q: float, n: int) -> float:
    """Upper-tail chi-squared(n-1) probability of the Q statistic."""
    if n < 2:
        raise ValueError(f"Q test needs at least 2 studies, got n={n}")
    if not (math.isfinite(q) and q >= 0):
        raise ValueError(f"Q statistic must be finite and >= 0, got {q!r}")
    return float(stats.chi2.sf(q, n - 1))


def i_squared(dataset: MetaDataset) -> float:
    """Higgins' I^2 heterogeneity fraction, max(0, (Q - (n-1)) / Q).

    Returns 0 when Q = 0 (no dispersion at all).
    """
    _require_n(dataset, 2)
    q = cochran_q(dataset)
    if q == 0.0:
        return 0.0
    return max(0.0, (q - (dataset.n - 1)) / q)


def dl_tau2(dataset: MetaDataset) -> HeterogeneityEstimate:
    """DerSimonian-Laird method-of-moments heterogeneity variance.

    tau2_DL = max(0, (Q - (n-1)) / (S1 - S2/S1)) with S1 = sum sigma_i^-2
    and S2 = sum sigma_i^-4.
    """
    _require_n(dataset, 2)
    w = 1.0 / dataset.variances
    s1 = float(np.sum(w))
    s2 = float(np.sum(w**2))
    q = cochran_q(dataset)
    tau2 = max(0.0, (q - (dataset.n - 1)) / (s1 - s2 / s1))
    return HeterogeneityEstimate(tau2, "DL")


def pooled_mu(dataset: MetaDataset, tau2: float) -> PooledEstimate:
    """Random-effects pooled mean for a supplied heterogeneity variance.

    Weights are w_i = (sigma_i^2 + tau2)^-1; the pooled mean is the
    weighted average of effects and Var[mu_hat] = 1 / sum w_i.
    """
    _require_n(dataset, 2)
    if not (math.isfinite(tau2) and tau2 >= 0):
        raise ValueError(f"tau2 must be finite and >= 0, got {tau2!r}")
    w = 1.0 / (dataset.variances + tau2)
    total = float(np.sum(w))
    mu = float(np.sum(w * dataset.effects) / total)
    return PooledEstimate(mu_hat=mu, var_mu_hat=1.0 / total, weights=w)


def _restricted_score_info(y, v, tau2):
    """Score and expected information of the restricted likelihood in tau2."""
    w = 1.0 / (v + tau2)
    sw = float(np.sum(w))
    w2 = w**2
    sw2 = float(np.sum(w2))
    sw3 = float(np.sum(w**3))
    mu = float(np.sum(w * y) / sw)
    score = 0.5 * (float(np.sum(w2 * (y - mu) ** 2)) - sw + sw2 / sw)
    info = 0.5 * (sw2 - 2.0 * sw3 / sw + (sw2 / sw) ** 2)
    return score, info


def reml_tau2(
    dataset: MetaDataset, *, tol: float = 1e-10, max_iter: int = 200
) -> HeterogeneityEstimate:
    """Restricted maximum likelihood heterogeneity variance.

    Fisher scoring on tau2 (step = score / expected information), clamped
    at zero and started from the DerSimonian-Laird estimate. Once scoring
    has bracketed the score's sign change the iteration switches to
    bisection on the bracket, which removes the scoring oscillation seen
    on flat likelihood surfaces; iteration stops when |delta tau2| <= tol.

    Raises
    ------
    NumericFailure
        If the iteration has not converged after ``max_iter`` steps; the
        exception carries the last iterate in ``last_value``.
    """
    _require_n(dataset, 2)
    y = dataset.effects
    v = dataset.variances
    tau2 = dl_tau2(dataset).tau2
    below = above = None  # bracket on the stationary point from score signs
    for _ in range(max_iter):
        score, info = _restricted_score_info(y, v, tau2)
        if tau2 == 0.0 and score <= 0.0:
            return HeterogeneityEstimate(0.0, "REML")  # boundary optimum
        if score > 0.0:
            below = tau2
        else:
            above = tau2
        if below is not None and above is not None:
            tau2_new = 0.5 * (below + above)
        else:
            tau2_new = max(0.0, tau2 + score / info)
        if abs(tau2_new - tau2) <= tol:
            return HeterogeneityEstimate(tau2_new, "REML")
        tau2 = tau2_new
    raise NumericFailure(
        f"REML iteration did not converge within {max_iter} steps", last_value=tau2
    )


def robust_variance(dataset: MetaDataset, tau2: float, kind: str = "HK") -> float:
    """Robust variance of the pooled mean: Hartung-Knapp or Sidik-Jonkman.

    HK:  V = sum w_i (y_i - mu_hat)^2 / ((n-1) sum w_i)
    SJ:  V = sum w_i^2 (y_i - mu_hat)^2 / (sum w_i)^2 * n/(n-1)
         (the bias-corrected sandwich form)

    with w_i = (sigma_i^2 + tau2)^-1. When every effect is identical the
    dispersion is zero; a DegenerateDispersionWarning is emitted and 0 is
    returned.
    """
    if kind not in ("HK", "SJ"):
        raise ValueError(f"kind must be 'HK' or 'SJ', got {kind!r}")
    _require_n(dataset, 2)
    pooled = pooled_mu(dataset, tau2)
    y = dataset.effects
    if float(np.ptp(y)) == 0.0:
        warnings.warn(
            "all effects are identical; robust variance is degenerate (0)",
            DegenerateDispersionWarning,
            stacklevel=2,
        )
        return 0.0
    w = pooled.weights
    resid2 = (y - pooled.mu_hat) ** 2
    n = dataset.n
    if kind == "HK":
        return float(np.sum(w * resid2) / ((n - 1) * np.sum(w)))
    return float(np.sum(w**2 * resid2) / np.sum(w) ** 2 * n / (n - 1))
