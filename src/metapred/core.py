"""The meta-analysis dataset and classical random-effects estimators.

The model is the standard two-level Gaussian one: each study reports an
effect ``y_i`` with known within-study standard error ``sigma_i``, and the
true study effects scatter around a grand mean with between-study variance
``tau^2``. Everything here is a pure function of the dataset; effects are
assumed to already be on the analysis scale (log ratio measures, mean
differences, SMDs).

Each estimator has one row-wise form over ``(rows, n)`` arrays, one row
per dataset of a block that shares n: Q and the DL spread, the pooled
mean, the restricted score and information, and the HK/SJ variances.
Every sum over studies stays within its row, so a row's result does not
depend on its block; the public functions are blocks of one. REML runs
one scoring loop for a whole block: each pass sums every open row at
once, then one Python loop finishes each row's score and takes its step,
and a row that has converged or failed leaves the arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike
from scipy import special

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
    length (at least one study, finite effects, positive finite SEs whose
    4th power and its inverse are finite, i.e. SEs within about 1e-77 to
    1e77); ``variances`` is ``std_errs**2``. Build one with
    :meth:`from_arrays`.
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
        with np.errstate(over="ignore", divide="ignore"):
            variances = std_errs**2
            fourth = variances * variances
            extreme = std_errs[~(np.isfinite(fourth) & np.isfinite(1.0 / fourth))]
        if len(extreme):
            raise ValueError(
                f"study std_err {extreme[0]} is out of range: its 4th power or inverse "
                "4th power is not finite (SEs must lie within about 1e-77 to 1e77)"
            )
        arrays = {"effects": effects, "std_errs": std_errs, "variances": variances}
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_arrays(cls, effects: ArrayLike, std_errs: ArrayLike) -> "MetaDataset":
        """A dataset from per-study effects and SEs (copied, then validated)."""
        return cls(effects, std_errs)

    @classmethod
    def _trusted(
        cls, effects: np.ndarray, std_errs: np.ndarray, variances: np.ndarray
    ) -> "MetaDataset":
        """A dataset from arrays that already hold the class invariants:
        read-only 1-D float arrays of equal length, SEs in range and
        ``variances`` equal to ``std_errs**2``. Nothing is copied or checked."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "effects", effects)
        object.__setattr__(dataset, "std_errs", std_errs)
        object.__setattr__(dataset, "variances", variances)
        return dataset

    @property
    def n(self) -> int:
        return len(self.effects)


def _check_tau2(tau2: float) -> None:
    if not (math.isfinite(tau2) and tau2 >= 0):
        raise ValueError(f"tau2 must be finite and >= 0, got {tau2!r}")


@dataclass(frozen=True)
class HeterogeneityEstimate:
    """A between-study variance estimate with its method tag."""

    tau2: float
    method: str

    def __post_init__(self):
        _check_tau2(self.tau2)


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
    return _cochran_q(dataset.effects[None], 1.0 / dataset.variances[None])[0]


def _cochran_q(y: np.ndarray, w: np.ndarray) -> list[float]:
    """Cochran's Q of each row of the (rows, n) effects y and weights w."""
    with np.errstate(over="ignore", invalid="ignore"):  # a Q that is not finite fails DL
        ybar = (w * y).sum(axis=1) / w.sum(axis=1)
        return (w * (y - ybar[:, None]) ** 2).sum(axis=1).tolist()


def q_test_pvalue(q: float, n: int) -> float:
    """Upper-tail chi-squared(n-1) probability of the Q statistic."""
    if n < 2:
        raise ValueError(f"Q test needs at least 2 studies, got n={n}")
    if not (math.isfinite(q) and q >= 0):
        raise ValueError(f"Q statistic must be finite and >= 0, got {q!r}")
    return float(special.chdtrc(n - 1, q))


def i_squared(dataset: MetaDataset) -> float:
    """Higgins' I^2 heterogeneity fraction, max(0, (Q - (n-1)) / Q).

    Returns 0 when Q = 0 (no dispersion at all).
    """
    _require_n(dataset, 2)
    q = cochran_q(dataset)
    if q == 0.0:
        return 0.0
    return max(0.0, (q - (dataset.n - 1)) / q)


def _weight_spread(w: np.ndarray) -> list[float]:
    """S1 - S2/S1 of each row of the (rows, n >= 2) weights w (S1 = sum w,
    S2 = sum w^2).

    Summed as 2 sum_j w_j (sum_{i<j} w_i) / S1: no subtraction, which
    cancels to 0 once one weight dwarfs the others, and no term above the
    largest weight, so the result is positive and finite.
    """
    s1 = w.sum(axis=1)
    partial = w[:, 1:] * (np.cumsum(w, axis=1)[:, :-1] / s1[:, None])
    return (2.0 * partial.sum(axis=1)).tolist()


def _estimate(tau2: float, method: str):
    """HeterogeneityEstimate(tau2, method), or a NumericFailure with its
    ValueError's message: a fitted tau2 that is not finite (huge effects)."""
    try:
        return HeterogeneityEstimate(tau2, method)
    except ValueError as exc:
        return NumericFailure(str(exc))


def _dl_fits(y: np.ndarray, v: np.ndarray) -> list:
    """The DerSimonian-Laird estimate of each row of the (rows, n >= 2)
    effects y and variances v, or the NumericFailure of a row whose estimate
    is not finite."""
    w = 1.0 / v
    df = y.shape[1] - 1
    tau2 = [(q - df) / spread for q, spread in zip(_cochran_q(y, w), _weight_spread(w))]
    # max(0.0, nan) is 0.0: a NaN Q (overflowing effects) must fail the estimate
    return [_estimate(t if math.isnan(t) else max(0.0, t), "DL") for t in tau2]


def _unwrap(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def dl_tau2(dataset: MetaDataset) -> HeterogeneityEstimate:
    """DerSimonian-Laird method-of-moments heterogeneity variance.

    tau2_DL = max(0, (Q - (n-1)) / (S1 - S2/S1)) with S1 = sum sigma_i^-2
    and S2 = sum sigma_i^-4. Effects so large that Q overflows raise
    NumericFailure: the estimate is not finite.
    """
    _require_n(dataset, 2)
    return _unwrap(_dl_fits(dataset.effects[None], dataset.variances[None])[0])


def pooled_mu(dataset: MetaDataset, tau2: float) -> PooledEstimate:
    """Random-effects pooled mean for a supplied heterogeneity variance.

    Weights are w_i = (sigma_i^2 + tau2)^-1; the pooled mean is the
    weighted average of effects and Var[mu_hat] = 1 / sum w_i.
    """
    _require_n(dataset, 2)
    _check_tau2(tau2)
    w, total, mu = _pooled(dataset.effects[None], dataset.variances[None], [tau2])
    return PooledEstimate(mu_hat=float(mu[0]), var_mu_hat=1.0 / float(total[0]), weights=w[0])


def _pooled(y: np.ndarray, v: np.ndarray, tau2: list[float]):
    """The random-effects weights (rows, n), their sums and the pooled
    means of each row of effects y and variances v at its tau2."""
    w = 1.0 / (v + np.array(tau2)[:, None])
    total = w.sum(axis=1)
    return w, total, (w * y).sum(axis=1) / total


def _restricted_sums(y: np.ndarray, v: np.ndarray, tau2: list[float]):
    """Per row of effects y and variances v at its tau2, the sums that the
    restricted score and expected information in tau2 are finished from:
    sum w, sum w^2, sum w^3 and sum w^2 (y - mu)^2, as Python floats.

    The sums over studies run once for all rows; _reml_fits finishes each
    row in Python floats, whose ``** 2`` is C pow() (numpy's array ``** 2``
    is x * x, which can differ by an ulp).
    """
    w, total, mu = _pooled(y, v, tau2)
    w2 = w**2
    return zip(
        total.tolist(),
        w2.sum(axis=1).tolist(),
        (w**3).sum(axis=1).tolist(),
        (w2 * (y - mu[:, None]) ** 2).sum(axis=1).tolist(),
    )


def _reml_fits(
    y: np.ndarray, v: np.ndarray, starts: list, tol: float = 1e-10, max_iter: int = 200
) -> list:
    """The REML estimate of each row of the (rows, n >= 2) effects y and
    variances v, started from the row's DL outcome in starts.

    Each pass sums every open row at once (_restricted_sums), then one
    loop finishes each row's score and takes its step (see reml_tau2): the
    boundary exit, the bracket on the score's sign change, bisection once
    the bracket has both ends, else a scoring step, for which alone the
    expected information is finished. A row that has converged or failed
    leaves the arrays. A row's outcome is its HeterogeneityEstimate, or
    the NumericFailure of its scoring, its start or its estimate.
    """
    out = list(starts)
    rows = [i for i, start in enumerate(starts) if not isinstance(start, Exception)]
    tau2 = [starts[i].tau2 for i in rows]
    # each row's bracket: the last iterates with a positive and with a
    # non-positive score
    below: list = [None] * len(rows)
    above: list = [None] * len(rows)
    y, v = y[rows], v[rows]
    for _ in range(max_iter):
        if not rows:
            break
        keep = []
        sums = _restricted_sums(y, v, tau2)
        for j, (t, lo, hi, (sw, sw2, sw3, resid)) in enumerate(zip(tau2, below, above, sums)):
            score = 0.5 * (resid - sw + sw2 / sw)
            if t == 0.0 and score <= 0.0:
                out[rows[j]] = _estimate(0.0, "REML")  # boundary optimum
                continue
            if score > 0.0:
                lo = below[j] = t
            else:
                hi = above[j] = t
            if lo is not None and hi is not None:
                t_new = 0.5 * (lo + hi)
            else:
                info = 0.5 * (sw2 - 2.0 * sw3 / sw + (sw2 / sw) ** 2)
                if not info > 0.0:
                    out[rows[j]] = NumericFailure(
                        f"REML expected information is not positive at tau2={t!r}",
                        last_value=t,
                    )
                    continue
                t_new = max(0.0, t + score / info)
            if abs(t_new - t) <= tol:
                out[rows[j]] = _estimate(t_new, "REML")
            else:
                tau2[j] = t_new
                keep.append(j)
        if len(keep) < len(rows):
            rows, tau2, below, above = (
                [column[j] for j in keep] for column in (rows, tau2, below, above)
            )
            y, v = y[keep], v[keep]
    for i, t in zip(rows, tau2):
        out[i] = NumericFailure(
            f"REML iteration did not converge within {max_iter} steps",
            last_value=t,
        )
    return out


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
        If the iteration has not converged after ``max_iter`` steps, or if
        a scoring step meets an expected information that is not positive
        (it cancels to 0 at extreme SE ratios), carrying the last iterate
        in ``last_value``; also if huge effects make the estimate infinite.
    """
    _require_n(dataset, 2)
    y = dataset.effects[None]
    v = dataset.variances[None]
    return _unwrap(_reml_fits(y, v, _dl_fits(y, v), tol, max_iter)[0])


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
    _check_tau2(tau2)
    y = dataset.effects[None]
    w, total, mu = _pooled(y, dataset.variances[None], [tau2])
    return _robust_variances(y, w, total, mu, (kind,))[kind][0]


def _robust_variances(
    y: np.ndarray, w: np.ndarray, sw: np.ndarray, mu: np.ndarray, kinds
) -> dict:
    """Each requested robust variance (HK, SJ) of each row of effects y,
    given the row's random-effects weights w, their sum sw and the pooled
    mean mu (see _pooled).

    A row whose effects are all identical gets 0 and one
    DegenerateDispersionWarning.
    """
    degenerate = (np.ptp(y, axis=1) == 0.0).tolist()
    for _ in filter(None, degenerate):
        warnings.warn(
            "all effects are identical; robust variance is degenerate (0)",
            DegenerateDispersionWarning,
            stacklevel=3,
        )
    resid2 = (y - mu[:, None]) ** 2
    n = y.shape[1]
    out = {}
    if "HK" in kinds:
        hk = ((w * resid2).sum(axis=1) / ((n - 1) * sw)).tolist()
        out["HK"] = [0.0 if d else x for d, x in zip(degenerate, hk)]
    if "SJ" in kinds:
        # the sum of each row is squared as an np.float64 (C pow(), see
        # _restricted_sums)
        sj = (w**2 * resid2).sum(axis=1)
        out["SJ"] = [
            0.0 if d else float(a / s**2 * n / (n - 1)) for d, a, s in zip(degenerate, sj, sw)
        ]
    return out
