"""Deterministic posterior computation for the Bayesian hierarchical model.

The hierarchical model puts y_i ~ N(theta_i, sigma_i^2), theta_i ~
N(mu, tau^2), a diffuse N(0, S) prior on mu (S = 10000 by default), and one
of the tau priors from :mod:`metapred.priors`. The mean integrates out in
closed form, leaving a one-dimensional marginal posterior over tau that is
represented on adaptive quadrature panels. Prediction intervals for the
effect in a new study and credible intervals for the mean are quantiles of
the resulting discrete mixture of normals - no Monte Carlo anywhere in this
path.

Grid construction compactifies tau through w = sqrt(tau / (s0 + tau)): the
square-root map bounds every one of the supported priors' integrands at the
origin (including the tau^-1/2 singularity of the sqrt prior), and the
rational map absorbs heavy tails. The w range is cut into panels at the
tail scan's octave ladder in tau, extended down to a quarter of the
smallest within-study SE, and each panel carries a 16-point Gauss-Legendre
rule on each of its halves. A panel whose whole-panel rule disagrees with
its two half rules, in posterior mass or in tau^2-weighted mass, by more
than cdf_tolerance / 100 of the total is bisected and checked again
(adaptive panels as in QUADPACK), so nodes go where the posterior has
features - a few hundred on typical data - up to a 16384-node cap. A
grid's normaliser Z is the refinement's running total of its accepted
panels' mass: the sum that decides every bisection also scales quad_error
and gives log_norm.

Interval endpoints invert the mixture CDF by safeguarded Newton steps. The
components' own quantiles bracket each mixture quantile (the weights sum
to 1), so the bracket costs no CDF evaluation; the mixture density is
closed-form, so each step costs one pass over the components, and a step
that leaves the bracket or fails to shrink falls back to bisection. About
four steps reach the tolerance where plain bisection takes about forty.

One dataset is one batch. The marginal likelihood does not depend on the
prior, and every prior of a dataset shares s0 and so the scan's ladder;
each prior's panel breaks are a prefix of those of the prior with the
largest tau_max (proper1 adds its own last panel). _posterior_grids
therefore evaluates the likelihood once on the ladder, scans all priors as
one (priors, ladder) array and cuts every prior's breaks from one extended
ladder. _refine_panels keeps the open panels of all priors as the rows of
one set of arrays, tagged with their prior, evaluates the likelihood once
per pass on the distinct panels, adding each prior's kernel to its own
rows, and returns the finished grids. _mixture_intervals inverts every
(mixture, endpoint) row in one masked Newton loop. Reductions run within a
row (row sums, np.add.reduceat over flat segments) or over one prior's
rows in order (np.add.at into zeroed per-prior sums), never across priors,
so a prior's grid and endpoints equal its batch-of-one result - the public
single-prior functions - bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, roots_legendre

from .core import MetaDataset
from .errors import DivergedPosteriorError, NumericFailure
from .intervals import IntervalEstimate
from .priors import BoundPrior, log_prior_kernel

__all__ = [
    "EngineConfig",
    "PosteriorGrid",
    "marginal_loglik",
    "build_posterior_grid",
    "predictive_cdf",
    "prediction_interval",
    "credible_interval_mu",
    "posterior_tau_moments",
]

_TAU_MAX_CAP_FACTOR = 1e6  # expansion cap: tau_max = 1e6 * s0
_TAIL_MASS_CUT = 1e-10  # relative density and tail-mass cut of the tau scan
_MAX_INVERSION_STEPS = 200  # bisection alone needs < 130 at cdf_tolerance 1e-8
_PANEL_ORDER = 16  # Gauss-Legendre points per half panel
_GL_NODES, _GL_WEIGHTS = roots_legendre(_PANEL_ORDER)
_MAX_GRID_NODES = 16384  # refinement stops before the grid would exceed this
_QUAD_TOLERANCE_SHARE = 1e-2  # panel error tolerance as a share of cdf_tolerance
# past this |log Z|, log_post - log_norm rounds by more than 1e-6 nats
_MAX_ABS_LOG_NORM = 1e-6 / np.finfo(float).eps
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


def _check_cdf_tolerance(cdf_tolerance):
    if not (0.0 < cdf_tolerance < 1e-2):
        raise ValueError(f"cdf_tolerance must lie in (0, 1e-2), got {cdf_tolerance!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for posterior-grid construction and quantile inversion.

    mu_prior_var is the variance S of the N(0, S) prior on the mean.
    cdf_tolerance bounds the endpoint error relative to the mixture's own
    spread: every interval endpoint is within cdf_tolerance x the mixture
    SD of the exact quantile of the discretised posterior mixture. It also
    sets the quadrature accuracy: the grid refines each panel until its
    local error estimate is within cdf_tolerance / 100 of the posterior
    mass and of the tau^2-weighted mass.
    """

    mu_prior_var: float = 10_000.0
    cdf_tolerance: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.mu_prior_var) and self.mu_prior_var > 0):
            raise ValueError("mu_prior_var must be positive and finite")
        _check_cdf_tolerance(self.cdf_tolerance)


@dataclass(frozen=True)
class PosteriorGrid:
    """Quadrature view of the marginal posterior of tau.

    nodes        increasing tau values (> 0); len(nodes) is the node count
    quad_weights positive quadrature weights in tau space
    log_post     log(prior density x integrated likelihood) at the nodes, up
                 to an additive constant (the conventional prior's
                 normalizer is left out)
    cond_mean    posterior mean of mu given tau, per node
    cond_var     posterior variance of mu given tau, per node
    log_norm     log of the normalizing sum Z of the weighted exp(log_post),
                 as the refinement totalled it panel by panel; a grid is only
                 returned when eps x |log_norm| <= 1e-6, so that
                 log_post - log_norm resolves the weights
    prior_name   tag of the prior that produced the grid
    tau_max      upper end of the tau range: the tail scan's truncation
                 point, or the support end of a proper-uniform prior
    quad_error   summed local error estimates of the accepted panels,
                 relative to Z (the larger of the ratios for the mass and
                 for the tau^2-weighted mass); each panel's own estimate is
                 within cdf_tolerance / 100 of Z unless the node cap
                 stopped refinement
    """

    nodes: np.ndarray
    quad_weights: np.ndarray
    log_post: np.ndarray
    cond_mean: np.ndarray
    cond_var: np.ndarray
    log_norm: float
    prior_name: str
    tau_max: float
    quad_error: float

    def posterior_weights(self) -> np.ndarray:
        """Normalized node masses; they sum to 1 up to rounding."""
        return self.quad_weights * np.exp(self.log_post - self.log_norm)


def _weighted_mean(y, sigma_sq):
    inv_s = 1.0 / sigma_sq
    return float(inv_s @ y) / float(inv_s.sum())


def _loglik_terms(y, sigma_sq, tau, mu_prior_var):
    """Closed-form marginal log likelihood pieces for an array of tau.

    The quadratic form sum(y^2/v) - (sum(y/v))^2/prec is computed about the
    1/sigma^2-weighted mean c, as sum(d^2/v) - D^2/prec + (2cD + c^2 A)/(S
    prec) with d = y - c, D = sum(d/v), A = sum(1/v): the raw form cancels
    catastrophically when |y| is large against the spread of the effects.
    """
    c = _weighted_mean(y, sigma_sq)
    t2 = np.asarray(tau, dtype=float) ** 2
    # studies along axis 0, tau along the rest: with two or more nodes each
    # sum over studies runs as elementwise adds, study after study, so a
    # node's value does not depend on the other nodes of the call (a BLAS
    # product may round a row differently depending on how many rows share
    # it), and a prior's grid does not depend on which other priors share
    # its likelihood evaluation
    column = (-1,) + (1,) * t2.ndim
    d = (y - c).reshape(column)
    v = sigma_sq.reshape(column) + t2
    inv_v = 1.0 / v
    a = inv_v.sum(axis=0)
    prec = a + 1.0 / mu_prior_var
    cond_var = 1.0 / prec
    dev = (inv_v * d).sum(axis=0)
    cond_mean = c + (dev - c / mu_prior_var) * cond_var
    quad_form = (
        (inv_v * (d * d)).sum(axis=0)
        - dev**2 * cond_var
        + (2.0 * c * dev + c * c * a) * cond_var / mu_prior_var
    )
    loglik = (
        -0.5 * (np.log(v).sum(axis=0) + len(y) * _LOG_2PI)
        - 0.5 * np.log(mu_prior_var * prec)
        - 0.5 * quad_form
    )
    return loglik, cond_mean, cond_var


def marginal_loglik(
    dataset: MetaDataset, tau, mu_prior_var: float = EngineConfig.mu_prior_var
) -> float | np.ndarray:
    """Log of the likelihood with the mean integrated out against N(0, S).

    Equals log integral prod_i N(y_i; mu, sigma_i^2 + tau^2) N(mu; 0, S) dmu,
    evaluated in closed form. Accepts a scalar or array tau >= 0.
    """
    arr = np.asarray(tau, dtype=float)
    if np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise ValueError("tau must be finite and >= 0")
    if not (mu_prior_var > 0):
        raise ValueError("mu_prior_var must be positive")
    loglik, _, _ = _loglik_terms(
        dataset.effects, dataset.variances, np.atleast_1d(arr), mu_prior_var
    )
    if arr.ndim == 0:
        return float(loglik[0])
    return loglik


def _tau_ladder(y, s0):
    """The tail scan's probes: start * 2^k from max(s0, sd(y)), the last
    point clipped to the cap 1e6 x s0. They double as panel breakpoints."""
    cap = _TAU_MAX_CAP_FACTOR * s0
    spread = float(np.std(y, ddof=1)) if len(y) > 1 else 0.0
    start = min(max(s0, spread, 1e-8), cap / 1024.0)
    n_steps = int(math.ceil(math.log2(cap / start))) + 1
    ladder = start * 2.0 ** np.arange(n_steps)
    ladder[-1] = cap
    return ladder


def _scan_tau_max(log_h, ladder):
    """Geometric upward scan for the tau truncation point, one row per prior.

    log_h[p, j] is prior p's log posterior density at ladder[j] (from
    _tau_ladder: max(s0, sd(y)) doubling up to the cap 1e6 x s0). In each
    row the first probe where (a) the density is below _TAIL_MASS_CUT x the
    running peak and (b) the remaining tail mass, estimated from the local
    decay power, is below _TAIL_MASS_CUT of the accumulated mass is tau_max.
    Test (a) compares log_h - running peak with log(_TAIL_MASS_CUT): adding
    the cut to a peak beyond ~1e17 in magnitude would round it away.
    Starting at the data scale keeps an unbounded prior density at tau -> 0
    (the sqrt prior) out of the peak, which would otherwise stall the scan.
    When (a) holds but the tail is too heavy to ever meet (b) inside the cap
    (e.g. n = 2 with a flat prior), the cap is used. A row whose tail never
    decays gets NaN. Every operation runs along the ladder axis, so a row's
    result does not depend on the other rows.
    """
    cap = ladder[-1]
    log_cut = math.log(_TAIL_MASS_CUT)

    running_peak = np.maximum.accumulate(log_h, axis=1)
    decayed = log_h - running_peak <= log_cut

    # local decay power between ladder points (tail ~ tau^-power)
    power = np.zeros(log_h.shape)
    power[:, 1:] = -(log_h[:, 1:] - log_h[:, :-1]) / np.diff(np.log(ladder))

    # crude running mass: ladder trapezoids plus a floor for mass below the
    # start; underestimating the total only makes the tail check stricter
    gaps = np.diff(ladder, append=2.0 * ladder[-1] - ladder[-2])
    log_mass = np.logaddexp(
        np.logaddexp.accumulate(log_h + np.log(gaps), axis=1),
        (log_h[:, 0] + math.log(ladder[0]))[:, None],
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tail = np.where(
            power > 1.05,
            log_h + np.log(ladder) - np.log(np.maximum(power - 1.0, 1e-12)),
            np.inf,
        )
    ok = decayed & (log_tail <= log_mass + log_cut)
    # proper posteriors with very heavy tails (n = 2 with a flat prior) may
    # not reach the full density cut inside the cap; the cap is accepted as
    # long as the tail is clearly decaying at an integrable rate
    heavy = (log_h[:, -1] - running_peak[:, -1] <= 0.5 * log_cut) & (power[:, -1] > 1.05)
    return np.where(
        ok.any(axis=1),
        ladder[ok.argmax(axis=1)],
        np.where(decayed.any(axis=1) | heavy, cap, np.nan),
    )


def _scan_failure(prior_name, y, sigma_sq, mu_prior_var):
    """The error for a tail that never decays; it blames the N(0, S) mean
    prior when the 1/sigma^2-weighted mean lies more than one prior SD from 0."""
    prior_sds = abs(_weighted_mean(y, sigma_sq)) / math.sqrt(mu_prior_var)
    if prior_sds > 1.0:
        return DivergedPosteriorError(
            prior_name,
            f"posterior for prior '{prior_name}' does not decay: the weighted mean "
            f"of the effects lies {prior_sds:.3g} SDs from 0 under the N(0, "
            f"{mu_prior_var:g}) mean prior; try a larger EngineConfig.mu_prior_var",
        )
    return DivergedPosteriorError(prior_name)


def _panel_breaks(ladder, sigma_sq, tau_maxes):
    """Panel ends in tau for each of tau_maxes: 0, the tail-scan ladder
    below tau_max extended down by halving to 0.25 x the smallest
    within-study SE, and tau_max."""
    floor = 0.25 * math.sqrt(float(sigma_sq.min()))
    n_down = max(int(math.ceil(math.log2(ladder[0] / floor))), 0)
    inner = np.concatenate([ladder[0] * 2.0 ** -np.arange(n_down, 0, -1), ladder])
    return [np.concatenate([[0.0], inner[inner < t], [t]]) for t in tau_maxes]


def _panel_nodes(c, lo, hi):
    """Gauss-Legendre nodes on the w-panels [lo, hi], panel after panel:
    tau and the quadrature weight in tau."""
    half = 0.5 * (hi - lo)[:, None]
    w = (0.5 * (hi + lo))[:, None] + half * _GL_NODES
    one_minus = 1.0 - w**2
    tau = c * w**2 / one_minus
    quad_weights = half * _GL_WEIGHTS * (2.0 * c * w / one_minus**2)
    return tau, quad_weights


def _refine_panels(y, sigma_sq, c, mu_prior_var, priors, breaks, tol):
    """Every prior's posterior grid: its w-panels, cut at its tau breaks
    (from _panel_breaks), bisected until each passes its error test.

    The open panels of all priors are the rows of one set of arrays; owner
    gives each row's prior. A pass evaluates the likelihood once on the
    distinct panels' _PANEL_ORDER-point half rules (the first pass also on
    the whole-panel rules) and adds each prior's kernel to its own rows. A
    panel's error estimate is the difference between its whole-panel rule
    and the sum of its two half rules, for the mass and for the
    tau^2-weighted mass. A panel whose estimate exceeds tol x its prior's
    running total of either is bisected, and its halves inherit their
    whole-panel sums from its half rules; an accepted panel keeps its
    half-panel nodes. When refining would take a prior's grid past
    _MAX_GRID_NODES, every open panel of that prior is accepted as it
    stands. Sums over a prior's panels add its rows in order into zeroed
    per-prior arrays, and every other step is elementwise, within a row or
    a maximum, so a prior's result does not depend on the other priors.

    Returns one PosteriorGrid per prior: the accepted nodes sorted by tau,
    log_norm from the running mass total, and quad_error, the summed
    estimates of the accepted panels relative to the totals (the larger of
    the two ratios). A prior whose first pass has no finite mass, whose
    log_norm is not finite, or whose |log_norm| exceeds _MAX_ABS_LOG_NORM
    (log_post - log_norm then rounds by more than 1e-6, so the weights
    cannot be resolved) gets a DivergedPosteriorError instead.
    """
    m, n = _PANEL_ORDER, len(priors)
    if not n:
        return []

    def per_prior(rows, values):
        sums = np.zeros((n, 2))
        np.add.at(sums, rows, values)
        return sums

    w_breaks = [np.sqrt(b / (c + b)) for b in breaks]
    owner = np.repeat(np.arange(n), [len(b) - 1 for b in w_breaks])
    lo = np.concatenate([b[:-1] for b in w_breaks])
    hi = np.concatenate([b[1:] for b in w_breaks])
    whole = None
    ref = np.full(n, -np.inf)  # prior p's panel sums are (mass, tau^2 mass) x exp(-ref[p])
    total, error = np.zeros((n, 2)), np.zeros((n, 2))
    n_nodes = np.zeros(n, dtype=np.intp)
    accepted = []
    while len(lo):
        k = len(lo)
        mid = 0.5 * (lo + hi)
        half_lo, half_hi = np.stack([lo, mid], 1), np.stack([mid, hi], 1)
        a, b, rows = half_lo.ravel(), half_hi.ravel(), owner.repeat(2)
        if whole is None:
            a, b, rows = (np.concatenate(pair) for pair in ((lo, a), (hi, b), (owner, rows)))
        panels, which = np.unique(a + 1j * b, return_inverse=True)
        tau, quad_weights = _panel_nodes(c, panels.real, panels.imag)
        terms = _loglik_terms(y, sigma_sq, tau.ravel(), mu_prior_var)
        # tau, quad weight, log posterior, conditional mean and variance: a row per panel
        nodes = [arr.reshape(-1, m)[which] for arr in (tau, quad_weights) + terms]
        for p in np.unique(rows):
            mine = rows == p
            nodes[2][mine] += log_prior_kernel(priors[p], nodes[0][mine].ravel()).reshape(-1, m)
        log_mass = nodes[2] + np.log(nodes[1])
        top = np.full(n, -np.inf)
        np.maximum.at(top, rows, log_mass.max(axis=1))
        if whole is None:
            failed = ~np.isfinite(top)
            top[failed] = 0.0  # keeps the unused sums of a failed prior finite
            log_mass[failed[rows]] = 0.0
        grow = top > ref
        scale = np.ones(n)
        # math.exp, not np.exp, which can round the last bit differently
        scale[grow] = [math.exp(d) for d in (ref - top)[grow].tolist()]
        total, error = total * scale[:, None], error * scale[:, None]
        ref = np.where(grow, top, ref)
        f = np.exp(log_mass - ref[rows, None])
        sums = np.stack([f.sum(axis=1), (f * nodes[0] ** 2).sum(axis=1)], 1)
        if whole is None:
            whole, sums, rows = sums[:k], sums[k:], rows[k:]
            nodes = [arr[k:] for arr in nodes]
        else:
            whole = whole * scale[owner, None]
        pairs = sums.reshape(k, 2, 2)  # (panel, half, mass | tau^2 mass)
        halves = pairs[:, 0] + pairs[:, 1]
        est = np.abs(whole - halves)
        refine = np.any(est > tol * (total + per_prior(owner, halves))[owner], axis=1)
        grown = n_nodes + 2 * m * np.bincount(owner, 1 + refine, n)  # kept and new halves
        refine &= ~failed[owner] & (grown <= _MAX_GRID_NODES)[owner]
        done = ~refine
        keep = done.repeat(2)
        accepted.append([rows[keep]] + [arr[keep] for arr in nodes])
        total += per_prior(owner[done], halves[done])
        error += per_prior(owner[done], est[done])
        n_nodes += 2 * m * np.bincount(owner[done], minlength=n)
        lo, hi = half_lo[refine].ravel(), half_hi[refine].ravel()
        whole = pairs[refine].reshape(-1, 2)
        owner = owner[refine].repeat(2)
    rows, *nodes = (np.concatenate(parts) for parts in zip(*accepted))
    order = np.lexsort((nodes[0][:, 0], rows))  # panels are disjoint: sorts every tau
    nodes = [arr[order].ravel() for arr in nodes]
    bounds = [0] + (m * np.cumsum(np.bincount(rows, minlength=n))).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        log_norm = (ref + np.log(total[:, 0])).tolist()
        quad_error = (error / total).max(axis=1).tolist()
    out = []
    for p, (start, end) in enumerate(zip(bounds, bounds[1:])):
        name = priors[p].name
        if failed[p] or not math.isfinite(log_norm[p]):
            message = f"posterior normalization for prior '{name}' is not finite"
            out.append(DivergedPosteriorError(name, message))
            continue
        if abs(log_norm[p]) > _MAX_ABS_LOG_NORM:
            message = (
                f"posterior for prior '{name}' has log Z = {log_norm[p]:.4g}, too large "
                "in magnitude to resolve its weights"
            )
            out.append(DivergedPosteriorError(name, message))
            continue
        arrays = (arr[start:end] for arr in nodes)
        tau_max = float(breaks[p][-1])
        out.append(PosteriorGrid(*arrays, log_norm[p], name, tau_max, quad_error[p]))
    return out


def _posterior_grids(
    dataset: MetaDataset, priors, config: EngineConfig | None = None
) -> list:
    """Posterior grids of several priors on one dataset, in one pass.

    The batch behind build_posterior_grid (one prior) and evaluate_methods
    (every prior its tags need). All priors share s0 and so the tail-scan
    ladder: the likelihood is evaluated once on the ladder, the scans run as
    one (priors, ladder) array, the panel breaks of all priors are cut from
    one extended ladder, and _refine_panels refines the panels of all
    priors together, one likelihood evaluation per pass on their distinct
    panels, and returns the finished grids. A prior's result equals its
    batch-of-one result bit for bit. Returns one PosteriorGrid or
    DivergedPosteriorError per prior; an empty list of priors gives an
    empty list.

    Raises ValueError if n < 2, or if a prior was bound to other
    within-study variances or another s0.
    """
    if config is None:
        config = EngineConfig()
    if dataset.n < 2:
        raise ValueError(f"posterior grid needs n >= 2, dataset has {dataset.n}")
    if not priors:
        return []
    y = dataset.effects
    sigma_sq = dataset.variances
    for prior in priors:
        if not np.array_equal(prior.sigma_sq, sigma_sq):
            raise ValueError(f"prior '{prior.name}' was bound to other within-study variances")
        if prior.s0_sq != priors[0].s0_sq:
            raise ValueError("the priors of one batch must share s0")
    c = math.sqrt(priors[0].s0_sq)
    mu_var = config.mu_prior_var

    ladder = _tau_ladder(y, c)
    uniform = [p.family.kind == "proper-uniform" for p in priors]
    tau_max = np.array([p.family.hi if u else math.nan for p, u in zip(priors, uniform)])
    scanned = [i for i, u in enumerate(uniform) if not u]
    if scanned:
        ladder_loglik = _loglik_terms(y, sigma_sq, ladder, mu_var)[0]
        log_h = np.stack([log_prior_kernel(priors[i], ladder) + ladder_loglik for i in scanned])
        tau_max[scanned] = _scan_tau_max(log_h, ladder)

    good = np.flatnonzero(~np.isnan(tau_max))
    breaks = _panel_breaks(ladder, sigma_sq, tau_max[good])
    tol = _QUAD_TOLERANCE_SHARE * config.cdf_tolerance
    grids = iter(_refine_panels(y, sigma_sq, c, mu_var, [priors[i] for i in good], breaks, tol))
    return [
        _scan_failure(prior.name, y, sigma_sq, mu_var) if math.isnan(t) else next(grids)
        for prior, t in zip(priors, tau_max.tolist())
    ]


def build_posterior_grid(
    dataset: MetaDataset, prior: BoundPrior, config: EngineConfig | None = None
) -> PosteriorGrid:
    """Quadrature representation of the posterior over tau for one prior.

    The grid spans (0, tau_max] with tau_max found by the geometric tail
    scan (for the proper-uniform family the support endpoint is used
    directly). Composite Gauss-Legendre panels in w = sqrt(tau / (s0 + tau))
    are bisected until each one's local error estimate, in posterior mass
    and in tau^2-weighted mass, is within config.cdf_tolerance / 100 of the
    total, or until the grid would exceed 16384 nodes (quad_error then
    records the shortfall). Nodes never touch tau = 0, so integrable
    endpoint singularities are fine.

    Raises
    ------
    ValueError
        If n < 2, or if the prior was bound to other within-study variances.
    DivergedPosteriorError
        If the posterior tail has not decayed by tau = 1e6 * s0, which
        signals an improper posterior for this prior/dataset combination,
        or, on effects far from 0, a mean prior too narrow for the data;
        also if the normalizer Z is not finite, or |log Z| is too large for
        the weights to be resolved in double precision.
    """
    (grid,) = _posterior_grids(dataset, [prior], config)
    if isinstance(grid, Exception):
        raise grid
    return grid


def _mixtures(requests):
    """Flat (means, sds, weights, lengths) of several posterior mixtures.

    requests holds (grid, predictive) pairs: the theta_new mixture of the
    grid when predictive, else the mu mixture. Mixture r occupies the next
    lengths[r] entries of the flat arrays. Components under 1e-17 of their
    mixture's peak weight (together less than 1e-13 of the mass) are
    dropped and the rest renormalised to sum to 1. Segment reductions use
    np.add.reduceat, which gives a segment the same bits wherever it lies in
    the flat arrays, so a mixture does not depend on the others.
    """
    grids = [grid for grid, _ in requests]
    counts = [len(grid.nodes) for grid in grids]
    log_norm = np.repeat([grid.log_norm for grid in grids], counts)
    pi = np.concatenate([grid.quad_weights for grid in grids]) * np.exp(
        np.concatenate([grid.log_post for grid in grids]) - log_norm
    )
    starts = np.cumsum(counts) - counts
    keep = pi > np.repeat(np.maximum.reduceat(pi, starts), counts) * 1e-17
    var = np.concatenate(
        [grid.cond_var + grid.nodes**2 if pred else grid.cond_var for grid, pred in requests]
    )
    means = np.concatenate([grid.cond_mean for grid in grids])[keep]
    lengths = np.add.reduceat(keep, starts, dtype=np.intp)
    w = pi[keep]
    weights = w / np.repeat(np.add.reduceat(w, np.cumsum(lengths) - lengths), lengths)
    return means, np.sqrt(var[keep]), weights, lengths


def _mean_sd(m, s, w, lengths):
    """Mean and SD of each mixture sum_k w_k N(m_k, s_k^2) of a flat layout
    (weights summing to 1 per mixture).

    The central second moment is summed: E[x^2] - E[x]^2 cancels when |mean| >> sd.
    """
    starts = np.cumsum(lengths) - lengths
    mean = np.add.reduceat(w * m, starts)
    var = np.add.reduceat(w * (s * s + (m - np.repeat(mean, lengths)) ** 2), starts)
    return mean, np.sqrt(np.maximum(var, 1e-300))


def predictive_cdf(grid: PosteriorGrid, x: float) -> float:
    """CDF of the new-study effect under the discretized posterior mixture."""
    m, s, w, _ = _mixtures([(grid, True)])
    return float(np.sum(w * ndtr((x - m) / s)))


def _invert_mixture_cdfs(means, sds, weights, lengths, probs, tol_widths):
    """Solve F_r(x) = sum_k w_k Phi((x - m_k)/s_k) = probs[r] for every
    mixture r of a flat layout by safeguarded Newton, all rows at once.

    The weights must sum to 1 per mixture: then, with q = ndtri(prob), every
    Phi term is <= prob at lo = min_k(m_k + s_k q) and >= prob at hi =
    max_k(m_k + s_k q), so the components' own quantiles bracket the root
    without evaluating F. Newton steps (prob - F)/f, with the closed-form
    density f = sum_k (w_k/s_k) phi((x - m_k)/s_k), start from the normal
    quantile of the mixture's own mean and SD; every evaluation shrinks the
    bracket by the sign of F - prob, and a step that would leave the
    bracket or not halve the previous step is replaced by the bracket
    midpoint (as in rtsafe). A row's root is returned once a Newton step is
    within tol_width / 2 (whether or not it stays strictly inside the
    bracket) or the bracket is within tol_width - the error bound of plain
    bisection - or once the bracket cannot be split in floating point.

    Each row keeps its own bracket, step and stopping test, and each pass
    evaluates the rows still open in one array over their components; a
    finished row's components leave the arrays. Returns one root per row,
    or a NumericFailure for a probability outside (0, 1) or a row that has
    not converged after _MAX_INVERSION_STEPS steps.
    """
    all_probs = probs
    keep = (probs > 0.0) & (probs < 1.0)  # rows still open, among the last pass's
    rows = np.flatnonzero(keep)
    q = ndtri(np.where(keep, probs, 0.5))
    starts = np.cumsum(lengths) - lengths
    component_quantiles = means + sds * np.repeat(q, lengths)
    lo = np.minimum.reduceat(component_quantiles, starts)
    hi = np.maximum.reduceat(component_quantiles, starts)
    center, sd = _mean_sd(means, sds, weights, lengths)
    x = np.minimum(np.maximum(center + sd * q, lo), hi)
    step = hi - lo
    w_over_s = weights / sds
    roots = np.full(len(lengths), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_INVERSION_STEPS):
            if not keep.all():  # drop finished rows and their components
                comp = np.repeat(keep, lengths)
                means, sds, weights, w_over_s = (a[comp] for a in (means, sds, weights, w_over_s))
                x, lo, hi, step, probs, tol_widths, lengths = (
                    a[keep] for a in (x, lo, hi, step, probs, tol_widths, lengths)
                )
                starts = np.cumsum(lengths) - lengths
            if not len(rows):
                break
            z = (np.repeat(x, lengths) - means) / sds
            resid = np.add.reduceat(weights * ndtr(z), starts) - probs
            lo = np.where(resid < 0.0, x, lo)
            hi = np.where(resid > 0.0, x, hi)
            dens = np.add.reduceat(w_over_s * np.exp(-0.5 * z * z), starts) * _INV_SQRT_2PI
            step_before, step = step, np.where(dens > 0.0, -resid / dens, np.inf)
            mid = 0.5 * (lo + hi)
            newton = x + step
            size = np.abs(step)
            bisect = (newton <= lo) | (newton >= hi) | (size > 0.5 * np.abs(step_before))
            # the stopping tests, first to last: an exact root, a bracket
            # within tolerance, a converged Newton step (tested before the
            # bracket: a step under half an ulp of x rounds x + step onto
            # the bracket end x), a bracket that cannot be split
            exact = resid == 0.0
            narrow = hi - lo <= tol_widths
            converged = size <= 0.5 * tol_widths
            done = exact | narrow | converged | (bisect & ((mid == lo) | (mid == hi)))
            if done.any():
                root = np.where(exact, x, np.where(narrow | ~converged, mid, newton))
                roots[rows[done]] = root[done]
            step = np.where(bisect, mid - x, step)
            x = x + step
            keep = ~done
            rows = rows[keep]
    return [
        float(root)
        if not math.isnan(root)
        else NumericFailure(
            f"mixture quantile did not converge for prob={prob}"
            if 0.0 < prob < 1.0
            else f"the mixture has no finite quantile for prob={prob}"
        )
        for root, prob in zip(roots, all_probs.tolist())
    ]


def _mixture_intervals(requests, level, cdf_tolerance):
    """Equal-tail intervals of the mixtures of requests ((grid, predictive)
    pairs, as in _mixtures), every endpoint in one _invert_mixture_cdfs
    batch. A request's interval does not depend on the other requests.

    Returns one IntervalEstimate or NumericFailure per request (the lower
    endpoint's failure first); a level outside (0, 1) or a cdf_tolerance
    outside (0, 1e-2) raises ValueError.
    """
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    _check_cdf_tolerance(cdf_tolerance)
    alpha = 1.0 - level
    probs = np.tile([alpha / 2.0, 1.0 - alpha / 2.0], len(requests))
    m, s, w, lengths = _mixtures([request for request in requests for _ in range(2)])
    tol_widths = cdf_tolerance * _mean_sd(m, s, w, lengths)[1]
    roots = _invert_mixture_cdfs(m, s, w, lengths, probs, tol_widths)
    out = []
    for (grid, predictive), lower, upper in zip(requests, roots[::2], roots[1::2]):
        failure = next((r for r in (lower, upper) if isinstance(r, NumericFailure)), None)
        if failure is not None:
            out.append(failure)
            continue
        kind = "prediction" if predictive else "credible"
        out.append(
            IntervalEstimate(
                lower=lower, upper=upper, level=level, method=grid.prior_name, kind=kind
            )
        )
    return out


def _one_interval(grid, level, predictive, cdf_tolerance):
    (interval,) = _mixture_intervals([(grid, predictive)], level, cdf_tolerance)
    if isinstance(interval, NumericFailure):
        raise interval
    return interval


def prediction_interval(
    grid: PosteriorGrid, level: float = 0.95, cdf_tolerance: float = 1e-8
) -> IntervalEstimate:
    """Equal-tail posterior interval for the effect in a new study.

    cdf_tolerance is the relative endpoint error of EngineConfig and must
    lie in (0, 1e-2); anything else raises ValueError.
    """
    return _one_interval(grid, level, True, cdf_tolerance)


def credible_interval_mu(
    grid: PosteriorGrid, level: float = 0.95, cdf_tolerance: float = 1e-8
) -> IntervalEstimate:
    """Equal-tail credible interval for the grand mean (cdf_tolerance as above)."""
    return _one_interval(grid, level, False, cdf_tolerance)


def posterior_tau_moments(grid: PosteriorGrid) -> tuple[float, float, float]:
    """(E[tau^2 | y], Var(mu | y), Var(theta_new | y)) at grid resolution.

    Both variances are central moments of the mixtures that the intervals
    invert, so the identity Var(theta_new) = Var(mu) + E[tau^2] holds up to
    rounding and the < 1e-13 of mass the mixture reader drops.
    """
    m, s, w, lengths = _mixtures([(grid, False), (grid, True)])
    sd_mu, sd_new = _mean_sd(m, s, w, lengths)[1].tolist()
    mean_tau2 = float(np.sum(grid.posterior_weights() * grid.nodes**2))
    return mean_tau2, sd_mu**2, sd_new**2
