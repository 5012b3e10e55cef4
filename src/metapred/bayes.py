"""Deterministic posterior computation for the Bayesian hierarchical model.

The hierarchical model puts y_i ~ N(theta_i, sigma_i^2), theta_i ~
N(mu, tau^2), a diffuse N(0, S) prior on mu (S = 10000 by default), and one
of the tau priors from :mod:`metapred.priors`. The mean integrates out in
closed form, leaving a one-dimensional marginal posterior over tau that is
represented on a fixed quadrature grid. Prediction intervals for the effect
in a new study and credible intervals for the mean are quantiles of the
resulting discrete mixture of normals - no Monte Carlo anywhere in this
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
features - a few hundred on typical data - up to a 16384-node cap.

Interval endpoints invert the mixture CDF by safeguarded Newton steps. The
components' own quantiles bracket each mixture quantile (the weights sum
to 1), so the bracket costs no CDF evaluation; the mixture density is
closed-form, so each step costs one pass over the components, and a step
that leaves the bracket or fails to shrink falls back to bisection. About
four steps reach the tolerance where plain bisection takes about forty.
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
    log_norm     log of the normalizing sum Z of the weighted exp(log_post)
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
        """Normalized node masses; they sum to 1 by construction."""
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
    d = y - c
    t2 = np.asarray(tau, dtype=float)[..., None] ** 2
    v = sigma_sq[None, :] + t2
    inv_v = 1.0 / v
    a = np.sum(inv_v, axis=-1)
    prec = a + 1.0 / mu_prior_var
    cond_var = 1.0 / prec
    dev = inv_v @ d
    cond_mean = c + (dev - c / mu_prior_var) * cond_var
    quad_form = (
        inv_v @ (d * d)
        - dev**2 * cond_var
        + (2.0 * c * dev + c * c * a) * cond_var / mu_prior_var
    )
    loglik = (
        -0.5 * (np.log(v).sum(axis=-1) + len(y) * _LOG_2PI)
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


def _scan_tau_max(y, sigma_sq, prior, mu_prior_var, ladder):
    """Geometric upward scan for the tau truncation point.

    Probes (ladder, from _tau_ladder) start at max(s0, sd(y)) and double up
    to the cap 1e6 x s0. The first probe where (a) the posterior density is below
    _TAIL_MASS_CUT x the running peak and (b) the remaining tail mass,
    estimated from the local decay power, is below _TAIL_MASS_CUT of the
    accumulated mass is tau_max. Starting at the data scale keeps an unbounded prior density at
    tau -> 0 (the sqrt prior) out of the peak, which would otherwise stall
    the scan. When (a) holds but the tail is too heavy to ever meet (b)
    inside the cap (e.g. n = 2 with a flat prior), the cap is used; only a
    tail that never decays raises; the error blames the N(0, S) mean prior
    when the 1/sigma^2-weighted mean lies more than one prior SD from 0.
    """
    cap = ladder[-1]
    log_h = log_prior_kernel(prior, ladder) + _loglik_terms(
        y, sigma_sq, ladder, mu_prior_var
    )[0]
    log_cut = math.log(_TAIL_MASS_CUT)

    running_peak = np.maximum.accumulate(log_h)
    decayed = log_h <= running_peak + log_cut

    # local decay power between ladder points (tail ~ tau^-power)
    power = np.zeros(len(ladder))
    power[1:] = -(log_h[1:] - log_h[:-1]) / np.diff(np.log(ladder))

    hits = np.nonzero(decayed)[0]
    if len(hits) == 0:
        # proper posteriors with very heavy tails (n = 2 with a flat prior)
        # may not reach the full density cut inside the cap; accept the cap
        # as long as the tail is clearly decaying at an integrable rate
        if log_h[-1] <= running_peak[-1] + 0.5 * log_cut and power[-1] > 1.05:
            return float(cap)
        prior_sds = abs(_weighted_mean(y, sigma_sq)) / math.sqrt(mu_prior_var)
        if prior_sds > 1.0:
            raise DivergedPosteriorError(
                prior.name,
                f"posterior for prior '{prior.name}' does not decay: the weighted mean "
                f"of the effects lies {prior_sds:.3g} SDs from 0 under the N(0, "
                f"{mu_prior_var:g}) mean prior; try a larger EngineConfig.mu_prior_var",
            )
        raise DivergedPosteriorError(prior.name)

    # crude running mass: ladder trapezoids plus a floor for mass below the
    # start; underestimating the total only makes the tail check stricter
    gaps = np.diff(ladder, append=2.0 * ladder[-1] - ladder[-2])
    log_mass = np.logaddexp(
        np.maximum.accumulate(np.logaddexp.accumulate(log_h + np.log(gaps))),
        log_h[0] + math.log(ladder[0]),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tail = np.where(
            power > 1.05,
            log_h + np.log(ladder) - np.log(np.maximum(power - 1.0, 1e-12)),
            np.inf,
        )
    ok = decayed & (log_tail <= log_mass + log_cut)
    both = np.nonzero(ok)[0]
    if len(both) > 0:
        return float(ladder[both[0]])
    return float(cap)


def _panel_breaks(ladder, sigma_sq, tau_max):
    """Panel ends in tau: 0, the tail-scan ladder below tau_max extended
    down by halving to 0.25 x the smallest within-study SE, and tau_max."""
    floor = 0.25 * math.sqrt(float(sigma_sq.min()))
    n_down = max(int(math.ceil(math.log2(ladder[0] / floor))), 0)
    below = ladder[0] * 2.0 ** -np.arange(n_down, 0, -1)
    inner = np.concatenate([below, ladder])
    return np.concatenate([[0.0], inner[inner < tau_max], [tau_max]])


def _panel_nodes(y, sigma_sq, prior, c, mu_prior_var, lo, hi):
    """Gauss-Legendre nodes on the w-panels [lo, hi], panel after panel:
    tau, quadrature weight in tau, log posterior, conditional mean and
    variance of mu."""
    half = 0.5 * (hi - lo)[:, None]
    w = (0.5 * (hi + lo))[:, None] + half * _GL_NODES
    one_minus = 1.0 - w**2
    tau = (c * w**2 / one_minus).ravel()
    quad_weights = (half * _GL_WEIGHTS * (2.0 * c * w / one_minus**2)).ravel()
    loglik, cond_mean, cond_var = _loglik_terms(y, sigma_sq, tau, mu_prior_var)
    log_post = log_prior_kernel(prior, tau) + loglik
    return tau, quad_weights, log_post, cond_mean, cond_var


def _adaptive_panels(evaluate, w_breaks, tol):
    """Bisect the w-panels between w_breaks until each passes its error test.

    evaluate(lo, hi) returns (tau, quad weight, log posterior, conditional
    mean, conditional variance) of the _PANEL_ORDER-point rule on each panel
    [lo, hi], panel after panel; the halves of a panel are evaluated next to
    each other, so the nodes of one pass come out sorted. A panel's error estimate is the difference
    between its whole-panel rule and the sum of its two half rules, for the
    mass and for the tau^2-weighted mass. A panel whose estimate exceeds tol
    x the running total of either is bisected; an accepted panel keeps its
    half-panel nodes. The first pass also evaluates the whole-panel rules;
    a bisected panel's halves inherit theirs from its half rules. When
    refining would take the grid past _MAX_GRID_NODES, every open panel is
    accepted as it stands.

    Returns the accepted nodes' arrays, sorted by tau, and the summed
    estimates of the accepted panels relative to the totals (the larger of
    the two ratios); a first pass with no finite mass returns unrefined.
    """
    m = _PANEL_ORDER
    lo, hi = w_breaks[:-1], w_breaks[1:]
    whole = None
    ref = -math.inf  # panel sums are (mass, tau^2 mass) x exp(-ref)
    total = np.zeros(2)
    error = np.zeros(2)
    accepted = []
    n_nodes = 0
    while len(lo):
        k = len(lo)
        mid = 0.5 * (lo + hi)
        half_lo, half_hi = np.stack([lo, mid], 1), np.stack([mid, hi], 1)
        a, b = half_lo.ravel(), half_hi.ravel()
        if whole is None:
            a, b = np.concatenate([lo, a]), np.concatenate([hi, b])
        nodes = evaluate(a, b)
        log_mass = (nodes[2] + np.log(nodes[1])).reshape(-1, m)
        top = float(log_mass.max())
        if whole is None and not math.isfinite(top):
            return tuple(arr[k * m :] for arr in nodes), math.inf
        if top > ref:
            scale = math.exp(ref - top)
            total, error = total * scale, error * scale
            if whole is not None:
                whole = whole * scale
            ref = top
        f = np.exp(log_mass - ref)
        sums = np.stack([f.sum(axis=1), (f * nodes[0].reshape(-1, m) ** 2).sum(axis=1)], 1)
        if whole is None:
            whole, sums = sums[:k], sums[k:]
            nodes = tuple(arr[k * m :] for arr in nodes)
        pairs = sums.reshape(k, 2, 2)  # (panel, half, mass | tau^2 mass)
        halves = pairs[:, 0] + pairs[:, 1]
        est = np.abs(whole - halves)
        refine = np.any(est > tol * (total + halves.sum(axis=0)), axis=1)
        if n_nodes + 2 * m * (k + int(refine.sum())) > _MAX_GRID_NODES:
            refine[:] = False
        done = ~refine
        if refine.any():
            keep = done.repeat(2 * m)
            nodes = tuple(arr[keep] for arr in nodes)
        accepted.append(nodes)
        total += halves[done].sum(axis=0)
        error += est[done].sum(axis=0)
        n_nodes += 2 * m * int(done.sum())
        lo, hi = half_lo[refine].ravel(), half_hi[refine].ravel()
        whole = pairs[refine].reshape(-1, 2)
    merged = [np.concatenate(parts) for parts in zip(*accepted)]
    if len(accepted) > 1:
        order = np.argsort(merged[0])
        merged = [arr[order] for arr in merged]
    return tuple(merged), float(np.max(error / total))


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
        or, on effects far from 0, a mean prior too narrow for the data.
    """
    if config is None:
        config = EngineConfig()
    if dataset.n < 2:
        raise ValueError(f"posterior grid needs n >= 2, dataset has {dataset.n}")
    y = dataset.effects
    sigma_sq = dataset.variances
    if not np.array_equal(prior.sigma_sq, sigma_sq):
        raise ValueError(f"prior '{prior.name}' was bound to other within-study variances")
    c = math.sqrt(prior.s0_sq)
    mu_var = config.mu_prior_var

    ladder = _tau_ladder(y, c)
    if prior.family.kind == "proper-uniform":
        tau_max = float(prior.family.hi)
    else:
        tau_max = _scan_tau_max(y, sigma_sq, prior, mu_var, ladder)
    breaks = _panel_breaks(ladder, sigma_sq, tau_max)
    w_breaks = np.sqrt(breaks / (c + breaks))
    (tau, quad_weights, log_post, cond_mean, cond_var), quad_error = _adaptive_panels(
        lambda lo, hi: _panel_nodes(y, sigma_sq, prior, c, mu_var, lo, hi),
        w_breaks,
        _QUAD_TOLERANCE_SHARE * config.cdf_tolerance,
    )
    log_mass = log_post + np.log(quad_weights)
    log_norm = float(log_mass.max())
    if math.isfinite(log_norm):
        log_norm += math.log(float(np.exp(log_mass - log_norm).sum()))
    if not math.isfinite(log_norm):
        raise DivergedPosteriorError(
            prior.name, f"posterior normalization for prior '{prior.name}' is not finite"
        )

    return PosteriorGrid(
        nodes=tau,
        quad_weights=quad_weights,
        log_post=log_post,
        cond_mean=cond_mean,
        cond_var=cond_var,
        log_norm=log_norm,
        prior_name=prior.name,
        tau_max=tau_max,
        quad_error=quad_error,
    )


def _mixture(grid: PosteriorGrid, predictive: bool):
    """(means, sds, weights) of the posterior mixture for theta_new or for mu.

    Components under 1e-17 of the peak weight (together less than 1e-13 of
    the mass) are dropped and the rest renormalised to sum to 1.
    """
    pi = grid.posterior_weights()
    keep = pi > pi.max() * 1e-17
    var = grid.cond_var + grid.nodes**2 if predictive else grid.cond_var
    w = pi[keep]
    return grid.cond_mean[keep], np.sqrt(var[keep]), w / w.sum()


def _mean_sd(m, s, w):
    """Mean and SD of sum_k w_k N(m_k, s_k^2) for weights summing to 1.

    The central second moment is summed: E[x^2] - E[x]^2 cancels when |mean| >> sd.
    """
    mean = float(np.sum(w * m))
    return mean, math.sqrt(max(float(np.sum(w * (s * s + (m - mean) ** 2))), 1e-300))


def predictive_cdf(grid: PosteriorGrid, x: float) -> float:
    """CDF of the new-study effect under the discretized posterior mixture."""
    m, s, w = _mixture(grid, predictive=True)
    return float(np.sum(w * ndtr((x - m) / s)))


def _invert_mixture_cdf(means, sds, weights, prob, tol_width):
    """Solve F(x) = sum_k w_k Phi((x - m_k)/s_k) = prob by safeguarded Newton.

    The weights must sum to 1: then, with q = ndtri(prob), every Phi term is
    <= prob at lo = min_k(m_k + s_k q) and >= prob at hi = max_k(m_k + s_k q),
    so the components' own quantiles bracket the root without evaluating F.
    Newton steps (prob - F)/f, with the closed-form density
    f = sum_k (w_k/s_k) phi((x - m_k)/s_k), start from the normal quantile of
    the mixture's own mean and SD; every evaluation shrinks the bracket by
    the sign of F - prob, and a step that would leave the bracket or not
    halve the previous step is replaced by the bracket midpoint (as in
    rtsafe). The root is returned once a Newton step is within tol_width / 2
    (whether or not it stays strictly inside the bracket) or the bracket is
    within tol_width - the error bound of plain bisection - or once the
    bracket cannot be split in floating point.
    """
    if not (0.0 < prob < 1.0):
        raise NumericFailure(f"the mixture has no finite quantile for prob={prob}")
    q = float(ndtri(prob))
    component_quantiles = means + sds * q
    lo, hi = float(component_quantiles.min()), float(component_quantiles.max())

    w_over_s = weights / sds
    center, sd = _mean_sd(means, sds, weights)
    x = min(max(center + sd * q, lo), hi)
    step = step_before = hi - lo
    for _ in range(_MAX_INVERSION_STEPS):
        z = (x - means) / sds
        resid = float(np.sum(weights * ndtr(z))) - prob
        if resid == 0.0:
            return x
        if resid < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= tol_width:
            return 0.5 * (lo + hi)
        dens = float(np.sum(w_over_s * np.exp(-0.5 * z * z))) * _INV_SQRT_2PI
        step_before, step = step, -resid / dens if dens > 0.0 else math.inf
        if abs(step) <= 0.5 * tol_width:
            # tested before the bracket: a converged step under half an ulp
            # of x rounds x + step onto the bracket end x
            return x + step
        if not (lo < x + step < hi) or abs(step) > 0.5 * abs(step_before):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return mid
            step = mid - x
        x += step
    raise NumericFailure(f"mixture quantile did not converge for prob={prob}")


def _mixture_interval(grid, level, predictive, kind, cdf_tolerance):
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    _check_cdf_tolerance(cdf_tolerance)
    m, s, w = _mixture(grid, predictive)
    tol_width = cdf_tolerance * _mean_sd(m, s, w)[1]
    alpha = 1.0 - level
    lower = _invert_mixture_cdf(m, s, w, alpha / 2.0, tol_width)
    upper = _invert_mixture_cdf(m, s, w, 1.0 - alpha / 2.0, tol_width)
    return IntervalEstimate(
        lower=lower, upper=upper, level=level, method=grid.prior_name, kind=kind
    )


def prediction_interval(
    grid: PosteriorGrid, level: float = 0.95, cdf_tolerance: float = 1e-8
) -> IntervalEstimate:
    """Equal-tail posterior interval for the effect in a new study.

    cdf_tolerance is the relative endpoint error of EngineConfig and must
    lie in (0, 1e-2); anything else raises ValueError.
    """
    return _mixture_interval(grid, level, True, "prediction", cdf_tolerance)


def credible_interval_mu(
    grid: PosteriorGrid, level: float = 0.95, cdf_tolerance: float = 1e-8
) -> IntervalEstimate:
    """Equal-tail credible interval for the grand mean (cdf_tolerance as above)."""
    return _mixture_interval(grid, level, False, "credible", cdf_tolerance)


def posterior_tau_moments(grid: PosteriorGrid) -> tuple[float, float, float]:
    """(E[tau^2 | y], Var(mu | y), Var(theta_new | y)) at grid resolution.

    Both variances are central moments of the mixtures that the intervals
    invert, so the identity Var(theta_new) = Var(mu) + E[tau^2] holds up to
    rounding and the < 1e-13 of mass the mixture reader drops.
    """
    m, s_mu, w = _mixture(grid, predictive=False)
    _, s_new, _ = _mixture(grid, predictive=True)
    mean_tau2 = float(np.sum(grid.posterior_weights() * grid.nodes**2))
    return mean_tau2, _mean_sd(m, s_mu, w)[1] ** 2, _mean_sd(m, s_new, w)[1] ** 2
