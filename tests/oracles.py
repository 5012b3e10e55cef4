"""Independent brute-force oracles used by the test suite.

Everything here deliberately re-derives its math instead of importing the
production implementations: prior densities are written out inline, the
marginal likelihood is recomputed from scratch, quadrature is a plain
trapezoid rule on a uniform grid in w = sqrt(tau/(s0+tau)), quantiles come
from Brent's method on the discretized mixture CDF, and an adaptive
random-walk sampler provides a Monte-Carlo cross-check of the whole
posterior path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, stats
from scipy.special import logsumexp, ndtr

MU_PRIOR_VAR = 10_000.0


# ---------------------------------------------------------------------------
# prior densities (unnormalized is fine: the posterior is normalized anyway)

def _data_constants(sigma_sq):
    s1 = float(np.sum(1.0 / sigma_sq))
    s2 = float(np.sum(1.0 / sigma_sq**2))
    n = len(sigma_sq)
    s0_sq = n / s1
    sigma_hat_sq = (n - 1) * s1 / (s1**2 - s2)
    return s0_sq, sigma_hat_sq


def oracle_log_prior(family, tau, sigma_sq):
    """Log prior density at tau > 0 (array), re-derived from the formulas."""
    tau = np.asarray(tau, dtype=float)
    s0_sq, sigma_hat_sq = _data_constants(sigma_sq)
    s0 = math.sqrt(s0_sq)
    kind = family.kind
    t2 = tau[:, None] ** 2
    if kind == "power":
        return family.a * np.log(tau)
    if kind == "jeffreys":
        return 0.5 * np.log(np.sum((tau[:, None] / (sigma_sq + t2)) ** 2, axis=1))
    if kind == "berger-deely":
        return np.mean(np.log(tau[:, None]) - np.log(sigma_sq + t2), axis=1)
    if kind == "conventional":
        return np.mean(np.log(tau[:, None]) - 1.5 * np.log(sigma_sq + t2), axis=1)
    if kind == "dumouchel":
        return math.log(s0) - 2.0 * np.log(s0 + tau)
    if kind == "shrinkage":
        return np.log(2.0 * s0_sq * tau) - 2.0 * np.log(s0_sq + tau**2)
    if kind == "i2":
        return np.log(2.0 * sigma_hat_sq * tau) - 2.0 * np.log(sigma_hat_sq + tau**2)
    if kind == "proper-uniform":
        return np.where(tau <= family.hi, 0.0, -np.inf)
    if kind == "inv-gamma":
        a, b = family.shape, family.rate
        return -(2.0 * a + 1.0) * np.log(tau) - b / tau**2
    raise ValueError(kind)


def oracle_loglik(y, sigma_sq, tau):
    """Marginal log likelihood over mu ~ N(0, S), written out from scratch."""
    tau = np.asarray(tau, dtype=float)
    v = sigma_sq[None, :] + tau[:, None] ** 2
    prec = np.sum(1.0 / v, axis=1) + 1.0 / MU_PRIOR_VAR
    m = np.sum(y[None, :] / v, axis=1) / prec
    quad_form = np.sum(y[None, :] ** 2 / v, axis=1) - m**2 * prec
    return (
        -0.5 * np.sum(np.log(2.0 * math.pi * v), axis=1)
        - 0.5 * np.log(MU_PRIOR_VAR * prec)
        - 0.5 * quad_form
    )


# ---------------------------------------------------------------------------
# brute-force posterior mixture: trapezoid on a uniform w grid

def _oracle_tau_max(y, sigma_sq, family):
    if family.kind == "proper-uniform":
        return float(family.hi)
    s0_sq, _ = _data_constants(sigma_sq)
    t = max(math.sqrt(s0_sq), float(np.std(y, ddof=1)), 1e-3)
    peak = -np.inf
    for _ in range(80):
        lp = float(
            oracle_log_prior(family, np.array([t]), sigma_sq)[0]
            + oracle_loglik(y, sigma_sq, np.array([t]))[0]
        )
        peak = max(peak, lp)
        if lp < peak - 60.0:
            return t
        t *= 2.0
    raise AssertionError("oracle tail scan did not terminate")


def oracle_mixture(dataset, family, nodes=1_000_000):
    """(pi, m, V, tau) for the posterior mixture on a dense trapezoid grid.

    The grid is uniform in w = sqrt(tau/(s0+tau)); the w = 0 endpoint gets
    integrand value 0 (its trapezoid half-panel carries O(1/nodes) mass).
    Likelihood terms accumulate study by study to keep memory flat.
    """
    y = dataset.effects
    sigma_sq = dataset.variances
    s0_sq, _ = _data_constants(sigma_sq)
    c = math.sqrt(s0_sq)
    tau_max = _oracle_tau_max(y, sigma_sq, family)
    w_max = math.sqrt(tau_max / (c + tau_max))

    w = np.linspace(0.0, w_max, nodes)[1:]
    one_minus = 1.0 - w**2
    tau = c * w**2 / one_minus
    log_jac = math.log(2.0 * c) + np.log(w) - 2.0 * np.log(one_minus)

    t2 = tau**2
    sum_log_v = np.zeros_like(tau)
    sum_inv_v = np.zeros_like(tau)
    sum_y_over_v = np.zeros_like(tau)
    sum_y2_over_v = np.zeros_like(tau)
    for yi, si in zip(y, sigma_sq):
        v = si + t2
        sum_log_v += np.log(v)
        inv = 1.0 / v
        sum_inv_v += inv
        sum_y_over_v += yi * inv
        sum_y2_over_v += yi**2 * inv
    prec = sum_inv_v + 1.0 / MU_PRIOR_VAR
    V = 1.0 / prec
    m = sum_y_over_v * V
    loglik = (
        -0.5 * (sum_log_v + len(y) * math.log(2.0 * math.pi))
        - 0.5 * np.log(MU_PRIOR_VAR * prec)
        - 0.5 * (sum_y2_over_v - m**2 * prec)
    )
    log_f = oracle_log_prior(family, tau, sigma_sq) + loglik + log_jac

    step = w_max / (nodes - 1)
    trap = np.full(len(w), step)
    trap[-1] = step / 2.0  # w=0 endpoint dropped; its half panel is 0
    log_pi = log_f + np.log(trap)
    log_pi -= logsumexp(log_pi)
    return np.exp(log_pi), m, V, tau


def _mixture_quantile(pi, means, sds, prob, tol=1e-6):
    # components carrying < 1e-14 of the peak mass move the CDF (and the
    # quantile) by far less than the comparison tolerances
    keep = pi > pi.max() * 1e-14
    pi, means, sds = pi[keep], means[keep], sds[keep]

    def cdf(x):
        return float(np.sum(pi * ndtr((x - means) / sds)))

    # start from the moment-matched normal quantile, then widen as needed
    center = float(np.sum(pi * means))
    spread = math.sqrt(float(np.sum(pi * (sds**2 + means**2))) - center**2)
    x0 = center + float(stats.norm.ppf(prob)) * spread
    lo, hi = x0 - 2.0 * spread, x0 + 2.0 * spread
    while cdf(lo) > prob:
        lo -= 2.0 * (x0 - lo)
    while cdf(hi) < prob:
        hi += 2.0 * (hi - x0)
    # Brent's method on the bracket: within tol / 2 of the quantile, as the
    # midpoint of a bisection bracket of width tol would be
    return optimize.brentq(lambda x: cdf(x) - prob, lo, hi, xtol=0.5 * tol)


def interval_from_mixture(mixture, level=0.95, kind="prediction"):
    """Equal-tail interval endpoints from a prebuilt mixture."""
    pi, m, V, tau = mixture
    sds = np.sqrt(V + tau**2) if kind == "prediction" else np.sqrt(V)
    alpha = 1.0 - level
    return (
        _mixture_quantile(pi, m, sds, alpha / 2.0),
        _mixture_quantile(pi, m, sds, 1.0 - alpha / 2.0),
    )


def oracle_interval(dataset, family, level=0.95, kind="prediction", nodes=1_000_000):
    """Brute-force equal-tail interval endpoints (lower, upper)."""
    return interval_from_mixture(oracle_mixture(dataset, family, nodes), level, kind)


def oracle_tau_moments(dataset, family, nodes=1_000_000):
    """Brute-force (E[tau^2], Var(mu), Var(theta_new))."""
    pi, m, V, tau = oracle_mixture(dataset, family, nodes)
    mean_mu = float(np.sum(pi * m))
    mean_tau2 = float(np.sum(pi * tau**2))
    var_mu = float(np.sum(pi * (V + m**2))) - mean_mu**2
    var_pred = float(np.sum(pi * (V + tau**2 + m**2))) - mean_mu**2
    return mean_tau2, var_mu, var_pred


# ---------------------------------------------------------------------------
# other independent oracles

def grid_search_reml(y, sigma_sq, resolution=1e-6):
    """Maximize the restricted log likelihood by successive grid refinement."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(sigma_sq, dtype=float)

    def rll(t2):
        w = 1.0 / (v + t2)
        mu = np.sum(w * y) / np.sum(w)
        return -0.5 * (
            np.sum(np.log(v + t2)) + math.log(np.sum(w)) + np.sum(w * (y - mu) ** 2)
        )

    lo, hi = 0.0, 10.0 * (float(np.var(y, ddof=1)) + float(v.max())) + 1.0
    while hi - lo > resolution:
        grid = np.linspace(lo, hi, 2001)
        vals = np.array([rll(t) for t in grid])
        k = int(np.argmax(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
    return 0.5 * (lo + hi)


def loglik_by_mu_integration(dataset, tau, points=1_000_001):
    """Numerical mu-integration of the likelihood (trapezoid in log space)."""
    y = dataset.effects
    v = dataset.variances + tau**2
    prec = np.sum(1.0 / v) + 1.0 / MU_PRIOR_VAR
    center = float(np.sum(y / v) / prec)
    width = 60.0 / math.sqrt(prec)
    mu = np.linspace(center - width, center + width, points)
    log_f = stats.norm.logpdf(mu, 0.0, math.sqrt(MU_PRIOR_VAR))
    for yi, vi in zip(y, v):
        log_f += stats.norm.logpdf(yi, mu, math.sqrt(vi))
    step = mu[1] - mu[0]
    return float(logsumexp(log_f)) + math.log(step)


def truncated_sigma_sq_mean(lo=0.009, hi=0.6):
    """Mean of 0.25 * chi^2(1) conditioned on landing inside [lo, hi]."""
    pdf = stats.chi2(1).pdf
    mass, _ = integrate.quad(pdf, lo / 0.25, hi / 0.25)
    m1, _ = integrate.quad(lambda x: 0.25 * x * pdf(x), lo / 0.25, hi / 0.25)
    return m1 / mass


def random_walk_sampler(
    dataset, family, draws=50_000, burn=5_000, seed=0
):
    """Adaptive Metropolis random walk over (mu, log tau).

    Returns draws of the new-study effect theta_new = mu + tau * z. The
    sampler is a test-only cross-check; the proposal scale adapts during
    burn-in only.
    """
    rng = np.random.default_rng(seed)
    y = dataset.effects
    sigma_sq = dataset.variances

    def log_target(mu, ell):
        tau = math.exp(ell)
        lp = float(oracle_log_prior(family, np.array([tau]), sigma_sq)[0])
        if not math.isfinite(lp):
            return -math.inf
        v = sigma_sq + tau**2
        loglik = -0.5 * float(np.sum(np.log(2.0 * math.pi * v) + (y - mu) ** 2 / v))
        lp_mu = -0.5 * (math.log(2.0 * math.pi * MU_PRIOR_VAR) + mu**2 / MU_PRIOR_VAR)
        return lp + loglik + lp_mu + ell  # + ell: Jacobian of tau = e^ell

    mu = float(np.mean(y))
    ell = math.log(max(float(np.std(y, ddof=1)), 0.05))
    cur = log_target(mu, ell)
    step_mu = max(float(np.std(y, ddof=1)), 0.1)
    step_ell = 0.8
    accepted = 0
    out = np.empty(draws)
    z = rng.standard_normal(burn + draws)
    for i in range(burn + draws):
        prop_mu = mu + step_mu * rng.standard_normal()
        prop_ell = ell + step_ell * rng.standard_normal()
        cand = log_target(prop_mu, prop_ell)
        if math.log(rng.random()) < cand - cur:
            mu, ell, cur = prop_mu, prop_ell, cand
            accepted += 1
        if i < burn and (i + 1) % 200 == 0:
            rate = accepted / 200.0
            accepted = 0
            if rate < 0.2:
                step_mu *= 0.8
                step_ell *= 0.8
            elif rate > 0.45:
                step_mu *= 1.25
                step_ell *= 1.25
        if i >= burn:
            out[i - burn] = mu + math.exp(ell) * z[i]
    return out


def sampler_quantile_with_se(draws, prob, n_batches=50):
    """Empirical quantile and a batch-means standard error on the x scale."""
    q = float(np.quantile(draws, prob))
    usable = (len(draws) // n_batches) * n_batches
    batches = draws[:usable].reshape(n_batches, -1)
    fracs = np.mean(batches <= q, axis=1)
    se_p = float(np.std(fracs, ddof=1)) / math.sqrt(n_batches)
    delta = 0.01
    x_lo = float(np.quantile(draws, max(prob - delta, 1e-4)))
    x_hi = float(np.quantile(draws, min(prob + delta, 1 - 1e-4)))
    density = 2.0 * delta / max(x_hi - x_lo, 1e-12)
    return q, se_p / density
