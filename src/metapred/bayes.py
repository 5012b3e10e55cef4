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
rational map absorbs heavy tails. One octave ladder in tau, from max(s0,
sd(y)) halving down to a quarter of the smallest within-study SE and
doubling up to the cap 1e6 x s0, serves twice: the tail scan probes it from
its start upward, and the w range is cut into panels at its points below
tau_max. A panel's 8-point Gauss-Legendre rule is checked against the same
rule on its two halves: a panel where they differ, in posterior mass or in
tau^2-weighted mass, by more than cdf_tolerance / 100 of the total is
bisected and its halves checked in turn (adaptive panels as in QUADPACK).
The difference estimates the error of the coarser whole-panel rule, as
QUADPACK's |K - G| does for the Gauss rule, so an accepted panel keeps that
rule's 8 nodes; nodes go where the posterior has features - about 90 on
typical data, 72-112 on the README data - up to a 16384-node cap. A grid's
normaliser Z is the refinement's running total of its kept nodes' mass: the
sum that decides every bisection also scales quad_error and gives log_norm.
A grid certifies itself before it is returned: its nodes and weights are
finite, and its normalised weights sum to 1 within quad_error plus
rounding.

Interval endpoints invert the mixture CDF by safeguarded Newton steps. The
components' own quantiles bracket each mixture quantile (the weights sum
to 1), so the bracket costs no CDF evaluation; the mixture density is
closed-form, so each step costs one pass over the components, and a step
that leaves the bracket or fails to shrink falls back to bisection. About
four steps reach the tolerance where plain bisection takes about forty.

One block is one batch, in one flat layout from refinement to inversion:
datasets that share their number of studies (one dataset, or the
replications of a coverage-study block, which may span scenarios) and the
prior families to run on each. A dataset's priors share its likelihood,
bound constants, s0 and ladder. _posterior_grids evaluates the likelihood
once on all the datasets' scan probes and each scanned family's kernel
once, scans every (family, dataset) row in one ragged pass and cuts each
row's panels from its dataset's ladder; _refine_panels refines all rows
together into one _Grids layout (every row's nodes end to end). From it
_mixture_intervals reads each mixture once, inverts every (mixture,
endpoint) row in one masked Newton loop and returns arrays of endpoints
and failure indices. A PosteriorGrid is one row of the layout, read in
place (its arrays are read-only). Reductions run over a node's studies
in sequence (C-ordered (studies, ...) arrays), along a row (the scan, row
sums, np.add.reduceat over flat segments) or over one row's panels in
order (np.add.at into zeroed per-row sums), never across rows, so a row's
grid and endpoints equal its batch-of-one result - the public
single-prior functions - bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, roots_legendre

from .core import MetaDataset, _unwrap
from .errors import DivergedPosteriorError, NumericFailure
from .intervals import IntervalEstimate, _check_level, _outcome
from .priors import BoundPrior, _bound_constants, _log_kernel

__all__ = [
    "EngineConfig",
    "PosteriorGrid",
    "build_posterior_grid",
    "predictive_cdf",
    "prediction_interval",
    "credible_interval_mu",
    "posterior_tau_moments",
]

_TAU_MAX_CAP_FACTOR = 1e6  # expansion cap: tau_max = 1e6 * s0
_TAIL_MASS_CUT = 1e-10  # relative density and tail-mass cut of the tau scan
_MAX_INVERSION_STEPS = 200  # bisection alone needs < 130 at cdf_tolerance 1e-8
_PANEL_ORDER = 8  # Gauss-Legendre points per half panel
_GL_NODES, _GL_WEIGHTS = roots_legendre(_PANEL_ORDER)
_MAX_GRID_NODES = 16384  # refinement stops before the grid would exceed this
_QUAD_TOLERANCE_SHARE = 1e-2  # panel error tolerance as a share of cdf_tolerance
# past this |log Z|, log_post - log_norm rounds by more than 1e-6 nats
_MAX_ABS_LOG_NORM = 1e-6 / np.finfo(float).eps
# what rounding adds to the miss |sum of weights - 1| beyond quad_error: up
# to ~0.4 eps |log Z| from log_post - log_norm, ~1e-10 at |log Z| = 1e6
_WEIGHT_SUM_ROUNDING = 1e-10
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


class PosteriorGrid:
    """Quadrature view of the marginal posterior of tau: row `row` of the
    _Grids layout `grids`, read in place. Its arrays are read-only views of
    the layout's, which the intervals and moments read too.

    nodes        increasing tau values (> 0); len(nodes) is the node count
    quad_weights positive quadrature weights in tau space
    log_post     log(prior density x integrated likelihood) at the nodes, up
                 to an additive constant (the conventional prior's
                 normalizer is left out)
    cond_mean    posterior mean of mu given tau, per node
    cond_var     posterior variance of mu given tau, per node
    log_norm     log of the normalizing sum Z of the weighted exp(log_post)
                 over exactly these nodes, as the refinement totalled it panel
                 by panel; a grid is only returned when eps x |log_norm| <=
                 1e-6 and its normalised weights sum to 1 within quad_error
                 plus rounding
    prior_name   tag of the prior that produced the grid
    tau_max      upper end of the tau range: the tail scan's truncation
                 point, or the support end of a proper-uniform prior
    quad_error   summed local error estimates of the kept panel rules
                 (|whole-panel rule - half rules| per panel), relative to Z
                 (the larger of the ratios for the mass and for the
                 tau^2-weighted mass); each panel's own estimate is within
                 cdf_tolerance / 100 of Z unless the node cap stopped
                 refinement; always finite
    """

    __slots__ = ("_grids", "_row", "_span")

    def __init__(self, grids: _Grids, row: int):
        start = int(grids.starts[row])
        self._grids, self._row = grids, row
        self._span = slice(start, start + int(grids.counts[row]))

    nodes = property(lambda self: self._grids.nodes[0, self._span])
    quad_weights = property(lambda self: self._grids.nodes[1, self._span])
    log_post = property(lambda self: self._grids.nodes[2, self._span])
    cond_mean = property(lambda self: self._grids.nodes[3, self._span])
    cond_var = property(lambda self: self._grids.nodes[4, self._span])
    log_norm = property(lambda self: self._grids.tails[self._row][0])
    prior_name = property(lambda self: self._grids.tails[self._row][1])
    tau_max = property(lambda self: self._grids.tails[self._row][2])
    quad_error = property(lambda self: self._grids.tails[self._row][3])

    def posterior_weights(self) -> np.ndarray:
        """Normalized node masses, quad_weights x exp(log_post - log_norm);
        they sum to 1 up to rounding."""
        return self._grids.weights[self._span]


class _Grids:
    """A block's posterior grids as one flat layout, a row per grid: nodes
    holds the five arrays of a PosteriorGrid as rows, grid r's counts[r]
    nodes from starts[r]; weights each node's normalised posterior weight;
    tails each grid's (log_norm, prior_name, tau_max, quad_error). nodes and
    weights are read-only, so a grid cannot drift from its mixture."""

    def __init__(self, nodes, weights, counts, tails):
        nodes.flags.writeable = weights.flags.writeable = False
        self.nodes, self.weights, self.tails = nodes, weights, tails
        self.counts, self.starts = counts, counts.cumsum() - counts

    def __reduce__(self):
        # unpickled arrays are writeable: rebuilding makes them read-only
        return _Grids, (self.nodes, self.weights, self.counts, self.tails)


def _segments(starts, counts):
    """The index array of every segment k, starts[k] + range(counts[k])."""
    return np.arange(counts.sum()) + np.repeat(starts - counts.cumsum() + counts, counts)


def _weighted_mean(y, sigma_sq):
    inv_s = 1.0 / sigma_sq
    with np.errstate(over="ignore"):  # an infinite mean fails the tail scan
        return float(inv_s @ y) / float(inv_s.sum())


def _loglik_terms(d, sigma_sq, c, tau, mu_prior_var):
    """Closed-form marginal log likelihood pieces for an array of tau.

    c is the 1/sigma^2-weighted mean of the effects, a (rows, 1) column,
    and d = y - c their deviations from it; d and sigma_sq are (studies,
    rows, 1) arrays that hold each row's own dataset against a (rows,
    nodes) tau. The quadratic form sum(y^2/v) - (sum(y/v))^2/prec is computed
    about c, as sum(d^2/v) - D^2/prec + (2cD + c^2 A)/(S prec) with D =
    sum(d/v), A = sum(1/v): the raw form cancels catastrophically when |y|
    is large against the spread of the effects.
    """
    t2 = tau**2
    # with two or more nodes each sum over studies runs as elementwise adds
    # over C-ordered (studies, ...) arrays, study after study, so a node's
    # value does not depend on the other nodes of the call (a BLAS product
    # may round a row differently depending on how many rows share it), and
    # a grid does not depend on which other priors or datasets share its
    # likelihood evaluation
    v = sigma_sq + t2
    inv_v = 1.0 / v
    a = inv_v.sum(axis=0)
    prec = a + 1.0 / mu_prior_var
    cond_var = 1.0 / prec
    dev = (inv_v * d).sum(axis=0)
    # deviations near 1e154 overflow d * d, and an infinite mean c gives NaN
    # terms: the loglik that is not finite fails the tail scan
    with np.errstate(over="ignore", invalid="ignore"):
        cond_mean = c + (dev - c / mu_prior_var) * cond_var
        quad_form = (
            (inv_v * (d * d)).sum(axis=0)
            - dev**2 * cond_var
            + (2.0 * c * dev + c * c * a) * cond_var / mu_prior_var
        )
    loglik = (
        -0.5 * (np.log(v).sum(axis=0) + d.shape[0] * _LOG_2PI)
        - 0.5 * np.log(mu_prior_var * prec)
        - 0.5 * quad_form
    )
    return loglik, cond_mean, cond_var


def _tau_ladders(y, sigma_sq, s0):
    """The octave ladder start * 2^k in tau of each dataset (a row of y and
    sigma_sq; s0 a list), from start = max(s0, sd(y)) halving down to 0.25 x
    the smallest SE and doubling up to the cap 1e6 x s0, which clips the
    last point. Returns the ladders, a row each of 0, the points and inf
    padding; the scan probes, a row each of the points from start to cap
    and padding of 2 cap - the point before it (which ends the last gap);
    and the column of each row's cap among its probes."""
    n = y.shape[1]
    # np.std(y, ddof=1) row by row, without its per-call overhead
    d = y - (y.sum(axis=1) / n)[:, None]
    with np.errstate(over="ignore"):  # an infinite spread is clipped to cap / 1024
        squares = (d * d).sum(axis=1).tolist()
    ladders, probes, last = [], [], []
    for s, square, low in zip(s0, squares, sigma_sq.min(axis=1).tolist()):
        cap = _TAU_MAX_CAP_FACTOR * s
        spread = math.sqrt(square / (n - 1)) if n > 1 else 0.0
        start = min(max(s, spread, 1e-8), cap / 1024.0)
        down = max(int(math.ceil(math.log2(start / (0.25 * math.sqrt(low))))), 0)
        up = int(math.ceil(math.log2(cap / start))) + 1
        points = [start * 2.0**k for k in range(-down, up - 1)] + [cap]
        ladders.append([0.0, *points])
        probes.append((points[down:], 2.0 * cap - points[-2]))
        last.append(up - 1)
    width = max(map(len, ladders))
    ladders = [row + [math.inf] * (width - len(row)) for row in ladders]
    width = max(last) + 2
    probes = [row + [pad] * (width - len(row)) for row, pad in probes]
    return np.array(ladders), np.array(probes), np.array(last)


def _scan_tau_max(log_h, ladder, last):
    """Geometric upward scan for the tau truncation point of every prior p
    on every dataset i, in one pass.

    Row i of ladder is _tau_ladders' probes of dataset i, from its start
    max(s0, sd(y)) to its cap 1e6 x s0 at column last[i], then padding;
    log_h[p, i] is the log posterior density at the probes, NaN past the
    cap (failing every test below), a column shorter than ladder. A row's
    tau_max is its first probe where (a) the density is below
    _TAIL_MASS_CUT x the running peak (compared as log_h - peak: adding the
    cut to a peak beyond ~1e17 would round it away) and (b) the tail mass,
    estimated from the local decay power, is below _TAIL_MASS_CUT of the
    accumulated mass. Starting at the data scale keeps an unbounded prior
    density at tau -> 0 (the sqrt prior) out of the peak. When (a) holds,
    or the tail is heavy but integrable at the cap (n = 2 with a flat
    prior), and (b) never does, the cap is used; a tail that never decays
    gets NaN. Every step runs along a row or reads the row's own last
    probe, so a row equals its scan alone, whatever the other rows.
    """
    rows = np.arange(len(last))
    probes = ladder[:, :-1]
    log_cut = math.log(_TAIL_MASS_CUT)
    # math.log, not np.log, which can round the last bit differently
    log_first = np.array([math.log(x) for x in ladder[:, 0].tolist()])
    running_peak = np.maximum.accumulate(log_h, axis=-1)
    # a row of -inf (an overflowing likelihood) gives NaN differences: NaN;
    # a kernel that grows without bound (power(1e308)) overflows the mass
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        decayed = log_h - running_peak <= log_cut
        # local decay power between ladder points (tail ~ tau^-power)
        power = np.zeros(log_h.shape)
        power[..., 1:] = -(log_h[..., 1:] - log_h[..., :-1]) / np.diff(np.log(probes))
        # crude running mass: ladder trapezoids plus a floor for mass below
        # the start; an underestimate only makes the tail check stricter
        log_mass = np.logaddexp(
            np.logaddexp.accumulate(log_h + np.log(np.diff(ladder)), axis=-1),
            (log_h[..., 0] + log_first)[..., None],
        )
        tail = log_h + np.log(probes) - np.log(np.maximum(power - 1.0, 1e-12))
        log_tail = np.where(power > 1.05, tail, np.inf)
        ok = decayed & (log_tail <= log_mass + log_cut)
        # a heavy tail that may not reach the full density cut inside the
        # cap, but clearly decays there at an integrable rate, takes the cap
        at_cap = (slice(None), rows, last)
        heavy = (log_h[at_cap] - running_peak[at_cap] <= 0.5 * log_cut) & (power[at_cap] > 1.05)
    return np.where(
        ok.any(axis=-1),
        probes[rows, ok.argmax(axis=-1)],
        np.where(decayed.any(axis=-1) | heavy, probes[rows, last], np.nan),
    )


def _mean_prior_conflict(y, sigma_sq, mu_prior_var):
    """The prior-data conflict on the mean, as a clause, or None: the
    1/sigma^2-weighted mean of the effects lies more than one SD of the
    N(0, S) mean prior from 0, so that prior drags mu toward 0."""
    prior_sds = abs(_weighted_mean(y, sigma_sq)) / math.sqrt(mu_prior_var)
    if prior_sds <= 1.0:
        return None
    return (
        f"the weighted mean of the effects lies {prior_sds:.3g} SDs from 0 under the "
        f"N(0, {mu_prior_var:g}) mean prior"
    )


def _scan_failure(prior_name, dataset, mu_prior_var):
    """The error for a tail that never decays; it blames the N(0, S) mean
    prior when _mean_prior_conflict finds one."""
    conflict = _mean_prior_conflict(dataset.effects, dataset.variances, mu_prior_var)
    if conflict is not None:
        return DivergedPosteriorError(
            prior_name,
            f"posterior for prior '{prior_name}' does not decay: {conflict}; "
            "try a larger EngineConfig.mu_prior_var",
        )
    return DivergedPosteriorError(prior_name)


class _Block:
    """The datasets of one block, all with the same number of studies, as
    the likelihood and the prior kernels read them, with the bound
    constants (s0^2, log s0, sigma_hat^2) that all of a dataset's priors
    share, from one _bound_constants call over the block's rows. Each
    per-dataset value is one array with an entry per dataset (log s0 from
    math.log, which np.log can round differently in the last bit).

    A caller names one dataset per row of its 2-d tau array - a panel's
    nodes in the refinement, a probe in the scan - and the row's nodes
    broadcast against that dataset's values. np.take keeps the gathered
    (studies, rows) arrays C-ordered (Y[:, idx] would not be, and numpy
    would then sum its studies pairwise), so every node's studies are
    summed in the same sequence whatever the block.
    """

    def __init__(self, datasets, mu_prior_var):
        self.mu_prior_var = mu_prior_var
        if len({dataset.n for dataset in datasets}) > 1:
            raise ValueError("the datasets of a block must have the same number of studies")
        variances = np.stack([dataset.variances for dataset in datasets])  # a row per dataset
        s0_sq, sigma_hat_sq = _bound_constants(1.0 / variances)
        centre = [_weighted_mean(dataset.effects, dataset.variances) for dataset in datasets]
        self.dev = np.stack([ds.effects - m for ds, m in zip(datasets, centre)], axis=1)
        self.sigma_sq = np.ascontiguousarray(variances.T)
        self.centre = np.array(centre)
        self.c = np.sqrt(s0_sq)  # the w map's scale s0
        log_s0 = np.array([math.log(x) for x in self.c.tolist()])
        self.consts = [s0_sq, log_s0, sigma_hat_sq, variances]

    def loglik(self, idx, tau):
        """_loglik_terms at the 2-d tau, row i on dataset idx[i]."""
        return _loglik_terms(
            np.take(self.dev, idx, axis=1)[:, :, None],
            np.take(self.sigma_sq, idx, axis=1)[:, :, None],
            self.centre[idx, None],
            tau,
            self.mu_prior_var,
        )

    def constants(self, idx):
        """_log_kernel's bound constants for a 2-d tau, row i on dataset
        idx[i]: one gather that every family's call can slice."""
        return [column[idx, None] for column in self.consts]


def _distinct(*keys):
    """One index per distinct tuple of the key arrays' entries, and each
    entry's position among those (np.unique over several keys)."""
    order = np.lexsort(keys[::-1])
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    sorted_keys = [key[order] for key in keys]
    new[1:] = sorted_keys[0][1:] != sorted_keys[0][:-1]
    for key in sorted_keys[1:]:
        new[1:] |= key[1:] != key[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _panel_nodes(c, lo, hi):
    """Gauss-Legendre nodes on the w-panels [lo, hi], panel after panel:
    tau and the quadrature weight in tau, a row per panel. c is s0, a column
    of one value per panel. A panel end where w rounds to 1 gives infinite
    nodes (and a divide-by-zero), which fail their grid (_grid_failure)."""
    half = 0.5 * (hi - lo)[:, None]
    w = (0.5 * (hi + lo))[:, None] + half * _GL_NODES
    one_minus = 1.0 - w**2
    tau = c * w**2 / one_minus
    quad_weights = half * _GL_WEIGHTS * (2.0 * c * w / one_minus**2)
    return tau, quad_weights


def _refine_panels(block, owner_ds, row_family, families, lo, panels, tau_max, tol):
    """Every row's posterior grid: row r is the prior
    families[row_family[r]] on the block's dataset owner_ds[r]; its
    panels[r] panels start at its run of lo (increasing tau) and end at
    the next start, the last at tau_max[r], and are mapped to w and
    bisected until each passes its error test. The rows come family after
    family (row_family does not decrease), so each pass finds a family's
    panels as one run.

    The open panels of all rows are the rows of one set of arrays; owner
    gives each panel's row. A pass evaluates the likelihood once on the
    distinct (dataset, panel) pairs' _PANEL_ORDER-point half rules (the
    first pass also on the whole-panel rules, each before its halves), and
    each prior family's kernel once on its run, with its slice of the
    bound constants that the pass gathers once. A panel's error estimate
    is the difference between its whole-panel rule and the sum of its two
    half rules, for the mass and the tau^2-weighted mass. One running
    total, of the accepted panels' whole-panel sums, decides every
    bisection: a panel whose estimate exceeds tol x its row's total of
    either (this pass's panels included) is bisected, and its halves take
    their whole-panel nodes and sums from its half rules, so no rule is
    evaluated twice; an accepted panel keeps its whole-panel nodes. When
    refining would take a row's kept nodes past _MAX_GRID_NODES, every
    open panel of that row is accepted as it stands. Sums over a row's
    panels add them in order into zeroed per-row arrays, and every other
    step is elementwise, so a row does not depend on the other rows.

    Returns one _Grids layout of the rows' kept nodes sorted by tau, their
    log_norm from the running total - the mass of exactly those nodes - and
    quad_error, the summed estimates of the accepted panels relative to the
    totals (the larger of the two ratios), and a dict from each row that
    fails _grid_failure's checks (array tests of every row) to its error.
    """
    m, n = _PANEL_ORDER, len(row_family)
    if not n:
        return _Grids(np.empty((5, 0)), np.empty(0), np.zeros(0, dtype=np.intp), []), {}

    def per_row(rows, values):
        sums = np.zeros((n, 2))
        np.add.at(sums, rows, values)
        return sums

    owner = np.arange(n).repeat(panels)
    hi = np.concatenate((lo[1:], lo[:1]))
    hi[panels.cumsum() - 1] = tau_max
    c = block.c[owner_ds[owner]]
    lo, hi = np.sqrt(lo / (c + lo)), np.sqrt(hi / (c + hi))
    whole = whole_nodes = None  # the open panels' whole-panel sums and nodes
    ref = np.full(n, -np.inf)  # row r's panel sums are (mass, tau^2 mass) x exp(-ref[r])
    total, error = np.zeros((n, 2)), np.zeros((n, 2))
    n_nodes = np.zeros(n, dtype=np.intp)
    accepted = []
    while True:
        k = len(lo)
        edges = np.stack([lo, 0.5 * (lo + hi), hi], 1)  # a row per panel: lo, mid, hi
        # each panel's half rules, after its whole-panel rule in the first pass
        lower, upper = ([0, 1], [1, 2]) if whole is not None else ([0, 0, 1], [2, 1, 2])
        a, b, rows = edges[:, lower].ravel(), edges[:, upper].ravel(), owner.repeat(len(lower))
        datasets = owner_ds[rows]
        panels, which = _distinct(datasets, a, b)
        node_ds = datasets[panels]
        with np.errstate(divide="ignore", invalid="ignore"):  # infinite nodes, NaN mass
            tau, quad_weights = _panel_nodes(block.c[node_ds, None], a[panels], b[panels])
            # tau, quad weight, log posterior, conditional mean and variance,
            # each a row of m nodes per panel rule
            nodes = np.stack([tau, quad_weights, *block.loglik(node_ds, tau)])[:, which]
            family = row_family[rows]  # the runs of rows of one family
            cuts = [0, *(np.flatnonzero(family[1:] != family[:-1]) + 1).tolist(), len(rows)]
            consts = block.constants(datasets)
            for start, end in zip(cuts[:-1], cuts[1:]):
                nodes[2, start:end] += _log_kernel(
                    families[family[start]],
                    nodes[0, start:end],
                    *(column[start:end] for column in consts),
                )
            log_mass = nodes[2] + np.log(nodes[1])
            top = np.full(n, -np.inf)
            np.maximum.at(top, rows, log_mass.max(axis=1))
        if whole is None:
            failed = ~np.isfinite(top)
            top[failed] = 0.0  # keeps the unused sums of a failed row finite
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
            whole, sums = sums[::3], sums.reshape(k, 3, 2)[:, 1:]
            whole_nodes, nodes = nodes[:, ::3], nodes.reshape(5, k, 3, m)[:, :, 1:]
        else:
            whole = whole * scale[owner, None]
        pairs = sums.reshape(k, 2, 2)  # (panel, half, mass | tau^2 mass)
        est = np.abs(whole - (pairs[:, 0] + pairs[:, 1]))
        refine = np.any(est > tol * (total + per_row(owner, whole))[owner], axis=1)
        grown = n_nodes + m * np.bincount(owner, 1 + refine, n)  # kept and new panels
        refine &= ~failed[owner] & (grown <= _MAX_GRID_NODES)[owner]
        done = ~refine
        accepted.append((owner[done], whole_nodes[:, done]))
        total += per_row(owner[done], whole[done])
        error += per_row(owner[done], est[done])
        n_nodes += m * np.bincount(owner[done], minlength=n)
        if done.all():
            break
        # a bisected panel's halves are open panels whose whole-panel rules
        # are its half rules, already evaluated
        lo, hi = edges[refine, :2].ravel(), edges[refine, 1:].ravel()
        whole = pairs[refine].reshape(-1, 2)
        whole_nodes = nodes.reshape(5, k, 2, m)[:, refine].reshape(5, -1, m)
        owner = owner[refine].repeat(2)
    rows = np.concatenate([owners for owners, _ in accepted])
    nodes = np.concatenate([kept for _, kept in accepted], axis=1)
    order = np.lexsort((nodes[0, :, 0], rows))  # panels are disjoint: sorts every tau
    nodes = nodes[:, order].reshape(5, -1)
    counts = m * np.bincount(rows, minlength=n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_norm = ref + np.log(total[:, 0])
        quad_error = (error / total).max(axis=1)
        # the sum of each row's normalised weights; it is not finite when a
        # node is not (tau and its quadrature weight overflow together)
        weights = nodes[1] * np.exp(nodes[2] - np.repeat(log_norm, counts))
        miss = np.add.reduceat(weights, np.cumsum(counts) - counts) - 1.0
        # _grid_failure's checks, each false on a NaN
        certified = ~failed & (np.abs(log_norm) <= _MAX_ABS_LOG_NORM) & np.isfinite(quad_error)
        certified &= np.abs(miss) <= quad_error + _WEIGHT_SUM_ROUNDING
    names = [families[f].name for f in row_family.tolist()]
    log_norm, quad_error = log_norm.tolist(), quad_error.tolist()
    failures = {
        r: _grid_failure(names[r], failed[r], log_norm[r], quad_error[r], float(miss[r]))
        for r in (~certified).nonzero()[0].tolist()
    }
    tails = list(zip(log_norm, names, tau_max.tolist(), quad_error))
    return _Grids(nodes, weights, counts, tails), failures


def _grid_failure(name, failed, log_norm, quad_error, miss):
    """The DivergedPosteriorError of a grid that does not certify itself,
    or None: its first refinement pass had no finite mass (failed), its
    log_norm or quad_error is not finite, |log_norm| exceeds
    _MAX_ABS_LOG_NORM (log_post - log_norm then rounds by more than 1e-6),
    or the sum of its normalised weights misses 1 (by miss) by more than
    quad_error + _WEIGHT_SUM_ROUNDING, or not finitely: a node or weight is
    not finite."""
    if failed or not math.isfinite(log_norm):
        message = f"posterior normalization for prior '{name}' is not finite"
    elif abs(log_norm) > _MAX_ABS_LOG_NORM:
        message = (
            f"posterior for prior '{name}' has log Z = {log_norm:.4g}, too large "
            "in magnitude to resolve its weights"
        )
    elif not math.isfinite(quad_error):
        message = f"quadrature error estimate of the posterior for prior '{name}' is not finite"
    elif not math.isfinite(miss):
        message = f"posterior grid for prior '{name}' has nodes or weights that are not finite"
    elif abs(miss) > quad_error + _WEIGHT_SUM_ROUNDING:
        message = (
            f"posterior weights for prior '{name}' miss 1 by {miss:.3g}, beyond the "
            f"quadrature error {quad_error:.3g}"
        )
    else:
        return None
    return DivergedPosteriorError(name, message)


def _posterior_grids(datasets, families, config: EngineConfig | None = None):
    """Posterior grids of every prior family on every dataset of a block,
    in one pass.

    The batch behind build_posterior_grid (one dataset, one family) and
    evaluate_methods (every prior its tags need, on every dataset of a
    block). The datasets must share their number of studies, at least 2
    (else bind_prior's ValueError); all of a dataset's priors share its
    bound constants (from _Block), s0 and its ladder. The likelihood is
    evaluated once on all the datasets' scan probes and each scanned
    family's kernel once; one _scan_tau_max pass scans that (families,
    datasets, probes) array, and every row's panels are cut from its
    dataset's ladder and refined with all others by _refine_panels. A grid
    equals its batch-of-one result bit for bit. Returns the grids' _Grids
    layout and index[i][f], family f on dataset i: its row or
    DivergedPosteriorError.
    """
    if config is None:
        config = EngineConfig()
    block = _Block(datasets, config.mu_prior_var)
    effects = np.stack([dataset.effects for dataset in datasets])  # a row per dataset
    ladder, probes, last = _tau_ladders(effects, block.consts[3], block.c.tolist())
    # a proper-uniform family ends at its support, and the others are scanned
    ends = [f.hi if f.kind == "proper-uniform" else math.nan for f in families]
    tau_max = np.repeat([ends], len(datasets), axis=0).T  # family f on dataset i
    scanned = np.isnan(ends).nonzero()[0]
    if len(scanned):
        # every dataset's scan probes, dataset after dataset
        live = np.arange(probes.shape[1] - 1) <= last[:, None]
        probe_ds, tau = live.nonzero()[0], probes[:, :-1][live][:, None]
        consts = block.constants(probe_ds)
        log_h = np.full((len(scanned), *live.shape), math.nan)
        log_h[:, live] = block.loglik(probe_ds, tau)[0][:, 0] + np.stack(
            [_log_kernel(families[f], tau, *consts)[:, 0] for f in scanned]
        )
        tau_max[scanned] = _scan_tau_max(log_h, probes, last)

    row_family, owner_ds = np.nonzero(~np.isnan(tau_max))  # family after family
    # row r's panels start at 0 and at its dataset's ladder points below its
    # tau_max: a run of that dataset's row of ladder
    t = tau_max[row_family, owner_ds]
    panels = (ladder[owner_ds] < t[:, None]).sum(axis=1)
    lo = ladder.ravel()[_segments(owner_ds * ladder.shape[1], panels)]
    tol = _QUAD_TOLERANCE_SHARE * config.cdf_tolerance
    grids, failures = _refine_panels(block, owner_ds, row_family, families, lo, panels, t, tol)
    row_of = np.full(tau_max.shape, -1)  # family f on dataset i: its row, or -1
    row_of[row_family, owner_ds] = np.arange(len(row_family))
    index = [[failures.get(r, r) for r in rows] for rows in row_of.T.tolist()]
    for f, i in zip(*np.nonzero(row_of < 0)):
        index[i][f] = _scan_failure(families[f].name, datasets[i], config.mu_prior_var)
    return grids, index


def build_posterior_grid(
    dataset: MetaDataset, prior: BoundPrior, config: EngineConfig | None = None
) -> PosteriorGrid:
    """Quadrature representation of the posterior over tau for one prior.

    The engine reads the prior's family and takes the bound constants (s0^2,
    sigma_hat^2) from the dataset, so the prior must have been bound to this
    dataset's within-study variances. The grid spans (0, tau_max] with
    tau_max found by the geometric tail scan (for the proper-uniform family
    the support endpoint is used directly). Composite 8-point
    Gauss-Legendre panels in w = sqrt(tau / (s0 + tau)) are bisected until
    each one's local error estimate (its rule against the rules on its two
    halves), in posterior mass and in tau^2-weighted mass, is within
    config.cdf_tolerance / 100 of the total, or until the grid would exceed
    16384 nodes (quad_error then records the shortfall); the grid keeps each
    accepted panel's 8 nodes. Nodes never touch tau = 0, so integrable
    endpoint singularities are fine.

    Raises
    ------
    ValueError
        If n < 2, or if the prior was bound to other within-study variances.
    DivergedPosteriorError
        If the posterior tail has not decayed by tau = 1e6 * s0, which
        signals an improper posterior for this prior/dataset combination,
        or, on effects far from 0, a mean prior too narrow for the data;
        also if the grid does not certify itself: Z or quad_error is not
        finite, |log Z| is too large for the weights to be resolved in
        double precision, a node or weight is not finite, or the
        normalised weights miss 1 by more than quad_error plus rounding.
    """
    if dataset.n < 2:
        raise ValueError(f"posterior grid needs n >= 2, dataset has {dataset.n}")
    if not np.array_equal(prior.sigma_sq, dataset.variances):
        raise ValueError(f"prior '{prior.name}' was bound to other within-study variances")
    grids, ((row,),) = _posterior_grids([dataset], [prior.family], config)
    return PosteriorGrid(grids, _unwrap(row))


def _mixtures(grids, requests):
    """Flat (means, sds, weights, lengths) of several posterior mixtures
    sum_k w_k N(m_k, s_k^2).

    requests holds (row, predictive) pairs of the _Grids layout grids: the
    theta_new mixture of that row's grid when predictive, else the mu
    mixture. Mixture k occupies the next lengths[k] entries of the flat
    arrays. Components under 1e-17 of their mixture's peak weight (together
    less than 1e-13 of the mass) are dropped and the rest renormalised to
    sum to 1. Segment reductions use np.add.reduceat, which gives a segment
    the same bits wherever it lies in the flat arrays, so a mixture does
    not depend on the others.
    """
    rows, predictive = zip(*requests)
    counts = grids.counts[list(rows)]
    take = _segments(grids.starts[list(rows)], counts)
    pi = grids.weights[take]
    starts = counts.cumsum() - counts
    keep = pi > np.repeat(np.maximum.reduceat(pi, starts), counts) * 1e-17
    take = take[keep]
    tau, means, var = (grids.nodes[i, take] for i in (0, 3, 4))  # tau, cond_mean, cond_var
    sds = np.sqrt(var + np.where(np.repeat(predictive, counts)[keep], tau**2, 0.0))
    lengths = np.add.reduceat(keep, starts, dtype=np.intp)
    w = pi[keep]
    weights = w / np.repeat(np.add.reduceat(w, lengths.cumsum() - lengths), lengths)
    return means, sds, weights, lengths


def _mixture_moments(means, sds, weights, lengths):
    """Each mixture's own mean and SD, of _mixtures' flat layout."""
    starts = lengths.cumsum() - lengths
    mean = np.add.reduceat(weights * means, starts)
    # the central second moment: E[x^2] - E[x]^2 cancels when |mean| >> sd
    var = np.add.reduceat(weights * (sds * sds + (means - np.repeat(mean, lengths)) ** 2), starts)
    return mean, np.sqrt(np.maximum(var, 1e-300))


def predictive_cdf(grid: PosteriorGrid, x: float) -> float:
    """CDF of the new-study effect under the discretized posterior mixture."""
    m, s, w, _ = _mixtures(grid._grids, [(grid._row, True)])
    return float(np.sum(w * ndtr((x - m) / s)))


def _invert_mixture_cdfs(means, sds, weights, lengths, probs, tol_widths, center, sd):
    """Solve F_r(x) = sum_k w_k Phi((x - m_k)/s_k) = probs[r] for every
    mixture r of a flat layout by safeguarded Newton, all rows at once.

    The weights must sum to 1 per mixture: then, with q = ndtri(prob), every
    Phi term is <= prob at lo = min_k(m_k + s_k q) and >= prob at hi =
    max_k(m_k + s_k q), so the components' own quantiles bracket the root
    without evaluating F. Newton steps (prob - F)/f, with the closed-form
    density f = sum_k (w_k/s_k) phi((x - m_k)/s_k), start from the normal
    quantile of the mixture's own mean and SD (center and sd, one per row);
    every evaluation shrinks the bracket by the sign of F - prob, and a
    step that would leave the bracket or not halve the previous step is
    replaced by the bracket midpoint (as in rtsafe). A row's root is returned once a Newton step is
    within tol_width / 2 (whether or not it stays strictly inside the
    bracket) or the bracket is within tol_width - the error bound of plain
    bisection - or once the bracket cannot be split in floating point.

    Each row keeps its own bracket, step and stopping test, and each pass
    evaluates the rows still open in one array over their components; a
    finished row's components leave the arrays. Returns an array of one
    root per row, NaN for a probability outside (0, 1) or a row that has
    not converged after _MAX_INVERSION_STEPS steps.
    """
    keep = (probs > 0.0) & (probs < 1.0)  # rows still open, among the last pass's
    rows = np.flatnonzero(keep)
    q = ndtri(np.where(keep, probs, 0.5))
    starts = np.cumsum(lengths) - lengths
    component_quantiles = means + sds * np.repeat(q, lengths)
    lo = np.minimum.reduceat(component_quantiles, starts)
    hi = np.maximum.reduceat(component_quantiles, starts)
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
    return roots


def _mixture_intervals(grids, requests, level, cdf_tolerance, errors):
    """Equal-tail intervals of the mixtures of requests ((row, predictive)
    pairs as in _mixtures), every endpoint in one _invert_mixture_cdfs
    batch: each mixture is read once and its components repeated for its
    lower and upper endpoint. A request's interval does not depend on the
    others. Returns arrays over requests of lower endpoints, upper
    endpoints and failure indices: -1, or the position in errors (to which
    this appends) of the request's failure, whose endpoints are then NaN:
    its row when that is an exception (a failed grid), else the
    NumericFailure of its lower, then upper, endpoint. A level outside
    (0, 1) or a cdf_tolerance outside (0, 1e-2) raises ValueError.
    """
    _check_level(level)
    _check_cdf_tolerance(cdf_tolerance)
    lower, upper = np.full((2, len(requests)), math.nan)
    failed = np.full(len(requests), -1)
    for k, (row, _) in enumerate(requests):
        if isinstance(row, Exception):
            failed[k] = len(errors)
            errors.append(row)
    live = (failed < 0).nonzero()[0].tolist()
    if not live:
        return lower, upper, failed
    m, s, w, lengths = _mixtures(grids, [requests[k] for k in live])
    center, sd = _mixture_moments(m, s, w, lengths)
    both = np.arange(len(live)).repeat(2)  # every mixture's lower, then upper endpoint
    take = _segments((lengths.cumsum() - lengths)[both], lengths[both])
    alpha = 1.0 - level
    probs = np.tile([alpha / 2.0, 1.0 - alpha / 2.0], len(live))
    m, s, w, center, sd = m[take], s[take], w[take], center[both], sd[both]
    roots = _invert_mixture_cdfs(m, s, w, lengths[both], probs, cdf_tolerance * sd, center, sd)
    lower[live], upper[live] = roots[::2], roots[1::2]
    for j in np.isnan(roots).nonzero()[0].tolist():
        k, prob = live[j // 2], float(probs[j])
        if failed[k] < 0:  # the lower endpoint's failure comes first
            failed[k] = len(errors)
            errors.append(NumericFailure(
                f"mixture quantile did not converge for prob={prob}"
                if 0.0 < prob < 1.0
                else f"the mixture has no finite quantile for prob={prob}"
            ))
    return lower, upper, failed


def _grid_interval(grid, kind, level, cdf_tolerance):
    # the prediction or credible interval of one grid, or its failure raised
    errors: list = []
    request = [(grid._row, kind == "prediction")]
    outcomes = _mixture_intervals(grid._grids, request, level, cdf_tolerance, errors)
    return _unwrap(_outcome(outcomes, errors, 0, level, grid.prior_name, kind))


def prediction_interval(
    grid: PosteriorGrid, level: float = 0.95, cdf_tolerance: float = 1e-8
) -> IntervalEstimate:
    """Equal-tail posterior interval for the effect in a new study.

    cdf_tolerance is the relative endpoint error of EngineConfig and must
    lie in (0, 1e-2); anything else raises ValueError.
    """
    return _grid_interval(grid, "prediction", level, cdf_tolerance)


def credible_interval_mu(
    grid: PosteriorGrid, level: float = 0.95, cdf_tolerance: float = 1e-8
) -> IntervalEstimate:
    """Equal-tail credible interval for the grand mean (cdf_tolerance as above)."""
    return _grid_interval(grid, "credible", level, cdf_tolerance)


def posterior_tau_moments(grid: PosteriorGrid) -> tuple[float, float, float]:
    """(E[tau^2 | y], Var(mu | y), Var(theta_new | y)) at grid resolution.

    Both variances are central moments of the mixtures that the intervals
    invert, so the identity Var(theta_new) = Var(mu) + E[tau^2] holds up to
    rounding and the < 1e-13 of mass the mixture reader drops.
    """
    _, sds = _mixture_moments(*_mixtures(grid._grids, [(grid._row, False), (grid._row, True)]))
    sd_mu, sd_new = sds.tolist()
    mean_tau2 = float(np.sum(grid.posterior_weights() * grid.nodes**2))
    return mean_tau2, sd_mu**2, sd_new**2
