import hashlib
import math
import os
import pickle
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri, roots_legendre

import metapred.bayes as bayes
from metapred import (
    NAMED_PRIORS,
    DivergedPosteriorError,
    EngineConfig,
    MetaDataset,
    NumericFailure,
    PosteriorGrid,
    PriorFamily,
    bind_prior,
    build_posterior_grid,
    credible_interval_mu,
    hts_interval,
    named_prior,
    posterior_tau_moments,
    prediction_interval,
    predictive_cdf,
)
from metapred.methods import METHODS
from metapred.priors import log_prior_kernel
from oracles import (
    dataset_scan,
    interval_from_mixture,
    loglik_by_mu_integration,
    oracle_mixture,
    oracle_tau_moments,
)

SPREAD = MetaDataset.from_arrays([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
SYMMETRIC = MetaDataset.from_arrays([-1.0, 1.0], [1.0, 1.0])
README_DATA = MetaDataset.from_arrays(
    [0.42, -0.08, 0.55, 0.26, 0.78, 0.11], [0.21, 0.28, 0.19, 0.24, 0.30, 0.26]
)


def random_dataset(rng, n_lo=3, n_hi=15):
    n = int(rng.integers(n_lo, n_hi + 1))
    return MetaDataset.from_arrays(
        rng.uniform(-2, 2, n), np.sqrt(rng.uniform(0.009, 0.6, n))
    )


def grid_for(dataset, name, config=None):
    return build_posterior_grid(dataset, bind_prior(named_prior(name), dataset), config)


def dataset_batch(dataset, priors, config):
    """The engine's grid batch of one dataset's priors (a block of one):
    their families on the dataset, as the batch's layout and each prior's
    row of it or failure."""
    grids, (rows,) = bayes._posterior_grids([dataset], [p.family for p in priors], config)
    return grids, rows


def grid_views(grids, rows):
    """Each row's PosteriorGrid, a row of the layout, or the row's failure."""
    return [row if isinstance(row, Exception) else PosteriorGrid(grids, row) for row in rows]


def built_rows(rows):
    """The rows whose grid was built, without the failures."""
    return [row for row in rows if not isinstance(row, Exception)]


def ladder_for(dataset):
    """The dataset's octave ladder and the index of its scan start (every
    prior shares s0): its row of a block's ladders, without the 0 in front
    and the padding, whose run from the scan start is its scan probes."""
    s0 = math.sqrt(bind_prior(named_prior("uniform"), dataset).s0_sq)
    ladders, probes, last = bayes._tau_ladders(dataset.effects[None], dataset.variances[None], [s0])
    ladder = ladders[0, 1:][np.isfinite(ladders[0, 1:])]
    start = len(ladder) - 1 - int(last[0])
    np.testing.assert_array_equal(probes[0, : last[0] + 1], ladder[start:])
    return ladder, start


_GL16 = roots_legendre(16)


def fixed_grid(dataset, name, tau_max, panels=1024):
    """The posterior on a fixed composite rule over w in (0, w_max) - the
    16-point Gauss-Legendre rule on each of 1024 panels - as the reference.
    The panel ends are Chebyshev-spaced, w_max (1 - cos(pi k / 1024)) / 2,
    so they crowd both ends of the range the way the nodes of one
    16384-point rule do: at SE ratios down to 1e-4 the mass sits within
    1e-4 of w = 1, where equal panels in w would miss it. It is a layout
    of one row, normalised as the engine normalises its grids."""
    prior = bind_prior(named_prior(name), dataset)
    c = math.sqrt(prior.s0_sq)
    w_max = math.sqrt(tau_max / (c + tau_max))
    ends = 0.5 * w_max * (1.0 - np.cos(np.pi * np.arange(panels + 1) / panels))
    half = 0.5 * np.diff(ends)[:, None]
    w = (0.5 * (ends[:-1] + ends[1:]))[:, None] + half * _GL16[0]  # a row per panel
    tau = c * w**2 / (1.0 - w**2)
    quad_weights = half * _GL16[1] * 2.0 * c * w / (1.0 - w**2) ** 2
    terms = bayes._Block([dataset], 10_000.0).loglik(np.zeros(panels, dtype=np.intp), tau)
    tau, quad_weights, loglik, cond_mean, cond_var = (
        x.ravel() for x in (tau, quad_weights, *terms)
    )
    log_post = log_prior_kernel(prior, tau) + loglik
    log_mass = log_post + np.log(quad_weights)
    log_norm = float(log_mass.max())
    log_norm += math.log(float(np.exp(log_mass - log_norm).sum()))
    weights = quad_weights * np.exp(log_post - log_norm)
    arrays = np.array([tau, quad_weights, log_post, cond_mean, cond_var])
    tails = [(log_norm, name, tau_max, 0.0)]
    return PosteriorGrid(bayes._Grids(arrays, weights, np.array([len(tau)]), tails), 0)


def max_endpoint_diff(grid, reference):
    diff = 0.0
    for interval in (prediction_interval, credible_interval_mu):
        a, b = interval(grid), interval(reference)
        diff = max(diff, abs(a.lower - b.lower), abs(a.upper - b.upper))
    return diff


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.mu_prior_var == 10_000.0
        assert cfg.cdf_tolerance == 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(cdf_tolerance=0.0)
        with pytest.raises(ValueError):
            EngineConfig(mu_prior_var=-1.0)
        for tol in (0.5, float("nan")):
            with pytest.raises(ValueError):
                EngineConfig(cdf_tolerance=tol)
        # an infinite S gives -inf at every tau: S must be positive and finite
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                EngineConfig(mu_prior_var=bad)


def engine_loglik(dataset, tau):
    """The engine's marginal log likelihood of the dataset at a scalar or
    1-d tau: bayes._loglik_terms on the arrays and shapes that
    _Block.loglik passes it for one row on the dataset. _Block itself binds
    prior constants, which one-study datasets do not have."""
    y, sigma_sq = dataset.effects, dataset.variances
    c = bayes._weighted_mean(y, sigma_sq)
    t = np.atleast_1d(np.asarray(tau, dtype=float))[None]
    column = (-1, 1, 1)
    loglik, _, _ = bayes._loglik_terms(
        (y - c).reshape(column), sigma_sq.reshape(column), np.array([[c]]), t, 10_000.0
    )
    return float(loglik[0, 0]) if np.ndim(tau) == 0 else loglik[0]


class TestMarginalLoglik:
    def test_single_study_convolution_identity(self):
        # integrating the mean out of one N(y; mu, v) against N(mu; 0, S)
        # must give N(y; 0, v + S)
        ds = MetaDataset.from_arrays([0.0], [1.0])
        assert engine_loglik(ds, 0.0) == pytest.approx(
            stats.norm.logpdf(0.0, 0.0, math.sqrt(10001.0)), rel=1e-12
        )
        ds2 = MetaDataset.from_arrays([1.7], [0.4])
        assert engine_loglik(ds2, 0.8) == pytest.approx(
            stats.norm.logpdf(1.7, 0.0, math.sqrt(0.16 + 0.64 + 10_000.0)), rel=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 1, 6)
        s = rng.uniform(0.2, 1.0, 6)
        perm = rng.permutation(6)
        a = engine_loglik(MetaDataset.from_arrays(y, s), 0.7)
        b = engine_loglik(MetaDataset.from_arrays(y[perm], s[perm]), 0.7)
        assert a == pytest.approx(b, rel=1e-14)

    def test_against_numeric_mu_integration(self):
        ds = MetaDataset.from_arrays([0.0, 0.0], [1.0, 1.0])
        assert engine_loglik(ds, 1.0) == pytest.approx(
            loglik_by_mu_integration(ds, 1.0), abs=1e-8
        )
        ds2 = MetaDataset.from_arrays([0.4, -0.3, 1.2], [0.5, 0.9, 0.3])
        assert engine_loglik(ds2, 0.35) == pytest.approx(
            loglik_by_mu_integration(ds2, 0.35), abs=1e-8
        )

    def test_large_offset_matches_exact_arithmetic(self):
        # effects near 1000 with SEs of 1e-5: the uncentred quadratic form
        # sum(y^2/v) - (sum(y/v))^2/prec cancelled terms of ~4e16, leaving
        # log_post with noise of order 10. The reference computes the
        # quadratic form in exact rationals; the log terms are well
        # conditioned in floating point.
        ds = MetaDataset.from_arrays(
            [1000.0, 1000.00001, 999.99999, 1000.000005], [1e-5] * 4
        )
        grid = grid_for(ds, "jeffreys")
        y = [Fraction(v) for v in ds.effects]
        big_s = Fraction(10_000)
        worst = 0.0
        for k in np.linspace(0, len(grid.nodes) - 1, 40).astype(int):
            tau = float(grid.nodes[k])
            v = [Fraction(s) + Fraction(tau) ** 2 for s in ds.variances]
            prec = sum(1 / vi for vi in v) + 1 / big_s
            lin = sum(yi / vi for yi, vi in zip(y, v))
            quad_form = sum(yi * yi / vi for yi, vi in zip(y, v)) - lin * lin / prec
            log_post = math.fsum(
                [-0.5 * math.log(vi) for vi in v]
                + [
                    -0.5 * len(v) * math.log(2.0 * math.pi),
                    -0.5 * math.log(big_s * prec),
                    -0.5 * float(quad_form),
                    0.5 * math.log(sum(float(tau / vi) ** 2 for vi in v)),  # jeffreys
                ]
            )
            worst = max(worst, abs(log_post - grid.log_post[k]))
        assert worst <= 1e-6

    def test_vectorized(self):
        taus = np.array([0.0, 0.5, 2.0])
        vec = engine_loglik(SPREAD, taus)
        assert vec.shape == (3,)
        for t, v in zip(taus, vec):
            assert v == pytest.approx(engine_loglik(SPREAD, float(t)), rel=1e-14)


class TestPosteriorGrid:
    def test_normalization_is_exact(self):
        for name in ("uniform", "sqrt", "jeffreys", "proper2"):
            grid = grid_for(SPREAD, name)
            assert abs(grid.posterior_weights().sum() - 1.0) < 1e-10

    def test_a_grid_is_a_read_only_row_of_its_layout(self):
        # the arrays are views of the layout that the intervals read: a
        # write would leave the grid out of step with its mixtures
        grid = grid_for(README_DATA, "jeffreys")
        unpickled = pickle.loads(pickle.dumps(grid))  # and so is a copy
        assert prediction_interval(unpickled) == prediction_interval(grid)
        for g in (grid, unpickled):
            for array in (g.nodes, g.cond_var, g.posterior_weights()):
                with pytest.raises(ValueError):
                    array[0] = 1.0
            with pytest.raises(AttributeError):
                g.nodes = g.nodes.copy()

    def test_posterior_weights_are_the_normalised_masses(self):
        for name in NAMED_PRIORS:
            grid = grid_for(README_DATA, name)
            want = grid.quad_weights * np.exp(grid.log_post - grid.log_norm)
            assert grid.posterior_weights().tobytes() == want.tobytes(), name

    def test_conditional_variance_bounded_by_mu_prior(self):
        grid = grid_for(SPREAD, "uniform")
        assert np.all(grid.cond_var <= 10_000.0)

    def test_symmetric_data_centers_at_zero(self):
        grid = grid_for(SYMMETRIC, "jeffreys")
        assert np.max(np.abs(grid.cond_mean)) <= 1e-12

    def test_nodes_increasing_and_positive(self):
        grid = grid_for(SPREAD, "dumouchel")
        assert grid.nodes[0] > 0.0
        assert np.all(np.diff(grid.nodes) > 0)
        assert np.all(grid.quad_weights > 0)

    def test_tail_density_below_cut(self):
        for name in ("jeffreys", "dumouchel", "proper2"):
            grid = grid_for(SPREAD, name)
            dens = grid.log_post
            assert dens[-1] <= dens.max() + math.log(1e-10) + 1e-9, name

    def test_proper_uniform_nodes_inside_support(self):
        grid = grid_for(SPREAD, "proper1")
        assert grid.nodes.max() <= 10.0

    def test_posterior_mu_variance_matches_oracle(self):
        # the flat prior on this 3-study set has an infinite posterior
        # second moment in tau (tau^-3 tail), so E[tau^2] is a truncation
        # artifact at any resolution; Var(mu | y) is the moment that exists
        grid = grid_for(SPREAD, "uniform")
        _, var_mu, _ = posterior_tau_moments(grid)
        _, oracle_var_mu, _ = oracle_tau_moments(SPREAD, named_prior("uniform"), nodes=400_000)
        assert var_mu == pytest.approx(oracle_var_mu, rel=1e-4)

    def test_posterior_tau2_mean_matches_oracle(self):
        # a 6-study set gives a tau^-5 tail, so every moment here is finite
        rng = np.random.default_rng(4)
        ds = MetaDataset.from_arrays(
            rng.uniform(-2, 2, 6), np.sqrt(rng.uniform(0.009, 0.6, 6))
        )
        grid = grid_for(ds, "uniform")
        mean_tau2, _, _ = posterior_tau_moments(grid)
        oracle_mean, _, _ = oracle_tau_moments(ds, named_prior("uniform"), nodes=400_000)
        assert mean_tau2 == pytest.approx(oracle_mean, rel=1e-4)

    def test_needs_two_studies(self):
        ds = MetaDataset.from_arrays([1.0], [1.0])
        prior = bind_prior(named_prior("uniform"), SPREAD)
        with pytest.raises(ValueError):
            build_posterior_grid(ds, prior)

    def test_improper_posterior_raises(self):
        ds = MetaDataset.from_arrays([0.0, 1.0], [0.3, 0.4])
        prior = bind_prior(PriorFamily("power", a=3.0), ds)
        with pytest.raises(DivergedPosteriorError, match="appears improper") as err:
            build_posterior_grid(ds, prior)
        assert err.value.prior_name == "power(3)"

    def test_scan_failure_on_large_offset_names_the_mean_prior(self):
        # effects near 1000 sit 10 SDs out under N(0, 10000); the tau prior
        # is proper and the posterior is fine under a wide mean prior
        ds = MetaDataset.from_arrays(
            [1000.0047, 999.9920, 1000.0096], [0.0021, 0.0063, 0.0061]
        )
        with pytest.raises(DivergedPosteriorError, match="mu_prior_var") as err:
            grid_for(ds, "proper2")
        assert err.value.prior_name == "proper2"
        assert "lies 10 SDs from 0 under the N(0, 10000) mean prior" in str(err.value)
        wide = prediction_interval(grid_for(ds, "proper2", EngineConfig(mu_prior_var=1e12)))
        assert (wide.lower, wide.upper) == pytest.approx((999.84, 1000.17), abs=0.01)

    def test_rising_tail_beyond_1e17_does_not_read_as_decayed(self):
        # once |log_h| > ~1e17, a 23-nat cut added to the running peak
        # rounds away, so the scan compares log_h - running peak with it.
        # README data x 1e-16: jeffreys still decays; the inverse-gamma
        # posteriors used to return weights summing to 4.8e-21
        tiny = MetaDataset.from_arrays(README_DATA.effects * 1e-16, README_DATA.std_errs * 1e-16)
        assert grid_for(tiny, "jeffreys").posterior_weights().sum() == pytest.approx(1.0)
        for name in ("proper2", "proper3"):
            with pytest.raises(DivergedPosteriorError, match="does not decay"):
                grid_for(tiny, name)
        # a power prior with a huge exponent returned weights summing to 8.9e-5
        for a in (1e20, 1e100, 1e300):
            prior = bind_prior(PriorFamily("power", a=a), README_DATA)
            with pytest.raises(DivergedPosteriorError, match="does not decay"):
                build_posterior_grid(README_DATA, prior)

    def test_unresolvable_log_norm_raises(self):
        # log Z = -4.7e16: eps x |log Z| = 10.5 nats of rounding in every
        # log_post - log_norm, and the weights summed to 10
        ds = MetaDataset.from_arrays(
            [-6.55e21, -1.03e22, 1.52e21, 3.07e21, -3.63e21, -4.64e21, -9.45e20, 8.98e21,
             -8.44e21, 8.98e18, 1.64e21, 2.72e21, 8.44e21, 5.68e21, 2.08e21],
            [5.39e14, 3.99e16, 1.58e18, 8.18e17, 4.0e13, 1.12e15, 3.09e15, 4.87e16,
             5.75e15, 1.52e15, 3.32e15, 7.0e16, 2.87e13, 6.12e15, 3.63e18],
        )
        with pytest.raises(DivergedPosteriorError, match="log Z = -4.744e"):
            grid_for(ds, "proper1")

    def test_grid_beyond_what_w_resolves_fails(self):
        # SEs of 1.6e-16: proper1's support (0, 10) ends far past tau = s0 /
        # eps, where w = sqrt(tau / (s0 + tau)) rounds to 1, so nodes there
        # are infinite and the refinement cannot estimate its error; the
        # grid's last kept node sat at tau = 0.72 with quad_error NaN
        ds = MetaDataset.from_arrays([0.12, -0.4, 0.61], [1.6e-16] * 3)
        with np.errstate(all="ignore"), pytest.raises(DivergedPosteriorError, match="not finite"):
            grid_for(ds, "proper1")

    def test_weights_that_miss_one_fail(self):
        # log Z = -3.1e9 passes the _MAX_ABS_LOG_NORM bound, but rounding in
        # log_post - log_norm leaves the weights summing to 1 + 8.8e-8, five
        # times the grid's quad_error
        ds = MetaDataset.from_arrays(
            [7.6e12, 5e11, 8.3e12, -9.1e12, -9.4e12, -9.6e12, -4.9e12, -5e12, -6.2e12,
             1.3e12, -9.2e12, 1.8e12, -6.7e12],
            [1.2e8, 1.9e12, 2.42e9, 1.04668e12, 2.189e10, 3.0726e11, 6.96e10, 4.406e10,
             7.6e8, 3.1e10, 1.8e8, 2.7914e11, 1.29142e12],
        )
        config = EngineConfig(mu_prior_var=1.6e47)
        with pytest.raises(DivergedPosteriorError, match="weights for prior 'proper1' miss 1 by"):
            grid_for(ds, "proper1", config)

    def test_prior_bound_to_other_dataset_raises(self):
        # jeffreys, dumouchel and i2 read the bound variances; a prior bound
        # to three studies with SEs 2-3 moved the README interval silently
        other = MetaDataset.from_arrays([0.1, 0.5, -0.3], [2.0, 2.5, 3.0])
        for name in ("jeffreys", "dumouchel", "i2"):
            prior = bind_prior(named_prior(name), other)
            with pytest.raises(ValueError, match="bound to other within-study variances"):
                build_posterior_grid(README_DATA, prior)


class TestPredictiveCdf:
    def test_limits(self):
        grid = grid_for(SPREAD, "jeffreys")
        top = float(np.max(grid.cond_mean + 50.0 * np.sqrt(grid.cond_var + grid.nodes**2)))
        assert predictive_cdf(grid, top) >= 1.0 - 1e-12
        bottom = float(np.min(grid.cond_mean - 50.0 * np.sqrt(grid.cond_var + grid.nodes**2)))
        assert predictive_cdf(grid, bottom) <= 1e-12

    def test_symmetry(self):
        grid = grid_for(SYMMETRIC, "uniform")
        assert predictive_cdf(grid, 0.0) == pytest.approx(0.5, abs=1e-10)

    def test_monotone(self):
        grid = grid_for(SPREAD, "shrinkage")
        xs = np.linspace(-8, 8, 33)
        vals = [predictive_cdf(grid, x) for x in xs]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestIntervals:
    def test_symmetric_data_gives_symmetric_intervals(self):
        grid = grid_for(SYMMETRIC, "dumouchel")
        iv = prediction_interval(grid)
        assert iv.lower == pytest.approx(-iv.upper, abs=1e-6)
        cv = credible_interval_mu(grid)
        assert cv.lower == pytest.approx(-cv.upper, abs=1e-6)

    def test_prediction_matches_oracle(self):
        fam = named_prior("jeffreys")
        grid = grid_for(SPREAD, "jeffreys")
        iv = prediction_interval(grid, 0.95)
        lo, hi = interval_from_mixture(
            oracle_mixture(SPREAD, fam, nodes=400_000), 0.95, "prediction"
        )
        assert iv.lower == pytest.approx(lo, abs=1e-4)
        assert iv.upper == pytest.approx(hi, abs=1e-4)

    def test_credible_matches_oracle(self):
        fam = named_prior("uniform")
        grid = grid_for(SPREAD, "uniform")
        cv = credible_interval_mu(grid, 0.95)
        lo, hi = interval_from_mixture(
            oracle_mixture(SPREAD, fam, nodes=400_000), 0.95, "credible"
        )
        assert cv.lower == pytest.approx(lo, abs=1e-4)
        assert cv.upper == pytest.approx(hi, abs=1e-4)

    def test_method_tag_carries_prior_name(self):
        grid = grid_for(SPREAD, "berger-deely")
        assert prediction_interval(grid).method == "berger-deely"
        assert credible_interval_mu(grid).kind == "credible"
        assert prediction_interval(grid).kind == "prediction"

    def test_jeffreys_berger_deely_concordance_for_equal_variances(self):
        ds = MetaDataset.from_arrays([-0.5, 0.2, 0.9, 1.4], [0.7] * 4)
        iv_j = prediction_interval(grid_for(ds, "jeffreys"))
        iv_b = prediction_interval(grid_for(ds, "berger-deely"))
        assert iv_j.lower == pytest.approx(iv_b.lower, abs=1e-6)
        assert iv_j.upper == pytest.approx(iv_b.upper, abs=1e-6)

    def test_credible_never_wider_than_prediction(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            ds = random_dataset(rng, n_lo=3, n_hi=6)
            grid = grid_for(ds, "dumouchel")
            assert credible_interval_mu(grid).width <= prediction_interval(grid).width + 1e-12

    def test_level_validation(self):
        grid = grid_for(SPREAD, "uniform")
        with pytest.raises(ValueError):
            prediction_interval(grid, 0.0)
        with pytest.raises(ValueError):
            credible_interval_mu(grid, 1.0)

    def test_width_increases_with_level(self):
        grid = grid_for(SPREAD, "jeffreys")
        widths = [prediction_interval(grid, lvl).width for lvl in (0.5, 0.9, 0.99)]
        assert widths[0] < widths[1] < widths[2]

    def test_cdf_tolerance_validation(self):
        # the same rule as EngineConfig; a NaN tolerance used to return a
        # zero-width interval at the mixture mean
        grid = grid_for(README_DATA, "jeffreys")
        for tol in (float("nan"), 0.5, 1e-2, 0.0, -1e-8):
            with pytest.raises(ValueError, match="cdf_tolerance"):
                prediction_interval(grid, 0.95, cdf_tolerance=tol)
            with pytest.raises(ValueError, match="cdf_tolerance"):
                credible_interval_mu(grid, 0.95, cdf_tolerance=tol)

    def test_empty_batch_gives_no_intervals(self):
        # an empty inversion batch still checks its level and tolerance
        grids, _ = dataset_batch(README_DATA, [], EngineConfig())
        assert bayes._mixture_intervals(grids, [], 0.95, 1e-8) == []
        with pytest.raises(ValueError, match="level"):
            bayes._mixture_intervals(grids, [], 1.5, 1e-8)
        with pytest.raises(ValueError, match="cdf_tolerance"):
            bayes._mixture_intervals(grids, [], 0.95, 0.5)


class TestMoments:
    def test_tiny_support_forces_tau_to_zero(self):
        prior = bind_prior(PriorFamily("proper-uniform", hi=1e-6), SPREAD)
        grid = build_posterior_grid(SPREAD, prior)
        mean_tau2, _, _ = posterior_tau_moments(grid)
        assert mean_tau2 <= 1e-12

    def test_variance_decomposition_identity(self):
        rng = np.random.default_rng(3)
        cases = [(random_dataset(rng), name, None) for name in ("uniform", "sqrt", "proper3")]
        # effects shifted by 1e5: a raw-moment E[x^2] - E[x]^2 cancels here
        shifted = MetaDataset.from_arrays(README_DATA.effects + 1e5, README_DATA.std_errs)
        wide = EngineConfig(mu_prior_var=1e12)
        cases += [(shifted, name, wide) for name in ("uniform", "jeffreys")]
        for ds, name, config in cases:
            grid = grid_for(ds, name, config)
            mean_tau2, var_mu, var_pred = posterior_tau_moments(grid)
            assert var_pred - var_mu - mean_tau2 == pytest.approx(
                0.0, abs=1e-8 * var_pred
            )

    def test_moments_match_oracle(self):
        # dumouchel's tau^-2 prior tail keeps all three moments finite here
        fam = named_prior("dumouchel")
        grid = grid_for(SPREAD, "dumouchel")
        got = posterior_tau_moments(grid)
        want = oracle_tau_moments(SPREAD, fam, nodes=400_000)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-4, abs=1e-6)


class TestAdaptivePanels:
    def test_extreme_se_ratios_match_16384_nodes(self):
        # SEs log-uniform on [1e-4, 1]: a fixed 2048-node rule missed the
        # 16384-node endpoints here by up to 6.7e-4
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 31))
            se = np.exp(rng.uniform(math.log(1e-4), 0.0, n))
            ds = MetaDataset.from_arrays(rng.uniform(-2, 2, n), se)
            for name in NAMED_PRIORS:
                grid = grid_for(ds, name)
                reference = fixed_grid(ds, name, grid.tau_max)
                assert max_endpoint_diff(grid, reference) <= 1e-4, (n, name)

    @given(
        st.integers(2, 19).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
                st.lists(st.floats(-4.0, 1.0), min_size=n, max_size=n),
            )
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_se_ratios_match_16384_nodes(self, data):
        # SEs 0.1 x 10^u, u uniform on [-4, 1] (ratios 1e-4..10), against
        # the 16384-node reference: endpoints within 1e-4 of the width (5e-10
        # seen on 439 random grids), and E[tau^2] within 5 x quad_error
        # (+1e-12) relative - quad_error estimates that error but is not a
        # strict bound: up to 1.9 x quad_error was seen
        effects, exponents = data
        ds = MetaDataset.from_arrays(effects, 0.1 * 10.0 ** np.array(exponents))
        for name in NAMED_PRIORS:
            try:
                grid = grid_for(ds, name)
            except DivergedPosteriorError:
                continue  # improper for this dataset (n = 2 under a flat prior)
            reference = fixed_grid(ds, name, grid.tau_max)
            for interval in (prediction_interval, credible_interval_mu):
                a, b = interval(grid), interval(reference)
                tol = 1e-4 * (b.upper - b.lower)
                assert abs(a.lower - b.lower) <= tol and abs(a.upper - b.upper) <= tol, name
            e_tau2, ref_tau2 = posterior_tau_moments(grid)[0], posterior_tau_moments(reference)[0]
            assert abs(e_tau2 - ref_tau2) <= (5.0 * grid.quad_error + 1e-12) * ref_tau2, name

    def test_inv_gamma_spike_refines_first_panel(self):
        # x10-scale data: proper2's exp(-0.001 / tau^2) factor rises near
        # tau = 0.04, inside the first panel; 32 nodes there missed the
        # endpoints by 1.5e-4, so the error estimate must bisect that panel
        ds = MetaDataset.from_arrays(
            [10.23569657884223, -7.1375305131622255, 4.439565395320918],
            [6.804794866432826, 6.157503277074804, 5.303458642770115],
        )
        grid = grid_for(ds, "proper2")
        ladder, _ = ladder_for(ds)
        assert ladder[0] < grid.tau_max
        assert np.sum(grid.nodes < ladder[0]) > 2 * bayes._PANEL_ORDER
        assert max_endpoint_diff(grid, fixed_grid(ds, "proper2", grid.tau_max)) <= 1e-6

    def test_quad_error_within_tolerance(self):
        for name in NAMED_PRIORS:
            grid = grid_for(README_DATA, name)
            assert 0.0 <= grid.quad_error <= 1e-8 / 100, name
            assert len(grid.nodes) < 16384
            assert grid.nodes[-1] < grid.tau_max

    def test_node_cap_returns_grid(self):
        # a tolerance below double-precision rounding can never be met, so
        # refinement runs into the node cap; the grid still comes back and
        # quad_error reports the shortfall
        config = EngineConfig(cdf_tolerance=1e-300)
        grid = grid_for(README_DATA, "jeffreys", config)
        assert len(grid.nodes) <= 16384
        assert grid.quad_error > 1e-302
        assert abs(grid.posterior_weights().sum() - 1.0) < 1e-10
        default = prediction_interval(grid_for(README_DATA, "jeffreys"))
        capped = prediction_interval(grid)
        assert abs(capped.lower - default.lower) < 1e-6
        assert abs(capped.upper - default.upper) < 1e-6

    def test_grids_keep_whole_panels_under_the_cap(self):
        # every accepted panel keeps its _PANEL_ORDER whole-rule nodes, and
        # the cap counts kept nodes, also when it stops the refinement
        rng = np.random.default_rng(43)
        cases = [(random_dataset(rng), EngineConfig()) for _ in range(4)]
        cases.append((README_DATA, EngineConfig(cdf_tolerance=1e-300)))
        for ds, config in cases:
            priors = [bind_prior(named_prior(name), ds) for name in NAMED_PRIORS]
            for grid in grid_views(*dataset_batch(ds, priors, config)):
                count = len(grid.nodes)
                assert count % bayes._PANEL_ORDER == 0, grid.prior_name
                assert count <= bayes._MAX_GRID_NODES, grid.prior_name
        # the cap stops a pass that would at most double the kept nodes
        capped = grid_for(README_DATA, "jeffreys", EngineConfig(cdf_tolerance=1e-300))
        assert len(capped.nodes) > bayes._MAX_GRID_NODES // 2
        # no panel of this grid is bisected: one 16-point rule per panel
        grid = grid_for(README_DATA, "jeffreys")
        ladder, _ = ladder_for(README_DATA)
        panels = np.sum(ladder < grid.tau_max) + 1  # cut at 0, the ladder and tau_max
        assert len(grid.nodes) == bayes._PANEL_ORDER * panels

    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
                st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
            )
        ),
        st.sampled_from(list(NAMED_PRIORS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_sum_to_one_within_quad_error(self, data, name):
        # log_norm is the mass of the kept nodes, so the normalised weights
        # sum to 1 up to the grid's own error estimate and rounding
        ds = MetaDataset.from_arrays(*data)
        try:
            grid = grid_for(ds, name)
        except DivergedPosteriorError:
            return  # improper for this dataset (e.g. n = 2 under a flat prior)
        assert abs(grid.posterior_weights().sum() - 1.0) <= grid.quad_error + 1e-13

    def test_breaks_extend_the_scan_ladder(self):
        # one octave ladder: the scan probes it from max(s0, sd(y)) up to
        # the cap 1e6 x s0, and the panel breaks reach down to a quarter of
        # the smallest SE
        s0 = math.sqrt(bind_prior(named_prior("uniform"), README_DATA).s0_sq)
        ladder, start = ladder_for(README_DATA)
        assert start > 0
        assert ladder[start] == max(s0, float(np.std(README_DATA.effects, ddof=1)))
        assert ladder[0] <= 0.25 * README_DATA.std_errs.min() < ladder[1]
        assert ladder[-1] == 1e6 * s0 and ladder[-2] < ladder[-1] <= 2.0 * ladder[-2]
        np.testing.assert_array_equal(ladder[1:-1] / ladder[:-2], 2.0)

    def test_ragged_scan_equals_the_scan_of_each_dataset(self):
        # one _scan_tau_max call over ladders of 12, 31 and 20 probes, padded
        # as _posterior_grids pads them, equals the scan of each dataset
        # alone (oracles.dataset_scan) bit for bit, on five curves: one
        # that decays early, one that rises to the cap (never decays: NaN),
        # one of -inf (an overflowing likelihood: NaN), a log-normal bump,
        # and a tail ~ tau^-1.2, too heavy for the tail test, which on the
        # 20-probe ladder falls 15.8 nats by the cap: past half the cut, but
        # not the full cut, so it takes the cap as a heavy integrable tail
        ladders = []
        for start, size in ((0.3, 12), (1e-3, 31), (5.0, 20)):
            ladder = start * 2.0 ** np.arange(size)
            ladder[-1] *= 0.75  # the cap clips the last point
            ladders.append(ladder)

        def curves(tau):
            x = tau / tau[0]
            return np.stack(
                [
                    -0.5 * (x / 4.0) ** 2,
                    2.0 * np.log(x),
                    np.full(len(x), -np.inf),
                    -2.0 * np.log(x / 16.0) ** 2,
                    -1.2 * np.log(x),
                ]
            )

        width = max(map(len, ladders))
        probes = np.array(
            [np.concatenate((t, np.full(width + 1 - len(t), 2.0 * t[-1] - t[-2]))) for t in ladders]
        )
        log_h = np.full((5, len(ladders), width), np.nan)
        for i, ladder in enumerate(ladders):
            log_h[:, i, : len(ladder)] = curves(ladder)
        last = np.array([len(ladder) - 1 for ladder in ladders])
        ragged = bayes._scan_tau_max(log_h, probes, last)
        for i, ladder in enumerate(ladders):
            alone = dataset_scan(curves(ladder), ladder)
            assert ragged[:, i].tobytes() == alone.tobytes()
        caps = np.array([ladder[-1] for ladder in ladders])
        assert np.all(ragged[[0, 3]] < caps)  # decayed inside the ladder
        assert np.isnan(ragged[[1, 2]]).all()
        heavy = curves(ladders[2])[4]
        assert math.log(1e-10) < heavy[-1] - heavy.max() <= 0.5 * math.log(1e-10)
        assert ragged[4, 2] == caps[2]


class TestConvergenceProperties:
    def test_grid_refinement_stability(self):
        rng = np.random.default_rng(17)
        tight = EngineConfig(cdf_tolerance=1e-10)
        for _ in range(3):
            ds = random_dataset(rng)
            for name in ("sqrt", "jeffreys", "proper2"):
                iv_a = prediction_interval(grid_for(ds, name))
                iv_b = prediction_interval(grid_for(ds, name, tight))
                assert abs(iv_a.lower - iv_b.lower) < 1e-5
                assert abs(iv_a.upper - iv_b.upper) < 1e-5

    @given(
        st.integers(2, 19).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
                st.lists(st.floats(0.1, 0.8), min_size=n, max_size=n),
            )
        ),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_translation_equivariance_with_wide_mu_prior(self, data, k):
        # exact equivariance only holds as the N(0, S) mean prior flattens
        # out; with S = 1e12 >> (k + data scale)^2 every prior's prediction
        # and credible intervals shift by k, within 1e-4 of their width; a
        # prior that is improper for the data (n = 2) fails on both
        ds = MetaDataset.from_arrays(*data)
        moved = MetaDataset.from_arrays(ds.effects + k, ds.std_errs)
        names, intervals = [], []
        for d in (ds, moved):
            priors = [bind_prior(family, d) for family in NAMED_PRIORS.values()]
            grids, rows = dataset_batch(d, priors, EngineConfig(mu_prior_var=1e12))
            rows = built_rows(rows)
            names.append([PosteriorGrid(grids, row).prior_name for row in rows])
            requests = [(row, predictive) for row in rows for predictive in (True, False)]
            intervals.append(bayes._mixture_intervals(grids, requests, 0.95, 1e-8))
        assert names[0] == names[1]
        for a, b in zip(*intervals):
            tol = 1e-4 * (a.upper - a.lower)
            assert abs((b.lower - k) - a.lower) <= tol, (a, b)
            assert abs((b.upper - k) - a.upper) <= tol, (a, b)

    @given(
        st.integers(3, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
                st.lists(st.floats(0.1, 0.8), min_size=n, max_size=n),
            )
        ),
        st.integers(-20, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, data, j):
        # effects and SEs times k = 2^j, the mean prior's variance times k^2:
        # hts scales exactly (a power of 2 rescales without rounding) and the
        # scale-free priors' intervals within 1e-8 of their width; proper1-3
        # fix an absolute tau scale and are left out
        k = 2.0**j
        ds = MetaDataset.from_arrays(*data)
        scaled = MetaDataset.from_arrays(k * ds.effects, k * ds.std_errs)
        base, moved = hts_interval(ds), hts_interval(scaled)
        assert (moved.lower, moved.upper) == (k * base.lower, k * base.upper)
        names = [name for name in NAMED_PRIORS if not name.startswith("proper")]
        intervals = []
        for d, mu_prior_var in ((ds, 1e4), (scaled, 1e4 * k * k)):
            priors = [bind_prior(named_prior(name), d) for name in names]
            grids, rows = dataset_batch(d, priors, EngineConfig(mu_prior_var=mu_prior_var))
            requests = [(row, predictive) for row in rows for predictive in (True, False)]
            intervals.append(bayes._mixture_intervals(grids, requests, 0.95, 1e-8))
        for a, b in zip(*intervals):
            tol = 1e-8 * (a.upper - a.lower)
            assert abs(b.lower / k - a.lower) <= tol, (a, b)
            assert abs(b.upper / k - a.upper) <= tol, (a, b)


def bisect_mixture(means, sds, weights, prob, tol_width):
    """Plain bisection on the full mixture CDF, the reference for Newton."""

    def cdf(x):
        return float(np.sum(weights * ndtr((x - means) / sds)))

    lo = float(np.min(means - 40.0 * sds))
    hi = float(np.max(means + 40.0 * sds))
    assert cdf(lo) <= prob <= cdf(hi)
    while hi - lo > tol_width:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mixture_of(grid, kind):
    var = grid.cond_var + grid.nodes**2 if kind == "prediction" else grid.cond_var
    return grid.cond_mean, np.sqrt(var), grid.posterior_weights()


def endpoint_tolerance(grid, kind, cdf_tolerance=1e-8):
    m, s, pi = mixture_of(grid, kind)
    mean = float(np.sum(pi * m))
    return cdf_tolerance * math.sqrt(float(np.sum(pi * (s**2 + (m - mean) ** 2))))


def invert_one(means, sds, weights, prob, tol_width):
    """One root of the batched Newton inversion, started from the mixture's
    own mean and SD as the engine sums them; its failure is raised."""
    segment = np.array([0])
    center = np.add.reduceat(weights * means, segment)
    var = np.add.reduceat(weights * (sds * sds + (means - center) ** 2), segment)
    sd = np.sqrt(np.maximum(var, 1e-300))
    (root,) = bayes._invert_mixture_cdfs(
        means, sds, weights, np.array([len(means)]), np.array([prob]), np.array([tol_width]),
        center, sd,
    )
    if isinstance(root, Exception):
        raise root
    return root


def count_cdf_evaluations(monkeypatch):
    """Per inversion batch, the number of mixture-CDF evaluations: each
    Newton pass is one ndtr call over the components of the rows still
    open, so a batch's count is the largest count of any of its endpoints."""
    calls = []
    real_ndtr, real_invert = bayes.ndtr, bayes._invert_mixture_cdfs

    def counting_ndtr(z):
        calls[-1] += 1
        return real_ndtr(z)

    def counting_invert(*args):
        calls.append(0)
        return real_invert(*args)

    monkeypatch.setattr(bayes, "ndtr", counting_ndtr)
    monkeypatch.setattr(bayes, "_invert_mixture_cdfs", counting_invert)
    return calls


class TestMixtureInversion:
    @pytest.mark.parametrize("prob", [1e-6, 0.025, 0.5, 0.975])
    def test_single_component_is_normal_quantile(self, prob):
        m, s = np.array([1.3]), np.array([0.7])
        tol_width = 1e-9
        x = invert_one(m, s, np.array([1.0]), prob, tol_width)
        assert abs(x - (1.3 + 0.7 * float(ndtri(prob)))) <= tol_width

    @pytest.mark.parametrize("prob", [0.5 - 1e-10, 0.5 + 1e-10, 0.75])
    def test_separated_components_fall_back_to_bisection(self, prob):
        # at p = 0.5 exactly the double-precision CDF is flat at 0.5 over
        # about (-41, 41), so the root is moved just off the plateau: it
        # lies near +-43.75, where the density at the Newton start (x ~ 0)
        # underflows and every raw Newton step leaves the bracket
        m, s, w = np.array([-50.0, 50.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5])
        tol_width = 1e-6
        got = invert_one(m, s, w, prob, tol_width)
        want = bisect_mixture(m, s, w, prob, tol_width)
        assert abs(got - want) <= tol_width

    def test_probability_one_raises(self):
        m, s, w = np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([0.3, 0.7])
        with pytest.raises(NumericFailure):
            invert_one(m, s, w, 1.0, 1e-8)
        # a level just below 1 rounds the upper tail probability to 1
        with pytest.raises(NumericFailure):
            prediction_interval(grid_for(README_DATA, "sqrt"), 1.0 - 2.0**-53)

    def test_newton_steps_per_endpoint(self, monkeypatch):
        # each mixture-CDF evaluation is one ndtr call over the components;
        # the bracket costs none, and bisection would need about 40
        calls = count_cdf_evaluations(monkeypatch)
        for name in NAMED_PRIORS:
            grid = grid_for(README_DATA, name)
            prediction_interval(grid)
            credible_interval_mu(grid)
        assert len(calls) == 2 * len(NAMED_PRIORS)  # one batch of 2 endpoints each
        assert max(calls) <= 5

    def test_newton_converging_from_one_side_stops(self, monkeypatch):
        # a last Newton step under half an ulp of x rounds x + step onto the
        # bracket end x; rejecting it as outside the bracket fell back to
        # bisection and cost up to 39 CDF evaluations on this draw
        calls = count_cdf_evaluations(monkeypatch)
        rng = np.random.default_rng(11)
        for _ in range(41):
            ds = random_dataset(rng, n_lo=3, n_hi=30)
            for name in NAMED_PRIORS:
                grid = grid_for(ds, name)
                prediction_interval(grid)
                credible_interval_mu(grid)
        assert len(calls) == 41 * 2 * len(NAMED_PRIORS)
        assert max(calls) <= 8

    def test_tolerance_below_float_resolution_terminates(self):
        # bisection to a width under the float spacing of the endpoints
        # never ended; the inversion stops at float resolution instead
        grid = grid_for(README_DATA, "jeffreys")
        tight = prediction_interval(grid, 0.95, cdf_tolerance=1e-300)
        default = prediction_interval(grid, 0.95)
        tol = endpoint_tolerance(grid, "prediction")
        assert abs(tight.lower - default.lower) <= tol
        assert abs(tight.upper - default.upper) <= tol

    def test_large_mean_small_spread_terminates(self):
        # effects near 1000 with SEs of 1e-5: the raw-moment mixture
        # variance cancelled to <= 0 and the bisection tolerance to 1e-158
        ds = MetaDataset.from_arrays(
            [1000.0, 1000.00001, 999.99999, 1000.000005], [1e-5] * 4
        )
        grid = grid_for(ds, "uniform")
        iv = prediction_interval(grid)
        assert 999.9999 < iv.lower < iv.upper < 1000.0001
        assert predictive_cdf(grid, iv.lower) == pytest.approx(0.025, abs=1e-6)
        assert predictive_cdf(grid, iv.upper) == pytest.approx(0.975, abs=1e-6)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(sorted(NAMED_PRIORS)),
        st.sampled_from(["prediction", "credible"]),
        st.sampled_from([1.0, 10.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_endpoints_match_bisection(self, seed, name, kind, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 31))
        ds = MetaDataset.from_arrays(
            scale * rng.uniform(-2, 2, n), scale * np.sqrt(rng.uniform(0.009, 0.6, n))
        )
        grid = grid_for(ds, name)
        interval = (prediction_interval if kind == "prediction" else credible_interval_mu)(grid)
        tol_width = endpoint_tolerance(grid, kind)
        m, s, pi = mixture_of(grid, kind)
        assert abs(interval.lower - bisect_mixture(m, s, pi, 0.025, tol_width)) <= tol_width
        assert abs(interval.upper - bisect_mixture(m, s, pi, 0.975, tol_width)) <= tol_width


GRID_ARRAYS = ("nodes", "quad_weights", "log_post", "cond_mean", "cond_var")


class TestBatch:
    """The block batch (every (dataset, prior) row's grid from shared
    likelihood evaluations, every endpoint in one Newton batch), a
    dataset's batch of one and the public single-prior functions must
    agree bit for bit: a row's result may not depend on which other rows
    share its batch."""

    @pytest.mark.parametrize(
        "scale, config, sizes",
        [
            pytest.param(1.0, EngineConfig(), (3, 4, 7, 15, 31, 64, 100), id="1.0"),
            pytest.param(10.0, EngineConfig(), (3, 4, 7, 15, 31, 64, 100), id="10.0"),
            # every prior refines until the 16384-node cap stops it, each at
            # its own pass, while the other priors of the batch go on
            pytest.param(1.0, EngineConfig(cdf_tolerance=1e-300), (4, 15), id="node-cap"),
        ],
    )
    def test_batch_of_one_equals_batch(self, scale, config, sizes):
        rng = np.random.default_rng(29 if scale == 1.0 else 31)
        for n in sizes:
            ds = MetaDataset.from_arrays(
                scale * rng.uniform(-2, 2, n), scale * np.sqrt(rng.uniform(0.009, 0.6, n))
            )
            priors = [bind_prior(named_prior(name), ds) for name in NAMED_PRIORS]
            grids, rows = dataset_batch(ds, priors, config)
            batch = grid_views(grids, rows)
            requests = [(row, predictive) for row in rows for predictive in (True, False)]
            intervals = iter(bayes._mixture_intervals(grids, requests, 0.95, 1e-8))
            for prior, batched in zip(priors, batch):
                grid = build_posterior_grid(ds, prior, config)
                for field in GRID_ARRAYS:
                    assert np.array_equal(getattr(grid, field), getattr(batched, field)), (
                        n, prior.name, field,
                    )
                assert (grid.log_norm, grid.tau_max, grid.quad_error) == (
                    batched.log_norm, batched.tau_max, batched.quad_error,
                )
                for single in (prediction_interval(grid), credible_interval_mu(grid)):
                    together = next(intervals)
                    assert (single.lower, single.upper) == (together.lower, together.upper)
                    assert single == together

    @pytest.mark.parametrize(
        "scale, config, n",
        [
            pytest.param(1.0, EngineConfig(), 7, id="1.0"),
            pytest.param(10.0, EngineConfig(), 15, id="10.0"),
            pytest.param(1.0, EngineConfig(cdf_tolerance=1e-300), 4, id="node-cap"),
        ],
    )
    def test_block_equals_batches_of_one(self, scale, config, n):
        # blocks of 1-5 datasets with one n: every (dataset, prior) row of
        # the block's one grid batch and one inversion batch equals that
        # dataset's batch of one, failures and their messages included
        # (power(1e308) never decays; the last dataset of a block lies 1e5
        # out, under the N(0, 10000) mean prior)
        rng = np.random.default_rng(47 if scale == 1.0 else 53)
        families = list(NAMED_PRIORS.values()) + [PriorFamily("power", a=1e308)]
        for size in range(1, 6):
            block = [
                MetaDataset.from_arrays(
                    scale * rng.uniform(-2, 2, n), scale * np.sqrt(rng.uniform(0.009, 0.6, n))
                )
                for _ in range(size)
            ]
            if size > 1:
                block[-1] = MetaDataset.from_arrays(block[-1].effects + 1e5, block[-1].std_errs)
            rows = [(ds, bind_prior(family, ds)) for ds in block for family in families]
            with np.errstate(all="ignore"):
                layout, per_dataset = bayes._posterior_grids(block, families, config)
                grids = [grid for rows_of in per_dataset for grid in grid_views(layout, rows_of)]
                alone = [
                    grid
                    for ds in block
                    for grid in grid_views(
                        *dataset_batch(ds, [prior for d, prior in rows if d is ds], config)
                    )
                ]
            assert [len(rows_of) for rows_of in per_dataset] == [len(families)] * size
            last = grids[len(families) - 1 :: len(families)]  # every power(1e308) row
            assert all(isinstance(g, DivergedPosteriorError) for g in last)
            requests = [
                (row, pred)
                for rows_of in per_dataset
                for row in built_rows(rows_of)
                for pred in (True, False)
            ]
            intervals = iter(bayes._mixture_intervals(layout, requests, 0.95, 1e-8))
            for (ds, prior), together, single in zip(rows, grids, alone):
                if isinstance(single, Exception):
                    assert type(together) is type(single), (size, prior.name)
                    assert str(together) == str(single), (size, prior.name)
                    continue
                for field in GRID_ARRAYS:
                    assert np.array_equal(getattr(single, field), getattr(together, field)), (
                        size, prior.name, field,
                    )
                assert (single.log_norm, single.tau_max, single.quad_error) == (
                    together.log_norm, together.tau_max, together.quad_error,
                )
                # the block's endpoints, and each public call on the row of
                # the block, equal the public calls on the grid built alone
                for call in (prediction_interval, credible_interval_mu):
                    want = call(single)
                    assert next(intervals) == want == call(together), (size, prior.name)
                assert posterior_tau_moments(together) == posterior_tau_moments(single)
                for x in (-1.0, 0.0, 0.7):
                    assert predictive_cdf(together, x) == predictive_cdf(single, x)

    def test_block_datasets_must_share_n(self):
        with pytest.raises(ValueError, match="same number of studies"):
            bayes._posterior_grids([README_DATA, SPREAD], [named_prior("jeffreys")])

    def test_batch_order_and_subsets_do_not_matter(self):
        # the same prior in a batch of one, of three and of eleven, in
        # reversed order: its grid and interval arrays stay the same bits
        ds = random_dataset(np.random.default_rng(37), n_lo=8, n_hi=8)
        priors = [bind_prior(named_prior(name), ds) for name in NAMED_PRIORS]
        grids, rows = dataset_batch(ds, priors, EngineConfig())
        full = grid_views(grids, rows)
        backwards = grid_views(*dataset_batch(ds, priors[::-1], EngineConfig()))[::-1]
        some = grid_views(*dataset_batch(ds, priors[2:5], EngineConfig()))
        assert grid_views(*dataset_batch(ds, [], EngineConfig())) == []
        for a, b in zip(full[2:5], some):
            assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in GRID_ARRAYS)
        for a, b in zip(full, backwards):
            assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in GRID_ARRAYS)
        forwards = bayes._mixture_intervals(grids, [(r, True) for r in rows], 0.9, 1e-8)
        reverse = bayes._mixture_intervals(grids, [(r, True) for r in rows[::-1]], 0.9, 1e-8)
        assert forwards == reverse[::-1]

    def test_failures_stay_in_their_row(self):
        # a level just below 1 rounds the upper tail probability to 1: every
        # row fails, each with the message of its own public call
        priors = [bind_prior(named_prior(name), README_DATA) for name in ("sqrt", "proper1")]
        layout, rows = dataset_batch(README_DATA, priors, EngineConfig())
        level = 1.0 - 2.0**-53
        out = bayes._mixture_intervals(layout, [(r, True) for r in rows], level, 1e-8)
        for grid, failure in zip(grid_views(layout, rows), out):
            with pytest.raises(NumericFailure) as err:
                prediction_interval(grid, level)
            assert type(failure) is NumericFailure and str(failure) == str(err.value)
        # a prior whose tail never decays fails alone in the grid batch
        ds = MetaDataset.from_arrays([0.0, 1.0], [0.3, 0.4])
        priors = [bind_prior(f, ds) for f in (PriorFamily("power", a=3.0), named_prior("proper1"))]
        bad, good = grid_views(*dataset_batch(ds, priors, EngineConfig()))
        assert isinstance(bad, DivergedPosteriorError) and bad.prior_name == "power(3)"
        assert np.array_equal(good.nodes, build_posterior_grid(ds, priors[1]).nodes)

    def test_no_finite_mass_fails_alone(self):
        # 1e308 x log(tau) overflows: the tail scan fails that prior, and the
        # other prior of its batch refines as it would alone
        families = (PriorFamily("power", a=1e308), named_prior("proper1"))
        priors = [bind_prior(f, README_DATA) for f in families]
        with np.errstate(all="ignore"):
            bad, good = grid_views(*dataset_batch(README_DATA, priors, EngineConfig()))
        assert isinstance(bad, DivergedPosteriorError)
        assert str(bad) == (
            "posterior for prior 'power(1e+308)' does not decay; "
            "it appears improper for this dataset"
        )
        alone = grid_for(README_DATA, "proper1")
        assert np.array_equal(good.nodes, alone.nodes)
        # past the scan, a first refinement pass with no finite mass fails
        # that prior with the normalisation message, and the other prior's
        # panels refine as they would alone
        ladder, _ = ladder_for(README_DATA)
        breaks = [np.concatenate([[0.0], ladder[ladder < t], [t]]) for t in (ladder[-1], 10.0)]
        config = EngineConfig()
        tol = bayes._QUAD_TOLERANCE_SHARE * config.cdf_tolerance
        block = bayes._Block([README_DATA], config.mu_prior_var)
        owner_ds, row_family = np.zeros(2, dtype=np.intp), np.arange(2)
        # each row's panels start at each of its breaks but the last, tau_max
        lo = np.concatenate([b[:-1] for b in breaks])
        panels = np.array([len(b) - 1 for b in breaks])
        tau_max = np.array([b[-1] for b in breaks])
        with np.errstate(all="ignore"):
            grids, failures = bayes._refine_panels(
                block, owner_ds, row_family, families, lo, panels, tau_max, tol
            )
        assert list(failures) == [0]
        bad, good = failures[0], PosteriorGrid(grids, 1)
        assert isinstance(bad, DivergedPosteriorError)
        assert str(bad) == "posterior normalization for prior 'power(1e+308)' is not finite"
        assert all(np.array_equal(getattr(good, f), getattr(alone, f)) for f in GRID_ARRAYS)
        assert (good.log_norm, good.quad_error) == (alone.log_norm, alone.quad_error)


def test_engine_digest_runs_on_one_block():
    # tests/engine_digest.py prints the engine's outputs for comparing two
    # trees bit for bit; on one block of two datasets it prints, per
    # dataset, 12 grids (power(1e308) fails), two intervals per grid built
    # and every method tag's outcome, and the same lines when run again
    import engine_digest

    other = MetaDataset.from_arrays(README_DATA.effects + 0.1, README_DATA.std_errs)
    with np.errstate(all="ignore"):
        lines = engine_digest.block_lines("smoke", [README_DATA, other])
        assert engine_digest.block_lines("smoke", [README_DATA, other]) == lines
    assert len(lines) == 2 * (12 + 2 * 11 + len(METHODS))
    grid_lines = [line.split() for line in lines if line.split()[3] == "grid"]
    assert len(grid_lines) == 22 and all(len(fields[4]) == 64 for fields in grid_lines)
    assert sum(" fail DivergedPosteriorError: " in line for line in lines) == 2


def numpy_simd():
    """The SIMD targets numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def test_engine_digest_matches_its_pin():
    # tests/data/engine_digest.sha256 pins the hash of tests/engine_digest.py's
    # output, so a change to the engine shows without a second tree that its
    # grids, endpoints and failures keep every bit; it holds only where the
    # versions and numpy's SIMD targets are those it was made with
    tests = Path(__file__).parent
    pin = dict(
        line.split(" ", 1)
        for line in (tests / "data" / "engine_digest.sha256").read_text().splitlines()
        if not line.startswith("#")
    )
    here = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd": numpy_simd(),
    }
    if any(pin[key] != value for key, value in here.items()):
        made, now = ("; ".join(f"{k} {env[k]}" for k in here) for env in (pin, here))
        pytest.skip(f"the digest pin was made with {made}; this is {now}")
    path = [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, str(tests / "engine_digest.py")], env=env, capture_output=True, check=True
    ).stdout
    assert hashlib.sha256(out).hexdigest() == pin["sha256"]
