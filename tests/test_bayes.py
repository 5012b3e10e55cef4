import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
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
    marginal_loglik,
    named_prior,
    posterior_tau_moments,
    prediction_interval,
    predictive_cdf,
)
from metapred.priors import log_prior_kernel
from oracles import (
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


@lru_cache(maxsize=None)
def _legendre(size):
    return roots_legendre(size)


def fixed_grid(dataset, name, tau_max, size=16384):
    """The posterior on one size-node Gauss-Legendre rule over w in (0, w_max)
    - the fixed rule the adaptive panels replaced - as the reference."""
    prior = bind_prior(named_prior(name), dataset)
    c = math.sqrt(prior.s0_sq)
    x, gl_w = _legendre(size)
    w_max = math.sqrt(tau_max / (c + tau_max))
    w = (x + 1.0) * (w_max / 2.0)
    tau = c * w**2 / (1.0 - w**2)
    quad_weights = gl_w * (w_max / 2.0) * 2.0 * c * w / (1.0 - w**2) ** 2
    loglik, cond_mean, cond_var = bayes._loglik_terms(
        dataset.effects, dataset.variances, tau, 10_000.0
    )
    log_post = log_prior_kernel(prior, tau) + loglik
    log_mass = log_post + np.log(quad_weights)
    log_norm = float(log_mass.max())
    log_norm += math.log(float(np.exp(log_mass - log_norm).sum()))
    return PosteriorGrid(
        tau, quad_weights, log_post, cond_mean, cond_var, log_norm, name, tau_max, 0.0
    )


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


class TestMarginalLoglik:
    def test_single_study_convolution_identity(self):
        # integrating the mean out of one N(y; mu, v) against N(mu; 0, S)
        # must give N(y; 0, v + S)
        ds = MetaDataset.from_arrays([0.0], [1.0])
        assert marginal_loglik(ds, 0.0) == pytest.approx(
            stats.norm.logpdf(0.0, 0.0, math.sqrt(10001.0)), rel=1e-12
        )
        ds2 = MetaDataset.from_arrays([1.7], [0.4])
        assert marginal_loglik(ds2, 0.8) == pytest.approx(
            stats.norm.logpdf(1.7, 0.0, math.sqrt(0.16 + 0.64 + 10_000.0)), rel=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 1, 6)
        s = rng.uniform(0.2, 1.0, 6)
        perm = rng.permutation(6)
        a = marginal_loglik(MetaDataset.from_arrays(y, s), 0.7)
        b = marginal_loglik(MetaDataset.from_arrays(y[perm], s[perm]), 0.7)
        assert a == pytest.approx(b, rel=1e-14)

    def test_against_numeric_mu_integration(self):
        ds = MetaDataset.from_arrays([0.0, 0.0], [1.0, 1.0])
        assert marginal_loglik(ds, 1.0) == pytest.approx(
            loglik_by_mu_integration(ds, 1.0), abs=1e-8
        )
        ds2 = MetaDataset.from_arrays([0.4, -0.3, 1.2], [0.5, 0.9, 0.3])
        assert marginal_loglik(ds2, 0.35) == pytest.approx(
            loglik_by_mu_integration(ds2, 0.35), abs=1e-8
        )

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            marginal_loglik(SPREAD, -1.0)

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
        vec = marginal_loglik(SPREAD, taus)
        assert vec.shape == (3,)
        for t, v in zip(taus, vec):
            assert v == pytest.approx(marginal_loglik(SPREAD, float(t)), rel=1e-14)


class TestPosteriorGrid:
    def test_normalization_is_exact(self):
        for name in ("uniform", "sqrt", "jeffreys", "proper2"):
            grid = grid_for(SPREAD, name)
            assert abs(grid.posterior_weights().sum() - 1.0) < 1e-10

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

    def test_inv_gamma_spike_refines_first_panel(self):
        # x10-scale data: proper2's exp(-0.001 / tau^2) factor rises near
        # tau = 0.04, inside the first panel; 32 nodes there missed the
        # endpoints by 1.5e-4, so the error estimate must bisect that panel
        ds = MetaDataset.from_arrays(
            [10.23569657884223, -7.1375305131622255, 4.439565395320918],
            [6.804794866432826, 6.157503277074804, 5.303458642770115],
        )
        grid = grid_for(ds, "proper2")
        s0 = math.sqrt(bind_prior(named_prior("proper2"), ds).s0_sq)
        breaks = bayes._panel_breaks(bayes._tau_ladder(ds.effects, s0), ds.variances, grid.tau_max)
        assert np.sum(grid.nodes < breaks[1]) > 2 * bayes._PANEL_ORDER
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

    def test_breaks_extend_the_scan_ladder(self):
        s0 = math.sqrt(bind_prior(named_prior("uniform"), README_DATA).s0_sq)
        ladder = bayes._tau_ladder(README_DATA.effects, s0)
        breaks = bayes._panel_breaks(ladder, README_DATA.variances, ladder[5])
        assert breaks[0] == 0.0 and breaks[-1] == ladder[5]
        assert breaks[1] <= 0.25 * README_DATA.std_errs.min() < breaks[2]
        np.testing.assert_array_equal(breaks[-6:], ladder[:6])
        np.testing.assert_allclose(breaks[2:] / breaks[1:-1], 2.0, rtol=1e-14)


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

    def test_translation_equivariance_with_wide_mu_prior(self):
        # exact equivariance only holds as the mu prior flattens out; with
        # S >> shift^2 + data scale^2 the intervals must shift accordingly
        cfg = EngineConfig(mu_prior_var=1e8)
        ds = MetaDataset.from_arrays([0.1, -0.4, 0.8, 0.3], [0.5, 0.4, 0.7, 0.6])
        moved = MetaDataset.from_arrays(ds.effects + 1.0, ds.std_errs)
        for name in ("jeffreys", "dumouchel"):
            base = prediction_interval(
                build_posterior_grid(ds, bind_prior(named_prior(name), ds), cfg)
            )
            shifted = prediction_interval(
                build_posterior_grid(moved, bind_prior(named_prior(name), moved), cfg)
            )
            assert shifted.lower == pytest.approx(base.lower + 1.0, abs=1e-3)
            assert shifted.upper == pytest.approx(base.upper + 1.0, abs=1e-3)


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


class TestMixtureInversion:
    @pytest.mark.parametrize("prob", [1e-6, 0.025, 0.5, 0.975])
    def test_single_component_is_normal_quantile(self, prob):
        m, s = np.array([1.3]), np.array([0.7])
        tol_width = 1e-9
        x = bayes._invert_mixture_cdf(m, s, np.array([1.0]), prob, tol_width)
        assert abs(x - (1.3 + 0.7 * float(ndtri(prob)))) <= tol_width

    @pytest.mark.parametrize("prob", [0.5 - 1e-10, 0.5 + 1e-10, 0.75])
    def test_separated_components_fall_back_to_bisection(self, prob):
        # at p = 0.5 exactly the double-precision CDF is flat at 0.5 over
        # about (-41, 41), so the root is moved just off the plateau: it
        # lies near +-43.75, where the density at the Newton start (x ~ 0)
        # underflows and every raw Newton step leaves the bracket
        m, s, w = np.array([-50.0, 50.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5])
        tol_width = 1e-6
        got = bayes._invert_mixture_cdf(m, s, w, prob, tol_width)
        want = bisect_mixture(m, s, w, prob, tol_width)
        assert abs(got - want) <= tol_width

    def test_probability_one_raises(self):
        m, s, w = np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([0.3, 0.7])
        with pytest.raises(NumericFailure):
            bayes._invert_mixture_cdf(m, s, w, 1.0, 1e-8)
        # a level just below 1 rounds the upper tail probability to 1
        with pytest.raises(NumericFailure):
            prediction_interval(grid_for(README_DATA, "sqrt"), 1.0 - 2.0**-53)

    def test_newton_steps_per_endpoint(self, monkeypatch):
        # each mixture-CDF evaluation is one ndtr call over the components;
        # the bracket costs none, and bisection would need about 40
        calls = []
        real_ndtr, real_invert = bayes.ndtr, bayes._invert_mixture_cdf

        def counting_ndtr(z):
            calls[-1] += 1
            return real_ndtr(z)

        def counting_invert(*args):
            calls.append(0)
            return real_invert(*args)

        monkeypatch.setattr(bayes, "ndtr", counting_ndtr)
        monkeypatch.setattr(bayes, "_invert_mixture_cdf", counting_invert)
        for name in NAMED_PRIORS:
            grid = grid_for(README_DATA, name)
            prediction_interval(grid)
            credible_interval_mu(grid)
        assert len(calls) == 4 * len(NAMED_PRIORS)
        assert max(calls) <= 5

    def test_newton_converging_from_one_side_stops(self, monkeypatch):
        # a last Newton step under half an ulp of x rounds x + step onto the
        # bracket end x; rejecting it as outside the bracket fell back to
        # bisection and cost up to 39 CDF evaluations on this draw
        calls = []
        real_ndtr, real_invert = bayes.ndtr, bayes._invert_mixture_cdf

        def counting_ndtr(z):
            calls[-1] += 1
            return real_ndtr(z)

        def counting_invert(*args):
            calls.append(0)
            return real_invert(*args)

        monkeypatch.setattr(bayes, "ndtr", counting_ndtr)
        monkeypatch.setattr(bayes, "_invert_mixture_cdf", counting_invert)
        rng = np.random.default_rng(11)
        for _ in range(41):
            ds = random_dataset(rng, n_lo=3, n_hi=30)
            for name in NAMED_PRIORS:
                grid = grid_for(ds, name)
                prediction_interval(grid)
                credible_interval_mu(grid)
        assert len(calls) == 41 * 4 * len(NAMED_PRIORS)
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
