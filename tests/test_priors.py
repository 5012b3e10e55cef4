import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

from metapred import (
    MetaDataset,
    NAMED_PRIORS,
    PriorFamily,
    bind_prior,
    log_prior_density,
    named_prior,
    prior_cdf,
)
from metapred.priors import BoundPrior

DS = MetaDataset.from_arrays([0.3, -0.2, 0.8], [0.4, 0.9, 0.6])
DS_EQUAL = MetaDataset.from_arrays([-1.0, 0.5, 1.5], [1.0, 1.0, 1.0])

PROPER_NAMES = ("conventional", "dumouchel", "shrinkage", "i2", "proper1", "proper2", "proper3")


def numeric_prior_mass(bound, upto=np.inf):
    """Independent normalization check via adaptive quadrature.

    The inverse-gamma families keep a non-negligible share of their mass at
    tau beyond float range, so their integral runs in s = log(tau) up to
    tau = e^700 and adds the exact power-law remainder analytically.
    """
    fam = bound.family
    if fam.kind == "inv-gamma":
        assert upto is np.inf
        f = lambda s: math.exp(float(log_prior_density(bound, math.exp(s))) + s)
        main, _ = integrate.quad(f, -15.0, 700.0, limit=800)
        a, rate = fam.shape, fam.rate
        log_tail = (
            math.log(2.0) + a * math.log(rate) - gammaln(a) - 1400.0 * a
            - math.log(2.0 * a)
        )
        return main + math.exp(log_tail)
    hi = fam.hi if fam.kind == "proper-uniform" else upto
    val, _ = integrate.quad(
        lambda t: math.exp(float(log_prior_density(bound, t))),
        0.0,
        min(hi, upto),
        limit=400,
    )
    return val


class TestFamilies:
    def test_registry_has_the_eleven(self):
        assert list(NAMED_PRIORS) == [
            "uniform", "sqrt", "jeffreys", "berger-deely", "conventional",
            "dumouchel", "shrinkage", "i2", "proper1", "proper2", "proper3",
        ]

    def test_aliases(self):
        assert named_prior("uniform") == PriorFamily("power", a=0.0)
        assert named_prior("sqrt") == PriorFamily("power", a=-0.5)
        assert named_prior("proper1") == PriorFamily("proper-uniform", hi=10.0)
        assert named_prior("proper2") == PriorFamily("inv-gamma", shape=0.001, rate=0.001)
        assert named_prior("proper3") == PriorFamily("inv-gamma", shape=0.01, rate=0.01)

    def test_canonical_names(self):
        for name, fam in NAMED_PRIORS.items():
            assert fam.name == name
        assert PriorFamily("power", a=0.25).name == "power(0.25)"

    def test_properness_flags(self):
        for name in PROPER_NAMES:
            assert NAMED_PRIORS[name].proper
        for name in ("uniform", "sqrt", "jeffreys", "berger-deely"):
            assert not NAMED_PRIORS[name].proper

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PriorFamily("power", a=-1.0)  # integrability at 0 needs a > -1
        with pytest.raises(ValueError):
            PriorFamily("proper-uniform", hi=0.0)
        with pytest.raises(ValueError):
            PriorFamily("inv-gamma", shape=0.0, rate=1.0)
        with pytest.raises(ValueError):
            PriorFamily("cauchy")
        with pytest.raises(ValueError):
            named_prior("half-normal")


class TestBindPrior:
    def test_equal_variances(self):
        b = bind_prior(named_prior("uniform"), DS_EQUAL)
        assert b.s0_sq == pytest.approx(1.0, rel=1e-14)
        assert b.sigma_hat_sq == pytest.approx(1.0, rel=1e-14)

    def test_harmonic_mean(self):
        ds = MetaDataset.from_arrays([0.0, 1.0], np.sqrt([0.5, 0.25]))
        b = bind_prior(named_prior("uniform"), ds)
        assert b.s0_sq == pytest.approx(1.0 / 3.0, rel=1e-14)
        # sigma_hat_sq = (n-1) S1 / (S1^2 - S2) = 6 / (36 - 20)
        assert b.sigma_hat_sq == pytest.approx(6.0 / 16.0, rel=1e-14)

    def test_uniform_is_improper(self):
        assert bind_prior(named_prior("uniform"), DS).proper is False

    def test_needs_two_studies(self):
        with pytest.raises(ValueError):
            bind_prior(named_prior("uniform"), MetaDataset.from_arrays([1.0], [1.0]))


class TestLogDensity:
    def test_sqrt_density_ratio(self):
        b = bind_prior(named_prior("sqrt"), DS)
        ratio = math.exp(log_prior_density(b, 4.0) - log_prior_density(b, 1.0))
        assert ratio == pytest.approx(0.5, rel=1e-14)

    def test_dumouchel_at_zero(self):
        b = bind_prior(named_prior("dumouchel"), DS_EQUAL)
        # s0 = 1, so the density at 0 is 1/s0 = 1
        assert log_prior_density(b, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_jeffreys_single_component(self):
        b = BoundPrior(
            family=named_prior("jeffreys"),
            s0_sq=1.0,
            sigma_hat_sq=1.0,
            sigma_sq=np.array([1.0]),
        )
        assert math.exp(log_prior_density(b, 1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_continuous_limits_at_zero(self):
        for name in ("jeffreys", "berger-deely", "shrinkage", "i2", "proper2"):
            b = bind_prior(named_prior(name), DS)
            assert log_prior_density(b, 0.0) == -math.inf
        b = bind_prior(named_prior("proper1"), DS)
        assert log_prior_density(b, 0.0) == pytest.approx(-math.log(10.0))
        assert log_prior_density(bind_prior(named_prior("uniform"), DS), 0.0) == 0.0

    def test_rejects_negative_tau(self):
        b = bind_prior(named_prior("uniform"), DS)
        with pytest.raises(ValueError):
            log_prior_density(b, -0.5)

    def test_vectorized_matches_scalar(self):
        b = bind_prior(named_prior("jeffreys"), DS)
        taus = np.array([0.1, 0.7, 2.0])
        vec = log_prior_density(b, taus)
        assert vec.shape == (3,)
        for t, v in zip(taus, vec):
            assert v == pytest.approx(log_prior_density(b, float(t)), rel=1e-14)

    def test_finite_and_positive_on_grid(self):
        grid = np.geomspace(1e-6, 1e3, 200)
        for name in NAMED_PRIORS:
            b = bind_prior(named_prior(name), DS)
            vals = log_prior_density(b, grid)
            if name == "proper1":
                vals = vals[grid <= 10.0]
            assert np.all(np.isfinite(vals)), name

    def test_jeffreys_proportional_to_berger_deely_when_equal(self):
        bj = bind_prior(named_prior("jeffreys"), DS_EQUAL)
        bb = bind_prior(named_prior("berger-deely"), DS_EQUAL)
        grid = np.geomspace(1e-4, 50.0, 100)
        diff = log_prior_density(bj, grid) - log_prior_density(bb, grid)
        assert np.ptp(diff) < 1e-10

    def test_inverse_gamma_hyperparameters_matter(self):
        b2 = bind_prior(named_prior("proper2"), DS)
        b3 = bind_prior(named_prior("proper3"), DS)
        grid = np.array([0.05, 0.3, 1.0, 5.0])
        diff = log_prior_density(b2, grid) - log_prior_density(b3, grid)
        assert np.ptp(diff) > 0.1


class TestCdf:
    def test_dumouchel_median_at_s0(self):
        b = bind_prior(named_prior("dumouchel"), DS)
        assert prior_cdf(b, math.sqrt(b.s0_sq)) == pytest.approx(0.5, abs=1e-14)

    def test_shrinkage_median_at_s0(self):
        b = bind_prior(named_prior("shrinkage"), DS)
        assert prior_cdf(b, math.sqrt(b.s0_sq)) == pytest.approx(0.5, abs=1e-14)

    def test_proper_uniform(self):
        b = bind_prior(named_prior("proper1"), DS)
        assert prior_cdf(b, 2.5) == pytest.approx(0.25, abs=1e-14)
        assert prior_cdf(b, 25.0) == 1.0

    def test_shrinkage_complement_identity(self):
        b = bind_prior(named_prior("shrinkage"), DS)
        for tau in (0.0, 0.2, 1.0, 7.0):
            s0_factor = b.s0_sq / (b.s0_sq + tau**2)
            assert prior_cdf(b, tau) + s0_factor == pytest.approx(1.0, abs=1e-14)

    def test_cdf_matches_density_integral(self):
        # dual route: closed form / special function vs direct quadrature
        for name, tau in (("dumouchel", 0.8), ("i2", 0.5), ("conventional", 1.1),
                          ("proper2", 0.7), ("proper3", 2.0)):
            b = bind_prior(named_prior(name), DS)
            if b.family.kind == "inv-gamma":
                val, _ = integrate.quad(
                    lambda s: math.exp(float(log_prior_density(b, math.exp(s))) + s),
                    -15.0,
                    math.log(tau),
                    limit=400,
                )
            else:
                val, _ = integrate.quad(
                    lambda t: math.exp(float(log_prior_density(b, t))), 0.0, tau,
                    limit=400,
                )
            assert prior_cdf(b, tau) == pytest.approx(val, abs=1e-8), name

    def test_inverse_gamma_cdf_is_the_gamma_survival_function(self):
        # prior_cdf goes through scipy.special.gammaincc; it must round as
        # scipy.stats.gamma.sf does, bit for bit
        families = [named_prior("proper2"), named_prior("proper3")] + [
            PriorFamily("inv-gamma", shape=a, rate=b)
            for a in (1e-4, 0.37, 1.0, 2.5, 40.0)
            for b in (1e-3, 0.2, 1.0, 7.0, 300.0)
        ]
        taus = np.geomspace(1e-3, 1e4, 29).tolist() + [0.5, 1.0, 3.0]
        for fam in families:
            b = bind_prior(fam, DS)
            for tau in taus:
                expected = float(stats.gamma.sf(tau**-2, fam.shape, scale=1.0 / fam.rate))
                assert prior_cdf(b, tau) == expected, (fam.name, tau)

    def test_improper_prior_has_no_cdf(self):
        for name in ("uniform", "sqrt", "jeffreys", "berger-deely"):
            with pytest.raises(ValueError):
                prior_cdf(bind_prior(named_prior(name), DS), 1.0)


class TestNormalization:
    @pytest.mark.parametrize("name", PROPER_NAMES)
    def test_proper_priors_integrate_to_one(self, name):
        b = bind_prior(named_prior(name), DS)
        assert numeric_prior_mass(b) == pytest.approx(1.0, abs=1e-6)
