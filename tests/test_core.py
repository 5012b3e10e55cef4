import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from metapred import (
    DegenerateDispersionWarning,
    MetaDataset,
    cochran_q,
    dl_tau2,
    i_squared,
    pooled_mu,
    q_test_pvalue,
    reml_tau2,
    robust_variance,
)
from oracles import grid_search_reml


def dataset(effects, std_errs):
    return MetaDataset.from_arrays(effects, std_errs)


SPREAD = dataset([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
PAIR = dataset([0.0, 1.0], [1.0, 1.0])


# a reusable strategy for small well-conditioned datasets
def dataset_strategy(min_n=2, max_n=8):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n),
        )
    ).map(lambda t: dataset(*t))


class TestStudyData:
    def test_study_validation(self):
        with pytest.raises(ValueError, match="effect must be finite"):
            dataset([math.nan], [1.0])
        for se in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="std_err must be positive and finite"):
                dataset([0.0], [se])
        with pytest.raises(ValueError, match="equal length"):
            dataset([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="1-D"):
            dataset([[0.0, 1.0]], [[1.0, 1.0]])

    def test_dataset_arrays(self):
        assert SPREAD.n == 3
        np.testing.assert_array_equal(SPREAD.effects, [-2.0, 0.0, 2.0])
        np.testing.assert_array_equal(SPREAD.variances, [1.0, 1.0, 1.0])

    def test_arrays_are_read_only_copies(self):
        effects = np.array([0.5, 1.5])
        ds = dataset(effects, [1.0, 2.0])
        effects[0] = 9.0
        assert ds.effects[0] == 0.5
        for arr in (ds.effects, ds.std_errs, ds.variances):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            dataset([], [])


class TestCochranQ:
    def test_identical_effects_give_zero(self):
        assert cochran_q(dataset([1.3] * 3, [0.5, 1.0, 2.0])) == 0.0

    def test_hand_value_spread(self):
        assert cochran_q(SPREAD) == pytest.approx(8.0, abs=1e-12)

    def test_hand_value_pair(self):
        assert cochran_q(PAIR) == pytest.approx(0.5, abs=1e-12)

    def test_needs_two_studies(self):
        with pytest.raises(ValueError):
            cochran_q(dataset([1.0], [1.0]))


class TestQTestPvalue:
    def test_zero_statistic(self):
        assert q_test_pvalue(0.0, 3) == 1.0

    def test_chi2_two_df(self):
        # chi^2(2) survival has the closed form exp(-q/2)
        assert q_test_pvalue(8.0, 3) == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_chi2_one_df(self):
        # chi^2(1) survival at q equals erfc(sqrt(q/2))
        assert q_test_pvalue(0.5, 2) == pytest.approx(erfc(math.sqrt(0.25)), rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            q_test_pvalue(1.0, 1)
        with pytest.raises(ValueError):
            q_test_pvalue(-0.5, 3)


class TestISquared:
    def test_zero_when_no_dispersion(self):
        assert i_squared(dataset([0.7] * 3, [1.0, 2.0, 0.5])) == 0.0

    def test_hand_value(self):
        assert i_squared(SPREAD) == pytest.approx(0.75, abs=1e-12)

    def test_truncated_at_zero(self):
        assert i_squared(PAIR) == 0.0

    @given(dataset_strategy())
    @settings(max_examples=50, deadline=None)
    def test_identity_with_q(self, ds):
        q = cochran_q(ds)
        if q > 0:
            assert i_squared(ds) == pytest.approx(
                max(0.0, 1.0 - (ds.n - 1) / q), abs=1e-12
            )


class TestDLTau2:
    def test_zero_for_identical_effects(self):
        assert dl_tau2(dataset([2.0] * 3, [1.0] * 3)).tau2 == 0.0

    def test_hand_value(self):
        est = dl_tau2(SPREAD)
        assert est.method == "DL"
        assert est.tau2 == pytest.approx(3.0, abs=1e-12)

    def test_negative_moment_truncated(self):
        assert dl_tau2(PAIR).tau2 == 0.0


class TestPooledMu:
    def test_hand_value_spread(self):
        est = pooled_mu(SPREAD, 3.0)
        assert est.mu_hat == pytest.approx(0.0, abs=1e-12)
        assert est.var_mu_hat == pytest.approx(4.0 / 3.0, rel=1e-12)
        np.testing.assert_allclose(est.weights, 0.25)

    def test_identical_effects(self):
        est = pooled_mu(dataset([5.0, 5.0], [1.0, 2.0]), 0.7)
        assert est.mu_hat == pytest.approx(5.0, abs=1e-12)

    def test_hand_value_pair(self):
        est = pooled_mu(PAIR, 0.0)
        assert est.mu_hat == pytest.approx(0.5, abs=1e-12)
        assert est.var_mu_hat == pytest.approx(0.5, rel=1e-12)

    def test_var_is_reciprocal_weight_sum(self):
        est = pooled_mu(SPREAD, 1.7)
        assert est.var_mu_hat == 1.0 / est.weights.sum()

    def test_rejects_negative_tau2(self):
        with pytest.raises(ValueError):
            pooled_mu(SPREAD, -0.1)

    @given(dataset_strategy())
    @settings(max_examples=50, deadline=None)
    def test_mu_within_effect_range(self, ds):
        est = pooled_mu(ds, 0.3)
        y = ds.effects
        assert y.min() - 1e-9 <= est.mu_hat <= y.max() + 1e-9

    @given(dataset_strategy(), st.floats(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_equal_variances_give_plain_mean(self, ds, tau2):
        equal = dataset(ds.effects, np.full(ds.n, 0.8))
        est = pooled_mu(equal, tau2)
        assert est.mu_hat == pytest.approx(float(ds.effects.mean()), abs=1e-9)


class TestREML:
    def test_zero_for_identical_effects(self):
        assert reml_tau2(dataset([1.0] * 3, [1.0] * 3)).tau2 == 0.0

    def test_matches_grid_search_oracle(self):
        est = reml_tau2(SPREAD)
        oracle = grid_search_reml(SPREAD.effects, SPREAD.variances)
        assert est.method == "REML"
        assert est.tau2 == pytest.approx(oracle, abs=1e-5)

    def test_boundary_case(self):
        est = reml_tau2(PAIR)
        oracle = grid_search_reml(PAIR.effects, PAIR.variances)
        assert est.tau2 == pytest.approx(oracle, abs=1e-5)
        assert est.tau2 == 0.0

    def test_oracle_on_uneven_variances(self):
        ds = dataset([0.2, -0.4, 0.9, 1.4, -0.1], [0.3, 0.8, 0.4, 1.1, 0.6])
        est = reml_tau2(ds)
        assert est.tau2 == pytest.approx(
            grid_search_reml(ds.effects, ds.variances), abs=1e-5
        )

    def test_non_convergence_carries_last_iterate(self):
        from metapred.errors import NumericFailure

        ds = dataset([0.2, -0.4, 0.9, 1.4, -0.1], [0.3, 0.8, 0.4, 1.1, 0.6])
        with pytest.raises(NumericFailure) as err:
            reml_tau2(ds, max_iter=1)
        assert err.value.last_value is not None
        assert err.value.last_value >= 0.0


class TestRobustVariance:
    def test_degenerate_dispersion_warns(self):
        ds = dataset([1.0] * 3, [1.0] * 3)
        with pytest.warns(DegenerateDispersionWarning):
            assert robust_variance(ds, 0.0, "HK") == 0.0

    def test_hk_hand_values(self):
        assert robust_variance(SPREAD, 3.0, "HK") == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert robust_variance(PAIR, 0.0, "HK") == pytest.approx(0.25, rel=1e-12)

    def test_sj_hand_values(self):
        # sum w^2 r^2 / (sum w)^2 * n/(n-1), w = 1/4: 0.5/0.5625 * 1.5 = 4/3
        assert robust_variance(SPREAD, 3.0, "SJ") == pytest.approx(4.0 / 3.0, rel=1e-12)
        # pair, tau2=0: w=1: 0.5/4 * 2 = 0.25
        assert robust_variance(PAIR, 0.0, "SJ") == pytest.approx(0.25, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            robust_variance(SPREAD, 0.0, "XX")


class TestEquivariance:
    @given(dataset_strategy(), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_scale(self, ds, c):
        scaled = dataset(c * ds.effects, c * ds.std_errs)
        assert cochran_q(scaled) == pytest.approx(cochran_q(ds), rel=1e-8, abs=1e-10)
        assert i_squared(scaled) == pytest.approx(i_squared(ds), rel=1e-8, abs=1e-10)
        assert dl_tau2(scaled).tau2 == pytest.approx(
            c**2 * dl_tau2(ds).tau2, rel=1e-8, abs=1e-9
        )
        t2 = dl_tau2(ds).tau2
        assert pooled_mu(scaled, c**2 * t2).mu_hat == pytest.approx(
            c * pooled_mu(ds, t2).mu_hat, rel=1e-8, abs=1e-9
        )

    @given(dataset_strategy(), st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_translation(self, ds, shift):
        moved = dataset(ds.effects + shift, ds.std_errs)
        assert cochran_q(moved) == pytest.approx(cochran_q(ds), rel=1e-7, abs=1e-8)
        assert dl_tau2(moved).tau2 == pytest.approx(
            dl_tau2(ds).tau2, rel=1e-7, abs=1e-8
        )
        t2 = dl_tau2(ds).tau2
        assert pooled_mu(moved, t2).mu_hat == pytest.approx(
            pooled_mu(ds, t2).mu_hat + shift, rel=1e-8, abs=1e-8
        )

    @given(dataset_strategy())
    @settings(max_examples=40, deadline=None)
    def test_tau2_estimates_nonnegative(self, ds):
        assert dl_tau2(ds).tau2 >= 0.0
        assert reml_tau2(ds).tau2 >= 0.0
