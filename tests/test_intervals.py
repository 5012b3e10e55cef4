import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from metapred import IntervalEstimate, MetaDataset, hts_interval, wald_ci_mu
from metapred.intervals import _t_quantile
from oracles import grid_search_reml

SPREAD = MetaDataset.from_arrays([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])

Z_975 = 1.959963984540054
Z_75 = 0.6744897501960817


def small_dataset(seed, n=5):
    rng = np.random.default_rng(seed)
    return MetaDataset.from_arrays(
        rng.normal(0, 1, n), rng.uniform(0.2, 1.5, n)
    )


class TestIntervalEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalEstimate(1.0, 0.0, 0.95, "x", "prediction")
        with pytest.raises(ValueError):
            IntervalEstimate(0.0, 1.0, 1.5, "x", "prediction")
        with pytest.raises(ValueError):
            IntervalEstimate(0.0, 1.0, 0.95, "x", "posterior")

    def test_contains_and_width(self):
        iv = IntervalEstimate(-1.0, 1.0, 0.95, "x", "prediction")
        assert iv.contains(0.0)
        assert iv.contains(1.0)
        assert not iv.contains(1.5)
        assert iv.width == 2.0


class TestHtsInterval:
    def test_hand_value(self):
        iv = hts_interval(SPREAD, 0.95, "DL")
        t1 = stats.t.ppf(0.975, 1)
        expected = t1 * math.sqrt(3.0 + 4.0 / 3.0)
        assert iv.upper == pytest.approx(expected, rel=1e-9)
        assert iv.lower == pytest.approx(-expected, rel=1e-9)
        assert iv.upper == pytest.approx(26.45, abs=5e-3)
        assert iv.method == "hts"
        assert iv.kind == "prediction"

    def test_zero_heterogeneity_reduction(self):
        ds = MetaDataset.from_arrays([0.4, 0.4, 0.4], [1.0, 1.0, 1.0])
        iv = hts_interval(ds, 0.95, "DL")
        t1 = stats.t.ppf(0.975, 1)
        assert iv.upper == pytest.approx(0.4 + t1 * math.sqrt(1.0 / 3.0), rel=1e-9)
        assert iv.lower == pytest.approx(0.4 - t1 * math.sqrt(1.0 / 3.0), rel=1e-9)

    def test_hk_variant_against_composed_oracle(self):
        iv = hts_interval(SPREAD, 0.95, "HK")
        tau2 = grid_search_reml(SPREAD.effects, SPREAD.variances)
        w = 1.0 / (SPREAD.variances + tau2)
        mu = float(np.sum(w * SPREAD.effects) / w.sum())
        v_hk = float(np.sum(w * (SPREAD.effects - mu) ** 2) / (2 * w.sum()))
        half = stats.t.ppf(0.975, 1) * math.sqrt(tau2 + v_hk)
        assert iv.method == "hts-hk"
        assert iv.upper == pytest.approx(mu + half, abs=2e-5)
        assert iv.lower == pytest.approx(mu - half, abs=2e-5)

    def test_sj_variant_against_composed_oracle(self):
        ds = small_dataset(3, n=6)
        iv = hts_interval(ds, 0.9, "SJ")
        tau2 = grid_search_reml(ds.effects, ds.variances)
        w = 1.0 / (ds.variances + tau2)
        mu = float(np.sum(w * ds.effects) / w.sum())
        v_sj = float(np.sum(w**2 * (ds.effects - mu) ** 2) / w.sum() ** 2 * 6 / 5)
        half = stats.t.ppf(0.95, 4) * math.sqrt(tau2 + v_sj)
        assert iv.upper == pytest.approx(mu + half, abs=2e-5)
        assert iv.lower == pytest.approx(mu - half, abs=2e-5)

    def test_needs_three_studies(self):
        with pytest.raises(ValueError):
            hts_interval(MetaDataset.from_arrays([0.0, 1.0], [1.0, 1.0]))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            hts_interval(SPREAD, 1.0)
        with pytest.raises(ValueError):
            hts_interval(SPREAD, 0.0)

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_width_increases_with_level(self, seed):
        ds = small_dataset(seed)
        widths = [hts_interval(ds, lvl).width for lvl in (0.5, 0.8, 0.9, 0.95, 0.99)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_width_at_least_mean_ci(self, seed):
        ds = small_dataset(seed)
        from metapred import dl_tau2, pooled_mu

        pooled = pooled_mu(ds, dl_tau2(ds).tau2)
        floor = 2 * stats.t.ppf(0.975, ds.n - 2) * math.sqrt(pooled.var_mu_hat)
        assert hts_interval(ds, 0.95).width >= floor - 1e-12

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_contains_wald_ci(self, seed):
        ds = small_dataset(seed)
        pred = hts_interval(ds, 0.95)
        ci = wald_ci_mu(ds, 0.95)
        assert pred.lower <= ci.lower and ci.upper <= pred.upper


class TestTQuantile:
    def test_matches_scipy_stats(self):
        # the plug-in interval asks for p = 0.5 + level / 2
        for df in range(1, 201):
            for level in np.linspace(0.5, 0.999, 300):
                p = 0.5 + float(level) / 2.0
                want = float(stats.t.ppf(p, df))
                assert abs(_t_quantile(p, df) - want) <= 1e-14 * abs(want), (df, level)


class TestWaldCI:
    def test_hand_value(self):
        iv = wald_ci_mu(SPREAD, 0.95)
        assert iv.upper == pytest.approx(Z_975 * math.sqrt(4.0 / 3.0), rel=1e-9)
        assert iv.lower == pytest.approx(-Z_975 * math.sqrt(4.0 / 3.0), rel=1e-9)
        assert iv.kind == "confidence"
        assert iv.method == "dl"

    def test_identical_pair(self):
        ds = MetaDataset.from_arrays([0.7, 0.7], [1.0, 1.0])
        iv = wald_ci_mu(ds, 0.95)
        assert iv.upper == pytest.approx(0.7 + Z_975 * math.sqrt(0.5), rel=1e-9)

    def test_fifty_percent_level(self):
        ds = MetaDataset.from_arrays([0.0, 1.0], [1.0, 1.0])
        iv = wald_ci_mu(ds, 0.50)
        assert iv.upper == pytest.approx(0.5 + Z_75 * math.sqrt(0.5), rel=1e-9)
        assert iv.lower == pytest.approx(0.5 - Z_75 * math.sqrt(0.5), rel=1e-9)


class TestEquivariance:
    @given(st.integers(0, 40), st.floats(0.2, 5.0), st.floats(-3.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_affine(self, seed, c, shift):
        ds = small_dataset(seed)
        moved = MetaDataset.from_arrays(c * ds.effects + shift, c * ds.std_errs)
        for make in (lambda d: hts_interval(d, 0.95), lambda d: wald_ci_mu(d, 0.95)):
            base = make(ds)
            out = make(moved)
            assert out.lower == pytest.approx(c * base.lower + shift, rel=1e-6, abs=1e-7)
            assert out.upper == pytest.approx(c * base.upper + shift, rel=1e-6, abs=1e-7)
