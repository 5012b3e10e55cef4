"""Registry drift guard: every method tag computes the interval kind the
paper gives it, and the coverage harness scores it against the matching
target (the new-study effect for prediction, the true mean otherwise)."""

import random

import numpy as np
import pytest

import metapred.intervals as intervals_module
from metapred import (
    MetaDataset,
    NumericFailure,
    Scenario,
    bind_prior,
    build_posterior_grid,
    credible_interval_mu,
    hts_interval,
    named_prior,
    prediction_interval,
    reml_tau2,
    replication_stream,
    run_analysis,
    run_replication,
    simulate_dataset,
    wald_ci_mu,
)
from metapred.methods import METHODS, evaluate_methods
from metapred.priors import NAMED_PRIORS

EXPECTED_KIND = {
    **{name: "prediction" for name in NAMED_PRIORS},
    "hts": "prediction",
    "hts-hk": "prediction",
    "hts-sj": "prediction",
    "dl": "confidence",
    **{f"cred:{name}": "credible" for name in NAMED_PRIORS},
}
ALL_TAGS = sorted(set(METHODS) | set(EXPECTED_KIND))

DATASET = MetaDataset.from_arrays(
    [0.42, -0.08, 0.55, 0.26, 0.78, 0.11], [0.21, 0.28, 0.19, 0.24, 0.30, 0.26]
)
# wide heterogeneity and a 50% level, so theta_new and mu often fall on
# different sides of an interval's endpoints
SCENARIO = Scenario(n=5, tau2=1.0, level=0.5)
SEED = 3


@pytest.fixture(scope="module")
def analysis():
    report = run_analysis(DATASET, methods=ALL_TAGS)
    return {r.method: r for r in report.results}


@pytest.fixture(scope="module")
def separating_replications():
    """Per tag, the first replication whose interval holds exactly one of
    theta_new and mu, with that interval, theta_new and the scored row."""
    found = {}
    for rep in range(30):
        stream = replication_stream(SEED, SCENARIO, rep)
        dataset, theta_new = simulate_dataset(stream, SCENARIO)
        report = run_analysis(dataset, methods=ALL_TAGS, level=SCENARIO.level)
        rows = run_replication(SCENARIO, ALL_TAGS, (SEED, rep))
        for r in report.results:
            iv = r.interval
            if r.method in found or iv is None:
                continue
            if iv.contains(theta_new) != iv.contains(SCENARIO.mu):
                found[r.method] = (iv, theta_new, rows[r.method])
        if len(found) == len(ALL_TAGS):
            break
    return found


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_tag_kind_and_coverage_target(tag, analysis, separating_replications):
    result = analysis[tag]
    assert result.interval is not None, result.error
    assert result.interval.kind == EXPECTED_KIND[tag]
    assert METHODS[tag].kind == EXPECTED_KIND[tag]

    assert tag in separating_replications, "no replication separates theta_new and mu"
    iv, theta_new, (covered, width, failed) = separating_replications[tag]
    target = theta_new if EXPECTED_KIND[tag] == "prediction" else SCENARIO.mu
    assert not failed
    assert width == iv.width
    assert covered == iv.contains(target)


def public_outcome(tag, dataset, level):
    """A tag's interval from the public per-method functions, or the
    ValueError / NumericFailure they raise."""
    method = METHODS[tag]
    try:
        if method.variant is not None:
            return hts_interval(dataset, level, method.variant)
        if method.prior is None:
            return wald_ci_mu(dataset, level)
        grid = build_posterior_grid(dataset, bind_prior(named_prior(method.prior), dataset))
        if method.kind == "credible":
            return credible_interval_mu(grid, level)
        return prediction_interval(grid, level)
    except (ValueError, NumericFailure) as exc:
        return exc


def assert_same_outcomes(tags, dataset, level=0.95):
    for tag, got in zip(tags, evaluate_methods(tags, dataset, level)):
        want = public_outcome(tag, dataset, level)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want), tag
        else:
            assert got == want, tag


class TestBatchedEvaluation:
    """evaluate_methods computes its tags together (one grid batch, one
    inversion batch, one fit per heterogeneity estimator); every outcome
    must equal the public per-method call's, bit for bit."""

    def test_failures_stay_with_their_prior(self):
        # effects near 1e5 lie 1000 SDs out under the N(0, 10000) mean
        # prior: ten priors' tails never decay, proper1's bounded support
        # still gives an interval, and the plug-in intervals are unaffected
        shifted = MetaDataset.from_arrays(DATASET.effects + 1e5, DATASET.std_errs)
        outcomes = dict(zip(ALL_TAGS, evaluate_methods(ALL_TAGS, shifted, 0.95)))
        failed = {tag for tag, out in outcomes.items() if isinstance(out, Exception)}
        assert failed == {
            tag for tag, m in METHODS.items() if m.prior not in (None, "proper1")
        }
        assert_same_outcomes(ALL_TAGS, shifted)

    def test_tag_orders_and_subsets(self):
        rng = random.Random(5)
        tags = list(ALL_TAGS)
        for _ in range(3):
            rng.shuffle(tags)
            assert_same_outcomes(tags, DATASET)
        assert_same_outcomes([f"cred:{name}" for name in ("proper3", "uniform", "i2")], DATASET)
        assert_same_outcomes(["sqrt"], DATASET)
        assert_same_outcomes(["cred:dumouchel"], DATASET)
        assert_same_outcomes(["dl", "proper2", "hts-sj"], DATASET)

    def test_random_datasets(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 9, 40):
            ds = MetaDataset.from_arrays(rng.uniform(-2, 2, n), np.sqrt(rng.uniform(0.009, 0.6, n)))
            assert_same_outcomes(ALL_TAGS, ds)
        assert_same_outcomes(ALL_TAGS, MetaDataset.from_arrays([0.3], [0.2]))

    def test_invalid_level_fails_every_tag_alike(self):
        assert_same_outcomes(ALL_TAGS, DATASET, level=1.5)

    def test_each_heterogeneity_fit_runs_once(self, monkeypatch):
        calls = []
        for name in ("dl_tau2", "reml_tau2"):
            real = getattr(intervals_module, name)

            def counted(dataset, _real=real, _name=name):
                calls.append(_name)
                return _real(dataset)

            monkeypatch.setattr(intervals_module, name, counted)
        evaluate_methods(["hts", "hts-hk", "dl", "hts-sj"], DATASET, 0.95)
        assert sorted(calls) == ["dl_tau2", "reml_tau2"]

    def test_reml_failure_fails_both_robust_tags(self):
        # REML scoring stalls on this replication (a known defect): both
        # robust tags report the one failed fit with the public message
        scenario = Scenario(n=3, tau2=0.0)
        dataset, _ = simulate_dataset(replication_stream(3, scenario, 306), scenario)
        with pytest.raises(NumericFailure) as err:
            reml_tau2(dataset)
        hk, sj, hts = evaluate_methods(["hts-hk", "hts-sj", "hts"], dataset, 0.95)
        assert isinstance(hk, NumericFailure) and isinstance(sj, NumericFailure)
        assert str(hk) == str(sj) == str(err.value)
        assert hts == hts_interval(dataset, 0.95)
        assert_same_outcomes(["hts-hk", "hts-sj", "hts"], dataset)
