"""Registry drift guard: every method tag computes the interval kind the
paper gives it, and the coverage harness scores it against the matching
target (the new-study effect for prediction, the true mean otherwise)."""

import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metapred.bayes as bayes_module
import metapred.intervals as intervals_module
import metapred.methods as methods_module
from metapred import (
    MetaDataset,
    NumericFailure,
    PosteriorGrid,
    Scenario,
    bind_prior,
    build_posterior_grid,
    DegenerateDispersionWarning,
    IntervalEstimate,
    credible_interval_mu,
    dl_tau2,
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
from metapred.core import _dl_fits, _reml_fits
from metapred.intervals import _outcome
from metapred.methods import METHODS, _evaluate_block, evaluate_methods
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


def block_outcomes(tags, datasets, level):
    """methods._evaluate_block as each dataset's outcomes, in tag order:
    the IntervalEstimate that evaluate_methods gives for an entry of the
    arrays, or its failure."""
    errors = []
    outcomes = _evaluate_block(tags, datasets, level, errors)
    return [
        [
            _outcome(outcomes, errors, (k, i), level, METHODS[tag].prior or tag, METHODS[tag].kind)
            for k, tag in enumerate(tags)
        ]
        for i in range(len(datasets))
    ]


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
        assert evaluate_methods([], DATASET, 0.95) == []
        assert run_replication(SCENARIO, (), (SEED, 0)) == {}

    def test_random_datasets(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 9, 40):
            ds = MetaDataset.from_arrays(rng.uniform(-2, 2, n), np.sqrt(rng.uniform(0.009, 0.6, n)))
            assert_same_outcomes(ALL_TAGS, ds)
        assert_same_outcomes(ALL_TAGS, MetaDataset.from_arrays([0.3], [0.2]))

    def test_invalid_level_fails_every_tag_alike(self):
        assert_same_outcomes(ALL_TAGS, DATASET, level=1.5)

    def test_one_level_check(self):
        # every entry point refuses a float32 level alike; Scenario,
        # IntervalEstimate and the Bayesian tags used to take it, and hts not
        level = np.float32(0.9)
        outcomes = evaluate_methods(ALL_TAGS, DATASET, level)
        assert {(type(out), str(out)) for out in outcomes} == {
            (ValueError, f"level must be a float in (0, 1), got {level!r}")
        }
        assert_same_outcomes(ALL_TAGS, DATASET, level=level)
        with pytest.raises(ValueError, match="level must be a float in"):
            Scenario(3, 0.1, level=level)
        with pytest.raises(ValueError, match="level must be a float in"):
            IntervalEstimate(0.0, 1.0, level, "hts", "prediction")
        with pytest.raises(ValueError, match="level must be a float in"):
            run_analysis(DATASET, ("uniform",), level)
        # numpy's float64 is a Python float
        assert evaluate_methods(ALL_TAGS, DATASET, np.float64(0.9)) == evaluate_methods(
            ALL_TAGS, DATASET, 0.9
        )

    def test_invalid_level_fails_a_diverging_prior_alike(self):
        # the level is checked before any grid is built, so a prior whose
        # posterior would not decay gets the level's error like every tag
        shifted = MetaDataset.from_arrays(DATASET.effects + 1e5, DATASET.std_errs)
        outcomes = evaluate_methods(ALL_TAGS, shifted, 1.5)
        assert {(type(out), str(out)) for out in outcomes} == {
            (ValueError, "level must be a float in (0, 1), got 1.5")
        }

    def test_an_error_in_the_inversion_propagates(self, monkeypatch):
        # only the checks of n and level become outcomes; any other
        # ValueError from the engine is a fault and reaches the caller
        def broken(*args):
            raise ValueError("injected inversion fault")

        monkeypatch.setattr(bayes_module, "_invert_mixture_cdfs", broken)
        with pytest.raises(ValueError, match="injected inversion fault"):
            evaluate_methods(["uniform", "hts"], DATASET, 0.95)

    def test_one_study_fails_every_bayesian_tag_with_the_bind_message(self):
        # the grid batch gathers the bound constants of the whole block, so
        # a one-study block fails each of its datasets as bind_prior does
        dataset = MetaDataset.from_arrays([0.3], [0.2])
        with pytest.raises(ValueError) as err:
            bind_prior(named_prior("uniform"), dataset)
        tags = [tag for tag, m in METHODS.items() if m.prior is not None]
        block = [dataset, MetaDataset.from_arrays([-0.1], [0.5])]
        alone = evaluate_methods(tags, dataset, 0.95)
        for outcomes in (alone, *block_outcomes(tags, block, 0.95)):
            assert [(type(out), str(out)) for out in outcomes] == [
                (ValueError, str(err.value))
            ] * len(tags)

    def test_each_heterogeneity_fit_runs_once(self, monkeypatch):
        # one DL fit and one REML fit per block, each over all its rows
        calls = []
        for name in ("_dl_fits", "_reml_fits"):
            real = getattr(intervals_module, name)

            def counted(y, v, *args, _real=real, _name=name):
                calls.append((_name, len(y)))
                return _real(y, v, *args)

            monkeypatch.setattr(intervals_module, name, counted)
        scenario = Scenario(n=6, tau2=0.1)
        block = [
            simulate_dataset(replication_stream(3, scenario, rep), scenario)[0]
            for rep in range(5)
        ]
        for datasets in ([DATASET], block):
            calls.clear()
            _evaluate_block(["hts", "hts-hk", "dl", "hts-sj"], datasets, 0.95, [])
            assert calls == [("_dl_fits", len(datasets)), ("_reml_fits", len(datasets))]

    def test_one_grid_batch_and_one_inversion_batch_per_block(self, monkeypatch):
        # every Bayesian tag of a block shares one grid batch, over every
        # dataset and all 11 prior families, and one inversion batch that
        # reads the grids in the batch's flat layout: no PosteriorGrid is built
        calls, built = [], []
        real_grids = methods_module._posterior_grids
        real_intervals = methods_module._mixture_intervals
        real_init = PosteriorGrid.__init__

        def grids(datasets, families, config):
            calls.append(("grids", list(datasets), list(families)))
            return real_grids(datasets, families, config)

        def intervals(layout, requests, level, cdf_tolerance, errors):
            calls.append(("intervals", len(requests)))
            return real_intervals(layout, requests, level, cdf_tolerance, errors)

        def counted_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(methods_module, "_posterior_grids", grids)
        monkeypatch.setattr(methods_module, "_mixture_intervals", intervals)
        monkeypatch.setattr(PosteriorGrid, "__init__", counted_init)
        scenario = Scenario(n=6, tau2=0.1)
        block = [
            simulate_dataset(replication_stream(3, scenario, rep), scenario)[0]
            for rep in range(5)
        ]
        for datasets in ([DATASET], block):
            calls.clear()
            _evaluate_block(ALL_TAGS, datasets, 0.95, [])
            assert built == []
            assert [call[0] for call in calls] == ["grids", "intervals"]
            assert len(calls[0][1]) == len(datasets)
            assert all(a is b for a, b in zip(calls[0][1], datasets))
            assert sorted(family.name for family in calls[0][2]) == sorted(NAMED_PRIORS)
            # a prediction and a credible interval per prior on each dataset
            assert calls[1][1] == 2 * len(NAMED_PRIORS) * len(datasets)

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

    def test_block_equals_each_dataset(self):
        # a block of replications of one scenario goes through one grid
        # batch and one inversion batch; each dataset's outcomes equal its
        # own evaluate_methods call, REML's failure on rep 306 included
        scenario = Scenario(n=3, tau2=0.0)
        block = [
            simulate_dataset(replication_stream(3, scenario, rep), scenario)[0]
            for rep in range(302, 309)
        ]
        for dataset, outcomes in zip(block, block_outcomes(ALL_TAGS, block, 0.95)):
            alone = evaluate_methods(ALL_TAGS, dataset, 0.95)
            for tag, got, want in zip(ALL_TAGS, outcomes, alone):
                if isinstance(want, Exception):
                    assert type(got) is type(want) and str(got) == str(want), tag
                else:
                    assert got == want, tag
        assert isinstance(block_outcomes(["hts-hk"], block, 0.95)[4][0], NumericFailure)


FREQ_TAGS = ["hts", "hts-hk", "hts-sj", "dl"]
# blocks of 12 datasets at n = 3, 7, 19 and 40 (SE ratios to 1e-4, tau2 0,
# 0.1 and 1, rounded and identical effects; the n = 3 block starts with
# Scenario(3, 0) replications 306 and 305 of master seed 3), each with the
# hex of dl_tau2 and reml_tau2, or reml_tau2's failure message and
# last_value, as the per-dataset code before the batched fits returned them
FITS = json.loads((Path(__file__).resolve().parent / "data" / "freq_fits.json").read_text())


def fixture_block(records):
    return [
        MetaDataset.from_arrays(list(map(float, r["effects"])), list(map(float, r["std_errs"])))
        for r in records
    ]


def fit_record(fit):
    if isinstance(fit, NumericFailure):
        return [str(fit), fit.last_value.hex()]
    return fit.tau2.hex()


def public_fit(estimator, dataset):
    try:
        return fit_record(estimator(dataset))
    except NumericFailure as exc:
        return fit_record(exc)


def run_block(tags, block):
    """_evaluate_block's outcomes and the number of warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = block_outcomes(tags, block, 0.95)
    return outcomes, len(caught)


def assert_rows_alone(tags, block, outcomes):
    for dataset, row in zip(block, outcomes):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDispersionWarning)
            alone = evaluate_methods(tags, dataset, 0.95)
        for tag, got, want in zip(tags, row, alone):
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want), tag
                assert getattr(got, "last_value", None) == getattr(want, "last_value", None)
            else:
                assert got == want, tag


@st.composite
def same_n_blocks(draw):
    n = draw(st.integers(3, 40))
    block = []
    for _ in range(draw(st.integers(1, 13))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        se = 0.5 * 10 ** rng.uniform(-draw(st.sampled_from([1, 2, 4])), 0, n)
        tau2 = draw(st.sampled_from([0.0, 0.1, 1.0]))
        y = rng.normal(0.0, 1.0, n) * np.sqrt(tau2 + se**2)
        ties = draw(st.sampled_from(["none", "rounded", "identical"]))
        if ties == "rounded":
            y = np.round(y, 1)
        elif ties == "identical":
            y = np.full(n, y[0])
        block.append(MetaDataset.from_arrays(y, se))
    return block


class TestFrequentistBlock:
    """The plug-in t and Wald tags of a block run as one pass (one DL fit,
    one REML scoring loop); every row's outcome must equal its dataset's
    alone, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(same_n_blocks())
    def test_block_equals_its_rows_alone(self, block):
        outcomes, n_warnings = run_block(FREQ_TAGS, block)
        assert_rows_alone(FREQ_TAGS, block, outcomes)
        assert n_warnings == sum(float(np.ptp(d.effects)) == 0.0 for d in block)
        y = np.stack([d.effects for d in block])
        v = np.stack([d.variances for d in block])
        dl = _dl_fits(y, v)
        for dataset, dl_fit, reml_fit in zip(block, dl, _reml_fits(y, v, dl)):
            assert fit_record(dl_fit) == public_fit(dl_tau2, dataset)
            assert fit_record(reml_fit) == public_fit(reml_tau2, dataset)

    @pytest.mark.parametrize("index", range(len(FITS)))
    def test_fits_match_the_recorded_per_dataset_fits(self, index):
        records = FITS[index]
        block = fixture_block(records)
        y = np.stack([d.effects for d in block])
        v = np.stack([d.variances for d in block])
        dl = _dl_fits(y, v)
        for record, dataset, dl_fit, reml_fit in zip(records, block, dl, _reml_fits(y, v, dl)):
            assert fit_record(dl_fit) == public_fit(dl_tau2, dataset) == record["dl"]
            assert fit_record(reml_fit) == public_fit(reml_tau2, dataset) == record["reml"]

    def test_stalled_and_degenerate_rows(self):
        # the n = 3 block: REML stalls on replication 306 (row 0), and row 5
        # has identical effects (one warning for its HK and SJ variances)
        records = FITS[0]
        block = fixture_block(records)
        degenerate = [i for i, d in enumerate(block) if float(np.ptp(d.effects)) == 0.0]
        assert 5 in degenerate
        outcomes, n_warnings = run_block(FREQ_TAGS, block)
        assert n_warnings == len(degenerate)
        message, last_value = records[0]["reml"]
        for failure in outcomes[0][1:3]:
            assert isinstance(failure, NumericFailure)
            assert str(failure) == message
            assert failure.last_value.hex() == last_value
        for i in degenerate:
            _, hk, sj, _ = outcomes[i]
            assert hk.width == sj.width == 0.0  # REML tau2 and robust variance are 0
        assert_rows_alone(FREQ_TAGS, block, outcomes)
        # without a robust tag no row warns
        assert run_block(["hts", "dl"], block)[1] == 0
