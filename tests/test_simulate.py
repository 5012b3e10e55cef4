import math

import numpy as np
import pytest

from metapred import (
    DEFAULT_METHODS,
    Scenario,
    SimConfig,
    draw_within_variances,
    replication_stream,
    run_replication,
    run_study,
    simulate_dataset,
)
from metapred import methods as methods_module
from metapred.errors import NumericFailure
from metapred.methods import METHODS
from metapred.simulate import SIGMA_SQ_HIGH, SIGMA_SQ_LOW
from oracles import truncated_sigma_sq_mean


class TestScenarioConfig:
    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(n=2, tau2=0.1)
        with pytest.raises(ValueError):
            Scenario(n=7, tau2=-0.1)
        with pytest.raises(ValueError):
            Scenario(n=7, tau2=0.1, level=1.0)

    def test_default_methods_are_priors_plus_hts(self):
        assert len(DEFAULT_METHODS) == 12
        assert DEFAULT_METHODS[0] == "hts"
        assert "uniform" in DEFAULT_METHODS and "proper3" in DEFAULT_METHODS

    def test_config_validation(self):
        sc = (Scenario(7, 0.1),)
        with pytest.raises(ValueError):
            SimConfig(scenarios=(), methods=("hts",))
        with pytest.raises(ValueError):
            SimConfig(scenarios=sc, methods=())
        with pytest.raises(ValueError):
            SimConfig(scenarios=sc, methods=("nonsense",))
        with pytest.raises(ValueError):
            SimConfig(scenarios=sc, reps=0)
        with pytest.raises(ValueError, match="repeats method tag 'hts'"):
            SimConfig(scenarios=sc, methods=("hts", "uniform", "hts"))
        with pytest.raises(ValueError, match="repeats scenario"):
            SimConfig(scenarios=sc + (Scenario(15, 0.1), Scenario(7, 0.1)))
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must lie in"):
                SimConfig(scenarios=sc, master_seed=seed)
        SimConfig(scenarios=sc, master_seed=2**64 - 1)
        # (89, 0.716) and (900, 0.907) share one 32-bit scenario_key
        with pytest.raises(ValueError, match="share stream key 0x312f649"):
            SimConfig(scenarios=(Scenario(89, 0.716), Scenario(900, 0.907)))

    def test_repeat_checks_scale_to_large_configs(self):
        # 20000 scenarios: a scan of every earlier element took about a minute
        sc = tuple(Scenario(n, 0.0) for n in range(3, 20003))
        assert len(SimConfig(scenarios=sc, methods=("hts",)).scenarios) == 20000
        with pytest.raises(ValueError, match=r"repeats scenario Scenario\(n=3,"):
            SimConfig(scenarios=sc + (Scenario(3, 0.0),), methods=("hts",))

    def test_available_methods_include_credible_tags(self):
        tags = METHODS
        assert "cred:jeffreys" in tags
        assert "dl" in tags and "hts-sj" in tags


# streams take a Scenario; its content fingerprint is the stream subkey
SC = Scenario(7, 0.1)


class TestStreams:
    def test_replay_is_identical(self):
        a = replication_stream(42, SC, 17).random(8)
        b = replication_stream(42, SC, 17).random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_replications_differ(self):
        a = replication_stream(42, SC, 17).random(8)
        b = replication_stream(42, SC, 18).random(8)
        c = replication_stream(42, Scenario(15, 0.1), 17).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestWithinVariances:
    def test_truncation_interval(self):
        stream = replication_stream(0, SC, 0)
        vals = draw_within_variances(stream, 5000)
        assert vals.min() >= SIGMA_SQ_LOW
        assert vals.max() <= SIGMA_SQ_HIGH

    def test_replay_determinism(self):
        a = draw_within_variances(replication_stream(1, SC, 5), 64)
        b = draw_within_variances(replication_stream(1, SC, 5), 64)
        np.testing.assert_array_equal(a, b)

    def test_mean_matches_truncated_chi2_oracle(self):
        stream = replication_stream(7, SC, 0)
        vals = draw_within_variances(stream, 100_000)
        want = truncated_sigma_sq_mean()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - want) <= 3.0 * se


class TestSimulateDataset:
    def test_zero_heterogeneity_is_degenerate(self):
        scenario = Scenario(5, 0.0)
        dataset, theta_new = simulate_dataset(replication_stream(3, scenario, 0), scenario)
        assert theta_new == 0.0

    def test_replay_determinism(self):
        scenario = Scenario(6, 0.05)
        d1, t1 = simulate_dataset(replication_stream(9, scenario, 2), scenario)
        d2, t2 = simulate_dataset(replication_stream(9, scenario, 2), scenario)
        assert t1 == t2
        np.testing.assert_array_equal(d1.effects, d2.effects)
        np.testing.assert_array_equal(d1.std_errs, d2.std_errs)

    def test_theta_new_variance(self):
        tau2 = 0.1
        scenario = Scenario(3, tau2)
        draws = np.array(
            [
                simulate_dataset(replication_stream(11, scenario, r), scenario)[1]
                for r in range(10_000)
            ]
        )
        sample_var = draws.var(ddof=1)
        se = tau2 * math.sqrt(2.0 / (len(draws) - 1))
        assert abs(sample_var - tau2) <= 3.0 * se


class TestRunReplication:
    def test_replay_determinism(self):
        methods = ("hts", "jeffreys", "cred:jeffreys", "dl")
        a = run_replication(Scenario(5, 0.1), methods, (21, 3))
        b = run_replication(Scenario(5, 0.1), methods, (21, 3))
        assert a == b

    def test_prediction_and_mean_targets_differ(self):
        # the same prior scores against theta_new for prediction and
        # against mu = 0 for its credible variant
        out = run_replication(Scenario(4, 0.3), ("jeffreys", "cred:jeffreys"), (5, 8))
        assert set(out) == {"jeffreys", "cred:jeffreys"}
        for covered, width, failed in out.values():
            assert not failed
            assert width > 0

    def test_no_failures_on_moderate_scenarios(self):
        for rep in range(20):
            out = run_replication(Scenario(4, 0.1), DEFAULT_METHODS, (33, rep))
            assert not any(failed for _, _, failed in out.values())

    def test_only_numeric_failures_count_as_failed(self, monkeypatch):
        # a Scenario guarantees n >= 3 and a valid level, so a ValueError
        # from a method is a bug and must not show up as lower coverage
        def stall(*args, **kwargs):
            raise NumericFailure("stall")

        def bug(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(methods_module, "_hts_interval", stall)
        covered, width, failed = run_replication(SC, ("hts",), (33, 0))["hts"]
        assert (covered, failed) == (False, True) and math.isnan(width)
        monkeypatch.setattr(methods_module, "_hts_interval", bug)
        with pytest.raises(ValueError, match="bug"):
            run_replication(SC, ("hts", "dl"), (33, 0))


class TestRunStudy:
    def test_aggregation_arithmetic(self, monkeypatch):
        import metapred.simulate as sim

        pattern = {0: (True, 2.0), 1: (True, 2.0), 2: (False, 4.0), 3: (True, 2.0)}

        def fake_block(scenario, methods, master_seed, reps):
            return [{m: (*pattern[rep], False) for m in methods} for rep in reps]

        monkeypatch.setattr(sim, "_run_block", fake_block)
        config = SimConfig(
            scenarios=(Scenario(4, 0.1),), methods=("hts",), reps=4, master_seed=0
        )
        (rec,) = sim.run_study(config)
        assert rec.coverage == 0.75
        assert rec.mean_width == 2.5
        assert rec.reps_used == 4
        assert rec.failures == 0
        assert rec.mc_se == pytest.approx(math.sqrt(0.75 * 0.25 / 4))

    def test_aggregation_skips_failed_replications(self, monkeypatch):
        import metapred.simulate as sim

        # (covered, width, failed) per replication index
        pattern = {
            0: (True, 2.0, False),
            1: (False, math.nan, True),
            2: (False, 4.0, False),
            3: (False, math.nan, True),
            4: (True, 3.0, False),
        }

        def fake_block(scenario, methods, master_seed, reps):
            return [{"hts": pattern[rep], "jeffreys": (False, math.nan, True)} for rep in reps]

        monkeypatch.setattr(sim, "_run_block", fake_block)
        config = SimConfig(
            scenarios=(Scenario(4, 0.1),), methods=("hts", "jeffreys"), reps=5
        )
        hts, jeffreys = sim.run_study(config)
        assert (hts.reps_used, hts.failures) == (3, 2)
        assert hts.coverage == 2 / 3
        assert hts.mean_width == 3.0
        assert hts.mc_se == pytest.approx(math.sqrt(2 / 3 * 1 / 3 / 3))
        assert (jeffreys.reps_used, jeffreys.failures) == (0, 5)
        assert math.isnan(jeffreys.coverage)
        assert math.isnan(jeffreys.mean_width)
        assert math.isnan(jeffreys.mc_se)

    def test_aggregation_and_mc_se_identity(self):
        config = SimConfig(
            scenarios=(Scenario(4, 0.05),),
            methods=("hts", "dumouchel"),
            reps=25,
            master_seed=123,
        )
        records = run_study(config)
        assert len(records) == 2
        for rec in records:
            assert rec.reps_used + rec.failures == 25
            assert rec.mc_se == pytest.approx(
                math.sqrt(rec.coverage * (1 - rec.coverage) / rec.reps_used), abs=1e-15
            )
            assert 0.0 <= rec.coverage <= 1.0
            assert rec.mean_width > 0

    def test_parallelism_does_not_change_records(self):
        # reps 9 at parallelism 2 gives chunks of 2 that cross scenarios
        for reps in (8, 9):
            config = SimConfig(
                scenarios=(Scenario(4, 0.1), Scenario(5, 0.02)),
                methods=("hts", "jeffreys", "shrinkage"),
                reps=reps,
                master_seed=99,
            )
            serial = run_study(config, parallelism=1)
            parallel = run_study(config, parallelism=2)
            assert serial == parallel

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_block_size_does_not_change_records(self, monkeypatch, parallelism):
        # run_study runs each scenario's replications in blocks of at most
        # _BLOCK_STUDIES // n (and, on a pool, ceil(reps / (4 workers)));
        # blocks of 1, of 2 and of the default size give the same records
        import metapred.simulate as sim

        config = SimConfig(
            scenarios=(Scenario(4, 0.1), Scenario(5, 0.02)),
            methods=("hts", "jeffreys", "cred:shrinkage", "proper1"),
            reps=19,
            master_seed=17,
        )
        expected = run_study(config, parallelism=1)
        sizes = []
        real_blocks = sim._blocks

        def recorded(config, cap):
            blocks = real_blocks(config, cap)
            sizes.extend(len(reps) for _, reps in blocks)
            return blocks

        monkeypatch.setattr(sim, "_blocks", recorded)
        # a pool of 2 takes at most ceil(19 / 8) = 3 replications at a time
        largest = 19 if min(parallelism, sim._usable_cpus()) == 1 else 3
        for block_studies, cap in ((4, 1), (10, 2), (sim._BLOCK_STUDIES, largest)):
            monkeypatch.setattr(sim, "_BLOCK_STUDIES", block_studies)
            sizes.clear()
            assert run_study(config, parallelism=parallelism) == expected
            assert max(sizes) == cap and sum(sizes) == 2 * 19

    def test_failure_log_keeps_the_replay_seed(self, caplog):
        # REML scoring stalls on rep 306 of Scenario(3, 0.0) under master
        # seed 3 (ROADMAP item 1); inside its block the warning still names
        # the method, the scenario and the seed that replays it alone
        scenario = Scenario(3, 0.0)
        config = SimConfig(scenarios=(scenario,), methods=("hts-hk",), reps=307, master_seed=3)
        with caplog.at_level("WARNING", logger="metapred.simulate"):
            (record,) = run_study(config, parallelism=1)
        assert record.failures >= 1
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            m.startswith(f"method hts-hk failed on scenario {scenario}, rep_seed=(3, 306): ")
            for m in messages
        ), messages
        covered, width, failed = run_replication(scenario, ("hts-hk",), (3, 306))["hts-hk"]
        assert failed and math.isnan(width)

    @pytest.mark.parametrize("source", ["affinity", "cpu_count"])
    def test_pool_is_capped_at_usable_cpus(self, monkeypatch, source):
        # a huge parallelism starts no more workers than the CPUs this
        # process may use; the executor is faked, so no process starts
        import os

        import metapred.simulate as sim

        asked = []

        class InlineExecutor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        if source == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", InlineExecutor)
        config = SimConfig(
            scenarios=(Scenario(4, 0.1), Scenario(5, 0.02)),
            methods=("hts", "jeffreys"),
            reps=5,
            master_seed=3,
        )
        capped = sim.run_study(config, parallelism=10**9)
        assert asked == [3 if source == "affinity" else 5]
        assert capped == sim.run_study(config, parallelism=1)
        assert len(asked) == 1  # parallelism 1 runs in process

    def test_scenario_order_does_not_change_cells(self):
        s1, s2 = Scenario(4, 0.1), Scenario(5, 0.02)
        base = run_study(
            SimConfig(scenarios=(s1, s2), methods=("hts",), reps=6, master_seed=7)
        )
        flipped = run_study(
            SimConfig(scenarios=(s2, s1), methods=("hts",), reps=6, master_seed=7)
        )
        by_scenario = {r.scenario: r for r in flipped}
        for rec in base:
            other = by_scenario[rec.scenario]
            assert rec.coverage == other.coverage
            assert rec.mean_width == other.mean_width
