import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from metapred import (
    DEFAULT_METHODS,
    MetaDataset,
    Scenario,
    SimConfig,
    replication_stream,
    run_replication,
    run_study,
    simulate_dataset,
)
from metapred import methods as methods_module
from metapred.errors import NumericFailure
from metapred.io import emit_coverage_table, parse_sim_config
from metapred.methods import METHODS
from metapred.simulate import SIGMA_SQ_HIGH, SIGMA_SQ_LOW
from oracles import sequential_draw, truncated_sigma_sq_mean


class TestScenarioConfig:
    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(n=2, tau2=0.1)
        with pytest.raises(ValueError):
            Scenario(n=7, tau2=-0.1)
        with pytest.raises(ValueError):
            Scenario(n=7, tau2=0.1, level=1.0)
        for mu in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                Scenario(n=7, tau2=0.1, mu=mu)

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
        # (89, 0.716) and (900, 0.907) share one 32-bit _scenario_key
        with pytest.raises(ValueError, match="share stream key 0x312f649"):
            SimConfig(scenarios=(Scenario(89, 0.716), Scenario(900, 0.907)))

    def test_counts_and_seed_must_be_integers(self):
        # a fractional n, reps or seed is refused when it is given, not by a
        # TypeError deep inside the first run; numpy integers are accepted
        sc = (Scenario(7, 0.1),)
        with pytest.raises(ValueError, match="n must be an integer, got 3.5"):
            Scenario(3.5, 0.1)
        with pytest.raises(ValueError, match="reps must be an integer, got 2.5"):
            SimConfig(scenarios=sc, reps=2.5)
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            SimConfig(scenarios=sc, master_seed=1.5)
        config = SimConfig(
            scenarios=(Scenario(np.int64(3), 0.1),),
            methods=("hts",),
            reps=np.int32(2),
            master_seed=np.uint64(5),
        )
        plain = SimConfig(scenarios=(Scenario(3, 0.1),), methods=("hts",), reps=2, master_seed=5)
        assert run_study(config) == run_study(plain)

    def test_repeat_checks_scale_to_large_configs(self):
        # 20000 scenarios: a scan of every earlier element took about a minute
        sc = tuple(Scenario(n, 0.0) for n in range(3, 20003))
        assert len(SimConfig(scenarios=sc, methods=("hts",)).scenarios) == 20000
        with pytest.raises(ValueError, match=r"repeats scenario Scenario\(n=3,"):
            SimConfig(scenarios=sc + (Scenario(3, 0.0),), methods=("hts",))

    def test_negative_zero_draws_as_zero(self):
        # -0.0 == 0.0, so both scenarios print the same row; a -0.0 tau2 or
        # mu used to key other streams (float.hex tells the zeros apart)
        for minus, plus in (
            (Scenario(3, -0.0), Scenario(3, 0.0)),
            (Scenario(3, 0.1, mu=-0.0), Scenario(3, 0.1, mu=0.0)),
        ):
            assert math.copysign(1.0, minus.tau2) == math.copysign(1.0, minus.mu) == 1.0
            a, b = (
                run_study(SimConfig(scenarios=(sc,), methods=("hts",), reps=5, master_seed=1))
                for sc in (minus, plus)
            )
            assert a == b
            assert emit_coverage_table(a) == emit_coverage_table(b)

    def test_available_methods_include_credible_tags(self):
        tags = METHODS
        assert "cred:jeffreys" in tags
        assert "dl" in tags and "hts-sj" in tags


# streams take a Scenario; its content fingerprint is the stream subkey
SC = Scenario(7, 0.1)
DATA = Path(__file__).resolve().parent / "data"


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


def row_variances(stream, n):
    # the within-study variances of a row drawn from the stream: the first
    # draws of _draw_rows, a block of one
    import metapred.simulate as sim

    variances, _ = sim._draw_rows(sim._stream_prefixes(stream), 1, n, 0)
    return variances[0]


class TestWithinVariances:
    def test_truncation_interval(self):
        stream = replication_stream(0, SC, 0)
        vals = row_variances(stream, 5000)
        assert vals.min() >= SIGMA_SQ_LOW
        assert vals.max() <= SIGMA_SQ_HIGH

    def test_replay_determinism(self):
        a = row_variances(replication_stream(1, SC, 5), 64)
        b = row_variances(replication_stream(1, SC, 5), 64)
        np.testing.assert_array_equal(a, b)

    def test_equals_value_by_value_draw(self):
        # the variances are the first draws of a replication's stream
        for n in (1, 3, 60, 5000):
            vals = row_variances(replication_stream(2, SC, n), n)
            _, std_errs, _ = sequential_draw(replication_stream(2, SC, n), n, 0.0)
            assert np.sqrt(vals).tobytes() == std_errs.tobytes()

    def test_mean_matches_truncated_chi2_oracle(self):
        stream = replication_stream(7, SC, 0)
        vals = row_variances(stream, 100_000)
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

    def test_uniforms_at_0_and_1_are_clamped(self):
        # ndtri(0) and ndtri(1) are infinite: a normal's uniform is clamped
        # to [2^-53, 1 - 2^-53] first, so the draw stays finite
        class Edges:
            # uniforms 0.3, 0.3, 0.3 (accepted variances), then 0 and 1 by turns
            def __init__(self):
                self.drawn = 0

            def random(self, size):
                i = np.arange(self.drawn, self.drawn + size)
                self.drawn += size
                return np.where(i < 3, 0.3, (i % 2 == 0).astype(float))

        scenario = Scenario(3, 1.0)
        dataset, theta_new = simulate_dataset(Edges(), scenario)
        effects, std_errs, new_effect = sequential_draw(Edges(), 3, 1.0)
        assert np.isfinite(dataset.effects).all() and math.isfinite(theta_new)
        assert dataset.effects.tobytes() == effects.tobytes()
        assert dataset.std_errs.tobytes() == std_errs.tobytes()
        assert theta_new == new_effect == float(ndtri(2.0**-53))

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


def block_draws(master_seed, scenario, reps):
    # the datasets and new-study effects a run_study block draws
    import metapred.simulate as sim

    keys = [sim._scenario_key(scenario) << 32 | rep for rep in reps]
    prefixes = sim._block_prefixes(master_seed, keys)
    return sim._simulate_rows(prefixes, scenario.n, [scenario] * len(reps))


class TestBlockDraws:
    def test_drawn_data_meet_the_dataset_invariants(self):
        # drawn datasets skip MetaDataset's validation; each must equal the
        # validated dataset built from its own arrays
        for scenario in (Scenario(3, 0.0), Scenario(7, 0.1, mu=-1.5), Scenario(60, 2.0)):
            datasets, theta_new = block_draws(5, scenario, range(40))
            assert all(type(t) is float and math.isfinite(t) for t in theta_new)
            for dataset in [*datasets, simulate_dataset(replication_stream(5, scenario, 3), scenario)[0]]:
                checked = MetaDataset.from_arrays(dataset.effects, dataset.std_errs)
                for name in ("effects", "std_errs", "variances"):
                    got, want = getattr(dataset, name), getattr(checked, name)
                    assert got.dtype == want.dtype == np.float64
                    assert got.shape == want.shape == (scenario.n,)
                    assert got.tobytes() == want.tobytes()
                    assert not got.flags.writeable and not want.flags.writeable
                    with pytest.raises(ValueError):
                        got.flags.writeable = True
                se_sq = dataset.std_errs**2
                assert se_sq.min() >= SIGMA_SQ_LOW and se_sq.max() <= SIGMA_SQ_HIGH

    @pytest.mark.parametrize("spare", [1, 0])
    @given(
        master_seed=st.integers(0, 2**64 - 1),
        first_rep=st.integers(0, 2**32 - 41),
        size=st.integers(1, 40),
        n=st.integers(3, 60),
        tau2=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        mu=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    )
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_block_rows_equal_single_draws(
        self, monkeypatch, spare, master_seed, first_rep, size, n, tau2, mu
    ):
        # a spare of 0 leaves a row no uniform for a rejection: every row
        # that rejects a variance runs past its prefix and is drawn again
        import metapred.simulate as sim

        monkeypatch.setattr(sim, "_PREFIX_SPARE", spare)
        scenario = Scenario(n, tau2, mu=mu)
        reps = range(first_rep, first_rep + size)
        datasets, theta_new = block_draws(master_seed, scenario, reps)
        for rep, dataset, new_effect in zip(reps, datasets, theta_new):
            alone, alone_new = simulate_dataset(
                replication_stream(master_seed, scenario, rep), scenario
            )
            assert new_effect.hex() == alone_new.hex()
            assert dataset.effects.tobytes() == alone.effects.tobytes()
            assert dataset.std_errs.tobytes() == alone.std_errs.tobytes()
        # and the first row equals the value-by-value draw from its stream
        stream = replication_stream(master_seed, scenario, first_rep)
        effects, std_errs, new_effect = sequential_draw(stream, n, tau2, mu)
        assert theta_new[0].hex() == new_effect.hex()
        assert datasets[0].effects.tobytes() == effects.tobytes()
        assert datasets[0].std_errs.tobytes() == std_errs.tobytes()

    def test_rows_past_the_prefix_are_drawn_again(self, monkeypatch):
        # with no spare uniforms, the rows that reject a variance ask for a
        # prefix twice as long, and every row still gets the dataset its
        # stream gives at the default prefix
        import metapred.simulate as sim

        scenario = Scenario(30, 0.1)
        expected, expected_new = block_draws(11, scenario, range(20))
        asked = []
        real = sim._block_prefixes

        def recorded(master_seed, keys):
            prefixes = real(master_seed, keys)

            def asking(pending, k):
                asked.append((len(pending), k))
                return prefixes(pending, k)

            return asking

        monkeypatch.setattr(sim, "_block_prefixes", recorded)
        monkeypatch.setattr(sim, "_PREFIX_SPARE", 0)
        datasets, theta_new = block_draws(11, scenario, range(20))
        assert asked[0] == (20, 91) and asked[1][1] == 182 and len(asked) >= 2
        assert theta_new == expected_new
        for got, want in zip(datasets, expected):
            assert got.effects.tobytes() == want.effects.tobytes()
            assert got.std_errs.tobytes() == want.std_errs.tobytes()


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
        def stall(tags, datasets, level):
            return [dict.fromkeys(tags, NumericFailure("stall")) for _ in datasets]

        def bug(tags, datasets, level):
            return [dict.fromkeys(tags, ValueError("bug")) for _ in datasets]

        monkeypatch.setattr(methods_module, "_plugin_intervals", stall)
        covered, width, failed = run_replication(SC, ("hts",), (33, 0))["hts"]
        assert (covered, failed) == (False, True) and math.isnan(width)
        monkeypatch.setattr(methods_module, "_plugin_intervals", bug)
        with pytest.raises(ValueError, match="bug"):
            run_replication(SC, ("hts", "dl"), (33, 0))


class TestRunStudy:
    def test_aggregation_arithmetic(self, monkeypatch):
        import metapred.simulate as sim

        pattern = {0: (True, 2.0), 1: (True, 2.0), 2: (False, 4.0), 3: (True, 2.0)}

        def fake_block(parts, methods, master_seed):
            return [[{m: (*pattern[rep], False) for m in methods} for rep in reps] for _, reps in parts]

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

        def fake_block(parts, methods, master_seed):
            return [
                [{"hts": pattern[rep], "jeffreys": (False, math.nan, True)} for rep in reps]
                for _, reps in parts
            ]

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
        # run_study cuts the replications of the scenarios that share n and
        # level into the fewest near-equal blocks, a multiple of the workers
        # in number, of at most studies // n replications (studies is
        # _BLOCK_STUDIES with a Bayesian tag, else _PLUGIN_STUDIES); blocks
        # of 1, of 2 and of the default size give the same records
        import metapred.simulate as sim

        plugin = ("hts", "hts-hk", "hts-sj", "dl")
        bayes = ("hts", "jeffreys", "cred:shrinkage", "proper1", "hts-hk", "hts-sj", "dl")
        sizes, straddles = [], []
        real_blocks = sim._blocks

        def recorded(config, workers):
            units = real_blocks(config, workers)
            sizes.extend(sum(len(reps) for _, reps in unit) for unit in units)
            straddles.extend(len(unit) > 1 for unit in units)
            return units

        monkeypatch.setattr(sim, "_blocks", recorded)
        workers = min(parallelism, sim._usable_cpus())
        for methods, bound in ((bayes, "_BLOCK_STUDIES"), (plugin, "_PLUGIN_STUDIES")):
            config = SimConfig(
                scenarios=(Scenario(4, 0.1), Scenario(5, 0.02), Scenario(4, 0.3), Scenario(4, 0.0)),
                methods=methods,
                reps=19,
                master_seed=17,
            )
            expected = run_study(config, parallelism=1)
            # at the default bound the three n = 4 scenarios are one block
            # per worker, and a block holds replications of two or three
            default = (getattr(sim, bound), -(-3 * 19 // workers))
            for studies, largest in ((4, 1), (10, 2), default):
                monkeypatch.setattr(sim, bound, studies)
                sizes.clear()
                straddles.clear()
                assert run_study(config, parallelism=parallelism) == expected
                assert max(sizes) == largest and sum(sizes) == 4 * 19
            assert straddles == [True] * workers + [False] * workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_are_the_fewest_balanced_pieces_that_fit(self, workers):
        # _blocks alone: nothing runs and no process starts
        import metapred.simulate as sim

        scenarios = (
            Scenario(3, 0.0),
            Scenario(7, 0.1),
            Scenario(30, 0.1),
            Scenario(7, 0.0),
            Scenario(300, 0.0),
            Scenario(7, 0.1, level=0.9),
            Scenario(30, 0.2),
        )
        # the groups of scenarios that share n and level, in config order
        groups = {}
        for sc in scenarios:
            groups.setdefault((sc.n, sc.level), []).append(sc)
        for methods, studies in (
            (("hts", "hts-hk", "dl"), sim._PLUGIN_STUDIES),
            (("hts", "cred:jeffreys"), sim._BLOCK_STUDIES),
        ):
            for reps in (1, 2, 5, 100, 1000, 7919):
                config = SimConfig(scenarios=scenarios, methods=methods, reps=reps)
                units = sim._blocks(config, workers)
                keys = [{(sc.n, sc.level) for sc, _ in unit} for unit in units]
                assert all(len(key) == 1 for key in keys)  # a unit holds one group
                keys = [key.pop() for key in keys]
                # each group's units are one run, the runs in config order
                assert [k for i, k in enumerate(keys) if keys.index(k) == i] == list(groups)
                assert keys == sorted(keys, key=list(groups).index)
                for key, group in groups.items():
                    cut = [unit for unit, k in zip(units, keys) if k == key]
                    assert all(reps_of for unit in cut for _, reps_of in unit)
                    pairs = [(sc, i) for unit in cut for sc, reps_of in unit for i in reps_of]
                    assert pairs == [(sc, i) for sc in group for i in range(reps)]
                    sizes = [sum(len(reps_of) for _, reps_of in unit) for unit in cut]
                    bound = max(1, studies // key[0])
                    assert max(sizes) <= bound
                    assert max(sizes) - min(sizes) <= 1
                    # a multiple of the workers, unless every block is one
                    # replication
                    assert len(cut) % workers == 0 or max(sizes) == 1
                    # the fewest: one block fewer per worker would not fit
                    if len(cut) > workers:
                        assert -(-len(pairs) // (len(cut) - workers)) > bound
        # only a Bayesian tag keeps blocks at _BLOCK_STUDIES // n
        for methods, larger in ((("hts", "dl"), True), (("hts", "uniform"), False)):
            config = SimConfig(scenarios=(Scenario(7, 0.1),), methods=methods, reps=1000)
            units = sim._blocks(config, workers)
            largest = max(sum(len(reps_of) for _, reps_of in unit) for unit in units)
            assert (largest > sim._BLOCK_STUDIES // 7) == larger
        # a frequentist study of four scenarios of 100 replications, two per
        # n: one block per n and worker
        config = SimConfig(
            scenarios=tuple(Scenario(n, t) for n in (5, 30) for t in (0.0, 0.1)),
            methods=("hts", "hts-hk", "hts-sj", "dl"),
            reps=100,
        )
        assert len(sim._blocks(config, workers)) == 2 * workers

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_blocks_across_scenarios_give_each_scenario_its_own_records(self, parallelism):
        # three (tau2, mu) pairs at two levels share n = 4, and one scenario
        # has n = 5: blocks hold replications of several scenarios, yet
        # every cell equals its scenario run as a study of its own (each row
        # scored against its own scenario's mu), and a row of such a block
        # equals run_replication
        import metapred.simulate as sim

        methods = ("hts", "jeffreys", "cred:shrinkage", "proper1", "dl", "hts-hk")
        scenarios = tuple(
            Scenario(4, tau2, mu=mu, level=level)
            for level in (0.95, 0.8)
            for tau2, mu in ((0.0, 0.0), (0.05, 1.0), (0.2, -0.5))
        ) + (Scenario(5, 0.1),)
        config = SimConfig(scenarios=scenarios, methods=methods, reps=7, master_seed=29)
        records = run_study(config, parallelism=parallelism)
        alone = [
            record
            for sc in scenarios
            for record in run_study(SimConfig((sc,), methods, reps=7, master_seed=29))
        ]
        assert records == alone
        # one block per group at one worker: the second holds the 0.8 level
        units = sim._blocks(config, 1)
        assert [len(unit) for unit in units] == [3, 3, 1]
        unit = units[1]
        assert [sc for sc, _ in unit] == list(scenarios[3:6])
        rows = sim._run_block(unit, methods, 29)
        assert rows[1][6] == run_replication(unit[1][0], methods, (29, 6))

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_frequentist_table_is_pinned(self, parallelism):
        # hts, hts-hk, hts-sj and dl at n = 3, 5, 30 and tau2 = 0, 0.1, byte
        # for byte; n = 3, tau2 = 0 holds the REML stall of replication 306
        config = parse_sim_config((DATA / "freq_study.cfg").read_bytes())
        table = emit_coverage_table(run_study(config, parallelism=parallelism))
        assert table == (DATA / "freq_coverage.csv").read_bytes()

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

    def test_pool_is_kept_between_studies(self, monkeypatch):
        # studies of one size share a pool; another size shuts it down
        # before making its own, and a broken pool is not kept
        import os
        from concurrent.futures.process import BrokenProcessPool

        import metapred.simulate as sim

        events = []

        class CountingExecutor:
            broken = False

            def __init__(self, max_workers):
                events.append(("make", max_workers))
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                events.append(("close", self.max_workers))
                return False

            def map(self, fn, *iterables, chunksize=1):
                if CountingExecutor.broken:
                    raise BrokenProcessPool("a worker died")
                return map(fn, *iterables)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", CountingExecutor)
        config = SimConfig(scenarios=(Scenario(4, 0.1),), methods=("hts",), reps=5, master_seed=3)
        expected = sim.run_study(config, parallelism=1)
        assert sim.run_study(config, parallelism=2) == expected
        assert sim.run_study(config, parallelism=2) == expected
        assert events == [("make", 2)]
        assert sim.run_study(config, parallelism=3) == expected
        assert events == [("make", 2), ("close", 2), ("make", 3)]
        CountingExecutor.broken = True
        with pytest.raises(BrokenProcessPool):
            sim.run_study(config, parallelism=3)
        CountingExecutor.broken = False
        assert sim.run_study(config, parallelism=3) == expected
        assert events[3:] == [("close", 3), ("make", 3)]

    def test_parallelism_must_be_an_integer(self, monkeypatch):
        # refused before any pool is made: the executor here starts nothing
        import metapred.simulate as sim

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was asked for")

        monkeypatch.setattr(sim, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sim, "_worker_pool", no_pool)
        config = SimConfig(scenarios=(Scenario(4, 0.1),), methods=("hts",), reps=2)
        for bad in (1.5, "2", None):
            with pytest.raises(ValueError, match=f"parallelism must be an integer, got {bad!r}"):
                sim.run_study(config, parallelism=bad)
        with pytest.raises(ValueError, match="parallelism must be >= 1, got 0"):
            sim.run_study(config, parallelism=0)

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
