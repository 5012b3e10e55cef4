import json
import math
import random
from pathlib import Path

import pytest

from metapred import (
    ANALYZE_METHODS,
    ConfigError,
    CoverageRecord,
    DataError,
    MetaDataset,
    Scenario,
    emit_analysis_report,
    emit_coverage_table,
    parse_dataset_csv,
    parse_sim_config,
    run_analysis,
)
from metapred.io import parse_grid_spec
from metapred.methods import METHODS

BASIC_CSV = b"study,effect,se\nA,0.5,0.2\nB,-0.1,0.3\n"
DATA = Path(__file__).resolve().parent / "data"


class TestParseDatasetCsv:
    def test_basic(self):
        ds = parse_dataset_csv(BASIC_CSV)
        assert ds.n == 2
        assert list(ds.effects) == [0.5, -0.1]
        assert list(ds.std_errs) == [0.2, 0.3]

    def test_zero_se_names_the_row(self):
        bad = b"study,effect,se\nA,0.5,0.2\nB,-0.1,0\n"
        with pytest.raises(DataError, match="row 3"):
            parse_dataset_csv(bad)

    def test_crlf_and_whitespace_are_normalized(self):
        messy = b"study,effect,se\r\nA, 0.5 , 0.2\r\nB,-0.1,0.3\r\n"
        ds = parse_dataset_csv(messy)
        ref = parse_dataset_csv(BASIC_CSV)
        assert list(ds.effects) == list(ref.effects)
        assert list(ds.std_errs) == list(ref.std_errs)

    def test_header_must_match(self):
        with pytest.raises(DataError, match="header"):
            parse_dataset_csv(b"study,effect,stderr\nA,1,1\nB,2,1\n")
        with pytest.raises(DataError, match="header"):
            parse_dataset_csv(b"study,effect,se,extra\nA,1,1,9\nB,2,1,9\n")

    def test_non_numeric_cell(self):
        with pytest.raises(DataError, match="row 2"):
            parse_dataset_csv(b"study,effect,se\nA,zero,0.2\nB,1,0.3\n")

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="at least 2"):
            parse_dataset_csv(b"study,effect,se\nA,0.5,0.2\n")


class TestParseSimConfig:
    def test_fractional_range(self):
        cfg = parse_sim_config(b"n = [7]\ntau2 = [0.01..0.20 step 0.01]\n")
        assert len(cfg.scenarios) == 20
        assert cfg.scenarios[0].tau2 == pytest.approx(0.01)
        assert cfg.scenarios[-1].tau2 == pytest.approx(0.20)

    def test_integer_range(self):
        cfg = parse_sim_config(b"n = [4..20]\ntau2 = [0.1]\n")
        assert len(cfg.scenarios) == 17
        assert [s.n for s in cfg.scenarios] == list(range(4, 21))

    def test_defaults(self):
        cfg = parse_sim_config(b"n = [7]\ntau2 = [0.1]\n")
        assert cfg.reps == 1000
        assert cfg.master_seed == 0
        assert len(cfg.methods) == 12
        assert cfg.scenarios[0].level == 0.95

    def test_full_config(self):
        text = b"""
        # a small study
        n = [7, 15]
        tau2 = [0.05, 0.1]
        reps = 50
        seed = 42
        level = 0.9
        methods = [hts, uniform, cred:jeffreys]
        """
        cfg = parse_sim_config(text)
        assert len(cfg.scenarios) == 4
        assert cfg.reps == 50
        assert cfg.master_seed == 42
        assert cfg.methods == ("hts", "uniform", "cred:jeffreys")
        assert all(s.level == 0.9 for s in cfg.scenarios)

    def test_seed_and_reps_are_exact(self):
        base = b"n = [7]\ntau2 = [0.1]\n"
        for seed in (12345678901234567891, 12345678901234567000, 2**64 - 1):
            assert parse_sim_config(base + b"seed = %d\n" % seed).master_seed == seed
        assert parse_sim_config(base + b"reps = 1e3\nseed = 5e0\n").reps == 1000

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_sim_config(b"tau2 = [0.1]\n")  # n missing
        with pytest.raises(ConfigError):
            parse_sim_config(b"n = [7]\ntau2 = [0.1]\nmethods = []\n")
        with pytest.raises(ConfigError):
            parse_sim_config(b"n = [7]\ntau2 = [0.1]\nmethods = [nonsense]\n")
        with pytest.raises(ConfigError):
            parse_sim_config(b"n = [7]\ntau2 = [-0.1]\n")
        with pytest.raises(ConfigError):
            parse_sim_config(b"n = [7]\ntau2 = [0.1]\nreps = 0\n")
        with pytest.raises(ConfigError):
            parse_sim_config(b"n = [7]\ntau2 = [0.1]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            parse_sim_config(b"n = [2]\ntau2 = [0.1]\n")
        with pytest.raises(ConfigError):
            parse_sim_config(b"n = [7]\ntau2 = [0.01..0.2]\n")  # step required
        bad_values = (
            b"n = [7.5]\ntau2 = [0.1]\n",
            b"n = [nan]\ntau2 = [0.1]\n",
            b"n = [7]\ntau2 = [nan]\n",
            b"n = [7]\ntau2 = [0.1]\nreps = nan\n",
            b"n = [7]\ntau2 = [0.1]\nseed = inf\n",
            b"n = [7]\ntau2 = [0.1]\nmethods = [hts, hts]\n",
            b"n = [7, 7]\ntau2 = [0.1]\n",
            b"n = [7]\ntau2 = [0.1]\nseed = -5\n",
            b"n = [7]\ntau2 = [0.1]\nseed = 18446744073709551616\n",
            b"n = [89, 900]\ntau2 = [0.716, 0.907]\n",  # _scenario_key collision
        )
        for text in bad_values:
            with pytest.raises(ConfigError):
                parse_sim_config(text)

    def test_scenario_count_is_bounded(self):
        # 1998 x 1001 scenarios are refused before any Scenario is built;
        # 8000 scenarios parse, the repeat checks being set lookups
        with pytest.raises(ConfigError, match="1998 x 1001 scenarios"):
            parse_sim_config(b"n = [3..2000]\ntau2 = [0..1 step 0.001]\n")
        assert len(parse_sim_config(b"n = [3..8002]\ntau2 = [0.1]\n").scenarios) == 8000

    def test_grid_spec(self):
        assert parse_grid_spec("0.5..2.0 step 0.5") == [0.5, 1.0, 1.5, 2.0]
        assert parse_grid_spec("0.1, 1, 10") == [0.1, 1.0, 10.0]
        assert len(parse_grid_spec("0..999999 step 1")) == 10**6
        for bad in ("", "nan", "0..inf step 1", "0..1e300 step 1e-300", "0..1e9 step 1"):
            with pytest.raises(ConfigError):
                parse_grid_spec(bad)


@pytest.fixture(scope="module")
def report():
    ds = parse_dataset_csv(BASIC_CSV)
    return run_analysis(ds, methods=("dl", "dumouchel"), level=0.95)


class TestEmitAnalysisReport:
    def test_csv_has_one_row_per_method(self, report):
        lines = emit_analysis_report(report, "csv").decode().splitlines()
        assert lines[0] == "method,kind,lower,upper,level"
        assert len(lines) == 3

    def test_json_round_trip(self, report):
        doc = json.loads(emit_analysis_report(report, "json"))
        assert doc["summary"]["n"] == 2
        assert doc["summary"]["mu_hat"] == report.mu_hat
        assert doc["summary"]["q_pvalue"] == report.q_pvalue
        methods = {m["method"]: m for m in doc["methods"]}
        assert set(methods) == {"dl", "dumouchel"}
        for res in report.results:
            entry = methods[res.method]
            assert entry["lower"] == res.interval.lower
            assert entry["upper"] == res.interval.upper
            assert entry["kind"] == res.interval.kind

    def test_plotdata_row_count_and_sorting(self, report):
        lines = emit_analysis_report(report, "plotdata").decode().splitlines()
        assert len(lines) == 3
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == sorted(names)

    def test_failed_methods_are_marked(self):
        ds = parse_dataset_csv(BASIC_CSV)  # n = 2: the t interval needs 3
        rep = run_analysis(ds, methods=("hts", "dl"))
        by_name = {r.method: r for r in rep.results}
        assert by_name["hts"].interval is None
        assert "3" in by_name["hts"].error
        assert by_name["dl"].interval is not None
        csv_lines = emit_analysis_report(rep, "csv").decode().splitlines()
        assert csv_lines[1].startswith("hts,failed,,,")
        doc = json.loads(emit_analysis_report(rep, "json"))
        failed = [m for m in doc["methods"] if m["method"] == "hts"][0]
        assert "error" in failed

    def test_unknown_format(self, report):
        with pytest.raises(ConfigError):
            emit_analysis_report(report, "yaml")

    def test_byte_determinism(self, report):
        for fmt in ("json", "csv", "plotdata"):
            assert emit_analysis_report(report, fmt) == emit_analysis_report(report, fmt)


class TestEmitCoverageTable:
    def record(self, method="hts", n=4, tau2=0.1, coverage=0.75, reps=4):
        return CoverageRecord(
            method=method,
            scenario=Scenario(n=n, tau2=tau2),
            coverage=coverage,
            mean_width=1.25,
            mc_se=math.sqrt(coverage * (1 - coverage) / reps),
            reps_used=reps,
            failures=0,
        )

    def test_single_record(self):
        out = emit_coverage_table([self.record()]).decode()
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "method,n,tau2,level,reps,coverage,mc_se,mean_width,failures"
        assert lines[1] == "hts,4,0.100000,0.950000,4,0.750000,0.216506,1.250000,0"

    def test_sorted_output_is_shuffle_invariant(self):
        records = [
            self.record(method=m, n=n, tau2=t)
            for m in ("uniform", "hts")
            for n in (4, 7)
            for t in (0.05, 0.1)
        ]
        base = emit_coverage_table(records)
        shuffled = records[:]
        random.Random(0).shuffle(shuffled)
        assert emit_coverage_table(shuffled) == base

    def test_empty_input(self):
        with pytest.raises(DataError):
            emit_coverage_table([])


class TestRunAnalysis:
    def test_summary_consistency(self):
        ds = MetaDataset.from_arrays([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        rep = run_analysis(ds, methods=("hts",))
        assert rep.n == 3
        assert rep.q == pytest.approx(8.0)
        assert rep.tau2_dl == pytest.approx(3.0)
        assert rep.i_squared == pytest.approx(0.75)
        assert rep.mu_hat == pytest.approx(0.0)
        assert rep.var_mu_hat == pytest.approx(4.0 / 3.0)
        assert rep.q_pvalue == pytest.approx(math.exp(-4.0))

    def test_default_method_set(self):
        assert len(ANALYZE_METHODS) == 14
        assert ANALYZE_METHODS[-3:] == ("hts", "hts-hk", "hts-sj")

    def test_readme_data_every_tag_matches_pinned_csv(self):
        # the bytes `metapred analyze --methods <all 26 tags> --format csv`
        # prints for the README data
        ds = parse_dataset_csv((DATA / "readme_trials.csv").read_bytes())
        report = run_analysis(ds, methods=tuple(METHODS))
        assert len(METHODS) == 26
        assert emit_analysis_report(report, "csv") == (DATA / "readme_analyze.csv").read_bytes()

    def test_unknown_method_rejected(self):
        ds = parse_dataset_csv(BASIC_CSV)
        with pytest.raises(ValueError):
            run_analysis(ds, methods=("nope",))
