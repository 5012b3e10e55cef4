import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metapred
from metapred.cli import main
from metapred.io import emit_analysis_report, parse_dataset_csv, run_analysis
from metapred.priors import NAMED_PRIORS

DATA = "study,effect,se\nA,0.12,0.35\nB,-0.4,0.28\nC,0.61,0.43\nD,0.25,0.30\n"
CONFIG = """
n = [4]
tau2 = [0.05]
reps = 6
seed = 11
methods = [hts, dumouchel, shrinkage]
"""


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATA)
    return str(path)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(CONFIG)
    return str(path)


class TestAnalyze:
    def test_json_output(self, data_file, capsys):
        assert main(["analyze", "--data", data_file, "--methods", "hts,dl,jeffreys"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["n"] == 4
        assert {m["method"] for m in doc["methods"]} == {"hts", "dl", "jeffreys"}

    def test_csv_output(self, data_file, capsys):
        assert main(
            ["analyze", "--data", data_file, "--methods", "hts", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "method,kind,lower,upper,level"
        assert lines[1].startswith("hts,prediction,")

    def test_default_method_set_runs(self, data_file, capsys):
        assert main(["analyze", "--data", data_file, "--format", "plotdata"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 15  # header + 14 default methods

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["analyze", "--data", str(tmp_path / "nope.csv")]) == 3
        assert "data error" in capsys.readouterr().err

    def test_bad_method_is_config_error(self, data_file, capsys):
        assert main(["analyze", "--data", data_file, "--methods", "bogus"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_level_is_config_error(self, data_file, capsys):
        assert main(["analyze", "--data", data_file, "--level", "1.5"]) == 2

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("study,effect,se\nA,1,0\nB,2,1\n")
        assert main(["analyze", "--data", str(path)]) == 3
        assert "row 2" in capsys.readouterr().err

    def test_rising_posterior_at_tiny_ses_fails(self, tmp_path, capsys):
        # SEs of 1.6e-16 used to print the point interval (0.11, 0.11) for
        # 10 priors: the tail scan read a still rising posterior as decayed
        path = tmp_path / "tiny.csv"
        path.write_text("study,effect,se\nA,0.12,1.6e-16\nB,-0.4,1.6e-16\nC,0.61,1.6e-16\n")
        assert main(["analyze", "--data", str(path)]) == 0
        results = {m["method"]: m for m in json.loads(capsys.readouterr().out)["methods"]}
        for name in NAMED_PRIORS:
            if name != "proper1":  # its grid ends at tau = 10, unscanned
                assert "does not decay" in results[name]["error"], name
        assert "error" in results["proper1"]
        hts = results["hts"]
        assert (round(hts["lower"], 6), round(hts["upper"], 6)) == (-7.300379, 7.520379)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", ["1e154", "1e300"])
    def test_overflowing_effects_are_a_numeric_failure(self, scale, tmp_path, capsys):
        # Cochran's Q overflows, so the DL estimate is not finite: a numeric
        # failure of the data (exit 4), not a config error (exit 2)
        path = tmp_path / "huge.csv"
        path.write_text(f"study,effect,se\nA,{scale},1\nB,-{scale},1\nC,0.3,2\n")
        assert main(["analyze", "--data", str(path)]) == 4
        assert capsys.readouterr().err.endswith(
            "metapred: numeric failure: tau2 must be finite and >= 0, got inf\n"
        )

    def test_mean_prior_conflict_warns(self, tmp_path, capsys):
        # effects near 1045 lie 10 SDs out under the N(0, 10000) mean prior,
        # which drags the Bayesian intervals toward 0: one stderr line, and
        # stdout is the report as run_analysis gives it
        path = tmp_path / "far.csv"
        path.write_text("study,effect,se\nA,1040,25\nB,1052,40\nC,1047,30\nD,1041,35\n")
        assert main(["analyze", "--data", str(path), "--format", "csv"]) == 0
        captured = capsys.readouterr()
        report = run_analysis(parse_dataset_csv(path.read_bytes()))
        assert captured.out.encode() == emit_analysis_report(report, "csv")
        assert captured.err == (
            "metapred: warning: the weighted mean of the effects lies 10.4 SDs from 0 "
            "under the N(0, 10000) mean prior; the Bayesian intervals are drawn toward 0\n"
        )
        # without a Bayesian tag the mean prior plays no part: no warning
        assert main(["analyze", "--data", str(path), "--methods", "hts,dl"]) == 0
        assert capsys.readouterr().err == ""

    def test_no_warning_without_conflict(self, data_file, capsys):
        assert main(["analyze", "--data", data_file]) == 0
        assert capsys.readouterr().err == ""

    # every positive finite SE either analyses or is a data error: SEs
    # 1e-300..1e300 in four layouts (all studies, one of five, one of two,
    # three of six), plus the ends of the accepted range and a 1e-10 SE
    # ratio, where S1^2 - S2 taken as a difference cancels to 0
    SE_SHAPES = {
        "all": lambda s: [s] * 3,
        "one": lambda s: [s, 0.2, 0.3, 0.25, 0.4],
        "two": lambda s: [0.2, s],
        "half": lambda s: [s, 0.3, s, 0.3, s, 0.3],
    }
    SE_EXPONENTS = [round(-300 + 600 * k / 19, 1) for k in range(20)] + [-77, -11, 76]

    # valid input prints no numpy warning either: a RuntimeWarning fails
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("exponent", SE_EXPONENTS)
    @pytest.mark.parametrize("shape", list(SE_SHAPES))
    def test_any_positive_se_exits_cleanly(self, shape, exponent, tmp_path, capsys):
        effects = [0.12, -0.4, 0.61, 0.25, -0.05, 0.33]
        ses = self.SE_SHAPES[shape](10.0**exponent)
        rows = "".join(f"S{i},{y!r},{se!r}\n" for i, (y, se) in enumerate(zip(effects, ses)))
        path = tmp_path / "data.csv"
        path.write_text("study,effect,se\n" + rows)
        code = main(["analyze", "--data", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 3, 4), err
        if code == 3:
            assert "out of range" in err


class TestSimulate:
    def test_table_to_stdout(self, config_file, capsys):
        assert main(["simulate", "--config", config_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "method,n,tau2,level,reps,coverage,mc_se,mean_width,failures"
        assert len(lines) == 4

    def test_out_file_matches_stdout(self, config_file, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["simulate", "--config", config_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["simulate", "--config", config_file]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_out_into_missing_directory_is_config_error(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran before the output was opened")

        monkeypatch.setattr(metapred.cli, "run_study", no_study)
        out = tmp_path / "missing" / "table.csv"
        assert main(["simulate", "--config", config_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"metapred: config error: cannot write {out}: No such file or directory\n"

    def test_env_seed_override(self, config_file, tmp_path, monkeypatch, capsys):
        assert main(["simulate", "--config", config_file]) == 0
        base = capsys.readouterr().out
        monkeypatch.setenv("METAPRED_SEED", "999")
        assert main(["simulate", "--config", config_file]) == 0
        overridden = capsys.readouterr().out
        assert base != overridden
        monkeypatch.setenv("METAPRED_SEED", "11")  # same as config: identical bytes
        assert main(["simulate", "--config", config_file]) == 0
        assert capsys.readouterr().out == base

    def test_bad_env_seed(self, config_file, monkeypatch, capsys):
        monkeypatch.setenv("METAPRED_SEED", "not-a-number")
        assert main(["simulate", "--config", config_file]) == 2
        monkeypatch.setenv("METAPRED_SEED", "-1")
        assert main(["simulate", "--config", config_file]) == 2
        assert "seed must lie in [0, 2^64)" in capsys.readouterr().err

    def test_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n = [7]\n")
        assert main(["simulate", "--config", str(path)]) == 2
        path.write_text("n = [7]\ntau2 = [nan]\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestPriors:
    def test_list(self, capsys):
        assert main(["priors", "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("uniform\t")
        assert [line.split("\t")[0] for line in lines] == list(NAMED_PRIORS)

    def test_density(self, data_file, capsys):
        assert main(
            [
                "priors", "density",
                "--prior", "dumouchel",
                "--data", data_file,
                "--tau-grid", "0.1..0.5 step 0.1",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "tau,density,log_density"
        assert len(lines) == 6

    def test_conventional_density_at_any_scale(self, tmp_path, capsys):
        # the data x 1e-8 died in the normalizer with a traceback; the
        # density at k tau is the unit-scale density / k
        logs = []
        for k in (1.0, 1e-8):
            path = tmp_path / "scaled.csv"
            path.write_text(
                "study,effect,se\n"
                + "".join(f"{s},{k * y!r},{k * se!r}\n" for s, y, se in
                          (("A", 0.3, 0.4), ("B", -0.2, 0.9), ("C", 0.8, 0.6)))
            )
            grid = f"{0.5 * k!r}..{0.5 * k!r} step 1"
            assert main(["priors", "density", "--prior", "conventional", "--data", str(path),
                         "--tau-grid", grid]) == 0
            logs.append(float(capsys.readouterr().out.splitlines()[1].split(",")[2]))
        assert logs[1] == pytest.approx(logs[0] - math.log(1e-8), abs=1e-9)

    def test_unknown_prior(self, data_file, capsys):
        assert main(
            ["priors", "density", "--prior", "nope", "--data", data_file,
             "--tau-grid", "0.1..0.5 step 0.1"]
        ) == 2


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_console_entry_point(self, data_file):
        # the child imports the same package as this process, installed or not
        env = {**os.environ, "PYTHONPATH": str(Path(metapred.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "metapred.cli", "analyze", "--data", data_file,
             "--methods", "dl", "--format", "csv"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("method,kind,lower,upper,level")
