import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metapred
from metapred.cli import main
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
