"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from duolink.cli import main

BASE_CONFIG = {
    "n_symbols": 4000,
    "channel": {"sigma_common": 0.3, "sigma_additive": 0.15, "seed": 7},
    "vv": {"window": 1, "remove_mean": False},
    "estimator": {"kappa_infinite": True},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "trial.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


class TestTrialCommand:
    def test_stdout_json(self, config_file, capsys):
        assert main(["trial", "--config", config_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["ber_compensated"] <= 1.0
        assert report["seed"] == 7
        assert report["config"]["n_symbols"] == 4000

    def test_seed_override(self, config_file, capsys):
        assert main(["trial", "--config", config_file, "--seed", "99"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 99

    def test_invalid_seed_override_is_config_error(self, config_file, capsys):
        assert main(["trial", "--config", config_file, "--seed", "-3"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_csv_output(self, config_file, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["trial", "--config", config_file,
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sigma_common,")
        assert len(lines) == 2

    def test_byte_identical_reruns(self, config_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["trial", "--config", config_file, "--out", str(a), "--format", "json"])
        main(["trial", "--config", config_file, "--out", str(b), "--format", "json"])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["trial", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config" in capsys.readouterr().err

    def test_invalid_config_field(self, tmp_path, capsys):
        bad = dict(BASE_CONFIG, channel={"sigma_common": -2})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["trial", "--config", str(path)]) == 1
        assert "sigma_common" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["trial", "--config", str(path)]) == 1

    def test_unknown_flag(self, config_file):
        assert main(["trial", "--config", config_file, "--bogus"]) == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unwritable_output_is_runtime_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["trial", "--config", config_file, "--out", str(out)]) == 2
        assert "x.json" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_writes_points_and_csv(self, tmp_path):
        config = dict(BASE_CONFIG, n_symbols=2000,
                      sweep={"sigma_common": [0.2, 0.3]})
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "point_0000.json").exists()
        assert (out_dir / "point_0001.json").exists()
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.2
        assert float(lines[2].split(",")[0]) == 0.3

    @pytest.mark.parametrize("sweep", [
        [],
        3,
        {"delay_offset": [True]},
    ])
    def test_malformed_sweep_is_config_error(self, tmp_path, capsys, sweep):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(dict(BASE_CONFIG, sweep=sweep)))
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "sweep" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_rejected(self, config_file, tmp_path, capsys, workers):
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", config_file, "--out", str(out_dir),
                     "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out_dir.exists()


class TestEfficiencyCommand:
    def test_writes_curve(self, tmp_path):
        out = tmp_path / "eta.csv"
        code = main(["efficiency", "--alpha-db", "0.2", "--dbeta", "1e-9",
                     "--fmax", "1e9", "--points", "32", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "freq_hz,efficiency"
        assert len(lines) == 33
        first = float(lines[1].split(",")[1])
        assert first == pytest.approx(np.log(10) / 10 * 0.2, abs=1e-12)

    def test_negative_alpha_is_config_error(self, tmp_path):
        assert main(["efficiency", "--alpha-db", "-0.2", "--dbeta", "1e-9",
                     "--fmax", "1e9", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("flag,value,name", [
        ("--alpha-db", "nan", "alpha_dB"),
        ("--dbeta", "nan", "dbeta"),
        ("--fmax", "inf", "fmax"),
    ])
    def test_non_finite_flag_is_config_error(self, tmp_path, capsys, flag, value, name):
        args = {"--alpha-db": "0.2", "--dbeta": "1e-9", "--fmax": "1e9", flag: value}
        out = tmp_path / "x.csv"
        argv = ["efficiency", "--out", str(out)] + [x for kv in args.items() for x in kv]
        assert main(argv) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()


class TestAdaptKappaCommand:
    def test_search_runs(self, tmp_path, capsys):
        config = dict(BASE_CONFIG, n_symbols=2000)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["adapt-kappa", "--config", str(path),
                     "--lo", "0", "--hi", "8", "--tol", "0.5"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 <= result["kappa_opt"] <= 8.0
        assert result["evaluations"] >= 2

    def test_bad_bracket(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, n_symbols=2000)))
        assert main(["adapt-kappa", "--config", str(path),
                     "--lo", "5", "--hi", "1", "--tol", "0.5"]) == 1
        assert "hi" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--lo", "-1"),
        ("--lo", "nan"),
        ("--hi", "inf"),
        ("--tol", "inf"),
        ("--tol", "nan"),
    ])
    def test_bad_flag_is_config_error(self, config_file, capsys, flag, value):
        args = {"--lo": "0", "--hi": "8", "--tol": "0.5", flag: value}
        argv = ["adapt-kappa", "--config", config_file] + [x for kv in args.items() for x in kv]
        assert main(argv) == 1
        assert flag in capsys.readouterr().err
