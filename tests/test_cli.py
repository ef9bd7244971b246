"""End-to-end tests of the command-line interface."""

import json
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duolink import adapt_kappa, harness, run_trial, trial_config_from_dict
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

    @pytest.mark.parametrize("content", [
        b'{"n_symbols": 1000, "note": "\xff"}',
        b"[" * 100_000,
        b'{"n_symbols": 1' + b"0" * 5000 + b"}",
    ], ids=["not-utf8", "nested-too-deep", "too-many-digits"])
    def test_undecodable_config_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["trial", "--config", str(path)]) == 1
        assert "not valid UTF-8 JSON" in capsys.readouterr().err

    def test_format_without_out_is_config_error(self, config_file, capsys):
        assert main(["trial", "--config", config_file, "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert "--format" in captured.err and captured.out == ""

    def test_unknown_flag(self, config_file):
        assert main(["trial", "--config", config_file, "--bogus"]) == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unwritable_output_is_runtime_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["trial", "--config", config_file, "--out", str(out)]) == 2
        assert "x.json" in capsys.readouterr().err


class Interrupted(BaseException):
    """Stands in for a signal that stops `duolink sweep` between two points."""


@st.composite
def resume_histories(draw):
    """(sweep config, passes): a grid of at most six points of at most 500
    symbols, and the passes of `duolink sweep` run on one output directory.
    Each pass is (damage done to the directory before it, number of points it
    computes before it is interrupted, or None to let it finish)."""
    axes = {"sigma_common": draw(st.lists(st.sampled_from([0.1, 0.2, 0.3]),
                                          min_size=1, max_size=3, unique=True)),
            "kappa": draw(st.lists(st.sampled_from([0.0, 2.0, float("inf")]),
                                   min_size=1, max_size=2, unique=True))}
    config = dict(BASE_CONFIG, n_symbols=draw(st.integers(40, 500)), max_lag=4, sweep=axes)
    points = len(axes["sigma_common"]) * len(axes["kappa"])
    damage = st.tuples(st.sampled_from(["delete", "truncate", "corrupt", "stray"]),
                       st.integers(0, points - 1), st.integers(0, 2**16))
    passes = draw(st.lists(st.tuples(st.lists(damage, max_size=4),
                                     st.none() | st.integers(0, points)),
                           min_size=1, max_size=4))
    return config, passes


def damage_point(out_dir: Path, kind: str, index: int, cut: int) -> None:
    """Damage the point file of `index` (if there is one) the way an
    interrupted or faulty run could, or leave a temp file of a killed write."""
    path = out_dir / f"point_{index:04d}.json"
    if kind == "stray":
        (out_dir / f".{path.name}.{cut}.tmp").write_text('{"index": ')
        return
    if not path.exists():
        return
    data = path.read_bytes()
    if kind == "delete":
        path.unlink()
    elif kind == "truncate":
        # cut before the last closing brace, so that the JSON is incomplete
        path.write_bytes(data[: cut % max(data.rfind(b"}"), 1)])
    else:
        at = cut % (len(data) + 1)
        path.write_bytes(data[:at] + (b"\xff" if cut % 2 else b"\x00") + data[at:])


class TestSweepCommand:
    @settings(max_examples=25, deadline=None)
    @given(resume_histories())
    def test_any_resume_history_gives_clean_csv(self, case):
        """However passes are interrupted and point files damaged between
        them, a final complete pass writes the CSV of one clean run."""
        config, passes = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            tmp = Path(tmp)
            cfg_path = tmp / "sweep.json"
            cfg_path.write_text(json.dumps(config))
            clean, out_dir = tmp / "clean", tmp / "resumed"
            assert main(["sweep", "--config", str(cfg_path), "--out", str(clean)]) == 0
            argv = ["sweep", "--config", str(cfg_path), "--out", str(out_dir)]
            for damages, stop_after in passes:
                if out_dir.exists():
                    for kind, index, cut in damages:
                        damage_point(out_dir, kind, index, cut)
                if stop_after is None:
                    assert main(argv) == 0
                    continue
                computed = []

                def run_trial_until_stopped(cfg, real=harness.run_trial):
                    if len(computed) == stop_after:
                        raise Interrupted
                    computed.append(cfg)
                    return real(cfg)

                mp.setattr(harness, "run_trial", run_trial_until_stopped)
                try:
                    main(argv)
                except Interrupted:
                    pass
                mp.undo()
            assert main(argv) == 0
            assert (out_dir / "sweep.csv").read_bytes() == (clean / "sweep.csv").read_bytes()

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
        {"kappa": []},
        {"kappa": 3},
    ])
    def test_malformed_sweep_is_config_error(self, tmp_path, capsys, sweep):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(dict(BASE_CONFIG, sweep=sweep)))
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "sweep" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failed_point_reported(self, tmp_path, capsys, monkeypatch):
        """A point that fails is named on stderr and left out of sweep.csv;
        the other point completes and the command exits 2."""
        config = dict(BASE_CONFIG, n_symbols=2000, sweep={"sigma_common": [0.2, 0.3]})
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"

        def flaky(cfg, real=harness._realize):
            if cfg.channel.sigma_common == 0.2:
                raise RuntimeError("injected failure")
            return real(cfg)

        monkeypatch.setattr(harness, "_realize", flaky)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert "point 0 failed: " in captured.err and "injected failure" in captured.err
        assert "1/2 points completed" in captured.out
        assert len((out_dir / "sweep.csv").read_text().splitlines()) == 2

    def test_mistyped_point_file_recomputed(self, tmp_path):
        config = dict(BASE_CONFIG, n_symbols=2000, sweep={"sigma_common": [0.2, 0.3]})
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        argv = ["sweep", "--config", str(cfg_path), "--out", str(out_dir)]
        assert main(argv) == 0
        csv = (out_dir / "sweep.csv").read_text()
        point = out_dir / "point_0000.json"
        point.write_text(json.dumps({**json.loads(point.read_text()), "case_counts": 5}))
        assert main(argv) == 0
        assert (out_dir / "sweep.csv").read_text() == csv

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

    def test_one_channel_realization_per_search(self, tmp_path, capsys, monkeypatch):
        """The search simulates the channel once and finds what one
        run_trial per kappa finds."""
        config = dict(BASE_CONFIG, n_symbols=2000)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        cfg = trial_config_from_dict(config)

        def per_kappa_trial(kappa):
            estimator = replace(cfg.estimator, kappa=kappa, kappa_infinite=False)
            trial = replace(cfg, estimator=estimator, compare_baseline=False)
            return run_trial(trial).ber_compensated

        expected = asdict(adapt_kappa(per_kappa_trial, 0.0, 8.0, 0.5))
        calls = []
        apply_channel = harness.apply_channel
        monkeypatch.setattr(harness, "apply_channel",
                            lambda *a: calls.append(1) or apply_channel(*a))
        assert main(["adapt-kappa", "--config", str(path),
                     "--lo", "0", "--hi", "8", "--tol", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))
        assert expected["evaluations"] > 2
        assert len(calls) == 1

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
