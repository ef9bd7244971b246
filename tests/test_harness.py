"""Tests for the trials, classifier, intervals, sweeps and emission."""

import json
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import duolink.harness
from duolink import (
    BERReport,
    Case,
    ChannelParams,
    ConfigError,
    EstimatorConfig,
    TrialConfig,
    VVConfig,
    classify_case,
    classify_cases,
    emit,
    run_sweep,
    run_trial,
    sweep_configs,
    trial_config_from_dict,
    trial_config_to_dict,
    wilson_interval,
)
from oracles import CASE_TRUTH_TABLE, wilson_reference


def small_config(**channel_kwargs):
    defaults = dict(sigma_common=0.3, sigma_additive=0.15, seed=42)
    defaults.update(channel_kwargs)
    return TrialConfig(
        n_symbols=4000,
        channel=ChannelParams(**defaults),
        vv=VVConfig(window=1, remove_mean=False),
        estimator=EstimatorConfig(kappa_infinite=True),
    )


class TestClassifyCase:
    def test_both_received_correct(self):
        assert classify_case(0, 0, 0, 0, 0, 0) is Case.NO_CORRECTION_REQUIRED

    def test_neighbor_quadrant_corrected(self):
        assert classify_case(0, 0, 0, 1, 0, 0) is Case.CORRECTION_SUCCESSFUL

    def test_both_moved_not_correctable(self):
        assert classify_case(0, 0, 1, 1, 1, 1) is Case.NO_CORRECTION_POSSIBLE

    def test_correct_channel_broken_is_additional_error(self):
        assert classify_case(0, 0, 1, 0, 1, 1) is Case.ADDITIONAL_ERRORS

    def test_wrong_channel_stays_wrong(self):
        assert classify_case(0, 0, 1, 0, 1, 0) is Case.NO_CORRECTION_POSSIBLE

    def test_received_correct_takes_precedence(self):
        """Both received correct classifies as case 1 even if the algorithm
        then breaks a channel (first rule in the decision list)."""
        assert classify_case(0, 0, 0, 0, 1, 0) is Case.NO_CORRECTION_REQUIRED

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="quadrant"):
            classify_case(4, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="quadrant"):
            classify_case(0, 0, 0, -1, 0, 0)

    def test_matches_truth_table_exhaustively(self):
        """All 4^6 quadrant combinations agree with the hand-written table."""
        for combo in product(range(4), repeat=6):
            t1, t2, r1, r2, p1, p2 = combo
            key = (r1 == t1, r2 == t2, p1 == t1, p2 == t2)
            assert classify_case(*combo) is CASE_TRUTH_TABLE[key]

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        cols = [rng.integers(0, 4, 500) for _ in range(6)]
        codes = classify_cases(*cols)
        for i in range(500):
            assert codes[i] == classify_case(*(int(c[i]) for c in cols))

    def test_vectorized_range_check(self):
        with pytest.raises(ValueError, match="quadrant"):
            classify_cases(np.array([5]), np.array([0]), np.array([0]),
                           np.array([0]), np.array([0]), np.array([0]))


class TestWilsonInterval:
    def test_reference_value(self):
        lo, hi = wilson_interval(50, 10000)
        ref_lo, ref_hi = wilson_reference(50, 10000)
        assert lo == pytest.approx(ref_lo, abs=1e-15)
        assert hi == pytest.approx(ref_hi, abs=1e-15)

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0 < hi < 0.01

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 500)
        assert lo < 7 / 500 < hi

    def test_width_shrinks_like_sqrt_n(self):
        """Doubling the trial count shrinks the width by ~1/sqrt(2)."""
        lo1, hi1 = wilson_interval(100, 100000)
        lo2, hi2 = wilson_interval(200, 200000)
        ratio = (hi2 - lo2) / (hi1 - lo1)
        assert 0.65 <= ratio <= 0.75

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestRunTrial:
    def test_noiseless_trial_is_error_free(self):
        cfg = small_config(sigma_common=0.0, sigma_additive=0.0)
        report = run_trial(cfg)
        assert report.ber_uncompensated == 0.0
        assert report.ber_compensated == 0.0
        assert report.case_counts == (cfg.n_symbols, 0, 0, 0)

    def test_histogram_sums_to_valid_symbols(self):
        report = run_trial(small_config())
        assert sum(report.case_counts) == report.valid_symbols

    def test_deterministic(self):
        a = run_trial(small_config())
        b = run_trial(small_config())
        assert a == b

    def test_seed_changes_outcome(self):
        a = run_trial(small_config(seed=1))
        b = run_trial(small_config(seed=2))
        assert a.errors_compensated != b.errors_compensated

    def test_compensation_reduces_errors(self):
        report = run_trial(replace(small_config(), n_symbols=100000))
        assert report.ber_compensated < report.ber_uncompensated

    def test_delay_recovered_and_masked(self):
        cfg = replace(small_config(delay_offset=4), n_symbols=20000)
        report = run_trial(cfg)
        assert report.estimated_lag == 4
        assert report.lag_confident
        assert report.valid_symbols == cfg.n_symbols - 4
        assert report.ber_compensated < report.ber_uncompensated

    def test_negative_delay_recovered(self):
        cfg = replace(small_config(delay_offset=-6), n_symbols=20000)
        report = run_trial(cfg)
        assert report.estimated_lag == -6
        assert report.valid_symbols == cfg.n_symbols - 6

    def test_without_baseline(self):
        report = run_trial(replace(small_config(), compare_baseline=False))
        assert report.ber_uncompensated is None
        assert report.errors_uncompensated is None
        assert report.ci_uncompensated is None
        assert report.ber_compensated >= 0.0

    @pytest.mark.parametrize("baseline", [True, False])
    def test_report_dict_holds_plain_values(self, baseline):
        """Every report value is a plain int/float/bool/None or a tuple of
        them (config leaves may also be str), so reports survive json.dumps."""
        def plain(value, extra=()):
            if type(value) is tuple:
                return all(plain(v) for v in value)
            return type(value) in (int, float, bool, type(None), *extra)

        cfg = replace(small_config(delay_offset=3), compare_baseline=baseline)
        d = run_trial(cfg).to_dict()
        config = d.pop("config")
        for key, value in d.items():
            assert plain(value), key
        for section in config.values():
            for key, value in (section.items() if type(section) is dict else [("", section)]):
                assert plain(value, (str,)), key
        json.dumps(run_trial(cfg).to_dict())

    def test_intervals_bracket_ber(self):
        report = run_trial(small_config())
        lo, hi = report.ci_compensated
        assert lo <= report.ber_compensated <= hi


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = small_config(delay_offset=2)
        assert trial_config_from_dict(trial_config_to_dict(cfg)) == cfg

    def test_missing_n_symbols(self):
        with pytest.raises(ConfigError, match="n_symbols"):
            trial_config_from_dict({})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="symbols_n"):
            trial_config_from_dict({"n_symbols": 1000, "symbols_n": 2})

    def test_unknown_channel_key(self):
        with pytest.raises(ConfigError, match="sigma_comon"):
            trial_config_from_dict(
                {"n_symbols": 1000, "channel": {"sigma_comon": 0.1}})

    def test_invalid_channel_value_names_section(self):
        with pytest.raises(ConfigError, match="channel"):
            trial_config_from_dict(
                {"n_symbols": 1000, "channel": {"sigma_common": -1}})

    def test_invalid_window_names_section(self):
        with pytest.raises(ConfigError, match="vv"):
            trial_config_from_dict({"n_symbols": 1000, "vv": {"window": 2}})

    def test_defaults_applied(self):
        cfg = trial_config_from_dict({"n_symbols": 1000})
        assert cfg.channel == ChannelParams()
        assert cfg.vv == VVConfig()
        assert cfg.compare_baseline

    def test_readme_config_examples_load(self):
        """The README's trial config loads as written and its sweep section
        expands, so a removed field cannot linger in the docs."""
        readme = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
        trial, sweep = [json.loads(block) for block in
                        re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)]
        base = trial_config_from_dict(trial)
        assert len(sweep_configs(base, sweep["sweep"])) == 6


class TestEmit:
    def test_empty_reports_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", path)
        assert path.read_text() == duolink.harness.CSV_COLUMNS + "\n"

    def test_csv_round_trip_exact(self, tmp_path):
        report = run_trial(small_config())
        path = tmp_path / "out.csv"
        emit([report], "csv", path)
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["sigma_common"]) == 0.3
        assert float(cells["sigma_additive"]) == 0.15
        assert float(cells["kappa"]) == float("inf")
        assert int(cells["delay"]) == 0
        assert float(cells["ber_base"]) == report.ber_uncompensated
        assert float(cells["ber_comp"]) == report.ber_compensated
        assert float(cells["ci_lo_base"]) == report.ci_uncompensated[0]
        assert float(cells["ci_hi_comp"]) == report.ci_compensated[1]
        assert int(cells["seed"]) == 42

    def test_case_columns_sum_to_valid_symbols(self, tmp_path):
        report = run_trial(small_config())
        path = tmp_path / "out.csv"
        emit([report], "csv", path)
        row = path.read_text().splitlines()[1].split(",")
        cases = [int(c) for c in row[10:14]]
        assert sum(cases) == report.valid_symbols

    def test_json_round_trip(self, tmp_path):
        report = run_trial(small_config())
        path = tmp_path / "out.json"
        emit([report], "json", path)
        loaded = json.loads(path.read_text())
        assert BERReport.from_dict(loaded[0]) == report

    def test_byte_identical_reruns(self, tmp_path):
        for fmt, name in (("csv", "a.csv"), ("json", "a.json")):
            p1, p2 = tmp_path / ("1" + name), tmp_path / ("2" + name)
            emit([run_trial(small_config())], fmt, p1)
            emit([run_trial(small_config())], fmt, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit([], "xml", tmp_path / "x")


class TestSweep:
    def test_single_point_grid_equals_run_trial(self):
        base = small_config()
        points = run_sweep(base, {})
        assert len(points) == 1
        assert points[0].report == run_trial(base)

    def test_grid_expansion_and_seeds(self):
        base = small_config()
        cfgs = sweep_configs(base, {"sigma_common": [0.1, 0.2],
                                    "kappa": [0.0, 1.0, float("inf")]})
        assert len(cfgs) == 6
        assert [c.channel.seed for c in cfgs] == [42 ^ i for i in range(6)]
        assert cfgs[2].estimator.kappa_infinite
        assert not cfgs[1].estimator.kappa_infinite
        assert cfgs[1].estimator.kappa == 1.0

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis"):
            sweep_configs(small_config(), {"sigma": [0.1]})

    def test_non_integer_delay_rejected(self):
        with pytest.raises(ConfigError, match="delay"):
            sweep_configs(small_config(), {"delay_offset": [1.5]})

    def test_kappa_grid_runs_clean(self):
        base = replace(small_config(), n_symbols=2000)
        points = run_sweep(base, {"kappa": [0.0, 2.0, float("inf")]})
        assert all(p.error is None for p in points)
        assert len(points) == 3

    def test_resume_skips_completed_points(self, tmp_path):
        base = replace(small_config(), n_symbols=2000)
        axes = {"sigma_common": [0.2, 0.3]}
        first = run_sweep(base, axes, out_dir=tmp_path)
        # poison one cached point: a resumed sweep must trust it, not recompute
        cached = json.loads((tmp_path / "point_0000.json").read_text())
        cached["ber_compensated"] = 0.123456
        (tmp_path / "point_0000.json").write_text(json.dumps(cached))
        second = run_sweep(base, axes, out_dir=tmp_path)
        assert second[0].report.ber_compensated == 0.123456
        assert second[1].report == first[1].report

    def test_resume_recomputes_points_of_another_config(self, tmp_path):
        base = replace(small_config(), n_symbols=2000)
        run_sweep(base, {"sigma_common": [0.2, 0.3]}, out_dir=tmp_path)
        axes = {"sigma_common": [0.5, 0.6]}
        rerun = run_sweep(base, axes, out_dir=tmp_path)
        fresh = run_sweep(base, axes)
        assert [p.report for p in rerun] == [p.report for p in fresh]
        stored = json.loads((tmp_path / "point_0001.json").read_text())
        assert stored["config"]["channel"]["sigma_common"] == 0.6

    @pytest.mark.parametrize("axes,message", [
        ({"kappa": [False]}, "kappa"),
        ({"sigma_common": ["0.2"]}, "sigma_common"),
        ({"delay_offset": [float("inf")]}, "delay_offset"),
    ])
    def test_malformed_axes_rejected(self, axes, message):
        with pytest.raises(ConfigError, match=message):
            sweep_configs(small_config(), axes)

    def test_point_failure_recorded_sweep_continues(self, monkeypatch):
        base = replace(small_config(), n_symbols=2000)
        real = duolink.harness.run_trial

        def flaky(cfg):
            if cfg.channel.sigma_common == 0.2:
                raise RuntimeError("injected failure")
            return real(cfg)

        monkeypatch.setattr(duolink.harness, "run_trial", flaky)
        points = run_sweep(base, {"sigma_common": [0.2, 0.3]})
        assert points[0].error is not None and "injected" in points[0].error
        assert points[1].report is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_write_failure_recorded_sweep_continues(self, tmp_path, workers):
        base = replace(small_config(), n_symbols=2000)
        (tmp_path / "point_0001.json").mkdir()
        points = run_sweep(base, {"sigma_common": [0.2, 0.3, 0.4]},
                           out_dir=tmp_path, workers=workers)
        assert points[1].report is None and "point_0001.json" in points[1].error
        assert points[0].report is not None and points[2].report is not None
        assert (tmp_path / "point_0000.json").exists()
        assert (tmp_path / "point_0002.json").exists()

    def test_parallel_matches_serial(self):
        base = replace(small_config(), n_symbols=2000)
        axes = {"sigma_common": [0.2, 0.3], "sigma_additive": [0.1, 0.15]}
        serial = run_sweep(base, axes, workers=1)
        parallel = run_sweep(base, axes, workers=2)
        assert [p.report for p in serial] == [p.report for p in parallel]


class TestTrialConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_symbols": 0},
        {"n_symbols": -5},
        {"n_symbols": 1000, "max_lag": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs)

    @pytest.mark.parametrize("field", ["n_symbols", "max_lag"])
    def test_bool_count_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            TrialConfig(**{"n_symbols": 1000, field: True})

    @pytest.mark.parametrize("data,field", [
        ({"n_symbols": True}, "n_symbols"),
        ({"n_symbols": 1000, "channel": {"seed": 1.5}}, "seed"),
        ({"n_symbols": 1000, "channel": {"sigma_common": float("nan")}}, "sigma_common"),
        ({"n_symbols": 1000, "channel": {"delay_offset": True}}, "delay_offset"),
        ({"n_symbols": 1000, "vv": {"window": True}}, "window"),
        ({"n_symbols": 1000, "vv": {"remove_mean": "false"}}, "remove_mean"),
        ({"n_symbols": 1000, "estimator": {"kappa_infinite": "no"}}, "kappa_infinite"),
        ({"n_symbols": 1000, "compare_baseline": "yes"}, "compare_baseline"),
        ({"n_symbols": 1000, "compare_baseline": 1}, "compare_baseline"),
        ({"n_symbols": 1000, "channel": {"sigma_common": True}}, "sigma_common"),
        ({"n_symbols": 1000, "estimator": {"kappa": True}}, "kappa"),
        ({"n_symbols": 1000, "estimator": {"kappa": "1.0"}}, "kappa"),
        ({"n_symbols": 1000, "channel": {"sigma_additive": "0.1"}}, "sigma_additive"),
        ({"n_symbols": 1000, "estimator": {"pipeline": "cascaded"}}, "pipeline"),
        ({"n_symbols": 1000, "estimator": {"subtract_half_pi": False}}, "subtract_half_pi"),
    ])
    def test_config_file_values_rejected_at_load(self, data, field):
        with pytest.raises(ConfigError, match=field):
            trial_config_from_dict(data)
