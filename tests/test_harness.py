"""Tests for the trials, classifier, intervals, sweeps and emission."""

import json
import os
import re
import signal
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    kappa_objective,
    run_sweep,
    run_trial,
    sweep_configs,
    trial_config_from_dict,
    trial_config_to_dict,
    wilson_interval,
)
from oracles import CASE_TRUTH_TABLE, wilson_reference


_RUN_TRIAL = duolink.harness.run_trial
KILLED_SIGMA = 0.25


def run_trial_or_kill_worker(cfg):
    """run_trial, except that the point with sigma_common KILLED_SIGMA kills
    the process running it. Defined at module level so that a process pool
    can pickle it by name."""
    if cfg.channel.sigma_common == KILLED_SIGMA:
        os.kill(os.getpid(), signal.SIGKILL)
    return _RUN_TRIAL(cfg)


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


@st.composite
def objective_cases(draw):
    """A trial config (any estimator, baseline on or off) and four kappas in
    shuffled order."""
    cfg = TrialConfig(
        n_symbols=draw(st.integers(100, 2000)),
        channel=ChannelParams(
            sigma_common=draw(st.floats(0.0, 0.5)),
            sigma_additive=draw(st.floats(0.0, 0.3)),
            phase_model=draw(st.sampled_from(["iid", "shaped"])),
            delay_offset=draw(st.integers(-8, 8)),
            seed=draw(st.integers(0, 2**32 - 1)),
        ),
        vv=VVConfig(window=draw(st.sampled_from([1, 33])), remove_mean=draw(st.booleans())),
        estimator=EstimatorConfig(kappa=draw(st.floats(0.0, 20.0)),
                                  kappa_infinite=draw(st.booleans())),
        compare_baseline=draw(st.booleans()),
        max_lag=draw(st.sampled_from([0, 16])),
    )
    kappas = draw(st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4))
    return cfg, draw(st.permutations(kappas))


class TestKappaObjective:
    @settings(max_examples=60, deadline=None)
    @given(objective_cases())
    def test_equals_run_trial_per_kappa(self, case):
        cfg, kappas = case
        objective = kappa_objective(cfg)
        for kappa in kappas:
            trial = replace(cfg, compare_baseline=False, estimator=EstimatorConfig(kappa=kappa))
            assert objective(kappa) == run_trial(trial).ber_compensated


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

    @pytest.mark.parametrize("previous", [None, "previous contents\n"],
                             ids=["absent", "present"])
    def test_interrupted_write_leaves_no_partial_file(self, tmp_path, monkeypatch, previous):
        path = tmp_path / "out.csv"
        if previous is not None:
            path.write_text(previous)
        report = run_trial(small_config())
        real, rows = duolink.harness._csv_row, []

        def fail_on_second_row(r):
            if rows:
                raise RuntimeError("interrupted")
            rows.append(real(r))
            return rows[0]

        monkeypatch.setattr(duolink.harness, "_csv_row", fail_on_second_row)
        with pytest.raises(RuntimeError, match="interrupted"):
            emit([report, report], "csv", path)
        assert rows  # the first row was written before the failure
        if previous is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_text() == previous


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

    @pytest.mark.parametrize("damage", [
        lambda d: {**d, "peak_correlation": 0.6},
        lambda d: {k: v for k, v in d.items() if k != "valid_symbols"},
        lambda d: [d["seed"]],
        lambda d: {**d, "config": {**d["config"], "vv": {"window": 1, "bogus": 0}}},
        lambda d: {**d, "case_counts": 5},
        lambda d: {**d, "ci_compensated": d["ci_compensated"][:1]},
        lambda d: {**d, "bits_per_channel": "x"},
    ], ids=["extra-key", "missing-key", "json-list", "unknown-nested-key",
            "case-counts-int", "ci-length-1", "bits-string"])
    def test_malformed_point_file_recomputed(self, tmp_path, damage):
        base = replace(small_config(), n_symbols=2000)
        axes = {"sigma_common": [0.2, 0.3]}
        first = run_sweep(base, axes, out_dir=tmp_path)
        path = tmp_path / "point_0001.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        rerun = run_sweep(base, axes, out_dir=tmp_path)
        assert [p.report for p in rerun] == [p.report for p in first]
        assert BERReport.from_dict(json.loads(path.read_text())) == first[1].report
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "point_0000.json", "point_0001.json"]

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
        ({"sigma_common": [10**400]}, "sigma_common"),
        ({"delay_offset": [30.0]}, "delay_offset must be an integer"),
        ({"sigma_common": [0.1, 0.2], "kappa": [0.0, float("nan")]},
         "^sweep point 1: estimator: kappa must be a finite number$"),
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

    def test_killed_worker_fails_only_its_own_point(self, monkeypatch):
        base = replace(small_config(), n_symbols=2000)
        axes = {"sigma_common": [0.2, KILLED_SIGMA, 0.3, 0.35, 0.4, 0.45]}
        clean = run_sweep(base, axes, workers=1)
        # run_sweep submits whatever harness.run_trial is at the time
        monkeypatch.setattr(duolink.harness, "run_trial", run_trial_or_kill_worker)
        points = run_sweep(base, axes, workers=2)
        assert [p.error is not None for p in points] == [False, True, False, False, False, False]
        assert points[1].report is None and "terminated abruptly" in points[1].error
        assert [p.report for p in points if p.index != 1] == [
            p.report for p in clean if p.index != 1]

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
        ({"n_symbols": 1000, "channel": {"sigma_common": 10**400}}, "sigma_common"),
    ])
    def test_config_file_values_rejected_at_load(self, data, field):
        with pytest.raises(ConfigError, match=field):
            trial_config_from_dict(data)
