"""Tests for the trials, classifier, intervals, sweeps and emission."""

import json
import os
import re
import signal
from dataclasses import asdict, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import duolink.alignment
import duolink.channel
import duolink.harness
from duolink import _blocks
from duolink import (
    BERReport,
    Case,
    ChannelParams,
    ConfigError,
    EstimatorConfig,
    TrialConfig,
    VVConfig,
    classify_cases,
    emit,
    estimate_delay,
    kappa_objective,
    run_sweep,
    run_trial,
    sweep_configs,
    trial_config_from_dict,
    wilson_interval,
)
from duolink.cli import main
from oracles import CASE_TRUTH_TABLE, LAGGED_WINDOW_33, reference_trial, wilson_reference


_REALIZE = duolink.harness._realize
_DETECT = duolink.harness._detect
_SETTLE_PASS = duolink.harness._settle_pass
_ESTIMATE_DELAYS = duolink.harness._estimate_delays
_EXTRACT_PHASE = duolink.harness.extract_phase
_ROLL = np.roll
KILLED_SIGMA = 0.25
KILLED_OFFSET = -3


def realize_or_kill_worker(cfg):
    """harness._realize, except that a realization with sigma_common
    KILLED_SIGMA kills the process drawing it."""
    if cfg.channel.sigma_common == KILLED_SIGMA:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REALIZE(cfg)


def detect_or_kill_worker(reception, cfg):
    """harness._detect, except that the detection at sigma_common
    KILLED_SIGMA and delay_offset KILLED_OFFSET kills the process running it."""
    if (cfg.channel.sigma_common, cfg.channel.delay_offset) == (KILLED_SIGMA, KILLED_OFFSET):
        os.kill(os.getpid(), signal.SIGKILL)
    return _DETECT(reception, cfg)


def point_seed(base_seed, r):
    """The channel seed of a sweep's realization r."""
    return int(np.random.SeedSequence([base_seed, r]).generate_state(1, np.uint64)[0])


def small_config(**channel_kwargs):
    defaults = dict(sigma_common=0.3, sigma_additive=0.15, seed=42)
    defaults.update(channel_kwargs)
    return TrialConfig(
        n_symbols=4000,
        channel=ChannelParams(**defaults),
        vv=VVConfig(window=1, remove_mean=False),
        estimator=EstimatorConfig(kappa_infinite=True),
    )


def classify_one(*quadrants):
    """The Case of one symbol slot, from classify_cases on one-element arrays."""
    return Case(classify_cases(*([q] for q in quadrants))[0])


class TestClassifyCase:
    def test_both_received_correct(self):
        assert classify_one(0, 0, 0, 0, 0, 0) is Case.NO_CORRECTION_REQUIRED

    def test_neighbor_quadrant_corrected(self):
        assert classify_one(0, 0, 0, 1, 0, 0) is Case.CORRECTION_SUCCESSFUL

    def test_both_moved_not_correctable(self):
        assert classify_one(0, 0, 1, 1, 1, 1) is Case.NO_CORRECTION_POSSIBLE

    def test_correct_channel_broken_is_additional_error(self):
        assert classify_one(0, 0, 1, 0, 1, 1) is Case.ADDITIONAL_ERRORS

    def test_wrong_channel_stays_wrong(self):
        assert classify_one(0, 0, 1, 0, 1, 0) is Case.NO_CORRECTION_POSSIBLE

    def test_received_correct_takes_precedence(self):
        """Both received correct classifies as case 1 even if the algorithm
        then breaks a channel (first rule in the decision list)."""
        assert classify_one(0, 0, 0, 0, 1, 0) is Case.NO_CORRECTION_REQUIRED

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="quadrant"):
            classify_one(4, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="quadrant"):
            classify_one(0, 0, 0, -1, 0, 0)

    @pytest.mark.parametrize("args, name", [
        ((True, 0, 1.0, 0, 0, 0), "tx_q1"),
        ((0, 0, 1.0, 0, 0, 0), "rx_q1"),
        ((0, 0, 0, 0, 0, np.float64(2.0)), "post_q2"),
    ])
    def test_non_integer_rejected(self, args, name):
        """Bools and floats equal to a quadrant index are not indices."""
        with pytest.raises(ValueError, match=f"{name} must be an array of integers"):
            classify_one(*args)

    def test_numpy_integers_accepted(self):
        args = (np.uint8(0), np.int64(0), 1, np.intp(0), 0, 0)
        assert classify_one(*args) is Case.CORRECTION_SUCCESSFUL

    def test_matches_truth_table_exhaustively(self):
        """All 4^6 quadrant combinations agree with the hand-written table."""
        for combo in product(range(4), repeat=6):
            t1, t2, r1, r2, p1, p2 = combo
            key = (r1 == t1, r2 == t2, p1 == t1, p2 == t2)
            assert classify_one(*combo) is CASE_TRUTH_TABLE[key]

    def test_vectorized_matches_scalar(self):
        """500 slots classified at once equal each slot classified alone."""
        rng = np.random.default_rng(0)
        cols = [rng.integers(0, 4, 500) for _ in range(6)]
        codes = classify_cases(*cols)
        for i in range(500):
            assert codes[i] == classify_one(*(int(c[i]) for c in cols))

    @pytest.mark.parametrize("lengths", [(3, 1, 3, 1, 3, 1), (3, 2, 3, 2, 3, 2), (3, 3, 3, 3, 3, 0)])
    def test_vectorized_length_mismatch_rejected(self, lengths):
        """Arrays of different lengths are rejected, not broadcast."""
        cols = [np.zeros(k, dtype=np.uint8) for k in lengths]
        with pytest.raises(ValueError, match=re.escape(f"lengths differ: {list(lengths)}")):
            classify_cases(*cols)

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("dtype", [float, bool])
    def test_vectorized_non_integer_rejected(self, position, dtype):
        cols = [np.zeros(3, dtype=np.uint8) for _ in range(6)]
        cols[position] = cols[position].astype(dtype)
        name = ("tx_q1", "tx_q2", "rx_q1", "rx_q2", "post_q1", "post_q2")[position]
        with pytest.raises(ValueError, match=f"{name} must be an array of integers"):
            classify_cases(*cols)

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
        for errors, trials, name in [(2.5, 10, "errors"), (True, 10, "errors"),
                                     (1, 10.5, "trials"), (1, True, "trials")]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                wilson_interval(errors, trials)


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
        """Also: the reception is the same whether or not the report
        carries the baseline, so the objective's equals run_trial's."""
        cfg, kappas = case

        def fields(r):
            return [(v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else v
                    for v in (getattr(r, f) for f in r.__dataclass_fields__)]

        def receive(c):
            return duolink.harness._single_reception(c)

        other = replace(cfg, compare_baseline=not cfg.compare_baseline)
        assert fields(receive(cfg)) == fields(receive(other))
        objective = kappa_objective(cfg)
        for kappa in kappas:
            trial = replace(cfg, estimator=EstimatorConfig(kappa=kappa))
            assert objective(kappa) == run_trial(trial).ber_compensated


class TestTrialWork:
    @pytest.mark.parametrize("window, extractions", [(1, 2), (33, 4)])
    @pytest.mark.parametrize("entry", ["run_trial", "kappa_objective"])
    def test_trial_work_is_its_one_point_group(self, monkeypatch, entry, window, extractions):
        """A trial receives the sweep group of one point and does exactly a
        trial's work: one realization, one search of the roll 0 through
        estimate_delay, the per-symbol traces (which at window 1 also serve
        the receiver, and at window 33 are followed by the receiver's two),
        one settle pass that keeps no end symbols, and no roll of channel 2,
        also at a nonzero delay_offset. kappa_objective makes the same calls
        once, however many kappas it evaluates."""
        calls = {"realize": 0, "estimate_delay": 0, "extract_phase": 0}
        searches, keeps, rolls = [], [], []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def search(t1, t2, shifts, max_lag):
            searches.append(list(shifts))
            return _ESTIMATE_DELAYS(t1, t2, shifts, max_lag)

        def settle_pass(*args):
            keeps.append(args[-1])
            return _SETTLE_PASS(*args)

        harness = duolink.harness
        monkeypatch.setattr(harness, "_realize", counted("realize", _REALIZE))
        monkeypatch.setattr(harness, "estimate_delay", counted("estimate_delay", estimate_delay))
        monkeypatch.setattr(harness, "extract_phase",
                            counted("extract_phase", harness.extract_phase))
        monkeypatch.setattr(harness, "_estimate_delays", search)
        monkeypatch.setattr(duolink.alignment, "_estimate_delays", search)
        monkeypatch.setattr(harness, "_settle_pass", settle_pass)
        monkeypatch.setattr(harness.np, "roll", lambda *args, **kwargs: rolls.append(args))
        cfg = TrialConfig(
            n_symbols=2000,
            channel=ChannelParams(sigma_common=0.3, sigma_additive=0.15, delay_offset=3, seed=42),
            vv=VVConfig(window=window, remove_mean=window > 1),
            max_lag=16,
        )
        if entry == "run_trial":
            assert run_trial(cfg).lag_confident
        else:
            objective = kappa_objective(cfg)
            for kappa in (0.0, 2.0, 8.0):
                objective(kappa)
        assert calls == {"realize": 1, "estimate_delay": 1, "extract_phase": extractions}
        assert searches == [[0]]
        assert keeps == [0]
        assert rolls == []


@st.composite
def reference_configs(draw):
    kappa = draw(st.none() | st.floats(0.0, 20.0))
    return TrialConfig(
        n_symbols=draw(st.integers(1, 2000)),
        channel=ChannelParams(
            sigma_common=draw(st.floats(0.0, 0.5)),
            sigma_additive=draw(st.floats(0.0, 0.3)),
            phase_model=draw(st.sampled_from(["iid", "shaped"])),
            delay_offset=draw(st.integers(-20, 20)),
            seed=draw(st.integers(0, 2**32 - 1)),
        ),
        vv=VVConfig(window=draw(st.sampled_from([1, 33])), remove_mean=draw(st.booleans())),
        # kappa <= 20 keeps the unnormalized weights of the reference from
        # underflowing; None selects kappa_infinite
        estimator=EstimatorConfig(kappa=kappa or 0.0, kappa_infinite=kappa is None),
        compare_baseline=draw(st.booleans()),
        max_lag=draw(st.sampled_from([0, 3, 16])),
    )


class TestReferenceTrial:
    @settings(max_examples=40, deadline=None)
    @given(reference_configs(), st.sampled_from([7, 64, 256]), st.sampled_from([7, 64]))
    @example(LAGGED_WINDOW_33, 64, duolink.channel.CHUNK)
    def test_every_report_field_equals_reference(self, cfg, block, chunk):
        """Also with blocks and random chunks small enough that the trial
        crosses their boundaries in every blocked stage and every stream.
        The shaped phase is filtered by FFTs here and by direct convolution
        in the oracle, so its traces differ in the last bits (see
        test_channel.SHAPED_ATOL); no decision comes that close to a
        boundary, so the reports are equal. The example is a lagged
        window-33 trial in which a window at the edge of the channels'
        overlap changes a decision."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", block)
            mp.setattr(duolink.channel, "CHUNK", chunk)
            report = run_trial(cfg)
        fields = {k: getattr(report, k) for k in report.__dataclass_fields__ if k != "config"}
        assert fields == reference_trial(cfg, chunk)


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = small_config(delay_offset=2)
        assert trial_config_from_dict(asdict(cfg)) == cfg

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

    def test_numpy_scalar_fields_serialize(self, tmp_path):
        """Numpy scalars pass the field rules and are stored as the Python
        numbers they hold, so the report round-trips through JSON and a
        sweep writes its point file."""
        cfg = TrialConfig(
            n_symbols=np.int64(2000),
            channel=ChannelParams(sigma_common=np.float32(0.3), sigma_additive=0.15,
                                  seed=np.uint64(3)),
            vv=VVConfig(window=np.int64(1), remove_mean=np.bool_(False)),
            compare_baseline=np.bool_(True),
        )
        report = run_trial(cfg)
        path = tmp_path / "out.json"
        emit([report], "json", path)
        assert BERReport.from_dict(json.loads(path.read_text())[0]) == report
        (point,) = run_sweep(cfg, {}, out_dir=tmp_path / "sweep")
        assert point.error is None and point.report is not None

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
    @pytest.mark.parametrize("workers", [0, -2, True, 2.5])
    def test_bad_workers_rejected(self, tmp_path, workers):
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="workers"):
            run_sweep(small_config(), {"sigma_common": [0.2, 0.3]}, out_dir=out_dir,
                      workers=workers)
        assert not out_dir.exists()

    def test_single_point_grid_equals_run_trial(self):
        base = small_config()
        points = run_sweep(base, {})
        assert len(points) == 1
        (cfg,) = sweep_configs(base, {})
        assert cfg == replace(base, channel=replace(base.channel, seed=cfg.channel.seed))
        assert points[0].report == run_trial(cfg)

    def test_grid_expansion_and_seeds(self):
        base = small_config()
        cfgs = sweep_configs(base, {"sigma_common": [0.1, 0.2],
                                    "kappa": [0.0, 1.0, float("inf")]})
        assert len(cfgs) == 6
        # one seed per sigma_common, repeated over the kappas
        assert [c.channel.seed for c in cfgs] == [point_seed(42, r) for r in (0, 0, 0, 1, 1, 1)]
        assert cfgs[2].estimator.kappa_infinite
        assert not cfgs[1].estimator.kappa_infinite
        assert cfgs[1].estimator.kappa == 1.0

    def test_base_seeds_give_disjoint_point_seeds(self):
        """A second base seed draws new realizations, not the first's
        permuted."""
        axes = {"sigma_common": [0.1, 0.2], "kappa": [0.0, 1.0, float("inf")]}
        seeds = [{c.channel.seed for c in sweep_configs(small_config(seed=base), axes)}
                 for base in (0, 1)]
        assert len(seeds[0]) == len(seeds[1]) == 2
        assert not seeds[0] & seeds[1]

    def test_sigma_grid_keeps_index_seeds(self):
        """Without a kappa or delay_offset axis, point i draws realization i:
        its seed is taken from SeedSequence([base_seed, i])."""
        cfgs = sweep_configs(small_config(), {"sigma_common": [0.1, 0.2],
                                              "sigma_additive": [0.1, 0.15, 0.2]})
        assert [c.channel.seed for c in cfgs] == [point_seed(42, i) for i in range(6)]

    # sigma_common x kappa x delay_offset: point s * 9 + k * 3 + o
    GROUPED_AXES = {"sigma_common": [0.0, 0.3], "kappa": [0.0, 2.0, float("inf")],
                    "delay_offset": [0, -5, 20]}
    # some of each realization's point files: the resumed realizations are
    # drawn at offsets -5 and 20, and paired with the others
    RESUMED = (1, 5, 7, 11, 12, 16)

    @staticmethod
    def grouped_base(window):
        return TrialConfig(
            n_symbols=2000,
            channel=ChannelParams(sigma_common=0.3, sigma_additive=0.15, seed=42),
            vv=VVConfig(window=window, remove_mean=window > 1),
            max_lag=16,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("window", [1, 33])
    def test_grouped_points_equal_run_trial(self, tmp_path, window, workers):
        """Points that differ only in kappa or delay_offset carry one seed, so
        run_sweep draws their realization once and pairs channel 2 with each
        offset; every report still equals run_trial of its own config. The
        grid holds a sigma_common of 0, kappas 0, 2 and Infinity, and offsets
        0, -5 and 20; 20 is beyond max_lag, so its lag is not confident and
        its receiver reads wrapped samples. The resume pass recomputes some of
        each realization's points, so it draws them at another offset."""
        base = self.grouped_base(window)
        cfgs = sweep_configs(base, self.GROUPED_AXES)
        expected = [run_trial(cfg) for cfg in cfgs]
        points = run_sweep(base, self.GROUPED_AXES, out_dir=tmp_path, workers=workers)
        assert [p.report for p in points] == expected
        assert [p.report.seed for p in points] == [point_seed(42, i // 9) for i in range(18)]
        assert not any(p.report.lag_confident for p in points[2::3])
        for index in self.RESUMED:
            (tmp_path / f"point_{index:04d}.json").unlink()
        resumed = run_sweep(base, self.GROUPED_AXES, out_dir=tmp_path, workers=workers)
        assert [p.report for p in resumed] == expected

    def test_each_realization_drawn_once(self, tmp_path, monkeypatch):
        """One realization per sigma_common, one settle pass per pairing
        shift of it. At sigma_common 0 no lag is recovered, so offsets 0, -5
        and 20 pair three ways; at 0.3 the lags of 0 and -5 are, and those
        two offsets share a pass. So 2 realizations and 3 + 2 passes on the
        first pass; on the resume pass 2, and a pass per shift that its
        recomputed points' offsets pair at: 2 for offsets -5 and 20 of the
        first, 2 for all three of the second."""
        calls = {"realize": 0, "settle_pass": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(duolink.harness, "_realize", counted("realize", _REALIZE))
        monkeypatch.setattr(duolink.harness, "_settle_pass",
                            counted("settle_pass", _SETTLE_PASS))
        base = self.grouped_base(1)
        points = run_sweep(base, self.GROUPED_AXES, out_dir=tmp_path)
        assert [p.report.lag_confident for p in points] == [False] * 9 + [True, True, False] * 3
        assert calls == {"realize": 2, "settle_pass": 3 + 2}
        for index in self.RESUMED:
            (tmp_path / f"point_{index:04d}.json").unlink()
        run_sweep(base, self.GROUPED_AXES, out_dir=tmp_path)
        assert calls == {"realize": 2 + 2, "settle_pass": 3 + 2 + 2 + 2}

    # the lag sweep's offsets: their rolls need 497 shifts in one run
    LAG_OFFSETS = [-120, -90, -30, 0, 30, 90, 120]

    def test_one_delay_search_per_group(self, monkeypatch):
        """A group of seven offsets makes one grouped search, over the rolls
        from its first offset to each, and no estimate_delay call; every
        report still equals run_trial of its config."""
        calls = []

        def grouped(t1, t2, rolls, max_lag):
            calls.append(list(rolls))
            return _ESTIMATE_DELAYS(t1, t2, rolls, max_lag)

        def single(*args):
            calls.append("estimate_delay")
            return estimate_delay(*args)

        monkeypatch.setattr(duolink.harness, "_estimate_delays", grouped)
        monkeypatch.setattr(duolink.harness, "estimate_delay", single)
        base = replace(self.grouped_base(1), max_lag=128)
        axes = {"delay_offset": self.LAG_OFFSETS}
        points = run_sweep(base, axes)
        assert calls == [[-120 - offset for offset in self.LAG_OFFSETS]]
        monkeypatch.undo()
        assert [p.report for p in points] == [run_trial(cfg) for cfg in sweep_configs(base, axes)]
        assert [p.report.estimated_lag for p in points] == self.LAG_OFFSETS

    # offsets 0, -5, 7 and 12 are recovered at max_lag 16, 20 is not
    PAIRING_OFFSETS = [0, -5, 7, 20, 12]

    @pytest.mark.parametrize("window, remove_mean, max_lag, offsets, passes, rolls, extractions", [
        (1, False, 16, PAIRING_OFFSETS, 2, 0, 3),
        # no search (n <= 2 * max_lag): offsets 0 and n pair alike
        (1, False, 1000, [0, -5, 2000], 2, 0, 3),
        (33, True, 16, PAIRING_OFFSETS, 5, 4, 2 + 2 * 5),
        (1, True, 16, PAIRING_OFFSETS, 5, 4, 2 + 4),
    ], ids=["w1-recovered", "w1-no-search", "w33", "w1-mean-removed"])
    def test_one_pass_per_pairing(self, monkeypatch, window, remove_mean, max_lag, offsets,
                                  passes, rolls, extractions):
        """A per-symbol receiver without mean removal runs one settle pass
        per pairing shift (lag - offset mod n): the recovered offsets share
        one, and an unrecovered offset, or any offset of a group that does
        not search, pairs at a shift of its own, unless it lies n away from
        another. Its passes read the drawn channel 2 at their shifts: no
        roll, and after the per-symbol traces, which serve the first pass,
        one channel-2 extraction per later pass. Window 33, and window 1
        with the mean removal, run a pass per offset, on channel 2 rolled to
        it: a roll per offset but the drawn one (0), and the receiver's
        traces per pass (at window 1 only channel 2's, and none for the
        first). Every report equals run_trial of its config."""
        calls, rolled, extracted = [], [], []

        def counted(*args):
            calls.append(args[-1])
            return _SETTLE_PASS(*args)

        def roll(a, shift):
            rolled.append(shift)
            return _ROLL(a, shift)

        def extract(*args):
            extracted.append(args[1])
            return _EXTRACT_PHASE(*args)

        monkeypatch.setattr(duolink.harness, "_settle_pass", counted)
        monkeypatch.setattr(duolink.harness.np, "roll", roll)
        monkeypatch.setattr(duolink.harness, "extract_phase", extract)
        n = 2000
        base = replace(self.grouped_base(window), max_lag=max_lag,
                       vv=VVConfig(window=window, remove_mean=remove_mean))
        axes = {"kappa": [2.0, float("inf")], "delay_offset": offsets}
        points = run_sweep(base, axes)
        monkeypatch.undo()
        reports = [p.report for p in points]
        assert reports == [run_trial(cfg) for cfg in sweep_configs(base, axes)]
        assert len(calls) == passes
        assert len(rolled) == rolls
        assert len(extracted) == extractions
        if (window, remove_mean) == (1, False):
            shifts = {(r.estimated_lag - r.config.channel.delay_offset) % n for r in reports}
            assert len(shifts) == passes
        if max_lag == 16:
            recovered = [r.estimated_lag == o and r.lag_confident
                         for r, o in zip(reports, offsets * 2)]
            assert recovered == [o != 20 for o in offsets * 2]

    @pytest.mark.parametrize("workers, axes, pools", [
        pytest.param(2, {"sigma_common": [0.2, 0.3]}, [2], id="2"),
        pytest.param(8, {"sigma_common": [0.2, 0.3]}, [2], id="8"),
        pytest.param(4, {"kappa": [0.0, 2.0], "delay_offset": [0, -5, 20, 7]}, [],
                     id="one-realization"),
    ])
    def test_pool_capped_at_task_count(self, monkeypatch, workers, axes, pools):
        """A pool starts no more processes than it has tasks, and a task is
        one whole realization: a grid of two realizations at workers 2 or 8
        builds one pool of two, and a grid of one realization (kappa x
        delay_offset) at workers 4 builds none."""
        sizes = []

        class Recording(duolink.harness.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(duolink.harness, "ProcessPoolExecutor", Recording)
        base = replace(small_config(), n_symbols=2000)
        points = run_sweep(base, axes, workers=workers)
        assert sizes == pools
        assert [p.report for p in points] == [run_trial(cfg) for cfg in sweep_configs(base, axes)]

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
            "point_0000.json", "point_0001.json", "stream_layout.json"]

    @pytest.mark.parametrize("layout", [None, "{}", '{"stream_layout": 0}', "not json"],
                             ids=["no-layout-file", "no-layout", "older-layout", "malformed"])
    def test_resume_recomputes_points_of_another_layout(self, tmp_path, layout):
        """Point files of a directory that records another stream layout, or
        none, are never reused, whatever config they hold: all are removed
        (also one beyond the grid), recomputed, and the layout recorded."""
        base = replace(small_config(), n_symbols=2000)
        axes = {"sigma_common": [0.2, 0.3]}
        first = run_sweep(base, axes, out_dir=tmp_path)
        assert json.loads((tmp_path / "stream_layout.json").read_text()) == {
            "stream_layout": duolink.channel.STREAM_LAYOUT}
        for name in ("point_0000.json", "point_0001.json"):
            cached = json.loads((tmp_path / name).read_text())
            cached["ber_compensated"] = 0.123456
            (tmp_path / name).write_text(json.dumps(cached))
        (tmp_path / "point_0007.json").write_text("{}")
        if layout is None:
            (tmp_path / "stream_layout.json").unlink()
        else:
            (tmp_path / "stream_layout.json").write_text(layout)
        rerun = run_sweep(base, axes, out_dir=tmp_path)
        assert [p.report for p in rerun] == [p.report for p in first]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "point_0000.json", "point_0001.json", "stream_layout.json"]
        assert json.loads((tmp_path / "stream_layout.json").read_text()) == {
            "stream_layout": duolink.channel.STREAM_LAYOUT}
        # the layout is recorded now: the rerun's point files are reused
        cached = json.loads((tmp_path / "point_0001.json").read_text())
        cached["ber_compensated"] = 0.654321
        (tmp_path / "point_0001.json").write_text(json.dumps(cached))
        assert run_sweep(base, axes, out_dir=tmp_path)[1].report.ber_compensated == 0.654321

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

    def test_point_failure_recorded_sweep_continues(self, tmp_path, monkeypatch, capsys):
        base = replace(small_config(), n_symbols=2000)

        def flaky(cfg):
            if cfg.channel.sigma_common == 0.2:
                raise RuntimeError("injected failure")
            return _REALIZE(cfg)

        monkeypatch.setattr(duolink.harness, "_realize", flaky)
        points = run_sweep(base, {"sigma_common": [0.2, 0.3]})
        assert points[0].error is not None and "injected" in points[0].error
        assert points[1].report is not None

        # an exception without a message, as _detect's assert raises it, is
        # recorded by its type's name, and the CLI prints that name
        def bare(reception, cfg):
            if cfg.channel.sigma_common == 0.2:
                raise AssertionError
            return _DETECT(reception, cfg)

        monkeypatch.setattr(duolink.harness, "_realize", _REALIZE)
        monkeypatch.setattr(duolink.harness, "_detect", bare)
        points = run_sweep(base, {"sigma_common": [0.2, 0.3]})
        assert points[0].error == "AssertionError"
        assert points[1].report is not None
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**asdict(base), "sweep": {"sigma_common": [0.2, 0.3]}}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "point 0 failed: AssertionError\n" in capsys.readouterr().err

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
        # the forked workers' group tasks call whatever harness._realize is
        # at the time
        monkeypatch.setattr(duolink.harness, "_realize", realize_or_kill_worker)
        points = run_sweep(base, axes, workers=2)
        assert [p.error is not None for p in points] == [False, True, False, False, False, False]
        assert points[1].report is None and "terminated abruptly" in points[1].error
        assert [p.report for p in points if p.index != 1] == [
            p.report for p in clean if p.index != 1]

    def test_killed_worker_fails_only_its_own_point_of_a_shared_realization(self, monkeypatch):
        """A point that kills its worker takes its whole group down; each of
        the group's points then runs once more on its own, and only the
        killer fails. It kills in its own detection, a step of that point
        alone: its offset's lag is recovered, as its neighbours' are, so the
        three offsets share one settle pass."""
        base = replace(small_config(), n_symbols=2000)
        axes = {"sigma_common": [0.2, KILLED_SIGMA], "delay_offset": [0, KILLED_OFFSET, 5]}
        clean = run_sweep(base, axes, workers=1)
        assert [p.report.estimated_lag for p in clean[3:]] == [0, KILLED_OFFSET, 5]
        monkeypatch.setattr(duolink.harness, "_detect", detect_or_kill_worker)
        points = run_sweep(base, axes, workers=2)
        assert [p.error is not None for p in points] == [False] * 4 + [True, False]
        assert points[4].report is None and "terminated abruptly" in points[4].error
        assert [p.report for p in points if p.index != 4] == [
            p.report for p in clean if p.index != 4]

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
