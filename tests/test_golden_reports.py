"""Bit-identity of run_trial against recorded reports.

golden_reports.json holds (config, report) pairs. The configs cover both
phase models, window 1 and 33, remove_mean on and off, delay offsets
0/7/-5, kappa 0/8/infinite, the baseline on and off, max_lag 16 and 0, zero
additive noise, configs recorded with either value of the removed `pipeline`
field, four edge cases (a noiseless channel, an unconfident delay estimate,
a stream too short for the delay search and a one-symbol trial) and two
70 001-symbol trials (iid and shaped, window 33, delay offset -5) whose
streams span three random chunks (channel.CHUNK).

The reports were re-recorded twice, by oracles.reference_trial, not by
run_trial, each config kept as it was recorded: all of them under layout 1,
when the random streams came to be drawn chunk by chunk and the shaped phase
to be filtered by a FIR (the stream layout of channel's docstring); then
golden-00's and golden-14's under layout 2, when the receiver came to align
channel 2 by views instead of rotating it, so that a window-33 receiver's
window at the edge of the channels' overlap reads channel 2's own
neighbours (or zeros past its ends) where it read wrapped samples. Every
report must come back exactly, float for float, once its configs pass
through _migrate. The file is a fixed record: do not regenerate it from the
code under test. Its sha256 is pinned to the layout it was recorded under
(channel.STREAM_LAYOUT).
"""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from duolink import run_trial, trial_config_from_dict
from duolink.channel import STREAM_LAYOUT

GOLDEN = Path(__file__).with_name("golden_reports.json")
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))

# The golden file recorded under each layout (channel.STREAM_LAYOUT), by its
# sha256: a re-recorded file needs a new layout, which a sweep's resume then
# tells from the old one.
GOLDEN_SHA256 = {
    1: "84eb9bcb05045fc832aa5e01aca8b9ef4a88351beb43adb4b1f5186e0e2734f0",
    2: "545121d4a9b2bdb56e6c1ba47966dd753f8b5dd27060590c5051166524b0a5c1",
}


def _migrate(config: dict) -> dict:
    """Map a recorded config onto the current fields.

    The recording had two estimator fields since removed: `subtract_half_pi`
    (always false there) and `pipeline`. Pipeline "combined" was "cascaded"
    without the per-channel mean removal, so it becomes vv.remove_mean=false.
    """
    config = copy.deepcopy(config)
    estimator = config.get("estimator", {})
    assert estimator.pop("subtract_half_pi", False) is False
    if estimator.pop("pipeline", "cascaded") == "combined":
        config.setdefault("vv", {})["remove_mean"] = False
    return config


@pytest.mark.parametrize("case", CASES, ids=[f"golden-{i:02d}" for i in range(len(CASES))])
def test_report_matches_golden(case):
    report = run_trial(trial_config_from_dict(_migrate(case["config"])))
    expected = dict(case["report"], config=_migrate(case["report"]["config"]))
    assert json.loads(json.dumps(report.to_dict())) == expected


def test_golden_file_pinned_to_stream_layout():
    assert hashlib.sha256(GOLDEN.read_bytes()).hexdigest() == GOLDEN_SHA256[STREAM_LAYOUT]
