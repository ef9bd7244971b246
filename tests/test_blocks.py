"""The blocked trial kernel: no result depends on the block size, the blocked
detection equals the whole-array one, and a trial's memory stays bounded.

The block size is monkeypatched down to 1, 7 and 64 symbols so that short
trials span several blocks plus a remainder.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duolink import (
    SYMBOLS,
    ChannelParams,
    EstimatorConfig,
    TrialConfig,
    VVConfig,
    apply_channel,
    apply_compensation,
    classify_cases,
    compensate_pair,
    compensate_traces,
    count_quadrant_errors,
    extract_phase,
    quadrant_indices,
    run_trial,
)
from duolink import _blocks, harness

BLOCKS = (1, 7, 64)


def with_block(block, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blocks, "BLOCK", block)
        return fn(*args)


@st.composite
def trial_configs(draw):
    return TrialConfig(
        n_symbols=draw(st.integers(1, 250)),
        channel=ChannelParams(
            sigma_common=draw(st.floats(0.0, 0.5)),
            sigma_additive=draw(st.floats(0.0, 0.3)),
            phase_model=draw(st.sampled_from(["iid", "shaped"])),
            cpe_cutoff=draw(st.sampled_from([1e6, 1e9])),
            delay_offset=draw(st.integers(-300, 300)),
            seed=draw(st.integers(0, 2**32 - 1)),
        ),
        vv=VVConfig(window=draw(st.sampled_from([1, 33])), remove_mean=draw(st.booleans())),
        estimator=EstimatorConfig(kappa=draw(st.floats(0.0, 20.0)),
                                  kappa_infinite=draw(st.booleans())),
        compare_baseline=draw(st.booleans()),
        max_lag=draw(st.sampled_from([0, 3, 16])),
    )


@settings(max_examples=40, deadline=None)
@given(trial_configs())
def test_report_independent_of_block_size(cfg):
    report = run_trial(cfg)
    for block in BLOCKS:
        assert with_block(block, run_trial, cfg) == report, block


@settings(max_examples=40, deadline=None)
@given(trial_configs())
def test_channel_and_extraction_independent_of_block_size(cfg):
    rng = np.random.default_rng(cfg.channel.seed)
    n = cfg.n_symbols
    tx1, tx2 = SYMBOLS[rng.integers(0, 4, n)], SYMBOLS[rng.integers(0, 4, n)]
    rx = apply_channel(tx1, tx2, cfg.channel)
    phases = {(i, w): extract_phase(r, VVConfig(window=w)) for i, r in enumerate(rx)
              for w in (1, 33)}
    for block in BLOCKS:
        blocked = with_block(block, apply_channel, tx1, tx2, cfg.channel)
        assert [r.tobytes() for r in blocked] == [r.tobytes() for r in rx], block
        for (i, w), phase in phases.items():
            got = with_block(block, extract_phase, rx[i], VVConfig(window=w))
            assert got.tobytes() == phase.tobytes(), (block, i, w)


@settings(max_examples=40, deadline=None)
@given(trial_configs())
def test_blocked_detection_equals_whole_arrays(cfg):
    r = harness._receive(cfg)
    valid = r.valid
    comp1, comp2 = compensate_pair(r.rx1, r.rx2, cfg.vv, cfg.estimator)
    k_comp1, k_comp2 = quadrant_indices(comp1[valid]), quadrant_indices(comp2[valid])
    cases = np.bincount(
        classify_cases(r.k_tx1, r.k_tx2, r.k_rx1, r.k_rx2, k_comp1, k_comp2), minlength=4)
    errors_base = tuple(
        count_quadrant_errors(k_tx, quadrant_indices(apply_compensation(rx, trace)[valid]))
        for k_tx, rx, trace in ((r.k_tx1, r.rx1, r.trace1), (r.k_tx2, r.rx2, r.trace2)))
    for block in BLOCKS:
        decisions = with_block(block, lambda: list(harness._compensated_decisions(r, cfg)))
        assert np.array_equal(np.concatenate([d[2] for d in decisions]), k_comp1), block
        assert np.array_equal(np.concatenate([d[3] for d in decisions]), k_comp2), block
        report = with_block(block, harness._detect, r, cfg)
        assert report.errors_compensated == (
            count_quadrant_errors(r.k_tx1, k_comp1), count_quadrant_errors(r.k_tx2, k_comp2))
        assert report.errors_uncompensated == (errors_base if cfg.compare_baseline else None)
        assert report.case_counts == tuple(int(c) for c in cases)


@pytest.mark.parametrize("block", [7, 64, 5000, 2**15])
def test_compensated_samples_independent_of_block_size(block):
    """Compensating in blocks with the whole traces' means gives the whole
    arrays' samples bit for bit, also across the 256 KiB size above which
    numpy reuses a temporary operand as the output (and may swap the
    operands of a complex product, which changes its rounding)."""
    rng = np.random.default_rng(3)
    n = 40_000
    rx1, rx2 = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    t1, t2 = rng.uniform(-np.pi / 4, np.pi / 4, (2, n))
    means = (t1.mean(), t2.mean())
    cfg = EstimatorConfig(kappa=4.0)

    def compensate(b):
        return (*compensate_traces(rx1[b], rx2[b], t1[b], t2[b], means, cfg),
                apply_compensation(rx1[b], t1[b]))

    whole = compensate(slice(None))
    parts = [compensate(slice(a, a + block)) for a in range(0, n, block)]
    for i, samples in enumerate(whole):
        assert np.concatenate([p[i] for p in parts]).tobytes() == samples.tobytes(), i


@pytest.mark.parametrize("phase_model, window, remove_mean", [
    ("iid", 1, False),
    ("shaped", 33, True),
])
def test_trial_peak_memory_per_symbol(phase_model, window, remove_mean):
    """A trial holds two complex streams, two phase traces and the uint8
    decisions whole; the per-block temporaries add a few B/sym at 2^19."""
    n = 2**19
    cfg = TrialConfig(
        n_symbols=n,
        channel=ChannelParams(sigma_common=0.3, sigma_additive=0.15, phase_model=phase_model,
                              cpe_cutoff=1e8, delay_offset=3, seed=5),
        vv=VVConfig(window=window, remove_mean=remove_mean),
        estimator=EstimatorConfig(kappa=8.0),
        compare_baseline=True,
    )
    tracemalloc.start()
    try:
        run_trial(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 100
