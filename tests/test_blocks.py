"""The blocked trial kernel: no result depends on the block size or on the
number of threads, the settle pass and the detection of its open symbols
count what the whole arrays give, and a trial's memory stays bounded.

The block size is monkeypatched down to 1, 7 and 64 symbols so that short
trials span several blocks plus a remainder, and the thread count to 1, 2
and 3 whatever the machine has.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duolink import (
    ChannelParams,
    EstimatorConfig,
    TrialConfig,
    VVConfig,
    apply_channel,
    apply_compensation,
    classify_cases,
    compensate_traces,
    count_quadrant_errors,
    draw_payload,
    extract_phase,
    gen_common_phase,
    quadrant_indices,
    run_trial,
    wrap_quarter,
)
import duolink
from duolink import _blocks, harness, run_sweep
from oracles import LAGGED_WINDOW_33, QPSK_SYMBOLS

BLOCKS = (1, 7, 64)
THREADS = (1, 2, 3)


def with_block(block, fn, *args, threads=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blocks, "BLOCK", block)
        if threads is not None:
            mp.setattr(_blocks, "THREADS", threads)
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


@settings(max_examples=15, deadline=None)
@given(trial_configs())
def test_report_independent_of_thread_count(cfg):
    report = run_trial(cfg)
    interval = sys.getswitchinterval()
    # switch threads often, so that the pool's tasks interleave finely
    sys.setswitchinterval(1e-6)
    try:
        for threads in THREADS:
            for block in BLOCKS:
                got = with_block(block, run_trial, cfg, threads=threads)
                assert got == report, (threads, block)
    finally:
        sys.setswitchinterval(interval)


def test_each_keeps_item_order_and_raises_once_no_call_runs(monkeypatch):
    monkeypatch.setattr(_blocks, "THREADS", 3)
    assert _blocks.each(lambda x: x * x, range(50)) == [x * x for x in range(50)]
    done = []

    def fail_on_seven(x):
        time.sleep(0.002)
        if x == 7:
            raise KeyError(x)
        done.append(x)

    with pytest.raises(KeyError):
        _blocks.each(fail_on_seven, range(40))
    finished = list(done)
    time.sleep(0.1)
    assert done == finished
    assert 7 not in done


def test_each_nested_in_pool_threads_completes(monkeypatch):
    """A call of `each` from inside a task, also on a pool thread, neither
    waits on a task queued behind itself nor loses an item."""
    monkeypatch.setattr(_blocks, "THREADS", 2)
    got = []
    outer = threading.Thread(target=lambda: got.append(_blocks.each(
        lambda x: _blocks.each(lambda y: x * y, range(6)), range(12))), daemon=True)
    outer.start()
    outer.join(timeout=60)
    assert not outer.is_alive()
    assert got == [[[x * y for y in range(6)] for x in range(12)]]


DELAY_SCRIPT = """
import numpy as np
from duolink import ChannelParams, VVConfig, apply_channel, estimate_delay, extract_phase
for seed in (1, 2, 3):
    rng = np.random.default_rng(seed)
    params = ChannelParams(sigma_common=0.3, sigma_additive=0.15, delay_offset=30, seed=seed)
    tx1, tx2 = (rng.integers(0, 4, 200_000) for _ in range(2))
    t1, t2 = (extract_phase(rx, VVConfig(window=1)) for rx in apply_channel(tx1, tx2, params))
    print(repr(estimate_delay(t1, t2, 128).peak_correlation))
"""


def script_output(script, **env):
    """The words that script prints when run by a fresh interpreter that
    imports this duolink, with env added to the environment."""
    src = str(Path(duolink.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_delay_search_independent_of_blas_threads():
    """The delay search's peak correlation is bit-equal whether OpenBLAS runs
    one thread or two: no reduction in it goes through threaded BLAS."""
    outputs = [script_output(DELAY_SCRIPT, OPENBLAS_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


WINDOW_SCRIPT = """
import hashlib
import numpy as np
from duolink import SYMBOLS, VVConfig, extract_phase
rng = np.random.default_rng(19)
n = 100_000
stream = SYMBOLS[rng.integers(0, 4, n)] * np.exp(1j * rng.normal(0, 0.3, n))
stream += 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
print(hashlib.sha256(extract_phase(stream, VVConfig(window=33)).tobytes()).hexdigest())
"""


def test_window_sums_independent_of_blas_kernel(capsys):
    """The window-33 traces have the same bytes when OpenBLAS runs another
    CPU kernel (Prescott): no window sum goes through BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    exec(WINDOW_SCRIPT, {})
    here = capsys.readouterr().out.split()
    assert len(here) == 1
    assert script_output(WINDOW_SCRIPT, OPENBLAS_CORETYPE="Prescott") == here


def test_no_thread_outlives_a_trial_and_forked_sweep_matches_serial(monkeypatch):
    """No duolink thread is alive after a trial on two threads, so a sweep
    forked after it forks none; its reports equal the serial sweep's."""
    monkeypatch.setattr(_blocks, "THREADS", 2)
    base = TrialConfig(n_symbols=3000,
                       channel=ChannelParams(sigma_common=0.3, sigma_additive=0.15, seed=7))
    run_trial(base)
    assert [t.name for t in threading.enumerate() if t.name.startswith("duolink")] == []
    axes = {"sigma_common": [0.2, 0.3], "delay_offset": [0, 5]}
    serial = run_sweep(replace(base, n_symbols=2 * _blocks.BLOCK + 100), axes, workers=1)
    parallel = run_sweep(replace(base, n_symbols=2 * _blocks.BLOCK + 100), axes, workers=2)
    assert [p.error for p in parallel] == [None] * 4
    assert [p.report for p in parallel] == [p.report for p in serial]


@settings(max_examples=40, deadline=None)
@given(trial_configs())
# at block 1 each sample's fourth power is a one-element product, which numpy
# rounds differently when it is taken in place
@example(TrialConfig(n_symbols=5, channel=ChannelParams(sigma_additive=0.25, seed=0),
                     vv=VVConfig(window=1)))
def test_channel_and_extraction_independent_of_block_size(cfg):
    rng = np.random.default_rng(cfg.channel.seed)
    n = cfg.n_symbols
    tx1, tx2 = rng.integers(0, 4, n), rng.integers(0, 4, n)
    rx = apply_channel(tx1, tx2, cfg.channel)
    phases = {(i, w): extract_phase(r, VVConfig(window=w)) for i, r in enumerate(rx)
              for w in (1, 7, 33)}
    for block in BLOCKS:
        blocked = with_block(block, apply_channel, tx1, tx2, cfg.channel)
        assert [r.tobytes() for r in blocked] == [r.tobytes() for r in rx], block
        for (i, w), phase in phases.items():
            got = with_block(block, extract_phase, rx[i], VVConfig(window=w))
            assert got.tobytes() == phase.tobytes(), (block, i, w)


@settings(max_examples=25, deadline=None)
@given(trial_configs(), st.sampled_from([np.uint8, np.int64]))
def test_channel_from_indices_independent_of_block_size_and_threads(cfg, dtype):
    """The channel gives the same bytes at every block size and thread
    count, for indices of either dtype."""
    rng = np.random.default_rng(cfg.channel.seed)
    k1, k2 = (rng.integers(0, 4, cfg.n_symbols).astype(dtype) for _ in range(2))
    expected = [r.tobytes() for r in apply_channel(k1, k2, cfg.channel)]
    for threads in THREADS:
        for block in BLOCKS:
            got = with_block(block, apply_channel, k1, k2, cfg.channel, threads=threads)
            assert [r.tobytes() for r in got] == expected, (threads, block)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 64]))
def test_noiseless_channel_gives_the_quadrant_centers(n, seed, block):
    """With no noise and a zero phase, each index k comes out as the
    independently written quadrant center QPSK_SYMBOLS[k], byte for byte."""
    rng = np.random.default_rng(seed)
    k1, k2 = rng.integers(0, 4, n), rng.integers(0, 4, n)
    rx1, rx2 = with_block(block, apply_channel, k1.astype(np.uint8), k2, ChannelParams(),
                          np.zeros(n))
    assert rx1.tobytes() == QPSK_SYMBOLS[k1].tobytes()
    assert rx2.tobytes() == QPSK_SYMBOLS[k2].tobytes()


def whole_array_counts(cfg):
    """(estimated lag, compensated errors, baseline errors, case counts) of
    cfg's trial from a full evaluation: every valid symbol compensated,
    rotated and decided on the whole arrays. Each trace is extracted from
    its whole received stream, and the mean removal rotates each stream by
    minus its whole trace's mean and wraps the trace less it. The lag holds
    channel 2 back: channel 1's symbol i meets channel 2's i - lag, and both
    payloads are read at i."""
    n, ch = cfg.n_symbols, cfg.channel
    k_tx1, k_tx2 = draw_payload(n, ch)
    rx1, rx2 = apply_channel(k_tx1, k_tx2, ch)
    lag = run_trial(cfg).estimated_lag
    t1, t2 = extract_phase(rx1, cfg.vv), extract_phase(rx2, cfg.vv)
    z1, z2, o1, o2 = rx1, rx2, t1, t2
    if cfg.vv.remove_mean:
        m1, m2 = t1.mean(), t2.mean()
        z1, z2 = rx1 * np.exp(-1j * m1), rx2 * np.exp(-1j * m2)
        o1, o2 = wrap_quarter(t1 - m1), wrap_quarter(t2 - m2)
    one = slice(max(lag, 0), n + min(lag, 0))
    two = slice(one.start - lag, one.stop - lag)
    rx1, t1, z1, o1, k_tx1, k_tx2 = rx1[one], t1[one], z1[one], o1[one], k_tx1[one], k_tx2[one]
    rx2, t2, z2, o2 = rx2[two], t2[two], z2[two], o2[two]
    comp1, comp2 = compensate_traces(z1, z2, o1, o2, cfg.estimator)
    k_comp1, k_comp2 = quadrant_indices(comp1), quadrant_indices(comp2)
    k_rx1, k_rx2 = quadrant_indices(rx1), quadrant_indices(rx2)
    cases = np.bincount(classify_cases(k_tx1, k_tx2, k_rx1, k_rx2, k_comp1, k_comp2),
                        minlength=4)
    errors_base = tuple(
        count_quadrant_errors(k_tx, quadrant_indices(apply_compensation(rx, trace)))
        for k_tx, rx, trace in ((k_tx1, rx1, t1), (k_tx2, rx2, t2)))
    errors = (count_quadrant_errors(k_tx1, k_comp1), count_quadrant_errors(k_tx2, k_comp2))
    return lag, errors, errors_base, tuple(int(c) for c in cases)


def assert_counts_equal(report, counts, cfg):
    lag, errors, errors_base, cases = counts
    assert report.estimated_lag == lag
    assert report.errors_compensated == errors
    assert report.errors_uncompensated == (errors_base if cfg.compare_baseline else None)
    assert report.case_counts == cases


@settings(max_examples=40, deadline=None)
@given(trial_configs())
@example(replace(LAGGED_WINDOW_33, compare_baseline=True))
def test_blocked_detection_equals_whole_arrays(cfg):
    """The block size reaches only the settle pass, as the detection runs on
    the open symbols whole: at every block size, the settle pass and the
    detection count what a full evaluation counts. The example is a lagged
    window-33 trial in which a window at the edge of the channels' overlap
    changes a decision."""
    counts = whole_array_counts(cfg)
    for block in BLOCKS:
        report = with_block(block, run_trial, cfg)
        assert_counts_equal(report, counts, cfg)


@pytest.mark.parametrize("window", [1, 33])
def test_mean_removed_gather_equals_whole_arrays(window):
    """The reception's mean removal of the open symbols it gathers counts
    what the whole arrays' mean removal counts, where a settle block gathers
    more than 16384 open symbols (256 KiB of samples), the size above which
    numpy may reuse a temporary operand as the output. No noise opens more
    than a fourth (window 1) or a half (window 33) of the symbols, so the
    block is raised to 2^17 to get there."""
    block = 2**17
    cfg = TrialConfig(
        n_symbols=block + 1000,
        channel=ChannelParams(sigma_common=0.5, sigma_additive=1.0, seed=11),
        vv=VVConfig(window=window, remove_mean=True),
        estimator=EstimatorConfig(kappa=4.0),
        max_lag=0,
    )
    reception = with_block(block, lambda: harness._single_reception(cfg))
    # more open symbols than the second block has symbols at all
    assert reception.key.size > 16384 + 1000
    assert_counts_equal(harness._detect(reception, cfg), whole_array_counts(cfg), cfg)


@pytest.mark.parametrize("block", [7, 64, 5000, 2**15])
def test_compensated_samples_independent_of_block_size(block):
    """Removing the means from the samples and traces gathered by index, as
    the reception gathers the open symbols, and compensating those gives
    the whole arrays' samples bit for bit, also across the 256 KiB size
    above which numpy reuses a temporary operand as the output (and may swap
    the operands of a complex product, which changes its rounding)."""
    rng = np.random.default_rng(3)
    n = 40_000
    rx1, rx2 = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    t1, t2 = rng.uniform(-np.pi / 4, np.pi / 4, (2, n))
    m1, m2 = t1.mean(), t2.mean()
    cfg = EstimatorConfig(kappa=4.0)

    def compensate(z1, z2, o1, o2, rx, t):
        return (z1, z2, *compensate_traces(z1, z2, o1, o2, cfg), apply_compensation(rx, t))

    whole = compensate(rx1 * np.exp(-1j * m1), rx2 * np.exp(-1j * m2),
                       wrap_quarter(t1 - m1), wrap_quarter(t2 - m2), rx1, t1)
    parts = []
    for a in range(0, n, block):
        at = np.arange(a, min(a + block, n))
        parts.append(compensate(rx1[at] * np.exp(-1j * m1), rx2[at] * np.exp(-1j * m2),
                                wrap_quarter(t1[at] - m1), wrap_quarter(t2[at] - m2),
                                rx1[at], t1[at]))
    for i, samples in enumerate(whole):
        assert np.concatenate([p[i] for p in parts]).tobytes() == samples.tobytes(), i


@pytest.mark.parametrize("phase_model, window, remove_mean", [
    ("iid", 1, False),
    ("shaped", 33, True),
])
def test_trial_peak_memory_per_symbol(phase_model, window, remove_mean):
    """A trial holds two complex streams, two phase traces and the uint8
    transmitted indices whole; the open symbols and the per-block
    temporaries add a few B/sym at 2^19."""
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


@pytest.mark.parametrize("phase_model, window, remove_mean, bound", [
    ("iid", 1, False, 60),
    ("shaped", 33, True, 64),
])
def test_trial_peak_memory_without_spare_copies(monkeypatch, phase_model, window, remove_mean,
                                                bound):
    """With two threads, no complex transmit stream exists whole (the channel
    reads the quadrant indices), no payload bits (the payload is drawn as
    quadrant indices), no centered copy of the delay search's traces (it centers block
    by block), no shifted copy of channel 2 (it is read through a view) and no
    array of received decisions (the settle pass decides block by block).
    Whole arrays at the peak, in the settle pass: the two streams, the two
    traces and the two uint8 transmitted index arrays (50 B/sym); the open
    symbols gathered so far and the blocks in flight add the rest."""
    monkeypatch.setattr(_blocks, "THREADS", 2)
    n = 2**20
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
    assert peak / n < bound


@pytest.mark.parametrize("window, remove_mean, sigma_common, offsets", [
    pytest.param(1, False, 0.5, (3, 40, -9), id="1-False"),
    pytest.param(33, True, 0.5, (3, 40, -9), id="33-True"),
    pytest.param(1, False, 0.3, (3, 12, -9), id="1-False-shared"),
])
def test_sweep_group_peak_is_its_trials(monkeypatch, window, remove_mean, sigma_common, offsets):
    """A sweep's realization serves three offsets, two of them not the
    drawn one; its peak is that of the largest of the three run_trials. The
    group's one delay search runs before any settle pass, and its traces are
    freed before the first one, but for channel 1's at window 1, which every
    pass reads. At window 1 each pass reads the drawn channel 2 at its
    pairing shift, and its channel-2 trace is freed before any detection; at
    window 33 channel 2 is rolled to each offset from the last one, which is
    then freed. Each pass is freed before the next is built: keeping the
    drawn stream beside a rolled one adds 16 B/sym here, the last reception
    beside the next 11. At sigma_common 0.5 no lag is confident, so each
    offset pairs the channels its own way and runs a pass of its own; at 0.3
    all three lags are, within max_lag 16, and the three offsets share one
    pass."""
    monkeypatch.setattr(_blocks, "THREADS", 2)
    n = 2**18
    base = TrialConfig(
        n_symbols=n,
        channel=ChannelParams(sigma_common=sigma_common, sigma_additive=0.15, seed=5),
        vv=VVConfig(window=window, remove_mean=remove_mean),
        estimator=EstimatorConfig(kappa=8.0),
        compare_baseline=True,
    )
    points = [(i, replace(base, channel=replace(base.channel, delay_offset=offset)))
              for i, offset in enumerate(offsets)]

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()

    trials = max(peak(lambda: run_trial(cfg)) for _, cfg in points)
    outcomes = []
    group = peak(lambda: outcomes.extend(harness._sweep_group(points)))
    assert group < trials + 2, (group, trials)
    assert [report.lag_confident for _, report in outcomes] == [sigma_common < 0.5] * 3


@pytest.mark.parametrize("window, remove_mean", [(1, False), (33, True)])
def test_settle_peak_memory(monkeypatch, window, remove_mean):
    """The settle pass's own peak over three calls with two threads, each
    restricted to all of its symbols as a trial's is, its inputs allocated
    before tracing, at 2*10^5 symbols (the size of the
    benchmark's sweep and kappa-search trials, where the blocks weigh most).
    A block holds at most four float arrays at a time: the hull's two and,
    per channel, the power and its square's temporary or the power's buffer,
    reused for the real part, and the imaginary part; a channel's angle is
    freed before the next channel's power exists. Measured on 2 vCPUs
    (numpy 2.4.6): 12.4 to 13.1 B/sym (2.4 % open). At window 1 the traces
    are the samples' own, and the pass takes no angle and copies no
    component (per channel the power, then the quadrants): 9.6 to 11.2
    B/sym. One more block-size
    float array per thread (2.6 B/sym) fails the bound: holding a copy of
    the real part beside the power peaked at 15.1 to 15.7, and keeping the
    first channel's angle while the second's power is taken at 14.5 to
    15.7."""
    monkeypatch.setattr(_blocks, "THREADS", 2)
    n = 200_000
    params = ChannelParams(sigma_common=0.3, sigma_additive=0.15, seed=5)
    k_tx1, k_tx2 = draw_payload(n, params)
    rx1, rx2 = apply_channel(k_tx1, k_tx2, params)
    vv = VVConfig(window=window, remove_mean=remove_mean)
    t1, t2 = extract_phase(rx1, vv), extract_phase(rx2, vv)
    means = (t1.mean(), t2.mean()) if remove_mean else None
    tracemalloc.start()
    try:
        # each call's result is freed before the next call
        opened = [harness._restrict(harness._settle_pass(rx1, rx2, t1, t2, k_tx1, k_tx2, 0, means,
                                                         window == 1, 0),
                                    0, n, 0, False).key.size
                  for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.01 < opened[0] / n < 0.04
    assert peak / n < 14


@pytest.mark.parametrize("phase_model, window, remove_mean, bound", [
    ("iid", 1, False, 12.5),
    ("shaped", 33, True, 14.5),
])
def test_detection_peak_memory(phase_model, window, remove_mean, bound):
    """The detection runs on the open symbols whole, so its peak grows with
    their number: at sigma_common 0.5 a fifth to a quarter of the symbols
    are open. Its own peak at kappa 8, the reception allocated before
    tracing, measured at 2^19: 11.45 B/sym (iid, 20.5 % open) and 13.56
    (shaped, 24.2 % open), both 56 B per open symbol, which the estimator's
    seven float arrays reach. One more float array per open symbol would
    add 1.6 and 1.9 B/sym and fail the bound."""
    n = 2**19
    cfg = TrialConfig(
        n_symbols=n,
        channel=ChannelParams(sigma_common=0.5, sigma_additive=0.15, phase_model=phase_model,
                              cpe_cutoff=1e8, delay_offset=3, seed=5),
        vv=VVConfig(window=window, remove_mean=remove_mean),
        estimator=EstimatorConfig(kappa=8.0),
        compare_baseline=True,
    )
    reception = harness._single_reception(cfg)
    tracemalloc.start()
    try:
        harness._detect(reception, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reception.key.size > n // 6
    assert peak / n < bound


def test_shaped_phase_peak_memory(monkeypatch):
    """The shaped synthesis holds two n-sample float arrays (16 B/sym), the
    white noise and the trace, and each thread's FFT block; the first
    computation of the filter's spectrum ends before the white noise is
    drawn. Measured at 2^20 with two threads: 18.5 B/sym, 19.0 when the
    spectrum is computed in the call."""
    monkeypatch.setattr(_blocks, "THREADS", 2)
    n = 2**20
    params = ChannelParams(sigma_common=0.3, phase_model="shaped", cpe_cutoff=1e8, seed=5)
    tracemalloc.start()
    try:
        gen_common_phase(n, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 20


@pytest.mark.parametrize("phase_model, bound", [("iid", 44), ("shaped", 50)])
def test_channel_peak_memory(monkeypatch, phase_model, bound):
    """The phase is synthesized before the two complex streams (32 B/sym)
    exist, so the channel's peak is the streams, the phase trace and each
    thread's chunk temporaries. Measured at 2^20 with two threads, the
    transmit indices allocated before tracing: 42.15 B/sym (iid, and shaped
    with the filter's spectrum cached) and 42.8 (shaped, the spectrum
    computed in the call)."""
    monkeypatch.setattr(_blocks, "THREADS", 2)
    n = 2**20
    rng = np.random.default_rng(5)
    k1, k2 = (rng.integers(0, 4, n).astype(np.uint8) for _ in range(2))
    params = ChannelParams(sigma_common=0.3, sigma_additive=0.15, phase_model=phase_model,
                           cpe_cutoff=1e8, delay_offset=3, seed=5)
    tracemalloc.start()
    try:
        apply_channel(k1, k2, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < bound
