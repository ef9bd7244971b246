"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; numbers in parentheses are the measured quantities behind the verdict.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from duolink import (
    SYMBOLS,
    Case,
    ChannelParams,
    EstimatorConfig,
    TrialConfig,
    VVConfig,
    apply_channel,
    classify_cases,
    compensate_traces,
    conversion_efficiency,
    emit,
    estimate_common_phase,
    estimate_delay,
    extract_phase,
    gen_common_phase,
    gray_indices,
    run_trial,
    shaped_filter_gain,
    adapt_kappa,
)
from oracles import CASE_TRUTH_TABLE, count_errors, demap_symbols, weighted_phase_reference

QUARTER_PI = np.pi / 4


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} failed: {name} ({detail})"


# 3x2 grid shared by criteria 4 and 5
GRID = [(sc, sa) for sc in (0.2, 0.3, 0.4) for sa in (0.12, 0.18)]


@pytest.fixture(scope="module")
def grid_reports():
    start = time.perf_counter()
    reports = {}
    for index, (sc, sa) in enumerate(GRID):
        cfg = TrialConfig(
            n_symbols=10**6,
            channel=ChannelParams(
                sigma_common=sc, sigma_additive=sa, seed=2026 + index),
            vv=VVConfig(window=1, remove_mean=False),
            estimator=EstimatorConfig(kappa_infinite=True),
        )
        reports[(sc, sa)] = run_trial(cfg)
    return reports, time.perf_counter() - start


def test_criterion_01_estimator_limits():
    """kappa=0 equals the mean; kappa=1e6 equals the border mode."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    p1 = rng.uniform(-QUARTER_PI, QUARTER_PI, 10**4)
    p2 = rng.uniform(-QUARTER_PI, QUARTER_PI, 10**4)
    mean_dev = np.abs(
        estimate_common_phase(p1, p2, EstimatorConfig(kappa=0.0))
        - (p1 + p2) / 2).max()
    huge = estimate_common_phase(p1, p2, EstimatorConfig(kappa=1e6))
    border = estimate_common_phase(
        p1, p2, EstimatorConfig(kappa_infinite=True))
    separated = np.abs(np.abs(p1) - np.abs(p2)) > 1e-3
    agree = bool(np.array_equal(huge[separated], border[separated]))
    elapsed = time.perf_counter() - start
    check(1, "estimator kappa limits",
          mean_dev <= 1e-12 and agree and elapsed < 1.0,
          f"mean dev {mean_dev:.2e}, {int(separated.sum())} border pairs agree, "
          f"{elapsed:.2f}s")


def test_criterion_02_hand_oracle_value():
    est = estimate_common_phase(0.2, 0.4, EstimatorConfig(kappa=1.0))
    ref = weighted_phase_reference(0.2, 0.4, 1.0)
    check(2, "kappa=1 hand value 0.29003",
          abs(est - 0.29003) <= 1e-5 and abs(est - ref) <= 1e-12,
          f"estimate {est:.7f}")


def test_criterion_03_exact_cancellation():
    """Pure common phase is removed exactly in the border-case mode."""
    start = time.perf_counter()
    n = 10**5
    rng = np.random.default_rng(303)
    bits1 = rng.integers(0, 2, 2 * n)
    bits2 = rng.integers(0, 2, 2 * n)
    k1, k2 = gray_indices(bits1), gray_indices(bits2)
    phi = rng.uniform(-0.7, 0.7, n)
    rx1, rx2 = apply_channel(k1, k2, ChannelParams(seed=0), phase=phi)
    vv = VVConfig(window=1, remove_mean=False)
    out1, out2 = compensate_traces(
        rx1, rx2, extract_phase(rx1, vv), extract_phase(rx2, vv),
        EstimatorConfig(kappa_infinite=True))
    dev = max(np.abs(out1 - SYMBOLS[k1]).max(), np.abs(out2 - SYMBOLS[k2]).max())
    errors = (count_errors(bits1, demap_symbols(out1))[0]
              + count_errors(bits2, demap_symbols(out2))[0])
    elapsed = time.perf_counter() - start
    check(3, "exact cancellation of pure common phase",
          dev <= 1e-12 and errors == 0 and elapsed < 5.0,
          f"max dev {dev:.2e}, {errors} bit errors, {elapsed:.2f}s")


def test_criterion_04_ber_reduction(grid_reports):
    """Compensation lowers BER at every grid point, intervals disjoint."""
    reports, elapsed = grid_reports
    ok = True
    details = []
    for (sc, sa), report in reports.items():
        reduced = report.ber_compensated < report.ber_uncompensated
        disjoint = report.ci_compensated[1] < report.ci_uncompensated[0]
        ok = ok and reduced and disjoint
        details.append(f"{sc}/{sa}: {report.ber_uncompensated:.2e}->"
                       f"{report.ber_compensated:.2e}{'' if disjoint else ' OVERLAP'}")
    ok = ok and elapsed < 120.0
    check(4, "BER reduction with disjoint Wilson intervals",
          ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_05_case_frequency_ordering(grid_reports):
    """AdditionalErrors stays rarer than CorrectionSuccessful."""
    reports, _ = grid_reports
    ok = True
    considered = 0
    details = []
    for (sc, sa), report in reports.items():
        if report.ber_uncompensated < 1e-3:
            continue
        considered += 1
        successful = report.case_counts[1]
        additional = report.case_counts[2]
        ok = ok and additional < successful
        details.append(f"{sc}/{sa}: {additional}<{successful}")
    check(5, "additional errors rarer than successful corrections",
          ok and considered > 0, "; ".join(details))


def test_criterion_06_classifier_truth_table():
    start = time.perf_counter()
    mismatches = 0
    single = []
    for combo in product(range(4), repeat=6):
        t1, t2, r1, r2, p1, p2 = combo
        key = (r1 == t1, r2 == t2, p1 == t1, p2 == t2)
        single.append(classify_cases(*([q] for q in combo))[0])
        if Case(single[-1]) is not CASE_TRUTH_TABLE[key]:
            mismatches += 1
    cols = np.array(list(product(range(4), repeat=6))).T
    vector = classify_cases(*cols)
    elapsed = time.perf_counter() - start
    check(6, "four-case classifier matches hand truth table (4096 combos)",
          mismatches == 0 and np.array_equal(vector, single) and elapsed < 1.0,
          f"{mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_07_viterbi_identity():
    """Known rotations are recovered for every transmitted symbol."""
    worst = 0.0
    data_dev = 0.0
    for theta in (-0.7, -0.3, 0.0, 0.3, 0.7):
        traces = []
        for k in range(4):
            bits = {0: [0, 0], 1: [0, 1], 2: [1, 1], 3: [1, 0]}[k] * 64
            stream = SYMBOLS[gray_indices(bits)] * np.exp(1j * theta)
            for window in (1, 33):
                trace = extract_phase(
                    stream, VVConfig(window=window, remove_mean=False))
                worst = max(worst, float(np.abs(trace - theta).max()))
            traces.append(extract_phase(
                stream, VVConfig(window=1, remove_mean=False)))
        for other in traces[1:]:
            data_dev = max(data_dev, float(np.abs(traces[0] - other).max()))
    check(7, "fourth-power phase recovery identity",
          worst <= 1e-9 and data_dev <= 1e-12,
          f"max rotation dev {worst:.2e}, max data dependence {data_dev:.2e}")


def test_criterion_08_efficiency_curve():
    ok = True
    details = []
    omega = np.linspace(0, 2 * np.pi * 2e9, 1000)
    for alpha_db, dbeta in product((0.2, 0.25), (1e-9, 5e-9)):
        eta = conversion_efficiency(omega, alpha_db, dbeta)
        exact_dc = conversion_efficiency(0.0, alpha_db, dbeta) == math.log(10) / 10 * alpha_db
        even = np.array_equal(eta, conversion_efficiency(-omega, alpha_db, dbeta))
        monotone = bool(np.all(np.diff(eta) >= 0))
        ok = ok and exact_dc and even and monotone
        details.append(f"a={alpha_db},b={dbeta:g}: "
                       f"{'ok' if exact_dc and even and monotone else 'BAD'}")
    check(8, "efficiency curve exact at DC, even, nondecreasing",
          ok, "; ".join(details))


def test_criterion_09_shaped_spectrum():
    """Periodogram of the shaped trace follows the analytic response."""
    start = time.perf_counter()
    n = 2**20
    params = ChannelParams(
        sigma_common=0.3, phase_model="shaped", seed=909,
        alpha_dB=0.2, dbeta=1e-9, cpe_cutoff=1e6, symbol_rate=32e9)
    trace = gen_common_phase(n, params)
    freq, gain = shaped_filter_gain(n, params)
    periodogram = np.abs(np.fft.rfft(trace)) ** 2
    analytic = gain**2
    band = (freq >= 0.02 * params.symbol_rate) & (freq <= 0.45 * params.symbol_rate)
    p_band = periodogram[band]
    a_band = analytic[band]
    blocks = 256
    size = p_band.size // blocks
    p_blocks = p_band[: blocks * size].reshape(blocks, size).mean(axis=1)
    a_blocks = a_band[: blocks * size].reshape(blocks, size).mean(axis=1)
    ratio = p_blocks / a_blocks
    dev_db = 10 * np.log10(ratio / ratio.mean())
    worst = float(np.abs(dev_db).max())
    elapsed = time.perf_counter() - start
    check(9, "shaped phase spectrum within 1 dB of analytic response",
          worst <= 1.0 and elapsed < 10.0,
          f"worst block dev {worst:.2f} dB over {blocks} bands, {elapsed:.1f}s")


def test_criterion_10_delay_recovery():
    n = 10**5
    recovered = {}
    for d in range(-7, 8):
        params = ChannelParams(
            sigma_common=0.3, sigma_additive=0.15, delay_offset=d, seed=500 + d)
        rng = np.random.default_rng(1000 + d)
        tx1 = gray_indices(rng.integers(0, 2, 2 * n))
        tx2 = gray_indices(rng.integers(0, 2, 2 * n))
        rx1, rx2 = apply_channel(tx1, tx2, params)
        cfg = VVConfig(window=1, remove_mean=False)
        result = estimate_delay(
            extract_phase(rx1, cfg), extract_phase(rx2, cfg), max_lag=10)
        recovered[d] = result.lag
    wrong = {d: lag for d, lag in recovered.items() if lag != d}
    check(10, "delay offsets -7..7 recovered exactly",
          not wrong, f"failures: {wrong}" if wrong else "15/15 exact")


def test_criterion_11_kappa_adaptation():
    result = adapt_kappa(lambda k: (k - 2.0) ** 2 + 0.01, 0.0, 10.0, tol=1e-3)
    check(11, "kappa control loop on synthetic objective",
          abs(result.kappa_opt - 2.0) <= 1e-3 and result.evaluations <= 35,
          f"kappa_opt {result.kappa_opt:.5f} in {result.evaluations} evaluations")


def test_criterion_12_deterministic_emission(tmp_path):
    def make():
        return run_trial(TrialConfig(
            n_symbols=50000,
            channel=ChannelParams(sigma_common=0.3, sigma_additive=0.15, seed=7),
            vv=VVConfig(window=1, remove_mean=False),
            estimator=EstimatorConfig(kappa_infinite=True)))

    identical = True
    for fmt in ("csv", "json"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        emit([make()], fmt, a)
        emit([make()], fmt, b)
        identical = identical and a.read_bytes() == b.read_bytes()
    check(12, "byte-identical CSV/JSON across reruns", identical)
