"""Independent reference implementations used as test oracles.

Everything here is deliberately written without touching the package
internals so that an implementation bug cannot hide in its own oracle. The
things taken from the package are the numbering of the per-seed random
streams and the chunk size they are drawn in (the default of every `chunk`
argument), which both sides must share.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from duolink import Case, ChannelParams, EstimatorConfig, TrialConfig, VVConfig
from duolink.alignment import CONFIDENCE_THRESHOLD, TIE_TOL
from duolink.channel import (
    CHUNK,
    STREAM_BITS1,
    STREAM_BITS2,
    STREAM_NOISE1,
    STREAM_NOISE2,
    STREAM_PHASE,
)

# Hand-written truth table for the four compensation-outcome cases, keyed by
# (rx1 correct, rx2 correct, post1 correct, post2 correct). Derived from the
# constellation walk-through: both received correct -> nothing to do; at
# least one received wrong but everything correct afterwards -> successful
# correction; a channel that was correct got broken -> additional errors;
# everything else is an uncorrectable failure.
CASE_TRUTH_TABLE = {
    (True, True, True, True): Case.NO_CORRECTION_REQUIRED,
    (True, True, True, False): Case.NO_CORRECTION_REQUIRED,
    (True, True, False, True): Case.NO_CORRECTION_REQUIRED,
    (True, True, False, False): Case.NO_CORRECTION_REQUIRED,
    (True, False, True, True): Case.CORRECTION_SUCCESSFUL,
    (True, False, True, False): Case.NO_CORRECTION_POSSIBLE,
    (True, False, False, True): Case.ADDITIONAL_ERRORS,
    (True, False, False, False): Case.ADDITIONAL_ERRORS,
    (False, True, True, True): Case.CORRECTION_SUCCESSFUL,
    (False, True, True, False): Case.ADDITIONAL_ERRORS,
    (False, True, False, True): Case.NO_CORRECTION_POSSIBLE,
    (False, True, False, False): Case.ADDITIONAL_ERRORS,
    (False, False, True, True): Case.CORRECTION_SUCCESSFUL,
    (False, False, True, False): Case.NO_CORRECTION_POSSIBLE,
    (False, False, False, True): Case.NO_CORRECTION_POSSIBLE,
    (False, False, False, False): Case.NO_CORRECTION_POSSIBLE,
}

# golden-00's config (golden_reports.json): shaped, window 33, channel 2
# buffered by 7 symbols, where a window at the edge of the channels' overlap
# changes a decision, as it reads channel 2's own neighbouring samples.
LAGGED_WINDOW_33 = TrialConfig(
    n_symbols=4000, vv=VVConfig(window=33), estimator=EstimatorConfig(kappa=8.0), max_lag=16,
    channel=ChannelParams(sigma_common=0.3, sigma_additive=0.15, phase_model="shaped",
                          cpe_cutoff=1e8, delay_offset=7, seed=1000))


def weighted_phase_reference(phi1: float, phi2: float, kappa: float) -> float:
    """Direct scalar evaluation of the weighted common-phase estimate."""
    w1 = math.exp(-kappa * abs(phi1))
    w2 = math.exp(-kappa * abs(phi2))
    return (w1 * phi1 + w2 * phi2) / (w1 + w2)


def wilson_reference(errors: int, trials: int) -> tuple[float, float]:
    """Scalar Wilson 95% interval (cross-checked against statsmodels)."""
    z = 1.959963984540054
    p = errors / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return center - half, center + half


def quadrant_reference(samples):
    """Quadrant index by nested sign tests: ties on the axes go to the
    adjacent quadrant with the smaller index, the origin to 0."""
    z = np.asarray(samples)
    re, im = z.real, z.imag
    return np.where(
        im > 0,
        np.where(re >= 0, 0, 1),
        np.where(
            im < 0,
            np.where(re <= 0, 2, 3),
            np.where(re > 0, 0, np.where(re < 0, 1, 0)),
        ),
    )


# Gray labels (b0, b1) of quadrants k = 0..3, written from the convention in
# duolink.qpsk's docstring: k=0 -> 00, k=1 -> 01, k=2 -> 11, k=3 -> 10.
GRAY_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])

# Quadrant centers exp(i(pi/4 + k*pi/2)), from the same docstring.
QPSK_SYMBOLS = np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2))


def demap_symbols(samples):
    """Interleaved (b0, b1) bits of the quadrant containing each sample."""
    return GRAY_BITS[quadrant_reference(samples)].ravel()


def count_errors(tx, rx) -> tuple[int, float]:
    """(bit error count, BER) of two equal-length bit streams, by comparing
    them bit by bit."""
    tx, rx = np.asarray(tx), np.asarray(rx)
    if tx.shape != rx.shape:
        raise ValueError(f"bit stream lengths differ: {tx.size} vs {rx.size}")
    errors = int(np.count_nonzero(tx != rx))
    return errors, errors / tx.size if tx.size else 0.0


def pearson_reference(x, y) -> float:
    """Pearson coefficient of two equal-length samples, 0 if either is
    constant. Each sample is centered on its rounded mean, and the sums of
    squares and products are corrected for that mean's rounding (the
    corrected two-pass formula, sum(d*d) - sum(d)**2/m), so samples that
    vary by a few ulps correlate as exact arithmetic correlates them."""
    if x.max() == x.min() or y.max() == y.min():
        return 0.0
    m = x.size
    dx = x - x.mean()
    dy = y - y.mean()
    sx, sy = float(dx.sum()), float(dy.sum())
    var_x = float(np.dot(dx, dx)) - sx * sx / m
    var_y = float(np.dot(dy, dy)) - sy * sy / m
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return (float(np.dot(dx, dy)) - sx * sy / m) / math.sqrt(var_x * var_y)


def pearson_exact(x, y) -> float:
    """pearson_reference in exact rational arithmetic: the coefficient of the
    samples' float values, rounded once, at the end."""
    if x.max() == x.min() or y.max() == y.min():
        return 0.0
    fx, fy = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    cov = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    var = sum((a - mx) ** 2 for a in fx) * sum((b - my) ** 2 for b in fy)
    return math.copysign(math.sqrt(cov * cov / var), cov)


def delay_reference(t1, t2, max_lag: int, tie_tol: float = 0.0,
                    pearson=pearson_reference) -> tuple[int, float]:
    """(lag, peak correlation) by correlating every overlap directly with
    `pearson`; lags in order of |lag|, negative first, and a later lag wins
    only by more than tie_tol."""
    n = t1.size
    best_lag, best = 0, -math.inf
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda s: (abs(s), s)):
        if lag >= 0:
            r = pearson(t1[lag:], t2[: n - lag])
        else:
            r = pearson(t1[: n + lag], t2[-lag:])
        if r > best + tie_tol:
            best_lag, best = lag, r
    return best_lag, best


def phase_reference(samples, window: int) -> np.ndarray:
    """Per-symbol fourth-power phase: for each symbol, the sum of s**4 over
    the window centered on it (cut off at the stream ends), then the angle
    of minus that sum over 4, with the angle pi on the negative real axis
    (never -pi); 0 where the sum is 0."""
    quartic = (np.asarray(samples) ** 4).tolist()
    n, half = len(quartic), window // 2
    sums = []
    for i in range(n):
        lo, hi = max(i - half, 0), min(i + half + 1, n)
        total = quartic[lo]
        for q in quartic[lo + 1:hi]:
            total += q
        sums.append(total)
    sums = np.array(sums, dtype=complex)
    angles = np.angle(-sums)
    angles[angles == -np.pi] = np.pi
    return np.where(sums == 0, 0.0, angles / 4)


def wrap_reference(x):
    """x moved by a multiple of pi/2 into (-pi/4, pi/4]."""
    return x - np.pi / 2 * np.ceil((x - np.pi / 4) / (np.pi / 2))


def chunked(seed: int, stream: int, n: int, chunk: int, draw) -> np.ndarray:
    """The n values of random stream `stream` of a channel seed: each chunk
    of `chunk` symbols (the last one shorter) drawn as draw(generator, m) by
    the chunk's own generator, SeedSequence(seed, spawn_key=(stream, c)),
    the chunks concatenated."""
    parts = []
    for c, a in enumerate(range(0, n, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, c)))
        parts.append(draw(rng, min(chunk, n - a)))
    return np.concatenate(parts)


def payload_reference(n: int, ch, chunk: int = CHUNK) -> list[np.ndarray]:
    """The two channels' transmitted quadrant indices: uniform integers
    0..3, drawn as uint8 from the payload streams."""
    return [chunked(ch.seed, stream, n, chunk,
                    lambda rng, m: rng.integers(0, 4, m, dtype=np.uint8))
            for stream in (STREAM_BITS1, STREAM_BITS2)]


@lru_cache(maxsize=4)
def shaped_taps(alpha_dB: float, dbeta: float, cpe_cutoff: float,
                symbol_rate: float) -> np.ndarray:
    """The shaped model's 513 FIR taps h[-256..256] (tap k at index k + 256):
    the centered samples of the inverse rfft of the filter's gain on a
    2^20-point grid at the symbol rate. The gain is the efficiency
    sqrt(alpha_np^2 + (dbeta*omega)^2) times a first-order high-pass at
    cpe_cutoff, x/sqrt(1 + x^2) with x = f/cpe_cutoff."""
    grid = 2**20
    freq = np.fft.rfftfreq(grid, d=1.0 / symbol_rate)
    alpha_np = math.log(10) / 10 * alpha_dB
    efficiency = np.hypot(alpha_np, dbeta * 2 * np.pi * freq)
    x = freq / cpe_cutoff
    response = np.fft.irfft(efficiency * x / np.hypot(1.0, x), grid)
    return np.concatenate([response[-256:], response[:257]])


def common_phase_reference(n: int, ch, chunk: int = CHUNK) -> np.ndarray:
    """The shared phase trace of duolink.channel's docstring: iid
    Gaussian(0, sigma_common^2) per symbol, or white Gaussian noise
    circularly convolved with the shaped_taps, less its mean, then scaled to
    the sample std sigma_common. All zeros when sigma_common is 0 or the
    filtered trace is constant."""
    if ch.sigma_common == 0:
        return np.zeros(n)
    if ch.phase_model == "iid":
        return chunked(ch.seed, STREAM_PHASE, n, chunk,
                       lambda rng, m: rng.normal(0.0, ch.sigma_common, m))
    white = chunked(ch.seed, STREAM_PHASE, n, chunk, lambda rng, m: rng.standard_normal(m))
    taps = shaped_taps(ch.alpha_dB, ch.dbeta, ch.cpe_cutoff, ch.symbol_rate)
    # trace[j] = sum over k of h[k] * white[(j - k) mod n]
    trace = np.zeros(n)
    for k in range(-256, 257):
        trace += taps[k + 256] * np.roll(white, k)
    trace -= trace.mean()
    std = trace.std()
    return np.zeros(n) if std == 0 else trace * (ch.sigma_common / std)


def channel_reference(k_tx1, k_tx2, ch, chunk: int = CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """(rx1, rx2) of duolink.channel's model: each quadrant center rotated
    by exp(1j*phi), plus sigma_additive times each noise stream's in-phase
    draws, then its quadrature draws, chunk by chunk; channel 2 then rolled
    so that slot n holds symbol n + delay_offset."""
    n = k_tx1.size
    rotation = np.exp(1j * common_phase_reference(n, ch, chunk))
    rx = []
    for k, stream in ((k_tx1, STREAM_NOISE1), (k_tx2, STREAM_NOISE2)):
        z = QPSK_SYMBOLS[k] * rotation
        if ch.sigma_additive > 0:
            pairs = chunked(ch.seed, stream, n, chunk,
                            lambda rng, m: np.stack([rng.standard_normal(m),
                                                     rng.standard_normal(m)], axis=1))
            z = z + ch.sigma_additive * (pairs[:, 0] + 1j * pairs[:, 1])
        rx.append(z)
    return rx[0], np.roll(rx[1], -ch.delay_offset)


def reference_trial(cfg, chunk: int = CHUNK) -> dict:
    """Every BERReport field of run_trial(cfg) except `config`, computed
    plainly from the package's documented behaviour, with the random
    streams drawn in chunks of `chunk` symbols.

    Only the numbering of the random streams and the chunk size come from
    the package. The rest is written here: the payload (payload_reference)
    and its Gray labels, the channel (channel_reference), the delay search by direct Pearson
    correlation of the per-symbol traces (taken only when the traces are
    longer than 2*max_lag, applied only when confident, as a delay line on
    channel 2 that pairs the symbols both channels hold), explicit window
    sums over each whole received stream, per-channel mean removal, the
    weights exp(-kappa*|phi|) of
    duolink.compensation's docstring (the minimum-magnitude observation,
    ties to channel 1, for kappa_infinite), bit-level error counts, the case
    truth table and the Wilson interval.
    """
    n, ch = cfg.n_symbols, cfg.channel
    k_tx = payload_reference(n, ch, chunk)
    rx1, rx2 = channel_reference(k_tx[0], k_tx[1], ch, chunk)

    lag, confident = 0, False
    if cfg.max_lag > 0 and n > 2 * cfg.max_lag:
        lag, peak = delay_reference(phase_reference(rx1, 1), phase_reference(rx2, 1),
                                    cfg.max_lag, TIE_TOL)
        confident = peak >= CONFIDENCE_THRESHOLD
    lag = lag if confident else 0

    # each trace from its whole received stream, each mean of its whole trace
    traces = [phase_reference(r, cfg.vv.window) for r in (rx1, rx2)]
    means = [t.mean() for t in traces]
    # a delay line holds channel 2 back by lag symbols: channel 1's symbol i
    # meets channel 2's symbol i - lag, for every i where both exist. The
    # channel moved only channel 2's received stream, so both payloads are
    # read at channel 1's index
    i1 = np.array([i for i in range(n) if 0 <= i - lag < n], dtype=int)
    n_valid = i1.size
    rx = [rx1[i1], rx2[i1 - lag]]
    traces = [traces[0][i1], traces[1][i1 - lag]]
    comp_rx, comp_traces = rx, traces
    if cfg.vv.remove_mean:
        comp_rx = [r * np.exp(-1j * m) for r, m in zip(rx, means)]
        comp_traces = [wrap_reference(t - m) for t, m in zip(traces, means)]
    phi1, phi2 = comp_traces
    if cfg.estimator.kappa_infinite:
        estimate = np.where(np.abs(phi2) < np.abs(phi1), phi2, phi1)
    else:
        w1 = np.exp(-cfg.estimator.kappa * np.abs(phi1))
        w2 = np.exp(-cfg.estimator.kappa * np.abs(phi2))
        estimate = (w1 * phi1 + w2 * phi2) / (w1 + w2)
    post = [r * np.exp(-1j * estimate) for r in comp_rx]
    baseline = [r * np.exp(-1j * t) for r, t in zip(rx, traces)]

    sent = [GRAY_BITS[k[i1]].ravel() for k in k_tx]

    def errors(streams) -> tuple[int, int]:
        return tuple(count_errors(s, demap_symbols(z))[0] for s, z in zip(sent, streams))

    def correct(z, s) -> np.ndarray:
        return (demap_symbols(z) == s).reshape(-1, 2).all(axis=1).tolist()

    flags = zip(*(correct(z, s) for z, s in zip(rx + post, sent + sent)))
    cases = [CASE_TRUTH_TABLE[key] for key in flags]
    bits_per_channel = 2 * n_valid

    def ber_and_interval(errs):
        return sum(errs) / (2 * bits_per_channel), wilson_reference(sum(errs), 2 * bits_per_channel)

    ec = errors(post)
    ber_comp, ci_comp = ber_and_interval(ec)
    eb = ber_base = ci_base = None
    if cfg.compare_baseline:
        eb = errors(baseline)
        ber_base, ci_base = ber_and_interval(eb)
    return dict(
        ber_uncompensated=ber_base,
        ber_compensated=ber_comp,
        errors_uncompensated=eb,
        errors_compensated=ec,
        bits_per_channel=bits_per_channel,
        ci_uncompensated=ci_base,
        ci_compensated=ci_comp,
        case_counts=tuple(cases.count(c) for c in Case),
        valid_symbols=n_valid,
        estimated_lag=lag,
        lag_confident=confident,
        seed=ch.seed,
    )
