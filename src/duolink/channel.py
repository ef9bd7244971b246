"""Two-channel received-signal model with a shared phase-noise process.

Both channels see the identical per-symbol phase rotation (the signature of
pump-intensity noise imprinted via cross-phase modulation on copropagating
signals) plus independent complex additive Gaussian noise:

    rx_j[n] = tx_j[n] * exp(i * phi[n]) + nI_j[n] + i * nQ_j[n]

An integer clock offset between the channels is simulated by circularly
shifting the fully formed channel-2 stream, so the phase imprint seen by
channel 2 is displaced together with its payload; the receiver recovers the
offset from the extracted phase traces (see `alignment`).

The phase process is either iid Gaussian per symbol or spectrally shaped by
the pump-power-to-phase conversion efficiency

    eta(omega) = sqrt(alpha_np^2 + (dbeta * omega)^2),
    alpha_np   = ln(10)/10 * alpha_dB

(a relative curve; the proportionality constant is fixed to 1) cascaded with
a first-order high-pass standing in for the slow-phase removal a coherent
receiver's carrier phase estimation already performs. The shaped trace is
white Gaussian noise circularly convolved with 2*HALF_TAPS + 1 = 513 FIR
taps: the centered samples of that filter's zero-phase impulse response on
a TAP_GRID = 2^20-point grid at the symbol rate (the energy beyond them is
about 2e-9 of the total at cpe_cutoff 1e6, 1.2e-9 at 1e8). The whole
trace's mean is then subtracted and the trace scaled to the sample std
sigma_common, so its values depend on its length through the wrap, the
mean and the std.

Every random number comes from one of five streams of the seed
(STREAM_PHASE, STREAM_NOISE1, STREAM_NOISE2, STREAM_BITS1, STREAM_BITS2),
drawn in chunks of CHUNK symbols: chunk c, the symbols [c*CHUNK,
(c+1)*CHUNK), of stream s comes from its own generator,
SeedSequence(seed, spawn_key=(s, c)), and takes m = its length draws:

    payload (draw_payload)   integers(0, 4, m, dtype=uint8), quadrant indices
    iid phase                normal(0, sigma_common, m)
    shaped white noise       standard_normal(m)
    noise of channel i       standard_normal(m) in-phase, then
                             standard_normal(m) quadrature

The noise is keyed by symbol index j, before channel 2's shift. No draw
depends on the block size or the thread count, and only the last chunk's
length depends on the stream's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _blocks, _checks, _files
from .qpsk import SYMBOLS

# Substream identifiers for the per-seed random streams. Payload streams are
# consumed by the Monte Carlo harness; keeping them here ensures every
# consumer of a ChannelParams seed draws from disjoint streams.
STREAM_PHASE = 0
STREAM_NOISE1 = 1
STREAM_NOISE2 = 2
STREAM_BITS1 = 3
STREAM_BITS2 = 4

PHASE_MODELS = ("iid", "shaped")

# The version of a trial's reports: the stream layout, how a seed's random
# streams are drawn and turned into a trial's samples (the module
# docstring), and the receiver that reads them. Every change to a trial's
# reports, the receiver's included, bumps this number. run_sweep records it
# beside its point files and reuses them only under the same number; the
# golden reports' test pins it to the golden file.
STREAM_LAYOUT = 2

MAX_SEED = 2**64

# Bound on sigma_common and sigma_additive. Below it neither a noise draw
# nor the receiver's fourth power of a sample overflows: a normal draw
# beyond 40 has probability below 1e-340, and (40 * 1e70)**4 is about
# 3e286, far from the float limit even summed over a window. A larger sigma
# is rejected at load instead of becoming a non-finite trace in the receiver.
MAX_SIGMA = 1e70


# Symbols per random chunk (see the module docstring); the chunks of every
# stream can be drawn on any thread, in any order.
CHUNK = 1 << 15


def _rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """The generator of chunk `chunk` of random stream `stream` of a seed."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(stream, chunk)))


def _chunks(n: int) -> list[tuple[int, slice]]:
    """(c, the symbols of chunk c) for each chunk of an n-symbol stream."""
    return [(c, slice(a, min(a + CHUNK, n))) for c, a in enumerate(range(0, n, CHUNK))]


@dataclass
class ChannelParams:
    """Noise statistics and clock offset of the two-channel link.

    sigma_common    std of the shared phase rotation [rad]
    sigma_additive  per-quadrature std of the additive noise (unit symbol energy)
    phase_model     "iid" (Gaussian per symbol) or "shaped" (efficiency-filtered)
    alpha_dB        pump attenuation [dB/km], shapes the efficiency curve
    dbeta           group-velocity inverse difference signal vs pump [s/km]
    cpe_cutoff      high-pass corner of the shaped model [Hz]
    symbol_rate     symbol rate [Baud], sets the shaped model's frequency grid
    delay_offset    integer clock offset of channel 2 [symbols]
    seed            64-bit seed; all random streams derive from it
    """

    sigma_common: float = 0.0
    sigma_additive: float = 0.0
    phase_model: str = "iid"
    alpha_dB: float = 0.2
    dbeta: float = 1e-9
    cpe_cutoff: float = 1e6
    symbol_rate: float = 32e9
    delay_offset: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _checks.check_fields(self)
        _checks.at_least("sigma_common", self.sigma_common, 0, below=MAX_SIGMA)
        _checks.at_least("sigma_additive", self.sigma_additive, 0, below=MAX_SIGMA)
        _checks.at_least("alpha_dB", self.alpha_dB, 0)
        if self.phase_model not in PHASE_MODELS:
            raise ValueError(f"phase_model must be one of {PHASE_MODELS}")
        if self.phase_model == "shaped":
            _checks.positive("cpe_cutoff", self.cpe_cutoff)
        _checks.positive("symbol_rate", self.symbol_rate)
        if not 0 <= int(self.seed) < MAX_SEED:
            raise ValueError("seed must fit in 64 bits")


def conversion_efficiency(omega, alpha_dB: float, dbeta: float):
    """Relative pump-power-to-phase conversion efficiency at angular frequency omega.

    Returns sqrt(alpha_np^2 + (dbeta*omega)^2) with alpha_np = ln(10)/10*alpha_dB.
    The value is proportional to the physical efficiency; the constant is
    normalized to 1, so only the curve shape is meaningful. Total function,
    even in omega and nondecreasing in |omega|.
    """
    alpha_np = math.log(10) / 10 * alpha_dB
    # hypot is exact at omega=0 and overflow-safe
    return np.hypot(alpha_np, np.asarray(dbeta, dtype=float) * omega)


def _highpass_gain(freq: np.ndarray, cutoff: float) -> np.ndarray:
    """First-order high-pass magnitude response, 0 at DC, -> 1 above cutoff."""
    x = freq / cutoff
    return x / np.hypot(1.0, x)


def _filter_gain(freq: np.ndarray, alpha_dB: float, dbeta: float,
                 cpe_cutoff: float) -> np.ndarray:
    """Magnitude of the shaped model's filter at frequencies `freq` [Hz]."""
    gain = conversion_efficiency(2 * np.pi * freq, alpha_dB, dbeta)
    return gain * _highpass_gain(freq, cpe_cutoff)


def shaped_filter_gain(n: int, params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """(frequency grid, filter magnitude) of the shaped phase model.

    One gain per rfft bin of an n-sample trace at params.symbol_rate.
    """
    _checks.integer("n", n)
    _checks.at_least("n", n, 1)
    freq = np.fft.rfftfreq(n, d=1.0 / params.symbol_rate)
    return freq, _filter_gain(freq, params.alpha_dB, params.dbeta, params.cpe_cutoff)


# The shaped model's FIR filter (see the module docstring), applied by
# circular overlap-save with FIR_FFT-point FFTs.
TAP_GRID = 1 << 20
HALF_TAPS = 256
FIR_FFT = 1 << 16


@lru_cache(maxsize=8)
def _tap_spectrum(alpha_dB: float, dbeta: float, cpe_cutoff: float,
                  symbol_rate: float) -> np.ndarray:
    """The FIR_FFT-point rfft of the taps, tap k (|k| <= HALF_TAPS) at index
    k + HALF_TAPS. Computed on first use and cached per filter."""
    # the gain is filled in pieces, so that only the spectrum and the
    # response exist whole
    gain = np.zeros(TAP_GRID // 2 + 1, dtype=complex)
    step = symbol_rate / TAP_GRID
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, gain.size, FIR_FFT):
            freq = np.arange(a, min(a + FIR_FFT, gain.size)) * step
            gain.real[a:a + freq.size] = _filter_gain(freq, alpha_dB, dbeta, cpe_cutoff)
        response = np.fft.irfft(gain, TAP_GRID)
        del gain
        taps = np.zeros(FIR_FFT)
        taps[:HALF_TAPS] = response[-HALF_TAPS:]
        taps[HALF_TAPS:2 * HALF_TAPS + 1] = response[:HALF_TAPS + 1]
        return np.fft.rfft(taps)


def gen_common_phase(n: int, params: ChannelParams) -> np.ndarray:
    """Generate the shared per-symbol phase trace [rad], deterministic per seed.

    iid model: Gaussian(0, sigma_common^2) per symbol, drawn chunk by chunk.
    shaped model: white Gaussian noise, drawn chunk by chunk, circularly
    convolved with the taps of `_tap_spectrum`; then the trace's mean is
    subtracted and the trace is scaled to the sample std sigma_common.

    The chunks are drawn and the filter's output blocks computed on the
    threads. The shaped synthesis holds two n-sample float arrays (the
    white noise and the trace) and takes the mean and the std from each
    output block's sums, added in block order.
    """
    _checks.integer("n", n)
    _checks.at_least("n", n, 1)
    if params.sigma_common == 0:
        return np.zeros(n)
    if params.phase_model == "iid":
        trace = np.empty(n)

        def draw_iid(chunk: tuple[int, slice]) -> None:
            c, b = chunk
            rng = _rng(params.seed, STREAM_PHASE, c)
            trace[b] = rng.normal(0.0, params.sigma_common, b.stop - b.start)

        _blocks.each(draw_iid, _chunks(n))
        return trace
    spectrum = _tap_spectrum(params.alpha_dB, params.dbeta, params.cpe_cutoff,
                             params.symbol_rate)
    white = np.empty(n)
    trace = np.empty(n)
    _blocks.each(lambda chunk: _rng(params.seed, STREAM_PHASE, chunk[0]).standard_normal(
        out=white[chunk[1]]), _chunks(n))
    step = FIR_FFT - 2 * HALF_TAPS
    parts = [slice(a, min(a + step, n)) for a in range(0, n, step)]

    def filter_part(p: slice) -> float:
        # output [a, a + step) from input [a - HALF_TAPS, a + step + HALF_TAPS),
        # taken around the circle. Extreme filter parameters overflow the
        # trace: that is reported below, by name, in place of numpy's
        # warnings (the error state is per thread, so it is set in each task)
        lo = p.start - HALF_TAPS
        if 0 <= lo and lo + FIR_FFT <= n:
            x = white[lo:lo + FIR_FFT]
        else:
            x = white[np.arange(lo, lo + FIR_FFT) % n]
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.fft.rfft(x)
            z *= spectrum
            trace[p] = np.fft.irfft(z, FIR_FFT)[2 * HALF_TAPS:2 * HALF_TAPS + p.stop - p.start]
            return float(trace[p].sum())

    def center(p: slice) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(trace[p], mean, out=trace[p])
            return float((trace[p] * trace[p]).sum())

    # the two reductions add each part's sum in part order
    mean = sum(_blocks.each(filter_part, parts)) / n
    del white
    var = sum(_blocks.each(center, parts)) / n
    if var == 0:
        return np.zeros(n)
    scale = params.sigma_common / math.sqrt(var)
    if not (math.isfinite(var) and math.isfinite(scale)):
        raise ValueError(
            f"the shaped phase model overflows with alpha_dB={params.alpha_dB!r}, "
            f"dbeta={params.dbeta!r}, cpe_cutoff={params.cpe_cutoff!r} and "
            f"symbol_rate={params.symbol_rate!r}")
    _blocks.each(lambda p: np.multiply(trace[p], scale, out=trace[p]), parts)
    return trace


def draw_payload(n: int, params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """The two channels' transmitted quadrant indices (uint8, 0..3) of a
    seed: chunk c of stream STREAM_BITS1 (STREAM_BITS2) draws its indices
    with integers(0, 4, dtype=uint8). A quadrant index stands for its Gray
    label (qpsk.gray_indices), so the payload bits are uniform and
    independent. The chunks are drawn on the threads."""
    _checks.integer("n", n)
    _checks.at_least("n", n, 1)
    k_tx = (np.empty(n, dtype=np.uint8), np.empty(n, dtype=np.uint8))

    def draw(task: tuple[int, int, slice]) -> None:
        i, c, b = task
        rng = _rng(params.seed, (STREAM_BITS1, STREAM_BITS2)[i], c)
        k_tx[i][b] = rng.integers(0, 4, b.stop - b.start, dtype=np.uint8)

    _blocks.each(draw, [(i, c, b) for c, b in _chunks(n) for i in (0, 1)])
    return k_tx


def apply_channel(
    tx1: np.ndarray,
    tx2: np.ndarray,
    params: ChannelParams,
    phase: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run both transmit streams through the shared-phase channel.

    Each stream is given as quadrant indices (a 1-D array of an integer
    dtype, values 0..3, at least one symbol long), which stand for their
    symbols qpsk.SYMBOLS[k]: the channel looks the symbols up chunk by
    chunk, so the complex transmit stream never exists whole.

    Once the phase trace exists, each chunk is one task on the threads: it
    writes both channels' symbols rotated by exp(1j*phi), then adds
    sigma_additive times each channel's noise draws for the chunk, the
    in-phase ones first, then the quadrature ones. Addition commutes
    exactly, so every sample has the bits of rotation plus noise.

    Returns (rx1, rx2). Channel 2 is circularly shifted by
    params.delay_offset, so rx2[n] carries the symbol, phase imprint and
    noise of slot (n + delay_offset) mod N at stream length N. The wrapped
    samples, the last delay_offset (offset > 0) or the first |delay_offset|
    (offset < 0), are the samples of rx2 outside the second slice of
    alignment._overlap(N, delay_offset), which a receiver never reads.

    `phase` overrides the generated per-symbol trace (testing and phase
    inspection hook); it must be finite and match the stream length.
    """
    tx1 = np.asarray(tx1)
    tx2 = np.asarray(tx2)
    _checks.one_d(tx1=tx1, tx2=tx2)
    _checks.same_shape(tx1=tx1, tx2=tx2)
    _checks.quadrants(tx1=tx1, tx2=tx2)
    n = tx1.size
    _checks.at_least("tx1 length", n, 1)
    if phase is not None:
        phi = np.asarray(phase, dtype=float)
        _checks.one_d(phase=phi)
        _checks.same_shape(tx1=tx1, phase=phi)
        _checks.finite(phase=phi)
    else:
        phi = gen_common_phase(n, params)
    shift = params.delay_offset % n
    y1 = np.empty(n, dtype=complex)
    y2 = np.empty(n, dtype=complex)

    channels = ((y1, tx1, STREAM_NOISE1, 0), (y2, tx2, STREAM_NOISE2, shift))

    def fill(chunk: tuple[int, slice]) -> None:
        c, b = chunk
        # symbol j of a channel shifted by s lands in slot (j - s) mod n: one
        # or two runs per chunk, as (symbols within the chunk, slots)
        runs = [[(slice(lo - b.start, hi - b.start), slice(lo + to, hi + to))
                 for lo, hi, to in ((b.start, min(b.stop, s), n - s),
                                    (max(b.start, s), b.stop, -s)) if lo < hi]
                for *_, s in channels]
        # equal to np.exp(1j * phi), without its complex temporaries
        r = np.empty(b.stop - b.start, dtype=complex)
        np.cos(phi[b], out=r.real)
        np.sin(phi[b], out=r.imag)
        for (y, tx, *_), where in zip(channels, runs):
            symbols = tx[b]
            for p, d in where:
                np.multiply(SYMBOLS[symbols[p]], r[p], out=y[d])
        del r
        if params.sigma_additive == 0:
            return
        draw = np.empty(b.stop - b.start)
        for (y, _, stream, _), where in zip(channels, runs):
            rng = _rng(params.seed, stream, c)
            for part in (y.real, y.imag):
                rng.standard_normal(out=draw)
                draw *= params.sigma_additive
                for p, d in where:
                    np.add(part[d], draw[p], out=part[d])

    _blocks.each(fill, _chunks(n))
    return y1, y2


def export_efficiency_csv(
    path, alpha_dB: float, dbeta: float, fmax: float, points: int = 1000
) -> None:
    """Write the efficiency curve sampled on [0, fmax] Hz as freq_hz,efficiency CSV."""
    ChannelParams(alpha_dB=alpha_dB, dbeta=dbeta)  # the channel's rules for both
    _checks.number("fmax", fmax)
    _checks.positive("fmax", fmax)
    _checks.integer("points", points)
    _checks.at_least("points", points, 2)
    freq = np.linspace(0.0, fmax, points)
    eta = conversion_efficiency(2 * np.pi * freq, alpha_dB, dbeta)
    with _files.atomic_write(path) as fh:
        fh.write("freq_hz,efficiency\n")
        for f, e in zip(freq, eta):
            fh.write(f"{float(f)!r},{float(e)!r}\n")
