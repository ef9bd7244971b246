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
receiver's carrier phase estimation already performs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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

MAX_SEED = 2**64

# Bound on sigma_common and sigma_additive. Below it neither a noise draw
# nor the receiver's fourth power of a sample overflows: a normal draw
# beyond 40 has probability below 1e-340, and (40 * 1e70)**4 is about
# 3e286, far from the float limit even summed over a window. A larger sigma
# is rejected at load instead of becoming a non-finite trace in the receiver.
MAX_SIGMA = 1e70


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Deterministic generator for substream `stream` of a 64-bit seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    )


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


def _filter_gain(freq: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Magnitude of the shaped model's filter at frequencies `freq` [Hz]."""
    gain = conversion_efficiency(2 * np.pi * freq, params.alpha_dB, params.dbeta)
    return gain * _highpass_gain(freq, params.cpe_cutoff)


def shaped_filter_gain(n: int, params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """(frequency grid, filter magnitude) used by the shaped phase model.

    One gain per rfft bin of an n-sample trace at params.symbol_rate.
    """
    _checks.integer("n", n)
    _checks.at_least("n", n, 1)
    freq = np.fft.rfftfreq(n, d=1.0 / params.symbol_rate)
    return freq, _filter_gain(freq, params)


def gen_common_phase(n: int, params: ChannelParams) -> np.ndarray:
    """Generate the shared per-symbol phase trace [rad], deterministic per seed.

    iid model: independent Gaussian(0, sigma_common^2) per symbol.
    shaped model: white Gaussian noise filtered by `shaped_filter_gain`, then
    rescaled so the sample std equals sigma_common exactly. Its bits are those
    of irfft(rfft(white) * gain, n) * (sigma_common / std), but it holds at
    most two n-sample float arrays at a time: the white noise is freed once
    its spectrum exists, the gain is applied to blocks of bins on the
    threads, the spectrum is freed once the trace exists, and the trace is
    scaled in place.
    """
    _checks.integer("n", n)
    _checks.at_least("n", n, 1)
    if params.sigma_common == 0:
        return np.zeros(n)
    rng = stream_rng(params.seed, STREAM_PHASE)
    if params.phase_model == "iid":
        return rng.normal(0.0, params.sigma_common, n)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freq = np.fft.rfftfreq(n, d=1.0 / params.symbol_rate)

    def filter_bins(b: slice) -> None:
        # extreme filter parameters overflow the trace or its scale factor:
        # that is reported below, by name, in place of numpy's warnings (the
        # error state is per thread, so it is set in each task). Out of
        # place, as numpy may round a one-element in-place product otherwise
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum[b] = spectrum[b] * _filter_gain(freq[b], params)

    _blocks.each(filter_bins, _blocks.blocks(0, spectrum.size))
    del freq
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.fft.irfft(spectrum, n)
        del spectrum
        std = trace.std()
        if std == 0:
            return np.zeros(n)
        scale = params.sigma_common / std
    if not (math.isfinite(std) and math.isfinite(scale)):
        raise ValueError(
            f"the shaped phase model overflows with alpha_dB={params.alpha_dB!r}, "
            f"dbeta={params.dbeta!r}, cpe_cutoff={params.cpe_cutoff!r} and "
            f"symbol_rate={params.symbol_rate!r}")
    trace *= scale
    return trace


def apply_channel(
    tx1: np.ndarray,
    tx2: np.ndarray,
    params: ChannelParams,
    phase: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run both transmit streams through the shared-phase channel.

    Each stream is given as quadrant indices (a 1-D array of an integer
    dtype, values 0..3, at least one symbol long), which stand for their
    symbols qpsk.SYMBOLS[k]: the channel looks the symbols up block by
    block, so the complex transmit stream never exists whole.

    The phase trace is synthesized on one thread while the two noise
    generators, one task each, write sigma_additive times their draws into
    their streams; the rotated symbols are then added onto the noise block
    by block (without noise they are written straight in). Addition
    commutes exactly, so every sample has the bits of rotation plus noise.

    Returns (rx1, rx2). Channel 2 is circularly shifted by
    params.delay_offset, so rx2[n] carries the symbol, phase imprint and
    noise of slot n + delay_offset; the first |delay_offset| symbols are
    wrapped and should be excluded from error counting downstream.

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
    # channel 2 is written straight into its shifted layout: symbol j lands
    # in slot (j - shift) mod n, a contiguous run for each block of
    # [0, shift) and of [shift, n)
    shift = params.delay_offset % n
    src, dst = [], []
    for lo, hi, to in ((0, shift, n - shift), (shift, n, -shift)):
        for b in _blocks.blocks(lo, hi):
            src.append(b)
            dst.append(slice(b.start + to, b.stop + to))
    y1 = np.empty(n, dtype=complex)
    y2 = np.empty(n, dtype=complex)
    noisy = params.sigma_additive > 0

    def add_noise(y: np.ndarray, stream: int, where: list[slice]) -> None:
        # the generator's in-phase draws, then its quadrature draws,
        # taken in symbol order as one whole-length draw would take them
        g = stream_rng(params.seed, stream)
        buf = np.empty(min(n, _blocks.BLOCK))
        for part in (y.real, y.imag):
            for w in where:
                draw = buf[: w.stop - w.start]
                g.standard_normal(out=draw)
                np.multiply(draw, params.sigma_additive, out=part[w])

    # the longest task first, so that the noise runs beside it
    tasks = [] if phase is not None else [partial(gen_common_phase, n, params)]
    if noisy:
        tasks += [partial(add_noise, y1, STREAM_NOISE1, src),
                  partial(add_noise, y2, STREAM_NOISE2, dst)]
    done = _blocks.each(lambda task: task(), tasks)
    if phase is None:
        phi = done[0]

    def rotate(b: slice, d: slice) -> None:
        # equal to np.exp(1j * phi), without its complex temporaries
        r = np.empty(b.stop - b.start, dtype=complex)
        np.cos(phi[b], out=r.real)
        np.sin(phi[b], out=r.imag)
        if noisy:
            np.add(y1[b], SYMBOLS[tx1[b]] * r, out=y1[b])
            np.add(y2[d], SYMBOLS[tx2[b]] * r, out=y2[d])
        else:
            np.multiply(SYMBOLS[tx1[b]], r, out=y1[b])
            np.multiply(SYMBOLS[tx2[b]], r, out=y2[d])

    _blocks.each(lambda bd: rotate(*bd), zip(src, dst))
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
