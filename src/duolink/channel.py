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

import numpy as np

from . import _blocks, _checks, _files

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
        if self.sigma_common < 0:
            raise ValueError("sigma_common must be >= 0")
        if self.sigma_additive < 0:
            raise ValueError("sigma_additive must be >= 0")
        if self.alpha_dB < 0:
            raise ValueError("alpha_dB must be >= 0")
        if self.phase_model not in PHASE_MODELS:
            raise ValueError(f"phase_model must be one of {PHASE_MODELS}")
        if self.phase_model == "shaped" and not self.cpe_cutoff > 0:
            raise ValueError("cpe_cutoff must be > 0 for the shaped model")
        if self.symbol_rate <= 0:
            raise ValueError("symbol_rate must be > 0")
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


def shaped_filter_gain(n: int, params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """(frequency grid, filter magnitude) used by the shaped phase model.

    One gain per rfft bin of an n-sample trace at params.symbol_rate.
    """
    freq = np.fft.rfftfreq(n, d=1.0 / params.symbol_rate)
    gain = conversion_efficiency(2 * np.pi * freq, params.alpha_dB, params.dbeta)
    gain = gain * _highpass_gain(freq, params.cpe_cutoff)
    return freq, gain


def gen_common_phase(n: int, params: ChannelParams) -> np.ndarray:
    """Generate the shared per-symbol phase trace [rad], deterministic per seed.

    iid model: independent Gaussian(0, sigma_common^2) per symbol.
    shaped model: white Gaussian noise filtered by `shaped_filter_gain`, then
    rescaled so the sample std equals sigma_common exactly.
    """
    if n < 1:
        raise ValueError("need at least one symbol")
    if params.sigma_common == 0:
        return np.zeros(n)
    rng = stream_rng(params.seed, STREAM_PHASE)
    if params.phase_model == "iid":
        return rng.normal(0.0, params.sigma_common, n)
    white = rng.standard_normal(n)
    _, gain = shaped_filter_gain(n, params)
    trace = np.fft.irfft(np.fft.rfft(white) * gain, n)
    std = trace.std()
    if std == 0:
        return np.zeros(n)
    return trace * (params.sigma_common / std)


def apply_channel(
    tx1: np.ndarray,
    tx2: np.ndarray,
    params: ChannelParams,
    phase: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run both transmit streams through the shared-phase channel.

    Returns (rx1, rx2). Channel 2 is circularly shifted by
    params.delay_offset, so rx2[n] carries the symbol, phase imprint and
    noise of slot n + delay_offset; the first |delay_offset| symbols are
    wrapped and should be excluded from error counting downstream.

    `phase` overrides the generated per-symbol trace (testing and phase
    inspection hook); it must match the stream length.
    """
    tx1 = np.asarray(tx1)
    tx2 = np.asarray(tx2)
    if tx1.shape != tx2.shape:
        raise ValueError(f"stream lengths differ: {tx1.size} vs {tx2.size}")
    n = tx1.size
    if phase is None:
        phi = gen_common_phase(n, params)
    else:
        phi = np.asarray(phase, dtype=float)
        if phi.size != n:
            raise ValueError(f"phase trace length {phi.size} != stream length {n}")
    # channel 2 is written straight into its shifted layout: symbol j lands
    # in slot (j - shift) mod n, a contiguous run for each block of
    # [0, shift) and of [shift, n)
    shift = params.delay_offset % n if n else 0
    src, dst = [], []
    for lo, hi, to in ((0, shift, n - shift), (shift, n, -shift)):
        for b in _blocks.blocks(lo, hi):
            src.append(b)
            dst.append(slice(b.start + to, b.stop + to))
    y1 = np.empty(n, dtype=complex)
    y2 = np.empty(n, dtype=complex)
    rot = np.empty(min(n, _blocks.BLOCK), dtype=complex)
    for b, d in zip(src, dst):
        r = rot[: b.stop - b.start]
        # equal to np.exp(1j * phi), without its complex temporaries
        np.cos(phi[b], out=r.real)
        np.sin(phi[b], out=r.imag)
        np.multiply(tx1[b], r, out=y1[b])
        np.multiply(tx2[b], r, out=y2[d])
    if params.sigma_additive > 0:
        s = params.sigma_additive
        # each generator's in-phase draws, then its quadrature draws, taken
        # in symbol order as one whole-length draw would take them
        for y, stream, where in ((y1, STREAM_NOISE1, src), (y2, STREAM_NOISE2, dst)):
            g = stream_rng(params.seed, stream)
            for part in (y.real, y.imag):
                for w in where:
                    part[w] += s * g.standard_normal(w.stop - w.start)
    return y1, y2


def export_efficiency_csv(
    path, alpha_dB: float, dbeta: float, fmax: float, points: int = 1000
) -> None:
    """Write the efficiency curve sampled on [0, fmax] Hz as freq_hz,efficiency CSV."""
    for name, value in (("alpha_dB", alpha_dB), ("dbeta", dbeta), ("fmax", fmax)):
        _checks.number(name, value)
    if alpha_dB < 0:
        raise ValueError("alpha_dB must be >= 0")
    if points < 2:
        raise ValueError("need at least 2 sample points")
    if fmax <= 0:
        raise ValueError("fmax must be > 0")
    freq = np.linspace(0.0, fmax, points)
    eta = conversion_efficiency(2 * np.pi * freq, alpha_dB, dbeta)
    with _files.atomic_write(path) as fh:
        fh.write("freq_hz,efficiency\n")
        for f, e in zip(freq, eta):
            fh.write(f"{float(f)!r},{float(e)!r}\n")
