"""Fourth-power (Viterbi&Viterbi) carrier phase extraction.

Raising a QPSK sample to the 4th power strips the data modulation and leaves
four times the phase offset from the nearest quadrant center. With symbols at
the quadrant centers, (e^{i pi/4})^4 = e^{i pi}, so a constant pi is removed
before dividing the angle by 4; a noiseless unrotated stream therefore
extracts to all zeros. Extracted phases live in the half-open interval
(-pi/4, pi/4], boundary mapping to +pi/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blocks, _checks

QUARTER_PI = np.pi / 4
HALF_PI = np.pi / 2


@dataclass
class VVConfig:
    """Window length (odd) of the complex moving average, and whether pair
    compensation removes each channel's block-mean phase first."""

    window: int = 33
    remove_mean: bool = True

    def __post_init__(self) -> None:
        _checks.check_fields(self)
        if self.window < 1:
            raise ValueError("window must be a positive integer")
        if self.window % 2 == 0:
            raise ValueError("window must be odd")


def wrap_quarter(values: np.ndarray) -> np.ndarray:
    """Wrap phases into (-pi/4, pi/4], boundary to +pi/4."""
    x = np.asarray(values, dtype=float)
    out = QUARTER_PI - np.mod(QUARTER_PI - x, HALF_PI)
    # float rounding in np.mod can land exactly on the excluded endpoint
    out = np.where(out <= -QUARTER_PI, out + HALF_PI, out)
    return out


def extract_phase(samples: np.ndarray, cfg: VVConfig) -> np.ndarray:
    """Per-symbol phase offset from the quadrant centers, in (-pi/4, pi/4].

    The 4th-power values are averaged as complex numbers over a centered
    window (shrunken at the edges) before the angle is taken, which avoids
    wrap artifacts that averaging angles directly would produce.
    """
    s = np.asarray(samples, dtype=complex)
    if s.size == 0:
        raise ValueError("sample stream is empty")
    n = s.size
    half = cfg.window // 2
    ones = np.ones(cfg.window)
    phase = np.empty(n)
    for b in _blocks.blocks(0, n):
        # the windows of a block reach `half` samples past its ends; a
        # segment shorter than the window is widened to it (or to the whole
        # stream), because np.convolve swaps its arguments when the kernel
        # is the longer one, which changes its summation order
        lo, hi = max(b.start - half, 0), min(b.stop + half, n)
        if hi - lo < cfg.window:
            hi = min(lo + cfg.window, n)
            lo = max(hi - cfg.window, 0)
        quartic = s[lo:hi] ** 4
        if cfg.window > 1:
            # centered slice of the full convolution: works also for streams
            # shorter than the window (np.convolve 'same' would return the
            # window length there)
            full = np.convolve(quartic, ones, mode="full")
            avg = full[b.start - lo + half : b.stop - lo + half]
        else:
            avg = quartic
        # -avg == avg * e^{-i pi}: removes the constellation's pi offset
        phase[b] = np.angle(-avg) / 4
        # angle(-(0+0j)) is -pi from the signed zeros; the phase there is
        # undefined and reported as 0
        phase[b][avg == 0] = 0.0
    return phase


def remove_mean_phase(trace: np.ndarray) -> np.ndarray:
    """Subtract the arithmetic mean and re-wrap into (-pi/4, pi/4].

    Block-wise stand-in for the slow-phase removal a running carrier phase
    estimator performs; only the fast fluctuation around the mean survives.
    """
    t = np.asarray(trace, dtype=float)
    if t.size == 0:
        return t.copy()
    return wrap_quarter(t - t.mean())
