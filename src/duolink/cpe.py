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
    """Window length (odd) of the complex moving average, and whether the
    receiver removes each channel's mean phase (over its whole trace) from
    its samples and observations before the joint estimate."""

    window: int = 33
    remove_mean: bool = True

    def __post_init__(self) -> None:
        _checks.check_fields(self)
        _checks.at_least("window", self.window, 1)
        if self.window % 2 == 0:
            raise ValueError("window must be odd")


def wrap_quarter(values: np.ndarray) -> np.ndarray:
    """Wrap phases into (-pi/4, pi/4], boundary to +pi/4: the bits of
    pi/4 - np.mod(pi/4 - x, pi/2), with the excluded endpoint moved to +pi/4.
    NaN and infinities give NaN."""
    x = np.asarray(values, dtype=float)
    a = np.subtract(QUARTER_PI, x, out=np.empty(x.shape))
    np.mod(a, HALF_PI, out=a)
    out = np.subtract(QUARTER_PI, a, out=a)
    # float rounding can land exactly on the excluded endpoint
    out += HALF_PI * (out <= -QUARTER_PI)
    return out


def _window_sums(quartic: np.ndarray, window: int, m: int) -> np.ndarray:
    """The m sums of `window` consecutive values of quartic (of length
    m + window - 1), each taken by the same fixed tree: spans of 1, 2, 4, ...
    values, each the out-of-place pairwise sum of two of the last, then the
    spans that window's binary digits name, added largest first at their
    offsets (33 = span 32 + span 1 at offset 32). Only those spans are kept."""
    spans, span, width = [], quartic, 1
    while True:
        if window & width:
            spans.append((width, span))
        if 2 * width > window:
            break
        span = span[:-width] + span[width:]
        width *= 2
    width, total = spans.pop()
    total = total[:m]
    while spans:
        w, span = spans.pop()
        total = total + span[width : width + m]
        width += w
    return total


def extract_phase(samples: np.ndarray, cfg: VVConfig) -> np.ndarray:
    """Per-symbol phase offset from the quadrant centers, in (-pi/4, pi/4].

    The 4th-power values are summed as complex numbers over a centered
    window (shrunken at the edges) before the angle is taken, which avoids
    wrap artifacts that averaging angles directly would produce. Every
    window is summed by the same fixed tree of pairwise sums over the
    fourth powers zero-padded past the stream's ends (adding +0 changes no
    sum's value), so a trace's bytes depend neither on the block size nor on
    the thread count, and no sum goes through BLAS. At window 1 the sum is
    the fourth power itself. A non-finite sample raises ValueError, and so do
    samples whose fourth powers overflow a window's sum (the message names
    the samples whose windows overflow).
    """
    s = np.asarray(samples, dtype=complex)
    _checks.one_d(samples=s)
    if s.size == 0:
        raise ValueError("sample stream is empty")
    n = s.size
    half = cfg.window // 2
    phase = np.empty(n)

    def extract(b: slice) -> None:
        # the windows of a block reach `half` samples past its ends
        lo, hi = max(b.start - half, 0), min(b.stop + half, n)
        m = b.stop - b.start
        # a non-finite sample or an overflow makes a window sum non-finite:
        # the sums are checked, not the samples, and raise below
        with np.errstate(over="ignore", invalid="ignore"):
            # two squarings (numpy's general complex power is several times
            # slower), each out of place, as numpy rounds a one-element
            # in-place product differently from the same product in a longer
            # array; one name is rebound, so the first square is freed once
            # the second exists
            quartic = s[lo:hi] * s[lo:hi]
            quartic = quartic * quartic
            if hi - lo < m + 2 * half:  # zeros past the stream's ends
                padded = np.zeros(m + 2 * half, dtype=complex)
                ahead = lo - (b.start - half)
                padded[ahead : ahead + hi - lo] = quartic
                quartic = padded
            avg = _window_sums(quartic, cfg.window, m)
        if not np.isfinite(avg).all():
            if not np.isfinite(s[lo:hi]).all():
                raise ValueError("samples must be finite")
            bad = (b.start + np.flatnonzero(~np.isfinite(avg))).tolist()
            shown = ", ".join(map(str, bad[:5])) + (", ..." if len(bad) > 5 else "")
            raise ValueError("sample magnitudes too large: the window sums of the fourth "
                             f"powers overflow at samples {shown}")
        # -avg == avg * e^{-i pi}: removes the constellation's pi offset.
        # np.angle(-avg) / 4, written straight into the output block
        p = phase[b]
        np.arctan2(-avg.imag, -avg.real, out=p)
        p /= 4
        # a positive real avg negates to an imaginary part of -0, whose
        # angle is -pi: the boundary maps to +pi/4
        p[p == -QUARTER_PI] = QUARTER_PI
        # angle(-(0+0j)) is -pi from the signed zeros; the phase there is
        # undefined and reported as 0
        p[avg == 0] = 0.0

    _blocks.each(extract, _blocks.blocks(0, n))
    return phase
