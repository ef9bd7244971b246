"""Joint estimation and removal of the phase shift shared by two channels.

Each channel provides a per-symbol phase observation phi_j (offset from its
quadrant center). Because the physical rotation is common while the additive
noise is not, a weighted average favoring the observation of smaller
magnitude estimates the common rotation better than either channel alone:

    w_j      = exp(-kappa * |phi_j|)
    phi_est  = (w1*phi1 + w2*phi2) / (w1 + w2)

kappa = 0 gives the plain mean; as kappa grows the estimate approaches the
observation of minimum magnitude, available exactly (and without overflow)
as the `kappa_infinite` mode. The estimate is removed from both channels by
complex rotation, which preserves sample magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks
from .cpe import VVConfig, extract_phase, wrap_quarter


@dataclass
class EstimatorConfig:
    """Weighting factor of the joint compensator.

    kappa             weighting factor >= 0 (0 = arithmetic mean)
    kappa_infinite    use the minimum-magnitude border case, ignoring kappa
    """

    kappa: float = 0.0
    kappa_infinite: bool = False

    def __post_init__(self) -> None:
        _checks.check_fields(self)
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


def estimate_common_phase(phi1, phi2, cfg: EstimatorConfig) -> float | np.ndarray:
    """Weighted joint estimate of the common phase from two observations.

    Accepts scalars (returns a float) or equal-length arrays (per-symbol
    estimation; returns an array).
    """
    scalar = np.ndim(phi1) == 0 and np.ndim(phi2) == 0
    p1 = np.asarray(phi1, dtype=float)
    p2 = np.asarray(phi2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("phase inputs must have identical shape")
    if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
        raise ValueError("phase inputs must be finite")
    a1 = np.abs(p1)
    a2 = np.abs(p2)
    if cfg.kappa_infinite:
        value = np.where(a2 < a1, p2, p1)  # tie -> channel 1
    else:
        # weights normalized so the larger one is exactly 1: the same
        # estimate as exp(-kappa*|phi|), but immune to underflow
        floor = np.minimum(a1, a2)
        w1 = np.exp(-cfg.kappa * (a1 - floor))
        w2 = np.exp(-cfg.kappa * (a2 - floor))
        value = (w1 * p1 + w2 * p2) / (w1 + w2)
    return float(value) if scalar else value


def _derotation(phase: np.ndarray) -> np.ndarray:
    """np.exp(-1j * phase), taken from cos and sin without complex temporaries."""
    phase = np.asarray(phase, dtype=float)
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def apply_compensation(rx: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Rotate each sample by minus its estimated common phase."""
    rx = np.asarray(rx)
    est = np.asarray(estimates, dtype=float)
    if est.size != rx.size:
        raise ValueError(f"estimate length {est.size} != stream length {rx.size}")
    # the rotation is the product's first operand at every length: the
    # rounding of a complex product depends on the operand order
    out = _derotation(est)
    out *= rx
    return out


def compensate_traces(
    rx1: np.ndarray,
    rx2: np.ndarray,
    trace1: np.ndarray,
    trace2: np.ndarray,
    means: tuple[float, float] | None,
    cfg: EstimatorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly compensate two streams observed at the same symbol index, given
    the phase traces extracted from them (see compensate_pair).

    means, the two traces' block-mean phases, selects the per-channel mean
    removal that precedes the joint estimate (None skips it). They are the
    means of the whole traces, also when the streams passed in are a part of
    them, so compensating a trace in parts gives the same samples as
    compensating it whole. The traces are not modified.
    """
    rx1 = np.asarray(rx1)
    rx2 = np.asarray(rx2)
    t1 = np.asarray(trace1, dtype=float)
    t2 = np.asarray(trace2, dtype=float)
    if not rx1.shape == rx2.shape == t1.shape == t2.shape:
        raise ValueError(
            f"stream and trace lengths differ: {rx1.size}, {rx2.size}, {t1.size}, {t2.size}")
    if means is not None:
        mean1, mean2 = means
        rx1 = rx1 * np.exp(-1j * mean1)
        rx2 = rx2 * np.exp(-1j * mean2)
        t1 = wrap_quarter(t1 - mean1)
        t2 = wrap_quarter(t2 - mean2)
    est = estimate_common_phase(t1, t2, cfg)
    # the common rotation is the same for both channels: compute it once
    rotation = _derotation(est)
    return rx1 * rotation, rx2 * rotation


def compensate_pair(
    rx1: np.ndarray,
    rx2: np.ndarray,
    vv: VVConfig,
    cfg: EstimatorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly compensate two received streams observed at the same symbol index.

    With vv.remove_mean, each channel's block-mean phase is removed first
    (samples rotated, traces re-centered); then the per-symbol joint estimate
    of the (residual) traces is removed from both channels.
    """
    rx1 = np.asarray(rx1)
    rx2 = np.asarray(rx2)
    if rx1.shape != rx2.shape:
        raise ValueError(f"stream lengths differ: {rx1.size} vs {rx2.size}")
    t1 = extract_phase(rx1, vv)
    t2 = extract_phase(rx2, vv)
    means = (t1.mean(), t2.mean()) if vv.remove_mean else None
    return compensate_traces(rx1, rx2, t1, t2, means, cfg)
