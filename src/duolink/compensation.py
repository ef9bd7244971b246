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
        _checks.at_least("kappa", self.kappa, 0)


def estimate_common_phase(phi1, phi2, cfg: EstimatorConfig) -> np.ndarray:
    """Per-symbol weighted joint estimate of the common phase from two
    equal-shape arrays of finite observations; returns an array of their
    shape. With kappa_infinite it is the observation of smaller magnitude,
    channel 1's on a tie."""
    p1 = np.asarray(phi1, dtype=float)
    p2 = np.asarray(phi2, dtype=float)
    _checks.same_shape(phi1=p1, phi2=p2)
    _checks.finite(phi1=p1, phi2=p2)
    a1 = np.abs(p1)
    a2 = np.abs(p2)
    if cfg.kappa_infinite:
        # the observation of smaller magnitude (tie -> channel 1)
        return np.where(a2 < a1, p2, p1)
    # weights normalized so the larger one is exactly 1: the same estimate
    # as exp(-kappa*|phi|), but immune to underflow. The observation of
    # smaller magnitude weighs 1 (w <= 1 is raised to it), the other w, so
    # one exp per symbol serves both weights.
    w = np.exp(-cfg.kappa * np.abs(a1 - a2))
    w1 = np.maximum(w, a1 <= a2)
    w2 = np.maximum(w, a2 <= a1)
    # 0-d operands give a numpy scalar, which asarray makes a 0-d array
    return np.asarray((w1 * p1 + w2 * p2) / (w1 + w2))


def apply_compensation(rx: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Rotate each sample by minus its estimated common phase; the estimates
    must be finite."""
    rx = np.asarray(rx)
    est = np.asarray(estimates, dtype=float)
    _checks.same_shape(rx=rx, estimates=est)
    _checks.finite(estimates=est)
    # the rotation is the product's first operand at every length: the
    # rounding of a complex product depends on the operand order. Nor is it
    # taken in place: numpy rounds an in-place product of one element
    # differently from the same product in a longer array
    return np.exp(-1j * est) * rx


def compensate_traces(
    rx1: np.ndarray,
    rx2: np.ndarray,
    phi1: np.ndarray,
    phi2: np.ndarray,
    cfg: EstimatorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly compensate two streams observed at the same symbol index, given
    each stream's per-symbol phase observations (cpe.extract_phase's traces,
    or, with the receiver's mean removal, the traces less their means,
    wrapped, and the streams rotated by minus those means). Both streams are
    rotated by minus the joint estimate, by the product with
    exp(-1j * estimate); the inputs are not modified.
    """
    rx1 = np.asarray(rx1)
    rx2 = np.asarray(rx2)
    p1 = np.asarray(phi1, dtype=float)
    p2 = np.asarray(phi2, dtype=float)
    _checks.same_shape(rx1=rx1, rx2=rx2, phi1=p1, phi2=p2)
    # the common rotation is the same for both channels: compute it once
    rotation = np.exp(-1j * estimate_common_phase(p1, p2, cfg))
    return rx1 * rotation, rx2 * rotation
