"""QPSK bit mapping, quadrant decisions and bit-error counting.

Symbols sit at the quadrant centers exp(i(pi/4 + k*pi/2)), k = 0..3 counted
counterclockwise from quadrant I, so each complex-plane quadrant is one
decision region.  Gray convention: k=0 -> 00, k=1 -> 01, k=2 -> 11, k=3 -> 10
(adjacent quadrants differ in exactly one bit).
"""

from __future__ import annotations

import numpy as np

from . import _checks

# Quadrant centers, index = Gray symbol index k: a bit stream's symbols are
# SYMBOLS[gray_indices(bits)].
SYMBOLS = np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2))

# Number of bits in which the Gray labels of quadrants k_tx (row) and k_rx
# (column) differ: one between adjacent quadrants, two between opposite ones.
GRAY_DISTANCE = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])


def gray_indices(bits: np.ndarray) -> np.ndarray:
    """Gray symbol index of each bit pair of a {0,1} bit stream (even length).

    Bit pairs are consumed in order (b0, b1) per symbol; the index is
    k = 2*b0 + (b0 xor b1), returned as uint8.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % 2 != 0:
        raise ValueError(f"bit stream length must be even, got {bits.size}")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bit stream may only contain 0 and 1")
    b0 = bits[0::2].astype(np.uint8)
    b1 = bits[1::2].astype(np.uint8)
    return 2 * b0 + (b0 ^ b1)


def quadrant_indices(samples: np.ndarray) -> np.ndarray:
    """Quadrant index (Gray symbol index k) of each complex sample, as uint8.

    Ties on the axes go to the adjacent quadrant with the smaller k; the
    origin maps to k=0 (signed zeros count as zero). A NaN component fails
    every comparison, so an all-NaN sample also maps to k=0. Decides the
    whole input in one vectorized pass; a 0-d input gives a numpy scalar.
    """
    z = np.asarray(samples)
    return _quadrants(z.real, z.imag)


def _quadrants(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """quadrant_indices of the samples re + 1j*im, from their components."""
    lower = im < 0
    # im >= 0: k = 1 left of the imaginary axis, else 0;
    # im < 0: k = 3 right of the imaginary axis, else 2. The turn to 1 or 3
    # is taken in bool arithmetic (left and not lower, or right and lower):
    # a select on the random pattern of `lower` costs more
    turned = np.greater(re < 0, lower)
    turned |= (re > 0) & lower
    k = np.multiply(lower, np.uint8(2))
    k += turned
    return k


def count_quadrant_errors(k_tx: np.ndarray, k_rx: np.ndarray) -> int:
    """Bit errors between transmitted and decided quadrant indices (arrays
    of an integer dtype and of one shape, any number of dimensions).

    Counts the bits in which the Gray labels differ, from the histogram of
    (k_tx, k_rx) pairs weighted by GRAY_DISTANCE.
    """
    k_tx = np.asarray(k_tx)
    k_rx = np.asarray(k_rx)
    _checks.same_shape(k_tx=k_tx, k_rx=k_rx)
    _checks.quadrants(k_tx=k_tx, k_rx=k_rx)
    pairs = np.bincount((4 * k_tx.astype(np.intp) + k_rx).ravel(), minlength=16)
    return int(pairs @ GRAY_DISTANCE.ravel())
