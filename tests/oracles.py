"""Independent reference implementations used as test oracles.

Everything here is deliberately written without touching the package
internals so that an implementation bug cannot hide in its own oracle.
"""

import math

import numpy as np

from duolink import Case

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
    """Pearson coefficient of two equal-length samples, 0 if either is constant."""
    if x.max() == x.min() or y.max() == y.min():
        return 0.0
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    if denom == 0:
        return 0.0
    return float(np.dot(dx, dy)) / denom


def delay_reference(t1, t2, max_lag: int, tie_tol: float = 0.0) -> tuple[int, float]:
    """(lag, peak correlation) by correlating every overlap directly; lags in
    order of |lag|, negative first, and a later lag wins only by more than
    tie_tol."""
    n = t1.size
    best_lag, best = 0, -math.inf
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda s: (abs(s), s)):
        if lag >= 0:
            r = pearson_reference(t1[lag:], t2[: n - lag])
        else:
            r = pearson_reference(t1[: n + lag], t2[-lag:])
        if r > best + tie_tol:
            best_lag, best = lag, r
    return best_lag, best
