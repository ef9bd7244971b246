"""Inter-channel delay recovery, stream alignment and kappa tuning.

The joint compensator needs both channels observed at the same symbol index.
The integer clock offset between them shows up as a shift between their
extracted phase traces and is recovered by normalized cross-correlation; the
faster channel is then buffered (shifted) into alignment. The estimator's
weighting factor kappa is tuned by a golden-section control loop on measured
BER, assumed unimodal in kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _checks

# Peak correlation at or above this is considered a reliable delay estimate.
CONFIDENCE_THRESHOLD = 0.5

# Correlations closer than this count as tied in the delay search: exactly
# periodic traces give equal correlations at several lags, which rounding in
# the overlap sums would otherwise break at random.
TIE_TOL = 1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class AlignmentResult:
    """lag > 0 means trace2 leads trace1 by `lag` symbols (trace2[n] matches
    trace1[n + lag]); align(rx2, lag) buffers it back into alignment."""

    lag: int
    peak_correlation: float
    confident: bool


@dataclass
class AlignedStream:
    """Shifted stream plus validity mask; overhang symbols are invalid and
    must be excluded from error counting."""

    samples: np.ndarray
    valid: np.ndarray


@dataclass
class KappaSearchResult:
    kappa_opt: float
    ber_at_opt: float
    evaluations: int
    improving: bool = True
    bracket_warning: bool = False


class _Cuts(NamedTuple):
    """Sum and sum of squares of a centered trace with j samples cut off one
    end, and whether the trace varies on what is left; indexed by j."""

    sums: list[float]
    squares: list[float]
    varies: list[bool]


def _cuts(t: np.ndarray, c: np.ndarray, k: int) -> tuple[_Cuts, _Cuts]:
    """_Cuts of c (t centered) for j = 0..k, cut from the head (c[j:]) and
    from the tail (c[:n-j]).

    The full sums are taken once and only the cut ends go through prefix
    sums, so rounding stays that of one pass over c. Whether t varies is
    exact: t is constant on [a, b) iff it changes at no index in [a, b-2].
    """
    n = t.size
    changed = t[1:] != t[:-1]
    if changed.any():
        first, last = int(changed.argmax()), n - 2 - int(changed[::-1].argmax())
    else:
        first, last = n, -1
    total, total_sq = c.sum(), np.dot(c, c)

    def cut(end: np.ndarray, varies: list[bool]) -> _Cuts:
        sums = total - np.concatenate(([0.0], np.cumsum(end)))
        squares = total_sq - np.concatenate(([0.0], np.cumsum(end * end)))
        return _Cuts(sums.tolist(), squares.tolist(), varies)

    head = cut(c[:k], [last >= j for j in range(k + 1)])
    tail = cut(c[n - k:][::-1], [first <= n - 2 - j for j in range(k + 1)])
    return head, tail


def estimate_delay(
    trace1: np.ndarray, trace2: np.ndarray, max_lag: int
) -> AlignmentResult:
    """Lag in [-max_lag, max_lag] maximizing the normalized cross-correlation
    (Pearson coefficient over the overlap) of the two phase traces.

    Lags are tried in order of |lag|, negative before positive, and a lag
    replaces the best one only when its correlation is higher by more than
    TIE_TOL, so ties to within TIE_TOL resolve to the smaller |lag|. An
    overlap in which either trace is constant correlates as 0.

    Both traces are centered once; each overlap's sums come from _cuts and
    its cross term from one dot product over views, so no overlap is copied.
    """
    t1 = np.asarray(trace1, dtype=float)
    t2 = np.asarray(trace2, dtype=float)
    if t1.size != t2.size:
        raise ValueError(f"trace lengths differ: {t1.size} vs {t2.size}")
    _checks.integer("max_lag", max_lag)
    if max_lag < 0:
        raise ValueError("max_lag must be a nonnegative integer")
    n = t1.size
    if n <= 2 * max_lag:
        raise ValueError(f"traces of length {n} too short for max_lag={max_lag}")
    if not (np.isfinite(t1).all() and np.isfinite(t2).all()):
        raise ValueError("traces must be finite")
    c1 = t1 - t1.mean()
    c2 = t2 - t2.mean()
    head1, tail1 = _cuts(t1, c1, max_lag)
    head2, tail2 = _cuts(t2, c2, max_lag)
    best_lag, best_corr = 0, -math.inf
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda s: (abs(s), s)):
        # lag >= 0 overlaps trace1[lag:] with trace2[:n-lag], lag < 0
        # overlaps trace1[:n+lag] with trace2[-lag:]
        j = abs(lag)
        if lag >= 0:
            x, y, cross = head1, tail2, float(np.dot(c1[j:], c2[: n - j]))
        else:
            x, y, cross = tail1, head2, float(np.dot(c1[: n - j], c2[j:]))
        m = n - j
        var_x = x.squares[j] - x.sums[j] ** 2 / m
        var_y = y.squares[j] - y.sums[j] ** 2 / m
        r = 0.0
        if x.varies[j] and y.varies[j] and var_x > 0 and var_y > 0:
            r = (cross - x.sums[j] * y.sums[j] / m) / math.sqrt(var_x * var_y)
        if r > best_corr + TIE_TOL:
            best_lag, best_corr = lag, r
    return AlignmentResult(best_lag, best_corr, best_corr >= CONFIDENCE_THRESHOLD)


def align(samples: np.ndarray, lag: int) -> AlignedStream:
    """Shift a stream by `lag` symbols (circularly), marking the |lag|
    wrapped-in overhang symbols invalid."""
    s = np.asarray(samples)
    _checks.integer("lag", lag)
    if abs(lag) >= s.size:
        raise ValueError(f"|lag|={abs(lag)} must be smaller than length {s.size}")
    out = np.roll(s, lag)
    valid = np.ones(s.size, dtype=bool)
    if lag > 0:
        valid[:lag] = False
    elif lag < 0:
        valid[lag:] = False
    return AlignedStream(out, valid)


def adapt_kappa(
    evaluate: Callable[[float], float], lo: float, hi: float, tol: float
) -> KappaSearchResult:
    """Golden-section search for the kappa minimizing a BER objective.

    Assumes BER(kappa) unimodal on [lo, hi]; returns the final bracket
    midpoint once the bracket is narrower than tol. Never evaluates outside
    [lo, hi]. Equal probe values shrink the lower side (a degenerate constant
    objective therefore slides the bracket toward hi). `bracket_warning` is
    set when the evaluated points, ordered by kappa, do not form a single
    descent-then-ascent pattern (unimodality violated or Monte Carlo noise);
    `improving` is False when the objective never varied over the
    evaluations.
    """
    if not (hi > lo):
        raise ValueError("need hi > lo")
    if not (tol > 0):
        raise ValueError("tol must be > 0")
    history: list[tuple[float, float]] = []

    def f(kappa: float) -> float:
        value = float(evaluate(kappa))
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite BER {value} at kappa={kappa}")
        history.append((kappa, value))
        return value

    a, b = float(lo), float(hi)
    if b - a < tol:
        mid = (a + b) / 2
        return KappaSearchResult(mid, f(mid), 1)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    yc = f(c)
    yd = f(d)
    while b - a >= tol:
        if yc < yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = f(d)
    values = [v for _, v in history]
    by_kappa = sorted(history)
    lowest = min(range(len(by_kappa)), key=lambda i: by_kappa[i][1])
    descent_ok = all(
        by_kappa[i][1] >= by_kappa[i + 1][1] for i in range(lowest)
    )
    ascent_ok = all(
        by_kappa[i][1] <= by_kappa[i + 1][1] for i in range(lowest, len(by_kappa) - 1)
    )
    return KappaSearchResult(
        kappa_opt=(a + b) / 2,
        ber_at_opt=min(values),
        evaluations=len(history),
        improving=max(values) > min(values),
        bracket_warning=not (descent_ok and ascent_ok),
    )
