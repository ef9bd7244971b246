"""Inter-channel delay recovery, stream alignment and kappa tuning.

The joint compensator needs both channels observed at the same symbol index.
The integer clock offset between them shows up as a shift between their
extracted phase traces and is recovered by normalized cross-correlation; the
faster channel is then buffered into alignment: a receiver reads the parts
of the two streams that meet at the lag (_overlap), and nothing wraps. The
estimator's weighting factor kappa is tuned by a golden-section control loop
on measured BER, assumed unimodal in kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _blocks, _checks

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
    trace1[n + lag]); _overlap(n, lag) gives the parts of the two streams
    that meet once trace2 is buffered by lag symbols."""

    lag: int
    peak_correlation: float
    confident: bool


@dataclass
class KappaSearchResult:
    kappa_opt: float
    ber_at_opt: float
    evaluations: int
    improving: bool
    bracket_warning: bool


class _Cuts(NamedTuple):
    """Sum and sum of squares of a centered trace with j samples cut off one
    end, indexed by j."""

    sums: list[float]
    squares: list[float]


def _cuts(t: np.ndarray, mean: float, k: int,
          middle: tuple[float, float]) -> tuple[_Cuts, _Cuts]:
    """_Cuts of the trace t centered on `mean`, c = t - mean, for j = 0..k,
    cut from the head (c[j:]) and from the tail (c[:n-j]). `middle` is the
    sum and the sum of squares of c[k:n-k], which every cut keeps.

    A cut's sums add the end samples it keeps to the middle's, the far end
    first, so no removed sample enters them: subtracting the removed ends
    from whole-trace totals cancels when those ends hold the variance.
    """
    n = t.size
    first, last = t[:k] - mean, t[n - k:] - mean

    def cut(far: np.ndarray, near: np.ndarray) -> _Cuts:
        # near holds the cut end from the middle outward; cut j keeps all
        # but its last j samples
        sums = np.cumsum(np.concatenate(([middle[0] + far.sum()], near)))
        squares = np.cumsum(np.concatenate(([middle[1] + _dot(far, far)], near * near)))
        return _Cuts(sums[::-1].tolist(), squares[::-1].tolist())

    return cut(last, first[::-1]), cut(first, last)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two float vectors. np.einsum's kernel never threads,
    so the sum's rounding does not depend on the BLAS thread count as
    np.dot's does."""
    return float(np.einsum("i,i->", a, b))


def estimate_delay(
    trace1: np.ndarray, trace2: np.ndarray, max_lag: int
) -> AlignmentResult:
    """Lag in [-max_lag, max_lag] maximizing the normalized cross-correlation
    (Pearson coefficient over the overlap) of the two phase traces.

    Lags are tried in order of |lag|, negative before positive, and a lag
    replaces the best one only when its correlation is higher by more than
    TIE_TOL, so ties to within TIE_TOL resolve to the smaller |lag|. An
    overlap in which either trace is constant correlates as 0.

    One pass over the blocks of _blocks, on their threads, neither copies
    nor modifies the traces. Each block of trace2 is centered on its whole
    trace's mean, and so is the block of trace1 with max_lag samples of
    margin on either side (zero past the ends); one einsum over a sliding
    window of the latter gives the block's cross terms at every lag (einsum
    never threads, so unlike BLAS its rounding is fixed). The pass also sums
    the centered samples in [max_lag, n - max_lag) and their squares, to
    which _cuts adds the end samples each overlap keeps. The block partials
    are added in block order, so no result depends on the thread count; the
    block size moves the correlations only by rounding. An overlap whose
    variance about the whole trace's mean falls under half its sum of
    squares (a constant one among them) is degenerate and takes the direct
    rule: 0 if either side's raw samples are all equal, else the Pearson
    coefficient of the raw samples centered on their own means, in copies
    made only then.
    """
    t1 = np.asarray(trace1, dtype=float)
    t2 = np.asarray(trace2, dtype=float)
    _checks.one_d(trace1=t1, trace2=t2)
    _checks.same_shape(trace1=t1, trace2=t2)
    _checks.integer("max_lag", max_lag)
    _checks.at_least("max_lag", max_lag, 0)
    n = t1.size
    if n <= 2 * max_lag:
        raise ValueError(f"traces of length {n} too short for max_lag={max_lag}")
    _checks.finite(trace1=t1, trace2=t2)
    k = max_lag
    mean1, mean2 = t1.mean(), t2.mean()

    def partial(b: slice) -> tuple:
        lo, hi = b.start - k, b.stop + k
        a, e = max(lo, 0), min(hi, n)
        w = np.zeros(hi - lo)
        np.subtract(t1[a:e], mean1, out=w[a - lo:e - lo])
        c1, c2 = w[k:w.size - k], t2[b] - mean2
        # column j of the window's row i is c1 at sample b.start + i + j - k
        cross = np.einsum("ij,i->j", sliding_window_view(w, 2 * k + 1), c2)
        # the block's samples in [k, n - k), which every overlap keeps
        mid = slice(max(k - b.start, 0), max(n - k - b.start, 0))
        c1, c2 = c1[mid], c2[mid]
        return cross, np.array([c1.sum(), _dot(c1, c1), c2.sum(), _dot(c2, c2)])

    parts = _blocks.each(partial, _blocks.blocks(0, n))
    cross = sum(p[0] for p in parts).tolist()
    sum1, sq1, sum2, sq2 = sum(p[1] for p in parts).tolist()
    head1, tail1 = _cuts(t1, mean1, k, (sum1, sq1))
    head2, tail2 = _cuts(t2, mean2, k, (sum2, sq2))

    def correlation(lag: int) -> float:
        j = abs(lag)
        x, y = (head1, tail2) if lag >= 0 else (tail1, head2)
        m = n - j
        var_x = x.squares[j] - x.sums[j] ** 2 / m
        var_y = y.squares[j] - y.sums[j] ** 2 / m
        cov = cross[lag + k] - x.sums[j] * y.sums[j] / m
        if var_x < x.squares[j] / 2 or var_y < y.squares[j] / 2:
            # the sums above cancel: correlate the raw overlap directly
            ox, oy = _overlap(n, lag)
            rx, ry = t1[ox], t2[oy]
            if rx.min() == rx.max() or ry.min() == ry.max():
                return 0.0
            cx, cy = rx - rx.mean(), ry - ry.mean()
            var_x, var_y, cov = _dot(cx, cx), _dot(cy, cy), _dot(cx, cy)
        if var_x > 0 and var_y > 0:
            return cov / math.sqrt(var_x * var_y)
        return 0.0

    best_lag, best_corr = 0, -math.inf
    for lag in sorted(range(-k, k + 1), key=lambda s: (abs(s), s)):
        r = correlation(lag)
        if r > best_corr + TIE_TOL:
            best_lag, best_corr = lag, r
    return AlignmentResult(best_lag, best_corr, best_corr >= CONFIDENCE_THRESHOLD)


def _overlap(n: int, lag: int) -> tuple[slice, slice]:
    """The parts of channel 1 and channel 2, streams of n samples, that meet
    when channel 2 is buffered by lag symbols: channel 1's sample i meets
    channel 2's sample i - lag. For |lag| < n both have n - |lag| samples."""
    return slice(max(lag, 0), n + min(lag, 0)), slice(max(-lag, 0), n - max(lag, 0))


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
    for name, value in (("lo", lo), ("hi", hi), ("tol", tol)):
        _checks.number(name, value)
    if not (hi > lo):
        raise ValueError("need hi > lo")
    _checks.number("hi - lo", float(hi) - float(lo))
    _checks.positive("tol", tol)
    history: list[tuple[float, float]] = []

    def f(kappa: float) -> float:
        value = float(evaluate(kappa))
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite BER {value} at kappa={kappa}")
        history.append((kappa, value))
        return value

    a, b = float(lo), float(hi)
    if b - a < tol:
        f((a + b) / 2)  # the bracket is already narrow: one probe, no search
    else:
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
