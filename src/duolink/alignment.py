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

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import _blocks, _checks

# Peak correlation at or above this is considered a reliable delay estimate.
CONFIDENCE_THRESHOLD = 0.5

# Correlations closer than this count as tied in the delay search: exactly
# periodic traces give equal correlations at several lags, which rounding in
# the overlap sums would otherwise break at random.
TIE_TOL = 1e-12

# A run of adjacent shifts at least this wide takes the delay search's middle
# cross terms by FFT correlation, in sub-blocks of _FFT_BLOCK samples;
# narrower runs take them by einsum, at one multiply-add per shift per
# sample. Measured per 2**15 block on one CPU (2-vCPU host, numpy 2.4.6;
# the table is in CHANGES.md), the two cost
# the same near 64 shifts: einsum 0.86 ms against FFT 0.89 ms at 65, 0.47
# against 0.92 at 33 (max_lag 16), 3.3 against 0.93 at 257 (max_lag 128).
FFT_WIDTH = 64
_FFT_BLOCK = 1 << 13

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
    sum and the sum of squares of c[k:n-k], which every cut keeps. Only the
    k samples at either end of t are read, so those 2k samples alone may
    stand for t.

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


def _circular(t: np.ndarray, start: int, size: int, mean: float = 0.0) -> np.ndarray:
    """A new array of `size` samples of t read circularly from `start`, less
    `mean`: element i is t[(start + i) mod n] - mean."""
    n = t.size
    out = np.empty(size)
    at, i = 0, start % n
    while at < size:
        m = min(size - at, n - i)
        np.subtract(t[i:i + m], mean, out=out[at:at + m])
        at, i = at + m, 0
    return out


def estimate_delay(
    trace1: np.ndarray, trace2: np.ndarray, max_lag: int
) -> AlignmentResult:
    """Lag in [-max_lag, max_lag] maximizing the normalized cross-correlation
    (Pearson coefficient over the overlap) of the two phase traces.

    Lags are tried in order of |lag|, negative before positive, and a lag
    replaces the best one only when its correlation is higher by more than
    TIE_TOL, so ties to within TIE_TOL resolve to the smaller |lag|. An
    overlap in which either trace is constant correlates as 0. Neither trace
    is copied or modified.

    The one-roll case of _estimate_delays, which says how the sums are
    taken: no result depends on the thread count, and the block size moves
    the correlations only by rounding.
    """
    return _estimate_delays(trace1, trace2, [0], max_lag)[0]


def _estimate_delays(trace1: np.ndarray, trace2: np.ndarray, rolls,
                     max_lag: int) -> list[AlignmentResult]:
    """estimate_delay(trace1, np.roll(trace2, d), max_lag) for each integer
    roll d of `rolls`, up to the rounding of the correlations, from one
    search over trace2 as given: the traces of a sweep's offsets, which are
    circular shifts of one trace (see apply_channel).

    Channel 2's sample i of roll d is trace2's (i - d) mod n, so roll d's
    cross term at lag, over the samples p of the overlap, is
    sum c1[p] * c2[(p - s) mod n] at the shift s = lag + d, with c1 and c2
    the traces centered on their whole means (one mean per trace, whatever
    the roll). Every overlap keeps the middle samples p in [max_lag,
    n - max_lag), so one pass over the blocks of _blocks, on their threads,
    takes the middle's cross terms at every shift the rolls need, per run of
    adjacent shifts against c2 read circularly (_correlate: an einsum over a
    sliding window for a run narrower than FFT_WIDTH, else an FFT
    correlation per sub-block; neither threads nor calls BLAS, so the
    rounding is fixed); rolls far apart take runs of their own, so no shift
    is taken that no roll needs. The two ways round differently, by about
    1e-16 of sqrt(sum c1**2 * sum c2**2), which moves a correlation only by
    rounding. The same pass sums trace1's middle samples and their squares,
    and each roll's middle samples, read from trace2 on their own. _cuts then
    adds the end samples each overlap keeps, and a cross term adds its end
    products as they do: the far end's, then the near end's from the middle
    outward, so that no product of a cut sample enters it. The block
    partials are added in block order, so no result depends on the thread
    count. An overlap whose variance about the whole trace's mean falls under
    half its sum of squares (a constant one among them) is degenerate and
    takes the direct rule: 0 if either side's raw samples are all equal,
    else the Pearson coefficient of the raw samples centered on their own
    rounded means, in copies made only then, its sums corrected for that
    rounding (sum(d*d) - sum(d)**2/m, and so for the cross term), so that
    samples a few ulps apart correlate as exact arithmetic has them.
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
    # a roll acts modulo n; taken in [-n/2, n/2), near rolls stay near
    rolled = [(int(d) + n // 2) % n - n // 2 for d in rolls]
    # runs [lo, hi] of adjacent shifts, and the rolls each one serves
    runs: list[tuple[int, int, list[int]]] = []
    for d in sorted(set(rolled)):
        if runs and d - k <= runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], d + k, runs[-1][2] + [d])
        else:
            runs.append((d - k, d + k, [d]))

    def partial(b: slice) -> tuple:
        c1 = t1[b] - mean1
        m = c1.size
        cross, sums2 = [], []
        for lo, hi, ds in runs:
            for d in ds:
                c2 = _circular(t2, b.start - d, m, mean2)  # roll d's middle
                sums2.append([c2.sum(), _dot(c2, c2)])
                del c2
            # column j pairs c1 at p = b.start + i with c2 at p - (hi - j),
            # the shift hi - j: reversed, the run's shifts lo..hi
            cross.append(_correlate(c1, t2, b.start - hi, hi - lo + 1, mean2)[::-1])
        return np.array([c1.sum(), _dot(c1, c1)]), cross, np.array(sums2)

    parts = _blocks.each(partial, _blocks.blocks(k, n - k))
    sum1, sq1 = sum(p[0] for p in parts).tolist()
    cuts1 = _cuts(t1, mean1, k, (sum1, sq1))
    ends1 = (t1[:k] - mean1, t1[n - k:] - mean1)
    # the rolls' middle sums, in the order of the runs' rolls
    middles = iter(sum(p[2] for p in parts).tolist())
    found: dict[int, AlignmentResult] = {}
    for r, (lo, _, ds) in enumerate(runs):
        run = sum(p[1][r] for p in parts)
        for d in ds:
            found[d] = _search_roll(t1, t2, d, k, cuts1, ends1, mean2,
                                    run[d - k - lo:d + k + 1 - lo], next(middles))
    return [found[d] for d in rolled]


def _correlate(c1: np.ndarray, t2: np.ndarray, start: int, width: int,
               mean2: float) -> np.ndarray:
    """The `width` sums sum_i c1[i] * c2[start + i + j], j = 0..width-1, c2
    being t2 less mean2 read circularly (see _circular).

    A run narrower than FFT_WIDTH takes one einsum over a sliding window of
    c2 (one multiply-add per shift per sample). A wider run takes them by FFT
    correlation, irfft(conj(rfft(c1)) * rfft(c2)), over sub-blocks of
    _FFT_BLOCK samples of c1, zero-padded to a 5-smooth length (an awkward
    length costs several times as much), each reading its own window of c2;
    the sub-blocks' sums are added in order. Neither calls BLAS, and neither
    threads: each block's sums are the same on any thread.
    """
    m = c1.size
    if width < FFT_WIDTH:
        w = _circular(t2, start, m + width - 1, mean2)
        return np.einsum("ij,i->j", sliding_window_view(w, width), c1)
    out = np.zeros(width)
    for a in range(0, m, _FFT_BLOCK):
        sub = c1[a:a + _FFT_BLOCK]
        size = _smooth(sub.size + width - 1)
        spectrum = np.fft.rfft(sub, size)
        np.conjugate(spectrum, out=spectrum)
        spectrum *= np.fft.rfft(_circular(t2, start + a, sub.size + width - 1, mean2), size)
        out += np.fft.irfft(spectrum, size)[:width]
        del spectrum  # before the next sub-block's transforms
    return out


@functools.lru_cache(maxsize=64)
def _smooth(n: int) -> int:
    """The least 5-smooth integer (2**a * 3**b * 5**c) not below n: a
    block's sub-blocks of one run share it."""
    best, odd = 1 << (n - 1).bit_length(), 1
    while odd < best:  # odd runs over 3**b * 5**c, each times the least 2**a
        three = odd
        while three < best:
            best = min(best, three << ((n - 1) // three).bit_length())
            three *= 3
        odd *= 5
    return best


def _search_roll(t1: np.ndarray, t2: np.ndarray, d: int, k: int,
                 cuts1: tuple[_Cuts, _Cuts], ends1: tuple[np.ndarray, np.ndarray],
                 mean2: float, middle: np.ndarray, sums2: list[float]) -> AlignmentResult:
    """The delay search of roll d (see _estimate_delays): trace1's cuts and
    centered ends, trace2's mean, the middle's cross terms at lags -k..k and
    the sum and sum of squares of the rolled trace's middle samples."""
    n = t1.size
    # the rolled trace's k samples at either end, from trace2's samples
    ends2 = np.concatenate((_circular(t2, -d, k), _circular(t2, n - k - d, k)))
    head2, tail2 = _cuts(ends2, mean2, k, tuple(sums2))
    head1, tail1 = cuts1
    cross = _end_products(t2, d, k, ends1, mean2, middle)

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
            rx, ry = t1[ox], _circular(t2, oy.start - d, oy.stop - oy.start)
            if rx.min() == rx.max() or ry.min() == ry.max():
                return 0.0
            # centered on their rounded means, and corrected for that
            # rounding (the corrected two-pass formula)
            cx, cy = rx - rx.mean(), ry - ry.mean()
            sx, sy = float(cx.sum()), float(cy.sum())
            var_x, var_y = _dot(cx, cx) - sx * sx / m, _dot(cy, cy) - sy * sy / m
            cov = _dot(cx, cy) - sx * sy / m
        if var_x > 0 and var_y > 0:
            return cov / math.sqrt(var_x * var_y)
        return 0.0

    best_lag, best_corr = 0, -math.inf
    for lag in sorted(range(-k, k + 1), key=lambda s: (abs(s), s)):
        r = correlation(lag)
        if r > best_corr + TIE_TOL:
            best_lag, best_corr = lag, r
    return AlignmentResult(best_lag, best_corr, best_corr >= CONFIDENCE_THRESHOLD)


def _end_products(t2: np.ndarray, d: int, k: int, ends1: tuple[np.ndarray, np.ndarray],
                  mean2: float, middle: np.ndarray) -> list[float]:
    """Roll d's cross terms at lags -k..k: the middle's (`middle`), to which
    each lag adds the products of the end samples its overlap keeps, the far
    end's first, then the near end's from the middle outward, as _cuts adds
    samples. Lag >= 0 keeps all of the tail and cuts its first `lag` head
    samples; lag < 0 keeps all of the head and cuts its last |lag| tail
    samples. The lags are taken a few at a time, so that their products
    stay within an eighth of a block each."""
    n = t2.size
    lags = np.arange(-k, k + 1)
    total = np.empty(2 * k + 1)
    # end e's sample p = e + q (q < k) meets the rolled trace's sample
    # p - lag, trace2's (p - lag - d) mod n: w[q - lag + k], row k - lag of
    # the window's, so that reversed its rows run over the lags -k..k
    head, tail = (as_strided(_circular(t2, e - k - d, 3 * k, mean2), (2 * k + 1, k), (8, 8),
                             writeable=False)[::-1] for e in (0, n - k))
    rows = max(1, _blocks.BLOCK // (8 * max(k, 1)))
    for a in range(0, 2 * k + 1, rows):
        at = slice(a, min(a + rows, 2 * k + 1))
        lag = lags[at, None]
        ph, pt = head[at] * ends1[0], tail[at] * ends1[1]
        far = np.where(lag >= 0, pt, ph).sum(axis=1)
        # the near end's products from the middle outward, the cut ones 0
        near = np.where(lag >= 0, ph[:, ::-1], pt)
        near *= np.arange(k) < k - np.abs(lag)
        total[at] = np.cumsum(np.column_stack((middle[at] + far, near)), axis=1)[:, -1]
    return total.tolist()


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
