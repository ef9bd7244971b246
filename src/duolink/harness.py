"""Monte Carlo trial engine, four-case classifier, sweeps and result emission.

A trial runs two independent random payloads through the shared-phase channel
and detects them twice from the identical noise realization: once with plain
per-channel fourth-power carrier phase estimation (the baseline) and once
with the joint common-phase compensation. The paired construction makes the
BER difference a low-variance estimate of the algorithm's effect.

Every valid symbol is also classified against the transmit quadrants into
one of four cases describing what the compensation did:

    1 no correction required   both channels received in the correct quadrant
    2 correction successful    >=1 channel received wrong, both correct after
    3 additional errors        a channel received correctly was moved out
    4 no correction possible   remaining failures (nothing left to fix)

evaluated as a first-match decision list in that order.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from enum import IntEnum
from itertools import product
from math import inf, prod, sqrt

import numpy as np

from . import _blocks, _checks, _files
from .alignment import AlignmentResult, _estimate_delays, _overlap, estimate_delay
from .channel import STREAM_LAYOUT, ChannelParams, apply_channel, draw_payload
from .compensation import EstimatorConfig, apply_compensation, compensate_traces
from .cpe import HALF_PI, VVConfig, extract_phase, wrap_quarter
from .qpsk import GRAY_DISTANCE, _quadrants, quadrant_indices

WILSON_Z95 = 1.959963984540054


class ConfigError(ValueError):
    """Invalid configuration (bad field value, unknown key, unreadable file)."""


class Case(IntEnum):
    NO_CORRECTION_REQUIRED = 0
    CORRECTION_SUCCESSFUL = 1
    ADDITIONAL_ERRORS = 2
    NO_CORRECTION_POSSIBLE = 3


def classify_cases(
    tx_q1: np.ndarray,
    tx_q2: np.ndarray,
    rx_q1: np.ndarray,
    rx_q2: np.ndarray,
    post_q1: np.ndarray,
    post_q2: np.ndarray,
) -> np.ndarray:
    """Classify each symbol slot from six equal-shape integer arrays of
    quadrant indices (0..3 each); returns an int array of Case values."""
    given = dict(tx_q1=tx_q1, tx_q2=tx_q2, rx_q1=rx_q1, rx_q2=rx_q2,
                 post_q1=post_q1, post_q2=post_q2)
    arrays = {name: np.asarray(q) for name, q in given.items()}
    _checks.same_shape(**arrays)
    _checks.quadrants(**arrays)
    tq1, tq2, rq1, rq2, pq1, pq2 = arrays.values()
    rx_ok1, rx_ok2 = rq1 == tq1, rq2 == tq2
    post_ok1, post_ok2 = pq1 == tq1, pq2 == tq2
    out = np.full(tq1.shape, int(Case.NO_CORRECTION_POSSIBLE), dtype=np.int64)
    out[(rx_ok1 & ~post_ok1) | (rx_ok2 & ~post_ok2)] = Case.ADDITIONAL_ERRORS
    out[~(rx_ok1 & rx_ok2) & post_ok1 & post_ok2] = Case.CORRECTION_SUCCESSFUL
    out[rx_ok1 & rx_ok2] = Case.NO_CORRECTION_REQUIRED
    return out


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score confidence interval for a binomial proportion."""
    _checks.integer("errors", errors)
    _checks.integer("trials", trials)
    _checks.positive("trials", trials)
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    z = WILSON_Z95
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z / denom * sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return center - half, center + half


@dataclass
class TrialConfig:
    """One Monte Carlo trial: payload size, channel, receiver settings.

    n_symbols below ~1000 gives meaningless BER statistics; max_lag bounds
    the inter-channel delay search (0 disables delay recovery). A trial of
    n_symbols <= 2 * max_lag also skips the search: its report has lag 0,
    not confident.
    """

    n_symbols: int
    channel: ChannelParams = field(default_factory=ChannelParams)
    vv: VVConfig = field(default_factory=VVConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    compare_baseline: bool = True
    max_lag: int = 16

    def __post_init__(self) -> None:
        _checks.check_fields(self)
        _checks.at_least("n_symbols", self.n_symbols, 1)
        _checks.at_least("max_lag", self.max_lag, 0)


@dataclass
class BERReport:
    """Outcome of one trial. Error counts and BER cover the valid region only
    (symbols invalidated by delay alignment are excluded); intervals are 95%
    Wilson. estimated_lag is the lag actually applied (0 when the delay
    estimate was not confident). Baseline fields are None when the trial
    skipped the baseline."""

    ber_uncompensated: float | None
    ber_compensated: float
    errors_uncompensated: tuple[int, int] | None
    errors_compensated: tuple[int, int]
    bits_per_channel: int
    ci_uncompensated: tuple[float, float] | None
    ci_compensated: tuple[float, float]
    case_counts: tuple[int, int, int, int]
    valid_symbols: int
    estimated_lag: int
    lag_confident: bool
    seed: int
    config: TrialConfig

    def __post_init__(self) -> None:
        _checks.check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "BERReport":
        """Inverse of to_dict; a malformed dict raises ConfigError."""
        return _dataclass_from_dict(BERReport, d, "report")


def run_trial(cfg: TrialConfig) -> BERReport:
    """Run one paired baseline/compensated trial.

    Steps: random payloads, drawn as quadrant indices whose Gray labels are
    the bits (draw_payload) -> shared-phase channel (on their QPSK symbols)
    -> delay recovery from per-symbol phase traces -> channel-2 alignment ->
    baseline (per-channel VV rotation) and compensated (joint) detection ->
    count and classify. Each phase trace is extracted once. A symbol whose
    decisions no estimate can change is decided from its sample's angle,
    once; only the others are rotated and decided (see MARGIN). Bit errors
    are counted from the decided quadrants, the baseline's whether or not
    the report carries them. Deterministic for a given config.

    A trial is the sweep group of one point, [(0, cfg)]: its reception is
    that group's one reception (see _receptions), and what stops it is
    raised as it was raised.
    """
    return _detect(_single_reception(cfg), cfg)


def kappa_objective(cfg: TrialConfig):
    """The compensated BER of cfg's channel realization as a function of kappa.

    The realization, its phase traces, the delay recovery, the received
    decisions, the compensated decisions that no estimate can change (the
    settled symbols, see MARGIN) and the baseline's errors are computed once,
    here: the reception of run_trial(cfg), the one of the sweep group
    [(0, cfg)]. Each call re-runs the joint estimate and the detection on
    the open symbols only, giving exactly run_trial(cfg with that finite
    kappa).ber_compensated.
    """
    reception = _single_reception(cfg)

    def objective(kappa: float) -> float:
        estimator = replace(cfg.estimator, kappa=kappa, kappa_infinite=False)
        return _detect(reception, replace(cfg, estimator=estimator)).ber_compensated

    return objective


# A symbol is settled at reception when its compensated decision is the same
# for every estimate the joint estimator can return. Only the other, open,
# symbols are rotated and decided for each estimator setting.
#
# Channel j's sample has the angle A, np.arctan2 of its components, and
# quadrant k spans the angles [k, k + 1) in quarter turns (mod 4).
# Compensation rotates the sample by m + theta. m is the mean that the mean
# removal takes off (0 without it). theta is the joint estimate: a weighted
# mean of the two observations wrap_quarter(t - m), t the receiver's trace,
# for a finite kappa, and one of them for kappa_infinite, so it lies in their
# hull up to rounding. So the compensated decision is floor(A - m - theta)
# mod 4, with all angles in quarter turns; arctan2's two answers on the
# negative real axis, +pi and -pi, are four quarter turns apart and give one
# decision.
#
# A symbol is settled when both observations t - m, unwrapped, lie in
# (-1/2 + MARGIN, 1/2 - MARGIN): there wrap_quarter moves them by rounding
# only, so theta lies in the hull [lo, hi] of the unwrapped t - m, and no
# settled symbol needs the wrap. Both channels must also meet two conditions:
# - the sample's power is at least NORMAL_POWER. This keeps out the origin,
#   whose arctan2 is 0 or +-pi by its zeros' signs but which quadrant_indices
#   decides as quadrant 0 at every rotation, and keeps the rotation's products
#   normal floats (channel.MAX_SIGMA keeps them below overflow), so the
#   rotated sample's angle is accurate;
# - floor(A - m - theta) is one integer over all of [lo - MARGIN, hi + MARGIN].
# arctan2, wrap, estimate, rotation and the rule's own arithmetic each err by
# about 1e-15 rad, far below MARGIN. So the float pipeline's compensated
# sample lies inside the quadrant that the rule names, by about MARGIN, and
# is decided there. The baseline rotates channel j by its trace t_j alone,
# to the angle A - t_j = A - m - (t_j - m), and t_j - m lies in the hull: a
# settled symbol's baseline decision is its compensated one. So the settled
# histogram counts the baseline too, and only the open symbols' baseline
# decisions are taken, by the float pipeline. The key's received-right bit
# takes quadrant_indices' comparisons (qpsk._quadrants), whose ties on the
# axes are exact.
#
# At window 1 the trace is the sample's own angle less 1/2, wrapped:
# t = A - k - 1/2 in (-1/2, 1/2], for k the integer that puts it there.
# Where t itself lies in (-1/2 + MARGIN, 1/2 - MARGIN), A - k lies in
# (MARGIN, 1 - MARGIN), so the sample is off the axes by more than rounding
# and k is its quadrant by the signs of its components (qpsk._quadrants),
# which the key takes anyway. Then A - m - theta = k + 1/2 + (t - m - theta),
# and t - m and theta both lie in the hull: where hi - lo + 2 * MARGIN is
# under 1/2, the last term stays inside (-1/2, 1/2) over all of
# [lo - MARGIN, hi + MARGIN], and every estimate decides the sample as its
# own quadrant k. So at window 1 a symbol is settled by the conditions above
# with this one in place of floor(A - m - theta)'s, as its own quadrants,
# and no angle is taken. Since one channel's observation is lo and the
# other's hi, the conditions are the same up to rounding: floor(A - m -
# theta) is one integer over the hull exactly when hi - lo is under 1/2.
# Without mean removal t - m is t; with it, t must also meet the bound on
# its own. Else a sample within rounding of an axis, its fourth power's
# angle rounded to the wrap edge, has t = 1/2 in the quadrant before its
# own, and the rule would name the wrong one.
MARGIN = 1e-9
NORMAL_POWER = 2.0**-500

# the per-symbol extraction: of the delay search, and of the window-1 receiver
_PER_SYMBOL = VVConfig(window=1, remove_mean=False)

# the delay of a trial that skips the search
_NO_DELAY = AlignmentResult(lag=0, peak_correlation=0.0, confident=False)

_QUARTER_TURNS = 1 / HALF_PI  # per radian

# A symbol's code packs, from the top: tx1 and tx2 (two bits each), whether
# each channel was received in its transmitted quadrant (one bit each), and
# two decisions, of channel 1 and channel 2 (two bits each): the compensated
# ones, or for the baseline's count the baseline's. Its top six bits are the
# key that the reception keeps per open symbol.
_CODES = 1 << 10


def _code(key: np.ndarray, post1: np.ndarray, post2: np.ndarray) -> np.ndarray:
    """The uint16 codes of the keys `key` and the decisions post1, post2."""
    code = key.astype(np.uint16)
    code <<= 4
    code |= post1 << 2
    code |= post2
    return code


def _count_tables() -> np.ndarray:
    """The integer table that turns a code histogram into counts: per code
    [errors 1, errors 2, case 1, ..., case 4], the errors from the
    transmitted quadrants and the decisions alone."""
    code = np.arange(_CODES)
    tx1, tx2, post1, post2 = code >> 8, code >> 6 & 3, code >> 2 & 3, code & 3
    # the cases depend only on whether each channel was received right, so
    # a wrong reception stands as some other quadrant
    rx1 = np.where(code >> 5 & 1, tx1, tx1 ^ 1)
    rx2 = np.where(code >> 4 & 1, tx2, tx2 ^ 1)
    cases = classify_cases(tx1, tx2, rx1, rx2, post1, post2)
    counts = np.column_stack([GRAY_DISTANCE[tx1, post1], GRAY_DISTANCE[tx2, post2],
                              cases[:, None] == np.arange(len(Case))])
    return counts.astype(np.int64)


_COUNTS = _count_tables()


@dataclass(frozen=True)
class _Reception:
    """What a trial computes before the joint estimate, on the valid region:
    a restriction of a settle pass (see _restrict).

    The open symbols' samples (channel 2 aligned), their observations for the
    joint estimate and their keys, gathered in symbol order, with the mean
    removal already applied when it is on; the histogram of the settled
    symbols' codes, which counts both receivers (see MARGIN); the baseline's
    bit errors per channel, fixed by the realization whatever the estimator;
    the number of valid symbols and the recovered delay. The open arrays may
    be views of a pass that serves other receptions as well: the detection
    only reads them.
    """

    rx1: np.ndarray
    rx2: np.ndarray
    obs1: np.ndarray
    obs2: np.ndarray
    key: np.ndarray
    settled: np.ndarray
    baseline_errors: tuple[int, int]
    valid_symbols: int
    estimated_lag: int
    lag_confident: bool


@dataclass(frozen=True)
class _Pass:
    """A settle pass over `size` symbols of channel 1, each paired with the
    sample of channel 2 that it meets (see _settle_pass), as _restrict reads
    it: the histogram of the settled symbols' codes, which counts both
    receivers; the baseline's histogram, which adds the open symbols'
    baseline codes to it; the codes of the `keep` symbols at either end
    (head and tail), an open symbol's as _CODES plus its baseline code; and
    the open symbols' gathered (rx1, rx2, obs1, obs2, key), in symbol order,
    channel 2's gathered across its wrap."""

    settled: np.ndarray
    baseline: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    opened: tuple[np.ndarray, ...]
    size: int


def _realize(cfg: TrialConfig) -> tuple[np.ndarray, ...]:
    """The channel realization of cfg: (k_tx1, k_tx2, rx1, rx2), the
    transmitted quadrant indices and the received streams."""
    k_tx1, k_tx2 = draw_payload(cfg.n_symbols, cfg.channel)
    return (k_tx1, k_tx2, *apply_channel(k_tx1, k_tx2, cfg.channel))


def _searches(cfg: TrialConfig) -> bool:
    """Whether cfg's trial searches for the delay: max_lag 0 turns the search
    off, and so do traces too short for it."""
    return cfg.max_lag > 0 and cfg.n_symbols > 2 * cfg.max_lag


def _applied(delay: AlignmentResult) -> int:
    """The lag that the receiver applies: only buffer on a confident
    estimate; an unconfident peak is noise."""
    return delay.lag if delay.confident else 0


def _single_reception(cfg: TrialConfig) -> _Reception:
    """The one reception of the one-point group [(0, cfg)] (see _receptions):
    run_trial's. The exception that stopped it is raised."""
    [(_, reception)] = _receptions([(0, cfg)])
    if isinstance(reception, Exception):
        raise reception
    return reception


def _receptions(points: list[tuple[int, TrialConfig]]):
    """Yield (at, reception) for each offset of points that share one
    realization (configs equal but for delay_offset and the estimator): the
    points `at` that offset, and their _Reception or the exception that
    stopped it. A step that raises stops the offsets that share it and no
    other.

    The realization is drawn once, at the first point's offset o0. Channel
    2's stream at offset o is np.roll(rx2, o0 - o), byte for byte what the
    channel draws at o (see apply_channel), and so is its per-symbol trace,
    which is elementwise in the samples: one search on the traces at o0
    recovers every offset's delay (_estimate_delays; estimate_delay, the same
    computation, when the only roll is 0).

    At the applied lag L of offset o, channel 1's sample i meets the drawn
    stream's sample (i - s) mod n, s = (L + o0 - o) mod n: the pairing
    shift. One settle pass serves the offsets of a pairing: it runs over the
    union of their overlaps, keeping the end symbols that each leaves out,
    and each offset's reception is the pass restricted to its overlap
    (_restrict). A per-symbol receiver without mean removal (vv ==
    _PER_SYMBOL) reads nothing of a reception but its paired samples and
    their traces, so its offsets pair by shift, and its pass reads the drawn
    stream and trace at the shift: channel 2 is never rolled. Any other
    receiver pairs by offset, on the stream at its own offset, rolled from
    the last pass's stream, which the roll replaces: its whole-trace means
    round differently on each roll, and its wider windows are cut at the
    stream's ends.

    At window 1 the search's channel-1 trace serves every pass, and its
    channel-2 trace the first; at a wider window both are freed before the
    first pass. Every other trace is extracted for its pass and freed
    before its receptions are yielded, and each pass is freed before the
    next is built, so a point's peak is its trial's: one realization beside
    one reception.
    """
    first = points[0][1]
    n = first.n_symbols
    by_offset: dict[int, list] = {}
    for index, cfg in points:
        by_offset.setdefault(cfg.channel.delay_offset, []).append((index, cfg))
    o0 = first.channel.delay_offset  # the offset rx2 is drawn at
    delays, trace1, trace2 = dict.fromkeys(by_offset, _NO_DELAY), None, None
    try:
        k_tx1, k_tx2, rx1, rx2 = _realize(first)
        if first.vv.window == 1 or _searches(first):
            trace1, trace2 = extract_phase(rx1, _PER_SYMBOL), extract_phase(rx2, _PER_SYMBOL)
        if _searches(first):
            rolls = [o0 - offset for offset in by_offset]
            found = (_estimate_delays(trace1, trace2, rolls, first.max_lag) if rolls != [0]
                     else [estimate_delay(trace1, trace2, first.max_lag)])
            delays = dict(zip(by_offset, found))
        if first.vv.window != 1:
            trace1 = trace2 = None
    except Exception as exc:  # noqa: BLE001 - per-point isolation
        yield from ((at, exc) for at in by_offset.values())
        return
    by_shift = first.vv == _PER_SYMBOL
    # the offsets of each pass: by pairing shift, or by offset
    pairings: dict[int, list[int]] = {}
    for offset, delay in delays.items():
        shift = (_applied(delay) + o0 - offset) % n
        pairings.setdefault(shift if by_shift else offset, []).append(offset)
    held = 0  # the roll of the drawn stream that rx2 holds
    for pairing, offsets in pairings.items():
        # channel 1's symbols [lo, hi) that the offsets' overlaps span
        overlaps = [_overlap(n, _applied(delays[offset]))[0] for offset in offsets]
        lo, hi = min(a.start for a in overlaps), max(a.stop for a in overlaps)
        try:
            if by_shift:
                start = (lo - pairing) % n
            else:
                roll, start = o0 - pairing, lo - _applied(delays[pairing])
                if (roll - held) % n:
                    trace2 = None
                    rx2, held = np.roll(rx2, roll - held), roll
            t1, t2 = (extract_phase(z, first.vv) if t is None else t
                      for z, t in ((rx1, trace1), (rx2, trace2)))
            trace2 = None  # the search's serves one pass
            # the mean removal takes the whole traces' means, not each block's
            means = (t1.mean(), t2.mean()) if first.vv.remove_mean else None
            keep = max(max(a.start - lo, hi - a.stop) for a in overlaps)
            settle = _settle_pass(rx1[lo:hi], rx2, t1[lo:hi], t2, k_tx1[lo:hi], k_tx2[lo:hi],
                                  start, means, first.vv.window == 1, keep)
            del t1, t2  # before any detection
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            yield from ((by_offset[offset], exc) for offset in offsets)
            continue
        for offset, a in zip(offsets, overlaps):
            at, delay = by_offset[offset], delays[offset]
            try:
                reception = _restrict(settle, a.start - lo, a.stop - lo, _applied(delay),
                                      delay.confident)
            except Exception as exc:  # noqa: BLE001 - per-point isolation
                reception = exc
            yield at, reception
            del reception
        del settle  # before the next pass is built


def _settle_pass(rx1, rx2, trace1, trace2, k_tx1, k_tx2, start: int, means, per_symbol: bool,
                 keep: int) -> _Pass:
    """The settle pass (see MARGIN) over channel 1's symbols, each paired
    with a sample of channel 2: equal-length arrays of channel 1's received
    samples and phase trace and of the transmitted quadrants, channel 2's
    whole received stream and trace, read circularly from its sample
    `start` on (channel 1's symbol i meets channel 2's (start + i) mod its
    length), and the traces' means (None: no mean removal). per_symbol says
    that the traces are the samples' own window-1 extractions: a settled
    symbol is then decided as its own quadrants, and no angle is taken. It
    keeps the codes of the `keep` symbols at either end (2 * keep must not
    exceed the length), so that _restrict can leave them out (see _Pass).

    The blocks do only the per-symbol work: each adds to the settled
    histogram and returns its open symbols' keys and indices. They are cut
    at channel 2's wrap, so that every block reads views of both channels.
    The open symbols are then handled once, all together: their baseline
    decided from the float pipeline and coded, then they are gathered and
    the mean removal applied, so the gathered samples are rotated by minus
    their channel's mean and the observations are the traces less the mean,
    wrapped.
    """
    n = k_tx1.size
    seam = min(rx2.size - start, n)  # the pass's symbols before channel 2's wrap
    removed = (0.0, 0.0) if means is None else means
    margin = MARGIN * _QUARTER_TURNS
    head, tail = np.empty(keep, dtype=np.uint16), np.empty(keep, dtype=np.uint16)
    ends = ((head, 0), (tail, n - keep))  # each with its first symbol's index

    def settle(b: slice):
        # channel 2's samples of the block: from `start` on, or past its wrap
        to = start if b.start < seam else start - rx2.size
        b2 = slice(b.start + to, b.stop + to)
        rx, k_tx = (rx1[b], rx2[b2]), (k_tx1[b], k_tx2[b])
        traces = (trace1[b], trace2[b2])
        # the estimate's hull, widened by MARGIN, in quarter turns: lo and
        # hi - lo, from the observations t - m unwrapped
        obs = [t - m for t, m in zip(traces, removed)]
        lo = np.minimum(*obs)
        lo *= _QUARTER_TURNS
        lo -= margin
        width = np.maximum(*obs, out=obs[0])
        del obs
        width *= _QUARTER_TURNS
        width += margin
        # both observations inside (-1/2 + margin, 1/2 - margin), where
        # wrapping leaves them (see MARGIN)
        settled = lo > -0.5
        settled &= width < 0.5
        width -= lo
        if per_symbol:
            # every estimate leaves each sample in its own quadrant (see MARGIN)
            settled &= width < 0.5
            if means is not None:
                for t in traces:
                    settled &= np.abs(t) < HALF_PI / 2 - MARGIN
        key = k_tx[0] << 4
        key |= k_tx[1] << 2
        posts = []
        for j, z in enumerate(rx):
            power = z.real * z.real
            power += z.imag * z.imag
            settled &= power >= NORMAL_POWER
            if per_symbol:
                del power
                posts.append(_quadrants(z.real, z.imag))
                key |= (posts[j] == k_tx[j]).view(np.uint8) << (1 - j)
                continue
            # the sample's components, the real part written over its power:
            # arctan2 takes about twice as long on the strided views as on
            # contiguous copies
            np.copyto(power, z.real)
            im = z.imag.copy()
            key |= (_quadrants(power, im) == k_tx[j]).view(np.uint8) << (1 - j)
            angle = np.arctan2(im, power, out=power)
            del im, power
            # the angle less m, in quarter turns
            angle *= _QUARTER_TURNS
            angle -= removed[j] * _QUARTER_TURNS
            posts.append(_decision(angle, lo, width, settled))
            del angle  # before the next channel's power and its temporary
        code = _code(key, *posts)
        at = np.flatnonzero(~settled)
        # all codes less the open ones: faster than selecting the settled
        hist = np.bincount(code, minlength=_CODES) - np.bincount(code[at], minlength=_CODES)
        # the codes of the end symbols in this block, the open ones as
        # _CODES (their baseline codes are added once they are decided)
        for end, first in ends:
            lo_p, hi_p = max(b.start, first), min(b.stop, first + keep)
            if lo_p < hi_p:
                code[at] = _CODES
                end[lo_p - first:hi_p - first] = code[lo_p - b.start:hi_p - b.start]
        at_key = key[at]
        at += b.start
        return hist, at_key, at

    parts = _blocks.each(settle, [*_blocks.blocks(0, seam), *_blocks.blocks(seam, n)])
    settled = sum((p[0] for p in parts), np.zeros(_CODES, dtype=np.int64))
    key = np.concatenate([p[1] for p in parts])
    at = np.concatenate([p[2] for p in parts])
    del parts
    wrapped = np.searchsorted(at, seam)  # the first open symbol past channel 2's wrap

    def gather(x: np.ndarray, j: int) -> np.ndarray:
        """Channel j's array x at the open symbols. Channel 2's is read
        through a view up to its wrap: only the open symbols past it take an
        index array."""
        if j == 0:
            return x[at]
        out = np.empty(at.size, x.dtype)
        # every index is in range: "clip" only spares the buffer of "raise"
        np.take(x[start:], at[:wrapped], out=out[:wrapped], mode="clip")
        np.take(x, at[wrapped:] - seam, out=out[wrapped:], mode="clip")
        return out

    # the baseline's codes, its open symbols decided by the float pipeline
    base = _code(key, *(quadrant_indices(apply_compensation(gather(z, j), gather(t, j)))
                        for j, (z, t) in enumerate(((rx1, trace1), (rx2, trace2)))))
    baseline = np.bincount(base, minlength=_CODES) + settled
    for end, first in ends:
        i, j = np.searchsorted(at, (first, first + keep)).tolist()
        end[at[i:j] - first] += base[i:j]
    del base
    opened = [gather(rx1, 0), gather(rx2, 1), gather(trace1, 0), gather(trace2, 1)]
    del at
    if means is not None:
        # one channel at a time, the traces less m in place: the gathered
        # arrays and one array's temporaries exist at a time
        for j, m in enumerate(means):
            opened[j] = opened[j] * np.exp(-1j * m)
            opened[2 + j] -= m
            opened[2 + j] = wrap_quarter(opened[2 + j])
    return _Pass(settled, baseline, head, tail, (*opened, key), n)


def _restrict(settle: _Pass, lo: int, hi: int, lag: int, confident: bool) -> _Reception:
    """The reception of the symbols [lo, hi) of a settle pass, at the lag
    `lag`: the pass's histograms less the codes of the end symbols that
    [lo, hi) leaves out, which must lie within the pass's kept ends (a
    settled symbol's code counts in both, an open one's baseline code in the
    baseline's), and the pass's open symbols in [lo, hi), a slice of its
    open arrays, as the left-out ends hold the open symbols left out. No
    symbol is recomputed, and no float is touched."""
    n, keep = settle.size, settle.head.size
    if not (0 <= lo <= keep and n - keep <= hi <= n):
        raise ValueError(f"[{lo}, {hi}) leaves out more than the {keep} kept end symbols")
    settled, baseline = settle.settled, settle.baseline
    before, after = settle.head[:lo], settle.tail[keep - (n - hi):]
    if before.size or after.size:
        out = np.concatenate((before, after))
        settled = settled - np.bincount(out[out < _CODES], minlength=_CODES)
        baseline = baseline - np.bincount(out % _CODES, minlength=_CODES)
    i = np.count_nonzero(before >= _CODES)
    j = settle.opened[-1].size - np.count_nonzero(after >= _CODES)
    return _Reception(*(a[i:j] for a in settle.opened), settled=settled,
                      baseline_errors=tuple((baseline @ _COUNTS[:, :2]).tolist()),
                      valid_symbols=hi - lo, estimated_lag=lag, lag_confident=confident)


def _decision(a: np.ndarray, lo, width, settled: np.ndarray) -> np.ndarray:
    """floor(a - theta) mod 4 as uint8, for theta at lo: the quadrant of an
    angle a rotated by theta. Clears `settled` where floor(a - theta) is not
    one integer on [lo, lo + width]. All angles are in quarter turns.
    Consumes a, and allocates no float array."""
    a -= lo
    s = np.empty(a.shape, dtype=np.int8)
    np.floor(a, out=s, casting="unsafe")
    a -= width
    # floor(a - lo - width) <= s: they are equal where a - lo - width reaches s
    settled &= a >= s
    s &= 3
    return s.view(np.uint8)


def _detect(r: _Reception, cfg: TrialConfig) -> BERReport:
    """The part of run_trial that depends on the estimator: the joint
    estimate from the open symbols' observations, the rotation and the
    decisions of their samples (both already mean-removed at reception),
    and the counts: the settled histogram plus the open symbols' codes. The
    baseline's errors, counted at reception, are reported when
    cfg.compare_baseline is set. Reads the reception without modifying it.

    Runs on all the open symbols at once: they are a few percent of a
    trial's symbols (16 to 24 % at sigma_common 0.5), so the compensated
    streams and their decisions are small beside the reception.
    """
    comp1, comp2 = compensate_traces(r.rx1, r.rx2, r.obs1, r.obs2, cfg.estimator)
    code = _code(r.key, quadrant_indices(comp1), quadrant_indices(comp2))
    ec1, ec2, *cases = ((np.bincount(code, minlength=_CODES) + r.settled) @ _COUNTS).tolist()
    n_valid = r.valid_symbols
    assert sum(cases) == n_valid
    bits_per_channel = 2 * n_valid

    ber_comp = (ec1 + ec2) / (2 * bits_per_channel)
    ci_comp = wilson_interval(ec1 + ec2, 2 * bits_per_channel)
    if cfg.compare_baseline:
        eb1, eb2 = r.baseline_errors
        ber_base = (eb1 + eb2) / (2 * bits_per_channel)
        ci_base = wilson_interval(eb1 + eb2, 2 * bits_per_channel)
        errors_base = (eb1, eb2)
    else:
        ber_base, ci_base, errors_base = None, None, None

    return BERReport(
        ber_uncompensated=ber_base,
        ber_compensated=ber_comp,
        errors_uncompensated=errors_base,
        errors_compensated=(ec1, ec2),
        bits_per_channel=bits_per_channel,
        ci_uncompensated=ci_base,
        ci_compensated=ci_comp,
        case_counts=tuple(cases),
        valid_symbols=n_valid,
        estimated_lag=r.estimated_lag,
        lag_confident=r.lag_confident,
        seed=cfg.channel.seed,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# configuration (de)serialization

def _dataclass_from_dict(cls, data: dict, section: str):
    """Build cls from data, rejecting unknown keys. The field annotations
    (strings, as _checks reads them) say how a value is read: a field
    annotated with a dataclass of cls's module is built from its own object
    (its errors name the field), and a list given for a tuple field becomes
    a tuple; cls's own checks then judge every value."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object, got {type(data).__name__}")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"{section}: unknown field(s) {sorted(unknown)}")
    scope = vars(sys.modules[cls.__module__])
    kwargs = {}
    for key, value in data.items():
        annotation = cls.__dataclass_fields__[key].type
        if is_dataclass(scope.get(annotation)):
            value = _dataclass_from_dict(scope[annotation], value, key)
        elif isinstance(value, list) and annotation.startswith("tuple["):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def trial_config_from_dict(data: dict) -> TrialConfig:
    """Build a TrialConfig from the JSON config-file structure.

    Field names mirror the dataclasses exactly; unknown keys are rejected
    with the offending names.
    """
    return _dataclass_from_dict(TrialConfig, data, "config")


def read_config_file(path):
    """Parse a JSON file; unreadable files, non-UTF-8 bytes and invalid JSON raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # incl. JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc


def load_trial_config(path) -> TrialConfig:
    """Read and validate a JSON trial configuration file."""
    return trial_config_from_dict(read_config_file(path))


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("sigma_common", "sigma_additive", "kappa", "delay_offset")


@dataclass
class SweepPoint:
    """Result of one grid point; exactly one of report/error is set."""

    index: int
    report: BERReport | None = None
    error: str | None = None


def sweep_configs(base: TrialConfig, axes: dict) -> list[TrialConfig]:
    """Expand a sweep grid into per-point trial configs.

    Axes (any subset of sigma_common, sigma_additive, kappa, delay_offset)
    are combined as a cartesian product in that nesting order; omitted axes
    keep the base value. Each point is the base config with its axis values
    put in, loaded by trial_config_from_dict, so the config-file field rules
    decide every value. A kappa of Infinity selects the minimum-magnitude
    border mode.

    Point i's channel seed is the first 64-bit word of
    np.random.SeedSequence([base_seed, r]), where r is the point's index in
    the grid of its sigma_common and sigma_additive values alone. So points
    that differ only in kappa or delay_offset carry one seed and share one
    channel realization (run_sweep draws it once), a grid without a kappa
    or delay_offset axis has r = i, and every base seed gives its points
    their own realizations.
    """
    if not isinstance(axes, dict):
        raise ConfigError(f"sweep: expected an object, got {type(axes).__name__}")
    unknown = set(axes) - set(SWEEP_AXES)
    if unknown:
        raise ConfigError(f"sweep: unknown axis/axes {sorted(unknown)}")
    names = [name for name in SWEEP_AXES if name in axes]
    for name in names:
        if not isinstance(axes[name], (list, tuple)) or len(axes[name]) == 0:
            raise ConfigError(f"sweep: axis '{name}' must be a non-empty list")
    # the sigma axes nest outermost (SWEEP_AXES' order), so each of their
    # values spans `shared` consecutive points
    shared = prod(len(axes[name]) for name in ("kappa", "delay_offset") if name in axes)
    configs = []
    for index, values in enumerate(product(*(axes[name] for name in names))):
        data = asdict(base)
        r = index // shared
        seed = np.random.SeedSequence([base.channel.seed, r]).generate_state(1, np.uint64)
        data["channel"]["seed"] = int(seed[0])
        for name, value in zip(names, values):
            if name != "kappa":
                data["channel"][name] = value
            elif value == inf:
                data["estimator"]["kappa_infinite"] = True
            else:
                data["estimator"].update(kappa=value, kappa_infinite=False)
        try:
            configs.append(trial_config_from_dict(data))
        except ConfigError as exc:
            raise ConfigError(f"sweep point {index}: {exc}") from exc
    return configs


def _point_path(out_dir, index: int) -> str:
    return os.path.join(out_dir, f"point_{index:04d}.json")


_POINT_FILE = re.compile(r"point_\d{4,}\.json")
_LAYOUT_FILE = "stream_layout.json"


def _claim_layout(out_dir) -> None:
    """Make every point file in out_dir one of this stream layout: unless
    out_dir's layout file records channel.STREAM_LAYOUT, remove its point
    files (those drawn under another layout, or under an unrecorded one),
    then record the layout."""
    layout = {"stream_layout": STREAM_LAYOUT}
    path = os.path.join(out_dir, _LAYOUT_FILE)
    with contextlib.suppress(ConfigError):
        if read_config_file(path) == layout:
            return
    for name in os.listdir(out_dir):
        if _POINT_FILE.fullmatch(name):
            with contextlib.suppress(OSError):  # e.g. a directory of that name
                os.remove(os.path.join(out_dir, name))
    with _files.atomic_write(path) as fh:
        json.dump(layout, fh)
        fh.write("\n")


def _error(exc: BaseException) -> str:
    """The message a sweep records for a point that exc stopped: its text,
    or its type's name when it has none (a bare assert)."""
    return str(exc) or type(exc).__name__


def _sweep_group(points: list[tuple[int, TrialConfig]]):
    """Yield (index, outcome) for sweep points that share one realization
    (see _receptions): the point's report, equal to run_trial of its config,
    or the message (_error) of the exception that stopped it. Points at one
    offset share its reception and run one detection each. A trial is the
    group of one point."""
    for at, reception in _receptions(points):
        for index, cfg in at:
            try:
                outcome = (_detect(reception, cfg) if isinstance(reception, _Reception)
                           else _error(reception))
            except Exception as exc:  # noqa: BLE001 - per-point isolation
                outcome = _error(exc)
            yield index, outcome
        del reception  # before the next one is built


def _sweep_group_task(points: list[tuple[int, TrialConfig]]) -> list:
    """_sweep_group's outcomes as a list: a pool worker's task."""
    return list(_sweep_group(points))


def run_sweep(
    base: TrialConfig,
    axes: dict,
    out_dir=None,
    workers: int = 1,
) -> list[SweepPoint]:
    """Run every grid point; a point failing to compute or write is recorded, not raised.

    With out_dir set, each completed point is written to point_NNNN.json and
    points whose file already exists and holds the same config are loaded
    instead of recomputed, so an interrupted sweep resumes where it stopped;
    any other point file is recomputed and overwritten. out_dir's
    stream_layout.json records the stream layout (channel.STREAM_LAYOUT) of
    its point files: in a directory that records another layout, or none,
    the point files are removed and every point is recomputed.

    The points to compute are grouped by realization: points whose configs
    are equal but for delay_offset and the estimator (sweep_configs gives
    them one seed) share one payload, one channel and one delay search,
    drawn and run once. At window 1 without mean removal, offsets whose
    applied lags pair the channels' samples alike share one settle pass,
    each reception a restriction of it; otherwise each offset runs its own.
    Points that also share delay_offset share one reception (see
    _receptions). Every point's report equals run_trial of its own config,
    which runs the group of that one point. When workers > 1 a task is one
    whole realization, in a pool of min(workers, tasks) processes, as a
    forked pool starts all of its processes at once; a grid of one
    realization runs in the calling process, its stages on its threads.
    Results merge by index. The points of a task lost because a worker died
    are each run once more on their own, so a point that kills its worker
    fails and no other does. out_dir is created once the grid is accepted.
    """
    _checks.integer("workers", workers)
    _checks.at_least("workers", workers, 1)
    configs = sweep_configs(base, axes)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _claim_layout(out_dir)
    points: list[SweepPoint | None] = [None] * len(configs)

    groups: dict[str, list[tuple[int, TrialConfig]]] = {}
    for index, cfg in enumerate(configs):
        if out_dir is not None:
            try:
                report = BERReport.from_dict(read_config_file(_point_path(out_dir, index)))
                if report.config == cfg:
                    points[index] = SweepPoint(index, report=report)
                    continue
            except ConfigError:
                pass  # missing, unreadable or malformed point file: recompute
        # the config less delay_offset and the estimator: one per realization
        realization = replace(cfg, channel=replace(cfg.channel, delay_offset=0),
                              estimator=EstimatorConfig())
        groups.setdefault(repr(realization), []).append((index, cfg))

    def record(index: int, outcome) -> None:
        """Record a point's outcome: its report, written to its point file,
        or the message of what stopped it."""
        if isinstance(outcome, BERReport) and out_dir is not None:
            try:
                with _files.atomic_write(_point_path(out_dir, index)) as fh:
                    json.dump(outcome.to_dict(), fh, indent=2)
                    fh.write("\n")
            except Exception as exc:  # noqa: BLE001 - per-point isolation
                outcome = _error(exc)
        points[index] = (SweepPoint(index, report=outcome) if isinstance(outcome, BERReport)
                         else SweepPoint(index, error=outcome))

    def record_task(group, fut) -> None:
        try:
            outcomes = fut.result()
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            outcomes = [(index, _error(exc)) for index, _ in group]
        for index, outcome in outcomes:
            record(index, outcome)

    tasks = list(groups.values())
    if workers > 1 and len(tasks) > 1:
        lost = []
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [(g, pool.submit(_sweep_group_task, g)) for g in tasks]
            for group, fut in futures:
                if isinstance(fut.exception(), BrokenProcessPool):
                    lost += group
                else:
                    record_task(group, fut)
        # a worker that died took every unfinished group down with it: run
        # each lost point once more in a pool of its own, so that only a
        # point that kills its worker fails
        for point in lost:
            with ProcessPoolExecutor(max_workers=1) as pool:
                record_task([point], pool.submit(_sweep_group_task, [point]))
    else:
        for group in tasks:
            for index, outcome in _sweep_group(group):
                record(index, outcome)
    return points  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# emission

CSV_COLUMNS = (
    "sigma_common,sigma_additive,kappa,delay,ber_base,ber_comp,"
    "ci_lo_base,ci_hi_base,ci_lo_comp,ci_hi_comp,case1,case2,case3,case4,seed"
)


def _csv_row(report: BERReport) -> str:
    cfg = report.config
    kappa = float("inf") if cfg.estimator.kappa_infinite else cfg.estimator.kappa
    ber_base = float("nan") if report.ber_uncompensated is None else report.ber_uncompensated
    ci_base = (float("nan"), float("nan")) if report.ci_uncompensated is None else report.ci_uncompensated
    cells = [
        repr(float(cfg.channel.sigma_common)),
        repr(float(cfg.channel.sigma_additive)),
        repr(float(kappa)),
        str(cfg.channel.delay_offset),
        repr(float(ber_base)),
        repr(float(report.ber_compensated)),
        repr(float(ci_base[0])),
        repr(float(ci_base[1])),
        repr(float(report.ci_compensated[0])),
        repr(float(report.ci_compensated[1])),
        *[str(c) for c in report.case_counts],
        str(report.seed),
    ]
    return ",".join(cells)


def emit(reports, format: str, path) -> None:
    """Write reports to `path` as CSV (fixed column set) or JSON (full reports),
    replacing the file only once all of it is written.

    Floats are serialized with repr so parsing them back is bit-exact; output
    contains no timestamps, making equal runs byte-identical.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    reports = list(reports)
    with _files.atomic_write(path) as fh:
        if format == "csv":
            fh.write(CSV_COLUMNS + "\n")
            for report in reports:
                fh.write(_csv_row(report) + "\n")
        else:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
