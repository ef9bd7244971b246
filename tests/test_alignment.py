"""Tests for delay estimation, stream alignment and the kappa control loop."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from duolink import KappaSearchResult, adapt_kappa, estimate_delay
from duolink import _blocks, alignment
from duolink.alignment import (CONFIDENCE_THRESHOLD, TIE_TOL, _cuts, _dot, _estimate_delays,
                               _overlap)
from oracles import delay_reference, pearson_exact


def noise_trace(n, seed):
    return np.random.default_rng(seed).normal(0, 0.3, n)


# An overlap nearly constant at a level off the whole trace's mean, whose
# variance about that mean cancels.
CANCELLING_OVERLAP = (
    np.array([-0.19590406, 0, 0, 0.19069219, -0.32166178, -0.02092202, 0.56211173]),
    np.array([0.3] * 5 + [0.30035128, -0.15932305]), 3)

# Traces whose samples differ by one ulp of 1.0, which centering on a mean
# of about -0.36 rounds away: trace1's first 12 samples vary, but not once
# centered. Lag -3 overlaps them with trace2 and correlates as 0.2928 on the
# raw samples (in exact arithmetic), but as about 0 once centered on the
# whole trace's mean.
_ULP = np.nextafter(1.0, 2.0)
ULP_APART = (
    np.array([1.0, 1.0, 1.0, 1.0, _ULP, 1.0, 1.0, 1.0, 1.0, _ULP, 1.0, _ULP, -9.0, -9.0,
              float.fromhex("0x1.23b157cb35228p-1")]),
    np.array([1.0, 1.0, _ULP, _ULP, 1.0, 1.0, 1.0, 1.0, _ULP, 1.0, _ULP, 1.0, _ULP, 1.0, _ULP]),
    3)

# Traces whose end samples hold almost all of trace2's variance: its sums of
# squares over the overlaps that cut those ends off cancel if the ends are
# subtracted from the whole trace's sums.
ENDS_HOLD_THE_VARIANCE = (
    np.array([0.26, 0.6, -0.35, -0.03, -0.2, -0.29, -0.79]),
    np.array([1.99, -0.59, 0.7, 0.7001, 0.7, 0.7, 0.7]), 2)


@st.composite
def trace_pairs(draw):
    """(trace1, trace2, max_lag): noise, partly constant, constant, constant
    but for a few samples at the ends (so that some overlaps are constant) or
    exactly periodic traces, on levels and scales of extracted phase traces."""
    kind = draw(st.sampled_from(
        ["noise", "partly_constant", "constant", "varies_at_ends", "periodic"]))
    n = draw(st.integers(3, 300))
    max_lag = draw(st.integers(0, min(20, (n - 1) // 2)))
    shift = draw(st.integers(-max_lag, max_lag))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = st.integers(-7, 7).map(lambda k: k / 10)
    if kind == "periodic":
        pattern = [draw(level) for _ in range(draw(st.integers(1, 8)))]
        t1 = np.resize(pattern, n)
        t2 = np.roll(t1, -shift)
    elif kind == "constant":
        t1 = np.full(n, draw(level))
        t2 = np.full(n, draw(level)) if draw(st.booleans()) else rng.normal(0, 0.3, n)
    elif kind == "varies_at_ends":
        t1, t2 = np.full(n, draw(level)), np.full(n, draw(level))
        for t in (t1, t2):
            head, tail = draw(st.integers(0, max_lag + 1)), draw(st.integers(0, max_lag + 1))
            t[:head] = rng.normal(0, 0.3, head)
            t[n - tail:] = rng.normal(0, 0.3, tail)
    else:
        t1 = rng.normal(0, draw(st.floats(0.01, 1.0)), n)
        t2 = np.roll(t1, -shift) + rng.normal(0, draw(st.floats(0.0, 1.0)), n)
        if kind == "partly_constant":
            for t in (t1, t2):
                a = draw(st.integers(0, n))
                t[a:draw(st.integers(a, n))] = draw(level)
    return t1, t2, max_lag


# Seven rolls of a group, as a sweep's offsets give them: near each other
# (one run of shifts), and far apart (runs of their own)
GROUP_ROLLS = (0, -30, 3, 18, -7, 40, 100)


@st.composite
def rolled_trace_pairs(draw):
    """(trace1, trace2, max_lag, rolls): a pair of trace_pairs with trace2
    rolled back by the first of one to seven rolls, so that roll restores the
    drawn pair; the rolls reach past max_lag and past n either way. At times
    max_lag is raised to n // 2 or more, too long for the traces."""
    t1, t2, max_lag = draw(trace_pairs())
    n = t1.size
    rolls = draw(st.lists(st.integers(-3 * n, 3 * n), min_size=1, max_size=7))
    if draw(st.integers(0, 9)) == 0:
        max_lag = draw(st.integers(n // 2, n))
    return t1, np.roll(t2, -rolls[0]), max_lag, rolls


# The lag sweep's rolls at max_lag 128: one run of 497 shifts
LAG_ROLLS = (-120, -80, -40, 0, 40, 80, 120)


def assert_matches_reference(t1, t2, max_lag, result):
    lag, peak = delay_reference(t1, t2, max_lag, tie_tol=TIE_TOL)
    assert result.lag == lag
    # Three-sample overlaps with two equal values correlate as exactly
    # +-0.5, which rounding puts on either side of the threshold
    if abs(peak - CONFIDENCE_THRESHOLD) > 1e-12:
        assert result.confident == (peak >= CONFIDENCE_THRESHOLD)
    assert abs(result.peak_correlation - peak) <= 1e-12


class TestEstimateDelay:
    def test_identical_traces(self):
        t = noise_trace(4096, 1)
        result = estimate_delay(t, t, max_lag=8)
        assert result.lag == 0
        assert result.peak_correlation == pytest.approx(1.0, abs=1e-12)
        assert result.confident

    def test_constructed_shift_recovered(self):
        """trace2 leading trace1 by 5 symbols yields lag 5."""
        t1 = noise_trace(4096, 2)
        t2 = np.roll(t1, -5)  # t2[n] = t1[n + 5]
        result = estimate_delay(t1, t2, max_lag=8)
        assert result.lag == 5
        assert result.confident

    @pytest.mark.parametrize("d", range(-7, 8))
    def test_all_shifts_recovered_exactly(self, d):
        t1 = noise_trace(2048, 3)
        result = estimate_delay(t1, np.roll(t1, -d), max_lag=7)
        assert result.lag == d

    def test_independent_traces_not_confident(self):
        t1 = noise_trace(10**4, 4)
        t2 = noise_trace(10**4, 5)
        result = estimate_delay(t1, t2, max_lag=16)
        assert not result.confident
        assert abs(result.peak_correlation) < 3 / math.sqrt(10**4) * 4

    def test_constant_traces_zero_correlation(self):
        t = np.full(256, 0.2)
        result = estimate_delay(t, t, max_lag=4)
        assert result.lag == 0
        assert result.peak_correlation == 0.0
        assert not result.confident

    @pytest.mark.parametrize("pattern", [[0.3], [0.1, -0.2], [0.1, -0.2, 0.4],
                                         [0.5, 0.1, -0.3, 0.1, -0.7]])
    def test_periodic_ties_resolve_to_smallest_lag(self, pattern):
        """Exactly periodic traces correlate equally at every lag congruent to
        the shift modulo the period; the tie goes to the smallest |lag|,
        negative first."""
        t = np.resize(pattern, 1000)
        result = estimate_delay(t, np.roll(t, -1), max_lag=12)
        tied = [lag for lag in range(-12, 13) if (lag - 1) % len(pattern) == 0]
        assert result.lag == min(tied, key=lambda s: (abs(s), s))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lead", [-3, 3])
    def test_overlap_constant_once_the_changes_are_cut(self, seed, lead):
        """Traces that change only within three samples at opposite ends are
        constant on the overlaps that cut those samples off, which must
        correlate as exactly 0 whatever rounding leaves in their sums. The
        other overlaps hold two positive bumps at disjoint positions and
        correlate negatively, so lag `lead` wins with 0."""
        rng = np.random.default_rng(seed)
        t1, t2 = np.full(500, 0.3), np.full(500, -0.1)
        t1[-3:] += np.abs(rng.normal(0, 0.3, 3))
        t2[:3] += np.abs(rng.normal(0, 0.3, 3))
        if lead > 0:
            t1, t2 = t1[::-1].copy(), t2[::-1].copy()
        result = estimate_delay(t1, t2, 6)
        assert (result.lag, result.peak_correlation) == (lead, 0.0)
        assert delay_reference(t1, t2, 6, tie_tol=TIE_TOL) == (lead, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(trace_pairs())
    @example((ENDS_HOLD_THE_VARIANCE[1], None, 2))  # its trace2
    def test_cut_sums(self, case):
        """The per-cut sums match direct sums over the kept samples, the sums
        of squares to within rounding of their own size."""
        t, _, k = case
        n = t.size
        c = t - t.mean()
        middle = c[k:n - k]
        head, tail = _cuts(t, t.mean(), k, (middle.sum(), _dot(middle, middle)))
        for j in range(k + 1):
            for cuts, kept in ((head, slice(j, n)), (tail, slice(0, n - j))):
                assert cuts.sums[j] == pytest.approx(c[kept].sum(), abs=1e-12)
                assert cuts.squares[j] == pytest.approx(np.dot(c[kept], c[kept]), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(trace_pairs())
    @example(CANCELLING_OVERLAP)
    @example(ENDS_HOLD_THE_VARIANCE)
    @example(ULP_APART)
    def test_matches_direct_pearson_reference(self, case):
        t1, t2, max_lag = case
        assert_matches_reference(t1, t2, max_lag, estimate_delay(t1, t2, max_lag))

    @settings(max_examples=300, deadline=None)
    @given(rolled_trace_pairs())
    @example((*CANCELLING_OVERLAP, [0, 1, -8, 3 + 7]))
    @example((*ENDS_HOLD_THE_VARIANCE, [0, 2, -2, 7, -16]))
    @example((ENDS_HOLD_THE_VARIANCE[0], np.roll(ENDS_HOLD_THE_VARIANCE[1], -3), 2, [3, 0, 1]))
    @example((*ULP_APART, [0, 4, -4, 15, -31, 46]))
    @example((np.full(40, 0.2), np.full(40, -0.1), 6, [0, 9, -50]))
    @example((noise_trace(40, 11), noise_trace(40, 12), 20, [0, 5]))
    def test_group_matches_direct_pearson_reference(self, case):
        """The grouped search gives, for each roll d, what the direct
        reference gives on np.roll(trace2, d): the lag and the confidence
        exactly, the peak correlation to 1e-12. Rolls beyond max_lag and
        beyond n, constant traces and traces whose variance lies in the
        samples that a lag cuts are among the cases; a max_lag too long for
        the traces is rejected, as estimate_delay rejects it."""
        t1, t2, max_lag, rolls = case
        if t1.size <= 2 * max_lag:
            with pytest.raises(ValueError, match="short"):
                _estimate_delays(t1, t2, rolls, max_lag)
            return
        results = _estimate_delays(t1, t2, rolls, max_lag)
        assert len(results) == len(rolls)
        for d, result in zip(rolls, results):
            assert_matches_reference(t1, np.roll(t2, d), max_lag, result)

    @pytest.mark.parametrize("block, sub", [(7, 3), (64, 20), (_blocks.BLOCK, alignment._FFT_BLOCK)])
    @settings(max_examples=60, deadline=None)
    @given(case=rolled_trace_pairs())
    @example(case=(*CANCELLING_OVERLAP, [0, 1, -8, 3 + 7]))
    @example(case=(*ENDS_HOLD_THE_VARIANCE, [0, 2, -2, 7, -16]))
    @example(case=(*ULP_APART, [0, 4, -4, 15, -31, 46]))
    @example(case=(np.full(300, 0.2), np.full(300, -0.1), 128, LAG_ROLLS))
    @example(case=(np.full(300, 0.2), noise_trace(300, 15), 128, LAG_ROLLS))
    @example(case=(noise_trace(20_000, 13), np.roll(noise_trace(20_000, 13), 70)
                   + noise_trace(20_000, 14), 128, LAG_ROLLS))
    def test_fft_equals_einsum(self, block, sub, case):
        """Every run of shifts taken by FFT correlation (FFT_WIDTH 1), and
        every run taken by einsum (FFT_WIDTH past any run): the same lags and
        confidence, peak correlations within 1e-12, and each the direct
        reference's. At blocks of 7 and 64 samples with sub-blocks of 3 and
        20, and at the defaults, where the 20 000-sample traces cross
        sub-block edges, so that the blocks and the sub-blocks of c1 and
        their windows of trace2 start and end everywhere."""
        t1, t2, max_lag, rolls = case
        assume(t1.size > 2 * max_lag)
        got = []
        for width in (1, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_blocks, "BLOCK", block)
                mp.setattr(alignment, "_FFT_BLOCK", sub)
                mp.setattr(alignment, "FFT_WIDTH", width)
                got.append(_estimate_delays(t1, t2, rolls, max_lag))
        for d, fft, einsum in zip(rolls, *got):
            assert fft.lag == einsum.lag, d
            # see assert_matches_reference
            if abs(einsum.peak_correlation - CONFIDENCE_THRESHOLD) > 1e-12:
                assert fft.confident == einsum.confident, d
            assert abs(fft.peak_correlation - einsum.peak_correlation) <= 1e-12, d
            assert_matches_reference(t1, np.roll(t2, d), max_lag, fft)

    def test_group_of_ulp_apart_rolls_equals_single_searches(self):
        """ULP_APART rolled by amounts other than multiples of n: trace2's
        variance is then a few ulps in overlaps that the centered sums keep
        (see test_ulp_apart_matches_exact_arithmetic). What a sweep needs
        holds at every roll: the group's search equals estimate_delay of
        the rolled trace."""
        t1, t2, max_lag = ULP_APART
        rolls = [0, 4, -4, 15, -31, 46]
        for d, got in zip(rolls, _estimate_delays(t1, t2, rolls, max_lag)):
            single = estimate_delay(t1, np.roll(t2, d), max_lag)
            assert (got.lag, got.confident) == (single.lag, single.confident), d
            assert abs(got.peak_correlation - single.peak_correlation) <= 1e-12, d

    @pytest.mark.parametrize("roll, lag, peak", [(0, -3, 0.2928), (-4, 1, 0.2934),
                                                 (46, -2, 0.2282)])
    def test_ulp_apart_matches_exact_arithmetic(self, roll, lag, peak):
        """ULP_APART with trace2 rolled: overlaps whose variance is a few ulps
        take the direct rule, whose sums are corrected for the rounding of
        their means. The direct reference, the search and the group's search
        then give the lag and the peak correlation that exact rational
        arithmetic gives; centered on their rounded means without the
        correction, they gave 0.516 at roll 0, and the reference lag -3
        (0.236) at roll -4 and 0.179 at roll 46."""
        t1, t2, max_lag = ULP_APART
        rolled = np.roll(t2, roll)
        exact_lag, exact_peak = delay_reference(t1, rolled, max_lag, TIE_TOL, pearson_exact)
        assert (exact_lag, round(exact_peak, 4)) == (lag, peak)
        assert_matches_reference(t1, rolled, max_lag, estimate_delay(t1, rolled, max_lag))
        reference = delay_reference(t1, rolled, max_lag, TIE_TOL)
        assert reference[0] == lag and abs(reference[1] - exact_peak) <= 1e-12
        (grouped,) = _estimate_delays(t1, t2, [roll], max_lag)
        assert (grouped.lag, grouped.confident) == (lag, False)
        assert abs(grouped.peak_correlation - exact_peak) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(trace_pairs())
    @example(CANCELLING_OVERLAP)
    @example(ULP_APART)
    def test_search_leaves_inputs_unchanged(self, case):
        """The search reads its traces only: read-only traces go through, and
        their bytes are those they had before."""
        t1, t2, max_lag = case
        before = t1.tobytes(), t2.tobytes()
        t1.flags.writeable = t2.flags.writeable = False
        estimate_delay(t1, t2, max_lag)
        _estimate_delays(t1, t2, GROUP_ROLLS, max_lag)
        assert (t1.tobytes(), t2.tobytes()) == before

    @settings(max_examples=60, deadline=None)
    @given(trace_pairs())
    @example(CANCELLING_OVERLAP)
    @example(ULP_APART)
    def test_independent_of_block_size_and_threads(self, case):
        """The lag and the confidence do not depend on the block size or on
        the thread count, and at one block size the peak correlation is
        bit-equal whatever the thread count (the block size may move it by
        rounding): for one search, and for each of a group of seven rolls."""
        t1, t2, max_lag = case

        def search():
            return [estimate_delay(t1, t2, max_lag),
                    *_estimate_delays(t1, t2, GROUP_ROLLS, max_lag)]

        expected = search()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the pool's tasks finely
        try:
            for block in (1, 7, 64):
                peaks = set()
                for threads in (1, 2, 3):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(_blocks, "BLOCK", block)
                        mp.setattr(_blocks, "THREADS", threads)
                        got = search()
                    for g, e in zip(got, expected):
                        assert g.lag == e.lag, (block, threads)
                        # see test_matches_direct_pearson_reference
                        if abs(e.peak_correlation - CONFIDENCE_THRESHOLD) > 1e-12:
                            assert g.confident == e.confident, (block, threads)
                    peaks.add(tuple(g.peak_correlation.hex() for g in got))
                assert len(peaks) == 1, (block, peaks)
        finally:
            sys.setswitchinterval(interval)

    def test_peak_memory_is_a_few_blocks(self, monkeypatch):
        """On two threads the search holds a few blocks at a time, not a
        copy of a trace (8 B/sym) nor a mask of one (1 B/sym): one search,
        and a group of seven rolls, which rolls neither trace whole. At
        max_lag 16 every run takes the einsum; at max_lag 128 one roll's 257
        shifts and the lag sweep's 497 take FFT correlation, whose sub-blocks
        read their own windows of trace2."""
        monkeypatch.setattr(_blocks, "THREADS", 2)
        n = 2**21
        t1 = noise_trace(n, 9)
        t2 = np.roll(t1, -3) + noise_trace(n, 10)
        for rolls, max_lag in (((0,), 16), (GROUP_ROLLS, 16), ((0,), 128), (LAG_ROLLS, 128)):
            tracemalloc.start()
            try:
                if rolls == (0,):
                    results = [estimate_delay(t1, t2, max_lag)]
                else:
                    results = _estimate_delays(t1, t2, rolls, max_lag)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # trace2 rolled by d leads trace1 by 3 - d
            for d, result in zip(rolls, results):
                if abs(3 - d) <= max_lag:
                    assert (result.lag, result.confident) == (3 - d, True)
                else:
                    assert not result.confident
            assert peak < 6 * 8 * _blocks.BLOCK, (rolls, max_lag, peak / n)

    def test_ulp_apart_example_merges_under_centering(self):
        """ULP_APART is what its comment says, and the search correlates the
        overlap's raw samples, as the direct reference does."""
        t1 = ULP_APART[0]
        assert np.ptp(t1[:12]) > 0
        assert np.ptp((t1 - t1.mean())[:12]) == 0
        lag, peak = delay_reference(*ULP_APART, tie_tol=TIE_TOL)
        assert (lag, peak >= CONFIDENCE_THRESHOLD) == (-3, False)
        result = estimate_delay(*ULP_APART)
        assert (result.lag, result.confident) == (lag, False)
        assert abs(result.peak_correlation - peak) <= 1e-12

    def test_plain_python_result(self):
        t = noise_trace(256, 6)
        result = estimate_delay(t, np.roll(t, -2), max_lag=4)
        assert type(result.lag) is int
        assert type(result.peak_correlation) is float
        assert type(result.confident) is bool

    def test_non_finite_rejected(self):
        t = noise_trace(64, 7)
        t[10] = np.nan
        with pytest.raises(ValueError, match="finite"):
            estimate_delay(t, noise_trace(64, 8), max_lag=4)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            estimate_delay(np.zeros(16), np.zeros(16), max_lag=8)
        with pytest.raises(ValueError, match="short"):
            _estimate_delays(np.zeros(16), np.zeros(16), [0, 3], max_lag=8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            estimate_delay(np.zeros(64), np.zeros(65), max_lag=4)

    def test_bad_max_lag_rejected(self):
        with pytest.raises(ValueError, match="max_lag"):
            estimate_delay(np.zeros(64), np.zeros(64), max_lag=-1)
        with pytest.raises(ValueError, match="max_lag"):
            estimate_delay(np.zeros(64), np.zeros(64), True)


class TestOverlap:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(-(n - 1), n - 1))))
    def test_overlap_equals_np_roll(self, case):
        """Channel 2's part of the overlap holds the bytes that channel 1's
        part reads of channel 2 rolled by lag, n - |lag| samples: a view of
        the unrolled stream serves wherever the rolled one was read."""
        n, lag = case
        s = np.random.default_rng(n).normal(size=n) + 1j * np.arange(n)
        a, b = _overlap(n, lag)
        assert s[b].size == n - abs(lag)
        assert np.roll(s, lag)[a].tobytes() == s[b].tobytes()


class TestAdaptKappa:
    def test_quadratic_objective(self):
        """Synthetic BER(k) = (k-2)^2 + 0.01 is located to within tol."""
        calls = []

        def objective(kappa):
            calls.append(kappa)
            return (kappa - 2.0) ** 2 + 0.01

        result = adapt_kappa(objective, 0.0, 10.0, tol=1e-3)
        assert result.kappa_opt == pytest.approx(2.0, abs=1e-3)
        assert result.ber_at_opt == pytest.approx(0.01, abs=1e-4)
        assert result.evaluations == len(calls)
        assert result.improving and not result.bracket_warning
        assert all(0.0 <= k <= 10.0 for k in calls)

    def test_evaluation_bound(self):
        invphi = (math.sqrt(5) - 1) / 2
        result = adapt_kappa(lambda k: (k - 2.0) ** 2 + 0.01, 0.0, 10.0, tol=1e-3)
        bound = math.ceil(math.log(10.0 / 1e-3) / math.log(1 / invphi)) + 2
        assert result.evaluations <= bound

    def test_constant_objective_flagged_non_improving(self):
        """Constant BER: ties follow the documented rule (bracket slides to
        hi) and the result is flagged as non-improving."""
        result = adapt_kappa(lambda k: 0.5, 0.0, 10.0, tol=1e-2)
        assert 0.0 <= result.kappa_opt <= 10.0
        assert result.kappa_opt == pytest.approx(10.0, abs=1e-2)
        assert not result.improving

    def test_monotone_decreasing_hits_upper_bound(self):
        result = adapt_kappa(lambda k: 1.0 / (1.0 + k), 0.0, 10.0, tol=1e-3)
        assert result.kappa_opt == pytest.approx(10.0, abs=1e-3)

    def test_non_finite_objective_aborts(self):
        with pytest.raises(ValueError, match="kappa"):
            adapt_kappa(lambda k: float("nan"), 0.0, 10.0, tol=1e-2)

    def test_non_unimodal_objective_warns(self):
        """A secondary dip planted on the first right probe pulls the search
        away from the quadratic minimum and breaks the descent/ascent
        pattern, raising the bracket warning."""
        def bimodal(k):
            if abs(k - 6.1803398875) < 0.05:
                return 1.0
            return (k - 2.0) ** 2 + 0.01

        result = adapt_kappa(bimodal, 0.0, 10.0, tol=1e-2)
        assert isinstance(result, KappaSearchResult)
        assert 5.5 < result.kappa_opt < 7.0
        assert result.bracket_warning

    def test_narrow_bracket_probes_once(self):
        """A bracket already narrower than tol is probed once at its
        midpoint; a constant objective is flagged as non-improving there
        too."""
        result = adapt_kappa(lambda k: 0.1, 0.0, 1.0, 2.0)
        assert (result.kappa_opt, result.ber_at_opt, result.evaluations) == (0.5, 0.1, 1)
        assert not result.improving
        assert not result.bracket_warning

    @pytest.mark.parametrize("lo,hi,tol", [
        (1.0, 1.0, 0.1), (2.0, 1.0, 0.1), (0.0, 1.0, 0.0),
        (-math.inf, 3.0, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.inf),
        (math.nan, 3.0, 0.1), (0.0, math.nan, 0.1), (0.0, 1.0, math.nan),
        (True, 3.0, 0.1), (0.0, True, 0.1), (0.0, 1.0, True),
        (-1e308, 1e308, 1.0),
    ])
    def test_bad_bracket_rejected(self, lo, hi, tol):
        """A bracket end, width or tolerance that is not a finite number
        fails before any evaluation, so none falls outside [lo, hi]."""
        calls = []
        with pytest.raises(ValueError):
            adapt_kappa(lambda k: calls.append(k) or 0.1, lo, hi, tol)
        assert calls == []
