"""Tests for delay estimation, stream alignment and the kappa control loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duolink import KappaSearchResult, adapt_kappa, align, estimate_delay
from duolink.alignment import CONFIDENCE_THRESHOLD, TIE_TOL, _cuts
from oracles import delay_reference


def noise_trace(n, seed):
    return np.random.default_rng(seed).normal(0, 0.3, n)


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
    def test_cut_sums_and_constancy(self, case):
        """The per-cut sums match direct sums over the kept samples, and a cut
        counts as varying exactly when the kept samples are not all equal."""
        t, _, k = case
        c = t - t.mean()
        head, tail = _cuts(t, c, k)
        n = t.size
        for j in range(k + 1):
            for cuts, kept in ((head, slice(j, n)), (tail, slice(0, n - j))):
                assert cuts.varies[j] == (np.ptp(t[kept]) > 0)
                assert cuts.sums[j] == pytest.approx(c[kept].sum(), abs=1e-12)
                assert cuts.squares[j] == pytest.approx(np.dot(c[kept], c[kept]), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(trace_pairs())
    def test_matches_direct_pearson_reference(self, case):
        t1, t2, max_lag = case
        lag, peak = delay_reference(t1, t2, max_lag, tie_tol=TIE_TOL)
        result = estimate_delay(t1, t2, max_lag)
        assert result.lag == lag
        assert result.confident == (peak >= CONFIDENCE_THRESHOLD)
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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            estimate_delay(np.zeros(64), np.zeros(65), max_lag=4)

    def test_bad_max_lag_rejected(self):
        with pytest.raises(ValueError, match="max_lag"):
            estimate_delay(np.zeros(64), np.zeros(64), max_lag=-1)
        with pytest.raises(ValueError, match="max_lag"):
            estimate_delay(np.zeros(64), np.zeros(64), True)


class TestAlign:
    def test_zero_lag_identity(self):
        s = np.arange(10, dtype=complex)
        out = align(s, 0)
        np.testing.assert_array_equal(out.samples, s)
        assert out.valid.all()

    def test_inverse_shifts_recover_on_valid_region(self):
        s = np.arange(32, dtype=complex)
        fwd = align(s, 3)
        back = align(fwd.samples, -3)
        both = fwd.valid & back.valid
        np.testing.assert_array_equal(back.samples[both], s[both])

    @pytest.mark.parametrize("lag", [-5, -1, 0, 2, 7])
    def test_valid_region_length(self, lag):
        out = align(np.ones(64, complex), lag)
        assert int(out.valid.sum()) == 64 - abs(lag)

    def test_positive_lag_delays(self):
        s = np.arange(8, dtype=complex)
        out = align(s, 2)
        np.testing.assert_array_equal(out.samples[2:], s[:-2])
        assert not out.valid[0] and not out.valid[1]

    def test_excessive_lag_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            align(np.ones(4, complex), 4)
        with pytest.raises(ValueError, match="lag"):
            align(np.ones(4, complex), True)


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

    @pytest.mark.parametrize("lo,hi,tol", [(1.0, 1.0, 0.1), (2.0, 1.0, 0.1), (0.0, 1.0, 0.0)])
    def test_bad_bracket_rejected(self, lo, hi, tol):
        with pytest.raises(ValueError):
            adapt_kappa(lambda k: k, lo, hi, tol)
