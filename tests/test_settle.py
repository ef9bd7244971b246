"""The settle pass against a full evaluation.

A settled symbol's decisions are taken at reception from its sample's own
angle (see duolink.harness.MARGIN). Here small receptions are built whose
samples and traces sit on each boundary of that rule, within rounding of it,
and just inside and outside MARGIN from it. The boundaries are a decision
boundary met at one end of the estimate's hull, and the wrap edges of the
mean removal; samples also sit near the axes, the boundaries of the received
decision, and exactly on them, with signed zero components. Every settled
decision, and every count, must equal the one that rotating and deciding
every symbol gives, for each estimator setting and for the baseline. Where
the traces are the samples' own window-1 extractions, both rules are held to
that: the one that takes each sample's angle, and the window-1 one, which
decides a settled symbol as its own quadrants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duolink import (
    ChannelParams,
    EstimatorConfig,
    TrialConfig,
    VVConfig,
    apply_channel,
    apply_compensation,
    classify_cases,
    compensate_traces,
    count_quadrant_errors,
    draw_payload,
    extract_phase,
    quadrant_indices,
    wrap_quarter,
)
from duolink import _blocks, harness
from duolink.qpsk import GRAY_DISTANCE

QUARTER_PI = np.pi / 4
MARGIN = harness.MARGIN
ESTIMATORS = [EstimatorConfig(kappa=k) for k in (0.0, 1e-3, 8.0, 20.0)] + [
    EstimatorConfig(kappa_infinite=True)]

angles = st.floats(-QUARTER_PI, QUARTER_PI)
# how far from a boundary: on it, within rounding of it, or within a
# thousandth of MARGIN of MARGIN on either side
distances = st.one_of(
    st.just(0.0),
    st.floats(-1e-12, 1e-12),
    st.sampled_from([s * MARGIN * f for s in (-1, 1) for f in (1 - 1e-3, 1 + 1e-3)]),
)
# sample magnitudes: ordinary, near the power below which the settle pass
# leaves a sample open, and zero
magnitudes = st.one_of(
    st.just(1.0),
    st.floats(0.1, 3.0),
    st.sampled_from([2.0**-250 * f for f in (1 - 1e-9, 1 + 1e-9)] + [1e-160, 0.0]),
)
KINDS = ("free", "axis", "zero", "hull", "self", "wrap")


def build(kinds, j, edges, o, t, mags, quadrants, k_tx, means, own):
    """(rx1, rx2, trace1, trace2, k_tx1, k_tx2, means) of n symbols.

    Symbol c's quadrants, offsets o[:, c], traces t[:, c] and magnitudes
    are the drawn ones, except that one boundary of channel a = j[c] (the
    other is b) is placed at edges[c], which is +-pi/4 or near it:
    - axis: a's offset at the edge, which puts the sample at the boundary
      of its received decision (the key's received-right bit) only: the
      settle rule takes the sample's angle and has no boundary there;
    - zero: a's sample exactly on the axis that ends its quadrant
      counterclockwise, its zero component signed as the edge (so -pi and
      +pi both occur on the negative real axis), and both observations
      (and a's trace for the baseline) as far from a's decision boundary as
      the edge is from +-pi/4, on the side of that distance's sign;
    - hull: a's decision boundary at b's observation;
    - self: a's decision boundary at its own observation (and the
      baseline's at its own trace);
    - wrap: a's trace at a wrap edge of the mean removal.
    With own the traces are the samples' window-1 extractions, as a
    window-1 receiver has them, so the boundaries are placed by moving the
    samples; otherwise the traces are apart from the samples, as a wider
    window gives them. Either way the settle pass sees only the traces.
    """
    o = np.array(o, dtype=float)
    t = o if own else np.array(t, dtype=float)
    m = means or (0.0, 0.0)
    for c, (kind, a, edge) in enumerate(zip(kinds, j, edges)):
        b = 1 - a
        if kind == "axis":
            o[a, c] = edge
        elif kind == "zero":
            # a compensated decision boundary of a's sample is at a rotation
            # of -m[a], and its baseline's at a trace of 0
            distance = edge - np.copysign(QUARTER_PI, edge)
            t[a, c] = distance
            t[b, c] = m[b] - m[a] + distance
        elif kind == "hull":
            t[b, c] = o[a, c] - m[a] + m[b] - edge
        elif kind == "self":
            t[a, c] = o[a, c] - edge
        elif kind == "wrap":
            t[a, c] = m[a] + edge
    rx = np.asarray(mags) * np.exp(1j * (QUARTER_PI + np.asarray(quadrants) * np.pi / 2 + o))
    for c in np.flatnonzero(np.asarray(kinds) == "zero"):
        a, mag, zero = j[c], mags[j[c]][c], np.copysign(0.0, edges[c])
        rx[a, c] = [complex(zero, mag), complex(-mag, zero), complex(zero, -mag),
                    complex(mag, zero)][quadrants[a][c]]
    if own:
        t = np.array([extract_phase(z, VVConfig(window=1)) for z in rx])
    k_tx = np.asarray(k_tx, dtype=np.uint8)
    return rx[0], rx[1], t[0], t[1], k_tx[0], k_tx[1], means


@st.composite
def receptions(draw):
    """Small receptions from build, one boundary per symbol."""
    n = draw(st.integers(1, 12))

    def pairs(values):
        return [[draw(values) for _ in range(n)] for _ in range(2)]

    return build(
        kinds=[draw(st.sampled_from(KINDS)) for _ in range(n)],
        j=[draw(st.integers(0, 1)) for _ in range(n)],
        edges=[draw(st.sampled_from([-QUARTER_PI, QUARTER_PI])) + draw(distances)
               for _ in range(n)],
        o=pairs(angles), t=pairs(angles), mags=pairs(magnitudes),
        quadrants=pairs(st.integers(0, 3)), k_tx=pairs(st.integers(0, 3)),
        means=draw(st.none() | st.tuples(angles, angles)), own=draw(st.booleans()))


def settle(rx1, rx2, t1, t2, k_tx1, k_tx2, means, per_symbol):
    """The reception of one settle pass over all of the given arrays, paired
    sample by sample, as a trial restricts its pass."""
    whole = harness._settle_pass(rx1, rx2, t1, t2, k_tx1, k_tx2, means, per_symbol, 0)
    return harness._restrict(whole, 0, rx1.size, 0, False)


def rules(rx1, rx2, t1, t2):
    """The settle rules that hold for these traces: the general one (False),
    and the window-1 one (True) where the traces are the samples' own
    window-1 extractions, as a window-1 receiver's are."""
    own = all(np.array_equal(t, extract_phase(z, VVConfig(window=1)))
              for z, t in ((rx1, t1), (rx2, t2)))
    return (False, True) if own else (False,)


def full_evaluation(rx1, rx2, t1, t2, means, estimator):
    """Every symbol's compensated decisions, rotated and decided. The mean
    removal, when means are given, rotates each stream by minus its mean and
    wraps each trace less its mean."""
    if means is not None:
        m1, m2 = means
        rx1, rx2 = rx1 * np.exp(-1j * m1), rx2 * np.exp(-1j * m2)
        t1, t2 = wrap_quarter(t1 - m1), wrap_quarter(t2 - m2)
    comp1, comp2 = compensate_traces(rx1, rx2, t1, t2, estimator)
    return quadrant_indices(comp1), quadrant_indices(comp2)


def baseline_evaluation(rx1, rx2, t1, t2):
    return (quadrant_indices(apply_compensation(rx1, t1)),
            quadrant_indices(apply_compensation(rx2, t2)))


@settings(max_examples=300, deadline=None)
@given(receptions())
def test_settled_decisions_equal_full_evaluation(reception):
    for per_symbol in rules(*reception[:4]):
        check_decisions(reception, per_symbol)


def check_decisions(reception, per_symbol) -> int:
    """Each symbol's settle pass of its own: an open symbol's key, or a
    settled symbol's decisions, which must be the full evaluation's for every
    estimator and the baseline's. Returns the number of settled symbols."""
    rx1, rx2, t1, t2, k_tx1, k_tx2, means = reception
    full = [full_evaluation(rx1, rx2, t1, t2, means, est) for est in ESTIMATORS]
    base1, base2 = baseline_evaluation(rx1, rx2, t1, t2)
    k_rx1, k_rx2 = quadrant_indices(rx1), quadrant_indices(rx2)
    settled = 0
    for s in range(rx1.size):
        one = slice(s, s + 1)
        r = settle(rx1[one], rx2[one], t1[one], t2[one], k_tx1[one], k_tx2[one], means,
                   per_symbol)
        # open or settled, the symbol's baseline errors are its decisions'
        assert r.baseline_errors == (GRAY_DISTANCE[k_tx1[s], base1[s]],
                                     GRAY_DISTANCE[k_tx2[s], base2[s]]), s
        received = (k_rx1[s] == k_tx1[s], k_rx2[s] == k_tx2[s])
        if r.key.size:
            # an open symbol: its key
            assert r.settled.sum() == 0
            (key,) = r.key
            assert (key >> 4, key >> 2 & 3) == (k_tx1[s], k_tx2[s])
            assert (key >> 1 & 1, key & 1) == received
            continue
        # a settled symbol: its code's decisions are the baseline's as well
        # as every estimator's (see MARGIN)
        (code,) = np.flatnonzero(r.settled)
        assert (code >> 8, code >> 6 & 3) == (k_tx1[s], k_tx2[s])
        assert (code >> 5 & 1, code >> 4 & 1) == received
        assert (code >> 2 & 3, code & 3) == (base1[s], base2[s]), s
        for est, (post1, post2) in zip(ESTIMATORS, full):
            assert (code >> 2 & 3, code & 3) == (post1[s], post2[s]), (s, est)
        settled += 1
    return settled


@pytest.mark.parametrize("means", [None, (0.3, -0.6)])
def test_window_one_rule_at_its_edges(means):
    """The window-1 rule (see harness.MARGIN) where its conditions turn, on
    traces that are the samples' own window-1 extractions: an observation
    t - m within a few MARGIN of -+pi/4, |obs1 - obs2| within a few MARGIN
    of pi/4, both at once, and a sample on an axis or within rounding of
    one, whose trace is pi/4 or within rounding of -pi/4 (with these means,
    channel 1's observation is then inside). Every settled symbol takes the
    float pipeline's decisions, for each estimator and for the baseline."""
    rng = np.random.default_rng(34)
    n = 1200
    m = np.zeros((2, 1)) if means is None else np.array(means)[:, None]
    # distances from an edge, inside it for the positive ones
    near = MARGIN * np.array([-3, -1 - 1e-3, -1 + 1e-3, 0, 1 - 1e-3, 1 + 1e-3, 3])
    d = rng.choice(near, (2, n)) + rng.uniform(-1e-12, 1e-12, (2, n)) * rng.integers(0, 2, (2, n))
    kind, a, side = rng.integers(0, 4, n), rng.integers(0, 2, n), rng.choice([-1, 1], n)
    o = rng.uniform(-QUARTER_PI, QUARTER_PI, (2, n))  # the observations t - m
    c = np.arange(n)
    edge, width, both = (kind == 0), (kind == 1), (kind == 2)
    o[a[edge], c[edge]] = side[edge] * (QUARTER_PI - d[0, edge])
    o[a[both], c[both]] = side[both] * (QUARTER_PI - d[0, both])
    apart = width | both
    o[1 - a[apart], c[apart]] = o[a[apart], c[apart]] - side[apart] * (QUARTER_PI + d[1, apart])
    quadrants, mags = rng.integers(0, 4, (2, n)), rng.choice([1.0, 0.5], (2, n))
    rx = mags * np.exp(1j * (QUARTER_PI + quadrants * np.pi / 2 + o + m))
    # kind 3: channel a's sample on the axis that starts its quadrant, exactly
    # (with the zero's sign of its quadrant) or turned by +-1e-17
    axis = kind == 3
    on = np.array([1, 1j, -1, -1j])[quadrants[a[axis], c[axis]]] * mags[a[axis], c[axis]]
    on *= rng.choice([1.0, np.exp(1e-17j), np.exp(-1e-17j)], on.size)
    rx[a[axis], c[axis]] = on
    t = [extract_phase(z, VVConfig(window=1)) for z in rx]
    k_tx = rng.integers(0, 4, (2, n)).astype(np.uint8)
    reception = (rx[0], rx[1], t[0], t[1], k_tx[0], k_tx[1], means)
    settled = check_decisions(reception, True)
    assert 0 < settled < n


@settings(max_examples=150, deadline=None)
@given(receptions())
def test_counts_equal_full_evaluation(reception):
    check_counts(reception)


def check_counts(reception):
    """The reports of the settle pass and the detection of the open symbols
    count what the full evaluation counts, for each estimator setting and
    each rule that holds for the traces."""
    for per_symbol in rules(*reception[:4]):
        check_rule_counts(reception, per_symbol)


def check_rule_counts(reception, per_symbol):
    rx1, rx2, t1, t2, k_tx1, k_tx2, means = reception
    n = rx1.size
    r = settle(rx1, rx2, t1, t2, k_tx1, k_tx2, means, per_symbol)
    assert r.valid_symbols == n
    k_rx1, k_rx2 = quadrant_indices(rx1), quadrant_indices(rx2)
    base1, base2 = baseline_evaluation(rx1, rx2, t1, t2)
    for est in ESTIMATORS:
        report = harness._detect(r, TrialConfig(n_symbols=n, estimator=est))
        post1, post2 = full_evaluation(rx1, rx2, t1, t2, means, est)
        assert report.errors_compensated == (
            count_quadrant_errors(k_tx1, post1), count_quadrant_errors(k_tx2, post2))
        assert report.errors_uncompensated == (
            count_quadrant_errors(k_tx1, base1), count_quadrant_errors(k_tx2, base2))
        cases = classify_cases(k_tx1, k_tx2, k_rx1, k_rx2, post1, post2)
        assert report.case_counts == tuple(np.bincount(cases, minlength=4).tolist())


def test_counts_at_scale_equal_full_evaluation():
    """Twenty-four thousand symbols, one boundary each, drawn from one seed,
    so that the hull's exact ends and ties within rounding are met many times
    (about four thousand per kind)."""
    rng = np.random.default_rng(16)
    n = 24_000
    distance = np.choose(rng.integers(0, 4, n), [
        0.0, rng.uniform(-1e-12, 1e-12, n), MARGIN * (1 - 1e-3), MARGIN * (1 + 1e-3)])
    parts = dict(
        kinds=rng.choice(KINDS, n), j=rng.integers(0, 2, n),
        edges=rng.choice([-QUARTER_PI, QUARTER_PI], n) + distance * rng.choice([-1, 1], n),
        o=rng.uniform(-QUARTER_PI, QUARTER_PI, (2, n)),
        t=rng.uniform(-QUARTER_PI, QUARTER_PI, (2, n)),
        mags=rng.choice([1.0, 0.5, 2.0**-250, 0.0], (2, n), p=[0.7, 0.2, 0.05, 0.05]),
        quadrants=rng.integers(0, 4, (2, n)), k_tx=rng.integers(0, 4, (2, n)))
    for means in (None, (0.3, -0.6)):
        for own in (True, False):
            check_counts(build(**parts, means=means, own=own))


@pytest.mark.parametrize("means", [(0.3, -0.6), (-0.05, 0.7), (0.0, 0.0)])
def test_mean_removed_observations_at_the_wrap_edges(means):
    """Observations t - m at +-pi/4 +- MARGIN * (1 +- 1e-3), and at +-pi/4
    within rounding, on traces apart from the samples, as a window above 1
    gives them. The settle pass takes t - m unwrapped, so a symbol is open
    unless both lie more than MARGIN inside (-pi/4, pi/4), where wrapping
    leaves them; and the counts equal the full evaluation's."""
    rng = np.random.default_rng(24)
    n = 6000
    inside = [s * (QUARTER_PI - MARGIN * (1 + 1e-3)) for s in (-1, 1)]
    at_edge = [s * (QUARTER_PI + d) for s in (-1, 1)
               for d in (0.0, -MARGIN * (1 - 1e-3), MARGIN * (1 - 1e-3), MARGIN * (1 + 1e-3))]

    def reception(edges):
        size = len(edges)
        return build(kinds=["wrap"] * size, j=rng.integers(0, 2, size), edges=edges,
                     o=rng.uniform(-QUARTER_PI, QUARTER_PI, (2, size)),
                     t=rng.uniform(-QUARTER_PI, QUARTER_PI, (2, size)),
                     mags=np.ones((2, size)), quadrants=rng.integers(0, 4, (2, size)),
                     k_tx=rng.integers(0, 4, (2, size)), means=means, own=False)

    rx1, rx2, t1, t2, k_tx1, k_tx2, _ = reception(rng.choice(at_edge, n // 2))
    r = settle(rx1, rx2, t1, t2, k_tx1, k_tx2, means, False)
    assert r.settled.sum() == 0
    assert r.key.size == n // 2
    check_counts(reception(rng.choice(inside + at_edge, n)))


@st.composite
def restricted_passes(draw, with_means):
    """(arrays, means, keep, lo, hi): the arrays of a settle pass, from
    build's boundary receptions or from a channel realization of up to 300
    symbols at window 1 or 33, with means or without, and a nonempty range
    [lo, hi) that leaves out no more than the `keep` symbols at either end."""
    if draw(st.booleans()):
        *arrays, means = draw(receptions())
        if with_means and means is None:
            means = (draw(angles), draw(angles))
    else:
        n = draw(st.integers(1, 300))
        params = ChannelParams(sigma_common=draw(st.floats(0.0, 0.6)),
                               sigma_additive=draw(st.floats(0.0, 0.3)),
                               seed=draw(st.integers(0, 2**32 - 1)))
        k_tx1, k_tx2 = draw_payload(n, params)
        rx1, rx2 = apply_channel(k_tx1, k_tx2, params)
        vv = VVConfig(window=draw(st.sampled_from([1, 33])))
        t1, t2 = extract_phase(rx1, vv), extract_phase(rx2, vv)
        arrays, means = [rx1, rx2, t1, t2, k_tx1, k_tx2], (t1.mean(), t2.mean())
    if not with_means:
        means = None
    n = arrays[0].size
    keep = draw(st.integers(0, n // 2))
    lo = draw(st.integers(0, keep))
    hi = draw(st.integers(max(n - keep, lo + 1), n))
    return arrays, means, keep, lo, hi


@pytest.mark.parametrize("with_means", [False, True])
@pytest.mark.parametrize("block", [1, 7, 64, _blocks.BLOCK])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restriction_equals_pass_over_its_range(block, with_means, data):
    """A pass restricted to [lo, hi) is the pass over just that range's
    arrays: the same settled histogram, baseline errors and open symbols,
    their gathered samples and observations byte for byte, at every block
    size (the ends then fall in one block or span several)."""
    arrays, means, keep, lo, hi = data.draw(restricted_passes(with_means))
    # the window-1 rule where it holds, as a window-1 receiver takes it
    per_symbol = rules(*arrays[:4])[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blocks, "BLOCK", block)
        got = harness._restrict(harness._settle_pass(*arrays, means, per_symbol, keep), lo, hi,
                                3, True)
        want = settle(*(a[lo:hi] for a in arrays), means, per_symbol)
    assert (got.valid_symbols, got.estimated_lag, got.lag_confident) == (hi - lo, 3, True)
    assert got.settled.tobytes() == want.settled.tobytes()
    assert got.baseline_errors == want.baseline_errors
    for name in ("rx1", "rx2", "obs1", "obs2", "key"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_restriction_beyond_the_kept_ends_rejected():
    rx1, rx2, t1, t2, k_tx1, k_tx2, _ = build(
        kinds=["free"] * 6, j=[0] * 6, edges=[QUARTER_PI] * 6, o=np.zeros((2, 6)),
        t=np.zeros((2, 6)), mags=np.ones((2, 6)), quadrants=np.zeros((2, 6), int),
        k_tx=np.zeros((2, 6), int), means=None, own=True)
    whole = harness._settle_pass(rx1, rx2, t1, t2, k_tx1, k_tx2, None, True, 2)
    assert harness._restrict(whole, 2, 4, 0, False).valid_symbols == 2
    for lo, hi in ((3, 6), (0, 3)):
        with pytest.raises(ValueError, match="kept end symbols"):
            harness._restrict(whole, lo, hi, 0, False)
