"""Tests for fourth-power phase extraction and phase wrapping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duolink import (
    SYMBOLS,
    VVConfig,
    extract_phase,
    gray_indices,
    wrap_quarter,
)
from duolink import _blocks
from oracles import phase_reference, wrap_reference

QUARTER_PI = np.pi / 4
# the edges of wrap_quarter's range and of the quarter turns np.mod meets,
# signed zeros, subnormals and the largest floats
EDGES = [s * e for s in (1.0, -1.0) for e in (
    QUARTER_PI, 3 * QUARTER_PI, np.pi / 2, np.pi, 5 * QUARTER_PI, 0.0, 5e-324, 2.2250738585072014e-308,
    1e300, np.finfo(float).max)]


def random_qpsk(n, seed=0):
    rng = np.random.default_rng(seed)
    return SYMBOLS[gray_indices(rng.integers(0, 2, size=2 * n))]


class TestExtractPhase:
    @pytest.mark.parametrize("window", [1, 5, 33])
    def test_noiseless_unrotated_extracts_zero(self, window):
        stream = random_qpsk(512)
        trace = extract_phase(stream, VVConfig(window=window, remove_mean=False))
        np.testing.assert_allclose(trace, 0.0, atol=1e-12)

    def test_constant_rotation_recovered(self):
        stream = random_qpsk(256) * np.exp(0.3j)
        trace = extract_phase(stream, VVConfig(window=1, remove_mean=False))
        np.testing.assert_allclose(trace, 0.3, atol=1e-9)

    def test_boundary_rotation_maps_to_plus_quarter_pi(self):
        stream = random_qpsk(64) * np.exp(1j * QUARTER_PI)
        trace = extract_phase(stream, VVConfig(window=1, remove_mean=False))
        np.testing.assert_allclose(trace, QUARTER_PI, atol=1e-12)

    @pytest.mark.parametrize("window", [1, 3])
    def test_samples_on_an_axis_map_to_plus_quarter_pi(self, window):
        """A sample on an axis has a real positive fourth power with an
        imaginary part of +0, whose negation has the angle -pi: the
        extracted phase is +pi/4, the interval's included end, not -pi/4.
        The oracle follows the same rule."""
        samples = np.array([1 + 0j, 1j, 2 + 0j, -3 + 0j, -1j])
        trace = extract_phase(samples, VVConfig(window=window, remove_mean=False))
        assert trace.tolist() == [QUARTER_PI] * 5
        assert phase_reference(samples, window).tolist() == [QUARTER_PI] * 5

    def test_data_independence(self):
        """All four symbols extract the identical phase under one rotation."""
        traces = []
        for k in range(4):
            bits = {0: [0, 0], 1: [0, 1], 2: [1, 1], 3: [1, 0]}[k] * 64
            stream = SYMBOLS[gray_indices(bits)] * np.exp(0.2j)
            traces.append(extract_phase(stream, VVConfig(window=1, remove_mean=False)))
        for other in traces[1:]:
            np.testing.assert_allclose(traces[0], other, atol=1e-12)

    @given(st.floats(min_value=-0.78, max_value=0.78))
    def test_commutes_with_global_rotation(self, theta):
        stream = SYMBOLS[gray_indices([0, 0, 0, 1, 1, 1, 1, 0] * 4)]
        base = extract_phase(stream, VVConfig(window=1, remove_mean=False))
        rotated = extract_phase(stream * np.exp(1j * theta),
                                VVConfig(window=1, remove_mean=False))
        np.testing.assert_allclose(rotated, wrap_quarter(base + theta), atol=1e-9)

    def test_window_reduces_variance(self):
        """Averaging shrinks the phase-estimate variance on noisy input."""
        n = 10**5
        rng = np.random.default_rng(17)
        stream = random_qpsk(n, seed=4) + 0.2 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        var1 = extract_phase(stream, VVConfig(window=1, remove_mean=False)).var()
        var33 = extract_phase(stream, VVConfig(window=33, remove_mean=False)).var()
        assert var33 < var1

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            extract_phase(np.array([], dtype=complex), VVConfig(window=1))

    @pytest.mark.parametrize("window", [1, 33])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, np.nan), complex(-np.inf, 0)])
    def test_non_finite_samples_rejected(self, window, bad):
        """A non-finite sample is named at extraction, not passed on as a
        NaN phase for a later stage to report under another name."""
        stream = np.array([bad] * 4 + [1 + 1j] * 4, dtype=complex)
        with pytest.raises(ValueError, match="samples must be finite"):
            extract_phase(stream, VVConfig(window=window))

    @pytest.mark.parametrize("sample, window, named", [
        (1e100 + 1e100j, 1, "samples 0$"),
        (3e80 + 1e80j, 1, "samples 0$"),
        (1e100 + 1e100j, 3, "samples 0, 1$"),
    ])
    def test_overflowing_fourth_power_rejected(self, sample, window, named):
        """A finite sample whose fourth power overflows fails, naming the
        samples whose windows it reaches, with no numpy warning, instead of
        giving them a wrong phase."""
        stream = np.array([sample, 1 + 1j, 1 - 1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                extract_phase(stream, VVConfig(window=window, remove_mean=False))

    def test_overflowing_window_sum_rejected(self):
        """Fourth powers that are finite alone but overflow a window's sum
        fail at that window, not at window 1."""
        stream = np.full(40, 6e76 + 0j)
        trace = extract_phase(stream, VVConfig(window=1, remove_mean=False))
        np.testing.assert_array_equal(trace, np.full(40, QUARTER_PI))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow at samples 0, 1, 2, 3, 4, ...$"):
                extract_phase(stream, VVConfig(window=33, remove_mean=False))

    def test_zero_window_flagged(self):
        trace = extract_phase(np.zeros(8, complex), VVConfig(window=1, remove_mean=False))
        np.testing.assert_array_equal(trace, np.zeros(8))

    def test_range_invariant(self):
        rng = np.random.default_rng(8)
        stream = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        trace = extract_phase(stream, VVConfig(window=5, remove_mean=False))
        assert np.all(trace > -QUARTER_PI) and np.all(trace <= QUARTER_PI)

    def test_stream_shorter_than_window(self):
        """Output length follows the stream even when the window is wider."""
        stream = random_qpsk(5) * np.exp(0.25j)
        trace = extract_phase(stream, VVConfig(window=33, remove_mean=False))
        assert trace.shape == (5,)
        np.testing.assert_allclose(trace, 0.25, atol=1e-9)


class TestWindowSums:
    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("window", [1, 3, 5, 7, 33, 35])
    def test_equal_explicit_sums_to_1e_15_rad(self, monkeypatch, window, block):
        """extract_phase sums each window by a fixed tree of pairwise sums;
        the oracle adds the window's fourth powers one by one. On rotated
        QPSK with noise of the benchmark's size the sums are far from
        cancelling, so the two phases agree to 1e-15 rad (on the circle of
        period pi/2 the phases live on), at the stream's ends, for streams
        shorter than the window and across block edges."""
        monkeypatch.setattr(_blocks, "BLOCK", block)
        rng = np.random.default_rng(100 * window + block)
        lengths = {1, 2, window - 1, window, window + 1, block + 1, 2 * block + window // 2,
                   3 * block + window} - {0}
        for n in sorted(lengths):
            stream = random_qpsk(n, seed=n) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            stream += 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            got = extract_phase(stream, VVConfig(window=window, remove_mean=False))
            apart = wrap_reference(got - phase_reference(stream, window))
            assert np.abs(apart).max() <= 1e-15, n


class TestVVConfig:
    @pytest.mark.parametrize("window", [0, -1, 2, 10])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValueError):
            VVConfig(window=window)

    def test_bool_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            VVConfig(window=True)


def beside(edge_and_direction):
    """The float next to an edge, towards +-inf."""
    with np.errstate(over="ignore"):
        return float(np.nextafter(*edge_and_direction))


class TestWrapQuarter:
    def test_anchor_points(self):
        assert wrap_quarter(QUARTER_PI) == pytest.approx(QUARTER_PI, abs=0)
        assert wrap_quarter(-QUARTER_PI) == pytest.approx(QUARTER_PI, abs=1e-15)
        assert wrap_quarter(0.3) == pytest.approx(0.3, abs=1e-15)
        assert wrap_quarter(1.0) == pytest.approx(1.0 - np.pi / 2, abs=1e-15)

    @settings(max_examples=300)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from(EDGES),
        st.tuples(st.sampled_from(EDGES), st.sampled_from([np.inf, -np.inf])).map(beside),
        st.floats(-3 * QUARTER_PI, 3 * QUARTER_PI)), max_size=20))
    def test_bits_equal_np_mod_form(self, values):
        """The bits of the np.mod expression, kept here apart from the
        implementation, on and beside the edges, and over the whole float
        range."""
        x = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):
            expected = QUARTER_PI - np.mod(QUARTER_PI - x, np.pi / 2)
            expected = np.where(expected <= -QUARTER_PI, expected + np.pi / 2, expected)
            assert wrap_quarter(x).tobytes() == expected.tobytes()

    @given(st.floats(min_value=-50, max_value=50))
    def test_always_in_half_open_interval(self, x):
        w = float(wrap_quarter(x))
        assert -QUARTER_PI < w <= QUARTER_PI
        # congruent modulo pi/2
        assert abs((x - w) / (np.pi / 2) - round((x - w) / (np.pi / 2))) < 1e-6

