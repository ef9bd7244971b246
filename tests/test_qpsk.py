"""Tests for QPSK mapping, quadrant decisions and error counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duolink import (
    SYMBOLS,
    _blocks,
    count_quadrant_errors,
    gray_indices,
    quadrant_indices,
)
from oracles import count_errors, demap_symbols, quadrant_reference

ISQ2 = 1 / np.sqrt(2)

# Components on and next to the decision boundaries.
EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]


def per_sample_quadrant(z: complex) -> int:
    """quadrant_indices' rule for one sample: below the real axis k = 3 right
    of the imaginary axis, else 2; on or above it k = 1 left of it, else 0."""
    if z.imag < 0:
        return 3 if z.real > 0 else 2
    return 1 if z.real < 0 else 0


class TestMapSymbols:
    """Bits map to symbols in one way, SYMBOLS[gray_indices(bits)]."""

    def test_convention_anchor_quadrant_one(self):
        """Bits 00 map to the quadrant-I center (1+i)/sqrt(2)."""
        np.testing.assert_allclose(SYMBOLS[gray_indices([0, 0])], [ISQ2 + 1j * ISQ2], atol=1e-12)

    def test_gray_neighbor_quadrant_two(self):
        """Bits 01 map to the quadrant-II center (-1+i)/sqrt(2)."""
        np.testing.assert_allclose(SYMBOLS[gray_indices([0, 1])], [-ISQ2 + 1j * ISQ2], atol=1e-12)

    def test_gray_mapping_quadrant_three(self):
        """Bits 11 map to the quadrant-III center (-1-i)/sqrt(2)."""
        np.testing.assert_allclose(SYMBOLS[gray_indices([1, 1])], [-ISQ2 - 1j * ISQ2], atol=1e-12)

    def test_unit_magnitude(self):
        symbols = SYMBOLS[gray_indices([0, 0, 0, 1, 1, 1, 1, 0])]
        np.testing.assert_allclose(np.abs(symbols), 1.0, atol=1e-12)

    def test_phases_are_odd_quarter_pi_multiples(self):
        symbols = SYMBOLS[gray_indices([0, 0, 0, 1, 1, 1, 1, 0])]
        ratio = np.angle(symbols) / (np.pi / 4)
        np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-12)
        assert np.all(np.round(ratio).astype(int) % 2 == 1)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            gray_indices([0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            gray_indices([0, 2])

    def test_bijection_on_bit_pairs(self):
        """The four bit pairs map onto the four distinct quadrant centers."""
        symbols = SYMBOLS[gray_indices([0, 0, 0, 1, 1, 1, 1, 0])]
        assert len(np.unique(np.round(symbols, 9))) == 4
        np.testing.assert_allclose(sorted(np.angle(symbols)),
                                   sorted(np.angle(SYMBOLS)), atol=1e-12)

    def test_gray_property_adjacent_quadrants(self):
        """Adjacent quadrants differ in exactly one bit, checked exhaustively."""
        pair_for_k = {}
        for b0 in (0, 1):
            for b1 in (0, 1):
                k = int(quadrant_indices(SYMBOLS[gray_indices([b0, b1])])[0])
                pair_for_k[k] = (b0, b1)
        for k in range(4):
            a = pair_for_k[k]
            b = pair_for_k[(k + 1) % 4]
            assert (a[0] != b[0]) + (a[1] != b[1]) == 1


class TestDemapSymbols:
    """Hard decisions are quadrant_indices; the bits they stand for are
    checked against the bit-level oracle."""

    def test_quadrant_one_interior(self):
        np.testing.assert_array_equal(quadrant_indices([0.9 + 0.1j]), [0])

    def test_quadrant_three_interior(self):
        np.testing.assert_array_equal(quadrant_indices([-0.3 - 0.7j]), [2])

    def test_round_trip_all_symbols(self):
        bits = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        k = gray_indices(bits)
        np.testing.assert_array_equal(demap_symbols(SYMBOLS[k]), bits)
        np.testing.assert_array_equal(quadrant_indices(SYMBOLS[k]), k)

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=200).filter(
        lambda b: len(b) % 2 == 0))
    def test_round_trip_random_streams(self, bits):
        bits = np.array(bits)
        k = gray_indices(bits)
        np.testing.assert_array_equal(demap_symbols(SYMBOLS[k]), bits)
        np.testing.assert_array_equal(quadrant_indices(SYMBOLS[k]), k)

    def test_axis_ties_toward_smaller_k(self):
        """Boundary samples decide for the adjacent quadrant with smaller k."""
        ties = {1.0 + 0j: 0, 1j: 0, -1.0 + 0j: 1, -1j: 2}
        for z, k in ties.items():
            assert quadrant_indices([z])[0] == k

    def test_matches_nested_sign_reference(self):
        """Random samples plus every combination of 0, -0.0, +-1, +-tiny and
        +-inf components: both axes, the origin and signed zeros."""
        rng = np.random.default_rng(0)
        edges = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, np.inf, -np.inf]
        z = np.concatenate([
            rng.standard_normal(10**5) + 1j * rng.standard_normal(10**5),
            np.array([complex(re, im) for re in edges for im in edges]),
        ])
        k = quadrant_indices(z)
        assert k.dtype == np.uint8
        np.testing.assert_array_equal(k, quadrant_reference(z))

    def test_zero_sample_flagged(self):
        np.testing.assert_array_equal(quadrant_indices([0j, 0.5 + 0.5j]), [0, 0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True)
                    | st.sampled_from([complex(re, im) for re in EDGES for im in EDGES]),
                    max_size=300),
           st.sampled_from([1, 7, 64]), st.sampled_from([1, 2, 3]))
    def test_pooled_blocks_equal_per_sample_rule(self, samples, block, threads):
        """Decided in blocks on the pool, every sample gets the uint8 that the
        documented rule gives it alone: axis ties, signed zeros and NaN too."""
        z = np.array(samples, dtype=complex)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", block)
            mp.setattr(_blocks, "THREADS", threads)
            k = quadrant_indices(z)
        expected = np.array([per_sample_quadrant(x) for x in samples], dtype=np.uint8)
        assert k.tobytes() == expected.tobytes()


class TestCountErrors:
    """Bit errors counted from quadrant indices equal a plain bit compare of
    the Gray bit streams."""

    def test_identical_streams(self):
        k = gray_indices([0, 1, 1, 0])
        assert count_quadrant_errors(k, k) == 0

    def test_one_flip_in_thousand(self):
        tx = np.zeros(1000, dtype=int)
        rx = tx.copy()
        rx[123] = 1
        assert count_quadrant_errors(gray_indices(tx), gray_indices(rx)) == 1
        assert count_errors(tx, rx) == (1, pytest.approx(0.001))

    def test_complemented_stream(self):
        """Complementing both bits moves a symbol to the opposite quadrant."""
        tx = np.array([0, 1, 0, 1])
        assert count_quadrant_errors(gray_indices(tx), gray_indices(1 - tx)) == 4

    def test_length_mismatch_rejected(self):
        """Streams of equal size but different shape are rejected too."""
        with pytest.raises(ValueError, match="differ"):
            count_quadrant_errors([[0, 1]], [0, 1])


class TestCountQuadrantErrors:
    def test_every_quadrant_pair(self):
        """Each (k_tx, k_rx) pair costs the Gray distance of the two labels."""
        k = np.arange(4)
        k_tx, k_rx = np.repeat(k, 4), np.tile(k, 4)
        for a, b in zip(k_tx, k_rx):
            want = count_errors(demap_symbols(SYMBOLS[[a]]), demap_symbols(SYMBOLS[[b]]))[0]
            assert count_quadrant_errors([a], [b]) == want
        assert count_quadrant_errors(k_tx, k_rx) == 16

    @given(st.integers(0, 2**32 - 1), st.integers(0, 500))
    def test_matches_bit_level_count(self, seed, n):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=2 * n)
        z = SYMBOLS[gray_indices(bits)] * np.exp(1j * rng.normal(0, 0.8, n))
        errors = count_quadrant_errors(gray_indices(bits), quadrant_indices(z))
        assert errors == count_errors(bits, demap_symbols(z))[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            count_quadrant_errors([0, 1], [0, 1, 2])

    @pytest.mark.parametrize("shape", [(2, 2), (5, 6), (2, 3, 5)])
    def test_any_shape_counts_as_flattened(self, shape):
        """Equal-shape arrays of any dimensions, as classify_cases takes,
        count as their flattened pairs."""
        rng = np.random.default_rng(4)
        k_tx, k_rx = rng.integers(0, 4, shape), rng.integers(0, 4, shape)
        assert count_quadrant_errors(k_tx, k_rx) == count_quadrant_errors(
            k_tx.ravel(), k_rx.ravel())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="quadrant"):
            count_quadrant_errors([0, 4], [0, 1])

    @pytest.mark.parametrize("k_tx, k_rx, name", [
        (np.array([0.5]), np.array([1]), "k_tx"),
        (np.array([1]), np.array([1.0]), "k_rx"),
        (np.array([True]), np.array([1]), "k_tx"),
        (np.array([], dtype=float), np.array([], dtype=np.uint8), "k_tx"),
    ])
    def test_non_integer_rejected(self, k_tx, k_rx, name):
        """A float or bool index is not truncated or cast to a quadrant."""
        with pytest.raises(ValueError, match=f"{name} must be an array of integers"):
            count_quadrant_errors(k_tx, k_rx)
