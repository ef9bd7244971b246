"""Tests for the joint common-phase estimator and compensation pipeline."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from duolink import (
    ChannelParams,
    EstimatorConfig,
    VVConfig,
    apply_channel,
    apply_compensation,
    compensate_pair,
    count_errors,
    demap_symbols,
    estimate_common_phase,
    map_symbols,
)
from oracles import weighted_phase_reference

# direct evaluation of the weighting formula at kappa=1, phi=(0.2, 0.4)
KAPPA1_EXPECTED = 0.2900332005375044

phases = st.floats(min_value=-0.785, max_value=0.785)
kappas = st.floats(min_value=0.0, max_value=50.0)


class TestEstimateCommonPhase:
    def test_kappa_zero_is_arithmetic_mean(self):
        est = estimate_common_phase(0.2, 0.4, EstimatorConfig(kappa=0.0))
        assert est.value == pytest.approx(0.3, abs=1e-12)

    def test_border_case_picks_minimum_magnitude(self):
        """kappa -> infinity returns the observation of smaller |phase|."""
        est = estimate_common_phase(0.2, -0.1, EstimatorConfig(kappa_infinite=True))
        assert est.value == -0.1

    def test_border_case_tie_returns_channel_one(self):
        est = estimate_common_phase(0.3, -0.3, EstimatorConfig(kappa_infinite=True))
        assert est.value == 0.3

    def test_kappa_one_hand_value(self):
        est = estimate_common_phase(0.2, 0.4, EstimatorConfig(kappa=1.0))
        assert est.value == pytest.approx(0.29003, abs=1e-5)
        assert est.value == pytest.approx(KAPPA1_EXPECTED, abs=1e-15)
        assert est.value == pytest.approx(
            weighted_phase_reference(0.2, 0.4, 1.0), abs=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            estimate_common_phase(bad, 0.1, EstimatorConfig())
        with pytest.raises(ValueError, match="finite"):
            estimate_common_phase(0.1, bad, EstimatorConfig())

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        p1 = rng.uniform(-0.7, 0.7, 64)
        p2 = rng.uniform(-0.7, 0.7, 64)
        cfg = EstimatorConfig(kappa=2.5)
        vec = estimate_common_phase(p1, p2, cfg)
        for i in range(64):
            scalar = estimate_common_phase(p1[i], p2[i], cfg).value
            assert vec.value[i] == pytest.approx(scalar, abs=1e-15)

    def test_large_kappa_no_overflow(self):
        """exp weighting stays finite even for kappa where exp(-k|phi|) underflows."""
        est = estimate_common_phase(0.3, 0.5, EstimatorConfig(kappa=1e6))
        assert np.isfinite(est.value)
        assert est.value == 0.3

    @given(phases, phases, kappas)
    def test_convex_combination(self, p1, p2, kappa):
        est = estimate_common_phase(p1, p2, EstimatorConfig(kappa=kappa))
        assert min(p1, p2) - 1e-12 <= est.value <= max(p1, p2) + 1e-12

    @given(phases, phases, kappas)
    def test_symmetry(self, p1, p2, kappa):
        cfg = EstimatorConfig(kappa=kappa)
        assert (estimate_common_phase(p1, p2, cfg).value
                == estimate_common_phase(p2, p1, cfg).value)

    @given(phases, phases, kappas)
    def test_sign_equivariance(self, p1, p2, kappa):
        cfg = EstimatorConfig(kappa=kappa)
        assert (estimate_common_phase(-p1, -p2, cfg).value
                == -estimate_common_phase(p1, p2, cfg).value)

    def test_small_kappa_approaches_mean(self):
        est = estimate_common_phase(0.2, 0.4, EstimatorConfig(kappa=1e-12))
        assert est.value == pytest.approx(0.3, abs=1e-9)

    def test_huge_kappa_matches_border_mode(self):
        rng = np.random.default_rng(5)
        p1 = rng.uniform(-0.7, 0.7, 500)
        p2 = rng.uniform(-0.7, 0.7, 500)
        separated = np.abs(np.abs(p1) - np.abs(p2)) > 1e-3
        huge = estimate_common_phase(p1, p2, EstimatorConfig(kappa=1e6)).value
        border = estimate_common_phase(p1, p2, EstimatorConfig(kappa_infinite=True)).value
        np.testing.assert_array_equal(huge[separated], border[separated])


class TestEstimatorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"kappa": -1.0},
        {"kappa": float("nan")},
        {"kappa": float("inf")},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)


class TestApplyCompensation:
    def test_zero_estimates_identity(self):
        rx = map_symbols([0, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(apply_compensation(rx, np.zeros(3)), rx)

    def test_exact_cancellation(self):
        """Removing the true common phase recovers the transmit stream."""
        tx = map_symbols(np.tile([0, 1], 32))
        phi = np.linspace(-0.6, 0.6, 32)
        rx = tx * np.exp(1j * phi)
        np.testing.assert_allclose(apply_compensation(rx, phi), tx, atol=1e-12)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(3)
        rx = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        out = apply_compensation(rx, rng.uniform(-3, 3, 128))
        np.testing.assert_allclose(np.abs(out), np.abs(rx), atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            apply_compensation(np.ones(4, complex), np.zeros(3))


class TestCompensatePair:
    def test_zero_noise_identity(self):
        tx1 = map_symbols(np.tile([0, 1], 64))
        tx2 = map_symbols(np.tile([1, 1], 64))
        out1, out2 = compensate_pair(
            tx1, tx2, VVConfig(window=1, remove_mean=False),
            EstimatorConfig(kappa_infinite=True))
        np.testing.assert_allclose(out1, tx1, atol=1e-12)
        np.testing.assert_allclose(out2, tx2, atol=1e-12)

    def test_pure_common_phase_border_case_exact(self):
        """With only a shared |phi| < pi/4 rotation, both streams are
        recovered exactly and error free."""
        n = 2000
        rng = np.random.default_rng(12)
        bits1 = rng.integers(0, 2, 2 * n)
        bits2 = rng.integers(0, 2, 2 * n)
        tx1, tx2 = map_symbols(bits1), map_symbols(bits2)
        phi = rng.uniform(-0.7, 0.7, n)
        rx1, rx2 = apply_channel(tx1, tx2, ChannelParams(seed=0), phase=phi)
        out1, out2 = compensate_pair(
            rx1, rx2, VVConfig(window=1, remove_mean=False),
            EstimatorConfig(kappa_infinite=True))
        np.testing.assert_allclose(out1, tx1, atol=1e-12)
        np.testing.assert_allclose(out2, tx2, atol=1e-12)
        assert count_errors(bits1, demap_symbols(out1))[0] == 0
        assert count_errors(bits2, demap_symbols(out2))[0] == 0

    def test_cascaded_removes_block_mean(self):
        """A constant carrier offset disappears with remove_mean."""
        tx = map_symbols(np.tile([0, 1, 1, 0], 64))
        rx = tx * np.exp(0.2j)
        out1, out2 = compensate_pair(
            rx, rx, VVConfig(window=1, remove_mean=True),
            EstimatorConfig(kappa=0.0))
        np.testing.assert_allclose(out1, tx, atol=1e-9)
        np.testing.assert_allclose(out2, tx, atol=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            compensate_pair(np.ones(4, complex), np.ones(6, complex),
                            VVConfig(), EstimatorConfig())
