"""Tests for the joint common-phase estimator and compensation pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duolink import (
    SYMBOLS,
    ChannelParams,
    EstimatorConfig,
    VVConfig,
    apply_channel,
    apply_compensation,
    compensate_traces,
    estimate_common_phase,
    extract_phase,
    gray_indices,
    wrap_quarter,
)
from oracles import count_errors, demap_symbols, weighted_phase_reference

# direct evaluation of the weighting formula at kappa=1, phi=(0.2, 0.4)
KAPPA1_EXPECTED = 0.2900332005375044

phases = st.floats(min_value=-0.785, max_value=0.785)
finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
kappas = st.floats(min_value=0.0, max_value=50.0)


@st.composite
def observation_pairs(draw):
    """Two observation arrays, 0-d, 1-d or strided, whose second mixes ties
    (the first's value or its negation) and signed zeros into free values."""
    p1 = draw(st.lists(finite, min_size=1, max_size=24))
    p2 = [draw(st.one_of(finite, st.sampled_from([x, -x, 0.0, -0.0]))) for x in p1]
    p1, p2 = np.array(p1), np.array(p2)
    layout = draw(st.sampled_from(["0-d", "1-d", "strided"]))
    if layout == "0-d":
        return p1[0].reshape(()), p2[0].reshape(())
    if layout == "strided":
        return p1[::2], p2[::2]
    return p1, p2


class TestEstimateCommonPhase:
    def test_kappa_zero_is_arithmetic_mean(self):
        est = estimate_common_phase(0.2, 0.4, EstimatorConfig(kappa=0.0))
        assert est == pytest.approx(0.3, abs=1e-12)

    def test_border_case_picks_minimum_magnitude(self):
        """kappa -> infinity returns the observation of smaller |phase|."""
        est = estimate_common_phase(0.2, -0.1, EstimatorConfig(kappa_infinite=True))
        assert est == -0.1

    def test_border_case_tie_returns_channel_one(self):
        est = estimate_common_phase(0.3, -0.3, EstimatorConfig(kappa_infinite=True))
        assert est == 0.3

    @settings(max_examples=300)
    @given(observation_pairs())
    def test_border_case_bits_equal_np_where_form(self, pair):
        """The border case is np.where(|p2| < |p1|, p2, p1), the
        implementation's own form: its bits and shape on 0-d, 1-d and
        strided input, with ties and signed zeros, and the inputs left as
        they were."""
        p1, p2 = pair
        before = p1.tobytes(), p2.tobytes()
        expected = np.where(np.abs(p2) < np.abs(p1), p2, p1)
        est = estimate_common_phase(p1, p2, EstimatorConfig(kappa_infinite=True))
        assert est.shape == expected.shape and est.tobytes() == expected.tobytes()
        assert (p1.tobytes(), p2.tobytes()) == before

    def test_kappa_one_hand_value(self):
        est = estimate_common_phase(0.2, 0.4, EstimatorConfig(kappa=1.0))
        assert est == pytest.approx(0.29003, abs=1e-5)
        assert est == pytest.approx(KAPPA1_EXPECTED, abs=1e-15)
        assert est == pytest.approx(
            weighted_phase_reference(0.2, 0.4, 1.0), abs=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            estimate_common_phase(bad, 0.1, EstimatorConfig())
        with pytest.raises(ValueError, match="finite"):
            estimate_common_phase(0.1, bad, EstimatorConfig())

    @pytest.mark.parametrize("cfg", [EstimatorConfig(kappa=1.0),
                                     EstimatorConfig(kappa_infinite=True)])
    def test_returns_an_array_for_any_input(self, cfg):
        for phi1, phi2 in [(0.2, 0.4), (np.array([0.2, -0.1]), np.array([0.4, 0.3]))]:
            est = estimate_common_phase(phi1, phi2, cfg)
            assert isinstance(est, np.ndarray) and est.shape == np.shape(phi1)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        p1 = rng.uniform(-0.7, 0.7, 64)
        p2 = rng.uniform(-0.7, 0.7, 64)
        cfg = EstimatorConfig(kappa=2.5)
        vec = estimate_common_phase(p1, p2, cfg)
        for i in range(64):
            scalar = estimate_common_phase(p1[i], p2[i], cfg)
            assert vec[i] == pytest.approx(scalar, abs=1e-15)

    def test_large_kappa_no_overflow(self):
        """exp weighting stays finite even for kappa where exp(-k|phi|) underflows."""
        est = estimate_common_phase(0.3, 0.5, EstimatorConfig(kappa=1e6))
        assert np.isfinite(est)
        assert est == 0.3

    @given(phases, phases, kappas)
    def test_convex_combination(self, p1, p2, kappa):
        est = estimate_common_phase(p1, p2, EstimatorConfig(kappa=kappa))
        assert min(p1, p2) - 1e-12 <= est <= max(p1, p2) + 1e-12

    @given(phases, phases, kappas)
    def test_symmetry(self, p1, p2, kappa):
        cfg = EstimatorConfig(kappa=kappa)
        assert (estimate_common_phase(p1, p2, cfg)
                == estimate_common_phase(p2, p1, cfg))

    @given(phases, phases, kappas)
    def test_sign_equivariance(self, p1, p2, kappa):
        cfg = EstimatorConfig(kappa=kappa)
        assert (estimate_common_phase(-p1, -p2, cfg)
                == -estimate_common_phase(p1, p2, cfg))

    def test_small_kappa_approaches_mean(self):
        est = estimate_common_phase(0.2, 0.4, EstimatorConfig(kappa=1e-12))
        assert est == pytest.approx(0.3, abs=1e-9)

    def test_huge_kappa_matches_border_mode(self):
        rng = np.random.default_rng(5)
        p1 = rng.uniform(-0.7, 0.7, 500)
        p2 = rng.uniform(-0.7, 0.7, 500)
        separated = np.abs(np.abs(p1) - np.abs(p2)) > 1e-3
        huge = estimate_common_phase(p1, p2, EstimatorConfig(kappa=1e6))
        border = estimate_common_phase(p1, p2, EstimatorConfig(kappa_infinite=True))
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
        rx = SYMBOLS[gray_indices([0, 1, 1, 0, 0, 0])]
        np.testing.assert_array_equal(apply_compensation(rx, np.zeros(3)), rx)

    def test_exact_cancellation(self):
        """Removing the true common phase recovers the transmit stream."""
        tx = SYMBOLS[gray_indices(np.tile([0, 1], 32))]
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_estimate_rejected(self, bad):
        """A non-finite angle would rotate its sample to NaN, which
        quadrant_indices decides as quadrant 0 without an error."""
        with pytest.raises(ValueError, match="estimates must be finite"):
            apply_compensation(np.ones(2, complex), np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="estimates must be finite"):
            apply_compensation(1 + 0j, bad)


def compensate_streams(rx1, rx2, vv, cfg):
    """Joint compensation of two received streams from the traces
    extract_phase takes of them. When vv.remove_mean is set, each stream is
    first rotated by minus its trace's mean, and the trace less the mean is
    wrapped, as the reception does."""
    t1, t2 = extract_phase(rx1, vv), extract_phase(rx2, vv)
    if vv.remove_mean:
        m1, m2 = t1.mean(), t2.mean()
        rx1, rx2 = rx1 * np.exp(-1j * m1), rx2 * np.exp(-1j * m2)
        t1, t2 = wrap_quarter(t1 - m1), wrap_quarter(t2 - m2)
    return compensate_traces(rx1, rx2, t1, t2, cfg)


class TestCompensatePair:
    """A received pair compensated from its extracted traces."""

    def test_zero_noise_identity(self):
        tx1 = SYMBOLS[gray_indices(np.tile([0, 1], 64))]
        tx2 = SYMBOLS[gray_indices(np.tile([1, 1], 64))]
        out1, out2 = compensate_streams(
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
        k1, k2 = gray_indices(bits1), gray_indices(bits2)
        phi = rng.uniform(-0.7, 0.7, n)
        rx1, rx2 = apply_channel(k1, k2, ChannelParams(seed=0), phase=phi)
        out1, out2 = compensate_streams(
            rx1, rx2, VVConfig(window=1, remove_mean=False),
            EstimatorConfig(kappa_infinite=True))
        np.testing.assert_allclose(out1, SYMBOLS[k1], atol=1e-12)
        np.testing.assert_allclose(out2, SYMBOLS[k2], atol=1e-12)
        assert count_errors(bits1, demap_symbols(out1))[0] == 0
        assert count_errors(bits2, demap_symbols(out2))[0] == 0

    def test_cascaded_removes_block_mean(self):
        """A constant carrier offset disappears with remove_mean."""
        tx = SYMBOLS[gray_indices(np.tile([0, 1, 1, 0], 64))]
        rx = tx * np.exp(0.2j)
        out1, out2 = compensate_streams(
            rx, rx, VVConfig(window=1, remove_mean=True),
            EstimatorConfig(kappa=0.0))
        np.testing.assert_allclose(out1, tx, atol=1e-9)
        np.testing.assert_allclose(out2, tx, atol=1e-9)

    def test_length_mismatch_rejected(self):
        rx1, rx2 = np.ones(4, complex), np.ones(6, complex)
        t1, t2 = extract_phase(rx1, VVConfig()), extract_phase(rx2, VVConfig())
        with pytest.raises(ValueError, match="differ"):
            compensate_traces(rx1, rx2, t1, t2, EstimatorConfig())


class TestCompensateTraces:
    def test_result_rewrapped(self):
        """A trace's deviation beyond pi/4 from its mean wraps back into
        (-pi/4, pi/4] before the joint estimate, and the estimate is taken
        from the wrapped observations."""
        trace = np.array([0.78, 0.78, 0.78, -0.78])
        mean = trace.mean()
        rx = np.ones(4, dtype=complex) * np.exp(-1j * mean)
        obs = wrap_quarter(trace - mean)
        out1, out2 = compensate_traces(rx, rx, obs, obs, EstimatorConfig(kappa_infinite=True))
        residual = trace - mean
        residual[3] += np.pi / 2
        assert np.all((-np.pi / 4 < residual) & (residual <= np.pi / 4))
        np.testing.assert_allclose(obs, residual, atol=1e-15)
        np.testing.assert_allclose(out1, np.exp(-1j * (mean + residual)), atol=1e-12)
        np.testing.assert_array_equal(out2, out1)
