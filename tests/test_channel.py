"""Tests for the efficiency curve, phase process and two-channel model."""

import math

import numpy as np
import pytest

import duolink.channel
from duolink import _blocks
from duolink import (
    SYMBOLS,
    ChannelParams,
    TrialConfig,
    VVConfig,
    apply_channel,
    conversion_efficiency,
    draw_payload,
    export_efficiency_csv,
    gen_common_phase,
    gray_indices,
    run_trial,
    shaped_filter_gain,
)
from oracles import channel_reference, common_phase_reference, payload_reference

# ln(10)/10 * 0.2 dB/km, evaluated by hand
ETA_AT_DC_02DB = 0.04605170185988092


class TestConversionEfficiency:
    def test_dc_value_hand_evaluated(self):
        assert conversion_efficiency(0.0, 0.2, 1e-9) == pytest.approx(
            ETA_AT_DC_02DB, abs=1e-12)
        assert conversion_efficiency(0.0, 0.2, 1e-9) == pytest.approx(
            math.log(10) / 10 * 0.2, abs=0)

    def test_zero_attenuation_zero_dc(self):
        assert conversion_efficiency(0.0, 0.0, 1e-9) == 0.0

    def test_no_walkoff_is_frequency_flat(self):
        omega = np.linspace(0, 1e12, 64)
        eta = conversion_efficiency(omega, 0.25, 0.0)
        np.testing.assert_array_equal(eta, np.full(64, math.log(10) / 10 * 0.25))

    def test_even_in_omega(self):
        omega = np.linspace(1e3, 1e11, 257)
        np.testing.assert_array_equal(
            conversion_efficiency(omega, 0.2, 2e-9),
            conversion_efficiency(-omega, 0.2, 2e-9))

    def test_nondecreasing_in_abs_omega(self):
        omega = np.linspace(0, 1e11, 1001)
        eta = conversion_efficiency(omega, 0.2, 2e-9)
        assert np.all(np.diff(eta) >= 0)


class TestGenCommonPhase:
    def test_zero_sigma_gives_zero_trace(self):
        params = ChannelParams(sigma_common=0.0, seed=3)
        np.testing.assert_array_equal(gen_common_phase(100, params), np.zeros(100))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gen_common_phase(0, ChannelParams())

    @pytest.mark.parametrize("phase_model", ["iid", "shaped"])
    @pytest.mark.parametrize("n", [2.5, True, 100.0])
    def test_non_integer_length_rejected(self, n, phase_model):
        params = ChannelParams(sigma_common=0.1, phase_model=phase_model)
        with pytest.raises(ValueError, match="n must be an integer"):
            gen_common_phase(n, params)

    def test_iid_sample_std(self):
        """Sample std of 1e6 iid draws stays inside the 3-sigma estimator band."""
        params = ChannelParams(sigma_common=0.3, seed=11)
        trace = gen_common_phase(10**6, params)
        assert 0.297 <= trace.std() <= 0.303
        assert abs(trace.mean()) < 3 * 0.3 / math.sqrt(10**6)

    def test_deterministic_given_seed(self):
        params = ChannelParams(sigma_common=0.2, seed=77)
        np.testing.assert_array_equal(
            gen_common_phase(4096, params), gen_common_phase(4096, params))

    def test_seeds_give_distinct_traces(self):
        a = gen_common_phase(256, ChannelParams(sigma_common=0.2, seed=1))
        b = gen_common_phase(256, ChannelParams(sigma_common=0.2, seed=2))
        assert not np.array_equal(a, b)

    def test_shaped_std_rescaled_exactly(self):
        params = ChannelParams(sigma_common=0.25, phase_model="shaped", seed=5)
        trace = gen_common_phase(2**14, params)
        assert trace.std() == pytest.approx(0.25, abs=1e-12)

    def test_shaped_dc_removed(self):
        params = ChannelParams(sigma_common=0.25, phase_model="shaped", seed=5)
        trace = gen_common_phase(2**14, params)
        assert abs(trace.mean()) < 1e-12

    def test_shaped_filter_gain_zero_at_dc(self):
        params = ChannelParams(sigma_common=0.1, phase_model="shaped", seed=0)
        freq, gain = shaped_filter_gain(1024, params)
        assert freq[0] == 0.0 and gain[0] == 0.0
        assert np.all(gain[1:] > 0)

    @pytest.mark.parametrize("n,message", [(0, "n must be >= 1"), (-3, "n must be >= 1"),
                                           (True, "n must be an integer"),
                                           (2.5, "n must be an integer")])
    def test_shaped_filter_gain_bad_length_rejected(self, n, message):
        """The filter takes gen_common_phase's rules for n."""
        with pytest.raises(ValueError, match=message):
            shaped_filter_gain(n, ChannelParams(sigma_common=0.1, phase_model="shaped"))


def with_chunk(monkeypatch, chunk):
    """Patch the random chunk size and the block size to `chunk` (None
    keeps both); return the chunk size the oracles are to take."""
    if chunk is None:
        return duolink.channel.CHUNK
    monkeypatch.setattr(duolink.channel, "CHUNK", chunk)
    monkeypatch.setattr(_blocks, "BLOCK", chunk)
    return chunk


# The shaped trace's filter runs through FFTs here and as a direct
# convolution in the oracle: on sigma_common 0.3 the two traces, and the
# samples rotated by them, were seen to differ by at most 3.1e-15.
SHAPED_ATOL = 1e-13


class TestShapedPhaseBits:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("block", [7, 64, None], ids=["7", "64", "default"])
    @pytest.mark.parametrize("n", [1, 2, 3, 2**15, 2**15 + 1, 99991])
    def test_bits_equal_whole_array_expression(self, monkeypatch, n, block, threads):
        """The shaped trace has the bytes of the synthesis on one thread with
        one block spanning the whole array, at every length (99991 is prime),
        block size and thread count: its chunks, filter parts and the order
        in which their sums are added are fixed by the model's constants."""
        params = ChannelParams(sigma_common=0.3, phase_model="shaped", seed=n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", n)
            mp.setattr(_blocks, "THREADS", 1)
            expected = gen_common_phase(n, params)
        if block is not None:
            monkeypatch.setattr(_blocks, "BLOCK", block)
        monkeypatch.setattr(_blocks, "THREADS", threads)
        assert gen_common_phase(n, params).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [7, 64, None], ids=["7", "64", "default"])
    @pytest.mark.parametrize("cpe_cutoff", [1e6, 1e9])
    @pytest.mark.parametrize("n", [1, 2, 3, 600, 2**15 + 1, 70001])
    def test_agrees_with_reference(self, monkeypatch, n, cpe_cutoff, chunk):
        """The blocked overlap-save FIR gives oracles.common_phase_reference's
        direct circular convolution, within SHAPED_ATOL, also where the trace
        is shorter than the taps and wraps around them."""
        chunk = with_chunk(monkeypatch, chunk)
        params = ChannelParams(sigma_common=0.3, phase_model="shaped", cpe_cutoff=cpe_cutoff,
                               seed=n + 1)
        np.testing.assert_allclose(gen_common_phase(n, params),
                                   common_phase_reference(n, params, chunk),
                                   rtol=0, atol=SHAPED_ATOL)


class TestChannelMatchesReference:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("block", [7, 64, None], ids=["7", "64", "default"])
    @pytest.mark.parametrize("sigma_additive", [0.0, 0.4])
    @pytest.mark.parametrize("delay_offset", [0, 11, -3])
    def test_iid_bits_equal_reference(self, monkeypatch, delay_offset, sigma_additive, block,
                                      threads):
        """The channel rotates the symbols and then adds the noise chunk by
        chunk into their slots; oracles.channel_reference draws each stream
        chunk by chunk, rotates whole arrays and rolls channel 2. The bytes
        agree at every chunk size, block size and thread count."""
        n = 500 if block is not None else 2**15 + 77
        chunk = with_chunk(monkeypatch, block)
        monkeypatch.setattr(_blocks, "THREADS", threads)
        rng = np.random.default_rng(n + delay_offset)
        k1, k2 = rng.integers(0, 4, n), rng.integers(0, 4, n)
        params = ChannelParams(sigma_common=0.3, sigma_additive=sigma_additive,
                               delay_offset=delay_offset, seed=7)
        got = apply_channel(k1.astype(np.uint8), k2.astype(np.uint8), params)
        expected = channel_reference(k1, k2, params, chunk)
        assert [r.tobytes() for r in got] == [r.tobytes() for r in expected]

    @pytest.mark.parametrize("chunk", [7, 64, None], ids=["7", "64", "default"])
    @pytest.mark.parametrize("delay_offset", [0, 11, -3])
    def test_shaped_close_to_reference(self, monkeypatch, delay_offset, chunk):
        n = 500 if chunk is not None else 2**15 + 77
        chunk = with_chunk(monkeypatch, chunk)
        k1, k2 = payload_reference(n, ChannelParams(seed=3), chunk)
        params = ChannelParams(sigma_common=0.3, sigma_additive=0.4, phase_model="shaped",
                               delay_offset=delay_offset, seed=7)
        got = apply_channel(k1, k2, params)
        for r, expected in zip(got, channel_reference(k1, k2, params, chunk)):
            np.testing.assert_allclose(r, expected, rtol=0, atol=SHAPED_ATOL)

    @pytest.mark.parametrize("chunk", [7, 64, None], ids=["7", "64", "default"])
    @pytest.mark.parametrize("n", [1, 6, 7, 8, 500, 2**15 + 1])
    def test_payload_equals_reference(self, monkeypatch, n, chunk):
        chunk = with_chunk(monkeypatch, chunk)
        got = draw_payload(n, ChannelParams(seed=n))
        assert [k.dtype for k in got] == [np.uint8, np.uint8]
        assert [k.tobytes() for k in got] == [
            k.tobytes() for k in payload_reference(n, ChannelParams(seed=n), chunk)]

    @pytest.mark.parametrize("sigma_additive", [0.0, 0.4])
    @pytest.mark.parametrize("n", [1, 2**15 - 1, 2**15, 2**15 + 1, 70001])
    def test_iid_prefix_of_a_longer_run(self, n, sigma_additive):
        """No draw depends on the stream's length: at delay_offset 0 the
        payload and the iid channel of n symbols are the first n symbols of
        a longer run's. The one exception is the quadrature noise of a last,
        partial chunk, which follows the chunk's in-phase draws."""
        params = ChannelParams(sigma_common=0.3, sigma_additive=sigma_additive, seed=5)
        long1, long2 = draw_payload(n + 40000, params)
        k1, k2 = draw_payload(n, params)
        assert k1.tobytes() == long1[:n].tobytes() and k2.tobytes() == long2[:n].tobytes()
        rx_long = apply_channel(long1, long2, params)
        rx = apply_channel(k1, k2, params)
        full = n if sigma_additive == 0 else n - n % duolink.channel.CHUNK
        assert [r[:full].tobytes() for r in rx] == [r[:full].tobytes() for r in rx_long]
        assert [r.real.tobytes() for r in rx] == [r[:n].real.tobytes() for r in rx_long]


class TestApplyChannel:
    def test_identity_channel(self):
        tx1 = gray_indices(np.tile([0, 1], 32))
        tx2 = gray_indices(np.tile([1, 0], 32))
        rx1, rx2 = apply_channel(tx1, tx2, ChannelParams(seed=0))
        np.testing.assert_array_equal(rx1, SYMBOLS[tx1])
        np.testing.assert_array_equal(rx2, SYMBOLS[tx2])

    def test_pure_rotation_forced_constant_phase(self):
        tx1 = gray_indices(np.tile([0, 0], 16))
        tx2 = gray_indices(np.tile([1, 1], 16))
        phase = np.full(16, 0.5)
        rx1, rx2 = apply_channel(tx1, tx2, ChannelParams(seed=0), phase=phase)
        np.testing.assert_allclose(rx1, SYMBOLS[tx1] * np.exp(0.5j), atol=1e-12)
        np.testing.assert_allclose(rx2, SYMBOLS[tx2] * np.exp(0.5j), atol=1e-12)

    def test_both_channels_share_the_phase_trace(self):
        """The injected rotations of the two channels are identical."""
        n = 2048
        params = ChannelParams(sigma_common=0.3, seed=21)
        tx = np.zeros(n, dtype=np.uint8)
        rx1, rx2 = apply_channel(tx, tx, params)
        phi1 = np.angle(rx1 * np.conj(SYMBOLS[0]))
        phi2 = np.angle(rx2 * np.conj(SYMBOLS[0]))
        np.testing.assert_array_equal(phi1, phi2)
        assert np.corrcoef(phi1, phi2)[0, 1] == pytest.approx(1.0)
        np.testing.assert_allclose(phi1, gen_common_phase(n, params), atol=1e-12)

    def test_additive_noise_channels_uncorrelated(self):
        n = 10**5
        params = ChannelParams(sigma_additive=1.0, seed=13)
        tx = np.zeros(n, dtype=np.uint8)
        rx1, rx2 = apply_channel(tx, tx, params)
        bound = 3 / math.sqrt(n)
        assert abs(np.corrcoef(rx1.real, rx2.real)[0, 1]) < bound
        assert abs(np.corrcoef(rx1.imag, rx2.imag)[0, 1]) < bound
        assert abs(np.corrcoef(rx1.real, rx1.imag)[0, 1]) < bound

    def test_noise_statistics(self):
        n = 10**5
        params = ChannelParams(sigma_additive=0.15, seed=29)
        tx = np.zeros(n, dtype=np.uint8)
        rx1, _ = apply_channel(tx, tx, params)
        assert rx1.real.std() == pytest.approx(0.15, rel=0.02)
        assert rx1.imag.std() == pytest.approx(0.15, rel=0.02)

    @pytest.mark.parametrize("offset", [5, -3, 11, 64 + 2, -64 - 1])
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("sigma_additive", [0.0, 0.15])
    @pytest.mark.parametrize("phase_model", ["iid", "shaped"])
    def test_delay_shifts_channel_two_circularly(self, monkeypatch, phase_model,
                                                 sigma_additive, chunk, offset):
        """Channel 2 at any offset is np.roll of channel 2 at offset 0, byte
        for byte, and channel 1 does not move: run_sweep draws one
        realization for points that differ only in delay_offset and rolls
        channel 2 to each. Offsets of either sign, beyond the stream's length
        and, at CHUNK 7, across chunk boundaries."""
        n = 64
        with_chunk(monkeypatch, chunk)
        tx1 = gray_indices(np.arange(2 * n) % 2)
        tx2 = gray_indices((np.arange(2 * n) + 1) % 2)

        def channel(delay_offset):
            return apply_channel(tx1, tx2, ChannelParams(
                sigma_common=0.2, sigma_additive=sigma_additive, phase_model=phase_model,
                cpe_cutoff=1e8, delay_offset=delay_offset, seed=9))

        rx1, rx2 = channel(offset)
        y1, y2 = channel(0)
        assert rx1.tobytes() == y1.tobytes()
        assert rx2.tobytes() == np.roll(y2, -offset).tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            apply_channel(np.zeros(4, np.uint8), np.zeros(5, np.uint8), ChannelParams())

    @pytest.mark.parametrize("k", [[0, 1, 4, 2], np.array([0, -1, 2, 3], dtype=np.int8)])
    def test_index_stream_out_of_range_rejected(self, k):
        k = np.asarray(k)
        with pytest.raises(ValueError, match="tx2 must hold quadrant indices in 0..3"):
            apply_channel(np.zeros(4, dtype=np.uint8), k, ChannelParams())

    @pytest.mark.parametrize("name", ["tx1", "tx2"])
    @pytest.mark.parametrize("stream", [
        SYMBOLS[[0, 1, 2, 3]], np.array([0.0, 1.0, 2.0, 3.0]),
        np.array([False, True, True, False])], ids=["complex", "float", "bool"])
    def test_non_index_stream_rejected(self, stream, name):
        """Complex symbols, and floats or bools equal to quadrant indices,
        are not taken as transmit streams."""
        streams = {"tx1": np.zeros(4, dtype=np.uint8), "tx2": np.zeros(4, dtype=np.uint8)}
        streams[name] = stream
        with pytest.raises(ValueError, match=f"{name} must be an array of integers"):
            apply_channel(streams["tx1"], streams["tx2"], ChannelParams())

    @pytest.mark.parametrize("phase", [None, np.zeros(0)], ids=["generated", "given"])
    @pytest.mark.parametrize("phase_model", ["iid", "shaped"])
    def test_empty_streams_rejected_on_both_paths(self, phase, phase_model):
        """One length rule, naming tx1, whether the phase is generated or given."""
        tx = np.zeros(0, np.uint8)
        params = ChannelParams(sigma_common=0.1, phase_model=phase_model)
        with pytest.raises(ValueError, match="tx1 length must be >= 1"):
            apply_channel(tx, tx, params, phase=phase)

    def test_phase_override_length_checked(self):
        tx = np.zeros(8, np.uint8)
        with pytest.raises(ValueError, match="length"):
            apply_channel(tx, tx, ChannelParams(), phase=np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_phase_override_non_finite_rejected(self, bad):
        tx = np.zeros(4, np.uint8)
        phase = np.array([0.0, bad, 0.1, 0.2])
        with pytest.raises(ValueError, match="phase must be finite"):
            apply_channel(tx, tx, ChannelParams(), phase=phase)

    def test_same_seed_bit_identical(self):
        params = ChannelParams(sigma_common=0.3, sigma_additive=0.1, seed=101)
        tx = gray_indices(np.tile([0, 1, 1, 0], 64))
        a1, a2 = apply_channel(tx, tx, params)
        b1, b2 = apply_channel(tx, tx, params)
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"sigma_common": -0.1},
        {"sigma_additive": -1e-9},
        {"alpha_dB": -0.2},
        {"phase_model": "pink"},
        {"phase_model": "shaped", "cpe_cutoff": 0.0},
        {"symbol_rate": 0.0},
        {"delay_offset": 1.5},
        {"seed": -1},
        {"seed": 2**64},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "sigma_common", "sigma_additive", "alpha_dB", "dbeta", "cpe_cutoff", "symbol_rate"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelParams(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("delay_offset", True), ("seed", 1.5), ("seed", True), ("seed", "7")])
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelParams(**{field: value})


class TestOverflow:
    """Channel values whose noise or phase trace would overflow fail in the
    channel, named, never as a non-finite trace in the receiver."""

    @pytest.mark.parametrize("max_lag", [16, 0])
    @pytest.mark.parametrize("channel,message", [
        ({"phase_model": "shaped", "dbeta": 1e300}, "dbeta=1e"),
        ({"phase_model": "shaped", "cpe_cutoff": 1e-310}, "cpe_cutoff=1e"),
        ({"phase_model": "shaped", "alpha_dB": 1e308}, "alpha_dB=1e"),
        ({"phase_model": "shaped", "symbol_rate": 1e308}, "symbol_rate=1e"),
        ({"sigma_common": 1e308}, "sigma_common"),
        ({"sigma_additive": 1e308}, "sigma_additive"),
        ({"sigma_additive": 1e100}, "sigma_additive"),
    ], ids=["dbeta", "cpe_cutoff", "alpha_dB", "symbol_rate", "sigma_common",
            "sigma_additive", "sigma_additive-1e100"])
    def test_fails_in_channel_named(self, channel, message, max_lag):
        with pytest.raises(ValueError, match=message):
            params = ChannelParams(**{"sigma_common": 0.1, "seed": 1, **channel})
            run_trial(TrialConfig(4000, params, max_lag=max_lag))

    @pytest.mark.parametrize("phase_model", ["iid", "shaped"])
    @pytest.mark.parametrize("window", [1, 33])
    def test_largest_sigmas_run(self, phase_model, window):
        """Just below the bound, no draw and no fourth power overflows."""
        sigma = duolink.channel.MAX_SIGMA * (1 - 1e-12)
        params = ChannelParams(sigma_common=sigma, sigma_additive=sigma,
                               phase_model=phase_model, seed=1)
        report = run_trial(TrialConfig(4000, params, VVConfig(window=window)))
        assert report.valid_symbols > 0


class TestEfficiencyExport:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "eta.csv"
        export_efficiency_csv(path, 0.2, 1e-9, fmax=1e9, points=64)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_hz,efficiency"
        assert len(lines) == 65
        freq, eta = np.loadtxt(lines[1:], delimiter=",", unpack=True)
        assert freq[0] == 0.0 and freq[-1] == 1e9
        np.testing.assert_array_equal(
            eta, conversion_efficiency(2 * np.pi * freq, 0.2, 1e-9))

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_efficiency_csv(tmp_path / "x.csv", 0.2, 1e-9, fmax=0.0)
        with pytest.raises(ValueError):
            export_efficiency_csv(tmp_path / "x.csv", 0.2, 1e-9, fmax=1e9, points=1)

    @pytest.mark.parametrize("points", [2.5, True])
    def test_non_integer_points_rejected(self, tmp_path, points):
        with pytest.raises(ValueError, match="points must be an integer"):
            export_efficiency_csv(tmp_path / "x.csv", 0.2, 1e-9, fmax=1e9, points=points)
        assert not (tmp_path / "x.csv").exists()
