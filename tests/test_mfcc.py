"""Feature extraction tests: framing, windowing, FFT, mel bank, DCT, pipelines.

The FFT oracle is a direct O(K^2) DFT; the filterbank and DCT oracles are
direct summations of their defining formulas.
"""

import numpy as np
import pytest

import melsplit.mfcc
from melsplit.errors import ConfigError, DimensionError, ParameterError
from melsplit.mfcc import (
    CHANNEL_ONE,
    CHANNEL_TWO,
    METHODS,
    ExtractionConfig,
    build_filterbank,
    channel_bands,
    dct_cepstra,
    extract_dual_channel,
    extract_single_channel,
    fft_magnitude_sq,
    frame_blocking,
    hamming_window,
    hz_to_mel,
    log_mel_energies,
    mel_to_hz,
)
from melsplit.signal_io import AudioBuffer

SR = 16000


def buf(x, rate=SR):
    return AudioBuffer(np.asarray(x, dtype=np.float64), rate)


def direct_dft_power(frame, k):
    """O(K^2) DFT oracle, full spectrum |X|^2."""
    padded = np.zeros(k)
    padded[: len(frame)] = frame
    n = np.arange(k)
    dft = np.exp(-2j * np.pi * np.outer(n, n) / k) @ padded
    return np.abs(dft) ** 2


class TestFrameBlocking:
    def test_enumeration_oracle(self):
        # len 100, N=40, M=20: starts at 0, 20, 40, 60
        samples = np.arange(100, dtype=float)
        fm = frame_blocking(buf(samples), 40, 20)
        assert fm.num_frames == 4
        for l in range(4):
            assert np.array_equal(fm.frames[l], samples[l * 20 : l * 20 + 40])

    def test_single_frame_when_len_equals_n(self):
        samples = np.arange(64, dtype=float)
        fm = frame_blocking(buf(samples), 64, 10)
        assert fm.num_frames == 1
        assert np.array_equal(fm.frames[0], samples)

    def test_exact_tiling_no_overlap(self):
        fm = frame_blocking(buf(np.arange(100, dtype=float)), 25, 25)
        assert fm.num_frames == 4
        assert np.array_equal(fm.frames.ravel(), np.arange(100, dtype=float))

    def test_frame_count_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            length = int(rng.integers(50, 2000))
            n = int(rng.integers(10, min(length, 400) + 1))
            m = int(rng.integers(1, n + 1))
            fm = frame_blocking(buf(np.zeros(length)), n, m)
            assert fm.num_frames == (length - n) // m + 1

    def test_too_short_buffer(self):
        with pytest.raises(DimensionError):
            frame_blocking(buf(np.zeros(10)), 40, 20)

    def test_bad_shift(self):
        with pytest.raises(ParameterError):
            frame_blocking(buf(np.zeros(100)), 40, 0)


class TestHammingWindow:
    def test_endpoints(self):
        out = hamming_window(np.ones(50))
        assert out[0] == pytest.approx(0.08)
        assert out[-1] == pytest.approx(0.08)

    def test_odd_length_midpoint(self):
        out = hamming_window(np.ones(51))
        assert out[25] == pytest.approx(1.0)

    def test_length_three(self):
        assert hamming_window(np.ones(3)) == pytest.approx([0.08, 1.0, 0.08])

    def test_applies_elementwise(self):
        frame = np.arange(8, dtype=float)
        window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(8) / 7)
        assert np.allclose(hamming_window(frame), frame * window)


class TestFftMagnitudeSq:
    def test_impulse_flat(self):
        frame = np.zeros(16)
        frame[0] = 1.0
        assert np.allclose(fft_magnitude_sq(frame, 16), np.ones(9))

    def test_dc_only(self):
        power = fft_magnitude_sq(np.ones(4), 4)
        assert power == pytest.approx([16.0, 0.0, 0.0])

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(1)
        for k in (8, 32, 128, 512):
            frame = rng.standard_normal(int(rng.integers(1, k + 1)))
            mine = fft_magnitude_sq(frame, k)
            oracle = direct_dft_power(frame, k)[: k // 2 + 1]
            scale = max(oracle.max(), 1.0)
            assert np.max(np.abs(mine - oracle)) <= 1e-9 * scale

    def test_parseval(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = 64
            frame = rng.standard_normal(k)
            full = direct_dft_power(frame, k)
            time_energy = np.sum(frame**2)
            freq_energy = full.sum() / k
            assert abs(time_energy - freq_energy) <= 1e-9 * max(time_energy, 1.0)
            # and the implementation matches the oracle's half spectrum
            mine = fft_magnitude_sq(frame, k)
            assert np.max(np.abs(mine - full[: k // 2 + 1])) <= 1e-9 * max(full.max(), 1.0)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ParameterError):
            fft_magnitude_sq(np.ones(4), 12)

    def test_frame_longer_than_fft_rejected(self):
        with pytest.raises(DimensionError):
            fft_magnitude_sq(np.ones(20), 16)


class TestMelScale:
    def test_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_700_hz(self):
        assert hz_to_mel(700.0) == pytest.approx(781.17, abs=0.01)

    def test_1000_hz(self):
        assert hz_to_mel(1000.0) == pytest.approx(999.99, abs=0.01)

    def test_zero_mel(self):
        assert mel_to_hz(0.0) == 0.0

    def test_round_trip_1000(self):
        assert mel_to_hz(hz_to_mel(1000.0)) == pytest.approx(1000.0, abs=1e-6)

    def test_781_mel(self):
        assert mel_to_hz(781.17) == pytest.approx(700.0, abs=0.01)

    def test_round_trip_relative(self):
        freqs = np.linspace(1.0, 8000.0, 250)
        back = mel_to_hz(hz_to_mel(freqs))
        assert np.max(np.abs(back - freqs) / freqs) <= 1e-9

    def test_strictly_increasing(self):
        freqs = np.linspace(0.0, 8000.0, 500)
        mels = hz_to_mel(freqs)
        assert np.all(np.diff(mels) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            hz_to_mel(-1.0)
        with pytest.raises(ParameterError):
            mel_to_hz(-1.0)


class TestFilterbank:
    def test_band_confinement_channel_one(self):
        bank = build_filterbank(0.0, 1000.0, 13, 512, SR, CHANNEL_ONE)
        nonzero_cols = np.flatnonzero(bank.weights.sum(axis=0) > 0)
        top_bin_hz = nonzero_cols[-1] * SR / 512
        assert top_bin_hz <= 1000.0

    def test_single_triangle_degenerate(self):
        bank = build_filterbank(0.0, 1000.0, 1, 512, SR)
        row = bank.weights[0]
        peak = np.argmax(row)
        assert row[peak] == 1.0
        mel_mid_hz = mel_to_hz(hz_to_mel(1000.0) / 2)
        assert peak == pytest.approx(round(mel_mid_hz * 512 / SR), abs=0)

    def test_center_spacing_increases_in_hz(self):
        bank = build_filterbank(1000.0, 4000.0, 16, 512, SR, CHANNEL_TWO)
        centers_hz = bank.peak_bins * SR / 512
        gaps = np.diff(centers_hz)
        # mel->Hz convexity: spacing grows monotonically (bin rounding allows
        # equality)
        assert np.all(np.diff(gaps) >= -SR / 512)
        assert centers_hz[-1] - centers_hz[-2] > centers_hz[1] - centers_hz[0]

    def test_rows_unit_peak_unimodal_nonnegative(self):
        for lo, hi, p in ((0.0, 4000.0, 26), (0.0, 1000.0, 13), (1000.0, 4000.0, 13)):
            bank = build_filterbank(lo, hi, p, 512, SR)
            assert np.all(bank.weights >= 0.0)
            assert np.allclose(bank.weights.max(axis=1), 1.0)
            for row in bank.weights:
                support = np.flatnonzero(row)
                diffs = np.diff(row[support[0] : support[-1] + 1])
                peak = np.argmax(row[support[0] : support[-1] + 1])
                assert np.all(diffs[:peak] >= 0) and np.all(diffs[peak:] <= 0)

    def test_partition_of_unity_between_peaks(self):
        bank = build_filterbank(0.0, 4000.0, 26, 512, SR)
        col_sum = bank.weights.sum(axis=0)
        first, last = bank.peak_bins[0], bank.peak_bins[-1]
        assert np.max(np.abs(col_sum[first : last + 1] - 1.0)) <= 1e-6
        inside = col_sum[(np.arange(len(col_sum)) > 0) & (col_sum > 0)]
        assert np.all(inside <= 1.0001)

    def test_adjacent_triangles_meet(self):
        bank = build_filterbank(0.0, 4000.0, 26, 512, SR)
        for m in range(bank.num_filters_p - 1):
            peak = bank.peak_bins[m]
            # the next filter is zero at this filter's peak and rises after
            assert bank.weights[m + 1, peak] == 0.0
            assert bank.weights[m, peak] == 1.0

    def test_too_narrow_band_rejected(self):
        with pytest.raises(ParameterError):
            build_filterbank(1000.0, 1100.0, 13, 512, SR)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ParameterError):
            build_filterbank(0.0, 9000.0, 13, 512, SR)


class TestLogMelEnergies:
    def test_zero_spectrum_floors(self):
        bank = build_filterbank(0.0, 4000.0, 8, 256, SR)
        energies = log_mel_energies(np.zeros(129), bank)
        assert np.allclose(energies, np.log(1e-12))

    def test_self_row_oracle(self):
        bank = build_filterbank(0.0, 4000.0, 8, 256, SR)
        m = 3
        spectrum = bank.weights[m].copy()
        energies = log_mel_energies(spectrum, bank)
        assert energies[m] == pytest.approx(np.log(np.sum(bank.weights[m] ** 2)))

    def test_doubling_adds_ln2(self):
        bank = build_filterbank(0.0, 4000.0, 8, 256, SR)
        rng = np.random.default_rng(3)
        spectrum = rng.uniform(0.5, 2.0, 129)
        base = log_mel_energies(spectrum, bank)
        doubled = log_mel_energies(2.0 * spectrum, bank)
        assert np.allclose(doubled - base, np.log(2.0), atol=1e-12)

    def test_length_mismatch(self):
        bank = build_filterbank(0.0, 4000.0, 8, 256, SR)
        with pytest.raises(DimensionError):
            log_mel_energies(np.zeros(16), bank)

    def test_floor_argument(self):
        bank = build_filterbank(0.0, 4000.0, 8, 256, SR)
        energies = log_mel_energies(np.zeros(129), bank, floor=1e-6)
        assert np.allclose(energies, np.log(1e-6))

    def test_extractor_uses_config_floor(self):
        silence = buf(np.zeros(4000))
        floored = extract_single_channel(silence, ExtractionConfig(log_floor=1e-6))
        default = extract_single_channel(silence)
        # every filter energy of a silent frame sits on the floor
        assert not np.allclose(floored.rows, default.rows)


class TestDctCepstra:
    def test_all_equal_energies_closed_form(self):
        p, a = 4, 2.5
        coeffs = dct_cepstra(np.full(p, a), p)
        for q in range(1, p + 1):
            expected = a * sum(
                np.cos(m * (q - 0.5) * np.pi / p) for m in range(1, p + 1)
            )
            assert coeffs[q - 1] == pytest.approx(expected, abs=1e-12)

    def test_zero_energies(self):
        assert np.array_equal(dct_cepstra(np.zeros(10), 5), np.zeros(5))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(13), rng.standard_normal(13)
        lhs = dct_cepstra(a + b, 12)
        rhs = dct_cepstra(a, 12) + dct_cepstra(b, 12)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(5)
        energies = rng.standard_normal(13)
        coeffs = dct_cepstra(energies, 12)
        for q in range(1, 13):
            expected = sum(
                energies[m - 1] * np.cos(m * (q - 0.5) * np.pi / 13)
                for m in range(1, 14)
            )
            assert coeffs[q - 1] == pytest.approx(expected, abs=1e-10)

    def test_too_many_coeffs(self):
        with pytest.raises(ParameterError):
            dct_cepstra(np.zeros(5), 6)


class TestExtractionConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame_shift", 0),
            ("frame_len", 100),  # shorter than the 160-sample shift
            ("fft_size", 500),
            ("fft_size", 256),  # shorter than the 400-sample frame
            ("filters_single", 0),
            ("filters_per_channel", 0),
            ("num_coeffs", 14),  # more than the 13 filters per channel
            ("split_hz", 5000.0),
            ("fir_taps", 100),
            ("log_floor", 0.0),
        ],
    )
    def test_bad_field_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExtractionConfig(**{field: value})


class TestChannelBands:
    CFG = ExtractionConfig(
        split_hz=1500.0,
        band_top_hz=3800.0,
        filters_single=20,
        filters_per_channel=10,
        num_coeffs=8,
    )

    def test_single_spans_the_whole_band(self):
        assert channel_bands("single", self.CFG) == {"single": (0.0, 3800.0, 20)}

    def test_dual_splits_at_split_hz(self):
        assert channel_bands("dual", self.CFG) == {
            CHANNEL_ONE: (0.0, 1500.0, 10),
            CHANNEL_TWO: (1500.0, 3800.0, 10),
        }

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError, match="triple"):
            channel_bands("triple", self.CFG)

    @pytest.mark.parametrize("method", METHODS)
    def test_extractors_build_the_table(self, method, monkeypatch):
        built = {}
        real_build = melsplit.mfcc.build_filterbank

        def recording_build(lo, hi, filters, fft_size, rate, channel_id):
            built[channel_id] = (lo, hi, filters)
            return real_build(lo, hi, filters, fft_size, rate, channel_id)

        monkeypatch.setattr(melsplit.mfcc, "build_filterbank", recording_build)
        x = buf(np.random.default_rng(12).standard_normal(4000))
        if method == "dual":
            matrices = extract_dual_channel(x, self.CFG)
        else:
            matrices = (extract_single_channel(x, self.CFG),)
        table = channel_bands(method, self.CFG)
        assert built == table
        assert [fm.channel_id for fm in matrices] == list(table)


class TestExtractSingleChannel:
    def test_row_count_formula(self):
        cfg = ExtractionConfig()
        x = buf(np.random.default_rng(0).standard_normal(16000))
        fm = extract_single_channel(x, cfg)
        assert fm.rows.shape == ((16000 - 400) // 160 + 1, 12)

    def test_silence_rows_identical(self):
        fm = extract_single_channel(buf(np.zeros(4000)))
        assert np.all(fm.rows == fm.rows[0])

    def test_matches_composed_pipeline(self):
        cfg = ExtractionConfig()
        rng = np.random.default_rng(6)
        x = buf(rng.standard_normal(3200))
        fm = extract_single_channel(x, cfg)
        frames = frame_blocking(x, cfg.frame_len, cfg.frame_shift)
        bank = build_filterbank(0.0, cfg.band_top_hz, cfg.filters_single, cfg.fft_size, SR)
        for l in range(frames.num_frames):
            windowed = hamming_window(frames.frames[l])
            power = fft_magnitude_sq(windowed, cfg.fft_size)
            energies = log_mel_energies(power, bank)
            row = dct_cepstra(energies, cfg.num_coeffs)
            assert np.allclose(fm.rows[l], row, rtol=1e-10, atol=1e-10)

    def test_tone_separability(self):
        # 300 Hz vs 2500 Hz tones sit far apart; re-takes of the same tone
        # with faint noise sit close
        def tone_features(freq, seed, noise_db=-40.0):
            t = np.arange(8000) / SR
            clean = 0.5 * np.sin(2 * np.pi * freq * t)
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(8000)
            scale = np.sqrt(np.mean(clean**2) / (np.mean(noise**2) * 10 ** (-noise_db / 10)))
            return extract_single_channel(buf(clean + scale * noise)).rows.mean(axis=0)

        low_a, low_b = tone_features(300.0, 1), tone_features(300.0, 2)
        high = tone_features(2500.0, 3)
        same = np.linalg.norm(low_a - low_b)
        cross = np.linalg.norm(low_a - high)
        assert cross > 10.0 * same

    def test_determinism(self):
        x = buf(np.random.default_rng(7).standard_normal(4000))
        a = extract_single_channel(x)
        b = extract_single_channel(x)
        assert np.array_equal(a.rows, b.rows)

    def test_amplitude_scaling_shifts_but_differences_invariant(self):
        rng = np.random.default_rng(8)
        # loud broadband signal: no energy hits the log floor
        x = rng.standard_normal(4000) * 0.3 + 0.01
        a = extract_single_channel(buf(x)).rows
        b = extract_single_channel(buf(2.0 * x)).rows
        diff_a = a[1:] - a[:-1]
        diff_b = b[1:] - b[:-1]
        assert np.max(np.abs(diff_a - diff_b)) <= 1e-9


class TestExtractDualChannel:
    def test_equal_row_counts(self):
        x = buf(np.random.default_rng(9).standard_normal(8000))
        ch1, ch2 = extract_dual_channel(x)
        assert ch1.rows.shape == ch2.rows.shape
        assert ch1.channel_id == CHANNEL_ONE
        assert ch2.channel_id == CHANNEL_TWO

    @staticmethod
    def am_tone(freq):
        # amplitude modulation makes the busy channel's features vary from
        # frame to frame; a steady tone would be phase-locked to the shift
        t = np.arange(12000) / SR
        am = 0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * t)
        return buf(am * 0.5 * np.sin(2 * np.pi * freq * t))

    @staticmethod
    def frame_variance(rows):
        # variability across frames (the constant offset of a clamped
        # channel is not information)
        interior = rows[2:-2]  # skip frames touching the filter edges
        return float(np.sum(np.var(interior, axis=0)))

    # the 1e-6 floor clamps the empty channel's numerical leakage
    # (~1e-10 energy) that the default floor would log-amplify
    CONFINEMENT_CFG = ExtractionConfig(log_floor=1e-6)

    def test_low_tone_confined_to_channel_one(self):
        ch1, ch2 = extract_dual_channel(self.am_tone(300.0), self.CONFINEMENT_CFG)
        assert self.frame_variance(ch2.rows) <= 0.05 * self.frame_variance(ch1.rows)

    def test_high_tone_confined_to_channel_two(self):
        ch1, ch2 = extract_dual_channel(self.am_tone(2500.0), self.CONFINEMENT_CFG)
        assert self.frame_variance(ch1.rows) <= 0.05 * self.frame_variance(ch2.rows)

    def test_low_tone_energy_confinement(self):
        # band confinement in the linear energy domain at default settings
        from melsplit.fir import split_channels
        from melsplit.mfcc import frame_blocking

        x = self.am_tone(300.0)
        ch1_sig, ch2_sig = split_channels(x, 1000.0, 4000.0, 101)
        cfg = ExtractionConfig()
        bank1 = build_filterbank(0.0, 1000.0, 13, cfg.fft_size, SR)
        bank2 = build_filterbank(1000.0, 4000.0, 13, cfg.fft_size, SR)

        def mean_energy(sig, bank):
            frames = frame_blocking(sig, cfg.frame_len, cfg.frame_shift)
            power = fft_magnitude_sq(hamming_window(frames.frames), cfg.fft_size)
            return float((power @ bank.weights.T)[2:-2].mean())

        assert mean_energy(ch2_sig, bank2) <= 1e-6 * mean_energy(ch1_sig, bank1)

    def test_determinism(self):
        x = buf(np.random.default_rng(10).standard_normal(6000))
        a1, a2 = extract_dual_channel(x)
        b1, b2 = extract_dual_channel(x)
        assert np.array_equal(a1.rows, b1.rows)
        assert np.array_equal(a2.rows, b2.rows)

    def test_source_id_propagates(self):
        x = buf(np.random.default_rng(11).standard_normal(4000))
        ch1, ch2 = extract_dual_channel(x, source_id="utt-7")
        assert ch1.source_id == ch2.source_id == "utt-7"
