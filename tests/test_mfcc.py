"""Feature extraction tests: framing, windowing, FFT, mel bank, DCT, pipelines.

The FFT oracle is a direct O(K^2) DFT; the filterbank and DCT oracles are
direct summations of their defining formulas.
"""

from dataclasses import replace

import numpy as np
import pytest

import melsplit.mfcc
from melsplit.errors import ConfigError, DimensionError, ParameterError, PipelineError
from melsplit.fir import split_channels
from melsplit.mfcc import (
    CHANNEL_ONE,
    CHANNEL_TWO,
    METHODS,
    ExtractionConfig,
    build_filterbank,
    channel_bands,
    channel_spectra,
    dct_basis,
    dct_cepstra,
    extract,
    fft_magnitude_sq,
    frame_blocking,
    hamming_window,
    hz_to_mel,
    log_mel_energies,
    mel_to_hz,
    spectra_features,
)
from melsplit.signal_io import AudioBuffer, synth_speaker

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
        frames = frame_blocking(buf(samples), 40, 20)
        assert frames.shape == (4, 40)
        for l in range(4):
            assert np.array_equal(frames[l], samples[l * 20 : l * 20 + 40])

    def test_single_frame_when_len_equals_n(self):
        samples = np.arange(64, dtype=float)
        frames = frame_blocking(buf(samples), 64, 10)
        assert len(frames) == 1
        assert np.array_equal(frames[0], samples)

    def test_exact_tiling_no_overlap(self):
        frames = frame_blocking(buf(np.arange(100, dtype=float)), 25, 25)
        assert len(frames) == 4
        assert np.array_equal(frames.ravel(), np.arange(100, dtype=float))

    def test_frame_count_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            length = int(rng.integers(50, 2000))
            n = int(rng.integers(10, min(length, 400) + 1))
            m = int(rng.integers(1, n + 1))
            frames = frame_blocking(buf(np.zeros(length)), n, m)
            assert frames.shape == ((length - n) // m + 1, n)

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
        bank = build_filterbank(0.0, 1000.0, 13, 512, SR)
        nonzero_cols = np.flatnonzero(bank.sum(axis=0) > 0)
        top_bin_hz = nonzero_cols[-1] * SR / 512
        assert top_bin_hz <= 1000.0

    def test_single_triangle_degenerate(self):
        bank = build_filterbank(0.0, 1000.0, 1, 512, SR)
        row = bank[0]
        peak = np.argmax(row)
        assert row[peak] == 1.0
        mel_mid_hz = mel_to_hz(hz_to_mel(1000.0) / 2)
        assert peak == pytest.approx(round(mel_mid_hz * 512 / SR), abs=0)

    def test_center_spacing_increases_in_hz(self):
        bank = build_filterbank(1000.0, 4000.0, 16, 512, SR)
        centers_hz = np.argmax(bank, axis=1) * SR / 512
        gaps = np.diff(centers_hz)
        # mel->Hz convexity: spacing grows monotonically (bin rounding allows
        # equality)
        assert np.all(np.diff(gaps) >= -SR / 512)
        assert centers_hz[-1] - centers_hz[-2] > centers_hz[1] - centers_hz[0]

    def test_rows_unit_peak_unimodal_nonnegative(self):
        for lo, hi, p in ((0.0, 4000.0, 26), (0.0, 1000.0, 13), (1000.0, 4000.0, 13)):
            bank = build_filterbank(lo, hi, p, 512, SR)
            assert bank.shape == (p, 257)
            assert np.all(bank >= 0.0)
            assert np.allclose(bank.max(axis=1), 1.0)
            for row in bank:
                support = np.flatnonzero(row)
                diffs = np.diff(row[support[0] : support[-1] + 1])
                peak = np.argmax(row[support[0] : support[-1] + 1])
                assert np.all(diffs[:peak] >= 0) and np.all(diffs[peak:] <= 0)

    def test_partition_of_unity_between_peaks(self):
        bank = build_filterbank(0.0, 4000.0, 26, 512, SR)
        col_sum = bank.sum(axis=0)
        first, last = np.argmax(bank[0]), np.argmax(bank[-1])
        assert np.max(np.abs(col_sum[first : last + 1] - 1.0)) <= 1e-6
        inside = col_sum[(np.arange(len(col_sum)) > 0) & (col_sum > 0)]
        assert np.all(inside <= 1.0001)

    def test_adjacent_triangles_meet(self):
        bank = build_filterbank(0.0, 4000.0, 26, 512, SR)
        assert len(bank) == 26
        for m in range(len(bank) - 1):
            peak = np.argmax(bank[m])
            # the next filter is zero at this filter's peak and rises after
            assert bank[m + 1, peak] == 0.0
            assert bank[m, peak] == 1.0

    def test_memoized_and_read_only(self):
        bank = build_filterbank(1000.0, 4000.0, 13, 512, SR)
        assert build_filterbank(1000.0, 4000.0, 13, 512, SR) is bank
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 5.0
        basis = dct_basis(13, 12)
        assert dct_basis(13, 12) is basis
        assert not basis.flags.writeable

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
        spectrum = bank[m].copy()
        energies = log_mel_energies(spectrum, bank)
        assert energies[m] == pytest.approx(np.log(np.sum(bank[m] ** 2)))

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
        floored = extract(silence, "single", ExtractionConfig(log_floor=1e-6))["single"]
        default = extract(silence, "single")["single"]
        # every filter energy of a silent frame sits on the floor
        assert not np.allclose(floored, default)


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
            ("num_coeffs", 0),
            ("split_hz", 5000.0),
            ("fir_taps", 100),
            ("log_floor", 0.0),
            ("log_floor", float("inf")),
            ("log_floor", float("nan")),
        ],
    )
    def test_bad_field_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExtractionConfig(**{field: value})

    def test_one_sample_frame_rejected(self):
        # The Hamming window needs two samples; the config says so, by field.
        with pytest.raises(ConfigError, match="^config field frame_len: must be >= 2$"):
            ExtractionConfig(frame_len=1, frame_shift=1, fft_size=1)


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

    @pytest.mark.parametrize("method, num_coeffs", [("single", 27), ("dual", 14)])
    def test_num_coeffs_beyond_a_methods_filters_named(self, method, num_coeffs):
        # 26 single filters, 13 per dual channel.
        cfg = ExtractionConfig(num_coeffs=num_coeffs)
        with pytest.raises(ConfigError, match="num_coeffs"):
            channel_bands(method, cfg)

    def test_num_coeffs_checked_only_against_the_method_read(self):
        cfg, take = ExtractionConfig(num_coeffs=20), synth_speaker(0, 0, 0.3, 1)
        assert channel_bands("single", cfg) == {"single": (0.0, 4000.0, 26)}
        assert extract(take, "single", cfg)["single"].shape[1] == 20
        with pytest.raises(ConfigError, match="num_coeffs: must be at most dual's 13 filters"):
            extract(take, "dual", cfg)

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
        built = []
        real_build = melsplit.mfcc.build_filterbank

        def recording_build(lo, hi, filters, fft_size, rate):
            built.append((lo, hi, filters))
            return real_build(lo, hi, filters, fft_size, rate)

        monkeypatch.setattr(melsplit.mfcc, "build_filterbank", recording_build)
        x = buf(np.random.default_rng(12).standard_normal(4000))
        # Once with the spectrum operator's cache cold, once with it warm.
        melsplit.mfcc._spectrum_operator.cache_clear()
        for _ in range(2):
            features = extract(x, method, self.CFG)
        table = channel_bands(method, self.CFG)
        assert built == 2 * list(table.values())
        assert list(features) == list(table)


# Inputs that the dual pipeline rejects: (cfg, rate, length of the take).
BAD_INPUTS = [
    (ExtractionConfig(), SR, 101),  # no longer than the kernel
    (ExtractionConfig(), SR, 300),  # longer than the kernel, shorter than a frame
    (ExtractionConfig(), 8000, 4000),  # band_top_hz at the Nyquist frequency
    (ExtractionConfig(), 8000, 50),
    (ExtractionConfig(split_hz=100.0), SR, 4000),  # channel 1 too narrow
    (ExtractionConfig(split_hz=100.0), SR, 300),
    (ExtractionConfig(split_hz=100.0), SR, 50),
]


def composed_single(x, cfg):
    """The single-channel cepstra stage by stage: mel bank, framing, window,
    FFT power, log energies, DCT."""
    rate = x.sample_rate_hz
    bank = build_filterbank(0.0, cfg.band_top_hz, cfg.filters_single, cfg.fft_size, rate)
    frames = frame_blocking(x, cfg.frame_len, cfg.frame_shift)
    power = fft_magnitude_sq(hamming_window(frames), cfg.fft_size)
    return dct_cepstra(log_mel_energies(power, bank, cfg.log_floor), cfg.num_coeffs)


class TestExtractSingleChannel:
    def test_row_count_formula(self):
        cfg = ExtractionConfig()
        x = buf(np.random.default_rng(0).standard_normal(16000))
        got = extract(x, "single", cfg)["single"]
        assert got.shape == ((16000 - 400) // 160 + 1, 12)

    def test_silence_rows_identical(self):
        got = extract(buf(np.zeros(4000)), "single")["single"]
        assert np.all(got == got[0])

    def test_matches_composed_pipeline(self):
        cfg = ExtractionConfig()
        rng = np.random.default_rng(6)
        x = buf(rng.standard_normal(3200))
        got = extract(x, "single", cfg)["single"]
        frames = frame_blocking(x, cfg.frame_len, cfg.frame_shift)
        bank = build_filterbank(0.0, cfg.band_top_hz, cfg.filters_single, cfg.fft_size, SR)
        for l in range(len(frames)):
            windowed = hamming_window(frames[l])
            power = fft_magnitude_sq(windowed, cfg.fft_size)
            energies = log_mel_energies(power, bank)
            row = dct_cepstra(energies, cfg.num_coeffs)
            assert np.allclose(got[l], row, rtol=1e-10, atol=1e-10)

    def test_tone_separability(self):
        # 300 Hz vs 2500 Hz tones sit far apart; re-takes of the same tone
        # with faint noise sit close
        def tone_features(freq, seed, noise_db=-40.0):
            t = np.arange(8000) / SR
            clean = 0.5 * np.sin(2 * np.pi * freq * t)
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(8000)
            scale = np.sqrt(np.mean(clean**2) / (np.mean(noise**2) * 10 ** (-noise_db / 10)))
            return extract(buf(clean + scale * noise), "single")["single"].mean(axis=0)

        low_a, low_b = tone_features(300.0, 1), tone_features(300.0, 2)
        high = tone_features(2500.0, 3)
        same = np.linalg.norm(low_a - low_b)
        cross = np.linalg.norm(low_a - high)
        assert cross > 10.0 * same

    def test_determinism(self):
        x = buf(np.random.default_rng(7).standard_normal(4000))
        a = extract(x, "single")["single"]
        b = extract(x, "single")["single"]
        assert np.array_equal(a, b)

    def test_amplitude_scaling_shifts_but_differences_invariant(self):
        rng = np.random.default_rng(8)
        # loud broadband signal: no energy hits the log floor
        x = rng.standard_normal(4000) * 0.3 + 0.01
        a = extract(buf(x), "single")["single"]
        b = extract(buf(2.0 * x), "single")["single"]
        diff_a = a[1:] - a[:-1]
        diff_b = b[1:] - b[:-1]
        assert np.max(np.abs(diff_a - diff_b)) <= 1e-9

    @pytest.mark.parametrize("cfg, rate, length", BAD_INPUTS)
    def test_raises_what_the_composed_pipeline_raises(self, cfg, rate, length):
        # The single channel has no band split, so some of the dual
        # channels' bad inputs are good ones here: then both give the same rows.
        x = buf(np.random.default_rng(14).standard_normal(length), rate)
        try:
            rows = composed_single(x, cfg)
        except PipelineError as staged:
            with pytest.raises(type(staged)):
                extract(x, "single", cfg)
        else:
            got = extract(x, "single", cfg)["single"]
            assert got.shape == rows.shape
            assert np.max(np.abs(got - rows)) <= 1e-10


def composed_dual(x, cfg):
    """The dual-channel cepstra stage by stage: band split, framing, window,
    FFT power, mel bank, DCT."""
    signals = split_channels(x, cfg.split_hz, cfg.band_top_hz, cfg.fir_taps)
    rows = []
    for signal, (lo, hi, filters) in zip(signals, channel_bands("dual", cfg).values()):
        bank = build_filterbank(lo, hi, filters, cfg.fft_size, x.sample_rate_hz)
        frames = frame_blocking(signal, cfg.frame_len, cfg.frame_shift)
        power = fft_magnitude_sq(hamming_window(frames), cfg.fft_size)
        energies = log_mel_energies(power, bank, cfg.log_floor)
        rows.append(dct_cepstra(energies, cfg.num_coeffs))
    return rows


class TestExtractDualChannel:
    @pytest.mark.parametrize(
        "cfg, rate, length",
        [
            (ExtractionConfig(), SR, 9600),
            (replace(TestChannelBands.CFG, fir_taps=31), SR, 7000),
            (TestChannelBands.CFG, 8000, 4000),
            (ExtractionConfig(), SR, 400),  # exactly one frame
            (ExtractionConfig(fir_taps=401), SR, 402),  # one sample past the kernel
        ],
        ids=["default", "channel-bands-31-taps", "8khz", "frame-len", "fir-taps-plus-one"],
    )
    def test_matches_composed_pipeline(self, cfg, rate, length):
        x = buf(np.random.default_rng(13).standard_normal(length), rate)
        ch1, ch2 = extract(x, "dual", cfg).values()
        expected = composed_dual(x, cfg)
        for got, rows in zip((ch1, ch2), expected):
            assert got.shape == rows.shape
            assert np.max(np.abs(got - rows)) <= 1e-10

    @pytest.mark.parametrize("cfg, rate, length", BAD_INPUTS)
    def test_raises_what_the_composed_pipeline_raises(self, cfg, rate, length):
        x = buf(np.random.default_rng(14).standard_normal(length), rate)
        with pytest.raises(PipelineError) as staged:
            composed_dual(x, cfg)
        with pytest.raises(type(staged.value)):
            extract(x, "dual", cfg)

    @pytest.mark.parametrize(
        "method, expected_bins, shape",
        [
            # ch1 weights bins 1-31 and ch2 bins 33-127: real and imaginary
            # parts, over half of the 400 + 101 - 1 extended frame.
            ("dual", (slice(1, 32), slice(33, 128)), (250, 2 * (31 + 95))),
            # One unfiltered band: frames are not extended.
            ("single", (slice(1, 128),), (200, 2 * 127)),
        ],
        ids=["dual", "single"],
    )
    def test_operator_memoized_and_read_only(self, method, expected_bins, shape):
        bands = tuple(channel_bands(method, ExtractionConfig()).values())
        args = (bands, 400, 512, 101, SR)
        operator, bins = melsplit.mfcc._spectrum_operator(*args)
        assert melsplit.mfcc._spectrum_operator(*args)[0] is operator
        assert bins == expected_bins
        assert operator.shape == shape
        assert not operator.flags.writeable
        with pytest.raises(ValueError):
            operator[0, 0] = 1.0

    @pytest.mark.parametrize("method", METHODS)
    def test_odd_extended_frame_uses_the_centre_sample_once(self, method):
        # An odd frame_len makes the extended frame odd for both methods (the
        # kernels have an odd tap count), so the fold has a centre sample.
        cfg = ExtractionConfig(frame_len=401, frame_shift=150)
        extended = 401 + (cfg.fir_taps - 1 if method == "dual" else 0)
        bands = tuple(channel_bands(method, cfg).values())
        operator, _ = melsplit.mfcc._spectrum_operator(bands, 401, 512, cfg.fir_taps, SR)
        assert extended % 2 == 1 and len(operator) == (extended + 1) // 2
        x = buf(np.random.default_rng(16).standard_normal(5000))
        if method == "dual":
            expected = composed_dual(x, cfg)
        else:
            expected = (composed_single(x, cfg),)
        for got, rows in zip(extract(x, method, cfg).values(), expected, strict=True):
            assert got.shape == rows.shape
            assert np.max(np.abs(got - rows)) <= 1e-10

    @staticmethod
    def unfolded_operator(bands, frame_len, fft_size, fir_taps, rate):
        """The complex (E, C) operator before folding: per channel, the
        windowed DFT basis with its phase taken at the frame's first sample,
        convolved with the reversed kernel."""
        kernels = [np.ones(1)]
        if len(bands) == 2:
            kernels = [
                melsplit.fir.design_lowpass(bands[0][1], fir_taps, rate).taps,
                melsplit.fir.design_bandpass(bands[1][0], bands[1][1], fir_taps, rate).taps,
            ]
        _, bin_slices = melsplit.mfcc._spectrum_operator(bands, frame_len, fft_size, fir_taps, rate)
        t = np.arange(frame_len)
        window = hamming_window(np.ones(frame_len))
        blocks, omegas = [], []
        for kernel, bins in zip(kernels, bin_slices, strict=True):
            k = np.arange(bins.start, bins.stop)
            basis = window[:, None] * np.exp(-2j * np.pi * np.outer(t, k) / fft_size)
            block = np.zeros((frame_len + len(kernel) - 1, len(k)), dtype=complex)
            for shift, tap in enumerate(kernel[::-1]):
                block[shift : shift + frame_len] += tap * basis
            blocks.append(block)
            omegas.append(2.0 * np.pi * k / fft_size)
        return np.hstack(blocks), np.concatenate(omegas)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("frame_len", [400, 401])
    def test_folded_power_matches_the_unfolded_operator(self, method, frame_len):
        cfg = ExtractionConfig(frame_len=frame_len)
        bands = tuple(channel_bands(method, cfg).values())
        args = (bands, frame_len, cfg.fft_size, cfg.fir_taps, SR)
        unfolded, omega = self.unfolded_operator(*args)
        extended = len(unfolded)
        # The mirror property that the fold rests on.
        mirror = np.exp(-1j * omega * (frame_len - 1)) * np.conj(unfolded)
        assert np.max(np.abs(unfolded[::-1] - mirror)) <= 1e-12 * np.max(np.abs(unfolded))
        operator, _ = melsplit.mfcc._spectrum_operator(*args)
        frames = np.random.default_rng(17).standard_normal((9, extended))
        expected = np.abs(frames @ unfolded) ** 2
        half, width = operator.shape
        head, tail = frames[:, :half], frames[:, ::-1][:, :half]
        re = (head + tail) @ operator[:, : width // 2]
        im = (head - tail) @ operator[:, width // 2 :]
        assert np.max(np.abs(re**2 + im**2 - expected)) <= 1e-12 * np.max(expected)

    @pytest.mark.parametrize("method", METHODS)
    def test_stacked_spectra_equal_per_take_calls(self, method):
        rng = np.random.default_rng(18)
        takes = rng.standard_normal((5, 3000))
        alone = [channel_spectra([x], method, ExtractionConfig(), SR)[0] for x in takes]
        # A one-row stack, and stacks that are not a multiple of four takes,
        # passed as a (B, n) array and as a list of rows.
        for count in (1, 3, 5):
            stacked = channel_spectra(takes[:count], method, ExtractionConfig(), SR)
            assert np.array_equal(
                stacked, channel_spectra(list(takes[:count]), method, ExtractionConfig(), SR)
            )
            assert stacked.shape == (count,) + alone[0].shape
            for row, spectra in zip(stacked, alone):
                assert np.max(np.abs(row - spectra)) <= 1e-12 * np.max(np.abs(spectra))

    def test_stacked_takes_must_share_length_and_rate(self):
        x = np.random.default_rng(19).standard_normal(3000)
        for takes in ([x, x[:2900]], [x, x[None]], []):
            with pytest.raises(DimensionError, match="one length"):
                channel_spectra(takes, "single", ExtractionConfig(), SR)

    def test_equal_row_counts(self):
        x = buf(np.random.default_rng(9).standard_normal(8000))
        features = extract(x, "dual")
        assert list(features) == [CHANNEL_ONE, CHANNEL_TWO]
        assert features[CHANNEL_ONE].shape == features[CHANNEL_TWO].shape

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
        ch1, ch2 = extract(self.am_tone(300.0), "dual", self.CONFINEMENT_CFG).values()
        assert self.frame_variance(ch2) <= 0.05 * self.frame_variance(ch1)

    def test_high_tone_confined_to_channel_two(self):
        ch1, ch2 = extract(self.am_tone(2500.0), "dual", self.CONFINEMENT_CFG).values()
        assert self.frame_variance(ch1) <= 0.05 * self.frame_variance(ch2)

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
            power = fft_magnitude_sq(hamming_window(frames), cfg.fft_size)
            return float((power @ bank.T)[2:-2].mean())

        assert mean_energy(ch2_sig, bank2) <= 1e-6 * mean_energy(ch1_sig, bank1)

    def test_determinism(self):
        x = buf(np.random.default_rng(10).standard_normal(6000))
        a1, a2 = extract(x, "dual").values()
        b1, b2 = extract(x, "dual").values()
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)


class TestSpectraStages:
    """The extractors as channel_spectra, then spectra_features; a sweep
    builds a take's features at every mixing scale from its spectra."""

    CFG = ExtractionConfig()

    @staticmethod
    def take_and_noise(seed):
        a = synth_speaker(seed % 8, seed, 0.6, seed).samples
        return a, np.random.default_rng(seed).standard_normal(len(a))

    @pytest.mark.parametrize("method", METHODS)
    def test_spectra_are_linear(self, method):
        for seed, c in [(1, 0.02), (2, 0.3), (3, 1.5)]:
            a, b = self.take_and_noise(seed)
            s_a, s_b, s_mix = channel_spectra([a, b, a + c * b], method, self.CFG, SR)
            assert s_mix.shape == s_a.shape == s_b.shape
            assert np.max(np.abs(s_a + c * s_b - s_mix)) <= 1e-12 * np.max(np.abs(s_mix))

    @pytest.mark.parametrize("method", METHODS)
    def test_features_of_combined_spectra_match_the_mixed_take(self, method):
        for seed, c in [(4, 0.02), (5, 0.3), (6, 1.5)]:
            a, b = self.take_and_noise(seed)
            s_a, s_b = channel_spectra([a, b], method, self.CFG, SR)
            spectra = s_a + c * s_b
            combined = spectra_features(spectra, method, self.CFG, SR)
            mixed = extract(buf(a + c * b), method, self.CFG)
            assert list(combined) == list(mixed)
            for rows, ref in zip(combined.values(), mixed.values(), strict=True):
                assert rows.shape == ref.shape
                assert np.max(np.abs(rows - ref)) <= 1e-12

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("cfg, rate", [(CFG, SR), (TestChannelBands.CFG, 8000)])
    def test_clean_path_is_the_extractor_bit_for_bit(self, method, cfg, rate):
        x = buf(np.random.default_rng(15).standard_normal(7000), rate)
        spectra = channel_spectra([x.samples], method, cfg, rate)[0]
        staged = spectra_features(spectra, method, cfg, rate)
        whole = extract(x, method, cfg)
        assert list(staged) == list(whole)
        for rows, ref in zip(staged.values(), whole.values(), strict=True):
            assert np.array_equal(rows, ref)

    def test_single_checks_its_bank_before_framing(self):
        # As in build_filterbank then frame_blocking: a buffer shorter than a
        # frame, at a rate whose Nyquist frequency lies below band_top_hz,
        # is rejected for its band.
        x = buf(np.zeros(100), 6000)
        with pytest.raises(DimensionError):
            frame_blocking(x, self.CFG.frame_len, self.CFG.frame_shift)
        with pytest.raises(ParameterError, match="Nyquist"):
            extract(x, "single", self.CFG)
