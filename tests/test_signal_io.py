"""Audio I/O, noise mixing, and synthetic corpus tests."""

import hashlib
import json

import numpy as np
import pytest

from melsplit.errors import (
    DimensionError,
    FormatError,
    ParameterError,
    UndefinedSnrError,
    UnsupportedFormatError,
)
from melsplit.mfcc import extract
from melsplit.signal_io import (
    AudioBuffer,
    NoiseSpec,
    _harmonic_stack,
    corpus_seed,
    measure_snr_db,
    mix_at_snr,
    noise_scale,
    read_manifest,
    read_wav,
    synth_speaker,
    write_manifest,
    write_wav,
)

SR = 16000


def make_buffer(samples, rate=SR):
    return AudioBuffer(np.asarray(samples, dtype=np.float64), rate)


class TestWavRoundTrip:
    def test_pcm_scaling_half(self, tmp_path):
        # 16-bit value 16384 corresponds to 0.5 exactly
        path = tmp_path / "half.wav"
        import struct
        import wave

        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(SR)
            w.writeframes(struct.pack("<3h", 16384, 0, -16384))
        buf = read_wav(path)
        assert buf.samples[0] == pytest.approx(0.5)
        assert buf.samples[1] == 0.0
        assert buf.samples[2] == pytest.approx(-0.5)
        assert buf.sample_rate_hz == SR

    def test_header_round_trip(self, tmp_path):
        buf = make_buffer(np.zeros(160))
        write_wav(buf, tmp_path / "z.wav")
        back = read_wav(tmp_path / "z.wav")
        assert len(back) == 160
        assert back.sample_rate_hz == SR

    def test_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        buf = make_buffer(rng.uniform(-1, 1, 5000))
        write_wav(buf, tmp_path / "r.wav")
        back = read_wav(tmp_path / "r.wav")
        assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768.0

    def test_all_zero_payload(self, tmp_path):
        path = tmp_path / "zero.wav"
        write_wav(make_buffer(np.zeros(64)), path)
        assert np.all(read_wav(path).samples == 0.0)

    def test_clipping_reported(self, tmp_path):
        path = tmp_path / "clip.wav"
        clipped = write_wav(make_buffer([0.25, 2.0, -3.0]), path)
        assert clipped == 2
        back = read_wav(path)
        assert back.samples[1] == pytest.approx(1.0, abs=1.0 / 32768.0)
        assert back.samples[2] == pytest.approx(-1.0, abs=1.0 / 32768.0)

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_wav(make_buffer([0.0, np.nan]), tmp_path / "bad.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a riff header at all")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        import struct
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(SR)
            w.writeframes(struct.pack("<4h", 1, 2, 3, 4))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        import wave

        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(SR)
            w.writeframes(bytes([128, 127, 129]))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    @pytest.mark.parametrize("cut_bytes, present", [(1, 15999), (2000, 15000)])
    def test_data_cut_short_names_declared_and_present_frames(self, tmp_path, cut_bytes, present):
        # A cut inside a sample and a cut of whole samples are both format
        # errors, never a shorter take.
        path = tmp_path / "cut.wav"
        write_wav(make_buffer(np.full(16000, 0.25)), path)
        path.write_bytes(path.read_bytes()[:-cut_bytes])
        message = f"{path}: data cut short: header declares 16000 frames, file holds {present}"
        with pytest.raises(FormatError) as info:
            read_wav(path)
        assert str(info.value) == message


class TestMeasureSnr:
    def test_equal_power_is_zero_db(self):
        clean = make_buffer([1.0, -1.0] * 100)
        noisy = make_buffer([2.0, 0.0] * 100)  # difference is +-1: same power
        assert measure_snr_db(clean, noisy) == pytest.approx(0.0, abs=1e-12)

    def test_ten_times_noise_power(self):
        n = 1000
        clean = make_buffer(np.ones(n))
        noise = np.sqrt(10.0) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        assert measure_snr_db(clean, make_buffer(clean.samples + noise)) == pytest.approx(
            -10.0, abs=1e-9
        )

    def test_identical_buffers_infinite(self):
        clean = make_buffer([0.5, -0.5, 0.25])
        assert measure_snr_db(clean, clean) == float("inf")

    def test_monte_carlo_sine_vs_unit_variance_noise(self):
        # Sine of amplitude 1 has power 0.5; noise of variance 0.5 gives 0 dB.
        # Oracle: average the measured SNR over many seeds.
        n = 120_000
        t = np.arange(n) / SR
        clean = make_buffer(np.sin(2 * np.pi * 440 * t))
        measured = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            noisy = make_buffer(clean.samples + rng.normal(0.0, np.sqrt(0.5), n))
            measured.append(measure_snr_db(clean, noisy))
        assert np.mean(measured) == pytest.approx(0.0, abs=0.2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            measure_snr_db(make_buffer([1.0, 2.0]), make_buffer([1.0]))

    def test_zero_power_clean(self):
        with pytest.raises(UndefinedSnrError):
            measure_snr_db(make_buffer(np.zeros(10)), make_buffer(np.ones(10)))


class TestNoiseScale:
    @pytest.mark.parametrize("snr_db", [0.0, -6.0, 10.0])
    def test_scaled_noise_hits_target(self, snr_db):
        unit = np.random.default_rng(2).standard_normal(500)
        scale = noise_scale(0.25, float(np.mean(unit**2)), snr_db)
        noise_power = float(np.mean((scale * unit) ** 2))
        assert 10.0 * np.log10(0.25 / noise_power) == pytest.approx(snr_db, abs=1e-9)

    def test_zero_power_noise_rejected(self):
        with pytest.raises(UndefinedSnrError, match="zero power"):
            noise_scale(1.0, 0.0, 0.0)

    def test_recorded_silence_rejected_by_mix(self):
        clean = make_buffer(np.ones(50))
        silence = make_buffer(np.zeros(20))
        with pytest.raises(UndefinedSnrError, match="zero power"):
            mix_at_snr(clean, NoiseSpec("recorded", 0.0, seed=0, noise=silence))


class TestMixAtSnr:
    @pytest.mark.parametrize("target", [0.0, -6.0, -10.0, -16.0])
    def test_target_hit_within_tolerance(self, target):
        t = np.arange(SR) / SR
        clean = make_buffer(0.3 * np.sin(2 * np.pi * 300 * t))
        noisy, _ = mix_at_snr(clean, NoiseSpec("white-gaussian", target, seed=7))
        assert measure_snr_db(clean, noisy) == pytest.approx(target, abs=0.01)

    def test_minus_16_db(self):
        clean = make_buffer(0.5 * np.sin(2 * np.pi * 250 * np.arange(8000) / SR))
        noisy, _ = mix_at_snr(clean, NoiseSpec("white-gaussian", -16.0, seed=3))
        assert measure_snr_db(clean, noisy) == pytest.approx(-16.0, abs=0.01)

    def test_same_seed_bit_identical(self):
        clean = make_buffer(np.sin(np.arange(4000) * 0.1))
        a, _ = mix_at_snr(clean, NoiseSpec("white-gaussian", -6.0, seed=11))
        b, _ = mix_at_snr(clean, NoiseSpec("white-gaussian", -6.0, seed=11))
        assert np.array_equal(a.samples, b.samples)

    def test_noise_only_is_exact_difference(self):
        clean = make_buffer(0.4 * np.sin(np.arange(4000) * 0.07))
        noisy, noise_only = mix_at_snr(clean, NoiseSpec("white-gaussian", 0.0, seed=5))
        assert np.array_equal(noisy.samples - clean.samples, noise_only.samples)

    def test_zero_power_clean_rejected(self):
        with pytest.raises(UndefinedSnrError):
            mix_at_snr(make_buffer(np.zeros(100)), NoiseSpec("white-gaussian", 0.0, seed=1))

    def test_recorded_noise_looped(self):
        clean = make_buffer(0.4 * np.sin(np.arange(1000) * 0.2))
        ticking = make_buffer(np.resize([1.0, -1.0, 0.5], 64))
        noisy, noise_only = mix_at_snr(
            clean, NoiseSpec("recorded", -3.0, seed=0, noise=ticking)
        )
        assert measure_snr_db(clean, noisy) == pytest.approx(-3.0, abs=0.01)
        # looping preserves the source's relative pattern
        ratio = noise_only.samples[0] / noise_only.samples[2]
        assert ratio == pytest.approx(2.0, rel=1e-9)

    def test_recorded_needs_noise_buffer(self):
        with pytest.raises(ParameterError):
            NoiseSpec("recorded", 0.0, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            NoiseSpec("pink", 0.0, seed=0)


class TestSynthSpeaker:
    def test_deterministic(self):
        a = synth_speaker(2, 5, 0.5, seed=123)
        b = synth_speaker(2, 5, 0.5, seed=123)
        assert np.array_equal(a.samples, b.samples)

    def test_duration_and_rate(self):
        buf = synth_speaker(0, 0, 1.0, seed=1)
        assert len(buf) == 16000
        assert buf.sample_rate_hz == SR

    def test_distinct_seeds_differ(self):
        a = synth_speaker(1, 1, 0.4, seed=1)
        b = synth_speaker(1, 1, 0.4, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_profiles_separable_in_feature_space(self):
        # corpus-design oracle: cross-profile centroid distance beats the
        # same-profile different-seed distance
        base = extract(synth_speaker(0, 0, 0.6, seed=10), "single")["single"].mean(axis=0)
        again = extract(synth_speaker(0, 0, 0.6, seed=20), "single")["single"].mean(axis=0)
        other = extract(synth_speaker(1, 0, 0.6, seed=30), "single")["single"].mean(axis=0)
        same_dist = np.linalg.norm(base - again)
        cross_dist = np.linalg.norm(base - other)
        assert cross_dist > same_dist

    def test_amplitude_in_range(self):
        buf = synth_speaker(3, 7, 0.5, seed=99)
        assert np.max(np.abs(buf.samples)) <= 1.0

    def test_bad_duration(self):
        with pytest.raises(ParameterError):
            synth_speaker(0, 0, 0.0, seed=1)

    # sha256 of write_wav's bytes for (profile, word, duration_s, seed).
    # perfbench's recorded verify_stream outputs come from WAVs synthesized
    # this way, so these bytes must not move. Profile 5 has 41 harmonics.
    PCM_DIGESTS = {
        (5, 3, 2.0, 5114376373710434768): (
            "bfa74c1471515eadcf19017ea81a5ee8c488048e9e325db1d3810c3b1e56904b"
        ),
        (0, 0, 0.6, 10): "d1ec06750705e60521ea38d2a035e833d3a8c2364509987d615beed9e659d89e",
        (7, 2, 0.6, 2813907391940782196): (
            "e18e034d8139d91a9040a4b951fed5039fccf2210348e7dea9829c426f378e2b"
        ),
        (3, 9, 1.0, 123): "0acb3680bbff6680836030e7988c8302c7474fc4327c047c0c2168a481235af7",
    }

    @pytest.mark.parametrize("take", sorted(PCM_DIGESTS))
    def test_pcm_bytes_pinned(self, take, tmp_path):
        path = tmp_path / "take.wav"
        write_wav(synth_speaker(*take), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PCM_DIGESTS[take]


class TestHarmonicStack:
    @staticmethod
    def direct(base_phase, phases, amps_a, amps_b, blend):
        h = np.arange(1, len(phases) + 1)
        waves = np.sin(h[:, None] * base_phase[None, :] + phases[:, None])
        amps = amps_a[:, None] * (1.0 - blend) + amps_b[:, None] * blend
        return np.sum(amps * waves, axis=0)

    @pytest.mark.parametrize("num_harmonics", [1, 2, 41])
    def test_matches_sine_table(self, num_harmonics):
        # H = 1 never enters the Horner loop; 41 is the largest stack a
        # profile draws. Phases run to about 1000 rad, as in a 2 s take.
        rng = np.random.default_rng(num_harmonics)
        n = 32000
        base_phase = np.cumsum(rng.uniform(0.9, 1.1, n)) * (1000.0 / n)
        phases = 2.0 * np.pi * rng.random(num_harmonics)
        amps_a = rng.random(num_harmonics)
        amps_b = rng.random(num_harmonics)
        blend = np.linspace(0.0, 1.0, n)
        expected = self.direct(base_phase, phases, amps_a, amps_b, blend)
        actual = _harmonic_stack(base_phase, phases, amps_a, amps_b, blend)
        assert actual.shape == (n,)
        assert np.max(np.abs(actual - expected)) <= 1e-10 * np.max(np.abs(expected))

    @staticmethod
    def two_stacks(base_phase, phases, amps_a, amps_b, blend):
        """Both stacks by Horner's rule over every sample, then blended."""
        rotor = np.exp(1j * base_phase)
        coeffs = np.stack([amps_a, amps_b]) * np.exp(1j * phases)
        acc = coeffs[:, -1:] * rotor
        for h in range(coeffs.shape[1] - 2, -1, -1):
            acc += coeffs[:, h : h + 1]
            acc *= rotor
        return (1.0 - blend) * acc[0].imag + blend * acc[1].imag

    @pytest.mark.parametrize("shape", ["ramp", "zeros", "ones", "interior", "step"])
    def test_equals_the_full_two_stack_formula(self, shape):
        # Each stack is skipped where its weight is 0; the rest must come out
        # bit for bit as when both stacks are evaluated everywhere.
        rng = np.random.default_rng(5)
        n, num_harmonics = 4000, 23
        base_phase = np.cumsum(rng.uniform(0.9, 1.1, n)) * 0.05
        phases = 2.0 * np.pi * rng.random(num_harmonics)
        amps_a, amps_b = rng.random(num_harmonics), rng.random(num_harmonics)
        ramp = np.clip((np.arange(n) - 1500.0) / 400.0, 0.0, 1.0)
        blend = {
            "ramp": 0.5 - 0.5 * np.cos(np.pi * ramp),
            "zeros": np.zeros(n),
            "ones": np.ones(n),
            "interior": rng.uniform(0.1, 0.9, n),
            "step": (np.arange(n) >= 1000).astype(float),
        }[shape]
        expected = self.two_stacks(base_phase, phases, amps_a, amps_b, blend)
        actual = _harmonic_stack(base_phase, phases, amps_a, amps_b, blend)
        assert actual.tobytes() == expected.tobytes()


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            {"profile_id": 0, "word_id": 1, "seed": 42, "path": "a.wav"},
            {"profile_id": 1, "word_id": 0, "seed": 43, "path": "b.wav"},
        ]
        path = tmp_path / "manifest.json"
        write_manifest(entries, path)
        back = read_manifest(path)
        assert back == entries

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"profile_id": 0}]')
        with pytest.raises(FormatError):
            read_manifest(path)

    @pytest.mark.parametrize(
        "entry, named",
        [
            ([3], r"entry 1 must be a JSON object"),
            ({"profile_id": "x"}, r"entry 1 field profile_id must be an integer"),
            ({"word_id": 0.5}, r"entry 1 field word_id must be an integer"),
            ({"seed": True}, r"entry 1 field seed must be an integer"),
            ({"path": 7}, r"entry 1 field path must be a string"),
        ],
    )
    def test_malformed_entry_named(self, tmp_path, entry, named):
        path = tmp_path / "bad.json"
        good = {"profile_id": 0, "word_id": 0, "seed": 1, "path": "a.wav"}
        bad = entry if isinstance(entry, list) else {**good, **entry}
        path.write_text(json.dumps([good, bad]))
        with pytest.raises(FormatError, match=named):
            read_manifest(path)

    def test_corpus_seed_deterministic(self):
        assert corpus_seed(1, 2, 3, 0) == corpus_seed(1, 2, 3, 0)
        assert corpus_seed(1, 2, 3, 0) != corpus_seed(1, 2, 3, 1)
