"""Command-line interface tests: subcommands, exit codes, config handling."""

import argparse
import gc
import hashlib
import json
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from melsplit.cli import (
    PipelineConfig,
    _build_parser,
    _effective_config,
    load_config,
    main,
)
from melsplit.anc import MSE_WINDOW, LmsConfig, mse_trace, run_anc
from melsplit.bench import ExperimentPlan, load_plan, plan_to_dict
from melsplit.errors import ConfigError
from melsplit.mfcc import METHODS, ExtractionConfig, channel_bands, extract
from melsplit.signal_io import (
    AudioBuffer,
    NoiseSpec,
    corpus_seed,
    mix_at_snr,
    read_wav,
    write_wav,
)
from reference import save_config

SR = 16000


def run_cli(*argv):
    return main([str(a) for a in argv])


def usage_exit_code(*argv):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    return info.value.code


def make_word_wav(path, profile=0, word=0, seed=5, duration=1.0):
    from melsplit.signal_io import synth_speaker

    write_wav(synth_speaker(profile, word, duration, seed), path)
    return path


def noisy_take_wavs(tmp_path):
    """A 2 s take mixed with white noise at -6 dB, and that noise, as WAVs."""
    from melsplit.signal_io import NoiseSpec, mix_at_snr, synth_speaker

    clean = AudioBuffer(0.25 * synth_speaker(2, 4, 2.0, 17).samples, SR)
    noisy, noise = mix_at_snr(clean, NoiseSpec("white-gaussian", -6.0, seed=23))
    paths = tmp_path / "noisy.wav", tmp_path / "noise.wav"
    assert write_wav(noisy, paths[0]) == 0
    assert write_wav(noise, paths[1]) == 0
    return paths


class TestSynth:
    def test_default_counts(self, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli("synth", "--out", out, "--duration", 0.2) == 0
        wavs = sorted(out.glob("*.wav"))
        assert len(wavs) == 80  # 8 profiles x 10 words
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest) == 80

    def test_rerun_identical_digest(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_cli("synth", "--out", out, "--profiles", 2, "--words", 2,
                    "--duration", 0.2, "--seed", 9)
            digests.append(hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_zero_profiles_usage_error(self, tmp_path):
        assert usage_exit_code("synth", "--out", tmp_path, "--profiles", 0) == 2

    def test_replicates(self, tmp_path):
        out = tmp_path / "c"
        run_cli("synth", "--out", out, "--profiles", 2, "--words", 2,
                "--replicates", 2, "--duration", 0.2)
        assert len(list(out.glob("*.wav"))) == 8

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_is_error_line(self, tmp_path, capsys, duration):
        out = tmp_path / "c"
        assert run_cli("synth", "--out", out, "--profiles", 1, "--words", 1,
                       "--duration", duration) == 1
        assert "error: duration_s must be finite and positive" in capsys.readouterr().err
        assert not list(out.glob("*.wav"))

    def test_failed_run_leaves_no_new_directory(self, tmp_path, capsys):
        out = tmp_path / "new_dir"
        assert run_cli("synth", "--out", out, "--duration", "nan") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestMix:
    def test_mix_hits_target(self, tmp_path):
        from melsplit.signal_io import measure_snr_db

        # quiet source so the -6 dB mixture stays inside full scale
        t = np.arange(8000) / SR
        src = tmp_path / "w.wav"
        write_wav(AudioBuffer(0.05 * np.sin(2 * np.pi * 300 * t), SR), src)
        out = tmp_path / "noisy.wav"
        noise_out = tmp_path / "noise.wav"
        assert run_cli("mix", "--in", src, "--snr-db", -6, "--seed", 3,
                       "--out", out, "--noise-out", noise_out) == 0
        clean = read_wav(src)
        noisy = read_wav(out)
        # wav quantization costs a little accuracy on top of the exact mix
        assert measure_snr_db(clean, noisy) == pytest.approx(-6.0, abs=0.05)

    def test_missing_input_runtime_error(self, tmp_path):
        assert run_cli("mix", "--in", tmp_path / "no.wav", "--snr-db", 0,
                       "--out", tmp_path / "o.wav") == 1

    def test_missing_out_dir_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # A writer left half built by a failed open would report its own
        # error through sys.unraisablehook when collected.
        src = make_word_wav(tmp_path / "w.wav", duration=0.2)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        assert run_cli("mix", "--in", src, "--snr-db", 0,
                       "--out", tmp_path / "missing" / "m.wav") == 1
        gc.collect()
        assert unraisable == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("snr_db", ["nan", "-inf"])
    def test_undefined_snr_is_error_line(self, tmp_path, capsys, snr_db):
        src = make_word_wav(tmp_path / "w.wav", duration=0.2)
        out = tmp_path / "o.wav"
        assert run_cli("mix", "--in", src, f"--snr-db={snr_db}", "--out", out) == 1
        assert "error: target_snr_db must be a number" in capsys.readouterr().err
        assert not out.exists()


class TestAnc:
    def test_zero_reference_passthrough(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.3)
        ref = tmp_path / "ref.wav"
        write_wav(AudioBuffer(np.zeros(len(read_wav(src))), SR), ref)
        out = tmp_path / "out.wav"
        mse_csv = tmp_path / "mse.csv"
        assert run_cli("anc", "--primary", src, "--reference", ref,
                       "--out", out, "--mse-csv", mse_csv) == 0
        original = read_wav(src)
        processed = read_wav(out)
        assert np.max(np.abs(original.samples - processed.samples)) <= 2.0 / 32768.0
        lines = mse_csv.read_text().strip().split("\n")
        assert lines[0] == "window_index,mse"
        assert len(lines) == 1 + int(np.ceil(len(original) / 256))

    def test_mse_csv_parses_as_numbers(self, tmp_path):
        primary, reference = noisy_take_wavs(tmp_path)
        mse_csv = tmp_path / "mse.csv"
        assert run_cli("anc", "--primary", primary, "--reference", reference,
                       "--out", tmp_path / "out.wav", "--mse-csv", mse_csv) == 0
        table = np.loadtxt(mse_csv, delimiter=",", skiprows=1)
        config = LmsConfig(PipelineConfig().anc_taps, PipelineConfig().anc_mu)
        errors = run_anc(read_wav(primary), read_wav(reference), config)
        trace = mse_trace(errors.samples, MSE_WINDOW)
        assert np.array_equal(table[:, 0], np.arange(len(trace)))
        assert np.array_equal(table[:, 1], trace)


    def test_taps_flag_overrides_config(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.3)
        noise = AudioBuffer(0.1 * np.random.default_rng(2).standard_normal(len(read_wav(src))), SR)
        ref = tmp_path / "ref.wav"
        write_wav(noise, ref)
        outputs = {}
        for name, cfg_taps, flags in (
            ("flag", 9, ("--taps", 3)),
            ("config", 3, ()),
            ("config_only", 9, ()),
        ):
            cfg_path = tmp_path / f"{name}.json"
            save_config(PipelineConfig(anc_taps=cfg_taps), cfg_path)
            out = tmp_path / f"{name}.wav"
            assert run_cli("--config", cfg_path, "anc", "--primary", src,
                           "--reference", ref, *flags, "--out", out) == 0
            outputs[name] = out.read_bytes()
        assert outputs["flag"] == outputs["config"]
        assert outputs["flag"] != outputs["config_only"]

    def test_output_wav_pinned(self, tmp_path):
        # Recorded with the serial LMS loop; the block form must write the
        # same 16-bit samples.
        noisy, noise = noisy_take_wavs(tmp_path)
        out = tmp_path / "out.wav"
        assert run_cli("anc", "--primary", noisy, "--reference", noise, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c56cdc531e59914db78be165e60778ca076f465ee0f195d9c1cf7d99a40c3c78"
        )

    def test_divergence_exits_nonzero(self, tmp_path, capsys):
        # A 500 Hz sine in white noise at 0 dB: at mu = 0.3 the canceller's
        # error grows without bound but stays finite.
        t = np.arange(SR // 2) / SR
        clean = AudioBuffer(0.5 * np.sin(2 * np.pi * 500 * t), SR)
        noisy, noise = mix_at_snr(clean, NoiseSpec("white-gaussian", 0.0, seed=42))
        write_wav(noisy, tmp_path / "noisy.wav")
        write_wav(noise, tmp_path / "noise.wav")
        out = tmp_path / "out.wav"
        assert run_cli("anc", "--primary", tmp_path / "noisy.wav",
                       "--reference", tmp_path / "noise.wav",
                       "--taps", 31, "--mu", 0.3, "--out", out) == 1
        assert "diverged at step" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_length_mismatch_names_both_files(self, tmp_path, capsys):
        primary = make_word_wav(tmp_path / "primary.wav", duration=1.0)
        reference = make_word_wav(tmp_path / "noise.wav", duration=0.5)
        out = tmp_path / "out.wav"
        assert run_cli("anc", "--primary", primary, "--reference", reference,
                       "--out", out) == 1
        err = capsys.readouterr().err
        for name in (str(primary), str(reference), "16000 samples", "8000"):
            assert name in err
        assert not out.exists()

    def test_reference_rate_mismatch_names_both_files(self, tmp_path, capsys):
        from melsplit.signal_io import synth_speaker

        primary = make_word_wav(tmp_path / "primary.wav", duration=0.5)
        reference = tmp_path / "noise.wav"
        write_wav(synth_speaker(0, 0, 0.5, 5, 22050), reference)
        assert run_cli("anc", "--primary", primary, "--reference", reference,
                       "--out", tmp_path / "out.wav") == 1
        err = capsys.readouterr().err
        for name in (str(primary), str(reference), "16000 Hz", "22050 Hz"):
            assert name in err

    def test_bad_flag_names_config_field(self, tmp_path, capsys):
        src = make_word_wav(tmp_path / "w.wav", duration=0.3)
        assert run_cli("anc", "--primary", src, "--reference", src,
                       "--taps", -1, "--out", tmp_path / "out.wav") == 1
        assert "anc_taps" in capsys.readouterr().err
        assert run_cli("filter", "--kind", "lp", "--hi", 1000, "--taps", 4,
                       "--in", src, "--out", tmp_path / "f.wav") == 1
        assert "fir_taps" in capsys.readouterr().err


class TestFilter:
    def test_lowpass_passes_low_sine(self, tmp_path):
        t = np.arange(8000) / SR
        src = tmp_path / "sine.wav"
        write_wav(AudioBuffer(0.5 * np.sin(2 * np.pi * 400 * t), SR), src)
        out = tmp_path / "filtered.wav"
        taps_csv = tmp_path / "taps.csv"
        assert run_cli("filter", "--kind", "lp", "--hi", 1000, "--in", src,
                       "--out", out, "--taps-csv", taps_csv) == 0
        x = read_wav(src).samples[500:-500]
        y = read_wav(out).samples[500:-500]
        assert np.sqrt(np.mean(y**2)) >= 0.95 * np.sqrt(np.mean(x**2))
        assert taps_csv.read_text().startswith("index,coefficient")

    def test_missing_cutoff_usage_error(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.2)
        assert usage_exit_code("filter", "--kind", "lp", "--in", src,
                               "--out", tmp_path / "o.wav") == 2

    @pytest.mark.parametrize("kind, flag", [("lp", "--lo"), ("hp", "--hi")])
    def test_unused_cutoff_usage_error(self, tmp_path, capsys, kind, flag):
        # A cutoff the kind does not read is an error, not silently ignored.
        src = make_word_wav(tmp_path / "w.wav", duration=0.2)
        out = tmp_path / "o.wav"
        assert usage_exit_code("filter", "--kind", kind, "--lo", 300, "--hi", 1000,
                               "--in", src, "--out", out) == 2
        assert f"--kind {kind} takes no {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestExtract:
    def test_single_row_count_on_one_second(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=1.0)
        out = tmp_path / "features"
        assert run_cli("extract", "--method", "single", "--in", src, "--out", out) == 0
        csvs = list(out.glob("*.csv"))
        assert len(csvs) == 1
        rows = csvs[0].read_text().strip().split("\n")[1:]
        assert len(rows) == (16000 - 400) // 160 + 1  # 98
        sidecar = json.loads(csvs[0].with_suffix(".json").read_text())
        assert sidecar["channel_id"] == "single"
        assert sidecar["N"] == 400 and sidecar["M"] == 160

    def test_dual_emits_two_aligned_csvs(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.5)
        out = tmp_path / "features"
        assert run_cli("extract", "--method", "dual", "--in", src, "--out", out) == 0
        ch1 = (out / "w.ch1.csv").read_text().strip().split("\n")
        ch2 = (out / "w.ch2.csv").read_text().strip().split("\n")
        assert len(ch1) == len(ch2) > 1

    @pytest.mark.parametrize("method", METHODS)
    def test_csvs_parse_as_numbers(self, tmp_path, method):
        src = make_word_wav(tmp_path / "w.wav", duration=0.5)
        out = tmp_path / "features"
        assert run_cli("extract", "--method", method, "--in", src, "--out", out) == 0
        features = extract(read_wav(src), method, PipelineConfig())
        for channel_id, rows in features.items():
            name = "w.csv" if len(features) == 1 else f"w.{channel_id}.csv"
            table = np.loadtxt(out / name, delimiter=",", skiprows=1)
            assert np.array_equal(table[:, 0], np.arange(len(rows)))
            assert np.array_equal(table[:, 1:], rows)

    @pytest.mark.parametrize("method", METHODS)
    def test_take_too_short_to_extract_names_file(self, tmp_path, capsys, method):
        # 320 samples do not fill one 400-sample frame; 480 do, and extract
        # clusters nothing, so they pass although kmeans_k=2 frames need 560.
        short = make_word_wav(tmp_path / "short.wav", duration=0.02)
        out = tmp_path / "features"
        assert run_cli("extract", "--method", method, "--in", short, "--out", out) == 1
        err = capsys.readouterr().err
        for name in (str(short), "320 samples", "fewer than extraction's 400"):
            assert name in err
        assert not out.exists()
        one_frame = make_word_wav(tmp_path / "one.wav", duration=0.03)
        assert run_cli("extract", "--method", method, "--in", one_frame, "--out", out) == 0

    def test_input_cut_short_is_one_error_line(self, tmp_path, capsys):
        # The data chunk ends inside a sample, one byte short of its header.
        wav = make_word_wav(tmp_path / "trunc.wav")
        wav.write_bytes(wav.read_bytes()[:-1])
        out = tmp_path / "feat"
        assert run_cli("extract", "--method", "dual", "--in", wav, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wav}: data cut short") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_input_distinct_exit(self, tmp_path):
        code = run_cli("extract", "--method", "single",
                       "--in", tmp_path / "no.wav", "--out", tmp_path)
        assert code == 1  # not 0 (success), not 2 (usage)

    def test_failed_run_leaves_no_new_directory(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        save_config(PipelineConfig(num_coeffs=20), path)
        wav = make_word_wav(tmp_path / "take.wav", duration=0.3)
        out = tmp_path / "new_dir"
        assert run_cli("--config", path, "extract", "--method", "dual", "--in", wav,
                       "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("method", METHODS)
    def test_sidecars_follow_the_config_table(self, tmp_path, method):
        cfg = PipelineConfig(split_hz=1500.0)
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        src = make_word_wav(tmp_path / "w.wav", duration=0.5)
        out = tmp_path / "features"
        assert run_cli("--config", cfg_path, "extract", "--method", method,
                       "--in", src, "--out", out) == 0
        sidecars = {}
        for path in out.glob("*.json"):
            meta = json.loads(path.read_text())
            sidecars[meta["channel_id"]] = (meta["band_lo"], meta["band_hi"], meta["P"])
        assert sidecars == channel_bands(method, cfg)

    def test_integer_spelled_float_gives_same_sidecars(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.5)
        sidecars = []
        for spelling in ("1500", "1500.0"):
            cfg_path = tmp_path / f"config_{spelling}.json"
            cfg_path.write_text(f'{{"split_hz": {spelling}}}')
            assert repr(load_config(cfg_path)) == repr(PipelineConfig(split_hz=1500.0))
            out = tmp_path / spelling
            assert run_cli("--config", cfg_path, "extract", "--method", "dual",
                           "--in", src, "--out", out) == 0
            sidecars.append({path.name: path.read_bytes() for path in out.glob("*.json")})
        assert len(sidecars[0]) == 2
        assert sidecars[0] == sidecars[1]


class TestVerdict:
    def test_file_against_itself(self, tmp_path, capsys):
        src = make_word_wav(tmp_path / "w.wav", duration=0.5)
        out = tmp_path / "verdict.json"
        assert run_cli("verdict", "--test", src, "--ref", src,
                       "--method", "dual", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["score"] == 0.0
        assert payload["decision"] == "identical"
        assert set(payload["per_channel_scores"]) == {"ch1", "ch2"}

    @pytest.mark.parametrize("method", METHODS)
    def test_score_is_the_mean_of_the_channel_scores(self, tmp_path, method):
        a = make_word_wav(tmp_path / "a.wav", profile=1, duration=0.5)
        b = make_word_wav(tmp_path / "b.wav", profile=4, seed=6, duration=0.5)
        out = tmp_path / "v.json"
        assert run_cli("verdict", "--test", a, "--ref", b, "--method", method, "--out", out) == 0
        payload = json.loads(out.read_text())
        per_channel = list(payload["per_channel_scores"].values())
        assert len(per_channel) == len(channel_bands(method, ExtractionConfig()))
        assert payload["score"] == np.mean(per_channel) > 0.0

    def test_decision_is_payload_not_status(self, tmp_path):
        a = make_word_wav(tmp_path / "a.wav", profile=0, duration=0.5)
        b = make_word_wav(tmp_path / "b.wav", profile=5, seed=6, duration=0.5)
        out = tmp_path / "v.json"
        code = run_cli("verdict", "--test", a, "--ref", b, "--method", "single",
                       "--threshold", 1e-9, "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["decision"] == "non-identical"
        # A score exactly at the threshold counts as identical.
        assert run_cli("verdict", "--test", a, "--ref", b, "--method", "single",
                       "--threshold", payload["score"], "--out", out) == 0
        assert json.loads(out.read_text())["decision"] == "identical"

    def test_sample_rate_mismatch_is_an_error(self, tmp_path, capsys):
        from melsplit.signal_io import synth_speaker

        test = make_word_wav(tmp_path / "test.wav", duration=0.5)
        ref = tmp_path / "ref.wav"
        write_wav(synth_speaker(0, 0, 0.5, 5, 22050), ref)
        assert run_cli("verdict", "--test", test, "--ref", ref, "--method", "single") == 1
        err = capsys.readouterr().err
        for name in (str(test), str(ref), "16000 Hz", "22050 Hz"):
            assert name in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verdict", "--method", "single", "--test", "TEST", "--ref", "REF"),
            ("verdict", "--method", "dual", "--test", "TEST", "--ref", "REF"),
            ("extract", "--method", "single", "--in", "TEST"),
            ("mix", "--snr-db", 0, "--in", "TEST", "--noise-out", "OUT2"),
            ("mix", "--snr-db", 0, "--in", "TEST", "--noise", "REF", "--noise-out", "OUT2"),
            ("anc", "--primary", "TEST", "--reference", "REF", "--mse-csv", "OUT2"),
            ("filter", "--kind", "lp", "--hi", 1000, "--in", "TEST", "--taps-csv", "OUT2"),
        ],
        ids=["verdict-single", "verdict-dual", "extract", "mix", "mix-noise", "anc", "filter"],
    )
    def test_wavs_off_the_config_rate_are_rejected(self, tmp_path, capsys, argv):
        from melsplit.signal_io import synth_speaker

        test, ref = tmp_path / "test.wav", tmp_path / "ref.wav"
        write_wav(synth_speaker(0, 0, 0.5, 5, 8000), test)
        write_wav(synth_speaker(1, 0, 0.5, 6, 8000), ref)
        paths = {"TEST": test, "REF": ref, "OUT": tmp_path / "out", "OUT2": tmp_path / "out2"}
        assert run_cli(*(paths.get(a, a) for a in argv + ("--out", "OUT"))) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [ref, test]  # nothing written
        for name in [f"{paths[a]} is sampled at 8000 Hz" for a in ("TEST", "REF") if a in argv]:
            assert name in captured.err
        assert captured.err.endswith("config sample_rate_hz is 16000\n")

    def test_anc_reference_length_mismatch_names_both_files(self, tmp_path, capsys):
        test = make_word_wav(tmp_path / "test.wav", duration=1.0)
        noise = make_word_wav(tmp_path / "noise.wav", duration=0.5)
        assert run_cli("verdict", "--test", test, "--ref", test, "--anc",
                       "--reference", noise) == 1
        err = capsys.readouterr().err
        for name in (str(test), str(noise), "16000 samples", "8000"):
            assert name in err

    def test_anc_reference_rate_mismatch_names_both_files(self, tmp_path, capsys):
        from melsplit.signal_io import synth_speaker

        test = make_word_wav(tmp_path / "test.wav", duration=0.5)
        noise = tmp_path / "noise.wav"
        write_wav(synth_speaker(0, 0, 0.5, 5, 22050), noise)
        assert run_cli("verdict", "--test", test, "--ref", test, "--anc",
                       "--reference", noise) == 1
        err = capsys.readouterr().err
        for name in (str(test), str(noise), "16000 Hz", "22050 Hz"):
            assert name in err

    @pytest.mark.parametrize("method", METHODS)
    def test_take_too_short_for_kmeans_k_names_file_and_field(self, tmp_path, capsys, method):
        # 0.3 s gives 28 frames, too few for 40 clusters: the take is
        # refused before it is extracted, naming the file and the field.
        test = make_word_wav(tmp_path / "a.wav", duration=0.3)
        ref = make_word_wav(tmp_path / "b.wav", duration=1.0)
        config = tmp_path / "k.json"
        config.write_text(json.dumps({"kmeans_k": 40}))
        assert run_cli("--config", config, "verdict", "--test", test, "--ref", ref,
                       "--method", method) == 1
        err = capsys.readouterr().err
        for name in (str(test), "4800 samples", "kmeans_k=40"):
            assert name in err
        assert str(ref) not in err
        assert run_cli("--config", config, "verdict", "--test", ref, "--ref", ref,
                       "--method", method) == 0

    def test_anc_requires_reference(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.3)
        assert usage_exit_code("verdict", "--test", src, "--ref", src, "--anc") == 2

    def test_reference_requires_anc(self, tmp_path, capsys):
        # Without --anc the noise reference would never be read.
        src = make_word_wav(tmp_path / "w.wav", duration=0.3)
        assert usage_exit_code("verdict", "--test", src, "--ref", src,
                               "--reference", tmp_path / "missing.wav") == 2
        assert "--reference requires --anc" in capsys.readouterr().err

    def test_verdict_with_anc(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.4)
        ref_noise = tmp_path / "n.wav"
        write_wav(AudioBuffer(np.zeros(len(read_wav(src))), SR), ref_noise)
        out = tmp_path / "v.json"
        assert run_cli("verdict", "--test", src, "--ref", src, "--anc",
                       "--reference", ref_noise, "--out", out) == 0
        assert json.loads(out.read_text())["decision"] == "identical"

    def test_anc_verdict_pinned(self, tmp_path):
        # Recorded with the serial LMS loop, as perfbench's verify_stream
        # expectations were; its gate allows 1e-9 relative on the score.
        noisy, noise = noisy_take_wavs(tmp_path)
        ref = make_word_wav(tmp_path / "ref.wav", profile=2, word=4, seed=18, duration=2.0)
        out = tmp_path / "v.json"
        assert run_cli("verdict", "--test", noisy, "--ref", ref, "--anc",
                       "--reference", noise, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["score"] == pytest.approx(7.700066451541162, rel=1e-9)
        assert payload["decision"] == "non-identical"


class TestBench:
    def test_tiny_plan_end_to_end(self, tmp_path):
        plan = {
            "snr_points_db": ["clean", -16],
            "methods": ["single"],
            "anc": ["off"],
            "trials": 6,
            "profiles": 3,
            "words": 3,
            "duration_s": 0.3,
            "calib_words": 1,
            "master_seed": 5,
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        report_path = tmp_path / "report.json"
        curves_path = tmp_path / "curves.csv"
        assert run_cli("bench", "--plan", plan_path, "--out", report_path,
                       "--curves", curves_path) == 0
        report = json.loads(report_path.read_text())
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            total = cell["tp"] + cell["tn"] + cell["fp"] + cell["fn"]
            assert total == 6
            assert cell["accuracy"] == (cell["tp"] + cell["tn"]) / total
        lines = curves_path.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_config_file_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        save_config(PipelineConfig(), cfg_path)
        code = usage_exit_code("--config", cfg_path, "bench",
                               "--out", tmp_path / "r.json", "--curves", tmp_path / "c.csv")
        assert code == 2
        assert "--plan" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_malformed_plan_nonzero_exit(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"snr_pts": [0]}))
        code = run_cli("bench", "--plan", plan_path,
                       "--out", tmp_path / "r.json", "--curves", tmp_path / "c.csv")
        assert code == 1
        assert "snr_pts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plan, message",
        [
            ({"duration_s": float("inf")}, "config field duration_s"),
            ({"duration_s": 0}, "config field duration_s"),
            ({"anc_lead_s": float("nan")}, "config field anc_lead_s"),
            ({"anc_mu": 0.002}, "unknown plan field(s): ['anc_mu']"),
            # Shorter than one sample, and shorter than one frame.
            ({"duration_s": 1e-6, "trials": 2}, "config field duration_s"),
            ({"duration_s": 0.02, "trials": 2}, "config field duration_s"),
            ({"snr_points_db": []}, "config field snr_points_db: must not be empty"),
        ],
    )
    def test_bad_plan_field_is_error_line(self, tmp_path, capsys, plan, message):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code = run_cli("bench", "--plan", plan_path,
                       "--out", tmp_path / "r.json", "--curves", tmp_path / "c.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "c.csv").exists()

    def test_default_plan_loads(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_to_dict(ExperimentPlan())))
        assert load_plan(plan_path) == ExperimentPlan()

    def test_divergence_names_take(self, tmp_path, capsys):
        plan = {
            "snr_points_db": [-16],
            "methods": ["single"],
            "anc": ["on"],
            "anc_mu_fraction": 50,
            "trials": 6,
            "profiles": 3,
            "words": 3,
            "duration_s": 0.3,
            "calib_words": 1,
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code = run_cli("bench", "--plan", plan_path,
                       "--out", tmp_path / "r.json", "--curves", tmp_path / "c.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: ANC diverged on take p\d\.w\d\.r1 at SNR -16 dB", err, re.M)

    def test_malformed_manifest_is_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            [{"profile_id": "x", "word_id": 0, "seed": 1, "path": "a.wav"}]
        ))
        code = run_cli("bench", "--corpus", manifest,
                       "--out", tmp_path / "r.json", "--curves", tmp_path / "c.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "entry 0 field profile_id" in err


class TestPipelineConfig:
    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig(frame_len=320, num_coeffs=10)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        save_config(load_config(path), tmp_path / "config2.json")
        assert (tmp_path / "config2.json").read_text() == path.read_text()

    def test_field_precise_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"band_top_hz": 9000.0}))
        with pytest.raises(ConfigError, match="band_top_hz"):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus_knob": 1}))
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_config(path)

    def test_dropped_kmeans_knobs_rejected(self, tmp_path):
        for knob, value in (("kmeans_tol", 1e-9), ("kmeans_max_iter", 100)):
            path = tmp_path / f"{knob}.json"
            path.write_text(json.dumps({knob: value}))
            with pytest.raises(ConfigError, match=knob):
                load_config(path)

    @pytest.mark.parametrize(
        "knob, value",
        [("threshold", "1"), ("fft_size", "512"), ("seed", 1.5), ("anc_taps", 3.0), ("seed", True)],
    )
    def test_wrong_type_named_on_load(self, tmp_path, knob, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({knob: value}))
        with pytest.raises(ConfigError, match=knob):
            load_config(path)

    def test_integer_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"split_hz": 1500, "threshold": 2}))
        assert load_config(path) == PipelineConfig(split_hz=1500.0, threshold=2.0)

    @pytest.mark.parametrize("mu", [float("inf"), float("nan")])
    def test_anc_mu_must_be_finite(self, mu):
        with pytest.raises(ConfigError, match="anc_mu: must be finite and positive"):
            PipelineConfig(anc_mu=mu)

    def test_num_coeffs_checked_by_the_method_that_runs(self, tmp_path, capsys):
        # 20 coefficients fit the 26 single-channel filters, not the 13 per dual channel.
        cfg = PipelineConfig(num_coeffs=20)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        wav = make_word_wav(tmp_path / "take.wav", duration=0.3)
        out = tmp_path / "feats"
        assert run_cli("--config", path, "extract", "--method", "single", "--in", wav,
                       "--out", out) == 0
        assert run_cli("--config", path, "extract", "--method", "dual", "--in", wav,
                       "--out", out) == 1
        assert "num_coeffs: must be at most dual's 13 filters" in capsys.readouterr().err

    def test_is_an_extraction_config(self):
        assert isinstance(PipelineConfig(), ExtractionConfig)
        with pytest.raises(ConfigError, match="fft_size"):
            PipelineConfig(fft_size=500)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        save_config(PipelineConfig(seed=5), cfg_path)
        out = tmp_path / "corpus"
        assert run_cli("--config", cfg_path, "synth", "--out", out, "--profiles", 1,
                       "--words", 1, "--duration", 0.2, "--seed", 9) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest[0]["seed"] == corpus_seed(9, 0, 0, 0)

    def test_threshold_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        save_config(PipelineConfig(threshold=3.0), cfg_path)
        src = make_word_wav(tmp_path / "w.wav", duration=0.3)
        out = tmp_path / "v.json"
        assert run_cli("--config", cfg_path, "verdict", "--test", src, "--ref", src,
                       "--threshold", 0.5, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["threshold"] == 0.5
        assert payload["config"]["threshold"] == 0.5

    def test_config_flags_are_the_five_field_dests(self):
        # A flag overrides the config field its dest names, so a new flag
        # under a field's name would silently become an override.
        parser = _build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for sub in subparsers.choices.values() for a in sub._actions}
        dests |= {a.dest for a in parser._actions}
        assert dests & {f.name for f in fields(PipelineConfig)} == {
            "seed", "anc_taps", "anc_mu", "fir_taps", "threshold"
        }

    def test_only_given_field_dests_override(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        save_config(PipelineConfig(kmeans_k=3, split_hz=1500.0, threshold=4.0), cfg_path)
        # an unset flag (None) and a dest that names no field leave the
        # config alone; a set dest that names a field overrides it
        args = argparse.Namespace(
            config=str(cfg_path), kmeans_k=5, split_hz=None, threshold=2.5, profiles=7
        )
        cfg = _effective_config(args)
        assert (cfg.kmeans_k, cfg.split_hz, cfg.threshold) == (5, 1500.0, 2.5)
        assert cfg == replace(load_config(cfg_path), kmeans_k=5, threshold=2.5)

    def test_config_flows_into_extract(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        save_config(PipelineConfig(frame_len=320, frame_shift=320), cfg_path)
        src = make_word_wav(tmp_path / "w.wav", duration=0.5)
        out = tmp_path / "features"
        assert run_cli("--config", cfg_path, "extract", "--method", "single",
                       "--in", src, "--out", out) == 0
        rows = (out / "w.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 8000 // 320  # disjoint 320-sample frames


class TestParserReuse:
    def calls(self, tmp_path):
        test = make_word_wav(tmp_path / "t.wav", profile=1, duration=0.5)
        ref = make_word_wav(tmp_path / "r.wav", profile=2, seed=6, duration=0.5)
        return [
            ("verdict", "--test", test, "--ref", ref, "--method", "single", "--threshold", "50"),
            ("verdict", "--test", test, "--ref", ref),
            ("filter", "--kind", "bp", "--lo", "300", "--in", test, "--out", tmp_path / "f.wav"),
            ("verdict", "--test", test, "--ref", ref, "--anc"),
            ("--config", tmp_path / "missing.json", "verdict", "--test", test, "--ref", ref),
            ("verdict", "--test", test, "--ref", ref, "--method", "dual"),
        ]

    def outcome(self, capsys, argv):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out

    def test_built_once_per_process(self):
        assert _build_parser() is _build_parser()

    def test_calls_in_one_process_match_fresh_calls(self, tmp_path, capsys):
        calls = self.calls(tmp_path)
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        reused = [self.outcome(capsys, argv) for argv in calls]
        assert reused == fresh
        # Usage errors still exit with 2, runtime errors with 1.
        assert [code for code, _ in fresh] == [0, 0, 2, 2, 1, 0]
        single, dual = json.loads(fresh[0][1]), json.loads(fresh[1][1])
        assert (single["threshold"], dual["threshold"]) == (50.0, PipelineConfig().threshold)
        assert set(single["per_channel_scores"]) == {"single"}


# One other valid value per PipelineConfig field, for the knob test.
CLI_KNOB_VALUES = {
    "frame_len": 320,
    "frame_shift": 128,
    "fft_size": 1024,
    "filters_single": 20,
    "filters_per_channel": 16,
    "num_coeffs": 10,
    "split_hz": 1500.0,
    "band_top_hz": 3500.0,
    "fir_taps": 51,
    "log_floor": 1.0,
    "sample_rate_hz": 12000,
    "anc_taps": 15,
    "anc_mu": 0.002,
    "kmeans_k": 3,
    "threshold": 100.0,  # the base pair scores about 8.4, so the decision flips
    "seed": 9,
}


class TestKnobs:
    @pytest.fixture(scope="class")
    def knob_verdict(self, tmp_path_factory):
        """verdict(cfg, knob): the verdict payload, read back from JSON,
        under config `cfg`, on inputs that exercise `knob`: two 0.5 s takes
        of different profiles, by the single method for filters_single;
        for the canceller's knobs, the noisy 2 s take with --anc and its
        noise reference against a clean take of its profile."""
        tmp = tmp_path_factory.mktemp("cli_knobs")
        a = make_word_wav(tmp / "a.wav", profile=1, duration=0.5)
        b = make_word_wav(tmp / "b.wav", profile=4, seed=6, duration=0.5)
        noisy, noise = noisy_take_wavs(tmp)
        ref = make_word_wav(tmp / "ref.wav", profile=2, word=4, seed=18, duration=2.0)

        def verdict(cfg, knob):
            argv = ["--test", a, "--ref", b]
            if knob in ("anc_taps", "anc_mu"):
                argv = ["--test", noisy, "--ref", ref, "--anc", "--reference", noise]
            if knob == "filters_single":
                argv += ["--method", "single"]
            save_config(cfg, tmp / "config.json")
            out = tmp / "verdict.json"
            assert run_cli("--config", tmp / "config.json", "verdict", *argv, "--out", out) == 0
            return json.loads(out.read_text())

        return verdict

    @pytest.mark.parametrize("knob", [f.name for f in fields(PipelineConfig)])
    def test_every_knob_is_echoed_and_changes_the_outcome(
        self, tmp_path, capsys, knob_verdict, knob
    ):
        assert set(CLI_KNOB_VALUES) == {f.name for f in fields(PipelineConfig)}
        value = CLI_KNOB_VALUES[knob]
        if knob == "sample_rate_hz":
            # Every subcommand that reads WAVs rejects one at any other rate
            # than the config's, and synth writes its WAVs at the config's rate.
            config = tmp_path / "config.json"
            save_config(PipelineConfig(sample_rate_hz=value), config)
            a = make_word_wav(tmp_path / "a.wav", profile=1, duration=0.5)
            b = make_word_wav(tmp_path / "b.wav", profile=4, seed=6, duration=0.5)
            assert run_cli("--config", config, "verdict", "--test", a, "--ref", b) == 1
            assert f"config sample_rate_hz is {value}" in capsys.readouterr().err
            assert run_cli("--config", config, "synth", "--out", tmp_path,
                           "--profiles", 1, "--words", 1, "--duration", 0.2) == 0
            take = tmp_path / "p00_w00_r0.wav"
            assert read_wav(take).sample_rate_hz == value != SR
            out = tmp_path / "verdict.json"
            assert run_cli("--config", config, "verdict", "--test", take, "--ref", take,
                           "--out", out) == 0
            assert json.loads(out.read_text())["config"][knob] == value
            # mix, anc and filter run a 16 kHz WAV at the default rate and
            # refuse it at the knob's; they run the knob's take at its rate.
            out = tmp_path / "out.wav"
            for argv in (
                ("mix", "--snr-db", 0, "--in", None),
                ("anc", "--primary", None, "--reference", None),
                ("filter", "--kind", "bp", "--lo", 1000, "--hi", 4000, "--in", None),
            ):
                for wav, config_argv, code, rate in (
                    (a, (), 0, SR),
                    (a, ("--config", config), 1, None),
                    (take, ("--config", config), 0, value),
                ):
                    out.unlink(missing_ok=True)
                    filled = (wav if x is None else x for x in argv)
                    assert run_cli(*config_argv, *filled, "--out", out) == code
                    assert (read_wav(out).sample_rate_hz if out.exists() else None) == rate
            return
        payload = knob_verdict(PipelineConfig(**{knob: value}), knob)
        assert payload["config"][knob] == value
        base = knob_verdict(PipelineConfig(), knob)
        outcome = ("score", "per_channel_scores", "decision")
        assert [payload[k] for k in outcome] != [base[k] for k in outcome]
