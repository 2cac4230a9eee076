"""Command-line interface tests: subcommands, exit codes, config handling."""

import hashlib
import json

import numpy as np
import pytest

from melsplit.cli import PipelineConfig, load_config, main, save_config
from melsplit.errors import ConfigError
from melsplit.mfcc import METHODS, ExtractionConfig, channel_bands
from melsplit.signal_io import AudioBuffer, corpus_seed, read_wav, write_wav

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

    def test_missing_input_distinct_exit(self, tmp_path):
        code = run_cli("extract", "--method", "single",
                       "--in", tmp_path / "no.wav", "--out", tmp_path)
        assert code == 1  # not 0 (success), not 2 (usage)

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

    def test_decision_is_payload_not_status(self, tmp_path):
        a = make_word_wav(tmp_path / "a.wav", profile=0, duration=0.5)
        b = make_word_wav(tmp_path / "b.wav", profile=5, seed=6, duration=0.5)
        out = tmp_path / "v.json"
        code = run_cli("verdict", "--test", a, "--ref", b, "--method", "single",
                       "--threshold", 1e-9, "--out", out)
        assert code == 0
        assert json.loads(out.read_text())["decision"] == "non-identical"

    def test_anc_requires_reference(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.3)
        assert usage_exit_code("verdict", "--test", src, "--ref", src, "--anc") == 2

    def test_verdict_with_anc(self, tmp_path):
        src = make_word_wav(tmp_path / "w.wav", duration=0.4)
        ref_noise = tmp_path / "n.wav"
        write_wav(AudioBuffer(np.zeros(len(read_wav(src))), SR), ref_noise)
        out = tmp_path / "v.json"
        assert run_cli("verdict", "--test", src, "--ref", src, "--anc",
                       "--reference", ref_noise, "--out", out) == 0
        assert json.loads(out.read_text())["decision"] == "identical"


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

    def test_config_flows_into_extract(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        save_config(PipelineConfig(frame_len=320, frame_shift=320), cfg_path)
        src = make_word_wav(tmp_path / "w.wav", duration=0.5)
        out = tmp_path / "features"
        assert run_cli("--config", cfg_path, "extract", "--method", "single",
                       "--in", src, "--out", out) == 0
        rows = (out / "w.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 8000 // 320  # disjoint 320-sample frames
