"""Benchmark harness tests on a desk-scale plan."""

import json
from dataclasses import fields

import numpy as np
import pytest

import melsplit.bench
from melsplit.bench import (
    CLEAN_SNR_DB,
    ExperimentPlan,
    _calibration_pairs,
    _features,
    _mix_with_lead,
    _Utterance,
    emit_curves,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    report_to_dict,
    run_sweep,
)
from melsplit.cluster import ConfusionCounts, accuracy
from melsplit.errors import ConfigError
from melsplit.mfcc import METHODS, ExtractionConfig, channel_bands
from melsplit.signal_io import (
    AudioBuffer,
    corpus_seed,
    measure_snr_db,
    synth_speaker,
    write_manifest,
    write_wav,
)


def mini_plan(**overrides):
    base = dict(
        snr_points_db=(CLEAN_SNR_DB, -16.0),
        methods=("single", "dual"),
        anc=("off", "on"),
        trials=8,
        master_seed=77,
        profiles=3,
        words=4,
        duration_s=0.3,
        calib_words=1,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


@pytest.fixture(scope="module")
def mini_report():
    return run_sweep(mini_plan())


class TestRunSweep:
    def test_single_cell_plan(self):
        plan = mini_plan(snr_points_db=(0.0,), methods=("single",), anc=("off",))
        report = run_sweep(plan)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert (cell.method, cell.anc, cell.snr_db) == ("single", "off", 0.0)

    def test_cell_count_is_cross_product(self, mini_report):
        assert len(mini_report.cells) == 2 * 2 * 2

    def test_counts_total_trials(self, mini_report):
        for cell in mini_report.cells:
            assert cell.counts.total == 8

    def test_accuracy_in_unit_interval(self, mini_report):
        for cell in mini_report.cells:
            assert 0.0 <= cell.accuracy <= 1.0

    def test_reported_accuracy_matches_counts(self, mini_report):
        for cell in mini_report.cells:
            assert cell.accuracy == accuracy(cell.counts)

    def test_determinism_excluding_wall_time(self):
        plan = mini_plan()
        a = report_to_dict(run_sweep(plan), include_timing=False)
        b = report_to_dict(run_sweep(plan), include_timing=False)
        assert a == b

    def test_clean_beats_noisy_no_anc(self, mini_report):
        clean = mini_report.cell("dual", "off", CLEAN_SNR_DB).accuracy
        noisy = mini_report.cell("dual", "off", -16.0).accuracy
        assert clean >= noisy

    def test_missing_corpus_manifest(self, tmp_path):
        plan = mini_plan(corpus=str(tmp_path / "absent.json"))
        with pytest.raises(ConfigError):
            run_sweep(plan)

    def test_corpus_from_manifest(self, tmp_path):
        # a two-replicate corpus on disk reproduces the in-memory protocol
        entries = []
        for p in range(3):
            for w in range(4):
                for r in (0, 1):
                    seed = corpus_seed(77, p, w, r)
                    buf = synth_speaker(p, w, 0.3, seed)
                    name = f"p{p}_w{w}_r{r}.wav"
                    write_wav(buf, tmp_path / name)
                    entries.append(
                        {"profile_id": p, "word_id": w, "seed": seed, "path": name}
                    )
        manifest = tmp_path / "manifest.json"
        write_manifest(entries, manifest)
        plan = mini_plan(corpus=str(manifest), snr_points_db=(CLEAN_SNR_DB,), anc=("off",))
        report = run_sweep(plan)
        assert len(report.cells) == 2
        assert report.corpus_digest

    def test_single_replicate_corpus_rejected(self, tmp_path):
        entries = []
        for p in range(3):
            for w in range(4):
                seed = corpus_seed(1, p, w, 0)
                name = f"p{p}_w{w}.wav"
                write_wav(synth_speaker(p, w, 0.3, seed), tmp_path / name)
                entries.append({"profile_id": p, "word_id": w, "seed": seed, "path": name})
        manifest = tmp_path / "manifest.json"
        write_manifest(entries, manifest)
        with pytest.raises(ConfigError):
            run_sweep(mini_plan(corpus=str(manifest)))

    def test_silent_manifest_entry_named(self, tmp_path):
        entries = []
        for p in range(3):
            for w in range(4):
                for r in (0, 1):
                    seed = corpus_seed(77, p, w, r)
                    buf = synth_speaker(p, w, 0.3, seed)
                    if (p, w, r) == (1, 2, 1):
                        buf = AudioBuffer(np.zeros(len(buf)), buf.sample_rate_hz)
                    name = f"p{p}_w{w}_r{r}.wav"
                    write_wav(buf, tmp_path / name)
                    entries.append({"profile_id": p, "word_id": w, "seed": seed, "path": name})
        manifest = tmp_path / "manifest.json"
        write_manifest(entries, manifest)
        with pytest.raises(ConfigError, match=r"p1_w2_r1\.wav \(profile 1, word 2\)"):
            run_sweep(mini_plan(corpus=str(manifest)))

    def test_too_many_trials_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(mini_plan(trials=1000))

    def test_clean_condition_runs_no_canceller(self, monkeypatch):
        calls = []
        real_run_anc = melsplit.bench.run_anc

        def counting_run_anc(*args, **kwargs):
            calls.append(1)
            return real_run_anc(*args, **kwargs)

        monkeypatch.setattr(melsplit.bench, "run_anc", counting_run_anc)
        report = run_sweep(mini_plan(snr_points_db=(CLEAN_SNR_DB,), anc=("on",)))
        assert len(report.cells) == 2
        assert calls == []

    def test_clean_counts_same_with_and_without_anc(self, mini_report):
        for method in ("single", "dual"):
            on = mini_report.cell(method, "on", CLEAN_SNR_DB).counts
            off = mini_report.cell(method, "off", CLEAN_SNR_DB).counts
            assert on == off


class TestFeatures:
    @pytest.mark.parametrize("method", METHODS)
    def test_keyed_by_channel_id(self, method):
        cfg = ExtractionConfig(split_hz=1500.0)
        feats = _features(synth_speaker(0, 1, 0.3, seed=2), method, cfg, "u")
        assert list(feats) == list(channel_bands(method, cfg))
        assert all(fm.channel_id == key for key, fm in feats.items())


class TestCalibrationPairs:
    def test_impostor_never_scores_own_profile(self):
        # two profiles, two calibration words: the rotation must skip the
        # test's own profile on the second word
        pairs = _calibration_pairs([0, 1], [1, 2])
        impostors = [pair for pair in pairs if not pair.genuine]
        assert len(impostors) == 4
        assert all(pair.ref[0] != pair.test[0] for pair in impostors)

    def test_one_genuine_and_one_impostor_per_take(self):
        pairs = _calibration_pairs([0, 1, 2], [3, 4])
        for genuine in (True, False):
            tests = sorted(pair.test for pair in pairs if pair.genuine == genuine)
            assert tests == sorted((p, w) for p in range(3) for w in (3, 4))
        assert all(pair.ref == pair.test for pair in pairs if pair.genuine)
        assert all(pair.ref[1] == pair.test[1] for pair in pairs)


class TestEmitCurves:
    def test_row_count_and_header(self, mini_report, tmp_path):
        path = tmp_path / "curves.csv"
        emit_curves(mini_report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "method,anc,snr_db,tp,tn,fp,fn,accuracy"
        assert len(lines) == 1 + 8

    def test_rows_sorted_by_key(self, mini_report, tmp_path):
        path = tmp_path / "curves.csv"
        emit_curves(mini_report, path)
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        keys = [(r[0], r[1], float(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_accuracy_column_recomputes(self, mini_report, tmp_path):
        path = tmp_path / "curves.csv"
        emit_curves(mini_report, path)
        for line in path.read_text().strip().split("\n")[1:]:
            parts = line.split(",")
            tp, tn, fp, fn = (int(v) for v in parts[3:7])
            assert float(parts[7]) == accuracy(ConfusionCounts(tp, tn, fp, fn))

    def test_byte_identical_for_same_seed(self, tmp_path):
        plan = mini_plan()
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_curves(run_sweep(plan), path_a)
        emit_curves(run_sweep(plan), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()


# A valid value other than the default for every ExperimentPlan field.
NON_DEFAULT_PLAN_VALUES = {
    "snr_points_db": (CLEAN_SNR_DB, -3.0),
    "methods": ("dual",),
    "anc": ("on",),
    "corpus": "corpus/manifest.json",
    "trials": 12,
    "master_seed": 9,
    "profiles": 4,
    "words": 5,
    "duration_s": 0.4,
    "sample_rate_hz": 22050,
    "calib_words": 3,
    "anc_taps": 17,
    "anc_mu": 0.01,
    "anc_mu_fraction": 0.05,
    "anc_lead_s": 0.1,
    "kmeans_k": 3,
    "extraction": ExtractionConfig(num_coeffs=10, fir_taps=51),
}


class TestPlanSerialization:
    def test_round_trip(self):
        plan = mini_plan()
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_non_default_values_cover_every_field(self):
        assert set(NON_DEFAULT_PLAN_VALUES) == {f.name for f in fields(ExperimentPlan)}

    @pytest.mark.parametrize("name", sorted(NON_DEFAULT_PLAN_VALUES))
    def test_every_field_round_trips(self, name):
        plan = ExperimentPlan(**{name: NON_DEFAULT_PLAN_VALUES[name]})
        assert plan != ExperimentPlan()
        assert plan_from_dict(plan_to_dict(plan)) == plan
        assert plan_from_dict(json.loads(json.dumps(plan_to_dict(plan)))) == plan

    def test_negative_anc_lead_rejected(self):
        with pytest.raises(ConfigError, match="anc_lead_s"):
            plan_from_dict({"anc_lead_s": -0.1})

    @pytest.mark.parametrize(
        "field_name, value, named",
        [
            ("kmeans_k", 0, "kmeans_k"),
            ("anc_mu_fraction", -1, "anc_mu_fraction"),
            ("anc_taps", -1, "anc_taps"),
            ("sample_rate_hz", 8000, "band_top_hz"),
            ("anc_mu", 0.0, "anc_mu"),
        ],
    )
    def test_bad_setting_named_on_load(self, field_name, value, named):
        with pytest.raises(ConfigError, match=named):
            plan_from_dict({field_name: value})

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"kmeans_k": 2.0}, "kmeans_k"),
            ({"trials": 4.0}, "trials"),
            ({"corpus": 5}, "corpus"),
            ({"master_seed": True}, "master_seed"),
            ({"extraction": {"fft_size": 512.0}}, "fft_size"),
        ],
    )
    def test_wrong_type_named_on_load(self, data, named):
        with pytest.raises(ConfigError, match=named):
            plan_from_dict(data)

    @pytest.mark.parametrize("points", ["[70]", "[60, 70]", "[NaN]", "[-Infinity]"])
    def test_snr_point_must_be_finite_and_at_most_clean(self, points):
        with pytest.raises(ConfigError, match="snr_points_db"):
            plan_from_dict(json.loads(f'{{"snr_points_db": {points}}}'))

    def test_extraction_settings_validated(self):
        with pytest.raises(ConfigError, match="fft_size"):
            plan_from_dict({"extraction": {"fft_size": 500}})

    def test_report_echoes_every_plan_field(self, mini_report):
        assert {f.name for f in fields(ExperimentPlan)} <= set(mini_report.config_echo)

    def test_clean_marker_parsed(self):
        plan = plan_from_dict({"snr_points_db": ["clean", 0, -6]})
        assert plan.snr_points_db == (CLEAN_SNR_DB, 0.0, -6.0)

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ConfigError, match="not_a_field"):
            plan_from_dict({"not_a_field": 1})

    def test_bad_snr_entry(self):
        with pytest.raises(ConfigError, match="snr_points_db"):
            plan_from_dict({"snr_points_db": ["dirty"]})

    def test_unknown_extraction_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            plan_from_dict({"extraction": {"bogus": 3}})

    def test_load_plan_malformed_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_plan(path)

    def test_duplicate_snr_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(snr_points_db=(0.0, 0.0))

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(methods=("triple",))


class TestMixWithLead:
    def test_hits_target_snr(self):
        plan = mini_plan()
        clean = synth_speaker(1, 2, 0.3, seed=4)
        mixed = _mix_with_lead(plan, _Utterance(1, 2, 1, 4, clean), -6.0)
        assert measure_snr_db(clean, mixed.noisy) == pytest.approx(-6.0, abs=1e-9)
        lead = len(mixed.primary_ext) - len(clean)
        assert lead == round(plan.anc_lead_s * clean.sample_rate_hz)
        # the canceller's primary ends in the noisy take and its reference
        # carries exactly the noise that was added
        assert np.array_equal(mixed.primary_ext.samples[lead:], mixed.noisy.samples)
        noise = mixed.reference_ext.samples[lead:]
        assert np.array_equal(clean.samples + noise, mixed.noisy.samples)
