"""Benchmark harness tests on a desk-scale plan."""

import json
from dataclasses import fields

import numpy as np
import pytest

from melsplit.bench import (
    CLEAN_SNR_DB,
    ExperimentPlan,
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
from melsplit.mfcc import ExtractionConfig
from melsplit.signal_io import (
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

    def test_too_many_trials_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(mini_plan(trials=1000))


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
    "sample_rate_hz": 8000,
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
