"""Benchmark harness tests on a desk-scale plan."""

import json
from dataclasses import fields

import numpy as np
import pytest

import melsplit.bench
import melsplit.cli
import melsplit.cluster
from melsplit.bench import (
    CLEAN_SNR_DB,
    ExperimentPlan,
    _build_corpus,
    _calibration_pairs,
    _cancel_stacks,
    _make_pairs,
    _noise_stacks,
    _point_features,
    _score_pairs,
    _take_reader,
    _unit_noise,
    emit_curves,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    report_to_dict,
    run_sweep,
)
from melsplit.cluster import ConfusionCounts, accuracy, confusion, enroll_many
from melsplit.errors import ConfigError, DivergenceError
from melsplit.mfcc import METHODS, ExtractionConfig, channel_bands, extract
from melsplit.anc import run_anc
from melsplit.signal_io import (
    AudioBuffer,
    corpus_seed,
    measure_snr_db,
    noise_scale,
    synth_speaker,
    write_manifest,
    write_wav,
)
from reference import stack_takes


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
        assert report_to_dict(run_sweep(plan)) == report_to_dict(run_sweep(plan))

    def test_clean_beats_noisy_no_anc(self, mini_report):
        clean = mini_report.cell("dual", "off", CLEAN_SNR_DB).accuracy
        noisy = mini_report.cell("dual", "off", -16.0).accuracy
        assert clean >= noisy

    def test_missing_corpus_manifest(self, tmp_path):
        plan = mini_plan(corpus=str(tmp_path / "absent.json"))
        with pytest.raises(ConfigError):
            run_sweep(plan)

    def test_corpus_from_manifest(self, tmp_path, monkeypatch):
        # a two-replicate corpus on disk reproduces the in-memory protocol;
        # the sweep reads each take once and the corpus lets go of it then,
        # so only the takes that no pair reads stay loaded
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
        built, read = [], []
        real_build_corpus = melsplit.bench._build_corpus

        def recording_build_corpus(plan):
            take, keys, digest = real_build_corpus(plan)
            built.append((take.__self__, keys))

            def recording_take(key):
                read.append(key)
                return take(key)

            return recording_take, keys, digest

        monkeypatch.setattr(melsplit.bench, "_build_corpus", recording_build_corpus)
        plan = mini_plan(corpus=str(manifest), snr_points_db=(CLEAN_SNR_DB,), anc=("off",))
        report = run_sweep(plan)
        assert len(report.cells) == 2
        assert report.corpus_digest
        ((corpus, keys),) = built
        assert len(read) == len(set(read))
        assert sorted(corpus) == sorted(set(keys) - set(read))
        assert (len(keys), len(corpus)) == (24, 6)

    def test_manifest_sweep_echoes_the_manifests_grid(self, tmp_path):
        # The manifest decides the profiles, words and take lengths, so the
        # report echoes its counts and no duration, not the plan's defaults.
        corpus = tmp_path / "corpus"
        assert melsplit.cli.main([
            "synth", "--out", str(corpus), "--profiles", "3", "--words", "4",
            "--replicates", "2", "--duration", "0.3", "--seed", "5",
        ]) == 0
        plan = plan_from_dict({
            "corpus": str(corpus / "manifest.json"), "trials": 8,
            "snr_points_db": ["clean", 0.0], "anc": ["off"], "calib_words": 1,
        })
        assert (plan.profiles, plan.words, plan.duration_s) == (8, 10, 0.6)
        config = report_to_dict(run_sweep(plan))["config"]
        assert (config["profiles"], config["words"], config["duration_s"]) == (3, 4, None)
        assert config["corpus"] == plan.corpus and config["trials"] == 8

    def test_unequal_take_lengths(self, tmp_path, monkeypatch):
        # Takes of two durations: each condition's takes enroll in groups of
        # equal row count, and every take's models equal its enrollment alone.
        entries = []
        for p in range(3):
            for w in range(4):
                for r in (0, 1):
                    seed = corpus_seed(77, p, w, r)
                    buf = synth_speaker(p, w, 0.3 if (p + w + r) % 2 else 0.4, seed)
                    name = f"p{p}_w{w}_r{r}.wav"
                    write_wav(buf, tmp_path / name)
                    entries.append({"profile_id": p, "word_id": w, "seed": seed, "path": name})
        manifest = tmp_path / "manifest.json"
        write_manifest(entries, manifest)
        calls = []
        real_enroll_many = melsplit.bench.enroll_many

        def recording_enroll_many(takes, k, seed):
            models = real_enroll_many(takes, k, seed)
            calls.append((takes, k, seed, models))
            return models

        monkeypatch.setattr(melsplit.bench, "enroll_many", recording_enroll_many)
        report = run_sweep(mini_plan(corpus=str(manifest)))
        assert len(report.cells) == 8
        row_counts = set()
        for takes, k, seed, models in calls:
            for features, take_models in zip(takes, models):
                row_counts.update(fm.rows.shape[0] for fm in features.values())
                (alone,) = enroll_many([features], k, seed)
                assert list(take_models) == list(alone)
                for channel, model in alone.items():
                    assert np.array_equal(take_models[channel].centroids, model.centroids)
                    assert np.array_equal(take_models[channel].assignments, model.assignments)
        assert len(row_counts) == 2

    def test_unequal_take_lengths_report_pinned(self, tmp_path):
        # Takes of 0.4 s and 0.3 s: the references, the calibration takes and
        # the test takes each fill one stack per length.
        entries = []
        for p in range(3):
            for w in range(4):
                for r in (0, 1):
                    seed = corpus_seed(77, p, w, r)
                    buf = synth_speaker(p, w, 0.3 if (p + w + r) % 2 else 0.4, seed)
                    name = f"p{p}_w{w}_r{r}.wav"
                    write_wav(buf, tmp_path / name)
                    entries.append({"profile_id": p, "word_id": w, "seed": seed, "path": name})
        write_manifest(entries, tmp_path / "manifest.json")
        report = run_sweep(mini_plan(corpus=str(tmp_path / "manifest.json")))
        thresholds = report.config_echo["thresholds"]
        assert thresholds["single"] == pytest.approx(8.50619329588452, rel=1e-12)
        assert thresholds["dual"] == pytest.approx(5.563858467557595, rel=1e-12)
        perfect, chance = ConfusionCounts(4, 4, 0, 0), ConfusionCounts(0, 4, 0, 4)
        for c in report.cells:
            noisy_off = c.snr_db != CLEAN_SNR_DB and c.anc == "off"
            assert c.counts == (chance if noisy_off else perfect), (c.method, c.anc, c.snr_db)

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

    def test_manifest_grid_gap_named(self, tmp_path):
        # Profile 2 lacks word 0. Whether a trial pair would draw that take
        # depends on the pair seed, so the gap is rejected before pairs are drawn.
        entries = []
        for p in range(3):
            for w in range(3):
                if (p, w) == (2, 0):
                    continue
                for r in (0, 1):
                    seed = corpus_seed(77, p, w, r)
                    name = f"p{p}_w{w}_r{r}.wav"
                    write_wav(synth_speaker(p, w, 0.3, seed), tmp_path / name)
                    entries.append({"profile_id": p, "word_id": w, "seed": seed, "path": name})
        manifest = tmp_path / "manifest.json"
        write_manifest(entries, manifest)
        for trials in (4, 12):
            plan = mini_plan(
                corpus=str(manifest), words=3, trials=trials,
                snr_points_db=(CLEAN_SNR_DB,), anc=("off",),
            )
            with pytest.raises(ConfigError, match="profile 2 word 0"):
                run_sweep(plan)

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

    @pytest.mark.parametrize(
        "short_s, kmeans_k, named",
        [
            (0.02, 2, r"p1_w2_r1\.wav \(profile 1, word 2\) has 320 samples, fewer than "
                      r"extraction's 400$"),
            (0.3, 29, r"p0_w0_r[01]\.wav \(profile 0, word 0\) has 4800 samples, fewer than "
                      r"the 4880 that kmeans_k=29"),
        ],
        ids=["frame", "kmeans_k"],
    )
    def test_short_manifest_entry_named(self, tmp_path, short_s, kmeans_k, named):
        entries = []
        for p in range(3):
            for w in range(4):
                for r in (0, 1):
                    seed = corpus_seed(77, p, w, r)
                    duration = short_s if (p, w, r) == (1, 2, 1) else 0.3
                    name = f"p{p}_w{w}_r{r}.wav"
                    write_wav(synth_speaker(p, w, duration, seed), tmp_path / name)
                    entries.append({"profile_id": p, "word_id": w, "seed": seed, "path": name})
        manifest = tmp_path / "manifest.json"
        write_manifest(entries, manifest)
        with pytest.raises(ConfigError, match=named):
            run_sweep(mini_plan(corpus=str(manifest), kmeans_k=kmeans_k))

    def test_manifest_sample_rate_mismatch_named(self, tmp_path):
        entries = []
        for p in range(3):
            for w in range(4):
                for r in (0, 1):
                    seed = corpus_seed(77, p, w, r)
                    name = f"p{p}_w{w}_r{r}.wav"
                    write_wav(synth_speaker(p, w, 0.3, seed, 8000), tmp_path / name)
                    entries.append({"profile_id": p, "word_id": w, "seed": seed, "path": name})
        manifest = tmp_path / "manifest.json"
        write_manifest(entries, manifest)
        named = r"p0_w0_r[01]\.wav \(profile 0, word 0\) is sampled at 8000 Hz.*sample_rate_hz"
        with pytest.raises(ConfigError, match=named):
            run_sweep(mini_plan(corpus=str(manifest)))

    def test_mini_plan_outputs_pinned(self, mini_report):
        # the corpus order and every take's source id (which seeds k-means)
        # feed these numbers; a refactor that changes either shows here
        assert mini_report.corpus_digest == (
            "ad94910cb71ad116cfc519c238beecbff294eddbd904d9e34c5b6c64e12da917"
        )
        perfect = ConfusionCounts(tp=4, tn=4, fp=0, fn=0)
        for method in ("single", "dual"):
            for anc in ("off", "on"):
                assert mini_report.cell(method, anc, CLEAN_SNR_DB).counts == perfect
            assert mini_report.cell(method, "off", -16.0).counts == ConfusionCounts(0, 4, 0, 4)
            assert mini_report.cell(method, "on", -16.0).counts == perfect

    def test_too_many_trials_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(mini_plan(trials=1000))

    def test_clean_condition_runs_no_canceller(self, monkeypatch):
        calls = []
        real_run_anc_batch = melsplit.bench.run_anc_batch

        def counting_run_anc_batch(*args, **kwargs):
            calls.append(1)
            return real_run_anc_batch(*args, **kwargs)

        monkeypatch.setattr(melsplit.bench, "run_anc_batch", counting_run_anc_batch)
        report = run_sweep(mini_plan(snr_points_db=(CLEAN_SNR_DB,), anc=("on",)))
        assert len(report.cells) == 2
        assert calls == []

    def record_batches(self, monkeypatch, plan):
        """(primaries, references) of each run_anc_batch call in a sweep of plan."""
        batches = []
        real_run_anc_batch = melsplit.bench.run_anc_batch

        def recording_run_anc_batch(primaries, references, *args):
            batches.append((primaries, references))
            return real_run_anc_batch(primaries, references, *args)

        monkeypatch.setattr(melsplit.bench, "run_anc_batch", recording_run_anc_batch)
        run_sweep(plan)
        return batches

    @pytest.mark.parametrize("points", [(0.0, -16.0), (0.0, -6.0, -10.0, -16.0), (-16.0,)])
    def test_two_canceller_batches_per_stack(self, monkeypatch, points):
        # The points share one step size, so the clean takes, opened by
        # anc_taps zeros, are cancelled once, then the unit noise against
        # itself, whatever the number of points, a lone point included.
        plan = mini_plan(snr_points_db=(CLEAN_SNR_DB,) + points)
        (clean, reference), (unit, itself) = self.record_batches(monkeypatch, plan)
        n = round(plan.duration_s * plan.sample_rate_hz)
        lead = round(plan.anc_lead_s * plan.sample_rate_hz)
        assert clean.shape[1] == reference.shape[1] == plan.anc_taps + n
        assert unit is itself and unit.shape[1] == lead + n

    def test_synthesizes_each_distinct_take_once(self, monkeypatch):
        calls = []
        real_synth_speaker = melsplit.bench.synth_speaker

        def recording_synth_speaker(p, w, duration_s, seed, *args):
            calls.append((p, w, seed))
            return real_synth_speaker(p, w, duration_s, seed, *args)

        monkeypatch.setattr(melsplit.bench, "synth_speaker", recording_synth_speaker)
        plan = mini_plan(snr_points_db=(CLEAN_SNR_DB, 0.0, -16.0))
        run_sweep(plan)
        assert len(calls) == len(set(calls))
        # Each calibration take is read by two calibration pairs.
        calib_words = range(plan.words - plan.calib_words, plan.words)
        calib_takes = {
            corpus_seed(plan.master_seed, p, w, 1) for p in range(plan.profiles) for w in calib_words
        }
        assert calib_takes <= {seed for _, _, seed in calls}
        # No take that no pair reads is synthesized: the references of the
        # trial and calibration pairs, and their test takes.
        words = list(range(plan.words))
        pair_rng = np.random.default_rng(melsplit.signal_io._entropy(plan.master_seed, 0xBA1A))
        pairs = _make_pairs(range(plan.profiles), words[: -plan.calib_words], plan.trials, pair_rng)
        pairs += _calibration_pairs(range(plan.profiles), words[-plan.calib_words :])
        used = {p.ref + (0,) for p in pairs} | {p.test + (1,) for p in pairs}
        assert set(calls) == {(p, w, corpus_seed(plan.master_seed, p, w, r)) for p, w, r in used}

    def test_unit_noise_drawn_once_per_take_per_sweep(self, monkeypatch):
        # Into the canceller's stack, or, with no canceller, where the take
        # is read; either way once for both methods.
        drawn = []
        real_unit_noise = melsplit.bench._unit_noise

        def recording_unit_noise(plan, key, n):
            drawn.append(key)
            return real_unit_noise(plan, key, n)

        monkeypatch.setattr(melsplit.bench, "_unit_noise", recording_unit_noise)
        run_sweep(mini_plan(snr_points_db=(CLEAN_SNR_DB, 0.0, -6.0, -16.0)))
        assert drawn and len(drawn) == len(set(drawn))
        drawn.clear()
        plan = mini_plan(snr_points_db=(CLEAN_SNR_DB, 0.0, -16.0), anc=("off",))
        run_sweep(plan)
        words = list(range(plan.words))
        pair_rng = np.random.default_rng(melsplit.signal_io._entropy(plan.master_seed, 0xBA1A))
        pairs = _make_pairs(range(plan.profiles), words[: -plan.calib_words], plan.trials, pair_rng)
        assert sorted(drawn) == sorted({p.test for p in pairs})
        drawn.clear()
        run_sweep(mini_plan(snr_points_db=(CLEAN_SNR_DB,)))
        assert drawn == []

    def test_no_canceller_keeps_no_unit_stack(self, monkeypatch):
        self._assert_no_stack_and_one_spectra_run_held(
            monkeypatch, mini_plan(anc=("off",), snr_points_db=(CLEAN_SNR_DB, 0.0, -16.0), trials=18)
        )

    def test_anc_on_without_a_noisy_point_builds_no_canceller_stack(self, monkeypatch):
        self._assert_no_stack_and_one_spectra_run_held(
            monkeypatch, mini_plan(anc=("on",), snr_points_db=(CLEAN_SNR_DB,), trials=18)
        )

    @staticmethod
    def _assert_no_stack_and_one_spectra_run_held(monkeypatch, plan):
        # With no canceller to run, no stack is built: every take is read
        # from the corpus as its channel_spectra run needs it, so no more
        # than a run's takes are held unread by the spectra stage.
        held, most = [], []
        real_build_corpus = melsplit.bench._build_corpus
        real_channel_spectra = melsplit.bench.channel_spectra

        def recording_build_corpus(plan):
            take, lengths, digest = real_build_corpus(plan)

            def recording_take(key):
                buffer = take(key)
                held.append(buffer.samples)
                most.append(len(held))
                return buffer

            return recording_take, lengths, digest

        def recording_channel_spectra(signals, *args):
            held[:] = [a for a in held if not any(a is s for s in signals)]
            return real_channel_spectra(signals, *args)

        def no_noise_stacks(*args):
            raise AssertionError("no canceller runs, so no stack is built")

        monkeypatch.setattr(melsplit.bench, "_build_corpus", recording_build_corpus)
        monkeypatch.setattr(melsplit.bench, "channel_spectra", recording_channel_spectra)
        monkeypatch.setattr(melsplit.bench, "_noise_stacks", no_noise_stacks)
        run_sweep(plan)
        assert held == [] and max(most) == melsplit.bench._SPECTRA_TAKES
        assert len(most) > 3 * melsplit.bench._SPECTRA_TAKES

    def test_one_kmeans_fit_per_take_channel_and_condition(self, monkeypatch):
        fits, calls = [], []
        real_kmeans_many = melsplit.cluster.kmeans_many

        def recording_kmeans_many(points, k, seeds, *args, **kwargs):
            calls.append(np.shape(points))
            fits.extend((np.asarray(row).tobytes(), seed) for row, seed in zip(points, seeds))
            return real_kmeans_many(points, k, seeds, *args, **kwargs)

        monkeypatch.setattr(melsplit.cluster, "kmeans_many", recording_kmeans_many)
        # Twice the genuine pool, so every (profile, trial word) is a test take.
        plan = mini_plan(trials=2 * 3 * 3)
        run_sweep(plan)
        channels = sum(len(channel_bands(m, plan.extraction)) for m in plan.methods)
        references = plan.profiles * plan.words
        calibration_takes = plan.profiles * plan.calib_words
        test_takes = plan.profiles * (plan.words - plan.calib_words)
        # The clean point is one condition whatever the ANC modes; each noisy
        # point is one condition per mode.
        noisy_points = sum(s != CLEAN_SNR_DB for s in plan.snr_points_db)
        conditions = 1 + noisy_points * len(plan.anc)
        expected = channels * (references + calibration_takes + test_takes * conditions)
        assert len(fits) == expected
        assert len(set(fits)) == len(fits)
        # All takes have one length, so each (take set, method) enrolls all
        # its channels in one kernel call: references, calibration takes, and
        # the test takes of every condition.
        assert len(calls) == len(plan.methods) * (2 + conditions)

    def test_only_used_references_enrolled(self, monkeypatch):
        enrolled, scored = set(), set()
        real_enroll_many = melsplit.bench.enroll_many
        real_score_pairs = melsplit.bench._score_pairs

        def recording_enroll_many(takes, *args):
            enrolled.update(next(iter(features.values())).source_id for features in takes)
            return real_enroll_many(takes, *args)

        def recording_score_pairs(test_models, ref_models, pairs):
            scored.update(melsplit.bench._take_id(*pair.ref, 0) for pair in pairs)
            return real_score_pairs(test_models, ref_models, pairs)

        monkeypatch.setattr(melsplit.bench, "enroll_many", recording_enroll_many)
        monkeypatch.setattr(melsplit.bench, "_score_pairs", recording_score_pairs)
        plan = mini_plan(trials=2, methods=("single",), snr_points_db=(CLEAN_SNR_DB,))
        run_sweep(plan)
        references = {s for s in enrolled if s.endswith(".r0")}
        assert references == scored
        assert len(references) < plan.profiles * plan.words

    @pytest.mark.slow
    def test_one_scorer_call_per_condition(self, monkeypatch):
        # One call per method for calibration and one per (method, condition),
        # the clean point being one condition whatever the ANC modes.
        pair_counts = []
        real_scores = melsplit.bench.scores

        def recording_scores(tests, refs):
            pair_counts.append(len(tests))
            return real_scores(tests, refs)

        monkeypatch.setattr(melsplit.bench, "scores", recording_scores)
        plan = ExperimentPlan(master_seed=1)
        run_sweep(plan)
        conditions = 1 + (len(plan.snr_points_db) - 1) * len(plan.anc)
        assert len(pair_counts) == len(plan.methods) * (1 + conditions) == 20
        # Each calibration take against its own profile and one other.
        calibration = 2 * plan.profiles * plan.calib_words
        assert sorted(pair_counts) == [calibration] * 2 + [plan.trials] * 18

    def test_divergence_names_take_and_snr_point(self):
        plan = mini_plan(anc_mu_fraction=50.0, anc=("on",))
        with pytest.raises(DivergenceError, match=r"take p\d\.w\d\.r1 at SNR -16 dB, step \d+"):
            run_sweep(plan)

    def test_shared_canceller_divergence_names_every_point(self):
        plan = mini_plan(anc_mu_fraction=50.0, snr_points_db=(0.0, -16.0))
        pattern = r"take p\d\.w\d\.r1 at SNR 0, -16 dB, step \d+"
        with pytest.raises(DivergenceError, match=pattern) as caught:
            run_sweep(plan)
        inputs = round((plan.duration_s + plan.anc_lead_s) * plan.sample_rate_hz)
        assert 0 <= caught.value.step_index < inputs

    @staticmethod
    def enroll_takes(takes, method, plan, replicate):
        """{key: models} of each whole take, extracted by mfcc.extract and
        enrolled in one enroll_many call."""
        features = [
            extract(buffer, method, plan.extraction, melsplit.bench._take_id(*key, replicate))
            for key, buffer in takes.items()
        ]
        return dict(zip(takes, enroll_many(features, plan.kmeans_k, plan.master_seed)))

    def time_domain_counts(self, plan, thresholds):
        """{(method, anc, snr_db): counts} with every test take mixed in the
        time domain by stack_takes, before and after _cancel_stacks, then
        extracted whole and enrolled in one enroll_many call per condition."""
        take, keys, _ = _build_corpus(plan)
        profile_ids = sorted({key[0] for key in keys})
        words = sorted({key[1] for key in keys})
        pair_rng = np.random.default_rng(melsplit.signal_io._entropy(plan.master_seed, 0xBA1A))
        pairs = _make_pairs(profile_ids, words[: -plan.calib_words], plan.trials, pair_rng)
        calib_pairs = _calibration_pairs(profile_ids, words[-plan.calib_words :])
        refs = {key: take(key + (0,)) for key in sorted({p.ref for p in pairs + calib_pairs})}
        points = [s for s in plan.snr_points_db if s != CLEAN_SNR_DB]
        tests = sorted({p.test for p in pairs})
        n = round(plan.duration_s * plan.sample_rate_hz)
        stacks, read = _noise_stacks(plan, {n: tests}, lambda key: take(key + (1,)))
        conditions = [(plan.anc, CLEAN_SNR_DB, stack_takes(plan, stacks, read, CLEAN_SNR_DB))]
        conditions += [(("off",), s, stack_takes(plan, stacks, read, s)) for s in points]
        if "on" in plan.anc:
            _cancel_stacks(plan, stacks, points)
            conditions += [(("on",), s, stack_takes(plan, stacks, read, s)) for s in points]
        counts = {}
        for method in plan.methods:
            ref_models = self.enroll_takes(refs, method, plan, 0)
            for modes, snr_db, takes in conditions:
                test_models = self.enroll_takes(takes, method, plan, 1)
                scores = _score_pairs(test_models, ref_models, pairs)
                for anc in modes:
                    counts[method, anc, snr_db] = confusion(*scores, thresholds[method])
        return counts

    def check_cells_match_time_domain(self, anc):
        plan = mini_plan(snr_points_db=(CLEAN_SNR_DB, 0.0, -6.0, -16.0), trials=18, anc=anc)
        report = run_sweep(plan)
        expected = self.time_domain_counts(plan, report.config_echo["thresholds"])
        assert {(c.method, c.anc, c.snr_db): c.counts for c in report.cells} == expected
        assert len({(k.tp, k.fn) for k in expected.values()}) > 2

    def test_cells_match_takes_mixed_in_the_time_domain(self):
        # The sweep builds each point's features from the spectra of the
        # takes' signals; its cells equal those of the takes themselves.
        self.check_cells_match_time_domain(("off", "on"))

    def test_cells_match_takes_mixed_in_the_time_domain_without_a_canceller(self):
        # Without a canceller, the sweep reads each take and draws its unit
        # noise as it goes; the reference reads them out of a stack.
        self.check_cells_match_time_domain(("off",))

    def test_test_takes_enroll_at_all_their_points_in_chunks(self, monkeypatch):
        # A chunk of ceil(B / points) test takes is enrolled at all its points
        # in one call, so a call holds about B rows however many points there are.
        calls = []
        real_enroll_many = melsplit.bench.enroll_many

        def recording_enroll_many(takes, *args):
            calls.append([next(iter(features.values())).source_id for features in takes])
            return real_enroll_many(takes, *args)

        monkeypatch.setattr(melsplit.bench, "enroll_many", recording_enroll_many)
        plan = mini_plan(snr_points_db=(CLEAN_SNR_DB, 0.0, -6.0, -16.0), trials=18, methods=("dual",))
        run_sweep(plan)
        # References, calibration takes, then 9 test takes: 3 chunks of 3 at
        # the clean and 3 ANC-off points, then 3 chunks of 3 at the 3 ANC-on points.
        test_calls = calls[2:]
        assert [len(call) for call in test_calls] == [12, 12, 12, 9, 9, 9]
        for call, points in zip(test_calls, [4, 4, 4, 3, 3, 3]):
            assert call == [source for source in dict.fromkeys(call) for _ in range(points)]
        assert len({source for call in test_calls for source in call}) == 9

    @pytest.mark.parametrize("method", METHODS)
    def test_point_features_of_stacked_takes_equal_each_take_alone(self, method):
        # Nine takes in two lengths: each length's takes go through the
        # spectra stage a few at a time, so the six-take group splits into a
        # full run and a shorter one, and the three-take group is short.
        plan = mini_plan(snr_points_db=(CLEAN_SNR_DB, 0.0, -16.0), methods=(method,))
        takes = {
            (p, w): synth_speaker(p, w, 0.3 if w < 2 else 0.25, corpus_seed(5, p, w, 1))
            for p in range(3)
            for w in range(3)
        }
        points = list(plan.snr_points_db)
        groups = [[key for key in takes if len(takes[key]) == n] for n in (4800, 4000)]
        assert [len(keys) for keys in groups] == [6, 3]
        read = _take_reader(plan, lambda key: takes[key[:2]], 1, True)
        stacked, alone = [], []
        for keys in groups:
            stacked += _point_features(read, keys, points, plan, 1)[method]
            for key in keys:
                alone += _point_features(read, [key], points, plan, 1)[method]
        assert len(stacked) == len(alone) == 3 * 9
        for features, expected in zip(stacked, alone):
            assert list(features) == list(expected) == list(channel_bands(method, plan.extraction))
            for channel, fm in features.items():
                assert fm.source_id == expected[channel].source_id
                assert np.max(np.abs(fm.rows - expected[channel].rows)) <= 1e-12

    def test_clean_counts_same_with_and_without_anc(self, mini_report):
        for method in ("single", "dual"):
            on = mini_report.cell(method, "on", CLEAN_SNR_DB).counts
            off = mini_report.cell(method, "off", CLEAN_SNR_DB).counts
            assert on == off


class TestFeatures:
    @pytest.mark.parametrize("method", METHODS)
    def test_keyed_by_channel_id(self, method):
        cfg = ExtractionConfig(split_hz=1500.0)
        feats = extract(synth_speaker(0, 1, 0.3, seed=2), method, cfg, "u")
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
        "text",
        [
            '{"duration_s": Infinity}',
            '{"duration_s": NaN}',
            '{"duration_s": 0}',
            '{"duration_s": -0.3}',
            '{"anc_lead_s": Infinity}',
            '{"anc_lead_s": NaN}',
            '{"anc_lead_s": -Infinity}',
        ],
    )
    def test_durations_must_be_finite_and_in_range(self, text):
        (name,) = json.loads(text)
        with pytest.raises(ConfigError, match=f"^config field {name}: must be finite"):
            plan_from_dict(json.loads(text))

    def test_synthesized_takes_must_fit_the_extraction(self):
        # 320 samples: shorter than one 400-sample frame.
        with pytest.raises(ConfigError, match=r"^config field duration_s: gives 320 .* 400$"):
            plan_from_dict({"duration_s": 0.02})
        # 320 samples fill a 256-sample frame, but do not outlast a 321-tap dual split.
        extraction = {"frame_len": 256, "fir_taps": 321}
        with pytest.raises(ConfigError, match=r"^config field duration_s: gives 320 .* 322$"):
            plan_from_dict({"duration_s": 0.02, "extraction": extraction})
        plan = plan_from_dict(
            {"duration_s": 0.02, "extraction": extraction, "methods": ["single"], "kmeans_k": 1}
        )
        assert round(plan.duration_s * plan.sample_rate_hz) == plan.extraction.frame_len + 64
        # A manifest's takes have their own lengths.
        assert plan_from_dict({"duration_s": 0.02, "corpus": "m.json"}).duration_s == 0.02

    def test_synthesized_takes_must_give_kmeans_k_frames(self):
        # 0.6 s is 9600 samples: 58 frames of 400 shifted by 160.
        named = (
            "^config field duration_s: gives 9600 samples, fewer than the 13040 that kmeans_k=80"
        )
        with pytest.raises(ConfigError, match=named):
            plan_from_dict({"kmeans_k": 80, "snr_points_db": ["clean"], "anc": ["off"]})
        assert plan_from_dict({"kmeans_k": 58}).kmeans_k == 58
        with pytest.raises(ConfigError, match="fewer than the 9680 that kmeans_k=59"):
            plan_from_dict({"kmeans_k": 59})
        # A take shorter than a frame is named by extraction's need first.
        with pytest.raises(ConfigError, match=r"gives 320 samples, fewer than extraction's 400$"):
            plan_from_dict({"duration_s": 0.02, "kmeans_k": 80})

    def test_num_coeffs_checked_against_the_plans_methods(self):
        # 20 coefficients fit the 26 single-channel filters, not the 13 per dual channel.
        extraction = {"num_coeffs": 20}
        plan = plan_from_dict({"methods": ["single"], "extraction": extraction})
        assert plan.extraction.num_coeffs == 20
        with pytest.raises(ConfigError, match="num_coeffs: must be at most dual's 13 filters"):
            plan_from_dict({"extraction": extraction})

    def test_zero_anc_lead_loads(self):
        assert plan_from_dict({"anc_lead_s": 0}).anc_lead_s == 0.0

    def test_removed_anc_mu_named_on_load(self):
        # The sweep's one step rule is anc_mu_fraction; a fixed step is gone.
        with pytest.raises(ConfigError, match=r"unknown plan field\(s\): \['anc_mu'\]"):
            plan_from_dict({"anc_mu": 0.002})

    @pytest.mark.parametrize(
        "field_name, value, named",
        [
            ("kmeans_k", 0, "kmeans_k"),
            ("anc_mu_fraction", -1, "anc_mu_fraction"),
            ("anc_mu_fraction", float("inf"), "anc_mu_fraction: must be finite"),
            ("anc_mu_fraction", float("nan"), "anc_mu_fraction: must be finite"),
            ("anc_taps", -1, "anc_taps"),
            ("sample_rate_hz", 8000, "band_top_hz"),
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

    @pytest.mark.parametrize(
        "as_int, as_float",
        [
            ('{"anc_mu_fraction": 1}', '{"anc_mu_fraction": 1.0}'),
            ('{"duration_s": 1}', '{"duration_s": 1.0}'),
            ('{"extraction": {"split_hz": 1500}}', '{"extraction": {"split_hz": 1500.0}}'),
        ],
    )
    def test_integer_in_float_field_loads_as_float(self, as_int, as_float):
        a, b = (plan_from_dict(json.loads(text)) for text in (as_int, as_float))
        assert repr(a) == repr(b)
        assert json.dumps(plan_to_dict(a)) == json.dumps(plan_to_dict(b))

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
        with pytest.raises(ConfigError, match="^config field snr_points_db: entries must be"):
            ExperimentPlan(snr_points_db=(0.0, 0.0))

    @pytest.mark.parametrize("field", ["snr_points_db", "methods", "anc"])
    def test_empty_lists_rejected(self, field):
        # An empty list would sweep no cells.
        with pytest.raises(ConfigError, match=f"^config field {field}: must not be empty$"):
            plan_from_dict({field: []})

    @pytest.mark.parametrize(
        "field, value", [("methods", ("single", "single")), ("anc", ("off", "on", "off"))]
    )
    def test_duplicate_methods_and_anc_rejected(self, field, value):
        # A repeated entry would sweep copies of the same cells.
        with pytest.raises(ConfigError, match=f"^config field {field}: entries must be distinct"):
            mini_plan(**{field: value})

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(methods=("triple",))


# The knob test's small synthesized plan, and one other valid value for each
# of its fields and each extraction field. "corpus" is a manifest that the
# test writes with `melsplit synth`.
KNOB_BASE = dict(
    profiles=3, words=3, calib_words=1, trials=6, duration_s=0.3,
    snr_points_db=(CLEAN_SNR_DB, 0.0), anc=("off", "on"),
)
KNOB_VALUES = {
    "snr_points_db": (CLEAN_SNR_DB, -6.0),
    "methods": ("dual",),
    "anc": ("off",),
    "corpus": "manifest",
    "trials": 4,
    "master_seed": 9,
    "profiles": 4,
    "words": 4,
    "duration_s": 0.4,
    "sample_rate_hz": 12000,
    "calib_words": 2,
    "anc_taps": 15,
    "anc_mu_fraction": 0.2,
    "anc_lead_s": 0.05,
    "kmeans_k": 3,
    "extraction.frame_len": 320,
    "extraction.frame_shift": 128,
    "extraction.fft_size": 1024,
    "extraction.filters_single": 20,
    "extraction.filters_per_channel": 16,
    "extraction.num_coeffs": 10,
    "extraction.split_hz": 1500.0,
    "extraction.band_top_hz": 3500.0,
    "extraction.fir_taps": 51,
    # Below about 0.01 the floor changes nothing: the smallest mel energy
    # in a default sweep is 0.0085.
    "extraction.log_floor": 1.0,
}


class TestKnobs:
    @pytest.fixture(scope="class")
    def knob_sweep(self, tmp_path_factory):
        """sweep(plan): the plan's report echo, as JSON reads it back, its
        cells, and the (genuine, impostor, threshold) of every confusion
        call; the manifest that the "corpus" knob names; and the sweep of
        the base plan."""
        corpus = tmp_path_factory.mktemp("knobs")
        assert melsplit.cli.main([
            "synth", "--out", str(corpus), "--profiles", "3", "--words", "3",
            "--replicates", "2", "--duration", "0.3", "--seed", "5",
        ]) == 0

        def sweep(plan):
            triples = []
            real_confusion = melsplit.bench.confusion

            def recording_confusion(genuine, impostor, threshold):
                triples.append((genuine.tobytes(), impostor.tobytes(), threshold))
                return real_confusion(genuine, impostor, threshold)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(melsplit.bench, "confusion", recording_confusion)
                report = run_sweep(plan)
            config = json.loads(json.dumps(report_to_dict(report)["config"]))
            cells = [(c.method, c.anc, c.snr_db, c.counts) for c in report.cells]
            return config, cells, triples

        return sweep, str(corpus / "manifest.json"), sweep(ExperimentPlan(**KNOB_BASE))

    @pytest.mark.parametrize("knob", sorted(KNOB_VALUES))
    def test_every_knob_is_echoed_and_changes_the_outcome(self, knob_sweep, knob):
        assert set(KNOB_VALUES) == {
            f.name for f in fields(ExperimentPlan) if f.name != "extraction"
        } | {f"extraction.{f.name}" for f in fields(ExtractionConfig)}
        sweep, manifest, (_, base_cells, base_triples) = knob_sweep
        value = manifest if knob == "corpus" else KNOB_VALUES[knob]
        name, _, sub = knob.partition(".")
        if sub:
            plan = ExperimentPlan(**KNOB_BASE, extraction=ExtractionConfig(**{sub: value}))
        else:
            plan = ExperimentPlan(**dict(KNOB_BASE, **{name: value}))
        config, cells, triples = sweep(plan)
        echoed = config[name][sub] if sub else config[name]
        if knob == "snr_points_db":
            value = ["clean" if s == CLEAN_SNR_DB else s for s in value]
        assert echoed == json.loads(json.dumps(value))
        assert cells != base_cells or triples != base_triples


class TestMixWithLead:
    KEY = (1, 2)

    def mix(self, plan, points):
        """The clean take, its stacks and reader, and its takes at each
        point: the ANC-off takes, read first, then the ANC-on takes if the
        plan has them."""
        clean = synth_speaker(*self.KEY, 0.3, seed=4)
        stacks, read = _noise_stacks(plan, {len(clean): [self.KEY]}, {self.KEY: clean}.get)
        takes = {"off": {s: stack_takes(plan, stacks, read, s)[self.KEY] for s in points}}
        if "on" in plan.anc:
            _cancel_stacks(plan, stacks, points)
            takes["on"] = {s: stack_takes(plan, stacks, read, s)[self.KEY] for s in points}
        return clean, (stacks, read), takes

    def canceller_noise(self, plan, n):
        """The unit noise as the canceller reads it: the draw of n + lead
        normals, its last lead first, then the n that lie under the take."""
        lead = round(plan.anc_lead_s * plan.sample_rate_hz)
        drawn = _unit_noise(plan, self.KEY, n + lead)
        return np.concatenate([drawn[n:], drawn[:n]])

    def test_hits_target_snr(self):
        plan = mini_plan(anc=("off",))
        clean, (stacks, read), takes = self.mix(plan, [-6.0])
        unit = _unit_noise(plan, self.KEY, len(clean))
        assert len(unit) == len(clean)
        assert stacks[0][0] == [self.KEY]
        # A stack's reader gives the take and the unit noise under it, with
        # the same powers, and the sweep reads the same signals bit for bit
        # from the corpus, where it draws no lead-in.
        signals = read(self.KEY)
        assert np.array_equal(signals[0], clean.samples) and np.array_equal(signals[1], unit)
        assert signals[2:] == (float(np.mean(clean.samples**2)), float(np.mean(unit**2)))
        from_corpus = _take_reader(plan, lambda key: clean, 1, True)(self.KEY)
        assert all(np.array_equal(x, y) for x, y in zip(from_corpus, signals))
        # the ANC-off take is the clean take plus the unit noise, scaled to
        # the target SNR
        noisy = takes["off"][-6.0]
        assert measure_snr_db(clean, noisy) == pytest.approx(-6.0, abs=1e-9)
        scale = noise_scale(float(np.mean(clean.samples**2)), float(np.mean(unit**2)), -6.0)
        assert np.array_equal(noisy.samples, clean.samples + scale * unit)

    def test_canceller_stacks_open_with_lead_in_and_zeros(self):
        # The layout before any canceller runs: the cancellers write over it.
        plan = mini_plan()
        clean = synth_speaker(*self.KEY, 0.3, seed=4)
        n = len(clean)
        ((keys, clean_stack, unit_stack),), read = _noise_stacks(
            plan, {n: [self.KEY]}, {self.KEY: clean}.get
        )
        lead = round(plan.anc_lead_s * clean.sample_rate_hz)
        assert keys == [self.KEY] and plan.anc_taps < lead
        # The unit row is the draw of n + lead, its tail first; the take's
        # n samples of noise are the draw's head, as the corpus reader draws.
        assert np.array_equal(unit_stack[0], self.canceller_noise(plan, n))
        assert np.array_equal(unit_stack[0, lead:], _unit_noise(plan, self.KEY, n))
        assert clean_stack.shape == (1, plan.anc_taps + n)
        assert not np.any(clean_stack[:, : plan.anc_taps])
        take, unit = read(self.KEY)[:2]
        assert np.array_equal(take, clean.samples)
        assert np.shares_memory(take, clean_stack) and np.shares_memory(unit, unit_stack)

    @pytest.mark.parametrize("anc", [("off",), ("off", "on")])
    def test_off_take_is_the_primary_tail_bit_for_bit(self, anc):
        # The noise is drawn as n + lead normals; the canceller reads the
        # last lead of them first, and the take is mixed with the first n.
        plan = mini_plan(anc=anc)
        clean, _, takes = self.mix(plan, [-16.0])
        n = len(clean)
        lead = round(plan.anc_lead_s * plan.sample_rate_hz) if "on" in anc else 0
        rng = np.random.default_rng(
            melsplit.signal_io._entropy(corpus_seed(plan.master_seed, *self.KEY, 0xA01E))
        )
        drawn = rng.standard_normal(n + lead)
        scale = noise_scale(
            float(np.mean(clean.samples**2)), float(np.mean(drawn[:n] ** 2)), -16.0
        )
        noise = scale * np.concatenate([drawn[n:], drawn[:n]])
        primary = np.concatenate([noise[:lead], clean.samples + noise[lead:]])
        assert np.array_equal(takes["off"][-16.0].samples, primary[-n:])

    def test_on_take_cancels_the_scaled_reference(self):
        # Whether one point or several share the stack's two canceller runs,
        # every ANC-on take matches run_anc on the scaled reference with step mu.
        plan = mini_plan()
        for points in ([-10.0], [0.0, -6.0, -16.0]):
            self.check_on_takes(plan, points)

    def check_divergence_step(self, clean, primary, reference):
        """_cancel_stacks on the one-take stack of `clean` names the step at
        which run_anc diverges on (primary, reference) with the take's step."""
        plan = mini_plan(anc_mu_fraction=50.0)
        unit = self.canceller_noise(plan, len(clean))
        mu = plan.anc_mu_fraction / ((plan.anc_taps + 1) * np.mean(unit**2))
        rate = plan.sample_rate_hz
        with pytest.raises(DivergenceError) as expected:
            run_anc(
                AudioBuffer(primary(unit), rate),
                AudioBuffer(reference(unit), rate),
                melsplit.anc.LmsConfig(plan.anc_taps, mu),
            )
        step = expected.value.step_index
        stacks, _ = _noise_stacks(plan, {len(clean): [self.KEY]}, {self.KEY: clean}.get)
        pattern = rf"take p1\.w2\.r1 at SNR 0, -16 dB, step {step}$"
        with pytest.raises(DivergenceError, match=pattern) as caught:
            _cancel_stacks(plan, stacks, [0.0, -16.0])
        assert caught.value.step_index == step
        return step

    def test_clean_run_divergence_names_its_step_in_the_input(self):
        # The clean run skips the lead-in steps that its zeros stand in for;
        # the step it names counts them, as run_anc does on the whole input.
        clean = synth_speaker(*self.KEY, 0.3, seed=4)

        def primary(unit):
            return np.concatenate([np.zeros(len(unit) - len(clean)), clean.samples])

        step = self.check_divergence_step(clean, primary, lambda unit: unit)
        assert step > round(mini_plan().anc_lead_s * clean.sample_rate_hz)

    def test_unit_run_divergence_names_its_step(self):
        # A silent take's clean run cannot diverge, so the unit run does.
        clean = AudioBuffer(np.zeros(4800), 16000)
        assert self.check_divergence_step(clean, lambda unit: unit, lambda unit: unit) == 8

    def check_on_takes(self, plan, points):
        clean, _, takes = self.mix(plan, points)
        unit = self.canceller_noise(plan, len(clean))
        lead = len(unit) - len(clean)
        for snr_db in points:
            scale = noise_scale(
                float(np.mean(clean.samples**2)), float(np.mean(unit[lead:] ** 2)), snr_db
            )
            reference = scale * unit
            primary = reference.copy()
            primary[lead:] += clean.samples
            mu = plan.anc_mu_fraction / ((plan.anc_taps + 1) * np.mean(reference**2))
            expected = run_anc(
                AudioBuffer(primary, plan.sample_rate_hz),
                AudioBuffer(reference, plan.sample_rate_hz),
                melsplit.anc.LmsConfig(plan.anc_taps, mu),
            ).error_signal.samples[lead:]
            on = takes["on"][snr_db].samples
            assert on.flags.c_contiguous
            assert np.allclose(on, expected, rtol=0, atol=1e-11)
