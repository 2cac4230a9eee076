"""Micro-benchmarks of the sweep's inner stages, kept out of the test suite.

Run from the repository root with

    python -m pytest benchmarks --benchmark-only

Inputs have the default plan's shapes: 0.6 s takes at 16 kHz, a 0.25 s
canceller lead-in and k = 2; synthesis, extraction and the single-recording
canceller are also timed on the 2 s takes that ``verify_stream`` writes, the
canceller with the CLI's 32 taps, and that canceller on a 0.6 s take too,
since the CLI also cancels short takes. The canceller batch is the two runs
that cancel every SNR point of 52 takes, the number of distinct test takes in
a default sweep on master seed 1; the same 52 takes' single- and dual-channel
features at the default plan's 4 noisy SNR points are built as a sweep builds
them, from each take's and its unit noise's spectra, and the spectra of one
stack of takes are timed alone. The lockstep k-means cases enroll 64
distinct dual-channel takes in one call, and one chunk of a ``sweep_noanc``
sweep: 13 dual-channel takes at its 5 SNR points, 65 takes that share 13
source ids and so 13 k-means seeds per channel. The scorer scores a default
condition's 80 dual-channel trial pairs in one call.
"""

from dataclasses import replace

import numpy as np
import pytest

from melsplit.anc import LmsConfig, run_anc
from melsplit.bench import (
    _SPECTRA_TAKES,
    CLEAN_SNR_DB,
    ExperimentPlan,
    _cancel_stacks,
    _make_pairs,
    _noise_stacks,
    _point_features,
    _take_id,
    _take_reader,
)
from melsplit.cluster import enroll_many, kmeans_many, scores
from melsplit.mfcc import channel_bands, channel_spectra, extract
from melsplit.signal_io import (
    NoiseSpec,
    _entropy,
    corpus_seed,
    mix_at_snr,
    synth_speaker,
)

PLAN = ExperimentPlan(master_seed=1)
NOANC_PLAN = replace(PLAN, anc=("off",), trials=128)
BATCH_ROWS = 52
ENROLL_TAKES = 64
CHUNK_TAKES = 13  # ceil(64 test takes / 5 points), a sweep_noanc chunk
TAKE_SAMPLES = round(PLAN.duration_s * PLAN.sample_rate_hz)
# The corpus keys (profile, word, replicate) of the default plan's test takes.
TEST_KEYS = [(p, w, 1) for p in range(PLAN.profiles) for w in range(PLAN.words)]


def _take(key):
    """The default plan's corpus take of `key`."""
    p, w, _ = key
    seed = corpus_seed(PLAN.master_seed, *key)
    return synth_speaker(p, w, PLAN.duration_s, seed, PLAN.sample_rate_hz)


@pytest.fixture(scope="module")
def take():
    return _take(TEST_KEYS[0])


@pytest.fixture(scope="module")
def dual_features(take):
    return extract(take, "dual", PLAN.extraction)


@pytest.mark.parametrize("duration_s", [0.6, 2.0])
def test_synth_speaker(benchmark, duration_s):
    # Profile 5 draws the largest harmonic stack (41 harmonics).
    buf = benchmark(synth_speaker, 5, 0, duration_s, 1, PLAN.sample_rate_hz)
    assert len(buf) == round(duration_s * PLAN.sample_rate_hz)


def test_kmeans(benchmark, dual_features):
    rows = dual_features["ch1"]
    centroids, iterations = benchmark(kmeans_many, rows[None], PLAN.kmeans_k, [7])
    assert centroids.shape == (1, PLAN.kmeans_k, rows.shape[1]) and iterations.shape == (1,)


def test_enroll_dual_take(benchmark, dual_features):
    (models,) = benchmark(
        enroll_many, [dual_features], ["p0.w0.r1"], PLAN.kmeans_k, PLAN.master_seed
    )
    assert sorted(models) == ["ch1", "ch2"]


def test_enroll_many_64_dual_takes(benchmark):
    keys = TEST_KEYS[:ENROLL_TAKES]
    takes = [extract(_take(key), "dual", PLAN.extraction) for key in keys]
    ids = [_take_id(*key) for key in keys]
    models = benchmark(enroll_many, takes, ids, PLAN.kmeans_k, PLAN.master_seed)
    assert len(models) == ENROLL_TAKES and sorted(models[0]) == ["ch1", "ch2"]


def test_enroll_many_sweep_noanc_chunk(benchmark):
    # As _enroll_points enrolls a chunk: each take at every point, under
    # the one source id that seeds its fits.
    keys = TEST_KEYS[:CHUNK_TAKES]
    plan = replace(NOANC_PLAN, methods=("dual",))
    read = _take_reader(plan, _take, True)
    points = list(plan.snr_points_db)
    takes = _point_features(read, keys, points, plan)["dual"]
    ids = [_take_id(*key) for key in keys for _ in points]
    models = benchmark(enroll_many, takes, ids, NOANC_PLAN.kmeans_k, NOANC_PLAN.master_seed)
    assert len(models) == CHUNK_TAKES * len(points) == 65
    # Each row fits under its take's source id, as it would enrolled alone.
    for features, source, take_models in zip(takes, ids, models):
        (alone,) = enroll_many([features], [source], NOANC_PLAN.kmeans_k, NOANC_PLAN.master_seed)
        assert all(np.array_equal(take_models[c], alone[c]) for c in alone)


@pytest.mark.parametrize("duration_s", [0.6, 2.0])
def test_extract_dual_channel(benchmark, duration_s):
    take = synth_speaker(0, 0, duration_s, 1, PLAN.sample_rate_hz)
    ch1, ch2 = benchmark(extract, take, "dual", PLAN.extraction).values()
    assert ch1.shape == ch2.shape


@pytest.mark.parametrize("duration_s", [0.6, 2.0])
def test_extract_single_channel(benchmark, duration_s):
    take = synth_speaker(0, 0, duration_s, 1, PLAN.sample_rate_hz)
    features = benchmark(extract, take, "single", PLAN.extraction)["single"]
    assert features.shape[1] == PLAN.extraction.num_coeffs


def test_scores_80_dual_pairs(benchmark):
    # One condition's trial pairs in one call, as the sweep scores them:
    # master seed 1's pairs, on the clean dual-channel takes.
    words = list(range(PLAN.words - PLAN.calib_words))
    rng = np.random.default_rng(_entropy(PLAN.master_seed, 0xBA1A))
    pairs = _make_pairs(list(range(PLAN.profiles)), words, PLAN.trials, rng)
    keys = [(p, w, r) for p in range(PLAN.profiles) for w in words for r in (0, 1)]
    takes = [extract(_take(key), "dual", PLAN.extraction) for key in keys]
    ids = [_take_id(*key) for key in keys]
    models = dict(zip(keys, enroll_many(takes, ids, PLAN.kmeans_k, PLAN.master_seed)))
    tests = [models[test] for test, _ in pairs]
    refs = [models[ref] for _, ref in pairs]
    combined = benchmark(scores, tests, refs)
    assert combined.shape == (len(pairs),) == (PLAN.trials,)


@pytest.mark.parametrize("method", ["single", "dual"])
def test_point_features_52_takes_4_points(benchmark, method):
    # Two spectra per take, then power, banks, log and DCT at each point:
    # the work of 4 * 52 extract calls on takes mixed in the time domain.
    keys = TEST_KEYS[:BATCH_ROWS]
    plan = replace(PLAN, methods=(method,))
    _, read = _noise_stacks(plan, {TAKE_SAMPLES: keys}, _take)
    points = [s for s in PLAN.snr_points_db if s != CLEAN_SNR_DB]
    features = benchmark(_point_features, read, keys, points, plan)[method]
    assert len(features) == BATCH_ROWS * len(points) == 4 * BATCH_ROWS
    assert list(features[0]) == list(channel_bands(method, PLAN.extraction))


@pytest.mark.parametrize("method", ["single", "dual"])
def test_channel_spectra_4_takes(benchmark, method):
    # One stacked call, as the sweep's _point_features makes.
    takes = [_take((p, 0, 1)).samples for p in range(_SPECTRA_TAKES)]
    spectra = benchmark(channel_spectra, takes, method, PLAN.extraction, PLAN.sample_rate_hz)
    assert spectra.shape[:2] == (_SPECTRA_TAKES, 58)


def test_run_anc_batch_basis_pass_52_rows(benchmark):
    # A sweep's two canceller runs, by _cancel_stacks: the clean takes,
    # opened by anc_taps zeros, with the unit noise as the reference, then
    # the unit noise in place against itself; both write over fresh copies
    # of their stacks each round.
    keys = TEST_KEYS[:BATCH_ROWS]
    ((_, clean, unit),), _ = _noise_stacks(PLAN, {TAKE_SAMPLES: keys}, _take)
    points = [s for s in PLAN.snr_points_db if s != CLEAN_SNR_DB]
    rounds = []

    def setup():
        copies = clean.copy(), unit.copy()
        rounds.append(copies)
        return (PLAN, [(keys, *copies)], points), {}

    benchmark.pedantic(_cancel_stacks, setup=setup, rounds=3)
    assert clean.shape == (BATCH_ROWS, 9631) and unit.shape == (BATCH_ROWS, 13600)
    for done, start in zip(rounds[-1], (clean, unit)):
        assert np.all(np.isfinite(done)) and not np.array_equal(done, start)


def _bench_run_anc(benchmark, duration_s):
    noisy, noise = mix_at_snr(
        synth_speaker(5, 0, duration_s, 1), NoiseSpec("white-gaussian", -6.0, 3)
    )
    errors = benchmark(run_anc, noisy, noise, LmsConfig(order_l=31, step_mu=0.005))
    assert len(errors) == len(noisy)


def test_run_anc_2s_32_taps(benchmark):
    _bench_run_anc(benchmark, 2.0)


def test_run_anc_0_6s_32_taps(benchmark):
    _bench_run_anc(benchmark, 0.6)
