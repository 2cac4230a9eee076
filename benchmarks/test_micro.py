"""Micro-benchmarks of the sweep's inner stages, kept out of the test suite.

Run from the repository root with

    python -m pytest benchmarks --benchmark-only

Inputs have the default plan's shapes: 0.6 s takes at 16 kHz, a 0.25 s
canceller lead-in and k = 2; synthesis, extraction and the single-recording
canceller are also timed on the 2 s takes that ``verify_stream`` writes, the
canceller with the CLI's 32 taps. The canceller batch is one SNR point of 52
takes, the number of distinct test takes in a default sweep on master seed 1. The lockstep
k-means case enrolls 64 dual-channel takes in one call.
"""

import numpy as np
import pytest

from melsplit.anc import LmsConfig, run_anc, run_anc_batch
from melsplit.bench import (
    ExperimentPlan,
    _auto_mu,
    _features,
    _lead_samples,
    _noise_stacks,
)
from melsplit.cluster import enroll, enroll_many, kmeans
from melsplit.mfcc import extract_dual_channel, extract_single_channel
from melsplit.signal_io import NoiseSpec, corpus_seed, mix_at_snr, noise_scale, synth_speaker

PLAN = ExperimentPlan(master_seed=1)
BATCH_ROWS = 52
ENROLL_TAKES = 64


def _take(p: int, w: int):
    return synth_speaker(
        p, w, PLAN.duration_s, corpus_seed(PLAN.master_seed, p, w, 1), PLAN.sample_rate_hz
    )


@pytest.fixture(scope="module")
def take():
    return _take(0, 0)


@pytest.fixture(scope="module")
def dual_features(take):
    return _features(take, "dual", PLAN.extraction, "p0.w0.r1")


@pytest.mark.parametrize("duration_s", [0.6, 2.0])
def test_synth_speaker(benchmark, duration_s):
    # Profile 5 draws the largest harmonic stack (41 harmonics).
    buf = benchmark(synth_speaker, 5, 0, duration_s, 1, PLAN.sample_rate_hz)
    assert len(buf) == round(duration_s * PLAN.sample_rate_hz)


def test_kmeans(benchmark, dual_features):
    rows = dual_features["ch1"].rows
    model = benchmark(kmeans, rows, PLAN.kmeans_k, 7)
    assert model.centroids.shape == (PLAN.kmeans_k, rows.shape[1])


def test_enroll_dual_take(benchmark, dual_features):
    models = benchmark(enroll, dual_features, PLAN.kmeans_k, PLAN.master_seed)
    assert sorted(models) == ["ch1", "ch2"]


def test_enroll_many_64_dual_takes(benchmark):
    keys = [(p, w) for p in range(PLAN.profiles) for w in range(PLAN.words)][:ENROLL_TAKES]
    takes = [_features(_take(p, w), "dual", PLAN.extraction, f"p{p}.w{w}.r1") for p, w in keys]
    models = benchmark(enroll_many, takes, PLAN.kmeans_k, PLAN.master_seed)
    assert len(models) == ENROLL_TAKES and sorted(models[0]) == ["ch1", "ch2"]


@pytest.mark.parametrize("duration_s", [0.6, 2.0])
def test_extract_dual_channel(benchmark, duration_s):
    take = synth_speaker(0, 0, duration_s, 1, PLAN.sample_rate_hz)
    ch1, ch2 = benchmark(extract_dual_channel, take, PLAN.extraction, "p0.w0.r1")
    assert ch1.rows.shape == ch2.rows.shape


@pytest.mark.parametrize("duration_s", [0.6, 2.0])
def test_extract_single_channel(benchmark, duration_s):
    take = synth_speaker(0, 0, duration_s, 1, PLAN.sample_rate_hz)
    features = benchmark(extract_single_channel, take, PLAN.extraction, "p0.w0.r1")
    assert features.rows.shape[1] == PLAN.extraction.num_coeffs


def test_run_anc_batch_52_rows(benchmark):
    # One SNR point as the sweep cancels it: time-major primaries mixed from
    # the unit noise stack, which the canceller reads as its reference with
    # step mu * c**2, and errors written over a fresh copy of the primaries
    # each round.
    keys = [(p, w) for p in range(PLAN.profiles) for w in range(PLAN.words)][:BATCH_ROWS]
    clean = {key: _take(*key) for key in keys}
    (stack,) = _noise_stacks(PLAN, clean)
    lead = _lead_samples(PLAN)
    primaries = np.empty_like(stack.unit)
    mus = []
    for row, key in enumerate(keys):
        unit = stack.unit[:, row]
        scale = noise_scale(float(np.mean(clean[key].samples ** 2)), unit[lead:], -6.0)
        primaries[:, row] = scale * unit
        primaries[lead:, row] += clean[key].samples
        mus.append(_auto_mu(PLAN, unit, scale))
    rounds = []

    def setup():
        rounds.append(primaries.copy())
        return (rounds[-1], stack.unit, PLAN.anc_taps, mus), {}

    benchmark.pedantic(run_anc_batch, setup=setup, rounds=3)
    assert primaries.shape == (13600, BATCH_ROWS)
    assert np.all(np.isfinite(rounds[-1])) and not np.array_equal(rounds[-1], primaries)


def test_run_anc_2s_32_taps(benchmark):
    noisy, noise = mix_at_snr(synth_speaker(5, 0, 2.0, 1), NoiseSpec("white-gaussian", -6.0, 3))
    result = benchmark(run_anc, noisy, noise, LmsConfig(order_l=31, step_mu=0.005))
    assert len(result.error_signal) == len(noisy)
