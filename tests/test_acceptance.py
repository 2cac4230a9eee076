"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The sweep-based criteria share three full benchmark runs (master
seeds 1, 2, 3) plus a duplicate run of seed 1 for the byte-determinism
check.
"""

import itertools
from dataclasses import astuple

import numpy as np
import pytest

from melsplit.anc import LmsConfig, run_anc
from melsplit.bench import ExperimentPlan, emit_curves, run_sweep
from melsplit.cluster import ConfusionCounts, accuracy, kmeans_many
from melsplit.fir import design_bandpass, design_lowpass
from melsplit.mfcc import hz_to_mel
from melsplit.signal_io import AudioBuffer, NoiseSpec, measure_snr_db, mix_at_snr
from reference import LmsState, fft_magnitude_sq, lms_step, nearest

SR = 16000
SWEEP_SEEDS = (1, 2, 3)


# The default plan's outcomes on master seeds 1-3: both calibrated
# thresholds, and each (method, anc) condition's (tp, tn, fp, fn) at
# -16, -10, -6 and 0 dB and clean.
DEFAULT_PLAN_PINNED = {
    1: (
        {"single": 6.479756592991489, "dual": 4.420653108391252},
        {
            ("dual", "off"): [
                (0, 40, 0, 40), (0, 40, 0, 40), (0, 40, 0, 40), (5, 39, 1, 35), (39, 40, 0, 1)
            ],
            ("dual", "on"): [
                (40, 39, 1, 0), (40, 39, 1, 0), (40, 39, 1, 0), (40, 39, 1, 0), (39, 40, 0, 1)
            ],
            ("single", "off"): [
                (0, 40, 0, 40), (0, 40, 0, 40), (0, 40, 0, 40), (0, 40, 0, 40), (36, 40, 0, 4)
            ],
            ("single", "on"): [
                (36, 40, 0, 4), (36, 40, 0, 4), (36, 40, 0, 4), (36, 40, 0, 4), (36, 40, 0, 4)
            ],
        },
    ),
    2: (
        {"single": 8.733223101990422, "dual": 4.62985019630887},
        {
            ("dual", "off"): [
                (0, 40, 0, 40), (0, 40, 0, 40), (0, 40, 0, 40), (10, 40, 0, 30), (39, 38, 2, 1)
            ],
            ("dual", "on"): [
                (39, 38, 2, 1), (39, 38, 2, 1), (39, 38, 2, 1), (39, 38, 2, 1), (39, 38, 2, 1)
            ],
            ("single", "off"): [
                (0, 40, 0, 40), (0, 40, 0, 40), (0, 40, 0, 40), (2, 40, 0, 38), (38, 36, 4, 2)
            ],
            ("single", "on"): [
                (38, 35, 5, 2), (38, 35, 5, 2), (38, 35, 5, 2), (38, 35, 5, 2), (38, 36, 4, 2)
            ],
        },
    ),
    3: (
        {"single": 7.535152954370362, "dual": 4.180418363267817},
        {
            ("dual", "off"): [
                (0, 40, 0, 40), (0, 40, 0, 40), (0, 40, 0, 40), (5, 40, 0, 35), (37, 39, 1, 3)
            ],
            ("dual", "on"): [
                (37, 39, 1, 3), (37, 39, 1, 3), (37, 39, 1, 3), (37, 39, 1, 3), (37, 39, 1, 3)
            ],
            ("single", "off"): [
                (0, 40, 0, 40), (0, 40, 0, 40), (0, 40, 0, 40), (2, 40, 0, 38), (36, 39, 1, 4)
            ],
            ("single", "on"): [
                (35, 39, 1, 5), (35, 39, 1, 5), (35, 39, 1, 5), (35, 39, 1, 5), (36, 39, 1, 4)
            ],
        },
    ),
}


def report_line(criterion, detail):
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def sweep_reports(tmp_path_factory):
    """Three seeded sweeps plus a duplicate of the first, with curve files."""
    out_dir = tmp_path_factory.mktemp("curves")
    reports = {}
    curves = {}
    for seed in SWEEP_SEEDS:
        report = run_sweep(ExperimentPlan(master_seed=seed))
        path = out_dir / f"curves_{seed}.csv"
        emit_curves(report, path)
        reports[seed] = report
        curves[seed] = path
    duplicate = run_sweep(ExperimentPlan(master_seed=SWEEP_SEEDS[0]))
    dup_path = out_dir / "curves_duplicate.csv"
    emit_curves(duplicate, dup_path)
    return reports, curves, dup_path


def test_criterion_1_mel_scale_exactness():
    values = {0.0: 0.0, 700.0: 781.17, 1000.0: 999.99}
    for hz, mel in values.items():
        assert hz_to_mel(hz) == pytest.approx(mel, abs=0.01)
    report_line("criterion 1 (mel exactness)",
                f"hz_to_mel(0,700,1000) = {[round(float(hz_to_mel(h)), 4) for h in values]}")


def test_criterion_2_fft_against_direct_dft():
    rng = np.random.default_rng(2024)
    dft_matrices = {}
    worst = 0.0
    for _ in range(100):
        k = int(2 ** rng.integers(3, 10))  # 8 .. 512
        if k not in dft_matrices:
            n = np.arange(k)
            dft_matrices[k] = np.exp(-2j * np.pi * np.outer(n, n) / k)
        frame = rng.standard_normal(int(rng.integers(1, k + 1)))
        padded = np.zeros(k)
        padded[: len(frame)] = frame
        full_power = np.abs(dft_matrices[k] @ padded) ** 2
        mine = fft_magnitude_sq(frame, k)
        scale = max(full_power.max(), 1.0)
        worst = max(worst, float(np.max(np.abs(mine - full_power[: k // 2 + 1])) / scale))
        # Parseval against the direct full spectrum
        time_energy = float(np.sum(frame**2))
        freq_energy = float(full_power.sum() / k)
        assert abs(time_energy - freq_energy) <= 1e-9 * max(time_energy, 1.0)
    assert worst <= 1e-9
    report_line("criterion 2 (FFT vs direct DFT)", f"max relative deviation {worst:.3e}")


def test_criterion_3_lms_identities():
    # hand-iterated single-tap example reproduces exactly
    state = LmsState(np.zeros(1), np.zeros(1))
    state, e, y = lms_step(state, 1.0, 1.0, 0.25)
    assert (y, e, state.weights[0]) == (0.0, 1.0, 0.5)
    state, e, y = lms_step(state, 1.0, 1.0, 0.25)
    assert (y, e, state.weights[0]) == (0.5, 0.5, 0.75)

    # per-step weight delta equals 2*mu*e*x to machine precision: the
    # recovered delta (w' - w) carries rounding at eps * |w|, so the bound
    # is normalized by the element magnitudes involved
    rng = np.random.default_rng(99)
    eps = np.finfo(np.float64).eps
    worst = 0.0
    for _ in range(200):
        taps = int(rng.integers(1, 12))
        state = LmsState(rng.standard_normal(taps), rng.standard_normal(taps))
        mu = float(rng.uniform(1e-4, 0.5))
        d_k, x_k = float(rng.standard_normal()), float(rng.standard_normal())
        delay = np.concatenate([[x_k], state.delay_line[:-1]])
        expected = (2.0 * mu * (d_k - float(np.dot(state.weights, delay)))) * delay
        new, _, _ = lms_step(state, d_k, x_k, mu)
        error = np.abs(new.weights - state.weights - expected)
        scale = np.maximum(1.0, np.maximum(np.abs(state.weights), np.abs(expected)))
        worst = max(worst, float(np.max(error / scale)))
    assert worst <= 4.0 * eps
    report_line("criterion 3 (LMS identities)",
                f"hand example exact; max normalized delta error {worst / eps:.2f} eps")


def test_criterion_4_anc_efficacy():
    t = np.arange(5 * SR) / SR
    clean = AudioBuffer(0.5 * np.sin(2 * np.pi * 500 * t), SR)
    noisy, noise = mix_at_snr(clean, NoiseSpec("white-gaussian", 0.0, seed=42))
    errors = run_anc(noisy, noise, LmsConfig(order_l=31, step_mu=0.005))
    last = slice(-SR, None)
    pre = measure_snr_db(AudioBuffer(clean.samples[last], SR), AudioBuffer(noisy.samples[last], SR))
    post = measure_snr_db(
        AudioBuffer(clean.samples[last], SR), AudioBuffer(errors.samples[last], SR)
    )
    assert post - pre >= 10.0
    report_line("criterion 4 (ANC efficacy)",
                f"SNR over final second: {pre:.2f} dB -> {post:.2f} dB (gain {post - pre:.2f} dB)")


def test_criterion_5_fir_band_confinement():
    def mag_db(taps, freq):
        n = np.arange(len(taps))
        mag = abs(np.sum(taps * np.exp(-2j * np.pi * freq * n / SR)))
        return 20.0 * np.log10(max(mag, 1e-300))

    lowpass = design_lowpass(1000.0, 101, SR)
    bandpass = design_bandpass(1000.0, 4000.0, 101, SR)
    checks = {
        "LPF @2000 (octave past edge)": (mag_db(lowpass.taps, 2000.0), "<=", -40.0),
        "LPF @500 (band center)": (mag_db(lowpass.taps, 500.0), ">=", -1.0),
        "BPF @500 (octave below)": (mag_db(bandpass.taps, 500.0), "<=", -40.0),
        "BPF @8000 (octave above)": (mag_db(bandpass.taps, 8000.0), "<=", -40.0),
        "BPF @2000 (band center)": (mag_db(bandpass.taps, 2000.0), ">=", -1.0),
    }
    for name, (value, op, bound) in checks.items():
        if op == "<=":
            assert value <= bound, name
        else:
            assert value >= bound, name
    summary = ", ".join(f"{k}={v[0]:.1f} dB" for k, v in checks.items())
    report_line("criterion 5 (FIR band confinement)", summary)


def test_criterion_6_kmeans_matches_brute_force():
    def brute_force(points, k):
        best = np.inf
        n = len(points)
        for assignment in itertools.product(range(k), repeat=n):
            assignment = np.asarray(assignment)
            total = 0.0
            for j in range(k):
                members = points[assignment == j]
                if len(members):
                    total += float(np.sum((members - members.mean(axis=0)) ** 2))
            best = min(best, total)
        return best

    rng = np.random.default_rng(606)
    for instance in range(50):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        points = rng.standard_normal((n, int(rng.integers(1, 4))))
        fits = [kmeans_many(points[None], k, [s])[0][0] for s in range(16)]
        best_seeded = min(nearest(points, centroids)[1] for centroids in fits)
        optimum = brute_force(points, k)
        assert best_seeded == pytest.approx(optimum, rel=1e-9, abs=1e-12), f"instance {instance}"
    report_line("criterion 6 (k-means optimality)",
                "best-of-16 seeds matches the exhaustive optimum on 50 instances")


@pytest.mark.slow
def test_criterion_7_degradation_orderings(sweep_reports):
    reports, _, _ = sweep_reports
    snrs_ascending = sorted(ExperimentPlan().snr_points_db)
    for seed, report in reports.items():
        assert len(report.cells) == 20  # 2 methods x 2 anc x 5 SNR points
        # (a) accuracy non-increasing as SNR drops, for every condition
        for method in ("single", "dual"):
            for anc in ("off", "on"):
                accs = [report.cell(method, anc, s).accuracy for s in snrs_ascending]
                for low, high in zip(accs, accs[1:]):
                    assert low <= high, (seed, method, anc, accs)
        # (b) dual >= single at -10 and -16 dB without noise cancellation
        for snr in (-10.0, -16.0):
            dual = report.cell("dual", "off", snr).accuracy
            single = report.cell("single", "off", snr).accuracy
            assert dual >= single, (seed, snr, dual, single)
        # (c) cancellation never hurts at -16 dB
        for method in ("single", "dual"):
            on = report.cell(method, "on", -16.0).accuracy
            off = report.cell(method, "off", -16.0).accuracy
            assert on >= off, (seed, method, on, off)
    summary = "; ".join(
        f"seed {seed}: dual/off@-16={reports[seed].cell('dual', 'off', -16.0).accuracy:.3f}"
        f" on={reports[seed].cell('dual', 'on', -16.0).accuracy:.3f}"
        for seed in SWEEP_SEEDS
    )
    report_line("criterion 7 (degradation orderings)", summary)


@pytest.mark.slow
def test_criterion_8_byte_identical_curves(sweep_reports):
    _, curves, dup_path = sweep_reports
    original = curves[SWEEP_SEEDS[0]].read_bytes()
    duplicate = dup_path.read_bytes()
    assert original == duplicate
    report_line("criterion 8 (determinism)",
                f"two seed-{SWEEP_SEEDS[0]} runs emitted byte-identical curves "
                f"({len(original)} bytes)")


@pytest.mark.slow
def test_criterion_9_accuracy_accounting(sweep_reports):
    reports, _, _ = sweep_reports
    checked = 0
    for report in reports.values():
        for cell in report.cells:
            k = cell.counts
            recomputed = accuracy(ConfusionCounts(k.tp, k.tn, k.fp, k.fn))
            assert cell.accuracy == recomputed
            checked += 1
    report_line("criterion 9 (Eq-20 accounting)",
                f"{checked} cells recomputed exactly from stored counts")


@pytest.mark.slow
def test_default_plan_outcomes_pinned(sweep_reports):
    reports, _, _ = sweep_reports
    snrs_ascending = sorted(ExperimentPlan().snr_points_db)
    for seed, (thresholds, counts) in DEFAULT_PLAN_PINNED.items():
        report = reports[seed]
        assert report.config_echo["thresholds"] == pytest.approx(thresholds, rel=1e-12)
        cells = {
            (method, anc): [astuple(report.cell(method, anc, s).counts) for s in snrs_ascending]
            for method, anc in counts
        }
        assert cells == counts, seed
        assert len(report.cells) == sum(map(len, counts.values()))
    report_line("default plan outcomes",
                f"every cell's counts and both thresholds match on seeds {SWEEP_SEEDS}")
