"""K-means, enrollment and scoring, calibration, and accuracy tests.

The k-means oracle enumerates every assignment of points to clusters and
takes the best within-cluster sum of squares, so the seeded implementation
can be checked against the true optimum at desk scale.
"""

import itertools
import json

import numpy as np
import pytest

import melsplit.cluster
from melsplit.cluster import (
    ConfusionCounts,
    accuracy,
    calibrate_threshold,
    channel_scores,
    confusion,
    enroll_many,
    kmeans_many,
    scores,
)
from melsplit.errors import ConfigError, DimensionError, ParameterError
from melsplit.mfcc import FeatureMatrix, extract
from melsplit.signal_io import _entropy, synth_speaker


def brute_force_inertia(points, k):
    """Optimal k-means objective by exhaustive assignment enumeration."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        assignment = np.asarray(assignment)
        total = 0.0
        for j in range(k):
            members = points[assignment == j]
            if len(members):
                total += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, total)
    return best


class TestKmeans:
    def test_two_well_separated_groups(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        model = kmeans_many(points[None], 2, [7])[0]
        assert sorted(model.centroids.ravel().tolist()) == pytest.approx([0.5, 10.5])
        assert model.inertia == pytest.approx(1.0)

    def test_k_equals_n(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        model = kmeans_many(points[None], 3, [0])[0]
        assert model.inertia == pytest.approx(0.0)
        assert sorted(model.centroids.tolist()) == sorted(points.tolist())

    def test_k_one_is_global_mean(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((20, 3))
        model = kmeans_many(points[None], 1, [5])[0]
        assert np.allclose(model.centroids[0], points.mean(axis=0))

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((40, 2))
        model = kmeans_many(points[None], 3, [11])[0]
        for j in range(3):
            members = points[model.assignments == j]
            if len(members):
                assert np.max(np.abs(model.centroids[j] - members.mean(axis=0))) <= 1e-9

    def test_points_assigned_to_nearest_centroid(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((40, 2))
        model = kmeans_many(points[None], 3, [13])[0]
        dists = np.linalg.norm(points[:, None, :] - model.centroids[None], axis=2)
        assert np.array_equal(model.assignments, np.argmin(dists, axis=1))

    def test_inertia_non_increasing_over_iterations(self):
        # rerunning with a growing iteration cap traces the descent path
        rng = np.random.default_rng(5)
        points = rng.standard_normal((30, 2))
        inertias = [kmeans_many(points[None], 3, [3], max_iter=i)[0].inertia for i in range(1, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_best_of_16_matches_brute_force(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            points = rng.standard_normal((n, 2))
            best = min(kmeans_many(points[None], k, [s])[0].inertia for s in range(16))
            assert best == pytest.approx(brute_force_inertia(points, k), rel=1e-9, abs=1e-12)

    def test_duplicate_points_handled(self):
        points = np.zeros((6, 2))
        model = kmeans_many(points[None], 2, [1])[0]
        assert model.inertia == 0.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ParameterError):
            kmeans_many(np.zeros((1, 3, 2)), 4, [0])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((25, 3))
        a = kmeans_many(points[None], 2, [9])[0]
        b = kmeans_many(points[None], 2, [9])[0]
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)


def serial_lloyd(points, k, seed, max_iter=100):
    """Reference Lloyd loop, one point set at a time: the seeded start, the
    empty-cluster reseed and the member means that kmeans_many must match."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    rng = np.random.default_rng(_entropy(seed))
    centroids = pts[np.sort(rng.choice(n, size=k, replace=False))].copy()
    for iterations in range(1, max_iter + 1):
        sq_dist = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assignments = np.argmin(sq_dist, axis=1)
        counts = np.bincount(assignments, minlength=k)
        for j in np.flatnonzero(counts == 0):
            own = sq_dist[np.arange(n), assignments]
            donors = counts[assignments] > 1
            if not donors.any():
                continue
            far = int(np.argmax(np.where(donors, own, -np.inf)))
            counts[assignments[far]] -= 1
            assignments[far] = j
            counts[j] = 1
            centroids[j] = pts[far]
            sq_dist[far, j] = 0.0
        new = centroids.copy()
        for j in range(k):
            if counts[j]:
                new[j] = pts[assignments == j].mean(axis=0)
        movement = np.max(np.abs(new - centroids))
        centroids = new
        if movement < 1e-9:
            break
    inertia = float(np.sum((pts - centroids[assignments]) ** 2))
    return centroids, assignments, inertia, iterations


def assert_same_model(a, b):
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.iterations_run == b.iterations_run
    assert a.inertia == b.inertia
    assert a.seed == b.seed


def fit_stack_and_rows(points, k, seeds, **kwargs):
    """Fit the stack in lockstep, check each row against fitting it alone,
    and return the stacked fit."""
    many = kmeans_many(points, k, seeds, **kwargs)
    assert len(many) == len(points)
    for row, seed, model in zip(points, seeds, many):
        assert_same_model(model, kmeans_many(row[None], k, [seed], **kwargs)[0])
    return many


# Two fixed inputs and the kmeans outputs recorded for them with the serial
# Lloyd loop that kmeans_many replaced. The second opens with two clusters
# empty, so both are reseeded.
PINNED_POINTS_A = [
    [1.029, 1.642], [1.147, -0.973], [-1.393, 0.067], [0.861, 0.509],
    [1.81, 0.751], [0.64, -0.731], [-1.108, 1.484], [0.049, 0.812],
    [-1.376, -0.436], [-1.291, -0.776], [0.903, -1.481], [-0.534, 0.164],
]
PINNED_POINTS_B = [[0.0, 0.0]] * 6 + [[1.0, 0.5], [2.0, -1.0], [4.0, 3.0], [5.0, 2.5]]
PINNED_FITS = [
    (
        PINNED_POINTS_A, 2, 31,
        [[-0.9421666666666666, 0.21916666666666665], [1.0649999999999997, -0.04716666666666669]],
        [1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0],
        13.0785905,
        3,
    ),
    (
        PINNED_POINTS_B, 3, 6,
        [[0.375, -0.0625], [5.0, 2.5], [4.0, 3.0]],
        [0, 0, 0, 0, 0, 0, 0, 0, 2, 1],
        5.09375,
        2,
    ),
]


class TestKmeansMany:
    def test_rows_converge_at_their_own_iteration(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((12, 40, 3))
        many = fit_stack_and_rows(points, 3, list(range(100, 112)))
        assert len({m.iterations_run for m in many}) > 1

    def test_row_capped_by_max_iter(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((8, 40, 3))
        capped = [m.iterations_run for m in kmeans_many(points, 3, range(8))]
        max_iter = sorted(capped)[len(capped) // 2]
        many = fit_stack_and_rows(points, 3, list(range(8)), max_iter=max_iter)
        iterations = [m.iterations_run for m in many]
        assert max_iter in iterations and min(iterations) < max_iter

    def test_reseed_row_beside_plain_rows(self):
        rng = np.random.default_rng(10)
        points = rng.standard_normal((3, 10, 2))
        points[1] = PINNED_POINTS_B
        many = fit_stack_and_rows(points, 3, [5, 6, 7])
        assert sorted(set(many[1].assignments.tolist())) == [0, 1, 2]

    @pytest.mark.parametrize("k", [1, 13])
    def test_k_one_and_k_n(self, k):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((5, 13, 4))
        many = fit_stack_and_rows(points, k, [3, 1, 4, 1, 5])
        for row, model in zip(points, many):
            if k == 1:
                # Members are summed in point order, exactly as numpy's mean.
                assert np.array_equal(model.centroids[0], row.mean(axis=0))
            else:
                assert model.inertia == 0.0

    def test_matches_serial_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            rows, n, d = rng.integers(1, 8), rng.integers(2, 60), rng.integers(2, 16)
            k = int(rng.integers(1, min(n, 5) + 1))
            points = rng.standard_normal((rows, n, d)) * rng.uniform(0.1, 100)
            points[:, : n // 3] = points[:, :1]  # duplicates, so some fits reseed
            distinct = rng.integers(0, 2**40, rows).tolist()
            # The same stack with seeds repeated, as the sweep fits a take at
            # each SNR point under one seed: each row still starts from its
            # own points.
            repeated = [distinct[t % 2] for t in range(rows)]
            for seeds in (distinct, repeated):
                for row, seed, model in zip(points, seeds, kmeans_many(points, k, seeds)):
                    centroids, assignments, inertia, iterations = serial_lloyd(row, k, seed)
                    assert np.array_equal(model.centroids, centroids)
                    assert np.array_equal(model.assignments, assignments)
                    assert model.inertia == inertia
                    assert model.iterations_run == iterations

    @pytest.mark.parametrize("points, k, seed, centroids, assignments, inertia, iterations", PINNED_FITS)
    def test_outputs_pinned(self, points, k, seed, centroids, assignments, inertia, iterations):
        model = kmeans_many(np.array(points)[None], k, [seed])[0]
        assert np.array_equal(model.centroids, centroids)
        assert np.array_equal(model.assignments, assignments)
        assert model.inertia == inertia
        assert model.iterations_run == iterations

    def test_one_seed_per_row(self):
        with pytest.raises(DimensionError):
            kmeans_many(np.zeros((3, 5, 2)), 2, [1, 2])
        with pytest.raises(DimensionError):
            kmeans_many(np.zeros((5, 2)), 2, [1] * 5)
        with pytest.raises(ParameterError, match="max_iter"):
            kmeans_many(np.arange(4.0).reshape(1, 4, 1), 2, [1], max_iter=0)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ParameterError):
            kmeans_many(np.zeros((2, 3, 2)), 4, [0, 1])


def fm(rows, channel="single", source="u"):
    return FeatureMatrix(np.asarray(rows, dtype=np.float64), channel, source)


def pair_score(test, ref, k, seed):
    """Score a pair as the CLI's verdict does: both takes enrolled in one call."""
    test_models, ref_models = enroll_many([test, ref], k, seed)
    (combined,) = scores([test_models], [ref_models])
    return combined


class TestVerdict:
    def test_self_comparison_scores_zero(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((30, 4))
        a = {"single": fm(rows, source="same")}
        assert pair_score(a, a, k=2, seed=3) == 0.0

    def test_score_symmetry(self):
        rng = np.random.default_rng(8)
        a = {"single": fm(rng.standard_normal((25, 4)), source="utt-a")}
        b = {"single": fm(rng.standard_normal((25, 4)) + 2.0, source="utt-b")}
        s_ab, s_ba = pair_score(a, b, k=2, seed=5), pair_score(b, a, k=2, seed=5)
        assert s_ab == pytest.approx(s_ba, abs=1e-9)

    def test_combined_score_is_mean_of_channels(self):
        rng = np.random.default_rng(9)
        test = {
            "ch1": fm(rng.standard_normal((20, 3)), "ch1", "t"),
            "ch2": fm(rng.standard_normal((20, 3)), "ch2", "t"),
        }
        ref = {
            "ch1": fm(rng.standard_normal((20, 3)) + 1.0, "ch1", "r"),
            "ch2": fm(rng.standard_normal((20, 3)) - 1.0, "ch2", "r"),
        }
        test_models, ref_models = enroll_many([test, ref], 2, 1)
        per_channel = channel_scores([test_models], [ref_models])
        combined = scores([test_models], [ref_models])
        assert combined == pytest.approx(np.mean(list(per_channel.values()), axis=0))
        assert set(per_channel) == {"ch1", "ch2"}

    def test_decision_boundary_inclusive(self):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((20, 3))
        a = {"single": fm(rows, source="a")}
        self_score = pair_score(a, a, k=1, seed=0)
        assert self_score == 0.0
        # score 0 <= threshold 0 counts as identical
        assert confusion([self_score], [], threshold=0.0) == ConfusionCounts(tp=1)

    def test_channel_set_mismatch(self):
        rng = np.random.default_rng(11)
        a = {"ch1": fm(rng.standard_normal((10, 3)), "ch1", "a")}
        b = {"single": fm(rng.standard_normal((10, 3)), "single", "b")}
        with pytest.raises(ConfigError):
            pair_score(a, b, k=1, seed=0)

    def test_distinct_clusters_separate_sources(self):
        # two synthetic "speakers": clouds at distance 6 vs re-draws nearby
        rng = np.random.default_rng(12)
        base = rng.standard_normal((40, 4))
        same = base + 0.05 * rng.standard_normal((40, 4))
        other = base + 6.0
        t = {"single": fm(base, source="t")}
        g = {"single": fm(same, source="g")}
        i = {"single": fm(other, source="i")}
        genuine = pair_score(t, g, k=2, seed=2)
        impostor = pair_score(t, i, k=2, seed=2)
        assert impostor > genuine


def take_features(method, profile, word, replicate, duration=0.4):
    """A synthetic take's features keyed by channel, as the sweep builds them."""
    buffer = synth_speaker(profile, word, duration, seed=100 * profile + 10 * word + replicate)
    source = f"p{profile}.w{word}.r{replicate}"
    return extract(buffer, method, source_id=source)


class TestEnrollScore:
    @pytest.mark.parametrize("method", ["single", "dual"])
    @pytest.mark.parametrize("other_profile", [0, 1])
    def test_score_of_enrolled_takes_is_verdict_score(self, method, other_profile):
        test = take_features(method, 0, 3, 1)
        ref = take_features(method, other_profile, 3, 0)
        test_models, ref_models = enroll_many([test, ref], 2, 4)
        (test_alone,), (ref_alone,) = enroll_many([test], 2, 4), enroll_many([ref], 2, 4)
        alone = channel_scores([test_alone], [ref_alone])
        together = channel_scores([test_models], [ref_models])
        assert list(alone) == list(together)
        for channel in alone:
            assert np.array_equal(alone[channel], together[channel])
        assert np.array_equal(
            scores([test_alone], [ref_alone]), scores([test_models], [ref_models])
        )

    @pytest.mark.parametrize("method", ["single", "dual"])
    @pytest.mark.parametrize("ref_duration", [0.4, 0.5], ids=["equal_length", "unequal_length"])
    def test_enroll_many_matches_separate_enrolls(self, method, ref_duration):
        test = take_features(method, 0, 3, 1)
        ref = take_features(method, 1, 3, 0, duration=ref_duration)
        stacked = enroll_many([test, ref], 2, 4)
        for models, features in zip(stacked, (test, ref)):
            (alone,) = enroll_many([features], 2, 4)
            assert list(models) == list(alone)
            for channel in alone:
                assert_same_model(models[channel], alone[channel])

    def test_dual_channels_fit_in_one_call_as_they_fit_alone(self, monkeypatch):
        # Rows of one kmeans_many call never interact, so fitting a dual
        # take's two channels together gives each channel's own fit.
        calls = []
        real_kmeans_many = melsplit.cluster.kmeans_many

        def recording_kmeans_many(points, *args, **kwargs):
            calls.append(np.shape(points))
            return real_kmeans_many(points, *args, **kwargs)

        monkeypatch.setattr(melsplit.cluster, "kmeans_many", recording_kmeans_many)
        takes = [take_features("dual", p, 2, 1) for p in range(3)]
        models = enroll_many(takes, 2, 8)
        assert len(calls) == 1 and calls[0][0] == 6
        for features, take_models in zip(takes, models):
            assert list(take_models) == ["ch1", "ch2"]
            for channel, f in features.items():
                seed = melsplit.cluster._side_seed(8, f.source_id, channel)
                (alone,) = real_kmeans_many(f.rows[None], 2, [seed])
                assert_same_model(take_models[channel], alone)

    @pytest.mark.parametrize("method", ["single", "dual"])
    def test_enrolling_twice_gives_identical_centroids(self, method):
        feats = take_features(method, 2, 1, 1)
        (first,), (second,) = enroll_many([feats], 2, 9), enroll_many([feats], 2, 9)
        assert list(first) == list(second) == sorted(feats)
        for channel in feats:
            assert np.array_equal(first[channel].centroids, second[channel].centroids)
            assert first[channel].seed == second[channel].seed

    def test_seeds_derive_once_per_source_and_channel(self, monkeypatch):
        # A sweep enrolls each test take at several SNR points in one call,
        # so rows share source ids. Each fit is seeded from (seed, source id,
        # channel), and each distinct pair's seed is derived once per call.
        derived = []
        real_side_seed = melsplit.cluster._side_seed

        def recording_side_seed(seed, source_id, channel_id):
            derived.append((source_id, channel_id))
            return real_side_seed(seed, source_id, channel_id)

        monkeypatch.setattr(melsplit.cluster, "_side_seed", recording_side_seed)
        rng = np.random.default_rng(13)
        takes = [
            {ch: fm(rng.standard_normal((20, 3)), ch, source) for ch in ("ch1", "ch2")}
            for source in ("a", "b", "a", "a", "b")
        ]
        models = enroll_many(takes, 2, 6)
        assert sorted(derived) == [("a", "ch1"), ("a", "ch2"), ("b", "ch1"), ("b", "ch2")]
        for features, take_models in zip(takes, models):
            for channel, f in features.items():
                seed = real_side_seed(6, f.source_id, channel)
                assert_same_model(take_models[channel], kmeans_many(f.rows[None], 2, [seed])[0])

    def test_channel_set_mismatch_raises(self):
        (single,) = enroll_many([take_features("single", 0, 0, 0)], 2, 1)
        (dual,) = enroll_many([take_features("dual", 0, 0, 1)], 2, 1)
        with pytest.raises(ConfigError, match="channel sets differ"):
            scores([single], [dual])
        with pytest.raises(ConfigError, match="channel sets differ"):
            pair_score(take_features("single", 0, 0, 0), take_features("dual", 0, 0, 1), 2, 1)


def reference_channel_scores(test_models, ref_models):
    """One pair's channel scores on their own: per channel, the minimum
    distance over its (test, reference) centroid pairs."""
    per_channel = {}
    for channel in sorted(test_models):
        a, b = test_models[channel].centroids, ref_models[channel].centroids
        per_channel[channel] = np.sqrt(np.sum((a[:, None] - b[None]) ** 2, axis=2)).min()
    return per_channel


class TestScores:
    @pytest.mark.parametrize("method", ["single", "dual"])
    def test_equal_each_pair_scored_alone_bit_for_bit(self, method):
        # Every test take of 3 profiles x 2 words against each profile's
        # reference of its word: 6 genuine and 12 impostor pairs.
        keys = [(p, w, r) for p in range(3) for w in range(2) for r in (0, 1)]
        enrolled = enroll_many([take_features(method, *key) for key in keys], 2, 4)
        models = dict(zip(keys, enrolled))
        pairs = [((p, w, 1), (q, w, 0)) for p in range(3) for q in range(3) for w in range(2)]
        tests = [models[test] for test, _ in pairs]
        refs = [models[ref] for _, ref in pairs]
        expected = [reference_channel_scores(t, r) for t, r in zip(tests, refs)]
        per_channel = channel_scores(tests, refs)
        assert list(per_channel) == sorted(tests[0])
        for channel, got in per_channel.items():
            assert got.shape == (len(pairs),)
            assert np.array_equal(got, [e[channel] for e in expected])
        combined = [np.mean(list(e.values())) for e in expected]
        assert np.array_equal(scores(tests, refs), combined)
        assert len(set(combined)) == len(pairs)

    def test_channel_sets_must_agree_within_and_across_pairs(self):
        (single,) = enroll_many([take_features("single", 0, 0, 0)], 2, 1)
        (dual,) = enroll_many([take_features("dual", 0, 0, 1)], 2, 1)
        within = r"pair 0: channel sets differ: \['single'\] vs \['ch1', 'ch2'\]"
        with pytest.raises(ConfigError, match=within):
            channel_scores([single], [dual])
        across = r"pair 1: channel sets differ: \['ch1', 'ch2'\] vs \['single'\]"
        with pytest.raises(ConfigError, match=across):
            scores([single, dual], [single, dual])

    def test_pair_counts_must_be_equal_and_nonzero(self):
        (models,) = enroll_many([take_features("single", 0, 0, 0)], 2, 1)
        for tests, refs in (([], []), ([models], []), ([models], [models, models])):
            with pytest.raises(DimensionError):
                channel_scores(tests, refs)
            with pytest.raises(DimensionError):
                scores(tests, refs)


class TestCalibrateThreshold:
    def test_wide_gap_midpoint(self):
        assert calibrate_threshold([1.0, 2.0], [8.0, 9.0]) == pytest.approx(5.0)

    def test_fully_overlapping_sets(self):
        t = calibrate_threshold([1.0, 2.0], [1.0, 2.0])
        genuine_errors = sum(1 for g in [1.0, 2.0] if g > t)
        impostor_errors = sum(1 for i in [1.0, 2.0] if i <= t)
        assert genuine_errors + impostor_errors == 2

    def test_separable_sets_zero_errors(self):
        genuine = [0.5, 1.0, 1.5]
        impostor = [4.0, 5.0, 6.0]
        t = calibrate_threshold(genuine, impostor)
        assert all(g <= t for g in genuine)
        assert all(i > t for i in impostor)

    def test_exhaustive_scan_oracle(self):
        # compare the minimum error count against a dense scan
        rng = np.random.default_rng(13)
        for _ in range(20):
            genuine = rng.normal(0.0, 1.0, 12)
            impostor = rng.normal(1.5, 1.0, 12)
            t = calibrate_threshold(genuine, impostor)
            errors_at = lambda x: np.sum(genuine > x) + np.sum(impostor <= x)
            candidates = np.concatenate([genuine, impostor, [t]])
            dense = np.unique(np.concatenate([candidates, candidates - 1e-9, candidates + 1e-9]))
            assert errors_at(t) == min(errors_at(x) for x in dense)

    def test_widest_gap_loop_oracle(self):
        # Reference loop: among the error minimizers, the first strictly
        # widest gap to the next distinct score wins; scores on a 0.5 grid
        # make ties in both error count and gap width common.
        def loop_threshold(genuine, impostor):
            values = np.unique(np.concatenate([genuine, impostor]))
            errors = [np.sum(genuine > v) + np.sum(impostor <= v) for v in values]
            best = min(min(errors), len(genuine))
            best_width, threshold = -1.0, None
            for i, e in enumerate(errors[:-1]):
                width = values[i + 1] - values[i]
                if e == best and width > best_width:
                    best_width, threshold = width, 0.5 * (values[i] + values[i + 1])
            if threshold is not None:
                return threshold
            return float(values[-1]) if errors[-1] == best else float(values[0] - 1.0)

        rng = np.random.default_rng(21)
        for _ in range(300):
            genuine = rng.integers(0, 8, rng.integers(1, 10)) * 0.5
            impostor = rng.integers(0, 8, rng.integers(1, 10)) * 0.5
            assert calibrate_threshold(genuine, impostor) == loop_threshold(genuine, impostor)
        assert calibrate_threshold([1.0, 3.0], [2.0, 4.0]) == 1.5

    def test_deterministic(self):
        a = calibrate_threshold([1.0, 3.0, 2.0], [5.0, 4.0, 6.0])
        b = calibrate_threshold([2.0, 1.0, 3.0], [6.0, 5.0, 4.0])
        assert a == b

    def test_empty_set_rejected(self):
        with pytest.raises(ParameterError):
            calibrate_threshold([], [1.0])


class TestConfusion:
    def test_score_at_threshold_is_identical(self):
        counts = confusion([1.0, 1.5], [1.0, 0.5, 2.0], threshold=1.0)
        assert counts == ConfusionCounts(tp=1, tn=1, fp=2, fn=1)

    def test_matches_verdict_decisions(self):
        rng = np.random.default_rng(13)
        sides = [
            (
                {"single": fm(rng.standard_normal((12, 2)), source=f"t{i}")},
                {"single": fm(rng.standard_normal((12, 2)) + rng.uniform(0, 2), source=f"r{i}")},
            )
            for i in range(40)
        ]
        scores = [pair_score(t, r, k=2, seed=3) for t, r in sides]
        threshold = sorted(scores)[20]  # one score sits exactly on the threshold
        # The CLI's verdict rule: identical when the score is at or below the threshold.
        identical = [s <= threshold for s in scores]
        assert 0 < sum(identical) < len(identical)
        genuine, impostor = identical[::2], identical[1::2]
        expected = ConfusionCounts(
            tp=sum(genuine),
            tn=len(impostor) - sum(impostor),
            fp=sum(impostor),
            fn=len(genuine) - sum(genuine),
        )
        assert confusion(scores[::2], scores[1::2], threshold) == expected

    def test_counts_are_python_ints(self):
        counts = confusion(np.array([0.1, 2.0]), np.array([0.3]), np.float64(1.0))
        assert all(type(getattr(counts, f)) is int for f in ("tp", "tn", "fp", "fn"))
        assert json.dumps(counts.__dict__)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(ConfusionCounts(tp=1, tn=1, fp=0, fn=0)) == 1.0

    def test_all_wrong(self):
        assert accuracy(ConfusionCounts(tp=0, tn=0, fp=1, fn=1)) == 0.0

    def test_paper_granularity_38_of_80(self):
        counts = ConfusionCounts(tp=20, tn=18, fp=22, fn=20)
        assert counts.total == 80
        assert accuracy(counts) == pytest.approx(0.475)

    def test_swap_invariance(self):
        a = ConfusionCounts(tp=7, tn=9, fp=3, fn=1)
        b = ConfusionCounts(tp=9, tn=7, fp=1, fn=3)
        assert accuracy(a) == accuracy(b)

    def test_zero_total_rejected(self):
        with pytest.raises(ParameterError):
            accuracy(ConfusionCounts())
