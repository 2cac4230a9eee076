"""K-means, enrollment and scoring, calibration, and accuracy tests.

The k-means oracle enumerates every assignment of points to clusters and
takes the best within-cluster sum of squares, so the seeded implementation
can be checked against the true optimum at desk scale. kmeans_many returns
only centroids and iteration counts; reference.nearest labels the points by
those centroids and gives the inertia.
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
from melsplit.mfcc import extract
from melsplit.signal_io import _entropy, synth_speaker
from reference import nearest


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


def fit_one(points, k, seed, **kwargs):
    """The (k, d) centroids of one point set, fitted as a stack of one."""
    centroids, _ = kmeans_many(np.asarray(points)[None], k, [seed], **kwargs)
    return centroids[0]


def fit_inertia(points, k, seed, **kwargs):
    """The inertia of one point set about its fitted centroids."""
    return nearest(points, fit_one(points, k, seed, **kwargs))[1]


class TestKmeans:
    def test_two_well_separated_groups(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        centroids = fit_one(points, 2, 7)
        assert sorted(centroids.ravel().tolist()) == pytest.approx([0.5, 10.5])
        assert nearest(points, centroids)[1] == pytest.approx(1.0)

    def test_k_equals_n(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        centroids = fit_one(points, 3, 0)
        assert nearest(points, centroids)[1] == pytest.approx(0.0)
        assert sorted(centroids.tolist()) == sorted(points.tolist())

    def test_k_one_is_global_mean(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((20, 3))
        assert np.allclose(fit_one(points, 1, 5)[0], points.mean(axis=0))

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((40, 2))
        centroids = fit_one(points, 3, 11)
        labels, _ = nearest(points, centroids)
        for j in range(3):
            members = points[labels == j]
            if len(members):
                assert np.max(np.abs(centroids[j] - members.mean(axis=0))) <= 1e-9

    def test_points_assigned_to_nearest_centroid(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((40, 2))
        centroids = fit_one(points, 3, 13)
        dists = np.linalg.norm(points[:, None, :] - centroids[None], axis=2)
        labels, total = nearest(points, centroids)
        assert np.array_equal(labels, np.argmin(dists, axis=1))
        assert total == pytest.approx(np.sum(dists.min(axis=1) ** 2))
        # A point equidistant from two centroids goes to the lower index.
        tie_labels, _ = nearest(np.array([[0.5], [0.5]]), np.array([[1.0], [0.0]]))
        assert tie_labels.tolist() == [0, 0]

    def test_inertia_non_increasing_over_iterations(self):
        # rerunning with a growing iteration cap traces the descent path
        rng = np.random.default_rng(5)
        points = rng.standard_normal((30, 2))
        inertias = [fit_inertia(points, 3, 3, max_iter=i) for i in range(1, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_best_of_16_matches_brute_force(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            points = rng.standard_normal((n, 2))
            best = min(fit_inertia(points, k, s) for s in range(16))
            assert best == pytest.approx(brute_force_inertia(points, k), rel=1e-9, abs=1e-12)

    def test_duplicate_points_handled(self):
        points = np.zeros((6, 2))
        assert fit_inertia(points, 2, 1) == 0.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ParameterError):
            kmeans_many(np.zeros((1, 3, 2)), 4, [0])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((25, 3))
        a = kmeans_many(points[None], 2, [9])
        b = kmeans_many(points[None], 2, [9])
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


def serial_lloyd(points, k, seed, max_iter=100):
    """Reference Lloyd loop, one point set at a time: the seeded start, the
    empty-cluster reseed and the member means that kmeans_many must match.
    Returns the centroids and the iterations run."""
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
    return centroids, iterations


def fit_stack_and_rows(points, k, seeds, **kwargs):
    """Fit the stack in lockstep, check each row's centroids and iterations
    against fitting it alone, and return the stacked fit."""
    centroids, iterations = kmeans_many(points, k, seeds, **kwargs)
    assert centroids.shape == (len(points), k, points.shape[2])
    assert iterations.shape == (len(points),)
    for t, (row, seed) in enumerate(zip(points, seeds)):
        alone_centroids, alone_iterations = kmeans_many(row[None], k, [seed], **kwargs)
        assert np.array_equal(centroids[t], alone_centroids[0])
        assert iterations[t] == alone_iterations[0]
    return centroids, iterations


# Two fixed inputs and the kmeans outputs recorded for them with the serial
# Lloyd loop that kmeans_many replaced. The second opens with two clusters
# empty, so both are reseeded. Both fits converged, so labelling the points
# by the final centroids gives the recorded assignments and inertia.
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
        _, iterations = fit_stack_and_rows(points, 3, list(range(100, 112)))
        assert len(set(iterations.tolist())) > 1

    def test_row_capped_by_max_iter(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((8, 40, 3))
        _, uncapped = kmeans_many(points, 3, range(8))
        max_iter = int(np.sort(uncapped)[len(uncapped) // 2])
        _, iterations = fit_stack_and_rows(points, 3, list(range(8)), max_iter=max_iter)
        assert max_iter in iterations and min(iterations) < max_iter

    def test_reseed_row_beside_plain_rows(self):
        rng = np.random.default_rng(10)
        points = rng.standard_normal((3, 10, 2))
        points[1] = PINNED_POINTS_B
        centroids, _ = fit_stack_and_rows(points, 3, [5, 6, 7])
        labels, _ = nearest(points[1], centroids[1])
        assert sorted(set(labels.tolist())) == [0, 1, 2]

    @pytest.mark.parametrize("k", [1, 13])
    def test_k_one_and_k_n(self, k):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((5, 13, 4))
        centroids, _ = fit_stack_and_rows(points, k, [3, 1, 4, 1, 5])
        for row, row_centroids in zip(points, centroids):
            if k == 1:
                # Members are summed in point order, exactly as numpy's mean.
                assert np.array_equal(row_centroids[0], row.mean(axis=0))
            else:
                assert nearest(row, row_centroids)[1] == 0.0

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
                fitted, iterations = kmeans_many(points, k, seeds)
                for t, (row, seed) in enumerate(zip(points, seeds)):
                    centroids, serial_iterations = serial_lloyd(row, k, seed)
                    assert np.array_equal(fitted[t], centroids)
                    assert iterations[t] == serial_iterations

    @pytest.mark.parametrize("points, k, seed, centroids, assignments, inertia, iterations", PINNED_FITS)
    def test_outputs_pinned(self, points, k, seed, centroids, assignments, inertia, iterations):
        fitted, iterations_run = kmeans_many(np.array(points)[None], k, [seed])
        assert np.array_equal(fitted[0], centroids)
        assert iterations_run.tolist() == [iterations]
        labels, total = nearest(points, fitted[0])
        assert np.array_equal(labels, assignments)
        assert total == inertia

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


def pair_score(test, ref, ids, k, seed):
    """Score a pair as the CLI's verdict does: both takes enrolled in one
    call, under their source ids."""
    test_models, ref_models = enroll_many([test, ref], ids, k, seed)
    (combined,) = scores([test_models], [ref_models])
    return combined


class TestVerdict:
    def test_self_comparison_scores_zero(self):
        rng = np.random.default_rng(7)
        a = {"single": rng.standard_normal((30, 4))}
        assert pair_score(a, a, ["same", "same"], k=2, seed=3) == 0.0

    def test_score_symmetry(self):
        rng = np.random.default_rng(8)
        a = {"single": rng.standard_normal((25, 4))}
        b = {"single": rng.standard_normal((25, 4)) + 2.0}
        s_ab = pair_score(a, b, ["utt-a", "utt-b"], k=2, seed=5)
        s_ba = pair_score(b, a, ["utt-b", "utt-a"], k=2, seed=5)
        assert s_ab == pytest.approx(s_ba, abs=1e-9)

    def test_combined_score_is_mean_of_channels(self):
        rng = np.random.default_rng(9)
        test = {
            "ch1": rng.standard_normal((20, 3)),
            "ch2": rng.standard_normal((20, 3)),
        }
        ref = {
            "ch1": rng.standard_normal((20, 3)) + 1.0,
            "ch2": rng.standard_normal((20, 3)) - 1.0,
        }
        test_models, ref_models = enroll_many([test, ref], ["t", "r"], 2, 1)
        per_channel = channel_scores([test_models], [ref_models])
        combined = scores([test_models], [ref_models])
        assert combined == pytest.approx(np.mean(list(per_channel.values()), axis=0))
        assert set(per_channel) == {"ch1", "ch2"}

    def test_decision_boundary_inclusive(self):
        rng = np.random.default_rng(10)
        a = {"single": rng.standard_normal((20, 3))}
        self_score = pair_score(a, a, ["a", "a"], k=1, seed=0)
        assert self_score == 0.0
        # score 0 <= threshold 0 counts as identical
        assert confusion([self_score], [], threshold=0.0) == ConfusionCounts(tp=1)

    def test_channel_set_mismatch(self):
        rng = np.random.default_rng(11)
        a = {"ch1": rng.standard_normal((10, 3))}
        b = {"single": rng.standard_normal((10, 3))}
        with pytest.raises(ConfigError):
            pair_score(a, b, ["a", "b"], k=1, seed=0)

    def test_distinct_clusters_separate_sources(self):
        # two synthetic "speakers": clouds at distance 6 vs re-draws nearby
        rng = np.random.default_rng(12)
        base = rng.standard_normal((40, 4))
        same = base + 0.05 * rng.standard_normal((40, 4))
        other = base + 6.0
        t, g, i = {"single": base}, {"single": same}, {"single": other}
        genuine = pair_score(t, g, ["t", "g"], k=2, seed=2)
        impostor = pair_score(t, i, ["t", "i"], k=2, seed=2)
        assert impostor > genuine


def take_id(profile, word, replicate):
    return f"p{profile}.w{word}.r{replicate}"


def take_features(method, profile, word, replicate, duration=0.4):
    """A synthetic take's features keyed by channel, as the sweep builds them."""
    buffer = synth_speaker(profile, word, duration, seed=100 * profile + 10 * word + replicate)
    return extract(buffer, method)


def enroll_keys(method, keys, k, seed):
    """The models of the synthetic takes of `keys`, enrolled in one call."""
    takes = [take_features(method, *key) for key in keys]
    return enroll_many(takes, [take_id(*key) for key in keys], k, seed)


class TestEnrollScore:
    @pytest.mark.parametrize("method", ["single", "dual"])
    @pytest.mark.parametrize("other_profile", [0, 1])
    def test_score_of_enrolled_takes_is_verdict_score(self, method, other_profile):
        test_models, ref_models = enroll_keys(method, [(0, 3, 1), (other_profile, 3, 0)], 2, 4)
        (test_alone,) = enroll_keys(method, [(0, 3, 1)], 2, 4)
        (ref_alone,) = enroll_keys(method, [(other_profile, 3, 0)], 2, 4)
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
        ids = [take_id(0, 3, 1), take_id(1, 3, 0)]
        stacked = enroll_many([test, ref], ids, 2, 4)
        for models, features, source in zip(stacked, (test, ref), ids):
            (alone,) = enroll_many([features], [source], 2, 4)
            assert list(models) == list(alone)
            for channel in alone:
                assert np.array_equal(models[channel], alone[channel])

    def test_dual_channels_fit_in_one_call_as_they_fit_alone(self, monkeypatch):
        # Rows of one kmeans_many call never interact, so fitting a dual
        # take's two channels together gives each channel's own fit.
        calls = []
        real_kmeans_many = melsplit.cluster.kmeans_many

        def recording_kmeans_many(points, *args, **kwargs):
            calls.append(np.shape(points))
            return real_kmeans_many(points, *args, **kwargs)

        monkeypatch.setattr(melsplit.cluster, "kmeans_many", recording_kmeans_many)
        keys = [(p, 2, 1) for p in range(3)]
        takes = [take_features("dual", *key) for key in keys]
        models = enroll_many(takes, [take_id(*key) for key in keys], 2, 8)
        assert len(calls) == 1 and calls[0][0] == 6
        for key, features, take_models in zip(keys, takes, models):
            assert list(take_models) == ["ch1", "ch2"]
            for channel, rows in features.items():
                seed = melsplit.cluster._side_seed(8, take_id(*key), channel)
                alone, _ = real_kmeans_many(rows[None], 2, [seed])
                assert np.array_equal(take_models[channel], alone[0])

    @pytest.mark.parametrize("method", ["single", "dual"])
    def test_enrolling_twice_gives_identical_centroids(self, method):
        feats = take_features(method, 2, 1, 1)
        (first,), (second,) = (enroll_many([feats], [take_id(2, 1, 1)], 2, 9) for _ in range(2))
        assert list(first) == list(second) == sorted(feats)
        for channel in feats:
            assert np.array_equal(first[channel], second[channel])

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
        sources = ["a", "b", "a", "a", "b"]
        takes = [{ch: rng.standard_normal((20, 3)) for ch in ("ch1", "ch2")} for _ in sources]
        models = enroll_many(takes, sources, 2, 6)
        assert sorted(derived) == [("a", "ch1"), ("a", "ch2"), ("b", "ch1"), ("b", "ch2")]
        for features, source, take_models in zip(takes, sources, models):
            for channel, rows in features.items():
                seed = real_side_seed(6, source, channel)
                assert np.array_equal(take_models[channel], fit_one(rows, 2, seed))

    def test_one_source_id_per_take(self):
        takes = [take_features("single", 0, 0, 0), take_features("single", 0, 1, 0)]
        for ids in ([], ["a"], ["a", "b", "c"]):
            with pytest.raises(DimensionError, match=rf"one source id per take: 2, {len(ids)}"):
                enroll_many(takes, ids, 2, 1)

    def test_channel_set_mismatch_raises(self):
        (single,) = enroll_keys("single", [(0, 0, 0)], 2, 1)
        (dual,) = enroll_keys("dual", [(0, 0, 1)], 2, 1)
        with pytest.raises(ConfigError, match="channel sets differ"):
            scores([single], [dual])
        with pytest.raises(ConfigError, match="channel sets differ"):
            pair_score(
                take_features("single", 0, 0, 0),
                take_features("dual", 0, 0, 1),
                [take_id(0, 0, 0), take_id(0, 0, 1)],
                2,
                1,
            )


def reference_channel_scores(test_models, ref_models):
    """One pair's channel scores on their own: per channel, the minimum
    distance over its (test, reference) centroid pairs."""
    per_channel = {}
    for channel in sorted(test_models):
        a, b = test_models[channel], ref_models[channel]
        per_channel[channel] = np.sqrt(np.sum((a[:, None] - b[None]) ** 2, axis=2)).min()
    return per_channel


class TestScores:
    @pytest.mark.parametrize("method", ["single", "dual"])
    def test_equal_each_pair_scored_alone_bit_for_bit(self, method):
        # Every test take of 3 profiles x 2 words against each profile's
        # reference of its word: 6 genuine and 12 impostor pairs.
        keys = [(p, w, r) for p in range(3) for w in range(2) for r in (0, 1)]
        models = dict(zip(keys, enroll_keys(method, keys, 2, 4)))
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
        (single,) = enroll_keys("single", [(0, 0, 0)], 2, 1)
        (dual,) = enroll_keys("dual", [(0, 0, 1)], 2, 1)
        within = r"pair 0: channel sets differ: \['single'\] vs \['ch1', 'ch2'\]"
        with pytest.raises(ConfigError, match=within):
            channel_scores([single], [dual])
        across = r"pair 1: channel sets differ: \['ch1', 'ch2'\] vs \['single'\]"
        with pytest.raises(ConfigError, match=across):
            scores([single, dual], [single, dual])

    def test_pair_counts_must_be_equal_and_nonzero(self):
        (models,) = enroll_keys("single", [(0, 0, 0)], 2, 1)
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
                {"single": rng.standard_normal((12, 2))},
                {"single": rng.standard_normal((12, 2)) + rng.uniform(0, 2)},
            )
            for _ in range(40)
        ]
        scores = [pair_score(t, r, [f"t{i}", f"r{i}"], k=2, seed=3) for i, (t, r) in enumerate(sides)]
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
