"""K-means, verdict, calibration, and accuracy tests.

The k-means oracle enumerates every assignment of points to clusters and
takes the best within-cluster sum of squares, so the seeded implementation
can be checked against the true optimum at desk scale.
"""

import itertools
import json

import numpy as np
import pytest

from melsplit.cluster import (
    ConfusionCounts,
    IdentityVerdict,
    accuracy,
    calibrate_threshold,
    confusion,
    euclidean,
    kmeans,
    verdict,
)
from melsplit.errors import ConfigError, DimensionError, ParameterError
from melsplit.mfcc import FeatureMatrix


def brute_force_inertia(points, k):
    """Optimal k-means objective by exhaustive assignment enumeration."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
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


class TestEuclidean:
    def test_identical_vectors(self):
        assert euclidean(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_three_four_five(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        perm = rng.permutation(6)
        assert euclidean(a, b) == pytest.approx(euclidean(a[perm], b[perm]))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        assert euclidean(a, b) == euclidean(b, a)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            euclidean(np.zeros(3), np.zeros(4))


class TestKmeans:
    def test_two_well_separated_groups(self):
        points = np.array([0.0, 1.0, 10.0, 11.0])
        model = kmeans(points, 2, seed=7)
        assert sorted(model.centroids.ravel().tolist()) == pytest.approx([0.5, 10.5])
        assert model.inertia == pytest.approx(1.0)

    def test_k_equals_n(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        model = kmeans(points, 3, seed=0)
        assert model.inertia == pytest.approx(0.0)
        assert sorted(model.centroids.tolist()) == sorted(points.tolist())

    def test_k_one_is_global_mean(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((20, 3))
        model = kmeans(points, 1, seed=5)
        assert np.allclose(model.centroids[0], points.mean(axis=0))

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((40, 2))
        model = kmeans(points, 3, seed=11)
        for j in range(3):
            members = points[model.assignments == j]
            if len(members):
                assert np.max(np.abs(model.centroids[j] - members.mean(axis=0))) <= 1e-9

    def test_points_assigned_to_nearest_centroid(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((40, 2))
        model = kmeans(points, 3, seed=13)
        dists = np.linalg.norm(points[:, None, :] - model.centroids[None], axis=2)
        assert np.array_equal(model.assignments, np.argmin(dists, axis=1))

    def test_inertia_non_increasing_over_iterations(self):
        # rerunning with a growing iteration cap traces the descent path
        rng = np.random.default_rng(5)
        points = rng.standard_normal((30, 2))
        inertias = [kmeans(points, 3, seed=3, max_iter=i).inertia for i in range(1, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_best_of_16_matches_brute_force(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            points = rng.standard_normal((n, 2))
            best = min(kmeans(points, k, seed=s).inertia for s in range(16))
            assert best == pytest.approx(brute_force_inertia(points, k), rel=1e-9, abs=1e-12)

    def test_duplicate_points_handled(self):
        points = np.zeros((6, 2))
        model = kmeans(points, 2, seed=1)
        assert model.inertia == 0.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((25, 3))
        a = kmeans(points, 2, seed=9)
        b = kmeans(points, 2, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)


def fm(rows, channel="single", source="u"):
    return FeatureMatrix(np.asarray(rows, dtype=np.float64), channel, source)


class TestVerdict:
    def test_self_comparison_scores_zero(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((30, 4))
        a = {"single": fm(rows, source="same")}
        v = verdict(a, a, k=2, threshold=0.5, seed=3)
        assert v.score == 0.0
        assert v.decision == "identical"

    def test_score_symmetry(self):
        rng = np.random.default_rng(8)
        a = {"single": fm(rng.standard_normal((25, 4)), source="utt-a")}
        b = {"single": fm(rng.standard_normal((25, 4)) + 2.0, source="utt-b")}
        v_ab = verdict(a, b, k=2, threshold=1.0, seed=5)
        v_ba = verdict(b, a, k=2, threshold=1.0, seed=5)
        assert v_ab.score == pytest.approx(v_ba.score, abs=1e-9)

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
        v = verdict(test, ref, k=2, threshold=10.0, seed=1)
        assert v.score == pytest.approx(np.mean(list(v.per_channel_scores.values())))
        assert set(v.per_channel_scores) == {"ch1", "ch2"}

    def test_decision_boundary_inclusive(self):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((20, 3))
        a = {"single": fm(rows, source="a")}
        v = verdict(a, a, k=1, threshold=0.0, seed=0)
        assert v.decision == "identical"  # score 0 <= threshold 0

    def test_channel_set_mismatch(self):
        rng = np.random.default_rng(11)
        a = {"ch1": fm(rng.standard_normal((10, 3)), "ch1", "a")}
        b = {"single": fm(rng.standard_normal((10, 3)), "single", "b")}
        with pytest.raises(ConfigError):
            verdict(a, b, k=1, threshold=1.0, seed=0)

    def test_distinct_clusters_separate_sources(self):
        # two synthetic "speakers": clouds at distance 6 vs re-draws nearby
        rng = np.random.default_rng(12)
        base = rng.standard_normal((40, 4))
        same = base + 0.05 * rng.standard_normal((40, 4))
        other = base + 6.0
        t = {"single": fm(base, source="t")}
        g = {"single": fm(same, source="g")}
        i = {"single": fm(other, source="i")}
        genuine = verdict(t, g, k=2, threshold=1.0, seed=2).score
        impostor = verdict(t, i, k=2, threshold=1.0, seed=2).score
        assert impostor > genuine


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
        scores = [verdict(t, r, k=2, threshold=0.0, seed=3).score for t, r in sides]
        threshold = sorted(scores)[20]  # one score sits exactly on the threshold
        identical = [
            verdict(t, r, k=2, threshold=threshold, seed=3).decision == "identical"
            for t, r in sides
        ]
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
