"""K-means over feature rows, centroid-distance verdicts, and accuracy.

Identity decisions compare two utterances channel by channel: cluster each
side's feature rows, take the smallest distance between any pair of
centroids, average the per-channel scores, and call the pair identical when
the combined score falls at or below a threshold. The threshold comes from
an equal-error scan over genuine and impostor calibration scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .mfcc import FeatureMatrix
from .signal_io import _entropy, _string_key


@dataclass(frozen=True)
class ClusterModel:
    """Fitted centroids with per-point assignments."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations_run: int
    seed: int


@dataclass(frozen=True)
class IdentityVerdict:
    """Combined centroid-distance score and the thresholded decision."""

    score: float
    threshold: float
    decision: str
    per_channel_scores: dict[str, float]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> ClusterModel:
    """Lloyd iterations from a seeded random choice of k distinct points.

    Assignment ties break toward the lowest cluster index. An empty cluster
    is reseeded to the point currently farthest from its assigned centroid.
    Iteration stops when no centroid moves more than tol or at max_iter.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k > n:
        raise ParameterError(f"k={k} exceeds the number of points ({n})")

    rng = np.random.default_rng(_entropy(seed))
    centroids = pts[np.sort(rng.choice(n, size=k, replace=False))].copy()
    assignments = np.full(n, -1)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sq_dist = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assignments = np.argmin(sq_dist, axis=1)

        counts = np.bincount(assignments, minlength=k)
        for j in np.flatnonzero(counts == 0):
            own = sq_dist[np.arange(n), assignments]
            # Only steal from clusters that keep at least one point.
            donors = counts[assignments] > 1
            if not donors.any():
                continue
            own = np.where(donors, own, -np.inf)
            far = int(np.argmax(own))
            counts[assignments[far]] -= 1
            assignments[far] = j
            counts[j] = 1
            centroids[j] = pts[far]
            sq_dist[far, j] = 0.0

        new_centroids = centroids.copy()
        for j in range(k):
            members = assignments == j
            if members.any():
                new_centroids[j] = pts[members].mean(axis=0)
        movement = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if movement < tol:
            break

    inertia = float(np.sum((pts - centroids[assignments]) ** 2))
    return ClusterModel(centroids, assignments, inertia, iterations, seed)


def _side_seed(seed: int, source_id: str, channel_id: str) -> int:
    """Clustering seed tied to the utterance, not to which side it sits on."""
    seq = np.random.SeedSequence(
        _entropy(seed, _string_key(source_id), _string_key(channel_id))
    )
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def verdict(
    test_features: Mapping[str, FeatureMatrix],
    ref_features: Mapping[str, FeatureMatrix],
    k: int,
    threshold: float,
    seed: int,
) -> IdentityVerdict:
    """Compare two utterances by nearest-centroid distance per channel.

    Both sides are clustered independently; the per-channel score is the
    minimum distance over centroid pairs, and the combined score is the mean
    across channels. Identical means score <= threshold.
    """
    if set(test_features) != set(ref_features):
        raise ConfigError(
            f"channel sets differ: {sorted(test_features)} vs {sorted(ref_features)}"
        )
    per_channel: dict[str, float] = {}
    for channel in sorted(test_features):
        test_fm = test_features[channel]
        ref_fm = ref_features[channel]
        test_model = kmeans(test_fm.rows, k, _side_seed(seed, test_fm.source_id, channel))
        ref_model = kmeans(ref_fm.rows, k, _side_seed(seed, ref_fm.source_id, channel))
        pairwise = np.sqrt(
            np.sum(
                (test_model.centroids[:, None, :] - ref_model.centroids[None, :, :]) ** 2,
                axis=2,
            )
        )
        per_channel[channel] = float(pairwise.min())
    score = float(np.mean(list(per_channel.values())))
    decision = "identical" if score <= threshold else "non-identical"
    return IdentityVerdict(score, float(threshold), decision, per_channel)


def calibrate_threshold(genuine_scores, impostor_scores) -> float:
    """Equal-error threshold by exhaustive scan over the score values.

    Counts errors (genuine above t, impostor at or below t) at every
    candidate boundary; among the minimizers, returns the midpoint of the
    widest gap between consecutive distinct scores. Deterministic.
    """
    genuine = np.sort(np.asarray(genuine_scores, dtype=np.float64))
    impostor = np.sort(np.asarray(impostor_scores, dtype=np.float64))
    if len(genuine) == 0 or len(impostor) == 0:
        raise ParameterError("both score sets must be non-empty")

    values = np.unique(np.concatenate([genuine, impostor]))
    # errors[i] is constant for t in [values[i], values[i+1]).
    false_rejects = len(genuine) - np.searchsorted(genuine, values, side="right")
    false_accepts = np.searchsorted(impostor, values, side="right")
    errors = false_rejects + false_accepts
    reject_all_errors = len(genuine)  # any t below the lowest score
    best = min(int(errors.min()), reject_all_errors)

    best_width = -1.0
    best_threshold = None
    for i in np.flatnonzero(errors == best):
        if i + 1 < len(values):
            width = float(values[i + 1] - values[i])
            if width > best_width:
                best_width = width
                best_threshold = 0.5 * (values[i] + values[i + 1])
    if best_threshold is not None:
        return best_threshold
    if errors[-1] == best:
        return float(values[-1])  # accept everything
    return float(values[0] - 1.0)  # reject everything


def confusion(genuine_scores, impostor_scores, threshold: float) -> ConfusionCounts:
    """Tally trials at a threshold; a pair counts as identical when its score
    is at or below the threshold, as in verdict."""
    tp = int(np.count_nonzero(np.asarray(genuine_scores, dtype=np.float64) <= threshold))
    fp = int(np.count_nonzero(np.asarray(impostor_scores, dtype=np.float64) <= threshold))
    return ConfusionCounts(tp, len(impostor_scores) - fp, fp, len(genuine_scores) - tp)


def accuracy(counts: ConfusionCounts) -> float:
    """(TP + TN) / (TP + TN + FP + FN)."""
    if counts.total <= 0:
        raise ParameterError("accuracy undefined for zero trials")
    return (counts.tp + counts.tn) / counts.total
