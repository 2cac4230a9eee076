"""K-means over feature rows, centroid-distance scores, and accuracy.

Identity decisions compare two utterances channel by channel: enroll each
side (cluster its feature rows per channel), take the smallest distance
between any pair of centroids, and average the per-channel scores. A pair is
identical when that score is at or below a threshold; the CLI's verdict
command and the sweep's confusion counts both decide it so. A take enrolled
once can be scored against any number of others. The threshold comes from
an equal-error scan over genuine and impostor calibration scores.

There is one Lloyd kernel, kmeans_many, which fits a stack of
equal-shaped point sets in lockstep; one point set is a stack of one.
enroll_many enrolls a list of takes, each a {channel_id: rows} dict named
by a source id that seeds its fits, with one kernel call per matrix shape,
whatever the channel; channel_scores scores a list of pairs with one
stacked distance per channel. One take or pair is a list of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .signal_io import _derive_seed, _entropy, _string_key


@dataclass(frozen=True)
class ClusterModel:
    """Fitted centroids with per-point assignments."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations_run: int
    seed: int


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def kmeans_many(
    points: np.ndarray,
    k: int,
    seeds: Sequence[int],
    max_iter: int = 100,
    tol: float = 1e-9,
) -> list[ClusterModel]:
    """Fit a (T, n, d) stack of point sets in lockstep, one model per row.

    Row t runs Lloyd iterations from a choice of k distinct points drawn
    from seeds[t]. Assignment ties break toward the lowest cluster index. An
    empty cluster is reseeded to the point currently farthest from its
    assigned centroid. A row stops when no centroid moves more than tol or
    at max_iter. Rows never interact: only rows still moving take part in
    the next iteration, so a row fits as it would in a stack of one.
    Centroid sums are one one-hot einsum that adds each cluster's members in
    point order, the order pts[members].mean(axis=0) sums them in when
    d > 1, so centroids match that mean bit for bit. (numpy sums a single
    column pairwise, so for d = 1 they can differ from it in the last bit.)
    """
    pts = np.asarray(points, dtype=np.float64)
    seeds = list(seeds)
    if pts.ndim != 3 or len(seeds) != len(pts):
        raise DimensionError(
            f"need a (T, n, d) stack and one seed per row; got {pts.shape} and {len(seeds)} seeds"
        )
    rows, n, d = pts.shape
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k > n:
        raise ParameterError(f"k={k} exceeds the number of points ({n})")
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")

    # The starting points depend only on (seed, n, k), so each distinct
    # seed chooses them once: the sweep fits a take at every SNR point
    # under one seed.
    starts: dict[int, np.ndarray] = {}
    centroids = np.empty((rows, k, d))
    for t, seed in enumerate(seeds):
        if seed not in starts:
            rng = np.random.default_rng(_entropy(seed))
            starts[seed] = np.sort(rng.choice(n, size=k, replace=False))
        centroids[t] = pts[t, starts[seed]]
    assignments = np.full((rows, n), -1)
    iterations = np.zeros(rows, dtype=int)
    clusters = np.arange(k)
    live = np.arange(rows)  # rows still iterating; live_pts is pts[live]
    live_pts = pts
    for iteration in range(1, max_iter + 1):
        old = centroids[live]
        sq_dist = np.empty((len(live), n, k))
        for j in range(k):  # one (T', n, d) difference at a time keeps the peak small
            diff = live_pts - old[:, None, j, :]
            sq_dist[:, :, j] = np.sum(np.square(diff, out=diff), axis=2)
        labels = np.argmin(sq_dist, axis=2)
        one_hot = labels[:, :, None] == clusters
        counts = one_hot.sum(axis=1)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            _reseed_empty(live_pts[r], sq_dist[r], labels[r], counts[r], old[r])
            one_hot[r] = labels[r, :, None] == clusters

        sums = np.einsum("tnk,tnd->tkd", one_hot.astype(np.float64), live_pts)
        new = old.copy()
        filled = counts > 0
        new[filled] = sums[filled] / counts[filled][:, None]
        moving = np.max(np.abs(new - old), axis=(1, 2)) >= tol
        centroids[live] = new
        assignments[live] = labels
        iterations[live] = iteration
        if not moving.all():
            live = live[moving]
            if not len(live):
                break
            live_pts = pts[live]

    residuals = pts - centroids[np.arange(rows)[:, None], assignments]
    inertia = np.sum(np.square(residuals, out=residuals).reshape(rows, -1), axis=1)
    return [
        ClusterModel(centroids[t], assignments[t], float(inertia[t]), int(iterations[t]), seed)
        for t, seed in enumerate(seeds)
    ]


def _reseed_empty(
    pts: np.ndarray,
    sq_dist: np.ndarray,
    assignments: np.ndarray,
    counts: np.ndarray,
    centroids: np.ndarray,
) -> None:
    """Give each empty cluster the point farthest from its own centroid, in place."""
    n = len(pts)
    for j in np.flatnonzero(counts == 0):
        own = sq_dist[np.arange(n), assignments]
        # Only steal from clusters that keep at least one point. One exists:
        # kmeans_many rejects k > n, so while a cluster is empty the n >= k
        # points fill at most k - 1 clusters, and one of them holds two or more.
        donors = counts[assignments] > 1
        own = np.where(donors, own, -np.inf)
        far = int(np.argmax(own))
        counts[assignments[far]] -= 1
        assignments[far] = j
        counts[j] = 1
        centroids[j] = pts[far]
        sq_dist[far, j] = 0.0


def _side_seed(seed: int, source_id: str, channel_id: str) -> int:
    """Clustering seed tied to the utterance, not to which side it sits on."""
    return _derive_seed(seed, _string_key(source_id), _string_key(channel_id))


def enroll_many(
    takes: Sequence[Mapping[str, np.ndarray]], source_ids: Sequence[str], k: int, seed: int
) -> list[dict[str, ClusterModel]]:
    """Enroll a list of takes at once: one {channel_id: ClusterModel} each.

    takes[i] holds take i's (n, d) feature rows by channel and source_ids[i]
    names the take. The rows of every channel are grouped by shape and each
    group is fitted in one kmeans_many call, so a dual take's two channels
    fit together. A fit is seeded from (seed, source id, channel), so a take
    enrolls to the same centroids whichever side of a comparison it sits
    on and whichever takes it is enrolled with, and a cached model scores
    exactly as a fresh fit would. Each distinct (source id, channel) seed is
    derived once per call, however many of the takes share it.
    """
    if len(takes) != len(source_ids):
        raise DimensionError(f"need one source id per take: {len(takes)}, {len(source_ids)}")
    models: list[dict[str, ClusterModel]] = [{} for _ in takes]
    groups: dict[tuple, list[tuple[int, str]]] = {}
    side_seeds: dict[tuple[str, str], int] = {}
    for i, (features, source_id) in enumerate(zip(takes, source_ids)):
        for channel, rows in features.items():
            groups.setdefault(rows.shape, []).append((i, channel))
            if (source_id, channel) not in side_seeds:
                side_seeds[source_id, channel] = _side_seed(seed, source_id, channel)
    for _, members in sorted(groups.items()):
        fitted = kmeans_many(
            np.stack([takes[i][channel] for i, channel in members]),
            k,
            [side_seeds[source_ids[i], channel] for i, channel in members],
        )
        for (i, channel), model in zip(members, fitted):
            models[i][channel] = model
    return [dict(sorted(m.items())) for m in models]


def channel_scores(
    tests: Sequence[Mapping[str, ClusterModel]], refs: Sequence[Mapping[str, ClusterModel]]
) -> dict[str, np.ndarray]:
    """{channel_id: (P,) array} for P pairs of enrolled takes: entry i is
    the minimum distance over the centroid pairs of tests[i] and refs[i].
    Every pair carries the first pair's channels, each of one centroid
    shape throughout; stacked, each entry equals its pair's alone bit for bit."""
    if len(tests) != len(refs) or not len(tests):
        raise DimensionError(f"need equal, non-empty lists of takes: {len(tests)}, {len(refs)}")
    for i, (test, ref) in enumerate(zip(tests, refs)):
        for a, b in ((test, ref), (test, tests[0])):
            if set(a) != set(b):
                raise ConfigError(f"pair {i}: channel sets differ: {sorted(a)} vs {sorted(b)}")
    per_channel: dict[str, np.ndarray] = {}
    for channel in sorted(tests[0]):
        test_c = np.stack([m[channel].centroids for m in tests])
        ref_c = np.stack([m[channel].centroids for m in refs])
        pairwise = np.sqrt(np.sum((test_c[:, :, None, :] - ref_c[:, None, :, :]) ** 2, axis=3))
        per_channel[channel] = pairwise.min(axis=(1, 2))
    return per_channel


def scores(
    tests: Sequence[Mapping[str, ClusterModel]], refs: Sequence[Mapping[str, ClusterModel]]
) -> np.ndarray:
    """Combined scores of P pairs: the mean of their channel_scores."""
    per_channel = list(channel_scores(tests, refs).values())
    return sum(per_channel) / len(per_channel)


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

    minimizers = errors[:-1] == best
    if minimizers.any():
        # argmax takes the first of equally wide gaps.
        i = np.argmax(np.where(minimizers, np.diff(values), -1.0))
        return 0.5 * (values[i] + values[i + 1])
    if errors[-1] == best:
        return float(values[-1])  # accept everything
    return float(values[0] - 1.0)  # reject everything


def confusion(genuine_scores, impostor_scores, threshold: float) -> ConfusionCounts:
    """Tally trials at a threshold; a pair counts as identical when its score
    is at or below the threshold."""
    tp = int(np.count_nonzero(np.asarray(genuine_scores, dtype=np.float64) <= threshold))
    fp = int(np.count_nonzero(np.asarray(impostor_scores, dtype=np.float64) <= threshold))
    return ConfusionCounts(tp, len(impostor_scores) - fp, fp, len(genuine_scores) - tp)


def accuracy(counts: ConfusionCounts) -> float:
    """(TP + TN) / (TP + TN + FP + FN)."""
    if counts.total <= 0:
        raise ParameterError("accuracy undefined for zero trials")
    return (counts.tp + counts.tn) / counts.total
