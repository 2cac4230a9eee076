"""SNR sweep benchmark over the synthetic word-sample corpus.

The sweep crosses extraction method (single/dual channel) with noise
cancellation (off/on) over a list of SNR points and tallies identification
accuracy per cell from a fixed set of genuine and impostor trial pairs. The
decision threshold is calibrated once per method on a clean, disjoint word
split and frozen, so accuracy falls as noise grows instead of being
re-absorbed by recalibration. Everything is a pure function of the plan,
the corpus, and the master seed.

Reference and calibration takes are enrolled noise-free. A test take at a
noisy point is a linear mix of two signals: clean + c*u with ANC off, and
the cancelled clean take plus c times the cancelled unit noise with ANC on.
Extraction's first stage is linear too (mfcc.channel_spectra), so the sweep
computes each signal's spectra once per method and builds every point's
features from S(a) + c*S(u); no noisy take is formed in the time domain.

A sweep holds a take only while its spectra run is in flight: it reads the
takes from the corpus a few at a time, draws a test take's unit noise as it
reads the take, and keeps only their features until they are enrolled.
The exception is a sweep whose canceller runs on some noisy point: it reads
its test takes once into a clean stack per take length, draws their unit
noise and its lead-in into a unit stack, and holds both for the whole
sweep, since the canceller runs on every take in lockstep and writes its
errors over them. _noise_stacks alone lays out these rows; every other
reader goes through the views it gives.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .anc import run_anc_batch
from .cluster import (
    ConfusionCounts,
    accuracy,
    calibrate_threshold,
    confusion,
    enroll_many,
    scores,
)
from .errors import ConfigError, DivergenceError, ParameterError
from .mfcc import (
    METHODS,
    ExtractionConfig,
    FeatureMatrix,
    channel_bands,
    channel_spectra,
    spectra_features,
)
from .settings import check_fields, check_shared_fields, read_settings, settings_from_dict
from .signal_io import (
    AudioBuffer,
    _entropy,
    corpus_seed,
    noise_scale,
    read_manifest,
    read_wav,
    synth_speaker,
)

# The clean condition is reported at this sentinel SNR. Its cells score the
# clean test takes as they are, with no mixing and no cancellation.
CLEAN_SNR_DB = 60.0

ANC_MODES = ("off", "on")

# Takes per channel_spectra call in _point_features, and so the most takes
# a sweep without a canceller holds at once. A run shares the call's
# overhead and its matrix products: one take per call slowed a sweep by
# 6-11%, and 16 takes per call raised sweep_noanc's peak RSS by about 5 MB.
_SPECTRA_TAKES = 4


@dataclass(frozen=True)
class ExperimentPlan:
    """One full sweep: SNR points x methods x ANC modes over a corpus."""

    snr_points_db: tuple[float, ...] = (CLEAN_SNR_DB, 0.0, -6.0, -10.0, -16.0)
    methods: tuple[str, ...] = METHODS
    anc: tuple[str, ...] = ANC_MODES
    corpus: str | None = None
    trials: int = 80
    master_seed: int = 1234
    profiles: int = 8
    words: int = 10
    duration_s: float = 0.6
    sample_rate_hz: int = 16000
    calib_words: int = 2
    anc_taps: int = 31
    anc_mu_fraction: float = 0.02
    anc_lead_s: float = 0.25
    kmeans_k: int = 2
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)

    def __post_init__(self):
        object.__setattr__(self, "snr_points_db", tuple(float(s) for s in self.snr_points_db))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "anc", tuple(self.anc))
        if self.trials <= 0:
            raise ConfigError("trials must be positive")
        if not all(math.isfinite(s) and s <= CLEAN_SNR_DB for s in self.snr_points_db):
            raise ConfigError(
                f"snr_points_db entries must be finite and at most {CLEAN_SNR_DB:g} (clean)"
            )
        for name in ("snr_points_db", "methods", "anc"):
            entries = getattr(self, name)
            check_fields(
                (name, len(entries) > 0, "must not be empty"),
                (name, len(set(entries)) == len(entries), "entries must be distinct"),
            )
        if set(self.methods) - set(METHODS):
            raise ConfigError(f"methods must be a subset of {METHODS}")
        for method in self.methods:
            channel_bands(method, self.extraction)  # checks num_coeffs
        if set(self.anc) - set(ANC_MODES):
            raise ConfigError(f"anc must be a subset of {ANC_MODES}")
        if self.profiles < 2:
            raise ConfigError("need at least 2 profiles for impostor trials")
        if not 1 <= self.calib_words < self.words:
            raise ConfigError("calib_words must leave at least one trial word")
        check_shared_fields(
            self.sample_rate_hz, self.extraction.band_top_hz, self.anc_taps, self.kmeans_k
        )
        check_fields(
            (
                "duration_s",
                math.isfinite(self.duration_s) and self.duration_s > 0,
                "must be finite and positive",
            ),
            (
                "anc_lead_s",
                math.isfinite(self.anc_lead_s) and self.anc_lead_s >= 0,
                "must be finite and >= 0",
            ),
            ("anc_mu_fraction", 0 < self.anc_mu_fraction < math.inf, "must be finite and positive"),
        )
        if self.corpus is None:  # a manifest's takes have their own lengths
            n = round(self.duration_s * self.sample_rate_hz)
            short = too_short(self.extraction, self.methods, self.kmeans_k, n)
            check_fields(("duration_s", short is None, f"gives {n} samples, {short}"))


def too_short(cfg: ExtractionConfig, methods, kmeans_k: int, n: int) -> str | None:
    """Why a take of n samples is too short to extract by `methods` and
    enroll with kmeans_k clusters, or None. A take must fill a frame and
    outlast the dual split's kernel, then give kmeans_k frames to cluster.
    The sweep checks its plan with it, and the CLI's verdict its two takes."""
    need = max(cfg.frame_len, cfg.fir_taps + 1 if "dual" in methods else 0)
    if n < need:
        return f"fewer than extraction's {need}"
    need = cfg.frame_len + (kmeans_k - 1) * cfg.frame_shift
    if n < need:
        return f"fewer than the {need} that kmeans_k={kmeans_k} frames need"
    return None


@dataclass(frozen=True)
class CellResult:
    """Accuracy of one (method, anc, snr) condition."""

    method: str
    anc: str
    snr_db: float
    counts: ConfusionCounts
    accuracy: float


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[CellResult, ...]
    config_echo: dict
    corpus_digest: str

    def cell(self, method: str, anc: str, snr_db: float) -> CellResult:
        for c in self.cells:
            if c.method == method and c.anc == anc and c.snr_db == snr_db:
                return c
        raise KeyError((method, anc, snr_db))


@dataclass(frozen=True)
class _TrialPair:
    test: tuple[int, int]
    ref: tuple[int, int]
    genuine: bool


def _take_id(p: int, w: int, r: int) -> str:
    """Source id of a corpus take; it seeds k-means, so it shapes the scores."""
    return f"p{p}.w{w}.r{r}"


def _build_corpus(plan: ExperimentPlan) -> tuple[Callable, dict, str]:
    """Synthesize the corpus on read, or load it from a manifest.

    Returns (take, lengths, digest): take(key) is the AudioBuffer of a
    (profile, word, replicate) key of `lengths`, and lengths[key] its
    length in samples, known without reading it. The sweep reads each take it
    uses once. A synthesized take is made each time it is read, so takes
    that no pair uses cost nothing; a manifest's take is popped out of the
    loaded corpus as it is read, so it is freed once the sweep drops it. A
    benchmark corpus needs two replicates per (profile, word): the first
    (lowest seed) is the enrolled reference, the second the test recording.
    """
    if plan.corpus is None:
        keys = [(p, w, r) for p in range(plan.profiles) for w in range(plan.words) for r in (0, 1)]
        blob = json.dumps(
            {
                "profiles": plan.profiles,
                "words": plan.words,
                "duration_s": plan.duration_s,
                "sample_rate_hz": plan.sample_rate_hz,
                "seeds": [corpus_seed(plan.master_seed, *key) for key in keys],
            },
            sort_keys=True,
        ).encode()

        def take(key):
            seed = corpus_seed(plan.master_seed, *key)
            return synth_speaker(key[0], key[1], plan.duration_s, seed, plan.sample_rate_hz)

        n = round(plan.duration_s * plan.sample_rate_hz)
        return take, dict.fromkeys(keys, n), hashlib.sha256(blob).hexdigest()

    corpus: dict[tuple[int, int, int], AudioBuffer] = {}
    manifest_path = Path(plan.corpus)
    if not manifest_path.exists():
        raise ConfigError(f"corpus manifest not found: {manifest_path}")
    entries = read_manifest(manifest_path)
    groups: dict[tuple[int, int], list[dict]] = {}
    for e in entries:
        groups.setdefault((e["profile_id"], e["word_id"]), []).append(e)
    profile_ids = sorted({p for p, _ in groups})
    word_ids = sorted({w for _, w in groups})
    for p in profile_ids:
        for w in word_ids:
            if (p, w) not in groups:
                raise ConfigError(
                    f"corpus manifest has no takes for profile {p} word {w}; "
                    f"every profile needs every word"
                )
    for (p, w), group in sorted(groups.items()):
        if len(group) < 2:
            raise ConfigError(
                f"corpus needs >= 2 replicates per (profile, word); "
                f"profile {p} word {w} has {len(group)}"
            )
        group.sort(key=lambda e: e["seed"])
        for r, e in enumerate(group[:2]):
            wav_path = Path(e["path"])
            if not wav_path.is_absolute():
                wav_path = manifest_path.parent / wav_path
            buffer = read_wav(wav_path)
            entry = f"corpus entry {wav_path} (profile {p}, word {w})"
            if buffer.sample_rate_hz != plan.sample_rate_hz:
                raise ConfigError(
                    f"{entry} is sampled at {buffer.sample_rate_hz} Hz, "
                    f"but plan sample_rate_hz is {plan.sample_rate_hz}"
                )
            if not np.any(buffer.samples):
                raise ConfigError(f"{entry} is silent")
            short = too_short(plan.extraction, plan.methods, plan.kmeans_k, len(buffer))
            if short:
                raise ConfigError(f"{entry} has {len(buffer)} samples, {short}")
            corpus[(p, w, r)] = buffer
    digest = hashlib.sha256(manifest_path.read_bytes()).hexdigest()
    lengths = {key: len(buffer) for key, buffer in corpus.items()}
    return corpus.pop, lengths, digest


def _make_pairs(
    profile_ids: list[int], trial_words: list[int], trials: int, rng: np.random.Generator
) -> list[_TrialPair]:
    """Fixed, balanced trial pairs: genuine = same (profile, word) across
    replicates; impostor = same word, different profile."""
    n_genuine = trials // 2
    n_impostor = trials - n_genuine
    genuine_pool = [(p, w) for p in profile_ids for w in trial_words]
    impostor_pool = [
        (p, w, q)
        for p in profile_ids
        for w in trial_words
        for q in profile_ids
        if q != p
    ]
    if n_genuine > len(genuine_pool) or n_impostor > len(impostor_pool):
        raise ConfigError(
            f"trials={trials} exceeds the corpus trial pool "
            f"({len(genuine_pool)} genuine, {len(impostor_pool)} impostor)"
        )
    pairs: list[_TrialPair] = []
    for i in rng.choice(len(genuine_pool), size=n_genuine, replace=False):
        p, w = genuine_pool[i]
        pairs.append(_TrialPair(test=(p, w), ref=(p, w), genuine=True))
    for i in rng.choice(len(impostor_pool), size=n_impostor, replace=False):
        p, w, q = impostor_pool[i]
        pairs.append(_TrialPair(test=(p, w), ref=(q, w), genuine=False))
    return pairs


def _calibration_pairs(profile_ids: list[int], calib_words: list[int]) -> list[_TrialPair]:
    """Each clean calibration take against its own reference and against the
    same word of another profile, rotating through the others word by word."""
    n = len(profile_ids)
    return [
        _TrialPair(test=(p, w), ref=(q, w), genuine=q == p)
        for idx, w in enumerate(calib_words)
        for i, p in enumerate(profile_ids)
        for q in (p, profile_ids[(i + 1 + idx % (n - 1)) % n])
    ]


def _unit_noise(plan: ExperimentPlan, key: tuple[int, int], count: int) -> np.ndarray:
    """`count` samples of test take `key`'s unit noise. The first n lie
    under the take's n samples in every plan; a canceller's lead-in reads
    the ones after them (see _noise_stacks). The draw is seeded by (master
    seed, key) only, so the noise of `key` at every SNR point is this
    sequence times a scale.
    """
    rng = np.random.default_rng(_entropy(corpus_seed(plan.master_seed, *key, 0xA01E)))
    return rng.standard_normal(count)


def _noise_stacks(plan: ExperimentPlan, groups: dict, take: Callable) -> tuple[list, Callable]:
    """The canceller's stacks of the takes of `groups`, {n: keys of the
    takes of n samples}, and read(key) of _point_features over their rows;
    take(key) is the AudioBuffer of a key's take. The only code that knows
    how a canceller row is laid out.

    Each stack is (keys, clean, unit), one per entry of `groups`. Row i of
    `unit` opens with the lead-in, the last `lead` samples of keys[i]'s
    _unit_noise of n + lead, so the adaptive filter converges before speech
    starts, and goes on with its first n, which lie under the take. Row i of
    `clean` is the take opened by pad = min(lead, anc_taps) zeros: a
    canceller of the clean take alone sees a zero primary, so its weights
    stay zero through the lead-in, and it can start its run pad steps
    before the take with the lead-in's last anc_taps samples as history.
    read(key) gives views of the key's rows after the lead-in and the
    pad, and the powers of the take and of the noise under it; once
    _cancel_stacks has written the canceller's errors over the rows, it
    gives the ANC-on signals.
    """
    lead = round(plan.anc_lead_s * plan.sample_rate_hz)
    pad = min(lead, plan.anc_taps)
    stacks, rows = [], {}
    for n, keys in groups.items():
        # The unit stack is drawn first, then each take is read straight
        # into its clean row, so no take is held past it. With every take
        # read before the stacks, perfbench's sweep_default runs on seeds
        # 1 and 9 peaked 5-7 MB higher in RSS (glibc 2.36 heap reuse).
        unit = np.empty((len(keys), lead + n))
        unit_power = []
        for row, key in zip(unit, keys):
            drawn = _unit_noise(plan, key, n + lead)
            row[:lead], row[lead:] = drawn[n:], drawn[:n]
            unit_power.append(float(np.mean(drawn[:n] ** 2)))
        clean = np.empty((len(keys), pad + n))
        clean[:, :pad] = 0.0
        for i, key in enumerate(keys):
            clean[i, pad:] = samples = take(key).samples
            rows[key] = (clean[i, pad:], unit[i, lead:], float(np.mean(samples**2)), unit_power[i])
        stacks.append((keys, clean, unit))
    return stacks, rows.__getitem__


def _take_reader(plan: ExperimentPlan, take: Callable, replicate: int, noisy: bool) -> Callable:
    """read(key) of _point_features straight from the corpus: replicate
    `replicate` of the key's take and, if `noisy`, its unit noise, drawn
    and its power taken here, once per sweep for both methods."""

    def read(key):
        a = take(key + (replicate,)).samples
        if not noisy:
            return a, None, None, None
        u = _unit_noise(plan, key, len(a))
        return a, u, float(np.mean(a**2)), float(np.mean(u**2))

    return read


def _cancel_stacks(plan: ExperimentPlan, stacks: list, points: list[float]) -> None:
    """Write the canceller's errors over every (keys, clean, unit) stack of
    _noise_stacks, so that its read(key) then gives the ANC-on test takes
    of every noisy point in `points`.

    Every ANC-off take must be read first. LMS on (d, c*u) with step mu
    gives the errors of LMS on (d, u) with step mu*c**2 (its weights are c
    times the others). A take's step on c*u, anc_mu_fraction / ((anc_taps
    + 1) * mean((c*u)**2)), targets a fixed misadjustment, so its step on
    u, mu*c**2, is the same at every SNR point. Each stack's cancellers
    thus run twice, however many points there are: on the clean stack with
    u as reference, from the lead-in step where its rows' zeros start, then
    on u against itself. A divergence is re-raised naming its take, the
    points it serves and its step in the canceller input.
    """
    for keys, clean, unit in stacks:
        steps = [
            plan.anc_mu_fraction / ((plan.anc_taps + 1) * float(np.mean(row**2))) for row in unit
        ]
        skip = unit.shape[1] - clean.shape[1]
        for primary, reference, offset in ((clean, unit[:, skip:], skip), (unit, unit, 0)):
            try:
                run_anc_batch(primary, reference, plan.anc_taps, steps)
            except DivergenceError as exc:
                take = _take_id(*keys[exc.row], 1)
                step = exc.step_index + offset
                snr = ", ".join(f"{s:g}" for s in points)
                raise DivergenceError(
                    step, f"ANC diverged on take {take} at SNR {snr} dB, step {step}"
                ) from exc


def _point_features(
    read: Callable, keys: list, points: list, plan: ExperimentPlan, replicate: int
) -> dict[str, list[dict]]:
    """{method: features} of the takes of `keys` at each of `points`, keyed
    by channel_id, in key order and, within a take, point order.

    read(key) gives a take's signals (a, u, clean_power, unit_power); u
    and the powers are read only when some point is noisy. Runs of up to
    _SPECTRA_TAKES takes are read together, and each run goes through the
    linear spectra stage once per method, one channel_spectra call per
    signal, S(a) and S(u). A take's points are then one spectra_features
    call on the (points, L, C) stack of S(a) + c * S(u), or of S(a) at the
    clean point. This equals extracting the take mixed in the time domain
    up to float rounding, and bit for bit at the clean point. `replicate`
    names a take's source id, which seeds k-means.
    """
    cfg, rate = plan.extraction, plan.sample_rate_hz
    noisy = any(snr_db != CLEAN_SNR_DB for snr_db in points)
    features: dict[str, list[dict]] = {method: [] for method in plan.methods}
    for start in range(0, len(keys), _SPECTRA_TAKES):
        run = keys[start : start + _SPECTRA_TAKES]
        signals = [read(key) for key in run]
        scales = [
            [None if s == CLEAN_SNR_DB else noise_scale(clean_power, unit_power, s) for s in points]
            for _, _, clean_power, unit_power in signals
        ]
        for method in plan.methods:
            spectra_a = channel_spectra([a for a, *_ in signals], method, cfg, rate)
            spectra_u = [None] * len(run)
            if noisy:
                spectra_u = channel_spectra([u for _, u, *_ in signals], method, cfg, rate)
            for key, s_a, s_u, take_scales in zip(run, spectra_a, spectra_u, scales):
                mixed = np.empty((len(points),) + s_a.shape)
                for row, c in zip(mixed, take_scales):
                    if c is None:
                        row[...] = s_a
                    else:
                        np.add(s_a, np.multiply(s_u, c, out=row), out=row)
                source_id = _take_id(*key, replicate)
                extracted = spectra_features(mixed, method, cfg, rate, source_id)
                del mixed  # held over the next run's channel_spectra, it raised peak RSS
                features[method] += [
                    {ch: FeatureMatrix(fm.rows[j], ch, source_id) for ch, fm in extracted.items()}
                    for j in range(len(points))
                ]
        del signals  # not held while the next run is read
    return features


def _enroll_points(
    plan: ExperimentPlan, points: list, groups: Iterable[list], read: Callable, replicate: int
) -> dict[str, dict[float, dict]]:
    """Enroll replicate `replicate` of every key of `groups`, lists of keys
    of equal-length takes, at each of `points`:
    {method: {snr_db: {(profile, word): {channel_id: ClusterModel}}}}.

    A group's B takes go in chunks of ceil(B / len(points)), whose features
    _point_features builds a few takes at a time from read(key) and which
    are enrolled at all their points in one enroll_many call per method,
    so a call holds about B rows, as one call per point would, and no more
    than a chunk's features are held.
    """
    models = {method: {snr_db: {} for snr_db in points} for method in plan.methods}
    for keys in groups:
        size = -(-len(keys) // len(points))
        for start in range(0, len(keys), size):
            chunk = keys[start : start + size]
            features = _point_features(read, chunk, points, plan, replicate)
            for method in plan.methods:
                enrolled = iter(enroll_many(features.pop(method), plan.kmeans_k, plan.master_seed))
                for key in chunk:
                    for snr_db in points:
                        models[method][snr_db][key] = next(enrolled)
    return models


def _score_pairs(
    test_models: dict, ref_models: dict, pairs: list[_TrialPair]
) -> tuple[np.ndarray, np.ndarray]:
    """Score every pair from the enrolled models of its two takes, in one
    scores call. Returns (genuine_scores, impostor_scores) in pair order."""
    combined = scores([test_models[p.test] for p in pairs], [ref_models[p.ref] for p in pairs])
    genuine = np.array([p.genuine for p in pairs])
    return combined[genuine], combined[~genuine]


def run_sweep(plan: ExperimentPlan) -> SweepReport:
    """Evaluate every (method, anc, snr) cell of the plan.

    Noise realizations and trial pairs are fixed per master seed and shared
    across cells, so conditions differ only in the treatment under test.
    Each reference take that a trial or calibration pair uses is enrolled
    once per method, and each test take once per condition; each condition's
    trial pairs are then scored from the cached models in one call.
    The clean condition scores the same takes under every ANC mode, so it is
    scored once per method and reported in each mode's cell.
    Every take goes through _enroll_points, which builds and enrolls its
    features at each of its points from its signals' spectra, computed once
    per method: the reference and calibration takes alone at the clean
    point, read from the corpus as they are needed; each test take's clean
    take and unit noise for the clean and ANC-off points, read the same way
    unless a canceller runs on a noisy point. Then they are read from the
    rows of _noise_stacks, and once _cancel_stacks has run each stack's two
    cancellers, their cancelled rows give the ANC-on points.
    """
    take, lengths, digest = _build_corpus(plan)
    profile_ids = sorted({key[0] for key in lengths})
    word_ids = sorted({key[1] for key in lengths})
    if len(word_ids) <= plan.calib_words:
        raise ConfigError("corpus has too few words for the calibration split")
    calib_words = word_ids[-plan.calib_words :]
    trial_words = word_ids[: -plan.calib_words]

    pair_rng = np.random.default_rng(_entropy(plan.master_seed, 0xBA1A))
    pairs = _make_pairs(profile_ids, trial_words, plan.trials, pair_rng)
    calib_pairs = _calibration_pairs(profile_ids, calib_words)

    def corpus_groups(keys, replicate: int) -> dict[int, list]:
        """{n: the keys whose take has n samples}, in first-seen order."""
        groups: dict[int, list] = {}
        for key in keys:
            groups.setdefault(lengths[key + (replicate,)], []).append(key)
        return groups

    def enroll_clean(keys, replicate: int) -> dict:
        """{method: {key: models}} of replicate `replicate` of each key, noise-free."""
        read = _take_reader(plan, take, replicate, noisy=False)
        groups = corpus_groups(keys, replicate).values()
        models = _enroll_points(plan, [CLEAN_SNR_DB], groups, read, replicate)
        return {m: models[m][CLEAN_SNR_DB] for m in plan.methods}

    ref_models = enroll_clean(sorted({p.ref for p in pairs + calib_pairs}), 0)
    # Per-method threshold from clean calibration words, frozen for the sweep.
    calib_models = enroll_clean(dict.fromkeys(p.test for p in calib_pairs), 1)
    thresholds = {
        m: calibrate_threshold(*_score_pairs(calib_models[m], ref_models[m], calib_pairs))
        for m in plan.methods
    }

    test_keys = sorted({pair.test for pair in pairs})
    points = [s for s in plan.snr_points_db if s != CLEAN_SNR_DB]
    cancelled = "on" in plan.anc and bool(points)
    groups = corpus_groups(test_keys, 1)
    if cancelled:
        stacks, read = _noise_stacks(plan, groups, lambda key: take(key + (1,)))
    else:
        read = _take_reader(plan, take, 1, bool(points))
    cells: list[CellResult] = []

    def tally(mode, group):
        models = _enroll_points(plan, group, groups.values(), read, 1)
        for method in plan.methods:
            for snr_db in group:
                scores = _score_pairs(models[method][snr_db], ref_models[method], pairs)
                counts = confusion(*scores, thresholds[method])
                for anc_mode in plan.anc if snr_db == CLEAN_SNR_DB else (mode,):
                    cells.append(CellResult(method, anc_mode, snr_db, counts, accuracy(counts)))

    # The points that read the clean takes or the unit noise, the clean
    # point and every ANC-off point, are enrolled before the cancellers
    # overwrite them.
    shared = [s for s in plan.snr_points_db if s == CLEAN_SNR_DB or "off" in plan.anc]
    if shared:
        tally("off", shared)
    if cancelled:
        _cancel_stacks(plan, stacks, points)
        tally("on", points)

    cells.sort(key=lambda c: (c.method, c.anc, c.snr_db))
    echo = plan_to_dict(plan)
    if plan.corpus is not None:  # the manifest, not the plan, sets these
        echo.update(profiles=len(profile_ids), words=len(word_ids), duration_s=None)
    echo["thresholds"] = {m: thresholds[m] for m in sorted(thresholds)}
    return SweepReport(tuple(cells), echo, digest)


def emit_curves(report: SweepReport, path) -> None:
    """Write one CSV row per cell, sorted by (method, anc, snr_db)."""
    if not report.cells:
        raise ParameterError("report has no cells")
    rows = ["method,anc,snr_db,tp,tn,fp,fn,accuracy"]
    for c in sorted(report.cells, key=lambda c: (c.method, c.anc, c.snr_db)):
        k = c.counts
        rows.append(
            f"{c.method},{c.anc},{c.snr_db:g},{k.tp},{k.tn},{k.fp},{k.fn},{c.accuracy!r}"
        )
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def report_to_dict(report: SweepReport) -> dict:
    cells = [
        {
            "method": c.method,
            "anc": c.anc,
            "snr_db": c.snr_db,
            **asdict(c.counts),
            "accuracy": c.accuracy,
        }
        for c in report.cells
    ]
    return {
        "config": report.config_echo,
        "corpus_digest": report.corpus_digest,
        "cells": cells,
    }


def plan_to_dict(plan: ExperimentPlan) -> dict:
    """JSON-ready form of every plan field; the clean SNR point becomes "clean"."""
    data = asdict(plan)
    data["snr_points_db"] = ["clean" if s == CLEAN_SNR_DB else s for s in plan.snr_points_db]
    return data


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Build a plan from parsed JSON, where an SNR point may be "clean"."""
    points = data.get("snr_points_db") if isinstance(data, dict) else None
    if isinstance(points, (list, tuple)):
        clean = [CLEAN_SNR_DB if s == "clean" else s for s in points]
        data = dict(data, snr_points_db=clean)
    return settings_from_dict(ExperimentPlan, data, "plan")


def load_plan(path) -> ExperimentPlan:
    return plan_from_dict(read_settings(path))
