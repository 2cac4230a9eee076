"""SNR sweep benchmark over the synthetic word-sample corpus.

The sweep crosses extraction method (single/dual channel) with noise
cancellation (off/on) over a list of SNR points and tallies identification
accuracy per cell from a fixed set of genuine and impostor trial pairs. The
decision threshold is calibrated once per method on a clean, disjoint word
split and frozen, so accuracy falls as noise grows instead of being
re-absorbed by recalibration. Everything is a pure function of the plan,
the corpus, and the master seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .anc import LmsConfig, run_anc
from .cluster import ConfusionCounts, accuracy, calibrate_threshold, confusion, verdict
from .errors import ConfigError, ParameterError
from .mfcc import METHODS, ExtractionConfig, _check_fields
from .mfcc import extract_dual_channel, extract_single_channel
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


def check_shared_fields(
    sample_rate_hz: int, band_top_hz: float, anc_taps: int, kmeans_k: int
) -> None:
    """Checks common to ExperimentPlan and the CLI's PipelineConfig."""
    _check_fields(
        ("sample_rate_hz", sample_rate_hz > 0, "must be positive"),
        (
            "band_top_hz",
            band_top_hz < sample_rate_hz / 2,
            f"must be below the Nyquist frequency ({sample_rate_hz / 2:g} Hz)",
        ),
        ("anc_taps", anc_taps >= 0, "must be >= 0"),
        ("kmeans_k", kmeans_k >= 1, "must be >= 1"),
    )


def read_settings(path):
    """Parse a JSON settings file (a pipeline config or an experiment plan)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def _json_matches(value, hint) -> bool:
    """Whether a parsed JSON value has the type a dataclass field annotates."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_json_matches(value, arg) for arg in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_json_matches(v, args[0]) for v in value)
    if isinstance(value, bool):  # JSON true/false is not a number
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def settings_from_dict(cls, data, what: str):
    """Build settings dataclass `cls` from parsed JSON, checking each value's
    type against its field's annotation; a nested dataclass field takes an
    object built the same way. Raises ConfigError naming the field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        hint = hints[name]
        if is_dataclass(hint):
            kwargs[name] = settings_from_dict(hint, value, name)
        elif _json_matches(value, hint):
            kwargs[name] = value
        else:
            type_name = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{what} field {name}: expected {type_name}, got {value!r}")
    return cls(**kwargs)


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
    anc_mu: float | None = None
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
        if len(set(self.snr_points_db)) != len(self.snr_points_db):
            raise ConfigError("snr_points_db must be distinct")
        bad = set(self.methods) - set(METHODS)
        if bad or not self.methods:
            raise ConfigError(f"methods must be a non-empty subset of {METHODS}")
        bad = set(self.anc) - set(ANC_MODES)
        if bad or not self.anc:
            raise ConfigError(f"anc must be a non-empty subset of {ANC_MODES}")
        if self.profiles < 2:
            raise ConfigError("need at least 2 profiles for impostor trials")
        if not 1 <= self.calib_words < self.words:
            raise ConfigError("calib_words must leave at least one trial word")
        if self.anc_lead_s < 0:
            raise ConfigError("anc_lead_s must be >= 0")
        check_shared_fields(
            self.sample_rate_hz, self.extraction.band_top_hz, self.anc_taps, self.kmeans_k
        )
        _check_fields(
            ("anc_mu", self.anc_mu is None or self.anc_mu > 0, "must be positive"),
            ("anc_mu_fraction", self.anc_mu_fraction > 0, "must be positive"),
        )


@dataclass(frozen=True)
class CellResult:
    """Accuracy of one (method, anc, snr) condition."""

    method: str
    anc: str
    snr_db: float
    counts: ConfusionCounts
    accuracy: float
    wall_time_s: float


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
class _Utterance:
    profile_id: int
    word_id: int
    replicate: int
    seed: int
    buffer: AudioBuffer

    @property
    def uid(self) -> str:
        return f"p{self.profile_id}.w{self.word_id}.r{self.replicate}"


@dataclass(frozen=True)
class _TrialPair:
    test: tuple[int, int]
    ref: tuple[int, int]
    genuine: bool


def _build_corpus(plan: ExperimentPlan) -> tuple[dict, str]:
    """Synthesize the corpus in memory, or load it from a manifest.

    Returns ({(profile, word, replicate): _Utterance}, digest). A benchmark
    corpus needs two replicates per (profile, word): the first (lowest seed)
    is the enrolled reference, the second the test recording.
    """
    corpus: dict[tuple[int, int, int], _Utterance] = {}
    if plan.corpus is None:
        for p in range(plan.profiles):
            for w in range(plan.words):
                for r in (0, 1):
                    seed = corpus_seed(plan.master_seed, p, w, r)
                    buffer = synth_speaker(
                        p, w, plan.duration_s, seed, plan.sample_rate_hz
                    )
                    corpus[(p, w, r)] = _Utterance(p, w, r, seed, buffer)
        blob = json.dumps(
            {
                "profiles": plan.profiles,
                "words": plan.words,
                "duration_s": plan.duration_s,
                "sample_rate_hz": plan.sample_rate_hz,
                "seeds": [u.seed for u in corpus.values()],
            },
            sort_keys=True,
        ).encode()
        return corpus, hashlib.sha256(blob).hexdigest()

    manifest_path = Path(plan.corpus)
    if not manifest_path.exists():
        raise ConfigError(f"corpus manifest not found: {manifest_path}")
    entries = read_manifest(manifest_path)
    groups: dict[tuple[int, int], list[dict]] = {}
    for e in entries:
        groups.setdefault((int(e["profile_id"]), int(e["word_id"])), []).append(e)
    for (p, w), group in sorted(groups.items()):
        if len(group) < 2:
            raise ConfigError(
                f"corpus needs >= 2 replicates per (profile, word); "
                f"profile {p} word {w} has {len(group)}"
            )
        group.sort(key=lambda e: int(e["seed"]))
        for r, e in enumerate(group[:2]):
            wav_path = Path(e["path"])
            if not wav_path.is_absolute():
                wav_path = manifest_path.parent / wav_path
            buffer = read_wav(wav_path)
            if not np.any(buffer.samples):
                raise ConfigError(f"corpus entry {wav_path} (profile {p}, word {w}) is silent")
            corpus[(p, w, r)] = _Utterance(p, w, r, int(e["seed"]), buffer)
    return corpus, hashlib.sha256(manifest_path.read_bytes()).hexdigest()


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


def _features(buffer: AudioBuffer, method: str, cfg: ExtractionConfig, source_id: str):
    """One take's feature matrices, keyed by channel_id."""
    if method == "dual":
        matrices = extract_dual_channel(buffer, cfg, source_id)
    else:
        matrices = (extract_single_channel(buffer, cfg, source_id),)
    return {fm.channel_id: fm for fm in matrices}


def _auto_mu(plan: ExperimentPlan, reference: AudioBuffer) -> float:
    """Step size targeting a fixed misadjustment against the reference power."""
    if plan.anc_mu is not None:
        return plan.anc_mu
    power = float(np.mean(reference.samples**2))
    return plan.anc_mu_fraction / ((plan.anc_taps + 1) * power)


@dataclass(frozen=True)
class _MixedSignals:
    """One test utterance's noisy take plus the canceller's extended view.

    primary_ext and reference_ext carry a noise-only lead-in ahead of the
    word so the adaptive filter converges before speech starts; the lead-in
    is trimmed after cancellation. The utterance portion of the noise is
    bit-identical to the ANC-off cell's.
    """

    noisy: AudioBuffer
    primary_ext: AudioBuffer
    reference_ext: AudioBuffer


def _mix_with_lead(plan: ExperimentPlan, utt: _Utterance, snr_db: float) -> _MixedSignals:
    clean = utt.buffer
    rate = clean.sample_rate_hz
    n = len(clean)
    lead = int(round(plan.anc_lead_s * rate))
    seed = corpus_seed(plan.master_seed, utt.profile_id, utt.word_id, 0xA01E)
    rng = np.random.default_rng(_entropy(seed))
    unit = rng.standard_normal(n + lead)
    scale = noise_scale(float(np.mean(clean.samples**2)), unit[:n], snr_db)
    noisy = AudioBuffer(clean.samples + scale * unit[:n], rate)
    primary = AudioBuffer(
        np.concatenate([scale * unit[n:], noisy.samples]), rate
    )
    reference = AudioBuffer(scale * np.concatenate([unit[n:], unit[:n]]), rate)
    return _MixedSignals(noisy, primary, reference)


def _score_pairs(
    takes: dict, pairs: list[_TrialPair], method: str, ref_feats: dict, plan: ExperimentPlan
) -> tuple[list[float], list[float]]:
    """Score each pair's test take (from `takes`, extracted once) against its
    reference. Returns (genuine_scores, impostor_scores); verdict's
    threshold does not affect a score."""
    feats = {
        key: _features(utt.buffer, method, plan.extraction, utt.uid)
        for key, utt in takes.items()
    }
    scores: dict[bool, list[float]] = {True: [], False: []}
    for pair in pairs:
        v = verdict(feats[pair.test], ref_feats[pair.ref], plan.kmeans_k, 0.0, plan.master_seed)
        scores[pair.genuine].append(v.score)
    return scores[True], scores[False]


def run_sweep(plan: ExperimentPlan) -> SweepReport:
    """Evaluate every (method, anc, snr) cell of the plan.

    Noise realizations and trial pairs are fixed per master seed and shared
    across cells, so conditions differ only in the treatment under test.
    """
    corpus, digest = _build_corpus(plan)
    profile_ids = sorted({key[0] for key in corpus})
    word_ids = sorted({key[1] for key in corpus})
    if len(word_ids) <= plan.calib_words:
        raise ConfigError("corpus has too few words for the calibration split")
    calib_words = word_ids[-plan.calib_words :]
    trial_words = word_ids[: -plan.calib_words]

    pair_rng = np.random.default_rng(_entropy(plan.master_seed, 0xBA1A))
    pairs = _make_pairs(profile_ids, trial_words, plan.trials, pair_rng)
    calib_pairs = _calibration_pairs(profile_ids, calib_words)

    cfg = plan.extraction
    ref_feats = {
        method: {
            (p, w): _features(corpus[(p, w, 0)].buffer, method, cfg, corpus[(p, w, 0)].uid)
            for p in profile_ids
            for w in word_ids
        }
        for method in plan.methods
    }

    # Per-method threshold from clean calibration words, frozen for the sweep.
    calib_takes = {pair.test: corpus[pair.test + (1,)] for pair in calib_pairs}
    thresholds = {
        m: calibrate_threshold(*_score_pairs(calib_takes, calib_pairs, m, ref_feats[m], plan))
        for m in plan.methods
    }

    clean_takes = {key: corpus[key + (1,)] for key in sorted({pair.test for pair in pairs})}
    cells: list[CellResult] = []
    for snr_db in plan.snr_points_db:
        mixed = {}
        if snr_db != CLEAN_SNR_DB:
            mixed = {key: _mix_with_lead(plan, utt, snr_db) for key, utt in clean_takes.items()}
        for anc_mode in plan.anc:
            takes = dict(clean_takes)
            for key, m in mixed.items():
                buffer = m.noisy
                if anc_mode == "on":
                    config = LmsConfig(plan.anc_taps, _auto_mu(plan, m.reference_ext))
                    denoised = run_anc(m.primary_ext, m.reference_ext, config).error_signal
                    trimmed = denoised.samples[len(m.primary_ext) - len(m.noisy) :]
                    buffer = AudioBuffer(trimmed, m.noisy.sample_rate_hz)
                takes[key] = replace(takes[key], buffer=buffer)
            for method in plan.methods:
                start = time.perf_counter()
                scores = _score_pairs(takes, pairs, method, ref_feats[method], plan)
                counts = confusion(*scores, thresholds[method])
                elapsed = time.perf_counter() - start
                cells.append(
                    CellResult(method, anc_mode, snr_db, counts, accuracy(counts), elapsed)
                )

    cells.sort(key=lambda c: (c.method, c.anc, c.snr_db))
    echo = plan_to_dict(plan)
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


def report_to_dict(report: SweepReport, include_timing: bool = True) -> dict:
    cells = []
    for c in report.cells:
        cell = {
            "method": c.method,
            "anc": c.anc,
            "snr_db": c.snr_db,
            "tp": c.counts.tp,
            "tn": c.counts.tn,
            "fp": c.counts.fp,
            "fn": c.counts.fn,
            "accuracy": c.accuracy,
        }
        if include_timing:
            cell["wall_time_s"] = c.wall_time_s
        cells.append(cell)
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
