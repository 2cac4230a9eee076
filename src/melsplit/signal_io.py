"""Audio I/O, synthetic word samples, and SNR-controlled noise mixing.

Everything downstream consumes :class:`AudioBuffer`. WAV support is
deliberately narrow: RIFF/WAVE, PCM, 16-bit little-endian, mono. Synthetic
word samples stand in for recorded speech; each one is a deterministic
function of (profile_id, word_id, duration, seed).
"""

from __future__ import annotations

import hashlib
import json
import wave
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    ParameterError,
    UndefinedSnrError,
    UnsupportedFormatError,
)

PCM_FULL_SCALE = 32768.0
DEFAULT_SAMPLE_RATE = 16000

_SEED_MASK = (1 << 64) - 1


def _entropy(*values: int) -> list[int]:
    """Build a SeedSequence entropy list from possibly-negative ints."""
    return [int(v) & _SEED_MASK for v in values]


def _derive_seed(*values: int) -> int:
    """One 64-bit seed, the first word a SeedSequence of these ints generates."""
    seq = np.random.SeedSequence(_entropy(*values))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _string_key(text: str) -> int:
    """Stable 64-bit key for a string (process-independent)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class AudioBuffer:
    """Mono sample sequence with its sample rate.

    Samples are float64, nominally in [-1, 1]. Buffers are immutable;
    operations return new buffers.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ParameterError("AudioBuffer samples must be one-dimensional")
        if int(self.sample_rate_hz) <= 0:
            raise ParameterError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz


@dataclass(frozen=True)
class NoiseSpec:
    """How to contaminate a clean buffer.

    kind "white-gaussian" draws seeded Gaussian noise; kind "recorded" loops
    or truncates a user-supplied noise buffer to length. Identical
    (kind, target_snr_db, seed, clean input, noise source) reproduce
    bit-identical output.
    """

    kind: str
    target_snr_db: float
    seed: int
    noise: AudioBuffer | None = None

    def __post_init__(self):
        if self.kind not in ("white-gaussian", "recorded"):
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.kind == "recorded" and self.noise is None:
            raise ParameterError("recorded noise kind needs a noise buffer")
        if not self.target_snr_db > -np.inf:
            raise ParameterError(
                f"target_snr_db must be a number above -inf, got {self.target_snr_db}"
            )


def read_wav(path) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file into a buffer scaled to [-1, 1].

    Raises FormatError for malformed files, UnsupportedFormatError for
    stereo or non-16-bit data (no silent downmix).
    """
    try:
        with wave.open(str(path), "rb") as reader:
            channels = reader.getnchannels()
            sample_width = reader.getsampwidth()
            comp_type = reader.getcomptype()
            rate = reader.getframerate()
            n_frames = reader.getnframes()
            payload = reader.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    if comp_type != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed WAV ({comp_type}) not supported")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if sample_width != 2:
        raise UnsupportedFormatError(
            f"{path}: expected 16-bit PCM, got {8 * sample_width}-bit"
        )
    ints = np.frombuffer(payload, dtype="<i2")
    return AudioBuffer(ints.astype(np.float64) / PCM_FULL_SCALE, rate)


def write_wav(buffer: AudioBuffer, path) -> int:
    """Write a buffer as mono 16-bit PCM. Returns the number of clipped samples.

    Samples outside [-1, 1] are clipped to full scale; the count of such
    samples is the return value so callers can report it.
    """
    samples = buffer.samples
    if not np.all(np.isfinite(samples)):
        raise ParameterError("cannot write non-finite samples")
    clip_count = int(np.count_nonzero((samples < -1.0) | (samples > 1.0)))
    scaled = np.rint(np.clip(samples, -1.0, 1.0) * PCM_FULL_SCALE)
    ints = np.clip(scaled, -32768, 32767).astype("<i2")
    try:
        with wave.open(str(path), "wb") as writer:
            writer.setnchannels(1)
            writer.setsampwidth(2)
            writer.setframerate(buffer.sample_rate_hz)
            writer.writeframes(ints.tobytes())
    except wave.Error as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return clip_count


def measure_snr_db(clean: AudioBuffer, noisy: AudioBuffer) -> float:
    """Power SNR in dB of `noisy` against the `clean` reference.

    Returns 10*log10(mean(clean^2) / mean((noisy-clean)^2)); +inf when the
    two buffers are identical.
    """
    if len(clean) != len(noisy):
        raise DimensionError(
            f"length mismatch: clean {len(clean)} vs noisy {len(noisy)}"
        )
    if clean.sample_rate_hz != noisy.sample_rate_hz:
        raise DimensionError("sample rate mismatch")
    if len(clean) == 0:
        raise DimensionError("empty buffers")
    clean_power = float(np.mean(clean.samples**2))
    if clean_power == 0.0:
        raise UndefinedSnrError("clean signal has zero power")
    noise_power = float(np.mean((noisy.samples - clean.samples) ** 2))
    if noise_power == 0.0:
        return float("inf")
    return 10.0 * np.log10(clean_power / noise_power)


def noise_scale(clean_power: float, unit_power: float, snr_db: float) -> float:
    """Gain g such that g * unit sits at `snr_db` against a signal of `clean_power`,
    where `unit_power` is the mean square of the noise source `unit`.

    A zero-power noise source cannot reach any finite SNR and raises.
    """
    if unit_power == 0.0:
        raise UndefinedSnrError("noise source has zero power")
    return np.sqrt(clean_power / (unit_power * 10.0 ** (snr_db / 10.0)))


def mix_at_snr(clean: AudioBuffer, spec: NoiseSpec) -> tuple[AudioBuffer, AudioBuffer]:
    """Add noise so the mixture hits `spec.target_snr_db` against `clean`.

    Returns (noisy, noise_only). noise_only is computed as noisy - clean so
    the decomposition is exact sample-wise; it doubles as the reference
    input for adaptive noise cancellation.
    """
    if len(clean) == 0:
        raise DimensionError("empty clean buffer")
    clean_power = float(np.mean(clean.samples**2))
    if clean_power == 0.0:
        raise UndefinedSnrError("cannot hit a target SNR against zero-power clean input")

    if spec.kind == "white-gaussian":
        rng = np.random.default_rng(_entropy(spec.seed))
        unit = rng.standard_normal(len(clean))
    else:
        source = spec.noise
        if source.sample_rate_hz != clean.sample_rate_hz:
            raise DimensionError("recorded noise sample rate differs from clean input")
        if len(source) == 0:
            raise UndefinedSnrError("recorded noise buffer is empty")
        reps = -(-len(clean) // len(source))
        unit = np.tile(source.samples, reps)[: len(clean)]

    scale = noise_scale(clean_power, float(np.mean(unit**2)), spec.target_snr_db)
    noisy_samples = clean.samples + scale * unit
    noisy = AudioBuffer(noisy_samples, clean.sample_rate_hz)
    noise_only = AudioBuffer(noisy_samples - clean.samples, clean.sample_rate_hz)
    return noisy, noise_only


# Synthetic word samples. A profile fixes the voice: the fundamental
# frequency, three resonant bands (formants) that shape a harmonic stack,
# the source rolloff, and the level and spectral shape of a breath floor.
# A word fixes the temporal pattern: two vowel-like segments with different
# resonance gains, an envelope with a consonant-like gap, and a pitch
# glide. The seed adds small jitter so repeated takes of the same word
# differ like separate recordings.


def _frozen(params: dict) -> Mapping:
    """A read-only view of `params` whose arrays are read-only too."""
    for value in params.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return MappingProxyType(params)


@lru_cache
def _profile_params(profile_id: int) -> Mapping:
    """A profile's voice traits, memoized; the mapping and its arrays are read-only."""
    rng = np.random.default_rng(_entropy(0x9F0F11E, profile_id))
    params = {
        "f0": 90.0 + 130.0 * rng.random(),
        "formants": np.array(
            [
                320.0 + 560.0 * rng.random(),
                1000.0 + 1000.0 * rng.random(),
                2300.0 + 1100.0 * rng.random(),
            ]
        ),
        "bw_factor": 0.8 + 0.5 * rng.random(),
        "source_slope": 0.6 + 0.7 * rng.random(),
        "breath": 0.5 + 0.4 * rng.random(),
        "breath_knee_hz": 600.0 * 3.0 ** rng.random(),
        "breath_slope": 0.8 + 0.6 * rng.random(),
    }
    return _frozen(params)


@lru_cache
def _word_params(word_id: int) -> Mapping:
    """A word's temporal pattern, memoized like _profile_params."""
    rng = np.random.default_rng(_entropy(0x77D0, word_id))
    # Two vowel-like segments, each a triple of resonance gains (F1, F2, F3).
    gains_a = np.array([1.0, 0.4 + 0.3 * rng.random(), 0.2 + 0.2 * rng.random()])
    gains_b = np.array([0.5 + 0.3 * rng.random(), 1.0, 0.3 + 0.3 * rng.random()])
    params = {
        "split": 0.38 + 0.24 * rng.random(),
        "gains_a": gains_a,
        "gains_b": gains_b,
        "glide": 0.96 + 0.08 * rng.random(),
        "gap_depth": 0.25 + 0.4 * rng.random(),
        "attack": 0.04 + 0.04 * rng.random(),
        "decay": 0.06 + 0.06 * rng.random(),
        "breath_gain": 0.55 + 0.9 * rng.random(),
    }
    return _frozen(params)


def _resonance_envelope(freqs, formants, gains, bw_factor):
    """Sum of Lorentzian resonance bumps over a small flat floor."""
    env = np.full(np.shape(freqs), 0.12)
    for center, gain in zip(formants, gains):
        bandwidth = bw_factor * (60.0 + 0.055 * center)
        env = env + gain / (1.0 + ((freqs - center) / bandwidth) ** 2)
    return env


def _harmonic_stack(base_phase, phases, amps_a, amps_b, blend):
    """Blend of two harmonic stacks on one fundamental phase track.

    Returns ``(1 - blend) * A + blend * B`` with
    ``A = sum_h amps_a[h-1] * sin(h * base_phase + phases[h-1])`` and B the
    same over ``amps_b``, for h = 1..H, where blend lies in [0, 1]. Each sum
    is ``Im(sum_h c_h * r**h)`` with ``r = cos(base_phase) + 1j *
    sin(base_phase)`` and ``c_h = amps[h-1] * exp(1j * phases[h-1])``,
    evaluated by Horner's rule: H complex multiply-adds per sample and no
    (H, n) table. A is evaluated only up to the last sample where blend < 1
    and B only from the first where blend > 0. Before B's span blend is 0
    and the result is A; past A's span it is 1 and the result is B; the
    formula runs only where the spans overlap, so every sample equals the
    formula's.
    """
    n = len(base_phase)
    rotor = np.empty(n, dtype=complex)
    np.cos(base_phase, out=rotor.real)
    np.sin(base_phase, out=rotor.imag)
    coeffs = np.stack([amps_a, amps_b]) * np.exp(1j * phases)
    below, above = np.flatnonzero(blend < 1.0), np.flatnonzero(blend > 0.0)
    a_stop = below[-1] + 1 if len(below) else 0
    b_start = above[0] if len(above) else n

    def horner(row, span):
        r = rotor[span]
        acc = coeffs[row, -1] * r
        for c in coeffs[row, -2::-1]:
            acc += c
            acc *= r
        return acc.imag

    a, b = horner(0, slice(0, a_stop)), horner(1, slice(b_start, n))
    out = np.empty(n)
    out[:b_start] = a[:b_start]
    out[a_stop:] = b[a_stop - b_start :]
    weight = blend[b_start:a_stop]
    out[b_start:a_stop] = (1.0 - weight) * a[b_start:] + weight * b[: a_stop - b_start]
    return out


def synth_speaker(
    profile_id: int,
    word_id: int,
    duration_s: float,
    seed: int,
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE,
) -> AudioBuffer:
    """Deterministic multi-formant word sample.

    A harmonic stack on a profile-specific fundamental (90-220 Hz) is shaped
    by three profile-specific resonant bands (centers within 300-3500 Hz)
    whose gains shift between two vowel-like segments of the word; a shaped
    breath floor fills the rest of the band. Distinct profiles are separable
    in cepstral-feature space; two seeds of the same (profile, word) are
    near neighbours. The segments' stacks are blended across a ramp;
    before it only the first stack is evaluated and after it only the
    second (see _harmonic_stack).
    """
    if not 0 < duration_s < np.inf:
        raise ParameterError(f"duration_s must be finite and positive, got {duration_s}")
    n = int(round(duration_s * sample_rate_hz))
    if n < 2:
        raise ParameterError("duration too short for the sample rate")

    prof = _profile_params(profile_id)
    word = _word_params(word_id)
    rng = np.random.default_rng(_entropy(seed, profile_id, word_id, 0x5EED))

    f0 = prof["f0"] * (1.0 + 0.01 * (2.0 * rng.random() - 1.0))
    formants = prof["formants"] * (1.0 + 0.01 * (2.0 * rng.random(3) - 1.0))
    gains_a = word["gains_a"] * (1.0 + 0.08 * (2.0 * rng.random(3) - 1.0))
    gains_b = word["gains_b"] * (1.0 + 0.08 * (2.0 * rng.random(3) - 1.0))
    split = float(np.clip(word["split"] + 0.02 * (2.0 * rng.random() - 1.0), 0.2, 0.8))

    # Harmonic stack: phase-locked overtones of the glided fundamental,
    # kept clear of the 4 kHz band edge.
    num_harmonics = max(1, int(3800.0 / f0))
    harmonic_numbers = np.arange(1, num_harmonics + 1)
    phases = 2.0 * np.pi * rng.random(num_harmonics)

    glide = np.linspace(1.0, word["glide"], n)
    base_phase = 2.0 * np.pi * np.cumsum(f0 * glide) / sample_rate_hz

    # Source rolloff times the resonance envelope of each segment gives the
    # per-harmonic amplitude; a raised-cosine blend moves between segments.
    # Each segment's stack is summed as a polynomial in the phase rotor
    # exp(1j * base_phase) by Horner's rule (see _harmonic_stack).
    harmonic_freqs = harmonic_numbers * f0
    source = harmonic_numbers ** (-prof["source_slope"])
    amps_a = source * _resonance_envelope(harmonic_freqs, formants, gains_a, prof["bw_factor"])
    amps_b = source * _resonance_envelope(harmonic_freqs, formants, gains_b, prof["bw_factor"])

    edge = split * n
    ramp_halfwidth = max(2.0, 0.04 * n)
    # The clip makes the raised cosine exactly 0 before the ramp and 1 after it.
    ramp = np.clip((np.arange(n) - edge) / (2.0 * ramp_halfwidth) + 0.5, 0.0, 1.0)
    blend = 0.5 - 0.5 * np.cos(np.pi * ramp)
    signal = _harmonic_stack(base_phase, phases, amps_a, amps_b, blend)

    # Envelope: raised-cosine attack and decay with a dip at the segment
    # boundary (a consonant-like gap).
    envelope = np.ones(n)
    attack = max(2, int(word["attack"] * n))
    decay = max(2, int(word["decay"] * n))
    envelope[:attack] = 0.5 - 0.5 * np.cos(np.pi * np.arange(attack) / attack)
    envelope[n - decay :] = 0.5 + 0.5 * np.cos(np.pi * np.arange(decay) / decay)
    gap = np.exp(-0.5 * ((np.arange(n) - edge) / ramp_halfwidth) ** 2)
    envelope *= 1.0 - word["gap_depth"] * gap

    signal *= envelope
    # Breath floor under the harmonics, so the spectrum has no empty bands.
    # Its level and spectral shape (knee, rolloff) are voice traits too.
    tonal_rms = float(np.sqrt(np.mean(signal**2)))
    breath_level = prof["breath"] * word["breath_gain"]
    knee = prof["breath_knee_hz"] * (1.0 + 0.02 * (2.0 * rng.random() - 1.0))
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate_hz)
    spectrum /= np.sqrt(1.0 + (freqs / knee) ** 2) ** prof["breath_slope"]
    breath = np.fft.irfft(spectrum, n) * envelope
    breath_rms = float(np.sqrt(np.mean(breath**2)))
    if breath_rms > 0:
        signal += breath * (breath_level * tonal_rms / breath_rms)

    peak = float(np.max(np.abs(signal)))
    if peak > 0:
        signal *= 0.7 / peak
    return AudioBuffer(signal, sample_rate_hz)


def corpus_seed(master_seed: int, profile_id: int, word_id: int, replicate: int) -> int:
    """Derive one utterance's synthesis seed from a corpus master seed."""
    return _derive_seed(master_seed, profile_id, word_id, replicate)


def write_manifest(entries: list[dict], path) -> None:
    """Write a corpus manifest: JSON array of {profile_id, word_id, seed, path}."""
    ordered = [
        {
            "profile_id": int(e["profile_id"]),
            "word_id": int(e["word_id"]),
            "seed": int(e["seed"]),
            "path": str(e["path"]),
        }
        for e in entries
    ]
    Path(path).write_text(json.dumps(ordered, indent=2) + "\n", encoding="utf-8")


def read_manifest(path) -> list[dict]:
    """Read a corpus manifest written by :func:`write_manifest`.

    Each entry must be an object with integer profile_id, word_id and seed
    and a string path; a FormatError names the first entry and field that
    are not.
    """
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest must be a JSON array")
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise FormatError(f"{path}: manifest entry {i} must be a JSON object, got {e!r}")
        missing = {"profile_id", "word_id", "seed", "path"} - set(e)
        if missing:
            raise FormatError(f"{path}: manifest entry {i} missing {sorted(missing)}")
        for name in ("profile_id", "word_id", "seed"):
            if not isinstance(e[name], int) or isinstance(e[name], bool):
                raise FormatError(
                    f"{path}: manifest entry {i} field {name} must be an integer, "
                    f"got {e[name]!r}"
                )
        if not isinstance(e["path"], str):
            raise FormatError(
                f"{path}: manifest entry {i} field path must be a string, got {e['path']!r}"
            )
    return entries
