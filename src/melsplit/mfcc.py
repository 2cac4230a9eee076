"""Cepstral feature extraction with single- or dual-channel mel filterbanks.

The pipeline is frame blocking, Hamming windowing, an FFT power spectrum, a
bank of triangular mel-spaced filters, log energies, and a cosine transform.
The single-channel variant runs one bank over the full 0-4 kHz band. The
dual-channel variant first splits the signal at 1 kHz (lowpass / bandpass)
and runs an independent bank per channel, so the narrow low band keeps its
own full filter resolution.

The stages pass plain arrays: frame_blocking returns the (L, N) frames and
build_filterbank the (P, K/2+1) weight matrix. Only the extractors' output,
FeatureMatrix, carries labels: its channel and source ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fir
from .errors import DimensionError, ParameterError
from .settings import check_fields
from .signal_io import AudioBuffer

CHANNEL_SINGLE = "single"
CHANNEL_ONE = "ch1"
CHANNEL_TWO = "ch2"

METHODS = ("single", "dual")

_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class ExtractionConfig:
    """Tunables for the feature pipeline; defaults suit 16 kHz input.

    Construction validates every field and raises ConfigError naming the
    first one that is out of range.
    """

    frame_len: int = 400
    frame_shift: int = 160
    fft_size: int = 512
    filters_single: int = 26
    filters_per_channel: int = 13
    num_coeffs: int = 12
    split_hz: float = 1000.0
    band_top_hz: float = 4000.0
    fir_taps: int = 101
    log_floor: float = _LOG_FLOOR

    def __post_init__(self):
        check_fields(
            ("frame_shift", self.frame_shift > 0, "must be positive"),
            ("frame_len", self.frame_len >= self.frame_shift, "must be >= frame_shift"),
            (
                "fft_size",
                self.fft_size >= 1 and self.fft_size & (self.fft_size - 1) == 0,
                "must be a power of two",
            ),
            ("fft_size", self.fft_size >= self.frame_len, "must be >= frame_len"),
            ("filters_single", self.filters_single >= 1, "must be >= 1"),
            ("filters_per_channel", self.filters_per_channel >= 1, "must be >= 1"),
            (
                "num_coeffs",
                1 <= self.num_coeffs <= min(self.filters_single, self.filters_per_channel),
                "must be between 1 and the smallest filter count",
            ),
            ("split_hz", 0 < self.split_hz < self.band_top_hz, "must lie in (0, band_top_hz)"),
            ("fir_taps", self.fir_taps % 2 == 1 and self.fir_taps >= 3, "must be odd and >= 3"),
            ("log_floor", self.log_floor > 0, "must be positive"),
        )


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame cepstral coefficient rows for one channel of one utterance."""

    rows: np.ndarray
    channel_id: str
    source_id: str = ""


def frame_blocking(buffer: AudioBuffer, frame_len_n: int, shift_m: int) -> np.ndarray:
    """Slice a buffer into overlapping frames of length N shifted by M.

    Returns an (L, N) array whose row l (0-based) holds samples
    [l*M, l*M + N); trailing samples that do not fill a frame are dropped.
    """
    n, m = int(frame_len_n), int(shift_m)
    if m <= 0 or n < m:
        raise ParameterError("need 0 < shift_m <= frame_len_n")
    if len(buffer) < n:
        raise DimensionError(
            f"buffer of {len(buffer)} samples is shorter than one frame ({n})"
        )
    count = (len(buffer) - n) // m + 1
    starts = np.arange(count) * m
    return buffer.samples[starts[:, None] + np.arange(n)[None, :]]


def hamming_window(frame: np.ndarray) -> np.ndarray:
    """Multiply a frame by the Hamming taper 0.54 - 0.46*cos(2*pi*n/(N-1))."""
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.shape[-1]
    if n < 2:
        raise ParameterError("frame must have at least 2 samples")
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    return frame * window


def fft_magnitude_sq(frame: np.ndarray, fft_size_k: int) -> np.ndarray:
    """|X(k)|^2 for k = 0..K/2 of the zero-padded frame, via numpy rfft."""
    k = int(fft_size_k)
    if k < 1 or k & (k - 1):
        raise ParameterError("fft_size_k must be a power of two")
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > k:
        raise DimensionError("frame longer than the FFT size")
    half = np.fft.rfft(frame, n=k)
    return half.real**2 + half.imag**2


def hz_to_mel(f_lin: float) -> float:
    """Perceptual mel value of a linear frequency: 2595*log10(1 + f/700)."""
    if np.any(np.asarray(f_lin) < 0):
        raise ParameterError("frequency must be non-negative")
    return 2595.0 * np.log10(1.0 + np.asarray(f_lin, dtype=np.float64) / 700.0)


def mel_to_hz(m: float) -> float:
    """Inverse mel mapping: 700*(10^(m/2595) - 1)."""
    if np.any(np.asarray(m) < 0):
        raise ParameterError("mel value must be non-negative")
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache
def build_filterbank(
    band_lo_hz: float,
    band_hi_hz: float,
    num_filters_p: int,
    fft_size_k: int,
    sample_rate_hz: int,
) -> np.ndarray:
    """Place P unit-peak triangles equally spaced in mel across a band.

    Returns a (P, K/2+1) weight matrix, one row per filter and one column
    per FFT power bin. P+2 boundary points are laid out on the mel axis,
    mapped back to Hz and then to FFT bins; filter m rises over
    [b(m-1), b(m)] to exactly 1.0 at bin b(m) and falls over
    [b(m), b(m+1)]. Adjacent triangles share boundaries, so between the
    first and last peak the rows sum to one. Raises if the band is too
    narrow for P distinct bins. Banks are memoized per argument tuple, so
    the returned matrix is shared and read-only.
    """
    p, k = int(num_filters_p), int(fft_size_k)
    if p < 1:
        raise ParameterError("need at least one filter")
    if not 0 <= band_lo_hz < band_hi_hz:
        raise ParameterError("need 0 <= band_lo_hz < band_hi_hz")
    if band_hi_hz > sample_rate_hz / 2.0:
        raise ParameterError("band_hi_hz must not exceed the Nyquist frequency")

    mel_edges = np.linspace(hz_to_mel(band_lo_hz), hz_to_mel(band_hi_hz), p + 2)
    hz_edges = mel_to_hz(mel_edges)
    bins = np.rint(hz_edges * k / sample_rate_hz).astype(int)
    if np.any(np.diff(bins) < 1):
        raise ParameterError(
            f"band [{band_lo_hz}, {band_hi_hz}] Hz too narrow for "
            f"{p} distinct filter boundaries at K={k}"
        )

    weights = np.zeros((p, k // 2 + 1))
    cols = np.arange(k // 2 + 1)
    for m in range(p):
        left, peak, right = bins[m], bins[m + 1], bins[m + 2]
        rising = (cols > left) & (cols <= peak)
        falling = (cols > peak) & (cols < right)
        weights[m, rising] = (cols[rising] - left) / (peak - left)
        weights[m, falling] = (right - cols[falling]) / (right - peak)
    weights.flags.writeable = False
    return weights


def log_mel_energies(
    power_spectrum: np.ndarray, bank: np.ndarray, floor: float = _LOG_FLOOR
) -> np.ndarray:
    """ln of each filter's weighted power sum, floored to keep the log finite.
    `bank` is a (P, K/2+1) weight matrix from build_filterbank."""
    power_spectrum = np.asarray(power_spectrum, dtype=np.float64)
    if power_spectrum.shape[-1] != bank.shape[1]:
        raise DimensionError(
            f"spectrum has {power_spectrum.shape[-1]} bins, bank expects {bank.shape[1]}"
        )
    energies = power_spectrum @ bank.T
    return np.log(np.maximum(energies, floor))


@lru_cache
def dct_basis(num_filters_p: int, num_coeffs: int) -> np.ndarray:
    """Cosine basis: entry (q, m) = cos((m+1)*(q+1/2)*pi/P), zero-based q, m.
    Memoized like build_filterbank; the returned array is read-only."""
    q = np.arange(1, num_coeffs + 1)[:, None]
    m = np.arange(1, num_filters_p + 1)[None, :]
    basis = np.cos(m * (q - 0.5) * np.pi / num_filters_p)
    basis.flags.writeable = False
    return basis


def dct_cepstra(log_energies: np.ndarray, num_coeffs: int) -> np.ndarray:
    """Project log energies onto the cosine basis, keeping Q coefficients."""
    log_energies = np.asarray(log_energies, dtype=np.float64)
    p = log_energies.shape[-1]
    if not 1 <= num_coeffs <= p:
        raise ParameterError("need 1 <= num_coeffs <= number of energies")
    return log_energies @ dct_basis(p, num_coeffs).T


def channel_bands(method: str, cfg: ExtractionConfig) -> dict[str, tuple[float, float, int]]:
    """The mel layout of an extraction method: {channel_id: (band_lo_hz,
    band_hi_hz, filters)}, in the order the channels are extracted."""
    if method == "single":
        return {CHANNEL_SINGLE: (0.0, cfg.band_top_hz, cfg.filters_single)}
    if method == "dual":
        return {
            CHANNEL_ONE: (0.0, cfg.split_hz, cfg.filters_per_channel),
            CHANNEL_TWO: (cfg.split_hz, cfg.band_top_hz, cfg.filters_per_channel),
        }
    raise ParameterError(f"method must be one of {METHODS}, got {method!r}")


def _extract_channels(
    signals: tuple[AudioBuffer, ...], method: str, cfg: ExtractionConfig, source_id: str
) -> tuple[FeatureMatrix, ...]:
    """Cepstra of each channel signal through its bank from channel_bands."""
    matrices = []
    for signal, (channel_id, (lo, hi, filters)) in zip(
        signals, channel_bands(method, cfg).items(), strict=True
    ):
        bank = build_filterbank(lo, hi, filters, cfg.fft_size, signal.sample_rate_hz)
        frames = frame_blocking(signal, cfg.frame_len, cfg.frame_shift)
        power = fft_magnitude_sq(hamming_window(frames), cfg.fft_size)
        energies = log_mel_energies(power, bank, cfg.log_floor)
        matrices.append(FeatureMatrix(dct_cepstra(energies, cfg.num_coeffs), channel_id, source_id))
    return tuple(matrices)


def extract_single_channel(
    buffer: AudioBuffer,
    cfg: ExtractionConfig = ExtractionConfig(),
    source_id: str = "",
) -> FeatureMatrix:
    """Full-band features: one mel bank spanning 0 to band_top_hz."""
    (features,) = _extract_channels((buffer,), "single", cfg, source_id)
    return features


def extract_dual_channel(
    buffer: AudioBuffer,
    cfg: ExtractionConfig = ExtractionConfig(),
    source_id: str = "",
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Band-split features: independent banks below and above split_hz.

    Channel 1 is the lowpassed signal with a bank over [0, split_hz];
    channel 2 is the bandpassed signal with a bank over [split_hz,
    band_top_hz]. The channels stay time-aligned, so row counts match.
    """
    signals = fir.split_channels(buffer, cfg.split_hz, cfg.band_top_hz, cfg.fir_taps)
    return _extract_channels(signals, "dual", cfg, source_id)
