"""Windowed-sinc FIR design and zero-phase filtering.

Kernels are odd-length, symmetric (linear phase). The dual-channel band
split sends everything below the split frequency to channel 1 via a lowpass
and the split-to-top band to channel 2 via a bandpass built as a difference
of lowpasses; mfcc folds both kernels into its spectrum matrix. Filtering
compensates the group delay so the output stays time-aligned with the
input. A kernel is its taps plus the sample rate they were designed for,
which filtering checks against the buffer's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .signal_io import AudioBuffer


@dataclass(frozen=True)
class FilterKernel:
    """Immutable odd-length FIR impulse response and its sample rate."""

    taps: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1 or len(taps) % 2 == 0:
            raise ParameterError("kernel taps must be a 1-D odd-length vector")
        object.__setattr__(self, "taps", taps)

    def __len__(self) -> int:
        return len(self.taps)


def _validate_design(cutoff_hz: float, num_taps: int, sample_rate_hz: int) -> None:
    if num_taps % 2 == 0 or num_taps < 3:
        raise ParameterError("num_taps must be odd and >= 3")
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ParameterError(
            f"cutoff {cutoff_hz} Hz must lie strictly inside (0, {sample_rate_hz / 2})"
        )


def _windowed_sinc(cutoff_hz: float, num_taps: int, sample_rate_hz: int) -> np.ndarray:
    """Hamming-windowed ideal lowpass, not yet gain-normalized."""
    omega0 = 2.0 * np.pi * cutoff_hz / sample_rate_hz
    mid = (num_taps - 1) // 2
    n = np.arange(num_taps) - mid
    taps = np.empty(num_taps)
    nonzero = n != 0
    taps[nonzero] = np.sin(omega0 * n[nonzero]) / (np.pi * n[nonzero])
    taps[~nonzero] = omega0 / np.pi
    return taps * np.hamming(num_taps)


def _amplitude_at(taps: np.ndarray, freq_hz: float, sample_rate_hz: int) -> float:
    """Zero-phase (real) amplitude of a symmetric kernel at one frequency."""
    mid = (len(taps) - 1) // 2
    n = np.arange(len(taps)) - mid
    return float(np.sum(taps * np.cos(2.0 * np.pi * freq_hz * n / sample_rate_hz)))


def design_lowpass(cutoff_hz: float, num_taps: int, sample_rate_hz: int) -> FilterKernel:
    """Windowed-sinc lowpass normalized to unit DC gain."""
    _validate_design(cutoff_hz, num_taps, sample_rate_hz)
    taps = _windowed_sinc(cutoff_hz, num_taps, sample_rate_hz)
    taps /= taps.sum()
    return FilterKernel(taps, sample_rate_hz)


def design_highpass(cutoff_hz: float, num_taps: int, sample_rate_hz: int) -> FilterKernel:
    """Spectral inversion of the lowpass, normalized to unit gain at Nyquist."""
    low = design_lowpass(cutoff_hz, num_taps, sample_rate_hz)
    taps = -low.taps
    taps[(num_taps - 1) // 2] += 1.0
    taps /= _amplitude_at(taps, sample_rate_hz / 2.0, sample_rate_hz)
    return FilterKernel(taps, sample_rate_hz)


def design_bandpass(
    low_hz: float, high_hz: float, num_taps: int, sample_rate_hz: int
) -> FilterKernel:
    """Difference of unit-DC lowpasses, unit gain at the geometric band center.

    Equal DC gains cancel exactly, so the kernel blocks DC; the passband is
    rescaled so the response at sqrt(low*high) is 1.
    """
    if not low_hz < high_hz:
        raise ParameterError("bandpass needs low_hz < high_hz")
    upper = design_lowpass(high_hz, num_taps, sample_rate_hz)
    lower = design_lowpass(low_hz, num_taps, sample_rate_hz)
    taps = upper.taps - lower.taps
    center = float(np.sqrt(low_hz * high_hz))
    taps /= _amplitude_at(taps, center, sample_rate_hz)
    return FilterKernel(taps, sample_rate_hz)


def filter_zero_phase(buffer: AudioBuffer, kernel: FilterKernel) -> AudioBuffer:
    """Convolve in "same" mode, which trims an odd kernel's group delay from
    both ends, so the output aligns with the input."""
    if buffer.sample_rate_hz != kernel.sample_rate_hz:
        raise ParameterError("buffer and kernel sample rates differ")
    if len(buffer) <= len(kernel):
        raise DimensionError(
            f"buffer ({len(buffer)}) must be longer than the kernel ({len(kernel)})"
        )
    same = np.convolve(buffer.samples, kernel.taps, mode="same")
    return AudioBuffer(same, buffer.sample_rate_hz)


def export_taps_csv(kernel: FilterKernel, path) -> None:
    """Dump tap coefficients for inspection: columns index, coefficient."""
    lines = ["index,coefficient"]
    lines += [f"{i},{c!r}" for i, c in enumerate(kernel.taps)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
