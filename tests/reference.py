"""Reference implementations that only the tests call.

The package never needs these. The sweep mixes noise at the spectra stage
and never forms a noisy take, and the CLI only reads config files. The
staged extraction path (frame_blocking, the window, fft_magnitude_sq, and
for dual split_channels first) and the scalar LMS recursion (lms_step) are
the oracles that the package's folded spectrum matrix and both of its LMS
kernels are compared against. The tests compare the package against them,
or use them to write fixtures.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from melsplit.bench import CLEAN_SNR_DB
from melsplit.cli import PipelineConfig
from melsplit.errors import DimensionError, DivergenceError, ParameterError
from melsplit.fir import design_bandpass, design_lowpass, filter_zero_phase
from melsplit.mfcc import _frame_count
from melsplit.signal_io import AudioBuffer, noise_scale


def stack_takes(plan, stacks, read, snr_db: float) -> dict:
    """{key: AudioBuffer} of every take of bench._noise_stacks's `stacks`,
    read through its `read`, at `snr_db`: a copy of the clean take at the
    clean point, else clean + c * u, the ANC-off take, or, once
    bench._cancel_stacks has cancelled the stacks, the ANC-on take. The
    time-domain reference for the sweep's spectra-level mixing."""
    takes = {}
    for key in (key for keys, _, _ in stacks for key in keys):
        a, u, clean_power, unit_power = read(key)
        if snr_db == CLEAN_SNR_DB:
            mixed = a.copy()
        else:
            mixed = a + noise_scale(clean_power, unit_power, snr_db) * u
        takes[key] = AudioBuffer(mixed, plan.sample_rate_hz)
    return takes


def save_config(cfg: PipelineConfig, path) -> None:
    """Write `cfg` as the JSON that cli.load_config reads."""
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def split_channels(
    buffer: AudioBuffer, split_hz: float = 1000.0, top_hz: float = 4000.0, num_taps: int = 101
) -> tuple[AudioBuffer, AudioBuffer]:
    """Split into channel 1 (below split_hz) and channel 2 (split_hz..top_hz)
    by the zero-phase lowpass and bandpass that mfcc._spectrum_operator
    folds into the dual channels' spectrum matrix."""
    if not split_hz < top_hz:
        raise ParameterError("split_hz must be below top_hz")
    if not top_hz < buffer.sample_rate_hz / 2.0:
        raise ParameterError("top_hz must be below the Nyquist frequency")
    lowpass = design_lowpass(split_hz, num_taps, buffer.sample_rate_hz)
    bandpass = design_bandpass(split_hz, top_hz, num_taps, buffer.sample_rate_hz)
    return filter_zero_phase(buffer, lowpass), filter_zero_phase(buffer, bandpass)


def frame_blocking(buffer: AudioBuffer, frame_len_n: int, shift_m: int) -> np.ndarray:
    """Slice a buffer into overlapping frames of length N shifted by M.

    Returns an (L, N) array whose row l (0-based) holds samples
    [l*M, l*M + N); trailing samples that do not fill a frame are dropped.
    """
    n, m = int(frame_len_n), int(shift_m)
    starts = np.arange(_frame_count(len(buffer), n, m)) * m
    return buffer.samples[starts[:, None] + np.arange(n)[None, :]]


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


@dataclass
class LmsState:
    """Weights plus the most recent reference samples, newest first."""

    weights: np.ndarray
    delay_line: np.ndarray
    k: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.delay_line = np.asarray(self.delay_line, dtype=np.float64)
        if self.weights.shape != self.delay_line.shape:
            raise DimensionError("weights and delay line must have equal length")


def lms_step(
    state: LmsState, d_k: float, x_k: float, mu: float
) -> tuple[LmsState, float, float]:
    """One LMS iteration.

    Pushes x_k into the delay line, forms the combiner output y_k, the error
    e_k = d_k - y_k, and updates the weights by 2*mu*e_k along the delay
    line. Returns (new state, e_k, y_k).
    """
    if not mu > 0:
        raise ParameterError("mu must be positive")
    delay = np.empty_like(state.delay_line)
    delay[0] = x_k
    delay[1:] = state.delay_line[:-1]
    y_k = float(np.dot(state.weights, delay))
    e_k = d_k - y_k
    weights = state.weights + (2.0 * mu * e_k) * delay
    if not np.all(np.isfinite(weights)):
        raise DivergenceError(state.k)
    return LmsState(weights, delay, state.k + 1), e_k, y_k
