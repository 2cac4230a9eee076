"""Cepstral feature extraction with single- or dual-channel mel filterbanks.

The pipeline is frame blocking, Hamming windowing, an FFT power spectrum, a
bank of triangular mel-spaced filters, log energies, and a cosine transform.
The single-channel variant runs one bank over the full 0-4 kHz band. The
dual-channel variant first splits the signal at 1 kHz (lowpass / bandpass)
and runs an independent bank per channel, so the narrow low band keeps its
own full filter resolution.

The stages pass plain arrays: frame_blocking returns the (L, N) frames,
build_filterbank the (P, K/2+1) weight matrix, and extraction a dict of
cepstral row arrays keyed by channel id. Nothing here names a take: a
caller that needs a take's label keeps it beside the features.

Extraction runs in two stages. channel_spectra is the linear one: the
product of a take's frames with one memoized matrix per channel layout,
configuration and sample rate. Framing, the window and the DFT are linear,
and so is the dual channels' zero-phase FIR split, so they fold into that
matrix, restricted to the FFT bins each channel's bank weights. The window
and the kernels are symmetric, so each frame is folded about its centre
into the sums and differences of mirrored samples, which meet the matrix's
real and imaginary halves: half the arithmetic of the unfolded product. A
take costs two matrix products and no gather copy, and a stack of
equal-length takes shares them. The single channel is the one-band case:
its kernel is one unit tap, so its frames are not extended.
spectra_features takes the spectra, with any leading batch dimensions,
through power, mel bank, log and cosine transform. extract runs the two in
turn on one take; it is the one entry point for both methods. Since the
first stage is linear, the spectra of a mix a + c*b are S(a) + c*S(b): a
caller that needs a take at many mixing scales computes S(a) and S(b) once
and only the second stage per scale.
fir.split_channels, fft_magnitude_sq and the stages above stay the
reference that the tests compare both stages against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    first one that is out of range. num_coeffs is checked against a
    method's filter counts when its layout is read (channel_bands).

    log_floor binds only where a filter's energy falls below it, as in
    digital silence or a pure tone. The synthetic corpus's smallest mel
    energy is about 0.0085, so on it any floor below about 1e-2 changes
    nothing.
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
            ("frame_len", self.frame_len >= 2, "must be >= 2"),
            ("frame_len", self.frame_len >= self.frame_shift, "must be >= frame_shift"),
            (
                "fft_size",
                self.fft_size >= 1 and self.fft_size & (self.fft_size - 1) == 0,
                "must be a power of two",
            ),
            ("fft_size", self.fft_size >= self.frame_len, "must be >= frame_len"),
            ("filters_single", self.filters_single >= 1, "must be >= 1"),
            ("filters_per_channel", self.filters_per_channel >= 1, "must be >= 1"),
            ("num_coeffs", self.num_coeffs >= 1, "must be >= 1"),
            ("split_hz", 0 < self.split_hz < self.band_top_hz, "must lie in (0, band_top_hz)"),
            ("fir_taps", self.fir_taps % 2 == 1 and self.fir_taps >= 3, "must be odd and >= 3"),
            ("log_floor", 0 < self.log_floor < np.inf, "must be finite and positive"),
        )


def _frame_count(length: int, frame_len_n: int, shift_m: int) -> int:
    """Number of whole N-sample frames shifted by M in `length` samples."""
    if shift_m <= 0 or frame_len_n < shift_m:
        raise ParameterError("need 0 < shift_m <= frame_len_n")
    if length < frame_len_n:
        raise DimensionError(
            f"buffer of {length} samples is shorter than one frame ({frame_len_n})"
        )
    return (length - frame_len_n) // shift_m + 1


def frame_blocking(buffer: AudioBuffer, frame_len_n: int, shift_m: int) -> np.ndarray:
    """Slice a buffer into overlapping frames of length N shifted by M.

    Returns an (L, N) array whose row l (0-based) holds samples
    [l*M, l*M + N); trailing samples that do not fill a frame are dropped.
    """
    n, m = int(frame_len_n), int(shift_m)
    starts = np.arange(_frame_count(len(buffer), n, m)) * m
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


def _mel_bin_edges(
    band_lo_hz: float, band_hi_hz: float, p: int, k: int, sample_rate_hz: int
) -> np.ndarray:
    """The P+2 FFT bins that bound a bank's triangles, from build_filterbank.
    Only bins strictly between the first and the last carry weight."""
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
    return bins


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
    bins = _mel_bin_edges(band_lo_hz, band_hi_hz, p, k, sample_rate_hz)
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
    band_hi_hz, filters)}, in the order the channels are extracted. Raises
    ConfigError naming num_coeffs if it exceeds a channel's filter count."""
    if method == "single":
        bands = {CHANNEL_SINGLE: (0.0, cfg.band_top_hz, cfg.filters_single)}
    elif method == "dual":
        bands = {
            CHANNEL_ONE: (0.0, cfg.split_hz, cfg.filters_per_channel),
            CHANNEL_TWO: (cfg.split_hz, cfg.band_top_hz, cfg.filters_per_channel),
        }
    else:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    filters = min(p for _, _, p in bands.values())
    check_fields(
        ("num_coeffs", cfg.num_coeffs <= filters, f"must be at most {method}'s {filters} filters")
    )
    return bands


@lru_cache(maxsize=4)  # each entry is about 0.4-0.5 MB at the defaults
def _spectrum_operator(
    bands: tuple[tuple[float, float, int], ...],
    frame_len: int,
    fft_size: int,
    fir_taps: int,
    sample_rate_hz: int,
) -> tuple[np.ndarray, tuple[slice, ...]]:
    """A channel layout's band split, Hamming window and DFT as one folded matrix.

    `bands` is an entry of channel_bands. A lone band is not filtered: its
    kernel is the one tap 1.0. Of two bands, channel 1 is lowpassed at its
    top edge and channel 2 bandpassed over its band by fir_taps-tap kernels,
    as in fir.split_channels. A frame extended by (T - 1)/2 samples on each
    side, T being the kernels' length, has E = frame_len + T - 1 samples,
    and its spectrum at bin k is its product with the windowed DFT basis
    vector of k convolved with the reversed kernel, with the phase taken
    about the frame centre (frame_len - 1)/2; the phase leaves |X_k|^2 as it is.

    The window is symmetric and the kernels are linear-phase, so that
    column's real part is even and its imaginary part odd about the
    extended frame's centre. With s_e = x_e + x_{E-1-e} and d_e = x_e -
    x_{E-1-e} for e < H = ceil(E/2), the real parts are s @ P and the
    imaginary parts d @ Q, P and Q being the first H rows of the real and
    imaginary columns; an odd E's centre row of P is halved, since s counts
    the centre sample twice (d is 0 there). Returns (operator, bins): the
    (H, 2C) operator [P | Q], each half holding the channels' bins in turn,
    and the bins bins[channel] that each channel's bank weights. Memoized
    like build_filterbank; the returned matrix is read-only.
    """
    kernels = [np.ones(1)]
    if len(bands) == 2:
        (_, split_hz, _), (_, top_hz, _) = bands
        kernels = [
            fir.design_lowpass(split_hz, fir_taps, sample_rate_hz).taps,
            fir.design_bandpass(split_hz, top_hz, fir_taps, sample_rate_hz).taps,
        ]
    t = np.arange(frame_len)
    window = hamming_window(np.ones(frame_len))
    extended = frame_len + len(kernels[0]) - 1
    blocks, bin_slices = [], []
    for kernel, (lo, hi, filters) in zip(kernels, bands, strict=True):
        edges = _mel_bin_edges(lo, hi, filters, fft_size, sample_rate_hz)
        bins = np.arange(edges[0] + 1, edges[-1])
        # The angle k*(t - (N-1)/2)*2pi/K: reduce k*(2t - N + 1) modulo 2K in
        # integers so the angles stay exact.
        angle = (np.pi / fft_size) * (np.outer(2 * t - frame_len + 1, bins) % (2 * fft_size))
        basis = window[:, None] * (np.cos(angle) - 1j * np.sin(angle))
        block = np.zeros((extended, len(bins)), dtype=complex)
        for shift, tap in enumerate(kernel[::-1]):
            block[shift : shift + frame_len] += tap * basis
        blocks.append(block[: -(-extended // 2)])
        bin_slices.append(slice(int(bins[0]), int(bins[-1]) + 1))
    folded = np.hstack(blocks)
    if extended % 2:
        folded[-1] *= 0.5
    operator = np.hstack([folded.real, folded.imag])
    operator.flags.writeable = False
    return operator, tuple(bin_slices)


def channel_spectra(
    takes: Sequence[np.ndarray], method: str, cfg: ExtractionConfig, sample_rate_hz: int
) -> np.ndarray:
    """The linear stage of extraction: frame spectra, linear in the samples.

    `takes` is a sequence of B equal-length 1-D sample arrays, or a (B, n)
    array, all at sample_rate_hz; this returns their (B, L, C) spectra, row
    b being those of takes[b]. A take's spectra are its frames, extended by
    the band split's kernel, folded about their centres and multiplied by
    _spectrum_operator: the real parts of every channel's bins, then their
    imaginary parts. The single channel has no split, so its frames are the
    take's own. Framing, the FIR split, the window and the DFT are all
    linear, so the spectra of a + c*b are the spectra of a plus c times
    those of b, up to float rounding; spectra_features takes them the rest
    of the way. Raises what the staged path raises on the same input, in
    its order: the dual band split's checks, then the banks', then the
    framing's.
    """
    shapes = {np.shape(x) for x in takes}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise DimensionError(f"stacked takes must share one length; got shapes {sorted(shapes)}")
    ((length,),) = shapes
    bands = tuple(channel_bands(method, cfg).values())
    reach = 0
    if method == "dual":
        if not cfg.split_hz < cfg.band_top_hz < sample_rate_hz / 2.0:
            raise ParameterError("need split_hz < top_hz < the Nyquist frequency")
        if length <= cfg.fir_taps:
            raise DimensionError(
                f"buffer ({length}) must be longer than the kernel ({cfg.fir_taps})"
            )
        reach = (cfg.fir_taps - 1) // 2
    operator, _ = _spectrum_operator(
        bands, cfg.frame_len, cfg.fft_size, cfg.fir_taps, sample_rate_hz
    )
    count = _frame_count(length, cfg.frame_len, cfg.frame_shift)
    # "same"-mode convolution is a full convolution of the zero-padded input.
    padded = np.zeros((len(takes), length + 2 * reach))
    padded[:, reach : reach + length] = takes
    frames = sliding_window_view(padded, cfg.frame_len + 2 * reach, axis=1)
    frames = frames[:, :: cfg.frame_shift]
    half, width = operator.shape
    head, tail = frames[..., :half], frames[..., ::-1][..., :half]
    # The sums, then the differences, in one (B*L, H) buffer: the folded
    # frames of a stack take no more memory than one gather of them would.
    folded = np.empty((len(takes) * count, half))
    spectra = np.empty((len(takes) * count, width))
    np.add(head, tail, out=folded.reshape(head.shape))
    np.matmul(folded, operator[:, : width // 2], out=spectra[:, : width // 2])
    np.subtract(head, tail, out=folded.reshape(head.shape))
    np.matmul(folded, operator[:, width // 2 :], out=spectra[:, width // 2 :])
    return spectra.reshape(len(takes), count, width)


def spectra_features(
    spectra: np.ndarray, method: str, cfg: ExtractionConfig, sample_rate_hz: int
) -> dict[str, np.ndarray]:
    """Cepstra of each channel of `method` from its channel_spectra, keyed by
    channel_id: power, the channel's bank from channel_bands, log and cosine
    transform. `spectra` may carry leading batch dimensions, (..., L, C);
    each channel's rows then carry the same ones, (..., L, Q)."""
    bands = channel_bands(method, cfg)
    _, bin_slices = _spectrum_operator(
        tuple(bands.values()), cfg.frame_len, cfg.fft_size, cfg.fir_taps, sample_rate_hz
    )
    # One 2-D product per stage: numpy runs a stacked matmul one matrix at a time.
    flat = spectra.reshape(-1, spectra.shape[-1])
    half = flat.shape[1] // 2
    power = np.square(flat[:, :half])
    power += np.square(flat[:, half:])
    features, col = {}, 0
    for (channel_id, (lo, hi, filters)), bins in zip(bands.items(), bin_slices, strict=True):
        bank = build_filterbank(lo, hi, filters, cfg.fft_size, sample_rate_hz)
        width = bins.stop - bins.start
        energies = log_mel_energies(power[:, col : col + width], bank[:, bins], cfg.log_floor)
        col += width
        rows = dct_cepstra(energies, cfg.num_coeffs)
        features[channel_id] = rows.reshape(spectra.shape[:-1] + (-1,))
    return features


def extract(
    buffer: AudioBuffer, method: str, cfg: ExtractionConfig = ExtractionConfig()
) -> dict[str, np.ndarray]:
    """Cepstra of each channel of `method`, keyed by channel_id:
    channel_spectra, then spectra_features. Each channel's rows are an
    (L, Q) array, one row per frame.

    "single" gives one array, from one bank over [0, band_top_hz]. "dual"
    gives two time-aligned ones with equal row counts: ch1 from the
    lowpassed signal with a bank over [0, split_hz], ch2 from the
    bandpassed signal with a bank over [split_hz, band_top_hz].
    """
    rate = buffer.sample_rate_hz
    spectra = channel_spectra([buffer.samples], method, cfg, rate)[0]
    return spectra_features(spectra, method, cfg, rate)
