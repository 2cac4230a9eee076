"""Noise-robust word-sample identification.

Pipeline stages: SNR-controlled noise mixing, LMS adaptive noise
cancellation, FIR band splitting, mel-cepstral feature extraction (single-
or dual-channel), and k-means centroid matching, plus a benchmark harness
that sweeps SNR against identification accuracy.
"""

from .anc import AncResult, LmsConfig, mse_trace, run_anc
from .bench import CLEAN_SNR_DB, ExperimentPlan, SweepReport, emit_curves, run_sweep
from .cluster import (
    ClusterModel,
    ConfusionCounts,
    accuracy,
    calibrate_threshold,
    channel_scores,
    enroll_many,
    kmeans_many,
    scores,
)
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    FormatError,
    ParameterError,
    PipelineError,
    UndefinedSnrError,
    UnsupportedFormatError,
)
from .fir import (
    FilterKernel,
    design_bandpass,
    design_highpass,
    design_lowpass,
    filter_zero_phase,
)
from .mfcc import (
    ExtractionConfig,
    build_filterbank,
    dct_cepstra,
    extract,
    hamming_window,
    hz_to_mel,
    log_mel_energies,
    mel_to_hz,
)
from .signal_io import (
    AudioBuffer,
    NoiseSpec,
    measure_snr_db,
    mix_at_snr,
    read_wav,
    synth_speaker,
    write_wav,
)

__version__ = "0.1.0"
