"""Command-line entry point for the identification pipeline.

One binary with subcommands mirroring the processing stages: synth, mix,
anc, filter, extract, verdict, bench. verdict enrolls both takes with
cluster.enroll_many, named by their file stems, and thresholds their
cluster.scores (the mean of their channel_scores), the decision the sweep
counts. extract and verdict take only WAVs at the config's sample_rate_hz.
Exit codes: 0 success, 2 usage error, 1 runtime/pipeline error. Tunables
resolve as CLI flag > config file > built-in default; bench reads its
settings from a --plan file instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import bench as bench_mod
from .anc import LmsConfig, run_anc
from .cluster import channel_scores, enroll_many, scores
from .errors import ConfigError, DimensionError, PipelineError
from .fir import (
    design_bandpass,
    design_highpass,
    design_lowpass,
    export_taps_csv,
    filter_zero_phase,
)
from .mfcc import METHODS, ExtractionConfig, channel_bands, extract
from .settings import check_fields, check_shared_fields, read_settings, settings_from_dict
from .signal_io import (
    NoiseSpec,
    corpus_seed,
    measure_snr_db,
    mix_at_snr,
    read_wav,
    synth_speaker,
    write_manifest,
    write_wav,
)


@dataclass(frozen=True)
class PipelineConfig(ExtractionConfig):
    """Every tunable in one place, loadable from a JSON config file.

    The feature-extraction fields and their checks come from
    ExtractionConfig, so a PipelineConfig goes wherever one is expected.
    """

    sample_rate_hz: int = 16000
    anc_taps: int = 31
    anc_mu: float = 0.005
    kmeans_k: int = 2
    threshold: float = 1.0
    seed: int = 1234

    def __post_init__(self):
        super().__post_init__()
        check_shared_fields(self.sample_rate_hz, self.band_top_hz, self.anc_taps, self.kmeans_k)
        check_fields(
            ("anc_mu", 0 < self.anc_mu < math.inf, "must be finite and positive"),
            ("threshold", self.threshold >= 0, "must be >= 0"),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path) -> PipelineConfig:
    """Load and validate a JSON config file; unknown fields are an error."""
    return settings_from_dict(PipelineConfig, read_settings(path), "config")


def _effective_config(args) -> PipelineConfig:
    """The config file's fields, or the defaults, with each flag given on
    the command line whose dest names a PipelineConfig field over them."""
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }
    return replace(cfg, **overrides) if overrides else cfg


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def cmd_synth(args) -> int:
    cfg = _effective_config(args)
    out_dir = Path(args.out)
    entries = []
    for p in range(args.profiles):
        for w in range(args.words):
            for r in range(args.replicates):
                seed = corpus_seed(cfg.seed, p, w, r)
                buffer = synth_speaker(p, w, args.duration, seed, cfg.sample_rate_hz)
                # Made once the first take is ready, so that a run that
                # fails on its first take leaves no directory behind.
                if not entries:
                    out_dir.mkdir(parents=True, exist_ok=True)
                name = f"p{p:02d}_w{w:02d}_r{r}.wav"
                write_wav(buffer, out_dir / name)
                entries.append(
                    {"profile_id": p, "word_id": w, "seed": seed, "path": name}
                )
    manifest = out_dir / "manifest.json"
    write_manifest(entries, manifest)
    print(f"wrote {len(entries)} files + {manifest}")
    return 0


def cmd_mix(args) -> int:
    cfg = _effective_config(args)
    clean = read_wav(args.infile)
    noise = read_wav(args.noise) if args.noise else None
    spec = NoiseSpec(
        "recorded" if noise is not None else "white-gaussian",
        args.snr_db,
        cfg.seed,
        noise,
    )
    noisy, noise_only = mix_at_snr(clean, spec)
    clipped = write_wav(noisy, args.out)
    if args.noise_out:
        clipped += write_wav(noise_only, args.noise_out)
    achieved = measure_snr_db(clean, noisy)
    print(f"mixed at {achieved:.2f} dB SNR ({clipped} samples clipped on write)")
    return 0


def _check_same_rate(path_a, a, path_b, b) -> None:
    if a.sample_rate_hz != b.sample_rate_hz:
        raise DimensionError(
            f"sample rates differ: {path_a} is at {a.sample_rate_hz} Hz, "
            f"{path_b} at {b.sample_rate_hz} Hz"
        )


def _check_config_rate(cfg, *inputs) -> None:
    """Raise ConfigError naming every (path, take)'s rate unless all are at
    the config's sample_rate_hz."""
    if any(take.sample_rate_hz != cfg.sample_rate_hz for _, take in inputs):
        rates = ", ".join(f"{p} is sampled at {t.sample_rate_hz} Hz" for p, t in inputs)
        raise ConfigError(f"{rates}, but config sample_rate_hz is {cfg.sample_rate_hz}")


def _read_noise_reference(path, primary_path, primary):
    """Read the canceller's noise reference; it must match the primary
    sample for sample."""
    reference = read_wav(path)
    _check_same_rate(primary_path, primary, path, reference)
    if len(reference) != len(primary):
        raise DimensionError(
            f"lengths differ: {primary_path} has {len(primary)} samples, "
            f"{path} has {len(reference)}"
        )
    return reference


def cmd_anc(args) -> int:
    cfg = _effective_config(args)
    primary = read_wav(args.primary)
    reference = _read_noise_reference(args.reference, args.primary, primary)
    result = run_anc(primary, reference, LmsConfig(cfg.anc_taps, cfg.anc_mu))
    clipped = write_wav(result.error_signal, args.out)
    if args.mse_csv:
        lines = ["window_index,mse"]
        lines += [f"{i},{float(v)!r}" for i, v in enumerate(result.mse_trace)]
        Path(args.mse_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out} ({clipped} samples clipped)")
    return 0


def cmd_filter(args) -> int:
    cfg = _effective_config(args)
    buffer = read_wav(args.infile)
    if args.kind == "lp":
        kernel = design_lowpass(args.hi, cfg.fir_taps, buffer.sample_rate_hz)
    elif args.kind == "hp":
        kernel = design_highpass(args.lo, cfg.fir_taps, buffer.sample_rate_hz)
    else:
        kernel = design_bandpass(args.lo, args.hi, cfg.fir_taps, buffer.sample_rate_hz)
    filtered = filter_zero_phase(buffer, kernel)
    clipped = write_wav(filtered, args.out)
    if args.taps_csv:
        export_taps_csv(kernel, args.taps_csv)
    print(f"wrote {args.out} ({clipped} samples clipped)")
    return 0


def cmd_extract(args) -> int:
    cfg = _effective_config(args)
    buffer = read_wav(args.infile)
    _check_config_rate(cfg, (args.infile, buffer))
    stem = Path(args.infile).stem
    feats = extract(buffer, args.method, cfg)
    # Made once the features exist, so that a failed run leaves no directory.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bands = channel_bands(args.method, cfg)
    for channel_id, (band_lo, band_hi, filters) in bands.items():
        rows = feats[channel_id]
        meta = {
            "N": cfg.frame_len,
            "M": cfg.frame_shift,
            "K": cfg.fft_size,
            "Q": cfg.num_coeffs,
            "sample_rate": buffer.sample_rate_hz,
            "channel_id": channel_id,
            "P": filters,
            "band_lo": band_lo,
            "band_hi": band_hi,
        }
        lines = ["frame_index," + ",".join(f"c{i + 1}" for i in range(rows.shape[1]))]
        lines += [f"{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(rows)]
        csv_path = out_dir / (f"{stem}.csv" if len(bands) == 1 else f"{stem}.{channel_id}.csv")
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        csv_path.with_suffix(".json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {csv_path} ({rows.shape[0]} rows)")
    return 0


def cmd_verdict(args) -> int:
    cfg = _effective_config(args)
    test = read_wav(args.test)
    ref = read_wav(args.ref)
    _check_config_rate(cfg, (args.test, test), (args.ref, ref))
    for path, take in ((args.test, test), (args.ref, ref)):
        short = bench_mod.too_short(cfg, (args.method,), cfg.kmeans_k, len(take))
        if short:
            raise ConfigError(f"{path} has {len(take)} samples, {short}")
    if args.anc:
        reference = _read_noise_reference(args.reference, args.test, test)
        result = run_anc(test, reference, LmsConfig(cfg.anc_taps, cfg.anc_mu))
        test = result.error_signal
    test_id, ref_id = Path(args.test).stem, Path(args.ref).stem
    takes = [extract(test, args.method, cfg), extract(ref, args.method, cfg)]
    test_models, ref_models = enroll_many(takes, [test_id, ref_id], cfg.kmeans_k, cfg.seed)
    per_channel = {c: float(s[0]) for c, s in channel_scores([test_models], [ref_models]).items()}
    combined = float(scores([test_models], [ref_models])[0])
    payload = {
        "test_id": test_id,
        "ref_id": ref_id,
        "per_channel_scores": per_channel,
        "score": combined,
        "threshold": cfg.threshold,
        "decision": "identical" if combined <= cfg.threshold else "non-identical",
        "config": cfg.to_dict(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_bench(args) -> int:
    plan = bench_mod.load_plan(args.plan) if args.plan else bench_mod.ExperimentPlan()
    overrides = {}
    if args.corpus:
        overrides["corpus"] = args.corpus
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if overrides:
        plan = replace(plan, **overrides)
    report = bench_mod.run_sweep(plan)
    payload = bench_mod.report_to_dict(report)
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    bench_mod.emit_curves(report, args.curves)
    for cell in report.cells:
        label = "clean" if cell.snr_db == bench_mod.CLEAN_SNR_DB else f"{cell.snr_db:g} dB"
        print(
            f"{cell.method:6s} anc={cell.anc:3s} {label:>7s}: "
            f"accuracy {cell.accuracy:.4f}"
        )
    print(f"wrote {args.out} and {args.curves}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="melsplit",
        description="Noise-robust word-sample identification pipeline",
    )
    parser.add_argument(
        "--config", help="JSON config file with pipeline tunables (not read by bench)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic word-sample corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--profiles", type=_positive_int, default=8)
    p.add_argument("--words", type=_positive_int, default=10)
    p.add_argument("--replicates", type=_positive_int, default=1)
    p.add_argument("--duration", type=float, default=1.0, help="seconds per utterance")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("mix", help="add noise at a target SNR")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise", help="recorded noise WAV (default: white Gaussian)")
    p.add_argument("--out", required=True)
    p.add_argument("--noise-out", help="also write the injected noise")
    p.set_defaults(handler=cmd_mix)

    p = sub.add_parser("anc", help="adaptive noise cancellation")
    p.add_argument("--primary", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--taps", dest="anc_taps", type=int, default=None, help="filter order L")
    p.add_argument("--mu", dest="anc_mu", type=float, default=None, help="LMS step size")
    p.add_argument("--out", required=True)
    p.add_argument("--mse-csv", help="write the windowed MSE trace")
    p.set_defaults(handler=cmd_anc)

    p = sub.add_parser("filter", help="FIR filter a recording")
    p.add_argument("--kind", choices=("lp", "hp", "bp"), required=True)
    p.add_argument("--lo", type=float, help="low cutoff (hp, bp)")
    p.add_argument("--hi", type=float, help="high cutoff (lp, bp)")
    p.add_argument("--taps", dest="fir_taps", type=int, default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--taps-csv", help="export kernel coefficients")
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("extract", help="extract cepstral features to CSV")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("verdict", help="compare two recordings")
    p.add_argument("--test", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--method", choices=METHODS, default="dual")
    p.add_argument("--anc", action="store_true", help="denoise the test input first")
    p.add_argument("--reference", help="noise reference WAV for --anc")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", help="also write the verdict JSON here")
    p.set_defaults(handler=cmd_verdict)

    p = sub.add_parser("bench", help="run the SNR sweep benchmark")
    p.add_argument("--plan", help="experiment plan JSON (default: built-in plan)")
    p.add_argument("--corpus", help="corpus manifest (default: synthesize in memory)")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--curves", required=True, help="plot-ready CSV path")
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.config:
        parser.error("bench does not read --config; put sweep settings in a --plan file")
    if args.command == "verdict" and args.anc != bool(args.reference):
        parser.error("--anc requires --reference" if args.anc else "--reference requires --anc")
    if args.command == "filter":
        needed = {"lp": ("hi",), "hp": ("lo",), "bp": ("lo", "hi")}[args.kind]
        for flag in ("lo", "hi"):
            if (getattr(args, flag) is None) == (flag in needed):
                verb = "requires" if flag in needed else "takes no"
                parser.error(f"--kind {args.kind} {verb} --{flag}")
    try:
        return args.handler(args)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
