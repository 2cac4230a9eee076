"""Benchmark workloads: seeded inputs, the timed operation, and its outputs.

Every workload is a list of operations built from a workload seed. An
operation is one call through a public entry point (``melsplit.bench.run_sweep``
or ``melsplit.cli.main``); the program sees only the generated inputs.

Expected outputs of the seed code are recorded per operation key in
``expected/<workload>.json`` (see ``record.py``). The benchmark ships
``SEEDS`` workload seeds; ``--seed n`` selects workload seed ``n % SEEDS``, so
every run is checked against a recorded expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from melsplit import bench, cli
from melsplit.signal_io import AudioBuffer, NoiseSpec, corpus_seed, mix_at_snr, synth_speaker, write_wav

SEEDS = 16
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Relative tolerance for recorded floats (thresholds, scores). Reordered
# arithmetic, such as a batched LMS kernel or numpy's rfft, moves them by
# about 1e-13; decisions and confusion counts are compared exactly.
REL_TOL = 1e-9

# verify_stream: each run takes a window of VERIFY_PAIRS distinct pairs out
# of SEEDS * VERIFY_PAIRS. At least VERIFY_MIN_PAIRS are timed, so at least
# ten latency samples lie beyond the nearest-rank p90.
VERIFY_PAIRS = 112
VERIFY_MIN_PAIRS = 100
VERIFY_UTTERANCE_S = 2.0
VERIFY_SNR_DB = -6.0
VERIFY_PROFILES = 8
VERIFY_PEAK = 0.95
_VERIFY_KEY = 0x5E7F


@dataclass(frozen=True)
class Op:
    """One timed operation: ``call`` is timed, ``outputs`` normalizes its
    result for the correctness gate, ``key`` names the recorded expectation."""

    key: str
    call: Callable[[], object]
    outputs: Callable[[object], dict]


@dataclass(frozen=True)
class Workload:
    """``min_ops`` operations are timed even past ``--seconds``; a traced run
    alternates traced and untraced operations over the first ``trace_ops``."""

    name: str
    min_ops: int
    trace_ops: int
    build: Callable[[int, Path], list[Op]]


def _sweep_plan(workload: str, master_seed: int) -> bench.ExperimentPlan:
    plan = bench.ExperimentPlan(master_seed=master_seed)
    if workload == "sweep_noanc":
        # 128 is the largest balanced trial count the 8 profiles x 8 trial
        # words pool allows (64 genuine pairs).
        plan = replace(plan, anc=("off",), trials=128)
    return plan


def _sweep_outputs(report) -> dict:
    return {
        "corpus_digest": report.corpus_digest,
        "thresholds": {m: float(t) for m, t in sorted(report.config_echo["thresholds"].items())},
        "cells": [
            [c.method, c.anc, c.snr_db, c.counts.tp, c.counts.tn, c.counts.fp, c.counts.fn]
            for c in report.cells
        ],
    }


def _sweep_ops(workload: str, seed: int) -> list[Op]:
    """Sweeps on master seeds seed, seed+1, ... (mod SEEDS): no sweep in a
    run repeats another's corpus."""
    ops = []
    for r in range(SEEDS):
        master = (seed + r) % SEEDS
        plan = _sweep_plan(workload, master)
        ops.append(Op(str(master), lambda plan=plan: bench.run_sweep(plan), _sweep_outputs))
    return ops


def _peak(*signals: np.ndarray) -> float:
    return max(float(np.max(np.abs(s))) for s in signals)


def verify_pair_inputs(index: int) -> dict[str, AudioBuffer]:
    """Test take (noisy), its noise reference, and a clean reference take.

    Pair ``index`` uses its own word id, so no utterance repeats across
    pairs. Even indices are genuine (same profile), odd ones impostors. The
    clean test take is scaled so neither the noisy take nor the noise clips
    when written as 16-bit PCM.
    """
    rng = np.random.default_rng([_VERIFY_KEY, index])
    profile = int(rng.integers(VERIFY_PROFILES))
    other = profile if index % 2 == 0 else (profile + 1 + int(rng.integers(VERIFY_PROFILES - 1))) % VERIFY_PROFILES
    word = 1000 + index
    take = synth_speaker(profile, word, VERIFY_UTTERANCE_S, corpus_seed(_VERIFY_KEY, profile, word, 1))
    ref = synth_speaker(other, word, VERIFY_UTTERANCE_S, corpus_seed(_VERIFY_KEY, other, word, 0))
    spec = NoiseSpec("white-gaussian", VERIFY_SNR_DB, corpus_seed(_VERIFY_KEY, profile, word, 0xA01E))
    noisy, noise = mix_at_snr(take, spec)
    scale = min(1.0, VERIFY_PEAK / _peak(noisy.samples, noise.samples))
    noisy, noise = mix_at_snr(AudioBuffer(take.samples * scale, take.sample_rate_hz), spec)
    return {"test": noisy, "reference": noise, "ref": ref}


def _cli_verdict(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def _verdict_outputs(result) -> dict:
    code, text = result
    if code != 0:
        return {"exit_code": code}
    payload = json.loads(text)
    return {"exit_code": code, "decision": payload["decision"], "score": payload["score"]}


def verify_ops(seed: int, workdir: Path) -> list[Op]:
    """Write the run's pairs as WAV files and return one CLI call per pair."""
    ops = []
    start = seed * VERIFY_PAIRS
    for index in range(start, start + VERIFY_PAIRS):
        paths = {}
        for role, buffer in verify_pair_inputs(index).items():
            paths[role] = str(workdir / f"{index}.{role}.wav")
            clipped = write_wav(buffer, paths[role])
            if clipped:
                raise RuntimeError(f"pair {index}: {clipped} samples of {role} clipped")
        argv = ["verdict", "--test", paths["test"], "--ref", paths["ref"],
                "--anc", "--reference", paths["reference"]]
        ops.append(Op(str(index), lambda argv=argv: _cli_verdict(argv), _verdict_outputs))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        # One default sweep takes 21-39 s on a 2-vCPU host, so a run that
        # fits the benchmark's time budget times only one.
        Workload("sweep_default", min_ops=1, trace_ops=2,
                 build=lambda seed, workdir: _sweep_ops("sweep_default", seed)),
        Workload("sweep_noanc", min_ops=3, trace_ops=2,
                 build=lambda seed, workdir: _sweep_ops("sweep_noanc", seed)),
        Workload("verify_stream", min_ops=VERIFY_MIN_PAIRS, trace_ops=VERIFY_PAIRS,
                 build=verify_ops),
    )
}


def mismatch(expected, actual, path: str = "") -> str | None:
    """First difference between recorded and actual outputs, or None.

    Floats compare within REL_TOL; everything else compares exactly.
    """
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return f"{path}: expected {expected!r}, got {actual!r}"
        if not math.isclose(expected, actual, rel_tol=REL_TOL):
            return f"{path}: expected {expected!r}, got {actual!r}"
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return f"{path}: expected keys {sorted(expected)}, got {sorted(actual)}"
        for key in expected:
            found = mismatch(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            return f"{path}: expected {len(expected)} entries, got {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def load_expected(workload: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text(encoding="utf-8"))
