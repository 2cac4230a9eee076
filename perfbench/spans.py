"""Layer tracing from outside the program.

Each layer's public function is wrapped at the name its caller binds (for
example ``melsplit.bench.run_anc``, which ``run_sweep`` calls, and
``melsplit.cli.run_anc``, which the ``verdict`` subcommand calls). A wrapper
records a span (name, start, end, parent, operation) in memory and updates
counters from the call's arguments and return value after the span has
closed. A name a later refactor removed is reported as absent; the
end-to-end runs never install wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_read(counts, distinct, args, kwargs, result):
    counts["signal_io.read_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_anc(counts, distinct, args, kwargs, result):
    primary = _arg(args, kwargs, 0, "primary")
    reference = _arg(args, kwargs, 1, "reference")
    counts["anc.samples"] += len(primary)
    counts["anc.useful_runs"] += bool(np.any(reference.samples))


def _count_fir(counts, distinct, args, kwargs, result):
    counts["fir.samples"] += len(_arg(args, kwargs, 0, "buffer"))


def _count_fft(counts, distinct, args, kwargs, result):
    frames = np.asarray(_arg(args, kwargs, 0, "frame"))
    counts["mfcc.frames"] += frames.shape[0] if frames.ndim > 1 else 1


def _count_filterbank(counts, distinct, args, kwargs, result):
    distinct["mfcc.filterbank"].add((args, tuple(sorted(kwargs.items()))))


def _count_kmeans(counts, distinct, args, kwargs, result):
    points = np.ascontiguousarray(_arg(args, kwargs, 0, "points"), dtype=np.float64)
    digest = hashlib.blake2b(points.tobytes(), digest_size=16)
    digest.update(repr(points.shape).encode())
    distinct["cluster.kmeans"].add((digest.digest(), int(_arg(args, kwargs, 2, "seed"))))
    counts["cluster.kmeans_iterations"] += result.iterations_run


# (span name, module, attribute the caller binds, counter)
TARGETS = (
    ("bench.run_sweep", "melsplit.bench", "run_sweep", None),
    ("cli.main", "melsplit.cli", "main", None),
    ("signal_io.synth_speaker", "melsplit.bench", "synth_speaker", None),
    ("signal_io.read_wav", "melsplit.cli", "read_wav", _count_read),
    ("anc.run_anc", "melsplit.bench", "run_anc", _count_anc),
    ("anc.run_anc", "melsplit.cli", "run_anc", _count_anc),
    ("fir.split_channels", "melsplit.fir", "split_channels", _count_fir),
    ("mfcc.extract", "melsplit.bench", "extract_single_channel", None),
    ("mfcc.extract", "melsplit.bench", "extract_dual_channel", None),
    ("mfcc.extract", "melsplit.cli", "extract_single_channel", None),
    ("mfcc.extract", "melsplit.cli", "extract_dual_channel", None),
    ("mfcc.fft_magnitude_sq", "melsplit.mfcc", "fft_magnitude_sq", _count_fft),
    ("mfcc.build_filterbank", "melsplit.mfcc", "build_filterbank", _count_filterbank),
    ("cluster.verdict", "melsplit.bench", "verdict", None),
    ("cluster.verdict", "melsplit.cli", "verdict", None),
    ("cluster.kmeans", "melsplit.cluster", "kmeans", _count_kmeans),
    ("cluster.calibrate_threshold", "melsplit.bench", "calibrate_threshold", None),
)


class Tracer:
    """Installs the wrappers, keeps spans and counters, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self.op = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, module_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original, counter))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None and name not in self.counter_errors:
                try:
                    counter(self.counts, self.distinct, args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the operation
                    self.counter_errors[name] = repr(exc)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: total self time and span count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_t, calls = defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_t[name] += end - start - child[i]
            calls[name] += 1
        return self_t, calls

    def write(self, path, **extra) -> None:
        data = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "absent": self.absent,
            "counter_errors": self.counter_errors,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced operations.

    Times are self times summed over the traced operations: a span's
    duration minus the time its child spans cover. ``traced_s`` and
    ``untraced_s`` are the end-to-end times of the traced operations and of
    an equal number of untraced ones.
    """
    self_t, calls = tracer.self_times()
    c = tracer.counts
    n_bank = calls["mfcc.build_filterbank"]
    n_kmeans = calls["cluster.kmeans"]
    n_bank_distinct = len(tracer.distinct["mfcc.filterbank"])
    n_kmeans_distinct = len(tracer.distinct["cluster.kmeans"])
    return {
        "signal_io.synth_s": self_t["signal_io.synth_speaker"],
        "signal_io.synth_calls": calls["signal_io.synth_speaker"],
        "signal_io.read_wav_s": self_t["signal_io.read_wav"],
        "signal_io.read_bytes": c["signal_io.read_bytes"],
        "anc.run_s": self_t["anc.run_anc"],
        "anc.runs": calls["anc.run_anc"],
        "anc.samples": c["anc.samples"],
        "anc.ns_per_sample": _ratio(1e9 * self_t["anc.run_anc"], c["anc.samples"]),
        "anc.useful_runs": c["anc.useful_runs"],
        "anc.useful_ratio": _ratio(c["anc.useful_runs"], calls["anc.run_anc"]),
        "fir.split_s": self_t["fir.split_channels"],
        "fir.split_calls": calls["fir.split_channels"],
        "fir.samples": c["fir.samples"],
        "mfcc.extract_self_s": self_t["mfcc.extract"],
        "mfcc.extract_calls": calls["mfcc.extract"],
        "mfcc.fft_s": self_t["mfcc.fft_magnitude_sq"],
        "mfcc.frames": c["mfcc.frames"],
        "mfcc.filterbank_s": self_t["mfcc.build_filterbank"],
        "mfcc.filterbank_builds": n_bank,
        "mfcc.filterbank_distinct": n_bank_distinct,
        "mfcc.filterbank_distinct_ratio": _ratio(n_bank_distinct, n_bank),
        "cluster.verdict_self_s": self_t["cluster.verdict"],
        "cluster.verdicts": calls["cluster.verdict"],
        "cluster.kmeans_s": self_t["cluster.kmeans"],
        "cluster.kmeans_calls": n_kmeans,
        "cluster.kmeans_iterations": c["cluster.kmeans_iterations"],
        "cluster.kmeans_distinct": n_kmeans_distinct,
        "cluster.kmeans_distinct_ratio": _ratio(n_kmeans_distinct, n_kmeans),
        "cluster.calibrate_s": self_t["cluster.calibrate_threshold"],
        "bench.self_s": self_t["bench.run_sweep"],
        "cli.self_s": self_t["cli.main"],
        "trace.overhead_pct": 100.0 * (_ratio(traced_s, untraced_s) - 1.0),
        "trace.unattributed_pct": 100.0 * _ratio(traced_s - sum(self_t.values()), traced_s),
    }
