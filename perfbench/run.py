"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 25 --trace 0

One process, one closed-loop client: each operation starts after the
previous one returns. Latencies are raw wall times. ``setup_s`` is the time
from the first line of this script to the first timed operation (importing
numpy and melsplit, building the run's inputs); the run measures it in
itself and in SETUP_SAMPLES - 1 fresh processes that only set up, and
reports the median. With ``--trace 0`` the run times operations untraced
and reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it alternates traced and untraced operations and reports the per-layer
metrics. Every operation's outputs are checked against the recorded
expectations; a mismatch or an exception counts as one failed operation and
does not stop the run, but the exit code is then 1. Human-readable lines
come first; the last line of standard output is the JSON result.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (START must be taken before any other import)
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402

# Set-up samples per end-to-end run: this process and SETUP_SAMPLES - 1
# processes started with --setup-only, one after another.
SETUP_SAMPLES = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "melsplit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Gate:
    """Counts attempted and failed operations; a failure is tagged, not raised."""

    def __init__(self, workload: str, seed: int, expected: dict, mismatch):
        self.workload, self.seed, self.expected, self.mismatch = workload, seed, expected, mismatch
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, op) -> float | None:
        """Time one operation; return its latency in seconds, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            raw = op.call()
            latency = time.perf_counter() - start
            found = self.mismatch(self.expected[op.key], op.outputs(raw))
        except Exception as exc:  # any error, a missing expectation included, is one failed operation
            return self._fail(op, repr(exc))
        return self._fail(op, found) if found else latency

    def _fail(self, op, error: str) -> None:
        self.failures.append({"workload": self.workload, "seed": self.seed, "op": op.key, "error": error})
        return None


def set_up(name: str, seed: int, workdir: Path):
    """Import numpy, melsplit and the workload module and build the run's
    inputs; return the module, the operations and the seconds since START."""
    import numpy  # noqa: F401  (part of set-up, as in any melsplit process)

    workloads = importlib.import_module("workloads")
    ops = workloads.WORKLOADS[name].build(seed % workloads.SEEDS, workdir)
    return workloads, ops, time.perf_counter() - START


def setup_samples(args) -> list[float]:
    """Set-up times of SETUP_SAMPLES - 1 fresh processes, run one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def end_to_end(workload, ops, gate: Gate, seconds: float) -> dict[str, float]:
    """Run operations until their wall time would pass ``seconds`` (at least
    ``workload.min_ops``); report latency quantiles in ms and peak memory."""
    wall: list[float] = []
    for op in ops:
        estimate = statistics.median(wall) if wall else 0.0
        if gate.attempted >= workload.min_ops and sum(wall) + estimate > seconds:
            break
        latency = gate.run(op)
        if latency is not None:
            wall.append(latency)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_ms = [1000.0 * x for x in wall] or [0.0]
    print(f"# timed {len(wall)} of {gate.attempted} operations in {sum(wall):.1f} s of wall time")
    return {
        "latency_p50_ms": statistics.median(wall_ms),
        "latency_p90_ms": percentile(wall_ms, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def traced(workload, ops, gate: Gate, trace_path: Path, stamp: dict) -> dict[str, float]:
    """Alternate traced (even) and untraced (odd) operations over the first
    ``workload.trace_ops``; report per-layer metrics of the traced ones."""
    import spans

    tracer = spans.Tracer()
    traced_s = untraced_s = 0.0
    for i, op in enumerate(ops[: workload.trace_ops]):
        if i % 2:
            untraced_s += gate.run(op) or 0.0
            continue
        tracer.op = op.key
        with tracer:
            traced_s += gate.run(op) or 0.0
    metrics = spans.layer_metrics(tracer, traced_s, untraced_s)
    tracer.write(trace_path, stamp=stamp)
    print(f"# spans written to {trace_path}")
    for name in tracer.absent:
        print(f"# layer absent: {name} not found; its metrics read 0")
    for name, error in tracer.counter_errors.items():
        print(f"# counter unavailable for {name}: {error}")
    # Self times partition each root span (bench.run_sweep, cli.main), so
    # this gap is only the traced time spent outside a root span: the
    # benchmark's own call glue, or a whole operation whose root wrapper a
    # refactor removed.
    share = metrics["trace.unattributed_pct"]
    verdict = "ok" if abs(share) <= 3.0 else "MISMATCH"
    print(f"# layer self times sum to the traced time within {share:+.3f}% ({verdict})")
    return metrics


def main(argv=None) -> int:
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run one melsplit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        root = bootstrap.prepare()
    except bootstrap.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        workloads, ops, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        import numpy

        workload = workloads.WORKLOADS[args.workload]
        seed = args.seed % workloads.SEEDS
        stamp = {
            "workload": workload.name,
            "seed": args.seed,
            "workload_seed": seed,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": bootstrap.THREADS,
            "git_sha": git_sha(root),
            "src_sha256": source_digest(bootstrap.SRC),
        }
        print("# stamp " + json.dumps(stamp, sort_keys=True))
        gate = Gate(workload.name, seed, workloads.load_expected(workload.name), workloads.mismatch)
        if args.trace:
            section = "per_layer"
            trace_path = out_dir / f"trace-{workload.name}-{args.seed}.json"
            metrics = traced(workload, ops, gate, trace_path, stamp)
        else:
            section = "end_to_end"
            samples = [setup_s] + setup_samples(args)
            print("# setup_s samples " + json.dumps(samples))
            metrics = end_to_end(workload, ops, gate, args.seconds)
            metrics["setup_s"] = statistics.median(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 2
    for failure in gate.failures:
        print("# FAILED " + json.dumps(failure, sort_keys=True))
    failed = len(gate.failures)
    print(f"# error_rate = {failed / gate.attempted!r} ({failed} of {gate.attempted} operations failed)")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
