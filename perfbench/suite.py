"""Run every workload, print every metric by name with its unit, gate correctness.

    python3 perfbench/suite.py                      # each workload once, seed 1, plus a traced run
    python3 perfbench/suite.py --runs 10 --baseline perfbench/baseline.json

Each run is its own process (``run.py``), started only after the previous
one has exited. With ``--runs N`` every workload runs on seeds 1..N; the
summary gives each end-to-end metric's median, quartiles and spread
(interquartile range over median) against the bound in ``BENCHMARK.json``.
The traced run uses seed 1. ``--baseline`` writes the summary as JSON. The
exit code is 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    # Exit code 1 means some operations failed; the result line still counts them.
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = next(json.loads(line[8:]) for line in lines if line.startswith("# stamp "))
    return result


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0, "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run every melsplit benchmark workload.")
    parser.add_argument("--runs", type=int, default=1, help="end-to-end runs per workload (seeds 1..N)")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--baseline", help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    failed = 0
    for workload in args.workloads:
        results = [run_once(workload, seed, spec["run_seconds"], 0) for seed in range(1, args.runs + 1)]
        if not args.no_trace:
            results.append(run_once(workload, 1, spec["run_seconds"], 1))
        entry: dict = {"stamp": results[0]["stamp"], "end_to_end": {}, "per_layer": {}}
        for result in results:
            failed += result["failed"]
            print(f"{workload} seed {result['stamp']['seed']} trace {result['stamp']['trace']}: "
                  f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name in bounds:
            stats = summarize([r["metrics"][name]["value"] for r in results if name in r["metrics"]])
            entry["end_to_end"][name] = stats
            verdict = "ok" if stats["spread"] <= bounds[name] / 3 else "WIDE"
            print(f"  {name:32s} median {stats['median']:.6g} {units[name]}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f} "
                  f"(bound {bounds[name]}) {verdict}", flush=True)
        traced = [r for r in results if r["stamp"]["trace"] == 1]
        for result in traced:
            for name, metric in result["metrics"].items():
                entry["per_layer"][name] = metric["value"]
                print(f"  {name:32s} {metric['value']!r} {metric['unit']}")
        summary["workloads"][workload] = entry

    if args.baseline:
        summary["machine"] = {"python": platform.python_version(), "platform": platform.platform()}
        Path(args.baseline).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {args.baseline}")
    print(f"{failed} failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
