"""Record the expected outputs of the current code for every shipped seed.

    python3 perfbench/record.py --workload sweep_default

Writes ``perfbench/expected/<workload>.json``: one entry per operation key
(master seed for sweeps, pair index for verify_stream). Run it only on a
commit whose outputs are the reference; the benchmark's correctness gate
compares every later run against these files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    root = bootstrap.prepare()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    expected: dict[str, dict] = {}
    for seed in range(workloads.SEEDS):
        workdir = tempfile.mkdtemp(prefix="record-", dir=out_dir)
        try:
            for op in workload.build(seed, Path(workdir)):
                if op.key not in expected:
                    expected[op.key] = op.outputs(op.call())
                    print(f"{args.workload} {op.key}: {expected[op.key].get('exit_code', 'ok')}", flush=True)
        finally:
            shutil.rmtree(workdir)
    path = workloads.EXPECTED_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(expected, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(expected)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
