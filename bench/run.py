"""Benchmark entry point.

    python3 bench/run.py --workload {paper,control,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a ctmflow checkout; the program is imported from its
``src/``. Each workload runs in a fresh process with OpenBLAS/OpenMP
pinned to one thread. ``setup_s`` is the median over that process and
``SETUP_PROBES`` set-up-only processes. The last line of standard output
is the result object; details go to standard error. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper", "control", "sweep")
SETUP_PROBES = 4
TIMEOUT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args, extra: list) -> dict:
    """Run bench/workload.py in a fresh process; return its result line."""
    env = {**os.environ, **PINNED}
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(started)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S - (started - args.t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"workload process timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.exit(f"workload process exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    args.t0 = time.monotonic()
    if not (ROOT / "src" / "ctmflow" / "cli.py").is_file():
        sys.exit(f"no ctmflow sources under {ROOT / 'src'}: run from a ctmflow checkout")
    setups = []
    if not args.trace:
        setups = [spawn(args, ["--probe"])["setup_s"] for _ in range(SETUP_PROBES)]
    result = spawn(args, [])
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(json.dumps({"setup_samples_s": setups}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
