"""Benchmark of the bandalloc CLI: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen): sim-boundary-2x2,
region-2x2, region-5x4. With ``--trace 0`` the run reports the end-to-end
metrics: setup_s, wall_s and peak_rss_mb, followed by the median latency of
each command kind, slots or grid points per second and failed_frac. With ``--trace 1`` a separate run reports per-layer metrics from
spans around bandalloc's public functions (tracing.py).

Each workload runs in its own fresh single-threaded process (worker.py) with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1. Set-up is measured in that
process and in SETUP_PROBES more fresh processes, half of them before it and
half after, and reported as the median.
``attempted`` counts output checks (one per grid point or simulated rate
pair) and ``failed`` the checks that failed; ``correct`` is false when a check
fails that is not a known defect (workloads.is_known_failure). Every
metric is printed with its unit and sample count; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. A copy of
the full result, with provenance, goes to .perfbench-out/.
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

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sim-boundary-2x2", "region-2x2", "region-5x4")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def _worker(args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bandalloc CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    for needed in (ROOT / "src" / "bandalloc" / "cli.py", ROOT / "scenarios" / "reference_2x2.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = SETUP_PROBES if not args.trace else 0
        setups = [_worker(args, ["--setup-only"], deadline - time.monotonic())["setup_s"]
                  for _ in range(probes // 2)]
        result = _worker(args, [], deadline - time.monotonic())
        setups += [_worker(args, ["--setup-only"], deadline - time.monotonic())["setup_s"]
                   for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)}, **metrics}
    result["metrics"] = metrics
    result["provenance"]["setup_samples_s"] = setups

    print(f"# {json.dumps(result['provenance'], sort_keys=True)}")
    for name, m in {**metrics, **result["info"]}.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']:<6} n={m['n']}")
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / out_name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
