"""Run every workload over several seeds and summarise the runs.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --out FILE [--seeds 1-10] [--seconds N]

Each workload of BENCHMARK.json runs once per seed untraced and once traced
(first seed), for BENCHMARK.json's run_seconds unless --seconds is given. For
every end-to-end metric the summary gives the values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share of
the median, which is the spread BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0][2:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            result, provenance = _run(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, **result})
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": values}
        traced, _ = _run(workload, _seeds(args.seeds)[0], args.seconds, 1)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        summary["provenance"] = {k: provenance[k]
                                 for k in ("git_commit", "python", "numpy", "cpu_model", "nproc", "env")}
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, doc in summary["workloads"].items():
        for name, m in doc["metrics"].items():
            print(f"{workload:18s} {name:12s} median {m['median']:.6g} {m['unit']:3s} "
                  f"spread {m['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
