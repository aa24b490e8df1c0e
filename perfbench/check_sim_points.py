"""Show that every candidate sim-boundary-2x2 point classifies as expected.

Usage, from the root of a checkout:

    python3 perfbench/check_sim_points.py [--seeds 10]

For each candidate boundary point of workloads.SIM_CANDIDATES (the chosen
ones are marked), the 0.9x rate pair
must give all secondary verdicts ``stable`` and the 1.1x pair some verdict
``unstable``, with exact conservation, on every simulation seed 0..seeds-1.
The commands are the ones the workload runs. Writes
perfbench/sim_points_evidence.json and exits 1 if any point misses.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bandalloc import cli, model  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    scenario = ROOT / "scenarios" / "reference_2x2.json"
    rates = model.rate_matrix(cli.load_scenario(str(scenario))[0])
    rows, misses = [], 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        out = Path(tmp) / "out.json"
        for system, candidates in workloads.SIM_CANDIDATES.items():
            for index, lam1 in enumerate(candidates):
                boundary = workloads.sim_boundary_point(system, rates, float(lam1))
                row = {"system": system, "index": index, "chosen": index in workloads.SIM_CHOSEN[system],
                       "boundary": boundary, "failing_seeds": {}}
                for factor in (workloads.SIM_INSIDE, workloads.SIM_OUTSIDE):
                    bad = []
                    for seed in range(args.seeds):
                        argv_ = workloads.simulate_argv(scenario, system,
                                                        workloads.scaled_pair(boundary, factor), seed)
                        rc = cli.main(list(argv_) + ["--json", "--out", str(out)])
                        doc = json.loads(out.read_text()) if rc == 0 else None
                        if not workloads.simulate_checks(doc, factor == workloads.SIM_INSIDE):
                            bad.append(seed)
                    row["failing_seeds"][f"{factor}x"] = bad
                    misses += len(bad)
                print(json.dumps(row), flush=True)
                rows.append(row)
    doc = {"seeds": list(range(args.seeds)), "misses": misses, "points": rows}
    (ROOT / "perfbench" / "sim_points_evidence.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
