"""Per-layer timings of bandalloc's analysis functions.

Usage, from the root of a checkout:

    python3 benchmarks/bench_layers.py [--src DIR]

``--src`` names the directory bandalloc is imported from (default: this
checkout's ``src``), so one harness can time two revisions on the same machine.
A case is named after the function it times; where the ``--src`` tree lacks
that function, the case is reported as ``{"absent": true}`` instead.
Each case is one call on a fixed input: the S_hat dominant-system envelopes
and union-region section on the reference 2x2 scenario, two S_hat sweeps
(``randalloc.shat_envelope``: the reference scenario on the region-2x2
benchmark grid 0:0.175:0.025, and a jittered copy of it, mu times
[[1.03, 0.97], [0.98, 1.02]], on 6 points up to 0.98 of its largest
mu[:, 0], where 4 of the 6 sections bisect), the S envelope LP on both
shipped scenarios, both as ``orthogonal.envelope_point`` and as the
``optim.solve_lp`` call it makes, the max-slack assignment LP on both
shipped scenarios, the padding and Birkhoff
decomposition of the 5x4 max-slack assignment
(``schedule.schedule_from_assignment``, which ``decompose`` and ``simulate
--system S`` call), a 21-point S sweep on the 5x4 scenario
(``orthogonal.sweep_envelope``) and the same sweep of the fixed system,
each both as a library sweep and as the whole ``envelope`` command through
``cli.main``, three more whole commands on the reference 2x2
scenario through ``cli.main`` (a 100-point S ``envelope`` sweep, a 29-point
``compare`` and a 1e5-slot ``simulate --system S`` at rates (0.3, 0.3)),
each with its output sent to the null device, and a 1e5-slot ``sim.run``
of each policy on the reference 2x2 scenario at rates (0.3, 0.3), with the
policy ``simulate`` derives there (slots per second = 1e5 / the time per
call). ``timeit`` picks a loop count of at least 0.2 s per repeat; the case
reports the median and the minimum over ``_REPEAT`` (7) repeats, in
milliseconds per call. The output is one JSON object with the Python and
numpy versions and the CPU model next to the timings. Not part of the test
suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import timeit
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_REPEAT = 7


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def envelope_lp(rates, lam, k):
    """The LpProblem that ``orthogonal.envelope_point(rates, lam, k)`` hands to ``optim.solve_lp``."""
    from bandalloc import optim, orthogonal

    seen = []
    solve = optim.solve_lp
    optim.solve_lp = lambda problem: seen.append(problem) or solve(problem)
    try:
        orthogonal.envelope_point(rates, lam, k)
    finally:
        optim.solve_lp = solve
    return seen[0]


def cases():
    """(name, zero-argument callable) for each timed call."""
    from bandalloc import cli, fixedalloc, model, optim, orthogonal, randalloc, schedule, sim

    ref_scenario = cli.load_scenario(str(ROOT / "scenarios" / "reference_2x2.json"))[0]
    ref = model.rate_matrix(ref_scenario)
    big_path = str(ROOT / "scenarios" / "five_by_four.json")
    big = model.rate_matrix(cli.load_scenario(big_path)[0])
    mu = ref.mu
    lam = [0.3, 0.3]
    big_lam = [0.1, 0.1, 0.1, 0.1]
    big_omega = orthogonal.max_slack_assignment(big, big_lam)
    loaded = replace(ref_scenario, users=tuple(replace(u, arrival_rate_lambda_s=v)
                                               for u, v in zip(ref_scenario.users, lam)))
    policies = {
        "orthogonal": sim.Policy.orthogonal(
            schedule.schedule_from_assignment(orthogonal.max_slack_assignment(ref, lam))[1]),
        "random": sim.Policy.random(randalloc.selection_for_rates(mu, lam)),
        "fixed": sim.Policy.fixed(fixedalloc.best_margin_mapping(ref, lam)),
    }
    config = sim.SimConfig(n_slots=100_000, seed=1)
    grid = [i * 0.03 for i in range(21)]
    region_grid = [i * 0.025 for i in range(8)]  # 0:0.175:0.025 as the CLI builds it
    jittered = mu * np.array([[1.03, 0.97], [0.98, 1.02]])
    jitter_top = 0.98 * float(jittered[:, 0].max())
    jitter_grid = [i * (jitter_top / 5) for i in range(6)]
    ref_path = str(ROOT / "scenarios" / "reference_2x2.json")
    ref_lp = envelope_lp(ref, [0.3, 0.0], 1)
    big_lp = envelope_lp(big, [0.0, 0.1, 0.1, 0.1], 0)
    commands = {
        f"envelope --system {system} 5x4 21 points": [
            "envelope", "--scenario", big_path, "--system", system, "--axis", "1",
            "--grid", "0:0.6:0.03", "--fixed", "3=0.2,4=0.3", "--json"]
        for system in ("fixed", "S")
    } | {
        "envelope --system S 2x2 100 points": [
            "envelope", "--scenario", ref_path, "--system", "S", "--axis", "2", "--grid", "0:0.99:0.01"],
        "compare 2x2 29 points": ["compare", "--scenario", ref_path, "--grid", "0:0.7:0.025"],
        "simulate --system S 2x2 1e5 slots": [
            "simulate", "--scenario", ref_path, "--system", "S", "--fixed", "1=0.3,2=0.3",
            "--slots", "100000", "--seed", "1"],
    }
    return [
        ("randalloc.dominant1_envelope_2x2", lambda: randalloc.dominant1_envelope_2x2(mu, 0.3)),
        ("randalloc.dominant2_envelope_2x2", lambda: randalloc.dominant2_envelope_2x2(mu, 0.3)),
        ("randalloc.shat_section_lambda2", lambda: randalloc.shat_section_lambda2(mu, 0.3)),
        ("randalloc.shat_envelope 2x2 8 points", lambda: randalloc.shat_envelope(mu, 1, region_grid)),
        ("randalloc.shat_envelope 2x2 6 points bisecting",
         lambda: randalloc.shat_envelope(jittered, 1, jitter_grid)),
        ("orthogonal.envelope_point 2x2", lambda: orthogonal.envelope_point(ref, [0.3, 0.0], 1)),
        ("orthogonal.envelope_point 5x4", lambda: orthogonal.envelope_point(big, [0.0, 0.1, 0.1, 0.1], 0)),
        ("optim.solve_lp 2x2 envelope LP", lambda: optim.solve_lp(ref_lp)),
        ("optim.solve_lp 5x4 envelope LP", lambda: optim.solve_lp(big_lp)),
        ("orthogonal.max_slack_assignment 2x2", lambda: orthogonal.max_slack_assignment(ref, lam)),
        ("orthogonal.max_slack_assignment 5x4", lambda: orthogonal.max_slack_assignment(big, big_lam)),
        ("schedule.schedule_from_assignment 5x4",
         lambda: schedule.schedule_from_assignment(big_omega)),
        ("orthogonal.sweep_envelope 5x4 21 points", lambda: orthogonal.sweep_envelope(
            big, 0, grid, others=[0.0, 0.0, 0.2, 0.3], sweep_user=1)),
        ("fixedalloc.sweep_envelope 5x4 21 points", lambda: fixedalloc.sweep_envelope(
            big, 0, grid, others=[0.0, 0.0, 0.2, 0.3], sweep_user=1)),
    ] + [
        (f"cli.main {label}", lambda argv=argv: cli.main(argv + ["--out", os.devnull]))
        for label, argv in commands.items()
    ] + [
        (f"sim.run {kind} 1e5 slots", lambda p=policy: sim.run(loaded, p, config))
        for kind, policy in policies.items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-layer timings of bandalloc")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory to import bandalloc from")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    results = {}
    for name, fn in cases():
        module, func = name.split()[0].rsplit(".", 1)
        if not hasattr(sys.modules[f"bandalloc.{module}"], func):
            results[name] = {"absent": True}
            continue
        timer = timeit.Timer(fn)
        number, _ = timer.autorange()
        per_call = [t / number * 1e3 for t in timer.repeat(repeat=_REPEAT, number=number)]
        results[name] = {
            "median_ms": round(statistics.median(per_call), 4),
            "min_ms": round(min(per_call), 4),
            "calls_per_repeat": number,
            "repeats": _REPEAT,
        }
    doc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "timings": results,
    }
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
