"""Per-layer timings of bandalloc's analysis functions.

Usage, from the root of a checkout:

    python3 benchmarks/bench_layers.py [--src DIR]

``--src`` names the directory bandalloc is imported from (default: this
checkout's ``src``), so one harness can time two revisions on the same machine.
A case is named after the function it times; where the ``--src`` tree lacks
that function, the case is reported as ``{"absent": true}`` instead.
Each case is one call on a fixed input: the S_hat dominant-system envelopes
and union-region section on the reference 2x2 scenario, three S_hat sweeps
(``randalloc.shat_envelope``: the reference scenario on the region-2x2
benchmark grid 0:0.175:0.025 and on 1e4 points from 0 to 0.7, and a jittered
copy of it, mu times [[1.03, 0.97], [0.98, 1.02]], on 6 points up to 0.98 of
its largest mu[:, 0], where 4 of the 6 dominant-1 sections lie strictly
between 0 and the largest mu[:, 1]), the S envelope LP on both
shipped scenarios, both as ``orthogonal.envelope_point`` and as the
``optim.solve_lp`` call it makes, the
max-slack assignment LP on both shipped scenarios, the padding and Birkhoff
decomposition of the 5x4 max-slack assignment
(``schedule.schedule_from_assignment``, which ``decompose`` and ``simulate
--system S`` call), a 21-point S sweep on the 5x4 scenario
(``orthogonal.sweep_envelope``) and the same sweep of the fixed system,
each both as a library sweep and as the whole ``envelope`` command through
``cli.main``, the S and fixed sweeps again over the same span in 1e5 points,
an S sweep of the reference 2x2 scenario's user 2 over 1e5 points from 0 to
0.7 (library sweeps only), a whole ``decompose`` command on the 5x4
scenario (user 2's largest rate with users 1, 3 and 4 at 0.2, 0.2 and 0.3,
as region-5x4's ``decompose`` commands pin them), four more whole commands on
the reference 2x2 scenario through ``cli.main`` (S ``envelope`` sweeps of 100
and of 2001 points, where the cost per point shows, a 29-point ``compare``
and a 1e5-slot ``simulate --system S`` at rates (0.3, 0.3)),
each with its output sent to the null device, a 1e5-slot ``sim.run``
of each policy on the reference 2x2 scenario at rates (0.3, 0.3), with the
policy ``simulate`` derives there (slots per second = 1e5 / the time per
call), and one more of random selection at 0.9x of the S_hat boundary point
of the sim-boundary-2x2 benchmark, where the contention fixed point takes the
most sweeps. ``timeit`` picks a loop count of at least 0.2 s per repeat; the
case reports the median and the minimum over ``_REPEAT`` (7) repeats, in
milliseconds per call. A case that pivots a simplex tableau also reports
``pivots``, the calls of ``optim._pivot`` in one untimed call: a count that
repeats exactly. Each call pivots one LP's tableau, in a two-phase solve or
in an S sweep's walk (``optim.solve_sweep``). The two 1e5-point
``orthogonal.sweep_envelope`` cases also report ``peak_mb``, the tracemalloc
peak of one untimed call in MB (1e6 bytes). A case that evaluates an S_hat
dominant-1 kernel likewise reports ``kernel_calls``, the calls of the
forward kernel ``randalloc._dominant1_envelopes`` and the inverse kernel
``randalloc._dominant1_sections`` together in one untimed call, and a case
that simulates reports ``reflections``, the calls of
``sim._reflect``: one per block for the primary queues, and one per block
for the secondary queues or, under random selection, one per user recomputed
in a contention sweep.
The output is one JSON object with the Python and numpy versions and the CPU
model next to the timings. Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import timeit
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_REPEAT = 7
_PEAK_CASES = ("orthogonal.sweep_envelope 5x4 1e5 points", "orthogonal.sweep_envelope 2x2 1e5 points")


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


def call_count(module, names, fn):
    """Calls of the functions ``names`` of ``module`` in one call of ``fn``, together.

    A name the tree lacks counts no calls; None where it has none of them.
    """
    originals = {name: getattr(module, name) for name in names if hasattr(module, name)}
    if not originals:
        return None
    count = 0

    def counting(original):
        def counted(*args):
            nonlocal count
            count += 1
            return original(*args)
        return counted

    for name, original in originals.items():
        setattr(module, name, counting(original))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(module, name, original)
    return count


def peak_mb(fn) -> float:
    """The tracemalloc peak of one call of ``fn``, in MB (1e6 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    finally:
        tracemalloc.stop()


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

    def at_rates(rates):
        return replace(ref_scenario, users=tuple(replace(u, arrival_rate_lambda_s=v)
                                                 for u, v in zip(ref_scenario.users, rates)))

    loaded = at_rates(lam)
    policies = {
        "orthogonal": sim.Policy.orthogonal(
            schedule.schedule_from_assignment(orthogonal.max_slack_assignment(ref, lam))[1]),
        "random": sim.Policy.random(randalloc.selection_for_rates(mu, lam)),
        "fixed": sim.Policy.fixed(fixedalloc.best_margin_mapping(ref, lam)),
    }
    config = sim.SimConfig(n_slots=100_000, seed=1)
    shat_lam1 = float(np.linspace(0.0, 0.44, 14)[7])
    shat_lam = [0.9 * shat_lam1, 0.9 * randalloc.shat_section_lambda2(mu, shat_lam1)]
    contended = at_rates(shat_lam)
    contended_policy = sim.Policy.random(randalloc.selection_for_rates(mu, shat_lam))
    grid = [i * 0.03 for i in range(21)]
    region_grid = [i * 0.025 for i in range(8)]  # 0:0.175:0.025 as the CLI builds it
    jittered = mu * np.array([[1.03, 0.97], [0.98, 1.02]])
    jitter_top = 0.98 * float(jittered[:, 0].max())
    jitter_grid = [i * (jitter_top / 5) for i in range(6)]
    long_grid = np.linspace(0.0, 0.7, 10_000).tolist()
    fixed_grid = np.linspace(0.0, 0.6, 100_000).tolist()  # the span of ``grid`` in 1e5 points
    s_long_grid = np.linspace(0.0, 0.7, 100_000).tolist()
    ref_path = str(ROOT / "scenarios" / "reference_2x2.json")
    ref_lp = envelope_lp(ref, [0.3, 0.0], 1)
    big_lp = envelope_lp(big, [0.0, 0.1, 0.1, 0.1], 0)
    commands = {
        f"envelope --system {system} 5x4 21 points": [
            "envelope", "--scenario", big_path, "--system", system, "--axis", "1",
            "--grid", "0:0.6:0.03", "--fixed", "3=0.2,4=0.3", "--json"]
        for system in ("fixed", "S")
    } | {
        "decompose 5x4": ["decompose", "--scenario", big_path, "--axis", "2", "--fixed", "1=0.2,3=0.2,4=0.3"],
        "envelope --system S 2x2 100 points": [
            "envelope", "--scenario", ref_path, "--system", "S", "--axis", "2", "--grid", "0:0.99:0.01"],
        "envelope --system S 2x2 2001 points": [
            "envelope", "--scenario", ref_path, "--system", "S", "--axis", "2", "--grid", "0:0.8:0.0004"],
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
        ("randalloc.shat_envelope 2x2 6 points jittered",
         lambda: randalloc.shat_envelope(jittered, 1, jitter_grid)),
        ("randalloc.shat_envelope 2x2 1e4 points", lambda: randalloc.shat_envelope(mu, 1, long_grid)),
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
        ("fixedalloc.sweep_envelope 5x4 1e5 points", lambda: fixedalloc.sweep_envelope(
            big, 0, fixed_grid, others=[0.0, 0.0, 0.2, 0.3], sweep_user=1)),
        ("orthogonal.sweep_envelope 5x4 1e5 points", lambda: orthogonal.sweep_envelope(
            big, 0, fixed_grid, others=[0.0, 0.0, 0.2, 0.3], sweep_user=1)),
        ("orthogonal.sweep_envelope 2x2 1e5 points", lambda: orthogonal.sweep_envelope(ref, 1, s_long_grid)),
    ] + [
        (f"cli.main {label}", lambda argv=argv: cli.main(argv + ["--out", os.devnull]))
        for label, argv in commands.items()
    ] + [
        (f"sim.run {kind} 1e5 slots", lambda p=policy: sim.run(loaded, p, config))
        for kind, policy in policies.items()
    ] + [
        ("sim.run random 1e5 slots at 0.9x the S_hat boundary",
         lambda: sim.run(contended, contended_policy, config)),
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
        for key, module, funcs in (("pivots", "optim", ["_pivot"]),
                                   ("kernel_calls", "randalloc",
                                    ["_dominant1_envelopes", "_dominant1_sections"]),
                                   ("reflections", "sim", ["_reflect"])):
            count = call_count(sys.modules[f"bandalloc.{module}"], funcs, fn)
            if count:
                results[name][key] = count
        if name in _PEAK_CASES:
            results[name]["peak_mb"] = peak_mb(fn)
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
