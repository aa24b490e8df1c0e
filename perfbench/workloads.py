"""Seeded inputs, CLI commands and output checks of the benchmark workloads.

Each workload turns a seed into a fixed batch of ``bandalloc`` CLI commands
plus the scenario files they read. The batch is the same for the same seed, so
repeating it only repeats identical work. Checks run on the JSON the commands
write and never on library internals; a check is one grid point or one
simulated rate pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bandalloc import fixedalloc, model, orthogonal, randalloc
from bandalloc.cli import load_scenario

# A failure listed here is still counted in ``failed``; it only does not make
# the run incorrect. The entry is the defect present at the commit the
# benchmark was introduced on: on the shipped reference scenario, at
# lambda_s1 = 0.17500000000000002 (0.175 as ``_parse_grid`` builds it from
# 0:0.7:0.025), S_hat gives 0.5906 while fixed gives 0.7875, so ``compare``
# reports a containment violation and exits 1. The cause is a tolerance
# mismatch: ``optim.maximize_fractional_1d`` rejects ``ratio > 1.0`` exactly,
# while ``fixedalloc.best_fixed_max`` accepts ``lambda <= mu + 1e-12``.
KNOWN_FAILURES = frozenset({"compare reference_2x2.json lambda_s1=0.17500000000000002"})
# The second known defect was found by the region-5x4 workload on generated
# scenarios: close to the S boundary, ``optim.solve_lp`` can return status
# "failed" (its tableau loses the 1e-9 feasibility it checks for), and
# ``orthogonal.envelope_point`` then raises "envelope LP unexpectedly failed",
# so the whole ``envelope --system S`` command fails. It hit one seed in ten
# (seed 7: five_by_four_jitter_28.json, grid 0:0.538...:0.0269..., users 3
# and 4 pinned at 0.2879 and 0.3779). A check whose label ends with
# KNOWN_FAILURE_SUFFIX is this defect.
KNOWN_FAILURE_SUFFIX = "raised RuntimeError: envelope LP unexpectedly failed"


def is_known_failure(label: str) -> bool:
    return label in KNOWN_FAILURES or label.endswith(KNOWN_FAILURE_SUFFIX)

SIM_INSIDE, SIM_OUTSIDE = 0.9, 1.1
# Generated scenarios are the shipped ones with every entry scaled by up to
# this share. Cost per command moves with a scenario's shape (see the region
# workloads), so small jitters keep the cost of a batch the same from seed to
# seed while every seed still gets its own inputs.
JITTER = 0.05


@dataclass(frozen=True)
class Op:
    """One CLI command; ``kind`` groups commands for latency medians."""

    kind: str
    argv: tuple[str, ...]


@dataclass
class Batch:
    """The commands of one workload and seed, and how to check their output.

    ``check`` takes one ``(exit status or error, parsed JSON or None)`` pair per op, in
    op order, and returns ``(label, passed)`` per check. ``slots`` is the
    number of simulated slots in one batch.
    """

    ops: list[Op]
    warmup: tuple[str, ...]
    slots: int
    check: Callable[[list[tuple[int | str, dict | None]]], list[tuple[str, bool]]]


def _write_scenario(path: Path, pi, pbar_rows) -> None:
    doc = {
        "mode": "abstract",
        "bands": [{"availability_pi": float(p)} for p in pi],
        "users": [
            {"arrival_rate_lambda_s": 0.0, "out_complement_row": [float(v) for v in row]}
            for row in pbar_rows
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _abstract_mu(path: Path) -> np.ndarray:
    """mu[j, k] = pi[j] * Pbar[k][j], read from the scenario file itself."""
    doc = json.loads(path.read_text())
    pi = np.array([b["availability_pi"] for b in doc["bands"]])
    pbar = np.array([u["out_complement_row"] for u in doc["users"]])
    return pi[:, None] * pbar.T


def _jittered_copies(shipped: Path, count: int, tmp: Path, rng: np.random.Generator) -> list[Path]:
    """Scenario files whose pi and Pbar entries are the shipped ones times U(1 - JITTER, 1 + JITTER)."""
    doc = json.loads(shipped.read_text())
    pi = np.array([b["availability_pi"] for b in doc["bands"]])
    pbar = np.array([u["out_complement_row"] for u in doc["users"]])
    paths = []
    for i in range(count):
        path = tmp / f"{shipped.stem}_jitter_{i}.json"
        _write_scenario(path, *(np.minimum(a * rng.uniform(1 - JITTER, 1 + JITTER, a.shape), 1.0)
                                for a in (pi, pbar)))
        paths.append(path)
    return paths


def _grid_spec(stop: float, intervals: int) -> str:
    return f"0:{stop!r}:{stop / intervals!r}"


def _exit_ok(outputs) -> list[bool]:
    return [rc == 0 and doc is not None for rc, doc in outputs]


# --- sim-boundary-2x2 --------------------------------------------------------
# Why: sim.run is about 97% of each simulate op on the reference scenario, so
# simulator work shows here. Rate pairs sit at 0.9x and 1.1x of analytic
# boundary points of S, S_hat and fixed. The 0.9x half keeps queues short and
# the 1.1x half keeps them growing, so a change whose cost depends on backlog
# shows on one half. The candidate points are the ones acceptance criterion 7
# uses (it leaves out razor-thin stretches, where a 10% step is too small a
# drift to classify at 1e5 slots); check_sim_points.py shows that every one of
# them classifies as expected on ten simulation seeds. The workload runs one
# fixed point per system, in the middle of its first stretch, and the seed
# draws the simulation seeds; a seed-drawn point set would move the cost of a
# batch by up to 10% from seed to seed. Six commands make a short batch, so
# each command is timed many times in a run (see worker._end_to_end).
SIM_CANDIDATES = {
    "S": np.linspace(0.0, 0.7, 20),
    "S_hat": np.concatenate([np.linspace(0.0, 0.44, 14), np.linspace(0.67, 0.7, 6)]),
    "fixed": np.concatenate([np.linspace(0.0, 0.175, 12), np.linspace(0.67, 0.7, 8)]),
}
SIM_CHOSEN = {"S": (9,), "S_hat": (7,), "fixed": (6,)}
SIM_SLOTS = 100_000  # the CLI default; the commands do not pass --slots


def sim_boundary_point(system: str, rates: model.RateMatrix, lam1: float) -> tuple[float, float]:
    """Analytic boundary point (lambda_s1, lambda_s2 max) of one system."""
    if system == "S":
        lam2 = orthogonal.envelope_point(rates, [lam1, 0.0], 1).max_rate
    elif system == "S_hat":
        lam2 = randalloc.shat_section_lambda2(rates.mu, lam1)
    else:
        lam2 = fixedalloc.best_fixed_max(rates, [lam1, 0.0], 1)[0]
    return lam1, float(lam2)


def simulate_argv(scenario: Path, system: str, pair, seed: int, slots: int | None = None) -> tuple[str, ...]:
    argv = ["simulate", "--scenario", str(scenario), "--system", system,
            "--fixed", f"1={pair[0]!r},2={pair[1]!r}", "--seed", str(seed)]
    if slots is not None:
        argv += ["--slots", str(slots)]
    return tuple(argv)


def scaled_pair(boundary, factor: float) -> tuple[float, float]:
    return tuple(min(factor * v, 1.0) for v in boundary)


def simulate_checks(doc: dict | None, inside: bool) -> bool:
    """Verdicts as the region predicts, and exact conservation on every queue."""
    if doc is None:
        return False
    result = doc["result"]
    verdicts = result["verdicts_secondary"]
    if inside and not all(v == "stable" for v in verdicts):
        return False
    if not inside and "unstable" not in verdicts:
        return False
    return all(q["arrivals"] == q["departures"] + q["final_length"]
               for q in result["primary"] + result["secondary"])


def build_sim_boundary(seed: int, root: Path, tmp: Path) -> Batch:
    scenario = root / "scenarios" / "reference_2x2.json"
    rates = model.rate_matrix(load_scenario(str(scenario))[0])
    rng = np.random.default_rng(seed)
    ops, labels, inside = [], [], []
    for system, chosen in SIM_CHOSEN.items():
        for index in chosen:
            boundary = sim_boundary_point(system, rates, float(SIM_CANDIDATES[system][index]))
            for factor in (SIM_INSIDE, SIM_OUTSIDE):
                sim_seed = int(rng.integers(0, 2**31))
                ops.append(Op(f"simulate {system}",
                              simulate_argv(scenario, system, scaled_pair(boundary, factor), sim_seed)))
                labels.append(f"simulate {system} {factor}x lambda_s1={boundary[0]!r}")
                inside.append(factor == SIM_INSIDE)

    def check(outputs):
        status = _exit_ok(outputs)
        return [(label, ok and simulate_checks(doc, ins))
                for label, ok, ins, (_, doc) in zip(labels, status, inside, outputs)]

    warmup = simulate_argv(scenario, "S", (0.1, 0.1), 0, slots=2_000)
    return Batch(ops, warmup, SIM_SLOTS * len(ops), check)


# --- region-2x2 --------------------------------------------------------------
# Why: the S_hat section is about 99% of a compare, 24-180 ms per grid point
# depending on whether its bisection runs, so a faster dominant-system
# envelope shows here. sim never runs, so a simulator change should leave this
# workload unchanged. The shipped reference scenario runs over 0:0.175:0.025,
# whose last point is the known edge point as 0:0.7:0.025 builds it too (see
# KNOWN_FAILURES); the shorter grid keeps the batch short, so each command
# is timed many times in a run. The generated
# scenarios are seeded jitters of it, swept from 0 to just under user 1's
# single-user maximum. How often the bisection runs depends on a scenario's
# shape (3 against about 16 dominant-system envelopes per point on fully
# random 2x2 scenarios), and so does the cost of each envelope.
REGION_2X2_GENERATED = 2
REGION_2X2_INTERVALS = 5
REGION_2X2_REFERENCE_GRID = "0:0.175:0.025"


def build_region_2x2(seed: int, root: Path, tmp: Path) -> Batch:
    rng = np.random.default_rng(seed)
    shipped = root / "scenarios" / "reference_2x2.json"
    generated = _jittered_copies(shipped, REGION_2X2_GENERATED, tmp, rng)
    scenarios = [shipped, *generated]
    grids = [REGION_2X2_REFERENCE_GRID]
    grids += [_grid_spec(0.98 * float(_abstract_mu(p)[:, 0].max()), REGION_2X2_INTERVALS) for p in generated]
    ops = [Op("compare", ("compare", "--scenario", str(s), "--grid", g)) for s, g in zip(scenarios, grids)]

    def check(outputs):
        results = []
        for path, (rc, doc) in zip(scenarios, outputs):
            if doc is None:
                results.append((f"compare {path.name} output", False))
                continue
            mu = _abstract_mu(path)
            violations = doc["violations"]
            if rc != (1 if any(violations) else 0):
                results.append((f"compare {path.name} exit status {rc}", False))
            for lam1, s_val, row_v in zip(doc["grid"], doc["systems"]["S"], violations):
                closed = orthogonal.two_by_two_closed_form(mu, lam1)
                s_ok = (s_val is None) == (closed is None) and (
                    s_val is None or abs(s_val - closed[1]) <= 1e-9)
                results.append((f"compare {path.name} lambda_s1={lam1!r}", s_ok and not row_v))
        return results

    warmup_grid = _grid_spec(0.5 * float(_abstract_mu(generated[0])[:, 0].max()), 1)
    warmup = ("compare", "--scenario", str(generated[0]), "--grid", warmup_grid)
    return Batch(ops, warmup, 0, check)


# --- region-5x4 --------------------------------------------------------------
# Why: solve_lp is about 93% of an S sweep at 5 bands / 4 users, so the LP
# layer shows here at a larger size than in region-2x2. The fixed sweep scans
# 120 mappings per grid point and decompose runs a 5x5 Birkhoff decomposition;
# they are the minor layers. No randalloc and no sim run here. Users 3 and 4
# are pinned at seed-drawn rates that some fixed mapping supports, and every
# grid stops just inside user 1's largest rate under S, so all three commands
# have feasible work at every point. The simplex pivot count, and with it the
# cost of a sweep, moves a lot with the scenario and the pinned rates (a
# standard deviation of 36% of the mean over fully random scenarios at one
# pinned share, 17% over 20% jitters of five_by_four.json), so the generated
# scenarios are seeded jitters of five_by_four.json, the pinned shares are
# spread evenly over their range, and a batch holds many short sweeps.
REGION_5X4_GENERATED = 31
REGION_5X4_INTERVALS = 20
REGION_5X4_SHARE = (0.4, 0.7)


def _pins(mu: np.ndarray, share: float) -> tuple[float, float]:
    """Rates for users 3 and 4 at ``share`` of the best two-band fixed mapping's rates."""
    best = max(
        (min(mu[j3, 2], mu[j4, 3]), j3, j4)
        for j3 in range(mu.shape[0]) for j4 in range(mu.shape[0]) if j3 != j4
    )
    return share * float(mu[best[1], 2]), share * float(mu[best[2], 3])


def _independent_envelope(mu: np.ndarray, lam: list[float], k: int) -> float | None:
    """User k's largest rate under system S with the other rates fixed (scipy HiGHS)."""
    from scipy.optimize import linprog

    m_p, m_s = mu.shape
    c = np.zeros((m_p, m_s))
    c[:, k] = -mu[:, k]
    rows, rhs = [], []
    for j in range(m_p):
        a = np.zeros((m_p, m_s))
        a[j, :] = 1.0
        rows.append(a.ravel())
        rhs.append(1.0)
    for l in range(m_s):
        a = np.zeros((m_p, m_s))
        a[:, l] = 1.0
        rows.append(a.ravel())
        rhs.append(1.0)
        if l != k:
            a = np.zeros((m_p, m_s))
            a[:, l] = -mu[:, l]
            rows.append(a.ravel())
            rhs.append(-lam[l])
    res = linprog(c.ravel(), A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(0.0, 1.0), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def _schedule_ok(doc: dict) -> bool:
    """The schedule's marginals reproduce omega, plus padding only where omega left slack.

    With more bands than users, omega's row slack can exceed what the virtual
    user column holds; ``schedule.pad_to_doubly_stochastic`` then adds the rest
    on bands and users that omega leaves partly idle. So the marginals must
    equal the real block of the padded matrix within 1e-9, and that block may
    exceed omega only in cells whose band and user both have slack in omega.
    """
    omega = np.array(doc["omega"])
    m_p, m_s = omega.shape
    real = np.array(doc["padded"])[:m_p, :m_s]
    marginal = np.zeros_like(omega)
    for entry in doc["schedule"]["entries"]:
        for user, band in enumerate(entry["assignment"]):
            if band:
                marginal[band - 1, user] += entry["weight"]
    added = real - omega
    slack = (omega.sum(axis=1) < 1 - 1e-9)[:, None] & (omega.sum(axis=0) < 1 - 1e-9)[None, :]
    return bool(np.all(np.abs(marginal - real) <= 1e-9) and np.all(added >= -1e-9)
                and np.all((added <= 1e-9) | slack))


def build_region_5x4(seed: int, root: Path, tmp: Path) -> Batch:
    rng = np.random.default_rng(seed)
    shipped = root / "scenarios" / "five_by_four.json"
    scenarios = [shipped, *_jittered_copies(shipped, REGION_5X4_GENERATED, tmp, rng)]
    lo, hi = REGION_5X4_SHARE
    ops = []
    for i, path in enumerate(scenarios):
        rates = model.rate_matrix(load_scenario(str(path))[0])
        p3, p4 = _pins(rates.mu, lo + (hi - lo) * (i + 0.5) / len(scenarios))
        top1 = orthogonal.envelope_point(rates, [0.0, 0.0, p3, p4], 0).max_rate
        grid = _grid_spec(0.98 * top1, REGION_5X4_INTERVALS)
        pinned = f"3={p3!r},4={p4!r}"
        for system in ("S", "fixed"):
            ops.append(Op(f"envelope {system}", ("envelope", "--scenario", str(path), "--system", system,
                                                 "--axis", "2", "--grid", grid, "--fixed", pinned)))
        lam1 = rng.uniform(0.2, 0.8) * top1
        ops.append(Op("decompose", ("decompose", "--scenario", str(path), "--axis", "2",
                                    "--fixed", f"1={lam1!r},{pinned}")))

    def check(outputs):
        results = []
        status = _exit_ok(outputs)
        for i, path in enumerate(scenarios):
            mu = _abstract_mu(path)
            (_, s_doc), (_, f_doc), (_, d_doc) = outputs[3 * i: 3 * i + 3]
            if not all(status[3 * i: 3 * i + 3]):
                errors = [f"{op.kind} {'exit status ' if isinstance(rc, int) else ''}{rc}"
                          for op, ok, (rc, _) in zip(ops[3 * i: 3 * i + 3], status[3 * i: 3 * i + 3],
                                                     outputs[3 * i: 3 * i + 3]) if not ok]
                results.append((f"region-5x4 {path.name} {'; '.join(errors)}", False))
                continue
            pins = s_doc["fixed"]
            for lam1, s_val, f_val in zip(s_doc["grid"], s_doc["values"], f_doc["values"]):
                lam = [lam1, 0.0, pins["3"], pins["4"]]
                ref = _independent_envelope(mu, lam, 1)
                s_ok = (s_val is None) == (ref is None) and (s_val is None or abs(s_val - ref) <= 1e-7)
                f_ok = f_val is None or (s_val is not None and f_val <= s_val + 1e-9)
                results.append((f"envelope {path.name} lambda_s1={lam1!r}", s_ok and f_ok))
            results.append((f"decompose {path.name}", _schedule_ok(d_doc)))
        return results

    warmup = ("decompose",) + ops[2].argv[1:]
    return Batch(ops, warmup, 0, check)


BATCHES = {
    "sim-boundary-2x2": build_sim_boundary,
    "region-2x2": build_region_2x2,
    "region-5x4": build_region_5x4,
}

