"""Slot-level Monte Carlo simulator of the three MAC policies.

Per slot, in event order: the controller/users pick bands (orthogonal: one
schedule draw; random: each backlogged user draws from its selection column;
fixed: static), every backlogged primary user transmits and departs with its
link-success probability, every backlogged secondary user transmits iff its
band's primary queue was empty at the slot start (perfect sensing) and - under
random selection - no other backlogged user picked the same band, and finally
Bernoulli arrivals are appended (late-arrival model: a packet arriving in slot
t is servable from slot t+1).

Randomness is bit-reproducible: two substreams are derived deterministically
from the seed. The primary stream drives PU outcome draws then PU arrival
draws (ascending band index), so primary trajectories are identical across
policies; the secondary stream drives assignment draws, then SU outcome draws
(ascending user index), then SU arrival draws. Draws are consumed only when an
event needs one (backlogged queue, attempted transmission, nonzero arrival
rate).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

from . import model
from .fixedalloc import FixedMapping
from .model import ConfigurationError, Scenario
from .randalloc import SelectionMatrix
from .schedule import PermutationSchedule, sample_permutation

# Stability surrogate thresholds (packets/slot for the fitted slope; fraction of
# the post-warmup horizon for the terminal backlog).
SLOPE_STABLE = 0.005
SLOPE_UNSTABLE = 0.02
BACKLOG_FRACTION = 0.05

_PRIMARY_STREAM_SALT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class Policy:
    """Band-allocation policy: exactly one of schedule/selection/mapping per kind."""

    kind: str
    schedule: PermutationSchedule | None = None
    selection: SelectionMatrix | None = None
    mapping: FixedMapping | None = None

    def __post_init__(self) -> None:
        expected = {"orthogonal": "schedule", "random": "selection", "fixed": "mapping"}
        if self.kind not in expected:
            raise ConfigurationError(f"unknown policy kind {self.kind!r}")
        payload = {"schedule": self.schedule, "selection": self.selection, "mapping": self.mapping}
        for name, value in payload.items():
            if (value is None) == (name == expected[self.kind]):
                raise ConfigurationError(f"{self.kind} policy must set exactly {expected[self.kind]}")

    @classmethod
    def orthogonal(cls, schedule: PermutationSchedule) -> "Policy":
        return cls(kind="orthogonal", schedule=schedule)

    @classmethod
    def random(cls, selection: SelectionMatrix | np.ndarray) -> "Policy":
        if not isinstance(selection, SelectionMatrix):
            selection = SelectionMatrix(selection)
        return cls(kind="random", selection=selection)

    @classmethod
    def fixed(cls, mapping: FixedMapping | tuple[int, ...]) -> "Policy":
        if not isinstance(mapping, FixedMapping):
            mapping = FixedMapping(tuple(mapping))
        return cls(kind="fixed", mapping=mapping)


@dataclass(frozen=True)
class SimConfig:
    """Run length, warmup, seed and trace stride. Verdicts want n_slots >= 1e4."""

    n_slots: int
    seed: int
    warmup: int | None = None
    trace_stride: int | None = None

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ConfigurationError("n_slots must be >= 1")
        warmup = self.n_slots // 10 if self.warmup is None else self.warmup
        stride = max(1, self.n_slots // 2000) if self.trace_stride is None else self.trace_stride
        if not 0 <= warmup < self.n_slots:
            raise ConfigurationError("warmup must satisfy 0 <= warmup < n_slots")
        if stride < 1:
            raise ConfigurationError("trace_stride must be >= 1")
        object.__setattr__(self, "warmup", warmup)
        object.__setattr__(self, "trace_stride", stride)


@dataclass(frozen=True)
class QueueStats:
    arrivals: int
    departures: int
    final_length: int


@dataclass(frozen=True)
class SimResult:
    """Counters, sampled traces and verdicts of one run.

    Conservation holds exactly per queue: arrivals == departures + final_length.
    ``trace_slots[i]`` is the slot index whose end-of-slot backlog is stored in
    row i of the traces.
    """

    n_slots: int
    warmup: int
    seed: int
    primary: tuple[QueueStats, ...]
    secondary: tuple[QueueStats, ...]
    trace_slots: tuple[int, ...]
    trace_primary: tuple[tuple[int, ...], ...]
    trace_secondary: tuple[tuple[int, ...], ...]
    post_warmup_slots: int
    post_warmup_departures: tuple[int, ...]
    secondary_throughput: tuple[float, ...]
    primary_empty_fraction: tuple[float, ...]
    collision_count: int
    verdicts_primary: tuple[str, ...] = field(default=())
    verdicts_secondary: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "n_slots": self.n_slots,
            "warmup": self.warmup,
            "seed": self.seed,
            "primary": [vars(q) for q in self.primary],
            "secondary": [vars(q) for q in self.secondary],
            "trace_slots": list(self.trace_slots),
            "trace_primary": [list(r) for r in self.trace_primary],
            "trace_secondary": [list(r) for r in self.trace_secondary],
            "post_warmup_slots": self.post_warmup_slots,
            "post_warmup_departures": list(self.post_warmup_departures),
            "secondary_throughput": list(self.secondary_throughput),
            "primary_empty_fraction": list(self.primary_empty_fraction),
            "collision_count": self.collision_count,
            "verdicts_primary": list(self.verdicts_primary),
            "verdicts_secondary": list(self.verdicts_secondary),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def trace_csv(self) -> str:
        """Sampled backlog trace as CSV: slot, qp_1.., qs_1..."""
        m_p = len(self.primary)
        m_s = len(self.secondary)
        lines = ["slot," + ",".join(f"qp_{j+1}" for j in range(m_p)) + ","
                 + ",".join(f"qs_{k+1}" for k in range(m_s))]
        for i, slot in enumerate(self.trace_slots):
            row = [str(slot)]
            row += [str(v) for v in self.trace_primary[i]]
            row += [str(v) for v in self.trace_secondary[i]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _verdict(trace_slots, lengths, warmup: int, n_slots: int, final_length: int) -> str:
    """Slope/backlog surrogate for the asymptotic stability definition."""
    xs = [s for s in trace_slots if s >= warmup]
    ys = [l for s, l in zip(trace_slots, lengths) if s >= warmup]
    if len(xs) < 3:
        return "inconclusive"
    slope = float(np.polyfit(xs, ys, 1)[0])
    post = n_slots - warmup
    if slope < SLOPE_STABLE and final_length < BACKLOG_FRACTION * post:
        return "stable"
    if slope > SLOPE_UNSTABLE:
        return "unstable"
    return "inconclusive"


def assess_stability(result: SimResult) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Re-derive the per-queue verdicts from a result's trace (primary, secondary)."""
    prim = tuple(
        _verdict(result.trace_slots, [row[j] for row in result.trace_primary],
                 result.warmup, result.n_slots, result.primary[j].final_length)
        for j in range(len(result.primary))
    )
    sec = tuple(
        _verdict(result.trace_slots, [row[k] for row in result.trace_secondary],
                 result.warmup, result.n_slots, result.secondary[k].final_length)
        for k in range(len(result.secondary))
    )
    return prim, sec


def empirical_throughput(result: SimResult) -> tuple[float, ...]:
    """Post-warmup departures per slot for each secondary user."""
    if result.post_warmup_slots < 1:
        raise ConfigurationError("post-warmup window is empty")
    return tuple(d / result.post_warmup_slots for d in result.post_warmup_departures)


def _policy_tables(policy: Policy, m_p: int, m_s: int):
    """Precompute 0-based lookup tables (virtual band = -1) for the hot loop."""
    if policy.kind == "orthogonal":
        zero_based = {}
        for perm, _ in policy.schedule.entries:
            if len(perm) != m_s:
                raise ConfigurationError("schedule permutation length must equal M_s")
            if any(m > m_p for m in perm):
                raise ConfigurationError("schedule assigns a band outside the scenario")
            zero_based[perm] = tuple(m - 1 for m in perm)
        return zero_based
    if policy.kind == "random":
        g = policy.selection.gamma
        if g.shape != (m_p, m_s):
            raise ConfigurationError(f"selection matrix has shape {g.shape}, expected {(m_p, m_s)}")
        columns = []
        for k in range(m_s):
            col = tuple(float(g[j, k]) for j in range(m_p))
            # fallback band guards the walk against rounding when the column
            # sums to one (a complete column must always select something)
            fallback = -1
            if sum(col) >= 1.0 - 1e-9:
                fallback = max(j for j in range(m_p) if col[j] > 0)
            columns.append((col, fallback))
        return columns
    mapping = policy.mapping
    if mapping.m_s != m_s or any(m > m_p for m in mapping.assignment):
        raise ConfigurationError("fixed mapping does not fit the scenario")
    return tuple(m - 1 for m in mapping.assignment)


def run(scenario: Scenario, policy: Policy, config: SimConfig) -> SimResult:
    """Simulate ``config.n_slots`` slots; deterministic given the seed."""
    links = model.resolve_links(scenario)
    m_p, m_s = scenario.m_p, scenario.m_s
    tables = _policy_tables(policy, m_p, m_s)
    kind = policy.kind

    lam_p = [float(v) for v in links.lambda_p]
    mu_p = [float(v) for v in links.mu_p]
    lam_s = [float(v) for v in links.lambda_s]
    psucc = [[float(links.p_success[j, k]) for k in range(m_s)] for j in range(m_p)]
    # zero-bandwidth bands carry no transmissions at all (no outcome draw)
    live = [not band.is_virtual for band in scenario.bands]

    sec_rng = random.Random(config.seed)
    prim_rng = random.Random((config.seed ^ _PRIMARY_STREAM_SALT) & 0xFFFFFFFFFFFFFFFF)
    sec_rnd = sec_rng.random
    prim_rnd = prim_rng.random

    qp = [0] * m_p
    qs = [0] * m_s
    arr_p = [0] * m_p
    arr_s = [0] * m_s
    dep_p = [0] * m_p
    dep_s = [0] * m_s
    dep_s_post = [0] * m_s
    empty_post = [0] * m_p
    collisions = 0
    trace_slots: list[int] = []
    trace_p: list[tuple[int, ...]] = []
    trace_s: list[tuple[int, ...]] = []

    warmup = config.warmup
    stride = config.trace_stride
    n_slots = config.n_slots
    bands = range(m_p)
    users = range(m_s)
    # band held by each user this slot (-1: none) and users per band; the
    # orthogonal and fixed policies never put two users on one band
    assign = tables if kind == "fixed" else None
    load = [1] * m_p

    for t in range(n_slots):
        post = t >= warmup
        # Availability is the primary backlog at the slot start (perfect sensing).
        avail = [q == 0 for q in qp]
        if post:
            for j in bands:
                if avail[j]:
                    empty_post[j] += 1

        # Primary stream: outcome draws then arrival draws, ascending band index.
        for j in bands:
            if qp[j] and prim_rnd() < mu_p[j]:
                qp[j] -= 1
                dep_p[j] += 1
        for j in bands:
            if lam_p[j] > 0.0 and prim_rnd() < lam_p[j]:
                qp[j] += 1
                arr_p[j] += 1

        # Secondary stream: assignment, then outcomes, then arrivals.
        if kind == "orthogonal":
            assign = tables[sample_permutation(policy.schedule, sec_rng)]
        elif kind == "random":
            assign = [-1] * m_s
            load = [0] * m_p
            for k in users:
                if qs[k]:
                    u = sec_rnd()
                    col, fallback = tables[k]
                    picked = fallback
                    for j in bands:
                        u -= col[j]
                        if u < 0:
                            picked = j
                            break
                    if picked >= 0:
                        assign[k] = picked
                        load[picked] += 1
            for j in bands:
                if load[j] > 1 and live[j] and avail[j]:
                    collisions += 1
        for k in users:
            if qs[k]:
                j = assign[k]
                if j >= 0 and live[j] and avail[j] and load[j] == 1 and sec_rnd() < psucc[j][k]:
                    qs[k] -= 1
                    dep_s[k] += 1
                    if post:
                        dep_s_post[k] += 1
        for k in users:
            if lam_s[k] > 0.0 and sec_rnd() < lam_s[k]:
                qs[k] += 1
                arr_s[k] += 1

        if (t + 1) % stride == 0:
            trace_slots.append(t)
            trace_p.append(tuple(qp))
            trace_s.append(tuple(qs))

    post_slots = n_slots - warmup
    result = SimResult(
        n_slots=n_slots,
        warmup=warmup,
        seed=config.seed,
        primary=tuple(QueueStats(arr_p[j], dep_p[j], qp[j]) for j in bands),
        secondary=tuple(QueueStats(arr_s[k], dep_s[k], qs[k]) for k in users),
        trace_slots=tuple(trace_slots),
        trace_primary=tuple(trace_p),
        trace_secondary=tuple(trace_s),
        post_warmup_slots=post_slots,
        post_warmup_departures=tuple(dep_s_post),
        secondary_throughput=tuple(d / post_slots for d in dep_s_post),
        primary_empty_fraction=tuple(e / post_slots for e in empty_post),
        collision_count=collisions,
    )
    prim_v, sec_v = assess_stability(result)
    return SimResult(**{**vars(result), "verdicts_primary": prim_v, "verdicts_secondary": sec_v})
