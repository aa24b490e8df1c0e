"""Slot-level Monte Carlo simulator of the three MAC policies.

Per slot, in event order: the controller/users pick bands (orthogonal: one
schedule draw; random: each backlogged user draws from its selection column;
fixed: static), every backlogged primary user transmits and departs with its
link-success probability, every backlogged secondary user transmits iff its
band's primary queue was empty at the slot start (perfect sensing) and - under
random selection - no other backlogged user picked the same band, and finally
Bernoulli arrivals are appended (late-arrival model: a packet arriving in slot
t is servable from slot t+1).

Engine. Every queue follows q' = max(q - S, 0) + A, with S the slot's service
opportunity and A its arrival. Where S does not depend on the queue's own
backlog this is a random walk reflected at zero, computed for a run of slots at
once with ``cumsum`` and ``minimum.accumulate`` (Lindley 1952; Loynes 1962):
every primary queue, and every secondary queue under the orthogonal and fixed
policies, whose service depends only on the primary backlogs. The steps are
int8 (-1, 0 or 1); the walk and the backlogs are int32, since within a block
the walk is bounded by ``_BLOCK`` and a backlog by the run length, which
``SimConfig`` caps at 2**31 - 1 slots. Under random selection a user's service
is its solo service (band picked, band idle at the slot start, link success),
lost when another backlogged user picked the same band. That map from backlog
indicators to backlog indicators is causal: the backlog at a slot start
depends on service in earlier slots only. So a user recomputed against
indicators exact on the first r - 1 slots is exact on the first r, whatever
the indicators after them, and the fixed point is unique: two fixed points
agree slot by slot. The engine runs Gauss-Seidel sweeps (Bertsekas &
Tsitsiklis 1989, ch. 6): users in index order, each against the latest
indicators of the others, skipping a user whose lost slots did not change.
By induction sweep r is exact on the first r slots, from any start, so the
sweeps converge within n + 1 on n slots, and a run that does not converge
raises. They start from "everyone backlogged", which is closer than "nobody
backlogged" to the fixed point of a loaded run, where contention matters: at
0.9x of the reference S_hat boundary a 1e5-slot run takes about 96 row
reflections instead of 134 (seeds 1-5). The sweeps stop at the first one that
changes no user's indicators. Departures are counted by conservation in exact
integers: arrivals minus the final backlog (queues start empty), and after the
warmup the backlog at its first slot plus the arrivals since minus the final
backlog. The engine walks the horizon in blocks of ``_BLOCK`` slots and
carries each queue's backlog from block to block, so memory does not grow with
the run length.

Randomness (stream contract version ``STREAM_VERSION`` = 2) is
bit-reproducible. Every stream is its own numpy Generator spawned from a
SeedSequence, supplies one uniform per slot whatever the queue state, and is
read as one contiguous sequence, so results do not depend on ``_BLOCK``. The
primary seed sequence is the seed XOR a fixed salt; its 2 M_p children are the
outcome streams of bands 1..M_p, then their arrival streams. Primary
trajectories are therefore identical across policies. The secondary seed
sequence is the seed itself; its 1 + 3 M_s children are the orthogonal
assignment stream, then the pick streams of users 1..M_s (random selection),
their outcome streams and their arrival streams. Seeds are read modulo 2**64.
A draw u succeeds (departs, arrives) when u < p, and a schedule or selection
column maps u to the first entry at which u minus the weights so far turns
negative (``schedule.sample_indices``).

Results. ``run`` returns a ``SimResult``: per-queue counters, the sampled
backlog traces, the post-warmup secondary throughput (departures per slot) and
the stability verdict of each queue, fitted to its trace array. ``to_dict`` is
the form the CLI prints: the fields in order, queue counters as dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .fixedalloc import FixedMapping
from .model import ConfigurationError, Scenario
from .randalloc import SelectionMatrix
from .schedule import PermutationSchedule, sample_indices

# Stability surrogate thresholds (packets/slot for the fitted slope; fraction of
# the post-warmup horizon for the terminal backlog).
SLOPE_STABLE = 0.005
SLOPE_UNSTABLE = 0.02
BACKLOG_FRACTION = 0.05

_PRIMARY_STREAM_SALT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# Version of the random-stream contract in the module docstring; a change of
# which draw drives which event changes every trajectory, so it is recorded in
# the provenance of simulation output.
STREAM_VERSION = 2
# Slots per block of the array engine; output does not depend on it.
_BLOCK = 8192


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
        if self.n_slots >= 2**31:
            raise ConfigurationError("n_slots must be < 2**31 (backlogs are int32)")
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
        return {**vars(self), "primary": [vars(q) for q in self.primary],
                "secondary": [vars(q) for q in self.secondary]}


def _slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of ys on xs: sum((x - mean x) y) / sum((x - mean x)**2).

    That is the closed form with mean y dropped, since the x - mean x sum to
    zero. Evenly spaced integer xs have an exact mean, so with integer ys every
    term and partial sum is exact below 2**53, and the slope is rounded once.
    """
    dx = xs - xs.mean()
    return float(dx @ ys / (dx @ dx))


def _verdict(trace_slots, lengths, warmup: int, n_slots: int, final_length: int) -> str:
    """Slope/backlog surrogate for the asymptotic stability definition."""
    slots = np.asarray(trace_slots)
    post = slots >= warmup
    if np.count_nonzero(post) < 3:
        return "inconclusive"
    slope = _slope(slots[post], np.asarray(lengths)[post])
    if slope < SLOPE_STABLE and final_length < BACKLOG_FRACTION * (n_slots - warmup):
        return "stable"
    if slope > SLOPE_UNSTABLE:
        return "unstable"
    return "inconclusive"


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators spawned from the seed (read modulo 2**64)."""
    children = np.random.SeedSequence(seed & _MASK64).spawn(count)
    return [np.random.default_rng(child) for child in children]


def _draw(streams, out: np.ndarray) -> np.ndarray:
    """Fill row i of ``out`` with the next uniforms of stream i; return ``out``."""
    for stream, row in zip(streams, out):
        stream.random(out=row)
    return out


def _band_picker(policy: Policy, m_p: int, m_s: int, streams, width: int):
    """Check the policy against the scenario; return pick(n) -> (M_s, n) bands.

    ``pick(n)``, for n <= ``width``, gives the 0-based band each user holds in
    each of the next n slots (-1: none, or a virtual band of the schedule). The
    orthogonal policy reads the assignment stream, random selection each user's
    pick stream.
    """
    if policy.kind == "orthogonal":
        entries = policy.schedule.entries
        if any(len(perm) != m_s for perm, _ in entries):
            raise ConfigurationError("schedule permutation length must equal M_s")
        if any(m > m_p for perm, _ in entries for m in perm):
            raise ConfigurationError("schedule assigns a band outside the scenario")
        table = np.array([perm for perm, _ in entries]).T.copy() - 1  # user x entry
        weights = np.array([[w] for _, w in entries])
        draws = np.empty((1, width))
        last = [len(entries) - 1]
        return lambda n: np.take(table, sample_indices(weights, _draw(streams[:1], draws[:, :n]), last)[0],
                                 axis=1)
    if policy.kind == "random":
        g = policy.selection.gamma
        if g.shape != (m_p, m_s):
            raise ConfigurationError(f"selection matrix has shape {g.shape}, expected {(m_p, m_s)}")
        fallbacks = []
        for k in range(m_s):
            col = [float(v) for v in g[:, k]]
            # a complete column always selects something: its last positive
            # band catches draws that rounding carries past the final weight
            fallbacks.append(max(j for j in range(m_p) if col[j] > 0) if sum(col) >= 1.0 - 1e-9 else -1)
        draws = np.empty((m_s, width))
        picks = streams[1:1 + m_s]
        return lambda n: sample_indices(g, _draw(picks, draws[:, :n]), fallbacks)
    mapping = policy.mapping
    if mapping.m_s != m_s or any(m > m_p for m in mapping.assignment):
        raise ConfigurationError("fixed mapping does not fit the scenario")
    bands = np.array(mapping.assignment)[:, None] - 1
    return lambda n: np.repeat(bands, n, axis=1)


def _reflect(q0: np.ndarray, arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Backlogs of queues ``q' = max(q - S, 0) + A`` over a run of slots.

    ``q0`` holds each queue's backlog at the first slot start; ``arrivals`` and
    ``service`` are 0/1 arrays (queues x slots). The backlog left after service
    in slot t is a random walk with steps A[t-1] - S[t] reflected at zero, so it
    is the walk minus its running minimum (floored at -q0) (Lindley 1952).
    Returns the start-of-slot backlogs as int32 (queues x slots+1; the last
    column is the backlog after the final slot).
    """
    steps = service.astype(np.int8)
    np.negative(steps, out=steps)
    steps[:, 1:] += arrivals[:, :-1]
    walk = np.cumsum(steps, axis=1, dtype=np.int32)
    backlog = np.empty((len(q0), walk.shape[1] + 1), dtype=np.int32)
    backlog[:, 0] = q0
    after = backlog[:, 1:]  # the floored running minimum, then the backlogs
    np.minimum.accumulate(walk, axis=1, out=after)
    np.minimum(after, -backlog[:, :1], out=after)
    np.subtract(walk, after, out=after)
    after += arrivals
    return backlog


def _contend(q0: np.ndarray, arrivals: np.ndarray, solo: np.ndarray, bands: np.ndarray):
    """Start-of-slot backlogs and backlogged indicators of users sharing bands.

    A user's service is its solo service, lost when another backlogged user
    picked the same band. Gauss-Seidel sweeps from "everyone backlogged" reach
    the fixed point within n + 1 sweeps (module docstring).
    """
    m_s, n = solo.shape
    rivals = (bands[:, None] == bands[None, :]) & (bands >= 0)[:, None]
    rivals[np.arange(m_s), np.arange(m_s)] = False
    backlog = np.empty((m_s, n + 1), dtype=np.int32)
    busy = np.ones((m_s, n), dtype=bool)
    lost = [None] * m_s
    for _ in range(n + 1):
        changed = False
        for k in range(m_s):
            hit = (rivals[k] & busy).any(axis=0)
            if lost[k] is None or not np.array_equal(hit, lost[k]):
                lost[k] = hit
                backlog[k] = _reflect(q0[k:k + 1], arrivals[k:k + 1], solo[k:k + 1] & ~hit)[0]
                now = backlog[k, :-1] > 0
                if not np.array_equal(now, busy[k]):
                    busy[k] = now
                    changed = True
        if not changed:
            return backlog, busy
    raise RuntimeError("collision fixed point did not converge")


def run(scenario: Scenario, policy: Policy, config: SimConfig) -> SimResult:
    """Simulate ``config.n_slots`` slots; deterministic given the seed."""
    links = model.resolve_links(scenario)
    m_p, m_s = scenario.m_p, scenario.m_s
    primary_streams = _streams(config.seed ^ _PRIMARY_STREAM_SALT, 2 * m_p)
    secondary_streams = _streams(config.seed, 1 + 3 * m_s)
    width = min(_BLOCK, config.n_slots)
    pick = _band_picker(policy, m_p, m_s, secondary_streams, width)
    contending = policy.kind == "random"

    mu_p = links.mu_p[:, None]
    lam_p = links.lambda_p[:, None]
    lam_s = links.lambda_s[:, None]
    psucc = links.p_success[:, :, None]  # band x user x 1
    # zero-bandwidth bands carry no transmissions at all
    live = np.array([not band.is_virtual for band in scenario.bands])
    band_ids = np.arange(m_p)[:, None, None]

    qp = np.zeros(m_p, dtype=np.int32)
    qs = np.zeros(m_s, dtype=np.int32)
    arr_p = np.zeros(m_p, dtype=np.int64)
    empty_post = np.zeros(m_p, dtype=np.int64)
    arr_s = np.zeros(m_s, dtype=np.int64)
    dep_s_post = np.zeros(m_s, dtype=np.int64)
    collisions = 0

    warmup = config.warmup
    stride = config.trace_stride
    n_slots = config.n_slots
    # end-of-slot backlogs of the slots t with (t + 1) % stride == 0
    trace_slots = np.arange(stride - 1, n_slots, stride)
    trace_p = np.empty((len(trace_slots), m_p), dtype=np.int64)
    trace_s = np.empty((len(trace_slots), m_s), dtype=np.int64)
    traced = 0
    draws_p = np.empty((2 * m_p, width))
    draws_s = np.empty((2 * m_s, width))
    for start in range(0, n_slots, _BLOCK):
        n = min(_BLOCK, n_slots - start)
        post = min(max(warmup - start, 0), n)  # first post-warmup slot of the block

        # Primary queues: availability is the backlog at the slot start.
        u = _draw(primary_streams, draws_p[:, :n])
        arrive = u[m_p:] < lam_p
        backlog_p = _reflect(qp, arrive, u[:m_p] < mu_p)
        avail = backlog_p[:, :-1] == 0
        arr_p += arrive.sum(axis=1)
        empty_post += avail[:, post:].sum(axis=1)

        # Secondary queues: solo service on the picked band, then contention.
        u = _draw(secondary_streams[1 + m_s:], draws_s[:, :n])
        arrive = u[m_s:] < lam_s
        bands = pick(n)
        solo = np.zeros((m_s, n), dtype=bool)
        for j in np.flatnonzero(live):
            solo |= (bands == j) & avail[j] & (u[:m_s] < psucc[j])
        if contending:
            backlog_s, busy = _contend(qs, arrive, solo, bands)
            load = ((bands[None] == band_ids) & busy[None]).sum(axis=1, dtype=np.int32)
            collisions += int(np.count_nonzero((load > 1) & live[:, None] & avail))
        else:
            backlog_s = _reflect(qs, arrive, solo)
        arr_s += arrive.sum(axis=1)
        dep_s_post += backlog_s[:, post] - backlog_s[:, -1] + arrive[:, post:].sum(axis=1)

        stop = int(np.searchsorted(trace_slots, start + n))
        ends = trace_slots[traced:stop] - start + 1  # columns after the traced slots
        trace_p[traced:stop] = backlog_p[:, ends].T
        trace_s[traced:stop] = backlog_s[:, ends].T
        traced = stop
        qp, qs = backlog_p[:, -1], backlog_s[:, -1]

    post_slots = n_slots - warmup
    dep_s_post = dep_s_post.tolist()
    return SimResult(
        n_slots=n_slots,
        warmup=warmup,
        seed=config.seed,
        primary=tuple(QueueStats(*row) for row in zip(arr_p.tolist(), (arr_p - qp).tolist(), qp.tolist())),
        secondary=tuple(QueueStats(*row) for row in zip(arr_s.tolist(), (arr_s - qs).tolist(), qs.tolist())),
        trace_slots=tuple(trace_slots.tolist()),
        trace_primary=tuple(map(tuple, trace_p.tolist())),
        trace_secondary=tuple(map(tuple, trace_s.tolist())),
        post_warmup_slots=post_slots,
        post_warmup_departures=tuple(dep_s_post),
        secondary_throughput=tuple(d / post_slots for d in dep_s_post),
        primary_empty_fraction=tuple(e / post_slots for e in empty_post.tolist()),
        collision_count=collisions,
        verdicts_primary=tuple(_verdict(trace_slots, col, warmup, n_slots, q)
                               for col, q in zip(trace_p.T, qp)),
        verdicts_secondary=tuple(_verdict(trace_slots, col, warmup, n_slots, q)
                                 for col, q in zip(trace_s.T, qs)),
    )
