"""Fixed one-to-one band assignment (the deterministic baseline system).

Every user keeps one band for the lifetime of the network, so each mapping
yields an open orthotope stability region lambda_k < mu[m_k, k]; the system's
region is the union over all one-to-one mappings. Searches read the
lexicographic table of mappings in chunks of at most ``_CHUNK_ELEMENTS``
(mappings x users) elements, one array expression per chunk: a one-point
search scores each mapping, and a sweep is a step function of the swept
user's rate, read at the whole grid by one ``searchsorted`` per chunk. More
than 8 users or 1e6 mappings are refused. Requires at least as many bands as
users.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import CLOSURE_TOL, ConfigurationError, RateMatrix, rate_vector, sweep_rates

_MAX_ENUMERATION = 1_000_000
_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class FixedMapping:
    """Permanent assignment: user k owns band ``assignment[k]`` (1-based band numbers)."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        assignment = tuple(int(m) for m in self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if len(set(assignment)) != len(assignment):
            raise ConfigurationError("fixed assignments must use distinct bands")
        if any(m < 1 for m in assignment):
            raise ConfigurationError("band numbers are 1-based")

    @property
    def m_s(self) -> int:
        return len(self.assignment)


def _tables(rates: RateMatrix, mapping: FixedMapping | None = None):
    """Chunks of the mapping table, one row of 0-based bands per mapping, after the refusals.

    The table holds ``mapping`` alone when given, else every one-to-one
    mapping in lexicographic order, in chunks of at most ``_CHUNK_ELEMENTS``
    mappings x users. Shape, size and mapping errors are raised by this call,
    before the first chunk is built.
    """
    m_p, m_s = rates.m_p, rates.m_s
    if m_p < m_s:
        raise ConfigurationError(f"fixed allocation needs M_p >= M_s, got M_p={m_p}, M_s={m_s}")
    if mapping is not None:
        if mapping.m_s != m_s:
            raise ConfigurationError("mapping length must equal the number of users")
        if any(m > m_p for m in mapping.assignment):
            raise ConfigurationError("mapping uses a band outside the scenario")
        return [np.array([mapping.assignment], dtype=np.intp) - 1]
    total = math.perm(m_p, m_s)
    if m_s > 8 or total > _MAX_ENUMERATION:
        raise ConfigurationError(f"brute-force mapping search refuses M_s={m_s}, M_p={m_p} ({total} mappings)")
    flat = itertools.chain.from_iterable(itertools.permutations(range(m_p), m_s))
    per_chunk = max(1, _CHUNK_ELEMENTS // m_s)
    return (np.fromiter(flat, dtype=np.intp, count=min(per_chunk, total - start) * m_s).reshape(-1, m_s)
            for start in range(0, total, per_chunk))


def _scan(rates: RateMatrix, lam: np.ndarray, k: int | None = None):
    """Best score and mapping (1-based bands) for the rate vector ``lam``.

    ``lam`` comes from ``rate_vector``, with entry k read as 0 when k is
    given, so that user k always passes the closure test. The score is user
    k's closure rate mu[m_k, k] (-inf where the mapping does not support the
    other users), or the worst-case margin when k is None. argmax takes the
    first maximum within a chunk and a later chunk wins only when strictly
    better, so ties go to the lexicographically first mapping.
    """
    users = np.arange(rates.m_s)
    best, chosen = -np.inf, users  # the first mapping, kept where every score is -inf
    for table in _tables(rates):
        served = rates.mu[table, users]  # served[i, l] = mu[m_l, l] under mapping i
        if k is None:
            scores = np.min(served - lam, axis=1)
        else:
            scores = np.where(np.all(lam <= served + CLOSURE_TOL, axis=1), served[:, k], -np.inf)
        pick = np.argmax(scores)
        if scores[pick] > best:
            best, chosen = scores[pick], table[pick]
    return best, chosen + 1


def best_fixed_max(rates: RateMatrix, fixed_lambdas, k: int) -> tuple[float, FixedMapping] | None:
    """Largest closure rate of user k over all fixed mappings supporting the other users.

    A mapping supports the fixed users when lambda_l <= mu[m_l, l] (closure
    semantics, to match the envelope LPs); among supporting mappings the one
    maximizing mu[m_k, k] wins, ties broken lexicographically. None when no
    mapping supports the fixed rates. Entry k of ``fixed_lambdas`` is ignored;
    the others must be >= 0.
    """
    value, assignment = _scan(rates, rate_vector(fixed_lambdas, rates.m_s, skip=k), k)
    return None if value == -np.inf else (float(value), FixedMapping(assignment))


def sweep_envelope(
    rates: RateMatrix, axis: int, grid, others=None, sweep_user=None, mapping: FixedMapping | None = None
) -> list[float | None]:
    """The value of ``best_fixed_max`` of user ``axis`` at each point of a sweep, as one step function.

    The arguments ``grid``, ``others`` and ``sweep_user`` follow
    ``model.sweep_rates``. With ``mapping`` given, only that mapping is
    considered (the envelope of its own orthotope). Along a sweep only the
    swept user's rate g moves. Among the mappings that support the pinned
    users, the value at g is therefore the first in order of decreasing
    mu[m_axis, axis] (ties in table order) whose threshold
    mu[m_sweep, sweep] + CLOSURE_TOL is at least g: the closure test and the
    tie-break of ``best_fixed_max``, float for float. Each chunk of mappings
    sorts them so, takes the running maximum of their thresholds, and answers
    every grid point with one ``searchsorted``; a later chunk wins a grid
    point only when strictly better.
    """
    lam, sweep = sweep_rates(rates.m_s, axis, grid, others, sweep_user)
    tables = _tables(rates, mapping)  # refuses a bad shape or mapping, also for an empty grid
    if not len(lam):
        return []
    users = np.arange(rates.m_s)
    pinned = users != sweep
    best = np.full(len(lam), -np.inf)
    for table in tables:
        served = rates.mu[table, users]
        served = served[np.all(lam[0, pinned] <= served[:, pinned] + CLOSURE_TOL, axis=1)]
        served = served[np.argsort(-served[:, axis], kind="stable")]
        reach = np.maximum.accumulate(served[:, sweep] + CLOSURE_TOL)
        value = np.append(served[:, axis], -np.inf)[np.searchsorted(reach, lam[:, sweep])]
        best = np.where(value > best, value, best)
    return [None if v == -np.inf else v for v in best.tolist()]


def best_margin_mapping(rates: RateMatrix, lambdas) -> FixedMapping:
    """Mapping with the largest worst-case margin min_k (mu[m_k, k] - lambdas[k]).

    Ties go to the lexicographically first mapping. The margin is negative when
    no mapping supports the rates; the least-overloaded mapping is returned then.
    """
    return FixedMapping(_scan(rates, rate_vector(lambdas, rates.m_s))[1])
