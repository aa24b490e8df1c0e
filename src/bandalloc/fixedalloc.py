"""Fixed one-to-one band assignment (the deterministic baseline system).

Every user keeps one band for the lifetime of the network, so each mapping
yields an open orthotope stability region lambda_k < mu[m_k, k]; the system's
region is the union over all one-to-one mappings. Searches scan the
lexicographic table of mappings in chunks of at most ``_CHUNK_ELEMENTS``
(rate rows x mappings x users) elements, one array expression per chunk, so
a whole sweep costs one scan. More than 8 users or 1e6 mappings are refused.
Requires at least as many bands as users.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import CLOSURE_TOL, ConfigurationError, RateMatrix, rate_rows, sweep_rates

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


def _check_shape(rates: RateMatrix) -> None:
    if rates.m_p < rates.m_s:
        raise ConfigurationError(
            f"fixed allocation needs M_p >= M_s, got M_p={rates.m_p}, M_s={rates.m_s}"
        )


def _check_mapping(d: FixedMapping, rates: RateMatrix) -> None:
    _check_shape(rates)
    if d.m_s != rates.m_s:
        raise ConfigurationError("mapping length must equal the number of users")
    if any(m > rates.m_p for m in d.assignment):
        raise ConfigurationError("mapping uses a band outside the scenario")


def _scan(rates: RateMatrix, lam: np.ndarray, k: int | None = None, mapping: FixedMapping | None = None):
    """Best score and mapping (1-based bands) for each rate row of ``lam``.

    The rows come from ``rate_rows``, with entry k read as 0 when k is given,
    so that user k always passes the closure test. The score is user k's
    closure rate mu[m_k, k] (-inf where the mapping does not support the other
    users), or the worst-case margin when k is None. The table holds
    ``mapping`` alone when given, else every one-to-one mapping in
    lexicographic order, built and scored in chunks of at most
    ``_CHUNK_ELEMENTS`` rate rows x mappings x users. argmax takes the first
    maximum within a chunk and a later chunk wins only when strictly better,
    so ties go to the lexicographically first mapping.
    """
    m_p, m_s = rates.m_p, rates.m_s
    if mapping is not None:
        _check_mapping(mapping, rates)
        total, flat = 1, (m - 1 for m in mapping.assignment)
    else:
        _check_shape(rates)
        total = math.perm(m_p, m_s)
        if m_s > 8 or total > _MAX_ENUMERATION:
            raise ConfigurationError(
                f"brute-force mapping search refuses M_s={m_s}, M_p={m_p} ({total} mappings)"
            )
        flat = itertools.chain.from_iterable(itertools.permutations(range(m_p), m_s))
    per_chunk = max(1, _CHUNK_ELEMENTS // (max(len(lam), 1) * m_s))
    users, rows = np.arange(m_s), np.arange(len(lam))
    best = np.full(len(lam), -np.inf)
    chosen = np.tile(users, (len(lam), 1))  # the first mapping, kept where every score is -inf
    for start in range(0, total, per_chunk):
        table = np.fromiter(flat, dtype=np.intp, count=min(per_chunk, total - start) * m_s).reshape(-1, m_s)
        served = rates.mu[table, users]  # served[i, l] = mu[m_l, l] under mapping i
        if k is None:
            scores = np.min(served - lam[:, None, :], axis=2)
        else:
            supported = np.all(lam[:, None, :] <= served + CLOSURE_TOL, axis=2)
            scores = np.where(supported, served[:, k], -np.inf)
        pick = np.argmax(scores, axis=1)
        top = scores[rows, pick]
        better = top > best
        best[better] = top[better]
        chosen[better] = table[pick[better]]
    return best, chosen + 1


def best_fixed_max(rates: RateMatrix, fixed_lambdas, k: int) -> tuple[float, FixedMapping] | None:
    """Largest closure rate of user k over all fixed mappings supporting the other users.

    A mapping supports the fixed users when lambda_l <= mu[m_l, l] (closure
    semantics, to match the envelope LPs); among supporting mappings the one
    maximizing mu[m_k, k] wins, ties broken lexicographically. None when no
    mapping supports the fixed rates. Entry k of ``fixed_lambdas`` is ignored;
    the others must be >= 0.
    """
    (value,), (assignment,) = _scan(rates, rate_rows([fixed_lambdas], rates.m_s, skip=k), k)
    return None if value == -np.inf else (float(value), FixedMapping(assignment))


def sweep_envelope(
    rates: RateMatrix, axis: int, grid, others=None, sweep_user=None, mapping: FixedMapping | None = None
) -> list[float | None]:
    """The value of ``best_fixed_max`` of user ``axis`` at each point of a sweep, in one scan.

    The arguments ``grid``, ``others`` and ``sweep_user`` follow
    ``model.sweep_rates``. With ``mapping`` given, only that mapping is
    considered (the envelope of its own orthotope).
    """
    values = _scan(rates, sweep_rates(rates.m_s, axis, grid, others, sweep_user), axis, mapping)[0]
    return [None if v == -np.inf else v for v in values.tolist()]


def best_margin_mapping(rates: RateMatrix, lambdas) -> FixedMapping:
    """Mapping with the largest worst-case margin min_k (mu[m_k, k] - lambdas[k]).

    Ties go to the lexicographically first mapping. The margin is negative when
    no mapping supports the rates; the least-overloaded mapping is returned then.
    """
    return FixedMapping(_scan(rates, rate_rows([lambdas], rates.m_s))[1][0])
