"""Fixed one-to-one band assignment (the deterministic baseline system).

Every user keeps one band for the lifetime of the network, so each mapping
yields an open orthotope stability region lambda_k < mu[m_k, k]; the system's
region is the union over all one-to-one mappings, searched by brute force.
Requires at least as many bands as users.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .model import CLOSURE_TOL, ConfigurationError, RateMatrix

_TOL = 1e-9
_MAX_ENUMERATION = 1_000_000


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


def region_for_mapping(d: FixedMapping, rates: RateMatrix, lambdas) -> bool:
    """True iff every user's rate is strictly below its assigned band's service rate."""
    _check_shape(rates)
    if d.m_s != rates.m_s:
        raise ConfigurationError("mapping length must equal the number of users")
    if any(m > rates.m_p for m in d.assignment):
        raise ConfigurationError("mapping uses a band outside the scenario")
    lambdas = list(lambdas)
    if len(lambdas) != rates.m_s:
        raise ConfigurationError("lambdas must have one entry per user")
    for k, m in enumerate(d.assignment):
        if lambdas[k] < 0 or lambdas[k] >= rates.mu[m - 1, k] - _TOL:
            return False
    return True


def _mappings(rates: RateMatrix, lambdas, free: int | None = None):
    """One-to-one mappings (1-based bands, lexicographic order) and ``lambdas`` as a list.

    Every rate but that of user ``free`` must be >= 0 (NaN fails the test).
    """
    _check_shape(rates)
    m_p, m_s = rates.m_p, rates.m_s
    if m_s > 8 or math.perm(m_p, m_s) > _MAX_ENUMERATION:
        raise ConfigurationError(
            f"brute-force mapping search refuses M_s={m_s}, M_p={m_p} "
            f"({math.perm(m_p, m_s)} mappings)"
        )
    lam = list(lambdas)
    if len(lam) != m_s:
        raise ConfigurationError("rates must have one entry per user")
    for l in range(m_s):
        if l != free and not lam[l] >= 0:
            raise ConfigurationError(f"rate of user {l + 1} must be >= 0, got {float(lam[l])}")
    return itertools.permutations(range(1, m_p + 1), m_s), lam


def mapping_max(rates: RateMatrix, assignment, fixed_lambdas, k: int) -> float | None:
    """Largest closure rate of user k under one mapping (1-based bands), or None when
    it does not support every other user's fixed rate (lambda_l <= mu[m_l, l])."""
    for l, m in enumerate(assignment):
        if l != k and not fixed_lambdas[l] <= rates.mu[m - 1, l] + CLOSURE_TOL:
            return None
    return float(rates.mu[assignment[k] - 1, k])


def best_fixed_max(rates: RateMatrix, fixed_lambdas, k: int) -> tuple[float, FixedMapping] | None:
    """Largest closure rate of user k over all fixed mappings supporting the other users.

    A mapping supports the fixed users when lambda_l <= mu[m_l, l] (closure
    semantics, to match the envelope LPs); among supporting mappings the one
    maximizing mu[m_k, k] wins, ties broken lexicographically. None when no
    mapping supports the fixed rates. Entry k of ``fixed_lambdas`` is ignored;
    the others must be >= 0.
    """
    if not 0 <= k < rates.m_s:
        raise ConfigurationError(f"user index {k} out of range")
    mappings, lam = _mappings(rates, fixed_lambdas, k)
    best: tuple[float, FixedMapping] | None = None
    for assignment in mappings:
        value = mapping_max(rates, assignment, lam, k)
        if value is not None and (best is None or value > best[0]):
            best = (value, FixedMapping(assignment))
    return best


def best_margin_mapping(rates: RateMatrix, lambdas) -> FixedMapping:
    """Mapping with the largest worst-case margin min_k (mu[m_k, k] - lambdas[k]).

    Ties go to the lexicographically first mapping. The margin is negative when
    no mapping supports the rates; the least-overloaded mapping is returned then.
    """
    mappings, lam = _mappings(rates, lambdas)
    best = None
    for assignment in mappings:
        margin = min(float(rates.mu[m - 1, k]) - float(lam[k]) for k, m in enumerate(assignment))
        if best is None or margin > best[0]:
            best = (margin, assignment)
    return FixedMapping(best[1])
