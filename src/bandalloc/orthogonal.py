"""Stability envelope of the orthogonal band-allocation system (system S).

The envelope is the LP over assignment fractions omega[j, k] (row and
column sums at most one). ``envelope_point`` solves it at one point. The LPs
of a sweep differ only in the right-hand side of the swept user's service
row, so ``sweep_envelope`` builds c and A once and hands all its grid points
to ``optim.solve_lps`` together. The two-user/two-band case also has a
closed form. The other special cases (single band, symmetric users or
bands) are test oracles in ``tests/oracles.py``.

Convention used throughout the package: envelope computations use non-strict
constraints (the closure of the stability region), region-membership
predicates use strict inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .model import (ConfigurationError, RateMatrix, check_unit_interval, check_user_index, rate_rows,
                    rate_vector)

_TOL = 1e-9


@dataclass(frozen=True)
class AssignmentMatrix:
    """Fractions omega[j, k] of slots in which band j is assigned to user k."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float)
        if omega.ndim != 2:
            raise ConfigurationError("omega must be an M_p x M_s matrix")
        if np.any(omega < -_TOL):
            raise ConfigurationError("omega entries must be nonnegative")
        if np.any(omega.sum(axis=1) > 1 + _TOL) or np.any(omega.sum(axis=0) > 1 + _TOL):
            raise ConfigurationError("omega row and column sums must not exceed 1")
        object.__setattr__(self, "omega", np.clip(omega, 0.0, None))

    @property
    def m_p(self) -> int:
        return self.omega.shape[0]

    @property
    def m_s(self) -> int:
        return self.omega.shape[1]


@dataclass(frozen=True)
class EnvelopePoint:
    """One point of a stability envelope: the largest supportable rate of one user.

    ``max_rate`` and ``omega_star`` are None when the fixed rates themselves are
    unsupportable (infeasible point).
    """

    feasible: bool
    max_rate: float | None = None
    omega_star: AssignmentMatrix | None = None


def _assignment_constraints(mu: np.ndarray, lam: np.ndarray, served) -> tuple[np.ndarray, np.ndarray]:
    """Rows A, b of the assignment LP ``A @ omega.ravel() <= b`` (variable j * M_s + l).

    Row sums, then column sums (each at most one), then one row per user l in
    ``served`` whose service covers its arrivals: -sum_j omega[j,l]*mu[j,l] <= -lam[l].
    With omega >= 0, a row sum of at most one already gives omega <= 1, so the
    LP carries no bound rows. ``lam`` may be a stack of rate vectors, one row
    of b each.
    """
    m_p, m_s = mu.shape
    # Basic slices only: an index-array fill (cols // m_s, cols % m_s) is
    # slower and faults in 64 KB more of numpy's code per process.
    A = np.zeros((m_p + m_s + len(served), m_p * m_s))
    for j in range(m_p):
        A[j, j * m_s : (j + 1) * m_s] = 1.0
    for l in range(m_s):
        A[m_p + l, l::m_s] = 1.0
    for i, l in enumerate(served, m_p + m_s):
        A[i, l::m_s] = -mu[:, l]
    b = np.ones(lam.shape[:-1] + (len(A),))
    b[..., m_p + m_s :] = -lam[..., served]
    return A, b


def _envelope_lp(rates: RateMatrix, lam: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c, A and b of the LP maximizing user k's rate; ``lam`` may be a stack of rate vectors.

    max sum_j omega[j,k]*mu[j,k] subject to omega >= 0, row/column sums <= 1,
    and each other user's rate not exceeding its service rate.
    """
    c = np.zeros(rates.m_p * rates.m_s)
    c[k :: rates.m_s] = rates.mu[:, k]
    A, b = _assignment_constraints(rates.mu, lam, [l for l in range(rates.m_s) if l != k])
    return c, A, b


def _envelope_point(rates: RateMatrix, sol: optim.LpSolution) -> EnvelopePoint:
    if sol.status == "infeasible":
        return EnvelopePoint(feasible=False)
    if not sol.is_optimal:
        raise RuntimeError(f"envelope LP unexpectedly {sol.status}")
    omega = AssignmentMatrix(sol.x.reshape(rates.m_p, rates.m_s))
    return EnvelopePoint(feasible=True, max_rate=sol.value, omega_star=omega)


def envelope_point(rates: RateMatrix, fixed_lambdas, k: int) -> EnvelopePoint:
    """Maximize user k's stable rate with the other users' rates held fixed.

    Solves: max sum_j omega[j,k]*mu[j,k] subject to omega >= 0, row/column sums
    <= 1, and each fixed user's rate not exceeding its service rate. The entry
    of ``fixed_lambdas`` at position k is ignored.
    """
    c, A, b = _envelope_lp(rates, rate_vector(fixed_lambdas, rates.m_s, skip=k), k)
    return _envelope_point(rates, optim.solve_lp(optim.LpProblem(c=c, A=A, b=b, lo=np.zeros(c.size))))


def max_slack_assignment(rates: RateMatrix, lambdas) -> AssignmentMatrix:
    """Assignment fractions maximizing the smallest service surplus over all users.

    Solves: max t subject to the assignment constraints and, for every user l,
    sum_j omega[j,l]*mu[j,l] >= lambdas[l] + t, with t >= -2 (t < 0 outside the
    region). Rates are >= 0 and mu <= 1, so every service row gives t <= 1.
    """
    m_p, m_s = rates.m_p, rates.m_s
    lam = rate_vector(lambdas, m_s)
    n = m_p * m_s
    A, b = _assignment_constraints(rates.mu, lam, range(m_s))
    slack = np.zeros((A.shape[0], 1))
    slack[m_p + m_s :] = 1.0  # t enters every service row
    problem = optim.LpProblem(c=np.append(np.zeros(n), 1.0), A=np.hstack([A, slack]), b=b,
                              lo=np.append(np.zeros(n), -2.0))
    sol = optim.solve_lp(problem)
    if not sol.is_optimal:
        raise ConfigurationError(f"policy LP {sol.status}")
    return AssignmentMatrix(sol.x[:n].reshape(m_p, m_s))


def two_by_two_closed_form(mu, lambda_s1: float) -> tuple[float, float] | None:
    """Closed-form envelope for 2 users / 2 bands.

    Maximizes eps*(mu12 - mu22) subject to lambda_s1 - mu11 <= eps*(mu21 - mu11)
    and 0 <= eps <= 1, where eps is the probability of the swapped assignment.
    Returns (eps_star, lambda_s2_max), or None when lambda_s1 is unsupportable.
    When mu12 == mu22 every feasible eps is optimal and the smallest is returned.
    """
    mu = np.asarray(mu, dtype=float)
    check_unit_interval(mu, "mu")
    if mu.shape != (2, 2):
        raise ConfigurationError("mu must be 2x2")
    if not lambda_s1 >= 0:  # also refuses NaN
        raise ConfigurationError("lambda_s1 must be >= 0")
    mu11, mu12, mu21, mu22 = mu[0, 0], mu[0, 1], mu[1, 0], mu[1, 1]
    a = mu21 - mu11
    r = lambda_s1 - mu11
    if a > 0:
        if r / a > 1:  # lambda_s1 > mu21
            return None
        lower, upper = max(r / a, 0.0), 1.0
    elif a < 0:
        if r > 0:  # lambda_s1 > mu11
            return None
        lower, upper = 0.0, (min(r / a, 1.0) if r < 0 else 0.0)
    else:
        if r > 0:
            return None
        lower, upper = 0.0, 1.0
    slope = mu12 - mu22
    eps = float(upper if slope > 0 else lower)
    return eps, float(eps * mu12 + (1.0 - eps) * mu22)


def sweep_rates(m_s: int, axis: int, grid, others=None, sweep_user=None) -> np.ndarray:
    """Rates of a sweep of user ``axis``'s envelope, one row per point of an ascending grid.

    ``sweep_user`` (default: the lowest index other than ``axis``) takes each
    grid value in turn; the remaining users keep the rates given in ``others``
    (default all zero). Entry ``axis`` is 0. Every rate is checked here.
    """
    check_user_index(axis, m_s)
    if sweep_user is None:
        sweep_user = next((u for u in range(m_s) if u != axis), axis)
    check_user_index(sweep_user, m_s)
    if sweep_user == axis:
        raise ConfigurationError("sweep_user must differ from axis")
    grid = [float(v) for v in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("grid must be ascending")
    base = np.zeros(m_s) if others is None else rate_vector(others, m_s, skip=axis)
    lam = np.tile(base, (len(grid), 1))
    lam[:, sweep_user] = grid
    return rate_rows(lam, m_s)


def sweep_envelope(rates: RateMatrix, axis: int, grid, others=None, sweep_user=None) -> list[EnvelopePoint]:
    """Envelope of user ``axis`` at each row of ``sweep_rates`` (same arguments).

    The grid points' LPs share c and A and are solved together by
    ``optim.solve_lps``. A negative or NaN rate is refused before any LP is
    solved. Infeasible grid points are returned as infeasible envelope points
    rather than raised; an LP that ends otherwise raises at the first such
    point.
    """
    c, A, b = _envelope_lp(rates, sweep_rates(rates.m_s, axis, grid, others, sweep_user), axis)
    return [_envelope_point(rates, sol) for sol in optim.solve_lps(c, A, b, np.zeros(c.size))]
