"""Stability envelope of the orthogonal band-allocation system (system S).

The envelope is the LP over assignment fractions omega[j, k] (row and
column sums at most one). ``envelope_point`` solves it at one point. The LPs
of a sweep differ only in the right-hand side of the swept user's service
row, which falls as the grid ascends, so ``sweep_rows`` builds the LP
once, at the first grid point, and hands ``optim.solve_sweep`` that LP, the
row and its values along the grid: one two-phase solve, then one dual simplex
pivot per change of optimal basis along the grid. The envelope is piecewise
linear between those breakpoints, so a long grid costs little more than a
short one. The two-user/two-band case also has a closed form. The other
special cases (single band, symmetric users or bands) are test oracles in
``tests/oracles.py``.

Convention used throughout the package: envelope computations use non-strict
constraints (the closure of the stability region), region-membership
predicates use strict inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .model import ConfigurationError, RateMatrix, check_unit_interval, rate_vector

_TOL = 1e-9


@dataclass(frozen=True)
class AssignmentMatrix:
    """Fractions omega[j, k] of slots in which band j is assigned to user k."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float)
        if omega.ndim != 2:
            raise ConfigurationError("omega must be an M_p x M_s matrix")
        if not np.all(omega >= -_TOL):  # NaN fails >=
            raise ConfigurationError("omega entries must be nonnegative")
        if not (np.all(omega.sum(axis=1) <= 1 + _TOL) and np.all(omega.sum(axis=0) <= 1 + _TOL)):
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
    LP carries no bound rows.
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
    return A, np.concatenate([np.ones(m_p + m_s), -lam[served]])


def _envelope_lp(rates: RateMatrix, lam: np.ndarray, k: int) -> optim.LpProblem:
    """The LP maximizing user k's rate at the rate vector ``lam``.

    max sum_j omega[j,k]*mu[j,k] subject to omega >= 0, row/column sums <= 1,
    and each other user's rate not exceeding its service rate.
    """
    c = np.zeros(rates.m_p * rates.m_s)
    c[k :: rates.m_s] = rates.mu[:, k]
    A, b = _assignment_constraints(rates.mu, lam, [l for l in range(rates.m_s) if l != k])
    return optim.LpProblem(c=c, A=A, b=b, lo=np.zeros(c.size))


def _max_rate(sol: optim.LpSolution) -> float | None:
    """The envelope LP's optimum, or None where it is infeasible; any other end raises."""
    if sol.status == "infeasible":
        return None
    if not sol.is_optimal:
        raise RuntimeError(f"envelope LP unexpectedly {sol.status}")
    return sol.value


def envelope_point(rates: RateMatrix, fixed_lambdas, k: int) -> EnvelopePoint:
    """Maximize user k's stable rate with the other users' rates held fixed.

    Solves: max sum_j omega[j,k]*mu[j,k] subject to omega >= 0, row/column sums
    <= 1, and each fixed user's rate not exceeding its service rate. The entry
    of ``fixed_lambdas`` at position k is ignored.
    """
    sol = optim.solve_lp(_envelope_lp(rates, rate_vector(fixed_lambdas, rates.m_s, skip=k), k))
    value = _max_rate(sol)
    if value is None:
        return EnvelopePoint(feasible=False)
    omega = AssignmentMatrix(sol.x.reshape(rates.m_p, rates.m_s))
    return EnvelopePoint(feasible=True, max_rate=value, omega_star=omega)


def max_slack_assignment(rates: RateMatrix, lambdas) -> AssignmentMatrix:
    """Assignment fractions maximizing the smallest service surplus over all users.

    Solves: max t subject to the assignment constraints and, for every user l,
    sum_j omega[j,l]*mu[j,l] >= lambdas[l] + t, with t >= -2 (t < 0 outside the
    region). Rates are >= 0 and mu <= 1, so every service row gives t <= 1.
    """
    m_p, m_s = rates.m_p, rates.m_s
    lam = rate_vector(lambdas, m_s)
    n = m_p * m_s
    A, b = _assignment_constraints(rates.mu, lam, list(range(m_s)))
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
    lambda_s1 = rate_vector([lambda_s1, 0.0], 2)[0]
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


def sweep_rows(rates: RateMatrix, axis: int, lam: np.ndarray, sweep: int) -> list[float | None]:
    """User ``axis``'s envelope value at the rows ``lam`` and swept user ``sweep`` from ``model.sweep_rates``.

    The grid points' LPs differ only in the swept user's service row, so the
    LP is built once, at the first point, and ``optim.solve_sweep`` walks one
    optimal basis along that row's values. The values agree with
    ``envelope_point``'s to rounding, and the first is its value exactly. An
    infeasible point gives None; the first LP solved on its own that ends
    otherwise raises.
    """
    if not len(lam):
        return []
    row = rates.m_p + rates.m_s + sweep - (sweep > axis)  # the swept user's service row
    return [value if type(value) is float else _max_rate(value)
            for value in optim.solve_sweep(_envelope_lp(rates, lam[0], axis), row, -lam[:, sweep])]
