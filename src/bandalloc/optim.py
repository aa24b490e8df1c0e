"""Small dense LP machinery.

Two tools live here:

* ``solve_lp``: a two-phase dense simplex with Bland's anti-cycling rule
  (Bland 1977) for ``maximize c @ x s.t. A @ x <= b, x >= lo``; an upper bound
  is one more row of A. The LPs in this package have at most a few dozen
  variables, so a plain tableau is both fast enough and easy to audit. Both
  phases run on one tableau through one pivot loop, ``_simplex``; phase II
  keeps the artificial columns out by the column count. Entering is the first
  column whose reduced cost exceeds _PIVOT_TOL; leaving is the smallest ratio
  among rows whose pivot element exceeds _PIVOT_MIN = 1e-9, with ratios within
  _PIVOT_TOL of it tied and a tie going to the smallest basis index. A pivot
  element of 1.1e-11 near the S boundary of a 5x4 scenario wrecked the tableau:
  phase II stopped at a point 0.4 outside one constraint, so small elements are
  never pivoted on.
* ``fractional_argmax``: closed-form maximizer, elementwise over arrays, of the
  one-variable linear fractional objective (K1*g - K2)/(D + C*g) subject to a
  single linear constraint and g in [0, 1], by sign analysis of the derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FEAS_TOL = 1e-9  # feasibility residuals below this are accepted
_PIVOT_TOL = 1e-12
_PIVOT_MIN = 1e-9
_MAX_ITER = 20000


@dataclass(frozen=True)
class LpProblem:
    """maximize c @ x  subject to  A @ x <= b,  x >= lo.

    Every entry must be finite. An upper bound is a row of A.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.asarray(self.A, dtype=float).reshape(-1, c.size) if np.size(self.A) else np.zeros((0, c.size))
        b = np.atleast_1d(np.asarray(self.b, dtype=float)) if np.size(self.b) else np.zeros(0)
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        for name, arr in (("c", c), ("A", A), ("b", b), ("lower bounds", lo)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if lo.shape != c.shape:
            raise ValueError("lower bounds must match the number of variables")
        if A.shape[0] != b.size:
            raise ValueError("A and b disagree on the number of constraints")
        for name, arr in (("c", c), ("A", A), ("b", b), ("lo", lo)):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "failed"
    value: float | None = None
    x: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col]
    rows = f.nonzero()[0]
    rows = rows[rows != row]
    # Rows with a zero multiplier are left alone, which keeps their signed zeros.
    T[rows] -= f[rows, None] * T[row]
    basis[row] = col


def _price(T: np.ndarray, basis: np.ndarray, costs: np.ndarray) -> None:
    """Write the reduced costs of ``costs`` (one per leading column) into the objective row."""
    T[-1] = 0.0
    T[-1, : costs.size] = costs
    for i, bv in enumerate(basis):
        if T[-1, bv] != 0.0:
            T[-1] -= T[-1, bv] * T[i]


def _simplex(T: np.ndarray, basis: np.ndarray, allowed: int) -> str:
    """Bland pivots on T (last row objective, last column rhs) over its first ``allowed`` columns."""
    m = basis.size
    for _ in range(_MAX_ITER):
        obj = T[-1, :allowed]
        col = (obj > _PIVOT_TOL).argmax()
        if not obj[col] > _PIVOT_TOL:
            return "optimal"
        rows = (T[:m, col] > _PIVOT_MIN).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / T[rows, col]
        ties = rows[ratios <= ratios.min() + _PIVOT_TOL]
        _pivot(T, basis, ties[basis[ties].argmin()], col)
    return "failed"


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP; never reports a wrong "optimal".

    The returned point of an optimal solution satisfies every constraint and
    bound within 1e-9; if the tableau degrades numerically beyond that the
    status is "failed".
    """
    A = problem.A
    b = problem.b - A @ problem.lo  # shift to y = x - lo >= 0
    m, n = A.shape

    # Columns: variables, one slack per row, then one artificial per flipped
    # (negative-rhs) row; the last column is the rhs.
    flip = b < 0
    art_rows = np.flatnonzero(flip)
    n_real = n + m
    T = np.zeros((m + 1, n_real + art_rows.size + 1))
    T[:m, :n] = np.where(flip[:, None], -A, A)
    T[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    T[art_rows, n_real + np.arange(art_rows.size)] = 1.0
    T[:m, -1] = np.where(flip, -b, b)
    basis = n + np.arange(m)
    basis[art_rows] = n_real + np.arange(art_rows.size)

    if art_rows.size:
        # Phase I: maximize -(sum of artificials).
        _price(T, basis, np.repeat([0.0, -1.0], [n_real, art_rows.size]))
        if _simplex(T, basis, T.shape[1] - 1) != "optimal":
            return LpSolution(status="failed")
        # Objective cell holds -(phase-I value); a positive residual means some
        # artificial variable is stuck above zero, i.e. the LP is infeasible.
        if T[-1, -1] > _FEAS_TOL:
            return LpSolution(status="infeasible")
        # Pivot leftover artificials out of the basis. One that cannot leave sits
        # on a redundant row, whose elements outside the artificial columns are
        # all within _PIVOT_MIN of zero, so phase II never pivots on it.
        for i in np.flatnonzero(basis >= n_real):
            row = np.abs(T[i, :n_real])
            col = int(np.argmax(row))
            if row[col] > _PIVOT_MIN:
                _pivot(T, basis, i, col)

    # Phase II on the same tableau; artificial columns never enter.
    _price(T, basis, problem.c)
    status = _simplex(T, basis, n_real)
    if status != "optimal":
        return LpSolution(status=status)

    y = np.zeros(T.shape[1] - 1)
    y[basis] = T[:m, -1]
    x = y[:n] + problem.lo
    # Independent residual check before declaring victory.
    if np.any(A @ x - problem.b > _FEAS_TOL) or np.any(problem.lo - x > _FEAS_TOL):
        return LpSolution(status="failed")
    return LpSolution(status="optimal", value=float(problem.c @ x), x=x)


def fractional_argmax(K1, K2, C, D, lambda_s2):
    """Elementwise maximizer of (K1*g - K2)/(D + C*g) over feasible g in [0, 1].

    The derivative has the constant sign of (K2*C + D*K1), so the optimum is an
    end of the interval that ``lambda_s2 - D <= C*g`` carves out of [0, 1]: the
    upper end when that sign is positive. Returns (g_opt, feasible) arrays.
    """
    rhs = lambda_s2 - D
    ratio = rhs / (C + (C == 0.0))  # divides by 1 where C == 0; read only where C != 0
    positive = C > 0.0
    feasible = ~np.where(positive, ratio > 1.0, rhs > 0.0)
    lower = np.where(positive, np.where(ratio < 0.0, 0.0, ratio), 0.0)
    upper = np.where(C < 0.0, np.where(rhs < 0.0, np.minimum(ratio, 1.0), 0.0), 1.0)
    return np.where(K2 * C + D * K1 > 0.0, upper, lower), feasible
