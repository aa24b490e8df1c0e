"""Small dense LP machinery.

Two tools live here:

* ``solve_lp``: a two-phase dense simplex with Bland's anti-cycling rule. The
  LPs in this package have at most a few dozen variables, so a plain tableau is
  both fast enough and easy to audit.
* ``fractional_argmax``: closed-form maximizer, elementwise over arrays, of the
  one-variable linear fractional objective (K1*g - K2)/(D + C*g) subject to a
  single linear constraint and g in [0, 1], by sign analysis of the derivative;
  ``maximize_fractional_1d`` is its scalar form for one ``FractionalCoeffs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Feasibility residuals below this are accepted; pivot candidates must clear _PIVOT_TOL.
_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-12
_MAX_ITER = 20000


@dataclass(frozen=True)
class LpProblem:
    """maximize c @ x  subject to  A @ x <= b,  lo <= x <= hi.

    Lower bounds must be finite; upper bounds may be +inf.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.asarray(self.A, dtype=float).reshape(-1, c.size) if np.size(self.A) else np.zeros((0, c.size))
        b = np.atleast_1d(np.asarray(self.b, dtype=float)) if np.size(self.b) else np.zeros(0)
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if lo.shape != c.shape or hi.shape != c.shape:
            raise ValueError("bounds must match the number of variables")
        if not np.all(np.isfinite(lo)):
            raise ValueError("lower bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        if A.shape[0] != b.size:
            raise ValueError("A and b disagree on the number of constraints")
        for name, arr in (("c", c), ("A", A), ("b", b), ("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "failed"
    value: float | None = None
    x: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _bland_entering(obj: np.ndarray, allowed: int) -> int | None:
    """Smallest-index column with positive reduced cost (maximization)."""
    for j in range(allowed):
        if obj[j] > _PIVOT_TOL:
            return j
    return None


def _bland_leaving(T: np.ndarray, basis: list[int], col: int, m: int) -> int | None:
    """Minimum-ratio row; ties broken by smallest basis variable index (Bland)."""
    best_row = None
    best_ratio = math.inf
    for i in range(m):
        a = T[i, col]
        if a > _PIVOT_TOL:
            ratio = T[i, -1] / a
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL
                and best_row is not None
                and basis[i] < basis[best_row]
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _run_simplex(T: np.ndarray, basis: list[int], n_allowed: int, m: int) -> str:
    """Iterate Bland pivots on tableau T (last row = objective, last col = rhs)."""
    for _ in range(_MAX_ITER):
        col = _bland_entering(T[-1], n_allowed)
        if col is None:
            return "optimal"
        row = _bland_leaving(T, basis, col, m)
        if row is None:
            return "unbounded"
        _pivot(T, basis, row, col)
    return "failed"


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP; never reports a wrong "optimal".

    The returned point of an optimal solution satisfies every constraint and
    bound within 1e-9; if the tableau degrades numerically beyond that the
    status is "failed".
    """
    n = problem.n_vars
    # Shift to y = x - lo >= 0 and fold finite upper bounds in as rows.
    shift = problem.lo
    rows = [problem.A]
    rhs = [problem.b - problem.A @ shift if problem.A.size else problem.b]
    ub = problem.hi - problem.lo
    finite_ub = np.where(np.isfinite(ub))[0]
    if finite_ub.size:
        E = np.zeros((finite_ub.size, n))
        E[np.arange(finite_ub.size), finite_ub] = 1.0
        rows.append(E)
        rhs.append(ub[finite_ub])
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    m = A.shape[0]

    # Flip negative-rhs rows; flipped rows need artificial variables.
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    slack_sign = np.where(flip, -1.0, 1.0)
    art_rows = np.where(flip)[0]

    n_slack = m
    n_art = art_rows.size
    n_total = n + n_slack + n_art
    T = np.zeros((m + 1, n_total + 1))
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = slack_sign
    basis = [n + i for i in range(m)]
    for idx, r in enumerate(art_rows):
        T[r, n + n_slack + idx] = 1.0
        basis[r] = n + n_slack + idx
    T[:m, -1] = b

    if n_art:
        # Phase I: maximize -(sum of artificials).
        T[-1, :] = 0.0
        T[-1, n + n_slack : n + n_slack + n_art] = -1.0
        for i, bv in enumerate(basis):
            if T[-1, bv] != 0.0:
                T[-1] -= T[-1, bv] * T[i]
        status = _run_simplex(T, basis, n_total, m)
        if status != "optimal":
            return LpSolution(status="failed")
        # Objective cell holds -(phase-I value); a positive residual means some
        # artificial variable is stuck above zero, i.e. the LP is infeasible.
        if T[-1, -1] > _FEAS_TOL:
            return LpSolution(status="infeasible")
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] < n + n_slack:
                keep.append(i)
                continue
            row = np.abs(T[i, : n + n_slack])
            pivot_col = int(np.argmax(row))
            if row[pivot_col] <= _PIVOT_TOL:
                continue  # redundant constraint
            _pivot(T, basis, i, pivot_col)
            keep.append(i)
        if len(keep) != m:
            T = np.vstack([T[keep], T[-1:]])
            basis = [basis[i] for i in keep]
            m = len(keep)
        T = np.hstack([T[:, : n + n_slack], T[:, -1:]])
        n_total = n + n_slack

    # Phase II
    T[-1, :] = 0.0
    T[-1, :n] = problem.c
    for i, bv in enumerate(basis):
        if T[-1, bv] != 0.0:
            T[-1] -= T[-1, bv] * T[i]
    status = _run_simplex(T, basis, n_total, m)
    if status == "unbounded":
        return LpSolution(status="unbounded")
    if status != "optimal":
        return LpSolution(status="failed")

    y = np.zeros(n_total)
    for i, bv in enumerate(basis):
        y[bv] = T[i, -1]
    x = y[:n] + shift
    # Independent residual check before declaring victory.
    if problem.A.size and np.any(problem.A @ x - problem.b > _FEAS_TOL):
        return LpSolution(status="failed")
    if np.any(x - problem.hi > _FEAS_TOL) or np.any(problem.lo - x > _FEAS_TOL):
        return LpSolution(status="failed")
    return LpSolution(status="optimal", value=float(problem.c @ x), x=x)


@dataclass(frozen=True)
class FractionalCoeffs:
    """Coefficients of the reduced linear-fractional objective (K1*g22 - K2)/(D + C*g22).

    The constraint is ``lambda_s2 - D <= C * g22`` with 0 <= g22 <= 1; D >= 0.
    ``gamma21`` is carried along because the optimum is evaluated per fixed
    first-user selection probability.
    """

    K1: float
    K2: float
    C: float
    D: float
    lambda_s2: float
    gamma21: float

    def __post_init__(self) -> None:
        if self.D < 0:
            raise ValueError("D must be >= 0")


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


def maximize_fractional_1d(coeffs: FractionalCoeffs) -> tuple[float | None, str]:
    """Scalar form of ``fractional_argmax``: (g_opt, "optimal") or (None, "infeasible")."""
    g, feasible = fractional_argmax(coeffs.K1, coeffs.K2, coeffs.C, coeffs.D, coeffs.lambda_s2)
    return (float(g), "optimal") if feasible else (None, "infeasible")
