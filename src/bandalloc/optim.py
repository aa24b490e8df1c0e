"""Small dense LP machinery.

Two tools live here:

* ``solve_lps``: a two-phase dense simplex with Bland's anti-cycling rule
  (Bland 1977) for ``maximize c @ x s.t. A @ x <= b, x >= lo``, solving many
  LPs that share c, A and lo in lockstep; an upper bound is one more row of
  A. ``solve_lp`` is the batch of one. The LPs in this package have at most a
  few dozen variables, so a plain tableau is both fast enough and easy to
  audit. The LPs whose ``b - A @ lo`` has the same negative entries share one
  stack of tableaux, so they have the same artificial columns. Both phases run
  on that stack through one pivot loop, ``_simplex``: each iteration picks
  every active LP's entering column and leaving row and pivots all of them in
  one array operation, and an LP leaves the loop once it is optimal,
  unbounded or out of iterations. Phase II keeps the artificial columns out by
  the column count. Entering is the first column whose reduced cost exceeds
  _PIVOT_TOL; leaving is the smallest ratio among rows whose pivot element
  exceeds _PIVOT_MIN = 1e-9, with ratios within _PIVOT_TOL of it tied and a
  tie going to the smallest basis index. A pivot element of 1.1e-11 near the
  S boundary of a 5x4 scenario wrecked the tableau: phase II stopped at a
  point 0.4 outside one constraint, so small elements are never pivoted on.
  Elementwise, every LP sees the arithmetic of a solve on its own, so its
  solution does not depend on the batch it is solved in.
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
# LPs per tableau stack: a 5x4 envelope tableau takes 3.7 KB, and a pivot
# allocates one more array of the stack's size.
_LPS_PER_CALL = 256


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


def _pivot(T: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray, f: np.ndarray,
           pivots: np.ndarray) -> None:
    """Pivot each tableau ``T[i]`` of the stack on ``(rows[i], cols[i])``.

    ``f[i]`` is tableau i's column ``cols[i]``, and ``pivots[i]`` its element in row ``rows[i]``.
    """
    lps = np.arange(len(T))
    prow = T[lps, rows] / pivots[:, None]
    # Rows with a zero multiplier are left alone, which keeps their signed zeros.
    # The pivot row is overwritten with the divided row just after.
    np.subtract(T, f[:, :, None] * prow[:, None], out=T, where=(f != 0.0)[:, :, None])
    T[lps, rows] = prow
    basis[lps, rows] = cols


def _price(T: np.ndarray, basis: np.ndarray, costs: np.ndarray) -> None:
    """Write the reduced costs of ``costs`` (one per leading column) into each objective row.

    Every basic column is a unit column, so row i's multiplier is nonzero only
    where the cost of its basic variable is; the other rows are skipped.
    """
    obj = T[:, -1]
    obj[:] = 0.0
    obj[:, : costs.size] = costs
    lps = np.arange(len(T))
    for i in np.flatnonzero(np.logical_or.reduce(obj[0, basis] != 0.0, axis=0)):
        f = obj[lps, basis[:, i]]
        np.subtract(obj, f[:, None] * T[:, i], out=obj, where=(f != 0.0)[:, None])


def _simplex(T: np.ndarray, basis: np.ndarray, allowed: int) -> list[str]:
    """Bland pivots on each tableau of the stack T (last row objective, last column rhs), in lockstep.

    Only the first ``allowed`` columns enter. Returns each tableau's status. The
    stack is pivoted in place while every LP is active; once one stops, the
    active ones are pivoted in a copy, and each is written back when it stops.
    """
    m = basis.shape[1]
    if not m:  # no row to pivot on
        entering = np.logical_or.reduce(T[:, -1, :allowed] > _PIVOT_TOL, axis=1)
        return ["unbounded" if e else "optimal" for e in entering]
    status = ["failed"] * len(T)
    live = lps = np.arange(len(T))
    W, B = T, basis
    ratios = np.empty(B.shape)
    for _ in range(_MAX_ITER):
        cols = (W[:, -1, :allowed] > _PIVOT_TOL).argmax(axis=1)
        f = W[lps, :, cols]
        # Ineligible rows keep a NaN ratio, which no comparison selects.
        ratios.fill(np.nan)
        np.divide(W[:, :m, -1], f[:, :m], out=ratios, where=f[:, :m] > _PIVOT_MIN)
        ties = ratios <= np.fmin.reduce(ratios, axis=1)[:, None] + _PIVOT_TOL
        rows = np.where(ties, B, W.shape[2]).argmin(axis=1)
        # Without an eligible row, row 0 is chosen, and its element is not above _PIVOT_MIN.
        pivots = f[lps, rows]
        going = (f[:, -1] > _PIVOT_TOL) & (pivots > _PIVOT_MIN)
        if np.count_nonzero(going) < going.size:
            stop = ~going
            for i in np.flatnonzero(stop):
                status[live[i]] = "unbounded" if f[i, -1] > _PIVOT_TOL else "optimal"
            if W is not T:
                T[live[stop]], basis[live[stop]] = W[stop], B[stop]
            if not going.any():
                return status
            live, W, B = live[going], W[going], B[going]
            rows, cols, f, pivots = rows[going], cols[going], f[going], pivots[going]
            lps, ratios = np.arange(live.size), np.empty(B.shape)
        _pivot(W, B, rows, cols, f, pivots)
    if W is not T:
        T[live], basis[live] = W, B
    return status


def _solve_group(c: np.ndarray, A: np.ndarray, lo: np.ndarray, rhs: np.ndarray, b: np.ndarray,
                 flip: np.ndarray) -> list[LpSolution]:
    """Solve the LPs of one flip pattern: ``rhs`` holds their b, and ``b`` the same shifted by lo."""
    m, n = A.shape
    # Columns: variables, one slack per row, then one artificial per flipped
    # (negative-rhs) row; the last column is the rhs. The tableaux differ only there.
    art_rows = np.flatnonzero(flip)
    n_real = n + m
    T = np.zeros((m + 1, n_real + art_rows.size + 1))
    T[:m, :n] = np.where(flip[:, None], -A, A)
    T[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    T[art_rows, n_real + np.arange(art_rows.size)] = 1.0
    T = np.repeat(T[None], len(b), axis=0)
    T[:, :m, -1] = np.where(flip, -b, b)
    basis = n + np.arange(m)
    basis[art_rows] = n_real + np.arange(art_rows.size)
    basis = np.repeat(basis[None], len(b), axis=0)
    solutions: list = [None] * len(b)
    alive = np.arange(len(b))

    if art_rows.size:
        # Phase I: maximize -(sum of artificials).
        _price(T, basis, np.repeat([0.0, -1.0], [n_real, art_rows.size]))
        phase1 = _simplex(T, basis, T.shape[2] - 1)
        # Objective cell holds -(phase-I value); a positive residual means some
        # artificial variable is stuck above zero, i.e. the LP is infeasible.
        infeasible = T[:, -1, -1] > _FEAS_TOL
        for i, status in enumerate(phase1):
            if status != "optimal":
                solutions[i] = LpSolution(status="failed")
            elif infeasible[i]:
                solutions[i] = LpSolution(status="infeasible")
        alive = np.flatnonzero([sol is None for sol in solutions])
        if not alive.size:
            return solutions
        if alive.size < len(b):
            T, basis = T[alive], basis[alive]
        # Pivot leftover artificials out of the basis, row by row. One that cannot
        # leave sits on a redundant row, whose elements outside the artificial
        # columns are all within _PIVOT_MIN of zero, so phase II never pivots on it.
        for row in np.flatnonzero(np.logical_or.reduce(basis >= n_real, axis=0)):
            lps = np.flatnonzero(basis[:, row] >= n_real)
            magnitude = np.abs(T[lps, row, :n_real])
            cols = magnitude.argmax(axis=1)
            movable = magnitude[np.arange(lps.size), cols] > _PIVOT_MIN
            lps, cols = lps[movable], cols[movable]
            if lps.size:
                sub, sub_basis = T[lps], basis[lps]
                f = sub[np.arange(lps.size), :, cols]
                _pivot(sub, sub_basis, np.full(lps.size, row), cols, f, f[:, row])
                T[lps], basis[lps] = sub, sub_basis

    # Phase II on the same tableaux; artificial columns never enter.
    _price(T, basis, c)
    statuses = _simplex(T, basis, n_real)
    y = np.zeros((len(T), T.shape[2] - 1))
    y[np.arange(len(T))[:, None], basis] = T[:, :m, -1]
    for i, status, x in zip(alive, statuses, y[:, :n] + lo):
        # Independent residual check before declaring victory.
        if status != "optimal":
            solutions[i] = LpSolution(status=status)
        elif np.any(A @ x - rhs[i] > _FEAS_TOL) or np.any(lo - x > _FEAS_TOL):
            solutions[i] = LpSolution(status="failed")
        else:
            solutions[i] = LpSolution(status="optimal", value=float(c @ x), x=x)
    return solutions


def _solve(c: np.ndarray, A: np.ndarray, lo: np.ndarray, rhs: np.ndarray) -> list[LpSolution]:
    """Solve maximize c @ x s.t. A @ x <= b, x >= lo for each row b of ``rhs``, one stack per flip pattern."""
    b = rhs - A @ lo  # shift to y = x - lo >= 0
    flip = b < 0
    groups: dict[bytes, list[int]] = {}
    for i, pattern in enumerate(flip):
        groups.setdefault(pattern.tobytes(), []).append(i)
    if len(groups) == 1:
        return _solve_group(c, A, lo, rhs, b, flip[0])
    solutions: list = [None] * len(rhs)
    for members in groups.values():
        for i, sol in zip(members, _solve_group(c, A, lo, rhs[members], b[members], flip[members[0]])):
            solutions[i] = sol
    return solutions


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP; never reports a wrong "optimal".

    The returned point of an optimal solution satisfies every constraint and
    bound within 1e-9; if the tableau degrades numerically beyond that the
    status is "failed".
    """
    return _solve(problem.c, problem.A, problem.lo, problem.b[None])[0]


def solve_lps(c, A, rhs, lo) -> list[LpSolution]:
    """``solve_lp(LpProblem(c, A, b, lo))`` for each row b of ``rhs``, bit for bit, in lockstep.

    The LPs are solved at most _LPS_PER_CALL at a time, one tableau stack per
    pattern of negative entries of ``b - A @ lo``.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2:
        raise ValueError("rhs must hold one row of b per LP")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("b must be finite")
    shared = LpProblem(c=c, A=A, b=np.zeros(rhs.shape[1]), lo=lo)  # checks c, A, lo and the row count
    return [sol for i in range(0, len(rhs), _LPS_PER_CALL)
            for sol in _solve(shared.c, shared.A, shared.lo, rhs[i : i + _LPS_PER_CALL])]


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
