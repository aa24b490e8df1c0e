"""Small dense LP machinery.

Three tools live here:

* ``solve_lps``: a two-phase dense simplex for ``maximize c @ x s.t.
  A @ x <= b, x >= lo``, solving many LPs that share c, A and lo in lockstep;
  an upper bound is one more row of A. ``solve_lp`` is the batch of one. The
  LPs in this package have at most a few dozen variables, so a plain tableau
  is both fast enough and easy to audit. A batch is one stack of tableaux,
  with an artificial column for each row that any of its LPs flips (negative
  ``b - A @ lo``); an LP's artificial never enters on a row it does not flip
  (``_solve``). Both phases run on the stack through one pivot loop,
  ``_simplex``: each iteration picks every active LP's entering column and
  leaving row and pivots all of them in one array operation, and an LP leaves
  the loop once it is optimal, unbounded or out of iterations. Phase II keeps
  the artificial columns out by the column count. Entering is Dantzig's
  column (Dantzig 1963), or Bland's (Bland 1977) right after a degenerate
  pivot; leaving is the smallest ratio among rows whose pivot element exceeds
  _PIVOT_MIN = 1e-9, with ratios within _PIVOT_TOL of it tied and a tie going
  to the smallest basis index. A pivot element of 1.1e-11 near the S boundary
  of a 5x4 scenario wrecked the tableau: phase II stopped at a point 0.4
  outside one constraint, so small elements are never pivoted on. Every LP
  sees the arithmetic of a solve on its own, whatever batch it is solved in.
* ``solve_sweep``: the LPs of a sweep that moves one entry of b, one way.
  It solves the first with ``_solve``, which hands back its final tableaux,
  and walks that basis along the sweep: each basis covers the points down to
  its breakpoint, and one dual simplex pivot per breakpoint gives the next.
  A covered point passes the residual check of ``_solve`` and a reduced-cost
  check before its value counts; every other point goes to ``solve_lps``.
  On a 21-point 5x4 sweep that is one two-phase solve and about a dozen
  pivots, against 21 LPs in lockstep.
* ``fractional_argmax``: closed-form maximizer, elementwise over arrays, of the
  one-variable linear fractional objective (K1*g - K2)/(D + C*g) subject to a
  single linear constraint and g in [0, 1], by sign analysis of the derivative.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
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


def _pivot(T: np.ndarray, basis: np.ndarray, lps: np.ndarray, rows: np.ndarray, cols: np.ndarray,
           f: np.ndarray, pivots: np.ndarray) -> None:
    """Pivot each tableau ``T[i]`` of the stack on ``(rows[i], cols[i])``.

    ``lps`` is ``arange(len(T))``, ``f[i]`` tableau i's column ``cols[i]``, and
    ``pivots[i, 0]`` its element in row ``rows[i]``.
    """
    prow = T[lps, rows]
    prow /= pivots
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
    """Simplex pivots on each tableau of the stack T (last row objective, last column rhs), in lockstep.

    Only the first ``allowed`` columns enter. An LP enters the column of its
    largest reduced cost (Dantzig), the first one on ties, unless its last
    pivot was degenerate (pivot-row rhs at most _PIVOT_TOL): then the first
    column whose reduced cost exceeds _PIVOT_TOL (Bland). Every pivot of a
    cycle is degenerate, so once one of its bases repeats every choice is
    Bland's, which does not cycle. Returns each tableau's status. The stack is
    pivoted in place while every LP is active; once one stops, the active ones
    are pivoted in a copy, and each is written back when it stops.
    """
    m = basis.shape[1]
    if not m:  # no row to pivot on
        entering = np.logical_or.reduce(T[:, -1, :allowed] > _PIVOT_TOL, axis=1)
        return ["unbounded" if e else "optimal" for e in entering]
    status = ["failed"] * len(T)
    live = lps = np.arange(len(T))
    W, B = T, basis
    ratios = np.empty(B.shape)
    bland = np.zeros((len(T), 1), dtype=bool)
    for _ in range(_MAX_ITER):
        obj = W[:, -1, :allowed]
        improving = obj > _PIVOT_TOL
        cols = np.where(bland, improving, obj).argmax(axis=1)
        f = W[lps, :, cols]
        # Ineligible rows keep a NaN ratio, which no comparison selects.
        ratios.fill(np.nan)
        np.divide(W[:, :m, -1], f[:, :m], out=ratios, where=f[:, :m] > _PIVOT_MIN)
        ties = ratios <= np.fmin.reduce(ratios, axis=1, keepdims=True) + _PIVOT_TOL
        rows = np.where(ties, B, W.shape[2]).argmin(axis=1)
        # Without an eligible row, row 0 is chosen, and it is no tie.
        going = improving[lps, cols] & ties[lps, rows]
        if not going.all():
            stop = ~going
            for i in np.flatnonzero(stop):
                status[live[i]] = "unbounded" if improving[i, cols[i]] else "optimal"
            if W is not T:
                T[live[stop]], basis[live[stop]] = W[stop], B[stop]
            if not going.any():
                return status
            live, W, B = live[going], W[going], B[going]
            rows, cols, f = rows[going], cols[going], f[going]
            lps, ratios = np.arange(live.size), np.empty(B.shape)
        bland = W[lps, rows, -1:] <= _PIVOT_TOL  # a degenerate pivot: Bland's column next
        _pivot(W, B, lps, rows, cols, f, f[lps, rows, None])
    if W is not T:
        T[live], basis[live] = W, B
    return status


def _solve(c: np.ndarray, A: np.ndarray, lo: np.ndarray, rhs: np.ndarray
           ) -> tuple[list[LpSolution], np.ndarray, np.ndarray]:
    """Solve maximize c @ x s.t. A @ x <= b, x >= lo for each row b of ``rhs``, as one stack of tableaux.

    Returns the solutions, and the final tableaux and bases of the LPs that
    reached phase II, in the order of ``rhs``.
    """
    m, n = A.shape
    b = rhs - A @ lo  # shift to y = x - lo >= 0
    flip = b < 0
    # Columns: variables, a slack per row, an artificial per row that any LP
    # flips, the rhs. Each LP negates the rows it flips and starts from their
    # artificials. On a row an LP does not flip, the artificial equals the slack
    # column under the same row operations, so its phase-I reduced cost stays the
    # slack's minus 1. Rounding keeps it below the slack's, or at worst equal, and
    # a tie goes to the slack's lower index: Dantzig's argmax and Bland's first
    # column both take the slack, and the artificial never enters. Other columns,
    # ratio tests and basis order match a stack of the LP's own flips; an LP
    # flipping no row ends phase I at once.
    flipped = np.logical_or.reduce(flip, axis=0)
    art_rows = np.flatnonzero(flipped)
    n_real = n + m
    T = np.zeros((len(b), m + 1, n_real + art_rows.size + 1))
    T[:, :m, :n] = np.where(flip[:, :, None], -A, A)
    T[:, np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    T[:, art_rows, n_real + np.arange(art_rows.size)] = 1.0
    T[:, :m, -1] = np.where(flip, -b, b)
    basis = np.where(flip, n_real + np.cumsum(flipped) - 1, n + np.arange(m))
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
            return solutions, T[alive], basis[alive]
        if alive.size < len(b):
            T, basis = T[alive], basis[alive]
        # Artificials still basic hold at most _FEAS_TOL. Zeroed, they pivot out
        # without shifting the other rows' levels: an artificial at 1.0e-12 on an
        # element of that size moved a 2x2 point past the 1e-9 residual check.
        T[:, :m, -1][basis >= n_real] = 0.0
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
                _pivot(sub, sub_basis, np.arange(lps.size), np.full(lps.size, row), cols, f, f[:, row, None])
                T[lps], basis[lps] = sub, sub_basis

    # Phase II on the same tableaux; artificial columns never enter.
    _price(T, basis, c)
    statuses = _simplex(T, basis, n_real)
    y = np.zeros((len(T), T.shape[2] - 1))
    y[np.arange(len(T))[:, None], basis] = T[:, :m, -1]
    xs = y[:, :n] + lo
    # Independent residual check, one array test per stack. Each A @ x is its own
    # product, as in a lone solve: a stacked one rounds differently near _FEAS_TOL.
    ax = np.array([A @ x for x in xs])
    off = np.logical_or.reduce(np.hstack([ax - rhs[alive], lo - xs]) > _FEAS_TOL, axis=1)
    for i, status, x, bad in zip(alive, statuses, xs, off.tolist()):
        if status != "optimal":
            solutions[i] = LpSolution(status=status)
        elif bad:
            solutions[i] = LpSolution(status="failed")
        else:
            solutions[i] = LpSolution(status="optimal", value=float(c @ x), x=x)
    return solutions, T, basis


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP; never reports a wrong "optimal".

    The returned point of an optimal solution satisfies every constraint and
    bound within 1e-9; if the tableau degrades numerically beyond that the
    status is "failed".
    """
    return _solve(problem.c, problem.A, problem.lo, problem.b[None])[0][0]


def solve_lps(c, A, rhs, lo) -> list[LpSolution]:
    """``solve_lp(LpProblem(c, A, b, lo))`` for each row b of ``rhs``, bit for bit, in lockstep.

    The LPs are solved at most _LPS_PER_CALL at a time, each batch as one
    stack of tableaux.
    """
    shared, rhs = _shared_lp(c, A, rhs, lo)
    return [sol for i in range(0, len(rhs), _LPS_PER_CALL)
            for sol in _solve(shared.c, shared.A, shared.lo, rhs[i : i + _LPS_PER_CALL])[0]]


def _shared_lp(c, A, rhs, lo) -> tuple[LpProblem, np.ndarray]:
    """The checked LP of a batch (with b = 0) and its right-hand sides, one row per LP."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2:
        raise ValueError("rhs must hold one row of b per LP")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("b must be finite")
    return LpProblem(c=c, A=A, b=np.zeros(rhs.shape[1]), lo=lo), rhs  # checks c, A, lo and the row count


def solve_sweep(c, A, rhs, lo, row: int) -> Iterator[float | LpSolution]:
    """Solve the LPs of ``rhs``, whose rows differ only in entry ``row``, non-increasing down the rows.

    Yields, in the order of ``rhs``, each LP's optimal value (a float) where
    the walk below certifies it, and an ``LpSolution`` where the LP is solved
    on its own. The first LP is solved by the two-phase simplex; its value is
    that solve's. Its optimal basis is then walked along the sweep
    (parametric right-hand side, Gass & Saaty 1955): moving b[row] by delta
    moves the basic levels by delta times the final tableau's slack column of
    ``row``, so a basis covers every point down to the breakpoint where its
    first level reaches zero (a negative level counts as zero, so no step
    goes backwards). At the first point it does not cover, the right-hand
    side moves to the breakpoint and one dual simplex pivot (Lemke 1954) on
    that row lets in the non-artificial column with the smallest reduced
    cost / element among elements below -_PIVOT_MIN, the first on ties.
    Walk pivots count against _MAX_ITER.

    A covered point x yields c @ x only when x >= lo - _FEAS_TOL,
    A @ x <= b + _FEAS_TOL and every reduced cost of its basis is at most
    _PIVOT_TOL; a point that fails is solved by ``solve_lps``. So is every
    point after the walk stops (no column can enter, or _MAX_ITER), and every
    point after the first when the first solve is not optimal or leaves an
    artificial basic. Such a tail stops at its first infeasible point, which
    every later point repeats: as b[row] falls the feasible set shrinks, and
    the phase-I value does not fall. Covered points are certified
    _LPS_PER_CALL at a time.
    """
    shared, rhs = _shared_lp(c, A, rhs, lo)
    c, A, lo = shared.c, shared.A, shared.lo
    t, moved = rhs[:, row], np.logical_or.reduce(rhs != rhs[:1], axis=0)
    if np.any(np.delete(moved, row)) or np.any(t[1:] > t[:-1]):
        raise ValueError("rhs rows must differ only in entry row, non-increasing down the rows")
    if not len(rhs):
        return
    (first,), T, basis = _solve(c, A, lo, rhs[:1])
    yield first
    m, n = A.shape
    if not first.is_optimal or np.any(basis >= n + m):
        yield from _tail(c, A, rhs, lo, 1, first)
        return
    n_real = n + m
    levels, along = T[0, :m, -1], T[0, :m, n + row]  # views: each pivot updates them
    beta, pos, pivots = float(t[0]), 1, 0
    # Covered points wait in ys (basic levels scattered by column) until a
    # chunk's worth is certified at once; sound holds each one's dual check.
    ys = np.empty((min(_LPS_PER_CALL, len(rhs)), n_real))
    sound, held = np.empty(len(ys), bool), 0
    ratios, costs, lps = np.empty(m), np.empty(n_real), np.zeros(1, dtype=int)  # lps: a stack of one tableau
    while pos < len(rhs):
        np.maximum(levels, 0.0, out=levels)
        ratios.fill(np.inf)
        np.divide(levels, along, out=ratios, where=along > 0.0)
        r = ratios.argmin(keepdims=True)
        breakpoint = beta - float(ratios[r[0]])  # where the first level reaches zero
        k = int(np.count_nonzero(t[pos : pos + len(ys) - held] >= breakpoint))  # t falls: a prefix
        if k:
            ys[held : held + k] = 0.0
            ys[held : held + k, basis[0]] = (t[pos : pos + k, None] - beta) * along + levels
            sound[held : held + k] = T[0, -1, :n_real].max() <= _PIVOT_TOL
            held, pos = held + k, pos + k
            if held == len(ys) or pos == len(rhs):
                yield from _certified(ys[:held], sound[:held], c, A, rhs[pos - held : pos], lo)
                held = 0
            if pos == len(rhs) or t[pos] >= breakpoint:
                continue
        if pivots == _MAX_ITER:
            break
        target = max(breakpoint, float(t[pos]))  # never past the point not covered
        T[0, :, -1] += (target - beta) * T[0, :, n + row]
        beta = target
        costs.fill(np.inf)
        elements = T[0, r[0], :n_real]
        np.divide(T[0, -1, :n_real], elements, out=costs, where=elements < -_PIVOT_MIN)
        col = costs.argmin(keepdims=True)
        if costs[col[0]] == np.inf:  # no column can enter
            break
        f = T[:, :, col[0]].copy()
        _pivot(T, basis, lps, r, col, f, f[:, r])
        pivots += 1
    if held:
        yield from _certified(ys[:held], sound[:held], c, A, rhs[pos - held : pos], lo)
    yield from _tail(c, A, rhs, lo, pos)


def _certified(ys, sound, c, A, rhs, lo) -> Iterator[float | LpSolution]:
    """c @ x of each point x = ys[:, :n] + lo that passes the certificate, and ``solve_lps``'s solution elsewhere.

    ``sound`` marks the points whose basis has every reduced cost <= _PIVOT_TOL.
    """
    x = ys[:, : c.size] + lo
    ok = sound & np.logical_and.reduce(np.hstack([x @ A.T - rhs, lo - x]) <= _FEAS_TOL, axis=1)
    values = (x @ c).tolist()
    if ok.all():
        yield from values
        return
    solved = iter(solve_lps(c, A, rhs[~ok], lo))
    yield from (value if good else next(solved) for value, good in zip(values, ok.tolist()))


def _tail(c, A, rhs, lo, start: int, last: LpSolution | None = None) -> Iterator[LpSolution]:
    """``solve_lps`` on the LPs of ``rhs[start:]`` in order, until one is infeasible; every later one repeats it.

    ``last`` is the solution of the LP before ``start``, when it is known.
    The first LP is solved alone: where the walk stopped at the edge of the
    feasible set it is most often the infeasible one. The rest go
    _LPS_PER_CALL at a time.
    """
    if start == len(rhs):
        return
    edges = [start, *range(start + 1, len(rhs), _LPS_PER_CALL), len(rhs)]
    for i, j in zip(edges, edges[1:]):
        if last is not None and last.status == "infeasible":
            break
        for last in solve_lps(c, A, rhs[i:j], lo):
            yield last
            start += 1
            if last.status == "infeasible":
                break
    yield from itertools.repeat(last, len(rhs) - start)


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
