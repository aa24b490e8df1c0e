"""Small dense LP machinery.

Three tools live here:

* ``solve_lp``: a two-phase dense simplex for ``maximize c @ x s.t.
  A @ x <= b, x >= lo``; an upper bound is one more row of A. The LPs in this
  package have at most a few dozen variables, so a plain tableau is both fast
  enough and easy to audit. Each LP gets its own tableau, with an artificial
  column for each row it flips (negative ``b - A @ lo``). Both phases run
  through one pivot loop, ``_simplex``; phase II keeps the artificial columns
  out by the column count. Entering is Dantzig's column (Dantzig 1963), or
  Bland's (Bland 1977) right after a degenerate pivot; leaving is the
  smallest ratio among rows whose pivot element exceeds _PIVOT_MIN = 1e-9,
  with ratios within _PIVOT_TOL of it tied and a tie going to the smallest
  basis index. A pivot element of 1.1e-11 near the S boundary of a 5x4
  scenario wrecked the tableau: phase II stopped at a point 0.4 outside one
  constraint, so small elements are never pivoted on.
* ``solve_sweep``: one LP with one entry of b set to each value of a
  non-increasing sequence. It solves the first with ``_solve``, which hands
  back its final tableau, and walks that basis along the sweep: each basis
  covers the points down to its breakpoint, and one dual simplex pivot per
  breakpoint gives the next. A covered point passes the residual check of
  ``_solve`` and a reduced-cost check before its value counts; every other
  point is solved on its own by ``_solve``, with its right-hand side built
  only then. On a 21-point 5x4 sweep that is one two-phase solve and one
  pivot per change of basis (18 on the 5x4 sweep of
  ``benchmarks/bench_layers.py``), against 21 two-phase solves.
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
# Points of a sweep's walk certified in one array test (``solve_sweep``): a
# 5x4 envelope point is 32 floats (variables and slacks), so a chunk takes 64 KB.
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
        if b.ndim != 1:
            raise ValueError("b must be a vector")
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
    """Pivot the tableau T on ``(row, col)``."""
    f = T[:, col]
    prow = T[row] / f[row]
    # Rows with a zero multiplier are left alone, which keeps their signed zeros.
    # The pivot row is overwritten with the divided row just after.
    np.subtract(T, f[:, None] * prow, out=T, where=(f != 0.0)[:, None])
    T[row] = prow
    basis[row] = col


def _price(T: np.ndarray, basis: np.ndarray, costs: np.ndarray) -> None:
    """Write the reduced costs of ``costs`` (one per leading column) into the objective row.

    Every basic column is a unit column, so row i's multiplier is nonzero only
    where the cost of its basic variable is; the other rows are skipped.
    """
    obj = T[-1]
    obj[:] = 0.0
    obj[: costs.size] = costs
    for i in np.flatnonzero(obj[basis] != 0.0):
        f = obj[basis[i]]
        if f != 0.0:
            obj -= f * T[i]


def _simplex(T: np.ndarray, basis: np.ndarray, allowed: int) -> str:
    """Simplex pivots on the tableau T (last row objective, last column rhs); returns its status.

    Only the first ``allowed`` columns enter. The column of the largest
    reduced cost enters (Dantzig), the first one on ties, unless the last
    pivot was degenerate (pivot-row rhs at most _PIVOT_TOL): then the first
    column whose reduced cost exceeds _PIVOT_TOL (Bland). Every pivot of a
    cycle is degenerate, so once one of its bases repeats every choice is
    Bland's, which does not cycle.
    """
    m = basis.size
    obj, rhs = T[-1, :allowed], T[:m, -1]
    if not m:  # no row to pivot on
        return "unbounded" if np.any(obj > _PIVOT_TOL) else "optimal"
    ratios = np.empty(m)
    bland = False
    for _ in range(_MAX_ITER):
        improving = obj > _PIVOT_TOL
        col = int((improving if bland else obj).argmax())
        if not improving[col]:
            return "optimal"
        f = T[:m, col]
        # Ineligible rows keep a NaN ratio, which no comparison selects.
        ratios.fill(np.nan)
        np.divide(rhs, f, out=ratios, where=f > _PIVOT_MIN)
        ties = ratios <= np.fmin.reduce(ratios) + _PIVOT_TOL
        row = int(np.where(ties, basis, T.shape[1]).argmin())
        if not ties[row]:  # without an eligible row, row 0 is chosen, and it is no tie
            return "unbounded"
        bland = T[row, -1] <= _PIVOT_TOL  # a degenerate pivot: Bland's column next
        _pivot(T, basis, row, col)
    return "failed"


def _solve(c: np.ndarray, A: np.ndarray, lo: np.ndarray, b: np.ndarray
           ) -> tuple[LpSolution, np.ndarray, np.ndarray]:
    """Solve maximize c @ x s.t. A @ x <= b, x >= lo by the two-phase simplex.

    Returns the solution, the final tableau and its basis.
    """
    m, n = A.shape
    shifted = b - A @ lo  # shift to y = x - lo >= 0
    flip = shifted < 0
    # Columns: variables, a slack per row, an artificial per flipped row, the
    # rhs. Flipped rows are negated and start from their artificials.
    art_rows = np.flatnonzero(flip)
    n_real = n + m
    T = np.zeros((m + 1, n_real + art_rows.size + 1))
    T[:m, :n] = np.where(flip[:, None], -A, A)
    T[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    T[art_rows, n_real + np.arange(art_rows.size)] = 1.0
    T[:m, -1] = np.where(flip, -shifted, shifted)
    basis = n + np.arange(m)
    basis[art_rows] = n_real + np.arange(art_rows.size)

    if art_rows.size:
        # Phase I: maximize -(sum of artificials).
        _price(T, basis, np.repeat([0.0, -1.0], [n_real, art_rows.size]))
        if _simplex(T, basis, T.shape[1] - 1) != "optimal":
            return LpSolution(status="failed"), T, basis
        # Objective cell holds -(phase-I value); a positive residual means some
        # artificial variable is stuck above zero, i.e. the LP is infeasible.
        if T[-1, -1] > _FEAS_TOL:
            return LpSolution(status="infeasible"), T, basis
        # Artificials still basic hold at most _FEAS_TOL. Zeroed, they pivot out
        # without shifting the other rows' levels: an artificial at 1.0e-12 on an
        # element of that size moved a 2x2 point past the 1e-9 residual check.
        stuck = np.flatnonzero(basis >= n_real)
        T[stuck, -1] = 0.0
        # Pivot leftover artificials out of the basis, row by row. One that cannot
        # leave sits on a redundant row, whose elements outside the artificial
        # columns are all within _PIVOT_MIN of zero, so phase II never pivots on it.
        for row in stuck:
            magnitude = np.abs(T[row, :n_real])
            col = int(magnitude.argmax())
            if magnitude[col] > _PIVOT_MIN:
                _pivot(T, basis, row, col)

    # Phase II on the same tableau; artificial columns never enter.
    _price(T, basis, c)
    status = _simplex(T, basis, n_real)
    if status != "optimal":
        return LpSolution(status=status), T, basis
    y = np.zeros(T.shape[1] - 1)
    y[basis] = T[:m, -1]
    x = y[:n] + lo
    # Independent residual check before declaring victory.
    if np.any(A @ x - b > _FEAS_TOL) or np.any(lo - x > _FEAS_TOL):
        return LpSolution(status="failed"), T, basis
    return LpSolution(status="optimal", value=float(c @ x), x=x), T, basis


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP; never reports a wrong "optimal".

    The returned point of an optimal solution satisfies every constraint and
    bound within 1e-9; if the tableau degrades numerically beyond that the
    status is "failed".
    """
    return _solve(problem.c, problem.A, problem.lo, problem.b)[0]


def solve_sweep(problem: LpProblem, row: int, t) -> Iterator[float | LpSolution]:
    """Solve ``problem`` with b[row] set to each value of ``t`` (1-D, finite, non-increasing) in turn.

    Yields, in the order of ``t``, each LP's optimal value (a float) where the
    walk below certifies it, and an ``LpSolution`` where the LP is solved on
    its own. The first LP is solved by the two-phase simplex; its value is
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
    _PIVOT_TOL; a point that fails is solved on its own. So is every point
    after the walk stops (no column can enter, or _MAX_ITER), and every point
    after the first when the first solve is not optimal or leaves an
    artificial basic. Such a tail stops at its first infeasible point, which
    every later point repeats: as b[row] falls the feasible set shrinks, and
    the phase-I value does not fall. Covered points are certified
    _LPS_PER_CALL at a time.
    """
    c, A, b, lo = problem.c, problem.A, problem.b, problem.lo
    t = np.asarray(t, dtype=float)
    if row not in range(b.size):
        raise ValueError("row must index a row of A")
    if t.ndim != 1 or not np.all(np.isfinite(t)) or np.any(t[1:] > t[:-1]):
        raise ValueError("t must be 1-D, finite and non-increasing")
    if not t.size:
        return
    first, T, basis = _solve(c, A, lo, _rows(b, row, t[:1])[0])
    yield first
    m, n = A.shape
    if not first.is_optimal or np.any(basis >= n + m):
        yield from _tail(c, A, lo, b, row, t[1:], first)
        return
    n_real = n + m
    levels, along = T[:m, -1], T[:m, n + row]  # views: each pivot updates them
    beta, pos, pivots = float(t[0]), 1, 0
    # Covered points wait in ys (basic levels scattered by column) until a
    # chunk's worth is certified at once; sound holds each one's dual check.
    ys = np.empty((min(_LPS_PER_CALL, len(t)), n_real))
    sound, held = np.empty(len(ys), bool), 0
    ratios, costs = np.empty(m), np.empty(n_real)
    while pos < len(t):
        np.maximum(levels, 0.0, out=levels)
        ratios.fill(np.inf)
        np.divide(levels, along, out=ratios, where=along > 0.0)
        r = int(ratios.argmin())
        breakpoint = beta - float(ratios[r])  # where the first level reaches zero
        k = int(np.count_nonzero(t[pos : pos + len(ys) - held] >= breakpoint))  # t falls: a prefix
        if k:
            ys[held : held + k] = 0.0
            ys[held : held + k, basis] = (t[pos : pos + k, None] - beta) * along + levels
            sound[held : held + k] = T[-1, :n_real].max() <= _PIVOT_TOL
            held, pos = held + k, pos + k
            if held == len(ys) or pos == len(t):
                yield from _certified(ys[:held], sound[:held], c, A, lo, _rows(b, row, t[pos - held : pos]))
                held = 0
            if pos == len(t) or t[pos] >= breakpoint:
                continue
        if pivots == _MAX_ITER:
            break
        target = max(breakpoint, float(t[pos]))  # never past the point not covered
        T[:, -1] += (target - beta) * T[:, n + row]
        beta = target
        costs.fill(np.inf)
        elements = T[r, :n_real]
        np.divide(T[-1, :n_real], elements, out=costs, where=elements < -_PIVOT_MIN)
        col = int(costs.argmin())
        if costs[col] == np.inf:  # no column can enter
            break
        _pivot(T, basis, r, col)
        pivots += 1
    if held:
        yield from _certified(ys[:held], sound[:held], c, A, lo, _rows(b, row, t[pos - held : pos]))
    yield from _tail(c, A, lo, b, row, t[pos:])


def _rows(b: np.ndarray, row: int, t: np.ndarray) -> np.ndarray:
    """Copies of b, one per value of ``t``, with entry ``row`` set to that value."""
    rhs = np.tile(b, (len(t), 1))
    rhs[:, row] = t
    return rhs


def _certified(ys, sound, c, A, lo, rhs) -> Iterator[float | LpSolution]:
    """c @ x of each point x = ys[:, :n] + lo that passes the certificate, and its LP solved on its own elsewhere.

    Point i's LP has the right-hand side ``rhs[i]``. ``sound`` marks the
    points whose basis has every reduced cost <= _PIVOT_TOL.
    """
    x = ys[:, : c.size] + lo
    ok = sound & np.logical_and.reduce(np.hstack([x @ A.T - rhs, lo - x]) <= _FEAS_TOL, axis=1)
    values = (x @ c).tolist()
    if ok.all():
        yield from values
        return
    solved = (_solve(c, A, lo, b)[0] for b in rhs[~ok])
    yield from (value if good else next(solved) for value, good in zip(values, ok.tolist()))


def _tail(c, A, lo, b, row, t, last: LpSolution | None = None) -> Iterator[LpSolution]:
    """The LPs with b[row] set to each value of ``t``, solved one at a time until one is infeasible.

    Every LP after an infeasible one repeats its solution. ``last`` is the
    solution of the LP before the first of ``t``, when it is known.
    """
    for i in range(len(t)):
        if last is not None and last.status == "infeasible":
            yield from itertools.repeat(last, len(t) - i)
            return
        last = _solve(c, A, lo, _rows(b, row, t[i : i + 1])[0])[0]
        yield last


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
