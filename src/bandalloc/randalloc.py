"""Collision-prone random band selection (system S-hat).

Each user independently picks a band every slot from its column of a
selection-probability matrix; simultaneous picks of one band by several
backlogged users all fail. Closed analysis exists for two users on one or two
bands via dominant systems (a designated queue transmits dummy packets when
empty, which decouples the interaction): the dominant envelopes, the
union-region sections and the selection policy below. The general multi-user
case is only simulated. The one-band closed forms, the collision service rate
and the union-region membership test are test oracles in ``tests/oracles.py``.

One kernel, ``_dominant1_envelopes``, computes the dominant-1 envelope at a
list of lambda_s2; the dominant-2 envelope is the same kernel on mu with its
columns swapped. ``shat_envelope`` solves the sections of all its grid points
in lockstep: each bisection step is one kernel call over the midpoints of the
sections still bracketing, and the kernel runs the golden-section refinement
of all its sections through one array call per five steps. The one-rate
functions are the kernel, or the sweep, at one rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CLOSURE_TOL, ConfigurationError, rate_vector
from .optim import fractional_argmax

_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_BATCH = 5  # golden-section steps per array call; divides 60
_SECTION_TOL = 1e-6  # bisection stops once the lambda_s2 bracket is this narrow
_SECTIONS_PER_CALL = 64  # bounds the 64-points-per-section golden-section arrays of one kernel call


@dataclass(frozen=True)
class SelectionMatrix:
    """Per-user band selection probabilities gamma[j, k]; column sums at most one."""

    gamma: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.ndim != 2:
            raise ConfigurationError("gamma must be an M_p x M_s matrix")
        if np.any(gamma < -_TOL):
            raise ConfigurationError("gamma entries must be nonnegative")
        if np.any(gamma.sum(axis=0) > 1 + _TOL):
            raise ConfigurationError("gamma column sums must not exceed 1")
        object.__setattr__(self, "gamma", np.clip(gamma, 0.0, None))

    @property
    def m_p(self) -> int:
        return self.gamma.shape[0]

    @property
    def m_s(self) -> int:
        return self.gamma.shape[1]


@dataclass(frozen=True)
class DominantEnvelopePoint:
    """Envelope point of one dominant system ("first": user 1 maximized, "second": user 2)."""

    fixed_lambda: float
    dominant: str
    feasible: bool
    max_lambda: float | None = None
    gamma_star: SelectionMatrix | None = None


def _check_rates(values, name: str) -> None:
    """Refuse a negative or NaN rate in ``values``, naming the rate ``name`` and giving its value."""
    for value in values:
        if not value >= 0:  # NaN fails too
            raise ConfigurationError(f"{name} must be >= 0, got {float(value)}")


def _mu_2x2(mu) -> np.ndarray:
    """``mu`` as a 2x2 float array; anything else is refused."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (2, 2):
        raise ConfigurationError("mu must be 2x2")
    return mu


def _dominant1_values(mu: np.ndarray, lambda_s2, g21):
    """Best lambda_s1 (-inf where lambda_s2 is unsupportable) and its gamma22 at each gamma21.

    lambda_s1 = (1-g21)*mu11 + g21*mu21 + lambda_s2 * (g22*K1 - K2)/(D + C*g22),
    the affine lift of the reduced fractional objective ``optim.fractional_argmax``
    solves. ``lambda_s2`` is a scalar or an array with one rate per point of
    ``g21``. Where it is 0 the value is the base itself, since adding 0 * ...
    would turn a -0.0 into 0.0.
    """
    (mu11, mu12), (mu21, mu22) = mu.tolist()
    g21b = 1.0 - g21
    K2, shared, D = g21b * mu11, g21 * mu21, g21 * mu12
    K1, base, C = K2 - shared, K2 + shared, g21b * mu22 - D
    g22, feasible = fractional_argmax(K1, K2, C, D, lambda_s2)
    per_point = np.ndim(lambda_s2) > 0  # else one lambda_s2 for every point, and no masks to build
    if not per_point and lambda_s2 == 0:
        return np.where(feasible, base, -np.inf), g22
    lifted = feasible & (lambda_s2 != 0) if per_point else feasible
    denom = np.where(lifted, D + C * g22, 1.0)  # mu_s2 >= lambda_s2 > 0 where lifted
    values = base + lambda_s2 * (g22 * K1 - K2) / denom
    if per_point:
        values = np.where(lifted, values, base)
    return np.where(feasible, values, -np.inf), g22


def _golden_points(a: float, b: float, x1: float, x2: float) -> list[float]:
    """The inner points x1, x2 of [a, b], then the new points of the next _GOLDEN_BATCH steps.

    The points of those steps depend only on which way each comparison goes,
    so one array call evaluates all of them. Node n's children: 2n+1 keeps
    [a, x2] (taken when f1 >= f2), 2n+2 keeps [x1, b]; point n + 1 is node n's
    new point.
    """
    level, points = [(a, b, x1, x2)], [x1, x2]
    for depth in range(_GOLDEN_BATCH):
        inner = depth < _GOLDEN_BATCH - 1  # the leaves' children are never visited
        children = []
        for a, b, x1, x2 in level:
            left, right = x2 - _GOLDEN * (x2 - a), x1 + _GOLDEN * (b - x1)
            points += left, right
            if inner:
                children += (a, x2, left, x1), (x1, b, x2, right)
        level = children
    return points


def _golden_sections(mu: np.ndarray, lam: list[float], brackets: list[tuple]) -> list[tuple]:
    """(midpoint, value, gamma22) after 60 golden-section steps on each section's bracket.

    Section i maximizes the dominant-1 value at lambda_s2 = lam[i] over
    gamma21 in brackets[i]. All sections step together: one array call per
    _GOLDEN_BATCH steps evaluates every section's ``_golden_points``, and each
    section then walks its tree in Python floats. The sections' points lie
    side by side in one preallocated flat array, each section's rate repeated
    over its points, so every array operation stays one-dimensional, as for
    one section; a (sections, 64) array with a column of rates kept more
    memory resident. A lone section runs on a scalar rate, which needs no
    masks, and its midpoint in Python floats.
    """
    width, one = 2 ** (_GOLDEN_BATCH + 1), len(lam) == 1
    rates = lam[0] if one else np.repeat(lam, width)
    states = [(a, b, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)) for a, b in brackets]
    points = np.empty(len(states) * width)
    for _ in range(60 // _GOLDEN_BATCH):
        for i, state in enumerate(states):
            points[i * width:(i + 1) * width] = _golden_points(*state)
        values = _dominant1_values(mu, rates, points)[0]
        for i, (a, b, x1, x2) in enumerate(states):
            fresh = values[i * width:(i + 1) * width].tolist()
            f1, f2, n = fresh[0], fresh[1], 0
            for _ in range(_GOLDEN_BATCH):  # down the tree, with the tree's bracket arithmetic
                if f1 >= f2:
                    n = 2 * n + 1
                    a, b, x1, x2 = a, x2, x2 - _GOLDEN * (x2 - a), x1
                    f1, f2 = fresh[n + 1], f1
                else:
                    n = 2 * n + 2
                    a, b, x1, x2 = x1, b, x2, x1 + _GOLDEN * (b - x1)
                    f1, f2 = f2, fresh[n + 1]
            states[i] = a, b, x1, x2
    mids = [(a + b) / 2.0 for a, b, _, _ in states]
    at_mids = _dominant1_values(mu, lam[0] if one else np.array(lam), mids[0] if one else np.array(mids))
    return list(zip(mids, *(np.ravel(a).tolist() for a in at_mids)))


def _grid_best(mu: np.ndarray, lam2: float, grid: np.ndarray) -> tuple | None:
    """(value, gamma21, gamma22) at the first best gamma21 of ``grid``, as a strict-improvement
    scan finds it; None where no grid point supports lam2. The grid's arrays die on return."""
    values, g22s = _dominant1_values(mu, lam2, grid)
    k = int(np.argmax(values))
    # gamma21 as a Python float: the golden-section trees run in Python floats
    return (values[k], float(grid[k]), g22s[k]) if values[k] > -math.inf else None


def _dominant1_envelopes(mu: np.ndarray, lambdas: list[float],
                         grid_step: float = 1e-3) -> list[tuple | None]:
    """The dominant-1 envelope (max lambda_s1, gamma21, gamma22) at each lambda_s2 in ``lambdas``.

    None where lambda_s2 is unsupportable. Each section scans the whole
    gamma21 grid in one array call, takes the first best grid point, and
    refines within one grid step of it by 60 golden-section steps, which run
    for all sections together, at most _SECTIONS_PER_CALL at a time.
    """
    if len(lambdas) > _SECTIONS_PER_CALL:
        return [point for i in range(0, len(lambdas), _SECTIONS_PER_CALL)
                for point in _dominant1_envelopes(mu, lambdas[i:i + _SECTIONS_PER_CALL], grid_step)]
    grid = np.minimum(np.arange(int(round(1.0 / grid_step)) + 1) * grid_step, 1.0)
    cap = max(mu[0, 1], mu[1, 1]) + _TOL
    points, rows, brackets = [None] * len(lambdas), [], []
    for i, lam2 in enumerate(lambdas):
        points[i] = None if lam2 > cap else _grid_best(mu, lam2, grid)
        if points[i] is not None:
            g21 = points[i][1]
            rows.append(i)
            brackets.append((max(g21 - grid_step, 0.0), min(g21 + grid_step, 1.0)))
    if rows:
        for i, (mid, value, g22) in zip(rows, _golden_sections(mu, [lambdas[i] for i in rows], brackets)):
            if value > points[i][0]:
                points[i] = value, mid, g22
    return points


def _envelope_point(mu: np.ndarray, lam, dominant: str, grid_step: float) -> DominantEnvelopePoint:
    """The dominant-1 kernel at one rate, as the envelope point of dominant system ``dominant``."""
    first = dominant == "first"
    point = _dominant1_envelopes(mu if first else mu[:, ::-1], [float(lam)], grid_step)[0]
    if point is None:
        return DominantEnvelopePoint(fixed_lambda=lam, dominant=dominant, feasible=False)
    best, g21, g22 = point
    gamma = np.array([[1.0 - g21, 1.0 - g22], [g21, g22]])
    return DominantEnvelopePoint(
        fixed_lambda=lam, dominant=dominant, feasible=True, max_lambda=float(best),
        gamma_star=SelectionMatrix(gamma if first else gamma[:, ::-1]),
    )


def dominant1_envelope_2x2(mu, lambda_s2: float, grid_step: float = 1e-3) -> DominantEnvelopePoint:
    """Max stable rate of user 1 when user 2's rate is fixed (user 1 sends dummy packets).

    Solves the inner one-dimensional fractional program in closed form on the
    whole gamma21 grid in one array call, takes the first best grid point, and
    refines within one grid step of it by 60 golden-section steps.
    """
    mu = _mu_2x2(mu)
    _check_rates([lambda_s2], "lambda_s2")
    return _envelope_point(mu, lambda_s2, "first", grid_step)


def dominant2_envelope_2x2(mu, lambda_s1: float, grid_step: float = 1e-3) -> DominantEnvelopePoint:
    """Mirror image of dominant1_envelope_2x2 with the user roles swapped."""
    mu = _mu_2x2(mu)
    _check_rates([lambda_s1], "lambda_s1")
    return _envelope_point(mu, lambda_s1, "second", grid_step)


def _shat_sections(mu: np.ndarray, lam1: list[float]) -> list[float | None]:
    """Largest lambda_s2 such that (lambda_s1, lambda_s2) is in the union region, at each lambda_s1.

    Takes the better of the dominant-2 envelope at lambda_s1 and the inverse of
    the dominant-1 envelope (nonincreasing in lambda_s2, so invertible by
    bisection). None when even lambda_s2 = 0 cannot carry lambda_s1. The
    bisections of all sections run in lockstep: one dominant-1 kernel call per
    step, over the midpoints of every section still bracketing.
    """
    def reach(point) -> float:
        return -math.inf if point is None else point[0]

    # The dominant-1 envelope at lambda_s2 carries lambda_s1 once it reaches lambda_s1 - CLOSURE_TOL.
    need = [lam - CLOSURE_TOL for lam in lam1]
    top = float(max(mu[0, 1], mu[1, 1]))
    at_zero, at_top = (reach(p) for p in _dominant1_envelopes(mu, [0.0, top]))
    lo = [top if top > 0 and at_top >= n else 0.0 for n in need]
    hi = [top] * len(lam1)
    active = [k for k, n in enumerate(need) if at_zero >= n and lo[k] < top]
    while True:
        active = [k for k in active if hi[k] - lo[k] > _SECTION_TOL]
        if not active:
            break
        mids = [(lo[k] + hi[k]) / 2.0 for k in active]
        for k, mid, point in zip(active, mids, _dominant1_envelopes(mu, mids)):
            if reach(point) >= need[k]:
                lo[k] = mid
            else:
                hi[k] = mid
    sections = []
    for n, lo_k, d2 in zip(need, lo, _dominant1_envelopes(mu[:, ::-1], lam1)):
        best = None if d2 is None else float(d2[0])
        if at_zero >= n and (best is None or lo_k > best):
            best = lo_k
        sections.append(best)
    return sections


def shat_section_lambda2(mu, lambda_s1: float) -> float | None:
    """Largest lambda_s2 such that (lambda_s1, lambda_s2) is in the union region (``_shat_sections``)."""
    mu = _mu_2x2(mu)
    _check_rates([lambda_s1], "lambda_s1")
    return _shat_sections(mu, [float(lambda_s1)])[0]


def _padded_2x2(mu: np.ndarray) -> np.ndarray | None:
    """mu as the dominant systems' 2x2 (one band gets a dead second band); None beyond 2 users on 1-2 bands."""
    m_p, m_s = mu.shape
    if m_s != 2 or m_p > 2:
        return None
    return mu if m_p == 2 else np.vstack([mu, np.zeros((1, m_s))])


def shat_envelope(mu, axis: int, grid) -> list[float | None]:
    """Union-region section of user ``axis`` (0 or 1) at each of the other user's rates in ``grid``."""
    padded = _padded_2x2(np.asarray(mu, dtype=float))
    if padded is None:
        raise ConfigurationError(
            "analytic envelope for system S_hat covers only M_s=2, M_p<=2; use simulate"
        )
    if axis not in (0, 1):
        raise ConfigurationError(f"user index {axis} out of range")
    _check_rates(grid, f"lambda_s{2 - axis}")
    return _shat_sections(padded if axis == 1 else padded[:, ::-1], [float(v) for v in grid])


def selection_for_rates(mu, lambdas) -> SelectionMatrix:
    """Selection matrix for running the random system at the given rates.

    Two users on 1-2 bands: the dominant-1 optimum if it carries the rates, else
    dominant 2's if that does, else the first feasible one, else gamma = 1/2.
    Any other shape: uniform selection over the bands. ``lambdas`` holds one
    rate >= 0 per user, whatever the shape.
    """
    mu = np.asarray(mu, dtype=float)
    m_p, m_s = mu.shape
    lam = rate_vector(lambdas, m_s)
    padded = _padded_2x2(mu)
    if padded is None:
        return SelectionMatrix(np.full((m_p, m_s), 1.0 / m_p))
    lam1, lam2 = (float(v) for v in lam)
    d1 = dominant1_envelope_2x2(padded, lam2)
    if d1.feasible and lam1 <= d1.max_lambda:
        return SelectionMatrix(d1.gamma_star.gamma[:m_p])
    d2 = dominant2_envelope_2x2(padded, lam1)
    if d2.feasible and lam2 <= d2.max_lambda:
        gamma = d2.gamma_star.gamma
    elif d1.feasible or d2.feasible:
        gamma = (d1 if d1.feasible else d2).gamma_star.gamma
    else:
        gamma = np.full((2, 2), 0.5)
    return SelectionMatrix(gamma[:m_p])
