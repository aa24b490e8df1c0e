"""Collision-prone random band selection (system S-hat).

Each user independently picks a band every slot from its column of a
selection-probability matrix; simultaneous picks of one band by several
backlogged users all fail. Closed analysis exists for two users on one or two
bands via dominant systems (a designated queue transmits dummy packets when
empty, which decouples the interaction): the dominant envelopes, the
union-region sections and the selection policy below. The general multi-user
case is only simulated. The one-band closed forms, the collision service rate
and the union-region membership test are test oracles in ``tests/oracles.py``.
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


def _dominant1_values(mu: np.ndarray, lambda_s2: float, g21):
    """Best lambda_s1 (-inf where lambda_s2 is unsupportable) and its gamma22 at each gamma21.

    lambda_s1 = (1-g21)*mu11 + g21*mu21 + lambda_s2 * (g22*K1 - K2)/(D + C*g22),
    the affine lift of the reduced fractional objective ``optim.fractional_argmax`` solves.
    """
    (mu11, mu12), (mu21, mu22) = mu.tolist()
    g21b = 1.0 - g21
    K2, shared, D = g21b * mu11, g21 * mu21, g21 * mu12
    K1, base, C = K2 - shared, K2 + shared, g21b * mu22 - D
    g22, feasible = fractional_argmax(K1, K2, C, D, lambda_s2)
    if lambda_s2 == 0:
        return np.where(feasible, base, -np.inf), g22
    denom = np.where(feasible, D + C * g22, 1.0)  # mu_s2 >= lambda_s2 > 0 where feasible
    return np.where(feasible, base + lambda_s2 * (g22 * K1 - K2) / denom, -np.inf), g22


def _golden_section(values, a: float, b: float) -> float:
    """Midpoint of the bracket left by 60 golden-section steps maximizing ``values`` on [a, b].

    The points of the next _GOLDEN_BATCH steps depend only on which way each
    comparison goes, so all of them are evaluated in one call and the
    comparisons then walk that tree: same points, same bracket, fewer calls.
    """
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = values(np.array([x1, x2]))
    for _ in range(60 // _GOLDEN_BATCH):
        # Node n's children: 2n+1 keeps [a, x2] (taken when f1 >= f2), 2n+2 keeps [x1, b].
        nodes, points = [(a, b, x1, x2)], []
        for n in range(2 ** _GOLDEN_BATCH - 1):
            a, b, x1, x2 = nodes[n]
            left, right = x2 - _GOLDEN * (x2 - a), x1 + _GOLDEN * (b - x1)
            nodes += (a, x2, left, x1), (x1, b, x2, right)
            points += left, right
        fresh = values(np.array(points))  # fresh[n - 1]: value at node n's new point
        n = 0
        for _ in range(_GOLDEN_BATCH):
            if f1 >= f2:
                n = 2 * n + 1
                f1, f2 = fresh[n - 1], f1
            else:
                n = 2 * n + 2
                f1, f2 = f2, fresh[n - 1]
        a, b, x1, x2 = nodes[n]
    return (a + b) / 2.0


def dominant1_envelope_2x2(mu, lambda_s2: float, grid_step: float = 1e-3) -> DominantEnvelopePoint:
    """Max stable rate of user 1 when user 2's rate is fixed (user 1 sends dummy packets).

    Solves the inner one-dimensional fractional program in closed form on the
    whole gamma21 grid in one array call, takes the first best grid point, and
    refines within one grid step of it by 60 golden-section steps.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (2, 2):
        raise ConfigurationError("mu must be 2x2")
    if not lambda_s2 >= 0:  # NaN fails too
        raise ConfigurationError("lambda_s2 must be >= 0")
    infeasible = DominantEnvelopePoint(fixed_lambda=lambda_s2, dominant="first", feasible=False)
    if lambda_s2 > max(mu[0, 1], mu[1, 1]) + _TOL:
        return infeasible

    grid = np.minimum(np.arange(int(round(1.0 / grid_step)) + 1) * grid_step, 1.0)
    values, g22s = _dominant1_values(mu, lambda_s2, grid)
    best = int(np.argmax(values))  # the first best point, as a strict-improvement scan finds
    if not values[best] > -math.inf:  # no grid point supports lambda_s2
        return infeasible
    best_val, g21, g22 = values[best], float(grid[best]), g22s[best]
    mid = _golden_section(lambda g: _dominant1_values(mu, lambda_s2, g)[0],
                          max(g21 - grid_step, 0.0), min(g21 + grid_step, 1.0))
    mid_val, mid_g22 = _dominant1_values(mu, lambda_s2, mid)
    if mid_val > best_val:
        best_val, g21, g22 = mid_val, mid, mid_g22

    gamma = SelectionMatrix(np.array([[1.0 - g21, 1.0 - g22], [g21, g22]]))
    return DominantEnvelopePoint(
        fixed_lambda=lambda_s2, dominant="first", feasible=True,
        max_lambda=float(best_val), gamma_star=gamma,
    )


def dominant2_envelope_2x2(mu, lambda_s1: float, grid_step: float = 1e-3) -> DominantEnvelopePoint:
    """Mirror image of dominant1_envelope_2x2 with the user roles swapped."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (2, 2):
        raise ConfigurationError("mu must be 2x2")
    swapped = dominant1_envelope_2x2(mu[:, ::-1], lambda_s1, grid_step)
    gamma = None
    if swapped.gamma_star is not None:
        gamma = SelectionMatrix(swapped.gamma_star.gamma[:, ::-1])
    return DominantEnvelopePoint(
        fixed_lambda=lambda_s1,
        dominant="second",
        feasible=swapped.feasible,
        max_lambda=swapped.max_lambda,
        gamma_star=gamma,
    )


def shat_section_lambda2(mu, lambda_s1: float) -> float | None:
    """Largest lambda_s2 such that (lambda_s1, lambda_s2) is in the union region.

    Takes the better of the dominant-2 envelope at lambda_s1 and the inverse of
    the dominant-1 envelope (nonincreasing in lambda_s2, so invertible by
    bisection). None when even lambda_s2 = 0 cannot carry lambda_s1.
    """
    mu = np.asarray(mu, dtype=float)
    best = None
    d2 = dominant2_envelope_2x2(mu, lambda_s1)
    if d2.feasible:
        best = float(d2.max_lambda)

    def carries(lam2: float) -> bool:
        """True when the dominant-1 envelope at lam2 reaches lambda_s1 (closure)."""
        p = dominant1_envelope_2x2(mu, lam2)
        return p.feasible and p.max_lambda >= lambda_s1 - CLOSURE_TOL

    hi = max(mu[0, 1], mu[1, 1])
    if carries(0.0):
        lo = 0.0
        if hi > 0 and carries(hi):
            lo = hi
        elif hi > 0:
            while hi - lo > _SECTION_TOL:
                mid = (lo + hi) / 2.0
                if carries(mid):
                    lo = mid
                else:
                    hi = mid
        if best is None or lo > best:
            best = lo
    return None if best is None else float(best)


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
    if axis == 0:
        padded = padded[:, ::-1]
    return [shat_section_lambda2(padded, value) for value in grid]


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
