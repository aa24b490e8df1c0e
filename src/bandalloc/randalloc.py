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
columns swapped. For a fixed gamma21 the best gamma22 is an end of its
feasible interval (``optim.fractional_argmax``), so the dominant-1 value is a
continuous function of gamma21 made of three rational pieces, and its maximum
lies at one of ten closed-form points: an end of the feasible set, a switch
between pieces or a stationary point of a piece. The kernel evaluates those
points, and their float neighbours, for all its rates in one array call.
``shat_envelope`` solves the sections of all its grid points in lockstep:
each bisection step is one kernel call over the midpoints of the sections
still bracketing. The one-rate functions are the kernel, or the sweep, at one
rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CLOSURE_TOL, ConfigurationError, check_unit_interval, check_user_index, rate_vector
from .optim import fractional_argmax

_TOL = 1e-9
_SECTION_TOL = 1e-6  # bisection stops once the lambda_s2 bracket is this narrow
# Sections per kernel call: each holds 30 candidate points, so one call's
# temporaries are arrays of at most 30 * 1024 = 30720 floats (240 KB each).
_SECTIONS_PER_CALL = 1024


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


def _checked_mu(mu) -> np.ndarray:
    """``mu`` as a float array, refused unless every entry lies in [0, 1] as in ``RateMatrix``."""
    mu = np.asarray(mu, dtype=float)
    check_unit_interval(mu, "mu")
    return mu


def _mu_2x2(mu) -> np.ndarray:
    """``mu`` as a checked 2x2 float array; anything else is refused."""
    mu = _checked_mu(mu)
    if mu.shape != (2, 2):
        raise ConfigurationError("mu must be 2x2")
    return mu


def _dominant1_values(mu: np.ndarray, lambda_s2: np.ndarray, g21: np.ndarray):
    """Best lambda_s1 (-inf where lambda_s2 is unsupportable) and its gamma22 at each gamma21.

    lambda_s1 = (1-g21)*mu11 + g21*mu21 + lambda_s2 * (g22*K1 - K2)/(D + C*g22),
    the affine lift of the reduced fractional objective ``optim.fractional_argmax``
    solves. ``lambda_s2`` broadcasts against ``g21``. Where it is 0 the value is
    the base itself, since adding 0 * ... would turn a -0.0 into 0.0.
    """
    (mu11, mu12), (mu21, mu22) = mu.tolist()
    g21b = 1.0 - g21
    K2, shared, D = g21b * mu11, g21 * mu21, g21 * mu12
    K1, base, C = K2 - shared, K2 + shared, g21b * mu22 - D
    g22, feasible = fractional_argmax(K1, K2, C, D, lambda_s2)
    lifted = feasible & (lambda_s2 != 0)
    denom = np.where(lifted, D + C * g22, 1.0)  # mu_s2 >= lambda_s2 > 0 where lifted
    values = np.where(lifted, base + lambda_s2 * (g22 * K1 - K2) / denom, base)
    return np.where(feasible, values, -np.inf), g22


def _candidates(mu: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The gamma21 where the dominant-1 maximum can lie, one row of 30 per rate in ``lam``.

    gamma22 is 0, 1 or r, the root of D + C*r = lambda_s2, so the value is
    one of three rational pieces of gamma21; the maximum lies at an end of
    the feasible set, a switch between pieces or a stationary point of a
    piece. Each point strictly inside (0, 1) comes with its two float
    neighbours, against rounding at the switches; nextafter(0, 1) is
    subnormal and would underflow in the kernel. Undefined points (0/0, the
    square root of a negative number) are read as 0, points beyond [0, 1] as
    its nearer end.
    """
    (mu11, mu12), (mu21, mu22) = mu
    lam = lam[:, None]
    with np.errstate(all="ignore"):
        cross, total = np.sqrt(mu11 * mu22), mu12 + mu22
        root = np.sqrt(lam * total - mu12 * mu22)
        points = np.hstack(np.broadcast_arrays(
            0.0, 1.0, lam / mu12, 1.0 - lam / mu22,  # ends: D = lambda_s2, D + C = lambda_s2
            mu22 / total, cross / (cross + np.sqrt(mu12 * mu21)),  # C = 0; K2*C + D*K1 = 0
            np.sqrt(lam * mu11 / (mu12 * (mu11 - mu21))),  # stationary: gamma22 = 0
            1.0 - np.sqrt(lam * mu21 / (mu22 * (mu21 - mu11))),  # gamma22 = 1
            (mu22 + root) / total, (mu22 - root) / total,  # gamma22 = r
        ))
        points = np.where(points > 0.0, np.minimum(points, 1.0), 0.0)  # NaN fails > 0
        inner = (points > 0.0) & (points < 1.0)
        below, above = (np.where(inner, np.nextafter(points, end), points) for end in (0.0, 1.0))
    return np.hstack([points, below, above])


def _dominant1_envelopes(mu: np.ndarray, lambdas: list[float]) -> list[tuple | None]:
    """The dominant-1 envelope (max lambda_s1, gamma21, gamma22) at each lambda_s2 in ``lambdas``.

    None where lambda_s2 is unsupportable. One array call evaluates the
    ``_candidates`` of every section, at most _SECTIONS_PER_CALL at a time,
    and each section takes its first best candidate.
    """
    if len(lambdas) > _SECTIONS_PER_CALL:
        return [point for i in range(0, len(lambdas), _SECTIONS_PER_CALL)
                for point in _dominant1_envelopes(mu, lambdas[i:i + _SECTIONS_PER_CALL])]
    lam = np.array(lambdas, dtype=float)
    g21 = _candidates(mu, lam)
    values, g22 = _dominant1_values(mu, lam[:, None], g21)
    rows, best = np.arange(lam.size), values.argmax(axis=1)
    return [None if value == -math.inf else (value, g, r)
            for value, g, r in zip(values[rows, best].tolist(), g21[rows, best].tolist(),
                                   g22[rows, best].tolist())]


def _envelope_point(mu: np.ndarray, lam, dominant: str) -> DominantEnvelopePoint:
    """The dominant-1 kernel at one rate, as the envelope point of dominant system ``dominant``."""
    first = dominant == "first"
    point = _dominant1_envelopes(mu if first else mu[:, ::-1], [float(lam)])[0]
    if point is None:
        return DominantEnvelopePoint(fixed_lambda=lam, dominant=dominant, feasible=False)
    best, g21, g22 = point
    gamma = np.array([[1.0 - g21, 1.0 - g22], [g21, g22]])
    return DominantEnvelopePoint(
        fixed_lambda=lam, dominant=dominant, feasible=True, max_lambda=float(best),
        gamma_star=SelectionMatrix(gamma if first else gamma[:, ::-1]),
    )


def dominant1_envelope_2x2(mu, lambda_s2: float) -> DominantEnvelopePoint:
    """Max stable rate of user 1 when user 2's rate is fixed (user 1 sends dummy packets).

    Evaluates the closed-form candidate gamma21 of the module docstring, with
    the inner one-dimensional fractional program solved in closed form at
    each, in one array call, and takes the first best.
    """
    mu = _mu_2x2(mu)
    _check_rates([lambda_s2], "lambda_s2")
    return _envelope_point(mu, lambda_s2, "first")


def dominant2_envelope_2x2(mu, lambda_s1: float) -> DominantEnvelopePoint:
    """Mirror image of dominant1_envelope_2x2 with the user roles swapped."""
    mu = _mu_2x2(mu)
    _check_rates([lambda_s1], "lambda_s1")
    return _envelope_point(mu, lambda_s1, "second")


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
    padded = _padded_2x2(_checked_mu(mu))
    if padded is None:
        raise ConfigurationError(
            "analytic envelope for system S_hat covers only M_s=2, M_p<=2; use simulate"
        )
    check_user_index(axis, 2)
    _check_rates(grid, f"lambda_s{2 - axis}")
    return _shat_sections(padded if axis == 1 else padded[:, ::-1], [float(v) for v in grid])


def selection_for_rates(mu, lambdas) -> SelectionMatrix:
    """Selection matrix for running the random system at the given rates.

    Two users on 1-2 bands: the dominant-1 optimum if it carries the rates, else
    dominant 2's if that does, else the first feasible one, else gamma = 1/2.
    Any other shape: uniform selection over the bands. ``lambdas`` holds one
    rate >= 0 per user, whatever the shape.
    """
    mu = _checked_mu(mu)
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
