"""Collision-prone random band selection (system S-hat).

Each user independently picks a band every slot from its column of a
selection-probability matrix; simultaneous picks of one band by several
backlogged users all fail. Closed analysis exists for two users on one or two
bands via dominant systems (a designated queue transmits dummy packets when
empty, which decouples the interaction): the dominant envelopes, the
union-region sections and the selection policy below. The general multi-user
case is only simulated. The one-band closed forms, the collision service rate
and the union-region membership test are test oracles in ``tests/oracles.py``.

Two kernels over a list of rates serve every function here. The forward
kernel, ``_dominant1_envelopes``, computes the dominant-1 envelope at each
lambda_s2; the dominant-2 envelope is the same kernel on mu with its columns
swapped. For a fixed gamma21 the best gamma22 is an end of its feasible
interval (``optim.fractional_argmax``), so the dominant-1 value is a
continuous function of gamma21 made of three rational pieces, and its maximum
lies at one of ten closed-form points: an end of the feasible set, a switch
between pieces or a stationary point of a piece. The kernel evaluates those
points, and their float neighbours, for all its rates in one array call.

The inverse kernel, ``_dominant1_sections``, computes the largest lambda_s2
the dominant-1 system carries at each lambda_s1. With x = gamma21 and
y = gamma22, user 1 is served at a = (1-x) mu11 + x mu21 while user 2 is
empty and loses b = (1-x)(1-y) mu11 + x y mu21 of it to collisions while user
2 is backlogged; user 2 is served at c = x mu12 (1-y) + y (1-x) mu22. Both are
stable iff lambda_s2 <= c and lambda_s1 <= a - lambda_s2 b / c, so the section
is the maximum over (x, y) with a >= lambda_s1 of min(c, c (a - lambda_s1) / b)
(c where b = 0). Both terms are monotone in y, so for a fixed x the best y is
0, 1 or y_c = (x mu21 - lambda_s1) / (x mu21 - (1-x) mu11), where they meet.
On each of these three y-pieces the value is a quadratic over a linear
function of x, so the best x is an end (0 or 1), a switch between pieces
(lambda_s1 / mu21 and 1 - lambda_s1 / mu11, where y_c reaches 0 and 1) or one
of the two stationary points of a piece. (a is linear in x, so a >= lambda_s1
holds at an end if anywhere; at its edge a = lambda_s1 the value is 0 unless
b = 0, and then the edge is a switch.) The kernel evaluates those 10 x, each
with its 3 y, for all its rates in one array call. ``shat_rows`` takes
the better of it and the dominant-2 envelope at each point; the one-rate
functions are the kernels, or the sweep, at one rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CLOSURE_TOL, ConfigurationError, RateMatrix, check_unit_interval, rate_vector, sweep_rates
from .optim import fractional_argmax

_TOL = 1e-9
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
        if not np.all(gamma >= -_TOL):  # NaN fails >=
            raise ConfigurationError("gamma entries must be nonnegative")
        if not np.all(gamma.sum(axis=0) <= 1 + _TOL):
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


def _unit_table(columns, shape: tuple[int, ...]) -> np.ndarray:
    """``columns`` side by side on a last axis after ``shape``; NaN reads as 0, beyond [0, 1] as its nearer end."""
    table = np.empty(shape + (len(columns),))
    for c, column in enumerate(columns):
        table[..., c] = column
    return np.where(table > 0.0, np.minimum(table, 1.0), 0.0)  # NaN fails > 0


def _candidates(mu: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The gamma21 where the dominant-1 maximum can lie, one row of 30 per rate in ``lam``.

    gamma22 is 0, 1 or r, the root of D + C*r = lambda_s2, so the value is
    one of three rational pieces of gamma21; the maximum lies at an end of
    the feasible set, a switch between pieces or a stationary point of a
    piece. Each point strictly inside (0, 1) comes with its two float
    neighbours, against rounding at the switches; nextafter(0, 1) is
    subnormal and would underflow in the kernel.
    """
    (mu11, mu12), (mu21, mu22) = mu
    with np.errstate(all="ignore"):
        cross, total = np.sqrt(mu11 * mu22), mu12 + mu22
        root = np.sqrt(lam * total - mu12 * mu22)
        points = _unit_table((
            0.0, 1.0, lam / mu12, 1.0 - lam / mu22,  # ends: D = lambda_s2, D + C = lambda_s2
            mu22 / total, cross / (cross + np.sqrt(mu12 * mu21)),  # C = 0; K2*C + D*K1 = 0
            np.sqrt(lam * mu11 / (mu12 * (mu11 - mu21))),  # stationary: gamma22 = 0
            1.0 - np.sqrt(lam * mu21 / (mu22 * (mu21 - mu11))),  # gamma22 = 1
            (mu22 + root) / total, (mu22 - root) / total,  # gamma22 = r
        ), lam.shape)
        inner = (points > 0.0) & (points < 1.0)
        below, above = (np.where(inner, np.nextafter(points, end), points) for end in (0.0, 1.0))
    return np.hstack([points, below, above])


def _dominant1_envelopes(mu: np.ndarray, lambdas: list[float]) -> list[tuple | None]:
    """The dominant-1 envelope (max lambda_s1, gamma21, gamma22) at each lambda_s2 in ``lambdas``.

    None where lambda_s2 is unsupportable. One array call evaluates the
    ``_candidates`` of every rate, and each rate takes its first best
    candidate.
    """
    lam = np.array(lambdas, dtype=float)
    g21 = _candidates(mu, lam)
    values, g22 = _dominant1_values(mu, lam[:, None], g21)
    rows, best = np.arange(lam.size), values.argmax(axis=1)
    return [None if value == -math.inf else (value, g, r)
            for value, g, r in zip(values[rows, best].tolist(), g21[rows, best].tolist(),
                                   g22[rows, best].tolist())]


def _stationary(n0, n1, n2, d0, d1) -> tuple:
    """The x where (n0 + n1 x + n2 x**2) / (d0 + d1 x) is stationary: n2 d1 x**2 + 2 n2 d0 x + n1 d0 - n0 d1 = 0."""
    half, lead = n2 * d0, n2 * d1
    root = np.sqrt(half * half - lead * (n1 * d0 - n0 * d1))
    return (root - half) / lead, (-root - half) / lead


def _dominant1_sections(mu: np.ndarray, lambdas: list[float]) -> list[float | None]:
    """The largest lambda_s2 the dominant-1 system carries at each lambda_s1 in ``lambdas``.

    None where even lambda_s2 = 0 cannot carry lambda_s1. One array call
    evaluates the candidates of the module docstring for every rate.
    """
    (mu11, mu12), (mu21, mu22) = mu.tolist()
    lam = np.array(lambdas, dtype=float)
    with np.errstate(all="ignore"):
        x = _unit_table((
            0.0, 1.0, lam / mu21, 1.0 - lam / mu11,
            *_stationary(0.0, mu11 - lam, mu21 - mu11, 1.0, -1.0),  # y = 0
            *_stationary(mu11 - lam, mu21 - 2.0 * mu11 + lam, mu11 - mu21, 0.0, 1.0),  # y = 1
            *_stationary(-mu22 * lam, mu12 * (lam - mu11) + mu22 * (mu21 + lam),  # y = y_c
                         mu12 * mu11 - mu22 * mu21, -mu11, mu11 + mu21),
        ), lam.shape)
        lam = lam[:, None]
        y = _unit_table((0.0, 1.0, (x * mu21 - lam) / (x * mu21 - (1.0 - x) * mu11)), x.shape)
        x, lam = x[..., None], lam[..., None]
        a = (1.0 - x) * mu11 + x * mu21
        b = (1.0 - x) * (1.0 - y) * mu11 + x * y * mu21
        c = x * mu12 * (1.0 - y) + y * (1.0 - x) * mu22
        values = np.where(b > 0.0, np.minimum(c, c * (a - lam) / b), c)
    best = np.where(a >= lam, values, -np.inf).reshape(len(lambdas), -1).max(axis=1)
    return [None if value == -math.inf else value for value in best.tolist()]


def _envelope_point(mu: np.ndarray, lam, dominant: str) -> DominantEnvelopePoint:
    """The dominant-1 kernel at one rate, as the envelope point of dominant system ``dominant``."""
    first, lam = dominant == "first", float(lam)
    point = _dominant1_envelopes(mu if first else mu[:, ::-1], [lam])[0]
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
    return _envelope_point(_mu_2x2(mu), rate_vector([0.0, lambda_s2], 2)[1], "first")


def dominant2_envelope_2x2(mu, lambda_s1: float) -> DominantEnvelopePoint:
    """Mirror image of dominant1_envelope_2x2 with the user roles swapped."""
    return _envelope_point(_mu_2x2(mu), rate_vector([lambda_s1, 0.0], 2)[0], "second")


def _shat_sections(mu: np.ndarray, lam1: list[float]) -> list[float | None]:
    """Largest lambda_s2 such that (lambda_s1, lambda_s2) is in the union region, at each lambda_s1.

    The better of the dominant-2 envelope and the dominant-1 section at
    lambda_s1 - CLOSURE_TOL (an envelope value that close carries lambda_s1);
    None when neither carries it. Each kernel runs once per
    _SECTIONS_PER_CALL sections.
    """
    sections = []
    for i in range(0, len(lam1), _SECTIONS_PER_CALL):
        block = lam1[i:i + _SECTIONS_PER_CALL]
        own = _dominant1_sections(mu, [lam - CLOSURE_TOL for lam in block])
        for d1, d2 in zip(own, _dominant1_envelopes(mu[:, ::-1], block)):
            best = None if d2 is None else float(d2[0])
            sections.append(d1 if d1 is not None and (best is None or d1 > best) else best)
    return sections


def shat_section_lambda2(mu, lambda_s1: float) -> float | None:
    """Largest lambda_s2 such that (lambda_s1, lambda_s2) is in the union region (``shat_rows`` at one rate)."""
    return _shat_sections(_mu_2x2(mu), sweep_rates(2, 1, [lambda_s1])[0][:, 0].tolist())[0]


def _padded_2x2(mu: np.ndarray) -> np.ndarray | None:
    """mu as the dominant systems' 2x2 (one band gets a dead second band); None beyond 2 users on 1-2 bands."""
    m_p, m_s = mu.shape
    if m_s != 2 or m_p > 2:
        return None
    return mu if m_p == 2 else np.vstack([mu, np.zeros((1, m_s))])


def shat_rows(rates: RateMatrix, axis: int, lam: np.ndarray, sweep: int) -> list[float | None]:
    """Union-region section of user ``axis`` at the rows ``lam`` and swept user ``sweep`` from ``model.sweep_rates``.

    Two users on 1-2 bands only; any other shape is refused.
    """
    padded = _padded_2x2(rates.mu)
    if padded is None:
        raise ConfigurationError("analytic envelope for system S_hat covers only M_s=2, M_p<=2; use simulate")
    return _shat_sections(padded if axis == 1 else padded[:, ::-1], lam[:, sweep].tolist())


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
