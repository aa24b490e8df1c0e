"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's solution paths: the assignment oracle
scans a probability grid directly, the selection oracle scans the raw
two-parameter objective, ``grid_search`` maximizes any objective over a boxed
grid, and doubly stochastic inputs are built as convex combinations of
explicit permutation matrices. ``scalar_dominant1_envelope_2x2`` and
``scalar_dominant2_envelope_2x2`` keep the one-gamma21-at-a-time dominant-system
path that the array kernel in ``randalloc`` replaced; the differential test
requires the kernel to reproduce them exactly.
"""

import itertools
import math

import numpy as np

from bandalloc.model import ConfigurationError
from bandalloc.optim import FractionalCoeffs
from bandalloc.randalloc import DominantEnvelopePoint, SelectionMatrix


def random_doubly_stochastic(rng, n):
    """Convex combination of random permutation matrices (exactly doubly stochastic)."""
    weights = rng.dirichlet(np.ones(n * n))
    m = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        m[np.arange(n), perm] += w
    return m


def omega_grid_oracle(mu, lam1, step=1e-2):
    """Brute-force envelope of user 2 for a 2x2 instance over an omega grid.

    Scans user 2's column on the grid; for each candidate, user 1's column
    greedily packs the remaining row/column capacity onto its better band,
    which is the exact inner optimum for two nonnegative rates. Returns the
    best objective or None when no grid point supports lam1.
    """
    mu = np.asarray(mu, dtype=float)
    vals = np.arange(0.0, 1.0 + step / 2, step)
    W12, W22 = np.meshgrid(vals, vals, indexing="ij")
    col_ok = W12 + W22 <= 1.0 + 1e-12
    a = 1.0 - W12  # room left in band 1's row
    b = 1.0 - W22  # room left in band 2's row
    if mu[0, 0] >= mu[1, 0]:
        w11 = a
        w21 = np.minimum(b, 1.0 - w11)
    else:
        w21 = b
        w11 = np.minimum(a, 1.0 - w21)
    best_service1 = mu[0, 0] * w11 + mu[1, 0] * w21
    feasible = col_ok & (best_service1 >= lam1 - 1e-12)
    if not np.any(feasible):
        return None
    objective = np.where(feasible, mu[0, 1] * W12 + mu[1, 1] * W22, -np.inf)
    return float(objective.max())


def gamma_grid_oracle_dominant1(mu, lam2, step=1e-3):
    """Brute-force first-dominant-system envelope over a (gamma21, gamma22) grid."""
    mu = np.asarray(mu, dtype=float)
    g = np.arange(0.0, 1.0 + step / 2, step)
    G21, G22 = np.meshgrid(g, g, indexing="ij")
    mus2 = (1 - G22) * G21 * mu[0, 1] + G22 * (1 - G21) * mu[1, 1]
    base = (1 - G21) * mu[0, 0] + G21 * mu[1, 0]
    feasible = mus2 >= lam2
    if lam2 == 0:
        lam1 = np.where(feasible, base, -np.inf)
    else:
        coll = (1 - G21) * G22 * mu[0, 0] + G21 * (1 - G22) * mu[1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = lam2 / mus2
            lam1 = np.where(feasible & (mus2 > 0), frac * coll + base * (1 - frac), -np.inf)
    best = lam1.max()
    return float(best) if np.isfinite(best) else None


def grid_search(objective, box, step, constraint=None):
    """Best feasible point of ``objective`` on a regular grid over ``box``.

    ``box`` is a sequence of (lo, hi) pairs; the grid includes both endpoints.
    Ties go to the lexicographically smallest point (scan order plus strict
    improvement). Returns (point, value) or None when no grid point is feasible.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    axes = []
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError("box must be finite with lo <= hi")
        count = int(math.floor((hi - lo) / step + 1e-12))
        pts = [lo + i * step for i in range(count + 1)]
        if pts[-1] < hi - 1e-12:
            pts.append(hi)
        axes.append(pts)
    best_point = None
    best_value = -math.inf
    for point in itertools.product(*axes):
        if constraint is not None and not constraint(point):
            continue
        value = objective(point)
        if value > best_value:
            best_value = value
            best_point = point
    if best_point is None:
        return None
    return best_point, best_value


# The scalar dominant-system path, one gamma21 per call. The arithmetic is kept
# operation for operation, so the array kernel must match it bit for bit.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ENVELOPE_TOL = 1e-9


def scalar_maximize_fractional_1d(coeffs):
    """Branchy closed-form argmax of (K1*g - K2)/(D + C*g) over feasible g in [0, 1]."""
    rhs = coeffs.lambda_s2 - coeffs.D
    C = coeffs.C
    if C > 0.0:
        ratio = rhs / C
        if ratio > 1.0:
            return None, "infeasible"
        lower, upper = max(ratio, 0.0), 1.0
    elif C < 0.0:
        if rhs > 0.0:
            return None, "infeasible"
        lower, upper = 0.0, min(rhs / C, 1.0) if rhs < 0.0 else 0.0
    else:
        if rhs > 0.0:
            return None, "infeasible"
        lower, upper = 0.0, 1.0
    derivative = coeffs.K2 * C + coeffs.D * coeffs.K1
    return (upper if derivative > 0.0 else lower), "optimal"


def _scalar_coeffs(mu, gamma21, lambda_s2):
    g21b = 1.0 - gamma21
    return FractionalCoeffs(
        K1=g21b * mu[0, 0] - gamma21 * mu[1, 0],
        K2=g21b * mu[0, 0],
        C=g21b * mu[1, 1] - gamma21 * mu[0, 1],
        D=gamma21 * mu[0, 1],
        lambda_s2=lambda_s2,
        gamma21=gamma21,
    )


def _scalar_dominant1_at(mu, lambda_s2, gamma21):
    coeffs = _scalar_coeffs(mu, gamma21, lambda_s2)
    g22, status = scalar_maximize_fractional_1d(coeffs)
    if status != "optimal":
        return None
    base = (1.0 - gamma21) * mu[0, 0] + gamma21 * mu[1, 0]
    if lambda_s2 == 0:
        return base, g22
    denom = coeffs.D + coeffs.C * g22
    return base + lambda_s2 * (g22 * coeffs.K1 - coeffs.K2) / denom, g22


def scalar_dominant1_envelope_2x2(mu, lambda_s2, grid_step=1e-3):
    """Grid scan of gamma21 with the scalar inner argmax, then 60 golden-section steps."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (2, 2):
        raise ConfigurationError("mu must be 2x2")
    if lambda_s2 < 0:
        raise ConfigurationError("lambda_s2 must be >= 0")
    if lambda_s2 > max(mu[0, 1], mu[1, 1]) + _ENVELOPE_TOL:
        return DominantEnvelopePoint(fixed_lambda=lambda_s2, dominant="first", feasible=False)

    n = int(round(1.0 / grid_step))
    best_val = -math.inf
    best_g21 = None
    for i in range(n + 1):
        g21 = min(i * grid_step, 1.0)
        res = _scalar_dominant1_at(mu, lambda_s2, g21)
        if res is not None and res[0] > best_val:
            best_val, best_g21 = res[0], g21
    if best_g21 is None:
        return DominantEnvelopePoint(fixed_lambda=lambda_s2, dominant="first", feasible=False)

    def value(g21):
        res = _scalar_dominant1_at(mu, lambda_s2, g21)
        return res[0] if res is not None else -math.inf

    lo = max(best_g21 - grid_step, 0.0)
    hi = min(best_g21 + grid_step, 1.0)
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = value(x1), value(x2)
    for _ in range(60):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = value(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = value(x2)
    for cand in (best_g21, (a + b) / 2.0):
        v = value(cand)
        if v > best_val:
            best_val, best_g21 = v, cand

    g21 = best_g21
    g22 = _scalar_dominant1_at(mu, lambda_s2, g21)[1]
    gamma = SelectionMatrix(np.array([[1.0 - g21, 1.0 - g22], [g21, g22]]))
    return DominantEnvelopePoint(
        fixed_lambda=lambda_s2, dominant="first", feasible=True,
        max_lambda=float(best_val), gamma_star=gamma,
    )


def scalar_dominant2_envelope_2x2(mu, lambda_s1, grid_step=1e-3):
    """Mirror image of ``scalar_dominant1_envelope_2x2`` with the user roles swapped."""
    mu = np.asarray(mu, dtype=float)
    swapped = scalar_dominant1_envelope_2x2(mu[:, ::-1], lambda_s1, grid_step)
    gamma = None
    if swapped.gamma_star is not None:
        gamma = SelectionMatrix(swapped.gamma_star.gamma[:, ::-1])
    return DominantEnvelopePoint(
        fixed_lambda=lambda_s1, dominant="second", feasible=swapped.feasible,
        max_lambda=swapped.max_lambda, gamma_star=gamma,
    )
