"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's solution paths: the assignment oracle
scans a probability grid directly, the selection oracle scans the raw
two-parameter objective, ``grid_search`` maximizes any objective over a boxed
grid, and doubly stochastic inputs are built as convex combinations of
explicit permutation matrices.
"""

import itertools
import math

import numpy as np


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
