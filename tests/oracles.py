"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's solution paths: the assignment oracle
scans a probability grid directly, the selection oracle scans the raw
two-parameter objective, ``grid_search`` maximizes any objective over a boxed
grid, and doubly stochastic inputs are built as convex combinations of
explicit permutation matrices. ``reference_shat_section_lambda2`` keeps the
one-section-at-a-time bisection that the lockstep sweep in
``randalloc.shat_envelope`` replaced, ``reference_run`` keeps the
slot-by-slot simulator loop that the blocked engine in ``sim`` replaced,
``reference_solve_lp`` keeps the two-loop Bland simplex that
``optim.solve_lp`` replaced (``bound_rows_lp`` writes upper bounds as the rows
``solve_lp`` once built from them), and ``reference_best_fixed_max``,
``reference_best_margin_mapping`` and ``reference_mapping_max`` keep the
mapping-by-mapping search that the table scan in ``fixedalloc`` replaced; the
differential tests require the replacements to reproduce them exactly.
``scalar_dominant1_envelope_2x2`` and ``scalar_dominant2_envelope_2x2`` keep
the one-gamma21-at-a-time grid scan and golden-section search that the
closed-form candidate kernel in ``randalloc`` replaced; the kernel must match
them to rounding, and their per-gamma21 value bit for bit.

The paper's closed forms and the wrappers that only tests call live here too,
as reference code the library does not carry: the one-band envelope
(``one_band_envelope``), the symmetric cases (``symmetric_su_max``,
``symmetric_band_region_check``, ``fully_symmetric_max``), the collision
service rate (``conditional_service_rate``), the S_hat membership tests
(``region_2x2_check``, ``one_band_region_check``) and one-band selection
(``one_band_gamma_opt``), the fixed-mapping orthotope test
(``region_for_mapping``), the scenario writer (``scenario_to_dict``), the scalar
fractional maximizer (``FractionalCoeffs``, ``maximize_fractional_1d``), the
one-draw schedule sampler (``sample_permutation``), and the former methods
``marginal`` and ``schedule_from_dict`` of ``PermutationSchedule`` and
``to_json`` and ``trace_csv`` of ``SimResult``. ``assess_stability``
re-derives a result's verdicts from its stored trace tuples; ``reference_run``
and the simulator tests compare it with the verdicts ``sim.run`` computes from
its trace arrays.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from bandalloc import model, sim
from bandalloc.cli import _BAND_FIELDS, _USER_FIELDS
from bandalloc.fixedalloc import FixedMapping, _check_mapping
from bandalloc.model import CLOSURE_TOL, ConfigurationError, RateMatrix, Scenario, rate_vector
from bandalloc.optim import LpProblem, LpSolution, fractional_argmax
from bandalloc.orthogonal import AssignmentMatrix, EnvelopePoint
from bandalloc.randalloc import (
    DominantEnvelopePoint,
    SelectionMatrix,
    dominant1_envelope_2x2,
    dominant2_envelope_2x2,
)
from bandalloc.schedule import PermutationSchedule, sample_indices


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
    """Brute-force first-dominant-system envelope over a (gamma21, gamma22) grid.

    The grid is evaluated 64 gamma21 values at a time, keeping the running
    max, so the temporaries stay cache-sized; every point's arithmetic is
    that of one whole-grid expression.
    """
    mu = np.asarray(mu, dtype=float)
    g = np.arange(0.0, 1.0 + step / 2, step)
    G22 = g[None, :]
    best = -np.inf
    for i in range(0, g.size, 64):
        G21 = g[i:i + 64, None]
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
        best = max(best, lam1.max())
    return float(best) if np.isfinite(best) else None


def grid_search(objective, box, step, constraint=None):
    """Best feasible point of ``objective`` on a regular grid over ``box``.

    ``box`` is a sequence of (lo, hi) pairs; the grid includes both endpoints.
    ``constraint`` is called once on a tuple of arrays, one per axis, holding
    every grid point in ``itertools.product`` order, and ``objective`` once on
    the feasible points in the same form; both may return scalars. Ties go to
    the lexicographically smallest point (the first strict maximum in that
    order); NaN and -inf values are never chosen. Returns (point, value) or
    None when no grid point is feasible.
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
        axes.append(np.array(pts))
    points = tuple(a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    n = points[0].size
    feasible = np.ones(n, dtype=bool) if constraint is None else np.broadcast_to(constraint(points), (n,))
    index = np.flatnonzero(feasible)
    values = np.broadcast_to(objective(tuple(p[index] for p in points)), index.shape)
    candidates = np.where(values > -math.inf, values, -math.inf)
    if not np.any(candidates > -math.inf):
        return None
    best = int(np.argmax(candidates))
    return tuple(float(p[index[best]]) for p in points), values[best].item()


# The paper's closed forms and the wrappers only the tests call. The library
# computes the regions through the envelope LPs, the dominant-system kernel and
# the mapping scan, and the tests check those against these. A former method
# of a library class takes its object as the first argument.
_TOL = 1e-9


def one_band_envelope(mu_row, fixed_lambdas, k: int) -> EnvelopePoint:
    """Envelope when only one band is ever available.

    Fixed users take exactly the share lambda/mu they need; user k gets the
    rest of the band: lambda_k_max = mu_row[k] * (1 - sum_{l != k} lambda_l / mu_row[l]).
    """
    mu_row = np.asarray(mu_row, dtype=float)
    m_s = mu_row.size
    lam = rate_vector(fixed_lambdas, m_s, skip=k)
    omega = np.zeros((1, m_s))
    load = 0.0
    for l in range(m_s):
        if l == k or lam[l] == 0:
            continue
        if mu_row[l] == 0:
            return EnvelopePoint(feasible=False)
        omega[0, l] = lam[l] / mu_row[l]
        load += lam[l] / mu_row[l]
    if load > 1:
        return EnvelopePoint(feasible=False)
    omega[0, k] = 1.0 - load
    return EnvelopePoint(
        feasible=True,
        max_rate=float(mu_row[k] * (1.0 - load)),
        omega_star=AssignmentMatrix(omega),
    )


def symmetric_su_max(g, m_s: int) -> tuple[float, tuple[float, ...]]:
    """Symmetric users (mu[j, k] = g[j] for every k): share the best min(M_p, M_s) bands.

    Returns (lambda_max, theta_star) where theta_star[j] is each user's
    per-slot probability of being on band j (1/M_s on the chosen bands).
    """
    g = np.asarray(g, dtype=float)
    if m_s < 1:
        raise ConfigurationError("m_s must be >= 1")
    m_p = g.size
    order = sorted(range(m_p), key=lambda j: (-g[j], j))
    theta = [0.0] * m_p
    for j in order[: min(m_p, m_s)]:
        theta[j] = 1.0 / m_s
    lam_max = float(sum(theta[j] * g[j] for j in range(m_p)))
    return lam_max, tuple(theta)


def symmetric_band_region_check(beta, m_p: int, lambdas) -> bool:
    """Membership test for identical bands (mu[j, k] = beta[k] for every j).

    M_p >= M_s: the region is the open orthotope lambda_k < beta_k. M_p < M_s:
    additionally sum_k lambda_k / beta_k < M_p.
    """
    beta = np.asarray(beta, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != beta.shape:
        raise ConfigurationError("lambdas must match beta in length")
    m_s = beta.size
    if np.any(lam < 0):
        return False
    if not np.all(lam < beta - _TOL):
        return False
    if m_p < m_s and float(np.sum(lam / beta)) >= m_p - _TOL:
        return False
    return True


def fully_symmetric_max(m_p: int, m_s: int, beta: float) -> float:
    """Per-user maximum stable rate with symmetric users and bands: min(M_p/M_s, 1) * beta."""
    if m_p < 1 or m_s < 1:
        raise ConfigurationError("need at least one band and one user")
    if not beta >= 0:  # also refuses NaN
        raise ConfigurationError("beta must be >= 0")
    return min(m_p / m_s, 1.0) * beta


def conditional_service_rate(gamma, nonempty, rates: RateMatrix, k: int) -> float:
    """Service rate of backlogged user k: sum_j mu[j,k]*gamma[j,k]*prod_{v in nonempty, v!=k}(1-gamma[j,v]).

    ``nonempty`` is the set of users with backlogged queues (k included by
    convention); only they can collide with k.
    """
    g = np.asarray(getattr(gamma, "gamma", gamma), dtype=float)
    if g.shape != rates.mu.shape:
        raise ConfigurationError(f"gamma has shape {g.shape}, expected {rates.mu.shape}")
    if not 0 <= k < rates.m_s:
        raise ConfigurationError(f"user index {k} out of range")
    others = [v for v in set(nonempty) if v != k]
    clear = np.prod(1.0 - g[:, others], axis=1) if others else np.ones(rates.m_p)
    return float(np.sum(rates.mu[:, k] * g[:, k] * clear))


def region_2x2_check(mu, lambda_pair) -> bool:
    """True iff the rate pair lies strictly inside the union of the two dominant regions."""
    lam1, lam2 = (float(v) for v in lambda_pair)
    if lam1 < 0 or lam2 < 0:
        return False
    d1 = dominant1_envelope_2x2(mu, lam2)
    if d1.feasible and lam1 < d1.max_lambda - _TOL:
        return True
    d2 = dominant2_envelope_2x2(mu, lam1)
    return d2.feasible and lam2 < d2.max_lambda - _TOL


def one_band_gamma_opt(mu11: float, mu12: float, lambda_s2: float) -> SelectionMatrix | None:
    """Optimal selection probabilities when only band 1 is ever available.

    The sole non-trivial parameter is user 1's probability of staying on the
    live band: gamma11 = 1 - min(sqrt(lambda_s2/mu12), 1); user 2 always picks
    the live band. None when lambda_s2 exceeds mu12.
    """
    if not (mu11 >= 0 and mu12 >= 0 and lambda_s2 >= 0):  # NaN fails too
        raise ConfigurationError("rates must be >= 0")
    if mu12 == 0:
        if lambda_s2 > 0:
            return None
        g11 = 1.0
    else:
        ratio = lambda_s2 / mu12
        if ratio > 1.0 + _TOL:
            return None
        g11 = 1.0 - min(math.sqrt(ratio), 1.0)
    return SelectionMatrix(np.array([[g11, 1.0], [1.0 - g11, 0.0]]))


def one_band_region_check(mu11: float, mu12: float, lambda_pair) -> bool:
    """Single-band region: sqrt(lambda1/mu11) + sqrt(lambda2/mu12) < 1 (not convex).

    A negative or NaN rate raises ConfigurationError.
    """
    total = 0.0
    for lam, mu in zip(lambda_pair, (mu11, mu12)):
        if not lam >= 0:  # NaN fails too
            raise ConfigurationError("rates must be >= 0")
        if lam == 0:
            continue
        if mu == 0:
            return False
        total += math.sqrt(lam / mu)
    return total < 1.0 - _TOL


def region_for_mapping(d: FixedMapping, rates: RateMatrix, lambdas) -> bool:
    """True iff every user's rate is strictly below its assigned band's service rate."""
    _check_mapping(d, rates)
    lambdas = list(lambdas)
    if len(lambdas) != rates.m_s:
        raise ConfigurationError("lambdas must have one entry per user")
    for k, m in enumerate(d.assignment):
        if lambdas[k] < 0 or lambdas[k] >= rates.mu[m - 1, k] - _TOL:
            return False
    return True


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of cli.parse_scenario_dict (round-trip stable)."""
    doc: dict = {
        "mode": scenario.mode,
        "slot": {"T": scenario.slot.T, "tau": scenario.slot.tau, "b": scenario.slot.b},
        "bands": [],
        "users": [],
    }
    for band in scenario.bands:
        entry = {}
        for name in sorted(_BAND_FIELDS[scenario.mode]):
            value = getattr(band, name)
            if value is not None:
                entry[name] = value
        doc["bands"].append(entry)
    for user in scenario.users:
        entry = {"arrival_rate_lambda_s": user.arrival_rate_lambda_s}
        for name in sorted(_USER_FIELDS[scenario.mode] - {"arrival_rate_lambda_s"}):
            value = getattr(user, name)
            if value is not None:
                entry[name] = list(value) if isinstance(value, tuple) else value
        doc["users"].append(entry)
    return doc


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


def maximize_fractional_1d(coeffs: FractionalCoeffs) -> tuple[float | None, str]:
    """Scalar form of ``optim.fractional_argmax``: (g_opt, "optimal") or (None, "infeasible")."""
    g, feasible = fractional_argmax(coeffs.K1, coeffs.K2, coeffs.C, coeffs.D, coeffs.lambda_s2)
    return (float(g), "optimal") if feasible else (None, "infeasible")


def sample_permutation(schedule: PermutationSchedule, rng) -> tuple[int, ...]:
    """Draw one assignment pattern; consumes exactly one uniform from ``rng``."""
    entries = schedule.entries
    index = sample_indices([w for _, w in entries], rng.random(), len(entries) - 1)
    return entries[int(index)][0]


def marginal(schedule: PermutationSchedule, band: int, user: int) -> float:
    """Total probability that ``band`` (1-based) is assigned to ``user`` (0-based)."""
    return sum(w for perm, w in schedule.entries if perm[user] == band)


def schedule_from_dict(doc: dict) -> PermutationSchedule:
    """Inverse of ``PermutationSchedule.to_dict``."""
    return PermutationSchedule(tuple((tuple(e["assignment"]), e["weight"]) for e in doc["entries"]))


def to_json(result: sim.SimResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def trace_csv(result: sim.SimResult) -> str:
    """Sampled backlog trace as CSV: slot, qp_1.., qs_1..."""
    m_p = len(result.primary)
    m_s = len(result.secondary)
    lines = ["slot," + ",".join(f"qp_{j+1}" for j in range(m_p)) + ","
             + ",".join(f"qs_{k+1}" for k in range(m_s))]
    for i, slot in enumerate(result.trace_slots):
        row = [str(slot)]
        row += [str(v) for v in result.trace_primary[i]]
        row += [str(v) for v in result.trace_secondary[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def assess_stability(result: sim.SimResult) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Re-derive the per-queue verdicts from a result's trace (primary, secondary)."""
    prim = tuple(
        sim._verdict(result.trace_slots, [row[j] for row in result.trace_primary],
                     result.warmup, result.n_slots, result.primary[j].final_length)
        for j in range(len(result.primary))
    )
    sec = tuple(
        sim._verdict(result.trace_slots, [row[k] for row in result.trace_secondary],
                     result.warmup, result.n_slots, result.secondary[k].final_length)
        for k in range(len(result.secondary))
    )
    return prim, sec


# The scalar dominant-system path, one gamma21 per call: a grid scan refined by
# golden section. The per-gamma21 arithmetic is kept operation for operation,
# so the library kernel's value at its chosen gamma21 must match it bit for bit.
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


# The one-section-at-a-time S_hat section that the lockstep sweep in
# ``randalloc.shat_envelope`` replaced, kept statement for statement.
_REF_SECTION_TOL = 1e-6


def reference_shat_section_lambda2(mu, lambda_s1, dominant1=dominant1_envelope_2x2,
                                   dominant2=dominant2_envelope_2x2):
    """Largest lambda_s2 with (lambda_s1, lambda_s2) in the union region, by one bisection.

    ``dominant1`` and ``dominant2`` default to the library's envelopes; the
    scalar ones above tie the section to the one-gamma21-at-a-time path.
    """
    mu = np.asarray(mu, dtype=float)
    best = None
    d2 = dominant2(mu, lambda_s1)
    if d2.feasible:
        best = float(d2.max_lambda)

    def carries(lam2: float) -> bool:
        p = dominant1(mu, lam2)
        return p.feasible and p.max_lambda >= lambda_s1 - CLOSURE_TOL

    hi = max(mu[0, 1], mu[1, 1])
    if carries(0.0):
        lo = 0.0
        if hi > 0 and carries(hi):
            lo = hi
        elif hi > 0:
            while hi - lo > _REF_SECTION_TOL:
                mid = (lo + hi) / 2.0
                if carries(mid):
                    lo = mid
                else:
                    hi = mid
        if best is None or lo > best:
            best = lo
    return None if best is None else float(best)


# The dense two-phase Bland simplex that ``optim.solve_lp`` replaced, kept
# statement for statement with its own tolerances, so the differential test
# can require the one-loop solver to reproduce it bit for bit.
_REF_FEAS_TOL = 1e-9
_REF_PIVOT_TOL = 1e-12
_REF_MAX_ITER = 20000


def _ref_pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _ref_bland_entering(obj: np.ndarray, allowed: int) -> int | None:
    """Smallest-index column with positive reduced cost (maximization)."""
    for j in range(allowed):
        if obj[j] > _REF_PIVOT_TOL:
            return j
    return None


def _ref_bland_leaving(T: np.ndarray, basis: list[int], col: int, m: int) -> int | None:
    """Minimum-ratio row; ties broken by smallest basis variable index (Bland)."""
    best_row = None
    best_ratio = math.inf
    for i in range(m):
        a = T[i, col]
        if a > _REF_PIVOT_TOL:
            ratio = T[i, -1] / a
            if ratio < best_ratio - _REF_PIVOT_TOL or (
                abs(ratio - best_ratio) <= _REF_PIVOT_TOL
                and best_row is not None
                and basis[i] < basis[best_row]
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _ref_run_simplex(T: np.ndarray, basis: list[int], n_allowed: int, m: int) -> str:
    """Iterate Bland pivots on tableau T (last row = objective, last col = rhs)."""
    for _ in range(_REF_MAX_ITER):
        col = _ref_bland_entering(T[-1], n_allowed)
        if col is None:
            return "optimal"
        row = _ref_bland_leaving(T, basis, col, m)
        if row is None:
            return "unbounded"
        _ref_pivot(T, basis, row, col)
    return "failed"


def bound_rows_lp(c, A, b, lo, hi) -> LpProblem:
    """maximize c @ x s.t. A @ x <= b, lo <= x <= hi, with each finite upper bound a row.

    The rows x_i <= hi_i follow A in variable order: the rows ``solve_lp``
    built from upper bounds when ``LpProblem`` still carried them.
    """
    c = np.atleast_1d(np.asarray(c, float))
    hi = np.asarray(hi, float)
    finite = np.isfinite(hi)
    A = np.vstack([np.asarray(A, float).reshape(-1, c.size), np.eye(c.size)[finite]])
    b = np.concatenate([np.atleast_1d(np.asarray(b, float)), hi[finite]])
    return LpProblem(c=c, A=A, b=b, lo=lo)


def reference_solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP; never reports a wrong "optimal".

    The returned point of an optimal solution satisfies every constraint and
    bound within 1e-9; if the tableau degrades numerically beyond that the
    status is "failed".
    """
    n = problem.c.size
    # Shift to y = x - lo >= 0.
    shift = problem.lo
    A = problem.A
    b = problem.b - problem.A @ shift if problem.A.size else problem.b
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
        status = _ref_run_simplex(T, basis, n_total, m)
        if status != "optimal":
            return LpSolution(status="failed")
        # Objective cell holds -(phase-I value); a positive residual means some
        # artificial variable is stuck above zero, i.e. the LP is infeasible.
        if T[-1, -1] > _REF_FEAS_TOL:
            return LpSolution(status="infeasible")
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] < n + n_slack:
                keep.append(i)
                continue
            row = np.abs(T[i, : n + n_slack])
            pivot_col = int(np.argmax(row))
            if row[pivot_col] <= _REF_PIVOT_TOL:
                continue  # redundant constraint
            _ref_pivot(T, basis, i, pivot_col)
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
    status = _ref_run_simplex(T, basis, n_total, m)
    if status == "unbounded":
        return LpSolution(status="unbounded")
    if status != "optimal":
        return LpSolution(status="failed")

    y = np.zeros(n_total)
    for i, bv in enumerate(basis):
        y[bv] = T[i, -1]
    x = y[:n] + shift
    # Independent residual check before declaring victory.
    if problem.A.size and np.any(problem.A @ x - problem.b > _REF_FEAS_TOL):
        return LpSolution(status="failed")
    if np.any(problem.lo - x > _REF_FEAS_TOL):
        return LpSolution(status="failed")
    return LpSolution(status="optimal", value=float(problem.c @ x), x=x)


# The slot-by-slot simulator, event for event. Instead of consuming draws only
# when an event needs one, it reads the rows of the stream contract in the
# ``sim`` docstring, pre-drawn for the whole horizon in one call per row.


def _stream_rows(seed, count, n_slots):
    children = np.random.SeedSequence(seed & ((1 << 64) - 1)).spawn(count)
    return [np.random.default_rng(child).random(n_slots).tolist() for child in children]


def _reference_tables(policy, m_p, m_s):
    """0-based lookup tables (virtual band = -1) for the loop, with the engine's checks."""
    if policy.kind == "orthogonal":
        zero_based = {}
        for perm, _ in policy.schedule.entries:
            if len(perm) != m_s:
                raise ConfigurationError("schedule permutation length must equal M_s")
            if any(m > m_p for m in perm):
                raise ConfigurationError("schedule assigns a band outside the scenario")
            zero_based[perm] = tuple(m - 1 for m in perm)
        return zero_based
    if policy.kind == "random":
        g = policy.selection.gamma
        if g.shape != (m_p, m_s):
            raise ConfigurationError(f"selection matrix has shape {g.shape}, expected {(m_p, m_s)}")
        columns = []
        for k in range(m_s):
            col = tuple(float(g[j, k]) for j in range(m_p))
            fallback = -1
            if sum(col) >= 1.0 - 1e-9:
                fallback = max(j for j in range(m_p) if col[j] > 0)
            columns.append((col, fallback))
        return columns
    mapping = policy.mapping
    if mapping.m_s != m_s or any(m > m_p for m in mapping.assignment):
        raise ConfigurationError("fixed mapping does not fit the scenario")
    return tuple(m - 1 for m in mapping.assignment)


def reference_run(scenario, policy, config):
    """``sim.run`` as a per-slot loop over pre-drawn rows; same result type."""
    links = model.resolve_links(scenario)
    m_p, m_s = scenario.m_p, scenario.m_s
    tables = _reference_tables(policy, m_p, m_s)
    kind = policy.kind
    n_slots = config.n_slots

    lam_p = [float(v) for v in links.lambda_p]
    mu_p = [float(v) for v in links.mu_p]
    lam_s = [float(v) for v in links.lambda_s]
    psucc = [[float(links.p_success[j, k]) for k in range(m_s)] for j in range(m_p)]
    live = [not band.is_virtual for band in scenario.bands]

    prim = _stream_rows(config.seed ^ sim._PRIMARY_STREAM_SALT, 2 * m_p, n_slots)
    sec = _stream_rows(config.seed, 1 + 3 * m_s, n_slots)
    out_p, arr_p_u = prim[:m_p], prim[m_p:]
    assign_u = sec[0]
    pick_u, out_s, arr_s_u = sec[1:1 + m_s], sec[1 + m_s:1 + 2 * m_s], sec[1 + 2 * m_s:]

    qp = [0] * m_p
    qs = [0] * m_s
    arr_p = [0] * m_p
    arr_s = [0] * m_s
    dep_p = [0] * m_p
    dep_s = [0] * m_s
    dep_s_post = [0] * m_s
    empty_post = [0] * m_p
    collisions = 0
    trace_slots, trace_p, trace_s = [], [], []

    warmup = config.warmup
    stride = config.trace_stride
    bands = range(m_p)
    users = range(m_s)
    assign = tables if kind == "fixed" else None
    load = [1] * m_p

    for t in range(n_slots):
        post = t >= warmup
        avail = [q == 0 for q in qp]
        if post:
            for j in bands:
                if avail[j]:
                    empty_post[j] += 1

        for j in bands:
            if qp[j] and out_p[j][t] < mu_p[j]:
                qp[j] -= 1
                dep_p[j] += 1
        for j in bands:
            if lam_p[j] > 0.0 and arr_p_u[j][t] < lam_p[j]:
                qp[j] += 1
                arr_p[j] += 1

        if kind == "orthogonal":
            u = assign_u[t]
            perm = policy.schedule.entries[-1][0]
            for entry, w in policy.schedule.entries:
                u -= w
                if u < 0:
                    perm = entry
                    break
            assign = tables[perm]
        elif kind == "random":
            assign = [-1] * m_s
            load = [0] * m_p
            for k in users:
                if qs[k]:
                    u = pick_u[k][t]
                    col, fallback = tables[k]
                    picked = fallback
                    for j in bands:
                        u -= col[j]
                        if u < 0:
                            picked = j
                            break
                    if picked >= 0:
                        assign[k] = picked
                        load[picked] += 1
            for j in bands:
                if load[j] > 1 and live[j] and avail[j]:
                    collisions += 1
        for k in users:
            if qs[k]:
                j = assign[k]
                if j >= 0 and live[j] and avail[j] and load[j] == 1 and out_s[k][t] < psucc[j][k]:
                    qs[k] -= 1
                    dep_s[k] += 1
                    if post:
                        dep_s_post[k] += 1
        for k in users:
            if lam_s[k] > 0.0 and arr_s_u[k][t] < lam_s[k]:
                qs[k] += 1
                arr_s[k] += 1

        if (t + 1) % stride == 0:
            trace_slots.append(t)
            trace_p.append(tuple(qp))
            trace_s.append(tuple(qs))

    post_slots = n_slots - warmup
    result = sim.SimResult(
        n_slots=n_slots,
        warmup=warmup,
        seed=config.seed,
        primary=tuple(sim.QueueStats(arr_p[j], dep_p[j], qp[j]) for j in bands),
        secondary=tuple(sim.QueueStats(arr_s[k], dep_s[k], qs[k]) for k in users),
        trace_slots=tuple(trace_slots),
        trace_primary=tuple(trace_p),
        trace_secondary=tuple(trace_s),
        post_warmup_slots=post_slots,
        post_warmup_departures=tuple(dep_s_post),
        secondary_throughput=tuple(d / post_slots for d in dep_s_post),
        primary_empty_fraction=tuple(e / post_slots for e in empty_post),
        collision_count=collisions,
    )
    prim_v, sec_v = assess_stability(result)
    return sim.SimResult(**{**vars(result), "verdicts_primary": prim_v, "verdicts_secondary": sec_v})


def _reference_mappings(rates, lambdas, free=None):
    """One-to-one mappings (1-based bands, lexicographic order) and ``lambdas`` as a list."""
    m_p, m_s = rates.m_p, rates.m_s
    if m_p < m_s:
        raise ConfigurationError(f"fixed allocation needs M_p >= M_s, got M_p={m_p}, M_s={m_s}")
    if m_s > 8 or math.perm(m_p, m_s) > 1_000_000:
        raise ConfigurationError(
            f"brute-force mapping search refuses M_s={m_s}, M_p={m_p} "
            f"({math.perm(m_p, m_s)} mappings)"
        )
    lam = list(lambdas)
    if len(lam) != m_s:
        raise ConfigurationError("rates must have one entry per user")
    for l in range(m_s):
        if l != free and not lam[l] >= 0:
            raise ConfigurationError(f"rate of user {l + 1} must be >= 0, got {float(lam[l])}")
    return itertools.permutations(range(1, m_p + 1), m_s), lam


def reference_mapping_max(rates, assignment, fixed_lambdas, k):
    """Largest closure rate of user k under one mapping, or None when it does not
    support every other user's fixed rate (lambda_l <= mu[m_l, l])."""
    for l, m in enumerate(assignment):
        if l != k and not fixed_lambdas[l] <= rates.mu[m - 1, l] + CLOSURE_TOL:
            return None
    return float(rates.mu[assignment[k] - 1, k])


def reference_best_fixed_max(rates, fixed_lambdas, k):
    """Best supporting mapping for user k, one mapping at a time (strict improvement)."""
    if not 0 <= k < rates.m_s:
        raise ConfigurationError(f"user index {k} out of range")
    mappings, lam = _reference_mappings(rates, fixed_lambdas, k)
    best = None
    for assignment in mappings:
        value = reference_mapping_max(rates, assignment, lam, k)
        if value is not None and (best is None or value > best[0]):
            best = (value, FixedMapping(assignment))
    return best


def reference_best_margin_mapping(rates, lambdas):
    """Mapping with the largest worst-case margin, one mapping at a time."""
    mappings, lam = _reference_mappings(rates, lambdas)
    best = None
    for assignment in mappings:
        margin = min(float(rates.mu[m - 1, k]) - float(lam[k]) for k, m in enumerate(assignment))
        if best is None or margin > best[0]:
            best = (margin, assignment)
    return FixedMapping(best[1])
