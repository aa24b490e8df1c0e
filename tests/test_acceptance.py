"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bandalloc import fixedalloc, model, orthogonal, randalloc, regions, schedule, sim

from conftest import ref_2x2_scenario, random_rate_matrix
from oracles import (
    conditional_service_rate,
    fully_symmetric_max,
    gamma_grid_oracle_dominant1,
    omega_grid_oracle,
    one_band_envelope,
    one_band_gamma_opt,
    one_band_region_check,
    random_doubly_stochastic,
    symmetric_su_max,
    to_json,
)


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def ref_2x2_rates():
    return model.rate_matrix(ref_2x2_scenario())


def test_criterion_1_reference_scenario_thresholds():
    with criterion(1, "reference 2x2 thresholds and fixed/S low-rate coincidence", budget_seconds=1.0):
        rates = ref_2x2_rates()
        assert rates.mu[0, 0] == 0.175
        assert rates.mu[0, 1] == 0.2125
        assert rates.pi[0] == 0.25 and rates.pi[1] == 0.875
        # fixed assignment is optimal on the whole low-rate segment lambda_s1 <= mu11
        for lam1 in list(np.linspace(0.0, 0.175, 9)) + [0.175]:
            s_point = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
            best = fixedalloc.best_fixed_max(rates, [lam1, 0.0], 1)
            assert s_point.feasible and best is not None
            assert abs(best[0] - s_point.max_rate) <= 1e-9


def test_criterion_2_closed_form_lp_equivalence():
    with criterion(2, "closed forms equal the envelope LP within 1e-9", budget_seconds=30.0):
        rng = np.random.default_rng(2024)
        # two-user/two-band closed form vs the LP, 1000 random instances
        for _ in range(1000):
            rates = random_rate_matrix(rng)
            lam1 = rng.uniform(0, max(rates.mu[0, 0], rates.mu[1, 0]))
            closed = orthogonal.two_by_two_closed_form(rates.mu, lam1)
            point = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
            assert closed is not None and point.feasible
            assert abs(closed[1] - point.max_rate) <= 1e-9
        # one-band closed form vs the LP
        for _ in range(250):
            m_s = int(rng.integers(2, 6))
            mu_row = rng.uniform(0.1, 1.0, m_s)
            mu = np.vstack([mu_row, np.zeros((1, m_s))])
            rates = model.RateMatrix(mu=mu, mu_p=np.ones(2), pi=np.array([1.0, 0.0]))
            lam = np.zeros(m_s)
            lam[1:] = mu_row[1:] * rng.dirichlet(np.ones(m_s - 1)) * rng.uniform(0, 0.98)
            closed = one_band_envelope(mu_row, lam, 0)
            point = orthogonal.envelope_point(rates, lam, 0)
            assert closed.feasible and point.feasible
            assert abs(closed.max_rate - point.max_rate) <= 1e-9
        # symmetric users: best-bands sharing formula vs the LP
        for _ in range(250):
            m_p, m_s = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = rng.uniform(0.1, 1.0, m_p)
            rates = model.RateMatrix(mu=np.tile(g[:, None], (1, m_s)), mu_p=np.ones(m_p), pi=g)
            lam_max, theta = symmetric_su_max(g, m_s)
            assert abs(sum(t * gj for t, gj in zip(theta, g)) - lam_max) <= 1e-12
            point = orthogonal.envelope_point(rates, np.full(m_s, lam_max), 0)
            assert point.feasible and abs(point.max_rate - lam_max) <= 1e-9
        # symmetric bands: orthotope / shared-capacity region vs the LP
        for _ in range(250):
            m_p, m_s = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            beta = rng.uniform(0.1, 1.0, m_s)
            rates = model.RateMatrix(
                mu=np.tile(beta[None, :], (m_p, 1)), mu_p=np.ones(m_p), pi=np.full(m_p, beta.max())
            )
            lam = rng.uniform(0, 0.9, m_s) * beta
            if m_p < m_s:
                lam *= min(1.0, 0.9 * m_p / max(float(np.sum(lam / beta)), 1e-9))
                expected = min(beta[0], beta[0] * (m_p - float(np.sum(lam[1:] / beta[1:]))))
            else:
                expected = beta[0]
            point = orthogonal.envelope_point(rates, lam, 0)
            assert point.feasible and abs(point.max_rate - expected) <= 1e-9
        # fully symmetric: min(M_p/M_s, 1) * beta vs the LP
        for _ in range(250):
            m_p, m_s = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            beta = float(rng.uniform(0.1, 1.0))
            rates = model.RateMatrix(
                mu=np.full((m_p, m_s), beta), mu_p=np.ones(m_p), pi=np.full(m_p, beta)
            )
            lam_max = fully_symmetric_max(m_p, m_s, beta)
            point = orthogonal.envelope_point(rates, np.full(m_s, lam_max), 0)
            assert point.feasible and abs(point.max_rate - lam_max) <= 1e-9


def test_criterion_3_grid_oracle_equivalence():
    with criterion(3, "LP and dominant envelopes match brute-force grid oracles"):
        rng = np.random.default_rng(333)
        for _ in range(100):
            rates = random_rate_matrix(rng)
            lam1 = rng.uniform(0, max(rates.mu[0, 0], rates.mu[1, 0]))
            point = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
            oracle = omega_grid_oracle(rates.mu, lam1, step=1e-2)
            assert point.feasible and oracle is not None
            assert abs(point.max_rate - oracle) <= 2e-2
        for _ in range(100):
            mu = rng.uniform(0.05, 1.0, (2, 2))
            lam2 = rng.uniform(0, max(mu[0, 1], mu[1, 1]))
            d1 = randalloc.dominant1_envelope_2x2(mu, lam2)
            oracle = gamma_grid_oracle_dominant1(mu, lam2, step=1e-3)
            assert d1.feasible == (oracle is not None)
            if d1.feasible:
                assert abs(d1.max_lambda - oracle) <= 2e-3
            lam1 = rng.uniform(0, max(mu[0, 0], mu[1, 0]))
            d2 = randalloc.dominant2_envelope_2x2(mu, lam1)
            oracle = gamma_grid_oracle_dominant1(mu[:, ::-1], lam1, step=1e-3)
            assert d2.feasible == (oracle is not None)
            if d2.feasible:
                assert abs(d2.max_lambda - oracle) <= 2e-3


def test_criterion_4_birkhoff():
    with criterion(4, "Birkhoff: reconstruction, entry bound, sampled marginals"):
        rng = np.random.default_rng(444)
        sampler = np.random.default_rng(445)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            matrix = random_doubly_stochastic(rng, n)
            sched = schedule.birkhoff_decompose(matrix)
            assert len(sched.entries) <= (n - 1) ** 2 + 1
            rebuilt = np.zeros((n, n))
            for perm, w in sched.entries:
                for user, band in enumerate(perm):
                    rebuilt[band - 1, user] += w
            assert np.max(np.abs(rebuilt - matrix)) <= 1e-9
            # empirical marginals from 1e5 inverse-CDF draws over the entry weights
            weights = np.array([w for _, w in sched.entries])
            perms = np.array([[band - 1 for band in perm] for perm, _ in sched.entries])
            draws = sampler.random(100_000)
            idx = np.searchsorted(np.cumsum(weights), draws, side="right")
            idx = np.minimum(idx, len(weights) - 1)
            counts = np.bincount(idx, minlength=len(weights)) / 100_000.0
            empirical = np.zeros((n, n))
            for entry, share in enumerate(counts):
                empirical[perms[entry], np.arange(n)] += share
            assert np.max(np.abs(empirical - matrix)) <= 0.01


def test_criterion_5_containment():
    with criterion(5, "containment ordering fixed within S_hat within S"):
        rng = np.random.default_rng(555)
        for _ in range(1000):
            rates = random_rate_matrix(rng)
            mu = rates.mu
            lam1 = rng.uniform(0, max(mu[0, 0], mu[1, 0]))
            s_section = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
            assert s_section.feasible
            best = fixedalloc.best_fixed_max(rates, [lam1, 0.0], 1)
            d2 = randalloc.dominant2_envelope_2x2(mu, lam1)
            if best is not None:
                # the degenerate selection matrix realizes any fixed mapping in S_hat
                assert d2.feasible
                assert best[0] <= d2.max_lambda + 2e-3
                assert best[0] <= s_section.max_rate + 1e-9
            if d2.feasible:
                assert d2.max_lambda <= s_section.max_rate + 2e-3
            lam2 = rng.uniform(0, max(mu[0, 1], mu[1, 1]))
            d1 = randalloc.dominant1_envelope_2x2(mu, lam2)
            if d1.feasible:
                s_other = orthogonal.envelope_point(rates, [0.0, lam2], 0)
                assert s_other.feasible
                assert d1.max_lambda <= s_other.max_rate + 2e-3
        # one-band: sqrt region sits inside the time-sharing region
        for _ in range(1000):
            mu11, mu12 = rng.uniform(0.05, 1.0, 2)
            radius = rng.uniform(0, 0.999)
            split = rng.uniform(0, 1)
            pair = (mu11 * (radius * split) ** 2, mu12 * (radius * (1 - split)) ** 2)
            assert one_band_region_check(mu11, mu12, pair)
            assert pair[0] / mu11 + pair[1] / mu12 < 1.0


def test_criterion_6_one_band_random_region():
    with criterion(6, "one-band sqrt boundary matches the optimal-selection construction"):
        rng = np.random.default_rng(666)
        for _ in range(200):
            mu11, mu12 = rng.uniform(0.05, 1.0, 2)
            lam2 = rng.uniform(0.0, mu12 * 0.999)
            selection = one_band_gamma_opt(mu11, mu12, lam2)
            g11 = selection.gamma[0, 0]
            if lam2 == 0:
                lam1_env = mu11 * g11
            else:
                mus2 = (1.0 - g11) * mu12
                lam1_env = mu11 * g11 * (1.0 - lam2 / mus2)
            sqrt_boundary = mu11 * (1.0 - math.sqrt(lam2 / mu12)) ** 2
            assert abs(lam1_env - sqrt_boundary) <= 1e-6
            if lam1_env > 2e-6:
                assert one_band_region_check(mu11, mu12, (lam1_env - 1e-6, lam2))
            assert not one_band_region_check(mu11, mu12, (lam1_env + 1e-6, lam2))
        # non-convexity witness: midpoint of the axis extremes is outside
        for _ in range(50):
            mu = float(rng.uniform(0.05, 1.0))
            assert not one_band_region_check(mu, mu, (mu / 2, mu / 2))
            assert math.sqrt(0.5) + math.sqrt(0.5) > 1.0


def _criterion7_points():
    """Boundary points and matching policies for the three systems (see ledger).

    Directions are spread over the robustly classifiable parts of each
    boundary; razor-thin stretches (10% radial excess below ~0.03 packets/slot
    drift on every queue) are avoided since the pinned slope threshold cannot
    separate them from noise at 1e5 slots.
    """
    rates = ref_2x2_rates()
    mu = rates.mu
    points = {"S": [], "S_hat": [], "fixed": []}
    for lam1 in np.linspace(0.0, 0.7, 20):
        point = orthogonal.envelope_point(rates, [float(lam1), 0.0], 1)
        _, sched = schedule.schedule_from_assignment(point.omega_star)
        points["S"].append((np.array([lam1, point.max_rate]), sim.Policy.orthogonal(sched)))
    for lam1 in np.concatenate([np.linspace(0.0, 0.44, 14), np.linspace(0.67, 0.7, 6)]):
        section = randalloc.shat_section_lambda2(mu, float(lam1))
        d2 = randalloc.dominant2_envelope_2x2(mu, float(lam1))
        if d2.feasible and abs(d2.max_lambda - section) <= 1e-6:
            gamma = d2.gamma_star
        else:
            gamma = randalloc.dominant1_envelope_2x2(mu, section).gamma_star
        points["S_hat"].append((np.array([lam1, section]), sim.Policy.random(gamma)))
    for lam1 in np.concatenate([np.linspace(0.0, 0.175, 12), np.linspace(0.67, 0.7, 8)]):
        value, mapping = fixedalloc.best_fixed_max(rates, [float(lam1), 0.0], 1)
        points["fixed"].append((np.array([lam1, value]), sim.Policy.fixed(mapping)))
    return points


def test_criterion_7_simulation_vs_analysis():
    with criterion(7, "20 points/system at 0.9x stable and 1.1x unstable", budget_seconds=120.0):
        points = _criterion7_points()
        for name, pts in points.items():
            assert len(pts) == 20
            for i, (boundary, policy) in enumerate(pts):
                inside = ref_2x2_scenario(*(0.9 * boundary))
                outside = ref_2x2_scenario(*np.minimum(1.1 * boundary, 1.0))
                r_in = sim.run(inside, policy, sim.SimConfig(n_slots=100_000, seed=9_000 + i))
                r_out = sim.run(outside, policy, sim.SimConfig(n_slots=100_000, seed=9_500 + i))
                assert all(v == "stable" for v in r_in.verdicts_secondary), (name, i, r_in.verdicts_secondary)
                assert any(v == "unstable" for v in r_out.verdicts_secondary), (name, i, r_out.verdicts_secondary)


def test_criterion_8_saturated_rates():
    with criterion(8, "saturated throughputs match the analytic service rates within 0.01"):
        rates = ref_2x2_rates()
        saturated = ref_2x2_scenario(1.0, 1.0)
        point = orthogonal.envelope_point(rates, [0.4, 0.0], 1)
        _, sched = schedule.schedule_from_assignment(point.omega_star)
        result = sim.run(saturated, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=100_000, seed=8_001))
        throughput = result.secondary_throughput
        for k in range(2):
            analytic = model.secondary_service_rate(point.omega_star.omega, rates, k)
            assert abs(throughput[k] - analytic) <= 0.01
        for gamma in (
            randalloc.SelectionMatrix(np.array([[0.4, 1.0], [0.6, 0.0]])),
            randalloc.SelectionMatrix(np.array([[0.3, 0.5], [0.5, 0.5]])),
        ):
            result = sim.run(saturated, sim.Policy.random(gamma), sim.SimConfig(n_slots=100_000, seed=8_002))
            throughput = result.secondary_throughput
            for k in range(2):
                analytic = conditional_service_rate(gamma, {0, 1}, rates, k)
                assert abs(throughput[k] - analytic) <= 0.01


def test_criterion_9_convexity_and_determinism():
    with criterion(9, "midpoint feasibility on 500 instances; byte-identical reruns"):
        rng = np.random.default_rng(999)
        for _ in range(500):
            rates = random_rate_matrix(rng)
            pair = []
            for _ in range(2):
                lam1 = rng.uniform(0, max(rates.mu[0, 0], rates.mu[1, 0]))
                envelope = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
                pair.append((lam1, envelope.max_rate * rng.uniform(0, 1)))
            mid = tuple((a + b) / 2 for a, b in zip(*pair))
            check = orthogonal.envelope_point(rates, [mid[0], 0.0], 1)
            assert check.feasible and check.max_rate >= mid[1] - 1e-9
        scenario = ref_2x2_scenario(0.3, 0.4)
        point = orthogonal.envelope_point(ref_2x2_rates(), [0.3, 0.0], 1)
        _, sched = schedule.schedule_from_assignment(point.omega_star)
        config = sim.SimConfig(n_slots=50_000, seed=4_242)
        first = sim.run(scenario, sim.Policy.orthogonal(sched), config)
        second = sim.run(scenario, sim.Policy.orthogonal(sched), config)
        assert to_json(first) == to_json(second)
        lp_a = orthogonal.envelope_point(ref_2x2_rates(), [0.4, 0.0], 1)
        lp_b = orthogonal.envelope_point(ref_2x2_rates(), [0.4, 0.0], 1)
        assert lp_a.max_rate == lp_b.max_rate
        assert np.array_equal(lp_a.omega_star.omega, lp_b.omega_star.omega)


def five_by_four_rates():
    pi = np.array([0.45, 0.2, 0.6, 0.4, 0.6])
    pbar = np.array(
        [
            [0.6, 0.7, 0.6, 0.7],
            [0.8, 0.6, 0.8, 0.5],
            [0.7, 0.8, 0.7, 0.6],
            [0.85, 0.9, 0.5, 0.95],
            [0.9, 0.95, 0.95, 0.95],
        ]
    )
    return model.RateMatrix(mu=pi[:, None] * pbar, mu_p=np.ones(5), pi=pi)


def test_large_scenario_sweep_speed():
    with criterion("4x5", "five-band/four-user 100-point sweep under 10 s", budget_seconds=None):
        rates = five_by_four_rates()
        others = np.array([0.0, 0.0, 0.35, 0.35])
        grid = np.linspace(0.0, 0.6, 100)
        start = time.perf_counter()
        values = regions.envelope(rates, "S", 1, grid, others=others, sweep_user=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
        values = [v for v in values if v is not None]
        assert len(values) >= 50
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        # three-user variant whose optimal allocation probabilities feed downstream plots
        rates3 = model.RateMatrix(mu=rates.mu[:3, :3], mu_p=np.ones(3), pi=rates.pi[:3])
        start = time.perf_counter()
        grid3 = np.linspace(0.0, 0.5, 100)
        values3 = regions.envelope(rates3, "S", 1, grid3, others=np.array([0.0, 0.0, 0.35]), sweep_user=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        first = next(i for i, v in enumerate(values3) if v is not None)
        point3 = orthogonal.envelope_point(rates3, [grid3[first], 0.0, 0.35], 1)
        assert point3.max_rate == values3[first]
        _, sched3 = schedule.schedule_from_assignment(point3.omega_star)
        assert sum(w for _, w in sched3.entries) == pytest.approx(1.0, abs=1e-9)
