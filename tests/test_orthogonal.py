import tracemalloc

import numpy as np
import pytest

from bandalloc import model, optim, orthogonal, regions
from bandalloc.model import ConfigurationError
from bandalloc.orthogonal import AssignmentMatrix

from conftest import random_rate_matrix
from oracles import (
    fully_symmetric_max,
    one_band_envelope,
    symmetric_band_region_check,
    symmetric_su_max,
)


class TestAssignmentMatrix:
    def test_valid(self):
        AssignmentMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_rejects_bad_sums(self):
        with pytest.raises(ConfigurationError):
            AssignmentMatrix(np.array([[0.8, 0.5], [0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            AssignmentMatrix(np.array([[-0.1, 0.0], [0.0, 0.0]]))


class TestEnvelopePoint:
    def test_ref_2x2_prop1_values(self, ref_2x2_rates):
        pt = orthogonal.envelope_point(ref_2x2_rates, [0.4, 0.0], 1)
        assert pt.feasible
        assert pt.max_rate == pytest.approx(0.541071, abs=1e-6)
        # the optimal swap probability shows up as omega[0, 1]
        assert pt.omega_star.omega[0, 1] == pytest.approx(0.428571, abs=1e-6)

    def test_ref_2x2_low_rate(self, ref_2x2_rates):
        pt = orthogonal.envelope_point(ref_2x2_rates, [0.1, 0.0], 1)
        assert pt.feasible
        assert pt.max_rate == pytest.approx(0.7875, abs=1e-9)

    def test_ref_2x2_infeasible(self, ref_2x2_rates):
        pt = orthogonal.envelope_point(ref_2x2_rates, [0.75, 0.0], 1)
        assert not pt.feasible
        assert pt.max_rate is None

    def test_omega_star_supports_fixed_users(self, ref_2x2_rates):
        pt = orthogonal.envelope_point(ref_2x2_rates, [0.4, 0.0], 1)
        service = model.secondary_service_rate(pt.omega_star.omega, ref_2x2_rates, 0)
        assert service >= 0.4 - 1e-9


class TestTwoByTwoClosedForm:
    def test_ref_2x2_values(self, ref_2x2_mu):
        eps, lam2 = orthogonal.two_by_two_closed_form(ref_2x2_mu, 0.4)
        assert eps == pytest.approx(0.428571, abs=1e-6)
        assert lam2 == pytest.approx(0.541071, abs=1e-6)

    def test_boundary_eps_one(self, ref_2x2_mu):
        eps, lam2 = orthogonal.two_by_two_closed_form(ref_2x2_mu, 0.7)
        assert eps == pytest.approx(1.0, abs=1e-12)
        assert lam2 == pytest.approx(0.2125, abs=1e-12)

    def test_feasibility_problem_case(self):
        mu = np.array([[0.4, 0.5], [0.3, 0.5]])
        eps, lam2 = orthogonal.two_by_two_closed_form(mu, 0.2)
        assert lam2 == pytest.approx(0.5, abs=1e-12)
        assert 0.0 <= eps <= 1.0

    def test_infeasible_branches(self):
        mu = np.array([[0.5, 0.4], [0.2, 0.6]])  # mu21 < mu11
        assert orthogonal.two_by_two_closed_form(mu, 0.55) is None
        mu = np.array([[0.2, 0.4], [0.5, 0.6]])  # mu21 > mu11
        assert orthogonal.two_by_two_closed_form(mu, 0.55) is None

    def test_matches_lp_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(200)            :
            rates = random_rate_matrix(rng)
            lam1 = rng.uniform(0, max(rates.mu[0, 0], rates.mu[1, 0]))
            closed = orthogonal.two_by_two_closed_form(rates.mu, lam1)
            pt = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
            assert closed is not None and pt.feasible
            assert closed[1] == pytest.approx(pt.max_rate, abs=1e-9)

    def test_boundary_equality_matches_lp(self):
        # mu21 < mu11 and lambda_s1 = mu11 exactly: a Prop-1 coverage gap; the LP
        # stays feasible with the swap probability forced to zero.
        mu = np.array([[0.5, 0.6], [0.2, 0.3]])
        closed = orthogonal.two_by_two_closed_form(mu, 0.5)
        rates = model.RateMatrix(mu=mu, mu_p=np.ones(2), pi=np.array([0.6, 0.3]))
        pt = orthogonal.envelope_point(rates, [0.5, 0.0], 1)
        assert pt.feasible and closed is not None
        assert closed[0] == 0.0
        assert closed[1] == pytest.approx(pt.max_rate, abs=1e-9)


class TestOneBandEnvelope:
    def test_example_values(self):
        pt = one_band_envelope([0.175, 0.2125], [0.0, 0.1], 0)
        assert pt.feasible
        assert pt.max_rate == pytest.approx(0.092647, abs=1e-6)

    def test_no_fixed_load(self):
        pt = one_band_envelope([0.175, 0.2125], [0.0, 0.0], 0)
        assert pt.max_rate == pytest.approx(0.175, abs=1e-12)

    def test_band_fully_consumed(self):
        pt = one_band_envelope([0.175, 0.2125], [0.0, 0.2125], 0)
        assert pt.feasible
        assert pt.max_rate == pytest.approx(0.0, abs=1e-12)

    def test_overload_infeasible(self):
        pt = one_band_envelope([0.175, 0.2125], [0.0, 0.3], 0)
        assert not pt.feasible

    def test_matches_lp_with_single_live_band(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m_s = rng.integers(2, 5)
            mu_row = rng.uniform(0.1, 1.0, m_s)
            mu = np.vstack([mu_row, np.zeros((2, m_s))])
            rates = model.RateMatrix(mu=mu, mu_p=np.ones(3), pi=np.array([1.0, 0.0, 0.0]))
            lam = np.zeros(m_s)
            load = rng.uniform(0, 0.95)
            for l in range(1, m_s):
                lam[l] = mu_row[l] * load / (m_s - 1)
            closed = one_band_envelope(mu_row, lam, 0)
            pt = orthogonal.envelope_point(rates, lam, 0)
            assert closed.feasible and pt.feasible
            assert closed.max_rate == pytest.approx(pt.max_rate, abs=1e-9)


class TestSymmetricCases:
    def test_symmetric_su_example(self):
        lam_max, theta = symmetric_su_max([0.6, 0.5, 0.2], 2)
        assert lam_max == pytest.approx(0.55, abs=1e-12)
        assert theta == (0.5, 0.5, 0.0)

    def test_single_user_takes_best_band(self):
        lam_max, theta = symmetric_su_max([0.3, 0.8, 0.5], 1)
        assert lam_max == pytest.approx(0.8, abs=1e-12)
        assert theta == (0.0, 1.0, 0.0)

    def test_more_users_than_bands(self):
        lam_max, _ = symmetric_su_max([0.5, 0.5], 4)
        assert lam_max == pytest.approx(0.25, abs=1e-12)
        assert lam_max == pytest.approx(fully_symmetric_max(2, 4, 0.5), abs=1e-12)

    def test_symmetric_su_matches_lp(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m_p = int(rng.integers(1, 5))
            m_s = int(rng.integers(1, 5))
            g = rng.uniform(0.1, 1.0, m_p)
            mu = np.tile(g[:, None], (1, m_s))
            rates = model.RateMatrix(mu=mu, mu_p=np.ones(m_p), pi=g)
            lam_max, _ = symmetric_su_max(g, m_s)
            # all users but the maximized one pinned just inside the symmetric optimum
            lam = np.full(m_s, lam_max * (1 - 1e-9))
            pt = orthogonal.envelope_point(rates, lam, 0)
            assert pt.feasible
            assert pt.max_rate == pytest.approx(lam_max, abs=1e-6)
            if m_s == 1:
                assert pt.max_rate == pytest.approx(lam_max, abs=1e-12)

    def test_symmetric_band_orthotope(self):
        assert symmetric_band_region_check([0.4, 0.5], 3, [0.39, 0.49])
        assert not symmetric_band_region_check([0.4, 0.5], 3, [0.4, 0.49])

    def test_symmetric_band_shared(self):
        assert not symmetric_band_region_check([0.4, 0.5], 1, [0.2, 0.3])
        assert symmetric_band_region_check([0.4, 0.5], 1, [0.1, 0.1])

    def test_symmetric_band_matches_lp(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m_p = int(rng.integers(1, 4))
            m_s = int(rng.integers(2, 5))
            beta = rng.uniform(0.2, 1.0, m_s)
            mu = np.tile(beta[None, :], (m_p, 1))
            rates = model.RateMatrix(mu=mu, mu_p=np.ones(m_p), pi=np.full(m_p, beta.max()))
            lam = rng.uniform(0, 1.2, m_s) * beta
            inside = symmetric_band_region_check(beta, m_p, lam)
            pt = orthogonal.envelope_point(rates, lam, 0)
            lp_inside = pt.feasible and (pt.max_rate > lam[0] + 1e-9)
            if inside:
                assert lp_inside
            if not inside:
                # allow the knife edge: membership is strict, the LP is a closure
                on_boundary = (
                    np.any(np.abs(lam - beta) <= 2e-9)
                    or abs(float(np.sum(lam / beta)) - m_p) <= 2e-9
                )
                assert (not lp_inside) or on_boundary

    def test_fully_symmetric(self):
        assert fully_symmetric_max(2, 4, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert fully_symmetric_max(5, 3, 0.7) == pytest.approx(0.7, abs=1e-15)
        assert fully_symmetric_max(3, 5, 0.0) == 0.0


class TestSweep:
    def test_singleton(self, ref_2x2_rates):
        values = regions.envelope(ref_2x2_rates, "S", 1, [0.4])
        assert values == [orthogonal.envelope_point(ref_2x2_rates, [0.4, 0.0], 1).max_rate]
        assert values[0] == pytest.approx(0.541071, abs=1e-6)

    def test_ref_2x2_three_points(self, ref_2x2_rates):
        values = regions.envelope(ref_2x2_rates, "S", 1, [0.1, 0.4, 0.7])
        assert values == pytest.approx([0.7875, 0.5410714285714285, 0.2125], abs=1e-9)

    def test_monotone_nonincreasing(self, ref_2x2_rates):
        grid = np.linspace(0, 0.7, 15)
        values = [v for v in regions.envelope(ref_2x2_rates, "S", 1, grid) if v is not None]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_rejects_descending_grid(self, ref_2x2_rates):
        with pytest.raises(ConfigurationError):
            regions.envelope(ref_2x2_rates, "S", 1, [0.4, 0.1])

    def test_infeasible_points_marked(self, ref_2x2_rates):
        values = regions.envelope(ref_2x2_rates, "S", 1, [0.6, 0.8])
        assert values == [orthogonal.envelope_point(ref_2x2_rates, [0.6, 0.0], 1).max_rate, None]

    def test_memory_is_bounded_by_the_stack(self, ref_2x2_rates, monkeypatch):
        # Certifying 64 walked points at a time, a 2000-point sweep peaks about
        # 0.1 MB above the values it returns. Holding every LpSolution until the
        # last point was built added about 290 bytes a point: the sweep peaked
        # 0.58 MB above.
        monkeypatch.setattr(optim, "_LPS_PER_CALL", 64)
        grid = np.linspace(0.0, 0.7, 2000).tolist()
        tracemalloc.start()
        try:
            values = regions.envelope(ref_2x2_rates, "S", 1, grid)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(values) == 2000 and values[0] is not None
        assert peak - kept < 400_000


class TestPermutationSpaceEquivalence:
    def _q_space_value(self, mu, lam, k):
        """Envelope via the permutation-distribution formulation (variables q per pattern)."""
        import itertools

        from bandalloc import optim

        m_p, m_s = mu.shape
        if m_p >= m_s:
            patterns = list(itertools.permutations(range(1, m_p + 1), m_s))
        else:
            patterns = [
                p for p in itertools.product(range(0, m_p + 1), repeat=m_s)
                if len([m for m in p if m]) == len(set(m for m in p if m))
                and sum(1 for m in p if m) == m_p
            ]
        n = len(patterns)
        service = np.zeros((m_s, n))
        for i, pattern in enumerate(patterns):
            for user, band in enumerate(pattern):
                if band:
                    service[user, i] = mu[band - 1, user]
        rows = [np.ones(n), -np.ones(n)]
        rhs = [1.0, -1.0]
        for l in range(m_s):
            if l == k:
                continue
            rows.append(-service[l])
            rhs.append(-float(lam[l]))
        problem = optim.LpProblem(c=service[k], A=np.array(rows), b=np.array(rhs), lo=np.zeros(n))
        sol = optim.solve_lp(problem)
        return sol.value if sol.is_optimal else None

    def test_matches_assignment_fraction_lp(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            m_p = int(rng.integers(1, 4))
            m_s = int(rng.integers(1, 4))
            rates = random_rate_matrix(rng, m_p=m_p, m_s=m_s)
            lam = rng.uniform(0, 0.3, m_s)
            point = orthogonal.envelope_point(rates, lam, 0)
            q_value = self._q_space_value(rates.mu, lam, 0)
            if point.feasible:
                assert q_value is not None
                assert q_value == pytest.approx(point.max_rate, abs=1e-9)
            else:
                assert q_value is None

    def test_pattern_count_matches_cardinality(self):
        import itertools

        for m_p, m_s in ((1, 1), (2, 2), (3, 2), (2, 3), (1, 3), (3, 3)):
            if m_p >= m_s:
                patterns = list(itertools.permutations(range(1, m_p + 1), m_s))
            else:
                patterns = [
                    p for p in itertools.product(range(0, m_p + 1), repeat=m_s)
                    if len([m for m in p if m]) == len(set(m for m in p if m))
                    and sum(1 for m in p if m) == m_p
                ]
            assert len(patterns) == model.permutation_count(m_p, m_s)


class TestDegenerateRates:
    def test_closed_form_matches_lp_on_tied_and_zero_rates(self):
        rng = np.random.default_rng(18)
        choices = np.array([0.0, 0.2, 0.2, 0.5, 0.5, 1.0])
        for _ in range(300):
            mu = rng.choice(choices, size=(2, 2))
            rates = model.RateMatrix(mu=mu, mu_p=np.ones(2), pi=np.maximum(mu.max(axis=1), 1e-9))
            cap = max(mu[0, 0], mu[1, 0])
            lam1 = float(rng.choice([0.0, cap / 2, cap, cap * 1.01]))
            closed = orthogonal.two_by_two_closed_form(mu, lam1)
            point = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
            assert (closed is not None) == point.feasible
            if closed is not None:
                assert closed[1] == pytest.approx(point.max_rate, abs=1e-9)


class TestOptimumStructure:
    def test_square_optimum_completes_to_equality_without_loss(self):
        # constraints are imposed as <=; the row/column equality the square case
        # admits is verified at optima by completing the slack: the completed
        # matrix is doubly stochastic, still supports the fixed user, and leaves
        # the optimal value untouched.
        from bandalloc import schedule

        rng = np.random.default_rng(16)
        for _ in range(50):
            rates = random_rate_matrix(rng, low=0.2)
            lam1 = rng.uniform(0.5, 1.0) * max(rates.mu[0, 0], rates.mu[1, 0])
            pt = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
            assert pt.feasible
            padded = schedule.pad_to_doubly_stochastic(pt.omega_star)
            full = padded.m  # square case: the real block itself
            assert np.allclose(full.sum(axis=0), 1.0, atol=1e-9)
            assert np.allclose(full.sum(axis=1), 1.0, atol=1e-9)
            assert model.secondary_service_rate(full, rates, 0) >= lam1 - 1e-9
            assert model.secondary_service_rate(full, rates, 1) == pytest.approx(
                pt.max_rate, abs=1e-9
            )


class TestRegionGeometry:
    def test_convexity_midpoints(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            rates = random_rate_matrix(rng)
            lam1a = rng.uniform(0, max(rates.mu[0, 0], rates.mu[1, 0]))
            lam1b = rng.uniform(0, max(rates.mu[0, 0], rates.mu[1, 0]))
            pa = orthogonal.envelope_point(rates, [lam1a, 0.0], 1)
            pb = orthogonal.envelope_point(rates, [lam1b, 0.0], 1)
            mid1 = (lam1a + lam1b) / 2
            mid2 = (pa.max_rate + pb.max_rate) / 2
            pm = orthogonal.envelope_point(rates, [mid1, 0.0], 1)
            assert pm.feasible
            assert pm.max_rate >= mid2 - 1e-9

    def test_envelope_monotone_in_fixed_rates(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            rates = random_rate_matrix(rng, m_p=3, m_s=3)
            lam = rng.uniform(0, 0.2, 3)
            base = orthogonal.envelope_point(rates, lam, 2)
            bumped = lam.copy()
            bumped[0] += 0.05
            higher = orthogonal.envelope_point(rates, bumped, 2)
            if base.feasible and higher.feasible:
                assert higher.max_rate <= base.max_rate + 1e-9
