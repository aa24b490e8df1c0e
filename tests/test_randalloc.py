import math
import tracemalloc

import numpy as np
import pytest

from bandalloc import model, orthogonal, randalloc, regions
from bandalloc.model import ConfigurationError
from bandalloc.randalloc import SelectionMatrix

from conftest import random_rate_matrix, shat_sweep
from oracles import (
    conditional_service_rate,
    gamma_grid_oracle_dominant1 as grid_oracle_dominant1,
    one_band_gamma_opt,
    one_band_region_check,
    region_2x2_check,
)


class TestConditionalServiceRate:
    def test_alone(self, ref_2x2_rates):
        gamma = np.array([[0.3, 0.0], [0.6, 0.0]])
        expected = 0.3 * 0.175 + 0.6 * 0.7
        got = conditional_service_rate(gamma, {0}, ref_2x2_rates, 0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_certain_collision(self):
        mu = np.array([[0.5, 0.5]])
        rates = model.RateMatrix(mu=mu, mu_p=np.ones(1), pi=np.array([0.5]))
        gamma = np.array([[1.0, 1.0]])
        assert conditional_service_rate(gamma, {0, 1}, rates, 0) == 0.0

    def test_hand_value(self, ref_2x2_rates):
        gamma = np.array([[0.4, 1.0], [0.6, 0.0]])
        got = conditional_service_rate(gamma, {0, 1}, ref_2x2_rates, 0)
        assert got == pytest.approx(0.42, abs=1e-12)

    def test_nonincreasing_in_competitors(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            m_p, m_s = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            rates = random_rate_matrix(rng, m_p=m_p, m_s=m_s)
            gamma = rng.dirichlet(np.ones(m_p + 1), size=m_s).T[:m_p]
            sets = [{0}]
            for v in range(1, m_s):
                sets.append(sets[-1] | {v})
            values = [conditional_service_rate(gamma, s, rates, 0) for s in sets]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestDominantEnvelopes:
    def test_no_competitor(self, ref_2x2_mu):
        point = randalloc.dominant1_envelope_2x2(ref_2x2_mu, 0.0)
        assert point.feasible
        assert point.max_lambda == pytest.approx(max(0.175, 0.7), abs=1e-9)

    def test_ref_2x2_inner_solution(self, ref_2x2_mu):
        point = randalloc.dominant1_envelope_2x2(ref_2x2_mu, 0.3)
        assert point.feasible
        # the outer sweep must do at least as well as the hand-solved gamma21 = 0.6
        assert point.max_lambda >= 0.098 - 1e-9
        oracle = grid_oracle_dominant1(ref_2x2_mu, 0.3)
        assert point.max_lambda == pytest.approx(oracle, abs=2e-3)

    def test_contained_in_orthogonal(self, ref_2x2_mu, ref_2x2_rates):
        for lam2 in (0.1, 0.3, 0.5, 0.7):
            point = randalloc.dominant1_envelope_2x2(ref_2x2_mu, lam2)
            if not point.feasible:
                continue
            s_point = orthogonal.envelope_point(ref_2x2_rates, [0.0, lam2], 0)
            assert point.max_lambda <= s_point.max_rate + 2e-3

    def test_infeasible_when_lambda2_too_large(self, ref_2x2_mu):
        point = randalloc.dominant1_envelope_2x2(ref_2x2_mu, 0.99)
        assert not point.feasible

    def test_dominant2_mirror_symmetry(self):
        mu = np.array([[0.4, 0.4], [0.6, 0.6]])  # identical users
        for lam in (0.0, 0.1, 0.25):
            d1 = randalloc.dominant1_envelope_2x2(mu, lam)
            d2 = randalloc.dominant2_envelope_2x2(mu, lam)
            assert d1.max_lambda == pytest.approx(d2.max_lambda, abs=1e-9)

    def test_dominant2_against_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            mu = rng.uniform(0.05, 1.0, (2, 2))
            lam1 = rng.uniform(0, max(mu[0, 0], mu[1, 0]))
            d2 = randalloc.dominant2_envelope_2x2(mu, lam1)
            oracle = grid_oracle_dominant1(mu[:, ::-1], lam1)
            assert d2.feasible == (oracle is not None)
            if d2.feasible:
                assert d2.max_lambda == pytest.approx(oracle, abs=2e-3)

    def test_gamma_star_columns_sum_to_one(self, ref_2x2_mu):
        point = randalloc.dominant1_envelope_2x2(ref_2x2_mu, 0.3)
        assert np.allclose(point.gamma_star.gamma.sum(axis=0), 1.0, atol=1e-12)


class TestRegionCheck:
    def test_origin_inside(self, ref_2x2_mu):
        assert region_2x2_check(ref_2x2_mu, (0.0, 0.0))

    def test_outside_orthogonal_region_is_outside(self, ref_2x2_mu, ref_2x2_rates):
        pt = orthogonal.envelope_point(ref_2x2_rates, [0.4, 0.0], 1)
        assert not region_2x2_check(ref_2x2_mu, (0.4, pt.max_rate + 0.01))

    def test_just_inside_dominant1_boundary(self, ref_2x2_mu):
        point = randalloc.dominant1_envelope_2x2(ref_2x2_mu, 0.3)
        assert region_2x2_check(ref_2x2_mu, (point.max_lambda - 1e-3, 0.3))


class TestOneBand:
    def test_gamma_opt_sole_user(self):
        sel = one_band_gamma_opt(0.175, 0.2125, 0.0)
        assert sel.gamma[0, 0] == 1.0

    def test_gamma_opt_example(self):
        sel = one_band_gamma_opt(0.175, 0.2125, 0.1)
        assert sel.gamma[0, 0] == pytest.approx(0.3140056594299646, abs=1e-9)
        assert sel.gamma[0, 1] == 1.0
        assert sel.gamma[1, 1] == 0.0

    def test_gamma_opt_saturating_competitor(self):
        sel = one_band_gamma_opt(0.175, 0.2125, 0.2125)
        assert sel.gamma[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_gamma_opt_infeasible(self):
        assert one_band_gamma_opt(0.175, 0.2125, 0.25) is None

    def test_region_boundary_value(self):
        lam1 = 0.175 * (1 - math.sqrt(0.1 / 0.2125)) ** 2
        assert one_band_region_check(0.175, 0.2125, (lam1 - 1e-6, 0.1))
        assert not one_band_region_check(0.175, 0.2125, (lam1 + 1e-6, 0.1))

    def test_symmetric_quarter_point(self):
        mu = 0.6
        assert not one_band_region_check(mu, mu, (mu / 4, mu / 4))
        assert one_band_region_check(mu, mu, (mu / 4 - 1e-6, mu / 4 - 1e-6))

    def test_single_coordinate_reduces_to_rate_check(self):
        assert one_band_region_check(0.5, 0.7, (0.49, 0.0))
        assert not one_band_region_check(0.5, 0.7, (0.51, 0.0))

    def test_construction_matches_sqrt_region(self):
        # the optimal-selection service rate traces the same boundary as the sqrt form
        for lam2 in np.linspace(0.005, 0.21, 30):
            sel = one_band_gamma_opt(0.175, 0.2125, lam2)
            g11 = sel.gamma[0, 0]
            mus2 = (1 - g11) * 0.2125  # competitor succeeds when user 1 is elsewhere
            lam1_env = 0.175 * g11 * (1 - lam2 / mus2)
            sqrt_boundary = 0.175 * (1 - math.sqrt(lam2 / 0.2125)) ** 2
            assert lam1_env == pytest.approx(sqrt_boundary, abs=1e-6)

    def test_dominant_symmetry(self):
        # building the region from either dominant system gives the same boundary
        rng = np.random.default_rng(32)
        for _ in range(100):
            mu11, mu12 = rng.uniform(0.05, 1.0, 2)
            lam2 = rng.uniform(0, mu12 * 0.999)
            first = one_band_gamma_opt(mu11, mu12, lam2)
            g11 = first.gamma[0, 0]
            lam1_b = mu11 * g11 * (1 - lam2 / ((1 - g11) * mu12)) if lam2 else mu11
            # mirrored construction: swap the user roles and trace back
            second = one_band_gamma_opt(mu12, mu11, lam1_b)
            if second is None:
                assert lam1_b > mu11 * (1 - 1e-9)
                continue
            g22 = second.gamma[0, 0]
            lam2_b = mu12 * g22 * (1 - lam1_b / ((1 - g22) * mu11)) if lam1_b else mu12
            assert lam2_b == pytest.approx(lam2, abs=1e-6)

    def test_non_convexity_witness(self):
        mu = 0.5
        # midpoint of the two axis extremes lies outside the region
        assert not one_band_region_check(mu, mu, (mu / 2, mu / 2))


class TestSelectionMatrix:
    def test_rejects_bad_columns(self):
        with pytest.raises(ConfigurationError):
            SelectionMatrix(np.array([[0.8], [0.5]]))
        with pytest.raises(ConfigurationError):
            SelectionMatrix(np.array([[-0.2], [0.5]]))

    def test_dimension_mismatch_in_service_rate(self, ref_2x2_rates):
        with pytest.raises(ConfigurationError):
            conditional_service_rate(np.ones((1, 1)), {0}, ref_2x2_rates, 0)


def test_sweep_memory_is_bounded_by_the_kernel_block(ref_2x2_rates, monkeypatch):
    # With blocks of 64 sections a 1000-point sweep peaks at about 0.5 MB,
    # mostly its per-section lists; one call over all 1000 sections at once
    # holds 30000-float candidate arrays and peaks at about 3.8 MB.
    monkeypatch.setattr(randalloc, "_SECTIONS_PER_CALL", 64)
    grid = np.linspace(0.0, 0.7, 1000).tolist()
    tracemalloc.start()
    try:
        sections = regions.envelope(ref_2x2_rates, "S_hat", 1, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sections) == 1000 and sections[0] is not None
    assert peak < 1_500_000


def test_sweep_kernel_calls(ref_2x2_mu, kernel_calls, monkeypatch):
    # bench_layers' jittered 6-point sweep: one call of the inverse kernel for
    # the dominant-1 sections and one of the forward kernel for dominant 2.
    mu = ref_2x2_mu * np.array([[1.03, 0.97], [0.98, 1.02]])
    top = 0.98 * float(mu[:, 0].max())
    shat_sweep(mu, 1, [i * (top / 5) for i in range(6)])
    assert kernel_calls == [6, 6]
    # Both kernels once per block of _SECTIONS_PER_CALL sections.
    monkeypatch.setattr(randalloc, "_SECTIONS_PER_CALL", 16)
    kernel_calls.clear()
    shat_sweep(mu, 1, np.linspace(0.2, 0.65, 40).tolist())
    assert kernel_calls == [16, 16, 16, 16, 8, 8]
