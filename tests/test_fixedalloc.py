import itertools

import numpy as np
import pytest

from bandalloc import fixedalloc, model, orthogonal, randalloc
from bandalloc.fixedalloc import FixedMapping
from bandalloc.model import ConfigurationError

from conftest import random_rate_matrix
from oracles import region_for_mapping


class TestFixedMapping:
    def test_distinct_bands_required(self):
        with pytest.raises(ConfigurationError):
            FixedMapping((1, 1))

    def test_one_based(self):
        with pytest.raises(ConfigurationError):
            FixedMapping((0, 1))


class TestRegionForMapping:
    def test_origin_inside(self, ref_2x2_rates):
        assert region_for_mapping(FixedMapping((2, 1)), ref_2x2_rates, [0.0, 0.0])

    def test_ref_2x2_d21_orthotope(self, ref_2x2_rates):
        d = FixedMapping((2, 1))
        assert region_for_mapping(d, ref_2x2_rates, [0.69, 0.21])
        assert not region_for_mapping(d, ref_2x2_rates, [0.71, 0.21])
        assert not region_for_mapping(d, ref_2x2_rates, [0.69, 0.22])

    def test_boundary_excluded(self, ref_2x2_rates):
        assert not region_for_mapping(FixedMapping((2, 1)), ref_2x2_rates, [0.7, 0.21])

    def test_shape_guard(self):
        rates = model.RateMatrix(mu=np.full((1, 2), 0.5), mu_p=np.ones(1), pi=np.array([0.5]))
        with pytest.raises(ConfigurationError):
            region_for_mapping(FixedMapping((1, 2)), rates, [0.1, 0.1])


class TestBestFixedMax:
    def test_ref_2x2_low_rate_prefers_d12(self, ref_2x2_rates):
        value, mapping = fixedalloc.best_fixed_max(ref_2x2_rates, [0.1, 0.0], 1)
        assert value == pytest.approx(0.7875, abs=1e-12)
        assert mapping.assignment == (1, 2)

    def test_ref_2x2_high_rate_forced_to_d21(self, ref_2x2_rates):
        value, mapping = fixedalloc.best_fixed_max(ref_2x2_rates, [0.4, 0.0], 1)
        assert value == pytest.approx(0.2125, abs=1e-12)
        assert mapping.assignment == (2, 1)

    def test_infeasible(self, ref_2x2_rates):
        assert fixedalloc.best_fixed_max(ref_2x2_rates, [0.75, 0.0], 1) is None

    def test_closure_boundary_kept(self, ref_2x2_rates):
        # lambda_s1 exactly mu11: mapping (1,2) is still usable in the closure
        value, mapping = fixedalloc.best_fixed_max(ref_2x2_rates, [0.175, 0.0], 1)
        assert value == pytest.approx(0.7875, abs=1e-12)
        assert mapping.assignment == (1, 2)

    def test_matches_orthotope_enumeration(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            m_s = int(rng.integers(2, 5))
            m_p = int(rng.integers(m_s, 6))
            rates = random_rate_matrix(rng, m_p=m_p, m_s=m_s)
            lam = rng.uniform(0, 0.4, m_s)
            best = fixedalloc.best_fixed_max(rates, lam, 0)
            # independent enumeration over all mapping orthotopes
            expected = None
            for assignment in itertools.permutations(range(1, m_p + 1), m_s):
                if all(lam[l] <= rates.mu[assignment[l] - 1, l] for l in range(1, m_s)):
                    v = rates.mu[assignment[0] - 1, 0]
                    expected = v if expected is None else max(expected, v)
            if expected is None:
                assert best is None
            else:
                assert best is not None
                assert best[0] == pytest.approx(expected, abs=1e-12)

    def test_pointwise_max_over_regions(self, ref_2x2_rates):
        value, mapping = fixedalloc.best_fixed_max(ref_2x2_rates, [0.4, 0.0], 1)
        lam = [0.4, value - 1e-6]
        assert region_for_mapping(mapping, ref_2x2_rates, lam)

    def test_size_refusal(self):
        rng = np.random.default_rng(41)
        rates = random_rate_matrix(rng, m_p=9, m_s=9)
        with pytest.raises(ConfigurationError):
            fixedalloc.best_fixed_max(rates, np.zeros(9), 0)


class TestContainment:
    def test_fixed_inside_orthogonal_and_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rates = random_rate_matrix(rng)
            lam1 = rng.uniform(0, max(rates.mu[0, 0], rates.mu[1, 0]))
            best = fixedalloc.best_fixed_max(rates, [lam1, 0.0], 1)
            if best is None:
                continue
            s_point = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
            assert s_point.feasible
            assert best[0] <= s_point.max_rate + 1e-9
            d2 = randalloc.dominant2_envelope_2x2(rates.mu, lam1)
            if d2.feasible:
                assert best[0] <= d2.max_lambda + 2e-3

    def test_fixed_region_point_inside_orthogonal(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            rates = random_rate_matrix(rng)
            d = FixedMapping((2, 1)) if rng.random() < 0.5 else FixedMapping((1, 2))
            lam = [rng.uniform(0, 1), rng.uniform(0, 1)]
            if region_for_mapping(d, rates, lam):
                pt = orthogonal.envelope_point(rates, [lam[0], 0.0], 1)
                assert pt.feasible
                assert pt.max_rate >= lam[1] - 1e-9
