import math

import numpy as np
import pytest

from bandalloc import model
from bandalloc.model import ConfigurationError, SlotConfig

from conftest import ref_2x2_scenario


class TestOutageComplements:
    def test_virtual_band_never_succeeds(self):
        slot = SlotConfig(T=1.0, tau=0.0, b=100.0)
        assert model.secondary_outage_complement(slot, 0.0, 10.0, 1.0) == 0.0
        assert model.primary_outage_complement(slot, 0.0, 10.0, 1.0) == 0.0

    def test_secondary_direct_evaluations(self):
        slot = SlotConfig(T=1.0, tau=0.0, b=100.0)
        # b/(T W (1 - tau/T)) = 1, gamma*sigma2 = 1 -> exp(-1)
        assert model.secondary_outage_complement(slot, 100.0, 1.0, 1.0) == pytest.approx(
            0.36787944117144233, abs=1e-12
        )
        slot = SlotConfig(T=1.0, tau=0.1, b=100.0)
        assert model.secondary_outage_complement(slot, 100.0, 10.0, 1.0) == pytest.approx(
            0.8904645841603366, abs=1e-12
        )

    def test_primary_direct_evaluations(self):
        slot = SlotConfig(T=1.0, tau=0.0, b=100.0)
        assert model.primary_outage_complement(slot, 100.0, 10.0, 1.0) == pytest.approx(
            0.9048374180359595, abs=1e-12
        )
        assert model.primary_outage_complement(slot, 100.0, 1e9, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_sensing_free_secondary_equals_primary(self):
        slot = SlotConfig(T=2.0, tau=0.0, b=37.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            W, g, s2 = rng.uniform(1, 100), rng.uniform(0.1, 50), rng.uniform(0.1, 5)
            assert model.secondary_outage_complement(slot, W, g, s2) == pytest.approx(
                model.primary_outage_complement(slot, W, g, s2), abs=1e-15
            )

    def test_monotonicity(self):
        base = dict(W=50.0, gamma=5.0, sigma2=1.0)
        slot = SlotConfig(T=1.0, tau=0.2, b=60.0)
        ref = model.secondary_outage_complement(slot, **base)
        assert model.secondary_outage_complement(slot, 60.0, 5.0, 1.0) > ref  # W up
        assert model.secondary_outage_complement(slot, 50.0, 6.0, 1.0) > ref  # gamma up
        assert model.secondary_outage_complement(slot, 50.0, 5.0, 1.2) > ref  # sigma2 up
        slower = SlotConfig(T=1.0, tau=0.3, b=60.0)
        assert model.secondary_outage_complement(slower, **base) < ref  # tau up
        bigger = SlotConfig(T=1.0, tau=0.2, b=80.0)
        assert model.secondary_outage_complement(bigger, **base) < ref  # b up

    def test_probability_range(self):
        rng = np.random.default_rng(1)
        slot = SlotConfig(T=1.0, tau=0.1, b=10.0)
        for _ in range(200):
            p = model.secondary_outage_complement(
                slot, rng.uniform(0, 20), rng.uniform(0.01, 100), rng.uniform(0.01, 10)
            )
            assert 0.0 <= p <= 1.0

    def test_invalid_slot_config(self):
        with pytest.raises(ConfigurationError):
            SlotConfig(T=0.0)
        with pytest.raises(ConfigurationError):
            SlotConfig(T=1.0, tau=1.0)
        with pytest.raises(ConfigurationError):
            SlotConfig(b=-1.0)
        with pytest.raises(ConfigurationError):
            model.secondary_outage_complement(SlotConfig(), -1.0, 1.0, 1.0)


class TestBandAvailability:
    def test_empty_primary_queue(self):
        assert model.band_availability(0.0, 0.5) == 1.0
        assert model.band_availability(0.0, 0.0) == 1.0  # always-idle limit

    def test_saturated_queue(self):
        assert model.band_availability(0.5, 0.5) == 0.0
        assert model.band_availability(0.9, 0.5) == 0.0
        assert model.band_availability(0.1, 0.0) == 0.0

    def test_reference_scenario_values(self):
        # pi = 1 - lambda_p / Pbar_out_p per the comparison scenario
        assert model.band_availability(0.75, 1.0) == 0.25
        assert model.band_availability(0.125, 1.0) == 0.875

    def test_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            lam, mu = rng.uniform(0, 1), rng.uniform(0.01, 1)
            base = model.band_availability(lam, mu)
            assert model.band_availability(min(lam * 1.1 + 1e-3, 2.0), mu) <= base + 1e-12
            assert model.band_availability(lam, mu * 1.1) >= base - 1e-12


class TestRateMatrix:
    def test_reference_scenario_values(self):
        rm = model.rate_matrix(ref_2x2_scenario())
        assert rm.mu[0, 0] == 0.175
        assert rm.mu[0, 1] == 0.2125
        assert rm.mu[1, 0] == pytest.approx(0.875 * 0.8, abs=1e-15)
        assert rm.mu[1, 1] == pytest.approx(0.875 * 0.9, abs=1e-15)

    def test_virtual_band_row_is_zero(self):
        bands = (
            model.PrimaryBand(availability_pi=0.5, bandwidth_W=0.0),
            model.PrimaryBand(availability_pi=0.9),
        )
        users = (model.SecondaryUser(out_complement_row=(0.7, 0.6)),)
        sc = model.Scenario(slot=SlotConfig(), bands=bands, users=users)
        rm = model.rate_matrix(sc)
        assert np.all(rm.mu[0] == 0.0)
        assert rm.mu[1, 0] == pytest.approx(0.9 * 0.6, abs=1e-15)

    def test_physical_mode(self):
        slot = SlotConfig(T=1.0, tau=0.1, b=100.0)
        bands = (
            model.PrimaryBand(bandwidth_W=100.0, arrival_rate_lambda_p=0.2, gamma_p=10.0, sigma2_p=1.0),
        )
        users = (model.SecondaryUser(gamma_s=10.0, sigma2_s=1.0),)
        sc = model.Scenario(slot=slot, bands=bands, users=users)
        rm = model.rate_matrix(sc)
        mu_p = math.exp(-(2.0 ** 1.0 - 1.0) / 10.0)
        pbar = math.exp(-(2.0 ** (100.0 / 90.0) - 1.0) / 10.0)
        assert rm.mu_p[0] == pytest.approx(mu_p, abs=1e-15)
        assert rm.pi[0] == pytest.approx(1.0 - 0.2 / mu_p, abs=1e-15)
        assert rm.mu[0, 0] == pytest.approx(rm.pi[0] * pbar, abs=1e-15)

    def test_mixed_modes_rejected(self):
        bands = (model.PrimaryBand(availability_pi=0.5),)
        users = (model.SecondaryUser(gamma_s=1.0, sigma2_s=1.0),)
        with pytest.raises(ConfigurationError):
            model.Scenario(slot=SlotConfig(), bands=bands, users=users)

    def test_row_length_mismatch_rejected(self):
        bands = (model.PrimaryBand(availability_pi=0.5),)
        users = (model.SecondaryUser(out_complement_row=(0.7, 0.6)),)
        with pytest.raises(ConfigurationError):
            model.Scenario(slot=SlotConfig(), bands=bands, users=users)

    def test_abstract_band_rejects_lambda_p(self):
        with pytest.raises(ConfigurationError):
            model.PrimaryBand(availability_pi=0.5, arrival_rate_lambda_p=0.1)


class TestSecondaryServiceRate:
    def test_zero_column(self, ref_2x2_rates):
        assert model.secondary_service_rate(np.zeros((2, 2)), ref_2x2_rates, 0) == 0.0

    def test_deterministic_assignment(self, ref_2x2_rates):
        omega = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert model.secondary_service_rate(omega, ref_2x2_rates, 0) == pytest.approx(0.175, abs=1e-15)

    def test_even_split(self, ref_2x2_rates):
        omega = np.array([[0.5, 0.0], [0.5, 0.0]])
        assert model.secondary_service_rate(omega, ref_2x2_rates, 0) == pytest.approx(
            0.5 * 0.175 + 0.5 * 0.7, abs=1e-12
        )

    def test_dimension_mismatch(self, ref_2x2_rates):
        with pytest.raises(ConfigurationError):
            model.secondary_service_rate(np.zeros((3, 2)), ref_2x2_rates, 0)


class TestRateRows:
    def test_names_the_first_refused_rate_in_row_order(self):
        rows = [[0.1, 0.2, 0.3], [0.1, 0.2, -1.0], [-2.0, math.nan, 0.3]]
        with pytest.raises(ConfigurationError, match="^rate of user 3 must be >= 0, got -1.0$"):
            model.rate_rows(rows, 3)
        with pytest.raises(ConfigurationError, match="^rate of user 1 must be >= 0, got -2.0$"):
            model.rate_rows(rows, 3, skip=2)
        assert model.rate_rows(rows[:1], 3, skip=0).tolist() == [[0.0, 0.2, 0.3]]

    @pytest.mark.parametrize("rates", [[0.1, 0.2], [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]]])
    def test_refuses_a_wrong_shape(self, rates):
        with pytest.raises(ConfigurationError, match="one entry per user"):
            model.rate_rows(rates, 2)

    @pytest.mark.parametrize("skip", [-1, 2])
    def test_refuses_a_skipped_user_out_of_range(self, skip):
        with pytest.raises(ConfigurationError, match=f"^user index {skip} out of range$"):
            model.rate_rows([[0.1, 0.2]], 2, skip=skip)


class TestPermutationCount:
    def test_square(self):
        assert model.permutation_count(2, 2) == 2

    def test_rectangular(self):
        # max(M_p,M_s)! / |M_p-M_s|!
        assert model.permutation_count(5, 4) == 120
        assert model.permutation_count(1, 3) == 3
        assert model.permutation_count(3, 1) == 3
        assert model.permutation_count(6, 6) == 720

    def test_large_exact(self):
        assert model.permutation_count(30, 30) == math.factorial(30)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            model.permutation_count(0, 1)
