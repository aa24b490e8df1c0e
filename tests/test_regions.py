"""The containment rule of ``compare`` at its tolerances, on hand-made envelope columns, and its columns.

fixed may exceed S_hat, and S_hat may exceed S, by at most 2e-3; fixed may
exceed S by at most 1e-9. A feasible value next to None in a larger region is
a violation. ``compare``'s columns must equal, float for float, the public
sweeps of each system.
"""

import math

import numpy as np
import pytest

from bandalloc import fixedalloc, model, orthogonal, randalloc, regions
from bandalloc.model import ConfigurationError


def flags(s, s_hat, fixed) -> list[str]:
    (row,) = regions.containment_flags([s], [s_hat], [fixed])
    return row


def test_fixed_above_s_hat_by_the_grid_tolerance():
    edge = 0.5 + 2e-3
    assert flags(1.0, 0.5, edge) == []
    assert flags(1.0, 0.5, math.nextafter(edge, 1.0)) == ["fixed>S_hat"]


def test_s_hat_above_s_by_the_grid_tolerance():
    edge = 0.5 + 2e-3
    assert flags(0.5, edge, 0.0) == []
    assert flags(0.5, math.nextafter(edge, 1.0), 0.0) == ["S_hat>S"]


def test_fixed_above_s_by_the_analytic_tolerance():
    edge = 0.5 + 1e-9
    assert flags(0.5, 0.5, edge) == []
    assert flags(0.5, 0.5, math.nextafter(edge, 1.0)) == ["fixed>S"]


@pytest.mark.parametrize("s, s_hat, fixed, expected", [
    (0.5, None, 0.5, ["fixed>S_hat"]),
    (None, 0.5, None, ["S_hat>S"]),
    (None, 0.5, 0.5, ["S_hat>S", "fixed>S"]),
    (None, None, 0.0, ["fixed>S_hat", "fixed>S"]),
    (None, None, None, []),
    (0.5, 0.5, None, []),
], ids=["fixed-under-None", "S_hat-under-None", "both-under-None", "zero-under-None", "all-None", "fixed-None"])
def test_feasible_value_under_none(s, s_hat, fixed, expected):
    assert flags(s, s_hat, fixed) == expected


def test_flags_per_grid_point():
    assert regions.containment_flags([0.5, 0.5], [0.5, 0.6], [0.5, 0.5]) == [[], ["S_hat>S"]]


def test_compare_refuses_other_shapes():
    rates = model.RateMatrix(mu=np.full((3, 2), 0.5), mu_p=np.ones(3), pi=np.ones(3))
    with pytest.raises(ConfigurationError, match=r"^compare needs a 2x2 scenario \(2 bands, 2 users\)$"):
        regions.compare(rates, 1, [0.0, 0.1])


def test_compare_columns_match_the_public_sweeps():
    # compare checks the grid once and takes fixed_best from the two mapping
    # sweeps; each column must repeat, signed zeros included, the sweep it
    # stands for: the S and S_hat sweeps, each mapping's fixed sweep, and the
    # fixed sweep over all mappings for fixed_best
    rng = np.random.default_rng(26)
    for i in range(200):
        mu = rng.random((2, 2))
        if i % 2:
            mu[rng.random((2, 2)) < 0.4] = 0.0
        if i % 3 == 0:
            mu[rng.random((2, 2)) < 0.4] = -0.0
        if i % 5 == 0:
            mu = np.round(mu, 1)  # ties between mappings
        rates = model.RateMatrix(mu=mu, mu_p=np.ones(2), pi=np.ones(2))
        edges = mu.ravel().tolist()
        grid = sorted(edges + [v + 1e-12 for v in edges] + [math.nextafter(v, 1.0) for v in edges])
        axis = i % 2
        columns, violations = regions.compare(rates, axis, grid)
        expected = {
            "S": regions.envelope(rates, "S", axis, grid),
            "S_hat": regions.envelope(rates, "S_hat", axis, grid),
            "fixed_best": regions.envelope(rates, "fixed", axis, grid),
        } | {f"fixed_d{a}{b}": fixedalloc.sweep_rows(rates, axis, *model.sweep_rates(2, axis, grid),
                                                     fixedalloc.FixedMapping((a, b)))
             for a, b in ((1, 2), (2, 1))}
        assert list(columns) == ["S", "S_hat", "fixed_best", "fixed_d12", "fixed_d21"]
        for name, values in expected.items():
            assert repr(columns[name]) == repr(values), (name, mu.tolist(), axis)
        assert violations == regions.containment_flags(expected["S"], expected["S_hat"], expected["fixed_best"])
