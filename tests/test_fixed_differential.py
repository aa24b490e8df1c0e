"""Differential test: the chunked mapping-table scan and the step-function sweep in
``fixedalloc`` against the mapping-by-mapping search they replaced
(``oracles.reference_*``).

Values and chosen mappings must be equal (``==``, and a sweep's values equal in
``repr``), also when the chunk size is cut so far that chunk boundaries fall
inside groups of tied mappings.
"""

import itertools
import math

import numpy as np
import pytest

from bandalloc import fixedalloc, model, regions
from bandalloc.fixedalloc import FixedMapping
from bandalloc.model import CLOSURE_TOL, ConfigurationError

from oracles import reference_best_fixed_max, reference_best_margin_mapping, reference_mapping_max


@pytest.fixture(params=[None, 1, 64], ids=["default-chunk", "chunk-1", "chunk-64"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(fixedalloc, "_CHUNK_ELEMENTS", request.param)


def rate_matrix(mu) -> model.RateMatrix:
    return model.RateMatrix(mu=mu, mu_p=np.ones(mu.shape[0]), pi=np.ones(mu.shape[0]))


def instances(seed: int, count: int):
    """Random, rounded and heavily tied rate matrices, M_s = 1..4 and M_p = M_s..5."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m_s = int(rng.integers(1, 5))
        m_p = int(rng.integers(m_s, 6))
        mu = rng.uniform(0.0, 1.0, (m_p, m_s))
        if i % 3 == 1:
            mu = np.round(mu, 1)
        elif i % 3 == 2:
            mu = rng.choice([0.25, 0.5], (m_p, m_s))
        yield rng, rate_matrix(mu)


def edge_rates(rng, column: np.ndarray, size: int) -> np.ndarray:
    """Rates drawn from a mu column, its closure edge mu + CLOSURE_TOL and just past it,
    zero and uniform values."""
    edge = column + CLOSURE_TOL
    pool = np.concatenate([[0.0], column, edge, np.nextafter(edge, 2.0), rng.uniform(0, 1, 3)])
    return rng.choice(pool, size)


def test_best_fixed_max_and_margin_match_reference(chunk):
    for rng, rates in instances(1, 200):
        for _ in range(3):
            lam = np.array([edge_rates(rng, rates.mu[:, l], 1)[0] for l in range(rates.m_s)])
            k = int(rng.integers(rates.m_s))
            assert fixedalloc.best_fixed_max(rates, lam, k) == reference_best_fixed_max(rates, lam, k)
            assert fixedalloc.best_margin_mapping(rates, lam) == reference_best_margin_mapping(rates, lam)


def sweep_grids(rng, column: np.ndarray):
    """Sweep grids along a mu column: points drawn by ``edge_rates``, and a grid through
    every mu, its closure edge and the next float past it, each point twice."""
    edge = column + CLOSURE_TOL
    yield np.sort(edge_rates(rng, column, 8))
    yield np.sort(np.repeat(np.concatenate([[0.0], column, edge, np.nextafter(edge, 2.0)]), 2))


def assert_sweep_matches_reference(rates, axis, sweep_user, others, grid, mapping):
    """The fixed sweep against the reference search point by point, best mapping and
    ``mapping`` alone; repr tells the signs of zero apart."""
    expected, alone = [], []
    for value in grid:
        lam = others.copy()
        lam[sweep_user] = value
        best = reference_best_fixed_max(rates, lam, axis)
        expected.append(None if best is None else best[0])
        alone.append(reference_mapping_max(rates, mapping, lam, axis))
    got = regions.envelope(rates, "fixed", axis, grid, others=others, sweep_user=sweep_user)
    assert list(map(repr, got)) == list(map(repr, expected))
    one = fixedalloc.sweep_rows(rates, axis, *model.sweep_rates(rates.m_s, axis, grid, others, sweep_user),
                                FixedMapping(mapping))
    assert list(map(repr, one)) == list(map(repr, alone))


def test_sweep_matches_reference(chunk):
    for i, (rng, rates) in enumerate(instances(2, 200)):
        m_s = rates.m_s
        if m_s == 1:
            continue
        if i % 2:  # signed zeros: a tie of 0.0 and -0.0 goes to the first mapping too
            rates = rate_matrix(np.where((rates.mu == 0) & (rng.uniform(size=rates.mu.shape) < 0.5), -0.0, rates.mu))
        axis = int(rng.integers(m_s))
        sweep_user = int(rng.choice([u for u in range(m_s) if u != axis]))
        others = np.array([edge_rates(rng, rates.mu[:, l], 1)[0] for l in range(m_s)])
        mapping = next(itertools.islice(
            itertools.permutations(range(1, rates.m_p + 1), m_s), int(rng.integers(math.perm(rates.m_p, m_s))), None))
        for grid in sweep_grids(rng, rates.mu[:, sweep_user]):
            assert_sweep_matches_reference(rates, axis, sweep_user, others, grid, mapping)
    # one long sweep: 1,200 points across every threshold of a rounded 5x3 scenario
    rng = np.random.default_rng(3)
    rates = rate_matrix(np.round(rng.uniform(0.0, 1.0, (5, 3)), 1))
    edges = rates.mu[:, 1] + CLOSURE_TOL
    grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, 1000), rates.mu[:, 1], edges,
                                   np.nextafter(edges, 2.0), rng.uniform(0.0, 1.0, 185)]))
    assert_sweep_matches_reference(rates, 0, 1, np.array([0.0, 0.0, 0.3]), grid, (2, 4, 1))
    # every value a signed zero: the first mapping's sign wins, whichever it is
    for column in ([-0.0, 0.0, 0.0], [0.0, -0.0, -0.0]):
        rates = rate_matrix(np.column_stack([column, [0.5, 0.25, 0.5]]))
        assert_sweep_matches_reference(rates, 0, 1, np.zeros(2), np.array([0.0, 0.25, 0.5, 0.6]), (3, 2))


def test_infinite_rates_match_reference():
    rates = rate_matrix(np.array([[0.5, 0.5, 0.2], [0.5, 0.25, 0.5], [0.25, 0.5, 0.5]]))
    for lam in ([math.inf, 0.1, 0.0], [0.1, math.inf, math.inf], [0.0, 0.0, 0.0]):
        assert fixedalloc.best_margin_mapping(rates, lam) == reference_best_margin_mapping(rates, lam)
        for k in range(3):
            assert fixedalloc.best_fixed_max(rates, lam, k) == reference_best_fixed_max(rates, lam, k)


REFUSALS = {
    "negative-rate": ((4, 3), [-0.1, 0.2, 0.0]),
    "nan-rate": ((4, 3), [0.1, math.nan, 0.0]),
    "too-few-rates": ((4, 3), [0.1, 0.2]),
    "too-many-rates": ((4, 3), [0.1, 0.2, 0.3, 0.4]),
    "M_p<M_s": ((2, 3), [0.0, 0.0, 0.0]),
    "M_s>8": ((9, 9), [0.0] * 9),
    "over-1e6-mappings": ((12, 7), [0.0] * 7),
}


@pytest.mark.parametrize("shape, lam", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_match_reference(shape, lam):
    rates = rate_matrix(np.full(shape, 0.5))
    for new, old, args in ((fixedalloc.best_fixed_max, reference_best_fixed_max, (rates, lam, 2)),
                           (fixedalloc.best_margin_mapping, reference_best_margin_mapping, (rates, lam))):
        with pytest.raises(ConfigurationError) as expected:
            old(*args)
        with pytest.raises(ConfigurationError) as got:
            new(*args)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("shape", [(2, 3), (9, 9), (12, 7)], ids=["M_p<M_s", "M_s>8", "over-1e6-mappings"])
def test_sweep_refuses_shape_and_size(shape):
    with pytest.raises(ConfigurationError):
        regions.envelope(rate_matrix(np.full(shape, 0.5)), "fixed", 0, [0.0, 0.1])


@pytest.mark.parametrize("grid, others", [([-0.1, 0.2], None), ([0.1, math.nan], None), ([0.1], [0.0, 0.0, -1.0])])
def test_sweep_refuses_negative_and_nan_rates(grid, others):
    with pytest.raises(ConfigurationError):
        regions.envelope(rate_matrix(np.full((3, 3), 0.5)), "fixed", 0, grid, others=others, sweep_user=1)
