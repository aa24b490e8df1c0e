"""Differential test: the chunked mapping-table scan in ``fixedalloc`` against the
mapping-by-mapping search it replaced (``oracles.reference_*``).

Values and chosen mappings must be equal (``==``), also when the chunk size is
cut so far that chunk boundaries fall inside groups of tied mappings.
"""

import itertools
import math

import numpy as np
import pytest

from bandalloc import fixedalloc, model
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


def test_sweep_matches_reference(chunk):
    for rng, rates in instances(2, 200):
        m_s = rates.m_s
        if m_s == 1:
            continue
        axis = int(rng.integers(m_s))
        sweep_user = int(rng.choice([u for u in range(m_s) if u != axis]))
        others = np.array([edge_rates(rng, rates.mu[:, l], 1)[0] for l in range(m_s)])
        grid = np.sort(edge_rates(rng, rates.mu[:, sweep_user], 8))
        expected = []
        for value in grid:
            lam = others.copy()
            lam[sweep_user] = value
            expected.append(reference_best_fixed_max(rates, lam, axis))
        got = fixedalloc.sweep_envelope(rates, axis, grid, others=others, sweep_user=sweep_user)
        assert got == [None if best is None else best[0] for best in expected]

        mapping = next(itertools.islice(
            itertools.permutations(range(1, rates.m_p + 1), m_s), int(rng.integers(math.perm(rates.m_p, m_s))), None))
        one = fixedalloc.sweep_envelope(rates, axis, grid, others=others, sweep_user=sweep_user,
                                        mapping=FixedMapping(mapping))
        for value, best in zip(grid, one, strict=True):
            lam = others.copy()
            lam[sweep_user] = value
            assert best == reference_mapping_max(rates, mapping, lam, axis)


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
        fixedalloc.sweep_envelope(rate_matrix(np.full(shape, 0.5)), 0, [0.0, 0.1])


@pytest.mark.parametrize("grid, others", [([-0.1, 0.2], None), ([0.1, math.nan], None), ([0.1], [0.0, 0.0, -1.0])])
def test_sweep_refuses_negative_and_nan_rates(grid, others):
    with pytest.raises(ConfigurationError):
        fixedalloc.sweep_envelope(rate_matrix(np.full((3, 3), 0.5)), 0, grid, others=others, sweep_user=1)
