"""The dominant-system envelopes against the scalar reference path in ``oracles``.

Every instance must give exactly the same ``feasible``, ``max_lambda`` and
``gamma_star`` (``==``, no tolerance), with every floating-point warning
raised as an error. Most instances use a coarse gamma21 grid so that 2000 of
them fit in a few seconds; the grid scan, the tie-break on the best grid point
and the 60 golden-section steps run the same way at every grid step.
"""

import numpy as np
import pytest

from bandalloc import randalloc

from oracles import scalar_dominant1_envelope_2x2, scalar_dominant2_envelope_2x2

# Coarse steps, including ones whose grid stops short of gamma21 = 1.
_STEPS = (0.1, 0.05, 0.04, 1 / 30, 0.03, 0.07, 0.3)


def _mu(rng, kind):
    mu = rng.uniform(0.0, 1.0, (2, 2))
    if kind == "rounded":
        return np.round(mu, 1)
    if kind == "zeros":
        return np.where(rng.random((2, 2)) < 0.4, 0.0, mu)
    if kind == "one_band":
        # M_p = 1 padded with a dead second band, as randalloc._padded_2x2 does.
        return np.vstack([np.round(mu[:1], int(rng.integers(1, 4))), np.zeros((1, 2))])
    return mu


def _lam(rng, cap, kind):
    if kind == "zero":
        return 0.0
    if kind == "max":
        return float(cap)
    if kind == "rounded":
        return float(np.round(rng.uniform(0.0, cap), 2))
    return float(rng.uniform(0.0, 1.05 * cap))


def _instances(seed, count):
    rng = np.random.default_rng(seed)
    mu_kinds = ("uniform", "rounded", "zeros", "one_band")
    lam_kinds = ("uniform", "zero", "max", "rounded")
    for i in range(count):
        mu = _mu(rng, mu_kinds[i % 4])
        lam_kind = lam_kinds[(i // 4) % 4]
        step = _STEPS[int(rng.integers(len(_STEPS)))]
        yield mu, lam_kind, step, rng


def _assert_same(got, want):
    assert got.feasible == want.feasible
    assert got.dominant == want.dominant
    assert got.max_lambda == want.max_lambda
    if want.gamma_star is None:
        assert got.gamma_star is None
    else:
        assert np.array_equal(got.gamma_star.gamma, want.gamma_star.gamma)


@pytest.mark.parametrize("dominant", ["first", "second"])
def test_matches_scalar_path_on_coarse_grids(dominant):
    # 1000 instances per dominant system, 2000 in all.
    new, old = (
        (randalloc.dominant1_envelope_2x2, scalar_dominant1_envelope_2x2)
        if dominant == "first"
        else (randalloc.dominant2_envelope_2x2, scalar_dominant2_envelope_2x2)
    )
    own = 1 if dominant == "first" else 0  # column of the user whose rate is fixed
    feasible = 0
    with np.errstate(all="raise"):
        for mu, lam_kind, step, rng in _instances(40 + own, 1000):
            lam = _lam(rng, mu[:, own].max(), lam_kind)
            want = old(mu, lam, step)
            _assert_same(new(mu, lam, step), want)
            feasible += want.feasible
    assert feasible > 800  # the cases exercise the refinement, not just the refusal


def test_matches_scalar_path_on_the_default_grid(ref_2x2_mu):
    # The coarse-grid cases cover the input kinds; these cover the 1001-point grid.
    with np.errstate(all="raise"):
        for lam in (0.0, 0.3, 0.17500000000000002, 0.9):
            _assert_same(randalloc.dominant1_envelope_2x2(ref_2x2_mu, lam),
                         scalar_dominant1_envelope_2x2(ref_2x2_mu, lam))
            _assert_same(randalloc.dominant2_envelope_2x2(ref_2x2_mu, lam),
                         scalar_dominant2_envelope_2x2(ref_2x2_mu, lam))
