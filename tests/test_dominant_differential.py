"""The dominant-system envelopes against the scalar reference path in ``oracles``.

The scalar path scans a gamma21 grid and refines the best grid point by 60
golden-section steps. ``randalloc`` instead evaluates closed-form candidate
points, so the two agree to rounding, not bit for bit. At the scalar path's
default step of 1e-3, ``feasible`` must be equal and ``max_lambda`` within
_ULP_BOUND either way. On coarse grids the scalar path may miss the optimum,
so there the envelope must be feasible wherever the scalar path is, and never
more than _ULP_BOUND below it. Every envelope point's ``gamma_star`` must give
back its ``max_lambda`` bit for bit through the scalar per-gamma21 value, and
no envelope may fall more than 1e-15 below the brute-force (gamma21, gamma22)
grid oracle. Every floating-point warning is raised as an error.

The S_hat sweeps of ``regions.envelope`` solve the dominant-1
section in closed form. Section by section, on both axes, they must be None
exactly where the one-bisection-per-point ``reference_shat_section_lambda2``
is, at least its value - 1e-12 and at most its value + 1e-6 (it stops up to
1e-6 short), and equal to it (``==``) wherever the dominant-2 envelope gives
the section. The closed-form dominant-1 sections must lie within 1e-9 of a
bisection run to 1e-12 and never below the (gamma21, gamma22) grid oracle, and
a sweep must not depend on how its sections are split into kernel calls.
"""

import numpy as np
import pytest

from bandalloc import randalloc
from bandalloc.model import CLOSURE_TOL

from conftest import shat_sweep
from oracles import (
    _scalar_dominant1_at,
    gamma_grid_oracle_dominant1,
    gamma_grid_oracle_section,
    reference_shat_section_lambda2,
    scalar_dominant1_envelope_2x2,
    scalar_dominant2_envelope_2x2,
)

# Just over two ulp of 1.0, the largest envelope value; over 6000 seeded instances
# at the default step the largest gap measured was 2.2e-16.
_ULP_BOUND = 4.5e-16

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


def _paths(dominant):
    """(library envelope, scalar envelope, column of the user whose rate is fixed)."""
    if dominant == "first":
        return randalloc.dominant1_envelope_2x2, scalar_dominant1_envelope_2x2, 1
    return randalloc.dominant2_envelope_2x2, scalar_dominant2_envelope_2x2, 0


def _assert_reproduces(point, mu):
    """``gamma_star`` gives back ``max_lambda`` through the scalar per-gamma21 value."""
    assert point.feasible == (point.gamma_star is not None)
    if not point.feasible:
        return
    gamma = point.gamma_star.gamma
    if point.dominant == "second":
        mu, gamma = mu[:, ::-1], gamma[:, ::-1]
    g21, g22 = gamma[1]
    assert _scalar_dominant1_at(mu, point.fixed_lambda, g21) == (point.max_lambda, g22)


@pytest.mark.parametrize("dominant", ["first", "second"])
def test_matches_scalar_path_at_the_default_step(dominant, ref_2x2_mu):
    # 150 seeded instances per dominant system, then the reference scenario.
    new, old, own = _paths(dominant)
    cases = [(mu, _lam(rng, mu[:, own].max(), kind)) for mu, kind, _, rng in _instances(50 + own, 150)]
    cases += [(ref_2x2_mu, lam) for lam in (0.0, 0.3, 0.17500000000000002, 0.9)]
    feasible = 0
    with np.errstate(all="raise"):
        for mu, lam in cases:
            got, want = new(mu, lam), old(mu, lam)
            assert got.feasible == want.feasible, (mu.tolist(), lam)
            if want.feasible:
                assert abs(got.max_lambda - want.max_lambda) <= _ULP_BOUND, (mu.tolist(), lam)
                feasible += 1
            _assert_reproduces(got, mu)
    assert feasible > 120


@pytest.mark.parametrize("dominant", ["first", "second"])
def test_never_below_scalar_path_on_coarse_grids(dominant):
    # 1000 instances per dominant system, 2000 in all.
    new, old, own = _paths(dominant)
    feasible = 0
    with np.errstate(all="raise"):
        for mu, lam_kind, step, rng in _instances(40 + own, 1000):
            lam = _lam(rng, mu[:, own].max(), lam_kind)
            got, want = new(mu, lam), old(mu, lam, step)
            if want.feasible:
                assert got.feasible and got.max_lambda >= want.max_lambda - _ULP_BOUND, (mu.tolist(), lam, step)
                feasible += 1
            _assert_reproduces(got, mu)
    assert feasible > 800  # the cases exercise the refinement, not just the refusal


@pytest.mark.parametrize("dominant", ["first", "second"])
def test_never_below_the_grid_oracle(dominant):
    new, _, own = _paths(dominant)
    supported = 0
    with np.errstate(all="raise"):
        for mu, lam_kind, _, rng in _instances(80 + own, 40):
            lam = _lam(rng, mu[:, own].max(), lam_kind)
            oracle = gamma_grid_oracle_dominant1(mu if own else mu[:, ::-1], lam)
            if oracle is not None:
                got = new(mu, lam)
                assert got.feasible and got.max_lambda >= oracle - 1e-15, (mu.tolist(), lam)
                supported += 1
    assert supported > 30


# --- S_hat sweeps against the one-section-at-a-time bisection -------------------

# The bisection's stopping tolerance, by which it may fall short of the section.
_BISECTION_TOL = 1e-6


def _oriented(mu, axis):
    """The 2x2 mu ``reference_shat_section_lambda2`` sees for ``shat_sweep(mu, axis, grid)``."""
    mu = np.asarray(mu, dtype=float)
    padded = mu if mu.shape[0] == 2 else np.vstack([mu, np.zeros((1, 2))])
    return padded[:, ::-1] if axis == 0 else padded


def _assert_sweep(mu, axis, grid, **dominants):
    """The sweep against the bisection: None alike, -1e-12 to +_BISECTION_TOL, == where dominant 2 wins."""
    oriented = _oriented(mu, axis)
    dominant2 = dominants.get("dominant2", randalloc.dominant2_envelope_2x2)
    got = shat_sweep(mu, axis, grid)
    for lam, section in zip(grid, got):
        want = reference_shat_section_lambda2(oriented, lam, **dominants)
        case = (mu.tolist(), axis, lam, section, want)
        assert (section is None) == (want is None), case
        if want is not None:
            assert want - 1e-12 <= section <= want + _BISECTION_TOL, case
            d2 = dominant2(oriented, lam)
            assert section != d2.max_lambda or section == want, case
    return got


def _sweep_mu(rng, kind):
    if kind == "one_band":
        return np.round(rng.uniform(0.05, 1.0, (1, 2)), int(rng.integers(1, 4)))
    return _mu(rng, kind)


@pytest.mark.parametrize("kind", ["uniform", "rounded", "zeros", "one_band"])
@pytest.mark.parametrize("axis", [0, 1])
def test_sweep_matches_the_per_section_reference(kind, axis):
    # Each grid runs from 0 to 1.05 times the swept user's single-user maximum,
    # so it has a lambda = 0 point and, past the maximum, None points.
    rng = np.random.default_rng(60 + 2 * ["uniform", "rounded", "zeros", "one_band"].index(kind) + axis)
    sections = []
    with np.errstate(all="raise"):
        for _ in range(3):
            mu = _sweep_mu(rng, kind)
            top = float(_oriented(mu, axis)[:, 0].max())
            sections += _assert_sweep(mu, axis, np.linspace(0.0, 1.05 * top, 6))
    assert None in sections or kind == "zeros"
    assert any(v is not None for v in sections)


@pytest.mark.parametrize("axis", [0, 1])
def test_sweep_matches_the_per_section_reference_on_jittered_scenarios(ref_2x2_mu, axis):
    # Seeded jitters of the reference scenario, as the region-2x2 benchmark
    # builds them, swept to just under the swept user's maximum; the
    # dominant-2 envelope gives every one of these sections.
    rng = np.random.default_rng(70 + axis)
    with np.errstate(all="raise"):
        for scale in ([[1.03, 0.97], [0.98, 1.02]], *rng.uniform(0.9, 1.1, (2, 2, 2))):
            mu = ref_2x2_mu * np.asarray(scale)
            top = float(_oriented(mu, axis)[:, 0].max())
            _assert_sweep(mu, axis, np.linspace(0.0, 0.98 * top, 6))


@pytest.mark.parametrize("axis", [0, 1])
def test_sweep_matches_the_per_section_reference_on_the_reference_grid(ref_2x2_mu, axis):
    # 0:0.7:0.025 as the CLI builds it, 7 * 0.025 == 0.17500000000000002 included.
    grid = [i * 0.025 for i in range(29)]
    assert grid[7] == 0.17500000000000002
    with np.errstate(all="raise"):
        _assert_sweep(ref_2x2_mu, axis, grid)


def test_sweep_matches_the_scalar_path_on_the_region_2x2_grid(ref_2x2_mu):
    # The reference scenario's 0:0.175:0.025 grid, through the scalar
    # one-gamma21-at-a-time envelopes: 3 dominant-1 envelopes per section.
    grid = [i * 0.025 for i in range(8)]
    with np.errstate(all="raise"):
        sections = _assert_sweep(ref_2x2_mu, 1, grid, dominant1=scalar_dominant1_envelope_2x2,
                                 dominant2=scalar_dominant2_envelope_2x2)
    assert None not in sections


def test_sweep_does_not_depend_on_the_kernel_block(ref_2x2_mu, kernel_calls, monkeypatch):
    # _SECTIONS_PER_CALL only bounds the memory of one kernel call: with
    # blocks of 3 sections, an 11-point sweep takes four blocks of both
    # kernels and gives the sections of one block of 11.
    mu = ref_2x2_mu * np.array([[1.03, 0.97], [0.98, 1.02]])
    grid = np.linspace(0.0, 0.98 * float(mu[:, 0].max()), 11)
    with np.errstate(all="raise"):
        want = shat_sweep(mu, 1, grid)
        monkeypatch.setattr(randalloc, "_SECTIONS_PER_CALL", 3)
        kernel_calls.clear()
        assert shat_sweep(mu, 1, grid) == want
    assert kernel_calls == [3, 3, 3, 3, 3, 3, 2, 2]


def _never(mu, lam):
    """A dominant-2 envelope that carries nothing, so a union section is the dominant-1 one."""
    return randalloc.DominantEnvelopePoint(fixed_lambda=lam, dominant="second", feasible=False)


def _section_instances(seed, count):
    """(mu, lambda_s1) from the sweep generators: 7 rates per mu, up to 1.05 times the largest mu[:, 0]."""
    rng = np.random.default_rng(seed)
    kinds = ("uniform", "rounded", "zeros", "one_band")
    for i in range(count):
        mu = _oriented(_sweep_mu(rng, kinds[i % 4]), 1)
        top = float(mu[:, 0].max())
        for lam in [0.0, top, *rng.uniform(0.0, 1.05 * top, 5)]:
            yield mu, float(lam)


def test_sections_match_a_tight_bisection():
    # 40 mu, 280 sections; the largest gap measured was 8.5e-13.
    sections = 0
    with np.errstate(all="raise"):
        for mu, lam in _section_instances(90, 40):
            got = randalloc._dominant1_sections(mu, [lam - CLOSURE_TOL])[0]
            want = reference_shat_section_lambda2(mu, lam, dominant2=_never, tol=1e-12)
            assert (got is None) == (want is None), (mu.tolist(), lam)
            if want is not None:
                assert abs(got - want) <= 1e-9, (mu.tolist(), lam, got, want)
                sections += 1
    assert sections > 200


def test_sections_never_below_the_grid_oracle():
    # A 401 x 401 grid of (gamma21, gamma22), as criterion 3 scans the dominant envelopes.
    supported = 0
    with np.errstate(all="raise"):
        for mu, lam in _section_instances(91, 30):
            oracle = gamma_grid_oracle_section(mu, lam)
            if oracle is not None:
                got = randalloc._dominant1_sections(mu, [lam - CLOSURE_TOL])[0]
                assert got is not None and got >= oracle - 1e-15, (mu.tolist(), lam, got, oracle)
                supported += 1
    assert supported > 150
