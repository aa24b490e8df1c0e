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

The S_hat sweeps of ``randalloc.shat_envelope`` must equal, section by
section, the one-bisection-per-point ``reference_shat_section_lambda2``
(``==``, None included), on both axes, at every depth of the midpoint trees
that one kernel call evaluates, and with the midpoint budget per call set to
one (a single bisection step per call) or far above its default.
"""

import numpy as np
import pytest

from bandalloc import randalloc

from oracles import (
    _scalar_dominant1_at,
    gamma_grid_oracle_dominant1,
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


def _oriented(mu, axis):
    """The 2x2 mu ``reference_shat_section_lambda2`` sees for ``shat_envelope(mu, axis, grid)``."""
    mu = np.asarray(mu, dtype=float)
    padded = mu if mu.shape[0] == 2 else np.vstack([mu, np.zeros((1, 2))])
    return padded[:, ::-1] if axis == 0 else padded


def _assert_sweep(mu, axis, grid, **dominants):
    want = [reference_shat_section_lambda2(_oriented(mu, axis), lam, **dominants) for lam in grid]
    got = randalloc.shat_envelope(mu, axis, grid)
    assert got == want, (mu.tolist(), axis, list(grid))
    return want


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
    # builds them, swept to just under the swept user's maximum; most of
    # these sections run the bisection.
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


def test_sweep_does_not_depend_on_the_kernel_block(ref_2x2_mu, monkeypatch):
    # _SECTIONS_PER_CALL only bounds the memory of one kernel call: with
    # blocks of 3 sections, the dominant-2 envelopes and the bisection
    # rounds of an 11-point sweep each span several blocks.
    monkeypatch.setattr(randalloc, "_SECTIONS_PER_CALL", 3)
    mu = ref_2x2_mu * np.array([[1.03, 0.97], [0.98, 1.02]])
    with np.errstate(all="raise"):
        _assert_sweep(mu, 1, np.linspace(0.0, 0.98 * float(mu[:, 0].max()), 11))


# Bracketing sections per sweep, and the levels of each section's midpoint
# tree in the sweep's first bisection call at the default budget of 32.
_TREE_LEVELS = {1: 5, 2: 4, 3: 3, 4: 3, 5: 2, 8: 2, 9: 2, 16: 1, 17: 1, 31: 1, 32: 1, 33: 1}


def _bracketing_grid(mu, count):
    """``count`` lambda_s1 that lambda_s2 = 0 carries and lambda_s2 = max(mu[:, 1]) does not: all bisect."""
    low = randalloc.dominant1_envelope_2x2(mu, float(mu[:, 1].max())).max_lambda or 0.0
    high = randalloc.dominant1_envelope_2x2(mu, 0.0).max_lambda
    return np.linspace(low, high, count + 2)[1:-1].tolist()


def test_sweep_matches_the_reference_at_every_tree_depth(ref_2x2_mu, kernel_calls, monkeypatch):
    mu = ref_2x2_mu * np.array([[1.03, 0.97], [0.98, 1.02]])
    default = randalloc._MIDPOINTS_PER_CALL
    with np.errstate(all="raise"):
        for count, levels in _TREE_LEVELS.items():
            grid = _bracketing_grid(mu, count)
            want = [reference_shat_section_lambda2(mu, lam) for lam in grid]
            assert None not in want
            for budget, tree in ((default, 2**levels - 1), (1, 1), (4096, None)):
                monkeypatch.setattr(randalloc, "_MIDPOINTS_PER_CALL", budget)
                kernel_calls.clear()
                assert randalloc.shat_envelope(mu, 1, grid) == want, (count, budget)
                # Call 0 is the envelope at lambda_s2 = 0 and at the top; call 1 the first bisection call.
                assert tree is None or kernel_calls[1] == count * tree, (count, budget)


def test_lone_section_stops_in_the_middle_of_a_tree(ref_2x2_mu, kernel_calls, monkeypatch):
    # With mu halved, the bracket [0, 0.39375] of lambda_s1 = 0.2 falls under
    # _SECTION_TOL after 19 halvings. A lone section's trees are 5 levels
    # deep, so it stops inside its fourth tree: 4 bisection calls, not 19.
    mu = ref_2x2_mu * 0.5
    lams = (0.0, 0.1, 0.2, 0.35, 0.5)
    with np.errstate(all="raise"):
        want = [reference_shat_section_lambda2(mu, lam) for lam in lams]
        assert want[-1] is None
        for budget, steps in ((1, 19), (randalloc._MIDPOINTS_PER_CALL, 4)):
            monkeypatch.setattr(randalloc, "_MIDPOINTS_PER_CALL", budget)
            kernel_calls.clear()
            assert randalloc.shat_section_lambda2(mu, 0.2) == want[2]
            # One call at lambda_s2 = 0 and the top, the bisection, one dominant-2 call.
            assert len(kernel_calls) == 1 + steps + 1, budget
            assert [randalloc.shat_section_lambda2(mu, lam) for lam in lams] == want, budget
