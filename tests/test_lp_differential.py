"""``optim.solve_lp`` against the two-loop Bland simplex kept in ``oracles``.

Every instance must give exactly the same ``status``, ``value`` and ``x``
(``==``, no tolerance): seeded box LPs, the problem shapes of
``test_optim.py`` (phase-I equality-like rows included), the assignment LPs of
``orthogonal.envelope_point`` and ``orthogonal.max_slack_assignment`` on
random, rounded and symmetric scenarios, and the sweeps of both shipped
scenarios. Those assignment LPs must also solve exactly as they did with their
implied upper bounds (omega <= 1, t <= 2) as explicit rows. The one listed
exception is a point near the S boundary of a 5x4 scenario where the
reference pivots on an element of 1.1e-11 and ends "failed"; there the solver
must return an optimal point that passes the residual check, and the envelope
point and the CLI sweep through it succeed.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bandalloc import cli, model, optim, orthogonal
from bandalloc.model import ConfigurationError
from bandalloc.optim import LpProblem

from oracles import bound_rows_lp, reference_solve_lp

# five_by_four_jitter_28.json as the region-5x4 benchmark generates it for
# seed 7, with users 3 and 4 pinned and user 1 at the grid point where the
# reference fails while maximizing user 2.
JITTER_28 = {
    "mode": "abstract",
    "bands": [
        {"availability_pi": 0.45320052856291015},
        {"availability_pi": 0.20504489027283032},
        {"availability_pi": 0.6053570913211078},
        {"availability_pi": 0.41211113496749957},
        {"availability_pi": 0.6030282408274023},
    ],
    "users": [
        {"arrival_rate_lambda_s": 0.0, "out_complement_row": [
            0.5818886433882619, 0.8066181003387837, 0.6993655092977583, 0.8216045202595244,
            0.9107249266044432]},
        {"arrival_rate_lambda_s": 0.0, "out_complement_row": [
            0.7221872379704801, 0.5781052616086674, 0.8035956689310405, 0.9210318419513945,
            0.9407866716373405]},
        {"arrival_rate_lambda_s": 0.0, "out_complement_row": [
            0.5862027744727044, 0.7897824328536088, 0.7029188963185976, 0.5093330186606464,
            0.9556216460667979]},
        {"arrival_rate_lambda_s": 0.0, "out_complement_row": [
            0.6724917524494867, 0.5158943196622383, 0.6254315828533087, 0.9121228200319731,
            0.9262043488983722]},
    ],
}
JITTER_28_LAMBDA = (0.18837314767620422, 0.0, 0.28788880371071895, 0.3778786799648825)
JITTER_28_MAX_RATE = 0.5673209315913323


def jitter_28_rates() -> model.RateMatrix:
    return model.rate_matrix(cli.parse_scenario_dict(JITTER_28))


def _assert_same(problem):
    return _assert_equal(optim.solve_lp(problem), reference_solve_lp(problem))


def _assert_equal(got, want):
    assert got.status == want.status
    assert got.value == want.value
    if want.x is None:
        assert got.x is None
    else:
        assert got.x.dtype == want.x.dtype and np.array_equal(got.x, want.x)
        # signed zeros too: -0.0 == 0.0 would hide a changed pivot sequence
        assert np.array_equal(np.signbit(got.x), np.signbit(want.x))
    return got


def _box_lp(rng, kind):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 9))
    c = rng.uniform(-1.0, 1.0, n)
    A = rng.uniform(-1.0, 1.0, (m, n))
    b = rng.uniform(-0.5, 1.5, m)
    lo = np.where(rng.random(n) < 0.3, rng.uniform(-1.0, 0.0, n), 0.0)
    hi = lo + np.where(rng.random(n) < 0.15, math.inf, rng.uniform(0.1, 1.5, n))
    if kind == "rounded":  # ties in ratios and reduced costs, degenerate vertices
        c, A, b = np.round(c, 1), np.round(A, 1), np.round(b, 1)
    elif kind == "sparse":
        A = np.where(rng.random((m, n)) < 0.5, 0.0, A)
    elif kind == "equality" and m:  # a <= b and -a <= -b: phase I, redundant rows
        A = np.vstack([A, -A[:1]])
        b = np.append(b, -b[0])
    return bound_rows_lp(c, A, b, lo, hi)


@pytest.mark.parametrize("seed", [1, 2])
def test_box_lps(seed):
    rng = np.random.default_rng(seed)
    kinds = ("uniform", "rounded", "sparse", "equality")
    statuses = set()
    for i in range(400):
        statuses.add(_assert_same(_box_lp(rng, kinds[i % 4])).status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _lp(c, A, b, lo=None, hi=None):
    c = np.atleast_1d(np.asarray(c, float))
    lo = np.zeros(c.size) if lo is None else lo
    hi = np.ones(c.size) if hi is None else hi
    return bound_rows_lp(c, A, b, lo, hi)


def test_optim_test_shapes(ref_2x2_mu):
    mu = ref_2x2_mu
    problems = [
        _lp([1.0], [[1.0]], [0.5]),
        _lp([1.0], [[-1.0]], [-2.0]),
        LpProblem(c=np.ones(1), A=np.zeros((0, 1)), b=np.zeros(0), lo=np.zeros(1)),
        _lp([0.0, mu[0, 1], 0.0, mu[1, 1]],
            [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1], [-mu[0, 0], 0, -mu[1, 0], 0]],
            [1, 1, 1, 1, -0.4]),
        _lp([1.0, 2.0], [[1, 1], [-1, -1]], [1.0, -1.0]),
        _lp([1.0, 2.0, -1.0], [[1, 1, 0], [-1, -1, 0], [0, 1, 1], [0, -1, -1]], [1.0, -1.0, 1.5, -1.5]),
    ]
    rng = np.random.default_rng(3)
    problems += [_lp(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, (5, 4)), rng.uniform(0.1, 1.5, 5))
                 for _ in range(100)]
    rng = np.random.default_rng(4)
    problems += [_lp(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (3, 2)), rng.uniform(0.2, 1.0, 3))
                 for _ in range(3)]
    rng = np.random.default_rng(5)
    problems.append(_lp(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, (8, 6)), rng.uniform(0.1, 1.0, 8)))
    for problem in problems:
        _assert_same(problem)


def _recorded_lps(calls):
    """Every LpProblem the calls hand to ``optim.solve_lp``, in call order."""
    return [problem for problem, _ in _recorded_solves(calls)]


def _recorded_solves(calls):
    """(problem, solution) for every LP the calls hand to ``optim.solve_lp`` or ``optim.solve_lps``."""
    solves = []
    solve, solve_batch = optim.solve_lp, optim.solve_lps

    def record(problem):
        solves.append((problem, solve(problem)))
        return solves[-1][1]

    def record_batch(c, A, rhs, lo):
        solutions = solve_batch(c, A, rhs, lo)
        solves.extend((LpProblem(c=c, A=A, b=b, lo=lo), sol) for b, sol in zip(rhs, solutions))
        return solutions

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "solve_lp", record)
        mp.setattr(optim, "solve_lps", record_batch)
        for call in calls:
            try:
                call()
            except (RuntimeError, ConfigurationError):
                pass  # the recorded problem is compared below either way
    return solves


def _scenario_mu(rng, kind):
    m_p, m_s = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    mu = rng.uniform(0.05, 1.0, (m_p, m_s))
    if kind == "rounded":
        mu = np.round(mu, 1)
    elif kind == "zeros":
        mu = np.where(rng.random((m_p, m_s)) < 0.3, 0.0, np.round(mu, 2))
    elif kind == "symmetric_users":
        mu = np.repeat(mu[:, :1], m_s, axis=1)
    elif kind == "symmetric_bands":
        mu = np.repeat(mu[:1], m_p, axis=0)
    return model.RateMatrix(mu=mu, mu_p=np.ones(m_p), pi=mu.max(axis=1))


def _random_assignment_calls(rng, count, kinds):
    """``count`` envelope_point calls and ``count`` max_slack_assignment calls on random scenarios."""
    envelope, slack = [], []
    for i in range(count):
        rates = _scenario_mu(rng, kinds[i % len(kinds)])
        m_s = rates.m_s
        lam = rng.uniform(0.0, 0.6, m_s) * rates.mu.max(axis=0) * min(rates.m_p / m_s, 1.0)
        if i % 8 == 1:
            lam = np.round(lam, 2)
        k = int(rng.integers(m_s))
        envelope.append(lambda r=rates, l=lam, k=k: orthogonal.envelope_point(r, l, k))
        slack.append(lambda r=rates, l=lam: orthogonal.max_slack_assignment(r, l))
    return envelope, slack


def test_assignment_lps():
    kinds = ("uniform", "rounded", "symmetric_users", "symmetric_bands")
    envelope, slack = _random_assignment_calls(np.random.default_rng(11), 160, kinds)
    problems = _recorded_lps(envelope + slack)
    assert len(problems) == 320
    for problem in problems:
        _assert_same(problem)


def _shipped_rates(name):
    path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    return model.rate_matrix(cli.load_scenario(str(path))[0])


@pytest.mark.parametrize("name, axis, pinned, grid_stop", [
    ("reference_2x2", 1, None, 0.7),
    ("reference_2x2", 0, None, 0.8),
    ("five_by_four", 1, [0.0, 0.0, 0.15, 0.2], 0.55),
    ("five_by_four", 0, [0.0, 0.1, 0.25, 0.3], 0.5),
])
def test_shipped_scenario_sweeps(name, axis, pinned, grid_stop):
    rates = _shipped_rates(name)
    grid = np.linspace(0.0, grid_stop, 21)
    calls = [lambda: orthogonal.sweep_envelope(rates, axis, grid, others=pinned)]
    for lam1 in grid[::4]:
        lam = np.zeros(rates.m_s) if pinned is None else np.array(pinned, float)
        lam[axis] = 0.5 * grid_stop
        lam[1 - axis] = lam1
        calls.append(lambda lam=lam: orthogonal.max_slack_assignment(rates, lam))
    problems = _recorded_lps(calls)
    assert len(problems) == 27
    for problem in problems:
        _assert_same(problem)


def _shipped_sweep_calls():
    """Every axis of both shipped scenarios at 101 grid points, past the S boundary."""
    envelope, slack = [], []
    for name in ("reference_2x2", "five_by_four"):
        rates = _shipped_rates(name)
        for axis in range(rates.m_s):
            sweep_user = 1 if axis == 0 else 0
            grid = np.linspace(0.0, 1.05 * rates.mu[:, sweep_user].max(), 101)
            envelope.append(lambda r=rates, a=axis, g=grid: orthogonal.sweep_envelope(r, a, g))
            for lam in orthogonal.sweep_rates(rates.m_s, axis, grid):
                lam[axis] = 0.5 * lam[sweep_user]
                slack.append(lambda r=rates, l=lam: orthogonal.max_slack_assignment(r, l))
    return envelope, slack


@pytest.mark.parametrize("source", ["random", "shipped"])
def test_implied_bound_rows_change_nothing(source):
    # omega <= 1 follows from omega >= 0 and the row sums, and t <= 2 from any
    # service row with lambda >= 0 and mu <= 1; with those bounds added back as
    # rows after A, as solve_lp once folded them in, each solve must be unchanged
    if source == "random":
        kinds = ("uniform", "rounded", "zeros", "symmetric_users", "symmetric_bands")
        envelope, slack = _random_assignment_calls(np.random.default_rng(29), 1500, kinds)
        expected = 3000
    else:
        envelope, slack = _shipped_sweep_calls()
        expected = 2 * 6 * 101
    envelope, slack = _recorded_solves(envelope), _recorded_solves(slack)
    assert len(envelope) + len(slack) == expected
    for solves, t_bound in ((envelope, []), (slack, [2.0])):
        for p, sol in solves:
            hi = np.append(np.ones(p.c.size - len(t_bound)), t_bound)
            _assert_equal(sol, optim.solve_lp(bound_rows_lp(p.c, p.A, p.b, p.lo, hi)))


class TestSBoundaryPoint:
    """The envelope point that the reference solver reports as "failed"."""

    def test_listed_exception(self):
        (problem,) = _recorded_lps([lambda: orthogonal.envelope_point(jitter_28_rates(), JITTER_28_LAMBDA, 1)])
        assert reference_solve_lp(problem).status == "failed"
        sol = optim.solve_lp(problem)
        assert sol.status == "optimal"
        assert np.all(problem.A @ sol.x - problem.b <= 1e-9)
        assert np.all(sol.x >= problem.lo - 1e-9)

    def test_envelope_point(self):
        # scipy's HiGHS gives the same maximum
        point = orthogonal.envelope_point(jitter_28_rates(), JITTER_28_LAMBDA, 1)
        assert point.feasible
        assert point.max_rate == pytest.approx(JITTER_28_MAX_RATE, abs=1e-9)

    def test_cli_envelope_sweep(self, tmp_path, capsys):
        path = tmp_path / "five_by_four_jitter_28.json"
        path.write_text(json.dumps(JITTER_28))
        code = cli.main(["envelope", "--scenario", str(path), "--system", "S", "--axis", "2",
                         "--grid", "0:0.5382089933605835:0.026910449668029173",
                         "--fixed", "3=0.28788880371071895,4=0.3778786799648825"])
        assert code == 0, capsys.readouterr().err


# --- S sweeps, grid point by grid point ---------------------------------------
# ``orthogonal.sweep_envelope`` must solve, at every grid point, the LP that
# ``envelope_point`` solves there, to the reference's solution, and return the
# point ``envelope_point`` returns.

FIVE_BY_FOUR_PINS = (2, 3)  # users 3 and 4, as the region-5x4 benchmark pins them


def _assert_same_point(got, want):
    assert got.feasible == want.feasible
    assert got.max_rate == want.max_rate
    if want.omega_star is None:
        assert got.omega_star is None
    else:
        assert np.array_equal(got.omega_star.omega, want.omega_star.omega)
        assert np.array_equal(np.signbit(got.omega_star.omega), np.signbit(want.omega_star.omega))


def _check_sweep(rates, axis, grid, others=None, sweep_user=None):
    """Compare the sweep with ``envelope_point`` and the reference at every grid point.

    Returns the statuses of the reference and the number of points where it
    ended "failed" and the solver's optimum passed the residual check instead
    (the listed exception of ``TestSBoundaryPoint``).
    """
    rows = orthogonal.sweep_rates(rates.m_s, axis, grid, others, sweep_user)
    points = []
    solves = _recorded_solves([lambda: points.extend(
        orthogonal.sweep_envelope(rates, axis, grid, others=others, sweep_user=sweep_user))])
    alone = _recorded_solves([lambda lam=lam: orthogonal.envelope_point(rates, lam, axis) for lam in rows])
    assert len(points) == len(solves) == len(alone) == len(rows)
    statuses, exceptions = [], 0
    for lam, point, (problem, sol), (alone_problem, _) in zip(rows, points, solves, alone):
        for field in ("c", "A", "b", "lo"):
            assert np.array_equal(getattr(problem, field), getattr(alone_problem, field))
        want = reference_solve_lp(problem)
        statuses.append(want.status)
        if want.status == "failed":
            exceptions += 1
            assert sol.status == "optimal"
            assert np.all(problem.A @ sol.x - problem.b <= 1e-9)
            assert np.all(sol.x >= problem.lo - 1e-9)
        else:
            _assert_equal(sol, want)
        _assert_same_point(point, orthogonal.envelope_point(rates, lam, axis))
    return statuses, exceptions


def _jittered_five_by_four(rng):
    mu = np.minimum(_shipped_rates("five_by_four").mu * rng.uniform(0.95, 1.05, (5, 4)), 1.0)
    return model.RateMatrix(mu=mu, mu_p=np.ones(5), pi=mu.max(axis=1))


def _pinned(rates, share):
    """Rates with users 3 and 4 at ``share`` of their best bands, and user 1's largest rate under them."""
    others = np.zeros(rates.m_s)
    for user in FIVE_BY_FOUR_PINS:
        others[user] = share * rates.mu[:, user].max()
    top = orthogonal.envelope_point(rates, others, 0).max_rate
    return others, top


class TestSweepBatches:
    @pytest.mark.parametrize("name, axis, others, stop", [
        ("reference_2x2", 1, None, 0.7),
        ("reference_2x2", 0, None, 0.8),
        ("five_by_four", 1, [0.0, 0.0, 0.15, 0.2], 0.55),
        ("five_by_four", 0, [0.0, 0.1, 0.25, 0.3], 0.5),
    ])
    def test_shipped_scenarios(self, name, axis, others, stop):
        statuses, exceptions = _check_sweep(_shipped_rates(name), axis, np.linspace(0.0, stop, 21), others)
        assert exceptions == 0 and "optimal" in statuses

    def test_seeded_five_by_four_jitters(self):
        # users 3 and 4 pinned, user 2 maximized over user 1's rate from 0 to
        # past its largest, so every sweep holds unflipped, flipped and
        # infeasible points
        rng = np.random.default_rng(12)
        seen = set()
        for i in range(12):
            rates = _jittered_five_by_four(rng)
            others, top = _pinned(rates, 0.4 + 0.3 * i / 11)
            statuses, exceptions = _check_sweep(rates, 1, np.linspace(0.0, 1.1 * top, 21), others, 0)
            assert exceptions == 0
            assert statuses[0] == "optimal" and statuses[-1] == "infeasible"
            seen.update(statuses)
        assert seen == {"optimal", "infeasible"}

    @pytest.mark.parametrize("name", ["reference_2x2", "five_by_four"])
    def test_zero_pinned_rates(self, name):
        # others all zero: the grid's first point flips no row, every later one flips one
        rates = _shipped_rates(name)
        for axis in range(rates.m_s):
            sweep_user = 1 if axis == 0 else 0
            grid = np.linspace(0.0, 1.05 * rates.mu[:, sweep_user].max(), 15)
            statuses, exceptions = _check_sweep(rates, axis, grid)
            assert exceptions == 0 and statuses[0] == "optimal"

    def test_grid_without_zero(self):
        # every point flips the same rows: one flip pattern for the whole sweep
        rates = _shipped_rates("five_by_four")
        statuses, _ = _check_sweep(rates, 1, np.linspace(0.05, 0.6, 12), [0.0, 0.0, 0.15, 0.2])
        assert "optimal" in statuses

    def test_repeated_and_past_boundary_points(self):
        rates = _shipped_rates("reference_2x2")
        statuses, _ = _check_sweep(rates, 1, [0.0, 0.0, 0.3, 0.3, 0.7, 0.75, 0.75, 2.0])
        assert statuses == ["optimal"] * 5 + ["infeasible"] * 3

    def test_through_the_s_boundary_point(self):
        # the CLI grid of TestSBoundaryPoint: the reference fails at
        # JITTER_28_LAMBDA's point only, and the sweep still solves it
        grid = cli._parse_grid("0:0.5382089933605835:0.026910449668029173")
        assert JITTER_28_LAMBDA[0] in grid
        others = [0.0, 0.0, *JITTER_28_LAMBDA[2:]]
        statuses, exceptions = _check_sweep(jitter_28_rates(), 1, grid, others, 0)
        assert exceptions == 1
        assert statuses[grid.index(JITTER_28_LAMBDA[0])] == "failed"


def test_empty_sweep():
    assert orthogonal.sweep_envelope(_shipped_rates("five_by_four"), 0, []) == []


@pytest.mark.parametrize("name, others, setting, value, grid", [
    # the second point runs out of pivots, the last is infeasible
    ("reference_2x2", None, "_MAX_ITER", 4, [0.0, 0.1, 0.2, 0.3, 0.7, 0.8]),
    ("reference_2x2", None, "_MAX_ITER", 6, [0.0, 0.1, 0.2, 0.3, 0.7, 0.8]),
    ("five_by_four", [0.0, 0.0, 0.15, 0.2], "_MAX_ITER", 11, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
    # no row passes the pivot test: the unflipped first point ends
    # "unbounded" and the flipped ones fail in phase I
    ("reference_2x2", None, "_PIVOT_MIN", 10.0, [0.0, 0.1, 0.2]),
])
def test_sweep_errors_in_grid_order(monkeypatch, name, others, setting, value, grid):
    # on every prefix of the grid, an LP that ends "failed" or "unbounded"
    # raises at the first such point, as solving the points one at a time
    # does, and infeasible points before it are returned as infeasible
    monkeypatch.setattr(optim, setting, value)
    rates = _shipped_rates(name)
    raised = False
    for size in range(1, len(grid) + 1):
        expected = []
        try:
            for lam in orthogonal.sweep_rates(rates.m_s, 1, grid[:size], others):
                expected.append(orthogonal.envelope_point(rates, lam, 1))
        except RuntimeError as exc:
            raised = True
            with pytest.raises(RuntimeError, match=f"^{exc}$"):
                orthogonal.sweep_envelope(rates, 1, grid[:size], others)
            continue
        for got, want in zip(orthogonal.sweep_envelope(rates, 1, grid[:size], others), expected, strict=True):
            _assert_same_point(got, want)
    assert raised == (value != 6)


@pytest.mark.parametrize("grid", [[-0.1, 0.2], [0.0, 0.1, math.nan], [0.0, 0.8, math.nan]])
def test_sweep_refuses_bad_grid_values_in_grid_order(grid):
    rates = _shipped_rates("reference_2x2")
    with pytest.raises(ConfigurationError) as alone:
        for lam in orthogonal.sweep_rates(rates.m_s, 1, grid):
            orthogonal.envelope_point(rates, lam, 1)
    with pytest.raises(ConfigurationError, match=f"^{alone.value}$"):
        orthogonal.sweep_envelope(rates, 1, grid)


def test_sweep_does_not_depend_on_the_batch_size(monkeypatch):
    # _LPS_PER_CALL only bounds the memory of one stack of tableaux
    rates = _shipped_rates("five_by_four")
    grid = np.linspace(0.0, 0.6, 21)
    whole = orthogonal.sweep_envelope(rates, 1, grid, others=[0.0, 0.0, 0.15, 0.2])
    monkeypatch.setattr(optim, "_LPS_PER_CALL", 3)
    for got, want in zip(orthogonal.sweep_envelope(rates, 1, grid, others=[0.0, 0.0, 0.15, 0.2]), whole,
                         strict=True):
        _assert_same_point(got, want)


class TestSolveLps:
    """``optim.solve_lps`` on LPs that share c, A and lo, against the reference one LP at a time."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shared_box_lps(self, seed, monkeypatch):
        # each batch mixes flip patterns, and optimal, infeasible and
        # unbounded LPs; batches of 5 split most of them across calls
        monkeypatch.setattr(optim, "_LPS_PER_CALL", 5)
        rng = np.random.default_rng(seed)
        kinds = ("uniform", "rounded", "sparse", "equality")
        statuses = set()
        for i in range(60):
            shared = _box_lp(rng, kinds[i % 4])
            rhs = shared.b + rng.uniform(-0.6, 0.6, (12, shared.b.size))
            if kinds[i % 4] == "rounded":
                rhs = np.round(rhs, 1)
            rhs[rng.random(12) < 0.2] = shared.b  # repeated rows
            solutions = optim.solve_lps(shared.c, shared.A, rhs, shared.lo)
            assert len(solutions) == len(rhs)
            for b, sol in zip(rhs, solutions):
                problem = LpProblem(c=shared.c, A=shared.A, b=b, lo=shared.lo)
                statuses.add(_assert_equal(sol, reference_solve_lp(problem)).status)
                _assert_equal(sol, optim.solve_lp(problem))
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_no_rows_and_no_lps(self):
        lo = np.array([0.0, -0.5])
        assert optim.solve_lps(np.ones(2), np.zeros((1, 2)), np.zeros((0, 1)), lo) == []
        statuses = []
        for c in ([-1.0, -0.0], [-1.0, 1.0]):  # x = lo is optimal; x2 grows without bound
            (sol,) = optim.solve_lps(c, np.zeros((0, 2)), np.zeros((1, 0)), lo)
            statuses.append(_assert_equal(sol, reference_solve_lp(
                LpProblem(c=c, A=np.zeros((0, 2)), b=np.zeros(0), lo=lo))).status)
        assert statuses == ["optimal", "unbounded"]

    @pytest.mark.parametrize("rhs, message", [
        ([1.0, 2.0], "one row of b per LP"),
        ([[1.0, math.inf]], "b must be finite"),
        ([[1.0, 2.0, 3.0]], "disagree on the number of constraints"),
    ])
    def test_refuses_bad_rhs(self, rhs, message):
        with pytest.raises(ValueError, match=message):
            optim.solve_lps(np.ones(2), np.eye(2), rhs, np.zeros(2))
