"""``optim.solve_lp`` against the two-loop simplex kept in ``oracles``.

Every instance must give exactly the same ``status``, ``value`` and ``x``
as ``reference_solve_lp``, which enters by the solver's rule (``==``, no
tolerance): seeded box LPs, the problem shapes of ``test_optim.py``
(phase-I equality-like rows included), the assignment LPs of
``orthogonal.envelope_point`` and ``orthogonal.max_slack_assignment`` on
random, rounded and symmetric scenarios, and the sweeps of both shipped
scenarios. Those assignment LPs must also solve exactly as they did with their
implied upper bounds (omega <= 1, t <= 2) as explicit rows. Against
``bland_solve_lp``, Bland's rule, which the solver used before, the same LPs
must reach the same status and optimal value to rounding. The one listed
exception is a point near the S boundary of a 5x4 scenario where Bland's rule
pivots on an element of 1.1e-11 and ends "failed"; there the solver must
return an optimal point that passes the residual check, and the envelope
point and the CLI sweep through it succeed. Beale's example, on which
Dantzig's rule alone cycles, must solve.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bandalloc import cli, model, optim, orthogonal
from bandalloc.model import ConfigurationError
from bandalloc.optim import LpProblem

import oracles
from conftest import ref_2x2_scenario
from oracles import bland_solve_lp, bound_rows_lp, dantzig_solve_lp, reference_solve_lp

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


def _box_lps(seed):
    rng = np.random.default_rng(seed)
    kinds = ("uniform", "rounded", "sparse", "equality")
    return [_box_lp(rng, kinds[i % 4]) for i in range(400)]


@pytest.mark.parametrize("seed", [1, 2])
def test_box_lps(seed):
    statuses = {_assert_same(problem).status for problem in _box_lps(seed)}
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _lp(c, A, b, lo=None, hi=None):
    c = np.atleast_1d(np.asarray(c, float))
    lo = np.zeros(c.size) if lo is None else lo
    hi = np.ones(c.size) if hi is None else hi
    return bound_rows_lp(c, A, b, lo, hi)


def _optim_test_shapes():
    mu = model.rate_matrix(ref_2x2_scenario()).mu
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
    return problems


def test_optim_test_shapes():
    for problem in _optim_test_shapes():
        _assert_same(problem)


def _recorded_lps(calls):
    """Every LpProblem the calls solve, in call order."""
    return [problem for problem, _ in _recorded_solves(calls)]


def _recorded_solves(calls):
    """(problem, solution) for every LP the calls solve, recorded at ``optim._solve``, which solves each LP."""
    solves = []
    solve = optim._solve

    def record(c, A, lo, b):
        result = solve(c, A, lo, b)
        solves.append((LpProblem(c=c, A=A, b=b.copy(), lo=lo), result[0]))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_solve", record)
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


def _assignment_lps():
    kinds = ("uniform", "rounded", "symmetric_users", "symmetric_bands")
    envelope, slack = _random_assignment_calls(np.random.default_rng(11), 160, kinds)
    return _recorded_lps(envelope + slack)


def test_assignment_lps():
    problems = _assignment_lps()
    assert len(problems) == 320
    for problem in problems:
        _assert_same(problem)


def _shipped_rates(name):
    path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    return model.rate_matrix(cli.load_scenario(str(path))[0])


# (scenario, axis, pinned rates of the other users, last grid point)
SHIPPED_SWEEPS = [
    ("reference_2x2", 1, None, 0.7),
    ("reference_2x2", 0, None, 0.8),
    ("five_by_four", 1, [0.0, 0.0, 0.15, 0.2], 0.55),
    ("five_by_four", 0, [0.0, 0.1, 0.25, 0.3], 0.5),
]


def _shipped_sweep_lps(name, axis, pinned, grid_stop):
    """The LPs of a 21-point S sweep (``envelope_point``'s at each point) and of max_slack_assignment at every fourth."""
    rates = _shipped_rates(name)
    grid = np.linspace(0.0, grid_stop, 21)
    calls = [lambda lam=lam: orthogonal.envelope_point(rates, lam, axis)
             for lam in model.sweep_rates(rates.m_s, axis, grid, pinned)[0]]
    for lam1 in grid[::4]:
        lam = np.zeros(rates.m_s) if pinned is None else np.array(pinned, float)
        lam[axis] = 0.5 * grid_stop
        lam[1 - axis] = lam1
        calls.append(lambda lam=lam: orthogonal.max_slack_assignment(rates, lam))
    return _recorded_lps(calls)


@pytest.mark.parametrize("name, axis, pinned, grid_stop", SHIPPED_SWEEPS)
def test_shipped_scenario_sweeps(name, axis, pinned, grid_stop):
    problems = _shipped_sweep_lps(name, axis, pinned, grid_stop)
    assert len(problems) == 27
    for problem in problems:
        _assert_same(problem)


def _shipped_sweep_calls():
    """Every axis of both shipped scenarios at 101 grid points, past the S boundary, one point at a time."""
    envelope, slack = [], []
    for name in ("reference_2x2", "five_by_four"):
        rates = _shipped_rates(name)
        for axis in range(rates.m_s):
            sweep_user = 1 if axis == 0 else 0
            grid = np.linspace(0.0, 1.05 * rates.mu[:, sweep_user].max(), 101)
            for lam in model.sweep_rates(rates.m_s, axis, grid)[0]:
                envelope.append(lambda r=rates, l=lam.copy(), a=axis: orthogonal.envelope_point(r, l, a))
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


@pytest.mark.parametrize("corpus", ["envelope", "max-slack"])
def test_pivots_per_lp_as_reference(corpus):
    # each LP is pivoted on its own tableau, and makes the reference's pivots
    # one for one: phase I, the pivot-out of leftover artificials and phase II
    kinds = ("uniform", "rounded", "zeros", "symmetric_users", "symmetric_bands")
    envelope, slack = _random_assignment_calls(np.random.default_rng(29), 1500, kinds)
    problems = _recorded_lps(envelope if corpus == "envelope" else slack)
    assert len(problems) == 1500
    counts = {}

    def counted(module, name):
        original = getattr(module, name)

        def pivot(*args):
            counts[name] += 1
            return original(*args)
        return pivot

    total = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_pivot", counted(optim, "_pivot"))
        mp.setattr(oracles, "_ref_pivot", counted(oracles, "_ref_pivot"))
        for problem in problems:
            counts.update(_pivot=0, _ref_pivot=0)
            _assert_equal(optim.solve_lp(problem), reference_solve_lp(problem))
            assert counts["_pivot"] == counts["_ref_pivot"]
            total += counts["_pivot"]
    assert total >= len(problems)


class TestSBoundaryPoint:
    """The envelope point where Bland's rule, which the solver used before, ends "failed"."""

    def test_listed_exception(self):
        # Bland's rule pivots on an element of 1.1e-11 there; the solver's
        # rule, which the reference follows, never meets it
        (problem,) = _recorded_lps([lambda: orthogonal.envelope_point(jitter_28_rates(), JITTER_28_LAMBDA, 1)])
        assert bland_solve_lp(problem).status == "failed"
        sol = _assert_same(problem)
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
# ``orthogonal.sweep_envelope`` must hand ``optim.solve_sweep`` an LP and
# values of one row that make, at every grid point, the LP that
# ``envelope_point`` solves there, and return values within
# SWEEP_TOL * max(1, |value|) of ``envelope_point``'s, None at the same points
# (ROADMAP item 3's gate: the walk's values are c @ x at a basis found by dual
# pivots, not the two-phase solve's). The first point is the two-phase solve's
# own, and every LP the sweep solves on its own (its first LP included) must
# solve as the reference does, as must every LP ``envelope_point`` solves.

FIVE_BY_FOUR_PINS = (2, 3)  # users 3 and 4, as the region-5x4 benchmark pins them
SWEEP_TOL = 1e-12


def _assert_same_value(got, want):
    """The sweep's value ``got`` is ``want.max_rate``: a float where ``want`` is feasible, else None."""
    assert type(got) is (float if want.feasible else type(None))
    assert got == want.max_rate


def _assert_close_value(got, want):
    """The sweep's value ``got`` lies within SWEEP_TOL * max(1, |v|) of v = ``want``, and is None where it is."""
    assert type(got) is type(want)
    if want is not None:
        assert abs(got - want) <= SWEEP_TOL * max(1.0, abs(want))


def _assert_as_reference(problem, sol):
    """``sol`` is the reference's solution of ``problem``, or, where the reference ends "failed"
    (the listed exception of ``TestSBoundaryPoint``), an optimum that passes the residual check.

    Returns the reference's status and whether the exception applied.
    """
    want = reference_solve_lp(problem)
    if want.status != "failed":
        _assert_equal(sol, want)
        return want.status, False
    assert sol.status == "optimal"
    assert np.all(problem.A @ sol.x - problem.b <= 1e-9)
    assert np.all(sol.x >= problem.lo - 1e-9)
    return want.status, True


def _recorded_sweep(rates, axis, grid, others=None, sweep_user=None):
    """The sweep's values, the (problem, row, t) it hands to ``optim.solve_sweep`` and the LPs it solves on its own."""
    batches, values = [], []
    solve_sweep = optim.solve_sweep

    def record(problem, row, t):
        batches.append((problem, row, t))
        return solve_sweep(problem, row, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "solve_sweep", record)
        alone = _recorded_solves([lambda: values.extend(
            orthogonal.sweep_envelope(rates, axis, grid, others=others, sweep_user=sweep_user))])
    (batch,) = batches
    return values, batch, alone


def _with_entry(b, row, value):
    """A copy of b with entry ``row`` set to ``value``: one point of a sweep."""
    b = b.copy()
    b[row] = value
    return b


def _check_sweep(rates, axis, grid, others=None, sweep_user=None):
    """Compare the sweep with ``envelope_point`` and the reference at every grid point.

    Returns the statuses of the reference and the number of points where it
    ended "failed" and the solver's optimum passed the residual check instead
    (the listed exception of ``TestSBoundaryPoint``).
    """
    rows = model.sweep_rates(rates.m_s, axis, grid, others, sweep_user)[0]
    values, (sweep, row, t), alone = _recorded_sweep(rates, axis, grid, others, sweep_user)
    points = _recorded_solves([lambda lam=lam: orthogonal.envelope_point(rates, lam, axis) for lam in rows])
    assert len(values) == len(t) == len(points) == len(rows)
    statuses, exceptions = [], 0
    for value, t_i, (problem, sol) in zip(values, t, points):
        b = _with_entry(sweep.b, row, t_i)
        for field, want in (("c", sweep.c), ("A", sweep.A), ("b", b), ("lo", sweep.lo)):
            assert np.array_equal(getattr(problem, field), want)
        status, exception = _assert_as_reference(problem, sol)
        statuses.append(status)
        exceptions += exception
        _assert_close_value(value, orthogonal._max_rate(sol))  # envelope_point's max_rate
    assert values[0] == orthogonal._max_rate(points[0][1])
    for problem, sol in alone:
        _assert_as_reference(problem, sol)
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


def _jittered_sweeps():
    """(rates, grid, others) of 12 seeded 5x4 sweeps that maximize user 2 over user 1's rate.

    Users 3 and 4 are pinned, and user 1's rate runs from 0 to past its
    largest, so every sweep holds unflipped, flipped and infeasible points.
    """
    rng = np.random.default_rng(12)
    sweeps = []
    for i in range(12):
        rates = _jittered_five_by_four(rng)
        others, top = _pinned(rates, 0.4 + 0.3 * i / 11)
        sweeps.append((rates, np.linspace(0.0, 1.1 * top, 21), others))
    return sweeps


def _boundary_sweep():
    """(rates, grid, others) of the CLI sweep of TestSBoundaryPoint, through JITTER_28_LAMBDA."""
    grid = cli._parse_grid("0:0.5382089933605835:0.026910449668029173")
    return jitter_28_rates(), grid, [0.0, 0.0, *JITTER_28_LAMBDA[2:]]


class TestSweepBatches:
    @pytest.mark.parametrize("name, axis, others, stop", SHIPPED_SWEEPS)
    def test_shipped_scenarios(self, name, axis, others, stop):
        statuses, exceptions = _check_sweep(_shipped_rates(name), axis, np.linspace(0.0, stop, 21), others)
        assert exceptions == 0 and "optimal" in statuses

    def test_seeded_five_by_four_jitters(self):
        seen = set()
        for rates, grid, others in _jittered_sweeps():
            statuses, exceptions = _check_sweep(rates, 1, grid, others, 0)
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
        # the CLI grid of TestSBoundaryPoint: where Bland's rule fails, the
        # sweep and the reference agree bit for bit
        rates, grid, others = _boundary_sweep()
        assert JITTER_28_LAMBDA[0] in grid
        statuses, exceptions = _check_sweep(rates, 1, grid, others, 0)
        assert exceptions == 0
        assert statuses[grid.index(JITTER_28_LAMBDA[0])] == "optimal"


# --- The walk against one solve per point ---------------------------------------
# Random scenarios of each shape, with every user but the maximized and the
# swept one pinned, on grids through every mu of the swept column, mu + 1e-12
# and the next float past mu (where a basis changes or the sweep leaves the
# region), three repeated points and ten points to 1.1 times the largest mu;
# every 40th scenario sweeps 1,000 points instead. The per-point values come
# from ``optim.solve_lp`` on each point's own LP, as ``envelope_point`` solves it.

WALK_SHAPES = [(2, 2), (3, 2), (3, 3), (4, 4), (5, 4)]
WALK_SCENARIOS = 200  # per shape


def _walk_sweep(rng, m_p, m_s, i):
    """(rates, axis, grid, others, sweep_user) of the i-th random sweep of a shape."""
    mu = rng.uniform(0.05, 1.0, (m_p, m_s))
    if i % 3 == 1:
        mu = np.round(mu, 2)
    elif i % 3 == 2:
        mu = np.where(rng.random((m_p, m_s)) < 0.25, 0.0, np.round(mu, 2))
    rates = model.RateMatrix(mu=mu, mu_p=np.ones(m_p), pi=np.maximum(mu.max(axis=1), 0.05))
    axis, sweep_user = (int(u) for u in rng.permutation(m_s)[:2])
    others = rng.uniform(0.0, 0.5, m_s) * mu.max(axis=0) * min(m_p / m_s, 1.0)
    column = mu[:, sweep_user]
    if i % 40 == 39:
        grid = np.linspace(0.0, 1.1 * column.max(), 1000)
    else:
        edges = np.concatenate([column, column + 1e-12, np.nextafter(column, np.inf)])
        grid = np.sort(np.concatenate([edges, edges[:3], np.linspace(0.0, 1.1 * column.max(), 10)]))
    return rates, axis, grid, others, sweep_user


@pytest.mark.parametrize("shape", WALK_SHAPES, ids=[f"{m_p}x{m_s}" for m_p, m_s in WALK_SHAPES])
def test_walk_against_points(shape):
    # the gate of ROADMAP item 3 at every point, the first point equal, and
    # every LP the sweep solves on its own equal to the reference's solution
    rng = np.random.default_rng(sum(shape) * 101 + shape[0])
    points = walked = 0
    for i in range(WALK_SCENARIOS):
        rates, axis, grid, others, sweep_user = _walk_sweep(rng, *shape, i)
        lam = model.sweep_rates(rates.m_s, axis, grid, others, sweep_user)[0]
        sweep = orthogonal._envelope_lp(rates, lam[0], axis)
        row = rates.m_p + rates.m_s + sweep_user - (sweep_user > axis)  # its service row
        t = -lam[:, sweep_user]
        raw = []
        alone = _recorded_solves([lambda: raw.extend(optim.solve_sweep(sweep, row, t))])
        values = [v if type(v) is float else orthogonal._max_rate(v) for v in raw]
        want = [orthogonal._max_rate(optim.solve_lp(replace(sweep, b=_with_entry(sweep.b, row, t_i)))) for t_i in t]
        assert len(values) == len(want) == len(grid)
        for got, value in zip(values, want):
            _assert_close_value(got, value)
        assert values[0] == want[0]
        for problem, sol in alone:
            _assert_equal(sol, reference_solve_lp(problem))
        points += len(grid)
        walked += sum(type(v) is float for v in raw)  # values the walk certified
    assert points >= 6000 and walked >= points // 2


def test_solve_sweep_refuses_a_rising_or_non_finite_t():
    # the walk moves one entry of b, downwards, through finite values; an
    # empty t solves nothing, and a one-point t solves b with b[row] = t[0]
    problem = LpProblem(c=np.ones(2), A=np.eye(2), b=np.ones(2), lo=np.zeros(2))
    for t in ([1.0, 2.0], [1.0, math.nan], [math.inf, 1.0], [[1.0, 0.5]]):
        with pytest.raises(ValueError, match="^t must be 1-D, finite and non-increasing$"):
            list(optim.solve_sweep(problem, 0, t))
    for row in (-1, 2):
        with pytest.raises(ValueError, match="^row must index a row of A$"):
            list(optim.solve_sweep(problem, row, [1.0]))
    assert list(optim.solve_sweep(problem, 0, [])) == []
    (only,) = optim.solve_sweep(problem, 0, [0.25])
    _assert_equal(only, optim.solve_lp(replace(problem, b=[0.25, 1.0])))
    assert only.value == 1.25
    first, second = optim.solve_sweep(problem, 0, [1.0, 0.5])
    assert (first.value, second) == (2.0, 1.5)


def test_points_failing_the_certificate_are_solved_on_their_own():
    # no sweep of the suite walks to a point that fails the certificate, so
    # the chunk test is fed one: the second point's basis is not dual
    # feasible, and the third point's x breaks row 0. Each yields the
    # solution of its own LP, b[row] set to its value; the first its c @ x.
    problem = LpProblem(c=np.ones(2), A=np.eye(2), b=np.ones(2), lo=np.zeros(2))
    t = np.array([1.0, 0.5, 0.25])
    rhs = optim._rows(problem.b, 0, t)
    ys = np.zeros((3, 4))  # variables, then slacks
    ys[:, 0], ys[:, 1], ys[2, 0] = t, 1.0, 2.0
    first, second, third = optim._certified(ys, np.array([True, False, True]), problem.c, problem.A,
                                            problem.lo, rhs)
    assert first == 2.0
    for got, b in ((second, [0.5, 1.0]), (third, [0.25, 1.0])):
        assert _assert_equal(got, optim.solve_lp(replace(problem, b=b))).value == b[0] + 1.0


def test_empty_sweep():
    assert orthogonal.sweep_envelope(_shipped_rates("five_by_four"), 0, []) == []


@pytest.mark.parametrize("name, others, setting, value, grid", [
    # a point solved on its own after the first runs out of pivots (the
    # second takes 3 in phase II on the 2x2 scenario and 5 on the 5x4 one, the
    # first 2 and 4). The 2x2 walk covers every feasible point in at most 3
    # pivots and solves only the infeasible last one on its own. The 5x4
    # walk covers 3 points in its 5 pivots and solves the rest on their own.
    ("reference_2x2", None, "_MAX_ITER", 3, [0.0, 0.1, 0.2, 0.3, 0.7, 0.8]),
    ("reference_2x2", None, "_MAX_ITER", 4, [0.0, 0.1, 0.2, 0.3, 0.7, 0.8]),
    ("five_by_four", [0.0, 0.0, 0.15, 0.2], "_MAX_ITER", 5, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
    # no row passes the pivot test: the unflipped first point ends
    # "unbounded" and the flipped ones fail in phase I
    ("reference_2x2", None, "_PIVOT_MIN", 10.0, [0.0, 0.1, 0.2]),
])
def test_sweep_errors_in_grid_order(monkeypatch, name, others, setting, value, grid):
    # on every prefix of the grid, the points the sweep solves on its own (the
    # first, and those the walk does not cover) end as solving the points one at
    # a time does: an LP that ends "failed" or "unbounded" raises at the first
    # such point, and infeasible points before it are returned as infeasible.
    # The points the walk covers keep the gate against the default settings.
    rates = _shipped_rates(name)
    rows = model.sweep_rates(rates.m_s, 1, grid, others)[0]
    default = [orthogonal.envelope_point(rates, lam, 1).max_rate for lam in rows]
    b = [orthogonal._envelope_lp(rates, lam, 1).b for lam in rows]
    monkeypatch.setattr(optim, setting, value)
    first_raise = None  # the first prefix size that raises
    for size in range(1, len(grid) + 1):
        outcome = []

        def sweep():
            try:
                outcome.append(orthogonal.sweep_envelope(rates, 1, grid[:size], others))
            except RuntimeError as exc:
                outcome.append(exc)

        alone = {tuple(problem.b) for problem, _ in _recorded_solves([sweep])}
        expected = []
        for i, lam in enumerate(rows[:size]):
            if tuple(b[i]) not in alone:
                expected.append(None)  # covered by the walk
                continue
            try:
                expected.append(orthogonal.envelope_point(rates, lam, 1))
            except RuntimeError as exc:
                assert str(outcome[0]) == str(exc)
                first_raise = first_raise or size
                break
        else:
            for got, want, point in zip(outcome[0], expected, default[:size], strict=True):
                if want is None:
                    _assert_close_value(got, point)
                else:
                    _assert_same_value(got, want)
    assert first_raise == (5 if name == "five_by_four" else 1 if setting == "_PIVOT_MIN" else None)


@pytest.mark.parametrize("grid", [[-0.1, 0.2], [0.0, 0.1, math.nan], [0.0, 0.8, math.nan]])
def test_sweep_refuses_bad_grid_values_in_grid_order(grid):
    rates = _shipped_rates("reference_2x2")
    with pytest.raises(ConfigurationError) as alone:
        for lam in model.sweep_rates(rates.m_s, 1, grid)[0]:
            orthogonal.envelope_point(rates, lam, 1)
    with pytest.raises(ConfigurationError, match=f"^{alone.value}$"):
        orthogonal.sweep_envelope(rates, 1, grid)


def test_sweep_does_not_depend_on_the_batch_size(monkeypatch):
    # _LPS_PER_CALL only bounds the chunk of walked points certified at once
    rates = _shipped_rates("five_by_four")
    grid = np.linspace(0.0, 0.6, 21)
    whole = orthogonal.sweep_envelope(rates, 1, grid, others=[0.0, 0.0, 0.15, 0.2])
    monkeypatch.setattr(optim, "_LPS_PER_CALL", 3)
    assert orthogonal.sweep_envelope(rates, 1, grid, others=[0.0, 0.0, 0.15, 0.2]) == whole


class TestSharedLps:
    """``optim.solve_lp`` on LPs that share c, A and lo, one LP at a time, against the reference."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shared_box_lps(self, seed):
        # each batch mixes flip patterns, and optimal, infeasible and
        # unbounded LPs
        rng = np.random.default_rng(seed)
        kinds = ("uniform", "rounded", "sparse", "equality")
        statuses = set()
        for i in range(60):
            shared = _box_lp(rng, kinds[i % 4])
            rhs = shared.b + rng.uniform(-0.6, 0.6, (12, shared.b.size))
            if kinds[i % 4] == "rounded":
                rhs = np.round(rhs, 1)
            rhs[rng.random(12) < 0.2] = shared.b  # repeated rows
            problems = [LpProblem(c=shared.c, A=shared.A, b=b, lo=shared.lo) for b in rhs]
            solutions = [optim.solve_lp(problem) for problem in problems]
            assert len(solutions) == len(rhs)
            for problem, sol in zip(problems, solutions):
                statuses.add(_assert_equal(sol, reference_solve_lp(problem)).status)
                _assert_equal(sol, optim.solve_lp(problem))
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_mixed_flip_patterns_enter_only_their_own_artificials(self, monkeypatch):
        # x1 + x2 <= b0, x1 >= -b1, x2 >= -b2: the rows flipped are none, {1},
        # {2} and {1, 2}, and the last LP is infeasible. Each LP's phase I may
        # enter its 2 variables, 3 slacks and an artificial per row it flips,
        # and runs only where it flips a row; its phase II the 5 real columns,
        # and only where phase I found it feasible.
        rhs = np.array([[1.0, 0.5, 0.5], [1.0, -0.2, 0.5], [0.6, 0.5, -0.6], [1.0, -0.2, -0.3],
                        [0.8, 0.0, 0.1], [0.4, -0.2, -0.3]])
        c, A, lo = np.array([1.0, 0.5]), np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.zeros(2)
        assert len({tuple(row < 0) for row in rhs}) == 4
        loops = []
        simplex = optim._simplex
        monkeypatch.setattr(optim, "_simplex", lambda *args: loops.append(args[-1]) or simplex(*args))
        solutions = [optim.solve_lp(LpProblem(c=c, A=A, b=b, lo=lo)) for b in rhs]
        assert loops == [5, 6, 5, 6, 5, 7, 5, 5, 7]
        statuses = [_assert_equal(sol, reference_solve_lp(LpProblem(c=c, A=A, b=b, lo=lo))).status
                    for b, sol in zip(rhs, solutions, strict=True)]
        assert statuses == ["optimal"] * 5 + ["infeasible"]

    def test_no_rows_and_no_lps(self):
        # no LPs: a sweep over no values of one row
        lo = np.array([0.0, -0.5])
        problem = LpProblem(c=np.ones(2), A=np.zeros((1, 2)), b=np.zeros(1), lo=lo)
        assert list(optim.solve_sweep(problem, 0, [])) == []
        statuses = []
        for c in ([-1.0, -0.0], [-1.0, 1.0]):  # x = lo is optimal; x2 grows without bound
            sol = optim.solve_lp(LpProblem(c=c, A=np.zeros((0, 2)), b=np.zeros(0), lo=lo))
            statuses.append(_assert_equal(sol, reference_solve_lp(
                LpProblem(c=c, A=np.zeros((0, 2)), b=np.zeros(0), lo=lo))).status)
        assert statuses == ["optimal", "unbounded"]

    @pytest.mark.parametrize("b, message", [
        ([[1.0], [2.0]], "b must be a vector"),
        ([1.0, math.inf], "b must be finite"),
        ([1.0, 2.0, 3.0], "disagree on the number of constraints"),
    ])
    def test_refuses_bad_rhs(self, b, message):
        with pytest.raises(ValueError, match=message):
            LpProblem(c=np.ones(2), A=np.eye(2), b=b, lo=np.zeros(2))


# --- Bland's rule, which the solver's entering rule replaced -----------------
# Where the LP is degenerate, Dantzig's column can reach another optimal
# vertex, in fewer pivots. Over the LPs above, the solver must reach the status
# Bland's rule reaches, its optimal value to rounding, and a feasible x. The
# one exception is the S boundary point of TestSBoundaryPoint, where Bland's
# rule ends "failed".

def _jittered_sweep_lps():
    """The LPs ``envelope_point`` solves at each point of the seeded 5x4 sweeps and of the boundary sweep."""
    return _recorded_lps([lambda r=rates, lam=lam: orthogonal.envelope_point(r, lam, 1)
                          for rates, grid, others in [*_jittered_sweeps(), _boundary_sweep()]
                          for lam in model.sweep_rates(rates.m_s, 1, grid, others, 0)[0]])


LP_CORPUS = {
    "box LPs seed 1": lambda: _box_lps(1),
    "box LPs seed 2": lambda: _box_lps(2),
    "test_optim shapes": _optim_test_shapes,
    "assignment LPs": _assignment_lps,
    "shipped sweeps": lambda: [p for sweep in SHIPPED_SWEEPS for p in _shipped_sweep_lps(*sweep)],
    "jittered sweeps": _jittered_sweep_lps,
}


@pytest.mark.parametrize("corpus", LP_CORPUS)
def test_against_blands_rule(corpus):
    exceptions = 0
    for problem in LP_CORPUS[corpus]():
        got, want = optim.solve_lp(problem), bland_solve_lp(problem)
        if want.status == "failed" and got.status == "optimal":
            exceptions += 1
        else:
            assert got.status == want.status
        if got.status == "optimal":
            assert np.all(problem.A @ got.x - problem.b <= optim._FEAS_TOL)
            assert np.all(got.x >= problem.lo - optim._FEAS_TOL)
        if want.status == "optimal":
            assert abs(got.value - want.value) <= 1e-12 * max(1.0, abs(want.value))
    assert exceptions == (corpus == "jittered sweeps")


class TestCycling:
    """Beale's example (Beale 1955), on which Dantzig's rule alone cycles.

    From the degenerate start x = 0, Dantzig's column with the smallest basis
    index leaving returns to the starting basis after six pivots. The first
    degenerate pivot hands the choice to Bland's rule, which does not cycle.
    """

    c = np.array([0.75, -20.0, 0.5, -6.0])
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])

    def problem(self, b):
        return LpProblem(c=self.c, A=self.A, b=b, lo=np.zeros(4))

    def test_dantzig_alone_cycles(self):
        assert dantzig_solve_lp(self.problem(self.b)).status == "failed"

    def test_solve_lp(self):
        sol = _assert_same(self.problem(self.b))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.25, abs=1e-12)

    def test_next_to_other_lps(self):
        # next to LPs whose start is not degenerate, on which Dantzig's rule does not cycle
        rhs = np.array([[0.5, 0.5, 1.0], self.b, [1.0, 0.2, 2.0], self.b])
        assert [dantzig_solve_lp(self.problem(b)).status for b in rhs[[0, 2]]] == ["optimal"] * 2
        solutions = [optim.solve_lp(self.problem(b)) for b in rhs]
        for b, sol in zip(rhs, solutions, strict=True):
            _assert_equal(sol, _assert_same(self.problem(b)))
        assert [sol.value for sol in solutions[1::2]] == [pytest.approx(1.25, abs=1e-12)] * 2
