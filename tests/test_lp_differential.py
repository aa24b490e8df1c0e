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
    """(problem, solution) for every LpProblem the calls hand to ``optim.solve_lp``."""
    solves = []
    solve = optim.solve_lp

    def record(problem):
        solves.append((problem, solve(problem)))
        return solves[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "solve_lp", record)
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
