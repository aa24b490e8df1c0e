import numpy as np
import pytest

from bandalloc import optim
from bandalloc.optim import LpProblem
from oracles import FractionalCoeffs, bound_rows_lp, grid_search, maximize_fractional_1d


def lp(c, A, b, lo=None, hi=None):
    c = np.atleast_1d(np.asarray(c, float))
    n = c.size
    lo = np.zeros(n) if lo is None else np.asarray(lo, float)
    hi = np.ones(n) if hi is None else np.asarray(hi, float)
    return bound_rows_lp(c, A, b, lo, hi)


class TestSolveLp:
    def test_single_variable_cap(self):
        sol = optim.solve_lp(lp([1.0], [[1.0]], [0.5]))
        assert sol.is_optimal
        assert sol.value == pytest.approx(0.5, abs=1e-12)

    def test_infeasible(self):
        # x >= 2 within [0, 1]
        sol = optim.solve_lp(lp([1.0], [[-1.0]], [-2.0]))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        problem = LpProblem(c=np.array([1.0]), A=np.zeros((0, 1)), b=np.zeros(0), lo=np.array([0.0]))
        assert optim.solve_lp(problem).status == "unbounded"

    def test_ref_2x2_envelope_lp(self, ref_2x2_mu):
        # Assignment-fraction LP: maximize user 2's rate with lambda_s1 = 0.4 supported.
        mu = ref_2x2_mu
        c = np.array([0.0, mu[0, 1], 0.0, mu[1, 1]])  # vars: w11 w12 w21 w22
        A = [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [-mu[0, 0], 0, -mu[1, 0], 0],
        ]
        b = [1, 1, 1, 1, -0.4]
        sol = optim.solve_lp(lp(c, A, b))
        assert sol.is_optimal
        assert sol.value == pytest.approx(0.541071, abs=1e-6)

    def test_feasibility_residuals(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n, m = 4, 5
            c = rng.uniform(-1, 1, n)
            A = rng.uniform(-1, 1, (m, n))
            b = rng.uniform(0.1, 1.5, m)
            sol = optim.solve_lp(lp(c, A, b))
            assert sol.is_optimal  # origin is feasible; box keeps it bounded
            assert np.all(A @ sol.x - b <= 1e-9)
            assert np.all(sol.x >= -1e-9) and np.all(sol.x <= 1 + 1e-9)

    def test_beats_grid_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            c = tuple(rng.uniform(-1, 1, 2))
            A = [tuple(row) for row in rng.uniform(-1, 1, (3, 2))]
            b = tuple(rng.uniform(0.2, 1.0, 3))
            sol = optim.solve_lp(lp(c, A, b))
            assert sol.is_optimal
            grid = grid_search(
                lambda p: c[0] * p[0] + c[1] * p[1],
                [(0.0, 1.0), (0.0, 1.0)],
                step=1e-3,
                constraint=lambda p: np.logical_and.reduce(
                    [row[0] * p[0] + row[1] * p[1] <= cap for row, cap in zip(A, b)]
                ),
            )
            assert grid is not None
            assert sol.value >= grid[1] - 2e-3

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(-1, 1, 6)
        A = rng.uniform(-1, 1, (8, 6))
        b = rng.uniform(0.1, 1.0, 8)
        first = optim.solve_lp(lp(c, A, b))
        second = optim.solve_lp(lp(c, A, b))
        assert first.value == second.value
        assert np.array_equal(first.x, second.x)

    def test_degenerate_equality_like_rows(self):
        # x1 + x2 <= 1 and -(x1 + x2) <= -1 force the simplex through phase I.
        sol = optim.solve_lp(lp([1.0, 2.0], [[1, 1], [-1, -1]], [1.0, -1.0]))
        assert sol.is_optimal
        assert sol.value == pytest.approx(2.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_problems(self):
        with pytest.raises(ValueError):
            LpProblem(c=np.array([np.inf]), A=np.zeros((0, 1)), b=np.zeros(0), lo=np.zeros(1))
        with pytest.raises(ValueError):
            LpProblem(c=np.array([1.0]), A=np.zeros((0, 1)), b=np.zeros(0), lo=np.array([-np.inf]))


def coeffs_for(mu, g21, lam2):
    g21b = 1.0 - g21
    return FractionalCoeffs(
        K1=g21b * mu[0, 0] - g21 * mu[1, 0],
        K2=g21b * mu[0, 0],
        C=g21b * mu[1, 1] - g21 * mu[0, 1],
        D=g21 * mu[0, 1],
        lambda_s2=lam2,
        gamma21=g21,
    )


class TestMaximizeFractional1d:
    def test_ref_2x2_hand_case(self, ref_2x2_mu):
        coeffs = coeffs_for(ref_2x2_mu, 0.6, 0.3)
        assert coeffs.C == pytest.approx(0.1875, abs=1e-12)
        assert coeffs.K2 * coeffs.C + coeffs.D * coeffs.K1 == pytest.approx(-0.0315, abs=1e-12)
        g22, status = maximize_fractional_1d(coeffs)
        assert status == "optimal"
        assert g22 == pytest.approx(0.92, abs=1e-12)

    def test_zero_competing_load(self, ref_2x2_mu):
        # negative derivative with C > 0 and lambda_s2 = 0 pins gamma22 at 0
        coeffs = coeffs_for(ref_2x2_mu, 0.6, 0.0)
        g22, status = maximize_fractional_1d(coeffs)
        assert status == "optimal"
        assert g22 == 0.0

    def test_infeasible_when_ratio_exceeds_one(self):
        coeffs = FractionalCoeffs(K1=0.1, K2=0.1, C=0.2, D=0.0, lambda_s2=0.5, gamma21=0.0)
        assert maximize_fractional_1d(coeffs) == (None, "infeasible")

    def test_infeasible_negative_c_positive_rhs(self):
        coeffs = FractionalCoeffs(K1=0.1, K2=0.1, C=-0.2, D=0.1, lambda_s2=0.5, gamma21=0.5)
        assert maximize_fractional_1d(coeffs) == (None, "infeasible")

    def test_agrees_with_dense_grid(self):
        # 1000 random feasible instances against a 1e-4 argument grid
        rng = np.random.default_rng(6)
        grid = np.arange(0.0, 1.0 + 5e-5, 1e-4)
        checked = 0
        while checked < 1000:
            mu = rng.uniform(0.05, 1.0, (2, 2))
            g21 = rng.uniform(0, 1)
            lam2 = rng.uniform(0, 1)
            coeffs = coeffs_for(mu, g21, lam2)
            g22, status = maximize_fractional_1d(coeffs)
            feas = lam2 - coeffs.D <= coeffs.C * grid + 1e-12
            if status != "optimal":
                assert not np.any(feas)
                continue
            checked += 1
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(
                    feas, (coeffs.K1 * grid - coeffs.K2) / (coeffs.D + coeffs.C * grid), -np.inf
                )
            best = grid[int(np.argmax(vals))]
            own = (coeffs.K1 * g22 - coeffs.K2) / (coeffs.D + coeffs.C * g22)
            # argument agreement within one grid step (value can tie across a flat stretch)
            assert own >= np.max(vals) - 1e-9
            if abs(coeffs.K2 * coeffs.C + coeffs.D * coeffs.K1) > 1e-9:
                assert abs(g22 - best) <= 1e-4 + 1e-9

    def test_degenerate_coefficients_against_grid(self):
        # ties and zeros: C = 0, D = 0, K1 = 0, boundary-exact rhs
        rng = np.random.default_rng(7)
        grid = np.arange(0.0, 1.0 + 5e-5, 1e-4)
        choices = np.array([0.0, 0.2, 0.5, 1.0])
        for _ in range(500):
            mu = rng.choice(choices, size=(2, 2))
            g21 = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            coeffs = coeffs_for(mu, g21, float(rng.choice([0.0, 0.1, 0.5, 1.0])))
            g22, status = maximize_fractional_1d(coeffs)
            feas = coeffs.lambda_s2 - coeffs.D <= coeffs.C * grid + 1e-12
            if status != "optimal":
                assert not np.any(feas)
                continue
            assert 0.0 <= g22 <= 1.0
            assert coeffs.lambda_s2 - coeffs.D <= coeffs.C * g22 + 1e-12
            denom = coeffs.D + coeffs.C * g22
            if denom <= 1e-12:
                continue  # objective undefined at a zero service rate; constraint held
            own = (coeffs.K1 * g22 - coeffs.K2) / denom
            with np.errstate(divide="ignore", invalid="ignore"):
                denoms = coeffs.D + coeffs.C * grid
                vals = np.where(
                    feas & (denoms > 1e-12), (coeffs.K1 * grid - coeffs.K2) / denoms, -np.inf
                )
            assert own >= np.max(vals) - 1e-9

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            FractionalCoeffs(K1=0.0, K2=0.0, C=0.0, D=-0.1, lambda_s2=0.0, gamma21=0.0)


class TestGridSearch:
    def test_linear(self):
        point, value = grid_search(lambda p: p[0], [(0.0, 1.0)], step=0.25)
        assert point == (1.0,)
        assert value == 1.0

    def test_quadratic_peak(self):
        point, _ = grid_search(lambda p: -(p[0] - 0.5) ** 2, [(0.0, 1.0)], step=0.01)
        assert point[0] == pytest.approx(0.5, abs=1e-9)

    def test_no_feasible_point(self):
        assert grid_search(lambda p: p[0], [(0.0, 1.0)], step=0.5, constraint=lambda p: False) is None

    def test_lexicographic_tie_break(self):
        point, _ = grid_search(lambda p: 0.0, [(0.0, 1.0), (0.0, 1.0)], step=0.5)
        assert point == (0.0, 0.0)

    def test_matches_family_of_fractional_programs(self, ref_2x2_mu):
        # 2-D grid over (gamma21, gamma22) on the dominant-system objective
        mu = ref_2x2_mu
        lam2 = 0.3

        def mus2(p):
            g21, g22 = p
            return (1 - g22) * g21 * mu[0, 1] + g22 * (1 - g21) * mu[1, 1]

        def objective(p):
            g21, g22 = p
            m2 = mus2(p)
            base = (1 - g21) * mu[0, 0] + g21 * mu[1, 0]
            coll = (1 - g21) * g22 * mu[0, 0] + g21 * (1 - g22) * mu[1, 0]
            return (lam2 / m2) * coll + base * (1 - lam2 / m2)

        got = grid_search(objective, [(0.0, 1.0), (0.0, 1.0)], step=1e-3,
                                constraint=lambda p: mus2(p) >= lam2)
        assert got is not None
        from bandalloc import randalloc

        family = randalloc.dominant1_envelope_2x2(mu, lam2)
        assert got[1] == pytest.approx(family.max_lambda, abs=2e-3)
