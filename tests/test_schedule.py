import random

import numpy as np
import pytest

from bandalloc import schedule
from bandalloc.model import ConfigurationError
from bandalloc.schedule import (
    DoublyStochasticMatrix,
    PermutationSchedule,
    birkhoff_decompose,
    pad_to_doubly_stochastic,
    sample_indices,
    schedule_from_assignment,
)


from oracles import marginal, random_doubly_stochastic, sample_permutation, scalar_pick, schedule_from_dict


class TestPadding:
    def test_already_doubly_stochastic(self):
        omega = np.array([[0.3, 0.7], [0.7, 0.3]])
        padded, sched = schedule_from_assignment(omega)
        assert np.allclose(padded.m, omega, atol=1e-12)
        assert sorted(perm for perm, _ in sched.entries) == [(1, 2), (2, 1)]  # no virtual band

    def test_one_band_two_users(self):
        padded, sched = schedule_from_assignment(np.array([[0.53, 0.47]]))
        assert np.allclose(padded.m, [[0.53, 0.47], [0.47, 0.53]], atol=1e-12)
        assert sorted(perm for perm, _ in sched.entries) == [(0, 1), (1, 0)]  # second row is a virtual band

    def test_all_zero_square(self):
        padded = pad_to_doubly_stochastic(np.zeros((2, 2)))
        assert np.allclose(padded.m, np.eye(2), atol=1e-12)

    def test_rejects_violating_omega(self):
        with pytest.raises(ConfigurationError):
            pad_to_doubly_stochastic(np.array([[0.8, 0.8], [0.5, 0.5]]))

    def test_real_marginals_preserved_when_virtual_block_suffices(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            m_p = int(rng.integers(1, 5))
            m_s = int(rng.integers(1, 5))
            if m_p == m_s:
                # equal sizes only pad cleanly when omega is already doubly stochastic
                omega = random_doubly_stochastic(rng, m_p)
            elif m_p > m_s:
                # full columns: every user occupied each slot
                omega = random_doubly_stochastic(rng, m_p)[:, :m_s]
            else:
                omega = random_doubly_stochastic(rng, m_s)[:m_p, :]
            padded = pad_to_doubly_stochastic(omega)
            assert np.allclose(padded.m[:m_p, :m_s], omega, atol=1e-9)


class TestBirkhoff:
    def test_identity(self):
        sched = birkhoff_decompose(np.eye(3))
        assert sched.entries == (((1, 2, 3), 1.0),)

    def test_two_by_two(self):
        sched = birkhoff_decompose(np.array([[0.3, 0.7], [0.7, 0.3]]))
        assert dict(sched.entries) == pytest.approx({(1, 2): 0.3, (2, 1): 0.7})

    def test_three_by_three_hand_case(self):
        m = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        sched = birkhoff_decompose(m)
        assert dict(sched.entries) == pytest.approx({(1, 3, 2): 0.5, (2, 1, 3): 0.5})

    def test_permutation_matrix_roundtrip(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            perm = rng.permutation(n)
            m = np.zeros((n, n))
            m[np.arange(n), perm] = 1.0
            sched = birkhoff_decompose(m)
            assert len(sched.entries) == 1
            assert sched.entries[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_count_and_marginals(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = random_doubly_stochastic(rng, n)
            sched = birkhoff_decompose(m)
            assert len(sched.entries) <= (n - 1) ** 2 + 1
            rebuilt = np.zeros((n, n))
            for perm, w in sched.entries:
                for user, band in enumerate(perm):
                    rebuilt[band - 1, user] += w
            assert np.max(np.abs(rebuilt - m)) <= 1e-9

    def test_marginal_identity_after_padding(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m_p, m_s = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            n = max(m_p, m_s)
            omega = random_doubly_stochastic(rng, n)[:m_p, :m_s]
            padded, sched = schedule_from_assignment(omega)
            for j in range(m_p):
                for k in range(m_s):
                    assert marginal(sched, j + 1, k) == pytest.approx(omega[j, k], abs=1e-9)

    def test_decomposition_error_on_damaged_matrix(self):
        m = DoublyStochasticMatrix(np.eye(2))
        object.__setattr__(m, "m", np.array([[1.0, 0.0], [1.0, 0.0]]))  # breaks the support
        with pytest.raises(schedule.DecompositionError):
            birkhoff_decompose(m)


class TestSampling:
    def test_single_entry(self):
        sched = PermutationSchedule((((1, 2), 1.0),))
        rng = random.Random(0)
        assert all(sample_permutation(sched, rng) == (1, 2) for _ in range(100))

    def test_advances_one_draw(self):
        sched = PermutationSchedule((((1, 2), 0.3), ((2, 1), 0.7)))
        rng_a, rng_b = random.Random(7), random.Random(7)
        sample_permutation(sched, rng_a)
        rng_b.random()
        assert rng_a.random() == rng_b.random()

    @staticmethod
    def draw_patterns(sched, rng, draws):
        """The patterns of ``draws`` sample_permutation calls: the same uniforms, one array call."""
        u = np.array([rng.random() for _ in range(draws)])
        entries = sched.entries
        index = sample_indices([[w] for _, w in entries], u[None], [len(entries) - 1])[0]
        return np.array([pattern for pattern, _ in entries])[index]

    def test_frequencies(self):
        sched = PermutationSchedule((((1, 2), 0.3), ((2, 1), 0.7)))
        rng = random.Random(123)
        draws = 100_000
        hits = np.count_nonzero(np.all(self.draw_patterns(sched, rng, draws) == (1, 2), axis=1))
        assert hits / draws == pytest.approx(0.3, abs=0.01)

    def test_empirical_marginals_match_omega(self):
        omega = np.array([[0.57142857142857, 0.42857142857143], [0.42857142857143, 0.57142857142857]])
        _, sched = schedule_from_assignment(omega)
        rng = random.Random(9)
        draws = 100_000
        counts = np.zeros((2, 2))
        for user, bands in enumerate(self.draw_patterns(sched, rng, draws).T):
            for band in range(1, omega.shape[0] + 1):
                counts[band - 1, user] += np.count_nonzero(bands == band)
        assert np.max(np.abs(counts / draws - omega)) <= 0.01


class TestSampleIndices:
    """One weight column per row of draws, against the scalar walk per row, bit for bit."""

    @staticmethod
    def draws(weights, rng):
        """Uniforms per row: random ones, every remainder-zero point of the
        row's walk (each cumulative weight as the walk subtracts it) and the
        float neighbours of each, and the largest float below 1."""
        rows = []
        for col in np.asarray(weights, dtype=float).T:
            edges, total = [], 0.0
            for w in col:
                total += w
                edges += [total, np.nextafter(total, 0.0), np.nextafter(total, 1.0)]
            edges = [u for u in edges if 0.0 <= u < 1.0] + [col[0], np.nextafter(1.0, 0.0)]
            rows.append(np.concatenate([rng.random(200), edges]))
        width = min(len(r) for r in rows)
        return np.array([r[-width:] for r in rows])

    def check(self, weights, fallback, seed=0):
        u = self.draws(weights, np.random.default_rng(seed))
        got = sample_indices(weights, u, fallback)
        cols = np.asarray(weights, dtype=float).T
        want = [[scalar_pick(col.tolist(), float(x), fb) for x in row]
                for col, row, fb in zip(cols, u, fallback)]
        assert got.shape == u.shape
        assert got.tolist() == want
        return got

    def test_incomplete_columns_fall_back_to_none(self):
        got = self.check([[0.3, 0.5], [0.5, 0.2]], [-1, -1])
        assert (got == -1).any(axis=1).all()

    def test_complete_columns_fall_back_to_the_last_positive_band(self):
        # the largest draw below 1 outlasts ten weights of 0.1 (its remainder
        # ends at 2.8e-17), so the third row's fallback picks its last band
        weights = np.array([[0.4, 1.0, 0.1], [0.6, 0.0, 0.1]] + [[0.0, 0.0, 0.1]] * 8)
        self.check(weights, [1, 0, 9])
        u = np.full((3, 1), np.nextafter(1.0, 0.0))
        assert sample_indices(weights, u, [1, 0, 9]).tolist() == [[1], [0], [9]]
        assert sample_indices(weights, u, [1, 0, -1]).tolist() == [[1], [0], [-1]]

    def test_weight_on_a_virtual_band(self):
        self.check([[0.2, 0.3], [0.5, 0.0], [0.3, 0.7]], [2, 2])

    def test_one_row_is_the_schedule_pick(self):
        # the orthogonal policy's call: one row, the schedule's weights as its
        # column, the last entry as fallback
        for m_p, m_s in [(2, 2), (3, 2), (5, 4)]:
            omega = random_doubly_stochastic(np.random.default_rng(m_p * m_s), max(m_p, m_s))[:m_p, :m_s]
            entries = schedule_from_assignment(omega)[1].entries
            got = self.check([[w] for _, w in entries], [len(entries) - 1], seed=m_p)
            assert len(set(got[0].tolist())) == len(entries)


class TestScheduleValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            PermutationSchedule((((1, 2), 0.5), ((2, 1), 0.4)))

    def test_orthogonality_enforced(self):
        with pytest.raises(ConfigurationError):
            PermutationSchedule((((1, 1), 1.0),))

    def test_virtual_zero_may_repeat(self):
        PermutationSchedule((((0, 0, 1), 1.0),))

    @pytest.mark.parametrize("perm", [(1.5, 2.2), (True, 2), (1.0, 2)])
    def test_band_numbers_must_be_integers(self, perm):
        # int() used to truncate each of these to (1, 2)
        with pytest.raises(ConfigurationError, match="^band numbers must be integers, got"):
            PermutationSchedule((((2, 1), 0.5), (perm, 0.5)))

    def test_numpy_integer_band_numbers_pass(self):
        sched = PermutationSchedule(((tuple(np.arange(1, 3)), 1.0),))
        assert sched.entries == (((1, 2), 1.0),)
        assert [type(m) for m in sched.entries[0][0]] == [int, int]

    def test_serialization_roundtrip(self):
        sched = PermutationSchedule((((1, 2), 0.3), ((2, 1), 0.7)))
        assert schedule_from_dict(sched.to_dict()) == sched


class TestDoublyStochasticValidation:
    def test_rejects_bad_sums(self):
        with pytest.raises(ConfigurationError):
            DoublyStochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.4]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ConfigurationError):
            DoublyStochasticMatrix(np.array([[1.0, 0.0]]))
