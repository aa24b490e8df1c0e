"""From assignment fractions to a slot-by-slot permutation schedule.

The controller needs a probability distribution over orthogonal assignment
patterns whose marginals reproduce a target fraction matrix omega. That is
obtained by padding omega to a square doubly stochastic matrix with virtual
bands/users and decomposing it into permutation matrices (Birkhoff-von
Neumann). The decomposition here is the greedy variant: repeatedly find a
perfect matching on the strictly-positive support with augmenting paths and
subtract the minimum matched entry.

Permutations are encoded as M_s-tuples of band numbers (1-based), 0 meaning
the user sits on a virtual band that slot. The padded matrix holds the virtual
bands in the rows after M_p and the virtual users in the columns after M_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError
from .orthogonal import AssignmentMatrix

_TOL = 1e-9


class DecompositionError(RuntimeError):
    """The positive support lost its perfect matching (numerical damage)."""


@dataclass(frozen=True)
class DoublyStochasticMatrix:
    """Square nonnegative matrix whose rows and columns each sum to one (within 1e-9)."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("matrix must be square")
        if np.any(m < -_TOL):
            raise ConfigurationError("matrix entries must be nonnegative")
        if np.any(np.abs(m.sum(axis=0) - 1) > _TOL) or np.any(np.abs(m.sum(axis=1) - 1) > _TOL):
            raise ConfigurationError("rows and columns must each sum to 1")
        object.__setattr__(self, "m", np.clip(m, 0.0, None))

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class PermutationSchedule:
    """Weighted orthogonal assignment patterns: entries of ((m_1..m_Ms), weight)."""

    entries: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self) -> None:
        entries = tuple((tuple(int(m) for m in perm), float(w)) for perm, w in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ConfigurationError("schedule needs at least one entry")
        total = 0.0
        size = len(entries[0][0])
        for perm, w in entries:
            if len(perm) != size:
                raise ConfigurationError("all permutations must have the same length")
            if w <= 0:
                raise ConfigurationError("weights must be > 0")
            real = [m for m in perm if m != 0]
            if len(set(real)) != len(real):
                raise ConfigurationError(f"assignment {perm} reuses a band")
            total += w
        if abs(total - 1.0) > _TOL:
            raise ConfigurationError(f"weights sum to {total!r}, expected 1")

    @property
    def m_s(self) -> int:
        return len(self.entries[0][0])

    def to_dict(self) -> dict:
        return {"entries": [{"assignment": list(perm), "weight": w} for perm, w in self.entries]}


def pad_to_doubly_stochastic(omega: AssignmentMatrix | np.ndarray) -> DoublyStochasticMatrix:
    """Embed omega into an n x n doubly stochastic matrix, n = max(M_p, M_s).

    Row/column slack is routed into the virtual cells first, then into the
    real block, each in row-major (northwest) order. The real block takes
    slack always when omega is slack and M_p = M_s (no virtual block), and
    also when M_p != M_s and omega leaves more slack than the virtual cells
    take (omega = [[.5, 0], [0, .5], [0, 0]] puts 0.5 of band 3 on each user).
    It only ever adds assignments where both the band and the user have slack.
    """
    if not isinstance(omega, AssignmentMatrix):
        omega = AssignmentMatrix(omega)
    m_p, m_s = omega.m_p, omega.m_s
    n = max(m_p, m_s)
    D = np.zeros((n, n))
    D[:m_p, :m_s] = omega.omega
    row_slack = np.clip(1.0 - D.sum(axis=1), 0.0, None)
    col_slack = np.clip(1.0 - D.sum(axis=0), 0.0, None)
    virtual = [(i, j) for i in range(n) for j in range(n) if i >= m_p or j >= m_s]
    real = [(i, j) for i in range(m_p) for j in range(m_s)]
    for i, j in virtual + real:
        fill = min(row_slack[i], col_slack[j])
        if fill > 0:
            D[i, j] += fill
            row_slack[i] -= fill
            col_slack[j] -= fill
    return DoublyStochasticMatrix(D)


def _perfect_matching(support: np.ndarray) -> list[int] | None:
    """Perfect matching on a boolean support via augmenting paths; row of each column."""
    n = support.shape[0]
    row_of_col = [-1] * n

    def augment(r: int, seen: list[bool]) -> bool:
        for c in range(n):
            if support[r, c] and not seen[c]:
                seen[c] = True
                if row_of_col[c] < 0 or augment(row_of_col[c], seen):
                    row_of_col[c] = r
                    return True
        return False

    for r in range(n):
        if not augment(r, [False] * n):
            return None
    return row_of_col


def birkhoff_decompose(matrix: DoublyStochasticMatrix | np.ndarray) -> PermutationSchedule:
    """Greedy Birkhoff-von Neumann decomposition of a doubly stochastic matrix.

    Repeatedly finds a perfect matching on the > 1e-9 support, emits it with
    the minimum matched entry as weight, and subtracts. At most (n-1)^2 + 1
    permutations result; weights are renormalized to sum to one exactly. Row i
    is band i+1 and column k is user k.
    """
    if not isinstance(matrix, DoublyStochasticMatrix):
        matrix = DoublyStochasticMatrix(matrix)
    n = matrix.n
    residual = matrix.m.copy()
    raw: list[tuple[tuple[int, ...], float]] = []
    for _ in range(n * n + 1):
        if residual.max() <= _TOL:
            break
        row_of_col = _perfect_matching(residual > _TOL)
        if row_of_col is None:
            raise DecompositionError("support has no perfect matching")
        weight = min(residual[row_of_col[c], c] for c in range(n))
        raw.append((tuple(r + 1 for r in row_of_col), weight))
        for c in range(n):
            residual[row_of_col[c], c] -= weight
    else:
        raise DecompositionError("decomposition did not terminate")

    kept = [(perm, w) for perm, w in raw if w >= _TOL]
    total = sum(w for _, w in kept)
    return PermutationSchedule(tuple((perm, w / total) for perm, w in kept))


def schedule_from_assignment(omega: AssignmentMatrix | np.ndarray) -> tuple[DoublyStochasticMatrix, PermutationSchedule]:
    """Pad omega and decompose it: the padded matrix and the schedule.

    Bands above M_p (virtual) read as 0, and only the first M_s users are kept.
    """
    if not isinstance(omega, AssignmentMatrix):
        omega = AssignmentMatrix(omega)
    padded = pad_to_doubly_stochastic(omega)
    m_p, m_s = omega.m_p, omega.m_s
    entries = tuple((tuple(band if band <= m_p else 0 for band in perm[:m_s]), w)
                    for perm, w in birkhoff_decompose(padded).entries)
    return padded, PermutationSchedule(entries)


def sample_indices(weights, u: np.ndarray, fallback: int) -> np.ndarray:
    """Index drawn by each uniform in ``u`` from a list of nonnegative weights.

    Each draw walks the weights in order, subtracting them from its uniform,
    and takes the first index at which the remainder turns negative; a draw
    that outlasts every weight takes ``fallback``. The subtractions run in the
    same order as a scalar walk, so the result matches it bit for bit. The
    remainder never grows, so the index is the count of nonnegative remainders.
    """
    rest = np.array(u, dtype=float)
    count = np.zeros(rest.shape, dtype=np.intp)
    for w in weights:
        rest -= w
        count += rest >= 0
    return np.where(count == len(weights), fallback, count)
