"""Domain types and closed-form rate computations for the slotted network.

A scenario describes M_p licensed primary bands (each owned by a buffered
primary user) and M_s buffered secondary users. Two input modes exist:

* ``physical``: bands/users carry link parameters (bandwidth, mean SNR, mean
  channel gain) and the outage complements are computed from the Rayleigh
  outage formula.
* ``abstract``: bands carry the availability probability directly and users
  carry their per-band outage-complement rows, which is how the numerical
  scenarios in the literature are usually tabulated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np


# Rounding slack with which the envelope computations of every system accept a
# rate on the closure boundary (lambda <= service rate + CLOSURE_TOL), so that
# a boundary point one system reaches is not rejected by another.
CLOSURE_TOL = 1e-12


class ConfigurationError(ValueError):
    """A scenario (or one of its parts) is malformed or internally inconsistent."""


def _check_prob(value: float, name: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")


def check_unit_interval(values, name: str) -> None:
    """Refuse ``values`` unless every entry lies in [0, 1]; NaN and inf fail too."""
    if not np.all((values >= 0) & (values <= 1)):
        raise ConfigurationError(f"{name} entries must lie in [0, 1]")


def _integer(k) -> int | None:
    """``k`` as an int, or None unless it is an integer.

    Neither 0.5 nor 1.0 nor True is one: numpy refuses a float index and
    reads a bool one as a mask. A numpy integer is one.
    """
    try:
        return None if isinstance(k, bool) else operator.index(k)
    except TypeError:
        return None


def check_user_index(k: int, m_s: int) -> None:
    """Refuse ``k`` unless it is an integer (``_integer``) 0-based index of one of ``m_s`` users."""
    if _integer(k) not in range(m_s):
        raise ConfigurationError(f"user index {k} out of range")


def band_numbers(bands) -> tuple[int, ...]:
    """``bands`` as a tuple of ints; a band number that is no integer (``_integer``) is refused, not truncated."""
    numbers = tuple(map(_integer, bands))
    if None in numbers:
        raise ConfigurationError(f"band numbers must be integers, got {bands!r}")
    return numbers


def rate_rows(rates, m_s: int, skip: int | None = None) -> np.ndarray:
    """A copy of ``rates`` as rows of one arrival rate per user, each >= 0; entry ``skip`` is read as 0.

    The first refused rate in row order is named.
    """
    if skip is not None:
        check_user_index(skip, m_s)
    lam = np.array(rates, dtype=float)
    if lam.ndim != 2 or lam.shape[1] != m_s:
        raise ConfigurationError("rates must have one entry per user")
    if skip is not None:
        lam[:, skip] = 0.0
    ok = lam >= 0  # NaN fails the test
    if not ok.all():
        row, user = np.argwhere(~ok)[0]
        raise ConfigurationError(f"rate of user {user + 1} must be >= 0, got {float(lam[row, user])}")
    return lam


def rate_vector(rates, m_s: int, skip: int | None = None) -> np.ndarray:
    """``rate_rows`` of the single row ``rates``."""
    return rate_rows([rates], m_s, skip)[0]


def sweep_rates(m_s: int, axis: int, grid, others=None, sweep_user=None) -> tuple[np.ndarray, int]:
    """Rates of a sweep of user ``axis``'s envelope, one row per point of an ascending grid, and the swept user.

    ``sweep_user`` (default: the lowest index other than ``axis``) takes each
    grid value in turn; the remaining users keep the rates given in ``others``
    (default all zero). Entry ``axis`` is 0. Every rate is checked here, and
    must also be finite.
    """
    check_user_index(axis, m_s)
    if sweep_user is None:
        sweep_user = next((u for u in range(m_s) if u != axis), axis)
    check_user_index(sweep_user, m_s)
    if sweep_user == axis:
        raise ConfigurationError("sweep_user must differ from axis")
    grid = [float(v) for v in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("grid must be ascending")
    base = np.zeros(m_s) if others is None else rate_vector(others, m_s, skip=axis)
    lam = np.tile(base, (len(grid), 1))
    lam[:, sweep_user] = grid
    lam = rate_rows(lam, m_s)
    finite = np.isfinite(lam)
    if not finite.all():
        row, user = np.argwhere(~finite)[0]  # no NaN is left, so each entry here is inf
        raise ConfigurationError(f"rate of user {user + 1} must be finite, got {float(lam[row, user])}")
    return lam, sweep_user


@dataclass(frozen=True)
class SlotConfig:
    """Slot timing: duration ``T`` (s), sensing time ``tau`` (s), packet size ``b`` (bits)."""

    T: float = 1.0
    tau: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise ConfigurationError(f"slot duration T must be > 0, got {self.T!r}")
        if not (0.0 <= self.tau < self.T):
            raise ConfigurationError(f"sensing time tau must satisfy 0 <= tau < T, got {self.tau!r}")
        if not self.b > 0:
            raise ConfigurationError(f"packet size b must be > 0, got {self.b!r}")


@dataclass(frozen=True)
class PrimaryBand:
    """One licensed band and its primary user's queue parameters.

    Exactly one parameter set must be populated:

    * physical: ``bandwidth_W`` (0 denotes a virtual band), ``arrival_rate_lambda_p``,
      ``gamma_p`` (mean SNR), ``sigma2_p`` (mean channel gain);
    * abstract: ``availability_pi`` plus optional ``out_complement_p`` (defaults to 1,
      i.e. the primary link never fails). The primary arrival rate is then derived
      as ``(1 - pi) * out_complement_p`` so a simulated queue reproduces ``pi``.
    """

    bandwidth_W: float | None = None
    arrival_rate_lambda_p: float | None = None
    gamma_p: float | None = None
    sigma2_p: float | None = None
    out_complement_p: float | None = None
    availability_pi: float | None = None

    def __post_init__(self) -> None:
        physical = self.gamma_p is not None or self.sigma2_p is not None
        abstract = self.availability_pi is not None or self.out_complement_p is not None
        if physical and abstract:
            raise ConfigurationError("band mixes physical link parameters with abstract overrides")
        if physical:
            if self.gamma_p is None or self.sigma2_p is None:
                raise ConfigurationError("physical band needs both gamma_p and sigma2_p")
            if not (self.gamma_p > 0 and self.sigma2_p > 0):
                raise ConfigurationError("gamma_p and sigma2_p must be > 0")
            if self.bandwidth_W is None or not self.bandwidth_W >= 0:
                raise ConfigurationError("physical band needs bandwidth_W >= 0")
            if self.arrival_rate_lambda_p is None:
                raise ConfigurationError("physical band needs arrival_rate_lambda_p")
            _check_prob(self.arrival_rate_lambda_p, "arrival_rate_lambda_p")
        elif abstract:
            if self.availability_pi is None:
                raise ConfigurationError("abstract band needs availability_pi")
            _check_prob(self.availability_pi, "availability_pi")
            if self.out_complement_p is not None:
                _check_prob(self.out_complement_p, "out_complement_p")
            if self.arrival_rate_lambda_p is not None:
                raise ConfigurationError(
                    "abstract band derives the primary arrival rate from availability_pi; "
                    "do not give arrival_rate_lambda_p"
                )
            if self.bandwidth_W is not None and not self.bandwidth_W >= 0:
                raise ConfigurationError("bandwidth_W must be >= 0")
        else:
            raise ConfigurationError("band needs physical parameters or abstract overrides")

    @property
    def mode(self) -> str:
        return "physical" if self.gamma_p is not None else "abstract"

    @property
    def is_virtual(self) -> bool:
        """Zero-bandwidth bands carry no traffic (service rate identically zero)."""
        return self.bandwidth_W == 0


@dataclass(frozen=True)
class SecondaryUser:
    """One buffered secondary user.

    Physical mode carries ``gamma_s``/``sigma2_s``; abstract mode carries
    ``out_complement_row``, the per-band probabilities of correct reception.
    """

    arrival_rate_lambda_s: float = 0.0
    gamma_s: float | None = None
    sigma2_s: float | None = None
    out_complement_row: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _check_prob(self.arrival_rate_lambda_s, "arrival_rate_lambda_s")
        physical = self.gamma_s is not None or self.sigma2_s is not None
        abstract = self.out_complement_row is not None
        if physical and abstract:
            raise ConfigurationError("user mixes physical link parameters with abstract overrides")
        if physical:
            if self.gamma_s is None or self.sigma2_s is None:
                raise ConfigurationError("physical user needs both gamma_s and sigma2_s")
            if not (self.gamma_s > 0 and self.sigma2_s > 0):
                raise ConfigurationError("gamma_s and sigma2_s must be > 0")
        elif abstract:
            object.__setattr__(self, "out_complement_row", tuple(float(p) for p in self.out_complement_row))
            for i, p in enumerate(self.out_complement_row):
                _check_prob(p, f"out_complement_row[{i}]")
        else:
            raise ConfigurationError("user needs physical parameters or an out_complement_row")

    @property
    def mode(self) -> str:
        return "physical" if self.gamma_s is not None else "abstract"


@dataclass(frozen=True)
class Scenario:
    """Full network description: slot timing, M_p bands, M_s users."""

    slot: SlotConfig
    bands: tuple[PrimaryBand, ...]
    users: tuple[SecondaryUser, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", tuple(self.bands))
        object.__setattr__(self, "users", tuple(self.users))
        if len(self.bands) < 1 or len(self.users) < 1:
            raise ConfigurationError("scenario needs at least one band and one user")
        modes = {b.mode for b in self.bands} | {u.mode for u in self.users}
        if len(modes) != 1:
            raise ConfigurationError("scenario mixes physical and abstract input modes")
        if self.mode == "abstract":
            for k, u in enumerate(self.users):
                if len(u.out_complement_row) != self.m_p:
                    raise ConfigurationError(
                        f"users[{k}].out_complement_row has length {len(u.out_complement_row)}, "
                        f"expected M_p = {self.m_p}"
                    )

    @property
    def m_p(self) -> int:
        return len(self.bands)

    @property
    def m_s(self) -> int:
        return len(self.users)

    @property
    def mode(self) -> str:
        return self.bands[0].mode

    @property
    def arrival_rates(self) -> tuple[float, ...]:
        return tuple(u.arrival_rate_lambda_s for u in self.users)


@dataclass(frozen=True)
class RateMatrix:
    """Derived per-pair service rates mu[j, k] = pi[j] * Pbar_out(j, s_k), plus mu_p and pi."""

    mu: np.ndarray
    mu_p: np.ndarray
    pi: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mu_p", np.asarray(self.mu_p, dtype=float))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        if mu.ndim != 2:
            raise ConfigurationError("mu must be an M_p x M_s matrix")
        if self.mu_p.shape != (mu.shape[0],) or self.pi.shape != (mu.shape[0],):
            raise ConfigurationError("mu_p and pi must have one entry per band")
        for arr, name in ((mu, "mu"), (self.mu_p, "mu_p"), (self.pi, "pi")):
            check_unit_interval(arr, name)

    @property
    def m_p(self) -> int:
        return self.mu.shape[0]

    @property
    def m_s(self) -> int:
        return self.mu.shape[1]


@dataclass(frozen=True)
class LinkParams:
    """Scenario resolved to simulation-level quantities.

    ``p_success[j, k]`` is the probability a transmission of user k on band j is
    decoded (complement of outage); ``mu_p``/``lambda_p`` drive the primary
    queues; ``pi`` is the stationary availability of each band.
    """

    p_success: np.ndarray
    mu_p: np.ndarray
    lambda_p: np.ndarray
    lambda_s: np.ndarray
    pi: np.ndarray


def secondary_outage_complement(slot: SlotConfig, W: float, gamma: float, sigma2: float) -> float:
    """Probability of correct packet reception for a secondary link.

    The secondary transmission is squeezed into ``T - tau`` seconds, which raises
    the rate and hence the outage probability. A zero-bandwidth (virtual) band
    returns 0.
    """
    if not W >= 0:
        raise ConfigurationError(f"bandwidth must be >= 0, got {W!r}")
    if W == 0:
        return 0.0
    if not (gamma > 0 and sigma2 > 0):
        raise ConfigurationError("gamma and sigma2 must be > 0")
    exponent = slot.b / (slot.T * W * (1.0 - slot.tau / slot.T))
    return math.exp(-(2.0 ** exponent - 1.0) / (gamma * sigma2))


def primary_outage_complement(slot: SlotConfig, W: float, gamma: float, sigma2: float) -> float:
    """Probability of correct packet reception for a primary link: the secondary
    formula with no sensing time (full-slot transmission)."""
    return secondary_outage_complement(replace(slot, tau=0.0), W, gamma, sigma2)


def band_availability(lambda_p: float, mu_p: float) -> float:
    """Stationary probability that a primary band is idle: 1 - min(lambda/mu, 1).

    lambda_p = 0 gives 1 even for mu_p = 0 (an always-empty queue); a saturated
    or overloaded queue gives 0.
    """
    if not (lambda_p >= 0 and mu_p >= 0):
        raise ConfigurationError("arrival and service rates must be >= 0")
    if lambda_p == 0:
        return 1.0
    if mu_p == 0:
        return 0.0
    return 1.0 - min(lambda_p / mu_p, 1.0)


def resolve_links(scenario: Scenario) -> LinkParams:
    """Resolve either input mode to concrete link/queue parameters."""
    m_p, m_s = scenario.m_p, scenario.m_s
    p_success = np.zeros((m_p, m_s))
    mu_p = np.zeros(m_p)
    lambda_p = np.zeros(m_p)
    pi = np.zeros(m_p)
    if scenario.mode == "physical":
        for j, band in enumerate(scenario.bands):
            mu_p[j] = primary_outage_complement(scenario.slot, band.bandwidth_W, band.gamma_p, band.sigma2_p)
            lambda_p[j] = band.arrival_rate_lambda_p
            pi[j] = band_availability(lambda_p[j], mu_p[j])
            for k, user in enumerate(scenario.users):
                p_success[j, k] = secondary_outage_complement(
                    scenario.slot, band.bandwidth_W, user.gamma_s, user.sigma2_s
                )
    else:
        for j, band in enumerate(scenario.bands):
            mu_p[j] = 1.0 if band.out_complement_p is None else band.out_complement_p
            pi[j] = band.availability_pi
            lambda_p[j] = (1.0 - pi[j]) * mu_p[j]
            if not band.is_virtual:
                for k, user in enumerate(scenario.users):
                    p_success[j, k] = user.out_complement_row[j]
    lambda_s = np.array([u.arrival_rate_lambda_s for u in scenario.users])
    return LinkParams(p_success=p_success, mu_p=mu_p, lambda_p=lambda_p, lambda_s=lambda_s, pi=pi)


def rate_matrix(scenario: Scenario) -> RateMatrix:
    """Per-pair mean service rates mu[j, k] = pi[j] * Pbar_out(j, s_k)."""
    links = resolve_links(scenario)
    return RateMatrix(mu=links.pi[:, None] * links.p_success, mu_p=links.mu_p, pi=links.pi)


def secondary_service_rate(omega, rates: RateMatrix, k: int) -> float:
    """Mean service rate of user k under assignment fractions ``omega``: sum_j omega[j,k]*mu[j,k]."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != rates.mu.shape:
        raise ConfigurationError(f"omega has shape {omega.shape}, expected {rates.mu.shape}")
    check_user_index(k, rates.m_s)
    return float(omega[:, k] @ rates.mu[:, k])


def permutation_count(m_p: int, m_s: int) -> int:
    """Number of orthogonal band-assignment permutations: max(M_p,M_s)! / |M_p-M_s|!."""
    if m_p < 1 or m_s < 1:
        raise ConfigurationError("need at least one band and one user")
    return math.perm(max(m_p, m_s), min(m_p, m_s))
