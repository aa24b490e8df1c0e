"""Envelope sweeps of the three systems, and the containment the paper proves between them.

The fixed region lies inside S_hat, and S_hat inside S. ``envelope`` sweeps
one system's envelope; ``compare`` sweeps all three on a 2x2 scenario, with
the envelopes of the two fixed mappings, and flags each grid point where the
containment fails (``containment_flags``). Both check their grid once, with
``model.sweep_rates``, and hand the checked rows to each system's
``sweep_rows`` (``shat_rows`` for S_hat); ``compare`` takes the best fixed
envelope from the sweeps of the two fixed mappings that a 2x2 scenario has.
They are the only sweeps that take a grid.
"""

from __future__ import annotations

from . import fixedalloc, orthogonal, randalloc
from .model import ConfigurationError, RateMatrix, sweep_rates

# fixed <= S compares an LP optimum with a closure rate, so it needs only
# rounding slack. The 2e-3 of the two S_hat relations dates from bisected
# S_hat sections; the closed-form sections sit far inside it, but it stays so
# that no ``compare`` changes its exit code.
_GRID_TOL = 2e-3
_ANALYTIC_TOL = 1e-9


def envelope(rates: RateMatrix, system: str, axis: int, grid, others=None, sweep_user=None) -> list[float | None]:
    """User ``axis``'s envelope of ``system`` ("S", "S_hat" or "fixed") at each point of ``grid``.

    The arguments follow ``model.sweep_rates``, which checks them once for
    every system before the system's checked-rows function runs; the S_hat
    sweep is 2 users on 1-2 bands only. An entry is None where the grid point
    is infeasible.
    """
    if system not in ("S", "S_hat", "fixed"):
        raise ConfigurationError(f"unknown system {system!r}; choose S, S_hat or fixed")
    lam, sweep = sweep_rates(rates.m_s, axis, grid, others, sweep_user)
    if system == "S":
        return orthogonal.sweep_rows(rates, axis, lam, sweep)
    if system == "S_hat":
        return randalloc.shat_rows(rates, axis, lam, sweep)
    return fixedalloc.sweep_rows(rates, axis, lam, sweep, None)


def _exceeds(inner, outer, tol: float) -> bool:
    """Whether a smaller region's value lies outside the larger region's (None: infeasible)."""
    return inner is not None and (outer is None or inner > outer + tol)


def containment_flags(s, s_hat, fixed) -> list[list[str]]:
    """The containment relations each grid point breaks, from its S, S_hat and fixed envelope values.

    A value is None where that system cannot carry the grid point, so a
    feasible value next to None in a larger region breaks the containment.
    """
    return [[name for name, broken in (("fixed>S_hat", _exceeds(fixed_val, shat_val, _GRID_TOL)),
                                       ("S_hat>S", _exceeds(shat_val, s_val, _GRID_TOL)),
                                       ("fixed>S", _exceeds(fixed_val, s_val, _ANALYTIC_TOL))) if broken]
            for s_val, shat_val, fixed_val in zip(s, s_hat, fixed)]


def compare(rates: RateMatrix, axis: int, grid) -> tuple[dict[str, list[float | None]], list[list[str]]]:
    """A 2x2 sweep of user ``axis``'s envelope along the other user's rate, in every system.

    Returns the columns S, S_hat, fixed_best (the best fixed mapping),
    fixed_d12 and fixed_d21 (each fixed mapping alone), and the
    ``containment_flags`` of each grid point. fixed_best is the elementwise
    maximum of fixed_d12 and fixed_d21 (None read as -inf, ties to fixed_d12):
    each value of the step function over all mappings is the largest
    mu[m_axis, axis] among the mappings whose threshold reaches the grid
    point, so the two agree float for float.
    """
    if rates.m_s != 2 or rates.m_p != 2:
        raise ConfigurationError("compare needs a 2x2 scenario (2 bands, 2 users)")
    lam, sweep = sweep_rates(2, axis, grid)
    d12, d21 = (fixedalloc.sweep_rows(rates, axis, lam, sweep, fixedalloc.FixedMapping(assignment))
                for assignment in ((1, 2), (2, 1)))
    columns = {"S": orthogonal.sweep_rows(rates, axis, lam, sweep),
               "S_hat": randalloc.shat_rows(rates, axis, lam, sweep),
               "fixed_best": [b if _exceeds(b, a, 0.0) else a for a, b in zip(d12, d21)],
               "fixed_d12": d12, "fixed_d21": d21}
    return columns, containment_flags(columns["S"], columns["S_hat"], columns["fixed_best"])
