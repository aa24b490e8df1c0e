"""Stability regions of cognitive-radio band-allocation systems.

Modules: model (domain types and rate formulas), optim (dense simplex,
fractional maximizer), orthogonal (system S envelopes),
schedule (Birkhoff-von Neumann permutation schedules), randalloc (random
selection, dominant systems), fixedalloc (fixed assignments), sim (slot-level
Monte Carlo), cli (command-line front end).
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ConfigurationError,
    PrimaryBand,
    RateMatrix,
    Scenario,
    SecondaryUser,
    SlotConfig,
    band_availability,
    permutation_count,
    primary_outage_complement,
    rate_matrix,
    secondary_outage_complement,
    secondary_service_rate,
)
