import json

import numpy as np
import pytest

from bandalloc import model, randalloc, regions

def ref_2x2_scenario(lam1: float = 0.0, lam2: float = 0.0) -> model.Scenario:
    """The two-band/two-user comparison scenario: pi=(0.25, 0.875), Pbar rows per band."""
    bands = (
        model.PrimaryBand(availability_pi=0.25),
        model.PrimaryBand(availability_pi=0.875),
    )
    users = (
        model.SecondaryUser(arrival_rate_lambda_s=lam1, out_complement_row=(0.7, 0.8)),
        model.SecondaryUser(arrival_rate_lambda_s=lam2, out_complement_row=(0.85, 0.9)),
    )
    return model.Scenario(slot=model.SlotConfig(), bands=bands, users=users)


@pytest.fixture
def ref_2x2():
    return ref_2x2_scenario()


@pytest.fixture
def ref_2x2_rates():
    return model.rate_matrix(ref_2x2_scenario())


@pytest.fixture
def ref_2x2_mu(ref_2x2_rates):
    return ref_2x2_rates.mu


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of rates in each call of either dominant-1 kernel from here on, in call order.

    The kernels are the forward ``randalloc._dominant1_envelopes`` and the
    inverse ``randalloc._dominant1_sections``.
    """
    sizes = []
    for name in ("_dominant1_envelopes", "_dominant1_sections"):
        def counted(mu, lambdas, kernel=getattr(randalloc, name)):
            sizes.append(len(lambdas))
            return kernel(mu, lambdas)

        monkeypatch.setattr(randalloc, name, counted)
    return sizes


@pytest.fixture
def ref_2x2_file(tmp_path):
    doc = {
        "mode": "abstract",
        "bands": [{"availability_pi": 0.25}, {"availability_pi": 0.875}],
        "users": [
            {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.7, 0.8]},
            {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.85, 0.9]},
        ],
    }
    path = tmp_path / "ref_2x2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def shat_sweep(mu, axis: int, grid) -> list[float | None]:
    """The S_hat sweep of ``regions.envelope`` on a raw ``mu`` (2 users on 1-2 bands)."""
    mu = np.asarray(mu, dtype=float)
    rates = model.RateMatrix(mu=mu, mu_p=np.ones(mu.shape[0]), pi=np.ones(mu.shape[0]))
    return regions.envelope(rates, "S_hat", axis, grid)


def random_rate_matrix(rng, m_p: int = 2, m_s: int = 2, low: float = 0.05) -> model.RateMatrix:
    """Random instance with mu in (low, 1); pi/mu_p are placeholders consistent with mu."""
    mu = rng.uniform(low, 1.0, (m_p, m_s))
    return model.RateMatrix(mu=mu, mu_p=np.ones(m_p), pi=mu.max(axis=1))
