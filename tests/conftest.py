import json

import numpy as np
import pytest

from bandalloc import model, randalloc

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
    """The number of rates in each ``randalloc._dominant1_envelopes`` call from here on."""
    sizes = []
    kernel = randalloc._dominant1_envelopes

    def counted(mu, lambdas):
        sizes.append(len(lambdas))
        return kernel(mu, lambdas)

    monkeypatch.setattr(randalloc, "_dominant1_envelopes", counted)
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


def random_rate_matrix(rng, m_p: int = 2, m_s: int = 2, low: float = 0.05) -> model.RateMatrix:
    """Random instance with mu in (low, 1); pi/mu_p are placeholders consistent with mu."""
    mu = rng.uniform(low, 1.0, (m_p, m_s))
    return model.RateMatrix(mu=mu, mu_p=np.ones(m_p), pi=mu.max(axis=1))
