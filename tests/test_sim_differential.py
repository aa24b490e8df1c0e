"""The blocked simulator engine against the slot-by-slot reference loop.

``oracles.reference_run`` is the per-slot loop, in its event order, reading
the same pre-drawn stream rows. Every run compares the whole result with
``==``: the end-of-slot trace of every slot (``trace_stride=1``), the queue
counters, post-warmup departures, empty fractions, collisions and verdicts.
Runs cover the reference 2x2 scenario, the shipped 5x4 one, one band shared by
two users (the padded S_hat case), one band shared by three users (so the
contention sweeps update more than two users in turn) and a scenario with a
declared virtual band; rates at zero, light, beyond the boundary and
saturated; all three policies; the engine's block length patched to 1 and 7 as
well as its default; the heaviest contention point of the sim-boundary-2x2
benchmark over more than two default blocks; and saturated runs whose backlogs
carry across more than three default blocks, so the engine's int32 backlogs
start blocks with thousands of packets queued.
"""

import functools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bandalloc import cli, fixedalloc, model, orthogonal, randalloc, schedule, sim
from bandalloc.model import ConfigurationError

from conftest import ref_2x2_scenario
from oracles import reference_run, to_json

ROOT = Path(__file__).resolve().parent.parent


def _one_band(*links):
    bands = (model.PrimaryBand(availability_pi=0.6),)
    users = tuple(model.SecondaryUser(arrival_rate_lambda_s=0.0, out_complement_row=(p,)) for p in links)
    return model.Scenario(slot=model.SlotConfig(), bands=bands, users=users)


def _virtual_band():
    bands = (
        model.PrimaryBand(availability_pi=1.0, bandwidth_W=0.0),
        model.PrimaryBand(availability_pi=0.5),
        model.PrimaryBand(availability_pi=0.8),
    )
    users = (
        model.SecondaryUser(arrival_rate_lambda_s=0.0, out_complement_row=(0.0, 0.8, 0.6)),
        model.SecondaryUser(arrival_rate_lambda_s=0.0, out_complement_row=(0.0, 0.7, 0.9)),
    )
    return model.Scenario(slot=model.SlotConfig(), bands=bands, users=users)


SCENARIOS = {
    "2x2": (ref_2x2_scenario(), [(0.1, 0.2), (0.4, 0.53), (0.36, 0.48)]),
    "5x4": (cli.load_scenario(str(ROOT / "scenarios" / "five_by_four.json"))[0],
            [(0.05, 0.1, 0.05, 0.1), (0.3, 0.3, 0.3, 0.3)]),
    "one-band": (_one_band(0.7, 0.9), [(0.05, 0.1), (0.2, 0.3)]),
    "three-on-one": (_one_band(0.7, 0.9, 0.8), [(0.05, 0.1, 0.05), (0.2, 0.3, 0.1)]),
    "virtual": (_virtual_band(), [(0.1, 0.2), (0.5, 0.7)]),
}
# Selection matrices beyond the derived ones: incomplete columns (a user may
# pick no band) and weight on the virtual band.
EXTRA_SELECTIONS = {
    "2x2": [np.array([[0.3, 0.5], [0.5, 0.2]])],
    "virtual": [np.array([[0.2, 0.3], [0.5, 0.0], [0.3, 0.7]])],
    "three-on-one": [np.array([[0.5, 0.8, 1.0]])],
}
SEEDS = (3, -7)


def _with_rates(scenario, lam):
    users = tuple(replace(u, arrival_rate_lambda_s=float(v)) for u, v in zip(scenario.users, lam))
    return replace(scenario, users=users)


@functools.lru_cache(maxsize=None)
def cases(name):
    """(label, scenario, policy) for every rate vector and policy of one scenario."""
    scenario, rate_list = SCENARIOS[name]
    rates = model.rate_matrix(scenario)
    m_s = scenario.m_s
    out = []
    for lam in [(0.0,) * m_s, *rate_list, (1.0,) * m_s]:
        omega = orthogonal.max_slack_assignment(rates, lam)
        policies = [
            sim.Policy.orthogonal(schedule.schedule_from_assignment(omega)[1]),
            sim.Policy.random(randalloc.selection_for_rates(rates.mu, lam)),
        ]
        policies += [sim.Policy.random(g) for g in EXTRA_SELECTIONS.get(name, [])]
        if scenario.m_p >= m_s:
            policies.append(sim.Policy.fixed(fixedalloc.best_margin_mapping(rates, lam)))
        out += [(f"{name} {policy.kind} {lam}", _with_rates(scenario, lam), policy) for policy in policies]
    return tuple(out)


def assert_same(scenario, policy, config, label):
    engine = sim.run(scenario, policy, config)
    reference = reference_run(scenario, policy, config)
    assert engine.to_dict() == reference.to_dict(), label
    assert engine == reference, label


# Slots per run for each block length: every run spans several blocks, and the
# short blocks keep their runs short because the engine pays per block.
BLOCKS = {1: 24, 7: 110, sim._BLOCK: 500}


@pytest.mark.parametrize("block", list(BLOCKS), ids=lambda b: f"block{b}")
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_engine_matches_reference_loop(monkeypatch, name, block):
    monkeypatch.setattr(sim, "_BLOCK", block)
    slots = BLOCKS[block]
    runs = 0
    for i, (label, scenario, policy) in enumerate(cases(name)):
        for seed in SEEDS:
            n = slots + i % 7  # run lengths that end inside a block
            config = sim.SimConfig(n_slots=n, seed=seed, warmup=(seed % 5) * n // 10, trace_stride=1)
            assert_same(scenario, policy, config, (label, seed, block))
            runs += 1
    assert runs >= 16


def test_runs_longer_than_one_default_block():
    for label, scenario, policy in [c for c in cases("2x2") if "(0.4, 0.53)" in c[0]]:
        config = sim.SimConfig(n_slots=sim._BLOCK + 700, seed=11, trace_stride=1)
        assert_same(scenario, policy, config, label)


def test_output_does_not_depend_on_block_length(monkeypatch):
    _, scenario, policy = next(c for c in cases("2x2") if c[0] == "2x2 random (0.36, 0.48)")
    config = sim.SimConfig(n_slots=1100, seed=5)
    results = []
    for block in (1000, 7, 4096, 8192, 1100):
        monkeypatch.setattr(sim, "_BLOCK", block)
        results.append(to_json(sim.run(scenario, policy, config)))
    assert len(set(results)) == 1


def test_contention_at_the_shat_boundary():
    # 0.9x of the reference S_hat boundary at the lambda_s1 of the
    # sim-boundary-2x2 benchmark, whose contention fixed point takes the most
    # sweeps there
    scenario = ref_2x2_scenario()
    rates = model.rate_matrix(scenario)
    lam1 = float(np.linspace(0.0, 0.44, 14)[7])
    lam = (0.9 * lam1, 0.9 * randalloc.shat_section_lambda2(rates.mu, lam1))
    policy = sim.Policy.random(randalloc.selection_for_rates(rates.mu, lam))
    config = sim.SimConfig(n_slots=2 * sim._BLOCK + 300, seed=4, trace_stride=1)
    assert_same(_with_rates(scenario, lam), policy, config, lam)


def test_saturated_backlog_across_blocks():
    runs = [c for c in cases("2x2") if c[0].endswith("(1.0, 1.0)")]
    assert {policy.kind for _, _, policy in runs} == {"orthogonal", "random", "fixed"}
    for label, scenario, policy in runs:
        config = sim.SimConfig(n_slots=3 * sim._BLOCK + 500, seed=12, trace_stride=1)
        engine = sim.run(scenario, policy, config)
        assert engine == reference_run(scenario, policy, config), label
        assert min(q.final_length for q in engine.secondary) > config.n_slots // 4, label


def test_run_length_fits_int32_backlogs():
    assert sim.SimConfig(n_slots=2**31 - 1, seed=0).n_slots == 2**31 - 1
    with pytest.raises(ConfigurationError):
        sim.SimConfig(n_slots=2**31, seed=0)
