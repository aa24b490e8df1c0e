import numpy as np
import pytest

from bandalloc import fixedalloc, model, orthogonal, randalloc, schedule, sim
from bandalloc.model import ConfigurationError
from bandalloc.schedule import PermutationSchedule

from conftest import ref_2x2_scenario
from oracles import (
    assess_stability,
    conditional_service_rate,
    polyfit_verdict,
    reference_run,
    to_json,
    trace_csv,
)


def ref_2x2_schedule(lam1=0.4):
    rates = model.rate_matrix(ref_2x2_scenario())
    point = orthogonal.envelope_point(rates, [lam1, 0.0], 1)
    _, sched = schedule.schedule_from_assignment(point.omega_star)
    return rates, point, sched


def single_band_scenario(lam_p, mu_p, lam_s, pbar):
    bands = (model.PrimaryBand(availability_pi=1.0 - lam_p / mu_p if mu_p else 0.0,
                               out_complement_p=mu_p),)
    users = (model.SecondaryUser(arrival_rate_lambda_s=lam_s, out_complement_row=(pbar,)),)
    return model.Scenario(slot=model.SlotConfig(), bands=bands, users=users)


class TestRunBasics:
    def test_all_zero_arrivals(self):
        sc = ref_2x2_scenario(0.0, 0.0)
        bands = tuple(model.PrimaryBand(availability_pi=1.0) for _ in range(2))
        sc = model.Scenario(slot=sc.slot, bands=bands, users=sc.users)
        _, _, sched = ref_2x2_schedule()
        res = sim.run(sc, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=5000, seed=1))
        assert all(q.arrivals == 0 and q.departures == 0 and q.final_length == 0
                   for q in res.primary + res.secondary)
        assert res.verdicts_secondary == ("stable", "stable")

    def test_primary_throughput_bernoulli(self):
        sc = single_band_scenario(lam_p=0.5, mu_p=1.0, lam_s=0.0, pbar=0.7)
        sched1 = PermutationSchedule((((1,), 1.0),))
        res = sim.run(sc, sim.Policy.orthogonal(sched1), sim.SimConfig(n_slots=100_000, seed=2))
        q = res.primary[0]
        assert q.departures / res.n_slots == pytest.approx(0.5, abs=0.01)

    def test_conservation_every_queue(self):
        # sim.run counts departures as arrivals minus the final backlog, so
        # conservation alone would hold by construction; the slot-by-slot
        # reference loop counts every departure, and every post-warmup one, itself.
        sc = ref_2x2_scenario(0.3, 0.4)
        rates, lam = model.rate_matrix(sc), (0.3, 0.4)
        _, _, sched = ref_2x2_schedule()
        config = sim.SimConfig(n_slots=20_000, seed=3)
        for policy in (sim.Policy.orthogonal(sched),
                       sim.Policy.random(randalloc.selection_for_rates(rates.mu, lam)),
                       sim.Policy.fixed(fixedalloc.best_margin_mapping(rates, lam))):
            res, ref = sim.run(sc, policy, config), reference_run(sc, policy, config)
            for q, want in zip(res.primary + res.secondary, ref.primary + ref.secondary):
                assert q.arrivals == q.departures + q.final_length
                assert q.departures == want.departures, policy.kind
            assert res.post_warmup_departures == ref.post_warmup_departures, policy.kind

    def test_inside_point_stable_with_flow_conservation(self):
        rates, point, sched = ref_2x2_schedule(0.4)
        lam2 = 0.9 * point.max_rate
        sc = ref_2x2_scenario(0.9 * 0.4, lam2)
        res = sim.run(sc, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=100_000, seed=4))
        assert res.verdicts_secondary == ("stable", "stable")
        thr = res.secondary_throughput
        assert thr[1] == pytest.approx(lam2, abs=0.01)

    def test_outside_point_unstable(self):
        rates, point, sched = ref_2x2_schedule(0.4)
        sc = ref_2x2_scenario(1.1 * 0.4, 1.1 * point.max_rate)
        res = sim.run(sc, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=100_000, seed=5))
        assert "unstable" in res.verdicts_secondary

    def test_dimension_mismatch(self):
        sc = ref_2x2_scenario()
        with pytest.raises(ConfigurationError):
            sim.run(sc, sim.Policy.fixed((1, 2, 3)), sim.SimConfig(n_slots=100, seed=0))
        with pytest.raises(ConfigurationError):
            sim.run(sc, sim.Policy.random(np.full((3, 2), 0.3)), sim.SimConfig(n_slots=100, seed=0))


class TestEventOrdering:
    def test_late_arrival_never_served_same_slot(self):
        # deterministic service, arrival every slot: exactly one packet must remain
        sc = single_band_scenario(lam_p=1.0, mu_p=1.0, lam_s=0.0, pbar=1.0)
        res = sim.run(sc, sim.Policy.fixed((1,)), sim.SimConfig(n_slots=1000, seed=6))
        q = res.primary[0]
        assert q.arrivals == 1000
        assert q.final_length == 1
        assert q.departures == 999

    def test_secondary_sees_slot_start_availability(self):
        # PU queue empties during slot t; SU may transmit only from t+1 onward,
        # so with always-busy primary the SU never departs.
        sc = single_band_scenario(lam_p=1.0, mu_p=1.0, lam_s=1.0, pbar=1.0)
        res = sim.run(sc, sim.Policy.fixed((1,)), sim.SimConfig(n_slots=1000, seed=7))
        assert res.secondary[0].departures == 0


class TestEmpiricalRates:
    def test_availability_matches_pi(self):
        sc = ref_2x2_scenario(0.0, 0.0)
        _, _, sched = ref_2x2_schedule()
        res = sim.run(sc, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=100_000, seed=8))
        assert res.primary_empty_fraction[0] == pytest.approx(0.25, abs=0.01)
        assert res.primary_empty_fraction[1] == pytest.approx(0.875, abs=0.01)

    def test_saturated_single_user_one_free_band(self):
        sc = single_band_scenario(lam_p=0.0, mu_p=1.0, lam_s=1.0, pbar=0.7)
        res = sim.run(sc, sim.Policy.fixed((1,)), sim.SimConfig(n_slots=100_000, seed=9))
        assert res.secondary_throughput[0] == pytest.approx(0.7, abs=0.01)

    def test_saturated_orthogonal_matches_service_formula(self):
        rates, point, sched = ref_2x2_schedule(0.4)
        sc = ref_2x2_scenario(1.0, 1.0)
        res = sim.run(sc, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=100_000, seed=10))
        thr = res.secondary_throughput
        for k in range(2):
            analytic = model.secondary_service_rate(point.omega_star.omega, rates, k)
            assert thr[k] == pytest.approx(analytic, abs=0.01)

    def test_saturated_random_matches_collision_formula(self):
        rates = model.rate_matrix(ref_2x2_scenario())
        gamma = randalloc.SelectionMatrix(np.array([[0.4, 1.0], [0.6, 0.0]]))
        sc = ref_2x2_scenario(1.0, 1.0)
        res = sim.run(sc, sim.Policy.random(gamma), sim.SimConfig(n_slots=100_000, seed=11))
        thr = res.secondary_throughput
        for k in range(2):
            analytic = conditional_service_rate(gamma, {0, 1}, rates, k)
            assert thr[k] == pytest.approx(analytic, abs=0.01)

    def test_two_saturated_users_one_band_always_collide(self):
        bands = (model.PrimaryBand(availability_pi=1.0),)
        users = tuple(
            model.SecondaryUser(arrival_rate_lambda_s=1.0, out_complement_row=(0.9,))
            for _ in range(2)
        )
        sc = model.Scenario(slot=model.SlotConfig(), bands=bands, users=users)
        gamma = randalloc.SelectionMatrix(np.ones((1, 2)))
        res = sim.run(sc, sim.Policy.random(gamma), sim.SimConfig(n_slots=20_000, seed=12))
        assert res.secondary[0].departures == 0
        assert res.secondary[1].departures == 0
        assert res.collision_count == 20_000 - 1  # both queues backlogged from slot 1 on


class TestVirtualBands:
    def test_declared_virtual_band_carries_nothing(self):
        bands = (
            model.PrimaryBand(availability_pi=1.0, bandwidth_W=0.0),
            model.PrimaryBand(availability_pi=1.0),
        )
        users = (
            model.SecondaryUser(arrival_rate_lambda_s=1.0, out_complement_row=(0.0, 0.9)),
        )
        sc = model.Scenario(slot=model.SlotConfig(), bands=bands, users=users)
        # user pinned to the virtual band: nothing ever departs
        res = sim.run(sc, sim.Policy.fixed((1,)), sim.SimConfig(n_slots=5000, seed=20))
        assert res.secondary[0].departures == 0
        assert res.verdicts_secondary == ("unstable",)
        # pinned to the live band instead: serviced at its link rate
        res = sim.run(sc, sim.Policy.fixed((2,)), sim.SimConfig(n_slots=100_000, seed=21))
        assert res.secondary_throughput[0] == pytest.approx(0.9, abs=0.01)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        sc = ref_2x2_scenario(0.3, 0.4)
        _, _, sched = ref_2x2_schedule()
        cfg = sim.SimConfig(n_slots=20_000, seed=13)
        a = sim.run(sc, sim.Policy.orthogonal(sched), cfg)
        b = sim.run(sc, sim.Policy.orthogonal(sched), cfg)
        assert to_json(a) == to_json(b)

    def test_primary_identical_across_policies(self):
        sc = ref_2x2_scenario(0.3, 0.2)
        _, _, sched = ref_2x2_schedule()
        cfg = sim.SimConfig(n_slots=20_000, seed=14)
        gamma = randalloc.SelectionMatrix(np.full((2, 2), 0.5))
        runs = [
            sim.run(sc, sim.Policy.orthogonal(sched), cfg),
            sim.run(sc, sim.Policy.random(gamma), cfg),
            sim.run(sc, sim.Policy.fixed((2, 1)), cfg),
        ]
        assert runs[0].primary == runs[1].primary == runs[2].primary
        assert runs[0].trace_primary == runs[1].trace_primary == runs[2].trace_primary

    def test_different_seeds_differ(self):
        sc = ref_2x2_scenario(0.3, 0.4)
        _, _, sched = ref_2x2_schedule()
        a = sim.run(sc, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=5000, seed=1))
        b = sim.run(sc, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=5000, seed=2))
        assert to_json(a) != to_json(b)


class TestVerdictsAndSerialization:
    def test_saturated_queue_unstable(self):
        sc = single_band_scenario(lam_p=0.0, mu_p=1.0, lam_s=1.0, pbar=0.5)
        res = sim.run(sc, sim.Policy.fixed((1,)), sim.SimConfig(n_slots=50_000, seed=15))
        assert res.verdicts_secondary == ("unstable",)

    def test_assess_stability_matches_run(self):
        sc = ref_2x2_scenario(0.3, 0.4)
        _, _, sched = ref_2x2_schedule()
        res = sim.run(sc, sim.Policy.orthogonal(sched), sim.SimConfig(n_slots=20_000, seed=16))
        prim, sec = assess_stability(res)
        assert prim == res.verdicts_primary
        assert sec == res.verdicts_secondary

    def test_short_trace_inconclusive(self):
        sc = single_band_scenario(lam_p=0.0, mu_p=1.0, lam_s=0.5, pbar=1.0)
        res = sim.run(sc, sim.Policy.fixed((1,)),
                      sim.SimConfig(n_slots=100, seed=17, trace_stride=50))
        assert res.verdicts_secondary == ("inconclusive",)

    def test_trace_csv_shape(self):
        sc = ref_2x2_scenario(0.2, 0.2)
        _, _, sched = ref_2x2_schedule()
        res = sim.run(sc, sim.Policy.orthogonal(sched),
                      sim.SimConfig(n_slots=1000, seed=18, trace_stride=100))
        lines = trace_csv(res).strip().split("\n")
        assert lines[0] == "slot,qp_1,qp_2,qs_1,qs_2"
        assert len(lines) == 1 + 10

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            sim.SimConfig(n_slots=0, seed=0)
        with pytest.raises(ConfigurationError):
            sim.SimConfig(n_slots=10, seed=0, warmup=10)


@pytest.fixture
def verdict_calls(monkeypatch):
    """(arguments, verdict) of every ``sim._verdict`` call from here on."""
    calls = []
    verdict = sim._verdict

    def recorded(*args):
        calls.append((args, verdict(*args)))
        return calls[-1][1]

    monkeypatch.setattr(sim, "_verdict", recorded)
    return calls


class TestVerdictSlope:
    """The closed-form slope of ``sim._verdict`` against the np.polyfit one it replaced."""

    def test_same_verdicts_on_criterion_7_runs(self, verdict_calls):
        from test_acceptance import _criterion7_points

        for pts in _criterion7_points().values():
            for i, (boundary, policy) in enumerate(pts):
                sim.run(ref_2x2_scenario(*(0.9 * boundary)), policy,
                        sim.SimConfig(n_slots=100_000, seed=9_000 + i))
                sim.run(ref_2x2_scenario(*np.minimum(1.1 * boundary, 1.0)), policy,
                        sim.SimConfig(n_slots=100_000, seed=9_500 + i))
        assert len(verdict_calls) == 3 * 20 * 2 * 4
        for args, verdict in verdict_calls:
            assert verdict == polyfit_verdict(*args)

    def test_same_verdicts_on_golden_simulate_commands(self, verdict_calls):
        from test_cli_golden import COMMANDS, run_command

        commands = [argv for argv in COMMANDS if argv[0] == "simulate"]
        for argv in commands:
            assert run_command(argv)["exit"] == 0, argv
        assert len(commands) == 10 and len(verdict_calls) == 4 * 7 + 9 * 3
        for args, verdict in verdict_calls:
            assert verdict == polyfit_verdict(*args)

    def test_exact_slope_at_the_thresholds(self):
        # Three points (0, s, 2s) at slots 0, 1, 2: every step of the closed
        # form is exact, so the verdict is that of s itself, strict on both
        # thresholds. np.polyfit lands 1-2 ulp high on these traces.
        for threshold, verdicts in ((sim.SLOPE_STABLE, ("stable", "inconclusive", "inconclusive")),
                                    (sim.SLOPE_UNSTABLE, ("inconclusive", "inconclusive", "unstable"))):
            slopes = (np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0))
            for s, want in zip(slopes, verdicts):
                assert sim._verdict([0, 1, 2], [0.0, s, 2 * s], 0, 100, 0) == want, s

    def test_slope_on_random_walks(self):
        # Integer backlogs on the trace slots of a 1e5-slot run: within 1e-12
        # of np.polyfit, and equal to the exact least-squares slope rounded once.
        rng = np.random.default_rng(20)
        slots = np.arange(49, 100_000, 50)
        xs = slots[slots >= 10_000]
        n = len(xs)
        for _ in range(1000):
            steps = rng.choice([-1, 0, 1], size=len(slots), p=rng.dirichlet([1, 1, 1]))
            trace = np.abs(np.cumsum(steps))
            ys = trace[slots >= 10_000]
            slope = sim._slope(xs, ys)
            fit = float(np.polyfit(xs, ys, 1)[0])
            assert abs(slope - fit) <= 1e-12 * abs(fit)
            sx, sy = int(xs.sum()), int(ys.sum())
            exact = (n * int(xs @ ys) - sx * sy) / (n * int(xs @ xs) - sx * sx)
            assert slope == exact
            for final in (0, 10**6):
                verdict = sim._verdict(slots, trace, 10_000, 100_000, final)
                assert verdict == polyfit_verdict(slots, trace, 10_000, 100_000, final)


def test_contention_reflections_at_the_shat_boundary(monkeypatch):
    # Row reflections under _contend in the 1e5-slot run at 0.9x of the
    # reference S_hat boundary, at the lambda_s1 of the sim-boundary-2x2
    # benchmark. Seed 1 took 234 with sweeps from "nobody backlogged" and
    # 4096-slot blocks.
    scenario = ref_2x2_scenario()
    mu = model.rate_matrix(scenario).mu
    lam1 = float(np.linspace(0.0, 0.44, 14)[7])
    lam = (0.9 * lam1, 0.9 * randalloc.shat_section_lambda2(mu, lam1))
    policy = sim.Policy.random(randalloc.selection_for_rates(mu, lam))
    reflect, contend = sim._reflect, sim._contend
    per_block = []
    contending = False

    def counted_reflect(*args):
        if contending:
            per_block[-1] += 1
        return reflect(*args)

    def counted_contend(*args):
        nonlocal contending
        per_block.append(0)
        contending = True
        try:
            return contend(*args)
        finally:
            contending = False

    monkeypatch.setattr(sim, "_reflect", counted_reflect)
    monkeypatch.setattr(sim, "_contend", counted_contend)
    sim.run(ref_2x2_scenario(*lam), policy, sim.SimConfig(n_slots=100_000, seed=1))
    assert len(per_block) == -(-100_000 // sim._BLOCK)
    assert sum(per_block) == 97 and sum(per_block) < 234 / 2
