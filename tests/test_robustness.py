"""Regression tests for boundary agreement between systems and for malformed input.

Every malformed command line or scenario must end in ``error: ...`` on stderr
and exit status 1, never in a traceback.
"""

import json
import math

import numpy as np
import pytest

from bandalloc import cli, fixedalloc, model, orthogonal, randalloc
from bandalloc.model import ConfigurationError, PrimaryBand, SecondaryUser, SlotConfig
from bandalloc.optim import LpProblem

from oracles import fully_symmetric_max, one_band_gamma_opt, one_band_region_check


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClosureEdge:
    def test_section_keeps_the_fixed_boundary_point(self, ref_2x2_rates):
        # 7 * 0.025 == 0.17500000000000002: the dominant-1 envelope at
        # lambda_s2 = 0.7875 reaches 0.175, within rounding of this rate, and
        # the fixed mapping d12 supports it, so S_hat must not fall below fixed.
        lam1 = 7 * 0.025
        fixed_value, _ = fixedalloc.best_fixed_max(ref_2x2_rates, [lam1, 0.0], 1)
        section = randalloc.shat_section_lambda2(ref_2x2_rates.mu, lam1)
        assert section == pytest.approx(fixed_value, abs=1e-12)

    def test_compare_grid_ending_on_the_edge_passes(self, ref_2x2_file, capsys):
        code, out, err = run_cli(capsys, "compare", "--scenario", ref_2x2_file,
                                 "--grid", "0:0.175:0.025", "--json")
        assert (code, err) == (0, "")
        assert not any(json.loads(out)["violations"])


def write_raw(tmp_path, raw: bytes) -> str:
    path = tmp_path / "scenario.json"
    path.write_bytes(raw)
    return str(path)


def reference_doc() -> dict:
    return {
        "mode": "abstract",
        "bands": [{"availability_pi": 0.25}, {"availability_pi": 0.875}],
        "users": [
            {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.7, 0.8]},
            {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.85, 0.9]},
        ],
    }


def physical_doc() -> dict:
    return {
        "mode": "physical",
        "slot": {"T": 1.0, "tau": 0.1, "b": 100.0},
        "bands": [{"bandwidth_W": 100.0, "arrival_rate_lambda_p": 0.2, "gamma_p": 10.0, "sigma2_p": 1.0}],
        "users": [{"arrival_rate_lambda_s": 0.1, "gamma_s": 10.0, "sigma2_s": 1.0}],
    }


def assert_error(capsys, *argv, expect: str) -> None:
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and expect in err


class TestMalformedArguments:
    @pytest.mark.parametrize("grid", ["0:0.7:nan", "0:0.7:inf", "0:inf:0.1", "nan:0.7:0.1", "-inf:0:0.1"])
    def test_non_finite_grid(self, ref_2x2_file, capsys, grid):
        assert_error(capsys, "envelope", "--scenario", ref_2x2_file, "--system", "S",
                     f"--grid={grid}", expect="finite")

    @pytest.mark.parametrize("grid", ["0:1:1e-9", "0:1e308:1e-300"])
    def test_grid_point_cap(self, ref_2x2_file, capsys, grid):
        assert_error(capsys, "compare", "--scenario", ref_2x2_file, f"--grid={grid}",
                     expect="more than 100000 points")

    def test_grid_point_cap_counts_the_stop_point(self, ref_2x2_file, capsys, monkeypatch):
        # 99999.5 / 1 steps give 100000 points plus the appended stop point,
        # which used to pass the cap; refused before any sweep runs
        assert len(cli._parse_grid("0:99999:1")) == 100_000
        monkeypatch.setattr(cli, "_envelope_report", None)
        assert_error(capsys, "envelope", "--scenario", ref_2x2_file, "--system", "S",
                     "--grid=0:99999.5:1", expect="more than 100000 points")

    @pytest.mark.parametrize("system", ["S", "S_hat", "fixed"])
    def test_negative_grid_start(self, ref_2x2_file, capsys, system):
        # fixed used to report a feasible envelope at lambda_s1 = -0.1
        assert_error(capsys, "envelope", "--scenario", ref_2x2_file, "--system", system,
                     "--grid=-0.1:0.1:0.1", expect="start >= 0")

    def test_slot_cap(self, ref_2x2_file, capsys, monkeypatch):
        # refused before any run is configured
        monkeypatch.setattr(cli.sim, "SimConfig", None)
        assert_error(capsys, "simulate", "--scenario", ref_2x2_file, "--system", "S",
                     "--seed", "1", f"--slots={10**8 + 1}", expect="exceeds the limit of 100000000")

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_fixed_rate(self, ref_2x2_file, capsys, rate):
        assert_error(capsys, "decompose", "--scenario", ref_2x2_file, "--fixed", f"1={rate}",
                     expect="finite")

    @pytest.mark.parametrize("command", ["envelope", "decompose", "compare"])
    def test_axis_zero(self, ref_2x2_file, capsys, command):
        # compare used to run --axis 0 as --axis 2
        extra = {"envelope": ["--system", "S", "--grid", "0:0.1:0.1"], "compare": ["--grid", "0:0.1:0.1"]}
        assert_error(capsys, command, "--scenario", ref_2x2_file, "--axis", "0", *extra.get(command, []),
                     expect="--axis user 0 out of range 1..2")

    @pytest.mark.parametrize("command", ["envelope", "decompose"])
    def test_axis_user_also_fixed(self, ref_2x2_file, capsys, command):
        # decompose used to drop the axis user's fixed rate
        extra = ["--system", "S", "--grid", "0:0.1:0.1"] if command == "envelope" else []
        assert_error(capsys, command, "--scenario", ref_2x2_file, "--axis", "2", "--fixed", "2=0.3,1=0.4",
                     *extra, expect="--axis user cannot also be fixed")

    @pytest.mark.parametrize("command", ["envelope", "decompose", "simulate"])
    def test_repeated_fixed_user(self, ref_2x2_file, capsys, command):
        # the last rate used to win silently: decompose reported the envelope
        # at lambda_s1 = 0.1
        extra = {"envelope": ["--system", "S", "--grid", "0:0.1:0.1"], "simulate": ["--system", "S", "--seed", "1"]}
        assert_error(capsys, command, "--scenario", ref_2x2_file, "--fixed", "1=0.4,1=0.1",
                     *extra.get(command, []), expect="--fixed user 1 is given twice")

    @pytest.mark.parametrize("target", ["directory", "missing_parent"])
    def test_unwritable_out(self, ref_2x2_file, tmp_path, capsys, target):
        # used to escape as IsADirectoryError / FileNotFoundError
        out = tmp_path if target == "directory" else tmp_path / "missing" / "x"
        assert_error(capsys, "rates", "--scenario", ref_2x2_file, "--out", str(out),
                     expect="cannot write output file")


class TestMalformedScenario:
    def bad(self, tmp_path, capsys, doc=None, raw=None, expect=""):
        raw = json.dumps(doc).encode() if raw is None else raw
        assert_error(capsys, "rates", "--scenario", write_raw(tmp_path, raw), expect=expect)

    @pytest.mark.parametrize("value", [True, "0.7", None, [0.7]])
    def test_non_number_in_row(self, tmp_path, capsys, value):
        doc = reference_doc()
        doc["users"][0]["out_complement_row"] = [value, 0.8]
        self.bad(tmp_path, capsys, doc, expect="users[0]: out_complement_row[0] must be a finite number")

    def test_boolean_arrival_rate(self, tmp_path, capsys):
        doc = reference_doc()
        doc["users"][1]["arrival_rate_lambda_s"] = False
        self.bad(tmp_path, capsys, doc, expect="users[1]: arrival_rate_lambda_s must be a finite number")

    def test_string_slot_field(self, tmp_path, capsys):
        doc = physical_doc()
        doc["slot"]["T"] = "1"
        self.bad(tmp_path, capsys, doc, expect="slot: T must be a finite number")

    @pytest.mark.parametrize("field", ["bandwidth_W", "gamma_p", "sigma2_p", "arrival_rate_lambda_p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge_int"])
    def test_non_finite_band_field(self, tmp_path, capsys, field, value):
        doc = physical_doc()
        doc["bands"][0][field] = value
        self.bad(tmp_path, capsys, doc, expect=f"bands[0]: {field} must be a finite number")

    @pytest.mark.parametrize(
        "raw",
        [b'{"mode": "\xff"}', b'{"mode": ' + b"1" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000],
        ids=["bad_utf8", "5000_digit_integer", "deep_nesting"],
    )
    def test_undecodable_document(self, tmp_path, capsys, raw):
        self.bad(tmp_path, capsys, raw=raw, expect="invalid JSON")


class TestModelRangeChecks:
    @pytest.mark.parametrize("field", ["bandwidth_W", "gamma_p", "sigma2_p"])
    def test_nan_band_parameter(self, field):
        params = dict(bandwidth_W=100.0, arrival_rate_lambda_p=0.2, gamma_p=10.0, sigma2_p=1.0)
        params[field] = math.nan
        with pytest.raises(ConfigurationError):
            PrimaryBand(**params)

    @pytest.mark.parametrize("field", ["gamma_s", "sigma2_s"])
    def test_nan_user_parameter(self, field):
        params = dict(arrival_rate_lambda_s=0.1, gamma_s=10.0, sigma2_s=1.0)
        params[field] = math.nan
        with pytest.raises(ConfigurationError):
            SecondaryUser(**params)

    def test_nan_fixed_rate_in_envelope_lp(self, ref_2x2_rates):
        with pytest.raises(ConfigurationError):
            orthogonal.envelope_point(ref_2x2_rates, [math.nan, 0.0], 1)

    def test_nan_in_formulas_and_rate_matrix(self):
        with pytest.raises(ConfigurationError):
            model.secondary_outage_complement(SlotConfig(), math.nan, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            model.band_availability(math.nan, 1.0)
        with pytest.raises(ConfigurationError):
            model.RateMatrix(mu=np.array([[math.nan]]), mu_p=np.ones(1), pi=np.ones(1))


class TestNanBoundsAndRates:
    # two_by_two_closed_form(mu, nan) used to return (nan, nan) on the
    # reference rates and fully_symmetric_max(2, 2, nan) to return nan, because
    # NaN passed the ``< 0`` guards.
    def test_lp_problem_refuses_nan_lower_bound(self):
        with pytest.raises(ValueError, match="lower bounds must be finite"):
            LpProblem(c=np.ones(1), A=np.zeros((0, 1)), b=np.zeros(0), lo=np.array([math.nan]))

    def test_two_by_two_closed_form_refuses_nan(self, ref_2x2_mu):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            orthogonal.two_by_two_closed_form(ref_2x2_mu, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, 2.0, -0.5, math.inf])
    def test_two_by_two_closed_form_refuses_a_bad_mu_entry(self, bad):
        # [[nan, .5], [.5, .5]] and [[2, .5], [.5, .5]] used to return (0.0, 0.5)
        with pytest.raises(ConfigurationError, match=r"^mu entries must lie in \[0, 1\]$"):
            orthogonal.two_by_two_closed_form([[bad, 0.5], [0.5, 0.5]], 0.1)

    def test_fully_symmetric_max_refuses_nan(self):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            fully_symmetric_max(2, 2, math.nan)


class TestFixedAllocationRates:
    # best_fixed_max([-0.1, 0], k=1) used to return (0.7875, (1, 2)), and a NaN
    # rate silently made every mapping unsupported; the envelope LP refuses both.
    @pytest.mark.parametrize("lam", [[-0.1, 0.0], [math.nan, 0.0]], ids=["negative", "nan"])
    def test_best_fixed_max_refuses(self, ref_2x2_rates, lam):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            fixedalloc.best_fixed_max(ref_2x2_rates, lam, 1)

    @pytest.mark.parametrize("lam", [[-0.5, 0.1], [0.1, math.nan]], ids=["negative", "nan"])
    def test_best_margin_mapping_refuses(self, ref_2x2_rates, lam):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            fixedalloc.best_margin_mapping(ref_2x2_rates, lam)

    @pytest.mark.parametrize("placeholder", [-1.0, math.nan])
    def test_best_fixed_max_ignores_the_maximized_entry(self, ref_2x2_rates, placeholder):
        # as orthogonal.envelope_point does for the free user's entry
        expected = fixedalloc.best_fixed_max(ref_2x2_rates, [0.1, 0.0], 1)
        assert fixedalloc.best_fixed_max(ref_2x2_rates, [0.1, placeholder], 1) == expected
        assert expected == (0.7875, fixedalloc.FixedMapping((1, 2)))


@pytest.mark.parametrize("module", [orthogonal, fixedalloc], ids=["orthogonal", "fixedalloc"])
def test_sweep_needs_a_second_user(module):
    # a one-user sweep used to escape as a bare StopIteration
    rates = model.RateMatrix(mu=np.full((2, 1), 0.5), mu_p=np.ones(2), pi=np.ones(2))
    with pytest.raises(ConfigurationError):
        module.sweep_envelope(rates, 0, [0.1])


@pytest.mark.parametrize("axis", [2, 7, -1, 0.5])
@pytest.mark.parametrize("system", ["S", "S_hat", "fixed"])
def test_sweeps_refuse_an_axis_out_of_range(ref_2x2_rates, system, axis):
    # shat_envelope used to sweep any axis but 0 as axis 1, and the S and fixed
    # sweeps with ``others`` given raised IndexError for axis 7 and 0.5
    sweep = {
        "S": lambda: orthogonal.sweep_envelope(ref_2x2_rates, axis, [0.1], others=[0.0, 0.0]),
        "S_hat": lambda: randalloc.shat_envelope(ref_2x2_rates.mu, axis, [0.1]),
        "fixed": lambda: fixedalloc.sweep_envelope(ref_2x2_rates, axis, [0.1], others=[0.0, 0.0]),
    }[system]
    with pytest.raises(ConfigurationError, match=f"user index {axis} out of range"):
        sweep()


@pytest.mark.parametrize("sweep_user", [-1, 2, 5])
@pytest.mark.parametrize("module", [orthogonal, fixedalloc], ids=["orthogonal", "fixedalloc"])
def test_sweeps_refuse_a_sweep_user_out_of_range(ref_2x2_rates, module, sweep_user):
    # -1 used to wrap onto the axis column, so the sweep returned the constant
    # envelope [0.7875] * 3 here, and 2 or 5 raised IndexError
    with pytest.raises(ConfigurationError, match=f"^user index {sweep_user} out of range$"):
        module.sweep_envelope(ref_2x2_rates, 1, [0.0, 0.3, 0.6], sweep_user=sweep_user)


@pytest.mark.parametrize("module, kernel", [(orthogonal.optim, "solve_lps"), (fixedalloc, "_scan")],
                         ids=["orthogonal", "fixedalloc"])
def test_sweeps_check_the_grid_before_any_lp_or_mapping(ref_2x2_rates, monkeypatch, module, kernel):
    # the S sweep used to solve the points before the bad one first
    def no_kernel(*args, **kwargs):
        raise AssertionError("the grid was not checked first")

    sweep = orthogonal.sweep_envelope if module is orthogonal.optim else fixedalloc.sweep_envelope
    monkeypatch.setattr(module, kernel, no_kernel)
    with pytest.raises(ConfigurationError, match="^rate of user 1 must be >= 0, got nan$"):
        sweep(ref_2x2_rates, 1, [0.1, 0.2, math.nan])


@pytest.mark.parametrize("lam", [(math.nan, 0.1), (-0.5, 0.1), (0.1, -1e-12)])
def test_max_slack_assignment_refuses_a_bad_rate(ref_2x2_rates, lam):
    # a NaN rate used to escape as a bare ValueError from LpProblem and a
    # negative one to return an assignment
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        orthogonal.max_slack_assignment(ref_2x2_rates, lam)


class TestRandomSelectionRates:
    # dominant1_envelope_2x2(mu, nan) used to report infeasible,
    # shat_section_lambda2(mu, nan) to return None and selection_for_rates to
    # return a selection matrix, because NaN passed the ``< 0`` guards.
    def test_dominant_envelopes_refuse_nan(self, ref_2x2_mu):
        for envelope in (randalloc.dominant1_envelope_2x2, randalloc.dominant2_envelope_2x2,
                         randalloc.shat_section_lambda2):
            with pytest.raises(ConfigurationError, match="must be >= 0"):
                envelope(ref_2x2_mu, math.nan)

    @pytest.mark.parametrize("bad", [-0.1, math.nan])
    def test_envelopes_name_the_refused_rate(self, ref_2x2_mu, bad):
        # the dominant-2 envelope and the section used to call a bad
        # lambda_s1 "lambda_s2"
        for envelope, name in ((randalloc.dominant1_envelope_2x2, "lambda_s2"),
                               (randalloc.dominant2_envelope_2x2, "lambda_s1"),
                               (randalloc.shat_section_lambda2, "lambda_s1")):
            with pytest.raises(ConfigurationError, match=f"^{name} must be >= 0, got {bad}$"):
                envelope(ref_2x2_mu, bad)

    @pytest.mark.parametrize("axis, name", [(1, "lambda_s1"), (0, "lambda_s2")])
    @pytest.mark.parametrize("bad", [-0.2, math.nan])
    def test_shat_envelope_names_the_refused_grid_rate(self, ref_2x2_mu, axis, name, bad):
        # the grid holds the other user's rate; shat_envelope used to compute
        # the sections before it and then name lambda_s2 whatever the axis
        with pytest.raises(ConfigurationError, match=f"^{name} must be >= 0, got {bad}$"):
            randalloc.shat_envelope(ref_2x2_mu, axis, [0.1, bad])

    def test_shat_envelope_checks_the_grid_before_any_section(self, ref_2x2_mu, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a section was computed before the grid was checked")

        monkeypatch.setattr(randalloc, "_dominant1_values", no_kernel)
        with pytest.raises(ConfigurationError, match="got -0.2"):
            randalloc.shat_envelope(ref_2x2_mu, 1, [0.1, -0.2])

    @pytest.mark.parametrize("lam", [(math.nan, 0.1), (0.1, math.nan)])
    def test_selection_for_rates_refuses_nan(self, ref_2x2_mu, lam):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            randalloc.selection_for_rates(ref_2x2_mu, lam)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("lam", [(-0.5, 0.1), (0.1, -1e-12)])
    def test_selection_for_rates_refuses_a_negative_rate(self, shape, lam):
        # used to return a selection matrix, except where the 2x2 dominant-1
        # envelope refused a negative second rate
        lam = lam + (0.1,) * (shape[1] - 2)
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            randalloc.selection_for_rates(np.full(shape, 0.5), lam)

    def test_selection_for_rates_refuses_a_wrong_rate_count(self, ref_2x2_mu):
        # on the 2x2 shape a wrong count used to fail unpacking with a bare
        # ValueError; on other shapes the rates were never read
        for mu in (ref_2x2_mu, ref_2x2_mu[:1], np.full((3, 3), 0.5), np.full((2, 1), 0.5)):
            m_s = mu.shape[1]
            for count in {0, m_s - 1, m_s + 1}:
                with pytest.raises(ConfigurationError, match="one entry per user"):
                    randalloc.selection_for_rates(mu, [0.1] * count)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.1, math.inf], ids=["nan", "above_one", "negative", "inf"])
    def test_raw_mu_entry_points_refuse_a_bad_entry(self, ref_2x2_mu, bad):
        # These used to check only mu's shape: a NaN entry gave sections of
        # 0.0, entries outside [0, 1] were used as rates, and an infinite one
        # never returned from the S_hat bisection on the bracket [0, inf].
        mu = ref_2x2_mu.copy()
        mu[0, 1] = bad
        square = np.full((3, 3), 0.5)
        square[2, 0] = bad
        calls = (
            lambda: randalloc.dominant1_envelope_2x2(mu, 0.1),
            lambda: randalloc.dominant2_envelope_2x2(mu, 0.1),
            lambda: randalloc.shat_section_lambda2(mu, 0.1),
            lambda: randalloc.shat_envelope(mu, 1, [0.1]),
            lambda: randalloc.shat_envelope(mu[:1], 0, [0.1]),
            lambda: randalloc.selection_for_rates(mu, [0.1, 0.1]),
            lambda: randalloc.selection_for_rates(square, [0.1, 0.1, 0.1]),
        )
        for call in calls:
            with pytest.raises(ConfigurationError, match=r"^mu entries must lie in \[0, 1\]$"):
                call()

    @pytest.mark.parametrize("args", [(math.nan, 0.2, 0.1), (0.2, math.nan, 0.1), (0.2, 0.3, math.nan)])
    def test_one_band_optimum_refuses_nan(self, args):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            one_band_gamma_opt(*args)

    @pytest.mark.parametrize("pair", [(math.nan, 0.1), (0.1, math.nan), (-0.1, 0.1)])
    def test_one_band_region_check_refuses(self, pair):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            one_band_region_check(0.5, 0.7, pair)
