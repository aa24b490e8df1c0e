import json

import pytest

from bandalloc import cli

from oracles import scenario_to_dict


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


FIVE_BY_FOUR = {
    "mode": "abstract",
    "bands": [
        {"availability_pi": 0.45},
        {"availability_pi": 0.2},
        {"availability_pi": 0.6},
        {"availability_pi": 0.4},
        {"availability_pi": 0.6},
    ],
    "users": [
        {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.6, 0.8, 0.7, 0.85, 0.9]},
        {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.7, 0.6, 0.8, 0.9, 0.95]},
        {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.6, 0.8, 0.7, 0.5, 0.95]},
        {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.7, 0.5, 0.6, 0.95, 0.95]},
    ],
}


class TestScenarioParsing:
    def test_roundtrip_idempotent(self, ref_2x2_file):
        scenario, _ = cli.load_scenario(ref_2x2_file)
        doc = scenario_to_dict(scenario)
        again = cli.parse_scenario_dict(doc)
        assert scenario_to_dict(again) == doc

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            {"mode": "abstract", "bands": [{"availability_pi": 0.5, "nonsense": 1}],
             "users": [{"out_complement_row": [0.5]}]},
        )
        code, _, err = run_cli(capsys, "rates", "--scenario", path)
        assert code == 1
        assert "unknown field" in err and "bands[0]" in err

    def test_empty_bands_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"mode": "abstract", "bands": [], "users": []})
        code, _, err = run_cli(capsys, "rates", "--scenario", path)
        assert code == 1
        assert "bands" in err

    def test_json_syntax_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "mode": "abstract",\n  !\n}')
        code, _, err = run_cli(capsys, "rates", "--scenario", str(path))
        assert code == 1
        assert ":3:" in err

    def test_physical_scenario(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            {
                "mode": "physical",
                "slot": {"T": 1.0, "tau": 0.1, "b": 100.0},
                "bands": [{"bandwidth_W": 100.0, "arrival_rate_lambda_p": 0.2,
                           "gamma_p": 10.0, "sigma2_p": 1.0}],
                "users": [{"arrival_rate_lambda_s": 0.1, "gamma_s": 10.0, "sigma2_s": 1.0}],
            },
        )
        code, out, _ = run_cli(capsys, "rates", "--scenario", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mu_p"][0] == pytest.approx(0.9048374180359595, abs=1e-12)


class TestRates:
    def test_ref_2x2_values_in_output(self, ref_2x2_file, capsys):
        code, out, _ = run_cli(capsys, "rates", "--scenario", ref_2x2_file)
        assert code == 0
        assert "0.175" in out and "0.2125" in out
        assert "scenario_digest" in out

    def test_five_by_four_product(self, tmp_path, capsys):
        path = write_scenario(tmp_path, FIVE_BY_FOUR)
        code, out, _ = run_cli(capsys, "rates", "--scenario", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["mu"]) == 5 and len(doc["mu"][0]) == 4
        assert doc["mu"][0][0] == pytest.approx(0.45 * 0.6, abs=1e-12)


class TestEnvelope:
    def test_ref_2x2_grid_values(self, ref_2x2_file, capsys):
        code, out, _ = run_cli(
            capsys, "envelope", "--scenario", ref_2x2_file, "--system", "S",
            "--axis", "2", "--grid", "0.1:0.7:0.3", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == pytest.approx([0.7875, 0.5410714285714285, 0.2125], abs=1e-9)

    def test_one_band_random_boundary(self, tmp_path, capsys):
        doc = {
            "mode": "abstract",
            "bands": [{"availability_pi": 0.25}],
            "users": [
                {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.7]},
                {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.85]},
            ],
        }
        path = write_scenario(tmp_path, doc)
        code, out, _ = run_cli(
            capsys, "envelope", "--scenario", path, "--system", "S_hat",
            "--axis", "1", "--grid", "0.1:0.1:1", "--json",
        )
        assert code == 0
        got = json.loads(out)["values"][0]
        assert got == pytest.approx(0.017254921976958208, abs=1e-4)

    def test_shat_scope_guard(self, tmp_path, capsys):
        path = write_scenario(tmp_path, FIVE_BY_FOUR)
        code, _, err = run_cli(
            capsys, "envelope", "--scenario", path, "--system", "S_hat",
            "--axis", "2", "--grid", "0:0.2:0.1",
        )
        assert code == 1
        assert "simulate" in err

    def test_csv_output_to_file(self, ref_2x2_file, tmp_path, capsys):
        out_file = tmp_path / "envelope.csv"
        code, out, _ = run_cli(
            capsys, "envelope", "--scenario", ref_2x2_file, "--system", "fixed",
            "--axis", "2", "--grid", "0.1:0.4:0.3", "--out", str(out_file),
        )
        assert code == 0 and out == ""
        content = out_file.read_text()
        assert content.startswith("# scenario_digest=")
        assert "lambda_s1,lambda_s2_max,feasible" in content


class TestDecompose:
    def test_ref_2x2_schedule(self, ref_2x2_file, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--scenario", ref_2x2_file, "--axis", "2",
            "--fixed", "1=0.4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_rate"] == pytest.approx(0.5410714285714285, abs=1e-9)
        entries = doc["schedule"]["entries"]
        assert len(entries) == 2
        weights = sorted(e["weight"] for e in entries)
        assert weights == pytest.approx([0.42857142857142855, 0.5714285714285714], abs=1e-9)

    def test_infeasible_rates_fail(self, ref_2x2_file, capsys):
        code, _, err = run_cli(
            capsys, "decompose", "--scenario", ref_2x2_file, "--axis", "2", "--fixed", "1=0.75",
        )
        assert code == 1
        assert "infeasible" in err

    def test_identity_single_permutation(self, tmp_path, capsys):
        doc = {
            "mode": "abstract",
            "bands": [{"availability_pi": 1.0}, {"availability_pi": 0.5}],
            "users": [
                {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.9, 0.1]},
                {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.1, 0.9]},
            ],
        }
        path = write_scenario(tmp_path, doc)
        code, out, _ = run_cli(
            capsys, "decompose", "--scenario", path, "--axis", "2", "--json",
        )
        assert code == 0
        entries = json.loads(out)["schedule"]["entries"]
        assert len(entries) == 1


class TestSimulate:
    def test_zero_rates_stable(self, ref_2x2_file, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", ref_2x2_file, "--system", "S",
            "--slots", "20000", "--seed", "5", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdicts_secondary"] == ["stable", "stable"]

    def test_inside_and_outside_points(self, ref_2x2_file, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", ref_2x2_file, "--system", "S",
            "--fixed", "1=0.36,2=0.48", "--slots", "100000", "--seed", "6", "--json",
        )
        assert code == 0
        assert json.loads(out)["result"]["verdicts_secondary"] == ["stable", "stable"]
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", ref_2x2_file, "--system", "S",
            "--fixed", "1=0.44,2=0.60", "--slots", "100000", "--seed", "6", "--json",
        )
        assert code == 0
        assert "unstable" in json.loads(out)["result"]["verdicts_secondary"]

    def test_same_seed_byte_identical(self, ref_2x2_file, capsys):
        args = ("simulate", "--scenario", ref_2x2_file, "--system", "S_hat",
                "--fixed", "1=0.1,2=0.2", "--slots", "20000", "--seed", "7", "--json")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_seed_required(self, ref_2x2_file, capsys):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--scenario", ref_2x2_file, "--system", "S", "--slots", "100"])


class TestCompare:
    def test_ref_2x2_containment_and_coincidence(self, ref_2x2_file, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--scenario", ref_2x2_file, "--grid", "0:0.7:0.0875", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        systems = doc["systems"]
        for s_val, shat_val, fixed_val in zip(systems["S"], systems["S_hat"], systems["fixed_best"]):
            assert fixed_val <= shat_val + 2e-3
            assert shat_val <= s_val + 2e-3
        # low-rate segment: all three coincide
        for idx, lam1 in enumerate(doc["grid"]):
            if lam1 <= 0.175:
                assert systems["S"][idx] == pytest.approx(0.7875, abs=1e-9)
                assert systems["fixed_best"][idx] == pytest.approx(0.7875, abs=1e-9)
                assert systems["S_hat"][idx] == pytest.approx(0.7875, abs=1e-3)
        assert all(not v for v in doc["violations"])

    def test_single_point_grid(self, ref_2x2_file, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--scenario", ref_2x2_file, "--grid", "0.35:0.35:1", "--json",
        )
        assert code == 0
        assert len(json.loads(out)["grid"]) == 1

    def test_non_2x2_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, FIVE_BY_FOUR)
        code, _, err = run_cli(capsys, "compare", "--scenario", path, "--grid", "0:0.1:0.1")
        assert code == 1
        assert "2x2" in err

    def test_containment_violation_sets_exit_status(self, ref_2x2_file, capsys, monkeypatch):
        # sabotage the S_hat section so the asserted ordering breaks
        from bandalloc import randalloc

        monkeypatch.setattr(randalloc, "shat_envelope", lambda mu, axis, grid: [1e-6] * len(grid))
        code, out, err = run_cli(
            capsys, "compare", "--scenario", ref_2x2_file, "--grid", "0:0.2:0.1", "--json",
        )
        assert code == 1
        assert "containment violated" in err
        doc = json.loads(out)
        assert any("fixed>S_hat" in v for v in doc["violations"])


class TestSimulatePolicies:
    def test_fixed_system(self, ref_2x2_file, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", ref_2x2_file, "--system", "fixed",
            "--fixed", "1=0.1,2=0.2", "--slots", "20000", "--seed", "3", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["policy"] == "fixed"
        assert doc["result"]["verdicts_secondary"] == ["stable", "stable"]

    def test_shat_many_users_uniform_selection(self, tmp_path, capsys):
        path = write_scenario(tmp_path, FIVE_BY_FOUR)
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", path, "--system", "S_hat",
            "--fixed", "1=0.05,2=0.05,3=0.05,4=0.05", "--slots", "20000", "--seed", "4",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["policy"] == "random"
        assert doc["result"]["verdicts_secondary"] == ["stable"] * 4
        assert doc["result"]["collision_count"] > 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
