import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from pydantic import ValidationError

from pqsp import (
    ExperimentConfig,
    FactorizationPlan,
    InputError,
    Polynomial,
    RunRecord,
    config_hash,
    resolve_state,
)
from pqsp.cli import main

S6_EXACT = math.log(0.75 ** 6 + 0.25 ** 6) / (1 - 6)


@pytest.fixture
def runner():
    return CliRunner()


def write_poly(path, coeffs, basis="monomial"):
    path.write_text(json.dumps({"basis": basis, "coeffs": coeffs}))
    return str(path)


def value_line(output):
    for line in output.splitlines():
        if line.startswith("value:"):
            return line
    raise AssertionError(f"no value line in {output!r}")


def json_tail(output):
    """Parse the JSON object that follows any human-readable summary lines."""
    return json.loads(output[output.index("{"):])


class TestFactorCommand:
    def test_square_plan(self, runner, tmp_path):
        poly = write_poly(tmp_path / "p.json", [0, 0, 1])
        result = runner.invoke(main, ["factor", poly, "--k", "1"])
        assert result.exit_code == 0, result.output
        plan = json.loads(result.stdout)
        assert plan["k"] == 1
        assert plan["factors"][0]["coeffs"] == [[0.0, 0.0], [1.0, 0.0]]

    def test_out_file(self, runner, tmp_path):
        poly = write_poly(tmp_path / "p.json", [1, 0, 2, 0, 1])
        out = tmp_path / "plan.json"
        result = runner.invoke(main, ["factor", poly, "--k", "2", "--out", str(out)])
        assert result.exit_code == 0
        plan = FactorizationPlan.from_dict(json.loads(out.read_text()))
        assert plan.k == 2

    def test_odd_degree_exits_2(self, runner, tmp_path):
        poly = write_poly(tmp_path / "p.json", [0, 1])
        result = runner.invoke(main, ["factor", poly, "--k", "1"])
        assert result.exit_code == 2
        assert "even degree" in result.stderr


class TestPhasesCommand:
    def test_identity_target(self, runner, tmp_path):
        poly = write_poly(tmp_path / "x.json", [0, 1])
        result = runner.invoke(main, ["phases", poly])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert len(payload["phases"]) == 2
        assert payload["residual"] <= 1e-9

    def test_overscaled_exits_2(self, runner, tmp_path):
        poly = write_poly(tmp_path / "big.json", [0, 1.2])
        result = runner.invoke(main, ["phases", poly])
        assert result.exit_code == 2
        assert "rescale" in result.stderr


class TestEstimateCommand:
    def test_trace_exact(self, runner, tmp_path):
        poly = write_poly(tmp_path / "x4.json", [0, 0, 0, 0, 1])
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25",
             "--poly", poly, "--k", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "value: 0.3203125" in value_line(result.stdout)
        assert json.loads(out.read_text())["report"]["breakdown"]["route"] == "direct"

    def test_trace_chebyshev_fallback(self, runner, tmp_path):
        # T_6's high part at k=2 is 2 (4x^2 - 3)^2 >= 0, so the direct route
        # takes it; the fallback itself is covered below
        poly = write_poly(tmp_path / "t6.json", [0, 0, 0, 0, 0, 0, 1], basis="chebyshev")
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25",
             "--poly", poly, "--k", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "-0.421875" in value_line(result.stdout)
        assert json.loads(out.read_text())["report"]["breakdown"]["route"] == "direct"

    @pytest.mark.parametrize(
        "coeffs",
        [
            # high part x^2 - 0.5 is negative on [-1, 1]
            [0.0, 0.0, -0.25, 0.0, 0.5],
            # the next two have high parts that are non-negative on [-1, 1]
            # but not on the real line, so only the factorization rejects them:
            # a negative leading coefficient
            [0.0, 0.0, 1.0, 0.0, -0.25],
            # x^2 (x^2 - 5x + 6) / 12, with simple real roots at 2 and 3
            [0.0, 0.0, 0.5, -5.0 / 12.0, 1.0 / 12.0],
        ],
    )
    def test_trace_falls_back_when_not_nonnegative(self, runner, tmp_path, coeffs):
        poly = write_poly(tmp_path / "p.json", coeffs)
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25",
             "--poly", poly, "--k", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        want = float(np.polynomial.polynomial.polyval([0.75, 0.25], coeffs).sum())
        report = json.loads(out.read_text())["report"]
        assert report["value"] == pytest.approx(want, abs=1e-9)
        assert report["breakdown"]["route"] == "chebyshev"

    def test_renyi_integer(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "--property", "renyi", "--state", "diag:0.75,0.25",
             "--alpha", "6", "--k", "2"],
        )
        assert result.exit_code == 0, result.output
        val = float(value_line(result.stdout).split()[1])
        assert val == pytest.approx(S6_EXACT, abs=1e-9)

    def test_renyi_log2(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "--property", "renyi", "--state", "diag:0.75,0.25",
             "--alpha", "6", "--k", "2", "--log2"],
        )
        val = float(value_line(result.stdout).split()[1])
        assert val == pytest.approx(S6_EXACT / math.log(2.0), abs=1e-9)

    def test_partition(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "--property", "partition", "--state", "diag:0.75,0.25",
             "--beta", "1.0", "--k", "2"],
        )
        assert result.exit_code == 0, result.output
        val = float(value_line(result.stdout).split()[1])
        assert val == pytest.approx(math.exp(-0.75) + math.exp(-0.25), abs=0.05)

    def test_von_neumann(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "--property", "von-neumann", "--state", "diag:0.75,0.25",
             "--k", "2"],
        )
        val = float(value_line(result.stdout).split()[1])
        want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert val == pytest.approx(want, abs=0.05)

    def test_sampled_seed_reproducible(self, runner):
        args = ["estimate", "--property", "renyi", "--state", "diag:0.75,0.25",
                "--alpha", "6", "--k", "2", "--mode", "sampled",
                "--shots", "20000", "--seed", "7"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == b.exit_code == 0
        assert value_line(a.stdout) == value_line(b.stdout)

    def test_seed_envvar(self, runner):
        args = ["estimate", "--property", "renyi", "--state", "diag:0.75,0.25",
                "--alpha", "6", "--k", "2", "--mode", "sampled", "--shots", "20000"]
        via_env = runner.invoke(main, args, env={"PQSP_SEED": "7"})
        via_flag = runner.invoke(main, args + ["--seed", "7"])
        assert value_line(via_env.stdout) == value_line(via_flag.stdout)

    def test_shots_and_auto_shots_conflict(self, runner, tmp_path):
        poly = write_poly(tmp_path / "x4.json", [0, 0, 0, 0, 1])
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25",
             "--poly", poly, "--shots", "100", "--auto-shots"],
        )
        assert result.exit_code == 2

    def test_trace_requires_poly(self, runner):
        result = runner.invoke(
            main, ["estimate", "--property", "trace", "--state", "diag:0.75,0.25"]
        )
        assert result.exit_code == 2
        assert "poly" in result.stderr

    def test_unknown_property_rejected(self, runner):
        result = runner.invoke(
            main, ["estimate", "--property", "purity", "--state", "diag:0.5,0.5"]
        )
        assert result.exit_code == 2

    def test_run_record_replayable(self, runner, tmp_path):
        out = tmp_path / "run.json"
        args = ["estimate", "--property", "renyi", "--state", "diag:0.75,0.25",
                "--alpha", "6", "--k", "2", "--mode", "sampled", "--shots", "5000",
                "--seed", "3", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        first = RunRecord.from_json(out.read_text())
        assert runner.invoke(main, args).exit_code == 0
        second = RunRecord.from_json(out.read_text())
        assert first.replay_equal(second)
        a, b = first.model_dump(), second.model_dump()
        a.pop("duration_s"), b.pop("duration_s")
        assert a == b

    def test_csv_accumulates_rows(self, runner, tmp_path):
        csv_path = tmp_path / "runs.csv"
        args = ["estimate", "--property", "renyi", "--state", "diag:0.75,0.25",
                "--alpha", "6", "--k", "2", "--csv", str(csv_path)]
        runner.invoke(main, args)
        runner.invoke(main, args)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3  # one header, two data rows
        assert lines[0].startswith("property,")
        # identical runs modulo wall-clock duration in the last column
        assert lines[1].rsplit(",", 1)[0] == lines[2].rsplit(",", 1)[0]

    def test_partition_huge_beta_exits_3(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "--property", "partition", "--state", "diag:0.75,0.25",
             "--beta", "500", "--k", "2"],
        )
        assert result.exit_code == 3


class TestSimulateCommand:
    def test_monomial_plan_round_trip(self, runner, tmp_path):
        poly = write_poly(tmp_path / "x12.json", [0] * 12 + [1])
        plan_path = tmp_path / "plan.json"
        assert (
            runner.invoke(
                main, ["factor", poly, "--k", "3", "--out", str(plan_path)]
            ).exit_code
            == 0
        )
        result = runner.invoke(
            main,
            ["simulate", "--state", "diag:0.75,0.25", "--plan", str(plan_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json_tail(result.stdout)
        want = 0.75 ** 15 + 0.25 ** 15
        assert payload["breakdown"]["source_value"] == pytest.approx(want, abs=1e-10)

    def test_dead_plan_exits_4(self, runner, tmp_path):
        plan = {
            "k": 1,
            "source_degree": 2,
            "factors": [{"basis": "monomial", "coeffs": [[-0.5, 0.0], [0.5, 0.0]]}],
            "norms": [1.0],
            "K": 1.0,
            "stored_K": 2.0,
        }
        plan_path = tmp_path / "dead.json"
        plan_path.write_text(json.dumps(plan))
        result = runner.invoke(
            main, ["simulate", "--state", "pure:2", "--plan", str(plan_path)]
        )
        assert result.exit_code == 4

    def test_circuit_dimension_cap_exits_2(self, runner, tmp_path):
        poly = write_poly(tmp_path / "x4.json", [0, 0, 0, 0, 1])
        plan_path = tmp_path / "plan.json"
        runner.invoke(main, ["factor", poly, "--k", "2", "--out", str(plan_path)])
        result = runner.invoke(
            main,
            ["simulate", "--state", "maximally_mixed:8", "--plan", str(plan_path),
             "--mode", "circuit"],
        )
        assert result.exit_code == 2


class TestValidateCommand:
    def test_swap_suite_passes(self, runner):
        result = runner.invoke(main, ["validate", "--suite", "swap"])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.stdout)
        assert summary["checks"] > 0
        assert summary["failures"] == []

    def test_injected_fault_caught(self, runner):
        result = runner.invoke(main, ["validate", "--suite", "swap", "--inject-fault"])
        assert result.exit_code == 1
        assert "FAIL" in result.stderr

    def test_modes_suite(self, runner):
        result = runner.invoke(main, ["validate", "--suite", "modes", "--trials", "1"])
        assert result.exit_code == 0, result.output

    def test_bounds_suite(self, runner):
        result = runner.invoke(main, ["validate", "--suite", "bounds", "--trials", "2"])
        assert result.exit_code == 0, result.output


class TestCostCommand:
    def test_direct_route(self, runner):
        result = runner.invoke(
            main, ["cost", "--route", "theorem3", "--epsilon", "0.1", "--K", "1.0"]
        )
        assert result.exit_code == 0
        assert "predicted shots: 100" in result.stdout

    def test_beta_fills_one_norm(self, runner):
        result = runner.invoke(
            main, ["cost", "--route", "theorem8", "--epsilon", "0.05", "--beta", "1.0"]
        )
        assert result.exit_code == 0
        assert "predicted shots: 2956" in result.stdout

    def test_auto_bounds(self, runner):
        result = runner.invoke(
            main,
            ["cost", "--route", "theorem5", "--epsilon", "0.1", "--d", "10",
             "--k", "2", "--auto-bounds"],
        )
        assert result.exit_code == 0
        assert "auto norms" in result.stderr

    def test_missing_field_exits_2(self, runner):
        result = runner.invoke(
            main, ["cost", "--route", "theorem5", "--epsilon", "0.1"]
        )
        assert result.exit_code == 2

    def test_overflowing_route_exits_2(self, runner):
        result = runner.invoke(
            main, ["cost", "--route", "theorem9", "--epsilon", "0.05", "--beta", "500"]
        )
        assert result.exit_code == 2


class TestConfigPlumbing:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(property="renyi", state="pure:2", alpha=2.0, shotz=10)

    def test_trace_needs_poly(self):
        with pytest.raises(ValidationError, match="poly"):
            ExperimentConfig(property="trace", state="pure:2")

    def test_sampled_needs_shots(self):
        with pytest.raises(ValidationError, match="shots"):
            ExperimentConfig(
                property="renyi", state="pure:2", alpha=2.0, mode="sampled"
            )

    def test_resolve_generators(self):
        assert resolve_state("pure:3").dim == 3
        assert resolve_state("maximally_mixed:4").dim == 4
        rho = resolve_state("diag:0.75,0.25")
        assert np.allclose(rho.eigenvalues(), [0.25, 0.75])
        assert resolve_state("random:2:5").dim == 2

    def test_resolve_state_file(self, tmp_path):
        from pqsp import DensityMatrix

        path = tmp_path / "rho.json"
        path.write_text(json.dumps(DensityMatrix.maximally_mixed(2).to_dict()))
        assert resolve_state(str(path)).dim == 2

    def test_resolve_malformed(self):
        with pytest.raises(InputError, match="malformed"):
            resolve_state("diag:a,b")
        with pytest.raises(InputError, match="neither"):
            resolve_state("no_such_file.json")

    def test_config_hash_key_order_invariant(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 64
