import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pqsp import (
    ExperimentConfig,
    FactorizationPlan,
    InputError,
    Polynomial,
    RunRecord,
    config_hash,
    resolve_state,
)
from pqsp import cli
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

    def test_out_file_keeps_monomial_factors(self, runner, tmp_path):
        # the plan file holds monomial factors whichever basis the source came in
        mono = write_poly(tmp_path / "mono.json", [2, 0, -1, 0, 1])
        cheb = write_poly(
            tmp_path / "cheb.json", [[1.875, 0], [0, 0], [0, 0], [0, 0], [0.125, 0]],
            basis="chebyshev",
        )
        assert Polynomial.from_dict(json.loads(Path(cheb).read_text())) == Polynomial.from_dict(
            json.loads(Path(mono).read_text())
        )
        plans = []
        for name, poly in (("mono", mono), ("cheb", cheb)):
            out = tmp_path / f"plan-{name}.json"
            result = runner.invoke(main, ["factor", poly, "--k", "2", "--out", str(out)])
            assert result.exit_code == 0, result.output
            plans.append(json.loads(out.read_text()))
        assert plans[0] == plans[1]
        factors = [Polynomial.from_dict(f) for f in plans[0]["factors"]]
        assert all(f["basis"] == "monomial" for f in plans[0]["factors"])
        xs = np.linspace(-1.0, 1.0, 9)
        product = np.abs(factors[0](xs)) ** 2 * np.abs(factors[1](xs)) ** 2
        assert np.allclose(product, xs ** 4 - xs ** 2 + 2, atol=1e-12)

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

    def test_scaled_t6_residual_pinned(self, runner, tmp_path):
        # recorded before realized_value read the sequence without a wrapper;
        # exact equality shows the read-out is unchanged to the bit
        coeffs = [[0.0, 0.0]] * 6 + [[0.9, 0.0]]
        poly = write_poly(tmp_path / "t6.json", coeffs, basis="chebyshev")
        result = runner.invoke(main, ["phases", poly])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["residual"] == 8.049116928532385e-16

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

    def test_non_finite_coefficient_exits_2(self, runner, tmp_path):
        poly = tmp_path / "nan.json"
        poly.write_text('{"basis": "monomial", "coeffs": [0.1, 0, NaN, 0.2]}')
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25",
             "--poly", str(poly), "--k", "2"],
        )
        assert result.exit_code == 2
        assert "coefficient 2 is not finite" in result.output

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

    def test_trace_direct_on_double_real_roots(self, runner, tmp_path):
        # 0.9 T_6's high part at k = 2 has two double real roots
        poly = write_poly(tmp_path / "t6.json", [0, 0, 0, 0, 0, 0, 0.9], basis="chebyshev")
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25",
             "--poly", poly, "--k", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())["report"]
        assert report["value"] == pytest.approx(0.9 * -0.421875, abs=1e-12)
        assert report["breakdown"]["route"] == "direct"

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

    def test_trace_direct_when_threads_outnumber_high_degree(self, runner, tmp_path):
        # k = 4 leaves the high part 0.5 + 0.25x^2 of degree 2 < k; the
        # factorization pads the spare threads with constant factors
        coeffs = [0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.25]
        poly = write_poly(tmp_path / "p.json", coeffs)
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25",
             "--poly", poly, "--k", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())["report"]
        assert report["value"] == pytest.approx(0.2047119140625, abs=1e-12)
        assert report["breakdown"]["route"] == "direct"

    def test_trace_falls_back_when_threads_outnumber_high_degree(self, runner, tmp_path):
        # k = 4 leaves the high part 0.5 - 0.25x^2: degree 2 < k, and a
        # negative leading coefficient, which is the verdict that counts
        coeffs = [0.0, 0.0, 0.0, 0.0, 0.5, 0.0, -0.25]
        poly = write_poly(tmp_path / "p.json", coeffs)
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25",
             "--poly", poly, "--k", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())["report"]
        assert report["value"] == pytest.approx(0.1156005859375, abs=1e-12)
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

    def test_sampled_split_on_one_stderr_line(self, runner, tmp_path):
        # a low and a high stage: each line entry is runs: pilot+main
        poly = write_poly(tmp_path / "p.json", [0.1, -0.2, 0.3, 0, 0.2])
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25", "--poly", poly,
             "--k", "2", "--mode", "sampled", "--shots", "20000", "--seed", "7",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        split = json.loads(out.read_text())["report"]["breakdown"]["stage_shots"]
        lines = [ln for ln in result.stderr.splitlines() if ln.startswith("stage shots")]
        assert lines == [
            "stage shots (runs: pilot+main): "
            + ", ".join(f"{s['runs']}: {s['pilot']}+{s['main']}" for s in split)
        ]
        assert sum(s["pilot"] + s["main"] for s in split) == 20000
        assert "stage shots" not in result.stdout
        # a single stage prints its one record too; an exact run prints none
        args = ["estimate", "--property", "renyi", "--state", "diag:0.75,0.25", "--alpha", "6",
                "--k", "2"]
        single = runner.invoke(main, args + ["--mode", "sampled", "--shots", "20000", "--seed", "7"])
        assert "stage shots (runs: pilot+main): 1: 0+20000" in single.stderr.splitlines()
        assert "stage shots" not in runner.invoke(main, args).stderr

    def test_importance_draws_on_the_stderr_line(self, runner, tmp_path):
        # an importance stage prints its run count beside its pilot and main shots
        poly = write_poly(tmp_path / "p.json", [0.1, 0.2, -0.3, 0, 0.25, 0.1])
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--state", "diag:0.75,0.25", "--poly", poly,
             "--k", "2", "--mode", "sampled", "--shots", "20000", "--seed", "7",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        breakdown = json.loads(out.read_text())["report"]["breakdown"]
        (line,) = [ln for ln in result.stderr.splitlines() if ln.startswith("stage shots")]
        runs = [int(entry.split(":")[0]) for entry in line.split("): ", 1)[1].split(", ")]
        assert runs == [1, breakdown["even"]["term_count"], breakdown["odd"]["term_count"]]
        single = runner.invoke(
            main,
            ["estimate", "--property", "partition", "--state", "diag:0.75,0.25", "--beta", "1",
             "--k", "2", "--epsilon", "0.01", "--mode", "sampled", "--auto-shots", "--seed", "7"],
        )
        assert single.exit_code == 0, single.output
        assert "stage shots (runs: pilot+main): 6: 272+73619" in single.stderr.splitlines()
        assert "stage shots" not in single.stdout

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

    def test_sampled_trace_rejects_auto_shots(self, runner, tmp_path):
        # the trace estimators have no automatic budget; the config says so
        # before the state (here a missing file) is loaded
        poly = write_poly(tmp_path / "x4.json", [0, 0, 0, 0, 1])
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--poly", poly, "--k", "2",
             "--state", str(tmp_path / "missing.json"), "--mode", "sampled", "--auto-shots"],
        )
        assert result.exit_code == 2
        assert "--auto-shots" in result.stderr and "--shots" in result.stderr
        assert "trace" in result.stderr

    def test_exact_trace_ignores_auto_shots(self, runner, tmp_path):
        poly = write_poly(tmp_path / "x4.json", [0, 0, 0, 0, 1])
        result = runner.invoke(
            main,
            ["estimate", "--property", "trace", "--poly", poly, "--k", "2",
             "--state", "diag:0.75,0.25", "--auto-shots"],
        )
        assert result.exit_code == 0, result.output

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
        a, b = dataclasses.asdict(first), dataclasses.asdict(second)
        a.pop("duration_s"), b.pop("duration_s")
        assert a == b

    def test_output_paths_leave_the_hash_alone(self, runner, tmp_path):
        # where a record is written is not an input: two paths, one hash
        base = ["estimate", "--property", "renyi", "--alpha", "2", "--state", "random:4:1",
                "--k", "2"]
        records = []
        for name in ("a", "b"):
            out, csv_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            args = [*base, "--out", str(out), "--csv", str(csv_path)]
            assert runner.invoke(main, args).exit_code == 0
            records.append(RunRecord.from_json(out.read_text()))
        first, second = records
        assert first.input_hash == second.input_hash == config_hash(first.config)
        assert first.replay_equal(second)
        assert not {"out", "csv"} & set(first.config)

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

    @pytest.mark.parametrize(
        "args",
        [
            ["--property", "trace", "--poly", None, "--k", "2"],
            ["--property", "partition", "--beta", "1"],
            ["--property", "renyi", "--alpha", "2"],
        ],
        ids=["trace", "partition", "renyi"],
    )
    @pytest.mark.parametrize("diagonal", [False, True], ids=["off-diagonal", "diagonal"])
    def test_nan_state_file_exits_2(self, runner, tmp_path, args, diagonal):
        # Python's json reads NaN; a NaN entry must not reach an estimator
        nan = [math.nan, 0.0]
        half = [0.5, 0.0]
        zero = [0.0, 0.0]
        matrix = [[nan, zero], [zero, half]] if diagonal else [[half, nan], [nan, half]]
        state = tmp_path / "nan.json"
        state.write_text(json.dumps({"dim": 2, "matrix": matrix}))
        args = [write_poly(tmp_path / "x2.json", [0, 0, 1]) if a is None else a for a in args]
        result = runner.invoke(main, ["estimate", "--state", str(state), *args])
        assert result.exit_code == 2, result.output
        assert "finite" in result.stderr

    @pytest.mark.parametrize("state", ["pure:0", "maximally_mixed:-1", "random:-1:1"])
    def test_empty_or_negative_state_dimension_exits_2(self, runner, state):
        result = runner.invoke(
            main, ["estimate", "--property", "renyi", "--alpha", "2", "--state", state]
        )
        assert result.exit_code == 2, result.output
        assert "dimension must be an integer >= 1" in result.stderr

    @pytest.mark.parametrize(
        "state, message",
        [
            ("diag:0.5,0.6", "probabilities sum to 1.1, expected 1"),
            ("pure:0", "dimension must be an integer >= 1, got 0"),
            ("random:-1:1", "dimension must be an integer >= 1, got -1"),
        ],
    )
    def test_rejected_generator_argument_prints_the_generators_message(
        self, runner, state, message
    ):
        result = runner.invoke(
            main, ["estimate", "--property", "renyi", "--alpha", "2", "--state", state]
        )
        assert result.exit_code == 2, result.output
        assert message in result.stderr
        assert "malformed" not in result.stderr

    @pytest.mark.parametrize("state", ["pure:x", "random:2:x", "diag:a,b"])
    def test_unparsable_state_number_reads_malformed(self, runner, state):
        result = runner.invoke(
            main, ["estimate", "--property", "renyi", "--alpha", "2", "--state", state]
        )
        assert result.exit_code == 2, result.output
        assert f"malformed state spec {state!r}" in result.stderr

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

    def test_tampered_plan_exits_2(self, runner, tmp_path):
        poly = write_poly(tmp_path / "x4.json", [0, 0, 0, 0, 1])
        plan_path = tmp_path / "plan.json"
        runner.invoke(
            main, ["factor", poly, "--k", "2", "--rescaled", "--out", str(plan_path)]
        )
        plan = json.loads(plan_path.read_text())
        plan["K"] = 10.0
        plan_path.write_text(json.dumps(plan))
        result = runner.invoke(
            main, ["simulate", "--state", "diag:0.75,0.25", "--plan", str(plan_path)]
        )
        assert result.exit_code == 2
        assert "K" in result.stderr

    def test_circuit_dimension_cap_exits_2(self, runner, tmp_path):
        poly = write_poly(tmp_path / "x4.json", [0, 0, 0, 0, 1])
        plan_path = tmp_path / "plan.json"
        runner.invoke(main, ["factor", poly, "--k", "2", "--out", str(plan_path)])
        args = ["simulate", "--plan", str(plan_path), "--state"]
        result = runner.invoke(main, args + ["maximally_mixed:64", "--mode", "circuit"])
        assert result.exit_code == 2
        assert "caps D^k at 1024, got 64^2" in result.stderr
        # D^k = 64 is within the cap and agrees with direct mode
        payloads = []
        for mode in ("circuit", "direct"):
            result = runner.invoke(main, args + ["maximally_mixed:8", "--mode", mode])
            assert result.exit_code == 0, result.output
            payloads.append(json_tail(result.stdout))
        assert payloads[0]["value"] == pytest.approx(payloads[1]["value"], abs=1e-15)
        assert payloads[0]["value"] == pytest.approx(8 ** -5, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 5])
    def test_plan_k_mismatch_exits_2(self, runner, tmp_path, k):
        poly = write_poly(tmp_path / "x4.json", [0, 0, 0, 0, 1])
        plan_path = tmp_path / "plan.json"
        runner.invoke(main, ["factor", poly, "--k", "2", "--out", str(plan_path)])
        plan = json.loads(plan_path.read_text())
        plan["k"] = k
        plan_path.write_text(json.dumps(plan))
        result = runner.invoke(
            main, ["simulate", "--state", "diag:0.75,0.25", "--plan", str(plan_path)]
        )
        assert result.exit_code == 2
        assert f"plan k {k}" in result.stderr


class TestValidateCommand:
    def test_swap_suite_passes(self, runner):
        result = runner.invoke(main, ["validate", "--suite", "swap"])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.stdout)
        assert summary["checks"] > 0
        assert summary["failures"] == []

    def test_injected_fault_caught(self, runner, monkeypatch):
        swap = cli.generalized_swap_expectation

        def faulty(states):
            est = swap(states)
            return dataclasses.replace(est, value=est.value + 1e-3)

        monkeypatch.setattr(cli, "generalized_swap_expectation", faulty)
        result = runner.invoke(main, ["validate", "--suite", "swap"])
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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--route", "theorem10", "--epsilon", "0.1", "--d", "10", "--k", "2",
              "--alpha", "1", "--s-alpha", "0.5"], "route theorem10 needs alpha != 1"),
            (["--route", "theorem7", "--epsilon", "0.1", "--alpha", "2", "--s-alpha", "0"],
             "s_alpha must be finite and > 0, got 0.0"),
            (["--route", "theorem3", "--epsilon", "0.1", "--K", "nan"],
             "K must be finite and >= 0, got nan"),
            (["--route", "theorem3", "--epsilon", "0.1", "--K", "-2"],
             "K must be finite and >= 0, got -2.0"),
            (["--route", "theorem3", "--epsilon", "inf", "--K", "1"],
             "epsilon must be finite, got inf"),
            (["--route", "theorem11", "--epsilon", "0.1", "--d", "10", "--k", "-1"],
             "k must be an integer >= 1, got -1"),
        ],
    )
    def test_bad_field_exits_2_naming_it(self, runner, args, message):
        result = runner.invoke(main, ["cost", *args])
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.stderr


class TestConfigPlumbing:
    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="shotz"):
            ExperimentConfig(property="renyi", state="pure:2", alpha=2.0, shotz=10)

    def test_trace_needs_poly(self):
        with pytest.raises(InputError, match="poly"):
            ExperimentConfig(property="trace", state="pure:2")

    def test_sampled_needs_shots(self):
        with pytest.raises(InputError, match="shots"):
            ExperimentConfig(
                property="renyi", state="pure:2", alpha=2.0, mode="sampled"
            )

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda r: r.update(extra=1), "extra"),
            (lambda r: r.pop("input_hash"), "input_hash"),
            (lambda r: r.update(report="x"), "report"),
        ],
        ids=["unknown-key", "missing-key", "report-not-object"],
    )
    def test_run_record_file_rejected(self, edit, field):
        record = {"config": {}, "report": {}, "duration_s": 0.5, "version": "0.1.0",
                  "input_hash": config_hash({})}
        assert RunRecord.from_json(json.dumps(record)).duration_s == 0.5
        edit(record)
        with pytest.raises(InputError, match=field):
            RunRecord.from_json(json.dumps(record))

    def test_run_record_malformed_json_rejected(self):
        with pytest.raises(InputError, match="malformed JSON"):
            RunRecord.from_json('{"config": {}')

    @pytest.mark.parametrize("field", ["k", "epsilon", "rank", "shots"])
    def test_estimate_rejects_nonpositive(self, runner, field):
        result = runner.invoke(
            main,
            ["estimate", "--property", "renyi", "--alpha", "2", "--state", "diag:0.75,0.25",
             f"--{field}", "0"],
        )
        assert result.exit_code == 2
        assert f"error: {field} must be" in result.stderr

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


def test_import_loads_neither_scipy_nor_pydantic():
    """Neither `import pqsp.cli` nor a phase solve loads scipy or pydantic."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import pqsp, pqsp.cli\n"
        "print(sorted(m for m in ('scipy', 'pydantic') if m in sys.modules))\n"
        "from pqsp import chebyshev_polynomial, find_phases\n"
        "find_phases(chebyshev_polynomial(6) * 0.9)\n"
        "print(sorted(m for m in ('scipy', 'pydantic') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]
