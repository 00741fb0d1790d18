"""Self-tests of the benchmark: oracle, outcome classes and tracer.

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import pqsp  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TYPED = (pqsp.InputError, pqsp.ConvergenceError, pqsp.PostSelectionError)


def test_oracle_reproduces_renyi2_of_diag():
    lam = oracle.spectrum(pqsp.DensityMatrix.diagonal([0.75, 0.25]).matrix)
    assert oracle.renyi(lam, 2) == pytest.approx(-math.log(0.625), abs=1e-15)
    rep = pqsp.renyi_integer(pqsp.DensityMatrix.diagonal([0.75, 0.25]), 2, 2)
    assert rep.value == pytest.approx(-math.log(0.625), abs=1e-12)


def test_oracle_qsp_value_matches_library_convention():
    phases = tuple(np.random.default_rng(3).uniform(-1, 1, 7))
    xs = np.linspace(-1, 1, 9)
    ours = oracle.qsp_plus_value(phases, xs)
    lib = [pqsp.realized_value(pqsp.QspPhases(phases, convention="wx_pp"), x) for x in xs]
    assert np.allclose(ours, lib, atol=1e-13)


def _judge(op):
    rec = run.execute(op)
    run.judge([rec], TYPED)
    return rec.outcome


def _op(call, check=lambda res: (0.0, 1.0)):
    return workloads.Op(id="t", kind="t", mode="exact", eps=1.0, call=call, check=check)


def test_each_outcome_class_has_a_constructed_case():
    rho = pqsp.DensityMatrix.diagonal([0.75, 0.25])
    solved = _op(lambda: workloads._report(pqsp.renyi_integer(rho, 2, 2)),
                 lambda res: (abs(res.value + math.log(0.625)), 1e-9))
    typed = _op(lambda: workloads._report(pqsp.renyi_integer(rho, 1, 2)))
    probes = {op.id: op for op in workloads.entropy_probes()}
    untyped = probes["probe-ri-alpha10-random:32:1"]
    over_budget = probes["probe-ri-alpha6-random:16:3"]
    rho32 = pqsp.DensityMatrix.random_seeded(32, 1)
    lam32 = oracle.spectrum(rho32.matrix)
    wrong = _op(lambda: workloads._report(pqsp.von_neumann(rho32, 2, delta=0.1)),
                lambda res: (abs(res.value - oracle.von_neumann(lam32)), 0.05))
    assert _judge(solved) == oracle.SOLVED
    assert _judge(typed) == oracle.TYPED
    assert _judge(untyped) == oracle.UNTYPED
    assert _judge(over_budget) == oracle.OVER_BUDGET
    assert _judge(wrong) == oracle.OUT_OF_TOLERANCE


def test_unexpected_compares_with_registered_outcome():
    assert not oracle.unexpected(oracle.SOLVED, oracle.TYPED)
    assert oracle.unexpected(oracle.TYPED, oracle.SOLVED)
    assert not oracle.unexpected(oracle.TYPED, oracle.UNTYPED)
    assert oracle.unexpected(oracle.OUT_OF_TOLERANCE, oracle.TYPED)
    assert not oracle.unexpected(oracle.OVER_BUDGET, oracle.OVER_BUDGET)


def test_tracer_rebinds_and_restores():
    from pqsp import estimate, poly, qsp, sim

    before = (poly.sup_norm, estimate.sup_norm, pqsp.sup_norm, qsp.least_squares,
              sim.DensityMatrix.eigh, estimate.parallel_qsp_run)
    rho = pqsp.DensityMatrix.random_seeded(4, 2)
    plain = pqsp.estimate_direct(pqsp.Polynomial([0.1, 0, 0.5]), rho, 2, mode="sampled",
                                 shots=1000, seed=5)
    with Tracer() as tracer:
        assert estimate.sup_norm is not before[1] and pqsp.sup_norm is not before[2]
        traced = pqsp.estimate_direct(pqsp.Polynomial([0.1, 0, 0.5]), rho, 2, mode="sampled",
                                      shots=1000, seed=5)
    after = (poly.sup_norm, estimate.sup_norm, pqsp.sup_norm, qsp.least_squares,
             sim.DensityMatrix.eigh, estimate.parallel_qsp_run)
    assert all(a is b for a, b in zip(before, after))
    assert (traced.value, traced.std_error) == (plain.value, plain.std_error)
    summary = tracer.summary()
    assert summary["estimate.estimate_direct"]["calls"] == 1
    assert summary["poly.sup_norm"]["calls"] >= 1
    assert summary["sim.parallel_qsp_run.direct"]["calls"] == 1
    assert tracer.shots_drawn == 1000
    top = summary["estimate.estimate_direct"]
    assert 0.0 <= top["self_ms"] <= top["ms"]
