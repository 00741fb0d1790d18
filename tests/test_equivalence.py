"""Reads that the stratified importance draw must leave bit for bit.

A stratified draw only replaces the one multinomial of a read over two or
more runs whose budget has room for a pilot and a main shot per run.  Every
other read keeps the old draw: one-run reads (estimate_direct's parallel
stage, renyi_integer, parallel_qsp_run, the generalized swap test), reads of
several runs at a budget too small to stratify, and every exact report.
The values below were computed before the stratified draw existed.  Each
case pins value, std_error and shots_used, and for a report the digest of
its breakdown's key paths, so a key added to these reports shows too; the
one key a sampled importance stage adds, its draw's record, is left out of
the digest and must show a pilot of 0, the one multinomial.

A second table pins the reads that go through nested or auto-budget paths
(partition_function on the monomial estimator, the entropies on the
Chebyshev one, an auto budget) and a stratified Chebyshev read, with their
predicted shots, stage splits and importance draws.  Its values were
computed before the estimators composed plans rather than reports.
"""

import hashlib

import numpy as np
import pytest

from conftest import random_parity_target
from pqsp import (
    DensityMatrix,
    Polynomial,
    ShotSampler,
    estimate_chebyshev,
    estimate_direct,
    generalized_swap_expectation,
    monomial_poly_trace,
    parallel_qsp_run,
    partition_function,
    renyi_integer,
    renyi_noninteger,
    von_neumann,
)

P5 = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
MONO = Polynomial([0.2, 0.5, 0.3, -0.1])
# eight active exponents: eight runs in one importance stage
MONO8 = Polynomial([0.0, 0.1, 0.2, -0.1, 0.15, 0.05, -0.2, 0.1, 0.1])
THREADS = [Polynomial([0, 1]), Polynomial([0.5, 0, 0.5])]


def _rho4():
    return DensityMatrix.random_seeded(4, 3)


def _rho8():
    return DensityMatrix.random_seeded(8, 5)


def _degree_12_target() -> Polynomial:
    rng = np.random.default_rng(12)
    return 0.5 * (random_parity_target(rng, 12) + random_parity_target(rng, 11))


def _key_paths(obj, prefix="") -> list[str]:
    if not isinstance(obj, dict):
        return [prefix]
    return [
        p for k, v in obj.items() if k != "importance" for p in _key_paths(v, f"{prefix}/{k}")
    ]


def _draw_records(breakdown: dict) -> list[dict]:
    parts = [breakdown] + [v for v in breakdown.values() if isinstance(v, dict)]
    return [part["importance"] for part in parts if "importance" in part]


def _summary(out) -> tuple:
    """(value, std_error, shots_used, digest of the breakdown's key paths or None)."""
    breakdown = getattr(out, "breakdown", None)
    digest = None if breakdown is None else hashlib.sha256(
        "\n".join(sorted(_key_paths(breakdown))).encode()
    ).hexdigest()[:12]
    return out.value, out.std_error, out.shots_used, digest


SAMPLED = dict(mode="sampled")

CASES = {
    # one-run sampled reads
    "direct-two-stages": lambda: estimate_direct(P5, _rho8(), 2, shots=6000, seed=3, **SAMPLED),
    "direct-power": lambda: estimate_direct(
        Polynomial([0, 0, 0, 0, 0, 0, 1]), _rho4(), 2, shots=3000, seed=4, **SAMPLED
    ),
    "renyi-a3-k2": lambda: renyi_integer(_rho8(), 3, 2, shots=5000, seed=6, **SAMPLED),
    "renyi-auto-a4-k2": lambda: renyi_integer(_rho4(), 4, 2, seed=2, **SAMPLED),
    "renyi-swap-a2-k3": lambda: renyi_integer(_rho8(), 2, 3, shots=4000, seed=1, **SAMPLED),
    "parallel-direct": lambda: parallel_qsp_run(
        THREADS, _rho8(), shots=7000, sampler=ShotSampler(9)
    ),
    "parallel-circuit": lambda: parallel_qsp_run(
        THREADS, _rho4(), shots=7000, mode="circuit", sampler=ShotSampler(9)
    ),
    "swap-test": lambda: generalized_swap_expectation(
        [_rho4()] * 3, shots=2500, sampler=ShotSampler(4)
    ),
    # several runs, a budget too small for a pilot and a main shot per run
    "monomial-3-runs-5-shots": lambda: monomial_poly_trace(
        MONO, _rho8(), 2, shots=5, seed=1, **SAMPLED
    ),
    "monomial-8-runs-49-shots": lambda: monomial_poly_trace(
        MONO8, _rho4(), 3, shots=49, seed=2, **SAMPLED
    ),
    "chebyshev-60-shots": lambda: estimate_chebyshev(
        _degree_12_target(), _rho8(), 2, shots=60, seed=5, **SAMPLED
    ),
    # exact reports
    "exact-direct": lambda: estimate_direct(P5, _rho8(), 2),
    "exact-chebyshev": lambda: estimate_chebyshev(_degree_12_target(), _rho8(), 3),
    "exact-monomial": lambda: monomial_poly_trace(MONO8, _rho8(), 2),
    "exact-partition": lambda: partition_function(_rho8(), 1.0, 2),
    "exact-renyi-integer": lambda: renyi_integer(_rho8(), 3, 2),
    "exact-renyi-noninteger": lambda: renyi_noninteger(_rho4(), 1.5, 2),
    "exact-von-neumann": lambda: von_neumann(_rho4(), 2),
    "exact-von-neumann-user-delta": lambda: von_neumann(_rho4(), 2, delta=0.1),
}

PINS = {
    'chebyshev-60-shots': (-89.43250214690362, 71.42434133500365, 60, 'a67af13caffa'),
    'direct-power': (0.006333333333333333, 0.002378062521623127, 3000, '26fb7d843f98'),
    'direct-two-stages': (0.6791471416195151, 0.03532161199872117, 6000, '8414f6a50404'),
    'exact-chebyshev': (1.4820334592689635, 0.0, 0, 'c94ae731cb69'),
    'exact-direct': (0.6723743274393151, 0.0, 0, '60666994f7c8'),
    'exact-monomial': (0.14216110308505667, 0.0, 0, '7b256ed91e2b'),
    'exact-partition': (7.10406414634258, 0.0, 0, '1a8ccd53fac5'),
    'exact-renyi-integer': (1.3739175855995784, 0.0, 0, 'c1c14b430e66'),
    'exact-renyi-noninteger': (1.0584741166675393, 0.0, 0, '0c138bff614d'),
    'exact-von-neumann': (1.1140406740965365, 0.0, 0, '3c8e7d83eede'),
    'exact-von-neumann-user-delta': (1.094101236040891, 0.0, 0, '0061044ec29a'),
    'monomial-3-runs-5-shots': (2.14, 0.36000000000000004, 5, '7b256ed91e2b'),
    'monomial-8-runs-49-shots': (0.16326530612244897, 0.11045260463353412, 49, '7b256ed91e2b'),
    'parallel-circuit': (0.02642857142857143, 0.002548133230932139, 7000, None),
    'parallel-direct': (0.006142857142857143, 0.001742371760035601, 7000, None),
    'renyi-a3-k2': (1.416806712038778, 0.1200601925271944, 5000, 'c1c14b430e66'),
    'renyi-auto-a4-k2': (1.011224424901591, 0.03890485743051373, 5217, '397539982904'),
    'renyi-swap-a2-k3': (1.487220279709851, 0.06816031270573265, 4000, 'c1c14b430e66'),
    'swap-test': (0.14959999999999996, 0.019774932009996898, 2500, None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_unchanged(name):
    out = CASES[name]()
    value, std_error, shots_used, digest = _summary(out)
    want_value, want_se, want_shots, want_digest = PINS[name]
    assert value == pytest.approx(want_value, rel=1e-12, abs=1e-15)
    assert std_error == pytest.approx(want_se, rel=1e-12, abs=1e-15)
    assert (shots_used, digest) == (want_shots, want_digest)
    records = _draw_records(getattr(out, "breakdown", {}))
    assert all(r["pilot"] == 0 for r in records)
    assert bool(records) == name.startswith(("monomial", "chebyshev"))


NESTED_CASES = {
    "partition-auto": lambda: partition_function(_rho4(), 1.0, 2, seed=1, **SAMPLED),
    "von-neumann-auto-d2": lambda: von_neumann(
        DensityMatrix.random_seeded(2, 1), 1, seed=2, **SAMPLED
    ),
    "von-neumann-50000": lambda: von_neumann(_rho4(), 2, shots=50000, seed=3, **SAMPLED),
    "renyi-noninteger-rank-50000": lambda: renyi_noninteger(
        _rho4(), 1.5, 2, rank=4, shots=50000, seed=4, **SAMPLED
    ),
    "chebyshev-200000": lambda: estimate_chebyshev(
        _degree_12_target(), _rho8(), 2, shots=200000, seed=5, **SAMPLED
    ),
}

# (value, std_error, shots_used, key digest, predicted_shots,
#  (pilot, main) per stage_shots entry, (runs, pilot, main) per importance draw)
NESTED_PINS = {
    "partition-auto": (
        3.157895975974808, 0.00024408063843098034, 7389057, "1a8ccd53fac5", 7389057,
        [], [(7, 2719, 7386338)],
    ),
    "von-neumann-auto-d2": (
        0.2664838313995046, 1.1492410397158527e-05, 180108854100, "3c8e7d83eede",
        180108854100, [], [(44, 424393, 180108429707)],
    ),
    "von-neumann-50000": (
        1.1869408384417135, 0.04696937183768744, 50000, "3c8e7d83eede", 18332019954456292,
        [], [(108, 224, 49776)],
    ),
    "renyi-noninteger-rank-50000": (
        1.068357193952879, 0.023909870090514686, 50000, "91759744d639", 152511743769,
        [], [(24, 224, 49776)],
    ),
    "chebyshev-200000": (
        1.9996271924079327, 0.6329050319663394, 200000, "a67af13caffa", 975630923516,
        [(448, 40), (448, 184391), (448, 14225)], [(36, 430, 183961), (24, 120, 14105)],
    ),
}


@pytest.mark.parametrize("name", sorted(NESTED_CASES))
def test_nested_and_auto_paths_unchanged(name):
    out = NESTED_CASES[name]()
    value, std_error, shots_used, digest = _summary(out)
    want = NESTED_PINS[name]
    assert value == pytest.approx(want[0], rel=1e-12, abs=1e-15)
    assert std_error == pytest.approx(want[1], rel=1e-12, abs=1e-15)
    assert (shots_used, digest, out.predicted_shots) == want[2:5]
    splits = [(s["pilot"], s["main"]) for s in out.breakdown.get("stage_shots", [])]
    draws = [(r["runs"], r["pilot"], r["main"]) for r in _draw_records(out.breakdown)]
    assert (splits, draws) == want[5:]
