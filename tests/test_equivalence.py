"""Reads that the one stratified draw per sampled plan must leave bit for bit.

A sampled plan draws all its stages' runs at once.  A plan of one stage
whose runs come from a factorized run or an importance draw keeps the draw
it had, value, std_error and shots; so do the reads outside the
estimators (parallel_qsp_run in either mode) and every exact report.  The
values below were computed before the stratified importance draw existed,
unless a note says otherwise.  Each case pins value, std_error and
shots_used, and for a report the digest of its breakdown's key paths, so a
key added to these reports shows too; the one key every sampled report
carries, its stage_shots draw record, is left out of the digest and checked
on its own: these budgets are too small for a pilot, so it shows none,
except in the one two-stage plan.

Re-pinned when a sampled plan began drawing all its stages at once:
direct-two-stages (0.6791471416195151, 0.03532161199872117) and
chebyshev-60-shots (-89.43250214690362, 71.42434133500365), a two- and a
three-stage plan, now sit 0.39 and 0.37 standard errors below their exact
values 0.67237 and 1.48203 (0.19 above and 1.27 below before); their key
digests also moved, because stage_shots, which a multi-stage report carried
before, is now left out.  The swap test now reads out through joint_readout
as one run that always succeeds: its value did not move, and its standard
error, 0.019774932009996898 before, takes the sample variance's
n/(n - 1) correction (0.35 standard errors from tr(rho^3) = 0.14273).
Since the swap test reads exactly and joint_readout alone draws, the pin
is a joint_readout draw of the swap test's law on the same sampler, with
the same numbers.

A second table pins the reads that go through nested or auto-budget paths
(partition_function on the monomial estimator, the entropies on the
Chebyshev one, an auto budget) and a stratified Chebyshev read, with their
predicted shots and each stage's draw record.  Its values were computed
before the estimators composed plans rather than reports.  The Chebyshev
read was re-pinned with the one draw: (1.9996271924079327,
0.6329050319663394), 0.82 standard errors above the exact value 1.48203,
became (0.530855275132782, 0.6099688340003122), 1.56 below.  A third table
pins the whole JSON report of each exact case, which covers all seven
estimators, a Chebyshev target with both parity parts and both entropies;
a fourth, one-stage reads with room for a stratified draw.  Both were
computed before the one draw per plan.

chebyshev-60-shots gives its low stage one shot.  Its std_error was
re-pinned when a pooled stage of one shot began to report the variance
bound 1 instead of 0: 46.2205086703519 became 46.25196634236358; value,
shots and draw records did not move.
"""

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from conftest import random_parity_target
from pqsp import estimate
from pqsp import (
    DensityMatrix,
    Polynomial,
    ShotSampler,
    estimate_chebyshev,
    estimate_direct,
    factorize_nonneg,
    generalized_swap_expectation,
    joint_readout,
    monomial_poly_trace,
    parallel_qsp_run,
    partition_function,
    renyi_integer,
    renyi_noninteger,
    rescale_factors,
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
        p for k, v in obj.items() if k != "stage_shots" for p in _key_paths(v, f"{prefix}/{k}")
    ]


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
    "swap-test": lambda: joint_readout(
        *generalized_swap_expectation([_rho4()] * 3).law[:2], 2500, ShotSampler(4)
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
    'chebyshev-60-shots': (-15.404136309335833, 46.25196634236358, 60, '2558bc7aa3e3'),
    'direct-power': (0.006333333333333333, 0.002378062521623127, 3000, '26fb7d843f98'),
    'direct-two-stages': (0.6584761020034262, 0.035541274752325366, 6000, '60666994f7c8'),
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
    'swap-test': (0.14959999999999996, 0.019778888183290457, 2500, None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_unchanged(name):
    out = CASES[name]()
    value, std_error, shots_used, digest = _summary(out)
    want_value, want_se, want_shots, want_digest = PINS[name]
    assert value == pytest.approx(want_value, rel=1e-12, abs=1e-15)
    assert std_error == pytest.approx(want_se, rel=1e-12, abs=1e-15)
    assert (shots_used, digest) == (want_shots, want_digest)
    records = getattr(out, "breakdown", {}).get("stage_shots", [])
    # only direct-two-stages, two one-run stages at 6000 shots, has room for a pilot
    assert all(r["pilot"] == 0 for r in records) == (name != "direct-two-stages")
    assert bool(records) == (hasattr(out, "breakdown") and not name.startswith("exact"))


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
#  (runs, pilot, main) per stage_shots entry)
NESTED_PINS = {
    "partition-auto": (
        3.157895975974808, 0.00024408063843098034, 7389057, "1a8ccd53fac5", 7389057,
        [(7, 2719, 7386338)],
    ),
    "von-neumann-auto-d2": (
        0.2664838313995046, 1.1492410397158527e-05, 180108854100, "3c8e7d83eede",
        180108854100, [(44, 424393, 180108429707)],
    ),
    "von-neumann-50000": (
        1.1869408384417135, 0.04696937183768744, 50000, "3c8e7d83eede", 18332019954456292,
        [(108, 224, 49776)],
    ),
    "renyi-noninteger-rank-50000": (
        1.068357193952879, 0.023909870090514686, 50000, "91759744d639", 152511743769,
        [(24, 224, 49776)],
    ),
    "chebyshev-200000": (
        0.530855275132782, 0.6099688340003122, 200000, "2558bc7aa3e3", 975630923516,
        [(1, 4, 585), (36, 1248, 185951), (24, 92, 12120)],
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
    assert [(s["runs"], s["pilot"], s["main"]) for s in out.breakdown["stage_shots"]] == want[5]


def _report_digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# digests of the whole JSON report of each exact case above: all seven
# estimators, the Chebyshev target with both parity parts, both entropies
EXACT_DIGESTS = {
    "exact-chebyshev": "7fc3f6ea76278fe4",
    "exact-direct": "df4f0f7d994e3248",
    "exact-monomial": "e08d8b19793aca57",
    "exact-partition": "3c61ea90e2362e48",
    "exact-renyi-integer": "9f929639b2a81fd2",
    "exact-renyi-noninteger": "1f6e521a66cafd13",
    "exact-von-neumann": "c8a59ffe032dafdb",
    "exact-von-neumann-user-delta": "993c9eb5df712bfa",
}


@pytest.mark.parametrize("name", sorted(EXACT_DIGESTS))
def test_exact_reports_are_byte_identical(name):
    assert _report_digest(CASES[name]()) == EXACT_DIGESTS[name]


# one-stage sampled reads with room for a stratified draw, or a one-run read
STRATIFIED_CASES = {
    "monomial-8-runs-20000-shots": lambda: monomial_poly_trace(
        MONO8, _rho4(), 3, shots=20000, seed=2, **SAMPLED
    ),
    "partition-30000-shots": lambda: partition_function(
        _rho8(), 1.0, 2, shots=30000, seed=3, **SAMPLED
    ),
    "chebyshev-high-only-20000-shots": lambda: estimate_chebyshev(
        Polynomial([0, 0, 0, 0, 0, 0, 0.5]), _rho8(), 2, shots=20000, seed=3, **SAMPLED
    ),
    "direct-power-100000-shots": lambda: estimate_direct(
        Polynomial([0, 0, 0, 0, 0, 0, 1]), _rho4(), 2, shots=100000, seed=4, **SAMPLED
    ),
    "renyi-auto-a2-k3": lambda: renyi_integer(_rho8(), 2, 3, seed=5, **SAMPLED),
}

STRATIFIED_PINS = {
    "chebyshev-high-only-20000-shots": (-0.15286839090353882, 0.11910283705060963, 20000),
    "direct-power-100000-shots": (0.01159, 0.0004438002800662544, 100000),
    "monomial-8-runs-20000-shots": (0.16826489796406793, 0.004146710779646521, 20000),
    "partition-30000-shots": (7.110830148846705, 0.004171055428279937, 30000),
    "renyi-auto-a2-k3": (1.288530192353999, 0.09066802121527742, 2480),
}


@pytest.mark.parametrize("name", sorted(STRATIFIED_CASES))
def test_one_stage_draws_unchanged(name):
    out = STRATIFIED_CASES[name]()
    assert (out.value, out.std_error, out.shots_used) == STRATIFIED_PINS[name]
    (record,) = out.breakdown["stage_shots"]
    # an auto budget's 1000-shot pilot is charged on top of the stage's draw
    assert record["pilot"] + record["main"] == out.breakdown.get("auto_shots", out.shots_used)


# Swap-test reads at D = 16-64, the dimensions the benchmark states reach.
# Each key pins one digest over a family's calls at one dimension (and, for
# renyi_integer, one order alpha, over k = 1-4): the JSON report of each
# call, or its error's type and message, so a raised error is pinned too.
# The pins were computed before each (exponents, k) layout was built once
# and before plan-built laws were read without re-validation.
LARGE_DIMS = (16, 32, 64)
POLY_BETAS = (0.5, 2.0)


def _outcome(call) -> str:
    try:
        return json.dumps(call().to_dict(), sort_keys=True)
    except Exception as exc:  # an error is an outcome like any other
        return f"{type(exc).__name__}: {exc}"


def _large_state(dim: int) -> DensityMatrix:
    return DensityMatrix.random_seeded(dim, dim + 1)


def _large_calls(key: str) -> list:
    family, dim, rest = key.split("/")
    rho = _large_state(int(dim[1:]))
    if family == "renyi-exact":
        alpha = int(rest[1:])
        return [partial(renyi_integer, rho, alpha, k) for k in range(1, 5)]
    if family == "renyi-sampled":
        alpha = int(rest[1:])
        return [
            partial(renyi_integer, rho, alpha, k, shots=20000, seed=alpha + k, **SAMPLED)
            for k in range(1, 5)
        ]
    if family == "partition":
        return [
            partial(partition_function, rho, beta, k, mode=mode, seed=k)
            for beta in POLY_BETAS for k in (2, 3) for mode in ("exact", "sampled")
        ]
    return [
        partial(monomial_poly_trace, MONO8, rho, k, mode=mode, shots=shots, seed=k)
        for k in range(1, 5) for mode, shots in (("exact", None), ("sampled", 20000))
    ]


LARGE_KEYS = [
    f"{family}/D{dim}/a{alpha}"
    for family in ("renyi-exact", "renyi-sampled")
    for dim in LARGE_DIMS
    for alpha in range(2, 11)
] + [f"{family}/D{dim}/-" for family in ("partition", "monomial") for dim in LARGE_DIMS]

LARGE_PINS = {
    'renyi-exact/D16/a2': 'f325da5547eca34a',
    'renyi-exact/D16/a3': '0eebbe5cd3957301',
    'renyi-exact/D16/a4': '03a85eec56bff02c',
    'renyi-exact/D16/a5': 'dd70e050bf178f64',
    'renyi-exact/D16/a6': '83566233f63eb999',
    'renyi-exact/D16/a7': 'c7baf3867d65f071',
    'renyi-exact/D16/a8': 'bd3f9cf688b93e42',
    'renyi-exact/D16/a9': 'e0925ce0f5e37bbc',
    'renyi-exact/D16/a10': 'e826e1d3e58956be',
    'renyi-exact/D32/a2': 'b87b58dfd4a1e5e5',
    'renyi-exact/D32/a3': 'aaa4fac69cab98af',
    'renyi-exact/D32/a4': '7573a23d46ee8a7e',
    'renyi-exact/D32/a5': 'e2a21269b5869fbf',
    'renyi-exact/D32/a6': 'a2481358607b401e',
    'renyi-exact/D32/a7': '82a4259c29742585',
    'renyi-exact/D32/a8': '6e04b4c904a7fddc',
    'renyi-exact/D32/a9': 'e8c5a1f0cadc7fb6',
    'renyi-exact/D32/a10': '3828a63946602681',
    'renyi-exact/D64/a2': 'ac332dba5a3373e4',
    'renyi-exact/D64/a3': 'c08453f28632a132',
    'renyi-exact/D64/a4': 'b8f4df0294207984',
    'renyi-exact/D64/a5': 'd16f367f8f8241bc',
    'renyi-exact/D64/a6': '8d047aa3a7ac71b9',
    'renyi-exact/D64/a7': '464e88770948ec9a',
    'renyi-exact/D64/a8': 'd4a195b783dbb1b5',
    'renyi-exact/D64/a9': 'dcdf89a8f5ff76ec',
    'renyi-exact/D64/a10': '22afaba8addfa13a',
    'renyi-sampled/D16/a2': '1a793694a6f086f1',
    'renyi-sampled/D16/a3': '1db4db1716c8c868',
    'renyi-sampled/D16/a4': '03ce0c8c51df2347',
    'renyi-sampled/D16/a5': '056d763b6cf847d7',
    'renyi-sampled/D16/a6': '80d4d27977695713',
    'renyi-sampled/D16/a7': '74c1c12ee1f8750b',
    'renyi-sampled/D16/a8': '54917ae6c425ece4',
    'renyi-sampled/D16/a9': '0bcd236733b6e875',
    'renyi-sampled/D16/a10': '0b0d3185387e8fcd',
    'renyi-sampled/D32/a2': '304562072b253b2e',
    'renyi-sampled/D32/a3': 'eab5c19d9b374434',
    'renyi-sampled/D32/a4': 'dd1e67061dd751b9',
    'renyi-sampled/D32/a5': 'fc2b98a20bcb5e08',
    'renyi-sampled/D32/a6': 'bcacb16b2b98ad20',
    'renyi-sampled/D32/a7': '15337074925a5dc4',
    'renyi-sampled/D32/a8': 'ab824018da83ba57',
    'renyi-sampled/D32/a9': 'ab824018da83ba57',
    'renyi-sampled/D32/a10': 'ab824018da83ba57',
    'renyi-sampled/D64/a2': 'd4673abf422d1fd8',
    'renyi-sampled/D64/a3': '907c6a295b9e6137',
    'renyi-sampled/D64/a4': '2fcef760cc2a991a',
    'renyi-sampled/D64/a5': '7c57c97fdb14b6d5',
    'renyi-sampled/D64/a6': 'f88ebcc0f574f72b',
    'renyi-sampled/D64/a7': '9df5a5d0ee87fd46',
    'renyi-sampled/D64/a8': 'ab824018da83ba57',
    'renyi-sampled/D64/a9': 'ab824018da83ba57',
    'renyi-sampled/D64/a10': 'ab824018da83ba57',
    'partition/D16/-': '0833119d0d885430',
    'partition/D32/-': '2c2c6f4364c082d3',
    'partition/D64/-': '2881962da3a75a52',
    'monomial/D16/-': 'f93be5dcaa949933',
    'monomial/D32/-': 'ea0f3c75cc66967c',
    'monomial/D64/-': '1bd11711a6ca8b22',
}


@pytest.mark.parametrize("key", LARGE_KEYS)
def test_large_dimension_reads_unchanged(key):
    text = "\n".join(_outcome(call) for call in _large_calls(key))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == LARGE_PINS[key]


# Benchmark-shaped reads: estimate_direct's factorized run and its
# stratified two-stage draw at 100,000 shots, the one-run pooled draw of
# parallel_qsp_run at 1,000 shots, a many-run Chebyshev draw, and the
# factorization plans of 200 benchmark-like sources.  Each case pins value,
# std_error, shots_used, predicted_shots and K (or the error's type and
# message).  The pins were computed before find_roots, the grouping and the
# draw were made cheaper per call.
BENCH_SHOTS = 100_000


def _root_pairs(rng: np.random.Generator, pairs: int) -> np.ndarray:
    """Monomial coefficients of prod_j |x - z_j|^2, Re z in [-1.2, 1.2], Im z in [0.15, 1]."""
    re, im = rng.uniform(-1.2, 1.2, pairs), rng.uniform(0.15, 1.0, pairs)
    out = np.array([1.0])
    for a, b in zip(re, im):
        out = np.polynomial.polynomial.polymul(out, [a * a + b * b, -2.0 * a, 1.0])
    return out


def _bench_direct_target(dim: int, k: int) -> Polynomial:
    """P_low + x^k R with R >= 0 of 2 + (dim + k) % 5 root pairs, at sup norm 0.9 on a grid."""
    rng = np.random.default_rng([dim, k])
    c = np.concatenate([rng.normal(size=k) * 0.3, _root_pairs(rng, 2 + (dim + k) % 5)])
    peak = np.max(np.abs(np.polynomial.polynomial.polyval(np.linspace(-1, 1, 2001), c)))
    return Polynomial([float(x) for x in c * (0.9 / peak)])


def _bench_plan_factors(dim: int, k: int) -> list[Polynomial]:
    """The rescaled factors of a phase-circuit-like source of k + 1 root pairs."""
    R = _root_pairs(np.random.default_rng([dim, k, 1]), k + 1)
    peak = np.max(np.abs(np.polynomial.polynomial.polyval(np.linspace(-1, 1, 2001), R)))
    return list(rescale_factors(factorize_nonneg(Polynomial(R / peak), k)).factors)


def _fields(call) -> tuple | str:
    try:
        out = call()
    except Exception as exc:  # an error is an outcome like any other
        return f"{type(exc).__name__}: {exc}"
    breakdown = getattr(out, "breakdown", {})
    return (out.value, out.std_error, out.shots_used, getattr(out, "predicted_shots", None),
            breakdown.get("K"))


BENCH_CASES = {
    f"direct-D{dim}-k{k}-{mode}": partial(
        lambda dim, k, mode: estimate_direct(
            _bench_direct_target(dim, k), DensityMatrix.random_seeded(dim, dim + k), k,
            shots=BENCH_SHOTS if mode == "sampled" else None, mode=mode, seed=dim * k,
        ), dim, k, mode,
    )
    for dim in (4, 16, 32) for k in (2, 3, 4) for mode in ("exact", "sampled")
}
BENCH_CASES.update({
    f"run-{mode}-D{dim}-k{k}": partial(
        lambda dim, k, mode: parallel_qsp_run(
            _bench_plan_factors(dim, k), DensityMatrix.random_seeded(dim, 7), shots=1000,
            mode=mode, sampler=ShotSampler(dim + k),
        ), dim, k, mode,
    )
    for dim, k in ((2, 2), (2, 3), (4, 2), (4, 3)) for mode in ("direct", "circuit")
})
BENCH_CASES.update({
    f"chebyshev-D{dim}-k{k}-d{d}": partial(
        lambda dim, k, d: estimate_chebyshev(
            0.9 * random_parity_target(np.random.default_rng(d), d),
            DensityMatrix.random_seeded(dim, d), k, shots=BENCH_SHOTS, seed=k, **SAMPLED,
        ), dim, k, d,
    )
    for dim, k, d in ((4, 2, 8), (16, 3, 20), (32, 4, 16))
})

BENCH_PINS = {
    'chebyshev-D16-k3-d20': (-6.85645319637653, 3.6501842844301877, 100000, 10232347232770188, None),
    'chebyshev-D32-k4-d16': (968.9700519693631, 1743.170860582239, 100000, 577965895137718656, None),
    'chebyshev-D4-k2-d8': (0.255016393037824, 0.9426172613937238, 100000, 43738709295, None),
    'direct-D16-k2-exact': (-0.4380653513471464, 0.0, 0, 342, 0.9612242781090637),
    'direct-D16-k2-sampled': (-0.43744851261293694, 0.0007830364534291227, 100000, 342, 0.9612242781090637),
    'direct-D16-k3-exact': (-0.14114668233195107, 0.0, 0, 326, 0.949669507266693),
    'direct-D16-k3-sampled': (-0.14135301411808734, 0.0003319159955172399, 100000, 326, 0.949669507266693),
    'direct-D16-k4-exact': (-0.17112619721368108, 0.0, 0, 347, 0.9647195902232434),
    'direct-D16-k4-sampled': (-0.16758284890155326, 0.0023236252053474788, 100000, 347, 0.9647195902232434),
    'direct-D32-k2-exact': (0.001997529674552977, 0.0, 0, 324, 0.948600764902775),
    'direct-D32-k2-sampled': (0.0020404415084623135, 6.544247801068025e-05, 100000, 324, 0.948600764902775),
    'direct-D32-k3-exact': (0.5019366828420264, 0.0, 0, 279, 0.9116518624724903),
    'direct-D32-k3-sampled': (0.500601870671169, 0.007617111474596352, 100000, 279, 0.9116518624724903),
    'direct-D32-k4-exact': (0.345498727379138, 0.0, 0, 2388, 1.5629549551372641),
    'direct-D32-k4-sampled': (0.3342274706801213, 0.0060275010007300655, 100000, 2388, 1.5629549551372641),
    'direct-D4-k2-exact': (-0.5831946757619101, 0.0, 0, 558, 1.0736614625474228),
    'direct-D4-k2-sampled': (-0.578488591748937, 0.003302554748781122, 100000, 558, 1.0736614625474228),
    'direct-D4-k3-exact': (-0.011898983679297207, 0.0, 0, 324, 0.9481766577025543),
    'direct-D4-k3-sampled': (-0.011453664383379853, 0.00023829133454155628, 100000, 324, 0.9481766577025543),
    'direct-D4-k4-exact': (-0.035409502135512, 0.0, 0, 2654, 1.604795556603103),
    'direct-D4-k4-sampled': (-0.034766445702361204, 0.0010568938770356702, 100000, 2654, 1.604795556603103),
    'run-circuit-D2-k2': (0.566, 0.01939123564964389, 1000, None, None),
    'run-circuit-D2-k3': (0.003, 0.0038737586406494156, 1000, None, None),
    'run-circuit-D4-k2': (0.164, 0.0177600512223197, 1000, None, None),
    'run-circuit-D4-k3': (0.006, 0.004897753361285968, 1000, None, None),
    'run-direct-D2-k2': (0.566, 0.01939123564964389, 1000, None, None),
    'run-direct-D2-k3': (0.003, 0.0038737586406494156, 1000, None, None),
    'run-direct-D4-k2': (0.164, 0.0177600512223197, 1000, None, None),
    'run-direct-D4-k3': (0.006, 0.004897753361285968, 1000, None, None),
}


@pytest.mark.parametrize("name", sorted(BENCH_CASES))
def test_benchmark_shaped_reads_unchanged(name):
    assert _fields(BENCH_CASES[name]) == BENCH_PINS[name]


def _plan_outcomes() -> list[str]:
    """factorize_nonneg then rescale_factors on 200 seeded sources of 2-6
    root pairs at k = 2-4: each plan's factors, norms and constants, by repr."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(200):
        R = Polynomial(_root_pairs(rng, 2 + i % 5))
        k = 2 + i % 3
        try:
            plans = [factorize_nonneg(R, k)]
            plans.append(rescale_factors(plans[0]))
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        out.append(repr([
            ([f.cheb for f in plan.factors], plan.factor_norms, plan.factorization_constant,
             plan.stored_constant)
            for plan in plans
        ]))
    return out


BENCH_PLAN_DIGEST = '4f7aceb87a19a0dd'


def test_factorization_plans_unchanged():
    digest = hashlib.sha256("\n".join(_plan_outcomes()).encode()).hexdigest()[:16]
    assert digest == BENCH_PLAN_DIGEST



# Cold against warm term layouts: every Chebyshev read above, and the
# entropies, whose approximants go through estimate_chebyshev's plan, at
# D = 4-16 and k = 2-4 (von Neumann at D = 16 on the rank route, as its
# auto fit fails there).  Each runs from empty memos (conftest), then again
# on the layouts its first run built; both reports must agree byte for byte.
WARM_CASES = {
    name: call
    for table in (CASES, NESTED_CASES, STRATIFIED_CASES, BENCH_CASES)
    for name, call in table.items()
    if "chebyshev" in name
}
WARM_CASES.update({
    f"{name}-D{dim}-k{k}": partial(
        lambda fn, dim, k: fn(DensityMatrix.random_seeded(dim, dim + k), k), fn, dim, k
    )
    for name, fn in (
        ("von-neumann", lambda rho, k: von_neumann(rho, k, rank=16 if rho.dim == 16 else None)),
        ("renyi-1.5", lambda rho, k: renyi_noninteger(rho, 1.5, k)),
    )
    for dim in (4, 8, 16) for k in (2, 3, 4)
})


def _report_text(call) -> str:
    return json.dumps(call().to_dict(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(WARM_CASES))
def test_warm_term_layouts_keep_every_byte(name):
    memo = estimate._term_layout
    cold = _report_text(WARM_CASES[name])
    built = memo.cache_info().misses
    warm = _report_text(WARM_CASES[name])
    info = memo.cache_info()
    assert built > 0 and info.misses == built and info.hits >= built
    assert warm == cold


def test_tails_of_one_shape_get_their_own_layouts():
    """x^2 times a dense degree-12 tail and x^2 times 0.9 T_12: their tails
    share (degree, k) but not their ctilde keys, so each reads its own entry."""
    rho, x2 = _rho8(), Polynomial([0, 0, 1])
    tails = [0.9 * random_parity_target(np.random.default_rng(12), 12),
             Polynomial.from_cheb([0.0] * 12 + [0.9])]
    calls = [partial(estimate_chebyshev, x2 * tail, rho, 2) for tail in tails]
    memo = estimate._term_layout
    cold = []
    for call in calls:
        memo.cache_clear()
        cold.append(_report_text(call))
    memo.cache_clear()
    warm = [_report_text(call) for call in calls * 2]
    info = memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    assert warm == cold * 2
