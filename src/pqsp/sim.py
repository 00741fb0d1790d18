"""Density matrices, block encodings, and measurement simulation.

Estimation has three read-outs.  spectral_hadamard_test is the Hadamard
test of Re tr((I/D) * p(rho)/||p||), the read-out of a sequential stage;
generalized_swap_expectation is the generalized swap test, which turns a
cyclic shift over k registers into tr(rho_1 ... rho_k); and parallel_qsp_run
is the paper's parallel circuit: k threads each apply a factor polynomial to
a copy of rho, post-select on their encoding flags, and a
Hadamard-conjugated controlled cyclic shift reads out
z = tr(rho^k * prod_j |P_j(rho)|^2) through the joint outcome statistics,
without ever renormalizing by the success probability.  Every read-out is
one law, a list of runs (q_j, z_j) with coefficients c_j, each shot landing
on (+1, -1, discard) of one run; the Hadamard and swap tests, which read
exactly, are one run that always succeeds.  _read is the one reader of a
law, exact or drawn, and checks nothing: joint_readout, the public drawing
call, checks a caller's law first, and every other law is checked where it
is built (a plan's layouts once, by _checked_layout).  An exact read keeps
its runs on the Estimate as its law, so an estimator can read every stage
exactly and then draw all of a plan's runs at once: one multinomial per
stage when the budget is small, else a pilot and a main row-wise
multinomial stratified by run across all stages.

Two execution modes exist.  "direct" works on rho's eigenvalues w_i alone:
every thread block P_j(rho) is a function of rho, so one eigenbasis
diagonalizes them all, thread j post-selects with probability
q_j = sum_i w_i |P_j(w_i)|^2 and z = sum_i w_i^k prod_j |P_j(w_i)|^2, with no
D x D matrix formed.  parallel_qsp_runs evaluates a stage, a factor table
and an index of its runs (layout_table builds both from thread layouts), in
one array pass, and spectral_hadamard_test reads the mean of p(w_i)/||p||
the same way.
"circuit" reads the same factor table through _thread_values and, whatever
the encoding, builds one D x D flag-zero block B = V diag(values) V^dagger
per distinct factor, V rho's eigenvectors: by qubitization each thread's
block is that function of rho.  The joint outcome probabilities come from
the literal cyclic-shift permutation, a correctness witness independent of
direct mode's closed form.  Post-selecting every flag register on zero
commutes with the shift, which moves system registers only, and leaves the
tensor product of the outputs B_j rho B_j^dagger; that block is all the
swap test reads, so it is evaluated on the D^k-dimensional success
subspace, in O(k D^3 + D^(2k)) work, with D^k capped at 1024.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .errors import InputError, PostSelectionError
from .poly import (
    Parity, Polynomial, _clenshaw, _complex_pair, _entry, _integer, _norms_exceed, sup_norm
)
from .qsp import find_phases, realized_value

__all__ = [
    "DensityMatrix",
    "ShotSampler",
    "Estimate",
    "generalized_swap_expectation",
    "spectral_hadamard_test",
    "layout_table",
    "parallel_qsp_runs",
    "joint_readout",
    "parallel_qsp_run",
    "query_depth_report",
]

ShotSpec = int | Literal["exact"]

# Caps D^k, the side of circuit mode's post-selected state.  One BLAS thread,
# 2-vCPU Xeon VM: oracle runs at D = 32, k = 2 and D = 2, k = 10 take 64 and
# 81 ms at 64 MB peak (tracemalloc); D = 16, k = 3 took 2.9 s and 1.07 GB.
_CIRCUIT_CAP = 1024

# Largest q a draw accepts: factors pass the norm check up to 1 + 1e-9, so a
# k-thread run's q can reach (1 + 1e-9)^(2k); this covers 500 threads.
_Q_MAX = 1.0 + 1e-6

# q and c of a one-run law that always succeeds, shared read-only
_ONE = np.ones(1)
_ONE.flags.writeable = False
# columns of a draw's counts (n+, n-, discard) that give n+ - n- and n+ + n-
_PLUS_MINUS = np.array([[1, 1], [-1, 1], [0, 0]])
_PLUS_MINUS.flags.writeable = False


@dataclass(frozen=True)
class Estimate:
    """A value with its standard error; exact computations use shots_used=0.

    Estimators assemble their stages arithmetically: a + b is the sum of two
    independent stages (variances and shots add) and c * est rescales a
    stage by a known constant.  An exact read-out keeps the law it read as
    law, its runs' (q, z, c), so a caller can draw shots of several
    read-outs at once through joint_readout; a sampled joint_readout keeps
    each stage's Estimate and draw record as parts.  Sums and rescaled
    estimates keep neither.
    """

    value: float
    std_error: float
    shots_used: int = 0
    law: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )
    parts: tuple[tuple["Estimate", dict], ...] = field(default=(), compare=False, repr=False)

    def __add__(self, other: "Estimate") -> "Estimate":
        return Estimate(
            value=self.value + other.value,
            std_error=math.hypot(self.std_error, other.std_error),
            shots_used=self.shots_used + other.shots_used,
        )

    def __rmul__(self, c: float) -> "Estimate":
        return Estimate(
            value=c * self.value, std_error=abs(c) * self.std_error, shots_used=self.shots_used
        )


class ShotSampler:
    """Deterministic counter-based randomness for measurement simulation.

    Wraps a Philox generator keyed by (seed, spawn path; a seed is None, read
    as 0, or an integer >= 0), built on the first draw, so exact runs build
    none.  The same seed and request sequence reproduce identical draws, and
    child(i) yields an independent stream, so an estimator's auto-budget
    pilot and its main draw do not couple their consumption.
    """

    def __init__(self, seed: int | None, _path: tuple[int, ...] = ()):
        self.seed = 0 if seed is None else _integer(seed, "seed")
        self.path = tuple(_path)

    @functools.cached_property
    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "ShotSampler":
        return ShotSampler(self.seed, self.path + (int(index),))

    def multinomial_rows(self, shots: Sequence[int], pvals: np.ndarray) -> np.ndarray:
        """One multinomial of shots[i] shots over each row i of pvals, in one draw."""
        p = np.maximum(pvals, 0.0)
        return self.rng.multinomial(shots, p / np.add.reduce(p, axis=1, keepdims=True))

    def __repr__(self) -> str:
        return f"ShotSampler(seed={self.seed}, path={self.path})"


def _check_shots(shots, stages: int = 1) -> int:
    """A sampled budget: an integer (numpy's too, not bool), one shot per stage or more."""
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise InputError(f"sampled mode needs an integer shot count, got {shots!r}")
    if shots < stages:
        raise InputError(f"sampled shot budget {shots} is below the stage count {stages}")
    return int(shots)


def _pilot_shots(n: int) -> int:
    """ceil(sqrt(n)), the pilot of a budget of n >= 1 shots."""
    return math.isqrt(max(n - 1, 0)) + 1


def _neyman_split(total: int, weights: Sequence[float]) -> np.ndarray:
    """total shots in proportion to non-negative weights, at least one each;
    all-zero weights split evenly.  The spare shots are cut at the floors of
    their cumulative weighted shares, the last being all of them, so the
    counts sum to total exactly.  A total past int64 raises numpy's
    OverflowError, as a draw of that many shots would."""
    acc = np.add.accumulate(np.asarray(weights, dtype=float))
    acc = acc if acc[-1] else np.arange(1.0, len(acc) + 1)
    spare = np.int64(total - len(acc))
    cuts = (spare * (acc / acc[-1])).astype(np.int64)  # the floor, as the product is >= 0
    np.minimum(cuts, spare, out=cuts)
    cuts[-1] = spare  # the float product rounds past 2^53
    cuts[1:] -= cuts[:-1]
    cuts += 1
    return cuts


class DensityMatrix:
    """A trace-one positive semidefinite Hermitian matrix with its spectrum.

    Construction rejects an empty or non-finite matrix, validates Hermiticity
    (1e-10 entrywise) and unit trace (1e-10), then runs eigvalsh, which
    checks that the spectrum is >= -1e-10; the eigenvalues are stored
    read-only beside the matrix and never change afterwards.  Direct
    simulation needs nothing more.  The eigenvector columns _v are computed
    on the first call to spectral_operator (circuit mode) or eigh() and
    kept, like Polynomial._norm; every function of rho is then
    f(rho) = V diag(f(w)) V^dagger.  At D = 64 with one BLAS thread on a
    2-vCPU Xeon VM, construction takes about 0.6 ms and the eigenvectors
    about 1 ms more.  Direct simulation paths are sized for dimensions up
    to 64.
    """

    __slots__ = ("matrix", "_w", "_v")

    def __init__(self, matrix):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("density matrix must be square")
        if not arr.size or not np.isfinite(arr).all():
            raise InputError("density matrix must be non-empty with finite entries")
        if float(np.max(np.abs(arr - arr.conj().T))) > 1e-10:
            raise InputError("density matrix must be Hermitian")
        if abs(np.trace(arr) - 1.0) > 1e-10:
            raise InputError(f"density matrix trace is {np.trace(arr)}, expected 1")
        w = np.linalg.eigvalsh(arr)
        if float(w.min()) < -1e-10:
            raise InputError("density matrix has a negative eigenvalue")
        for name, a in (("matrix", arr), ("_w", w)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(ascending eigenvalues, eigenvector columns); the vectors are kept."""
        return self._w, self._vectors()

    def _vectors(self) -> np.ndarray:
        if not hasattr(self, "_v"):
            v = np.linalg.eigh(self.matrix)[1]
            v.flags.writeable = False
            object.__setattr__(self, "_v", v)
        return self._v

    def eigenvalues(self) -> np.ndarray:
        return self._w

    def spectral_operator(self, values) -> np.ndarray:
        """V diag(values) V^dagger: f(rho) for values = f(eigenvalues())."""
        v = self._vectors()
        return (v * values) @ v.conj().T

    @classmethod
    def pure(cls, dim: int, index: int = 0) -> "DensityMatrix":
        if _integer(index, "pure state index") >= _integer(dim, "dimension", 1):
            raise InputError(f"pure state index {index} lies outside [0, {dim})")
        return cls.diagonal(np.arange(dim) == index)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(_integer(dim, "dimension", 1)) / dim)

    @classmethod
    def diagonal(cls, probs: Sequence[float]) -> "DensityMatrix":
        p = np.asarray(probs, dtype=float)
        if (p < -1e-12).any():
            raise InputError("probabilities must be non-negative")
        total = p.sum()
        if abs(total - 1.0) > 1e-6:
            raise InputError(f"probabilities sum to {total}, expected 1")
        return cls(np.diag(p / total).astype(complex))

    @classmethod
    def random_seeded(cls, dim: int, seed: int) -> "DensityMatrix":
        _integer(dim, "dimension", 1)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_integer(seed, "seed"))))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        return cls(m / np.trace(m))

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "matrix": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.matrix
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "DensityMatrix":
        """Parse the JSON form, a square "matrix" of [re, im] pairs; a malformed
        one raises InputError naming the entry."""
        rows = _entry(obj, "matrix", list)
        if any(not isinstance(row, list) or len(row) != len(rows) for row in rows):
            raise InputError(f"entry 'matrix' must be square, got rows of {[len(r) for r in rows]}")
        return cls([[_complex_pair(v, f"matrix entry ({i}, {j})") for j, v in enumerate(row)]
                    for i, row in enumerate(rows)])


def spectral_hadamard_test(p: Polynomial, rho: DensityMatrix) -> Estimate:
    """Hadamard test of Re tr((I/D) * p(rho)/||p||), read from rho's eigenvalues.

    The block p(rho)/||p|| is a function of rho, so the trace is the mean of
    p(w_i)/||p|| over the eigenvalues w_i, clipped to [-1, 1], and lies in
    [-1, 1] without any encoding being built.  The zero polynomial has no
    such block and raises InputError.  The exact Estimate keeps the law of
    one run that always succeeds, _hadamard_law; joint_readout draws shots
    of it.
    """
    return _read(*_hadamard_law(p, rho))


def _hadamard_law(p: Polynomial, rho: DensityMatrix) -> tuple[np.ndarray, ...]:
    """spectral_hadamard_test's law (q, z, c), checked: one run of
    z = mean_i p(w_i)/||p||, finite, that always succeeds."""
    norm = sup_norm(p)
    if norm == 0.0:
        raise InputError("the zero polynomial has no block p/||p|| to encode")
    w = rho.eigenvalues()
    values = p(np.minimum(np.maximum(w, -1.0), 1.0)).real / norm
    return _ONE, np.array([float(np.add.reduce(values) / len(values))]), _ONE  # np.mean's sum


def generalized_swap_expectation(states: Sequence[DensityMatrix]) -> Estimate:
    """Re tr(rho_1 rho_2 ... rho_k) via the cyclic-shift test on k registers.

    The states are multiplied out directly (k <= 6).  The exact Estimate
    keeps the law of the ancilla, one run that always succeeds: drawn
    through joint_readout, a shot reads +1 with probability
    (1 + Re tr(prod rho_j))/2, estimating the real part.
    """
    k = len(states)
    if k < 1:
        raise InputError("need at least one state")
    if k > 6:
        raise InputError("cyclic-shift expectation is limited to k <= 6 registers")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise InputError(f"dimension mismatch across registers: {sorted(dims)}")
    prod = states[0].matrix
    for s in states[1:]:
        prod = prod @ s.matrix
    return _read(_ONE, np.array([float(np.real(np.trace(prod)))]), _ONE)


def _check_rows(table: Sequence[Polynomial], index: np.ndarray) -> None:
    """Reject a stage's index or factor rows: the one factor norm check.

    index must be a 2-D integer array of table rows.  Each row is checked
    against sup norm 1 once; one above it raises naming its first run and
    thread, or its row if no run applies it.
    """
    valid = isinstance(index, np.ndarray) and index.ndim == 2 and index.dtype.kind in "iu"
    if not valid or index.size and not (
        0 <= np.minimum.reduce(index, axis=None) <= np.maximum.reduce(index, axis=None) < len(table)
    ):
        raise InputError(f"index must be a 2-D integer array with entries in [0, {len(table)})")
    over = [r for r, big in enumerate(_norms_exceed(table[1:], 1.0 + 1e-9), 1) if big]
    if over:
        hits = np.argwhere(np.isin(index, over))
        where = "layout {}, factor {}".format(*hits[0]) if len(hits) else f"table row {over[0]}"
        raise InputError(f"apply rescale_factors: {where} has sup norm above 1")


def _series(factors: Sequence[Polynomial]) -> np.ndarray:
    """The factors' Chebyshev series zero-padded to one length, one column
    per factor, shaped for _clenshaw (leading zeros change no step's value)."""
    n = max((len(f.cheb) for f in factors), default=1)
    series = np.array([(*f.cheb, *(0j,) * (n - len(f.cheb))) for f in factors], complex)
    return series.reshape(-1, n).T[:, :, None]


def _thread_values(
    table: Sequence[Polynomial], index: np.ndarray, rho: DensityMatrix, encode: str
) -> np.ndarray | list[np.ndarray]:
    """Block eigenvalues on rho's spectrum of factor rows 1.., entry r - 1 for row r.

    table and index are a stage's, as parallel_qsp_runs takes them, and are
    checked by _check_rows first.  Oracle encoding reproduces the factors
    exactly, in one Clenshaw pass over their _series.  The phase route
    solves phases once per row and returns Re P, P the polynomial they
    generate; by qubitization that is the averaged flag-zero block of the
    sequences for phi and -phi, and it matches the factor to phase finding's
    tolerance.  find_phases' own norm verdict reads the interval the check
    kept on the factor.
    """
    _check_rows(table, index)
    factors, w = table[1:], rho.eigenvalues()
    if encode == "oracle":
        return _clenshaw(_series(factors), w)
    if encode != "qsp":
        raise InputError(f"unknown encode mode {encode!r}")
    if any(f.max_imag() > 1e-10 or f.parity is Parity.INDEFINITE for f in factors):
        raise InputError(
            "phase-based encoding needs real definite-parity factors; "
            "use the oracle encoding for complex or mixed-parity factors"
        )
    return [realized_value(find_phases(f), w) for f in factors]


def _joint_probabilities_circuit(
    blocks: Sequence[np.ndarray], rho: DensityMatrix
) -> tuple[float, float]:
    """(success prob, z) of the tensored thread registers, on the success subspace.

    Each thread holds flag registers plus a system register; the circuit
    applies all thread unitaries, a Hadamard-conjugated controlled cyclic
    shift of the system registers, and reads joint outcome probabilities
    for (control, all flags zero).  The all-flags-zero projector acts on
    flags only, so it commutes with the shift, and it maps the register
    state to the product of sigma_j = B_j rho B_j^dagger, B_j the D x D
    flag-zero block of thread j: the four Hadamard/shift terms are formed
    on that D^k product alone, with the literal shift permutation.
    """
    sigma = np.eye(1, dtype=complex)
    for b in blocks:  # np.kron's broadcast product, without its wrappers
        s = b @ rho.matrix @ b.conj().T
        sigma = (sigma[:, None, :, None] * s[None, :, None, :]).reshape(len(sigma) * len(s), -1)
    perm = _shift_permutation(rho.dim, len(blocks))

    p_succ = float(np.real(np.trace(sigma)))
    # Hadamard, controlled shift, Hadamard: p(control=0 and flags 0)
    s_sigma = sigma[perm, :]
    fin00 = 0.25 * (sigma + sigma[:, perm] + s_sigma + s_sigma[:, perm])
    p_both = float(np.real(np.trace(fin00)))
    z = 2.0 * p_both - p_succ
    return p_succ, z


@functools.lru_cache(maxsize=16)
def _shift_permutation(d: int, k: int) -> np.ndarray:
    """Read-only row order of the shift moving digit j-1 of k D-level digits
    to j, thread 0 most significant: the last digit moves to the front."""
    t = np.arange(d ** k)
    perm = (t % d) * d ** (k - 1) + t // d
    perm.flags.writeable = False
    return perm


def layout_table(layouts: Sequence[Sequence[Polynomial]]) -> tuple[tuple, np.ndarray]:
    """The factor table and index of hand-built thread layouts, for parallel_qsp_runs.

    Row 0 of the table is the constant 1 that pads short layouts; the other
    rows are the distinct factor instances (layout builders share them) in
    order of first appearance.
    """
    index = np.zeros((len(layouts), max((len(fl) for fl in layouts), default=0)), np.intp)
    rows: dict[int, tuple[int, Polynomial]] = {}  # by identity: (row, instance)
    for i, fl in enumerate(layouts):
        if not fl:
            raise InputError(f"layout {i} needs at least one factor polynomial")
        for j, f in enumerate(fl):
            index[i, j] = rows.setdefault(id(f), (len(rows) + 1, f))[0]
    return (Polynomial.one(), *(f for _, f in rows.values())), index


def parallel_qsp_runs(
    table: Sequence[Polynomial], index: np.ndarray, rho: DensityMatrix, encode: str = "oracle"
) -> tuple[np.ndarray, np.ndarray]:
    """Direct-mode (q, z) of every run of a stage, in one array pass.

    The stage is a factor table, its distinct factors with row 0 the
    constant 1, and an integer index with one row per run: run i's thread j
    applies table[index[i, j]], and row 0 entries pad short runs, so run i
    has k_i threads, its nonzero entries.  q[i] is run i's post-selection
    probability prod_j q_j and z[i] = tr(rho^k_i * prod_j |P_j(rho)|^2).
    Each table row is checked against sup norm 1 and evaluated on rho's
    eigenvalues once, by _thread_values.  A factor above norm 1 or a thread
    that cannot succeed raises naming its first run and thread.
    """
    values = _thread_values(table, index, rho, encode)
    return _runs(values, index, _thread_counts(index), rho.eigenvalues())


class _Layout(NamedTuple):
    """A stage's runs, checked once: the _series of its factor rows 1.., the
    run index and each run's thread count, all read-only.  It holds no
    state, so one layout reads any rho."""

    series: np.ndarray
    index: np.ndarray
    threads: np.ndarray


def _checked_layout(table: Sequence[Polynomial], index: np.ndarray) -> _Layout:
    """The _Layout of a factor table and index, which _check_rows accepts.

    A table of real rows (every term and swap-test table) keeps a float64
    series, half the complex one's bytes: _runs reads |v|^2 alone, which the
    real recurrence gives bit for bit.
    """
    _check_rows(table, index)
    series = _series(table[1:])
    if not np.logical_or.reduce(series.imag, axis=None):
        series = np.ascontiguousarray(series.real)
    arrays = series, index.copy(), _thread_counts(index)
    for a in arrays:
        a.flags.writeable = False
    return _Layout(*arrays)


def _layout_runs(layout: _Layout, rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """parallel_qsp_runs of a checked layout, oracle-encoded, without its checks."""
    w = rho.eigenvalues()
    return _runs(_clenshaw(layout.series, w), layout.index, layout.threads, w)


def _thread_counts(index: np.ndarray) -> np.ndarray:
    """Each run's thread count, its nonzero index entries, as a column
    (np.count_nonzero's sum, without its Python wrapper)."""
    return np.add.reduce(index != 0, axis=1, dtype=np.intp)[:, None]


def _runs(
    values: np.ndarray | list[np.ndarray], index: np.ndarray, threads: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(q, z) of every run from its rows' block eigenvalues on rho's spectrum
    w; a thread that cannot succeed raises naming its run and thread."""
    weights = np.empty((len(values) + 1, len(w)))
    weights[0], weights[1:] = 1.0, np.abs(values) ** 2
    # thread j post-selects with q_j = tr(B_j rho B_j^dagger) = sum_i w_i |b_ij|^2
    q_threads = (weights @ w)[index]
    if q_threads.size and np.minimum.reduce(q_threads, axis=None) <= 1e-14:
        i, j = np.argwhere(q_threads <= 1e-14)[0]
        raise PostSelectionError(
            f"post-selection impossible: layout {i}, thread {j} succeeds with "
            f"probability {q_threads[i, j]:.3e}"
        )
    # multiply.reduce is prod without its wrapper
    z = np.einsum("ij,ij->i", w ** threads, np.multiply.reduce(weights[index], axis=1))
    return np.multiply.reduce(q_threads, axis=1), z


def joint_readout(
    q: Sequence[float],
    z: Sequence[float],
    shots: ShotSpec = "exact",
    sampler: ShotSampler | None = None,
    coeffs: Sequence[float] | None = None,
    stages: Sequence[int] | None = None,
) -> Estimate:
    """sum_j c_j z_j from the (+1, -1, discard) shots of parallel runs (q_j, z_j).

    Run j succeeds with probability q_j, and a success reads +1 with
    probability (1 + z_j/q_j)/2 and -1 otherwise; c defaults to all ones.
    stages counts the runs of each stage, in run order (all runs are one
    stage by default); no stage may have all-zero coefficients.  Sampled
    mode needs an integer budget of at least one shot per stage.  Either
    mode then rejects a law that cannot be drawn, a non-finite z or c or a
    q outside (0, _Q_MAX], and hands the law to _read: exact mode returns
    sum_j c_j z_j and keeps (q, z, c) as the Estimate's law; sampled mode
    draws n shots of all stages at once.
    """
    q, z = np.asarray(q, dtype=float), np.asarray(z, dtype=float)
    c = np.ones(z.shape) if coeffs is None else np.asarray(coeffs, dtype=float)
    if z.ndim != 1 or q.shape != z.shape or c.shape != z.shape:
        raise InputError(
            f"one q, z and coefficient per run is required, got shapes "
            f"{q.shape}, {z.shape} and {c.shape}"
        )
    sizes = [len(z)] if stages is None else [_integer(s, "stage run count", 1) for s in stages]
    if sum(sizes) != len(z):
        raise InputError(f"stage run counts {sizes} do not add up to the {len(z)} runs")
    if not all(np.logical_or.reduce(c[a:b]) for a, b in _bounds(sizes)):
        raise InputError("all-zero coefficients: nothing to sample")
    if shots != "exact":
        shots = _check_shots(shots, len(sizes))
    if not (np.logical_and.reduce(np.isfinite(z)) and np.logical_and.reduce(np.isfinite(c))):
        raise InputError("a sampled read-out needs finite z values and coefficients")
    # NaN fails both; a ufunc's reduce skips the array method's Python wrapper
    low, high = np.minimum.reduce(q, initial=1.0), np.maximum.reduce(q, initial=0.0)
    if not (low > 0.0 and high <= _Q_MAX):
        j = int(np.argmin((q > 0.0) & (q <= _Q_MAX)))
        raise InputError(f"run {j} succeeds with probability {float(q[j])}, outside (0, 1]")
    return _read(q, z, c, shots, sampler, sizes)


def _bounds(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Each stage's (first, past-last) run from the stages' run counts."""
    ends = list(itertools.accumulate(sizes))
    return list(zip([0, *ends[:-1]], ends))


def _read(
    q: np.ndarray,
    z: np.ndarray,
    c: np.ndarray,
    shots: ShotSpec = "exact",
    sampler: ShotSampler | None = None,
    sizes: Sequence[int] | None = None,
) -> Estimate:
    """The one reader: a law (q, z, c) of runs, read exactly or drawn.

    The law must already be checked, as joint_readout checks a caller's and
    as a plan builds its stages' from checked layouts and inputs: float
    arrays of one length, every stage's coefficients nonzero, z and c
    finite and each q in (0, _Q_MAX]; shots is "exact" or a checked budget
    of at least one shot per stage, sizes the stages' run counts (one stage
    by default).  Exact reads return sum_j c_j z_j as float(np.dot(c, z))
    and keep (q, z, c) as the Estimate's law.  Sampled reads compute each
    run's three cell probabilities once and draw all n shots in one _draw,
    in O(runs) work whatever n is; the Estimate is the sum of the stages'
    independent Estimates, kept as parts with their draw records
    {"runs", "pilot", "main"}.
    """
    if shots == "exact":
        return Estimate(value=float(np.dot(c, z)), std_error=0.0, shots_used=0, law=(q, z, c))
    bounds = _bounds([len(z)] if sizes is None else sizes)
    z_cond = np.minimum(np.maximum(z / q, -1.0), 1.0)
    cells = np.empty((len(z), 3))  # filled in place: np.stack costs ~10 us
    # (q/2)(1 + z_cond) and (q/2)(1 - z_cond), as 1 + (-z_cond) is 1 - z_cond exactly
    np.multiply((q * 0.5)[:, None], 1.0 + np.multiply.outer(z_cond, (1.0, -1.0)), out=cells[:, :2])
    np.maximum(0.0, 1.0 - q, out=cells[:, 2])
    size = np.abs(c)
    norms = [float(np.add.reduce(size[a:b])) for a, b in bounds]
    parts = _draw(cells, c, bounds, norms, shots, sampler or ShotSampler(None))
    total = parts[0][0]
    for est, _ in parts[1:]:
        total += est
    return Estimate(total.value, total.std_error, total.shots_used, parts=tuple(parts))


def _draw(
    cells: np.ndarray,
    c: np.ndarray,
    bounds: list[tuple[int, int]],
    norms: list[float],
    n: int,
    sampler: ShotSampler,
) -> list[tuple[Estimate, dict]]:
    """n shots of coefficient-weighted runs: each stage's Estimate and record.

    cells holds each run's (+1, -1, discard) probabilities, one row per run;
    stage g is runs bounds[g] = (a, b), of coefficient 1-norm norms[g].  The
    pilot is ceil(sqrt(n)) shots per stage.  With two or more runs and room
    for that pilot and a main shot per run, the draw is stratified by run:
    the pilot splits by |c_j|, at least one shot each, and measures each
    run's spread, floored at 1/sqrt(its pilot shots); the rest split by
    |c_j| times spread (_neyman_split); stage g reads
    sum_(j in g) c_j (n+_j - n-_j)/n_j over those main shots, each run's
    variance n_j/(n_j - 1)-corrected, or the bound 1 for one shot.  The
    pilot is charged to its stage's shots but not pooled; the split reads
    only its counts.  Otherwise each stage gets a fixed share of n by its
    1-norm, at least one shot, and one stage all of n (_pooled).  Either way
    the stages' Estimates are independent.  Cost is per numpy call, not per
    shot: two one-run stages at 100,000 shots take about 65 us here (80 us
    through _read, 14 us of it the two multinomials), one run at 1,000
    shots about 20 us (one BLAS thread, 2-vCPU Xeon VM, hot loop; about
    twice that inside the benchmark's mixed loop).
    """
    pilot = len(bounds) * _pilot_shots(n)
    if not 2 <= len(c) <= min(pilot, n - pilot):
        shares = _neyman_split(n, norms).tolist() if len(norms) > 1 else [n]
        return [
            _pooled(cells[a:b], c[a:b], norm, m, sampler)
            for (a, b), norm, m in zip(bounds, norms, shares)
        ]
    size = np.abs(c)
    worth = float(np.add.reduce(size))
    share = size / worth
    firsts = _neyman_split(pilot, share)
    spread = np.sqrt(np.maximum(_strata(cells, firsts, sampler)[1], 1.0 / firsts))
    mains = _neyman_split(n - pilot, share * spread)
    mean, var = _strata(cells, mains, sampler)
    var[mains == 1] = 1.0
    signed, weights = np.sign(c) * share, share * share / mains
    pilots, counts = firsts.tolist(), mains.tolist()
    parts = []
    for a, b in bounds:
        record = {"runs": b - a, "pilot": sum(pilots[a:b]), "main": sum(counts[a:b])}
        value = worth * float(signed[a:b] @ mean[a:b])
        se = worth * math.sqrt(float(weights[a:b] @ var[a:b]))
        parts.append((Estimate(value, se, record["pilot"] + record["main"]), record))
    return parts


def _pooled(
    cells: np.ndarray, c: np.ndarray, norm: float, m: int, sampler: ShotSampler
) -> tuple[Estimate, dict]:
    """One stage's m shots as one multinomial over its runs' cells, run j
    weighted by |c_j|/norm: norm times the signed pooled mean, with the
    sample variance n/(n - 1)-corrected, or the bound 1 for one shot."""
    pvals = ((np.abs(c) / norm)[:, None] * cells).reshape(1, -1)
    counts = sampler.multinomial_rows([m], pvals)[0]
    n_plus, n_minus = counts[0::3], counts[1::3]
    mean = float(np.dot(np.sign(c), n_plus - n_minus)) / m
    second_moment = float(np.add.reduce(n_plus + n_minus)) / m
    var = max(second_moment - mean * mean, 0.0) * (m / (m - 1)) if m > 1 else 1.0
    return Estimate(norm * mean, norm * math.sqrt(var / m), m), {
        "runs": len(c), "pilot": 0, "main": m,
    }


def _strata(
    cells: np.ndarray, counts: np.ndarray, sampler: ShotSampler
) -> tuple[np.ndarray, np.ndarray]:
    """Each run's mean and n_j/(n_j - 1)-corrected variance over counts[j]
    shots; (n+ + n-) - (n+ - n-) * mean is never negative in floating point."""
    diff, both = (sampler.multinomial_rows(counts, cells) @ _PLUS_MINUS).T
    mean = diff / counts
    return mean, (both - diff * mean) / np.maximum(counts - 1, 1)


def parallel_qsp_run(
    factors: Sequence[Polynomial],
    rho: DensityMatrix,
    shots: ShotSpec = "exact",
    mode: str = "direct",
    sampler: ShotSampler | None = None,
    encode: str = "oracle",
) -> Estimate:
    """Joint-outcome estimate of z = tr(rho^k * prod_j |P_j(rho)|^2).

    Every factor must already have sup norm at most 1 (rescale the plan
    first; every call checks, reading each factor's memoized norm).  Each
    shot lands in one of three categories, success with control 0 (+1),
    success with control 1 (-1), or a failed post-selection (0), and the
    category mean estimates z without conditioning on success.  Both modes
    build the run's factor table once: direct mode is its one-layout case of
    parallel_qsp_runs; circuit mode checks D^k against its cap before any
    phase finding, then builds each distinct factor's flag-zero block from
    the values direct mode reads, all the success-subspace swap test reads.
    Either way the run's law is built from checked factors (q in (0,
    _Q_MAX], z finite), so _read reads it without joint_readout's second
    check; only a sampled budget is checked, after the run, as before.
    """
    if mode not in ("direct", "circuit"):
        raise InputError(f"unknown mode {mode!r}; expected 'direct' or 'circuit'")
    table, index = layout_table([factors])
    if mode == "direct":
        q, z = parallel_qsp_runs(table, index, rho, encode)
    else:
        if rho.dim ** len(factors) > _CIRCUIT_CAP:
            raise InputError(
                f"circuit mode caps D^k at {_CIRCUIT_CAP}, got {rho.dim}^{len(factors)}"
            )
        rows = [rho.spectral_operator(v) for v in _thread_values(table, index, rho, encode)]
        q, z = _joint_probabilities_circuit([rows[r - 1] for r in index[0]], rho)
        if q <= 1e-14:
            raise PostSelectionError("post-selection impossible: joint success probability ~0")
        q, z = np.array([q]), np.array([z])
    return _read(q, z, _ONE, shots if shots == "exact" else _check_shots(shots), sampler)


def query_depth_report(factors: Sequence[Polynomial]) -> tuple[int, int]:
    """(query depth, width) for a parallel layout.

    Depth is the largest factor degree when every factor has definite parity;
    otherwise the generic two-sequence accounting doubles it.  Width is the
    thread count, including any bare-state thread the caller appended as a
    constant factor.
    """
    if not factors:
        return 0, 0
    max_deg = max(f.degree for f in factors)
    definite = all(f.parity is not Parity.INDEFINITE for f in factors)
    depth = max_deg if definite else 2 * max_deg
    return depth, len(factors)
