"""Density matrices, block encodings, and measurement simulation.

Estimation has three read-outs.  spectral_hadamard_test is the Hadamard
test of Re tr((I/D) * p(rho)/||p||), the read-out of a sequential stage;
generalized_swap_expectation is the generalized swap test, which turns a
cyclic shift over k registers into tr(rho_1 ... rho_k); and parallel_qsp_run
is the paper's parallel circuit: k threads each apply a factor polynomial to
a copy of rho, post-select on their encoding flags, and a
Hadamard-conjugated controlled cyclic shift reads out
z = tr(rho^k * prod_j |P_j(rho)|^2) through the joint outcome statistics,
without ever renormalizing by the success probability.  The two one-ancilla
read-outs share _readout: the exact value, or Bernoulli shots drawn from the
caller's ShotSampler.  joint_readout is the one place that draws
(+1, -1, discard) shots of parallel runs: one multinomial draw per stage,
however many coefficient-weighted runs it pools.  Each read-out computes its
outcome law once; a sampled Estimate keeps it as `source`, and redraw draws
more shots of the same law on the same stream without computing it again.

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
import math
import numbers
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import InputError, PostSelectionError
from .poly import Parity, Polynomial, _clenshaw, sup_norm
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
    "redraw",
    "parallel_qsp_run",
    "query_depth_report",
]

ShotSpec = int | Literal["exact"]

# Caps D^k, the side of circuit mode's post-selected state.  One BLAS thread,
# 2-vCPU Xeon VM: oracle runs at D = 32, k = 2 and D = 2, k = 10 take 64 and
# 81 ms at 64 MB peak (tracemalloc); D = 16, k = 3 took 2.9 s and 1.07 GB.
_CIRCUIT_CAP = 1024


@dataclass(frozen=True)
class Estimate:
    """A value with its standard error; exact computations use shots_used=0.

    Estimators assemble their stages arithmetically: a + b is the sum of two
    independent stages (variances and shots add) and c * est rescales a
    stage by a known constant.  A read-out's sampled Estimate keeps its
    outcome law as source, for redraw.  Exact values, sums and rescaled
    estimates have none.
    """

    value: float
    std_error: float
    shots_used: int = 0
    source: "_AncillaShots | _JointShots | None" = field(
        default=None, compare=False, repr=False
    )

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

    Wraps a Philox generator keyed by (seed, spawn path; a seed of None is
    0), built on the first draw, so exact runs build none.  The same seed
    and request sequence reproduce identical draws, and child(i) yields an
    independent stream, so multi-stage estimators can hand each stage its
    own sampler without coupling their consumption.
    """

    def __init__(self, seed: int | None, _path: tuple[int, ...] = ()):
        self.seed = 0 if seed is None else int(seed)
        self.path = tuple(_path)

    @functools.cached_property
    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "ShotSampler":
        return ShotSampler(self.seed, self.path + (int(index),))

    def bernoulli_count(self, p: float, shots: int) -> int:
        return int(self.rng.binomial(shots, min(1.0, max(0.0, p))))

    def multinomial(self, shots: int, pvals: Sequence[float]) -> np.ndarray:
        p = np.clip(np.asarray(pvals, dtype=float), 0.0, None)
        p = p / p.sum()
        return self.rng.multinomial(shots, p)

    def __repr__(self) -> str:
        return f"ShotSampler(seed={self.seed}, path={self.path})"


def _as_sampler(sampler: "ShotSampler | None") -> "ShotSampler":
    return ShotSampler(None) if sampler is None else sampler


def _check_shots(shots, stages: int = 1) -> int:
    """A sampled budget: an integer (numpy's too, not bool), one shot per stage or more."""
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise InputError(f"sampled mode needs an integer shot count, got {shots!r}")
    if shots < stages:
        raise InputError(f"sampled shot budget {shots} is below the stage count {stages}")
    return int(shots)


def _integer(value, name: str, low: int = 0) -> int:
    """An integer (numpy's too, not bool) of at least low, else InputError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InputError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


class _AncillaShots:
    """The outcome law of a one-ancilla read-out of value, on one stream.

    The ancilla reads 0 with probability p = 1/2 + value/2, and each shot is
    worth +1 or -1.  Calling it with n draws n shots and returns 2*p_hat - 1
    with standard error 2*sqrt(p_hat(1-p_hat)/n).
    """

    __slots__ = ("p", "sampler")
    worth = 1.0

    def __init__(self, value: float, sampler: ShotSampler):
        self.p = 0.5 + 0.5 * min(1.0, max(-1.0, value))
        self.sampler = sampler

    def __call__(self, n: int) -> Estimate:
        p_hat = self.sampler.bernoulli_count(self.p, n) / n
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
        return Estimate(2.0 * p_hat - 1.0, 2.0 * se, n, self)


def _readout(value: float, shots: ShotSpec, sampler: "ShotSampler | None") -> Estimate:
    """The exact value, or Bernoulli shots of a one-ancilla read-out of it."""
    if shots == "exact":
        return Estimate(value=float(value), std_error=0.0, shots_used=0)
    n = _check_shots(shots)
    return _AncillaShots(value, _as_sampler(sampler))(n)


def redraw(est: Estimate, shots: int) -> Estimate:
    """shots fresh shots of the sampled read-out behind est, alone.

    They come from the outcome law the read-out computed once, est.source,
    on the same ShotSampler stream, so nothing is evaluated again.  An
    Estimate without a source (exact, summed or rescaled) raises InputError.
    """
    if est.source is None:
        raise InputError("only a sampled read-out's own Estimate can be redrawn")
    return est.source(_check_shots(shots))


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
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
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
        rows = obj["matrix"]
        return cls([[complex(v[0], v[1]) for v in row] for row in rows])


def spectral_hadamard_test(
    p: Polynomial,
    rho: DensityMatrix,
    shots: ShotSpec = "exact",
    sampler: ShotSampler | None = None,
) -> Estimate:
    """Hadamard test of Re tr((I/D) * p(rho)/||p||), read from rho's eigenvalues.

    The block p(rho)/||p|| is a function of rho, so the trace is the mean of
    p(w_i)/||p|| over the eigenvalues w_i, clipped to [-1, 1], and lies in
    [-1, 1] without any encoding being built.  The zero polynomial has no
    such block and raises InputError.  Sampled mode draws through _readout.
    """
    norm = sup_norm(p)
    if norm == 0.0:
        raise InputError("the zero polynomial has no block p/||p|| to encode")
    values = np.real(p(np.clip(rho.eigenvalues(), -1.0, 1.0))) / norm
    return _readout(float(np.mean(values)), shots, sampler)


def generalized_swap_expectation(
    states: Sequence[DensityMatrix],
    shots: ShotSpec = "exact",
    sampler: ShotSampler | None = None,
) -> Estimate:
    """Re tr(rho_1 rho_2 ... rho_k) via the cyclic-shift test on k registers.

    Exact mode multiplies the states out directly (k <= 6); sampled mode
    draws from the ancilla probability p = (1 + Re tr(prod rho_j))/2 and
    inverts, estimating the real part.
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
    return _readout(float(np.real(np.trace(prod))), shots, sampler)


def _thread_values(
    table: Sequence[Polynomial], index: np.ndarray, rho: DensityMatrix, encode: str
) -> np.ndarray | list[np.ndarray]:
    """Block eigenvalues on rho's spectrum of factor rows 1.., entry r - 1 for row r.

    table and index are a stage's, as parallel_qsp_runs takes them.  Each
    row is checked against sup norm 1 once; one above it raises naming its
    first run and thread, or its row if no run applies it.  Oracle encoding
    reproduces the factors exactly, in one Clenshaw pass over their
    zero-padded series (leading zeros change no step's value).  The phase
    route solves phases once per row and returns Re P, P the polynomial
    they generate; by qubitization that is the averaged flag-zero block of
    the sequences for phi and -phi, and it matches the factor to phase
    finding's tolerance.
    """
    valid = isinstance(index, np.ndarray) and index.ndim == 2 and index.dtype.kind in "iu"
    if not valid or index.size and not 0 <= index.min() <= index.max() < len(table):
        raise InputError(f"index must be a 2-D integer array with entries in [0, {len(table)})")
    factors = table[1:]
    over = [r for r, f in enumerate(factors, 1) if sup_norm(f) > 1.0 + 1e-9]
    if over:
        hits = np.argwhere(np.isin(index, over))
        where = "layout {}, factor {}".format(*hits[0]) if len(hits) else f"table row {over[0]}"
        raise InputError(f"apply rescale_factors: {where} has sup norm above 1")
    w = rho.eigenvalues()
    if encode == "oracle":
        n = max((len(f.cheb) for f in factors), default=1)
        series = np.array([(*f.cheb, *(0j,) * (n - len(f.cheb))) for f in factors], complex)
        return _clenshaw(series.reshape(-1, n).T[:, :, None], w)
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
    w = rho.eigenvalues()
    values = _thread_values(table, index, rho, encode)
    weights = np.ones((len(table), len(w)))
    weights[1:] = np.abs(values) ** 2
    # thread j post-selects with q_j = tr(B_j rho B_j^dagger) = sum_i w_i |b_ij|^2
    q_threads = (weights @ w)[index]
    failed = q_threads <= 1e-14
    if failed.any():
        i, j = np.argwhere(failed)[0]
        raise PostSelectionError(
            f"post-selection impossible: layout {i}, thread {j} succeeds with "
            f"probability {q_threads[i, j]:.3e}"
        )
    powers = w ** np.count_nonzero(index, axis=1)[:, None]
    z = np.einsum("ij,ij->i", powers, weights[index].prod(axis=1))
    return q_threads.prod(axis=1), z


def joint_readout(
    q: Sequence[float],
    z: Sequence[float],
    shots: ShotSpec = "exact",
    sampler: ShotSampler | None = None,
    coeffs: Sequence[float] | None = None,
) -> Estimate:
    """sum_j c_j z_j from the (+1, -1, discard) shots of parallel runs (q_j, z_j).

    Run j succeeds with probability q_j, and a success reads +1 with
    probability (1 + z_j/q_j)/2 and -1 otherwise; c defaults to all ones.
    Exact mode returns sum_j c_j z_j.  Sampled mode makes one multinomial
    draw of n shots over the 3T cells (run j, outcome o) with probabilities
    (|c_j|/||c||_1) p_{j,o}, so the cost is O(runs) whatever n is; for one
    run with no coefficients that is multinomial(n, [p+, p-, 1 - q]).  The
    value ||c||_1 sum_j sign(c_j)(n_{j+} - n_{j-})/n is unbiased, and its
    standard error comes from the pooled second moment, corrected by n/(n-1).
    The cell probabilities are computed once, and the Estimate's source
    draws more shots from them.
    """
    q, z = np.asarray(q, dtype=float), np.asarray(z, dtype=float)
    c = np.ones(z.shape) if coeffs is None else np.asarray(coeffs, dtype=float)
    if z.ndim != 1 or q.shape != z.shape or c.shape != z.shape:
        raise InputError(
            f"one q, z and coefficient per run is required, got shapes "
            f"{q.shape}, {z.shape} and {c.shape}"
        )
    one_norm = float(np.abs(c).sum())
    if one_norm <= 0.0:
        raise InputError("all-zero coefficients: nothing to sample")
    if shots == "exact":
        return Estimate(value=float(np.dot(c, z)), std_error=0.0, shots_used=0)
    n = _check_shots(shots)
    z_cond = np.clip(z / q, -1.0, 1.0)
    cells = np.stack(
        [q * 0.5 * (1.0 + z_cond), q * 0.5 * (1.0 - z_cond), np.maximum(0.0, 1.0 - q)], axis=1
    )
    pvals = (np.abs(c) / one_norm)[:, None] * cells
    return _JointShots(pvals.ravel(), np.sign(c), one_norm, _as_sampler(sampler))(n)


class _JointShots:
    """The outcome law of coefficient-weighted parallel runs, on one stream.

    pvals are joint_readout's 3T cell probabilities, run by run in the order
    (+1, -1, discard), and each shot is worth sign(c_j) * (+-worth) or 0,
    worth = ||c||_1.  Calling it with n makes one multinomial draw of n shots
    and returns the pooled mean with its n/(n-1)-corrected standard error.
    """

    __slots__ = ("pvals", "sign", "worth", "sampler")

    def __init__(self, pvals: np.ndarray, sign: np.ndarray, worth: float, sampler: ShotSampler):
        self.pvals, self.sign, self.worth, self.sampler = pvals, sign, worth, sampler

    def __call__(self, n: int) -> Estimate:
        counts = self.sampler.multinomial(n, self.pvals)
        n_plus, n_minus = counts[0::3], counts[1::3]
        mean = float(np.dot(self.sign, n_plus - n_minus)) / n
        second_moment = float(np.sum(n_plus + n_minus)) / n
        var = max(second_moment - mean * mean, 0.0)
        if n > 1:
            var *= n / (n - 1)
        return Estimate(self.worth * mean, self.worth * math.sqrt(var / n), n, self)


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
    build the run's factor table once and read out through joint_readout:
    direct mode is its one-layout case of parallel_qsp_runs; circuit mode
    checks D^k against its cap before any phase finding, then builds each
    distinct factor's flag-zero block from the values direct mode reads,
    all the success-subspace swap test reads.
    """
    if mode not in ("direct", "circuit"):
        raise InputError(f"unknown mode {mode!r}; expected 'direct' or 'circuit'")
    table, index = layout_table([factors])
    if mode == "direct":
        q, z = parallel_qsp_runs(table, index, rho, encode)
        return joint_readout(q, z, shots, sampler)
    if rho.dim ** len(factors) > _CIRCUIT_CAP:
        raise InputError(f"circuit mode caps D^k at {_CIRCUIT_CAP}, got {rho.dim}^{len(factors)}")
    rows = [rho.spectral_operator(v) for v in _thread_values(table, index, rho, encode)]
    q, z = _joint_probabilities_circuit([rows[r - 1] for r in index[0]], rho)
    if q <= 1e-14:
        raise PostSelectionError("post-selection impossible: joint success probability ~0")
    return joint_readout([q], [z], shots, sampler)


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
