"""Density matrices, block encodings, and measurement simulation.

Estimation reduces to three read-out primitives on block-encoded operators:
the Hadamard test (real or imaginary part of tr(sigma * B)), the squared
test (tr(sigma * B^dagger B)), and the generalized swap test, which turns a
cyclic shift over k registers into tr(rho_1 ... rho_k).  parallel_qsp_run
combines them: k threads each apply a factor polynomial to a copy of rho,
post-select on the encoding flags, and a Hadamard-conjugated controlled
cyclic shift reads out z = tr(rho^k * prod_j |P_j(rho)|^2) through the joint
outcome statistics, without ever renormalizing by the success probability.

Two execution modes exist.  "direct" forms each thread block P_j(rho) by
matrix Horner evaluation and reduces the read-out to traces; "circuit" tensors
the literal thread unitaries together and computes the same joint outcome
probabilities from the full register state, which is exponentially larger and
exists purely as a correctness witness for small dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import InputError, PostSelectionError
from .poly import Parity, Polynomial, sup_norm
from .qsp import QspPhases, find_phases

__all__ = [
    "DensityMatrix",
    "Purification",
    "BlockEncoding",
    "ShotSampler",
    "Estimate",
    "purify",
    "block_encode_density",
    "oracle_block_encode",
    "apply_qsp",
    "hadamard_test",
    "qsp_test",
    "generalized_swap_expectation",
    "parallel_qsp_run",
    "query_depth_report",
]

ShotSpec = int | Literal["exact"]


@dataclass(frozen=True)
class Estimate:
    """A value with its standard error; exact computations use shots_used=0.

    Parallel runs also record the per-shot outcome counts
    (plus, minus, discarded) so importance samplers can pool raw samples.
    """

    value: float
    std_error: float
    shots_used: int = 0
    counts: tuple[int, int, int] | None = None

    def samples(self) -> np.ndarray:
        if self.counts is None:
            raise InputError("no per-shot counts recorded for this estimate")
        return np.repeat([1.0, -1.0, 0.0], self.counts)


class ShotSampler:
    """Deterministic counter-based randomness for measurement simulation.

    Wraps a Philox generator keyed by (seed, spawn path): the same seed and
    request sequence reproduce identical draws, and child(i) yields an
    independent stream, so multi-stage estimators can hand each stage its
    own sampler without coupling their consumption.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(_path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self.rng = np.random.Generator(np.random.Philox(ss))

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


def _as_sampler(sampler: "ShotSampler | None", seed: int | None = None) -> "ShotSampler":
    if sampler is not None:
        return sampler
    return ShotSampler(0 if seed is None else seed)


def _check_shots(shots: ShotSpec) -> int:
    if shots == "exact":
        raise InputError("sampled path invoked with shots='exact'")
    n = int(shots)
    if n < 1:
        raise InputError(f"shots must be a positive integer, got {shots!r}")
    return n


class DensityMatrix:
    """A trace-one positive semidefinite Hermitian matrix.

    Construction validates Hermiticity (1e-10 entrywise), unit trace
    (1e-10), and spectrum >= -1e-10.  Direct simulation paths are sized for
    dimensions up to 64.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("density matrix must be square")
        if float(np.max(np.abs(arr - arr.conj().T))) > 1e-10:
            raise InputError("density matrix must be Hermitian")
        if abs(np.trace(arr) - 1.0) > 1e-10:
            raise InputError(f"density matrix trace is {np.trace(arr)}, expected 1")
        if float(np.linalg.eigvalsh(arr).min()) < -1e-10:
            raise InputError("density matrix has a negative eigenvalue")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.matrix)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @classmethod
    def pure(cls, dim: int, index: int = 0) -> "DensityMatrix":
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)

    @classmethod
    def diagonal(cls, probs: Sequence[float]) -> "DensityMatrix":
        p = np.asarray(probs, dtype=float)
        if p.min() < -1e-12:
            raise InputError("probabilities must be non-negative")
        total = p.sum()
        if abs(total - 1.0) > 1e-6:
            raise InputError(f"probabilities sum to {total}, expected 1")
        return cls(np.diag(p / total).astype(complex))

    @classmethod
    def random_seeded(cls, dim: int, seed: int) -> "DensityMatrix":
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


@dataclass(frozen=True)
class Purification:
    """A unitary V on two registers with V|0> = sum_j sqrt(p_j) |j>|chi_j>."""

    unitary: np.ndarray
    rho: DensityMatrix

    def state(self) -> np.ndarray:
        return self.unitary[:, 0]

    def reduced_state(self) -> DensityMatrix:
        d = self.rho.dim
        psi = self.state().reshape(d, d)
        return DensityMatrix(np.einsum("ab,ac->bc", psi, psi.conj()))


def purify(rho: DensityMatrix) -> Purification:
    """Eigendecompose rho and complete the purified column to a unitary.

    The first column is sum_j sqrt(p_j) |j>_A |chi_j>_B; the remaining
    columns are an orthonormal completion (QR of the column against the
    standard basis), with the first column pinned exactly.
    """
    d = rho.dim
    w, v = rho.eigh()
    w = np.clip(w, 0.0, None)
    psi = ((v * np.sqrt(w)).T).reshape(d * d)
    m = np.concatenate([psi[:, None], np.eye(d * d, dtype=complex)], axis=1)
    q, _ = np.linalg.qr(m)
    q = np.array(q)
    q[:, 0] = psi
    return Purification(unitary=q, rho=rho)


@dataclass(frozen=True)
class BlockEncoding:
    """A unitary whose top-left block_dim x block_dim block encodes an operator."""

    unitary: np.ndarray
    block_dim: int

    @property
    def block(self) -> np.ndarray:
        d = self.block_dim
        return self.unitary[:d, :d]

    def unitarity_defect(self) -> float:
        u = self.unitary
        return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def block_encode_density(pur: Purification) -> BlockEncoding:
    """U = (V^dagger on AB) SWAP_BC (V on AB), whose C-register block is rho."""
    d = pur.rho.dim
    v_full = np.kron(pur.unitary, np.eye(d, dtype=complex))
    idx = np.arange(d ** 3)
    a, rem = idx // (d * d), idx % (d * d)
    b, c = rem // d, rem % d
    swapped = (a * d + c) * d + b
    u = v_full.conj().T[:, :] @ v_full[swapped, :]
    return BlockEncoding(unitary=u, block_dim=d)


def _psd_sqrt(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def oracle_block_encode(m) -> BlockEncoding:
    """Exact-arithmetic dilation [[M, sqrt(I-MM*)], [sqrt(I-M*M), -M*]].

    Requires spectral norm at most 1 (tolerance 1e-9); larger operators must
    be rescaled first.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("operator must be square")
    smax = float(np.linalg.norm(m, 2))
    if smax > 1.0 + 1e-9:
        raise InputError(f"rescale first: operator norm {smax:.6g} exceeds 1")
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    s1 = _psd_sqrt(eye - m @ m.conj().T)
    s2 = _psd_sqrt(eye - m.conj().T @ m)
    u = np.block([[m, s1], [s2, -m.conj().T]])
    return BlockEncoding(unitary=u, block_dim=d)


def _qubitized_step(a: np.ndarray) -> np.ndarray:
    """W[A] = [[A, i sqrt(I-A^2)], [i sqrt(I-A^2), A]] for Hermitian A."""
    w, v = np.linalg.eigh(a)
    if float(np.max(np.abs(w))) > 1.0 + 1e-9:
        raise InputError("rescale first: encoded operator has spectrum outside [-1, 1]")
    w = np.clip(w, -1.0, 1.0)
    s = (v * np.sqrt(1.0 - w * w)) @ v.conj().T
    return np.block([[a, 1j * s], [1j * s, a]])


def _phase_block(phi: float, d: int) -> np.ndarray:
    e = np.exp(1j * phi)
    return np.diag(np.concatenate([np.full(d, e), np.full(d, np.conj(e))]))


def _qsp_sequence_unitary(phases: Sequence[float], a: np.ndarray) -> np.ndarray:
    d = a.shape[0]
    w = _qubitized_step(a)
    u = _phase_block(phases[0], d)
    for phi in phases[1:]:
        u = u @ w @ _phase_block(phi, d)
    return u


def apply_qsp(phases: QspPhases, enc: BlockEncoding) -> BlockEncoding:
    """Interleave phase gates with the qubitized step built on enc's block.

    The encoded operator must be Hermitian; the output block is P(A) for the
    P the phase sequence generates, verified against direct spectral
    evaluation (apply P to each eigenvalue) to 1e-8 before returning.
    """
    a = enc.block
    if float(np.max(np.abs(a - a.conj().T))) > 1e-9:
        raise InputError("encoded operator must be Hermitian for the qubitized route")
    u = _qsp_sequence_unitary(phases.phases, a)
    out = BlockEncoding(unitary=u, block_dim=enc.block_dim)

    from .qsp import extract_polynomials

    p, _ = extract_polynomials(phases)
    w, v = np.linalg.eigh(a)
    expected = (v * p(np.clip(w, -1.0, 1.0))) @ v.conj().T
    defect = float(np.max(np.abs(out.block - expected)))
    if defect > 1e-8:
        raise RuntimeError(
            f"qsp block deviates from spectral evaluation by {defect:.3e}"
        )
    return out


def hadamard_test(
    enc: BlockEncoding,
    sigma: DensityMatrix,
    shots: ShotSpec = "exact",
    part: str = "real",
    sampler: ShotSampler | None = None,
) -> Estimate:
    """Estimate Re or Im of tr(sigma * B) for the encoded block B.

    The ancilla outcome probability is p = 1/2 + 1/2 * Re[tr(sigma B)] (the
    imaginary part uses the phased variant); sampling draws Bernoulli shots
    and returns 2*p_hat - 1 with standard error 2*sqrt(p_hat(1-p_hat)/shots).
    """
    if part not in ("real", "imag"):
        raise InputError(f"part must be 'real' or 'imag', got {part!r}")
    b = enc.block
    if sigma.dim != b.shape[0]:
        raise InputError("state dimension does not match the encoded block")
    t = complex(np.trace(sigma.matrix @ b))
    val = t.real if part == "real" else t.imag
    if shots == "exact":
        return Estimate(value=float(val), std_error=0.0, shots_used=0)
    n = _check_shots(shots)
    sampler = _as_sampler(sampler)
    p = 0.5 + 0.5 * min(1.0, max(-1.0, val))
    ones = sampler.bernoulli_count(p, n)
    p_hat = ones / n
    return Estimate(
        value=2.0 * p_hat - 1.0,
        std_error=2.0 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n),
        shots_used=n,
    )


def qsp_test(
    enc: BlockEncoding,
    sigma: DensityMatrix,
    shots: ShotSpec = "exact",
    sampler: ShotSampler | None = None,
) -> Estimate:
    """Estimate tr(sigma * B^dagger B), the squared-magnitude read-out."""
    b = enc.block
    if sigma.dim != b.shape[0]:
        raise InputError("state dimension does not match the encoded block")
    p = float(np.real(np.trace(sigma.matrix @ b.conj().T @ b)))
    if shots == "exact":
        return Estimate(value=p, std_error=0.0, shots_used=0)
    n = _check_shots(shots)
    sampler = _as_sampler(sampler)
    ones = sampler.bernoulli_count(min(1.0, max(0.0, p)), n)
    p_hat = ones / n
    return Estimate(
        value=p_hat,
        std_error=math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n),
        shots_used=n,
    )


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
    val = float(np.real(np.trace(prod)))
    if shots == "exact":
        return Estimate(value=val, std_error=0.0, shots_used=0)
    n = _check_shots(shots)
    sampler = _as_sampler(sampler)
    p = 0.5 * (1.0 + min(1.0, max(-1.0, val)))
    ones = sampler.bernoulli_count(p, n)
    p_hat = ones / n
    return Estimate(
        value=2.0 * p_hat - 1.0,
        std_error=2.0 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n),
        shots_used=n,
    )


def _matrix_polynomial(p: Polynomial, m: np.ndarray) -> np.ndarray:
    """Horner evaluation of p at a square matrix."""
    d = m.shape[0]
    acc = np.zeros((d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for c in reversed(p.coeffs):
        acc = acc @ m + c * eye
    return acc


def _encode_factor_qsp(
    factor: Polynomial, rho: DensityMatrix
) -> tuple[BlockEncoding, float]:
    """Phase-found encoding of Re(P)(rho) for a real definite-parity factor.

    Builds the qubitized sequence for the found phases and for their
    negation, then combines them with a one-ancilla average; the flag-zero
    block of the result is the coefficient-real-part polynomial applied to
    rho, which matches the factor up to the phase-finding tolerance.
    """
    if factor.max_imag() > 1e-10 or factor.parity is Parity.INDEFINITE:
        raise InputError(
            "phase-based encoding needs a real definite-parity factor; "
            "use the oracle encoding for complex or mixed-parity factors"
        )
    shrink = 1.0
    norm = sup_norm(factor)
    if norm > 1.0 - 1e-6:
        shrink = (1.0 - 2e-6) / norm
    phases = find_phases(factor * shrink)
    d = rho.dim
    u_plus = _qsp_sequence_unitary(phases.phases, rho.matrix)
    u_minus = _qsp_sequence_unitary([-p for p in phases.phases], rho.matrix)
    zc = np.diag(np.concatenate([np.ones(d), -np.ones(d)])).astype(complex)
    v = np.zeros((4 * d, 4 * d), dtype=complex)
    v[: 2 * d, : 2 * d] = u_plus
    v[2 * d :, 2 * d :] = zc @ u_minus @ zc
    h = np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0), np.eye(2 * d))
    enc = BlockEncoding(unitary=h @ v @ h, block_dim=d)
    return enc, shrink


def _thread_blocks(
    factors: Sequence[Polynomial],
    rho: DensityMatrix,
    encode: str,
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Per-thread applied blocks and unitaries, plus the encode-side rescale.

    Oracle encoding reproduces each factor exactly; the phase route carries a
    small deliberate shrink whose square per thread is returned so callers
    can undo it.
    """
    blocks, unitaries, undo = [], [], 1.0
    for f in factors:
        if encode == "oracle":
            b = _matrix_polynomial(f, rho.matrix)
            enc = oracle_block_encode(b)
        elif encode == "qsp":
            enc, shrink = _encode_factor_qsp(f, rho)
            b = enc.block
            undo *= shrink ** 2
        else:
            raise InputError(f"unknown encode mode {encode!r}")
        blocks.append(b)
        unitaries.append(enc.unitary)
    return blocks, unitaries, undo


def _joint_probabilities_direct(
    blocks: Sequence[np.ndarray], rho: DensityMatrix
) -> tuple[float, float]:
    """(success prob, z) from per-thread conditioned states.

    q_j = tr(B_j rho B_j^dagger) is thread j's post-selection probability;
    the conditioned states sigma_j = B_j rho B_j^dagger / q_j multiply out to
    z = (prod q_j) * Re tr(prod sigma_j).
    """
    q_total = 1.0
    conditioned = []
    for j, b in enumerate(blocks):
        m = b @ rho.matrix @ b.conj().T
        q = float(np.real(np.trace(m)))
        if q <= 1e-14:
            raise PostSelectionError(
                f"post-selection impossible: thread {j} succeeds with probability {q:.3e}"
            )
        q_total *= q
        conditioned.append(m / q)
    prod = conditioned[0]
    for m in conditioned[1:]:
        prod = prod @ m
    z = q_total * float(np.real(np.trace(prod)))
    return q_total, z


def _joint_probabilities_circuit(
    unitaries: Sequence[np.ndarray], rho: DensityMatrix
) -> tuple[float, float]:
    """Same (success prob, z) from the tensored thread registers.

    Each thread holds flag registers plus a system register; the circuit
    applies all thread unitaries, a Hadamard-conjugated controlled cyclic
    shift of the system registers, and reads joint outcome probabilities
    for (control, all flags zero).
    """
    d = rho.dim
    dims = [u.shape[0] for u in unitaries]
    nt = int(np.prod(dims))
    if nt > 1024:
        raise InputError(
            f"circuit mode register dimension {nt} exceeds the 1024 cap; "
            "use direct mode or smaller instances"
        )
    u_thr = np.eye(1, dtype=complex)
    tau0 = np.eye(1, dtype=complex)
    for u in unitaries:
        n = u.shape[0]
        init = np.zeros((n, n), dtype=complex)
        init[:d, :d] = rho.matrix
        u_thr = np.kron(u_thr, u)
        tau0 = np.kron(tau0, init)
    tau = u_thr @ tau0 @ u_thr.conj().T

    # index digits per thread; system digit is (t mod d), flags are (t div d)
    idx = np.arange(nt)
    digits = []
    rem = idx
    for n in reversed(dims):
        digits.append(rem % n)
        rem = rem // n
    digits = digits[::-1]
    flags = [t // d for t in digits]
    systems = [t % d for t in digits]
    shifted = systems[-1:] + systems[:-1]
    acc = np.zeros(nt, dtype=int)
    for n, f, s in zip(dims, flags, shifted):
        acc = acc * n + (f * d + s)
    perm = acc

    success = np.nonzero(np.all([f == 0 for f in flags], axis=0))[0]
    p_succ = float(np.real(np.trace(tau[np.ix_(success, success)])))
    # Hadamard, controlled shift, Hadamard: p(control=0 and flags 0)
    s_tau = tau[perm, :]
    tau_s_dag = tau[:, perm]
    s_tau_s_dag = s_tau[:, perm]
    fin00 = 0.25 * (tau + tau_s_dag + s_tau + s_tau_s_dag)
    p_both = float(np.real(np.trace(fin00[np.ix_(success, success)])))
    z = 2.0 * p_both - p_succ
    return p_succ, z


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
    first); each shot lands in one of three categories, success with control
    0 (+1), success with control 1 (-1), or a failed post-selection (0), and
    the category mean estimates z without conditioning on success.
    """
    k = len(factors)
    if k < 1:
        raise InputError("need at least one factor polynomial")
    for j, f in enumerate(factors):
        if sup_norm(f) > 1.0 + 1e-9:
            raise InputError(
                f"apply rescale_factors: factor {j} has sup norm above 1"
            )
    if mode == "direct":
        blocks, _, undo = (
            _thread_blocks(factors, rho, encode)
            if encode != "oracle"
            else ([_matrix_polynomial(f, rho.matrix) for f in factors], None, 1.0)
        )
        q, z = _joint_probabilities_direct(blocks, rho)
    elif mode == "circuit":
        if rho.dim > 4 or k > 3:
            raise InputError("circuit mode supports dimensions up to 4 and k up to 3")
        blocks, unitaries, undo = _thread_blocks(factors, rho, encode)
        for j, b in enumerate(blocks):
            m = b @ rho.matrix @ b.conj().T
            if float(np.real(np.trace(m))) <= 1e-14:
                raise PostSelectionError(
                    f"post-selection impossible: thread {j} succeeds with probability ~0"
                )
        q, z = _joint_probabilities_circuit(unitaries, rho)
        if q <= 1e-14:
            raise PostSelectionError("post-selection impossible: joint success probability ~0")
    else:
        raise InputError(f"unknown mode {mode!r}; expected 'direct' or 'circuit'")

    if shots == "exact":
        return Estimate(value=z / undo, std_error=0.0, shots_used=0)
    n = _check_shots(shots)
    sampler = _as_sampler(sampler)
    z_cond = min(1.0, max(-1.0, z / q))
    p_plus = q * 0.5 * (1.0 + z_cond)
    p_minus = q * 0.5 * (1.0 - z_cond)
    counts = sampler.multinomial(n, [p_plus, p_minus, max(0.0, 1.0 - q)])
    n_plus, n_minus, _ = (int(c) for c in counts)
    mean = (n_plus - n_minus) / n
    second_moment = (n_plus + n_minus) / n
    var = max(second_moment - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1)
    return Estimate(
        value=mean / undo,
        std_error=math.sqrt(var / n) / undo,
        shots_used=n,
        counts=(n_plus, n_minus, int(counts[2])),
    )


def query_depth_report(factors: Sequence[Polynomial], parity_ok: bool = True) -> tuple[int, int]:
    """(query depth, width) for a parallel layout.

    Depth is the largest factor degree when every factor has definite parity
    and the caller's implementation exploits it (parity_ok); otherwise the
    generic two-sequence accounting doubles it.  Width is the thread count,
    including any bare-state thread the caller appended as a constant factor.
    """
    if not factors:
        return 0, 0
    max_deg = max(f.degree for f in factors)
    definite = parity_ok and all(f.parity is not Parity.INDEFINITE for f in factors)
    depth = max_deg if definite else 2 * max_deg
    return depth, len(factors)
