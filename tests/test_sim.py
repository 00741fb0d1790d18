import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqsp import estimate, poly, qsp, sim
from pqsp import (
    DensityMatrix,
    Estimate,
    InputError,
    Polynomial,
    PostSelectionError,
    ShotSampler,
    chebyshev_parallel_terms,
    chebyshev_polynomial,
    factorize_nonneg,
    find_phases,
    generalized_swap_expectation,
    joint_readout,
    layout_table,
    parallel_qsp_run,
    parallel_qsp_runs,
    query_depth_report,
    rescale_factors,
    spectral_hadamard_test,
    split_constituents,
    term_layout,
)
from conftest import random_nonneg, random_parity_target


def spectral_parallel_value(factors, rho):
    """z by direct spectral evaluation: all operators share rho's eigenbasis.

    The eigenvalues come from a fresh eigvalsh, not rho's stored spectrum, so
    the check stays independent of the decomposition direct mode runs on.
    """
    lams = np.linalg.eigvalsh(rho.matrix)
    acc = lams ** len(factors)
    for f in factors:
        acc = acc * np.abs(f(lams)) ** 2
    return float(np.sum(acc))


def reference_term_layouts(terms, k):
    """Each product term's k factor instances, one list per term.

    With l=1 the first slot takes T_a*T_b (T_b alone when j=0) and the next
    j-1 slots take T_a; with l=0 the first j slots take T_a; the constant 1
    fills the rest.
    """
    layouts = []
    for a, b, j, l in zip(*(v.tolist() for v in (terms.a, terms.b, terms.j, terms.l))):
        ta = chebyshev_polynomial(a)
        if l == 1:
            base = [chebyshev_polynomial(b)] if j == 0 else [poly._shared_polynomial("T", a, b)]
            base += [ta] * (j - 1)
        else:
            base = [ta] * j
        layouts.append(base + [Polynomial.one()] * (k - len(base)))
    return layouts


def reference_runs(layouts, rho):
    """(q, z) of thread layouts by the per-factor route.

    The distinct factor instances, found by identity in first-appearance
    order after a constant-1 padding row, are each evaluated by their own
    Clenshaw call; the weights, products and BLAS calls are the table
    path's, so the two must agree bit for bit.
    """
    width = max(len(fl) for fl in layouts)
    index = np.zeros((len(layouts), width), dtype=np.intp)
    rows, distinct = {}, []
    for i, fl in enumerate(layouts):
        for j, f in enumerate(fl):
            if id(f) not in rows:
                rows[id(f)] = len(distinct) + 1
                distinct.append(f)
            index[i, j] = rows[id(f)]
    w = rho.eigenvalues()
    weights = np.abs(np.array([np.ones(len(w)), *[f(w) for f in distinct]])) ** 2
    q_threads = (weights @ w)[index]
    powers = w ** np.array([len(fl) for fl in layouts])[:, None]
    z = np.einsum("ij,ij->i", powers, np.prod(weights[index], axis=1))
    return np.prod(q_threads, axis=1), z


def full_register_probabilities(unitaries, rho):
    """Reference (success prob, z) from the whole tensored register.

    Builds tau = U (tensor of |0><0|_flags x rho) U^dagger over all
    nt = prod_j dim(u_j) amplitudes, applies the Hadamard-conjugated
    controlled cyclic shift of the system registers as a permutation, and
    traces the (control 0, all flags zero) block: O(nt^3) work that circuit
    mode's success-subspace kernel must reproduce.
    """
    d = rho.dim
    dims = [u.shape[0] for u in unitaries]
    nt = int(np.prod(dims))
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
    rem = np.arange(nt)
    digits = []
    for n in reversed(dims):
        digits.append(rem % n)
        rem = rem // n
    digits = digits[::-1]
    flags = [t // d for t in digits]
    systems = [t % d for t in digits]
    shifted = systems[-1:] + systems[:-1]
    perm = np.zeros(nt, dtype=int)
    for n, f, s in zip(dims, flags, shifted):
        perm = perm * n + (f * d + s)

    success = np.nonzero(np.all([f == 0 for f in flags], axis=0))[0]
    p_succ = float(np.real(np.trace(tau[np.ix_(success, success)])))
    s_tau = tau[perm, :]
    fin00 = 0.25 * (tau + tau[:, perm] + s_tau + s_tau[:, perm])
    p_both = float(np.real(np.trace(fin00[np.ix_(success, success)])))
    return p_succ, 2.0 * p_both - p_succ


def oracle_dilation(m):
    """Reference unitary [[M, sqrt(I-MM*)], [sqrt(I-M*M), -M*]] of an operator of norm <= 1."""

    def psd_sqrt(h):
        w, v = np.linalg.eigh(h)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    eye = np.eye(m.shape[0])
    return np.block(
        [[m, psd_sqrt(eye - m @ m.conj().T)], [psd_sqrt(eye - m.conj().T @ m), -m.conj().T]]
    )


def qubitized_sequence(phases, rho):
    """Reference 2D x 2D QSP sequence S(phi_0) W S(phi_1) ... W S(phi_d) on rho.

    W = [[rho, i sqrt(I - rho^2)], [i sqrt(I - rho^2), rho]] is the qubitized
    signal step and S(phi) = diag(e^{i phi} I, e^{-i phi} I) the flag phase,
    multiplied out as matrices.
    """
    d = rho.dim
    w, v = rho.eigh()
    s = (v * np.sqrt(1.0 - np.clip(w, -1.0, 1.0) ** 2)) @ v.conj().T
    step = np.block([[rho.matrix, 1j * s], [1j * s, rho.matrix]])

    def phase(phi):
        e = np.exp(1j * phi)
        return np.diag(np.repeat([e, np.conj(e)], d))

    u = phase(phases[0])
    for phi in phases[1:]:
        u = u @ step @ phase(phi)
    return u


def qsp_average_unitary(phases, rho):
    """Reference 4D x 4D unitary of the phase route: an ancilla in |+> selects
    the qubitized sequence for phi or (conjugated by Z on the flag) for -phi,
    and is read in the Hadamard basis.  Its top-left D x D block is
    (U_phi + U_-phi)[:D, :D] / 2 = Re P(rho)."""
    d = rho.dim
    u_plus = qubitized_sequence(phases.phases, rho)
    u_minus = qubitized_sequence([-p for p in phases.phases], rho)
    zc = np.diag(np.concatenate([np.ones(d), -np.ones(d)]))
    v = np.zeros((4 * d, 4 * d), dtype=complex)
    v[: 2 * d, : 2 * d] = u_plus
    v[2 * d :, 2 * d :] = zc @ u_minus @ zc
    h = np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0), np.eye(2 * d))
    return h @ v @ h


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDensityMatrix:
    def test_diagonal(self):
        rho = DensityMatrix.diagonal([0.75, 0.25])
        assert np.allclose(rho.eigenvalues(), [0.25, 0.75])

    def test_pure_is_rank_one(self):
        rho = DensityMatrix.pure(4, index=1)
        lams = rho.eigenvalues()
        assert lams.max() == pytest.approx(1.0)
        assert np.sum(lams > 1e-12) == 1
        assert np.array_equal(rho.matrix, np.diag([0, 1.0 + 0j, 0, 0]))
        assert np.array_equal(DensityMatrix.pure(np.int64(2)).matrix, np.diag([1.0 + 0j, 0]))

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(3)
        assert np.allclose(rho.matrix, np.eye(3) / 3)

    def test_random_seeded_is_deterministic(self):
        a = DensityMatrix.random_seeded(4, 9)
        b = DensityMatrix.random_seeded(4, 9)
        assert np.array_equal(a.matrix, b.matrix)
        c = DensityMatrix.random_seeded(4, 10)
        assert not np.allclose(a.matrix, c.matrix)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError, match="Hermitian"):
            DensityMatrix([[0.5, 0.1], [0.3, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(InputError, match="trace"):
            DensityMatrix([[0.9, 0.0], [0.0, 0.9]])

    def test_rejects_negative_spectrum(self):
        with pytest.raises(InputError, match="negative"):
            DensityMatrix([[1.2, 0.0], [0.0, -0.2]])

    def test_immutability(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(2)

    def test_stored_spectrum_is_read_only(self):
        rho = DensityMatrix.random_seeded(4, 3)
        w, v = rho.eigh()
        assert not w.flags.writeable and not v.flags.writeable
        assert not rho.eigenvalues().flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.5
        assert np.allclose(rho.spectral_operator(w), rho.matrix, atol=1e-14)

    def test_eigenvectors_on_first_use(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        rho = DensityMatrix.random_seeded(4, 3)
        w = rho.eigenvalues()
        before = w.copy()
        assert calls == []
        w2, v = rho.eigh()
        assert rho.eigh()[1] is v and calls == [1]
        assert w2 is w and rho.eigenvalues() is w
        assert np.array_equal(w, before)
        assert not v.flags.writeable
        assert np.allclose(rho.spectral_operator(w), rho.matrix, atol=1e-14)
        assert calls == [1]

    def test_dict_round_trip(self):
        rho = DensityMatrix.random_seeded(3, 4)
        again = DensityMatrix.from_dict(rho.to_dict())
        assert np.allclose(again.matrix, rho.matrix, atol=1e-15)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DensityMatrix([[0.5, np.nan], [np.nan, 0.5]]),
            lambda: DensityMatrix([[np.nan, 0.0], [0.0, 0.5]]),
            lambda: DensityMatrix([[0.5, np.inf], [np.inf, 0.5]]),
            lambda: DensityMatrix.diagonal([0.5, np.nan]),
            lambda: DensityMatrix.from_dict(
                {"dim": 2, "matrix": [[[0.5, 0], [math.nan, 0]], [[math.nan, 0], [0.5, 0]]]}
            ),
        ],
        ids=["nan-off-diagonal", "nan-diagonal", "inf", "diagonal-nan", "from-dict"],
    )
    def test_rejects_non_finite_entries(self, build):
        # every later check is a comparison, and each is False for NaN
        with pytest.raises(InputError, match="finite"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DensityMatrix(np.zeros((0, 0))),
            lambda: DensityMatrix.maximally_mixed(0),
            lambda: DensityMatrix.diagonal([]),
        ],
        ids=["matrix", "maximally-mixed", "diagonal"],
    )
    def test_rejects_empty(self, build):
        with pytest.raises(InputError):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DensityMatrix.pure(0), "dimension must be an integer >= 1, got 0"),
            (lambda: DensityMatrix.pure(2, 5), "index 5 lies outside \\[0, 2\\)"),
            (lambda: DensityMatrix.pure(2, -1), "index must be an integer >= 0, got -1"),
            (lambda: DensityMatrix.maximally_mixed(-1), "dimension must be an integer >= 1"),
            (lambda: DensityMatrix.random_seeded(-1, 1), "dimension must be an integer >= 1"),
        ],
        ids=["pure-empty", "pure-index-high", "pure-index-negative", "mixed", "random"],
    )
    def test_generators_validate_before_indexing(self, build, message):
        with pytest.raises(InputError, match=message):
            build()


class TestBlockEncodings:
    def test_oracle_encoding_block(self):
        m = np.array([[0.3, 0.1], [0.1, -0.2]])
        u = oracle_dilation(m)
        assert np.allclose(u[:2, :2], m, atol=1e-12)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12

    def test_oracle_rejects_large_norm(self, rho_34):
        # spectrum in [0, 1]: ||f(rho)||_2 <= sup norm, so the norm check is the only guard
        with pytest.raises(InputError, match="rescale"):
            parallel_qsp_run([Polynomial([0, 0, 1.5])], rho_34, mode="circuit")


class TestSpectralHadamard:
    @pytest.mark.parametrize("dim", [8, 16, 32, 64])
    @pytest.mark.parametrize("state", ["mixed", "rho"])
    def test_matches_encoded_hadamard_test(self, state, dim):
        # reference: Re tr((I/D) B) for the block B of the oracle dilation of
        # p(rho)/||p||, on a degenerate spectrum (rho = I/D) and a generic one
        if state == "mixed":
            rho = DensityMatrix.maximally_mixed(dim)
        else:
            rho = DensityMatrix.random_seeded(dim, 12)
        p = Polynomial([0.3, -0.5, 0.0, 0.9])
        values = np.real(p(rho.eigenvalues())) / poly.sup_norm(p)
        block = oracle_dilation(rho.spectral_operator(values))[:dim, :dim]
        want = float(np.real(np.trace(block))) / dim
        assert spectral_hadamard_test(p, rho).value == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("shots", ["exact", 100])
    def test_zero_polynomial_rejected(self, rho_34, shots):
        # rejected before any read, exact or drawn through joint_readout
        with pytest.raises(InputError, match="zero polynomial"):
            est = spectral_hadamard_test(Polynomial([0.0]), rho_34)
            if shots != "exact":
                q, z, c = est.law
                joint_readout(q, z, shots, ShotSampler(3), coeffs=c)

    def test_sampled_reads_through_readout(self, rho_34):
        # the read is exact; joint_readout draws its one-run law
        q, z, c = spectral_hadamard_test(chebyshev_polynomial(2), rho_34).law
        est = joint_readout(q, z, 4096, ShotSampler(3), coeffs=c)
        assert est.shots_used == 4096
        assert -1.0 <= est.value <= 1.0


class TestSampledReadoutPins:
    """Sampled one-ancilla read-outs on diag(0.75, 0.25), with 4096 shots and
    ShotSampler(3); exact equality guards the draw and the error formula.
    The swap case reads tr(rho^3) = 0.4375 and the Hadamard case
    tr(rho^2)/2 = 0.3125.  Both were re-recorded when they began reading out
    through joint_readout as one run that always succeeds: the values did not
    move, and the standard errors grew by sqrt(4096/4095), the sample
    variance's n/(n - 1) correction (0.01483239065502902 and
    0.01403539880659226 before); the draws sit 0.13 and 0.14 standard errors
    from the exact values.  Both read-outs now read exactly, and each case
    draws its law through joint_readout on the same sampler, with the same
    numbers."""

    CASES = {
        "hadamard_real": (
            lambda rho: spectral_hadamard_test(Polynomial([0, 0, 1]), rho),
            (0.314453125, 0.01483420158118863),
        ),
        "swap": (
            lambda rho: generalized_swap_expectation([rho] * 3),
            (0.439453125, 0.01403711242589009),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned(self, rho_34, name):
        read, pinned = self.CASES[name]
        q, z, c = read(rho_34).law
        est = joint_readout(q, z, 4096, ShotSampler(3), coeffs=c)
        assert (est.value, est.std_error) == pinned
        assert est.shots_used == 4096


class TestSwapExpectation:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_power_trace_identity(self, dim, k):
        rho = DensityMatrix.random_seeded(dim, 40 + dim)
        est = generalized_swap_expectation([rho] * k)
        want = float(np.sum(rho.eigenvalues() ** k))
        assert est.value == pytest.approx(want, abs=1e-10)

    def test_register_cap(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(InputError, match="k <= 6"):
            generalized_swap_expectation([rho] * 7)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="mismatch"):
            generalized_swap_expectation(
                [DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3)]
            )

    def test_sampled(self):
        rho = DensityMatrix.diagonal([0.7, 0.3])
        q, z, c = generalized_swap_expectation([rho] * 2).law
        est = joint_readout(q, z, 20000, ShotSampler(1), coeffs=c)
        assert abs(est.value - 0.58) <= 5 * est.std_error


class TestParallelRun:
    def test_direct_matches_spectral(self):
        rng = np.random.default_rng(50)
        for trial in range(14):
            dim = int(rng.integers(2, 6)) if trial < 10 else (8, 16, 32, 64)[trial - 10]
            k = int(rng.integers(1, 4))
            rho = DensityMatrix.random_seeded(dim, int(rng.integers(1, 10 ** 6)))
            source = random_nonneg(rng, int(rng.integers(k, 2 * k + 2)))
            plan = rescale_factors(factorize_nonneg(source, k))
            est = parallel_qsp_run(plan.factors, rho)
            want = spectral_parallel_value(plan.factors, rho)
            assert abs(est.value - want) <= 1e-8

    def test_circuit_matches_direct(self):
        rng = np.random.default_rng(51)
        states = [DensityMatrix.random_seeded(dim, 60 + dim) for dim in (2, 3, 4)]
        # degenerate spectra: a basis-free state and a repeated eigenvalue
        states += [DensityMatrix.maximally_mixed(4), DensityMatrix.diagonal([0.4, 0.4, 0.2])]
        for k in (1, 2, 3):
            chebyshev_factors = [chebyshev_polynomial(j + 2) for j in range(k)]
            for rho in states:
                plan = rescale_factors(factorize_nonneg(random_nonneg(rng, 3), k))
                for factors, encode in ((plan.factors, "oracle"), (chebyshev_factors, "qsp")):
                    direct = parallel_qsp_run(factors, rho, mode="direct", encode=encode)
                    circuit = parallel_qsp_run(factors, rho, mode="circuit", encode=encode)
                    assert abs(direct.value - circuit.value) <= 1e-8

    def test_qsp_encode_matches_oracle(self, rho_34):
        # phase route needs definite parity; Chebyshev factors qualify
        factors = (chebyshev_polynomial(2), chebyshev_polynomial(3))
        oracle = parallel_qsp_run(factors, rho_34, encode="oracle")
        qsp = parallel_qsp_run(factors, rho_34, encode="qsp")
        # phase finding is tolerance-limited, not exact
        assert abs(oracle.value - qsp.value) <= 5e-4

    @pytest.mark.parametrize("dim", [8, 16, 32])
    @pytest.mark.parametrize("k", [2, 3])
    def test_qsp_encode_matches_spectral_at_larger_dims(self, dim, k):
        # random definite-parity factors up to degree 40, each at sup norm 1
        rng = np.random.default_rng(100 * dim + k)
        rho = DensityMatrix.random_seeded(dim, dim + k)
        factors = [random_parity_target(rng, int(rng.integers(1, 41))) for _ in range(k)]
        est = parallel_qsp_run(factors, rho, mode="direct", encode="qsp")
        assert est.value == pytest.approx(spectral_parallel_value(factors, rho), rel=1e-9)

    def test_qsp_encode_rejects_indefinite_parity(self, rho_34):
        with pytest.raises(InputError, match="parity"):
            parallel_qsp_run([Polynomial([0.1, 0.2, 0.3])], rho_34, encode="qsp")

    def test_unnormalized_factor_rejected(self, rho_34):
        with pytest.raises(InputError, match="rescale"):
            parallel_qsp_run([Polynomial([0, 2.0])], rho_34)

    def test_factor_norms_scanned_once_per_factor(self, rho_34, monkeypatch):
        scanned = []
        kernel = poly._colleague_norms

        def counting(series):
            scanned.extend(series)
            return kernel(series)

        monkeypatch.setattr(poly, "_colleague_norms", counting)
        a, b = Polynomial([0, 0.5]), Polynomial([0.3, 0, 0.4])
        values = {parallel_qsp_run([a, b, a], rho_34).value for _ in range(4)}
        assert len(values) == 1
        assert [tuple(c) for c in scanned] == [a.cheb, b.cheb]

    def test_norm_check_repeats_on_every_call(self, rho_34):
        big = Polynomial([0, 0, 1.5])
        for _ in range(2):
            with pytest.raises(InputError, match="factor 1 has sup norm above 1"):
                parallel_qsp_run([Polynomial([0, 1]), big], rho_34)

    def test_post_selection_failure(self):
        # (x - 1)/2 annihilates the only populated eigenvalue
        rho = DensityMatrix.pure(2)
        with pytest.raises(PostSelectionError, match="post-selection"):
            parallel_qsp_run([Polynomial([-0.5, 0.5])], rho)

    def test_circuit_caps(self):
        # one cap, on the D^k side of the post-selected state
        x = Polynomial([0, 1])
        for rho, k in ((DensityMatrix.maximally_mixed(8), 2), (DensityMatrix.pure(2), 4)):
            direct = parallel_qsp_run([x] * k, rho)
            assert parallel_qsp_run([x] * k, rho, mode="circuit").value == pytest.approx(
                direct.value, abs=1e-14
            )
        # D = 1 fits any k: the shift permutation needs no k-dimensional index grid
        assert parallel_qsp_run([x] * 80, DensityMatrix.pure(1), mode="circuit").value == 1.0
        for dim, k in ((64, 2), (2, 11), (4, 6), (33, 2)):
            rho = DensityMatrix.maximally_mixed(dim)
            with pytest.raises(InputError, match=f"caps D\\^k at 1024, got {dim}\\^{k}"):
                parallel_qsp_run([x] * k, rho, mode="circuit")

    def test_circuit_register_cap_qsp_encode(self):
        # D^k = 64 is within the cap, though the phase route's threads are 4D-dimensional
        rho = DensityMatrix.random_seeded(4, 7)
        factors = [Polynomial([0, 0.5])] * 3
        circuit = parallel_qsp_run(factors, rho, mode="circuit", encode="qsp")
        direct = parallel_qsp_run(factors, rho, encode="qsp")
        assert circuit.value == pytest.approx(direct.value, abs=1e-14)

    def test_circuit_register_cap_before_phase_finding(self, monkeypatch):
        def refuse(f):
            raise AssertionError("the cap is checked before any phase finding")

        monkeypatch.setattr(sim, "find_phases", refuse)
        rho = DensityMatrix.random_seeded(4, 7)
        factors = [chebyshev_polynomial(n) for n in range(1, 7)]
        with pytest.raises(InputError, match="caps D\\^k at 1024, got 4\\^6"):
            parallel_qsp_run(factors, rho, mode="circuit", encode="qsp")
        with pytest.raises(InputError, match="unknown encode mode 'fancy'"):
            parallel_qsp_run(factors[:3], rho, mode="circuit", encode="fancy")

    @pytest.mark.parametrize("encode", ["oracle", "qsp"])
    @pytest.mark.parametrize("dim, k", [(8, 2), (16, 2), (32, 2), (8, 3), (4, 4)])
    def test_circuit_matches_direct_at_kernel_sized_caps(self, dim, k, encode):
        rng = np.random.default_rng(10 * dim + k)
        rho = DensityMatrix.random_seeded(dim, 90 + dim + k)
        if encode == "oracle":
            factors = rescale_factors(factorize_nonneg(random_nonneg(rng, 2 * k), k)).factors
        else:
            factors = [random_parity_target(rng, int(rng.integers(1, 41))) for _ in range(k)]
        direct = parallel_qsp_run(factors, rho, encode=encode)
        circuit = parallel_qsp_run(factors, rho, mode="circuit", encode=encode)
        assert circuit.value == pytest.approx(direct.value, abs=1e-12)

    def test_circuit_finds_phases_once_per_distinct_factor(self, monkeypatch):
        solved = []
        find = sim.find_phases
        monkeypatch.setattr(sim, "find_phases", lambda f: solved.append(f) or find(f))
        rho = DensityMatrix.random_seeded(2, 5)
        t2, t3 = chebyshev_polynomial(2), chebyshev_polynomial(3)
        parallel_qsp_run([t3] * 3, rho, mode="circuit", encode="qsp")
        assert solved == [t3]
        solved.clear()
        parallel_qsp_run([t3, t2, t3], rho, mode="circuit", encode="qsp")
        assert solved == [t3, t2]

    def test_circuit_norm_error_names_layout_and_thread(self, rho_34):
        with pytest.raises(InputError, match="layout 0, factor 1 has sup norm above 1"):
            parallel_qsp_run([Polynomial([0, 1]), Polynomial([0, 0, 1.5])], rho_34, mode="circuit")

    def test_unknown_mode(self, rho_34):
        with pytest.raises(InputError, match="mode"):
            parallel_qsp_run([Polynomial([0, 1])], rho_34, mode="fancy")

    def test_sampled_run_deterministic(self, rho_34):
        factors = (Polynomial([0, 1]), Polynomial([0, 1]))
        a = parallel_qsp_run(factors, rho_34, shots=10 ** 4, sampler=ShotSampler(11))
        b = parallel_qsp_run(factors, rho_34, shots=10 ** 4, sampler=ShotSampler(11))
        assert a == b

    def test_sampled_run_unbiased(self, rho_34):
        factors = (Polynomial([0, 1]), Polynomial([0, 1]))
        exact = parallel_qsp_run(factors, rho_34).value
        vals = []
        for rep in range(500):
            est = parallel_qsp_run(
                factors, rho_34, shots=10 ** 4, sampler=ShotSampler(1000 + rep)
            )
            vals.append(est.value)
        mean = float(np.mean(vals))
        sem = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean - exact) <= 5 * sem

    def test_stderr_scales_with_shots(self, rho_34):
        factors = (Polynomial([0, 1]), Polynomial([0, 1]))

        def avg_stderr(shots):
            errs = [
                parallel_qsp_run(
                    factors, rho_34, shots=shots, sampler=ShotSampler(2000 + rep)
                ).std_error
                for rep in range(30)
            ]
            return float(np.mean(errs))

        ratio = avg_stderr(10 ** 3) / avg_stderr(10 ** 5)
        assert 6.25 <= ratio <= 16.0


class TestCircuitKernel:
    """The success-subspace kernel against the full-register reference."""

    def test_shift_permutation_cached_and_read_only(self):
        perm = sim._shift_permutation(2, 3)
        assert perm is sim._shift_permutation(2, 3)
        with pytest.raises(ValueError):
            perm[0] = 1

    def test_matches_full_register_on_random_unitaries(self):
        rng = np.random.default_rng(11)
        checked = 0
        for dim in (2, 3, 4):
            for k in (1, 2, 3):
                for flags in (2, 4, 8):
                    if (flags * dim) ** k > 1024:
                        continue
                    rho = DensityMatrix.random_seeded(dim, 10 * dim + k)
                    us = [random_unitary(rng, flags * dim) for _ in range(k)]
                    got = sim._joint_probabilities_circuit([u[:dim, :dim] for u in us], rho)
                    assert got == pytest.approx(full_register_probabilities(us, rho), abs=1e-12)
                    checked += 1
        assert checked == 22

    @pytest.mark.parametrize("dim, encode", [(4, "oracle"), (2, "qsp")])
    def test_matches_full_register_on_thread_unitaries(self, monkeypatch, dim, encode):
        # the 512-amplitude registers: 8-dimensional oracle threads at D = 4,
        # 8-dimensional phase-route threads at D = 2
        seen = {}
        kernel, thread_values = sim._joint_probabilities_circuit, sim._thread_values

        def recording_values(*args):
            seen["values"] = thread_values(*args)
            return seen["values"]

        def recording_kernel(blocks, rho):
            seen["blocks"] = blocks
            return kernel(blocks, rho)

        monkeypatch.setattr(sim, "_thread_values", recording_values)
        monkeypatch.setattr(sim, "_joint_probabilities_circuit", recording_kernel)
        rho = DensityMatrix.random_seeded(dim, 70 + dim)
        if encode == "oracle":
            rng = np.random.default_rng(12)
            factors = rescale_factors(factorize_nonneg(random_nonneg(rng, 4), 3)).factors
        else:
            factors = [chebyshev_polynomial(n) for n in (1, 2, 3)]
        parallel_qsp_run(factors, rho, mode="circuit", encode=encode)
        if encode == "oracle":
            unitaries = [oracle_dilation(rho.spectral_operator(v)) for v in seen["values"]]
        else:
            unitaries = [qsp_average_unitary(find_phases(f), rho) for f in factors]
        assert math.prod(u.shape[0] for u in unitaries) == 512
        for u, b in zip(unitaries, seen["blocks"], strict=True):
            assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-12
            if encode == "oracle":
                assert np.array_equal(u[:dim, :dim], b)
            else:
                assert np.max(np.abs(u[:dim, :dim] - b)) <= 1e-14
        got = kernel(seen["blocks"], rho)
        assert got == pytest.approx(full_register_probabilities(unitaries, rho), abs=1e-12)

    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_qsp_blocks_match_the_qubitized_sequences(self, monkeypatch, dim):
        # circuit mode's blocks against the literal sequences' averaged top-left block
        seen = []
        kernel = sim._joint_probabilities_circuit
        monkeypatch.setattr(
            sim, "_joint_probabilities_circuit", lambda bs, rho: seen.extend(bs) or kernel(bs, rho)
        )
        rng = np.random.default_rng(dim)
        rho = DensityMatrix.random_seeded(dim, 30 + dim)
        for factors in (
            [chebyshev_polynomial(36), 0.9 * chebyshev_polynomial(35)],
            [random_parity_target(rng, int(rng.integers(1, 37))) for _ in range(2)],
        ):
            seen.clear()
            parallel_qsp_run(factors, rho, mode="circuit", encode="qsp")
            for f, b in zip(factors, seen, strict=True):
                want = qsp_average_unitary(find_phases(f), rho)[:dim, :dim]
                assert np.max(np.abs(b - want)) <= 1e-13, f.degree

    def test_largest_oracle_run_stays_small(self):
        rng = np.random.default_rng(13)
        rho = DensityMatrix.random_seeded(4, 3)
        factors = rescale_factors(factorize_nonneg(random_nonneg(rng, 4), 3)).factors
        parallel_qsp_run(factors, rho, mode="circuit")
        tracemalloc.start()
        try:
            parallel_qsp_run(factors, rho, mode="circuit")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 512 x 512 complex matrix of the full register is 4 MiB
        assert peak < 2 ** 20

    def test_largest_state_stays_below_80_mb(self):
        # D^k = 1024, the cap: the state and its shifted copies, 16 MiB each
        rho = DensityMatrix.random_seeded(32, 4)
        factors = [Polynomial([0, 0.5]), Polynomial([0.2, 0, 0.7])]
        parallel_qsp_run(factors, rho, mode="circuit")
        tracemalloc.start()
        try:
            parallel_qsp_run(factors, rho, mode="circuit")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2 ** 20


class TestBatchedRuns:
    @staticmethod
    def layouts():
        """Term layouts (k = 2) and monomial layouts of 1 to 4 threads (k = 3)."""
        tail = split_constituents(chebyshev_polynomial(16), 2)[1]
        terms = chebyshev_parallel_terms(tail, 2, 16)
        return reference_term_layouts(terms, 2) + [
            estimate._monomial_factors(n, 3) for n in range(1, 9)
        ]

    @pytest.mark.parametrize("dim", [4, 16, 32])
    def test_batch_matches_single_runs(self, dim):
        rho = DensityMatrix.random_seeded(dim, dim)
        layouts = self.layouts()
        assert {len(fl) for fl in layouts} == {1, 2, 3, 4}
        q, z = parallel_qsp_runs(*layout_table(layouts), rho)
        assert q.shape == z.shape == (len(layouts),)
        lams = np.linalg.eigvalsh(rho.matrix)
        for i, fl in enumerate(layouts):
            assert z[i] == pytest.approx(parallel_qsp_run(fl, rho).value, abs=1e-14)
            assert z[i] == pytest.approx(spectral_parallel_value(fl, rho), abs=1e-12)
            want_q = math.prod(float(np.dot(lams, np.abs(f(lams)) ** 2)) for f in fl)
            assert q[i] == pytest.approx(want_q, abs=1e-12)

    @pytest.mark.parametrize("dim", [4, 16, 32])
    def test_table_path_matches_reference_bits(self, dim):
        rng = np.random.default_rng(dim)
        rho = DensityMatrix.random_seeded(dim, 7 * dim)
        for k in range(1, 6):
            for degree in (38, 39):
                kp = k if k % 2 == degree % 2 else k - 1
                if kp < 1:
                    continue
                high = split_constituents(random_parity_target(rng, degree), kp)[1]
                terms = chebyshev_parallel_terms(high, kp, degree)
                table, index = term_layout(terms, kp)
                q, z = parallel_qsp_runs(table, index, rho)
                want_q, want_z = reference_runs(reference_term_layouts(terms, kp), rho)
                assert q.tobytes() == want_q.tobytes(), (k, degree)
                assert z.tobytes() == want_z.tobytes(), (k, degree)

    def test_layout_table_matches_reference_bits(self):
        rho = DensityMatrix.random_seeded(16, 5)
        layouts = self.layouts()
        table, index = layout_table(layouts)
        assert table[0] is Polynomial.one()
        q, z = parallel_qsp_runs(table, index, rho)
        want_q, want_z = reference_runs(layouts, rho)
        assert (q.tobytes(), z.tobytes()) == (want_q.tobytes(), want_z.tobytes())

    def test_stacked_values_match_per_factor_bits(self):
        rng = np.random.default_rng(600)
        for _ in range(200):
            table = [Polynomial.one()]
            for _ in range(int(rng.integers(1, 12))):
                c = rng.normal(size=int(rng.integers(1, 14)))
                if rng.random() < 0.5:
                    c = c + 1j * rng.normal(size=c.size)
                # sum |c_j| bounds the sup norm, so every row passes the norm check
                table.append(Polynomial.from_cheb(c / np.abs(c).sum()))
            index = np.arange(1, len(table))[None, :]
            rho = DensityMatrix.random_seeded(int(rng.integers(1, 33)), 3)
            values = sim._thread_values(table, index, rho, "oracle")
            w = rho.eigenvalues()
            for row, f in zip(values, table[1:], strict=True):
                assert row.tobytes() == f(w).tobytes()

    @staticmethod
    def real_layouts():
        """(table, checked layout) of term layouts of random even tails and of
        swap-test layouts of tr(rho^n), n = 1-10, at k = 2-4."""
        rng = np.random.default_rng(33)
        out = []
        for k in (2, 3, 4):
            for degree in (k + 12, k + 30):
                high = split_constituents(random_parity_target(rng, degree), k)[1]
                ctilde = chebyshev_parallel_terms(high, k, degree).ctilde
                out.append(estimate._term_layout(k, tuple(sorted(ctilde)))[:2])
            out.append(estimate._swap_layout(tuple(range(1, 11)), k)[:2])
        return out

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_real_tables_keep_float_series_with_the_complex_bits(self, dim):
        rho = DensityMatrix.random_seeded(dim, dim + 1)
        for table, layout in self.real_layouts():
            assert layout.series.dtype == np.float64 and not layout.series.flags.writeable
            widened = sim._Layout(sim._series(table[1:]), layout.index, layout.threads)
            assert widened.series.dtype == np.complex128
            for got, want in zip(sim._layout_runs(layout, rho), sim._layout_runs(widened, rho)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_complex_tables_keep_complex_series(self, rho_34):
        factors = rescale_factors(factorize_nonneg(random_nonneg(np.random.default_rng(5), 4), 2))
        assert any(f.max_imag() > 0 for f in factors.factors)
        table, index = layout_table([list(factors.factors)])
        layout = sim._checked_layout(table, index)
        assert layout.series.dtype == np.complex128
        q, z = sim._layout_runs(layout, rho_34)
        want_q, want_z = parallel_qsp_runs(table, index, rho_34)
        assert (q.tobytes(), z.tobytes()) == (want_q.tobytes(), want_z.tobytes())

    def test_each_distinct_factor_checked_once(self, rho_34, monkeypatch):
        checked = []
        verdicts = sim._norms_exceed
        monkeypatch.setattr(
            sim, "_norms_exceed", lambda fs, limit: checked.extend(fs) or verdicts(fs, limit)
        )
        layouts = self.layouts()
        parallel_qsp_runs(*layout_table(layouts), rho_34)
        distinct = {id(f) for fl in layouts for f in fl}
        assert len(checked) == len(distinct) < sum(len(fl) for fl in layouts)

    def test_errors_name_layout_and_thread(self):
        rho = DensityMatrix.pure(2)
        ok, dead = Polynomial([0, 1]), Polynomial([-0.5, 0.5])
        with pytest.raises(PostSelectionError, match="layout 1, thread 2"):
            parallel_qsp_runs(*layout_table([[ok], [ok, ok, dead]]), rho)
        with pytest.raises(InputError, match="layout 1, factor 0 has sup norm above 1"):
            parallel_qsp_runs(*layout_table([[ok], [Polynomial([0, 0, 1.5])]]), rho)
        with pytest.raises(InputError, match="layout 0 needs at least one"):
            layout_table([[]])

    @pytest.mark.parametrize(
        "index",
        [np.array([[-1]]), np.array([[3]]), np.array([1]), np.array([[1.0]]), [[1]]],
        ids=["negative", "past-the-table", "one-dimensional", "float", "list"],
    )
    def test_rejects_malformed_index(self, index):
        table = (Polynomial.one(), Polynomial([0, 1]))
        with pytest.raises(InputError, match="2-D integer array with entries in \\[0, 2\\)"):
            parallel_qsp_runs(table, index, DensityMatrix.pure(2))

    def test_rejects_over_norm_row_that_no_run_uses(self):
        table = (Polynomial.one(), Polynomial([0, 0, 1.5]))
        with pytest.raises(InputError, match="table row 1 has sup norm above 1"):
            parallel_qsp_runs(table, np.zeros((1, 1), np.intp), DensityMatrix.pure(2))


class _RecordingSampler(ShotSampler):
    """A ShotSampler that keeps each row-wise draw's (shots, counts); a script
    replaces the first draw's counts."""

    def __init__(self, seed, script=None):
        super().__init__(seed)
        self.rows, self.script = [], script

    def multinomial_rows(self, shots, pvals):
        counts = super().multinomial_rows(shots, pvals)
        if self.script is not None and not self.rows:
            counts = np.array(self.script)
        self.rows.append((np.asarray(shots), counts))
        return counts


def _cumulative_floor_split(total, weights):
    """A loop reference: one shot each, the spare cut at floors of cumulative
    shares; all-zero weights split evenly."""
    weights = weights if any(weights) else [1.0] * len(weights)
    spare, acc, cut, out = total - len(weights), 0.0, 0, []
    for w in weights:
        acc += w
        nxt = min(spare, math.floor(spare * (acc / sum(weights))))
        out.append(1 + nxt - cut)
        cut = nxt
    out[-1] += spare - cut
    return out


def test_neyman_split_matches_the_loop_reference():
    rng = np.random.default_rng(3)
    for trial in range(2000):
        runs = int(rng.integers(1, 80))
        w = rng.random(runs) * 10.0 ** rng.integers(-6, 4, runs)
        w[(rng.random(runs) < 0.2) | (trial % 20 == 0)] = 0.0
        total = runs + int(rng.integers(0, 10 ** int(rng.integers(1, 9))))
        assert sim._neyman_split(total, w).tolist() == _cumulative_floor_split(total, w.tolist())


class TestJointReadout:
    @pytest.mark.parametrize(
        "q, z, coeffs, message",
        [
            ([0.5], [math.nan], None, "a sampled read-out needs finite z values and coefficients"),
            ([0.5], [math.inf], None, "a sampled read-out needs finite z values and coefficients"),
            ([0.5], [0.1], [math.inf], "a sampled read-out needs finite z values and coefficients"),
            ([2.0], [0.1], None, "run 0 succeeds with probability 2.0, outside (0, 1]"),
            ([math.nan], [0.1], None, "run 0 succeeds with probability nan, outside (0, 1]"),
            ([0.5, -0.1], [0.1, 0.0], None, "run 1 succeeds with probability -0.1, outside (0, 1]"),
        ],
    )
    def test_exact_mode_rejects_a_law_as_a_draw_does(self, q, z, coeffs, message):
        for shots in ("exact", 100):
            with pytest.raises(InputError) as caught:
                joint_readout(q, z, shots, ShotSampler(1), coeffs=coeffs)
            assert str(caught.value) == message

    def test_one_run_is_the_single_multinomial(self, rho_34):
        factors = (Polynomial([0, 1]), Polynomial([0.5, 0, 0.5]))
        q, z = parallel_qsp_runs(*layout_table([factors]), rho_34)
        z_cond = min(1.0, max(-1.0, z[0] / q[0]))
        pvals = [q[0] * 0.5 * (1.0 + z_cond), q[0] * 0.5 * (1.0 - z_cond), 1.0 - q[0]]
        n_plus, n_minus, _ = ShotSampler(4).multinomial_rows([5000], [pvals])[0]
        est = joint_readout(q, z, 5000, ShotSampler(4))
        assert est.value == (n_plus - n_minus) / 5000
        assert est == parallel_qsp_run(factors, rho_34, shots=5000, sampler=ShotSampler(4))

    def test_one_draw_unbiased_with_calibrated_error(self):
        rho = DensityMatrix.random_seeded(4, 1)
        tail = split_constituents(chebyshev_polynomial(10), 2)[1]
        terms = chebyshev_parallel_terms(tail, 2, 10)
        c = terms.coeff
        q, z = parallel_qsp_runs(*term_layout(terms, 2), rho)
        exact = float(np.dot(c, z))
        assert joint_readout(q, z, coeffs=c).value == exact
        ests = [joint_readout(q, z, 2000, ShotSampler(s), coeffs=c) for s in range(200)]
        vals = np.array([e.value for e in ests])
        spread = float(np.std(vals, ddof=1))
        assert abs(vals.mean() - exact) <= 5 * spread / math.sqrt(len(vals))
        assert float(np.mean([e.std_error for e in ests])) == pytest.approx(spread, rel=0.15)
        assert all(e.shots_used == 2000 for e in ests)

    def test_stratified_draw_matches_a_per_run_reference(self, rho_34):
        # eight runs at 50 shots: a pilot of ceil(sqrt(50)) = 8 shots, one per
        # run, then 42 main shots; at 49 the pilot of 7 cannot cover 8 runs
        layouts = [(Polynomial([0, 1]),) * j for j in range(1, 9)]
        q, z = parallel_qsp_runs(*layout_table(layouts), rho_34)
        c = np.array([0.5, -0.3, 0.25, 0.2, -0.15, 0.1, 0.05, -0.05])
        for n in (50, 400, 10 ** 5):
            sampler = _RecordingSampler(3)
            est = joint_readout(q, z, n, sampler, coeffs=c)
            (pilot, first), (main, counts) = sampler.rows
            assert est.shots_used == n and pilot.sum() == math.ceil(math.sqrt(n))
            assert [record for _, record in est.parts] == [
                {"runs": 8, "pilot": pilot.sum(), "main": n - pilot.sum()}
            ]
            share = np.abs(c) / np.abs(c).sum()
            assert pilot.tolist() == _cumulative_floor_split(pilot.sum(), share)
            spreads = []
            for m, (plus, minus, _) in zip(pilot, first):
                var = 0.0 if m == 1 else ((plus + minus) / m - ((plus - minus) / m) ** 2) * m / (m - 1)
                spreads.append(max(math.sqrt(max(var, 0.0)), 1.0 / math.sqrt(m)))
            assert main.tolist() == _cumulative_floor_split(n - pilot.sum(), share * spreads)
            value = var_sum = 0.0
            for cj, m, (plus, minus, _) in zip(c, main, counts):
                mean = (plus - minus) / m
                var = 1.0 if m == 1 else ((plus + minus) / m - mean ** 2) * m / (m - 1)
                value, var_sum = value + cj * mean, var_sum + cj * cj * var / m
            assert est.value == pytest.approx(value, rel=1e-12, abs=1e-15)
            assert est.std_error == pytest.approx(math.sqrt(var_sum), rel=1e-12)
        assert joint_readout(q, z, 49, ShotSampler(3), coeffs=c).parts[0][1]["pilot"] == 0
        # one pooled multinomial of all 49 shots over the 8 runs' 24 cells
        single = _RecordingSampler(3)
        joint_readout(q, z, 49, single, coeffs=c)
        assert [(n.tolist(), counts.shape) for n, counts in single.rows] == [([49], (1, 24))]

    def test_split_follows_the_pilot_counts_not_the_law(self, rho_34):
        # two identical runs: the exact law splits them evenly, a pilot that
        # saw no spread on run 0 and the widest on run 1 does not
        q, z = parallel_qsp_runs(*layout_table([(Polynomial([0, 1]),)] * 2), rho_34)
        sampler = _RecordingSampler(1, script=[[50, 0, 0], [25, 25, 0]])
        est = joint_readout(q, z, 10 ** 4, sampler, coeffs=[1.0, 1.0])
        (pilot, _), (main, _) = sampler.rows
        assert pilot.tolist() == [50, 50] and sum(main) == 10 ** 4 - 100
        # spreads: the floor 1/sqrt(50) against sqrt(50/49): a 1:7.1 split
        assert main[1] / main[0] == pytest.approx(math.sqrt(50 / 49) * math.sqrt(50), rel=1e-2)
        assert est.shots_used == 10 ** 4

    def test_one_main_shot_is_charged_the_bound(self, rho_34):
        # the tiny coefficient's run, first so that no rounding spare lands on
        # it, gets one pilot and one main shot
        q, z = parallel_qsp_runs(*layout_table([(Polynomial.one(),)] * 2), rho_34)
        sampler = _RecordingSampler(2)
        est = joint_readout(q, z, 400, sampler, coeffs=[1e-9, 1.0])
        (pilot, _), (main, _) = sampler.rows
        assert pilot[0] == main[0] == 1 and est.value == pytest.approx(1.0 + 1e-9, rel=1e-12)
        # a bare register reads +1 on every shot: only the bound is charged
        assert est.std_error == pytest.approx(1e-9, rel=1e-12)

    def test_exact_law_draws_what_a_sampled_read_draws(self, rho_34):
        # an exact read keeps its runs; drawing them later on a stream is the
        # sampled read on that stream
        exact = spectral_hadamard_test(Polynomial([0.2, 0.5]), rho_34)
        q, z, c = exact.law
        assert (q.tolist(), z.tolist(), c.tolist()) == ([1.0], [exact.value], [1.0])
        factors = (Polynomial([0, 1]), Polynomial([0.5, 0, 0.5]))
        q, z, c = parallel_qsp_run(factors, rho_34).law
        drawn = joint_readout(q, z, 70, ShotSampler(2), coeffs=c)
        assert drawn == parallel_qsp_run(factors, rho_34, shots=70, sampler=ShotSampler(2))
        runs = parallel_qsp_runs(*layout_table([(Polynomial([0, 1]),)] * 2), rho_34)
        q, z, c = joint_readout(*runs, coeffs=[0.7, -0.3]).law
        assert joint_readout(q, z, 900, ShotSampler(4), coeffs=c) == joint_readout(
            *runs, 900, ShotSampler(4), coeffs=[0.7, -0.3]
        )

    def test_only_exact_read_outs_keep_their_law(self, rho_34):
        exact = joint_readout([0.5], [0.1])
        sampled = joint_readout([0.5], [0.1], 10, ShotSampler(1))
        assert exact.law is not None and exact.parts == ()
        assert sampled.law is None and [e for e, _ in sampled.parts] == [sampled]
        for est in (2.0 * exact, exact + exact, 2.0 * sampled, sampled + sampled):
            assert est.law is None and est.parts == ()
        with pytest.raises(InputError, match="integer shot count"):
            joint_readout([0.5], [0.1], 2.5, ShotSampler(1))

    def test_stages_share_one_draw(self, rho_34):
        # two stages of 3 and 5 runs: with room, one pilot of 2 ceil(sqrt(n))
        # shots and one main draw over all 8 runs, each stage its own sum
        layouts = [(Polynomial([0, 1]),) * j for j in range(1, 9)]
        q, z = parallel_qsp_runs(*layout_table(layouts), rho_34)
        c = np.array([0.5, -0.3, 0.25, 0.2, -0.15, 0.1, 0.05, -0.05])
        sampler = _RecordingSampler(3)
        est = joint_readout(q, z, 10 ** 4, sampler, coeffs=c, stages=[3, 5])
        (pilot, _), (main, counts) = sampler.rows
        assert pilot.sum() == 2 * 100 and pilot.sum() + main.sum() == 10 ** 4
        assert [r for _, r in est.parts] == [
            {"runs": 3, "pilot": pilot[:3].sum(), "main": main[:3].sum()},
            {"runs": 5, "pilot": pilot[3:].sum(), "main": main[3:].sum()},
        ]
        for (part, _), a, b in zip(est.parts, (0, 3), (3, 8)):
            plus, minus = counts[a:b, 0], counts[a:b, 1]
            assert part.value == pytest.approx(float(np.dot(c[a:b], (plus - minus) / main[a:b])),
                                               rel=1e-12)
        total = est.parts[0][0] + est.parts[1][0]
        assert (est.value, est.std_error, est.shots_used) == (
            total.value, total.std_error, total.shots_used
        )
        # without room, each stage gets its share by 1-norm in one multinomial
        # over its runs' cells, in stage order on the same stream
        small = joint_readout(q, z, 12, ShotSampler(5), coeffs=c, stages=[3, 5])
        norms = [float(np.abs(c[:3]).sum()), float(np.abs(c[3:]).sum())]
        shares = sim._neyman_split(12, norms).tolist()
        z_cond = np.clip(z / q, -1.0, 1.0)
        cells = np.stack([q * (1 + z_cond) / 2, q * (1 - z_cond) / 2, 1 - q], axis=1)
        alone = ShotSampler(5)
        for (part, record), a, b, norm, m in zip(small.parts, (0, 3), (3, 8), norms, shares):
            pvals = (np.abs(c[a:b])[:, None] / norm * cells[a:b]).reshape(1, -1)
            counts = alone.multinomial_rows([m], pvals)[0]
            mean = float(np.dot(np.sign(c[a:b]), counts[0::3] - counts[1::3])) / m
            assert part.value == pytest.approx(norm * mean, rel=1e-12, abs=1e-15)
            assert record == {"runs": b - a, "pilot": 0, "main": m}

    def test_stage_counts_are_checked(self):
        q, z = [0.5, 0.5, 0.5], [0.1, 0.2, 0.3]
        with pytest.raises(InputError, match="do not add up to the 3 runs"):
            joint_readout(q, z, 10, stages=[1, 1])
        with pytest.raises(InputError, match="stage run count"):
            joint_readout(q, z, 10, stages=[3, 0])
        with pytest.raises(InputError, match="all-zero"):
            joint_readout(q, z, 10, coeffs=[1.0, 0.0, 0.0], stages=[1, 2])
        with pytest.raises(InputError, match="budget 1 is below the stage count 2"):
            joint_readout(q, z, 1, coeffs=[1.0, 1.0, 1.0], stages=[1, 2])

    @pytest.mark.parametrize("q, z, c, match", [
        (1.5, 0.2, 1.0, "outside"), (-0.2, 0.1, 1.0, "outside"), (0.0, 0.0, 1.0, "outside"),
        (math.nan, 0.1, 1.0, "outside"), (math.inf, 0.1, 1.0, "outside"),
        (1.0 + 2e-6, 0.1, 1.0, "outside"), (0.5, math.nan, 1.0, "finite"),
        (0.5, -math.inf, 1.0, "finite"), (0.5, 0.1, math.nan, "finite"),
        (0.5, 0.1, math.inf, "finite"),
    ], ids=repr)
    def test_draw_rejects_a_law_it_cannot_sample(self, q, z, c, match):
        # a q outside (0, 1] or a non-finite z or c has no outcome law; the
        # first run is valid, so the message names the second
        with pytest.raises(InputError, match=match) as info:
            joint_readout([1.0, q], [0.5, z], 100, ShotSampler(1), coeffs=[1.0, c])
        assert match == "finite" or "run 1 succeeds with probability" in str(info.value)

    def test_draw_accepts_round_off_above_one(self):
        # factors pass the norm check up to 1 + 1e-9, so a k-thread run's q
        # can exceed 1 by about 2k * 1e-9
        q = [(1.0 + 1e-9) ** 8, 1.0, 1e-300]
        est = joint_readout(q, [0.5, -0.25, 0.0], 300, ShotSampler(1))
        assert est.shots_used == 300 and math.isfinite(est.value)

    def test_shape_and_coefficient_checks(self):
        with pytest.raises(InputError, match="one q, z and coefficient per run"):
            joint_readout([0.5, 0.5], [0.1, 0.2], coeffs=[1.0])
        with pytest.raises(InputError, match="all-zero"):
            joint_readout([0.5], [0.1], coeffs=[0.0])


class TestEstimateArithmetic:
    def test_sum_of_independent_stages(self):
        a = Estimate(value=0.5, std_error=0.03, shots_used=100)
        b = Estimate(value=-0.2, std_error=0.04, shots_used=300)
        total = a + b
        assert total.value == pytest.approx(0.3, abs=1e-15)
        assert total.std_error == pytest.approx(math.hypot(0.03, 0.04), rel=1e-15)
        assert total.shots_used == 400

    def test_negative_scale_keeps_error_sign_and_shots(self):
        est = Estimate(value=0.5, std_error=0.03, shots_used=100)
        scaled = -4.0 * est
        assert scaled.value == -2.0
        assert scaled.std_error == pytest.approx(0.12, rel=1e-15)
        assert scaled.std_error >= 0.0
        assert scaled.shots_used == 100


class TestQueryDepthReport:
    def test_definite_parity_uses_plain_degree(self):
        factors = [Polynomial([0, 0, 1]), Polynomial([0, 0, 1])]
        assert query_depth_report(factors) == (2, 2)

    def test_indefinite_parity_doubles(self):
        assert query_depth_report([Polynomial([0, 1, 1])]) == (4, 1)

    def test_empty(self):
        assert query_depth_report([]) == (0, 0)


class TestShotSampler:
    def test_same_seed_same_draws(self):
        a = ShotSampler(42).multinomial_rows([10 ** 4], [[0.37, 0.63]])
        b = ShotSampler(42).multinomial_rows([10 ** 4], [[0.37, 0.63]])
        assert a.tolist() == b.tolist()

    def test_child_streams_are_independent(self):
        parent = ShotSampler(42)
        c0 = parent.child(0).multinomial_rows([10 ** 4], [[0.5, 0.5]])[0, 0]
        c1 = parent.child(1).multinomial_rows([10 ** 4], [[0.5, 0.5]])[0, 0]
        again = ShotSampler(42).child(0).multinomial_rows([10 ** 4], [[0.5, 0.5]])[0, 0]
        assert c0 == again
        assert c0 != c1  # astronomically unlikely to collide

    def test_multinomial_total(self):
        counts = ShotSampler(7).multinomial_rows([1000], [[0.2, 0.3, 0.5]])
        assert counts.sum() == 1000

    def test_multinomial_rows_clip_and_normalize_each_row(self):
        pvals = np.array([[0.2, 0.3, 0.5], [2.0, -1e-17, 2.0], [0.0, 0.0, 1.0]])
        counts = ShotSampler(7).multinomial_rows([100, 40, 9], pvals)
        assert counts.sum(axis=1).tolist() == [100, 40, 9]
        assert counts[1, 1] == 0 and counts[2].tolist() == [0, 0, 9]

    @pytest.mark.parametrize("seed", [1.5, "x", -1, True, np.float64(2.0), [1]], ids=repr)
    def test_bad_seed_is_a_typed_error(self, seed):
        with pytest.raises(InputError, match="seed"):
            ShotSampler(seed)

    def test_numpy_and_none_seeds(self):
        assert ShotSampler(np.int64(3)).seed == 3
        assert ShotSampler(None).seed == 0
        draw = ShotSampler(np.uint32(3)).multinomial_rows([1000], [[0.4, 0.6]])
        assert draw.tolist() == ShotSampler(3).multinomial_rows([1000], [[0.4, 0.6]]).tolist()

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_repr_mentions_seed(self, seed):
        assert str(seed) in repr(ShotSampler(seed))


# Bad inputs the public readers reject, each with the error type and message
# they raised before plan-built laws skipped re-validation.  Cases with two
# faults pin which check runs first.
_OK, _BIG, _ZERO = Polynomial([0, 1]), Polynomial([0, 0, 1.5]), Polynomial([0, 0, 0.0])
_PAIR = (Polynomial.one(), Polynomial([0, 0.5]))
BAD_READS = {
    "joint-shape-q": lambda: joint_readout([0.5, 0.5], [0.1]),
    "joint-shape-2d": lambda: joint_readout([[0.5]], [[0.1]]),
    "joint-shape-coeffs": lambda: joint_readout([0.5], [0.1], coeffs=[1.0, 2.0]),
    "joint-not-a-number": lambda: joint_readout(["a"], [0.1]),
    "joint-stages-sum": lambda: joint_readout([0.5], [0.1], stages=[2]),
    "joint-stages-zero": lambda: joint_readout([0.5], [0.1], stages=[0, 1]),
    "joint-stages-float": lambda: joint_readout([0.5], [0.1], stages=[1.5]),
    "joint-stages-bool": lambda: joint_readout([0.5], [0.1], stages=[True]),
    "joint-zero-coeffs": lambda: joint_readout([0.5], [0.1], coeffs=[0.0]),
    "joint-zero-stage": lambda: joint_readout(
        [0.5, 0.5], [0.1, 0.1], coeffs=[1.0, 0.0], stages=[1, 1]
    ),
    "joint-shots-zero": lambda: joint_readout([0.5], [0.1], 0),
    "joint-shots-float": lambda: joint_readout([0.5], [0.1], 2.5),
    "joint-shots-bool": lambda: joint_readout([0.5], [0.1], True),
    "joint-shots-auto": lambda: joint_readout([0.5], [0.1], "auto"),
    "joint-shots-below-stages": lambda: joint_readout([0.5, 0.5], [0.1, 0.1], 1, stages=[1, 1]),
    "joint-sampled-nan-z": lambda: joint_readout([0.5], [math.nan], 10),
    "joint-sampled-inf-coeff": lambda: joint_readout([0.5], [0.1], 10, coeffs=[math.inf]),
    "joint-sampled-q-above-1": lambda: joint_readout([2.0], [0.1], 10),
    "joint-sampled-q-zero": lambda: joint_readout([0.5, 0.0], [0.1, 0.0], 10),
    "joint-sampled-q-nan": lambda: joint_readout([math.nan], [0.1], 10),
    "joint-zero-coeffs-before-shots": lambda: joint_readout([0.5], [0.1], 0, coeffs=[0.0]),
    "joint-shots-before-nan": lambda: joint_readout([0.5], [math.nan], 0),
    "layout-empty": lambda: layout_table([[]]),
    "layout-second-empty": lambda: layout_table([[_OK], []]),
    "runs-index-list": lambda: parallel_qsp_runs(_PAIR, [[1]], DensityMatrix.pure(2)),
    "runs-index-float": lambda: parallel_qsp_runs(_PAIR, np.array([[1.0]]), DensityMatrix.pure(2)),
    "runs-index-1d": lambda: parallel_qsp_runs(_PAIR, np.array([1]), DensityMatrix.pure(2)),
    "runs-index-negative": lambda: parallel_qsp_runs(
        _PAIR, np.array([[-1]]), DensityMatrix.pure(2)
    ),
    "runs-index-past-table": lambda: parallel_qsp_runs(
        _PAIR, np.array([[2]]), DensityMatrix.pure(2)
    ),
    "runs-over-norm": lambda: parallel_qsp_runs(
        *layout_table([[_OK], [_OK, _BIG]]), DensityMatrix.pure(2)
    ),
    "runs-over-norm-unused": lambda: parallel_qsp_runs(
        (Polynomial.one(), _BIG), np.zeros((1, 1), np.intp), DensityMatrix.pure(2)
    ),
    "runs-encode": lambda: parallel_qsp_runs(*layout_table([[_OK]]), DensityMatrix.pure(2), "x"),
    "runs-index-before-encode": lambda: parallel_qsp_runs(
        _PAIR, np.array([[5]]), DensityMatrix.pure(2), "x"
    ),
    "runs-qsp-complex": lambda: parallel_qsp_runs(
        *layout_table([[Polynomial([0, 0.5j])]]), DensityMatrix.pure(2), "qsp"
    ),
    "runs-qsp-mixed-parity": lambda: parallel_qsp_runs(
        *layout_table([[Polynomial([0.2, 0.5])]]), DensityMatrix.pure(2), "qsp"
    ),
    "runs-post-selection": lambda: parallel_qsp_runs(
        *layout_table([[_OK], [_OK, _ZERO]]), DensityMatrix.pure(2)
    ),
    "run-mode": lambda: parallel_qsp_run([_OK], DensityMatrix.pure(2), mode="x"),
    "run-mode-before-empty": lambda: parallel_qsp_run([], DensityMatrix.pure(2), mode="x"),
    "run-empty": lambda: parallel_qsp_run([], DensityMatrix.pure(2)),
    "run-over-norm": lambda: parallel_qsp_run([_OK, _BIG], DensityMatrix.pure(2)),
    "run-over-norm-before-shots": lambda: parallel_qsp_run([_BIG], DensityMatrix.pure(2), 0),
    "run-encode": lambda: parallel_qsp_run([_OK], DensityMatrix.pure(2), encode="x"),
    "run-post-selection": lambda: parallel_qsp_run([_ZERO], DensityMatrix.pure(2)),
    "run-shots-zero": lambda: parallel_qsp_run([_OK], DensityMatrix.pure(2), 0),
    "run-shots-float": lambda: parallel_qsp_run([_OK], DensityMatrix.pure(2), 2.5),
    "run-shots-auto": lambda: parallel_qsp_run([_OK], DensityMatrix.pure(2), "auto"),
    "run-circuit-cap": lambda: parallel_qsp_run([_OK] * 6, DensityMatrix.pure(4), mode="circuit"),
    "run-circuit-over-norm": lambda: parallel_qsp_run(
        [_BIG], DensityMatrix.pure(2), mode="circuit"
    ),
    "run-circuit-post-selection": lambda: parallel_qsp_run(
        [_ZERO], DensityMatrix.pure(2), mode="circuit"
    ),
    "run-circuit-encode": lambda: parallel_qsp_run(
        [_OK], DensityMatrix.pure(2), mode="circuit", encode="x"
    ),
    "run-circuit-shots": lambda: parallel_qsp_run(
        [_OK], DensityMatrix.pure(2), 0, mode="circuit"
    ),
    "run-circuit-qsp-mixed-parity": lambda: parallel_qsp_run(
        [Polynomial([0.2, 0.5])], DensityMatrix.pure(2), mode="circuit", encode="qsp"
    ),
}

BAD_READ_ERRORS = {
    'joint-not-a-number': ('ValueError', "could not convert string to float: 'a'"),
    'joint-sampled-inf-coeff': (
        'InputError',
        'a sampled read-out needs finite z values and coefficients',
    ),
    'joint-sampled-nan-z': (
        'InputError',
        'a sampled read-out needs finite z values and coefficients',
    ),
    'joint-sampled-q-above-1': (
        'InputError',
        'run 0 succeeds with probability 2.0, outside (0, 1]',
    ),
    'joint-sampled-q-nan': ('InputError', 'run 0 succeeds with probability nan, outside (0, 1]'),
    'joint-sampled-q-zero': ('InputError', 'run 1 succeeds with probability 0.0, outside (0, 1]'),
    'joint-shape-2d': (
        'InputError',
        'one q, z and coefficient per run is required, got shapes (1, 1), (1, 1) and (1, 1)',
    ),
    'joint-shape-coeffs': (
        'InputError',
        'one q, z and coefficient per run is required, got shapes (1,), (1,) and (2,)',
    ),
    'joint-shape-q': (
        'InputError',
        'one q, z and coefficient per run is required, got shapes (2,), (1,) and (1,)',
    ),
    'joint-shots-auto': ('InputError', "sampled mode needs an integer shot count, got 'auto'"),
    'joint-shots-before-nan': ('InputError', 'sampled shot budget 0 is below the stage count 1'),
    'joint-shots-below-stages': ('InputError', 'sampled shot budget 1 is below the stage count 2'),
    'joint-shots-bool': ('InputError', 'sampled mode needs an integer shot count, got True'),
    'joint-shots-float': ('InputError', 'sampled mode needs an integer shot count, got 2.5'),
    'joint-shots-zero': ('InputError', 'sampled shot budget 0 is below the stage count 1'),
    'joint-stages-bool': ('InputError', 'stage run count must be an integer >= 1, got True'),
    'joint-stages-float': ('InputError', 'stage run count must be an integer >= 1, got 1.5'),
    'joint-stages-sum': ('InputError', 'stage run counts [2] do not add up to the 1 runs'),
    'joint-stages-zero': ('InputError', 'stage run count must be an integer >= 1, got 0'),
    'joint-zero-coeffs': ('InputError', 'all-zero coefficients: nothing to sample'),
    'joint-zero-coeffs-before-shots': ('InputError', 'all-zero coefficients: nothing to sample'),
    'joint-zero-stage': ('InputError', 'all-zero coefficients: nothing to sample'),
    'layout-empty': ('InputError', 'layout 0 needs at least one factor polynomial'),
    'layout-second-empty': ('InputError', 'layout 1 needs at least one factor polynomial'),
    'run-circuit-cap': ('InputError', 'circuit mode caps D^k at 1024, got 4^6'),
    'run-circuit-encode': ('InputError', "unknown encode mode 'x'"),
    'run-circuit-over-norm': (
        'InputError',
        'apply rescale_factors: layout 0, factor 0 has sup norm above 1',
    ),
    'run-circuit-post-selection': (
        'PostSelectionError',
        'post-selection impossible: joint success probability ~0',
    ),
    'run-circuit-qsp-mixed-parity': (
        'InputError',
        'phase-based encoding needs real definite-parity factors; use the oracle encoding for '
        'complex or mixed-parity factors',
    ),
    'run-circuit-shots': ('InputError', 'sampled shot budget 0 is below the stage count 1'),
    'run-empty': ('InputError', 'layout 0 needs at least one factor polynomial'),
    'run-encode': ('InputError', "unknown encode mode 'x'"),
    'run-mode': ('InputError', "unknown mode 'x'; expected 'direct' or 'circuit'"),
    'run-mode-before-empty': ('InputError', "unknown mode 'x'; expected 'direct' or 'circuit'"),
    'run-over-norm': (
        'InputError',
        'apply rescale_factors: layout 0, factor 1 has sup norm above 1',
    ),
    'run-over-norm-before-shots': (
        'InputError',
        'apply rescale_factors: layout 0, factor 0 has sup norm above 1',
    ),
    'run-post-selection': (
        'PostSelectionError',
        'post-selection impossible: layout 0, thread 0 succeeds with probability 0.000e+00',
    ),
    'run-shots-auto': ('InputError', "sampled mode needs an integer shot count, got 'auto'"),
    'run-shots-float': ('InputError', 'sampled mode needs an integer shot count, got 2.5'),
    'run-shots-zero': ('InputError', 'sampled shot budget 0 is below the stage count 1'),
    'runs-encode': ('InputError', "unknown encode mode 'x'"),
    'runs-index-1d': ('InputError', 'index must be a 2-D integer array with entries in [0, 2)'),
    'runs-index-before-encode': (
        'InputError',
        'index must be a 2-D integer array with entries in [0, 2)',
    ),
    'runs-index-float': ('InputError', 'index must be a 2-D integer array with entries in [0, 2)'),
    'runs-index-list': ('InputError', 'index must be a 2-D integer array with entries in [0, 2)'),
    'runs-index-negative': (
        'InputError',
        'index must be a 2-D integer array with entries in [0, 2)',
    ),
    'runs-index-past-table': (
        'InputError',
        'index must be a 2-D integer array with entries in [0, 2)',
    ),
    'runs-over-norm': (
        'InputError',
        'apply rescale_factors: layout 1, factor 1 has sup norm above 1',
    ),
    'runs-over-norm-unused': (
        'InputError',
        'apply rescale_factors: table row 1 has sup norm above 1',
    ),
    'runs-post-selection': (
        'PostSelectionError',
        'post-selection impossible: layout 1, thread 1 succeeds with probability 0.000e+00',
    ),
    'runs-qsp-complex': (
        'InputError',
        'phase-based encoding needs real definite-parity factors; use the oracle encoding for '
        'complex or mixed-parity factors',
    ),
    'runs-qsp-mixed-parity': (
        'InputError',
        'phase-based encoding needs real definite-parity factors; use the oracle encoding for '
        'complex or mixed-parity factors',
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_READS))
def test_public_readers_reject_as_before(name):
    with pytest.raises(Exception) as caught:
        BAD_READS[name]()
    assert (type(caught.value).__name__, str(caught.value)) == BAD_READ_ERRORS[name]


def test_one_shot_pooled_stage_reports_the_variance_bound():
    # one shot has no sample variance; its stage takes the bound 1, as a
    # stratified run of one main shot does, not a standard error of 0
    est = joint_readout([1.0], [0.2], shots=1, sampler=ShotSampler(0))
    assert (est.value, est.std_error, est.shots_used) == (1.0, 1.0, 1)


def test_phase_route_grids_a_fresh_factor_once(monkeypatch):
    # the check's grid interval is kept on a fresh factor, so find_phases'
    # own verdict reads it instead of a second grid; phases are solved anew
    # on every run
    counts = {"grid": 0, "solve": 0}
    grid, solve = poly._grid, qsp.least_squares

    def counted_grid(cs, real):
        counts["grid"] += 1
        return grid(cs, real)

    def counted_solve(target):
        counts["solve"] += 1
        return solve(target)

    monkeypatch.setattr(poly, "_grid", counted_grid)
    monkeypatch.setattr(qsp, "least_squares", counted_solve)
    c = np.zeros(12)
    c[1::2] = np.random.default_rng(1).normal(size=6) / np.arange(1, 7)
    fresh = Polynomial.from_cheb(c * 0.9 / np.abs(c).sum())  # degree 11, odd
    rho = DensityMatrix.random_seeded(4, 2)
    first = parallel_qsp_run([fresh], rho, encode="qsp")
    assert counts == {"grid": 1, "solve": 1}
    assert parallel_qsp_run([fresh], rho, encode="qsp") == first
    assert counts == {"grid": 1, "solve": 2}
