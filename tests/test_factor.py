import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqsp import factor
from pqsp import (
    ConvergenceError,
    FactorizationPlan,
    InputError,
    NotNonNegativeError,
    Polynomial,
    chebyshev_parallel_terms,
    chebyshev_polynomial,
    factorize_nonneg,
    find_roots,
    rescale_factors,
    split_constituents,
    sup_norm,
    term_layout,
    verify_factorization,
)
from conftest import random_nonneg


class TestFindRoots:
    def test_conjugate_pair(self):
        roots = find_roots(Polynomial([1, 0, 1]))
        got = sorted((r for r, _ in roots), key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-8)
        assert got[1] == pytest.approx(1j, abs=1e-8)
        assert all(m == 1 for _, m in roots)

    def test_double_real_root_clusters(self):
        roots = find_roots(Polynomial([0.25, -1, 1]))  # (x - 0.5)^2
        assert len(roots) == 1
        root, mult = roots[0]
        assert mult == 2
        assert root == pytest.approx(0.5, abs=1e-6)

    def test_double_real_roots_stay_real(self):
        # 0.9 T_6's high part at k = 2 is 1.8 (4x^2 - 3)^2; the eigensolver
        # returns each double root a round-off distance off the real line
        _, high = split_constituents(0.9 * chebyshev_polynomial(6), 2)
        roots = find_roots(high)
        assert [m for _, m in roots] == [2, 2]
        assert all(abs(r.imag) <= 1e-12 for r, _ in roots)
        got = sorted(r.real for r, _ in roots)
        assert got == pytest.approx([-math.sqrt(3) / 2, math.sqrt(3) / 2], abs=1e-12)

    def test_reassembly_residual(self):
        rng = np.random.default_rng(5)
        p = Polynomial(rng.normal(size=9))
        roots = find_roots(p)
        assert sum(m for _, m in roots) == p.degree
        xs = np.linspace(-1, 1, 101)
        rebuilt = p.coeffs[-1] * np.prod([(xs - r) ** m for r, m in roots], axis=0)
        scale = max(abs(c) for c in p.coeffs)
        assert np.max(np.abs(rebuilt - p(xs))) <= 1e-8 * scale


def reference_clusters(raw, tol):
    """Greedy clustering that recomputes each cluster's mean from its members."""
    clusters = []
    for z in raw[np.lexsort((raw.imag, raw.real))]:
        for members in clusters:
            if abs(z - sum(members) / len(members)) <= tol:
                members.append(complex(z))
                break
        else:
            clusters.append([complex(z)])
    return [(sum(ms) / len(ms), len(ms)) for ms in clusters]


def np_roots_route(p):
    """find_roots through np.roots, the reference clustering and a per-root
    residual check, under which an exact zero root of a source with c_0 = 0
    is exact."""
    mono = p.coeffs
    raw = np.roots(np.array(mono[::-1], dtype=complex))
    roots = tuple((factor._newton_polish(mono, z, m), m) for z, m in reference_clusters(raw, 1e-7))
    for z, _ in roots:
        if z == 0 and mono[0] == 0:
            continue
        if abs(p(z)) / max(sum(abs(c) * abs(z) ** i for i, c in enumerate(mono)), 1e-300) > 1e-10:
            return ConvergenceError
    return roots


def zero_root_sources(seed, count):
    """Seeded random sources whose lowest 0-2 monomial coefficients are exactly 0."""
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(count):
        c = rng.normal(size=int(rng.integers(2, 11)))
        c[-1] += math.copysign(1.0, c[-1])  # |lead| >= 1 keeps the roots near the unit disk
        c[: rng.integers(0, min(3, len(c)))] = 0.0  # exact zero roots
        sources.append(Polynomial(c))
    return sources


class TestLeanRoots:
    def test_same_roots_as_np_roots_route(self):
        _, high = split_constituents(0.9 * chebyshev_polynomial(6), 2)  # two double roots
        sources = [high, Polynomial([0, 0, 0.5, -1, 1]), Polynomial([0, 0, 2])]
        sources += zero_root_sources(31, 497)
        stalled = 0
        for p in sources:
            want = np_roots_route(p)
            if want is ConvergenceError:
                stalled += 1
                with pytest.raises(ConvergenceError, match="root polishing stalled"):
                    find_roots(p)
            else:
                assert find_roots(p) == want
        assert stalled < 50  # the routes also agree on which sources stall
        assert find_roots(Polynomial([0, 0, 2])) == ((0j, 2),)  # an exact double zero

    def test_zero_root_is_exact(self):
        # p(0) from the Chebyshev series is round-off, not 0, against a scale of 0
        roots = find_roots(Polynomial([0, 0, 0.3134, 0.1016, -1.464]))
        assert (0j, 2) in roots
        assert sum(m for _, m in roots) == 4

    def test_zero_root_family_solves(self):
        # 42 of these 333 sources raised ConvergenceError when p(0)'s round-off
        # was judged against the zero scale sum_i |c_i| 0^i = c_0
        family = [p for p in zero_root_sources(31, 497) if p.coeffs[0] == 0]
        assert len(family) == 333
        for p in family:
            roots = find_roots(p)
            assert (0j, int(np.flatnonzero(p.coeffs)[0])) in roots
            assert sum(m for _, m in roots) == p.degree

    def test_clusters_match_reference(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            base = rng.normal(size=5) + 1j * rng.normal(size=5) * (rng.random(5) < 0.6)
            raw = np.repeat(base, rng.integers(1, 4, size=5))
            raw = raw + rng.normal(size=raw.size) * 10.0 ** rng.uniform(-12, -6, raw.size)
            got, want = factor._cluster_roots(raw, 1e-7), reference_clusters(raw, 1e-7)
            assert [(repr(z), m) for z, m in got] == [(repr(z), m) for z, m in want]

    def test_one_eigvals_call_per_slope_size(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        for seed, half, k in [(8, 6, 3), (9, 7, 3), (10, 8, 2), (11, 5, 4)]:
            source = random_nonneg(np.random.default_rng(seed), half)
            calls.clear()
            plan = factorize_nonneg(source, k)
            # each factor's slope is (|R_j|^2)', of degree 2 deg(R_j) - 1
            sizes = {2 * f.degree - 1 for f in plan.factors if f.degree > 1}
            assert len(calls) == 1 + len(sizes), (seed, calls)


class TestFactorizeNonneg:
    def test_square_single_thread(self):
        plan = factorize_nonneg(Polynomial([0, 0, 1]), 1)
        assert len(plan.factors) == 1
        assert np.allclose(plan.factors[0].coeffs, (0, 1))

    def test_monomial_padding(self):
        # x^2 with two threads leaves one factor constant
        plan = factorize_nonneg(Polynomial([0, 0, 1]), 2)
        degs = sorted(f.degree for f in plan.factors)
        assert degs == [0, 1]
        assert verify_factorization(plan, Polynomial([0, 0, 1])) <= 1e-9

    def test_conjugate_square(self):
        source = Polynomial([1, 0, 1]) * Polynomial([1, 0, 1])  # (x^2+1)^2
        plan = factorize_nonneg(source, 2)
        assert all(f.degree == 1 for f in plan.factors)
        assert verify_factorization(plan, source) <= 1e-8
        assert plan.factorization_constant == pytest.approx(2.0, rel=1e-6)

    def test_odd_degree_rejected(self):
        with pytest.raises(NotNonNegativeError, match="even degree"):
            factorize_nonneg(Polynomial([0, 1]), 1)

    @pytest.mark.parametrize("coeffs", [[-1 + 0.5j, 0, 1], [1, 0, 1j], [1 + 1j, 0, 1]])
    def test_complex_source_named_before_sign(self, coeffs):
        with pytest.raises(InputError, match="real coefficients") as err:
            factorize_nonneg(Polynomial(coeffs), 2)
        assert not isinstance(err.value, NotNonNegativeError)

    def test_negative_source_rejected(self):
        with pytest.raises(NotNonNegativeError):
            factorize_nonneg(Polynomial([-1, 0, -1]), 1)

    def test_k_beyond_degree_pads_with_constants(self):
        # one half-root for three threads: the trailing factors are constants
        plan = factorize_nonneg(Polynomial([0, 0, 1]), 3)
        assert [f.degree for f in plan.factors] == [1, 0, 0]
        assert verify_factorization(plan, Polynomial([0, 0, 1])) <= 1e-12

    def test_verdict_precedes_thread_count_check(self):
        # 0.5 - 0.25x^2 is positive on [-1, 1] but has a negative leading
        # coefficient; the verdict must not hide behind k > degree
        with pytest.raises(NotNonNegativeError, match="leading coefficient"):
            factorize_nonneg(Polynomial([0.5, 0, -0.25]), 4)

    def test_round_robin_deterministic(self):
        rng = np.random.default_rng(12)
        source = random_nonneg(rng, 5)
        a = factorize_nonneg(source, 2)
        b = factorize_nonneg(source, 2)
        assert a.factors == b.factors

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_degree_cap(self, seed, k):
        rng = np.random.default_rng(seed)
        half = rng.integers(k, 11)
        source = random_nonneg(rng, int(half))
        d = source.degree
        plan = factorize_nonneg(source, k)
        cap = math.ceil(d / (2 * k))
        assert all(f.degree <= cap for f in plan.factors)
        assert verify_factorization(plan, source) <= 1e-6


class TestRescale:
    def test_unit_norms_and_stored_constant(self):
        rng = np.random.default_rng(21)
        source = random_nonneg(rng, 4)
        plan = factorize_nonneg(source, 2)
        scaled = rescale_factors(plan)
        assert all(abs(n - 1.0) <= 1e-9 for n in scaled.factor_norms)
        assert scaled.stored_constant == pytest.approx(
            plan.factorization_constant, rel=1e-9
        )
        assert verify_factorization(scaled, source) <= 1e-6

    def test_doubling_bookkeeping(self):
        rng = np.random.default_rng(23)
        source = random_nonneg(rng, 4)
        plan = rescale_factors(factorize_nonneg(source, 2))
        doubled = FactorizationPlan(
            factors=tuple(f * 2.0 for f in plan.factors),
            factor_norms=tuple(2.0 * n for n in plan.factor_norms),
            factorization_constant=4.0 * plan.factorization_constant,
            k=plan.k,
            source_degree=plan.source_degree,
            stored_constant=plan.stored_constant / 4.0,
        )
        assert verify_factorization(doubled, source) <= 1e-6
        renorm = rescale_factors(doubled)
        assert renorm.factors == plan.factors
        assert renorm.stored_constant == pytest.approx(plan.stored_constant, rel=1e-12)

    def test_plan_round_trip(self):
        rng = np.random.default_rng(24)
        plan = rescale_factors(factorize_nonneg(random_nonneg(rng, 3), 2))
        again = FactorizationPlan.from_dict(plan.to_dict())
        # the JSON holds monomials: that view round-trips exactly, the series to round-off
        assert [f.coeffs for f in again.factors] == [f.coeffs for f in plan.factors]
        for a, b in zip(again.factors, plan.factors):
            assert np.allclose(a.cheb, b.cheb, rtol=0, atol=1e-15)
        assert again.stored_constant == plan.stored_constant

    @pytest.mark.parametrize("field", ["norms", "K"])
    def test_loaded_constants_must_match_factors(self, field):
        rng = np.random.default_rng(24)
        obj = rescale_factors(factorize_nonneg(random_nonneg(rng, 3), 2)).to_dict()
        obj[field] = [10.0, 1.0] if field == "norms" else 10.0
        with pytest.raises(InputError, match=field):
            FactorizationPlan.from_dict(obj)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_loaded_k_must_match_factor_count(self, k):
        rng = np.random.default_rng(24)
        obj = rescale_factors(factorize_nonneg(random_nonneg(rng, 3), 2)).to_dict()
        obj["k"] = k
        with pytest.raises(InputError, match=f"plan k {k} needs k >= 1 factors, got 2"):
            FactorizationPlan.from_dict(obj)

    @pytest.mark.parametrize("k", [0, 2])
    def test_loaded_plan_needs_factors(self, k):
        obj = {"k": k, "source_degree": 0, "factors": [], "norms": [], "K": 1.0}
        with pytest.raises(InputError, match="got 0"):
            FactorizationPlan.from_dict(obj)


def _even_tail(rng, half_degree):
    """Random even polynomial playing the role of a high-part tail."""
    p = random_nonneg(rng, half_degree)
    coeffs = [c if i % 2 == 0 else 0.0 for i, c in enumerate(p.coeffs)]
    tail = Polynomial(coeffs)
    if tail.degree % 2:  # top coefficient was odd-index and got zeroed
        tail = Polynomial(coeffs[: tail.degree])
    return tail


class TestChebyshevTerms:
    def test_t6_worked_instance(self):
        # T_6 as the tail of a degree-8 source over two threads
        terms = chebyshev_parallel_terms(chebyshev_polynomial(6), 2, 8)
        assert terms.ctilde[6] == pytest.approx(2.0, abs=1e-12)
        assert terms.ctilde[2] == pytest.approx(-1.0, abs=1e-12)
        xs = np.linspace(-1, 1, 101)
        assert np.max(np.abs(terms(xs) - chebyshev_polynomial(6)(xs))) <= 1e-12

    def test_single_t2k_passthrough(self):
        for k in (1, 2, 3):
            terms = chebyshev_parallel_terms(
                chebyshev_polynomial(2 * k), k, 3 * k
            )
            assert terms.ctilde == {2 * k: pytest.approx(1.0, abs=1e-12)}

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(31)
        xs = np.linspace(-1, 1, 200)
        for k in (2, 3, 4):
            tail = _even_tail(rng, 6)
            terms = chebyshev_parallel_terms(tail, k, tail.degree + k)
            assert np.max(np.abs(terms(xs) - tail(xs))) <= 1e-9

    def test_term_count_bound(self):
        rng = np.random.default_rng(32)
        k = 3
        tail = _even_tail(rng, 14)
        terms = chebyshev_parallel_terms(tail, k, tail.degree + k)
        a_max = tail.degree // (2 * k)
        bound = (a_max + 1) * k * 2 * (k + 1)
        assert len(terms.coeff) <= bound

    def test_factor_lists_pad_to_k(self):
        terms = chebyshev_parallel_terms(chebyshev_polynomial(6), 2, 8)
        table, index = term_layout(terms, 2)
        assert index.shape == (len(terms.coeff), 2)
        assert np.all(index > 0)  # row 0 pads short runs, and these runs are all k long
        assert sorted(set(index.ravel().tolist())) == list(range(1, len(table)))
        assert all(sup_norm(f) <= 1 + 1e-9 for f in table)

    def test_layout_factors_multiply_to_the_term(self):
        xs = np.linspace(-1, 1, 41)
        for k in (1, 2, 3, 4, 5):
            tail = split_constituents(chebyshev_polynomial(7 * k + 2), k)[1]
            terms = chebyshev_parallel_terms(tail, k, 7 * k + 2)
            table, index = term_layout(terms, k)
            for row, a, b, j, l in zip(index, terms.a, terms.b, terms.j, terms.l):
                got = np.prod([np.abs(table[r](xs)) ** 2 for r in row], axis=0)
                ta, tb = chebyshev_polynomial(a)(xs), chebyshev_polynomial(b)(xs)
                assert np.max(np.abs(got - ta ** (2 * j) * tb ** (2 * l))) <= 1e-12

    def test_repeated_terms_share_factor_instances(self):
        terms = chebyshev_parallel_terms(chebyshev_polynomial(10), 2, 12)
        first, again = term_layout(terms, 2), term_layout(terms, 2)
        assert all(x is y for x, y in zip(first[0], again[0]))
        assert np.array_equal(first[1], again[1])

    def test_term_coefficients_cached_per_thread_count(self):
        # T_6 = 32x^6 - 48x^4 + 18x^2 - 1
        assert factor._t2k_row(3) == (-1.0, 18.0, -48.0, 32.0)
        assert factor._t2k_row(3) is factor._t2k_row(3)

    def test_one_norm_matches_terms(self):
        terms = chebyshev_parallel_terms(chebyshev_polynomial(6), 2, 8)
        assert terms.one_norm == pytest.approx(np.abs(terms.coeff).sum(), rel=1e-12)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InputError):
            chebyshev_parallel_terms(chebyshev_polynomial(6), 2, 7)
