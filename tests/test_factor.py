import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqsp import (
    FactorizationPlan,
    InputError,
    NotNonNegativeError,
    Polynomial,
    chebyshev_parallel_terms,
    chebyshev_polynomial,
    factorization_constant,
    factorize_nonneg,
    find_roots,
    rescale_factors,
    split_constituents,
    sup_norm,
    term_factor_polynomials,
    verify_factorization,
)
from conftest import random_nonneg


class TestFindRoots:
    def test_conjugate_pair(self):
        rs = find_roots(Polynomial([1, 0, 1]))
        got = sorted((r for r, _ in rs.roots), key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-8)
        assert got[1] == pytest.approx(1j, abs=1e-8)
        assert all(m == 1 for _, m in rs.roots)
        assert rs.leading_coeff == pytest.approx(1.0, abs=1e-12)

    def test_double_real_root_clusters(self):
        rs = find_roots(Polynomial([0.25, -1, 1]))  # (x - 0.5)^2
        assert len(rs.roots) == 1
        root, mult = rs.roots[0]
        assert mult == 2
        assert root == pytest.approx(0.5, abs=1e-6)
        assert rs.total_multiplicity == 2

    def test_reassembly_residual(self):
        rng = np.random.default_rng(5)
        p = Polynomial(rng.normal(size=9))
        rs = find_roots(p)
        assert rs.total_multiplicity == p.degree
        xs = np.linspace(-1, 1, 101)
        scale = max(abs(c) for c in p.coeffs)
        assert np.max(np.abs(rs(xs) - p(xs))) <= 1e-8 * scale


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

    def test_negative_source_rejected(self):
        with pytest.raises(NotNonNegativeError):
            factorize_nonneg(Polynomial([-1, 0, -1]), 1)

    def test_k_beyond_degree_rejected(self):
        with pytest.raises(InputError):
            factorize_nonneg(Polynomial([0, 0, 1]), 3)

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

    def test_factorization_constant_is_norm_product(self):
        rng = np.random.default_rng(22)
        source = random_nonneg(rng, 5)
        plan = factorize_nonneg(source, 2)
        assert factorization_constant(plan) == pytest.approx(
            float(np.prod([sup_norm(f) for f in plan.factors])), rel=1e-9
        )

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
        assert again.factors == plan.factors
        assert again.stored_constant == plan.stored_constant


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
        assert len(terms.terms) <= bound

    def test_factor_lists_pad_to_k(self):
        terms = chebyshev_parallel_terms(chebyshev_polynomial(6), 2, 8)
        for term in terms.terms:
            factors = term_factor_polynomials(term, 2)
            assert len(factors) == 2
            assert all(sup_norm(f) <= 1 + 1e-9 for f in factors)

    def test_one_norm_matches_terms(self):
        terms = chebyshev_parallel_terms(chebyshev_polynomial(6), 2, 8)
        assert terms.one_norm == pytest.approx(
            sum(abs(t.coeff) for t in terms.terms), rel=1e-12
        )

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InputError):
            chebyshev_parallel_terms(chebyshev_polynomial(6), 2, 7)
