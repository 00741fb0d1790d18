import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import dense_sup_norm
from pqsp import poly
from pqsp import (
    InputError,
    Parity,
    Polynomial,
    chebyshev_coeff_1norm,
    chebyshev_coeff_bound,
    chebyshev_coefficient,
    chebyshev_polynomial,
    constituent_norm_bounds,
    factorize_nonneg,
    parity_split,
    split_constituents,
    sup_norm,
)

coeff_lists = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=12
)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_zero_polynomial_degree(self):
        p = Polynomial([0.0])
        assert p.degree == 0
        assert p.is_zero()
        assert Polynomial([]).is_zero()

    def test_parity_tags(self):
        assert Polynomial([1, 0, 3]).parity is Parity.EVEN
        assert Polynomial([0, 1, 0, 2]).parity is Parity.ODD
        assert Polynomial([1, 1]).parity is Parity.INDEFINITE

    def test_immutable(self):
        p = Polynomial([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_horner_matches_numpy(self):
        p = Polynomial([1, -2, 0.5, 3])
        xs = np.linspace(-1, 1, 17)
        want = np.polynomial.polynomial.polyval(xs, np.array([1, -2, 0.5, 3.0]))
        assert np.allclose(p(xs), want, atol=1e-12)

    def test_arithmetic(self):
        a, b = Polynomial([1, 1]), Polynomial([0, 2])
        assert (a + b).coeffs == (1, 3)
        assert (a * b).coeffs == (0, 2, 2)
        assert (a - a).is_zero()

    def test_nonzero_scalar_multiple_keeps_degree(self):
        # |q|^2 for 18 random upper-half-plane roots: degree 36 with a top
        # Chebyshev coefficient of 2.9e-11, below TRIM_TOL once divided by the norm
        rng = np.random.default_rng(7)
        z = rng.uniform(-1.2, 1.2, 18) + 1j * rng.uniform(0.15, 1, 18)
        q = Polynomial.from_roots(z)
        q_bar = Polynomial.from_cheb([c.conjugate() for c in q.cheb])
        p = Polynomial.from_cheb([c.real for c in (q * q_bar).cheb])
        assert p.degree == 36
        norm = sup_norm(p)
        for scaled in (p * (1 / norm), (1 / norm) * p, p / norm):
            assert scaled.degree == 36
            assert len(factorize_nonneg(scaled, 2).factors) == 2
        assert (p * 0).is_zero() and (p * 0).degree == 0

    def test_product_keeps_degree(self):
        # |q|^2 of a sup-normalized q: the product's top Chebyshev coefficient
        # falls below TRIM_TOL on most seeds, and only exact zeros are trimmed
        for seed in range(80):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(16, 21))
            q = Polynomial.from_roots(rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(0.15, 1, n))
            q = q / sup_norm(q)
            q_bar = Polynomial.from_cheb([c.conjugate() for c in q.cheb])
            assert q_bar.degree == n
            assert (q * q_bar).degree == 2 * n, seed

    def test_monomial_and_from_roots(self):
        assert Polynomial.monomial(3).coeffs == (0, 0, 0, 1)
        p = Polynomial.from_roots([1j, -1j])
        assert np.allclose(p.coeffs, (1, 0, 1))

    @given(coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_dict_round_trip(self, cs):
        p = Polynomial(cs)
        assert Polynomial.from_dict(p.to_dict()) == p

    def test_polynomial_from_dict_chebyshev_basis(self):
        obj = {"basis": "chebyshev", "coeffs": [[0, 0], [0, 0], [1, 0]]}
        assert Polynomial.from_dict(obj) == Polynomial([-1, 0, 2])
        assert Polynomial.from_dict(obj).to_dict() == {
            "basis": "monomial", "coeffs": [[-1.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
        }

    def test_unknown_basis_rejected(self):
        with pytest.raises(InputError):
            Polynomial.from_dict({"basis": "legendre", "coeffs": [[1, 0]]})

    def test_chebyshev_constructor(self):
        p = Polynomial.from_cheb([0.5, 0.25, 0, 0])
        assert p.cheb == (0.5, 0.25) and p.degree == 1
        assert p == Polynomial([0.5, 0.25])
        assert (p * p).cheb == pytest.approx((0.28125, 0.25, 0.03125))


class TestSupNorm:
    def test_chebyshev_is_one(self):
        for d in (1, 4, 9):
            assert sup_norm(chebyshev_polynomial(d)) == pytest.approx(1.0, abs=1e-9)

    def test_interior_maximum(self):
        # 1 - x^2 peaks at 0, not at the grid-friendly endpoints
        assert sup_norm(Polynomial([1, 0, -1])) == pytest.approx(1.0, abs=1e-9)

    def test_complex_coefficients(self):
        # |x - i| = sqrt(x^2 + 1), largest at the ends
        assert sup_norm(Polynomial([-1j, 1])) == pytest.approx(math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 121, 200])
    def test_chebyshev_series_t_n(self, n):
        # a fresh T_n: the shared chebyshev_polynomial(n) has its norm set to 1
        assert sup_norm(Polynomial.from_cheb([0] * n + [1])) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 10, 40])
    def test_flat_maximum(self, m):
        # (1 - x^2)^m / 2: one maximum at 0, flatter as m grows
        p = Polynomial([1, 0, -1])
        for _ in range(m - 1):
            p = p * Polynomial([1, 0, -1])
        p = p * 0.5
        assert sup_norm(p) == pytest.approx(dense_sup_norm(p.cheb), rel=1e-12)
        assert sup_norm(p) == pytest.approx(0.5, rel=1e-9)  # products round off

    def test_one_batch_of_mixed_sizes(self):
        # degrees 0-40, real and complex, in one kernel call: each norm matches
        # the dense reference and, bit for bit, the series normed alone
        rng = np.random.default_rng(17)
        series = []
        for d in range(41):
            decay = 1.0 + np.arange(d + 1)
            c = rng.normal(size=d + 1) / decay
            series += [tuple(c + 0j), tuple(c + 1j * rng.normal(size=d + 1) / decay)]
        norms = poly._colleague_norms(series)
        for c, norm in zip(series, norms):
            assert norm == pytest.approx(dense_sup_norm(c), rel=1e-12)
            assert norm == poly._colleague_norms([c])[0]

    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_random_series_match_dense_reference(self, complex_coeffs):
        rng = np.random.default_rng(11)
        for d in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200]:
            c = rng.normal(size=d + 1) / (1.0 + np.arange(d + 1))
            if complex_coeffs:
                c = c + 1j * rng.normal(size=d + 1) / (1.0 + np.arange(d + 1))
            p = Polynomial.from_cheb(c)
            assert sup_norm(p) == pytest.approx(dense_sup_norm(c), rel=1e-9), d


class TestNormMemo:
    @pytest.fixture
    def scans(self, monkeypatch):
        seen = []
        kernel = poly._colleague_norms

        def counting(series):
            seen.extend(tuple(c) for c in series)
            return kernel(series)

        monkeypatch.setattr(poly, "_colleague_norms", counting)
        return seen

    def test_unit_interval_scanned_once(self, scans):
        p = Polynomial([0.1, -0.7, 0.2])
        first = sup_norm(p)
        assert [sup_norm(p) for _ in range(3)] == [first] * 3
        assert scans == [p.cheb]

    def test_scalar_multiples_carry_the_norm(self, scans):
        p = Polynomial([0.1, -0.7, 0.2])
        first = sup_norm(p)
        assert sup_norm(p * -2.0) == 2.0 * first
        assert sup_norm(p / first) == 1.0
        assert scans == [p.cheb]

    def test_slot_not_settable_from_outside(self):
        p = Polynomial([0, 1])
        with pytest.raises(AttributeError):
            p._norm = 0.5
        sup_norm(p)
        with pytest.raises(AttributeError):
            p._norm = 0.5
        assert sup_norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_memoized_norm_leaves_equality_and_hash(self):
        p = Polynomial([0.3, 0, -0.6])
        sup_norm(p)
        fresh = Polynomial([0.3, 0, -0.6])
        assert p == fresh and hash(p) == hash(fresh)
        assert {p: 1}[fresh] == 1

    def test_builders_share_instances(self):
        assert chebyshev_polynomial(7) is chebyshev_polynomial(7)
        assert Polynomial.one() is Polynomial.one()
        assert Polynomial.one() == Polynomial([1.0])


@given(coeff_lists)
@settings(max_examples=50, deadline=None)
def test_chebyshev_round_trip(cs):
    p = Polynomial(cs)
    back = Polynomial.from_cheb(p.cheb)
    scale = max(1.0, max(abs(c) for c in p.coeffs))
    assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(back.coeffs, p.coeffs))


def test_monomial_conversion_matches_numpy_exactly():
    rng = np.random.default_rng(35)
    for trial in range(400):
        n = int(rng.integers(1, 62))
        cs = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, size=n)
        if trial % 2:
            cs = cs + 1j * rng.normal(size=n)
        cs[rng.random(n) < 0.3] = 0.0
        p = Polynomial(cs)
        want = tuple(complex(c) for c in np.polynomial.chebyshev.poly2cheb(p.coeffs))
        assert p.cheb == want
    # halving a subnormal top coefficient underflows to exact zeros, which
    # numpy trims; Polynomial's own 1e-12 trim never lets such inputs through
    for mono in ((0j, 0j, 5e-324), (1 + 0j, 0j, 0j, 5e-324j), (0j,)):
        want = tuple(complex(c) for c in np.polynomial.chebyshev.poly2cheb(mono))
        assert poly._poly2cheb(mono) == want


def test_chebyshev_polynomial_values():
    T6 = chebyshev_polynomial(6)
    assert complex(T6(0.75)).real == pytest.approx(-0.3671875, abs=1e-12)
    assert complex(T6(0.25)).real == pytest.approx(-0.0546875, abs=1e-12)
    assert T6.cheb == (0,) * 6 + (1,)
    assert T6.coeffs == (-1, 0, 18, 0, -48, 0, 32)


class TestSplits:
    def test_t6_constituents(self):
        low, high = split_constituents(chebyshev_polynomial(6), 2)
        assert np.allclose(low.coeffs, (-1,))
        assert np.allclose(high.coeffs, (18, 0, -48, 0, 32))

    @given(coeff_lists, st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_reassembly(self, cs, k):
        p = Polynomial(cs)
        assume(k <= p.degree)
        low, high = split_constituents(p, k)
        xs = np.linspace(-1, 1, 23)
        assert np.allclose(low(xs) + xs ** k * high(xs), p(xs), atol=1e-9)
        assert low.degree < k or low.is_zero()

    @given(coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_parity_split_recombines(self, cs):
        p = Polynomial(cs)
        even, odd = parity_split(p)
        assert even.parity in (Parity.EVEN,)
        assert odd.is_zero() or odd.parity is Parity.ODD
        xs = np.linspace(-1, 1, 11)
        assert np.allclose(even(xs) + odd(xs), p(xs), atol=1e-12)


class TestChebyshevCoefficients:
    def test_t4_coefficients(self):
        assert chebyshev_coefficient(4, 0) == 1
        assert chebyshev_coefficient(4, 2) == -8
        assert chebyshev_coefficient(4, 4) == 8

    def test_t2_row(self):
        assert chebyshev_coefficient(2, 0) == -1
        assert chebyshev_coefficient(2, 2) == 2

    def test_parity_mismatch_strict(self):
        with pytest.raises(InputError):
            chebyshev_coefficient(4, 1)

    def test_matches_numpy_expansion(self):
        for d in range(1, 13):
            dense = np.polynomial.chebyshev.cheb2poly([0] * d + [1])
            for n in range(d % 2, d + 1, 2):
                assert chebyshev_coefficient(d, n) == pytest.approx(dense[n], abs=1e-6)

    def test_bound_certificate(self):
        # |t_{d,n}| <= (d+n)^n / n!
        for d in range(1, 31):
            for n in range(d % 2, d + 1, 2):
                val = abs(chebyshev_coefficient(d, n))
                assert val <= chebyshev_coeff_bound(d, n) * (1 + 1e-12)

    def test_one_norm_small_cases(self):
        assert chebyshev_coeff_1norm(1) == pytest.approx(3.0, rel=1e-12)
        # T_4: |1| + |-8| + |8| = 17
        assert chebyshev_coeff_1norm(2) == pytest.approx(17.0, rel=1e-12)


def test_constituent_norm_bounds_monotone_and_positive():
    low10, high10 = constituent_norm_bounds(10, 2)
    assert low10 > 0 and high10 > 0
    # the low certificate covers any degree-(k-1) tail of a bounded polynomial
    low_small, _ = constituent_norm_bounds(10, 1)
    assert low_small <= low10
