import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pqsp import poly
from pqsp import (
    ChebyshevSeries,
    InputError,
    Parity,
    Polynomial,
    chebyshev_coeff_1norm,
    chebyshev_coeff_bound,
    chebyshev_coefficient,
    chebyshev_polynomial,
    constituent_norm_bounds,
    from_chebyshev,
    parity_split,
    polynomial_from_dict,
    split_constituents,
    sup_norm,
    to_chebyshev,
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
        assert polynomial_from_dict(obj) == Polynomial([-1, 0, 2])

    def test_unknown_basis_rejected(self):
        with pytest.raises(InputError):
            polynomial_from_dict({"basis": "legendre", "coeffs": [[1, 0]]})


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

    def test_subinterval(self):
        assert sup_norm(Polynomial([0, 1]), 0.2, 0.5) == pytest.approx(0.5, abs=1e-9)


class TestNormMemo:
    @pytest.fixture
    def scans(self, monkeypatch):
        seen = []
        scan = poly._scan_sup_norm

        def counting(p, a, b):
            seen.append((p, a, b))
            return scan(p, a, b)

        monkeypatch.setattr(poly, "_scan_sup_norm", counting)
        return seen

    def test_unit_interval_scanned_once(self, scans):
        p = Polynomial([0.1, -0.7, 0.2])
        first = sup_norm(p)
        assert [sup_norm(p) for _ in range(3)] == [first] * 3
        assert scans == [(p, -1.0, 1.0)]

    def test_other_interval_scans_every_time(self, scans):
        p = Polynomial([0, 1])
        sup_norm(p, 0.2, 0.5)
        sup_norm(p, 0.2, 0.5)
        assert len(scans) == 2

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

    def test_subinterval_does_not_fill_the_memo(self):
        p = Polynomial([0, 1])
        assert sup_norm(p, 0.0, 0.5) == pytest.approx(0.5, abs=1e-9)
        assert sup_norm(p) == pytest.approx(1.0, abs=1e-9)

    def test_builders_share_instances(self):
        assert chebyshev_polynomial(7) is chebyshev_polynomial(7)
        assert Polynomial.one() is Polynomial.one()
        assert Polynomial.one() == Polynomial([1.0])


@given(coeff_lists)
@settings(max_examples=50, deadline=None)
def test_chebyshev_round_trip(cs):
    p = Polynomial(cs)
    back = from_chebyshev(to_chebyshev(p))
    scale = max(1.0, max(abs(c) for c in p.coeffs))
    assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(back.coeffs, p.coeffs))


def test_chebyshev_polynomial_values():
    T6 = chebyshev_polynomial(6)
    assert complex(T6(0.75)).real == pytest.approx(-0.3671875, abs=1e-12)
    assert complex(T6(0.25)).real == pytest.approx(-0.0546875, abs=1e-12)
    assert to_chebyshev(T6).coeffs == (0,) * 6 + (1,)


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
        assert chebyshev_coefficient(4, 1, strict=False) == 0

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
