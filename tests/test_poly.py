import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import chebyshev as npcheb

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

    def test_from_roots_matches_numpy(self):
        # seeded real, complex and repeated root sets of degree 0-12: every
        # coefficient within 4 ulp of the series' one-norm of chebfromroots'
        rng = np.random.default_rng(40)
        ulp = np.finfo(float).eps
        for trial in range(1500):
            d, kind = int(rng.integers(0, 13)), trial % 3
            z = rng.uniform(-1.2, 1.2, d) + (1j * rng.uniform(-1, 1, d) if kind else 0)
            if kind == 2:
                z[: d // 2] = z[:1]  # half the roots repeat one
            scale = rng.uniform(0.5, 2.0)
            want = npcheb.chebfromroots(z) * scale
            got = np.array(Polynomial.from_roots(z, scale=scale).cheb)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 4 * ulp * np.sum(np.abs(want)), (d, kind)
        assert Polynomial.from_roots([], scale=0.7).cheb == (0.7,)

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

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"coeffs": [[1, 2, 3]]}, "coefficient 0 must be a [re, im] pair of numbers, got [1, 2, 3]"),
            ({"coeffs": [0.5, "x"]}, "coefficient 1 must be a [re, im] pair of numbers, got 'x'"),
            ({"coeffs": [0.5, [1, None]]},
             "coefficient 1 must be a [re, im] pair of numbers, got [1, None]"),
            ({"basis": "monomial"}, "entry 'coeffs' must be list, got None"),
            ({"coeffs": 3}, "entry 'coeffs' must be list, got 3"),
            ([0, 1], "entry 'coeffs' must be list, got None"),
        ],
        ids=["triple", "string", "none-part", "no-coeffs", "number-coeffs", "not-an-object"],
    )
    def test_from_dict_names_the_bad_entry(self, obj, message):
        with pytest.raises(InputError) as info:
            Polynomial.from_dict(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [-2, -1, True, 2.0, "3"])
    def test_monomial_takes_an_integer_exponent(self, n):
        with pytest.raises(InputError, match=f"^monomial exponent must be an integer >= 0, got {n!r}$"):
            Polynomial.monomial(n)
        assert Polynomial.monomial(np.int64(3)) == Polynomial([0, 0, 0, 1])

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


def seeded_series(rng, d: int, complex_coeffs: bool) -> tuple[complex, ...]:
    decay = 1.0 + np.arange(d + 1)
    c = rng.normal(size=d + 1) / decay
    if complex_coeffs:
        c = c + 1j * rng.normal(size=d + 1) / decay
    return tuple(map(complex, c))


class TestGridNorms:
    """Norms past the closed forms come from one Chebyshev-grid FFT: a
    certified bound for verdicts, polished grid peaks for exact norms, and
    the colleague eigensolve as the fallback."""

    # (degree, series) per kind.  Few above degree 300: the eigensolves they
    # are checked against take 0.2-1.4 s each, and a complex one of degree
    # 600 or 1,200 takes 1.2 or 8 s, so complex series stop at 300
    COUNTS = {
        False: [(5, 40), (8, 40), (16, 40), (29, 30), (40, 30), (80, 10), (150, 4),
                (300, 2), (600, 1), (1200, 1)],
        True: [(3, 40), (5, 40), (8, 40), (15, 30), (20, 30), (40, 10), (80, 4), (150, 2),
               (300, 1)],
    }

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        seen = []
        kernel = poly._colleague_norms
        monkeypatch.setattr(
            poly, "_colleague_norms", lambda series: seen.extend(series) or kernel(series)
        )
        return seen

    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_bound_brackets_and_polish_matches_the_eigensolve(self, complex_coeffs, monkeypatch):
        # every series polished, short ones too.  The eigensolve's norm lies in
        # [M, M s] up to the FFT's round-off.  The two norms evaluate |p| by
        # Clenshaw's recurrence at peaks found two ways, so they differ by that
        # recurrence's round-off: a few ulps, more where a peak sits near an end
        monkeypatch.setattr(poly, "_GRID_SLOPE", 4)
        rng = np.random.default_rng(30 + complex_coeffs)
        within4 = total = 0
        for d, count in self.COUNTS[complex_coeffs]:
            series = [seeded_series(rng, d, complex_coeffs) for _ in range(count)]
            for c, eig, norm in zip(series, poly._colleague_norms(series), poly._exact_norms(series)):
                row = np.array([c])
                g, s = poly._grid(row if complex_coeffs else row.real, not complex_coeffs)
                slack = 2.0**-44 * sum(map(abs, c))
                assert g.max() - slack <= eig <= g.max() * s + slack, (d, c)
                ulps = abs(norm - eig) / math.ulp(eig)
                assert ulps <= (4 if d <= 16 else 32), (d, c)
                within4 += ulps <= 4
                total += 1
        assert within4 >= 0.95 * total

    def test_one_batch_of_mixed_sizes_polished(self):
        # degrees 0-80, real and complex, in one call: polished norms, bit for
        # bit the series normed alone
        rng = np.random.default_rng(18)
        series = [seeded_series(rng, d, cplx) for d in range(81) for cplx in (False, True)]
        norms = poly._exact_norms(series)
        for c, norm in zip(series, norms):
            assert norm == poly._exact_norms([c])[0]

    @staticmethod
    def below_grid(c) -> bool:
        slope = len(c) - 2 if all(z.imag == 0 for z in c) else 2 * len(c) - 3
        return slope < poly._GRID_SLOPE

    @pytest.mark.parametrize("phase", [1.0, cmath.exp(0.3j)])
    def test_fresh_chebyshev_polishes_every_equal_peak(self, phase, fallbacks):
        # a fresh T_n, times a unit phase, peaks at all n + 1 points cos(j pi / n);
        # only the slopes too short for the grid reach the eigensolve
        series = [(0j,) * n + (complex(phase),) for n in (8, 15, 29, 30, 41, 64, 121, 200)]
        for c in series:
            assert poly._exact_norms([c])[0] == pytest.approx(1.0, rel=1e-14), len(c)
        assert fallbacks == [c for c in series if self.below_grid(c)]
        assert len(fallbacks) == (2 if phase == 1.0 else 1)

    @pytest.mark.parametrize("phase", [0.5, 0.5 * cmath.exp(0.3j)])
    def test_flat_maximum_polished(self, phase, fallbacks):
        # (1 - x^2)^m: one maximum at 0, flatter as m grows, and zeros of order m at the ends
        p, series = Polynomial([1, 0, -1]) * phase, []
        for m in range(2, 61):
            p = p * Polynomial([1, 0, -1])
            series.append(p.cheb)
            assert poly._exact_norms([p.cheb])[0] == pytest.approx(0.5, rel=1e-13), m
        assert fallbacks == [c for c in series if self.below_grid(c)]
        assert len(fallbacks) < 15

    def test_a_stalled_polish_falls_back_bit_for_bit(self, monkeypatch, fallbacks):
        monkeypatch.setattr(poly, "_POLISH_STEPS", 0)
        rng = np.random.default_rng(19)
        series = [seeded_series(rng, d, cplx) for d in (30, 64) for cplx in (False, True)]
        norms = poly._exact_norms(series)
        assert fallbacks == series
        assert norms == [poly._colleague_norms([c])[0] for c in series]


def chebroots_norm(c) -> float:
    """Reference max |p| on [-1, 1] from numpy: the roots of the same slope,
    (|p|^2)' or p', by chebroots, and |p| at the ends and their clipped real parts."""
    c = np.asarray(c, dtype=complex)
    q = npcheb.chebmul(c, c.conj()).real if c.imag.any() else c.real
    xs = np.clip(npcheb.chebroots(npcheb.chebder(q)).real, -1.0, 1.0)
    return float(np.abs(npcheb.chebval(np.concatenate(([-1.0, 1.0], xs)), c)).max())


def short_series(rng, count):
    """count series whose slope has degree 1-3: real of degree 2-4 and
    complex of degree 2, with coefficients over six decades of scale."""
    series = []
    for i in range(count):
        d = (2, 3, 4, 2)[i % 4]
        c = rng.normal(size=d + 1) / (1.0 + np.arange(d + 1)) ** rng.uniform(0, 3)
        if i % 4 == 3:
            c = c + 1j * rng.normal(size=d + 1)
        series.append(tuple(complex(z) for z in c * 10.0 ** rng.uniform(-3, 3)))
    return series


class TestShortNorms:
    """Series whose slope has degree at most 3 take its roots in closed form."""

    def test_closed_form_matches_references(self):
        # every series against numpy's roots of the same slope; every fifth
        # also against the dense grid, which costs 4x as much
        series = short_series(np.random.default_rng(2024), 20_000)
        for i, (c, norm) in enumerate(zip(series, poly._colleague_norms(series))):
            for ref in (chebroots_norm(c), *([dense_sup_norm(c)] if i % 5 == 0 else [])):
                assert abs(norm - ref) <= 1e-12 * ref, (c, norm, ref)

    @pytest.mark.parametrize("cheb, exact", [
        ((0, -2.25, 0, 0.25), 2.0),  # x^3 - 3x: stationary exactly at +-1
        ((1.5 + 0.5j, -2, 0.5), math.sqrt(16.25)),  # (x - 1)^2 + i/2: triple slope root at 1
        ((0.375, 0, 0.5, 0, 0.125), 1.0),  # x^4: slope root x^3
        ((0.34375, 0, 0.375, 0, 0.03125), 0.75),  # x^4/4 + x^2/2: slope x^3 + x, real root 0
        (tuple(npcheb.poly2cheb(np.poly([0.3] * 4)[::-1])), 1.3**4),  # (x - 0.3)^4
        (tuple(npcheb.poly2cheb([0, 0.09, -0.255, 0.4 / 3, 0.25])), None),  # slope (x-0.3)^2 (x+1)
        ((0, 1e3, 1e2, 5e2, 1e-10), None),  # top slope coefficient 5e-13 of the rest
        ((0, 0.6, 0, -0.6, 1e-13), None),  # ... and an interior maximum, 0.924
        ((0, 1e3, 1e2, 1e-10), None),
        ((1, 0.5 + 0.2j, 3e-7 - 1e-7j), None),
        ((1, 1e-7j, 1e-7), None),  # complex p with nearly constant |p|
        ((0.6, 0.8j, 1e-9), None),
    ])
    def test_edge_cases(self, cheb, exact):
        norm = poly._colleague_norms([tuple(map(complex, cheb))])[0]
        assert norm == pytest.approx(chebroots_norm(cheb), rel=1e-12)
        assert norm == pytest.approx(dense_sup_norm(cheb), rel=1e-12)
        if exact is not None:
            assert norm == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("base", [
        (0, 0.6, 0, -0.6),  # slope roots +-1/sqrt(3), midpoint 0, where |p| is 0
        (0.1, 0.6, 0.2, -0.6),
        (0, 0.3, 0.4, 0.1),
        (0.2, -0.5, 0.1, 0.3),
    ])
    def test_small_top_coefficient_sweep(self, base):
        # a c_4 from 1e-15 to 1e-7 of the rest puts a slope root far out, and
        # q^3 - r^2 under round-off, so either cubic branch may be taken; the
        # two moderate roots must come out of both
        for eps in np.logspace(-15, -7, 33):
            for c in ((*base, eps), (*base, -eps)):
                norm = poly._colleague_norms([tuple(map(complex, c))])[0]
                assert norm == pytest.approx(chebroots_norm(c), rel=1e-12), c
                assert norm == pytest.approx(dense_sup_norm(c), rel=1e-12), c

    def test_slopes_with_far_roots(self):
        # real p of degree 4 whose slope has one root near [-1, 1] and a
        # complex pair of size up to 1e8, or two near and one that far
        rng = np.random.default_rng(5)
        for i in range(600):
            far = 10.0 ** rng.uniform(0, 8)
            near = rng.uniform(-1.2, 1.2, size=2)
            if i % 2:
                roots = [near[0], near[1], far * rng.choice([-1, 1])]
            else:
                roots = [near[0], far * np.exp(1j * rng.uniform(0, np.pi))]
                roots.append(roots[1].conjugate())
            slope = np.polynomial.polynomial.polyfromroots(roots).real / far
            c = npcheb.poly2cheb(np.polynomial.polynomial.polyint(slope, k=rng.normal()))
            c = tuple(map(complex, c / np.abs(c).max()))
            norm = poly._colleague_norms([c])[0]
            assert norm == pytest.approx(chebroots_norm(c), rel=1e-12), c
            if i % 10 == 0:
                assert norm == pytest.approx(dense_sup_norm(c), rel=1e-12), c

    @pytest.mark.parametrize("cheb", [
        (0.5, 0.3j, 0.2),
        (0.6, 0.1j, -0.4),  # |p| peaks at x = 0
        (0.1, -0.7, 0.2, 0.05),
        tuple(0.5 / (1 + n) + 0.3j / (2 + n) for n in range(9)),
        tuple(0.5 / (1 + n) for n in range(12)),
    ])
    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**500])
    def test_power_of_two_scaling_is_exact(self, cheb, scale):
        # |c_2|^2 of an unscaled 2^-600 complex series underflows to 0 (numpy's
        # LinAlgError before). p * scale keeps every coefficient (only from_cheb
        # trims); p is scaled before it is normed, so the product carries no norm
        p = Polynomial.from_cheb(cheb)
        scaled = p * scale
        assert sup_norm(scaled) == sup_norm(p) * scale


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_constructors_name_the_coefficient(self, bad):
        for build in (Polynomial, Polynomial.from_cheb):
            with pytest.raises(InputError, match="coefficient 1 is not finite"):
                build([0.5, bad, 0.25])
        with pytest.raises(InputError, match="coefficient 2 is not finite"):
            Polynomial.from_dict(
                {"basis": "chebyshev", "coeffs": [0.5, 0.1, [bad.real, bad.imag]]}
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_entry_point_raises_input_error(self, bad, rho_34):
        from pqsp import (estimate_chebyshev, estimate_direct, find_phases,
                          monomial_poly_trace, parallel_qsp_run)

        calls = {
            "sup_norm": lambda c: sup_norm(Polynomial.from_cheb(c)),
            "estimate_direct": lambda c: estimate_direct(Polynomial(c), rho_34, 2),
            "estimate_chebyshev": lambda c: estimate_chebyshev(Polynomial.from_cheb(c), rho_34, 2),
            "monomial_poly_trace": lambda c: monomial_poly_trace(Polynomial(c), rho_34, 2),
            "factorize_nonneg": lambda c: factorize_nonneg(Polynomial(c), 1),
            "find_phases": lambda c: find_phases(Polynomial.from_cheb(c)),
            "parallel_qsp_run": lambda c: parallel_qsp_run([Polynomial(c)], rho_34),
        }
        for call in calls.values():
            with pytest.raises(InputError, match="not finite"):
                call([0.1, 0.0, bad * 0.5, 0.1])


    @pytest.mark.parametrize("build", [
        lambda p: p * math.nan,
        lambda p: p * complex(0, math.nan),
        lambda p: p / math.nan,
        lambda p: p * 1e300 * 1e300,  # overflows to inf
        lambda p: (p * 1e200) * (p * 1e200),
    ])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_scaled_and_products_raise_input_error(self, build):
        with pytest.raises(InputError, match="not finite"):
            sup_norm(build(Polynomial([0.1, 0.2, 0.3, 0.1, 0.2])))


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


def test_chebyshev_conversion_matches_numpy_bytes():
    # 2,000 real and complex series of degree 0-60 with exact and signed
    # zeros: every bit, the zeros' signs included, is numpy's cheb2poly's
    rng = np.random.default_rng(36)
    for trial in range(2000):
        n = int(rng.integers(1, 62))
        cs = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, size=n)
        if trial % 2:
            cs = cs + 1j * rng.normal(size=n)
        cs[rng.random(n) < 0.3] = 0.0
        cs[rng.random(n) < 0.1] *= -0.0
        series = tuple(complex(c) for c in cs)
        want = np.array(np.polynomial.chebyshev.cheb2poly(series), dtype=complex)
        assert np.array(poly._cheb2poly(series), dtype=complex).tobytes() == want.tobytes()
    p = Polynomial.from_cheb(series)
    assert p.coeffs == poly._cheb2poly(p.cheb)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chebyshev_polynomial(-1), "order must be non-negative"),
        (lambda: split_constituents(Polynomial([1, 2, 3]), 0),
         "constituent order k must be at least 1"),
        (lambda: split_constituents(Polynomial([1, 2, 3]), 3),
         "nothing to parallelize: k=3 exceeds the polynomial degree 2"),
        (lambda: chebyshev_coefficient(0, 0), "degree must be at least 1"),
        (lambda: chebyshev_coefficient(4, 5), "coefficient index n=5 out of range for degree 4"),
        (lambda: chebyshev_coeff_bound(4, 1),
         "bound defined for parity-matched indices only (d=4, n=1)"),
        (lambda: chebyshev_coeff_1norm(-1), "order must be non-negative"),
        (lambda: constituent_norm_bounds(4, 5), "need 1 <= k <= d (got k=5, d=4)"),
        (lambda: chebyshev_polynomial(2.0), "order must be an integer, got 2.0"),
        (lambda: chebyshev_polynomial(True), "order must be an integer, got True"),
        (lambda: split_constituents(Polynomial([1, 2, 3]), 1.5),
         "constituent order k must be an integer, got 1.5"),
        (lambda: split_constituents(Polynomial([1, 2, 3]), True),
         "constituent order k must be an integer, got True"),
        (lambda: chebyshev_coefficient(4.0, 2), "degree must be an integer, got 4.0"),
        (lambda: chebyshev_coefficient(4, 2.0), "coefficient index n must be an integer, got 2.0"),
        (lambda: chebyshev_coeff_bound(4.0, 2), "degree must be an integer, got 4.0"),
        (lambda: chebyshev_coeff_bound(4, False), "coefficient index n must be an integer, got False"),
        (lambda: chebyshev_coeff_1norm(2.5), "order must be an integer, got 2.5"),
        (lambda: constituent_norm_bounds(4.0, 2), "degree d must be an integer, got 4.0"),
        (lambda: constituent_norm_bounds(4, True), "k must be an integer, got True"),
    ],
    ids=["chebyshev-order", "split-k-zero", "split-k-above-degree", "coefficient-degree",
         "coefficient-index", "bound-parity", "one-norm-order", "constituent-bounds-k",
         "chebyshev-float", "chebyshev-bool", "split-float", "split-bool", "coefficient-float-d",
         "coefficient-float-n", "bound-float-d", "bound-bool-n", "one-norm-float",
         "constituent-bounds-float-d", "constituent-bounds-bool-k"],
)
def test_bad_index_raises_its_message(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integer_indices_act_as_ints():
    p = Polynomial([1, 2, 3])
    assert chebyshev_polynomial(np.int64(3)) is chebyshev_polynomial(3)
    assert split_constituents(p, np.int32(1)) == split_constituents(p, 1)
    assert chebyshev_coefficient(np.int64(40), np.int64(2)) == chebyshev_coefficient(40, 2) == -800
    assert chebyshev_coeff_bound(np.int64(4), np.int16(2)) == chebyshev_coeff_bound(4, 2)
    assert chebyshev_coeff_1norm(np.uint8(2)) == chebyshev_coeff_1norm(2)
    assert constituent_norm_bounds(np.int64(4), np.int64(2)) == constituent_norm_bounds(4, 2)


def test_constituent_norm_bounds_monotone_and_positive():
    low10, high10 = constituent_norm_bounds(10, 2)
    assert low10 > 0 and high10 > 0
    # the low certificate covers any degree-(k-1) tail of a bounded polynomial
    low_small, _ = constituent_norm_bounds(10, 1)
    assert low_small <= low10
