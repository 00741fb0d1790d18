import itertools
import math
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as npcheb

from pqsp import factor, poly
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
from conftest import dense_sup_norm, random_nonneg


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

    def test_round_off_low_coefficient_is_zero(self):
        # a basis change leaves x^2's constant at -2.8e-17: a double zero, not a
        # root pair near +-1e-8 that polishing cannot certify
        p = Polynomial.from_cheb([0.14999999999999997, 0.0, 0.15])
        assert p.coeffs[0] != 0
        assert find_roots(p) == ((0j, 2),)

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

    def test_one_eigvals_call_per_factorization(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        polished = 0
        for seed, half, k in [(8, 6, 3), (9, 7, 3), (10, 8, 2), (11, 5, 4), (12, 9, 2)]:
            source = random_nonneg(np.random.default_rng(seed), half)
            calls.clear()
            plan = factorize_nonneg(source, k)
            # each factor's slope is (|R_j|^2)', of degree 2 deg(R_j) - 1:
            # in closed form up to degree 3, polished from the grid above it,
            # so the companion matrix is the only eigvals call
            assert calls == [(2 * half, 2 * half)], (seed, calls)
            polished += sum(2 * f.degree - 1 > 3 for f in plan.factors)
        assert polished >= 2
        # phase-circuit plans: k + 1 root pairs over k threads, so every
        # factor is short
        for seed, k in [(13, 2), (14, 3), (15, 2), (16, 3)]:
            source = random_nonneg(np.random.default_rng(seed), k + 1)
            calls.clear()
            plan = factorize_nonneg(source, k)
            assert max(f.degree for f in plan.factors) <= 2
            assert calls == [(2 * k + 2, 2 * k + 2)], (seed, calls)

    def test_polish_stops_at_round_off(self):
        # benchmark-style sources with 3-4 root pairs: simple roots whose |p| is
        # round-off from the first step on ran to the 60-step cap before
        rng = np.random.default_rng(42)
        passes = []
        for i in range(200):
            z = rng.uniform(-1.2, 1.2, 3 + i % 2) + 1j * rng.uniform(0.15, 1.0, 3 + i % 2)
            mono = np.polynomial.polynomial.polyfromroots(np.concatenate([z, z.conj()])).real
            coeffs = HornerCount(Polynomial(mono).coeffs)
            for z0, m in factor._cluster_roots(np.roots(mono[::-1]), 1e-7):
                coeffs.passes = 0
                factor._newton_polish(coeffs, z0, m)
                passes.append(coeffs.passes)
        assert len(passes) == 1400 and max(passes) <= 8


class HornerCount(tuple):
    """Monomial coefficients that count the Horner passes run over them."""

    def __reversed__(self):
        self.passes += 1
        return reversed(tuple(self))


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

    def test_sign_table_verdict_matches_clenshaw(self):
        # sources shifted to within 1e-12 of the -1e-9 * scale threshold, on
        # both sides: the tabled check and Clenshaw's values agree on each
        rng = np.random.default_rng(43)
        verdicts = []
        for trial in range(120):
            c = np.array(random_nonneg(rng, int(rng.integers(1, 11))).cheb).real
            vals = npcheb.chebval(factor._SIGN_GRID, c)
            off = (1 if trial % 2 else -1) * 10.0 ** rng.uniform(-13, -12)
            c[0] += (off - 1e-9 * vals.max() - vals.min()) / (1 + 1e-9)
            vals = npcheb.chebval(factor._SIGN_GRID, c)
            scale = np.abs(vals).max()
            assert abs(vals.min() + 1e-9 * scale) <= 1e-12
            negative = vals.min() < -1e-9 * scale
            R = Polynomial.from_cheb(c)
            assert R.degree == len(c) - 1
            try:
                factorize_nonneg(R, 2)
                tabled = False
            except (NotNonNegativeError, ConvergenceError, InputError) as exc:
                tabled = "is negative on [-1, 1]" in str(exc)
            assert tabled == negative, trial
            verdicts.append(negative)
        assert 40 <= sum(verdicts) <= 80

    def test_K_matches_a_numpy_built_reference(self):
        # sources of degree 20-40, beyond the benchmark's 6-8: both candidate
        # groupings rebuilt by chebfromroots and normed on a dense grid
        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(40):
            pairs, k = int(rng.integers(10, 21)), int(rng.integers(2, 5))
            z = rng.uniform(-1.2, 1.2, pairs) + 1j * rng.uniform(0.15, 1.0, pairs)
            cheb = npcheb.chebfromroots(np.concatenate([z, z.conj()])).real
            R = Polynomial.from_cheb(cheb / dense_sup_norm(cheb))
            try:
                plan = factorize_nonneg(R, k)
            except (ConvergenceError, NotNonNegativeError):
                continue  # the direct route's known failures above degree 30
            half = factor._half_root_multiset(R, find_roots(R))
            ordered = np.array(sorted(half, key=lambda z: (z.real, z.imag)))
            scale = (R.cheb[-1].real * 2.0 ** (R.degree - 1)) ** (1.0 / (2 * k))
            dealt = np.arange(len(ordered)) % k
            norms = [
                [dense_sup_norm(scale * npcheb.chebfromroots(ordered[labels == j]))
                 for j in range(k)]
                for labels in (dealt, factor._swap_descent(ordered.tolist(), dealt))
            ]
            want = min(norms, key=math.prod)
            assert plan.factor_norms == pytest.approx(want, rel=1e-9)
            assert plan.factorization_constant == pytest.approx(math.prod(want), rel=1e-9)
            checked += 1
        assert checked >= 25

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


def grouping_sources(seed, count):
    """Seeded prod_j |x - z_j|^2 at sup norm 1, for k = 2-4 and 2-8 pairs: even
    draws take benchmark-style roots (Re in [-1.2, 1.2], Im in [0.15, 1]),
    odd ones roots near the interval (Re = cos t, Im in [0.01, 0.3])."""
    rng = np.random.default_rng(seed)
    sources = []
    for i in range(count):
        k, pairs = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        if i % 2:
            z = np.cos(rng.uniform(0, np.pi, pairs)) + 1j * rng.uniform(0.01, 0.3, pairs)
        else:
            z = rng.uniform(-1.2, 1.2, pairs) + 1j * rng.uniform(0.15, 1.0, pairs)
        p = Polynomial.from_cheb(npcheb.chebfromroots(np.concatenate([z, z.conj()])).real)
        sources.append((p * (1.0 / sup_norm(p)), k))
    return sources


def grouping_K(ordered, groups, scale):
    """K of the factors scale * prod_{i in g} (x - ordered[i]), one per group."""
    return math.prod(
        sup_norm(Polynomial.from_roots([ordered[i] for i in g], scale=scale)) for g in groups
    )


def exhaustive_K(ordered, k, scale):
    """The smallest K over every grouping with round robin's group sizes."""
    n = len(ordered)
    sizes = [len(range(j, n, k)) for j in range(k)]
    norms = {}

    def norm(g):
        if g not in norms:
            norms[g] = sup_norm(Polynomial.from_roots([ordered[i] for i in g], scale=scale))
        return norms[g]

    def best(left, j):
        if j == k:
            return 1.0
        return min(
            norm(g) * best(tuple(i for i in left if i not in g), j + 1)
            for g in itertools.combinations(left, sizes[j])
        )

    return best(tuple(range(n)), 0)


@pytest.fixture(scope="module")
def grouped():
    """(source, k, sorted half-roots, scale, plan) per source; a source whose
    half-roots cannot be found carries the error in place of the rest."""
    sources = grouping_sources(20, 520)
    sources += [(Polynomial.monomial(12), k) for k in (2, 3, 4)]
    sources += [(split_constituents(0.9 * chebyshev_polynomial(6), 2)[1], k) for k in (2, 3)]
    sources += [(0.9 * (chebyshev_polynomial(6) + Polynomial.one()), k) for k in (2, 3)]
    out = []
    for R, k in sources:
        try:
            half = factor._half_root_multiset(R, find_roots(R))
        except (ConvergenceError, InputError) as exc:
            out.append((R, k, exc, None, None))
            continue
        ordered = sorted(half, key=lambda z: (z.real, z.imag))
        scale = (R.cheb[-1].real * 2.0 ** (R.degree - 1)) ** (1.0 / (2 * k))
        out.append((R, k, ordered, scale, factorize_nonneg(R, k)))
    return out


class TestRootGrouping:
    def test_never_worse_than_round_robin(self, grouped):
        moved = unfound = 0
        for R, k, ordered, scale, plan in grouped:
            if isinstance(ordered, Exception):
                # root finding near the interval fails typed, before any grouping
                with pytest.raises(type(ordered)):
                    factorize_nonneg(R, k)
                unfound += 1
                continue
            n = len(ordered)
            K = plan.factorization_constant
            rr_K = grouping_K(ordered, [range(j, n, k) for j in range(k)], scale)
            assert K <= rr_K * (1 + 1e-12)
            assert K == pytest.approx(math.prod(plan.factor_norms), rel=1e-15)
            moved += K < rr_K
            sizes = [len(range(j, n, k)) for j in range(k)]
            assert [f.degree for f in plan.factors] == sizes
            assert max(sizes) <= math.ceil(R.degree / (2 * k))
            residual = verify_factorization(plan, R)
            if residual > 1e-8:
                # the half-roots themselves are off: round robin's factors miss as far
                rr = tuple(Polynomial.from_roots(ordered[j::k], scale=scale) for j in range(k))
                rr_plan = FactorizationPlan(rr, tuple(map(sup_norm, rr)), rr_K, k, R.degree)
                assert residual <= 1.01 * verify_factorization(rr_plan, R)
                unfound += 1
            assert factorize_nonneg(R, k).factors == plan.factors
        assert len(grouped) >= 500 and unfound <= 10
        assert moved >= len(grouped) // 5

    def test_descent_reaches_the_exhaustive_optimum(self, grouped):
        excess = [
            (plan.factorization_constant / exhaustive_K(ordered, k, scale)) ** 4
            for _, k, ordered, scale, plan in grouped
            if plan is not None and len(ordered) <= 6
        ]
        assert len(excess) >= 300
        assert sum(e <= 1 + 1e-9 for e in excess) >= 0.9 * len(excess)
        assert max(excess) <= 1.25

    def test_roots_on_the_score_grid_score_finite(self):
        # x^12's half-roots and T_3's double roots sit on (or next to) grid points
        on_grid = [complex(x) for x in factor._SCORE_GRID[[0, 0, 32, 64, 64, 96, 128]]]
        with np.errstate(all="raise"):
            labels = factor._swap_descent(on_grid, np.arange(7) % 3)
        assert np.bincount(labels).tolist() == [3, 2, 2]
        t3_squared = 0.9 * (chebyshev_polynomial(6) + Polynomial.one())  # 1.8 T_3^2
        for R, k in [(Polynomial.monomial(12), 4), (t3_squared, 2)]:
            with np.errstate(all="raise"):
                plan = factorize_nonneg(R, k)
            assert verify_factorization(plan, R) <= 1e-12

    def test_tied_swaps_do_not_turn_on_round_off(self):
        # a benchmark-style k = 3 draw whose two best swaps leave every group
        # peaking at x = -1, so they tie up to round-off; a one-ulp move of a
        # root used to flip the labels between [0 1 0 2] and [0 0 2 1]
        rng = np.random.default_rng(5)
        for _ in range(1975):
            re, im = rng.uniform(-1.2, 1.2, 4), rng.uniform(0.15, 1.0, 4)
        ordered = sorted((re + 1j * im).tolist(), key=lambda z: (z.real, z.imag))
        dealt = np.arange(4) % 3
        assert factor._swap_descent(ordered, dealt).tolist() == [0, 0, 2, 1]
        for i, way in itertools.product(range(4), (np.inf, -np.inf)):
            z = ordered[i]
            for moved in (complex(np.nextafter(z.real, way), z.imag),
                          complex(z.real, np.nextafter(z.imag, way))):
                roots = ordered[:i] + [moved] + ordered[i + 1 :]
                assert factor._swap_descent(roots, dealt).tolist() == [0, 0, 2, 1]

    def test_few_roots_skip_the_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a grouping of at most k half-roots")

        monkeypatch.setattr(factor, "_swap_descent", no_search)
        square = Polynomial([1, 0, 1]) * Polynomial([1, 0, 1])
        for R, k in [(Polynomial([0, 0, 1]), 3), (square, 2)]:
            assert verify_factorization(factorize_nonneg(R, k), R) <= 1e-8


def _norm_batches(module, monkeypatch, sources):
    """The size of each _sup_norms call, per module.factorize_nonneg call; a
    sup_norm call reaches poly._sup_norms as a batch of one."""
    batches = []
    batched = poly._sup_norms

    def counting(polys):
        batches[-1].append(len(polys))
        return batched(polys)

    monkeypatch.setattr(poly, "_sup_norms", counting)
    monkeypatch.setattr(module, "_sup_norms", counting)
    for R, k in sources:
        batches.append([])
        module.factorize_nonneg(R, k)
    return batches


class TestOneNormBatch:
    """A factorization norms its k factors in one _sup_norms call."""

    SOURCES = grouping_sources(21, 40)

    def test_one_kernel_call_per_factorization(self, monkeypatch):
        batches = _norm_batches(factor, monkeypatch, self.SOURCES)
        assert batches == [[k] for _, k in self.SOURCES]

    def test_fails_a_copy_that_norms_each_factor(self, monkeypatch):
        source = Path(factor.__file__).read_text()
        mutated, swapped = re.subn(
            r"_sup_norms\(factors\)(?=\n    return FactorizationPlan\(factors)",
            "tuple(sup_norm(f) for f in factors)",
            source,
        )
        assert swapped == 1
        copy = types.ModuleType("pqsp._factor_copy")
        copy.__package__ = "pqsp"
        monkeypatch.setitem(sys.modules, copy.__name__, copy)  # dataclasses look it up
        exec(compile(mutated, "factor_copy.py", "exec"), copy.__dict__)
        batches = _norm_batches(copy, monkeypatch, self.SOURCES)
        assert batches == [[1] * k for _, k in self.SOURCES]


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


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj.pop("norms"), "entry 'norms' must be list, got None"),
            (lambda obj: obj.pop("K"), "entry 'K' must be a number, got None"),
            (lambda obj: obj.update(k="2"), "entry 'k' must be int, got '2'"),
            (lambda obj: obj.update(k=True), "entry 'k' must be int, got True"),
            (lambda obj: obj.update(source_degree=6.0), "entry 'source_degree' must be int, got 6.0"),
            (lambda obj: obj.update(factors={"coeffs": [1]}),
             "entry 'factors' must be list, got {'coeffs': [1]}"),
            (lambda obj: obj.update(stored_K=[1.0]), "entry 'stored_K' must be a number, got [1.0]"),
            (lambda obj: obj["factors"][1].update(coeffs=[[1]]),
             "coefficient 0 must be a [re, im] pair of numbers, got [1]"),
            (lambda obj: obj["norms"].__setitem__(0, "1.0"), "plan norms ['1.0', "),
            (lambda obj: obj.clear(), "entry 'factors' must be list, got None"),
        ],
        ids=["no-norms", "no-K", "string-k", "bool-k", "float-degree", "factors-not-a-list",
             "list-stored-K", "short-pair", "string-norm", "empty"],
    )
    def test_malformed_plan_names_the_bad_entry(self, edit, message):
        rng = np.random.default_rng(24)
        obj = rescale_factors(factorize_nonneg(random_nonneg(rng, 3), 2)).to_dict()
        edit(obj)
        with pytest.raises(InputError, match="^" + re.escape(message)):
            FactorizationPlan.from_dict(obj)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: find_roots(Polynomial.one()), "constant polynomial has no roots to find"),
        (lambda: find_roots(Polynomial([0, 1]) * 1e-13), "leading coefficient vanishes"),
        (lambda: factorize_nonneg(Polynomial([1, 0, 1]), 0), "thread count k must be at least 1"),
        (lambda: rescale_factors(FactorizationPlan((Polynomial([0]),), (0.0,), 0.0, 1, 0)),
         "factor 0 has degenerate norm 0.0; cannot rescale"),
        (lambda: chebyshev_parallel_terms(chebyshev_polynomial(2), 0, 4),
         "thread count k must be at least 1"),
        (lambda: chebyshev_parallel_terms(Polynomial.from_cheb([1, 0, 1j]), 2, 4),
         "expected real coefficients"),
        (lambda: chebyshev_parallel_terms(Polynomial.from_cheb([0, 1]), 2, 4),
         "tail polynomial must have even parity"),
    ],
    ids=["constant-roots", "vanishing-leading", "factor-k-zero", "degenerate-norm",
         "terms-k-zero", "complex-tail", "odd-tail"],
)
def test_bad_input_raises_its_message(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda R, t: factorize_nonneg(R, 2.0), "thread count k must be an integer, got 2.0"),
        (lambda R, t: factorize_nonneg(R, True), "thread count k must be an integer, got True"),
        (lambda R, t: chebyshev_parallel_terms(t, 2.0, 6),
         "thread count k must be an integer, got 2.0"),
        (lambda R, t: chebyshev_parallel_terms(t, True, 6),
         "thread count k must be an integer, got True"),
        (lambda R, t: chebyshev_parallel_terms(t, 2, 6.0), "degree d must be an integer, got 6.0"),
        (lambda R, t: chebyshev_parallel_terms(t, 2, False), "degree d must be an integer, got False"),
        (lambda R, t: factorize_nonneg(R, np.int64(2)) == factorize_nonneg(R, 2), None),
        (lambda R, t: np.array_equal(chebyshev_parallel_terms(t, np.int64(2), np.int64(6)).coeff,
                                     chebyshev_parallel_terms(t, 2, 6).coeff), None),
    ],
    ids=["factor-float-k", "factor-bool-k", "terms-float-k", "terms-bool-k", "terms-float-d",
         "terms-bool-d", "factor-numpy-k", "terms-numpy-k-d"],
)
def test_integer_arguments_are_typed(call, message):
    # floats and bools raise InputError naming the argument, as poly's
    # integer arguments do; numpy integers act as ints
    source = random_nonneg(np.random.default_rng(25), 3)
    tail = Polynomial.from_cheb([0.5, 0, 0.25, 0, 0.125])
    if message is None:
        assert call(source, tail)
        return
    with pytest.raises(InputError) as info:
        call(source, tail)
    assert str(info.value) == message


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
