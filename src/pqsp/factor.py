"""Root finding and factor-polynomial machinery.

A real polynomial R that is non-negative on the real line splits as
R = prod_j |R_j(x)|^2 with deg(R_j) <= ceil(d / 2k): real roots enter the
factor root multiset at half multiplicity, and one member of each complex
conjugate pair (the Im > 0 representative) enters at full multiplicity.
How the half-root multiset is grouped into k factors is the one free choice
in the factorization; the factorization constant K = prod_j ||R_j|| measures
how lopsided a grouping is, and the shot cost of a factored run grows as K^4.

The grouping starts from round robin: sort the half-roots by real part
(then imaginary part) and deal them out, so group j takes every k-th root
from position j.  That fixes each group's size, so every factor degree stays
at most ceil(d / 2k) and the width at k.  A pairwise-swap descent then lowers
the grid score sum_j max_x sum_{z in group j} log|x - z| on 129 Chebyshev
points, log K read off the grid less the shared scale C^(1/2k); swaps keep
the group sizes.  Both groupings' factors are normed exactly in one
colleague batch and the one with the smaller K is kept, so K never exceeds
round robin's.  On the high parts of 720 of the benchmark's direct targets
(2-6 random root pairs, k = 2-4), the geometric mean of K fell from 1.344
to 1.250 and 21% of the groupings moved; one source needs 125x fewer shots.
On the 382 sources with at most six half-roots in tests/test_factor.py the
descent reached the optimum of an exhaustive search every time.

The series on this path are short (2 to 9 terms in the benchmark's plans),
and numpy's fixed cost per call outweighs their arithmetic.  So candidate
factors are built on plain lists (Polynomial.from_roots, in chebfromroots'
pairwise order), and the sign check on 2001 points is one matrix-vector
product against a module-level table of T_n on that grid, grown by
recurrence to the largest degree seen.  What is left is mostly fixed cost
per call (one BLAS thread, 2-vCPU Xeon VM): factorize_nonneg takes about
190-440 us at 3-6 root pairs and k = 2-4, about half of it in find_roots
and most of the rest in the swap descent's one sweep and the batch of
candidate factor norms.

Parity-structured sources skip root finding entirely: an even-parity tail
polynomial rewrites into products of Chebyshev polynomials whose sup norms
are all 1, which pins K = 1 at the cost of a coefficient one-norm that the
sampler has to absorb instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import ConvergenceError, InputError, NotNonNegativeError
from .poly import (
    Parity,
    Polynomial,
    _clenshaw,
    _shared_polynomial,
    _sup_norms,
    chebyshev_coefficient,
    chebyshev_polynomial,
    sup_norm,
)

# Points on [-1, 1] at which verify_factorization compares the product of
# squared factors with the source.
VERIFY_GRID = 500
_SIGN_GRID = np.linspace(-1.0, 1.0, 2001)  # where factorize_nonneg checks the sign
_SIGN_GRID.flags.writeable = False
_sign_table = np.stack([np.ones_like(_SIGN_GRID), _SIGN_GRID])  # row n: T_n on _SIGN_GRID
_sign_table.flags.writeable = False
_SCORE_GRID = np.cos(np.pi * np.arange(129) / 128)  # where a grouping's factors are scored
_SCORE_GRID.flags.writeable = False
_DISTANCE_FLOOR = 1e-12  # real half-roots can sit on the score grid
_SCORE_TOL = 1e-9  # a swap must lower the score by more than this

__all__ = [
    "FactorizationPlan",
    "ParallelTermList",
    "find_roots",
    "factorize_nonneg",
    "rescale_factors",
    "verify_factorization",
    "chebyshev_parallel_terms",
    "term_layout",
]


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
        """Load a plan, rejecting a k, stored norms or K that its factors do not have."""
        factors = tuple(Polynomial.from_dict(f) for f in obj["factors"])
        if not factors or int(obj["k"]) != len(factors):
            raise InputError(f"plan k {obj['k']} needs k >= 1 factors, got {len(factors)}")
        norms = _sup_norms(factors)
        k_const = math.prod(norms)
        stored = [float(n) for n in obj["norms"]]
        if len(stored) != len(norms) or not all(
            math.isclose(a, b, rel_tol=1e-9) for a, b in zip(stored, norms)
        ):
            raise InputError(f"plan norms {stored} differ from the factors' norms {list(norms)}")
        if not math.isclose(float(obj["K"]), k_const, rel_tol=1e-9):
            raise InputError(f"plan K {obj['K']} differs from the factors' K {k_const}")
        return cls(
            factors=factors,
            factor_norms=norms,
            factorization_constant=k_const,
            k=len(factors),
            source_degree=int(obj["source_degree"]),
            stored_constant=float(obj.get("stored_K", 1.0)),
        )


def _cluster_roots(raw: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Greedy clusters in (real, imag) order, each with its running sum and count."""
    clusters: list[list] = []
    for z in sorted(raw.tolist(), key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if abs(z - cl[0] / cl[1]) <= tol:
                cl[0] += z
                cl[1] += 1
                break
        else:
            clusters.append([0 + z, 1])
    return [(total / count, count) for total, count in clusters]


def _newton_polish(mono: tuple[complex, ...], z: complex, mult: int) -> complex:
    """Multiplicity-aware Newton steps, p and p' by Horner's rule on the
    monomial coefficients that the companion eigenproblem also reads.

    Once |p| is down to round-off noise, further steps only wander (at a
    multiple root, where p' is noise too, they walk a double real root off
    the real line), so a step that does not lower |p| is undone and ends the
    polish, which returns the best iterate."""
    z = complex(z)
    last = None  # the iterate and |p| before the step just taken
    for _ in range(60):
        pz = dz = 0j
        for c in reversed(mono):
            dz = dz * z + pz
            pz = pz * z + c
        size = abs(pz)
        if last is not None and size >= last[1]:
            return last[0]
        if abs(dz) < 1e-300:
            break
        step = mult * pz / dz
        last = (z, size)
        z = z - step
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def find_roots(p: Polynomial) -> tuple[tuple[complex, int], ...]:
    """All complex roots of p, as (root, multiplicity) pairs: the eigenvalues
    of np.roots' companion matrix, plus an exact zero per zero low-order term
    (one within 1e-15 of the coefficient 1-norm is basis-change round-off).

    Nearby eigenvalues (within 1e-7) are merged into one root of higher
    multiplicity, then each cluster center is polished by multiplicity-aware
    Newton steps.  Residuals are judged in backward-error form,
    |p(z)| / sum_i |c_i| |z|^i, so roots far outside the unit disk are held
    to the same relative standard as interior ones (an exact zero root is
    exact).  A polished root whose backward error exceeds 1e-10 indicates
    the eigensolver output could not be rescued, and the call fails with the
    worst residual attached.

    A call takes about 55, 110 and 190 us at degree 4, 8 and 12 (one BLAS
    thread, 2-vCPU Xeon VM): the public np.linalg.eigvals call about 15, 35
    and 65 us of it, the monomial view (poly._cheb2poly) about 6, 14 and
    22 us, and the scalar Newton polish and backward-error loop, one
    Python complex operation per coefficient and root, most of the rest.
    """
    if p.degree < 1:
        raise InputError("constant polynomial has no roots to find")
    mono = p.coeffs
    if abs(mono[-1]) <= 1e-12:
        raise InputError("leading coefficient vanishes")
    weights = [abs(c) for c in reversed(mono)]
    tiny = 1e-15 * sum(weights)
    zeros = next(i for i, c in enumerate(mono) if abs(c) > tiny)  # exact zero roots
    n = p.degree - zeros
    kept = np.array(mono[zeros:])
    companion = np.zeros((n, n), dtype=complex)
    companion.reshape(-1)[n :: n + 1] = 1.0  # the subdiagonal
    companion[:1] = -kept[-2::-1] / kept[-1]
    raw = np.concatenate([np.linalg.eigvals(companion), np.zeros(zeros)])
    clusters = _cluster_roots(raw, tol=1e-7)
    polished = [_newton_polish(mono, z, m) for z, m in clusters]

    backward = []
    for z in polished:
        if z == 0 and zeros:  # the series' p(0) is round-off, not 0
            backward.append(0.0)
            continue
        r, scale = abs(z), 0.0
        for w in weights:  # sum_i |c_i| |z|^i by Horner's rule
            scale = scale * r + w
        backward.append(abs(_clenshaw(p.cheb, z)) / max(scale, 1e-300))
    worst = float(np.maximum.reduce(backward))
    if not worst <= 1e-10:
        raise ConvergenceError(
            f"root polishing stalled: worst backward error {worst:.3e} exceeds 1e-10",
            best_residual=worst,
        )
    return tuple(zip(polished, (m for _, m in clusters)))


def _half_root_multiset(
    R: Polynomial, roots: tuple[tuple[complex, int], ...]
) -> list[complex]:
    """Half-multiplicity reals plus Im>0 conjugate representatives, flattened."""
    imag_tol = 1e-7
    reals: list[tuple[float, int]] = []
    plus: list[tuple[complex, int]] = []
    minus: list[tuple[complex, int]] = []
    for z, m in roots:
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
        merged = _newton_polish(R.coeffs, merged, m1 + m2).real
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
            if abs(w.conjugate() - z) <= 1e-6 * (1.0 + abs(z)) and mw == m:
                hit = i
                break
        if hit is None:
            raise InputError(f"complex root {z:.6g} has no conjugate partner")
        unmatched.pop(hit)
        half.extend([z] * m)
    if unmatched:
        raise InputError(f"complex root {unmatched[0][0]:.6g} has no conjugate partner")
    return half


def _swap_descent(ordered: list[complex], labels: np.ndarray) -> np.ndarray:
    """Group labels after a pairwise-swap descent on the grid score.

    A grouping scores sum_j max_x sum_{z in group j} log|x - z| over
    _SCORE_GRID, the log of its K up to the shared scale and the grid's
    resolution.  Each sweep scores every swap of two roots in different
    groups in one array pass and applies the best one that lowers the score,
    the first in index order among those within _SCORE_TOL of the best, so
    round-off in the scores does not pick the swap; the group sizes never
    change.  The labels passed in come back as they are, the same array,
    when no swap lowers the score.
    """
    logs = np.log(np.maximum(np.abs(_SCORE_GRID - np.array(ordered)[:, None]), _DISTANCE_FLOOR))
    while True:
        own = (labels[:, None] == labels) @ logs  # row i: the log sum of i's group
        # rise[i, m]: how far the peak of i's group moves once m takes i's place in it
        peaks = np.maximum.reduce(own, axis=1)[:, None]
        rise = np.maximum.reduce((own - logs)[:, None, :] + logs, axis=2) - peaks
        # swapping i and m changes the score by rise[i, m] + rise[m, i]; within one
        # group that is never negative (max u + max v >= max(u + v)), and the sum is
        # symmetric, so the first near-minimum in row-major order has i < m
        change = rise + rise.T
        low = np.minimum.reduce(change, axis=None)
        if not low < -_SCORE_TOL:
            return labels
        i, m = divmod(int((change <= low + _SCORE_TOL).argmax()), len(ordered))
        labels = labels.copy()
        labels[[i, m]] = labels[[m, i]]


def _chebyshev_rows(d: int) -> np.ndarray:
    """T_0 .. T_d on _SIGN_GRID: rows of one table, grown by the three-term
    recurrence to the largest degree asked for and sliced per call.  Row n
    depends only on rows n - 1 and n - 2, so the table's bits do not depend
    on the order in which degrees are asked for."""
    global _sign_table
    have = len(_sign_table)
    if have <= d:
        rows = np.empty((d + 1, _SIGN_GRID.size))
        rows[:have] = _sign_table
        for n in range(have, d + 1):
            rows[n] = 2.0 * _SIGN_GRID * rows[n - 1] - rows[n - 2]
        rows.flags.writeable = False
        _sign_table = rows
    return _sign_table[: d + 1]


def factorize_nonneg(R: Polynomial, k: int) -> FactorizationPlan:
    """Factor a real, real-line-non-negative polynomial into k squared moduli.

    The half-roots are dealt round robin, in order of real part, over k
    groups whose sizes differ by at most one (the first d/2 mod k groups take
    the extra root); with more half-roots than groups, _swap_descent then
    regroups them at those sizes to lower the grid score.  Every factor is
    scaled by C^(1/2k), with C the leading coefficient, so that
    prod_j |R_j|^2 reproduces R.  The factor norms of round robin's grouping
    and, if the search moved it, of the searched one are found in one batch,
    and the plan takes the smaller K (round robin's on a tie).  With fewer
    half-roots than groups the trailing factors are constants, which is how
    tails like x^2 split across k=2 threads.  A complex source raises
    InputError, before any sign check; a real one that is not non-negative
    on the real line raises NotNonNegativeError.
    """
    if k < 1:
        raise InputError("thread count k must be at least 1")
    if R.max_imag() > 1e-12 * max(1.0, max(abs(c) for c in R.cheb)):
        raise InputError("factorization requires real coefficients")
    d = R.degree
    if d % 2:
        raise NotNonNegativeError(
            f"non-negative polynomial must have even degree, not odd degree {d}; "
            "estimate_chebyshev takes any bounded polynomial"
        )
    vals = np.array([c.real for c in R.cheb]) @ _chebyshev_rows(d)
    low = float(np.minimum.reduce(vals))
    if low < -1e-9 * max(1e-30, float(np.maximum.reduce(vals)), -low):
        raise NotNonNegativeError(
            f"polynomial is negative on [-1, 1] (min {low:.3e}); only "
            "non-negative sources factor into squared moduli, and estimate_chebyshev "
            "takes any bounded polynomial"
        )
    # the leading monomial coefficient: T_d = 2^(d-1) x^d + lower powers
    C = R.cheb[-1].real * 2.0 ** max(d - 1, 0)
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
    ordered = sorted(half, key=lambda z: (z.real, z.imag))
    dealt = np.arange(len(ordered)) % k
    searched = dealt if len(ordered) <= k else _swap_descent(ordered, dealt)
    candidates = []
    for labels in [dealt] if searched is dealt else [dealt, searched]:
        groups = labels.tolist()
        candidates.append(tuple(
            Polynomial.from_roots([z for z, g in zip(ordered, groups) if g == j], scale=scale_j)
            for j in range(k)
        ))
    all_norms = _sup_norms([f for factors in candidates for f in factors])
    constants = [math.prod(all_norms[i * k : (i + 1) * k]) for i in range(len(candidates))]
    best = constants.index(min(constants))  # round robin on a tie
    return FactorizationPlan(
        factors=candidates[best],
        factor_norms=all_norms[best * k : (best + 1) * k],
        factorization_constant=constants[best],
        k=k,
        source_degree=d,
        stored_constant=1.0,
    )


def rescale_factors(plan: FactorizationPlan) -> FactorizationPlan:
    """Divide each factor by its sup norm and fold the product into stored_constant.

    A plan whose factors are already unit-norm passes through unchanged.  The
    accumulated constant lets estimators undo the K^2 attenuation the
    normalization introduces.
    """
    for j, n in enumerate(plan.factor_norms):
        if not (n > 0.0) or not math.isfinite(n):
            raise InputError(f"factor {j} has degenerate norm {n!r}; cannot rescale")
    factors = tuple(f / n for f, n in zip(plan.factors, plan.factor_norms))
    norms = tuple(sup_norm(f) for f in factors)
    return FactorizationPlan(
        factors=factors,
        factor_norms=norms,
        factorization_constant=math.prod(norms),
        k=plan.k,
        source_degree=plan.source_degree,
        stored_constant=plan.stored_constant * math.prod(plan.factor_norms),
    )


def verify_factorization(plan: FactorizationPlan, source: Polynomial) -> float:
    """Max relative residual of stored^2 * prod |R_j|^2 against the source."""
    xs = np.linspace(-1.0, 1.0, VERIFY_GRID)
    recon = np.full(VERIFY_GRID, plan.stored_constant ** 2, dtype=float)
    for f in plan.factors:
        recon = recon * np.abs(f(xs)) ** 2
    src = np.real(source(xs))
    return float(np.max(np.abs(recon - src) / (1.0 + np.abs(src))))


@dataclass(frozen=True, eq=False)
class ParallelTermList:
    """Chebyshev product expansion of an even tail polynomial, as arrays.

    Term i is coeff[i] * T_a[i](x)^{2 j[i]} * T_b[i](x)^{2 l[i]}, in order
    of (a*2k + 2b, j, l).  ``ctilde`` maps the even index a*2k + 2b to the
    intermediate coefficient produced by rewriting mixed indices into
    products; the expanded coefficients are C = ctilde * t_{2k,2j} * t_{2,2l}.
    """

    coeff: np.ndarray
    a: np.ndarray
    b: np.ndarray
    j: np.ndarray
    l: np.ndarray
    ctilde: dict[int, float]

    @property
    def one_norm(self) -> float:
        return _one_norm(self.coeff)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        top = max(self.a.max(initial=0), self.b.max(initial=0))
        tvals = npcheb.chebval(xs.ravel(), np.eye(top + 1))  # row m holds T_m
        powers = tvals[self.a] ** (2 * self.j[:, None]) * tvals[self.b] ** (2 * self.l[:, None])
        acc = (self.coeff @ powers).reshape(xs.shape)
        return float(acc) if acc.ndim == 0 else acc


def _one_norm(coeff: np.ndarray) -> float:
    return float(sum(np.abs(coeff).tolist()))


@functools.lru_cache(maxsize=16)
def _t2k_row(k: int) -> tuple[float, ...]:
    """t_{2k,2j} for j = 0..k."""
    return tuple(float(chebyshev_coefficient(2 * k, 2 * j)) for j in range(k + 1))


def chebyshev_parallel_terms(p_high: Polynomial, k: int, d: int) -> ParallelTermList:
    """Rewrite an even tail polynomial into Chebyshev product terms.

    Expand p_high = sum c_{2j} T_{2j}, write each index as 2j = a*2k + 2b with
    0 <= b < k, and eliminate mixed indices from the highest block row down
    using T_{a*2k + 2b} = 2 T_{a*2k} T_{2b} - T_{(a-1)*2k + 2(k-b)}.  The
    surviving coefficients ctilde multiply T_{2k}(T_a) and T_2(T_b)
    expansions, giving terms in powers T_a^{2j} T_b^{2l} whose factor
    polynomials all have sup norm 1.  No term coefficient is zero: ctilde
    holds nonzero entries only, and every t_{2k,2j} and t_{2,2l} is a
    nonzero integer.  Which terms appear depends on k and ctilde's keys
    alone (_term_grid).
    """
    ctilde = _tail_ctilde(p_high, k, d)
    grid = _term_grid(k, tuple(sorted(ctilde)))
    return ParallelTermList(_term_coefficients(ctilde, k), *grid, ctilde)


def _tail_ctilde(p_high: Polynomial, k: int, d: int) -> dict[int, float]:
    """The nonzero ctilde of chebyshev_parallel_terms, by even index, after
    checking the tail's parity, reality and degree against k and d."""
    if k < 1:
        raise InputError("thread count k must be at least 1")
    if (d - k) % 2 or p_high.degree > max(d - k, 0):
        raise InputError(
            f"thread count parity must match the degree: k={k}, d={d}, "
            f"tail degree {p_high.degree}"
        )
    if p_high.max_imag() > 1e-12 * max(1.0, max(abs(c) for c in p_high.cheb)):
        raise InputError("expected real coefficients")
    if p_high.parity is not Parity.EVEN:
        raise InputError("tail polynomial must have even parity")

    # work[j] holds the running coefficient of T_{2j}; j = a*k + b
    work: dict[int, float] = {}
    for idx, c in enumerate(p_high.cheb):
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
    return ctilde


class _TermGrid(NamedTuple):
    """Term i's T_a[i]^{2 j[i]} T_b[i]^{2 l[i]}, as arrays."""

    a: np.ndarray
    b: np.ndarray
    j: np.ndarray
    l: np.ndarray


def _term_grid(k: int, keys: tuple[int, ...]) -> _TermGrid:
    """The terms of a tail whose ctilde has the sorted keys, in term order:
    for each key a*2k + 2b, j = 0..k, then l = 0, 1."""
    idx = np.repeat(np.array(keys, dtype=np.intp), 2 * (k + 1))
    j = np.tile(np.arange(k + 1).repeat(2), len(keys))
    return _TermGrid(idx // (2 * k), idx % (2 * k) // 2, j, np.tile(np.arange(2), len(j) // 2))


def _term_coefficients(ctilde: dict[int, float], k: int) -> np.ndarray:
    """C = (ctilde * t_{2k,2j}) * t_{2,2l}, in _term_grid's term order."""
    ct = np.array([ctilde[i] for i in sorted(ctilde)], dtype=float)
    return (ct[:, None, None] * np.array(_t2k_row(k))[:, None] * np.array([-1.0, 2.0])).ravel()


def term_layout(
    terms: ParallelTermList | _TermGrid, k: int
) -> tuple[tuple[Polynomial, ...], np.ndarray]:
    """The factor table and (terms x k) index of the terms' runs on k threads.

    The squared moduli of run i's k factors multiply to T_a^{2j} T_b^{2l}:
    with l=1 thread 0 takes T_a*T_b (or T_b alone when j=0) and the next j-1
    threads take T_a; with l=0 the first j threads take T_a; the constant 1
    fills the rest.  Every factor is a shared instance of norm 1.  Table row
    0 is the padding constant 1 and the other rows follow first appearance,
    thread by thread and term by term.
    """
    a, b, j, l = (v[:, None] for v in (terms.a, terms.b, terms.j, terms.l))
    n = int(max(terms.a.max(initial=0), terms.b.max(initial=0))) + 1
    # a thread's key: 0 for the constant 1, 1 + m for T_m, 1 + n + a*n + b for T_a*T_b
    key = np.where(np.arange(k) < j, 1 + a, 0)
    key[:, :1] = np.where(l == 1, np.where(j == 0, 1 + b, 1 + n + a * n + b), key[:, :1])
    codes, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)  # a row's position in the BLAS product q = weights @ w sets its bits
    table = [Polynomial.one()] + [
        Polynomial.one() if c == 0
        else chebyshev_polynomial(c - 1) if c <= n
        else _shared_polynomial("T", *divmod(c - 1 - n, n))
        for c in codes[order].tolist()
    ]
    return tuple(table), np.argsort(order)[inverse].reshape(key.shape) + 1
