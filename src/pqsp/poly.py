"""Polynomials in monomial and Chebyshev bases.

Everything downstream (factorization, block-encoded simulation, property
estimation) moves polynomials through this module.  Coefficients are complex
and stored lowest power first; trailing coefficients at or below 1e-12 in
magnitude are trimmed on construction so that ``degree`` is always the index
of the last coefficient that actually matters.

Sup norms on an interval are computed by a Chebyshev-node scan followed by
golden-section refinement of every local maximum, which is cheap and reliable
for the degree range (<= 200) this package targets.  A polynomial's [-1, 1]
norm is scanned once and kept on it; layout builders share their instances.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .errors import InputError

TRIM_TOL = 1e-12

__all__ = [
    "TRIM_TOL",
    "Parity",
    "Polynomial",
    "ChebyshevSeries",
    "sup_norm",
    "to_chebyshev",
    "from_chebyshev",
    "split_constituents",
    "parity_split",
    "chebyshev_coefficient",
    "chebyshev_coeff_bound",
    "chebyshev_coeff_1norm",
    "constituent_norm_bounds",
    "chebyshev_polynomial",
    "polynomial_from_dict",
]


class Parity(Enum):
    """Index-parity tag of a coefficient vector.

    A polynomial is tagged ``EVEN`` when every odd-index coefficient is at
    most 1e-12 in magnitude, ``ODD`` symmetrically, and ``INDEFINITE`` when
    both index classes carry weight.  The zero polynomial is tagged ``EVEN``
    by convention; validators that accept either parity treat it specially.
    """

    EVEN = "even"
    ODD = "odd"
    INDEFINITE = "indefinite"

    @staticmethod
    def of(coeffs: Sequence[complex], tol: float = TRIM_TOL) -> "Parity":
        has_even = any(abs(c) > tol for c in coeffs[0::2])
        has_odd = any(abs(c) > tol for c in coeffs[1::2])
        if has_even and has_odd:
            return Parity.INDEFINITE
        if has_odd:
            return Parity.ODD
        return Parity.EVEN


def _trim(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    cs = [complex(c) for c in coeffs]
    if not cs:
        cs = [0j]
    while len(cs) > 1 and abs(cs[-1]) <= TRIM_TOL:
        cs.pop()
    return tuple(cs)


def _coeff_pairs(coeffs: Sequence[complex]) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in coeffs]


def _parse_pairs(items) -> list[complex]:
    out = []
    for item in items:
        if isinstance(item, (int, float)):
            out.append(complex(item))
        else:
            re, im = item
            out.append(complex(re, im))
    return out


class Polynomial:
    """Dense univariate polynomial sum_n a_n x^n in the monomial basis."""

    # _norm holds sup_norm on [-1, 1] once computed; == and hash read coeffs only
    __slots__ = ("coeffs", "_norm")

    def __init__(self, coeffs: Iterable[complex]):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def parity(self) -> Parity:
        return Parity.of(self.coeffs)

    def is_zero(self) -> bool:
        return all(abs(c) <= TRIM_TOL for c in self.coeffs)

    def max_imag(self) -> float:
        return max(abs(c.imag) for c in self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's rule; accepts scalars or numpy arrays."""
        if isinstance(x, (int, float, complex)):
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = np.zeros_like(np.asarray(x, dtype=complex))
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if np.asarray(x).ndim == 0:
            return complex(acc)
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0])
        return Polynomial([n * c for n, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = list(self.coeffs), list(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([ca + (b[i] if i < len(b) else 0) for i, ca in enumerate(a)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(nppoly.polymul(np.array(self.coeffs), np.array(other.coeffs)))
        return Polynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    @classmethod
    def monomial(cls, n: int, coeff: complex = 1.0) -> "Polynomial":
        return cls([0] * n + [coeff])

    @classmethod
    def one(cls) -> "Polynomial":
        return _shared_polynomial("x", 0)

    @classmethod
    def from_roots(cls, roots: Sequence[complex], scale: complex = 1.0) -> "Polynomial":
        return cls(np.atleast_1d(nppoly.polyfromroots(np.array(roots, dtype=complex))) * scale)

    def to_dict(self) -> dict:
        return {"basis": "monomial", "coeffs": _coeff_pairs(self.coeffs)}

    @classmethod
    def from_dict(cls, obj: dict) -> "Polynomial":
        if obj.get("basis", "monomial") != "monomial":
            raise InputError("expected monomial basis; use polynomial_from_dict for mixed input")
        return cls(_parse_pairs(obj["coeffs"]))


class ChebyshevSeries:
    """Polynomial expressed as sum_n c_n T_n(x) over Chebyshev polynomials."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("ChebyshevSeries is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        val = npcheb.chebval(x, np.array(self.coeffs))
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return complex(val)
        return val

    def __eq__(self, other) -> bool:
        return isinstance(other, ChebyshevSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("cheb", self.coeffs))

    def __repr__(self) -> str:
        return f"ChebyshevSeries({list(self.coeffs)!r})"

    def to_dict(self) -> dict:
        return {"basis": "chebyshev", "coeffs": _coeff_pairs(self.coeffs)}

    @classmethod
    def from_dict(cls, obj: dict) -> "ChebyshevSeries":
        if obj.get("basis") != "chebyshev":
            raise InputError("expected chebyshev basis")
        return cls(_parse_pairs(obj["coeffs"]))


def polynomial_from_dict(obj: dict) -> Polynomial:
    """Parse either basis from its JSON form and return a monomial Polynomial."""
    basis = obj.get("basis", "monomial")
    if basis == "monomial":
        return Polynomial.from_dict(obj)
    if basis == "chebyshev":
        return from_chebyshev(ChebyshevSeries.from_dict(obj))
    raise InputError(f"unknown basis {basis!r}")


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f: Callable[[float], float], a: float, b: float) -> float:
    """Maximum of f on [a, b] by golden-section search; f assumed unimodal here."""
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    for _ in range(200):
        if d - c <= 1e-12 * (1.0 + abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
    mid = 0.5 * (a + b)
    return max(fc, fd, f(mid))


def sup_norm(p, a: float = -1.0, b: float = 1.0) -> float:
    """max |p(x)| over [a, b], resolved to about 1e-8 relative accuracy.

    Scans max(400, 12*(degree+1)) Chebyshev nodes plus both endpoints, then
    refines every interior local maximum with golden-section search.  A
    Polynomial's [-1, 1] norm is scanned once, on first request, then read back.
    """
    if (a, b) != (-1.0, 1.0) or not isinstance(p, Polynomial):
        return _scan_sup_norm(p, a, b)
    if not hasattr(p, "_norm"):
        object.__setattr__(p, "_norm", _scan_sup_norm(p, a, b))
    return p._norm


def _scan_sup_norm(p, a: float, b: float) -> float:
    if b <= a:
        raise InputError("empty interval")
    deg = p.degree
    if deg == 0:
        return float(abs(p.coeffs[0]))
    n = max(400, 12 * (deg + 1))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    theta = (2 * np.arange(1, n + 1) - 1) * math.pi / (2 * n)
    xs = np.concatenate(([a], np.sort(mid + half * np.cos(theta)), [b]))
    vals = np.abs(p(xs))
    best = float(vals.max())

    def f(x: float) -> float:
        return abs(p(x))

    # strict on the left so a plateau of ties yields one representative,
    # not a search per grid point
    interior = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    for i in interior:
        best = max(best, _golden_max(f, xs[i - 1], xs[i + 1]))
    # endpoints may hide a maximum inside the first grid cell
    best = max(best, _golden_max(f, xs[0], xs[1]), _golden_max(f, xs[-2], xs[-1]))
    return best


def to_chebyshev(p: Polynomial) -> ChebyshevSeries:
    """Basis change by the exact recurrence-built transformation."""
    return ChebyshevSeries(npcheb.poly2cheb(np.array(p.coeffs)))


def from_chebyshev(s: ChebyshevSeries) -> Polynomial:
    return Polynomial(npcheb.cheb2poly(np.array(s.coeffs)))


def chebyshev_polynomial(n: int) -> Polynomial:
    """T_n in the monomial basis (exact integer coefficients for n <= 50)."""
    if n < 0:
        raise InputError("order must be non-negative")
    return _shared_polynomial("T", n)


@functools.lru_cache(maxsize=256)
def _shared_polynomial(kind: str, m: int, n: int = 0) -> Polynomial:
    """The one shared T_m (times T_n when n > 0) or x^m: built and norm-scanned once."""
    if kind == "x":
        return Polynomial([0] * m + [1.0])
    t_m = from_chebyshev(ChebyshevSeries([0.0] * m + [1.0]))
    return t_m * _shared_polynomial("T", n) if n else t_m


def split_constituents(p: Polynomial, k: int) -> tuple[Polynomial, Polynomial]:
    """Split p = p_low + x^k * p_high with deg(p_low) <= k-1.

    Requires 1 <= k <= degree(p); a k beyond the degree leaves nothing to
    parallelize and is rejected.
    """
    if k < 1:
        raise InputError("constituent order k must be at least 1")
    if k > p.degree:
        raise InputError(
            f"nothing to parallelize: k={k} exceeds the polynomial degree {p.degree}"
        )
    return Polynomial(p.coeffs[:k]), Polynomial(p.coeffs[k:])


def parity_split(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Return (even part, odd part); their sum reproduces p exactly."""
    even = [c if i % 2 == 0 else 0 for i, c in enumerate(p.coeffs)]
    odd = [c if i % 2 == 1 else 0 for i, c in enumerate(p.coeffs)]
    return Polynomial(even), Polynomial(odd)


def _check_index_pair(d: int, n: int) -> bool:
    if d < 1:
        raise InputError("degree must be at least 1")
    if not 0 <= n <= d:
        raise InputError(f"coefficient index n={n} out of range for degree {d}")
    return (d - n) % 2 == 0


def chebyshev_coefficient(d: int, n: int, strict: bool = True) -> int:
    """Monomial coefficient t_{d,n} of x^n in T_d, as an exact integer.

    t_{d,n} = (-1)^((d-n)/2) * 2^(n-1) * d * ((d+n)/2 - 1)! / ((d-n)/2)! / n!

    Indices of the wrong parity carry no weight; with strict=True they raise,
    otherwise the value 0 is returned so callers can sum blindly.
    """
    if not _check_index_pair(d, n):
        if strict:
            raise InputError(f"T_{d} has no x^{n} term (parity mismatch)")
        return 0
    num = d * math.factorial((d + n) // 2 - 1) * (1 << n)
    den = 2 * math.factorial((d - n) // 2) * math.factorial(n)
    mag = num // den
    return -mag if ((d - n) // 2) % 2 else mag


def chebyshev_coeff_bound(d: int, n: int) -> float:
    """Upper bound (d+n)^n / n! on |t_{d,n}|, valid for parity-matched indices."""
    if not _check_index_pair(d, n):
        raise InputError(f"bound defined for parity-matched indices only (d={d}, n={n})")
    return float((d + n) ** n) / math.factorial(n)


def chebyshev_coeff_1norm(n: int) -> float:
    """sum_j |t_{2n,2j}| in closed form: ((1+sqrt2)^{2n} + (1-sqrt2)^{2n}) / 2."""
    if n < 0:
        raise InputError("order must be non-negative")
    r = 1.0 + math.sqrt(2.0)
    s = 1.0 - math.sqrt(2.0)
    return 0.5 * (r ** (2 * n) + s ** (2 * n))


def constituent_norm_bounds(d: int, k: int) -> tuple[float, float]:
    """A priori sup-norm bounds for the constituents of a sup-normalized degree-d polynomial.

    bound_low  = sum_{n=0}^{k-1} (d+n)^n / n!          covers ||p_low||
    bound_high = sqrt(2) * sqrt( sum_{n=k}^{d} ((n+k)^k / k!)^2 )   covers ||p_high||
    """
    if not 1 <= k <= d:
        raise InputError(f"need 1 <= k <= d (got k={k}, d={d})")
    low = sum(float((d + n) ** n) / math.factorial(n) for n in range(k))
    hi_sq = sum((float((n + k) ** k) / math.factorial(k)) ** 2 for n in range(k, d + 1))
    return low, math.sqrt(2.0) * math.sqrt(hi_sq)
