"""Polynomials held as Chebyshev series.

Everything downstream (factorization, block-encoded simulation, property
estimation) moves polynomials through this module.  A Polynomial stores the
complex coefficients c_n of sum_n c_n T_n(x), lowest order first.  Arithmetic,
evaluation (Clenshaw's recurrence), the constituent and parity splits and the
sup norm all stay in that basis, which keeps its precision at the degrees the
entropy approximants need: a degree-79 approximant has Chebyshev coefficients
below 0.25 and monomial ones up to 1e26.

``Polynomial(coeffs)`` takes monomial coefficients, the form JSON files and
callers write by hand, and ``coeffs`` gives that monomial view back; basis
changes happen in this module only.  Trailing coefficients at or below 1e-12
in magnitude are trimmed in the basis they are given in, so ``degree`` is
always the index of the last coefficient that actually matters.

The [-1, 1] sup norm comes from the colleague matrix (Battles and Trefethen,
SIAM J. Sci. Comput. 25, 2004): |p| is evaluated at both ends and at the
stationary points of |p|^2, for a batch of polynomials at once.  It is
computed once per polynomial and kept on it, scalar multiples carry it
along, and layout builders share their instances.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import InputError

TRIM_TOL = 1e-12

__all__ = [
    "TRIM_TOL",
    "Parity",
    "Polynomial",
    "sup_norm",
    "split_constituents",
    "parity_split",
    "chebyshev_coefficient",
    "chebyshev_coeff_bound",
    "chebyshev_coeff_1norm",
    "constituent_norm_bounds",
    "chebyshev_polynomial",
]


class Parity(Enum):
    """Index-parity tag of a coefficient vector.

    A polynomial is tagged ``EVEN`` when every odd-index coefficient is at
    most 1e-12 in magnitude, ``ODD`` symmetrically, and ``INDEFINITE`` when
    both index classes carry weight.  T_n has the parity of n, so the tag of
    the Chebyshev coefficients is the parity of the function.  The zero
    polynomial is tagged ``EVEN`` by convention; validators that accept
    either parity treat it specially.
    """

    EVEN = "even"
    ODD = "odd"
    INDEFINITE = "indefinite"

    @staticmethod
    def of(coeffs: Sequence[complex]) -> "Parity":
        has_even = any(abs(c) > TRIM_TOL for c in coeffs[0::2])
        has_odd = any(abs(c) > TRIM_TOL for c in coeffs[1::2])
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


def _poly2cheb(mono: Sequence[complex]) -> tuple[complex, ...]:
    """Monomial to Chebyshev coefficients: numpy's poly2cheb, step for step.

    Horner's scheme in the Chebyshev basis, highest power first: multiply by
    x as chebmulx does, add the next coefficient, drop exact trailing zeros.
    The operations and their order are numpy's, so the result has the same
    bits; plain complex lists avoid numpy's per-step array overhead, which
    dominates at the degrees used here.
    """
    res = [0j]
    for a in reversed(mono):
        if len(res) > 1 or res[0] != 0:
            half = [c / 2 for c in res[1:]]
            res = [res[0] * 0, res[0], *half]
            for i, h in enumerate(half):
                res[i] += h
        res[0] += a
        while len(res) > 1 and res[-1] == 0:
            res.pop()
    return tuple(res)


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
    """Dense univariate polynomial sum_n c_n T_n(x) in the Chebyshev basis."""

    # cheb holds the coefficients; _mono (the monomial view), _norm (the
    # sup norm on [-1, 1]) and _parity are filled once, on first request;
    # == and hash read cheb only
    __slots__ = ("cheb", "_mono", "_norm", "_parity")

    def __init__(self, coeffs: Iterable[complex]):
        """The polynomial sum_n coeffs[n] x^n, from monomial coefficients."""
        mono = _trim(coeffs)
        object.__setattr__(self, "_mono", mono)
        object.__setattr__(self, "cheb", _poly2cheb(mono))

    @classmethod
    def from_cheb(cls, coeffs: Iterable[complex]) -> "Polynomial":
        """The polynomial sum_n coeffs[n] T_n(x)."""
        p = cls.__new__(cls)
        object.__setattr__(p, "cheb", _trim(coeffs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self) -> tuple[complex, ...]:
        """Monomial coefficients, lowest power first: as given, or converted once."""
        if not hasattr(self, "_mono"):
            mono = tuple(complex(c) for c in npcheb.cheb2poly(self.cheb))
            object.__setattr__(self, "_mono", mono)
        return self._mono

    @property
    def degree(self) -> int:
        return len(self.cheb) - 1

    @property
    def parity(self) -> Parity:
        if not hasattr(self, "_parity"):
            object.__setattr__(self, "_parity", Parity.of(self.cheb))
        return self._parity

    def is_zero(self) -> bool:
        return all(abs(c) <= TRIM_TOL for c in self.cheb)

    def max_imag(self) -> float:
        return max(abs(c.imag) for c in self.cheb)

    def __call__(self, x):
        """Evaluate by Clenshaw's recurrence (as chebval does); scalars or arrays."""
        scalar = isinstance(x, (int, float, complex))
        val = _clenshaw(self.cheb, complex(x) if scalar else np.asarray(x))
        return complex(val) if scalar or val.ndim == 0 else val

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_cheb(npcheb.chebadd(self.cheb, other.cheb))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            cheb = npcheb.chebmul(self.cheb, other.cheb)
            return self._scaled([complex(c) for c in cheb], None)
        norm = abs(other) * self._norm if hasattr(self, "_norm") else None
        return self._scaled([complex(c * other) for c in self.cheb], norm)

    __rmul__ = __mul__

    def __truediv__(self, s: complex) -> "Polynomial":
        norm = self._norm / abs(s) if hasattr(self, "_norm") else None
        return self._scaled([complex(c / s) for c in self.cheb], norm)

    @staticmethod
    def _scaled(cheb: list[complex], norm: float | None) -> "Polynomial":
        """A scalar multiple or a product, with its norm if known.  Only exact
        zeros are trimmed: the degree stays however small the top coefficient
        gets, and a zero scale gives the zero polynomial."""
        while len(cheb) > 1 and cheb[-1] == 0:
            cheb.pop()
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "cheb", tuple(cheb))
        if norm is not None:
            object.__setattr__(p, "_norm", norm)
        return p

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.cheb == other.cheb

    def __hash__(self):
        return hash(self.cheb)

    def __repr__(self) -> str:
        return f"Polynomial.from_cheb({list(self.cheb)!r})"

    @classmethod
    def monomial(cls, n: int, coeff: complex = 1.0) -> "Polynomial":
        return cls([0] * n + [coeff])

    @classmethod
    def one(cls) -> "Polynomial":
        return _shared_polynomial("x", 0)

    @classmethod
    def from_roots(cls, roots: Sequence[complex], scale: complex = 1.0) -> "Polynomial":
        return cls.from_cheb(npcheb.chebfromroots(np.array(roots, dtype=complex)) * scale)

    def to_dict(self) -> dict:
        return {"basis": "monomial", "coeffs": [[c.real, c.imag] for c in self.coeffs]}

    @classmethod
    def from_dict(cls, obj: dict) -> "Polynomial":
        """Parse the JSON form, whose coefficients are in either basis."""
        basis = obj.get("basis", "monomial")
        if basis not in ("monomial", "chebyshev"):
            raise InputError(f"unknown basis {basis!r}")
        coeffs = _parse_pairs(obj["coeffs"])
        return cls(coeffs) if basis == "monomial" else cls.from_cheb(coeffs)


def _clenshaw(c, x):
    """sum_n c[n] T_n(x) by Clenshaw's recurrence as chebval; c[n] may broadcast on x."""
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    x2 = 2 * x
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def sup_norm(p: Polynomial) -> float:
    """max |p(x)| over [-1, 1], computed on first request and kept on p.

    |p|^2 is extremal at the ends and at the real roots of its slope, the
    derivative of |p|^2 (of p when p is real); the eigenvalues of the slope's
    colleague matrix give those roots, and |p| is evaluated at both ends and
    at the real part of every root, clipped into the interval.
    """
    return p._norm if hasattr(p, "_norm") else _sup_norms((p,))[0]


def _sup_norms(polys: Sequence[Polynomial]) -> tuple[float, ...]:
    """sup_norm of each polynomial; the ones not yet known share one kernel call."""
    todo = [p for p in polys if not hasattr(p, "_norm")]
    for p, norm in zip(todo, _colleague_norms([p.cheb for p in todo])):
        object.__setattr__(p, "_norm", norm)
    return tuple(p._norm for p in polys)


def _colleague_norms(series: Sequence[Sequence[complex]]) -> list[float]:
    """max |p| on [-1, 1] of each Chebyshev series.  Real and complex series
    form one zero-padded stack each (padding adds exact zeros, so a norm does
    not depend on the batch); a stack's slopes of one degree share one eigvals call."""
    norms = [abs(c[0]) for c in series]
    for real in (True, False):
        rows = [i for i, c in enumerate(series)
                if len(c) > 1 and all(z.imag == 0 for z in c) is real]
        if not rows:
            continue
        m, n = len(rows), max(len(series[i]) for i in rows) - 1
        cs = np.array([(*series[i], *(0j,) * (n + 1 - len(series[i]))) for i in rows])
        cs = q = cs.real if real else cs
        if not real:  # 2|p|^2, as T_i T_j = (T_{i+j} + T_{|i-j|}) / 2 fills two bins per term
            w = (cs[:, :, None] * cs.conj()[:, None, :]).real.ravel()
            i, j = np.arange(n + 1)[:, None], np.arange(n + 1)
            base = (2 * n + 1) * np.arange(m)[:, None, None]
            q = np.bincount((base + i + j).ravel(), w, m * (2 * n + 1))
            q = (q + np.bincount((base + abs(i - j)).ravel(), w, len(q))).reshape(m, -1)
        # (q')_k sums 2 j q_j over j = k+1, k+3, ... (halved at k = 0)
        terms = q[:, :0:-1] * np.arange(2 * q.shape[1] - 2, 0, -2)
        slopes = np.empty_like(terms)
        slopes[:, 0::2], slopes[:, 1::2] = terms[:, 0::2].cumsum(1), terms[:, 1::2].cumsum(1)
        slopes = slopes[:, ::-1]
        slopes[:, 0] *= 0.5
        xs = np.full((m, slopes.shape[1] + 1), -1.0)  # both ends, roots, repeats of -1
        xs[:, 1] = 1.0
        degree = [len(series[i]) - 2 if real else 2 * len(series[i]) - 3 for i in rows]
        for d in set(degree):
            at = [r for r, e in enumerate(degree) if e == d]
            s = slopes[at, : d + 1]
            if d < 2:
                xs[at, 2 : 2 + d] = -s[:, :d] / s[:, d:]
                continue
            # numpy's chebcompanion, rotated as chebroots does
            mats, k = np.zeros((len(at), d, d)), np.arange(d - 1)
            mats[:, k, k + 1] = mats[:, k + 1, k] = [math.sqrt(0.5)] + [0.5] * (d - 2)
            scl = np.array([1.0] + [math.sqrt(0.5)] * (d - 1))
            mats[:, :, -1] -= (s[:, :-1] / s[:, -1:]) * (scl / scl[-1]) * 0.5
            xs[at, 2 : 2 + d] = np.linalg.eigvals(mats[:, ::-1, ::-1]).real
        xs = np.minimum(np.maximum(xs, -1.0), 1.0)
        vals = np.abs(_clenshaw(cs.T[:, :, None], xs)).max(axis=1)
        for i, v in zip(rows, vals.tolist()):
            norms[i] = v
    return norms


def chebyshev_polynomial(n: int) -> Polynomial:
    """T_n, one shared instance per order."""
    if n < 0:
        raise InputError("order must be non-negative")
    return _shared_polynomial("T", n)


@functools.lru_cache(maxsize=256)
def _shared_polynomial(kind: str, m: int, n: int = 0) -> Polynomial:
    """The one shared T_m (times T_n when n > 0) or x^m, built once.

    Each is bounded by 1 on [-1, 1] and equals 1 at x = 1, so its sup norm
    is set to exactly 1 rather than computed.
    """
    if kind == "x":
        p = Polynomial.monomial(m)
    else:
        p = Polynomial.from_cheb([0.0] * m + [1.0])
        p = p * _shared_polynomial("T", n) if n else p
    object.__setattr__(p, "_norm", 1.0)
    return p


def split_constituents(p: Polynomial, k: int) -> tuple[Polynomial, Polynomial]:
    """Split p = p_low + x^k * p_high with deg(p_low) <= k-1.

    p_high never leaves the Chebyshev basis: k times, the series' value at 0
    is taken as the next Taylor coefficient of p_low, and the series minus
    that value is divided by x.  Requires 1 <= k <= degree(p); a k beyond
    the degree leaves nothing to parallelize and is rejected.
    """
    if k < 1:
        raise InputError("constituent order k must be at least 1")
    if k > p.degree:
        raise InputError(
            f"nothing to parallelize: k={k} exceeds the polynomial degree {p.degree}"
        )
    taylor, c = [], list(p.cheb)
    for _ in range(k):
        taylor.append(sum(c[0::4]) - sum(c[2::4]))  # T_j(0) = 1, 0, -1, 0, ...
        # q = (c - c(0)) / x from the top: x T_0 = T_1, x T_j = (T_{j+1} + T_{j-1}) / 2
        q = [0j] * (len(c) + 1)
        for j in range(len(c) - 1, 1, -1):
            q[j - 1] = 2 * c[j] - q[j + 1]
        q[0] = c[1] - q[2] / 2
        c = q[: len(c) - 1]
    return Polynomial(taylor), Polynomial.from_cheb(c)


def parity_split(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Return (even part, odd part); their sum reproduces p exactly."""
    even = [c if i % 2 == 0 else 0 for i, c in enumerate(p.cheb)]
    odd = [c if i % 2 == 1 else 0 for i, c in enumerate(p.cheb)]
    return Polynomial.from_cheb(even), Polynomial.from_cheb(odd)


def _check_index_pair(d: int, n: int) -> bool:
    if d < 1:
        raise InputError("degree must be at least 1")
    if not 0 <= n <= d:
        raise InputError(f"coefficient index n={n} out of range for degree {d}")
    return (d - n) % 2 == 0


def chebyshev_coefficient(d: int, n: int) -> int:
    """Monomial coefficient t_{d,n} of x^n in T_d, as an exact integer.

    t_{d,n} = (-1)^((d-n)/2) * 2^(n-1) * d * ((d+n)/2 - 1)! / ((d-n)/2)! / n!

    An index of the wrong parity has no term in T_d and raises InputError.
    """
    if not _check_index_pair(d, n):
        raise InputError(f"T_{d} has no x^{n} term (parity mismatch)")
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
