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

The [-1, 1] sup norm evaluates |p| at both ends and at the stationary points
of |p|^2.  A series whose slope has degree at most 3 (real of degree 2-4,
complex of degree 2) takes them in closed form, by the quadratic formula or
Cardano's.  A longer one is read on the N + 1 Chebyshev extreme points
cos(j pi / N), N at least 64 times the degree of p (of |p|^2 if complex),
by one real FFT per series length.  The grid's largest |p|, M, certifies
M <= ||p|| <= M sec(pi d / 2N) (Ehlich and Zeller, Math. Z. 86, 1964), and
threshold verdicts (_norms_exceed) decide from that interval.  The exact
norm polishes each grid peak that could hold the maximum by Newton's method
inside its grid cell, O(d log d) in all; a slope shorter than _GRID_SLOPE,
or a polish that leaves its cell or stalls, takes the colleague-matrix
eigensolve instead (Battles and Trefethen, SIAM J. Sci. Comput. 25, 2004),
O(d^3), for a batch of polynomials at once.  Each series is first scaled
by the power of two nearest its largest |c_n|, which is exact, so |p|^2
neither under- nor overflows.  The norm is computed once per polynomial and
kept on it, scalar multiples carry it along, and layout builders share
their instances; a series is gridded at most once, its interval kept on it
for every later verdict.
"""

from __future__ import annotations

import cmath
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


def _check_finite(cs: list[complex]) -> None:
    if not all(map(cmath.isfinite, cs)):
        n = next(n for n, c in enumerate(cs) if not cmath.isfinite(c))
        raise InputError(f"coefficient {n} is not finite: {cs[n]}")


def _trim(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    cs = [complex(c) for c in coeffs]
    _check_finite(cs)
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


def _cheb2poly(cheb: Sequence[complex]) -> tuple[complex, ...]:
    """Chebyshev to monomial coefficients: numpy's cheb2poly, step for step.

    The recurrence c0, c1 <- c[i-2] - c1, c0 + 2x c1 from the top, finished
    by c0 + x c1, with polyadd's, polysub's and polymulx's padding, operand
    order and exact-zero trimming, so the result has numpy's bits, signed
    zeros included, on plain complex lists: about 22 us at degree 12.
    """
    c = [complex(z) for z in cheb]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    if len(c) < 3:
        return tuple(c)
    c0, c1 = [c[-2]], [c[-1]]
    for a in c[-3::-1]:
        low = [-y for y in c1]  # polysub([a], c1) adds a to -c1
        low[0] += a
        # polymulx(c1) prepends c1[0] * 0, unless c1 is the zero series
        up = [c1[0] * 2] if len(c1) == 1 and c1[0] == 0 else [c1[0] * 0 * 2, *(y * 2 for y in c1)]
        for j, y in enumerate(c0):  # up is at least as long as c0
            up[j] += y
        for t in (low, up):
            while len(t) > 1 and t[-1] == 0:
                t.pop()
        c0, c1 = low, up
    up = c1 if len(c1) == 1 and c1[0] == 0 else [c1[0] * 0, *c1]
    long, short = (c0, up) if len(c0) > len(up) else (up, c0)
    out = [x + y for x, y in zip(long, short)] + long[len(short):]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _cheb_mul(c1: list[complex], c2: list[complex]) -> list[complex]:
    """The product of two Chebyshev series as numpy's chebmul forms it: the
    convolution of their z-series (c_n / 2 on both sides of c_0), each term
    summed in np.convolve's order, then folded back.  Halving and doubling
    are exact, so only the order of the sums can differ from numpy's."""
    zs = [[*(x / 2 for x in c[:0:-1]), c[0], *(x / 2 for x in c[1:])] for c in (c1, c2)]
    a, v = sorted(zs, key=len, reverse=True)  # np.convolve slides the shorter one
    folded = []
    for m in range(len(c1) + len(c2) - 2, len(a) + len(v) - 1):
        s = 0j
        for i in range(max(0, m - len(v) + 1), min(len(a), m + 1)):
            s += a[i] * v[m - i]
        folded.append(s if not folded else 2 * s)
    return folded


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
    # sup norm on [-1, 1]), _bound (the grid's certified interval, see
    # _norms_exceed) and _parity are filled once, on first request; == and
    # hash read cheb only
    __slots__ = ("cheb", "_mono", "_norm", "_bound", "_parity")

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
            object.__setattr__(self, "_mono", _cheb2poly(self.cheb))
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
        gets, and a zero scale gives the zero polynomial.  A non-finite
        scale or an overflow is rejected as a constructor rejects it."""
        _check_finite(cheb)
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
        """scale * prod_z (x - z), built as numpy's chebfromroots builds it.

        The factors T_1 - z, in sorted order, are multiplied pairwise in
        chebfromroots' tree, so the result matches it to round-off; plain
        complex lists avoid its per-call array overhead, which dominates at
        the degrees used here.
        """
        ps = [[-z, 1 + 0j] for z in sorted(map(complex, roots), key=lambda z: (z.real, z.imag))]
        while len(ps) > 1:
            m = len(ps) // 2
            tmp = [_cheb_mul(ps[i], ps[i + m]) for i in range(m)]
            if len(ps) % 2:
                tmp[0] = _cheb_mul(tmp[0], ps[-1])
            ps = tmp
        return cls.from_cheb([c * scale for c in ps[0]] if ps else [scale])

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


# The grid holds N + 1 points for a p (or |p|^2, if complex) of degree n, N
# at least 64 n and 2^a, 3 * 2^a or 5 * 2^a: its bound is then within
# sec(pi / 128) - 1 = 3.0e-4 of M.  An FFT of a length with a large prime
# factor costs more: 2N = 128 * 1187 took 38 ms against 4.1 ms at 2^18
# (one core).
_GRID = 64
# Slopes of a lower degree keep the eigensolve for exact norms.  A lone series
# polished costs 120-220 us up to slope degree 40; the eigensolve grows from
# 80 us at slope degree 4 and passes it at slope degree 16-20, real or
# complex (one core; the table is in CHANGES.md).
_GRID_SLOPE = 18
# Newton steps a peak may take; from the parabola's vertex one or two converge.
_POLISH_STEPS = 8


def sup_norm(p: Polynomial) -> float:
    """max |p(x)| over [-1, 1], computed on first request and kept on p.

    |p| is read on the N + 1 Chebyshev extreme points cos(j pi / N) by one
    FFT (see _grid).  Every grid peak within the Ehlich-Zeller factor of the
    largest is polished by Newton on (|p|^2)' (zero at the peaks of |p|
    where p' is, for a real p) inside its own grid cell, and |p| is
    evaluated there and at both ends by Clenshaw's recurrence.  A polish that leaves its cell or stalls
    sends its series to the colleague-matrix eigensolve, which also takes
    every slope of degree below _GRID_SLOPE; _short_norm's closed forms take
    the slopes of degree at most 3.
    """
    return p._norm if hasattr(p, "_norm") else _sup_norms((p,))[0]


def _sup_norms(polys: Sequence[Polynomial]) -> tuple[float, ...]:
    """sup_norm of each polynomial; the ones not yet known share one kernel call."""
    todo = [p for p in polys if not hasattr(p, "_norm")]
    for p, norm in zip(todo, _exact_norms([p.cheb for p in todo])):
        object.__setattr__(p, "_norm", norm)
    return tuple(p._norm for p in polys)


def _norms_exceed(polys: Sequence[Polynomial], limit: float) -> list[bool]:
    """sup_norm(p) > limit for each p, read from the certified interval
    [M, M s] of _grid where it decides.

    A norm already known, or in closed form, is compared as it is.  A longer
    series is gridded once: its interval (with its row's 1-norm and scale)
    is kept on p as _bound, so a later verdict on p, at any limit, reads it
    instead of a second FFT.  One whose interval, widened by 1e-12 of limit
    and by the FFT's round-off (2^-44 of the Chebyshev 1-norm), still holds
    limit takes its exact norm, kept on p; those share one kernel call.  A
    polished norm and the eigensolve's round |p| at different points, up to
    160 ulps apart (see CHANGES.md), so one within 2^-44 of limit is
    replaced by the eigensolve's, whose verdict earlier releases gave.
    """
    if all(hasattr(p, "_norm") for p in polys):
        return [p._norm > limit for p in polys]
    fresh = [p for p in polys if not hasattr(p, "_norm") and not hasattr(p, "_bound")]
    for rows, cs, real, exps in _stacks([p.cheb for p in fresh], 4):
        g, s = _grid(cs, real)
        for r, m, one, e in zip(rows, g.max(1).tolist(), np.abs(cs).sum(1).tolist(), exps):
            object.__setattr__(fresh[r], "_bound", (m, s, one, 2.0**-e))
    verdicts: dict[int, bool] = {}
    for i, p in enumerate(polys):
        if hasattr(p, "_bound") and not hasattr(p, "_norm"):
            m, s, one, scale = p._bound
            slack = 1e-12 * limit * scale + 2.0**-44 * one
            if not m - slack <= limit * scale <= m * s + slack:
                verdicts[i] = m > limit * scale
    todo = [p for i, p in enumerate(polys) if i not in verdicts and not hasattr(p, "_norm")]
    norms = _exact_norms([p.cheb for p in todo])
    near = [j for j, norm in enumerate(norms) if abs(norm - limit) <= 2.0**-44 * limit]
    for j, norm in zip(near, _colleague_norms([todo[j].cheb for j in near]) if near else ()):
        norms[j] = norm
    for p, norm in zip(todo, norms):
        object.__setattr__(p, "_norm", norm)
    return [verdicts[i] if i in verdicts else p._norm > limit for i, p in enumerate(polys)]


def _stacks(series: Sequence[Sequence[complex]], min_slope: int):
    """The series whose slope, p' or (|p|^2)', has degree at least
    min_slope, in stacks of one length and kind: (their indices, rows scaled
    by 2^-e as _colleague_norms scales them, real, e of each row)."""
    groups: dict[tuple[int, bool], list[int]] = {}
    for i, c in enumerate(series):
        if 2 * len(c) - 3 < min_slope:  # too short, even if complex
            continue
        real = all(z.imag == 0 for z in c)
        if (len(c) - 2 if real else 2 * len(c) - 3) >= min_slope:
            groups.setdefault((len(c), real), []).append(i)
    for (_, real), rows in groups.items():
        exps = [_binade(series[i]) for i in rows]
        cs = np.array([series[i] for i in rows])
        cs = (cs.real if real else cs) * np.array([2.0**-e for e in exps])[:, None]
        yield rows, cs, real, exps


def _grid_size(n: int) -> int:
    """N for degree n: the smallest 2^a, 3 * 2^a or 5 * 2^a at least _GRID * n."""
    return min(m << (-(-_GRID * n // m) - 1).bit_length() for m in (1, 3, 5))


def _grid(cs: np.ndarray, real: bool) -> tuple[np.ndarray, float]:
    """|p| on the N + 1 points cos(j pi / N), j = 0..N, of each row of a
    stack of one length, and s with ||p|| <= M s for M the row's largest.

    p(cos(j pi / N)) = sum_k c_k cos(pi j k / N) is the real part of one
    real FFT of length 2N per row.  For p real of degree n < N, Ehlich and
    Zeller (Math. Z. 86, 1964) give M <= ||p|| <= M sec(pi n / 2N); a
    complex p takes the bound of |p|^2, of degree n = 2d, from its real and
    imaginary rows, so s is that secant's square root.  N depends on the
    row's length only, so no value depends on the batch.
    """
    n = (cs.shape[1] - 1) * (1 if real else 2)
    size = _grid_size(n)
    rows = cs if real else np.concatenate((cs.real, cs.imag))
    v = np.fft.rfft(rows, 2 * size)[:, : size + 1].real
    g = np.abs(v) if real else np.hypot(v[: len(cs)], v[len(cs) :])
    sec = 1.0 / math.cos(math.pi * n / (2 * size))
    return g, sec if real else math.sqrt(sec)


def _exact_norms(series: Sequence[Sequence[complex]]) -> list[float]:
    """max |p| on [-1, 1] of each Chebyshev series: polished from the grid
    (_polished) from slope degree _GRID_SLOPE up, from _colleague_norms
    below it and wherever a polish fails."""
    if all(2 * len(c) - 3 < _GRID_SLOPE for c in series):  # none long enough, even if complex
        return _colleague_norms(series)
    norms: list[float | None] = [None] * len(series)
    for rows, cs, real, exps in _stacks(series, _GRID_SLOPE):
        for r, e, norm in zip(rows, exps, _polished(cs, real)):
            if norm is not None:
                norms[r] = norm * 2.0**e
    rest = [i for i, norm in enumerate(norms) if norm is None]
    for i, norm in zip(rest, _colleague_norms([series[i] for i in rest]) if rest else ()):
        norms[i] = norm
    return norms


def _polished(cs: np.ndarray, real: bool) -> list[float | None]:
    """max |p| of each row of a scaled stack, or None where a polish fails.

    The peaks of the grid (ends included, as |p(cos t)| is even in t) that
    reach M / s are candidates: no other cell can hold the maximum.  Each
    starts at the vertex of the parabola through its three grid values and
    takes Newton steps on d|p|^2/dt, in t = arccos x, from sums of c_k
    cos(kt) and c_k sin(kt); a t = 0 or pi end has zero slope and stays.
    Taylor's theorem with Bernstein's bound on the third derivative bounds
    the distance a step leaves to the peak, and a peak converges, at a
    maximum of |p|^2, once that distance moves |p|^2 by under 2^-60 of its
    norm.  One that does not within _POLISH_STEPS, or that ends more than a
    cell from its grid point, fails its row.  |p| is evaluated by Clenshaw's
    recurrence, as _colleague_norms evaluates it, at cos t of each converged
    peak and at both ends, one point at a time on plain floats, which costs
    less for a few points than L array steps.  Each peak is polished on its
    own, so a norm does not depend on the batch.
    """
    g, s = _grid(cs, real)
    h = math.pi / (g.shape[1] - 1)
    pad = np.concatenate((g[:, 1:2], g, g[:, -2:-1]), axis=1)
    a, b, c = pad[:, :-2], g, pad[:, 2:]
    top = g.max(1, keepdims=True)
    rows, js = np.nonzero((b >= a) & (b >= c) & (b * s >= top))
    a, b, c = a[rows, js], b[rows, js], c[rows, js]
    curve = a - 2 * b + c
    t = h * (js + np.divide(a - c, 2 * curve, out=np.zeros_like(curve), where=curve < 0))
    k = np.arange(cs.shape[1])
    n = 2 * k[-1]  # the degree of |p(cos t)|^2 in t
    cap = n**3 * (top[rows, 0] * s) ** 2 / 4  # bounds |d^3 |p|^2 / dt^3| / 4 (Bernstein)
    coef = cs[rows]
    ok = np.zeros(len(rows), bool)
    todo = np.arange(len(rows))
    for _ in range(_POLISH_STEPS):
        cf = coef[todo]
        kt = np.multiply.outer(t[todo], k)
        even, odd = cf * np.cos(kt), cf * k * np.sin(kt)
        p0, p1, p2 = even.sum(1), -odd.sum(1), -(even * (k * k)).sum(1)
        slope = (p0.conj() * p1).real  # half of d|p|^2/dt, and then its slope
        curv = (p1.conj() * p1).real + (p0.conj() * p2).real
        with np.errstate(divide="ignore", invalid="ignore"):
            step = slope / curv
        t[todo] -= step
        err = cap[todo] * step * step / np.abs(curv)  # bounds the distance left to the peak
        done = (n * err) ** 2 <= 2.0**-59  # which moves |p|^2 by under 2^-60 of its norm
        ok[todo[done & (curv < 0)]] = True
        todo = todo[~done]
        if not len(todo):
            break
    ok &= np.abs(t - h * js) <= h
    series = cs.tolist()
    best = [max(abs(_clenshaw(c, -1.0)), abs(_clenshaw(c, 1.0))) for c in series]
    for r, x in zip(rows[ok].tolist(), np.cos(t[ok]).tolist()):
        best[r] = max(best[r], abs(_clenshaw(series[r], x)))
    failed = set(rows[~ok].tolist())
    return [None if r in failed else norm for r, norm in enumerate(best)]


def _binade(c: Sequence[complex]) -> int:
    """e with max |c_n| in [2^(e-1), 2^e), kept where 2^e and 2^-e are normal."""
    return min(max(math.frexp(max(map(abs, c)))[1], -1021), 1021)


def _colleague_norms(series: Sequence[Sequence[complex]]) -> list[float]:
    """max |p| on [-1, 1] of each Chebyshev series.  A linear p takes the
    larger end, as |p|^2 is convex.  Any other series is scaled by 2^-e (see
    _binade) before |p|^2 is formed, and its norm by 2^e after: exact for
    normal numbers, so no norm moves by a bit.  One whose slope has degree
    at most 3 takes its roots in closed form (_short_norm).  Longer real and
    complex series form one zero-padded stack each (padding adds exact
    zeros, so a norm does not depend on the batch); a stack's slopes of one
    degree share one eigvals call."""
    norms = [abs(c[0]) for c in series]
    stacks: dict[bool, list[int]] = {True: [], False: []}
    for i, c in enumerate(series):
        if len(c) == 2:
            norms[i] = max(abs(c[0] + c[1]), abs(c[0] - c[1]))
        elif len(c) > 2:
            real = all(z.imag == 0 for z in c)
            if len(c) <= (5 if real else 3):
                norms[i] = _short_norm(c, real)
            else:
                stacks[real].append(i)
    for real, rows in stacks.items():
        if not rows:
            continue
        m, n = len(rows), max(len(series[i]) for i in rows) - 1
        exps = [_binade(series[i]) for i in rows]
        cs = np.array([(*series[i], *(0j,) * (n + 1 - len(series[i]))) for i in rows])
        cs = q = (cs.real if real else cs) * np.array([2.0 ** -e for e in exps])[:, None]
        if not real:  # 2|p|^2, as T_i T_j = (T_{i+j} + T_{|i-j|}) / 2 fills two bins per term
            w = (cs[:, :, None] * cs.conj()[:, None, :]).real.ravel()
            i, j = np.arange(n + 1)[:, None], np.arange(n + 1)
            base = (2 * n + 1) * np.arange(m)[:, None, None]
            q = np.bincount((base + i + j).ravel(), w, m * (2 * n + 1))
            q = (q + np.bincount((base + abs(i - j)).ravel(), w, len(q))).reshape(m, -1)
        # (q')_k sums 2 j q_j over j = k+1, k+3, ... (halved at k = 0): the
        # terms of each parity accumulate down one column of a (pairs, 2) view
        top = q.shape[1] - 1
        terms = np.zeros((m, top + top % 2))
        np.multiply(q[:, :0:-1], np.arange(2 * top, 0, -2), out=terms[:, :top])
        slopes = terms.reshape(m, -1, 2).cumsum(1).reshape(m, -1)[:, top - 1 :: -1]
        slopes[:, 0] *= 0.5
        xs = np.full((m, top + 1), -1.0)  # both ends, roots, repeats of -1
        xs[:, 1] = 1.0
        degree = [len(series[i]) - 2 if real else 2 * len(series[i]) - 3 for i in rows]
        degrees = set(degree)
        for d in degrees:  # a stack of one degree is sliced, not gathered
            at = [r for r, e in enumerate(degree) if e == d] if len(degrees) > 1 else slice(None)
            s = slopes[at, : d + 1]
            # numpy's chebcompanion, rotated as chebroots does; the off-diagonals
            # are strided slices of each flattened matrix
            mats = np.zeros((len(s), d, d))
            flat = mats.reshape(len(s), -1)
            flat[:, 1 :: d + 1] = flat[:, d :: d + 1] = [math.sqrt(0.5)] + [0.5] * (d - 2)
            scl = [0.5 / math.sqrt(0.5)] + [0.5] * (d - 1)  # chebcompanion's scl / scl[-1] / 2
            mats[:, :, -1] -= (s[:, :-1] / s[:, -1:]) * scl
            xs[at, 2 : 2 + d] = np.linalg.eigvals(mats[:, ::-1, ::-1]).real
        xs = np.minimum(np.maximum(xs, -1.0), 1.0)
        vals = np.abs(_clenshaw(cs.T[:, :, None], xs)).max(axis=1)
        for i, e, v in zip(rows, exps, vals.tolist()):
            norms[i] = v * 2.0**e
    return norms


def _short_norm(c: Sequence[complex], real: bool) -> float:
    """_colleague_norms for one series whose slope has degree 1 to 3, scaled
    the same way.  The slope is formed in monomial form, p' for a real p and
    Re(p' conj p) = (|p|^2)' / 2 for a complex p of degree 2 (w_ij is
    Re c_i conj c_j), and its roots are found in closed form."""
    e = _binade(c)
    if real:
        c = [z.real * 2.0**-e for z in c]
        c1, c2, c3, c4 = (*c[1:], 0.0, 0.0)[:4]
        slope = [c1 - 3 * c3, 4 * c2 - 16 * c4, 12 * c3, 32 * c4]
    else:
        c = [z * 2.0**-e for z in c]
        (a0, b0), (a1, b1), (a2, b2) = ((z.real, z.imag) for z in c)
        w01, w12, w22 = a0 * a1 + b0 * b1, a1 * a2 + b1 * b2, a2 * a2 + b2 * b2
        w02, w11 = a0 * a2 + b0 * b2, a1 * a1 + b1 * b1
        slope = [w01 - w12, 4 * w02 + w11 - 4 * w22, 6 * w12, 8 * w22]
    xs = {-1.0, 1.0, *(min(max(x, -1.0), 1.0) for x in _root_real_parts(slope))}
    return max(abs(_clenshaw(c, x)) for x in xs) * 2.0**e


def _root_real_parts(m: list[float]) -> list[float]:
    """Real parts of the roots of sum_k m_k x^k, of degree at most 3.

    Top coefficients at most 2^-52 of the largest are dropped: the roots
    this removes lie so far out that clipping takes them to the ends.  A
    cubic takes one real root (with three, the largest, by the trigonometric
    form; else Cardano's) and divides it out, from the constant end if it is
    the largest and from the top if not; the quadratic left gives the rest,
    whichever branch round-off picks.
    """
    big = max(map(abs, m))
    while m and abs(m[-1]) <= 2.0**-52 * big:
        m.pop()
    if len(m) < 3:
        return [-m[0] / m[1]] if len(m) == 2 else []
    if len(m) == 3:
        return _quadratic_real_parts(m[2], m[1], m[0])
    a, b, c = m[2] / m[3], m[1] / m[3], m[0] / m[3]  # x^3 + a x^2 + b x + c
    q, r = (a * a - 3 * b) / 9, (a * (2 * a * a - 9 * b) + 27 * c) / 54
    if r * r < q**3:
        t = math.acos(max(-1.0, min(1.0, r / math.sqrt(q**3))))
        x = max((-2 * math.sqrt(q) * math.cos((t + u) / 3) - a / 3
                 for u in (0.0, 2 * math.pi, -2 * math.pi)), key=abs)
    else:
        u = -math.copysign(math.cbrt(abs(r) + math.sqrt(r * r - q**3)), r)
        x = u + (q / u if u else 0.0) - a / 3
    # (x - root)(x^2 + b x + c) is what is left
    if abs(x) ** 3 > abs(c):
        b, c = (-c / x - b) / x, -c / x
    else:
        b, c = a + x, b + x * (a + x)
    return [x, *_quadratic_real_parts(1.0, b, c)]


def _quadratic_real_parts(a: float, b: float, c: float) -> list[float]:
    """Real parts of the roots of a x^2 + b x + c, a != 0, without cancellation."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return [-b / (2 * a)]
    h = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [h / a, c / h] if h else [0.0]


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
