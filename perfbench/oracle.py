"""Independent references and outcome classes for the pqsp benchmark.

Nothing here calls pqsp: every reference is computed from the generated
inputs with numpy, from ``numpy.linalg.eigvalsh`` of the state and the
paper's closed forms.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly

# Shot budgets above this count as over_budget even when the op returns.
SHOT_CEILING = 10**9

SOLVED = "solved"
TYPED = "typed_error"
UNTYPED = "untyped_error"
OUT_OF_TOLERANCE = "out_of_tolerance"
OVER_BUDGET = "over_budget"
CLASSES = (SOLVED, TYPED, UNTYPED, OUT_OF_TOLERANCE, OVER_BUDGET)


class CliTypedError(Exception):
    """The CLI exited with one of its typed error codes (2, 3 or 4)."""


class CliUntypedError(Exception):
    """The CLI exited with any other non-zero code, e.g. a traceback."""


def classify(error: BaseException | None, err: float | None, tol: float | None,
             shots_used: int, ceiling: int, typed: tuple) -> str:
    """Outcome class of one op from what it raised or returned."""
    if error is not None:
        return TYPED if isinstance(error, typed + (CliTypedError,)) else UNTYPED
    if shots_used > ceiling:
        return OVER_BUDGET
    if not (err <= tol):
        return OUT_OF_TOLERANCE
    return SOLVED


def unexpected(outcome: str, expect: str) -> bool:
    """An outcome worse than the one registered for the op.

    A typed error is never worse than a registered failure, because failing
    fast with a typed error is what the estimators promise; any other
    failure counts unless it is the registered one.
    """
    if outcome in (SOLVED, expect):
        return False
    if outcome == TYPED:
        return expect == SOLVED
    return True


def spectrum(matrix: np.ndarray) -> np.ndarray:
    return np.clip(np.linalg.eigvalsh(np.asarray(matrix)), 0.0, None)


def monomial_trace(coeffs: Sequence[float], lam: np.ndarray) -> float:
    return float(np.sum(nppoly.polyval(lam, np.asarray(coeffs, dtype=float))))


def chebyshev_trace(coeffs: Sequence[float], lam: np.ndarray) -> float:
    return float(np.sum(npcheb.chebval(lam, np.asarray(coeffs, dtype=float))))


def renyi(lam: np.ndarray, alpha: float) -> float:
    return math.log(float(np.sum(lam ** alpha))) / (1.0 - alpha)


def von_neumann(lam: np.ndarray) -> float:
    pos = lam[lam > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def partition(lam: np.ndarray, beta: float) -> float:
    return float(np.sum(np.exp(-beta * lam)))


def weighted_trace(R: Sequence[float], lam: np.ndarray, k: int) -> float:
    """tr(rho^k R(rho)): what a k-thread run of a factorization of R reads."""
    return float(np.sum(lam ** k * nppoly.polyval(lam, np.asarray(R, dtype=float))))


def product_trace(factor_chebs: Sequence[np.ndarray], lam: np.ndarray) -> float:
    """tr(rho^k prod_j P_j(rho)^2) for k real factors given in Chebyshev form."""
    acc = lam ** len(factor_chebs)
    for c in factor_chebs:
        acc = acc * npcheb.chebval(lam, c) ** 2
    return float(np.sum(acc))


def complex_coeffs(items) -> np.ndarray:
    return np.array([complex(*v) if isinstance(v, list) else complex(v) for v in items])


def factorization_error(factors: Sequence[np.ndarray], stored: float, R: Sequence[float]) -> float:
    """max |stored^2 prod_j |R_j|^2 - R| / (1 + |R|) on a 1001-point grid."""
    xs = np.linspace(-1.0, 1.0, 1001)
    recon = np.full(xs.size, stored * stored)
    for f in factors:
        recon = recon * np.abs(nppoly.polyval(xs, f)) ** 2
    src = nppoly.polyval(xs, np.asarray(R, dtype=float))
    return float(np.max(np.abs(recon - src) / (1.0 + np.abs(src))))


def qsp_plus_value(phases: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """Re <+| e^{i phi_0 Z} prod_j W(x) e^{i phi_j Z} |+> with W(x) = [[x, is], [is, x]]."""
    s = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    # Rows of the running product applied to <+|, one pair per grid point.
    row = np.stack([np.full(xs.size, 1.0 + 0j), np.full(xs.size, 1.0 + 0j)], axis=1) / math.sqrt(2)
    row = row * np.array([np.exp(1j * phases[0]), np.exp(-1j * phases[0])])
    for phi in phases[1:]:
        a = row[:, 0] * xs + row[:, 1] * 1j * s
        b = row[:, 0] * 1j * s + row[:, 1] * xs
        row = np.stack([a * np.exp(1j * phi), b * np.exp(-1j * phi)], axis=1)
    return np.real((row[:, 0] + row[:, 1]) / math.sqrt(2))


def phase_grid_error(phases: Sequence[float], target_cheb: np.ndarray) -> float:
    """Largest gap between the realized value and the target on 401 points."""
    xs = np.linspace(-1.0, 1.0, 401)
    return float(np.max(np.abs(qsp_plus_value(phases, xs) - npcheb.chebval(xs, target_cheb))))


SQRT2P1 = 1.0 + math.sqrt(2.0)


def theorem3_shots(eps: float, K: float) -> int:
    return max(1, math.ceil(K ** 4 / eps ** 2))


def theorem5_auto_shots(eps: float, d: int, k: int) -> int:
    """Theorem 5 with both constituent norms at their a-priori certificates."""
    low = sum(float((d + n) ** n) / math.factorial(n) for n in range(k))
    high = math.sqrt(2.0) * math.sqrt(
        sum((float((n + k) ** k) / math.factorial(k)) ** 2 for n in range(k, d + 1)))
    raw = (low ** 2 + high ** 2 * d ** 4 * SQRT2P1 ** (4 * k) / k ** 2) / eps ** 2
    return max(1, math.ceil(raw))
