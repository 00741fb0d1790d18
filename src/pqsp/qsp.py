"""Single-qubit signal processing sequences and phase finding.

The signal unitary is W(x) = [[x, i*sqrt(1-x^2)], [i*sqrt(1-x^2), x]] and a
phase list (phi_0, ..., phi_d) produces

    U_phi(x) = S(phi_0) * prod_{i=1..d} W(x) S(phi_i),   S(phi) = diag(e^{i phi}, e^{-i phi}).

The top-left entry of U_phi is a degree-d polynomial P with parity d mod 2,
the off-diagonal entry is i*Q(x)*sqrt(1-x^2) with deg(Q) <= d-1, and
|P|^2 + (1-x^2)|Q|^2 = 1 on [-1, 1].  Two conventions for reading a scalar
out of the sequence are supported: "wx_00" designates <0|U|0> = P and
"wx_pp" designates <+|U|+> = Re(P) + i*Re(Q)*sqrt(1-x^2), whose real part is
the quantity phase finding matches against a real target.

scipy is imported on the first phase solve, not with this module, so code
that never calls `find_phases` does not pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import ConvergenceError, InputError
from .poly import Parity, Polynomial, sup_norm

CONVENTIONS = ("wx_00", "wx_pp")

# Phase-finding budget: restarts from the deterministic ladder, and the
# Levenberg-Marquardt evaluation budget per start in units of (d + 2).
N_STARTS = 8
MAX_ITER = 500

__all__ = [
    "CONVENTIONS",
    "QspPhases",
    "QspUnitaryValue",
    "QspConditionReport",
    "qsp_unitary",
    "extract_polynomials",
    "validate_conditions",
    "find_phases",
    "designated_element",
    "realized_value",
]


# A plain module function, not an import alias: perfbench's tracer wraps and rebinds it.
def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def _fold(phi: float) -> float:
    """Reduce to (-pi, pi]; identical sequences mod 2*pi compare equal."""
    out = math.remainder(float(phi), math.tau)
    return math.pi if out == -math.pi else out


@dataclass(frozen=True)
class QspPhases:
    """A phase list plus the convention naming its designated matrix element."""

    phases: tuple[float, ...]
    convention: str = "wx_00"

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise InputError(f"unknown convention {self.convention!r}")
        if len(self.phases) < 1:
            raise InputError("need at least one phase")
        object.__setattr__(self, "phases", tuple(_fold(p) for p in self.phases))

    @property
    def degree(self) -> int:
        return len(self.phases) - 1

    def to_dict(self) -> dict:
        return {"convention": self.convention, "phases": list(self.phases)}

    @classmethod
    def from_dict(cls, obj: dict) -> "QspPhases":
        return cls(tuple(float(p) for p in obj["phases"]), obj.get("convention", "wx_00"))


@dataclass(frozen=True)
class QspUnitaryValue:
    """U_phi evaluated at one signal value x."""

    matrix: np.ndarray
    x: float

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.max(np.abs(m @ m.conj().T - np.eye(2))))

    @property
    def p_element(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def plus_element(self) -> complex:
        return complex(0.5 * self.matrix.sum())


def qsp_unitary(phases: QspPhases, x: float) -> QspUnitaryValue:
    """Multiply out the signal-processing sequence at one x in [-1, 1]."""
    if abs(x) > 1.0 + 1e-12:
        raise InputError(f"signal value x={x} lies outside [-1, 1]")
    x = min(1.0, max(-1.0, float(x)))
    return QspUnitaryValue(matrix=_batched_sequence(phases.phases, np.array([x]))[0], x=x)


def _batched_sequence(phases: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """U_phi at every x in xs, as an (n, 2, 2) stack."""
    n = len(xs)
    s = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    w = np.empty((n, 2, 2), dtype=complex)
    w[:, 0, 0] = w[:, 1, 1] = xs
    w[:, 0, 1] = w[:, 1, 0] = 1j * s
    e = np.exp(1j * phases[0])
    m = np.zeros((n, 2, 2), dtype=complex)
    m[:, 0, 0] = e
    m[:, 1, 1] = np.conj(e)
    for phi in phases[1:]:
        m = m @ w
        e = np.exp(1j * phi)
        m[:, :, 0] *= e
        m[:, :, 1] *= np.conj(e)
    return m


def designated_element(phases: QspPhases, x: float) -> complex:
    """The matrix element the convention designates: <0|U|0> or <+|U|+>."""
    u = qsp_unitary(phases, x)
    return u.p_element if phases.convention == "wx_00" else u.plus_element


def realized_value(phases: QspPhases, x: float) -> float:
    """Real part of the designated element; the scalar phase finding targets."""
    return designated_element(phases, x).real


def _chebyshev_nodes(n: int) -> np.ndarray:
    return np.cos((2 * np.arange(1, n + 1) - 1) * math.pi / (2 * n))


def extract_polynomials(phases: QspPhases, grid_size: int | None = None) -> tuple[Polynomial, Polynomial]:
    """Recover (P, Q) from samples of the sequence on Chebyshev nodes.

    The matrix elements are sampled at grid_size nodes (at least 2*(d+1)),
    and fitted with exact-degree Chebyshev interpolants.  Coefficients below
    1e-10 of the largest are zeroed so that parity and degree read cleanly
    off the result.
    """
    d = phases.degree
    if grid_size is None:
        grid_size = max(2 * (d + 1), 16)
    if grid_size < 2 * (d + 1):
        raise InputError(f"grid_size must be at least {2 * (d + 1)} for degree {d}")
    xs = _chebyshev_nodes(grid_size)
    u = _batched_sequence(phases.phases, xs)
    s = np.sqrt(1.0 - xs * xs)
    p_samples = u[:, 0, 0]
    q_samples = u[:, 0, 1] / (1j * s)

    def fit(samples: np.ndarray, deg: int) -> Polynomial:
        c = npcheb.chebfit(xs, samples, deg)
        resid = float(np.max(np.abs(npcheb.chebval(xs, c) - samples)))
        if resid > 1e-8:
            raise ConvergenceError(
                f"interpolation is ill-conditioned at degree {deg}: residual {resid:.3e}",
                best_residual=resid,
            )
        floor = 1e-10 * max(1.0, float(np.max(np.abs(c))))
        c[np.abs(c) <= floor] = 0.0
        return Polynomial.from_cheb(c)

    p = fit(p_samples, d)
    q = fit(q_samples, d - 1) if d >= 1 else Polynomial([0.0])
    return p, q


def _parity_compatible(p: Polynomial, want_odd: bool) -> bool:
    if p.is_zero():
        return True
    return p.parity is (Parity.ODD if want_odd else Parity.EVEN)


@dataclass(frozen=True)
class QspConditionReport:
    """Pass/fail per structural condition, with the worst normalization defect."""

    degree_p_ok: bool
    degree_q_ok: bool
    parity_p_ok: bool
    parity_q_ok: bool
    normalization_ok: bool
    worst_violation: float
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.degree_p_ok
            and self.degree_q_ok
            and self.parity_p_ok
            and self.parity_q_ok
            and self.normalization_ok
        )


def validate_conditions(p: Polynomial, q: Polynomial, d: int, tol: float = 1e-9) -> QspConditionReport:
    """Check the structural conditions a degree-d sequence imposes on (P, Q)."""
    xs = _chebyshev_nodes(max(64, 4 * (d + 1)))
    norm_vals = np.abs(p(xs)) ** 2 + (1.0 - xs * xs) * np.abs(q(xs)) ** 2
    worst = float(np.max(np.abs(norm_vals - 1.0)))
    report = QspConditionReport(
        degree_p_ok=p.degree <= d,
        degree_q_ok=q.is_zero() or q.degree <= max(d - 1, 0),
        parity_p_ok=_parity_compatible(p, want_odd=bool(d % 2)),
        parity_q_ok=_parity_compatible(q, want_odd=bool((d - 1) % 2)),
        normalization_ok=worst <= tol,
        worst_violation=worst,
    )
    report.checks.update(
        degree_p=report.degree_p_ok,
        degree_q=report.degree_q_ok,
        parity_p=report.parity_p_ok,
        parity_q=report.parity_q_ok,
        normalization=report.normalization_ok,
    )
    return report


def find_phases(target: Polynomial, tol: float = 1e-4) -> QspPhases:
    """Phases whose <+|U|+> real part matches a real definite-parity target.

    Levenberg-Marquardt least squares on Chebyshev nodes, restarted from a
    deterministic ladder of N_STARTS initial phase vectors (all zeros first,
    then seeded perturbations of growing size).  Returns as soon as one start
    reaches max error <= tol on the nodes; if none does, the failure carries
    the best residual seen.  The first call imports scipy.
    """
    scale = max(1.0, max(abs(c) for c in target.cheb))
    if target.max_imag() > 1e-10 * scale:
        raise InputError("target polynomial must have real coefficients")
    if target.parity is Parity.INDEFINITE:
        raise InputError("target polynomial must have definite parity")
    d = target.degree
    if d > 40:
        raise InputError("degree cap for phase finding is 40; use the oracle encoding instead")
    norm = sup_norm(target)
    if norm > 1.0 + 1e-9:
        raise InputError(f"rescale the target: sup norm {norm:.6g} exceeds 1")

    xs = _chebyshev_nodes(max(4 * (d + 1), 32))
    tvals = np.real(target(xs))

    def residual(phis: np.ndarray) -> np.ndarray:
        u = _batched_sequence(phis, xs)
        plus = 0.5 * u.sum(axis=(1, 2))
        return plus.real - tvals

    best_err = math.inf
    for start in range(N_STARTS):
        if start == 0:
            x0 = np.zeros(d + 1)
        else:
            rng = np.random.default_rng(1000 + start)
            x0 = rng.uniform(-0.25 * start, 0.25 * start, d + 1)
        try:
            res = least_squares(residual, x0, method="lm", max_nfev=MAX_ITER * (d + 2))
        except ValueError:  # a start whose residuals are not finite
            continue
        err = float(np.max(np.abs(residual(res.x))))
        if err < best_err:
            best_err = err
        if err <= tol:
            return QspPhases(tuple(res.x), convention="wx_pp")
    raise ConvergenceError(
        f"phase finding did not reach tol={tol:g}; best max error {best_err:.3e}",
        best_residual=best_err,
    )

