"""Single-qubit signal processing sequences and phase finding.

The signal unitary is W(x) = [[x, i*sqrt(1-x^2)], [i*sqrt(1-x^2), x]] and a
phase list (phi_0, ..., phi_d) produces

    U_phi(x) = S(phi_0) * prod_{i=1..d} W(x) S(phi_i),   S(phi) = diag(e^{i phi}, e^{-i phi}).

For any phases U_phi = [[P, i*Q*s], [i*conj(Q)*s, conj(P)]], s = sqrt(1-x^2),
with deg P = d of parity d mod 2, deg Q <= d-1 and |P|^2 + s^2 |Q|^2 = 1 on
[-1, 1].  The one read-out is Re <+|U|+> (convention "wx_pp"): the
off-diagonal pair adds only the imaginary part i*Re(Q)*s to <+|U|+>, so its
real part is Re P, the same as Re <0|U|0>, and it is the value phase finding
matches against a real target.

Phase finding is numpy only.  It solves for symmetric phases, whose Im P can
reach any real definite-parity target of sup norm at most 1 (Dong, Meng,
Whaley and Lin, arXiv:2002.11649), by Newton's method on the reduced phases
from the zero start (Dong, Lin, Ni and Wang, arXiv:2209.10162), then turns
Im P into the "wx_pp" read-out.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InputError
from .poly import Parity, Polynomial, _norms_exceed, sup_norm

# Newton steps allowed per solve.  From the zero start the residual reaches
# round-off in under 10 steps at sup norm 0.99 or less and in about 30 at
# exactly 1, where the convergence turns linear.
MAX_NEWTON_STEPS = 100

__all__ = [
    "QspPhases",
    "find_phases",
    "realized_value",
]


def _fold(phi: float) -> float:
    """Reduce to (-pi, pi]; identical sequences mod 2*pi compare equal."""
    out = math.remainder(float(phi), math.tau)
    return math.pi if out == -math.pi else out


@dataclass(frozen=True)
class QspPhases:
    """A phase list, read out as Re <+|U|+>, which files name "wx_pp".  The
    convention argument is checked, not stored: it accepts that name alone."""

    phases: tuple[float, ...]
    convention: InitVar[str] = "wx_pp"

    def __post_init__(self, convention: str):
        if convention != "wx_pp":
            raise InputError(f"unknown convention {convention!r}")
        if len(self.phases) < 1:
            raise InputError("need at least one phase")
        object.__setattr__(self, "phases", tuple(_fold(p) for p in self.phases))

    @property
    def degree(self) -> int:
        return len(self.phases) - 1

    def to_dict(self) -> dict:
        return {"convention": "wx_pp", "phases": list(self.phases)}

    @classmethod
    def from_dict(cls, obj: dict) -> "QspPhases":
        return cls(tuple(float(p) for p in obj["phases"]), obj.get("convention", "wx_pp"))


def _batched_sequence(phases: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """U_phi at every x in xs, as an (n, 2, 2) stack."""
    return _prefix_products(phases, xs)[-1]


def _prefix_products(phases: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """S(phi_0) W S(phi_1) ... W S(phi_j) at every x in xs, for j = 0..d.

    A (d + 1, n, 2, 2) stack whose last entry is U_phi.
    """
    n = len(xs)
    s = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    w = np.empty((n, 2, 2), dtype=complex)
    w[:, 0, 0] = w[:, 1, 1] = xs
    w[:, 0, 1] = w[:, 1, 0] = 1j * s
    out = np.zeros((len(phases), n, 2, 2), dtype=complex)
    e = np.exp(1j * phases[0])
    out[0, :, 0, 0] = e
    out[0, :, 1, 1] = np.conj(e)
    for j in range(1, len(phases)):
        m = out[j]
        np.matmul(out[j - 1], w, out=m)
        e = np.exp(1j * phases[j])
        m[:, :, 0] *= e
        m[:, :, 1] *= np.conj(e)
    return out


def realized_value(phases: QspPhases, x):
    """Re <+|U|+> = Re P at x in [-1, 1]: a float for a scalar, else an array of x's shape."""
    xs = np.asarray(x, dtype=float)
    outside = np.abs(xs) > 1.0 + 1e-12
    if outside.any():
        raise InputError(f"signal value x={float(xs[outside][0])} lies outside [-1, 1]")
    u = _batched_sequence(phases.phases, np.clip(xs, -1.0, 1.0).ravel())
    values = (0.5 * u.sum(axis=(1, 2))).real
    return float(values[0]) if xs.ndim == 0 else values.reshape(xs.shape)


def _chebyshev_nodes(n: int) -> np.ndarray:
    return np.cos((2 * np.arange(1, n + 1) - 1) * math.pi / (2 * n))


# A plain module function, not an alias or a method: perfbench's tracer wraps
# and rebinds it, and counts its calls per find_phases call as starts.
def least_squares(target: Polynomial) -> np.ndarray:
    """Symmetric phases whose Im <0|U|0> matches `target`, by Newton's method.

    The unknowns are the ceil((d+1)/2) reduced phases psi; the full list is
    psi mirrored.  The residual Im P - target is taken on the positive half
    of a grid of twice that many Chebyshev nodes, so the system is square and
    the least-squares solution is its root.  Each step solves with the analytic Jacobian: S(phi) =
    exp(i phi Z) gives dU/dphi_j = i M_j Z M_j^dagger U, M_j the prefix
    product through S(phi_j).  From psi = 0 the steps continue while the
    largest residual falls; the best phases seen are returned.
    """
    d = target.degree
    half = (d + 2) // 2
    xs = _chebyshev_nodes(2 * half)[:half]
    tvals = np.real(target(xs))
    j = np.arange(d + 1)
    mirror = np.zeros((d + 1, half))
    mirror[j, np.minimum(j, d - j)] = 1.0
    psi = best = np.zeros(half)
    best_err = math.inf
    for _ in range(MAX_NEWTON_STEPS):
        prefix = _prefix_products(mirror @ psi, xs)
        u = prefix[-1]
        r = u[:, 0, 0].imag - tvals
        err = float(np.max(np.abs(r)))
        if not err < best_err:
            break
        best, best_err = psi, err
        # d Im U00 / d phi_j = Re (M_j Z M_j^dagger U)[0, 0]
        row = prefix[:, :, 0, :] * np.array([1.0, -1.0])
        jac = np.einsum("jna,jnba,nb->nj", row, prefix.conj(), u[:, :, 0]).real @ mirror
        try:
            psi = psi - np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            break
    return mirror @ best


def find_phases(target: Polynomial, tol: float = 1e-4) -> QspPhases:
    """Phases whose <+|U|+> real part matches a real definite-parity target.

    One deterministic Newton solve (`least_squares`) gives symmetric phases
    with Im P = target.  Shifting both end phases by -pi/4 multiplies P by
    -i, so Re P, the real part of <+|U|+>, becomes the target.  The result
    must reach max error <= tol on 4(d+1) (at least 32) Chebyshev nodes;
    otherwise the failure carries the error it reached.

    The target's sup norm must be at most 1 + 1e-9.  Past poly's closed
    forms the check reads the target on N + 1 Chebyshev extreme points, N at
    least 64 d, whose largest |p| M certifies M <= ||p|| <= M sec(pi d / 2N);
    the exact norm, polished from the grid's peaks by Newton's method (the
    interval's upper end if a polish fails), is taken only when 1 + 1e-9
    lies within 1e-12 of that interval, or for the message of a rejection.
    """
    scale = max(1.0, max(abs(c) for c in target.cheb))
    if target.max_imag() > 1e-10 * scale:
        raise InputError("target polynomial must have real coefficients")
    if target.parity is Parity.INDEFINITE:
        raise InputError("target polynomial must have definite parity")
    d = target.degree
    if d > 40:
        raise InputError("degree cap for phase finding is 40; use the oracle encoding instead")
    if _norms_exceed([target], 1.0 + 1e-9)[0]:
        raise InputError(f"rescale the target: sup norm {sup_norm(target):.6g} exceeds 1")

    phis = least_squares(target)
    phis[0] -= math.pi / 4
    phis[-1] -= math.pi / 4
    found = QspPhases(tuple(phis))
    xs = _chebyshev_nodes(max(4 * (d + 1), 32))
    err = float(np.max(np.abs(realized_value(found, xs) - np.real(target(xs)))))
    if err <= tol:
        return found
    raise ConvergenceError(
        f"phase finding did not reach tol={tol:g}; best max error {err:.3e}",
        best_residual=err,
    )
