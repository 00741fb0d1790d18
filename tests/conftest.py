import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from pqsp import DensityMatrix, Polynomial, estimate, sup_norm


@pytest.fixture(autouse=True)
def cold_estimate_memos():
    """Every test starts from empty estimate memos (entropy approximants,
    swap-test and Chebyshev term layouts), so no test depends on which fits
    or layouts the tests before it built."""
    for memo in (estimate._approximant, estimate._swap_layout, estimate._term_layout):
        memo.cache_clear()


@pytest.fixture
def rho_34():
    """The diag(0.75, 0.25) workhorse state."""
    return DensityMatrix.diagonal([0.75, 0.25])


def random_nonneg(rng: np.random.Generator, half_degree: int) -> Polynomial:
    """|q|^2 for a random complex q, normalized to sup norm 1 on [-1, 1].

    Complex roots of q stay simple, so the square-free factoring path is
    exercised without the double-root ill-conditioning of a real square.
    """
    q = Polynomial(rng.normal(size=half_degree + 1) + 1j * rng.normal(size=half_degree + 1))
    p = q * Polynomial([c.conjugate() for c in q.coeffs])
    p = Polynomial([c.real for c in p.coeffs])
    return p * (1.0 / sup_norm(p))



def random_parity_target(rng: np.random.Generator, degree: int) -> Polynomial:
    """A random real Chebyshev series of the parity of `degree`, at sup norm 1."""
    c = np.zeros(degree + 1)
    c[degree % 2 :: 2] = rng.standard_normal(degree // 2 + 1)
    p = Polynomial.from_cheb(c)
    return p * (1.0 / sup_norm(p))

def dense_sup_norm(cheb) -> float:
    """Reference max |sum_j c_j T_j(x)| on [-1, 1], independent of sup_norm.

    Samples a uniform grid in t = arccos(x), then zooms five times (64-fold
    each) around every local grid maximum within 10% of the largest.
    """
    c = np.asarray(cheb)
    t = np.linspace(0.0, np.pi, 4001)
    vals = np.abs(np.polynomial.chebyshev.chebval(np.cos(t), c))
    pad = np.concatenate(([-1.0], vals, [-1.0]))
    peak = (pad[1:-1] >= pad[:-2]) & (pad[1:-1] >= pad[2:]) & (vals >= 0.9 * vals.max())
    centers, half = t[peak], t[1]
    best = float(vals.max())
    for _ in range(5):
        fine = np.clip(centers[:, None] + np.linspace(-half, half, 65), 0.0, np.pi)
        v = np.abs(np.polynomial.chebyshev.chebval(np.cos(fine), c))
        best = max(best, float(v.max()))
        centers, half = fine[np.arange(len(fine)), v.argmax(axis=1)], half / 32
    return best


def chebroots_norm(c) -> float:
    """Reference max |p| on [-1, 1] from numpy: the roots of the same slope,
    (|p|^2)' or p', by chebroots, and |p| at the ends and their clipped real parts."""
    c = np.asarray(c, dtype=complex)
    q = npcheb.chebmul(c, c.conj()).real if c.imag.any() else c.real
    xs = np.clip(npcheb.chebroots(npcheb.chebder(q)).real, -1.0, 1.0)
    return float(np.abs(npcheb.chebval(np.concatenate(([-1.0, 1.0], xs)), c)).max())
