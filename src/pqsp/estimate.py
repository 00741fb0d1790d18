"""Trace and entropy estimators built on the parallel factorized circuits.

Every estimator here reduces tr(f(rho)) to a combination of three runs: a
sequential Hadamard test for the low-degree remainder, parallel runs of
factor polynomials for the high-degree part, and an importance sampler that
recombines coefficient-weighted term estimates.  Reports carry the measured
value, its standard error, the shots actually consumed, the closed-form
predicted shot count for the chosen route (unit leading constant; these are
order-of-magnitude planners, not guarantees), and the query depth / width
accounting.

Cost routes are keyed by the names predict_cost accepts ("theorem3" ...
"theorem11"); each is a documented closed form over the fields of CostModel.
Reported query depths quote the matching closed form as well; the depth the
constructed factors actually achieve (it can be smaller) is always present
in the report breakdown.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np
import numpy.polynomial.chebyshev as npcheb

from .errors import ConvergenceError, InputError, NotNonNegativeError
from .factor import (
    chebyshev_parallel_terms,
    factorize_nonneg,
    rescale_factors,
    term_factor_polynomials,
)
from .poly import (
    Parity,
    Polynomial,
    parity_split,
    split_constituents,
    sup_norm,
)
from .sim import (
    DensityMatrix,
    Estimate,
    ShotSampler,
    _as_sampler,
    hadamard_test,
    oracle_block_encode,
    parallel_qsp_run,
    query_depth_report,
)

__all__ = [
    "EstimationReport",
    "CostModel",
    "predict_cost",
    "importance_sample",
    "estimate_direct",
    "estimate_chebyshev",
    "renyi_integer",
    "renyi_noninteger",
    "von_neumann",
    "monomial_poly_trace",
    "partition_function",
]

ShotPolicy = int | Literal["auto"] | None
Mode = Literal["exact", "sampled"]

SQRT2P1 = 1.0 + math.sqrt(2.0)


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of one estimation run.

    query_depth and width quote the closed-form accounting for the route
    that produced the report; breakdown holds per-component values (low and
    high branch contributions, factorization constants, certified
    approximant errors, and the depth the factors actually realize).
    """

    value: float
    std_error: float
    shots_used: int
    predicted_shots: int
    query_depth: int
    width: int
    breakdown: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "shots_used": self.shots_used,
            "predicted_shots": self.predicted_shots,
            "query_depth": self.query_depth,
            "width": self.width,
            "breakdown": _jsonable(self.breakdown),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EstimationReport":
        return cls(
            value=float(obj["value"]),
            std_error=float(obj["std_error"]),
            shots_used=int(obj["shots_used"]),
            predicted_shots=int(obj["predicted_shots"]),
            query_depth=int(obj["query_depth"]),
            width=int(obj["width"]),
            breakdown=obj.get("breakdown", {}),
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    return str(obj)


@dataclass(frozen=True)
class CostModel:
    """Inputs to the closed-form shot-count predictions.

    Only the fields a route consumes need to be populated; predict_cost
    rejects a route whose fields are missing.
    """

    epsilon: float
    K: float | None = None
    norm_low: float | None = None
    norm_high: float | None = None
    one_norm: float | None = None
    d: int | None = None
    k: int | None = None
    alpha: float | None = None
    s_alpha: float | None = None
    beta: float | None = None


def _require(model: CostModel, route: str, *names: str) -> list:
    vals = []
    for name in names:
        v = getattr(model, name)
        if v is None:
            raise InputError(f"route {route} requires the {name} field")
        vals.append(v)
    return vals


def predict_cost(model: CostModel, route: str) -> int:
    """Closed-form shot count for a route, unit leading constant, ceil, >= 1."""
    eps = model.epsilon
    if eps is None or eps <= 0:
        raise InputError("epsilon must be positive")
    e2 = eps * eps
    if route == "theorem3":
        (k_const,) = _require(model, route, "K")
        raw = k_const ** 4 / e2
    elif route == "theorem4":
        k_const, nl = _require(model, route, "K", "norm_low")
        raw = (nl ** 2 + k_const ** 4) / e2
    elif route == "theorem5":
        nl, nh, d, k = _require(model, route, "norm_low", "norm_high", "d", "k")
        raw = (nl ** 2 + nh ** 2 * d ** 4 * SQRT2P1 ** (4 * k) / k ** 2) / e2
    elif route == "theorem7":
        s, a = _require(model, route, "s_alpha", "alpha")
        raw = 1.0 / (s ** 2 * a ** 2 * e2)
    elif route == "theorem8":
        (c1,) = _require(model, route, "one_norm")
        raw = c1 ** 2 / e2
    elif route == "theorem9":
        (beta,) = _require(model, route, "beta")
        raw = math.exp(2.0 * beta) / e2
    elif route == "theorem10":
        d, k, a, s = _require(model, route, "d", "k", "alpha", "s_alpha")
        lead = (d ** (k + 2) / math.factorial(k + 1)) ** 2 * (d / k)
        raw = lead / (s ** 2 * e2 * (a - 1.0) ** 2)
    elif route == "theorem11":
        d, k = _require(model, route, "d", "k")
        raw = (d ** (k + 2) / math.factorial(k + 1)) ** 2 * (d / k) / e2
    else:
        raise InputError(f"unknown cost route {route!r}")
    return max(1, math.ceil(raw))


def importance_sample(
    coeffs: Sequence[float],
    term_estimators: Sequence[Callable[[int, ShotSampler], np.ndarray]],
    total_shots: int,
    seed: int | None = None,
    sampler: ShotSampler | None = None,
) -> Estimate:
    """Coefficient-weighted sum of term traces by index sampling.

    Term j receives a share of shots proportional to |c_j|/||c||_1; each
    estimator returns per-shot values unbiased for its term, which are
    sign-flipped by sign(c_j) and pooled, so ||c||_1 times the pooled mean is
    unbiased for sum_j c_j * (term j).
    """
    c = np.asarray(coeffs, dtype=float)
    one_norm = float(np.abs(c).sum())
    if one_norm <= 0.0:
        raise InputError("all-zero coefficients: nothing to sample")
    if len(term_estimators) != len(c):
        raise InputError("one estimator per coefficient is required")
    n = int(total_shots)
    if n < 1:
        raise InputError(f"total_shots must be positive, got {total_shots!r}")
    smp = _as_sampler(sampler, seed)
    counts = smp.multinomial(n, np.abs(c) / one_norm)
    pooled = []
    for j, n_j in enumerate(counts):
        if n_j == 0:
            continue
        vals = np.asarray(term_estimators[j](int(n_j), smp.child(j)), dtype=float)
        if vals.shape != (int(n_j),):
            raise InputError(
                f"term estimator {j} returned {vals.shape}, expected ({n_j},)"
            )
        pooled.append(math.copysign(1.0, c[j]) * vals)
    values = np.concatenate(pooled)
    mean = float(values.mean())
    spread = float(values.std(ddof=1)) if n > 1 else 0.0
    return Estimate(
        value=one_norm * mean,
        std_error=one_norm * spread / math.sqrt(n),
        shots_used=n,
    )


def _check_target(p: Polynomial, norm_cap: float = 1.0 + 1e-9) -> None:
    if p.max_imag() > 1e-10:
        raise InputError("target polynomial must have real coefficients")
    if sup_norm(p) > norm_cap:
        raise InputError("target polynomial must have sup norm at most 1; rescale it")


def _trace_via_hadamard(
    p: Polynomial,
    rho: DensityMatrix,
    shots: int | Literal["exact"],
    sampler: ShotSampler | None,
) -> tuple[Estimate, int]:
    """tr(p(rho)) by a Hadamard test against the maximally mixed state.

    Encodes p(rho)/||p|| and reads D * ||p|| * Re tr((I/D) * block).  Returns
    the scaled estimate and the sequential depth charged for it (deg p for a
    definite-parity target, twice that otherwise).
    """
    d = rho.dim
    norm = sup_norm(p)
    w, v = rho.eigh()
    block = (v * (p(np.clip(w, -1.0, 1.0)) / norm)) @ v.conj().T
    enc = oracle_block_encode(block)
    est = hadamard_test(enc, DensityMatrix.maximally_mixed(d), shots=shots, sampler=sampler)
    scale = d * norm
    depth = p.degree if p.parity is not Parity.INDEFINITE else 2 * p.degree
    return (
        Estimate(
            value=scale * est.value,
            std_error=scale * est.std_error,
            shots_used=est.shots_used,
        ),
        depth,
    )


def _split_shots(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def estimate_direct(
    p: Polynomial,
    rho: DensityMatrix,
    k: int,
    shots: ShotPolicy = None,
    mode: Mode = "exact",
    epsilon: float = 0.05,
    seed: int | None = None,
    sampler: ShotSampler | None = None,
) -> EstimationReport:
    """tr(P(rho)) for P whose high constituent is non-negative on the reals.

    Splits P = P_low + x^k * P_high; the low part goes through a sequential
    Hadamard test, the high part is factorized into k threads, rescaled, and
    run in parallel, with the squared factorization constant undoing the
    rescale attenuation.  Sampled mode divides the shot budget evenly
    between the two branches.  A high constituent that is not non-negative
    on the real line raises NotNonNegativeError; estimate_chebyshev takes
    any bounded P.
    """
    _check_target(p)
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    if p.is_zero():
        p_low, p_high = Polynomial([]), Polynomial([])
    elif k > p.degree:
        p_low, p_high = p, Polynomial([])
    else:
        p_low, p_high = split_constituents(p, k)

    if not p_high.is_zero():
        if p_high.degree % 2 == 1:
            raise NotNonNegativeError(
                "the high constituent has odd degree, so it cannot be non-negative; "
                "route through estimate_chebyshev"
            )
        grid = np.linspace(-1.0, 1.0, 2001)
        vals = np.real(p_high(grid))
        scale = max(float(np.max(np.abs(vals))), 1e-30)
        if float(vals.min()) < -1e-9 * scale:
            raise NotNonNegativeError(
                "the high constituent is negative on [-1, 1]; "
                "route through estimate_chebyshev"
            )

    exact = mode == "exact"
    if not exact and not isinstance(shots, int):
        raise InputError("sampled mode needs an integer shot count")
    smp = _as_sampler(sampler, seed)

    branches = int(not p_low.is_zero()) + int(not p_high.is_zero())
    alloc = _split_shots(shots, branches) if not exact and branches else []

    value = 0.0
    variance = 0.0
    shots_used = 0
    low_depth = 0
    breakdown: dict = {"w_low": 0.0, "w_high": 0.0, "K": 1.0}
    k_const = 1.0
    parallel_depth = 0
    width = k

    if not p_low.is_zero():
        n = "exact" if exact else alloc.pop(0)
        est, low_depth = _trace_via_hadamard(p_low, rho, n, smp.child(0))
        value += est.value
        variance += est.std_error ** 2
        shots_used += est.shots_used
        breakdown["w_low"] = est.value
        breakdown["low_branch_depth"] = low_depth

    if not p_high.is_zero():
        plan = rescale_factors(factorize_nonneg(p_high, k))
        k_const = plan.stored_constant
        factors = list(plan.factors)
        n = "exact" if exact else alloc.pop(0)
        run = parallel_qsp_run(factors, rho, shots=n, mode="direct", sampler=smp.child(1))
        att = plan.stored_constant ** 2
        value += att * run.value
        variance += (att * run.std_error) ** 2
        shots_used += run.shots_used
        parallel_depth, width = query_depth_report(factors)
        width = max(width, k)
        breakdown.update(
            {
                "w_high": att * run.value,
                "K": plan.stored_constant,
                "factor_degrees": [f.degree for f in factors],
                "parallel_depth": parallel_depth,
            }
        )

    model = CostModel(
        epsilon=epsilon,
        K=k_const,
        norm_low=0.0 if p_low.is_zero() else sup_norm(p_low),
    )
    predicted = predict_cost(model, "theorem4")
    return EstimationReport(
        value=value,
        std_error=math.sqrt(variance),
        shots_used=shots_used,
        predicted_shots=predicted,
        query_depth=max(low_depth, parallel_depth),
        width=width,
        breakdown=breakdown,
    )


def _term_runner(
    factors: Sequence[Polynomial], rho: DensityMatrix
) -> Callable[[int, ShotSampler], np.ndarray]:
    def run(n: int, smp: ShotSampler) -> np.ndarray:
        return parallel_qsp_run(factors, rho, shots=n, mode="direct", sampler=smp).samples()

    return run


def _chebyshev_part(
    part: Polynomial,
    k_part: int,
    rho: DensityMatrix,
    shots_low: int | Literal["exact"],
    shots_high: int | Literal["exact"],
    smp_low: ShotSampler,
    smp_high: ShotSampler,
) -> tuple[Estimate, dict]:
    """Estimate tr(part(rho)) for one definite-parity part.

    Degenerate layouts (no threads to fill, or degree at most the thread
    count) run the whole part sequentially; otherwise the low constituent is
    read sequentially and the high constituent goes through the basis-product
    term decomposition, one parallel run per term.
    """
    d_part = part.degree
    if k_part < 1 or d_part <= k_part:
        est, depth = _trace_via_hadamard(part, rho, shots_low, smp_low)
        info = {"sequential": True, "depth": depth, "w": est.value}
        return est, info

    p_low, p_high = split_constituents(part, k_part)
    value, variance, used = 0.0, 0.0, 0
    info: dict = {"sequential": False, "k_part": k_part}
    if not p_low.is_zero():
        est, depth = _trace_via_hadamard(p_low, rho, shots_low, smp_low)
        value += est.value
        variance += est.std_error ** 2
        used += est.shots_used
        info["w_low"] = est.value
        info["low_depth"] = depth
    terms = chebyshev_parallel_terms(p_high, k_part, d_part)
    factor_lists = [term_factor_polynomials(t, k_part) for t in terms.terms]
    actual_depth = max(
        (max((f.degree for f in fl), default=0) for fl in factor_lists), default=0
    )
    info["term_count"] = len(terms.terms)
    info["term_one_norm"] = terms.one_norm
    info["parallel_depth"] = actual_depth
    if terms.terms:
        if shots_high == "exact":
            w_high = 0.0
            for t, fl in zip(terms.terms, factor_lists):
                z = parallel_qsp_run(fl, rho, shots="exact", mode="direct").value
                w_high += t.coeff * z
            est_high = Estimate(value=w_high, std_error=0.0, shots_used=0)
        else:
            est_high = importance_sample(
                [t.coeff for t in terms.terms],
                [_term_runner(fl, rho) for fl in factor_lists],
                shots_high,
                sampler=smp_high,
            )
        value += est_high.value
        variance += est_high.std_error ** 2
        used += est_high.shots_used
        info["w_high"] = est_high.value
    return Estimate(value=value, std_error=math.sqrt(variance), shots_used=used), info


def estimate_chebyshev(
    p: Polynomial,
    rho: DensityMatrix,
    k: int,
    shots: ShotPolicy = None,
    mode: Mode = "exact",
    epsilon: float = 0.05,
    seed: int | None = None,
    sampler: ShotSampler | None = None,
) -> EstimationReport:
    """tr(P(rho)) for arbitrary real bounded P via basis-product terms.

    P splits into parity parts; each part gets the thread count of matching
    parity (k or k-1) so its high constituent is expressible as products of
    bounded basis polynomials, which never need a factorization constant.
    Terms are recombined exactly or by importance sampling.
    """
    _check_target(p)
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    exact = mode == "exact"
    if not exact and not isinstance(shots, int):
        raise InputError("sampled mode needs an integer shot count")
    smp = _as_sampler(sampler, seed)

    p_even, p_odd = parity_split(p)
    k_even = k if k % 2 == 0 else k - 1
    k_odd = k if k % 2 == 1 else k - 1
    jobs = [
        (name, part, kp)
        for name, part, kp in (
            ("even", p_even, k_even),
            ("odd", p_odd, k_odd),
        )
        if not part.is_zero()
    ]

    alloc = _split_shots(shots, 2 * len(jobs)) if not exact and jobs else []
    value, variance, used = 0.0, 0.0, 0
    breakdown: dict = {}
    actual_depth = 0
    actual_width = 0
    for i, (name, part, kp) in enumerate(jobs):
        s_low = "exact" if exact else alloc[2 * i]
        s_high = "exact" if exact else alloc[2 * i + 1]
        est, info = _chebyshev_part(
            part, kp, rho, s_low, s_high, smp.child(2 * i), smp.child(2 * i + 1)
        )
        value += est.value
        variance += est.std_error ** 2
        used += est.shots_used
        breakdown[name] = info
        if info.get("sequential"):
            actual_depth = max(actual_depth, info["depth"])
            actual_width = max(actual_width, 1)
        else:
            actual_depth = max(
                actual_depth, info.get("parallel_depth", 0), info.get("low_depth", 0)
            )
            actual_width = max(actual_width, kp)

    d = p.degree
    if p.is_zero():
        depth = 0
        width = 0
    elif p.parity is not Parity.INDEFINITE:
        part, kp = jobs[0][1], jobs[0][2]
        if kp < 1 or part.degree <= kp:
            depth = part.degree
        else:
            depth = (part.degree - kp) // (2 * kp) + kp - 1
        width = actual_width
    elif k >= 2 and d > k:
        # closed-form claims for the parity-mismatched split; the measured
        # layout depth lives in breakdown and can differ from either form.
        depth = (d - k + 1) // (2 * (k - 1)) + k - 2
        statement = (d - k) // (2 * (k - 1)) + k - 2
        breakdown["proof_depth"] = depth
        breakdown["statement_depth"] = statement
        breakdown["depth_formula_discrepancy"] = depth != statement
        width = k
    else:
        depth = actual_depth
        width = actual_width
    breakdown["actual_depth"] = actual_depth

    if p.is_zero() or k > p.degree:
        norm_low, norm_high = (0.0 if p.is_zero() else sup_norm(p)), 0.0
    else:
        lo, hi = split_constituents(p, k)
        norm_low = 0.0 if lo.is_zero() else sup_norm(lo)
        norm_high = 0.0 if hi.is_zero() else sup_norm(hi)
    predicted = predict_cost(
        CostModel(
            epsilon=epsilon, norm_low=norm_low, norm_high=norm_high, d=max(d, 1), k=k
        ),
        "theorem5",
    )
    return EstimationReport(
        value=value,
        std_error=math.sqrt(variance),
        shots_used=used,
        predicted_shots=predicted,
        query_depth=depth,
        width=width,
        breakdown=breakdown,
    )


def _monomial_factors(n: int, k: int) -> list[Polynomial]:
    """Thread layout whose parallel run reads tr(rho^n) with k threads.

    For n <= k the run is a bare swap test on n registers; otherwise the
    leftover exponent (n-k)//2 spreads over k monomial threads as evenly as
    possible, plus one bare register when the leftover is odd.
    """
    if n < 1:
        raise InputError("monomial exponent must be at least 1")
    if n <= k:
        return [Polynomial([1.0]) for _ in range(n)]
    m = (n - k) // 2
    r = m % k
    exps = [m // k + 1] * r + [m // k] * (k - r)
    factors = [Polynomial.monomial(e) if e else Polynomial([1.0]) for e in exps]
    if (n - k) % 2 == 1:
        factors.append(Polynomial([1.0]))
    return factors


def renyi_integer(
    rho: DensityMatrix,
    alpha: int,
    k: int,
    epsilon: float = 0.05,
    shots: ShotPolicy = "auto",
    mode: Mode = "exact",
    seed: int | None = None,
    sampler: ShotSampler | None = None,
) -> EstimationReport:
    """Integer-order Renyi entropy ln(tr(rho^alpha))/(1-alpha).

    With alpha > k, tr(rho^alpha) comes from one parallel run over monomial
    threads; the reported depth quotes the closed form
    floor(floor((alpha-k)/2)/k) + 1, which can exceed the constructed
    factors' degree (that actual degree sits in the breakdown).  alpha <= k
    has nothing to parallelize and falls back to one sequential Hadamard
    test, noted in the breakdown.  Auto shot selection runs a 1000-shot
    pilot to seed the trace-dependent count.
    """
    if int(alpha) != alpha or alpha < 2:
        raise InputError(f"alpha must be an integer >= 2, got {alpha!r}")
    alpha = int(alpha)
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    exact = mode == "exact"
    smp = _as_sampler(sampler, seed)
    dim = rho.dim
    breakdown: dict = {"params": {"alpha": float(alpha)}}

    if alpha <= k:
        breakdown["notice"] = (
            "alpha <= k leaves nothing to parallelize; sequential path used"
        )
        power = np.linalg.matrix_power(rho.matrix, alpha - 1)
        enc = oracle_block_encode(power)
        n = "exact" if exact else (1000 if shots in ("auto", None) else int(shots))
        est = hadamard_test(enc, rho, shots=n, sampler=smp.child(1))
        s_val, s_err, used = est.value, est.std_error, est.shots_used
        depth, width = alpha - 1, 1
        pilot_used = 0
    else:
        factors = _monomial_factors(alpha, k)
        depth = ((alpha - k) // 2) // k + 1
        width = len(factors)
        breakdown["exponents"] = [f.degree for f in factors]
        breakdown["actual_depth"] = max(f.degree for f in factors)
        if exact:
            est = parallel_qsp_run(factors, rho, shots="exact", mode="direct")
            s_val, s_err, used, pilot_used = est.value, 0.0, 0, 0
        else:
            if shots in ("auto", None):
                pilot = parallel_qsp_run(
                    factors, rho, shots=1000, mode="direct", sampler=smp.child(0)
                )
                pilot_used = pilot.shots_used
                s_guess = min(1.0, max(pilot.value, dim ** (1 - alpha)))
                n_main = predict_cost(
                    CostModel(epsilon=epsilon, s_alpha=s_guess, alpha=float(alpha)),
                    "theorem7",
                )
                breakdown["pilot_estimate"] = pilot.value
                breakdown["auto_shots"] = n_main
            else:
                pilot_used = 0
                n_main = int(shots)
            est = parallel_qsp_run(
                factors, rho, shots=n_main, mode="direct", sampler=smp.child(1)
            )
            s_val, s_err, used = est.value, est.std_error, est.shots_used

    if s_val <= 0.0:
        raise ConvergenceError(
            f"trace estimate {s_val:.3e} is not positive; "
            "the entropy logarithm is undefined at this shot count"
        )
    entropy = math.log(s_val) / (1 - alpha)
    entropy_err = s_err / (s_val * abs(1 - alpha))
    breakdown["s_alpha"] = s_val
    predicted = predict_cost(
        CostModel(epsilon=epsilon, s_alpha=s_val, alpha=float(alpha)), "theorem7"
    )
    return EstimationReport(
        value=entropy,
        std_error=entropy_err,
        shots_used=used + pilot_used,
        predicted_shots=predicted,
        query_depth=depth,
        width=width,
        breakdown=breakdown,
    )


def monomial_poly_trace(
    p: Polynomial,
    rho: DensityMatrix,
    k: int,
    shots: ShotPolicy = None,
    mode: Mode = "exact",
    epsilon: float = 0.05,
    seed: int | None = None,
    sampler: ShotSampler | None = None,
) -> EstimationReport:
    """tr(P(rho)) term by term over the monomial coefficients.

    The constant term contributes c_0 * dim analytically; every other
    monomial trace tr(rho^n) gets its own thread layout and the importance
    sampler splits the budget across them by |c_n|.  No sign or parity
    restrictions; the price is the coefficient 1-norm entering the cost.
    """
    if p.max_imag() > 1e-10:
        raise InputError("polynomial must have real coefficients")
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    exact = mode == "exact"
    if not exact and not isinstance(shots, int):
        raise InputError("sampled mode needs an integer shot count")
    smp = _as_sampler(sampler, seed)
    dim = rho.dim
    coeffs = [float(c.real) for c in p.coeffs]
    one_norm = sum(abs(c) for c in coeffs)
    if one_norm > 1e6:
        warnings.warn(
            f"coefficient 1-norm {one_norm:.3e} makes sampling costs prohibitive",
            stacklevel=2,
        )
    c0 = coeffs[0] if coeffs else 0.0
    tail = [(n, c) for n, c in enumerate(coeffs) if n >= 1 and c != 0.0]
    layouts = {n: _monomial_factors(n, k) for n, _ in tail}

    value = c0 * dim
    variance, used = 0.0, 0
    if tail:
        if exact:
            for n, c in tail:
                z = parallel_qsp_run(layouts[n], rho, shots="exact", mode="direct").value
                value += c * z
        else:
            est = importance_sample(
                [c for _, c in tail],
                [_term_runner(layouts[n], rho) for n, _ in tail],
                shots,
                sampler=smp,
            )
            value += est.value
            variance = est.std_error ** 2
            used = est.shots_used

    d = p.degree
    depth = max(0, ((d - k) // 2) // k + 1) if d >= 1 else 0
    width = max((len(layouts[n]) for n, _ in tail), default=0)
    predicted = predict_cost(CostModel(epsilon=epsilon, one_norm=one_norm), "theorem8")
    breakdown = {
        "constant_term": c0 * dim,
        "one_norm": one_norm,
        "active_exponents": [n for n, _ in tail],
        "actual_depth": max(
            (max(f.degree for f in layouts[n]) for n, _ in tail), default=0
        ),
    }
    return EstimationReport(
        value=value,
        std_error=math.sqrt(variance),
        shots_used=used,
        predicted_shots=predicted,
        query_depth=depth,
        width=width,
        breakdown=breakdown,
    )


def partition_function(
    rho: DensityMatrix,
    beta: float,
    k: int,
    epsilon: float = 1e-3,
    shots: ShotPolicy = "auto",
    mode: Mode = "exact",
    seed: int | None = None,
    sampler: ShotSampler | None = None,
) -> EstimationReport:
    """tr(exp(-beta * rho)) through a truncated exponential series.

    The degree is the smallest d whose Taylor remainder certificate
    exp(beta) * beta^(d+1)/(d+1)! clears epsilon/(2*dim); the series then
    routes through the monomial estimator.  The coefficient 1-norm is
    certified below exp(beta).
    """
    if beta < 0:
        raise InputError(f"inverse temperature must be non-negative, got {beta}")
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    dim = rho.dim
    target = epsilon / (2.0 * dim)

    def log_remainder(deg: int) -> float:
        # log of exp(beta) * beta^(deg+1) / (deg+1)!; -inf at beta = 0
        if beta == 0.0:
            return -math.inf
        return beta + (deg + 1) * math.log(beta) - math.lgamma(deg + 2)

    d = 0
    while log_remainder(d) > math.log(target):
        d += 1
        if d > 400:
            raise ConvergenceError("series degree exceeded 400 without certification")
    coeffs = [(-beta) ** n / math.factorial(n) for n in range(d + 1)]
    series = Polynomial(coeffs)
    n_shots = shots
    if mode == "sampled" and shots in ("auto", None):
        n_shots = predict_cost(CostModel(epsilon=epsilon, beta=beta), "theorem9")
    sub = monomial_poly_trace(
        series, rho, k, shots=n_shots, mode=mode, epsilon=epsilon, seed=seed, sampler=sampler
    )
    predicted = predict_cost(CostModel(epsilon=epsilon, beta=beta), "theorem9")
    breakdown = dict(sub.breakdown)
    breakdown.update(
        {
            "series_degree": d,
            "remainder_bound": math.exp(log_remainder(d)),
            "one_norm_certificate": math.exp(beta),
            "params": {"beta": beta},
        }
    )
    return EstimationReport(
        value=sub.value,
        std_error=sub.std_error,
        shots_used=sub.shots_used,
        predicted_shots=predicted,
        query_depth=sub.query_depth,
        width=sub.width,
        breakdown=breakdown,
    )


def _fit_odd_approximant(
    f: Callable[[np.ndarray], np.ndarray],
    delta: float,
    eps_prime: float,
    max_degree: int = 200,
) -> tuple[Polynomial, int, float]:
    """Odd polynomial approximant to an odd target on [delta, 1], verified.

    Least-squares in the odd basis on scaled nodes of [delta, 1]; oddness
    extends validity to [-1, -delta] for free.  The accepted degree is the
    first whose measured sup error on an independent uniform grid clears
    eps_prime; exceeding max_degree raises with the best residual seen.
    """
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta must lie strictly inside (0, 1), got {delta}")
    best_res, best = math.inf, None
    d = 1
    while d <= max_degree:
        n_nodes = 4 * (d + 1)
        theta = (np.arange(n_nodes) + 0.5) * math.pi / n_nodes
        nodes = (1.0 + delta) / 2.0 + (1.0 - delta) / 2.0 * np.cos(theta)
        vander = npcheb.chebvander(nodes, d)[:, 1::2]
        coef, *_ = np.linalg.lstsq(vander, f(nodes), rcond=None)
        full = np.zeros(d + 1)
        full[1::2] = coef
        poly = Polynomial(npcheb.cheb2poly(full))
        grid = np.linspace(delta, 1.0, max(10 * d, 50))
        err = float(np.max(np.abs(np.real(poly(grid)) - f(grid))))
        if err <= eps_prime:
            return poly, d, err
        if err < best_res:
            best_res, best = err, d
        d += 2
    raise ConvergenceError(
        f"no odd approximant of degree <= {max_degree} reaches error {eps_prime:.3e} "
        f"(best {best_res:.3e} at degree {best})",
        best_residual=best_res,
    )


def _resolve_delta(
    rho: DensityMatrix, delta: float | Literal["auto"] | None, rank: int | None
) -> tuple[float, str]:
    """Spectral cutoff: user value, 1/rank, or the smallest nonzero eigenvalue."""
    if isinstance(delta, (int, float)) and not isinstance(delta, bool):
        if not (0.0 < float(delta) < 1.0):
            raise InputError(f"delta must lie strictly inside (0, 1), got {delta}")
        return float(delta), "user"
    if rank is not None:
        if rank < 1:
            raise InputError(f"rank must be a positive integer, got {rank}")
        return min(1.0 / rank, 1.0 - 1e-9), "rank"
    eigs = rho.eigenvalues()
    nonzero = eigs[eigs > 1e-12]
    if nonzero.size == 0:
        raise InputError("state has no eigenvalue above 1e-12")
    return min(float(nonzero.min()), 1.0 - 1e-9), "spectrum"


def _entropy_from_poly_trace(
    poly: Polynomial,
    rho: DensityMatrix,
    k: int,
    shots: ShotPolicy,
    mode: Mode,
    epsilon: float,
    seed: int | None,
    sampler: ShotSampler | None,
    auto_shots: int | None,
) -> EstimationReport:
    """Shared tail: shrink below unit norm, estimate the trace, undo shrink."""
    shrink = min(1.0, (1.0 - 1e-9) / sup_norm(poly))
    n_shots = shots
    if mode == "sampled" and shots in ("auto", None):
        n_shots = auto_shots
    sub = estimate_chebyshev(
        poly * shrink, rho, k, shots=n_shots, mode=mode, epsilon=epsilon,
        seed=seed, sampler=sampler,
    )
    return EstimationReport(
        value=sub.value / shrink,
        std_error=sub.std_error / shrink,
        shots_used=sub.shots_used,
        predicted_shots=sub.predicted_shots,
        query_depth=sub.query_depth,
        width=sub.width,
        breakdown=dict(sub.breakdown, shrink=shrink),
    )


def renyi_noninteger(
    rho: DensityMatrix,
    alpha: float,
    k: int,
    epsilon: float = 0.05,
    delta: float | Literal["auto"] = "auto",
    rank: int | None = None,
    shots: ShotPolicy = "auto",
    mode: Mode = "exact",
    seed: int | None = None,
    sampler: ShotSampler | None = None,
) -> EstimationReport:
    """Non-integer-order Renyi entropy via an odd approximant to x^alpha.

    The approximant is certified on [delta, 1] to the error that keeps the
    final entropy within epsilon after the logarithm's derivative is
    accounted for; the trace of the approximant then routes through the
    basis-product estimator, and the entropy transform propagates the error.
    """
    if alpha <= 0 or float(alpha) == int(alpha):
        raise InputError(
            f"alpha must be positive and non-integer, got {alpha!r}; "
            "integer orders go through renyi_integer"
        )
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    dval, droute = _resolve_delta(rho, delta, rank)
    dim = rho.dim
    s_floor = dim ** (1.0 - alpha) if alpha > 1 else 1.0
    denom = 2.0 * rank if droute == "rank" else 2.0 * dim
    eps_prime = s_floor * epsilon * abs(alpha - 1.0) / denom
    poly, deg, cert = _fit_odd_approximant(
        lambda x: np.sign(x) * np.abs(x) ** alpha, dval, eps_prime
    )
    auto = predict_cost(
        CostModel(epsilon=epsilon, d=deg, k=k, alpha=alpha, s_alpha=s_floor),
        "theorem10",
    )
    sub = _entropy_from_poly_trace(
        poly, rho, k, shots, mode, epsilon, seed, sampler, auto
    )
    s_val = sub.value
    if s_val <= 0.0:
        raise ConvergenceError(
            f"trace estimate {s_val:.3e} is not positive; "
            "the entropy logarithm is undefined at this shot count"
        )
    entropy = math.log(s_val) / (1.0 - alpha)
    entropy_err = sub.std_error / (s_val * abs(1.0 - alpha))
    params = {"alpha": alpha, "delta": dval, "s_alpha": s_val}
    if rank is not None:
        params["rank"] = rank
    predicted = predict_cost(
        CostModel(epsilon=epsilon, d=deg, k=k, alpha=alpha, s_alpha=s_val),
        "theorem10",
    )
    breakdown = dict(sub.breakdown)
    breakdown.update(
        {
            "params": params,
            "delta_route": droute,
            "approximant_degree": deg,
            "approximant_error": cert,
            "eps_prime": eps_prime,
            "s_alpha": s_val,
        }
    )
    return EstimationReport(
        value=entropy,
        std_error=entropy_err,
        shots_used=sub.shots_used,
        predicted_shots=predicted,
        query_depth=sub.query_depth,
        width=sub.width,
        breakdown=breakdown,
    )


def von_neumann(
    rho: DensityMatrix,
    k: int,
    epsilon: float = 0.05,
    delta: float | Literal["auto"] = "auto",
    rank: int | None = None,
    shots: ShotPolicy = "auto",
    mode: Mode = "exact",
    seed: int | None = None,
    sampler: ShotSampler | None = None,
) -> EstimationReport:
    """Von Neumann entropy -tr(rho ln rho) via an odd approximant to -x ln|x|.

    The approximant's trace is the entropy estimate directly; no transform
    follows, so the certified polynomial error epsilon/(2*dim) (or the rank
    variant) is the whole budget.
    """
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    dval, droute = _resolve_delta(rho, delta, rank)
    dim = rho.dim
    denom = 2.0 * rank if droute == "rank" else 2.0 * dim
    eps_prime = epsilon / denom

    def target(x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        out = np.zeros_like(ax)
        np.log(ax, out=out, where=ax > 0)
        return -x * out

    poly, deg, cert = _fit_odd_approximant(target, dval, eps_prime)
    auto = predict_cost(CostModel(epsilon=epsilon, d=deg, k=k), "theorem11")
    sub = _entropy_from_poly_trace(
        poly, rho, k, shots, mode, epsilon, seed, sampler, auto
    )
    params = {"delta": dval}
    if rank is not None:
        params["rank"] = rank
    predicted = predict_cost(CostModel(epsilon=epsilon, d=deg, k=k), "theorem11")
    breakdown = dict(sub.breakdown)
    breakdown.update(
        {
            "params": params,
            "delta_route": droute,
            "approximant_degree": deg,
            "approximant_error": cert,
            "eps_prime": eps_prime,
        }
    )
    return EstimationReport(
        value=sub.value,
        std_error=sub.std_error,
        shots_used=sub.shots_used,
        predicted_shots=predicted,
        query_depth=sub.query_depth,
        width=sub.width,
        breakdown=breakdown,
    )
