"""Trace and entropy estimators built on the parallel factorized circuits.

Every estimator here reduces tr(f(rho)) to a combination of three runs: a
sequential Hadamard test for the low-degree remainder, parallel runs of
factor polynomials for the high-degree part, and an importance sampler that
recombines coefficient-weighted term estimates in one multinomial draw over
all of a stage's thread layouts.  Each run is one stage Estimate: c * stage
scales it back to the trace it measures (D times the norm for a Hadamard
test, K^2 for a factorized run), a + b adds independent stages, and a
report's value, standard error and shots are their sum (for entropies, its
ln(s)/(1 - alpha) transform).

Each estimator plans its stages and _run_stages, the one place that splits
a budget and builds samplers, runs them.  A stage is a bound read-out, its
scale and its ShotSampler child path.  Exact mode gives every stage "exact";
a sampled budget needs an integer of at least one shot per stage.  One
stage takes it whole.  Two or more first draw a pilot of ceil(sqrt(budget))
shots each, charged to the budget but not pooled, and split the rest in
proportion to each stage's pilot-measured per-shot spread times its scale
(Neyman allocation), at least one shot each; a budget too small for the
pilot splits evenly.  An estimator's `seed` keys one ShotSampler, and each
stage draws both its pilot and its main shots from its own child stream.

Reports also carry the closed-form predicted shot count for the chosen
route (unit leading constant; these are order-of-magnitude planners, not
guarantees) and the query depth / width accounting.

Cost routes are keyed by the names predict_cost accepts ("theorem3" ...
"theorem11"); each is a documented closed form over the fields of CostModel.
Reported query depths quote the matching closed form as well; the depth the
constructed factors actually achieve (it can be smaller) is always present
in the report breakdown.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from itertools import accumulate, islice
from typing import Callable, Literal, Sequence

import numpy as np
import numpy.polynomial.chebyshev as npcheb

from .errors import ConvergenceError, InputError
from .factor import (
    chebyshev_parallel_terms,
    factorize_nonneg,
    rescale_factors,
    term_layout,
)
from .poly import (
    Parity,
    Polynomial,
    _shared_polynomial,
    parity_split,
    split_constituents,
    sup_norm,
)
from .sim import (
    DensityMatrix,
    Estimate,
    ShotSampler,
    _check_shots,
    joint_readout,
    layout_table,
    parallel_qsp_run,
    parallel_qsp_runs,
    query_depth_report,
    redraw,
    spectral_hadamard_test,
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
# Highest degree _fit_odd_approximant tries before giving up.
MAX_APPROXIMANT_DEGREE = 200


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
    table: Sequence[Polynomial],
    index: np.ndarray,
    rho: DensityMatrix,
    total_shots: int | Literal["exact"],
    sampler: ShotSampler | None = None,
) -> Estimate:
    """Coefficient-weighted sum of a stage's run traces by one importance draw.

    Each shot picks run j of the (table, index) stage with probability
    |c_j|/||c||_1 and measures it; sign(c_j) flips the outcome, so ||c||_1
    times the pooled mean is unbiased for sum_j c_j z_j.  All runs are
    evaluated in one parallel_qsp_runs pass and all shots drawn by one
    joint_readout, which returns sum_j c_j z_j itself for "exact".
    """
    q, z = parallel_qsp_runs(table, index, rho)
    return joint_readout(q, z, total_shots, sampler, coeffs=coeffs)


def _check_target(p: Polynomial) -> None:
    """Reject a target with complex coefficients or with sup norm above 1 + 1e-9.

    |T_n| <= 1 on [-1, 1], so a Chebyshev 1-norm sum |c_n| <= 1 certifies
    the bound without the sup norm, with the whole 1e-9 to spare for the
    round-off of either sum; only a target above that pays for its exact
    norm.  The verdict is the exact norm's either way.
    """
    if p.max_imag() > 1e-10:
        raise InputError("target polynomial must have real coefficients")
    if sum(map(abs, p.cheb)) > 1.0 and sup_norm(p) > 1.0 + 1e-9:
        raise InputError("target polynomial must have sup norm at most 1; rescale it")


@dataclass(frozen=True)
class _Stage:
    """One read-out of a plan: read(shots, sampler=) returns its Estimate,
    scale maps that to the trace it measures and stream is its ShotSampler
    child path."""

    read: Callable[..., Estimate]
    scale: float = 1.0
    stream: tuple[int, ...] = ()


def _hadamard_stage(p: Polynomial, rho: DensityMatrix, stream: tuple[int, ...]) -> _Stage:
    """tr(p(rho)) as D * ||p|| * Re tr((I/D) * p(rho)/||p||), a Hadamard test."""
    return _Stage(partial(spectral_hadamard_test, p, rho), rho.dim * sup_norm(p), stream)


def _run_stages(
    stages: Sequence[_Stage],
    shots: ShotPolicy,
    mode: Mode,
    seed: int | None,
    breakdown: dict | None = None,
) -> list[Estimate]:
    """Each stage's scaled Estimate, read on its own child of one ShotSampler.

    Exact mode reads every stage "exact".  Otherwise the budget must be an
    integer of at least the stage count, and one stage reads it whole.  Two
    or more first read a pilot of ceil(sqrt(budget)) shots each.  The pilot
    is charged to the stage's shots_used, but its outcomes are not pooled:
    they only set the stage's spread, |scale| times _pilot_spread.  The rest
    of the budget splits in proportion to the spreads, at least one shot
    each (_neyman_split), and each stage redraws its main shots from its
    pilot's source, the outcome law its read-out computed once, on the same
    stream; a read-out without a source is read again.  A budget below
    stages * (pilot + 1) splits evenly (the first `budget mod stages` take
    one more).  Given a breakdown, a sampled run of two or more stages
    records each stage's pilot shots, main shots and spread (None without a
    pilot) as stage_shots, in stage order.
    """
    root = ShotSampler(seed)
    samplers = [reduce(ShotSampler.child, s.stream, root) for s in stages]
    if mode == "exact":
        return [s.scale * s.read("exact", sampler=smp) for s, smp in zip(stages, samplers)]
    budget = _check_shots(shots, len(stages))
    pilot = math.isqrt(max(budget - 1, 0)) + 1  # ceil(sqrt(budget)) for budget >= 1
    if len(stages) < 2 or len(stages) * (pilot + 1) > budget:
        base, rem = divmod(budget, max(len(stages), 1))
        mains = [base + (i < rem) for i in range(len(stages))]
        ests = [s.scale * s.read(n, sampler=smp) for s, smp, n in zip(stages, samplers, mains)]
        pilot, spreads = 0, [None] * len(stages)
    else:
        firsts = [s.read(pilot, sampler=smp) for s, smp in zip(stages, samplers)]
        spreads = [abs(s.scale) * _pilot_spread(f, pilot) for s, f in zip(stages, firsts)]
        mains = _neyman_split(budget - len(stages) * pilot, spreads)
        ests = []
        for s, smp, first, n in zip(stages, samplers, firsts, mains):
            est = redraw(first, n) if first.source else s.read(n, sampler=smp)
            ests.append(s.scale * Estimate(est.value, est.std_error, pilot + est.shots_used))
    if breakdown is not None and len(stages) > 1:
        breakdown["stage_shots"] = [
            {"pilot": pilot, "main": n, "spread": sp} for n, sp in zip(mains, spreads)
        ]
    return ests


def _pilot_spread(first: Estimate, pilot: int) -> float:
    """The per-shot standard deviation a pilot of `pilot` shots measured.

    It is floored at one outcome's worth, source.worth / sqrt(pilot), the
    spread the pilot would show had one of its shots read one worth away from
    the rest, so a stage whose pilot saw no spread still gets its share.
    """
    floor = first.source.worth / math.sqrt(pilot) if first.source else 0.0
    return max(first.std_error * math.sqrt(pilot), floor)


def _neyman_split(total: int, weights: Sequence[float]) -> list[int]:
    """total shots in proportion to weights, at least one each; all-zero weights
    split evenly.  The spare shots are cut at the floors of their cumulative
    weighted shares, so the counts sum to total exactly."""
    weights = weights if any(weights) else [1.0] * len(weights)
    spare, w_sum = total - len(weights), sum(weights)
    cuts = [min(spare, math.floor(spare * (acc / w_sum))) for acc in accumulate(weights[:-1])]
    cuts.append(spare)
    return [1 + b - a for a, b in zip([0, *cuts], cuts)]


def _report(est: Estimate, **fields) -> EstimationReport:
    return EstimationReport(
        value=est.value, std_error=est.std_error, shots_used=est.shots_used, **fields
    )


def estimate_direct(
    p: Polynomial,
    rho: DensityMatrix,
    k: int,
    shots: ShotPolicy = None,
    mode: Mode = "exact",
    epsilon: float = 0.05,
    seed: int | None = None,
) -> EstimationReport:
    """tr(P(rho)) for P whose high constituent is non-negative on the reals.

    Splits P = P_low + x^k * P_high; the low part goes through a sequential
    Hadamard test, the high part is factorized into k threads, rescaled, and
    run in parallel, with the squared factorization constant undoing the
    rescale attenuation.  Sampled mode splits the shot budget between the
    two branches by a pilot's measured spread (see _run_stages) and records
    the split as breakdown["stage_shots"].  A high constituent that is not
    non-negative on the real line raises NotNonNegativeError;
    estimate_chebyshev takes any bounded P.
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

    stages: dict[str, _Stage] = {}
    breakdown: dict = {"w_low": 0.0, "w_high": 0.0, "K": 1.0}
    low_depth = parallel_depth = width = 0
    if not p_low.is_zero():
        stages["w_low"] = _hadamard_stage(p_low, rho, (0,))
        breakdown["low_branch_depth"] = low_depth = query_depth_report([p_low])[0]
        width = 1
    if not p_high.is_zero():
        plan = rescale_factors(factorize_nonneg(p_high, k))
        factors = list(plan.factors)
        read = partial(parallel_qsp_run, factors, rho)
        stages["w_high"] = _Stage(read, plan.stored_constant ** 2, (1,))
        parallel_depth, width = query_depth_report(factors)
        breakdown.update(
            K=plan.stored_constant,
            factor_degrees=[f.degree for f in factors],
            parallel_depth=parallel_depth,
        )

    # every stage is planned, so a rejected high part fails before any read-out
    ests = _run_stages(list(stages.values()), shots, mode, seed, breakdown)
    breakdown.update(zip(stages, (est.value for est in ests)))
    model = CostModel(
        epsilon=epsilon,
        K=breakdown["K"],
        norm_low=0.0 if p_low.is_zero() else sup_norm(p_low),
    )
    predicted = predict_cost(model, "theorem4")
    return _report(
        sum(ests, Estimate(0.0, 0.0)),
        predicted_shots=predicted,
        query_depth=max(low_depth, parallel_depth),
        width=width,
        breakdown=breakdown,
    )


def _chebyshev_part(
    part: Polynomial, k_part: int, rho: DensityMatrix, i: int
) -> tuple[dict[str, _Stage], dict]:
    """Plan tr(part(rho)) for one definite-parity part: (stages, info).

    Degenerate layouts (no threads to fill, or degree at most the thread
    count) run the whole part sequentially; otherwise the low constituent is
    read sequentially and the high constituent goes through the basis-product
    term decomposition, all terms in one batch of parallel runs.  Part i
    reads on streams 2i (low) and 2i + 1 (high).  stages are keyed by the
    info entry their value fills, which info holds as None until then.
    """
    d_part = part.degree
    if k_part < 1 or d_part <= k_part:
        info = {"sequential": True, "depth": query_depth_report([part])[0], "w": None}
        return {"w": _hadamard_stage(part, rho, (2 * i,))}, info

    p_low, p_high = split_constituents(part, k_part)
    terms = chebyshev_parallel_terms(p_high, k_part, d_part)
    table, index = term_layout(terms, k_part)
    stages: dict[str, _Stage] = {}
    info: dict = {"sequential": False, "k_part": k_part}
    if not p_low.is_zero():
        stages["w_low"] = _hadamard_stage(p_low, rho, (2 * i,))
        info.update(w_low=None, low_depth=query_depth_report([p_low])[0])
    info["term_count"] = len(terms.coeff)
    info["term_one_norm"] = terms.one_norm
    info["parallel_depth"] = query_depth_report(table)[0]
    if len(terms.coeff):
        read = partial(importance_sample, terms.coeff, table, index, rho)
        stages["w_high"] = _Stage(read, 1.0, (2 * i + 1,))
        info["w_high"] = None
    return stages, info


def estimate_chebyshev(
    p: Polynomial,
    rho: DensityMatrix,
    k: int,
    shots: ShotPolicy = None,
    mode: Mode = "exact",
    epsilon: float = 0.05,
    seed: int | None = None,
) -> EstimationReport:
    """tr(P(rho)) for arbitrary real bounded P via basis-product terms.

    P splits into parity parts; each part gets the thread count of matching
    parity (k or k-1) so its high constituent is expressible as products of
    bounded basis polynomials, which never need a factorization constant.
    Terms are recombined exactly or by importance sampling.  Sampled mode
    splits the budget over all parts' stages by a pilot's measured spread
    (see _run_stages) and records the split as breakdown["stage_shots"].
    """
    _check_target(p)
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    p_even, p_odd = parity_split(p)
    k_even = k if k % 2 == 0 else k - 1
    k_odd = k if k % 2 == 1 else k - 1
    jobs = [
        (name, part, kp)
        for name, part, kp in (("even", p_even, k_even), ("odd", p_odd, k_odd))
        if not part.is_zero()
    ]

    plans = [_chebyshev_part(part, kp, rho, i) for i, (_, part, kp) in enumerate(jobs)]
    breakdown: dict = {}
    ests = iter(
        _run_stages([s for st, _ in plans for s in st.values()], shots, mode, seed, breakdown)
    )
    total = Estimate(0.0, 0.0)
    actual_depth = 0
    actual_width = 0
    for (name, _, kp), (stages, info) in zip(jobs, plans):
        # sum each part's stages, then the parts: a flat sum moves last bits
        part_ests = list(islice(ests, len(stages)))
        info.update(zip(stages, (est.value for est in part_ests)))
        total += sum(part_ests, Estimate(0.0, 0.0))
        breakdown[name] = info
        if info["sequential"]:
            actual_depth = max(actual_depth, info["depth"])
            actual_width = max(actual_width, 1)
        else:
            actual_depth = max(actual_depth, info["parallel_depth"], info.get("low_depth", 0))
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
    return _report(
        total,
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
        return [Polynomial.one()] * n
    m = (n - k) // 2
    r = m % k
    exps = [m // k + 1] * r + [m // k] * (k - r)
    factors = [_shared_polynomial("x", e) for e in exps]
    if (n - k) % 2 == 1:
        factors.append(Polynomial.one())
    return factors


def _monomial_depth(n: int, k: int) -> int:
    """The closed-form query depth quoted for tr(rho^n) read with k threads:
    floor(floor((n-k)/2)/k) + 1, which can exceed the degree of
    _monomial_factors(n, k) by one, and 0 below n = k."""
    return max(0, ((n - k) // 2) // k + 1)


def renyi_integer(
    rho: DensityMatrix,
    alpha: int,
    k: int,
    epsilon: float = 0.05,
    shots: ShotPolicy = "auto",
    mode: Mode = "exact",
    seed: int | None = None,
) -> EstimationReport:
    """Integer-order Renyi entropy ln(tr(rho^alpha))/(1-alpha).

    tr(rho^alpha) comes from one parallel run over the threads of
    _monomial_factors(alpha, k), the generalized swap test on alpha bare
    registers when alpha <= k.  The reported depth quotes the closed form
    _monomial_depth(alpha, k), so it never rises with k; the constructed
    factors' degrees and actual depth sit in the breakdown.  Auto shot
    selection runs the same stage as a 1000-shot pilot to seed the
    trace-dependent count.
    """
    if int(alpha) != alpha or alpha < 2:
        raise InputError(f"alpha must be an integer >= 2, got {alpha!r}")
    alpha = int(alpha)
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    factors = _monomial_factors(alpha, k)
    breakdown: dict = {"params": {"alpha": float(alpha)}, "exponents": [f.degree for f in factors]}
    breakdown["actual_depth"], width = query_depth_report(factors)
    read = partial(parallel_qsp_run, factors, rho)
    pilot_used = 0
    if mode != "exact" and shots in ("auto", None):
        (pilot,) = _run_stages([_Stage(read, stream=(0,))], 1000, mode, seed)
        pilot_used = pilot.shots_used
        s_guess = min(1.0, max(pilot.value, rho.dim ** (1 - alpha)))
        shots = predict_cost(
            CostModel(epsilon=epsilon, s_alpha=s_guess, alpha=float(alpha)), "theorem7"
        )
        breakdown["pilot_estimate"] = pilot.value
        breakdown["auto_shots"] = shots
    (trace,) = _run_stages([_Stage(read, stream=(1,))], shots, mode, seed)

    entropy = _renyi_transform(trace, alpha)
    breakdown["s_alpha"] = trace.value
    predicted = predict_cost(
        CostModel(epsilon=epsilon, s_alpha=trace.value, alpha=float(alpha)), "theorem7"
    )
    return EstimationReport(
        value=entropy.value,
        std_error=entropy.std_error,
        shots_used=entropy.shots_used + pilot_used,
        predicted_shots=predicted,
        query_depth=_monomial_depth(alpha, k),
        width=width,
        breakdown=breakdown,
    )


def _renyi_transform(trace: Estimate | EstimationReport, alpha: float) -> Estimate:
    """ln(s)/(1 - alpha) of a trace estimate s, error propagated to first order."""
    s = trace.value
    if s <= 0.0:
        raise ConvergenceError(
            f"trace estimate {s:.3e} is not positive; "
            "the entropy logarithm is undefined at this shot count"
        )
    return Estimate(
        value=math.log(s) / (1 - alpha),
        std_error=trace.std_error / (s * abs(1 - alpha)),
        shots_used=trace.shots_used,
    )


def monomial_poly_trace(
    p: Polynomial,
    rho: DensityMatrix,
    k: int,
    shots: ShotPolicy = None,
    mode: Mode = "exact",
    epsilon: float = 0.05,
    seed: int | None = None,
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
    table, index = layout_table([layouts[n] for n, _ in tail])

    read = partial(importance_sample, [c for _, c in tail], table, index, rho)
    stages = [_Stage(read)] if tail else []
    total = sum(_run_stages(stages, shots, mode, seed), Estimate(c0 * dim, 0.0))

    width = max((len(layouts[n]) for n, _ in tail), default=0)
    predicted = predict_cost(CostModel(epsilon=epsilon, one_norm=one_norm), "theorem8")
    breakdown = {
        "constant_term": c0 * dim,
        "one_norm": one_norm,
        "active_exponents": [n for n, _ in tail],
        "actual_depth": query_depth_report(table)[0],
    }
    return _report(
        total,
        predicted_shots=predicted,
        query_depth=_monomial_depth(p.degree, k),
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
    predicted = predict_cost(CostModel(epsilon=epsilon, beta=beta), "theorem9")
    auto = mode == "sampled" and shots in ("auto", None)
    sub = monomial_poly_trace(
        series, rho, k, shots=predicted if auto else shots, mode=mode, epsilon=epsilon, seed=seed
    )
    return replace(
        sub,
        predicted_shots=predicted,
        breakdown=dict(
            sub.breakdown,
            series_degree=d,
            remainder_bound=math.exp(log_remainder(d)),
            one_norm_certificate=math.exp(beta),
            params={"beta": beta},
        ),
    )


def _fit_odd_approximant(
    f: Callable[[np.ndarray], np.ndarray],
    delta: float,
    eps_prime: float,
) -> tuple[Polynomial, int, float]:
    """Odd polynomial approximant to an odd target on [delta, 1], verified.

    Least-squares in the odd basis on scaled nodes of [delta, 1]; oddness
    extends validity to [-1, -delta] for free.  The accepted degree is the
    first whose measured sup error on an independent uniform grid clears
    eps_prime; exceeding MAX_APPROXIMANT_DEGREE raises with the best residual
    seen.
    """
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta must lie strictly inside (0, 1), got {delta}")
    best_res, best = math.inf, None
    d = 1
    while d <= MAX_APPROXIMANT_DEGREE:
        poly, err = _odd_fit(f, delta, d)
        if err <= eps_prime:
            return poly, d, err
        if err < best_res:
            best_res, best = err, d
        d += 2
    raise ConvergenceError(
        f"no odd approximant of degree <= {MAX_APPROXIMANT_DEGREE} reaches error {eps_prime:.3e} "
        f"(best {best_res:.3e} at degree {best})",
        best_residual=best_res,
    )


def _odd_fit(
    f: Callable[[np.ndarray], np.ndarray], delta: float, d: int
) -> tuple[Polynomial, float]:
    """The degree-d fit and its sup error on the uniform grid.

    A frame of its own, so that the ConvergenceError of a failed search does
    not keep the last fit's arrays alive (640 KB of Vandermonde matrix at
    degree 199) for as long as a caller keeps the error.
    """
    n_nodes = 4 * (d + 1)
    theta = (np.arange(n_nodes) + 0.5) * math.pi / n_nodes
    nodes = (1.0 + delta) / 2.0 + (1.0 - delta) / 2.0 * np.cos(theta)
    vander = npcheb.chebvander(nodes, d)[:, 1::2]
    coef, *_ = np.linalg.lstsq(vander, f(nodes), rcond=None)
    full = np.zeros(d + 1)
    full[1::2] = coef
    poly = Polynomial.from_cheb(full)
    grid = np.linspace(delta, 1.0, max(10 * d, 50))
    return poly, float(np.max(np.abs(np.real(poly(grid)) - f(grid))))


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
    f: Callable[[np.ndarray], np.ndarray],
    budget: float,
    model: CostModel,
    route: str,
    rho: DensityMatrix,
    k: int,
    delta: float | Literal["auto"],
    rank: int | None,
    shots: ShotPolicy,
    mode: Mode,
    seed: int | None,
) -> EstimationReport:
    """tr(q(rho)) for a certified odd approximant q to f: the shared pipeline.

    q is fitted on [delta, 1] to the error budget/(2*dim), or budget/(2*rank)
    on the rank route, shrunk below unit norm, traced by estimate_chebyshev
    and scaled back.  Auto shots and predicted_shots quote `route` for
    `model` at the approximant's degree.  The certificate covers eigenvalues
    in [delta, 1] only: the breakdown records the spectral mass of rho's
    nonzero eigenvalues below delta as mass_below_delta (0.0 on the spectrum
    route), and a notice when it is positive, since the error there is not
    bounded.
    """
    if k < 1:
        raise InputError(f"thread count must be at least 1, got {k}")
    dval, droute = _resolve_delta(rho, delta, rank)
    w = rho.eigenvalues()
    mass = float(w[(w > 1e-12) & (w < dval)].sum())
    eps_prime = budget / (2.0 * rank if droute == "rank" else 2.0 * rho.dim)
    poly, deg, cert = _fit_odd_approximant(f, dval, eps_prime)
    predicted = predict_cost(replace(model, d=deg), route)
    shrink = min(1.0, (1.0 - 1e-9) / sup_norm(poly))
    auto = mode == "sampled" and shots in ("auto", None)
    sub = estimate_chebyshev(
        poly * shrink, rho, k, shots=predicted if auto else shots, mode=mode,
        epsilon=model.epsilon, seed=seed,
    )
    notice = {} if mass <= 0.0 else {
        "notice": f"spectral mass {mass:.3g} lies below delta = {dval:.3g}, outside the "
        "approximant's certificate on [delta, 1]; the error bound does not cover it"
    }
    return replace(
        sub,
        value=sub.value / shrink,
        std_error=sub.std_error / shrink,
        predicted_shots=predicted,
        breakdown=dict(
            sub.breakdown,
            shrink=shrink,
            params={"delta": dval} if rank is None else {"delta": dval, "rank": rank},
            delta_route=droute,
            approximant_degree=deg,
            approximant_error=cert,
            eps_prime=eps_prime,
            mass_below_delta=mass,
            **notice,
        ),
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
) -> EstimationReport:
    """Non-integer-order Renyi entropy via an odd approximant to x^alpha.

    The approximant is certified on [delta, 1] to the error that keeps the
    final entropy within epsilon after the logarithm's slope is
    accounted for; the trace of the approximant then routes through the
    basis-product estimator, and the entropy transform propagates the error.
    """
    if alpha <= 0 or float(alpha) == int(alpha):
        raise InputError(
            f"alpha must be positive and non-integer, got {alpha!r}; "
            "integer orders go through renyi_integer"
        )
    s_floor = rho.dim ** (1.0 - alpha) if alpha > 1 else 1.0
    model = CostModel(epsilon=epsilon, k=k, alpha=alpha, s_alpha=s_floor)
    trace = _entropy_from_poly_trace(
        lambda x: np.sign(x) * np.abs(x) ** alpha, s_floor * epsilon * abs(alpha - 1.0),
        model, "theorem10", rho, k, delta, rank, shots, mode, seed,
    )
    entropy = _renyi_transform(trace, alpha)
    s_val = trace.value
    deg = trace.breakdown["approximant_degree"]
    return replace(
        trace,
        value=entropy.value,
        std_error=entropy.std_error,
        predicted_shots=predict_cost(replace(model, d=deg, s_alpha=s_val), "theorem10"),
        breakdown=dict(
            trace.breakdown,
            params={"alpha": alpha, **trace.breakdown["params"], "s_alpha": s_val},
            s_alpha=s_val,
        ),
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
) -> EstimationReport:
    """Von Neumann entropy -tr(rho ln rho) via an odd approximant to -x ln|x|.

    The approximant's trace is the entropy estimate directly; no transform
    follows, so the certified polynomial error epsilon/(2*dim) (or the rank
    variant) is the whole budget.
    """

    def target(x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        out = np.zeros_like(ax)
        np.log(ax, out=out, where=ax > 0)
        return -x * out

    return _entropy_from_poly_trace(
        target, epsilon, CostModel(epsilon=epsilon, k=k), "theorem11",
        rho, k, delta, rank, shots, mode, seed,
    )
