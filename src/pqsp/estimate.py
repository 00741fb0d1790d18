"""Trace and entropy estimators built on the parallel factorized circuits.

Every estimator here reduces tr(f(rho)) to a combination of three kinds of
stage: a sequential Hadamard test for the low-degree remainder, a parallel
run of factor polynomials for the high-degree part, and an importance stage
of coefficient-weighted term runs, all of a stage's thread layouts
evaluated in one pass.  A stage is a law and its scale: its read returns
the exact Estimate of runs (q_j, z_j) with coefficients c_j, keeping that
law, and its scale maps the read to the trace it measures (D times the norm
for a Hadamard test, K^2 for a factorized run).  c * stage scales an
Estimate, a + b adds independent stages, and a report's value, standard
error and shots are their sum (for entropies, its ln(s)/(1 - alpha)
transform).

A plan builds and checks what its stages read once: a Hadamard stage's law,
a layout checked by sim._checked_layout (swap-test layouts come from the
_swap_layout memo, one per (exponents, k), and Chebyshev term layouts from
the _term_layout memo, one per (k, sorted ctilde keys)), or the fresh
factors of estimate_direct's factorized run, which parallel_qsp_run checks.
Stage reads hand their laws to sim._read, the one reader, which checks
nothing again.

Each estimator builds one _Plan of stages and hands it to _execute, the one
place that reads stages or builds a report; nested estimators compose
plans, not reports.  _execute reads every stage exactly, once.  Exact mode
scales and sums those reads.  Sampled mode needs an integer budget of at
least one shot per stage and spends it in one joint_readout over all the
plan's runs (q_j, z_j), weighted by c_j times their stage's scale: a
Hadamard stage is one run that always succeeds, a factorized run is its one
run and an importance stage is its term runs.  With room, that draw reads a
pilot of ceil(sqrt(budget)) shots per stage, charged to the budget but not
pooled, split over all runs by |weight|, and splits the rest by |weight|
times each run's pilot-measured spread (Neyman allocation); a smaller
budget gives each stage a fixed share by its weights' 1-norm.  Either way
the stages' Estimates are independent.  An estimator's `seed` keys one
ShotSampler, and the draw runs on the child stream the plan names.

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
import numbers
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial, reduce, wraps
from itertools import islice
from typing import Callable, Literal, NamedTuple

import numpy as np

from .errors import ConvergenceError, InputError
from .factor import (
    _one_norm,
    _tail_ctilde,
    _term_coefficients,
    _term_grid,
    factorize_nonneg,
    rescale_factors,
    term_layout,
)
from .poly import (
    TRIM_TOL,
    Parity,
    Polynomial,
    _check_finite,
    _clenshaw,
    _integer,
    _norms_exceed,
    _shared_polynomial,
    parity_split,
    split_constituents,
    sup_norm,
)
from .sim import (
    _ONE,
    DensityMatrix,
    Estimate,
    ShotSampler,
    _check_shots,
    _checked_layout,
    _hadamard_law,
    _Layout,
    _layout_runs,
    _read,
    joint_readout,
    layout_table,
    parallel_qsp_run,
    query_depth_report,
)

__all__ = [
    "EstimationReport",
    "CostModel",
    "predict_cost",
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
# Highest degree _fit_odd_approximant tries before giving up; it keys the
# approximant memo too.  A success fits about 2 log2(d) degrees (10 ms at
# degree 79, 25 ms at 139 for von_neumann on random:4:7 and random:8:3, 2
# shared vCPUs, one BLAS thread); a failed search fits every odd degree up to
# the cap once: 0.20-0.21 s for von_neumann on random:16:7, the dearest
# outcome the memo replays.
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
        """The fields in order, breakdown made JSON-ready."""
        return dict(vars(self), breakdown=_jsonable(self.breakdown))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    # bool before int: True is an int, and numpy's bool is neither
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


# What each optional CostModel field must be when given, and its test; d and
# k, None here, must be integers >= 1
_NON_NEGATIVE = ("finite and >= 0", lambda v: 0 <= v < math.inf)
_COST_FIELDS = {
    "K": _NON_NEGATIVE,
    "norm_low": _NON_NEGATIVE,
    "norm_high": _NON_NEGATIVE,
    "one_norm": _NON_NEGATIVE,
    "d": None,
    "k": None,
    "alpha": ("finite", lambda v: -math.inf < v < math.inf),
    "s_alpha": ("finite and > 0", lambda v: 0 < v < math.inf),
    "beta": _NON_NEGATIVE,
}


@dataclass(frozen=True)
class CostModel:
    """Inputs to the closed-form shot-count predictions.

    Only the fields a route consumes need to be populated; predict_cost
    rejects a route whose fields are missing.  Construction checks every
    given field and raises InputError naming the first bad one: epsilon
    must be finite and positive, K and the norms finite and >= 0, d and k
    integers >= 1, alpha finite, s_alpha finite and positive and beta finite
    and >= 0.
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

    def __post_init__(self):
        if self.epsilon is None or not self.epsilon > 0:  # NaN fails it too
            raise InputError(f"epsilon must be positive, got {self.epsilon}")
        if self.epsilon == math.inf:
            raise InputError(f"epsilon must be finite, got {self.epsilon}")
        for name, value in vars(self).items():
            if value is None or name == "epsilon":
                continue
            rule = _COST_FIELDS[name]
            if rule is None:
                _integer(value, name, 1)
            elif not rule[1](value):
                raise InputError(f"{name} must be {rule[0]}, got {value!r}")


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
    e2 = model.epsilon * model.epsilon
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
        if a == 0:
            raise InputError("route theorem7 needs alpha != 0")
        raw = 1.0 / (s ** 2 * a ** 2 * e2)
    elif route == "theorem8":
        (c1,) = _require(model, route, "one_norm")
        raw = c1 ** 2 / e2
    elif route == "theorem9":
        (beta,) = _require(model, route, "beta")
        raw = math.exp(2.0 * beta) / e2
    elif route == "theorem10":
        d, k, a, s = _require(model, route, "d", "k", "alpha", "s_alpha")
        if a == 1:
            raise InputError("route theorem10 needs alpha != 1")
        lead = (d ** (k + 2) / math.factorial(k + 1)) ** 2 * (d / k)
        raw = lead / (s ** 2 * e2 * (a - 1.0) ** 2)
    elif route == "theorem11":
        d, k = _require(model, route, "d", "k")
        raw = (d ** (k + 2) / math.factorial(k + 1)) ** 2 * (d / k) / e2
    else:
        raise InputError(f"unknown cost route {route!r}")
    return max(1, math.ceil(raw))


def _check_target(p: Polynomial) -> None:
    """Reject a target with complex coefficients or with sup norm above 1 + 1e-9.

    |T_n| <= 1 on [-1, 1], so a Chebyshev 1-norm sum |c_n| <= 1 certifies
    the bound without the sup norm, with the whole 1e-9 to spare for the
    round-off of either sum.  A target above that is read on poly's grid of
    N + 1 Chebyshev extreme points, N at least 64 times its degree, whose
    largest |p| M certifies M <= ||p|| <= M sec(pi d / 2N); only a target
    whose interval holds 1 + 1e-9 (within 1e-12) pays for its exact norm,
    polished from the grid's peaks or, if a polish fails, from the
    colleague-matrix eigensolve.  The verdict is the exact norm's either way.
    """
    if p.max_imag() > 1e-10:
        raise InputError("target polynomial must have real coefficients")
    if sum(map(abs, p.cheb)) > 1.0 and _norms_exceed([p], 1.0 + 1e-9)[0]:
        raise InputError("target polynomial must have sup norm at most 1; rescale it")


class _Stage(NamedTuple):
    """One read-out of a plan: read() returns its exact Estimate with the law
    it read, and scale maps that to the trace it measures."""

    read: Callable[[], Estimate]
    scale: float = 1.0


def _hadamard_stage(p: Polynomial, rho: DensityMatrix) -> _Stage:
    """tr(p(rho)) as D * ||p|| * Re tr((I/D) * p(rho)/||p||), a Hadamard test."""
    return _Stage(lambda: _read(*_hadamard_law(p, rho)), rho.dim * sup_norm(p))


def _term_stage(coeffs: np.ndarray, layout: _Layout, rho: DensityMatrix) -> _Stage:
    """sum_j c_j tr(run j) over the runs of a checked layout, c a float array:
    a swap test or an importance stage, every run evaluated in one
    _layout_runs pass and read by _read, without re-checking the layout."""
    return _Stage(lambda: _read(*_layout_runs(layout, rho), coeffs))


@dataclass
class _Plan:
    """An estimator's stages and the report fields known before any read.
    _execute draws all the stages' runs of a sampled plan in one draw, and
    finish maps the stages' scaled Estimates, independent of each other, to
    the report's Estimate, filling breakdown with what the reads measured;
    predict then quotes predicted_shots (theorems 7 and 10 at the measured
    trace), so a nested plan replaces the inner quote without computing it.
    auto is the budget a sampled shots="auto" (or None) spends: a shot count,
    a rule on a 1000-shot pilot of the first stage on stream (0,), or None,
    which leaves "auto" to _check_shots to reject.  stream is the ShotSampler
    child path of the plan's one draw."""

    stages: list[_Stage]
    query_depth: int
    width: int
    breakdown: dict
    finish: Callable[[list[Estimate]], Estimate]
    predict: Callable[[], int]
    auto: int | Callable[[Estimate], int] | None = None
    stream: tuple[int, ...] = ()


def _threaded(build: Callable[..., _Plan]) -> Callable[..., _Plan]:
    """A plan builder that first checks its first argument, the thread count k."""
    return wraps(build)(lambda k, *args: build(_integer(k, "thread count", 1), *args))


def _execute(plan: _Plan, shots: ShotPolicy, mode: Mode, seed: int | None) -> EstimationReport:
    """Read a plan's stages and build its report: the one place either happens.

    A mode other than "exact" or "sampled" fails before any read-out, and a
    sampled budget is checked before one too.  Each stage is read exactly,
    once; sampled mode then draws the whole budget in one joint_readout on
    the plan's stream and records each stage's runs, pilot and main
    shots as breakdown["stage_shots"] (a plan without stages draws nothing).
    Each stage's run weights are its coefficients times its scale, so the
    parts the draw returns are the scaled stage Estimates finish sums.  An
    auto rule first draws a 1000-shot pilot of the first stage alone, on
    stream (0,); it is charged to shots_used and recorded as
    breakdown["pilot_estimate"], with the budget the rule chose as
    breakdown["auto_shots"].  Both draws go through joint_readout, sim's
    public drawing call, so whatever watches that boundary sees every shot
    drawn; the stage reads go straight to sim._read."""
    if mode not in ("exact", "sampled"):
        raise InputError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    root, stages = ShotSampler(seed), plan.stages
    if mode == "sampled" and shots in ("auto", None) and plan.auto is not None:
        shots = plan.auto
    if mode == "sampled" and not callable(shots):
        shots = _check_shots(shots, len(stages))
    reads = [s.read() for s in stages]
    pilot_used = 0
    if mode == "exact" or not stages:
        ests = [s.scale * r for s, r in zip(stages, reads)]
    else:
        laws = [(r.law[0], r.law[1], s.scale * r.law[2]) for s, r in zip(stages, reads)]
        q, z, w = map(np.concatenate, zip(*laws))
        sizes = [len(law[1]) for law in laws]
        if callable(shots):
            head = slice(0, sizes[0])
            pilot = joint_readout(q[head], z[head], 1000, root.child(0), coeffs=w[head])
            shots, pilot_used = plan.auto(pilot), pilot.shots_used
            plan.breakdown.update(pilot_estimate=pilot.value, auto_shots=shots)
        sampler = reduce(ShotSampler.child, plan.stream, root)
        parts = joint_readout(q, z, shots, sampler, coeffs=w, stages=sizes).parts
        ests = [est for est, _ in parts]
        plan.breakdown["stage_shots"] = [record for _, record in parts]
    est = plan.finish(ests)
    return EstimationReport(
        value=est.value, std_error=est.std_error, shots_used=est.shots_used + pilot_used,
        predicted_shots=plan.predict(), query_depth=plan.query_depth, width=plan.width,
        breakdown=plan.breakdown,
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
    rescale attenuation.  Sampled mode draws both branches' runs in one
    stratified draw (see _execute) and records each branch's shots as
    breakdown["stage_shots"].  A high constituent that is not
    non-negative on the real line raises NotNonNegativeError;
    estimate_chebyshev takes any bounded P.
    """
    _check_target(p)
    return _execute(_direct_plan(k, p, rho, epsilon), shots, mode, seed)


@_threaded
def _direct_plan(k: int, p: Polynomial, rho: DensityMatrix, epsilon: float) -> _Plan:
    """estimate_direct's plan, drawn on stream (0,), or (1,) without a low
    stage; a rejected high part fails before any read-out."""
    p_low, p_high = _constituents(p, k)
    stages: dict[str, _Stage] = {}
    breakdown: dict = {"w_low": 0.0, "w_high": 0.0, "K": 1.0}
    low_depth = parallel_depth = width = 0
    if not p_low.is_zero():
        stages["w_low"] = _hadamard_stage(p_low, rho)
        breakdown["low_branch_depth"] = low_depth = query_depth_report([p_low])[0]
        width = 1
    if not p_high.is_zero():
        rescaled = rescale_factors(factorize_nonneg(p_high, k))
        factors = list(rescaled.factors)
        # fresh factors, checked once by parallel_qsp_run
        stages["w_high"] = _Stage(
            partial(parallel_qsp_run, factors, rho), rescaled.stored_constant ** 2
        )
        parallel_depth, width = query_depth_report(factors)
        breakdown.update(
            K=rescaled.stored_constant,
            factor_degrees=[f.degree for f in factors],
            parallel_depth=parallel_depth,
        )

    def finish(ests: list[Estimate]) -> Estimate:
        breakdown.update(zip(stages, (est.value for est in ests)))
        return sum(ests, Estimate(0.0, 0.0))

    model = CostModel(epsilon=epsilon, K=breakdown["K"], norm_low=_norm(p_low))
    predict = partial(predict_cost, model, "theorem4")
    depth, stream = max(low_depth, parallel_depth), (0,) if "w_low" in stages else (1,)
    return _Plan(list(stages.values()), depth, width, breakdown, finish, predict, stream=stream)


def _constituents(p: Polynomial, k: int) -> tuple[Polynomial, Polynomial]:
    """split_constituents(p, k), or (p, 0) when p is zero or k exceeds its degree."""
    return (p, Polynomial([])) if p.is_zero() or k > p.degree else split_constituents(p, k)


def _norm(p: Polynomial) -> float:
    return 0.0 if p.is_zero() else sup_norm(p)


def _chebyshev_part(
    part: Polynomial, k_part: int, rho: DensityMatrix
) -> tuple[dict[str, _Stage], dict]:
    """Plan tr(part(rho)) for one definite-parity part: (stages, info).

    Degenerate layouts (no threads to fill, or degree at most the thread
    count) run the whole part sequentially; otherwise the low constituent is
    read sequentially and the high constituent goes through the basis-product
    term decomposition, all terms in one batch of parallel runs.  stages are
    keyed by the info entry their value fills, which info holds as None
    until then.
    """
    d_part = part.degree
    if k_part < 1 or d_part <= k_part:
        info = {"sequential": True, "depth": query_depth_report([part])[0], "w": None}
        return {"w": _hadamard_stage(part, rho)}, info

    p_low, p_high = split_constituents(part, k_part)
    ctilde = _tail_ctilde(p_high, k_part, d_part)
    coeff = _term_coefficients(ctilde, k_part)
    _, layout, depth = _term_layout(k_part, tuple(sorted(ctilde)))
    stages: dict[str, _Stage] = {}
    info: dict = {"sequential": False, "k_part": k_part}
    if not p_low.is_zero():
        stages["w_low"] = _hadamard_stage(p_low, rho)
        info.update(w_low=None, low_depth=query_depth_report([p_low])[0])
    info["term_count"] = len(coeff)
    info["term_one_norm"] = _one_norm(coeff)
    info["parallel_depth"] = depth
    if len(coeff):
        stages["w_high"] = _term_stage(coeff, layout, rho)
        info["w_high"] = None
    return stages, info


# Tail shapes the term-layout memo keeps: trace-mix's 34, which recur every
# pass, and room to spare.  entropy-spectrum reads about 27 shapes every pass
# and 2-8 new ones (per-state approximant degrees), so the oldest of those go
# first.  Full, it held 1.0 MB (tracemalloc, entropy-spectrum seed 1).
@lru_cache(maxsize=40)
def _term_layout(k: int, keys: tuple[int, ...]) -> tuple[tuple, _Layout, int]:
    """(factor table, checked layout, depth) of the term runs of a tail whose
    ctilde has the sorted keys, read on k threads: built and checked once
    per (k, keys), as no part of it depends on ctilde's values or the
    state.  depth is query_depth_report's for the table.  The term grid the
    table is built from is not kept: the layout's index carries it."""
    table, index = term_layout(_term_grid(k, keys), k)
    return table, _checked_layout(table, index), query_depth_report(table)[0]


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
    draws all parts' stages in one draw, stratified by run (see _execute),
    and records each stage's shots as breakdown["stage_shots"].
    """
    _check_target(p)
    return _execute(_chebyshev_plan(k, p, rho, epsilon), shots, mode, seed)


@_threaded
def _chebyshev_plan(k: int, p: Polynomial, rho: DensityMatrix, epsilon: float) -> _Plan:
    """estimate_chebyshev's plan: every part's stages, in part order, drawn
    on stream 2i, or 2i + 1 if the first part i with stages has no low one."""
    model = CostModel(epsilon, d=max(p.degree, 1), k=k)
    p_even, p_odd = parity_split(p)
    k_even = k if k % 2 == 0 else k - 1
    k_odd = k if k % 2 == 1 else k - 1
    jobs = [
        (name, part, kp)
        for name, part, kp in (("even", p_even, k_even), ("odd", p_odd, k_odd))
        if not part.is_zero()
    ]

    parts = [_chebyshev_part(part, kp, rho) for _, part, kp in jobs]
    breakdown: dict = {}
    actual_depth = actual_width = 0
    for (name, _, kp), (_, info) in zip(jobs, parts):
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

    def finish(ests: list[Estimate]) -> Estimate:
        ests = iter(ests)
        total = Estimate(0.0, 0.0)
        for stages, info in parts:
            # sum each part's stages, then the parts: a flat sum moves last bits
            part_ests = list(islice(ests, len(stages)))
            info.update(zip(stages, (est.value for est in part_ests)))
            total += sum(part_ests, Estimate(0.0, 0.0))
        return total

    def predict() -> int:
        lo, hi = _constituents(p, k)
        quote = CostModel(
            model.epsilon, norm_low=_norm(lo), norm_high=_norm(hi), d=model.d, k=model.k
        )
        return predict_cost(quote, "theorem5")

    stages = [s for st, _ in parts for s in st.values()]
    leads = [2 * i + (key == "w_high") for i, (st, _) in enumerate(parts) for key in st]
    stream = tuple(leads[:1])
    return _Plan(stages, depth, width, breakdown, finish, predict, stream=stream)


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


@lru_cache(maxsize=128)
def _swap_layout(exponents: tuple[int, ...], k: int) -> tuple[tuple, _Layout, int, int]:
    """(factor table, checked layout, depth, width) of the runs that read
    tr(rho^n) with k threads, one run of _monomial_factors(n, k) per n in
    exponents, built and checked once per (exponents, k).

    depth is query_depth_report's for the table and width the most threads
    a run has.  An entry holds no state, so every state reads the same one:
    renyi_integer asks for (alpha,) at each order and thread count, and the
    monomial estimator for the active exponents of its polynomial, which
    partition_function's series repeat at each degree.
    """
    table, index = layout_table([_monomial_factors(n, k) for n in exponents])
    return table, _checked_layout(table, index), query_depth_report(table)[0], index.shape[1]


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
    registers when alpha <= k, on a layout built once per (alpha, k)
    (_swap_layout).  The reported depth quotes the closed form
    _monomial_depth(alpha, k), so it never rises with k; the constructed
    factors' degrees and actual depth sit in the breakdown.  Auto shot
    selection runs the same stage as a 1000-shot pilot to seed the
    trace-dependent count.
    """
    if not (isinstance(alpha, numbers.Real) and math.isfinite(alpha) and int(alpha) == alpha >= 2):
        raise InputError(f"alpha must be an integer >= 2, got {alpha!r}")
    return _execute(_renyi_integer_plan(k, rho, int(alpha), epsilon), shots, mode, seed)


@_threaded
def _renyi_integer_plan(k: int, rho: DensityMatrix, alpha: int, epsilon: float) -> _Plan:
    """renyi_integer's plan: one swap-test stage on stream (1,), and an auto
    rule quoting theorem 7 at the pilot's trace, clipped to [D^(1-alpha), 1]."""
    model = CostModel(epsilon, alpha=float(alpha))
    table, layout, actual_depth, width = _swap_layout((alpha,), k)
    breakdown: dict = {
        "params": {"alpha": float(alpha)},
        "exponents": [table[r].degree for r in layout.index[0].tolist()],
        "actual_depth": actual_depth,
    }

    def theorem7(s_alpha: float) -> int:
        quote = CostModel(model.epsilon, alpha=model.alpha, s_alpha=s_alpha)
        return predict_cost(quote, "theorem7")

    def finish(ests: list[Estimate]) -> Estimate:
        (trace,) = ests
        breakdown["s_alpha"] = trace.value
        return _renyi_transform(trace, alpha)

    def predict() -> int:
        return theorem7(breakdown["s_alpha"])

    def auto(pilot: Estimate) -> int:
        return theorem7(min(1.0, max(pilot.value, rho.dim ** (1 - alpha))))

    stage = _term_stage(_ONE, layout, rho)
    depth = _monomial_depth(alpha, k)
    return _Plan([stage], depth, width, breakdown, finish, predict, auto, stream=(1,))


def _renyi_transform(trace: Estimate, alpha: float) -> Estimate:
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
    coeffs = [float(c.real) for c in p.coeffs]
    return _execute(_monomial_plan(k, coeffs, rho, epsilon), shots, mode, seed)


@_threaded
def _monomial_plan(k: int, coeffs: list[float], rho: DensityMatrix, epsilon: float) -> _Plan:
    """monomial_poly_trace's plan for the real monomial coefficients of a P
    (top one nonzero): one importance stage on the root stream, none for a
    constant P."""
    dim = rho.dim
    one_norm = sum(abs(c) for c in coeffs)
    if one_norm > 1e6:  # stacklevel 4 is past _threaded, at the estimator's caller
        warnings.warn(
            f"coefficient 1-norm {one_norm:.3e} makes sampling costs prohibitive",
            stacklevel=4,
        )
    c0 = coeffs[0] if coeffs else 0.0
    tail = [(n, c) for n, c in enumerate(coeffs) if n >= 1 and c != 0.0]
    exponents = tuple(n for n, _ in tail)
    _, layout, actual_depth, width = _swap_layout(exponents, k)

    breakdown = {
        "constant_term": c0 * dim,
        "one_norm": one_norm,
        "active_exponents": list(exponents),
        "actual_depth": actual_depth,
    }
    stages = [_term_stage(np.array([c for _, c in tail]), layout, rho)] if tail else []
    finish = partial(sum, start=Estimate(c0 * dim, 0.0))
    predict = partial(predict_cost, CostModel(epsilon=epsilon, one_norm=one_norm), "theorem8")
    return _Plan(stages, _monomial_depth(len(coeffs) - 1, k), width, breakdown, finish, predict)


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
    routes through the monomial estimator's plan.  The coefficient 1-norm is
    certified below exp(beta), and theorem 9 sets both the auto budget and
    predicted_shots.
    """
    if beta < 0:
        raise InputError(f"inverse temperature must be non-negative, got {beta}")
    if not beta < math.inf:  # NaN fails it too
        raise InputError(f"inverse temperature must be finite, got {beta}")
    model = CostModel(epsilon=epsilon, beta=beta)
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

    def taylor(n: int) -> float:
        # (-beta)^n / n!; past float range beta^n or n! overflows, the quotient does not
        try:
            return (-beta) ** n / math.factorial(n)
        except OverflowError:
            return (-1.0) ** n * math.exp(n * math.log(beta) - math.lgamma(n + 1))

    coeffs = [taylor(n) for n in range(d + 1)]
    while len(coeffs) > 1 and abs(coeffs[-1]) <= TRIM_TOL:  # as Polynomial(coeffs) trims
        coeffs.pop()
    predicted = predict_cost(model, "theorem9")
    plan = _monomial_plan(k, coeffs, rho, epsilon)
    plan.breakdown.update(
        series_degree=d, remainder_bound=math.exp(log_remainder(d)),
        one_norm_certificate=math.exp(beta), params={"beta": beta},
    )
    plan.predict, plan.auto = (lambda: predicted), predicted
    return _execute(plan, shots, mode, seed)


def _von_neumann_target(x: np.ndarray) -> np.ndarray:
    """-x ln|x|, odd, and 0 at x = 0."""
    ax = np.abs(x)
    out = np.zeros_like(ax)
    np.log(ax, out=out, where=ax > 0)
    return -x * out


def _renyi_target(alpha: float, x: np.ndarray) -> np.ndarray:
    """sign(x) |x|^alpha, the odd extension of x^alpha."""
    return np.sign(x) * np.abs(x) ** alpha


@lru_cache(maxsize=64)
def _approximant(
    tag: str | tuple[str, float], delta: float, eps_prime: float, max_degree: int
) -> tuple[Polynomial | None, int | None, float]:
    """_fit_odd_approximant's outcome for a target tag, memoized.

    The tag is "von_neumann" or ("renyi", alpha); the fit depends on nothing
    else, so a k sweep, or one user-given delta across states, fits once.  A
    failure is stored as data, never as an exception, and each caller raises
    its own.
    """
    f = _von_neumann_target if tag == "von_neumann" else partial(_renyi_target, tag[1])
    return _fit_odd_approximant(f, delta, eps_prime, max_degree)


def _fit_odd_approximant(
    f: Callable[[np.ndarray], np.ndarray],
    delta: float,
    eps_prime: float,
    max_degree: int,
) -> tuple[Polynomial | None, int | None, float]:
    """Odd polynomial approximant to an odd target on [delta, 1], verified.

    Least-squares in the odd basis on scaled nodes of [delta, 1]; oddness
    extends validity to [-1, -delta] for free.  The accepted degree is the
    first odd one whose measured sup error on an independent uniform grid
    clears eps_prime, as a scan from degree 1 up finds it: (poly, degree,
    error).  Past max_degree it gives up with (None, best degree, best
    error), the minimum over every odd degree up to it.

    The search gallops over the odd degrees 1, 3, 7, 15, ... (2d + 1, capped
    at the top odd degree) to the first that clears, then bisects the odd
    degrees between the last failing probe and it.  When no probe clears,
    it scans every odd degree from 1 up, replaying the probes, so a failure
    names the scan's best degree and error.  Each degree is fitted once
    (see _fit_degree).  The outcome is the scan's whenever no degree the
    bisection skips below the accepted one clears eps_prime, as on every
    fit compared.  On 2 shared vCPUs with one BLAS thread, von_neumann's
    fit on random:4:7 accepts degree 79 in 10 ms, where the scan took 20 ms;
    its failure at the cap on random:16:7 costs what the scan's did, 0.21 s.
    """
    fits: dict[int, tuple[np.ndarray, float]] = {}

    def error(d: int) -> float:
        if d not in fits:
            fits[d] = _fit_degree(f, delta, d)
        return fits[d][1]

    top = max_degree - 1 + max_degree % 2  # the highest odd degree up to the cap
    failed, probe = -1, 1
    while probe < top and error(probe) > eps_prime:
        failed, probe = probe, min(2 * probe + 1, top)
    if probe <= top and error(probe) <= eps_prime:
        while probe - failed > 2:
            mid = failed + 2 * ((probe - failed) // 4)
            if error(mid) <= eps_prime:
                probe = mid
            else:
                failed = mid
        accepted = probe
    else:  # no probe clears: the scan from degree 1, replaying the probes
        accepted = next((d for d in range(1, top + 1, 2) if error(d) <= eps_prime), None)
    if accepted is None:
        best_res, best = math.inf, None
        for d in range(1, top + 1, 2):
            if error(d) < best_res:
                best_res, best = error(d), d
        return None, best, best_res
    full, err = fits[accepted]
    return Polynomial.from_cheb(full), accepted, err


def _fit_degree(
    f: Callable[[np.ndarray], np.ndarray], delta: float, d: int
) -> tuple[np.ndarray, float]:
    """The degree-d odd least-squares fit of f on [delta, 1]: its Chebyshev
    coefficients and its sup error on a uniform grid of max(10 d, 50) points.

    One real kernel keeps the bits of numpy.polynomial's complex arithmetic:
    rows T_i(nodes) recurred into one buffer as chebvander does, lstsq on the
    odd rows, Clenshaw on the trimmed coefficients over the grid.  The fits
    of a failed search to degree 199 (2 shared vCPUs, one BLAS thread) are
    61% lstsq, 24% check and 13% rows.
    """
    n_nodes = 4 * (d + 1)
    theta = (np.arange(n_nodes) + 0.5) * math.pi / n_nodes
    nodes = (1.0 + delta) / 2.0 + (1.0 - delta) / 2.0 * np.cos(theta)
    rows = np.empty((d + 1, n_nodes))  # rows[i] = T_i(nodes), as chebvander recurs
    rows[0], rows[1], x2 = 1.0, nodes, 2 * nodes
    for a, b, c in zip(rows, rows[1:], rows[2:]):
        np.multiply(b, x2, out=c)
        c -= a
    coef, *_ = np.linalg.lstsq(rows[1::2].T, f(nodes), rcond=None)
    full = np.zeros(d + 1)
    full[1::2] = coef
    if not np.isfinite(coef).all():
        _check_finite(list(map(complex, full)))  # raises from_cheb's InputError
    n = d + 1
    while n > 1 and abs(full[n - 1]) <= TRIM_TOL:  # as Polynomial.from_cheb trims
        n -= 1
    grid = np.linspace(delta, 1.0, max(10 * d, 50))
    return full, float(np.max(np.abs(_clenshaw(full[:n].tolist(), grid) - f(grid))))


def _resolve_delta(
    rho: DensityMatrix, delta: float | Literal["auto"], rank: int | None
) -> tuple[float, str]:
    """Spectral cutoff: user value, 1/rank, or the smallest nonzero eigenvalue.

    Both arguments key the approximant memo, so anything but a real delta in
    (0, 1) or "auto", and an integer rank of at least 1 or None, is rejected.
    """
    if rank is not None and (
        not isinstance(rank, numbers.Integral) or isinstance(rank, bool) or rank < 1
    ):
        raise InputError(f"rank must be a positive integer, got {rank!r}")
    if isinstance(delta, numbers.Real) and not isinstance(delta, bool):
        if not (0.0 < float(delta) < 1.0):
            raise InputError(f"delta must lie strictly inside (0, 1), got {delta}")
        return float(delta), "user"
    if not (isinstance(delta, str) and delta == "auto"):
        raise InputError(f"delta must be a number in (0, 1) or 'auto', got {delta!r}")
    if rank is not None:
        return min(1.0 / rank, 1.0 - 1e-9), "rank"
    eigs = rho.eigenvalues()
    nonzero = eigs[eigs > 1e-12]
    if nonzero.size == 0:
        raise InputError("state has no eigenvalue above 1e-12")
    return min(float(nonzero.min()), 1.0 - 1e-9), "spectrum"


@_threaded
def _entropy_plan(
    k: int, tag: str | tuple[str, float], budget: float, epsilon: float,
    quote: Callable[[int, int], int], rho: DensityMatrix, delta: float | Literal["auto"],
    rank: int | None,
) -> _Plan:
    """The shared entropy pipeline: estimate_chebyshev's plan for tr(q(rho)),
    q a certified odd approximant to the tagged target.

    q is fitted on [delta, 1] to the error budget/(2*dim), or budget/(2*rank)
    on the rank route, or replayed from the memo (see _approximant), and
    shrunk below unit norm; finish scales the trace back.  The auto budget
    and predicted_shots are quote(k, q's degree).  The
    certificate covers [delta, 1] only: breakdown records the spectral mass
    of rho's nonzero eigenvalues below delta as mass_below_delta (0.0 on the
    spectrum route), and a notice when it is positive."""
    dval, droute = _resolve_delta(rho, delta, rank)
    w = rho.eigenvalues()
    mass = float(w[(w > 1e-12) & (w < dval)].sum())
    eps_prime = budget / (2.0 * rank if droute == "rank" else 2.0 * rho.dim)
    poly, deg, cert = _approximant(tag, dval, eps_prime, MAX_APPROXIMANT_DEGREE)
    if poly is None:
        raise ConvergenceError(
            f"no odd approximant of degree <= {MAX_APPROXIMANT_DEGREE} reaches error "
            f"{eps_prime:.3e} (best {cert:.3e} at degree {deg})",
            best_residual=cert,
        )
    predicted = quote(k, deg)
    norm = sup_norm(poly)  # 0 when the fit trims to the zero polynomial, a valid certificate
    shrink = min(1.0, (1.0 - 1e-9) / norm) if norm > 0.0 else 1.0
    # poly * shrink is real with sup norm below 1, so it needs no _check_target
    plan = _chebyshev_plan(k, poly * shrink, rho, epsilon)
    notice = {} if mass <= 0.0 else {
        "notice": f"spectral mass {mass:.3g} lies below delta = {dval:.3g}, outside the "
        "approximant's certificate on [delta, 1]; the error bound does not cover it"
    }
    plan.breakdown.update(
        shrink=shrink, params={"delta": dval} if rank is None else {"delta": dval, "rank": rank},
        delta_route=droute, approximant_degree=deg, approximant_error=cert,
        eps_prime=eps_prime, mass_below_delta=mass, **notice,
    )

    def finish(ests: list[Estimate]) -> Estimate:
        trace = plan.finish(ests)
        return Estimate(trace.value / shrink, trace.std_error / shrink, trace.shots_used)

    return replace(plan, finish=finish, predict=lambda: predicted, auto=predicted)


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
    basis-product estimator's plan, and the entropy transform propagates the
    error.
    """
    if not 0 < alpha < math.inf or float(alpha).is_integer():
        raise InputError(
            f"alpha must be positive, finite and non-integer, got {alpha!r}; "
            "integer orders go through renyi_integer"
        )
    CostModel(epsilon, alpha=alpha)  # a bad epsilon fails before any read
    s_floor = rho.dim ** (1.0 - alpha) if alpha > 1 else 1.0
    budget = s_floor * epsilon * abs(alpha - 1.0)

    def quote(k: int, degree: int, s_alpha: float = s_floor) -> int:
        model = CostModel(epsilon, d=degree, k=k, alpha=alpha, s_alpha=s_alpha)
        return predict_cost(model, "theorem10")

    plan = _entropy_plan(k, ("renyi", float(alpha)), budget, epsilon, quote, rho, delta, rank)
    breakdown = plan.breakdown

    def finish(ests: list[Estimate]) -> Estimate:
        trace = plan.finish(ests)
        entropy, s_val = _renyi_transform(trace, alpha), trace.value
        breakdown["params"] = {"alpha": alpha, **breakdown["params"], "s_alpha": s_val}
        breakdown["s_alpha"] = s_val
        return entropy

    def predict() -> int:
        return quote(k, breakdown["approximant_degree"], breakdown["s_alpha"])

    return _execute(replace(plan, finish=finish, predict=predict), shots, mode, seed)


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
    CostModel(epsilon)  # a bad epsilon fails before any read

    def quote(k: int, degree: int) -> int:
        return predict_cost(CostModel(epsilon, d=degree, k=k), "theorem11")

    plan = _entropy_plan(k, "von_neumann", epsilon, epsilon, quote, rho, delta, rank)
    return _execute(plan, shots, mode, seed)
