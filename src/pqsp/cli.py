"""Batch command-line interface.

Subcommands mirror the library pipeline: `factor` and `phases` prepare the
classical inputs, `simulate` runs one parallel circuit from a stored plan,
`estimate` runs a full property-estimation experiment and records it,
`validate` executes the built-in invariant suites, and `cost` evaluates the
closed-form shot-count planners without simulating anything.

Exit codes: 0 success, 1 failed validation suite, 2 invalid input,
3 non-convergence, 4 impossible post-selection.
"""

from __future__ import annotations

import csv as csv_module
import dataclasses
import functools
import json
import math
import os
import sys
import time

import click
import numpy as np

from .config import ExperimentConfig, RunRecord, config_hash, resolve_state
from .errors import ConvergenceError, InputError, NotNonNegativeError, PostSelectionError
from .estimate import (
    CostModel,
    EstimationReport,
    estimate_chebyshev,
    estimate_direct,
    partition_function,
    predict_cost,
    renyi_integer,
    renyi_noninteger,
    von_neumann,
)
from .factor import (
    FactorizationPlan,
    factorize_nonneg,
    rescale_factors,
    verify_factorization,
)
from .poly import (
    Polynomial,
    constituent_norm_bounds,
    split_constituents,
    sup_norm,
)
from .qsp import find_phases, realized_value
from .sim import (
    DensityMatrix,
    ShotSampler,
    generalized_swap_expectation,
    parallel_qsp_run,
    query_depth_report,
)

VERSION = "0.1.0"


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            _fail(str(exc), 2)
        except ConvergenceError as exc:
            _fail(str(exc), 3)
        except PostSelectionError as exc:
            _fail(str(exc), 4)
        except (ValueError, KeyError, TypeError, OSError, OverflowError) as exc:
            _fail(str(exc), 2)

    return wrapper


def _load_poly(path: str) -> Polynomial:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return Polynomial.from_dict(obj)


def _emit_json(obj: dict, out: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        click.echo(f"wrote {out}", err=True)
    else:
        click.echo(text)


def _parse_span(text: str) -> list[int]:
    """\"2..8\" (inclusive) or \"2,4,8\"."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise InputError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


@click.group()
@click.version_option(VERSION, prog_name="pqsp")
def main():
    """Polynomial factorization, parallel QSP simulation, and spectral
    property estimation."""


@main.command()
@click.argument("poly_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "k", type=int, required=True, help="Thread count.")
@click.option("--rescaled/--raw", default=False, help="Emit unit-norm factors.")
@click.option("--out", type=click.Path(dir_okay=False), help="Plan JSON path.")
@_mapped_errors
def factor(poly_file, k, rescaled, out):
    """Factor a non-negative polynomial into k thread polynomials."""
    p = _load_poly(poly_file)
    plan = factorize_nonneg(p, k)
    if rescaled:
        plan = rescale_factors(plan)
    residual = verify_factorization(plan, p)
    click.echo(f"degrees: {[f.degree for f in plan.factors]}", err=True)
    click.echo(f"K: {plan.factorization_constant:.6g}", err=True)
    click.echo(f"residual: {residual:.3e}", err=True)
    _emit_json(plan.to_dict(), out)


@main.command()
@click.argument("poly_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-4, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), help="Phases JSON path.")
@_mapped_errors
def phases(poly_file, tol, out):
    """Find QSP phases whose realized value matches a target polynomial."""
    target = _load_poly(poly_file)
    found = find_phases(target, tol=tol)
    d = target.degree
    nodes = np.cos((np.arange(4 * (d + 1)) + 0.5) * math.pi / (4 * (d + 1)))
    residual = float(np.max(np.abs(realized_value(found, nodes) - np.real(target(nodes)))))
    click.echo(f"degree: {d}", err=True)
    click.echo(f"residual: {residual:.3e}", err=True)
    payload = dict(found.to_dict(), residual=residual)
    _emit_json(payload, out)


def _dispatch_estimate(cfg: ExperimentConfig, rho: DensityMatrix):
    common = dict(
        shots=cfg.shots, mode=cfg.mode, epsilon=cfg.epsilon, seed=cfg.seed
    )
    if cfg.property == "trace":
        p = _load_poly(cfg.poly)
        try:
            report, route = estimate_direct(p, rho, cfg.k, **common), "direct"
        except NotNonNegativeError:
            report, route = estimate_chebyshev(p, rho, cfg.k, **common), "chebyshev"
        report.breakdown["route"] = route
        return report
    if cfg.property == "renyi":
        if float(cfg.alpha).is_integer() and cfg.alpha >= 2:
            return renyi_integer(rho, int(cfg.alpha), cfg.k, **common)
        return renyi_noninteger(
            rho, cfg.alpha, cfg.k, delta=cfg.delta, rank=cfg.rank, **common
        )
    if cfg.property == "von-neumann":
        return von_neumann(rho, cfg.k, delta=cfg.delta, rank=cfg.rank, **common)
    if cfg.property == "partition":
        return partition_function(rho, cfg.beta, cfg.k, **common)
    raise InputError(f"unknown property {cfg.property!r}")


def _append_csv(path: str, row: dict):
    exists = os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv_module.DictWriter(fh, fieldnames=list(row))
        if not exists:
            writer.writeheader()
        writer.writerow(row)


@main.command()
@click.option(
    "--property",
    "property_",
    type=click.Choice(["trace", "renyi", "von-neumann", "partition"]),
    required=True,
)
@click.option("--state", required=True, help="Named generator or JSON file.")
@click.option("--poly", type=click.Path(), help="Target polynomial JSON (trace).")
@click.option("--alpha", type=float, help="Entropy order (renyi).")
@click.option("--beta", type=float, help="Inverse temperature (partition).")
@click.option("--k", "k", type=int, default=1, show_default=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--shots", type=int, default=None, help="Fixed shot budget.")
@click.option("--auto-shots", is_flag=True, help="Pick the budget from the planner.")
@click.option(
    "--mode",
    type=click.Choice(["exact", "sampled"]),
    default="exact",
    show_default=True,
)
@click.option("--seed", type=int, envvar="PQSP_SEED", default=None)
@click.option("--delta", default="auto", help="Spectral cutoff or 'auto'.")
@click.option("--rank", type=int, default=None, help="Known rank for the cutoff.")
@click.option("--log2", is_flag=True, help="Report entropies in bits.")
@click.option("--out", type=click.Path(dir_okay=False), help="RunRecord JSON path.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), help="Append a flat row.")
@_mapped_errors
def estimate(
    property_, state, poly, alpha, beta, k, epsilon, shots, auto_shots,
    mode, seed, delta, rank, log2, out, csv_path,
):
    """Estimate a spectral property end to end and record the run."""
    if auto_shots and shots is not None:
        raise InputError("--shots and --auto-shots are mutually exclusive")
    delta_val = delta
    if isinstance(delta, str) and delta != "auto":
        try:
            delta_val = float(delta)
        except ValueError as exc:
            raise InputError(f"--delta expects a number or 'auto', got {delta!r}") from exc
    cfg = ExperimentConfig(
        property=property_, state=state, poly=poly, alpha=alpha, beta=beta,
        k=k, epsilon=epsilon, shots="auto" if auto_shots else shots, mode=mode,
        seed=seed, delta=delta_val, rank=rank, log2=log2,
    )
    rho = resolve_state(cfg.state)
    started = time.perf_counter()
    report = _dispatch_estimate(cfg, rho)
    duration = time.perf_counter() - started
    value, err = report.value, report.std_error
    if cfg.log2 and cfg.property in ("renyi", "von-neumann"):
        value, err = value / math.log(2.0), err / math.log(2.0)
        report_dict = dict(report.to_dict(), value=value, std_error=err)
        report_dict["breakdown"]["log_base"] = 2
    else:
        report_dict = report.to_dict()

    click.echo(f"value: {value:.9g} +/- {err:.3g}")
    click.echo(f"depth: {report.query_depth}  width: {report.width}")
    click.echo(f"shots: used {report.shots_used}, predicted {report.predicted_shots}")
    if report.breakdown.get("stage_shots"):
        parts = [f"{s['runs']}: {s['pilot']}+{s['main']}" for s in report.breakdown["stage_shots"]]
        click.echo(f"stage shots (runs: pilot+main): {', '.join(parts)}", err=True)

    snapshot = dataclasses.asdict(cfg)
    record = RunRecord(
        config=snapshot,
        report=report_dict,
        duration_s=duration,
        version=VERSION,
        input_hash=config_hash(snapshot),
    )
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(record.to_json() + "\n")
        click.echo(f"wrote {out}", err=True)
    if csv_path:
        _append_csv(
            csv_path,
            {
                "property": cfg.property,
                "state": cfg.state,
                "k": cfg.k,
                "epsilon": cfg.epsilon,
                "mode": cfg.mode,
                "seed": "" if cfg.seed is None else cfg.seed,
                "value": value,
                "std_error": err,
                "shots_used": report.shots_used,
                "predicted_shots": report.predicted_shots,
                "query_depth": report.query_depth,
                "width": report.width,
                "duration_s": duration,
            },
        )


@main.command()
@click.option("--state", required=True, help="Named generator or JSON file.")
@click.option(
    "--plan",
    type=click.Path(exists=True, dir_okay=False),
    required=True,
    help="FactorizationPlan JSON from `pqsp factor`.",
)
@click.option("--shots", default="exact", show_default=True, help="Integer or 'exact'.")
@click.option(
    "--mode",
    type=click.Choice(["direct", "circuit"]),
    default="direct",
    show_default=True,
)
@click.option("--encode", type=click.Choice(["oracle", "qsp"]), default="oracle")
@click.option("--seed", type=int, envvar="PQSP_SEED", default=None)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), help="Report JSON path.")
@_mapped_errors
def simulate(state, plan, shots, mode, encode, seed, epsilon, out):
    """Run one parallel circuit from a stored factorization plan."""
    rho = resolve_state(state)
    with open(plan, encoding="utf-8") as fh:
        loaded = FactorizationPlan.from_dict(json.load(fh))
    if shots != "exact":
        try:
            shots = int(shots)
        except ValueError as exc:
            raise InputError(f"--shots expects an integer or 'exact', got {shots!r}") from exc
    factors = list(loaded.factors)
    est = parallel_qsp_run(
        factors, rho, shots=shots, mode=mode, sampler=ShotSampler(seed), encode=encode
    )
    depth, width = query_depth_report(factors)
    k_total = loaded.stored_constant * loaded.factorization_constant
    predicted = predict_cost(CostModel(epsilon=epsilon, K=k_total), "theorem3")
    report = EstimationReport(
        value=est.value,
        std_error=est.std_error,
        shots_used=est.shots_used,
        predicted_shots=predicted,
        query_depth=depth,
        width=width,
        breakdown={
            "stored_K": loaded.stored_constant,
            "source_value": loaded.stored_constant ** 2 * est.value,
            "mode": mode,
            "encode": encode,
        },
    )
    click.echo(f"z: {est.value:.9g} +/- {est.std_error:.3g}")
    click.echo(f"depth: {depth}  width: {width}")
    _emit_json(report.to_dict(), out)


def _suite_swap(dims, ks, seed):
    checks = []
    for d in dims:
        rho = DensityMatrix.random_seeded(d, seed + d)
        eigs = rho.eigenvalues()
        for k in ks:
            got = generalized_swap_expectation([rho] * k).value
            want = float(np.sum(eigs ** k))
            ok = abs(got - want) <= 1e-10
            checks.append((f"swap D={d} k={k}", ok, abs(got - want)))
    return checks


def _random_nonneg_poly(rng, k):
    """|q|^2 for a random complex q; simple roots keep factoring stable."""
    q = Polynomial(rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1))
    q = q * (1.0 / max(sup_norm(q), 1e-12))
    return q * Polynomial.from_cheb([c.conjugate() for c in q.cheb])


def _suite_modes(trials, seed):
    checks = []
    rng = np.random.default_rng(seed)
    for d in (2, 3, 4):
        for k in (2, 3):
            for t in range(trials):
                rho = DensityMatrix.random_seeded(d, seed + 97 * d + 11 * k + t)
                plan = rescale_factors(factorize_nonneg(_random_nonneg_poly(rng, k), k))
                factors = list(plan.factors)
                z_direct = parallel_qsp_run(factors, rho, mode="direct").value
                z_circuit = parallel_qsp_run(factors, rho, mode="circuit").value
                gap = abs(z_direct - z_circuit)
                checks.append((f"modes D={d} k={k} trial={t}", gap <= 1e-8, gap))
    return checks


def _suite_bounds(trials, seed):
    checks = []
    rng = np.random.default_rng(seed)
    for t in range(trials):
        d = int(rng.integers(4, 13))
        p = Polynomial(rng.normal(size=d + 1))
        p = p * (1.0 / sup_norm(p))
        for k in range(1, d + 1):
            low, high = split_constituents(p, k)
            cert_low, cert_high = constituent_norm_bounds(d, k)
            measured_low = 0.0 if low.is_zero() else sup_norm(low)
            measured_high = 0.0 if high.is_zero() else sup_norm(high)
            ok = measured_low <= cert_low * (1 + 1e-9) and measured_high <= cert_high * (1 + 1e-9)
            checks.append((f"bounds d={d} k={k} trial={t}", ok, (measured_low, measured_high)))
    return checks


@main.command()
@click.option(
    "--suite",
    type=click.Choice(["all", "swap", "modes", "bounds"]),
    default="all",
    show_default=True,
)
@click.option("--dims", default="2..8", show_default=True, help="Dimensions, e.g. 2..8 or 2,4.")
@click.option("--k", "ks", default="2..5", show_default=True, help="Thread counts.")
@click.option("--trials", type=int, default=3, show_default=True)
@click.option("--seed", type=int, envvar="PQSP_SEED", default=0)
@_mapped_errors
def validate(suite, dims, ks, trials, seed):
    """Run built-in invariant suites; exit 1 if any check fails."""
    dim_list = _parse_span(dims)
    k_list = _parse_span(ks)
    checks = []
    if suite in ("all", "swap"):
        checks += _suite_swap(dim_list, k_list, seed)
    if suite in ("all", "modes"):
        checks += _suite_modes(trials, seed)
    if suite in ("all", "bounds"):
        checks += _suite_bounds(trials, seed)
    failures = [name for name, ok, _ in checks if not ok]
    click.echo(
        json.dumps(
            {"suite": suite, "checks": len(checks), "failures": failures},
            sort_keys=True,
        )
    )
    if failures:
        for name, ok, detail in checks:
            if not ok:
                click.echo(f"FAIL {name}: {detail}", err=True)
        sys.exit(1)


@main.command()
@click.option(
    "--route",
    type=click.Choice(
        ["theorem3", "theorem4", "theorem5", "theorem7", "theorem8", "theorem9",
         "theorem10", "theorem11"]
    ),
    required=True,
)
@click.option("--epsilon", type=float, required=True)
@click.option("--K", "k_const", type=float, default=None, help="Factorization constant K.")
@click.option("--norm-low", type=float, default=None)
@click.option("--norm-high", type=float, default=None)
@click.option("--one-norm", type=float, default=None)
@click.option("--d", "d", type=int, default=None)
@click.option("--k", "k", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--s-alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option(
    "--auto-bounds",
    is_flag=True,
    help="Fill the constituent norms from their certificates (needs --d and --k).",
)
@_mapped_errors
def cost(route, epsilon, k_const, norm_low, norm_high, one_norm, d, k, alpha,
         s_alpha, beta, auto_bounds):
    """Evaluate a closed-form shot-count planner; no simulation."""
    if auto_bounds:
        if d is None or k is None:
            raise InputError("--auto-bounds needs --d and --k")
        cert_low, cert_high = constituent_norm_bounds(d, k)
        norm_low = cert_low if norm_low is None else norm_low
        norm_high = cert_high if norm_high is None else norm_high
        click.echo(f"auto norms: low {cert_low:.6g}, high {cert_high:.6g}", err=True)
    if route == "theorem8" and one_norm is None and beta is not None:
        one_norm = math.exp(beta)
        click.echo(f"one-norm from beta: {one_norm:.6g}", err=True)
    model = CostModel(
        epsilon=epsilon, K=k_const, norm_low=norm_low, norm_high=norm_high,
        one_norm=one_norm, d=d, k=k, alpha=alpha, s_alpha=s_alpha, beta=beta,
    )
    shots = predict_cost(model, route)
    inputs = {
        name: val
        for name, val in dataclasses.asdict(model).items()
        if name != "epsilon" and val is not None
    }
    click.echo(f"route: {route}  epsilon: {epsilon}")
    if inputs:
        click.echo("inputs: " + ", ".join(f"{n}={v}" for n, v in inputs.items()))
    click.echo(f"predicted shots: {shots}")


if __name__ == "__main__":
    main()
