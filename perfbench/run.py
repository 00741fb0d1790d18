"""pqsp benchmark: one seeded workload in one fresh process.

    python3 perfbench/run.py --workload trace-mix --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed).  A run builds its inputs from ``--seed``,
runs whole passes of the workload in a closed loop with one caller for
about ``--seconds``, checks every result against the independent oracle in
``oracle.py`` and prints two JSON lines.  The last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``).  The line before it holds the details:
environment stamp, outcome-class counts, the known-defect probes with their
outcomes, and the percentile behind ``op_ms_p90``.

``failed`` counts ops whose outcome is worse than the one registered for
them (see ``workloads.py``); ``fail_ratio`` counts every op that did not
solve, known defects included.  Timings are scaled to a reference speed of
the host (see ``Reference``) and cover the seeded ops, not the fixed probes.

``--trace 1`` first runs the loop plainly for half of ``--seconds``, then
replays the same ops under the outside-in tracer, checks that both return
bit-identical values (the same outcome for phase-finding ops, which are not
reproducible within one process) and reports the layer metrics, per pass
where they add up; its spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so one op uses one core.
BLAS_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
# Lower clamps: below these the metric reads the clamp, so round-off and a
# run without failures cannot read as zero or as a regression.
EXACT_ERR_RESOLUTION = 0.1
FAIL_RATIO_FLOOR = 1e-4
# Timings are scaled to a fixed speed of the host.  Between ops the loop
# times a fixed reference task (Python arithmetic plus small eigvalsh and
# matmul calls, about 4 ms): at most every REFERENCE_EVERY_S, and as a burst
# at the start and after any op longer than half a second.  Each op's time is
# multiplied by REFERENCE_MS over the median reference time around it.  On a
# shared 2-vCPU VM the host's speed drifts by up to a quarter between
# 10-second windows, and this cancels most of that drift (a fixed pass
# repeated for 100 s varied by +-13% raw and +-3% scaled).
REFERENCE_MS = 4.0
REFERENCE_EVERY_S = 0.05
REFERENCE_BURST = 5
REFERENCE_WINDOW_S = 2.5
ESTIMATORS = ("estimate_direct", "estimate_chebyshev", "monomial_poly_trace",
              "renyi_integer", "renyi_noninteger", "von_neumann", "partition_function")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _percentile_with_tail(values: list[float]) -> tuple[float, float]:
    """p90 with at least 100 samples, else the highest percentile that has at
    least ten samples beyond it; returns (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    if n >= 100:
        return float(statistics.quantiles(xs, n=10, method="inclusive")[-1]), 90.0
    i = max(0, n - 11)
    return xs[i], 100.0 * i / max(1, n - 1)


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def _median(values, default=None):
    values = list(values)
    return statistics.median(values) if values else default


class Reference:
    """The reference task and its timings, stamped with when they ran."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).random((48, 48))
        self._h = self._a + self._a.T
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0

    def measure(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            acc = 0
            for i in range(20_000):
                acc += i * i
            for _ in range(20):
                self._np.linalg.eigvalsh(self._h)
                self._a @ self._a
            t1 = time.perf_counter()
            self.samples.append((0.5 * (t0 + t1), t1 - t0))
            self.spent += t1 - t0

    def tick(self, op_ms: float) -> None:
        if op_ms > 500.0:
            self.measure(REFERENCE_BURST)
        elif time.perf_counter() - self.samples[-1][0] >= REFERENCE_EVERY_S:
            self.measure()

    def scale(self, t0: float | None = None, t1: float | None = None) -> float:
        """Factor turning raw time into reference-speed time: over the whole
        run, or around [t0, t1] (at least REFERENCE_BURST nearest samples)."""
        if t0 is None:
            near = self.samples
        else:
            near = [s for s in self.samples
                    if t0 - REFERENCE_WINDOW_S <= s[0] <= t1 + REFERENCE_WINDOW_S]
            if len(near) < REFERENCE_BURST:
                mid = 0.5 * (t0 + t1)
                near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:REFERENCE_BURST]
        return REFERENCE_MS / (1e3 * statistics.median(s[1] for s in near))


class Record:
    __slots__ = ("op", "result", "error", "start", "ms", "outcome", "err", "tol")

    def __init__(self, op, result, error, start, ms):
        self.op, self.result, self.error, self.start, self.ms = op, result, error, start, ms
        self.outcome = self.err = self.tol = None


def execute(op, tracer=None) -> Record:
    if tracer is not None:
        tracer.op = op.id
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # every failure of the program is an outcome
        result, error = None, exc
    return Record(op, result, error, t0, (time.perf_counter() - t0) * 1e3)


def scaled_ms(records, ref: Reference) -> list[float]:
    return [r.ms * ref.scale(r.start, r.start + r.ms / 1e3) for r in records]


def run_loop(wl, seed: int, seconds: float, ctx, ref: Reference, passes: int | None = None,
             tracer=None):
    """Whole passes (or exactly `passes` passes).

    After the first pass, another pass starts only if one more pass of the
    same length would still end within `seconds`, so a run measures at most
    `seconds` unless its first pass alone is longer.  Returns the records,
    the loop's wall time without the reference task, and the pass count.
    """
    records = []
    index = 0
    ref.measure(REFERENCE_BURST)
    spent = ref.spent
    # As in timeit: no cyclic garbage collection pauses inside timed ops.
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        ops = wl.build(seed, index, ctx)
        if wl.shuffle:
            random.Random(f"{seed}:{index}").shuffle(ops)
        for op in ops:
            records.append(execute(op, tracer))
            ref.tick(records[-1].ms)
        index += 1
        now = time.perf_counter()
        if passes is not None:
            if index >= passes:
                break
        elif now - t0 + (now - start) > seconds:
            break
    wall = time.perf_counter() - t0 - (ref.spent - spent)
    gc.enable()
    ref.measure(REFERENCE_BURST)
    return records, wall, index


def judge(records, typed) -> None:
    import oracle

    for rec in records:
        shots = 0
        if rec.result is not None:
            rec.err, rec.tol = rec.op.check(rec.result)
            shots = rec.result.shots_used
        rec.outcome = oracle.classify(rec.error, rec.err, rec.tol, shots,
                                      oracle.SHOT_CEILING, typed)


def same_outcome(plain: Record, traced: Record) -> bool:
    """Bit-identical results and errors, or for ops that are not
    reproducible within one process, the same outcome class."""
    if plain.op.id != traced.op.id:
        return False
    if not plain.op.reproducible:
        return plain.outcome == traced.outcome
    return (repr(plain.error) == repr(traced.error)
            and (plain.result and plain.result.payload) == (traced.result and traced.result.payload))


def end_to_end(records, wall: float, ref: Reference, setup: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """Metrics of a plain run; timings arrive raw and leave scaled.

    Timing metrics cover the seeded ops; the fixed known-defect probes count
    in fail_ratio only, so that one 10-second probe does not decide a run's
    throughput.
    """
    import oracle

    attempted = len(records)
    seeded = [r for r in records if r.op.probe is None]
    solved = sum(r.outcome == oracle.SOLVED for r in seeded)
    all_solved = sum(r.outcome == oracle.SOLVED for r in records)
    ms = scaled_ms(seeded, ref)
    # Time between ops (building inputs) is scaled by the run's median.
    between = wall - sum(r.ms for r in records) / 1e3
    scaled_wall = sum(ms) / 1e3 + between * ref.scale()
    tail, pct = _percentile_with_tail(ms)
    # Precision and resource figures come from the ops expected to succeed,
    # so that fixing a known defect cannot shift them.
    regular = [r for r in records if r.op.expect == oracle.SOLVED and r.result is not None]
    exact = [r.err / r.op.eps for r in regular if r.op.mode == "exact"]
    sampled = [r.result.std_error / r.op.eps for r in regular if r.op.mode == "sampled"]
    log_k = [math.log(r.result.K) for r in regular if r.result.K is not None]
    pred = [math.log10(r.result.predicted_shots) for r in regular
            if r.result.predicted_shots is not None]
    depth = [r.result.query_depth for r in regular if r.result.query_depth is not None]
    metrics = {
        "setup_s": (_median(setup), "s"),
        "solved_per_s": (solved / scaled_wall, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (tail, "ms"),
        "fail_ratio": (max((attempted - all_solved) / attempted, FAIL_RATIO_FLOOR), "ratio"),
        "exact_err_over_eps_max": (max([EXACT_ERR_RESOLUTION, *exact]), "ratio"),
        "sampled_se_over_eps_geomean": (_geomean(sampled), "ratio"),
        "K_geomean": (math.exp(statistics.fmean(log_k)) if log_k else 1.0, "1"),
        "predicted_shots_log10_mean": (statistics.fmean(pred) if pred else 0.0, "log10"),
        "query_depth_p50": (float(_median(depth, 0)), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"ops": attempted, "timed_ops": len(seeded), "op_ms_p90_percentile": round(pct, 1),
             "probe_ms": {r.op.id: r.ms for r in records if r.op.probe},
             "timed_wall_s_raw": wall, "time_scale": ref.scale(), "setup_samples_s": setup,
             "op_ms_p50_raw": statistics.median(r.ms for r in seeded),
             "exact_ops": len(exact), "sampled_ops": len(sampled), "K_ops": len(log_k)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer(summary: dict, shots_drawn: int, passes: int, plain, plain_ref: Reference,
              traced_scale: float, overhead: float, import_ms: float) -> dict:
    """Layer metrics of a traced run.

    Call counts, failures, self times and shots are per pass: the replay
    runs as many passes as the plain run fitted in its time, so totals would
    grow with the host's speed.  Span times are scaled by the traced phase's
    reference, CLI call times like the plain run's op times.
    """

    def get(name, field):
        value = summary.get(name, {}).get(field, 0) / passes
        return value * traced_scale if field == "self_ms" else value

    m = {}
    for name in ("poly.sup_norm", "poly.from_chebyshev", "factor.find_roots",
                 "factor.factorize_nonneg", "factor.rescale_factors",
                 "factor.chebyshev_parallel_terms", "factor.term_factor_polynomials",
                 "qsp.find_phases", "sim.parallel_qsp_run.direct",
                 "sim.parallel_qsp_run.circuit", "sim.hadamard_test",
                 "estimate.importance_sample"):
        m[f"{name}.calls"] = (get(name, "calls"), "count/pass")
        m[f"{name}.self_ms"] = (get(name, "self_ms"), "ms/pass")
    m["poly.split_constituents.self_ms"] = (get("poly.split_constituents", "self_ms"), "ms/pass")
    m["qsp.find_phases.fail"] = (get("qsp.find_phases", "fail"), "count/pass")
    m["qsp.least_squares.self_ms"] = (get("qsp.least_squares", "self_ms"), "ms/pass")
    fp_calls = get("qsp.find_phases", "calls")
    m["qsp.find_phases.starts_per_call"] = (
        get("qsp.least_squares", "calls") / fp_calls if fp_calls else 0.0, "ratio")
    m["sim.oracle_block_encode.self_ms"] = (get("sim.oracle_block_encode", "self_ms"), "ms/pass")
    m["sim.DensityMatrix.eigh.calls"] = (get("sim.DensityMatrix.eigh", "calls"), "count/pass")
    m["sim.shots_drawn"] = (shots_drawn / passes, "count/pass")
    ratios = [r.result.shots_used / r.result.predicted_shots for r in plain
              if r.op.kind in ESTIMATORS and r.op.mode == "sampled" and r.result is not None]
    m["estimate.shots_used_over_predicted_p50"] = (_median(ratios, 0.0), "ratio")
    for est in ESTIMATORS:
        m[f"estimate.{est}.self_ms"] = (get(f"estimate.{est}", "self_ms"), "ms/pass")
    m["estimate.predict_cost.calls"] = (get("estimate.predict_cost", "calls"), "count/pass")
    m["config.resolve_state.self_ms"] = (get("config.resolve_state", "self_ms"), "ms/pass")
    m["cli.import_ms"] = (import_ms, "ms")
    for sub in ("cost", "factor", "phases", "simulate", "estimate"):
        calls = [r for r in plain if r.op.kind == f"cli.{sub}"]
        ms = scaled_ms(calls, plain_ref)
        m[f"cli.{sub}.ms_p50"] = (_median(ms, 0.0), "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def merge_summaries(parts) -> dict:
    out: dict = {}
    for part in parts:
        for name, rec in part.items():
            acc = out.setdefault(name, {"calls": 0, "fail": 0, "ms": 0.0, "self_ms": 0.0})
            for key in acc:
                acc[key] += rec[key]
    return out


def env_stamp(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_pin": BLAS_PIN,
        "seed": seed,
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to end of warm-up, timed from outside, several
    times; each sample is scaled by the reference timed around it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        ref = Reference()
        ref.measure(REFERENCE_BURST)
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
        ref.measure(REFERENCE_BURST)
        samples.append(elapsed * ref.scale())
    return samples


def cli_import_ms() -> float:
    """Time to import pqsp.cli in a fresh interpreter, scaled like setup."""
    code = ("import time; t = time.perf_counter(); import pqsp.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    import workloads

    ref = Reference()
    ref.measure(REFERENCE_BURST)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    ref.measure(REFERENCE_BURST)
    return float(proc.stdout.strip()) * ref.scale()


def warm_up(wl, seed: int, ctx) -> None:
    """One untimed op: the first op of the first pass that is not a probe."""
    op = next(op for op in wl.build(seed, 0, ctx) if op.probe is None)
    execute(op)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pqsp" / "__init__.py").is_file():
        return _fail(f"no pqsp sources under {ROOT / 'src'}; run from a source checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import oracle
    import pqsp
    import workloads
    from tracer import Tracer, summarize

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    ctx = workloads.RunContext(work_dir=work)
    typed = (pqsp.InputError, pqsp.ConvergenceError, pqsp.PostSelectionError)
    try:
        warm_up(wl, args.seed, ctx)
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        seconds = args.seconds / 2 if args.trace else args.seconds
        ref = Reference()
        records, wall, passes = run_loop(wl, args.seed, seconds, ctx, ref)
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        peak_rss = rss_children if args.workload == "cli-batch" else rss_self
        judge(records, typed)
        unexpected = [r for r in records if oracle.unexpected(r.outcome, r.op.expect)]
        correct = not any(r.outcome == oracle.OUT_OF_TOLERANCE for r in unexpected)
        details = {
            "env": env_stamp(args.seed),
            "workload": {"name": wl.name, "why": wl.why, "loop": "closed",
                         "callers": 1, "inputs": wl.inputs,
                         "seed_argument": "--seed", "passes": passes},
            "classes": {c: sum(r.outcome == c for r in records) for c in oracle.CLASSES},
            "probes": sorted({(r.op.id, r.op.probe, r.op.expect, r.outcome)
                              for r in records if r.op.probe}),
            "unexpected": [(r.op.id, r.outcome, r.op.expect,
                            repr(r.error) if r.error else r.err) for r in unexpected],
        }

        if args.trace:
            tctx = workloads.RunContext(work_dir=work, cli_trace_dir=work)
            tref = Reference()
            with Tracer() as tracer:
                traced, traced_wall, _ = run_loop(wl, args.seed, 0, tctx, tref, passes=passes,
                                                  tracer=tracer)
            judge(traced, typed)
            mismatched = [a.op.id for a, b in zip(records, traced) if not same_outcome(a, b)]
            correct = correct and not mismatched and len(traced) == len(records)
            parts = [tracer.summary()]
            shots = tracer.shots_drawn
            for path in tctx.cli_span_files:
                if path.exists():
                    child = json.loads(path.read_text())
                    parts.append(summarize(child["spans"]))
                    shots += child["shots_drawn"]
            summary = merge_summaries(parts)
            overhead = (traced_wall * tref.scale()) / (wall * ref.scale())
            metrics = per_layer(summary, shots, passes, records, ref, tref.scale(), overhead,
                                cli_import_ms())
            details["trace"] = {"mismatched": mismatched, "spans": len(tracer.spans),
                                "plain_wall_s_raw": wall, "traced_wall_s_raw": traced_wall,
                                "time_scales": [ref.scale(), tref.scale()]}
            (OUT / f"trace-{wl.name}-{args.seed}.json").write_text(json.dumps(
                {"spans": tracer.spans, "summary": summary, "details": details}))
        else:
            setup = measure_setup(wl.name, args.seed)
            metrics, notes = end_to_end(records, wall, ref, setup, peak_rss)
            details["notes"] = notes
        print(json.dumps(details, default=str))
        print(json.dumps({"correct": bool(correct), "attempted": len(records),
                          "failed": len(unexpected), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
