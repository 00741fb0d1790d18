"""Steadiness check: runs every workload several times and compares sets.

    python3 perfbench/steady.py --runs 10 --sets 2

Each run is one invocation of the BENCHMARK.json command with its own seed,
one at a time.  Per workload and end-to-end metric it prints the median with
its unit, the spread (interquartile distance of the runs over their median)
and, with two sets, how far the second set's median moved in the worse
direction; both are compared with the metric's bound.  ``--runs 1 --sets 1``
prints every end-to-end metric of every workload once.  Exits 1 if a run
fails, reports an incorrect result, or a figure breaks its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(bench: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = elapsed
    return out


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    report = {}
    for name in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = 1 + 1000 * s + r
                out = run_once(bench, name, seed)
                if not out["correct"] or out["failed"]:
                    ok = False
                    print(f"! {name} seed {seed}: correct={out['correct']} failed={out['failed']}")
                runs.append(out)
                print(f"  {name} set {s} seed {seed}: {out['elapsed_s']:.1f}s, "
                      f"{out['attempted']} ops", file=sys.stderr, flush=True)
            sets.append(runs)
        print(f"\n{name}")
        rows = {}
        for m in metrics:
            per_set = [[run["metrics"][m["name"]]["value"] for run in runs] for runs in sets]
            med = [statistics.median(v) for v in per_set]
            row = {"median": med, "unit": m["unit"], "bound": m["bound"]}
            line = f"  {m['name']:26s} {med[0]:14.6g} {m['unit']:6s}"
            if args.runs >= 2:
                row["spread"] = [spread(v) for v in per_set]
                worst = max(row["spread"])
                flag = "" if worst <= m["bound"] else "  SPREAD>BOUND"
                if worst > m["bound"]:
                    ok = False
                line += f" spread {worst:7.3f} (bound {m['bound']}, third {m['bound'] / 3:.3f}){flag}"
            if len(med) >= 2 and med[0]:
                sign = 1.0 if m["better"] == "lower" else -1.0
                drift = sign * (med[1] - med[0]) / abs(med[0])
                row["drift"] = drift
                if drift > m["bound"]:
                    ok = False
                    line += "  DRIFT>BOUND"
                line += f" drift {drift:+.3f}"
            rows[m["name"]] = row
            print(line)
        report[name] = rows
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{int(time.time())}.json").write_text(json.dumps(report, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
