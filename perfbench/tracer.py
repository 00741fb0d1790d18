"""Outside-in tracer: times calls into pqsp's layers without editing pqsp.

Installing the tracer wraps every public function defined in ``pqsp.poly``,
``factor``, ``qsp``, ``sim``, ``estimate`` and ``config`` (plus
``pqsp.qsp.least_squares`` and ``DensityMatrix.eigh``) and rebinds each
module attribute of the pqsp package that refers to one of them, so calls
made through ``from .poly import sup_norm`` are seen too.  Spans live in
memory with their parent ids and are written when the run ends; uninstalling
restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("poly", "factor", "qsp", "sim", "estimate", "config")


def _span_name(base: str, args, kwargs) -> str:
    if base == "sim.parallel_qsp_run":
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "direct")
        return f"{base}.{mode}"
    return base


class Tracer:
    """Context manager that records one span per wrapped call."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, op, failed)
        self.shots_drawn = 0
        self.op: str | None = None
        self._stack: list[int] = []
        self._sim_depth = 0
        self._restore: list[tuple] = []

    def _wrap(self, fn, base: str):
        clock = time.perf_counter
        is_sim = base.startswith("sim.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            name = _span_name(base, args, kwargs)
            self.spans.append(None)
            self._stack.append(span_id)
            self._sim_depth += is_sim
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = clock()
                self._stack.pop()
                self._sim_depth -= is_sim
                self.spans[span_id] = (span_id, parent, name, t0, t1, self.op, failed)
            # Shots count once, at the outermost simulator call.
            if is_sim and self._sim_depth == 0:
                self.shots_drawn += int(getattr(out, "shots_used", 0) or 0)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        import pqsp  # noqa: F401  (loads every layer module)
        from pqsp import qsp, sim

        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"pqsp.{layer}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[obj] = f"{layer}.{name}"
        targets[qsp.least_squares] = "qsp.least_squares"
        wrappers = {fn: self._wrap(fn, base) for fn, base in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pqsp" and not mod_name.startswith("pqsp."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        eigh = sim.DensityMatrix.eigh
        self._restore.append((sim.DensityMatrix, "eigh", eigh))
        sim.DensityMatrix.eigh = self._wrap(eigh, "sim.DensityMatrix.eigh")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, failed calls, total ms and self ms."""
        return summarize(self.spans)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "shots_drawn": self.shots_drawn}))


def summarize(spans) -> dict:
    """Self time is a span's duration minus the time its child spans cover."""
    child_ms = defaultdict(float)
    for _, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            child_ms[parent] += (t1 - t0) * 1e3
    out: dict = defaultdict(lambda: {"calls": 0, "fail": 0, "ms": 0.0, "self_ms": 0.0})
    for span_id, _, name, t0, t1, _, failed in spans:
        rec = out[name]
        dur = (t1 - t0) * 1e3
        rec["calls"] += 1
        rec["fail"] += int(failed)
        rec["ms"] += dur
        rec["self_ms"] += dur - child_ms[span_id]
    return dict(out)
