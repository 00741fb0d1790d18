"""Static checks on the package source that need no linter installed."""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pqsp"
PYPROJECT = SRC.parents[1] / "pyproject.toml"
# __init__.py imports only to re-export.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never references or exports."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            # quoted annotations such as -> "ShotSampler"
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                for const in ast.walk(ann) if ann is not None else ():
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        expr = ast.parse(const.value, mode="eval")
                        used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes no module references.

    A reference is any name, attribute or imported name equal to the
    definition's, in any of the given modules.
    """
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[node.name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def _seed_and_sampler(source: str) -> list[str]:
    """Public functions taking both a `seed` and a `sampler` parameter.

    One call has one source of randomness: estimators take a seed, and
    joint_readout and parallel_qsp_run, the two calls that draw, take a
    ShotSampler.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            a = node.args
            names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            if {"seed", "sampler"} <= names:
                found.append(f"{node.name} (line {node.lineno})")
    return found


def _unbounded_caches(source: str) -> list[str]:
    """functools caches that can grow for the life of the process.

    `cache`, a bare `lru_cache` and an `lru_cache` whose maxsize is not an
    integer literal are flagged, whether used as decorators or called.
    """
    tree = ast.parse(source)
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int:
                bounded.add(id(node.func))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = node.attr if node.value.id == "functools" else None
        else:
            name = node.id if isinstance(node, ast.Name) else None
        if name in ("cache", "lru_cache") and (name == "cache" or id(node) not in bounded):
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_scan_flags_unused_import():
    src = "from typing import Sequence, Literal\nimport math\nx: Literal[1] = math.pi\n"
    assert _unused_imports(src) == ["Sequence (line 1)"]


def test_scan_respects_all_future_and_quoted_annotations():
    src = (
        "from __future__ import annotations\nfrom os import sep\nfrom typing import Sized\n"
        '__all__ = ["sep"]\ndef f(x: "Sized") -> None: ...\n'
    )
    assert _unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_unreferenced_private():
    sources = {
        "a.py": "def _called(): ...\ndef _dead(): ...\nclass _Shared: ...\nx = _called()\n",
        "b.py": "from .a import _Shared\nimport a\ny = a._viaattr\n",
        "c.py": "def _viaattr(): ...\ndef public(): ...\n",
    }
    assert _unreferenced_private(sources) == ["_dead (a.py:2)"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private(sources) == []


def test_scan_flags_seed_and_sampler():
    src = (
        "def both(x, seed=None, sampler=None): ...\n"
        "def _private(seed, sampler): ...\n"
        "def kwonly(*, seed, sampler): ...\n"
        "def seeded(seed=None): ...\n"
        "class A:\n    def method(self, sampler, seed): ...\n"
    )
    assert _seed_and_sampler(src) == ["both (line 1)", "kwonly (line 3)", "method (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_seed_and_sampler(path):
    assert _seed_and_sampler(path.read_text()) == []


BUDGETED_READOUTS = {"joint_readout", "_read", "parallel_qsp_run"}


def _budgeted_readouts(source: str) -> list[str]:
    """Read-outs, functions annotated to return an Estimate, that take a
    shot budget or a sampler: a parameter named sampler or ending in shots.

    _read is the one reader that draws shots, joint_readout the public
    drawing call that checks a law and hands it to _read, and
    parallel_qsp_run forwards a budget to joint_readout; every other
    read-out, a stage's included, reads exactly and leaves the draw to
    joint_readout.  Estimators return an EstimationReport and take a shots
    policy with a seed, and the draw's private helpers return its parts, so
    neither is a read-out here.  Each flagged read-out reads
    "<name> (line <n>)".
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.returns is not None:
            returns = ast.unparse(node.returns).strip("'\"")
            a = node.args
            names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
            if returns == "Estimate" and any(n == "sampler" or n.endswith("shots") for n in names):
                found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", ["sim.py", "estimate.py"])
def test_only_joint_readout_and_parallel_run_take_a_budget(module):
    flagged = _budgeted_readouts((SRC / module).read_text())
    assert [f for f in flagged if f.split()[0] not in BUDGETED_READOUTS] == []


def test_budget_scan_fails_copies_that_give_a_read_out_shots():
    source = (SRC / "sim.py").read_text()
    assert [f.split()[0] for f in _budgeted_readouts(source)] == [
        "joint_readout", "_read", "parallel_qsp_run",
    ]
    mutated, added = re.subn(
        r"def generalized_swap_expectation\(states: Sequence\[DensityMatrix\]\) -> Estimate:",
        "def generalized_swap_expectation(\n    states, shots=\"exact\", sampler=None\n) -> Estimate:",
        source,
    )
    assert added == 1
    assert "generalized_swap_expectation" in {f.split()[0] for f in _budgeted_readouts(mutated)}
    assert _budgeted_readouts(
        "def importance_sample(coeffs, rho, total_shots, sampler=None) -> Estimate: ...\n"
        "def _stage(p, *, sampler) -> 'Estimate': ...\n"
        "def estimate_direct(p, shots=None, seed=None) -> EstimationReport: ...\n"
        "def exact(p) -> Estimate: ...\n"
    ) == ["importance_sample (line 1)", "_stage (line 2)"]


def test_scan_flags_unbounded_caches():
    src = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=64)\ndef ok(n): ...\n"
        "@functools.cache\ndef grows(n): ...\n"
        "@lru_cache\ndef bare(n): ...\n"
        "@functools.lru_cache(maxsize=None)\ndef unbounded(n): ...\n"
        "wrapped = functools.lru_cache(16)(len)\n"
        "@cache\ndef plain(n): ...\n"
    )
    assert _unbounded_caches(src) == [
        "cache (line 5)", "lru_cache (line 7)", "lru_cache (line 9)", "cache (line 12)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_caches(path):
    assert _unbounded_caches(path.read_text()) == []


def test_cache_scan_fails_a_copy_with_functools_cache():
    source = (SRC / "poly.py").read_text()
    mutated, swapped = re.subn(r"@functools\.lru_cache\(maxsize=\d+\)", "@functools.cache", source)
    assert swapped == 1
    line = mutated[: mutated.index("@functools.cache")].count("\n") + 1
    assert _unbounded_caches(mutated) == [f"cache (line {line})"]


def _memo_refs(source: str, name: str) -> list[str]:
    """Top-level definitions that refer to name, marked "(memo)" where an
    lru_cache call decorates them; an import of it counts as "<module>".

    estimate.py reaches _fit_odd_approximant through its memo alone, so a
    k sweep, or one user-given delta across states, fits once; and it builds
    and checks term layouts (term_layout, _checked_layout) in its layout
    memos alone, so a tail shape is laid out once.
    """
    found = []
    for top in ast.parse(source).body:
        if any(
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)
            for node in ast.walk(top)
        ):
            memo = any(
                isinstance(dec, ast.Call) and ast.unparse(dec.func).endswith("lru_cache")
                for dec in getattr(top, "decorator_list", ())
            )
            found.append(getattr(top, "name", "<module>") + (" (memo)" if memo else ""))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_approximant_search_only_behind_its_memo(path):
    want = ["_approximant (memo)"] if path.name == "estimate.py" else []
    assert _memo_refs(path.read_text(), "_fit_odd_approximant") == want


def test_memo_scan_fails_copies_that_bypass_or_drop_the_memo():
    source = (SRC / "estimate.py").read_text()
    bypass, swapped = re.subn(
        r"= _approximant\(tag, ",
        "= _fit_odd_approximant(_von_neumann_target, ",
        source,
    )
    assert swapped == 1
    assert _memo_refs(bypass, "_fit_odd_approximant") == ["_approximant (memo)", "_entropy_plan"]
    uncached, dropped = re.subn(
        r"@lru_cache\(maxsize=\d+\)\ndef _approximant\(", "def _approximant(", source
    )
    assert dropped == 1
    assert _memo_refs(uncached, "_fit_odd_approximant") == ["_approximant"]
    assert _memo_refs(
        "from .estimate import _fit_odd_approximant\n"
        "fit = partial(estimate._fit_odd_approximant, f)\n",
        "_fit_odd_approximant",
    ) == ["<module>", "<module>"]


TERM_LAYOUT_REFS = {
    "term_layout": ["<module>", "_term_layout (memo)"],
    "_checked_layout": ["<module>", "_swap_layout (memo)", "_term_layout (memo)"],
}


def test_term_layouts_only_behind_their_memo():
    source = (SRC / "estimate.py").read_text()
    assert {name: _memo_refs(source, name) for name in TERM_LAYOUT_REFS} == TERM_LAYOUT_REFS


def test_term_layout_scan_fails_a_copy_that_bypasses_the_memo():
    source = (SRC / "estimate.py").read_text()
    bypass, swapped = re.subn(
        r"\n    _, layout, depth = _term_layout\(k_part, tuple\(sorted\(ctilde\)\)\)\n",
        "\n    table, index = term_layout(_term_grid(k_part, tuple(sorted(ctilde))), k_part)\n"
        "    layout, depth = _checked_layout(table, index), query_depth_report(table)[0]\n",
        source,
    )
    assert swapped == 1
    assert {name: _memo_refs(bypass, name) for name in TERM_LAYOUT_REFS} == {
        name: sorted([*refs, "_chebyshev_part"]) for name, refs in TERM_LAYOUT_REFS.items()
    }
    uncached, dropped = re.subn(
        r"@lru_cache\(maxsize=\d+\)\ndef _term_layout\(", "def _term_layout(", source
    )
    assert dropped == 1
    assert _memo_refs(uncached, "term_layout") == ["<module>", "_term_layout"]


def _stale_exports(source: str) -> list[str]:
    """Names in a module's __all__ that no module-level statement binds.

    perfbench's tracer reads every entry with getattr, so one stale name
    stops every traced benchmark run.
    """
    bound: set[str] = set()
    exported: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_scan_flags_stale_exports():
    src = (
        "import numpy as np\nfrom .poly import sup_norm\nTOL: float = 1e-12\na, b = 1, 2\n"
        "class Plan: ...\ndef run(): ...\n"
        '__all__ = ["np", "sup_norm", "TOL", "b", "Plan", "run", "gone", "inner"]\n'
        "def outer():\n    inner = 1\n"
    )
    assert _stale_exports(src) == ["gone", "inner"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_resolves(path):
    assert _stale_exports(path.read_text()) == []


def test_export_scan_fails_a_copy_with_a_stale_name():
    source = (SRC / "factor.py").read_text()
    mutated, added = re.subn(r"__all__ = \[\n", '__all__ = [\n    "RootSet",\n', source)
    assert added == 1
    assert _stale_exports(source) == []
    assert _stale_exports(mutated) == ["RootSet"]


def _basis_changes(source: str) -> list[str]:
    """Names of the monomial/Chebyshev conversions a source refers to:
    numpy's, or poly.py's step-for-step mirrors of them.

    poly.py alone decides which basis coefficients are in; every other
    module works on Polynomial and never converts.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (
            node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        if name in ("cheb2poly", "poly2cheb", "_cheb2poly", "_poly2cheb"):
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "poly.py"], ids=lambda p: p.name
)
def test_basis_changes_only_in_poly(path):
    assert _basis_changes(path.read_text()) == []


def test_basis_scan_fails_a_copy_that_converts():
    assert {f.split()[0] for f in _basis_changes((SRC / "poly.py").read_text())} == {
        "_cheb2poly",
        "_poly2cheb",
    }
    source = (SRC / "estimate.py").read_text()
    mutated, swapped = re.subn(
        r"Polynomial\.from_cheb\(full\)", "Polynomial(npcheb.cheb2poly(full))", source
    )
    assert swapped == 1
    mutated = "from numpy.polynomial.chebyshev import poly2cheb\n" + mutated
    line = mutated[: mutated.index("npcheb.cheb2poly")].count("\n") + 1
    assert _basis_changes(mutated) == ["poly2cheb (line 1)", f"cheb2poly (line {line})"]


def _shot_plumbing(source: str) -> list[str]:
    """Where a source builds a ShotSampler or checks a sampled budget.

    estimate.py does each once, in its executor, so every estimator shares
    one draw and one set of sampler streams.
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("ShotSampler", "_check_shots")
            ):
                found.append(f"{node.func.id} in {getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_shot_plumbing_only_in_the_stage_executor():
    assert _shot_plumbing((SRC / "estimate.py").read_text()) == [
        "ShotSampler in _execute", "_check_shots in _execute",
    ]


def test_plumbing_scan_fails_a_copy_that_builds_its_own_sampler():
    source = (SRC / "estimate.py").read_text()
    mutated, added = re.subn(
        r"return _execute\(_renyi_integer_plan\(",
        "smp = ShotSampler(seed)\n    return _execute(_renyi_integer_plan(",
        source,
    )
    assert added == 1
    assert _shot_plumbing(mutated) == [
        "ShotSampler in _execute", "ShotSampler in renyi_integer", "_check_shots in _execute",
    ]


# set on an EstimationReport only, never on a _Plan, _Stage or CostModel
REPORT_ONLY_FIELDS = {"value", "std_error", "shots_used", "predicted_shots"}


def _report_builders(source: str) -> list[str]:
    """Where a source reads or draws shots or builds or rewraps a report, by
    top-level definition: each call of _read, joint_readout or
    EstimationReport, and each replace() that sets a field only a report has.

    estimate.py does all three in _execute alone (an auto pilot and the one
    draw of a plan's stages), apart from the exact reads of the stages that
    _hadamard_stage and _term_stage build: every estimator hands _execute
    one plan, and a nested estimator composes the plan it builds on, never
    the report.
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            name = node.func.id
            if name == "replace" and REPORT_ONLY_FIELDS & {kw.arg for kw in node.keywords}:
                name = "replace(report)"
            elif name not in ("_read", "joint_readout", "EstimationReport"):
                continue
            found.append(f"{name} in {getattr(top, 'name', '<module>')}")
    return sorted(found)


EXECUTOR_CALLS = [
    "EstimationReport in _execute", "_read in _hadamard_stage", "_read in _term_stage",
    "joint_readout in _execute", "joint_readout in _execute",
]


def test_stages_read_and_reports_built_only_in_the_executor():
    assert _report_builders((SRC / "estimate.py").read_text()) == EXECUTOR_CALLS


def test_executor_scan_fails_copies_that_read_or_rewrap_elsewhere():
    source = (SRC / "estimate.py").read_text()
    mutated, added = re.subn(
        r"return _execute\(_renyi_integer_plan\(",
        "trace = joint_readout([1.0], [0.5], shots, ShotSampler(seed))\n"
        "    return _execute(_renyi_integer_plan(",
        source,
    )
    assert added == 1
    assert _report_builders(mutated) == sorted(EXECUTOR_CALLS + ["joint_readout in renyi_integer"])
    assert _report_builders(
        "def partition_function():\n    sub = monomial_poly_trace()\n"
        "    return replace(sub, predicted_shots=1, breakdown={})\n"
        "def von_neumann():\n    return replace(plan, finish=f, auto=2)\n"
    ) == ["replace(report) in partition_function"]


def _sampled_stage_reads(source: str) -> list[str]:
    """Stage reads that ask for shots, by top-level definition.

    A stage's read is called as read(), with no argument, so only the
    executor's one joint_readout of the plan draws shots.  Each flagged call
    reads "read in <definition>".
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "read"
                and (node.args or node.keywords)
            ):
                found.append(f"read in {getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_stages_are_read_exactly():
    assert _sampled_stage_reads((SRC / "estimate.py").read_text()) == []


def test_read_scan_fails_copies_that_read_a_stage_with_shots():
    source = (SRC / "estimate.py").read_text()
    mutated, added = re.subn(
        r"return _execute\(_renyi_integer_plan\(",
        "first = plan.stages[0].read(1000, sampler=ShotSampler(seed))\n"
        "    return _execute(_renyi_integer_plan(",
        source,
    )
    assert added == 1
    assert _sampled_stage_reads(mutated) == ["read in renyi_integer"]
    mutated, swapped = re.subn(r"\.read\(\)", ".read(shots)", source)
    assert swapped == 1
    assert _sampled_stage_reads(mutated) == ["read in _execute"]


# sim's read-outs, the functions that turn runs into an Estimate or into
# the (q, z) a read-out reads
READ_OUTS = {
    "_read", "joint_readout", "parallel_qsp_run", "parallel_qsp_runs",
    "spectral_hadamard_test", "generalized_swap_expectation",
}


def _stage_reads(source: str) -> list[str]:
    """The read-outs each stage's read calls, by top-level definition.

    A stage's read is the first argument of a _Stage(...) call: the
    read-outs a lambda calls, or the function a partial binds; any other
    read is flagged by its own name, since the scan cannot see what it
    reads.  estimate.py reads every stage through _read, which checks
    nothing: its layouts and laws were checked when the plan built them.
    The one exception is estimate_direct's factorized run, whose factors
    are new to each plan: parallel_qsp_run checks them once, and the
    benchmark's tracer counts that call.  Each entry reads
    "<read-out> in <definition>".
    """
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and _call_name(node) == "_Stage" and node.args):
                continue
            read = node.args[0]
            if isinstance(read, ast.Lambda):
                names = [_call_name(n) for n in ast.walk(read.body) if isinstance(n, ast.Call)]
                names = [n for n in names if n in READ_OUTS]
            elif _call_name(read) == "partial" and read.args:
                names = [ast.unparse(read.args[0])]
            else:
                names = [ast.unparse(read)]
            found += [f"{name} in {where}" for name in names]
    return sorted(found)


def test_stages_read_only_through_the_reader():
    reads = _stage_reads((SRC / "estimate.py").read_text())
    assert reads == [
        "_read in _hadamard_stage", "_read in _term_stage", "parallel_qsp_run in _direct_plan",
    ]


def test_stage_read_scan_fails_copies_that_read_through_a_checked_call():
    source = (SRC / "estimate.py").read_text()
    mutated, added = re.subn(
        r"\n    stage = _term_stage\(_ONE, layout, rho\)",
        "\n    stage = _Stage(partial(parallel_qsp_run, _monomial_factors(alpha, k), rho))",
        source,
    )
    assert added == 1
    assert "parallel_qsp_run in _renyi_integer_plan" in _stage_reads(mutated)
    rechecked, added = re.subn(
        r"lambda: _read\(\*_layout_runs\(layout, rho\), coeffs\)",
        "lambda: joint_readout(*parallel_qsp_runs(table, index, rho), coeffs=coeffs)",
        source,
    )
    assert added == 1
    assert [r for r in _stage_reads(rechecked) if r.endswith("_term_stage")] == [
        "joint_readout in _term_stage", "parallel_qsp_runs in _term_stage",
    ]
    assert _stage_reads(
        "def f(rho):\n    read = partial(parallel_qsp_run, fs, rho)\n    return _Stage(read)\n"
        "def g(p, rho):\n    return _Stage(lambda: _read(*_hadamard_law(p, rho)), 2.0)\n"
    ) == ["_read in g", "read in f"]


RENYI_INTEGER = ("renyi_integer", "_renyi_integer_plan")


def _stray_hadamard_readouts(source: str) -> list[str]:
    """Hadamard read-outs outside their stage builder, by top-level definition.

    estimate.py may name spectral_hadamard_test in _hadamard_stage alone,
    which every sequential stage is built by (it reads the test's law
    through _read), and renyi_integer and its plan read the trace through
    the swap test only, so they name neither.  Each
    flagged name reads "<name> in <definition>".
    """
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and (
                (node.id == "spectral_hadamard_test" and where != "_hadamard_stage")
                or (node.id == "_hadamard_stage" and where in RENYI_INTEGER)
            ):
                found.append(f"{node.id} in {where}")
    return sorted(found)


def test_hadamard_readout_only_in_its_stage():
    assert _stray_hadamard_readouts((SRC / "estimate.py").read_text()) == []


def test_hadamard_scan_fails_a_copy_with_a_sequential_renyi_branch():
    source = (SRC / "estimate.py").read_text()
    mutated, added = re.subn(
        r"return _execute\(_renyi_integer_plan\(",
        'read = partial(spectral_hadamard_test, _shared_polynomial("x", alpha - 1), rho)\n'
        "    stage = _hadamard_stage(Polynomial.one(), rho)\n"
        "    return _execute(_renyi_integer_plan(",
        source,
    )
    assert added == 1
    assert _stray_hadamard_readouts(mutated) == [
        "_hadamard_stage in renyi_integer", "spectral_hadamard_test in renyi_integer",
    ]
    in_plan, added = re.subn(
        r"\n    stage = _term_stage\(_ONE, layout, rho\)",
        "\n    stage = _hadamard_stage(_shared_polynomial(\"x\", alpha), rho)",
        source,
    )
    assert added == 1
    assert _stray_hadamard_readouts(in_plan) == ["_hadamard_stage in _renyi_integer_plan"]
    assert _stray_hadamard_readouts(
        "from .sim import spectral_hadamard_test\n"
        "def _hadamard_stage(p, rho):\n    return partial(spectral_hadamard_test, p, rho)\n"
        "def f(p, rho):\n    return spectral_hadamard_test(p, rho)\n"
    ) == ["spectral_hadamard_test in f"]


def _side_draws(source: str) -> list[str]:
    """.binomial(, .multinomial( and .multinomial_rows( calls that bypass
    the ShotSampler.

    Inside a ShotSampler method a draw is made on its generator, self.rng;
    anywhere else it must call a ShotSampler's own method, on a receiver
    named sampler (or self.sampler).  So a plan's pilot and main draws both
    come from the sampler stream the executor gave its draw, never from a
    side generator.  Each flagged call reads "<method> in <definition>".
    """
    found = []

    def visit(node, where, in_sampler):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = child.name if where is None else f"{where}.{child.name}"
                visit(child, name, in_sampler or (isinstance(child, ast.ClassDef)
                                                  and child.name == "ShotSampler"))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("binomial", "multinomial", "multinomial_rows")
            ):
                receiver = ast.unparse(child.func.value)
                allowed = ("self.rng",) if in_sampler else ("sampler", "self.sampler")
                if receiver not in allowed:
                    found.append(f"{child.func.attr} in {where or '<module>'}")
            visit(child, where, in_sampler)

    visit(ast.parse(source), None, False)
    return sorted(found)


@pytest.mark.parametrize("module", ["sim.py", "estimate.py"])
def test_every_draw_goes_through_the_sampler(module):
    assert _side_draws((SRC / module).read_text()) == []


def test_draw_scan_fails_a_copy_with_a_side_generator():
    source = (SRC / "sim.py").read_text()
    mutated, added = re.subn(
        r"\n    parts = _draw\(",
        "\n    counts = np.random.default_rng(0).multinomial(n, cells.ravel())"
        "\n    parts = _draw(",
        source,
    )
    assert added == 1
    assert _side_draws(mutated) == ["multinomial in _read"]
    assert _side_draws(
        "class ShotSampler:\n"
        "    def ok(self, n, p):\n        return self.rng.binomial(n, p)\n"
        "    def side(self, n, p):\n        return np.random.default_rng().binomial(n, p)\n"
        "def through(sampler, n, p):\n    return sampler.multinomial_rows([n], [p])\n"
        "def own(rng, n, p):\n    return rng.multinomial(n, p)\n"
        "def rows(smp, n, p):\n    return smp.multinomial_rows([n], [p])\n"
    ) == ["binomial in ShotSampler.side", "multinomial in own", "multinomial_rows in rows"]


def _row_draws(source: str) -> list[str]:
    """multinomial_rows calls, by the top-level definition they sit in.

    A sampled read draws its shots in the one _draw: each pooled stage
    through _pooled and the stratified pilot and main draws through
    _strata.  A draw path beside them, say one specialised to few runs or
    few shots, would call the sampler from its own definition and show here.
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _call_name(node) == "multinomial_rows":
                found.append(f"multinomial_rows in {getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_only_the_pooled_and_stratified_draws_call_the_sampler():
    found = {p.name: _row_draws(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {
        "sim.py": ["multinomial_rows in _pooled", "multinomial_rows in _strata"],
    }


def test_row_draw_scan_fails_a_copy_with_a_forked_draw():
    source = (SRC / "sim.py").read_text()
    mutated, added = re.subn(
        r"\ndef _pooled\(",
        "\ndef _one_run(cells, n, sampler):\n    return sampler.multinomial_rows([n], cells)\n\n"
        "\ndef _pooled(",
        source,
    )
    assert added == 1
    assert _row_draws(mutated) == [
        "multinomial_rows in _one_run",
        "multinomial_rows in _pooled",
        "multinomial_rows in _strata",
    ]
    method = "class S:\n    def f(self, n, p):\n        return self.multinomial_rows(n, p)\n"
    assert _row_draws(method) == ["multinomial_rows in S"]


def _call_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def _norm_checks(source: str) -> list[str]:
    """Top-level definitions that call the norm verdict _norms_exceed, or
    that compare a sup_norm(...) call against a bound.

    sim.py checks factor norms in one place, _check_rows, which direct and
    circuit mode both run through _thread_values and a plan's layouts run
    once, when _checked_layout builds them.
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if _call_name(node) == "_norms_exceed" or isinstance(node, ast.Compare) and any(
                _call_name(side) == "sup_norm" for side in (node.left, *node.comparators)
            ):
                found.append(getattr(top, "name", "<module>"))
    return sorted(found)


def test_norm_check_only_in_thread_values():
    assert _norm_checks((SRC / "sim.py").read_text()) == ["_check_rows"]


def test_norm_scan_fails_a_copy_with_its_own_norm_loop():
    source = (SRC / "sim.py").read_text()
    mutated, added = re.subn(
        r"\n    table, index = layout_table\(\[factors\]\)\n",
        "\n    for j, f in enumerate(factors):\n        if sup_norm(f) > 1.0 + 1e-9:\n"
        "            raise InputError(f'factor {j} has sup norm above 1')\n"
        "    table, index = layout_table([factors])\n",
        source,
    )
    assert added == 1
    assert _norm_checks(mutated) == ["_check_rows", "parallel_qsp_run"]
    verdict, added = re.subn(
        r"\n    table, index = layout_table\(\[factors\]\)\n",
        "\n    if any(_norms_exceed(factors, 1.0 + 1e-9)):\n"
        "        raise InputError('a factor has sup norm above 1')\n"
        "    table, index = layout_table([factors])\n",
        source,
    )
    assert added == 1
    assert _norm_checks(verdict) == ["_check_rows", "parallel_qsp_run"]
    assert _norm_checks("def f(p):\n    return 1.0 < poly.sup_norm(p)\n") == ["f"]
    assert _norm_checks("def f(p):\n    return poly._norms_exceed([p], 1.0)[0]\n") == ["f"]


def _eigensolves(source: str) -> list[str]:
    """eigvals calls, by top-level definition.

    Roots come from one companion eigensolve, in factor.find_roots.  Sup
    norms come from poly's Chebyshev grid; the colleague eigensolve in
    _colleague_norms is the fallback, and takes the slopes too short for
    the grid to win.
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if _call_name(node) == "eigvals":
                found.append(f"{ast.unparse(node.func)} in {getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_eigensolves_only_in_find_roots_and_the_norm_fallback():
    found = {p.name: _eigensolves(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {
        "factor.py": ["np.linalg.eigvals in find_roots"],
        "poly.py": ["np.linalg.eigvals in _colleague_norms"],
    }


def test_eigensolve_scan_fails_a_copy_that_solves_for_a_norm():
    source = (SRC / "poly.py").read_text()
    mutated, added = re.subn(
        r"\n    g, s = _grid\(cs, real\)\n    h = ",
        "\n    g, s = _grid(cs, real)\n    np.linalg.eigvals(np.diag(cs[0]))\n    h = ",
        source,
    )
    assert added == 1
    assert _eigensolves(mutated) == [
        "np.linalg.eigvals in _colleague_norms", "np.linalg.eigvals in _polished",
    ]
    assert _eigensolves("from numpy.linalg import eigvals\ndef f(a):\n    return eigvals(a)\n") == [
        "eigvals in f",
    ]


def _phase_route_calls(source: str) -> list[str]:
    """find_phases, realized_value and np.block calls, by top-level definition.

    sim.py turns QSP phases into block eigenvalues in one place,
    _thread_values, and builds every circuit block from those values, so it
    multiplies out no block matrix of a qubitized sequence.
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name == "np.block" or name.split(".")[-1] in ("find_phases", "realized_value"):
                    found.append(f"{name} in {getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_phase_route_only_in_thread_values():
    assert _phase_route_calls((SRC / "sim.py").read_text()) == [
        "find_phases in _thread_values", "realized_value in _thread_values",
    ]


def test_phase_route_scan_fails_a_copy_with_a_block_builder():
    source = (SRC / "sim.py").read_text()
    mutated, added = re.subn(
        r"\ndef spectral_hadamard_test\(",
        "\ndef _qubitized_step(a, s):\n    return np.block([[a, 1j * s], [1j * s, a]])\n\n"
        "\ndef spectral_hadamard_test(",
        source,
    )
    assert added == 1
    assert _phase_route_calls(mutated) == [
        "find_phases in _thread_values",
        "np.block in _qubitized_step",
        "realized_value in _thread_values",
    ]
    assert _phase_route_calls("def f(p, x):\n    return qsp.realized_value(find_phases(p), x)\n") == [
        "find_phases in f", "qsp.realized_value in f",
    ]


# The factor path per module: functions, and Class.method for methods;
# factor.py reaches poly.py's norm kernel through _sup_norms.  The entropy
# approximant search keeps to the same rule: its per-degree kernel,
# _fit_degree, recurs its own Chebyshev rows and checks them with
# poly._clenshaw.
FACTOR_PATH = {
    "estimate.py": ("_fit_odd_approximant", "_fit_degree"),
    "factor.py": ("find_roots", "factorize_nonneg", "rescale_factors"),
    "poly.py": ("Polynomial.from_roots", "_sup_norms"),
}


def _numpy_polynomial_uses(source: str, names: tuple[str, ...]) -> list[str]:
    """numpy.polynomial references in the named definitions and in the
    module's functions that they call, directly or in turn.

    The factor path builds its series on plain lists and checks signs with
    one table, because numpy.polynomial's per-call array overhead costs more
    than the arithmetic on series of a few terms.
    """
    tree = ast.parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.polynomial"):
            aliases.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(
                alias.asname for alias in node.names
                if alias.name.startswith("numpy.polynomial") and alias.asname
            )
    defs = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            defs[top.name] = top
        elif isinstance(top, ast.ClassDef):
            methods = [f for f in top.body if isinstance(f, ast.FunctionDef)]
            defs.update((f"{top.name}.{f.name}", f) for f in methods)
    found, seen, todo = [], set(), list(names)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in defs:
                todo.append(node.func.id)
            if (isinstance(node, ast.Name) and node.id in aliases) or (
                isinstance(node, ast.Attribute) and node.attr == "polynomial"
            ):
                found.append(f"{ast.unparse(node)} in {name} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("module", sorted(FACTOR_PATH))
def test_factor_path_avoids_numpy_polynomial(module):
    assert _numpy_polynomial_uses((SRC / module).read_text(), FACTOR_PATH[module]) == []


def test_numpy_polynomial_scan_fails_copies_that_call_it():
    poly_src = (SRC / "poly.py").read_text()
    mutated, swapped = re.subn(
        r"return cls\.from_cheb\(\[c \* scale for c in ps\[0\]\] if ps else \[scale\]\)",
        "return cls.from_cheb(npcheb.chebfromroots(np.array(roots, dtype=complex)) * scale)",
        poly_src,
    )
    assert swapped == 1
    line = mutated[: mutated.index("npcheb.chebfromroots")].count("\n") + 1
    assert _numpy_polynomial_uses(mutated, FACTOR_PATH["poly.py"]) == [
        f"npcheb in Polynomial.from_roots (line {line})",
    ]
    factor_src = (SRC / "factor.py").read_text()
    mutated, swapped = re.subn(
        r"\n    global _sign_table\n",
        "\n    global _sign_table\n    np.polynomial.chebyshev.chebvander(_SIGN_GRID, d)\n",
        factor_src,
    )
    assert swapped == 1
    line = mutated[: mutated.index("np.polynomial.chebyshev")].count("\n") + 1
    assert _numpy_polynomial_uses(mutated, FACTOR_PATH["factor.py"]) == [
        f"np.polynomial in _chebyshev_rows (line {line})",
    ]
    estimate_src = (SRC / "estimate.py").read_text()
    mutated, swapped = re.subn(
        r"\nimport numpy as np\n(.*)np\.linalg\.lstsq\(rows\[1::2\]\.T, ",
        "\nimport numpy as np\nimport numpy.polynomial.chebyshev as npcheb\n"
        "\\1np.linalg.lstsq(npcheb.chebvander(nodes, d)[:, 1::2], ",
        estimate_src,
        flags=re.DOTALL,
    )
    assert swapped == 1
    line = mutated[: mutated.index("npcheb.chebvander")].count("\n") + 1
    assert _numpy_polynomial_uses(mutated, FACTOR_PATH["estimate.py"]) == [
        f"npcheb in _fit_degree (line {line})",
    ]
    mutated, swapped = re.subn(
        r"\nimport numpy as np\n(.*)_clenshaw\(full\[:n\]\.tolist\(\), grid\)",
        "\nimport numpy as np\nfrom numpy.polynomial.chebyshev import chebval\n"
        "\\1chebval(grid, full[:n])",
        estimate_src,
        flags=re.DOTALL,
    )
    assert swapped == 1
    line = mutated[: mutated.index("chebval(grid")].count("\n") + 1
    assert _numpy_polynomial_uses(mutated, ("_fit_degree",)) == [
        f"chebval in _fit_degree (line {line})",
    ]
    assert _numpy_polynomial_uses(
        "from numpy.polynomial.chebyshev import chebval\nimport numpy.polynomial as P\n"
        "def f(c):\n    return chebval(0.5, c) + P.chebyshev.chebval(0.5, c)\n"
        "def g(c):\n    return chebval(0.5, c)\n",
        ("f",),
    ) == ["P in f (line 4)", "chebval in f (line 4)"]


def _third_party_imports(source: str) -> set[str]:
    """Top-level packages of the absolute, non-stdlib imports in a source.

    Imports inside functions count: a deferred import is still a dependency.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names)


def _dependency_mismatch(sources: dict[str, str], declared: set[str]) -> dict[str, list[str]]:
    """Imported packages missing from the declared dependencies, and the reverse.

    Each package here is imported under its distribution name.
    """
    imported = set().union(*(_third_party_imports(src) for src in sources.values()))
    return {"unlisted": sorted(imported - declared), "unused": sorted(declared - imported)}


def _declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]}


def test_scan_finds_deferred_third_party_imports():
    src = (
        "from __future__ import annotations\nimport os.path\nimport numpy.linalg as la\n"
        "from . import poly\nfrom .errors import InputError\n"
        "def f():\n    from scipy.optimize import least_squares\n    import json\n"
    )
    assert _third_party_imports(src) == {"numpy", "scipy"}


def test_imports_match_declared_dependencies():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _dependency_mismatch(sources, _declared_dependencies()) == {
        "unlisted": [], "unused": [],
    }


def test_dependency_scan_fails_a_copy_with_an_unlisted_import():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sources["config.py"] += "\n\ndef _model():\n    import pydantic\n\n    return pydantic\n"
    assert _dependency_mismatch(sources, _declared_dependencies()) == {
        "unlisted": ["pydantic"], "unused": [],
    }


def test_dependency_scan_flags_a_leftover_declaration():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _dependency_mismatch(sources, _declared_dependencies() | {"pydantic"}) == {
        "unlisted": [], "unused": ["pydantic"],
    }
