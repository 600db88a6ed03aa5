"""Layout guard: `src/` holds only code the pipeline, CLI or benchmark reaches."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "epsapprox").glob("*.py"))
BENCH = sorted((ROOT / "benchmark").glob("*.py"))
# synthetic_system builds a real CubeSystem for the tests; pickle alone calls
# the persistence hooks
ALLOWED = {"synthetic_system", "persistent_id", "persistent_load"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node) -> list:
    """Identifiers a node mentions: names, attributes and the dotted parts of
    strings (the stage graph and the benchmark's tracer name functions)."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.extend(parts)
    return out


def test_src_defs_are_reached():
    trees = {p: ast.parse(p.read_text()) for p in SRC + BENCH}
    counts: dict = {}
    for tree in trees.values():
        for name in _names(tree):
            counts[name] = counts.get(name, 0) + 1
    unreached = []
    for path in SRC:
        for node in ast.walk(trees[path]):
            if not isinstance(node, DEFS) or node.name in ALLOWED:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            # mentions inside the definition itself (recursion) do not count
            if counts.get(node.name, 0) <= _names(node).count(node.name):
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreached, "defined in src/ but reached from nowhere: " + ", ".join(
        unreached
    )


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name == "dataclass"


def test_dataclass_fields_are_read():
    """Every annotated field of a `src/` dataclass is loaded as an attribute
    somewhere; tests count, since some result fields are read only there."""
    tests = sorted((ROOT / "tests").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in SRC + BENCH + tests}
    loaded = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = []
    for path in SRC:
        for node in ast.walk(trees[path]):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_is_dataclass(d) for d in node.decorator_list):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in loaded
                ):
                    unread.append(f"{node.name}.{stmt.target.id}")
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)


def test_tree_sweeps_read_the_levels():
    """Only dyadic.py puts cubes in generation order: every other tree sweep
    iterates `CubeSystem.levels` instead of sorting `relevant_ids()`."""
    found = []
    for path in SRC:
        if path.name == "dyadic.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "sorted"
                and any(k.arg == "key" for k in n.keywords)
                and n.args
                and "relevant_ids" in _names(n.args[0])
            ):
                found.append(f"{path.name}:{n.lineno}")
    assert not found, "generation sorts of relevant_ids(): " + ", ".join(found)


def test_benchmark_tracer_installs(tmp_path):
    """`benchmark/run.py --trace 1` wraps its targets by module and name, so
    a moved or renamed one fails here; uninstall restores every binding.  A
    traced quick_t run and one witness decision record every result counter,
    so a renamed attribute a counter reads fails here too."""
    from epsapprox import carleson, pipeline
    from epsapprox.config import RunConfig

    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmark" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def bindings():
        out = {}
        for m in tracer.MODULES:
            mod = importlib.import_module(f"{tracer.PACKAGE}.{m}")
            out[m] = dict(vars(mod))
            for name, obj in vars(mod).items():
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    out[f"{m}.{name}"] = dict(vars(obj))
        return out

    before = bindings()
    t = tracer.Tracer().install()
    try:
        assert len(t._restore) >= len(tracer.FUNCTIONS)
        assert bindings() != before
        t.active = True
        out = pipeline.run(RunConfig.load(ROOT / "configs" / "quick_t.json"), out_dir=tmp_path)
        S = out["grid"]["S"]
        carleson.sparse_witness(S, S.roots[:1], 1.0)
        t.active = False
    finally:
        t.uninstall()
    assert bindings() == before
    assert set(t.counters) == {key for key, _ in tracer.RESULT_COUNTERS.values()}
    per_eps = out["approximate"]["per_eps"].values()
    assert t.counters["approximator.n_cells"] == sum(len(st["A"].cells) for st in per_eps)


def test_pipeline_run_does_not_import_numpy_ma(tmp_path):
    """np.unique (and the set operations built on it) import numpy.ma on
    their first call, 10-30 ms and about 1 MB; a run uses `distinct`."""
    script = (
        "import sys; from epsapprox import pipeline; "
        "from epsapprox.config import RunConfig; "
        f"pipeline.run(RunConfig.load({str(ROOT / 'configs' / 'quick_t.json')!r}), "
        f"out_dir={str(tmp_path)!r}); "
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "False"
