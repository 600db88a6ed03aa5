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


# numpy names that do not exist on the declared floor (pyproject.toml:
# numpy>=1.24), with the release that added each one
NUMPY2_NAMES = {
    "bitwise_count": "2.0",
    "concat": "2.0",
    "permute_dims": "2.0",
    "pow": "2.0",
    "acos": "2.0",
    "asin": "2.0",
    "atan": "2.0",
    "atan2": "2.0",
    "acosh": "2.0",
    "asinh": "2.0",
    "atanh": "2.0",
    "bitwise_invert": "2.0",
    "bitwise_left_shift": "2.0",
    "bitwise_right_shift": "2.0",
    "isdtype": "2.0",
    "astype": "2.0",
    "bool": "2.0",  # removed in 1.24, added back in 2.0
    "long": "2.0",
    "ulong": "2.0",
    "unique_all": "2.0",
    "unique_counts": "2.0",
    "unique_inverse": "2.0",
    "unique_values": "2.0",
    "matrix_transpose": "2.0",
    "vecdot": "2.0",
    "cumulative_sum": "2.1",
    "cumulative_prod": "2.1",
    "unstack": "2.1",
    "matvec": "2.2",
    "vecmat": "2.2",
    "linalg.vector_norm": "2.0",
    "linalg.matrix_norm": "2.0",
}


def _is_np(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _numpy2_uses(source: str) -> list:
    """(line, name) of every np.<name> or np.linalg.<name> in NUMPY2_NAMES."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.Attribute):
            continue
        base = n.value
        if _is_np(base):
            name = n.attr
        elif isinstance(base, ast.Attribute) and base.attr == "linalg" and _is_np(base.value):
            name = f"linalg.{n.attr}"
        else:
            continue
        if name in NUMPY2_NAMES:
            found.append((n.lineno, name))
    return found


def test_src_runs_on_the_declared_numpy_floor():
    """The suite runs on numpy 2.x only, so a name numpy 1.x lacks would
    pass every other test: no src/ module may use one."""
    assert _numpy2_uses("np.bitwise_count(x); np.linalg.vector_norm(x)") == [
        (1, "bitwise_count"),
        (1, "linalg.vector_norm"),
    ]
    found = [
        f"{path.name}:{line} np.{name} (numpy {NUMPY2_NAMES[name]})"
        for path in SRC
        for line, name in _numpy2_uses(path.read_text())
    ]
    assert not found, "numpy names missing below numpy 2: " + ", ".join(found)


# numpy names that hand their sums to BLAS, which may split a sum across
# threads and add the parts in another order
BLAS_NAMES = {"dot", "inner", "vdot", "matmul", "tensordot", "linalg"}


def _blas_uses(source: str) -> list:
    """(line, what) of every BLAS-backed numpy call: np.dot, np.inner,
    np.vdot, np.matmul, np.tensordot, anything under np.linalg, a `.dot(`
    method call, the `@` operator, and np.einsum with `optimize`, which may
    hand a contraction to tensordot.  The one exception is np.einsum
    without `optimize`, which runs numpy's own loops
    (`FundamentalPole.grad`'s row dot)."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult):
            found.append((n.lineno, "@"))
        elif isinstance(n, ast.Attribute) and _is_np(n.value) and n.attr in BLAS_NAMES:
            found.append((n.lineno, f"np.{n.attr}"))
        elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("numpy"):
            names = {a.name for a in n.names} if n.module == "numpy" else set(n.module.split("."))
            found += [(n.lineno, f"from {n.module}: {b}") for b in sorted(names & BLAS_NAMES)]
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            if n.func.attr == "dot" and not _is_np(n.func.value):
                found.append((n.lineno, ".dot("))
            elif n.func.attr == "einsum" and any(k.arg == "optimize" for k in n.keywords):
                found.append((n.lineno, "np.einsum(optimize=)"))
    return found


def test_src_makes_no_blas_call():
    """A BLAS sum's order may follow the thread count, so a result would
    depend on the machine: no src/ module may call one."""
    probe = (
        "np.dot(a, b); a.dot(b); c = a @ b; c @= a; np.linalg.norm(a); np.inner(a, b)\n"
        "np.einsum('ij,ij->i', a, b, optimize=True); np.einsum('ij,ij->i', a, b)\n"
        "from numpy.linalg import norm; from numpy import vdot, sqrt"
    )
    assert sorted(_blas_uses(probe)) == [
        (1, ".dot("), (1, "@"), (1, "@"), (1, "np.dot"), (1, "np.inner"), (1, "np.linalg"),
        (2, "np.einsum(optimize=)"), (3, "from numpy.linalg: linalg"), (3, "from numpy: vdot"),
    ]
    found = [
        f"{path.name}:{line} {what}"
        for path in SRC
        for line, what in sorted(_blas_uses(path.read_text()))
    ]
    assert not found, "BLAS-backed calls in src/: " + ", ".join(found)
