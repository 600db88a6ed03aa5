"""Layout guard: `src/` holds only code the pipeline, CLI or benchmark reaches."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "epsapprox").glob("*.py"))
BENCH = sorted((ROOT / "benchmark").glob("*.py"))
# synthetic_system builds a real CubeSystem through private linkers for the
# tests; pickle alone calls the persistence hooks
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
