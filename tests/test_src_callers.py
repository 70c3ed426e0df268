"""No test-only code under ``src/``: every top-level function and every
method of the package has a code reference under ``src/``.

A reference is a name or an attribute read (``ast.Name``,
``ast.Attribute``) anywhere in the package outside the definition's own
body, so recursion alone does not count, and outside every definition
already found uncalled, so a helper that only uncalled code calls is
found too.  Names are matched bare: a method that shares its name with
a called one passes.  Dunder methods are called by the language.

The exceptions are the names the benchmark reads from outside: those
``bench/tracer.py`` wraps and those the harness calls as
``module.name`` (the oracle's ``structure.localize_table``), and the
paper's objects that no command calls yet.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wgrass"
TRACER = ROOT / "bench" / "tracer.py"

PAPER_OBJECTS = {"plucker.normalize", "torsion.lens_cohomology",
                 "torsion.building_sequence"}


def _tracer_paths() -> set:
    # read the way test_bench_contract reads them
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{mod}.{path}" for mod, path, _, _ in module.WRAPPED}


def _bench_calls() -> set:
    """``module.name`` reads of the package in the benchmark's code."""
    modules = {path.stem for path in SRC.glob("*.py")}
    return {
        f"{sub.value.id}.{sub.attr}"
        for path in (ROOT / "bench").glob("*.py")
        for sub in ast.walk(ast.parse(path.read_text()))
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
        and sub.value.id in modules
    }


def _references(node) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _definitions(module: str, tree):
    """(qualified name, bare name, node) of every top-level function and
    of every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def test_every_src_function_has_a_src_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    exempt = _tracer_paths() | _bench_calls() | PAPER_OBJECTS
    candidates = [
        (qualified, name, node)
        for module, tree in sorted(trees.items())
        for qualified, name, node in _definitions(module, tree)
        if not (name.startswith("__") and name.endswith("__"))
        and qualified not in exempt
    ]
    uncalled: dict = {}
    while True:
        live = total.copy()
        for node in uncalled.values():
            live.subtract(_references(node))
        more = {
            qualified: node
            for qualified, name, node in candidates
            if qualified not in uncalled and live[name] <= _references(node)[name]
        }
        if not more:
            break
        uncalled.update(more)
    assert sorted(uncalled) == []

