"""The package exports only what it uses itself or the benchmark traces.

Every public top-level function or class of ``src/quadbalance`` must be
named somewhere in the package beyond its own definition and its
re-export from ``__init__``, or be traced by name in BENCHMARK.json, so a
helper that only the tests reach belongs in ``tests/oracles.py``.  Every
name a module other than ``__init__`` imports must be read in that module.
The source is read with ``ast``, not imported.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quadbalance"


def modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def named(tree):
    """(enclosing top-level definition or None, name) of every identifier
    the module reads, attribute or imports."""
    uses = set()
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                uses.add((owner, sub.id))
            elif isinstance(sub, ast.Attribute):
                uses.add((owner, sub.attr))
            elif isinstance(sub, ast.ImportFrom):
                uses.update((owner, alias.name) for alias in sub.names)
    return uses


def traced():
    """(module, top-level name) of each ``<name>.calls`` metric."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {
        tuple(m["name"].split(".")[:2]) for m in metrics if m["name"].endswith(".calls")
    }


def test_every_public_definition_is_used_or_traced():
    trees = modules()
    # a definition's own body, recursion included, does not count as a use
    used = {
        name
        for module, tree in trees.items()
        if module != "__init__"
        for owner, name in named(tree)
        if owner != name
    }
    allowed = traced()
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and (module, node.name) not in allowed
    ]
    assert not unused, unused


def bound(tree):
    """Names a module binds at top level: definitions, assignments, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def test_all_resolves():
    trees = modules()
    init = trees["__init__"]
    exported = next(
        node.value
        for node in init.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    names = [ast.literal_eval(element) for element in exported.elts]
    assert len(names) == len(set(names))
    assert set(names) <= bound(init)
    # each re-export is bound in the module it is imported from
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                assert alias.name in bound(trees[node.module]), f"{node.module}.{alias.name}"


def test_every_import_is_read():
    unread = []
    for module, tree in modules().items():
        if module == "__init__":
            continue
        reads = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                unread += [
                    f"{module}: {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name).split(".")[0] not in reads
                ]
    assert not unread, unread
