"""Rules about the source of src/ordcalc, read with `ast`.

Each test lists what breaks its rule, so a failure names the file and line.
"""

import ast
import importlib
import pathlib

from ordcalc import core, harness

_SOURCES = {
    path: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py"))
}


def test_no_unused_imports():
    """Every name a module imports is read in it or exported by `__all__`."""
    bad = []
    for path, tree in _SOURCES.items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        bad += [
            f"{path.name}:{line}: {name} is imported but never used"
            for name, line in imported.items()
            if name not in used
        ]
    assert bad == []


def test_no_unread_private_names():
    """Every private name bound at module level is read somewhere in the
    package, as a name or as an attribute."""
    read = set()
    for tree in _SOURCES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    bad = []
    for path, tree in _SOURCES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [
                    name.id
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            else:
                continue
            bad += [
                f"{path.name}:{node.lineno}: {name} is never read"
                for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    assert bad == []


def test_no_global_statements():
    """Module state is held in registered tables, never rebound by `global`."""
    bad = [
        f"{path.name}:{node.lineno}: global {', '.join(node.names)}"
        for path, tree in _SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]
    assert bad == []


def test_no_system_function_calls_itself():
    """Every walk of a system runs on a `core` kernel: no function in
    buchholz, poly, xi or mixed calls its own name."""
    found = []
    for system in harness.SYSTEMS:
        path = pathlib.Path(core.__file__).with_name(f"{system}.py")
        for node in ast.walk(_SOURCES[path]):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == node.name
                for call in ast.walk(node)
            ):
                found.append(f"{system}.{node.name}")
    assert found == []


def _builds_a_cache(call):
    kernel = getattr(call.func, "id", None)
    if kernel == "make_level_walk":
        return any(kw.arg == "memoize" for kw in call.keywords)
    return kernel in ("make_order", "make_walk", "reference_walk")


def _cache_sites():
    """`module.attribute` of every cache src/ordcalc builds: each name bound
    at module level to a kernel build or an empty dict.  Any other build is
    listed by its line, which no registry name matches."""
    sites = set()
    for path, tree in _SOURCES.items():
        for node in tree.body:
            calls = [c for c in ast.walk(node) if isinstance(c, ast.Call)]
            lines = [c.lineno for c in calls if _builds_a_cache(c)]
            empty = isinstance(getattr(node, "value", None), ast.Dict) and not node.value.keys
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (lines or empty):
                target = node.targets[0] if isinstance(node, ast.Assign) else node.target
                sites.add(f"{path.stem}.{getattr(target, 'elts', [target])[0].id}")
                lines = lines[1:]
            sites.update(f"{path.stem}:{line}" for line in lines)
    return sites - {"core.CACHES"}


def test_every_cache_is_registered():
    """The registry holds every memo and table the source builds, plus the
    shared-set and intern tables, each the live dict its holder reads."""
    assert set(core.CACHES) == _cache_sites() | {"core._SHARED_SETS", "core._INTERN"}
    for name, table in core.CACHES.items():
        module, _, attr = name.partition(".")
        holder = getattr(importlib.import_module(f"ordcalc.{module}"), attr)
        cells = [cell.cell_contents for cell in getattr(holder, "__closure__", None) or ()]
        assert holder is table or any(cell is table for cell in cells), name
