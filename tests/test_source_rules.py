"""Rules about the source of src/ordcalc, read with `ast`.

Each test lists what breaks its rule, so a failure names the file and line.
"""

import ast
import importlib
import pathlib
import re

from ordcalc import core, harness, reference  # reference registers the oracle's tables

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


def _path(module):
    return pathlib.Path(core.__file__).with_name(f"{module}.py")


def test_no_system_function_calls_itself():
    """Every walk of a system runs on a kernel: no function in buchholz,
    poly, xi, mixed or `lemmas` calls its own name, nor any in `reference`
    outside its two plain-recursion kernels."""
    kernels = {"make_reference", "reference_walk"}
    found = []
    for module in (*harness.SYSTEMS, "lemmas", "reference"):
        for top in _SOURCES[_path(module)].body:
            if getattr(top, "name", None) in kernels and module == "reference":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and getattr(call.func, "id", None) == node.name
                    for call in ast.walk(node)
                ):
                    found.append(f"{module}.{node.name}")
    assert found == []


# What `reference` may take from the memoized path.  Everything else it
# codes itself, so that a fault on one side shows as a disagreement.
_TERM_SURFACE = {
    # term classes and the critical-set entry
    "Term", "Sum", "OmegaPow", "OmegaIdx", "OmegaLev", "OmegaHigh", "Xi", "ThetaIdx",
    "Theta", "ThetaLow", "ThetaHigh", "ThetaXi", "VarIdx", "VarLev", "FVar", "KItem",
    # constructors
    "omega_lev", "omega_high", "var_lev", "fvar", "xi",
    # errors
    "InvariantError", "ShiftError",
    # constants, and the registry every table is named in
    "NEG_INF", "ZERO", "Outcome", "CACHES",
}
_SHARED = {
    # the parameter walk xi's and mixed's instantiations run at
    "collect_params": "core",
    # the level-walk kernel: poly's and xi's unmemoized shifts, from their heads
    "make_level_walk": "core",
    "_shift_head": "poly xi",
    # xi's unmemoized substitution, built with xi's operand check
    "make_substitution": "core",
    "system_checks": "core",
    # the abstraction of a bound collapse into a function entry
    "_bound_collapse_item": "xi mixed",
    # mixed's re-levelling, thXi instantiation and collapse classes
    "_shift": "mixed",
    "instantiate": "mixed",
    "_COLLAPSES": "mixed",
    # mixed's cardinality arithmetic
    **dict.fromkeys(
        ("MCard", "CARD_NEG_INF", "FULL", "fin", "large", "card_minus_level",
         "card_min_nat", "level_minus_card"),
        "mixed",
    ),
}


def test_reference_imports_only_named_shared_code():
    """The oracle reads the memoized path only through the term surface
    and the shared code named in `_SHARED`, from the module named there."""
    bad = []
    for node in ast.walk(_SOURCES[_path("reference")]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module == "core" and alias.name in _TERM_SURFACE:
                    continue
                if node.module not in _SHARED.get(alias.name, "").split():
                    bad.append(f"reference.py:{node.lineno}: .{node.module or ''} {alias.name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "ordcalc" in ast.unparse(node):
            bad.append(f"reference.py:{node.lineno}: {ast.unparse(node)}")
    assert bad == []


def test_no_module_reads_a_forwarded_name():
    """A system module's forwarded names are a shim for outside readers: no
    module of the package reads a `*_reference` name, as an attribute, an
    import or a `getattr` string, nor a dominance or Key Lemma name, as an
    attribute or an import (`lemmas` holds those under a system prefix; the
    forwarder's name table in `core` spells them as strings)."""
    forwarded = re.compile(r"\w+_reference")
    moved = re.compile(r"\w+_reference|dfun|llrel|key_lemma_\d+")
    bad = []
    for path, tree in _SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names, pattern = [node.attr], moved
            elif isinstance(node, ast.ImportFrom):
                names, pattern = [alias.name for alias in node.names], moved
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names, pattern = [node.value], forwarded
            else:
                continue
            bad += [f"{path.name}:{node.lineno}: {n}" for n in names if pattern.fullmatch(n)]
    assert bad == []


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
