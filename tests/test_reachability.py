"""The library is what the system reaches: every ``src/repro`` module is
imported, directly or through other modules, by a non-test entry point.

The entry points are the experiments and the engine bench
(``benchmarks/*.py``), the examples, perfbench and the scenario CLI.  The
walk reads their sources with :mod:`ast` and follows every ``import``
and ``from … import``, at any depth, so an import inside a function
counts.  A package ``__init__`` is reached whenever one of its modules
is, but its own imports count only for the names it uses beyond
``__all__`` (``core/engine``'s ``ENGINES`` table, say): a re-export is
not a use.  ``from pkg import name`` resolves through ``pkg/__init__.py``
to the module that defines ``name``.  The library imports absolutely;
a relative import resolves to nothing, so the module it names fails
the check rather than passing unseen.  The check is per module; a
function only tests call is not caught here.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}

ENTRY_POINTS = [
    *sorted((ROOT / "benchmarks").glob("*.py")),
    *sorted((ROOT / "examples").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    SRC / "repro" / "scenarios" / "__main__.py",
]


def _is_package(name: str) -> bool:
    return MODULES.get(name, Path()).name == "__init__.py"


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(name: str):
    """``(bound name, module reached)`` for each import in a module."""
    for node in ast.walk(_tree(MODULES.get(name) or Path(name))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, _definer(node.module or "", alias.name)


def _definer(base: str, name: str) -> str:
    """The module that ``from base import name`` reaches."""
    if f"{base}.{name}" in MODULES:
        return f"{base}.{name}"
    if _is_package(base):
        for node in _tree(MODULES[base]).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _definer(node.module or "", alias.name)
    return base


def _used_names(name: str) -> set:
    """Names a package ``__init__`` loads outside its ``__all__``."""
    tree = _tree(MODULES[name])
    skip = {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for sub in ast.walk(node)
    }
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in skip
    }


def reached_modules(entry_points=ENTRY_POINTS) -> set:
    """Every ``repro`` module the entry points reach, themselves included."""
    stack = [
        _module_name(path) if SRC in path.parents else str(path)
        for path in entry_points
    ]
    reached = set(stack) & set(MODULES)
    while stack:
        here = stack.pop()
        used = _used_names(here) if _is_package(here) else None
        for bound, target in _imports(here):
            if used is not None and bound not in used:
                continue
            parts = target.split(".")
            for depth in range(1, len(parts) + 1):
                module = ".".join(parts[:depth])
                if module in MODULES and module not in reached:
                    reached.add(module)
                    stack.append(module)
    return reached


def test_every_module_is_reached():
    unreached = sorted(set(MODULES) - reached_modules())
    assert unreached == [], (
        "no benchmark, example, perfbench script or CLI imports these "
        f"modules: {unreached}"
    )


def test_walk_rules():
    # A re-export is not a use: repro/__init__.py only re-exports.
    assert reached_modules([SRC / "repro" / "__init__.py"]) == {"repro"}
    # ``from pkg import name`` reaches the module that defines the name.
    assert _definer("repro.graphs", "Graph") == "repro.graphs.graph"
    # core/engine/__init__.py's ENGINES table uses its engine imports.
    reached = reached_modules([SRC / "repro" / "core" / "network.py"])
    assert {"repro.core.engine.legacy", "repro.core.engine.kernel"} <= reached
