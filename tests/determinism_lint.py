"""AST lint pass: determinism hazards in protocol code.

Everything in this repository's correctness story — cross-engine
digests, fault-schedule reproducibility, compiled-schedule replay —
rests on runs being pure functions of ``(program, inputs, seed)``.  The
lint pass walks :mod:`repro` source with the stdlib :mod:`ast` module
and flags the three ways that purity quietly breaks
(``test_static_analysis.py::TestLint::test_repro_tree_is_clean`` runs it
over ``src/repro`` in the tier-1 suite):

``unseeded-random``
    Module-level ``random.*`` / ``np.random.*`` calls draw from global,
    unseeded generator state.  Protocol code must thread an explicit
    ``random.Random(seed)`` / ``np.random.default_rng(seed)`` instance.
    Constructing such an instance (``random.Random``, ``random.seed``,
    ``np.random.default_rng``, ``np.random.RandomState``,
    ``np.random.Generator``, ``np.random.SeedSequence``) is of course
    allowed.

``wall-clock``
    ``time.time`` / ``time.monotonic`` / ``time.perf_counter`` /
    ``datetime.now`` and friends inside protocol paths make behaviour
    depend on the host clock.  (Harness timing code annotates its
    legitimate uses; see below.)

``dict-order-yield``
    A ``for`` loop over ``.items()`` / ``.keys()`` / ``.values()``
    whose body ``yield``\\ s makes the message *order* — and under
    heterogeneous widths, the structure — depend on dict insertion
    order.  Insertion order is deterministic in CPython, but it is an
    accident of construction order, not a declared protocol property;
    iterate ``sorted(...)`` instead.

A finding is suppressed by an explicit same-line pragma::

    start = time.perf_counter()  # analysis: allow(wall-clock)

which keeps the default strict (zero findings in ``src/repro/``) while
letting the measurement harness keep its clocks, visibly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["LintFinding", "lint_source", "lint_file", "lint_paths", "RULES"]

RULES = ("unseeded-random", "wall-clock", "dict-order-yield")

#: random-module attributes that *create or seed* generators (allowed)
#: rather than draw from global state (flagged).
_RANDOM_FACTORIES = {
    "Random",
    "SystemRandom",
    "seed",
    "getstate",
    "setstate",
    "default_rng",
    "RandomState",
    "Generator",
    "SeedSequence",
    "PCG64",
    "Philox",
    "bit_generator",
}

_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "today"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

_DICT_VIEW_METHODS = {"items", "keys", "values"}


@dataclass(frozen=True)
class LintFinding:
    """One determinism hazard at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None for anything non-dotted."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.findings: List[LintFinding] = []
        #: Local aliases of the random / numpy.random / time / datetime
        #: modules, tracked through imports in this file.
        self.random_aliases: set = set()
        self.np_aliases: set = set()
        self.time_aliases: set = set()
        self.datetime_aliases: set = set()
        #: Names imported *from* the hazardous modules, e.g.
        #: ``from random import randint`` / ``from time import time``.
        self.from_random: set = set()
        self.from_time: set = set()

    # -- bookkeeping ------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name in ("numpy", "np"):
                self.np_aliases.add(bound)
            elif alias.name == "numpy.random":
                # ``import numpy.random`` binds "numpy" (or the asname
                # to the submodule); either way draws are attribute
                # calls we catch through the numpy alias set.
                self.np_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_FACTORIES:
                    self.from_random.add(alias.asname or alias.name)
        elif node.module == "time":
            for alias in node.names:
                self.from_time.add(alias.asname or alias.name)
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _RANDOM_FACTORIES:
                    self.from_random.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- findings ---------------------------------------------------------

    def _allowed(self, line: int, rule: str) -> bool:
        if 1 <= line <= len(self.lines):
            return f"analysis: allow({rule})" in self.lines[line - 1]
        return False

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self._allowed(line, rule):
            return
        self.findings.append(
            LintFinding(path=self.path, line=line, rule=rule, message=message)
        )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            dotted = _dotted(node.func)
            if dotted is not None:
                self._check_call(node, dotted)
        elif isinstance(node.func, ast.Name):
            name = node.func.id
            if name in self.from_random:
                self._flag(
                    node,
                    "unseeded-random",
                    f"call to global random.{name}(); use an explicit "
                    f"random.Random(seed) instance",
                )
            elif name in self.from_time:
                self._flag(
                    node,
                    "wall-clock",
                    f"call to time.{name}(); protocol behaviour must not "
                    f"depend on the host clock",
                )
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, dotted: Tuple[str, ...]) -> None:
        head, rest = dotted[0], dotted[1:]
        # random.<draw>(...)
        if head in self.random_aliases and len(rest) == 1:
            if rest[0] not in _RANDOM_FACTORIES:
                self._flag(
                    node,
                    "unseeded-random",
                    f"call to global random.{rest[0]}(); use an explicit "
                    f"random.Random(seed) instance",
                )
            return
        # np.random.<draw>(...)
        if (
            head in self.np_aliases
            and len(rest) == 2
            and rest[0] == "random"
            and rest[1] not in _RANDOM_FACTORIES
        ):
            self._flag(
                node,
                "unseeded-random",
                f"call to global numpy random.{rest[1]}(); use "
                f"np.random.default_rng(seed)",
            )
            return
        # time.<clock>() / datetime.now() / datetime.datetime.now()
        if head in self.time_aliases and len(rest) == 1:
            if ("time", rest[0]) in _CLOCK_CALLS:
                self._flag(
                    node,
                    "wall-clock",
                    f"call to time.{rest[0]}(); protocol behaviour must "
                    f"not depend on the host clock",
                )
            return
        if head in self.datetime_aliases and rest:
            tail = rest[-1]
            if ("datetime", tail) in _CLOCK_CALLS or ("date", tail) in _CLOCK_CALLS:
                self._flag(
                    node,
                    "wall-clock",
                    f"call to datetime {'.'.join(rest)}(); protocol "
                    f"behaviour must not depend on the host clock",
                )

    def _visit_loop(self, node: ast.AST) -> None:
        iterator = node.iter
        if (
            isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Attribute)
            and iterator.func.attr in _DICT_VIEW_METHODS
            and not iterator.args
            and not iterator.keywords
        ):
            has_yield = any(
                isinstance(inner, (ast.Yield, ast.YieldFrom))
                for stmt in node.body
                for inner in ast.walk(stmt)
            )
            if has_yield:
                self._flag(
                    node,
                    "dict-order-yield",
                    f"loop over .{iterator.func.attr}() yields messages: "
                    f"send order depends on dict insertion order; iterate "
                    f"sorted(...) instead",
                )
        self.generic_visit(node)

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one Python source text; findings carry ``path``."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, source.splitlines())
    linter.visit(tree)
    linter.findings.sort(key=lambda f: (f.line, f.rule))
    return linter.findings


def lint_file(path: Path) -> List[LintFinding]:
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Iterable[Path]) -> List[LintFinding]:
    """Lint every ``.py`` file under each path (files lint directly)."""
    findings: List[LintFinding] = []
    for root in paths:
        root = Path(root)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for file in files:
            findings.extend(lint_file(file))
    return findings
