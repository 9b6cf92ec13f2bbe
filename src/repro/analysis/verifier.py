"""The protocol verifier: one report over every registered protocol.

Pulls the analysis passes together against the scenario registry:

* per protocol × n, a :class:`~repro.analysis.budget.BudgetCheck` of
  the prepared instance's declared network ``bandwidth`` against the
  spec's ``bandwidth_budget``.  Every engine rejects a message wider
  than that bandwidth, so the declared width bounds every message a run
  can send, and the check needs ``prepare`` alone — no program runs;
* one registry-consistency pass (:func:`check_registry`): every engine a
  spec claims must have a program flavour to run, of the kind that
  engine runs, and every engine it *doesn't* claim is explained
  (these unclaimed pairs are exactly the scenario matrix's
  ``unsupported`` cells);
* optionally, the determinism lint over ``src/repro``.

:func:`analyze_all` is what ``python -m repro.analysis`` calls; its
:class:`AnalysisReport` serializes to the JSON artifact CI uploads.
Every scenario-matrix coordinate makes the same budget check right
after ``prepare`` (:meth:`~repro.scenarios.matrix.ScenarioMatrix.run_coordinate`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.budget import BudgetCheck, check_prepared
from repro.analysis.lint import LintFinding, lint_paths
from repro.core.errors import ProtocolError

__all__ = [
    "ProtocolAnalysis",
    "RegistryFinding",
    "AnalysisReport",
    "analyze_protocol",
    "check_registry",
    "analyze_all",
    "DEFAULT_SIZES",
]

#: Sizes the CLI analyzes by default: small enough that preparing
#: every protocol stays in CI-smoke territory, large enough that
#: log-term budgets actually bind.
DEFAULT_SIZES = (6, 8)


@dataclass
class ProtocolAnalysis:
    """Verdicts for one (protocol, n) coordinate."""

    protocol: str
    n: int
    family: str
    budget: Optional[BudgetCheck] = None
    violations: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "family": self.family,
            "budget": self.budget.to_dict() if self.budget else None,
            "violations": list(self.violations),
            "error": self.error,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class RegistryFinding:
    """One registry-consistency fact: a violation or an explained gap."""

    protocol: str
    engine: str
    kind: str  # "violation" | "unsupported"
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "engine": self.engine,
            "kind": self.kind,
            "detail": self.detail,
        }


def analyze_protocol(
    spec: Any,
    n: int,
    *,
    family: str = "gnp",
    seed: int = 0,
) -> ProtocolAnalysis:
    """Check one registered protocol's bandwidth budget at size ``n``.

    The instance is drawn the same way a matrix cell would draw it
    (family rng keyed on a stable coordinate) and prepared; its declared
    network ``bandwidth`` is then checked against the spec's budget.
    No program runs.
    """
    from repro.scenarios.families import get_family

    analysis = ProtocolAnalysis(protocol=spec.name, n=n, family=family)
    try:
        rng = random.Random(f"analysis:{seed}:{spec.name}:{family}:{n}")
        graph = get_family(family).build(n, rng)
        prepared = spec.prepare(n, graph, rng)
    except Exception as exc:  # noqa: BLE001 - isolate per coordinate
        analysis.error = f"prepare failed: {type(exc).__name__}: {exc}"
        return analysis
    analysis.budget = check_prepared(spec.bandwidth_budget, n, prepared)
    if not analysis.budget.ok:
        analysis.violations.append(f"budget: {analysis.budget.detail}")
    return analysis


def check_registry(*, n: int = 6, family: str = "gnp") -> List[RegistryFinding]:
    """Cross-check every spec's engine claims against what it prepares.

    Violations: a claimed engine with no program flavour to run, or a
    claimed engine whose program is the wrong kind — a program is a
    kernel program if and only if its engine is ``kernel``.
    ``unsupported`` findings are not violations — they are the explained
    gaps behind the scenario matrix's unsupported cells (e.g. a protocol
    with no kernel twin cannot claim the kernel engine).
    """
    from repro.core.engine import ENGINES
    from repro.scenarios.families import get_family
    from repro.scenarios.registry import PROTOCOLS

    findings: List[RegistryFinding] = []
    for name, spec in sorted(PROTOCOLS.items()):
        try:
            rng = random.Random(f"registry-check:{name}:{family}:{n}")
            prepared = spec.prepare(n, get_family(family).build(n, rng), rng)
        except Exception as exc:  # noqa: BLE001 - isolate per spec
            findings.append(
                RegistryFinding(
                    protocol=name,
                    engine="*",
                    kind="violation",
                    detail=f"prepare failed: {type(exc).__name__}: {exc}",
                )
            )
            continue
        for engine_name in sorted(ENGINES):
            if engine_name in spec.engines:
                try:
                    spec.program(prepared, engine_name)
                except ProtocolError as exc:
                    findings.append(
                        RegistryFinding(
                            protocol=name, engine=engine_name,
                            kind="violation", detail=str(exc),
                        )
                    )
            else:
                flavour = spec.program_for(engine_name)
                if prepared.programs.get(flavour) is not None:
                    detail = (
                        f"engine {engine_name!r} unclaimed although a "
                        f"{flavour!r} program exists — claim it or drop the "
                        f"flavour"
                    )
                    kind = "violation"
                else:
                    detail = (
                        f"no {flavour!r} program flavour: the matrix marks "
                        f"({name}, {engine_name}) cells unsupported"
                    )
                    kind = "unsupported"
                findings.append(
                    RegistryFinding(
                        protocol=name, engine=engine_name, kind=kind,
                        detail=detail,
                    )
                )
    return findings


@dataclass
class AnalysisReport:
    """Everything one ``python -m repro.analysis`` invocation decided."""

    analyses: List[ProtocolAnalysis] = field(default_factory=list)
    registry: List[RegistryFinding] = field(default_factory=list)
    lint: List[LintFinding] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def violations(self) -> List[str]:
        """Flat, human-readable list of every hard violation."""
        out: List[str] = []
        for analysis in self.analyses:
            coordinate = f"{analysis.protocol} @ n={analysis.n}"
            if analysis.error is not None:
                out.append(f"{coordinate}: {analysis.error}")
            out.extend(
                f"{coordinate}: {violation}"
                for violation in analysis.violations
            )
        out.extend(
            f"registry {finding.protocol}/{finding.engine}: {finding.detail}"
            for finding in self.registry
            if finding.kind == "violation"
        )
        out.extend(str(finding) for finding in self.lint)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "meta": self.meta,
            "ok": self.ok,
            "violations": self.violations(),
            "protocols": [analysis.to_dict() for analysis in self.analyses],
            "registry": [finding.to_dict() for finding in self.registry],
            "lint": [finding.to_dict() for finding in self.lint],
        }


def analyze_all(
    *,
    protocols: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    family: str = "gnp",
    seed: int = 0,
    lint_roots: Optional[Sequence[Any]] = None,
) -> AnalysisReport:
    """Run every pass over the registered protocols.

    ``lint_roots=None`` skips the lint pass (the CLI passes the
    ``src/repro`` tree; library callers usually only want the
    per-protocol verdicts).
    """
    from repro.scenarios.registry import PROTOCOLS, get_protocol

    names = sorted(PROTOCOLS) if protocols is None else list(protocols)
    report = AnalysisReport(
        meta={
            "protocols": names,
            "sizes": list(sizes),
            "family": family,
            "seed": seed,
        }
    )
    for name in names:
        spec = get_protocol(name)
        for n in sizes:
            report.analyses.append(
                analyze_protocol(spec, n, family=family, seed=seed)
            )
    report.registry = check_registry(n=min(sizes) if sizes else 6, family=family)
    if lint_roots is not None:
        report.lint = lint_paths(lint_roots)
    return report
