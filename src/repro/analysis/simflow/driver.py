"""The simflow driver: graph → taint → protocols → suppressions.

``run_simflow(paths)`` is the single entry point used by the CLI, the
CI job, and the tests.  ``changed=`` enables the pre-commit mode: the
analysis set shrinks to the import-closure of the changed files plus
their transitive importers, and only findings *in* the changed files
and their importers are reported.  That closure is exactly the set of
modules whose summaries can influence a finding in a touched file, so
pruned and full runs agree on touched files (proven by a test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..rules import Finding
from ..simlint import _scan_suppressions
from .graph import ProjectGraph
from .protocols import ProtocolAnalysis
from .taint import TaintAnalysis

__all__ = ["FlowReport", "run_simflow"]


@dataclass
class FlowReport:
    """Everything one simflow run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    analyzed_files: List[str] = field(default_factory=list)
    reported_files: List[str] = field(default_factory=list)
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)


def _resolve(path: Union[str, Path]) -> str:
    return str(Path(path).resolve())


def _closure(
    graph: ProjectGraph, changed_paths: Sequence[str],
) -> Tuple[Set[str], Set[str]]:
    """(analysis module set, report module set) for changed files."""
    by_resolved = {_resolve(m.path): m.name for m in graph.modules.values()}
    changed = {
        by_resolved[_resolve(p)]
        for p in changed_paths
        if _resolve(p) in by_resolved
    }
    # Transitive importers: modules whose findings the change can affect.
    report = set(changed)
    frontier = set(changed)
    while frontier:
        nxt: Set[str] = set()
        for name in frontier:
            for importer in graph.importers_of(name):
                if importer not in report:
                    report.add(importer)
                    nxt.add(importer)
        frontier = nxt
    # Forward import closure: modules whose summaries feed the report set.
    analysis = set(report)
    frontier = set(report)
    while frontier:
        nxt = set()
        for name in frontier:
            mod = graph.modules.get(name)
            if mod is None:
                continue
            for imp in mod.imports:
                if imp not in analysis:
                    analysis.add(imp)
                    nxt.add(imp)
        frontier = nxt
    return analysis, report


def run_simflow(
    paths: Sequence[Union[str, Path]],
    changed: Optional[Sequence[str]] = None,
) -> FlowReport:
    graph = ProjectGraph.build(paths)
    report_paths: Optional[Set[str]] = None

    if changed is not None:
        analysis_mods, report_mods = _closure(graph, list(changed))
        pruned = [graph.modules[m].path for m in sorted(analysis_mods)]
        report_paths = {graph.modules[m].path for m in report_mods}
        graph = ProjectGraph.build(pruned)

    findings: List[Finding] = []
    findings.extend(TaintAnalysis(graph).run())
    findings.extend(ProtocolAnalysis(graph).run())

    # Per-line suppressions — same comment syntax as simlint
    # (`# simlint: disable=SF300 -- reason`); malformed suppressions are
    # simlint's SL100 business, not re-reported here.  Only a file with
    # a finding is scanned.
    suppressed_total = 0
    kept: List[Finding] = []
    suppression_maps: Dict[str, Dict[int, Set[str]]] = {}
    for f in findings:
        smap = suppression_maps.get(f.path)
        if smap is None:
            mod = graph.by_path[f.path]
            smap, _bad = _scan_suppressions(mod.source, mod.path)
            suppression_maps[f.path] = smap
        if f.rule_id in smap.get(f.line, set()):
            suppressed_total += 1
            continue
        kept.append(f)

    if report_paths is not None:
        reported = [f for f in kept if f.path in report_paths]
    else:
        reported = kept
    reported.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))

    return FlowReport(
        findings=reported,
        suppressed=suppressed_total,
        analyzed_files=sorted(graph.by_path),
        reported_files=sorted(report_paths) if report_paths is not None
        else sorted(graph.by_path),
        parse_errors=list(graph.parse_errors),
    )
