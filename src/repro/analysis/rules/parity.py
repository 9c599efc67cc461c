"""Parity coverage: the production engine keeps a live oracle comparison.

Every optimised path earned its keep by reproducing a slow reference
byte-for-byte. ``ReferenceEngine`` (``src/repro/testing/reference.py``)
assembles those references by overriding one set of ``GDREngine`` seams
per component. The contract holds only while the oracle overrides every
seam (an inherited component is compared against itself), the engine
still has every seam (else the override is dead code) and the
registered comparison tests still run both engines. The spec below is
the contract.
"""

from __future__ import annotations

import ast

from typing import TYPE_CHECKING

from repro.analysis.core import Finding, Rule, register

if TYPE_CHECKING:
    from repro.analysis.project import Project

GDR_MODULE = "src/repro/core/gdr.py"
ORACLE_MODULE = "src/repro/testing/reference.py"

#: component -> the GDREngine seams the oracle must override for it.
ORACLE_SEAMS: dict[str, tuple[str, ...]] = {
    "selection": ("_next_group", "_drain_pool"),
    "suggestions": ("_generator_class",),
    "committees": ("_learner_class",),
    "decisions": ("_session_class", "_drain_pass"),
}

#: class-valued seam -> the method the oracle's class must override.
CLASS_SEAM_METHODS: dict[str, str] = {
    "_generator_class": "generate_for_cells",
    "_learner_class": "_fit_committee",
    "_session_class": "_decide",
}

#: ``(test file, test function)`` comparisons of production vs oracle.
ORACLE_COMPARISONS: tuple[tuple[str, str], ...] = (
    ("tests/core/test_gdr_delta.py", "test_delta_matches_rebuild"),
    ("tests/core/test_gdr_delta.py", "test_adult_dataset_parity"),
    ("tests/core/test_gdr_delta.py", "test_baseline_rankings_match"),
    ("tests/core/test_gdr_learner.py", "test_hist_matches_exact"),
    ("tests/core/test_drain_batched.py", "test_batched_matches_sequential_hospital"),
    ("tests/core/test_drain_batched.py", "test_property_randomized_multi_suggestion_pools"),
)


def class_members(tree: ast.Module, name: str) -> dict[str, ast.stmt] | None:
    """Names a top-level class body defines -> their statements (None if absent)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            members: dict[str, ast.stmt] = {}
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members[stmt.name] = stmt
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    members[stmt.target.id] = stmt
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            members[target.id] = stmt
            return members
    return None


def reachable_names(tree: ast.Module, function: str) -> set[str] | None:
    """Names *function* uses, following calls into module functions."""
    functions: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, node)
    if function not in functions:
        return None
    names: set[str] = set()
    pending = [function]
    while pending:
        for node in ast.walk(functions[pending.pop()]):
            if isinstance(node, ast.Name) and node.id not in names:
                names.add(node.id)
                if node.id in functions:
                    pending.append(node.id)
    return names


@register
class ParityCoverageRule(Rule):
    id: str = "parity-coverage"
    title: str = "the production engine keeps a registered comparison against its oracle"
    rationale: str = (
        "each optimised component is only trusted because a test runs it against "
        "the reference the oracle plugs in; losing the comparison, or an oracle "
        "override, lets the byte-identity contract rot unenforced"
    )
    scope: str = "project"

    def check_project(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        gdr = project.file(GDR_MODULE)
        engine = class_members(gdr.tree, "GDREngine") if gdr and gdr.tree else None
        if engine is None:
            findings.append(self.finding(GDR_MODULE, 0, "GDREngine module missing or unparseable"))
        oracle_file = project.file(ORACLE_MODULE)
        tree = oracle_file.tree if oracle_file is not None else None
        oracle = class_members(tree, "ReferenceEngine") if tree is not None else None
        if tree is None or oracle is None:
            findings.append(
                self.finding(ORACLE_MODULE, 0, "ReferenceEngine missing or unparseable")
            )
        for component, seams in ORACLE_SEAMS.items():
            for seam in seams:
                if engine is not None and seam not in engine:
                    findings.append(self.finding(
                        GDR_MODULE, 0,
                        f"GDREngine has no {component} seam {seam!r}, so the oracle's "
                        "override is dead code", symbol=seam,
                    ))
                if tree is None or oracle is None:
                    continue
                if seam not in oracle:
                    findings.append(self.finding(
                        ORACLE_MODULE, 0,
                        f"ReferenceEngine no longer overrides {seam!r}: its {component} "
                        "component runs production code, checked against itself",
                        symbol=seam,
                    ))
                    continue
                method = CLASS_SEAM_METHODS.get(seam)
                stmt = oracle[seam]
                value = getattr(stmt, "value", None)
                plugged = class_members(tree, value.id) if isinstance(value, ast.Name) else None
                if method is not None and (plugged is None or method not in plugged):
                    findings.append(self.finding(
                        ORACLE_MODULE, stmt.lineno,
                        f"ReferenceEngine.{seam} must name a class in this module that "
                        f"overrides {method!r} (the {component} reference)", symbol=seam,
                    ))
        for rel, function in ORACLE_COMPARISONS:
            source = project.file(rel)
            names = (
                reachable_names(source.tree, function)
                if source is not None and source.tree is not None
                else None
            )
            if names is None:
                findings.append(self.finding(
                    rel, 0,
                    f"registered oracle comparison {function} is gone — production is "
                    "no longer checked against ReferenceEngine there", symbol=function,
                ))
            elif not {"GDREngine", "ReferenceEngine"} <= names:
                findings.append(self.finding(
                    rel, 0,
                    f"registered oracle comparison {function} does not run both "
                    "GDREngine and ReferenceEngine", symbol=function,
                ))
        return findings
