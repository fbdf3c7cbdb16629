"""Rule engine of the determinism lint.

A rule is an :class:`ast` pass over one file: it receives a parsed
:class:`FileContext` and yields :class:`~repro.lint.findings.Finding`
diagnostics with precise line/column locations. The engine owns file
discovery, pragma suppression (see :mod:`repro.lint.pragmas`) and report
assembly; rules own only detection logic and register themselves with
:func:`register`.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable, Iterator, Sequence, Type

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.findings import Finding, LintReport, Suppression
from repro.lint.pragmas import scan_pragmas


class FileContext:
    """Everything a rule may inspect about one source file."""

    def __init__(
        self, path: str, source: str, tree: ast.Module, config: LintConfig
    ):
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        self._parents: dict[ast.AST, ast.AST] | None = None

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (lazily built once per file)."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents.get(node)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement check()."""

    id: str = ""
    title: str = ""


_RULES: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    _RULES[cls.id] = cls
    return cls


def all_rules() -> dict[str, Type[Rule]]:
    """Every registered rule, importing the bundled rule modules once."""
    import repro.lint.rules  # noqa: F401  (registers via decorators)

    return dict(sorted(_RULES.items()))


def _display_path(path: pathlib.Path) -> str:
    """Project-relative POSIX path when possible (stable across CWDs)."""
    resolved = path if path.is_absolute() else pathlib.Path.cwd() / path
    try:
        return resolved.relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def lint_source(
    source: str,
    path: str = "<string>",
    config: LintConfig = DEFAULT_CONFIG,
) -> LintReport:
    """Lint one in-memory source text (the fixture-test entry point)."""
    report = LintReport()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.findings.append(
            Finding(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule="LINT000",
                message=f"syntax error: {exc.msg}",
            )
        )
        return report
    scan = scan_pragmas(source, path)
    raw: list[Finding] = []
    ctx = FileContext(path, source, tree, config)
    for rule_id, rule_cls in sorted(all_rules().items()):
        if not config.rule_enabled(rule_id):
            continue
        if config.rule_exempt(rule_id, path):
            continue
        raw.extend(rule_cls().check(ctx))
    for finding in raw:
        pragma = scan.suppression_for(finding.rule, finding.line)
        if pragma is None:
            report.findings.append(finding)
        else:
            report.suppressed.append(
                Suppression(
                    finding=finding,
                    pragma_line=pragma.line,
                    rationale=pragma.rationale,
                )
            )
    report.findings.extend(scan.problems)
    report.findings.extend(scan.unused_pragma_findings(path))
    report.sort()
    return report


def iter_python_files(paths: Sequence[str | pathlib.Path]) -> Iterator[pathlib.Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            candidates: Iterable[pathlib.Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def run_lint(
    paths: Sequence[str | pathlib.Path],
    config: LintConfig = DEFAULT_CONFIG,
) -> LintReport:
    """Lint every ``*.py`` file under ``paths`` and merge the reports."""
    report = LintReport()
    for path in iter_python_files(paths):
        display = _display_path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.findings.append(
                Finding(
                    path=display,
                    line=0,
                    col=0,
                    rule="LINT000",
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        report.extend(lint_source(source, display, config))
    report.sort()
    return report
