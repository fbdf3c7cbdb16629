"""Every module under ``src/repro`` is reached from a command or a ledger
workload — or it is listed below with the reason it is not yet.

The import graph is read with ``ast`` (nothing is imported), from three
kinds of root: ``repro.cli``, ``repro.__main__`` and every ``repro.*``
module a file under ``benchmarks/ledger/`` imports. Imports inside
functions count. A package's ``__init__`` re-exporting a name does not
make the exporting module reachable: ``from pkg import Name`` follows only
the ``__init__`` statement that binds ``Name``, while a bare ``import pkg``
follows the whole ``__init__`` (that is how ``repro.lint.rules`` registers
its rules).

A module counts as reached here however little of it runs. The
function-level gate, ``tests/function_reach.py`` (its own CI job), holds
every def: each one is entered by an entry point, or listed there with an
allowed reason.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
LEDGER = REPO / "benchmarks" / "ledger"

#: module → why no command or workload reaches it yet. The test fails if
#: an entry *is* reached, so this is ROADMAP item 7's to-do list and cannot
#: go stale.
EXCEPTIONS = {
    "repro.core.multiparent": (
        "§VIII multi-parent topics: reachable from a spec once "
        "topics.kind grows 'dag' (ROADMAP 7(b))"
    ),
}


def _source(module: str) -> pathlib.Path | None:
    """The file of ``module`` under ``src/``, if it is one of ours."""
    base = SRC.joinpath(*module.split("."))
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _is_package(module: str) -> bool:
    return SRC.joinpath(*module.split("."), "__init__.py").is_file()


def _all_modules() -> set[str]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


class _Graph:
    def __init__(self) -> None:
        self.reached: set[str] = set()
        self._names_followed: set[tuple[str, str]] = set()
        self._trees: dict[pathlib.Path, ast.Module] = {}

    def _tree(self, path: pathlib.Path) -> ast.Module:
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        return self._trees[path]

    def follow_file(self, path: pathlib.Path) -> None:
        """Follow every import statement in ``path``, at any depth."""
        for node in ast.walk(self._tree(path)):
            self._follow_statement(node)

    def _follow_statement(self, node: ast.AST, only: str | None = None) -> None:
        """Follow one import statement — with ``only``, just the part of
        it that binds that name."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if only in (None, alias.asname or alias.name.split(".")[0]):
                    self.follow_module(alias.name)
        elif isinstance(node, ast.ImportFrom):
            # the tree imports absolutely; a relative import would be
            # resolved against nothing here and silently followed nowhere
            assert node.level == 0, "teach the walk relative imports first"
            for alias in node.names:
                if only in (None, alias.asname or alias.name):
                    self._follow_name(node.module, alias.name)

    def follow_module(self, module: str) -> None:
        """``import module``: the module — for a package, its whole
        ``__init__`` — and everything it imports."""
        path = _source(module)
        if path is None or module in self.reached:
            return
        self.reached.add(module)
        self.follow_file(path)

    def _follow_name(self, base: str, name: str) -> None:
        """``from base import name``."""
        if _source(base) is None:
            return
        if not _is_package(base):
            self.follow_module(base)
        elif _source(f"{base}.{name}") is not None:
            self.follow_module(f"{base}.{name}")
        elif (base, name) not in self._names_followed:
            # a name the package re-exports: only the statement binding it
            self._names_followed.add((base, name))
            for node in self._tree(_source(base)).body:
                self._follow_statement(node, only=name)


@pytest.fixture(scope="module")
def walk() -> tuple[set[str], set[str]]:
    """(modules nothing reaches, modules something reaches)."""
    graph = _Graph()
    graph.follow_module("repro.cli")
    graph.follow_module("repro.__main__")
    for path in sorted(LEDGER.glob("*.py")):
        graph.follow_file(path)
    modules = _all_modules()
    return modules - graph.reached, modules & graph.reached


def test_every_module_is_reached_or_excepted(walk):
    unreached, reached = walk
    orphans = sorted(unreached - set(EXCEPTIONS))
    assert not orphans, (
        f"no CLI command and no ledger workload imports {', '.join(orphans)}: "
        "wire each to a command or a spec section, or delete it"
    )
    stale = sorted(set(EXCEPTIONS) & reached)
    assert not stale, f"now reached, drop from EXCEPTIONS: {', '.join(stale)}"
    gone = sorted(set(EXCEPTIONS) - unreached)
    assert not gone, f"excepted but not in src/: {', '.join(gone)}"


def test_the_walk_sees_function_level_and_whole_package_imports(walk):
    # the walk's own contract, on modules whose only importers are of
    # these kinds: repro.service is imported inside _run_serve_command,
    # the lint rules only by `import repro.lint.rules` inside a function
    _, reached = walk
    assert "repro.service.runtime" in reached
    assert "repro.lint.rules.det004_stream_labels" in reached
    assert "repro.__main__" in reached


def test_the_spec_module_loads_only_the_execution_port_of_experiments():
    # repro.workloads.spec sweeps through the port (executor, artifacts,
    # runner); an experiment loaded with it would import repro.workloads
    # back, the cycle that kept two imports inside functions
    code = (
        "import sys, repro.workloads.spec; "
        "print(*sorted(m for m in sys.modules if m.startswith('repro.experiments')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    port = {
        "repro.experiments",
        "repro.experiments.executor",
        "repro.experiments.artifacts",
        "repro.experiments.runner",
    }
    assert "repro.experiments.runner" in loaded
    assert set(loaded) <= port, sorted(set(loaded) - port)
