"""Smoke tests: every example must run end-to-end and print its story.

Examples are user-facing documentation; breaking one silently is as bad
as breaking the API. Each test imports the example module and runs its
``main()`` with stdout captured.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "parasite deliveries: 0" in out
        assert ".dsn04.reviewers" in out

    def test_news_hierarchy(self, capsys):
        out = run_example("news_hierarchy", capsys)
        assert "parasite deliveries : 0" in out
        assert "newsgroup" in out

    def test_stock_ticker(self, capsys):
        out = run_example("stock_ticker", capsys)
        assert "cheap profile everywhere" in out
        assert "hot topic tuned" in out

    def test_failure_injection(self, capsys):
        out = run_example("failure_injection", capsys)
        assert "crashed" in out
        assert "LIVE supertopic link" in out

    def test_multi_inheritance(self, capsys):
        out = run_example("multi_inheritance", capsys)
        assert "diamond deduplicated" in out
        assert "no parasite deliveries" in out
