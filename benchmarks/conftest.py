"""Shared fixtures for the two pytest-benchmark files left here.

``bench_membership_build.py`` and ``bench_transport_batching.py`` each
time an implementation against its reference and gate on the wall-clock
ratio; both print their table and persist it under ``benchmarks/out/``.
Every other number is the ledger's (``benchmarks/ledger/``).
"""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    """Directory where rendered tables are persisted."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def emit(report_dir, capsys):
    """Print a rendered table (visible with -s) and write it to disk."""

    def _emit(table, name: str) -> None:
        rendered = table.render()
        with capsys.disabled():
            print()
            print(rendered)
        (report_dir / f"{name}.txt").write_text(rendered + "\n")

    return _emit
