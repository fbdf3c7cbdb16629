"""Tests for the determinism lint (``repro.lint``).

Each DET rule gets a fixture pair: a known-bad snippet the rule must
flag and a corrected snippet it must stay quiet on. On top of that,
the pragma machinery is exercised (suppression, mandatory rationale,
unused-pragma findings), and two repo-wide gates run: the src/ tree
must be lint-clean, and deleting any single inline pragma from src/
must make the lint fail again (checked on in-memory copies).
"""

import ast
import pathlib

import pytest

from repro.cli import main
from repro.lint import lint_source, run_lint
from repro.lint.pragmas import PRAGMA_MARKER, scan_pragmas
from repro.lint.rules.det004_stream_labels import _harvest, _normalize_fstring
from repro.sim.rng import (
    STREAM_REGISTRY,
    normalize_stream_label,
    stream_pattern_regex,
    validate_stream_registry,
)

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src"

#: a path that hits no exemption pattern in the default config
LIB_PATH = "src/repro/somewhere/module.py"


def rules_of(report):
    return sorted({finding.rule for finding in report.findings})


def lint(source, path=LIB_PATH):
    return lint_source(source, path)


# ----------------------------------------------------------------------
# DET001 — global random module
# ----------------------------------------------------------------------


class TestDet001:
    def test_fires_on_module_level_draw(self):
        report = lint("import random\nx = random.random()\n")
        assert "DET001" in rules_of(report)

    def test_fires_on_from_import(self):
        report = lint("from random import randint\nx = randint(1, 6)\n")
        assert "DET001" in rules_of(report)

    def test_fires_on_global_seed(self):
        report = lint("import random\nrandom.seed(0)\n")
        assert "DET001" in rules_of(report)

    def test_quiet_on_instance_draws(self):
        source = (
            "import random\n"
            "def draw(rng: random.Random) -> float:\n"
            "    return rng.random()\n"
        )
        assert "DET001" not in rules_of(lint(source))

    def test_quiet_on_random_random_construction(self):
        source = (
            "import random\n"
            "def make(seed: int):\n"
            "    return random.Random(seed)\n"
        )
        assert "DET001" not in rules_of(lint(source))


# ----------------------------------------------------------------------
# DET002 — wall-clock / entropy sources
# ----------------------------------------------------------------------


class TestDet002:
    def test_fires_on_time_time(self):
        report = lint("import time\nt = time.time()\n")
        assert "DET002" in rules_of(report)

    def test_fires_on_datetime_now(self):
        report = lint(
            "import datetime\nstamp = datetime.datetime.now()\n"
        )
        assert "DET002" in rules_of(report)

    def test_fires_on_os_urandom_and_secrets(self):
        assert "DET002" in rules_of(
            lint("import os\nblob = os.urandom(8)\n")
        )
        assert "DET002" in rules_of(lint("import secrets\n"))

    def test_fires_on_uuid4(self):
        report = lint("import uuid\nident = uuid.uuid4()\n")
        assert "DET002" in rules_of(report)

    def test_quiet_in_cli_paths(self):
        source = "import time\nt = time.time()\n"
        report = lint_source(source, "src/repro/cli.py")
        assert "DET002" not in rules_of(report)

    def test_quiet_in_benchmarks(self):
        source = "import time\nt = time.time()\n"
        report = lint_source(source, "benchmarks/bench_engine.py")
        assert "DET002" not in rules_of(report)


# ----------------------------------------------------------------------
# DET003 — PYTHONHASHSEED hazards
# ----------------------------------------------------------------------


class TestDet003:
    def test_fires_on_set_iteration_that_appends(self):
        source = (
            "def collect(rows):\n"
            "    names = {row.name for row in rows}\n"
            "    out = []\n"
            "    for name in names:\n"
            "        out.append(name)\n"
            "    return out\n"
        )
        assert "DET003" in rules_of(lint(source))

    def test_quiet_when_sorted(self):
        source = (
            "def collect(rows):\n"
            "    names = {row.name for row in rows}\n"
            "    out = []\n"
            "    for name in sorted(names):\n"
            "        out.append(name)\n"
            "    return out\n"
        )
        assert "DET003" not in rules_of(lint(source))

    def test_fires_on_dict_view_loop_with_rng_draw(self):
        source = (
            "def pick(tables, rng):\n"
            "    chosen = []\n"
            "    for name, table in tables.items():\n"
            "        if rng.random() < 0.5:\n"
            "            chosen.append(name)\n"
            "    return chosen\n"
        )
        assert "DET003" in rules_of(lint(source))

    def test_quiet_on_dict_view_loop_without_order_sensitivity(self):
        source = (
            "def total(counts):\n"
            "    best = 0\n"
            "    for value in counts.values():\n"
            "        best = max(best, value)\n"
            "    return best\n"
        )
        assert "DET003" not in rules_of(lint(source))

    def test_fires_on_hash_builtin(self):
        source = "def key(name: str) -> int:\n    return hash(name)\n"
        assert "DET003" in rules_of(lint(source))

    def test_quiet_on_set_membership_and_len(self):
        source = (
            "def seen(rows):\n"
            "    names = {row.name for row in rows}\n"
            "    return len(names)\n"
        )
        assert "DET003" not in rules_of(lint(source))


# ----------------------------------------------------------------------
# DET004 — stream-label registry
# ----------------------------------------------------------------------


class TestDet004:
    def test_fires_on_undeclared_literal(self):
        source = (
            "from repro.sim.rng import derive_seed\n"
            "seed = derive_seed(1, 'no-such-stream-label')\n"
        )
        assert "DET004" in rules_of(lint(source))

    def test_quiet_on_declared_literal(self):
        source = (
            "from repro.sim.rng import derive_seed\n"
            "seed = derive_seed(1, 'static-membership')\n"
        )
        assert "DET004" not in rules_of(lint(source))

    def test_quiet_on_declared_pattern_label(self):
        source = (
            "def seed_for(rngs, pid):\n"
            "    return rngs.stream(f'process/{pid}')\n"
        )
        assert "DET004" not in rules_of(lint(source))

    def test_fires_on_fstring_without_variable(self):
        source = (
            "from repro.sim.rng import derive_seed\n"
            "seed = derive_seed(1, f'static-membership')\n"
        )
        assert "DET004" in rules_of(lint(source))

    def test_fires_on_dynamic_label_that_matches_no_pattern(self):
        source = (
            "from repro.sim.rng import derive_seed\n"
            "def child(seed, a, b, c, d):\n"
            "    return derive_seed(seed, f'{a}/{b}/{c}/{d}')\n"
        )
        assert "DET004" in rules_of(lint(source))

    def test_fires_on_non_static_label(self):
        source = (
            "from repro.sim.rng import derive_seed\n"
            "def child(seed, name):\n"
            "    return derive_seed(seed, name)\n"
        )
        assert "DET004" in rules_of(lint(source))


# ----------------------------------------------------------------------
# DET005 — finite-checks on float parameters
# ----------------------------------------------------------------------


class TestDet005:
    def test_fires_on_raw_stored_float_param(self):
        source = (
            "class Model:\n"
            "    def __init__(self, rate: float):\n"
            "        self.rate = rate\n"
        )
        assert "DET005" in rules_of(lint(source))

    def test_quiet_when_validated(self):
        source = (
            "from repro.validation import check_finite\n"
            "class Model:\n"
            "    def __init__(self, rate: float):\n"
            "        check_finite(rate, 'rate')\n"
            "        self.rate = rate\n"
        )
        assert "DET005" not in rules_of(lint(source))

    def test_chained_comparison_counts_as_validation(self):
        source = (
            "class Model:\n"
            "    def __init__(self, p: float):\n"
            "        if not 0.0 <= p <= 1.0:\n"
            "            raise ValueError(p)\n"
            "        self.p = p\n"
        )
        assert "DET005" not in rules_of(lint(source))

    def test_single_comparison_does_not_count(self):
        # `nan < 0` is False — a lone ordered comparison accepts NaN.
        source = (
            "class Model:\n"
            "    def __init__(self, rate: float):\n"
            "        if rate < 0:\n"
            "            raise ValueError(rate)\n"
            "        self.rate = rate\n"
        )
        assert "DET005" in rules_of(lint(source))

    def test_delegation_counts(self):
        source = (
            "class Model:\n"
            "    def __init__(self, rate: float, clock):\n"
            "        self.task = clock.schedule(rate)\n"
        )
        assert "DET005" not in rules_of(lint(source))

    def test_module_functions_only_in_configured_paths(self):
        source = "def run(rate: float):\n    return {'rate': rate * 2}\n"
        assert "DET005" in rules_of(
            lint_source(source, "src/repro/workloads/extra.py")
        )
        assert "DET005" not in rules_of(
            lint_source(source, "src/repro/analysis/extra.py")
        )


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------

BAD_HASH = "def key(name: str) -> int:\n    return hash(name)\n"


class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        source = (
            "def key(name: str) -> int:\n"
            "    return hash(name)  "
            "# repro-lint: allow[DET003]: interned lookup key only\n"
        )
        report = lint(source)
        assert report.ok
        assert [s.finding.rule for s in report.suppressed] == ["DET003"]
        assert report.suppressed[0].rationale == "interned lookup key only"

    def test_standalone_pragma_covers_next_line(self):
        source = (
            "def key(name: str) -> int:\n"
            "    # repro-lint: allow[DET003]: interned lookup key only\n"
            "    return hash(name)\n"
        )
        assert lint(source).ok

    def test_rationale_is_mandatory(self):
        source = (
            "def key(name: str) -> int:\n"
            "    return hash(name)  # repro-lint: allow[DET003]\n"
        )
        report = lint(source)
        rules = rules_of(report)
        assert "LINT001" in rules  # malformed / missing rationale
        assert "DET003" in rules  # and the finding is NOT suppressed

    def test_unused_pragma_is_a_finding(self):
        source = (
            "x = 1  # repro-lint: allow[DET001]: nothing to suppress here\n"
        )
        report = lint(source)
        assert rules_of(report) == ["LINT002"]

    def test_pragma_must_name_the_right_rule(self):
        source = (
            "def key(name: str) -> int:\n"
            "    return hash(name)  "
            "# repro-lint: allow[DET001]: wrong rule named\n"
        )
        report = lint(source)
        rules = rules_of(report)
        assert "DET003" in rules  # not suppressed by a DET001 pragma
        assert "LINT002" in rules  # and the DET001 pragma is unused

    def test_pragma_inside_string_literal_is_ignored(self):
        source = 'text = "# repro-lint: allow[DET001]: not a comment"\n'
        assert lint(source).ok


# ----------------------------------------------------------------------
# Repo-wide gates
# ----------------------------------------------------------------------


class TestSrcTreeGates:
    def test_src_tree_is_lint_clean(self):
        report = run_lint([SRC_ROOT])
        assert report.ok, "\n".join(f.render() for f in report.findings)

    def test_every_suppression_has_a_rationale(self):
        report = run_lint([SRC_ROOT])
        assert report.suppressed  # the triage left intentional pragmas
        for suppression in report.suppressed:
            assert suppression.rationale, suppression.finding.render()

    def test_deleting_any_pragma_fails_the_lint(self):
        """Every inline pragma in src/ suppresses a live finding: strip
        any one of them (in memory) and the lint must fail again."""
        checked = 0
        for path in sorted(SRC_ROOT.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            if PRAGMA_MARKER not in source:
                continue
            lines = source.splitlines(keepends=True)
            # the linter's own tokenize scan: comments only, so pragma
            # examples quoted inside docstrings are not touched
            for pragma in scan_pragmas(source, str(path)).pragmas:
                index = pragma.line - 1
                line = lines[index]
                mutated = lines.copy()
                if line.lstrip().startswith("#"):
                    del mutated[index]  # standalone pragma comment line
                else:
                    mutated[index] = line[: line.index("#")].rstrip() + "\n"
                report = lint_source("".join(mutated), str(path))
                assert not report.ok, (
                    f"{path}:{pragma.line}: pragma removed but lint stayed "
                    "clean — stale pragma?"
                )
                checked += 1
        assert checked >= 10  # the triage pass left real pragmas behind

    #: declared entries no harvestable call site names, each with the
    #: reason DET004's harvest cannot see its use
    UNHARVESTABLE: set[str] = set()

    def test_every_declared_stream_is_drawn_from(self):
        """Declared ⇒ used: a label whose last caller went away may not
        linger in the registry (DET004 itself checks used ⇒ declared)."""
        literals: set[str] = set()
        dynamic: set[str] = set()
        for path in sorted(SRC_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for label, _where in _harvest(tree):
                if isinstance(label, ast.Constant):
                    literals.add(label.value)
                elif isinstance(label, ast.JoinedStr):
                    dynamic.add(_normalize_fstring(label)[0])

        def drawn_from(entry: str) -> bool:
            # stricter than DET004's own match, where a variable label
            # segment stands for anything: f"{label}/{point}/{j}" may not
            # count as a use of every three-segment entry
            if "{" not in entry:
                return entry in literals
            regex = stream_pattern_regex(entry)
            return normalize_stream_label(entry) in dynamic or any(
                regex.fullmatch(label) for label in literals
            )

        unused = {
            entry
            for entries in STREAM_REGISTRY.values()
            for entry in entries
            if not drawn_from(entry)
        }
        assert unused == self.UNHARVESTABLE


# ----------------------------------------------------------------------
# Stream-label registry
# ----------------------------------------------------------------------


class TestStreamRegistry:
    def test_declared_registry_is_sound(self):
        assert validate_stream_registry() == []

    def test_duplicate_entry_detected(self):
        bad = {"run": ("network", "network")}
        assert any(
            "duplicate" in problem
            for problem in validate_stream_registry(bad)
        )

    def test_static_pattern_collision_detected(self):
        bad = {"run": ("pair/7/3", "pair/{sender}/{target}")}
        assert any(
            "collides" in problem
            for problem in validate_stream_registry(bad)
        )

    def test_pattern_pattern_collision_detected(self):
        bad = {"run": ("group/{topic}", "{kind}/{name}")}
        assert validate_stream_registry(bad)

    def test_distinct_prefixes_do_not_collide(self):
        good = {"run": ("group/{topic}", "pair/{sender}/{target}")}
        assert validate_stream_registry(good) == []

    def test_pattern_regex_matches_realizations(self):
        regex = stream_pattern_regex("pair/{sender}/{target}")
        assert regex.fullmatch("pair/3/9")
        assert not regex.fullmatch("pair/3/9/0")
        assert not regex.fullmatch("group/3")

    def test_normalize_stream_label(self):
        assert normalize_stream_label("pair/{sender}/{target}") == "pair/{}/{}"

    def test_registry_covers_every_scope(self):
        assert set(STREAM_REGISTRY) == {"run", "sweep", "registry"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_lint_src_exits_zero(self, capsys):
        assert main(["lint", str(SRC_ROOT)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_reports_violations_with_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(bad)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        out = capsys.readouterr().out
        assert '"rule": "DET002"' in out

    def test_syntax_error_is_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 1
        assert "LINT000" in capsys.readouterr().out
