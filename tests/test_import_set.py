"""A run imports only what it uses.

A static daMulticast run (the paper's §VII simulation, frozen tables)
loads none of the dynamic protocol, the baselines, the dynamic-failure
models, the experiments port or the process pool: packages re-export
lazily (``repro._exports``), ``repro.core.system`` imports the dynamic
process inside its dynamic branches, and ``repro.workloads.spec`` imports
what only some runs use where those runs use it. Cold import is most of a
short run's set-up time, so a module pulled back onto the static path
shows here first.

The import set is read in a fresh interpreter, at three points: after
``import repro.workloads.spec``, after a ``paper-vii`` build and execute,
and after a ``lossy-wan`` build and execute.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: modules (and their submodules) no static daMulticast run may load
NOT_ON_THE_STATIC_PATH = (
    "repro.baselines",
    "repro.core.bootstrap",
    "repro.core.dissemination",
    "repro.core.maintenance",
    "repro.core.tables",
    "repro.core.process",
    "repro.membership.flat",
    "repro.membership.overlay",
    "repro.failures.churn",
    "repro.failures.dynamic",
    "repro.failures.injector",
    "repro.experiments",
    "repro.metrics.report",
    "multiprocessing",
    "concurrent.futures",
)
#: ``repro`` modules loaded at any of the three points: 43 after the
#: import, 44 after each run (``repro.workloads.presets`` joins)
REPRO_MODULE_BUDGET = 45

_POINTS = """\
import json, sys

def loaded():
    return sorted(sys.modules)

points = []
import repro.workloads.spec
points.append(("import repro.workloads.spec", loaded()))
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec
for preset in ("paper-vii", "lossy-wan"):
    compile_spec(load_preset(preset)).build(0).execute()
    points.append((preset + " build and execute", loaded()))
print(json.dumps(points))
"""


@pytest.fixture(scope="module")
def import_sets() -> list[tuple[str, list[str]]]:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    }
    done = subprocess.run(
        [sys.executable, "-c", _POINTS], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(done.stdout)


def _under(module: str, names) -> bool:
    return any(module == name or module.startswith(name + ".") for name in names)


def test_a_static_run_loads_nothing_of_the_dynamic_protocol_baselines_or_pool(
    import_sets,
):
    assert [point for point, _ in import_sets] == [
        "import repro.workloads.spec",
        "paper-vii build and execute",
        "lossy-wan build and execute",
    ]
    for point, modules in import_sets:
        stray = [m for m in modules if _under(m, NOT_ON_THE_STATIC_PATH)]
        assert not stray, f"after {point}: {stray}"


def test_the_repro_module_count_stays_in_budget(import_sets):
    for point, modules in import_sets:
        ours = [m for m in modules if _under(m, ("repro",))]
        assert len(ours) <= REPRO_MODULE_BUDGET, (point, len(ours), ours)


def _packages() -> list[str]:
    return sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in (SRC / "repro").rglob("__init__.py")
    )


@pytest.mark.parametrize("name", _packages())
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    for export in getattr(package, "__all__", ()):
        getattr(package, export)  # raises AttributeError if it does not resolve
        assert export in dir(package), export
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018
