"""A run imports only what it uses.

A static daMulticast run (the paper's §VII simulation, frozen tables)
loads none of the dynamic protocol, its control messages
(``repro.net.control``), the dynamic and campaign spec sections
(``repro.workloads.spec_dynamic``), the baselines, the dynamic-failure
models, the experiments port or the process pool: packages re-export
lazily (``repro._exports``), ``repro.core.system`` imports the dynamic
process inside its dynamic branches, and ``repro.workloads.spec`` imports
what only some runs use where those runs use it. ``import repro.cli``
loads what its parser reads (the ``SWEEPS`` rows, the repair scenario)
and leaves every command's own modules to its handler. Cold import is
most of a short run's set-up time, so a module pulled back onto either
path shows here first.

The import set is read in fresh interpreters, at five points: after
``import repro.workloads.spec``, after a ``paper-vii`` build and execute
and after a ``lossy-wan`` build and execute (one interpreter, in that
order); after ``import repro.cli``; and after a ``LiveRuntime`` publishes
once. At each point the ``repro`` modules loaded, their source lines and
the dataclasses they define are held to the recorded counts.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: the dynamic protocol: neither a static run nor ``import repro.cli``
#: loads any of these modules (or their submodules)
DYNAMIC_PROTOCOL = (
    "repro.core.bootstrap",
    "repro.core.dissemination",
    "repro.core.maintenance",
    "repro.core.tables",
    "repro.core.process",
    "repro.membership.flat",
    "repro.membership.overlay",
    "repro.membership.view",
    "repro.net.control",
    "repro.workloads.spec_dynamic",
    "repro.failures.dynamic",
    "repro.failures.injector",
)
#: modules (and their submodules) no static daMulticast run may load
NOT_ON_THE_STATIC_PATH = DYNAMIC_PROTOCOL + (
    "repro.baselines",
    "repro.failures.churn",
    "repro.experiments",
    "repro.metrics.report",
    "multiprocessing",
    "concurrent.futures",
    "statistics",
)
#: what only a command's handler imports
NOT_AT_CLI_IMPORT = DYNAMIC_PROTOCOL + (
    "repro.baselines",
    "repro.analysis.comparison",
    "repro.analysis.tuning",
    "repro.experiments.artifacts",
    "repro.experiments.comparisons",
    "repro.experiments.multievent",
    "repro.service",
    "repro.lint",
    "multiprocessing",
    "concurrent.futures",
)
#: point → (``repro`` modules, their source lines, dataclasses they
#: define) loaded at most. Modules and dataclasses are the recorded
#: counts; lines have about 1 % headroom over the recorded 7 745, 7 788,
#: 7 788, 10 446 and 6 040.
BUDGETS = {
    "import repro.workloads.spec": (41, 7_820, 11),
    "paper-vii build and execute": (42, 7_870, 11),
    "lossy-wan build and execute": (42, 7_870, 11),
    "import repro.cli": (52, 10_550, 16),
    "LiveRuntime publishes once": (38, 6_100, 7),
}
#: point → what may not be loaded there
FORBIDDEN = {
    "import repro.workloads.spec": NOT_ON_THE_STATIC_PATH,
    "paper-vii build and execute": NOT_ON_THE_STATIC_PATH,
    "lossy-wan build and execute": NOT_ON_THE_STATIC_PATH,
    "import repro.cli": NOT_AT_CLI_IMPORT,
    # (asyncio imports concurrent.futures itself)
    "LiveRuntime publishes once": tuple(
        name for name in NOT_ON_THE_STATIC_PATH if name != "concurrent.futures"
    ),
}

_LOADED = """\
import dataclasses, json, pathlib, sys

points = []

def record(point):
    ours = [
        module for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    lines = sum(
        len(pathlib.Path(module.__file__).read_text().splitlines())
        for module in ours
    )
    classes = sorted(
        f"{module.__name__}.{name}"
        for module in ours
        for name, value in vars(module).items()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__
    )
    points.append((point, sorted(sys.modules), lines, classes))

"""

#: one fresh interpreter per script; each records its points in order
_SCRIPTS = (
    """\
import repro.workloads.spec
record("import repro.workloads.spec")
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec
for preset in ("paper-vii", "lossy-wan"):
    compile_spec(load_preset(preset)).build(0).execute()
    record(preset + " build and execute")
""",
    """\
import repro.cli
record("import repro.cli")
""",
    """\
import asyncio
from repro.service.runtime import LiveRuntime

async def publish_once():
    runtime = LiveRuntime(seed=0)
    runtime.add_group(".live", 3)
    runtime.add_group(".live.once", 5)
    async with runtime:
        await runtime.publish(".live.once", 0)
    runtime.system.close()

asyncio.run(publish_once())
record("LiveRuntime publishes once")
""",
)


@pytest.fixture(scope="module")
def import_sets() -> list[tuple[str, list[str], int, list[str]]]:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    }
    points = []
    for script in _SCRIPTS:
        done = subprocess.run(
            [sys.executable, "-c", _LOADED + script + "print(json.dumps(points))"],
            env=env, capture_output=True, text=True, check=True,
        )
        points.extend(json.loads(done.stdout))
    return points


def _under(module: str, names) -> bool:
    return any(module == name or module.startswith(name + ".") for name in names)


def test_a_static_run_loads_nothing_of_the_dynamic_protocol_baselines_or_pool(
    import_sets,
):
    assert [point for point, *_ in import_sets] == list(BUDGETS)
    for point, modules, _, _ in import_sets:
        stray = [m for m in modules if _under(m, FORBIDDEN[point])]
        assert not stray, f"after {point}: {stray}"


def test_the_repro_module_count_stays_in_budget(import_sets):
    for point, modules, _, _ in import_sets:
        ours = [m for m in modules if _under(m, ("repro",))]
        assert len(ours) <= BUDGETS[point][0], (point, len(ours), ours)


def test_the_repro_source_lines_loaded_stay_in_budget(import_sets):
    for point, _, lines, _ in import_sets:
        assert lines <= BUDGETS[point][1], (point, lines)


def test_the_dataclasses_built_stay_in_budget(import_sets):
    for point, _, _, classes in import_sets:
        assert len(classes) <= BUDGETS[point][2], (point, len(classes), classes)


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
