"""Every ``def`` under ``src/repro`` is entered by something the system runs
— or it is listed in ``ALLOWED_UNREACHED`` with the reason it is not.

Usage::

    python tests/function_reach.py

(about a minute and a half on two cores). The script writes a
``sitecustomize.py`` into a temporary directory, puts that directory first
on ``PYTHONPATH`` and runs :func:`entry_points` — every CLI command at small
sizes, the scenario presets and one spec per section kind, a cached sweep
and its renderings, the live service with its replay check, the examples,
the six ledger workloads (plain and under the ledger's profiler) and the
two reference-ratio bench files. Every interpreter those commands start,
pool workers included, records the code objects it enters. The records are
then matched against every ``def`` that ``ast`` finds under ``src/repro``
(nested ones included; a decorated def's first line is its first
decorator's, as ``co_firstlineno`` has it).

The script fails on a def nothing entered that is not allowlisted, on an
allowlisted def that was entered, and on an allowlist key that names no
def. Methods of a class with ``Protocol`` among its bases are interface
stubs and exempt. pytest does not collect this file (it is not named
``test_*``); ``tests/test_function_reach.py`` holds its contract.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: ``"module:Qualname"`` → why nothing the system runs enters that def. The
#: gate fails if an entry *is* entered, so the table cannot go stale. The
#: reasons allowed are: a reference implementation or closed form a tier-1
#: test compares against; what a pinned golden computes; an error-only path
#: a tier-1 test enters; pickle support; a protocol member an install or
#: ``isinstance`` check requires, which a tier-1 test enters; and what a
#: ``benchmarks/bench_*.py`` file calls (the gate runs those files, so such
#: an entry is entered).
ALLOWED_UNREACHED: dict[str, str] = {
    # closed forms tier-1 compares the simulation against
    "repro.analysis.complexity:damulticast_message_bound": (
        "closed form: tests/test_analysis_complexity.py and the property "
        "suite hold the message bound against the simulation"
    ),
    "repro.analysis.reliability:effective_fanout_constant": (
        "closed form: tests/test_sim_vs_analysis.py compares simulated "
        "reliability against it"
    ),
    "repro.analysis.reliability:effective_gossip_reliability": (
        "closed form: tests/test_sim_vs_analysis.py compares simulated "
        "reliability against it"
    ),
    "repro.net.faults:GilbertElliott.stationary_loss_rate": (
        "closed form: tests/test_net_faults.py checks the channel's "
        "long-run loss against it"
    ),
    # what pinned goldens compute
    "repro.core.system:DaMulticastSystem.construction_digest": (
        "pinned golden: the S=500 construction digest of both static "
        "facades (tests/test_golden_static.py)"
    ),
    "repro.membership.columnar:rows_digest": (
        "pinned golden: the function behind construction_digest"
    ),
    "repro.topics.topic:Topic.__str__": (
        "pinned golden: rows_digest formats each super target with str()"
    ),
    "repro.metrics.collector:DeliveryTracker.delivery_hops": (
        "pinned golden: the §VIII pins (tests/test_core_multiparent.py::"
        "TestSectionVIIIPins) hash every delivery's hop count"
    ),
    # error-only paths a tier-1 test enters
    "repro.sim.engine:CallQueue.requeue": (
        "error path: re-queues the rest of a call that raised; "
        "tests/test_net_transport.py raises inside deliveries"
    ),
    "repro.sim.engine:Engine.requeue": (
        "error path: the engine's side of the requeue chain "
        "(tests/test_net_transport.py)"
    ),
    "repro.net.transport:QueueTransport.requeue": (
        "error path: the live queue's side of the requeue chain "
        "(tests/test_net_transport.py)"
    ),
    "repro.experiments.executor:SweepWorkerError.__init__": (
        "error path: a cell that raises or a killed worker "
        "(tests/test_sweep_parallel.py, tests/test_executor.py)"
    ),
    "repro.metrics.streaming:StreamingDeliveryTracker._unsupported": (
        "error path: the refusal the per-event stubs raise "
        "(tests/test_metrics_streaming.py)"
    ),
    "repro.metrics.streaming:StreamingDeliveryTracker.receivers": (
        "error path: refuses a per-event query the streaming tracker "
        "cannot answer (tests/test_metrics_streaming.py)"
    ),
    "repro.metrics.streaming:StreamingDeliveryTracker.delivery_count": (
        "error path: refuses a per-event query the streaming tracker "
        "cannot answer (tests/test_metrics_streaming.py)"
    ),
    "repro.lint.rules.det002_wall_clock:WallClockRule._flag": (
        "error path: a DET002 finding; the clean tree has none, "
        "tests/test_lint.py plants them"
    ),
    # protocol members an install or isinstance check requires
    "repro.experiments.artifacts:CachingExecutor.close": (
        "protocol member: the Executor protocol's isinstance check needs "
        "it; the CLI closes the executor it wraps instead "
        "(tests/test_artifacts.py closes the wrapper)"
    ),
    "repro.net.faults:LinkClassFaults.transmit": (
        "protocol member: install_faults requires transmit; the network "
        "calls it only for a link no classifier classifies "
        "(tests/test_net_faults.py)"
    ),
    "repro.net.latency:LinkClassLatency.sample": (
        "protocol member: the network binds sample when no classifier "
        "is bound, which no entry point does "
        "(tests/test_net_message_latency.py)"
    ),
    # pickle support
    "repro.topics.topic:Topic.__reduce__": (
        "pickle support: unpickling and copy/deepcopy re-intern, so "
        "identity survives a process boundary (tests/test_topic_identity.py)"
    ),
}

#: The hook every traced interpreter imports at start-up. ``settrace``
#: rather than ``setprofile``: the ledger's ``--trace 1`` installs cProfile
#: through ``setprofile``, which would displace a profile hook. Only
#: ``call`` events are taken (the hook returns ``None``, so no line
#: tracing). Pool workers leave through ``os._exit`` after
#: ``multiprocessing.util._exit_function``, never through ``atexit``, so
#: ``os._exit`` flushes too.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_OUT = os.environ.get("FUNCTION_REACH_OUT")
_codes = {}
_flushed = set()


def _enter(frame, event, arg):
    code = frame.f_code
    _codes[id(code)] = code


def _flush():
    pid = os.getpid()
    if _OUT is None or pid in _flushed:
        return
    _flushed.add(pid)
    lines = {f"{c.co_filename}\\t{c.co_firstlineno}\\n" for c in list(_codes.values())}
    path = os.path.join(_OUT, f"{pid}-{threading.get_ident()}.txt")
    with open(path, "a", encoding="utf-8") as handle:
        handle.writelines(sorted(lines))


def _exit(code, _real=os._exit):
    _flush()
    _real(code)


if _OUT is not None:
    os._exit = _exit
    atexit.register(_flush)
    sys.settrace(_enter)
    threading.settrace(_enter)
'''


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _repro(*args: str) -> list[str]:
    return _python("-m", "repro", *args)


_FIG = ("--runs", "1", "--grid", "0.5", "1.0", "--sizes", "3", "8", "20")
#: the benchmark's workloads, as BENCHMARK.json declares them
_LEDGER = [
    workload["name"]
    for workload in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]
]
_SWEEP = (
    "scenario", "sweep", "loss-sweep", "--field", "faults.loss.p",
    "--values", "0", "0.1", "0.2", "--runs", "2", "--executor", "pool:2",
)
#: every bundled preset
_PRESETS = sorted(path.stem for path in (PACKAGE / "workloads" / "presets").glob("*.json"))
#: Runs every spec in ``tests/test_scenario_spec.py``'s ``KIND_FIXTURES``
#: (one per section kind, option and default no preset states) through
#: ``scenario run``, in one interpreter.
_KIND_FIXTURES = """\
import json, pathlib, sys, tempfile
sys.path.insert(0, "tests")
from test_scenario_spec import KIND_FIXTURES
from repro.cli import main
with tempfile.TemporaryDirectory() as scratch:
    for key, spec in sorted(KIND_FIXTURES.items()):
        path = pathlib.Path(scratch, key + ".json")
        path.write_text(json.dumps(spec))
        if main(["scenario", "run", str(path), "--runs", "1"]) != 0:
            sys.exit(f"kind fixture {key} failed")
"""


def entry_points(work: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(group, command) in run order; ``work`` is a scratch directory."""
    cache, payload = work / "cache", work / "sweep.json"
    serve = (
        "serve", "--topics", ".conf:4", ".conf.dsn:8", "--publish", "12",
        "--seed", "5", "--timeout", "60", "--verify-replay",
        "--trace-out", str(work / "live-trace.json"),
    )
    commands: list[tuple[str, list[str]]] = []
    # the paper's figures and tables, serial and on a pool (CI's two smokes)
    for figure in ("fig8", "fig9", "fig10", "fig11"):
        commands.append(("drivers", _repro(figure, *_FIG)))
    commands += [
        ("drivers", _repro("--jobs", "2", "--progress", "fig10", "--runs", "2",
                           "--grid", "0.5", "1.0", "--sizes", "3", "8", "20")),
        ("drivers", _repro("--executor", "pool:2", "fig10", *_FIG)),
        ("drivers", _repro("compare", "--runs", "1", "--sizes", "3", "8", "20")),
        ("drivers", _repro("analysis")),
        ("drivers", _repro("tuning")),
        ("drivers", _repro("ablate-g", "--runs", "1", "--values", "1", "2")),
        ("drivers", _repro("ablate-c", "--runs", "1", "--values", "1", "2")),
        ("drivers", _repro("scale-s", "--runs", "1", "--values", "10", "20")),
        ("drivers", _repro("scale-t", "--runs", "1", "--values", "2", "3",
                           "--level-size", "5")),
        ("drivers", _repro("stream", "--runs", "1")),
        ("drivers", _repro("repair", "--runs", "1", "--sizes", "3", "8", "20")),
        # the determinism lint, in both output formats (CI's lint job)
        ("lint", _repro("lint", "--show-suppressed", "src")),
        ("lint", _repro("lint", "--format", "json", "src")),
        # every bundled preset (CI's scenario-presets job) and one spec
        # per section kind no preset uses
        ("scenarios", _repro("scenario", "list")),
        ("scenarios", _repro("scenario", "list", "--names")),
    ]
    for preset in _PRESETS:
        commands.append(("scenarios", _repro(
            "scenario", "run", preset, "--runs", "2", "--jobs", "2", "--progress",
        )))
    commands += [
        ("scenarios", _python("-c", _KIND_FIXTURES)),
        # the result cache: cold, one entry corrupted, hot; then the three
        # renderings of the payload (CI's executor-cache job)
        ("cache", _repro(*_SWEEP, "--cache", str(cache), "--out", str(payload))),
        ("cache", _python("-c", (
            "import pathlib, sys; "
            "next(iter(sorted(pathlib.Path(sys.argv[1]).rglob('*.json'))))"
            ".write_bytes(b'\\xff\\xfe')"
        ), str(cache))),
        # (with --progress: a miss under a cache reports its progress)
        ("cache", _repro(*_SWEEP, "--cache", str(cache), "--out", str(payload),
                         "--progress")),
        ("cache", _repro("scenario", "render", str(payload))),
        ("cache", _repro("scenario", "render", str(payload), "--format", "csv")),
        ("cache", _repro("scenario", "render", str(payload), "--format", "json",
                         "--metrics", "mean_delivery", "faults_loss")),
        # the live service and its replay oracle (CI's serve-smoke job)
        ("service", _repro(*serve)),
    ]
    # the examples, as a reader runs them
    for example in sorted((REPO / "examples").glob("*.py")):
        commands.append(("examples", _python(str(example))))
    # the benchmark's workloads, plain and under the ledger's profiler
    for trace in ("0", "1"):
        for workload in _LEDGER:
            commands.append(("ledger", _python(
                "benchmarks/ledger/run.py", "--workload", workload,
                "--seed", "0", "--seconds", "1", "--trace", trace,
            )))
    # the two reference-ratio bench files (CI's tests job)
    commands.append(("benches", _python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
        "benchmarks/bench_transport_batching.py",
        "benchmarks/bench_membership_build.py",
    )))
    return commands


def hooked_env(hook_dir: pathlib.Path, out_dir: pathlib.Path) -> dict[str, str]:
    """The environment of a traced interpreter: the hook first on the
    path, ``src`` after it, records written to ``out_dir``."""
    (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["FUNCTION_REACH_OUT"] = str(out_dir)
    return env


def entered(out_dir: pathlib.Path) -> set[tuple[str, int]]:
    """Every ``(file, first line)`` a traced interpreter entered under
    ``src/repro``."""
    root = str(PACKAGE.resolve()) + os.sep
    found = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, lineno = line.rsplit("\t", 1)
            path = os.path.realpath(filename)
            if path.startswith(root):
                found.add((path, int(lineno)))
    return found


def _is_protocol(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if isinstance(base, ast.Subscript):
            base = base.value
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
        if name == "Protocol":
            return True
    return False


def _accessor(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    """``.setter``/``.deleter`` for a property's second def, so the getter
    and its setter get different keys."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter"):
            return "." + decorator.attr
    return ""


def _walk_defs() -> dict[str, tuple[str, int, bool]]:
    """``"module:Qualname"`` → ``(file, first line, is a Protocol-class
    method)`` for every def under ``src/repro``, nested ones included."""
    defs: dict[str, tuple[str, int, bool]] = {}

    def visit(node: ast.AST, module: str, path: str, prefix: str, protocol: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.", _is_protocol(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}{_accessor(child)}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = f"{module}:{qualname}"
                assert key not in defs, f"two defs share the key {key}"
                defs[key] = (path, first, protocol)
                visit(child, module, path, f"{qualname}.<locals>.", False)
            else:
                visit(child, module, path, prefix, protocol)

    for file in sorted(PACKAGE.rglob("*.py")):
        parts = file.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(file.read_text(encoding="utf-8"))
        visit(tree, module, os.path.realpath(file), "", False)
    return defs


def all_defs() -> dict[str, tuple[str, int]]:
    """``"module:Qualname"`` → ``(file, first line)`` for every def the
    gate holds: all under ``src/repro`` but Protocol-class methods."""
    return {
        key: (path, line)
        for key, (path, line, protocol) in _walk_defs().items()
        if not protocol
    }


def protocol_stubs() -> set[str]:
    """The keys of the exempt Protocol-class methods."""
    return {key for key, (_, _, protocol) in _walk_defs().items() if protocol}


def check(defs: dict[str, tuple[str, int]], reached: set[tuple[str, int]]) -> list[str]:
    """The gate's verdict: one message per failure, none if it passes."""
    unentered = {key for key, site in defs.items() if site not in reached}
    problems = [
        f"nothing the system runs enters {key}: wire it to a command or a "
        "spec key, delete it, or allowlist it with an allowed reason"
        for key in sorted(unentered - set(ALLOWED_UNREACHED))
    ]
    problems += [
        f"{key} is entered now: drop it from ALLOWED_UNREACHED"
        for key in sorted(set(ALLOWED_UNREACHED) & (set(defs) - unentered))
    ]
    problems += [
        f"ALLOWED_UNREACHED names no def: {key}"
        for key in sorted(set(ALLOWED_UNREACHED) - set(defs))
    ]
    return problems


def run_entry_points(work: pathlib.Path) -> set[tuple[str, int]] | None:
    """Run every entry point traced, in scratch directory ``work``; the
    entered ``(file, first line)`` pairs, or ``None`` if one failed."""
    out_dir, hook_dir = work / "records", work / "hook"
    out_dir.mkdir()
    hook_dir.mkdir()
    env = hooked_env(hook_dir, out_dir)
    for group, command in entry_points(work):
        print(f"[{group}] {' '.join(command[1:]).splitlines()[0][:110]}", flush=True)
        done = subprocess.run(
            command, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"entry point failed (exit {done.returncode})", file=sys.stderr)
            return None
    return entered(out_dir)


def main() -> int:
    defs = all_defs()
    with tempfile.TemporaryDirectory() as scratch:
        reached = run_entry_points(pathlib.Path(scratch))
    if reached is None:
        return 1
    problems = check(defs, reached)
    for problem in problems:
        print(problem)
    print(json.dumps({
        "defs": len(defs),
        "entered": len(set(defs.values()) & reached),
        "allowlisted": len(ALLOWED_UNREACHED),
        "problems": len(problems),
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
