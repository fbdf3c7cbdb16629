"""Command-line interface: regenerate any figure or table of the paper.

Usage (installed as ``damulticast``, or ``python -m repro``)::

    damulticast fig8                 # Fig. 8 series
    damulticast fig10 --runs 10     # more repetitions
    damulticast fig11 --grid 0 0.25 0.5 0.75 1.0
    damulticast compare             # §VI-E measured comparison
    damulticast analysis            # §VI-E closed-form tables
    damulticast tuning --pit 0.9995 # Appendix feasibility/z-bounds
    damulticast ablate-g / ablate-c # tuning-knob sweeps
    damulticast scale-s / scale-t   # §VI-B message growth in S and in t
    damulticast repair --alive 0.4  # frozen (§VII) vs repaired membership

    damulticast serve --topics .conf:5 .conf.dsn:10 \\
        --publish 20 --verify-replay     # live pub/sub service mode

    damulticast scenario list                        # bundled presets
    damulticast scenario run paper-vii --executor pool:2    # run a preset
    damulticast scenario run SPEC.json --runs 5      # run a spec file
    damulticast scenario run churn-recover --out RUN.json   # dynamic preset
    damulticast scenario sweep SPEC.json \\
        --field failures.alive_fraction --values 0.5 0.75 1.0 \\
        --out SWEEP.json
    damulticast scenario render SWEEP.json --format csv

    # graceful degradation under link faults (repro.net.faults):
    damulticast scenario run lossy-wan       # burst loss on inter links
    damulticast scenario sweep loss-sweep \\
        --field faults.loss.p --values 0 0.05 0.1 0.2 \\
        --out LOSS.json                      # reliability-vs-loss curve
    damulticast scenario sweep loss-sweep \\
        --field faults.loss.p --values 0 0.05 0.1 0.2 \\
        --set protocol=broadcast             # same grid, baseline

Every command prints the same rows/series the paper reports, as an
aligned ASCII table; the eight sweeps (fig8-11, ablate-g/c, scale-s/t)
are rows of :data:`repro.experiments.paper.SWEEPS` and take their
defaults from them. Scenario specs are declarative JSON documents (see
``repro.workloads.spec``) covering both static-mode (§VII simulator) and
dynamic-mode (full protocol: bootstrap, maintenance, failure campaigns,
latency models) runs; ``scenario`` output is bit-identical for any
execution backend (``--executor serial | pool:N``; ``--jobs N`` stays as
an alias for ``pool:N``; one pool serves the whole command). ``scenario run/sweep --out`` saves a
JSON payload (written atomically) that ``scenario render`` turns into
figure-style tables, CSV or JSON, and ``--cache DIR`` keeps a
content-addressed per-cell result store: a re-run of a finished sweep
executes zero cells, an interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ConfigError
from repro.experiments.paper import SWEEPS, paper_table
from repro.experiments.repair import REPAIR_SCENARIO, repair_comparison
from repro.workloads.scenarios import PaperScenario
from repro.workloads.spec import (
    load_spec,
    metrics_digest,
    run_scenario,
    spec_digest,
    spec_with,
    sweep_scenario,
)

# The parser reads its defaults off the SWEEPS rows, the repair scenario and
# PaperScenario; what only some commands run is imported in their handlers.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.executor import Executor
    from repro.metrics.report import Table

#: the §VII scenario: what `--sizes` resizes on `compare`
_PAPER = PaperScenario()

#: sweep command -> (its SWEEPS row, help)
_SWEEP_COMMANDS = {
    "fig8": ("fig8", "events sent within each group vs alive fraction"),
    "fig9": ("fig9", "events sent between groups vs alive fraction"),
    "fig10": ("fig10", "reliability under stillborn failures"),
    "fig11": ("fig11", "reliability under dynamic failures"),
    "ablate-g": ("ablation-g", "reliability/messages vs link redundancy g"),
    "ablate-c": ("ablation-c", "reliability/messages vs gossip constant c"),
    "scale-s": ("scale-S", "message growth vs bottom group size (O(S log S))"),
    "scale-t": ("scale-t", "message growth vs hierarchy depth (linear in t)"),
}


def _make_exec_parent(top_level: bool = False) -> argparse.ArgumentParser:
    """The shared `--executor`/`--jobs`/`--progress` option group.

    Registered once and attached to every sweeping subcommand via
    ``parents=`` (no per-subcommand re-wiring). The top-level parser
    holds the real defaults; the subcommand parent uses SUPPRESS so a
    subcommand-position flag overrides the top-level one instead of
    resetting it — both `repro --executor pool:4 fig10` and `repro fig10
    --executor pool:4` work, with the subcommand position winning.
    """

    def default(value):
        return value if top_level else argparse.SUPPRESS

    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--executor",
        default=default(None),
        metavar="SPEC",
        help=(
            "execution backend: 'serial' (default) or 'pool[:N]' (N "
            "worker processes, kept for the whole command); results are "
            "bit-identical for every backend and worker count"
        ),
    )
    group.add_argument(
        "--jobs",
        type=int,
        default=default(None),
        help="alias for --executor pool:N (N=1 means serial)",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        default=default(False),
        help="print per-point sweep progress to stderr",
    )
    return parent


def _executor_spec_from(args: argparse.Namespace) -> str | None:
    """Combine `--executor` and its `--jobs` alias into one spec string."""
    executor = getattr(args, "executor", None)
    jobs = getattr(args, "jobs", None)
    if executor is not None and jobs is not None:
        raise ConfigError("pass --executor SPEC or --jobs N, not both")
    if jobs is not None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        return "serial" if jobs == 1 else f"pool:{jobs}"
    return executor


def _make_experiment_parent(runs: int) -> argparse.ArgumentParser:
    """The `--runs`/`--seed` pair of every command that repeats a seeded
    run; ``runs`` is the command's own default. One parent per command:
    argparse shares a parent's actions, so a shared one could hold only
    one default."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--runs", type=int, default=runs, help="repetitions with derived seeds"
    )
    parent.add_argument(
        "--seed", type=int, default=0, help="master seed every run derives from"
    )
    return parent


def _make_spec_parent() -> argparse.ArgumentParser:
    """The spec argument and the `--cache`/`--set`/`--out` options that
    `scenario run` and `scenario sweep` share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "spec", help="path to a SPEC.json, or a bundled preset name"
    )
    parent.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed per-cell result store: finished cells are "
            "loaded instead of recomputed, results are persisted per cell "
            "(atomically) so interrupted runs resume"
        ),
    )
    parent.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help=(
            "override a spec field first, e.g. "
            "--set failures.alive_fraction=0.5 or --set protocol=broadcast "
            "(VALUE is parsed as JSON, falling back to a bare string)"
        ),
    )
    parent.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help=(
            "also write the result (per-run samples and aggregates, or the "
            "sweep's points, means and stds) as a JSON payload, renderable "
            "later with 'scenario render'"
        ),
    )
    return parent


def _add_sizes(parser: argparse.ArgumentParser, default: Sequence[int]) -> None:
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(default),
        help="group sizes from the root down (default: %(default)s)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="damulticast",
        description=(
            "Reproduction of 'Data-Aware Multicast' (DSN 2004): regenerate "
            "the paper's figures and tables."
        ),
        parents=[_make_exec_parent(top_level=True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    exec_parent = _make_exec_parent()

    def experiment(name: str, runs: int, help_text: str):
        return sub.add_parser(
            name,
            help=help_text,
            parents=[exec_parent, _make_experiment_parent(runs)],
        )

    for command, (name, help_text) in _SWEEP_COMMANDS.items():
        row = SWEEPS[name]
        sweep = experiment(command, row.runs, help_text)
        kind = int if row.integral else float
        sweep.add_argument(
            "--grid" if name.startswith("fig") else "--values",
            dest="values",
            metavar=row.axis.upper(),
            type=kind,
            nargs="+",
            # argparse converts only string defaults: convert the row's
            # values as it converts typed ones, so the default grid seeds
            # and prints exactly as the same values given on the line
            default=[kind(value) for value in row.values],
            help=f"{row.axis} values (default: %(default)s)",
        )
        if name.startswith("fig"):
            _add_sizes(sweep, row.scenario.sizes)
        if name.startswith("ablation"):
            sweep.add_argument("--alive", type=float, default=row.alive)
        if name == "scale-t":
            sweep.add_argument("--level-size", type=int, default=row.scenario.sizes[0])

    compare = experiment(
        "compare", 3, "measured §VI-E comparison of all four algorithms"
    )
    _add_sizes(compare, _PAPER.sizes)

    analysis = sub.add_parser(
        "analysis", help="closed-form §VI-E tables (no simulation)"
    )
    analysis.add_argument(
        "--sizes", type=int, nargs="+", default=[1000, 100, 10],
        help="group sizes from the publication level up",
    )
    analysis.add_argument("--p-succ", type=float, default=1.0)

    tuning = sub.add_parser(
        "tuning", help="Appendix equivalence windows and z-bounds"
    )
    tuning.add_argument("--pit", type=float, default=0.9995)
    tuning.add_argument("--c", type=float, nargs="+", default=[1.0, 2.0, 5.0])
    tuning.add_argument("--t", type=int, default=3)
    tuning.add_argument("--n", type=float, default=1110.0)
    tuning.add_argument("--s-t", type=float, default=1000.0)
    tuning.add_argument("--clusters", type=int, default=10)

    stream = experiment(
        "stream", 3, "steady-state Poisson stream: cost/delivery/parasites"
    )
    stream.add_argument(
        "--rates", type=float, nargs="+", default=[0.05, 0.2, 0.5]
    )

    repair = experiment(
        "repair", 4, "frozen membership (§VII) vs live repair, among survivors"
    )
    repair.add_argument("--alive", type=float, default=0.6)
    _add_sizes(repair, REPAIR_SCENARIO.sizes)

    scenario = sub.add_parser(
        "scenario",
        help="declarative scenario specs: run/sweep a SPEC.json or preset",
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    spec_parents = [exec_parent, _make_experiment_parent(3), _make_spec_parent()]
    scenario_sub.add_parser(
        "run",
        help="run one spec (JSON file path or bundled preset name)",
        parents=spec_parents,
    )
    scenario_sweep = scenario_sub.add_parser(
        "sweep",
        help="sweep one spec field over a list of values",
        parents=spec_parents,
    )
    scenario_sweep.add_argument(
        "--field",
        required=True,
        help="dotted spec path to sweep, e.g. failures.alive_fraction",
    )
    scenario_sweep.add_argument(
        "--values",
        required=True,
        nargs="+",
        help="values for the swept field (each parsed as JSON, then string)",
    )

    scenario_render = scenario_sub.add_parser(
        "render",
        help=(
            "render a saved 'scenario run/sweep --out' payload as a "
            "figure-style table, CSV or JSON"
        ),
    )
    scenario_render.add_argument(
        "payload", help="path to a JSON payload written with --out"
    )
    scenario_render.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: aligned ASCII table)",
    )
    scenario_render.add_argument(
        "--metrics",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict (and order) the rendered metrics",
    )
    scenario_render.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the rendering to FILE instead of stdout",
    )

    scenario_list = scenario_sub.add_parser(
        "list", help="list the bundled scenario presets"
    )
    scenario_list.add_argument(
        "--names", action="store_true", help="print bare preset names only"
    )

    serve = sub.add_parser(
        "serve",
        help="live asyncio pub/sub service mode (wall-clock runtime)",
        description=(
            "Run the protocol as a live pub/sub service on an asyncio "
            "event loop: build the requested topic groups, publish a "
            "deterministic round-robin workload over the in-process "
            "queue transport, and report per-topic delivery counts, "
            "network statistics and scheduler lag. With --verify-replay "
            "the recorded trace is re-executed on the discrete-event "
            "engine and the delivery sets are compared (the service "
            "mode's golden oracle)."
        ),
    )
    serve.add_argument(
        "--topics",
        nargs="+",
        default=[".conf:5", ".conf.dsn:10"],
        metavar="TOPIC:COUNT",
        help="topic groups to create, e.g. .conf:5 .conf.dsn:10",
    )
    serve.add_argument(
        "--publish",
        type=int,
        default=10,
        help="events to publish (round-robin over the topics)",
    )
    serve.add_argument("--seed", type=int, default=0, help="master seed")
    serve.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="abort the service run after this many wall-clock seconds",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the replayable live trace as JSON",
    )
    serve.add_argument(
        "--verify-replay",
        action="store_true",
        help=(
            "replay the recorded trace on the deterministic engine and "
            "fail (exit 1) unless the delivery sets match"
        ),
    )

    lint = sub.add_parser(
        "lint",
        help="run the determinism lint (rules DET001-DET005)",
        description=(
            "Statically check RNG-stream, purity, hash-order and "
            "NaN-validation invariants; exits 1 when any unsuppressed "
            "finding remains (see README, 'Determinism invariants')."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list pragma-suppressed findings and their rationales",
    )
    return parser


def _progress_printer(args: argparse.Namespace):
    """Per-point progress callback for ``--progress`` (None otherwise)."""
    if not getattr(args, "progress", False):
        return None

    def report(point, done: int, total: int) -> None:
        # Scenario sweeps can have non-numeric points (protocol names).
        shown = (
            f"{point:g}" if isinstance(point, (int, float)) else str(point)
        )
        print(f"[{done}/{total}] point={shown} done", file=sys.stderr)

    return report


def _parse_cli_value(raw: str) -> Any:
    """JSON when it parses, bare string otherwise (so ``--set
    protocol=broadcast`` needs no shell-quoted JSON)."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_overrides(spec: Mapping, pairs: Sequence[str]) -> Mapping:
    for pair in pairs:
        path, sep, raw = pair.partition("=")
        if not sep or not path:
            raise ConfigError(f"--set expects PATH=VALUE, got {pair!r}")
        spec = spec_with(spec, path, _parse_cli_value(raw))
    return spec


def _write_payload(path: str, payload: Mapping) -> None:
    from repro.experiments.artifacts import write_json_atomic

    # Atomic (temp file + os.replace): a crash mid-write can truncate a
    # stray temp file but never the payload a later render would read.
    write_json_atomic(path, payload, indent=2)
    print(f"wrote {path}", file=sys.stderr)


def _load_payload(path: str) -> Mapping:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"payload file {path!r} not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"payload file {path!r} is not valid JSON: {exc}"
        ) from exc


def _render_scenario_payload(args: argparse.Namespace) -> int:
    from repro.metrics.report import table_from_scenario_payload

    table = table_from_scenario_payload(
        _load_payload(args.payload), metrics=args.metrics
    )
    if args.format == "csv":
        rendered = table.to_csv()
    elif args.format == "json":
        rendered = table.to_json() + "\n"
    else:
        rendered = table.render() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


def _caching(
    executor: Executor, cache: str | None, run_key_payload: Mapping
) -> Executor:
    """Wrap ``executor`` with the artifact store when ``--cache`` is set."""
    if cache is None:
        return executor
    from repro.experiments.artifacts import ArtifactStore, CachingExecutor

    return CachingExecutor(
        executor, ArtifactStore(cache), spec_digest(run_key_payload)
    )


def _report_cache(executor: Executor) -> None:
    from repro.experiments.artifacts import CachingExecutor

    if isinstance(executor, CachingExecutor):
        print(
            f"cache: {executor.hits} hit(s), {executor.executed} executed",
            file=sys.stderr,
        )


def _run_scenario_command(args: argparse.Namespace, executor: Executor) -> int:
    from repro.metrics.report import (
        SCENARIO_RUN_SCHEMA,
        SCENARIO_SWEEP_SCHEMA,
        Table,
    )

    if args.scenario_command == "render":
        return _render_scenario_payload(args)
    if args.scenario_command == "list":
        from repro.workloads.presets import load_preset, preset_names

        if args.names:
            for name in preset_names():
                print(name)
            return 0
        table = Table(
            "Bundled scenario presets",
            ["preset", "protocol", "description"],
        )
        for name in preset_names():
            spec = load_preset(name)
            protocol = spec.get("protocol", "daMulticast")
            if isinstance(protocol, Mapping):
                protocol = protocol.get("name", "?")
            table.add_row(name, protocol, spec.get("description", ""))
        print(table.render())
        return 0

    spec = _apply_overrides(load_spec(args.spec), args.overrides)
    progress = _progress_printer(args)
    if args.scenario_command == "run":
        from repro.experiments.runner import aggregate_runs

        executor = _caching(
            executor, args.cache, {"kind": "scenario-run", "spec": spec}
        )
        samples = run_scenario(
            spec,
            runs=args.runs,
            master_seed=args.seed,
            executor=executor,
            progress=progress,
        )
        _report_cache(executor)
        means, stds = aggregate_runs(samples)
        table = Table(
            f"scenario {spec.get('name', args.spec)} — metrics over "
            f"{args.runs} run(s), master seed {args.seed}",
            ["metric", "mean", "std"],
            precision=4,
        )
        for metric in sorted(means):
            table.add_row(metric, means[metric], stds[metric])
        print(table.render())
        digest = metrics_digest(samples)
        print(f"metrics digest: {digest}")
        if args.out:
            _write_payload(
                args.out,
                {
                    "schema": SCENARIO_RUN_SCHEMA,
                    "name": spec.get("name", args.spec),
                    "spec": spec,
                    "runs": args.runs,
                    "master_seed": args.seed,
                    "samples": samples,
                    "means": means,
                    "stds": stds,
                    "digest": digest,
                },
            )
        return 0

    # sweep
    values = [_parse_cli_value(value) for value in args.values]
    executor = _caching(
        executor,
        args.cache,
        {"kind": "scenario-sweep", "spec": spec, "field": args.field},
    )
    result = sweep_scenario(
        spec,
        args.field,
        values,
        runs=args.runs,
        master_seed=args.seed,
        executor=executor,
        progress=progress,
    )
    _report_cache(executor)
    metric_names = result.metric_names()
    table = Table(
        f"scenario sweep over {args.field} "
        f"({args.runs} run(s)/point, master seed {args.seed})",
        [args.field, *metric_names],
        precision=4,
    )
    for index, point in enumerate(result.points):
        table.add_row(
            point, *(result.means[metric][index] for metric in metric_names)
        )
    print(table.render())
    if args.out:
        _write_payload(
            args.out,
            {
                "schema": SCENARIO_SWEEP_SCHEMA,
                "name": spec.get("name", args.spec),
                "spec": spec,
                "field": args.field,
                "runs": args.runs,
                "master_seed": args.seed,
                "points": result.points,
                "means": result.means,
                "stds": result.stds,
            },
        )
    return 0


def _run_analysis_command(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import ChainScenario, comparison_table

    scenario = ChainScenario(sizes=tuple(args.sizes), p_succ=args.p_succ)
    for table in comparison_table(scenario).values():
        print(table.render())
        print()
    return 0


def _run_tuning_command(args: argparse.Namespace) -> Table:
    from repro.analysis.tuning import (
        match_broadcast,
        match_hierarchical,
        match_multicast,
    )
    from repro.metrics.report import Table

    table = Table(
        f"Appendix tuning (pit={args.pit}, t={args.t})",
        ["baseline", "c", "feasible", "c_window", "c1", "z_bound"],
        precision=3,
    )
    for c in args.c:
        for result in (
            match_multicast(c, args.pit, t=args.t, s_t=args.s_t),
            match_broadcast(c, args.pit, t=args.t, n=args.n, s_t=args.s_t),
            match_hierarchical(c, args.pit, t=args.t, n_clusters=args.clusters),
        ):
            low, high = result.c_window
            table.add_row(
                result.baseline,
                c,
                result.feasible,
                f"[{low:.3f}, {high:.3f}]",
                "-" if result.c1 is None else f"{result.c1:.3f}",
                "-" if result.z_bound is None else f"{result.z_bound:.3f}",
            )
    return table


def _parse_topic_counts(pairs: Sequence[str]) -> list[tuple[str, int]]:
    """Parse ``TOPIC:COUNT`` arguments (e.g. ``.conf:5``)."""
    topics: list[tuple[str, int]] = []
    for pair in pairs:
        name, sep, raw = pair.rpartition(":")
        if not sep or not name:
            raise ConfigError(f"--topics expects TOPIC:COUNT, got {pair!r}")
        try:
            count = int(raw)
        except ValueError:
            raise ConfigError(
                f"--topics count must be an integer, got {pair!r}"
            ) from None
        if count < 1:
            raise ConfigError(f"--topics count must be >= 1, got {pair!r}")
        topics.append((name, count))
    return topics


def _run_serve_command(args: argparse.Namespace) -> int:
    import asyncio

    from repro.metrics.report import Table
    from repro.service import LiveRuntime, replay_live_trace

    topics = _parse_topic_counts(args.topics)
    if args.publish < 0:
        raise ConfigError(f"--publish must be >= 0, got {args.publish}")

    async def serve():
        runtime = LiveRuntime(seed=args.seed)
        for name, count in topics:
            runtime.add_group(name, count)
        async with runtime:
            for index in range(args.publish):
                topic = topics[index % len(topics)][0]
                await runtime.publish(topic, {"n": index})
            status = runtime.status()
        trace = runtime.trace()
        runtime.system.close()
        return trace, status

    async def bounded():
        return await asyncio.wait_for(serve(), timeout=args.timeout)

    trace, status = asyncio.run(bounded())

    table = Table(
        f"live service (seed={args.seed}, published={status['published']}, "
        f"wall={status['now']:.3f}s)",
        ["topic", "deliveries"],
    )
    for name, delivered in sorted(status["deliveries_by_topic"].items()):
        table.add_row(name, delivered)
    print(table.render())
    queue = status["queue"]
    lag = status["scheduler_lag"]
    print(
        f"queue: {queue['executed']}/{queue['dispatched']} deliveries "
        f"executed, {queue['pending']} pending; "
        f"scheduler lag max {lag['max'] * 1e3:.3f} ms"
    )
    if args.trace_out:
        _write_payload(args.trace_out, trace)
    if args.verify_replay:
        result = replay_live_trace(trace)
        verdict = "match" if result["matches"] else "MISMATCH"
        print(f"engine replay: delivery sets {verdict}")
        if not result["matches"]:
            return 1
    return 0


def _run_lint_command(args: argparse.Namespace) -> int:
    from repro.lint import render_json, render_text, run_lint

    report = run_lint(args.paths)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_suppressed=args.show_suppressed))
    return 0 if report.ok else 1


#: the keywords every seeded driver takes
_SEEDED = {"runs": "runs", "master_seed": "seed"}


def _run_sweep_command(args: argparse.Namespace, executor: Executor) -> Table:
    """The command's SWEEPS row at the values, sizes (``--sizes``, or
    ``scale-t``'s one ``--level-size``) and alive fraction it was given."""
    name = _SWEEP_COMMANDS[args.command][0]
    scenario = SWEEPS[name].scenario
    if "sizes" in args or "level_size" in args:
        sizes = args.sizes if "sizes" in args else [args.level_size]
        scenario = replace(scenario, sizes=tuple(sizes))
    return paper_table(
        name, values=args.values, runs=args.runs, alive=getattr(args, "alive", None),
        scenario=scenario, master_seed=args.seed, executor=executor,
        progress=_progress_printer(args),
    )


def _run_compare_command(*, executor: Executor, **call: Any) -> Table:
    from repro.experiments.comparisons import measured_comparison

    return measured_comparison(executor=executor, **call)


def _run_stream_command(*, executor: Executor, **call: Any) -> Table:
    from repro.experiments.multievent import stream_table

    return stream_table(executor=executor, **call)


#: command → (driver, {driver keyword: parsed-argument attribute}); ``None``
#: hands the driver the parsed arguments whole, and a :class:`PaperScenario`
#: in place of an attribute is the command's scenario, resized by
#: ``--sizes``. A driver that declares ``executor`` also gets the one
#: resolved from the shared execution options, closed when it returns. It
#: returns the table to print, or, having printed its own report, an exit
#: code.
_COMMANDS = {
    **dict.fromkeys(_SWEEP_COMMANDS, (_run_sweep_command, None)),
    "compare": (_run_compare_command, {"scenario": _PAPER, **_SEEDED}),
    "analysis": (_run_analysis_command, None),
    "tuning": (_run_tuning_command, None),
    "stream": (_run_stream_command, {"rates": "rates", **_SEEDED}),
    "repair": (
        repair_comparison,
        {"alive_fraction": "alive", "scenario": REPAIR_SCENARIO, **_SEEDED},
    ),
    "scenario": (_run_scenario_command, None),
    "serve": (_run_serve_command, None),
    "lint": (_run_lint_command, None),
}


def _driver_call(args: argparse.Namespace, keywords) -> dict[str, Any]:
    """The driver's keyword arguments, read off the parsed ones."""
    if keywords is None:
        return {"args": args}
    call: dict[str, Any] = {"progress": _progress_printer(args)}
    for keyword, attribute in keywords.items():
        if isinstance(attribute, PaperScenario):
            call[keyword] = replace(attribute, sizes=tuple(args.sizes))
            continue
        value = getattr(args, attribute)
        call[keyword] = tuple(value) if isinstance(value, list) else value
    return call


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    driver, keywords = _COMMANDS[args.command]
    executor = None
    try:
        call = _driver_call(args, keywords)
        if "executor" in inspect.signature(driver).parameters:
            from repro.experiments.executor import resolve_executor

            executor = call["executor"] = resolve_executor(
                _executor_spec_from(args)
            )
        result = driver(**call)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if executor is not None:
            executor.close()
    if isinstance(result, int):
        return result
    print(result.render())  # a Table
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
