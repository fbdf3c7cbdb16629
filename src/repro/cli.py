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
are rows of :data:`repro.experiments.paper.SWEEPS`. A command's defaults
are its driver's or its ``SWEEPS`` row's: the parser states none of them,
and hands a driver only the options typed. Scenario specs are
declarative JSON documents (see ``repro.workloads.spec``) covering both
static-mode (§VII simulator) and dynamic-mode (full protocol: bootstrap,
maintenance, failure campaigns, latency models) runs; ``scenario`` output is bit-identical for any
execution backend (``--executor serial | pool:N``; ``--jobs N`` stays as
an alias for ``pool:N``; one pool serves the whole command). ``scenario run/sweep --out`` saves a
JSON payload (written atomically) that ``scenario render`` turns into
figure-style tables, CSV or JSON, and ``--cache DIR`` keeps a
content-addressed per-cell result store: a re-run of a finished sweep
executes zero cells, an interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ConfigError

# Building the parser reads no experiment: each command imports what it
# runs in its handler.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.executor import Executor
    from repro.metrics.report import Table

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


def _option(parser, flag: str, kind: type, what: str, where: str, **options) -> None:
    """An option whose default is its driver's or its ``SWEEPS`` row's, not
    the parser's: SUPPRESS leaves it out of the parsed arguments unless it
    is typed, and its help says where the default lives."""
    parser.add_argument(
        flag, type=kind, default=argparse.SUPPRESS, help=f"{what} (default: {where})",
        **options,
    )


def _make_experiment_parent() -> argparse.ArgumentParser:
    """The `--runs`/`--seed` pair of every command that repeats a seeded
    run, shared by all of them: neither states a default."""
    parent = argparse.ArgumentParser(add_help=False)
    _option(parent, "--runs", int, "repetitions with derived seeds", "the command's")
    _option(parent, "--seed", int, "master seed every run derives from", "the command's")
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
    experiment_parent = _make_experiment_parent()

    def experiment(name: str, help_text: str):
        return sub.add_parser(
            name, help=help_text, parents=[exec_parent, experiment_parent]
        )

    for command, (name, help_text) in _SWEEP_COMMANDS.items():
        sweep, row = experiment(command, help_text), f"the {name} row's"
        figure = name.startswith("fig")
        _option(
            sweep, "--grid" if figure else "--values", float, "grid values", row,
            dest="values", nargs="+", metavar="VALUE",
        )
        if figure:
            _option(sweep, "--sizes", int, "group sizes from the root down", row, nargs="+")
        if name.startswith("ablation"):
            _option(sweep, "--alive", float, "alive fraction", row)
        if name == "scale-t":
            _option(sweep, "--level-size", int, "group size at every level", row)

    compare = experiment("compare", "measured §VI-E comparison of all four algorithms")
    _option(
        compare, "--sizes", int, "group sizes from the root down",
        "the §VII scenario's", nargs="+",
    )

    analysis = sub.add_parser("analysis", help="closed-form §VI-E tables (no simulation)")
    _option(
        analysis, "--sizes", int, "group sizes from the publication level up",
        "the §VII chain's", nargs="+",
    )
    _option(analysis, "--p-succ", float, "transmission success probability", "the §VII chain's")

    tuning = sub.add_parser(
        "tuning", help="Appendix equivalence windows and z-bounds"
    )
    tuning.add_argument("--pit", type=float, default=0.9995)
    tuning.add_argument("--c", type=float, nargs="+", default=[1.0, 2.0, 5.0])
    tuning.add_argument("--t", type=int, default=3)
    tuning.add_argument("--n", type=float, default=1110.0)
    tuning.add_argument("--s-t", type=float, default=1000.0)
    tuning.add_argument("--clusters", type=int, default=10)

    stream = experiment("stream", "steady-state Poisson stream: cost/delivery/parasites")
    _option(stream, "--rates", float, "event arrival rates", "the driver's", nargs="+")

    repair = experiment("repair", "frozen membership (§VII) vs live repair, among survivors")
    _option(repair, "--alive", float, "alive fraction", "the driver's")
    _option(
        repair, "--sizes", int, "group sizes from the root down",
        "the repair scenario's", nargs="+",
    )

    scenario = sub.add_parser(
        "scenario",
        help="declarative scenario specs: run/sweep a SPEC.json or preset",
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    spec_parents = [exec_parent, experiment_parent, _make_spec_parent()]
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
    from repro.workloads.spec import spec_with

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
    from repro.workloads.spec import spec_digest

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

    from repro.workloads.spec import load_spec, metrics_digest, run_scenario, sweep_scenario

    spec = _apply_overrides(load_spec(args.spec), args.overrides)
    progress = _progress_printer(args)
    # the command's own defaults: three runs (run_scenario's is one)
    runs, seed = getattr(args, "runs", 3), getattr(args, "seed", 0)
    if args.scenario_command == "run":
        from repro.experiments.runner import aggregate_runs

        executor = _caching(
            executor, args.cache, {"kind": "scenario-run", "spec": spec}
        )
        samples = run_scenario(
            spec,
            runs=runs,
            master_seed=seed,
            executor=executor,
            progress=progress,
        )
        _report_cache(executor)
        means, stds = aggregate_runs(samples)
        table = Table(
            f"scenario {spec.get('name', args.spec)} — metrics over "
            f"{runs} run(s), master seed {seed}",
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
                    "runs": runs,
                    "master_seed": seed,
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
        runs=runs,
        master_seed=seed,
        executor=executor,
        progress=progress,
    )
    _report_cache(executor)
    metric_names = result.metric_names()
    table = Table(
        f"scenario sweep over {args.field} "
        f"({runs} run(s)/point, master seed {seed})",
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
                "runs": runs,
                "master_seed": seed,
                "points": result.points,
                "means": result.means,
                "stds": result.stds,
            },
        )
    return 0


def _run_analysis_command(*, progress: Any, **chain: Any) -> int:
    """The closed-form tables of the chain typed (no sweep: no progress)."""
    from repro.analysis.comparison import ChainScenario, comparison_table

    for table in comparison_table(ChainScenario(**chain)).values():
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
#: what a sweep command hands its row
_SWEEP_KEYWORDS = {
    **{name: name for name in ("values", "alive", "sizes", "level_size")}, **_SEEDED
}


def _run_sweep_command(
    name: str, *, executor: Executor, sizes=None, level_size=None, **call: Any
) -> Table:
    """The SWEEPS row ``name`` at what was typed: ``--sizes``, or
    ``scale-t``'s one ``--level-size``, resizes the row's scenario."""
    from repro.experiments.paper import SWEEPS, paper_table

    if level_size is not None:
        sizes = (level_size,)
    if sizes is not None:
        call["scenario"] = replace(SWEEPS[name].scenario, sizes=sizes)
    return paper_table(name, executor=executor, **call)


def _run_compare_command(*, executor: Executor, sizes=None, **call: Any) -> Table:
    from repro.experiments.comparisons import measured_comparison
    from repro.workloads.scenarios import PaperScenario

    if sizes is not None:
        call["scenario"] = PaperScenario(sizes=sizes)
    return measured_comparison(executor=executor, **call)


def _run_stream_command(*, executor: Executor, **call: Any) -> Table:
    from repro.experiments.multievent import stream_table

    return stream_table(executor=executor, **call)


def _run_repair_command(*, executor: Executor, sizes=None, **call: Any) -> Table:
    from repro.experiments.repair import REPAIR_SCENARIO, repair_comparison

    if sizes is not None:
        call["scenario"] = replace(REPAIR_SCENARIO, sizes=sizes)
    return repair_comparison(executor=executor, **call)


#: command → (driver, {driver keyword: parsed-argument attribute}); ``None``
#: hands the driver the parsed arguments whole. A keyword is passed only
#: when its option was typed, so the driver defaults the rest, and
#: ``sizes`` resizes the driver's own scenario. A driver that declares
#: ``executor`` also gets the one resolved from the shared execution
#: options, closed when it returns. It returns the table to print, or,
#: having printed its own report, an exit code.
_COMMANDS = {
    **{
        command: (functools.partial(_run_sweep_command, name), _SWEEP_KEYWORDS)
        for command, (name, _) in _SWEEP_COMMANDS.items()
    },
    "compare": (_run_compare_command, {"sizes": "sizes", **_SEEDED}),
    "analysis": (_run_analysis_command, {"sizes": "sizes", "p_succ": "p_succ"}),
    "tuning": (_run_tuning_command, None),
    "stream": (_run_stream_command, {"rates": "rates", **_SEEDED}),
    "repair": (
        _run_repair_command, {"alive_fraction": "alive", "sizes": "sizes", **_SEEDED}
    ),
    "scenario": (_run_scenario_command, None),
    "serve": (_run_serve_command, None),
    "lint": (_run_lint_command, None),
}


def _driver_call(args: argparse.Namespace, keywords) -> dict[str, Any]:
    """The driver's keyword arguments: the typed ones among ``keywords``."""
    if keywords is None:
        return {"args": args}
    call: dict[str, Any] = {"progress": _progress_printer(args)}
    for keyword, attribute in keywords.items():
        if attribute in args:
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
