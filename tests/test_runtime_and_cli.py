"""Tests for the SimulationHarness bundle and the CLI entry points."""

import argparse
import random

import pytest

from repro.baselines.common import BaselineSystem
from repro.cli import _build_parser, main
from repro.core.columnar import ColumnarStaticSystem
from repro.core.system import DaMulticastSystem
from repro.net import Network
from repro.runtime import SimulationHarness
from repro.sim import Engine


class TestHarness:
    def test_pid_allocation_sequential(self):
        harness = SimulationHarness(seed=0)
        assert [harness.next_pid() for _ in range(3)] == [0, 1, 2]

    def test_run_and_now(self):
        harness = SimulationHarness(seed=0)
        harness.engine.schedule(5.0, lambda: None)
        harness.run_until_idle()
        assert harness.now == 5.0

    def test_is_alive_default(self):
        harness = SimulationHarness(seed=0)
        assert harness.is_alive(0)

    def test_same_seed_same_network_randomness(self):
        a = SimulationHarness(seed=5).rngs.stream("network").random()
        b = SimulationHarness(seed=5).rngs.stream("network").random()
        assert a == b

    def test_stats_are_the_networks(self):
        harness = SimulationHarness(seed=0)
        assert harness.stats is harness.network.stats
        assert harness.stats.total_sent == 0

    @pytest.mark.parametrize(
        "construct",
        [
            lambda **kw: Network(Engine(), random.Random(0), **kw),
            lambda **kw: SimulationHarness(seed=0, **kw),
            lambda **kw: DaMulticastSystem(seed=0, **kw),
            lambda **kw: ColumnarStaticSystem(seed=0, **kw),
            lambda **kw: BaselineSystem(seed=0, **kw),
        ],
        ids=[
            "Network",
            "SimulationHarness",
            "DaMulticastSystem",
            "ColumnarStaticSystem",
            "BaselineSystem",
        ],
    )
    def test_no_constructor_takes_a_trace(self, construct):
        construct()  # the defaults build
        with pytest.raises(TypeError, match="trace"):
            construct(trace=True)


def _help_argvs() -> list[list[str]]:
    """``--help`` at the top level and under every subcommand, nested
    ones (``scenario run``, ...) included."""
    commands = [[]]

    def walk(parser: argparse.ArgumentParser, prefix: list[str]) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    commands.append([*prefix, name])
                    walk(child, [*prefix, name])

    walk(_build_parser(), [])
    return [[*command, "--help"] for command in commands]


class TestCli:
    @pytest.mark.parametrize("argv", _help_argvs(), ids=" ".join)
    def test_help_renders_without_a_suppressed_default(self, capsys, argv):
        # an option a driver defaults is SUPPRESSed; its help must say where
        # the default lives, never render %(default)s over SUPPRESS
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage:")
        assert "SUPPRESS" not in out

    def test_analysis_command(self, capsys):
        assert main(["analysis"]) == 0
        out = capsys.readouterr().out
        assert "Message complexity" in out
        assert "daMulticast" in out
        assert "hierarchical (c)" in out

    def test_tuning_command(self, capsys):
        assert main(["tuning", "--c", "1.0", "--pit", "0.999"]) == 0
        out = capsys.readouterr().out
        assert "multicast" in out
        assert "z_bound" in out

    def test_fig9_small(self, capsys):
        code = main([
            "fig9",
            "--runs", "1",
            "--grid", "1.0",
            "--sizes", "3", "8", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert "T2->T1" in out

    def test_fig10_small(self, capsys):
        code = main([
            "fig10",
            "--runs", "1",
            "--grid", "0.5", "1.0",
            "--sizes", "3", "8", "20",
        ])
        assert code == 0
        assert "recv_T2" in capsys.readouterr().out

    def test_compare_small(self, capsys):
        code = main(["compare", "--runs", "1", "--sizes", "3", "8", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "broadcast (a)" in out
        assert "parasites" in out

    def test_ablate_g_small(self, capsys):
        code = main(["ablate-g", "--runs", "1", "--values", "1", "5"])
        assert code == 0
        assert "recv_root" in capsys.readouterr().out

    def test_scale_s_small(self, capsys):
        code = main(["scale-s", "--runs", "1", "--values", "30", "60"])
        assert code == 0
        assert "normalized" in capsys.readouterr().out

    def test_scale_t_small(self, capsys):
        code = main(
            ["scale-t", "--runs", "1", "--values", "1", "2", "--level-size", "20"]
        )
        assert code == 0
        assert "per_level" in capsys.readouterr().out

    def test_stream_small(self, capsys):
        code = main(["stream", "--runs", "1", "--rates", "0.1"])
        assert code == 0
        assert "messages_per_event" in capsys.readouterr().out

    def test_jobs_flag_top_level_identical_output(self, capsys):
        args = ["fig10", "--runs", "2", "--grid", "0.5", "1.0",
                "--sizes", "3", "8", "20"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "2", *args]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_jobs_flag_subcommand_position(self, capsys):
        code = main([
            "fig9", "--jobs", "2",
            "--runs", "2", "--grid", "0.5", "1.0",
            "--sizes", "3", "8", "20",
        ])
        assert code == 0
        assert "T2->T1" in capsys.readouterr().out

    def test_progress_flag_reports_points(self, capsys):
        code = main([
            "--progress", "fig10",
            "--runs", "1", "--grid", "1.0", "--sizes", "3", "8", "20",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "[1/1]" in captured.err
        assert "recv_T2" in captured.out

    def test_progress_flag_subcommand_position(self, capsys):
        code = main([
            "fig10", "--runs", "1", "--grid", "1.0",
            "--sizes", "3", "8", "20", "--progress",
        ])
        assert code == 0
        assert "[1/1]" in capsys.readouterr().err

    def test_progress_flag_non_figure_commands(self, capsys):
        # --progress must report on every sweep subcommand, not just
        # the figure ones.
        assert main(["--progress", "stream", "--runs", "1",
                     "--rates", "0.1", "0.3"]) == 0
        assert "[2/2]" in capsys.readouterr().err
        assert main(["--progress", "compare", "--runs", "2",
                     "--sizes", "3", "8", "20"]) == 0
        assert "[2/2]" in capsys.readouterr().err
        assert main(["--progress", "ablate-c", "--runs", "1",
                     "--values", "0", "5"]) == 0
        assert "[2/2]" in capsys.readouterr().err

    def test_stream_jobs_identical_output(self, capsys):
        args = ["stream", "--runs", "2", "--rates", "0.1", "0.3"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_compare_jobs_identical_output(self, capsys):
        args = ["compare", "--runs", "2", "--sizes", "3", "8", "20"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "2", *args]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize(
        "argv",
        [
            ["ablate-g", "--runs", "1", "--values", "5"],
            ["ablate-c", "--runs", "1", "--values", "5"],
            ["scale-s", "--runs", "1", "--values", "20", "40"],
            ["scale-t", "--runs", "1", "--values", "1", "2", "--level-size", "15"],
            ["stream", "--runs", "1", "--rates", "0.2"],
        ],
    )
    def test_every_sweep_command_can_be_reseeded(self, capsys, argv):
        # these five took no --seed (argparse exit 2) though every driver
        # takes master_seed
        tables = []
        for seed in ([], ["--seed", "0"], ["--seed", "1"]):
            assert main([*argv, *seed]) == 0
            tables.append(capsys.readouterr().out)
        default, zero, one = tables
        assert zero == default  # what the command printed before it had a seed
        assert one != default

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["--jobs", "0", "fig10", "--runs", "1"], "jobs must be >= 1"),
            (["fig10", "--runs", "0"], "runs must be >= 1"),
            (["ablate-g", "--values", "nan"], "NaN"),
        ],
    )
    def test_a_bad_option_is_one_error_line_on_every_command(
        self, capsys, argv, complaint
    ):
        # not only on `scenario` and `serve`: no traceback, exit code 2
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and complaint in captured.err
        assert captured.err.count("\n") == 1
