"""Tests for the experiment harness (runner, figures, comparisons, ablations).

Figure experiments run on a scaled-down scenario to stay fast; the
full-scale shapes are asserted by the benchmarks.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    aggregate_runs,
    measured_comparison,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_sweep,
)
from repro.experiments.ablations import (
    sweep_fanout_constant,
    sweep_link_redundancy,
)
from repro.workloads import PaperScenario

SMALL = PaperScenario(sizes=(4, 16, 64))
GRID = (0.3, 1.0)


# `python -m repro figN --runs 2 --grid 0.5 1.0 --sizes 3 8 20`, recorded
# before the four run_figureN bodies became one table and one runner.
# The labels "fig8"…"fig11" are seed names, so any change shows here.
FIGURE_GOLDENS = {
    "fig8": (
        "Fig. 8 — events sent within each group",
        "======================================",
        "alive_fraction  msgs_T2  msgs_T1  msgs_T0",
        "--------------  -------  -------  -------",
        "0.500           48.000   16.000   1.000  ",
        "1.000           120.000  32.000   6.000  ",
    ),
    "fig9": (
        "Fig. 9 — events sent between groups",
        "===================================",
        "alive_fraction  T2->T1  T1->T0",
        "--------------  ------  ------",
        "0.500           4.000   1.500 ",
        "1.000           4.500   3.500 ",
    ),
    "fig10": (
        "Fig. 10 — reliability (stillborn processes)",
        "===========================================",
        "alive_fraction  recv_T2  recv_T1  recv_T0",
        "--------------  -------  -------  -------",
        "0.500           0.475    0.312    0.000  ",
        "1.000           1.000    1.000    1.000  ",
    ),
    "fig11": (
        "Fig. 11 — reliability (dynamically failed processes)",
        "====================================================",
        "alive_fraction  recv_T2  recv_T1  recv_T0",
        "--------------  -------  -------  -------",
        "0.500           0.925    0.500    0.500  ",
        "1.000           1.000    1.000    1.000  ",
    ),
}


class TestRunner:
    def test_aggregate_mean_std(self):
        means, stds = aggregate_runs([{"x": 1.0}, {"x": 3.0}])
        assert means["x"] == 2.0
        assert stds["x"] == pytest.approx(1.4142, rel=1e-3)

    def test_aggregate_single_run_zero_std(self):
        means, stds = aggregate_runs([{"x": 5.0}])
        assert stds["x"] == 0.0

    def test_aggregate_rejects_mismatched_keys(self):
        with pytest.raises(ConfigError):
            aggregate_runs([{"x": 1.0}, {"y": 2.0}])

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ConfigError):
            aggregate_runs([])

    def test_run_sweep_shape(self):
        result = run_sweep(
            lambda x, seed: {"y": x * 2}, [1.0, 2.0, 3.0], runs=2
        )
        assert result.points == [1.0, 2.0, 3.0]
        assert result.means["y"] == [2.0, 4.0, 6.0]
        assert result.series("y") == [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]

    def test_run_sweep_seeds_differ_across_runs(self):
        seen = []
        run_sweep(
            lambda x, seed: seen.append(seed) or {"y": 0.0}, [1.0], runs=3
        )
        assert len(set(seen)) == 3

    def test_run_sweep_deterministic(self):
        collect = lambda: run_sweep(
            lambda x, seed: {"y": seed % 1000}, [1.0, 2.0], runs=2
        ).means["y"]
        assert collect() == collect()

    def test_run_sweep_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(lambda x, s: {"y": 0.0}, [], runs=1)
        with pytest.raises(ConfigError):
            run_sweep(lambda x, s: {"y": 0.0}, [1.0], runs=0)


class TestFigures:
    def test_figure8_columns_and_monotone_scale(self):
        table = run_figure8(grid=GRID, runs=2, scenario=SMALL)
        assert list(table.columns) == [
            "alive_fraction", "msgs_T2", "msgs_T1", "msgs_T0",
        ]
        msgs_t2 = table.column("msgs_T2")
        assert msgs_t2[-1] > msgs_t2[0]  # more alive -> more messages

    def test_figure8_full_aliveness_scale(self):
        table = run_figure8(grid=(1.0,), runs=1, scenario=SMALL)
        fanout = SMALL.params().fanout(64)
        assert table.column("msgs_T2")[0] == pytest.approx(64 * fanout, rel=0.2)

    def test_figure9_columns(self):
        table = run_figure9(grid=GRID, runs=2, scenario=SMALL)
        assert list(table.columns) == ["alive_fraction", "T2->T1", "T1->T0"]
        assert table.column("T2->T1")[-1] >= 1

    def test_figure10_full_aliveness_near_one(self):
        table = run_figure10(grid=(1.0,), runs=2, scenario=SMALL)
        row = table.as_dicts()[0]
        assert row["recv_T2"] >= 0.9
        assert row["recv_T1"] >= 0.9
        assert row["recv_T0"] >= 0.9

    def test_figure10_midrange_ordering(self):
        # With stillborn failures, lower groups (closer to the root) see
        # compounded losses: recv_T2 >= recv_T0 on average.
        table = run_figure10(grid=(0.4,), runs=6, scenario=SMALL)
        row = table.as_dicts()[0]
        assert row["recv_T2"] >= row["recv_T0"] - 1e-9

    def test_figure11_beats_figure10_midrange(self):
        alive = 0.5
        fig10 = run_figure10(grid=(alive,), runs=4, scenario=SMALL)
        fig11 = run_figure11(grid=(alive,), runs=4, scenario=SMALL)
        # Dynamic (transient) failures give markedly better delivery than
        # stillborn failures — the paper's Fig. 11 observation.
        assert fig11.column("recv_T2")[0] > fig10.column("recv_T2")[0]
        assert (
            fig11.column("recv_T0")[0] >= fig10.column("recv_T0")[0] - 1e-9
        )

    @pytest.mark.parametrize("name", sorted(FIGURE_GOLDENS))
    def test_tables_byte_identical_to_recorded(self, name):
        runner = {
            "fig8": run_figure8,
            "fig9": run_figure9,
            "fig10": run_figure10,
            "fig11": run_figure11,
        }[name]
        table = runner(
            grid=(0.5, 1.0), runs=2, scenario=PaperScenario(sizes=(3, 8, 20))
        )
        assert table.render().split("\n") == list(FIGURE_GOLDENS[name])

    def test_zero_aliveness_kills_dissemination(self):
        table = run_figure10(grid=(0.0,), runs=1, scenario=SMALL)
        row = table.as_dicts()[0]
        # Only the protected publisher is alive; nobody else receives.
        assert row["recv_T0"] == 0.0
        assert row["recv_T2"] <= 2 / 64  # the publisher itself


class TestComparisons:
    def test_measured_comparison_story(self):
        table = measured_comparison(scenario=SMALL, runs=1)
        rows = {row["algorithm"]: row for row in table.as_dicts()}
        assert set(rows) == {
            "daMulticast", "broadcast (a)", "multicast (b)", "hierarchical (c)",
        }
        # The paper's qualitative claims:
        assert rows["daMulticast"]["parasites"] == 0.0
        assert rows["multicast (b)"]["parasites"] == 0.0
        assert rows["broadcast (a)"]["parasites"] > 0
        assert rows["hierarchical (c)"]["parasites"] > 0
        assert rows["daMulticast"]["tables_max"] == 2.0
        assert rows["broadcast (a)"]["tables_max"] == 1.0
        assert rows["multicast (b)"]["tables_max"] == 3.0
        # daMulticast never uses more event messages than broadcast.
        assert (
            rows["daMulticast"]["event_messages"]
            <= rows["broadcast (a)"]["event_messages"]
        )


class TestAblations:
    def test_link_redundancy_monotone(self):
        table = sweep_link_redundancy(
            g_values=(1, 20), scenario=SMALL, alive_fraction=0.6, runs=3
        )
        inter = table.column("inter_msgs")
        assert inter[-1] > inter[0]  # more links -> more inter messages

    def test_link_redundancy_analytic_column(self):
        table = sweep_link_redundancy(
            g_values=(5,), scenario=SMALL, runs=1
        )
        analytic = table.column("analytic_root")[0]
        assert 0.0 <= analytic <= 1.0

    def test_fanout_constant_tradeoff(self):
        table = sweep_fanout_constant(
            c_values=(0, 5), scenario=SMALL, runs=3
        )
        rows = table.as_dicts()
        assert rows[1]["event_msgs"] > rows[0]["event_msgs"]
        assert rows[1]["recv_bottom"] >= rows[0]["recv_bottom"] - 1e-9
        assert rows[1]["analytic_one_group"] > rows[0]["analytic_one_group"]
