"""Tests for the experiment harness (runner, figures, comparisons, ablations).

Figure experiments run on a scaled-down scenario to stay fast; the
paper-scale shapes are asserted once, on three grid points, by
``TestPaperScaleFigures``.
"""

import functools
import statistics

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cli import main
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
from repro.experiments.figures import _run_scenario_once
from repro.experiments.ablations import (
    sweep_fanout_constant,
    sweep_link_redundancy,
)
from repro.experiments.multievent import stream_table
from repro.experiments.repair import repair_comparison
from repro.experiments.scale import sweep_depth, sweep_group_size
from repro.workloads import PaperScenario

SMALL = PaperScenario(sizes=(4, 16, 64))
TINY = PaperScenario(sizes=(3, 8, 20))
GRID = (0.3, 1.0)


# `python -m repro figN --runs 2 --grid 0.5 1.0 --sizes 3 8 20`, recorded
# before the four run_figureN bodies became one table and one runner.
# The labels "fig8"…"fig11" are seed names, so any change shows here.
# Re-recorded once, when the publisher and stillborn draws moved from the
# "scenario" stream to "spec/scenario" (the one surviving build path).
FIGURE_GOLDENS = {
    "fig8": (
        "Fig. 8 — events sent within each group",
        "======================================",
        "alive_fraction  msgs_T2  msgs_T1  msgs_T0",
        "--------------  -------  -------  -------",
        "0.500           54.000   8.000    0.000  ",
        "1.000           120.000  30.000   6.000  ",
    ),
    "fig9": (
        "Fig. 9 — events sent between groups",
        "===================================",
        "alive_fraction  T2->T1  T1->T0",
        "--------------  ------  ------",
        "0.500           6.000   0.000 ",
        "1.000           5.500   3.500 ",
    ),
    "fig10": (
        "Fig. 10 — reliability (stillborn processes)",
        "===========================================",
        "alive_fraction  recv_T2  recv_T1  recv_T0",
        "--------------  -------  -------  -------",
        "0.500           0.475    0.438    0.000  ",
        "1.000           1.000    1.000    1.000  ",
    ),
    "fig11": (
        "Fig. 11 — reliability (dynamically failed processes)",
        "====================================================",
        "alive_fraction  recv_T2  recv_T1  recv_T0",
        "--------------  -------  -------  -------",
        "0.500           0.975    0.562    0.833  ",
        "1.000           1.000    1.000    1.000  ",
    ),
}


# The other seven drivers, recorded on the parent of the change that made
# CompiledSpec.build the one scenario build (with only the stream label at
# scenarios.py:114 changed), so every driver table is byte-pinned.
DRIVER_GOLDENS = {
    "ablation-g": (
        "Ablation — link redundancy g (alive=0.7)",
        "========================================",
        "g  recv_root  recv_bottom  inter_msgs  analytic_root",
        "-  ---------  -----------  ----------  -------------",
        "1  0.000      0.725        1.500       0.347        ",
        "5  0.000      0.725        6.500       0.959        ",
    ),
    "ablation-c": (
        "Ablation — gossip constant c (alive=1.0)",
        "========================================",
        "c  recv_bottom  event_msgs  analytic_one_group",
        "-  -----------  ----------  ------------------",
        "0  0.675        39.000      0.368             ",
        "5  1.000        170.000     0.993             ",
    ),
    "scale-S": (
        "Scaling — event messages vs bottom group size S (c=5.0, log base 10)",
        "====================================================================",
        "S   event_messages  bottom_messages  S_logS_c  normalized",
        "--  --------------  ---------------  --------  ----------",
        "20  162.000         120.000          126.021   0.952     ",
        "40  318.500         280.000          264.082   1.060     ",
    ),
    "scale-t": (
        "Scaling — total event messages vs hierarchy depth t (S=15 per level)",
        "====================================================================",
        "t  levels  event_messages  per_level  inter_messages",
        "-  ------  --------------  ---------  --------------",
        "1  2       156.500         78.250     6.500         ",
        "2  3       234.000         78.000     9.000         ",
    ),
    "comparison": (
        "§VI-E measured comparison (means over 2 runs; publication on the "
        "bottom topic)",
        "=" * 78,
        "algorithm         event_messages  memory_mean  memory_max  "
        "tables_max  delivered_interested  parasites",
        "----------------  --------------  -----------  ----------  "
        "----------  --------------------  ---------",
        "daMulticast       170.50          7.81         9.00        "
        "2.00        1.00                  0.00     ",
        "broadcast (a)     186.00          6.00         6.00        "
        "1.00        1.00                  20.00    ",
        "multicast (b)     186.00          7.97         13.00       "
        "3.00        1.00                  0.00     ",
        "hierarchical (c)  213.50          7.00         7.00        "
        "2.00        0.98                  20.00    ",
    ),
    "stream": (
        "Steady-state stream — per-event cost and delivery vs arrival rate",
        "=================================================================",
        "rate   events  messages_per_event  mean_delivery  min_delivery  "
        "parasites",
        "-----  ------  ------------------  -------------  ------------  "
        "---------",
        "0.200  20.000  108.058             0.997          0.875         "
        "0.000    ",
    ),
    "repair": (
        "Frozen membership (paper's pessimistic §VII setting) vs live "
        "repair — delivery among survivors at alive=0.6",
        "=" * 107,
        "mode      bottom_delivery  root_delivery",
        "--------  ---------------  -------------",
        "frozen    1.000            1.000        ",
        "repaired  1.000            1.000        ",
    ),
}

#: name -> the call whose rendered table is recorded above.
RECORDED_CALLS = {
    "fig8": functools.partial(
        run_figure8, grid=(0.5, 1.0), runs=2, scenario=TINY
    ),
    "fig9": functools.partial(
        run_figure9, grid=(0.5, 1.0), runs=2, scenario=TINY
    ),
    "fig10": functools.partial(
        run_figure10, grid=(0.5, 1.0), runs=2, scenario=TINY
    ),
    "fig11": functools.partial(
        run_figure11, grid=(0.5, 1.0), runs=2, scenario=TINY
    ),
    "ablation-g": functools.partial(
        sweep_link_redundancy, g_values=(1, 5), runs=2, scenario=TINY
    ),
    "ablation-c": functools.partial(
        sweep_fanout_constant, c_values=(0, 5), runs=2, scenario=TINY
    ),
    "scale-S": functools.partial(
        sweep_group_size, s_values=(20, 40), upper_sizes=(3, 6), runs=2
    ),
    "scale-t": functools.partial(
        sweep_depth, t_values=(1, 2), level_size=15, runs=2
    ),
    "comparison": functools.partial(measured_comparison, runs=2, scenario=TINY),
    "stream": functools.partial(
        stream_table, rates=(0.2,), runs=2, scenario=TINY
    ),
    "repair": functools.partial(
        repair_comparison,
        runs=1,
        scenario=PaperScenario(sizes=(3, 6, 12), p_succ=0.9),
    ),
}


# Finite floats with subnormals and large magnitudes; five of them sum
# without overflow, so statistics.fmean is defined on every draw.
_FLOATS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300]),
)


class TestRunner:
    def test_aggregate_mean_std(self):
        means, stds = aggregate_runs([{"x": 1.0}, {"x": 3.0}])
        assert means["x"] == 2.0
        assert stds["x"] == pytest.approx(1.4142, rel=1e-3)

    def test_aggregate_single_run_zero_std(self):
        means, stds = aggregate_runs([{"x": 5.0}])
        assert stds["x"] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from("zyxw"), min_size=1, max_size=4, unique=True
        ).flatmap(
            lambda keys: st.lists(
                st.fixed_dictionaries({key: _FLOATS for key in keys}),
                min_size=1, max_size=5,
            )
        )
    )
    def test_aggregate_is_fmean_and_stdev_bit_for_bit(self, samples):
        means, stds = aggregate_runs(samples)
        keys = sorted(samples[0])
        assert list(means) == keys and list(stds) == keys
        for key in keys:
            values = [sample[key] for sample in samples]
            expected = statistics.fmean(values)
            assert means[key] == expected
            assert means[key].hex() == expected.hex()
            spread = statistics.stdev(values) if len(values) > 1 else 0.0
            assert stds[key].hex() == spread.hex()

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

    @pytest.mark.parametrize("name", sorted(RECORDED_CALLS))
    def test_tables_byte_identical_to_recorded(self, name):
        recorded = {**FIGURE_GOLDENS, **DRIVER_GOLDENS}[name]
        assert RECORDED_CALLS[name]().render().split("\n") == list(recorded)

    def test_zero_aliveness_kills_dissemination(self):
        table = run_figure10(grid=(0.0,), runs=1, scenario=SMALL)
        row = table.as_dicts()[0]
        # Only the protected publisher is alive; nobody else receives.
        assert row["recv_T0"] == 0.0
        assert row["recv_T2"] <= 2 / 64  # the publisher itself


class TestPaperScaleFigures:
    """§VII at its own scale (10/100/1000, five runs per point): the
    numbers the paper's figures are read for, at the tolerances the
    deleted ``bench_fig08…11`` files held them to. One stillborn sweep
    feeds Figs. 8–10 — a run yields every figure's series."""

    @pytest.fixture(scope="class")
    def stillborn(self):
        sweep = run_sweep(
            functools.partial(
                _run_scenario_once,
                scenario=PaperScenario(),
                failure_mode="stillborn",
            ),
            (0.0, 0.5, 1.0),
            runs=5,
            label="fig10",
        )
        return {
            point: {key: values[i] for key, values in sweep.means.items()}
            for i, point in enumerate(sweep.points)
        }

    def test_figure8_peaks_at_s_log_s(self, stillborn):
        dead, half, full = (stillborn[alive] for alive in (0.0, 0.5, 1.0))
        # S·(log10 S + c) per group at full aliveness
        assert 7200 <= full["intra_T2"] <= 8000  # 1000 * 8
        assert 500 <= full["intra_T1"] <= 700  # 100 * 7
        assert 0 < full["intra_T0"] <= 60  # 10 * 6
        for row in (half, full):
            assert row["intra_T2"] >= row["intra_T1"] >= row["intra_T0"]
        # grows with aliveness, roughly linearly
        assert dead["intra_T2"] <= half["intra_T2"] <= full["intra_T2"]
        assert 0.3 * full["intra_T2"] <= half["intra_T2"] <= 0.7 * full["intra_T2"]

    def test_figure9_a_handful_of_events_cross_each_edge(self, stillborn):
        dead, half, full = (stillborn[alive] for alive in (0.0, 0.5, 1.0))
        # ≈ g·a plus the publisher's forced link: the paper's ~4.5 region
        assert 3.0 <= full["inter_T2_T1"] <= 8.0
        assert 3.0 <= full["inter_T1_T0"] <= 8.0
        # the headline: with half the processes dead, on average at least
        # one event still reaches the supergroup
        assert half["inter_T2_T1"] >= 1.0
        assert dead["inter_T1_T0"] == 0.0
        # constant in S — the point of p_sel = g/S
        assert all(row["inter_T2_T1"] <= 12.0 for row in stillborn.values())

    def test_figure10_reliability_follows_aliveness(self, stillborn):
        dead, half, full = (stillborn[alive] for alive in (0.0, 0.5, 1.0))
        assert full["received_T2"] >= 0.97
        assert full["received_T1"] >= 0.95
        assert full["received_T0"] >= 0.90
        assert dead["received_T2"] <= 0.01
        assert dead["received_T0"] == 0.0
        t2 = [row["received_T2"] for row in (dead, half, full)]
        assert all(b >= a - 0.05 for a, b in zip(t2, t2[1:]))
        # the root, two hops from the publication, cannot beat its group
        t0 = [row["received_T0"] for row in (dead, half, full)]
        assert sum(t2) >= sum(t0)
        # the dead cannot receive: at or below the diagonal
        for alive, row in stillborn.items():
            assert row["received_T2"] <= alive + 0.05

    def test_figure11_perceived_failures_hurt_far_less(self, stillborn):
        table = run_figure11(grid=(0.5, 1.0), runs=5, scenario=PaperScenario())
        half, full = table.as_dicts()
        assert full["recv_T2"] >= 0.97
        assert half["recv_T2"] > stillborn[0.5]["received_T2"] + 0.1
        assert half["recv_T2"] >= 0.8


class TestCommandsPrintTheRecordedTables:
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("fig10", "fig10 --runs 2 --grid 0.5 1.0 --sizes 3 8 20"),
            ("scale-t", "scale-t --runs 2 --values 1 2 --level-size 15 --seed 0"),
            ("repair", "repair --runs 1 --sizes 3 6 12"),
        ],
    )
    def test_command_at_the_recorded_parameters(self, capsys, name, argv):
        recorded = {**FIGURE_GOLDENS, **DRIVER_GOLDENS}[name]
        assert main(argv.split()) == 0
        assert capsys.readouterr().out.rstrip("\n").split("\n") == list(recorded)


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
        # ...and no worse root delivery, as the pit-based prediction says
        recv_root = table.column("recv_root")
        assert recv_root[-1] >= recv_root[0] - 0.05
        analytic = table.column("analytic_root")
        assert analytic[-1] >= analytic[0]

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
        assert rows[1]["recv_bottom"] >= 0.97  # c=5: e^{-e^{-5}} territory
        assert rows[1]["analytic_one_group"] > rows[0]["analytic_one_group"]
