"""Tests for the experiment harness (runner, the paper's sweeps, comparisons).

Figure experiments run on a scaled-down scenario to stay fast; the
paper-scale shapes are asserted once, on three grid points, by
``TestPaperScaleFigures``.
"""

import functools
import math
import statistics
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cli import main
from repro.core.params import TopicParams
from repro.errors import ConfigError
from repro.experiments import aggregate_runs, run_sweep
from repro.experiments.comparisons import measured_comparison
from repro.experiments.multievent import stream_table
from repro.experiments.paper import _alive_point, _cell, paper_table
from repro.experiments.repair import repair_comparison
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

# Three commands the tables above do not pin (the CLI passes float
# values, so `ablate-g --values 1 5` seeds "ablation-g/1.0/0" where the
# call below seeds "ablation-g/1/0"), recorded by running `python -m repro`
# with these arguments before the figure, ablation and scale drivers
# became the rows of repro.experiments.paper.SWEEPS.
CLI_GOLDENS = {
    "ablate-g": (
        "Ablation — link redundancy g (alive=0.5)",
        "========================================",
        "g      recv_root  recv_bottom  inter_msgs  analytic_root",
        "-----  ---------  -----------  ----------  -------------",
        "1.000  0.000      0.483        2.000       0.177        ",
        "5.000  0.000      0.486        2.000       0.861        ",
    ),
    "ablate-c": (
        "Ablation — gossip constant c (alive=1.0)",
        "========================================",
        "c      recv_bottom  event_msgs  analytic_one_group",
        "-----  -----------  ----------  ------------------",
        "0.000  0.912        2902.000    0.368             ",
        "5.000  0.997        8723.000    0.993             ",
    ),
    "scale-s": (
        "Scaling — event messages vs bottom group size S (c=5.0, log base 10)",
        "====================================================================",
        "S   event_messages  bottom_messages  S_logS_c  normalized",
        "--  --------------  ---------------  --------  ----------",
        "20  268.000         120.000          126.021   0.952     ",
        "40  426.000         280.000          264.082   1.060     ",
    ),
}

#: name -> the call whose rendered table is recorded above.
RECORDED_CALLS = {
    **{
        figure: functools.partial(
            paper_table, figure, values=(0.5, 1.0), runs=2, scenario=TINY
        )
        for figure in ("fig8", "fig9", "fig10", "fig11")
    },
    "ablation-g": functools.partial(
        paper_table, "ablation-g", values=(1, 5), runs=2, scenario=TINY
    ),
    "ablation-c": functools.partial(
        paper_table, "ablation-c", values=(0, 5), runs=2, scenario=TINY
    ),
    "scale-S": functools.partial(
        paper_table,
        "scale-S",
        values=(20, 40),
        runs=2,
        scenario=PaperScenario(sizes=(3, 6, 20), p_succ=1.0),
    ),
    "scale-t": functools.partial(
        paper_table,
        "scale-t",
        values=(1, 2),
        runs=2,
        scenario=PaperScenario(sizes=(15,), p_succ=1.0),
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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(), st.integers(-(2**80), 2**80)))
    @example(-0.0)
    @example(float("nan"))
    @example(-float("nan"))
    @example(float("inf"))
    @example(-float("inf"))
    @example(5e-324)
    @example(-5e-324)
    @example(2**53 + 1)
    def test_one_run_fold_is_fsum_bit_for_bit(self, value):
        means, stds = aggregate_runs([{"x": value}])
        expected = math.fsum([float(value)]) / 1
        assert struct.pack("<d", means["x"]) == struct.pack("<d", expected)
        assert struct.pack("<d", stds["x"]) == struct.pack("<d", 0.0)

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

    def test_run_sweep_refuses_points_with_different_metric_keys(self):
        # Ragged columns would report b's value from x = 1.0 at x = 0.0.
        def run(x, seed):
            return {"a": 1.0} if x == 0.0 else {"a": 1.0, "b": 2.0}

        with pytest.raises(ConfigError, match=r"point 1\.0 .*\['b'\]"):
            run_sweep(run, [0.0, 1.0], runs=1)

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
        table = paper_table("fig8", values=GRID, runs=2, scenario=SMALL)
        assert list(table.columns) == [
            "alive_fraction", "msgs_T2", "msgs_T1", "msgs_T0",
        ]
        msgs_t2 = [row["msgs_T2"] for row in table.as_dicts()]
        assert msgs_t2[-1] > msgs_t2[0]  # more alive -> more messages

    def test_figure8_full_aliveness_scale(self):
        table = paper_table("fig8", values=(1.0,), runs=1, scenario=SMALL)
        fanout = TopicParams(c=SMALL.c, fanout_log_base=SMALL.fanout_log_base).fanout(64)
        (row,) = table.as_dicts()
        assert row["msgs_T2"] == pytest.approx(64 * fanout, rel=0.2)

    def test_figure9_columns(self):
        table = paper_table("fig9", values=GRID, runs=2, scenario=SMALL)
        assert list(table.columns) == ["alive_fraction", "T2->T1", "T1->T0"]
        assert table.as_dicts()[-1]["T2->T1"] >= 1

    def test_figure10_full_aliveness_near_one(self):
        table = paper_table("fig10", values=(1.0,), runs=2, scenario=SMALL)
        row = table.as_dicts()[0]
        assert row["recv_T2"] >= 0.9
        assert row["recv_T1"] >= 0.9
        assert row["recv_T0"] >= 0.9

    def test_figure10_midrange_ordering(self):
        # With stillborn failures, lower groups (closer to the root) see
        # compounded losses: recv_T2 >= recv_T0 on average.
        table = paper_table("fig10", values=(0.4,), runs=6, scenario=SMALL)
        row = table.as_dicts()[0]
        assert row["recv_T2"] >= row["recv_T0"] - 1e-9

    def test_figure11_beats_figure10_midrange(self):
        alive = 0.5
        fig10 = paper_table("fig10", values=(alive,), runs=4, scenario=SMALL)
        fig11 = paper_table("fig11", values=(alive,), runs=4, scenario=SMALL)
        # Dynamic (transient) failures give markedly better delivery than
        # stillborn failures — the paper's Fig. 11 observation.
        assert fig11.as_dicts()[0]["recv_T2"] > fig10.as_dicts()[0]["recv_T2"]
        assert (
            fig11.as_dicts()[0]["recv_T0"] >= fig10.as_dicts()[0]["recv_T0"] - 1e-9
        )

    @pytest.mark.parametrize("name", sorted(RECORDED_CALLS))
    def test_tables_byte_identical_to_recorded(self, name):
        recorded = {**FIGURE_GOLDENS, **DRIVER_GOLDENS}[name]
        assert RECORDED_CALLS[name]().render().split("\n") == list(recorded)

    def test_zero_aliveness_kills_dissemination(self):
        table = paper_table("fig10", values=(0.0,), runs=1, scenario=SMALL)
        row = table.as_dicts()[0]
        # Only the protected publisher is alive; nobody else receives.
        assert row["recv_T0"] == 0.0
        assert row["recv_T2"] <= 2 / 64  # the publisher itself


class TestPaperScaleFigures:
    """§VII at its own scale (10/100/1000, five runs per point): the
    numbers the paper's figures are read for, at the tolerances the
    deleted ``bench_fig08…11`` files held them to. One stillborn sweep
    feeds Figs. 8–10 — one cell reports every figure's series."""

    @pytest.fixture(scope="class")
    def stillborn(self):
        keys = [
            f"{series}_T{level}"
            for series in ("intra", "received")
            for level in range(3)
        ] + ["inter_T1_T0", "inter_T2_T1"]
        sweep = run_sweep(
            functools.partial(
                _cell,
                point=_alive_point,
                scenario=PaperScenario(),
                alive=1.0,
                keys=keys,
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
        table = paper_table("fig11", values=(0.5, 1.0), runs=5)
        half, full = table.as_dicts()
        assert full["recv_T2"] >= 0.97
        assert half["recv_T2"] > stillborn[0.5]["received_T2"] + 0.1
        assert half["recv_T2"] >= 0.8


class TestCommandsPrintTheRecordedTables:
    @pytest.mark.parametrize(
        "name, argv",
        [
            *(
                (figure, f"{figure} --runs 2 --grid 0.5 1.0 --sizes 3 8 20")
                for figure in ("fig8", "fig9", "fig10", "fig11")
            ),
            ("ablate-g", "ablate-g --runs 1 --values 1 5 --alive 0.5"),
            ("ablate-c", "ablate-c --runs 1 --values 0 5"),
            ("scale-s", "scale-s --runs 2 --values 20 40"),
            ("scale-t", "scale-t --runs 2 --values 1 2 --level-size 15 --seed 0"),
            ("repair", "repair --runs 1 --sizes 3 6 12"),
        ],
    )
    def test_command_at_the_recorded_parameters(self, capsys, name, argv):
        recorded = {**FIGURE_GOLDENS, **DRIVER_GOLDENS, **CLI_GOLDENS}[name]
        assert main(argv.split()) == 0
        assert capsys.readouterr().out.rstrip("\n").split("\n") == list(recorded)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("ablate-g --values -1", "g must be >= 1"),
            ("scale-s --values 0", "has no subscribers"),
            ("scale-t --values 1 --level-size 0", "population must not be empty"),
        ],
    )
    def test_a_bad_sweep_value_is_a_config_error(self, capsys, argv, message):
        # every point compiles before any cell runs: exit 2, no traceback
        assert main(argv.split()) == 2
        assert message in capsys.readouterr().err


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
        table = paper_table(
            "ablation-g", values=(1, 20), scenario=SMALL, alive=0.6, runs=3
        )
        inter = [row["inter_msgs"] for row in table.as_dicts()]
        assert inter[-1] > inter[0]  # more links -> more inter messages
        # ...and no worse root delivery, as the pit-based prediction says
        recv_root = [row["recv_root"] for row in table.as_dicts()]
        assert recv_root[-1] >= recv_root[0] - 0.05
        analytic = [row["analytic_root"] for row in table.as_dicts()]
        assert analytic[-1] >= analytic[0]

    def test_link_redundancy_analytic_column(self):
        table = paper_table("ablation-g", values=(5,), scenario=SMALL, runs=1)
        analytic = table.as_dicts()[0]["analytic_root"]
        assert 0.0 <= analytic <= 1.0

    def test_fanout_constant_tradeoff(self):
        table = paper_table("ablation-c", values=(0, 5), scenario=SMALL, runs=3)
        rows = table.as_dicts()
        assert rows[1]["event_msgs"] > rows[0]["event_msgs"]
        assert rows[1]["recv_bottom"] >= rows[0]["recv_bottom"] - 1e-9
        assert rows[1]["recv_bottom"] >= 0.97  # c=5: e^{-e^{-5}} territory
        assert rows[1]["analytic_one_group"] > rows[0]["analytic_one_group"]
