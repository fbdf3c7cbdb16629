"""Unit tests for the scaling and steady-state-stream experiments."""

import pytest

from repro.experiments.multievent import run_stream, stream_table
from repro.experiments.paper import paper_table
from repro.workloads import PaperScenario

SMALL = PaperScenario(sizes=(3, 10, 40), p_succ=1.0)
#: the scale-S sweep's upper groups; its bottom group is the swept S
UPPER = PaperScenario(sizes=(3, 6, 1), p_succ=1.0)


class TestScaleSweeps:
    def test_group_size_columns_and_rows(self):
        table = paper_table("scale-S", values=(20, 40), scenario=UPPER, runs=1)
        assert list(table.columns) == [
            "S", "event_messages", "bottom_messages", "S_logS_c", "normalized",
        ]
        assert [row["S"] for row in table.as_dicts()] == [20, 40]

    def test_group_size_normalization_near_one(self):
        table = paper_table("scale-S", values=(100, 400), scenario=UPPER, runs=2)
        rows = table.as_dicts()
        for row in rows:
            assert 0.6 <= row["normalized"] <= 1.4
        # flat in S (the fan-out's ceil() is the wiggle room), and the
        # bottom group dominates the total as it grows
        normalized = [row["normalized"] for row in table.as_dicts()]
        assert max(normalized) / min(normalized) <= 1.25
        assert rows[-1]["bottom_messages"] >= 0.9 * rows[-1]["event_messages"]

    def test_depth_rows(self):
        table = paper_table(
            "scale-t", values=(1, 2), scenario=PaperScenario(sizes=(20,), p_succ=1.0), runs=1
        )
        rows = table.as_dicts()
        assert rows[0]["levels"] == 2
        assert rows[1]["levels"] == 3
        assert rows[1]["event_messages"] > rows[0]["event_messages"]

    def test_depth_per_level_flat(self):
        table = paper_table(
            "scale-t", values=(1, 3), scenario=PaperScenario(sizes=(30,), p_succ=1.0), runs=2
        )
        per_level = [row["per_level"] for row in table.as_dicts()]
        assert max(per_level) / min(per_level) <= 1.3
        # g·a more inter-group events per crossed edge
        inter = [row["inter_messages"] for row in table.as_dicts()]
        assert inter[-1] > inter[0]


class TestStream:
    def test_run_stream_metrics_shape(self):
        metrics = run_stream(
            scenario=SMALL, rate=0.3, horizon=30.0, seed=1
        )
        assert set(metrics) == {
            "events",
            "messages_per_event",
            "mean_delivery",
            "min_delivery",
            "parasites",
        }
        assert metrics["events"] >= 1
        assert metrics["parasites"] == 0.0
        assert 0.0 <= metrics["min_delivery"] <= metrics["mean_delivery"] <= 1.0
        assert metrics["mean_delivery"] >= 0.95  # mixed topics, none starved

    def test_empty_stream_degenerates_cleanly(self):
        metrics = run_stream(
            scenario=SMALL, rate=0.001, horizon=0.5, seed=2
        )
        if metrics["events"] == 0:
            assert metrics["mean_delivery"] == 1.0
            assert metrics["messages_per_event"] == 0.0

    def test_stream_deterministic_per_seed(self):
        a = run_stream(scenario=SMALL, rate=0.3, horizon=20.0, seed=5)
        b = run_stream(scenario=SMALL, rate=0.3, horizon=20.0, seed=5)
        assert a == b

    def test_stream_table_rows(self):
        table = stream_table(
            rates=(0.2, 0.4), runs=1, scenario=SMALL, publish_levels=(2,)
        )
        assert [row["rate"] for row in table.as_dicts()] == [0.2, 0.4]
        for row in table.as_dicts():
            assert row["parasites"] == 0.0

    def test_single_level_cost_rate_independent(self):
        table = stream_table(
            rates=(0.2, 0.6), runs=2, scenario=SMALL, publish_levels=(2,)
        )
        costs = [row["messages_per_event"] for row in table.as_dicts()]
        assert max(costs) / min(costs) <= 1.35
        # no degradation over the stream at either rate
        for row in table.as_dicts():
            assert row["mean_delivery"] >= 0.95
            assert row["min_delivery"] >= 0.7
