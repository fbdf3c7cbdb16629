"""Unit tests for message types, scopes and latency models."""

import random

import pytest

from repro.core.events import Event, EventFactory, EventId
from repro.errors import ConfigError
from repro.net import (
    ConstantLatency,
    ExponentialLatency,
    UniformLatency,
    ZERO_LATENCY,
)
from repro.net.message import EventMessage, Scope
from repro.topics import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


class TestScope:
    def test_intra_scope(self):
        scope = Scope("intra", T2)
        assert scope.kind == "intra"
        assert scope.super_group is None

    def test_inter_scope_requires_super_group(self):
        with pytest.raises(ValueError):
            Scope("inter", T2)

    def test_inter_scope(self):
        scope = Scope("inter", T2, T1)
        assert scope.super_group == T1

    def test_scope_is_hashable_value(self):
        assert Scope("intra", T2) == Scope("intra", T2)
        assert len({Scope("intra", T2), Scope("intra", T2)}) == 1


class TestEventMessage:
    def test_default_hops(self):
        event = Event(EventId(1, 1), T2, None, 0.0)
        message = EventMessage(sender=1, event=event, scope=Scope("intra", T2))
        assert message.hops == 1
        assert message.kind == "event"

    def test_messages_are_immutable(self):
        event = Event(EventId(1, 1), T2, None, 0.0)
        message = EventMessage(sender=1, event=event, scope=Scope("intra", T2))
        with pytest.raises(AttributeError):
            message.hops = 5  # type: ignore[misc]


class TestEventFactory:
    def test_sequences_increase(self):
        factory = EventFactory(7)
        first = factory.create(T2, None, 0.0)
        second = factory.create(T2, None, 1.0)
        assert first.event_id.sequence < second.event_id.sequence
        assert first.event_id.publisher == 7

    def test_event_ids_unique_across_factories(self):
        a = EventFactory(1).create(T2, None, 0.0)
        b = EventFactory(2).create(T2, None, 0.0)
        assert a.event_id != b.event_id

    def test_str_forms(self):
        event = EventFactory(3).create(T2, None, 0.0)
        assert str(event.event_id) == "e3.1"
        assert ".t1.t2" in str(event)


class TestLatencyModels:
    def test_constant(self):
        rng = random.Random(0)
        model = ConstantLatency(2.5)
        assert model.sample(rng) == 2.5
        assert ZERO_LATENCY.sample(rng) == 0.0

    def test_constant_validation(self):
        with pytest.raises(ConfigError):
            ConstantLatency(-1.0)

    def test_constant_rejects_non_finite(self):
        # `nan < 0` is False, so an unguarded constructor would accept a
        # NaN delay and schedule deliveries at NaN timestamps.
        with pytest.raises(ConfigError, match="finite"):
            ConstantLatency(float("nan"))
        with pytest.raises(ConfigError, match="finite"):
            ConstantLatency(float("inf"))

    def test_uniform_bounds(self):
        rng = random.Random(1)
        model = UniformLatency(1.0, 3.0)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert max(samples) > 2.5  # spread actually used

    def test_uniform_validation(self):
        with pytest.raises(ConfigError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ConfigError):
            UniformLatency(-1.0, 1.0)

    def test_uniform_rejects_non_finite(self):
        # NaN bounds pass `low < 0 or high < low` (both comparisons False).
        with pytest.raises(ConfigError, match="finite"):
            UniformLatency(float("nan"), float("nan"))
        with pytest.raises(ConfigError, match="finite"):
            UniformLatency(0.0, float("inf"))

    def test_exponential_mean(self):
        rng = random.Random(2)
        model = ExponentialLatency(2.0)
        samples = [model.sample(rng) for _ in range(3000)]
        mean = sum(samples) / len(samples)
        assert 1.8 <= mean <= 2.2
        assert all(s >= 0 for s in samples)

    def test_exponential_validation(self):
        with pytest.raises(ConfigError):
            ExponentialLatency(0.0)

    def test_exponential_rejects_non_finite(self):
        # `inf <= 0` is False, so an unguarded mean of inf was accepted
        # and expovariate(1/inf) degenerated to rate-0 sampling.
        with pytest.raises(ConfigError, match="finite"):
            ExponentialLatency(float("inf"))
        with pytest.raises(ConfigError, match="finite"):
            ExponentialLatency(float("nan"))


class TestLinkClassLatency:
    def _model(self):
        from repro.net import LinkClassLatency

        return LinkClassLatency(
            ConstantLatency(0.1), {"inter": ConstantLatency(2.0)}
        )

    def _arrivals(self, classifier, model=None):
        """Per-sink arrival times of a send to and a multicast over pids 1
        and 2 from pid 0, on a network with ``classifier`` bound (None:
        nothing bound)."""
        from repro.net import Network
        from repro.net.message import Ping
        from repro.sim import Engine

        class Sink:
            def __init__(self, pid):
                self.pid = pid
                self.received_at = []

            def handle_message(self, message):
                self.received_at.append(engine.now)

        engine = Engine()
        network = Network(
            engine, random.Random(0), latency=model or self._model()
        )
        if classifier is not None:
            network.bind_link_classifier(classifier)
        sinks = [Sink(i) for i in range(3)]
        for sink in sinks:
            network.register(sink)
        ping = Ping(sender=0, nonce=1)
        network.send(0, 1, ping)
        network.send(0, 2, ping)
        network.multicast(0, [1, 2], ping)
        engine.run()
        return [sink.received_at for sink in sinks[1:]]

    def test_unbound_falls_back_to_default(self):
        rng = random.Random(0)
        model = self._model()
        assert model.sample(rng) == 0.1
        assert model.model_for(None).sample(rng) == 0.1
        assert self._arrivals(None) == [[0.1, 0.1]] * 2

    def test_bound_classifier_selects_override(self):
        rng = random.Random(0)
        model = self._model()
        assert model.model_for("inter").sample(rng) == 2.0
        assert model.model_for("intra").sample(rng) == 0.1  # no override
        arrivals = self._arrivals(lambda s, ts: ["inter"] * len(ts))
        assert arrivals == [[2.0, 2.0]] * 2

    def test_unclassifiable_link_uses_default(self):
        arrivals = self._arrivals(lambda s, ts: [None] * len(ts))
        assert arrivals == [[0.1, 0.1]] * 2

    def test_rejects_bad_class_names(self):
        from repro.net import LinkClassLatency

        with pytest.raises(ConfigError):
            LinkClassLatency(ConstantLatency(0.0), {"": ConstantLatency(1.0)})

    def test_network_uses_per_link_delays(self):
        from repro.net import LinkClassLatency

        to_one, to_two = self._arrivals(
            lambda s, ts: ["inter" if t == 2 else "intra" for t in ts],
            LinkClassLatency(
                ConstantLatency(0.0), {"inter": ConstantLatency(3.0)}
            ),
        )
        assert to_one == [0.0, 0.0]
        assert to_two == [3.0, 3.0]
