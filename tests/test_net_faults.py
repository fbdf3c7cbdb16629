"""Unit + statistical tests for the deterministic link-fault layer."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ConfigError
from repro.net import (
    BernoulliLoss,
    ConstantLatency,
    DelaySpike,
    DuplicateModel,
    FaultPipeline,
    GilbertElliott,
    LinkClassFaults,
    LinkFaultModel,
    Network,
    NO_FAULTS,
    NoFaults,
)
from repro.net.control import Ping
from repro.net.message import Message
from repro.net.stats import (
    DROP_FAULT_LOSS,
    FAULT_DELAY_SPIKE,
    FAULT_DUPLICATE,
    FAULT_LOSS,
)
from repro.sim import Engine

from net_actors import register_actors


class Recorder:
    def __init__(self, pid: int):
        self.pid = pid
        self.inbox: list[Message] = []

    def handle_message(self, message: Message) -> None:
        self.inbox.append(message)


class SentinelRng(random.Random):
    """A Random that fails the test if any draw method is consulted."""

    def random(self):  # pragma: no cover - reaching it IS the failure
        raise AssertionError("fault RNG consulted while faults are disabled")

    def randint(self, a, b):  # pragma: no cover
        raise AssertionError("fault RNG consulted while faults are disabled")


def make_net(faults=None, fault_rng=None, **kwargs):
    engine = Engine()
    net = Network(
        engine, random.Random(0), faults=faults, fault_rng=fault_rng, **kwargs
    )
    actors = [Recorder(i) for i in range(6)]
    register_actors(net, actors)
    return engine, net, actors


# ----------------------------------------------------------------------
# Construction validation (satellite: NaN/out-of-range must not pass)
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -0.1, 1.1, True, "0.5", None]
    )
    def test_bernoulli_rejects_bad_probability(self, bad):
        with pytest.raises(ConfigError):
            BernoulliLoss(bad)

    @pytest.mark.parametrize("bad", [float("nan"), -0.01, 2.0, True])
    def test_gilbert_elliott_rejects_bad_probabilities(self, bad):
        with pytest.raises(ConfigError):
            GilbertElliott(bad, 0.5)
        with pytest.raises(ConfigError):
            GilbertElliott(0.5, bad)
        with pytest.raises(ConfigError):
            GilbertElliott(0.1, 0.5, loss_good=bad)
        with pytest.raises(ConfigError):
            GilbertElliott(0.1, 0.5, loss_bad=bad)

    def test_gilbert_elliott_rejects_frozen_chain(self):
        with pytest.raises(ConfigError):
            GilbertElliott(0.0, 0.0)

    @pytest.mark.parametrize("bad", [1, 0, -2, 2.0, True, None])
    def test_duplicate_rejects_bad_max_copies(self, bad):
        with pytest.raises(ConfigError):
            DuplicateModel(0.5, bad)

    def test_duplicate_rejects_nan_probability(self):
        with pytest.raises(ConfigError):
            DuplicateModel(float("nan"))

    def test_delay_spike_requires_exactly_one_shape(self):
        with pytest.raises(ConfigError):
            DelaySpike(0.1)
        with pytest.raises(ConfigError):
            DelaySpike(0.1, factor=2.0, extra=1.0)

    @pytest.mark.parametrize("bad", [0.5, float("nan"), -1.0])
    def test_delay_spike_rejects_bad_factor(self, bad):
        with pytest.raises(ConfigError):
            DelaySpike(0.1, factor=bad)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_delay_spike_rejects_bad_extra(self, bad):
        with pytest.raises(ConfigError):
            DelaySpike(0.1, extra=bad)

    def test_pipeline_requires_stages(self):
        with pytest.raises(ConfigError):
            FaultPipeline([])

    def test_protocol_conformance(self):
        for model in (
            NO_FAULTS,
            BernoulliLoss(0.5),
            GilbertElliott(0.1, 0.5),
            DuplicateModel(0.5),
            DelaySpike(0.5, factor=2.0),
            FaultPipeline([BernoulliLoss(0.1)]),
            LinkClassFaults(NO_FAULTS, {"inter": BernoulliLoss(0.5)}),
        ):
            assert isinstance(model, LinkFaultModel)


# ----------------------------------------------------------------------
# Model behaviour
# ----------------------------------------------------------------------
class TestModels:
    def test_no_faults_is_identity_and_draw_free(self):
        rng = SentinelRng()
        assert NoFaults().transmit(0, 1, 3.5, rng) == (1, 3.5)

    def test_bernoulli_extremes(self):
        rng = random.Random(0)
        assert BernoulliLoss(1.0).transmit(0, 1, 2.0, rng) == (0, 2.0)
        assert BernoulliLoss(0.0).transmit(0, 1, 2.0, rng) == (1, 2.0)

    def test_duplicate_copies_share_delay(self):
        model = DuplicateModel(1.0, max_copies=4)
        rng = random.Random(3)
        for _ in range(50):
            copies, delay = model.transmit(0, 1, 1.5, rng)
            assert 2 <= copies <= 4
            assert delay == 1.5

    def test_delay_spike_factor_and_extra(self):
        rng = random.Random(0)
        assert DelaySpike(1.0, factor=3.0).transmit(0, 1, 2.0, rng) == (1, 6.0)
        assert DelaySpike(1.0, extra=4.0).transmit(0, 1, 2.0, rng) == (1, 6.0)
        assert DelaySpike(0.0, extra=4.0).transmit(0, 1, 2.0, rng) == (1, 2.0)

    def test_pipeline_loss_short_circuits(self):
        dup = DuplicateModel(1.0, max_copies=3)
        pipe = FaultPipeline([BernoulliLoss(1.0), dup, DelaySpike(1.0, extra=9.0)])
        rng = SentinelRngAfterOne()
        copies, delay = pipe.transmit(0, 1, 1.0, rng)
        assert copies == 0
        assert delay == 1.0  # later stages never consulted

    def test_pipeline_composes_copies_and_delay(self):
        pipe = FaultPipeline(
            [DuplicateModel(1.0, max_copies=2), DelaySpike(1.0, extra=2.0)]
        )
        copies, delay = pipe.transmit(0, 1, 1.0, random.Random(0))
        assert copies == 2
        assert delay == 3.0

    def test_link_class_faults_routes_by_class(self):
        model = LinkClassFaults(NoFaults(), {"inter": BernoulliLoss(1.0)})
        rng = random.Random(0)
        lossy, default = model.model_for("inter"), model.model_for("intra")
        assert lossy.transmit(0, 5, 1.0, rng)[0] == 0  # inter: always lost
        assert default.transmit(0, 1, 1.0, rng)[0] == 1  # intra: default
        assert model.model_for(None) is model.default

    def test_network_routes_faults_by_bound_link_class(self):
        engine, net, actors = make_net(
            faults=LinkClassFaults(NoFaults(), {"inter": BernoulliLoss(1.0)}),
            fault_rng=random.Random(7),
        )
        net.bind_link_classifier(
            lambda s, ts: ["inter" if t == 5 else "intra" for t in ts]
        )
        net.send(0, 5, Ping(sender=0, nonce=1))
        net.send(0, 1, Ping(sender=0, nonce=2))
        net.multicast(0, [1, 5, 2], Ping(sender=0, nonce=3))
        engine.run()
        assert actors[5].inbox == []  # inter: always lost
        assert [m.nonce for m in actors[1].inbox] == [2, 3]
        assert [m.nonce for m in actors[2].inbox] == [3]
        assert net.stats.faults_by_reason[FAULT_LOSS] == 2
        assert net.stats.dropped_by_reason[DROP_FAULT_LOSS] == 2

    def test_link_class_faults_unbound_uses_default(self):
        model = LinkClassFaults(BernoulliLoss(1.0), {"inter": NoFaults()})
        assert model.transmit(0, 1, 1.0, random.Random(0))[0] == 0

    def test_link_class_faults_rejects_non_models(self):
        with pytest.raises(ConfigError):
            LinkClassFaults(NO_FAULTS, {"inter": 0.5})
        with pytest.raises(ConfigError):
            LinkClassFaults("lossy")
        with pytest.raises(ConfigError):
            LinkClassFaults(NO_FAULTS, {"": BernoulliLoss(0.5)})


class SentinelRngAfterOne(random.Random):
    """Allows exactly one draw (the loss coin), fails on any further one."""

    def __init__(self):
        super().__init__(0)
        self.draws = 0

    def random(self):
        self.draws += 1
        if self.draws > 1:
            raise AssertionError("stage consulted after a loss")
        return 0.0  # < p, so the loss fires


# ----------------------------------------------------------------------
# Gilbert-Elliott statistics (satellite: stationary-loss-rate test)
# ----------------------------------------------------------------------
class TestGilbertElliottStatistics:
    def test_stationary_loss_rate_formula(self):
        ge = GilbertElliott(0.1, 0.4, loss_good=0.05, loss_bad=0.8)
        pi_bad = 0.1 / 0.5
        assert ge.stationary_loss_rate() == pytest.approx(
            (1 - pi_bad) * 0.05 + pi_bad * 0.8
        )

    def test_single_link_long_run_matches_stationary_rate(self):
        ge = GilbertElliott(0.05, 0.3, loss_good=0.0, loss_bad=0.9)
        rng = random.Random(42)
        n = 40_000
        lost = sum(1 for _ in range(n) if ge.transmit(0, 1, 0.0, rng)[0] == 0)
        rate = ge.stationary_loss_rate()
        # Mixing inflates the variance vs i.i.d.; 4 i.i.d. sigmas plus the
        # chain's correlation still keeps this far from flaky at n=40k.
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(lost / n - rate) < 8 * sigma

    def test_fresh_links_start_at_stationary_rate(self):
        """One consult per link must already lose at the stationary rate
        (gossip touches most links once; an always-good initial state
        would neuter burst loss entirely)."""
        ge = GilbertElliott(0.05, 0.3, loss_good=0.0, loss_bad=0.9)
        rng = random.Random(7)
        n = 20_000
        lost = sum(
            1 for i in range(n) if ge.transmit(i, i + 1, 0.0, rng)[0] == 0
        )
        rate = ge.stationary_loss_rate()
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(lost / n - rate) < 5 * sigma

    def test_bad_state_bursts(self):
        """Consecutive losses on one link must exceed the i.i.d. rate:
        that correlation is the whole point of the two-state chain."""
        ge = GilbertElliott(0.02, 0.2, loss_good=0.0, loss_bad=1.0)
        rng = random.Random(3)
        outcomes = [ge.transmit(0, 1, 0.0, rng)[0] == 0 for _ in range(40_000)]
        losses = sum(outcomes)
        pairs = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if a and b
        )
        rate = losses / len(outcomes)
        conditional = pairs / max(1, losses)
        assert conditional > 2 * rate

    @given(
        p_gb=st.floats(0.01, 1.0),
        p_bg=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_transmit_never_mutates_delay(self, p_gb, p_bg, seed):
        ge = GilbertElliott(p_gb, p_bg)
        rng = random.Random(seed)
        for _ in range(32):
            copies, delay = ge.transmit(0, 1, 2.5, rng)
            assert delay == 2.5
            assert copies in (0, 1)


# ----------------------------------------------------------------------
# Network wiring: all three delivery paths + stats by reason
# ----------------------------------------------------------------------
class TestNetworkWiring:
    def test_uninstalled_faults_never_touch_the_rng(self):
        """The disabled path must be provably draw-free — the bit-identity
        guarantee for every pre-existing scenario rests on it."""
        engine, net, actors = make_net()  # no faults installed
        assert net._fault_hook is None
        net.send(0, 1, Ping(sender=0, nonce=1))
        net.multicast(0, [1, 2, 3], Ping(sender=0, nonce=2))
        engine.run()
        assert len(actors[1].inbox) == 2

    def test_no_faults_instance_uninstalls(self):
        _, net, _ = make_net(faults=NoFaults())
        assert net._fault_hook is None

    def test_active_model_requires_rng(self):
        engine = Engine()
        with pytest.raises(ConfigError):
            Network(engine, random.Random(0), faults=BernoulliLoss(0.5))

    def test_send_loss_drops_and_counts(self):
        engine, net, actors = make_net(
            faults=BernoulliLoss(1.0), fault_rng=random.Random(1)
        )
        assert net.send(0, 1, Ping(sender=0, nonce=1)) is False
        engine.run()
        assert actors[1].inbox == []
        assert net.stats.faults_by_reason[FAULT_LOSS] == 1
        assert net.stats.dropped_by_reason[DROP_FAULT_LOSS] == 1

    def test_send_duplicates_deliver_extra_copies(self):
        engine, net, actors = make_net(
            faults=DuplicateModel(1.0, max_copies=2),
            fault_rng=random.Random(1),
        )
        assert net.send(0, 1, Ping(sender=0, nonce=1)) is True
        engine.run()
        assert len(actors[1].inbox) == 2
        assert net.stats.faults_by_reason[FAULT_DUPLICATE] == 1
        assert net.stats.delivered_by_kind["ping"] == 2

    def test_send_delay_spike_postpones_delivery(self):
        engine, net, actors = make_net(
            faults=DelaySpike(1.0, extra=5.0),
            fault_rng=random.Random(1),
            latency=ConstantLatency(1.0),
        )
        net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run(until=5.5)
        assert actors[1].inbox == []
        engine.run()
        assert len(actors[1].inbox) == 1
        assert engine.now == pytest.approx(6.0)
        assert net.stats.faults_by_reason[FAULT_DELAY_SPIKE] == 1

    def test_multicast_faulted_targets_split_from_batch(self):
        engine, net, actors = make_net(
            faults=DelaySpike(0.5, extra=5.0),
            fault_rng=random.Random(0),
            latency=ConstantLatency(1.0),
        )
        net.multicast(0, [1, 2, 3, 4, 5], Ping(sender=0, nonce=1))
        engine.run()
        delivered = [a for a in actors[1:] if a.inbox]
        assert len(delivered) == 5
        spikes = net.stats.faults_by_reason[FAULT_DELAY_SPIKE]
        assert 0 < spikes < 5  # seed 0: both branches exercised

    def test_multicast_loss_counts_per_target(self):
        engine, net, actors = make_net(
            faults=BernoulliLoss(1.0), fault_rng=random.Random(1)
        )
        net.multicast(0, [1, 2, 3], Ping(sender=0, nonce=1))
        engine.run()
        assert all(not a.inbox for a in actors[1:])
        assert net.stats.faults_by_reason[FAULT_LOSS] == 3
        assert net.stats.dropped_by_reason[DROP_FAULT_LOSS] == 3

    def test_multicast_duplicates_stay_in_one_batch(self):
        engine, net, actors = make_net(
            faults=DuplicateModel(1.0, max_copies=3),
            fault_rng=random.Random(2),
        )
        net.multicast(0, [1, 2], Ping(sender=0, nonce=1))
        engine.run()
        extra = net.stats.faults_by_reason[FAULT_DUPLICATE]
        assert extra >= 2
        assert len(actors[1].inbox) + len(actors[2].inbox) == 2 + extra

    def test_stats_as_dict_reports_faults(self):
        engine, net, _ = make_net(
            faults=BernoulliLoss(1.0), fault_rng=random.Random(1)
        )
        net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run()
        payload = net.stats.as_dict()
        assert payload["faults_by_reason"] == {FAULT_LOSS: 1}

    def test_install_faults_can_swap_models_mid_run(self):
        engine, net, actors = make_net()
        net.install_faults(BernoulliLoss(1.0), random.Random(1))
        net.send(0, 1, Ping(sender=0, nonce=1))
        net.install_faults(None)
        net.send(0, 1, Ping(sender=0, nonce=2))
        engine.run()
        assert [m.nonce for m in actors[1].inbox] == [2]

    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_bernoulli_loss_conserves_messages(self, p, seed):
        """sent == delivered + fault drops on the multicast path, for any
        loss probability and seed."""
        engine, net, actors = make_net(
            faults=BernoulliLoss(p), fault_rng=random.Random(seed)
        )
        for nonce in range(10):
            net.multicast(0, [1, 2, 3, 4, 5], Ping(sender=0, nonce=nonce))
        engine.run()
        delivered = sum(len(a.inbox) for a in actors)
        dropped = net.stats.dropped_by_reason[DROP_FAULT_LOSS]
        assert delivered + dropped == 50
        assert net.stats.faults_by_reason[FAULT_LOSS] == dropped
