"""Unit tests for TopicParams and DaMulticastConfig."""

import math

import pytest

from repro.core import DaMulticastConfig, TopicParams
from repro.errors import ConfigError
from repro.topics import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


class TestValidation:
    def test_defaults_are_paper_values(self):
        params = TopicParams()
        assert params.b == 3
        assert params.c == 5
        assert params.g == 5
        assert params.a == 1
        assert params.z == 3

    def test_a_bounds(self):
        with pytest.raises(ConfigError):
            TopicParams(a=0)
        with pytest.raises(ConfigError):
            TopicParams(a=4, z=3)
        TopicParams(a=3, z=3)  # a == z allowed

    def test_tau_bounds(self):
        with pytest.raises(ConfigError):
            TopicParams(tau=-1)
        with pytest.raises(ConfigError):
            TopicParams(tau=4, z=3)
        TopicParams(tau=3, z=3)

    def test_g_bound(self):
        with pytest.raises(ConfigError):
            TopicParams(g=0.5)

    def test_z_bound(self):
        with pytest.raises(ConfigError):
            TopicParams(z=0, a=1)

    def test_log_base(self):
        with pytest.raises(ConfigError):
            TopicParams(fanout_log_base=1.0)

    def test_negative_constants(self):
        with pytest.raises(ConfigError):
            TopicParams(b=-1)
        with pytest.raises(ConfigError):
            TopicParams(c=-1)


class TestDerived:
    def test_p_sel(self):
        params = TopicParams(g=5)
        assert params.p_sel(1000) == 0.005
        assert params.p_sel(5) == 1.0
        assert params.p_sel(2) == 1.0  # clamped

    def test_p_sel_invalid_group(self):
        with pytest.raises(ConfigError):
            TopicParams().p_sel(0)

    def test_p_a(self):
        assert TopicParams(a=1, z=3).p_a == pytest.approx(1 / 3)
        assert TopicParams(a=3, z=3).p_a == 1.0

    def test_fanout_natural_log(self):
        params = TopicParams(c=5)
        assert params.fanout(1000) == math.ceil(math.log(1000) + 5)  # 12

    def test_fanout_log10_matches_figure8_scale(self):
        params = TopicParams(c=5, fanout_log_base=10)
        assert params.fanout(1000) == 8  # 3 + 5: the ~8000-messages scale

    def test_fanout_singleton_group(self):
        assert TopicParams(c=5).fanout(1) == 5

    def test_fanout_minimum_one(self):
        assert TopicParams(c=0).fanout(1) == 1

    def test_table_capacity(self):
        params = TopicParams(b=3, fanout_log_base=10)
        assert params.table_capacity(1000) == 12  # (3+1)*3
        assert params.table_capacity(1) == 1


class TestConfig:
    def test_default_params(self):
        config = DaMulticastConfig()
        assert config.params_for(T2) == TopicParams()

    def test_override(self):
        special = TopicParams(c=9)
        config = DaMulticastConfig(overrides={T2: special})
        assert config.params_for(T2) == special
        assert config.params_for(T1) == TopicParams()

    def test_default_params_apply_without_override(self):
        config = DaMulticastConfig(default_params=TopicParams(c=2))
        assert config.params_for(T1).c == 2

    def test_interval_validation(self):
        with pytest.raises(ConfigError):
            DaMulticastConfig(maintain_interval=0)
        with pytest.raises(ConfigError):
            DaMulticastConfig(bootstrap_timeout=-1)
        with pytest.raises(ConfigError):
            DaMulticastConfig(bootstrap_ttl=0)
        with pytest.raises(ConfigError):
            DaMulticastConfig(ping_timeout=0)


class TestOverrides:
    def test_an_override_applies_to_its_own_topic_only(self):
        config = DaMulticastConfig(overrides={T1: TopicParams(c=9)})
        assert config.params_for(T1).c == 9
        assert config.params_for(T2) == TopicParams()  # T2 under T1
