"""Unit tests for deterministic named RNG streams."""

from repro.sim import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "net") == derive_seed(42, "net")

    def test_name_sensitivity(self):
        assert derive_seed(42, "net") != derive_seed(42, "membership")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "net") != derive_seed(2, "net")

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "stream")
        assert 0 <= seed < 2**64


class TestRngRegistry:
    def test_same_name_same_stream(self):
        rngs = RngRegistry(1)
        assert rngs.stream("x") is rngs.stream("x")

    def test_different_names_independent(self):
        rngs = RngRegistry(1)
        a = rngs.stream("a")
        b = rngs.stream("b")
        assert a is not b
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_reproducible_across_registries(self):
        seq1 = [RngRegistry(5).stream("net").random() for _ in range(1)]
        seq2 = [RngRegistry(5).stream("net").random() for _ in range(1)]
        assert seq1 == seq2

    def test_component_isolation(self):
        # Creating an extra stream must not shift an existing stream's draws.
        rngs1 = RngRegistry(9)
        first_draw = rngs1.stream("net").random()

        rngs2 = RngRegistry(9)
        rngs2.stream("other").random()  # interleaved extra component
        assert rngs2.stream("net").random() == first_draw

    def test_streams_listing(self):
        rngs = RngRegistry(0)
        rngs.stream("b")
        rngs.stream("a")
        assert sorted(rngs._streams) == ["a", "b"]
