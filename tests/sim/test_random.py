"""Tests for named seeded random streams."""

from repro.sim.random import RandomRegistry


class TestReproducibility:
    def test_same_seed_same_sequence(self):
        a = RandomRegistry(42).stream("link:errors")
        b = RandomRegistry(42).stream("link:errors")
        assert [a.randint(0, 1000) for _ in range(20)] == [
            b.randint(0, 1000) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = RandomRegistry(1).stream("x")
        b = RandomRegistry(2).stream("x")
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_streams_are_isolated(self):
        """Draws from one stream must not perturb another."""
        reg1 = RandomRegistry(7)
        reg2 = RandomRegistry(7)
        s1 = reg1.stream("alpha")
        # In reg1, interleave heavy use of another stream.
        noise = reg1.stream("beta")
        for _ in range(100):
            noise.uniform(0, 1)
        s2 = reg2.stream("alpha")
        assert [s1.randint(0, 10**6) for _ in range(10)] == [
            s2.randint(0, 10**6) for _ in range(10)
        ]

    def test_stream_identity_cached(self):
        reg = RandomRegistry(0)
        assert reg.stream("a") is reg.stream("a")


class TestDistributions:
    def test_chance_extremes(self):
        s = RandomRegistry(3).stream("c")
        assert not any(s.chance(0.0) for _ in range(50))
        assert all(s.chance(1.0) for _ in range(50))

    def test_uniform_bounds(self):
        s = RandomRegistry(3).stream("u")
        for _ in range(100):
            value = s.uniform(5.0, 6.0)
            assert 5.0 <= value <= 6.0

    def test_randint_bounds(self):
        s = RandomRegistry(3).stream("i")
        values = {s.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_exponential_mean_reasonable(self):
        s = RandomRegistry(3).stream("e")
        samples = [s.exponential(100.0) for _ in range(2000)]
        mean = sum(samples) / len(samples)
        assert 80.0 < mean < 120.0

    def test_exponential_zero_mean(self):
        s = RandomRegistry(3).stream("e0")
        assert s.exponential(0.0) == 0.0

    def test_choice_and_shuffle(self):
        s = RandomRegistry(3).stream("cs")
        assert s.choice([1, 2, 3]) in (1, 2, 3)
        items = list(range(10))
        s.shuffle(items)
        assert sorted(items) == list(range(10))

    def test_draw_count(self):
        s = RandomRegistry(3).stream("n")
        s.randint(0, 1)
        s.uniform(0, 1)
        assert s.draws == 2
