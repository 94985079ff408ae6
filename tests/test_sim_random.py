"""Tests for the seeded random streams."""

import hashlib
import pickle

from repro.sim.random import DeterministicRandom

#: sha1 (first 16 hex digits) of 50 draws of every method the
#: repository calls, in ``transcript``'s order, from
#: ``DeterministicRandom(2015)`` and from its ``fork(0xF1EE7)`` (the
#: fleet's stream).  Recorded before ``DeterministicRandom`` became a
#: ``random.Random`` subclass: the streams must not move.
#: ``python tests/test_sim_random.py`` prints them.
STREAM_PINS = {
    "base": "3f8a612446d161c9",
    "fork": "e5a5d513fcb16406",
}


def transcript(rng: DeterministicRandom) -> str:
    """50 draws of each method, one line per draw."""
    items = ["a", "b", "c", "d", "e", "f", "g"]
    lines = []
    for i in range(50):
        deck = list(range(10))
        rng.shuffle(deck)
        lines += [
            f"uniform {rng.uniform(0.0, 10.0)!r}",
            f"randint {rng.randint(0, 1000)}",
            f"getrandbits {rng.getrandbits((0, 1, 8, 24, 48)[i % 5])}",
            f"choice {rng.choice(items)}",
            f"sample {rng.sample(range(100), 5)}",
            f"shuffle {deck}",
            f"random {rng.random()!r}",
            f"expovariate {rng.expovariate(100.0)!r}",
            f"jittered {rng.jittered(0.005)!r}",
        ]
    return "\n".join(lines)


def stream_digests() -> dict[str, str]:
    def digest(rng: DeterministicRandom) -> str:
        return hashlib.sha1(transcript(rng).encode()).hexdigest()[:16]

    return {
        "base": digest(DeterministicRandom(2015)),
        "fork": digest(DeterministicRandom(2015).fork(0xF1EE7)),
    }


class TestDeterminism:
    def test_streams_are_pinned(self):
        assert stream_digests() == STREAM_PINS

    def test_pickle_keeps_seed_and_state(self):
        rng = DeterministicRandom(2015)
        rng.random()
        clone = pickle.loads(pickle.dumps(rng))
        assert clone.stream_seed == 2015
        assert clone.random() == rng.random()
        assert clone.fork(0xF1EE7).random() == rng.fork(0xF1EE7).random()

    def test_same_seed_same_stream(self):
        a = DeterministicRandom(42)
        b = DeterministicRandom(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seeds_diverge(self):
        a = DeterministicRandom(1)
        b = DeterministicRandom(2)
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_fork_is_deterministic(self):
        a = DeterministicRandom(7).fork(3)
        b = DeterministicRandom(7).fork(3)
        assert a.random() == b.random()

    def test_fork_streams_are_independent(self):
        base = DeterministicRandom(7)
        fork = base.fork(1)
        before = fork.random()
        base.random()  # consuming the base must not affect the fork
        fork2 = DeterministicRandom(7).fork(1)
        fork2.random()
        assert before == DeterministicRandom(7).fork(1).random()


class TestHelpers:
    def test_uniform_bounds(self):
        rng = DeterministicRandom(0)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    def test_getrandbits_width(self):
        rng = DeterministicRandom(0)
        for bits in (1, 8, 16, 48):
            for _ in range(20):
                assert 0 <= rng.getrandbits(bits) < (1 << bits)

    def test_getrandbits_zero(self):
        assert DeterministicRandom(0).getrandbits(0) == 0

    def test_choice_returns_member(self):
        rng = DeterministicRandom(0)
        items = ["a", "b", "c"]
        for _ in range(20):
            assert rng.choice(items) in items

    def test_sample_distinct(self):
        rng = DeterministicRandom(0)
        picked = rng.sample(list(range(100)), 10)
        assert len(set(picked)) == 10

    def test_jittered_non_negative_and_in_band(self):
        rng = DeterministicRandom(0)
        for _ in range(100):
            value = rng.jittered(1.0, fraction=0.5)
            assert 0.5 <= value <= 1.5

    def test_jittered_floors_at_zero(self):
        rng = DeterministicRandom(0)
        for _ in range(50):
            assert rng.jittered(0.001, fraction=5.0) >= 0.0

    def test_shuffle_permutes(self):
        rng = DeterministicRandom(3)
        items = list(range(30))
        rng.shuffle(items)
        assert sorted(items) == list(range(30))

    def test_expovariate_positive(self):
        rng = DeterministicRandom(0)
        for _ in range(50):
            assert rng.expovariate(100.0) >= 0.0


if __name__ == "__main__":  # record STREAM_PINS
    print(stream_digests())
