"""Unit tests for repro.crypto.rng."""

import pytest

from repro.crypto import DeterministicRNG


def test_determinism_same_seed():
    a = DeterministicRNG(42)
    b = DeterministicRNG(42)
    assert a.bytes(64) == b.bytes(64)
    assert [a.randint(0, 100) for _ in range(20)] == [
        b.randint(0, 100) for _ in range(20)
    ]


def test_different_seeds_differ():
    assert DeterministicRNG(1).bytes(32) != DeterministicRNG(2).bytes(32)


def test_seed_types_accepted():
    for seed in (7, "seven", b"seven"):
        DeterministicRNG(seed).bytes(4)


def test_fork_independent_streams():
    parent = DeterministicRNG(1)
    child_a = parent.fork("a")
    child_b = parent.fork("b")
    assert child_a.bytes(16) != child_b.bytes(16)
    # Forking again with the same label reproduces the stream.
    assert DeterministicRNG(1).fork("a").bytes(16) == DeterministicRNG(1).fork(
        "a"
    ).bytes(16)


def test_fork_does_not_consume_parent_stream():
    plain = DeterministicRNG(9)
    forked = DeterministicRNG(9)
    forked.fork("x")
    assert plain.bytes(32) == forked.bytes(32)


def test_getrandbits_range():
    rng = DeterministicRNG(3)
    for bits in (1, 7, 8, 9, 64, 257):
        for _ in range(50):
            value = rng.getrandbits(bits)
            assert 0 <= value < (1 << bits)
    assert rng.getrandbits(0) == 0


def test_randint_inclusive_bounds():
    rng = DeterministicRNG(4)
    values = {rng.randint(3, 5) for _ in range(200)}
    assert values == {3, 4, 5}
    assert rng.randint(9, 9) == 9
    with pytest.raises(ValueError):
        rng.randint(5, 3)


def test_random_unit_interval():
    rng = DeterministicRNG(5)
    samples = [rng.random() for _ in range(500)]
    assert all(0.0 <= s < 1.0 for s in samples)
    assert 0.35 < sum(samples) / len(samples) < 0.65


def test_choice_and_empty():
    rng = DeterministicRNG(6)
    assert rng.choice([1]) == 1
    assert rng.choice("abc") in "abc"
    with pytest.raises(IndexError):
        rng.choice([])


def test_sample_distinct():
    rng = DeterministicRNG(7)
    picked = rng.sample(range(10), 5)
    assert len(picked) == len(set(picked)) == 5
    assert set(picked) <= set(range(10))
    with pytest.raises(ValueError):
        rng.sample([1, 2], 3)


def test_weighted_choice_bias():
    rng = DeterministicRNG(9)
    counts = {"a": 0, "b": 0}
    for _ in range(2000):
        counts[rng.weighted_choice(["a", "b"], [9.0, 1.0])] += 1
    assert counts["a"] > counts["b"] * 4


def test_weighted_choice_errors():
    rng = DeterministicRNG(10)
    with pytest.raises(ValueError):
        rng.weighted_choice(["a"], [1.0, 2.0])
    with pytest.raises(ValueError):
        rng.weighted_choice(["a"], [0.0])
