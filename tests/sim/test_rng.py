"""Tests for deterministic named random streams."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import StreamRng, substream_seed


def test_substream_seed_deterministic():
    assert substream_seed(1, "a", 2) == substream_seed(1, "a", 2)


def test_substream_seed_distinguishes_names():
    assert substream_seed(1, "a") != substream_seed(1, "b")
    assert substream_seed(1, "a", 1) != substream_seed(1, "a", 2)
    assert substream_seed(1, "a") != substream_seed(2, "a")


def test_stream_shuffled_is_permutation_and_stable():
    r1 = StreamRng(7, "thread", 3)
    r2 = StreamRng(7, "thread", 3)
    items = list(range(20))
    s1 = r1.shuffled(items)
    s2 = r2.shuffled(items)
    assert s1 == s2
    assert sorted(s1) == items
    assert items == list(range(20))  # input untouched


def test_streams_with_different_names_diverge():
    a = StreamRng(7, "thread", 0)
    b = StreamRng(7, "thread", 1)
    seq_a = [a.randrange(1000) for _ in range(10)]
    seq_b = [b.randrange(1000) for _ in range(10)]
    assert seq_a != seq_b


# -- draw-exactness: StreamRng == random.Random, value and state -------------
#
# StreamRng maps draws to Mersenne-Twister words itself (one getrandbits
# call per accepted draw) instead of calling random.Random's Python-level
# shuffle/randrange/choice.  Every pinned schedule depends on the two
# agreeing draw for draw, so the property is stated against the stdlib
# directly: same result, and the generator left in the same state.

#: Sizes where the bit length of the remaining count changes, on top of
#: whatever hypothesis draws.
POWER_EDGES = sorted({n for k in range(13) for n in (2**k - 1, 2**k, 2**k + 1)
                      if n <= 5000})


def _pair(seed, size):
    return (StreamRng(seed, "t", size),
            random.Random(substream_seed(seed, "t", size)))


def _check_shuffled(seed, size):
    ours, ref = _pair(seed, size)
    items = list(range(size))
    expect = list(items)
    ref.shuffle(expect)
    assert ours.shuffled(items) == expect
    assert ours._rng.getstate() == ref.getstate()


@pytest.mark.parametrize("size", POWER_EDGES)
def test_shuffled_equals_random_shuffle_at_power_of_two_edges(size):
    for seed in range(5):
        _check_shuffled(seed, size)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63), size=st.integers(0, 5000))
def test_shuffled_equals_random_shuffle(seed, size):
    _check_shuffled(seed, size)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63),
       size=st.one_of(st.integers(1, 5000), st.sampled_from(POWER_EDGES[1:])),
       draws=st.integers(1, 20))
def test_randrange_and_choice_equal_random(seed, size, draws):
    ours, ref = _pair(seed, size)
    items = list(range(100, 100 + size))
    for _ in range(draws):
        assert ours.randrange(size) == ref.randrange(size)
        assert ours.choice(items) == ref.choice(items)
    assert ours._rng.getstate() == ref.getstate()


def test_getrandbits_is_the_stream_itself():
    ours, ref = _pair(3, 0)
    assert [ours.getrandbits(k) for k in (1, 7, 32)] == \
        [ref.getrandbits(k) for k in (1, 7, 32)]
    assert ours.randrange(1000) == ref.randrange(1000)


@pytest.mark.parametrize("items", [[], ["x"]])
def test_shuffling_under_two_items_consumes_no_draw(items):
    ours, ref = _pair(11, len(items))
    assert ours.shuffled(items) == items
    assert ours._rng.getstate() == ref.getstate()


def test_randrange_one_still_draws():
    ours, ref = _pair(11, 1)
    assert ours.randrange(1) == ref.randrange(1) == 0
    assert ours._rng.getstate() == ref.getstate()
    assert ours._rng.getstate() != random.Random(
        substream_seed(11, "t", 1)).getstate()


@pytest.mark.parametrize("m", [0, -3])
def test_empty_range_error_names_the_stream(m):
    rng = StreamRng(0, "thread", 7)
    with pytest.raises(ValueError, match=r"'thread:7'.*empty range"):
        rng.randrange(m)
    with pytest.raises(ValueError, match="thread:7"):
        rng.choice([])
