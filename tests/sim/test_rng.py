"""Tests for deterministic named random streams."""

import copy
import pickle
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


# -- seeded at first draw: a lazy stream == the eager one ---------------------
#
# A stream builds its Mersenne Twister (and ``getrandbits``, ``name``) on
# first access.  Whatever is touched first -- a draw, ``derive``, ``name``
# -- the draws must be those of ``random.Random(substream_seed(...))``.

NAMES = st.lists(st.one_of(st.integers(-5, 5000), st.text(max_size=4)),
                 max_size=3)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("randrange"), st.integers(1, 5000)),
    st.tuples(st.just("shuffled"), st.integers(0, 40)),
    st.tuples(st.just("choice"), st.integers(1, 40)),
    st.tuples(st.just("uniform"), st.just(0)),
    st.tuples(st.just("getrandbits"), st.integers(1, 32)),
    st.tuples(st.just("derive"), st.integers(0, 9)),
    st.tuples(st.just("name"), st.just(0))), max_size=25)


def seeded(rng):
    """Whether the stream has built its generator (read past the lazy
    hook, so asking does not seed it)."""
    try:
        type(rng)._rng.__get__(rng)
    except AttributeError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**63), names=NAMES, steps=STEPS)
def test_lazy_stream_equals_eager_random(seed, names, steps):
    ours = StreamRng(seed, *names)
    ref = random.Random(substream_seed(seed, *names))
    path = ":".join(str(n) for n in names)
    for op, arg in steps:
        drawn = seeded(ours)
        if op == "randrange":
            assert ours.randrange(arg) == ref.randrange(arg)
        elif op == "shuffled":
            expect = list(range(arg))
            ref.shuffle(expect)
            assert ours.shuffled(list(range(arg))) == expect
        elif op == "choice":
            items = list(range(100, 100 + arg))
            assert ours.choice(items) == ref.choice(items)
        elif op == "uniform":
            assert ours.uniform(-1.5, 2.5) == ref.uniform(-1.5, 2.5)
        elif op == "getrandbits":
            assert ours.getrandbits(arg) == ref.getrandbits(arg)
        elif op == "derive":
            child = ours.derive("c", arg)
            assert child.name == ":".join(map(str, (*names, "c", arg)))
            assert child.randrange(1 << 20) == random.Random(
                substream_seed(seed, *names, "c", arg)).randrange(1 << 20)
            assert seeded(ours) == drawn  # deriving does not seed
        else:
            assert ours.name == path
            assert seeded(ours) == drawn  # nor does naming
    assert ours._rng.getstate() == ref.getstate()


def test_a_fresh_stream_is_not_seeded_until_touched():
    rng = StreamRng(1, "thread", 4)
    assert not seeded(rng)
    assert rng.root_seed == 1 and rng.derive(2).name == "thread:4:2"
    assert not seeded(rng)
    bits = rng.getrandbits
    assert seeded(rng) and rng.getrandbits is bits
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        rng.nope


def test_probe_order_hands_out_the_streams_own_getrandbits():
    """Either side may seed the stream; both read the same bound
    method afterwards (the C kernels call it directly)."""
    from repro.ws.policies import ProbeOrder

    rng = StreamRng(0, "t", 0)
    assert ProbeOrder(0, 4, rng).getrandbits is rng.getrandbits
    rng = StreamRng(0, "t", 0)
    bits = rng.getrandbits
    assert ProbeOrder(0, 4, rng).getrandbits is bits


@pytest.mark.parametrize("drawn", [False, True], ids=["fresh", "drawn"])
def test_copies_and_pickles_behave_as_eager_streams(drawn):
    """A shallow copy shares the generator, so its draws advance the
    original's; a pickle round trip is an independent stream at the
    same position -- drawn from or not."""
    rng = StreamRng(5, "thread", 3)
    ref = random.Random(substream_seed(5, "thread", 3))
    if drawn:
        assert rng.randrange(100) == ref.randrange(100)
    twin = copy.copy(rng)
    assert twin._rng is rng._rng and twin.getrandbits is rng.getrandbits
    assert twin.randrange(1000) == ref.randrange(1000)
    assert rng.randrange(1000) == ref.randrange(1000)
    clone = pickle.loads(pickle.dumps(rng))
    assert clone.name == "thread:3" and clone._rng is not rng._rng
    assert clone._rng.getstate() == ref.getstate()
    assert clone.getrandbits(32) == ref.getrandbits(32)
    assert rng._rng.getstate() != ref.getstate()  # the original stayed
