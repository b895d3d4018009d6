"""Random-stream derivation: tagged streams, seeds, bits, batched children.

``spawn_children`` re-implements numpy's ``SeedSequence`` mixing over many
rows at once; numpy's own ``Generator.spawn`` on an identically seeded
parent is its oracle.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsdc
from qsdc.rng import derive_seed, random_bits, spawn_children, stream_rng

# Every stream tag the engine and the CLI draw from.
TAGS = (
    "bootstrap",
    "bsm",
    "check2_code",
    "check_basis",
    "check_outcome",
    "cycles",
    "eve_dist",
    "eve_enc",
    "loss_enc",
    "mem_a",
    "mem_b",
    "message",
    "roles",
    "tomo",
)

PVALS = [0.1, 0.2, 0.3, 0.4]


def test_tags_cover_every_stream_in_the_package():
    source = "".join(p.read_text() for p in Path(qsdc.__file__).parent.glob("*.py"))
    assert set(re.findall(r'stream_rng\([\w.]+, "(\w+)"\)', source)) == set(TAGS)


def parent(seed, tag, spawned, nested):
    """A ``stream_rng`` generator, or its last of two children, after ``spawned`` spawns."""
    rng = stream_rng(seed, tag)
    if nested:
        rng = rng.spawn(2)[1]
    rng.spawn(spawned)
    return rng


def plain(state):
    """A bit generator state with its arrays as lists, so ``==`` compares whole states."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def assert_same_children(got, expected):
    assert len(got) == len(expected)
    mismatches = sum(plain(g.bit_generator.state) != plain(e.bit_generator.state) for g, e in zip(got, expected))
    assert mismatches == 0
    for g, e in zip(got, expected):
        assert type(g.bit_generator) is type(e.bit_generator)
        assert np.array_equal(g.multinomial(1000, PVALS), e.multinomial(1000, PVALS))


seeds = st.one_of(
    st.sampled_from([0, 2**32 - 1]),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=seeds,
    tag=st.sampled_from(TAGS),
    spawned=st.integers(0, 5),
    nested=st.booleans(),
    n=st.one_of(st.just(1), st.integers(2, 40)),
)
@example(seed=0, tag="bootstrap", spawned=0, nested=False, n=1000)
@example(seed=2**32 - 1, tag="tomo", spawned=0, nested=False, n=1000)
@example(seed=2**32 + 7, tag="bootstrap", spawned=3, nested=True, n=1000)
@example(seed=2**64 + 3, tag="bootstrap", spawned=0, nested=False, n=1000)
@example(seed=2**64 + 3, tag="tomo", spawned=1, nested=True, n=1)
def test_children_match_generator_spawn(seed, tag, spawned, nested, n):
    got = spawn_children(parent(seed, tag, spawned, nested), n)
    assert_same_children(got, parent(seed, tag, spawned, nested).spawn(n))


def test_other_pool_sizes_and_entropy_forms():
    for entropy in (31, [7, 2**70], np.array([1, 2**33, 5], dtype=np.uint64)):
        for pool_size in (4, 8):
            make = lambda: np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, pool_size=pool_size)))
            assert_same_children(spawn_children(make(), 9), make().spawn(9))


def test_does_not_advance_the_spawn_counter():
    rng = stream_rng(3, "bootstrap")
    first = spawn_children(rng, 4)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    assert_same_children(spawn_children(rng, 4), first)


def test_children_cannot_spawn():
    (child,) = spawn_children(stream_rng(3, "bootstrap"), 1)
    with pytest.raises(TypeError):
        child.spawn(1)


def test_reads_the_generator_by_attribute():
    class Proxy:
        """Exposes the wrapped generator's attributes but refuses ``spawn``."""

        def __init__(self, rng):
            self._rng = rng

        def spawn(self, n):
            raise AssertionError("fast path expected")

        def __getattr__(self, attr):
            return getattr(self._rng, attr)

    got = spawn_children(Proxy(stream_rng(5, "bootstrap")), 6)
    assert_same_children(got, stream_rng(5, "bootstrap").spawn(6))


def test_falls_back_to_spawn_on_other_bit_generators():
    rng = np.random.Generator(np.random.Philox(7))
    assert_same_children(spawn_children(rng, 3), np.random.Generator(np.random.Philox(7)).spawn(3))
    assert rng.bit_generator.seed_seq.n_children_spawned == 3


def test_spawn_counter_stays_within_uint32():
    make = lambda: np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, n_children_spawned=2**32 - 2)))
    assert_same_children(spawn_children(make(), 1), make().spawn(1))
    with pytest.raises(ValueError, match="uint32"):
        spawn_children(make(), 2)


class TestStreams:
    @pytest.mark.parametrize("call", [lambda: stream_rng(-1, "tomo"), lambda: derive_seed(-1, 0)], ids=["stream", "derive"])
    def test_rejects_negative_seed(self, call):
        with pytest.raises(ValueError, match="non-negative"):
            call()

    def test_equal_seed_and_tag_give_equal_draws(self):
        for tag in TAGS:
            assert np.array_equal(stream_rng(9, tag).random(50), stream_rng(9, tag).random(50))

    def test_different_tags_give_different_draws(self):
        draws = {stream_rng(9, tag).random(4).tobytes() for tag in TAGS}
        assert len(draws) == len(TAGS)

    def test_derive_seed_depends_on_every_index(self):
        assert derive_seed(4, 1, 2) == derive_seed(4, 1, 2)
        assert len({derive_seed(4, 1, 2), derive_seed(4, 2, 1), derive_seed(4, 1), derive_seed(5, 1, 2)}) == 4


class TestRandomBits:
    @pytest.mark.parametrize("n_bits", [0, -1])
    def test_rejects_non_positive_length(self, n_bits):
        with pytest.raises(ValueError, match="positive"):
            random_bits(1, n_bits)

    @pytest.mark.parametrize("seed", [0, 1, 2**40])
    @pytest.mark.parametrize("n_bits", [1, 7, 64, 10_001])
    def test_matches_per_bit_join(self, seed, n_bits):
        bits = stream_rng(seed, "message").integers(0, 2, size=n_bits)
        assert random_bits(seed, n_bits) == "".join("1" if b else "0" for b in bits)
