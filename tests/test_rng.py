"""Random-stream derivation: tagged streams, derived seeds, random bits."""

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

import qsdc
from qsdc.rng import derive_seed, random_bits, stream_rng

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


def test_tags_cover_every_stream_in_the_package():
    source = "".join(p.read_text() for p in Path(qsdc.__file__).parent.glob("*.py"))
    assert set(re.findall(r'stream_rng\([\w.]+, "(\w+)"\)', source)) == set(TAGS)


def test_tags_have_distinct_stream_keys():
    # A stream is keyed by its tag's crc32, so two tags sharing one would
    # share a stream.
    assert len({zlib.crc32(t.encode("ascii")) for t in TAGS}) == len(TAGS)


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
