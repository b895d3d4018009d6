"""Deterministic random-stream derivation.

All randomness in a session flows from one integer seed.  Each consumer
stage (pair generation, basis choices, loss draws, ...) gets its own
independent generator, derived as ``SeedSequence((seed, crc32(tag)))``, and
draws per-pair values as position-indexed vectors from that stream.  Two
sessions with the same seed therefore agree bit-for-bit on every stage, and
adding draws to one stage never perturbs another.

``qsdc tomo`` draws its data from stream ``"tomo"``.  Its bootstrap
resamples come from the children that ``stream_rng(seed,
"bootstrap").spawn(resamples)`` would return; ``spawn_children`` derives
them in one vectorized pass over numpy's ``SeedSequence`` algorithm
(O'Neill's ``seed_seq`` replacement, whose output numpy keeps stable under
NEP 19), instead of one ``SeedSequence`` and one ``generate_state`` per
child.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from numpy.typing import NDArray


def stream_rng(seed: int, tag: str) -> np.random.Generator:
    """Return the dedicated generator for one named stage of a run.

    Args:
        seed: Non-negative session seed.
        tag: Stable stage name, e.g. ``"mem_a"`` or ``"bsm"``.

    Returns:
        A fresh ``numpy.random.Generator`` whose state depends only on
        ``(seed, tag)``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = zlib.crc32(tag.encode("ascii"))
    return np.random.default_rng(np.random.SeedSequence((seed, key)))


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a child seed for an indexed sub-task (sweep point, trial, ...)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence((seed, *indices))
    return int(ss.generate_state(1)[0])


def random_bits(seed: int, n_bits: int) -> str:
    """Deterministically expand a seed into a reproducible random bit string."""
    if n_bits <= 0:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    bits = stream_rng(seed, "message").integers(0, 2, size=n_bits)
    return (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


# numpy's SeedSequence constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_WORD = 0xFFFFFFFF


def _words(value) -> list[int]:
    """``value`` as ``SeedSequence`` reads entropy: little-endian uint32 words.

    An integer gives its words (at least one); a sequence gives the
    concatenation of its items' words.
    """
    if isinstance(value, (int, np.integer)):
        value = int(value)
        out = [value & _WORD]
        while value := value >> 32:
            out.append(value & _WORD)
        return out
    return [word for item in value for word in _words(item)]


def _hash_constants(init: int, mult: int):
    """numpy's running hash constant, as one ``(xor, multiply)`` pair per hash.

    The sequence does not depend on the data, so every row shares it.
    """
    const = init
    while True:
        nxt = const * mult & _WORD
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value: NDArray[np.uint32], constants) -> NDArray[np.uint32]:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: NDArray[np.uint32], y: NDArray[np.uint32]) -> NDArray[np.uint32]:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_seeds(entropy: NDArray[np.uint32], pool_size: int) -> NDArray[np.uint64]:
    """``SeedSequence.generate_state(4, np.uint64)`` for each row of ``entropy``.

    Each row is one sequence's assembled entropy words; all rows are mixed
    at once, column by column, in numpy's order.  Returns ``(n, 4)`` words.
    """
    n, length = entropy.shape
    hash_a = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [_hashmix(entropy[:, i] if i < length else zero, hash_a) for i in range(pool_size)]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a))
    for src in range(pool_size, length):
        for dst in range(pool_size):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[:, src], hash_a))
    hash_b = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[i % pool_size], hash_b) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Precomputed PCG64 seed words: the one ``generate_state`` PCG64 makes.

    A generator built on it cannot spawn children of its own.
    """

    def __init__(self, words: NDArray[np.uint64]) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> NDArray[np.uint64]:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("precomputed seed words serve only PCG64's generate_state(4, np.uint64)")
        return self._words


def spawn_children(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Return the ``n`` generators ``rng.spawn(n)`` would return, derived in one pass.

    Every child's ``bit_generator.state`` equals ``Generator.spawn``'s, but
    unlike ``spawn`` this does not advance the parent's spawn counter
    (``SeedSequence.n_children_spawned`` is read-only), so two calls on one
    parent return the same children.  The children cannot spawn in turn.
    Falls back to ``rng.spawn(n)`` when the bit generator is not ``PCG64``
    or its seed sequence is not a ``numpy.random.SeedSequence``.

    ``rng`` is read by attribute only, so a proxy exposing ``bit_generator``
    and ``spawn`` works as well.

    Raises:
        ValueError: If the spawn counter plus ``n`` passes ``2**32 - 1``,
            numpy's limit for its uint32 counter (past it numpy's own
            ``spawn`` fails), so every child index is one entropy word.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64 or type(bit_generator.seed_seq) is not np.random.SeedSequence:
        return rng.spawn(n)
    seq = bit_generator.seed_seq
    first = seq.n_children_spawned
    if first + n > _WORD:
        raise ValueError(f"cannot spawn {n} children after {first}: the spawn counter is uint32")
    run = _words(seq.entropy)
    # numpy zero-pads the run entropy to the pool size when a spawn key is present.
    run += [0] * (seq.pool_size - len(run))
    prefix = run + _words(seq.spawn_key)
    entropy = np.empty((n, len(prefix) + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(first, first + n)
    return [np.random.Generator(np.random.PCG64(_SeedWords(words))) for words in _pcg64_seeds(entropy, seq.pool_size)]
