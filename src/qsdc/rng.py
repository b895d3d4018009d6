"""Deterministic random-stream derivation.

All randomness in a session flows from one integer seed.  Each consumer
stage (pair generation, basis choices, loss draws, ...) gets its own
independent generator, derived as ``SeedSequence((seed, crc32(tag)))``, and
draws per-pair values as position-indexed vectors from that stream.  Two
sessions with the same seed therefore agree bit-for-bit on every stage, and
adding draws to one stage never perturbs another.

``qsdc tomo`` draws its data from stream ``"tomo"`` and every bootstrap
resample from stream ``"bootstrap"``, in one multinomial call.
"""

from __future__ import annotations

import zlib

import numpy as np


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

