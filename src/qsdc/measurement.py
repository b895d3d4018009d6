"""Local polarization measurements and Bell-state analysis.

Outcome conventions: each local basis has a "+" and a "-" outcome ket, and
two-qubit joint outcomes are ordered ``(++, +-, -+, --)``.  For the Z basis
"+" is H and "-" is V; X uses diagonal/antidiagonal; Y uses the circular
pair.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .core import BELL_ORDER, KET_H, KET_V, bell_state

OUTCOME_LABELS = ("++", "+-", "-+", "--")


class LocalBasis(enum.Enum):
    Z = "Z"
    X = "X"
    Y = "Y"


_SQRT2 = math.sqrt(2.0)

_BASIS_KETS: dict[LocalBasis, tuple[NDArray[np.complex128], NDArray[np.complex128]]] = {
    LocalBasis.Z: (KET_H.copy(), KET_V.copy()),
    LocalBasis.X: ((KET_H + KET_V) / _SQRT2, (KET_H - KET_V) / _SQRT2),
    LocalBasis.Y: ((KET_H + 1j * KET_V) / _SQRT2, (KET_H - 1j * KET_V) / _SQRT2),
}


def basis_kets(basis: LocalBasis) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Return the (+, -) outcome kets of a local basis (fresh copies)."""
    plus, minus = _BASIS_KETS[basis]
    return plus.copy(), minus.copy()


def _joint_kets(basis_a: LocalBasis, basis_b: LocalBasis) -> NDArray[np.complex128]:
    ka = _BASIS_KETS[basis_a]
    kb = _BASIS_KETS[basis_b]
    return np.stack([np.kron(ka[i], kb[j]) for i in range(2) for j in range(2)])


# Precomputed (4, 4) stacks of joint outcome kets for all nine basis pairs.
_JOINT_KETS = {
    (a, b): _joint_kets(a, b) for a in LocalBasis for b in LocalBasis
}


def _project(state: NDArray[np.complex128], kets: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Probabilities ``<k| rho |k>`` of the four ``kets`` rows, clipped at zero."""
    rho = np.asarray(state, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 density matrices, got shape {rho.shape}")
    probs = np.einsum("ki,...ij,kj->...k", kets.conj(), rho, kets).real
    return np.clip(probs, 0.0, None)


def outcome_probs(state: NDArray[np.complex128], basis_a: LocalBasis, basis_b: LocalBasis) -> NDArray[np.float64]:
    """Joint outcome distribution of independent local measurements.

    Args:
        state: 4x4 density matrix, or a ``(..., 4, 4)`` stack of them.
        basis_a: Basis measured on side A.
        basis_b: Basis measured on side B.

    Returns:
        Length-4 probability vector ordered ``(++, +-, -+, --)``, one per
        matrix (shape ``state.shape[:-2] + (4,)``).  Entries are clipped at
        zero against floating-point dust; the sum equals the trace of the
        state.  Each stacked result equals the one-matrix result bit for bit.
    """
    return _project(state, _JOINT_KETS[(basis_a, basis_b)])


def sample_counts(probs: NDArray[np.float64], shots: int, rng: np.random.Generator) -> NDArray[np.int64]:
    """Draw multinomial counts for a finite number of measurement shots.

    Args:
        probs: Length-4 probability vector summing to one (within 1e-9), or
            a ``(..., 4)`` stack of them, drawn row after row in order.
        shots: Number of repetitions per vector; must be non-negative.
        rng: Generator supplying the draw.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape[-1:] != (4,):
        raise ValueError(f"expected length-4 probability vectors, got shape {p.shape}")
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    if np.any(p < -1e-9) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("probabilities must be non-negative and sum to one")
    p = np.clip(p, 0.0, None)
    p = p / p.sum(axis=-1, keepdims=True)
    return rng.multinomial(shots, p).astype(np.int64)


class BsmMode(enum.Enum):
    """Bell-state analyzer model.

    ``IDEAL`` resolves all four Bell states.  ``LINEAR_OPTICS`` models the
    standard beam-splitter analyzer, which distinguishes only the two psi
    states; a projection onto either phi state is reported as an erasure.
    """

    IDEAL = "ideal"
    LINEAR_OPTICS = "linear_optics"


_BELL_KETS = np.stack([bell_state(label) for label in BELL_ORDER])


def bell_overlaps(state: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Projection probabilities onto the four Bell states, in canonical order.

    ``state`` is a 4x4 density matrix or a ``(..., 4, 4)`` stack of them;
    each stacked result equals the one-matrix result bit for bit.
    """
    return _project(state, _BELL_KETS)


def resolve_outcomes(probs: NDArray[np.float64], u: ArrayLike, rows: ArrayLike = 0) -> NDArray[np.int8]:
    """Map uniform draws to outcome indices by inverse CDF.

    The one sampling rule of the simulator.  ``probs`` is one length-4
    probability vector, or a ``(K, 4)`` table of them; ``rows`` gives the
    table row of each uniform (a gathered inverse CDF; default row 0).  With
    ``cum`` a row's cumulative sum normalized to one (``cumsum(p / p.sum())``
    after clipping at zero), each uniform ``u`` gives the number of entries
    of ``cum`` that are ``<= u`` (``searchsorted`` from the right), capped at
    3 against rounding in the last entry.  Vectorized over ``u``, so batch
    simulations can feed pre-drawn uniforms and stay stream-stable.

    Returns:
        ``int8`` outcome indices shaped like ``u``.

    Raises:
        ValueError: If ``probs`` is not length 4 per row, holds a non-finite
            entry, or has a row with no positive mass.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape[-1:] != (4,) or p.ndim > 2:
        raise ValueError(f"expected a length-4 vector or a (K, 4) table, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("probabilities must contain positive mass")
    cum = np.cumsum(p / total, axis=-1).reshape(-1, 4)
    # The cumulative entries are non-decreasing, so the count of those <= u
    # is the count of comparisons u >= cum[j] that hold; stopping at j = 2
    # caps it at 3.  One column at a time keeps temporaries at one per draw.
    u = np.asarray(u)
    k = np.zeros(u.shape, dtype=np.int8)
    for j in range(3):
        k += u >= cum[rows, j]
    return k


#: Outcome index ``resolve_bsm`` reports for a linear-optics erasure.
ERASURE = -1


def resolve_bsm(
    overlaps: NDArray[np.float64], mode: BsmMode, u: ArrayLike, rows: ArrayLike = 0
) -> NDArray[np.int8]:
    """Map uniform draws to Bell-measurement outcomes.

    Outcome ``k`` is the Bell state ``BELL_ORDER[k]``, drawn from the
    overlaps (one vector, or a ``(K, 4)`` table with each draw's row in
    ``rows``) by :func:`resolve_outcomes`.  In ``LINEAR_OPTICS`` mode a phi
    projection (``k`` 0 or 1) is reported as ``ERASURE`` instead.
    """
    k = resolve_outcomes(overlaps, u, rows)
    if mode is BsmMode.LINEAR_OPTICS:
        return np.where(k < 2, ERASURE, k)
    return k
