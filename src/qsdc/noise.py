"""Noise channels, memory models, and channel calibration.

Channels act on one side of a two-qubit state and are trace preserving.
Loss is heralded: the session engine draws each pair's transmission and
retrieval survival and discards a failed pair, rather than mixing in a
vacuum component.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import PAULI_I, PAULI_Z, apply_local, bell_density, fidelity, bell_state, BellLabel, reduced_density, _check_side
from .errors import ValidationError


class NoiseKind(enum.Enum):
    NONE = "none"
    DEPOLARIZING = "depolarizing"
    DEPHASING = "dephasing"


@dataclass(frozen=True)
class ChannelSpec:
    """A single-qubit noise channel with one strength parameter.

    ``DEPOLARIZING`` replaces the qubit by the maximally mixed state with
    probability ``p``; ``DEPHASING`` applies a phase flip with probability
    ``p``; ``NONE`` ignores ``p``.
    """

    kind: NoiseKind = NoiseKind.NONE
    p: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, NoiseKind):
            raise ValidationError(f"kind must be a NoiseKind, got {self.kind!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"channel probability must lie in [0, 1], got {self.p}")


def apply_channel(spec: ChannelSpec, side: str, state: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Send one side of a two-qubit state through a noise channel.

    For depolarizing noise the affected qubit is replaced, with probability
    ``p``, by the maximally mixed state while the other side keeps its
    reduced state:  ``rho -> (1-p) rho + p (I/2 (x) tr_side rho)``.  For
    dephasing the map is ``rho -> (1-p) rho + p (Z rho Z)`` on the chosen
    side.  Both are exact density-matrix maps; nothing is sampled.

    Args:
        spec: Channel kind and strength.
        side: ``"A"`` or ``"B"``.
        state: 4x4 density matrix.

    Returns:
        The transformed 4x4 density matrix.
    """
    _check_side(side)
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if spec.kind is NoiseKind.NONE or spec.p == 0.0:
        return rho.copy()
    if spec.kind is NoiseKind.DEPHASING:
        flipped = apply_local(PAULI_Z, side, rho)
        return (1.0 - spec.p) * rho + spec.p * flipped
    # Depolarizing: keep the untouched side's marginal, mix the noisy side.
    other = "B" if side == "A" else "A"
    marginal = reduced_density(rho, other)
    if side == "A":
        replaced = np.kron(PAULI_I / 2.0, marginal)
    else:
        replaced = np.kron(marginal, PAULI_I / 2.0)
    return (1.0 - spec.p) * rho + spec.p * replaced


@dataclass(frozen=True)
class MemorySpec:
    """Storage model of one quantum memory.

    Retrieval succeeds with probability ``eta0 * exp(-t / tau_ns)`` after a
    hold of ``t`` nanoseconds (``tau_ns`` may be infinite for a flat
    efficiency), and a successful retrieval applies dephasing of strength
    ``dephase_p`` to the stored qubit.
    """

    eta0: float = 1.0
    tau_ns: float = math.inf
    dephase_p: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta0 <= 1.0):
            raise ValidationError(f"eta0 must lie in [0, 1], got {self.eta0}")
        if not (self.tau_ns > 0.0):
            raise ValidationError(f"tau_ns must be positive (or inf), got {self.tau_ns}")
        if not (0.0 <= self.dephase_p <= 1.0):
            raise ValidationError(f"dephase_p must lie in [0, 1], got {self.dephase_p}")

    def efficiency(self, duration_ns: float) -> float:
        """Retrieval probability after holding for ``duration_ns``."""
        if duration_ns < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration_ns}")
        if math.isinf(self.tau_ns):
            return self.eta0
        return self.eta0 * math.exp(-duration_ns / self.tau_ns)


def calibrate_noise(target_fidelity: float, kind: NoiseKind) -> float:
    """Invert a channel's fidelity curve on a phi+ input.

    Finds ``p`` such that sending one side of phi+ through the channel
    leaves overlap ``target_fidelity`` with phi+, by bisection to within
    1e-6 in fidelity.  Depolarizing noise reaches down to 0.25; dephasing
    spans the full range (and inverts exactly as ``p = 1 - F``).

    Raises:
        ValueError: If the target is outside the channel's achievable range,
            or if ``kind`` is ``NONE``.
    """
    if kind is NoiseKind.NONE:
        raise ValueError("cannot calibrate the identity channel")
    target = bell_state(BellLabel.PHI_PLUS)
    rho0 = bell_density(BellLabel.PHI_PLUS)

    def f_of(p: float) -> float:
        return fidelity(apply_channel(ChannelSpec(kind, p), "A", rho0), target)

    f_min, f_max = f_of(1.0), f_of(0.0)
    if not (f_min - 1e-12 <= target_fidelity <= f_max + 1e-12):
        raise ValueError(
            f"target fidelity {target_fidelity} outside achievable range "
            f"[{f_min:.6f}, {f_max:.6f}] for {kind.value}"
        )
    lo, hi = 0.0, 1.0
    if abs(f_of(lo) - target_fidelity) < 1e-6:
        return lo
    if abs(f_of(hi) - target_fidelity) < 1e-6:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f_of(mid)
        if abs(f_mid - target_fidelity) < 1e-6:
            return mid
        # Fidelity decreases monotonically with p for both channel kinds.
        if f_mid > target_fidelity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
