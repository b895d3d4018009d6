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

from .core import (
    PAULI_I,
    PAULI_Z,
    SIDES,
    BellLabel,
    _check_side,
    _kron,
    bell_density,
    bell_state,
    fidelity,
    lift_local,
    reduced_density,
)
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


# Pauli Z lifted to each side once, for dephasing.
_LIFTED_Z = {side: lift_local(PAULI_Z, side) for side in SIDES}


def apply_channel(spec: ChannelSpec, side: str, state: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Send one side of two-qubit states through a noise channel.

    For depolarizing noise the affected qubit is replaced, with probability
    ``p``, by the maximally mixed state while the other side keeps its
    reduced state:  ``rho -> (1-p) rho + p (I/2 (x) tr_side rho)``.  For
    dephasing the map is ``rho -> (1-p) rho + p (Z rho Z)`` on the chosen
    side.  Both are exact density-matrix maps; nothing is sampled.

    Args:
        spec: Channel kind and strength.
        side: ``"A"`` or ``"B"``.
        state: 4x4 density matrix, or a ``(..., 4, 4)`` stack of them.

    Returns:
        The transformed density matrices, shaped like ``state``.  Each
        stacked result equals the one-matrix result bit for bit.
    """
    _check_side(side)
    rho = np.asarray(state, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 density matrices, got shape {rho.shape}")
    if spec.kind is NoiseKind.NONE or spec.p == 0.0:
        return rho.copy()
    if spec.kind is NoiseKind.DEPHASING:
        z = _LIFTED_Z[side]
        return (1.0 - spec.p) * rho + spec.p * (z @ rho @ z.conj().T)
    # Depolarizing: keep the untouched side's marginal, mix the noisy side.
    if side == "A":
        replaced = _kron(PAULI_I / 2.0, reduced_density(rho, "B"))
    else:
        replaced = _kron(reduced_density(rho, "A"), PAULI_I / 2.0)
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
        if not (duration_ns >= 0.0):
            raise ValueError(f"duration must be non-negative, got {duration_ns}")
        if math.isinf(self.tau_ns):
            return self.eta0
        return self.eta0 * math.exp(-duration_ns / self.tau_ns)


def calibrate_noise(target_fidelity: float, kind: NoiseKind) -> float:
    """Invert a channel's fidelity curve on a phi+ input.

    Returns the ``p`` for which sending one side of phi+ through the
    channel leaves overlap ``target_fidelity`` with phi+.  Both curves are
    linear, so the inverse is exact: depolarizing noise gives
    ``F = 1 - 3p/4`` (reaching down to 0.25) and dephasing ``F = 1 - p``.

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
    slope = 0.75 if kind is NoiseKind.DEPOLARIZING else 1.0
    return min(max((1.0 - target_fidelity) / slope, 0.0), 1.0)
