"""Exact two-qubit polarization algebra: states, local operations, fidelity.

Conventions fixed package-wide:

* The product basis is ordered ``(|HH>, |HV>, |VH>, |VV>)``.  The first
  letter is side ``"A"`` (the sender's photon), the second is side ``"B"``
  (the receiver's photon).
* Pure states are length-4 complex vectors with unit norm; density matrices
  are 4x4 complex, Hermitian, trace one, positive semidefinite.
* Single-qubit operators are 2x2 complex arrays and act on one side via
  :func:`apply_local`.
* :func:`apply_local`, :func:`reduced_density` and :func:`fidelity` also
  take ``(..., 4, 4)`` stacks of density matrices; each stacked result
  equals the one-matrix result bit for bit.

Everything here is pure: inputs are never mutated and returned arrays are
fresh.  No sampling happens in this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

# Tolerance tiers: exact algebra, accumulated channel output, and the
# eigenvalue floor below which a matrix is considered genuinely non-physical.
UNITARY_ATOL = 1e-12
NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

PAULI_I: NDArray[np.complex128] = np.eye(2, dtype=complex)
PAULI_X: NDArray[np.complex128] = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y: NDArray[np.complex128] = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z: NDArray[np.complex128] = np.array([[1, 0], [0, -1]], dtype=complex)

KET_H: NDArray[np.complex128] = np.array([1, 0], dtype=complex)
KET_V: NDArray[np.complex128] = np.array([0, 1], dtype=complex)

SIDES = ("A", "B")


class BellLabel(enum.Enum):
    """The four maximally entangled polarization states."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


#: Canonical ordering used everywhere an index stands for a Bell state.
BELL_ORDER = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)


class TwoBitCode(enum.Enum):
    """One two-bit message group, the payload carried by a single pair."""

    B00 = "00"
    B01 = "01"
    B10 = "10"
    B11 = "11"

    @property
    def bits(self) -> tuple[int, int]:
        return int(self.value[0]), int(self.value[1])

    @classmethod
    def from_bits(cls, first: int, second: int) -> "TwoBitCode":
        return cls(f"{first}{second}")


#: Public encoding agreement: which Bell state announces which bit group.
#: Code index ``k`` (``tuple(TwoBitCode)[k]``) announces ``BELL_ORDER[k]``;
#: the engine's code-indexed tables rely on this.
CODE_TO_BELL = dict(zip(TwoBitCode, BELL_ORDER))

BELL_TO_CODE = {bell: code for code, bell in CODE_TO_BELL.items()}

_BELL_AMPLITUDES = {
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    BellLabel.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}

# Local unitaries the sender applies to announce each bit group: identity,
# phase flip, bit flip, and the combined bit+phase flip [[0,1],[-1,0]].
_ENCODE_UNITARIES = {
    TwoBitCode.B00: PAULI_I,
    TwoBitCode.B01: PAULI_Z,
    TwoBitCode.B10: PAULI_X,
    TwoBitCode.B11: np.array([[0, 1], [-1, 0]], dtype=complex),
}


def bell_state(label: BellLabel) -> NDArray[np.complex128]:
    """Return the pure-state amplitudes of one Bell state (fresh copy)."""
    return _BELL_AMPLITUDES[label].copy()


def pure_density(amplitudes: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Outer product |psi><psi| of a normalized pure state.

    Raises:
        ValueError: If the vector is not length 4 or not normalized.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (4,):
        raise ValueError(f"expected a length-4 state vector, got shape {amps.shape}")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"state vector is not normalized: |norm - 1| = {abs(norm - 1.0):.3g}")
    return np.outer(amps, amps.conj())


def bell_density(label: BellLabel) -> NDArray[np.complex128]:
    """Density matrix of one Bell state."""
    return pure_density(_BELL_AMPLITUDES[label])


def encode_unitary(code: TwoBitCode) -> NDArray[np.complex128]:
    """Sender-side 2x2 unitary that maps phi+ to the Bell state for ``code``."""
    return _ENCODE_UNITARIES[code].copy()


def hwp_unitary(theta: float) -> NDArray[np.complex128]:
    """Jones matrix of a half-wave plate with its fast axis at angle ``theta``.

    The matrix is ``[[-cos 2t, sin 2t], [sin 2t, cos 2t]]`` in the (H, V)
    basis.  At ``theta = 0`` it is a pure phase flip (up to global sign); at
    ``theta = pi/4`` it is a bit flip; composing the two yields the combined
    flip used for the fourth bit group.

    Args:
        theta: Plate angle in radians.  Must be finite.

    Raises:
        ValueError: If ``theta`` is NaN or infinite.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    return np.array([[-c, s], [s, c]], dtype=complex)


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def _kron(a: NDArray[np.complex128], b: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """``np.kron`` of 2x2 operators, broadcast over leading stack axes.

    The same products as ``np.kron``, taken in the same order, so each
    stacked result equals ``np.kron`` of its operands bit for bit.
    """
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def lift_local(u: NDArray[np.complex128], side: str) -> NDArray[np.complex128]:
    """Embed a 2x2 operator, or a ``(..., 2, 2)`` stack, as 4x4 ones acting on one side."""
    _check_side(side)
    op = np.asarray(u, dtype=complex)
    if op.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 operators, got shape {op.shape}")
    return _kron(op, PAULI_I) if side == "A" else _kron(PAULI_I, op)


def apply_local(u: NDArray[np.complex128], side: str, state: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Conjugate two-qubit density matrices by single-qubit unitaries.

    Args:
        u: 2x2 unitary, or a ``(..., 2, 2)`` stack of them.
        side: ``"A"`` (first tensor factor) or ``"B"`` (second).
        state: 4x4 density matrix, or a ``(..., 4, 4)`` stack of them; the
            stack axes of ``u`` and ``state`` broadcast against each other.

    Returns:
        ``(U x I) state (U x I)^dagger`` (or ``I x U`` for side B), per
        matrix.  Each stacked result equals the one-matrix result bit for
        bit.

    Raises:
        ValueError: If any ``u`` is not unitary to within ``UNITARY_ATOL``, or
            if shapes are wrong.
    """
    op = np.asarray(u, dtype=complex)
    if op.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 operators, got shape {op.shape}")
    dev = float(np.max(np.abs(op @ op.conj().swapaxes(-1, -2) - PAULI_I), initial=0.0))
    if dev > UNITARY_ATOL:
        raise ValueError(f"operator is not unitary: max |U U^dag - I| = {dev:.3g}")
    rho = np.asarray(state, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 density matrices, got shape {rho.shape}")
    big = lift_local(op, side)
    return big @ rho @ big.conj().swapaxes(-1, -2)


def reduced_density(state: NDArray[np.complex128], keep: str) -> NDArray[np.complex128]:
    """Partial trace of two-qubit density matrices.

    Args:
        state: 4x4 density matrix, or a ``(..., 4, 4)`` stack of them.
        keep: Which side's 2x2 reduced state to return (``"A"`` or ``"B"``).
    """
    _check_side(keep)
    rho = np.asarray(state, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 density matrices, got shape {rho.shape}")
    rho = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep == "A":
        return np.einsum("...abcb->...ac", rho)
    return np.einsum("...abac->...bc", rho)


def fidelity(state: NDArray[np.complex128], target: NDArray[np.complex128]) -> float | NDArray[np.float64]:
    """Overlap ``<t| rho |t>`` between density matrices and a pure target.

    Args:
        state: 4x4 density matrix, or a ``(..., 4, 4)`` stack of them.
        target: Length-4 normalized pure-state amplitudes.

    Returns:
        A real number in [0, 1] up to numerical noise for one matrix; an
        array of shape ``state.shape[:-2]`` for a stack.  Each stacked value
        equals the one-matrix result bit for bit.
    """
    rho = np.asarray(state, dtype=complex)
    vec = np.asarray(target, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 density matrices, got shape {rho.shape}")
    if vec.shape != (4,):
        raise ValueError(f"expected a length-4 target vector, got shape {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"target vector is not normalized: |norm - 1| = {abs(norm - 1.0):.3g}")
    # Row-vector times matrix, then times column vector, per matrix: the
    # same products a lone 4x4 gets, whatever the stack's shape.
    value = np.real((vec.conj()[None, :] @ rho) @ vec[:, None])[..., 0, 0]
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class PhysicalityReport:
    """Diagnostics from :func:`validate_physical`.

    Attributes:
        hermiticity_deviation: ``max |rho - rho^dagger|`` elementwise.
        trace_deviation: ``|tr(rho) - 1|``.
        min_eigenvalue: Smallest eigenvalue of the Hermitian part.
    """

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return (
            self.hermiticity_deviation <= HERMITIAN_ATOL
            and self.trace_deviation <= TRACE_ATOL
            and self.min_eigenvalue >= EIGENVALUE_FLOOR
        )


def validate_physical(matrix: NDArray[np.complex128]) -> PhysicalityReport:
    """Check whether a 4x4 matrix is a valid density matrix.

    Hermiticity and trace are held to 1e-10; eigenvalues may dip to -1e-9
    to accommodate accumulated floating-point error from channel chains.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    trace_dev = float(abs(np.trace(m) - 1.0))
    hermitian_part = (m + m.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(hermitian_part)[0])
    return PhysicalityReport(herm_dev, trace_dev, min_eig)


_DENSITY_CSV_HEADER = "row,col,re,im"


def density_to_csv(state: NDArray[np.complex128]) -> str:
    """Serialize a 4x4 complex matrix as ``row,col,re,im`` CSV text.

    Sixteen data rows follow the header, in row-major order, with real and
    imaginary parts printed to 17 significant digits so the round trip is
    exact for double precision.
    """
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    lines = [_DENSITY_CSV_HEADER]
    for r in range(4):
        for c in range(4):
            v = rho[r, c]
            lines.append(f"{r},{c},{v.real:.17g},{v.imag:.17g}")
    return "\n".join(lines) + "\n"


def density_from_csv(text: str) -> NDArray[np.complex128]:
    """Parse the output of :func:`density_to_csv` back into a 4x4 array."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != _DENSITY_CSV_HEADER:
        raise ValueError(f"expected header {_DENSITY_CSV_HEADER!r}")
    if len(lines) != 17:
        raise ValueError(f"expected 16 data rows, got {len(lines) - 1}")
    out = np.zeros((4, 4), dtype=complex)
    seen = set()
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed row: {ln!r}")
        r, c = int(parts[0]), int(parts[1])
        if not (0 <= r < 4 and 0 <= c < 4):
            raise ValueError(f"index out of range in row: {ln!r}")
        if (r, c) in seen:
            raise ValueError(f"duplicate entry for ({r},{c})")
        seen.add((r, c))
        out[r, c] = complex(float(parts[2]), float(parts[3]))
    return out
