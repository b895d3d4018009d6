"""Slow reference tomography: the original dict-keyed nine-setting path.

This is the tomography layer as first written, kept as an independent
oracle for ``qsdc.tomography``: a dataset is a mapping from each
``(basis_a, basis_b)`` setting to its length-4 outcome vector, linear
inversion walks the nine settings one at a time, the physical projection
takes one matrix per call, and the bootstrap builds one dataset per
resample and scores it on its own.  ``tests/test_reference_tomography.py``
asserts that both paths give bit-identical results.  Use it only from tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from qsdc.core import HERMITIAN_ATOL, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, TRACE_ATOL
from qsdc.measurement import OUTCOME_LABELS, LocalBasis, outcome_probs, sample_counts
from qsdc.tomography import FidelityReport

BASES = (LocalBasis.Z, LocalBasis.X, LocalBasis.Y)
BASIS_PAIRS = tuple((a, b) for a in BASES for b in BASES)

# Outcome sign vectors for sides A and B, ordered (++, +-, -+, --).
_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])

# Stack of kron(P_i, P_j) for i, j in (I, Z, X, Y), used by linear inversion.
_PAULI_SET = (PAULI_I, PAULI_Z, PAULI_X, PAULI_Y)
_PAULI_KRON = np.array([[np.kron(pi, pj) for pj in _PAULI_SET] for pi in _PAULI_SET])


def fidelity(state: NDArray[np.complex128], target: NDArray[np.complex128]) -> float:
    """Overlap ``<t| rho |t>`` of one 4x4 matrix with a pure target."""
    vec = np.asarray(target, dtype=complex)
    return float(np.real(vec.conj() @ np.asarray(state, dtype=complex) @ vec))


@dataclass(frozen=True, eq=False)
class TomoDataset:
    """Counts (or exact outcome probabilities) for all nine basis settings.

    Attributes:
        shots_per_basis: Shots recorded per setting, or ``None`` when the
            dataset holds exact outcome probabilities instead of counts.
        counts: Mapping from a ``(basis_a, basis_b)`` pair to the length-4
            outcome vector ordered ``(++, +-, -+, --)``.
    """

    shots_per_basis: int | None
    counts: Mapping[tuple[LocalBasis, LocalBasis], NDArray[np.float64]] = field(repr=False)

    def __post_init__(self) -> None:
        if set(self.counts.keys()) != set(BASIS_PAIRS):
            raise ValueError("dataset must cover exactly the nine basis pairs")
        clean: dict[tuple[LocalBasis, LocalBasis], NDArray[np.float64]] = {}
        for pair in BASIS_PAIRS:
            vec = np.asarray(self.counts[pair], dtype=float)
            if vec.shape != (4,):
                raise ValueError(f"counts for {pair} must have length 4, got shape {vec.shape}")
            if np.any(vec < 0):
                raise ValueError(f"counts for {pair} must be non-negative")
            total = float(vec.sum())
            if self.shots_per_basis is None:
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(f"exact dataset rows must sum to one, got {total} for {pair}")
            else:
                if self.shots_per_basis <= 0:
                    raise ValueError(f"shots_per_basis must be positive, got {self.shots_per_basis}")
                if abs(total - self.shots_per_basis) > 1e-9:
                    raise ValueError(
                        f"counts for {pair} sum to {total}, expected {self.shots_per_basis}"
                    )
            clean[pair] = vec.copy()
        object.__setattr__(self, "counts", clean)

    def frequencies(self, pair: tuple[LocalBasis, LocalBasis]) -> NDArray[np.float64]:
        """Outcome frequencies for one setting (probabilities if exact)."""
        vec = self.counts[pair]
        total = float(vec.sum())
        return vec / total


def simulate_tomography(
    state: NDArray[np.complex128], shots_per_basis: int, rng: np.random.Generator
) -> TomoDataset:
    """Sample a full nine-setting tomography experiment on a known state.

    Settings are sampled in canonical order, so the result is a pure
    function of ``(state, shots_per_basis, rng state)``.

    Raises:
        ValueError: If ``shots_per_basis`` is not positive.
    """
    if shots_per_basis <= 0:
        raise ValueError(f"shots_per_basis must be positive, got {shots_per_basis}")
    counts = {}
    for pair in BASIS_PAIRS:
        probs = outcome_probs(state, pair[0], pair[1])
        counts[pair] = sample_counts(probs, shots_per_basis, rng).astype(float)
    return TomoDataset(shots_per_basis=shots_per_basis, counts=counts)


def exact_tomography(state: NDArray[np.complex128]) -> TomoDataset:
    """Build the infinite-shot dataset whose rows are exact probabilities."""
    counts = {pair: outcome_probs(state, pair[0], pair[1]) for pair in BASIS_PAIRS}
    return TomoDataset(shots_per_basis=None, counts=counts)


def linear_inversion(data: TomoDataset) -> NDArray[np.complex128]:
    """Reconstruct a matrix from tomography data by direct moment inversion.

    Correlation moments come from their own setting; single-side moments are
    averaged over the three settings of the other side that measure them.
    The output is Hermitian with unit trace by construction but may have
    small negative eigenvalues at finite shots — feed it to
    :func:`project_physical` before using it as a state.
    """
    s = np.zeros((4, 4))
    s[0, 0] = 1.0
    marg_a = np.zeros(3)
    marg_b = np.zeros(3)
    for i, a in enumerate(BASES):
        for j, b in enumerate(BASES):
            f = data.frequencies((a, b))
            s[i + 1, j + 1] = float(f @ (_SIGN_A * _SIGN_B))
            marg_a[i] += float(f @ _SIGN_A) / 3.0
            marg_b[j] += float(f @ _SIGN_B) / 3.0
    s[1:, 0] = marg_a
    s[0, 1:] = marg_b
    rho = np.einsum("ij,ijkl->kl", s, _PAULI_KRON) / 4.0
    return rho


def _project_simplex(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(values)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, len(u) + 1)
    rho_idx = j[u + (1.0 - css) / j > 0][-1]
    lam = (1.0 - css[rho_idx - 1]) / rho_idx
    return np.maximum(values + lam, 0.0)


def project_physical(estimate: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Repair a Hermitian unit-trace estimate into the nearest physical state.

    The eigenvalues are projected (in Euclidean norm) onto the probability
    simplex while eigenvectors are kept, which yields the closest density
    matrix in Frobenius distance.  Already-physical inputs pass through
    unchanged up to rounding.

    Raises:
        ValueError: If the input is not Hermitian or not unit trace to
            within 1e-10.
    """
    m = np.asarray(estimate, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > HERMITIAN_ATOL:
        raise ValueError(f"input is not Hermitian: max deviation {herm_dev:.3g}")
    trace_dev = float(abs(np.trace(m) - 1.0))
    if trace_dev > TRACE_ATOL:
        raise ValueError(f"input trace deviates from one by {trace_dev:.3g}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w_proj = _project_simplex(w)
    rho = (v * w_proj) @ v.conj().T
    return (rho + rho.conj().T) / 2.0


def fidelity_with_error(
    data: TomoDataset,
    target: NDArray[np.complex128],
    resamples: int = 100,
    rng: np.random.Generator | None = None,
) -> FidelityReport:
    """Estimate state fidelity from tomography data with a bootstrap sigma.

    The point estimate is the fidelity of the physically projected linear
    inversion against the pure target.  The error bar is the sample standard
    deviation of that statistic over parametric-bootstrap resamples: each
    resample redraws every setting's counts from the observed frequencies at
    the original shot count, one ``rng.multinomial`` call per setting,
    resample by resample.  Exact (infinite-shot) datasets report sigma zero.

    Args:
        data: Tomography dataset.
        target: Length-4 pure target state.
        resamples: Bootstrap resample count; at least 50.
        rng: Generator for the bootstrap; a fixed default is used if omitted
            so repeated calls agree.

    Raises:
        ValueError: If ``resamples`` is below 50.
    """
    if resamples < 50:
        raise ValueError(f"resamples must be at least 50, got {resamples}")

    def statistic(ds: TomoDataset) -> float:
        return fidelity(project_physical(linear_inversion(ds)), target)

    point = statistic(data)
    if data.shots_per_basis is None:
        return FidelityReport(fidelity=point, sigma=0.0, resamples=resamples)
    if rng is None:
        rng = np.random.default_rng(0)
    shots = data.shots_per_basis
    values = np.empty(resamples)
    for r in range(resamples):
        counts = {
            pair: rng.multinomial(shots, data.frequencies(pair)).astype(float)
            for pair in BASIS_PAIRS
        }
        values[r] = statistic(TomoDataset(shots_per_basis=shots, counts=counts))
    return FidelityReport(fidelity=point, sigma=float(np.std(values, ddof=1)), resamples=resamples)


_DATASET_CSV_HEADER = "basisA,basisB,outcome,count"


def dataset_to_csv(data: TomoDataset) -> str:
    """Serialize a dataset as ``basisA,basisB,outcome,count`` rows.

    Settings appear in canonical order, outcomes in ``(++, +-, -+, --)``
    order.  Counted data prints integers; exact data prints probabilities
    to full precision.
    """
    lines = [_DATASET_CSV_HEADER]
    for a, b in BASIS_PAIRS:
        vec = data.counts[(a, b)]
        for k, label in enumerate(OUTCOME_LABELS):
            if data.shots_per_basis is None:
                value = f"{vec[k]:.17g}"
            else:
                value = str(int(round(vec[k])))
            lines.append(f"{a.value},{b.value},{label},{value}")
    return "\n".join(lines) + "\n"
