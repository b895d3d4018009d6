"""Two-qubit state tomography: simulated data, inversion, error bars.

The measurement scheme is the standard nine-setting one: every pairing of
local bases (Z, X, Y) on the two sides, four joint outcomes per setting.
A dataset is one ``(9, 4)`` array: row ``i`` holds setting
``BASIS_PAIRS[i]`` (side A's basis outer, side B's inner, so ``ZZ, ZX, ZY,
XZ, ...``), columns the outcomes ``(++, +-, -+, --)``.

Linear inversion reconstructs the state from outcome frequencies; a simplex
projection of the eigenvalue spectrum repairs the result into a physical
density matrix; parametric bootstrap supplies a one-sigma error bar on any
fidelity derived from counted data, drawing every resample from one
generator in one multinomial call.  Inversion, projection and fidelity all
work on stacks, so the point estimate and every bootstrap resample go
through the same three calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .core import (
    HERMITIAN_ATOL,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TRACE_ATOL,
    fidelity,
)
from .measurement import OUTCOME_LABELS, LocalBasis, outcome_probs, sample_counts

#: Canonical measurement-setting order: the row order of every dataset.
BASES = (LocalBasis.Z, LocalBasis.X, LocalBasis.Y)
BASIS_PAIRS = tuple((a, b) for a in BASES for b in BASES)

#: Fewest bootstrap resamples :func:`fidelity_with_error` accepts.
MIN_RESAMPLES = 50

# Stack of kron(P_i, P_j) for i, j in (I, Z, X, Y), used by linear inversion.
_PAULI_SET = (PAULI_I, PAULI_Z, PAULI_X, PAULI_Y)
_PAULI_KRON = np.array([[np.kron(pi, pj) for pj in _PAULI_SET] for pi in _PAULI_SET])


@dataclass(frozen=True, eq=False)
class TomoDataset:
    """Counts (or exact outcome probabilities) for all nine basis settings.

    Attributes:
        shots_per_basis: Shots recorded per setting, or ``None`` when the
            dataset holds exact outcome probabilities instead of counts.
        counts: ``(9, 4)`` array; row ``i`` is setting ``BASIS_PAIRS[i]``,
            columns are the outcomes ordered ``(++, +-, -+, --)``.
    """

    shots_per_basis: int | None
    counts: NDArray[np.float64] = field(repr=False)

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=float)
        if counts.shape != (9, 4):
            raise ValueError(f"counts must have shape (9, 4), a row for each of the nine settings, got {counts.shape}")
        if not np.all(counts >= 0):
            raise ValueError("counts must be non-negative")
        totals = counts.sum(axis=1)
        if self.shots_per_basis is None:
            expected, what = 1.0, "exact dataset rows must sum to one"
        elif self.shots_per_basis <= 0:
            raise ValueError(f"shots_per_basis must be positive, got {self.shots_per_basis}")
        else:
            expected, what = self.shots_per_basis, f"count rows must sum to {self.shots_per_basis}"
        off = np.flatnonzero(np.abs(totals - expected) > 1e-9)
        if off.size:
            a, b = BASIS_PAIRS[off[0]]
            raise ValueError(f"{what}, got {totals[off[0]]} for setting {a.value}{b.value}")
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> NDArray[np.float64]:
        """``(9, 4)`` outcome frequencies (probabilities if exact)."""
        return self.counts / self.counts.sum(axis=1, keepdims=True)


def _setting_probs(state: NDArray[np.complex128]) -> NDArray[np.float64]:
    """``(9, 4)`` exact outcome probabilities, row ``i`` for ``BASIS_PAIRS[i]``."""
    return np.stack([outcome_probs(state, a, b) for a, b in BASIS_PAIRS])


def simulate_tomography(
    state: NDArray[np.complex128], shots_per_basis: int, rng: np.random.Generator
) -> TomoDataset:
    """Sample a full nine-setting tomography experiment on a known state.

    Settings are sampled in row order by one multinomial call, so the result
    is a pure function of ``(state, shots_per_basis, rng state)``.

    Raises:
        ValueError: If ``shots_per_basis`` is not positive.
    """
    if shots_per_basis <= 0:
        raise ValueError(f"shots_per_basis must be positive, got {shots_per_basis}")
    counts = sample_counts(_setting_probs(state), shots_per_basis, rng)
    return TomoDataset(shots_per_basis=shots_per_basis, counts=counts)


def exact_tomography(state: NDArray[np.complex128]) -> TomoDataset:
    """Build the infinite-shot dataset whose rows are exact probabilities."""
    return TomoDataset(shots_per_basis=None, counts=_setting_probs(state))


def _invert(counts: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Linear inversion of ``(..., 9, 4)`` counts into ``(..., 4, 4)`` matrices."""
    f = counts / counts.sum(axis=-1, keepdims=True)
    pp, pm, mp, mm = (f[..., k].reshape(f.shape[:-2] + (3, 3)) for k in range(4))
    # Moments of each setting [i, j]: the correlation <s_A s_B> and the two
    # single-side means.  The emitted bytes depend on the rounding order, so
    # each moment is summed left to right over the four outcomes and each
    # average adds its three thirds left to right (a matrix product would not).
    corr = pp - pm - mp + mm
    mean_a = pp + pm - mp - mm
    mean_b = pp - pm + mp - mm
    s = np.zeros(f.shape[:-2] + (4, 4))
    s[..., 0, 0] = 1.0
    s[..., 1:, 1:] = corr
    s[..., 1:, 0] = mean_a[..., 0] / 3.0 + mean_a[..., 1] / 3.0 + mean_a[..., 2] / 3.0
    s[..., 0, 1:] = mean_b[..., 0, :] / 3.0 + mean_b[..., 1, :] / 3.0 + mean_b[..., 2, :] / 3.0
    return np.einsum("...ij,ijkl->...kl", s, _PAULI_KRON) / 4.0


def linear_inversion(data: TomoDataset) -> NDArray[np.complex128]:
    """Reconstruct a matrix from tomography data by direct moment inversion.

    Correlation moments come from their own setting; single-side moments are
    averaged over the three settings of the other side that measure them.
    The output is Hermitian with unit trace by construction but may have
    small negative eigenvalues at finite shots — feed it to
    :func:`project_physical` before using it as a state.
    """
    return _invert(data.counts)


def project_physical(estimate: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Repair Hermitian unit-trace estimates into the nearest physical states.

    Works on one 4x4 matrix or a ``(..., 4, 4)`` stack.  Each matrix's
    eigenvalues are projected (in Euclidean norm) onto the probability
    simplex while eigenvectors are kept, which yields the closest density
    matrix in Frobenius distance.  Already-physical inputs pass through
    unchanged up to rounding.

    Raises:
        ValueError: If any input matrix is not Hermitian or not unit trace
            to within 1e-10.
    """
    m = np.asarray(estimate, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got shape {m.shape}")
    m_dag = m.conj().swapaxes(-1, -2)
    herm_dev = float(np.max(np.abs(m - m_dag)))
    if herm_dev > HERMITIAN_ATOL:
        raise ValueError(f"input is not Hermitian: max deviation {herm_dev:.3g}")
    trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
    if trace_dev > TRACE_ATOL:
        raise ValueError(f"input trace deviates from one by {trace_dev:.3g}")
    w, v = np.linalg.eigh((m + m_dag) / 2.0)
    # Simplex projection of each spectrum: with u sorted descending and css
    # its running sum, the support size is the largest j for which
    # u_j + (1 - css_j) / j > 0.
    u = np.sort(w, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, 5)
    support = np.max(np.where(u + (1.0 - css) / j > 0, j, 0), axis=-1, keepdims=True)
    lam = (1.0 - np.take_along_axis(css, support - 1, axis=-1)) / support
    rho = (v * np.maximum(w + lam, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class FidelityReport:
    """A fidelity point estimate with a bootstrap error bar."""

    fidelity: float
    sigma: float
    resamples: int


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
    the original shot count.  All resamples come from one
    ``rng.multinomial`` call of size ``(resamples, 9)``, resample by
    resample and setting by setting, so the first ``k`` resamples do not
    depend on ``resamples``; they are inverted, projected and scored as one
    ``(resamples, 9, 4)`` stack.  Exact (infinite-shot) datasets report
    sigma zero.

    Args:
        data: Tomography dataset.
        target: Length-4 pure target state.
        resamples: Bootstrap resample count; at least ``MIN_RESAMPLES``.
        rng: Generator for the bootstrap; a fixed default is used if omitted
            so repeated calls agree.

    Raises:
        ValueError: If ``resamples`` is below ``MIN_RESAMPLES``.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be at least {MIN_RESAMPLES}, got {resamples}")
    point = fidelity(project_physical(linear_inversion(data)), target)
    if data.shots_per_basis is None:
        return FidelityReport(fidelity=point, sigma=0.0, resamples=resamples)
    if rng is None:
        rng = np.random.default_rng(0)
    counts = rng.multinomial(data.shots_per_basis, data.frequencies(), size=(resamples, 9))
    values = fidelity(project_physical(_invert(counts)), target)
    return FidelityReport(fidelity=point, sigma=float(np.std(values, ddof=1)), resamples=resamples)


_DATASET_CSV_HEADER = "basisA,basisB,outcome,count"

# CSV row keys (basisA, basisB, outcome) in row-major dataset order.
_CSV_KEYS = tuple((a.value, b.value, label) for (a, b), label in itertools.product(BASIS_PAIRS, OUTCOME_LABELS))


def dataset_to_csv(data: TomoDataset) -> str:
    """Serialize a dataset as ``basisA,basisB,outcome,count`` rows.

    Settings appear in canonical order, outcomes in ``(++, +-, -+, --)``
    order.  Counted data prints integers; exact data prints probabilities
    to full precision.
    """
    if data.shots_per_basis is None:
        values = [f"{v:.17g}" for v in data.counts.ravel()]
    else:
        values = [str(int(round(v))) for v in data.counts.ravel()]
    rows = [f"{a},{b},{label},{value}" for (a, b, label), value in zip(_CSV_KEYS, values)]
    return "\n".join([_DATASET_CSV_HEADER, *rows]) + "\n"


def dataset_from_csv(text: str) -> TomoDataset:
    """Parse :func:`dataset_to_csv` output back into a dataset.

    Rows may come in any order.  Integer-valued counts reconstruct a counted
    dataset (shots inferred from the per-setting sums); fractional values
    reconstruct an exact one.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != _DATASET_CSV_HEADER:
        raise ValueError(f"expected header {_DATASET_CSV_HEADER!r}")
    if len(lines) != 1 + 36:
        raise ValueError(f"expected 36 data rows, got {len(lines) - 1}")
    cells: dict[tuple[str, ...], float] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed row: {ln!r}")
        key = tuple(parts[:3])
        if key not in _CSV_KEYS:
            raise ValueError(f"unknown basis or outcome label in row {ln!r}")
        if key in cells:
            raise ValueError(f"duplicate row for {key}")
        cells[key] = float(parts[3])
    counts = np.array([cells[key] for key in _CSV_KEYS]).reshape(9, 4)
    if np.all(np.mod(counts, 1.0) == 0.0):
        totals = counts.sum(axis=1)
        if np.any(totals != totals[0]):
            raise ValueError("counted dataset has inconsistent per-setting totals")
        return TomoDataset(shots_per_basis=int(totals[0]), counts=counts)
    return TomoDataset(shots_per_basis=None, counts=counts)
