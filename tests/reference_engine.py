"""Slow reference engine: the original pair-by-pair session loop.

This is the session engine as first written, kept unchanged as an
independent oracle for ``qsdc.protocol.run_session``: it walks the pairs one
at a time, memoizes branch states in local closures, and resolves every
outcome with its own ``searchsorted`` call.  The one-matrix state functions
it builds those states with (``lift_local``, ``apply_local``,
``reduced_density``, ``apply_channel`` and ``intercept_resend``) are kept
here too, in their original form, so the oracle does not share the stacked
state code it checks; ``branch_state`` exposes them for one branch at a
time.  ``tests/test_reference_engine.py``
asserts that both engines return equal results over random configurations.
Too slow for real sessions; use it only from tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from qsdc.core import (
    BELL_ORDER,
    BELL_TO_CODE,
    PAULI_I,
    PAULI_Z,
    SIDES,
    UNITARY_ATOL,
    BellLabel,
    TwoBitCode,
    bell_density,
    encode_unitary,
)
from qsdc.errors import CapacityError, TimingError
from qsdc.measurement import BsmMode, LocalBasis, basis_kets, bell_overlaps, outcome_probs
from qsdc.noise import ChannelSpec, NoiseKind
from qsdc.protocol import (
    AbortStage,
    BasisPolicy,
    EveKind,
    SessionConfig,
    SessionResult,
    plan_timing,
)
from qsdc.rng import stream_rng


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def lift_local(u: NDArray[np.complex128], side: str) -> NDArray[np.complex128]:
    """Embed a 2x2 operator as a 4x4 one acting on the given side only."""
    _check_side(side)
    op = np.asarray(u, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    return np.kron(op, PAULI_I) if side == "A" else np.kron(PAULI_I, op)


def apply_local(u: NDArray[np.complex128], side: str, state: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Conjugate a two-qubit density matrix by a single-qubit unitary.

    Args:
        u: 2x2 unitary.
        side: ``"A"`` (first tensor factor) or ``"B"`` (second).
        state: 4x4 density matrix.

    Returns:
        ``(U x I) state (U x I)^dagger`` (or ``I x U`` for side B).

    Raises:
        ValueError: If ``u`` is not unitary to within ``UNITARY_ATOL``, or if
            shapes are wrong.
    """
    op = np.asarray(u, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    dev = float(np.max(np.abs(op @ op.conj().T - PAULI_I)))
    if dev > UNITARY_ATOL:
        raise ValueError(f"operator is not unitary: max |U U^dag - I| = {dev:.3g}")
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    big = lift_local(op, side)
    return big @ rho @ big.conj().T


def reduced_density(state: NDArray[np.complex128], keep: str) -> NDArray[np.complex128]:
    """Partial trace of a two-qubit density matrix.

    Args:
        state: 4x4 density matrix.
        keep: Which side's 2x2 reduced state to return (``"A"`` or ``"B"``).
    """
    _check_side(keep)
    rho = np.asarray(state, dtype=complex).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", rho)
    return np.einsum("abac->bc", rho)


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


def intercept_resend(
    state: NDArray[np.complex128], side: str, basis: LocalBasis
) -> NDArray[np.complex128]:
    """Exact state change from an intercept-resend attack on one qubit.

    The attacker measures the chosen side projectively in ``basis`` and
    resends the eigenstate found.  Averaged over the (unknown) outcomes the
    state becomes ``sum_k P_k rho P_k``, which is what every honest-party
    statistic sees; no sampling of the attacker's result is needed.
    """
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    out = np.zeros_like(rho)
    for ket in basis_kets(basis):
        proj = lift_local(np.outer(ket, ket.conj()), side)
        out += proj @ rho @ proj.conj().T
    return out


@dataclass(frozen=True)
class EncodedMessage:
    """Bit groups ready for transmission.

    ``padded`` records whether a zero bit was appended to complete the last
    group; ``bit_length`` is the original message length before padding.
    """

    codes: tuple[TwoBitCode, ...]
    padded: bool
    bit_length: int


def encode_message(bits: str | Sequence[int]) -> EncodedMessage:
    """Split a bit string into two-bit groups, padding the tail if odd.

    Args:
        bits: Either a string over ``{'0', '1'}`` (whitespace ignored) or a
            sequence of 0/1 integers.

    Raises:
        ValueError: On any character or value outside {0, 1}.
    """
    if isinstance(bits, str):
        cleaned = "".join(bits.split())
        bad = set(cleaned) - {"0", "1"}
        if bad:
            raise ValueError(f"message contains non-bit characters: {sorted(bad)}")
        values = [int(c) for c in cleaned]
    else:
        values = []
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"message bits must be 0 or 1, got {b!r}")
            values.append(int(b))
    bit_length = len(values)
    padded = bool(bit_length % 2)
    if padded:
        values.append(0)
    codes = tuple(
        TwoBitCode.from_bits(values[k], values[k + 1]) for k in range(0, len(values), 2)
    )
    return EncodedMessage(codes=codes, padded=padded, bit_length=bit_length)


@dataclass(frozen=True)
class CheckRecord:
    """One security-check measurement: shared basis and both outcomes."""

    basis: LocalBasis
    outcome_a: int
    outcome_b: int
    expect_equal: bool = True


def estimate_qber(records: Iterable[CheckRecord]) -> float:
    """Fraction of check records violating their expected correlation.

    Returns NaN for an empty record list.
    """
    total = 0
    errors = 0
    for rec in records:
        total += 1
        agree = rec.outcome_a == rec.outcome_b
        if agree != rec.expect_equal:
            errors += 1
    if total == 0:
        return float("nan")
    return errors / total



_CODE_LIST = tuple(TwoBitCode)
_EVE_BASIS = {0: LocalBasis.Z, 1: LocalBasis.X}
#: The stage names ``branch_state`` answers to, frozen with the oracle.
#: ``retrieved_both`` is an unencoded pair that has crossed the encoded hop.
STAGES = ("emitted", "stored_both", "retrieved_sender", "retrieved_both", "encoded")


def branch_state(
    config: SessionConfig, stage: str, e1: int = -1, code: int = 0, e2: int = -1
) -> NDArray[np.complex128]:
    """The state of one branch after ``stage``, one matrix at a time.

    The same steps ``run_session``'s closures take, in the same order: the
    branch is the attack basis ``e1`` on the distribution hop, the code
    index ``code`` and the attack basis ``e2`` on the encoded hop (-1 for
    no attack, 0 for Z, 1 for X).
    """
    rho = apply_channel(config.source_noise, "A", bell_density(BellLabel.PHI_PLUS))
    if stage == STAGES[0]:
        return rho
    if e1 >= 0:
        rho = intercept_resend(rho, "B", _EVE_BASIS[e1])
    if stage == STAGES[1]:
        return rho
    rho = apply_channel(ChannelSpec(NoiseKind.DEPHASING, config.memory_a.dephase_p), "A", rho)
    if stage == STAGES[2]:
        return rho
    if stage == STAGES[4]:
        rho = apply_local(encode_unitary(_CODE_LIST[code]), "A", rho)
    if e2 >= 0:
        rho = intercept_resend(rho, "A", _EVE_BASIS[e2])
    rho = apply_channel(config.hop_noise, "A", rho)
    return apply_channel(ChannelSpec(NoiseKind.DEPHASING, config.memory_b.dephase_p), "B", rho)


def _draw_eve_bases(policy: BasisPolicy, n: int, rng: np.random.Generator) -> NDArray[np.int8]:
    if policy is BasisPolicy.ALWAYS_Z:
        return np.zeros(n, dtype=np.int8)
    if policy is BasisPolicy.ALWAYS_X:
        return np.ones(n, dtype=np.int8)
    return rng.integers(0, 2, size=n).astype(np.int8)


def run_session(
    config: SessionConfig,
    message: str | Sequence[int],
    seed: int,
) -> SessionResult:
    """Simulate one full session.

    Args:
        config: Validated session parameters.
        message: Bit string (or 0/1 sequence) to transmit.
        seed: Non-negative integer; the only source of randomness.

    Returns:
        A :class:`SessionResult`; identical inputs give identical results.

    Raises:
        TimingError: If the sender memory cannot hold for the required time
            (raised before any randomness is consumed).
        CapacityError: If the message needs more groups than the session
            has message-pair slots.
    """
    plan = plan_timing(config)
    if not plan.feasible:
        raise TimingError(
            f"sender memory holds {config.storage_a_ns} ns but "
            f"{plan.required_ns} ns are required before encoding is safe"
        )
    encoded = encode_message(message)
    n = config.n_pairs
    n_check1 = int(round(config.check_fraction * n / 2.0))
    n_check2 = n_check1
    n_slots = n - n_check1 - n_check2
    if len(encoded.codes) > n_slots:
        raise CapacityError(
            f"message needs {len(encoded.codes)} pair slots but only {n_slots} "
            f"are available ({n} pairs, check fraction {config.check_fraction})"
        )

    # Duty-cycle accounting: how many attempt cycles the block consumed.
    r_cycles = stream_rng(seed, "cycles")
    if config.gen_prob_per_cycle >= 1.0:
        cycles = n
    else:
        cycles = int(r_cycles.geometric(config.gen_prob_per_cycle, size=n).sum())
    periods = -(-cycles // config.duty_cycles_per_period)
    sim_time_s = periods * config.period_ms * 1e-3

    # Role assignment: a random split into check-1, check-2, and message pairs.
    ROLE_MSG, ROLE_C1, ROLE_C2 = 0, 1, 2
    perm = stream_rng(seed, "roles").permutation(n)
    roles = np.full(n, ROLE_MSG, dtype=np.int8)
    roles[perm[:n_check1]] = ROLE_C1
    roles[perm[n_check1 : n_check1 + n_check2]] = ROLE_C2

    eve_active = config.eve.kind is EveKind.INTERCEPT_RESEND
    if eve_active:
        eve1 = _draw_eve_bases(config.eve.basis_policy, n, stream_rng(seed, "eve_dist"))
    else:
        eve1 = np.full(n, -1, dtype=np.int8)
    if eve_active and config.eve_on_encoded_hop:
        eve2 = _draw_eve_bases(config.eve.basis_policy, n, stream_rng(seed, "eve_enc"))
    else:
        eve2 = np.full(n, -1, dtype=np.int8)

    # Sender-side retrieval survival, drawn per pair.
    eta_a = config.memory_a.efficiency(config.storage_a_ns)
    ok_a = stream_rng(seed, "mem_a").random(n) < eta_a
    pairs_lost = int(np.count_nonzero(~ok_a))

    # Exact state pipeline.  Pairs with the same discrete history share a
    # density matrix, so each distinct branch is evaluated once.
    dephase_a = ChannelSpec(NoiseKind.DEPHASING, config.memory_a.dephase_p)
    dephase_b = ChannelSpec(NoiseKind.DEPHASING, config.memory_b.dephase_p)
    rho_source = apply_channel(config.source_noise, "A", bell_density(BellLabel.PHI_PLUS))

    _distributed: dict[int, NDArray[np.complex128]] = {}

    def state_distributed(e1_code: int) -> NDArray[np.complex128]:
        if e1_code not in _distributed:
            if e1_code < 0:
                _distributed[e1_code] = rho_source
            else:
                _distributed[e1_code] = intercept_resend(rho_source, "B", _EVE_BASIS[e1_code])
        return _distributed[e1_code]

    _retrieved_a: dict[int, NDArray[np.complex128]] = {}

    def state_retrieved_a(e1_code: int) -> NDArray[np.complex128]:
        if e1_code not in _retrieved_a:
            _retrieved_a[e1_code] = apply_channel(dephase_a, "A", state_distributed(e1_code))
        return _retrieved_a[e1_code]

    def _finish_transit(rho: NDArray[np.complex128], e2_code: int) -> NDArray[np.complex128]:
        if e2_code >= 0:
            rho = intercept_resend(rho, "A", _EVE_BASIS[e2_code])
        rho = apply_channel(config.hop_noise, "A", rho)
        return apply_channel(dephase_b, "B", rho)

    _check_cum: dict[tuple[int, LocalBasis], NDArray[np.float64]] = {}

    def check_cum(e1_code: int, basis: LocalBasis) -> NDArray[np.float64]:
        key = (e1_code, basis)
        if key not in _check_cum:
            probs = outcome_probs(state_retrieved_a(e1_code), basis, basis)
            _check_cum[key] = np.cumsum(probs / probs.sum())
        return _check_cum[key]

    _bsm_cum: dict[tuple[TwoBitCode, int, int], NDArray[np.float64]] = {}

    def bsm_cum(code: TwoBitCode, e1_code: int, e2_code: int) -> NDArray[np.float64]:
        key = (code, e1_code, e2_code)
        if key not in _bsm_cum:
            rho = apply_local(encode_unitary(code), "A", state_retrieved_a(e1_code))
            overlaps = bell_overlaps(_finish_transit(rho, e2_code))
            _bsm_cum[key] = np.cumsum(overlaps / overlaps.sum())
        return _bsm_cum[key]

    def build_result(
        aborted_at: AbortStage,
        qber1: float,
        qber2: float,
        decoded: dict[int, TwoBitCode],
        erasures: list[int],
        lost: int,
    ) -> SessionResult:
        if aborted_at is not AbortStage.NOT_ABORTED:
            decoded, erasures = {}, []
        groups = sorted(decoded)
        decoded_bits = "".join(decoded[g].value for g in groups)
        bit_errors = sum(1 for g in groups if decoded[g] is not encoded.codes[g])
        rate = bit_errors / len(groups) if groups else float("nan")
        return SessionResult(
            decoded_bits=decoded_bits,
            erasure_positions=tuple(sorted(erasures)),
            qber_check1=qber1,
            qber_check2=qber2,
            aborted_at=aborted_at,
            pairs_lost=lost,
            bits_sent=encoded.bit_length,
            bits_decoded=len(decoded_bits),
            bit_errors=bit_errors,
            bit_error_rate=rate,
            bit_rate_per_s=len(decoded_bits) / sim_time_s,
            simulated_time_s=sim_time_s,
            message_padded=encoded.padded,
        )

    # --- Check 1: shared-basis correlation test before any encoding. ---
    u_basis = stream_rng(seed, "check_basis").random(n)
    u_out = stream_rng(seed, "check_outcome").random(n)
    records: list[CheckRecord] = []
    for i in np.nonzero((roles == ROLE_C1) & ok_a)[0]:
        basis = LocalBasis.Z if u_basis[i] < 0.5 else LocalBasis.X
        cum = check_cum(int(eve1[i]), basis)
        k = min(int(np.searchsorted(cum, u_out[i], side="right")), 3)
        records.append(CheckRecord(basis=basis, outcome_a=k >> 1, outcome_b=k & 1))
    qber1 = estimate_qber(records)
    if records and qber1 > config.qber_threshold:
        return build_result(AbortStage.CHECK1, qber1, float("nan"), {}, [], pairs_lost)

    # --- Message and decoy pairs: encode, transmit, retrieve, decode. ---
    ok_hop = stream_rng(seed, "loss_enc").random(n) < config.transmittance
    eta_b = config.memory_b.efficiency(config.storage_b_ns)
    ok_b = stream_rng(seed, "mem_b").random(n) < eta_b
    u_bsm = stream_rng(seed, "bsm").random(n)
    c2_codes = stream_rng(seed, "check2_code").integers(0, 4, size=n)

    linear_optics = config.bsm_mode is BsmMode.LINEAR_OPTICS
    next_group = 0
    decoded: dict[int, TwoBitCode] = {}
    erasures: list[int] = []
    c2_compared = 0
    c2_errors = 0
    for i in range(n):
        role = roles[i]
        if role == ROLE_C1 or not ok_a[i]:
            continue
        if role == ROLE_C2:
            group = -1
            code = _CODE_LIST[c2_codes[i]]
        else:
            if next_group >= len(encoded.codes):
                continue  # spare slot, nothing left to send
            group = next_group
            code = encoded.codes[group]
            next_group += 1
        if not ok_hop[i] or not ok_b[i]:
            pairs_lost += 1
            if group >= 0:
                erasures.append(group)
            continue
        cum = bsm_cum(code, int(eve1[i]), int(eve2[i]))
        k = min(int(np.searchsorted(cum, u_bsm[i], side="right")), 3)
        label = BELL_ORDER[k]
        if linear_optics and label in (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS):
            if group >= 0:
                erasures.append(group)
            continue
        got = BELL_TO_CODE[label]
        if group < 0:
            c2_compared += 1
            if got is not code:
                c2_errors += 1
        else:
            decoded[group] = got
    qber2 = c2_errors / c2_compared if c2_compared else float("nan")
    if c2_compared and qber2 > config.qber_threshold:
        return build_result(AbortStage.CHECK2, qber1, qber2, {}, [], pairs_lost)
    return build_result(AbortStage.NOT_ABORTED, qber1, qber2, decoded, erasures, pairs_lost)
