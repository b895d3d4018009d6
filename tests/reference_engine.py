"""Slow reference engine: the original pair-by-pair session loop.

This is the session engine as first written, kept unchanged as an
independent oracle for ``qsdc.protocol.run_session``: it walks the pairs one
at a time, memoizes branch states in local closures, and resolves every
outcome with its own ``searchsorted`` call.  ``tests/test_reference_engine.py``
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
    BellLabel,
    TwoBitCode,
    apply_local,
    bell_density,
    encode_unitary,
)
from qsdc.errors import CapacityError, TimingError
from qsdc.measurement import BsmMode, LocalBasis, bell_overlaps, outcome_probs
from qsdc.noise import ChannelSpec, NoiseKind, apply_channel
from qsdc.protocol import (
    STAGE_LABELS,
    AbortStage,
    BasisPolicy,
    EveKind,
    SessionConfig,
    SessionResult,
    StageTrace,
    intercept_resend,
    plan_timing,
)
from qsdc.rng import stream_rng


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
    capture_trace: bool = False,
) -> SessionResult:
    """Simulate one full session.

    Args:
        config: Validated session parameters.
        message: Bit string (or 0/1 sequence) to transmit.
        seed: Non-negative integer; the only source of randomness.
        capture_trace: Also record the exact pair state after each pipeline
            stage for the first message pair.

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

    trace = None
    if capture_trace:
        msg_indices = np.nonzero(roles == ROLE_MSG)[0]
        ti = int(msg_indices[0]) if msg_indices.size else 0
        t_e1, t_e2 = int(eve1[ti]), int(eve2[ti])
        t_code = encoded.codes[0] if encoded.codes else TwoBitCode.B00
        plain = state_retrieved_a(t_e1)
        trace = StageTrace(
            stages=(
                (STAGE_LABELS[0], rho_source.copy()),
                (STAGE_LABELS[1], state_distributed(t_e1).copy()),
                (STAGE_LABELS[2], plain.copy()),
                (STAGE_LABELS[3], _finish_transit(plain, t_e2)),
                (STAGE_LABELS[4], _finish_transit(apply_local(encode_unitary(t_code), "A", plain), t_e2)),
            )
        )

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
            trace=trace,
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
