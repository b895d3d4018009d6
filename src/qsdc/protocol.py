"""Session engine for entanglement-based secure direct communication.

A session distributes ``n_pairs`` entangled pairs between a sender and a
receiver, spends a configurable fraction of them on two security checks,
and carries the message on the rest, two bits per pair, by applying one of
four local unitaries and reading it back with a Bell-state measurement.

The first check measures a random subset in a shared random local basis
(Z or X) before any encoding happens; its error rate exposes an
intercept-resend attack on the distribution hop.  The second check mixes
decoy pairs carrying known random bit groups in with the message pairs and
compares them after decoding.  Either check aborts the session when its
error rate exceeds the configured threshold, and an aborted session decodes
nothing.

Loss is heralded at every stage (memory retrievals, the transmission hop):
a lost check pair simply drops out of the statistics, a lost message pair
erases its bit group, and erased positions are reported so the sender can
retransmit.  All randomness is drawn from per-stage streams derived from
the session seed, so identical ``(config, message, seed)`` triples
reproduce results exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    SIDES,
    BellLabel,
    TwoBitCode,
    _check_side,
    apply_local,
    bell_density,
    encode_unitary,
    lift_local,
)
from .errors import CapacityError, TimingError, ValidationError
from .measurement import (
    ERASURE,
    BsmMode,
    LocalBasis,
    basis_kets,
    bell_overlaps,
    outcome_probs,
    resolve_bsm,
    resolve_outcomes,
)
from .noise import ChannelSpec, MemorySpec, NoiseKind, apply_channel
from .rng import stream_rng


class EveKind(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"


class BasisPolicy(enum.Enum):
    """How an intercept-resend attacker picks a measurement basis per pair."""

    ALWAYS_Z = "always_z"
    ALWAYS_X = "always_x"
    RANDOM_ZX = "random_zx"


@dataclass(frozen=True)
class EveStrategy:
    kind: EveKind = EveKind.NONE
    basis_policy: BasisPolicy = BasisPolicy.RANDOM_ZX

    def __post_init__(self) -> None:
        if not isinstance(self.kind, EveKind):
            raise ValidationError(f"kind must be an EveKind, got {self.kind!r}")
        if not isinstance(self.basis_policy, BasisPolicy):
            raise ValidationError(f"basis_policy must be a BasisPolicy, got {self.basis_policy!r}")


# The (+, -) projectors of each local basis, lifted to each side once.
_PROJECTORS = {
    (basis, side): tuple(lift_local(np.outer(ket, ket.conj()), side) for ket in basis_kets(basis))
    for basis in LocalBasis
    for side in SIDES
}


def intercept_resend(
    state: NDArray[np.complex128], side: str, basis: LocalBasis
) -> NDArray[np.complex128]:
    """Exact state change from an intercept-resend attack on one qubit.

    The attacker measures the chosen side projectively in ``basis`` and
    resends the eigenstate found.  Averaged over the (unknown) outcomes the
    state becomes ``sum_k P_k rho P_k``, which is what every honest-party
    statistic sees; no sampling of the attacker's result is needed.

    ``state`` is a 4x4 density matrix or a ``(..., 4, 4)`` stack of them;
    each stacked result equals the one-matrix result bit for bit.
    """
    _check_side(side)
    rho = np.asarray(state, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 density matrices, got shape {rho.shape}")
    out = np.zeros_like(rho)
    for proj in _PROJECTORS[(basis, side)]:
        out += proj @ rho @ proj.conj().T
    return out


@dataclass(frozen=True)
class SessionConfig:
    """Full parameter set of one communication session.

    Attributes:
        n_pairs: Entangled pairs distributed in the session.
        check_fraction: Fraction of pairs spent on security checks, split
            evenly between the pre-encoding check and the decoy check.
        qber_threshold: Error rate above which either check aborts.
        distance_m: One-way transmission distance.
        op_time_ns: Local operation time budget per pair.
        light_speed_m_per_ns: Signal velocity on the link (0.3 in air).
        source_noise: Channel applied to the sender-side qubit at emission.
        hop_noise: Channel applied to the encoded photon in transit.
        transmittance: Heralded survival probability of the encoded hop.
        memory_a: Sender-side memory (holds during the timing window).
        memory_b: Receiver-side memory (holds until decoding).
        storage_a_ns: Hold duration in the sender-side memory.
        storage_b_ns: Hold duration in the receiver-side memory.
        bsm_mode: Bell-analyzer model used for decoding.
        eve: Attacker model on the distribution hop.
        eve_on_encoded_hop: Also attack the encoded photon in transit.
        gen_prob_per_cycle: Probability that one duty cycle yields a pair
            (folds source brightness and distribution losses into one
            heralded number).
        cycle_time_ns: Duration of one attempt cycle.
        duty_cycles_per_period: Attempt cycles available per duty period.
        period_ms: Length of one duty period (cycles run only in its active
            window, so throughput is paced by the period, not the cycle).
    """

    n_pairs: int = 1000
    check_fraction: float = 0.2
    qber_threshold: float = 0.12
    distance_m: float = 3.0
    op_time_ns: float = 40.0
    light_speed_m_per_ns: float = 0.3
    source_noise: ChannelSpec = ChannelSpec()
    hop_noise: ChannelSpec = ChannelSpec()
    transmittance: float = 1.0
    memory_a: MemorySpec = MemorySpec()
    memory_b: MemorySpec = MemorySpec()
    storage_a_ns: float = 50.0
    storage_b_ns: float = 120.0
    bsm_mode: BsmMode = BsmMode.IDEAL
    eve: EveStrategy = EveStrategy()
    eve_on_encoded_hop: bool = False
    gen_prob_per_cycle: float = 1.0
    cycle_time_ns: float = 500.0
    duty_cycles_per_period: int = 2600
    period_ms: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_pairs, int) or self.n_pairs < 1:
            raise ValidationError(f"n_pairs must be a positive integer, got {self.n_pairs!r}")
        if not (0.0 < self.check_fraction < 1.0):
            raise ValidationError(f"check_fraction must lie in (0, 1), got {self.check_fraction}")
        if self.check_fraction * self.n_pairs < 10.0:
            raise ValidationError(
                "check_fraction * n_pairs must be at least 10 for meaningful statistics, "
                f"got {self.check_fraction * self.n_pairs:.3g}"
            )
        if not (0.0 < self.qber_threshold < 1.0):
            raise ValidationError(f"qber_threshold must lie in (0, 1), got {self.qber_threshold}")
        if not (self.distance_m >= 0.0):
            raise ValidationError(f"distance_m must be non-negative, got {self.distance_m}")
        if not (self.op_time_ns >= 0.0):
            raise ValidationError(f"op_time_ns must be non-negative, got {self.op_time_ns}")
        if not (self.light_speed_m_per_ns > 0.0):
            raise ValidationError(
                f"light_speed_m_per_ns must be positive, got {self.light_speed_m_per_ns}"
            )
        if not isinstance(self.source_noise, ChannelSpec) or not isinstance(self.hop_noise, ChannelSpec):
            raise ValidationError("source_noise and hop_noise must be ChannelSpec instances")
        if not isinstance(self.memory_a, MemorySpec) or not isinstance(self.memory_b, MemorySpec):
            raise ValidationError("memory_a and memory_b must be MemorySpec instances")
        if not (0.0 <= self.transmittance <= 1.0):
            raise ValidationError(f"transmittance must lie in [0, 1], got {self.transmittance}")
        if not (self.storage_a_ns >= 0.0 and self.storage_b_ns >= 0.0):
            raise ValidationError("storage durations must be non-negative")
        if not isinstance(self.bsm_mode, BsmMode):
            raise ValidationError(f"bsm_mode must be a BsmMode, got {self.bsm_mode!r}")
        if not isinstance(self.eve, EveStrategy):
            raise ValidationError(f"eve must be an EveStrategy, got {self.eve!r}")
        if not (0.0 < self.gen_prob_per_cycle <= 1.0):
            raise ValidationError(
                f"gen_prob_per_cycle must lie in (0, 1], got {self.gen_prob_per_cycle}"
            )
        if not (self.cycle_time_ns > 0.0):
            raise ValidationError(f"cycle_time_ns must be positive, got {self.cycle_time_ns}")
        if not isinstance(self.duty_cycles_per_period, int) or self.duty_cycles_per_period < 1:
            raise ValidationError(
                f"duty_cycles_per_period must be a positive integer, got {self.duty_cycles_per_period!r}"
            )
        if not (self.period_ms > 0.0):
            raise ValidationError(f"period_ms must be positive, got {self.period_ms}")
        if not (self.period_ms * 1e-3 > 0.0):
            raise ValidationError(
                f"period_ms is too small to express in seconds, got {self.period_ms}"
            )
        if self.duty_cycles_per_period * self.cycle_time_ns > self.period_ms * 1e6:
            raise ValidationError(
                "active window exceeds the duty period: "
                f"{self.duty_cycles_per_period} cycles x {self.cycle_time_ns} ns "
                f"> {self.period_ms} ms"
            )


@dataclass(frozen=True)
class TimingPlan:
    """Required hold time versus what the sender-side memory can deliver.

    Attributes:
        required_ns: Operation time plus one-way flight time.
        feasible: Whether the configured sender-side hold covers it.
        retrieval_efficiency: Sender-memory efficiency at the required hold.
    """

    required_ns: float
    feasible: bool
    retrieval_efficiency: float


def plan_timing(config: SessionConfig) -> TimingPlan:
    """Check that the sender's memory can hold until it is safe to encode.

    The sender must keep its half of each pair stored for the local
    operation time plus the light travel time over the link; encoding any
    earlier would leak the message to a wiretap on the outgoing photon.
    """
    required = config.op_time_ns + config.distance_m / config.light_speed_m_per_ns
    return TimingPlan(
        required_ns=required,
        feasible=config.storage_a_ns >= required,
        retrieval_efficiency=config.memory_a.efficiency(required),
    )


@dataclass(frozen=True, eq=False)
class EncodedMessage:
    """Bit groups ready for transmission.

    ``codes`` holds one code index per two-bit group: index ``k`` is the
    group ``tuple(TwoBitCode)[k]``, announced by the Bell state
    ``BELL_ORDER[k]``.  ``padded`` records whether a zero bit was appended
    to complete the last group; ``bit_length`` is the original message
    length before padding.
    """

    codes: NDArray[np.int8]
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
        values = np.frombuffer(cleaned.encode("ascii"), dtype=np.int8) - ord("0")
    else:
        values = list(bits)
        for b in values:
            if b not in (0, 1):
                raise ValueError(f"message bits must be 0 or 1, got {b!r}")
        values = np.array(values, dtype=np.int8)
    bit_length = values.size
    padded = bool(bit_length % 2)
    if padded:
        values = np.append(values, np.int8(0))
    codes = values[0::2] * 2 + values[1::2]
    return EncodedMessage(codes=codes, padded=padded, bit_length=bit_length)


class AbortStage(enum.Enum):
    NOT_ABORTED = "none"
    CHECK1 = "check1"
    CHECK2 = "check2"


#: Stage labels of the pair pipeline, in order.
STAGE_LABELS = ("emitted", "stored_both", "retrieved_sender", "encoded")

#: Basis index 0 is Z and 1 is X, for the attacker and the first check alike.
_ZX_BASES = (LocalBasis.Z, LocalBasis.X)
#: The sender's encoding unitaries, row ``k`` for code index ``k``.
_ENCODE_UNITARIES = np.stack([encode_unitary(code) for code in TwoBitCode])


class PairStates:
    """The exact states and outcome tables of every branch of one configuration.

    A branch is the intercept-resend basis on the distribution hop ``e1``
    (-1 for no attack, 0 for Z, 1 for X), the code index ``code`` (see
    :class:`EncodedMessage`) and the attack basis on the encoded hop ``e2``.
    The stages of ``STAGE_LABELS`` are:

    * ``emitted``: phi+ after source noise on side A;
    * ``stored_both``: then the attack on the distribution hop (side B);
    * ``retrieved_sender``: then sender-memory dephasing (side A);
    * ``encoded``: then the code's unitary (A), the encoded-hop attack (A),
      hop noise (A) and receiver-memory dephasing (B), i.e. the pair as it
      enters the Bell analyzer.

    The constructor builds every branch at every stage, with one stacked
    call per pipeline step (one per attack basis for an attack), and the two
    outcome tables a session resolves its pairs against, indexed by branch
    key:

    * ``check``, ``(6, 4)``: row ``(e1 + 1) * 2 + x`` holds the first
      check's joint outcome probabilities after ``retrieved_sender``, with
      both sides measured in Z (``x`` 0) or X (``x`` 1);
    * ``analyzer``, ``(36, 4)``: row ``(code * 3 + e1 + 1) * 3 + e2 + 1``
      holds the ``encoded`` state's Bell overlaps.

    The call ``states(stage, e1, code, e2)`` returns a fresh copy of one
    branch's state; ``qsdc tomo`` and the tests inspect branches through it.
    Loss is heralded, so these are the surviving-path states.
    """

    def __init__(self, config: SessionConfig) -> None:
        dephase_a = ChannelSpec(NoiseKind.DEPHASING, config.memory_a.dephase_p)
        dephase_b = ChannelSpec(NoiseKind.DEPHASING, config.memory_b.dephase_p)
        emitted = apply_channel(config.source_noise, "A", bell_density(BellLabel.PHI_PLUS))
        stored = np.stack([emitted, *(intercept_resend(emitted, "B", b) for b in _ZX_BASES)])
        retrieved = apply_channel(dephase_a, "A", stored)
        # Axes [code, e1 + 1, e2 + 1]; every stage is broadcast to them.
        rho = apply_local(_ENCODE_UNITARIES[:, None], "A", retrieved)
        rho = np.stack([rho, *(intercept_resend(rho, "A", b) for b in _ZX_BASES)], axis=2)
        encoded = apply_channel(dephase_b, "B", apply_channel(config.hop_noise, "A", rho))
        stages = (emitted, stored[:, None], retrieved[:, None], encoded)
        self._stages = {
            label: np.broadcast_to(states, encoded.shape)
            for label, states in zip(STAGE_LABELS, stages)
        }
        probs = [outcome_probs(retrieved, basis, basis) for basis in _ZX_BASES]
        self.check = np.stack(probs, axis=1).reshape(6, 4)
        self.analyzer = bell_overlaps(encoded).reshape(36, 4)

    def __call__(
        self, stage: str, e1: int = -1, code: int = 0, e2: int = -1
    ) -> NDArray[np.complex128]:
        if stage not in self._stages:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGE_LABELS}")
        if not (-1 <= e1 <= 1 and 0 <= code <= 3 and -1 <= e2 <= 1):
            raise ValueError(f"no branch (e1={e1}, code={code}, e2={e2})")
        return self._stages[stage][code, e1 + 1, e2 + 1].copy()


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one session.

    Error accounting is per two-bit group: ``bit_errors`` counts decoded
    groups that differ from what was sent, and ``bit_error_rate`` divides by
    the number of decoded groups.  ``erasure_positions`` are message group
    indices lost to heralded failures or analyzer erasures; the receiver
    knows them and can request retransmission.  An aborted session decodes
    nothing (empty ``decoded_bits``, no erasure list).
    """

    decoded_bits: str
    erasure_positions: tuple[int, ...]
    qber_check1: float
    qber_check2: float
    aborted_at: AbortStage
    pairs_lost: int
    bits_sent: int
    bits_decoded: int
    bit_errors: int
    bit_error_rate: float
    bit_rate_per_s: float
    simulated_time_s: float
    message_padded: bool


_ROLE_MSG, _ROLE_C1, _ROLE_C2 = 0, 1, 2


def _draw_eve_bases(policy: BasisPolicy, n: int, rng: np.random.Generator) -> NDArray[np.int8]:
    if policy is BasisPolicy.ALWAYS_Z:
        return np.zeros(n, dtype=np.int8)
    if policy is BasisPolicy.ALWAYS_X:
        return np.ones(n, dtype=np.int8)
    return rng.integers(0, 2, size=n).astype(np.int8)


def _check1_qber(
    states: PairStates, check: NDArray[np.bool_], eve1: NDArray[np.int8], seed: int
) -> float:
    """Sampled error rate of the pre-encoding check over the pairs in ``check``.

    Both halves of a check pair are measured in one shared basis, Z or X
    with equal probability; an error is a disagreement.  Each pair's
    ``(e1, basis)`` key is its row of ``states.check``, and every pair is
    resolved in one gathered call.  NaN when no pair took part.
    """
    n = check.size
    x_basis = stream_rng(seed, "check_basis").random(n)[check] >= 0.5
    u = stream_rng(seed, "check_outcome").random(n)[check]
    k = resolve_outcomes(states.check, u, (eve1[check] + 1) * 2 + x_basis)
    errors = int(np.count_nonzero((k == 1) | (k == 2)))  # outcomes +- and -+
    return errors / u.size if u.size else float("nan")


def _decode_pairs(
    states: PairStates,
    config: SessionConfig,
    codes: NDArray[np.int8],
    roles: NDArray[np.int8],
    ok_a: NDArray[np.bool_],
    eve1: NDArray[np.int8],
    eve2: NDArray[np.int8],
    seed: int,
) -> tuple[float, int, NDArray[np.int8], NDArray[np.int32], NDArray[np.int32]]:
    """Encode, transmit, retrieve and Bell-analyze message and decoy pairs.

    Message groups go, in pair order, to the message slots whose sender
    memory returned its qubit; slots beyond the last group carry nothing.
    Each pair's ``(code, e1, e2)`` key is its row of ``states.analyzer``,
    and every pair is resolved in one gathered call.

    Returns:
        ``(qber2, lost, decoded, groups, erasures)``: the decoy error rate
        (NaN when no decoy was compared), the pairs lost on the hop or in
        receiver memory, the decoded code indices with their group indices
        (ascending), and the sorted erased group indices.
    """
    n = roles.size
    eta_b = config.memory_b.efficiency(config.storage_b_ns)
    ok_hop = stream_rng(seed, "loss_enc").random(n) < config.transmittance
    survived = ok_hop & (stream_rng(seed, "mem_b").random(n) < eta_b)

    is_msg = ok_a & (roles == _ROLE_MSG)
    group = np.cumsum(is_msg, dtype=np.int32) - 1
    is_msg &= group < codes.size
    active = is_msg | (ok_a & (roles == _ROLE_C2))
    lost = int(np.count_nonzero(active & ~survived))
    lost_groups = group[is_msg & ~survived]
    at_bsm = active & survived
    decoy = ~is_msg[at_bsm]
    group = group[at_bsm]
    code = stream_rng(seed, "check2_code").integers(0, 4, size=n)[at_bsm].astype(np.int8)
    code[~decoy] = codes[group[~decoy]]
    u = stream_rng(seed, "bsm").random(n)[at_bsm]

    rows = (code * 3 + eve1[at_bsm] + 1) * 3 + eve2[at_bsm] + 1
    k = resolve_bsm(states.analyzer, config.bsm_mode, u, rows)

    erased = k == ERASURE
    compared = decoy & ~erased
    n_compared = int(np.count_nonzero(compared))
    errors = int(np.count_nonzero(k[compared] != code[compared]))
    qber2 = errors / n_compared if n_compared else float("nan")
    got = ~(decoy | erased)
    erasures = np.sort(np.concatenate((lost_groups, group[erased & ~decoy])))
    return qber2, lost, k[got], group[got], erasures


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
    codes = encoded.codes
    n = config.n_pairs
    n_check1 = int(round(config.check_fraction * n / 2.0))
    n_check2 = n_check1
    n_slots = n - n_check1 - n_check2
    if codes.size > n_slots:
        raise CapacityError(
            f"message needs {codes.size} pair slots but only {n_slots} "
            f"are available ({n} pairs, check fraction {config.check_fraction})"
        )

    # Duty-cycle accounting: how many attempt cycles the block consumed.
    # The cycle stream is drawn from only when generation can fail; streams
    # are independent by tag, so skipping it changes no other draw.
    if config.gen_prob_per_cycle >= 1.0:
        cycles = n
    else:
        cycles = int(stream_rng(seed, "cycles").geometric(config.gen_prob_per_cycle, size=n).sum())
    periods = -(-cycles // config.duty_cycles_per_period)
    sim_time_s = periods * config.period_ms * 1e-3

    # Role assignment: a random split into check-1, check-2, and message pairs.
    perm = stream_rng(seed, "roles").permutation(n)
    roles = np.full(n, _ROLE_MSG, dtype=np.int8)
    roles[perm[:n_check1]] = _ROLE_C1
    roles[perm[n_check1 : n_check1 + n_check2]] = _ROLE_C2
    del perm

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

    states = PairStates(config)

    # A NaN error rate (no pair compared) never exceeds the threshold.
    qber1 = _check1_qber(states, (roles == _ROLE_C1) & ok_a, eve1, seed)
    qber2 = float("nan")
    decoded = np.empty(0, dtype=np.int8)
    groups = erasures = np.empty(0, dtype=np.int32)
    if qber1 > config.qber_threshold:
        aborted_at = AbortStage.CHECK1
    else:
        qber2, lost, decoded, groups, erasures = _decode_pairs(
            states, config, codes, roles, ok_a, eve1, eve2, seed
        )
        pairs_lost += lost
        aborted_at = AbortStage.CHECK2 if qber2 > config.qber_threshold else AbortStage.NOT_ABORTED
        if aborted_at is AbortStage.CHECK2:
            decoded, groups, erasures = decoded[:0], groups[:0], erasures[:0]

    bits = np.stack((decoded >> 1, decoded & 1), axis=1) + ord("0")
    decoded_bits = bits.tobytes().decode("ascii")
    bit_errors = int(np.count_nonzero(decoded != codes[groups]))
    return SessionResult(
        decoded_bits=decoded_bits,
        erasure_positions=tuple(erasures.tolist()),
        qber_check1=qber1,
        qber_check2=qber2,
        aborted_at=aborted_at,
        pairs_lost=pairs_lost,
        bits_sent=encoded.bit_length,
        bits_decoded=len(decoded_bits),
        bit_errors=bit_errors,
        bit_error_rate=bit_errors / decoded.size if decoded.size else float("nan"),
        bit_rate_per_s=len(decoded_bits) / sim_time_s,
        simulated_time_s=sim_time_s,
        message_padded=encoded.padded,
    )


RESULT_CSV_HEADER = (
    "n_pairs,check_fraction,qber1,qber2,aborted_at,bits_sent,bits_decoded,"
    "erasures,bit_errors,bit_rate_per_s,sim_time_s,seed"
)


def _fmt(value: float) -> str:
    return repr(float(value))


def result_csv_header() -> str:
    return RESULT_CSV_HEADER


def result_csv_row(config: SessionConfig, result: SessionResult, seed: int) -> str:
    """One CSV row summarizing a session, matching ``RESULT_CSV_HEADER``."""
    fields = (
        str(config.n_pairs),
        _fmt(config.check_fraction),
        _fmt(result.qber_check1),
        _fmt(result.qber_check2),
        result.aborted_at.value,
        str(result.bits_sent),
        str(result.bits_decoded),
        str(len(result.erasure_positions)),
        str(result.bit_errors),
        _fmt(result.bit_rate_per_s),
        _fmt(result.simulated_time_s),
        str(seed),
    )
    return ",".join(fields)
