"""The per-branch session engine against the slow pair-by-pair reference.

``reference_engine.run_session`` is the original loop engine.  For random
configurations, seeds, attackers, analyzer modes and messages (up to twice
the message slots, so capacity errors and messages longer than the
surviving slots both occur), both engines must return equal results: every
``SessionResult`` field, with the same Python types.  The session's
``PairStates`` must also give a randomly drawn branch the reference's state
bit for bit at every stage.

``PairStates``' stacked branch table must also equal the reference's
one-matrix states (``reference_engine.branch_state``) bit for bit, for every
branch key the engine can meet, under random noise; and the stack-aware
state functions must equal the reference's original one-matrix functions bit
for bit on random states, one matrix or a whole stack at a time.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from qsdc.errors import CapacityError
from qsdc.core import apply_local, lift_local, reduced_density
from qsdc.measurement import BsmMode, LocalBasis, bell_overlaps, outcome_probs
from qsdc.noise import ChannelSpec, MemorySpec, NoiseKind, apply_channel
from qsdc.protocol import (
    STAGE_LABELS,
    BasisPolicy,
    EveKind,
    EveStrategy,
    PairStates,
    SessionConfig,
    intercept_resend,
    run_session,
)

probability = st.floats(0.0, 1.0)
channels = st.builds(ChannelSpec, st.sampled_from(NoiseKind), st.floats(0.0, 0.4))
memories = st.builds(
    MemorySpec,
    st.one_of(st.just(1.0), probability),
    st.sampled_from([math.inf, 300.0, 5000.0]),
    st.floats(0.0, 0.3),
)


@st.composite
def sessions(draw):
    n_pairs = draw(st.integers(50, 5000))
    config = SessionConfig(
        n_pairs=n_pairs,
        check_fraction=draw(st.floats(10.0 / n_pairs, 0.6)),
        qber_threshold=draw(st.floats(0.01, 0.6)),
        source_noise=draw(channels),
        hop_noise=draw(channels),
        transmittance=draw(st.one_of(st.just(1.0), probability)),
        memory_a=draw(memories),
        memory_b=draw(memories),
        bsm_mode=draw(st.sampled_from(BsmMode)),
        eve=EveStrategy(draw(st.sampled_from(EveKind)), draw(st.sampled_from(BasisPolicy))),
        eve_on_encoded_hop=draw(st.booleans()),
        gen_prob_per_cycle=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
    )
    n_check1 = int(round(config.check_fraction * n_pairs / 2.0))
    slots = n_pairs - 2 * n_check1
    n_bits = draw(st.integers(0, 4 * slots))
    bits = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, n_bits)
    message = "".join("01"[b] for b in bits)
    return config, message, draw(st.integers(0, 2**63 - 1))


def _fields(result):
    return repr(tuple(getattr(result, f.name) for f in dataclasses.fields(result)))


#: A branch ``(e1, code, e2)``: attack basis on each hop (-1 for none) and code index.
branches = st.tuples(st.sampled_from((-1, 0, 1)), st.integers(0, 3), st.sampled_from((-1, 0, 1)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sessions(), branches)
def test_matches_reference_engine(session, branch):
    config, message, seed = session
    states = PairStates(config)
    for label in STAGE_LABELS:
        expected_state = reference_engine.branch_state(config, label, *branch)
        assert states(label, *branch).tobytes() == expected_state.tobytes()
    try:
        expected = reference_engine.run_session(config, message, seed)
    except CapacityError:
        try:
            run_session(config, message, seed)
        except CapacityError:
            return
        raise AssertionError("the reference engine raised CapacityError, run_session did not")
    got = run_session(config, message, seed)
    assert _fields(got) == _fields(expected)


# Every (code, e1, e2) analyzer key and every (e1, basis) check key, in the
# engine's key order.
ANALYZER_KEYS = np.array([(c, e1, e2) for c in range(4) for e1 in (-1, 0, 1) for e2 in (-1, 0, 1)])
CHECK_KEYS = [(e1, basis) for e1 in (-1, 0, 1) for basis in (LocalBasis.Z, LocalBasis.X)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(channels, channels, memories, memories)
def test_pair_state_table_matches_reference(source, hop, memory_a, memory_b):
    config = SessionConfig(source_noise=source, hop_noise=hop, memory_a=memory_a, memory_b=memory_b)
    code, e1, e2 = ANALYZER_KEYS.T
    table = PairStates(config).table("encoded", e1, code, e2)
    assert table.shape == (36, 4, 4)
    overlaps = bell_overlaps(table)
    for row, key in enumerate(ANALYZER_KEYS.tolist()):
        expected = reference_engine.branch_state(config, "encoded", key[1], key[0], key[2])
        assert table[row].tobytes() == expected.tobytes()
        assert overlaps[row].tobytes() == bell_overlaps(expected).tobytes()

    states = PairStates(config)
    check = states.table("retrieved_sender", [e1 for e1, _ in CHECK_KEYS])
    for basis in (LocalBasis.Z, LocalBasis.X):
        probs = outcome_probs(check, basis, basis)
        for row, (e1, _) in enumerate(CHECK_KEYS):
            expected = reference_engine.branch_state(config, "retrieved_sender", e1)
            assert check[row].tobytes() == expected.tobytes()
            assert probs[row].tobytes() == outcome_probs(expected, basis, basis).tobytes()

    # The scalar call is one row of the same table, at every stage.
    for label in STAGE_LABELS:
        for c, a, b in ANALYZER_KEYS.tolist():
            expected = reference_engine.branch_state(config, label, a, c, b)
            assert states(label, a, c, b).tobytes() == expected.tobytes()


def test_state_functions_match_reference():
    rng = np.random.default_rng(23)
    g = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
    stack = g @ g.conj().swapaxes(-1, -2)
    stack /= np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]
    ops = np.linalg.qr(rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2)))[0]
    ref = reference_engine
    for side in ("A", "B"):
        pairs = [
            (lift_local(ops, side), [ref.lift_local(u, side) for u in ops]),
            (apply_local(ops, side, stack), [ref.apply_local(u, side, r) for u, r in zip(ops, stack)]),
            (reduced_density(stack, side), [ref.reduced_density(r, side) for r in stack]),
        ]
        for kind in (NoiseKind.DEPOLARIZING, NoiseKind.DEPHASING):
            spec = ChannelSpec(kind, 0.3)
            expected = [ref.apply_channel(spec, side, r) for r in stack]
            pairs.append((apply_channel(spec, side, stack), expected))
        for basis in LocalBasis:
            pairs.append(
                (intercept_resend(stack, side, basis), [ref.intercept_resend(r, side, basis) for r in stack])
            )
        for got, expected in pairs:
            assert got.tobytes() == np.stack(expected).tobytes()
