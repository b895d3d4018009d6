"""The per-branch session engine against the slow pair-by-pair reference.

``reference_engine.run_session`` is the original loop engine.  For random
configurations, seeds, attackers, analyzer modes and messages (up to twice
the message slots, so capacity errors and messages longer than the
surviving slots both occur), both engines must return equal results: every
``SessionResult`` field, with the same Python types, and bit-identical
trace states.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from qsdc.errors import CapacityError
from qsdc.measurement import BsmMode
from qsdc.noise import ChannelSpec, MemorySpec, NoiseKind
from qsdc.protocol import BasisPolicy, EveKind, EveStrategy, SessionConfig, run_session

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
    return repr(tuple(getattr(result, f.name) for f in dataclasses.fields(result) if f.name != "trace"))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sessions())
def test_matches_reference_engine(session):
    config, message, seed = session
    try:
        expected = reference_engine.run_session(config, message, seed, capture_trace=True)
    except CapacityError:
        try:
            run_session(config, message, seed)
        except CapacityError:
            return
        raise AssertionError("the reference engine raised CapacityError, run_session did not")
    got = run_session(config, message, seed, capture_trace=True)
    assert _fields(got) == _fields(expected)
    assert got.trace.labels == expected.trace.labels
    for (_, a), (_, b) in zip(got.trace.stages, expected.trace.stages):
        np.testing.assert_array_equal(a, b)
