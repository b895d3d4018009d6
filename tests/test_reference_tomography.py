"""The stacked tomography path against the slow dict-keyed reference.

``reference_tomography`` is the original tomography layer.  For random noisy
Bell states, shot counts (low ones give inversions with negative
eigenvalues, so the projection really clips), bootstrap sizes and seeds,
both paths must give bit-identical datasets, dataset CSV, linear inversions,
physical projections and fidelity reports.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tomography as reference
from qsdc.core import BellLabel, bell_density, bell_state
from qsdc.noise import ChannelSpec, NoiseKind, apply_channel
from qsdc.tomography import (
    BASIS_PAIRS,
    dataset_to_csv,
    exact_tomography,
    fidelity_with_error,
    linear_inversion,
    project_physical,
    simulate_tomography,
)

channels = st.tuples(st.sampled_from(NoiseKind), st.floats(0.0, 0.6), st.sampled_from("AB"))


@st.composite
def experiments(draw):
    rho = bell_density(draw(st.sampled_from(BellLabel)))
    for kind, p, side in draw(st.lists(channels, max_size=3)):
        rho = apply_channel(ChannelSpec(kind, p), side, rho)
    return (
        rho,
        bell_state(draw(st.sampled_from(BellLabel))),
        draw(st.integers(20, 20_000)),
        draw(st.integers(50, 300)),
        draw(st.integers(0, 2**63 - 1)),
    )


def assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(experiments())
def test_matches_reference_tomography(experiment):
    rho, target, shots, resamples, seed = experiment
    for data, ref in (
        (exact_tomography(rho), reference.exact_tomography(rho)),
        (
            simulate_tomography(rho, shots, np.random.default_rng(seed)),
            reference.simulate_tomography(rho, shots, np.random.default_rng(seed)),
        ),
    ):
        assert data.shots_per_basis == ref.shots_per_basis
        assert_same_bits(data.counts, np.stack([ref.counts[pair] for pair in BASIS_PAIRS]))
        assert dataset_to_csv(data) == reference.dataset_to_csv(ref)
        estimate = linear_inversion(data)
        assert_same_bits(estimate, reference.linear_inversion(ref))
        assert_same_bits(project_physical(estimate), reference.project_physical(estimate))
        got = fidelity_with_error(data, target, resamples, np.random.default_rng(seed + 1))
        expected = reference.fidelity_with_error(ref, target, resamples, np.random.default_rng(seed + 1))
        assert repr(got) == repr(expected)
