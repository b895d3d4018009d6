"""Tomography tests: dataset handling, inversion, projection, error bars."""

import itertools

import numpy as np
import pytest

import reference_tomography as reference
from qsdc.core import (
    PAULI_Z,
    BellLabel,
    apply_local,
    bell_density,
    bell_state,
    fidelity,
    validate_physical,
)
from qsdc.measurement import LocalBasis
from qsdc.noise import ChannelSpec, NoiseKind, apply_channel
from qsdc.tomography import (
    BASIS_PAIRS,
    FidelityReport,
    TomoDataset,
    dataset_from_csv,
    dataset_to_csv,
    exact_tomography,
    fidelity_with_error,
    linear_inversion,
    project_physical,
    simulate_tomography,
)


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian_unit_trace(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2.0
    h = h + (1.0 - np.trace(h).real) / 4.0 * np.eye(4)
    return h


def werner(f):
    p = 4.0 * (1.0 - f) / 3.0
    return apply_channel(
        ChannelSpec(NoiseKind.DEPOLARIZING, p), "A", bell_density(BellLabel.PHI_PLUS)
    )


def simplex_oracle(values):
    """Brute-force nearest point on the probability simplex via support search."""
    best, best_dist = None, np.inf
    for size in range(1, 5):
        for support in itertools.combinations(range(4), size):
            w = np.zeros(4)
            shift = (1.0 - sum(values[list(support)])) / size
            for i in support:
                w[i] = values[i] + shift
            if np.any(w < -1e-12):
                continue
            w = np.maximum(w, 0.0)
            dist = float(np.sum((w - values) ** 2))
            if dist < best_dist - 1e-15:
                best, best_dist = w, dist
    return best


class TestTomoDataset:
    def test_requires_all_nine_settings(self):
        with pytest.raises(ValueError, match="nine"):
            TomoDataset(shots_per_basis=100, counts=np.full((8, 4), 25.0))

    def test_rejects_negative_counts(self):
        counts = np.full((9, 4), 25.0)
        counts[0] = [-1.0, 51, 25, 25]
        with pytest.raises(ValueError, match="non-negative"):
            TomoDataset(shots_per_basis=100, counts=counts)

    def test_rejects_inconsistent_totals(self):
        counts = np.full((9, 4), 25.0)
        counts[3] = [10.0, 10, 10, 10]
        with pytest.raises(ValueError, match="sum"):
            TomoDataset(shots_per_basis=100, counts=counts)

    def test_exact_rows_must_sum_to_one(self):
        counts = np.full((9, 4), 0.25)
        counts[0] = [0.5, 0.5, 0.5, 0.5]
        with pytest.raises(ValueError, match="sum to one"):
            TomoDataset(shots_per_basis=None, counts=counts)

    def test_frequencies_normalize(self):
        ds = TomoDataset(shots_per_basis=100, counts=np.tile([10.0, 20, 30, 40], (9, 1)))
        np.testing.assert_allclose(ds.frequencies()[0], [0.1, 0.2, 0.3, 0.4], atol=1e-15)


class TestSimulateTomography:
    def test_deterministic_given_rng_state(self):
        rho = werner(0.9)
        d1 = simulate_tomography(rho, 1000, np.random.default_rng(42))
        d2 = simulate_tomography(rho, 1000, np.random.default_rng(42))
        np.testing.assert_array_equal(d1.counts, d2.counts)

    def test_forbidden_outcomes_stay_empty(self):
        data = simulate_tomography(
            bell_density(BellLabel.PHI_PLUS), 5000, np.random.default_rng(0)
        )
        zz = data.counts[BASIS_PAIRS.index((LocalBasis.Z, LocalBasis.Z))]
        assert zz[1] == 0 and zz[2] == 0
        assert zz.sum() == 5000

    def test_rejects_non_positive_shots(self):
        with pytest.raises(ValueError, match="positive"):
            simulate_tomography(bell_density(BellLabel.PHI_PLUS), 0, np.random.default_rng(1))


class TestLinearInversion:
    def test_exact_round_trip_on_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rho = random_density(rng)
            est = linear_inversion(exact_tomography(rho))
            assert np.max(np.abs(est - rho)) < 1e-12

    def test_exact_round_trip_on_flipped_bell_state(self):
        rho = apply_local(PAULI_Z, "A", bell_density(BellLabel.PHI_PLUS))
        est = linear_inversion(exact_tomography(rho))
        assert np.max(np.abs(est - bell_density(BellLabel.PHI_MINUS))) < 1e-12

    def test_output_is_hermitian_unit_trace_even_at_finite_shots(self):
        data = simulate_tomography(werner(0.8), 200, np.random.default_rng(3))
        est = linear_inversion(data)
        assert np.max(np.abs(est - est.conj().T)) < 1e-12
        assert abs(np.trace(est) - 1.0) < 1e-12

    def test_finite_shots_converge_to_state(self):
        rho = werner(0.87)
        data = simulate_tomography(rho, 100000, np.random.default_rng(4))
        est = linear_inversion(data)
        assert np.max(np.abs(est - rho)) < 0.02


class TestProjectPhysical:
    def test_physical_input_unchanged(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rho = random_density(rng)
            np.testing.assert_allclose(project_physical(rho), rho, atol=1e-12)

    def test_matches_support_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            h = random_hermitian_unit_trace(rng)
            w_in, v = np.linalg.eigh(h)
            w_expected = simplex_oracle(w_in)
            expected = (v * w_expected) @ v.conj().T
            np.testing.assert_allclose(project_physical(h), expected, atol=1e-10)

    def test_negative_eigenvalue_clipped(self):
        h = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        out = project_physical(h)
        report = validate_physical(out)
        assert report.ok
        assert report.min_eigenvalue >= -1e-15
        # projection preserves the eigenbasis of a diagonal input
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12

    def test_frobenius_optimality_against_random_candidates(self):
        rng = np.random.default_rng(7)
        h = random_hermitian_unit_trace(rng)
        proj = project_physical(h)
        base = np.linalg.norm(proj - h)
        for _ in range(100):
            candidate = random_density(rng)
            assert base <= np.linalg.norm(candidate - h) + 1e-12

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.3
        m = m / np.trace(m)
        with pytest.raises(ValueError, match="Hermitian"):
            project_physical(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            project_physical(np.eye(4, dtype=complex))

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(15)
        stack = np.stack([random_hermitian_unit_trace(rng) for _ in range(3)])
        stack[1] = np.diag([0.6, 0.5, 0.0, -0.1])
        out = project_physical(stack)
        assert out.shape == (3, 4, 4)
        for got, h in zip(out, stack):
            assert got.tobytes() == project_physical(h).tobytes()
        stack[2, 0, 1] += 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            project_physical(stack)


class TestFidelityWithError:
    def test_exact_data_has_zero_sigma(self):
        rho = werner(0.93)
        report = fidelity_with_error(exact_tomography(rho), bell_state(BellLabel.PHI_PLUS))
        assert isinstance(report, FidelityReport)
        assert report.fidelity == pytest.approx(0.93, abs=1e-9)
        assert report.sigma == 0.0

    def test_point_estimate_matches_pipeline(self):
        data = simulate_tomography(werner(0.87), 2000, np.random.default_rng(8))
        report = fidelity_with_error(data, bell_state(BellLabel.PHI_PLUS), rng=np.random.default_rng(9))
        direct = fidelity(project_physical(linear_inversion(data)), bell_state(BellLabel.PHI_PLUS))
        assert report.fidelity == pytest.approx(direct, abs=0)

    def test_recovers_known_fidelity_with_sane_error_bar(self):
        data = simulate_tomography(werner(0.87), 10000, np.random.default_rng(10))
        report = fidelity_with_error(data, bell_state(BellLabel.PHI_PLUS), rng=np.random.default_rng(11))
        assert abs(report.fidelity - 0.87) < 0.02
        assert 0.0 < report.sigma < 0.03

    def test_deterministic_given_rng(self):
        data = simulate_tomography(werner(0.9), 1000, np.random.default_rng(12))
        r1 = fidelity_with_error(data, bell_state(BellLabel.PHI_PLUS), rng=np.random.default_rng(13))
        r2 = fidelity_with_error(data, bell_state(BellLabel.PHI_PLUS), rng=np.random.default_rng(13))
        assert r1 == r2

    def test_sigma_matches_per_resample_loop(self):
        # The reference draws each resample's nine settings one multinomial
        # call at a time from the same generator.
        target = bell_state(BellLabel.PHI_PLUS)
        data = simulate_tomography(werner(0.9), 1000, np.random.default_rng(12))
        ref_data = reference.simulate_tomography(werner(0.9), 1000, np.random.default_rng(12))
        got = fidelity_with_error(data, target, rng=np.random.default_rng(14))
        expected = reference.fidelity_with_error(ref_data, target, rng=np.random.default_rng(14))
        assert repr(got) == repr(expected)

    def test_sigma_agrees_with_per_child_bootstrap(self):
        # The earlier rule drew resample i from child i of rng.spawn(resamples).
        # Both rules estimate one standard deviation; at 1000 resamples each
        # estimate is within about 2.2% (one sd) of it.
        class PerChild:
            def __init__(self, rng):
                self.rng = rng

            def multinomial(self, n, pvals, size):
                return np.stack([child.multinomial(n, pvals) for child in self.rng.spawn(size[0])])

        target = bell_state(BellLabel.PHI_PLUS)
        for seed in range(20):
            data = simulate_tomography(werner(0.8 + 0.01 * seed), 10_000, np.random.default_rng(seed))
            new = fidelity_with_error(data, target, 1000, np.random.default_rng(100 + seed))
            old = fidelity_with_error(data, target, 1000, PerChild(np.random.default_rng(100 + seed)))
            assert new.fidelity == old.fidelity
            assert new.sigma == pytest.approx(old.sigma, rel=0.15)

    def test_rejects_too_few_resamples(self):
        data = exact_tomography(werner(0.9))
        with pytest.raises(ValueError, match="50"):
            fidelity_with_error(data, bell_state(BellLabel.PHI_PLUS), resamples=49)

    def test_estimate_error_shrinks_with_shots(self):
        # Median absolute error over 20 seeds must decrease as shots grow.
        target = bell_state(BellLabel.PHI_PLUS)
        rho = werner(0.87)
        medians = []
        for shots in (100, 1000, 10000):
            errors = []
            for seed in range(20):
                data = simulate_tomography(rho, shots, np.random.default_rng(seed))
                est = fidelity(project_physical(linear_inversion(data)), target)
                errors.append(abs(est - 0.87))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]


class TestDatasetCsv:
    def test_counted_round_trip(self):
        data = simulate_tomography(werner(0.85), 750, np.random.default_rng(14))
        back = dataset_from_csv(dataset_to_csv(data))
        assert back.shots_per_basis == 750
        np.testing.assert_array_equal(back.counts, data.counts)

    def test_exact_round_trip(self):
        data = exact_tomography(werner(0.7))
        back = dataset_from_csv(dataset_to_csv(data))
        assert back.shots_per_basis is None
        np.testing.assert_allclose(back.counts, data.counts, atol=0)

    def test_header_and_row_shape(self):
        text = dataset_to_csv(exact_tomography(bell_density(BellLabel.PHI_PLUS)))
        lines = text.strip().splitlines()
        assert lines[0] == "basisA,basisB,outcome,count"
        assert len(lines) == 37
        assert lines[1].startswith("Z,Z,++,")

    def test_rejects_wrong_row_count(self):
        text = dataset_to_csv(exact_tomography(bell_density(BellLabel.PHI_PLUS)))
        with pytest.raises(ValueError, match="36"):
            dataset_from_csv("\n".join(text.strip().splitlines()[:-2]))

    def test_rejects_unknown_outcome(self):
        text = dataset_to_csv(exact_tomography(bell_density(BellLabel.PHI_PLUS)))
        with pytest.raises(ValueError, match="outcome"):
            dataset_from_csv(text.replace("Z,Z,++,", "Z,Z,toast,", 1))
