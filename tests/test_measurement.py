"""Local measurement and Bell-analyzer tests."""

import math

import numpy as np
import pytest
from scipy import stats

from qsdc.core import (
    BELL_ORDER,
    BellLabel,
    TwoBitCode,
    apply_local,
    bell_density,
    encode_unitary,
)
from qsdc.measurement import (
    ERASURE,
    BsmMode,
    LocalBasis,
    basis_kets,
    bell_overlaps,
    outcome_probs,
    resolve_bsm,
    resolve_outcomes,
    sample_counts,
)
from qsdc.noise import ChannelSpec, NoiseKind, apply_channel


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def werner(f):
    p = 4.0 * (1.0 - f) / 3.0
    return apply_channel(
        ChannelSpec(NoiseKind.DEPOLARIZING, p), "A", bell_density(BellLabel.PHI_PLUS)
    )


class TestBases:
    def test_kets_are_orthonormal(self):
        for basis in LocalBasis:
            plus, minus = basis_kets(basis)
            assert abs(np.vdot(plus, plus) - 1.0) < 1e-15
            assert abs(np.vdot(minus, minus) - 1.0) < 1e-15
            assert abs(np.vdot(plus, minus)) < 1e-15

    def test_specific_vectors(self):
        s = 1.0 / math.sqrt(2.0)
        plus_z, minus_z = basis_kets(LocalBasis.Z)
        np.testing.assert_allclose(plus_z, [1, 0], atol=0)
        np.testing.assert_allclose(minus_z, [0, 1], atol=0)
        plus_x, _ = basis_kets(LocalBasis.X)
        np.testing.assert_allclose(plus_x, [s, s], atol=1e-15)
        plus_y, minus_y = basis_kets(LocalBasis.Y)
        np.testing.assert_allclose(plus_y, [s, 1j * s], atol=1e-15)
        np.testing.assert_allclose(minus_y, [s, -1j * s], atol=1e-15)


class TestOutcomeProbs:
    def test_correlated_state_in_matching_bases(self):
        rho = bell_density(BellLabel.PHI_PLUS)
        np.testing.assert_allclose(
            outcome_probs(rho, LocalBasis.Z, LocalBasis.Z), [0.5, 0, 0, 0.5], atol=1e-14
        )
        np.testing.assert_allclose(
            outcome_probs(rho, LocalBasis.X, LocalBasis.X), [0.5, 0, 0, 0.5], atol=1e-14
        )

    def test_mixed_bases_are_uniform(self):
        rho = bell_density(BellLabel.PHI_PLUS)
        np.testing.assert_allclose(
            outcome_probs(rho, LocalBasis.Z, LocalBasis.X), [0.25] * 4, atol=1e-14
        )

    def test_singlet_anticorrelated_in_every_basis(self):
        rho = bell_density(BellLabel.PSI_MINUS)
        for basis in LocalBasis:
            probs = outcome_probs(rho, basis, basis)
            np.testing.assert_allclose(probs, [0, 0.5, 0.5, 0], atol=1e-14)

    def test_probabilities_sum_to_trace(self):
        rng = np.random.default_rng(0)
        bases = list(LocalBasis)
        for _ in range(100):
            rho = random_density(rng)
            a = bases[rng.integers(3)]
            b = bases[rng.integers(3)]
            probs = outcome_probs(rho, a, b)
            assert np.all(probs >= 0.0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(21)
        stack = np.stack([[random_density(rng) for _ in range(3)] for _ in range(2)])
        for a in LocalBasis:
            for b in LocalBasis:
                probs = outcome_probs(stack, a, b)
                assert probs.shape == (2, 3, 4)
                for idx in np.ndindex(2, 3):
                    assert probs[idx].tobytes() == outcome_probs(stack[idx], a, b).tobytes()
        with pytest.raises(ValueError, match="4x4"):
            outcome_probs(stack[..., :3, :], LocalBasis.Z, LocalBasis.Z)


class TestSampleCounts:
    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(1)
        counts = sample_counts(np.array([0.1, 0.2, 0.3, 0.4]), 12345, rng)
        assert counts.sum() == 12345

    def test_degenerate_distribution(self):
        rng = np.random.default_rng(2)
        counts = sample_counts(np.array([0.0, 1.0, 0.0, 0.0]), 500, rng)
        np.testing.assert_array_equal(counts, [0, 500, 0, 0])

    def test_uniform_within_five_sigma(self):
        rng = np.random.default_rng(3)
        shots = 100000
        counts = sample_counts(np.array([0.25] * 4), shots, rng)
        sigma = math.sqrt(shots * 0.25 * 0.75)
        assert np.all(np.abs(counts - shots / 4) < 5 * sigma)

    def test_rejects_negative_shots(self):
        with pytest.raises(ValueError, match="shots"):
            sample_counts(np.array([0.25] * 4), -1, np.random.default_rng(4))

    def test_stack_draws_rows_in_order(self):
        probs = np.array([[0.1, 0.2, 0.3, 0.4], [0.25] * 4, [0.0, 1.0, 0.0, 0.0]])
        stacked = sample_counts(probs, 777, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        np.testing.assert_array_equal(stacked, [sample_counts(row, 777, rng) for row in probs])

    def test_rejects_bad_probabilities(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            sample_counts(np.array([0.5, 0.5, 0.5, 0.5]), 10, rng)
        with pytest.raises(ValueError):
            sample_counts(np.array([1.2, -0.2, 0.0, 0.0]), 10, rng)


class TestBellOverlaps:
    def test_bell_states_are_unit_vectors_in_overlap_space(self):
        for k, label in enumerate(BELL_ORDER):
            overlaps = bell_overlaps(bell_density(label))
            expected = np.zeros(4)
            expected[k] = 1.0
            np.testing.assert_allclose(overlaps, expected, atol=1e-14)

    def test_isotropic_mixture_splits_remainder_evenly(self):
        overlaps = bell_overlaps(werner(0.87))
        np.testing.assert_allclose(overlaps, [0.87, 0.13 / 3, 0.13 / 3, 0.13 / 3], atol=1e-9)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(22)
        stack = np.stack([random_density(rng) for _ in range(6)] + [bell_density(BellLabel.PSI_PLUS)])
        overlaps = bell_overlaps(stack)
        assert overlaps.shape == (7, 4)
        for got, rho in zip(overlaps, stack):
            assert got.tobytes() == bell_overlaps(rho).tobytes()
        with pytest.raises(ValueError, match="4x4"):
            bell_overlaps(stack[:, :3])


class TestBsm:
    """The Bell analyzer: ``resolve_bsm`` over pre-drawn uniforms."""

    def test_eigenstate_is_deterministic(self):
        u = np.random.default_rng(6).random(100)
        k = resolve_bsm(bell_overlaps(bell_density(BellLabel.PHI_MINUS)), BsmMode.IDEAL, u)
        assert k.tolist() == [BELL_ORDER.index(BellLabel.PHI_MINUS)] * 100

    def test_encoded_states_decode_exactly(self):
        u = np.random.default_rng(7).random(50)
        src = bell_density(BellLabel.PHI_PLUS)
        expected = {
            TwoBitCode.B00: BellLabel.PHI_PLUS,
            TwoBitCode.B01: BellLabel.PHI_MINUS,
            TwoBitCode.B10: BellLabel.PSI_PLUS,
            TwoBitCode.B11: BellLabel.PSI_MINUS,
        }
        for code, label in expected.items():
            rho = apply_local(encode_unitary(code), "A", src)
            k = resolve_bsm(bell_overlaps(rho), BsmMode.IDEAL, u)
            assert set(k.tolist()) == {BELL_ORDER.index(label)}

    def test_mixed_state_frequency(self):
        f = 0.87
        overlaps = bell_overlaps(werner(f))
        rng = np.random.default_rng(8)
        trials = 100000
        hits = np.count_nonzero(resolve_bsm(overlaps, BsmMode.IDEAL, rng.random(trials)) == 0)
        se = math.sqrt(f * (1 - f) / trials)
        assert abs(hits / trials - f) < 4 * se

    def test_sampled_distribution_chi_square(self):
        overlaps = bell_overlaps(werner(0.8))
        rng = np.random.default_rng(9)
        trials = 50000
        observed = np.bincount(resolve_bsm(overlaps, BsmMode.IDEAL, rng.random(trials)), minlength=4)
        result = stats.chisquare(observed, overlaps / overlaps.sum() * trials)
        assert result.pvalue > 0.001

    def test_rejects_empty_overlaps(self):
        with pytest.raises(ValueError, match="positive mass"):
            resolve_bsm(np.zeros(4), BsmMode.IDEAL, 0.5)

    def test_matches_scalar_inverse_cdf(self):
        # The vectorized resolver equals a per-uniform searchsorted over the
        # normalized cumulative distribution, capped at 3.
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = rng.random(4) * (rng.random(4) < 0.8)
            p[rng.integers(4)] += 0.1
            u = np.concatenate((rng.random(200), [0.0, 1.0 - 1e-16]))
            cum = np.cumsum(p / p.sum())
            expected = [min(int(np.searchsorted(cum, x, side="right")), 3) for x in u]
            assert resolve_outcomes(p, u).tolist() == expected


class TestResolveOutcomes:
    """The gathered inverse CDF: one ``(K, 4)`` table, one row per draw."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        probs = np.array([bad, 0.5, 0.5, 0.0])
        u = [0.1, 0.6, 0.99]
        with pytest.raises(ValueError, match="finite"):
            resolve_outcomes(probs, u)
        table = np.stack([[0.25] * 4, probs])
        with pytest.raises(ValueError, match="finite"):
            resolve_outcomes(table, u, [0, 0, 1])
        with pytest.raises(ValueError, match="finite"):
            resolve_bsm(probs, BsmMode.IDEAL, u)

    def test_gathered_matches_per_row_searchsorted_on_edges(self):
        rng = np.random.default_rng(14)
        table = rng.random((6, 4)) * (rng.random((6, 4)) < 0.7)
        table[:, 3] += 0.05
        cums = [np.cumsum(p / p.sum()) for p in table]
        # Every cumulative edge of every row, its neighbours, and the ends.
        edges = np.concatenate([np.concatenate((c, np.nextafter(c, 0), np.nextafter(c, 2))) for c in cums])
        u = np.concatenate((edges, [0.0, np.nextafter(1.0, 0)], rng.random(100)))
        rows = rng.integers(0, 6, size=u.size)
        expected = [min(int(np.searchsorted(cums[r], x, side="right")), 3) for r, x in zip(rows, u)]
        k = resolve_outcomes(table, u, rows)
        assert k.dtype == np.int8
        assert k.tolist() == expected
        for r in range(6):
            assert resolve_outcomes(table[r], u[rows == r]).tolist() == list(
                np.array(expected)[rows == r]
            )

    def test_caps_at_three_when_last_entry_rounds_below_one(self):
        probs = np.array([0.86, 0.03, 0.73, 0.18])
        cum = np.cumsum(probs / probs.sum())
        assert cum[-1] < 1.0
        u = [cum[-1], np.nextafter(1.0, 0)]
        assert np.searchsorted(cum, u, side="right").tolist() == [4, 4]
        assert resolve_outcomes(probs, u).tolist() == [3, 3]
        assert resolve_outcomes(np.stack([np.ones(4), probs]), u, [1, 1]).tolist() == [3, 3]


class TestLinearOptics:
    def test_psi_states_resolve(self):
        u = np.random.default_rng(10).random(50)
        for label in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS):
            k = resolve_bsm(bell_overlaps(bell_density(label)), BsmMode.LINEAR_OPTICS, u)
            assert set(k.tolist()) == {BELL_ORDER.index(label)}

    def test_phi_states_erase(self):
        u = np.random.default_rng(11).random(50)
        for label in (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS):
            k = resolve_bsm(bell_overlaps(bell_density(label)), BsmMode.LINEAR_OPTICS, u)
            assert set(k.tolist()) == {ERASURE}

    def test_erasure_fraction_on_uniform_mixture(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rng = np.random.default_rng(12)
        trials = 20000
        k = resolve_bsm(bell_overlaps(rho), BsmMode.LINEAR_OPTICS, rng.random(trials))
        erasures = np.count_nonzero(k == ERASURE)
        se = math.sqrt(0.25 / trials)
        assert abs(erasures / trials - 0.5) < 4 * se
