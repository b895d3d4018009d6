"""Exact-algebra tests: Bell states, encoding unitaries, wave plates, fidelity."""

import math

import numpy as np
import pytest

from qsdc.core import (
    BELL_ORDER,
    BELL_TO_CODE,
    CODE_TO_BELL,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BellLabel,
    TwoBitCode,
    apply_local,
    bell_density,
    bell_state,
    density_from_csv,
    density_to_csv,
    encode_unitary,
    fidelity,
    hwp_unitary,
    lift_local,
    pure_density,
    reduced_density,
    validate_physical,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBellStates:
    def test_vectors_exact(self):
        np.testing.assert_allclose(
            bell_state(BellLabel.PHI_PLUS), np.array([1, 0, 0, 1]) * INV_SQRT2, atol=1e-15
        )
        np.testing.assert_allclose(
            bell_state(BellLabel.PHI_MINUS), np.array([1, 0, 0, -1]) * INV_SQRT2, atol=1e-15
        )
        np.testing.assert_allclose(
            bell_state(BellLabel.PSI_PLUS), np.array([0, 1, 1, 0]) * INV_SQRT2, atol=1e-15
        )
        np.testing.assert_allclose(
            bell_state(BellLabel.PSI_MINUS), np.array([0, 1, -1, 0]) * INV_SQRT2, atol=1e-15
        )

    def test_orthonormal(self):
        vecs = [bell_state(label) for label in BELL_ORDER]
        gram = np.array([[abs(np.vdot(a, b)) for b in vecs] for a in vecs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_densities_are_pure(self):
        for label in BellLabel:
            rho = bell_density(label)
            assert abs(np.trace(rho) - 1.0) < 1e-15
            # purity tr(rho^2) == 1 for pure states
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-14

    def test_pure_density_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            pure_density(np.array([1.0, 0, 0, 1.0]))


class TestEncoding:
    def test_table_reaches_all_four_states(self):
        src = bell_density(BellLabel.PHI_PLUS)
        for code, label in CODE_TO_BELL.items():
            rho = apply_local(encode_unitary(code), "A", src)
            assert np.max(np.abs(rho - bell_density(label))) < 1e-12

    def test_vector_level_oracle(self):
        # Direct matrix products, independently of apply_local.
        phi = bell_state(BellLabel.PHI_PLUS)
        expected = {
            TwoBitCode.B00: bell_state(BellLabel.PHI_PLUS),
            TwoBitCode.B01: bell_state(BellLabel.PHI_MINUS),
            TwoBitCode.B10: bell_state(BellLabel.PSI_PLUS),
            TwoBitCode.B11: bell_state(BellLabel.PSI_MINUS),
        }
        for code, target in expected.items():
            out = np.kron(encode_unitary(code), np.eye(2)) @ phi
            np.testing.assert_allclose(out, target, atol=1e-15)

    def test_unitaries_are_unitary(self):
        for code in TwoBitCode:
            u = encode_unitary(code)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-15

    def test_fourth_unitary_is_combined_flip(self):
        np.testing.assert_allclose(
            encode_unitary(TwoBitCode.B11), np.array([[0, 1], [-1, 0]]), atol=0
        )
        # Equal to the bit-flip-then-phase-flip product up to a global phase,
        # which is invisible at the density-matrix level.
        np.testing.assert_allclose(
            encode_unitary(TwoBitCode.B11), -(PAULI_X @ PAULI_Z), atol=1e-15
        )

    def test_encoded_states_pairwise_orthogonal(self):
        phi = bell_state(BellLabel.PHI_PLUS)
        outs = [np.kron(encode_unitary(c), np.eye(2)) @ phi for c in TwoBitCode]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(outs[i], outs[j])) < 1e-15

    def test_code_mapping_round_trip(self):
        for code, label in CODE_TO_BELL.items():
            assert BELL_TO_CODE[label] is code

    def test_code_bits(self):
        assert TwoBitCode.B10.bits == (1, 0)
        assert TwoBitCode.from_bits(1, 1) is TwoBitCode.B11


class TestWavePlates:
    def test_zero_angle_is_phase_flip(self):
        np.testing.assert_allclose(hwp_unitary(0.0), -PAULI_Z, atol=1e-15)

    def test_quarter_turn_is_bit_flip(self):
        np.testing.assert_allclose(hwp_unitary(math.pi / 4), PAULI_X, atol=1e-12)

    def test_composition_gives_combined_flip(self):
        u = hwp_unitary(math.pi / 4) @ hwp_unitary(0.0)
        np.testing.assert_allclose(u, np.array([[0, 1], [-1, 0]]), atol=1e-12)

    def test_plate_settings_produce_three_bell_states(self):
        src = bell_density(BellLabel.PHI_PLUS)
        flipped = apply_local(hwp_unitary(0.0), "A", src)
        assert np.max(np.abs(flipped - bell_density(BellLabel.PHI_MINUS))) < 1e-12
        swapped = apply_local(hwp_unitary(math.pi / 4), "A", src)
        assert np.max(np.abs(swapped - bell_density(BellLabel.PSI_PLUS))) < 1e-12
        both = apply_local(hwp_unitary(math.pi / 4) @ hwp_unitary(0.0), "A", src)
        assert np.max(np.abs(both - bell_density(BellLabel.PSI_MINUS))) < 1e-12

    def test_unitary_and_involutory_everywhere(self):
        for theta in np.linspace(-2.0, 2.0, 41):
            u = hwp_unitary(float(theta))
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
            # a half-wave plate applied twice is the identity
            assert np.max(np.abs(u @ u - np.eye(2))) < 1e-12

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError, match="finite"):
            hwp_unitary(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            hwp_unitary(float("inf"))


class TestApplyLocal:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_local(np.array([[1.0, 0.0], [0.0, 2.0]]), "A", bell_density(BellLabel.PHI_PLUS))

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            apply_local(PAULI_X, "C", bell_density(BellLabel.PHI_PLUS))

    def test_identity_is_noop(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng)
        np.testing.assert_allclose(apply_local(PAULI_I, "B", rho), rho, atol=1e-15)

    def test_side_b_matches_explicit_kron(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng)
        u = random_unitary(rng)
        big = np.kron(np.eye(2), u)
        np.testing.assert_allclose(apply_local(u, "B", rho), big @ rho @ big.conj().T, atol=1e-13)

    def test_sides_act_on_different_factors(self):
        rho = bell_density(BellLabel.PHI_PLUS)
        a = apply_local(PAULI_X, "A", rho)
        b = apply_local(PAULI_X, "B", rho)
        # phi+ is symmetric, so a bit flip on either side gives psi+
        assert np.max(np.abs(a - bell_density(BellLabel.PSI_PLUS))) < 1e-12
        assert np.max(np.abs(b - bell_density(BellLabel.PSI_PLUS))) < 1e-12
        # but a phase flip on B of psi+ differs from the same on A only by sign
        rho2 = apply_local(PAULI_Y, "A", rho)
        report = validate_physical(rho2)
        assert report.ok

    def test_preserves_physicality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = random_density(rng)
            u = random_unitary(rng)
            side = "A" if rng.random() < 0.5 else "B"
            out = apply_local(u, side, rho)
            report = validate_physical(out)
            assert report.ok
            assert abs(np.trace(out) - 1.0) < 1e-12

    def test_lift_local_shapes(self):
        np.testing.assert_allclose(lift_local(PAULI_Z, "A"), np.kron(PAULI_Z, PAULI_I), atol=0)
        np.testing.assert_allclose(lift_local(PAULI_Z, "B"), np.kron(PAULI_I, PAULI_Z), atol=0)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(9)
        states = np.stack([random_density(rng) for _ in range(4)])
        unitaries = np.stack([random_unitary(rng) for _ in range(4)])
        for side in ("A", "B"):
            lifted = lift_local(unitaries, side)
            for u, big in zip(unitaries, lifted):
                kron = np.kron(u, PAULI_I) if side == "A" else np.kron(PAULI_I, u)
                assert big.tobytes() == kron.tobytes()
            # One unitary per matrix, and one unitary shared by the stack.
            for ops in (unitaries, np.broadcast_to(unitaries[0], unitaries.shape)):
                out = apply_local(ops, side, states)
                assert out.shape == (4, 4, 4)
                for got, u, rho in zip(out, ops, states):
                    assert got.tobytes() == apply_local(u, side, rho).tobytes()
            assert apply_local(unitaries[0], side, states).tobytes() == out.tobytes()
        with pytest.raises(ValueError, match="4x4"):
            apply_local(unitaries, "A", states[:, :3])
        unitaries[2] *= 1.1
        with pytest.raises(ValueError, match="unitary"):
            apply_local(unitaries, "A", states)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        for label in BellLabel:
            assert fidelity(bell_density(label), bell_state(label)) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_fidelity_is_zero(self):
        assert fidelity(bell_density(BellLabel.PHI_PLUS), bell_state(BellLabel.PSI_MINUS)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_mixture_oracle(self):
        # One-sided Pauli twirl built by hand: (1-p) rho + p/4 sum_P P rho P.
        p = 0.52
        rho = bell_density(BellLabel.PHI_PLUS)
        acc = np.zeros_like(rho)
        for pauli in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
            big = np.kron(pauli, PAULI_I)
            acc += big @ rho @ big.conj().T
        mixed = (1 - p) * rho + (p / 4.0) * acc
        assert fidelity(mixed, bell_state(BellLabel.PHI_PLUS)) == pytest.approx(1 - 3 * p / 4, abs=1e-14)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng)
        target = bell_state(BellLabel.PSI_PLUS)
        shifted = np.exp(1j * 0.7) * target
        assert fidelity(rho, shifted) == pytest.approx(fidelity(rho, target), abs=1e-14)

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError, match="normalized"):
            fidelity(bell_density(BellLabel.PHI_PLUS), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_linear_in_state(self):
        rng = np.random.default_rng(7)
        r1, r2 = random_density(rng), random_density(rng)
        t = bell_state(BellLabel.PHI_MINUS)
        mix = 0.3 * r1 + 0.7 * r2
        assert fidelity(mix, t) == pytest.approx(0.3 * fidelity(r1, t) + 0.7 * fidelity(r2, t), abs=1e-13)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(8)
        stack = np.stack([[random_density(rng) for _ in range(3)] for _ in range(2)])
        t = bell_state(BellLabel.PSI_MINUS)
        values = fidelity(stack, t)
        assert values.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert values[idx] == fidelity(stack[idx], t)
        assert isinstance(fidelity(stack[0, 0], t), float)


class TestReducedDensity:
    def test_bell_marginals_are_maximally_mixed(self):
        for label in BellLabel:
            rho = bell_density(label)
            np.testing.assert_allclose(reduced_density(rho, "A"), np.eye(2) / 2, atol=1e-14)
            np.testing.assert_allclose(reduced_density(rho, "B"), np.eye(2) / 2, atol=1e-14)

    def test_product_state_factors(self):
        a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        b = np.array([[0.4, 0.2], [0.2, 0.6]])
        rho = np.kron(a, b)
        np.testing.assert_allclose(reduced_density(rho, "A"), a, atol=1e-14)
        np.testing.assert_allclose(reduced_density(rho, "B"), b, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng)
        assert np.trace(reduced_density(rho, "A")) == pytest.approx(1.0, abs=1e-13)


class TestValidatePhysical:
    def test_accepts_valid_states(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            assert validate_physical(random_density(rng)).ok

    def test_rejects_non_hermitian(self):
        m = bell_density(BellLabel.PHI_PLUS).astype(complex)
        m[0, 1] = 0.5
        report = validate_physical(m)
        assert not report.ok
        assert report.hermiticity_deviation > 1e-10

    def test_rejects_wrong_trace(self):
        report = validate_physical(2.0 * bell_density(BellLabel.PHI_PLUS))
        assert not report.ok
        assert report.trace_deviation == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_eigenvalue(self):
        report = validate_physical(np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex))
        assert not report.ok
        assert report.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)

    def test_tolerates_tiny_negative_dust(self):
        report = validate_physical(np.diag([0.5, 0.5, 1e-12, -1e-12]).astype(complex))
        assert report.ok


class TestDensityCsv:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            rho = random_density(rng)
            back = density_from_csv(density_to_csv(rho))
            assert np.array_equal(back, rho)

    def test_header_and_row_count(self):
        text = density_to_csv(bell_density(BellLabel.PHI_PLUS))
        lines = text.strip().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 17
        assert lines[1].startswith("0,0,")

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            density_from_csv("a,b,c,d\n" + "\n".join("0,0,1,0" for _ in range(16)))

    def test_rejects_missing_rows(self):
        text = density_to_csv(bell_density(BellLabel.PHI_PLUS))
        truncated = "\n".join(text.strip().splitlines()[:-1])
        with pytest.raises(ValueError, match="16 data rows"):
            density_from_csv(truncated)

    def test_rejects_duplicate_cells(self):
        text = density_to_csv(bell_density(BellLabel.PHI_PLUS))
        lines = text.strip().splitlines()
        lines[2] = lines[1]
        with pytest.raises(ValueError, match="duplicate"):
            density_from_csv("\n".join(lines))
