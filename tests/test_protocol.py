"""Session-engine tests: timing, encoding, checks, full runs."""

import dataclasses
import math

import numpy as np
import pytest

from qsdc.core import BellLabel, TwoBitCode, bell_density
from qsdc.errors import CapacityError, TimingError, ValidationError
from qsdc.measurement import BsmMode, LocalBasis, outcome_probs
from qsdc.noise import ChannelSpec, MemorySpec, NoiseKind
from qsdc.protocol import (
    STAGE_LABELS,
    AbortStage,
    BasisPolicy,
    EveKind,
    EveStrategy,
    PairStates,
    SessionConfig,
    encode_message,
    intercept_resend,
    plan_timing,
    result_csv_header,
    result_csv_row,
    run_session,
)

IDEAL = SessionConfig()


def codes_of(enc):
    """The message's groups as ``TwoBitCode`` members (code index k is member k)."""
    return tuple(tuple(TwoBitCode)[k] for k in enc.codes)


def with_eve(config, policy=BasisPolicy.RANDOM_ZX, **changes):
    return dataclasses.replace(
        config, eve=EveStrategy(EveKind.INTERCEPT_RESEND, policy), **changes
    )


class TestSessionConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SessionConfig()
        assert cfg.n_pairs == 1000
        assert cfg.storage_a_ns == 50.0

    @pytest.mark.parametrize(
        "changes",
        [
            {"n_pairs": 0},
            {"check_fraction": 0.0},
            {"check_fraction": 1.0},
            {"n_pairs": 20, "check_fraction": 0.2},  # too few check pairs
            {"qber_threshold": 0.0},
            {"distance_m": -1.0},
            {"light_speed_m_per_ns": 0.0},
            {"transmittance": 1.1},
            {"storage_a_ns": -1.0},
            {"gen_prob_per_cycle": 0.0},
            {"gen_prob_per_cycle": 1.5},
            {"cycle_time_ns": 0.0},
            {"duty_cycles_per_period": 0},
            {"period_ms": 0.0},
            {"duty_cycles_per_period": 2600, "cycle_time_ns": 5000.0, "period_ms": 10.0},
            # one period is 0 s once in seconds: the bit rate would divide by zero
            {"period_ms": 5e-324, "cycle_time_ns": 5e-324, "duty_cycles_per_period": 1000},
        ],
    )
    def test_rejects_bad_values(self, changes):
        with pytest.raises(ValidationError):
            dataclasses.replace(IDEAL, **changes)

    @pytest.mark.parametrize("field", ["distance_m", "op_time_ns", "storage_a_ns", "storage_b_ns"])
    def test_rejects_nan(self, field):
        with pytest.raises(ValidationError):
            dataclasses.replace(IDEAL, **{field: math.nan})


class TestPlanTiming:
    def test_default_geometry_is_exactly_feasible(self):
        plan = plan_timing(IDEAL)
        assert plan.required_ns == pytest.approx(50.0, abs=1e-12)
        assert plan.feasible
        assert plan.retrieval_efficiency == 1.0

    def test_required_is_op_time_plus_flight_time(self):
        cfg = dataclasses.replace(IDEAL, distance_m=10.0, light_speed_m_per_ns=0.5, op_time_ns=40.0)
        plan = plan_timing(cfg)
        assert plan.required_ns == 60.0

    def test_boundary_equality_is_feasible(self):
        cfg = dataclasses.replace(
            IDEAL, distance_m=10.0, light_speed_m_per_ns=0.5, op_time_ns=40.0, storage_a_ns=60.0
        )
        assert plan_timing(cfg).feasible

    def test_long_link_is_infeasible_and_reports_efficiency(self):
        cfg = dataclasses.replace(
            IDEAL,
            distance_m=1000.0,
            light_speed_m_per_ns=0.2,
            memory_a=MemorySpec(eta0=0.9, tau_ns=1000.0),
        )
        plan = plan_timing(cfg)
        assert not plan.feasible
        assert plan.required_ns == pytest.approx(5040.0, rel=1e-12)
        assert plan.retrieval_efficiency == pytest.approx(0.9 * math.exp(-5040.0 / 1000.0), rel=1e-12)

    def test_run_session_fails_fast_when_infeasible(self):
        cfg = dataclasses.replace(IDEAL, distance_m=30.0)
        with pytest.raises(TimingError, match="ns"):
            run_session(cfg, "01", seed=0)


class TestEncodeMessage:
    def test_splits_into_groups(self):
        enc = encode_message("00011011")
        assert codes_of(enc) == (TwoBitCode.B00, TwoBitCode.B01, TwoBitCode.B10, TwoBitCode.B11)
        assert enc.codes.dtype == np.int8
        assert not enc.padded
        assert enc.bit_length == 8

    def test_pads_odd_length(self):
        enc = encode_message("101")
        assert codes_of(enc) == (TwoBitCode.B10, TwoBitCode.B10)
        assert enc.padded
        assert enc.bit_length == 3

    def test_ignores_whitespace(self):
        assert codes_of(encode_message("00 01 10 11")) == codes_of(encode_message("00011011"))

    def test_accepts_int_sequence(self):
        assert codes_of(encode_message([1, 1, 0, 0])) == (TwoBitCode.B11, TwoBitCode.B00)

    def test_empty_message(self):
        enc = encode_message("")
        assert codes_of(enc) == () and not enc.padded and enc.bit_length == 0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="non-bit"):
            encode_message("010x")
        with pytest.raises(ValueError, match="bits"):
            encode_message([0, 2])


class TestInterceptResend:
    def test_z_attack_leaves_classical_correlation(self):
        out = intercept_resend(bell_density(BellLabel.PHI_PLUS), "B", LocalBasis.Z)
        np.testing.assert_allclose(out, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)

    def test_attack_is_invisible_in_its_own_basis(self):
        out = intercept_resend(bell_density(BellLabel.PHI_PLUS), "B", LocalBasis.Z)
        probs = outcome_probs(out, LocalBasis.Z, LocalBasis.Z)
        np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-14)

    def test_attack_randomizes_conjugate_basis(self):
        out = intercept_resend(bell_density(BellLabel.PHI_PLUS), "B", LocalBasis.Z)
        probs = outcome_probs(out, LocalBasis.X, LocalBasis.X)
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-14)

    def test_expected_error_rates_over_basis_grid(self):
        # Density-matrix brute force: attack basis x check basis.
        rho = bell_density(BellLabel.PHI_PLUS)
        for attack in (LocalBasis.Z, LocalBasis.X):
            attacked = intercept_resend(rho, "B", attack)
            for check in (LocalBasis.Z, LocalBasis.X):
                probs = outcome_probs(attacked, check, check)
                qber = probs[1] + probs[2]
                expected = 0.0 if attack is check else 0.5
                assert qber == pytest.approx(expected, abs=1e-12)

    def test_trace_preserving(self):
        out = intercept_resend(bell_density(BellLabel.PSI_MINUS), "A", LocalBasis.X)
        assert abs(np.trace(out) - 1.0) < 1e-13

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(19)
        g = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        stack = g @ g.conj().swapaxes(-1, -2)
        stack /= np.trace(stack, axis1=-2, axis2=-1)[:, None, None]
        for basis in LocalBasis:
            for side in ("A", "B"):
                out = intercept_resend(stack, side, basis)
                assert out.shape == (5, 4, 4)
                for got, rho in zip(out, stack):
                    assert got.tobytes() == intercept_resend(rho, side, basis).tobytes()
        with pytest.raises(ValueError, match="side"):
            intercept_resend(stack, "C", LocalBasis.Z)
        with pytest.raises(ValueError, match="4x4"):
            intercept_resend(stack[:, :3], "A", LocalBasis.Z)


class TestRunSessionIdeal:
    def test_noiseless_message_recovery(self):
        message = "0110110000111001" * 8
        res = run_session(IDEAL, message, seed=1)
        assert res.decoded_bits == message
        assert res.aborted_at is AbortStage.NOT_ABORTED
        assert res.qber_check1 == 0.0
        assert res.qber_check2 == 0.0
        assert res.erasure_positions == ()
        assert res.pairs_lost == 0
        assert res.bit_errors == 0
        assert res.bit_error_rate == 0.0
        assert not res.message_padded

    def test_bit_rate_consistency(self):
        res = run_session(IDEAL, "01" * 50, seed=2)
        assert res.bit_rate_per_s == pytest.approx(res.bits_decoded / res.simulated_time_s)
        # 1000 pairs at one per cycle, 2600 cycles per 10 ms period
        assert res.simulated_time_s == pytest.approx(0.01)

    def test_padded_message(self):
        res = run_session(IDEAL, "011", seed=3)
        assert res.message_padded
        assert res.bits_sent == 3
        assert res.decoded_bits == "0110"

    def test_empty_message(self):
        res = run_session(IDEAL, "", seed=4)
        assert res.decoded_bits == ""
        assert res.bits_sent == 0
        assert res.bit_rate_per_s == 0.0
        assert math.isnan(res.bit_error_rate)

    def test_deterministic(self):
        res1 = run_session(IDEAL, "0011" * 20, seed=5)
        res2 = run_session(IDEAL, "0011" * 20, seed=5)
        assert res1 == res2

    def test_seed_changes_nothing_observable_in_noiseless_run(self):
        m = "0011" * 20
        r1 = run_session(IDEAL, m, seed=6)
        r2 = run_session(IDEAL, m, seed=7)
        assert r1.decoded_bits == r2.decoded_bits == m


class TestCapacity:
    def test_exact_fit_is_accepted(self):
        cfg = dataclasses.replace(IDEAL, n_pairs=100)
        # 100 pairs, 10 + 10 checks -> 80 slots -> 160 bits
        res = run_session(cfg, "01" * 80, seed=0)
        assert res.decoded_bits == "01" * 80

    def test_one_group_too_many_raises(self):
        cfg = dataclasses.replace(IDEAL, n_pairs=100)
        with pytest.raises(CapacityError, match="slots"):
            run_session(cfg, "01" * 81, seed=0)


class TestEavesdropping:
    def test_random_zx_attack_aborts_first_check(self):
        cfg = with_eve(dataclasses.replace(IDEAL, n_pairs=4000))
        res = run_session(cfg, "01" * 100, seed=8)
        assert res.aborted_at is AbortStage.CHECK1
        assert abs(res.qber_check1 - 0.25) < 0.05
        assert res.decoded_bits == ""
        assert res.erasure_positions == ()
        assert res.bits_decoded == 0
        assert math.isnan(res.qber_check2)

    def test_clean_line_passes(self):
        res = run_session(IDEAL, "01" * 100, seed=9)
        assert res.aborted_at is AbortStage.NOT_ABORTED
        assert res.qber_check1 == 0.0

    def test_attack_on_encoded_hop_corrupts_message(self):
        # Lift the abort threshold so the session runs to completion, then
        # compare damage with and without the second interception point.
        base = with_eve(
            dataclasses.replace(IDEAL, n_pairs=4000, qber_threshold=0.9),
            policy=BasisPolicy.ALWAYS_Z,
        )
        message = "01" * 400
        res_off = run_session(base, message, seed=10)
        res_on = run_session(
            dataclasses.replace(base, eve_on_encoded_hop=True), message, seed=10
        )
        assert res_on.bit_error_rate > 0.1
        assert res_on.bit_error_rate > res_off.bit_error_rate - 0.05
        assert res_on.aborted_at is AbortStage.NOT_ABORTED


class TestSecondCheck:
    def test_tampering_after_encoding_is_caught_by_decoys(self):
        # Heavy dephasing on the encoded hop is invisible to the first check
        # but trips the decoy comparison.
        cfg = dataclasses.replace(
            IDEAL, n_pairs=4000, hop_noise=ChannelSpec(NoiseKind.DEPHASING, 0.3)
        )
        res = run_session(cfg, "01" * 400, seed=11)
        assert res.qber_check1 == 0.0
        assert res.aborted_at is AbortStage.CHECK2
        assert abs(res.qber_check2 - 0.3) < 0.08
        assert res.decoded_bits == ""

    def test_mild_noise_passes_and_shows_up_as_bit_errors(self):
        cfg = dataclasses.replace(
            IDEAL, n_pairs=4000, hop_noise=ChannelSpec(NoiseKind.DEPHASING, 0.05)
        )
        res = run_session(cfg, "01" * 400, seed=12)
        assert res.aborted_at is AbortStage.NOT_ABORTED
        assert abs(res.qber_check2 - 0.05) < 0.05
        assert abs(res.bit_error_rate - 0.05) < 0.03
        assert res.bit_errors == round(res.bit_error_rate * res.bits_decoded / 2)


class TestLossAccounting:
    def test_heralded_losses_erase_but_never_corrupt(self):
        cfg = dataclasses.replace(
            IDEAL, n_pairs=1000, memory_a=MemorySpec(eta0=0.5), transmittance=0.8
        )
        message = "10" * 100
        res = run_session(cfg, message, seed=13)
        assert res.aborted_at is AbortStage.NOT_ABORTED
        groups_consumed = res.bits_decoded // 2 + len(res.erasure_positions)
        assert groups_consumed == 100
        assert len(res.erasure_positions) > 0
        assert res.pairs_lost > 300
        assert res.bit_errors == 0
        # decoded groups must reproduce the sent groups exactly
        kept = [g for g in range(100) if g not in res.erasure_positions]
        expected = "".join(message[2 * g : 2 * g + 2] for g in kept)
        assert res.decoded_bits == expected

    def test_total_memory_failure_yields_nan_qber(self):
        cfg = dataclasses.replace(IDEAL, n_pairs=100, memory_a=MemorySpec(eta0=0.0))
        res = run_session(cfg, "01", seed=14)
        assert math.isnan(res.qber_check1)
        assert math.isnan(res.qber_check2)
        assert res.aborted_at is AbortStage.NOT_ABORTED
        assert res.pairs_lost == 100
        assert res.decoded_bits == ""

    def test_erasures_are_sorted_group_indices(self):
        cfg = dataclasses.replace(IDEAL, n_pairs=1000, transmittance=0.5)
        res = run_session(cfg, "01" * 200, seed=15)
        positions = res.erasure_positions
        assert list(positions) == sorted(positions)
        assert all(0 <= g < 200 for g in positions)


class TestLinearOpticsSession:
    def test_phi_groups_erase_and_psi_groups_decode(self):
        cfg = dataclasses.replace(IDEAL, n_pairs=1000, bsm_mode=BsmMode.LINEAR_OPTICS)
        rng = np.random.default_rng(16)
        message = "".join("01"[b] for b in rng.integers(0, 2, 300))
        res = run_session(cfg, message, seed=16)
        groups = [message[2 * g : 2 * g + 2] for g in range(150)]
        expected_erased = tuple(g for g, bits in enumerate(groups) if bits[0] == "0")
        expected_decoded = "".join(bits for bits in groups if bits[0] == "1")
        assert res.erasure_positions == expected_erased
        assert res.decoded_bits == expected_decoded
        assert res.bit_errors == 0
        assert res.qber_check2 == 0.0  # surviving decoys decode perfectly


class TestTrace:
    """The state of one explicit branch after each pipeline stage."""

    def test_stage_labels_and_ideal_states(self):
        states = PairStates(IDEAL)
        phi = bell_density(BellLabel.PHI_PLUS)
        for label in STAGE_LABELS[:3]:  # the stages before encoding
            np.testing.assert_allclose(states(label, -1, 2, -1), phi, atol=1e-12)
        np.testing.assert_allclose(
            states("encoded", -1, 2, -1), bell_density(BellLabel.PSI_PLUS), atol=1e-12
        )
        with pytest.raises(ValueError, match="unknown stage"):
            states("decoded")

    @pytest.mark.parametrize("branch", [(-2, 0, -1), (-1, -1, -1), (-1, 4, -1), (-1, 0, 2)])
    def test_rejects_unknown_branch(self, branch):
        with pytest.raises(ValueError, match="no branch"):
            PairStates(IDEAL)("encoded", *branch)

    def test_attack_shows_up_at_storage_stage(self):
        states = PairStates(IDEAL)  # branch e1 = 0: a Z-basis attack on the distribution hop
        np.testing.assert_allclose(
            states("emitted", 0, 0, -1), bell_density(BellLabel.PHI_PLUS), atol=1e-12
        )
        stored = states("stored_both", 0, 0, -1)
        np.testing.assert_allclose(stored, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_trace_is_deterministic(self):
        s1, s2 = PairStates(IDEAL), PairStates(IDEAL)
        for label in STAGE_LABELS:
            np.testing.assert_array_equal(s1(label, -1, 1, -1), s2(label, -1, 1, -1))


class TestExhaustiveRoundTrip:
    def test_every_short_message_survives(self):
        cfg = dataclasses.replace(IDEAL, n_pairs=60)
        for length in (2, 4, 6):
            for value in range(2**length):
                message = format(value, f"0{length}b")
                res = run_session(cfg, message, seed=21)
                assert res.decoded_bits == message, message

    def test_longer_random_messages_survive(self):
        rng = np.random.default_rng(22)
        for seed in range(5):
            message = "".join("01"[b] for b in rng.integers(0, 2, 64))
            res = run_session(IDEAL, message, seed=seed)
            assert res.decoded_bits == message


class TestResultCsv:
    def test_header_fields(self):
        header = result_csv_header()
        assert header.split(",") == [
            "n_pairs",
            "check_fraction",
            "qber1",
            "qber2",
            "aborted_at",
            "bits_sent",
            "bits_decoded",
            "erasures",
            "bit_errors",
            "bit_rate_per_s",
            "sim_time_s",
            "seed",
        ]

    def test_row_matches_header_and_result(self):
        res = run_session(IDEAL, "0110", seed=23)
        row = result_csv_row(IDEAL, res, 23).split(",")
        assert len(row) == 12
        assert row[0] == "1000"
        assert row[4] == "none"
        assert int(row[6]) == res.bits_decoded
        assert row[11] == "23"

    def test_nan_serializes_as_nan(self):
        cfg = dataclasses.replace(IDEAL, n_pairs=100, memory_a=MemorySpec(eta0=0.0))
        res = run_session(cfg, "01", seed=24)
        row = result_csv_row(cfg, res, 24)
        assert ",nan," in row
