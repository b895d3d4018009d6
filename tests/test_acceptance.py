"""End-to-end acceptance gate.

Each test exercises one headline behavior of the simulator and prints a
single PASS/FAIL line (with wall time) so a bare ``pytest`` run doubles as
an acceptance report.  A criterion fails if its assertions fail or if it
blows its runtime budget.
"""

import itertools
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qsdc.core import (
    BellLabel,
    TwoBitCode,
    bell_density,
    bell_state,
    encode_unitary,
    apply_local,
    hwp_unitary,
)
from qsdc.measurement import LocalBasis, outcome_probs
from qsdc.noise import (
    ChannelSpec,
    MemorySpec,
    NoiseKind,
    apply_channel,
    calibrate_noise,
)
from qsdc.protocol import (
    AbortStage,
    BasisPolicy,
    EveKind,
    EveStrategy,
    SessionConfig,
    TimingError,
    intercept_resend,
    plan_timing,
    run_session,
)
from qsdc.rng import random_bits
from qsdc.tomography import (
    exact_tomography,
    fidelity_with_error,
    linear_inversion,
    project_physical,
    simulate_tomography,
)


@contextmanager
def criterion(capsys, num, label, budget_s):
    """Time a criterion body and print one PASS/FAIL line through capture."""
    start = time.perf_counter()
    error = None
    try:
        yield
    except BaseException as exc:  # re-raised below after reporting
        error = exc
    elapsed = time.perf_counter() - start
    ok = error is None and elapsed < budget_s
    with capsys.disabled():
        print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s)")
    if error is not None:
        raise error
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"


def werner_density(fidelity):
    p = calibrate_noise(fidelity, NoiseKind.DEPOLARIZING)
    spec = ChannelSpec(NoiseKind.DEPOLARIZING, p)
    return apply_channel(spec, "A", bell_density(BellLabel.PHI_PLUS))


def test_01_encoding_table(capsys):
    with criterion(capsys, 1, "two-bit codes map onto the four pair states", 1.0):
        targets = {
            TwoBitCode.B00: BellLabel.PHI_PLUS,
            TwoBitCode.B01: BellLabel.PHI_MINUS,
            TwoBitCode.B10: BellLabel.PSI_PLUS,
            TwoBitCode.B11: BellLabel.PSI_MINUS,
        }
        rho0 = bell_density(BellLabel.PHI_PLUS)
        for code, label in targets.items():
            encoded = apply_local(encode_unitary(code), "A", rho0)
            np.testing.assert_allclose(encoded, bell_density(label), atol=1e-12)


def test_02_wave_plate_states(capsys):
    with criterion(capsys, 2, "wave-plate settings realize the three flips", 1.0):
        rho0 = bell_density(BellLabel.PHI_PLUS)
        plates = {
            BellLabel.PHI_MINUS: hwp_unitary(0.0),
            BellLabel.PSI_PLUS: hwp_unitary(np.pi / 4),
            BellLabel.PSI_MINUS: hwp_unitary(np.pi / 4) @ hwp_unitary(0.0),
        }
        for label, u in plates.items():
            encoded = apply_local(u, "A", rho0)
            np.testing.assert_allclose(encoded, bell_density(label), atol=1e-12)


def test_03_tomography_fidelity_targets(capsys):
    with criterion(capsys, 3, "calibrated states reconstruct at five fidelity targets", 120.0):
        phi = bell_state(BellLabel.PHI_PLUS)
        for target in (0.931, 0.870, 0.920, 0.930, 0.883):
            rho = werner_density(target)
            estimates = []
            sigmas = []
            for seed in range(20):
                data = simulate_tomography(rho, 10_000, np.random.default_rng(seed))
                report = fidelity_with_error(data, phi, rng=np.random.default_rng(1000 + seed))
                estimates.append(report.fidelity)
                sigmas.append(report.sigma)
            assert abs(float(np.median(estimates)) - target) <= 0.02
            assert 0.001 < float(np.median(sigmas)) < 0.03


def test_04_error_rate_tracks_fidelity(capsys):
    with criterion(capsys, 4, "fidelity 0.90 shows up as a 10% group error rate", 30.0):
        p = calibrate_noise(0.90, NoiseKind.DEPOLARIZING)
        config = SessionConfig(
            n_pairs=12_500,
            check_fraction=0.2,
            qber_threshold=0.2,
            source_noise=ChannelSpec(NoiseKind.DEPOLARIZING, p),
        )
        message = random_bits(31, 20_000)
        result = run_session(config, message, seed=31)
        assert result.aborted_at is AbortStage.NOT_ABORTED
        assert result.bits_decoded == 20_000
        assert abs(result.bit_error_rate - 0.10) <= 0.01


def test_05_intercept_resend_detection(capsys):
    with criterion(capsys, 5, "intercept-resend raises the check error to 1/4", 60.0):
        eve = EveStrategy(EveKind.INTERCEPT_RESEND, BasisPolicy.RANDOM_ZX)

        # (a) measured check error near 0.25 over 10^4 check pairs, abort.
        big = SessionConfig(n_pairs=100_000, check_fraction=0.2, qber_threshold=0.12, eve=eve)
        result = run_session(big, "01", seed=5)
        assert result.aborted_at is AbortStage.CHECK1
        assert abs(result.qber_check1 - 0.25) <= 0.02
        assert result.decoded_bits == ""
        assert math.isnan(result.qber_check2)

        # (b) the abort fires in every one of 100 seeded runs.
        small = SessionConfig(n_pairs=3_000, check_fraction=0.2, qber_threshold=0.12, eve=eve)
        aborts = sum(
            run_session(small, "01", seed=seed).aborted_at is AbortStage.CHECK1
            for seed in range(100)
        )
        assert aborts == 100

        # (c) a quiet noiseless line shows exactly zero error at both checks.
        quiet = run_session(SessionConfig(n_pairs=1_000), "0110", seed=5)
        assert quiet.qber_check1 == 0.0
        assert quiet.qber_check2 == 0.0
        assert quiet.aborted_at is AbortStage.NOT_ABORTED

        # (d) exhaustive density-matrix brute force over attack x check bases.
        rho0 = bell_density(BellLabel.PHI_PLUS)

        def disagreement(rho, basis):
            probs = outcome_probs(rho, basis, basis)
            return float(probs[1] + probs[2])

        fixed = {}
        for attack in (LocalBasis.Z, LocalBasis.X):
            rho_attacked = intercept_resend(rho0, "B", attack)
            for check in (LocalBasis.Z, LocalBasis.X):
                expected = 0.0 if attack is check else 0.5
                rate = disagreement(rho_attacked, check)
                assert abs(rate - expected) < 1e-12
                fixed[(attack, check)] = rate

        mixed = 0.5 * (
            intercept_resend(rho0, "B", LocalBasis.Z)
            + intercept_resend(rho0, "B", LocalBasis.X)
        )
        for check in (LocalBasis.Z, LocalBasis.X):
            assert abs(disagreement(mixed, check) - 0.25) < 1e-12

        # Whatever fixed basis the attacker picks, random checking sees at
        # least a quarter of the pairs disagree in the worst check basis.
        for attack in (LocalBasis.Z, LocalBasis.X):
            worst = max(fixed[(attack, check)] for check in (LocalBasis.Z, LocalBasis.X))
            assert worst >= 0.25


def test_06_timing_feasibility(capsys):
    with criterion(capsys, 6, "storage feasibility is exactly op time plus transit", 5.0):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            op = float(rng.uniform(0.0, 200.0))
            dist = float(rng.uniform(0.0, 50.0))
            speed = float(rng.uniform(0.1, 0.31))
            storage = float(rng.uniform(0.0, 400.0))
            memory = MemorySpec(eta0=0.9, tau_ns=200.0, dephase_p=0.0)
            config = SessionConfig(
                op_time_ns=op,
                distance_m=dist,
                light_speed_m_per_ns=speed,
                storage_a_ns=storage,
                memory_a=memory,
            )
            plan = plan_timing(config)
            assert plan.required_ns == op + dist / speed
            assert plan.feasible == (storage >= plan.required_ns)
            assert plan.retrieval_efficiency == memory.efficiency(plan.required_ns)
            if not plan.feasible:
                with pytest.raises(TimingError):
                    run_session(config, "01", seed=0)

        # Boundary: storage equal to the requirement is feasible.
        exact = SessionConfig(
            op_time_ns=40.0,
            distance_m=3.0,
            light_speed_m_per_ns=0.3,
            storage_a_ns=40.0 + 3.0 / 0.3,
        )
        assert plan_timing(exact).feasible


def test_07_memory_efficiency_decay(capsys):
    with criterion(capsys, 7, "retrieval frequency follows the efficiency decay", 30.0):
        # The 25%-at-120ns operating point appears twice: once as a flat
        # efficiency and once reached by exponential decay.
        cases = [
            (MemorySpec(eta0=1.0, tau_ns=math.inf, dephase_p=0.0), 0.0),
            (MemorySpec(eta0=0.25, tau_ns=math.inf, dephase_p=0.0), 120.0),
            (MemorySpec(eta0=0.3, tau_ns=120.0 / math.log(0.3 / 0.25), dephase_p=0.0), 120.0),
            (MemorySpec(eta0=0.9, tau_ns=50.0, dephase_p=0.0), 30.0),
            (MemorySpec(eta0=0.5, tau_ns=200.0, dephase_p=0.1), 100.0),
        ]
        trials = 100_000
        for spec, duration in cases:
            eta = spec.efficiency(duration)
            # Zero link geometry makes every hold time feasible; with a
            # perfect hop and receiver memory, every lost pair is a failed
            # sender retrieval.
            config = SessionConfig(
                n_pairs=trials, distance_m=0.0, op_time_ns=0.0,
                memory_a=spec, storage_a_ns=duration,
            )
            res = run_session(config, "01", seed=7)
            freq = 1.0 - res.pairs_lost / trials
            if eta in (0.0, 1.0):
                assert freq == eta
            else:
                se = math.sqrt(eta * (1.0 - eta) / trials)
                assert abs(freq - eta) <= 3.0 * se


def test_08_tomography_round_trip(capsys):
    with criterion(capsys, 8, "inversion is exact and projection matches the oracle", 30.0):
        rng = np.random.default_rng(8)

        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            recovered = linear_inversion(exact_tomography(rho))
            np.testing.assert_allclose(recovered, rho, atol=1e-12)

        def simplex_oracle(values):
            # Best PSD-sum-one eigenvalue vector by brute force over supports.
            best, best_cost = None, math.inf
            order = range(len(values))
            for size in range(1, len(values) + 1):
                for support in itertools.combinations(order, size):
                    idx = list(support)
                    shifted = values[idx] + (1.0 - values[idx].sum()) / size
                    if np.any(shifted < -1e-12):
                        continue
                    candidate = np.zeros_like(values)
                    candidate[idx] = np.clip(shifted, 0.0, None)
                    cost = float(np.sum((candidate - values) ** 2))
                    if cost < best_cost:
                        best, best_cost = candidate, cost
            return best

        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            herm = (g + g.conj().T) / 2.0
            herm += (1.0 - np.trace(herm).real) / 4.0 * np.eye(4)
            projected = project_physical(herm)
            eigs, vecs = np.linalg.eigh(herm)
            expected = (vecs * simplex_oracle(eigs)) @ vecs.conj().T
            np.testing.assert_allclose(projected, expected, atol=1e-10)


def test_09_duty_cycle_throughput(capsys):
    with criterion(capsys, 9, "tuned generation rate delivers 2.5 bits per second", 30.0):
        config = SessionConfig(
            n_pairs=2_000,
            check_fraction=0.2,
            gen_prob_per_cycle=25.0 / (2.6e6 * 1.6),
            cycle_time_ns=500.0,
            duty_cycles_per_period=2_600,
            period_ms=10.0,
        )
        message = random_bits(9, 3_200)
        result = run_session(config, message, seed=9)
        assert result.aborted_at is AbortStage.NOT_ABORTED
        assert result.bits_decoded == 3_200
        assert abs(result.bit_rate_per_s - 2.5) <= 0.2


def test_10_cli_byte_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "every subcommand repeats byte for byte", 60.0):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(
            "n_pairs = 400\n"
            "source_noise_kind = depolarizing\n"
            "source_noise_p = 0.05\n"
            "message_random_bits = 64\n"
            "seed = 7\n"
        )
        commands = [
            ["run", "-c", str(cfg)],
            ["sweep", "-c", str(cfg), "--param", "n_pairs", "--grid", "200:400:2", "--trials", "2"],
            ["tomo", "-c", str(cfg), "--target", "phi+", "--shots", "500"],
            ["calibrate", "--fidelity", "0.9", "--channel", "dephase"],
            ["attack-demo", "-c", str(cfg)],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "qsdc", *argv],
                    capture_output=True,
                    check=False,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1]
            assert outputs[0], f"no output from {argv[0]}"
