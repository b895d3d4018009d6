"""Channel, loss, and memory model tests."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from qsdc.core import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BellLabel,
    bell_density,
    bell_state,
    fidelity,
    validate_physical,
)
from qsdc.errors import ValidationError
from qsdc.noise import (
    ChannelSpec,
    MemorySpec,
    NoiseKind,
    apply_channel,
    calibrate_noise,
)
from qsdc.protocol import STAGE_LABELS, PairStates, SessionConfig, run_session


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def depolarize_oracle(rho, side, p):
    """Independent construction via the one-sided Pauli twirl."""
    acc = np.zeros_like(rho)
    for pauli in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
        big = np.kron(pauli, PAULI_I) if side == "A" else np.kron(PAULI_I, pauli)
        acc += big @ rho @ big.conj().T
    return (1.0 - p) * rho + (p / 4.0) * acc


class TestChannelSpec:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValidationError):
            ChannelSpec(NoiseKind.DEPOLARIZING, -0.1)
        with pytest.raises(ValidationError):
            ChannelSpec(NoiseKind.DEPHASING, 1.5)

    def test_defaults_to_identity(self):
        spec = ChannelSpec()
        assert spec.kind is NoiseKind.NONE and spec.p == 0.0


class TestDepolarizing:
    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng)
        out = apply_channel(ChannelSpec(NoiseKind.DEPOLARIZING, 0.0), "A", rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_full_strength_on_bell_gives_quarter_identity(self):
        out = apply_channel(
            ChannelSpec(NoiseKind.DEPOLARIZING, 1.0), "A", bell_density(BellLabel.PHI_PLUS)
        )
        np.testing.assert_allclose(out, np.eye(4) / 4.0, atol=1e-14)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.17333333333333334, 0.5, 0.9])
    def test_bell_fidelity_closed_form(self, p):
        out = apply_channel(
            ChannelSpec(NoiseKind.DEPOLARIZING, p), "A", bell_density(BellLabel.PHI_PLUS)
        )
        assert fidelity(out, bell_state(BellLabel.PHI_PLUS)) == pytest.approx(1 - 3 * p / 4, abs=1e-12)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_matches_pauli_twirl_oracle(self, side):
        rng = np.random.default_rng(1)
        for _ in range(25):
            rho = random_density(rng)
            p = float(rng.random())
            out = apply_channel(ChannelSpec(NoiseKind.DEPOLARIZING, p), side, rho)
            np.testing.assert_allclose(out, depolarize_oracle(rho, side, p), atol=1e-13)


class TestDephasing:
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_matches_direct_formula(self, side):
        rng = np.random.default_rng(2)
        rho = random_density(rng)
        p = 0.37
        z = np.kron(PAULI_Z, PAULI_I) if side == "A" else np.kron(PAULI_I, PAULI_Z)
        expected = (1 - p) * rho + p * (z @ rho @ z)
        out = apply_channel(ChannelSpec(NoiseKind.DEPHASING, p), side, rho)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_bell_fidelity_is_one_minus_p(self):
        for p in (0.0, 0.1, 0.25, 1.0):
            out = apply_channel(
                ChannelSpec(NoiseKind.DEPHASING, p), "B", bell_density(BellLabel.PHI_PLUS)
            )
            assert fidelity(out, bell_state(BellLabel.PHI_PLUS)) == pytest.approx(1 - p, abs=1e-12)

    def test_full_dephasing_kills_coherences(self):
        out = apply_channel(
            ChannelSpec(NoiseKind.DEPHASING, 0.5), "A", bell_density(BellLabel.PHI_PLUS)
        )
        np.testing.assert_allclose(out, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)


class TestChannelStack:
    @pytest.mark.parametrize("p", [0.0, 0.37])
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("kind", [NoiseKind.DEPOLARIZING, NoiseKind.DEPHASING])
    def test_stack_matches_per_matrix(self, kind, side, p):
        rng = np.random.default_rng(17)
        stack = np.stack([[random_density(rng) for _ in range(3)] for _ in range(2)])
        spec = ChannelSpec(kind, p)
        out = apply_channel(spec, side, stack)
        assert out.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            assert out[idx].tobytes() == apply_channel(spec, side, stack[idx]).tobytes()
        with pytest.raises(ValueError, match="4x4"):
            apply_channel(spec, side, stack[..., :3])


class TestChannelPhysicality:
    def test_random_chains_stay_physical(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = random_density(rng)
            for _ in range(rng.integers(1, 4)):
                kind = rng.choice([NoiseKind.DEPOLARIZING, NoiseKind.DEPHASING])
                side = "A" if rng.random() < 0.5 else "B"
                rho = apply_channel(ChannelSpec(NoiseKind(kind), float(rng.random())), side, rho)
            report = validate_physical(rho)
            assert report.ok
            assert abs(np.trace(rho) - 1.0) < 1e-12


class TestMemorySpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MemorySpec(eta0=1.2)
        with pytest.raises(ValidationError):
            MemorySpec(tau_ns=0.0)
        with pytest.raises(ValidationError):
            MemorySpec(dephase_p=-0.01)

    def test_efficiency_values(self):
        assert MemorySpec().efficiency(1e9) == 1.0
        assert MemorySpec(eta0=0.25).efficiency(120.0) == pytest.approx(0.25, abs=0)
        spec = MemorySpec(eta0=0.3, tau_ns=500.0)
        assert spec.efficiency(120.0) == pytest.approx(0.3 * math.exp(-120.0 / 500.0), rel=1e-12)
        assert spec.efficiency(0.0) == pytest.approx(0.3, abs=0)

    def test_efficiency_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            MemorySpec().efficiency(-1.0)


def _session(seed=3, message="01" * 20, **changes):
    """One session whose losses come only from the changed memory or hop."""
    config = dataclasses.replace(SessionConfig(n_pairs=2000), **changes)
    return config, run_session(config, message, seed)


def _stages(config, e1=-1, code=1, e2=-1):
    """The state of one explicit branch after every pipeline stage.

    The default branch is an unattacked pair carrying code index 1, the
    first group of ``_session``'s default message.
    """
    states = PairStates(config)
    return {label: states(label, e1, code, e2) for label in STAGE_LABELS}


class TestMemoryStoreRetrieve:
    """Sender-memory storage and retrieval as the session engine runs it.

    Every pair's retrieval succeeds with the memory's efficiency, drawn per
    pair; a failed pair is discarded (heralded loss) and a retrieved qubit
    is dephased.  With a perfect hop and receiver memory, ``pairs_lost``
    counts exactly the failed sender retrievals.
    """

    def test_perfect_memory_always_succeeds_and_preserves_state(self):
        config, res = _session(storage_a_ns=500.0)
        assert res.pairs_lost == 0
        states = _stages(config)
        np.testing.assert_allclose(states["retrieved_sender"], states["stored_both"], atol=1e-15)

    @pytest.mark.parametrize(
        "eta0,tau,t",
        [(0.25, math.inf, 120.0), (0.3, 500.0, 120.0), (0.9, 200.0, 100.0)],
    )
    def test_success_frequency_matches_efficiency(self, eta0, tau, t):
        spec = MemorySpec(eta0=eta0, tau_ns=tau)
        trials = 20000
        _, res = _session(seed=5, n_pairs=trials, memory_a=spec, storage_a_ns=t)
        expected = spec.efficiency(t)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(1.0 - res.pairs_lost / trials - expected) < 4 * se

    def test_lossy_and_lossless_memory_give_equal_states(self):
        # Loss is heralded: failures change how many pairs survive, never
        # the state of the pairs that do, on any branch at any stage.
        lossy_config, lossy = _session(seed=6, memory_a=MemorySpec(eta0=0.3))
        lossless_config, lossless = _session(seed=6)
        assert lossy.pairs_lost > 0 and lossless.pairs_lost == 0
        for e1, code, e2 in itertools.product((-1, 0, 1), range(4), (-1, 0, 1)):
            a = _stages(lossy_config, e1, code, e2)
            b = _stages(lossless_config, e1, code, e2)
            for label in STAGE_LABELS:
                np.testing.assert_array_equal(a[label], b[label])

    def test_success_applies_dephasing(self):
        config, _ = _session(seed=7, memory_a=MemorySpec(eta0=1.0, dephase_p=0.4))
        states = _stages(config)
        expected = apply_channel(ChannelSpec(NoiseKind.DEPHASING, 0.4), "A", states["stored_both"])
        np.testing.assert_allclose(states["retrieved_sender"], expected, atol=1e-14)

    def test_outcomes_independent_of_state(self):
        # The success draws must not depend on the stored state.
        spec = MemorySpec(eta0=0.5)
        _, clean = _session(seed=8, memory_a=spec)
        _, noisy = _session(
            seed=8, memory_a=spec, source_noise=ChannelSpec(NoiseKind.DEPOLARIZING, 0.05)
        )
        assert clean.pairs_lost == noisy.pairs_lost > 0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValidationError):
            SessionConfig(storage_a_ns=-5.0)


class TestTransmitPhoton:
    """Heralded loss of the encoded photon on the hop, as the engine runs it.

    Only decoy pairs and message pairs carrying a group are sent, so with a
    perfect sender memory the hop sees ``n_check2 + groups`` photons.
    """

    def test_degenerate_probabilities(self):
        _, res = _session(seed=10, transmittance=1.0)
        assert res.pairs_lost == 0 and res.bits_decoded == 40
        config, res = _session(seed=10, transmittance=0.0)
        n_check2 = round(config.check_fraction * config.n_pairs / 2)
        assert res.pairs_lost == n_check2 + 20
        assert res.bits_decoded == 0 and res.erasure_positions == tuple(range(20))

    def test_frequency_near_transmittance(self):
        config, res = _session(seed=11, n_pairs=100000, transmittance=0.45, message="01" * 40000)
        sent = round(config.check_fraction * config.n_pairs / 2) + 40000
        se = math.sqrt(0.45 * 0.55 / sent)
        assert abs(1.0 - res.pairs_lost / sent - 0.45) < 4 * se

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            SessionConfig(transmittance=1.01)


class TestCalibrateNoise:
    def test_perfect_fidelity_needs_no_noise(self):
        assert calibrate_noise(1.0, NoiseKind.DEPOLARIZING) == 0.0
        assert calibrate_noise(1.0, NoiseKind.DEPHASING) == 0.0

    def test_depolarizing_inverts_closed_form(self):
        for f in (0.931, 0.92, 0.87, 0.6, 0.3):
            p = calibrate_noise(f, NoiseKind.DEPOLARIZING)
            assert p == pytest.approx(4.0 * (1.0 - f) / 3.0, abs=2e-5)

    def test_dephasing_inverts_closed_form(self):
        for f in (0.95, 0.87, 0.55, 0.4):
            p = calibrate_noise(f, NoiseKind.DEPHASING)
            assert p == pytest.approx(1.0 - f, abs=2e-5)

    def test_round_trip_fidelity_within_tolerance(self):
        for kind, f in [(NoiseKind.DEPOLARIZING, 0.883), (NoiseKind.DEPHASING, 0.77)]:
            p = calibrate_noise(f, kind)
            out = apply_channel(ChannelSpec(kind, p), "A", bell_density(BellLabel.PHI_PLUS))
            assert fidelity(out, bell_state(BellLabel.PHI_PLUS)) == pytest.approx(f, abs=1e-6)

    def test_rejects_unreachable_targets(self):
        with pytest.raises(ValueError, match="range"):
            calibrate_noise(0.2, NoiseKind.DEPOLARIZING)
        with pytest.raises(ValueError, match="range"):
            calibrate_noise(-0.1, NoiseKind.DEPHASING)
        with pytest.raises(ValueError, match="range"):
            calibrate_noise(1.2, NoiseKind.DEPOLARIZING)

    def test_rejects_identity_channel(self):
        with pytest.raises(ValueError, match="identity"):
            calibrate_noise(0.9, NoiseKind.NONE)
