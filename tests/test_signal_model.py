import numpy as np
import pytest

from nfcrb import (
    SourceSignal,
    ValidationError,
    covariances,
    native_delays,
    received_power,
    sample_covariance,
    steering_matrix,
    synthesize_snapshots,
)
from conftest import random_scenario


def _steering_for(pws):
    freqs = np.array([s.freq_hz for s in pws.signals])
    return steering_matrix(native_delays(pws), freqs)


class TestSteeringMatrix:
    def test_zero_delays_give_ones(self):
        A = steering_matrix(np.zeros((3, 2)), np.array([1e5, 2e5]))
        assert np.allclose(A, np.ones((3, 2)))

    def test_quarter_period_delay(self):
        # f * tau = 1/4 turn, so the phase factor is -j
        A = steering_matrix(np.array([[2.5e-5]]), np.array([1e4]))
        assert A[0, 0] == pytest.approx(-1j, abs=1e-12)

    def test_unit_modulus_scenario_a(self, scenario_a):
        A = _steering_for(scenario_a)
        assert np.max(np.abs(np.abs(A) - 1.0)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            steering_matrix(np.zeros((3, 2)), np.array([1e5]))


class TestCovariances:
    def test_rank_one_source_cov(self):
        signals = (SourceSignal(1e5, 2 + 2j), SourceSignal(1e5, 1 + 3j))
        cs = covariances(np.ones((3, 2)), signals, 1.0)
        expected = np.array([[8.0, 8.0 - 4.0j], [8.0 + 4.0j, 10.0]])
        assert np.allclose(cs.source_cov, expected, atol=1e-14)

    def test_single_sensor_sum(self):
        signals = (SourceSignal(1e5, 2 + 2j), SourceSignal(1e5, 1 + 3j))
        cs = covariances(np.ones((1, 2)), signals, 1.0)
        assert cs.array_cov.shape == (1, 1)
        assert cs.array_cov[0, 0] == pytest.approx(35.0, rel=1e-14)

    def test_zero_amplitudes_leave_noise(self):
        signals = (SourceSignal(1e5, 0j), SourceSignal(2e5, 0j))
        cs = covariances(np.exp(1j * np.ones((3, 2))), signals, 5.0)
        assert np.allclose(cs.array_cov, 5.0 * np.eye(3), atol=1e-14)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValidationError):
            covariances(np.ones((2, 1)), (SourceSignal(1e5, 1),), 0.0)

    def test_array_cov_eigenvalues_at_least_noise(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            scn = random_scenario(rng)
            A = steering_matrix(native_delays(scn), scn.frequencies())
            cs = covariances(A, scn.signals, scn.noise_variance)
            w = np.linalg.eigvalsh(cs.array_cov)
            assert w.min() >= scn.noise_variance - 1e-10


class TestSnapshots:
    def _setup(self):
        signals = (SourceSignal(1e5, 2 + 1j), SourceSignal(3e5, -1 + 2j))
        A = np.exp(-1j * np.arange(6).reshape(3, 2))
        return A, signals

    def test_noiseless_snapshots_are_exact(self):
        A, signals = self._setup()
        batch = synthesize_snapshots(A, signals, 0.0, 4, seed=0)
        mean = A @ np.array([s.amplitude for s in signals])
        assert np.allclose(batch.snapshots, np.tile(mean, (4, 1)), atol=1e-15)

    def test_seed_determinism(self):
        A, signals = self._setup()
        b1 = synthesize_snapshots(A, signals, 2.0, 16, seed=42)
        b2 = synthesize_snapshots(A, signals, 2.0, 16, seed=42)
        assert np.array_equal(b1.snapshots, b2.snapshots)

    def test_mean_converges(self):
        A, signals = self._setup()
        eta, count = 1.0, 100_000
        batch = synthesize_snapshots(A, signals, eta, count, seed=7)
        mean = A @ np.array([s.amplitude for s in signals])
        dev = np.abs(batch.snapshots.mean(axis=0) - mean)
        assert np.all(dev < 5.0 * np.sqrt(eta / count))

    def test_sample_covariance_single_noiseless(self):
        A, signals = self._setup()
        batch = synthesize_snapshots(A, signals, 0.0, 1, seed=0)
        x = A @ np.array([s.amplitude for s in signals])
        assert np.allclose(sample_covariance(batch), np.outer(x, x.conj()), atol=1e-14)

    def test_sample_covariance_hermitian_psd(self):
        A, signals = self._setup()
        batch = synthesize_snapshots(A, signals, 3.0, 32, seed=5)
        R = sample_covariance(batch)
        assert np.allclose(R, R.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(R).min() >= -1e-12

    def test_error_halving_with_quadrupled_count(self, scenario_a):
        A = _steering_for(scenario_a)
        cs = covariances(A, scenario_a.signals, 1.0)
        ratios = []
        for seed in range(8):
            errs = []
            for count in (100, 400):
                batch = synthesize_snapshots(A, scenario_a.signals, 1.0, count, seed=seed)
                errs.append(np.linalg.norm(sample_covariance(batch) - cs.array_cov))
            ratios.append(errs[1] / errs[0])
        assert abs(np.mean(ratios) - 0.5) < 0.2


class TestReceivedPower:
    def test_single_source_equal_powers(self):
        rng = np.random.default_rng(2)
        tau = rng.uniform(0, 1e-5, size=(5, 1))
        A = steering_matrix(tau, np.array([1e5]))
        powers, strongest = received_power(A, (SourceSignal(1e5, 3 - 4j),))
        assert np.allclose(powers, 25.0, atol=1e-12)
        assert strongest == 0  # tie resolves to the lowest index

    def test_scenario_a_strongest_element(self, scenario_a):
        # from the bundled tables the second element receives the most power
        # (the per-element powers are well separated, so this is stable)
        powers, strongest = received_power(_steering_for(scenario_a), scenario_a.signals)
        assert strongest == 1
        assert powers[strongest] == pytest.approx(62.0957, rel=1e-4)

    def test_scenario_b_strongest_element(self, scenario_b):
        powers, strongest = received_power(_steering_for(scenario_b), scenario_b.signals)
        assert strongest == 0
        assert powers[strongest] == pytest.approx(25.9519, rel=1e-4)

    def test_power_equals_quadratic_form(self):
        rng = np.random.default_rng(9)
        scn = random_scenario(rng, m=5, n=3)
        A = steering_matrix(native_delays(scn), scn.frequencies())
        powers, _ = received_power(A, scn.signals)
        s = scn.amplitudes()
        manual = np.array([abs(np.dot(A[m], s)) ** 2 for m in range(5)])
        assert np.allclose(powers, manual, rtol=1e-12)
