import numpy as np
import pytest

from qotto.dynamics import total_hamiltonian
from qotto.linalg import (IDENTITY_2, SIGMA_Z, hermitian_eig, partial_trace_bath,
                          partial_trace_system)
from qotto.tolerances import TOL

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def pauli_hamiltonian(omega, f):
    """The paper's omega (sigma_z x 1 + 1 x sigma_z) + f/2 (sigma_x x sigma_x + sigma_y x sigma_y)."""
    return (omega * (np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z))
            + f / 2 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)))


class TestTensorProduct:
    # every entry of either side is a sum of exact products, so they agree bit for bit
    CASES = [(1.0, 0.0), (0.0, 1.0), (2.3, -0.7), (-0.4, 5.5), (1e3, 1e-3)]

    def test_free_hamiltonian_is_diagonal(self):
        for omega, _ in self.CASES:
            h = total_hamiltonian(omega, 0.0)
            assert np.array_equal(h, pauli_hamiltonian(omega, 0.0))
            assert np.array_equal(h, np.diag(np.diag(h)))

    def test_exchange_coupling_pattern(self):
        for omega, f in self.CASES:
            assert np.array_equal(total_hamiltonian(omega, f), pauli_hamiltonian(omega, f))
        # the closed-form propagator factors into a free and a coupling exponential
        a, b = total_hamiltonian(1.7, 0.9), total_hamiltonian(1.7, -3.2)
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-15


class TestPartialTrace:
    def test_product_state_marginal(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        assert np.allclose(partial_trace_bath(np.kron(rho, sigma)), rho, atol=1e-13)
        assert np.allclose(partial_trace_system(np.kron(rho, sigma)), sigma, atol=1e-13)

    def test_maximally_entangled_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert np.allclose(partial_trace_bath(rho), IDENTITY_2 / 2, atol=1e-15)

    def test_fully_transferred_population_block(self):
        # closed-form joint state at x = 0, p = 0.3, g = 0.5, F = pi/2: the
        # off-diagonal block vanishes (sin 2F = 0) leaving these populations
        rho = np.diag([0.075, 0.175, 0.225, 0.525]).astype(complex)
        assert np.allclose(partial_trace_bath(rho), np.diag([0.25, 0.75]), atol=1e-15)

    def test_trace_preserving_and_linear(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        assert abs(np.trace(partial_trace_bath(rho)) - 1.0) <= 1e-13
        lhs = partial_trace_bath(0.3 * rho + 0.7 * sigma)
        rhs = 0.3 * partial_trace_bath(rho) + 0.7 * partial_trace_bath(sigma)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_system_operator_covariance(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 4)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        big = np.kron(a, IDENTITY_2)
        lhs = partial_trace_bath(big @ rho @ big.conj().T)
        rhs = a @ partial_trace_bath(rho) @ a.conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestHermitianEig:
    @pytest.mark.parametrize("op", [SIGMA_Z, SIGMA_X])
    def test_pauli_spectrum(self, op):
        evals, _ = hermitian_eig(op)
        assert np.allclose(evals, [-1.0, 1.0], atol=1e-14)

    def test_diagonal_input_sorted(self):
        evals, _ = hermitian_eig(np.diag([0.0, 1.125, 0.125, 0.0]))
        assert np.allclose(evals, [0.0, 0.0, 0.125, 1.125], atol=1e-14)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(19)
        a = random_hermitian(rng, 4)
        evals, evecs = hermitian_eig(a)
        recon = (evecs * evals) @ evecs.conj().T
        assert np.max(np.abs(recon - a)) <= TOL.eig_reconstruction
        assert np.max(np.abs(evecs @ evecs.conj().T - np.eye(4))) <= TOL.unitarity

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_density_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            evals, _ = hermitian_eig(random_density(rng, 4))
            assert abs(evals.sum() - 1.0) <= 1e-10
