import warnings

import numpy as np
import pytest

from strictqst.errors import BadRank, DimensionMismatch, NotHermitian, NotPure
from strictqst.quantum import (
    QuantumState,
    StateModel,
    fidelity,
    global_random_bases,
    haar_random_unitary,
    infidelity,
    local_random_bases,
    random_full_rank_state,
    random_pure_state,
    random_rank_r_state,
)

from oracles import kron_explicit


class TestHaarUnitary:
    def test_scalar_case(self, rng):
        u = haar_random_unitary(1, rng)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self, rng):
        for d in (2, 3, 8, 17):
            u = haar_random_unitary(d, rng)
            assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-10

    def test_first_entry_moment(self):
        # |U_00|^2 ~ Beta(1, d-1) under Haar, so its mean is 1/d
        rng = np.random.default_rng(2024)
        d, n = 4, 10_000
        vals = np.array([abs(haar_random_unitary(d, rng)[0, 0]) ** 2 for _ in range(n)])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 3 * se

    def test_seeded_reproducibility(self):
        u1 = haar_random_unitary(5, np.random.default_rng(9))
        u2 = haar_random_unitary(5, np.random.default_rng(9))
        assert np.array_equal(u1, u2)


class TestRandomStates:
    def test_pure_state_spectrum(self, rng):
        state = random_pure_state(6, rng)
        lam = state.eigenvalues
        assert abs(lam[0] - 1.0) < 1e-10
        assert np.all(np.abs(lam[1:]) < 1e-10)
        assert state.is_pure

    def test_rank_r_eigenvalue_count(self, rng):
        state = random_rank_r_state(8, 3, rng)
        assert int(np.sum(state.eigenvalues > 1e-9)) == 3

    def test_bad_rank(self, rng):
        with pytest.raises(BadRank):
            random_rank_r_state(4, 5, rng)
        with pytest.raises(BadRank):
            random_rank_r_state(4, 0, rng)

    def test_full_rank_purity_moment(self):
        # Hilbert-Schmidt ensemble: E[Tr rho^2] = 2d/(d^2+1)
        rng = np.random.default_rng(77)
        d, n = 4, 10_000
        purities = np.array([np.sum(random_full_rank_state(d, rng).eigenvalues ** 2) for _ in range(n)])
        se = purities.std(ddof=1) / np.sqrt(n)
        assert abs(purities.mean() - 2 * d / (d**2 + 1)) < 3 * se

    def test_constructor_outputs_are_valid_states(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 10))
            r = int(rng.integers(1, d + 1))
            for state in (random_pure_state(d, rng), random_rank_r_state(d, r, rng)):
                assert state.eigenvalues[-1] >= -1e-10
                assert abs(np.trace(state.rho).real - 1.0) <= 1e-10

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError):
            QuantumState(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(ValueError):
            QuantumState(np.diag([0.5, 0.5]).astype(complex), declared_rank=1)
        for bad in (np.nan, np.inf):
            with pytest.raises(NotHermitian):
                QuantumState(np.diag([bad, 0.5]).astype(complex))

    def test_rejects_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian):
                QuantumState(np.diag([np.inf, 0.5]).astype(complex))


class TestBases:
    def test_single_qubit_reduces_to_haar(self):
        bs = local_random_bases(1, 1, np.random.default_rng(5))
        u = haar_random_unitary(2, np.random.default_rng(5))
        assert np.allclose(bs.bases[0], u)

    def test_three_qubit_bases_are_unitary(self, rng):
        bs = local_random_bases(3, 4, rng)
        assert bs.dim == 8
        for u in bs.bases:
            assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10

    def test_two_qubit_kronecker_structure(self):
        # replay the factor draws and compare against an explicit Kronecker
        seed = 31
        bs = local_random_bases(2, 1, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        u1 = haar_random_unitary(2, replay)
        u2 = haar_random_unitary(2, replay)
        assert np.max(np.abs(bs.bases[0] - kron_explicit(u1, u2))) < 1e-14

    def test_global_bases_validate(self, rng):
        bs = global_random_bases(7, 3, rng)
        bs.validate()
        assert bs.n_bases == 3 and bs.dim == 7
        assert bs.prefix(2).n_bases == 2

    def test_basis_count_validation(self, rng):
        # 0 stays allowed: the basis-set schema admits an empty set
        for generate, size, size_name in ((global_random_bases, 3, "d"), (local_random_bases, 2, "n_qubits")):
            for bad in (-2, 1.5, True, None):
                with pytest.raises(ValueError, match="n_bases"):
                    generate(size, bad, rng)
            assert generate(size, 0, rng).n_bases == 0
            # a bool or a fraction is not a size, even where it would
            # convert to a valid one, and even when no basis is drawn
            for bad in (True, 2.0, 1.5, 0):
                for n_bases in (0, 1):
                    with pytest.raises(ValueError, match=f"^{size_name} must"):
                        generate(bad, n_bases, rng)
        for bad in (True, 2.0, 0):
            with pytest.raises(ValueError, match="^d must"):
                haar_random_unitary(bad, rng)


class TestFidelity:
    def test_self_fidelity(self, rng):
        psi = random_pure_state(5, rng)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        e0 = np.zeros((3, 3), dtype=complex)
        e0[0, 0] = 1.0
        e1 = np.zeros((3, 3), dtype=complex)
        e1[1, 1] = 1.0
        assert fidelity(QuantumState(e0), QuantumState(e1)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        d = 6
        e0 = np.zeros((d, d), dtype=complex)
        e0[0, 0] = 1.0
        mixed = QuantumState(np.eye(d, dtype=complex) / d)
        assert fidelity(QuantumState(e0), mixed) == pytest.approx(1.0 / d, abs=1e-12)

    def test_rejects_mixed_target(self, rng):
        mixed = random_full_rank_state(4, rng)
        pure = random_pure_state(4, rng)
        with pytest.raises(NotPure):
            fidelity(mixed, pure)

    def test_rejects_states_of_different_dimensions(self, rng):
        with pytest.raises(DimensionMismatch):
            fidelity(random_pure_state(3, rng), random_pure_state(4, rng))

    def test_random_pure_pair_mean_overlap(self):
        # Haar invariance: E <psi|phi> overlap = 1/d
        rng = np.random.default_rng(55)
        d, n = 5, 2000
        vals = np.array(
            [fidelity(random_pure_state(d, rng), random_pure_state(d, rng)) for _ in range(n)]
        )
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 3 * se

    def test_infidelity_complement(self, rng):
        psi, rho = random_pure_state(4, rng), random_full_rank_state(4, rng)
        assert infidelity(psi, rho) == pytest.approx(1.0 - fidelity(psi, rho))


class TestStateModel:
    def test_endpoints(self, rng):
        psi = random_pure_state(4, rng)
        tau = random_full_rank_state(4, rng)
        assert np.allclose(StateModel(psi, 0.0, tau).realize().rho, psi.rho)
        assert np.allclose(StateModel(psi, 1.0, tau).realize().rho, tau.rho)

    def test_mixture_is_valid_state(self, rng):
        psi = random_pure_state(4, rng)
        tau = random_full_rank_state(4, rng)
        sigma = StateModel(psi, 1e-3, tau).realize()
        assert abs(np.trace(sigma.rho).real - 1.0) <= 1e-10
        assert sigma.eigenvalues[-1] >= -1e-10

    def test_rejects_mixed_target(self, rng):
        tau = random_full_rank_state(4, rng)
        with pytest.raises(NotPure):
            StateModel(tau, 0.5, tau)

    def test_rejects_background_of_another_dimension(self, rng):
        with pytest.raises(DimensionMismatch, match="dimensions differ"):
            StateModel(random_pure_state(3, rng), 0.5, random_full_rank_state(4, rng))

    def test_rejects_bad_weight(self, rng):
        psi = random_pure_state(3, rng)
        tau = random_full_rank_state(3, rng)
        for q in (1.5, -0.1, np.nan, True, "0.5"):
            with pytest.raises(ValueError):
                StateModel(psi, q, tau)
