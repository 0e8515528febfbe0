import warnings

import numpy as np
import pytest

from strictqst.errors import NotHermitian
from strictqst.linalg import hermitize, psd_project, require_hermitian, signature
from strictqst.quantum import QuantumState

from oracles import char_poly_eigenvalues, psd_projection_oracle, random_hermitian
import properties


class TestEigh:
    """The Hermitian eigendecomposition behind QuantumState.eigenvalues and
    psd_project."""

    def test_identity(self):
        assert np.allclose(QuantumState(np.eye(3, dtype=complex) / 3).eigenvalues, [1 / 3] * 3)
        assert np.allclose(psd_project(np.eye(3, dtype=complex)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        # eigenvalues come back sorted descending
        state = QuantumState(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(state.eigenvalues, [0.75, 0.25])

    def test_matches_characteristic_polynomial_roots(self, rng):
        a = random_hermitian(5, rng)
        rho = a @ a
        rho = hermitize(rho / np.trace(rho).real)
        oracle = char_poly_eigenvalues(rho)
        assert np.max(np.abs(oracle.imag)) < 1e-8
        assert np.allclose(QuantumState(rho).eigenvalues, np.sort(oracle.real)[::-1], atol=1e-8)

    def test_rejects_non_hermitian(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(NotHermitian):
            QuantumState(a)


class TestPsdProject:
    def test_clips_negative_eigenvalue(self):
        out = psd_project(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_psd_fixed_point(self, rng):
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = w @ w.conj().T
        assert np.linalg.norm(psd_project(p) - p) <= 1e-10 * max(1.0, np.linalg.norm(p))

    def test_matches_descent_oracle(self, rng):
        a = random_hermitian(4, rng)
        assert np.linalg.norm(psd_project(a) - psd_projection_oracle(a)) < 1e-6

    def test_idempotence_property(self):
        assert properties.projection_idempotence_violations(1000) == 0

    def test_contractivity_property(self):
        assert properties.projection_contractivity_violations(1000) == 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            psd_project(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # a non-finite entry makes the deviation NaN, which must not pass
        for bad in (np.nan, np.inf):
            a = np.eye(2, dtype=complex)
            a[0, 0] = bad
            for check in (require_hermitian, psd_project, signature):
                with pytest.raises(NotHermitian):
                    check(a)

    def test_rejects_inf_without_warning(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian):
                require_hermitian(a)


class TestSignature:
    def test_explicit_spectrum(self):
        assert signature(np.diag([1.0, -1.0, 0.0]).astype(complex)) == (1, 1)

    def test_identity(self):
        assert signature(np.eye(6, dtype=complex)) == (6, 0)

    def test_plus_and_minus_count_matches_rank(self, rng):
        for _ in range(50):
            a = random_hermitian(6, rng, traceless=True)
            n_plus, n_minus = signature(a)
            lam = np.linalg.eigvalsh(a)
            rank = int(np.sum(np.abs(lam) > 1e-9 * np.linalg.norm(a)))
            assert n_plus + n_minus == rank

    def test_zero_count_completes_dimension(self, rng):
        for d in (2, 5, 9):
            a = random_hermitian(d, rng)
            # embed a forced null direction
            lam, v = np.linalg.eigh(a)
            lam[0] = 0.0
            a0 = hermitize((v * lam) @ v.conj().T)
            zero_tol = 1e-9 * np.linalg.norm(a0)
            n_plus, n_minus = signature(a0, zero_tol)
            n_zero = int(np.sum(np.abs(np.linalg.eigvalsh(a0)) <= zero_tol))
            assert n_plus + n_minus + n_zero == d
            assert n_zero >= 1
