import warnings

import numpy as np
import pytest

from strictqst.errors import NotHermitian
from strictqst.linalg import hermitize, psd_clip, require_hermitian, signature
from strictqst.quantum import QuantumState

from oracles import (
    anchored_shift,
    char_poly_eigenvalues,
    psd_projection_oracle,
    random_hermitian,
    simplex_shift,
)
import properties


class TestEigh:
    """The Hermitian eigendecomposition behind QuantumState.eigenvalues and
    psd_clip."""

    def test_identity(self):
        assert np.allclose(QuantumState(np.eye(3, dtype=complex) / 3).eigenvalues, [1 / 3] * 3)
        assert np.allclose(psd_clip(np.eye(3, dtype=complex)), np.eye(3), atol=1e-12)

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


class TestRequireHermitian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # a non-finite entry makes the deviation NaN, which must not pass
        for bad in (np.nan, np.inf):
            a = np.eye(2, dtype=complex)
            a[0, 0] = bad
            for check in (require_hermitian, signature):
                with pytest.raises(NotHermitian):
                    check(a)

    def test_rejects_inf_without_warning(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian):
                require_hermitian(a)


class TestPsdClip:
    def test_clips_negative_eigenvalue(self):
        out = psd_clip(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_psd_fixed_point(self, rng):
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = hermitize(w @ w.conj().T)
        assert np.linalg.norm(psd_clip(p) - p) <= 1e-10 * max(1.0, np.linalg.norm(p))

    def test_matches_descent_oracle(self, rng):
        a = random_hermitian(4, rng)
        assert np.linalg.norm(psd_clip(a) - psd_projection_oracle(a)) < 1e-6

    def test_idempotence_property(self):
        assert properties.projection_idempotence_violations(1000) == 0

    def test_contractivity_property(self):
        assert properties.projection_contractivity_violations(1000) == 0

    def test_all_negative_spectrum_gives_exact_zero(self, rng):
        for d in (1, 4, 9):
            w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = -(w @ w.conj().T) - 1e-3 * np.eye(d)
            # plain, at a finite weight anchored at tr h, and at trace 0 fixed
            for args in ((), (np.trace(h).real, 1.0), (0.0, np.inf)):
                out = psd_clip(h, *args)
                assert out.dtype == complex and out.shape == (d, d)
                assert np.array_equal(out, np.zeros((d, d), dtype=complex))

    def test_positive_part_matches_full_reconstruction(self, rng):
        # dropping the columns of clipped-away eigenvalues changes nothing
        # but rounding: compare with (v * clip(lam)) v^dag over all columns
        for d in (2, 5, 12):
            for _ in range(5):
                h = random_hermitian(d, rng)
                h /= np.linalg.norm(h, 2)
                lam, v = np.linalg.eigh(h)
                plain = psd_clip(h)
                for args, shift in (
                    ((), 0.0),
                    ((2.5, 0.0), 0.0),  # weight 0: the plain clip, whatever the trace
                    ((1.0, np.inf), simplex_shift(lam)),
                    ((2.5, np.inf), simplex_shift(lam, 2.5)),
                ):
                    full = (v * np.clip(lam - shift, 0.0, None)) @ v.conj().T
                    out = psd_clip(h, *args)
                    assert np.max(np.abs(out - full)) <= 1e-14
                    assert np.array_equal(out, out.conj().T)
                    if np.inf in args:
                        assert abs(np.trace(out).real - args[0]) <= 1e-14 * args[0]
                    else:
                        assert np.array_equal(out, plain)

    def test_anchored_matches_shift_oracle(self, rng):
        # h = V diag(lam) V^dag with a known spectrum; the weights span the
        # solver's (k/L0 - 1)/d range and beyond; the spectra include one
        # that is all negative (Z = 0) and one that is PSD (Z = h)
        for d in (1, 2, 5, 12):
            for c in (1e-3, 0.1, 1.0, 30.0):
                for shape in ("mixed", "negative", "positive"):
                    lam = rng.standard_normal(d)
                    lam = {"mixed": lam, "negative": -np.abs(lam) - 0.1, "positive": np.abs(lam)}[shape]
                    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                    h = hermitize((q * lam) @ q.conj().T)
                    mu = anchored_shift(lam, c)
                    out = psd_clip(h, np.trace(h).real, c)
                    want = (q * np.clip(lam - mu, 0.0, None)) @ q.conj().T
                    # a search on objective values finds mu to about sqrt(eps)
                    assert np.max(np.abs(out - want)) <= 1e-7
                    assert np.array_equal(out, out.conj().T)
                    # KKT: Z = clip(h - mu I) with mu = c tr(Z - h)
                    mu_kkt = c * np.trace(out - h).real
                    assert np.max(np.abs(psd_clip(h - mu_kkt * np.eye(d)) - out)) <= 1e-12
                    if out.any():  # then mu is unique
                        assert abs(mu_kkt - mu) <= 1e-7 * max(1.0, abs(mu))
                    else:  # every mu >= max(lam) gives Z = 0
                        assert mu_kkt >= lam.max()
                    assert out.any() == (shape != "negative") or shape == "mixed"
                    if shape == "positive":
                        assert abs(mu_kkt) <= 1e-12

    def test_anchored_beats_psd_neighbours(self, rng):
        # optimality against feasible competitors: the plain clip and PSD
        # perturbations of the answer
        c = 0.2
        for d in (3, 8):
            h = random_hermitian(d, rng)
            out = psd_clip(h, np.trace(h).real, c)

            def dist(z):
                return np.linalg.norm(z - h) ** 2 + c * np.trace(z - h).real ** 2

            assert dist(out) <= dist(psd_clip(h)) + 1e-12
            for _ in range(20):
                w = 0.05 * random_hermitian(d, rng)
                assert dist(out) <= dist(psd_clip(out + w)) + 1e-12

    @staticmethod
    def reference_clip(h, trace, weight):
        """psd_clip's Z written out as the function computes it, with the
        count of eigenvectors in its reconstruction."""
        lam, v = np.linalg.eigh(h)
        if weight:
            inv_w = 1.0 / weight
            css = np.cumsum(lam[::-1]) - trace
            r = np.count_nonzero(lam[::-1] * (np.arange(1, lam.size + 1) + inv_w) > css)
            if not r:
                return np.zeros_like(v), 0
            lam -= css[r - 1] / (r + inv_w)
        p = np.searchsorted(lam, 0.0, side="right")
        return hermitize((v[:, p:] * lam[p:]) @ v[:, p:].conj().T), lam.size - p

    def test_factor_contract(self, rng):
        # a seeded stack of Hermitian inputs, mixed, all-negative and PSD
        # spectra, at weight 0, a finite anchored weight and weight inf (at
        # trace 1, and at trace 0, where a negative spectrum clips to 0):
        # rank=True gives Z bit-identical to the formula and to rank=False,
        # and a factor F with F F^dag = Z to rounding and F.shape[1] the rank
        empty = 0
        for d in (1, 2, 5, 12, 32):
            for _ in range(4):
                for shape in ("mixed", "negative", "positive"):
                    h = random_hermitian(d, rng)
                    lam, v = np.linalg.eigh(h)
                    lam = {"mixed": lam, "negative": -np.abs(lam) - 0.1, "positive": np.abs(lam)}[shape]
                    h = hermitize((v * lam) @ v.conj().T)
                    for trace, weight in ((0.0, 0.0), (np.trace(h).real, 0.3), (1.0, np.inf), (0.0, np.inf)):
                        want, rank = self.reference_clip(h, trace, weight)
                        z, f = psd_clip(h, trace, weight, True)
                        assert np.array_equal(z, want) and np.array_equal(z, psd_clip(h, trace, weight))
                        assert f.shape == (d, rank) and f.dtype == complex
                        scale = max(1.0, np.linalg.norm(z))
                        assert np.max(np.abs(f @ f.conj().T - z)) <= 1e-14 * scale
                        if not rank:
                            empty += 1
                            assert not z.any()
        assert empty >= 20  # the all-negative spectra at weight 0 and at trace 0


class TestSignature:
    def test_explicit_spectrum(self):
        assert signature(np.diag([1.0, -1.0, 0.0]).astype(complex)) == (1, 1)
        assert signature(np.zeros((2, 2))) == (0, 0)

    def test_identity(self):
        assert signature(np.eye(6, dtype=complex)) == (6, 0)

    def test_plus_and_minus_count_matches_rank(self, rng):
        for _ in range(50):
            a = random_hermitian(6, rng, traceless=True)
            n_plus, n_minus = signature(a)
            lam = np.linalg.eigvalsh(a)
            rank = int(np.sum(np.abs(lam) > 1e-9 * np.linalg.norm(a)))
            assert n_plus + n_minus == rank

    def test_stack_equals_each_matrix(self, rng):
        # a stack of low-rank matrices of mixed scale, the zero matrix among
        # them, gives each member's own signature, (0, 0) for the zero one
        stack = []
        for k in range(12):
            lam, v = np.linalg.eigh(random_hermitian(5, rng))
            lam[: k % 4] = 0.0
            stack.append(10.0 ** (k % 5 - 2) * hermitize((v * lam) @ v.conj().T))
        stack[5] = np.zeros((5, 5), dtype=complex)
        stack = np.array(stack)
        n_plus, n_minus = signature(stack)
        assert n_plus.shape == n_minus.shape == (12,)
        assert list(zip(n_plus.tolist(), n_minus.tolist())) == [signature(a) for a in stack]
        assert (n_plus[5], n_minus[5]) == (0, 0)
        grid = stack.reshape(3, 4, 5, 5)
        assert all(np.array_equal(x, y.reshape(3, 4)) for x, y in zip(signature(grid), (n_plus, n_minus)))

    def test_stack_with_a_non_hermitian_member_is_rejected(self, rng):
        stack = np.array([random_hermitian(4, rng) for _ in range(6)])
        stack[3, 0, 1] += 1e-6
        with pytest.raises(NotHermitian):
            signature(stack)
        with pytest.raises(NotHermitian):
            require_hermitian(stack)

    def test_zero_count_completes_dimension(self, rng):
        for d in (2, 5, 9):
            a = random_hermitian(d, rng)
            # embed a forced null direction
            lam, v = np.linalg.eigh(a)
            lam[0] = 0.0
            a0 = hermitize((v * lam) @ v.conj().T)
            zero_tol = 1e-9 * np.linalg.norm(a0)
            n_plus, n_minus = signature(a0)
            n_zero = int(np.sum(np.abs(np.linalg.eigvalsh(a0)) <= zero_tol))
            assert n_plus + n_minus + n_zero == d
            assert n_zero >= 1
