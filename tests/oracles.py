"""Independent oracles used to cross-check the package implementations.

Everything here deliberately avoids the code paths under test: eigenvalues
come from characteristic-polynomial companion roots, optima from scipy
descent on a Cholesky parameterization, Kronecker products from explicit
index loops, the map matrix and kernel basis from per-column and
per-vector loops.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from strictqst.measurement import hermitian_operator_basis


def char_poly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recursion (matrix products and traces only, no eigensolver)."""
    d = a.shape[0]
    coeffs = np.zeros(d + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    eye = np.eye(d, dtype=complex)
    for k in range(1, d + 1):
        m = a @ m + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def char_poly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as companion-matrix roots of the characteristic
    polynomial, sorted descending by real part."""
    roots = np.roots(char_poly_coefficients(a))
    return np.sort_complex(roots)[::-1]


def kron_explicit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product via explicit index arithmetic (no np.kron)."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def map_matrix_loop(povm) -> np.ndarray:
    """Weighted map matrix built one column at a time: column j holds
    projector_values of the j-th hermitian_operator_basis element."""
    d = povm.dim
    g = hermitian_operator_basis(d)
    cols = np.empty((povm.n_outcomes, d * d))
    for j in range(d * d):
        cols[:, j] = povm.projector_values(g[j])
    return povm.weight * cols


def kernel_basis_loop(kernel_vecs: np.ndarray, d: int) -> list[np.ndarray]:
    """Kernel-basis matrices one coefficient vector at a time: the
    symmetrized combination sum_j v_j G_j of hermitian_operator_basis."""
    g_flat = hermitian_operator_basis(d).reshape(d * d, d * d)
    out = []
    for v in kernel_vecs:
        k_mat = (v @ g_flat).reshape(d, d)
        out.append(0.5 * (k_mat + k_mat.conj().T))
    return out


class CholeskyDescent:
    """scipy L-BFGS over X = L L^dag with L complex lower-triangular.

    The objective callback receives (X, L) and returns (value, dF/dX);
    the chain rule to L happens here.  Multiple starts guard against
    bad local behaviour of the parameterization.
    """

    def __init__(self, d: int):
        self.d = d
        self.tril = np.tril_indices(d)
        self.n = self.tril[0].size

    def pack(self, l_mat: np.ndarray) -> np.ndarray:
        return np.concatenate([l_mat[self.tril].real, l_mat[self.tril].imag])

    def unpack(self, z: np.ndarray) -> np.ndarray:
        l_mat = np.zeros((self.d, self.d), dtype=complex)
        l_mat[self.tril] = z[: self.n] + 1j * z[self.n :]
        return l_mat

    def minimize(self, objective, n_starts: int = 4, seed: int = 0, maxiter: int = 50000):
        """objective(X, L) -> (value, gradient dF/dX as a matrix)."""

        def fun(z):
            l_mat = self.unpack(z)
            x = l_mat @ l_mat.conj().T
            val, grad_x = objective(x, l_mat)
            grad_l = 2.0 * (grad_x @ l_mat)
            return val, self.pack(grad_l)

        rng = np.random.default_rng(seed)
        best = None
        solutions = []
        for _ in range(n_starts):
            l0 = np.tril(
                np.eye(self.d) / np.sqrt(self.d)
                + 0.2 * (rng.standard_normal((self.d, self.d)) + 1j * rng.standard_normal((self.d, self.d)))
            )
            res = scipy.optimize.minimize(
                fun,
                self.pack(l0),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": maxiter, "ftol": 1e-18, "gtol": 1e-14},
            )
            l_mat = self.unpack(res.x)
            solutions.append(l_mat @ l_mat.conj().T)
            if best is None or res.fun < best[0]:
                best = (res.fun, solutions[-1])
        return best[1], best[0], solutions


def psd_projection_oracle(a: np.ndarray, seed: int = 0) -> np.ndarray:
    """argmin over PSD P of ||P - A||_F via Cholesky-parameterized descent."""
    d = a.shape[0]
    opt = CholeskyDescent(d)

    def objective(x, _l):
        diff = x - a
        return 0.5 * float(np.linalg.norm(diff) ** 2), 0.5 * (diff + diff.conj().T)

    best, _, _ = opt.minimize(objective, seed=seed)
    return best


def ls_oracle(povm, f: np.ndarray, seed: int = 0, n_starts: int = 6):
    """Constrained-LS minimizer via Cholesky descent.

    Returns (best X, best objective, all start solutions); callers decide
    whether the solutions cluster tightly enough to certify uniqueness.
    """
    opt = CholeskyDescent(povm.dim)

    def objective(x, _l):
        r = povm.projector_values(x) - f
        return 0.5 * float(r @ r), povm.adjoint_projectors(r)

    return opt.minimize(objective, n_starts=n_starts, seed=seed)


def mle_oracle(povm, f: np.ndarray, seed: int = 0, n_starts: int = 4) -> float:
    """Maximum log-likelihood sum_mu f_mu log q_mu(rho) of the unit-sum
    frequencies f over rho = L L^dag / Tr(L L^dag), via Cholesky descent."""
    opt = CholeskyDescent(povm.dim)
    ft = f / f.sum()
    mask = ft > 0
    eye = np.eye(povm.dim, dtype=complex)

    def objective(x, _l):
        q = povm.projector_values(x)[mask]
        tr = float(np.trace(x).real)
        w = np.zeros_like(ft)
        w[mask] = ft[mask] / q
        return -float(ft[mask] @ np.log(q / tr)), eye / tr - povm.adjoint_projectors(w)

    _, best_val, _ = opt.minimize(objective, n_starts=n_starts, seed=seed)
    return -best_val


def trace_min_oracle(povm, f: np.ndarray, eps: float, seed: int = 0) -> np.ndarray:
    """Trace minimizer on the data ball via increasing quadratic penalties."""
    opt = CholeskyDescent(povm.dim)
    eye = np.eye(povm.dim, dtype=complex)
    z = opt.pack(np.eye(povm.dim) / np.sqrt(povm.dim))
    for penalty in [1e2, 1e4, 1e6, 1e8, 1e10]:

        def objective(x, _l, pen=penalty):
            r_vec = povm.projector_values(x) - f
            r = float(np.linalg.norm(r_vec))
            excess = max(0.0, r - eps)
            grad = eye.copy()
            if excess > 0 and r > 0:
                grad = grad + pen * 2.0 * excess * povm.adjoint_projectors(r_vec) / r
            return float(np.trace(x).real) + pen * excess**2, grad

        def fun(zv):
            l_mat = opt.unpack(zv)
            x = l_mat @ l_mat.conj().T
            val, grad_x = objective(x, l_mat)
            return val, opt.pack(2.0 * (grad_x @ l_mat))

        res = scipy.optimize.minimize(
            fun, z, jac=True, method="L-BFGS-B",
            options={"maxiter": 100000, "ftol": 1e-20, "gtol": 1e-16},
        )
        z = res.x
    l_mat = opt.unpack(z)
    return l_mat @ l_mat.conj().T


def random_hermitian(d: int, rng: np.random.Generator, traceless: bool = False) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = 0.5 * (a + a.conj().T)
    if traceless:
        a -= np.trace(a).real / d * np.eye(d)
    return a
