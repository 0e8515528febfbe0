"""Independent oracles used to cross-check the package implementations.

Everything here deliberately avoids the code paths under test: eigenvalues
come from characteristic-polynomial companion roots, optima from scipy
descent on a Cholesky parameterization (trace-min: bisection on a
penalty multiplier, BFGS on a full factor), Kronecker products from explicit
index loops, the map and its adjoint from per-basis loops, finite-shot
frequencies from one multinomial draw per basis, the map matrix and
kernel basis from per-column and per-vector loops, the simplex shift by
bisection, the anchored shift by a grid search, the least-squares
step in its shift-then-clip form by a search over the kept rank.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from strictqst.measurement import hermitian_operator_basis, noiseless_record


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


def projector_values_loop(povm, x: np.ndarray) -> np.ndarray:
    """<b_i|X|b_i> one basis at a time: the diagonal of B^dag X B for each
    basis B, concatenated in basis-major order."""
    return np.concatenate([np.diag(u.conj().T @ x @ u).real for u in povm.basis_set.bases])


def adjoint_projectors_loop(povm, r: np.ndarray) -> np.ndarray:
    """sum_mu r_mu |b_i><b_i| accumulated one basis at a time as
    B diag(r_b) B^dag."""
    d = povm.dim
    out = np.zeros((d, d), dtype=complex)
    for b, u in enumerate(povm.basis_set.bases):
        out += u @ np.diag(r[b * d : (b + 1) * d]) @ u.conj().T
    return out


def sample_frequencies_loop(povm, state, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Finite-shot frequencies one basis at a time: each block of the exact
    record clipped at zero, renormalised and drawn by its own multinomial
    call, in basis order."""
    exact = noiseless_record(povm, state).blocks()
    freqs = np.empty_like(exact)
    for b in range(povm.n_bases):
        pb = np.clip(exact[b], 0.0, None)
        pb = pb / pb.sum()
        freqs[b] = rng.multinomial(shots, pb) / shots
    return freqs.ravel()


def simplex_shift(lam: np.ndarray, total: float = 1.0) -> float:
    """theta with sum(max(lam - theta, 0)) = total > 0, by bisection (no
    sorting): clip(lam - theta, 0) is the Euclidean projection onto the
    simplex scaled to that total."""
    lo, hi = float(lam.min()) - total, float(lam.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(lam - mid, 0.0, None).sum() > total:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def anchored_shift(lam: np.ndarray, c: float) -> float:
    """mu minimising ||Z - h||^2 + c (tr Z - tr h)^2 over Z = clip(h - mu I), for
    h with eigenvalues lam, by brute-force search: Z - h has eigenvalues
    -min(lam, mu), so the objective is sum(min(lam, mu)^2) + c sum(min(lam,
    mu))^2, evaluated on a grid that is refined six times around its best
    point (no sorting, no closed form)."""
    lo, hi = min(float(lam.min()), 0.0) - 1.0, max(float(lam.max()), 0.0) + 1.0
    for _ in range(6):
        mus = np.linspace(lo, hi, 2001)
        m = np.minimum(lam[None, :], mus[:, None])
        best = int(np.argmin((m**2).sum(axis=1) + c * m.sum(axis=1) ** 2))
        lo, hi = mus[max(best - 2, 0)], mus[min(best + 2, mus.size - 1)]
    return 0.5 * (lo + hi)


def shifted_ls_step(p: np.ndarray, g: np.ndarray, lip: float, lip0: float) -> np.ndarray:
    """The least-squares step in the metric L0 on traceless matrices plus L
    on I, in its shift-then-clip form: h = P - G/L0 + (1/L0 - 1/L)(tr G/d) I,
    then the PSD Z minimising ||Z - h||^2 + c (tr Z - tr h)^2 with
    c = (L/L0 - 1)/d.  Z = clip(h - mu I), and with the r largest
    eigenvalues kept mu = c (S_r - tr h) / (1 + c r); the r taken is the one
    whose mu cuts the spectrum between its r-th and (r+1)-th eigenvalue."""
    d = p.shape[0]
    h = p - g / lip0 + (1.0 / lip0 - 1.0 / lip) * np.trace(g).real / d * np.eye(d)
    h = 0.5 * (h + h.conj().T)
    c = (lip / lip0 - 1.0) / d
    lam, v = np.linalg.eigh(h)
    desc = np.concatenate(([np.inf], lam[::-1], [-np.inf]))
    for r in range(d + 1):
        mu = c * (desc[1 : r + 1].sum() - lam.sum()) / (1.0 + c * r)
        if desc[r] > mu >= desc[r + 1]:
            break
    else:
        raise AssertionError("no kept rank is consistent with its shift")
    return (v * np.clip(lam - mu, 0.0, None)) @ v.conj().T


def map_matrix_loop(povm) -> np.ndarray:
    """Weighted map matrix built one column at a time: column j holds
    projector_values of the j-th hermitian_operator_basis element."""
    d = povm.dim
    g = hermitian_operator_basis(d)
    cols = np.empty((povm.n_bases * d, d * d))
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
    """Trace minimizer on the data ball, for 0 < eps < ||f||.

    At its multiplier mu the minimizer also minimizes the smooth penalised
    objective tr X + (mu/2) ||A[X] - f||^2, whose residual falls as mu
    grows, so bisection on mu brings the residual to eps from inside the
    ball.  Each penalised problem is solved by scipy BFGS over X = L L^dag
    with L a full complex d x d factor, every time from the same random
    start: a start warm from the last, rank-deficient solution sits near a
    saddle and can stall there, as fixed penalties on a triangular factor
    did (0.5% inside the ball at d=4).
    """
    d = povm.dim
    eye = np.eye(d, dtype=complex)
    z0 = 0.3 * np.random.default_rng(seed).standard_normal(2 * d * d)

    def unpack(z):
        l_mat = (z[: d * d] + 1j * z[d * d :]).reshape(d, d)
        return l_mat @ l_mat.conj().T, l_mat

    def solve(mu):
        def fun(z):
            x, l_mat = unpack(z)
            r = povm.projector_values(x) - f
            g = 2.0 * (eye + mu * povm.adjoint_projectors(r)) @ l_mat
            val = float(np.trace(x).real) + 0.5 * mu * float(r @ r)
            return val, np.concatenate([g.real.ravel(), g.imag.ravel()])

        res = scipy.optimize.minimize(
            fun, z0, jac=True, method="BFGS", options={"gtol": 1e-14, "maxiter": 100000}
        )
        x = unpack(res.x)[0]
        return x, float(np.linalg.norm(povm.projector_values(x) - f))

    lo, hi = 0.0, 1.0
    x, r = solve(hi)
    while r > eps:
        lo, hi = hi, 2.0 * hi
        x, r = solve(hi)
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        x_mid, r_mid = solve(mid)
        if r_mid > eps:
            lo = mid
        else:
            hi, x = mid, x_mid
    return x


def random_hermitian(d: int, rng: np.random.Generator, traceless: bool = False) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = 0.5 * (a + a.conj().T)
    if traceless:
        a -= np.trace(a).real / d * np.eye(d)
    return a
