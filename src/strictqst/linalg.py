"""Dense Hermitian-matrix kernel: the Hermiticity check, PSD-cone
projection and eigenvalue signatures.

Everything downstream (state models, measurement maps, cone-constrained
solvers) stands on these few operations.  All functions are pure; inputs
are never modified in place.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "require_hermitian",
    "hermitize",
    "psd_clip",
    "psd_project",
    "signature",
]


def require_hermitian(a: np.ndarray, tol: float = DEFAULT.hermitian) -> np.ndarray:
    """Validate Hermiticity and return the exactly symmetrized matrix.

    Raises
    ------
    NotHermitian
        If any entry of a - a^dag exceeds tol in modulus, or any entry is
        not finite.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has non-finite entries")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol:
        raise NotHermitian(f"matrix deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return 0.5 * (a + a.conj().T)


def hermitize(a: np.ndarray) -> np.ndarray:
    """(a + a^dag)/2 without any validation; cheap defensive symmetrization."""
    return 0.5 * (a + a.conj().T)


def psd_clip(h: np.ndarray, unit_trace: bool = False) -> np.ndarray:
    """Nearest PSD matrix (with unit_trace, nearest density matrix) to an
    exactly Hermitian h, without validation: one eigh, eigenvalues clipped
    at zero (or projected onto the probability simplex), an exactly
    Hermitian reconstruction.  For solver inner loops whose iterates are
    Hermitian by construction; everything else goes through psd_project."""
    lam, v = np.linalg.eigh(h)
    if unit_trace:  # shift by the simplex threshold, then clip
        css = np.cumsum(lam[::-1]) - 1.0
        r = np.nonzero(lam[::-1] * np.arange(1, lam.size + 1) > css)[0][-1]
        lam -= css[r] / (r + 1)
    np.clip(lam, 0.0, None, out=lam)
    return hermitize((v * lam) @ v.conj().T)


def psd_project(a: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero.

    The result is returned exactly Hermitian.  Projection of an already-PSD
    matrix reproduces it up to floating error.
    """
    return psd_clip(require_hermitian(a, tol.hermitian))


def signature(
    a: np.ndarray,
    zero_tol: float | None = None,
    tol: Tolerances = DEFAULT,
) -> tuple[int, int]:
    """Counts (n_plus, n_minus) of strictly positive / negative eigenvalues.

    Eigenvalues within [-zero_tol, zero_tol] count as zero.  The default
    zero_tol is 1e-9 * ||a||_F, so the split is scale invariant.
    """
    h = require_hermitian(a, tol.hermitian)
    if zero_tol is None:
        zero_tol = 1e-9 * np.linalg.norm(h)
    if zero_tol <= 0 and np.linalg.norm(h) > 0:
        raise ValueError("zero_tol must be positive")
    lam = np.linalg.eigvalsh(h)
    n_plus = int(np.sum(lam > zero_tol))
    n_minus = int(np.sum(lam < -zero_tol))
    return n_plus, n_minus
