"""Dense Hermitian-matrix kernel: the Hermiticity check, PSD-cone
projection and eigenvalue signatures.

Everything downstream (state models, measurement maps, cone-constrained
solvers) stands on these few operations.  All functions are pure; inputs
are never modified in place.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian
from .tolerances import DEFAULT

__all__ = [
    "require_hermitian",
    "hermitize",
    "psd_clip",
    "signature",
]


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate Hermiticity and return the exactly symmetrized matrix, or
    stack (..., d, d) of matrices, each over its last two axes.

    Raises
    ------
    NotHermitian
        If any entry of a - a^dag exceeds DEFAULT.hermitian in modulus, or
        any entry is not finite.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has non-finite entries")
    ah = a.swapaxes(-1, -2).conj()
    dev = np.max(np.abs(a - ah)) if a.size else 0.0
    if dev > DEFAULT.hermitian:
        raise NotHermitian(
            f"matrix deviates from Hermiticity by {dev:.3e} (tol {DEFAULT.hermitian:.1e})"
        )
    return 0.5 * (a + ah)


def hermitize(a: np.ndarray) -> np.ndarray:
    """(a + a^dag)/2 without any validation; cheap defensive symmetrization."""
    return 0.5 * (a + a.conj().T)


def psd_clip(h: np.ndarray, trace: float = 0.0, weight: float = 0.0, rank: bool = False):
    """The PSD Z minimising ||Z - h||^2 + weight (tr Z - trace)^2, for an
    exactly Hermitian h, without validation: one eigh, eigenvalues shifted
    and clipped at zero, an exactly Hermitian reconstruction from the
    eigenvectors whose clipped eigenvalue is positive.  The one PSD
    projection of the package: callers hold matrices that are Hermitian by
    construction (solver iterates, outputs of hermitize or
    require_hermitian).

    weight = 0 is the plain clip; weight = inf makes tr Z = trace a hard
    constraint, and trace = 1 then gives the nearest density matrix.  The
    minimiser is clip(h - mu I) with mu = weight (tr Z - trace); with the r
    largest eigenvalues kept, mu = (sum of them - trace) / (r + 1/weight).
    When no r keeps an eigenvalue, Z is the exact zero matrix.  The r
    eigenvalues that pass the test form a prefix of the descending spectrum,
    so one count finds r.  rank=True returns (Z, F) with the d x r factor
    F = V sqrt(lam) of the kept eigenpairs, so F F^dag is Z to rounding and
    F.shape[1] is the rank of Z; the zero matrix has a d x 0 factor.
    """
    lam, v = np.linalg.eigh(h)
    if weight:  # shift, then clip
        inv_w = 1.0 / weight  # 0 at weight = inf: the simplex shift
        css = np.cumsum(lam[::-1]) - trace
        r = np.count_nonzero(lam[::-1] * (np.arange(1, lam.size + 1) + inv_w) > css)
        if not r:
            return (np.zeros_like(v), v[:, :0]) if rank else np.zeros_like(v)
        lam -= css[r - 1] / (r + inv_w)
    p = np.searchsorted(lam, 0.0, side="right")  # lam ascends: keep lam[p:] > 0
    z = hermitize((v[:, p:] * lam[p:]) @ v[:, p:].conj().T)
    return (z, v[:, p:] * np.sqrt(lam[p:])) if rank else z


def signature(a: np.ndarray):
    """Counts (n_plus, n_minus) of strictly positive / negative eigenvalues
    of a Hermitian matrix, as ints; of a stack (..., d, d), as two integer
    arrays of shape (...), from one stacked eigvalsh.

    Eigenvalues within 1e-9 * ||a||_F of zero, the norm taken per matrix,
    count as zero, so the split is scale invariant and the zero matrix has
    signature (0, 0).
    """
    h = require_hermitian(a)
    cut = 1e-9 * np.linalg.norm(h, axis=(-2, -1))[..., None]
    lam = np.linalg.eigvalsh(h)
    n_plus, n_minus = np.sum(lam > cut, axis=-1), np.sum(lam < -cut, axis=-1)
    return (int(n_plus), int(n_minus)) if h.ndim == 2 else (n_plus, n_minus)
