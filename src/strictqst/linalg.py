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
    """Validate Hermiticity and return the exactly symmetrized matrix.

    Raises
    ------
    NotHermitian
        If any entry of a - a^dag exceeds DEFAULT.hermitian in modulus, or
        any entry is not finite.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has non-finite entries")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > DEFAULT.hermitian:
        raise NotHermitian(
            f"matrix deviates from Hermiticity by {dev:.3e} (tol {DEFAULT.hermitian:.1e})"
        )
    return 0.5 * (a + a.conj().T)


def hermitize(a: np.ndarray) -> np.ndarray:
    """(a + a^dag)/2 without any validation; cheap defensive symmetrization."""
    return 0.5 * (a + a.conj().T)


def psd_clip(h: np.ndarray, unit_trace: bool = False, trace_weight: float = 0.0) -> np.ndarray:
    """Nearest PSD matrix (with unit_trace, nearest density matrix) to an
    exactly Hermitian h, without validation: one eigh, eigenvalues clipped
    at zero (or projected onto the probability simplex), an exactly
    Hermitian reconstruction from the eigenvectors whose clipped eigenvalue
    is positive.  The one PSD projection of the package: callers hold
    matrices that are Hermitian by construction (solver iterates, outputs
    of hermitize or require_hermitian).

    A trace_weight c > 0 measures distance as ||Z - h||^2 + c tr(Z - h)^2.
    The minimiser is clip(h - mu I) with mu = c tr(Z - h); like the simplex
    shift, mu comes from the sorted eigenvalues: with the r largest kept,
    mu = (sum of them - tr h) / (r + 1/c).
    """
    lam, v = np.linalg.eigh(h)
    if unit_trace or trace_weight:  # shift, then clip
        # target trace t and the shift's denominator offset 1/c (0: the simplex)
        t, inv_c = (1.0, 0.0) if unit_trace else (lam.sum(), 1.0 / trace_weight)
        css = np.cumsum(lam[::-1]) - t
        kept = np.nonzero(lam[::-1] * (np.arange(1, lam.size + 1) + inv_c) > css)[0]
        r = kept[-1] + 1 if kept.size else 0  # r = 0: every eigenvalue is cut
        lam -= css[r - 1] / (r + inv_c) if r else -t / inv_c
    p = np.searchsorted(lam, 0.0, side="right")  # lam ascends: keep lam[p:] > 0
    return hermitize((v[:, p:] * lam[p:]) @ v[:, p:].conj().T)


def signature(a: np.ndarray) -> tuple[int, int]:
    """Counts (n_plus, n_minus) of strictly positive / negative eigenvalues.

    Eigenvalues within 1e-9 * ||a||_F of zero count as zero, so the split
    is scale invariant and the zero matrix has signature (0, 0).
    """
    h = require_hermitian(a)
    cut = 1e-9 * np.linalg.norm(h)
    lam = np.linalg.eigvalsh(h)
    return int(np.sum(lam > cut)), int(np.sum(lam < -cut))
