"""Central numerical-tolerance configuration.

Every magic threshold used by the linear-algebra kernel, the state and
measurement models, and the estimators lives here, so that a single record
pins the numerical contract of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances, with package-wide defaults.

    Attributes
    ----------
    hermitian : float
        Max entrywise |A - A^dag| for a matrix to count as Hermitian.
    unitarity : float
        Frobenius bound on ||U^dag U - I|| for unitary checks.
    psd : float
        Most-negative eigenvalue allowed in a "PSD" matrix.
    trace : float
        Allowed deviation of Tr(rho) from 1.
    rank_cut : float
        Eigenvalues above this count toward the rank of a state.
    kernel_svd_rel : float
        Singular values of the map below this fraction of the largest are
        kernel.  kernel_analysis resolves them to this cut without an SVD:
        from the Gram matrix A A^dag down to kernel_gram_rel, and below
        that from the map's own rows (see measurement.kernel_analysis).
    kernel_gram_rel : float
        Where kernel_analysis splits the eigenvalues of the Gram matrix
        A A^dag (the squared singular values), as a fraction of the
        largest.  Those above are taken from the Gram matrix alone.  Its
        eigenvalues carry an absolute rounding error of about
        m * eps * lambda_max for m effects (2.3e-13 * lambda_max at
        m = 1024), so they resolve nothing below that floor; the split
        sits 100x above it up to m = 4,500.  The directions below the
        split are resolved again from their rows, down to kernel_svd_rel,
        so the split decides where the work goes, not the rank.
    block_sum : float
        Allowed deviation of a per-basis probability block sum from 1.
    """

    hermitian: float = 1e-12
    unitarity: float = 1e-10
    psd: float = 1e-10
    trace: float = 1e-10
    rank_cut: float = 1e-9
    kernel_svd_rel: float = 1e-9
    kernel_gram_rel: float = 1e-10
    block_sum: float = 1e-12


DEFAULT = Tolerances()
