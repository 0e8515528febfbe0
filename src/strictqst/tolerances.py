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
        Singular values below this fraction of the largest are kernel.
    block_sum : float
        Allowed deviation of a per-basis probability block sum from 1.
    """

    hermitian: float = 1e-12
    unitarity: float = 1e-10
    psd: float = 1e-10
    trace: float = 1e-10
    rank_cut: float = 1e-9
    kernel_svd_rel: float = 1e-9
    block_sum: float = 1e-12


DEFAULT = Tolerances()
