"""Measurement design and simulation.

A measurement here is a union of k orthonormal bases treated as one POVM:
each basis contributes d rank-one effects (1/k)|b_i><b_i| so the m = k*d
effects sum to the identity.  This module provides the induced linear map
from Hermitian matrices to R^m, noiseless and finite-shot records, the
kernel of the map, and randomized signature tests of the kernel.

Conventions
-----------
* Effect ordering is basis-major, outcome-minor: index mu = b*d + i refers
  to column i of basis b.  This ordering is part of the wire contract.
* ``apply_map`` returns the weighted values Tr(X E_mu), which sum to Tr X.
* Measurement records store per-basis conditional distributions: each
  block of d entries sums to 1.  Records relate to the weighted map by a
  factor k; estimators consume records directly on this scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import hermitize, require_hermitian, signature
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "BasisSet",
    "PovmMap",
    "MeasurementRecord",
    "KernelReport",
    "povm_from_bases",
    "apply_map",
    "noiseless_record",
    "sample_record",
    "hermitian_operator_basis",
    "map_matrix",
    "kernel_analysis",
]

RECORD_KINDS = ("noiseless", "sampled", "synthetic")


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Ordered collection of orthonormal measurement bases.

    bases[b] is a d x d unitary whose columns are the basis vectors.
    labels carry provenance (generator kind, seed, index).
    """

    dim: int
    bases: tuple[np.ndarray, ...]
    kind: str = "custom"
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        frozen = []
        for i, u in enumerate(self.bases):
            u = np.array(u, dtype=complex)
            if u.shape != (self.dim, self.dim):
                raise DimensionMismatch(f"basis {i} has shape {u.shape}, expected ({self.dim}, {self.dim})")
            u.setflags(write=False)
            frozen.append(u)
        object.__setattr__(self, "bases", tuple(frozen))
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"{self.kind}[{i}]" for i in range(len(frozen))))

    @property
    def n_bases(self) -> int:
        return len(self.bases)

    def validate(self, tol: Tolerances = DEFAULT) -> None:
        """Check unitarity of every basis; the induced effects of a unitary
        basis sum to the identity automatically (B B^dag = I)."""
        eye = np.eye(self.dim)
        for i, u in enumerate(self.bases):
            if not np.isfinite(u).all():
                raise ValueError(f"basis {i} has non-finite entries")
            dev = np.linalg.norm(u.conj().T @ u - eye)
            if dev > tol.unitarity:
                raise ValueError(f"basis {i} deviates from unitarity by {dev:.3e}")

    def prefix(self, k: int) -> "BasisSet":
        """First k bases (measurement records nest under this prefix order)."""
        return BasisSet(dim=self.dim, bases=self.bases[:k], kind=self.kind, labels=self.labels[:k])


@dataclass(frozen=True, eq=False)
class PovmMap:
    """Linear map induced by a weighted union of orthonormal bases.

    The m = n_bases * dim effects are E_(b,i) = weight * |b_i><b_i| with
    weight = 1/n_bases, so they sum to the identity.
    """

    basis_set: BasisSet
    _stack: np.ndarray = field(init=False, repr=False)
    _stack_conj: np.ndarray = field(init=False, repr=False)
    _stack_ct: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack = np.stack(self.basis_set.bases)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        sc = stack.conj()
        sc.setflags(write=False)
        object.__setattr__(self, "_stack_conj", sc)
        ct = stack.conj().transpose(0, 2, 1).copy()
        ct.setflags(write=False)
        object.__setattr__(self, "_stack_ct", ct)

    @property
    def dim(self) -> int:
        return self.basis_set.dim

    @property
    def n_bases(self) -> int:
        return self.basis_set.n_bases

    @property
    def n_outcomes(self) -> int:
        return self.n_bases * self.dim

    @property
    def weight(self) -> float:
        return 1.0 / self.n_bases

    def projector_values(self, x: np.ndarray) -> np.ndarray:
        """Unweighted values <b_i|X|b_i> as a flat length-m real vector."""
        xb = np.matmul(x, self._stack)
        return np.einsum("kij,kij->kj", self._stack_conj, xb).real.ravel()

    def adjoint_projectors(self, r: np.ndarray) -> np.ndarray:
        """Adjoint of projector_values: sum_mu r_mu |b_i><b_i| (Hermitian)."""
        rb = r.reshape(self.n_bases, 1, self.dim)
        out = np.matmul(self._stack * rb, self._stack_ct).sum(axis=0)
        return hermitize(out)

    def operator_norm(self) -> float:
        """Spectral norm of the unweighted projector map, sqrt(n_bases).

        A^dag A is the sum of one pinching map per basis; each pinching is
        an orthogonal projection that fixes I, so ||A^dag A|| = n_bases.
        """
        return float(np.sqrt(self.n_bases))


def povm_from_bases(bases: BasisSet, tol: Tolerances = DEFAULT) -> PovmMap:
    """Build the POVM map of a basis set (validates unitarity first)."""
    bases.validate(tol)
    return PovmMap(basis_set=bases)


def apply_map(povm: PovmMap, x: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Weighted measurement vector y_mu = Tr(X E_mu); sums to Tr X.

    X must be Hermitian and match the POVM dimension.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (povm.dim, povm.dim):
        raise DimensionMismatch(f"matrix shape {x.shape} vs POVM dim {povm.dim}")
    x = require_hermitian(x, tol.hermitian)
    return povm.weight * povm.projector_values(x)


def _state_matrix(state) -> np.ndarray:
    """Accept either a QuantumState-like object (with .rho) or a bare matrix."""
    return np.asarray(getattr(state, "rho", state), dtype=complex)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Probability or frequency record of a basis-union measurement.

    values holds per-basis conditional distributions (basis-major order,
    each block of ``dim`` entries sums to 1).  noise_bound, when present,
    bounds the l2 distance between values and the exact distributions.
    """

    dim: int
    n_bases: int
    values: np.ndarray
    kind: str = "noiseless"
    shots_per_basis: int | None = None
    noise_bound: float | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=float).ravel()
        if v.size != self.dim * self.n_bases:
            raise DimensionMismatch(
                f"record length {v.size} != dim*n_bases = {self.dim * self.n_bases}"
            )
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"kind must be one of {RECORD_KINDS}")
        if not np.isfinite(v).all():
            raise ValueError("record entries must be finite")
        tol = DEFAULT.block_sum if self.kind == "noiseless" else 1e-9
        if np.max(np.abs(v.reshape(self.n_bases, self.dim).sum(axis=1) - 1.0)) > tol:
            raise ValueError("per-basis blocks must sum to 1")
        # synthetic records may carry slightly negative entries by design
        if self.kind != "synthetic" and v.min() < -1e-15:
            raise ValueError(f"negative record entry {v.min():.3e}")
        if self.noise_bound is not None and not 0 <= self.noise_bound < np.inf:
            raise ValueError("noise_bound must be finite and >= 0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def blocks(self) -> np.ndarray:
        return self.values.reshape(self.n_bases, self.dim)


def noiseless_record(povm: PovmMap, state, tol: Tolerances = DEFAULT) -> MeasurementRecord:
    """Exact outcome distributions of a unit-trace state under every basis."""
    rho = _state_matrix(state)
    if rho.shape != (povm.dim, povm.dim):
        raise DimensionMismatch(f"state dim {rho.shape[0]} vs POVM dim {povm.dim}")
    p = povm.projector_values(require_hermitian(rho, tol.hermitian))
    p = np.clip(p, 0.0, None).reshape(povm.n_bases, povm.dim)
    p /= p.sum(axis=1, keepdims=True)  # remove float drift; blocks sum to 1 exactly
    return MeasurementRecord(dim=povm.dim, n_bases=povm.n_bases, values=p.ravel(), kind="noiseless")


def sample_record(
    povm: PovmMap,
    state,
    shots_per_basis: int,
    rng: np.random.Generator,
    noise_scale: float = 1.5,
) -> MeasurementRecord:
    """Finite-shot record: independent multinomial draws per basis.

    Each basis gets ``shots_per_basis`` trials from its outcome
    distribution; frequencies are counts/shots.  The attached noise bound
    is the l2 concentration surrogate
    ``noise_scale * sqrt(n_bases * dim / shots_per_basis)``.
    """
    if shots_per_basis < 1:
        raise ValueError("shots_per_basis must be >= 1")
    exact = noiseless_record(povm, state).blocks()
    freqs = np.empty_like(exact)
    for b in range(povm.n_bases):
        pb = np.clip(exact[b], 0.0, None)
        pb = pb / pb.sum()
        freqs[b] = rng.multinomial(shots_per_basis, pb) / shots_per_basis
    bound = noise_scale * np.sqrt(povm.n_bases * povm.dim / shots_per_basis)
    return MeasurementRecord(
        dim=povm.dim,
        n_bases=povm.n_bases,
        values=freqs.ravel(),
        kind="sampled",
        shots_per_basis=shots_per_basis,
        noise_bound=float(bound),
    )


def hermitian_operator_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian operator basis (generalized Gell-Mann).

    Ordering, fixed by contract:
      [0]                 identity / sqrt(d)
      [1 .. d-1]          diagonal traceless matrices, diag(1,..,1,-l,0,..)/norm
      [d .. d-1+d(d-1)/2] symmetric pairs (|i><j| + |j><i|)/sqrt(2), (i<j) row-major
      [.. d*d-1]          antisymmetric pairs (-i|i><j| + i|j><i|)/sqrt(2), (i<j)

    Returns an array of shape (d*d, d, d); <G_a, G_b> = delta_ab under the
    Frobenius inner product.
    """
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for l in range(1, d):
        v = np.zeros(d)
        v[:l] = 1.0
        v[l] = -float(l)
        v /= np.linalg.norm(v)
        mats.append(np.diag(v).astype(complex))
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / np.sqrt(2.0)
            m[j, i] = 1j / np.sqrt(2.0)
            mats.append(m)
    return np.stack(mats)


def map_matrix(povm: PovmMap) -> np.ndarray:
    """Real m x d^2 matrix of the weighted map over hermitian_operator_basis.

    Row mu holds Tr(G_j E_mu); the matrix represents the map isometrically,
    so its singular values equal those of the abstract operator.
    """
    d = povm.dim
    g_flat = hermitian_operator_basis(d).reshape(d * d, d * d)
    u = povm._stack
    # row (b, i) holds conj(u[a, i]) u[c, i] over (a, c): <b_i|X|b_i> = row . vec(X)
    q = np.einsum("bai,bci->biac", u.conj(), u).reshape(povm.n_outcomes, d * d)
    return povm.weight * (q @ g_flat.T).real


@dataclass(frozen=True, eq=False)
class KernelReport:
    """Null-space analysis of a POVM map with randomized signature probes.

    The probe test is one-sided: a witness falsifies the corresponding
    completeness property, but the absence of witnesses certifies nothing.
    """

    kernel_dimension: int
    kernel_basis: tuple[np.ndarray, ...]
    sampled_signatures: tuple[tuple[int, int], ...]
    rank_target: int
    strict_witness: np.ndarray | None = None
    completeness_witness: np.ndarray | None = None

    @property
    def strict_falsified(self) -> bool:
        return self.strict_witness is not None

    @property
    def completeness_falsified(self) -> bool:
        return self.completeness_witness is not None


def kernel_analysis(
    povm: PovmMap,
    r: int,
    n_probes: int,
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT,
) -> KernelReport:
    """Compute the kernel of the POVM map and probe element signatures.

    The kernel basis comes from the SVD of the map matrix (singular values
    below ``tol.kernel_svd_rel`` of the largest count as zero).  n_probes
    unit-Frobenius random combinations of kernel basis elements are drawn;
    a probe with min(n-, n+) <= r falsifies rank-r strict-completeness and
    one with max(n-, n+) <= r falsifies rank-r completeness.  Only
    kernel_dimension is reproducible across BLAS builds: the kernel basis is
    not unique, so the seeded signatures and witnesses are not.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    d = povm.dim
    _, s, vt = np.linalg.svd(map_matrix(povm), full_matrices=True)
    cut = tol.kernel_svd_rel * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cut))
    kernel_vecs = vt[rank:]
    kdim = kernel_vecs.shape[0]
    g_flat = hermitian_operator_basis(d).reshape(d * d, d * d)
    # products over blocks of d kernel vectors keep the temporaries small;
    # one product over all kdim vectors plus its symmetrization would hold
    # several (kdim, d, d) copies at once
    basis = np.empty((kdim, d, d), dtype=complex)
    for lo in range(0, kdim, d):
        block = (kernel_vecs[lo : lo + d] @ g_flat).reshape(-1, d, d)
        basis[lo : lo + d] = 0.5 * (block + block.conj().transpose(0, 2, 1))
    basis.setflags(write=False)

    signatures: list[tuple[int, int]] = []
    strict_wit = None
    complete_wit = None
    if kdim > 0:
        for _ in range(n_probes):
            c = rng.standard_normal(kdim)
            c /= np.linalg.norm(c)
            k_mat = hermitize(np.tensordot(c, basis, axes=1))
            n_plus, n_minus = signature(k_mat, tol=tol)
            signatures.append((n_plus, n_minus))
            if strict_wit is None and min(n_plus, n_minus) <= r:
                strict_wit = k_mat
            if complete_wit is None and max(n_plus, n_minus) <= r:
                complete_wit = k_mat
    return KernelReport(
        kernel_dimension=kdim,
        kernel_basis=tuple(basis),
        sampled_signatures=tuple(signatures),
        rank_target=r,
        strict_witness=strict_wit,
        completeness_witness=complete_wit,
    )
