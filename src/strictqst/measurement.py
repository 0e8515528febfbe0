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
* Records and ``PovmMap.projector_values`` share one scale: unweighted
  values <b_i|X|b_i>, k times Tr(X E_mu), so each block of d record
  entries (a per-basis conditional distribution) sums to 1.  Estimators
  consume records directly; only ``map_matrix`` carries the weight 1/k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .linalg import hermitize, signature
from .tolerances import DEFAULT

__all__ = [
    "BasisSet",
    "PovmMap",
    "MeasurementRecord",
    "KernelReport",
    "povm_from_bases",
    "noiseless_record",
    "sample_record",
    "hermitian_operator_basis",
    "map_matrix",
    "kernel_analysis",
]

RECORD_KINDS = ("noiseless", "sampled", "synthetic")
BASIS_KINDS = ("global", "local", "custom")


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Ordered collection of orthonormal measurement bases.

    bases[b] is a d x d unitary whose columns are the basis vectors; kind
    is one of BASIS_KINDS; labels are one provenance string per basis.
    """

    dim: int
    bases: tuple[np.ndarray, ...]
    kind: str = "custom"
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        _require_int("dim", self.dim, 1)
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"kind must be one of {BASIS_KINDS}, got {self.kind!r}")
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
        elif len(self.labels) != len(frozen) or not all(isinstance(s, str) for s in self.labels):
            raise ValueError(f"labels must be {len(frozen)} strings, one per basis, got {self.labels!r}")

    @property
    def n_bases(self) -> int:
        return len(self.bases)

    def validate(self) -> None:
        """Check unitarity of every basis; the induced effects of a unitary
        basis sum to the identity automatically (B B^dag = I)."""
        eye = np.eye(self.dim)
        for i, u in enumerate(self.bases):
            if not np.isfinite(u).all():
                raise ValueError(f"basis {i} has non-finite entries")
            dev = np.linalg.norm(u.conj().T @ u - eye)
            if dev > DEFAULT.unitarity:
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
    _u: np.ndarray = field(init=False, repr=False)
    _uc: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.concatenate(self.basis_set.bases, axis=1)  # column b*d + i is |b_i>
        # conj(U), contiguous for the elementwise product of projector_values;
        # the adjoint reads U^dag as its transpose view
        for name, a in (("_u", u), ("_uc", u.conj())):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.basis_set.dim

    @property
    def n_bases(self) -> int:
        return self.basis_set.n_bases

    @property
    def weight(self) -> float:
        return 1.0 / self.n_bases

    def projector_values(self, x: np.ndarray) -> np.ndarray:
        """Unweighted values <b_i|X|b_i> as a flat length-m real vector:
        the column sums of Re(conj(U) * XU), one matrix product."""
        return (self._uc * (x @ self._u)).real.sum(axis=0)

    def adjoint_projectors(self, r: np.ndarray) -> np.ndarray:
        """Adjoint of projector_values: sum_mu r_mu |b_i><b_i| = U diag(r) U^dag
        (Hermitian), one matrix product."""
        return hermitize((self._u * r) @ self._uc.T)

    def operator_norm(self) -> float:
        """Spectral norm of the unweighted projector map, sqrt(n_bases).

        A^dag A is the sum of one pinching map per basis; each pinching is
        an orthogonal projection that fixes I, so ||A^dag A|| = n_bases.
        """
        return float(np.sqrt(self.n_bases))

    @cached_property
    def traceless_lipschitz(self) -> float:
        """L0 = ||A^dag A|| on traceless Hermitian matrices, rounded up.

        A^dag A fixes the identity with eigenvalue n_bases and maps traceless
        matrices to traceless ones, so it splits as n_bases on I plus a
        traceless block.  Its nonzero spectrum is that of A A^dag =
        |U^dag U|^2 (entrywise), whose all-ones eigenvector is the image of
        I; subtracting J/d removes that eigenvalue, so L0 is the largest
        eigenvalue of |U^dag U|^2 - J/d: one kd x kd eigvalsh.  L0 <= n_bases,
        with equality at one basis or a repeated basis, and L0 >= 1 for d >= 2
        (one pinching already reaches 1); d = 1 has no traceless part and
        reads 1.
        """
        g = np.abs(self._uc.T @ self._u) ** 2 - 1.0 / self.dim
        lam = float(np.linalg.eigvalsh(g)[-1])
        return float(np.clip(lam + 1e-12 * self.n_bases, 1.0, self.n_bases))


def povm_from_bases(bases: BasisSet) -> PovmMap:
    """Build the POVM map of a basis set (validates unitarity first)."""
    if not bases.n_bases:
        raise ValueError("a POVM needs at least one basis, got an empty basis set")
    bases.validate()
    return PovmMap(basis_set=bases)


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
        _require_int("dim", self.dim, 1)
        _require_int("n_bases", self.n_bases, 1)
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
        if self.noise_bound is not None:
            _require_real("noise_bound", self.noise_bound, 0.0)
        if self.shots_per_basis is not None:
            _require_int("shots_per_basis", self.shots_per_basis, 1)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def blocks(self) -> np.ndarray:
        return self.values.reshape(self.n_bases, self.dim)


def _require_int(name: str, value, lo: int):
    """value, checked to be an integer >= lo."""
    # bool is an int subclass; a fractional count would be truncated downstream
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    return value


def _require_real(name: str, value, lo: float, hi: float = np.inf, open_lo: bool = False):
    """value, checked to be a finite real in [lo, hi], or in (lo, hi] with
    open_lo; a bool is not a real here, NaN fails every comparison, and
    the float64 cap also keeps out integers too large to convert."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, np.integer, np.floating))
        or not lo <= value <= min(hi, float(np.finfo(float).max))
        or (open_lo and value == lo)
    ):
        bound = f"{'>' if open_lo else '>='} {lo:g}" + (f" and <= {hi:g}" if hi < np.inf else "")
        raise ValueError(f"{name} must be a finite real {bound}, got {value!r}")
    return value


def noiseless_record(povm: PovmMap, state) -> MeasurementRecord:
    """Exact outcome distributions of a QuantumState under every basis."""
    if state.dim != povm.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs POVM dim {povm.dim}")
    p = povm.projector_values(state.rho)
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
    distribution, all in one multinomial call (the draws of one call per
    basis, in basis order); frequencies are counts/shots.  The attached
    noise bound is the l2 concentration surrogate
    ``noise_scale * sqrt(n_bases * dim / shots_per_basis)``.
    """
    _require_int("shots_per_basis", shots_per_basis, 1)
    exact = noiseless_record(povm, state).blocks()
    freqs = rng.multinomial(shots_per_basis, exact) / shots_per_basis
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


def _diagonal_block(d: int) -> np.ndarray:
    """d x (d-1) matrix V of the diagonal basis elements [1 .. d-1]:
    column l-1 is (1,..,1,-l,0,..)/sqrt(l(l+1)) with l leading ones."""
    l = np.arange(1, d)
    v = np.triu(np.ones((d, d - 1)))
    v[l, l - 1] = -l
    return v / np.sqrt(l * (l + 1))


def _from_coordinates(c: np.ndarray, d: int) -> np.ndarray:
    """Matrices sum_j c[n, j] G_j over hermitian_operator_basis, shape
    (n, d, d), from real coordinates c of shape (n, d*d); exactly Hermitian.

    The diagonal is c_0/sqrt(d) + V c_diag; for the pair i<j with
    symmetric and antisymmetric coordinates s and a, entry (i, j) is
    (s - i a)/sqrt(2) and entry (j, i) its conjugate.
    """
    n_pairs = d * (d - 1) // 2
    out = np.zeros((c.shape[0], d, d), dtype=complex)
    out[:, np.arange(d), np.arange(d)] = c[:, :1] / np.sqrt(d) + c[:, 1:d] @ _diagonal_block(d).T
    s = c[:, d : d + n_pairs] / np.sqrt(2.0)
    a = c[:, d + n_pairs :] / np.sqrt(2.0)
    # the pairs (i, j > i) of row i are contiguous in row-major pair order;
    # writing real and imaginary parts in place needs no complex temporary
    lo = 0
    for i in range(d - 1):
        hi = lo + d - 1 - i
        out.real[:, i, i + 1 :] = out.real[:, i + 1 :, i] = s[:, lo:hi]
        out.imag[:, i, i + 1 :] = -a[:, lo:hi]
        out.imag[:, i + 1 :, i] = a[:, lo:hi]
        lo = hi
    return out


def map_matrix(povm: PovmMap) -> np.ndarray:
    """Real m x d^2 matrix of the weighted map over hermitian_operator_basis.

    Row mu holds Tr(G_j E_mu); the matrix represents the map isometrically,
    so its singular values equal those of the abstract operator.  In closed
    form, with u = |b_i> the effect's vector and z_ij = conj(u_i) u_j over
    the pairs i<j in row-major order, row mu is
    weight * (|u|^2/sqrt(d), |u_i|^2 V, sqrt(2) Re z, sqrt(2) Im z), where V
    holds the diagonal basis elements as columns (see _diagonal_block).
    """
    d = povm.dim
    u = povm._u
    iu, ju = np.triu_indices(d, 1)
    p = (u.real**2 + u.imag**2).T  # |u_i|^2, one row per effect
    z = np.sqrt(2.0) * (u[iu].conj() * u[ju]).T
    rows = np.hstack([p.sum(axis=1, keepdims=True) / np.sqrt(d), p @ _diagonal_block(d), z.real, z.imag])
    return povm.weight * rows


@dataclass(frozen=True, eq=False)
class KernelReport:
    """Null-space analysis of a POVM map with randomized signature probes.

    Only the kernel's dimension is kept, not a basis of it: the probes are
    drawn against the map's row space (see kernel_analysis).  The probe
    test is one-sided: a witness (a read-only matrix) falsifies the
    corresponding completeness property, but its absence certifies nothing.
    """

    kernel_dimension: int
    sampled_signatures: tuple[tuple[int, int], ...]
    strict_witness: np.ndarray | None = None
    completeness_witness: np.ndarray | None = None


def _first_witness(probes: np.ndarray, hits: np.ndarray) -> np.ndarray | None:
    """A read-only copy of the first probe that hits, or None; a copy, as a
    view would keep every probe alive."""
    i = np.flatnonzero(hits)
    if not i.size:
        return None
    a = probes[i[0]].copy()
    a.setflags(write=False)
    return a


def kernel_analysis(
    povm: PovmMap,
    r: int,
    n_probes: int,
    rng: np.random.Generator,
) -> KernelReport:
    """Find the kernel dimension of the POVM map and probe element signatures.

    The rank comes from an economy SVD of the m x d^2 map matrix (singular
    values below ``DEFAULT.kernel_svd_rel`` of the largest count as zero);
    its leading right singular vectors span the row space, and the kernel
    is the orthogonal complement, of dimension d^2 - rank.  When the kernel
    is nontrivial, n_probes are drawn as one (n_probes, d^2) standard-normal
    array with the row-space component projected out and the rows
    normalised: a standard normal vector projected onto a subspace is
    standard normal there, so each probe is uniform on the kernel's unit
    sphere.  Probes become exactly Hermitian matrices in closed form (see
    _from_coordinates), and their signatures come from one stacked
    eigvalsh (signature).  A probe with min(n-, n+) <= r falsifies rank-r
    strict-completeness and one with max(n-, n+) <= r falsifies rank-r
    completeness; the first of each is kept as the witness.  Only
    kernel_dimension is reproducible across BLAS builds: the row-space
    basis is not unique, so the seeded signatures and witnesses may rotate.
    """
    _require_int("r", r, 1)
    _require_int("n_probes", n_probes, 1)
    d = povm.dim
    _, s, vt = np.linalg.svd(map_matrix(povm), full_matrices=False)
    cut = DEFAULT.kernel_svd_rel * (s[0] if s.size else 0.0)
    row = vt[: int(np.sum(s > cut))]
    kdim = d * d - row.shape[0]

    signatures: tuple[tuple[int, int], ...] = ()
    strict_wit = complete_wit = None
    if kdim > 0:
        g = rng.standard_normal((n_probes, d * d))
        g -= (g @ row.T) @ row
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        probes = _from_coordinates(g, d)
        n_plus, n_minus = signature(probes)
        signatures = tuple(zip(n_plus.tolist(), n_minus.tolist()))
        strict_wit = _first_witness(probes, np.minimum(n_plus, n_minus) <= r)
        complete_wit = _first_witness(probes, np.maximum(n_plus, n_minus) <= r)
    return KernelReport(
        kernel_dimension=kdim,
        sampled_signatures=signatures,
        strict_witness=strict_wit,
        completeness_witness=complete_wit,
    )
