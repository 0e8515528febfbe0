"""Quantum-state model: density matrices, Haar-random sampling, random
bounded-rank states, and the pure-target fidelity metric.

All sampling operations take an explicit ``numpy.random.Generator`` so that
experiments are reproducible bit-for-bit from a single seed; generators are
split (never shared) when work fans out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRank, DimensionMismatch, NotPure
from .linalg import hermitize, require_hermitian
from .measurement import BasisSet, _require_int, _require_real
from .tolerances import DEFAULT

__all__ = [
    "QuantumState",
    "StateModel",
    "haar_random_unitary",
    "random_pure_state",
    "random_rank_r_state",
    "random_full_rank_state",
    "global_random_bases",
    "local_random_bases",
    "fidelity",
    "infidelity",
]


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A density matrix: PSD, unit trace, with cached spectral data.

    Parameters
    ----------
    rho : ndarray
        d x d Hermitian PSD matrix with unit trace.
    declared_rank : int, optional
        If given, an integer >= 1 that must equal the number of eigenvalues
        above the rank cutoff (checked at construction).
    """

    rho: np.ndarray
    declared_rank: int | None = None
    _eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rho = require_hermitian(np.asarray(self.rho, dtype=complex))
        lam = np.linalg.eigvalsh(rho)[::-1].copy()
        if lam[-1] < -DEFAULT.psd:
            raise ValueError(f"state is not PSD: min eigenvalue {lam[-1]:.3e}")
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > DEFAULT.trace:
            raise ValueError(f"state trace {tr!r} deviates from 1 beyond {DEFAULT.trace:.1e}")
        if self.declared_rank is not None:
            _require_int("declared_rank", self.declared_rank, 1)
            got = int(np.sum(lam > DEFAULT.rank_cut))
            if got != self.declared_rank:
                raise ValueError(
                    f"declared rank {self.declared_rank} but {got} eigenvalues above cutoff"
                )
        rho.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_eigenvalues", lam)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted descending (cached at construction)."""
        return self._eigenvalues

    def rank(self) -> int:
        return int(np.sum(self._eigenvalues > DEFAULT.rank_cut))

    @property
    def is_pure(self) -> bool:
        return self.rank() == 1


@dataclass(frozen=True, eq=False)
class StateModel:
    """Near-pure state model: (1-q) |psi><psi| + q tau.

    target must be pure; background is any full-rank state; mixing_weight q
    interpolates between them.
    """

    target: QuantumState
    mixing_weight: float
    background: QuantumState

    def __post_init__(self):
        _require_real("mixing_weight", self.mixing_weight, 0.0, 1.0)
        if not self.target.is_pure:
            raise NotPure("StateModel target must be a pure state")
        if self.target.dim != self.background.dim:
            raise DimensionMismatch("target and background dimensions differ")

    def realize(self) -> QuantumState:
        q = self.mixing_weight
        rho = (1.0 - q) * self.target.rho + q * self.background.rho
        return QuantumState(hermitize(rho))


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a d x d unitary from the Haar measure.

    QR-factor a matrix of iid standard complex Gaussians, then absorb the
    phases of diag(R) into Q.  With that phase fix the R factor has a
    positive diagonal, which makes the QR decomposition unique and the Q
    factor exactly Haar distributed.
    """
    _require_int("d", d, 1)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_state(d: int, rng: np.random.Generator) -> QuantumState:
    """Haar-random pure state: first column of a Haar unitary, outer-producted."""
    psi = haar_random_unitary(d, rng)[:, 0]
    return QuantumState(np.outer(psi, psi.conj()), declared_rank=1)


def random_rank_r_state(d: int, r: int, rng: np.random.Generator) -> QuantumState:
    """Rank-r state from the Gaussian-induced measure: W W^dag normalized,
    W a d x r matrix of iid standard complex Gaussians."""
    if not 1 <= r <= d:
        raise BadRank(f"rank {r} outside 1..{d}")
    w = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    x = w @ w.conj().T
    return QuantumState(hermitize(x / np.trace(x).real), declared_rank=r)


def random_full_rank_state(d: int, rng: np.random.Generator) -> QuantumState:
    """Full-rank state from the Hilbert-Schmidt (r = d induced) measure."""
    return random_rank_r_state(d, d, rng)


def global_random_bases(
    d: int, n_bases: int, rng: np.random.Generator, seed_label: str | None = None
) -> BasisSet:
    """n_bases independent Haar-random orthonormal bases of a d-dim space."""
    _require_int("d", d, 1)
    _require_int("n_bases", n_bases, 0)
    bases = tuple(haar_random_unitary(d, rng) for _ in range(n_bases))
    labels = tuple(f"global[{i}]" + (f" seed={seed_label}" if seed_label else "") for i in range(n_bases))
    return BasisSet(dim=d, bases=bases, kind="global", labels=labels)


def local_random_bases(
    n_qubits: int, n_bases: int, rng: np.random.Generator, seed_label: str | None = None
) -> BasisSet:
    """Bases that factor as tensor products of independent single-qubit
    Haar unitaries; global dimension 2**n_qubits."""
    _require_int("n_qubits", n_qubits, 1)
    _require_int("n_bases", n_bases, 0)
    d = 2**n_qubits
    mats = []
    for _ in range(n_bases):
        u = haar_random_unitary(2, rng)
        for _ in range(n_qubits - 1):
            u = np.kron(u, haar_random_unitary(2, rng))
        mats.append(u)
    labels = tuple(f"local[{i}]" + (f" seed={seed_label}" if seed_label else "") for i in range(n_bases))
    return BasisSet(dim=d, bases=tuple(mats), kind="local", labels=labels)


def fidelity(psi: QuantumState, rho: QuantumState) -> float:
    """Overlap <psi| rho |psi> of a pure target with a state, clamped to [0, 1].

    Raises
    ------
    NotPure
        If psi has rank > 1.
    DimensionMismatch
        If the states live in different dimensions.
    """
    if psi.dim != rho.dim:
        raise DimensionMismatch(f"dim {psi.dim} vs {rho.dim}")
    if not psi.is_pure:
        raise NotPure(f"fidelity target has rank {psi.rank()}")
    # for pure psi: <psi|rho|psi> = Tr(|psi><psi| rho)
    val = float(np.trace(psi.rho @ rho.rho).real)
    if val < -DEFAULT.psd or val > 1.0 + DEFAULT.psd:
        raise ValueError(f"fidelity {val!r} outside [0,1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


def infidelity(psi: QuantumState, rho: QuantumState) -> float:
    return 1.0 - fidelity(psi, rho)
