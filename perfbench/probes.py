"""Numpy-only probes of the speed a core offers at a given moment.

Other processes on a shared machine slow a core down in spells from seconds
to minutes, and code of different kinds slows down by different amounts.
The protocol workload's maximum-likelihood solves, bound by per-call
overhead on 11 x 11 matrices, slow down by up to 1.7x.  Its probe repeats
a least-squares step on 11 x 11 matrices with 6 bases (projector values,
adjoint, eigh, eigenvalue clip), which slows down by about as much.  The
least-squares solves at d=32 of sweep and the dense work of kernel slow
down by up to 1.4x, but less than any probe tried (this one, and the same
step at d=32): scaling by a probe made their pass times spread more, not
less, so those two workloads are not probed.  The probe never calls
strictqst, so a change to the program cannot move it.

``probe_s`` times ``chunks`` runs of the workload's probe and returns the
fastest: the speed of the present spell, without shorter bursts.
"""

import time

import numpy as np


class SolverProbe:
    """One run: ``iterations`` least-squares steps on d x d matrices, k bases."""

    def __init__(self, d: int, k: int, iterations: int):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
        self.u = np.linalg.qr(z)[0]
        self.u_conj = self.u.conj()
        self.u_ct = self.u.conj().transpose(0, 2, 1).copy()
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        self.x = x + x.conj().T
        self.iterations = iterations

    def __call__(self) -> None:
        x = self.x
        k, d = self.u.shape[0], self.u.shape[1]
        for _ in range(self.iterations):
            vals = np.einsum("kij,kij->kj", self.u_conj, np.matmul(x, self.u)).real
            g = np.matmul(self.u * vals.reshape(k, 1, d), self.u_ct).sum(axis=0)
            lam, v = np.linalg.eigh(0.5 * (g + g.conj().T))
            np.clip(lam, 0.0, None, out=lam)
            np.linalg.norm((v * lam) @ v.conj().T - x)


PROBES = {"protocol": lambda: SolverProbe(11, 6, 80)}


def probe_s(probe, chunks: int) -> float:
    best = float("inf")
    for _ in range(chunks):
        t0 = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - t0)
    return best
