"""Property-suite drivers shared by the unit tests and the acceptance run.

Each function sweeps a batch of random instances and returns the number of
violations found (0 means the property held everywhere at the stated
tolerance).
"""

from __future__ import annotations

import numpy as np

from strictqst.estimators import estimate_max_likelihood
from strictqst.linalg import psd_clip
from strictqst.measurement import noiseless_record, povm_from_bases, sample_record
from strictqst.quantum import global_random_bases, random_rank_r_state

from oracles import random_hermitian


def projection_idempotence_violations(n_instances: int = 1000, seed: int = 1) -> int:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_instances):
        d = int(rng.integers(2, 17))
        p1 = psd_clip(random_hermitian(d, rng))
        if np.linalg.norm(psd_clip(p1) - p1) > 1e-10 * max(1.0, np.linalg.norm(p1)):
            bad += 1
    return bad


def projection_contractivity_violations(n_instances: int = 1000, seed: int = 2) -> int:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_instances):
        d = int(rng.integers(2, 17))
        a, b = random_hermitian(d, rng), random_hermitian(d, rng)
        lhs = np.linalg.norm(psd_clip(a) - psd_clip(b))
        rhs = np.linalg.norm(a - b)
        if lhs > rhs + 1e-12:
            bad += 1
    return bad


def map_linearity_violations(n_instances: int = 1000, seed: int = 3) -> int:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_instances):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        povm = povm_from_bases(global_random_bases(d, k, rng))
        x, y = random_hermitian(d, rng), random_hermitian(d, rng)
        alpha, beta = rng.standard_normal(2)
        lhs = povm.projector_values(alpha * x + beta * y)
        rhs = alpha * povm.projector_values(x) + beta * povm.projector_values(y)
        if np.max(np.abs(lhs - rhs)) > 1e-10:
            bad += 1
    return bad


def map_trace_identity_violations(n_instances: int = 1000, seed: int = 4) -> int:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_instances):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        povm = povm_from_bases(global_random_bases(d, k, rng))
        x = random_hermitian(d, rng)
        # the unweighted values sum to k Tr X: each basis resolves the identity
        if abs(povm.projector_values(x).sum() - k * np.trace(x).real) > 1e-10:
            bad += 1
    return bad


def mle_monotonicity_violations(n_runs: int = 100, seed: int = 5) -> int:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_runs):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        povm = povm_from_bases(global_random_bases(d, k, rng))
        state = random_rank_r_state(d, int(rng.integers(1, d + 1)), rng)
        record = sample_record(povm, state, 200, rng)
        result = estimate_max_likelihood(povm, record)
        if np.any(np.diff(result.objective_trace) < 0):
            bad += 1
    return bad


def multinomial_consistency_violations(
    shot_counts=(1_000, 10_000, 100_000), seed: int = 6
) -> int:
    """||f - p||_2 must shrink at the multinomial rate across shot counts."""
    rng = np.random.default_rng(seed)
    d, k = 5, 3
    povm = povm_from_bases(global_random_bases(d, k, rng))
    state = random_rank_r_state(d, 2, rng)
    p = noiseless_record(povm, state).values
    bad = 0
    errs = []
    for n in shot_counts:
        err = np.linalg.norm(sample_record(povm, state, n, rng).values - p)
        errs.append(err)
        # E||f-p||^2 = sum p(1-p)/n <= k/n; 5x covers sampling spread
        if err > 5.0 * np.sqrt(k / n):
            bad += 1
    if errs[-1] >= errs[0]:
        bad += 1
    return bad
