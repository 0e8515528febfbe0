"""Monte-Carlo experiment drivers.

Three studies, each seeded and reproducible bit-for-bit:

* ``run_completeness_sweep`` - for each (dimension, rank) cell, grow a
  random basis sequence one basis at a time and find the onset: the
  minimal basis count at which every tested random state reconstructs
  from its noiseless record below threshold.
* ``run_noisy_protocol``     - near-pure states measured with finite
  shots; per-estimator curves of mean infidelity versus basis count.
* ``run_robustness_scan``    - inject synthetic noise of exact norm eps
  into noiseless records and fit the error-versus-eps scaling law.

Work fans out over cells / targets with one spawned seed sequence per
task, so results are identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import (
    EstimatorSpec,
    estimate_least_squares,
    estimate_max_likelihood,
    estimate_trace_min,
)
from .measurement import (
    BasisSet,
    MeasurementRecord,
    PovmMap,
    noiseless_record,
    povm_from_bases,
    sample_record,
)
from .quantum import (
    QuantumState,
    StateModel,
    global_random_bases,
    infidelity,
    local_random_bases,
    random_full_rank_state,
    random_pure_state,
    random_rank_r_state,
)

__all__ = [
    "SweepConfig",
    "SweepCell",
    "SweepResult",
    "NoisyProtocolConfig",
    "NoisyProtocolResult",
    "RobustnessScan",
    "run_completeness_sweep",
    "run_noisy_protocol",
    "run_robustness_scan",
]

BASIS_TYPES = ("global", "local")
PROTOCOL_ESTIMATORS = ("least_squares", "trace_min", "max_likelihood")


def _require_power_of_two(d: int) -> int:
    n = int(round(np.log2(d)))
    if 2**n != d:
        raise ValueError(f"local bases need a power-of-two dimension, got {d}")
    return n


def _draw_basis(dim: int, basis_type: str, rng: np.random.Generator) -> np.ndarray:
    if basis_type == "local":
        return local_random_bases(_require_power_of_two(dim), 1, rng).bases[0]
    return global_random_bases(dim, 1, rng).bases[0]


def _fan_out(fn, tasks: list, jobs: int) -> list:
    """fn over tasks in order, on a pool of jobs processes when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _pass_cut(rank: int, threshold: float) -> float:
    """Pass cut: infidelity threshold at rank 1, Frobenius sqrt(2 * threshold) above."""
    return threshold if rank == 1 else float(np.sqrt(2.0 * threshold))


# ---------------------------------------------------------------------------
# completeness sweep


@dataclass(frozen=True)
class SweepConfig:
    """Strict-completeness onset sweep configuration.

    states_per_cell defaults to the desk scale of 10 (the full-scale study
    uses 25*d); pass_threshold is the rank-1 infidelity cutoff.  Ranks
    above 1 pass on Frobenius distance <= sqrt(2 * pass_threshold), which
    matches the pure-state relation between the two metrics.
    """

    dims: tuple[int, ...]
    ranks: tuple[int, ...] = (1,)
    basis_type: str = "global"
    states_per_cell: int = 10
    infidelity_threshold: float = 1e-5
    max_bases: int = 20
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if not self.dims:
            raise ValueError("dims must not be empty")
        if any(d < 2 for d in self.dims):
            raise ValueError("dims must be >= 2")
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be >= 1")
        if max(self.ranks) > min(self.dims):
            raise ValueError("every rank must be <= every dimension")
        if self.basis_type not in BASIS_TYPES:
            raise ValueError(f"basis_type must be one of {BASIS_TYPES}")
        if self.infidelity_threshold <= 0:
            raise ValueError("infidelity_threshold must be > 0")
        if self.states_per_cell < 1 or self.max_bases < 1:
            raise ValueError("states_per_cell and max_bases must be >= 1")
        if self.basis_type == "local":
            for d in self.dims:
                _require_power_of_two(d)


@dataclass(frozen=True, eq=False)
class SweepCell:
    """One (dim, rank) cell: error matrix and the derived onset.

    errors[k-1, s] is the pass metric of state s reconstructed from the
    first k bases (rank 1: infidelity; rank > 1: Frobenius distance).
    Rows exist for k = 1 .. k_evaluated, where growth stops at the first
    all-pass basis count or at max_bases.
    """

    dim: int
    rank: int
    basis_type: str
    threshold: float
    errors: np.ndarray
    state_seed_keys: tuple[str, ...]

    @property
    def pass_cut(self) -> float:
        return _pass_cut(self.rank, self.threshold)

    def onset_at(self, threshold: float) -> int | None:
        """Minimal basis count where every state passes at the given
        rank-1-equivalent threshold; None if never within the sweep."""
        cut = _pass_cut(self.rank, threshold)
        for k in range(self.errors.shape[0]):
            if np.all(self.errors[k] <= cut):
                return k + 1
        return None

    @property
    def onset(self) -> int | None:
        return self.onset_at(self.threshold)

    @property
    def failure_counts(self) -> np.ndarray:
        """Number of failing states at each basis count 1 .. k_evaluated."""
        return (self.errors > self.pass_cut).sum(axis=1)

    @property
    def failure_log(self) -> tuple[tuple[int, int, float], ...]:
        """(basis_count, state_index, metric) for every individual failure."""
        out = []
        bad = self.errors > self.pass_cut
        for k, s in zip(*np.nonzero(bad)):
            out.append((int(k) + 1, int(s), float(self.errors[k, s])))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class SweepResult:
    config: SweepConfig
    cells: tuple[SweepCell, ...]

    def cell(self, dim: int, rank: int) -> SweepCell:
        for c in self.cells:
            if c.dim == dim and c.rank == rank:
                return c
        raise KeyError(f"no cell for dim={dim} rank={rank}")

    def onset_table(self) -> list[dict]:
        return [
            {
                "dim": c.dim,
                "rank": c.rank,
                "basis_type": c.basis_type,
                "onset": c.onset,
                "n_states": c.errors.shape[1],
            }
            for c in self.cells
        ]


def _run_sweep_cell(args) -> SweepCell:
    config, dim, rank, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    state_seeds = seed_seq.spawn(config.states_per_cell)
    states: list[QuantumState] = []
    for ss in state_seeds:
        srng = np.random.default_rng(ss)
        states.append(
            random_pure_state(dim, srng) if rank == 1 else random_rank_r_state(dim, rank, srng)
        )
    cut = _pass_cut(rank, config.infidelity_threshold)
    basis_mats: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    spec = EstimatorSpec(kind="least_squares")
    for _ in range(config.max_bases):
        basis_mats.append(_draw_basis(dim, config.basis_type, rng))
        basis_set = BasisSet(dim=dim, bases=tuple(basis_mats), kind=config.basis_type)
        povm = povm_from_bases(basis_set)
        row = np.empty(config.states_per_cell)
        for s, state in enumerate(states):
            record = noiseless_record(povm, state)
            result = estimate_least_squares(povm, record, spec)
            if rank == 1:
                row[s] = infidelity(state, result.rho_hat)
            else:
                row[s] = float(np.linalg.norm(result.rho_hat.rho - state.rho))
        rows.append(row)
        if np.all(row <= cut):
            break
    return SweepCell(
        dim=dim,
        rank=rank,
        basis_type=config.basis_type,
        threshold=config.infidelity_threshold,
        errors=np.vstack(rows),
        state_seed_keys=tuple(str(ss.spawn_key) for ss in state_seeds),
    )


def run_completeness_sweep(config: SweepConfig) -> SweepResult:
    """Onset sweep over every (dim, rank) cell of the configuration.

    Within a cell the basis sequence is nested: the k-basis measurement is
    a prefix of the (k+1)-basis measurement.  States that fail at a basis
    count are recorded in the cell's failure log, never retried.
    """
    master = np.random.SeedSequence(config.seed)
    cells = [(d, r) for d in config.dims for r in config.ranks]
    seeds = master.spawn(len(cells))
    tasks = [(config, d, r, s) for (d, r), s in zip(cells, seeds)]
    return SweepResult(config=config, cells=tuple(_fan_out(_run_sweep_cell, tasks, config.jobs)))


# ---------------------------------------------------------------------------
# noisy near-pure protocol


@dataclass(frozen=True)
class NoisyProtocolConfig:
    """Finite-shot estimation protocol for near-pure states.

    The realized state is (1-q)|psi><psi| + q*tau with tau a random
    full-rank state.  shots_per_basis of None selects the reference scale
    300*dim; noiseless=True replaces sampling with exact records (the
    infinite-shot limit).  All configured estimators run on the same
    record for each (target, basis count) pair.
    """

    dim: int
    basis_type: str = "global"
    n_targets: int = 20
    mixing: float = 1e-3
    shots_per_basis: int | None = None
    noiseless: bool = False
    estimators: tuple[str, ...] = PROTOCOL_ESTIMATORS
    min_bases: int = 1
    max_bases: int = 10
    noise_scale: float = 1.5
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError("mixing must lie in [0, 1]")
        if self.basis_type not in BASIS_TYPES:
            raise ValueError(f"basis_type must be one of {BASIS_TYPES}")
        if self.basis_type == "local":
            _require_power_of_two(self.dim)
        unknown = set(self.estimators) - set(PROTOCOL_ESTIMATORS)
        if unknown or not self.estimators:
            raise ValueError(f"estimators must be a nonempty subset of {PROTOCOL_ESTIMATORS}")
        if not 1 <= self.min_bases <= self.max_bases:
            raise ValueError("need 1 <= min_bases <= max_bases")
        if self.n_targets < 1:
            raise ValueError("n_targets must be >= 1")
        if self.shots_per_basis is not None and self.shots_per_basis < 1:
            raise ValueError("shots_per_basis must be >= 1")

    @property
    def resolved_shots(self) -> int:
        return self.shots_per_basis if self.shots_per_basis is not None else 300 * self.dim


@dataclass(frozen=True, eq=False)
class NoisyProtocolResult:
    """infidelities[estimator] has shape (n_basis_counts, n_targets)."""

    config: NoisyProtocolConfig
    basis_counts: tuple[int, ...]
    infidelities: dict[str, np.ndarray]

    def mean_curve(self, estimator: str) -> np.ndarray:
        return self.infidelities[estimator].mean(axis=1)

    def stderr_curve(self, estimator: str) -> np.ndarray:
        vals = self.infidelities[estimator]
        n = vals.shape[1]
        if n < 2:
            return np.zeros(vals.shape[0])
        return vals.std(axis=1, ddof=1) / np.sqrt(n)

    def rows(self) -> list[dict]:
        """Flat curve rows: one per (basis count, estimator)."""
        out = []
        for est in self.config.estimators:
            means = self.mean_curve(est)
            errs = self.stderr_curve(est)
            for i, k in enumerate(self.basis_counts):
                out.append(
                    {
                        "n_bases": k,
                        "estimator": est,
                        "mean_infidelity": float(means[i]),
                        "stderr": float(errs[i]),
                    }
                )
        return out


def _run_protocol_target(args) -> dict[str, np.ndarray]:
    config, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    d = config.dim
    target = random_pure_state(d, rng)
    tau = random_full_rank_state(d, rng)
    sigma = StateModel(target, config.mixing, tau).realize()
    ks = list(range(config.min_bases, config.max_bases + 1))
    out = {est: np.empty(len(ks)) for est in config.estimators}
    basis_mats: list[np.ndarray] = []
    for _ in range(config.max_bases):
        basis_mats.append(_draw_basis(d, config.basis_type, rng))
        k = len(basis_mats)
        if k < config.min_bases:
            continue
        povm = povm_from_bases(BasisSet(dim=d, bases=tuple(basis_mats), kind=config.basis_type))
        if config.noiseless:
            record = noiseless_record(povm, sigma)
        else:
            record = sample_record(povm, sigma, config.resolved_shots, rng, config.noise_scale)
        idx = ks.index(k)
        for est in config.estimators:
            if est == "least_squares":
                res = estimate_least_squares(povm, record)
            elif est == "trace_min":
                eps = record.noise_bound if record.noise_bound is not None else 0.0
                res = estimate_trace_min(povm, record, EstimatorSpec(kind="trace_min", noise_bound=eps))
            else:
                res = estimate_max_likelihood(povm, record)
            out[est][idx] = infidelity(target, res.rho_hat)
    return out


def run_noisy_protocol(config: NoisyProtocolConfig) -> NoisyProtocolResult:
    """Per-estimator mean-infidelity curves over seeded random targets.

    Each target draws its own basis sequence (nested across basis counts)
    and its own records; estimators share the record at each point, so
    curve differences reflect the programs, not the noise draw.
    """
    master = np.random.SeedSequence(config.seed)
    seeds = master.spawn(config.n_targets)
    per_target = _fan_out(_run_protocol_target, [(config, s) for s in seeds], config.jobs)
    ks = tuple(range(config.min_bases, config.max_bases + 1))
    stacked = {
        est: np.stack([pt[est] for pt in per_target], axis=1) for est in config.estimators
    }
    return NoisyProtocolResult(config=config, basis_counts=ks, infidelities=stacked)


# ---------------------------------------------------------------------------
# robustness scan


@dataclass(frozen=True, eq=False)
class RobustnessScan:
    """Error-versus-noise scaling of the constrained least-squares program.

    errors[i, j] = ||X_hat - rho_0||_F for the j-th noise direction at
    epsilons[i].  slope and c_hat come from the log-log relation
    log(mean error) = slope * log(eps) + log(c); zero_noise_error is the
    eps = 0 control.
    """

    dim: int
    rank: int
    n_bases: int
    epsilons: np.ndarray
    errors: np.ndarray
    zero_noise_error: float
    seed: int

    @property
    def mean_errors(self) -> np.ndarray:
        return self.errors.mean(axis=1)

    @property
    def slope(self) -> float:
        le, lm = np.log(self.epsilons), np.log(self.mean_errors)
        return float(np.polyfit(le, lm, 1)[0])

    @property
    def c_hat(self) -> float:
        """Geometric-mean error-to-eps ratio: the empirical map constant."""
        return float(np.exp(np.mean(np.log(self.mean_errors) - np.log(self.epsilons))))


def _synthetic_record(povm: PovmMap, exact: MeasurementRecord, eps: float, rng: np.random.Generator) -> MeasurementRecord:
    """Noiseless record plus block-centered noise of exact l2 norm eps.

    Centering each per-basis block keeps block sums at 1, like physical
    shot noise; entries may dip slightly negative, which the synthetic
    record kind permits.
    """
    if eps == 0.0:
        return exact
    k, d = povm.n_bases, povm.dim
    e = rng.standard_normal((k, d))
    e -= e.mean(axis=1, keepdims=True)
    e = e.ravel()
    e *= eps / np.linalg.norm(e)
    return MeasurementRecord(
        dim=d, n_bases=k, values=exact.values + e, kind="synthetic", noise_bound=eps
    )


def run_robustness_scan(
    dim: int,
    rank: int,
    n_bases: int,
    epsilons,
    seed: int = 0,
    repeats: int = 5,
) -> RobustnessScan:
    """Scan reconstruction error against injected noise of exact norm eps.

    One random rank-r state and one random basis sequence per scan
    (n_bases should sit at or above the empirical onset for the cell);
    ``repeats`` fresh noise directions per eps.
    """
    epsilons = np.asarray(sorted(float(e) for e in epsilons))
    if epsilons.size == 0 or epsilons[0] <= 0:
        raise ValueError("epsilons must be positive (the eps = 0 control runs automatically)")
    master = np.random.SeedSequence(seed)
    rng = np.random.default_rng(master)
    state = random_pure_state(dim, rng) if rank == 1 else random_rank_r_state(dim, rank, rng)
    povm = povm_from_bases(global_random_bases(dim, n_bases, rng))
    exact = noiseless_record(povm, state)
    zero_res = estimate_least_squares(povm, exact)
    zero_err = float(np.linalg.norm(zero_res.X_hat - state.rho))
    errors = np.empty((epsilons.size, repeats))
    for i, eps in enumerate(epsilons):
        for j in range(repeats):
            record = _synthetic_record(povm, exact, float(eps), rng)
            res = estimate_least_squares(povm, record)
            errors[i, j] = float(np.linalg.norm(res.X_hat - state.rho))
    return RobustnessScan(
        dim=dim,
        rank=rank,
        n_bases=n_bases,
        epsilons=epsilons,
        errors=errors,
        zero_noise_error=zero_err,
        seed=seed,
    )
