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

from collections import Counter
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
    _require_int,
    _require_real,
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
    """log2 d, checked to be an integer >= 1 (d = 2, 4, 8, ...)."""
    if d < 2 or d & (d - 1):
        raise ValueError(f"local bases need a power-of-two dimension >= 2, got {d}")
    return int(d).bit_length() - 1


def _as_tuple(name: str, values) -> tuple:
    """A nonempty list, tuple or 1-d array config value as a tuple."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"{name} must be a nonempty list, got {values!r}")
    return tuple(values)


def _check_shared_fields(config) -> None:
    """The checks of the fields that both experiment configs carry."""
    if config.basis_type not in BASIS_TYPES:
        raise ValueError(f"basis_type must be one of {BASIS_TYPES}")
    _require_int("max_bases", config.max_bases, 1)
    _require_int("seed", config.seed, 0)
    _require_int("jobs", config.jobs, 1)


def _nested_povms(dim: int, basis_type: str, rng: np.random.Generator, max_bases: int,
                  min_bases: int = 1):
    """(k, POVM of the first k bases) for k = min_bases .. max_bases.  Each
    basis is drawn from rng only when the next POVM is asked for, so the
    draws interleave with the caller's own use of rng."""
    mats: list[np.ndarray] = []
    for k in range(1, max_bases + 1):
        if basis_type == "local":
            mats.append(local_random_bases(_require_power_of_two(dim), 1, rng).bases[0])
        else:
            mats.append(global_random_bases(dim, 1, rng).bases[0])
        if k >= min_bases:
            yield k, povm_from_bases(BasisSet(dim=dim, bases=tuple(mats), kind=basis_type))


def _fan_out(fn, tasks: list, jobs: int) -> list:
    """fn over tasks in order, on a pool of jobs processes when jobs > 1
    (the pool module is imported only then: it adds 25-35 ms to start-up)."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _stderr(samples: np.ndarray) -> np.ndarray:
    """Standard error of the mean of each row of samples; 0 for a row of
    one sample."""
    n = samples.shape[1]
    if n < 2:
        return np.zeros(samples.shape[0])
    return samples.std(axis=1, ddof=1) / np.sqrt(n)


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
        dims = tuple(_require_int("dims entries", d, 2) for d in _as_tuple("dims", self.dims))
        ranks = tuple(_require_int("ranks entries", r, 1) for r in _as_tuple("ranks", self.ranks))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ranks", ranks)
        if max(ranks) > min(dims):
            raise ValueError("every rank must be <= every dimension")
        _check_shared_fields(self)
        _require_int("states_per_cell", self.states_per_cell, 1)
        _require_real("infidelity_threshold", self.infidelity_threshold, 0.0, open_lo=True)
        if self.basis_type == "local":
            for d in dims:
                _require_power_of_two(d)


@dataclass(frozen=True, eq=False)
class SweepCell:
    """One (dim, rank) cell: error matrix and the derived onset.

    errors[k-1, s] is the pass metric of state s reconstructed from the
    first k bases (rank 1: infidelity; rank > 1: Frobenius distance).
    Rows exist for k = 1 .. k_evaluated, where growth stops at the first
    all-pass basis count or at max_bases.  stop_reasons[k-1] counts the
    least-squares stop reasons of the states at k bases.
    """

    dim: int
    rank: int
    basis_type: str
    threshold: float
    errors: np.ndarray
    state_seed_keys: tuple[str, ...]
    stop_reasons: tuple[dict[str, int], ...]

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
    rows: list[np.ndarray] = []
    stop_reasons: list[dict[str, int]] = []
    for _, povm in _nested_povms(dim, config.basis_type, rng, config.max_bases):
        row = np.empty(config.states_per_cell)
        reasons: dict[str, int] = {}
        for s, state in enumerate(states):
            record = noiseless_record(povm, state)
            result = estimate_least_squares(povm, record)
            reasons[result.stop_reason] = reasons.get(result.stop_reason, 0) + 1
            if rank == 1:
                row[s] = infidelity(state, result.rho_hat)
            else:
                row[s] = float(np.linalg.norm(result.rho_hat.rho - state.rho))
        rows.append(row)
        stop_reasons.append(reasons)
        if np.all(row <= cut):
            break
    return SweepCell(
        dim=dim,
        rank=rank,
        basis_type=config.basis_type,
        threshold=config.infidelity_threshold,
        errors=np.vstack(rows),
        state_seed_keys=tuple(str(ss.spawn_key) for ss in state_seeds),
        stop_reasons=tuple(stop_reasons),
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
    record for each (target, basis count) pair, least squares first,
    whatever the order of estimators.  Least squares and trace-min start
    from their own converged estimate at the previous basis count, max
    likelihood from this record's converged least-squares estimate; a solve
    with no such estimate starts from I/d.  Where a program's optimum is
    unique this changes only the solver's path; below completeness the
    estimate depends on the start.
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
        _require_int("dim", self.dim, 2)
        _check_shared_fields(self)
        if self.basis_type == "local":
            _require_power_of_two(self.dim)
        _require_int("n_targets", self.n_targets, 1)
        _require_real("mixing", self.mixing, 0.0, 1.0)
        if self.shots_per_basis is not None:
            _require_int("shots_per_basis", self.shots_per_basis, 1)
        if not isinstance(self.noiseless, bool):
            raise ValueError(f"noiseless must be a bool, got {self.noiseless!r}")
        estimators = _as_tuple("estimators", self.estimators)
        if len([est for est in PROTOCOL_ESTIMATORS if est in estimators]) < len(estimators):
            raise ValueError(f"estimators must be distinct names from {PROTOCOL_ESTIMATORS}")
        object.__setattr__(self, "estimators", estimators)
        if _require_int("min_bases", self.min_bases, 1) > self.max_bases:
            raise ValueError("need 1 <= min_bases <= max_bases")
        _require_real("noise_scale", self.noise_scale, 0.0, open_lo=True)

    @property
    def resolved_shots(self) -> int:
        return self.shots_per_basis if self.shots_per_basis is not None else 300 * self.dim


@dataclass(frozen=True, eq=False)
class NoisyProtocolResult:
    """infidelities[estimator] has shape (n_basis_counts, n_targets);
    stop_reasons[estimator][i] counts the stop reasons of that estimator's
    solves at basis_counts[i], summed over targets."""

    config: NoisyProtocolConfig
    basis_counts: tuple[int, ...]
    infidelities: dict[str, np.ndarray]
    stop_reasons: dict[str, tuple[dict[str, int], ...]]

    def mean_curve(self, estimator: str) -> np.ndarray:
        return self.infidelities[estimator].mean(axis=1)

    def stderr_curve(self, estimator: str) -> np.ndarray:
        return _stderr(self.infidelities[estimator])


def _run_protocol_target(args) -> tuple[dict[str, np.ndarray], dict[str, list[str]]]:
    config, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    d = config.dim
    target = random_pure_state(d, rng)
    tau = random_full_rank_state(d, rng)
    sigma = StateModel(target, config.mixing, tau).realize()
    ks = list(range(config.min_bases, config.max_bases + 1))
    out = {est: np.empty(len(ks)) for est in config.estimators}
    reasons = {est: [""] * len(ks) for est in config.estimators}
    order = [est for est in PROTOCOL_ESTIMATORS if est in config.estimators]  # least squares first
    converged: dict[str, np.ndarray | None] = {}  # each program's last estimate, None unless converged
    for k, povm in _nested_povms(d, config.basis_type, rng, config.max_bases, config.min_bases):
        if config.noiseless:
            record = noiseless_record(povm, sigma)
        else:
            record = sample_record(povm, sigma, config.resolved_shots, rng, config.noise_scale)
        idx = ks.index(k)
        for est in order:
            start = converged.get("least_squares" if est == "max_likelihood" else est)
            if est == "least_squares":
                res = estimate_least_squares(povm, record, start=start)
            elif est == "trace_min":
                eps = record.noise_bound if record.noise_bound is not None else 0.0
                res = estimate_trace_min(povm, record, EstimatorSpec(noise_bound=eps), start=start)
            else:
                res = estimate_max_likelihood(povm, record, start=start)
            converged[est] = res.X_hat if res.converged else None
            out[est][idx] = infidelity(target, res.rho_hat)
            reasons[est][idx] = res.stop_reason
    return out, reasons


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
        est: np.stack([out[est] for out, _ in per_target], axis=1) for est in config.estimators
    }
    stop_reasons = {
        est: tuple(dict(Counter(r[est][i] for _, r in per_target)) for i in range(len(ks)))
        for est in config.estimators
    }
    return NoisyProtocolResult(
        config=config, basis_counts=ks, infidelities=stacked, stop_reasons=stop_reasons
    )


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
    ``repeats`` fresh noise directions per eps.  Every eps must be > 0:
    the eps = 0 control always runs.  Each argument is checked before
    anything is drawn.
    """
    _require_int("dim", dim, 2)
    if _require_int("rank", rank, 1) > dim:
        raise ValueError(f"rank {rank} exceeds dim {dim}")
    _require_int("n_bases", n_bases, 1)
    _require_int("seed", seed, 0)
    _require_int("repeats", repeats, 1)
    epsilons = np.asarray(sorted(
        float(_require_real("epsilons entries", e, 0.0, open_lo=True))
        for e in _as_tuple("epsilons", epsilons)
    ))
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
