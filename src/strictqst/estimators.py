"""PSD-cone constrained convex estimation.

Four programs over the cone of (unnormalized) PSD matrices:

* ``estimate_least_squares``  - min 0.5 ||A[X] - f||_2^2  s.t. X >= 0,
  by accelerated projected gradient with restart on nonmonotonicity and
  step 1/L, where L = ||A||^2 = k exactly for k bases (the closed form in
  ``PovmMap.operator_norm``).
* ``estimate_trace_min``      - min Tr X  s.t. ||A[X] - f||_2 <= eps, X >= 0,
  by a primal-dual splitting that alternates an l2-ball projection of the
  residual with a PSD eigenvalue clip plus dual updates.
* ``estimate_max_likelihood`` - max sum_mu f_mu log q_mu(rho) over unit-trace
  PSD rho, by the diluted fixed-point iteration
  rho <- N[(1 + delta R) rho (1 + delta R)].
* ``feasibility``             - find X >= 0 with ||A[X] - f|| <= eps,
  as least squares with an early exit at the target residual.

The data map A and the record f live on the conditional scale (per-basis
blocks of f sum to 1; rows of A are the unweighted projectors |b_i><b_i|),
so noise bounds attached to sampled records apply directly.  The trace
constraint is deliberately absent everywhere; the normalized state is
restored post hoc as rho_hat = X_hat / Tr X_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, Infeasible
from .linalg import hermitize, psd_clip
from .measurement import MeasurementRecord, PovmMap
from .quantum import QuantumState

__all__ = [
    "EstimatorSpec",
    "EstimateResult",
    "estimate_least_squares",
    "estimate_trace_min",
    "estimate_max_likelihood",
    "feasibility",
    "estimate",
]

ESTIMATOR_KINDS = ("feasibility", "least_squares", "trace_min", "max_likelihood")

_DEFAULT_TOL = {
    "least_squares": 1e-10,
    "feasibility": 1e-10,
    "trace_min": 1e-8,
    "max_likelihood": 1e-7,
}


@dataclass(frozen=True)
class EstimatorSpec:
    """Solver configuration shared by all estimation programs.

    convergence_tol of None selects the per-kind default (LS/feasibility
    1e-10, trace_min 1e-8, max_likelihood 1e-7).  noise_bound is required
    by trace_min and feasibility when the record carries none.
    """

    kind: str = "least_squares"
    noise_bound: float | None = None
    max_iterations: int = 20000
    convergence_tol: float | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"kind must be one of {ESTIMATOR_KINDS}")
        if self.noise_bound is not None and not 0 <= self.noise_bound < np.inf:
            raise ValueError("noise_bound must be finite and >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    @property
    def tol(self) -> float:
        return self.convergence_tol if self.convergence_tol is not None else _DEFAULT_TOL[self.kind]


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Solver output: unnormalized X_hat, normalized rho_hat, diagnostics.

    residual is ||A[X_hat] - f||_2 on the record's (conditional) scale.
    objective_trace holds one objective value per accepted iteration.
    """

    method: str
    X_hat: np.ndarray
    rho_hat: QuantumState
    residual: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    stop_reason: str = ""


class _Problem:
    """Precomputed pieces shared by the solvers for one (povm, record) pair."""

    def __init__(self, povm: PovmMap, record: MeasurementRecord):
        if record.dim != povm.dim or record.n_bases != povm.n_bases:
            raise DimensionMismatch(
                f"record ({record.dim}, {record.n_bases} bases) vs "
                f"POVM ({povm.dim}, {povm.n_bases} bases)"
            )
        self.povm = povm
        self.d = povm.dim
        self.f = np.asarray(record.values, dtype=float)
        self.apply = povm.projector_values
        self.adjoint = povm.adjoint_projectors
        self.norm_a = povm.operator_norm()

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.apply(x) - self.f))


def _normalize(x: np.ndarray, d: int) -> QuantumState:
    tr = float(np.trace(x).real)
    if tr <= 1e-12:
        # degenerate zero estimate; fall back to the maximally mixed state
        return QuantumState(np.eye(d, dtype=complex) / d)
    return QuantumState(hermitize(x / tr))


def _result(method, prob, x, iterations, converged, trace, reason="") -> EstimateResult:
    return EstimateResult(
        method=method,
        X_hat=x,
        rho_hat=_normalize(x, prob.d),
        residual=prob.residual(x),
        iterations=iterations,
        converged=converged,
        objective_trace=np.asarray(trace),
        stop_reason=reason,
    )


def _fista(prob: _Problem, spec: EstimatorSpec, target_residual: float | None = None):
    """Accelerated projected gradient with function-value restart.

    Returns (X, iterations, converged, objective_trace, stop_reason).  The
    recorded objective is non-increasing: a momentum step that raises it is
    discarded and replaced by a plain gradient step from the last iterate.

    With a target_residual the solver chases the target instead of
    stationarity: it exits as soon as the residual reaches the target, and
    reports "residual_stalled" when a long window brings no relative
    improvement while the target is still out of reach (a residual floor).
    """
    tol = spec.tol
    lip = prob.norm_a**2
    d = prob.d
    x = np.eye(d, dtype=complex) / d
    y = x.copy()
    t = 1.0
    fx = 0.5 * prob.residual(x) ** 2
    trace = [fx]
    if target_residual is not None and np.sqrt(2 * fx) <= target_residual:
        return x, 0, True, trace, "target_residual"
    stall_window, stall_ref = 500, fx
    for it in range(1, spec.max_iterations + 1):
        g = prob.adjoint(prob.apply(y) - prob.f)
        xn = psd_clip(y - g / lip)
        fn = 0.5 * prob.residual(xn) ** 2
        if fn > fx:
            # restart: drop momentum, plain gradient step from x
            t = 1.0
            g = prob.adjoint(prob.apply(x) - prob.f)
            xn = psd_clip(x - g / lip)
            fn = 0.5 * prob.residual(xn) ** 2
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = xn + ((t - 1.0) / tn) * (xn - x)
        move = float(np.linalg.norm(xn - x))
        chg = fx - fn
        x, fx, t = xn, fn, tn
        trace.append(fx)
        if target_residual is not None:
            if np.sqrt(2 * fx) <= target_residual:
                return x, it, True, trace, "target_residual"
            if it % stall_window == 0:
                if fx > (1.0 - 1e-3) * stall_ref:
                    return x, it, False, trace, "residual_stalled"
                stall_ref = fx
            continue
        scale = max(1.0, float(np.linalg.norm(x)))
        if (0 <= chg <= tol * max(fx, 1e-30)) or move <= 100 * tol * scale:
            g = prob.adjoint(prob.apply(x) - prob.f)
            pg = lip * float(np.linalg.norm(x - psd_clip(x - g / lip)))
            if pg <= 10 * tol * lip * scale:
                return x, it, True, trace, "projected_gradient"
    return x, spec.max_iterations, False, trace, "max_iterations"


def estimate_least_squares(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None
) -> EstimateResult:
    """Constrained least squares over the PSD cone (accelerated projected
    gradient, step 1/L with L = ||A||^2 = k, the number of bases)."""
    spec = replace(spec, kind="least_squares") if spec else EstimatorSpec(kind="least_squares")
    prob = _Problem(povm, record)
    x, it, conv, trace, reason = _fista(prob, spec)
    return _result("least_squares", prob, x, it, conv, trace, reason)


def feasibility(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None
) -> EstimateResult:
    """Return any PSD X with ||A[X] - f|| <= eps (eps = 0 means equality
    within 1e-10).  Implemented as least squares with an early exit.

    Raises
    ------
    Infeasible
        If the solver converges with residual above the target.
    """
    spec = replace(spec, kind="feasibility") if spec else EstimatorSpec(kind="feasibility")
    eps = spec.noise_bound
    if eps is None:
        eps = record.noise_bound if record.noise_bound is not None else 0.0
    target = max(eps, 1e-10)
    prob = _Problem(povm, record)
    x, it, conv, trace, reason = _fista(prob, spec, target_residual=target)
    resid = prob.residual(x)
    if resid > target:
        raise Infeasible(
            f"residual floor {resid:.3e} exceeds target {target:.3e} ({reason})"
        )
    return _result("feasibility", prob, x, it, True, trace, reason)


def estimate_trace_min(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None
) -> EstimateResult:
    """Trace minimization subject to an l2 data-ball constraint.

    Primal-dual splitting: the dual step projects the residual onto the
    eps-ball (via the Moreau identity), the primal step is a PSD eigenvalue
    clip shifted by the trace gradient.  Steps tau, sigma satisfy
    tau * sigma * ||A||^2 < 1.

    Raises
    ------
    Infeasible
        If no PSD matrix meets the ball constraint (diverging dual /
        residual distance that cannot close).
    """
    spec = replace(spec, kind="trace_min") if spec else EstimatorSpec(kind="trace_min")
    eps = spec.noise_bound
    if eps is None:
        eps = record.noise_bound
    if eps is None:
        raise ValueError("trace_min requires a noise bound (spec or record)")
    if eps < 0:
        raise ValueError("noise bound must be >= 0")
    prob = _Problem(povm, record)
    tol = spec.tol
    d = prob.d
    f = prob.f
    norm_a = prob.norm_a
    tau = sigma = 0.99 / norm_a
    eye = np.eye(d)

    def ball_project(y):
        dev = y - f
        n = float(np.linalg.norm(dev))
        if n <= eps:
            return y
        return f + dev * (eps / n)

    x = np.eye(d, dtype=complex) / d
    x_bar = x.copy()
    u = np.zeros(f.size)
    trace = [float(np.trace(x).real)]
    converged = False
    it = 0
    for it in range(1, spec.max_iterations + 1):
        v = u + sigma * prob.apply(x_bar)
        u_new = v - sigma * ball_project(v / sigma)
        xn = psd_clip(x - tau * (prob.adjoint(u_new) + eye))
        x_bar = 2.0 * xn - x
        rp = float(np.linalg.norm(xn - x)) / tau
        rd = float(np.linalg.norm(u_new - u)) / sigma
        x, u = xn, u_new
        trace.append(float(np.trace(x).real))
        if np.linalg.norm(u) > 1e12:
            raise Infeasible("dual variable diverged; data ball unreachable from the PSD cone")
        if max(rp, rd) < tol * max(1.0, float(np.linalg.norm(x))) * norm_a:
            converged = True
            break
    gap = prob.residual(x) - eps
    if gap > max(1e-7, 1e-6 * float(np.linalg.norm(f))):
        raise Infeasible(f"ball constraint violated by {gap:.3e} at termination")
    return _result("trace_min", prob, x, it, converged, trace,
                   "primal_dual_residual" if converged else "max_iterations")


def estimate_max_likelihood(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None
) -> EstimateResult:
    """Maximum likelihood over unit-trace PSD matrices.

    Diluted fixed-point iteration rho <- N[(1 + delta R) rho (1 + delta R)]
    with R = sum_mu (f_mu / q_mu) Pi_mu built from unit-sum frequencies.
    delta halves until the step does
    not decrease the log-likelihood, and grows again after clean steps.
    Outcomes with f_mu > 0 and vanishing model probability are floored at
    1e-12.  Convergence: ||R - 1||_F restricted to the support of rho
    below tolerance.
    """
    spec = replace(spec, kind="max_likelihood") if spec else EstimatorSpec(kind="max_likelihood")
    if np.min(record.values) < 0:
        raise ValueError("max_likelihood requires nonnegative record entries")
    prob = _Problem(povm, record)
    tol = spec.tol
    d = prob.d
    ft = prob.f / prob.f.sum()
    mask = ft > 0
    fm = ft[mask]
    floor = 1e-12

    def loglik(q):
        return float(fm @ np.log(np.maximum(q[mask], floor)))

    def loglik_gain(q_old, q_new):
        # difference evaluated through log1p of the probability ratios;
        # subtracting two O(1) log-likelihood sums would drown the tiny
        # late-iteration gains in rounding noise
        a = np.maximum(q_old[mask], floor)
        b = np.maximum(q_new[mask], floor)
        return float(fm @ np.log1p((b - a) / a))

    def r_operator(q):
        w = np.zeros_like(ft)
        w[mask] = fm / np.maximum(q[mask], floor)
        return prob.adjoint(w)

    rho = np.eye(d, dtype=complex) / d
    q = prob.apply(rho)
    ll = loglik(q)
    trace = [ll]
    delta = 1.0
    eye = np.eye(d)
    converged = False
    reason = "max_iterations"
    it = 0
    for it in range(1, spec.max_iterations + 1):
        r_op = r_operator(q)
        lam, v = np.linalg.eigh(rho)
        support = lam > 1e-10 * max(lam[-1], floor)
        vs = v[:, support]
        crit = float(np.linalg.norm(vs.conj().T @ r_op @ vs - np.eye(int(support.sum()))))
        if crit < tol:
            converged = True
            reason = "support_stationarity"
            break
        step = delta
        accepted = False
        for _ in range(80):
            m = eye + step * r_op
            cand = m @ rho @ m.conj().T
            tr = float(np.trace(cand).real)
            cand = hermitize(cand / tr)
            q_cand = prob.apply(cand)
            gain = loglik_gain(q, q_cand)
            if gain >= 0:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            reason = "backtracking_stalled"
            break
        rho, q = cand, q_cand
        ll = ll + gain
        trace.append(ll)
        delta = min(step * 2.0, 1e8)
    return _result("max_likelihood", prob, hermitize(rho), it, converged, trace, reason)


_DISPATCH = {
    "feasibility": feasibility,
    "least_squares": estimate_least_squares,
    "trace_min": estimate_trace_min,
    "max_likelihood": estimate_max_likelihood,
}


def estimate(povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec) -> EstimateResult:
    """Dispatch to the program named by spec.kind."""
    return _DISPATCH[spec.kind](povm, record, spec)
