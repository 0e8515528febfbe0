"""PSD-cone constrained convex estimation.

Four programs over the cone of (unnormalized) PSD matrices:

* ``estimate_least_squares``  - min 0.5 ||A[X] - f||_2^2  s.t. X >= 0,
  by accelerated projected gradient with restart on nonmonotonicity.  The
  step is 1/L along the identity, where L = ||A||^2 = k for k bases (the
  integer k, not sqrt(k) squared), and 1/L0 on traceless matrices, where
  L0 = ``PovmMap.traceless_lipschitz`` <= k: one ``psd_clip`` of
  P - G/L0 with its trace anchored at tr P.  A gate
  (objective change <= tol * f or step <= 100 tol max(1, ||X||)) must open
  before the Euclidean projected-gradient certificate
  pg <= 10 tol L max(1, ||X||) is checked; without the gate,
  noiseless solves stop early at 30-50x higher infidelities.  A second
  exit ends a solve once the certificate, checked every 100 iterations,
  has held across 7,000: on noiseless data f can fall towards 0 so slowly
  that the relative-change gate does not open within the budget.
* ``estimate_trace_min``      - min Tr X  s.t. ||A[X] - f||_2 <= eps, X >= 0,
  by a primal-dual splitting that alternates an l2-ball projection of the
  residual with a PSD eigenvalue clip plus dual updates.
* ``estimate_max_likelihood`` - max sum_mu f_mu log q_mu(rho) over unit-trace
  PSD rho, by the same accelerated projected gradient with a backtracking
  step whose tests compare log-likelihoods in difference form, stopped
  when a certified log-likelihood gap is below tol.  Once the rank of the
  iterates has held for a window, a Newton-CG polish on rho = VV^dag at
  that rank (Burer-Monteiro) tries to reach the certificate; its point is
  taken only where the certificate holds and ll has not fallen, and
  otherwise the gradient iteration goes on.
* ``feasibility``             - find X >= 0 with ||A[X] - f|| <= eps,
  as least squares with an early exit at the target residual.

The data map A and the record f live on the conditional scale (per-basis
blocks of f sum to 1; rows of A are the unweighted projectors |b_i><b_i|),
so noise bounds attached to sampled records apply directly.  The trace
constraint is deliberately absent everywhere; the normalized state is
restored post hoc as rho_hat = X_hat / Tr X_hat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Infeasible
from .linalg import hermitize, psd_clip
from .measurement import MeasurementRecord, PovmMap, _require_int, _require_real
from .quantum import QuantumState

__all__ = [
    "EstimatorSpec",
    "EstimateResult",
    "estimate_least_squares",
    "estimate_trace_min",
    "estimate_max_likelihood",
    "feasibility",
]

_DEFAULT_TOL = {
    "least_squares": 1e-10,
    "trace_min": 1e-8,
    "max_likelihood": 1e-7,
}

# least squares' held-certificate exit, in iterations (see _least_squares)
_HELD_CHECK_EVERY = 100
_HELD_WINDOW = 7000

# max likelihood's face polish (see _polish): the clip's rank must hold for
# _RANK_WINDOW steps before an attempt of at most _NEWTON_STEPS Newton steps;
# each failed attempt doubles the window
_RANK_WINDOW = 20
_NEWTON_STEPS = 30


@dataclass(frozen=True)
class EstimatorSpec:
    """Solver configuration; the program is the function it is passed to.

    tol(method) is convergence_tol or, if None, the program's default
    (least_squares 1e-10, trace_min 1e-8, max_likelihood 1e-7); for
    max_likelihood it bounds the log-likelihood gap to the optimum.
    noise_bound is required by trace_min when the record carries none.
    """

    noise_bound: float | None = None
    max_iterations: int = 20000
    convergence_tol: float | None = None

    def __post_init__(self):
        if self.noise_bound is not None:
            _require_real("noise_bound", self.noise_bound, 0.0)
        _require_int("max_iterations", self.max_iterations, 1)
        if self.convergence_tol is not None:
            _require_real("convergence_tol", self.convergence_tol, 0.0, open_lo=True)

    def tol(self, method: str) -> float:
        return self.convergence_tol if self.convergence_tol is not None else _DEFAULT_TOL[method]


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Solver output: unnormalized X_hat, normalized rho_hat, diagnostics.

    residual is ||A[X_hat] - f||_2 on the record's (conditional) scale.
    objective_trace holds one objective value per accepted iteration; a
    max-likelihood polish adds one value for all its Newton steps.
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
        self.d = povm.dim
        self.f = np.asarray(record.values, dtype=float)
        self.apply = povm.projector_values
        self.adjoint = povm.adjoint_projectors
        self.povm = povm

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


def _fro(x: np.ndarray) -> float:
    """Frobenius norm of a complex matrix, one BLAS dot."""
    return float(np.sqrt(np.vdot(x, x).real))


def _fista(d, max_iterations, apply, adjoint, phi, dphi, descend, lip, stop, change=None):
    """Accelerated projected gradient with function-value restart, from I/d,
    on phi(A[X]): steps x+ = descend(p, adjoint(dphi(A[p])), lip), a
    projected gradient step of length about 1/lip.

    Iterates carry their image ax = A[x]; the momentum point's image follows
    by linearity, so a trial step costs one adjoint, one projection and one
    apply.  The trial image is A[p] + A[x+ - p], so objective changes near
    the optimum are not lost to the rounding of two separately mapped
    images.  Without change, lip is fixed and objective values are phi of
    each image.  With change(a, delta) = phi(a + delta) - phi(a), computed
    without the cancellation of two phi values, the recorded objective
    follows the accepted changes from phi(A[I/d]), and lip backtracks: it is
    halved before each step and doubled until change <= <g, dx> + lip/2
    ||dx||^2.  The recorded objective is non-increasing: a momentum step
    that raises it is replaced by a plain step from the last iterate.
    stop(it, x, ax, fx, chg, move) returns (converged, stop_reason) to end
    the run, or None; it is first asked before any step, with
    chg = move = inf.
    Returns (X, iterations, objective_trace, converged, stop_reason).
    """

    def step(p, ap):
        nonlocal lip
        g = adjoint(dphi(ap))
        if change:
            lip *= 0.5
        while True:
            xn = descend(p, g, lip)
            dx = xn - p
            dax = apply(dx)
            if not change or change(ap, dax) <= np.vdot(g, dx).real + 0.5 * lip * np.vdot(dx, dx).real:
                return xn, ap + dax
            lip *= 2.0

    def rise(axn):  # (phi(axn), phi(axn) - phi(ax))
        if not change:
            fn = phi(axn)
            return fn, fn - fx
        up = change(ax, axn - ax)
        return fx + up, up

    y = x = np.eye(d, dtype=complex) / d
    ay = ax = apply(x)
    t = 1.0
    fx = phi(ax)
    trace = [fx]
    done = stop(0, x, ax, fx, np.inf, np.inf)
    it = 0
    while not done and it < max_iterations:
        it += 1
        xn, axn = step(y, ay)
        fn, up = rise(axn)
        if up > 0:
            # restart: drop momentum, plain gradient step from x
            t = 1.0
            xn, axn = step(x, ax)
            fn, up = rise(axn)
            if change and up > 0:  # a rounding-level step: keep x
                xn, axn, fn = x, ax, fx
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / tn
        y = xn + beta * (xn - x)
        ay = axn + beta * (axn - ax)
        move = _fro(xn - x)
        chg = fx - fn
        x, ax, fx, t = xn, axn, fn, tn
        trace.append(fx)
        done = stop(it, x, ax, fx, chg, move)
    return (x, it, trace) + (done or (False, "max_iterations"))


def _least_squares(prob: _Problem, spec: EstimatorSpec, stop=None):
    """_fista on 0.5 ||A[X] - f||^2 over the PSD cone.

    A^dag A is L = ||A||^2 = k on the identity and at most L0 =
    PovmMap.traceless_lipschitz on traceless matrices, and L0 is well below
    k for random bases (about 1.7 against k = 4 or 5 at d = 32).  So the
    step is taken in the metric M = L0 on traceless matrices plus k on I,
    which majorises A^dag A.  The PSD minimiser of <G, Z - P> + 1/2 <Z - P,
    M (Z - P)> is the anchored-penalty step: the PSD Z minimising
    ||Z - (P - G/L0)||^2 + c (tr Z - tr P)^2 with c = (k/L0 - 1)/d, one
    psd_clip(P - G/L0, tr P, c).  At L0 = k (one basis, or a repeated one)
    c = 0 and this is the plain step 1/k.

    The default stop has two exits, both on the Euclidean projected-gradient
    certificate pg = L ||X - clip(X - grad / L)|| <= 10 tol L max(1, ||X||):

    * "projected_gradient": the gate (objective change <= tol * f or step
      <= 100 tol max(1, ||X||)) opens, then the certificate holds;
    * "projected_gradient_held": the certificate, checked every
      _HELD_CHECK_EVERY iterations, has held at every check across
      _HELD_WINDOW iterations.  This ends noiseless solves whose objective
      falls so slowly towards 0 that the relative-change gate does not
      open within the budget.

    The certificate bounds the objective gap, not the distance to the
    limit point: after it first holds, X can keep moving for thousands of
    iterations before the step gate opens, and the held exit stops such a
    solve early.  The window exceeds the longest of these tails among the
    noiseless solves of the test suite (4,315 iterations), so those end on
    the gate as before; longer tails exist (README, "Numerical notes").
    """
    tol = spec.tol("least_squares")
    lip = float(prob.povm.n_bases)
    lip0 = prob.povm.traceless_lipschitz
    weight = (lip / lip0 - 1.0) / prob.d
    held_since = None

    def dphi(ax):
        return ax - prob.f

    def descend(p, g, l0):
        return psd_clip(p - g / l0, np.trace(p).real, weight)

    def pg_stop(it, x, ax, fx, chg, move):
        nonlocal held_since
        scale = max(1.0, _fro(x))
        gate = (0 <= chg <= tol * max(fx, 1e-30)) or move <= 100 * tol * scale
        check = it % _HELD_CHECK_EVERY == 0
        if not (gate or check):
            return None
        pg = lip * _fro(x - psd_clip(x - prob.adjoint(dphi(ax)) / lip))
        held = pg <= 10 * tol * lip * scale
        if gate and held:
            return True, "projected_gradient"
        if check:
            if not held:
                held_since = None
            elif held_since is None:
                held_since = it
            elif it - held_since >= _HELD_WINDOW:
                return True, "projected_gradient_held"
        return None

    return _fista(prob.d, spec.max_iterations, prob.apply, prob.adjoint,
                  lambda ax: 0.5 * float(np.linalg.norm(dphi(ax))) ** 2, dphi,
                  descend, lip0, stop or pg_stop)


def estimate_least_squares(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None
) -> EstimateResult:
    """Constrained least squares over the PSD cone (accelerated projected
    gradient, step 1/k on the identity and 1/L0 on traceless matrices; see
    _least_squares)."""
    prob = _Problem(povm, record)
    x, it, trace, conv, reason = _least_squares(prob, spec or EstimatorSpec())
    return _result("least_squares", prob, x, it, conv, trace, reason)


def feasibility(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None
) -> EstimateResult:
    """Return any PSD X with ||A[X] - f|| <= eps (eps = 0 means equality
    within 1e-10).  Implemented as least squares that exits as soon as the
    residual reaches the target, and reports "residual_stalled" when 500
    iterations bring no relative improvement of 1e-3 (a residual floor).

    Raises
    ------
    Infeasible
        If the solver converges with residual above the target.
    """
    spec = spec or EstimatorSpec()
    eps = spec.noise_bound if spec.noise_bound is not None else record.noise_bound
    target = max(eps or 0.0, 1e-10)
    prob = _Problem(povm, record)
    stall_ref = None

    def target_stop(it, x, ax, fx, chg, move):
        nonlocal stall_ref
        if np.sqrt(2 * fx) <= target:
            return True, "target_residual"
        if it % 500 == 0:
            if it and fx > (1.0 - 1e-3) * stall_ref:
                return False, "residual_stalled"
            stall_ref = fx
        return None

    x, it, trace, _, reason = _least_squares(prob, spec, target_stop)
    res = _result("feasibility", prob, x, it, True, trace, reason)
    if res.residual > target:
        raise Infeasible(f"residual floor {res.residual:.3e} exceeds target {target:.3e} ({reason})")
    return res


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
    spec = spec or EstimatorSpec()
    eps = spec.noise_bound if spec.noise_bound is not None else record.noise_bound
    if eps is None:
        raise ValueError("trace_min requires a noise bound (spec or record)")
    prob = _Problem(povm, record)
    tol = spec.tol("trace_min")
    d = prob.d
    f = prob.f
    norm_a = povm.operator_norm()
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
        rp = _fro(xn - x) / tau
        rd = float(np.linalg.norm(u_new - u)) / sigma
        x, u = xn, u_new
        trace.append(float(np.trace(x).real))
        if np.linalg.norm(u) > 1e12:
            raise Infeasible("dual variable diverged; data ball unreachable from the PSD cone")
        if max(rp, rd) < tol * max(1.0, _fro(x)) * norm_a:
            converged = True
            break
    gap = prob.residual(x) - eps
    if gap > max(1e-7, 1e-6 * float(np.linalg.norm(f))):
        raise Infeasible(f"ball constraint violated by {gap:.3e} at termination")
    return _result("trace_min", prob, x, it, converged, trace,
                   "primal_dual_residual" if converged else "max_iterations")


def _newton_cg(hess, g, max_cg):
    """Truncated CG on hess(d) = -g from d = 0, to a residual of
    min(0.5, sqrt(||g||)) ||g||; at a direction of nonpositive curvature it
    returns the step so far, or -g if there is none."""
    d = np.zeros_like(g)
    res = -g
    p = res.copy()
    rr = np.vdot(res, res).real
    stop = rr * min(0.25, np.sqrt(rr))
    for _ in range(max_cg):
        hp = hess(p)
        curv = np.vdot(p, hp).real
        if curv <= 0:
            return d if d.any() else -g
        a = rr / curv
        d += a * p
        res -= a * hp
        rr, rr_old = np.vdot(res, res).real, rr
        if rr <= stop:
            break
        p = res + (rr / rr_old) * p
    return d


def _polish(u, fm, x, r, tol):
    """Damped Newton-CG on the face of rank r, from the top-r eigenpairs of x.

    Minimises G(V) = -sum_mu f_mu log q_mu + tr VV^dag over V in C^{d x r},
    with q = |U^dag V|^2 summed over columns (U: the basis vectors of the
    observed outcomes, f: their unit-sum frequencies).  For unit-sum f the
    minimiser of G over the PSD cone has trace 1 and is the MLE.  With
    R = U diag(f/q) U^dag and W = U^dag V, the gradient is 2 (I - R) V and
    the Hessian on Delta is 2 [(I - R) Delta + U((f dq/q^2) W)] with
    dq = 2 Re sum_j conj(W) U^dag Delta: two matrix products per
    Hessian-vector product, solved by truncated CG (_newton_cg).  The step
    length halves until G falls by an Armijo fraction, G's change taken as
    -sum f log1p(dq/q) + d(tr VV^dag).

    The certificate lambda_max(R(rho)) - 1 <= tol, at rho = VV^dag /
    tr VV^dag, is checked once the Newton decrement puts G within about
    1e-3 tol of its minimum on the face, so rho is not only certified but
    as good as the face allows.  Returns (rho, q(rho), steps) at the first
    such point, or (None, None, steps) when there is none within
    _NEWTON_STEPS steps or the line search finds no descent.
    """
    lam, vecs = np.linalg.eigh(x)
    v = vecs[:, -r:] * np.sqrt(np.maximum(lam[-r:], 0.0))
    uh = u.conj().T
    steps = 0
    while True:
        w = uh @ v
        q = (w.real**2 + w.imag**2).sum(axis=1)
        if not q.min() > 0:
            break
        s = fm / q
        g = v - u @ (s[:, None] * w)  # half the gradient, (I - R) V

        def hess(dv):  # half the Hessian on dv
            z = uh @ dv
            dq = 2.0 * (w.real * z.real + w.imag * z.imag).sum(axis=1)
            return dv - u @ (s[:, None] * z - (s * dq / q)[:, None] * w)

        dv = _newton_cg(hess, g, 2 * v.size)
        slope = 2.0 * np.vdot(g, dv).real
        if steps and -slope <= 1e-3 * tol:
            t = np.vdot(v, v).real
            if t * np.linalg.eigvalsh((u * s) @ uh)[-1] - 1.0 <= tol:
                return hermitize(v @ v.conj().T) / t, q / t, steps
        if steps == _NEWTON_STEPS:
            break
        z = uh @ dv
        wz = 2.0 * (w.real * z.real + w.imag * z.imag).sum(axis=1)
        zz = (z.real**2 + z.imag**2).sum(axis=1)
        vd, dd = 2.0 * np.vdot(v, dv).real, np.vdot(dv, dv).real
        a = 1.0
        while a > 1e-10:
            dq = a * (wz + a * zz)
            if np.all(dq > -q):
                dg = a * (vd + a * dd) - float(fm @ np.log1p(dq / q))
                if dg <= 1e-4 * a * slope:
                    break
            a *= 0.5
        else:
            break  # no descent along dv
        steps += 1
        v = v + a * dv
    return None, None, steps


def estimate_max_likelihood(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None
) -> EstimateResult:
    """Maximum likelihood over unit-trace PSD matrices.

    Accelerated projected gradient (Shang, Zhang and Ng, PRA 95, 062336
    (2017)) with a backtracking step on -ll(rho) = -sum_mu f_mu log q_mu
    for unit-sum frequencies f; q_mu of observed outcomes is floored at
    1e-12.  ll has gradient R = sum_mu (f_mu / q_mu) Pi_mu, and concavity
    gives ll* - ll(rho) <= lambda_max(R) - 1: the solver stops when that
    gap is at most tol.  The backtracking and restart tests take each change
    of ll as -sum_mu f_mu log1p(delta_mu / q_mu), delta being the mapped
    step, so they stay exact where ll itself stops changing in float64.
    objective_trace holds ll, non-decreasing, accumulated from those changes.

    The iterates find the optimum's face long before the certificate: once
    r, the rank of the accepted clip (its own count, never cut lower), has
    held for _RANK_WINDOW steps, _polish runs Newton-CG on rho = VV^dag
    with V of r columns, from the iterate's top-r eigenpairs.  Its point
    ends the solve, still as "duality_gap", when the certificate holds
    there and its ll is no lower than the iterate's (one more entry in
    objective_trace); otherwise the gradient iteration goes on from the
    iterate and tries again after a window twice as long.  iterations
    counts gradient steps plus Newton steps.
    """
    spec = spec or EstimatorSpec()
    tol = spec.tol("max_likelihood")
    if np.min(record.values) < 0:
        raise ValueError("max_likelihood requires nonnegative record entries")
    prob = _Problem(povm, record)
    ft = prob.f / prob.f.sum()
    mask = ft > 0
    fm = ft[mask]

    def dphi(ax):  # -f/q on observed outcomes: the gradient is -R
        w = np.zeros_like(ft)
        w[mask] = -fm / np.maximum(ax[mask], 1e-12)
        return w

    u = np.concatenate(povm.basis_set.bases, axis=1)[:, mask]  # observed |b_mu>
    clip = None  # (Z, rank) of the last clip
    rank, since, window, newton, polished = 0, 0, _RANK_WINDOW, 0, None

    def descend(p, g, lip):
        nonlocal clip
        clip = psd_clip(p - g / lip, 1.0, np.inf, True)
        return clip[0]

    def gap_stop(it, x, ax, fx, chg, move):
        nonlocal rank, since, window, newton, polished
        if np.linalg.eigvalsh(-prob.adjoint(dphi(ax)))[-1] - 1.0 <= tol:
            return True, "duality_gap"
        if clip is None or x is not clip[0]:
            return None  # I/d, or a kept iterate: its rank is unchanged
        if clip[1] != rank:
            rank, since = clip[1], it
        elif it - since >= window:
            since = it
            rho, q, steps = _polish(u, fm, x, rank, tol)
            newton += steps
            if rho is not None:
                aq = np.zeros_like(ax)
                aq[mask] = q
                up = change(ax, aq - ax)
                if up <= 0:
                    polished = rho, fx + up
                    return True, "duality_gap"
            window *= 2  # bounds the share of a long solve spent on failures
        return None

    def change(a, delta):  # phi(a + delta) - phi(a), floors included
        a, delta = a[mask], delta[mask]
        af = np.maximum(a, 1e-12)
        return -float(fm @ np.log1p(np.maximum(a - af + delta, 1e-12 - af) / af))

    x, it, trace, conv, reason = _fista(
        prob.d, spec.max_iterations, prob.apply, prob.adjoint,
        lambda ax: -float(fm @ np.log(np.maximum(ax[mask], 1e-12))), dphi,
        descend, 1.0, gap_stop, change,
    )
    if polished:
        x = polished[0]
        trace.append(polished[1])
    return _result("max_likelihood", prob, x, it + newton, conv, -np.asarray(trace), reason)

