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
  that the relative-change gate does not open within the budget.  On
  sampled and synthetic records the face polish below can end a solve
  sooner, on the same certificate; noiseless records run gradient steps
  alone.
* ``estimate_trace_min``      - min Tr X  s.t. ||A[X] - f||_2 <= eps, X >= 0,
  as least squares on the lowered record f - s 1, the shift s set by a
  secant so that the residual lands on eps; the face polish below ends it
  on a certified duality gap.
* ``estimate_max_likelihood`` - max sum_mu f_mu log q_mu(rho) over unit-trace
  PSD rho, by the same accelerated projected gradient with a backtracking
  step whose tests compare log-likelihoods in difference form, stopped
  when a certified log-likelihood gap is below tol.
* ``feasibility``             - find X >= 0 with ||A[X] - f|| <= eps,
  as least squares with an early exit at the target residual (no polish).

All four programs run on one accelerated projected gradient core
(_fista), which also runs the face polish (_polish) of all but
feasibility; trace-min polishes its penalised form.  The iterates settle
on a low-rank face long before the first-order stop, and damped Newton on
X = VV^dag at that rank (Burer-Monteiro, Math. Program. 95, 329 (2003))
reaches the program's own certificate; otherwise the first-order
iteration goes on.

The data map A and the record f live on the conditional scale (per-basis
blocks of f sum to 1; rows of A are the unweighted projectors |b_i><b_i|),
so noise bounds attached to sampled records apply directly.  The trace
constraint is deliberately absent everywhere; the normalized state is
restored post hoc as rho_hat = X_hat / Tr X_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, Infeasible
from .linalg import hermitize, psd_clip, require_hermitian
from .measurement import MeasurementRecord, PovmMap, _require_int, _require_real
from .quantum import QuantumState
from .tolerances import DEFAULT

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

# the face polish (see _fista, _polish): the clip's rank must hold for
# _RANK_WINDOW steps before an attempt of at most _NEWTON_STEPS Newton steps;
# each failed attempt doubles the window.  One pass of the d = 11 protocol
# target (three programs, k = 1..10, one BLAS thread, min of 7 in each of 3
# rounds) took 0.24-0.26 s at a window of 20, 0.20 at 10, 0.19 at 5, 0.20-0.22
# at 3 and 0.29-0.30 at 1: the steps held before a first attempt are mostly
# wasted, but below 5 the extra failed attempts cost more than the gradient
# steps they save.  A face V with V.size <= _DENSE_SIZE forms its dense real
# Hessian and takes the exact Newton step from one LAPACK solve
# (_dense_newton); larger faces take truncated CG on the matrix-free product.
# Cost of one Newton system, forming plus solving, in us, dense / matrix-free,
# over the systems of one protocol target (seed 11, k = 1..10, one BLAS
# thread, every face dense in one run and matrix-free in another; the CG
# products per system in brackets):
#   d = 11:  r=1 65/204 (5)  r=2 77/304 (10)  r=3 128/809 (27)
#            r=4 178/663 (21)  r=5 233/1144 (42)  r=6 301/366 (16)
#   d = 16:  r=1 90/161 (5)  r=2 133/382 (10)  r=3 209/567 (15)
#            r=4 342/886 (28)  r=5 457/1153 (35)  r=6 699/2072 (56)
#            r=8 1368/608 (24)
#   d = 32:  r=1 336/185 (5)  r=2 513/483 (8)  r=3 896/621 (10)
#            r=4 1482/1050 (19)  r=5 2292/2749 (40)  r=6 3476/9318 (201)
#            r=7 4938/6510 (108)  r=8 7003/7373 (125)  r=9 8253/4059 (70)
#            r=11 13494/3383 (61)
# Ill-conditioned faces take up to their real dimension 2dr in CG products,
# so the dense system wins up to r = 6-8 at d = 11 and 16; beyond that the
# LU solve, (2dr)^3 / 3 flops, costs more, and at d = 32 the matrix-free
# product wins at r = 1-4 as well.  No one limit on V.size follows that.
# The polish of that target takes 65-67 ms at d = 11 at any limit from 60
# to 260, so the d = 11 benchmark cannot tell limits apart, and the limit
# stays at 60 until a d >= 16 workload can; there it took 0.38 s at d = 16
# with 60 and 0.16 s at 100-330, and 3.5-3.7 s at d = 32 with 60-160 and
# 2.0-2.2 s at 200-520
_RANK_WINDOW = 5
_NEWTON_STEPS = 30
_DENSE_SIZE = 60


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
    polish adds one value for all its Newton steps.  iterations counts
    gradient steps plus the Newton steps of every polish attempt,
    including an attempt's last, undamped step to its Newton point, where
    no Hessian is formed.
    trace_min runs least squares at one or more shifts: its objective_trace
    joins their traces, and iterations and max_iterations count the steps
    of all of them (estimate_trace_min).
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
        self.noiseless = record.kind == "noiseless"
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


def _fista(d, max_iterations, apply, adjoint, phi, dphi, descend, lip, stop, polish,
           change=None, x0=None, r0=0):
    """Accelerated projected gradient with function-value restart on
    phi(A[X]), from x0, or I/d when x0 is None; x0's image must lie in
    phi's domain.  Steps x+ = descend(p, adjoint(dphi(A[p])), lip), a
    projected gradient step of length about 1/lip that returns (x+, rank
    of x+).

    Iterates carry their image ax = A[x]; the momentum point's image follows
    by linearity, so a trial step costs one adjoint, one projection and one
    apply.  The trial image is A[p] + A[x+ - p], so objective changes near
    the optimum are not lost to the rounding of two separately mapped
    images.  Without change, lip is fixed and objective values are phi of
    each image.  With change(a, delta) = phi(a + delta) - phi(a), computed
    without the cancellation of two phi values, the recorded objective
    follows the accepted changes from phi(A[x0]), and lip backtracks: it is
    multiplied by 0.9 before each step and doubled until change <= <g, dx>
    + lip/2 ||dx||^2, so most steps pass at their first descend.  The
    recorded objective is non-increasing: a momentum step that raises it is
    replaced by a plain step from the last iterate.
    stop(it, x, ax, fx, chg, move) returns (converged, stop_reason) to end
    the run, or None; it is first asked before any step, with
    chg = move = inf.  dphi(a) = None marks an image outside phi's domain:
    a momentum point there takes no step, and the loop restarts from the
    last iterate, whose image is inside.

    When stop returns None, the face polish runs once r, descend's own rank
    for x (never cut lower; a kept iterate carries none), has held for the
    window, _RANK_WINDOW steps doubled per attempt so failures take a
    bounded share of a long solve: polish(x, r) returns (point, Newton
    steps), point being (X, A[X], stop_reason) or None.  The point ends the
    run, converged and with one more objective entry, if its objective is
    no higher than the iterate's.  A point with image None, trace-min's,
    whose multiplier moved off the run's and so has no comparable
    objective, ends the run on its certificate alone, its entry repeating
    the iterate's objective.  x0 carries rank r0 when r0 > 0: then, unless
    stop's first check already ends the run, one attempt at r0 comes
    before any step, and the run goes on from x0 as above if that attempt
    does not end it.
    polish=None runs gradient steps alone.  Returns (X, iterations,
    objective_trace, converged, stop_reason), iterations counting gradient
    steps plus every attempt's Newton steps.
    """

    def step(p, ap):
        nonlocal lip
        grad = dphi(ap)
        if grad is None:
            return None  # p's image lies outside phi's domain
        g = adjoint(grad)
        if change:
            lip *= 0.9
        while True:
            xn, rn = descend(p, g, lip)
            dx = xn - p
            dax = apply(dx)
            if not change or change(ap, dax) <= np.vdot(g, dx).real + 0.5 * lip * np.vdot(dx, dx).real:
                return xn, ap + dax, rn
            lip *= 2.0

    def rise(axn):  # (phi(axn), phi(axn) - phi(ax))
        if not change:
            fn = phi(axn)
            return fn, fn - fx
        up = change(ax, axn - ax)
        return fx + up, up

    def attempt(r):  # a polish at x's face of rank r: (True, stop_reason) if its point ends the run
        nonlocal x, newton
        point, steps = polish(x, r)
        newton += steps
        if point is not None:
            fn, up = (fx, 0.0) if point[1] is None else rise(point[1])
            if up <= 0:
                x = point[0]
                trace.append(fn)
                return True, point[2]
        return None

    y = x = np.eye(d, dtype=complex) / d if x0 is None else x0
    ay = ax = apply(x)
    t = 1.0
    fx = phi(ax)
    trace = [fx]
    it = rank = since = newton = 0
    done = stop(0, x, ax, fx, np.inf, np.inf) or (attempt(r0) if polish and r0 else None)
    window = _RANK_WINDOW
    while not done and it < max_iterations:
        it += 1
        trial = step(y, ay)
        if trial:
            xn, axn, rn = trial
            fn, up = rise(axn)
        if not trial or up > 0:
            # restart: drop momentum, plain gradient step from x
            t = 1.0
            xn, axn, rn = step(x, ax)
            fn, up = rise(axn)
            if change and up > 0:  # a rounding-level step: keep x
                xn, axn, fn, rn = x, ax, fx, None
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / tn
        y = xn + beta * (xn - x)
        ay = axn + beta * (axn - ax)
        move = _fro(xn - x)
        chg = fx - fn
        x, ax, fx, t = xn, axn, fn, tn
        trace.append(fx)
        done = stop(it, x, ax, fx, chg, move)
        if done or not polish or rn is None:
            continue
        if rn != rank:
            rank, since = rn, it
        elif rank and it - since >= window:
            since, window = it, 2 * window
            done = attempt(rank)
    return (x, it + newton, trace) + (done or (False, "max_iterations"))


def _least_squares(prob: _Problem, spec: EstimatorSpec, stop=None, shift=0.0, polish=None,
                   x0=None):
    """_fista on 0.5 ||A[X] - (f - shift 1)||^2 over the PSD cone, from x0
    (I/d when None).

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

    _fista also runs the face polish (_polish) on G(V) = 0.5 ||q - f||^2:
    c = 0, a = q - f, b = 1.  The gate is FISTA's in Newton terms, half the
    decrement <= tol G or a Newton step that moves X by <= tol max(1, ||X||)
    (100x finer: it is the whole estimated distance to the face minimum);
    then the certificate must hold at the Newton point X = VV^dag, V the
    Newton-updated factor (_polish).  A caller's stop, or a
    noiseless record, runs gradient steps alone: there the clip keeps a face
    wider than the optimum's rank, Newton shrinks the surplus columns of V
    only geometrically, and a polish would certify a surplus eigenvalue of
    ~1e-9 that the clip sets to 0.  A caller's polish(x, r) runs in place
    of this one, whatever the record; with shift, the record is lowered to
    f - shift 1 (both for estimate_trace_min).  Returns _fista's (X,
    iterations, objective_trace, converged, stop_reason).
    """
    tol = spec.tol("least_squares")
    lip = float(prob.povm.n_bases)
    lip0 = prob.povm.traceless_lipschitz
    weight = (lip / lip0 - 1.0) / prob.d
    f = prob.f - shift
    held_since = None

    def phi(ax):
        return 0.5 * float(np.linalg.norm(dphi(ax))) ** 2

    def dphi(ax):
        return ax - f

    def certified(x, ax):
        pg = lip * _fro(x - psd_clip(x - prob.adjoint(dphi(ax)) / lip))
        return pg <= 10 * tol * lip * max(1.0, _fro(x))

    def loss(q):
        e = q - f
        return e, 1.0, lambda dq: float(e @ dq + 0.5 * (dq @ dq))

    def finish(v, q, dv, dec, newton):
        x = hermitize(v @ v.conj().T)
        e = q - f
        if dec > tol * (e @ e) and _fro(x - (v - dv) @ (v - dv).conj().T) > tol * max(1.0, _fro(x)):
            return None
        return (x, q, "projected_gradient") if certified(x, q) else None

    def descend(p, g, l0):
        return psd_clip(p - g / l0, np.trace(p).real, weight, True)

    def pg_stop(it, x, ax, fx, chg, move):
        nonlocal held_since
        gate = (0 <= chg <= tol * max(fx, 1e-30)) or move <= 100 * tol * max(1.0, _fro(x))
        check = it % _HELD_CHECK_EVERY == 0
        if gate or check:
            held = certified(x, ax)
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

    def face_polish(x, r):
        return _polish(prob.povm._u, x, r, 0.0, loss, finish)

    return _fista(prob.d, spec.max_iterations, prob.apply, prob.adjoint, phi, dphi, descend,
                  lip0, stop or pg_stop, polish or (None if stop or prob.noiseless else face_polish),
                  x0=x0)


def _start(start, d: int):
    """A solve's start point: None, or start checked to be a d x d
    Hermitian matrix that is PSD within DEFAULT.psd times its trace (the
    state tolerance once normalised), returned as an exactly Hermitian copy.

    Raises
    ------
    DimensionMismatch
        If start is not d x d.
    NotHermitian
        If start has a non-finite entry or is not Hermitian.
    ValueError
        If start is not PSD.
    """
    if start is None:
        return None
    x = np.asarray(start, dtype=complex)
    if x.shape != (d, d):
        raise DimensionMismatch(f"start has shape {x.shape}, expected ({d}, {d})")
    x = require_hermitian(x)
    lam = np.linalg.eigvalsh(x)[0]
    if lam < -DEFAULT.psd * max(float(np.trace(x).real), 0.0):
        raise ValueError(f"start is not PSD: min eigenvalue {lam:.3e}")
    return x


def estimate_least_squares(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None, *, start=None
) -> EstimateResult:
    """Constrained least squares over the PSD cone (accelerated projected
    gradient, step 1/k on the identity and 1/L0 on traceless matrices, and
    a certified Newton polish on the face its iterates identify unless the
    record is noiseless; see _least_squares).

    start, a Hermitian PSD d x d matrix (checked by _start), replaces I/d
    as the first iterate, for example the estimate from a prefix of the
    same bases.  Where the optimum is unique the solve ends on the same
    certificate either way; where it is not, the estimate depends on the
    start."""
    prob = _Problem(povm, record)
    x0 = _start(start, prob.d)
    x, it, trace, conv, reason = _least_squares(prob, spec or EstimatorSpec(), x0=x0)
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


def _secant(g_at, t):
    """A root of g(t) = g_at(t), increasing in t, by Newton or secant steps
    from t.  g_at returns (g, slope), slope being dg/dt where g_at knows it
    and None where it does not, or None to give up.  A step without a slope
    follows the secant through the last two points, or slope 1 from the
    first point (and from a point that repeats the last t).  A step that
    leaves the bracket of the points seen so far, or follows a slope that
    is not positive, bisects it; a step moves t by at most 1, so while no
    point lies on one side it probes that side e-fold in exp(t).  Returns t
    once |g| <= 1e-10, or None when g_at gives up, after _NEWTON_STEPS
    points, or at the third point in a row that does not halve the least
    |g| so far.  Newton and secant steps converge faster than that on a
    smooth g; g stalls where its points are inexact (a polish on a face
    wider than the optimum's rank settles 1e-8 to 1e-6 off eps) or has no
    root (eps below the least-squares floor, where g levels off above 0)."""
    lo, hi, best, stalls = -np.inf, np.inf, np.inf, 0
    t0 = g0 = None
    for _ in range(_NEWTON_STEPS):
        point = g_at(t)
        if point is None:
            return None
        g, slope = point
        if abs(g) <= 1e-10:
            return t
        stalls = 0 if abs(g) <= 0.5 * best else stalls + 1
        best = min(best, abs(g))
        if stalls == 3:
            return None
        if slope is None:
            slope = 1.0 if t0 is None or t == t0 else (g - g0) / (t - t0)
        if g < 0:
            lo = t
        else:
            hi = t
        tn = t - g / slope if slope > 0 else np.nan
        if not lo < tn < hi:
            tn = 0.5 * (lo + hi)  # -inf or inf while one side is empty
        t0, g0, t = t, g, min(max(tn, t - 1.0), t + 1.0)
    return None


def estimate_trace_min(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None, *, start=None
) -> EstimateResult:
    """Trace minimization subject to an l2 data-ball constraint.

    Every per-basis block of A[X] sums to tr X, so <1, A[X]> = k tr X for k
    bases, and tr X + (mu/2) ||A[X] - f||^2 is, up to a constant, mu times
    least squares on the lowered record f - s 1 with s = 1/(k mu).  So
    trace-min is _least_squares at a shift s that puts the residual
    ||A[X] - f|| on eps.  The first shift, s0 = eps / sqrt(kd), is where an
    unconstrained fit lands on the ball.  When least squares ends without a
    certificate, the shift takes a step of _secant on g = log(||A[X] - f|| /
    eps) against log s, and least squares reruns.  Every run starts from
    start (checked by _start), or from I/d when it is None; a natural start
    is the trace-min estimate from a prefix of the same bases.  Where the
    optimum is not unique the estimate depends on the start.

    Within each run _fista's rank trigger runs the face polish (_polish) on
    the penalised form at mu = 1/(ks): c = 1, a = mu (q - f), b = mu, with
    the gate a Newton decrement <= 1e-3 tol max(1, tr X).  The same
    _secant, each point a polish warm-started from the last, moves mu until
    |g| <= 1e-10, but by Newton steps in t = -log(k mu): each polished point
    carries the exact slope dg/dt = -mu <q - f, dq/dmu> / ||q - f||^2, with
    dq/dmu the image of dV/dmu = -H^-1 U((q - f) W), one more solve with
    the face Hessian H of the attempt's last step.
    There the scaled dual u' = u / (1 + max(0, -lambda_min(I + A^dag u))),
    u = mu (A[X] - f), is dual-feasible, and X ends the solve as
    "duality_gap" when tr X + <u', f> + eps ||u'|| <= tol max(1, tr X).
    A least-squares point with |g| <= 1e-10 ends it on the same
    certificate; a point there that fails it ends the search.  The polished
    point's multiplier has moved off the run's, so _fista takes it on the
    certificate alone.

    eps >= ||f|| returns X = 0, which is then optimal.  At eps = 0 every
    feasible X has trace 1, and the program is least squares itself, with
    its stop reasons.  Otherwise the stop reason is "duality_gap", or
    "max_iterations" when the step budget or the secant gives out.
    objective_trace joins the least-squares traces, 0.5 ||A[X] - f + s 1||^2,
    of every shift point, a polish adding one entry as in _fista.
    iterations counts gradient plus Newton steps over all shift points, and
    the gradient steps are at most spec.max_iterations.

    Raises
    ------
    Infeasible
        If the solve ends outside the ball, as it does when eps is below
        the least-squares residual floor: the secant then probes ever
        smaller shifts until the residual stops falling.
    """
    spec = spec or EstimatorSpec()
    eps = spec.noise_bound if spec.noise_bound is not None else record.noise_bound
    if eps is None:
        raise ValueError("trace_min requires a noise bound (spec or record)")
    prob = _Problem(povm, record)
    x0 = _start(start, prob.d)
    f, k = prob.f, povm.n_bases
    if eps >= np.linalg.norm(f):
        return _result("trace_min", prob, np.zeros((prob.d, prob.d), complex), 0, True, [0.0], "duality_gap")
    if eps == 0:
        x, iterations, trace, conv, reason = _least_squares(prob, spec, x0=x0)
    else:
        tol = spec.tol("trace_min")
        u = povm._u
        uh = u.conj().T
        shift = eps / np.sqrt(f.size)
        mu, iterations, trace = 1.0 / (k * shift), 0, []

        def measure(x, q):  # g, but 0.0 at a certified point and None at one that fails
            g = math.log(np.linalg.norm(q - f) / eps)
            if abs(g) > 1e-10:
                return g
            u = mu * (q - f)
            u = u / (1.0 + max(0.0, -np.linalg.eigvalsh(prob.adjoint(u) + np.eye(prob.d))[0]))
            tr = float(np.trace(x).real)
            return 0.0 if tr + float(u @ f) + eps * float(np.linalg.norm(u)) <= tol * max(1.0, tr) else None

        def loss(q):  # the data part of tr X + (mu/2) ||q - f||^2
            e = q - f
            return mu * e, mu, lambda dq: mu * float(e @ dq + 0.5 * (dq @ dq))

        def finish(v, q, dv, dec, newton):
            if dec > 1e-3 * tol * max(1.0, np.vdot(v, v).real):
                return None
            return hermitize(v @ v.conj().T), q, "duality_gap", lambda: slope(v, q, newton)

        def slope(v, q, newton):  # dg/dt at the face minimum: dV/dmu = -H^-1 U((q - f) W), dmu/dt = -mu
            e = q - f
            w = uh @ v
            z = uh @ newton(u @ (e[:, None] * w))
            return -2.0 * mu * float(e @ (w.real * z.real + w.imag * z.imag).sum(axis=1)) / float(e @ e)

        def polish(x, r):
            steps, point = 0, (x, None)

            def g_at(t):
                nonlocal mu, steps, point
                mu = math.exp(-t) / k
                point, n = _polish(u, point[0], r, 1.0, loss, finish)
                steps += n
                g = None if point is None else measure(*point[:2])
                return None if g is None else (g, point[3]() if g else None)

            if _secant(g_at, math.log(shift)) is None:
                return None, steps
            return (point[0], None, "duality_gap"), steps

        def g_at(t):
            nonlocal x, iterations, shift, mu
            if iterations >= spec.max_iterations:
                return None
            shift = math.exp(t)
            budget = replace(spec, max_iterations=spec.max_iterations - iterations)
            x, n, run, conv, reason = _least_squares(prob, budget, shift=shift, polish=polish, x0=x0)
            iterations += n
            trace.extend(run)
            if reason == "duality_gap" or not conv:
                return (0.0, None) if conv else None
            mu = 1.0 / (k * shift)
            g = measure(x, prob.apply(x))
            return None if g is None else (g, None)

        conv = _secant(g_at, math.log(shift)) is not None
        reason = "duality_gap" if conv else "max_iterations"
    gap = prob.residual(x) - eps
    if gap > max(1e-7, 1e-6 * float(np.linalg.norm(f))):
        raise Infeasible(f"ball constraint violated by {gap:.3e} at termination")
    return _result("trace_min", prob, x, iterations, conv, trace, reason)


def _newton_cg(hess, g):
    """Truncated CG on hess(d) = -g from d = 0, to a residual of
    min(0.5, sqrt(||g||)) ||g|| or for at most the system's real dimension
    in products; at a direction of nonpositive curvature it returns the
    step so far, or -g if there is none.  The Newton step of matrix-free
    faces, and of dense ones where _dense_newton refuses the exact step."""
    d = np.zeros_like(g)
    res = -g
    p = res.copy()
    rr = np.vdot(res, res).real
    stop = rr * min(0.25, np.sqrt(rr))
    for _ in range(g.view(float).size):
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


def _dense_newton(h, g):
    """The exact Newton step d = -h^-1 g on a dense real h, one LAPACK
    solve.  Face Hessians are near-singular along the gauge V -> VQ and at
    times slightly indefinite, so a singular h, or a step that is not a
    descent direction (not <g, d> < 0, NaN included), gets _newton_cg's
    step on the same h instead."""
    try:
        d = np.linalg.solve(h, -g)
    except np.linalg.LinAlgError:
        return _newton_cg(h.dot, g)
    return d if g @ d < 0 else _newton_cg(h.dot, g)


def _hess_product(ut, w, c, a, b):
    """Half the Hessian of _polish's G at V, W = U^dag V, as a product on
    Delta in C^{d x r}, from ut = U^T: c Delta + U(a Z + b dq W), Z =
    U^dag Delta and dq = 2 Re sum_j conj(W) Z, two matrix products per
    call."""
    u, uh = ut.T, ut.conj()

    def hess(dv):
        z = uh @ dv
        dq = 2.0 * (w.real * z.real + w.imag * z.imag).sum(axis=1)
        return c * dv + u @ (a[:, None] * z + (b * dq)[:, None] * w)

    return hess


def _hess_matrix(ut, w, c, a, b):
    """_hess_product as a dense real symmetric matrix on the real view of
    Delta taken column by column, Delta.T.view(float).ravel(), from ut =
    U^T (C-contiguous, one row per outcome).  2 B^T diag(b) B, row mu of B
    that view of u_mu w_mu^T, is formed as S^T S, S = B scaled by
    sqrt(2 b): one symmetric Gram product, which needs b >= 0 (a scalar or
    one entry per outcome).  The real form of M = c I + U diag(a) U^dag is
    then added in place to each of the r diagonal blocks, one per column."""
    d, r = ut.shape[1], w.shape[1]
    ws = w * np.sqrt(2.0 * b)[..., None]
    s = (ws[:, :, None] * ut[:, None, :]).view(float).reshape(len(w), -1)
    h = s.T @ s
    m = (ut.T * a) @ ut.conj()
    block = np.empty((d, 2, d, 2))  # rows (i, re/im) on columns (k, re/im)
    block[:, 0, :, 0] = block[:, 1, :, 1] = m.real
    block[:, 0, :, 1] = -m.imag
    block[:, 1, :, 0] = m.imag
    block = block.reshape(2 * d, 2 * d)
    block.flat[:: 2 * d + 1] += c
    blocks = h.reshape(r, 2 * d, r, 2 * d)
    for j in range(r):
        blocks[j, :, j] += block
    return h


def _polish(u, x, r, c, loss, finish):
    """Damped Newton on the face of rank r, from the top-r eigenpairs of x.

    Minimises a loss G(V) of q = A[VV^dag] = |U^dag V|^2 summed over
    columns (U: one basis vector per outcome) plus c tr VV^dag, over V in
    C^{d x r}.  loss(q) returns (a, b, change), or None outside G's domain;
    b >= 0, a scalar or one entry per outcome (least squares b = 1,
    trace-min b = mu > 0, maximum likelihood b = f/q^2), as the dense
    Hessian's Gram product takes its square root (_hess_matrix).
    With W = U^dag V, half the gradient is c V + U(a W), and half the
    Hessian on Delta is c Delta + U(a Z + b dq W), Z = U^dag Delta and
    dq = 2 Re sum_j conj(W) Z, the change of q along Delta.  W is carried
    between steps: a step V + t dV takes W + t Z, Z = U^dag dV being formed
    for the Newton point anyway.  On faces with
    V.size <= _DENSE_SIZE the step is the exact Newton step on the dense
    real Hessian (_hess_matrix), one LAPACK solve, with truncated CG on the
    same matrix where that step is refused (_dense_newton); larger faces
    take truncated CG on the matrix-free product (_newton_cg on
    _hess_product, at most 2 V.size products, the system's real
    dimension).  The step length halves until G falls by an Armijo
    fraction, its data part taken as change(dq) in difference form (inf
    outside the domain).

    At every point V, the first included, with dV its Newton step and
    dec = -<grad G, dV> the Newton decrement, the attempt ends on
    finish(V + dV, q(V + dV), dV, dec, newton) when that is not None:
    finish tests its gate on dV and dec, at V, and its certificate at the
    Newton point V + dV, and returns the solver's point (X, A[X],
    stop_reason, ...).  No Hessian is formed at the Newton point itself.
    newton(rhs) solves the system that gave dV for another right-hand side
    by the same method, -H^-1 rhs.  Returns (point, steps), steps counting the step to
    the Newton point, or (None, steps) when there is none within
    _NEWTON_STEPS steps or the line search finds no descent.
    """
    lam, vecs = np.linalg.eigh(x)
    v = vecs[:, -r:] * np.sqrt(np.maximum(lam[-r:], 0.0))
    ut = np.ascontiguousarray(u.T)
    uh = ut.conj()
    w = uh @ v
    steps = 0
    while True:
        q = (w.real**2 + w.imag**2).sum(axis=1)
        model = loss(q)
        if model is None:
            break
        a, b, change = model
        g = c * v + u @ (a[:, None] * w)  # half the gradient
        if v.size <= _DENSE_SIZE:
            h = _hess_matrix(ut, w, c, a, b)

            def newton(rhs, h=h):  # h on Delta's columns in turn
                return _dense_newton(h, rhs.T.copy().view(float).ravel()).view(complex).reshape(r, -1).T
        else:
            hess = _hess_product(ut, w, c, a, b)

            def newton(rhs, hess=hess):
                return _newton_cg(hess, rhs)
        dv = newton(g)
        dec = -2.0 * np.vdot(g, dv).real
        z = uh @ dv
        wn = w + z
        point = finish(v + dv, (wn.real**2 + wn.imag**2).sum(axis=1), dv, dec, newton)
        if point is not None:
            return point, steps + 1
        if steps == _NEWTON_STEPS:
            break
        wz = 2.0 * (w.real * z.real + w.imag * z.imag).sum(axis=1)
        zz = (z.real**2 + z.imag**2).sum(axis=1)
        vd, dd = 2.0 * np.vdot(v, dv).real, np.vdot(dv, dv).real
        t = 1.0
        while t > 1e-10:
            if c * (t * (vd + t * dd)) + change(t * (wz + t * zz)) <= -1e-4 * t * dec:
                break
            t *= 0.5
        else:
            break  # no descent along dv
        steps += 1
        v = v + t * dv
        w = w + t * z
    return None, steps


def estimate_max_likelihood(
    povm: PovmMap, record: MeasurementRecord, spec: EstimatorSpec | None = None, *, start=None
) -> EstimateResult:
    """Maximum likelihood over unit-trace PSD matrices.

    Accelerated projected gradient (Shang, Zhang and Ng, PRA 95, 062336
    (2017)) with a backtracking step on -ll(rho) = -sum_mu f_mu log q_mu
    for unit-sum frequencies f, whose domain is q_mu > 0 on the observed
    outcomes: a change that leaves it counts as +inf, so the backtracking
    never crosses its boundary, and a momentum point outside it restarts
    from the iterate.  ll has gradient R = sum_mu (f_mu / q_mu) Pi_mu, and
    concavity gives ll* - ll(rho) <= lambda_max(R) - 1: the solver stops
    when that gap is at most tol.  R is formed and its eigh taken only when
    the Rayleigh quotient of the last top eigenvector v, sum_mu (f_mu / q_mu)
    |<b_mu|v>|^2 <= lambda_max(R), does not already exceed 1 + tol; far from
    the optimum it does, and that test costs one product with U.  The
    backtracking multiplies lip by 0.9 before each step and doubles it on a
    failed test.  Halving it each step made most steps clip twice.  It must
    still fall: a lip that never does keeps the value of a steep stretch,
    and the k=2 solve of the seed-13 d=11 protocol target then runs to
    max_iterations.  The backtracking and
    restart tests take each change of ll as -sum_mu f_mu log1p(delta_mu /
    q_mu), delta being the mapped step, so they stay exact where ll itself
    stops changing in float64.
    objective_trace holds ll, non-decreasing, accumulated from those changes.

    The iterates find the optimum's face long before the certificate, so
    _fista runs the face polish (_polish) on G(V) = -sum f log q(VV^dag) +
    tr VV^dag over the observed outcomes: c = 1, a = -f/q, b = f/q^2.  For
    unit-sum f the minimiser of G over the PSD cone has trace 1 and is the
    MLE.  Its gate is the Newton decrement <= 1e-3 tol, so G is within
    about 1e-3 tol of its face minimum, then the certificate must hold at
    rho = VV^dag / tr, V the Newton-updated factor (_polish); rho ends the
    solve, still as "duality_gap", when its
    ll is no lower than the iterate's (one more entry in objective_trace).
    iterations counts gradient steps plus Newton steps.

    The iteration starts from start / tr start (start checked by _start),
    for example the least-squares estimate of the same record, or from I/d
    when start is None, has trace <= 0, or maps to q_mu <= 0 on an observed
    outcome.  A start is polished before any gradient step: one attempt on
    its face, at the rank QuantumState.rank counts (eigenvalues above
    DEFAULT.rank_cut), and if that attempt does not end the solve the
    iteration runs from the same start.  Where the maximiser is not unique
    (below completeness) the estimate depends on the start.
    """
    spec = spec or EstimatorSpec()
    tol = spec.tol("max_likelihood")
    if np.min(record.values) < 0:
        raise ValueError("max_likelihood requires nonnegative record entries")
    prob = _Problem(povm, record)
    ft = prob.f / prob.f.sum()
    mask = ft > 0
    fm = ft[mask]

    def dphi(ax):  # -f/q on observed outcomes (the gradient is -R), None outside the domain
        a = ax[mask]
        if not a.min() > 0:
            return None
        w = np.zeros_like(ft)
        w[mask] = -fm / a
        return w

    u = povm._u[:, mask]  # observed |b_mu>
    x0 = _start(start, prob.d)
    tr = 0.0 if x0 is None else float(np.trace(x0).real)
    x0 = x0 / tr if tr > 0 and prob.apply(x0)[mask].min() > 0 else None  # I/d outside ll's domain
    r0 = 0 if x0 is None else int(np.sum(np.linalg.eigvalsh(x0) > DEFAULT.rank_cut))  # QuantumState.rank

    def loss(q):
        if not q.min() > 0:
            return None
        s = fm / q
        return -s, s / q, lambda dq: (
            -float(fm @ np.log1p(dq / q)) if np.all(dq > -q) else np.inf)

    def finish(v, q, dv, dec, newton):
        if dec > 1e-3 * tol or not q.min() > 0:
            return None
        t = np.vdot(v, v).real
        if t * np.linalg.eigvalsh((u * (fm / q)) @ u.conj().T)[-1] - 1.0 <= tol:
            aq = np.zeros_like(ft)  # the image on every outcome, 0 where unobserved
            aq[mask] = q / t
            return hermitize(v @ v.conj().T) / t, aq, "duality_gap"
        return None

    def descend(p, g, lip):
        return psd_clip(p - g / lip, 1.0, np.inf, True)

    top = None  # top eigenvector of the last R formed

    def gap_stop(it, x, ax, fx, chg, move):
        nonlocal top
        if top is not None:
            z = top.conj() @ u
            if (fm / ax[mask]) @ (z.real**2 + z.imag**2) - 1.0 > tol:
                return None  # <top, R top> <= lambda_max(R): no certificate
        lam, vecs = np.linalg.eigh(-prob.adjoint(dphi(ax)))
        top = vecs[:, -1]
        if lam[-1] - 1.0 <= tol:
            return True, "duality_gap"
        return None

    def polish(x, r):
        return _polish(u, x, r, 1.0, loss, finish)

    def change(a, delta):  # phi(a + delta) - phi(a) from a in phi's domain; inf outside it
        a, delta = a[mask], delta[mask]
        if not np.all(delta > -a):
            return np.inf
        return -float(fm @ np.log1p(delta / a))

    x, it, trace, conv, reason = _fista(
        prob.d, spec.max_iterations, prob.apply, prob.adjoint,
        lambda ax: -float(fm @ np.log(ax[mask])), dphi,
        descend, 1.0, gap_stop, polish, change, x0, r0,
    )
    return _result("max_likelihood", prob, x, it, conv, -np.asarray(trace), reason)
