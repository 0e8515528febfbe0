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
# steps they save.  An attempt's Newton systems are dense real Hessians of
# (2 dim r)^2 entries (_polish), so _fista polishes no face of more than
# _FACE_SIZE entries (dim r), and the solve of a larger face takes gradient
# steps alone.  One protocol run (k = 1..10, one BLAS thread, process CPU)
# at bounds of 128 / 256 / 512 entries / none: d = 16 (3 targets, seed 5)
# 1.89 / 1.73 / 1.74 s, every face fitting from 256 on; d = 32 (seed 11)
# 2.84 / 2.22 / 2.40 / 2.75 s; d = 64 (seed 11) 15.5 / 9.0 / 8.9 / 32.7 s,
# peak RSS 54 / 55 / 70 / 281 MB.  At 128, 2 of the 10 d = 64 trace-min
# solves ran to max_iterations; with no bound the d = 64 faces reached 1,920
# entries.  d = 11 faces (at most 121 entries) are polished at every bound
_RANK_WINDOW = 5
_NEWTON_STEPS = 30
_FACE_SIZE = 256


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
        self.povm = povm

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.povm.projector_values(x) - self.f))


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


def _fista(povm, max_iterations, phi, dphi, descend, lip, stop, polish, change=None, x0=None,
           v0=None):
    """Accelerated projected gradient with function-value restart on
    phi(A[X]), A = povm.projector_values, from x0, or I/d when x0 is None;
    x0's image must lie in phi's domain.  Steps x+ = descend(p, G, lip),
    G = A^dag(dphi(A[p])), a projected gradient step of length about 1/lip
    that returns (x+, F) with x+ = F F^dag to rounding (psd_clip's factor),
    the rank of x+ being F.shape[1].

    Iterates carry their image ax = A[x]; the momentum point's image follows
    by linearity, so a trial step costs one adjoint, one projection and the
    image of x+.  Without change, lip is fixed, the image is taken from the
    factor, A[x+] = sum_j |U^dag F_j|^2 in d m r work against d^2 m for a
    dense map, and objective values are phi of each image.  With change(a,
    delta) = phi(a + delta) - phi(a), computed without the cancellation of
    two phi values, the trial image is A[p] + A[x+ - p], one dense map of
    the step, so objective changes near the optimum are not lost to the
    rounding of two separately mapped images; the recorded objective
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

    When stop returns None, the face polish runs once the rank of x, that
    of its factor F from descend (never cut lower; a kept iterate carries
    none), has held for the window, _RANK_WINDOW steps doubled per attempt
    so failures take a bounded share of a long solve: polish(F) returns
    (point, Newton steps), point being (X, A[X], stop_reason) or None.
    The point ends the run, converged and with one more objective entry,
    if its objective is no higher than the iterate's.  A point with image None, trace-min's,
    whose multiplier moved off the run's and so has no comparable
    objective, ends the run on its certificate alone, its entry repeating
    the iterate's objective.  v0, when given, is a factor of x0: then,
    unless stop's first check already ends the run, one attempt from v0
    comes before any step, and the run goes on from x0 as above if that
    attempt does not end it.  An attempt from a factor of more than
    _FACE_SIZE entries ends at once without a polish, so there the run
    takes gradient steps alone, to the same stop tests; polish=None does
    so at every rank.
    Returns (X, iterations, objective_trace, converged, stop_reason),
    iterations counting gradient steps plus every attempt's Newton steps.
    """
    apply, uh = povm.projector_values, povm._uc.T

    def step(p, ap):
        nonlocal lip
        grad = dphi(ap)
        if grad is None:
            return None  # p's image lies outside phi's domain
        g = povm.adjoint_projectors(grad)
        if not change:
            xn, fac = descend(p, g, lip)
            w = (uh @ fac).view(float)  # row mu: Re and Im of <u_mu|F_j> over j
            return xn, np.einsum("ij,ij->i", w, w), fac
        lip *= 0.9
        while True:
            xn, fac = descend(p, g, lip)
            dx = xn - p
            dax = apply(dx)
            if change(ap, dax) <= np.vdot(g, dx).real + 0.5 * lip * np.vdot(dx, dx).real:
                return xn, ap + dax, fac
            lip *= 2.0

    def rise(axn):  # (phi(axn), phi(axn) - phi(ax))
        if not change:
            fn = phi(axn)
            return fn, fn - fx
        up = change(ax, axn - ax)
        return fx + up, up

    def attempt(v):  # a polish from x's factor v: (True, stop_reason) if its point ends the run
        nonlocal x, newton
        if v.size > _FACE_SIZE:
            return None
        point, steps = polish(v)
        newton += steps
        if point is not None:
            fn, up = (fx, 0.0) if point[1] is None else rise(point[1])
            if up <= 0:
                x = point[0]
                trace.append(fn)
                return True, point[2]
        return None

    y = x = np.eye(povm.dim, dtype=complex) / povm.dim if x0 is None else x0
    ay = ax = apply(x)
    t = 1.0
    fx = phi(ax)
    trace = [fx]
    it = rank = since = newton = 0
    done = stop(0, x, ax, fx, np.inf, np.inf) or (attempt(v0) if polish and v0 is not None else None)
    window = _RANK_WINDOW
    while not done and it < max_iterations:
        it += 1
        trial = step(y, ay)
        if trial:
            xn, axn, fac = trial
            fn, up = rise(axn)
        if not trial or up > 0:
            # restart: drop momentum, plain gradient step from x
            t = 1.0
            xn, axn, fac = step(x, ax)
            fn, up = rise(axn)
            if change and up > 0:  # a rounding-level step: keep x
                xn, axn, fn, fac = x, ax, fx, None
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / tn
        dx = xn - x
        y = xn + beta * dx
        ay = axn + beta * (axn - ax)
        move = _fro(dx)
        chg = fx - fn
        x, ax, fx, t = xn, axn, fn, tn
        trace.append(fx)
        done = stop(it, x, ax, fx, chg, move)
        if done or not polish or fac is None:
            continue
        if fac.shape[1] != rank:
            rank, since = fac.shape[1], it
        elif rank and it - since >= window:
            since, window = it, 2 * window
            done = attempt(fac)
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

    _fista also runs the face polish (_polish) on G(V) = 0.5 ||q - f||^2,
    _square_loss(f).  The gate is FISTA's in Newton terms, half the
    decrement <= tol G or a Newton step that moves X by <= tol max(1, ||X||)
    (100x finer: it is the whole estimated distance to the face minimum);
    then the certificate must hold at the Newton point X = VV^dag, V the
    Newton-updated factor (_polish).  A caller's stop, or a
    noiseless record, runs gradient steps alone: there the clip keeps a face
    wider than the optimum's rank, Newton shrinks the surplus columns of V
    only geometrically, and a polish would certify a surplus eigenvalue of
    ~1e-9 that the clip sets to 0.  A caller's polish(v) runs in place
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
        pg = lip * _fro(x - psd_clip(x - prob.povm.adjoint_projectors(dphi(ax)) / lip))
        return pg <= 10 * tol * lip * max(1.0, _fro(x))

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

    def face_polish(v):
        return _polish(prob.povm._u, v, _square_loss(f), finish)

    return _fista(prob.povm, spec.max_iterations, phi, dphi, descend, lip0, stop or pg_stop,
                  polish or (None if stop or prob.noiseless else face_polish), x0=x0)


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
    the penalised form at mu = 1/(ks), which is mu times least squares'
    loss on f - s 1: _square_loss(f - s), with the gate mu times its
    Newton decrement <= 1e-3 tol max(1, tr X).  The same _secant, each
    point a polish started from the iterate's factor or from the last
    polished point's V, moves mu until |g| <= 1e-10, but by Newton steps
    in t = log s = -log(k mu): each polished point carries the exact slope
    dg/dt = -mu <q - f, dq/dmu> / ||q - f||^2, with mu dq/dmu the image of
    mu dV/dmu = -H^-1 U((q - f) W), one more solve with the least-squares
    face Hessian H of the attempt's last step (_dense_newton's rule, so
    -U((q - f) W) where that system is refused).
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
            u = u / (1.0 + max(0.0, -np.linalg.eigvalsh(povm.adjoint_projectors(u) + np.eye(prob.d))[0]))
            tr = float(np.trace(x).real)
            return 0.0 if tr + float(u @ f) + eps * float(np.linalg.norm(u)) <= tol * max(1.0, tr) else None

        def finish(v, q, dv, dec, newton):
            if mu * dec > 1e-3 * tol * max(1.0, np.vdot(v, v).real):
                return None
            return hermitize(v @ v.conj().T), q, "duality_gap", v, lambda: slope(v, q, newton)

        def slope(v, q, newton):  # dg/dt at the face minimum: mu dV/dmu = -H^-1 U((q - f) W), dmu/dt = -mu
            e = q - f
            w = uh @ v
            z = uh @ newton(u @ (e[:, None] * w))
            return -2.0 * float(e @ (w.real * z.real + w.imag * z.imag).sum(axis=1)) / float(e @ e)

        def polish(v):
            steps, point = 0, (None, None, None, v)  # a point's V starts the next one

            def g_at(t):
                nonlocal mu, steps, point
                mu = math.exp(-t) / k
                point, n = _polish(u, point[3], _square_loss(f - math.exp(t)), finish)
                steps += n
                g = None if point is None else measure(*point[:2])
                return None if g is None else (g, point[4]() if g else None)

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
            g = measure(x, povm.projector_values(x))
            return None if g is None else (g, None)

        conv = _secant(g_at, math.log(shift)) is not None
        reason = "duality_gap" if conv else "max_iterations"
    gap = prob.residual(x) - eps
    if gap > max(1e-7, 1e-6 * float(np.linalg.norm(f))):
        raise Infeasible(f"ball constraint violated by {gap:.3e} at termination")
    return _result("trace_min", prob, x, iterations, conv, trace, reason)


def _square_loss(f):
    """_polish's loss for 0.5 ||q - f||^2: (q - f, 1, change), change(dq)
    being its change along dq in difference form."""

    def loss(q):
        e = q - f
        return e, 1.0, lambda dq: float(e @ dq + 0.5 * (dq @ dq))

    return loss


def _dense_newton(h, g):
    """The exact Newton step d = -h^-1 g on a dense real h, one LAPACK
    solve: the step of every face system of _polish.  Face Hessians are
    near-singular along the gauge V -> VQ and at times slightly
    indefinite, so where h is singular, or its step is not a descent
    direction (not <g, d> < 0, NaN included), the step is -g, the plain
    gradient step, which _polish's line search damps."""
    try:
        d = np.linalg.solve(h, -g)
    except np.linalg.LinAlgError:
        return -g
    return d if g @ d < 0 else -g


def _hess_matrix(ut, w, a, b):
    """Half the Hessian of _polish's G at V, W = U^dag V, as a dense real
    symmetric matrix on the real view of Delta in C^{d x r} taken column
    by column, Delta.T.view(float).ravel(), from ut = U^T (C-contiguous,
    one row per outcome).  2 B^T diag(b) B, row mu of B that view of
    u_mu w_mu^T, is formed as S^T S, S = B scaled by sqrt(2 b): one
    symmetric Gram product, which needs b >= 0 (a scalar or one entry per
    outcome).  The real form of M = U diag(a) U^dag is then added in place
    to each of the r diagonal blocks, one per column."""
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
    blocks = h.reshape(r, 2 * d, r, 2 * d)
    for j in range(r):
        blocks[j, :, j] += block
    return h


def _polish(u, v, loss, finish):
    """Damped Newton on the face X = VV^dag of rank r, from V = v (d x r).

    Minimises a loss G(V) of the image alone, q = A[VV^dag] = |U^dag V|^2
    summed over columns (U: one basis vector per outcome of k bases), over
    V in C^{d x r}.  loss(q) returns (a, b, change), a = dG/dq, b =
    d^2G/dq^2 >= 0 (a scalar or one entry per outcome: _hess_matrix takes
    its square root) and change(dq) = G(q + dq) - G(q) in difference form
    (inf outside G's domain), or None outside it.  The k bases sum to k I,
    so a trace term, tr VV^dag = sum q / k, adds 1/k to a and sum dq / k
    to change.  With W = U^dag V, half the gradient is U(a W), and half
    the Hessian on Delta is U(a Z + b dq W), Z = U^dag Delta and dq = 2 Re
    sum_j conj(W) Z, the change of q along Delta.  W is carried between
    steps: a step V + t dV takes W + t Z, Z = U^dag dV being formed for
    the Newton point anyway.  The step is the exact Newton step on the
    dense real Hessian (_hess_matrix), one LAPACK solve, or minus half the
    gradient where that step is refused (_dense_newton).  That matrix has
    (2 V.size)^2 entries, so _fista polishes no face of more than
    _FACE_SIZE entries.  The step length halves until change(dq) shows an
    Armijo fall of G.  Whatever the step, each program's finish tests its
    own certificate at the point it returns.

    At every point V, the first included, with dV its Newton step and
    dec = -<grad G, dV> the Newton decrement, the attempt ends on
    finish(V + dV, q(V + dV), dV, dec, newton) when that is not None:
    finish tests its gate on dV and dec, at V, and its certificate at the
    Newton point V + dV, and returns the solver's point (X, A[X],
    stop_reason, ...).  No Hessian is formed at the Newton point itself.
    newton(rhs) solves the system that gave dV for another right-hand side
    by the same rule, -H^-1 rhs or -rhs.  Returns (point, steps), steps
    counting the step to the Newton point, or (None, steps) when there is
    none within _NEWTON_STEPS steps, the line search finds no descent or
    loss finds a point outside its domain.
    """
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
        g = u @ (a[:, None] * w)  # half the gradient
        h = _hess_matrix(ut, w, a, b)

        def newton(rhs, h=h):  # h on Delta's columns in turn
            return _dense_newton(h, rhs.T.copy().view(float).ravel()).view(complex).reshape(rhs.shape[::-1]).T
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
        t = 1.0
        while t > 1e-10:
            if change(t * (wz + t * zz)) <= -1e-4 * t * dec:
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
    tr VV^dag over every outcome, from the gradient core's pieces: a =
    dphi(q) + 1/k, b = dphi(q)^2 / f (0 where f = 0) and change(q, dq) +
    sum dq / k.  For unit-sum f the minimiser of G over the PSD cone has
    trace 1 and is the MLE.  Its gate is the Newton decrement <= 1e-3 tol,
    then the stop's certificate, gap (one eigh of R), must hold at rho =
    VV^dag / tr, V the Newton-updated factor (_polish); rho and its image
    q / tr end the solve, still as "duality_gap", when its ll is no lower
    than the iterate's (one more entry in objective_trace).
    iterations counts gradient steps plus Newton steps.

    The iteration starts from start / tr start (start checked by _start),
    for example the least-squares estimate of the same record, or from I/d
    when start is None, has trace <= 0, or maps to q_mu <= 0 on an observed
    outcome.  A start is polished before any gradient step: one attempt
    from its factor, the eigenpairs of one eigh of the normalised start
    whose eigenvalues exceed DEFAULT.rank_cut (the rank QuantumState.rank
    counts), and if that attempt does not end the solve the iteration runs
    from the same start.  Where the maximiser is not unique
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

    u, k = povm._u, povm.n_bases
    x0 = _start(start, prob.d)
    tr = 0.0 if x0 is None else float(np.trace(x0).real)
    x0 = x0 / tr if tr > 0 and povm.projector_values(x0)[mask].min() > 0 else None  # I/d outside ll's domain
    v0 = None
    if x0 is not None:  # x0's factor, cut where QuantumState.rank cuts
        lam, vecs = np.linalg.eigh(x0)
        keep = lam > DEFAULT.rank_cut
        v0 = vecs[:, keep] * np.sqrt(lam[keep])

    def loss(q):  # -ll + tr VV^dag, the trace as 1/k on every outcome
        s = dphi(q)
        if s is None:
            return None
        b = np.zeros_like(ft)
        b[mask] = s[mask] ** 2 / fm
        return s + 1.0 / k, b, lambda dq: change(q, dq) + dq.sum() / k

    def finish(v, q, dv, dec, newton):
        t = np.vdot(v, v).real
        if dec > 1e-3 * tol or dphi(q) is None or gap(q / t)[0] > tol:
            return None
        return hermitize(v @ v.conj().T) / t, q / t, "duality_gap"

    def descend(p, g, lip):
        return psd_clip(p - g / lip, 1.0, np.inf, True)

    def gap(ax):  # (lambda_max(R) - 1, R's top eigenvector), R = -A^dag(dphi(ax)), one eigh
        lam, vecs = np.linalg.eigh(-povm.adjoint_projectors(dphi(ax)))
        return lam[-1] - 1.0, vecs[:, -1]

    top = None  # top eigenvector of the last R formed

    def gap_stop(it, x, ax, fx, chg, move):
        nonlocal top
        if top is not None:
            z = top.conj() @ u
            if -dphi(ax) @ (z.real**2 + z.imag**2) - 1.0 > tol:
                return None  # <top, R top> <= lambda_max(R): no certificate
        lam, top = gap(ax)
        return (True, "duality_gap") if lam <= tol else None

    def polish(v):
        return _polish(u, v, loss, finish)

    def change(a, delta):  # phi(a + delta) - phi(a) from a in phi's domain; inf outside it
        a, delta = a[mask], delta[mask]
        if not np.all(delta > -a):
            return np.inf
        return -float(fm @ np.log1p(delta / a))

    x, it, trace, conv, reason = _fista(
        povm, spec.max_iterations, lambda ax: -float(fm @ np.log(ax[mask])), dphi,
        descend, 1.0, gap_stop, polish, change, x0, v0,
    )
    return _result("max_likelihood", prob, x, it, conv, -np.asarray(trace), reason)
