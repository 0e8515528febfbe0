import numpy as np
import pytest

from strictqst import estimators, experiments
from strictqst.errors import DimensionMismatch, Infeasible, NotHermitian
from strictqst.linalg import psd_clip
from strictqst.estimators import (
    EstimatorSpec,
    estimate_least_squares,
    estimate_max_likelihood,
    estimate_trace_min,
    feasibility,
)
from strictqst.experiments import NoisyProtocolConfig, run_noisy_protocol
from strictqst.measurement import (
    BasisSet,
    MeasurementRecord,
    PovmMap,
    noiseless_record,
    povm_from_bases,
    sample_record,
)
from strictqst.quantum import (
    QuantumState,
    StateModel,
    global_random_bases,
    infidelity,
    random_full_rank_state,
    random_pure_state,
    random_rank_r_state,
)

from conftest import make_noiseless_problem, no_polish
from oracles import ls_oracle, mle_oracle, shifted_ls_step, trace_min_oracle
import properties


def track_polish(monkeypatch, rank=None):
    """Wrap the face polish, optionally at a fixed rank, and record its
    Newton systems; the returned list collects (certified, Newton steps,
    systems) for each attempt.  systems has one entry per solve: "solve"
    for a dense LAPACK solve (_dense_newton), else the CG products that
    _newton_cg took, so a dense system whose exact step is refused shows as
    "solve" followed by the products of its CG fallback."""
    attempts, systems = [], []
    polish, newton_cg, dense_newton = estimators._polish, estimators._newton_cg, estimators._dense_newton

    def counted_cg(hess, g):
        systems.append(0)
        at = len(systems) - 1

        def counted(p):
            systems[at] += 1
            return hess(p)

        return newton_cg(counted, g)

    def counted_dense(h, g):
        systems.append("solve")
        return dense_newton(h, g)

    def tracked(u, x, r, *args):
        systems.clear()
        point, steps = polish(u, x, rank or r, *args)
        attempts.append((point is not None, steps, tuple(systems)))
        return point, steps

    monkeypatch.setattr(estimators, "_polish", tracked)
    monkeypatch.setattr(estimators, "_newton_cg", counted_cg)
    monkeypatch.setattr(estimators, "_dense_newton", counted_dense)
    return attempts


class TestEstimatorSpec:
    def test_defaults_per_kind(self):
        spec = EstimatorSpec()
        assert spec.tol("least_squares") == 1e-10
        assert spec.tol("trace_min") == 1e-8
        assert spec.tol("max_likelihood") == 1e-7
        for method in ("least_squares", "trace_min", "max_likelihood"):
            assert EstimatorSpec(convergence_tol=1e-3).tol(method) == 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorSpec(noise_bound=-0.1)
        for bound in (np.nan, np.inf):
            with pytest.raises(ValueError):
                EstimatorSpec(noise_bound=bound)
        for tol in (np.nan, 0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                EstimatorSpec(convergence_tol=tol)
        for budget in (np.nan, 2.5):
            with pytest.raises(ValueError):
                EstimatorSpec(max_iterations=budget)
        # bool is an int subclass: True must not read as 1
        for field in ("max_iterations", "convergence_tol", "noise_bound"):
            for flag in (True, False):
                with pytest.raises(ValueError, match=field):
                    EstimatorSpec(**{field: flag})


class TestLeastSquares:
    def test_reference_reconstruction(self):
        # rank-1 state at d=11 from 6 random bases: strictly complete design
        state, povm, rec = make_noiseless_problem(11, 6, seed=42)
        res = estimate_least_squares(povm, rec)
        assert infidelity(state, res.rho_hat) <= 1e-5
        assert res.converged

    def test_single_basis_feasible_point_reproduces_record(self, rng):
        d = 4
        povm = povm_from_bases(global_random_bases(d, 1, rng))
        rec = noiseless_record(povm, QuantumState(np.eye(d, dtype=complex) / d))
        res = estimate_least_squares(povm, rec)
        assert res.residual <= 1e-10
        assert np.allclose(povm.projector_values(res.X_hat), rec.values, atol=1e-9)

    def test_objective_matches_oracle_value(self):
        # d=3 with 2 bases: the minimizer set is typically a continuum, but
        # the optimal objective value is unique
        state, povm, rec = make_noiseless_problem(3, 2, seed=1)
        res = estimate_least_squares(povm, rec)
        _, best_val, _ = ls_oracle(povm, rec.values, seed=1, n_starts=8)
        mine = 0.5 * res.residual**2
        assert mine <= best_val + 1e-10

    def test_matches_oracle_point_when_unique(self):
        # informationally complete design: unique minimizer, point match
        for seed in (0, 1):
            state, povm, rec = make_noiseless_problem(3, 4, seed=seed)
            best, _, solutions = ls_oracle(povm, rec.values, seed=seed, n_starts=6)
            spread = max(
                np.linalg.norm(a - b) for i, a in enumerate(solutions) for b in solutions[i + 1 :]
            )
            assert spread < 1e-5, "oracle starts disagree; uniqueness guard failed"
            res = estimate_least_squares(povm, rec)
            assert np.linalg.norm(res.X_hat - best) < 1e-6

    def test_optimality_certificate(self, rng):
        # projected gradient norm <= 10 * tol * L at convergence
        for seed in range(5):
            gen = np.random.default_rng(seed)
            d, k = 5, 3
            state = random_pure_state(d, gen)
            povm = povm_from_bases(global_random_bases(d, k, gen))
            rec = sample_record(povm, state, 400, gen)
            spec = EstimatorSpec()
            res = estimate_least_squares(povm, rec, spec)
            assert res.converged
            lip = povm.n_bases
            grad = povm.adjoint_projectors(povm.projector_values(res.X_hat) - rec.values)
            pg = lip * np.linalg.norm(res.X_hat - psd_clip(res.X_hat - grad / lip))
            assert pg <= 10 * spec.tol("least_squares") * lip * max(1.0, np.linalg.norm(res.X_hat))

    def test_objective_trace_non_increasing(self):
        state, povm, rec = make_noiseless_problem(5, 3, seed=3)
        res = estimate_least_squares(povm, rec)
        assert np.all(np.diff(res.objective_trace) <= 1e-15)

    def test_normalization(self):
        state, povm, rec = make_noiseless_problem(6, 5, seed=2)
        res = estimate_least_squares(povm, rec)
        assert abs(np.trace(res.rho_hat.rho).real - 1.0) <= 1e-10
        # noiseless strictly-complete data: X_hat itself is normalized
        assert abs(np.trace(res.X_hat).real - 1.0) <= 1e-6

    def test_anchored_step_matches_shifted_reference(self, monkeypatch, rng):
        # the solver's one-call step against the shift-then-clip form, on
        # random designs including k = 1 and a repeated basis (L0 = k: the
        # plain step 1/k), from iterates whose step is and is not PSD; the
        # iterate's trace is off 1, so the gradient has a trace
        steps = []

        def capture(d, max_iterations, apply, adjoint, phi, dphi, descend, lip, stop, polish, x0=None):
            steps.append((descend, lip))
            return np.eye(d) / d, 0, [0.0], True, ""

        monkeypatch.setattr(estimators, "_fista", capture)
        designs = [global_random_bases(d, k, rng) for d in (2, 5, 11) for k in (1, 2, 3, 5)]
        basis = global_random_bases(4, 1, rng).bases[0]
        designs.append(BasisSet(dim=4, bases=(basis,) * 3))
        for bases in designs:
            povm = povm_from_bases(bases)
            d, k = povm.dim, povm.n_bases
            p = 1.3 * random_full_rank_state(d, rng).rho
            rec = noiseless_record(povm, random_pure_state(d, rng))
            estimate_least_squares(povm, rec)
            descend, lip0 = steps.pop()
            assert lip0 == povm.traceless_lipschitz
            for scale in (1e-3, 1.0, 30.0):
                g = scale * povm.adjoint_projectors(povm.projector_values(p) - rec.values)
                want = shifted_ls_step(p, g, k, lip0)
                got, _ = descend(p, g, lip0)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestHeldCertificateExit:
    @staticmethod
    def default_stop(monkeypatch, povm, rec):
        """The default least-squares stop callable, built for (povm, rec)."""
        captured = []

        def capture(*args, **kw):
            captured.append(args[8])

        monkeypatch.setattr(estimators, "_fista", capture)
        estimators._least_squares(estimators._Problem(povm, rec), EstimatorSpec())
        return captured[0]

    def test_stalled_noiseless_solve_ends_on_held_certificate(self):
        # state 2 at k=4 of run_completeness_sweep(SweepConfig(dims=(16,),
        # states_per_cell=4, seed=6)), drawn as _run_sweep_cell draws it:
        # f falls towards 0 so slowly that the gate stays shut for all
        # 20,000 iterations (found by a search over seeds 0..29 that read
        # SweepCell.stop_reasons); the face polish is held off, so the exit
        # itself is what ends the solve
        cell_seq = np.random.SeedSequence(6).spawn(1)[0]
        bases_rng = np.random.default_rng(cell_seq)
        state = random_pure_state(16, np.random.default_rng(cell_seq.spawn(4)[2]))
        povm = povm_from_bases(global_random_bases(16, 4, bases_rng))
        rec = noiseless_record(povm, state)
        spec = EstimatorSpec()
        with no_polish():
            res = estimate_least_squares(povm, rec, spec)
        assert res.stop_reason == "projected_gradient_held" and res.converged
        assert res.iterations < spec.max_iterations
        lip = povm.n_bases
        grad = povm.adjoint_projectors(povm.projector_values(res.X_hat) - rec.values)
        pg = lip * np.linalg.norm(res.X_hat - psd_clip(res.X_hat - grad / lip))
        assert pg <= 10 * spec.tol("least_squares") * lip * max(1.0, np.linalg.norm(res.X_hat))

    def test_lapsed_certificate_restarts_the_window(self, monkeypatch):
        # drive the stop directly: the exact state certifies (zero gradient),
        # I/d does not; objective change and step stay large, so the gate
        # never opens and only the held exit can end the solve
        state, povm, rec = make_noiseless_problem(4, 6, seed=0)
        held = (state.rho, povm.projector_values(state.rho))
        lapsed = (np.eye(4) / 4, povm.projector_values(np.eye(4) / 4))
        every, window = estimators._HELD_CHECK_EVERY, estimators._HELD_WINDOW

        def first_stop(lapse_at):
            stop = self.default_stop(monkeypatch, povm, rec)
            for it in range(3 * window):
                # between checks the certificate is not looked at
                x, ax = held if it % every == 0 and it != lapse_at else lapsed
                done = stop(it, x, ax, 1.0, 1.0, 1.0)
                if done:
                    return it, done
            return None

        assert first_stop(None) == (window, (True, "projected_gradient_held"))
        lapse = 10 * every
        assert first_stop(lapse) == (lapse + every + window, (True, "projected_gradient_held"))

    def test_gate_stop_comes_first(self, monkeypatch):
        state, povm, rec = make_noiseless_problem(4, 6, seed=0)
        stop = self.default_stop(monkeypatch, povm, rec)
        ax = povm.projector_values(state.rho)
        assert stop(7, state.rho, ax, 0.0, 0.0, 0.0) == (True, "projected_gradient")
        assert stop(estimators._HELD_CHECK_EVERY, state.rho, ax, 0.0, 0.0, 0.0) == (
            True, "projected_gradient")


class TestLeastSquaresPolish:
    @staticmethod
    def objective_and_certificate(povm, rec, x):
        # 0.5 ||A[X] - f||^2, and whether pg <= 10 tol L max(1, ||X||) holds
        # with L = k, as in test_optimality_certificate
        tol, lip = EstimatorSpec().tol("least_squares"), povm.n_bases
        ax = povm.projector_values(x)
        grad = povm.adjoint_projectors(ax - rec.values)
        pg = lip * np.linalg.norm(x - psd_clip(x - grad / lip))
        held = pg <= 10 * tol * lip * max(1.0, np.linalg.norm(x))
        return 0.5 * float(np.linalg.norm(ax - rec.values)) ** 2, held

    def test_polish_certified_and_no_worse_than_gradient_only(self, monkeypatch):
        # seeded survey, d 2-8, k 1-6, states of random rank, sampled and
        # noiseless records: every attempt on a sampled record certifies,
        # and the solve it ends meets the certificate with an objective at
        # most that of a gradient-only solve (no rank window opens within
        # its 150,000-step budget) plus 1e-12.  Noiseless records run
        # gradient steps alone and make no attempt
        ended = track_polish(monkeypatch)
        polished = 0
        for seed in range(60):
            gen = np.random.default_rng(seed)
            d, k = int(gen.integers(2, 9)), int(gen.integers(1, 7))
            rank = int(gen.integers(1, d + 1))
            state = random_pure_state(d, gen) if rank == 1 else random_rank_r_state(d, rank, gen)
            povm = povm_from_bases(global_random_bases(d, k, gen))
            for rec in (sample_record(povm, state, 300, gen), noiseless_record(povm, state)):
                ended.clear()
                res = estimate_least_squares(povm, rec)
                if rec.kind == "noiseless":
                    assert not ended
                    continue
                assert all(certified for certified, _, _ in ended)
                if not ended:
                    continue
                polished += 1
                assert res.converged and res.stop_reason == "projected_gradient"
                # gradient steps plus at least one Newton step; one entry for the polish
                assert res.iterations >= len(res.objective_trace) - 1
                obj, held = self.objective_and_certificate(povm, rec, res.X_hat)
                assert held
                assert np.all(np.diff(res.objective_trace) <= 1e-15)
                assert abs(res.objective_trace[-1] - obj) <= 1e-12
                with no_polish():
                    ref = estimate_least_squares(povm, rec, EstimatorSpec(max_iterations=150000))
                assert obj <= self.objective_and_certificate(povm, rec, ref.X_hat)[0] + 1e-12
        assert polished >= 47

    def test_failed_attempts_leave_the_gradient_solve_unchanged(self, monkeypatch):
        # noiseless pure states whose clip keeps a wider face than the
        # state's rank 1 (the over-parameterised case), where Newton
        # converges only linearly: noiseless records make no attempt, so
        # each solve is the gradient-only solve, bit for bit.  State 3 at
        # k=5 of the benchmark sweep cell (d=32, seed 7, drawn as
        # _run_sweep_cell draws it) keeps rank 5-7; survey seeds 23 and 141
        # (drawn as the likelihood survey draws them) keep rank 2, and there
        # a polish certified a surplus eigenvalue above the gradient-only
        # solve's infidelity
        cell_seq = np.random.SeedSequence(7).spawn(1)[0]
        bases_rng = np.random.default_rng(cell_seq)
        state = random_pure_state(32, np.random.default_rng(cell_seq.spawn(4)[3]))
        cases = [(state, povm_from_bases(global_random_bases(32, 5, bases_rng)))]
        for seed in (23, 141):
            gen = np.random.default_rng(seed)
            d, k = int(gen.integers(2, 9)), int(gen.integers(1, 7))
            state = random_pure_state(d, gen)
            cases.append((state, povm_from_bases(global_random_bases(d, k, gen))))
        attempts = track_polish(monkeypatch)
        for state, povm in cases:
            rec = noiseless_record(povm, state)
            attempts.clear()
            res = estimate_least_squares(povm, rec)
            with no_polish():
                ref = estimate_least_squares(povm, rec)
            assert not attempts
            assert res.iterations == ref.iterations
            assert np.array_equal(res.X_hat, ref.X_hat)
            assert np.array_equal(res.objective_trace, ref.objective_trace)
            assert (res.stop_reason, res.residual) == (ref.stop_reason, ref.residual)
            assert infidelity(state, res.rho_hat) <= 1e-5

    def test_protocol_k3_solve_ends_on_its_first_attempt(self, monkeypatch):
        # the k=3 solve of the bundled d=11 protocol config (seed 11), drawn
        # as _run_protocol_target draws it: the first Newton step from the
        # eigenpair start is still damped, and the attempt certifies later
        rng = np.random.default_rng(np.random.SeedSequence(11).spawn(1)[0])
        target = random_pure_state(11, rng)
        tau = random_full_rank_state(11, rng)
        sigma = StateModel(target, 1e-3, tau).realize()
        mats = []
        for _ in range(3):
            mats.append(global_random_bases(11, 1, rng).bases[0])
            povm = povm_from_bases(BasisSet(dim=11, bases=tuple(mats), kind="global"))
            rec = sample_record(povm, sigma, 3300, rng)
        attempts = track_polish(monkeypatch)
        res = estimate_least_squares(povm, rec)
        assert len(attempts) == 1 and attempts[0][0]
        assert res.converged and res.stop_reason == "projected_gradient"
        assert res.iterations < 100


class TestTraceMin:
    def test_noiseless_recovers_state(self):
        state, povm, rec = make_noiseless_problem(11, 6, seed=7)
        res = estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=0.0))
        assert infidelity(state, res.rho_hat) <= 1e-5
        assert res.converged

    def test_mixed_state_ic_trace_one(self, rng):
        d = 3
        povm = povm_from_bases(global_random_bases(d, 4, rng))
        rec = noiseless_record(povm, QuantumState(np.eye(d, dtype=complex) / d))
        res = estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=0.0))
        assert abs(np.trace(res.X_hat).real - 1.0) <= 1e-6

    def test_objective_matches_oracle(self):
        gen = np.random.default_rng(11)
        state = random_pure_state(3, gen)
        povm = povm_from_bases(global_random_bases(3, 2, gen))
        exact = noiseless_record(povm, state)
        rec = sample_record(povm, state, 2000, gen)
        eps = 1.1 * float(np.linalg.norm(rec.values - exact.values))
        res = estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=eps, convergence_tol=1e-10))
        oracle = trace_min_oracle(povm, rec.values, eps, seed=11)
        assert abs(np.trace(res.X_hat).real - np.trace(oracle).real) <= 1e-5

    def test_requires_noise_bound(self):
        state, povm, rec = make_noiseless_problem(3, 2, seed=0)
        with pytest.raises(ValueError):
            estimate_trace_min(povm, rec, EstimatorSpec())

    def test_uses_record_noise_bound(self, rng):
        d = 4
        povm = povm_from_bases(global_random_bases(d, 3, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 2000, rng)
        res = estimate_trace_min(povm, rec)  # bound comes from the record
        assert res.residual <= rec.noise_bound + 1e-7

    @staticmethod
    def count_shift_points(monkeypatch):
        """Wrap _least_squares; the returned list gets one entry per run,
        the shift it was given."""
        shifts, least_squares = [], estimators._least_squares

        def counted(prob, spec, stop=None, shift=0.0, polish=None, x0=None):
            shifts.append(shift)
            return least_squares(prob, spec, stop, shift, polish, x0)

        monkeypatch.setattr(estimators, "_least_squares", counted)
        return shifts

    def test_sampled_record_certifies_on_the_duality_gap(self, monkeypatch):
        # the face polish ends each solve: the trace is the oracle's within
        # the certified gap and the residual sits on the ball.  Each shift
        # point's least-squares run adds its objective trace, initial value
        # included, and iterations count its gradient steps plus every
        # Newton step; the polished point adds one more objective entry.
        # The d=4 seeds are those where an oracle on fixed penalties stalled
        # 0.5% inside the ball
        attempts = track_polish(monkeypatch)
        shifts = self.count_shift_points(monkeypatch)
        tol = EstimatorSpec().tol("trace_min")
        for d, seed in ((3, 0), (3, 2), (3, 4), (4, 1), (4, 5)):
            gen = np.random.default_rng(seed)
            state = random_pure_state(d, gen)
            povm = povm_from_bases(global_random_bases(d, 3, gen))
            rec = sample_record(povm, state, 1000, gen)
            attempts.clear()
            shifts.clear()
            res = estimate_trace_min(povm, rec)
            tr = np.trace(res.X_hat).real
            assert res.converged and res.stop_reason == "duality_gap"
            assert abs(res.residual / rec.noise_bound - 1) <= 1e-9
            assert shifts[0] == pytest.approx(rec.noise_bound / np.sqrt(3 * d), rel=1e-12)
            newton = sum(steps for _, steps, _ in attempts)
            assert newton and res.iterations == len(res.objective_trace) - len(shifts) - 1 + newton
            oracle = trace_min_oracle(povm, rec.values, rec.noise_bound, seed=seed)
            assert abs(tr - np.trace(oracle).real) <= tol * max(1.0, tr)

    def test_shift_loop_alone_certifies_when_every_polish_fails(self, monkeypatch):
        # every attempt fails at once: the secant on the shift, each point a
        # full least-squares run, still ends on the duality gap with the
        # oracle's trace
        attempts = []

        def failing(u, x, r, *args):
            attempts.append(r)
            return None, 0

        monkeypatch.setattr(estimators, "_polish", failing)
        shifts = self.count_shift_points(monkeypatch)
        tol = EstimatorSpec().tol("trace_min")
        for seed in range(4):
            gen = np.random.default_rng(seed)
            d, k = int(gen.integers(2, 7)), int(gen.integers(1, 5))
            state = random_pure_state(d, gen)
            povm = povm_from_bases(global_random_bases(d, k, gen))
            rec = sample_record(povm, state, 300, gen)
            shifts.clear()
            res = estimate_trace_min(povm, rec)
            tr = np.trace(res.X_hat).real
            assert res.converged and res.stop_reason == "duality_gap"
            assert len(shifts) > 1
            oracle = trace_min_oracle(povm, rec.values, rec.noise_bound, seed=seed)
            assert abs(tr - np.trace(oracle).real) <= tol * max(1.0, tr)
        assert attempts

    def test_mu_search_takes_newton_steps(self, monkeypatch):
        # the seed-11 d=11 protocol target: every trace-min solve ends on
        # the duality gap, and from k = 6 on each mu search (a _secant
        # whose points are polishes) takes at most 4 polishes, where secant
        # steps from slope 1 took 6-7
        searches, stack = [], []
        secant, polish = estimators._secant, estimators._polish

        def spied_secant(g_at, t):
            stack.append(0)
            try:
                return secant(g_at, t)
            finally:
                n = stack.pop()
                if n:
                    searches[-1][1].append(n)

        def spied_polish(*args):
            if stack:  # least squares and likelihood polish outside any search
                stack[-1] += 1
            return polish(*args)

        def spied_solve(povm, record, spec=None, *, start=None, solve=experiments.estimate_trace_min):
            searches.append((povm.n_bases, []))
            res = solve(povm, record, spec, start=start)
            assert res.converged and res.stop_reason == "duality_gap"
            return res

        monkeypatch.setattr(estimators, "_secant", spied_secant)
        monkeypatch.setattr(estimators, "_polish", spied_polish)
        monkeypatch.setattr(experiments, "estimate_trace_min", spied_solve)
        run_noisy_protocol(NoisyProtocolConfig(dim=11, n_targets=1, seed=11))
        assert [k for k, _ in searches] == list(range(1, 11))
        for k, counts in searches[5:]:
            assert counts and max(counts) <= 4, (k, counts)

    def test_zero_noise_bound_is_least_squares(self, monkeypatch):
        # at eps = 0 every feasible X has trace 1: the program is least
        # squares, bit for bit, and a noiseless record makes no attempt
        attempts = track_polish(monkeypatch)
        state, povm, rec = make_noiseless_problem(4, 5, seed=3)
        res = estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=0.0))
        ref = estimate_least_squares(povm, rec)
        assert np.array_equal(res.X_hat, ref.X_hat)
        assert np.array_equal(res.objective_trace, ref.objective_trace)
        assert (res.iterations, res.stop_reason, res.converged) == (
            ref.iterations, ref.stop_reason, ref.converged)
        assert res.stop_reason == "projected_gradient" and not attempts

    @staticmethod
    def problem(d, k, shots, seed):
        # the bases, then a pure state, then the record, from one generator
        gen = np.random.default_rng(seed)
        povm = povm_from_bases(global_random_bases(d, k, gen))
        state = random_pure_state(d, gen)
        return povm, sample_record(povm, state, shots, gen)

    def test_bound_beyond_the_record_returns_zero(self):
        # eps >= ||f||: X = 0 is feasible, and no PSD matrix has less trace
        povm, rec = self.problem(4, 3, 500, 3)
        for eps in (np.linalg.norm(rec.values), 1.5 * np.linalg.norm(rec.values)):
            res = estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=eps))
            assert res.converged and res.stop_reason == "duality_gap"
            assert not res.X_hat.any() and res.iterations == 0

    def test_bound_just_inside_the_record_certifies(self):
        # eps = 0.999 ||f||: the optimum is a sliver of trace 9.4e-4 near
        # the shift above which least squares returns X = 0, where the
        # residual no longer depends on the shift; the bracketed secant
        # certifies it
        povm, rec = self.problem(4, 3, 500, 3)
        eps = 0.999 * np.linalg.norm(rec.values)
        res = estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=eps))
        assert res.converged and res.stop_reason == "duality_gap"
        assert abs(np.trace(res.X_hat).real - 9.4148e-4) <= 1e-7

    def test_bound_below_the_least_squares_floor(self):
        # the least-squares residual floor here is 0.1401.  Below it the
        # secant probes smaller shifts until the residual levels off, and
        # the solve ends outside the ball; just above it the solve certifies
        povm, rec = self.problem(3, 6, 100, 0)
        floor = estimate_least_squares(povm, rec).residual
        assert abs(floor - 0.14010) <= 1e-5
        for scale in (0.5, 0.99):
            with pytest.raises(Infeasible, match="ball constraint violated"):
                estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=scale * floor))
        res = estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=1.01 * floor))
        assert res.converged and res.stop_reason == "duality_gap"
        assert abs(np.trace(res.X_hat).real - 1.002475) <= 1e-6

    def test_infeasible_on_inconsistent_equality(self, rng):
        # sampled frequencies are almost surely outside the map range, so
        # eps = 0 leaves an empty feasible set
        d = 4
        povm = povm_from_bases(global_random_bases(d, 3, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 500, rng)
        with pytest.raises(Infeasible):
            estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=0.0, max_iterations=4000))


class TestMaxLikelihood:
    def test_uniform_record_fixed_point(self, rng):
        d = 5
        povm = povm_from_bases(global_random_bases(d, 1, rng))
        rec = MeasurementRecord(dim=d, n_bases=1, values=np.full(d, 1.0 / d))
        res = estimate_max_likelihood(povm, rec)
        assert res.converged and res.iterations <= 2
        assert np.allclose(res.rho_hat.rho, np.eye(d) / d, atol=1e-9)

    def test_noiseless_strictly_complete(self):
        # the stop certifies a log-likelihood gap below 1e-7, not a distance
        # to the state; this rank-deficient optimum is reached to about 1e-6
        # infidelity in ~100 iterations, and 3e-5 stays the gate
        state, povm, rec = make_noiseless_problem(6, 5, seed=5)
        res = estimate_max_likelihood(
            povm, rec, EstimatorSpec(max_iterations=150000)
        )
        assert infidelity(state, res.rho_hat) <= 3e-5

    def test_dominates_least_squares_likelihood(self, rng):
        d = 2
        povm = povm_from_bases(global_random_bases(d, 2, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 300, rng)
        mle = estimate_max_likelihood(povm, rec)
        ls = estimate_least_squares(povm, rec)
        ft = rec.values / rec.values.sum()
        mask = ft > 0

        def loglik(rho):
            q = povm.projector_values(rho)
            return float(ft[mask] @ np.log(np.maximum(q[mask], 1e-12)))

        assert loglik(mle.rho_hat.rho) >= loglik(ls.rho_hat.rho) - 1e-9

    def test_matches_likelihood_oracle(self):
        for seed, (d, k) in enumerate(((2, 2), (3, 2), (4, 3), (5, 2))):
            gen = np.random.default_rng(seed)
            povm = povm_from_bases(global_random_bases(d, k, gen))
            rec = sample_record(povm, random_pure_state(d, gen), 200, gen)
            res = estimate_max_likelihood(povm, rec)
            assert res.converged and res.stop_reason == "duality_gap"
            assert abs(res.objective_trace[-1] - mle_oracle(povm, rec.values, seed=seed)) <= 1e-8

    def test_duality_gap_certificate(self):
        # ll* - ll(rho) <= lambda_max(R(rho)) - 1 at every converged result
        spec = EstimatorSpec(max_iterations=2000)
        checked = 0
        for seed in range(6):
            gen = np.random.default_rng(seed)
            d, k = int(gen.integers(2, 7)), int(gen.integers(1, 5))
            state = random_pure_state(d, gen)
            povm = povm_from_bases(global_random_bases(d, k, gen))
            for rec in (sample_record(povm, state, 300, gen), noiseless_record(povm, state)):
                res = estimate_max_likelihood(povm, rec, spec)
                if not res.converged:
                    continue
                checked += 1
                ft = rec.values / rec.values.sum()
                q = povm.projector_values(res.X_hat)
                w = np.where(ft > 0, ft / np.maximum(q, 1e-12), 0.0)
                assert np.linalg.eigvalsh(povm.adjoint_projectors(w))[-1] - 1.0 <= spec.tol("max_likelihood")
        assert checked >= 10

    @staticmethod
    def loglik_and_gap(povm, rec, x):
        # ll and the certificate lambda_max(R) - 1, as in
        # test_duality_gap_certificate
        ft = rec.values / rec.values.sum()
        q = povm.projector_values(x)
        w = np.where(ft > 0, ft / np.maximum(q, 1e-12), 0.0)
        ll = float(ft[ft > 0] @ np.log(np.maximum(q[ft > 0], 1e-12)))
        return ll, np.linalg.eigvalsh(povm.adjoint_projectors(w))[-1] - 1.0

    def test_polish_certified_and_no_worse_than_gradient_only(self, monkeypatch):
        # seeded survey, d 2-8, k 1-6, sampled and noiseless records: every
        # solve that the polish ends meets the certificate, and its ll is at
        # least that of a gradient-only solve (no rank window opens) minus
        # 1e-9.  Every gradient-only solve certifies within its 150,000-step
        # budget; with lip halved before each step, seed 8's noiseless one
        # (d=7, k=2) ran to the cap
        tol = EstimatorSpec().tol("max_likelihood")
        ended = track_polish(monkeypatch)
        polished = 0
        for seed in range(30):
            gen = np.random.default_rng(seed)
            d, k = int(gen.integers(2, 9)), int(gen.integers(1, 7))
            state = random_pure_state(d, gen)
            povm = povm_from_bases(global_random_bases(d, k, gen))
            for rec in (sample_record(povm, state, 300, gen), noiseless_record(povm, state)):
                ended.clear()
                res = estimate_max_likelihood(povm, rec)
                if not (ended and ended[-1][0]):
                    continue
                polished += 1
                assert res.converged and res.stop_reason == "duality_gap"
                # gradient steps plus at least one Newton step; one ll entry for the polish
                assert res.iterations >= len(res.objective_trace) - 1
                ll, gap = self.loglik_and_gap(povm, rec, res.X_hat)
                assert gap <= tol
                assert np.all(np.diff(res.objective_trace) >= 0)
                assert abs(res.objective_trace[-1] - ll) <= 1e-9
                with no_polish():
                    ref = estimate_max_likelihood(povm, rec, EstimatorSpec(max_iterations=150000))
                assert ref.converged
                assert ll >= self.loglik_and_gap(povm, rec, ref.X_hat)[0] - 1e-9
        assert polished >= 30

    def test_polish_at_too_small_rank_falls_back_to_gradient(self, monkeypatch):
        # 2000 shots per basis of a full-rank state in five bases give a
        # full-rank optimum; a polish at rank 1 cannot certify, and the solve
        # ends on the gradient iteration's own certificate
        gen = np.random.default_rng(1)
        d = 3
        povm = povm_from_bases(global_random_bases(d, 5, gen))
        rec = sample_record(povm, random_full_rank_state(d, gen), 2000, gen)
        ended = track_polish(monkeypatch, rank=1)
        res = estimate_max_likelihood(povm, rec)
        assert ended and not any(certified for certified, _, _ in ended)
        assert res.converged and res.stop_reason == "duality_gap"
        assert self.loglik_and_gap(povm, rec, res.X_hat)[1] <= EstimatorSpec().tol("max_likelihood")
        assert np.linalg.matrix_rank(res.X_hat) == d
        # at the clip's own rank the same solve ends on a polish
        monkeypatch.undo()
        ended = track_polish(monkeypatch)
        assert estimate_max_likelihood(povm, rec).converged and ended[-1][0]

    def test_gap_gate_skips_only_checks_that_fail(self, monkeypatch):
        # seeded survey, d 2-8, k 1-6, sampled and noiseless records: the
        # stop skips its certificate check, forming no R and so calling no
        # adjoint, only when the Rayleigh quotient of the last top
        # eigenvector already exceeds 1 + tol; each skipped check is one that
        # the full check fails, lambda_max(R) - 1 > tol at the iterate.  60
        # seeds: the polish ends most solves a few steps after the face is
        # found, and 20 seeds checked only 403 skips at a 5-step rank window
        tol = EstimatorSpec().tol("max_likelihood")
        adjoint, fista = PovmMap.adjoint_projectors, estimators._fista
        calls, skipped = [0], []

        def counted_adjoint(self, y):
            calls[0] += 1
            return adjoint(self, y)

        def spied(*args):
            stop = args[8]

            def watched(it, x, ax, *rest):
                before = calls[0]
                done = stop(it, x, ax, *rest)
                if calls[0] == before:
                    skipped.append(ax)
                return done

            return fista(*args[:8], watched, *args[9:])

        monkeypatch.setattr(PovmMap, "adjoint_projectors", counted_adjoint)
        monkeypatch.setattr(estimators, "_fista", spied)
        checked = 0
        for seed in range(60):
            gen = np.random.default_rng(seed)
            d, k = int(gen.integers(2, 9)), int(gen.integers(1, 7))
            state = random_pure_state(d, gen)
            povm = povm_from_bases(global_random_bases(d, k, gen))
            for rec in (sample_record(povm, state, 300, gen), noiseless_record(povm, state)):
                skipped.clear()
                assert estimate_max_likelihood(povm, rec).converged
                ft = rec.values / rec.values.sum()
                mask = ft > 0
                for ax in skipped:
                    w = np.zeros_like(ft)
                    w[mask] = ft[mask] / ax[mask]
                    assert np.linalg.eigvalsh(adjoint(povm, w))[-1] - 1.0 > tol
                checked += len(skipped)
        assert checked >= 1000

    def test_single_basis_protocol_target_converges(self):
        # the first target of the bundled d=11 protocol config (seed 11),
        # measured in one basis with 300 * d shots
        rng = np.random.default_rng(np.random.SeedSequence(11).spawn(1)[0])
        target = random_pure_state(11, rng)
        tau = random_full_rank_state(11, rng)
        sigma = StateModel(target, 1e-3, tau).realize()
        povm = povm_from_bases(global_random_bases(11, 1, rng))
        rec = sample_record(povm, sigma, 3300, rng)
        res = estimate_max_likelihood(povm, rec)
        assert res.converged and res.stop_reason == "duality_gap"

    @staticmethod
    def protocol_solves(monkeypatch, seed):
        """The maximum-likelihood solves of one d=11 protocol target (global
        bases, k=1..10, 300 * d shots), as the bundled protocol config draws
        them, and the psd_clip calls they make."""
        solves, clips = [], [0]

        def counted_clip(*args, **kwargs):
            clips[0] += 1
            return psd_clip(*args, **kwargs)

        def solve(*args, **kwargs):
            solves.append(estimate_max_likelihood(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(estimators, "psd_clip", counted_clip)
        monkeypatch.setattr(experiments, "estimate_max_likelihood", solve)
        run_noisy_protocol(
            NoisyProtocolConfig(dim=11, n_targets=1, estimators=("max_likelihood",), seed=seed)
        )
        return solves, clips[0]

    def test_backtracking_clips_about_once_per_step(self, monkeypatch):
        # lip falls 0.9-fold before each step, so most steps pass the
        # sufficient-decrease test at their first clip.  Halving it there
        # made 1,147 clips in 569 iterations on this target (2.02 per
        # iteration); 0.9 makes 535 in 468
        solves, clips = self.protocol_solves(monkeypatch, 11)
        assert all(res.stop_reason == "duality_gap" for res in solves)
        assert clips <= 1.3 * sum(res.iterations for res in solves)

    def test_every_solve_of_the_seed13_target_certifies(self, monkeypatch):
        # with lip never lowered, the k=2 solve of this target runs to
        # max_iterations: lip climbs to 64 in the first steps and stays there
        solves, _ = self.protocol_solves(monkeypatch, 13)
        assert len(solves) == 10
        assert all(res.converged and res.stop_reason == "duality_gap" for res in solves)

    def test_monotone_objective(self, rng):
        d = 3
        povm = povm_from_bases(global_random_bases(d, 2, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 200, rng)
        res = estimate_max_likelihood(povm, rec)
        assert np.all(np.diff(res.objective_trace) >= 0)

    def test_monotonicity_property_suite(self):
        assert properties.mle_monotonicity_violations(25) == 0

    def test_trace_one_output(self, rng):
        d = 4
        povm = povm_from_bases(global_random_bases(d, 2, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 500, rng)
        res = estimate_max_likelihood(povm, rec)
        assert abs(np.trace(res.X_hat).real - 1.0) <= 1e-10

    def test_rare_outcome_does_not_pin_the_step(self):
        # one outcome observed 2 times in 3,300: no step may drive its q to
        # 0 or to rounding level (~1e-18), where the backtracking would pin
        # the step until max_iterations; a momentum point whose image leaves
        # the log-likelihood's domain restarts from the iterate.  With one
        # basis the MLE's image is f itself
        counts = np.array([2, 79, 110, 551, 767, 212, 84, 336, 353, 719, 87])
        for seed in range(8):
            povm = povm_from_bases(global_random_bases(11, 1, np.random.default_rng(seed)))
            rec = MeasurementRecord(dim=11, n_bases=1, values=counts / 3300, kind="sampled")
            res = estimate_max_likelihood(povm, rec)
            assert res.converged and res.stop_reason == "duality_gap"
            assert res.residual <= 1e-6

    def test_zero_probability_outcomes_survive(self):
        # a basis-eigenstate record has exact zeros; unobserved outcomes
        # drop out of the likelihood, so the iteration stays finite
        gen = np.random.default_rng(3)
        d = 3
        basis = global_random_bases(d, 1, gen)
        psi = basis.bases[0][:, 0]
        from strictqst.quantum import QuantumState

        state = QuantumState(np.outer(psi, psi.conj()))
        povm = povm_from_bases(basis)
        rec = noiseless_record(povm, state)
        res = estimate_max_likelihood(povm, rec)
        assert np.isfinite(res.objective_trace).all()
        assert infidelity(state, res.rho_hat) <= 1e-5


class TestProjectedGradientCore:
    def test_one_map_per_projection_step(self, monkeypatch):
        # every iterate carries its image and the momentum image follows by
        # linearity, so projector_values runs once right after each
        # projection, plus at most twice per solve (the image of I/d and the
        # result's residual); a second map per step, or one in a stop rule,
        # would show as calls not preceded by a clip.  Newton steps of the
        # face polish map nothing (q comes from V), so the count is held
        # against the gradient steps
        events = []
        pv, clip = PovmMap.projector_values, estimators.psd_clip

        def counted_pv(self, x):
            events.append("P")
            return pv(self, x)

        def counted_clip(*args):
            events.append("C")
            return clip(*args)

        monkeypatch.setattr(PovmMap, "projector_values", counted_pv)
        monkeypatch.setattr(estimators, "psd_clip", counted_clip)
        attempts = track_polish(monkeypatch)
        state, povm, rec = make_noiseless_problem(6, 4, seed=3)
        sampled = sample_record(povm, state, 500, np.random.default_rng(4))
        for solve in (estimate_least_squares, estimate_max_likelihood):
            for record in (rec, sampled):
                events.clear()
                attempts.clear()
                res = solve(povm, record)
                trail = "".join(events)
                gradient_steps = res.iterations - sum(steps for _, steps, _ in attempts)
                assert res.converged and trail.count("CP") >= gradient_steps
                assert trail.count("P") - trail.count("CP") <= 2
                if solve is estimate_max_likelihood:
                    # every clip is a projection step: the gap stop has none
                    assert trail.count("P") == trail.count("C") + 2


class TestFeasibility:
    def test_strictly_complete_unique_point(self):
        state, povm, rec = make_noiseless_problem(11, 6, seed=9)
        res = feasibility(povm, rec)
        assert np.linalg.norm(res.X_hat - state.rho) <= 1e-4
        assert res.residual <= 1e-10

    def test_huge_epsilon_returns_quickly(self):
        state, povm, rec = make_noiseless_problem(4, 2, seed=0)
        eps = 10.0 * float(np.linalg.norm(rec.values))
        res = feasibility(povm, rec, EstimatorSpec(noise_bound=eps))
        assert res.residual <= eps
        assert res.iterations == 0
        lam = np.linalg.eigvalsh(res.X_hat)
        assert lam.min() >= -1e-10

    def test_underdetermined_point_is_feasible_and_psd(self):
        state, povm, rec = make_noiseless_problem(3, 1, seed=4)
        res = feasibility(povm, rec)
        assert res.residual <= 1e-10
        assert np.linalg.eigvalsh(res.X_hat).min() >= -1e-10

    def test_infeasible_when_floor_above_target(self, rng):
        d = 4
        povm = povm_from_bases(global_random_bases(d, 3, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 500, rng)
        with pytest.raises(Infeasible):
            feasibility(povm, rec, EstimatorSpec(noise_bound=0.0))

    def test_never_attempts_a_polish(self, monkeypatch):
        # least squares on a sampled record of the same state attempts a
        # polish; the feasibility solve, longer than the rank window,
        # attempts none
        state, povm, rec = make_noiseless_problem(5, 3, seed=1)
        attempts = track_polish(monkeypatch)
        estimate_least_squares(povm, sample_record(povm, state, 500, np.random.default_rng(1)))
        assert attempts
        attempts.clear()
        res = feasibility(povm, rec)
        assert res.stop_reason == "target_residual"
        assert res.iterations > estimators._RANK_WINDOW and not attempts
        assert res.iterations == len(res.objective_trace) - 1


def columns(x):
    """The real coordinates of a d x r array that the dense face Hessian
    acts on: its columns in turn, each as a real view."""
    return x.T.copy().view(float).ravel()


def from_columns(y, r):
    return y.view(complex).reshape(r, -1).T


class TestFaceHessian:
    """The polish's half Hessian, dense (_hess_matrix on real column views)
    and matrix-free (_hess_product on complex V-shaped arrays), for each
    loss."""

    @staticmethod
    def face(d, r, seed, shots=1000):
        # (u, v, w, q, f): a random face of rank r and a sampled record
        gen = np.random.default_rng(seed)
        povm = povm_from_bases(global_random_bases(d, 3, gen))
        rec = sample_record(povm, random_pure_state(d, gen), shots, gen)
        v = gen.standard_normal((d, r)) + 1j * gen.standard_normal((d, r))
        v /= np.linalg.norm(v)
        w = povm._u.conj().T @ v
        return povm._u, v, w, (w.real**2 + w.imag**2).sum(axis=1), rec.values

    @staticmethod
    def models(q, f):
        # (c, a, b) of least squares, trace-min at mu = 5 and maximum
        # likelihood: b is a scalar for the first two, and maximum
        # likelihood's is 0 on unobserved outcomes
        mu = 5.0
        return {
            "least_squares": (0.0, q - f, 1.0),
            "trace_min": (1.0, mu * (q - f), mu),
            "max_likelihood": (1.0, -f / q, f / q**2),
        }

    def cases(self):
        # r = 1..3 at d = 6 (every face dense) and d = 31 (dense only at
        # r = 1), and every rank at d = 11 (dense up to r = 5) on a record
        # of 20 shots per basis, so that some outcomes go unobserved
        faces = [(d, r, 1000) for d in (6, 31) for r in (1, 2, 3)]
        faces += [(11, r, 20) for r in range(1, 12)]
        for d, r, shots in faces:
            u, v, w, q, f = self.face(d, r, seed=10 * d + r, shots=shots)
            for name, (c, a, b) in self.models(q, f).items():
                yield name, np.ascontiguousarray(u.T), v, w, c, a, b

    def test_dense_matrix_equals_matrix_free_product(self):
        sides, unobserved = set(), 0
        for name, ut, v, w, c, a, b in self.cases():
            h = estimators._hess_matrix(ut, w, c, a, b)
            product = estimators._hess_product(ut, w, c, a, b)
            n, r = 2 * v.size, v.shape[1]
            cols = np.eye(n)
            mf = np.stack([columns(product(from_columns(cols[i], r))) for i in range(n)], 1)
            scale = np.linalg.norm(mf)
            assert np.linalg.norm(h - mf) <= 1e-12 * scale, name
            assert np.linalg.norm(h - h.T) <= 1e-12 * scale, name
            sides.add(v.size <= estimators._DENSE_SIZE)
            unobserved += np.ndim(b) and np.count_nonzero(b == 0)
        assert sides == {True, False}
        assert unobserved

    def test_one_newton_cg_solve_gives_the_same_step(self):
        for name, ut, v, w, c, a, b in self.cases():
            g = c * v + ut.T @ (a[:, None] * w)
            h = estimators._hess_matrix(ut, w, c, a, b)
            dense = from_columns(estimators._newton_cg(h.dot, columns(g)), v.shape[1])
            free = estimators._newton_cg(estimators._hess_product(ut, w, c, a, b), g)
            assert np.linalg.norm(dense - free) <= 1e-10 * np.linalg.norm(free), name

    def dense_systems(self):
        # (name, h, g) on the real views of every dense face
        for name, ut, v, w, c, a, b in self.cases():
            if v.size <= estimators._DENSE_SIZE:
                g = c * v + ut.T @ (a[:, None] * w)
                yield name, estimators._hess_matrix(ut, w, c, a, b), columns(g)

    def test_dense_step_solves_the_newton_system(self):
        # random faces are mostly indefinite, so each h is shifted to a
        # smallest eigenvalue of at least 1: there the step is the exact
        # Newton step, h d = -g to rounding
        names = set()
        for name, h, g in self.dense_systems():
            h = h + (1.0 - min(np.linalg.eigvalsh(h)[0], 0.0)) * np.eye(len(g))
            step = estimators._dense_newton(h, g)
            assert np.linalg.norm(h @ step + g) <= 1e-10 * np.linalg.norm(g), name
            names.add(name)
        assert names == {"least_squares", "trace_min", "max_likelihood"}

    def test_refused_dense_step_is_the_cg_step(self):
        # a singular h (a zero column: LU raises), a negative definite one
        # and a face Hessian whose exact step ascends all get _newton_cg's
        # step on the same h, bit for bit
        refused = 0
        for name, h, g in self.dense_systems():
            singular = h.copy()
            singular[:, 0] = singular[0, :] = 0.0
            cases = [singular, -(h + (1.0 - min(np.linalg.eigvalsh(h)[0], 0.0)) * np.eye(len(g)))]
            if not g @ np.linalg.solve(h, -g) < 0:
                cases.append(h)
                refused += 1
            for m in cases:
                assert np.array_equal(estimators._dense_newton(m, g), estimators._newton_cg(m.dot, g)), name
        assert refused

    @staticmethod
    def finish_at(n):
        # a finish that refuses the first n - 1 points and takes the n-th
        calls = []

        def finish(*args):
            calls.append(args)
            return "point" if len(calls) == n else None

        return finish

    def test_track_polish_records_each_dense_solve(self, monkeypatch):
        # an attempt solves one Newton system per point and forms no
        # Hessian at its Newton point: finishing at its first point it
        # solves one system, at its second two, "solve" entries on a dense
        # face and CG product counts on a matrix-free one.  With the dense
        # Hessian negated every exact step ascends, and each system shows
        # its solve and then the CG fallback, which stops at the first
        # (negative) curvature
        attempts = track_polish(monkeypatch)

        def run(d, r, n):
            u, v, w, q, f = self.face(d, r, seed=d + r)

            def loss(q, f=f):  # least squares' model
                e = q - f
                return e, 1.0, lambda dq: float(e @ dq + 0.5 * (dq @ dq))

            attempts.clear()
            estimators._polish(u, v @ v.conj().T, r, 0.0, loss, self.finish_at(n))
            return attempts[-1]

        assert run(6, 3, 1) == (True, 1, ("solve",))
        assert run(6, 3, 2) == (True, 2, ("solve", "solve"))
        for n in (1, 2):
            certified, steps, systems = run(31, 3, n)
            assert (certified, steps, len(systems)) == (True, n, n)
            assert all(isinstance(k, int) and k > 0 for k in systems)
        hess_matrix = estimators._hess_matrix
        monkeypatch.setattr(estimators, "_hess_matrix", lambda *args: -hess_matrix(*args))
        assert run(6, 3, 1)[2] == ("solve", 1)
        assert run(6, 3, 2)[2] == ("solve", 1, "solve", 1)

    def test_polish_dispatch_reads_only_the_face_size(self, monkeypatch):
        # an attempt that finishes at its first point forms one Hessian,
        # dense when V has at most _DENSE_SIZE entries
        used = []
        for fn in ("_hess_matrix", "_hess_product"):
            original = getattr(estimators, fn)
            monkeypatch.setattr(estimators, fn, lambda *args, fn=fn, original=original: (
                used.append(fn) or original(*args)))
        for d, r in ((6, 3), (30, 2), (31, 2), (31, 3)):
            u, v, w, q, f = self.face(d, r, seed=d + r)

            def loss(q, f=f):  # least squares' model
                e = q - f
                return e, 1.0, lambda dq: float(e @ dq + 0.5 * (dq @ dq))

            used.clear()
            point, steps = estimators._polish(u, v @ v.conj().T, r, 0.0, loss, self.finish_at(1))
            dense = v.size <= estimators._DENSE_SIZE
            assert (point, steps) == ("point", 1)
            assert used == ["_hess_matrix" if dense else "_hess_product"]


class TestNewtonPoint:
    """An attempt ends at its Newton point: where the gate holds at V, the
    program's certificate is tested at V + dV, and that point is the
    estimate."""

    @staticmethod
    def spy_finish(monkeypatch):
        """Wrap _polish and _dense_newton; the returned list gets (u, c,
        loss, V + dV, its image, dV, solve) for every point that a finish
        takes, solve being (h, g, step) of the last dense solve before the
        finish, the one that gave dV on a dense face."""
        ends, solves = [], []
        polish, dense_newton = estimators._polish, estimators._dense_newton

        def spied(u, x, r, c, loss, finish):
            def watched(v, q, dv, dec, newton):
                solve = solves[-1] if solves else None
                point = finish(v, q, dv, dec, newton)
                if point is not None:
                    ends.append((u, c, loss, v, q, dv, solve))
                return point

            return polish(u, x, r, c, loss, watched)

        def recorded(h, g):
            step = dense_newton(h, g)
            solves.append((h, g, step))
            return step

        monkeypatch.setattr(estimators, "_polish", spied)
        monkeypatch.setattr(estimators, "_dense_newton", recorded)
        return ends

    def test_carried_image_is_the_newton_points_image(self):
        # W = U^dag V is carried between steps as W + t Z: after 7 damped
        # steps the image that finish gets is still A[X] at its Newton
        # point, X = (V + dV)(V + dV)^dag, on a dense face and a
        # matrix-free one
        for d, r in ((6, 3), (31, 3)):
            gen = np.random.default_rng(d + r)
            povm = povm_from_bases(global_random_bases(d, 3, gen))
            f = sample_record(povm, random_pure_state(d, gen), 1000, gen).values
            v = gen.standard_normal((d, r)) + 1j * gen.standard_normal((d, r))
            calls = []

            def loss(q, f=f):  # least squares' model
                e = q - f
                return e, 1.0, lambda dq: float(e @ dq + 0.5 * (dq @ dq))

            def finish(vn, qn, dv, dec, newton):
                calls.append(dec)
                return (estimators.hermitize(vn @ vn.conj().T), qn) if len(calls) == 8 else None

            (x, qn), steps = estimators._polish(povm._u, v @ v.conj().T, r, 0.0, loss, finish)
            assert steps == 8 and calls[-1] > 1e-6  # still far from the face minimum
            assert np.linalg.norm(povm.projector_values(x) - qn) <= 1e-12 * np.linalg.norm(qn)

    @pytest.mark.parametrize(
        "solve", [estimate_least_squares, estimate_trace_min, estimate_max_likelihood]
    )
    def test_the_estimate_is_the_certified_newton_point(self, monkeypatch, solve):
        # seeded sampled records at d = 3, 4 in three bases, as in
        # TestTraceMin: dV is the dense Newton step of the attempt's last
        # system, that system is the one at V = (V + dV) - dV to rounding
        # (the attempt carries W = U^dag V between steps), the estimate is
        # (V + dV)(V + dV)^dag (over its trace for maximum likelihood) bit
        # for bit, and the program's own certificate holds there
        ends = self.spy_finish(monkeypatch)
        for d, seed in ((3, 0), (3, 2), (4, 1), (4, 5)):
            gen = np.random.default_rng(seed)
            state = random_pure_state(d, gen)
            povm = povm_from_bases(global_random_bases(d, 3, gen))
            rec = sample_record(povm, state, 1000, gen)
            ends.clear()
            res = solve(povm, rec)
            assert res.converged and ends
            u, c, loss, vn, qn, dv, (h, g, step) = ends[-1]
            assert np.array_equal(step, columns(dv))
            assert np.linalg.norm(h @ step + g) <= 1e-8 * np.linalg.norm(g)
            v = vn - dv
            w = u.conj().T @ v
            q = (w.real**2 + w.imag**2).sum(axis=1)
            a, b, _ = loss(q)
            # rounding in W moves q by eps |q| and a by b = da/dq times that
            scale = np.linalg.norm(c * v) + np.linalg.norm(u) * np.linalg.norm(w) * (
                np.linalg.norm(a) + np.linalg.norm(b * q))
            assert np.linalg.norm(g - columns(c * v + u @ (a[:, None] * w))) <= 1e-13 * scale
            h_at_v = estimators._hess_matrix(np.ascontiguousarray(u.T), w, c, a, b)
            assert np.linalg.norm(h - h_at_v) <= 1e-12 * np.linalg.norm(h_at_v)
            x = estimators.hermitize(vn @ vn.conj().T)
            tol = EstimatorSpec().tol(res.method)
            if solve is estimate_max_likelihood:
                assert np.array_equal(res.X_hat, x / np.vdot(vn, vn).real)
                assert TestMaxLikelihood.loglik_and_gap(povm, rec, res.X_hat)[1] <= tol
                continue
            assert np.array_equal(res.X_hat, x)
            if solve is estimate_least_squares:
                assert res.stop_reason == "projected_gradient"
                assert TestLeastSquaresPolish.objective_and_certificate(povm, rec, x)[1]
                continue
            # trace-min's duality gap at the multiplier mu = b of the last attempt
            assert res.stop_reason == "duality_gap"
            f, eps, tr = rec.values, rec.noise_bound, np.trace(x).real
            y = b * (povm.projector_values(x) - f)
            y /= 1.0 + max(0.0, -np.linalg.eigvalsh(povm.adjoint_projectors(y) + np.eye(d))[0])
            assert tr + y @ f + eps * np.linalg.norm(y) <= tol * max(1.0, tr)


class TestPolishAcceptance:
    @pytest.mark.parametrize("solve", [estimate_least_squares, estimate_max_likelihood])
    def test_core_refuses_a_point_above_the_iterate(self, solve):
        # every attempt returns X = 0 after 0 Newton steps: its least-squares
        # objective 0.5 ||f||^2 and its floored -ll both lie above every
        # iterate's, so the core refuses each point and the solve is the
        # gradient-only solve, bit for bit.  Least squares makes attempts on
        # sampled records only
        attempts = []

        def worse(u, x, r, *args):
            attempts.append(r)
            return (np.zeros_like(x), np.zeros(povm.n_bases * povm.dim), "refused"), 0

        for seed in range(3):
            gen = np.random.default_rng(seed)
            d, k = int(gen.integers(2, 9)), int(gen.integers(1, 7))
            state = random_pure_state(d, gen)
            povm = povm_from_bases(global_random_bases(d, k, gen))
            records = (sample_record(povm, state, 300, gen), noiseless_record(povm, state))
            for rec in records[:1] if solve is estimate_least_squares else records:
                attempts.clear()
                with no_polish():
                    ref = solve(povm, rec)
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(estimators, "_polish", worse)
                    res = solve(povm, rec)
                assert attempts
                assert (res.iterations, res.stop_reason, res.converged) == (
                    ref.iterations, ref.stop_reason, ref.converged)
                assert np.array_equal(res.X_hat, ref.X_hat)
                assert np.array_equal(res.objective_trace, ref.objective_trace)


class TestPolishTrigger:
    """An attempt starts once the rank of the clip each step kept has held
    for the window, _RANK_WINDOW steps, doubled after each attempt."""

    @staticmethod
    def ranks_and_attempts(solve, povm, rec, polish):
        """The solve's result and, for each _fista run in order (trace-min
        makes one per shift), the clip rank kept at each of its steps, in
        step order, and for each step followed by an attempt the rank that
        attempt was given; polish stands in for _polish.  _fista's stop
        marks the steps, since a restarted step clips twice and keeps its
        second clip."""
        events = []
        clip, fista = estimators.psd_clip, estimators._fista

        def spied_clip(*args, **kwargs):
            out = clip(*args, **kwargs)
            if isinstance(out, tuple):
                events.append(("clip", out[1]))
            return out

        def spied_fista(*args, **kwargs):
            stop = args[8]
            events.append(("run", None))

            def marked(it, *rest):
                if it:
                    events.append(("step", None))
                return stop(it, *rest)

            return fista(*args[:8], marked, *args[9:], **kwargs)

        def spied_polish(u, x, r, *args):
            events.append(("polish", r))
            return polish(u, x, r, *args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(estimators, "psd_clip", spied_clip)
            m.setattr(estimators, "_fista", spied_fista)
            m.setattr(estimators, "_polish", spied_polish)
            res = solve(povm, rec)
        runs, kept = [], None
        for kind, r in events:
            if kind == "run":
                runs.append(([], {}))
            elif kind == "clip":
                kept = r
            elif kind == "step":
                runs[-1][0].append(kept)
            else:  # trace-min calls _polish once per secant point
                runs[-1][1].setdefault(len(runs[-1][0]), r)
        return res, runs

    @pytest.mark.parametrize("solve", [estimate_least_squares, estimate_trace_min])
    def test_attempts_start_when_the_rank_has_held_for_the_window(self, solve):
        # one sampled d=4 record in 3 bases, trace-min at the record's own
        # noise bound; steps are numbered from 1 in each run, and the
        # initial rank counts as a change at step 1
        gen = np.random.default_rng(0)
        state = random_pure_state(4, gen)
        povm = povm_from_bases(global_random_bases(4, 3, gen))
        rec = sample_record(povm, state, 1000, gen)
        window = estimators._RANK_WINDOW
        res, runs = self.ranks_and_attempts(solve, povm, rec, estimators._polish)
        ranks, attempts = runs[0]
        first = min(attempts)
        changed = max(it for it in range(1, first + 1) if it == 1 or ranks[it - 1] != ranks[it - 2])
        assert first == changed + window and attempts[first] == ranks[first - 1]
        assert res.converged and res.stop_reason in ("projected_gradient", "duality_gap")
        # every attempt fails: each next one comes when the rank has held
        # for twice the last window, counted from that attempt or from the
        # last rank change, whichever is later, and not a step sooner; each
        # run starts with a fresh window
        res, runs = self.ranks_and_attempts(solve, povm, rec, lambda *args: (None, 0))
        assert min(runs[0][1]) == first
        for ranks, attempts in runs:
            since = rank = None
            window = estimators._RANK_WINDOW
            for it, kept in enumerate(ranks[:-1], 1):  # no attempt after the step that stops
                if kept != rank:
                    rank, since = kept, it
                if it in attempts:
                    assert (it - since, attempts[it]) == (window, rank)
                    since, window = it, 2 * window
                else:
                    assert it - since < window
        assert sum(len(attempts) for _, attempts in runs) >= 4 and res.converged


class TestProgramEquivalence:
    def test_all_programs_agree_on_strictly_complete_noiseless_data(self):
        # small-dimension version of the uniqueness guarantee
        state, povm, rec = make_noiseless_problem(6, 5, seed=13)
        results = [
            estimate_least_squares(povm, rec),
            estimate_trace_min(povm, rec, EstimatorSpec(noise_bound=0.0)),
            estimate_max_likelihood(
                povm, rec, EstimatorSpec(max_iterations=150000)
            ),
            feasibility(povm, rec),
        ]
        for i, a in enumerate(results):
            for b in results[i + 1 :]:
                assert np.linalg.norm(a.X_hat - b.X_hat) <= 1e-4


class TestStartPoint:
    """A caller's start replaces I/d as the first iterate; the protocol
    passes the estimate from the previous basis count, or max likelihood
    this record's least-squares estimate."""

    @staticmethod
    def problem():
        # the computational basis and one random basis at d = 3, so a start
        # can map exactly to 0 on an outcome
        gen = np.random.default_rng(5)
        bases = (np.eye(3, dtype=complex), global_random_bases(3, 1, gen).bases[0])
        povm = povm_from_bases(BasisSet(dim=3, bases=bases))
        rec = sample_record(povm, random_pure_state(3, gen), 500, gen)
        assert rec.values[0] > 0  # outcome |0> of the computational basis is observed
        return povm, rec

    @pytest.mark.parametrize(
        "solve", [estimate_least_squares, estimate_trace_min, estimate_max_likelihood]
    )
    def test_start_is_validated(self, solve):
        povm, rec = self.problem()
        bad = [
            (np.eye(4) / 4, DimensionMismatch),
            (np.eye(3).ravel() / 3, DimensionMismatch),
            (np.diag([1.0, np.nan, 0.0]), NotHermitian),
            (np.diag([1.0, np.inf, 0.0]), NotHermitian),
            (np.eye(3) / 3 + np.triu(np.full((3, 3), 0.1), 1), NotHermitian),
            (np.diag([0.6, 0.5, -0.1]), ValueError),  # Hermitian, not PSD
            (np.diag([0.0, 1e-12, -1e-12]), ValueError),  # not PSD relative to its trace
        ]
        for start, error in bad:
            with pytest.raises(error):
                solve(povm, rec, start=start)
        for start in (np.zeros((3, 3)), np.diag([0.5, 0.5, -1e-11]), [[1, 0, 0], [0, 0, 0], [0, 0, 0]]):
            assert solve(povm, rec, start=start).converged

    def test_likelihood_falls_back_to_the_maximally_mixed_start(self):
        # a start of trace 0 (trace-min's X = 0 for eps >= ||f||) has no
        # normalised state, and |1><1| maps to q = 0 on the observed
        # outcome |0>, outside ll's domain: both solves are the cold one
        povm, rec = self.problem()
        cold = estimate_max_likelihood(povm, rec)
        for start in (np.zeros((3, 3)), np.diag([0.0, 1.0, 0.0])):
            res = estimate_max_likelihood(povm, rec, start=start)
            assert np.array_equal(res.X_hat, cold.X_hat)
            assert np.array_equal(res.objective_trace, cold.objective_trace)
            assert (res.iterations, res.stop_reason) == (cold.iterations, cold.stop_reason)
        # a start inside the domain is taken: from the optimum itself the
        # solve certifies in fewer steps
        warm = estimate_max_likelihood(povm, rec, start=2.0 * cold.X_hat)
        assert warm.stop_reason == cold.stop_reason and warm.iterations < cold.iterations

    def test_likelihood_polishes_its_least_squares_start(self, monkeypatch):
        # the seed-11 d=11 protocol target: each maximum-likelihood solve
        # starts from this record's least-squares estimate and takes no
        # gradient step.  At k = 1 and 2 the least-squares estimate fits
        # the record exactly, so it is a maximiser: the first certificate
        # check ends the solve and no polish runs.  From k = 3 one polish
        # of the start ends it (two objective entries: the start's and the
        # polished point's); from k = 6, where the maximiser is unique, a
        # cold solve ends on the same certificate, within tol in ll and
        # sqrt(tol) in X
        attempts = track_polish(monkeypatch)
        solves = []

        def spy(povm, record, spec=None, *, start=None, solve=experiments.estimate_max_likelihood):
            attempts.clear()
            res = solve(povm, record, spec, start=start)
            assert start is not None
            solves.append((povm, record, res, list(attempts)))
            return res

        monkeypatch.setattr(experiments, "estimate_max_likelihood", spy)
        run_noisy_protocol(NoisyProtocolConfig(dim=11, n_targets=1, seed=11))
        assert len(solves) == 10
        tol = EstimatorSpec().tol("max_likelihood")
        for povm, record, res, tried in solves:
            assert res.converged and res.stop_reason == "duality_gap"
            if povm.n_bases <= 2:
                assert (tried, res.iterations, len(res.objective_trace)) == ([], 0, 1)
                continue
            assert len(tried) == 1 and tried[0][0]
            assert res.iterations == tried[0][1] and len(res.objective_trace) == 2
            if povm.n_bases >= 6:
                cold = estimate_max_likelihood(povm, record)
                assert cold.stop_reason == "duality_gap"
                assert abs(res.objective_trace[-1] - cold.objective_trace[-1]) <= tol
                assert np.linalg.norm(res.X_hat - cold.X_hat) <= np.sqrt(tol)

    def test_failed_start_polish_falls_back_to_the_gradient_loop(self, monkeypatch):
        # a full-rank optimum (as in TestMaxLikelihood's too-small-rank
        # case) with every polish held at rank 1: after the first
        # certificate check at the start, the start's attempt, given the
        # start's own rank, comes before any step and fails; the gradient
        # loop then runs from that same start, and the solve certifies on
        # its own
        gen = np.random.default_rng(1)
        povm = povm_from_bases(global_random_bases(3, 5, gen))
        rec = sample_record(povm, random_full_rank_state(3, gen), 2000, gen)
        start = estimate_least_squares(povm, rec).X_hat
        x0 = start / np.trace(start).real
        seen = []  # ("polish", x, rank) and ("stop", it, x), in call order
        polish, fista = estimators._polish, estimators._fista

        def spied_polish(u, x, r, *args):
            seen.append(("polish", x, r))
            return polish(u, x, 1, *args)

        def spied_fista(*args):
            stop = args[8]

            def watched(it, x, *rest):
                seen.append(("stop", it, x))
                return stop(it, x, *rest)

            return fista(*args[:8], watched, *args[9:])

        monkeypatch.setattr(estimators, "_polish", spied_polish)
        monkeypatch.setattr(estimators, "_fista", spied_fista)
        res = estimate_max_likelihood(povm, rec, start=start)
        (first, it, x), (second, y, r), (third, step, z) = seen[:3]
        assert (first, it) == ("stop", 0) and np.allclose(x, x0, rtol=0, atol=1e-15)
        assert (second, r) == ("polish", QuantumState(x0).rank()) and y is x
        assert (third, step) == ("stop", 1) and res.iterations > 1  # gradient steps ran
        assert res.converged and res.stop_reason == "duality_gap"
        assert TestMaxLikelihood.loglik_and_gap(povm, rec, res.X_hat)[1] <= EstimatorSpec().tol("max_likelihood")

    def test_every_least_squares_run_takes_the_start(self, monkeypatch):
        # least squares from its own optimum certifies in fewer steps, and
        # every least-squares run of a trace-min solve starts from the
        # caller's point, shift reruns included: with every polish failing,
        # the shift search alone ends the solve, over several runs
        povm, rec = self.problem()
        cold = estimate_least_squares(povm, rec)
        warm = estimate_least_squares(povm, rec, start=cold.X_hat)
        assert warm.stop_reason == cold.stop_reason and warm.iterations < cold.iterations
        starts, least_squares = [], estimators._least_squares

        def spied(prob, spec, stop=None, shift=0.0, polish=None, x0=None):
            starts.append(x0)
            return least_squares(prob, spec, stop, shift, polish, x0)

        monkeypatch.setattr(estimators, "_least_squares", spied)
        monkeypatch.setattr(estimators, "_polish", lambda *args: (None, 0))
        gen = np.random.default_rng(12)
        povm = povm_from_bases(global_random_bases(3, 1, gen))
        rec = sample_record(povm, random_pure_state(3, gen), 500, gen)
        start = np.diag([3.0, 2.0, 1.0]) / 6
        assert estimate_trace_min(povm, rec, start=start).converged
        assert len(starts) >= 2 and all(np.array_equal(x0, start) for x0 in starts)

    def test_warm_and_cold_solves_agree_where_the_optimum_is_unique(self, monkeypatch):
        # at d = 11 each program's optimum is unique from k = 6 on (the
        # acceptance fixture's onset is 5), so a warm and a cold solve of one
        # record must end on the same certificate and nearly the same point.
        # Each certificate puts its solve within about tol of the optimal
        # objective; around a unique optimum of curvature of order 1 that is
        # a distance of order sqrt(tol)
        pairs = []
        for name in ("estimate_least_squares", "estimate_trace_min", "estimate_max_likelihood"):

            def spy(povm, record, spec=None, *, start=None, solve=getattr(experiments, name)):
                warm = solve(povm, record, spec, start=start)
                if povm.n_bases >= 6:
                    assert start is not None
                    pairs.append((warm, solve(povm, record, spec)))
                return warm

            monkeypatch.setattr(experiments, name, spy)
        for seed in (11, 13, 23):
            run_noisy_protocol(NoisyProtocolConfig(dim=11, n_targets=1, seed=seed))
        assert len(pairs) == 3 * 3 * 5
        for warm, cold in pairs:
            assert warm.stop_reason == cold.stop_reason
            tol = EstimatorSpec().tol(warm.method)
            assert np.linalg.norm(warm.X_hat - cold.X_hat) <= np.sqrt(tol)
