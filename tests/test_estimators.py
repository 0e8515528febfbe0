import numpy as np
import pytest

from strictqst.errors import Infeasible
from strictqst.estimators import (
    EstimatorSpec,
    estimate,
    estimate_least_squares,
    estimate_max_likelihood,
    estimate_trace_min,
    feasibility,
)
from strictqst.measurement import (
    BasisSet,
    MeasurementRecord,
    noiseless_record,
    povm_from_bases,
    sample_record,
)
from strictqst.quantum import (
    StateModel,
    global_random_bases,
    infidelity,
    random_full_rank_state,
    random_pure_state,
)

from conftest import make_noiseless_problem
from oracles import ls_oracle, mle_oracle, trace_min_oracle
import properties


class TestEstimatorSpec:
    def test_defaults_per_kind(self):
        assert EstimatorSpec(kind="least_squares").tol == 1e-10
        assert EstimatorSpec(kind="trace_min").tol == 1e-8
        assert EstimatorSpec(kind="max_likelihood").tol == 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorSpec(kind="ridge")
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

    def test_dispatcher(self):
        state, povm, rec = make_noiseless_problem(3, 4, seed=0)
        res = estimate(povm, rec, EstimatorSpec(kind="least_squares"))
        assert res.method == "least_squares"


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
        rec = noiseless_record(povm, np.eye(d, dtype=complex) / d)
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
            spec = EstimatorSpec(kind="least_squares")
            res = estimate_least_squares(povm, rec, spec)
            assert res.converged
            lip = povm.operator_norm() ** 2
            grad = povm.adjoint_projectors(povm.projector_values(res.X_hat) - rec.values)
            from strictqst.linalg import psd_project

            pg = lip * np.linalg.norm(res.X_hat - psd_project(res.X_hat - grad / lip))
            assert pg <= 10 * spec.tol * lip * max(1.0, np.linalg.norm(res.X_hat))

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


class TestTraceMin:
    def test_noiseless_recovers_state(self):
        state, povm, rec = make_noiseless_problem(11, 6, seed=7)
        res = estimate_trace_min(povm, rec, EstimatorSpec(kind="trace_min", noise_bound=0.0))
        assert infidelity(state, res.rho_hat) <= 1e-5
        assert res.converged

    def test_mixed_state_ic_unit_trace(self, rng):
        d = 3
        povm = povm_from_bases(global_random_bases(d, 4, rng))
        rec = noiseless_record(povm, np.eye(d, dtype=complex) / d)
        res = estimate_trace_min(povm, rec, EstimatorSpec(kind="trace_min", noise_bound=0.0))
        assert abs(np.trace(res.X_hat).real - 1.0) <= 1e-6

    def test_objective_matches_oracle(self):
        gen = np.random.default_rng(11)
        state = random_pure_state(3, gen)
        povm = povm_from_bases(global_random_bases(3, 2, gen))
        exact = noiseless_record(povm, state)
        rec = sample_record(povm, state, 2000, gen)
        eps = 1.1 * float(np.linalg.norm(rec.values - exact.values))
        res = estimate_trace_min(povm, rec, EstimatorSpec(kind="trace_min", noise_bound=eps, convergence_tol=1e-10))
        oracle = trace_min_oracle(povm, rec.values, eps, seed=11)
        assert abs(np.trace(res.X_hat).real - np.trace(oracle).real) <= 1e-5

    def test_requires_noise_bound(self):
        state, povm, rec = make_noiseless_problem(3, 2, seed=0)
        with pytest.raises(ValueError):
            estimate_trace_min(povm, rec, EstimatorSpec(kind="trace_min"))

    def test_uses_record_noise_bound(self, rng):
        d = 4
        povm = povm_from_bases(global_random_bases(d, 3, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 2000, rng)
        res = estimate_trace_min(povm, rec)  # bound comes from the record
        assert res.residual <= rec.noise_bound + 1e-7

    def test_infeasible_on_inconsistent_equality(self, rng):
        # sampled frequencies are almost surely outside the map range, so
        # eps = 0 leaves an empty feasible set
        d = 4
        povm = povm_from_bases(global_random_bases(d, 3, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 500, rng)
        with pytest.raises(Infeasible):
            estimate_trace_min(povm, rec, EstimatorSpec(kind="trace_min", noise_bound=0.0, max_iterations=4000))


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
            povm, rec, EstimatorSpec(kind="max_likelihood", max_iterations=150000)
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
        spec = EstimatorSpec(kind="max_likelihood", max_iterations=2000)
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
                assert np.linalg.eigvalsh(povm.adjoint_projectors(w))[-1] - 1.0 <= spec.tol
        assert checked >= 10

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

    def test_monotone_objective(self, rng):
        d = 3
        povm = povm_from_bases(global_random_bases(d, 2, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 200, rng)
        res = estimate_max_likelihood(povm, rec)
        assert np.all(np.diff(res.objective_trace) >= 0)

    def test_monotonicity_property_suite(self):
        assert properties.mle_monotonicity_violations(25) == 0

    def test_unit_trace_output(self, rng):
        d = 4
        povm = povm_from_bases(global_random_bases(d, 2, rng))
        rec = sample_record(povm, random_pure_state(d, rng), 500, rng)
        res = estimate_max_likelihood(povm, rec)
        assert abs(np.trace(res.X_hat).real - 1.0) <= 1e-10

    def test_zero_probability_outcomes_survive(self):
        # a basis-eigenstate record has exact zeros; the model floor keeps
        # the iteration finite
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


class TestFeasibility:
    def test_strictly_complete_unique_point(self):
        state, povm, rec = make_noiseless_problem(11, 6, seed=9)
        res = feasibility(povm, rec)
        assert np.linalg.norm(res.X_hat - state.rho) <= 1e-4
        assert res.residual <= 1e-10

    def test_huge_epsilon_returns_quickly(self):
        state, povm, rec = make_noiseless_problem(4, 2, seed=0)
        eps = 10.0 * float(np.linalg.norm(rec.values))
        res = feasibility(povm, rec, EstimatorSpec(kind="feasibility", noise_bound=eps))
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
            feasibility(povm, rec, EstimatorSpec(kind="feasibility", noise_bound=0.0))


class TestProgramEquivalence:
    def test_all_programs_agree_on_strictly_complete_noiseless_data(self):
        # small-dimension version of the uniqueness guarantee
        state, povm, rec = make_noiseless_problem(6, 5, seed=13)
        results = [
            estimate_least_squares(povm, rec),
            estimate_trace_min(povm, rec, EstimatorSpec(kind="trace_min", noise_bound=0.0)),
            estimate_max_likelihood(
                povm, rec, EstimatorSpec(kind="max_likelihood", max_iterations=150000)
            ),
            feasibility(povm, rec),
        ]
        for i, a in enumerate(results):
            for b in results[i + 1 :]:
                assert np.linalg.norm(a.X_hat - b.X_hat) <= 1e-4
