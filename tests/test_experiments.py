from dataclasses import replace

import numpy as np
import pytest

from strictqst import experiments
from strictqst.estimators import EstimatorSpec, estimate_least_squares
from strictqst.experiments import (
    NoisyProtocolConfig,
    SweepConfig,
    run_completeness_sweep,
    run_noisy_protocol,
    run_robustness_scan,
)
from strictqst.measurement import BasisSet, noiseless_record, povm_from_bases
from strictqst.quantum import haar_random_unitary, infidelity, random_pure_state


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(dims=())
        with pytest.raises(ValueError):
            SweepConfig(dims=(1,))
        with pytest.raises(ValueError):
            SweepConfig(dims=(4,), ranks=(5,))
        with pytest.raises(ValueError):
            SweepConfig(dims=(6,), basis_type="local")
        with pytest.raises(ValueError):
            SweepConfig(dims=(4,), basis_type="diagonal")
        for field, value in [
            ("infidelity_threshold", np.nan),
            ("dims", (3.0,)),
            ("max_bases", True),
            ("jobs", 0),
        ]:
            with pytest.raises(ValueError, match=field):
                SweepConfig(**{"dims": (4,), field: value})
        assert SweepConfig(dims=[4], ranks=[1]).dims == (4,)


class TestCompletenessSweep:
    def test_small_cell_finds_onset(self):
        config = SweepConfig(dims=(5,), ranks=(1,), states_per_cell=4, max_bases=8, seed=3)
        result = run_completeness_sweep(config)
        cell = result.cell(5, 1)
        assert cell.onset is not None
        assert 3 <= cell.onset <= 6
        # all states pass at the onset, some state fails just below it
        assert cell.failure_counts[cell.onset - 1] == 0
        if cell.onset > 1:
            assert cell.failure_counts[cell.onset - 2] > 0
        with pytest.raises(KeyError, match="no cell for dim=5 rank=2"):
            result.cell(5, 2)

    def test_deterministic(self):
        config = SweepConfig(dims=(4,), ranks=(1,), states_per_cell=3, max_bases=6, seed=9)
        r1 = run_completeness_sweep(config)
        r2 = run_completeness_sweep(config)
        assert np.array_equal(r1.cells[0].errors, r2.cells[0].errors)

    def test_worker_pool_matches_serial(self):
        base = dict(dims=(4, 5), ranks=(1,), states_per_cell=3, max_bases=6, seed=9)
        serial = run_completeness_sweep(SweepConfig(**base))
        pooled = run_completeness_sweep(SweepConfig(**base, jobs=2))
        for c1, c2 in zip(serial.cells, pooled.cells):
            assert np.array_equal(c1.errors, c2.errors)

    def test_basis_nesting_prefix_property(self):
        # a longer sweep reproduces the shorter sweep's rows exactly
        lo = SweepConfig(dims=(4,), ranks=(1,), states_per_cell=3, max_bases=3,
                         infidelity_threshold=1e-30, seed=5)
        hi = SweepConfig(dims=(4,), ranks=(1,), states_per_cell=3, max_bases=5,
                         infidelity_threshold=1e-30, seed=5)
        r_lo = run_completeness_sweep(lo)
        r_hi = run_completeness_sweep(hi)
        assert np.array_equal(r_lo.cells[0].errors, r_hi.cells[0].errors[:3])

    def test_onset_non_increasing_as_threshold_loosens(self):
        config = SweepConfig(dims=(5,), ranks=(1,), states_per_cell=4, max_bases=8, seed=3)
        cell = run_completeness_sweep(config).cell(5, 1)
        strict = cell.onset_at(1e-7)
        loose = cell.onset_at(1e-3)
        if strict is not None and loose is not None:
            assert loose <= strict

    def test_onset_non_decreasing_in_rank(self):
        config = SweepConfig(dims=(6,), ranks=(1, 2), states_per_cell=4, max_bases=12, seed=3)
        result = run_completeness_sweep(config)
        o1, o2 = result.cell(6, 1).onset, result.cell(6, 2).onset
        assert o1 is not None and o2 is not None
        assert o2 >= o1

    def test_failure_log_records_states(self):
        config = SweepConfig(dims=(5,), ranks=(1,), states_per_cell=4, max_bases=8, seed=3)
        cell = run_completeness_sweep(config).cell(5, 1)
        assert len(cell.state_seed_keys) == 4
        ks = {k for k, _, _ in cell.failure_log}
        assert all(cell.failure_counts[k - 1] > 0 for k in ks)

    def test_rank2_uses_frobenius_criterion(self):
        config = SweepConfig(dims=(4,), ranks=(2,), states_per_cell=3, max_bases=10, seed=1)
        cell = run_completeness_sweep(config).cell(4, 2)
        assert cell.pass_cut == pytest.approx(np.sqrt(2e-5))

    def test_local_basis_sweep(self):
        config = SweepConfig(dims=(4,), ranks=(1,), basis_type="local",
                             states_per_cell=3, max_bases=10, seed=3)
        cell = run_completeness_sweep(config).cell(4, 1)
        assert cell.onset is not None


class TestMonotonicityInInformation:
    def test_noiseless_infidelity_never_increases_with_bases(self):
        # tight solver tolerance keeps the solver floor far below the slack
        spec = EstimatorSpec(convergence_tol=1e-13, max_iterations=60000)
        for seed in (0, 2):
            gen = np.random.default_rng(seed)
            d = 6
            state = random_pure_state(d, gen)
            mats = []
            values = []
            for _ in range(8):
                mats.append(haar_random_unitary(d, gen))
                povm = povm_from_bases(BasisSet(dim=d, bases=tuple(mats)))
                rec = noiseless_record(povm, state)
                res = estimate_least_squares(povm, rec, spec)
                values.append(infidelity(state, res.rho_hat))
            assert np.all(np.diff(values) <= 1e-8)


class TestNoisyProtocol:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NoisyProtocolConfig(dim=1)
        with pytest.raises(ValueError):
            NoisyProtocolConfig(dim=4, mixing=2.0)
        with pytest.raises(ValueError):
            NoisyProtocolConfig(dim=4, estimators=("ridge",))
        with pytest.raises(ValueError):
            NoisyProtocolConfig(dim=4, min_bases=5, max_bases=3)
        with pytest.raises(ValueError, match="power-of-two"):
            NoisyProtocolConfig(dim=6, basis_type="local")
        for field, value in [
            ("shots_per_basis", 2.5),
            ("shots_per_basis", True),
            ("noise_scale", 0.0),
            ("noise_scale", -1.0),
            ("noise_scale", np.nan),
        ]:
            with pytest.raises(ValueError, match=field):
                NoisyProtocolConfig(dim=4, **{field: value})
        assert NoisyProtocolConfig(dim=4, estimators=["trace_min"]).estimators == ("trace_min",)
        assert NoisyProtocolConfig(dim=11).resolved_shots == 3300

    def test_full_rank_likelihood_solves_certify(self):
        # bases and records are drawn lazily and in order, so this redraws the
        # k=1 and k=2 solves of the acceptance protocol fixture (d=11, seed
        # 11); their maxima are full rank, where the gradient iteration
        # alone can stall short of the certificate at the float64 floor: six
        # of these 40 solves ran to max_iterations that way
        result = run_noisy_protocol(
            NoisyProtocolConfig(dim=11, n_targets=20, max_bases=2, estimators=("max_likelihood",), seed=11)
        )
        reasons = result.stop_reasons["max_likelihood"]
        assert [sum(r.values()) for r in reasons] == [20, 20]
        assert all(set(r) == {"duality_gap"} for r in reasons)

    def test_every_solve_of_the_benchmark_target_certifies(self):
        # the one target of the benchmark's protocol workload (d=11, seed
        # 11, k=1..10, 300 * d shots): each of its 30 solves ends on its
        # program's certificate
        result = run_noisy_protocol(NoisyProtocolConfig(dim=11, n_targets=1, seed=11))
        expected = {
            "least_squares": "projected_gradient",
            "trace_min": "duality_gap",
            "max_likelihood": "duality_gap",
        }
        for est, reason in expected.items():
            assert result.stop_reasons[est] == ({reason: 1},) * 10

    def test_noiseless_limit_reaches_uniqueness_floor(self):
        # q=0 with exact records reduces to the uniqueness regime
        config = NoisyProtocolConfig(
            dim=5, n_targets=3, mixing=0.0, noiseless=True,
            estimators=("least_squares",), min_bases=5, max_bases=5, seed=4,
        )
        result = run_noisy_protocol(config)
        assert result.mean_curve("least_squares")[0] <= 1e-5

    def test_curves_shape_and_stderr(self):
        # the curve tables are the CLI's (test_cli.py); here the arrays
        # behind them
        config = NoisyProtocolConfig(
            dim=4, n_targets=3, shots_per_basis=400,
            estimators=("least_squares", "max_likelihood"), max_bases=3, seed=8,
        )
        result = run_noisy_protocol(config)
        assert result.basis_counts == (1, 2, 3)
        vals = result.infidelities["least_squares"]
        assert vals.shape == (3, 3)
        assert np.array_equal(result.stderr_curve("least_squares"), vals.std(axis=1, ddof=1) / np.sqrt(3))

    def test_local_basis_protocol_certifies(self):
        # two qubits measured in local random bases: every solve of each
        # program ends on its certificate
        config = NoisyProtocolConfig(dim=4, basis_type="local", n_targets=3, max_bases=4, seed=3)
        result = run_noisy_protocol(config)
        certified = {"projected_gradient", "projected_gradient_held", "duality_gap"}
        for est in config.estimators:
            reasons = result.stop_reasons[est]
            assert [sum(r.values()) for r in reasons] == [3] * 4
            assert all(set(r) <= certified for r in reasons), (est, reasons)

    def test_deterministic_and_pool_invariant(self):
        base = dict(dim=4, n_targets=3, shots_per_basis=300,
                    estimators=("least_squares",), max_bases=3, seed=8)
        r1 = run_noisy_protocol(NoisyProtocolConfig(**base))
        r2 = run_noisy_protocol(NoisyProtocolConfig(**base))
        r3 = run_noisy_protocol(NoisyProtocolConfig(**base, jobs=2))
        assert np.array_equal(r1.infidelities["least_squares"], r2.infidelities["least_squares"])
        assert np.array_equal(r1.infidelities["least_squares"], r3.infidelities["least_squares"])

    def test_all_three_estimators_run(self):
        config = NoisyProtocolConfig(dim=4, n_targets=2, shots_per_basis=500, max_bases=3, seed=2)
        result = run_noisy_protocol(config)
        assert set(result.infidelities) == {"least_squares", "trace_min", "max_likelihood"}
        for mat in result.infidelities.values():
            assert np.all(mat >= 0) and np.all(mat <= 1)

    def test_only_converged_estimates_are_reused(self, monkeypatch):
        # least squares starts from its own estimate at the previous basis
        # count and max likelihood from this record's least-squares estimate,
        # but only when that solve converged: a k=2 least-squares solve that
        # ran out leaves least squares at k=3 and max likelihood at k=2 cold
        starts = {"least_squares": [], "max_likelihood": []}
        outputs = []
        least_squares, max_likelihood = experiments.estimate_least_squares, experiments.estimate_max_likelihood

        def ls(povm, record, spec=None, *, start=None):
            starts["least_squares"].append(start)
            res = least_squares(povm, record, spec, start=start)
            outputs.append(replace(res, converged=False) if povm.n_bases == 2 else res)
            return outputs[-1]

        def mle(povm, record, spec=None, *, start=None):
            starts["max_likelihood"].append(start)
            return max_likelihood(povm, record, spec, start=start)

        monkeypatch.setattr(experiments, "estimate_least_squares", ls)
        monkeypatch.setattr(experiments, "estimate_max_likelihood", mle)
        run_noisy_protocol(NoisyProtocolConfig(
            dim=4, n_targets=1, shots_per_basis=400,
            estimators=("max_likelihood", "least_squares"), max_bases=4, seed=8,
        ))
        x = [res.X_hat for res in outputs]
        assert len(x) == 4
        ls_starts, mle_starts = starts["least_squares"], starts["max_likelihood"]
        assert ls_starts[0] is None and ls_starts[1] is x[0]
        assert ls_starts[2] is None and ls_starts[3] is x[2]
        assert mle_starts[0] is x[0] and mle_starts[1] is None
        assert mle_starts[2] is x[2] and mle_starts[3] is x[3]

    def test_estimator_order_leaves_every_result_unchanged(self):
        # least squares runs first at each basis count whatever the
        # configured order, so max likelihood always has its start
        base = dict(dim=4, n_targets=2, shots_per_basis=500, max_bases=4, seed=2)
        ref = run_noisy_protocol(NoisyProtocolConfig(**base))
        for order in (("max_likelihood", "trace_min", "least_squares"),
                      ("trace_min", "max_likelihood", "least_squares")):
            res = run_noisy_protocol(NoisyProtocolConfig(**base, estimators=order))
            for est in order:
                assert np.array_equal(res.infidelities[est], ref.infidelities[est])
                assert res.stop_reasons[est] == ref.stop_reasons[est]

    def test_trend_beyond_onset_confirmed_at_higher_shots(self):
        # the mean curve keeps (weakly) improving from the onset to onset+4;
        # rerunning with 10x the shots confirms the trend is not a noise
        # artifact of the reference shot count
        d, onset = 6, 4
        base = dict(dim=d, n_targets=8, estimators=("least_squares",),
                    min_bases=onset, max_bases=onset + 4, seed=20)
        for shots in (300 * d, 3000 * d):
            res = run_noisy_protocol(NoisyProtocolConfig(**base, shots_per_basis=shots))
            mean = res.mean_curve("least_squares")
            se = res.stderr_curve("least_squares")
            assert mean[-1] <= mean[0] + 2 * (se[0] + se[-1])


class TestRobustnessScan:
    def test_zero_noise_control(self):
        scan = run_robustness_scan(5, 1, 5, [1e-3], seed=3, repeats=2)
        assert scan.zero_noise_error <= 1e-5

    def test_slope_near_one(self):
        scan = run_robustness_scan(5, 1, 5, np.logspace(-4, -2, 5), seed=3, repeats=3)
        assert scan.slope == pytest.approx(1.0, abs=0.2)
        assert scan.errors.shape == (5, 3)

    def test_doubling_epsilon_roughly_doubles_error(self):
        scan = run_robustness_scan(6, 1, 6, [2e-3, 4e-3], seed=5, repeats=4)
        ratio = scan.mean_errors[1] / scan.mean_errors[0]
        assert 1.4 <= ratio <= 2.9

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            run_robustness_scan(4, 1, 4, [0.0, 1e-3])

    def test_rejects_bad_arguments(self):
        # 10**400 is a valid JSON number that no float holds
        for field, value in [("repeats", 0), ("n_bases", 0), ("epsilons", [10**400]), ("rank", 5)]:
            with pytest.raises(ValueError, match=field):
                run_robustness_scan(**{"dim": 4, "rank": 1, "n_bases": 4, "epsilons": [1e-3],
                                       field: value})

    def test_deterministic(self):
        s1 = run_robustness_scan(4, 1, 4, [1e-3], seed=6, repeats=2)
        s2 = run_robustness_scan(4, 1, 4, [1e-3], seed=6, repeats=2)
        assert np.array_equal(s1.errors, s2.errors)
