import warnings

import numpy as np
import pytest

from strictqst.errors import DimensionMismatch, NotHermitian
from strictqst.measurement import (
    BasisSet,
    MeasurementRecord,
    apply_map,
    hermitian_operator_basis,
    kernel_analysis,
    map_matrix,
    noiseless_record,
    povm_from_bases,
    sample_record,
)
from strictqst.quantum import QuantumState, global_random_bases, local_random_bases, random_pure_state

from oracles import kernel_basis_loop, map_matrix_loop
import properties


def computational_povm(d=2, k=1):
    return povm_from_bases(BasisSet(dim=d, bases=tuple(np.eye(d, dtype=complex) for _ in range(k))))


def effects(povm):
    """Effect matrices E_mu = weight * A^dag(e_mu), in contract order."""
    return [povm.weight * povm.adjoint_projectors(e) for e in np.eye(povm.n_outcomes)]


def reference_povms():
    rng = np.random.default_rng(8)
    povms = [povm_from_bases(global_random_bases(d, k, rng)) for d, k in ((3, 2), (8, 5), (16, 3))]
    povms.append(povm_from_bases(local_random_bases(3, 3, rng)))
    return povms


class TestPovmFromBases:
    def test_computational_basis_effects(self):
        e = effects(computational_povm())
        assert np.allclose(e[0], np.diag([1.0, 0.0]))
        assert np.allclose(e[1], np.diag([0.0, 1.0]))

    def test_effects_sum_to_identity(self, rng):
        povm = povm_from_bases(global_random_bases(5, 3, rng))
        total = sum(effects(povm))
        assert np.max(np.abs(total - np.eye(5))) <= 1e-9

    def test_effects_are_psd(self, rng):
        povm = povm_from_bases(global_random_bases(3, 2, rng))
        for e in effects(povm):
            assert np.linalg.eigvalsh(e).min() >= -1e-10

    def test_generic_map_rank(self, rng):
        # k bases in dimension d span k(d-1)+1 independent directions
        povm = povm_from_bases(global_random_bases(4, 3, rng))
        s = np.linalg.svd(map_matrix(povm), compute_uv=False)
        assert int(np.sum(s > 1e-9 * s[0])) == 3 * (4 - 1) + 1

    def test_rejects_non_finite_bases(self):
        for bad in (np.nan, np.inf):
            u = np.eye(2, dtype=complex)
            u[0, 0] = bad
            with pytest.raises(ValueError):
                povm_from_bases(BasisSet(dim=2, bases=(u,)))

    def test_rejects_inf_basis_without_warning(self):
        u = np.eye(3, dtype=complex)
        u[0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                BasisSet(dim=3, bases=(u,)).validate()


class TestOperatorNorm:
    def test_closed_form_matches_map_matrix(self, rng):
        # A^dag A is a sum of k pinchings, each an orthogonal projection
        # fixing I, so ||A|| = sqrt(k); map_matrix carries the 1/k weight
        one = global_random_bases(4, 1, rng).bases[0]
        for bases in (
            global_random_bases(5, 3, rng),
            local_random_bases(3, 4, rng),
            global_random_bases(6, 1, rng),
            BasisSet(dim=4, bases=(one, one, one)),
        ):
            povm = povm_from_bases(bases)
            k = povm.n_bases
            assert povm.operator_norm() == np.sqrt(k)
            sigma_max = np.linalg.svd(map_matrix(povm), compute_uv=False)[0]
            assert abs(k * sigma_max - np.sqrt(k)) <= 1e-12


class TestApplyMap:
    def test_maximally_mixed_uniform(self, rng):
        d, k = 4, 3
        povm = povm_from_bases(global_random_bases(d, k, rng))
        y = apply_map(povm, np.eye(d, dtype=complex) / d)
        assert np.allclose(y, 1.0 / (k * d), atol=1e-12)

    def test_computational_basis_state(self):
        povm = computational_povm()
        x = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(apply_map(povm, x), [1.0, 0.0], atol=1e-12)

    def test_plus_state_symmetry(self):
        povm = computational_povm()
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        assert np.allclose(apply_map(povm, plus), [0.5, 0.5], atol=1e-12)

    def test_dimension_mismatch(self, rng):
        povm = povm_from_bases(global_random_bases(3, 1, rng))
        with pytest.raises(DimensionMismatch):
            apply_map(povm, np.eye(4, dtype=complex))

    def test_rejects_non_finite_matrix(self, rng):
        povm = povm_from_bases(global_random_bases(2, 1, rng))
        for bad in (np.nan, np.inf):
            x = np.eye(2, dtype=complex)
            x[1, 1] = bad
            with pytest.raises(NotHermitian):
                apply_map(povm, x)

    def test_linearity_property(self):
        assert properties.map_linearity_violations(1000) == 0

    def test_trace_identity_property(self):
        assert properties.map_trace_identity_violations(1000) == 0


class TestRecords:
    def test_noiseless_blocks_sum_to_one(self, rng):
        d, k = 5, 4
        povm = povm_from_bases(global_random_bases(d, k, rng))
        rec = noiseless_record(povm, random_pure_state(d, rng))
        assert np.allclose(rec.blocks().sum(axis=1), 1.0, atol=1e-12)
        assert rec.kind == "noiseless"

    def test_sampled_counts_sum(self, rng):
        d, k, shots = 4, 3, 137
        povm = povm_from_bases(global_random_bases(d, k, rng))
        rec = sample_record(povm, random_pure_state(d, rng), shots, rng)
        counts = rec.blocks() * shots
        assert np.allclose(counts.sum(axis=1), shots)
        assert np.allclose(np.round(counts), counts)
        assert rec.kind == "sampled" and rec.shots_per_basis == shots

    def test_deterministic_eigenstate(self, rng):
        # an eigenstate of the measured basis always hits one outcome
        d = 3
        basis = global_random_bases(d, 1, rng).bases[0]
        psi = basis[:, 1]
        state = QuantumState(np.outer(psi, psi.conj()))
        povm = povm_from_bases(BasisSet(dim=d, bases=(basis,)))
        rec = sample_record(povm, state, 50, rng)
        assert np.allclose(rec.values, [0.0, 1.0, 0.0], atol=1e-12)

    def test_frequencies_within_multinomial_error(self, rng):
        d, k, shots = 4, 2, 100_000
        povm = povm_from_bases(global_random_bases(d, k, rng))
        state = random_pure_state(d, rng)
        p = noiseless_record(povm, state).values
        f = sample_record(povm, state, shots, rng).values
        sig = np.sqrt(np.clip(p * (1 - p), 1e-12, None) / shots)
        assert np.all(np.abs(f - p) <= 5.0 * sig + 1e-12)

    def test_noise_bound_formula(self, rng):
        d, k, shots = 4, 3, 1000
        povm = povm_from_bases(global_random_bases(d, k, rng))
        rec = sample_record(povm, random_pure_state(d, rng), shots, rng)
        assert rec.noise_bound == pytest.approx(1.5 * np.sqrt(k * d / shots))

    def test_multinomial_rate_property(self):
        assert properties.multinomial_consistency_violations() == 0

    def test_record_validation(self):
        with pytest.raises(ValueError):
            MeasurementRecord(dim=2, n_bases=1, values=np.array([0.7, 0.7]))
        with pytest.raises(DimensionMismatch):
            MeasurementRecord(dim=2, n_bases=2, values=np.array([0.5, 0.5]))
        for kind in ("noiseless", "sampled", "synthetic"):
            for values in ([np.nan, 0.5], [np.inf, 0.5], [np.inf, -np.inf]):
                with pytest.raises(ValueError):
                    MeasurementRecord(dim=2, n_bases=1, values=np.array(values), kind=kind)
        for bound in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                MeasurementRecord(dim=2, n_bases=1, values=np.array([0.5, 0.5]), noise_bound=bound)

    def test_rejects_inf_record_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                MeasurementRecord(dim=2, n_bases=1, values=np.array([np.inf, -np.inf]), kind="sampled")


class TestOperatorBasis:
    def test_orthonormal_and_hermitian(self):
        for d in (2, 3, 5):
            g = hermitian_operator_basis(d)
            assert g.shape == (d * d, d, d)
            gram = np.einsum("aij,bij->ab", g.conj(), g).real
            assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12
            for m in g:
                assert np.max(np.abs(m - m.conj().T)) < 1e-14

    def test_only_first_element_has_trace(self):
        g = hermitian_operator_basis(4)
        traces = np.einsum("aii->a", g)
        assert abs(traces[0] - np.sqrt(4)) < 1e-14
        assert np.max(np.abs(traces[1:])) < 1e-14


class TestMapMatrix:
    def test_matches_column_loop_reference(self):
        for povm in reference_povms():
            assert np.max(np.abs(map_matrix(povm) - map_matrix_loop(povm))) <= 1e-14

    def test_kernel_basis_matches_vector_loop_reference(self, rng):
        for povm in reference_povms():
            report = kernel_analysis(povm, r=1, n_probes=1, rng=rng)
            # same input bits, so the same SVD as inside kernel_analysis
            _, s, vt = np.linalg.svd(map_matrix(povm))
            rank = int(np.sum(s > 1e-9 * s[0]))
            reference = kernel_basis_loop(vt[rank:], povm.dim)
            assert len(report.kernel_basis) == len(reference) == report.kernel_dimension
            for k_mat, k_ref in zip(report.kernel_basis, reference):
                assert np.max(np.abs(k_mat - k_ref)) <= 1e-14
                assert np.array_equal(k_mat, k_mat.conj().T)


class TestKernelAnalysis:
    def test_informationally_complete_has_trivial_kernel(self, rng):
        # 4 bases at d=3 give rank min(9, 4*2+1) = 9: fully IC
        povm = povm_from_bases(global_random_bases(3, 4, rng))
        report = kernel_analysis(povm, r=1, n_probes=10, rng=rng)
        assert report.kernel_dimension == 0
        assert not report.strict_falsified and not report.completeness_falsified

    def test_single_qubit_basis_kernel(self, rng):
        # computational basis at d=2: kernel is span{sigma_x, sigma_y}
        povm = computational_povm()
        report = kernel_analysis(povm, r=1, n_probes=50, rng=rng)
        assert report.kernel_dimension == 2
        for k_mat in report.kernel_basis:
            assert abs(k_mat[0, 0]) < 1e-12 and abs(k_mat[1, 1]) < 1e-12

    def test_kernel_dimension_law(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d + 2))
            povm = povm_from_bases(global_random_bases(d, k, rng))
            report = kernel_analysis(povm, r=1, n_probes=1, rng=rng)
            assert report.kernel_dimension == d * d - min(d * d, k * (d - 1) + 1)

    def test_kernel_elements_traceless_and_annihilated(self, rng):
        povm = povm_from_bases(global_random_bases(4, 2, rng))
        report = kernel_analysis(povm, r=1, n_probes=20, rng=rng)
        for k_mat in report.kernel_basis:
            assert abs(np.trace(k_mat)) <= 1e-8
            assert np.linalg.norm(apply_map(povm, k_mat)) <= 1e-8

    def test_probe_finds_strictness_witness_when_kernel_is_shallow(self):
        # at d=4, k=2 some kernel elements have min(n+, n-) <= 1
        rng = np.random.default_rng(17)
        povm = povm_from_bases(global_random_bases(4, 2, rng))
        report = kernel_analysis(povm, r=1, n_probes=400, rng=rng)
        assert report.strict_falsified
        w = report.strict_witness
        lam = np.linalg.eigvalsh(w)
        cut = 1e-9 * np.linalg.norm(w)
        assert min(int((lam > cut).sum()), int((lam < -cut).sum())) <= 1

    def test_no_witness_at_reference_design(self):
        # 6 random bases at d=11 sit at the strict-completeness onset;
        # probing cannot certify, but it should not falsify either
        rng = np.random.default_rng(5)
        povm = povm_from_bases(global_random_bases(11, 6, rng))
        report = kernel_analysis(povm, r=1, n_probes=100, rng=rng)
        assert not report.strict_falsified

    def test_signatures_recorded_per_probe(self, rng):
        povm = povm_from_bases(global_random_bases(3, 1, rng))
        report = kernel_analysis(povm, r=1, n_probes=25, rng=rng)
        assert len(report.sampled_signatures) == 25
        for n_plus, n_minus in report.sampled_signatures:
            assert 0 <= n_plus + n_minus <= 3
