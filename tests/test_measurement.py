import warnings

import numpy as np
import pytest

from strictqst import measurement
from strictqst.errors import DimensionMismatch
from strictqst.linalg import signature
from strictqst.measurement import (
    BasisSet,
    _from_coordinates,
    MeasurementRecord,
    hermitian_operator_basis,
    kernel_analysis,
    map_matrix,
    noiseless_record,
    povm_from_bases,
    sample_record,
)
from strictqst.quantum import QuantumState, global_random_bases, local_random_bases, random_pure_state

from oracles import (
    adjoint_projectors_loop,
    kernel_basis_loop,
    map_matrix_loop,
    projector_values_loop,
    random_hermitian,
    sample_frequencies_loop,
)
import properties


def computational_povm(d=2, k=1):
    return povm_from_bases(BasisSet(dim=d, bases=tuple(np.eye(d, dtype=complex) for _ in range(k))))


def effects(povm):
    """Effect matrices E_mu = weight * A^dag(e_mu), in contract order."""
    return [povm.weight * povm.adjoint_projectors(e) for e in np.eye(povm.n_bases * povm.dim)]


def reference_povms():
    """Global, local, single-basis, repeated-basis and d=2 designs."""
    rng = np.random.default_rng(8)
    povms = [povm_from_bases(global_random_bases(d, k, rng)) for d, k in ((3, 2), (8, 5), (16, 3))]
    povms.append(povm_from_bases(local_random_bases(3, 3, rng)))
    povms.append(povm_from_bases(global_random_bases(6, 1, rng)))
    one = global_random_bases(5, 1, rng).bases[0]
    povms.append(povm_from_bases(BasisSet(dim=5, bases=(one, one, one))))
    # the smallest closed form: one off-diagonal pair, one diagonal column
    povms.append(povm_from_bases(global_random_bases(2, 2, rng)))
    return povms


def _replay(rng):
    """A generator that will draw exactly what rng draws next."""
    replay = np.random.Generator(type(rng.bit_generator)())
    replay.bit_generator.state = rng.bit_generator.state
    return replay


def null_space_probes(povm, g):
    """The normalised kernel components of the rows of g as matrices, from
    the null space of a full SVD of the loop-built map matrix, combined
    over the loop-built kernel basis."""
    _, s, vt = np.linalg.svd(map_matrix_loop(povm), full_matrices=True)
    null = vt[int(np.sum(s > 1e-9 * s[0])) :]
    c = g @ null.T
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    return list(np.tensordot(c, np.array(kernel_basis_loop(null, povm.dim)), axes=1))


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

    def test_rejects_wrong_shape_and_non_unitary_bases(self):
        with pytest.raises(DimensionMismatch, match="basis 0 has shape"):
            BasisSet(dim=3, bases=(np.eye(2),))
        with pytest.raises(ValueError, match="unitarity"):
            BasisSet(dim=2, bases=(np.eye(2), 2.0 * np.eye(2))).validate()

    def test_rejects_empty_basis_set(self):
        with pytest.raises(ValueError, match="at least one basis"):
            povm_from_bases(BasisSet(dim=3, bases=()))

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

    def test_traceless_lipschitz_matches_map_matrix(self, rng):
        # column 0 of map_matrix is the identity direction; the rest span
        # the traceless matrices, and k * sigma_max of them is ||A|| there
        one = global_random_bases(4, 1, rng).bases[0]
        cases = [
            (global_random_bases(5, 3, rng), None),
            (global_random_bases(8, 6, rng), None),
            (local_random_bases(3, 4, rng), None),
            (global_random_bases(6, 1, rng), 1.0),
            (BasisSet(dim=4, bases=(one, one)), 2.0),
        ]
        for bases, exact in cases:
            povm = povm_from_bases(bases)
            k = povm.n_bases
            sigma_max = np.linalg.svd(map_matrix(povm)[:, 1:], compute_uv=False)[0]
            want = (k * sigma_max) ** 2
            got = povm.traceless_lipschitz
            assert want - 1e-12 <= got <= min(want + 1e-10, k)
            if exact is not None:
                assert got == exact
            else:
                assert got < k - 0.1


class TestProjectorValues:
    def test_maximally_mixed_uniform(self, rng):
        d, k = 4, 3
        povm = povm_from_bases(global_random_bases(d, k, rng))
        y = povm.projector_values(np.eye(d, dtype=complex) / d)
        assert np.allclose(y, 1.0 / d, atol=1e-12)

    def test_computational_basis_state(self):
        povm = computational_povm()
        x = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(povm.projector_values(x), [1.0, 0.0], atol=1e-12)

    def test_plus_state_symmetry(self):
        povm = computational_povm()
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        assert np.allclose(povm.projector_values(plus), [0.5, 0.5], atol=1e-12)

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

    def test_one_multinomial_call_matches_per_basis_loop(self):
        # the same frequencies and the same generator state afterwards as one
        # multinomial call per basis on the renormalised exact blocks
        gen = np.random.default_rng(21)
        for _ in range(60):
            d, k, shots = int(gen.integers(2, 12)), int(gen.integers(1, 8)), int(gen.integers(1, 5001))
            povm = povm_from_bases(global_random_bases(d, k, gen))
            state = random_pure_state(d, gen)
            seed = int(gen.integers(2**32))
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            rec = sample_record(povm, state, shots, rng)
            assert np.array_equal(rec.values, sample_frequencies_loop(povm, state, shots, ref))
            assert rng.bit_generator.state == ref.bit_generator.state

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
        with pytest.raises(ValueError, match="kind must be one of"):
            MeasurementRecord(dim=2, n_bases=1, values=np.array([0.5, 0.5]), kind="simulated")
        # a negative entry is kept only in a synthetic record
        for kind in ("noiseless", "sampled"):
            with pytest.raises(ValueError, match="negative record entry"):
                MeasurementRecord(dim=2, n_bases=1, values=np.array([1.5, -0.5]), kind=kind)
        MeasurementRecord(dim=2, n_bases=1, values=np.array([1.5, -0.5]), kind="synthetic")

    def test_noiseless_record_rejects_state_of_another_dimension(self):
        with pytest.raises(DimensionMismatch, match="state dim 3 vs POVM dim 2"):
            noiseless_record(computational_povm(), QuantumState(np.eye(3) / 3))

    def test_shots_per_basis_validation(self, rng):
        values = np.array([0.5, 0.5])
        for shots in (None, 1, np.int64(7)):
            MeasurementRecord(dim=2, n_bases=1, values=values, kind="sampled", shots_per_basis=shots)
        povm = computational_povm()
        for shots in (-3, 0, 2.5, True, 4.0):
            with pytest.raises(ValueError, match="shots_per_basis"):
                MeasurementRecord(dim=2, n_bases=1, values=values, kind="sampled", shots_per_basis=shots)
            # rejected before any draw, so the generator is not advanced
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match="shots_per_basis"):
                sample_record(povm, QuantumState(np.eye(2) / 2), shots, rng)
            assert rng.bit_generator.state == before

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


class TestMapProducts:
    def test_projector_values_match_per_basis_loop(self, rng):
        for povm in reference_povms():
            x = random_hermitian(povm.dim, rng)
            ref = projector_values_loop(povm, x)
            assert np.max(np.abs(povm.projector_values(x) - ref)) <= 1e-13

    def test_adjoint_projectors_match_per_basis_loop(self, rng):
        for povm in reference_povms():
            r = rng.standard_normal(povm.n_bases * povm.dim)
            out = povm.adjoint_projectors(r)
            assert np.max(np.abs(out - adjoint_projectors_loop(povm, r))) <= 1e-13
            assert np.array_equal(out, out.conj().T)

    def test_adjoint_identity(self, rng):
        # <A[X], r> = Tr(X A^dag[r]) for Hermitian X and real r
        for povm in reference_povms():
            for _ in range(5):
                x = random_hermitian(povm.dim, rng)
                r = rng.standard_normal(povm.n_bases * povm.dim)
                lhs = povm.projector_values(x) @ r
                rhs = np.trace(x @ povm.adjoint_projectors(r))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
                assert abs(rhs.imag) <= 1e-12 * max(1.0, abs(lhs))


class TestMapMatrix:
    def test_matches_column_loop_reference(self):
        for povm in reference_povms():
            assert np.max(np.abs(map_matrix(povm) - map_matrix_loop(povm))) <= 1e-14

    def test_probes_match_null_space_oracle(self, rng):
        for povm in reference_povms():
            # every reference design has a kernel, so every call draws
            replay = _replay(rng)
            report = kernel_analysis(povm, r=1, n_probes=20, rng=rng)
            probes = null_space_probes(povm, replay.standard_normal((20, povm.dim**2)))
            assert rng.bit_generator.state == replay.bit_generator.state
            assert [signature(p) for p in probes] == list(report.sampled_signatures)
            for witness, falsifies in (
                (report.strict_witness, lambda sig: min(sig) <= 1),
                (report.completeness_witness, lambda sig: max(sig) <= 1),
            ):
                i = next((n for n, sig in enumerate(report.sampled_signatures) if falsifies(sig)), None)
                if i is None:
                    assert witness is None
                else:
                    assert np.max(np.abs(witness - probes[i])) <= 1e-13
                    assert np.array_equal(witness, witness.conj().T)

    def test_coordinate_scatter_reproduces_operator_basis(self):
        # kernel vectors carry no identity coordinate, so only unit
        # coordinates reach every term of the closed-form scatter
        for d in (1, 2, 3, 5):
            g = _from_coordinates(np.eye(d * d), d)
            assert np.max(np.abs(g - hermitian_operator_basis(d))) <= 1e-15


class TestKernelAnalysis:
    def test_informationally_complete_has_trivial_kernel(self, rng):
        # 4 bases at d=3 give rank min(9, 4*2+1) = 9: fully IC
        povm = povm_from_bases(global_random_bases(3, 4, rng))
        report = kernel_analysis(povm, r=1, n_probes=10, rng=rng)
        assert report.kernel_dimension == 0
        assert report.strict_witness is None and report.completeness_witness is None

    def test_single_qubit_basis_kernel(self, rng):
        # computational basis at d=2: kernel is span{sigma_x, sigma_y}, whose
        # elements all have signature (1, 1), so the first probe is both witnesses
        povm = computational_povm()
        report = kernel_analysis(povm, r=1, n_probes=50, rng=rng)
        assert report.kernel_dimension == 2
        witnesses = (report.strict_witness, report.completeness_witness)
        assert all(w is not None for w in witnesses)
        for k_mat in witnesses:
            assert abs(k_mat[0, 0]) < 1e-12 and abs(k_mat[1, 1]) < 1e-12

    def test_kernel_dimension_law(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d + 2))
            povm = povm_from_bases(global_random_bases(d, k, rng))
            report = kernel_analysis(povm, r=1, n_probes=1, rng=rng)
            assert report.kernel_dimension == d * d - min(d * d, k * (d - 1) + 1)

    def test_kernel_elements_traceless_and_annihilated(self, rng):
        # at r=2 every traceless 4x4 probe falsifies strictness and a (2, 2)
        # probe falsifies completeness, so 20 probes give both witnesses
        povm = povm_from_bases(global_random_bases(4, 2, rng))
        report = kernel_analysis(povm, r=2, n_probes=20, rng=rng)
        witnesses = (report.strict_witness, report.completeness_witness)
        assert all(w is not None for w in witnesses)
        for k_mat in witnesses:
            assert abs(np.trace(k_mat)) <= 1e-8
            assert np.linalg.norm(povm.projector_values(k_mat)) <= 1e-8

    def test_probe_finds_strictness_witness_when_kernel_is_shallow(self):
        # at d=4, k=2 some kernel elements have min(n+, n-) <= 1; the probes
        # are one (n_probes, d^2) standard-normal draw projected onto the
        # kernel, rows normalised, and the witness is the first falsifying row
        rng = np.random.default_rng(17)
        povm = povm_from_bases(global_random_bases(4, 2, rng))
        replay = _replay(rng)
        report = kernel_analysis(povm, r=1, n_probes=400, rng=rng)
        w = report.strict_witness
        assert w is not None
        # a read-only copy: a row view would pin all 400 probes, writably
        assert w.base is None and not w.flags.writeable
        lam = np.linalg.eigvalsh(w)
        cut = 1e-9 * np.linalg.norm(w)
        assert min(int((lam > cut).sum()), int((lam < -cut).sum())) <= 1
        assert np.array_equal(w, w.conj().T)
        assert np.linalg.norm(povm.projector_values(w)) <= 1e-10 * np.linalg.norm(w)
        g = replay.standard_normal((400, 16))
        assert rng.bit_generator.state == replay.bit_generator.state
        i = next(n for n, sig in enumerate(report.sampled_signatures) if min(sig) <= 1)
        expected = null_space_probes(povm, g[i : i + 1])[0]
        assert np.max(np.abs(w - expected)) <= 1e-13

    def test_gram_eigh_only(self, rng, monkeypatch):
        # the row space comes from the kd x kd Gram matrix, never from an SVD
        # of the d^2-wide map matrix: one eigh of the Gram matrix per call,
        # then one of the small Gram matrix of the rows it leaves, which for
        # these generic designs is (kd - rank) square
        shapes = []
        real_eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_eigh(a, *args, **kwargs)

        def no_svd(*args, **kwargs):
            raise AssertionError("kernel_analysis asked numpy for an SVD")

        monkeypatch.setattr(measurement.np.linalg, "eigh", spy)
        monkeypatch.setattr(measurement.np.linalg, "svd", no_svd)
        for povm in reference_povms():
            shapes.clear()
            report = kernel_analysis(povm, r=1, n_probes=2, rng=rng)
            m = povm.n_bases * povm.dim
            rest = m - (povm.dim**2 - report.kernel_dimension)
            assert shapes == [(m, m), (rest, rest)]

    def test_rank_matches_full_svd_survey(self, monkeypatch):
        # the kernel dimension is d^2 minus the rank a full SVD finds at
        # null_space_probes' cut, and every probe is annihilated; the
        # smallest kept squared singular value here is 6.5e-8 of the
        # largest, at the near-square d=14, k=15 (k = d + 1, full rank)
        probes = []

        def spy(a):
            probes.append(a)
            return signature(a)

        monkeypatch.setattr(measurement, "signature", spy)
        rng = np.random.default_rng(27)
        designs = [global_random_bases(d, k, rng) for d in range(1, 17) for k in range(1, d + 4)]
        designs += [local_random_bases(n, k, rng) for n in range(1, 5) for k in range(1, 2**n + 4)]
        for d in (2, 3, 5, 8):
            one = global_random_bases(d, 1, rng).bases[0]
            three = global_random_bases(d, 3, rng).bases
            designs += [BasisSet(dim=d, bases=(one,) * 4), BasisSet(dim=d, bases=three + three[:2])]
        for bases in designs:
            povm = povm_from_bases(bases)
            s = np.linalg.svd(map_matrix(povm), compute_uv=False)
            probes.clear()
            report = kernel_analysis(povm, r=1, n_probes=8, rng=rng)
            assert report.kernel_dimension == povm.dim**2 - int(np.sum(s > 1e-9 * s[0]))
            assert len(probes) == (report.kernel_dimension > 0)
            for p in probes:
                assert len(p) == 8
                for x in p:
                    assert np.linalg.norm(povm.projector_values(x)) <= 1e-12

    def test_rank_below_the_gram_floor(self):
        # at d=5, k=6 the map is square in rank (k(d-1)+1 = d^2), and this
        # draw's smallest singular value is 4.5e-7 of the largest: its Gram
        # eigenvalue, 2e-13 of the largest, lies below the split under which
        # the Gram matrix alone is not trusted, so only the second eigh keeps
        # it, and the map is full rank as an SVD finds
        povm = povm_from_bases(global_random_bases(5, 6, np.random.default_rng(860)))
        s = np.linalg.svd(map_matrix(povm), compute_uv=False)
        assert s[-1] / s[0] > 1e-9 and (s[-1] / s[0]) ** 2 < 1e-12
        report = kernel_analysis(povm, r=1, n_probes=1, rng=np.random.default_rng(0))
        assert report.kernel_dimension == 0

    def test_no_witness_at_reference_design(self):
        # 6 random bases at d=11 sit at the strict-completeness onset;
        # probing cannot certify, but it should not falsify either
        rng = np.random.default_rng(5)
        povm = povm_from_bases(global_random_bases(11, 6, rng))
        report = kernel_analysis(povm, r=1, n_probes=100, rng=rng)
        assert report.strict_witness is None

    def test_signatures_recorded_per_probe(self, rng):
        povm = povm_from_bases(global_random_bases(3, 1, rng))
        report = kernel_analysis(povm, r=1, n_probes=25, rng=rng)
        assert len(report.sampled_signatures) == 25
        for n_plus, n_minus in report.sampled_signatures:
            assert 0 <= n_plus + n_minus <= 3
