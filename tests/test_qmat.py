import tracemalloc

import numpy as np
import pytest

from vncap import qmat
from vncap.qmat import (
    MAX_DIMENSION,
    DensityMatrix,
    PureState,
    basis_state,
    clamp_spectrum,
    hermitian_eigenvalues,
    partial_trace,
    pure_marginal,
    pure_subsystem_spectrum,
    random_unitary,
    tensor,
)
from vncap.depolarizing import BIT_FLIP, BIT_PHASE_FLIP, PHASE_FLIP, q_basis

from reference import apply_unitary, promote_unitary, seeded_unitary

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_state(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_density(rng, dim):
    w = rng.random(dim) + 1e-9
    w /= w.sum()
    u = random_unitary(dim, int(rng.integers(0, 2**62)))
    return DensityMatrix(u @ np.diag(w.astype(complex)) @ u.conj().T, (dim,))


class TestTensor:
    def test_identity_factors(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_with_projector_entries(self):
        proj0 = np.array([[1, 0], [0, 0]], dtype=complex)
        out = tensor(SIGMA_X, proj0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 0] = 1.0
        expected[0, 2] = 1.0
        assert np.array_equal(out, expected)

    def test_phase_flip_pair_fixes_symmetric_bell_state(self):
        phi_plus = q_basis(0.5)[1]
        out = tensor(PHASE_FLIP, PHASE_FLIP) @ phi_plus.amplitudes
        assert np.allclose(out, phi_plus.amplitudes, atol=1e-15)

    def test_associative(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-13)

    def test_products_above_the_entry_cap_are_refused_before_any_allocation(self):
        """Two 70,000-entry vectors would ask ``np.kron`` for 4.9e9 entries (39 GB);
        the refusal allocates nothing near one factor's size."""
        a, b = np.ones(70_000), np.ones(70_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"above the cap of {MAX_DIMENSION**2}"):
                tensor(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes
        with pytest.raises(ValueError, match="1049600 entries"):
            tensor(np.ones(MAX_DIMENSION + 1), np.ones(MAX_DIMENSION))

    def test_a_product_at_the_entry_cap_is_accepted(self):
        assert tensor(np.ones(MAX_DIMENSION), np.ones((1, MAX_DIMENSION))).shape == (
            1,
            MAX_DIMENSION**2,
        )


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = q_basis(0.5)[2].projector()
        reduced = partial_trace(rho, {0})
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = DensityMatrix(tensor(rho_a.matrix, rho_b.matrix), (2, 3))
        assert np.allclose(partial_trace(joint, {0}).matrix, rho_a.matrix, atol=1e-13)
        assert np.allclose(partial_trace(joint, {1}).matrix, rho_b.matrix, atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 8)
        rho = DensityMatrix(rho.matrix, (2, 2, 2))
        for keep in ({0}, {1}, {2}, {0, 2}):
            assert abs(np.trace(partial_trace(rho, keep).matrix) - 1) < 1e-12

    def test_commutes_with_convex_mixtures(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r1 = random_density(rng, 4)
            r2 = random_density(rng, 4)
            w = rng.random()
            mixed = DensityMatrix(w * r1.matrix + (1 - w) * r2.matrix, (2, 2))
            lhs = partial_trace(mixed, {1}).matrix
            rhs = w * partial_trace(DensityMatrix(r1.matrix, (2, 2)), {1}).matrix + (
                1 - w
            ) * partial_trace(DensityMatrix(r2.matrix, (2, 2)), {1}).matrix
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_bad_subsystem_index(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="bad subsystem index"):
            partial_trace(rho, {2})
        with pytest.raises(ValueError, match="bad subsystem index"):
            partial_trace(rho, set())

    def test_matches_pure_marginal(self):
        rng = np.random.default_rng(8)
        psi = PureState(random_state(rng, 8), (2, 2, 2))
        for keep in ((0,), (1, 2), (0, 2)):
            a = partial_trace(psi.projector(), keep).matrix
            b = pure_marginal(psi, keep).matrix
            assert np.allclose(a, b, atol=1e-12)
            spec = np.sort(pure_subsystem_spectrum(psi, keep))[::-1]
            direct = hermitian_eigenvalues(a)[: spec.size]
            assert np.allclose(spec[: direct.size], direct, atol=1e-10)


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_pauli_spectrum_descending(self):
        assert np.allclose(hermitian_eigenvalues(SIGMA_X), [1.0, -1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            m = m + m.conj().T
            u = random_unitary(6, 100 + trial)
            a = hermitian_eigenvalues(m)
            b = hermitian_eigenvalues(u @ m @ u.conj().T)
            assert np.allclose(a, b, atol=1e-9)


class TestApplyUnitary:
    def test_identity_returns_same_state(self):
        rng = np.random.default_rng(3)
        psi = PureState(random_state(rng, 4), (2, 2))
        out = apply_unitary(np.eye(4), psi)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_bit_flip_sends_psi_minus_to_phi_minus(self):
        q = 0.3
        phi_minus, _, psi_minus, _ = q_basis(q)
        out = apply_unitary(tensor(BIT_FLIP, np.eye(2)), psi_minus)
        assert np.allclose(out.amplitudes, phi_minus.amplitudes, atol=1e-12)

    def test_bit_phase_flip_sends_psi_minus_to_mirrored_phi_plus(self):
        q = 0.3
        out = apply_unitary(tensor(BIT_PHASE_FLIP, np.eye(2)), q_basis(q)[2])
        expected = q_basis(1 - q)[1]
        assert np.allclose(out.amplitudes, expected.amplitudes, atol=1e-12)

    def test_rejects_non_unitary(self):
        psi = basis_state(2, 0)
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(np.array([[1.0, 0.0], [1.0, 1.0]]), psi)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_unitary(np.eye(4), basis_state(2, 0))

    def test_targets_agree_with_promoted_unitary(self):
        rng = np.random.default_rng(4)
        psi = PureState(random_state(rng, 16), (2, 2, 4))
        u = random_unitary(8, 99)
        via_targets = apply_unitary(u, psi, targets=(0, 2))
        via_promoted = apply_unitary(promote_unitary(u, (2, 2, 4), (0, 2)), psi)
        assert np.allclose(via_targets.amplitudes, via_promoted.amplitudes, atol=1e-12)


class TestPromoteUnitary:
    def test_single_qubit_placement(self):
        assert np.allclose(promote_unitary(SIGMA_X, (2, 2), (0,)), tensor(SIGMA_X, np.eye(2)))
        assert np.allclose(promote_unitary(SIGMA_X, (2, 2), (1,)), tensor(np.eye(2), SIGMA_X))

    def test_disjoint_targets_commute(self):
        u = random_unitary(2, 1)
        v = random_unitary(3, 2)
        dims = (2, 4, 3)
        a = promote_unitary(u, dims, (0,)) @ promote_unitary(v, dims, (2,))
        b = promote_unitary(v, dims, (2,)) @ promote_unitary(u, dims, (0,))
        assert np.allclose(a, b, atol=1e-12)
        assert np.allclose(a, tensor(tensor(u, np.eye(4)), v), atol=1e-12)


class TestRandomUnitary:
    def test_unitary_within_tolerance(self):
        for dim, seed in [(1, 0), (2, 1), (5, 2), (8, 3)]:
            u = random_unitary(dim, seed)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-10

    def test_scalar_case_has_unit_modulus(self):
        u = random_unitary(1, 77)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        a = random_unitary(6, 1234)
        b = random_unitary(6, 1234)
        assert np.array_equal(a, b)
        assert not np.allclose(a, random_unitary(6, 1235))


# Seeds at the word edges of SeedSequence's entropy: one word, two words, the top.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


class TestSeededStreams:
    """``_random_unitaries`` seeds every stream as ``np.random.default_rng(seed)``
    does, without building a generator per seed: ``_seed_states`` is numpy's
    SeedSequence hash on all seeds at once, and the unitaries equal the per-seed
    construction bit for bit."""

    def test_seed_states_equal_seed_sequence(self):
        seeds = EDGE_SEEDS + np.random.default_rng(27).integers(0, 2**63, 2000).tolist()
        seeds += np.random.default_rng(28).integers(0, 2**32, 200).tolist()  # one-word seeds
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        assert qmat._seed_states(seeds).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_unitaries_equal_the_per_seed_construction(self, dim):
        seeds = EDGE_SEEDS + np.random.default_rng(dim).integers(0, 2**63, 40).tolist()
        for seed, u in zip(seeds, qmat._random_unitaries(dim, seeds), strict=True):
            assert u.tobytes() == seeded_unitary(dim, seed).tobytes()
            assert random_unitary(dim, seed).tobytes() == u.tobytes()

    def test_interleaved_calls_share_no_state(self):
        """Calls whose streams alternate each still give the per-seed unitaries."""
        first, second = [3, 2**40, 9], [2**64 - 1, 0, 11]
        for dim, seeds in [(2, first), (8, second), (2, second), (8, first)]:
            got = qmat._random_unitaries(dim, seeds)
            assert got.tobytes() == np.array([seeded_unitary(dim, s) for s in seeds]).tobytes()


class TestClampSpectrum:
    def test_clamps_jitter_and_renormalizes(self):
        out = clamp_spectrum(np.array([0.7, 0.3, -1e-12]))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-15

    def test_rejects_genuinely_negative(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            clamp_spectrum(np.array([1.0, -1e-6]))


class TestStateValidation:
    def test_pure_state_must_be_normalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState([1.0, 1.0])

    def test_density_must_be_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_must_have_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_density_must_be_positive(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_dims_must_match(self):
        with pytest.raises(ValueError, match="dimensions"):
            PureState([1.0, 0.0, 0.0, 0.0], (2, 3))
