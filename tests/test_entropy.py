import numpy as np
import pytest

from vncap.qmat import DensityMatrix, PureState, random_unitary, tensor
from vncap.entropy import (
    _spectrum_entropies,
    binary_entropy,
    check_prob_vector,
    classical_fano_bound,
    classical_mutual_information,
    pure_subsystem_entropy,
    relative_entropy_binary,
    shannon_entropy,
    venn2,
    venn3,
    von_neumann_entropy,
)
from vncap.channel import apply_channel
from vncap.depolarizing import LOG2_3, depolarizing_kraus, q_basis


def random_density(rng, dim, dims=None):
    w = rng.random(dim) + 1e-9
    w /= w.sum()
    u = random_unitary(dim, int(rng.integers(0, 2**62)))
    return DensityMatrix(u @ np.diag(w.astype(complex)) @ u.conj().T, dims)


def random_state(rng, dim, dims=None):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z), dims)


class TestBinaryEntropy:
    def test_symmetric_point_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        # -0.3*log2(0.3) - 0.7*log2(0.7)
        assert binary_entropy(0.3) == pytest.approx(0.8812908992306927, abs=1e-12)

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            binary_entropy(1.2)
        with pytest.raises(ValueError, match="probability"):
            binary_entropy(-0.1)


class TestShannonEntropy:
    def test_deterministic_distribution(self):
        assert shannon_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_uniform_four(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_depolarizing_branch_weights(self):
        # -0.7*log2(0.7) - 3*0.1*log2(0.1)
        value = shannon_entropy([0.7, 0.1, 0.1, 0.1])
        assert value == pytest.approx(1.3567796494470394, abs=1e-12)

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError, match="sum"):
            shannon_entropy([0.5, 0.4])
        with pytest.raises(ValueError, match="outside"):
            shannon_entropy([1.5, -0.5])
        with pytest.raises(ValueError, match="probability vector entry nan outside"):
            check_prob_vector([np.nan, 1.0])
        # -0.0 and dust within the slack come back clamped, -0.0 as +0.0
        for vec in ([-0.0, 1.0], [-1e-13, 1.0 + 1e-13]):
            got = check_prob_vector(vec)
            assert got.tolist() == [0.0, 1.0] and not np.signbit(got).any()


class TestRelativeEntropyBinary:
    def test_zero_when_equal(self):
        assert relative_entropy_binary(0.3, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_against_symmetric_reference(self):
        # 1 - H2(0.1)
        value = relative_entropy_binary(0.1, 0.5)
        assert value == pytest.approx(0.5310044064107188, abs=1e-12)

    def test_against_three_quarters_reference(self):
        # 0.1*log2(0.1/0.75) + 0.9*log2(0.9/0.25)
        value = relative_entropy_binary(0.1, 0.75)
        assert value == pytest.approx(1.3725081563386032, abs=1e-12)

    def test_edge_arguments(self):
        assert relative_entropy_binary(0.0, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert relative_entropy_binary(1.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_reference(self):
        with pytest.raises(ValueError, match="degenerate reference"):
            relative_entropy_binary(0.3, 0.0)
        with pytest.raises(ValueError, match="degenerate reference"):
            relative_entropy_binary(0.3, 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = rng.random()
            r = rng.uniform(0.01, 0.99)
            assert relative_entropy_binary(p, r) >= -1e-12


class TestVonNeumannEntropy:
    def test_pure_state_has_zero_entropy(self):
        rho = q_basis(0.3)[2].projector()
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_depolarized_diagonal_input(self):
        # Channel with flip weight 0.3 on diag(0.2, 0.8) has output
        # excitation 0.2 + 0.2*0.6 = 0.32, hence entropy H2(0.32).
        rho_in = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        rho_out = apply_channel(depolarizing_kraus(0.3), rho_in)
        assert von_neumann_entropy(rho_out) == pytest.approx(
            0.9043814577244939, abs=1e-9
        )

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_is_the_one_row_call_of_the_stacked_kernel(self, dim):
        """One implementation: the entropy of a density matrix is the kernel's
        clamp-and-log2 of its spectrum, bit for bit."""
        rng = np.random.default_rng(dim)
        for _ in range(50):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            wishart = z @ z.conj().T
            rho = DensityMatrix(wishart / np.trace(wishart).real)
            expected = float(_spectrum_entropies(rho.spectrum))
            assert von_neumann_entropy(rho).hex() == expected.hex()

    def test_unitary_invariance(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            rho = random_density(rng, 4)
            u = random_unitary(4, 300 + trial)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )


class TestVenn2:
    def test_bell_pair_regions(self):
        venn = venn2(q_basis(0.5)[2].projector(), ((0,), (1,)))
        assert venn.s_ab == pytest.approx(0.0, abs=1e-12)
        assert venn.s_a == pytest.approx(1.0, abs=1e-12)
        assert venn.cond_a_given_b == pytest.approx(-1.0, abs=1e-12)
        assert venn.cond_b_given_a == pytest.approx(-1.0, abs=1e-12)
        assert venn.mutual == pytest.approx(2.0, abs=1e-12)

    def test_product_state_has_zero_mutual(self):
        rng = np.random.default_rng(23)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = DensityMatrix(tensor(rho_a.matrix, rho_b.matrix), (2, 2))
        assert venn2(joint, ((0,), (1,))).mutual == pytest.approx(0.0, abs=1e-10)

    def test_classically_correlated_pair(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 0.5
        mat[3, 3] = 0.5
        venn = venn2(DensityMatrix(mat, (2, 2)), ((0,), (1,)))
        assert venn.mutual == pytest.approx(1.0, abs=1e-12)
        assert venn.cond_a_given_b == pytest.approx(0.0, abs=1e-12)
        assert venn.cond_b_given_a == pytest.approx(0.0, abs=1e-12)

    def test_mutual_bounded_by_twice_smaller_side(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            rho = random_density(rng, 8, (2, 4))
            venn = venn2(rho, ((0,), (1,)))
            assert venn.mutual <= 2.0 + 1e-9
            assert venn.mutual >= -1e-9

    def test_diagonal_state_matches_classical_mutual(self):
        rng = np.random.default_rng(25)
        table = rng.random((2, 2))
        table /= table.sum()
        rho = DensityMatrix(np.diag(table.ravel()).astype(complex), (2, 2))
        assert venn2(rho, ((0,), (1,))).mutual == pytest.approx(
            classical_mutual_information(table), abs=1e-10
        )

    def test_bad_partition(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="bad partition"):
            venn2(rho, ((0,), (0, 1)))


class TestVenn3:
    def test_noiseless_transfer_regions(self):
        # Reference state: maximally entangled pair carried through an
        # identity interaction with a trivial third system.
        rho = DensityMatrix(
            tensor(q_basis(0.5)[2].projector().matrix, np.eye(1)), (2, 2, 1)
        )
        venn = venn3(rho, ((0,), (1,), (2,)))
        assert venn.center == pytest.approx(0.0, abs=1e-12)
        assert venn.mutual_ab == pytest.approx(2.0, abs=1e-12)
        assert venn.cond_c == pytest.approx(0.0, abs=1e-12)

    def test_regions_recombine_to_subsystem_entropies(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            rho = random_density(rng, 8, (2, 2, 2))
            venn = venn3(rho, ((0,), (1,), (2,)))
            assert venn.s_a == pytest.approx(
                von_neumann_entropy(_marginal(rho, (0,))), abs=1e-9
            )
            assert venn.s_ab == pytest.approx(
                von_neumann_entropy(_marginal(rho, (0, 1))), abs=1e-9
            )
            assert venn.s_abc == pytest.approx(von_neumann_entropy(rho), abs=1e-9)

    def test_pure_tripartite_center(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            psi = random_state(rng, 8, (2, 2, 2))
            venn = venn3(psi.projector(), ((0,), (1,), (2,)))
            # For a pure overall state the three-way overlap region vanishes.
            assert venn.center == pytest.approx(0.0, abs=1e-9)

    def test_bad_partition(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(ValueError, match="bad partition"):
            venn3(rho, ((0,), (1,), (1, 2)))


def _marginal(rho, keep):
    from vncap.qmat import partial_trace

    return partial_trace(rho, keep)


class TestPureSubsystemEntropy:
    def test_matches_reduced_density_entropy(self):
        rng = np.random.default_rng(28)
        for _ in range(5):
            psi = random_state(rng, 12, (2, 3, 2))
            for keep in ((0,), (1,), (0, 2)):
                direct = von_neumann_entropy(_marginal(psi.projector(), keep))
                assert pure_subsystem_entropy(psi, keep) == pytest.approx(
                    direct, abs=1e-9
                )

    def test_complementary_cuts_agree(self):
        rng = np.random.default_rng(29)
        psi = random_state(rng, 16, (2, 2, 4))
        assert pure_subsystem_entropy(psi, (0,)) == pytest.approx(
            pure_subsystem_entropy(psi, (1, 2)), abs=1e-10
        )


class TestClassicalMutualInformation:
    def test_independent_table(self):
        table = np.outer([0.3, 0.7], [0.6, 0.4])
        assert classical_mutual_information(table) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_bits(self):
        table = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert classical_mutual_information(table) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_binary_noise(self):
        # Uniform input through a flip probability of 0.2: 1 - H2(0.2).
        table = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert classical_mutual_information(table) == pytest.approx(
            0.2780719051126377, abs=1e-12
        )

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError, match="sum"):
            classical_mutual_information(np.array([[0.5, 0.1], [0.1, 0.1]]))


class TestClassicalFanoBound:
    def test_zero_error_probability(self):
        assert classical_fano_bound(0.0, 4) == 0.0

    def test_reference_value(self):
        # H2(0.1) + 0.1*log2(3)
        assert classical_fano_bound(0.1, 4) == pytest.approx(
            0.6274918436613969, abs=1e-12
        )

    def test_binary_alphabet_drops_log_term(self):
        assert classical_fano_bound(0.3, 2) == pytest.approx(
            binary_entropy(0.3), abs=1e-15
        )

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ValueError, match="codeword count"):
            classical_fano_bound(0.1, 1)


class TestEntropyInequalities:
    def test_subadditivity_and_araki_lieb(self):
        rng = np.random.default_rng(30)
        for _ in range(15):
            rho = random_density(rng, 8, (2, 4))
            venn = venn2(rho, ((0,), (1,)))
            assert venn.s_ab <= venn.s_a + venn.s_b + 1e-9
            assert venn.s_ab >= abs(venn.s_a - venn.s_b) - 1e-9

    def test_branch_weights_reference_combination(self):
        # H2(p) + p*log2(3) at p = 0.1 equals the four-outcome entropy
        # with weights (1-p, p/3, p/3, p/3).
        p = 0.1
        combo = binary_entropy(p) + p * LOG2_3
        assert shannon_entropy([1 - p, p / 3, p / 3, p / 3]) == pytest.approx(
            combo, abs=1e-12
        )
