import builtins
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vncap.qmat import (
    DensityMatrix,
    PureState,
    hermitian_eigenvalues,
    partial_trace,
    pure_marginal,
    tensor,
)
from vncap import cli, depolarizing, entropy
from vncap.entropy import binary_entropy, venn2, venn3
from vncap.channel import KrausChannel, _branches, apply_channel, run_channel
from vncap.depolarizing import (
    BIT_FLIP,
    BIT_PHASE_FLIP,
    PHASE_FLIP,
    DepolParams,
    analytic_transcript,
    analytic_transcript_rows,
    build_dilation,
    classical_capacity,
    classical_use_channel_simulation,
    classical_use_ensemble,
    classical_use_transcript,
    classical_use_transcript_rows,
    dephasing_classical_rows,
    dephasing_kraus,
    dephasing_mutual,
    dephasing_transcript_rows,
    depolarizing_kraus,
    dilation_unitary,
    kholevo_chi,
    q_basis,
    quantum_capacity,
    superdense_scenario,
    superdense_threshold,
)

from reference import apply_unitary, dephasing_branches_per_p


class TestQBasis:
    def test_symmetric_point_gives_bell_states(self):
        phi_minus, phi_plus, psi_minus, psi_plus = q_basis(0.5)
        r = 1 / math.sqrt(2)
        assert np.allclose(phi_minus.amplitudes, [r, 0, 0, -r], atol=1e-12)
        assert np.allclose(phi_plus.amplitudes, [r, 0, 0, r], atol=1e-12)
        assert np.allclose(psi_minus.amplitudes, [0, -r, r, 0], atol=1e-12)
        assert np.allclose(psi_plus.amplitudes, [0, r, r, 0], atol=1e-12)

    def test_degenerate_point_gives_product_states(self):
        phi_minus, phi_plus, psi_minus, psi_plus = q_basis(0.0)
        assert np.allclose(phi_minus.amplitudes, [1, 0, 0, 0], atol=1e-12)
        assert np.allclose(phi_plus.amplitudes, [0, 0, 0, 1], atol=1e-12)
        assert np.allclose(psi_minus.amplitudes, [0, 0, 1, 0], atol=1e-12)
        assert np.allclose(psi_plus.amplitudes, [0, 1, 0, 0], atol=1e-12)

    def test_orthonormal_for_generic_bias(self):
        states = q_basis(0.3)
        gram = np.array(
            [[a.amplitudes.conj() @ b.amplitudes for b in states] for a in states]
        )
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_pauli_moves_within_family(self):
        q = 0.3
        phi_minus, phi_plus, psi_minus, psi_plus = q_basis(q)
        eye = np.eye(2)
        assert np.allclose(
            tensor(BIT_FLIP, eye) @ psi_minus.amplitudes, phi_minus.amplitudes,
            atol=1e-12,
        )
        assert np.allclose(
            tensor(BIT_PHASE_FLIP, eye) @ psi_minus.amplitudes,
            q_basis(1 - q)[1].amplitudes,
            atol=1e-12,
        )
        assert np.allclose(
            tensor(PHASE_FLIP, eye) @ psi_minus.amplitudes,
            q_basis(1 - q)[3].amplitudes,
            atol=1e-12,
        )


class TestKrausFamilies:
    def test_depolarizing_is_unital(self):
        rho = DensityMatrix(np.eye(2) / 2)
        out = apply_channel(depolarizing_kraus(0.3), rho)
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_depolarizing_shrinks_diagonal_bias(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        out = apply_channel(depolarizing_kraus(0.3), rho)
        assert np.allclose(out.matrix, np.diag([0.32, 0.68]), atol=1e-12)

    def test_dephasing_scales_off_diagonals(self):
        p = 0.3
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2)).projector()
        out = apply_channel(dephasing_kraus(p), plus)
        assert out.matrix[0, 1] == pytest.approx(0.5 * (1 - 2 * p), abs=1e-12)
        assert out.matrix[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError, match="outside"):
            depolarizing_kraus(1.2)
        with pytest.raises(ValueError, match="outside"):
            dephasing_kraus(-0.2)


class TestBuildDilation:
    def test_shapes(self):
        u, env = dilation_unitary(DepolParams(0.3, 0.2))
        assert u.shape == (8, 8)
        assert env.dims == (4,)
        ch, entangled = build_dilation(DepolParams(0.3, 0.2))
        assert (ch.input_dim, ch.env_dim) == (2, 4)
        assert entangled.dims == (2, 2)

    def test_output_state_is_branch_superposition(self):
        p, q = 0.3, 0.2
        u, env = dilation_unitary(DepolParams(p, q))
        ch, psi_minus = build_dilation(DepolParams(p, q))
        joint = PureState(tensor(psi_minus.amplitudes, env.amplitudes), (2, 2, 4))
        out = apply_unitary(u, joint, targets=(0, 2))
        branch_route = (_branches(ch), psi_minus.amplitudes.reshape(1, 2, 2))
        sent = depolarizing._send_rows(*branch_route)
        assert np.abs(sent.ravel() - out.amplitudes).max() <= 1e-12

        phi_minus, phi_plus, psi_minus_q, psi_plus = q_basis(q)
        expected = math.sqrt(1 - p) * tensor(
            psi_minus_q.amplitudes, psi_minus_q.amplitudes
        )
        expected += math.sqrt(p / 3) * tensor(
            phi_minus.amplitudes, phi_minus.amplitudes
        )
        expected += math.sqrt(p / 3) * tensor(
            q_basis(1 - q)[1].amplitudes, phi_plus.amplitudes
        )
        expected += math.sqrt(p / 3) * tensor(
            q_basis(1 - q)[3].amplitudes, psi_plus.amplitudes
        )
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_joint_output_matrix_is_branch_mixture(self):
        p, q = 0.3, 0.25
        u, env = dilation_unitary(DepolParams(p, q))
        psi_minus = q_basis(q)[2]
        joint = PureState(tensor(psi_minus.amplitudes, env.amplitudes), (2, 2, 4))
        out = apply_unitary(u, joint, targets=(0, 2))
        rho_qr = pure_marginal(out, (0, 1)).matrix

        phi_minus, phi_plus, psi_minus_q, psi_plus = q_basis(q)
        expected = (1 - p) * psi_minus_q.projector().matrix
        expected += (p / 3) * phi_minus.projector().matrix
        expected += (p / 3) * q_basis(1 - q)[1].projector().matrix
        expected += (p / 3) * q_basis(1 - q)[3].projector().matrix
        assert np.allclose(rho_qr, expected, atol=1e-12)

    def test_joint_spectrum_matches_closed_form(self):
        p, q = 0.3, 0.25
        u, env = dilation_unitary(DepolParams(p, q))
        psi_minus = q_basis(q)[2]
        joint = PureState(tensor(psi_minus.amplitudes, env.amplitudes), (2, 2, 4))
        out = apply_unitary(u, joint, targets=(0, 2))
        spectrum = hermitian_eigenvalues(pure_marginal(out, (0, 1)).matrix)
        delta = math.sqrt((1 - 2 * p / 3) ** 2 - (16 / 3) * p * (1 - p) * q * (1 - q))
        expected = sorted(
            [
                (2 * p / 3) * (1 - q),
                (2 * p / 3) * q,
                (1 - 2 * p / 3 + delta) / 2,
                (1 - 2 * p / 3 - delta) / 2,
            ],
            reverse=True,
        )
        assert np.allclose(spectrum, expected, atol=1e-9)

    def test_environment_basis_recovers_branch_weights(self):
        p = 0.3
        ch, _ = build_dilation(DepolParams(p, 0.5))
        basis = np.array([state.amplitudes for state in q_basis(0.5)])  # one per row
        ops = np.einsum("ke,eab->kab", basis.conj(), np.array(ch.operators))
        weights = sorted(
            float(np.real(np.trace(k.conj().T @ k))) / 2.0 for k in ops
        )
        assert np.allclose(weights, [0.1, 0.1, 0.1, 0.7], atol=1e-12)

    def test_noiseless_limit(self):
        t = run_channel(*_dilation_pair(0.0, 0.3))
        assert t.loss == pytest.approx(0.0, abs=1e-10)
        assert t.mutual_entanglement == pytest.approx(
            2 * binary_entropy(0.3), abs=1e-10
        )
        assert t.fidelity == pytest.approx(1.0, abs=1e-10)


def _dilation_pair(p, q):
    dil, entangled = build_dilation(DepolParams(p, q))
    return dil, pure_marginal(entangled, (0,))


class TestAnalyticTranscript:
    def test_symmetric_reference_point(self):
        t = analytic_transcript(DepolParams(0.3, 0.5))
        assert t.s_in == pytest.approx(1.0, abs=1e-12)
        assert t.s_out == pytest.approx(1.0, abs=1e-12)
        assert t.s_env == pytest.approx(1.3567796494470394, abs=1e-12)
        assert t.mutual_entanglement == pytest.approx(0.6432203505529606, abs=1e-12)
        assert t.fidelity == pytest.approx(0.7, abs=1e-12)

    def test_biased_fidelity(self):
        t = analytic_transcript(DepolParams(0.3, 0.2))
        assert t.fidelity == pytest.approx(0.736, abs=1e-12)

    def test_classical_input_has_no_loss(self):
        for p in (0.1, 0.4, 0.7):
            t = analytic_transcript(DepolParams(p, 0.0))
            assert t.s_in == 0.0
            assert t.loss == pytest.approx(0.0, abs=1e-12)
            assert t.coherent_info == pytest.approx(0.0, abs=1e-12)

    def test_worst_case_kills_mutual_entanglement(self):
        t = analytic_transcript(DepolParams(0.75, 0.5))
        assert t.mutual_entanglement == pytest.approx(0.0, abs=1e-12)

    def test_bias_symmetry(self):
        for p in (0.1, 0.3, 0.6):
            for q in (0.1, 0.25, 0.4):
                a = analytic_transcript(DepolParams(p, q))
                b = analytic_transcript(DepolParams(p, 1 - q))
                assert a.mutual_entanglement == pytest.approx(
                    b.mutual_entanglement, abs=1e-10
                )
                assert a.s_env == pytest.approx(b.s_env, abs=1e-10)
                assert a.fidelity == pytest.approx(b.fidelity, abs=1e-10)

    def test_agrees_with_simulation_on_grid(self):
        for p in (0.0, 0.1, 0.3, 0.6, 0.75):
            for q in (0.0, 0.2, 0.5, 0.9, 1.0):
                closed = analytic_transcript(DepolParams(p, q))
                sim = run_channel(*_dilation_pair(p, q))
                assert sim.s_in == pytest.approx(closed.s_in, abs=1e-9)
                assert sim.s_out == pytest.approx(closed.s_out, abs=1e-9)
                assert sim.s_env == pytest.approx(closed.s_env, abs=1e-9)
                assert sim.loss == pytest.approx(closed.loss, abs=1e-9)
                assert sim.mutual_entanglement == pytest.approx(
                    closed.mutual_entanglement, abs=1e-9
                )
                assert sim.coherent_info == pytest.approx(
                    closed.coherent_info, abs=1e-9
                )
                assert sim.fidelity == pytest.approx(closed.fidelity, abs=1e-9)

    def test_kraus_route_matches_dilation_route(self):
        for p, q in ((0.1, 0.3), (0.5, 0.5), (0.7, 0.1)):
            dil, rho = _dilation_pair(p, q)
            a = run_channel(dil, rho)
            b = run_channel(depolarizing_kraus(p), rho)
            assert a.mutual_entanglement == pytest.approx(
                b.mutual_entanglement, abs=1e-9
            )
            assert a.fidelity == pytest.approx(b.fidelity, abs=1e-9)


def _bits(values) -> list[str]:
    """Each value as its exact float, signed zeros apart."""
    return [float(v).hex() for v in values]


def _scalar_columns(p, q_values):
    """(S, S', S_e, L, I_Q, I_e, F_e, mutual, loss) columns from the scalar closed forms."""
    rows = []
    for q in q_values:
        t = analytic_transcript(DepolParams(p, q))
        rows.append(
            (t.s_in, t.s_out, t.s_env, t.loss, t.mutual_entanglement, t.coherent_info, t.fidelity)
            + classical_use_transcript(DepolParams(p, q))
        )
    return [_bits(column) for column in zip(*rows)]


def _row_columns(p, q_values):
    """The same columns from the array closed forms."""
    t = analytic_transcript_rows(p, q_values)
    quantum = (t.s_in, t.s_out, t.s_env, t.loss, t.mutual_entanglement, t.coherent_info, t.fidelity)
    return [_bits(column) for column in quantum + classical_use_transcript_rows(p, q_values)]


def _refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestTranscriptRows:
    """The array closed forms against the scalar ones, which are the reference."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        q_values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
    )
    @example(p=0.18, q_values=[0.6746893954347775])  # pow(1 - 2q, 2) differs from a product here
    @example(p=0.0, q_values=[0.0, 1.0, 0.5])
    @example(p=1.0, q_values=[0.0, 1.0, 0.5])
    @example(p=0.75, q_values=[0.0, 1.0, 0.5])
    def test_bit_for_bit(self, p, q_values):
        assert _row_columns(p, q_values) == _scalar_columns(p, q_values)

    def test_bit_for_bit_on_a_dense_grid(self):
        q_values = np.linspace(0.0, 1.0, 201).tolist() + [0.6746893954347775]
        for p in np.linspace(0.0, 1.0, 41).tolist() + [0.18]:
            assert _row_columns(p, q_values) == _scalar_columns(p, q_values)

    def test_bit_for_bit_under_compensated_sums(self, monkeypatch):
        """From Python 3.12 on the built-in sum compensates float sums; the twins
        must not depend on which Python runs them."""

        def compensated(items, start=0):
            items = list(items)
            if all(type(x) is float for x in items):
                return math.fsum([start, *items])
            return builtins.sum(items, start)

        monkeypatch.setattr(entropy, "sum", compensated, raising=False)
        self.test_bit_for_bit_on_a_dense_grid()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=1,
            max_size=16,
        )
    )
    # pow(1 - 2p/3, 2) differs from a product at this p, and S_e with it at this q: a twin
    # squaring with Python's ** 2 and the other with x * x fails here
    @example([(0.18, 0.6746893954347775), (0.9499711899996367, 0.005), (0.0, 0.5), (1.0, 0.0)])
    def test_p_array_bit_for_bit(self, pairs):
        """Aligned p and q arrays give each row the scalar forms' bits at its (p, q)."""
        ps, qs = (list(v) for v in zip(*pairs))
        points = (_scalar_columns(p, [q]) for p, q in pairs)  # 9 one-entry columns each
        assert _row_columns(ps, qs) == [sum(column, []) for column in zip(*points)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9, 1.0 + 1e-9, 1.5])
    def test_refuses_what_the_scalar_refuses(self, bad):
        for rows, scalar in (
            (analytic_transcript_rows, analytic_transcript),
            (classical_use_transcript_rows, classical_use_transcript),
            (dephasing_transcript_rows, analytic_transcript),
            (dephasing_classical_rows, classical_use_transcript),
        ):
            message = _refusal(lambda: scalar(DepolParams(bad, 0.3)))
            assert _refusal(lambda: rows(bad, [0.3])) == message
            assert _refusal(lambda: rows(np.array([0.2, bad, 0.4]), [0.3] * 3)) == message
            assert _refusal(lambda: rows([bad, 0.2], [bad, 0.3])) == message  # p first
            message = _refusal(lambda: scalar(DepolParams(0.3, bad)))
            assert _refusal(lambda: rows(0.3, [0.2, bad, 0.4])) == message
            assert _refusal(lambda: rows([0.1, 0.2, 0.3], [0.2, bad, 0.4])) == message

    @pytest.mark.parametrize("p", [[0.1, 0.2], [], [[0.1, 0.2, 0.3]]])
    def test_refuses_p_arrays_not_aligned_with_q(self, p):
        for rows in (
            analytic_transcript_rows,
            classical_use_transcript_rows,
            dephasing_transcript_rows,
            dephasing_classical_rows,
        ):
            with pytest.raises(ValueError, match="error probabilities for 3|flat list"):
                rows(p, [0.2, 0.3, 0.4])

    @pytest.mark.parametrize("dust", [-1e-13, -0.0, 1.0 + 1e-13])
    def test_clamps_what_the_scalar_clamps(self, dust):
        assert _row_columns(dust, [0.3, dust]) == _scalar_columns(dust, [0.3, dust])

    @pytest.mark.parametrize("p", [0.3, []])
    def test_empty_q_list(self, p):
        assert _row_columns(p, []) == [[]] * 9
        quantum = vars(dephasing_transcript_rows(p, [])).values()
        assert [v.shape for v in (*quantum, *dephasing_classical_rows(p, []))] == [(0,)] * 9

    @pytest.mark.parametrize("use", ["quantum", "classical"])
    def test_grid_is_one_batch(self, monkeypatch, use):
        """A sweep makes no scalar closed-form call; a capacity solve makes one per
        golden-section step and none for its 101 grid points."""
        calls = []
        for name in ("analytic_transcript", "classical_use_transcript"):
            point = getattr(depolarizing, name)
            monkeypatch.setattr(
                depolarizing, name, lambda params, point=point: calls.append(1) or point(params)
            )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["sweep", "--use", use]) == 0
        assert len(out.getvalue().splitlines()) == 1 + 16 * 51 and calls == []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["capacity", "--use", use, "--p", "0.37"]) == 0
        evaluations = int(out.getvalue().split("evaluations: ")[1].split()[0])
        assert evaluations > 101 and len(calls) == evaluations - 101


class TestCapacities:
    def test_quantum_capacity_endpoints(self):
        assert quantum_capacity(0.0) == pytest.approx(2.0, abs=1e-12)
        assert quantum_capacity(0.75) == pytest.approx(0.0, abs=1e-12)

    def test_quantum_capacity_reference_values(self):
        assert quantum_capacity(0.1) == pytest.approx(1.372508156338603, abs=1e-12)
        assert quantum_capacity(0.3) == pytest.approx(0.6432203505529606, abs=1e-12)

    def test_classical_capacity_endpoints(self):
        assert classical_capacity(0.0) == pytest.approx(1.0, abs=1e-12)
        assert classical_capacity(0.75) == pytest.approx(0.0, abs=1e-12)

    def test_classical_capacity_reference_values(self):
        assert classical_capacity(0.1) == pytest.approx(0.6466406649785786, abs=1e-12)
        assert classical_capacity(0.3) == pytest.approx(0.2780719051126377, abs=1e-12)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 0.75, 31)
        qc = [quantum_capacity(p) for p in grid]
        cc = [classical_capacity(p) for p in grid]
        assert all(a >= b - 1e-12 for a, b in zip(qc, qc[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(cc, cc[1:]))


class TestClassicalUse:
    def test_noiseless_channel(self):
        mutual, loss = classical_use_transcript(DepolParams(0.0, 0.3))
        assert mutual == pytest.approx(binary_entropy(0.3), abs=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_reference_point(self):
        mutual, loss = classical_use_transcript(DepolParams(0.3, 0.5))
        assert mutual == pytest.approx(0.2780719051126377, abs=1e-12)
        assert loss == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_biased_reference_point(self):
        mutual, loss = classical_use_transcript(DepolParams(0.3, 0.2))
        assert mutual == pytest.approx(0.18245336283713132, abs=1e-12)
        assert loss == pytest.approx(0.539474732050231, abs=1e-12)

    def test_mutual_plus_loss_is_source_entropy(self):
        for p in (0.0, 0.2, 0.5, 0.75):
            for q in (0.1, 0.3, 0.5):
                mutual, loss = classical_use_transcript(DepolParams(p, q))
                assert mutual + loss == pytest.approx(binary_entropy(q), abs=1e-12)

    def test_simulation_matches_closed_form(self):
        for p in (0.0, 0.1, 0.3, 0.6, 0.75):
            for q in (0.0, 0.2, 0.5, 0.8):
                closed = classical_use_transcript(DepolParams(p, q))
                ch, _ = build_dilation(DepolParams(p, q))
                sim = classical_use_channel_simulation(ch, q)
                assert sim[0] == pytest.approx(closed[0], abs=1e-9)
                assert sim[1] == pytest.approx(closed[1], abs=1e-9)

    def test_dephasing_transmits_classical_bits_perfectly(self):
        mutual, loss = classical_use_channel_simulation(dephasing_kraus(0.3), 0.2)
        assert mutual == pytest.approx(binary_entropy(0.2), abs=1e-9)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_rejects_large_inputs(self):
        from vncap.channel import identity_channel

        with pytest.raises(ValueError, match="single-qubit"):
            classical_use_channel_simulation(identity_channel(4), 0.5)


class TestKholevoChi:
    def test_orthogonal_pure_ensemble(self):
        from vncap.qmat import basis_state

        outputs = [basis_state(2, 0).projector(), basis_state(2, 1).projector()]
        assert kholevo_chi([0.5, 0.5], outputs) == pytest.approx(1.0, abs=1e-12)

    def test_identical_members_carry_nothing(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert kholevo_chi([0.4, 0.6], [rho, rho]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_classical_use_mutual(self):
        for q in (0.2, 0.5, 0.7):
            params = DepolParams(0.3, q)
            probs, outputs = classical_use_ensemble(params)
            chi = kholevo_chi(probs, outputs)
            mutual, _ = classical_use_transcript(params)
            assert chi == pytest.approx(mutual, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kholevo_chi([1.0], [])

    def test_dimension_mismatch(self):
        outputs = [DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(4) / 4)]
        with pytest.raises(ValueError, match="dimension mismatch"):
            kholevo_chi([0.5, 0.5], outputs)


class TestDephasing:
    def test_endpoint_values(self):
        assert dephasing_mutual(0.0) == pytest.approx(2.0, abs=1e-12)
        assert dephasing_mutual(0.5) == pytest.approx(1.0, abs=1e-12)
        assert dephasing_mutual(0.2) == pytest.approx(1.2780719051126377, abs=1e-12)

    def test_simulation_matches_closed_form(self):
        rho = DensityMatrix(np.eye(2) / 2)
        for p in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0):
            t = run_channel(dephasing_kraus(p), rho)
            assert t.mutual_entanglement == pytest.approx(
                dephasing_mutual(p), abs=1e-9
            )

    def test_full_flip_is_as_clean_as_no_flip(self):
        assert dephasing_mutual(1.0) == pytest.approx(2.0, abs=1e-12)

    def test_branch_table_equals_the_per_p_construction(self):
        """Bit for bit, signed zeros included: the table keeps the -0.0 of 0 * (-1)
        at p = 0."""
        ps = np.concatenate([np.linspace(0.0, 1.0, 100_001), [5e-324, 1.0 - 2.0**-53]])
        table = depolarizing._dephasing_branches(ps)
        assert table.tobytes() == dephasing_branches_per_p(ps.tolist()).tobytes()
        assert np.signbit(table[0].real).sum() == 1
        ops = np.stack(dephasing_kraus(0.3).operators, axis=1)[np.newaxis]
        assert ops.tobytes() == depolarizing._dephasing_branches(np.array([0.3])).tobytes()


class TestSuperdense:
    def test_noiseless_coding_carries_two_bits(self):
        report = superdense_scenario(0.0)
        assert report.conditional_mutual == pytest.approx(2.0, abs=1e-9)
        assert report.kholevo_chi == pytest.approx(2.0, abs=1e-9)

    def test_conditional_equals_kholevo(self):
        for p in (0.0, 0.1, 0.18928962490463164, 0.3):
            report = superdense_scenario(p)
            assert report.conditional_mutual == pytest.approx(
                report.kholevo_chi, abs=1e-9
            )

    def test_matches_peak_mutual_entanglement(self):
        for p in (0.05, 0.2, 0.4):
            report = superdense_scenario(p)
            assert report.kholevo_chi == pytest.approx(quantum_capacity(p), abs=1e-9)

    def test_matches_lifted_channel_route(self, monkeypatch):
        """The lifted route: the channel tensored with the identity on R, applied
        to each Bell projector, and the block-diagonal state built tag by tag.
        The mean output rho_bar that the Kholevo quantity reads is its (Q', R)
        marginal."""
        states = []
        post_init = DensityMatrix.__post_init__

        def recorded(self):
            post_init(self)
            states.append(self)

        for p in (0.0, 0.05, 0.2, 0.5, 0.75, 0.9, 1.0):
            lifted = KrausChannel(
                tuple(tensor(k, np.eye(2)) for k in depolarizing_kraus(p).operators)
            )
            rho = np.zeros((16, 16), dtype=np.complex128)
            for c, bell in enumerate(q_basis(0.5)):
                tag = np.zeros((4, 4), dtype=np.complex128)
                tag[c, c] = 0.25
                rho += tensor(tag, apply_channel(lifted, bell.projector()).matrix)
            reference = DensityMatrix(rho, (4, 2, 2))
            with monkeypatch.context() as m:
                m.setattr(DensityMatrix, "__post_init__", recorded)
                states.clear()
                report = superdense_scenario(p)
            (rho_bar,) = [s for s in states if s.dims == (2, 2)]
            marginal = partial_trace(reference, (1, 2))
            assert np.abs(rho_bar.matrix - marginal.matrix).max() <= 1e-12
            expected = (
                venn3(reference, ((1,), (2,), (0,))).mutual_ab,
                venn2(reference, ((1, 2), (0,))).mutual,
            )
            got = (report.conditional_mutual, report.kholevo_chi)
            assert np.abs(np.subtract(got, expected)).max() <= 1e-12

    def test_builds_no_lifted_channel(self, monkeypatch):
        input_dims = []
        post_init = KrausChannel.__post_init__

        def recorded(self):
            post_init(self)
            input_dims.append(self.input_dim)

        monkeypatch.setattr(KrausChannel, "__post_init__", recorded)
        monkeypatch.setattr(depolarizing, "apply_channel", None)  # any call would raise
        superdense_scenario(0.3)
        assert input_dims == [2]

    def test_threshold_value(self):
        threshold = superdense_threshold()
        assert threshold == pytest.approx(0.18928962490463164, abs=1e-9)
        assert threshold == 0.18928962490463164  # the bisection's float, to the last bit
        assert quantum_capacity(threshold) == pytest.approx(1.0, abs=1e-8)


class TestDepolParams:
    def test_clamps_float_dust(self):
        params = DepolParams(-1e-13, 1.0 + 1e-13)
        assert params.p == 0.0
        assert params.q == 1.0

    def test_rejects_genuinely_bad_values(self):
        with pytest.raises(ValueError, match="outside"):
            DepolParams(1.2, 0.5)
        with pytest.raises(ValueError, match="outside"):
            DepolParams(0.5, -0.2)
