import json

import numpy as np
import pytest

from vncap.qmat import (
    DensityMatrix,
    PureState,
    apply_unitary,
    basis_state,
    partial_trace,
    promote_unitary,
    pure_marginal,
    random_unitary,
    tensor,
)
from vncap.entropy import binary_entropy, pure_subsystem_entropy, venn2
from vncap.channel import (
    ChannelTranscript,
    DilationChannel,
    KrausChannel,
    apply_channel,
    as_dilation,
    chain,
    dilation_from_kraus,
    entanglement_fidelity,
    identity_channel,
    kraus_channel_from_json,
    kraus_channel_to_json,
    kraus_from_dilation,
    parallel,
    purify,
    quantum_fano_bound,
    run_channel,
    transcript_identity_residuals,
    transcript_slacks,
)
from vncap.depolarizing import (
    DepolParams,
    analytic_transcript,
    build_dilation,
    classical_use_channel_simulation,
    dephasing_kraus,
    depolarizing_kraus,
)


def random_density(rng, dim, dims=None):
    w = rng.random(dim) + 1e-9
    w /= w.sum()
    u = random_unitary(dim, int(rng.integers(0, 2**62)))
    return DensityMatrix(u @ np.diag(w.astype(complex)) @ u.conj().T, dims)


def random_channel(seed, dim=2, env_dim=4):
    u = random_unitary(dim * env_dim, seed)
    return DilationChannel(u, env_dim, basis_state(env_dim, 0))


def reference_output(ch: DilationChannel, rho: DensityMatrix) -> np.ndarray:
    """Channel action computed by explicit conjugation and a partial trace."""
    env = ch.env_initial.projector().matrix
    joint = DensityMatrix(
        ch.u_qe @ tensor(rho.matrix, env) @ ch.u_qe.conj().T,
        (rho.dim, ch.env_dim),
    )
    return partial_trace(joint, {0}).matrix


class TestPurify:
    def test_pure_input_gives_product_purification(self):
        rho = basis_state(2, 1).projector()
        psi = purify(rho)
        reduced = partial_trace(psi.projector(), {0})
        assert np.allclose(reduced.matrix, rho.matrix, atol=1e-12)
        # Reference side carries no correlations for a pure input.
        assert venn2(psi.projector(), ((0,), (1,))).mutual == pytest.approx(
            0.0, abs=1e-10
        )

    def test_schmidt_coefficients_descend(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        psi = purify(rho)
        mat = psi.amplitudes.reshape(2, 2)
        coeffs = np.linalg.svd(mat, compute_uv=False)
        assert np.allclose(coeffs, [np.sqrt(0.7), np.sqrt(0.3)], atol=1e-12)

    def test_round_trip_marginal(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3, 4):
            rho = random_density(rng, dim)
            psi = purify(rho)
            reduced = partial_trace(psi.projector(), {0})
            assert np.allclose(reduced.matrix, rho.matrix, atol=1e-10)

    def test_maximally_mixed_purifies_to_maximal_entanglement(self):
        psi = purify(DensityMatrix(np.eye(2) / 2))
        assert venn2(psi.projector(), ((0,), (1,))).mutual == pytest.approx(
            2.0, abs=1e-10
        )


class TestRepresentationConversion:
    def test_identity_dilation_yields_single_kraus(self):
        ch = kraus_from_dilation(identity_channel(2))
        assert len(ch.operators) == 1
        assert np.allclose(ch.operators[0], np.eye(2), atol=1e-12)

    def test_kraus_from_dilation_matches_conjugation(self):
        rng = np.random.default_rng(32)
        for seed in (1, 2, 3):
            dil = random_channel(seed)
            kr = kraus_from_dilation(dil)
            for _ in range(5):
                rho = random_density(rng, 2)
                out = apply_channel(kr, rho).matrix
                assert np.allclose(out, reference_output(dil, rho), atol=1e-12)

    def test_dilation_from_kraus_matches_conjugation(self):
        rng = np.random.default_rng(33)
        base = kraus_from_dilation(random_channel(7))
        dil = dilation_from_kraus(base)
        for _ in range(5):
            rho = random_density(rng, 2)
            out = apply_channel(base, rho).matrix
            assert np.allclose(out, reference_output(dil, rho), atol=1e-12)

    def test_round_trip_preserves_channel_action(self):
        rng = np.random.default_rng(34)
        kr = depolarizing_kraus(0.3)
        back = kraus_from_dilation(dilation_from_kraus(kr))
        for _ in range(5):
            rho = random_density(rng, 2)
            a = apply_channel(kr, rho).matrix
            b = apply_channel(back, rho).matrix
            assert np.allclose(a, b, atol=1e-12)

    def test_environment_basis_change_keeps_channel(self):
        rng = np.random.default_rng(35)
        dil = random_channel(11)
        rotated = kraus_from_dilation(dil, env_basis=random_unitary(4, 12))
        for _ in range(5):
            rho = random_density(rng, 2)
            assert np.allclose(
                apply_channel(rotated, rho).matrix, reference_output(dil, rho),
                atol=1e-12,
            )

    def test_kraus_completeness_enforced(self):
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel((np.eye(2) * 0.5,))

    def test_dilation_unitarity_enforced(self):
        with pytest.raises(ValueError, match="not unitary"):
            DilationChannel(np.ones((4, 4)), 2, basis_state(2, 0))


class TestRunChannel:
    def test_identity_transcript(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        t = run_channel(identity_channel(2), rho)
        h = binary_entropy(0.2)
        assert t.s_in == pytest.approx(h, abs=1e-10)
        assert t.s_out == pytest.approx(h, abs=1e-10)
        assert t.s_env == pytest.approx(0.0, abs=1e-10)
        assert t.loss == pytest.approx(0.0, abs=1e-10)
        assert t.mutual_entanglement == pytest.approx(2 * h, abs=1e-10)
        assert t.coherent_info == pytest.approx(h, abs=1e-10)
        assert t.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_output_entropy_matches_output_state(self):
        rng = np.random.default_rng(36)
        dil = random_channel(21)
        rho = random_density(rng, 2)
        t = run_channel(dil, rho)
        from vncap.entropy import von_neumann_entropy

        rho_out = DensityMatrix(reference_output(dil, rho))
        assert t.s_out == pytest.approx(von_neumann_entropy(rho_out), abs=1e-9)

    def test_fidelity_matches_entanglement_fidelity(self):
        rng = np.random.default_rng(37)
        for seed in (41, 42):
            kr = kraus_from_dilation(random_channel(seed))
            rho = random_density(rng, 2)
            t = run_channel(kr, rho)
            psi_qr = purify(rho)
            lifted = KrausChannel(tuple(tensor(k, np.eye(2)) for k in kr.operators))
            rho_out = apply_channel(lifted, psi_qr.projector())
            rho_out = DensityMatrix(rho_out.matrix, (2, 2))
            assert t.fidelity == pytest.approx(
                entanglement_fidelity(psi_qr.projector(), rho_out), abs=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_channel(identity_channel(2), DensityMatrix(np.eye(4) / 4))

    def test_return_state_exposes_tripartite_factors(self):
        t, state = run_channel(
            identity_channel(2), DensityMatrix(np.eye(2) / 2), return_state=True
        )
        assert state.dims == (2, 2, 1)
        assert isinstance(t, ChannelTranscript)


def unitary_run(ch, amps_q_first, dims):
    """The full-unitary path: |input> (tensor) |env_initial>, then U on (Q, E).

    ``amps_q_first`` is a pure state on ``dims`` with Q as its first factor;
    the result carries the environment as a new last factor.
    """
    dil = as_dilation(ch)
    joint = PureState(tensor(amps_q_first, dil.env_initial.amplitudes), dims + (dil.env_dim,))
    return apply_unitary(dil.u_qe, joint, targets=(0, len(dims)))


BRANCH_CHANNELS = {
    **{f"depolarizing({p})": depolarizing_kraus(p) for p in (0.0, 0.1, 0.5, 0.75)},
    **{f"dephasing({p})": dephasing_kraus(p) for p in (0.0, 0.3, 1.0)},
    **{
        f"build_dilation({p}, {q})": build_dilation(DepolParams(p, q))[0]
        for p, q in ((0.1, 0.3), (0.5, 0.5), (0.9, 0.05))
    },
    **{f"random({seed})": random_channel(seed) for seed in (201, 202)},
    "random(203, env 3)": random_channel(203, env_dim=3),
    "chain(random, depolarizing)": chain(random_channel(204), depolarizing_kraus(0.2)),
    "chain(dephasing, build_dilation)": chain(
        dephasing_kraus(0.4), build_dilation(DepolParams(0.2, 0.7))[0]
    ),
    "parallel(random, dephasing)": parallel(random_channel(205), dephasing_kraus(0.1)),
    "parallel(depolarizing, build_dilation)": parallel(
        depolarizing_kraus(0.3), build_dilation(DepolParams(0.6, 0.4))[0]
    ),
}


class TestBranchContraction:
    """run_channel, apply_channel and classical use contract the Kraus branches;
    applying the full dilation unitary to the tensored input is the reference."""

    @pytest.mark.parametrize("name", sorted(BRANCH_CHANNELS))
    def test_run_and_apply_match_unitary_path(self, name):
        ch = BRANCH_CHANNELS[name]
        d = as_dilation(ch).input_dim
        rng = np.random.default_rng(sum(map(ord, name)))
        for _ in range(3):
            rho = random_density(rng, d)
            psi_qr = purify(rho)
            reference = unitary_run(ch, psi_qr.amplitudes, (d, d))  # (Q', R, E')
            t, state = run_channel(ch, rho, return_state=True)
            assert state.dims == reference.dims
            assert np.abs(state.amplitudes - reference.amplitudes).max() <= 1e-12
            overlap = psi_qr.amplitudes.conj() @ reference.amplitudes.reshape(d * d, -1)
            expected = (
                pure_subsystem_entropy(reference, (1,)),
                pure_subsystem_entropy(reference, (0,)),
                pure_subsystem_entropy(reference, (2,)),
                float(np.real(overlap @ overlap.conj())),
            )
            got = (t.s_in, t.s_out, t.s_env, t.fidelity)
            assert np.abs(np.subtract(got, expected)).max() <= 1e-12
            output = pure_marginal(reference, (0,)).matrix
            assert np.abs(apply_channel(ch, rho).matrix - output).max() <= 1e-12

    @pytest.mark.parametrize(
        "name", sorted(n for n in BRANCH_CHANNELS if not n.startswith("parallel"))
    )
    def test_classical_use_matches_unitary_path(self, name):
        ch = BRANCH_CHANNELS[name]
        for q in (0.0, 0.2, 0.5, 0.9):
            amps = np.zeros(8, dtype=np.complex128)  # (Q, X, R)
            amps[6] = np.sqrt(1.0 - q)  # |1_Q 1_X 0_R>
            amps[1] = -np.sqrt(q)  # |0_Q 0_X 1_R>
            out = unitary_run(ch, amps, (2, 2, 2))
            diagram = venn2(pure_marginal(out, (0, 2)), ((0,), (1,)))
            expected = (diagram.mutual, diagram.cond_b_given_a)
            got = classical_use_channel_simulation(ch, q)
            assert np.abs(np.subtract(got, expected)).max() <= 1e-12

    def test_kraus_runs_build_no_dilation(self, monkeypatch):
        counts = {"qr": 0, "dilation": 0}
        qr, post_init = np.linalg.qr, DilationChannel.__post_init__

        def counted_qr(*args, **kwargs):
            counts["qr"] += 1
            return qr(*args, **kwargs)

        def counted_post_init(self):
            counts["dilation"] += 1
            post_init(self)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(DilationChannel, "__post_init__", counted_post_init)
        as_dilation(dephasing_kraus(0.2))
        assert counts == {"qr": 1, "dilation": 1}  # the counters see a dilation build
        counts.update(qr=0, dilation=0)
        for kraus in (dephasing_kraus(0.2), depolarizing_kraus(0.4)):
            run_channel(kraus, DensityMatrix(np.diag([0.3, 0.7]).astype(complex)))
            classical_use_channel_simulation(kraus, 0.3)
        assert counts == {"qr": 0, "dilation": 0}


class TestEntanglementFidelity:
    def test_perfect_transmission(self):
        psi = purify(DensityMatrix(np.eye(2) / 2))
        assert entanglement_fidelity(psi.projector(), psi.projector()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_mixed_input(self):
        mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="pure-state"):
            entanglement_fidelity(mixed, mixed)

    def test_rejects_dimension_mismatch(self):
        psi = purify(DensityMatrix(np.eye(2) / 2))
        other = DensityMatrix(np.eye(8) / 8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            entanglement_fidelity(psi.projector(), other)


class TestChain:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(38)
        ch = random_channel(51)
        composite = chain(identity_channel(2), ch)
        for _ in range(5):
            rho = random_density(rng, 2)
            assert np.allclose(
                reference_output(composite, rho), reference_output(ch, rho),
                atol=1e-12,
            )

    def test_dephasing_composition_law(self):
        # Off-diagonals scale by (1-2p), so flips compose as p1+p2-2*p1*p2.
        p1, p2 = 0.2, 0.3
        p_eff = p1 + p2 - 2 * p1 * p2
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2)).projector()
        composite = chain(dephasing_kraus(p1), dephasing_kraus(p2))
        expected = apply_channel(dephasing_kraus(p_eff), plus).matrix
        assert np.allclose(reference_output(composite, plus), expected, atol=1e-10)

    def test_environment_dimension_multiplies(self):
        composite = chain(random_channel(61), random_channel(62))
        assert composite.env_dim == 16

    def test_dimension_mismatch(self):
        small = identity_channel(2)
        big = identity_channel(4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            chain(small, big)

    def test_loss_accumulates_monotonically(self):
        rho = DensityMatrix(np.eye(2) / 2)
        single = run_channel(depolarizing_kraus(0.2), rho)
        double = run_channel(
            chain(depolarizing_kraus(0.2), depolarizing_kraus(0.2)), rho
        )
        assert double.loss >= single.loss - 1e-9


class TestParallel:
    def test_identity_pair_is_identity(self):
        rng = np.random.default_rng(39)
        composite = parallel(identity_channel(2), identity_channel(2))
        rho = random_density(rng, 4)
        assert np.allclose(reference_output(composite, rho), rho.matrix, atol=1e-12)

    def test_product_action(self):
        rng = np.random.default_rng(40)
        ch1, ch2 = random_channel(71), random_channel(72)
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        joint = DensityMatrix(tensor(rho1.matrix, rho2.matrix), (2, 2))
        lhs = reference_output(parallel(ch1, ch2), joint)
        rhs = tensor(reference_output(ch1, rho1), reference_output(ch2, rho2))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_transcript_additivity_on_product_input(self):
        rng = np.random.default_rng(41)
        ch1, ch2 = random_channel(81), random_channel(82)
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        joint = DensityMatrix(tensor(rho1.matrix, rho2.matrix), (2, 2))
        t1 = run_channel(ch1, rho1)
        t2 = run_channel(ch2, rho2)
        t12 = run_channel(parallel(ch1, ch2), joint)
        assert t12.s_in == pytest.approx(t1.s_in + t2.s_in, abs=1e-9)
        assert t12.loss == pytest.approx(t1.loss + t2.loss, abs=1e-9)
        assert t12.mutual_entanglement == pytest.approx(
            t1.mutual_entanglement + t2.mutual_entanglement, abs=1e-9
        )


class TestCompositeUnitaries:
    """chain/parallel contract the dilation tensors; promote_unitary products are the reference."""

    PAIRS = [
        (random_channel(91), random_channel(92)),
        (random_channel(93, env_dim=2), random_channel(94, env_dim=3)),
        (depolarizing_kraus(0.2), dephasing_kraus(0.3)),
    ]

    @pytest.mark.parametrize("ch1, ch2", PAIRS)
    def test_chain_matches_promoted_product(self, ch1, ch2):
        d1, d2 = as_dilation(ch1), as_dilation(ch2)
        dims = (d1.input_dim, d1.env_dim, d2.env_dim)
        reference = promote_unitary(d2.u_qe, dims, (0, 2)) @ promote_unitary(d1.u_qe, dims, (0, 1))
        assert np.abs(chain(ch1, ch2).u_qe - reference).max() <= 1e-12

    @pytest.mark.parametrize(
        "ch1, ch2", PAIRS + [(random_channel(95, dim=3, env_dim=2), random_channel(96))]
    )
    def test_parallel_matches_promoted_product(self, ch1, ch2):
        d1, d2 = as_dilation(ch1), as_dilation(ch2)
        dims = (d1.input_dim, d2.input_dim, d1.env_dim, d2.env_dim)
        reference = promote_unitary(d1.u_qe, dims, (0, 2)) @ promote_unitary(d2.u_qe, dims, (1, 3))
        assert np.abs(parallel(ch1, ch2).u_qe - reference).max() <= 1e-12


class TestQuantumFanoBound:
    def test_perfect_fidelity_gives_zero(self):
        assert quantum_fano_bound(1.0, 4) == 0.0

    def test_reference_value(self):
        # 2*(H2(0.1) + 0.1*log2(3))
        assert quantum_fano_bound(0.9, 4) == pytest.approx(
            1.2549836873227938, abs=1e-12
        )

    def test_matches_twice_environment_entropy_at_symmetric_point(self):
        for p in (0.0, 0.1, 0.3, 0.6):
            t = analytic_transcript(DepolParams(p, 0.5))
            assert quantum_fano_bound(t.fidelity, 4) == pytest.approx(
                2.0 * t.s_env, abs=1e-9
            )

    def test_binary_code_space(self):
        assert quantum_fano_bound(0.8, 2) == pytest.approx(
            2 * binary_entropy(0.2), abs=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="code dimension"):
            quantum_fano_bound(0.9, 1)
        with pytest.raises(ValueError, match="fidelity"):
            quantum_fano_bound(1.5, 4)


class TestTranscriptChecks:
    def test_identity_residuals_vanish(self):
        rng = np.random.default_rng(42)
        for seed in (91, 92, 93):
            t = run_channel(random_channel(seed), random_density(rng, 2))
            res = transcript_identity_residuals(t)
            assert res["loss_balance"] <= 1e-12
            assert res["mutual_split"] <= 1e-12
            assert res["coherent_info"] <= 1e-12

    def test_slacks_for_identity_channel(self):
        t = run_channel(identity_channel(2), DensityMatrix(np.eye(2) / 2))
        slacks = transcript_slacks(t)
        assert slacks["loss_nonneg"] == pytest.approx(0.0, abs=1e-10)
        assert slacks["loss_le_2s_in"] == pytest.approx(2.0, abs=1e-10)
        assert slacks["loss_le_2s_env"] == pytest.approx(0.0, abs=1e-10)
        assert slacks["schumacher_fano"] == pytest.approx(0.0, abs=1e-10)

    def test_slacks_nonnegative_for_random_channels(self):
        rng = np.random.default_rng(43)
        for seed in range(101, 111):
            t = run_channel(random_channel(seed), random_density(rng, 2))
            for name, value in transcript_slacks(t).items():
                assert value >= -1e-9, (seed, name, value)


class TestJsonInterchange:
    def test_round_trip(self):
        ch = depolarizing_kraus(0.3)
        back = kraus_channel_from_json(kraus_channel_to_json(ch))
        assert len(back.operators) == len(ch.operators)
        for a, b in zip(ch.operators, back.operators):
            assert np.allclose(a, b, atol=0)

    def test_accepts_parsed_dict(self):
        doc = json.loads(kraus_channel_to_json(dephasing_kraus(0.25)))
        back = kraus_channel_from_json(doc)
        rho = PureState(np.array([1.0, 1.0]) / np.sqrt(2)).projector()
        expected = apply_channel(dephasing_kraus(0.25), rho).matrix
        assert np.allclose(apply_channel(back, rho).matrix, expected, atol=1e-12)

    def test_missing_key(self):
        with pytest.raises(ValueError, match="kraus"):
            kraus_channel_from_json("{}")

    def test_non_square_operator(self):
        doc = {"kraus": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(ValueError, match="not square"):
            kraus_channel_from_json(doc)

    def test_incomplete_operators_rejected(self):
        doc = {"kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}
        with pytest.raises(ValueError, match="trace preserving"):
            kraus_channel_from_json(doc)
