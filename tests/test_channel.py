import contextlib
import io
import json

import numpy as np
import pytest

from vncap.qmat import (
    DensityMatrix,
    PureState,
    basis_state,
    partial_trace,
    pure_marginal,
    random_unitary,
    tensor,
)
from vncap.entropy import binary_entropy, pure_subsystem_entropy, venn2
from vncap import analysis, channel, cli, depolarizing, qmat
from vncap.channel import (
    ChannelTranscript,
    KrausChannel,
    _branches,
    _fano_rows,
    _from_branches,
    _send_rows,
    apply_channel,
    chain,
    diagonal_transcripts,
    dilation_channel,
    entanglement_fidelity,
    identity_channel,
    kraus_channel_from_json,
    kraus_channel_to_json,
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
    classical_use_channel_rows,
    classical_use_channel_simulation,
    dephasing_kraus,
    depolarizing_kraus,
    dilation_unitary,
)

from reference import (
    Dilation,
    apply_unitary,
    as_dilation,
    classical_use_contraction,
    dilation_from_kraus,
    einsum_chain_rows,
    einsum_completeness_residual,
    einsum_dilation_branches,
    einsum_norm_residual,
    einsum_overlaps,
    einsum_parallel_rows,
    einsum_send_rows,
    promote_unitary,
    scalar_run_channel,
)


def random_density(rng, dim, dims=None):
    w = rng.random(dim) + 1e-9
    w /= w.sum()
    u = random_unitary(dim, int(rng.integers(0, 2**62)))
    return DensityMatrix(u @ np.diag(w.astype(complex)) @ u.conj().T, dims)


def random_dilation(seed, dim=2, env_dim=4):
    return Dilation(random_unitary(dim * env_dim, seed), env_dim, basis_state(env_dim, 0))


def random_channel(seed, dim=2, env_dim=4):
    return dilation_channel(*random_dilation(seed, dim, env_dim))


def dilation_pair(dil):
    """The channel ``dilation_channel`` reads off ``dil``, with ``dil`` as its reference."""
    return dilation_channel(*dil), dil


def kraus_pair(ch):
    """A Kraus channel, with the isometry completion of its branches as its reference."""
    return ch, dilation_from_kraus(ch)


def depolarizing_dilation(p, q):
    u, env = dilation_unitary(DepolParams(p, q))
    return Dilation(u, 4, env)


def reference_output(ch, rho: DensityMatrix) -> np.ndarray:
    """Channel action computed by conjugation with a unitary dilation and a partial trace."""
    dil = as_dilation(ch)
    env = dil.env_initial.projector().matrix
    joint = DensityMatrix(
        dil.u_qe @ tensor(rho.matrix, env) @ dil.u_qe.conj().T,
        (rho.dim, dil.env_dim),
    )
    return partial_trace(joint, {0}).matrix


def test_array_holding_types_compare_by_identity():
    """==, != and hash work on channels and states: equal only to themselves,
    no array comparison, no "truth value of an array" error."""
    assert (dephasing_kraus(0.2) == dephasing_kraus(0.2)) is False
    for make in (
        lambda: dephasing_kraus(0.2),
        lambda: basis_state(2, 0),
        lambda: DensityMatrix(np.eye(2) / 2),
    ):
        x, y = make(), make()
        assert x == x and not x != x
        assert x != y
        assert hash(x) == hash(x)
        assert len({x, y, x}) == 2


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


def assert_stacked_einsum_operators(u: np.ndarray, env: PureState) -> None:
    """``dilation_channel(u, env.dim, env)`` has the operators of the stacked einsum
    route, bit for bit."""
    want = einsum_dilation_branches(u[np.newaxis], env.amplitudes)[0].swapaxes(0, 1)
    got = np.array(dilation_channel(u, env.dim, env).operators)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestRepresentationConversion:
    def test_identity_dilation_yields_single_kraus(self):
        for ch in (identity_channel(2), dilation_channel(np.eye(2), 1, basis_state(1, 0))):
            assert len(ch.operators) == 1
            assert np.allclose(ch.operators[0], np.eye(2), atol=1e-12)

    def test_kraus_from_dilation_matches_conjugation(self):
        rng = np.random.default_rng(32)
        for seed, dim, env_dim in ((1, 2, 4), (2, 2, 4), (3, 2, 4), (4, 3, 2), (5, 2, 3)):
            dil = random_dilation(seed, dim, env_dim)
            kr = dilation_channel(*dil)
            assert kr.env_dim == env_dim
            for _ in range(5):
                rho = random_density(rng, dim)
                out = apply_channel(kr, rho).matrix
                assert np.abs(out - reference_output(dil, rho)).max() <= 1e-12

    @pytest.mark.parametrize(
        "d, env_dim", [(1, 1), (1, 4), (2, 1), (2, 2), (2, 4), (4, 2), (2, 8), (8, 2), (4, 4), (3, 5)]
    )
    def test_dilation_channel_is_the_stacked_einsum(self, d, env_dim):
        """The operators equal the one-row ``einsum_dilation_branches``, bit for bit, for
        seeded unitaries and random environment states that are not basis states."""
        rng = np.random.default_rng(40 + 20 * d + env_dim)
        for seed in range(8):
            env = complex_stack(rng, env_dim)
            env = PureState(env / np.linalg.norm(env))
            assert_stacked_einsum_operators(random_unitary(d * env_dim, 100 * d + seed), env)

    @pytest.mark.parametrize("p, q", [(0.0, 0.5), (0.3, 0.2), (0.75, 0.0), (1.0, 0.9)])
    def test_depolarizing_dilation_channel_is_the_stacked_einsum(self, p, q):
        assert_stacked_einsum_operators(*dilation_unitary(DepolParams(p, q)))

    def test_dilation_from_kraus_matches_conjugation(self):
        rng = np.random.default_rng(33)
        base = random_channel(7)
        dil = dilation_from_kraus(base)
        for _ in range(5):
            rho = random_density(rng, 2)
            out = apply_channel(base, rho).matrix
            assert np.allclose(out, reference_output(dil, rho), atol=1e-12)

    def test_round_trip_preserves_channel_action(self):
        rng = np.random.default_rng(34)
        kr = depolarizing_kraus(0.3)
        back = dilation_channel(*dilation_from_kraus(kr))
        for _ in range(5):
            rho = random_density(rng, 2)
            a = apply_channel(kr, rho).matrix
            b = apply_channel(back, rho).matrix
            assert np.allclose(a, b, atol=1e-12)

    def test_environment_basis_change_keeps_channel(self):
        rng = np.random.default_rng(35)
        dil = random_dilation(11)
        branches = np.array(dilation_channel(*dil).operators)
        basis = random_unitary(4, 12)  # one environment basis vector per row
        rotated = KrausChannel(np.einsum("ke,eab->kab", basis.conj(), branches))
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
            dilation_channel(np.ones((4, 4)), 2, basis_state(2, 0))

    def test_dilation_shape_refusals(self):
        u = random_unitary(8, 13)
        for env_dim in (0, 3):
            with pytest.raises(ValueError, match=f"environment dimension {env_dim} does not divide 8"):
                dilation_channel(u, env_dim, basis_state(4, 0))
        with pytest.raises(ValueError, match="environment state is 2-dim, expected 4"):
            dilation_channel(u, 4, basis_state(2, 0))


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
        dil = random_dilation(21)
        rho = random_density(rng, 2)
        t = run_channel(dilation_channel(*dil), rho)
        from vncap.entropy import von_neumann_entropy

        rho_out = DensityMatrix(reference_output(dil, rho))
        assert t.s_out == pytest.approx(von_neumann_entropy(rho_out), abs=1e-9)

    def test_fidelity_matches_entanglement_fidelity(self):
        rng = np.random.default_rng(37)
        for seed in (41, 42):
            kr = random_channel(seed)
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


def unitary_run(dil, amps_q_first, dims):
    """The full-unitary path: |input> (tensor) |env_initial>, then U on (Q, E).

    ``amps_q_first`` is a pure state on ``dims`` with Q as its first factor;
    the result carries the environment as a new last factor.
    """
    joint = PureState(tensor(amps_q_first, dil.env_initial.amplitudes), dims + (dil.env_dim,))
    return apply_unitary(dil.u_qe, joint, targets=(0, len(dims)))


# name -> (channel, the Dilation its unitary path runs through)
BRANCH_CHANNELS = {
    **{f"depolarizing({p})": kraus_pair(depolarizing_kraus(p)) for p in (0.0, 0.1, 0.5, 0.75)},
    **{f"dephasing({p})": kraus_pair(dephasing_kraus(p)) for p in (0.0, 0.3, 1.0)},
    **{
        f"build_dilation({p}, {q})": (
            build_dilation(DepolParams(p, q))[0], depolarizing_dilation(p, q)
        )
        for p, q in ((0.1, 0.3), (0.5, 0.5), (0.9, 0.05))
    },
    **{f"random({seed})": dilation_pair(random_dilation(seed)) for seed in (201, 202)},
    "random(203, env 3)": dilation_pair(random_dilation(203, env_dim=3)),
    "chain(random, depolarizing)": kraus_pair(
        chain(random_channel(204), depolarizing_kraus(0.2))
    ),
    "chain(dephasing, build_dilation)": kraus_pair(
        chain(dephasing_kraus(0.4), build_dilation(DepolParams(0.2, 0.7))[0])
    ),
    "parallel(random, dephasing)": kraus_pair(
        parallel(random_channel(205), dephasing_kraus(0.1))
    ),
    "parallel(depolarizing, build_dilation)": kraus_pair(
        parallel(depolarizing_kraus(0.3), build_dilation(DepolParams(0.6, 0.4))[0])
    ),
}


# name -> channel for run_channel against its scalar reference: the branch
# channels above, 16-branch chains of random dilations and 4-dim parallel pairs
SCALAR_REFERENCE_CHANNELS = {
    **{name: ch for name, (ch, _) in BRANCH_CHANNELS.items()},
    **{
        f"chain(random({a}), random({b}))": chain(random_channel(a), random_channel(b))
        for a, b in ((206, 207), (208, 209))
    },
    **{
        f"parallel(random({a}), random({b}))": parallel(random_channel(a), random_channel(b))
        for a, b in ((210, 211), (212, 213))
    },
}


class TestOneKernel:
    """run_channel is the one-row call of the stacked transcript kernel."""

    @pytest.mark.parametrize("name", sorted(SCALAR_REFERENCE_CHANNELS))
    def test_run_channel_matches_scalar_reference(self, name):
        ch = SCALAR_REFERENCE_CHANNELS[name]
        d = ch.input_dim
        rng = np.random.default_rng(sum(map(ord, name)))
        inputs = [random_density(rng, d) for _ in range(4)]
        inputs += [DensityMatrix(np.eye(d) / d), basis_state(d, d - 1).projector()]
        for rho in inputs:
            t, state = run_channel(ch, rho, return_state=True)
            expected, expected_state = scalar_run_channel(ch, rho, return_state=True)
            assert state.dims == expected_state.dims == (d, d, ch.env_dim)
            assert np.abs(state.amplitudes - expected_state.amplitudes).max() <= 1e-12
            for field in ChannelTranscript.__dataclass_fields__:
                got = getattr(t, field)
                assert type(got) is float, field
                assert abs(got - getattr(expected, field)) <= 1e-12, field


class TestBranchContraction:
    """run_channel, apply_channel and classical use contract the Kraus branches;
    applying the full dilation unitary to the tensored input is the reference."""

    @pytest.mark.parametrize("name", sorted(BRANCH_CHANNELS))
    def test_run_and_apply_match_unitary_path(self, name):
        ch, dil = BRANCH_CHANNELS[name]
        d = dil.input_dim
        rng = np.random.default_rng(sum(map(ord, name)))
        for _ in range(3):
            rho = random_density(rng, d)
            psi_qr = purify(rho)
            reference = unitary_run(dil, psi_qr.amplitudes, (d, d))  # (Q', R, E')
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
        """Both references read the venn2 diagram of the (Q', R) marginal: one of
        the unitary path's output, one of the explicit branch contraction's."""
        ch, dil = BRANCH_CHANNELS[name]
        for q in (0.0, 0.2, 0.5, 0.9, 1.0):
            amps = np.zeros(8, dtype=np.complex128)  # (Q, X, R)
            amps[6] = np.sqrt(1.0 - q)  # |1_Q 1_X 0_R>
            amps[1] = -np.sqrt(q)  # |0_Q 0_X 1_R>
            contracted = np.einsum("akb,bxr->axrk", _branches(ch)[0], amps.reshape(2, 2, 2))
            got = classical_use_channel_simulation(ch, q)
            for out in (
                unitary_run(dil, amps, (2, 2, 2)),
                PureState(contracted.ravel(), contracted.shape),
            ):
                diagram = venn2(pure_marginal(out, (0, 2)), ((0,), (1,)))
                expected = (diagram.mutual, diagram.cond_b_given_a)
                assert np.abs(np.subtract(got, expected)).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(BRANCH_CHANNELS))
    def test_send_matches_explicit_contractions(self, name):
        ch, _ = BRANCH_CHANNELS[name]
        d = ch.input_dim
        rng = np.random.default_rng(sum(map(ord, name)))
        # the (Q, R) layout of run_channel and the (Q, X, R) layout of classical use
        for shape, subscripts in (((d, d), "akb,br->ark"), ((d, 2, d), "akb,bxr->axrk")):
            amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            amps /= np.linalg.norm(amps)
            expected = np.einsum(subscripts, _branches(ch)[0], amps)
            out = _send_rows(_branches(ch), amps[np.newaxis])
            assert out.shape == (1, *expected.shape)
            assert np.abs(out[0] - expected).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(BRANCH_CHANNELS))
    def test_one_row_stack_broadcasts_bit_for_bit(self, name):
        """A one-row stack sends every input row as the same branches tiled to N rows."""
        ch, _ = BRANCH_CHANNELS[name]
        d = ch.input_dim
        rng = np.random.default_rng(sum(map(ord, name)))
        for n in (1, 4, 101):
            for shape in ((n, d, d), (n, d, 2, d)):  # (Q, R) and (Q, X, R) rows
                amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                one_row = _branches(ch)
                tiled = np.repeat(one_row, n, axis=0)
                assert _send_rows(one_row, amps).tobytes() == _send_rows(tiled, amps).tobytes()

    @pytest.mark.parametrize("name", sorted(BRANCH_CHANNELS))
    def test_from_branches_inverts_branches(self, name):
        ch, _ = BRANCH_CHANNELS[name]
        assert _branches(ch).shape == (1, ch.input_dim, ch.env_dim, ch.input_dim)
        back = _from_branches(_branches(ch))
        assert np.array(back.operators).tobytes() == np.array(ch.operators).tobytes()

    def test_classical_use_builds_no_density_matrix(self, monkeypatch):
        built = []
        post_init = DensityMatrix.__post_init__
        monkeypatch.setattr(
            DensityMatrix, "__post_init__", lambda self: built.append(1) or post_init(self)
        )
        for ch in (dephasing_kraus(0.2), depolarizing_kraus(0.4), random_channel(7)):
            classical_use_channel_simulation(ch, 0.3)
        assert built == []
        DensityMatrix(np.eye(2) / 2)
        assert built == [1]  # the counter sees a construction

    def test_run_channel_builds_a_pure_state_only_to_return_it(self, monkeypatch):
        built = []
        post_init = PureState.__post_init__
        monkeypatch.setattr(
            PureState, "__post_init__", lambda self: built.append(1) or post_init(self)
        )
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        run_channel(dephasing_kraus(0.2), rho)
        assert built == []
        run_channel(dephasing_kraus(0.2), rho, return_state=True)
        assert built == [1]  # the counter sees the returned (Q', R, E') state

    def test_kraus_runs_build_no_dilation(self, monkeypatch):
        counts = {"qr": 0, "unitary": 0}
        qr, check_unitary = np.linalg.qr, channel._check_unitary

        def counted_qr(*args, **kwargs):
            counts["qr"] += 1
            return qr(*args, **kwargs)

        def counted_check_unitary(u):
            counts["unitary"] += 1
            return check_unitary(u)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(channel, "_check_unitary", counted_check_unitary)
        dilation_channel(*as_dilation(dephasing_kraus(0.2)))
        assert counts == {"qr": 1, "unitary": 1}  # the counters see a dilation build
        counts.update(qr=0, unitary=0)
        for kraus in (dephasing_kraus(0.2), depolarizing_kraus(0.4)):
            run_channel(kraus, DensityMatrix(np.diag([0.3, 0.7]).astype(complex)))
            classical_use_channel_simulation(kraus, 0.3)
        assert counts == {"qr": 0, "unitary": 0}


# name -> single-qubit channel for the stacked kernels
STACKED_CHANNELS = {
    **{f"dephasing({p})": dephasing_kraus(p) for p in (0.0, 0.37, 0.75, 1.0)},
    **{f"depolarizing({p})": depolarizing_kraus(p) for p in (0.0, 0.2, 0.75)},
    **{
        f"build_dilation({p}, {q})": build_dilation(DepolParams(p, q))[0]
        for p, q in ((0.0, 0.5), (0.3, 0.2), (0.75, 0.9))
    },
    **{f"random({seed}, env 4)": random_channel(seed) for seed in (301, 302, 303)},
}
STACKED_Q = (0.0, 1.0, 0.5, 1e-9, 0.02, 0.37, 0.9, 1.0 - 1e-9)


def eigensolve_counts(monkeypatch) -> dict:
    """Count numpy.linalg eigensolves and DensityMatrix constructions from now on."""
    counts = {"eigvalsh": 0, "eigh": 0, "density": 0}
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    post_init = DensityMatrix.__post_init__

    def counted_post_init(self):
        counts["density"] += 1
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
    return counts


class TestStackedKernel:
    """The stacked kernels against the scalar routes they replace in the CLI."""

    @pytest.mark.parametrize("name", sorted(STACKED_CHANNELS))
    def test_diagonal_transcripts_match_run_channel(self, name):
        ch = STACKED_CHANNELS[name]
        rows = diagonal_transcripts(ch, STACKED_Q)
        for i, q in enumerate(STACKED_Q):
            scalar = run_channel(ch, DensityMatrix(np.diag([q, 1.0 - q])))
            for field in ChannelTranscript.__dataclass_fields__:
                got, expected = getattr(rows, field)[i], getattr(scalar, field)
                assert abs(got - expected) <= 1e-12, (field, q)

    @pytest.mark.parametrize("name", sorted(STACKED_CHANNELS))
    def test_classical_rows_match_one_input_contraction(self, name):
        ch = STACKED_CHANNELS[name]
        mutual, loss = classical_use_channel_rows(ch, STACKED_Q)
        for i, q in enumerate(STACKED_Q):
            expected = classical_use_contraction(ch, q)
            assert np.abs(np.subtract((mutual[i], loss[i]), expected)).max() <= 1e-12
            assert classical_use_channel_simulation(ch, q) == (mutual[i], loss[i])

    def test_chunks_join_to_the_unchunked_rows(self, monkeypatch):
        ch, qs = random_channel(304), np.linspace(0.0, 1.0, 11)
        whole = diagonal_transcripts(ch, qs)
        whole_classical = classical_use_channel_rows(ch, qs)
        monkeypatch.setattr(channel, "STACK_ROWS", 3)
        chunked = diagonal_transcripts(ch, qs)
        for field in ChannelTranscript.__dataclass_fields__:
            assert np.array_equal(getattr(chunked, field), getattr(whole, field))
        assert np.array_equal(classical_use_channel_rows(ch, qs), whole_classical)

    def test_diagonal_amps_purify_their_diagonals(self):
        """Each row sum_i sqrt(w_i)|ii> on (Q, R), with R traced out, is diag(w)."""
        rng = np.random.default_rng(12)
        for d in (1, 2, 4):
            weights = rng.random((6, d))
            weights[0] = np.eye(d)[0]  # a pure input, zero weights included
            weights /= weights.sum(axis=1, keepdims=True)
            amps = channel._diagonal_amps(weights)
            assert amps.shape == (6, d, d) and amps.dtype == np.complex128
            for row, w in zip(amps, weights):
                reduced = partial_trace(PureState(row, (d, d)).projector(), (0,))
                assert np.abs(reduced.matrix - np.diag(w)).max() <= 1e-15

    def test_empty_q_list_gives_empty_rows(self):
        assert diagonal_transcripts(dephasing_kraus(0.2), []).s_in.shape == (0,)
        assert [v.shape for v in classical_use_channel_rows(dephasing_kraus(0.2), [])] == [
            (0,),
            (0,),
        ]

    @pytest.mark.parametrize("q", [np.nan, np.inf, -0.5, 1.5])
    def test_refuses_bad_q(self, q):
        for kernel in (diagonal_transcripts, classical_use_channel_rows):
            with pytest.raises(ValueError, match="mixing parameter"):
                kernel(dephasing_kraus(0.2), [0.3, q])

    def test_refuses_wider_channels(self):
        for kernel in (diagonal_transcripts, classical_use_channel_rows):
            with pytest.raises(ValueError, match="single-qubit"):
                kernel(identity_channel(4), [0.3])

    @pytest.mark.parametrize("use", ["quantum", "classical"])
    def test_default_dephasing_sweep_counts(self, monkeypatch, capsys, use):
        """3 stacked eigensolves for the whole 16 x 51 grid, one chunk of rows; no eigh,
        no density matrix."""
        counts = eigensolve_counts(monkeypatch)
        assert cli.main(["sweep", "--channel", "dephasing", "--use", use]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 16 * 51
        assert counts == {"eigvalsh": 3, "eigh": 0, "density": 0}

    @pytest.mark.parametrize("use", ["quantum", "classical"])
    def test_default_dephasing_sweep_builds_no_channel(self, monkeypatch, use):
        """The sweep's 16 p become one branch table, checked once, and no channel;
        a capacity solve builds the one channel of its quantum midpoint and none for
        classical use, and ``dephasing_kraus`` checks its one-row table once, in
        ``KrausChannel``."""
        builds, checks = [], []
        post_init, check = KrausChannel.__post_init__, channel._check_complete

        def built(ch):
            builds.append(1)
            post_init(ch)

        def checked(branches):
            checks.append(len(branches))
            check(branches)

        monkeypatch.setattr(KrausChannel, "__post_init__", built)
        for module in (channel, depolarizing):
            monkeypatch.setattr(module, "_check_complete", checked)
        assert cli.main(["sweep", "--channel", "dephasing", "--use", use]) == 0
        assert (len(builds), checks) == (0, [16])
        assert cli.main(["capacity", "--channel", "dephasing", "--use", use, "--p", "0.37"]) == 0
        midpoint = 1 if use == "quantum" else 0
        assert len(builds) == midpoint
        checks.clear()
        depolarizing.dephasing_kraus(0.37)
        assert (len(builds), checks) == (midpoint + 1, [1])

    def test_capacity_grid_is_one_batch(self, monkeypatch, capsys):
        """The 101 grid points are one row call of 3 eigensolves; the 42
        golden-section steps look ahead through 8 more row calls of 3 each, all
        through the one rows function that ``_dephasing_rows`` binds to the solve's
        p, and only the refined midpoint runs run_channel on a diagonal density
        matrix."""
        runs, batches = [], []
        monkeypatch.setattr(cli, "run_channel", lambda *a: runs.append(1) or run_channel(*a))
        bind = depolarizing._dephasing_rows

        def counted(p, chunk):
            rows = bind(p, chunk)
            return lambda qs: batches.append(len(qs)) or rows(qs)

        monkeypatch.setattr(depolarizing, "_dephasing_rows", counted)
        counts = eigensolve_counts(monkeypatch)
        assert cli.main(["capacity", "--channel", "dephasing", "--p", "0.37"]) == 0
        assert "evaluations: 144" in capsys.readouterr().out
        assert len(runs) == 1
        assert batches[0] == 101 and len(batches) == 1 + 8
        assert max(batches[1:]) <= 2**analysis.LOOKAHEAD_DEPTH
        # the midpoint: the density matrix's spectrum, purify's eigh, three entropies
        assert counts == {"eigvalsh": 3 * 9 + 4, "eigh": 1, "density": 1}

    def test_capacity_refuses_a_nan_in_the_batched_grid(self, monkeypatch, capsys):
        bind = depolarizing._dephasing_rows

        def with_nan_at(p, chunk):
            rows_of = bind(p, chunk)

            def with_nan(qs):
                rows = rows_of(qs)  # S, S', S_e, F_e
                rows[0, 7] = np.nan  # so I_Q = 2S - L at q = 0.07 too
                return rows

            return with_nan

        monkeypatch.setattr(depolarizing, "_dephasing_rows", with_nan_at)
        assert cli.main(["capacity", "--channel", "dephasing", "--p", "0.37"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "non-finite objective value nan at q=0.07" in err

    @pytest.mark.parametrize("use", ["quantum", "classical"])
    def test_capacity_builds_one_branch_table_per_solve(self, monkeypatch, use):
        """A dephasing capacity solve reads its p, builds its branch table and checks
        that table complete once, for the grid and all 8 look-ahead calls.  The
        refined midpoint builds the only other table: quantum use's ``dephasing_kraus``,
        checked by ``KrausChannel``, or classical use's one-point rows call."""
        calls = []
        for module, name in [
            (depolarizing, "_rows_of"),
            (depolarizing, "_dephasing_branches"),
            (depolarizing, "_check_complete"),
            (channel, "_check_complete"),
        ]:
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, f=original, n=name: calls.append(n) or f(*a)
            )
        point, *rest = cli.FAMILIES["dephasing", use]
        midpoint = []  # the calls made before the midpoint
        monkeypatch.setitem(
            cli.FAMILIES,
            ("dephasing", use),
            (lambda p, q: midpoint.append(list(calls)) or point(p, q), *rest),
        )
        argv = ["capacity", "--channel", "dephasing", "--use", use, "--p", "0.37"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert "evaluations: 144" in out.getvalue()
        table = ["_rows_of", "_dephasing_branches", "_check_complete"]
        assert midpoint == [table]
        assert calls[len(table) :] == (
            ["_dephasing_branches", "_check_complete"] if use == "quantum" else table
        )


def complex_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def checked_residuals(monkeypatch, module, check, stack) -> list[float]:
    """The residuals that ``check(stack)`` hands to ``module._check_residual``."""
    seen = []
    monkeypatch.setattr(module, "_check_residual", lambda resid, *_: seen.append(float(resid)))
    check(stack)
    return seen


# (rows of the branch stack, rows of the amplitude stack or second branch stack):
# empty, one row, per-row stacks, and a one-row stack broadcast to 0 or 5 rows.
ROWS = [(0, 0), (1, 1), (5, 5), (1, 0), (1, 5), (5, 1)]


class TestMatmulContractions:
    """The batched-matmul contractions against their einsum forms in reference.py, on
    seeded random complex stacks."""

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("nb, n", [rows for rows in ROWS if rows != (5, 1)])
    def test_send_rows(self, d, nb, n):
        rng = np.random.default_rng(100 * d + 10 * nb + n)
        branches = complex_stack(rng, nb, d, 3, d)
        for rest in ((), (d,), (2, d)):  # a bare input, (Q, R) and (Q, X, R) rows
            amps = complex_stack(rng, n, d, *rest)
            expected = einsum_send_rows(branches, amps)
            out = _send_rows(branches, amps)
            assert out.shape == expected.shape == (n, d, *rest, 3)
            assert np.abs(out - expected).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("nb, n", [rows for rows in ROWS if rows != (5, 1)])
    def test_transcript_overlaps(self, d, nb, n):
        """The fidelity column, sum_k |<QR| out_k|^2, of normalized random inputs."""
        rng = np.random.default_rng(200 + 100 * d + 10 * nb + n)
        branches = complex_stack(rng, nb, d, 3, d)
        amps = complex_stack(rng, n, d, d)
        amps /= np.linalg.norm(amps.reshape(n, d * d), axis=1)[:, np.newaxis, np.newaxis]
        columns, out = channel._transcript_rows(branches, amps)
        overlaps = einsum_overlaps(amps, einsum_send_rows(branches, amps))
        fidelity = (overlaps * overlaps.conj()).sum(axis=1).real
        assert columns.shape == (4, n)
        assert np.abs(out - einsum_send_rows(branches, amps)).max(initial=0.0) <= 1e-12
        assert np.abs(columns[3] - fidelity).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n1, n2", ROWS)
    def test_chain_rows(self, d, n1, n2):
        rng = np.random.default_rng(300 + 100 * d + 10 * n1 + n2)
        b1, b2 = complex_stack(rng, n1, d, 3, d), complex_stack(rng, n2, d, 2, d)
        expected = einsum_chain_rows(b1, b2)
        out = channel._chain_rows(b1, b2)
        assert out.shape == expected.shape == (max(n1, n2) * (n1 * n2 > 0), d, 6, d)
        assert np.abs(out - expected).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("d1, d2", [(2, 2), (2, 4), (4, 2)])
    @pytest.mark.parametrize("n1, n2", ROWS)
    def test_parallel_rows(self, d1, d2, n1, n2):
        """One product per entry and no sum.  numpy's complex multiply may fuse a
        multiply-add where einsum rounds twice, so general complex entries agree to
        rounding; real-valued stacks, like the CLI's Kraus branches, exactly (a zero
        imaginary part may differ in sign)."""
        rng = np.random.default_rng(400 + 10 * d1 + d2 + 1000 * n1 + 100 * n2)
        b1, b2 = complex_stack(rng, n1, d1, 3, d1), complex_stack(rng, n2, d2, 2, d2)
        expected = einsum_parallel_rows(b1, b2)
        out = channel._parallel_rows(b1, b2)
        assert out.shape == expected.shape == (max(n1, n2) * (n1 * n2 > 0), d1 * d2, 6, d1 * d2)
        assert (np.abs(out - expected) <= 4 * np.finfo(float).eps * np.abs(expected)).all()
        b1, b2 = b1.real + 0j, b2.real + 0j
        assert np.array_equal(channel._parallel_rows(b1, b2), einsum_parallel_rows(b1, b2))

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_check_complete_residuals(self, monkeypatch, d, n):
        """Random stacks, far from complete, and random dilations, complete to rounding."""
        rng = np.random.default_rng(500 + 10 * d + n)
        us = qmat._random_unitaries(4 * d, rng.integers(0, 2**62, size=n).tolist())
        complete = einsum_dilation_branches(us, basis_state(4, 0).amplitudes)
        for stack in (complex_stack(rng, n, d, 3, d), complete):
            seen = checked_residuals(monkeypatch, qmat, channel._check_complete, stack)
            assert len(seen) == 1
            assert abs(seen[0] - einsum_completeness_residual(stack)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_check_unitary_residual_is_u_u_dagger(self, monkeypatch, n):
        """``_check_unitary`` checks U U^dag = I, not U^dag U: on seeded near-unitaries
        the residual it hands on is the U U^dag one, bit for bit."""
        rng = np.random.default_rng(700 + n)
        for seed in range(20):
            u = random_unitary(n, seed) + 1e-11 * complex_stack(rng, n, n)
            seen = checked_residuals(monkeypatch, qmat, qmat._check_unitary, u)
            assert seen == [float(np.max(np.abs(u @ u.conj().T - np.eye(n))))]

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_check_normalized_residuals(self, monkeypatch, d, n):
        rng = np.random.default_rng(600 + 10 * d + n)
        raw = complex_stack(rng, n, d, 2, d)
        normalized = raw / np.linalg.norm(raw.reshape(n, 2 * d * d), axis=1)[:, None, None, None]
        for stack in (raw, normalized):
            seen = checked_residuals(monkeypatch, qmat, qmat._check_normalized, stack)
            assert len(seen) == 1
            assert abs(seen[0] - einsum_norm_residual(stack)) <= 1e-12


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
        dil = random_dilation(51)
        composite = chain(identity_channel(2), dilation_channel(*dil))
        for _ in range(5):
            rho = random_density(rng, 2)
            assert np.allclose(
                reference_output(composite, rho), reference_output(dil, rho),
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
        dil1, dil2 = random_dilation(71), random_dilation(72)
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        joint = DensityMatrix(tensor(rho1.matrix, rho2.matrix), (2, 2))
        lhs = reference_output(parallel(dilation_channel(*dil1), dilation_channel(*dil2)), joint)
        rhs = tensor(reference_output(dil1, rho1), reference_output(dil2, rho2))
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
    """chain/parallel compose the Kraus branches.  The reference is the promote_unitary
    product of the two dilations applied to |psi_QR>|env1>|env2>; the whole output state
    on (Q', R, E1', E2') must agree, which pins the E1-slow order of the branch register.
    A pair entry is a Dilation, composed through ``dilation_channel``, or a Kraus channel."""

    PAIRS = [
        (random_dilation(91), random_dilation(92)),
        (random_dilation(93, env_dim=2), random_dilation(94, env_dim=3)),
        (depolarizing_kraus(0.2), dephasing_kraus(0.3)),
    ]

    @staticmethod
    def as_channel(entry):
        return dilation_channel(*entry) if isinstance(entry, Dilation) else entry

    @staticmethod
    def assert_matches_unitary_product(composite, u, d1, d2, d):
        rng = np.random.default_rng(d1.env_dim * d2.env_dim + d)
        for _ in range(3):
            rho = random_density(rng, d)
            envs = tensor(d1.env_initial.amplitudes, d2.env_initial.amplitudes)
            expected = u @ tensor(purify(rho).amplitudes, envs)
            _, state = run_channel(composite, rho, return_state=True)
            assert state.dims == (d, d, d1.env_dim * d2.env_dim)
            assert np.abs(state.amplitudes - expected).max() <= 1e-12

    @pytest.mark.parametrize("ch1, ch2", PAIRS)
    def test_chain_matches_promoted_product(self, ch1, ch2):
        d1, d2 = as_dilation(ch1), as_dilation(ch2)
        d = d1.input_dim
        dims = (d, d, d1.env_dim, d2.env_dim)  # (Q, R, E1, E2)
        u = promote_unitary(d2.u_qe, dims, (0, 3)) @ promote_unitary(d1.u_qe, dims, (0, 2))
        composite = chain(self.as_channel(ch1), self.as_channel(ch2))
        assert isinstance(composite, KrausChannel)
        self.assert_matches_unitary_product(composite, u, d1, d2, d)

    @pytest.mark.parametrize(
        "ch1, ch2", PAIRS + [(random_dilation(95, dim=3, env_dim=2), random_dilation(96))]
    )
    def test_parallel_matches_promoted_product(self, ch1, ch2):
        d1, d2 = as_dilation(ch1), as_dilation(ch2)
        n1, n2 = d1.input_dim, d2.input_dim
        dims = (n1, n2, n1 * n2, d1.env_dim, d2.env_dim)  # (Q1, Q2, R, E1, E2)
        u = promote_unitary(d1.u_qe, dims, (0, 3)) @ promote_unitary(d2.u_qe, dims, (1, 4))
        composite = parallel(self.as_channel(ch1), self.as_channel(ch2))
        assert isinstance(composite, KrausChannel)
        self.assert_matches_unitary_product(composite, u, d1, d2, n1 * n2)


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

    @pytest.mark.parametrize("d", [2, 4])
    def test_is_the_one_row_call_of_the_rows(self, d):
        """One implementation: the scalar bound equals the rows' entry bit for bit."""
        fidelities = np.linspace(0.0, 1.0, 20001)
        rows = [x.hex() for x in _fano_rows(fidelities, d).tolist()]
        assert [quantum_fano_bound(f, d).hex() for f in fidelities.tolist()] == rows

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

    @pytest.mark.parametrize(
        "source",
        [
            '{"kraus": 5}',
            '{"kraus": [[["a", 0]]]}',
            '{"kraus": [[5]]}',
            '{"kraus": [[[1, 0, 0]]]}',
            '{"kraus": [[[1, 0]], [[1, 0], [0, 0], [0, 0], [1, 0]]]}',
            '{"kraus": []}',
            '{"kraus": [[[true, 0]]]}',
            '{"kraus": [7]}',
            "[1, 2]",
        ],
    )
    def test_malformed_payloads_raise_value_error(self, source):
        with pytest.raises(ValueError, match="kraus"):
            kraus_channel_from_json(source)

    def test_incomplete_operators_rejected(self):
        doc = {"kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}
        with pytest.raises(ValueError, match="trace preserving"):
            kraus_channel_from_json(doc)
