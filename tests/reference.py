"""Reference routes for the tests.

The library sends and composes channels through their Kraus branches only.
These functions build and apply the full unitaries on (Q, E) instead, so tests
can check the branch contractions against an independent route.  A unitary
and its initial environment travel together as a ``Dilation`` record, whose
fields are the arguments of ``vncap.channel.dilation_channel``.

The scalar routes that the one stacked transcript kernel replaced are kept
here to check the kernel against: ``schmidt_entropy`` (one state, one Gram
matrix, one ``eigvalsh``), ``scalar_run_channel`` (one purified input, one
contraction, three ``schmidt_entropy`` calls) and ``classical_use_contraction``
(the one-input classical-use simulation).

So are the scalar audit trials that the stacked audits replaced: one trial at
a time, drawn in the audits' seeded order (``inequality_trials``,
``axiom_trials``, ``coherent_trials``), each channel composed by one
``einsum`` (``chain_ops``, ``parallel_ops``), run by ``scalar_run_channel``
and scored with the scalar ``quantum_fano_bound``.

``per_p_sweep`` is the sweep as it ran before one call took the whole (p, q)
grid: one row call per p over the whole q list, one shared branch tensor per
dephasing p, the rows stacked p-major.  ``dephasing_branches_per_p`` is the
dephasing branch table as it was built before one stacked construction: one
channel's operators per p, each stacked into its branch tensor.
``per_chunk_csv`` is the sweep's CSV text as it was printed before each
chunk formatted its distinct values once: one ``%`` per chunk over the
joined row formats, every cell formatted where it stands.

The depolarizing constructions as they were before one flip table and one
q-basis amplitude table served them are kept to pin those bit for bit:
``per_operator_depolarizing_kraus`` (a float times each flip),
``pure_state_q_basis`` (four ``PureState`` objects) and
``tensor_loop_dilation_unitary`` (one ``tensor`` per branch, on those states).

The einsum forms of the stacked contractions, which batched ``matmul`` calls
and one broadcast product replaced, are kept to check those against:
``einsum_send_rows``, ``einsum_overlaps``, ``einsum_chain_rows``,
``einsum_parallel_rows``, ``einsum_completeness_residual`` and
``einsum_norm_residual``.  So is the stacked dilation read that
``dilation_channel`` once ran as a one-row call, ``einsum_dilation_branches``,
and the audits' per-trial draw loops, one generator call per number and each
trial's weights normalized on their own (``inequality_draws``,
``mixture_draws``), to check the bulk draws against.

The routes that built arrays and states only to read them back are kept to
pin their replacements bit for bit: ``ravel_shannon`` (the Shannon sum over
``np.ravel(probs).tolist()``), ``basis_state_random_dilations`` (every column of
each unitary factored and checked, and |0> read from ``basis_state`` by an
``einsum``) and ``projector_classical_use_ensemble`` (the inputs built as
basis-state projectors).

The capacity optimizer's look-ahead frontier as the recursive walk built it,
before one level-by-level loop listed it, is kept to check that loop against:
``golden_tree``.

``record_constructions`` records the class of every channel and state built
while a test runs, for tests that count them.

``random_dilation``, ``random_diagonal`` and ``random_density`` draw one
channel or input from a generator the way the audits draw them, through the
library's stacked draws, for tests that need a single random draw.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from vncap import analysis, depolarizing
from vncap.channel import (
    ChannelTranscript,
    KrausChannel,
    _branches,
    _from_branches,
    apply_channel,
    diagonal_transcripts,
    dilation_channel,
    purify,
    quantum_fano_bound,
)
from vncap.entropy import _plog2p
from vncap.qmat import (
    DensityMatrix,
    PureState,
    _check_indices,
    _check_isometry,
    _check_unitary,
    _random_unitaries,
    basis_state,
    clamp_spectrum,
    tensor,
)


class Dilation(NamedTuple):
    """A unitary on (Q, E), E the fast factor, and the environment's initial state."""

    u_qe: np.ndarray
    env_dim: int
    env_initial: PureState

    @property
    def input_dim(self) -> int:
        return self.u_qe.shape[0] // self.env_dim


def apply_unitary(u: np.ndarray, psi: PureState, targets: Sequence[int] | None = None) -> PureState:
    """Apply a unitary to a pure state, optionally on a subset of factors.

    Args:
        u: unitary matrix (within 1e-10).  With ``targets`` given, its
            dimension must match the product of the target factor dimensions.
        psi: input state.
        targets: factor indices the unitary acts on, identity elsewhere;
            ``None`` applies ``u`` to the whole space.

    Returns:
        The transformed PureState (norm re-checked within 1e-12).
    """
    u = _check_unitary(u)
    if targets is None:
        if u.shape[0] != psi.dim:
            raise ValueError(
                f"dimension mismatch: unitary is {u.shape[0]}-dim, state is {psi.dim}-dim"
            )
        return PureState(u @ psi.amplitudes, psi.dims)
    dims = psi.dims
    tgt = _check_indices(targets, len(dims))
    d_t = math.prod(dims[i] for i in tgt)
    if u.shape[0] != d_t:
        raise ValueError(
            f"dimension mismatch: unitary is {u.shape[0]}-dim, targets span {d_t}"
        )
    tens = psi.amplitudes.reshape(dims)
    moved = np.moveaxis(tens, tgt, range(len(tgt)))
    shape = moved.shape
    out = (u @ moved.reshape(d_t, -1)).reshape(shape)
    out = np.moveaxis(out, range(len(tgt)), tgt)
    return PureState(out.ravel(), dims)


def promote_unitary(u: np.ndarray, dims: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """Embed a unitary acting on ``targets`` into the full space ``dims``.

    The result acts as ``u`` on the target factors (in the listed order) and
    as the identity on every other factor, with the canonical factor ordering
    of ``dims`` preserved.
    """
    dims = tuple(int(d) for d in dims)
    tgt = _check_indices(targets, len(dims))
    rest = [i for i in range(len(dims)) if i not in tgt]
    cur_order = list(tgt) + rest
    d_rest = math.prod(dims[i] for i in rest) if rest else 1
    big = np.kron(np.asarray(u, dtype=np.complex128), np.eye(d_rest))
    cur_dims = [dims[i] for i in cur_order]
    perm = [cur_order.index(i) for i in range(len(dims))]
    n = len(dims)
    tens = big.reshape(cur_dims + cur_dims)
    axes = perm + [n + p for p in perm]
    full = math.prod(dims)
    return tens.transpose(axes).reshape(full, full)


def as_dilation(ch: KrausChannel | Dilation) -> Dilation:
    """The record itself if already a dilation, else a minimal isometry completion."""
    if isinstance(ch, Dilation):
        return ch
    return dilation_from_kraus(ch)


def dilation_from_kraus(ch: KrausChannel) -> Dilation:
    """Unitary dilation of a Kraus channel with env_dim = number of operators.

    The isometry V|q> = sum_k (K_k |q>) |k>_E occupies the columns with the
    environment in its initial basis state; the remaining columns are an
    orthonormal completion, so U(|q> |0>_E) reproduces the channel exactly.
    """
    d, m = ch.input_dim, len(ch.operators)
    full = d * m
    isometry = _branches(ch)[0].reshape(full, d)  # rows (q', k) in (Q, E) order, E fastest
    q_full, _ = np.linalg.qr(isometry, mode="complete")
    u = np.empty((full, d, m), dtype=np.complex128)  # columns (q, e) in (Q, E) order
    u[:, :, 0] = isometry
    u[:, :, 1:] = q_full[:, d:].reshape(full, d, m - 1)
    return Dilation(_check_unitary(u.reshape(full, full)), m, basis_state(m, 0))


def schmidt_entropy(psi: PureState, keep: Sequence[int]) -> float:
    """Entropy of one pure state's marginal over ``keep``: the (kept, rest) matrix,
    the Gram matrix of its smaller side, ``eigvalsh``, clamp, -sum p log2 p."""
    n = len(psi.dims)
    kept = tuple(sorted(_check_indices(keep, n)))
    if len(kept) == n:
        return 0.0
    rest = [i for i in range(n) if i not in kept]
    mat = psi.amplitudes.reshape(psi.dims).transpose(list(kept) + rest)
    mat = mat.reshape(math.prod(psi.dims[i] for i in kept), -1)
    gram = mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat
    probs = clamp_spectrum(np.linalg.eigvalsh(gram)[::-1])
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def scalar_run_channel(ch: KrausChannel, rho_q: DensityMatrix, return_state: bool = False):
    """``run_channel`` one input at a time: purify, one contraction into (Q', R, E'),
    three ``schmidt_entropy`` calls and the overlap with the purification."""
    d = rho_q.dim
    psi_qr = purify(rho_q)
    out = np.einsum("akb,br->ark", _branches(ch)[0], psi_qr.amplitudes.reshape(d, d))
    state = PureState(out.ravel(), out.shape)
    s_in, s_out, s_env = (schmidt_entropy(state, (i,)) for i in (1, 0, 2))
    loss = s_env + s_in - s_out
    overlap = psi_qr.amplitudes.conj() @ state.amplitudes.reshape(d * d, -1)
    fidelity = float(np.real(overlap @ overlap.conj()))
    transcript = ChannelTranscript(
        s_in, s_out, s_env, loss, 2.0 * s_in - loss, s_in - loss, fidelity
    )
    return (transcript, state) if return_state else transcript


def classical_use_contraction(ch: KrausChannel, q: float) -> tuple[float, float]:
    """(mutual, loss) of classical use at one q: one (Q, X, R) input, one contraction,
    three ``schmidt_entropy`` calls on the (Q', X, R, E') output."""
    amps = np.zeros((2, 2, 2), dtype=np.complex128)  # (Q, X, R)
    amps[1, 1, 0] = math.sqrt(1.0 - q)
    amps[0, 0, 1] = -math.sqrt(q)
    out = np.einsum("akb,bxr->axrk", _branches(ch)[0], amps)
    state = PureState(out.ravel(), out.shape)
    s_out = schmidt_entropy(state, (0,))
    s_joint = schmidt_entropy(state, (0, 2))  # S(Q'R)
    return s_out + schmidt_entropy(state, (2,)) - s_joint, s_joint - s_out


def per_p_sweep(channel: str, use: str, p_values, q_values) -> np.ndarray:
    """The sweep's (columns, rows) table after its p and q columns, one row call per p."""

    def at(p):
        if channel == "depolarizing":
            if use == "classical":
                return depolarizing.classical_use_transcript_rows(p, q_values)
            t = depolarizing.analytic_transcript_rows(p, q_values)
        else:
            kraus = depolarizing.dephasing_kraus(p)
            if use == "classical":
                return depolarizing.classical_use_channel_rows(kraus, q_values)
            t = diagonal_transcripts(kraus, q_values)
        return (t.s_in, t.s_out, t.s_env, t.loss, t.mutual_entanglement, t.fidelity)

    return np.concatenate([np.array(at(p)) for p in p_values], axis=1)


def per_chunk_csv(table: np.ndarray, stack_rows: int) -> list[str]:
    """The CSV text of a float table, one string per chunk of ``stack_rows`` rows."""
    table = table + 0.0  # -0.0 + 0.0 is 0.0
    line = ",".join(["%.12g"] * table.shape[1])
    chunks = (table[i : i + stack_rows] for i in range(0, len(table), stack_rows))
    return ["\n".join([line] * len(chunk)) % tuple(chunk.ravel().tolist()) for chunk in chunks]


def dephasing_branches_per_p(p_values) -> np.ndarray:
    """The (P, 2, 2, 2) dephasing branch table, one p at a time: a float times each
    of the operators identity and phase flip, stacked as B[q_out, k, q_in]."""
    identity, flip = np.eye(2, dtype=np.complex128), depolarizing.PHASE_FLIP
    ops = [(math.sqrt(1.0 - p) * identity, math.sqrt(p) * flip) for p in p_values]
    return np.stack([np.stack(pair, axis=1) for pair in ops])


def per_operator_depolarizing_kraus(p: float) -> KrausChannel:
    """Kraus form {1-p: identity, p/3 each: bit / bit-phase / phase flip}, one product each."""
    return KrausChannel(
        (
            math.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128),
            math.sqrt(p / 3.0) * depolarizing.BIT_FLIP,
            math.sqrt(p / 3.0) * depolarizing.BIT_PHASE_FLIP,
            math.sqrt(p / 3.0) * depolarizing.PHASE_FLIP,
        )
    )


def pure_state_q_basis(q: float) -> tuple[PureState, PureState, PureState, PureState]:
    """(phi_minus, phi_plus, psi_minus, psi_plus), each built as its own ``PureState``."""
    a, b = math.sqrt(1.0 - q), math.sqrt(q)
    dims = (2, 2)
    phi_minus = PureState([a, 0.0, 0.0, -b], dims)
    phi_plus = PureState([b, 0.0, 0.0, a], dims)
    psi_minus = PureState([0.0, -b, a, 0.0], dims)
    psi_plus = PureState([0.0, a, b, 0.0], dims)
    return phi_minus, phi_plus, psi_minus, psi_plus


def tensor_loop_dilation_unitary(p: float, q: float) -> tuple[np.ndarray, PureState]:
    """``dilation_unitary`` summed branch by branch, flip (tensor) q-basis projector."""
    phi_minus, phi_plus, psi_minus, psi_plus = pure_state_q_basis(q)
    branches = (
        (np.eye(2, dtype=np.complex128), psi_minus),
        (depolarizing.BIT_FLIP, phi_minus),
        (depolarizing.BIT_PHASE_FLIP, phi_plus),
        (depolarizing.PHASE_FLIP, psi_plus),
    )
    u = np.zeros((8, 8), dtype=np.complex128)
    for op, env_state in branches:
        proj = np.outer(env_state.amplitudes, env_state.amplitudes.conj())
        u += tensor(op, proj)
    env = (
        math.sqrt(1.0 - p) * psi_minus.amplitudes
        + math.sqrt(p / 3.0) * (phi_minus.amplitudes + phi_plus.amplitudes + psi_plus.amplitudes)
    )
    return u, PureState(env, (4,))


def seeded_unitary(dim: int, seed: int) -> np.ndarray:
    """One seeded random unitary: one Gaussian, one ``qr``, the R-diagonal phases divided out."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def chain_ops(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """ch2(ch1(.)) with operators K[(e, g)] = K2[g] K1[e], E1 slowest."""
    d, m = ch1.input_dim, ch1.env_dim * ch2.env_dim
    ops = np.einsum("agc,ceb->egab", _branches(ch2)[0], _branches(ch1)[0])
    return KrausChannel(ops.reshape(m, d, d))


def parallel_ops(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """ch1 (tensor) ch2 with operators K[(e, g)] = K1[e] (tensor) K2[g]."""
    d, m = ch1.input_dim * ch2.input_dim, ch1.env_dim * ch2.env_dim
    ops = np.einsum("aeb,cgd->egacbd", _branches(ch1)[0], _branches(ch2)[0])
    return KrausChannel(ops.reshape(m, d, d))


def scalar_transcript_slacks(t: ChannelTranscript, d_q: int = 2, d_r: int = 2) -> dict[str, float]:
    fano = 0.5 * quantum_fano_bound(t.fidelity, d_q * d_r)
    return {
        "loss_nonneg": t.loss,
        "loss_le_2s_in": 2.0 * t.s_in - t.loss,
        "loss_le_2s_env": 2.0 * t.s_env - t.loss,
        "schumacher_fano": fano - t.s_env,
    }


def scalar_inequality_slacks(
    ch1: KrausChannel, ch2: KrausChannel, rho_single: DensityMatrix, rho_pair: DensityMatrix
) -> dict[str, float]:
    """``vncap.analysis.inequality_slacks`` one draw at a time, every run scalar."""
    slacks: dict[str, float] = {}
    d = rho_single.dim
    t1 = scalar_run_channel(ch1, rho_single)
    for key, value in scalar_transcript_slacks(t1, d, d).items():
        slacks[f"single:{key}"] = value
    t12, state12 = scalar_run_channel(chain_ops(ch1, ch2), rho_single, return_state=True)
    for key, value in scalar_transcript_slacks(t12, d, d).items():
        slacks[f"chain:{key}"] = value
    slacks["forward_dpi"] = t1.mutual_entanglement - t12.mutual_entanglement
    slacks["forward_dpi_cap"] = 2.0 * t1.s_in - t1.mutual_entanglement
    slacks["loss_chaining"] = t12.loss - t1.loss
    slacks["code_fano"] = quantum_fano_bound(t12.fidelity, d**2) - t12.loss

    fine = PureState(state12.amplitudes, (d, d, ch1.env_dim, ch2.env_dim))  # (Q2', R, E1', E2')
    s_re1, s_re1q2 = schmidt_entropy(fine, (1, 2)), schmidt_entropy(fine, (3,))
    mutual_re1_q2 = s_re1 + t12.s_out - s_re1q2
    slacks["reverse_dpi"] = mutual_re1_q2 - t12.mutual_entanglement
    slacks["reverse_dpi_cap"] = 2.0 * t12.s_out - mutual_re1_q2

    tpar, state_par = scalar_run_channel(parallel_ops(ch1, ch2), rho_pair, return_state=True)
    for key, value in scalar_transcript_slacks(tpar, rho_pair.dim, rho_pair.dim).items():
        slacks[f"parallel:{key}"] = value
    dims = (ch1.input_dim, ch2.input_dim, rho_pair.dim, ch1.env_dim, ch2.env_dim)
    finep = PureState(state_par.amplitudes, dims)  # (Q1', Q2', R, E1', E2')
    keeps = ((0, 3), (0,), (3,), (1, 4), (1,), (4,))
    s_q1e1, s_q1, s_e1, s_q2e2, s_q2, s_e2 = (schmidt_entropy(finep, keep) for keep in keeps)
    i_1 = s_q1e1 + s_q1 - s_e1
    i_2 = s_q2e2 + s_q2 - s_e2
    slacks["subadditivity"] = i_1 + i_2 - tpar.mutual_entanglement
    return slacks


def scalar_mixture_axiom_slacks(
    ch1: KrausChannel, ch2: KrausChannel, rho1: DensityMatrix, rho2: DensityMatrix, w: float
) -> dict[str, float]:
    """``vncap.analysis.mixture_axiom_slacks`` with every run scalar."""
    mixed_input = DensityMatrix(w * rho1.matrix + (1.0 - w) * rho2.matrix, rho1.dims)
    i_on_rho1 = scalar_run_channel(ch1, rho1).mutual_entanglement
    i_mix = scalar_run_channel(ch1, mixed_input).mutual_entanglement
    i_2 = scalar_run_channel(ch1, rho2).mutual_entanglement
    concavity = i_mix - (w * i_on_rho1 + (1.0 - w) * i_2)
    mixed_channel = KrausChannel(
        tuple(math.sqrt(w) * k for k in ch1.operators)
        + tuple(math.sqrt(1.0 - w) * k for k in ch2.operators)
    )
    i_ch2 = scalar_run_channel(ch2, rho1).mutual_entanglement
    i_chmix = scalar_run_channel(mixed_channel, rho1).mutual_entanglement
    convexity = (w * i_on_rho1 + (1.0 - w) * i_ch2) - i_chmix
    return {"concavity_input": concavity, "convexity_channel": convexity}


def scalar_coherent_slack(
    ch: KrausChannel, rho1: DensityMatrix, rho2: DensityMatrix, w: float
) -> float:
    """The coherent-information concavity slack of one mixture, every run scalar."""
    mixed = DensityMatrix(w * rho1.matrix + (1.0 - w) * rho2.matrix, rho1.dims)
    i_mix = scalar_run_channel(ch, mixed).coherent_info
    i_parts = (
        w * scalar_run_channel(ch, rho1).coherent_info
        + (1.0 - w) * scalar_run_channel(ch, rho2).coherent_info
    )
    return i_mix - i_parts


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _draw_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    weights = rng.random(n) + 1e-12
    weights /= weights.sum()
    return weights


def random_dilation(rng: np.random.Generator, env_dim: int = 4) -> KrausChannel:
    """One random qubit dilation, drawn as the audits draw each channel."""
    return _from_branches(analysis._random_dilations([_draw_seed(rng)], env_dim))


def random_diagonal(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    """One random diagonal density matrix on ``dims``, drawn as the audits draw its weights."""
    weights = _draw_weights(rng, math.prod(dims))
    return DensityMatrix(np.diag(weights.astype(np.complex128)), dims)


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """One random density matrix: weights, then the seed of its eigenbasis, as the audits draw."""
    weights = _draw_weights(rng, dim)[np.newaxis]
    return analysis._random_densities(weights, [_draw_seed(rng)])[0]


def _draw_dilation(rng: np.random.Generator) -> KrausChannel:
    return dilation_channel(seeded_unitary(8, _draw_seed(rng)), 4, basis_state(4, 0))


def _draw_diagonal(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    return DensityMatrix(np.diag(_draw_weights(rng, math.prod(dims)).astype(np.complex128)), dims)


def _draw_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    weights = _draw_weights(rng, dim)
    u = seeded_unitary(dim, int(rng.integers(0, 2**63)))
    return DensityMatrix(u @ np.diag(weights.astype(np.complex128)) @ u.conj().T, (dim,))


def inequality_trials(seed: int, trials: int) -> list[dict[str, float]]:
    """The slacks of every ``audit_inequalities`` trial, one scalar trial at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        ch1, ch2 = _draw_dilation(rng), _draw_dilation(rng)
        rho_single, rho_pair = _draw_diagonal(rng, (2,)), _draw_diagonal(rng, (2, 2))
        out.append(scalar_inequality_slacks(ch1, ch2, rho_single, rho_pair))
    return out


def axiom_trials(seed: int, trials: int) -> list[tuple[float, dict[str, float]]]:
    """(weight, slacks) of every ``audit_axioms`` trial, one scalar trial at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        ch1, ch2 = _draw_dilation(rng), _draw_dilation(rng)
        rho1, rho2 = _draw_density(rng, 2), _draw_density(rng, 2)
        w = float(rng.uniform(0.05, 0.95))
        out.append((w, scalar_mixture_axiom_slacks(ch1, ch2, rho1, rho2, w)))
    return out


def coherent_trials(seed: int, trials: int) -> list[tuple[float, float]]:
    """(weight, slack) of every ``search_coherent_info_violations`` trial, one at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        ch = _draw_dilation(rng)
        rho1, rho2 = _draw_density(rng, 2), _draw_density(rng, 2)
        w = float(rng.uniform(0.05, 0.95))
        out.append((w, scalar_coherent_slack(ch, rho1, rho2, w)))
    return out


def einsum_send_rows(branches: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """``channel._send_rows`` as one einsum:
    out[n, a, ..., k] = sum_b B[n, a, k, b] amps[n, b, ...]."""
    return np.einsum("nakb,nb...->na...k", branches, amps)


def einsum_overlaps(amps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """<QR| out per branch of each row, as ``channel._transcript_rows`` reads its fidelity."""
    return np.einsum("nar,nark->nk", amps.conj(), out)


def einsum_chain_rows(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """``channel._chain_rows`` as one einsum."""
    n, d, m1, _ = np.broadcast_shapes(b1.shape[:1], b2.shape[:1]) + b1.shape[1:]
    return np.einsum("nagc,nceb->naegb", b2, b1).reshape(n, d, m1 * b2.shape[2], d)


def einsum_parallel_rows(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """``channel._parallel_rows`` as one einsum."""
    (n,) = np.broadcast_shapes(b1.shape[:1], b2.shape[:1])
    (d1, m1), (d2, m2) = b1.shape[1:3], b2.shape[1:3]
    return np.einsum("naeb,ncgd->nacegbd", b1, b2).reshape(n, d1 * d2, m1 * m2, d1 * d2)


def einsum_dilation_branches(us: np.ndarray, env: np.ndarray) -> np.ndarray:
    """The branch stack B[n, q', k, q] = <k| U_n (|q> tensor |env>) of an
    (N, d dE, d dE) stack of unitaries on Q (tensor) E, E the fast factor, and
    the dE amplitudes ``env`` of the environment's initial state, as one einsum:
    ``channel.dilation_channel``'s operators, stacked, before it read one unitary."""
    n, d, e = us.shape[0], us.shape[1] // env.size, env.size
    return np.einsum("nakbe,e->nakb", us.reshape(n, d, e, d, e), env)


def einsum_completeness_residual(branches: np.ndarray) -> float:
    """max |sum_k B_k^dag B_k - I| over an (N, a, k, b) branch stack, as one einsum."""
    total = np.einsum("nakb,nakc->nbc", branches.conj(), branches)
    return float(np.max(np.abs(total - np.eye(branches.shape[-1])), initial=0.0))


def einsum_norm_residual(amps: np.ndarray) -> float:
    """max ||psi_n| - 1| over a stack of state vectors, the squared norms as one einsum."""
    flat = amps.reshape(amps.shape[0], math.prod(amps.shape[1:]))
    norms = np.sqrt(np.einsum("ni,ni->n", flat.conj(), flat).real)
    return float(np.abs(norms - 1.0).max(initial=0.0))


def inequality_draws(seed: int, trials: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The draws of ``audit_inequalities``, one trial and one number at a time: the
    channel seeds (ch1, ch2 per trial), and the (T, 2) single and (T, 4) pair weights."""
    rng = np.random.default_rng(seed)
    seeds, singles, pairs = [], [], []
    for _ in range(trials):
        seeds += [_draw_seed(rng), _draw_seed(rng)]
        singles.append(_draw_weights(rng, 2))
        pairs.append(_draw_weights(rng, 4))
    return seeds, np.array(singles), np.array(pairs)


def mixture_draws(seed: int, trials: int, channels: int):
    """The draws of ``audit_axioms`` (2 channels) or the coherent search (1), one trial
    and one number at a time: the channel seeds, the (2T, 2) density weights (rho1,
    rho2 per trial), their seeds, and the T mixture weights."""
    rng = np.random.default_rng(seed)
    seeds, weights, density_seeds, ws = [], [], [], []
    for _ in range(trials):
        seeds += [_draw_seed(rng) for _ in range(channels)]
        for _ in range(2):
            weights.append(_draw_weights(rng, 2))
            density_seeds.append(_draw_seed(rng))
        ws.append(float(rng.uniform(0.05, 0.95)))
    return seeds, np.array(weights), density_seeds, ws


def ravel_shannon(probs) -> float:
    """The Shannon sum as it read any array-like: flattened, then made floats, by
    ``np.ravel(probs).tolist()``, the terms added left to right from 0.0."""
    total = 0.0
    for p in np.ravel(probs).tolist():
        total += _plog2p(p)
    return -total


def basis_state_random_dilations(seeds, env_dim: int = 4) -> np.ndarray:
    """``analysis._random_dilations`` by the full-QR route: all 2 env_dim columns of
    each unitary factored and checked, and the environment's |0> read from
    ``basis_state(env_dim, 0)`` by ``einsum_dilation_branches``."""
    us = _random_unitaries(2 * env_dim, seeds)
    _check_isometry(us, "matrix is not unitary")
    return einsum_dilation_branches(us, basis_state(env_dim, 0).amplitudes)


def projector_classical_use_ensemble(params: depolarizing.DepolParams):
    """``depolarizing.classical_use_ensemble`` with its inputs |1><1| and |0><0| built
    as ``basis_state`` projectors."""
    ch = depolarizing.depolarizing_kraus(params.p)
    inputs = [basis_state(2, 1).projector(), basis_state(2, 0).projector()]
    return np.array([1.0 - params.q, params.q]), [apply_channel(ch, rho) for rho in inputs]


def record_constructions(monkeypatch) -> list[str]:
    """The class name of every channel and state built from now on, in order."""
    built = []
    for cls in (KrausChannel, PureState, DensityMatrix):
        post_init = cls.__post_init__

        def recorded(self, _post_init=post_init):
            _post_init(self)
            built.append(type(self).__name__)

        monkeypatch.setattr(cls, "__post_init__", recorded)
    return built


def golden_tree(bracket: tuple, outcomes: tuple, depth: int, tol: float) -> list[float]:
    """Every point that the next ``depth`` steps from ``bracket`` = (lo, hi, c, d) can
    visit, the first step going each way in ``outcomes``, by recursion: a path ends
    where hi - lo <= tol."""
    points = []
    if depth and bracket[1] - bracket[0] > tol:
        for left in outcomes:
            *after, point = analysis._golden_step(*bracket, left)
            points.append(point)
            points += golden_tree(tuple(after), (True, False), depth - 1, tol)
    return points
