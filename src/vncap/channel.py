"""CPTP channels as Kraus branches, and channel transcripts.

A channel is its Kraus operators {K_k}; a unitary dilation U on Q (tensor) E
is one way to write them down, and ``dilation_channel`` reads its branches
K_k = <k| U (. tensor |env_initial>) off once.  Composition works on the same
branches: ``chain`` and ``parallel`` contract the branch tensors into a
``KrausChannel``.  A channel reaches every kernel as a branch stack
B[n, q_out, k, q_in], B[n, :, k, :] the k-th Kraus operator of row n:
``_branches`` gives a channel's one-row stack and ``_from_branches`` turns one
back into a channel.  ``chain`` and ``parallel`` are the one-row calls of
routines on (N, ...) stacks (``_chain_rows``, ``_parallel_rows``), which the
audits call with a chunk of trials at once.  The stacked kernels
contract on reshaped stacks with batched ``matmul`` calls (BLAS), and
``_parallel_rows``, which sums over nothing, is one broadcast product.

Every transcript comes from one kernel, ``_transcript_rows``: a stack of
pure inputs on Q (tensor) R goes through one batched ``matmul`` against a
branch stack (one row broadcast to every input, or one per input), Q through
the isometry |q> -> sum_k K_k|q> |k>_E' into the branch register E', and all
entropic quantities are read off each row's |Q'R'E'>:

    s_in   S      entropy of the reference (= input entropy)
    s_out  S'     entropy of the channel output
    s_env  S_e    exchange entropy picked up by the environment
    loss   L      S_e + S - S'        (information ceded to the environment)
    mutual I      2S - L              (mutual entanglement S(R:Q'))
    coherent I_e  S - L
    fidelity F_e  <QR| rho_{Q'R} |QR>

Each entropy is one stacked ``eigvalsh`` on the smaller side's Gram matrices
(``entropy._row_entropies``).  The factor order of each output row is
(Q', R, E'), leftmost slowest.  ``run_channel`` purifies any input against a
reference R with the stacked ``_purify_rows`` (``purify`` is its one-row
call) and makes a one-row call.  Diagonal inputs need no eigensolve:
``_diagonal_amps`` writes their purifications sum_i sqrt(w_i)|ii> down
directly, and ``diagonal_transcripts`` sends the paper's input family
diag(q, 1 - q) for a whole q list that way, in chunks of ``STACK_ROWS`` rows.
Sweeps, the capacity grid scan, classical use, superdense coding and the
audits run through the stacked calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .entropy import _row_entropies, _spectrum_entropies
from .qmat import (
    PURITY_ATOL,
    DensityMatrix,
    PureState,
    _as_complex_array,
    _as_count,
    _at_least,
    _check_isometry,
    _check_residual,
    _check_state,
    _check_unitary,
    _dimension,
    _flag,
    _numbers,
    _real,
    clamp_spectrum,
    _unit_interval,
    _unit_intervals,
)

# Rows per stacked contraction.  A chunk's amplitude, output and Gram stacks
# stay within a few MB however long the q list is; at this size the per-chunk
# overhead is already negligible.
STACK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel given by operators {K_k} with sum_k K_k^dag K_k = I.

    Compared by identity, like the states.
    """

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        empty = isinstance(self.operators, (tuple, list)) and not self.operators
        ops = None if empty else _as_complex_array(self.operators, "Kraus operators", 3)
        if empty or not len(ops):  # read, an empty list would fail the 3-axis check
            raise ValueError("a channel needs at least one Kraus operator")
        _check_complete(ops.swapaxes(0, 1)[np.newaxis])
        object.__setattr__(self, "operators", tuple(ops))

    @property
    def input_dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def env_dim(self) -> int:
        """The number of branches, one environment basis state per Kraus operator."""
        return len(self.operators)


@dataclass(frozen=True)
class ChannelTranscript:
    """The entropic summary of one channel run (all entries in bits except fidelity).

    ``diagonal_transcripts`` fills each entry with an array, one value per input.
    """

    s_in: float
    s_out: float
    s_env: float
    loss: float
    mutual_entanglement: float
    coherent_info: float
    fidelity: float

    @classmethod
    def from_entropies(cls, s_in, s_out, s_env, fidelity) -> "ChannelTranscript":
        """The transcript of (S, S', S_e, F_e): L = S_e + S - S', I = 2S - L, I_e = S - L."""
        loss = s_env + s_in - s_out
        return cls(s_in, s_out, s_env, loss, 2.0 * s_in - loss, s_in - loss, fidelity)


def _check_complete(branches: np.ndarray) -> None:
    """Raise unless each branch tensor of an (N, a, k, b) stack is trace preserving,
    sum_k B_k^dag B_k = I: the ``_check_isometry`` of its (N, a k, b) flattening."""
    n, a, k, b = branches.shape
    _check_isometry(branches.reshape(n, a * k, b), "Kraus operators are not trace preserving")


def _from_branches(branches: np.ndarray) -> KrausChannel:
    """The channel of a one-row stack B[0, q', k, q]: its Kraus operators are B[0, :, k, :]."""
    (row,) = branches
    return KrausChannel(row.swapaxes(0, 1))


def dilation_channel(u_qe: np.ndarray, env_dim: int, env_initial: PureState) -> KrausChannel:
    """The channel of a unitary U on Q (tensor) E, E starting in |env_initial>.

    Its branches are K_k = <k| U (. tensor |env_initial>), one per environment
    basis state, with E the fast factor of U: one ``einsum`` over E's input index.
    """
    u = _check_unitary(u_qe)
    _check_state(env_initial, PureState, "env_initial")
    env_dim = _as_count(env_dim, "environment dimension")
    if env_dim < 1 or u.shape[0] % env_dim:
        raise ValueError(f"environment dimension {env_dim} does not divide {u.shape[0]}")
    if env_initial.dim != env_dim:
        raise ValueError(f"environment state is {env_initial.dim}-dim, expected {env_dim}")
    u = u.reshape(-1, env_dim, len(u) // env_dim, env_dim)  # (Q', E', Q, E)
    return KrausChannel(np.einsum("akbe,e->kab", u, env_initial.amplitudes))


def identity_channel(dim: int = 2) -> KrausChannel:
    """The noiseless channel: one identity Kraus operator, a one-dimensional environment."""
    return KrausChannel((np.eye(_dimension(dim), dtype=np.complex128),))


def _purify_rows(mats: np.ndarray) -> np.ndarray:
    """A purification on (Q, R) of each matrix of an (N, d, d) stack of density matrices.

    Row n is sum_i sqrt(p_i) |v_i>|i>, eigenvalues descending, from one stacked
    ``eigh``; ``clamp_spectrum`` checks every eigenvalue against the floor.
    """
    vals, vecs = np.linalg.eigh(mats)
    probs = clamp_spectrum(vals[:, ::-1])
    return vecs[:, :, ::-1] * np.sqrt(probs)[:, np.newaxis, :]


def purify(rho_q: DensityMatrix) -> PureState:
    """A pure state on Q (tensor) R whose Q-marginal is ``rho_q``.

    Built from the clamped eigendecomposition as sum_i sqrt(p_i) |v_i>|i>,
    with Q the first (slowest) factor and the reference R a copy of Q's
    dimension: the one-row call of ``_purify_rows``.  Tracing out R recovers
    the input within 1e-10.
    """
    _check_state(rho_q, DensityMatrix, "rho_q")
    return PureState(_purify_rows(rho_q.matrix[np.newaxis])[0], (rho_q.dim, rho_q.dim))


def _branches(ch: KrausChannel, name: str = "channel") -> np.ndarray:
    """The one-row stack B[0, q_out, k, q_in]: B[0, :, k, :] is the k-th Kraus operator.

    The one channel-type check: every entry point that takes a channel reads it
    here, before anything else of it, and anything but a ``KrausChannel`` raises
    ValueError "<name> must be a KrausChannel"."""
    _check_state(ch, KrausChannel, name)
    return np.stack(ch.operators, axis=1)[np.newaxis]


def _send_rows(branches: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """out[n, q', ..., k] = sum_q B[n, q', k, q] amps[n, q, ...]: in every row n,
    factor 0 (Q) is sent and the branch register E' is appended last.

    ``branches`` is an (N, a, k, b) stack with one branch tensor per row, or a
    one-row stack, which matmul broadcasts to every row.  One batched matmul of
    each row's (a k, b) branch matrix with its (b, rest) amplitude matrix; the
    result is a view with E' moved last.  Every size is explicit, so empty
    stacks work.
    """
    (nb, a, k, b), n, rest = branches.shape, amps.shape[0], amps.shape[2:]
    size = math.prod(rest)
    out = branches.reshape(nb, a * k, b) @ amps.reshape(n, b, size)
    rows = out.shape[0]
    return out.reshape(rows, a, k, size).swapaxes(2, 3).reshape(rows, a, *rest, k)


def _transcript_rows(branches: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transcript kernel: each row of an (N, d, d) amplitude stack on (Q, R), sent
    through ``branches`` as ``_send_rows`` does.

    Returns the (4, N) columns S, S', S_e, F_e and the (N, Q', R, E') output stack.
    """
    out = _send_rows(branches, amps)
    (n, a, r), k = amps.shape, out.shape[-1]
    overlap = (amps.conj().reshape(n, 1, a * r) @ out.reshape(n, a * r, k))[:, 0]  # <QR| out
    fidelity = np.einsum("nk,nk->n", overlap, overlap.conj()).real
    entropies = _row_entropies(out, ((1,), (0,), (2,)))
    return np.vstack([entropies, fidelity]), out


def _chunked_rows(chunk_rows, *columns: np.ndarray) -> np.ndarray:
    """``chunk_rows`` over aligned arrays of checked rows, STACK_ROWS rows at a time.

    Each call gets the same slice of every column and returns one row of values
    per quantity; the chunks are joined along the row axis.
    """
    starts = range(0, max(len(columns[0]), 1), STACK_ROWS)
    return np.concatenate(
        [chunk_rows(*(c[i : i + STACK_ROWS] for c in columns)) for i in starts], axis=1
    )


def _diagonal_amps(weights) -> np.ndarray:
    """The (N, d, d) amplitude stack sum_i sqrt(w_i) |i>_Q |i>_R of an (N, d) weight
    stack: a purification of each diag(w), with R a copy of Q."""
    roots = np.sqrt(weights)
    n, d = roots.shape
    amps = np.zeros((n, d, d), dtype=np.complex128)
    amps.reshape(n, d * d)[:, :: d + 1] = roots  # the diagonal of each row
    return amps


def _diagonal_chunk(branches: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The (4, N) transcript columns of the inputs diag(q, 1 - q), sent through a
    branch stack of one row or one per row."""
    return _transcript_rows(branches, _diagonal_amps(np.array((qs, 1.0 - qs)).T))[0]


def diagonal_transcripts(ch: KrausChannel, q_values) -> ChannelTranscript:
    """``run_channel(ch, diag(q, 1 - q))`` for every q at once: one array per entry.

    Each input enters as sqrt(q)|00> + sqrt(1 - q)|11> on (Q, R).  It differs
    from ``purify``'s purification by a unitary on R, which changes no entry,
    so the rows agree with ``run_channel`` to rounding.
    """
    branches = _branches(ch)
    if ch.input_dim != 2:
        raise ValueError("diagonal inputs diag(q, 1 - q) need a single-qubit channel")
    qs = _unit_intervals(q_values, "mixing parameter")
    return ChannelTranscript.from_entropies(
        *_chunked_rows(lambda q: _diagonal_chunk(branches, q), qs)
    )


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """The output density matrix sum_k K_k rho K_k^dag (factor layout preserved)."""
    branches = _branches(ch)[0]
    _check_state(rho, DensityMatrix, "rho")
    if ch.input_dim != rho.dim:
        raise ValueError(
            f"dimension mismatch: channel is {ch.input_dim}-dim, state is {rho.dim}-dim"
        )
    out = np.einsum("akb,bc,dkc->ad", branches, rho.matrix, branches.conj())
    return DensityMatrix(out, rho.dims)


def run_channel(ch: KrausChannel, rho_q: DensityMatrix, return_state: bool = False):
    """Send ``rho_q`` through the channel and read off the entropic transcript.

    Args:
        ch: the channel.
        rho_q: input state on Q.
        return_state: if True, also return the final tripartite PureState on
            (Q', R, E') for audits that need joint entropies the transcript
            discards.

    Returns:
        ChannelTranscript, or (ChannelTranscript, PureState) with
        ``return_state=True``.
    """
    branches = _branches(ch)
    _check_state(rho_q, DensityMatrix, "rho_q")
    return_state = _flag(return_state, "return_state")
    d = rho_q.dim
    if ch.input_dim != d:
        raise ValueError(f"dimension mismatch: channel is {ch.input_dim}-dim, state is {d}-dim")
    columns, out = _transcript_rows(branches, _purify_rows(rho_q.matrix[np.newaxis]))
    transcript = ChannelTranscript.from_entropies(*columns[:, 0].tolist())
    if return_state:
        return transcript, PureState(out[0], out.shape[1:])  # (Q', R, E'), its norm checked
    return transcript


def entanglement_fidelity(rho_qr_in: DensityMatrix, rho_qr_out: DensityMatrix) -> float:
    """Overlap <QR| rho_out |QR> of a pure joint input with the evolved joint state."""
    _check_state(rho_qr_in, DensityMatrix, "rho_qr_in")
    _check_state(rho_qr_out, DensityMatrix, "rho_qr_out")
    _check_residual(
        abs(rho_qr_in.spectrum[0] - 1.0), PURITY_ATOL, "input is not a pure-state projector"
    )
    if rho_qr_in.dim != rho_qr_out.dim:
        raise ValueError("dimension mismatch between input and output")
    return float(np.real(np.trace(rho_qr_in.matrix @ rho_qr_out.matrix)))


def _chain_rows(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """ch2(ch1(.)) for each row of the (N, d, m1, d) and (N, d, m2, d) branch stacks:
    B[n, a, (e, g), b] = sum_c B2[n, a, g, c] B1[n, c, e, b], E1 the slower index."""
    (n1, d, m1, _), m2 = b1.shape, b2.shape[2]
    out = b2.reshape(b2.shape[0], d * m2, d) @ b1.reshape(n1, d, m1 * d)  # (N, (a, g), (e, b))
    n = out.shape[0]
    return out.reshape(n, d, m2, m1, d).swapaxes(2, 3).reshape(n, d, m1 * m2, d)


def _parallel_rows(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """ch1 (tensor) ch2 for each row of two branch stacks:
    B[n, (a, c), (e, g), (b, d)] = B1[n, a, e, b] B2[n, c, g, d], the first factor slowest."""
    (d1, m1), (d2, m2) = b1.shape[1:3], b2.shape[1:3]
    new = np.newaxis
    out = b1[:, :, new, :, new, :, new] * b2[:, new, :, new, :, new, :]  # (n, a, c, e, g, b, d)
    return out.reshape(out.shape[0], d1 * d2, m1 * m2, d1 * d2)


def chain(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """The composite channel ch2(ch1(.)) with independent environments E1, E2.

    Composed on the branches, B[a, (e, g), b] = sum_c B2[a, g, c] B1[c, e, b],
    so the branch register is E1 (tensor) E2, E1 slowest.  The one-row call of
    ``_chain_rows``.
    """
    b1, b2 = _branches(ch1, "ch1"), _branches(ch2, "ch2")
    if ch1.input_dim != ch2.input_dim:
        raise ValueError(
            f"dimension mismatch: {ch1.input_dim}-dim output into {ch2.input_dim}-dim channel"
        )
    return _from_branches(_chain_rows(b1, b2))


def parallel(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """The tensor-product channel on Q1 (tensor) Q2 with environments E1, E2.

    Composed on the branches, B[(a, c), (e, g), (b, d)] = B1[a, e, b] B2[c, g, d]:
    the input is Q1 (tensor) Q2 and the branch register E1 (tensor) E2, the first
    factor slowest in each.  The one-row call of ``_parallel_rows``.
    """
    return _from_branches(_parallel_rows(_branches(ch1, "ch1"), _branches(ch2, "ch2")))


def quantum_fano_bound(fidelity: float, code_dim: int) -> float:
    """Loss bound 2 [H2(F) + (1 - F) log2(d - 1)] for a d-dimensional code space:
    the one-row call of ``_fano_rows``, the code dimension checked first."""
    d = _at_least(code_dim, 2, "code dimension")
    return float(_fano_rows(_unit_interval(fidelity, "fidelity"), d))


def _fano_rows(fidelity, code_dim: int) -> np.ndarray:
    """``quantum_fano_bound`` of each fidelity in an array: (F, 1 - F) is checked and
    clamped as a spectrum, and H2(F) is its entropy."""
    probs = clamp_spectrum(np.stack([fidelity, 1.0 - fidelity], axis=-1))
    log_term = math.log2(_at_least(code_dim, 2, "code dimension") - 1)
    return 2.0 * (_spectrum_entropies(probs) + probs[..., 1] * log_term)


def transcript_identity_residuals(t: ChannelTranscript) -> dict[str, float]:
    """Absolute residuals of the defining transcript identities."""
    _check_state(t, ChannelTranscript, "transcript")
    return {
        "loss_balance": abs(t.loss - (t.s_env + t.s_in - t.s_out)),
        "mutual_split": abs(t.mutual_entanglement + t.loss - 2.0 * t.s_in),
        "coherent_info": abs(t.coherent_info - (t.s_in - t.loss)),
    }


def transcript_slacks(t: ChannelTranscript, d_q: int = 2, d_r: int = 2) -> dict[str, float]:
    """Inequality slacks (nonnegative iff satisfied) for one transcript.

    Covers the triangle bounds 0 <= L <= 2 min(S, S_e) and the exchange-entropy
    Fano bound S_e <= H2[F_e] + (1 - F_e) log2(d_Q d_R - 1), half the
    quantum-code Fano bound at code dimension d_Q d_R.  Each entry of ``t`` must be a
    real number (read by ``_real``) and ``d_q`` and ``d_r`` integers >= 1, or ValueError.
    """
    _check_state(t, ChannelTranscript, "transcript")
    t = ChannelTranscript(*(_real(value, f"transcript {key}") for key, value in vars(t).items()))
    code_dim = _at_least(d_q, 1, "d_q") * _at_least(d_r, 1, "d_r")
    fano = _fano_rows(t.fidelity, code_dim)
    return {key: float(slack) for key, slack in _slack_columns(t, fano).items()}


def _slack_columns(t: ChannelTranscript, fano) -> dict:
    """``transcript_slacks`` of a transcript whose entries are floats or equal-length
    arrays, one slack (or array of slacks) per id; ``fano`` is the quantum-code Fano
    bound of its fidelities, ``_fano_rows(t.fidelity, code_dim)``, which the audit
    computes once for the exchange-entropy bound and the code bound."""
    return {
        "loss_nonneg": t.loss,
        "loss_le_2s_in": 2.0 * t.s_in - t.loss,
        "loss_le_2s_env": 2.0 * t.s_env - t.loss,
        "schumacher_fano": 0.5 * fano - t.s_env,
    }


def kraus_channel_from_json(source: str | dict) -> KrausChannel:
    """Load a channel from the JSON form {"kraus": [[[re, im], ...], ...]}.

    Each operator is a flat row-major list of [re, im] pairs of a d x d
    matrix; completeness is validated on construction.
    """
    data = json.loads(source) if isinstance(source, str) else source
    if not isinstance(data, dict) or "kraus" not in data:
        raise ValueError('missing "kraus" key')
    pairs = _numbers(data["kraus"], '"kraus"', 3, "iuf")  # (operators, entries, 2)
    if pairs.shape[2] != 2:
        raise ValueError(f'"kraus": expected [re, im] pairs, got shape {pairs.shape}')
    m, size = pairs.shape[:2]
    d = math.isqrt(size)
    if d * d != size:
        raise ValueError(f"operator with {size} entries is not square")
    ops = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)  # (re, im) -> z
    return KrausChannel(ops.reshape(m, d, d))


def kraus_channel_to_json(ch: KrausChannel) -> str:
    """Serialize a Kraus channel to the JSON import format."""
    _check_state(ch, KrausChannel, "channel")
    payload = {
        "kraus": [
            [[float(z.real), float(z.imag)] for z in op.ravel()] for op in ch.operators
        ]
    }
    return json.dumps(payload)
