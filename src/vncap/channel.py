"""CPTP channels as Kraus branches, and channel transcripts.

A channel is its Kraus operators {K_k}; a unitary dilation U on Q (tensor) E
is one way to write them down, and ``dilation_channel`` reads its branches
K_k = <k| U (. tensor |env_initial>) off once.  Composition works on the same
branches: ``chain`` and ``parallel`` contract the branch tensors into a
``KrausChannel`` and never build a composite unitary.

Every transcript comes from one kernel, ``_transcript_rows``: a stack of
pure inputs on Q (tensor) R goes through one ``einsum`` against the branches,
Q through the isometry |q> -> sum_k K_k|q> |k>_E' into the branch register
E', and all entropic quantities are read off each row's |Q'R'E'>:

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
reference R and makes a one-row call; ``diagonal_transcripts`` enters the
paper's input family diag(q, 1 - q) for a whole q list as the amplitude stack
sqrt(q)|00> + sqrt(1 - q)|11>, in chunks of ``STACK_ROWS`` rows.  Sweeps, the
capacity grid scan and classical use run through the stacked calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .entropy import _row_entropies, binary_entropy
from .qmat import (
    PURITY_ATOL,
    UNITARY_ATOL,
    DensityMatrix,
    PureState,
    _as_complex_array,
    _as_count,
    _check_residual,
    _check_unitary,
    clamp_spectrum,
    _unit_interval,
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
        if not len(self.operators):
            raise ValueError("a channel needs at least one Kraus operator")
        ops = _as_complex_array(self.operators, 3)  # one (m, d, d) stack
        total = np.einsum("kab,kac->bc", ops.conj(), ops)  # sum_k K_k^dag K_k
        resid = np.max(np.abs(total - np.eye(ops.shape[1])))
        _check_residual(resid, UNITARY_ATOL, "Kraus operators are not trace preserving")
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


def dilation_channel(u_qe: np.ndarray, env_dim: int, env_initial: PureState) -> KrausChannel:
    """The channel of a unitary U on Q (tensor) E, E starting in |env_initial>.

    Its branches are K_k = <k| U (. tensor |env_initial>), one per environment
    basis state, with E the fast factor of U.
    """
    u = _check_unitary(u_qe)
    env_dim = _as_count(env_dim, "environment dimension")
    if env_dim < 1 or u.shape[0] % env_dim:
        raise ValueError(f"environment dimension {env_dim} does not divide {u.shape[0]}")
    if env_initial.dim != env_dim:
        raise ValueError(f"environment state is {env_initial.dim}-dim, expected {env_dim}")
    d = u.shape[0] // env_dim
    # B[qout, k, qin] = sum_e U[qout k, qin e] env[e]
    branches = np.einsum("akbe,e->akb", u.reshape(d, env_dim, d, env_dim), env_initial.amplitudes)
    return KrausChannel(branches.transpose(1, 0, 2))


def identity_channel(dim: int = 2) -> KrausChannel:
    """The noiseless channel: one identity Kraus operator, a one-dimensional environment."""
    return KrausChannel((np.eye(dim, dtype=np.complex128),))


def purify(rho_q: DensityMatrix) -> PureState:
    """A pure state on Q (tensor) R whose Q-marginal is ``rho_q``.

    Built from the clamped eigendecomposition as sum_i sqrt(p_i) |v_i>|i>,
    with Q the first (slowest) factor and the reference R a copy of Q's
    dimension.  Tracing out R recovers the input within 1e-10.
    """
    vals, vecs = np.linalg.eigh(rho_q.matrix)
    order = np.argsort(vals)[::-1]
    probs = clamp_spectrum(vals[order])
    vecs = vecs[:, order]
    amps = (vecs * np.sqrt(probs)[np.newaxis, :]).ravel()
    return PureState(amps, (rho_q.dim, rho_q.dim))


def _branches(ch: KrausChannel) -> np.ndarray:
    """The branch tensor B[q_out, k, q_in]: B_k is the k-th Kraus operator."""
    return np.stack(ch.operators, axis=1)


def _send_rows(ch: KrausChannel, amps: np.ndarray) -> np.ndarray:
    """out[n, q', ..., k] = sum_q B[q', k, q] amps[n, q, ...]: in every row n,
    factor 0 (Q) is sent and the branch register E' is appended last."""
    return np.einsum("akb,nb...->na...k", _branches(ch), amps)


def _transcript_rows(ch: KrausChannel, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transcript kernel: each row of an (N, d, d) amplitude stack on (Q, R), sent.

    Returns the (4, N) columns S, S', S_e, F_e and the (N, Q', R, E') output stack.
    """
    out = _send_rows(ch, amps)
    overlap = np.einsum("nar,nark->nk", amps.conj(), out)  # <QR| out, per branch
    fidelity = np.einsum("nk,nk->n", overlap, overlap.conj()).real
    entropies = _row_entropies(out, ((1,), (0,), (2,)))
    return np.vstack([entropies, fidelity]), out


def _chunked_rows(q_values, chunk_rows) -> np.ndarray:
    """``chunk_rows(qs)`` over the checked q values, STACK_ROWS at a time.

    ``chunk_rows`` returns one row of values per quantity; the chunks are
    joined along the q axis.
    """
    qs = np.array([_unit_interval(q, "mixing parameter") for q in q_values], dtype=np.float64)
    starts = range(0, max(qs.size, 1), STACK_ROWS)
    return np.concatenate([chunk_rows(qs[i : i + STACK_ROWS]) for i in starts], axis=1)


def _diagonal_chunk(ch: KrausChannel, qs: np.ndarray) -> np.ndarray:
    amps = np.zeros((qs.size, 2, 2), dtype=np.complex128)  # (Q, R)
    amps[:, 0, 0] = np.sqrt(qs)
    amps[:, 1, 1] = np.sqrt(1.0 - qs)
    return _transcript_rows(ch, amps)[0]


def diagonal_transcripts(ch: KrausChannel, q_values) -> ChannelTranscript:
    """``run_channel(ch, diag(q, 1 - q))`` for every q at once: one array per entry.

    Each input enters as sqrt(q)|00> + sqrt(1 - q)|11> on (Q, R).  It differs
    from ``purify``'s purification by a unitary on R, which changes no entry,
    so the rows agree with ``run_channel`` to rounding.
    """
    if ch.input_dim != 2:
        raise ValueError("diagonal inputs diag(q, 1 - q) need a single-qubit channel")
    columns = _chunked_rows(q_values, lambda qs: _diagonal_chunk(ch, qs))
    return ChannelTranscript.from_entropies(*columns)


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """The output density matrix sum_k K_k rho K_k^dag (factor layout preserved)."""
    if ch.input_dim != rho.dim:
        raise ValueError(
            f"dimension mismatch: channel is {ch.input_dim}-dim, state is {rho.dim}-dim"
        )
    branches = _branches(ch)
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
    d = rho_q.dim
    if ch.input_dim != d:
        raise ValueError(f"dimension mismatch: channel is {ch.input_dim}-dim, state is {d}-dim")
    columns, out = _transcript_rows(ch, purify(rho_q).amplitudes.reshape(1, d, d))
    state = PureState(out[0], out.shape[1:])  # (Q', R, E'), its norm checked
    transcript = ChannelTranscript.from_entropies(*columns[:, 0].tolist())
    if return_state:
        return transcript, state
    return transcript


def entanglement_fidelity(rho_qr_in: DensityMatrix, rho_qr_out: DensityMatrix) -> float:
    """Overlap <QR| rho_out |QR> of a pure joint input with the evolved joint state."""
    _check_residual(
        abs(rho_qr_in.spectrum[0] - 1.0), PURITY_ATOL, "input is not a pure-state projector"
    )
    if rho_qr_in.dim != rho_qr_out.dim:
        raise ValueError("dimension mismatch between input and output")
    return float(np.real(np.trace(rho_qr_in.matrix @ rho_qr_out.matrix)))


def chain(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """The composite channel ch2(ch1(.)) with independent environments E1, E2.

    Composed on the branches, B[a, (e, g), b] = sum_c B2[a, g, c] B1[c, e, b],
    so the branch register is E1 (tensor) E2, E1 slowest; no composite unitary
    is built.
    """
    if ch1.input_dim != ch2.input_dim:
        raise ValueError(
            f"dimension mismatch: {ch1.input_dim}-dim output into {ch2.input_dim}-dim channel"
        )
    d, m = ch1.input_dim, ch1.env_dim * ch2.env_dim
    ops = np.einsum("agc,ceb->egab", _branches(ch2), _branches(ch1))
    return KrausChannel(ops.reshape(m, d, d))


def parallel(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """The tensor-product channel on Q1 (tensor) Q2 with environments E1, E2.

    Composed on the branches, B[(a, c), (e, g), (b, d)] = B1[a, e, b] B2[c, g, d]:
    the input is Q1 (tensor) Q2 and the branch register E1 (tensor) E2, the first
    factor slowest in each; no composite unitary is built.
    """
    d, m = ch1.input_dim * ch2.input_dim, ch1.env_dim * ch2.env_dim
    ops = np.einsum("aeb,cgd->egacbd", _branches(ch1), _branches(ch2))
    return KrausChannel(ops.reshape(m, d, d))


def quantum_fano_bound(fidelity: float, code_dim: int) -> float:
    """Loss bound 2 [H2(F) + (1 - F) log2(d - 1)] for a d-dimensional code space."""
    d = _as_count(code_dim, "code dimension")
    if d < 2:
        raise ValueError(f"code dimension must be an integer >= 2, got {code_dim!r}")
    f = _unit_interval(fidelity, "fidelity")
    return 2.0 * (binary_entropy(f) + (1.0 - f) * math.log2(d - 1))


def transcript_identity_residuals(t: ChannelTranscript) -> dict[str, float]:
    """Absolute residuals of the defining transcript identities."""
    return {
        "loss_balance": abs(t.loss - (t.s_env + t.s_in - t.s_out)),
        "mutual_split": abs(t.mutual_entanglement + t.loss - 2.0 * t.s_in),
        "coherent_info": abs(t.coherent_info - (t.s_in - t.loss)),
    }


def transcript_slacks(t: ChannelTranscript, d_q: int = 2, d_r: int = 2) -> dict[str, float]:
    """Inequality slacks (nonnegative iff satisfied) for one transcript.

    Covers the triangle bounds 0 <= L <= 2 min(S, S_e) and the exchange-entropy
    Fano bound S_e <= H2[F_e] + (1 - F_e) log2(d_Q d_R - 1), half the
    quantum-code Fano bound at code dimension d_Q d_R.
    """
    fano = 0.5 * quantum_fano_bound(t.fidelity, d_q * d_r)
    return {
        "loss_nonneg": t.loss,
        "loss_le_2s_in": 2.0 * t.s_in - t.loss,
        "loss_le_2s_env": 2.0 * t.s_env - t.loss,
        "schumacher_fano": fano - t.s_env,
    }


def _has_bool(value) -> bool:
    """True if a JSON ``true``/``false`` sits anywhere in ``value`` (numpy would read it as 1/0)."""
    return isinstance(value, bool) or (
        isinstance(value, (list, tuple)) and any(map(_has_bool, value))
    )


def kraus_channel_from_json(source: str | dict) -> KrausChannel:
    """Load a channel from the JSON form {"kraus": [[[re, im], ...], ...]}.

    Each operator is a flat row-major list of [re, im] pairs of a d x d
    matrix; completeness is validated on construction.
    """
    data = json.loads(source) if isinstance(source, str) else source
    if not isinstance(data, dict) or "kraus" not in data:
        raise ValueError('missing "kraus" key')
    try:
        pairs = np.array(data["kraus"])  # (operators, entries, 2) when well formed
    except ValueError:  # numpy refuses ragged nesting
        pairs = None
    malformed = pairs is None or pairs.dtype.kind not in "iuf" or _has_bool(data["kraus"])
    if malformed or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError('"kraus" must list operators of equal size, each a list of [re, im] numbers')
    m, size = pairs.shape[:2]
    d = math.isqrt(size)
    if d * d != size:
        raise ValueError(f"operator with {size} entries is not square")
    ops = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)  # (re, im) -> z
    return KrausChannel(ops.reshape(m, d, d))


def kraus_channel_to_json(ch: KrausChannel) -> str:
    """Serialize a Kraus channel to the JSON import format."""
    payload = {
        "kraus": [
            [[float(z.real), float(z.imag)] for z in op.ravel()] for op in ch.operators
        ]
    }
    return json.dumps(payload)
