"""CPTP channels in Kraus and unitary-dilation form, and channel transcripts.

A channel run purifies its input against a reference R, sends Q through the
isometry |q> -> sum_k K_k|q> |k>_E' into the branch register E' (a dilation's
branches are K_k = <k| U (. tensor |env_initial>)), and reads all entropic
quantities off the final tripartite pure state |Q'R'E'>:

    s_in   S      entropy of the reference (= input entropy)
    s_out  S'     entropy of the channel output
    s_env  S_e    exchange entropy picked up by the environment
    loss   L      S_e + S - S'        (information ceded to the environment)
    mutual I      2S - L              (mutual entanglement S(R:Q'))
    coherent I_e  S - L
    fidelity F_e  <QR| rho_{Q'R} |QR>

The factor order of the retained pure state is (Q', R, E'), leftmost slowest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .entropy import binary_entropy, pure_subsystem_entropy
from .qmat import (
    PURITY_ATOL,
    UNITARY_ATOL,
    DensityMatrix,
    PureState,
    basis_state,
    _as_complex_array,
    _check_residual,
    _check_unitary,
    clamp_spectrum,
    tensor,
    _unit_interval,
)


@dataclass(frozen=True)
class KrausChannel:
    """A channel given by operators {K_k} with sum_k K_k^dag K_k = I."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_as_complex_array(k, 2) for k in self.operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValueError(f"Kraus operators must all be {d}x{d}, got {k.shape}")
        total = sum(k.conj().T @ k for k in ops)
        resid = np.max(np.abs(total - np.eye(d)))
        _check_residual(resid, UNITARY_ATOL, "Kraus operators are not trace preserving")
        object.__setattr__(self, "operators", ops)

    @property
    def input_dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True)
class DilationChannel:
    """A channel as a unitary on Q (tensor) E with a pure initial environment."""

    u_qe: np.ndarray
    env_dim: int
    env_initial: PureState

    def __post_init__(self):
        u = _check_unitary(self.u_qe)
        if self.env_dim < 1 or u.shape[0] % self.env_dim:
            raise ValueError(
                f"environment dimension {self.env_dim} does not divide {u.shape[0]}"
            )
        if self.env_initial.dim != self.env_dim:
            raise ValueError(
                f"environment state is {self.env_initial.dim}-dim, expected {self.env_dim}"
            )
        object.__setattr__(self, "u_qe", u)

    @property
    def input_dim(self) -> int:
        return self.u_qe.shape[0] // self.env_dim


Channel = Union[KrausChannel, DilationChannel]


@dataclass(frozen=True)
class ChannelTranscript:
    """The entropic summary of one channel run (all entries in bits except fidelity)."""

    s_in: float
    s_out: float
    s_env: float
    loss: float
    mutual_entanglement: float
    coherent_info: float
    fidelity: float


def identity_channel(dim: int = 2) -> DilationChannel:
    """The noiseless channel: identity unitary, one-dimensional environment."""
    return DilationChannel(np.eye(dim, dtype=np.complex128), 1, basis_state(1, 0))


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


def _branches(ch: Channel) -> np.ndarray:
    """The branch tensor B[q_out, k, q_in]: B_k is the k-th Kraus operator."""
    if isinstance(ch, KrausChannel):
        return np.stack(ch.operators, axis=1)
    d, m = ch.input_dim, ch.env_dim
    # B[qout, k, qin] = sum_e U[qout k, qin e] env[e]
    return np.einsum("akbe,e->akb", ch.u_qe.reshape(d, m, d, m), ch.env_initial.amplitudes)


def as_dilation(ch: Channel) -> DilationChannel:
    """The channel itself if already dilated, else a minimal isometry completion."""
    if isinstance(ch, DilationChannel):
        return ch
    return dilation_from_kraus(ch)


def dilation_from_kraus(ch: KrausChannel) -> DilationChannel:
    """Unitary dilation of a Kraus channel with env_dim = number of operators.

    The isometry V|q> = sum_k (K_k |q>) |k>_E occupies the columns with the
    environment in its initial basis state; the remaining columns are an
    orthonormal completion, so U(|q> |0>_E) reproduces the channel exactly.
    """
    d, m = ch.input_dim, len(ch.operators)
    full = d * m
    isometry = _branches(ch).reshape(full, d)  # rows (q', k) in (Q, E) order, E fastest
    q_full, _ = np.linalg.qr(isometry, mode="complete")
    u = np.empty((full, d, m), dtype=np.complex128)  # columns (q, e) in (Q, E) order
    u[:, :, 0] = isometry
    u[:, :, 1:] = q_full[:, d:].reshape(full, d, m - 1)
    return DilationChannel(u.reshape(full, full), m, basis_state(m, 0))


def kraus_from_dilation(ch: DilationChannel, env_basis: np.ndarray | None = None) -> KrausChannel:
    """Kraus operators K_k = <e_k| U (. tensor |env_initial>).

    Args:
        ch: dilated channel.
        env_basis: optional orthonormal environment basis, one basis vector
            per *row*; defaults to the computational basis.  Different bases
            give Kraus representations of the same channel.
    """
    m, branch = ch.env_dim, _branches(ch)
    if env_basis is not None:
        basis = np.asarray(env_basis, dtype=np.complex128)
        if basis.shape != (m, m):
            raise ValueError(f"environment basis must be {m}x{m}, got {basis.shape}")
        branch = np.einsum("ke,aeb->akb", basis.conj(), branch)
    return KrausChannel(tuple(branch[:, k, :] for k in range(m)))


def apply_channel(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    """The output density matrix sum_k K_k rho K_k^dag (factor layout preserved)."""
    if ch.input_dim != rho.dim:
        raise ValueError(
            f"dimension mismatch: channel is {ch.input_dim}-dim, state is {rho.dim}-dim"
        )
    branches = _branches(ch)
    out = np.einsum("akb,bc,dkc->ad", branches, rho.matrix, branches.conj())
    return DensityMatrix(out, rho.dims)


def run_channel(ch: Channel, rho_q: DensityMatrix, return_state: bool = False):
    """Send ``rho_q`` through the channel and read off the entropic transcript.

    Args:
        ch: the channel, in either representation.
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
    psi_qr = purify(rho_q)
    # out[q', r, k] = sum_q B[q', k, q] psi[q, r]
    amps = np.einsum("akb,br->ark", _branches(ch), psi_qr.amplitudes.reshape(d, d))
    out = PureState(amps.ravel(), amps.shape)

    s_in = pure_subsystem_entropy(out, (1,))
    s_out = pure_subsystem_entropy(out, (0,))
    s_env = pure_subsystem_entropy(out, (2,))
    loss = s_env + s_in - s_out
    mutual = 2.0 * s_in - loss
    coherent = s_in - loss

    # F_e = <QR| rho_{Q'R} |QR> = |psi_qr^dag M|^2 with M the (QR, E') reshaping.
    mat = out.amplitudes.reshape(d * d, -1)
    overlap = psi_qr.amplitudes.conj() @ mat
    fidelity = float(np.real(overlap @ overlap.conj()))

    transcript = ChannelTranscript(
        s_in=s_in,
        s_out=s_out,
        s_env=s_env,
        loss=loss,
        mutual_entanglement=mutual,
        coherent_info=coherent,
        fidelity=fidelity,
    )
    if return_state:
        return transcript, out
    return transcript


def entanglement_fidelity(rho_qr_in: DensityMatrix, rho_qr_out: DensityMatrix) -> float:
    """Overlap <QR| rho_out |QR> of a pure joint input with the evolved joint state."""
    _check_residual(
        abs(rho_qr_in.spectrum[0] - 1.0), PURITY_ATOL, "input is not a pure-state projector"
    )
    if rho_qr_in.dim != rho_qr_out.dim:
        raise ValueError("dimension mismatch between input and output")
    return float(np.real(np.trace(rho_qr_in.matrix @ rho_qr_out.matrix)))


def chain(ch1: Channel, ch2: Channel) -> DilationChannel:
    """The composite channel ch2(ch1(.)) with independent environments E1, E2.

    The composite unitary acts on (Q, E1, E2) and is flattened so the
    environment block is E1 (tensor) E2, E1 slowest.
    """
    d1, d2 = as_dilation(ch1), as_dilation(ch2)
    if d1.input_dim != d2.input_dim:
        raise ValueError(
            f"dimension mismatch: {d1.input_dim}-dim output into {d2.input_dim}-dim channel"
        )
    d, m1, m2 = d1.input_dim, d1.env_dim, d2.env_dim
    u1 = d1.u_qe.reshape(d, m1, d, m1)
    u2 = d2.u_qe.reshape(d, m2, d, m2)
    # U[c e g, b f h] = sum_a U2[c g, a h] U1[a e, b f] over (Q, E1, E2)
    u = np.einsum("cgah,aebf->cegbfh", u2, u1).reshape(d * m1 * m2, d * m1 * m2)
    return DilationChannel(u, m1 * m2, _joint_environment(d1, d2))


def parallel(ch1: Channel, ch2: Channel) -> DilationChannel:
    """The tensor-product channel on Q1 (tensor) Q2 with environments E1, E2.

    Factor order of the composite unitary is (Q1, Q2, E1, E2), flattened to
    (Q1 Q2) x (E1 E2) for the dilation.
    """
    d1, d2 = as_dilation(ch1), as_dilation(ch2)
    n1, m1, n2, m2 = d1.input_dim, d1.env_dim, d2.input_dim, d2.env_dim
    u1 = d1.u_qe.reshape(n1, m1, n1, m1)
    u2 = d2.u_qe.reshape(n2, m2, n2, m2)
    full = n1 * n2 * m1 * m2
    u = np.einsum("aebf,cgdh->acegbdfh", u1, u2).reshape(full, full)
    return DilationChannel(u, m1 * m2, _joint_environment(d1, d2))


def _joint_environment(d1: DilationChannel, d2: DilationChannel) -> PureState:
    return PureState(
        tensor(d1.env_initial.amplitudes, d2.env_initial.amplitudes),
        (d1.env_dim * d2.env_dim,),
    )


def quantum_fano_bound(fidelity: float, code_dim: int) -> float:
    """Loss bound 2 [H2(F) + (1 - F) log2(d - 1)] for a d-dimensional code space."""
    if not (float(code_dim).is_integer() and code_dim >= 2):
        raise ValueError(f"code dimension must be an integer >= 2, got {code_dim!r}")
    f = _unit_interval(fidelity, "fidelity")
    return 2.0 * (binary_entropy(f) + (1.0 - f) * math.log2(int(code_dim) - 1))


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


def kraus_channel_from_json(source: str | dict) -> KrausChannel:
    """Load a channel from the JSON form {"kraus": [[[re, im], ...], ...]}.

    Each operator is a flat row-major list of [re, im] pairs of a d x d
    matrix; completeness is validated on construction.
    """
    data = json.loads(source) if isinstance(source, str) else source
    if "kraus" not in data:
        raise ValueError('missing "kraus" key')
    ops = []
    for entries in data["kraus"]:
        flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
        d = math.isqrt(flat.size)
        if d * d != flat.size:
            raise ValueError(f"operator with {flat.size} entries is not square")
        ops.append(flat.reshape(d, d))
    return KrausChannel(tuple(ops))


def kraus_channel_to_json(ch: KrausChannel) -> str:
    """Serialize a Kraus channel to the JSON import format."""
    payload = {
        "kraus": [
            [[float(z.real), float(z.imag)] for z in op.ravel()] for op in ch.operators
        ]
    }
    return json.dumps(payload)
