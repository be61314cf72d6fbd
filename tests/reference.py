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
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from vncap.channel import ChannelTranscript, KrausChannel, _branches, purify
from vncap.qmat import (
    DensityMatrix,
    PureState,
    _check_indices,
    _check_unitary,
    basis_state,
    clamp_spectrum,
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
    isometry = _branches(ch).reshape(full, d)  # rows (q', k) in (Q, E) order, E fastest
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
    out = np.einsum("akb,br->ark", _branches(ch), psi_qr.amplitudes.reshape(d, d))
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
    out = np.einsum("akb,bxr->axrk", _branches(ch), amps)
    state = PureState(out.ravel(), out.shape)
    s_out = schmidt_entropy(state, (0,))
    s_joint = schmidt_entropy(state, (0, 2))  # S(Q'R)
    return s_out + schmidt_entropy(state, (2,)) - s_joint, s_joint - s_out
