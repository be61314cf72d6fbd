"""Reference routes for the tests.

The library sends and composes channels through their Kraus branches only.
These functions build and apply the full unitaries on (Q, E) instead, so tests
can check the branch contractions against an independent route.  A unitary
and its initial environment travel together as a ``Dilation`` record, whose
fields are the arguments of ``vncap.channel.dilation_channel``.

``classical_use_contraction`` is the one-input classical-use simulation that
the stacked kernel replaced, kept to check the kernel against.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from vncap.channel import KrausChannel, _branches
from vncap.entropy import pure_subsystem_entropy
from vncap.qmat import PureState, _check_indices, _check_unitary, basis_state


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


def classical_use_contraction(ch: KrausChannel, q: float) -> tuple[float, float]:
    """(mutual, loss) of classical use at one q: one (Q, X, R) input, one contraction,
    three ``pure_subsystem_entropy`` calls on the (Q', X, R, E') output."""
    amps = np.zeros((2, 2, 2), dtype=np.complex128)  # (Q, X, R)
    amps[1, 1, 0] = math.sqrt(1.0 - q)
    amps[0, 0, 1] = -math.sqrt(q)
    out = np.einsum("akb,bxr->axrk", _branches(ch), amps)
    state = PureState(out.ravel(), out.shape)
    s_out = pure_subsystem_entropy(state, (0,))
    s_joint = pure_subsystem_entropy(state, (0, 2))  # S(Q'R)
    return s_out + pure_subsystem_entropy(state, (2,)) - s_joint, s_joint - s_out
