"""The depolarizing channel worked out end to end, plus its dephasing cousin.

The channel leaves a qubit alone with probability 1 - p and applies a bit
flip, a phase flip, or both with probability p/3 each.  Everything here comes
in two independent routes: explicit closed forms for every entropic quantity,
and an exact 8-dimensional unitary dilation built from the one-parameter
"q-basis" of two-qubit states

    phi_minus(q) = sqrt(1-q)|00> - sqrt(q)|11>
    phi_plus(q)  = sqrt(q)|00> + sqrt(1-q)|11>
    psi_minus(q) = sqrt(1-q)|10> - sqrt(q)|01>
    psi_plus(q)  = sqrt(q)|10> + sqrt(1-q)|01>

which interpolates between product states (q = 0, 1) and the Bell basis
(q = 1/2).  The sign convention used throughout is PHASE_FLIP = diag(-1, +1)
(so PHASE_FLIP|1> = +|1>), under which the error branches permute the q-basis:
BIT_FLIP maps psi_minus(q) to phi_minus(q), BIT_PHASE_FLIP maps it to
phi_plus(1-q), and PHASE_FLIP maps it to psi_plus(1-q).

The classical-use quantities model sending a classical bit (q-biased) through
the same channel; the superdense quantities model sending half of a Bell pair
to convey two classical bits.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Set
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelTranscript,
    KrausChannel,
    _bound_rows,
    _branches,
    _check_complete,
    _diagonal_chunk,
    _from_branches,
    _send_rows,
    _transcript_rows,
    apply_channel,
    dilation_channel,
)
from .entropy import (
    _binary_entropy_rows,
    _row_entropies,
    _shannon,
    _shannon_rows,
    binary_entropy,
    check_prob_vector,
    von_neumann_entropy,
)
from .qmat import (
    DensityMatrix,
    PureState,
    _check_state,
    _sequence,
    _unit_interval,
    _unit_intervals,
)

LOG2_3 = math.log2(3.0)

BIT_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PHASE_FLIP = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
BIT_PHASE_FLIP = BIT_FLIP @ PHASE_FLIP  # [[0, 1], [-1, 0]]
# Flips k = identity, bit flip, bit-phase flip, phase flip as one (q_out, k, q_in) table.
_FLIPS = np.stack([np.eye(2, dtype=np.complex128), BIT_FLIP, BIT_PHASE_FLIP, PHASE_FLIP], axis=1)
for _m in (BIT_FLIP, PHASE_FLIP, BIT_PHASE_FLIP, _FLIPS):
    _m.setflags(write=False)


@dataclass(frozen=True)
class DepolParams:
    """Error probability p and input-mixing parameter q, both in [0, 1]."""

    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "p", _unit_interval(self.p, "error probability"))
        object.__setattr__(self, "q", _unit_interval(self.q, "mixing parameter"))


@dataclass(frozen=True)
class SuperdenseReport:
    """Classical information carried per qubit of a noisy superdense code."""

    conditional_mutual: float
    kholevo_chi: float
    p: float


def _q_basis_rows(q: float) -> np.ndarray:
    """The q-basis of a checked q as one (4, 2, 2) amplitude table, rows in ``q_basis``
    order (phi_minus, phi_plus, psi_minus, psi_plus)."""
    a, b = math.sqrt(1.0 - q), math.sqrt(q)
    rows = [[a, 0.0, 0.0, -b], [b, 0.0, 0.0, a], [0.0, -b, a, 0.0], [0.0, a, b, 0.0]]
    return np.array(rows, dtype=np.complex128).reshape(4, 2, 2)


def q_basis(q: float) -> tuple[PureState, PureState, PureState, PureState]:
    """The orthonormal two-qubit family (phi_minus, phi_plus, psi_minus, psi_plus)."""
    rows = _q_basis_rows(_unit_interval(q, "mixing parameter"))
    return tuple(PureState(row, (2, 2)) for row in rows)


def _pauli_branches(flips: np.ndarray, *weights: np.ndarray) -> np.ndarray:
    """B[n, q_out, k, q_in] = sqrt(w_k[n]) flips[:, k, :] of K checked weight rows, not yet
    checked complete: one broadcast multiply in that order.  An einsum would turn the -0.0 of
    0 * (-1) at p = 0 into +0.0, and a swapped view would be copied per chunk."""
    return np.sqrt(np.stack(weights, axis=1))[:, np.newaxis, :, np.newaxis] * flips


def _depolarizing_branches(ps: np.ndarray) -> np.ndarray:
    """The branch stack of each checked p: weights (1-p, p/3, p/3, p/3) on all four flips."""
    return _pauli_branches(_FLIPS, 1.0 - ps, *[ps / 3.0] * 3)


def _dephasing_branches(ps: np.ndarray) -> np.ndarray:
    """The branch stack of each checked p: weights (1-p, p) on the identity and phase flip."""
    return _pauli_branches(_FLIPS[:, ::3], 1.0 - ps, ps)


def depolarizing_kraus(p: float) -> KrausChannel:
    """Kraus form {1-p: identity, p/3 each: bit / bit-phase / phase flip}:
    ``_depolarizing_branches`` of one p, checked complete by ``KrausChannel``."""
    p = _unit_interval(p, "error probability")
    return _from_branches(_depolarizing_branches(np.array([p])))


def dephasing_kraus(p: float) -> KrausChannel:
    """Kraus form {sqrt(1-p) identity, sqrt(p) phase flip}: ``_dephasing_branches`` of one p,
    checked complete by ``KrausChannel``."""
    p = _unit_interval(p, "error probability")
    return _from_branches(_dephasing_branches(np.array([p])))


def dilation_unitary(params: DepolParams) -> tuple[np.ndarray, PureState]:
    """The explicit 8x8 dilation unitary on Q(2) x E(4) and its initial environment.

    The unitary applies each error branch conditioned on the matching q-basis
    projector of the environment; the environment starts in the superposition
    sqrt(1-p) psi_minus(q) + sqrt(p/3) (phi_minus + phi_plus + psi_plus), all
    at the same q, so the branch weights are (1-p, p/3, p/3, p/3).
    """
    _check_state(params, DepolParams, "params")
    phi_minus, phi_plus, psi_minus, psi_plus = _q_basis_rows(params.q).reshape(4, 4)
    u = np.zeros((8, 8), dtype=np.complex128)
    for k, env_state in enumerate((psi_minus, phi_minus, phi_plus, psi_plus)):
        u += np.kron(_FLIPS[:, k], np.outer(env_state, env_state.conj()))
    kept, flipped = math.sqrt(1.0 - params.p), math.sqrt(params.p / 3.0)
    env = kept * psi_minus + flipped * (phi_minus + phi_plus + psi_plus)
    return u, PureState(env, (4,))


def build_dilation(params: DepolParams) -> tuple[KrausChannel, PureState]:
    """The channel of ``dilation_unitary``, plus the entangled input |psi_minus(q)>."""
    u, env = dilation_unitary(params)
    return dilation_channel(u, 4, env), PureState(_q_basis_rows(params.q)[2], (2, 2))


def _analytic(p, q, ops):
    """(S, S', S_e, F_e) of ``analytic_transcript`` at p and q, on floats or on aligned
    row arrays.  ``ops`` holds the only operations that differ between the two: binary
    entropy, Shannon entropy, maximum and square root (``_ROW_OPS`` on arrays).  Squares
    are products: ``** 2`` runs libm ``pow`` on floats, which can differ in the last bit.

    The environment spectrum is {2p/3 (1-q), 2pq/3, (1 - 2p/3 +- Delta)/2} with
    Delta^2 = (1 - 2p/3)^2 - (16/3) p (1-p) q (1-q); the radicand is clamped at 0
    since it can dip to -1e-16 numerically near its zeros.
    """
    h2, shannon, maximum, sqrt = ops
    flip = 2.0 * p / 3.0
    kept, bias = 1.0 - flip, 1.0 - 2.0 * q
    s_in, s_out = h2(q), h2(q + flip * bias)
    radicand = kept * kept - (16.0 / 3.0) * p * (1.0 - p) * q * (1.0 - q)
    delta = sqrt(maximum(0.0, radicand))
    spectrum = [flip * (1.0 - q), flip * q]
    spectrum += [maximum(0.0, (kept + delta) / 2.0), maximum(0.0, (kept - delta) / 2.0)]
    fidelity = 1.0 - p + (p / 3.0) * (bias * bias)
    return s_in, s_out, shannon(spectrum), fidelity


_ROW_OPS = (_binary_entropy_rows, _shannon_rows, np.maximum, np.sqrt)


def analytic_transcript(params: DepolParams) -> ChannelTranscript:
    """The full transcript from closed forms alone: ``_analytic`` on floats."""
    _check_state(params, DepolParams, "params")
    # The float ops are read per call, so a wrapper installed on binary_entropy sees it.
    ops = (binary_entropy, _shannon, max, math.sqrt)
    return ChannelTranscript.from_entropies(*_analytic(params.p, params.q, ops))


def _rows_of(p, chunk, branches=None) -> Callable:
    """The rows function of one p, or of a p array aligned with the q list:
    ``_bound_rows`` of ``chunk`` over a table with one row per distinct p, the p
    themselves or, given ``branches``, the branch table ``branches(ps)``.

    A p list or array (not a 0-d one) is read as a q list is, by ``_unit_intervals``, and
    ``np.unique`` gives each q the index of its p's row.  The table is built and checked
    complete here, once, and p is checked before q, as ``DepolParams`` does.
    """
    if isinstance(p, (list, tuple)) or isinstance(p, np.ndarray) and p.ndim:
        ps, where = np.unique(_unit_intervals(p, "error probability"), return_inverse=True)
    else:  # one p for every row: its one row broadcasts over the q array
        ps, where = np.array([_unit_interval(p, "error probability")]), None
    table = ps
    if branches is not None:  # a channel's: one table for the distinct p, checked once
        table = branches(ps)
        _check_complete(table)
    return _bound_rows(chunk, table, where)


def analytic_transcript_rows(p, q_values) -> ChannelTranscript:
    """``analytic_transcript`` at every (p, q) row at once: one array per entry.

    p is one float for every q, or an array aligned with the q list, read as
    the q list is read, by ``_unit_intervals``.  Both forms run
    ``_analytic``, so every entry equals the scalar one bit for bit.  The
    scalar form stays the point objective: on one q it is the faster call.
    """
    columns = _rows_of(p, lambda p, q: _analytic(p, q, _ROW_OPS))(q_values)
    return ChannelTranscript.from_entropies(*columns)


def quantum_capacity(p: float) -> float:
    """Peak mutual entanglement 2 - H2(p) - p log2(3), reached at q = 1/2."""
    p = _unit_interval(p, "error probability")
    return 2.0 - binary_entropy(p) - p * LOG2_3


def classical_capacity(p: float) -> float:
    """Classical-use capacity 1 - H2(2p/3): a symmetric bit-flip channel at 2p/3."""
    p = _unit_interval(p, "error probability")
    return 1.0 - binary_entropy(2.0 * p / 3.0)


def _classical(p, q, ops):
    """(mutual information, classical loss) of ``classical_use_transcript`` at p and q,
    on floats or on aligned row arrays, ``ops`` as in ``_analytic``.

    The loss is the four-term Shannon entropy of the traced joint distribution
    minus the output entropy H2[q + (2p/3)(1 - 2q)]; the mutual information is
    the source entropy H2[q] minus the loss.
    """
    h2, shannon, _, _ = ops
    flip = 2.0 * p / 3.0
    joint = [flip * (1.0 - q), flip * q, (1.0 - flip) * (1.0 - q), (1.0 - flip) * q]
    loss = shannon(joint) - h2(q + flip * (1.0 - 2.0 * q))
    return h2(q) - loss, loss


def classical_use_transcript(params: DepolParams) -> tuple[float, float]:
    """(mutual information, classical loss) of a q-biased classical bit: ``_classical``."""
    _check_state(params, DepolParams, "params")
    return _classical(params.p, params.q, (binary_entropy, _shannon, max, math.sqrt))


def classical_use_transcript_rows(p, q_values) -> tuple[np.ndarray, np.ndarray]:
    """``classical_use_transcript`` at every (p, q) row at once, p as in
    ``analytic_transcript_rows``: (mutual, loss) arrays.  Both forms run
    ``_classical``, so each entry equals the scalar one bit for bit."""
    return tuple(_rows_of(p, lambda p, q: _classical(p, q, _ROW_OPS))(q_values))


def classical_use_channel_simulation(ch: KrausChannel, q: float) -> tuple[float, float]:
    """Classical use of any single-qubit channel, simulated exactly.

    The classical bit is recorded in an ancilla X and purified by R: the
    initial state is sqrt(1-q)|1_Q 1_X 0_R> - sqrt(q)|0_Q 0_X 1_R>, the
    channel acts on Q alone, and (mutual, loss) are read off the pure output
    on (Q', X, R, E') as S(Q':R) and S(R|Q'); mutual + loss = H2[q] exactly.
    This is the one-row call of ``classical_use_channel_rows``.
    """
    (mutual,), (loss,) = classical_use_channel_rows(ch, (q,))
    return float(mutual), float(loss)


def _classical_chunk(branches: np.ndarray, qs: np.ndarray) -> np.ndarray:
    amps = np.zeros((qs.size, 2, 2, 2), dtype=np.complex128)  # (Q, X, R)
    amps[:, 1, 1, 0] = np.sqrt(1.0 - qs)
    amps[:, 0, 0, 1] = -np.sqrt(qs)
    out = _send_rows(branches, amps)  # (Q', X, R, E')
    s_out, s_joint, s_r = _row_entropies(out, ((0,), (0, 2), (2,)))  # S(Q'), S(Q'R), S(R)
    return np.stack([s_out + s_r - s_joint, s_joint - s_out])


def classical_use_channel_rows(ch: KrausChannel, q_values) -> tuple[np.ndarray, np.ndarray]:
    """``classical_use_channel_simulation`` for every q at once: (mutual, loss) arrays.

    The inputs are one (N, 2, 2, 2) amplitude stack on (Q, X, R) per chunk, sent
    through the channel's one-row branch stack, which ``_bound_rows`` binds as
    ``diagonal_transcripts`` binds it, after the type and qubit checks.
    """
    rows = _bound_rows(_classical_chunk, _branches(ch))
    if ch.input_dim != 2:
        raise ValueError("classical-use simulation expects a single-qubit channel")
    return tuple(rows(q_values))


def _dephasing_rows(p, chunk) -> Callable:
    """The rows function of p, as ``_rows_of`` binds it, ``chunk(branches, qs)`` sending
    each row through the branches of ``dephasing_kraus`` at its p: one branch table
    for the distinct p, built and checked when p is bound, and no channel built.  A
    capacity solve binds its one p once and sends every q array through that row; a
    sweep binds its p array, one table row per distinct p."""
    return _rows_of(p, chunk, _dephasing_branches)


def dephasing_transcript_rows(p, q_values) -> ChannelTranscript:
    """``diagonal_transcripts(dephasing_kraus(p), q_values)`` at every (p, q) row at
    once, p as in ``analytic_transcript_rows``."""
    return ChannelTranscript.from_entropies(*_dephasing_rows(p, _diagonal_chunk)(q_values))


def dephasing_classical_rows(p, q_values) -> tuple[np.ndarray, np.ndarray]:
    """``classical_use_channel_rows(dephasing_kraus(p), q_values)`` at every (p, q)
    row at once, p as in ``analytic_transcript_rows``."""
    return tuple(_dephasing_rows(p, _classical_chunk)(q_values))


def kholevo_chi(probs, outputs) -> float:
    """chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i) for an output ensemble."""
    vec = check_prob_vector(probs)
    if isinstance(outputs, Set):  # paired with probs in hash order, which can change per run
        raise ValueError(f"outputs must be an ordered sequence, got {type(outputs).__name__}")
    outputs = _sequence(outputs, "outputs", "DensityMatrix states")
    for i, rho in enumerate(outputs):
        _check_state(rho, DensityMatrix, f"outputs[{i}]")
    if len(outputs) != vec.size:
        raise ValueError(f"length mismatch: {vec.size} probabilities vs {len(outputs)} outputs")
    if len({rho.dim for rho in outputs}) > 1:
        raise ValueError(f"dimension mismatch: output dimensions {[rho.dim for rho in outputs]}")
    dims = outputs[0].dims
    mix = DensityMatrix(sum(p * rho.matrix for p, rho in zip(vec, outputs)), dims)
    return von_neumann_entropy(mix) - sum(
        float(p) * von_neumann_entropy(rho) for p, rho in zip(vec, outputs)
    )


def classical_use_ensemble(params: DepolParams):
    """The channel-output ensemble {1-q: L(|1><1|), q: L(|0><0|)} of classical use."""
    _check_state(params, DepolParams, "params")
    ch = depolarizing_kraus(params.p)
    one = DensityMatrix(np.diag([0.0, 1.0]))
    zero = DensityMatrix(np.diag([1.0, 0.0]))
    probs = np.array([1.0 - params.q, params.q])
    return probs, [apply_channel(ch, one), apply_channel(ch, zero)]


def dephasing_mutual(p: float) -> float:
    """Mutual entanglement 2 - H2(p) of the dephasing channel at q = 1/2."""
    p = _unit_interval(p, "error probability")
    return 2.0 - binary_entropy(p)


def superdense_scenario(p: float) -> SuperdenseReport:
    """Noisy superdense coding: Bell state c in {0..3}, Q sent through the channel.

    The state sum_c (1/4)|c><c|_C (tensor) rho^(c) on (C, Q', R) is block-diagonal
    in C, so S(R:Q'|C) is the mean over the four Bell runs of their mutual
    entanglement, and the Kholevo quantity S(RQ':C) is S(rho_bar) minus their
    mean S(Q'R) = S_e, rho_bar the mean (Q', R) output.  The two coincide, and
    both equal the q = 1/2 mutual entanglement of the channel.
    """
    p = _unit_interval(p, "error probability")
    branches = _depolarizing_branches(np.array([p]))
    _check_complete(branches)
    columns, out = _transcript_rows(branches, _q_basis_rows(0.5))
    runs = ChannelTranscript.from_entropies(*columns)
    halves = out.reshape(4, 4, -1)  # each run's (Q', R, E') as a (Q'R, E') matrix M
    rho_bar = DensityMatrix(np.einsum("cik,cjk->ij", halves, halves.conj()) / 4.0, (2, 2))
    chi = von_neumann_entropy(rho_bar) - float(runs.s_env.mean())
    return SuperdenseReport(float(runs.mutual_entanglement.mean()), chi, p)


def superdense_threshold() -> float:
    """The error rate where the superdense advantage disappears (capacity = 1).

    Bisection on [0, 3/4], where the capacity falls from 2 to 0 bits.
    """
    lo, hi = 0.0, 0.75
    while True:
        mid = 0.5 * (lo + hi)
        excess = quantum_capacity(mid) - 1.0
        if excess == 0.0 or hi - lo < 1e-10:
            return mid
        if excess > 0.0:
            lo = mid
        else:
            hi = mid
