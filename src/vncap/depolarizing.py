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
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelTranscript,
    KrausChannel,
    _branches,
    _check_complete,
    _chunked_rows,
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
    basis_state,
    tensor,
    _check_state,
    _numbers,
    _unit_interval,
    _unit_intervals,
)

LOG2_3 = math.log2(3.0)

BIT_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PHASE_FLIP = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
BIT_PHASE_FLIP = BIT_FLIP @ PHASE_FLIP  # [[0, 1], [-1, 0]]
for _m in (BIT_FLIP, PHASE_FLIP, BIT_PHASE_FLIP):
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


def q_basis(q: float) -> tuple[PureState, PureState, PureState, PureState]:
    """The orthonormal two-qubit family (phi_minus, phi_plus, psi_minus, psi_plus)."""
    q = _unit_interval(q, "mixing parameter")
    a, b = math.sqrt(1.0 - q), math.sqrt(q)
    dims = (2, 2)
    phi_minus = PureState([a, 0.0, 0.0, -b], dims)
    phi_plus = PureState([b, 0.0, 0.0, a], dims)
    psi_minus = PureState([0.0, -b, a, 0.0], dims)
    psi_plus = PureState([0.0, a, b, 0.0], dims)
    return phi_minus, phi_plus, psi_minus, psi_plus


def depolarizing_kraus(p: float) -> KrausChannel:
    """Kraus form {1-p: identity, p/3 each: bit / bit-phase / phase flip}."""
    p = _unit_interval(p, "error probability")
    return KrausChannel(
        (
            math.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128),
            math.sqrt(p / 3.0) * BIT_FLIP,
            math.sqrt(p / 3.0) * BIT_PHASE_FLIP,
            math.sqrt(p / 3.0) * PHASE_FLIP,
        )
    )


def _dephasing_branches(ps: np.ndarray) -> np.ndarray:
    """The (P, 2, 2, 2) branch stack {sqrt(1-p) identity, sqrt(p) phase flip} of each
    checked p, not yet checked complete.  Broadcast multiplies, not an einsum product:
    that would turn the -0.0 of 0 * (-1) at p = 0 into +0.0."""
    ps = ps[:, np.newaxis, np.newaxis]
    ops = (np.sqrt(1.0 - ps) * np.eye(2, dtype=np.complex128), np.sqrt(ps) * PHASE_FLIP)
    return np.stack(ops, axis=2)  # (P, q_out, k, q_in)


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
    phi_minus, phi_plus, psi_minus, psi_plus = q_basis(params.q)
    branches = (
        (np.eye(2, dtype=np.complex128), psi_minus),
        (BIT_FLIP, phi_minus),
        (BIT_PHASE_FLIP, phi_plus),
        (PHASE_FLIP, psi_plus),
    )
    u = np.zeros((8, 8), dtype=np.complex128)
    for op, env_state in branches:
        proj = np.outer(env_state.amplitudes, env_state.amplitudes.conj())
        u += tensor(op, proj)
    env = (
        math.sqrt(1.0 - params.p) * psi_minus.amplitudes
        + math.sqrt(params.p / 3.0)
        * (phi_minus.amplitudes + phi_plus.amplitudes + psi_plus.amplitudes)
    )
    return u, PureState(env, (4,))


def build_dilation(params: DepolParams) -> tuple[KrausChannel, PureState]:
    """The channel of ``dilation_unitary``, plus the entangled input |psi_minus(q)>."""
    u, env = dilation_unitary(params)
    return dilation_channel(u, 4, env), q_basis(params.q)[2]


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
    # The float ops are read per call, so a wrapper installed on binary_entropy sees it.
    ops = (binary_entropy, _shannon, max, math.sqrt)
    return ChannelTranscript.from_entropies(*_analytic(params.p, params.q, ops))


def _rows_at(p, q_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked rows of one p, or of a p array aligned with the q list.

    Returns (ps, where, qs): the checked distinct p, row n's at ``ps[where[n]]``,
    and the checked q array.  p is checked before q, as ``DepolParams`` does.
    """
    if isinstance(p, (list, tuple, np.ndarray)):
        distinct, where = np.unique(_numbers(p, "error probability", 1, "iuf"), return_inverse=True)
    else:  # one p for every row
        distinct, where = [p], None
    ps = np.array([_unit_interval(x, "error probability") for x in distinct])
    qs = _unit_intervals(q_values, "mixing parameter")
    if where is None:
        where = np.zeros(qs.size, dtype=np.intp)
    elif where.size != qs.size:
        raise ValueError(f"{where.size} error probabilities for {qs.size} mixing parameters")
    return ps, where, qs


def analytic_transcript_rows(p, q_values) -> ChannelTranscript:
    """``analytic_transcript`` at every (p, q) row at once: one array per entry.

    p is one float for every q, or an array aligned with the q list; each
    distinct p is checked once, and the q list as one array.  Both forms run
    ``_analytic``, so every entry equals the scalar one bit for bit.  The
    scalar form stays the point objective: on one q it is the faster call.
    """
    ps, where, qs = _rows_at(p, q_values)
    columns = _chunked_rows(lambda p, q: _analytic(p, q, _ROW_OPS), ps[where], qs)
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
    return _classical(params.p, params.q, (binary_entropy, _shannon, max, math.sqrt))


def classical_use_transcript_rows(p, q_values) -> tuple[np.ndarray, np.ndarray]:
    """``classical_use_transcript`` at every (p, q) row at once, p as in
    ``analytic_transcript_rows``: (mutual, loss) arrays.  Both forms run
    ``_classical``, so each entry equals the scalar one bit for bit."""
    ps, where, qs = _rows_at(p, q_values)
    return tuple(_chunked_rows(lambda p, q: _classical(p, q, _ROW_OPS), ps[where], qs))


def classical_use_channel_simulation(ch, q: float) -> tuple[float, float]:
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


def classical_use_channel_rows(ch, q_values) -> tuple[np.ndarray, np.ndarray]:
    """``classical_use_channel_simulation`` for every q at once: (mutual, loss) arrays.

    The inputs are one (N, 2, 2, 2) amplitude stack on (Q, X, R), sent by the
    stacked kernel of ``channel.diagonal_transcripts``.
    """
    branches = _branches(ch)
    if ch.input_dim != 2:
        raise ValueError("classical-use simulation expects a single-qubit channel")
    qs = _unit_intervals(q_values, "mixing parameter")
    return tuple(_chunked_rows(lambda q: _classical_chunk(branches, q), qs))


def _dephasing_rows(p, q_values, chunk) -> np.ndarray:
    """``chunk(branches, qs)`` over the checked rows of ``_rows_at``, each row sent
    through the branches of ``dephasing_kraus`` at its p: one branch table for the
    distinct p, checked once, and no channel built."""
    ps, where, qs = _rows_at(p, q_values)
    table = _dephasing_branches(ps)
    _check_complete(table)
    return _chunked_rows(lambda w, q: chunk(table[w], q), where, qs)


def dephasing_transcript_rows(p, q_values) -> ChannelTranscript:
    """``diagonal_transcripts(dephasing_kraus(p), q_values)`` at every (p, q) row at
    once, p as in ``analytic_transcript_rows``."""
    return ChannelTranscript.from_entropies(*_dephasing_rows(p, q_values, _diagonal_chunk))


def dephasing_classical_rows(p, q_values) -> tuple[np.ndarray, np.ndarray]:
    """``classical_use_channel_rows(dephasing_kraus(p), q_values)`` at every (p, q)
    row at once, p as in ``analytic_transcript_rows``."""
    return tuple(_dephasing_rows(p, q_values, _classical_chunk))


def kholevo_chi(probs, outputs) -> float:
    """chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i) for an output ensemble."""
    vec = check_prob_vector(probs)
    outputs = list(outputs)
    for i, rho in enumerate(outputs):
        _check_state(rho, DensityMatrix, f"outputs[{i}]")
    if len(outputs) != vec.size:
        raise ValueError(
            f"length mismatch: {vec.size} probabilities vs {len(outputs)} outputs"
        )
    if len({rho.dim for rho in outputs}) > 1:
        raise ValueError(f"dimension mismatch: output dimensions {[rho.dim for rho in outputs]}")
    dims = outputs[0].dims
    mix = DensityMatrix(
        sum(p * rho.matrix for p, rho in zip(vec, outputs)), dims
    )
    return von_neumann_entropy(mix) - sum(
        float(p) * von_neumann_entropy(rho) for p, rho in zip(vec, outputs)
    )


def classical_use_ensemble(params: DepolParams):
    """The channel-output ensemble {1-q: L(|1><1|), q: L(|0><0|)} of classical use."""
    ch = depolarizing_kraus(params.p)
    one = basis_state(2, 1).projector()
    zero = basis_state(2, 0).projector()
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
    bells = np.stack([b.amplitudes.reshape(2, 2) for b in q_basis(0.5)])
    columns, out = _transcript_rows(_branches(depolarizing_kraus(p)), bells)
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
