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
    DilationChannel,
    KrausChannel,
    _branches,
    apply_channel,
)
from .entropy import (
    binary_entropy,
    check_prob_vector,
    shannon_entropy,
    venn2,
    venn3,
    von_neumann_entropy,
)
from .qmat import (
    DensityMatrix,
    PureState,
    basis_state,
    pure_marginal,
    tensor,
    _unit_interval,
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


def dephasing_kraus(p: float) -> KrausChannel:
    """Kraus form {sqrt(1-p) identity, sqrt(p) phase flip}."""
    p = _unit_interval(p, "error probability")
    return KrausChannel(
        (
            math.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128),
            math.sqrt(p) * PHASE_FLIP,
        )
    )


def build_dilation(params: DepolParams) -> tuple[DilationChannel, PureState]:
    """Explicit dilation on Q(2) x E(4), plus the entangled input |psi_minus(q)>.

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
    return DilationChannel(u, 4, PureState(env, (4,))), psi_minus


def analytic_transcript(params: DepolParams) -> ChannelTranscript:
    """The full transcript from closed forms alone (no linear algebra).

    The environment spectrum is {2p/3 (1-q), 2pq/3, (1 - 2p/3 +- Delta)/2}
    with Delta^2 = (1 - 2p/3)^2 - (16/3) p (1-p) q (1-q); the radicand is
    clamped at 0 since it can dip to -1e-16 numerically near its zeros.
    """
    p, q = params.p, params.q
    s_in = binary_entropy(q)
    s_out = binary_entropy(q + (2.0 * p / 3.0) * (1.0 - 2.0 * q))
    radicand = (1.0 - 2.0 * p / 3.0) ** 2 - (16.0 / 3.0) * p * (1.0 - p) * q * (1.0 - q)
    delta = math.sqrt(max(0.0, radicand))
    spectrum = [
        (2.0 * p / 3.0) * (1.0 - q),
        (2.0 * p / 3.0) * q,
        max(0.0, (1.0 - 2.0 * p / 3.0 + delta) / 2.0),
        max(0.0, (1.0 - 2.0 * p / 3.0 - delta) / 2.0),
    ]
    s_env = shannon_entropy(spectrum)
    loss = s_env + s_in - s_out
    return ChannelTranscript(
        s_in=s_in,
        s_out=s_out,
        s_env=s_env,
        loss=loss,
        mutual_entanglement=2.0 * s_in - loss,
        coherent_info=s_in - loss,
        fidelity=1.0 - p + (p / 3.0) * (1.0 - 2.0 * q) ** 2,
    )


def quantum_capacity(p: float) -> float:
    """Peak mutual entanglement 2 - H2(p) - p log2(3), reached at q = 1/2."""
    p = _unit_interval(p, "error probability")
    return 2.0 - binary_entropy(p) - p * LOG2_3


def classical_capacity(p: float) -> float:
    """Classical-use capacity 1 - H2(2p/3): a symmetric bit-flip channel at 2p/3."""
    p = _unit_interval(p, "error probability")
    return 1.0 - binary_entropy(2.0 * p / 3.0)


def classical_use_transcript(params: DepolParams) -> tuple[float, float]:
    """(mutual information, classical loss) for a q-biased classical bit, closed form.

    The loss is the four-term Shannon entropy of the traced joint distribution
    minus the output entropy H2[q + (2p/3)(1 - 2q)]; the mutual information is
    the source entropy H2[q] minus the loss.
    """
    p, q = params.p, params.q
    flip = 2.0 * p / 3.0
    joint = [flip * (1.0 - q), flip * q, (1.0 - flip) * (1.0 - q), (1.0 - flip) * q]
    s_out = binary_entropy(q + flip * (1.0 - 2.0 * q))
    loss = shannon_entropy(joint) - s_out
    return binary_entropy(q) - loss, loss


def classical_use_simulation(params: DepolParams) -> tuple[float, float]:
    """(mutual information, classical loss) from the 32-dim ancilla simulation."""
    dil, _ = build_dilation(params)
    return classical_use_channel_simulation(dil, params.q)


def classical_use_channel_simulation(ch, q: float) -> tuple[float, float]:
    """Classical use of any single-qubit channel, simulated exactly.

    The classical bit is recorded in an ancilla X and purified by R: the
    initial state is sqrt(1-q)|1_Q 1_X 0_R> - sqrt(q)|0_Q 0_X 1_R>, the
    channel acts on Q alone, and (mutual, loss) are read off the (Q', R)
    marginal as S(Q':R) and S(R|Q'); mutual + loss = H2[q] exactly.
    """
    q = _unit_interval(q, "mixing parameter")
    if ch.input_dim != 2:
        raise ValueError("classical-use simulation expects a single-qubit channel")
    amps = np.zeros((2, 2, 2), dtype=np.complex128)  # (Q, X, R)
    amps[1, 1, 0] = math.sqrt(1.0 - q)
    amps[0, 0, 1] = -math.sqrt(q)
    # out[q', x, r, k] = sum_q B[q', k, q] amps[q, x, r]
    out = np.einsum("akb,bxr->axrk", _branches(ch), amps)
    rho_qr = pure_marginal(PureState(out.ravel(), out.shape), (0, 2))
    diagram = venn2(rho_qr, ((0,), (1,)))
    return diagram.mutual, diagram.cond_b_given_a


def kholevo_chi(probs, outputs) -> float:
    """chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i) for an output ensemble."""
    vec = check_prob_vector(probs)
    outputs = list(outputs)
    if len(outputs) != vec.size:
        raise ValueError(
            f"length mismatch: {vec.size} probabilities vs {len(outputs)} outputs"
        )
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

    Builds rho = sum_c (1/4)|c><c|_C (tensor) rho^(c) on factors (C, Q', R) and
    reports S(R:Q'|C) and the Kholevo quantity S(RQ':C); the two coincide, and
    both equal the q = 1/2 mutual entanglement of the channel.
    """
    p = _unit_interval(p, "error probability")
    lifted = KrausChannel(
        tuple(tensor(k, np.eye(2)) for k in depolarizing_kraus(p).operators)
    )
    sent = [apply_channel(lifted, bell.projector()) for bell in q_basis(0.5)]
    rho = np.zeros((16, 16), dtype=np.complex128)
    for c, rho_c in enumerate(sent):
        tag = np.zeros((4, 4), dtype=np.complex128)
        tag[c, c] = 0.25
        rho += tensor(tag, rho_c.matrix)
    state = DensityMatrix(rho, (4, 2, 2))
    conditional = venn3(state, ((1,), (2,), (0,))).mutual_ab  # S(Q':R | C)
    chi = venn2(state, ((1, 2), (0,))).mutual  # S(Q'R : C)
    return SuperdenseReport(conditional_mutual=conditional, kholevo_chi=chi, p=p)


def bisect_root(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Root of f on [lo, hi] by bisection; endpoints must bracket a sign change."""
    flo, fhi = float(f(lo)), float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = float(f(mid))
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def superdense_threshold() -> float:
    """The error rate where the superdense advantage disappears (capacity = 1)."""
    return bisect_root(lambda p: quantum_capacity(p) - 1.0, 0.0, 0.75, tol=1e-10)
