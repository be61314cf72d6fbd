"""Capacity maximization, randomized inequality audits, and Hamming bounds.

The optimizer works over the diagonal input family rho(q) = diag(q, 1-q);
results are therefore diagonal-family capacities and make no claim about
maximization over arbitrary inputs for channels without the relevant symmetry.

The audits draw seeded random 8x8 unitaries on a qubit and a 4-dim
environment, each read once into its four Kraus branches by
``dilation_channel``, run the channels singly, chained, and in parallel, and
verify every inequality the transcript framework promises.  Chains and
parallel pairs are composed on the Kraus branches (16 branches on a 2- or
4-dim input); no composite unitary is built.  A violation beyond tolerance
always indicates an implementation bug, never physics; the audit exists to
catch the former.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import (
    ChannelTranscript,
    KrausChannel,
    chain,
    dilation_channel,
    parallel,
    quantum_fano_bound,
    run_channel,
    transcript_slacks,
)
from .entropy import _row_entropies, relative_entropy_binary
from .qmat import DensityMatrix, _as_count, _unit_interval, basis_state, random_unitary

_TIE_ATOL = 1e-12
_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
CAPACITY_GRID = tuple(i / 100.0 for i in range(101))  # the optimizer's grid scan

# Work caps, well above every default and benchmark request (200 trials, four
# blocks up to 4001).  At a cap a request runs under a minute on one x86-64
# core; a 5000-long block at p = 0.99 takes 2.6 s.
MAX_TRIALS = 10_000  # trials of one audit
MAX_BLOCK_LENGTH = 5_000  # n of a Hamming query or rate row; k above twice it never fits
MAX_N_LIST = 16  # block lengths in one asymptotic_consistency call


def _check_tolerance(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def _check_audit_args(trials: int, tol: float) -> None:
    if not 1 <= _as_count(trials, "trials") <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    _check_tolerance(tol)


@dataclass(frozen=True)
class CapacityResult:
    """Maximized objective value, the maximizing q, and how many evaluations it took."""

    value: float
    argmax_q: float
    evaluations: int


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a randomized audit.

    ``violations`` holds (inequality id, parameters, slack) triples for every
    check whose slack fell below -tol; ``max_negative_slack`` is the most
    negative slack seen anywhere (0.0 if every check stayed nonnegative).
    """

    trials: int
    violations: tuple
    max_negative_slack: float


def maximize_scalar_on_unit_interval(
    f: Callable[[float], float], tol: float = 1e-10, grid_values: Sequence[float] | None = None
) -> CapacityResult:
    """Maximize f over q in [0, 1]: 101-point grid scan, then golden-section.

    Grid ties (within 1e-12) are broken toward the q closest to 1/2; a flat
    objective short-circuits to the tie-broken grid point.  The refined point
    only replaces the grid argmax when it is genuinely better, so exact grid
    maxima (like q = 0.5 for symmetric channels) are reported exactly.

    ``grid_values``, if given, are f on ``CAPACITY_GRID`` computed by the
    caller (e.g. in one batch); they count as evaluations and are checked
    like them.  ``tol`` must be at least ``sys.float_info.epsilon``.
    """
    _check_tolerance(tol)
    eps = sys.float_info.epsilon
    if tol < eps:  # the interval cannot shrink below one ulp
        raise ValueError(f"tolerance {tol!r} is below the float resolution {eps!r}")
    evals = 0

    def checked(q: float, value) -> float:
        nonlocal evals
        value = float(value)
        evals += 1
        if not math.isfinite(value):
            raise ValueError(f"non-finite objective value {value!r} at q={q!r}")
        return value

    def evaluate(q: float) -> float:
        return checked(q, f(q))

    grid = list(CAPACITY_GRID)
    if grid_values is None:
        values = [evaluate(q) for q in grid]
    elif len(grid_values) == len(grid):
        values = [checked(q, v) for q, v in zip(grid, grid_values)]
    else:
        raise ValueError(f"expected {len(grid)} grid values, got {len(grid_values)}")
    best = max(values)
    tied = [q for q, v in zip(grid, values) if v >= best - _TIE_ATOL]
    q_grid = min(tied, key=lambda q: (abs(q - 0.5), q))
    v_grid = values[grid.index(q_grid)]
    if best - min(values) <= _TIE_ATOL:
        return CapacityResult(v_grid, q_grid, evals)

    lo, hi = max(0.0, q_grid - 0.01), min(1.0, q_grid + 0.01)
    c = hi - _INV_GOLD * (hi - lo)
    d = lo + _INV_GOLD * (hi - lo)
    fc, fd = evaluate(c), evaluate(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLD * (hi - lo)
            fc = evaluate(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLD * (hi - lo)
            fd = evaluate(d)
    q_ref = 0.5 * (lo + hi)
    v_ref = evaluate(q_ref)
    if v_ref > v_grid + _TIE_ATOL:
        return CapacityResult(v_ref, q_ref, evals)
    return CapacityResult(v_grid, q_grid, evals)


# ---------------------------------------------------------------------------
# Randomized inequality audits
# ---------------------------------------------------------------------------


def inequality_slacks(
    ch1: KrausChannel, ch2: KrausChannel, rho_single: DensityMatrix, rho_pair: DensityMatrix
) -> dict[str, float]:
    """Every audited inequality's slack for one (ch1, ch2, input) draw.

    Runs ch1 alone, the chain ch2(ch1(.)), and the parallel channel
    ch1 (tensor) ch2, and reads off:

    - per-run triangle bounds 0 <= L <= 2 min(S, S_e) and the exchange-entropy
      Fano bound (ids prefixed single:/chain:/parallel:),
    - forward data processing S(R:Q2') <= S(R:Q1') <= 2S,
    - reverse data processing S(R:Q2') <= S(R E1':Q2') <= 2 S(Q2'),
    - loss chaining L1 <= L12 and the quantum-code Fano bound on L12,
    - mutual-entropy subadditivity I12 <= I1 + I2 for the parallel channel.

    All slacks are nonnegative when the implementation is correct.
    """
    slacks: dict[str, float] = {}

    t1 = run_channel(ch1, rho_single)
    for key, value in transcript_slacks(t1, rho_single.dim, rho_single.dim).items():
        slacks[f"single:{key}"] = value

    chained = chain(ch1, ch2)
    t12, state12 = run_channel(chained, rho_single, return_state=True)
    for key, value in transcript_slacks(t12, rho_single.dim, rho_single.dim).items():
        slacks[f"chain:{key}"] = value
    slacks["forward_dpi"] = t1.mutual_entanglement - t12.mutual_entanglement
    slacks["forward_dpi_cap"] = 2.0 * t1.s_in - t1.mutual_entanglement
    slacks["loss_chaining"] = t12.loss - t1.loss
    slacks["code_fano"] = quantum_fano_bound(t12.fidelity, rho_single.dim ** 2) - t12.loss

    d = rho_single.dim
    fine = state12.amplitudes.reshape(1, d, d, ch1.env_dim, ch2.env_dim)  # (Q2', R, E1', E2')
    # S(R E1'), and S(R E1' Q2') as S(E2') by purity
    s_re1, s_re1q2 = _row_entropies(fine, ((1, 2), (3,)))[:, 0].tolist()
    mutual_re1_q2 = s_re1 + t12.s_out - s_re1q2
    slacks["reverse_dpi"] = mutual_re1_q2 - t12.mutual_entanglement
    slacks["reverse_dpi_cap"] = 2.0 * t12.s_out - mutual_re1_q2

    par = parallel(ch1, ch2)
    tpar, state_par = run_channel(par, rho_pair, return_state=True)
    for key, value in transcript_slacks(tpar, rho_pair.dim, rho_pair.dim).items():
        slacks[f"parallel:{key}"] = value
    finep = state_par.amplitudes.reshape(
        1, ch1.input_dim, ch2.input_dim, rho_pair.dim, ch1.env_dim, ch2.env_dim
    )  # (Q1', Q2', R, E1', E2')
    keeps = ((0, 3), (0,), (3,), (1, 4), (1,), (4,))
    s_q1e1, s_q1, s_e1, s_q2e2, s_q2, s_e2 = _row_entropies(finep, keeps)[:, 0].tolist()
    i_1 = s_q1e1 + s_q1 - s_e1
    i_2 = s_q2e2 + s_q2 - s_e2
    slacks["subadditivity"] = i_1 + i_2 - tpar.mutual_entanglement
    return slacks


def _random_dilation(rng: np.random.Generator, env_dim: int = 4) -> KrausChannel:
    seed = int(rng.integers(0, 2**63))
    return dilation_channel(random_unitary(2 * env_dim, seed), env_dim, basis_state(env_dim, 0))


def _random_diagonal(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    weights = rng.random(int(np.prod(dims))) + 1e-12
    weights /= weights.sum()
    return DensityMatrix(np.diag(weights.astype(np.complex128)), dims)


def _random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    weights = rng.random(dim) + 1e-12
    weights /= weights.sum()
    u = random_unitary(dim, int(rng.integers(0, 2**63)))
    return DensityMatrix(u @ np.diag(weights.astype(np.complex128)) @ u.conj().T, (dim,))


def audit_inequalities(
    seed: int, trials: int, tol: float = 1e-9, extra_transcripts: Sequence[ChannelTranscript] = ()
) -> AuditReport:
    """Audit every framework inequality over seeded random channels.

    Each trial draws two random single-qubit dilations (4-dim environments), a
    random diagonal qubit input, and a random diagonal two-qubit input for the
    parallel check, then scores ``inequality_slacks``.  ``extra_transcripts``
    lets tests feed hand-built (possibly corrupted) transcripts through the
    same per-transcript checks.  Deterministic per seed.
    """
    _check_audit_args(trials, tol)
    rng = np.random.default_rng(seed)
    violations = []
    worst = 0.0
    for i in range(trials):
        ch1 = _random_dilation(rng)
        ch2 = _random_dilation(rng)
        rho_single = _random_diagonal(rng, (2,))
        rho_pair = _random_diagonal(rng, (2, 2))
        for key, slack in inequality_slacks(ch1, ch2, rho_single, rho_pair).items():
            worst = min(worst, slack)
            if slack < -tol:
                violations.append((key, {"trial": i}, slack))
    for j, transcript in enumerate(extra_transcripts):
        for key, slack in transcript_slacks(transcript).items():
            worst = min(worst, slack)
            if slack < -tol:
                violations.append((f"injected:{key}", {"transcript": j}, slack))
    return AuditReport(trials=trials, violations=tuple(violations), max_negative_slack=worst)


def mixture_axiom_slacks(
    ch1: KrausChannel,
    ch2: KrausChannel,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    weight: float,
) -> dict[str, float]:
    """Concavity-in-input and convexity-in-channel slacks for one mixture.

    concavity_input:   I(w rho1 + (1-w) rho2; ch1) - [w I(rho1) + (1-w) I(rho2)]
    convexity_channel: [w I(ch1) + (1-w) I(ch2)] - I(mixed channel) on rho1,
    where the mixed channel applies ch1 with probability w and ch2 otherwise.
    """
    w = _unit_interval(weight, "mixture weight")
    mixed_input = DensityMatrix(
        w * rho1.matrix + (1.0 - w) * rho2.matrix, rho1.dims
    )
    i_on_rho1 = run_channel(ch1, rho1).mutual_entanglement
    i_mix = run_channel(ch1, mixed_input).mutual_entanglement
    i_2 = run_channel(ch1, rho2).mutual_entanglement
    concavity = i_mix - (w * i_on_rho1 + (1.0 - w) * i_2)

    mixed_channel = KrausChannel(
        tuple(math.sqrt(w) * k for k in ch1.operators)
        + tuple(math.sqrt(1.0 - w) * k for k in ch2.operators)
    )
    i_ch2 = run_channel(ch2, rho1).mutual_entanglement
    i_chmix = run_channel(mixed_channel, rho1).mutual_entanglement
    convexity = (w * i_on_rho1 + (1.0 - w) * i_ch2) - i_chmix
    return {"concavity_input": concavity, "convexity_channel": convexity}


def audit_axioms(seed: int, trials: int = 100, tol: float = 1e-9) -> AuditReport:
    """Spot-check concavity in the input and convexity in the channel map.

    Each trial draws a weight, two random densities, and two random channels,
    and scores ``mixture_axiom_slacks``.  Deterministic per seed.
    """
    _check_audit_args(trials, tol)
    rng = np.random.default_rng(seed)
    violations = []
    worst = 0.0
    for i in range(trials):
        ch1 = _random_dilation(rng)
        ch2 = _random_dilation(rng)
        rho1 = _random_density(rng, 2)
        rho2 = _random_density(rng, 2)
        w = float(rng.uniform(0.05, 0.95))
        for key, slack in mixture_axiom_slacks(ch1, ch2, rho1, rho2, w).items():
            worst = min(worst, slack)
            if slack < -tol:
                violations.append((key, {"trial": i, "weight": w}, slack))
    return AuditReport(trials=trials, violations=tuple(violations), max_negative_slack=worst)


def search_coherent_info_violations(seed: int, trials: int, tol: float = 1e-9) -> tuple:
    """Search random mixtures for failures of coherent-information concavity.

    The coherent information S - L is known not to share the concavity axiom
    of the mutual entanglement; this scans mixtures like ``audit_axioms``'s
    but draws one channel per trial, not two, so at one seed the two share
    only their first channel.  Returns the witnesses found (possibly none),
    each as (trial index, weight, slack).  Deterministic per seed.
    """
    _check_audit_args(trials, tol)
    rng = np.random.default_rng(seed)
    found = []
    for i in range(trials):
        ch = _random_dilation(rng)
        rho1 = _random_density(rng, 2)
        rho2 = _random_density(rng, 2)
        w = float(rng.uniform(0.05, 0.95))
        mixed = DensityMatrix(w * rho1.matrix + (1.0 - w) * rho2.matrix, rho1.dims)
        i_mix = run_channel(ch, mixed).coherent_info
        i_parts = (
            w * run_channel(ch, rho1).coherent_info
            + (1.0 - w) * run_channel(ch, rho2).coherent_info
        )
        slack = i_mix - i_parts
        if slack < -tol:
            found.append((i, w, slack))
    return tuple(found)


# ---------------------------------------------------------------------------
# Hamming bounds
# ---------------------------------------------------------------------------

_MODES = ("classical", "quantum", "entanglement")


@dataclass(frozen=True)
class HammingQuery:
    """A finite (n, k, t) sphere-packing query in one of the three modes."""

    n: int
    k: int
    t: int
    mode: str

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"invalid query: unknown mode {self.mode!r}")
        for name in ("n", "k", "t"):
            object.__setattr__(self, name, _as_count(getattr(self, name), f"invalid query: {name}"))
        n_ok, k_ok = 1 <= self.n <= MAX_BLOCK_LENGTH, 1 <= self.k <= 2 * MAX_BLOCK_LENGTH
        if not (n_ok and k_ok and 0 <= self.t <= self.n):
            raise ValueError(
                f"invalid query: need 1 <= n <= {MAX_BLOCK_LENGTH}, "
                f"1 <= k <= {2 * MAX_BLOCK_LENGTH}, 0 <= t <= n, got "
                f"(n={self.n}, k={self.k}, t={self.t})"
            )


@dataclass(frozen=True)
class RatePoint:
    """One row of a finite-block-length rate table."""

    n: int
    t: int
    k_max: int
    rate: float


def _sphere_volume(n: int, t: int, syndromes: int) -> int:
    """sum_{i<=t} syndromes^i C(n, i), each term exactly from the one before."""
    term = total = 1
    for i in range(t):
        term = term * syndromes * (n - i) // (i + 1)
        total += term
    return total


def _space_exponent(n: int, mode: str) -> int:
    return 2 * n if mode == "entanglement" else n


def hamming_holds(query: HammingQuery) -> tuple[bool, float]:
    """Exact sphere-packing check; returns (holds, slack in bits).

    classical:     2^k sum_{i<=t} C(n,i)       <= 2^n
    quantum:       2^k sum_{i<=t} 3^i C(n,i)   <= 2^n
    entanglement:  2^k sum_{i<=t} 3^i C(n,i)   <= 2^{2n}

    The comparison is big-integer exact; the slack is log2(space / used).
    """
    syndromes = 1 if query.mode == "classical" else 3
    volume = _sphere_volume(query.n, query.t, syndromes)
    exponent = _space_exponent(query.n, query.mode)
    # k > exponent can never fit, and 2^k for a huge k would not fit in memory
    holds = query.k <= exponent and volume << query.k <= 1 << exponent
    slack = float(exponent - query.k) - math.log2(volume)
    return holds, slack


def rate_bound(p: float, mode: str) -> float:
    """Asymptotic rate bound in bits per symbol, as a binary relative entropy.

    classical: D(p || 1/2); quantum: D(p || 3/4) - 1; entanglement: D(p || 3/4),
    so the entanglement and quantum bounds differ by exactly 1 for every p and
    the quantum bound may be negative.
    """
    if mode not in _MODES:
        raise ValueError(f"invalid query: unknown mode {mode!r}")
    if mode == "classical":
        return relative_entropy_binary(p, 0.5)
    reference = relative_entropy_binary(p, 0.75)
    return reference if mode == "entanglement" else reference - 1.0


def asymptotic_consistency(p: float, n_list: Sequence[int], mode: str) -> list[RatePoint]:
    """Largest admissible k/n at t = floor(p n) for each block length.

    Note the exact finite-n rates sit *above* the asymptotic bound and settle
    onto it from above at O(log n / n): the sphere-packing count is an upper
    bound on codewords, and truncating it at finite n loosens it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be strictly inside (0, 1), got {p!r}")
    if mode not in _MODES:
        raise ValueError(f"invalid query: unknown mode {mode!r}")
    if len(n_list) > MAX_N_LIST:
        raise ValueError(f"{len(n_list)} block lengths exceed the cap of {MAX_N_LIST}")
    n_list = [_as_count(n, "block length") for n in n_list]
    for n in n_list:  # all of them before any work
        if not 10 <= n <= MAX_BLOCK_LENGTH:
            raise ValueError(f"block length must be in [10, {MAX_BLOCK_LENGTH}], got {n}")
    rows = []
    for n in n_list:
        t = math.floor(p * n)
        volume = _sphere_volume(n, t, 1 if mode == "classical" else 3)
        admissible = (1 << _space_exponent(n, mode)) // volume
        k_max = admissible.bit_length() - 1 if admissible >= 1 else 0
        k_max = max(0, k_max)
        rows.append(RatePoint(n=n, t=t, k_max=k_max, rate=k_max / n))
    return rows
