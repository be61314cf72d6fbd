"""Capacity maximization, randomized inequality audits, and Hamming bounds.

The optimizer works over the diagonal input family rho(q) = diag(q, 1-q);
results are therefore diagonal-family capacities and make no claim about
maximization over arbitrary inputs for channels without the relevant symmetry.

The audits draw seeded random 8x8 unitaries on a qubit and a 4-dim
environment, each read once into its four Kraus branches by
``dilation_channel``, run the channels singly, chained, and in parallel, and
verify every inequality the transcript framework promises.  Chains and
parallel pairs are composed on the Kraus branches (16 branches on a 2- or
4-dim input).  A violation beyond tolerance always indicates an
implementation bug, never physics; the audit exists to catch the former.

The trials run stacked, ``TRIAL_CHUNK`` at a time.  A chunk's channels,
densities and weights are drawn in the seeded per-trial order; its unitaries
come from one stacked QR and get one unitarity check, its channels are
composed as (T, ...) branch stacks with one completeness check per stack, its
inputs enter the one transcript kernel as amplitude stacks (the diagonal
inputs of ``audit_inequalities`` written down by ``_diagonal_amps``, the
mixtures purified by one stacked ``eigh``), and each output stack's
fine-grained entropies are one ``_row_entropies`` call.  ``inequality_slacks``
and ``mixture_axiom_slacks`` are the one-row calls of the stacked routines.
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
    _branches,
    _chain_rows,
    _check_complete,
    _diagonal_amps,
    _dilation_branches,
    _fano_rows,
    _parallel_rows,
    _purify_rows,
    _slack_columns,
    _transcript_rows,
)
from .entropy import _row_entropies, relative_entropy_binary
from .qmat import (
    DensityMatrix,
    _as_count,
    _at_least,
    _check_normalized,
    _check_unitary,
    _random_unitaries,
    _unit_interval,
    basis_state,
)

_TIE_ATOL = 1e-12
_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
CAPACITY_GRID = tuple(i / 100.0 for i in range(101))  # the optimizer's grid scan

# Work caps, well above every default and benchmark request (200 trials, four
# blocks up to 4001).  At a cap a request runs under a minute on one x86-64
# core; a 5000-long block at p = 0.99 takes 2.6 s.
MAX_TRIALS = 10_000  # trials of one audit
MAX_BLOCK_LENGTH = 5_000  # n of a Hamming query or rate row; k above twice it never fits
MAX_N_LIST = 16  # block lengths in one asymptotic_consistency call

# Trials per stacked audit chunk, the audits' counterpart of channel.STACK_ROWS.
# A trial's stacks take about 26 KB, so a chunk's transient memory stays under
# 1 MB however many trials run; at this size the per-chunk numpy overhead is
# already small against the per-trial work.
TRIAL_CHUNK = 32


def _check_tolerance(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def _check_audit_args(seed: int, trials: int, tol: float) -> tuple[int, int]:
    seed = _at_least(seed, 0, "seed")
    count = _as_count(trials, "trials")
    if not 1 <= count <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    _check_tolerance(tol)
    return seed, count


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
    f: Callable[[float], float], tol: float = 1e-10, rows: Callable | None = None
) -> CapacityResult:
    """Maximize f over q in [0, 1]: 101-point grid scan, then golden-section.

    Grid ties (within 1e-12) are broken toward the q closest to 1/2; a flat
    objective short-circuits to the tie-broken grid point.  The refined point
    only replaces the grid argmax when it is genuinely better, so exact grid
    maxima (like q = 0.5 for symmetric channels) are reported exactly.

    ``rows(qs)``, if given, returns f on a whole list of q at once; the grid
    scan calls it once, on ``CAPACITY_GRID``, in place of f, and its values
    count as evaluations, checked alike.  ``tol``, at least
    ``sys.float_info.epsilon``, is checked before any evaluation.
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

    grid = CAPACITY_GRID
    values = list(map(f, grid) if rows is None else rows(grid))
    if len(values) != len(grid):
        raise ValueError(f"expected {len(grid)} grid values, got {len(values)}")
    values = [checked(q, v) for q, v in zip(grid, values)]
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


def _runs(branches: np.ndarray, amps: np.ndarray) -> tuple[ChannelTranscript, np.ndarray]:
    """The transcripts (one array per entry) and output stack of a stack of runs,
    each output row checked normalized."""
    columns, out = _transcript_rows(branches, amps)
    _check_normalized(out)
    return ChannelTranscript.from_entropies(*columns), out


def _inequality_rows(
    b1: np.ndarray, b2: np.ndarray, single: np.ndarray, pair: np.ndarray
) -> dict[str, np.ndarray]:
    """``inequality_slacks`` for a stack of draws: one array of slacks per id.

    ``b1``, ``b2`` are (T, d, m, d) branch stacks; ``single`` is a (T, d, d)
    and ``pair`` a (T, d d, d d) stack of input amplitudes on (Q, R).
    """
    n, d, m1, _ = b1.shape
    m2 = b2.shape[2]
    chained, par = _chain_rows(b1, b2), _parallel_rows(b1, b2)
    _check_complete(chained)
    _check_complete(par)
    t1, _ = _runs(b1, single)
    t12, out12 = _runs(chained, single)
    tpar, out_par = _runs(par, pair)

    slacks = {f"single:{key}": v for key, v in _slack_columns(t1, d * d).items()}
    slacks.update({f"chain:{key}": v for key, v in _slack_columns(t12, d * d).items()})
    slacks["forward_dpi"] = t1.mutual_entanglement - t12.mutual_entanglement
    slacks["forward_dpi_cap"] = 2.0 * t1.s_in - t1.mutual_entanglement
    slacks["loss_chaining"] = t12.loss - t1.loss
    slacks["code_fano"] = _fano_rows(t12.fidelity, d * d) - t12.loss

    fine = out12.reshape(n, d, d, m1, m2)  # (Q2', R, E1', E2')
    # S(R E1'), and S(R E1' Q2') as S(E2') by purity
    s_re1, s_re1q2 = _row_entropies(fine, ((1, 2), (3,)))
    mutual_re1_q2 = s_re1 + t12.s_out - s_re1q2
    slacks["reverse_dpi"] = mutual_re1_q2 - t12.mutual_entanglement
    slacks["reverse_dpi_cap"] = 2.0 * t12.s_out - mutual_re1_q2

    d_pair = pair.shape[1]
    slacks.update({f"parallel:{k}": v for k, v in _slack_columns(tpar, d_pair**2).items()})
    finep = out_par.reshape(n, d, b2.shape[1], d_pair, m1, m2)  # (Q1', Q2', R, E1', E2')
    keeps = ((0, 3), (0,), (3,), (1, 4), (1,), (4,))
    s_q1e1, s_q1, s_e1, s_q2e2, s_q2, s_e2 = _row_entropies(finep, keeps)
    i_1 = s_q1e1 + s_q1 - s_e1
    i_2 = s_q2e2 + s_q2 - s_e2
    slacks["subadditivity"] = i_1 + i_2 - tpar.mutual_entanglement
    return slacks


def _one_row(slacks: dict[str, np.ndarray]) -> dict[str, float]:
    return {key: float(value[0]) for key, value in slacks.items()}


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

    All slacks are nonnegative when the implementation is correct.  The
    one-row call of the stacked audit routine.
    """
    d = rho_single.dim
    if not ch1.input_dim == ch2.input_dim == d or rho_pair.dim != d * d:
        raise ValueError(
            f"dimension mismatch: channels on {ch1.input_dim} and {ch2.input_dim} dims, "
            f"inputs on {d} and {rho_pair.dim}"
        )
    rows = _inequality_rows(
        _branches(ch1),
        _branches(ch2),
        _purify_rows(rho_single.matrix[np.newaxis]),
        _purify_rows(rho_pair.matrix[np.newaxis]),
    )
    return _one_row(rows)


def _mixture_runs(
    branches: np.ndarray, rho1: np.ndarray, rho2: np.ndarray, w: np.ndarray
) -> tuple[ChannelTranscript, np.ndarray]:
    """Each row's channel run on rho1, then on w rho1 + (1 - w) rho2, then on rho2,
    as one 3T-row transcript; and the purified rho1 stack."""
    wc = w[:, np.newaxis, np.newaxis]
    amps = _purify_rows(np.concatenate([rho1, wc * rho1 + (1.0 - wc) * rho2, rho2]))
    runs, _ = _runs(np.concatenate([branches] * 3), amps)
    return runs, amps[: len(w)]


def _mixture_rows(
    b1: np.ndarray, b2: np.ndarray, rho1: np.ndarray, rho2: np.ndarray, w: np.ndarray
) -> dict[str, np.ndarray]:
    """``mixture_axiom_slacks`` for a stack of draws: (T, d, m, d) branch stacks,
    (T, d, d) density stacks and T weights."""
    runs, amps1 = _mixture_runs(b1, rho1, rho2, w)
    i_on_rho1, i_mix, i_2 = np.split(runs.mutual_entanglement, 3)
    concavity = i_mix - (w * i_on_rho1 + (1.0 - w) * i_2)

    wb = w[:, np.newaxis, np.newaxis, np.newaxis]
    mixed_channel = np.concatenate([np.sqrt(wb) * b1, np.sqrt(1.0 - wb) * b2], axis=2)
    _check_complete(mixed_channel)
    i_ch2 = _runs(b2, amps1)[0].mutual_entanglement
    i_chmix = _runs(mixed_channel, amps1)[0].mutual_entanglement
    convexity = (w * i_on_rho1 + (1.0 - w) * i_ch2) - i_chmix
    return {"concavity_input": concavity, "convexity_channel": convexity}


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
    The one-row call of the stacked audit routine.
    """
    w = _unit_interval(weight, "mixture weight")
    if not ch1.input_dim == ch2.input_dim == rho1.dim == rho2.dim:
        raise ValueError(
            f"dimension mismatch: channels on {ch1.input_dim} and {ch2.input_dim} dims, "
            f"inputs on {rho1.dim} and {rho2.dim}"
        )
    rows = _mixture_rows(
        _branches(ch1),
        _branches(ch2),
        rho1.matrix[np.newaxis],
        rho2.matrix[np.newaxis],
        np.array([w]),
    )
    return _one_row(rows)


def _coherent_concavity_rows(
    branches: np.ndarray, rho1: np.ndarray, rho2: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """I_e(w rho1 + (1-w) rho2) - [w I_e(rho1) + (1-w) I_e(rho2)] for each row."""
    i_1, i_mix, i_2 = np.split(_mixture_runs(branches, rho1, rho2, w)[0].coherent_info, 3)
    return i_mix - (w * i_1 + (1.0 - w) * i_2)


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _draw_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    weights = rng.random(n) + 1e-12
    return weights / weights.sum()


def _random_dilations(seeds, env_dim: int = 4) -> np.ndarray:
    """The (N, 2, env_dim, 2) branch stack of one random qubit dilation per seed:
    one stacked QR, one unitarity check and one completeness check."""
    us = _check_unitary(_random_unitaries(2 * env_dim, seeds), 3)
    branches = _dilation_branches(us, env_dim, basis_state(env_dim, 0))
    _check_complete(branches)
    return branches


def _random_densities(weights: np.ndarray, seeds) -> list[DensityMatrix]:
    """u diag(weights[n]) u^dag for each weight row, u the random unitary of seeds[n]
    (one stacked QR), each a validated DensityMatrix."""
    us = _random_unitaries(weights.shape[1], seeds)
    return [DensityMatrix(m) for m in (us * weights[:, np.newaxis, :]) @ us.conj().swapaxes(1, 2)]


def _chunks(trials: int):
    """Consecutive trial ranges of at most TRIAL_CHUNK trials, covering range(trials)."""
    for start in range(0, trials, TRIAL_CHUNK):
        yield range(start, min(start + TRIAL_CHUNK, trials))


def _inequality_chunks(seed: int, trials: int):
    """Per chunk of trials: each trial's parameters and the slack arrays of
    ``_inequality_rows``, the draws in the seeded per-trial order."""
    rng = np.random.default_rng(seed)
    for chunk in _chunks(trials):
        seeds, singles, pairs = [], [], []
        for _ in chunk:
            seeds += [_draw_seed(rng), _draw_seed(rng)]  # ch1, ch2
            singles.append(_draw_weights(rng, 2))
            pairs.append(_draw_weights(rng, 4))
        branches = _random_dilations(seeds)
        single, pair = _diagonal_amps(singles), _diagonal_amps(pairs)
        slacks = _inequality_rows(branches[0::2], branches[1::2], single, pair)
        yield [{"trial": i} for i in chunk], slacks


def _mixture_chunks(seed: int, trials: int, channels: int, score):
    """Per chunk of trials: each trial's parameters and ``score(branches, rho1, rho2, w)``.

    Each trial draws ``channels`` channels, two densities (weights, then seed)
    and a weight, in the seeded per-trial order; ``branches`` holds the
    channels trial-major.
    """
    rng = np.random.default_rng(seed)
    for chunk in _chunks(trials):
        seeds, weights, density_seeds, ws = [], [], [], []
        for _ in chunk:
            seeds += [_draw_seed(rng) for _ in range(channels)]
            for _ in range(2):
                weights.append(_draw_weights(rng, 2))
                density_seeds.append(_draw_seed(rng))
            ws.append(float(rng.uniform(0.05, 0.95)))
        rhos = _random_densities(np.array(weights), density_seeds)
        rho1, rho2 = (np.stack([rho.matrix for rho in rhos[i::2]]) for i in (0, 1))
        slacks = score(_random_dilations(seeds), rho1, rho2, np.array(ws))
        yield [{"trial": i, "weight": w} for i, w in zip(chunk, ws)], slacks


def _axiom_chunks(seed: int, trials: int):
    """``_mixture_chunks`` scored by ``_mixture_rows``, two channels per trial."""
    return _mixture_chunks(
        seed, trials, 2, lambda b, rho1, rho2, w: _mixture_rows(b[0::2], b[1::2], rho1, rho2, w)
    )


def _coherent_chunks(seed: int, trials: int):
    """``_mixture_chunks`` scored by ``_coherent_concavity_rows``, one channel per trial."""
    return _mixture_chunks(
        seed, trials, 1, lambda *draws: {"coherent": _coherent_concavity_rows(*draws)}
    )


def _scan(chunks, tol: float) -> tuple[list, float]:
    """The violations (slack below -tol) and the most negative slack (or 0.0) over
    (parameters, slack arrays) chunks: violations trial-major, then in slack-id order."""
    violations, worst = [], 0.0
    for params, slacks in chunks:
        keys = list(slacks)
        table = np.stack([slacks[key] for key in keys], axis=1)  # (trials, ids)
        worst = min(worst, float(table.min()))
        for i, j in zip(*np.nonzero(table < -tol)):
            violations.append((keys[j], dict(params[i]), float(table[i, j])))
    return violations, worst


def audit_inequalities(seed: int, trials: int, tol: float = 1e-9) -> AuditReport:
    """Audit every framework inequality over seeded random channels.

    Each trial draws two random single-qubit dilations (4-dim environments), a
    random diagonal qubit input, and a random diagonal two-qubit input for the
    parallel check, then scores ``inequality_slacks``; the trials run stacked,
    ``TRIAL_CHUNK`` at a time.  Deterministic per seed.
    """
    seed, trials = _check_audit_args(seed, trials, tol)
    violations, worst = _scan(_inequality_chunks(seed, trials), tol)
    return AuditReport(trials=trials, violations=tuple(violations), max_negative_slack=worst)


def audit_axioms(seed: int, trials: int = 100, tol: float = 1e-9) -> AuditReport:
    """Spot-check concavity in the input and convexity in the channel map.

    Each trial draws two random channels, two random densities, and a weight,
    and scores ``mixture_axiom_slacks``; the trials run stacked,
    ``TRIAL_CHUNK`` at a time.  Deterministic per seed.
    """
    seed, trials = _check_audit_args(seed, trials, tol)
    violations, worst = _scan(_axiom_chunks(seed, trials), tol)
    return AuditReport(trials=trials, violations=tuple(violations), max_negative_slack=worst)


def search_coherent_info_violations(seed: int, trials: int, tol: float = 1e-9) -> tuple:
    """Search random mixtures for failures of coherent-information concavity.

    The coherent information S - L is known not to share the concavity axiom
    of the mutual entanglement; this scans mixtures like ``audit_axioms``'s
    but draws one channel per trial, not two, so at one seed the two share
    only their first channel.  Returns the witnesses found (possibly none),
    each as (trial index, weight, slack).  Deterministic per seed.
    """
    seed, trials = _check_audit_args(seed, trials, tol)
    violations, _ = _scan(_coherent_chunks(seed, trials), tol)
    return tuple((params["trial"], params["weight"], slack) for _, params, slack in violations)


# ---------------------------------------------------------------------------
# Hamming bounds
# ---------------------------------------------------------------------------

# Sphere-packing modes: mode -> (error syndromes s per position, code-space
# qubits per position).  The entanglement-assisted ("extended") bound is the
# quantum one with twice the code space.
MODES = {"classical": (1, 1), "quantum": (3, 1), "entanglement": (3, 2)}


def _mode(mode: str) -> tuple[int, int]:
    if isinstance(mode, str) and mode in MODES:  # a list, say, is unhashable
        return MODES[mode]
    raise ValueError(f"invalid query: unknown mode {mode!r}")


@dataclass(frozen=True)
class HammingQuery:
    """A finite (n, k, t) sphere-packing query in one of the ``MODES``."""

    n: int
    k: int
    t: int
    mode: str

    def __post_init__(self):
        _mode(self.mode)
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


def hamming_holds(query: HammingQuery) -> tuple[bool, float]:
    """Exact sphere-packing check; returns (holds, slack in bits).

    With (s, space) = ``MODES[query.mode]``, the check is
    2^k sum_{i<=t} s^i C(n, i) <= 2^(space n), big-integer exact; the slack is
    the log2 ratio of the right side to the left.
    """
    syndromes, space = _mode(query.mode)
    volume = _sphere_volume(query.n, query.t, syndromes)
    exponent = space * query.n
    # k > exponent can never fit, and 2^k for a huge k would not fit in memory
    holds = query.k <= exponent and volume << query.k <= 1 << exponent
    slack = float(exponent - query.k) - math.log2(volume)
    return holds, slack


def rate_bound(p: float, mode: str) -> float:
    """Asymptotic rate bound in bits per symbol, as a binary relative entropy:
    D(p || s/(s+1)) + space - log2(s+1), with (s, space) = ``MODES[mode]``.

    The entanglement-assisted bound, with twice the code space, is the quantum
    bound plus exactly 1 for every p; the quantum bound may be negative.
    """
    syndromes, space = _mode(mode)
    reference = relative_entropy_binary(p, syndromes / (syndromes + 1))
    return reference + (space - math.log2(syndromes + 1))


def asymptotic_consistency(p: float, n_list: Sequence[int], mode: str) -> list[RatePoint]:
    """Largest admissible k/n at t = floor(p n) for each block length.

    Note the exact finite-n rates sit *above* the asymptotic bound and settle
    onto it from above at O(log n / n): the sphere-packing count is an upper
    bound on codewords, and truncating it at finite n loosens it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be strictly inside (0, 1), got {p!r}")
    syndromes, space = _mode(mode)
    if len(n_list) > MAX_N_LIST:
        raise ValueError(f"{len(n_list)} block lengths exceed the cap of {MAX_N_LIST}")
    n_list = [_as_count(n, "block length") for n in n_list]
    for n in n_list:  # all of them before any work
        if not 10 <= n <= MAX_BLOCK_LENGTH:
            raise ValueError(f"block length must be in [10, {MAX_BLOCK_LENGTH}], got {n}")
    rows = []
    for n in n_list:
        t = math.floor(p * n)
        admissible = (1 << (space * n)) // _sphere_volume(n, t, syndromes)
        k_max = max(0, admissible.bit_length() - 1)
        rows.append(RatePoint(n=n, t=t, k_max=k_max, rate=k_max / n))
    return rows
