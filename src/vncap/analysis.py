"""Capacity maximization, randomized inequality audits, and Hamming bounds.

The optimizer works over the diagonal input family rho(q) = diag(q, 1-q).  For the
depolarizing and dephasing channels its peak is the maximum over every qubit input
(both are covariant, and the mutual entanglement is concave); the acceptance suite
checks that against seeded random inputs and ensembles to 1e-12.  For other
channels the results are diagonal-family capacities only.

The audits draw seeded random 8x8 unitaries on a qubit and a 4-dim
environment, each read once into its four Kraus branches by
``dilation_channel``, run the channels singly, chained, and in parallel, and
verify every inequality the transcript framework promises.  Chains and
parallel pairs are composed on the Kraus branches (16 branches on a 2- or
4-dim input).  A violation beyond tolerance always indicates an
implementation bug, never physics; the audit exists to catch the former.

The trials run stacked, ``TRIAL_CHUNK`` at a time.  A chunk's channels,
densities and weights are drawn in the seeded per-trial order, each trial's
seeds in one generator call and its weights in another, and the chunk's
weights are normalized at once; its unitaries
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
    _check_state,
    _check_unitary,
    _flag,
    _integers,
    _numbers,
    _random_unitaries,
    _real,
    _unit_interval,
)

_TIE_ATOL = 1e-12
AUDIT_TOL = 1e-9  # default slack tolerance of the audits (and of ``audit --tol``)
CAPACITY_TOL = 1e-10  # default optimizer tolerance on q (and of ``capacity --tol``)
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

# Golden-section steps per rows call when the capacity optimizer looks ahead:
# one call takes the up to 2**5 - 1 = 31 points the next 5 steps can visit.
# Depths 4 to 6 ran the dephasing capacities equally fast; each step more
# doubles the points of a call.
LOOKAHEAD_DEPTH = 5


def _check_tolerance(tol: float) -> None:
    if not 0.0 < _real(tol, "tolerance") < math.inf:
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


def _golden_step(lo: float, hi: float, c: float, d: float, left: bool) -> tuple:
    """One golden-section step on the bracket [lo, hi] with inner points c < d:
    ``left`` (f(c) >= f(d)) keeps [lo, d], d becoming the old c, and else [c, hi],
    c becoming the old d.  Returns the new (lo, hi, c, d) and the new inner point."""
    if left:
        hi, d = d, c
        c = hi - _INV_GOLD * (hi - lo)
        return lo, hi, c, d, c
    lo, c = c, d
    d = lo + _INV_GOLD * (hi - lo)
    return lo, hi, c, d, d


def _frontier(bracket: tuple, outcomes: tuple, depth: int, tol: float) -> list[float]:
    """Every point that the next ``depth`` steps from ``bracket`` = (lo, hi, c, d)
    can visit, the first step going each way in ``outcomes``: 2**depth - 1 points
    at most for one outcome.  A path ends where hi - lo <= tol, as the search does.
    Listed one level per step: each open bracket of a level steps each way in
    ``outcomes`` for the first level and both ways after."""
    level, points, ways = [(*bracket, None)], [], outcomes  # as _golden_step returns them
    for _ in range(depth):
        level = [
            _golden_step(lo, hi, c, d, left)
            for lo, hi, c, d, _ in level
            if hi - lo > tol
            for left in ways
        ]
        points += [step[4] for step in level]
        ways = (True, False)
    return points


def maximize_scalar_on_unit_interval(
    f: Callable[[float], float],
    tol: float = CAPACITY_TOL,
    rows: Callable | None = None,
    lookahead: bool = False,
) -> CapacityResult:
    """Maximize f over q in [0, 1]: 101-point grid scan, then golden-section.

    Grid ties (within 1e-12) are broken toward the q closest to 1/2; a flat
    objective short-circuits to the tie-broken grid point.  The refined point
    only replaces the grid argmax when it is genuinely better, so exact grid
    maxima (like q = 0.5 for symmetric channels) are reported exactly.

    ``rows(qs)``, if given, returns f on a whole list of q at once; the grid
    scan calls it once, on ``CAPACITY_GRID``, in place of f.  With
    ``lookahead`` (which needs ``rows``) the golden-section steps run on rows
    too: ``LOOKAHEAD_DEPTH`` steps at a time, one rows call takes every point
    those steps can visit (the first comparison is known, so 2**depth - 1 at
    most; the first call adds the two starting points and the next depth - 1
    steps either way, as ``_frontier`` lists them, passed to rows as one
    float64 array), and the steps are replayed on the looked-up values.  f then
    evaluates only the refined midpoint.  An evaluation is a value the search
    reads: each grid value, each point a step visits, the midpoint.
    Only those are counted and checked, so a result, its count and its errors
    are the same with or without ``lookahead`` when rows(qs) equals f at each q,
    and a bad value at a point no step visits is never read.  ``tol``, at
    least ``sys.float_info.epsilon``, is checked before any evaluation.
    """
    _check_tolerance(tol)
    eps = sys.float_info.epsilon
    if tol < eps:  # the interval cannot shrink below one ulp
        raise ValueError(f"tolerance {tol!r} is below the float resolution {eps!r}")
    lookahead = _flag(lookahead, "lookahead")
    if lookahead and rows is None:
        raise ValueError("lookahead needs rows")
    evals = 0

    def checked(q: float, value) -> float:
        nonlocal evals
        if type(value) is not float:  # floats, the common case, skip the type check
            value = _real(value, "objective value")
        evals += 1
        if not math.isfinite(value):
            raise ValueError(f"non-finite objective value {value!r} at q={q!r}")
        return value

    def batch(qs: Sequence[float], what: str) -> list:
        """rows(qs), read as one array; its entries, as floats, skip the type check."""
        values = _numbers(rows(qs), "objective value", 1, "iuf").tolist()
        if len(values) != len(qs):
            raise ValueError(f"expected {len(qs)} {what} values, got {len(values)}")
        return values

    grid = CAPACITY_GRID
    values = list(map(f, grid)) if rows is None else batch(grid, "grid")
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
    ahead: dict[float, float] = {}  # look-ahead values, read when a step visits them

    def look_ahead(qs: list[float]) -> None:
        qs = list(dict.fromkeys(qs))
        ahead.update(zip(qs, batch(np.array(qs), "look-ahead")))

    def evaluate(q: float) -> float:
        return checked(q, ahead[q] if lookahead else f(q))

    if lookahead:
        look_ahead([c, d, *_frontier((lo, hi, c, d), (True, False), LOOKAHEAD_DEPTH - 1, tol)])
    fc, fd = evaluate(c), evaluate(d)
    while hi - lo > tol:
        left = fc >= fd
        *after, point = _golden_step(lo, hi, c, d, left)
        if lookahead and point not in ahead:
            look_ahead(_frontier((lo, hi, c, d), (left,), LOOKAHEAD_DEPTH, tol))
        lo, hi, c, d = after
        if left:
            fd, fc = fc, evaluate(c)
        else:
            fc, fd = fd, evaluate(d)
    q_ref = 0.5 * (lo + hi)
    v_ref = checked(q_ref, f(q_ref))
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
    b1, b2 = _branches(ch1, "ch1"), _branches(ch2, "ch2")
    _check_state(rho_single, DensityMatrix, "rho_single")
    _check_state(rho_pair, DensityMatrix, "rho_pair")
    d = rho_single.dim
    if not ch1.input_dim == ch2.input_dim == d or rho_pair.dim != d * d:
        raise ValueError(
            f"dimension mismatch: channels on {ch1.input_dim} and {ch2.input_dim} dims, "
            f"inputs on {d} and {rho_pair.dim}"
        )
    single, pair = (_purify_rows(rho.matrix[np.newaxis]) for rho in (rho_single, rho_pair))
    rows = _inequality_rows(b1, b2, single, pair)
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
    b1, b2 = _branches(ch1, "ch1"), _branches(ch2, "ch2")
    _check_state(rho1, DensityMatrix, "rho1")
    _check_state(rho2, DensityMatrix, "rho2")
    if not ch1.input_dim == ch2.input_dim == rho1.dim == rho2.dim:
        raise ValueError(
            f"dimension mismatch: channels on {ch1.input_dim} and {ch2.input_dim} dims, "
            f"inputs on {rho1.dim} and {rho2.dim}"
        )
    rows = _mixture_rows(b1, b2, rho1.matrix[np.newaxis], rho2.matrix[np.newaxis], np.array([w]))
    return _one_row(rows)


def _coherent_concavity_rows(
    branches: np.ndarray, rho1: np.ndarray, rho2: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """I_e(w rho1 + (1-w) rho2) - [w I_e(rho1) + (1-w) I_e(rho2)] for each row."""
    i_1, i_mix, i_2 = np.split(_mixture_runs(branches, rho1, rho2, w)[0].coherent_info, 3)
    return i_mix - (w * i_1 + (1.0 - w) * i_2)


def _draw_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """n seeds in one generator call, each the one ``int(rng.integers(0, 2**63))`` draws."""
    return rng.integers(0, 2**63, size=n).tolist()


def _normalized(draws: np.ndarray) -> np.ndarray:
    """Weights from a stack of ``rng.random`` draws: each row shifted by 1e-12, then
    divided by its sum, all rows at once."""
    weights = draws + 1e-12
    return weights / weights.sum(axis=-1, keepdims=True)


def _random_dilations(seeds, env_dim: int = 4) -> np.ndarray:
    """The (N, 2, env_dim, 2) branch stack of one random qubit dilation per seed:
    one stacked QR, one unitarity check and one completeness check."""
    us = _check_unitary(_random_unitaries(2 * env_dim, seeds), 3)
    branches = _dilation_branches(us, np.eye(1, env_dim, dtype=np.complex128)[0])  # |0>
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
    ``_inequality_rows``, the draws in the seeded per-trial order.

    Each trial draws its two channel seeds in one call and the weights of its
    single (2) and pair (4) inputs in another; the chunk's weights are
    normalized at once.
    """
    rng = np.random.default_rng(seed)
    for chunk in _chunks(trials):
        seeds, draws = [], np.empty((len(chunk), 6))
        for row in draws:
            seeds += _draw_seeds(rng, 2)  # ch1, ch2
            rng.random(out=row)
        branches = _random_dilations(seeds)
        single, pair = (_diagonal_amps(_normalized(w)) for w in (draws[:, :2], draws[:, 2:]))
        slacks = _inequality_rows(branches[0::2], branches[1::2], single, pair)
        yield [{"trial": i} for i in chunk], slacks


def _mixture_chunks(seed: int, trials: int, channels: int, score):
    """Per chunk of trials: each trial's parameters and ``score(branches, rho1, rho2, w)``.

    Each trial draws its ``channels`` channel seeds in one call, two densities
    (weights, then seed) and a weight, in the seeded per-trial order; the
    chunk's density weights are normalized at once.  ``branches`` holds the
    channels trial-major.
    """
    rng = np.random.default_rng(seed)
    for chunk in _chunks(trials):
        seeds, density_seeds = [], []
        draws, ws = np.empty((len(chunk), 2, 2)), np.empty(len(chunk))  # (trial, rho, weight)
        for i, pair in enumerate(draws):
            seeds += _draw_seeds(rng, channels)
            for row in pair:
                rng.random(out=row)
                density_seeds += _draw_seeds(rng, 1)
            ws[i] = rng.uniform(0.05, 0.95)
        rhos = _random_densities(_normalized(draws.reshape(2 * len(chunk), 2)), density_seeds)
        rho1, rho2 = (np.stack([rho.matrix for rho in rhos[i::2]]) for i in (0, 1))
        slacks = score(_random_dilations(seeds), rho1, rho2, ws)
        yield [{"trial": i, "weight": w} for i, w in zip(chunk, ws.tolist())], slacks


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


def audit_inequalities(seed: int, trials: int, tol: float = AUDIT_TOL) -> AuditReport:
    """Audit every framework inequality over seeded random channels.

    Each trial draws two random single-qubit dilations (4-dim environments), a
    random diagonal qubit input, and a random diagonal two-qubit input for the
    parallel check, then scores ``inequality_slacks``; the trials run stacked,
    ``TRIAL_CHUNK`` at a time.  Deterministic per seed.
    """
    seed, trials = _check_audit_args(seed, trials, tol)
    violations, worst = _scan(_inequality_chunks(seed, trials), tol)
    return AuditReport(trials=trials, violations=tuple(violations), max_negative_slack=worst)


def audit_axioms(seed: int, trials: int = 100, tol: float = AUDIT_TOL) -> AuditReport:
    """Spot-check concavity in the input and convexity in the channel map.

    Each trial draws two random channels, two random densities, and a weight,
    and scores ``mixture_axiom_slacks``; the trials run stacked,
    ``TRIAL_CHUNK`` at a time.  Deterministic per seed.
    """
    seed, trials = _check_audit_args(seed, trials, tol)
    violations, worst = _scan(_axiom_chunks(seed, trials), tol)
    return AuditReport(trials=trials, violations=tuple(violations), max_negative_slack=worst)


def search_coherent_info_violations(seed: int, trials: int, tol: float = AUDIT_TOL) -> tuple:
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
    _check_state(query, HammingQuery, "query")
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
    p = _real(p, "p")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be strictly inside (0, 1), got {p!r}")
    syndromes, space = _mode(mode)
    n_list = _integers(n_list, "block length", MAX_N_LIST)  # the length first, then entries
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
