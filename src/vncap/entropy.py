"""Shannon and von Neumann entropies, in bits, plus entropy Venn diagrams.

All logarithms are base 2 and ``0 * log 0 := 0`` is enforced at the scalar
level.  Venn-diagram regions are computed once from joint entropies and then
*stored*, so downstream recombination checks are genuine assertions rather
than tautologies.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qmat import (
    PROB_SUM_ATOL,
    DensityMatrix,
    PureState,
    _at_least,
    _check_residual,
    _check_state,
    _integers,
    _numbers,
    _one_row,
    _sequence,
    _real,
    _schmidt_spectra,
    clamp_spectrum,
    partial_trace,
    _unit_interval,
    _unit_intervals,
)


def _plog2p(p: float) -> float:
    return 0.0 if p <= 0.0 else p * math.log2(p)


def _shannon(probs) -> float:
    """-sum p log2 p over the entries of a flat sequence ``probs``, added left to right
    from 0.0 and then negated, as ``_shannon_rows`` adds them.  Not the built-in ``sum``:
    from Python 3.12 on it compensates float sums, and the twins would then differ."""
    total = 0.0
    for p in probs:
        total += _plog2p(p)
    return -total


def binary_entropy(p: float) -> float:
    """H2[p] = -p log2 p - (1-p) log2(1-p), symmetric about p = 1/2."""
    p = _unit_interval(p, "probability")
    return -_plog2p(p) - _plog2p(1.0 - p)


def _shannon_rows(probs) -> np.ndarray:
    """``_shannon`` of each column of a (k, N) array of distributions, or of a list of
    k aligned rows, bit for bit.

    The terms are summed in the scalar's order and their logarithms come from
    ``math.log2``, which ``np.log2`` differs from in the last bit on some inputs.
    """
    probs = np.asarray(probs)
    terms = np.zeros_like(probs)
    positive = probs > 0.0
    kept = probs[positive]
    terms[positive] = kept * np.fromiter(map(math.log2, kept.tolist()), float, kept.size)
    return -sum(terms)


def _binary_entropy_rows(values: np.ndarray) -> np.ndarray:
    """``binary_entropy`` of each entry of a 1-d array, bit for bit, with its check:
    entries at most ``UNIT_SLACK`` outside [0, 1] are clamped, further out raise."""
    values = _unit_intervals(values, "probability")
    return _shannon_rows(np.stack([values, 1.0 - values]))


def check_prob_vector(probs) -> np.ndarray:
    """Validate a flat list of entries in [0, 1] summing to 1 (within 1e-10); returns an array."""
    vec = _numbers(probs, "probability vector", 1, "iuf").astype(np.float64, copy=False)
    if vec.size == 0:
        raise ValueError("empty probability vector")
    clamped = _unit_intervals(vec, "probability vector entry")
    _check_residual(abs(vec.sum() - 1.0), PROB_SUM_ATOL, "probability vector does not sum to 1")
    return clamped


def shannon_entropy(probs) -> float:
    """Shannon entropy of a probability vector, in bits."""
    return _shannon(check_prob_vector(probs).tolist())


def relative_entropy_binary(p: float, r: float) -> float:
    """Binary relative entropy D(p || r) = p log2(p/r) + (1-p) log2((1-p)/(1-r)).

    The reference must be strictly inside (0, 1); a degenerate reference makes
    the quantity infinite whenever p differs from it.
    """
    p = _unit_interval(p, "probability")
    r = _real(r, "reference")
    if not 0.0 < r < 1.0:
        raise ValueError(f"degenerate reference {r!r}: need 0 < r < 1")
    out = 0.0
    if p > 0.0:
        out += p * math.log2(p / r)
    if p < 1.0:
        out += (1.0 - p) * math.log2((1.0 - p) / (1.0 - r))
    return out


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the clamped eigenvalue spectrum of a density matrix, in bits: the
    one-row call of ``_spectrum_entropies``."""
    _check_state(rho, DensityMatrix, "rho")
    return float(_spectrum_entropies(rho.spectrum))


def _row_entropies(amps: np.ndarray, keeps: Sequence[tuple[int, ...]]) -> np.ndarray:
    """out[j, n]: the entropy of row n's marginal over the factors ``keeps[j]`` of ``amps[n]``.

    The one Schmidt-spectrum entropy: ``_schmidt_spectra`` per marginal, the
    spectra stacked as they are when they share one width and else zero-padded
    to the widest, then one ``_spectrum_entropies`` over all of them (a zero adds
    nothing).
    """
    spectra = [_schmidt_spectra(amps, keep) for keep in keeps]
    width = max(s.shape[1] for s in spectra)
    if all(s.shape[1] == width for s in spectra):
        return _spectrum_entropies(np.stack(spectra))
    probs = np.zeros((len(spectra), amps.shape[0], width))
    for padded, spectrum in zip(probs, spectra):
        padded[:, : spectrum.shape[1]] = spectrum
    return _spectrum_entropies(probs)


def _spectrum_entropies(values: np.ndarray) -> np.ndarray:
    """-sum p log2 p along the last axis of a stack of spectra, after one ``clamp_spectrum``."""
    probs = clamp_spectrum(values)
    logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return -(probs * logs).sum(axis=-1)


def pure_subsystem_entropy(psi: PureState, keep: Iterable[int]) -> float:
    """Entropy of a pure state's marginal over ``keep``: the one-row call of ``_row_entropies``."""
    amps, kept = _one_row(psi, keep)
    return float(_row_entropies(amps, (kept,))[0, 0])


def _union_entropies(rho: DensityMatrix, split: Sequence[Sequence[int]], parts: int) -> list:
    """S of every union of the ``parts`` groups of ``split``, checked to partition the factors
    of ``rho``, in ``itertools.combinations`` order: each group, each pair, ..., all of them."""
    groups = [_integers(g, "subsystem index") for g in _sequence(split, "split", "integer lists")]
    if len(groups) != parts:
        raise ValueError(f"bad partition: expected {parts} groups, got {len(groups)}")
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(len(rho.dims))):
        raise ValueError(f"bad partition {groups} of {len(rho.dims)} factors")
    if any(not g for g in groups):
        raise ValueError("bad partition: empty group")
    unions = (sum(u, ()) for n in range(1, parts + 1) for u in itertools.combinations(groups, n))
    return [von_neumann_entropy(partial_trace(rho, union)) for union in unions]


@dataclass(frozen=True)
class EntropyVenn2:
    """Bipartite entropy diagram: marginals, conditionals, and mutual entropy.

    ``cond_a_given_b`` = S(A|B) = S(AB) - S(B) may be negative for entangled
    states; ``mutual`` = S(A:B) = S(A) + S(B) - S(AB) is bounded by
    2 min(S(A), S(B)).
    """

    s_a: float
    s_b: float
    s_ab: float
    cond_a_given_b: float
    cond_b_given_a: float
    mutual: float


# The parties of each region of ``EntropyVenn3``, in its field order.
_REGION_PARTIES = {
    "cond_a": "a", "cond_b": "b", "cond_c": "c",
    "mutual_ab": "ab", "mutual_ac": "ac", "mutual_bc": "bc",
    "center": "abc",
}


@dataclass(frozen=True)
class EntropyVenn3:
    """The seven regions of a tripartite entropy diagram for parties (A, B, C).

    ``cond_a`` is S(A|BC); ``mutual_ab`` is S(A:B|C) (and cyclically);
    ``center`` is the ternary mutual entropy S(A:B:C), which vanishes for any
    tripartite pure state.  Regions are stored; the ``s_*`` properties
    recombine them into joint entropies.
    """

    cond_a: float
    cond_b: float
    cond_c: float
    mutual_ab: float
    mutual_ac: float
    mutual_bc: float
    center: float

    def _joint(self, parties: str) -> float:
        """The joint entropy of ``parties``: the regions whose parties meet them, added
        left to right in field order.  Not the built-in ``sum``, which compensates
        float sums from Python 3.12 on and turns a -0.0 total into 0.0."""
        meet = [getattr(self, r) for r, its in _REGION_PARTIES.items() if set(its) & set(parties)]
        return functools.reduce(operator.add, meet)

    s_a = property(lambda self: self._joint("a"))
    s_b = property(lambda self: self._joint("b"))
    s_c = property(lambda self: self._joint("c"))
    s_ab = property(lambda self: self._joint("ab"))
    s_ac = property(lambda self: self._joint("ac"))
    s_bc = property(lambda self: self._joint("bc"))
    s_abc = property(lambda self: self._joint("abc"))


def venn2(rho_ab: DensityMatrix, split: Sequence[Sequence[int]]) -> EntropyVenn2:
    """Bipartite entropy diagram of ``rho_ab`` under a two-group factor split.

    Args:
        rho_ab: state over at least two tensor factors.
        split: two disjoint groups of factor indices covering all factors,
            e.g. ``((0,), (1, 2))``.
    """
    _check_state(rho_ab, DensityMatrix, "rho_ab")
    s_a, s_b, s_ab = _union_entropies(rho_ab, split, 2)
    return EntropyVenn2(
        s_a=s_a,
        s_b=s_b,
        s_ab=s_ab,
        cond_a_given_b=s_ab - s_b,
        cond_b_given_a=s_ab - s_a,
        mutual=s_a + s_b - s_ab,
    )


def venn3(rho_abc: DensityMatrix, split: Sequence[Sequence[int]]) -> EntropyVenn3:
    """Tripartite entropy diagram of ``rho_abc`` under a three-group split.

    The seven regions are linear combinations of the seven joint entropies:
    S(A|BC) = S(ABC) - S(BC), S(A:B|C) = S(AC) + S(BC) - S(C) - S(ABC), and
    the center S(A:B:C) = S(A) + S(B) + S(C) - S(AB) - S(AC) - S(BC) + S(ABC).
    """
    _check_state(rho_abc, DensityMatrix, "rho_abc")
    s_a, s_b, s_c, s_ab, s_ac, s_bc, s_abc = _union_entropies(rho_abc, split, 3)
    return EntropyVenn3(
        cond_a=s_abc - s_bc,
        cond_b=s_abc - s_ac,
        cond_c=s_abc - s_ab,
        mutual_ab=s_ac + s_bc - s_c - s_abc,
        mutual_ac=s_ab + s_bc - s_b - s_abc,
        mutual_bc=s_ab + s_ac - s_a - s_abc,
        center=s_a + s_b + s_c - s_ab - s_ac - s_bc + s_abc,
    )


def classical_mutual_information(joint) -> float:
    """Mutual information H(X) + H(Y) - H(X,Y) of a joint probability table."""
    table = _numbers(joint, "joint distribution", 2, "iuf").astype(np.float64, copy=False)
    check_prob_vector(table.ravel())
    h_x = _shannon(table.sum(axis=1).tolist())
    h_y = _shannon(table.sum(axis=0).tolist())
    h_xy = _shannon(table.ravel().tolist())
    return h_x + h_y - h_xy


def classical_fano_bound(p_error: float, s: int) -> float:
    """Fano bound H2[p_err] + p_err log2(s - 1) on equivocation for s codewords."""
    count = _at_least(s, 2, "codeword count")
    p_error = _unit_interval(p_error, "error probability")
    return binary_entropy(p_error) + p_error * math.log2(count - 1)
