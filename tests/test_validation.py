"""Validation at the public boundary: NaN, infinities, out-of-range values and
oversized work are refused, and in-range values pass through unchanged.

The property tests run a fixed, derandomized hypothesis profile so the suite
stays deterministic and fast.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vncap import cli, qmat
from vncap.analysis import (
    MAX_BLOCK_LENGTH,
    MAX_N_LIST,
    MAX_TRIALS,
    HammingQuery,
    asymptotic_consistency,
    audit_axioms,
    audit_inequalities,
    hamming_holds,
    inequality_slacks,
    maximize_scalar_on_unit_interval,
    mixture_axiom_slacks,
    search_coherent_info_violations,
    _sphere_volume,
)
from vncap.channel import (
    ChannelTranscript,
    KrausChannel,
    apply_channel,
    chain,
    diagonal_transcripts,
    dilation_channel,
    entanglement_fidelity,
    identity_channel,
    kraus_channel_from_json,
    kraus_channel_to_json,
    parallel,
    purify,
    quantum_fano_bound,
    run_channel,
    transcript_identity_residuals,
    transcript_slacks,
)
from vncap.depolarizing import (
    LOG2_3,
    DepolParams,
    analytic_transcript,
    analytic_transcript_rows,
    build_dilation,
    classical_capacity,
    classical_use_channel_rows,
    classical_use_channel_simulation,
    classical_use_ensemble,
    classical_use_transcript,
    classical_use_transcript_rows,
    dephasing_classical_rows,
    dephasing_kraus,
    dephasing_transcript_rows,
    depolarizing_kraus,
    dilation_unitary,
    kholevo_chi,
    quantum_capacity,
    superdense_scenario,
)
from vncap.entropy import (
    _shannon,
    binary_entropy,
    classical_fano_bound,
    classical_mutual_information,
    pure_subsystem_entropy,
    relative_entropy_binary,
    shannon_entropy,
    venn2,
    venn3,
    von_neumann_entropy,
)
from vncap.qmat import (
    MAX_DIMENSION,
    UNIT_SLACK,
    DensityMatrix,
    PureState,
    basis_state,
    clamp_spectrum,
    hermitian_eigenvalues,
    partial_trace,
    pure_marginal,
    pure_subsystem_spectrum,
    random_unitary,
    tensor,
    _unit_interval,
)

from reference import apply_unitary

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=30)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Beyond the library's rounding slack on either side of [0, 1].
OUT_OF_RANGE = st.one_of(
    st.floats(min_value=1.0 + 1e-9, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-9),
)
BAD_UNIT = st.one_of(NON_FINITE, OUT_OF_RANGE)
# The CLI allows no slack: anything not in [0, 1] exactly is refused.
BAD_FLAG_P = st.one_of(
    NON_FINITE,
    st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    st.floats(max_value=-5e-324, allow_infinity=False),
)
BAD_TOL = st.one_of(NON_FINITE, st.floats(max_value=0.0, allow_infinity=False))
# Not real numbers: refused with ValueError, never read as one.  The CLI tests
# leave them out: argparse turns a flag into a float before the library sees it.
NOT_REAL = ["0.3", b"0.1", True, False, np.True_, None, 1j, complex(0.3, 0.0)]
UNIT = st.floats(min_value=0.0, max_value=1.0)
BAD_ENTRY = st.sampled_from(
    [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, math.inf)]
)


MIXED = DensityMatrix(np.eye(2) / 2)
MIXED_PAIR = DensityMatrix(np.eye(4) / 4, (2, 2))


def h2(p):
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def with_examples(name, values):
    """A hypothesis ``@example`` for each value, so every one of them runs."""

    def decorate(test):
        for value in values:
            test = example(**{name: value})(test)
        return test

    return decorate


SCALAR_ENTRY_POINTS = {
    "DepolParams.p": lambda x: DepolParams(x, 0.5),
    "DepolParams.q": lambda x: DepolParams(0.5, x),
    "depolarizing_kraus": depolarizing_kraus,
    "dephasing_kraus": dephasing_kraus,
    "quantum_capacity": quantum_capacity,
    "classical_capacity": classical_capacity,
    "binary_entropy": binary_entropy,
    "relative_entropy_binary.p": lambda x: relative_entropy_binary(x, 0.5),
    "relative_entropy_binary.r": lambda x: relative_entropy_binary(0.5, x),
    "shannon_entropy": lambda x: shannon_entropy([x, 1.0 - x]),
    "classical_fano_bound": lambda x: classical_fano_bound(x, 4),
    "quantum_fano_bound": lambda x: quantum_fano_bound(x, 4),
    "mixture_axiom_slacks.weight": lambda x: mixture_axiom_slacks(
        dephasing_kraus(0.2), depolarizing_kraus(0.3), MIXED, MIXED, x
    ),
    "asymptotic_consistency.p": lambda x: asymptotic_consistency(x, [25], "classical"),
    "analytic_transcript_rows.p": lambda x: analytic_transcript_rows(x, [0.2]),
    "analytic_transcript_rows.q list": lambda x: analytic_transcript_rows(0.3, [0.2, x]),
    "analytic_transcript_rows.q array": lambda x: analytic_transcript_rows(0.3, np.array([x])),
}


def _with_entry(matrix, index, value):
    """A copy of ``matrix`` with one entry replaced: complex, unless ``matrix`` is an
    array of another dtype."""
    out = np.array(matrix, dtype=getattr(matrix, "dtype", np.complex128))
    out.flat[index % out.size] = value
    return out


EYE2, EYE4 = np.eye(2).tolist(), np.eye(4).tolist()

# The entry points that read a complex array and check its entries finite:
# name -> (the call on that array, a valid one as nested lists, the argument's
# name, with which every refusal of the one reader, ``qmat._numbers``, starts).
MATRIX_ENTRY_POINTS = {
    "PureState": (PureState, [1.0, 0.0], "state amplitudes"),
    "DensityMatrix": (DensityMatrix, [[0.5, 0.0], [0.0, 0.5]], "density matrix"),
    "KrausChannel": (KrausChannel, [EYE2], "Kraus operators"),
    "dilation_channel": (lambda u: dilation_channel(u, 2, basis_state(2, 0)), EYE4, "unitary"),
    "apply_unitary": (lambda u: apply_unitary(u, basis_state(2, 0)), EYE2, "unitary"),
}

ROW_FUNCTIONS = (
    analytic_transcript_rows,
    classical_use_transcript_rows,
    dephasing_transcript_rows,
    dephasing_classical_rows,
)
DEPHASING = dephasing_kraus(0.2)
# Every other public entry point that reads a list or array, in the same form.
# The first three take complex entries; the others refuse them.
ARRAY_ENTRY_POINTS = {
    "hermitian_eigenvalues": (hermitian_eigenvalues, EYE2, "matrix"),
    "tensor.a": (lambda a: tensor(a, EYE2), EYE2, "factor a"),
    "tensor.b": (lambda b: tensor(EYE2, b), EYE2, "factor b"),
    "clamp_spectrum": (clamp_spectrum, [0.5, 0.5], "spectrum"),
    "shannon_entropy": (shannon_entropy, [0.5, 0.5], "probability vector"),
    "kholevo_chi": (lambda p: kholevo_chi(p, [MIXED, MIXED]), [0.5, 0.5], "probability vector"),
    "classical_mutual_information": (
        classical_mutual_information,
        [[0.5, 0.0], [0.0, 0.5]],
        "joint distribution",
    ),
    "kraus_channel_from_json": (
        lambda pairs: kraus_channel_from_json({"kraus": pairs}),
        [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        '"kraus"',
    ),
    "diagonal_transcripts": (
        lambda q: diagonal_transcripts(DEPHASING, q),
        [0.2, 0.3],
        "mixing parameter",
    ),
    "classical_use_channel_rows": (
        lambda q: classical_use_channel_rows(DEPHASING, q),
        [0.2, 0.3],
        "mixing parameter",
    ),
    **{
        f"{rows.__name__}.p": (
            lambda p, rows=rows: rows(p, [0.2, 0.3]),
            [0.1, 0.2],
            "error probability",
        )
        for rows in ROW_FUNCTIONS
    },
    **{
        f"{rows.__name__}.q": (lambda q, rows=rows: rows(0.3, q), [0.2, 0.3], "mixing parameter")
        for rows in ROW_FUNCTIONS
    },
}
TAKE_COMPLEX = {*MATRIX_ENTRY_POINTS, "hermitian_eigenvalues", "tensor.a", "tensor.b"}
# The array entry points besides MATRIX_ENTRY_POINTS that refuse NaN and +-inf entries.
FINITE_ARRAY_ENTRY_POINTS = ("hermitian_eigenvalues", "tensor.a", "tensor.b", "clamp_spectrum")


def _with_leaf(value, leaf):
    """Nested lists ``value`` with their first innermost entry replaced by ``leaf``."""
    if isinstance(value, list):
        return [_with_leaf(value[0], leaf), *value[1:]]
    return leaf


def _non_numbers(name, value):
    """(label, refused variant of ``value``) pairs for the entry point ``name``: each
    ``NOT_REAL`` entry (no complex ones where complex entries are taken) in
    place of one entry and one level deeper, a bool array, an object array
    holding None, and ragged nesting."""
    depth = np.ndim(value)
    for leaf in NOT_REAL:
        if not (name in TAKE_COMPLEX and isinstance(leaf, complex)):
            yield f"{leaf!r} at depth {depth}", _with_leaf(value, leaf)
            yield f"{leaf!r} at depth {depth + 1}", [_with_leaf(value, leaf)]
    yield "bool array", np.array(value, dtype=bool)
    yield "object array holding None", np.array(_with_leaf(value, None), dtype=object)
    yield "ragged", _with_leaf(value, [0.5, 0.5])


NON_NUMBER_CASES = [
    pytest.param(call, bad, argument, id=f"{name}-{label}")
    for name, (call, value, argument) in {**MATRIX_ENTRY_POINTS, **ARRAY_ENTRY_POINTS}.items()
    for label, bad in _non_numbers(name, value)
]

# The stacked (m, d, d) check of KrausChannel: each refusal and its message.
KRAUS_STACK_REFUSALS = {
    "empty": ((), "at least one Kraus operator"),
    "empty list": ([], "at least one Kraus operator"),
    "empty stack": (np.zeros((0, 2, 2)), "at least one Kraus operator"),
    "dimension 0": (np.zeros((1, 0, 0)), "Kraus operators: expected dimension >= 1"),
    "not a stack": (5, "Kraus operators: expected 3 axes"),
    "mixed shapes": ((np.eye(2) / 2, np.eye(3) / 2), "mixed shapes"),
    "mixed ranks": ((np.eye(2), np.ones(2)), "mixed shapes"),
    "not square": ((np.ones((2, 3)),), "last two equal"),
    "nan": ((np.eye(2) / 2, np.full((2, 2), math.nan)), "non-finite"),
    "inf": ((np.eye(2), np.diag([0.0, math.inf])), "non-finite"),
    "not trace preserving": ((np.eye(2) / 2, np.eye(2) / 2), "trace preserving"),
}

# One float input above the size cap per array slot, its complex copy 16 MB or
# more: name -> (the call, the input's shape, the argument's name).
SIDE, ENTRIES = MAX_DIMENSION + 1, MAX_DIMENSION**2 + 1
OVERSIZED = {
    "DensityMatrix": (DensityMatrix, (SIDE, SIDE), "density matrix"),
    "DensityMatrix.one side": (DensityMatrix, (SIDE, 1000), "density matrix"),
    "PureState": (PureState, (ENTRIES,), "state amplitudes"),
    "KrausChannel": (KrausChannel, (1, SIDE, SIDE), "Kraus operators"),
    "KrausChannel.entries": (KrausChannel, (SIDE, 32, 32), "Kraus operators"),
    "kraus_channel_from_json": (
        lambda pairs: kraus_channel_from_json({"kraus": pairs}),
        (1, SIDE * SIDE, 2),
        "Kraus operators",
    ),
    "hermitian_eigenvalues": (hermitian_eigenvalues, (SIDE, SIDE), "matrix"),
    "dilation_channel": (
        lambda u: dilation_channel(u, 2, basis_state(2, 0)),
        (2 * MAX_DIMENSION + 2, 2 * MAX_DIMENSION + 2),
        "unitary",
    ),
    "apply_unitary": (lambda u: apply_unitary(u, basis_state(2, 0)), (SIDE, SIDE), "unitary"),
}

# Square matrices of dimension 0: name -> (the call, the argument's name).
ZERO_DIMENSION = {
    "DensityMatrix": (lambda: DensityMatrix(np.zeros((0, 0))), "density matrix"),
    "KrausChannel": (lambda: KrausChannel(np.zeros((1, 0, 0))), "Kraus operators"),
    "hermitian_eigenvalues": (lambda: hermitian_eigenvalues(np.zeros((0, 0))), "matrix"),
    "dilation_channel": (
        lambda: dilation_channel(np.zeros((0, 0)), 1, basis_state(1, 0)),
        "unitary",
    ),
}

MIXED_RUN = run_channel(DEPHASING, MIXED)

# Every public slot that takes a channel: name -> (the call on that slot, its name).
CHANNEL_SLOTS = {
    "chain.ch1": (lambda ch: chain(ch, DEPHASING), "ch1"),
    "chain.ch2": (lambda ch: chain(DEPHASING, ch), "ch2"),
    "parallel.ch1": (lambda ch: parallel(ch, DEPHASING), "ch1"),
    "parallel.ch2": (lambda ch: parallel(DEPHASING, ch), "ch2"),
    "run_channel": (lambda ch: run_channel(ch, MIXED), "channel"),
    "apply_channel": (lambda ch: apply_channel(ch, MIXED), "channel"),
    "diagonal_transcripts": (lambda ch: diagonal_transcripts(ch, [0.2]), "channel"),
    "classical_use_channel_rows": (lambda ch: classical_use_channel_rows(ch, [0.2]), "channel"),
    "classical_use_channel_simulation": (
        lambda ch: classical_use_channel_simulation(ch, 0.2),
        "channel",
    ),
    "inequality_slacks.ch1": (
        lambda ch: inequality_slacks(ch, DEPHASING, MIXED, MIXED_PAIR),
        "ch1",
    ),
    "inequality_slacks.ch2": (
        lambda ch: inequality_slacks(DEPHASING, ch, MIXED, MIXED_PAIR),
        "ch2",
    ),
    "mixture_axiom_slacks.ch1": (
        lambda ch: mixture_axiom_slacks(ch, DEPHASING, MIXED, MIXED, 0.5),
        "ch1",
    ),
    "mixture_axiom_slacks.ch2": (
        lambda ch: mixture_axiom_slacks(DEPHASING, ch, MIXED, MIXED, 0.5),
        "ch2",
    ),
}
NOT_CHANNELS = ["x", 5, None, np.eye(2), [EYE2], DEPHASING.operators]

# Every public slot that takes a state: name -> (the call on that slot, its name, a
# state the call accepts there).  The state's type is the one the slot takes.
ZERO = basis_state(2, 0)
STATE_SLOTS = {
    "partial_trace": (lambda st: partial_trace(st, (0,)), "rho", MIXED_PAIR),
    "pure_marginal": (lambda st: pure_marginal(st, (0,)), "psi", ZERO),
    "pure_subsystem_spectrum": (lambda st: pure_subsystem_spectrum(st, (0,)), "psi", ZERO),
    "pure_subsystem_entropy": (lambda st: pure_subsystem_entropy(st, (0,)), "psi", ZERO),
    "von_neumann_entropy": (von_neumann_entropy, "rho", MIXED),
    "venn2": (lambda st: venn2(st, ((0,), (1,))), "rho_ab", MIXED_PAIR),
    "venn3": (
        lambda st: venn3(st, ((0,), (1,), (2,))),
        "rho_abc",
        DensityMatrix(np.eye(8) / 8, (2, 2, 2)),
    ),
    "dilation_channel": (
        lambda st: dilation_channel(np.eye(2), 1, st),
        "env_initial",
        basis_state(1, 0),
    ),
    "purify": (purify, "rho_q", MIXED),
    "apply_channel": (lambda st: apply_channel(DEPHASING, st), "rho", MIXED),
    "run_channel": (lambda st: run_channel(DEPHASING, st), "rho_q", MIXED),
    "entanglement_fidelity.rho_qr_in": (
        lambda st: entanglement_fidelity(st, ZERO.projector()),
        "rho_qr_in",
        ZERO.projector(),
    ),
    "entanglement_fidelity.rho_qr_out": (
        lambda st: entanglement_fidelity(ZERO.projector(), st),
        "rho_qr_out",
        MIXED,
    ),
    "inequality_slacks.rho_single": (
        lambda st: inequality_slacks(DEPHASING, DEPHASING, st, MIXED_PAIR),
        "rho_single",
        MIXED,
    ),
    "inequality_slacks.rho_pair": (
        lambda st: inequality_slacks(DEPHASING, DEPHASING, MIXED, st),
        "rho_pair",
        MIXED_PAIR,
    ),
    "mixture_axiom_slacks.rho1": (
        lambda st: mixture_axiom_slacks(DEPHASING, DEPHASING, st, MIXED, 0.5),
        "rho1",
        MIXED,
    ),
    "mixture_axiom_slacks.rho2": (
        lambda st: mixture_axiom_slacks(DEPHASING, DEPHASING, MIXED, st, 0.5),
        "rho2",
        MIXED,
    ),
    "kholevo_chi.outputs": (
        lambda st: kholevo_chi([0.5, 0.5], [MIXED, st]),
        r"outputs\[1\]",
        MIXED,
    ),
}
NOT_STATES = ["x", 5, None, np.eye(2) / 2, [[0.5, 0.0], [0.0, 0.5]], DEPHASING]

# Every public slot that takes another of the package's objects: name -> (the call on
# that slot, its name, an object the call accepts there).
PARAMS = DepolParams(0.1, 0.3)
OBJECT_SLOTS = {
    "analytic_transcript": (analytic_transcript, "params", PARAMS),
    "classical_use_transcript": (classical_use_transcript, "params", PARAMS),
    "dilation_unitary": (dilation_unitary, "params", PARAMS),
    "build_dilation": (build_dilation, "params", PARAMS),
    "classical_use_ensemble": (classical_use_ensemble, "params", PARAMS),
    "transcript_identity_residuals": (transcript_identity_residuals, "transcript", MIXED_RUN),
    "transcript_slacks": (transcript_slacks, "transcript", MIXED_RUN),
    "kraus_channel_to_json": (kraus_channel_to_json, "channel", DEPHASING),
    "hamming_holds": (hamming_holds, "query", HammingQuery(5, 1, 1, "quantum")),
}
NOT_OBJECTS = ["x", None, 0.1, (0.1, 0.3), (5, 1, 1, "quantum"), {"p": 0.1, "q": 0.3}, MIXED]

# Every public flag: name -> the call with that flag.  Only bool and np.bool_ are flags.
FLAG_SLOTS = {
    "return_state": lambda flag: run_channel(DEPHASING, MIXED, return_state=flag),
    "lookahead": lambda flag: maximize_scalar_on_unit_interval(
        lambda q: q, rows=lambda qs: list(qs), lookahead=flag
    ),
}
NOT_FLAGS = ["no", "yes", "", 0, 1, 1.0, None, np.int64(1), [True]]

# Every public callable slot: name -> the call with that slot, given the objective
# it may evaluate.  ``rows`` also takes None, for no batch function; the objective does not.
CALLABLE_SLOTS = {
    "objective": lambda bad, f: maximize_scalar_on_unit_interval(bad),
    "rows": lambda bad, f: maximize_scalar_on_unit_interval(f, rows=bad),
}
NOT_CALLABLES = [5, "f", 0.5, np.float64(0.5), np.array([0.5]), [abs], {"q": 0.5}]

# (d_q, d_r, the factor refused): ``transcript_slacks`` checks each factor itself.
BAD_CODE_FACTORS = [
    (-2, -2, "d_q"), (True, 4, "d_q"), (0.5, 8, "d_q"), (2, 0, "d_r"), (4, False, "d_r")
]

# Counts must be integers; none is truncated or rounded.
NON_INTEGER_COUNTS = {
    "audit_axioms(nan)": lambda: audit_axioms(1, math.nan),
    "audit_inequalities(1.0)": lambda: audit_inequalities(1, 1.0),
    "search_coherent_info_violations(2.5)": lambda: search_coherent_info_violations(1, 2.5),
    "HammingQuery.n": lambda: hamming_holds(HammingQuery(7.5, 1, 1, "classical")),
    "HammingQuery.k": lambda: HammingQuery(7, 1.5, 1, "quantum"),
    "HammingQuery.t": lambda: HammingQuery(7, 1, math.inf, "quantum"),
    "asymptotic_consistency([25.5])": lambda: asymptotic_consistency(0.1, [25.5], "classical"),
    "asymptotic_consistency([25, 50.0])": lambda: asymptotic_consistency(
        0.1, [25, 50.0], "classical"
    ),
    "quantum_fano_bound(0.9, 4.0)": lambda: quantum_fano_bound(0.9, 4.0),
    "classical_fano_bound(0.1, 4.0)": lambda: classical_fano_bound(0.1, 4.0),
    "dilation_channel(env_dim=4.0)": lambda: dilation_channel(
        random_unitary(8, 1), 4.0, basis_state(4, 0)
    ),
    "dilation_channel(env_dim=float64(4))": lambda: dilation_channel(
        random_unitary(8, 1), np.float64(4), basis_state(4, 0)
    ),
    # seeds: integers >= 0, refused before numpy's SeedSequence sees them
    "random_unitary(2, seed=1.0)": lambda: random_unitary(2, 1.0),
    "random_unitary(2, seed=nan)": lambda: random_unitary(2, math.nan),
    "random_unitary(2, seed=-1)": lambda: random_unitary(2, -1),
    # the seed's two 32-bit entropy words are all that random_unitary seeds from
    "random_unitary(2, seed=2**64)": lambda: random_unitary(2, 2**64),
    "audit_inequalities(seed=1.5)": lambda: audit_inequalities(1.5, 1),
    "audit_inequalities(seed=-1)": lambda: audit_inequalities(-1, 1),
    "audit_axioms(seed=nan)": lambda: audit_axioms(math.nan, 1),
    "audit_axioms(seed=2.0)": lambda: audit_axioms(2.0, 1),
    "search_coherent_info_violations(seed=inf)": lambda: search_coherent_info_violations(
        math.inf, 1
    ),
    "search_coherent_info_violations(seed=-3)": lambda: search_coherent_info_violations(-3, 1),
    # bools are not counts, though operator.index takes them
    "audit_axioms(trials=True)": lambda: audit_axioms(0, True),
    "audit_inequalities(seed=False)": lambda: audit_inequalities(False, 1),
    "HammingQuery(True, True, False)": lambda: HammingQuery(True, True, False, "classical"),
    "asymptotic_consistency([True])": lambda: asymptotic_consistency(0.1, [True], "classical"),
    # a block-length list is a sequence with a length, read before any entry
    "asymptotic_consistency(5)": lambda: asymptotic_consistency(0.1, 5, "quantum"),
    "asymptotic_consistency(generator)": lambda: asymptotic_consistency(
        0.1, (n for n in (25, 50)), "quantum"
    ),
    "random_unitary(2, seed=True)": lambda: random_unitary(2, True),
    # each code-space factor of the Fano slack, not only their product
    **{
        f"transcript_slacks(d_q={d_q}, d_r={d_r})": lambda d_q=d_q, d_r=d_r: transcript_slacks(
            MIXED_RUN, d_q, d_r
        )
        for d_q, d_r, _ in BAD_CODE_FACTORS
    },
}

# Factor indices and dimensions must be integers too; none is truncated.
BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), (2, 2))
NON_INTEGER_FACTORS = {
    "partial_trace(keep=(0.9,))": lambda: partial_trace(MIXED_PAIR, (0.9,)),
    "DensityMatrix(dims=(2.5, 2))": lambda: DensityMatrix(np.eye(4) / 4, (2.5, 2)),
    "DensityMatrix(dims=(2.0, 2))": lambda: DensityMatrix(np.eye(4) / 4, (2.0, 2)),
    "PureState(dims=(2, float64(2)))": lambda: PureState(BELL.amplitudes, (2, np.float64(2))),
    "venn2(split=((0.5,), (1,)))": lambda: venn2(MIXED_PAIR, ((0.5,), (1,))),
    "pure_subsystem_entropy(keep=(1.0,))": lambda: pure_subsystem_entropy(BELL, (1.0,)),
    "pure_subsystem_spectrum(keep=(nan,))": lambda: pure_subsystem_spectrum(BELL, (math.nan,)),
    "basis_state(2, 0.5)": lambda: basis_state(2, 0.5),
    "basis_state(2.0, 0)": lambda: basis_state(2.0, 0),
    "random_unitary(2.0, 1)": lambda: random_unitary(2.0, 1),
    "identity_channel(2.0)": lambda: identity_channel(2.0),
    "identity_channel(nan)": lambda: identity_channel(math.nan),
    "identity_channel(0)": lambda: identity_channel(0),
    "identity_channel(-2)": lambda: identity_channel(-2),
    "identity_channel(True)": lambda: identity_channel(True),
    "PureState(dims=(True, 2))": lambda: PureState([1, 0], (True, 2)),
    "partial_trace(keep=(False,))": lambda: partial_trace(MIXED_PAIR, (False,)),
    "basis_state(2, True)": lambda: basis_state(2, True),
    # index, dimension and partition lists are sequences, not single integers
    "partial_trace(keep=5)": lambda: partial_trace(MIXED_PAIR, 5),
    "pure_marginal(keep=0)": lambda: pure_marginal(BELL, 0),
    "pure_subsystem_entropy(keep=0)": lambda: pure_subsystem_entropy(BELL, 0),
    "venn2(split=5)": lambda: venn2(MIXED_PAIR, 5),
    "venn2(split=(0, 1))": lambda: venn2(MIXED_PAIR, (0, 1)),
    "venn3(split=(0, 1, 2))": lambda: venn3(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), (0, 1, 2)),
    "PureState(dims=5)": lambda: PureState([1, 0], 5),
    "DensityMatrix(dims=2)": lambda: DensityMatrix(np.eye(2) / 2, 2),
    "basis_state(dims=5)": lambda: basis_state(2, 0, 5),
}


class TestLibraryRefusals:
    @pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
    @FIXED
    @given(x=BAD_UNIT)
    def test_scalar_entry_points_refuse(self, name, x):
        with pytest.raises(ValueError):
            SCALAR_ENTRY_POINTS[name](x)

    @pytest.mark.parametrize("x", NOT_REAL, ids=repr)
    # shannon_entropy's entry computes 1 - x itself
    @pytest.mark.parametrize("name", sorted(set(SCALAR_ENTRY_POINTS) - {"shannon_entropy"}))
    def test_scalar_entry_points_refuse_non_reals(self, name, x):
        with pytest.raises(ValueError, match="real number"):
            SCALAR_ENTRY_POINTS[name](x)

    @pytest.mark.parametrize("name", sorted({*MATRIX_ENTRY_POINTS, *FINITE_ARRAY_ENTRY_POINTS}))
    @FIXED
    @given(bad=BAD_ENTRY, index=st.integers(min_value=0, max_value=15))
    def test_matrix_entry_points_refuse_non_finite_entries(self, name, bad, index):
        call, value, argument = {**MATRIX_ENTRY_POINTS, **ARRAY_ENTRY_POINTS}[name]
        if name not in TAKE_COMPLEX:  # a real array, with NaN or +-inf in the entry
            value, bad = np.array(value, dtype=float), abs(bad) if isinstance(bad, complex) else bad
        with pytest.raises(ValueError, match=f"^{re.escape(argument)}: "):
            call(_with_entry(value, index, bad))

    @pytest.mark.parametrize("call, bad, argument", NON_NUMBER_CASES)
    def test_array_entry_points_refuse_non_numbers(self, call, bad, argument):
        """Refused by the one reader, whose message starts with the argument's name."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^{re.escape(argument)}: "):
                call(bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_unitary(MAX_DIMENSION + 1, 0),
            lambda: identity_channel(MAX_DIMENSION + 1),
            lambda: basis_state(MAX_DIMENSION + 1, 0),
        ],
        ids=["random_unitary", "identity_channel", "basis_state"],
    )
    def test_dimensions_above_the_cap_are_refused_before_any_allocation(self, build, monkeypatch):
        for name in ("empty", "zeros", "eye"):
            monkeypatch.setattr(np, name, lambda *args, **kwargs: pytest.fail("allocated"))
        refusal = rf"^dimension must be an integer in \[1, {MAX_DIMENSION}\]"
        with pytest.raises(ValueError, match=refusal):
            build()

    @FIXED
    @given(tol=BAD_TOL)
    @with_examples("tol", NOT_REAL)
    def test_tolerances_must_be_positive_and_finite(self, tol):
        for call in (
            lambda: maximize_scalar_on_unit_interval(lambda q: q, tol),
            lambda: audit_inequalities(1, 1, tol),
            lambda: audit_axioms(1, 1, tol),
            lambda: search_coherent_info_violations(1, 1, tol),
        ):
            with pytest.raises(ValueError, match="tolerance"):
                call()

    @pytest.mark.parametrize(
        "audit", [audit_inequalities, audit_axioms, search_coherent_info_violations]
    )
    @pytest.mark.parametrize("trials", [0, -5])
    def test_audits_refuse_no_trials(self, audit, trials):
        with pytest.raises(ValueError, match="trials"):
            audit(1, trials)

    def test_hamming_block_caps(self):
        with pytest.raises(ValueError, match="invalid query"):
            hamming_holds(HammingQuery(7, 10**400, 1, "quantum"))
        with pytest.raises(ValueError, match="invalid query"):
            HammingQuery(MAX_BLOCK_LENGTH + 1, 1, 0, "classical")
        with pytest.raises(ValueError, match="invalid query"):
            HammingQuery(7, 2 * MAX_BLOCK_LENGTH + 1, 1, "entanglement")
        assert not hamming_holds(HammingQuery(7, 2 * MAX_BLOCK_LENGTH, 1, "entanglement"))[0]
        with pytest.raises(ValueError, match="block length"):
            asymptotic_consistency(0.99, [100, MAX_BLOCK_LENGTH + 1], "classical")

    @pytest.mark.parametrize(
        "audit", [audit_inequalities, audit_axioms, search_coherent_info_violations]
    )
    def test_audits_cap_trials(self, audit):
        with pytest.raises(ValueError, match="trials"):
            audit(1, MAX_TRIALS + 1)

    def test_rate_table_caps_its_length_before_any_work(self):
        # The length is checked first: the last entry is never looked at.
        too_many = [10] * MAX_N_LIST + ["not a block length"]
        with pytest.raises(ValueError, match="cap"):
            asymptotic_consistency(0.1, too_many, "classical")
        assert len(asymptotic_consistency(0.1, [10] * MAX_N_LIST, "classical")) == MAX_N_LIST

    @pytest.mark.parametrize("name", sorted(NON_INTEGER_COUNTS))
    def test_non_integer_counts_are_refused(self, name):
        with pytest.raises(ValueError, match="integer"):
            NON_INTEGER_COUNTS[name]()

    @pytest.mark.parametrize("d_q, d_r, factor", BAD_CODE_FACTORS)
    def test_transcript_slacks_name_the_refused_factor(self, d_q, d_r, factor):
        with pytest.raises(ValueError, match=f"^{factor} must be an integer"):
            transcript_slacks(MIXED_RUN, d_q, d_r)

    @pytest.mark.parametrize("name", sorted(NON_INTEGER_FACTORS))
    def test_non_integer_factors_are_refused(self, name):
        with pytest.raises(ValueError, match="integer"):
            NON_INTEGER_FACTORS[name]()

    def test_integer_factors_of_numpy_type_are_accepted(self):
        two = np.int64(2)
        rho = DensityMatrix(np.eye(4) / 4, (two, 2))
        assert rho.dims == (2, 2) and partial_trace(rho, (np.int64(0),)).dims == (2,)
        assert venn2(rho, ((two - 2,), (two - 1,))).mutual == 0.0
        assert basis_state(two, np.int64(1)).amplitudes[1] == 1.0
        assert random_unitary(two, 1).shape == (2, 2)
        assert np.array_equal(random_unitary(2, np.int64(1)), random_unitary(2, 1))
        assert identity_channel(two).input_dim == 2

    @pytest.mark.parametrize("audit", [audit_inequalities, audit_axioms])
    def test_audits_report_integer_trials(self, audit):
        report = audit(np.int64(0), np.int64(3))
        assert type(report.trials) is int and report.trials == 3
        assert report == audit(0, 3)
        json.dumps(dataclasses.asdict(report))  # an np.int64 would raise TypeError

    @pytest.mark.parametrize(
        "audit", [audit_inequalities, audit_axioms, search_coherent_info_violations]
    )
    def test_audits_read_an_unsigned_tolerance_as_its_number(self, audit):
        """The audits compare slacks with -tol, which wraps to 254 for np.uint8(2)."""
        assert audit(1, 3, np.uint8(2)) == audit(1, 3, 2.0)

    @pytest.mark.parametrize("weight", [1.5, -0.2, math.nan, math.inf])
    def test_mixture_weight_is_checked(self, weight):
        ch1, ch2 = dephasing_kraus(0.2), depolarizing_kraus(0.3)
        with pytest.raises(ValueError, match="mixture weight"):
            mixture_axiom_slacks(ch1, ch2, MIXED, MIXED, weight)

    def test_tolerance_below_float_resolution_is_refused(self):
        for tol in (sys.float_info.epsilon / 2, 1e-17, 1e-300, 5e-324):
            with pytest.raises(ValueError, match="float resolution"):
                maximize_scalar_on_unit_interval(lambda q: -abs(q - 0.2), tol)

    @pytest.mark.parametrize("peak", [0.0, 1e-3, 0.2, 0.5, 0.999, 1.0])
    def test_golden_section_terminates_at_the_float_floor(self, peak):
        result = maximize_scalar_on_unit_interval(
            lambda q: -abs(q - peak), sys.float_info.epsilon
        )
        assert abs(result.argmax_q - peak) <= 1e-15
        assert result.evaluations < 200

    def test_integer_counts_keep_their_type(self):
        query = HammingQuery(np.int64(7), np.int64(1), np.int64(1), "quantum")
        assert all(type(v) is int for v in (query.n, query.k, query.t))
        assert hamming_holds(query) == hamming_holds(HammingQuery(7, 1, 1, "quantum"))

    @pytest.mark.parametrize("d", [2, 3, 4, 7, np.int64(2), np.int64(4)])
    def test_fano_bounds_take_int_dimensions(self, d):
        """The values the int(...) coercion gave, for int and numpy.int64 alike."""
        f, p = 0.9, 0.1
        log_term = math.log2(int(d) - 1)
        assert quantum_fano_bound(f, d) == 2.0 * (binary_entropy(f) + (1.0 - f) * log_term)
        assert classical_fano_bound(p, d) == binary_entropy(p) + p * log_term

    @pytest.mark.parametrize("name", sorted(KRAUS_STACK_REFUSALS))
    def test_kraus_stack_refusals(self, name):
        operators, message = KRAUS_STACK_REFUSALS[name]
        with pytest.raises(ValueError, match=message):
            KrausChannel(operators)

    @pytest.mark.parametrize("name", sorted(OVERSIZED))
    def test_oversized_arrays_are_refused_before_the_complex_copy(self, name):
        """Refused from the shape: the refusal allocates under 1% of the input's
        size, let alone its complex copy."""
        call, shape, argument = OVERSIZED[name]
        values = np.zeros(shape)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^{argument}: shape .* above the cap"):
                call(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 100

    def test_arrays_at_the_size_cap_are_accepted(self):
        assert PureState(np.full(MAX_DIMENSION**2, 1.0 / MAX_DIMENSION)).dim == MAX_DIMENSION**2
        assert KrausChannel(np.eye(MAX_DIMENSION)[np.newaxis]).input_dim == MAX_DIMENSION
        entries = np.tile(np.eye(32) / 32.0, (MAX_DIMENSION, 1, 1))  # MAX_DIMENSION**2 entries
        assert KrausChannel(entries).env_dim == MAX_DIMENSION

    @pytest.mark.parametrize("name", sorted(ZERO_DIMENSION))
    def test_dimension_zero_is_refused(self, name):
        call, argument = ZERO_DIMENSION[name]
        with pytest.raises(ValueError, match=f"^{argument}: expected dimension >= 1"):
            call()

    @pytest.mark.parametrize("bad", NOT_CHANNELS, ids=lambda bad: type(bad).__name__)
    @pytest.mark.parametrize("name", sorted(CHANNEL_SLOTS))
    def test_channel_slots_refuse_non_channels(self, name, bad):
        call, slot = CHANNEL_SLOTS[name]
        with pytest.raises(ValueError, match=f"^{slot} must be a KrausChannel"):
            call(bad)

    @pytest.mark.parametrize("bad", NOT_FLAGS, ids=repr)
    @pytest.mark.parametrize("name", sorted(FLAG_SLOTS))
    def test_flags_refuse_non_bools(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be a bool, got "):
            FLAG_SLOTS[name](bad)

    @pytest.mark.parametrize("name", sorted(FLAG_SLOTS))
    def test_flags_take_numpy_bools(self, name):
        for flag in (False, True):
            assert repr(FLAG_SLOTS[name](np.bool_(flag))) == repr(FLAG_SLOTS[name](flag))

    @pytest.mark.parametrize("bad", NOT_CALLABLES, ids=lambda bad: type(bad).__name__)
    @pytest.mark.parametrize("name", sorted(CALLABLE_SLOTS))
    def test_callable_slots_refuse_non_callables(self, name, bad):
        """Refused with ValueError before the objective is evaluated once."""
        evaluated = []
        with pytest.raises(ValueError, match=f"^{name} must be callable"):
            CALLABLE_SLOTS[name](bad, lambda q: evaluated.append(q) or q)
        assert evaluated == []

    def test_objective_refuses_none(self):
        with pytest.raises(ValueError, match="^objective must be callable, got NoneType$"):
            CALLABLE_SLOTS["objective"](None, None)

    @pytest.mark.parametrize("bad", NOT_STATES, ids=lambda bad: type(bad).__name__)
    @pytest.mark.parametrize("name", sorted(STATE_SLOTS))
    def test_state_slots_refuse_non_states(self, name, bad):
        call, slot, state = STATE_SLOTS[name]
        with pytest.raises(ValueError, match=f"^{slot} must be a {type(state).__name__}, got "):
            call(bad)

    @pytest.mark.parametrize("name", sorted(STATE_SLOTS))
    def test_state_slots_take_their_state_type_only(self, name):
        """Each slot accepts its state, and refuses a PureState where a DensityMatrix
        goes, and the other way round."""
        call, slot, state = STATE_SLOTS[name]
        call(state)
        wrong = ZERO if isinstance(state, DensityMatrix) else MIXED
        with pytest.raises(ValueError, match=f"^{slot} must be a {type(state).__name__}, got "):
            call(wrong)

    @pytest.mark.parametrize("bad", NOT_OBJECTS, ids=lambda bad: type(bad).__name__)
    @pytest.mark.parametrize("name", sorted(OBJECT_SLOTS))
    def test_object_slots_refuse_other_kinds(self, name, bad):
        call, slot, good = OBJECT_SLOTS[name]
        with pytest.raises(ValueError, match=f"^{slot} must be a {type(good).__name__}, got "):
            call(bad)

    @pytest.mark.parametrize("name", sorted(OBJECT_SLOTS))
    def test_object_slots_take_their_kind(self, name):
        call, _, good = OBJECT_SLOTS[name]
        call(good)

    @pytest.mark.parametrize(
        "bad", [5, None, (rho for rho in [MIXED])], ids=lambda bad: type(bad).__name__
    )
    def test_kholevo_outputs_must_be_a_sequence(self, bad):
        with pytest.raises(ValueError, match="^outputs must be a sequence of DensityMatrix"):
            kholevo_chi([1.0], bad)

    @pytest.mark.parametrize(
        "unordered",
        [set, frozenset, lambda states: dict.fromkeys(states).keys()],
        ids=["set", "frozenset", "dict_keys"],
    )
    def test_kholevo_outputs_must_be_ordered(self, unordered):
        """A set would pair the probabilities with the states in hash order."""
        pure = ZERO.projector()
        with pytest.raises(ValueError, match="^outputs must be an ordered sequence, got "):
            kholevo_chi([0.9, 0.1], unordered([pure, MIXED]))
        ordered = [pure, MIXED]
        chi = kholevo_chi([0.9, 0.1], ordered)
        assert kholevo_chi([0.9, 0.1], tuple(ordered)) == chi
        assert kholevo_chi([0.9, 0.1], np.array(ordered, dtype=object)) == chi

    @pytest.mark.parametrize(
        "call",
        [
            lambda: clamp_spectrum([1e308, 1e308]),
            lambda: clamp_spectrum([[0.5, 0.5], [1e308, 1e308]]),
            lambda: tensor([1e200], [1e200]),
            lambda: tensor([1e200 + 1e200j], [1e200 + 1e200j]),
        ],
        ids=["clamp_spectrum", "clamp_spectrum-row", "tensor", "tensor-complex"],
    )
    def test_overflow_is_refused_before_any_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                call()

    @pytest.mark.parametrize("bad", NOT_REAL + [[0.5], np.array([0.5, 0.5])], ids=repr)
    def test_transcript_slacks_read_each_entry_as_a_real(self, bad):
        fields = [0.5] * 7
        for index in range(7):
            transcript = ChannelTranscript(*fields[:index], bad, *fields[index + 1 :])
            with pytest.raises(ValueError, match="^transcript .* must be a real number"):
                transcript_slacks(transcript)
        with pytest.raises(ValueError, match="^transcript must be a ChannelTranscript"):
            transcript_slacks(fields)
        # numpy reals are read as floats, to the same slacks
        as_numpy = ChannelTranscript(*map(np.float64, fields))
        assert transcript_slacks(as_numpy) == transcript_slacks(ChannelTranscript(*fields))


def _column_bytes(result) -> list[bytes]:
    """The bytes of each column of a row function's result, a transcript or a tuple."""
    columns = vars(result).values() if dataclasses.is_dataclass(result) else result
    return [np.asarray(column, dtype=np.float64).tobytes() for column in columns]


NOT_ZERO_D_SLOTS = ("shannon_entropy", "analytic_transcript_rows.q list")


class TestZeroDimensionalNumbers:
    """A 0-d real array is one number, read as the float or int it holds, as a 0-d
    integer array is read as a count; 0-d arrays of other kinds are refused."""

    @pytest.mark.parametrize("rows", ROW_FUNCTIONS, ids=lambda rows: rows.__name__)
    @pytest.mark.parametrize("p", [0.3, 0.0, 1.0, 1, 0.75])
    def test_row_functions_read_a_0d_p_as_its_number(self, rows, p):
        qs = [0.0, 1e-12, 0.2, 0.5, 1.0]
        assert _column_bytes(rows(np.array(p), qs)) == _column_bytes(rows(p, qs))

    def test_capacity_reads_a_0d_p_as_its_number(self):
        for p in (0.3, 0.0, 0.75, 1.0):
            assert quantum_capacity(np.array(p)).hex() == quantum_capacity(p).hex()

    @pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
    def test_scalar_entry_points_read_a_0d_real(self, name):
        call = SCALAR_ENTRY_POINTS[name]
        assert repr(call(np.array(0.3))) == repr(call(0.3))
        assert repr(call(np.array(np.float32(0.5)))) == repr(call(np.float32(0.5)))

    @pytest.mark.parametrize("bad", [np.array(True), np.array(0.3 + 0j), np.array("0.3")], ids=repr)
    # shannon_entropy's entry computes 1 - x itself; a q list is read by _numbers
    @pytest.mark.parametrize("name", sorted(set(SCALAR_ENTRY_POINTS) - {*NOT_ZERO_D_SLOTS}))
    def test_other_0d_arrays_are_refused(self, name, bad):
        with pytest.raises(ValueError, match="real number"):
            SCALAR_ENTRY_POINTS[name](bad)

    def test_counts_read_a_0d_integer_array(self):
        assert basis_state(np.array(2), np.array(1)).amplitudes[1] == 1.0
        assert audit_axioms(np.array(0), np.array(2)) == audit_axioms(0, 2)
        for bad in (np.array(2.0), np.array(True)):
            with pytest.raises(ValueError, match="^dimension must be an integer"):
                identity_channel(bad)


class TestInRangeValuesUnchanged:
    @FIXED
    @given(
        n=st.integers(min_value=0, max_value=600),
        t=st.integers(min_value=0, max_value=600),
        syndromes=st.integers(min_value=1, max_value=4),
    )
    def test_sphere_volume_matches_binomial_sum(self, n, t, syndromes):
        expected = sum(syndromes**i * math.comb(n, i) for i in range(t + 1))
        assert _sphere_volume(n, t, syndromes) == expected

    @FIXED
    @given(x=UNIT)
    def test_unit_interval_is_identity_inside(self, x):
        assert _unit_interval(x, "x") == x

    @FIXED
    @given(dust=st.floats(min_value=0.0, max_value=UNIT_SLACK))
    def test_unit_interval_clamps_rounding_dust(self, dust):
        assert _unit_interval(-dust, "x") == 0.0
        assert _unit_interval(1.0 + dust, "x") == 1.0

    def test_cli_slack_is_exact(self):
        with pytest.raises(ValueError, match="outside"):
            _unit_interval(1.0 + 1e-15, "--p", slack=0.0)

    @FIXED
    @given(p=UNIT, q=UNIT)
    def test_scalar_values(self, p, q):
        params = DepolParams(p, q)
        assert (params.p, params.q) == (p, q)
        assert binary_entropy(p) == pytest.approx(h2(p), abs=1e-15)
        assert quantum_capacity(p) == pytest.approx(2.0 - h2(p) - p * LOG2_3, abs=1e-15)
        assert classical_capacity(p) == pytest.approx(1.0 - h2(2.0 * p / 3.0), abs=1e-15)
        assert quantum_fano_bound(p, 4) == pytest.approx(
            2.0 * (h2(p) + (1.0 - p) * LOG2_3), abs=1e-15
        )
        assert classical_fano_bound(p, 4) == pytest.approx(h2(p) + p * LOG2_3, abs=1e-15)
        assert shannon_entropy([p, 1.0 - p]) == pytest.approx(h2(p), abs=1e-15)

    @FIXED
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        dim=st.integers(min_value=1, max_value=6),
        rank=st.integers(min_value=1, max_value=6),
    )
    def test_stored_spectrum_entropy_matches_fresh_eigensolve(self, seed, dim, rank):
        rng = np.random.default_rng(seed)
        weights = np.zeros(dim)
        weights[: min(rank, dim)] = rng.random(min(rank, dim)) + 1e-3
        weights /= weights.sum()
        u = random_unitary(dim, seed)
        rho = DensityMatrix(u @ np.diag(weights.astype(np.complex128)) @ u.conj().T)
        fresh = _shannon(clamp_spectrum(hermitian_eigenvalues(rho.matrix)))
        assert von_neumann_entropy(rho) == pytest.approx(fresh, abs=1e-12)
        assert list(rho.spectrum) == sorted(rho.spectrum, reverse=True)


def test_validated_densities_are_not_diagonalized_again(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    classical_use_channel_simulation(dephasing_kraus(0.2), 0.3)
    assert len(calls) == 3  # one Schmidt spectrum per entropy: S(Q'), S(R), S(Q'R)
    calls.clear()
    superdense_scenario(0.3)
    assert len(calls) == 4  # S(R), S(Q'), S_e of the four Bell runs, and the mean output


def test_density_matrix_checks_its_array_once(monkeypatch):
    calls = []
    as_complex_array = qmat._as_complex_array
    monkeypatch.setattr(
        qmat, "_as_complex_array", lambda *args: calls.append(1) or as_complex_array(*args)
    )
    DensityMatrix(np.eye(2) / 2)
    DensityMatrix(np.eye(4) / 4, (2, 2))
    assert len(calls) == 2
    hermitian_eigenvalues(np.eye(2))
    assert len(calls) == 3


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_refused(*argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ")


P_COMMANDS = [
    ("capacity",),
    ("capacity", "--use", "classical"),
    ("capacity", "--channel", "dephasing"),
    ("superdense",),
    ("hamming", "--mode", "quantum"),
    ("hamming", "--mode", "classical", "--n", "7", "--k", "4", "--t", "1"),
]


class TestCliRefusals:
    @pytest.mark.parametrize("command", P_COMMANDS, ids=" ".join)
    @FIXED
    @given(p=BAD_FLAG_P)
    def test_bad_p(self, command, p):
        assert_refused(*command, f"--p={p!r}")

    @pytest.mark.parametrize(
        "command", [("capacity", "--p", "0.1"), ("audit", "--trials", "2")], ids=" ".join
    )
    @FIXED
    @given(tol=BAD_TOL)
    def test_bad_tol(self, command, tol):
        assert_refused(*command, f"--tol={tol!r}")

    @pytest.mark.parametrize("tol", ["1e-17", "1e-300"])
    def test_capacity_tol_below_float_resolution(self, tol):
        argv = ("capacity", "--channel", "depolarizing", "--use", "classical", "--p=0.2")
        code, out, err = run_cli(*argv, f"--tol={tol}")
        assert (code, out) == (2, "") and "float resolution" in err

    @pytest.mark.parametrize("use", ["quantum", "classical"])
    @pytest.mark.parametrize("tol", ["1e-17", "nan", "-1"])
    def test_refused_capacity_tol_computes_no_grid(self, use, tol, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, solve=solve, **k: calls.append(1) or solve(*a, **k)
            )
        argv = ("capacity", "--channel", "dephasing", "--use", use, "--p", "0.3")
        code, out, err = run_cli(*argv, f"--tol={tol}")
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: ") and "tolerance" in err
        assert run_cli(*argv)[0] == 0 and calls  # the counters see an accepted request

    @FIXED
    @given(p=UNIT)
    def test_in_range_p_is_accepted(self, p):
        code, out, _ = run_cli("capacity", f"--p={p!r}")
        assert code == 0
        assert f"p: {cli._fmt(p)}\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--p-range", "0:1:nan"),
            ("sweep", "--q-range", "0:1:inf"),
            ("sweep", "--q-range", "nan:1:0.1"),
            ("sweep", "--p-range", "0:1:1e-320"),
            ("hamming", "--mode", "quantum", "--p", "0.1", "--n-list", "5,100"),
            ("hamming", "--mode", "quantum", "--n", "5", "--k", "1", "--t", "9", "--p", "0.1"),
            ("audit", "--trials", "0"),
        ],
        ids=" ".join,
    )
    def test_refusals_print_nothing(self, argv):
        assert_refused(*argv)

    @pytest.mark.parametrize("n_list", ["10,,20", "10,20,", ",10", "", ","])
    def test_malformed_n_list(self, n_list):
        assert_refused("hamming", "--mode", "quantum", "--p", "0.1", "--n-list", n_list)

    def test_caps(self):
        # Without their caps, all but the last request would still be cheap.
        too_long = str(MAX_BLOCK_LENGTH + 1)
        rates = ("hamming", "--mode", "classical", "--p", "0.1", "--n-list")
        assert_refused("sweep", "--q-range", "0:1:1e-6")
        assert_refused("sweep", "--p-range", "0:1:1e-3", "--q-range", "0:1:1e-2")
        assert_refused("hamming", "--mode", "classical", "--n", too_long, "--k", "1", "--t", "0")
        assert_refused("hamming", "--mode", "classical", "--n", "7", "--k", "9" * 400, "--t", "1")
        assert_refused(*rates, too_long)
        assert_refused(*rates, ",".join(["10"] * (MAX_N_LIST + 1)))
        assert_refused("audit", "--trials", str(MAX_TRIALS + 1))

    def test_caps_admit_benchmark_requests(self):
        code, out, _ = run_cli(
            "hamming", "--mode", "entanglement", "--p", "0.09", "--n-list", "4001"
        )
        assert code == 0 and out.count("\n") == 3
        assert 16 * 51 <= cli.MAX_SWEEP_ROWS and 200 <= MAX_TRIALS


THIRTY_DIGITS = "123456789012345678901234567890"
# Values bad for any number flag: argparse refuses "" and "x", and all of them for an
# integer flag; the library refuses the others.
NOT_NUMBERS = ["nan", "inf", "-inf", "1e400", "", "x"]
BAD_RANGES = [
    *NOT_NUMBERS, "0:1", "0:1:0.1:1", "x:1:0.1", "nan:1:0.1", "0:inf:0.1", "0:1:nan",
    "0:1:inf", "0:1:-inf", "0:1:1e400", "-0.1:1:0.1", "0:1.5:0.1", "0.5:0.4:0.1",
    "0:1:0", "0:1:-0.1", "0:1:1e-320", "0:1:1e-6", f"0:{THIRTY_DIGITS}:1",
]
NOT_CHOICES = ["", "x", "nan", "Quantum", THIRTY_DIGITS]
CAPACITY, AUDIT = ("capacity", "--p", "0.3"), ("audit", "--trials", "1")
# Every flag of the five commands: "command flag" -> (an accepted command line without
# the flag, or with it where the flag is required, and values bad for the flag).
CLI_FLAG_FUZZ = {
    "capacity --channel": (CAPACITY, NOT_CHOICES),
    "capacity --use": (CAPACITY, NOT_CHOICES),
    "capacity --p": (("capacity",), [*NOT_NUMBERS, "-0.1", "1.5", "-5e-324", THIRTY_DIGITS]),
    "capacity --tol": (CAPACITY, [*NOT_NUMBERS, "0", "-1e-3", "1e-17", f"-{THIRTY_DIGITS}"]),
    "sweep --channel": (("sweep",), NOT_CHOICES),
    "sweep --use": (("sweep",), NOT_CHOICES),
    "sweep --p-range": (("sweep",), BAD_RANGES),
    "sweep --q-range": (("sweep",), BAD_RANGES),
    "audit --trials": (
        ("audit",), [*NOT_NUMBERS, "0", "-1", "2.0", str(MAX_TRIALS + 1), THIRTY_DIGITS]
    ),
    "audit --seed": (AUDIT, [*NOT_NUMBERS, "-1", "1.0", "1e3", f"-{THIRTY_DIGITS}"]),
    "audit --tol": (AUDIT, [*NOT_NUMBERS, "0", "-1e-3", "-5e-324", f"-{THIRTY_DIGITS}"]),
    "hamming --mode": (("hamming", "--p", "0.1"), NOT_CHOICES),
    "hamming --p": (
        ("hamming", "--mode", "quantum"), [*NOT_NUMBERS, "0", "1", "-0.1", "1.5", THIRTY_DIGITS]
    ),
    "hamming --n": (
        ("hamming", "--mode", "quantum", "--k", "1", "--t", "1"),
        [*NOT_NUMBERS, "0", "-7", "7.0", str(MAX_BLOCK_LENGTH + 1), THIRTY_DIGITS],
    ),
    "hamming --k": (
        ("hamming", "--mode", "quantum", "--n", "7", "--t", "1"),
        [*NOT_NUMBERS, "0", "-1", "4.0", str(2 * MAX_BLOCK_LENGTH + 1), THIRTY_DIGITS],
    ),
    "hamming --t": (
        ("hamming", "--mode", "quantum", "--n", "7", "--k", "1"),
        [*NOT_NUMBERS, "-1", "8", "1.0", THIRTY_DIGITS],
    ),
    "hamming --n-list": (
        ("hamming", "--mode", "quantum", "--p", "0.1"),
        [*NOT_NUMBERS, "9", "-25", "25.0", "25,,50", "25,", ",".join(["25"] * (MAX_N_LIST + 1)),
         str(MAX_BLOCK_LENGTH + 1), THIRTY_DIGITS, "25,x"],
    ),
    "superdense --p": (("superdense",), [*NOT_NUMBERS, "-0.1", "1.5", THIRTY_DIGITS]),
    "superdense --threshold": (("superdense",), ["", "x", "nan", "1", THIRTY_DIGITS]),
}


class TestCliFuzz:
    """Every flag of the five commands, fed values bad for it, in process through
    ``cli.main``: each call exits 2 (argparse's SystemExit counted), prints nothing
    to stdout and no traceback, and returns within a second."""

    def test_every_flag_is_fuzzed(self):
        commands = next(
            action.choices
            for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            f"{command} {option}"
            for command, parser in commands.items()
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert flags == set(CLI_FLAG_FUZZ)

    @pytest.mark.parametrize("name", sorted(CLI_FLAG_FUZZ))
    def test_bad_values_are_refused_quietly(self, name):
        command, values = CLI_FLAG_FUZZ[name]
        flag = name.split()[1]
        for value in values:
            start = time.perf_counter()
            code, out, err = run_cli(*command, f"{flag}={value}")
            elapsed = time.perf_counter() - start
            assert (code, out) == (2, ""), (value, err)
            assert "Traceback" not in err and err, value
            assert elapsed < 1.0, (value, elapsed)


def _near_complete(residual: float) -> KrausChannel:
    """The qubit channel sqrt(1 + residual) I: sum K^dag K - I is ``residual`` times I,
    which ``KrausChannel`` accepts up to UNITARY_ATOL."""
    return KrausChannel((math.sqrt(1.0 + residual) * np.eye(2),))


class TestAcceptedChannelsRunEverywhere:
    """Every entry point should run a channel that ``KrausChannel`` accepted.  Two
    gaps are pinned strict, so that a fix shows up as XPASS:

    - a channel of residual r scales output norms by about 1 + r/2, and the output
      rows are checked normalized within NORM_ATOL (1e-12), so r = 1e-11 is
      refused with "state vector is not normalized (residual 5.000e-12, ...)";
    - the composite of two channels of residual r has residual about 2 r, so two
      channels at 0.9e-10 compose to 1.8e-10, above UNITARY_ATOL.
    """

    def test_the_channels_are_accepted(self):
        for residual in (1e-11, 0.9e-10):
            assert _near_complete(residual).env_dim == 1
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert run_channel(_near_complete(1e-11), rho).s_in > 0.0

    @pytest.mark.xfail(strict=True, raises=ValueError, reason="outputs checked at NORM_ATOL")
    @pytest.mark.parametrize("entry", ["inequality_slacks", "mixture_axiom_slacks", "run_state"])
    def test_runs_a_channel_at_residual_1e_11(self, entry):
        ch, rho = _near_complete(1e-11), DensityMatrix(np.diag([0.3, 0.7]))
        if entry == "inequality_slacks":
            inequality_slacks(ch, ch, rho, DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4])))
        elif entry == "mixture_axiom_slacks":
            mixture_axiom_slacks(ch, ch, rho, rho, 0.3)
        else:
            run_channel(ch, rho, return_state=True)

    @pytest.mark.xfail(strict=True, raises=ValueError, reason="the residuals add up")
    @pytest.mark.parametrize("compose", [chain, parallel], ids=["chain", "parallel"])
    def test_composes_two_channels_at_residual_0_9e_10(self, compose):
        compose(_near_complete(0.9e-10), _near_complete(0.9e-10))
