"""Command-line front end.

Subcommands: ``capacity``, ``sweep``, ``audit``, ``hamming``, ``superdense``.
Text output prints every number with 12 significant digits and a dot decimal
separator; ``audit``'s JSON prints its numbers at full precision.  All output
is deterministic (audits are seeded; ``VN_SEED`` overrides the default seed,
an explicit ``--seed`` beats both).  Exit codes: 0 success, 1 audit
violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, depolarizing
from .analysis import AUDIT_TOL, CAPACITY_TOL
from .channel import STACK_ROWS, ChannelTranscript, _diagonal_chunk, run_channel
from .depolarizing import DepolParams
from .qmat import DensityMatrix, _inside, _unit_interval

DEFAULT_SEED = 42
DEFAULT_P_RANGE = "0:0.75:0.05"
DEFAULT_Q_RANGE = "0:1:0.02"
DEFAULT_N_LIST = "25,50,100,200"
_NUMBER = "%.12g"  # every number of the text output: 12 significant digits

# The one CLI-only work cap, well above every default and benchmark request
# (16 x 51 grids); the library has no sweep.  At the cap a sweep runs under a
# minute on one x86-64 core.
MAX_SWEEP_ROWS = 100_000  # points in one --p-range/--q-range, and rows of one sweep


def _texts(values: np.ndarray) -> list[str]:
    """The text of each float in ``values``: ``_NUMBER``, -0 as 0, by one ``%``."""
    values = values + 0.0  # -0.0 + 0.0 is 0.0
    return ("\n".join([_NUMBER] * len(values)) % tuple(values.tolist())).split("\n")


def _fmt(x: float) -> str:
    """The text of one number, as ``_texts`` gives it."""
    return _NUMBER % (x + 0.0)


def _csv_chunks(table: np.ndarray):
    """The CSV text of ``table``, one string per chunk of STACK_ROWS rows.

    A chunk formats each of its distinct values once, by ``_texts``, and gathers
    the texts through the inverse index: a sweep repeats each p and q on many
    rows, so a default grid holds about a third as many distinct values as cells.
    """
    for i in range(0, len(table), STACK_ROWS):
        chunk = table[i : i + STACK_ROWS]
        values, inverse = np.unique(chunk, return_inverse=True)  # -0.0 and 0.0 are one value
        # flat, whatever shape this numpy gives the axis=None inverse; one list, no list per row
        cells = np.array(_texts(values), dtype=object)[inverse.ravel()].tolist()
        yield "\n".join(map(",".join, zip(*[iter(cells)] * chunk.shape[1])))


def _parse_range(text: str, flag: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    start = _unit_interval(start, f"{flag} start", slack=0.0)
    stop = _unit_interval(stop, f"{flag} stop", slack=0.0)
    step = _inside(step, f"{flag} step", 0.0, math.inf)
    if start > stop:
        raise ValueError(f"{flag}: empty range {text!r}")
    steps = (stop - start) / step + 1e-9  # +inf when the step is too small for a float
    if not steps < MAX_SWEEP_ROWS:
        raise ValueError(f"{flag}: more than the cap of {MAX_SWEEP_ROWS} points")
    # start >= 0 and step > 0, so only the top can overshoot, by rounding
    return [min(1.0, start + i * step) for i in range(math.floor(steps) + 1)]


# Uses: use -> (sweep CSV header, the column of a row that capacity maximizes).
USES = {
    "quantum": ("p,q,S,S_prime,S_env,loss,I_Q,fidelity", 4),  # I_Q
    "classical": ("p,q,mutual,loss", 0),  # mutual
}

# Channel families: (channel, use) -> (point, rows, closed_form, rows_at).
# point(p, q) is the capacity objective at one (p, q): (S, S', S_e, L, I_Q, F_e)
# for quantum use, (mutual, loss) for classical use.  rows(p, qs) gives those
# columns as arrays over aligned p and q arrays, or over a q list at one p, from
# the array closed forms and the stacked kernels; closed_form(p) is the capacity's.
# rows_at(p), set for the dephasing pair, whose point runs a kernel, is rows bound
# to one p by ``depolarizing._dephasing_rows``, which checks p and builds and checks
# its branch table once (for quantum use, as the inner lambda's default argument).
# Its columns are rows' own, bit for bit: the quantum ones come from
# ``ChannelTranscript.from_entropies``, the one place L and I are computed.
# capacity binds it once per solve and runs its grid and look-ahead steps on it.
# The depolarizing pair's grid runs on rows and its steps on the scalar closed
# forms, which cost a tenth of a one-row call.
# point evaluates the refined midpoint either way: for dephasing classical use the
# one-point call of its rows, for quantum use run_channel on a DensityMatrix, the
# one DensityMatrix that a `simulated` benchmark request builds and perfbench's
# listed qmat.density_us times.  Every entry looks its function up on
# ``depolarizing`` at call time, rows_at once per solve, so a wrapper installed
# there (perfbench's tracer, a test's monkeypatch) sees the call.


def _quantum_columns(t) -> tuple:
    return (t.s_in, t.s_out, t.s_env, t.loss, t.mutual_entanglement, t.fidelity)


FAMILIES = {
    ("depolarizing", "quantum"): (
        lambda p, q: _quantum_columns(depolarizing.analytic_transcript(DepolParams(p, q))),
        lambda p, qs: _quantum_columns(depolarizing.analytic_transcript_rows(p, qs)),
        lambda p: depolarizing.quantum_capacity(p),
        None,
    ),
    ("depolarizing", "classical"): (
        lambda p, q: depolarizing.classical_use_transcript(DepolParams(p, q)),
        lambda p, qs: depolarizing.classical_use_transcript_rows(p, qs),
        lambda p: depolarizing.classical_capacity(p),
        None,
    ),
    ("dephasing", "quantum"): (
        lambda p, q: _quantum_columns(
            run_channel(depolarizing.dephasing_kraus(p), DensityMatrix(np.diag([q, 1.0 - q])))
        ),
        lambda p, qs: _quantum_columns(depolarizing.dephasing_transcript_rows(p, qs)),
        lambda p: depolarizing.dephasing_mutual(p),
        lambda p: lambda qs, rows=depolarizing._dephasing_rows(p, _diagonal_chunk): (
            _quantum_columns(ChannelTranscript.from_entropies(*rows(qs)))
        ),
    ),
    ("dephasing", "classical"): (
        lambda p, q: [c[0] for c in depolarizing.dephasing_classical_rows(p, (q,))],
        lambda p, qs: depolarizing.dephasing_classical_rows(p, qs),
        lambda p: 1.0,  # dephasing is lossless for classical bits
        lambda p: depolarizing._dephasing_rows(p, depolarizing._classical_chunk),
    ),
}


def cmd_capacity(args) -> int:
    p = _unit_interval(args.p, "--p", slack=0.0)
    point, rows, closed_form, rows_at = FAMILIES[args.channel, args.use]
    column = USES[args.use][1]
    at_p = functools.partial(rows, p) if rows_at is None else rows_at(p)
    result = analysis.maximize_scalar_on_unit_interval(
        lambda q: point(p, q)[column],
        args.tol,
        rows=lambda qs: at_p(qs)[column],
        lookahead=rows_at is not None,
    )
    print(f"channel: {args.channel}")
    print(f"use: {args.use}")
    print(f"p: {_fmt(p)}")
    print(f"capacity: {_fmt(result.value)}")
    print(f"argmax_q: {_fmt(result.argmax_q)}")
    print(f"closed_form: {_fmt(closed_form(p))}")
    print(f"evaluations: {result.evaluations}")
    if args.channel == "depolarizing" and p > 0.75:
        print("note: p exceeds 3/4, beyond the fully depolarizing point")
    return 0


def cmd_sweep(args) -> int:
    p_values = _parse_range(args.p_range, "--p-range")
    q_values = _parse_range(args.q_range, "--q-range")
    rows = len(p_values) * len(q_values)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep row count {rows} exceeds the cap of {MAX_SWEEP_ROWS}")
    ps = np.repeat(p_values, len(q_values))  # the grid p-major, q fast, as printed
    qs = np.tile(q_values, len(p_values))
    table = np.column_stack((ps, qs, *FAMILIES[args.channel, args.use][1](ps, qs)))
    print(USES[args.use][0])
    for text in _csv_chunks(table):  # the text of one chunk at a time, as _fmt prints
        print(text)
    return 0


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("VN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"VN_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def cmd_audit(args) -> int:
    report = analysis.audit_inequalities(_resolve_seed(args), args.trials, args.tol)
    payload = {
        "trials": report.trials,
        "violations": report.violations,  # tuples encode as JSON arrays
        "max_negative_slack": report.max_negative_slack,
    }
    print(json.dumps(payload))
    return 1 if report.violations else 0


def cmd_hamming(args) -> int:
    finite_flags = (args.n, args.k, args.t)
    have_finite = any(v is not None for v in finite_flags)
    if have_finite and any(v is None for v in finite_flags):
        raise ValueError("--n, --k and --t must be given together")
    if not have_finite and args.p is None:
        raise ValueError("provide --p for rates and/or --n/--k/--t for a finite check")
    lines = [f"mode: {args.mode}"]
    if have_finite:
        query = analysis.HammingQuery(args.n, args.k, args.t, args.mode)
        holds, slack = analysis.hamming_holds(query)
        verdict = "yes" if holds else "no"
        lines.append(f"n={args.n} k={args.k} t={args.t} holds={verdict} slack={_fmt(slack)}")
    if args.p is not None:
        p = _unit_interval(args.p, "--p", slack=0.0)
        try:
            n_list = [int(v) for v in args.n_list.split(",")]  # an empty entry raises
        except ValueError as exc:
            raise ValueError(f"--n-list: {exc}") from None
        rows = analysis.asymptotic_consistency(p, n_list, args.mode)
        lines.append(f"rate_bound: {_fmt(analysis.rate_bound(p, args.mode))}")
        lines += [f"n={row.n} t={row.t} k={row.k_max} rate={_fmt(row.rate)}" for row in rows]
    print("\n".join(lines))
    return 0


def cmd_superdense(args) -> int:
    if args.p is None and not args.threshold:
        raise ValueError("provide --p and/or --threshold")
    if args.p is not None:
        p = _unit_interval(args.p, "--p", slack=0.0)
        report = depolarizing.superdense_scenario(p)
        print(f"p: {_fmt(p)}")
        print(f"conditional_mutual: {_fmt(report.conditional_mutual)}")
        print(f"kholevo_chi: {_fmt(report.kholevo_chi)}")
    print(f"threshold_p: {_fmt(depolarizing.superdense_threshold())}")
    return 0


@functools.cache  # built on the first main call; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vncap",
        description="Entropy transcripts, capacities, and bounds for noisy qubit channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    channel_use = argparse.ArgumentParser(add_help=False)  # shared by capacity and sweep
    channels = tuple(dict.fromkeys(channel for channel, _ in FAMILIES))
    channel_use.add_argument("--channel", choices=channels, default="depolarizing")
    channel_use.add_argument("--use", choices=tuple(USES), default="quantum")

    cap = sub.add_parser(
        "capacity", parents=[channel_use], help="maximize mutual information over the input mix q"
    )
    cap.add_argument("--p", type=float, required=True, help="error probability")
    cap.add_argument("--tol", type=float, default=CAPACITY_TOL, help="optimizer tolerance on q")

    sweep = sub.add_parser(
        "sweep", parents=[channel_use], help="emit a (p, q) grid of transcripts as CSV"
    )
    sweep.add_argument("--p-range", default=DEFAULT_P_RANGE, help="start:stop:step")
    sweep.add_argument("--q-range", default=DEFAULT_Q_RANGE, help="start:stop:step")

    audit = sub.add_parser("audit", help="randomized inequality audit, JSON report")
    audit.add_argument("--trials", type=int, default=200)
    audit.add_argument("--seed", type=int, default=None, help="defaults to VN_SEED or 42")
    audit.add_argument("--tol", type=float, default=AUDIT_TOL)

    ham = sub.add_parser("hamming", help="sphere-packing verdicts and rate bounds")
    ham.add_argument("--mode", choices=tuple(analysis.MODES), required=True)
    ham.add_argument("--p", type=float, default=None, help="error probability for rates")
    ham.add_argument("--n", type=int, default=None)
    ham.add_argument("--k", type=int, default=None)
    ham.add_argument("--t", type=int, default=None)
    ham.add_argument("--n-list", default=DEFAULT_N_LIST, help="comma-separated block lengths")

    sup = sub.add_parser("superdense", help="noisy superdense-coding report")
    sup.add_argument("--p", type=float, default=None, help="error probability")
    sup.add_argument("--threshold", action="store_true", help="print only the break-even p")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up per call: the cached parser holds no command functions
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:  # every refused input, before anything reaches stdout
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
