"""Command-line front end.

Subcommands: ``capacity``, ``sweep``, ``audit``, ``hamming``, ``superdense``.
All numeric output uses 12 significant digits with a dot decimal separator
and is deterministic (audits are seeded; ``VN_SEED`` overrides the default
seed, an explicit ``--seed`` beats both).  Exit codes: 0 success, 1 audit
violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, depolarizing
from .analysis import MAX_BLOCK_LENGTH  # noqa: F401  (the --n, --k and --n-list cap)
from .channel import run_channel
from .depolarizing import DepolParams
from .qmat import DensityMatrix, _unit_interval

DEFAULT_SEED = 42
DEFAULT_P_RANGE = "0:0.75:0.05"
DEFAULT_Q_RANGE = "0:1:0.02"
DEFAULT_N_LIST = "25,50,100,200"

# Work caps, well above every default and benchmark request (16 x 51 grids,
# blocks up to 4001, 200 trials).  At a cap a request runs under a minute on
# one x86-64 core.
MAX_SWEEP_ROWS = 100_000  # points in one --p-range/--q-range, and rows of one sweep
MAX_N_LIST = 16  # entries of --n-list
MAX_TRIALS = 10_000  # --trials

QUANTUM_HEADER = "p,q,S,S_prime,S_env,loss,I_Q,fidelity"
CLASSICAL_HEADER = "p,q,mutual,loss"


def _fmt(x: float) -> str:
    return "%.12g" % (0.0 if x == 0 else float(x))


def _cap(value: int, cap: int, flag: str) -> None:
    if value > cap:
        raise ValueError(f"{flag} {value} exceeds the cap of {cap}")


def _diag_qubit(q: float) -> DensityMatrix:
    return DensityMatrix(np.diag([q, 1.0 - q]).astype(np.complex128), (2,))


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
    if not 0.0 < step < math.inf:
        raise ValueError(f"{flag}: step must be positive and finite, got {step!r}")
    if start > stop:
        raise ValueError(f"{flag}: empty range {text!r}")
    steps = (stop - start) / step + 1e-9  # +inf when the step is too small for a float
    if not steps < MAX_SWEEP_ROWS:
        raise ValueError(f"{flag}: more than the cap of {MAX_SWEEP_ROWS} points")
    # start >= 0 and step > 0, so only the top can overshoot, by rounding
    return [min(1.0, start + i * step) for i in range(math.floor(steps) + 1)]


# Channel families: (channel, use) -> (row, closed_form).  row(p) returns the
# function q -> (S, S', S_e, L, I_Q, F_e) for quantum use, (mutual, loss) for
# classical use; capacity maximizes I_Q or mutual, the closed form's quantity.


def _quantum_columns(t) -> tuple[float, ...]:
    return (t.s_in, t.s_out, t.s_env, t.loss, t.mutual_entanglement, t.fidelity)


def _depolarizing_quantum(p: float):
    return lambda q: _quantum_columns(depolarizing.analytic_transcript(DepolParams(p, q)))


def _depolarizing_classical(p: float):
    return lambda q: depolarizing.classical_use_transcript(DepolParams(p, q))


def _dephasing_quantum(p: float):
    kraus = depolarizing.dephasing_kraus(p)
    return lambda q: _quantum_columns(run_channel(kraus, _diag_qubit(q)))


def _dephasing_classical(p: float):
    kraus = depolarizing.dephasing_kraus(p)
    return lambda q: depolarizing.classical_use_channel_simulation(kraus, q)


FAMILIES = {
    ("depolarizing", "quantum"): (_depolarizing_quantum, depolarizing.quantum_capacity),
    ("depolarizing", "classical"): (_depolarizing_classical, depolarizing.classical_capacity),
    ("dephasing", "quantum"): (_dephasing_quantum, depolarizing.dephasing_mutual),
    # dephasing is lossless for classical bits
    ("dephasing", "classical"): (_dephasing_classical, lambda p: 1.0),
}
OBJECTIVE_COLUMN = {"quantum": 4, "classical": 0}


def cmd_capacity(args) -> int:
    p = _unit_interval(args.p, "--p", slack=0.0)
    row, closed_form = FAMILIES[args.channel, args.use]
    at_q, column = row(p), OBJECTIVE_COLUMN[args.use]
    result = analysis.maximize_scalar_on_unit_interval(lambda q: at_q(q)[column], args.tol)
    closed = closed_form(p)
    print(f"channel: {args.channel}")
    print(f"use: {args.use}")
    print(f"p: {_fmt(p)}")
    print(f"capacity: {_fmt(result.value)}")
    print(f"argmax_q: {_fmt(result.argmax_q)}")
    print(f"closed_form: {_fmt(closed)}")
    print(f"evaluations: {result.evaluations}")
    if args.channel == "depolarizing" and p > 0.75:
        print("note: p exceeds 3/4, beyond the fully depolarizing point")
    return 0


def cmd_sweep(args) -> int:
    p_values = _parse_range(args.p_range, "--p-range")
    q_values = _parse_range(args.q_range, "--q-range")
    _cap(len(p_values) * len(q_values), MAX_SWEEP_ROWS, "sweep row count")
    row, _ = FAMILIES[args.channel, args.use]
    print(QUANTUM_HEADER if args.use == "quantum" else CLASSICAL_HEADER)
    for p in p_values:
        at_q = row(p)
        for q in q_values:
            print(",".join(_fmt(v) for v in (p, q, *at_q(q))))
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
    _cap(args.trials, MAX_TRIALS, "--trials")
    report = analysis.audit_inequalities(_resolve_seed(args), args.trials, args.tol)
    payload = {
        "trials": report.trials,
        "violations": [
            [key, params, slack] for key, params, slack in report.violations
        ],
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
            n_list = [int(v) for v in args.n_list.split(",") if v]
        except ValueError as exc:
            raise ValueError(f"--n-list: {exc}") from None
        _cap(len(n_list), MAX_N_LIST, "--n-list length")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vncap",
        description="Entropy transcripts, capacities, and bounds for noisy qubit channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="maximize mutual information over the input mix q")
    cap.add_argument("--channel", choices=("depolarizing", "dephasing"), default="depolarizing")
    cap.add_argument("--use", choices=("quantum", "classical"), default="quantum")
    cap.add_argument("--p", type=float, required=True, help="error probability")
    cap.add_argument("--tol", type=float, default=1e-10, help="optimizer tolerance on q")
    cap.set_defaults(func=cmd_capacity)

    sweep = sub.add_parser("sweep", help="emit a (p, q) grid of transcripts as CSV")
    sweep.add_argument("--channel", choices=("depolarizing", "dephasing"), default="depolarizing")
    sweep.add_argument("--use", choices=("quantum", "classical"), default="quantum")
    sweep.add_argument("--p-range", default=DEFAULT_P_RANGE, help="start:stop:step")
    sweep.add_argument("--q-range", default=DEFAULT_Q_RANGE, help="start:stop:step")
    sweep.set_defaults(func=cmd_sweep)

    audit = sub.add_parser("audit", help="randomized inequality audit, JSON report")
    audit.add_argument("--trials", type=int, default=200)
    audit.add_argument("--seed", type=int, default=None, help="defaults to VN_SEED or 42")
    audit.add_argument("--tol", type=float, default=1e-9)
    audit.set_defaults(func=cmd_audit)

    ham = sub.add_parser("hamming", help="sphere-packing verdicts and rate bounds")
    ham.add_argument("--mode", choices=("classical", "quantum", "entanglement"), required=True)
    ham.add_argument("--p", type=float, default=None, help="error probability for rates")
    ham.add_argument("--n", type=int, default=None)
    ham.add_argument("--k", type=int, default=None)
    ham.add_argument("--t", type=int, default=None)
    ham.add_argument("--n-list", default=DEFAULT_N_LIST, help="comma-separated block lengths")
    ham.set_defaults(func=cmd_hamming)

    sup = sub.add_parser("superdense", help="noisy superdense-coding report")
    sup.add_argument("--p", type=float, default=None, help="error probability")
    sup.add_argument("--threshold", action="store_true", help="print only the break-even p")
    sup.set_defaults(func=cmd_superdense)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every refused input, before anything reaches stdout
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
