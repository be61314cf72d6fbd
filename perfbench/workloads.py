"""Seeded request streams for the three benchmark workloads.

A workload is an endless stream of blocks.  Every block of a workload has the
same composition of request kinds; the seed picks the order inside the block
and every numeric parameter.  A complete block therefore costs about the same
whatever the seed, and the run always ends on a block boundary, so the
end-to-end medians depend on the program and not on the seed.

The composition also places the median and the 90th-percentile latency in
the middle of one request class each (see README.md), because a percentile
that falls on the jump between two classes of different cost swings from run
to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("simulated", "closed-form", "audit")

P_STEP = 0.05
Q_STEP = 0.02
DEFAULT_P_GRID = tuple(i * P_STEP for i in range(16))  # --p-range 0:0.75:0.05
DEFAULT_Q_GRID = tuple(i * Q_STEP for i in range(51))  # --q-range 0:1:0.02
SUB_RANGE_POINTS = 4
DEFAULT_AUDIT_TRIALS = 200
INVALID_KINDS = ("p_out_of_range", "bad_p_range", "short_n_list")
HAMMING_MODES = ("classical", "quantum", "entanglement")


@dataclass
class Request:
    """One client request: CLI arguments, or a library call when ``argv`` is empty.

    ``spec`` holds what the checker needs to build the reference answer.
    """

    kind: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict)


def _sweep(channel: str, use: str, p_start: float | None = None) -> Request:
    argv = ["sweep", "--channel", channel, "--use", use]
    if p_start is None:
        p_grid = DEFAULT_P_GRID
    else:
        stop = p_start + (SUB_RANGE_POINTS - 1) * P_STEP
        argv += ["--p-range", f"{p_start:.2f}:{stop:.2f}:{P_STEP}"]
        p_grid = tuple(p_start + i * P_STEP for i in range(SUB_RANGE_POINTS))
    return Request("sweep", tuple(argv), {"channel": channel, "use": use, "p": p_grid, "q": DEFAULT_Q_GRID})


def _sub_sweep(rng: np.random.Generator, channel: str, use: str) -> Request:
    # start in {0.00, ..., 0.60} so the four p values stay inside [0, 0.75]
    return _sweep(channel, use, int(rng.integers(0, 61)) / 100.0)


def _capacity(rng: np.random.Generator, channel: str, use: str) -> Request:
    p = float(rng.uniform(0.0, 0.75))
    argv = ("capacity", "--channel", channel, "--use", use, "--p", repr(p), "--tol", "1e-10")
    return Request("capacity", argv, {"channel": channel, "use": use, "p": p})


def _superdense(rng: np.random.Generator) -> Request:
    p = float(rng.uniform(0.0, 0.75))
    return Request("superdense", ("superdense", "--p", repr(p)), {"p": p})


def _hamming(rng: np.random.Generator, mode: str, finite: bool) -> Request:
    # t = floor(p n) sets the cost of the big-integer sphere volume; p in
    # [0.08, 0.10] with n up to about 4000 keeps these requests between the
    # sub-range and full-grid sweeps in latency.
    p = float(rng.uniform(0.08, 0.10))
    n_list = [
        int(rng.integers(10, 100)),
        int(rng.integers(100, 500)),
        int(rng.integers(500, 2000)),
        int(rng.integers(3600, 4001)),
    ]
    argv = ["hamming", "--mode", mode, "--p", repr(p), "--n-list", ",".join(map(str, n_list))]
    spec = {"mode": mode, "p": p, "n_list": n_list}
    if finite:
        n = int(rng.integers(50, 400))
        k, t = int(rng.integers(1, n)), int(rng.integers(0, n // 10))
        argv += ["--n", str(n), "--k", str(k), "--t", str(t)]
        spec["finite"] = (n, k, t)
    return Request("hamming", tuple(argv), spec)


def _invalid(rng: np.random.Generator, kind: str) -> Request:
    """A request the CLI must refuse with exit code 2."""
    if kind == "p_out_of_range":
        argv = ("capacity", "--p", repr(float(1.0 + rng.uniform(0.01, 1.0))))
    elif kind == "bad_p_range":
        a = int(rng.integers(0, 50)) / 100.0
        argv = ("sweep", "--p-range", f"{a:.2f}:{a + 0.2:.2f}")
    else:  # short_n_list
        n_list = [int(rng.integers(1, 10)), int(rng.integers(100, 400))]
        rng.shuffle(n_list)
        mode = HAMMING_MODES[int(rng.integers(0, 3))]
        argv = ("hamming", "--mode", mode, "--p", "0.1", "--n-list", ",".join(map(str, n_list)))
    return Request("invalid", argv, {"invalid": kind, "exit": 2})


# Requests the CLI must refuse with exit code 2 but accepts at this commit
# (``--p nan`` passes every range check).  A workload must not fail, so they
# are not in the timed stream; every run issues each of them once after its
# requests and reports how many still fail.  Once the CLI refuses them, that
# count is 0.
KNOWN_DEFECTS = tuple(
    Request("invalid", argv, {"invalid": "nan_p", "exit": 2})
    for argv in (
        ("capacity", "--use", "quantum", "--p", "nan"),
        ("capacity", "--use", "classical", "--p", "nan"),
        ("superdense", "--p", "nan"),
    )
)


def _audit(rng: np.random.Generator, trials: int | None) -> Request:
    seed = int(rng.integers(0, 2**31))
    argv = ["audit", "--seed", str(seed)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    return Request("audit", tuple(argv), {"trials": trials or DEFAULT_AUDIT_TRIALS})


def _axioms(rng: np.random.Generator, lo: int, hi: int) -> Request:
    return Request("axioms", (), {"seed": int(rng.integers(0, 2**31)), "trials": int(rng.integers(lo, hi + 1))})


def _simulated_block(rng: np.random.Generator, index: int) -> list[Request]:
    # Latency classes, cheapest first: capacity (8 of 20), sub-range sweeps
    # (8; the median sits in the quantum ones), full grids (1 quantum, then
    # 3 classical, which hold the 90th percentile).
    reqs = []
    for use in ("quantum", "classical"):
        reqs += [_capacity(rng, "dephasing", use) for _ in range(4)]
        reqs += [_sub_sweep(rng, "dephasing", use) for _ in range(4)]
    reqs += [_sweep("dephasing", "quantum")] + [_sweep("dephasing", "classical") for _ in range(3)]
    return reqs


def _closed_form_block(rng: np.random.Generator, index: int, invalid_order: list[str]) -> list[Request]:
    # 1 invalid (5%), 3 superdense, 4 capacity, 4 sub-range sweeps (median),
    # 4 hamming, 4 full grids whose 3 quantum ones hold the 90th percentile.
    reqs = [_invalid(rng, invalid_order[index % len(INVALID_KINDS)])]
    reqs += [_superdense(rng) for _ in range(3)]
    reqs += [_capacity(rng, "depolarizing", use) for use in ("quantum", "quantum", "classical", "classical")]
    reqs += [_sub_sweep(rng, "depolarizing", use) for use in ("classical", "quantum", "quantum", "quantum")]
    modes = list(HAMMING_MODES) + [HAMMING_MODES[index % 3]]
    reqs += [_hamming(rng, mode, finite=bool(i % 2)) for i, mode in enumerate(modes)]
    reqs += [_sweep("depolarizing", use) for use in ("classical", "quantum", "quantum", "quantum")]
    return reqs


def _audit_block(rng: np.random.Generator, index: int) -> list[Request]:
    # 4 short axiom audits, 2 mid-size inequality audits (median), 2 longer
    # axiom audits, 2 default 200-trial inequality audits (90th percentile).
    # Trial counts vary only a little, so that a class keeps its latency band.
    reqs = [_axioms(rng, 7, 9) for _ in range(4)]
    reqs += [_audit(rng, int(rng.integers(22, 25))) for _ in range(2)]
    reqs += [_axioms(rng, 44, 46) for _ in range(2)]
    reqs += [_audit(rng, None) for _ in range(2)]
    return reqs


def block_stream(workload: str, seed: int):
    """Endless, deterministic stream of request blocks for ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    invalid_order: list[str] = []
    for index in itertools.count():
        if workload == "simulated":
            block = _simulated_block(rng, index)
        elif workload == "closed-form":
            if index % len(INVALID_KINDS) == 0:
                # every invalid kind once per three blocks, in a seeded order
                invalid_order = [INVALID_KINDS[i] for i in rng.permutation(len(INVALID_KINDS))]
            block = _closed_form_block(rng, index, invalid_order)
        else:
            block = _audit_block(rng, index)
        order = rng.permutation(len(block))
        yield [block[i] for i in order]
