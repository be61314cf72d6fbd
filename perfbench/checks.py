"""Reference answers for every benchmark request.

Each check returns ``None`` for a correct response or a one-line reason.
The references are the benchmark's own: closed forms for the dephasing
channel and classical use, exact big-integer sphere volumes, and a bisection
root for the superdense threshold.  Depolarizing quantum rows are compared
with ``analytic_transcript``, which the acceptance suite ties to the
simulated dilation.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from vncap import DepolParams, analytic_transcript

ATOL = 1e-9  # printed values carry 12 significant digits
GRID_ATOL = 1e-11
LOG2_3 = math.log2(3.0)


@dataclass
class Response:
    exit_code: int
    stdout: str
    value: object = None


def _h(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, with 0 log 0 = 0."""
    probs = np.clip(probs, 0.0, 1.0)
    logs = np.log2(np.where(probs > 0.0, probs, 1.0))
    return -(probs * logs).sum(axis=-1)


def h2(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return _h(np.stack([x, 1.0 - x], axis=-1))


def _binary_divergence(p: float, r: float) -> float:
    out = 0.0
    if p > 0.0:
        out += p * math.log2(p / r)
    if p < 1.0:
        out += (1.0 - p) * math.log2((1.0 - p) / (1.0 - r))
    return out


def dephasing_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Columns S, S', S_e, L, I_Q, F_e of the dephasing channel on diag(q, 1-q)."""
    s = h2(q)
    root = np.sqrt((1.0 - 2.0 * p) ** 2 + 4.0 * p * (1.0 - p) * (1.0 - 2.0 * q) ** 2)
    s_env = _h(np.stack([(1.0 + root) / 2.0, (1.0 - root) / 2.0], axis=-1))
    loss = s_env  # S' = S for a dephasing channel on a diagonal input
    fidelity = 1.0 - p + p * (1.0 - 2.0 * q) ** 2
    return np.stack([s, s, s_env, loss, 2.0 * s - loss, fidelity], axis=-1)


def depolarizing_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    rows = []
    for pi, qi in zip(p, q):
        t = analytic_transcript(DepolParams(float(pi), float(qi)))
        rows.append((t.s_in, t.s_out, t.s_env, t.loss, t.mutual_entanglement, t.fidelity))
    return np.array(rows)


def classical_rows(channel: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Columns mutual, loss for a q-biased classical bit sent through the channel."""
    if channel == "dephasing":
        return np.stack([h2(q), np.zeros_like(q)], axis=-1)  # Z noise leaves bits alone
    flip = 2.0 * p / 3.0
    joint = np.stack([flip * (1 - q), flip * q, (1 - flip) * (1 - q), (1 - flip) * q], axis=-1)
    loss = _h(joint) - h2(q + flip * (1.0 - 2.0 * q))
    return np.stack([h2(q) - loss, loss], axis=-1)


def capacity_closed_form(channel: str, use: str, p: float) -> float:
    if channel == "dephasing":
        return float(2.0 - h2(p)) if use == "quantum" else 1.0
    if use == "quantum":
        return float(2.0 - h2(p) - p * LOG2_3)
    return float(1.0 - h2(2.0 * p / 3.0))


def sphere_volume(n: int, t: int, syndromes: int) -> int:
    """sum_{i <= t} syndromes^i C(n, i), with the binomials built incrementally."""
    total, binom, weight = 1, 1, 1
    for i in range(1, t + 1):
        binom = binom * (n - i + 1) // i
        weight *= syndromes
        total += binom * weight
    return total


def k_max(n: int, t: int, mode: str) -> int:
    """Largest k with 2^k * volume <= 2^exponent (0 when no k fits)."""
    volume = sphere_volume(n, t, 1 if mode == "classical" else 3)
    exponent = 2 * n if mode == "entanglement" else n
    if volume > 1 << exponent:
        return 0
    k = exponent - volume.bit_length()
    return k + 1 if volume << (k + 1) <= 1 << exponent else k


@functools.cache
def superdense_threshold() -> float:
    """The p in [0, 3/4] where 2 - H2(p) - p log2 3 = 1, by bisection to machine precision."""
    lo, hi = 0.0, 0.75
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if capacity_closed_form("depolarizing", "quantum", mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _close(a: float, b: float, atol: float = ATOL) -> bool:
    return abs(a - b) <= atol


def check_sweep(spec: dict, out: str) -> str | None:
    lines = out.splitlines()
    quantum = spec["use"] == "quantum"
    header = "p,q,S,S_prime,S_env,loss,I_Q,fidelity" if quantum else "p,q,mutual,loss"
    if not lines or lines[0] != header:
        return "sweep: wrong header"
    p_grid, q_grid = np.meshgrid(spec["p"], spec["q"], indexing="ij")
    p_grid, q_grid = p_grid.ravel(), q_grid.ravel()
    try:
        table = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    except ValueError:
        return "sweep: unparsable row"
    if table.shape != (p_grid.size, 4 + 4 * quantum):
        return f"sweep: table shape {table.shape}, expected {(p_grid.size, 4 + 4 * quantum)}"
    if np.abs(table[:, 0] - p_grid).max() > GRID_ATOL or np.abs(table[:, 1] - q_grid).max() > GRID_ATOL:
        return "sweep: rows off the requested grid"
    if quantum:
        ref = (dephasing_rows if spec["channel"] == "dephasing" else depolarizing_rows)(p_grid, q_grid)
        s, s_out, s_env, loss, mutual = (table[:, j] for j in range(2, 7))
        residual = max(
            np.abs(loss - (s_env + s - s_out)).max(), np.abs(mutual - (2.0 * s - loss)).max()
        )
    else:
        ref = classical_rows(spec["channel"], p_grid, q_grid)
        residual = np.abs(table[:, 2] + table[:, 3] - h2(q_grid)).max()
    if residual > ATOL:
        return f"sweep: transcript identity residual {residual:.3e}"
    err = np.abs(table[:, 2:] - ref).max()
    if not err <= ATOL:
        return f"sweep: max deviation {err:.3e} from the reference"
    return None


def check_capacity(spec: dict, out: str) -> str | None:
    f = _fields(out)
    try:
        p, value, closed = float(f["p"]), float(f["capacity"]), float(f["closed_form"])
        argmax, evals = float(f["argmax_q"]), int(f["evaluations"])
    except (KeyError, ValueError):
        return "capacity: missing or unparsable field"
    if f.get("channel") != spec["channel"] or f.get("use") != spec["use"]:
        return "capacity: wrong channel or use echoed"
    if not _close(p, spec["p"], GRID_ATOL):
        return f"capacity: p echoed as {p!r}"
    if not _close(value, closed):
        return f"capacity: {value!r} differs from its closed form {closed!r}"
    if not _close(closed, capacity_closed_form(spec["channel"], spec["use"], spec["p"])):
        return f"capacity: closed form {closed!r} is wrong"
    if not (0.0 <= argmax <= 1.0 and evals >= 101):
        return "capacity: argmax or evaluation count out of range"
    return None


def check_superdense(spec: dict, out: str) -> str | None:
    f = _fields(out)
    try:
        values = [float(f[k]) for k in ("p", "conditional_mutual", "kholevo_chi", "threshold_p")]
    except (KeyError, ValueError):
        return "superdense: missing or unparsable field"
    p, conditional, chi, threshold = values
    expected = capacity_closed_form("depolarizing", "quantum", spec["p"])
    if not (_close(p, spec["p"], GRID_ATOL) and _close(conditional, expected) and _close(chi, expected)):
        return "superdense: conditional mutual or Kholevo chi off 2 - H2(p) - p log2 3"
    if not _close(threshold, superdense_threshold()):
        return f"superdense: threshold {threshold!r}"
    return None


def check_hamming(spec: dict, out: str) -> str | None:
    lines = out.splitlines()
    mode, p = spec["mode"], spec["p"]
    if not lines or lines[0] != f"mode: {mode}":
        return "hamming: wrong mode line"
    rest = lines[1:]
    if "finite" in spec:
        n, k, t = spec["finite"]
        volume = sphere_volume(n, t, 1 if mode == "classical" else 3)
        exponent = 2 * n if mode == "entanglement" else n
        holds = "yes" if volume << k <= 1 << exponent else "no"
        head = f"n={n} k={k} t={t} holds={holds} slack="
        if not rest or not rest[0].startswith(head):
            return "hamming: wrong finite verdict"
        if not _close(float(rest[0][len(head):]), exponent - k - math.log2(volume)):
            return "hamming: wrong finite slack"
        rest = rest[1:]
    reference = _binary_divergence(p, 0.5 if mode == "classical" else 0.75)
    if mode == "quantum":
        reference -= 1.0
    if not rest or not rest[0].startswith("rate_bound: "):
        return "hamming: missing rate bound"
    if not _close(float(rest[0][len("rate_bound: "):]), reference):
        return "hamming: wrong rate bound"
    rows = rest[1:]
    if len(rows) != len(spec["n_list"]):
        return "hamming: wrong number of rows"
    for row, n in zip(rows, spec["n_list"]):
        t = math.floor(p * n)
        k = k_max(n, t, mode)
        head = f"n={n} t={t} k={k} rate="
        if not row.startswith(head) or not _close(float(row[len(head):]), k / n):
            return f"hamming: row {row!r}, expected k={k}"
    return None


def check_audit(spec: dict, out: str) -> str | None:
    try:
        report = json.loads(out)
    except ValueError:
        return "audit: output is not JSON"
    if report.get("trials") != spec["trials"] or report.get("violations") != []:
        return "audit: wrong trial count or violations reported"
    return None


def check(req, resp: Response) -> str | None:
    """``None`` if the response to ``req`` is correct, else the reason it is not."""
    expected_exit = req.spec.get("exit", 0)
    if resp.exit_code != expected_exit:
        return f"{req.kind}: exit code {resp.exit_code}, expected {expected_exit}"
    if req.kind == "invalid":
        return None
    if req.kind == "axioms":
        report = resp.value
        if report.trials != req.spec["trials"] or report.violations:
            return "axioms: wrong trial count or violations reported"
        return None
    checker = {
        "sweep": check_sweep,
        "capacity": check_capacity,
        "superdense": check_superdense,
        "hamming": check_hamming,
        "audit": check_audit,
    }[req.kind]
    return checker(req.spec, resp.stdout)
