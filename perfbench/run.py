#!/usr/bin/env python3
"""Benchmark for vncap: three closed-loop workloads with checked responses.

Run from the repository root:

    python3 perfbench/run.py --workload simulated --seed 1 --seconds 30 --trace 0

One client issues the seeded requests of the workload in-process, one after
the other, through ``vncap.cli.main(argv)`` with stdout captured or through
public library calls, and checks every response against an independent
reference (``checks.py``).  It stops at the first block boundary after
``--seconds`` of wall time.  Between requests it times a fixed reference
kernel (``speed.py``) and reports every request's latency at the reference
host speed, so that the shared host's drifting speed moves the results less.
After the timed requests it issues the known-defect probes of
``workloads.py`` once each and reports them apart from ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
stream untraced for half the time and traced (``spans.py``) for the other
half, and prints the per-layer metrics.  Either way the last line of stdout
is one JSON object with the metrics that BENCHMARK.json lists; the lines
before it print every metric of README.md by name and unit, and the run
environment.  Full results, and the spans of a traced run, go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread unless the caller says otherwise: the single-threaded speed
# kernel of speed.py cannot see load on a second core that BLAS would use.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import vncap  # noqa: E402
import vncap.cli  # noqa: E402
from checks import Response, check  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, block_stream  # noqa: E402

SETUP_PROBES = 11
SETUP_BLOCKS = 64  # generated during set-up; later blocks come from the same seeded stream

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "points_per_s": ("1/s", "higher"),
    "capacity_p50_ms": ("ms", "lower"),
    "audit_trials_per_s": ("1/s", "higher"),
    "error_rate": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "host_speed": ("ratio", ""),
    "raw_latency_p50_ms": ("ms", "lower"),
    "raw_latency_p90_ms": ("ms", "lower"),
}


@dataclass
class Phase:
    """What one closed-loop pass over the request stream measured, request by request."""

    latencies: list[float] = field(default_factory=list)  # seconds, as timed
    mids: list[float] = field(default_factory=list)  # perf_counter at each request's midpoint
    kinds: list[str] = field(default_factory=list)
    block: list[int] = field(default_factory=list)
    rows: list[int] = field(default_factory=list)  # sweep CSV rows asked for
    trials: list[int] = field(default_factory=list)  # audit and axiom trials asked for
    failures: list[str] = field(default_factory=list)
    bad_valid: int = 0  # failures on well-formed requests
    blocks: int = 0
    evaluations: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    speed: SpeedProbe = field(default_factory=SpeedProbe)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def throughput(self) -> float:
        return self.attempted / sum(self.latencies)

    def scaled_latencies(self) -> np.ndarray:
        """Latencies at the reference host speed (see speed.py)."""
        scale = np.array([self.speed.scale(mid) for mid in self.mids])
        return np.array(self.latencies) * scale


def execute(req) -> Response:
    if req.kind == "axioms":
        return Response(0, "", vncap.audit_axioms(req.spec["seed"], req.spec["trials"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = vncap.cli.main(list(req.argv))
        except SystemExit as exc:  # argparse refuses bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
    return Response(code, out.getvalue())


def run_phase(blocks, seconds: float, tracer: Tracer | None = None) -> Phase:
    phase = Phase()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for block in blocks:
        if phase.blocks and time.perf_counter() - wall0 >= seconds:
            break
        for req in block:
            phase.speed.maybe_sample()
            span = tracer.begin_request(phase.attempted, req.kind) if tracer else None
            start = time.perf_counter()
            try:
                resp, error = execute(req), None
            except Exception as exc:  # a crash fails this request; the client goes on
                resp, error = None, f"{req.kind}: {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if tracer:
                tracer.end_request(span)
            if error is None:
                error = check(req, resp)
            phase.latencies.append(latency)
            phase.mids.append(start + latency / 2.0)
            phase.kinds.append(req.kind)
            phase.block.append(phase.blocks)
            phase.rows.append(len(req.spec["p"]) * len(req.spec["q"]) if req.kind == "sweep" else 0)
            phase.trials.append(req.spec["trials"] if req.kind in ("audit", "axioms") else 0)
            if error is not None:
                phase.failures.append(f"{' '.join(req.argv) or req.kind}: {error}")
                phase.bad_valid += req.kind != "invalid"
            elif req.kind == "capacity":
                phase.evaluations += int(resp.stdout.rsplit("evaluations: ", 1)[1].split()[0])
        phase.blocks += 1
    phase.speed.sample()
    phase.wall_s = time.perf_counter() - wall0
    phase.cpu_s = time.process_time() - cpu0
    return phase


def probe_known_defects() -> list[str]:
    """Issue the known-defect requests once each; return the failures (see workloads.py)."""
    failures = []
    for req in KNOWN_DEFECTS:
        error = check(req, execute(req))
        if error is not None:
            failures.append(f"{' '.join(req.argv)}: {error}")
    return failures


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to its requests being generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for probe in range(SETUP_PROBES + 1):  # the first probe only warms the bytecode cache
        spawned = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        if probe:
            samples.append(float(done.stdout.split()[-1]) - spawned)
    return statistics.median(samples)


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float | None]:
    raw = np.array(phase.latencies)
    lat = phase.scaled_latencies()
    kinds = np.array(phase.kinds)
    block = np.array(phase.block)

    def median_rate(amount: np.ndarray, mask: np.ndarray) -> float | None:
        """Median over blocks of amount per second of scaled request time, over requests in mask."""
        spent = np.bincount(block[mask], weights=lat[mask], minlength=phase.blocks)
        done = np.bincount(block[mask], weights=amount[mask], minlength=phase.blocks)
        rates = done[spent > 0.0] / spent[spent > 0.0]
        return float(np.median(rates)) if rates.size else None

    every = np.ones(lat.size, dtype=bool)
    audits = (kinds == "audit") | (kinds == "axioms")
    capacity = lat[kinds == "capacity"] * 1e3
    return {
        "setup_s": setup_s,
        "throughput_rps": median_rate(np.ones(lat.size), every),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "points_per_s": median_rate(np.array(phase.rows, dtype=float), kinds == "sweep"),
        "capacity_p50_ms": float(np.median(capacity)) if capacity.size else None,
        "audit_trials_per_s": median_rate(np.array(phase.trials, dtype=float), audits),
        "error_rate": len(phase.failures) / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_speed": NOMINAL_S / statistics.median(phase.speed.durations),
        "raw_latency_p50_ms": float(np.percentile(raw, 50)) * 1e3,
        "raw_latency_p90_ms": float(np.percentile(raw, 90)) * 1e3,
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics of the traced phase, each as (value, unit); None where no call happened."""
    spans = tracer.summary()
    requests = traced.attempted

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def mean(name, scale):
        return spans[name]["total_s"] / calls(name) * scale if calls(name) else None

    def us(name):
        return mean(name, 1e6), "us"

    def ms(name):
        return mean(name, 1e3), "ms"

    def per_request(count):
        return count / requests, "1/req"

    builds = calls("channel.dilation_from_kraus")
    run_calls = calls("channel.run_channel[kraus]") + calls("channel.run_channel[dilation]")
    capacity_solves = traced.kinds.count("capacity")
    solve_s = spans.get("analysis.maximize_scalar_on_unit_interval", {}).get("total_s", 0.0)
    module_self = {m: 0.0 for m in MODULES}
    request_s = 0.0
    for name, s in spans.items():
        module = name.split(".", 1)[0]
        if module in module_self:
            module_self[module] += s["self_s"]
        elif module == "bench":
            request_s += s["total_s"]
    linalg = tracer.linalg_calls
    metrics = {
        "channel.dilation_builds": per_request(builds),
        "channel.dilation_reuse": (len(tracer.dilation_keys) / builds if builds else None, "ratio"),
        "channel.run_channel_kraus_us": us("channel.run_channel[kraus]"),
        "channel.run_channel_dilation_us": us("channel.run_channel[dilation]"),
        "channel.run_channel_calls": per_request(run_calls),
        "channel.purify_us": us("channel.purify"),
        "channel.chain_us": us("channel.chain"),
        "channel.parallel_us": us("channel.parallel"),
        "channel.kraus_from_dilation_us": us("channel.kraus_from_dilation"),
        "qmat.density_constructions": per_request(calls("qmat.DensityMatrix")),
        "qmat.density_us": us("qmat.DensityMatrix"),
        "qmat.eigensolves": per_request(linalg["eigh"] + linalg["eigvalsh"]),
        "qmat.qr_calls": per_request(linalg["qr"]),
        "qmat.apply_unitary_us": us("qmat.apply_unitary"),
        "qmat.apply_unitary_calls": per_request(calls("qmat.apply_unitary")),
        "qmat.pure_subsystem_spectrum_us": us("qmat.pure_subsystem_spectrum"),
        "qmat.partial_trace_us": us("qmat.partial_trace"),
        "qmat.promote_unitary_us": us("qmat.promote_unitary"),
        "qmat.random_unitary_us": us("qmat.random_unitary"),
        "entropy.pure_subsystem_entropy_calls": per_request(calls("entropy.pure_subsystem_entropy")),
        "entropy.pure_subsystem_entropy_us": us("entropy.pure_subsystem_entropy"),
        "entropy.von_neumann_us": us("entropy.von_neumann_entropy"),
        "entropy.venn2_us": us("entropy.venn2"),
        "entropy.shannon_calls": per_request(calls("entropy.shannon_entropy")),
        "entropy.shannon_us": us("entropy.shannon_entropy"),
        "entropy.binary_entropy_calls": per_request(calls("entropy.binary_entropy")),
        "depolarizing.analytic_us": us("depolarizing.analytic_transcript"),
        "depolarizing.analytic_calls": per_request(calls("depolarizing.analytic_transcript")),
        "depolarizing.classical_closed_us": us("depolarizing.classical_use_transcript"),
        "depolarizing.classical_sim_us": us("depolarizing.classical_use_channel_simulation"),
        "depolarizing.superdense_ms": ms("depolarizing.superdense_scenario"),
        "analysis.evals_per_solve": (traced.evaluations / capacity_solves if capacity_solves else None, "count"),
        "analysis.eval_us": (solve_s / traced.evaluations * 1e6 if traced.evaluations else None, "us"),
        "analysis.audit_trial_ms": ms("analysis.inequality_slacks"),
        "analysis.axiom_trial_ms": ms("analysis.mixture_axiom_slacks"),
        "analysis.sphere_volume_ms": ms("analysis._sphere_volume"),
        "cli.self_ms": (module_self["cli"] / requests * 1e3, "ms"),
    }
    for module in MODULES:
        metrics[f"{module}.self_share"] = (module_self[module] / request_s, "ratio")
    metrics["proc.cpu_per_wall"] = (untraced.cpu_s / untraced.wall_s, "ratio")
    metrics["proc.trace_overhead"] = (traced.throughput() / untraced.throughput(), "ratio")
    return metrics


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded, as far as it tells."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)  # already loaded by numpy; this only gets a handle
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads and get_config:
                get_config.restype = ctypes.c_char_p
                info["blas_runtime"] = get_config().decode()
                info["blas_threads"] = get_threads()
                return info
    return info


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_openblas(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "src_lines": src_lines,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    stream = block_stream(args.workload, args.seed)
    first_blocks = list(itertools.islice(stream, SETUP_BLOCKS))
    if args.setup_probe:
        print(repr(time.time()))
        return 0
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    blocks = itertools.chain(first_blocks, stream)
    env = environment(args.workload, args.seed)

    if args.trace:
        untraced = run_phase(blocks, args.seconds / 2)
        tracer = Tracer(vncap)
        tracer.install()
        try:
            traced = run_phase(blocks, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases = (untraced, traced)
        metrics = per_layer(tracer, traced, untraced)
        listed = contract["per_layer"]
        title = "per-layer metrics (traced phase)"
    else:
        setup_s = measure_setup(args.workload, args.seed)
        phase = run_phase(blocks, args.seconds)
        phases = (phase,)
        metrics = {k: (v, END_TO_END[k][0]) for k, v in end_to_end(phase, setup_s).items()}
        listed = contract["end_to_end"]
        title = "end-to-end metrics"

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    defects = probe_known_defects()
    print(f"vncap benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"requests: {attempted} attempted, {len(failures)} failed, " + ", ".join(
        f"{p.blocks} blocks in {p.wall_s:.1f} s" for p in phases))
    if not args.trace:
        n = phases[0].attempted
        print(f"latency samples: {n} ({n - int(0.9 * n)} above the 90th percentile)")
    for failure in failures[:5]:
        print(f"failed: {failure}")
    print(f"known defects: {len(defects)} of {len(KNOWN_DEFECTS)} probes failed")
    for defect in defects:
        print(f"known defect: {defect}")
    print(title + ":")
    for name, (value, unit) in metrics.items():
        better = END_TO_END[name][1] if name in END_TO_END else ""
        print(f"  {name:40s} {_fmt(value):>12s} {unit:6s} {better}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(OUT_DIR / f"spans-{stem}.npz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "env": env,
        "attempted": attempted,
        "failures": failures,
        "known_defects": defects,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, indent=1))

    missing = [m["name"] for m in listed if metrics.get(m["name"], (None,))[0] is None]
    if missing:
        print(f"error: no value for {', '.join(missing)} on this workload", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not any(p.bad_valid for p in phases),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
