#!/usr/bin/env python3
"""Smoke test of the benchmark harness itself.

Run from the repository root:

    python3 perfbench/selftest.py

It gives every workload one short run in each mode and fails unless every
metric that README.md names is emitted, and unless the checker counts a
tampered sweep row and a wrong exit code as failures.  It takes about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from checks import Response, check  # noqa: E402
from run import END_TO_END, execute  # noqa: E402
from spans import MODULES  # noqa: E402
from workloads import WORKLOADS, Request, _sweep  # noqa: E402

PER_LAYER_NAMED = {
    "channel.dilation_builds", "channel.dilation_reuse", "channel.run_channel_kraus_us",
    "channel.run_channel_dilation_us", "channel.run_channel_calls", "channel.purify_us",
    "channel.chain_us", "channel.parallel_us", "channel.kraus_from_dilation_us",
    "qmat.density_constructions", "qmat.density_us", "qmat.eigensolves", "qmat.qr_calls", "qmat.apply_unitary_us",
    "qmat.apply_unitary_calls", "qmat.pure_subsystem_spectrum_us", "qmat.partial_trace_us",
    "qmat.promote_unitary_us", "qmat.random_unitary_us",
    "entropy.pure_subsystem_entropy_calls", "entropy.pure_subsystem_entropy_us",
    "entropy.von_neumann_us", "entropy.venn2_us", "entropy.shannon_calls", "entropy.shannon_us",
    "entropy.binary_entropy_calls",
    "depolarizing.analytic_us", "depolarizing.analytic_calls", "depolarizing.classical_closed_us",
    "depolarizing.classical_sim_us", "depolarizing.superdense_ms",
    "analysis.evals_per_solve", "analysis.eval_us", "analysis.audit_trial_ms",
    "analysis.axiom_trial_ms", "analysis.sphere_volume_ms",
    "cli.self_ms", "proc.cpu_per_wall", "proc.trace_overhead",
} | {f"{m}.self_share" for m in MODULES}


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def check_runs() -> None:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, named, listed in ((0, set(END_TO_END), "end_to_end"), (1, PER_LAYER_NAMED, "per_layer")):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            if done.returncode != 0:
                fail(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in contract[listed]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                fail(f"{workload} trace={trace}: emitted {got}, BENCHMARK.json lists {expected}")
            report = json.loads((BENCH_DIR / "out" / f"{workload}-seed7-trace{trace}.json").read_text())
            if set(report["metrics"]) != named:
                fail(f"{workload} trace={trace}: report metrics differ by {set(report['metrics']) ^ named}")
            for name in named:
                if name not in done.stdout:
                    fail(f"{workload} trace={trace}: {name} missing from the printed report")
            print(f"ok: {workload} trace={trace}: {result['attempted']} requests, {result['failed']} failed")


def check_checker() -> None:
    for channel in ("dephasing", "depolarizing"):
        req = _sweep(channel, "quantum", 0.3)
        resp = execute(req)
        if check(req, resp) is not None:
            fail(f"untampered {channel} sweep rejected: {check(req, resp)}")
        lines = resp.stdout.splitlines()
        cells = lines[5].split(",")
        cells[7] = repr(float(cells[7]) + 1e-6)  # fidelity, which no identity ties to the others
        tampered = Response(0, "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
        if check(req, tampered) is None:
            fail(f"tampered {channel} sweep row accepted")
    invalid = Request("invalid", ("capacity", "--p", "1.5"), {"exit": 2})
    if check(invalid, execute(invalid)) is not None:
        fail("correctly refused invalid request counted as a failure")
    if check(invalid, Response(0, "")) is None:
        fail("exit code 0 on an invalid request accepted")
    valid = _sweep("dephasing", "classical", 0.1)
    if check(valid, Response(2, execute(valid).stdout)) is None:
        fail("exit code 2 on a valid request accepted")
    print("ok: checker rejects a tampered sweep row and wrong exit codes")


if __name__ == "__main__":
    check_checker()
    check_runs()
    print("selftest passed")
