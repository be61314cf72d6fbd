import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("VN_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "vncap", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def parse_report(stdout):
    pairs = {}
    for line in stdout.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            pairs[key] = value
    return pairs


class TestCapacityCommand:
    def test_noiseless_depolarizing(self):
        proc = run_cli("capacity", "--channel", "depolarizing", "--p", "0")
        assert proc.returncode == 0
        report = parse_report(proc.stdout)
        assert report["channel"] == "depolarizing"
        assert report["use"] == "quantum"
        assert float(report["capacity"]) == pytest.approx(2.0, abs=1e-9)
        assert float(report["argmax_q"]) == pytest.approx(0.5, abs=1e-6)
        assert float(report["closed_form"]) == pytest.approx(2.0, abs=1e-12)

    def test_fully_depolarizing(self):
        proc = run_cli("capacity", "--p", "0.75")
        assert proc.returncode == 0
        report = parse_report(proc.stdout)
        assert float(report["capacity"]) == pytest.approx(0.0, abs=1e-9)

    def test_reference_point(self):
        proc = run_cli("capacity", "--p", "0.1")
        report = parse_report(proc.stdout)
        assert float(report["capacity"]) == pytest.approx(
            1.372508156338603, abs=1e-9
        )
        assert float(report["closed_form"]) == pytest.approx(
            1.372508156338603, abs=1e-11
        )
        assert int(report["evaluations"]) > 100

    def test_classical_use(self):
        proc = run_cli("capacity", "--use", "classical", "--p", "0.1")
        report = parse_report(proc.stdout)
        assert float(report["capacity"]) == pytest.approx(
            0.6466406649785786, abs=1e-9
        )
        assert float(report["argmax_q"]) == pytest.approx(0.5, abs=1e-6)

    def test_dephasing_quantum(self):
        proc = run_cli("capacity", "--channel", "dephasing", "--p", "0.2")
        report = parse_report(proc.stdout)
        assert float(report["capacity"]) == pytest.approx(
            1.2780719051126377, abs=1e-9
        )
        assert float(report["closed_form"]) == pytest.approx(
            1.2780719051126377, abs=1e-11
        )

    def test_dephasing_classical_is_lossless(self):
        proc = run_cli(
            "capacity", "--channel", "dephasing", "--use", "classical", "--p", "0.3"
        )
        report = parse_report(proc.stdout)
        assert float(report["capacity"]) == pytest.approx(1.0, abs=1e-9)
        assert float(report["closed_form"]) == 1.0

    def test_beyond_full_depolarization_notes(self):
        proc = run_cli("capacity", "--p", "0.9")
        assert proc.returncode == 0
        assert "note:" in proc.stdout

    def test_rejects_out_of_range_p(self):
        proc = run_cli("capacity", "--p", "1.5")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_requires_p(self):
        proc = run_cli("capacity")
        assert proc.returncode == 2


class TestSweepCommand:
    def test_single_point_exact_row(self):
        proc = run_cli(
            "sweep", "--p-range", "0:0:0.05", "--q-range", "0.5:0.5:0.02"
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "p,q,S,S_prime,S_env,loss,I_Q,fidelity"
        assert lines[1] == "0,0.5,1,1,0,0,2,1"
        assert len(lines) == 2

    def test_default_grid_shape(self):
        proc = run_cli("sweep")
        lines = proc.stdout.splitlines()
        # 16 p values (0 to 0.75 by 0.05) x 51 q values (0 to 1 by 0.02).
        assert len(lines) == 16 * 51 + 1

    def test_bias_symmetry_in_rows(self):
        proc = run_cli("sweep", "--p-range", "0.3:0.3:0.1", "--q-range", "0:1:0.1")
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        by_q = {float(r[1]): float(r[6]) for r in rows}
        for q in (0.0, 0.1, 0.2, 0.3, 0.4):
            assert by_q[q] == pytest.approx(by_q[1.0 - q], abs=1e-10)

    def test_cells_are_print_parse_stable(self):
        proc = run_cli("sweep", "--p-range", "0:0.3:0.05", "--q-range", "0:1:0.25")
        for line in proc.stdout.splitlines()[1:]:
            for cell in line.split(","):
                assert "%.12g" % float(cell) == cell

    def test_classical_use_header_and_loss(self):
        proc = run_cli(
            "sweep",
            "--channel",
            "dephasing",
            "--use",
            "classical",
            "--p-range",
            "0.3:0.3:0.1",
            "--q-range",
            "0:1:0.2",
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "p,q,mutual,loss"
        for line in lines[1:]:
            loss = float(line.split(",")[3])
            assert loss == pytest.approx(0.0, abs=1e-9)

    def test_rejects_empty_range(self):
        proc = run_cli("sweep", "--p-range", "0.5:0.1:0.05")
        assert proc.returncode == 2
        assert "empty range" in proc.stderr

    def test_rejects_malformed_range(self):
        proc = run_cli("sweep", "--p-range", "0..5")
        assert proc.returncode == 2


class TestAuditCommand:
    def test_clean_json_report(self):
        proc = run_cli("audit", "--trials", "25")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["trials"] == 25
        assert payload["violations"] == []
        assert payload["max_negative_slack"] == 0.0

    def test_deterministic_per_seed(self):
        a = run_cli("audit", "--trials", "10", "--seed", "7")
        b = run_cli("audit", "--trials", "10", "--seed", "7")
        assert a.stdout == b.stdout

    def test_env_seed_matches_flag(self):
        via_flag = run_cli("audit", "--trials", "10", "--seed", "7")
        via_env = run_cli("audit", "--trials", "10", env_extra={"VN_SEED": "7"})
        assert via_flag.stdout == via_env.stdout

    def test_flag_beats_env_seed(self):
        plain = run_cli("audit", "--trials", "10", "--seed", "7")
        overridden = run_cli(
            "audit", "--trials", "10", "--seed", "7", env_extra={"VN_SEED": "9"}
        )
        assert plain.stdout == overridden.stdout

    def test_rejects_zero_trials(self):
        proc = run_cli("audit", "--trials", "0")
        assert proc.returncode == 2

    def test_rejects_non_integer_env_seed(self):
        proc = run_cli("audit", "--trials", "5", env_extra={"VN_SEED": "abc"})
        assert proc.returncode == 2
        assert "VN_SEED" in proc.stderr


class TestHammingCommand:
    def test_perfect_classical_code(self):
        proc = run_cli(
            "hamming", "--mode", "classical", "--n", "7", "--k", "4", "--t", "1"
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "mode: classical"
        assert lines[1] == "n=7 k=4 t=1 holds=yes slack=0"

    def test_failing_quantum_point(self):
        proc = run_cli(
            "hamming", "--mode", "quantum", "--n", "4", "--k", "1", "--t", "1"
        )
        line = proc.stdout.splitlines()[1]
        assert "holds=no" in line
        slack = float(line.split("slack=")[1])
        assert slack == pytest.approx(-0.700439718141092, abs=1e-11)

    def test_rate_table(self):
        proc = run_cli("hamming", "--mode", "entanglement", "--p", "0.1")
        lines = proc.stdout.splitlines()
        assert lines[0] == "mode: entanglement"
        assert float(lines[1].split(": ")[1]) == pytest.approx(
            1.3725081563386032, abs=1e-11
        )
        assert lines[2] == "n=25 t=2 k=38 rate=1.52"
        assert lines[-1] == "n=200 t=20 k=277 rate=1.385"

    def test_combined_query(self):
        proc = run_cli(
            "hamming",
            "--mode",
            "quantum",
            "--n",
            "5",
            "--k",
            "1",
            "--t",
            "1",
            "--p",
            "0.1",
            "--n-list",
            "50,100",
        )
        lines = proc.stdout.splitlines()
        assert lines[1] == "n=5 k=1 t=1 holds=yes slack=0"
        assert lines[2].startswith("rate_bound: ")
        assert len(lines) == 5

    def test_rejects_partial_finite_flags(self):
        proc = run_cli("hamming", "--mode", "classical", "--n", "7")
        assert proc.returncode == 2
        assert "together" in proc.stderr

    def test_rejects_no_work(self):
        proc = run_cli("hamming", "--mode", "quantum")
        assert proc.returncode == 2

    def test_rejects_unknown_mode(self):
        proc = run_cli("hamming", "--mode", "postal", "--p", "0.1")
        assert proc.returncode == 2


class TestSuperdenseCommand:
    def test_noiseless_point(self):
        proc = run_cli("superdense", "--p", "0")
        assert proc.returncode == 0
        report = parse_report(proc.stdout)
        assert float(report["conditional_mutual"]) == pytest.approx(2.0, abs=1e-9)
        assert float(report["kholevo_chi"]) == pytest.approx(2.0, abs=1e-9)
        assert float(report["threshold_p"]) == pytest.approx(
            0.18928962490463164, abs=1e-9
        )

    def test_noisy_point_agrees_across_diagnostics(self):
        proc = run_cli("superdense", "--p", "0.3")
        report = parse_report(proc.stdout)
        cond = float(report["conditional_mutual"])
        chi = float(report["kholevo_chi"])
        assert cond == pytest.approx(chi, abs=1e-9)
        assert cond == pytest.approx(0.6432203505529606, abs=1e-9)

    def test_threshold_only(self):
        proc = run_cli("superdense", "--threshold")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("threshold_p: ")

    def test_rejects_no_work(self):
        proc = run_cli("superdense")
        assert proc.returncode == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_no_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2
