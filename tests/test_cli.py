import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vncap import analysis, channel, cli, depolarizing, entropy, qmat

from reference import per_chunk_csv, per_p_sweep

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


FINE_GRID = ("--p-range", "0:0.75:0.01", "--q-range", "0:1:0.01")  # 76 x 101 = 7,676 rows
FAMILY_KEYS = sorted(cli.FAMILIES)
FAMILY_IDS = ["-".join(key) for key in FAMILY_KEYS]


def _grid(p_range: str, q_range: str):
    """The parsed p and q lists, and the p-major grid as aligned (ps, qs) arrays."""
    p_values = cli._parse_range(p_range, "--p-range")
    q_values = cli._parse_range(q_range, "--q-range")
    grid = np.repeat(p_values, len(q_values)), np.tile(q_values, len(p_values))
    return p_values, q_values, grid


# family -> the ``depolarizing`` functions behind its point, rows and closed form.
CALL_TIME_FUNCTIONS = {
    ("depolarizing", "quantum"): (
        "analytic_transcript",
        "analytic_transcript_rows",
        "quantum_capacity",
    ),
    ("depolarizing", "classical"): (
        "classical_use_transcript",
        "classical_use_transcript_rows",
        "classical_capacity",
    ),
    ("dephasing", "quantum"): (
        "dephasing_kraus",
        "dephasing_transcript_rows",
        "dephasing_mutual",
    ),
    ("dephasing", "classical"): (
        "dephasing_classical_rows",
        "dephasing_classical_rows",
        None,
    ),
}


class TestWholeGridSweep:
    """A sweep sends its whole (p, q) grid, p-major, through one row call."""

    @pytest.mark.parametrize("stack_rows", [channel.STACK_ROWS, 7])
    @pytest.mark.parametrize("family", FAMILY_KEYS, ids=FAMILY_IDS)
    def test_equals_the_per_p_loop(self, monkeypatch, capsys, family, stack_rows):
        """Bit for bit, the rows and the printed table; at 7 rows per chunk the chunks
        split the p blocks of 101 rows."""
        p_values, q_values, (ps, qs) = _grid(*FINE_GRID[1::2])
        expected = per_p_sweep(*family, p_values, q_values)
        monkeypatch.setattr(channel, "STACK_ROWS", stack_rows)
        monkeypatch.setattr(cli, "STACK_ROWS", stack_rows)
        got = np.array(cli.FAMILIES[family][1](ps, qs))
        assert got.shape == expected.shape == (len(expected), 7676)
        assert got.tobytes() == expected.tobytes()

        assert cli.main(["sweep", "--channel", family[0], "--use", family[1], *FINE_GRID]) == 0
        lines = capsys.readouterr().out.splitlines()
        line = ",".join(["%.12g"] * (2 + len(expected)))
        table = (np.vstack([ps, qs, expected]).T + 0.0).tolist()
        assert lines[1:] == [line % tuple(row) for row in table]

    @pytest.mark.parametrize("family", FAMILY_KEYS, ids=FAMILY_IDS)
    def test_checks_each_p_and_q_once(self, monkeypatch, family):
        """Beyond the range parse's checks of each start and stop, a default sweep
        checks each of its 16 p once and at most each of its 51 q once (the
        extremes of the q array), and besides only the closed forms' entropy
        arguments (the extremes of each array)."""
        p_values, q_values, _ = _grid(cli.DEFAULT_P_RANGE, cli.DEFAULT_Q_RANGE)
        checks = collections.Counter()

        def counted(x, name, check=qmat._unit_interval, **slack):
            checks[name, float(x)] += 1
            return check(x, name, **slack)

        for module in (qmat, entropy, channel, depolarizing, analysis, cli):
            monkeypatch.setattr(module, "_unit_interval", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--channel", family[0], "--use", family[1]]) == 0
        by_name = collections.defaultdict(dict)
        for (name, x), count in checks.items():
            by_name[name][x] = count
        assert by_name.pop("error probability") == dict.fromkeys(p_values, 1)
        q_checks = by_name.pop("mixing parameter")
        assert set(q_checks) <= set(q_values) and set(q_checks.values()) == {1}
        for flag in ("--p-range", "--q-range"):
            for end in ("start", "stop"):
                assert sum(by_name.pop(f"{flag} {end}").values()) == 1
        assert sum(sum(c.values()) for c in by_name.values()) <= 4

    @pytest.mark.parametrize("stack_rows", [channel.STACK_ROWS, 100])
    @pytest.mark.parametrize("family", FAMILY_KEYS, ids=FAMILY_IDS)
    def test_one_kernel_call_per_chunk(self, monkeypatch, family, stack_rows):
        """A default sweep makes one row call, and its kernel runs once per chunk: once
        on all 816 rows, or on 8 chunks of 100 rows and one of 16."""
        monkeypatch.setattr(channel, "STACK_ROWS", stack_rows)
        calls = []
        for name in ("_diagonal_chunk", "_classical_chunk"):
            kernel = getattr(depolarizing, name)
            monkeypatch.setattr(
                depolarizing, name, lambda *a, kernel=kernel: calls.append(a[-1].size) or kernel(*a)
            )
        for name in ("_analytic", "_classical"):  # the closed forms; only their array calls count
            body = getattr(depolarizing, name)
            monkeypatch.setattr(
                depolarizing,
                name,
                lambda p, q, ops, body=body: (
                    isinstance(q, np.ndarray) and calls.append(q.size)
                ) or body(p, q, ops),
            )
        rows = cli.FAMILIES[family][1]
        monkeypatch.setitem(
            cli.FAMILIES, family, (None, lambda *a: calls.append("rows") or rows(*a), None)
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--channel", family[0], "--use", family[1]]) == 0
        full, last = divmod(16 * 51, stack_rows)
        assert calls == ["rows"] + [stack_rows] * full + [last] * (last > 0)

    @pytest.mark.parametrize("family", FAMILY_KEYS, ids=FAMILY_IDS)
    def test_rows_are_looked_up_at_call_time(self, monkeypatch, family):
        """A sweep calls its family's row function through the ``depolarizing`` module,
        so a wrapper installed there, as perfbench's tracer installs one, sees it."""
        name = CALL_TIME_FUNCTIONS[family][1]
        calls, rows = [], getattr(depolarizing, name)
        monkeypatch.setattr(depolarizing, name, lambda *a: calls.append(len(a[1])) or rows(*a))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--channel", family[0], "--use", family[1]]) == 0
        assert calls == [16 * 51]


@pytest.mark.parametrize("family", FAMILY_KEYS, ids=FAMILY_IDS)
def test_capacity_looks_up_every_function_at_call_time(monkeypatch, family):
    """A capacity request reaches its family's point, rows (or the binder of its rows)
    and closed-form function through the ``depolarizing`` module: a wrapper installed
    there sees each call, and the closed form it returns is the one printed.
    Dephasing's classical capacity is the constant 1, with no function behind it."""
    point, rows, closed_form = CALL_TIME_FUNCTIONS[family]
    if family[0] == "dephasing":  # capacity binds its rows to p through this one
        rows = "_dephasing_rows"
    calls = collections.Counter()
    for name in (point, rows):
        function = getattr(depolarizing, name)
        monkeypatch.setattr(
            depolarizing, name, lambda *a, f=function, n=name: calls.update([n]) or f(*a)
        )
    if closed_form is not None:
        monkeypatch.setattr(depolarizing, closed_form, lambda p: calls.update(["closed"]) or 7.5)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["capacity", "--channel", family[0], "--use", family[1], "--p", "0.3"]
        assert cli.main(argv) == 0
    assert calls[point] >= 1 and calls[rows] >= 1
    if closed_form is not None:
        assert calls["closed"] == 1 and "closed_form: 7.5\n" in out.getvalue()


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.75, 1.0])
def test_dephasing_quantum_rows_at_equal_the_transcript_columns(p):
    """The dephasing quantum rows bound to p compute only the columns up to I_Q, with
    ``from_entropies``' own operations: bit for bit the first five columns of the
    transcript built from the same kernel's entropies."""
    qs = np.linspace(0.0, 1.0, 31)
    rows = depolarizing._dephasing_rows(p, channel._diagonal_chunk)
    want = cli._quantum_columns(channel.ChannelTranscript.from_entropies(*rows(qs)))
    got = cli._dephasing_quantum_at(p)(qs)
    assert len(got) == 5 == cli.USES["quantum"][1] + 1
    for column, expected in zip(got, want, strict=False):
        assert column.tobytes() == expected.tobytes()


DENSE_GRID = ("--p-range", "0:1:0.01", "--q-range", "0:1:0.01")  # 101 x 101 = 10,201 rows


def _edge_table() -> np.ndarray:
    """Nine rows of four cells, three chunks of three rows: first the signed zeros,
    the smallest subnormal, 1e-300, 1e300 and neighbours one ulp apart; then a
    chunk whose every cell is the value that ends the first (a value repeated
    across a chunk edge); then a chunk whose every cell differs."""
    shared = 2.0 / 3.0
    x, big = 0.1, 1e300
    specials = [
        [-0.0, 0.0, 5e-324, -5e-324],
        [1e-300, big, np.nextafter(big, 0.0), -1.5],
        [x, np.nextafter(x, 1.0), np.nextafter(x, 0.0), shared],
    ]
    differs = np.random.default_rng(24).uniform(-2.0, 2.0, (3, 4)).tolist()
    return np.array(specials + [[shared] * 4] * 3 + differs)


class TestDistinctValueText:
    """A sweep chunk formats each of its distinct values once and gathers the texts;
    it prints what formatting every cell where it stands printed."""

    @pytest.mark.parametrize("stack_rows", [channel.STACK_ROWS, 7, 1])
    @pytest.mark.parametrize("family", FAMILY_KEYS, ids=FAMILY_IDS)
    def test_dense_grid_prints_the_per_cell_text(self, monkeypatch, capsys, family, stack_rows):
        """On the 10,201-row grid (3 chunks at 4096 rows), the helper's chunks and the
        whole ``sweep`` output equal the per-cell route's bytes."""
        _, _, (ps, qs) = _grid(*DENSE_GRID[1::2])
        table = np.column_stack((ps, qs, *cli.FAMILIES[family][1](ps, qs)))
        expected = per_chunk_csv(table, stack_rows)
        assert len(expected) == -(-10201 // stack_rows)
        monkeypatch.setattr(cli, "STACK_ROWS", stack_rows)
        assert list(cli._csv_chunks(table)) == expected

        assert cli.main(["sweep", "--channel", family[0], "--use", family[1], *DENSE_GRID]) == 0
        header = cli.USES[family[1]][0]
        assert capsys.readouterr().out == "\n".join([header, *expected]) + "\n"

    @pytest.mark.parametrize("stack_rows", [3, 1, channel.STACK_ROWS])
    def test_edge_values(self, monkeypatch, stack_rows):
        table = _edge_table()
        chunks = table.reshape(3, 3, 4)
        assert np.signbit(table[0, 0]) and not np.signbit(table[0, 1])
        assert table[1, 2] == np.nextafter(table[1, 1], 0.0) != table[1, 1]
        assert table[2, 3] == table[3, 0] and len(np.unique(chunks[1])) == 1
        assert len(np.unique(chunks[2])) == 12
        monkeypatch.setattr(cli, "STACK_ROWS", stack_rows)
        got = list(cli._csv_chunks(table))
        assert got == per_chunk_csv(table, stack_rows)
        assert "\n".join(got).split("\n", 1)[0] == "0,0,4.94065645841e-324,-4.94065645841e-324"

    def test_each_distinct_value_is_formatted_once(self, monkeypatch):
        """Per chunk, ``_texts`` receives the chunk's distinct values, -0.0 and 0.0 as
        one; the one-ulp neighbours stay apart even where their texts agree."""
        table = _edge_table()
        texts, seen = cli._texts, []
        monkeypatch.setattr(cli, "_texts", lambda values: seen.append(values) or texts(values))
        monkeypatch.setattr(cli, "STACK_ROWS", 3)
        list(cli._csv_chunks(table))
        assert [len(values) for values in seen] == [11, 1, 12]
        for values, chunk in zip(seen, table.reshape(3, 3, 4)):
            assert values.tolist() == sorted(set(chunk.ravel().tolist()))

    def test_fmt_prints_each_value_as_the_sweep(self, monkeypatch):
        """``_fmt`` and the sweep share one number format and one -0 rule."""
        table = _edge_table()
        monkeypatch.setattr(cli, "STACK_ROWS", 3)
        lines = "\n".join(cli._csv_chunks(table)).split("\n")
        assert lines == [",".join(cli._fmt(v) for v in row) for row in table.tolist()]
        for zero in (-0.0, 0.0, np.float64(-0.0), 0):
            assert cli._fmt(zero) == "0"
        assert cli._fmt(-5e-324) == "-4.94065645841e-324"
        # ints and numpy scalars print as the float a one-element array holds
        ints = (1, -7, 2**53 + 1, 10**20, True, np.int64(-3), np.int32(12), np.uint8(200))
        floats = (np.float64(2.5), np.float32(0.1), np.float32(-0.0), np.float16(1e-3))
        for value in ints + floats:
            assert cli._fmt(value) == cli._texts(np.array([value], dtype=float))[0]

    @pytest.mark.parametrize(
        "argv",
        [
            *[["capacity", "--channel", c, "--use", u, "--p", "0.3"] for c, u in FAMILY_KEYS],
            ["superdense", "--p", "0.2", "--threshold"],
            ["hamming", "--mode", "quantum", "--p", "0.1", "--n", "5", "--k", "1", "--t", "1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_single_values_are_formatted_without_texts(self, monkeypatch, argv):
        """``capacity``, ``superdense`` and ``hamming`` print each number by ``_fmt``
        alone; only the sweep formats arrays."""
        calls, texts = [], cli._texts
        monkeypatch.setattr(cli, "_texts", lambda values: calls.append(values) or texts(values))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert calls == [] and out.getvalue()


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

    def test_violations_print_as_json_arrays(self, monkeypatch, capsys):
        """Each violation prints as [id, parameters, slack], the slack at full
        precision, and a violation exits 1."""
        report = analysis.AuditReport(
            trials=3,
            violations=(
                ("chain:loss_nonneg", {"trial": 0}, -1.2345678901234568e-10),
                ("forward_dpi", {"trial": 2}, -0.5),
            ),
            max_negative_slack=-0.5,
        )
        monkeypatch.setattr(analysis, "audit_inequalities", lambda seed, trials, tol: report)
        assert cli.main(["audit", "--trials", "3"]) == 1
        assert capsys.readouterr().out == (
            '{"trials": 3, "violations": [["chain:loss_nonneg", {"trial": 0}, '
            '-1.2345678901234568e-10], ["forward_dpi", {"trial": 2}, -0.5]], '
            '"max_negative_slack": -0.5}\n'
        )

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


def run_main(*argv, parser=None):
    """``cli.main`` in this process, or ``parser.parse_args`` when a parser is given:
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv)) if parser is None else parser.parse_args(list(argv))
        except SystemExit as exc:  # argparse refusals and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


HELP_COMMANDS = [(), ("capacity",), ("sweep",), ("audit",), ("hamming",), ("superdense",)]


class TestCachedParser:
    """``main`` builds its parser once; no call leaves anything behind for the next."""

    def test_built_once(self):
        cli._build_parser.cache_clear()
        threshold = ("superdense", "--threshold")
        for argv in (threshold, ("capacity", "--p", "0.2"), threshold):
            assert run_main(*argv)[0] == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_commands_are_looked_up_per_call(self, monkeypatch):
        """A command replaced after the parser is built is the one that runs."""
        run_main("superdense", "--threshold")
        calls = []
        command = cli.cmd_superdense
        monkeypatch.setattr(cli, "cmd_superdense", lambda args: calls.append(1) or command(args))
        assert run_main("superdense", "--threshold")[0] == 0 and calls == [1]

    def test_finite_check_does_not_carry_over(self):
        finite = ("hamming", "--mode", "quantum", "--n", "5", "--k", "1", "--t", "1")
        code, out, _ = run_main(*finite, "--p", "0.1")
        assert code == 0 and "holds=" in out
        code, out, _ = run_main("hamming", "--mode", "quantum", "--p", "0.1")
        assert code == 0 and "holds=" not in out
        assert len(out.splitlines()) == 2 + 4  # mode, rate_bound, the default n list

    @pytest.mark.parametrize("env_seed, fallback", [(None, 42), ("9", 9)])
    def test_seed_does_not_carry_over(self, monkeypatch, env_seed, fallback):
        if env_seed is None:
            monkeypatch.delenv("VN_SEED", raising=False)
        else:
            monkeypatch.setenv("VN_SEED", env_seed)
        seeds = []
        audit = cli.analysis.audit_inequalities
        monkeypatch.setattr(
            cli.analysis,
            "audit_inequalities",
            lambda seed, *rest: seeds.append(seed) or audit(seed, *rest),
        )
        assert run_main("audit", "--trials", "2", "--seed", "5")[0] == 0
        assert run_main("audit", "--trials", "2")[0] == 0
        assert seeds == [5, fallback]

    def test_refusal_leaves_the_parser_usable(self):
        code, out, err = run_main("capacity", "--p", "0.2", "--bogus")
        assert (code, out) == (2, "") and "unrecognized arguments" in err
        assert run_main("capacity")[0] == 2  # --p is required
        code, out, _ = run_main("capacity", "--p", "0.2")
        assert code == 0 and out.startswith("channel: depolarizing\nuse: quantum\np: 0.2\n")

    @pytest.mark.parametrize("command", HELP_COMMANDS, ids=lambda c: " ".join(c) or "top")
    def test_help_is_unchanged(self, command):
        fresh = run_main(*command, "--help", parser=cli._build_parser.__wrapped__())
        assert fresh[0] == 0 and fresh[1].startswith("usage: vncap")
        assert run_main(*command, "--help") == fresh
        run_main("sweep", "--p-range", "0:0.1:0.1", "--use", "classical")
        assert run_main(*command, "--help") == fresh


class TestUsageErrors:
    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_no_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2


# (argv, exit code, SHA-256 of stdout), recorded before the change that added
# this table; see the test's docstring for the versions.
CLI_DIGESTS = [
    (
        ("sweep", "--channel", "depolarizing", "--use", "quantum"),
        0,
        "01c43df3241d8bac91c1ce75e0841f366fb25cd85d3ef853575662ae400bd6ac",
    ),
    (
        ("sweep", "--channel", "depolarizing", "--use", "classical"),
        0,
        "2abd334508e3b4349d97d391a7e2a75c6dd32983fd3d521af373410041ef7eb5",
    ),
    (
        ("sweep", "--channel", "dephasing", "--use", "quantum"),
        0,
        "fb755d5903ef075ebcd741990427fdb608272f651ca914bbf15ea1f4e6bced61",
    ),
    (
        ("sweep", "--channel", "dephasing", "--use", "classical"),
        0,
        "2b0200d09aa5bb23fbe2e09ad60d3e7a5ce5d34b32671d616245ead67972d01c",
    ),
    (
        ("capacity", "--channel", "depolarizing", "--use", "quantum", "--p", "0.37"),
        0,
        "74fbbc2d5d18877a0a4e11c5392f5fd49f1882a73e151246adb763a3a9892293",
    ),
    (
        ("capacity", "--channel", "depolarizing", "--use", "classical", "--p", "0.37"),
        0,
        "04fe1f48933642ad322ff18af061f2bc0aaf3ce3aacc9c027cef7631753e3a0f",
    ),
    (
        ("capacity", "--channel", "dephasing", "--use", "quantum", "--p", "0.37"),
        0,
        "bf2e08915b70bf7ea30b70158832af9ce15568f6c05969d717ed924e57b8218a",
    ),
    (
        ("capacity", "--channel", "dephasing", "--use", "classical", "--p", "0.37"),
        0,
        "f1831d59ba37acec001a6d816b6695daa22d86c89e0c5fa81daeaa5324f72447",
    ),
    (
        ("audit", "--trials", "50", "--seed", "7"),
        0,
        "16fe4112209fd351d64ffb26d11c1e54362034e51b745af89ca803d89cfce823",
    ),
    (
        ("superdense", "--p", "0.3"),
        0,
        "316130fd3bf6239731746f5b67f67746b2fd1a687fcf880dc73578fac6e080fa",
    ),
    (
        ("superdense", "--threshold"),
        0,
        "81a37e4de55322e5736d774089552f7d41f26f0eeee832c8f41853f89813fcaa",
    ),
    (
        ("hamming", "--mode", "classical", "--p", "0.1"),
        0,
        "5f6c03a529d53cdcf8dc92b68bebb561e489834140cc9515aaa9fed2df1b0582",
    ),
    (
        ("hamming", "--mode", "quantum", "--p", "0.1"),
        0,
        "e3e04787be3b31298048123641bd601f0abf7bb2b25767d8386ba8a13b88a670",
    ),
    (
        ("hamming", "--mode", "entanglement", "--p", "0.1"),
        0,
        "b50a511112affe070f9afafe0a3af65e11db6d301026807ffe685810fff198b9",
    ),
]


@pytest.mark.parametrize(
    "args, exit_code, digest", CLI_DIGESTS, ids=[" ".join(c[0]) for c in CLI_DIGESTS]
)
def test_output_is_byte_identical_to_recorded(args, exit_code, digest):
    """The four default sweeps, capacity for both channels and uses at --p 0.37,
    a seeded 50-trial audit, superdense and its threshold, and hamming in all
    three modes print exactly the recorded bytes and exit as recorded.

    The digests were recorded with Python 3.11.7 and numpy 2.4.6.  Output
    carries 12 significant digits, so another numpy or BLAS build may move a
    last digit; re-record only after checking that a changed digest is such a
    rounding difference and not a change of behaviour.
    """
    proc = run_cli(*args)
    assert proc.returncode == exit_code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


# Dephasing capacity p values: 40 seeded draws in [0, 0.75], each passed as its
# repr, then both ends of the range, its middle and p = 1.
DEPHASING_CAPACITY_PS = [
    *map(repr, np.random.default_rng(26).uniform(0.0, 0.75, 40).tolist()),
    "0",
    "0.5",
    "0.75",
    "1",
]
# use -> SHA-256 of the concatenated outputs, recorded before the change that added
# this table; see the test's docstring for the rule and the versions.
DEPHASING_CAPACITY_DIGESTS = {
    "quantum": "eb40ed0dd409bd9dd650d6d642771cc36a3ca9170219b49816ec0529ea34b844",
    "classical": "a93f43a06ac2e9cfdadc6dc9dd55a0aa4d436e00b0a8a8d51558cdb6b1df6665",
}


@pytest.mark.parametrize("use", sorted(DEPHASING_CAPACITY_DIGESTS))
def test_dephasing_capacity_is_byte_identical_to_recorded(use):
    """``capacity --channel dephasing --use <use> --p <p>`` for every p in
    ``DEPHASING_CAPACITY_PS``, in order, by in-process ``cli.main`` calls: the
    SHA-256 of the UTF-8 concatenation of f"{code}\\n{stdout}" over the calls, with
    no separator, equals the recorded digest.  Every call exits 0 after 144
    evaluations.

    Recorded with Python 3.11.7 and numpy 2.4.6 on scipy-openblas 0.3.31.188.0 (one
    BLAS thread; the output does not depend on the thread count).  Output carries
    12 significant digits, so another numpy or BLAS build may move a last digit;
    re-record only after checking that a changed digest is such a rounding
    difference and not a change of behaviour.
    """
    text = ""
    for p in DEPHASING_CAPACITY_PS:
        code, out, _ = run_main("capacity", "--channel", "dephasing", "--use", use, "--p", p)
        assert code == 0 and "evaluations: 144\n" in out, p
        text += f"{code}\n{out}"
    assert hashlib.sha256(text.encode()).hexdigest() == DEPHASING_CAPACITY_DIGESTS[use]
