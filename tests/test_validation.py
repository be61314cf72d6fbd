"""Validation at the public boundary: NaN, infinities, out-of-range values and
oversized work are refused, and in-range values pass through unchanged.

The property tests run a fixed, derandomized hypothesis profile so the suite
stays deterministic and fast.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vncap import cli
from vncap.analysis import (
    MAX_BLOCK_LENGTH,
    HammingQuery,
    asymptotic_consistency,
    audit_axioms,
    audit_inequalities,
    hamming_holds,
    maximize_scalar_on_unit_interval,
    search_coherent_info_violations,
)
from vncap.channel import DilationChannel, KrausChannel, quantum_fano_bound
from vncap.depolarizing import (
    LOG2_3,
    DepolParams,
    classical_capacity,
    classical_use_channel_simulation,
    dephasing_kraus,
    depolarizing_kraus,
    quantum_capacity,
    superdense_scenario,
)
from vncap.entropy import (
    _shannon,
    binary_entropy,
    classical_fano_bound,
    relative_entropy_binary,
    shannon_entropy,
    von_neumann_entropy,
)
from vncap.qmat import (
    UNIT_SLACK,
    DensityMatrix,
    PureState,
    apply_unitary,
    basis_state,
    clamp_spectrum,
    hermitian_eigenvalues,
    random_unitary,
    _unit_interval,
)

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
UNIT = st.floats(min_value=0.0, max_value=1.0)
BAD_ENTRY = st.sampled_from(
    [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, math.inf)]
)


def h2(p):
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


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
}


def _with_entry(matrix, index, value):
    out = np.array(matrix, dtype=np.complex128)
    out.flat[index % out.size] = value
    return out


MATRIX_ENTRY_POINTS = {
    "PureState": lambda bad, i: PureState(_with_entry([1.0, 0.0], i, bad)),
    "DensityMatrix": lambda bad, i: DensityMatrix(_with_entry(np.eye(2) / 2, i, bad)),
    "KrausChannel": lambda bad, i: KrausChannel((_with_entry(np.eye(2), i, bad),)),
    "DilationChannel": lambda bad, i: DilationChannel(
        _with_entry(np.eye(4), i, bad), 2, basis_state(2, 0)
    ),
    "apply_unitary": lambda bad, i: apply_unitary(
        _with_entry(np.eye(2), i, bad), basis_state(2, 0)
    ),
}


class TestLibraryRefusals:
    @pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
    @FIXED
    @given(x=BAD_UNIT)
    def test_scalar_entry_points_refuse(self, name, x):
        with pytest.raises(ValueError):
            SCALAR_ENTRY_POINTS[name](x)

    @pytest.mark.parametrize("name", sorted(MATRIX_ENTRY_POINTS))
    @FIXED
    @given(bad=BAD_ENTRY, index=st.integers(min_value=0, max_value=15))
    def test_matrix_entry_points_refuse_non_finite_entries(self, name, bad, index):
        with pytest.raises(ValueError):
            MATRIX_ENTRY_POINTS[name](bad, index)

    @FIXED
    @given(tol=BAD_TOL)
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


class TestInRangeValuesUnchanged:
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
    assert len(calls) == 3  # one per DensityMatrix built
    calls.clear()
    superdense_scenario(0.3)
    assert len(calls) == 17


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

    def test_caps(self):
        # Without their caps, all but the last request would still be cheap.
        too_long = str(cli.MAX_BLOCK_LENGTH + 1)
        rates = ("hamming", "--mode", "classical", "--p", "0.1", "--n-list")
        assert_refused("sweep", "--q-range", "0:1:1e-6")
        assert_refused("sweep", "--p-range", "0:1:1e-3", "--q-range", "0:1:1e-2")
        assert_refused("hamming", "--mode", "classical", "--n", too_long, "--k", "1", "--t", "0")
        assert_refused("hamming", "--mode", "classical", "--n", "7", "--k", "9" * 400, "--t", "1")
        assert_refused(*rates, too_long)
        assert_refused(*rates, ",".join(["10"] * (cli.MAX_N_LIST + 1)))
        assert_refused("audit", "--trials", str(cli.MAX_TRIALS + 1))

    def test_caps_admit_benchmark_requests(self):
        code, out, _ = run_cli(
            "hamming", "--mode", "entanglement", "--p", "0.09", "--n-list", "4001"
        )
        assert code == 0 and out.count("\n") == 3
        assert 16 * 51 <= cli.MAX_SWEEP_ROWS and 200 <= cli.MAX_TRIALS
