import hashlib
import math
import sys

import numpy as np
import pytest

from vncap import analysis, channel, cli, qmat
from vncap.qmat import DensityMatrix, PureState
from vncap.channel import ChannelTranscript, chain, identity_channel, run_channel
from vncap.entropy import pure_subsystem_entropy
from vncap.depolarizing import (
    DepolParams,
    analytic_transcript,
    build_dilation,
    dephasing_kraus,
    depolarizing_kraus,
)
from vncap.analysis import (
    CAPACITY_GRID,
    AuditReport,
    CapacityResult,
    HammingQuery,
    RatePoint,
    asymptotic_consistency,
    audit_axioms,
    audit_inequalities,
    hamming_holds,
    inequality_slacks,
    maximize_scalar_on_unit_interval,
    mixture_axiom_slacks,
    rate_bound,
    search_coherent_info_violations,
)

from vncap.channel import dilation_channel

import reference
from reference import as_dilation, random_density, random_diagonal, random_dilation

EXPECTED_SLACK_KEYS = {
    "single:loss_nonneg",
    "single:loss_le_2s_in",
    "single:loss_le_2s_env",
    "single:schumacher_fano",
    "chain:loss_nonneg",
    "chain:loss_le_2s_in",
    "chain:loss_le_2s_env",
    "chain:schumacher_fano",
    "parallel:loss_nonneg",
    "parallel:loss_le_2s_in",
    "parallel:loss_le_2s_env",
    "parallel:schumacher_fano",
    "forward_dpi",
    "forward_dpi_cap",
    "loss_chaining",
    "code_fano",
    "reverse_dpi",
    "reverse_dpi_cap",
    "subadditivity",
}


class TestScalarMaximizer:
    def test_smooth_interior_peak(self):
        result = maximize_scalar_on_unit_interval(lambda q: -((q - 0.37) ** 2))
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.argmax_q == pytest.approx(0.37, abs=1e-6)

    def test_boundary_peak(self):
        result = maximize_scalar_on_unit_interval(lambda q: -q)
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.argmax_q == pytest.approx(0.0, abs=1e-6)

    def test_flat_objective_reports_center(self):
        result = maximize_scalar_on_unit_interval(lambda q: 0.0)
        assert result.value == 0.0
        assert result.argmax_q == 0.5
        assert result.evaluations >= 101

    def test_tie_breaks_toward_center(self):
        result = maximize_scalar_on_unit_interval(
            lambda q: -abs(q - 0.45) * abs(q - 0.7)
        )
        assert result.argmax_q == pytest.approx(0.45, abs=1e-6)

    def test_rejects_non_finite_objective(self):
        with pytest.raises(ValueError, match="non-finite"):
            maximize_scalar_on_unit_interval(
                lambda q: float("nan") if q > 0.5 else q
            )
        # Not real numbers: ValueError, never TypeError, on the grid and in the rows.
        for bad in (None, "0.7", b"0.7", 1j, complex(0.7, 0.0), True, np.True_):
            with pytest.raises(ValueError, match="objective value must be a real number"):
                maximize_scalar_on_unit_interval(lambda q: bad if q > 0.5 else q)
            with pytest.raises(ValueError, match="objective value"):
                maximize_scalar_on_unit_interval(lambda q: q, rows=lambda qs: [bad] * len(qs))
        # The CLI's objectives return Python floats and np.float64 row entries.
        def peak(q):
            return -abs(q - 0.3)

        expected = maximize_scalar_on_unit_interval(peak)
        assert maximize_scalar_on_unit_interval(lambda q: np.float64(peak(q))) == expected
        assert maximize_scalar_on_unit_interval(
            peak, rows=lambda qs: np.array([peak(q) for q in qs])
        ) == expected

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            maximize_scalar_on_unit_interval(lambda q: q, tol=0.0)

    def test_counts_evaluations(self):
        calls = []

        def f(q):
            calls.append(q)
            return -((q - 0.5) ** 2)

        result = maximize_scalar_on_unit_interval(f)
        assert result.evaluations == len(calls)


class TestPrecomputedGrid:
    """``rows`` stands in for the 101 grid evaluations, checked alike."""

    @pytest.mark.parametrize(
        "f", [lambda q: -((q - 0.37) ** 2), lambda q: -q, lambda q: 0.0, lambda q: q * (1 - q)]
    )
    def test_same_result_as_scalar_grid(self, f):
        scalar = maximize_scalar_on_unit_interval(f)
        batched = maximize_scalar_on_unit_interval(f, rows=lambda qs: [f(q) for q in qs])
        assert batched == scalar

    def test_grid_values_are_not_recomputed(self):
        calls, batches = [], []

        def f(q):
            calls.append(q)
            return -((q - 0.37) ** 2)

        def rows(qs):
            batches.append(tuple(qs))
            return [f(q) for q in qs]

        result = maximize_scalar_on_unit_interval(f, rows=rows)
        assert batches == [CAPACITY_GRID]  # one call, on the grid
        assert result.evaluations == len(calls)  # the 101 grid values count once

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_grid_value(self, bad):
        values = [-((q - 0.37) ** 2) for q in CAPACITY_GRID]
        values[40] = bad
        with pytest.raises(ValueError, match="non-finite"):
            maximize_scalar_on_unit_interval(lambda q: 0.0, rows=lambda qs: values)

    def test_rejects_wrong_grid_length(self):
        with pytest.raises(ValueError, match="101 grid values"):
            maximize_scalar_on_unit_interval(lambda q: 0.0, rows=lambda qs: [0.0] * 100)

    def test_refused_tolerance_raises_before_rows(self):
        def rows(qs):
            raise AssertionError("rows ran before the tolerance check")

        for tol in (0.0, -1e-3, math.nan, math.inf, sys.float_info.epsilon / 2):
            with pytest.raises(ValueError, match="tolerance"):
                maximize_scalar_on_unit_interval(lambda q: 0.0, tol, rows=rows)


# The look-ahead's p grid: 0, 0.01, ..., 1 and 100 seeded random p.
LOOKAHEAD_PS = [i / 100 for i in range(101)] + np.random.default_rng(19).random(100).tolist()


def _bits(result: CapacityResult) -> tuple:
    return result.value.hex(), result.argmax_q.hex(), result.evaluations


def _peak(q):
    return -((q - 0.37) ** 2)


def _rows_of(f):
    return lambda qs: [f(q) for q in qs]


class TestLookAhead:
    """``lookahead`` steps the golden section through rows calls and replays it."""

    @pytest.mark.parametrize("family", sorted(cli.FAMILIES), ids="-".join)
    def test_equals_the_sequential_steps_bit_for_bit(self, family):
        """Every CLI family, with and without look-ahead: the same CapacityResult, its
        evaluation count included, and with look-ahead one point call, at the midpoint."""
        point, rows, _, _ = cli.FAMILIES[family]
        column = cli.USES[family[1]][1]
        for p in LOOKAHEAD_PS:
            calls = []

            def f(q):
                calls.append(q)
                return point(p, q)[column]

            def search(lookahead):
                calls.clear()
                return maximize_scalar_on_unit_interval(
                    f, rows=lambda qs: rows(p, qs)[column], lookahead=lookahead
                )

            sequential = search(False)
            assert _bits(search(True)) == _bits(sequential), p
            assert len(calls) == (sequential.evaluations > 101), p  # 0 on a flat grid

    def test_values_are_read_only_where_a_step_visits(self):
        """A NaN at a look-ahead point that no step visits goes unseen; a NaN at a
        visited point raises the sequential search's error."""
        visited, batches = [], []
        sequential = maximize_scalar_on_unit_interval(
            lambda q: visited.append(q) or _peak(q), rows=_rows_of(_peak)
        )

        def rows(qs):
            batches.append(list(qs))
            return [_peak(q) for q in qs]

        ahead = maximize_scalar_on_unit_interval(_peak, rows=rows, lookahead=True)
        assert _bits(ahead) == _bits(sequential)
        assert batches[0] == list(CAPACITY_GRID)
        looked_up = [q for batch in batches[1:] for q in batch]
        assert max(map(len, batches[1:])) <= 2**analysis.LOOKAHEAD_DEPTH
        steps = visited[:-1]  # the last point is the midpoint, which f evaluates
        assert set(steps) <= set(looked_up) and visited[-1] not in looked_up
        unvisited = [q for q in looked_up if q not in visited]
        assert unvisited

        def nan_at(q_bad):
            return lambda q: math.nan if q == q_bad else _peak(q)

        for q_bad in (unvisited[0], unvisited[len(unvisited) // 2], unvisited[-1]):
            result = maximize_scalar_on_unit_interval(
                _peak, rows=_rows_of(nan_at(q_bad)), lookahead=True
            )
            assert _bits(result) == _bits(sequential)
        for q_bad in (steps[0], steps[1], steps[len(steps) // 2], steps[-1], visited[-1]):
            with pytest.raises(ValueError, match="non-finite objective value nan") as expected:
                maximize_scalar_on_unit_interval(nan_at(q_bad), rows=_rows_of(_peak))
            with pytest.raises(ValueError) as got:
                maximize_scalar_on_unit_interval(
                    nan_at(q_bad), rows=_rows_of(nan_at(q_bad)), lookahead=True
                )
            assert str(got.value) == str(expected.value)
            assert str(got.value) == f"non-finite objective value nan at q={q_bad!r}"

    def test_refuses_a_wrong_length_look_ahead(self):
        def rows(qs):
            return [_peak(q) for q in qs][: 101 if len(qs) == 101 else -1]

        with pytest.raises(ValueError, match="look-ahead values"):
            maximize_scalar_on_unit_interval(_peak, rows=rows, lookahead=True)

    def test_needs_rows(self):
        with pytest.raises(ValueError, match="lookahead needs rows"):
            maximize_scalar_on_unit_interval(_peak, lookahead=True)


def _brackets(tol: float) -> list[tuple]:
    """Golden-section brackets (lo, hi, c, d): fresh ones of width 0.02 (the search's
    first), 1e-3, and 0.5 to 13 times ``tol``, at both ends of [0, 1] and inside it;
    and every bracket of a search from [0.36, 0.38] whose steps alternate left and
    right until the bracket ends."""
    found = []
    for width in (0.02, 1e-3, *(k * tol for k in (0.5, 1, 1.5, 2, 3, 5, 8, 13))):
        for lo in (0.0, 0.37, 1.0 - width):
            hi = lo + width
            found.append((lo, hi, hi - analysis._INV_GOLD * width, lo + analysis._INV_GOLD * width))
    lo, hi = 0.36, 0.38
    bracket = (lo, hi, hi - analysis._INV_GOLD * (hi - lo), lo + analysis._INV_GOLD * (hi - lo))
    while bracket[1] - bracket[0] > tol:
        found.append(bracket)
        *after, _ = analysis._golden_step(*bracket, len(found) % 2 == 0)
        bracket = tuple(after)
    return found + [bracket]


class TestGoldenFrontier:
    """The level-by-level look-ahead frontier lists the points of the recursive walk
    it replaced, ``reference.golden_tree``, bit for bit."""

    @pytest.mark.parametrize("tol", [analysis.CAPACITY_TOL, 1e-6, sys.float_info.epsilon])
    @pytest.mark.parametrize("outcomes", [(True,), (False,), (True, False)])
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_same_points_as_the_recursive_walk(self, depth, outcomes, tol):
        ended = 0
        for bracket in _brackets(tol):
            got = analysis._frontier(bracket, outcomes, depth, tol)
            expected = reference.golden_tree(bracket, outcomes, depth, tol)
            assert sorted(map(float.hex, got)) == sorted(map(float.hex, expected)), bracket
            assert len(got) <= len(outcomes) * (2**depth - 1)
            ended += len(got) < len(outcomes) * (2**depth - 1)
        assert ended  # some paths end inside the frontier


class TestMaximizeCapacity:
    def test_closed_form_family(self):
        result = maximize_scalar_on_unit_interval(
            lambda q: analytic_transcript(DepolParams(0.1, q)).mutual_entanglement
        )
        assert result.value == pytest.approx(1.372508156338603, abs=1e-9)
        assert result.argmax_q == pytest.approx(0.5, abs=1e-6)

    def test_noiseless_family(self):
        result = maximize_scalar_on_unit_interval(
            lambda q: analytic_transcript(DepolParams(0.0, q)).mutual_entanglement
        )
        assert result.value == pytest.approx(2.0, abs=1e-12)
        assert result.argmax_q == pytest.approx(0.5, abs=1e-6)

    def test_fully_noisy_family_is_flat_zero(self):
        result = maximize_scalar_on_unit_interval(
            lambda q: analytic_transcript(DepolParams(0.75, q)).mutual_entanglement
        )
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_simulated_family_matches_closed_form(self):
        def family(q):
            ch, entangled = build_dilation(DepolParams(0.3, q))
            from vncap.qmat import pure_marginal

            return run_channel(ch, pure_marginal(entangled, (0,)))

        result = maximize_scalar_on_unit_interval(lambda q: family(q).mutual_entanglement)
        assert result.value == pytest.approx(0.6432203505529606, abs=1e-9)
        assert result.argmax_q == pytest.approx(0.5, abs=1e-6)
        assert isinstance(result, CapacityResult)


class TestInequalitySlacks:
    def test_identity_channel_slacks(self):
        ident = identity_channel(2)
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        product_pair = DensityMatrix(
            np.diag(np.kron([0.3, 0.7], [0.3, 0.7])).astype(complex), (2, 2)
        )
        slacks = inequality_slacks(ident, ident, rho, product_pair)
        assert set(slacks) == EXPECTED_SLACK_KEYS
        for name in (
            "single:loss_nonneg",
            "chain:loss_nonneg",
            "forward_dpi",
            "forward_dpi_cap",
            "loss_chaining",
            "code_fano",
            "reverse_dpi",
            "subadditivity",
        ):
            assert slacks[name] == pytest.approx(0.0, abs=1e-9), name

    def test_correlated_pair_makes_subadditivity_strict(self):
        ident = identity_channel(2)
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        correlated = DensityMatrix(
            np.diag([0.2, 0.3, 0.1, 0.4]).astype(complex), (2, 2)
        )
        slacks = inequality_slacks(ident, ident, rho, correlated)
        # I(Q1 Q2) < I(Q1) + I(Q2) strictly once the halves are correlated.
        assert slacks["subadditivity"] > 1e-3

    def test_random_draw_is_clean(self):
        rng = np.random.default_rng(404)

        ch1 = random_dilation(rng)
        ch2 = random_dilation(rng)
        rho = random_diagonal(rng, (2,))
        rho_pair = random_diagonal(rng, (2, 2))
        slacks = inequality_slacks(ch1, ch2, rho, rho_pair)
        assert set(slacks) == EXPECTED_SLACK_KEYS
        for name, value in slacks.items():
            assert value >= -1e-9, (name, value)

    def test_chain_state_keeps_e1_before_e2(self):
        """inequality_slacks reads the chain state as (Q2', R, E1', E2').  ch2 touches
        neither R nor E1, so S(R E1') there is S(R E') of ch1 alone; read with E1
        and E2 swapped it would be S(R E2'), which differs."""
        rng = np.random.default_rng(606)

        for _ in range(5):
            ch1 = random_dilation(rng)
            ch2 = random_dilation(rng)
            rho = random_diagonal(rng, (2,))
            _, single = run_channel(ch1, rho, return_state=True)  # (Q1', R, E')
            _, chained = run_channel(chain(ch1, ch2), rho, return_state=True)
            fine = PureState(chained.amplitudes, (2, 2, ch1.env_dim, ch2.env_dim))
            s_re1 = pure_subsystem_entropy(fine, (1, 2))
            assert abs(s_re1 - pure_subsystem_entropy(single, (1, 2))) <= 1e-12

    def test_kraus_channels_match_their_dilations(self):
        rng = np.random.default_rng(505)

        ch1, ch2 = depolarizing_kraus(0.2), dephasing_kraus(0.3)
        dil1, dil2 = (dilation_channel(*as_dilation(ch)) for ch in (ch1, ch2))
        rho, rho_pair = random_diagonal(rng, (2,)), random_diagonal(rng, (2, 2))
        rho2 = random_density(rng, 2)
        for slacks, expected in (
            (
                inequality_slacks(ch1, ch2, rho, rho_pair),
                inequality_slacks(dil1, dil2, rho, rho_pair),
            ),
            (
                mixture_axiom_slacks(ch1, ch2, rho, rho2, 0.3),
                mixture_axiom_slacks(dil1, dil2, rho, rho2, 0.3),
            ),
        ):
            assert set(slacks) == set(expected)
            assert max(abs(slacks[k] - expected[k]) for k in slacks) <= 1e-12


class TestAuditInequalities:
    def test_trial_checks_only_the_two_drawn_unitaries(self, monkeypatch):
        """One stacked check covers the two drawn unitaries of every trial in a chunk,
        on the 5 columns that are factored; chain and parallel build no composite
        unitary, so nothing else is checked."""
        calls = []

        def counted(check):
            def record(u, *args):
                calls.append(np.shape(u))
                return check(u, *args)

            return record

        for name, modules in (
            ("_check_unitary", (qmat, channel)),
            ("_check_isometry", (qmat, analysis)),
        ):
            check = counted(getattr(qmat, name))
            for module in modules:
                monkeypatch.setattr(module, name, check)
        audit_inequalities(seed=3, trials=5)
        assert calls == [(10, 8, 5)]

    def test_clean_audit(self):
        report = audit_inequalities(seed=11, trials=25)
        assert report.trials == 25
        assert report.violations == ()
        assert report.max_negative_slack == 0.0

    def test_deterministic_per_seed(self):
        a = audit_inequalities(seed=5, trials=10)
        b = audit_inequalities(seed=5, trials=10)
        assert a == b

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            audit_inequalities(seed=1, trials=0)

    def test_flags_corrupted_transcript(self):
        bad = ChannelTranscript(
            s_in=1.0,
            s_out=1.0,
            s_env=0.0,
            loss=-0.5,
            mutual_entanglement=2.5,
            coherent_info=1.5,
            fidelity=1.0,
        )
        slacks = {key: np.array([v]) for key, v in channel.transcript_slacks(bad).items()}
        violations, worst = analysis._scan([([{"transcript": 0}], slacks)], 1e-9)
        assert {v[0] for v in violations} == {"loss_nonneg"}
        assert violations[0][1] == {"transcript": 0}
        assert worst == pytest.approx(-0.5, abs=1e-12)


def _slack_table(chunks) -> tuple[list, list, np.ndarray]:
    """(keys, per-trial parameters, (trials, ids) slack table) of an audit's chunks."""
    params, tables = [], []
    for chunk_params, slacks in chunks:
        keys = list(slacks)
        params += chunk_params
        tables.append(np.stack([slacks[key] for key in keys], axis=1))
    return keys, params, np.concatenate(tables)


STACKED_AUDITS = {
    "inequalities": audit_inequalities,
    "axioms": audit_axioms,
    "coherent": search_coherent_info_violations,
}


AUDIT_SLACK_SEEDS = (0, 3, 7, 42, 2**31 - 1)
AUDIT_SLACK_DIGEST = "3238f94600d026d934d46219e186e258b6ff0e9d9b4854a93ab2f56cce7d178e"


def audit_slack_text(seeds) -> str:
    """Every slack array of ``_inequality_chunks(s, 100)``, ``_axiom_chunks(s, 70)``
    and ``_coherent_chunks(s, 70)`` for each seed s, in that order: one line per
    chunk and slack id, the id, a colon, then the ``float.hex`` of each slack
    joined by commas."""
    lines = []
    for seed in seeds:
        for chunks in (
            analysis._inequality_chunks(seed, 100),
            analysis._axiom_chunks(seed, 70),
            analysis._coherent_chunks(seed, 70),
        ):
            for _, slacks in chunks:
                for key, values in slacks.items():
                    lines.append(f"{key}:{','.join(map(float.hex, values.tolist()))}\n")
    return "".join(lines)


def test_audit_slack_tables_are_bit_identical_to_recorded():
    """The SHA-256 of the UTF-8 ``audit_slack_text`` over ``AUDIT_SLACK_SEEDS``
    equals the recorded digest, so a last-bit change of any slack fails here,
    though the default ``audit`` prints ``max_negative_slack: 0.0``.

    Recorded with Python 3.11.7 and numpy 2.4.6 on scipy-openblas 0.3.31.188.0,
    at one and at two BLAS threads alike.  Another numpy or BLAS build may move a
    last bit; re-record only after checking that a changed digest is such a
    rounding difference and not a change of behaviour.
    """
    text = audit_slack_text(AUDIT_SLACK_SEEDS)
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_SLACK_DIGEST


class TestStackedAudits:
    """The stacked audits against their scalar trials, kept in ``reference``."""

    @pytest.mark.parametrize("seed", [0, 42, 2024])
    def test_inequality_trials_match_scalar_reference(self, seed):
        keys, params, table = _slack_table(analysis._inequality_chunks(seed, 200))
        expected = reference.inequality_trials(seed, 200)
        assert params == [{"trial": i} for i in range(200)]
        assert keys == list(expected[0])
        ref = np.array([[slacks[key] for key in keys] for slacks in expected])
        assert np.abs(table - ref).max() <= 1e-12

    @pytest.mark.parametrize("seed", [1, 42, 77])
    def test_axiom_trials_match_scalar_reference(self, seed):
        keys, params, table = _slack_table(analysis._axiom_chunks(seed, 200))
        expected = reference.axiom_trials(seed, 200)
        assert params == [{"trial": i, "weight": w} for i, (w, _) in enumerate(expected)]
        assert keys == list(expected[0][1])
        ref = np.array([[slacks[key] for key in keys] for _, slacks in expected])
        assert np.abs(table - ref).max() <= 1e-12

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_coherent_trials_match_scalar_reference(self, seed):
        _, params, table = _slack_table(analysis._coherent_chunks(seed, 200))
        expected = reference.coherent_trials(seed, 200)
        assert [p["weight"] for p in params] == [w for w, _ in expected]
        assert np.abs(table[:, 0] - [slack for _, slack in expected]).max() <= 1e-12

    def test_coherent_witnesses_match_scalar_reference(self):
        found = search_coherent_info_violations(7, 100)
        expected = [
            (i, w, slack)
            for i, (w, slack) in enumerate(reference.coherent_trials(7, 100))
            if slack < -1e-9
        ]
        assert [(i, w) for i, w, _ in found] == [(i, w) for i, w, _ in expected]
        assert max(abs(a[2] - b[2]) for a, b in zip(found, expected)) <= 1e-12
        for trial, weight, slack in found:
            assert (type(trial), type(weight), type(slack)) == (int, float, float)

    def test_one_row_calls_match_scalar_reference(self):
        """Channels with 1, 2, 4 and 8 branches and inputs off the diagonal."""
        rng = np.random.default_rng(808)

        dil = random_dilation(rng)
        channels = (
            identity_channel(2),
            dephasing_kraus(0.3),
            depolarizing_kraus(0.2),
            dil,
            chain(dil, dephasing_kraus(0.1)),
        )
        rho, rho2 = random_density(rng, 2), random_density(rng, 2)
        rho_pair = random_density(rng, 4)
        for ch1 in channels:
            for ch2 in channels:
                for got, expected in (
                    (
                        inequality_slacks(ch1, ch2, rho, rho_pair),
                        reference.scalar_inequality_slacks(ch1, ch2, rho, rho_pair),
                    ),
                    (
                        mixture_axiom_slacks(ch1, ch2, rho, rho2, 0.3),
                        reference.scalar_mixture_axiom_slacks(ch1, ch2, rho, rho2, 0.3),
                    ),
                ):
                    assert list(got) == list(expected)
                    assert all(type(v) is float for v in got.values())
                    assert max(abs(got[k] - expected[k]) for k in got) <= 1e-12

    @pytest.mark.parametrize("name", sorted(STACKED_AUDITS))
    def test_chunk_boundaries_change_nothing(self, name, monkeypatch):
        audit = STACKED_AUDITS[name]
        monkeypatch.setattr(analysis, "TRIAL_CHUNK", 3)
        chunked = audit(7, 100)
        monkeypatch.setattr(analysis, "TRIAL_CHUNK", 10**6)
        assert audit(7, 100) == chunked

    @pytest.mark.parametrize(
        "chunks", ["_inequality_chunks", "_axiom_chunks", "_coherent_chunks"]
    )
    def test_chunked_slacks_are_the_unchunked_slacks(self, chunks, monkeypatch):
        monkeypatch.setattr(analysis, "TRIAL_CHUNK", 3)
        chunked = _slack_table(getattr(analysis, chunks)(5, 23))
        monkeypatch.setattr(analysis, "TRIAL_CHUNK", 10**6)
        whole = _slack_table(getattr(analysis, chunks)(5, 23))
        assert chunked[:2] == whole[:2]
        assert np.array_equal(chunked[2], whole[2])

    @pytest.mark.parametrize("audit", sorted(STACKED_AUDITS))
    @pytest.mark.parametrize("corrupt", ["non-unitary", "non-finite"])
    def test_every_drawn_unitary_is_checked(self, audit, corrupt, monkeypatch):
        draw = analysis._random_unitaries

        def corrupted(dim, seeds, *columns):
            us = draw(dim, seeds, *columns)
            if dim == 8:  # a channel draw: spoil one unitary in the middle of the stack
                assert us.shape == (len(seeds), 8, 5)  # the columns that are factored
                us[len(us) // 2, 1, 2] = math.nan if corrupt == "non-finite" else 0.5
            return us

        monkeypatch.setattr(analysis, "_random_unitaries", corrupted)
        message = {"non-finite": "non-finite", "non-unitary": "not unitary"}[corrupt]
        with pytest.raises(ValueError, match=message):
            STACKED_AUDITS[audit](4, 20)

    def test_violations_run_trial_major_then_by_id(self):
        params = [{"trial": 4}, {"trial": 5}]
        slacks = {"a": np.array([-1.0, 0.5]), "b": np.array([-2.0, -3.0])}
        violations, worst = analysis._scan([(params, slacks)], 1e-9)
        assert violations == [
            ("a", {"trial": 4}, -1.0),
            ("b", {"trial": 4}, -2.0),
            ("b", {"trial": 5}, -3.0),
        ]
        assert all(type(v[2]) is float for v in violations) and type(worst) is float
        assert worst == -3.0
        assert violations[0][1] is not violations[1][1]  # one fresh dict per violation


def recorded(monkeypatch, name: str) -> list:
    """Every call of ``analysis.<name>`` from here on, as (args, result)."""
    calls, original = [], getattr(analysis, name)

    def record(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(analysis, name, record)
    return calls


# Columns factored per drawn unitary: a channel's 8 x 8 dilation the 5 that hold
# its |0> columns, a density's 2 x 2 eigenbasis both.
FACTORED = {8: 5, 2: 2}


def drawn_seeds(calls) -> dict[int, list[int]]:
    """The seeds of every recorded ``_random_unitaries`` call, per dimension, in
    order.  Each drawn unitary is checked, bit for bit, against the leading
    ``FACTORED[dim]`` columns of the per-seed two-draw construction."""
    seeds = {dim: [] for dim in FACTORED}
    for (dim, chunk_seeds, *_), us in calls:
        assert us.shape == (len(chunk_seeds), dim, FACTORED[dim])
        for seed, u in zip(chunk_seeds, us, strict=True):
            want = reference.seeded_unitary(dim, seed)[:, : FACTORED[dim]]
            assert u.tobytes() == want.tobytes()
        seeds[dim] += chunk_seeds
    return seeds


class TestBulkDraws:
    """The chunked audits read each chunk's seeds and weights from one raw draw of
    their generator, and normalize a chunk's weights at once.  Their seeds,
    weights, densities and unitaries equal reference.py's per-trial draw loops, one
    call per number, bit for bit, across chunk boundaries."""

    @pytest.mark.parametrize("trials", [1, 31, 32, 33, 200])
    def test_inequality_chunks(self, monkeypatch, trials):
        unitaries = recorded(monkeypatch, "_random_unitaries")
        amps = recorded(monkeypatch, "_diagonal_amps")
        chunks = list(analysis._inequality_chunks(7, trials))
        seeds, singles, pairs = reference.inequality_draws(7, trials)
        assert len(chunks) == len(unitaries) == math.ceil(trials / analysis.TRIAL_CHUNK)
        assert drawn_seeds(unitaries)[8] == seeds
        weights = [np.concatenate([args[0] for args, _ in amps[i::2]]) for i in (0, 1)]
        assert weights[0].tobytes() == singles.tobytes()
        assert weights[1].tobytes() == pairs.tobytes()

    @pytest.mark.parametrize("trials", [1, 31, 32, 33, 200])
    @pytest.mark.parametrize(
        "chunks_of, channels", [(analysis._axiom_chunks, 2), (analysis._coherent_chunks, 1)]
    )
    def test_mixture_chunks(self, monkeypatch, trials, chunks_of, channels):
        one_row = analysis._random_densities
        unitaries = recorded(monkeypatch, "_random_unitaries")
        densities = recorded(monkeypatch, "_random_densities")
        chunks = list(chunks_of(7, trials))
        seeds, weights, density_seeds, ws = reference.mixture_draws(7, trials, channels)
        assert len(chunks) == len(densities) == math.ceil(trials / analysis.TRIAL_CHUNK)
        assert drawn_seeds(unitaries) == {8: seeds, 2: density_seeds}
        assert [p["weight"] for params, _ in chunks for p in params] == ws
        drawn = np.concatenate([args[0] for args, _ in densities])
        assert drawn.tobytes() == weights.tobytes()
        rhos = [rho for _, chunk_rhos in densities for rho in chunk_rhos]
        for rho, w, seed in zip(rhos, weights, density_seeds, strict=True):
            one = one_row(w[np.newaxis], [seed])[0]
            assert rho.matrix.tobytes() == one.matrix.tobytes()


def advanced(seed: int, words: int) -> np.random.Generator:
    """``np.random.default_rng(seed)`` with its stream ``words`` raw draws on."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(words)
    return rng


class TestDrawsPerTrial:
    """Each audit trial takes a fixed number of raw 64-bit words of its seed's
    ``default_rng`` stream: 8 per inequality trial, 9 per axiom trial and 8 per
    coherent-search trial.  So ``bit_generator.advance(k * i)`` starts trial i, and
    a trial can be replayed without drawing the ones before it.  Trial i's seeds
    and weights in the chunked audits are drawn again from there, one number at a
    time, and then the stream stands where trial i + 1 starts."""

    TRIALS = (0, 1, 31, 32, 33, 199)

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    def test_inequality_trials(self, monkeypatch, seed):
        unitaries = recorded(monkeypatch, "_random_unitaries")
        amps = recorded(monkeypatch, "_diagonal_amps")
        assert len(list(analysis._inequality_chunks(seed, 200))) == 7
        seeds = drawn_seeds(unitaries)[8]
        singles, pairs = (np.concatenate([args[0] for args, _ in amps[i::2]]) for i in (0, 1))
        for i in self.TRIALS:
            rng = advanced(seed, 8 * i)
            assert [reference._draw_seed(rng) for _ in range(2)] == seeds[2 * i : 2 * i + 2]
            assert reference._draw_weights(rng, 2).tobytes() == singles[i].tobytes()
            assert reference._draw_weights(rng, 4).tobytes() == pairs[i].tobytes()
            assert rng.bit_generator.state == advanced(seed, 8 * (i + 1)).bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    @pytest.mark.parametrize(
        "chunks_of, channels, words",
        [(analysis._axiom_chunks, 2, 9), (analysis._coherent_chunks, 1, 8)],
    )
    def test_mixture_trials(self, monkeypatch, seed, chunks_of, channels, words):
        unitaries = recorded(monkeypatch, "_random_unitaries")
        densities = recorded(monkeypatch, "_random_densities")
        params = [p for chunk_params, _ in chunks_of(seed, 200) for p in chunk_params]
        seeds = drawn_seeds(unitaries)  # channel seeds, density seeds
        weights = np.concatenate([args[0] for args, _ in densities])
        for i in self.TRIALS:
            rng = advanced(seed, words * i)
            drawn = [reference._draw_seed(rng) for _ in range(channels)]
            assert drawn == seeds[8][channels * i : channels * (i + 1)]
            for j in (2 * i, 2 * i + 1):  # rho1, rho2
                assert reference._draw_weights(rng, 2).tobytes() == weights[j].tobytes()
                assert reference._draw_seed(rng) == seeds[2][j]
            assert float(rng.uniform(0.05, 0.95)) == params[i]["weight"]
            assert rng.bit_generator.state == advanced(seed, words * (i + 1)).bit_generator.state


class TestPlainAmplitudes:
    """The audits read |0> and their channels from plain arrays: no ``PureState`` is
    built, and the branch stacks, sliced from env_dim + 1 factored columns, equal
    the full-QR ``basis_state`` route (reference.py's
    ``basis_state_random_dilations``) bit for bit."""

    @pytest.mark.parametrize("env_dim", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_random_dilations_equal_the_basis_state_route(self, env_dim, n):
        seeds = np.random.default_rng(900 + n).integers(0, 2**63, size=n).tolist()
        got = analysis._random_dilations(seeds, env_dim)
        want = reference.basis_state_random_dilations(seeds, env_dim)
        assert got.shape == want.shape == (n, 2, env_dim, 2)
        assert got.tobytes() == want.tobytes()

    def test_audits_build_no_pure_state(self, monkeypatch):
        built = reference.record_constructions(monkeypatch)
        audit_inequalities(seed=4, trials=200)
        assert built == []
        audit_axioms(seed=4, trials=45)
        assert built == ["DensityMatrix"] * 90


class TestAuditAxioms:
    def test_clean_audit(self):
        report = audit_axioms(seed=7, trials=40)
        assert report.violations == ()
        assert report.max_negative_slack == 0.0

    def test_deterministic_per_seed(self):
        assert audit_axioms(seed=2, trials=10) == audit_axioms(seed=2, trials=10)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            audit_axioms(seed=1, trials=-5)

    def test_slack_structure(self):
        rng = np.random.default_rng(606)

        slacks = mixture_axiom_slacks(
            random_dilation(rng),
            random_dilation(rng),
            random_density(rng, 2),
            random_density(rng, 2),
            0.3,
        )
        assert set(slacks) == {"concavity_input", "convexity_channel"}
        assert all(v >= -1e-9 for v in slacks.values())


class TestCoherentInfoSearch:
    def test_finds_witnesses(self):
        found = search_coherent_info_violations(seed=7, trials=50)
        assert len(found) > 0
        for trial, weight, slack in found:
            assert 0 <= trial < 50
            assert 0.05 <= weight <= 0.95
            assert slack < -1e-9

    def test_deterministic_per_seed(self):
        a = search_coherent_info_violations(seed=9, trials=20)
        b = search_coherent_info_violations(seed=9, trials=20)
        assert a == b


class TestHammingHolds:
    def test_classical_perfect_code_point(self):
        holds, slack = hamming_holds(HammingQuery(7, 4, 1, "classical"))
        assert holds
        assert slack == 0.0

    def test_quantum_perfect_code_point(self):
        holds, slack = hamming_holds(HammingQuery(5, 1, 1, "quantum"))
        assert holds
        assert slack == 0.0

    def test_entanglement_exhausts_doubled_space(self):
        holds, slack = hamming_holds(HammingQuery(5, 6, 1, "entanglement"))
        assert holds
        assert slack == 0.0

    def test_quantum_short_block_fails(self):
        holds, slack = hamming_holds(HammingQuery(4, 1, 1, "quantum"))
        assert not holds
        assert slack == pytest.approx(3 - math.log2(13), abs=1e-12)

    def test_exact_boundary_at_long_blocks(self):
        assert hamming_holds(HammingQuery(200, 109, 20, "classical"))[0]
        assert not hamming_holds(HammingQuery(200, 110, 20, "classical"))[0]
        assert hamming_holds(HammingQuery(200, 77, 20, "quantum"))[0]
        assert not hamming_holds(HammingQuery(200, 78, 20, "quantum"))[0]

    def test_rejects_invalid_queries(self):
        with pytest.raises(ValueError, match="invalid query"):
            HammingQuery(7, 4, 1, "postal")
        with pytest.raises(ValueError, match="invalid query"):
            HammingQuery(7, 4, 9, "classical")
        with pytest.raises(ValueError, match="invalid query"):
            HammingQuery(7, 0, 1, "classical")


class TestRateBound:
    def test_classical_reference_value(self):
        assert rate_bound(0.1, "classical") == pytest.approx(
            0.5310044064107189, abs=1e-12
        )

    def test_quantum_reference_value(self):
        assert rate_bound(0.1, "quantum") == pytest.approx(
            0.3725081563386032, abs=1e-12
        )

    def test_entanglement_reference_value(self):
        assert rate_bound(0.1, "entanglement") == pytest.approx(
            1.3725081563386032, abs=1e-12
        )

    def test_entanglement_exceeds_quantum_by_exactly_one(self):
        for p in (0.05, 0.1, 0.2, 0.3):
            gap = rate_bound(p, "entanglement") - rate_bound(p, "quantum")
            assert gap == 1.0

    def test_quantum_bound_can_go_negative(self):
        assert rate_bound(0.4, "quantum") < 0.0

    def test_classical_vanishes_at_coin_flip(self):
        assert rate_bound(0.5, "classical") == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="invalid query"):
            rate_bound(0.1, "postal")


class TestAsymptoticConsistency:
    def test_reference_table_at_long_blocks(self):
        rows = {
            mode: asymptotic_consistency(0.1, [200], mode)[0]
            for mode in ("classical", "quantum", "entanglement")
        }
        assert rows["classical"] == RatePoint(n=200, t=20, k_max=109, rate=0.545)
        assert rows["quantum"] == RatePoint(n=200, t=20, k_max=77, rate=0.385)
        assert rows["entanglement"] == RatePoint(n=200, t=20, k_max=277, rate=1.385)

    def test_rates_settle_onto_bound_from_above(self):
        for mode in ("classical", "quantum", "entanglement"):
            bound = rate_bound(0.1, mode)
            rows = asymptotic_consistency(0.1, [25, 50, 100, 200], mode)
            diffs = [abs(row.rate - bound) for row in rows]
            # Finite-block rates sit above the limit and the gap shrinks
            # monotonically as the block length doubles.
            assert all(row.rate >= bound for row in rows)
            assert all(a > b for a, b in zip(diffs, diffs[1:]))
            assert diffs[-1] < 0.05

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^p must be a real number in \(0, 1\)"):
            asymptotic_consistency(0.0, [100], "classical")
        with pytest.raises(ValueError, match="block length"):
            asymptotic_consistency(0.1, [5], "classical")
        with pytest.raises(ValueError, match="invalid query"):
            asymptotic_consistency(0.1, [100], "postal")


class TestAuditReportShape:
    def test_fields(self):
        report = audit_inequalities(seed=1, trials=1)
        assert isinstance(report, AuditReport)
        assert report.trials == 1
        assert isinstance(report.violations, tuple)
        assert report.max_negative_slack <= 0.0
