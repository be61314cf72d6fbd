"""Acceptance suite: one test per shipped guarantee.

Each test prints a one-line verdict (visible with ``pytest -s``; ``pytest -v``
shows the same pass/fail status per criterion through the test names) and
pins the tolerance it enforces.  The suite is self-contained: every expected
number is either exact, a closed form evaluated here, or an independently
frozen constant.
"""

import math
import time

import numpy as np

from vncap.qmat import DensityMatrix, pure_marginal
from vncap.entropy import binary_entropy
from vncap.channel import (
    _branches,
    _purify_rows,
    _transcript_rows,
    chain,
    identity_channel,
    parallel,
    run_channel,
    transcript_identity_residuals,
)
from vncap.depolarizing import (
    DepolParams,
    analytic_transcript,
    build_dilation,
    classical_capacity,
    classical_use_channel_simulation,
    classical_use_ensemble,
    classical_use_transcript,
    dephasing_kraus,
    dephasing_mutual,
    depolarizing_kraus,
    kholevo_chi,
    quantum_capacity,
    superdense_scenario,
    superdense_threshold,
)
from vncap.analysis import (
    HammingQuery,
    asymptotic_consistency,
    audit_axioms,
    audit_inequalities,
    hamming_holds,
    maximize_scalar_on_unit_interval,
    rate_bound,
)

from reference import random_density, random_diagonal, random_dilation

LOG2_3 = math.log2(3.0)

# Transcripts produced while checking earlier criteria, re-audited by the
# transcript-identity criterion below.
RECORDED_TRANSCRIPTS = []


def _verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def _simulated_transcript(p, q):
    dil, entangled = build_dilation(DepolParams(p, q))
    return run_channel(dil, pure_marginal(entangled, (0,)))


def test_criterion_01_closed_form_matches_simulation():
    failures = []
    start = time.perf_counter()
    for p in np.arange(0.0, 0.7501, 0.05):
        for q in np.arange(0.0, 1.0001, 0.1):
            closed = analytic_transcript(DepolParams(p, q))
            sim = _simulated_transcript(p, q)
            RECORDED_TRANSCRIPTS.append(sim)
            for field in (
                "s_in",
                "s_out",
                "s_env",
                "loss",
                "mutual_entanglement",
                "coherent_info",
                "fidelity",
            ):
                gap = abs(getattr(closed, field) - getattr(sim, field))
                if gap > 1e-9:
                    failures.append((round(p, 2), round(q, 2), field, gap))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _verdict(1, "closed form vs simulation on the (p, q) grid", failures)


def test_criterion_02_capacity_endpoints():
    failures = []
    if quantum_capacity(0.0) != 2.0:
        failures.append(("p=0", quantum_capacity(0.0)))
    if abs(quantum_capacity(0.75)) > 1e-12:
        failures.append(("p=3/4", quantum_capacity(0.75)))
    _verdict(2, "capacity endpoints 2 and 0", failures)


def test_criterion_03_optimizer_finds_symmetric_peak():
    failures = []
    for p in (0.1, 0.3, 0.6):
        result = maximize_scalar_on_unit_interval(
            lambda q: analytic_transcript(DepolParams(p, q)).mutual_entanglement
        )
        if abs(result.argmax_q - 0.5) > 1e-6:
            failures.append((p, "argmax", result.argmax_q))
        if abs(result.value - quantum_capacity(p)) > 1e-9:
            failures.append((p, "value", result.value))
    _verdict(3, "capacity optimizer peaks at q = 1/2", failures)


def test_criterion_04_superdense_threshold():
    failures = []
    threshold = superdense_threshold()
    if abs(threshold - 0.1893) > 1e-3:
        failures.append(threshold)
    _verdict(4, "superdense break-even error rate", failures)


def test_criterion_05_classical_use():
    failures = []
    p_grid = (0.0, 0.15, 0.3, 0.5, 0.75)
    for p in p_grid:
        mutual, _ = classical_use_transcript(DepolParams(p, 0.5))
        if abs(mutual - classical_capacity(p)) > 1e-9:
            failures.append((p, "closed capacity", mutual))
    for p in p_grid:
        for q in (0.25, 0.5, 0.75):
            params = DepolParams(p, q)
            mutual, loss = classical_use_transcript(params)
            chi = kholevo_chi(*classical_use_ensemble(params))
            if abs(mutual - chi) > 1e-9:
                failures.append((p, q, "kholevo", mutual - chi))
            sim_mutual, sim_loss = classical_use_channel_simulation(
                build_dilation(params)[0], params.q
            )
            if abs(mutual - sim_mutual) > 1e-9 or abs(loss - sim_loss) > 1e-9:
                failures.append((p, q, "simulation", sim_mutual, sim_loss))
    _verdict(5, "classical use: closed form, ensemble, simulation", failures)


def test_criterion_06_fano_saturation():
    failures = []
    for p in np.arange(0.0, 0.7501, 0.1):
        t = _simulated_transcript(p, 0.5)
        RECORDED_TRANSCRIPTS.append(t)
        bound = binary_entropy(t.fidelity) + (1.0 - t.fidelity) * LOG2_3
        if abs(t.s_env - bound) > 1e-9:
            failures.append((round(p, 2), "saturation", t.s_env - bound))
    for p in (0.1, 0.3, 0.6):
        for q in (0.0, 0.2, 0.35, 0.8):
            t = _simulated_transcript(p, q)
            RECORDED_TRANSCRIPTS.append(t)
            bound = binary_entropy(t.fidelity) + (1.0 - t.fidelity) * LOG2_3
            if t.s_env - bound > 1e-9:
                failures.append((p, q, "slack", bound - t.s_env))
    _verdict(6, "exchange-entropy bound saturates at q = 1/2", failures)


def test_criterion_07_inequality_audit():
    start = time.perf_counter()
    report = audit_inequalities(seed=42, trials=200, tol=1e-9)
    elapsed = time.perf_counter() - start
    failures = list(report.violations)
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _verdict(7, "200-trial randomized inequality audit", failures)


def test_criterion_08_transcript_identities():
    failures = []
    transcripts = list(RECORDED_TRANSCRIPTS)

    # Widen the population to every channel species the suite runs: random
    # dilations, chains, parallels, the identity, and the dephasing family.
    rng = np.random.default_rng(2024)
    for _ in range(10):
        ch1 = random_dilation(rng)
        ch2 = random_dilation(rng)
        rho = random_density(rng, 2)
        rho_pair = random_diagonal(rng, (2, 2))
        transcripts.append(run_channel(ch1, rho))
        transcripts.append(run_channel(chain(ch1, ch2), rho))
        transcripts.append(run_channel(parallel(ch1, ch2), rho_pair))
    transcripts.append(run_channel(identity_channel(2), DensityMatrix(np.eye(2) / 2)))
    for p in (0.0, 0.25, 0.5, 1.0):
        transcripts.append(
            run_channel(dephasing_kraus(p), DensityMatrix(np.eye(2) / 2))
        )

    for i, t in enumerate(transcripts):
        for name, residual in transcript_identity_residuals(t).items():
            if residual > 1e-9:
                failures.append((i, name, residual))
    if len(transcripts) < 150:
        failures.append(("population too small", len(transcripts)))
    _verdict(8, "loss and mutual-entanglement identities on every run", failures)


def test_criterion_09_superdense_consistency():
    failures = []
    for p in (0.0, 0.1, 0.189, 0.3):
        report = superdense_scenario(p)
        if abs(report.conditional_mutual - report.kholevo_chi) > 1e-9:
            failures.append((p, report.conditional_mutual - report.kholevo_chi))
    noiseless = superdense_scenario(0.0)
    if abs(noiseless.conditional_mutual - 2.0) > 1e-9:
        failures.append(("p=0", noiseless.conditional_mutual))
    _verdict(9, "superdense conditional mutual equals Kholevo quantity", failures)


def test_criterion_10_dephasing():
    failures = []
    rho = DensityMatrix(np.eye(2) / 2)
    for p in np.arange(0.0, 1.0001, 0.1):
        t = run_channel(dephasing_kraus(p), rho)
        RECORDED_TRANSCRIPTS.append(t)
        expected = 2.0 - binary_entropy(float(p))
        if abs(t.mutual_entanglement - expected) > 1e-9:
            failures.append((round(p, 2), t.mutual_entanglement))
    halfway = run_channel(dephasing_kraus(0.5), rho)
    if abs(halfway.mutual_entanglement - 1.0) > 1e-9:
        failures.append(("p=0.5", halfway.mutual_entanglement))
    _verdict(10, "dephasing simulation matches 2 - H2(p)", failures)


def test_criterion_11_hamming_exact_checks_and_rate_bounds():
    failures = []
    holds, slack = hamming_holds(HammingQuery(7, 4, 1, "classical"))
    if not holds or slack != 0.0:
        failures.append(("classical equality", holds, slack))
    holds, slack = hamming_holds(HammingQuery(5, 1, 1, "quantum"))
    if not holds or slack != 0.0:
        failures.append(("quantum equality", holds, slack))
    for p in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7):
        gap = abs(rate_bound(p, "entanglement") - quantum_capacity(p))
        if gap > 1e-12:
            failures.append((p, "entanglement bound vs capacity", gap))
    for mode in ("classical", "quantum", "entanglement"):
        row = asymptotic_consistency(0.1, [200], mode)[0]
        if abs(row.rate - rate_bound(0.1, mode)) > 0.05:
            failures.append((mode, "within 0.05", row.rate))
    _verdict(11, "sphere-packing equalities and rate bounds", failures)


def test_criterion_11_finite_rates_below_asymptote():
    """Expected to fail: exact finite-block rates sit *above* the limit.

    The sphere-packing count is an upper bound on codewords, and truncating
    it at finite n only loosens it, so the admissible rate k_max/n approaches
    the asymptotic bound from above (0.545 vs 0.531 for the classical mode at
    n=200, p=0.1).  The requirement that they lie below is therefore
    unattainable as stated; it is kept verbatim and red on purpose.  The
    companion criterion-11 test above carries every attainable clause.
    """
    failures = []
    for mode in ("classical", "quantum", "entanglement"):
        row = asymptotic_consistency(0.1, [200], mode)[0]
        bound = rate_bound(0.1, mode)
        if row.rate > bound:
            failures.append((mode, row.rate, bound))
    _verdict(11, "finite rates below the asymptote (known unattainable)", failures)


def test_criterion_12_axiom_spot_checks():
    report = audit_axioms(seed=42, trials=100, tol=1e-9)
    _verdict(12, "concavity and convexity spot-checks", list(report.violations))


CAPACITY_P = [i / 20.0 for i in range(21)]
HALF = np.eye(2)[np.newaxis] / 2.0  # I/2, where the diagonal family peaks


def _output_entropies(kraus, mats):
    """(S, S', S_e) of each (2, 2) density matrix of a stack through ``kraus``: the
    stacked transcript kernel on the purifications."""
    return _transcript_rows(_branches(kraus), _purify_rows(mats))[0][:3]


def _random_inputs(rng, n):
    """n seeded random full-rank qubit inputs: Ginibre draws G G^dag / tr, each mixed
    with I/2 at a log-uniform weight in [1e-8, 1] so that the neighbourhood of the
    peak is drawn too."""
    g = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    rho = g @ g.conj().swapaxes(1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, np.newaxis, np.newaxis]
    weight = 10.0 ** rng.uniform(-8.0, 0.0, (n, 1, 1))
    return weight * rho + (1.0 - weight) * HALF


def test_criterion_13_capacities_hold_for_every_input():
    """The mutual entanglement I = S + S' - S_e of every input stays at or below the
    capacity that the diagonal family reaches at I/2: quantum_capacity(p) for the
    depolarizing channel and dephasing_mutual(p) for the dephasing channel.  Both
    channels are covariant and I is concave in the input, so averaging an input over
    the symmetry cannot lower I; here 2,000 seeded random full-rank inputs at 21 p
    check it to 1e-12, and I/2 (the first row) reaches each capacity."""
    inputs = np.concatenate([HALF, _random_inputs(np.random.default_rng(13), 2000)])
    failures = []
    for p in CAPACITY_P:
        for name, kraus, capacity in (
            ("depolarizing", depolarizing_kraus(p), quantum_capacity(p)),
            ("dephasing", dephasing_kraus(p), dephasing_mutual(p)),
        ):
            s_in, s_out, s_env = _output_entropies(kraus, inputs)
            excess = s_in + s_out - s_env - capacity
            if excess.max() > 1e-12 or excess[0] < -1e-12:
                failures.append((name, p, float(excess.max()), float(excess[0])))
    _verdict(13, "capacities bound the mutual entanglement of every input", failures)


def test_criterion_14_classical_capacity_bounds_every_ensemble():
    """The Kholevo chi of every pure-state ensemble through the depolarizing channel,
    S(L(sum_i w_i psi_i)) - sum_i w_i S(L(psi_i)), stays at or below
    classical_capacity(p) = 1 - H2(2p/3): 600 seeded random ensembles of 2 to 4
    states at 21 p, to 1e-12.  The first ensemble, |0> and |1> at weight 1/2 each,
    reaches it."""
    rng = np.random.default_rng(14)
    sizes = np.concatenate([[2], rng.integers(2, 5, 600)])
    owner = np.repeat(np.arange(sizes.size), sizes)  # the ensemble of each state
    vecs = rng.standard_normal((owner.size, 2)) + 1j * rng.standard_normal((owner.size, 2))
    vecs[:2] = np.eye(2)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = rng.uniform(0.05, 1.0, owner.size)
    weights[:2] = 1.0
    weights /= np.bincount(owner, weights)[owner]
    pure = vecs[:, :, np.newaxis] * vecs[:, np.newaxis, :].conj()
    mixed = np.zeros((sizes.size, 2, 2), dtype=complex)
    np.add.at(mixed, owner, weights[:, np.newaxis, np.newaxis] * pure)
    failures = []
    for p in CAPACITY_P:
        kraus = depolarizing_kraus(p)
        chi = _output_entropies(kraus, mixed)[1] - np.bincount(
            owner, weights * _output_entropies(kraus, pure)[1]
        )
        excess = chi - classical_capacity(p)
        if excess.max() > 1e-12 or excess[0] < -1e-12:
            failures.append((p, float(excess.max()), float(excess[0])))
    _verdict(14, "the classical capacity bounds the Kholevo chi of every ensemble", failures)
