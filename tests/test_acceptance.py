"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion with its runtime.  Every tolerance is pinned inline.

Criterion 7 checks the partial-recovery deviations of the scenario's probe
observable against their closed forms, 4p[(1-p)(1-mu)+x] before and
4p(1-p)(1-mu) after deconvolution (1.02 and 0.42 at p=0.3, mu=0.5, x=0.5),
at 1e-12; the scenario code derives both by Pauli algebra.
"""

import time

import numpy as np

import qdeconv as q
from qdeconv.channels import random_hermitian
from qdeconv.scenarios import run_scenario

from conftest import choi_state, reshuffle


def _finish(number: int, label: str, failures: list[str], elapsed: float, limit: float) -> None:
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit:.0f}s")
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s)")
    for f in failures:
        print(f"         - {f}")
    assert not failures, f"criterion {number} failed: {failures}"


def _scenario_failures(result) -> list[str]:
    return [
        f"{c.label}: residual {c.residual:.3e} > tol {c.tolerance:.1e}"
        for c in result.checks
        if not c.passed
    ]


def test_criterion_1_qutrit_extreme_family():
    t0 = time.perf_counter()
    result = run_scenario("qutrit-extreme")
    failures = _scenario_failures(result)
    if result.family_dim != 5:
        failures.append(f"family dimension {result.family_dim} != 5")
    if result.max_delta_nd > 1e-9:
        failures.append(f"max recovery deviation {result.max_delta_nd:.3e} > 1e-9")
    _finish(1, "qutrit extreme channel gives the 5-parameter block family", failures,
            time.perf_counter() - t0, limit=1.0)


def test_criterion_2_bitflip_memory_family():
    t0 = time.perf_counter()
    result = run_scenario("bitflip-memory")
    failures = _scenario_failures(result)
    if result.family_dim != 12:
        failures.append(f"family dimension {result.family_dim} != 12")
    _finish(2, "bit flip with partial memory gives the 12 Pauli products", failures,
            time.perf_counter() - t0, limit=2.0)


def test_criterion_3_three_unitary_invariant_subspaces():
    t0 = time.perf_counter()
    result = run_scenario("ru-three-unitaries")
    failures = _scenario_failures(result)
    if result.family_dim != 3:
        failures.append(f"family dimension {result.family_dim} != 3")
    _finish(3, "three qutrit unitaries give 5+5 invariant subspaces and a 3-parameter family",
            failures, time.perf_counter() - t0, limit=1.0)


def test_criterion_4_two_unitary_families():
    t0 = time.perf_counter()
    failures = []
    failures += _scenario_failures(run_scenario("ru-two-qubit"))
    failures += _scenario_failures(run_scenario("ru-degenerate"))

    rng = np.random.default_rng(404)
    for d in (2, 3, 4):
        for k in range(50):
            U1 = q.haar_random_unitary(d, rng)
            U2 = q.haar_random_unitary(d, rng)
            grouping, fam = q.two_unitary_family(U1, U2)
            if fam.n_params < d:
                failures.append(f"pair {k} at d={d}: n_params {fam.n_params} < {d}")
            if fam.n_params != sum(m * m for m in grouping.multiplicities):
                failures.append(f"pair {k} at d={d}: parameter count disagrees with multiplicities")
    _finish(4, "two-unitary families: qubit pair 2, degenerate qutrit pair 5, always >= d",
            failures, time.perf_counter() - t0, limit=5.0)


def test_criterion_5_pauli_irrep_identity_only():
    t0 = time.perf_counter()
    result = run_scenario("pauli-irrep")
    failures = _scenario_failures(result)
    if result.family_dim != 1:
        failures.append(f"family dimension {result.family_dim} != 1")
    _finish(5, "Pauli error set admits only the identity observable (both routes)",
            failures, time.perf_counter() - t0, limit=1.0)


def test_criterion_6_equivalence_covariance():
    t0 = time.perf_counter()
    result = run_scenario("equivalence-covariance")
    failures = _scenario_failures(result)
    _finish(6, "families transform covariantly under channel equivalence (20 tuples, d=2,3)",
            failures, time.perf_counter() - t0, limit=10.0)


def test_criterion_7_partial_recovery_closed_forms():
    t0 = time.perf_counter()
    result = run_scenario("partial-recovery")
    failures = _scenario_failures(result)
    _finish(7, "partial recovery matches the closed-form deviations and improves on the grid",
            failures, time.perf_counter() - t0, limit=5.0)


def test_criterion_8_representation_identities():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(808)
    counts = {2: 34, 3: 33, 4: 33}
    for d, n in counts.items():
        eye = np.eye(d * d)
        for k in range(n):
            ch = q.random_cptp_channel(d, 2, rng)
            T = q.transfer_from_kraus(ch)

            reshuffled = d * reshuffle(choi_state(ch.kraus))
            if np.linalg.norm(reshuffled - T.gamma) > 1e-10:
                failures.append(f"d={d} #{k}: choi reshuffle mismatch")

            adj_oracle = sum(np.kron(A.conj().T, A.T) for A in ch.kraus)
            if np.linalg.norm(q.adjoint_transfer(T).gamma - adj_oracle) > 1e-10:
                failures.append(f"d={d} #{k}: adjoint mismatch")

            s = np.linalg.svd(T.gamma, compute_uv=False)
            if s[-1] <= 1e-6 * s[0]:
                continue  # inversion identities need an invertible draw
            Ti = q.inverse_transfer(T)
            if np.linalg.norm(q.compose(T, Ti).gamma - eye) > 1e-10:
                failures.append(f"d={d} #{k}: inverse composition mismatch")
            comm = q.adjoint_transfer(Ti).gamma - q.inverse_transfer(q.adjoint_transfer(T)).gamma
            if np.linalg.norm(comm) > 1e-10:
                failures.append(f"d={d} #{k}: adjoint/inverse do not commute")

            A = random_hermitian(d, rng)
            rho = q.random_density_matrix(d, rng)
            lhs = np.trace(A @ q.apply_channel(T, rho))
            rhs = np.trace(
                q.devectorize(q.adjoint_transfer(T).gamma @ q.vectorize(A), d) @ rho
            )
            if abs(lhs - rhs) > 1e-10:
                failures.append(f"d={d} #{k}: expectation duality violated")
    _finish(8, "representation identities hold on 100 random channels (d=2,3,4)",
            failures, time.perf_counter() - t0, limit=10.0)


def test_criterion_9_quorum_pipeline():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(909)

    for k in range(50):
        d = 2 if k % 2 == 0 else 3
        gp = q.GuessPair.from_transfers(
            q.transfer_from_kraus(q.random_cptp_channel(d, 2, rng)),
            q.transfer_from_kraus(q.random_cptp_channel(d, 2, rng)),
        )
        A = random_hermitian(d, rng)
        rho = q.random_density_matrix(d, rng)
        est = q.deconvolved_estimate(gp, A, rho, q.quorum_basis(d), shots_per_element=0, seed=0)
        if abs(est.mean - q.evaluate(gp, A, rho).deconvolved) > 1e-10:
            failures.append(f"instance {k}: exact mode deviates from direct evaluation")

    gp = q.GuessPair.from_transfers(
        q.transfer_from_kraus(q.random_cptp_channel(2, 3, rng)),
        q.transfer_from_kraus(q.random_cptp_channel(2, 2, rng)),
    )
    A = random_hermitian(2, rng)
    rho = q.random_density_matrix(2, rng)
    exact = q.evaluate(gp, A, rho).deconvolved
    qb = q.quorum_basis(2)
    hits = 0
    reps = 200
    for k in range(reps):
        est = q.deconvolved_estimate(gp, A, rho, qb, shots_per_element=10**4, seed=5000 + k)
        if abs(est.mean - exact) <= 3 * est.std_error:
            hits += 1
    if hits / reps < 0.95:
        failures.append(f"coverage {hits}/{reps} below 95%")
    _finish(9, "quorum pipeline: exact mode matches, 3-sigma coverage at 10^4 shots >= 95%",
            failures, time.perf_counter() - t0, limit=60.0)


def test_criterion_10_guess_independence():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1010)
    for k in range(20):
        Us = [q.haar_random_unitary(3, rng) for _ in range(3)]
        fams = [
            q.ru_correctable_family(q.UnitaryErrorSet.from_unitaries(Us, guess_index=g))
            for g in range(3)
        ]
        for a in range(3):
            for b in range(a + 1, 3):
                res = max(
                    q.span_residual(fams[a], fams[b]), q.span_residual(fams[b], fams[a])
                )
                if fams[a].n_params != fams[b].n_params or res > 1e-9:
                    failures.append(
                        f"set {k}: guesses {a},{b} disagree "
                        f"(dims {fams[a].n_params}/{fams[b].n_params}, residual {res:.3e})"
                    )
    _finish(10, "correctable family independent of the guess index (20 random sets, d=3)",
            failures, time.perf_counter() - t0, limit=10.0)
