import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdeconv as q
from qdeconv.channels import random_hermitian
from qdeconv.scenarios import (
    bitflip_correlated,
    bitflip_with_memory,
    qubit_pair_unitaries,
    qutrit_extreme_channel,
    recovery_probe_observable,
)

from conftest import SIGMA, kron


def guess_pair(true_ch, guess_ch):
    return q.GuessPair.from_transfers(
        q.transfer_from_kraus(true_ch), q.transfer_from_kraus(guess_ch)
    )


# ---------------------------------------------------------------------------
# quorum bases
# ---------------------------------------------------------------------------

def test_quorum_d2_is_normalized_pauli_basis():
    qb = q.quorum_basis(2)
    expected = [s / np.sqrt(2) for s in SIGMA]
    for Q, E in zip(qb.elements, expected):
        assert np.linalg.norm(Q - E) < 1e-14


def test_quorum_d3_gram_matrix():
    qb = q.quorum_basis(3)
    assert len(qb.elements) == 9
    gram = np.array([[q.hs_inner(a, b) for b in qb.elements] for a in qb.elements])
    assert np.linalg.norm(gram - np.eye(9)) < 1e-12


def test_quorum_d4_spans_hermitian_space():
    qb = q.quorum_basis(4)
    stacked = np.column_stack([q.vectorize(Q) for Q in qb.elements])
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == 16


def test_quorum_rejects_small_dim():
    with pytest.raises(ValueError):
        q.quorum_basis(1)


def test_pauli_product_quorum_two_qubits():
    qb = q.pauli_product_quorum(2)
    assert qb.dim == 4 and len(qb.elements) == 16
    assert np.linalg.norm(qb.elements[0] - np.eye(4) / 2) < 1e-14
    gram = np.array([[q.hs_inner(a, b) for b in qb.elements] for a in qb.elements])
    assert np.linalg.norm(gram - np.eye(16)) < 1e-12


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_basis_element_gives_unit_vector():
    qb = q.quorum_basis(3)
    coeffs = q.decompose(qb.elements[4], qb)
    expected = np.zeros(9)
    expected[4] = 1.0
    assert_allclose(coeffs, expected, atol=1e-12)


def test_decompose_identity_hits_identity_element():
    qb = q.quorum_basis(3)
    coeffs = q.decompose(np.eye(3), qb)
    assert coeffs[0] == pytest.approx(np.sqrt(3))
    assert np.linalg.norm(coeffs[1:]) < 1e-12


def test_decompose_probe_observable_pauli_structure():
    qb = q.pauli_product_quorum(2)
    coeffs = q.decompose(recovery_probe_observable(), qb)
    # index of sigma_i (x) sigma_j in the lexicographic product order is 4i+j
    expected_support = {2, 3, 8, 12, 10, 11, 14, 15}
    nonzero = {int(k) for k in np.nonzero(np.abs(coeffs) > 1e-12)[0]}
    assert nonzero == expected_support
    for k in expected_support:
        assert coeffs[k] == pytest.approx(2.0)


def test_decompose_reconstructs(rng):
    for d in (2, 3, 4):
        qb = q.quorum_basis(d)
        A = random_hermitian(d, rng)
        coeffs = q.decompose(A, qb)
        recon = sum(c * Q for c, Q in zip(coeffs, qb.elements))
        assert np.linalg.norm(recon - A) < 1e-10


def test_decompose_linearity(rng):
    qb = q.quorum_basis(3)
    A, B = random_hermitian(3, rng), random_hermitian(3, rng)
    lhs = q.decompose(2.5 * A - 0.5 * B, qb)
    rhs = 2.5 * q.decompose(A, qb) - 0.5 * q.decompose(B, qb)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_decompose_rejects_non_hermitian():
    qb = q.quorum_basis(2)
    with pytest.raises(ValueError):
        q.decompose(np.array([[0, 1], [0, 0]], dtype=complex), qb)


# ---------------------------------------------------------------------------
# chi matrix
# ---------------------------------------------------------------------------

def test_chi_identity_guess(rng):
    ch = q.random_cptp_channel(2, 2, rng)
    gp = guess_pair(ch, q.unitary_channel(np.eye(2)))
    assert np.linalg.norm(q.chi_matrix(gp, q.quorum_basis(2)) - np.eye(4)) < 1e-12


def test_chi_unitary_guess_is_orthogonal(rng):
    U = q.haar_random_unitary(3, rng)
    ch = q.random_cptp_channel(3, 2, rng)
    gp = guess_pair(ch, q.unitary_channel(U))
    chi = q.chi_matrix(gp, q.quorum_basis(3))
    assert np.linalg.norm(chi.T @ chi - np.eye(9)) < 1e-10


def test_chi_correlated_bitflip_diagonal_in_pauli_quorum():
    p = 0.25
    gp = guess_pair(bitflip_with_memory(p, 0.5), bitflip_correlated(p))
    qb = q.pauli_product_quorum(2)
    chi = q.chi_matrix(gp, qb)
    assert np.linalg.norm(chi - np.diag(np.diag(chi))) < 1e-12
    # apply the closed-form inverse to each quorum element as the oracle
    x4 = kron(SIGMA[1], SIGMA[1], SIGMA[1], SIGMA[1])
    inv_gamma = (1 - p) / (1 - 2 * p) * np.eye(16) - p / (1 - 2 * p) * x4
    for m, Q in enumerate(qb.elements):
        expected = q.devectorize(inv_gamma.conj().T @ q.vectorize(Q), 4)
        assert abs(chi[m, m] - q.decompose(expected, qb)[m]) < 1e-12
    scaling = sorted(set(np.round(np.diag(chi), 9)))
    assert scaling == [pytest.approx(1.0), pytest.approx(1 / (1 - 2 * p))]


# ---------------------------------------------------------------------------
# shot sampling
# ---------------------------------------------------------------------------

def test_sample_deterministic_outcome():
    est = q.sample_expectation(np.diag([1.0, 0.0]).astype(complex), SIGMA[3], shots=100, seed=0)
    assert est.mean == 1.0 and est.std_error == 0.0


@pytest.mark.parametrize("pauli_idx", [1, 3])
def test_sample_maximally_mixed_within_bounds(pauli_idx):
    est = q.sample_expectation(np.eye(2) / 2, SIGMA[pauli_idx], shots=100000, seed=42)
    assert est.std_error > 0
    assert abs(est.mean) <= 5 * est.std_error


def test_sample_rejects_invalid_state():
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        q.sample_expectation(bad, SIGMA[3], shots=10, seed=0)


def test_sample_requires_positive_shots():
    with pytest.raises(ValueError):
        q.sample_expectation(np.eye(2) / 2, SIGMA[3], shots=0, seed=0)


def test_sample_deterministic_given_seed():
    a = q.sample_expectation(np.eye(2) / 2, SIGMA[1], shots=500, seed=7)
    b = q.sample_expectation(np.eye(2) / 2, SIGMA[1], shots=500, seed=7)
    assert a == b


def test_sample_clips_tiny_negative_probabilities():
    rho = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
    est = q.sample_expectation(rho, SIGMA[3], shots=50, seed=1)
    assert est.mean == 1.0


# ---------------------------------------------------------------------------
# deconvolved estimation
# ---------------------------------------------------------------------------

def test_exact_mode_reproduces_evaluate(rng):
    for d in (2, 3):
        ch = q.random_cptp_channel(d, 2, rng)
        guess = q.random_cptp_channel(d, 2, rng)
        gp = guess_pair(ch, guess)
        A = random_hermitian(d, rng)
        rho = q.random_density_matrix(d, rng)
        est = q.deconvolved_estimate(gp, A, rho, q.quorum_basis(d), shots_per_element=0, seed=0)
        assert abs(est.mean - q.evaluate(gp, A, rho).deconvolved) < 1e-10
        assert est.std_error == 0.0


def test_identity_estimate_is_one_even_with_shots(rng):
    ch = q.random_cptp_channel(2, 2, rng)
    gp = guess_pair(ch, q.random_cptp_channel(2, 2, rng))
    rho = q.random_density_matrix(2, rng)
    est = q.deconvolved_estimate(gp, np.eye(2), rho, q.quorum_basis(2), shots_per_element=64, seed=5)
    assert est.mean == pytest.approx(1.0, abs=1e-12)


def test_family_member_estimate_converges(rng):
    ch = qutrit_extreme_channel(np.pi / 2)
    gp = guess_pair(ch, qutrit_extreme_channel(0.0))
    fam = q.correctable_family(gp)
    A = fam.member([0.4, -0.2, 0.6, 0.3, 0.1])
    rho = q.random_density_matrix(3, rng)
    ideal = q.expectation(A, rho)
    est = q.deconvolved_estimate(gp, A, rho, q.quorum_basis(3), shots_per_element=10**6, seed=3)
    assert est.std_error < 0.01
    assert abs(est.mean - ideal) <= 5 * est.std_error


def test_chi_path_identity(rng):
    U1, U2 = qubit_pair_unitaries()
    gp = guess_pair(q.random_unitary_channel([0.6, 0.4], [U1, U2]), q.unitary_channel(U2))
    qb = q.quorum_basis(2)
    A = random_hermitian(2, rng)
    rho = q.random_density_matrix(2, rng)
    noisy = q.apply_channel(gp.phi, rho)
    weights = q.chi_matrix(gp, qb) @ q.decompose(A, qb)
    direct = sum(
        w * np.trace(Q @ noisy).real for w, Q in zip(weights, qb.elements)
    )
    assert abs(direct - q.evaluate(gp, A, rho).deconvolved) < 1e-10
    exact = q.deconvolved_estimate(gp, A, rho, qb, shots_per_element=0, seed=0)
    assert abs(exact.mean - direct) < 1e-12


def test_estimate_rejects_non_hermitian_observable(rng):
    gp = guess_pair(q.random_cptp_channel(2, 2, rng), q.random_cptp_channel(2, 2, rng))
    rho = q.random_density_matrix(2, rng)
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        q.deconvolved_estimate(gp, A, rho, q.quorum_basis(2), shots_per_element=0, seed=0)


def test_estimate_deterministic_given_seed(rng):
    ch = q.random_cptp_channel(2, 2, rng)
    gp = guess_pair(ch, q.random_cptp_channel(2, 2, rng))
    A = random_hermitian(2, rng)
    rho = q.random_density_matrix(2, rng)
    qb = q.quorum_basis(2)
    a = q.deconvolved_estimate(gp, A, rho, qb, shots_per_element=200, seed=8)
    b = q.deconvolved_estimate(gp, A, rho, qb, shots_per_element=200, seed=8)
    assert a == b
    c = q.deconvolved_estimate(gp, A, rho, qb, shots_per_element=200, seed=9)
    assert c.mean != a.mean


def test_estimate_statistical_soundness(rng):
    ch = q.random_cptp_channel(2, 3, rng)
    gp = guess_pair(ch, q.random_cptp_channel(2, 2, rng))
    A = random_hermitian(2, rng)
    rho = q.random_density_matrix(2, rng)
    exact = q.evaluate(gp, A, rho).deconvolved
    qb = q.quorum_basis(2)
    hits = 0
    reps = 60
    for k in range(reps):
        est = q.deconvolved_estimate(gp, A, rho, qb, shots_per_element=10**4, seed=1000 + k)
        if abs(est.mean - exact) <= 3 * est.std_error:
            hits += 1
    assert hits / reps >= 0.95


def test_estimate_rejects_negative_shots(rng):
    ch = q.random_cptp_channel(2, 2, rng)
    gp = guess_pair(ch, ch)
    with pytest.raises(ValueError):
        q.deconvolved_estimate(gp, np.eye(2), np.eye(2) / 2, q.quorum_basis(2), -1, 0)


def test_quorum_basis_validation():
    with pytest.raises(ValueError):
        q.QuorumBasis(dim=2, elements=(np.eye(2),), norms=np.array([1.0]))
    with pytest.raises(ValueError):
        q.QuorumBasis(
            dim=2,
            elements=(np.eye(2), np.eye(2), SIGMA[1], SIGMA[2]),
            norms=np.ones(4),
        )


def test_quorum_basis_rejects_norms_that_are_not_squared_norms(rng):
    with pytest.raises(ValueError, match=r"norms\[0\]"):
        q.QuorumBasis(dim=2, elements=q.quorum_basis(2).elements, norms=2 * np.ones(4))
    # unnormalized Paulis are a valid quorum once norms hold <Q, Q> = 2
    paulis = q.QuorumBasis(dim=2, elements=tuple(SIGMA), norms=2 * np.ones(4))
    A = random_hermitian(2, rng)
    coeffs = q.decompose(A, paulis)
    assert np.linalg.norm(sum(c * P for c, P in zip(coeffs, SIGMA)) - A) < 1e-12
