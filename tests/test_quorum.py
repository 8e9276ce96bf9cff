import re
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qdeconv as q
from qdeconv.channels import MAX_DIM, random_hermitian
from qdeconv.quorum import _element_seeds, _outcome_counts
from qdeconv.scenarios import (
    bitflip_correlated,
    bitflip_with_memory,
    qubit_pair_unitaries,
    qutrit_extreme_channel,
    recovery_probe_observable,
)

from conftest import SIGMA, apply_kraus, choice_estimate, kron


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
    for Q, E in zip(qb.basis, expected):
        assert np.linalg.norm(Q - E) < 1e-14


def test_quorum_d3_gram_matrix():
    qb = q.quorum_basis(3)
    assert len(qb.basis) == 9
    gram = np.array([[q.hs_inner(a, b) for b in qb.basis] for a in qb.basis])
    assert np.linalg.norm(gram - np.eye(9)) < 1e-12


def test_quorum_d4_spans_hermitian_space():
    qb = q.quorum_basis(4)
    stacked = np.column_stack([q.vectorize(Q) for Q in qb.basis])
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == 16


def test_quorum_rejects_small_dim():
    with pytest.raises(ValueError):
        q.quorum_basis(1)


def test_quorum_basis_rejects_dimension_above_max(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("quorum_basis allocated before checking its dimension")

    monkeypatch.setattr(np, "eye", forbidden)
    monkeypatch.setattr(np, "zeros", forbidden)
    with pytest.raises(ValueError, match=rf"product dimension {MAX_DIM + 1} exceeds supported maximum {MAX_DIM}"):
        q.quorum_basis(MAX_DIM + 1)


def test_pauli_product_quorum_two_qubits():
    qb = q.pauli_product_quorum(2)
    assert qb.dim == 4 and len(qb.basis) == 16
    assert np.linalg.norm(qb.basis[0] - np.eye(4) / 2) < 1e-14
    gram = np.array([[q.hs_inner(a, b) for b in qb.basis] for a in qb.basis])
    assert np.linalg.norm(gram - np.eye(16)) < 1e-12


def _kron_quorum(base, n_factors):
    """Nested ``np.kron`` products in lexicographic order."""
    combos = product(range(base.n_params), repeat=n_factors)
    return np.array([kron(*(base.basis[k] for k in combo)) for combo in combos])


@pytest.mark.parametrize("n_factors", [1, 2, 3])
@pytest.mark.parametrize("base", [q.quorum_basis(2), q.quorum_basis(3)], ids=["gell-mann-2", "gell-mann-3"])
def test_tensor_product_quorum_equals_nested_kron(base, n_factors):
    qb = q.tensor_product_quorum(base, n_factors)
    assert np.array_equal(np.array(qb.basis), _kron_quorum(base, n_factors))


@pytest.mark.parametrize("base_dim, n_factors", [(2, 7), (8, 3), (65, 1), (4, 40)])
def test_tensor_product_quorum_rejects_dimension_above_max(base_dim, n_factors):
    # a stand-in base without elements: the check must fire before anything is built
    dim = base_dim**n_factors
    with pytest.raises(ValueError, match=rf"product dimension {dim} exceeds supported maximum {MAX_DIM}"):
        q.tensor_product_quorum(SimpleNamespace(dim=base_dim), n_factors)


def test_tensor_product_quorum_admits_max_dim():
    # the check passes at the limit, so the stand-in's missing elements are reached
    with pytest.raises(AttributeError):
        q.tensor_product_quorum(SimpleNamespace(dim=2), 6)


def test_quorum_elements_are_read_only_and_owned():
    source = [np.array(Q) for Q in q.quorum_basis(2).basis]
    qb = q.QuorumBasis(dim=2, basis=tuple(source))
    source[1][0, 1] = 5.0
    assert qb.basis[1][0, 1] == 1 / np.sqrt(2)
    for Q in qb.basis + q.pauli_product_quorum(2).basis:
        assert not Q.flags.writeable
    with pytest.raises(ValueError):
        qb.basis[1][0, 1] = 5.0
    with pytest.raises(ValueError):
        qb.basis[1].setflags(write=True)


def test_quorum_basis_names_the_first_bad_element():
    good = list(q.quorum_basis(2).basis)
    upper = np.array([[0, 1], [0, 0]], dtype=complex)
    cases = [
        (good[:2] + [np.eye(3), np.eye(3)], r"element 2 has shape \(3, 3\)"),
        (good[:1] + [upper, good[2], upper], "element 1 is not Hermitian"),
        ([good[0], good[1], good[1], good[1]], "elements 1,2 are not orthogonal"),
        (good[:2] + [np.sqrt(2) * good[2], good[3]], "element 2 has <Q_2, Q_2> = 2, expected 1 within 1e-10"),
    ]
    for elements, message in cases:
        with pytest.raises(ValueError, match=message):
            q.QuorumBasis(dim=2, basis=tuple(elements))


QUORUM_CASES = [("gell-mann", d) for d in (2, 3, 4)] + [("pauli-product", n) for n in (1, 2)]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(QUORUM_CASES),
    scale=st.sampled_from([0.5, np.sqrt(2), 2.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_quorum_is_a_complete_orthonormal_family(case, scale, seed, data):
    kind, k = case
    if kind == "gell-mann":
        qb, base, n_factors = q.quorum_basis(k), q.quorum_basis(k), 1
    else:
        qb, base, n_factors = q.pauli_product_quorum(k), q.quorum_basis(2), k
    d = qb.dim
    assert isinstance(qb, q.ObservableFamily) and qb.n_params == d * d
    A = random_hermitian(d, np.random.default_rng(seed))
    assert np.abs(qb.member(q.decompose(A, qb)) - A).max() <= 1e-12
    assert np.array_equal(np.array(qb.basis), _kron_quorum(base, n_factors))

    m = data.draw(st.integers(0, d * d - 1))
    incomplete = qb.basis[:m] + qb.basis[m + 1 :]
    with pytest.raises(ValueError, match=f"a dim-{d} quorum needs {d * d} elements, got {d * d - 1}"):
        q.QuorumBasis(dim=d, basis=incomplete)
    scaled = qb.basis[:m] + (scale * qb.basis[m],) + qb.basis[m + 1 :]
    with pytest.raises(ValueError, match=re.escape(f"element {m} has <Q_{m}, Q_{m}> = {scale**2:g}, expected 1")):
        q.QuorumBasis(dim=d, basis=scaled)
    if kind == "pauli-product":
        raw = tuple(kron(*(SIGMA[j] for j in combo)) for combo in product(range(4), repeat=k))
        with pytest.raises(ValueError, match=re.escape(f"element 0 has <Q_0, Q_0> = {2**k}, expected 1")):
            q.QuorumBasis(dim=d, basis=raw)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_basis_element_gives_unit_vector():
    qb = q.quorum_basis(3)
    coeffs = q.decompose(qb.basis[4], qb)
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
        recon = sum(c * Q for c, Q in zip(coeffs, qb.basis))
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


def test_chi_matrix_takes_one_solve(rng, monkeypatch):
    gp = guess_pair(q.random_cptp_channel(3, 2, rng), q.random_cptp_channel(3, 2, rng))
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(np.shape(b)) or solve(a, b))
    q.chi_matrix(gp, q.quorum_basis(3))
    assert solves == [(9, 9)]


def test_chi_correlated_bitflip_diagonal_in_pauli_quorum():
    p = 0.25
    gp = guess_pair(bitflip_with_memory(p, 0.5), bitflip_correlated(p))
    qb = q.pauli_product_quorum(2)
    chi = q.chi_matrix(gp, qb)
    assert np.linalg.norm(chi - np.diag(np.diag(chi))) < 1e-12
    # apply the closed-form inverse to each quorum element as the oracle
    x4 = kron(SIGMA[1], SIGMA[1], SIGMA[1], SIGMA[1])
    inv_gamma = (1 - p) / (1 - 2 * p) * np.eye(16) - p / (1 - 2 * p) * x4
    for m, Q in enumerate(qb.basis):
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


def _oracle_cases():
    rng = np.random.default_rng(31)
    cases = {}
    for d in (2, 3, 4, 16):
        cases[f"mixed-d{d}"] = (q.random_density_matrix(d, rng), random_hermitian(d, rng))
    U = q.haar_random_unitary(4, rng)
    # the state lives on two of the four eigenvectors: two outcomes never occur
    cases["zero-probabilities-d4"] = (
        U @ np.diag([0.3, 0.0, 0.7, 0.0]) @ U.conj().T,
        U @ np.diag([-1.0, 0.5, 2.0, 3.0]) @ U.conj().T,
    )
    V = q.haar_random_unitary(3, rng)
    cases["degenerate-d3"] = (q.random_density_matrix(3, rng), V @ np.diag([1.0, 1.0, -1.0]) @ V.conj().T)
    # a Pauli product: eigenvalues +-1/4, each eight-fold degenerate
    cases["pauli-product-d16"] = (q.random_density_matrix(16, rng), q.pauli_product_quorum(4).basis[27])
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("shots", [1, 2, 37, 10**4])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_counted_estimate_equals_per_shot_sampler(case, shots):
    rho, Q = ORACLE_CASES[case]
    for seed in (0, 7, 2**40 + 3):
        est = q.sample_expectation(rho, Q, shots, seed)
        mean, std_error = choice_estimate(rho, Q, shots, seed)
        assert abs(est.mean - mean) <= 1e-12
        assert abs(est.std_error - std_error) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(
        st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 1.0, allow_subnormal=False),
        min_size=1,
        max_size=12,
    ).filter(lambda w: sum(w) > 0),
    shots=st.integers(1, 500),
    seed=st.integers(0, 2**64 - 1),
)
def test_outcome_counts_equal_bincount_of_choice(weights, shots, seed):
    p = np.array(weights) / sum(weights)
    indices = np.random.default_rng(seed).choice(len(p), size=shots, p=p)
    assert np.array_equal(_outcome_counts(p, shots, seed), np.bincount(indices, minlength=len(p)))


@pytest.mark.parametrize(
    "qb", [q.quorum_basis(3), q.pauli_product_quorum(2)], ids=["gell-mann-3", "pauli-product-2"]
)
def test_deconvolved_estimate_equals_per_shot_recombination(qb, rng):
    d = qb.dim
    true_ch = q.random_cptp_channel(d, 3, rng)
    gp = guess_pair(true_ch, q.random_cptp_channel(d, 2, rng))
    A = random_hermitian(d, rng)
    rho = q.random_density_matrix(d, rng)
    noisy = apply_kraus(true_ch.kraus, rho)
    weights = q.decompose(q.modified_observable(gp, A), qb)
    scale = np.abs(weights).sum()
    for shots in (1, 37, 10**4):
        est = q.deconvolved_estimate(gp, A, rho, qb, shots, seed=11)
        seeds = _element_seeds(11, len(qb.basis))
        means, errs = np.array([choice_estimate(noisy, Q, shots, s) for Q, s in zip(qb.basis, seeds)]).T
        assert abs(est.mean - weights @ means) <= 1e-12 * scale
        assert abs(est.std_error - np.sqrt(np.sum((weights * errs) ** 2))) <= 1e-12 * scale


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
        w * np.trace(Q @ noisy).real for w, Q in zip(weights, qb.basis)
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
        q.QuorumBasis(dim=2, basis=(np.eye(2),))
    with pytest.raises(ValueError):
        q.QuorumBasis(dim=2, basis=(np.eye(2), np.eye(2), SIGMA[1], SIGMA[2]))
