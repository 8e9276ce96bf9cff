import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qdeconv as q
from qdeconv.channels import _ginibre_states, _kron, random_hermitian
from qdeconv.scenarios import qutrit_extreme_channel, three_unitary_error_set

from conftest import SIGMA, apply_kraus, choi_state, kron, matrix_unit, reshuffle


# ---------------------------------------------------------------------------
# vectorize / devectorize
# ---------------------------------------------------------------------------

def test_vectorize_identity_layout():
    assert_allclose(q.vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))


def test_vectorize_pauli_x_layout():
    assert_allclose(q.vectorize(SIGMA[1]), np.array([0, 1, 1, 0], dtype=complex))


def test_vectorize_roundtrip_exact(rng):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(q.devectorize(q.vectorize(M), 3), M)


def test_vectorize_rejects_nonsquare():
    with pytest.raises(ValueError):
        q.vectorize(np.zeros((2, 3)))


@settings(deadline=None, max_examples=30)
@given(d=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
def test_vectorize_roundtrip_property(d, seed):
    g = np.random.default_rng(seed)
    M = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    assert np.array_equal(q.devectorize(q.vectorize(M), d), M)
    # row-major layout: entry (i, j) lands at i*d + j
    v = q.vectorize(M)
    i, j = int(g.integers(d)), int(g.integers(d))
    assert v[i * d + j] == M[i, j]


# ---------------------------------------------------------------------------
# transfer matrix
# ---------------------------------------------------------------------------

def test_transfer_identity_channel():
    T = q.transfer_from_kraus(q.unitary_channel(np.eye(3)))
    assert_allclose(T.gamma, np.eye(9))


def test_transfer_pauli_x_conjugation():
    T = q.transfer_from_kraus(q.unitary_channel(SIGMA[1]))
    assert_allclose(T.gamma, kron(SIGMA[1], SIGMA[1]))


def test_transfer_matches_kraus_action_on_matrix_units():
    ch = qutrit_extreme_channel(np.pi / 2)
    T = q.transfer_from_kraus(ch)
    for i in range(3):
        for j in range(3):
            E = matrix_unit(3, i, j)
            assert_allclose(
                T.gamma @ q.vectorize(E), q.vectorize(apply_kraus(ch.kraus, E)), atol=1e-14
            )


def test_transfer_trace_preservation_invariant(rng):
    for d in (2, 3, 4):
        T = q.transfer_from_kraus(q.random_cptp_channel(d, 3, rng))
        assert T.trace_preservation_residual() < 1e-12


@pytest.mark.parametrize("d, n_kraus", [(1, 2), (2, 1), (2, 4), (3, 3), (8, 5)])
def test_transfer_equals_the_sum_of_krons(d, n_kraus):
    # one product sums over the operators in another order than the loop of
    # krons, so entries may differ by a few roundings of unit-size products
    ch = q.random_cptp_channel(d, n_kraus, np.random.default_rng(10 * d + n_kraus))
    expected = sum(np.kron(A, A.conj()) for A in ch.kraus)
    assert_allclose(q.transfer_from_kraus(ch).gamma, expected, rtol=0, atol=4 * n_kraus * np.finfo(float).eps)


def test_reshuffle_bitflip():
    p = 0.2
    ch = q.KrausChannel.from_operators([np.sqrt(1 - p) * SIGMA[0], np.sqrt(p) * SIGMA[1]])
    expected = (1 - p) * np.eye(4) + p * kron(SIGMA[1], SIGMA[1])
    assert_allclose(2 * reshuffle(choi_state(ch.kraus)), expected, atol=1e-14)
    assert_allclose(q.transfer_from_kraus(ch).gamma, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# adjoint / inverse / apply / compose
# ---------------------------------------------------------------------------

def test_adjoint_pauli_channel_self_adjoint():
    ch = q.random_unitary_channel([0.4, 0.3, 0.2, 0.1], list(SIGMA))
    T = q.transfer_from_kraus(ch)
    assert np.linalg.norm(q.adjoint_transfer(T).gamma - T.gamma) < 1e-12


def test_adjoint_matches_kraus_form():
    ch = qutrit_extreme_channel(0.7)
    T = q.transfer_from_kraus(ch)
    oracle = sum(kron(A.conj().T, A.T) for A in ch.kraus)
    assert np.linalg.norm(q.adjoint_transfer(T).gamma - oracle) < 1e-12


def test_adjoint_identity():
    T = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))
    assert_allclose(q.adjoint_transfer(T).gamma, np.eye(4))


def test_inverse_unitary_conjugation():
    U = three_unitary_error_set()[0]
    T = q.transfer_from_kraus(q.unitary_channel(U))
    assert np.linalg.norm(q.inverse_transfer(T).gamma - kron(U.conj().T, U.T)) < 1e-12


def test_inverse_correlated_bitflip_quarter():
    p = 0.25
    x4 = kron(SIGMA[1], SIGMA[1], SIGMA[1], SIGMA[1])
    gamma = (1 - p) * np.eye(16) + p * x4
    inv = q.inverse_transfer(q.TransferMatrix(dim=4, gamma=gamma))
    assert_allclose(inv.gamma, 1.5 * np.eye(16) - 0.5 * x4, atol=1e-12)


def test_inverse_correlated_bitflip_half_is_singular():
    gamma = 0.5 * np.eye(16) + 0.5 * kron(SIGMA[1], SIGMA[1], SIGMA[1], SIGMA[1])
    with pytest.raises(q.SingularChannelError):
        q.inverse_transfer(q.TransferMatrix(dim=4, gamma=gamma))


def test_apply_identity_channel(rng):
    T = q.transfer_from_kraus(q.unitary_channel(np.eye(3)))
    rho = q.random_density_matrix(3, rng)
    assert_allclose(q.apply_channel(T, rho), rho, atol=1e-14)


def test_apply_full_bitflip():
    T = q.transfer_from_kraus(q.unitary_channel(SIGMA[1]))
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert_allclose(q.apply_channel(T, ket0), np.diag([0.0, 1.0]), atol=1e-14)


def test_apply_extreme_qutrit_is_unital():
    ch = qutrit_extreme_channel(2.2)
    T = q.transfer_from_kraus(ch)
    assert_allclose(q.apply_channel(T, np.eye(3) / 3), np.eye(3) / 3, atol=1e-12)
    # agrees with the Kraus-sum oracle on a generic state
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert_allclose(q.apply_channel(T, rho), apply_kraus(ch.kraus, rho), atol=1e-13)


def test_apply_dimension_mismatch():
    T = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))
    with pytest.raises(ValueError):
        q.apply_channel(T, np.eye(3))


def test_compose_with_inverse_is_identity(rng):
    T = q.transfer_from_kraus(q.random_cptp_channel(3, 2, rng))
    assert np.linalg.norm(q.compose(T, q.inverse_transfer(T)).gamma - np.eye(9)) < 1e-10


def test_compose_unitary_with_dagger():
    U = three_unitary_error_set()[1]
    T = q.transfer_from_kraus(q.unitary_channel(U))
    Td = q.transfer_from_kraus(q.unitary_channel(U.conj().T))
    assert np.linalg.norm(q.compose(T, Td).gamma - np.eye(9)) < 1e-12


def test_compose_triple_matches_composite_kraus(rng):
    ch = q.random_cptp_channel(2, 2, rng)
    U = q.haar_random_unitary(2, rng)
    V = q.haar_random_unitary(2, rng)
    left = q.compose(
        q.transfer_from_kraus(q.unitary_channel(V)),
        q.compose(q.transfer_from_kraus(ch), q.transfer_from_kraus(q.unitary_channel(U))),
    )
    composite = q.KrausChannel.from_operators([V @ A @ U for A in ch.kraus])
    assert np.linalg.norm(left.gamma - q.transfer_from_kraus(composite).gamma) < 1e-12


def test_compose_dimension_mismatch():
    T2 = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))
    T3 = q.transfer_from_kraus(q.unitary_channel(np.eye(3)))
    with pytest.raises(ValueError):
        q.compose(T2, T3)


# ---------------------------------------------------------------------------
# constructors and diagnostics
# ---------------------------------------------------------------------------

def test_unitary_channel_identity():
    ch = q.unitary_channel(np.eye(2))
    assert ch.dim == 2 and len(ch.kraus) == 1


def test_unitary_channel_pauli_x_transfer():
    T = q.transfer_from_kraus(q.unitary_channel(SIGMA[1]))
    assert_allclose(T.gamma, kron(SIGMA[1], SIGMA[1]))


def test_unitary_channel_reference_unitaries_pass():
    for U in three_unitary_error_set():
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) < 1e-12
        q.unitary_channel(U)


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(q.NonUnitaryError):
        q.unitary_channel(0.9 * np.eye(2))


@pytest.mark.parametrize("entry", [np.inf, 1e300])
def test_unitarity_checks_reject_an_overflowing_matrix_without_a_warning(entry):
    # warnings are errors in this suite: U^dag U overflows, and inf * 0 is NaN
    U = np.eye(2, dtype=complex)
    U[0, 0] = entry
    assert not q.is_unitary(U)
    with pytest.raises(q.NonUnitaryError):
        q.unitary_channel(U)


def test_random_unitary_channel_trivial():
    ch = q.random_unitary_channel([1.0], [np.eye(2)])
    assert_allclose(ch.kraus[0], np.eye(2))


def test_random_unitary_channel_two_unitaries():
    U1 = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    U2 = SIGMA[1]
    ch = q.random_unitary_channel([0.7, 0.3], [U1, U2])
    assert_allclose(ch.kraus[0], np.sqrt(0.7) * U1)
    assert_allclose(ch.kraus[1], np.sqrt(0.3) * U2)
    assert ch.trace_preservation_residual() < 1e-12


def test_random_unitary_channel_uniform_pauli_is_unital():
    ch = q.random_unitary_channel([0.25] * 4, list(SIGMA))
    T = q.transfer_from_kraus(ch)
    assert_allclose(T.gamma @ q.vectorize(np.eye(2) / 2), q.vectorize(np.eye(2) / 2), atol=1e-12)


def test_random_unitary_channel_invalid_probability():
    with pytest.raises(q.InvalidProbabilityError):
        q.random_unitary_channel([0.7, 0.7], [np.eye(2), SIGMA[1]])
    with pytest.raises(q.InvalidProbabilityError):
        q.random_unitary_channel([1.2, -0.2], [np.eye(2), SIGMA[1]])


def test_random_unitary_channel_non_unitary():
    with pytest.raises(q.NonUnitaryError):
        q.random_unitary_channel([0.5, 0.5], [np.eye(2), 0.5 * SIGMA[1]])


def test_convex_combination_scales_each_part_by_the_root_of_its_weight():
    flip = q.random_unitary_channel([0.5, 0.5], [np.eye(2), SIGMA[1]])
    ch = q.convex_combination([0.2, 0.8], [flip, q.unitary_channel(SIGMA[3])])
    assert [A.tolist() for A in ch.kraus] == [
        (np.sqrt(0.2) * A).tolist() for A in flip.kraus
    ] + [(np.sqrt(0.8) * SIGMA[3]).tolist()]


def test_convex_combination_mixes_the_clipped_weights():
    # -1e-10 is a probability within DEFAULT_TOL: it weighs as 0, without a warning
    ch = q.convex_combination([1.0000000001, -1e-10], [q.unitary_channel(np.eye(2)), q.unitary_channel(SIGMA[1])])
    assert np.array_equal(ch.kraus[1], np.zeros((2, 2)))
    assert np.array_equal(ch.kraus[0], np.sqrt(1.0000000001) * np.eye(2))


def test_convex_combination_rejects_bad_weights_counts_and_dimensions():
    parts = [q.unitary_channel(np.eye(2)), q.unitary_channel(SIGMA[1])]
    with pytest.raises(q.InvalidProbabilityError, match="probabilities sum to 1.4"):
        q.convex_combination([0.7, 0.7], parts)
    with pytest.raises(ValueError, match="^3 weights for 2 parts$"):
        q.convex_combination([0.5, 0.25, 0.25], parts)
    with pytest.raises(ValueError, match="^all parts must share one dimension$"):
        q.convex_combination([0.5, 0.5], [parts[0], q.unitary_channel(np.eye(3))])


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), n_parts=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_random_unitary_channel_is_the_convex_combination_of_its_unitaries(d, n_parts, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_parts))
    Us = [q.haar_random_unitary(d, rng) for _ in range(n_parts)]
    direct = q.random_unitary_channel(p, Us)
    mixed = q.convex_combination(p, [q.unitary_channel(U) for U in Us])
    assert len(direct.kraus) == len(mixed.kraus) == n_parts
    assert all(np.array_equal(A, B) for A, B in zip(direct.kraus, mixed.kraus))


def test_is_cptp_extreme_qutrit():
    ch = qutrit_extreme_channel(1.3)
    assert q.is_cptp(ch) is True
    assert ch.trace_preservation_residual() < 1e-12


def test_is_cptp_flags_trace_violation():
    ch = q.KrausChannel.from_operators([0.9 * np.eye(2)])
    assert q.is_cptp(ch) is False
    assert ch.trace_preservation_residual() == pytest.approx(np.linalg.norm(0.81 * np.eye(2) - np.eye(2)))


def test_is_cptp_reports_a_nan_channel_without_eigvalsh(monkeypatch):
    def eigvalsh(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert q.is_cptp(q.KrausChannel.from_operators([np.array([[np.nan, 0], [0, 1]])])) is False


@pytest.mark.parametrize("entry", [np.inf, 1e300])
def test_is_cptp_reports_an_overflowing_channel_without_a_warning(entry):
    # warnings are errors in this suite: the products' overflow and inf - inf
    # would warn from trace_preservation_residual
    A = np.eye(2, dtype=complex)
    A[0, 1] = entry
    ch = q.KrausChannel.from_operators([A])
    assert not np.isfinite(ch.trace_preservation_residual())
    assert q.is_cptp(ch) is False


@settings(deadline=None, max_examples=200)
@given(data=st.data(), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), log_residual=st.floats(-16, -9.3))
def test_trace_preserving_kraus_lists_are_completely_positive(data, d, seed, log_residual):
    """Why ``is_cptp`` checks trace preservation only: ``sum_k A_k^dag A_k`` is
    a sum of PSD terms, so a list that passes bounds every ``||A_k||_op`` by
    ``sqrt(1 + tol)``, and the Choi floor of its Kraus form is pure rounding.
    Operators span 11 decades of scale, and the list is pushed to a
    trace-preservation residual ``r`` up to ``10**-9.3``, near the tolerance:
    the map is scaled by ``1 + r / sqrt(d)``, since ``||(1 + e) I_d - I_d||_F``
    is ``e sqrt(d)``."""
    k = data.draw(st.integers(1, 2 * d * d), label="k")
    scales = data.draw(st.lists(st.floats(-8, 3), min_size=k, max_size=k), label="log_scales")
    g = np.random.default_rng(seed)
    ops = [10**s * (g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))) for s in scales]
    # Householder QR: the stacked blocks A_k R^-1 have orthonormal columns to rounding
    Q, _ = np.linalg.qr(np.vstack(ops))
    lift = np.sqrt(1 + 10**log_residual / np.sqrt(d))
    ch = q.KrausChannel(dim=d, kraus=tuple(lift * Q[i * d : (i + 1) * d] for i in range(k)))
    assert q.is_cptp(ch) is True
    assert np.linalg.eigvalsh(choi_state(ch.kraus)).min() >= -1e-12


def test_inverse_of_noisy_channel_is_not_cp():
    ch = q.KrausChannel.from_operators([np.sqrt(0.8) * SIGMA[0], np.sqrt(0.2) * SIGMA[1]])
    T_inv = q.inverse_transfer(q.transfer_from_kraus(ch))
    eigs = np.linalg.eigvalsh(reshuffle(T_inv.gamma) / 2)
    assert eigs.min() < -1e-6


# ---------------------------------------------------------------------------
# representation identities on random channels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4])
def test_representation_identities(d, rng):
    for _ in range(5):
        ch = q.random_cptp_channel(d, 2, rng)
        T = q.transfer_from_kraus(ch)
        # choi reshuffle round trip
        assert np.linalg.norm(d * reshuffle(choi_state(ch.kraus)) - T.gamma) < 1e-12
        # adjoint in Kraus form
        oracle = sum(kron(A.conj().T, A.T) for A in ch.kraus)
        assert np.linalg.norm(q.adjoint_transfer(T).gamma - oracle) < 1e-12
        # inverse composition and adjoint/inverse commutation
        s = np.linalg.svd(T.gamma, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            Ti = q.inverse_transfer(T)
            assert np.linalg.norm(q.compose(T, Ti).gamma - np.eye(d * d)) < 1e-10
            lhs = q.adjoint_transfer(Ti).gamma
            rhs = q.inverse_transfer(q.adjoint_transfer(T)).gamma
            assert np.linalg.norm(lhs - rhs) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expectation_duality(d, rng):
    ch = q.random_cptp_channel(d, 3, rng)
    T = q.transfer_from_kraus(ch)
    for _ in range(5):
        A = random_hermitian(d, rng)
        rho = q.random_density_matrix(d, rng)
        lhs = np.trace(A @ q.apply_channel(T, rho))
        rhs = np.trace(q.devectorize(q.adjoint_transfer(T).gamma @ q.vectorize(A), d) @ rho)
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_apply_preserves_trace_and_hermiticity(d, rng):
    ch = q.random_cptp_channel(d, 2, rng)
    T = q.transfer_from_kraus(ch)
    rho = q.random_density_matrix(d, rng)
    out = q.apply_channel(T, rho)
    assert abs(np.trace(out) - 1) < 1e-10
    assert np.linalg.norm(out - out.conj().T) < 1e-10


# ---------------------------------------------------------------------------
# predicates, probability vectors, samplers
# ---------------------------------------------------------------------------

def test_predicates():
    assert q.is_hermitian(SIGMA[2])
    assert not q.is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert q.is_unitary(SIGMA[1]) and not q.is_unitary(0.5 * SIGMA[1])
    assert q.is_positive_semidefinite(np.diag([1.0, 0.0]))
    assert not q.is_positive_semidefinite(np.diag([1.0, -0.1]))
    assert q.is_density_matrix(np.eye(2) / 2)
    assert not q.is_density_matrix(np.eye(2))


@pytest.mark.parametrize("predicate", [q.is_positive_semidefinite, q.is_density_matrix])
def test_state_predicates_accept_nested_lists(predicate):
    assert predicate([[0.5, 0], [0, 0.5]])
    assert not predicate([[1.5, 0], [0, -0.5]])


def test_validate_probabilities():
    p = q.validate_probabilities([0.25, 0.75])
    assert_allclose(p, [0.25, 0.75])
    with pytest.raises(q.InvalidProbabilityError):
        q.validate_probabilities([0.5, 0.6])
    with pytest.raises(q.InvalidProbabilityError):
        q.validate_probabilities([-0.1, 1.1])
    for bad in ([np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [-np.inf, 1.0]):
        with pytest.raises(q.InvalidProbabilityError):
            q.validate_probabilities(bad)


def test_samplers(rng):
    rho = q.random_density_matrix(3, rng)
    assert q.is_density_matrix(rho)
    U = q.haar_random_unitary(4, rng)
    assert q.is_unitary(U, 1e-10)
    ch = q.random_cptp_channel(3, 3, rng)
    assert q.is_cptp(ch) is True


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_lean_kron_equals_numpy_kron(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    C = rng.normal(size=(2, 2))
    assert np.array_equal(_kron(A, B), np.kron(A, B))
    assert np.array_equal(_kron(A, A.conj()), np.kron(A, A.conj()))
    assert np.array_equal(_kron(A, B, C), np.kron(np.kron(A, B), C))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
def test_batched_states_equal_one_state_at_a_time(d):
    one_at_a_time, batched = np.random.default_rng(d), np.random.default_rng(d)
    states = [q.random_density_matrix(d, one_at_a_time) for _ in range(5)]
    assert np.array_equal(_ginibre_states(batched.normal(size=(5, 2 * d * d)), d), np.stack(states))
    # both generators are left at the same position
    assert one_at_a_time.normal() == batched.normal()


def test_kraus_channel_validation():
    with pytest.raises(ValueError):
        q.KrausChannel(dim=2, kraus=())
    with pytest.raises(ValueError):
        q.KrausChannel(dim=2, kraus=(np.eye(3),))
    with pytest.raises(ValueError):
        q.KrausChannel(dim=0, kraus=(np.zeros((0, 0)),))


def test_from_operators_rejects_a_non_matrix_operator():
    with pytest.raises(ValueError, match="Kraus operator must be 2-dimensional, got shape"):
        q.KrausChannel.from_operators([np.array(1.0)])


def _equal_but_distinct_values():
    from qdeconv.serialization import unitary_spec

    U1, U2 = np.eye(2), SIGMA[3]
    builders = {
        "KrausChannel": lambda: q.KrausChannel.from_operators([U2]),
        "TransferMatrix": lambda: q.transfer_from_kraus(q.unitary_channel(U2)),
        "ChannelSpec": lambda: unitary_spec("z", U2),
        "GuessPair": lambda: q.GuessPair.from_transfers(*(q.transfer_from_kraus(q.unitary_channel(U)) for U in (U1, U2))),
        "ObservableFamily": lambda: q.ObservableFamily.from_basis(2, [U1 / np.sqrt(2)]),
        "QuorumBasis": lambda: q.quorum_basis(2),
        "UnitaryErrorSet": lambda: q.UnitaryErrorSet.from_unitaries([U1, U2]),
        "EigGrouping": lambda: q.eig_grouping(U2),
    }
    return [pytest.param(build, id=name) for name, build in builders.items()]


@pytest.mark.parametrize("build", _equal_but_distinct_values())
def test_array_holding_values_compare_and_hash_by_identity(build):
    # generated field-wise equality raised "truth value of an array is ambiguous"
    a, b = build(), build()
    assert (a == b) is False and (a == a) is True and (a != b) is True
    assert hash(a) == hash(a) and len({a, b}) == 2
