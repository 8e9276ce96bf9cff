import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qdeconv as q
from qdeconv.deconvolution import _hermitian_basis
from qdeconv.random_unitary import DEFAULT_GROUPING_TOL, _group_indices
from qdeconv.scenarios import (
    qubit_pair_unitaries,
    qutrit_pair_unitaries,
    three_unitary_error_set,
)

from conftest import SIGMA, coordinates_oracle, kron, matrix_unit, null_coordinates_oracle


@pytest.fixture
def qutrit_set():
    return q.UnitaryErrorSet.from_unitaries(list(three_unitary_error_set()), guess_index=0)


# ---------------------------------------------------------------------------
# gamma_i
# ---------------------------------------------------------------------------

def test_gamma_at_guess_index_is_identity(qutrit_set):
    assert_allclose(q.gamma_i(qutrit_set, 0), np.eye(9), atol=1e-14)


def test_gamma_comparison_eigenvalues(qutrit_set):
    U1, U2, _ = three_unitary_error_set()
    V = U2.conj().T @ U1
    eigs = sorted(np.linalg.eigvals(V), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert_allclose(eigs, [-1j, 1, 1], atol=1e-12)
    assert np.linalg.norm(q.gamma_i(qutrit_set, 1) - kron(V, V.conj())) < 1e-13


def test_gamma_two_unitary_form():
    U1, U2 = qubit_pair_unitaries()
    es = q.UnitaryErrorSet.from_unitaries([U1, U2], guess_index=1)
    W = U1.conj().T @ U2
    assert np.linalg.norm(q.gamma_i(es, 0) - kron(W, W.conj())) < 1e-13


def test_gamma_matrices_are_unitary(qutrit_set):
    for i in range(3):
        G = q.gamma_i(qutrit_set, i)
        assert np.linalg.norm(G.conj().T @ G - np.eye(9)) < 1e-10


def test_gamma_index_out_of_range(qutrit_set):
    with pytest.raises(IndexError):
        q.gamma_i(qutrit_set, 3)


def test_error_set_validation():
    with pytest.raises(q.NonUnitaryError):
        q.UnitaryErrorSet.from_unitaries([np.eye(2), 0.5 * SIGMA[1]])
    with pytest.raises(ValueError):
        q.UnitaryErrorSet.from_unitaries([np.eye(2)], guess_index=4)


def test_from_unitaries_rejects_an_empty_list_and_a_non_matrix():
    with pytest.raises(ValueError, match="need at least one unitary error operator"):
        q.UnitaryErrorSet.from_unitaries([])
    with pytest.raises(ValueError, match="unitary 0 must be 2-dimensional, got shape"):
        q.UnitaryErrorSet.from_unitaries([np.array(1.0)])
    with pytest.raises(ValueError, match="unitary 0 must be 2-dimensional, got shape"):
        q.commutant_family([np.array(1.0)])


# ---------------------------------------------------------------------------
# invariant subspaces
# ---------------------------------------------------------------------------

def test_invariant_subspace_of_identity():
    vecs = q.invariant_subspace(np.eye(4))
    assert len(vecs) == 4


def test_invariant_subspace_listed_spans(qutrit_set):
    s2 = q.invariant_subspace(q.gamma_i(qutrit_set, 1))
    assert len(s2) == 5
    e = [np.eye(3)[:, k] for k in range(3)]
    expected2 = [kron(e[a], e[b]) for a, b in [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]]
    E2 = np.column_stack(expected2)
    Q2, _ = np.linalg.qr(E2)
    for v in s2:
        assert np.linalg.norm(v - Q2 @ (Q2.conj().T @ v)) < 1e-10

    s3 = q.invariant_subspace(q.gamma_i(qutrit_set, 2))
    assert len(s3) == 5
    mu = [
        np.array([1, 0, -1]) / np.sqrt(2),
        np.array([1, 0, 1]) / np.sqrt(2),
        np.array([0, 1, 0.0]),
    ]
    expected3 = [kron(mu[a], mu[b]) for a, b in [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]]
    E3 = np.column_stack(expected3)
    Q3, _ = np.linalg.qr(E3)
    for v in s3:
        assert np.linalg.norm(v - Q3 @ (Q3.conj().T @ v)) < 1e-10


def test_invariant_subspace_can_be_empty():
    # rotation by an angle with no unit eigenvalue on the doubled space
    theta = 0.7
    U = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    phase = np.exp(0.31j)
    vecs = q.invariant_subspace(phase * np.eye(2) @ U)
    assert vecs == []


@pytest.mark.parametrize("G", [np.array(1.0), np.ones(3), np.ones((2, 3))], ids=["0-d", "1-d", "2x3"])
def test_invariant_subspace_rejects_a_non_square_input(G):
    with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got {G.shape}")):
        q.invariant_subspace(G)


# ---------------------------------------------------------------------------
# ru_correctable_family
# ---------------------------------------------------------------------------

def test_ru_family_three_unitaries(qutrit_set):
    fam = q.ru_correctable_family(qutrit_set)
    assert fam.n_params == 3
    pattern = q.ObservableFamily.from_basis(
        3,
        [
            (matrix_unit(3, 0, 0) + matrix_unit(3, 2, 2)) / np.sqrt(2),
            (matrix_unit(3, 0, 2) + matrix_unit(3, 2, 0)) / np.sqrt(2),
            matrix_unit(3, 1, 1),
        ],
    )
    assert q.span_residual(fam, pattern) < 1e-9
    assert q.span_residual(pattern, fam) < 1e-9


def test_ru_family_satisfies_transformation_constraint(qutrit_set):
    fam = q.ru_correctable_family(qutrit_set)
    Us = qutrit_set.unitaries
    for A in fam.basis:
        ref = Us[0] @ A @ Us[0].conj().T
        for U in Us[1:]:
            assert np.linalg.norm(U @ A @ U.conj().T - ref) < 1e-9


def test_ru_family_pauli_error_set():
    es = q.UnitaryErrorSet.from_unitaries(list(SIGMA), guess_index=0)
    fam = q.ru_correctable_family(es)
    assert fam.n_params == 1
    assert min(
        np.linalg.norm(fam.basis[0] - np.eye(2) / np.sqrt(2)),
        np.linalg.norm(fam.basis[0] + np.eye(2) / np.sqrt(2)),
    ) < 1e-10


def test_ru_family_ignores_rounding_in_the_guess():
    # (1 + 1e-11) X passes the unitarity check; its own comparison block
    # (c^4 - 1) I must not become a constraint
    X, Y = SIGMA[1], SIGMA[2]
    exact = q.ru_correctable_family(q.UnitaryErrorSet.from_unitaries([X, Y]))
    scaled = q.ru_correctable_family(q.UnitaryErrorSet.from_unitaries([(1 + 1e-11) * X, Y]))
    assert exact.n_params == scaled.n_params == 2


def test_ru_family_skips_the_coordinates_of_the_guess_own_pair(qutrit_set, monkeypatch):
    # one pass over the transfer matrices per constraining pair; the guess's
    # own coordinates are never formed
    import qdeconv.deconvolution as dc

    calls = []
    for name in ("_coordinates", "_deviation_coordinates"):
        f = getattr(dc, name)
        monkeypatch.setattr(dc, name, lambda *args, f=f, name=name: calls.append(name) or f(*args))
    transfers = [q.TransferMatrix(dim=3, gamma=kron(U, U.conj())) for U in qutrit_set.unitaries]
    # every true channel an equal copy, so the guess's own pair takes the general route
    copied = q.common_correctable_family(
        [q.GuessPair(phi=q.TransferMatrix(dim=3, gamma=t.gamma.copy()), phi_g=transfers[0]) for t in transfers]
    )
    assert calls == ["_deviation_coordinates"] * 3
    calls.clear()
    fam = q.ru_correctable_family(qutrit_set)
    assert calls == ["_deviation_coordinates"] * 2
    assert np.array_equal(fam._stacked, copied._stacked)


@pytest.mark.parametrize("route", ["repeated", "copied"])
def test_a_pair_without_halves_leaves_the_block_route_working(route, monkeypatch):
    # d = 8: the identity twice and two commuting unitaries.  The second
    # identity's pair (or, copied, every true channel an equal copy, so the
    # guess's own pair too) is exactly zero and has no half; the 8-member
    # family fails the identity seed, and the block route reads the other two
    import qdeconv.deconvolution as dc

    monkeypatch.setattr(dc, "_svd_null_coordinates", lambda *args: pytest.fail("the full SVD decided"))
    rng = np.random.default_rng(8)
    V = q.haar_random_unitary(8, rng)
    Us = [np.eye(8), np.eye(8)] + [V @ np.diag(np.exp(2j * np.pi * rng.random(8))) @ V.conj().T for _ in range(2)]
    if route == "repeated":
        fam = q.ru_correctable_family(q.UnitaryErrorSet.from_unitaries(Us))
    else:
        transfers = [q.TransferMatrix(dim=8, gamma=kron(U, U.conj())) for U in Us]
        fam = q.common_correctable_family(
            [q.GuessPair(phi=q.TransferMatrix(dim=8, gamma=t.gamma.copy()), phi_g=transfers[0]) for t in transfers]
        )
    # the operators diagonal in V's eigenbasis
    want = q.ObservableFamily.from_basis(8, [np.outer(v, v.conj()) for v in V.T])
    assert fam.n_params == 8 and q.spans_coincide(fam, want)


def test_ru_family_singleton_is_unconstrained(rng):
    U = q.haar_random_unitary(3, rng)
    es = q.UnitaryErrorSet.from_unitaries([U])
    assert q.ru_correctable_family(es).n_params == 9


def test_ru_family_guess_independent(qutrit_set, rng):
    fams = [
        q.ru_correctable_family(
            q.UnitaryErrorSet(dim=3, unitaries=qutrit_set.unitaries, guess_index=g)
        )
        for g in range(3)
    ]
    for a in fams:
        for b in fams:
            assert q.spans_coincide(a, b, 1e-9)
    # and for a random error set
    Us = [q.haar_random_unitary(3, rng) for _ in range(3)]
    fams_r = [
        q.ru_correctable_family(q.UnitaryErrorSet.from_unitaries(Us, guess_index=g))
        for g in range(3)
    ]
    for a in fams_r:
        for b in fams_r:
            assert q.spans_coincide(a, b, 1e-9)


def test_ru_family_recovery_over_random_probabilities(qutrit_set, rng):
    fam = q.ru_correctable_family(qutrit_set)
    guess = q.transfer_from_kraus(q.unitary_channel(qutrit_set.guess))
    for _ in range(10):
        probs = rng.dirichlet(np.ones(3))
        channel = q.transfer_from_kraus(q.random_unitary_channel(probs, list(qutrit_set.unitaries)))
        gp = q.GuessPair.from_transfers(channel, guess)
        assert q.verify_family(gp, fam, 50, seed=9) <= 1e-9


# ---------------------------------------------------------------------------
# two_unitary_family
# ---------------------------------------------------------------------------

def test_two_unitary_qubit_pair():
    U1, U2 = qubit_pair_unitaries()
    grouping, fam = q.two_unitary_family(U1, U2)
    assert sorted(np.real(grouping.eigenvalues)) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert fam.n_params == 2
    # orthonormal basis of span{I, [[2, 1], [1, 0]]}
    expected = q.ObservableFamily.from_basis(
        2, [np.eye(2) / np.sqrt(2), np.array([[1, 1], [1, -1]]) / 2]
    )
    assert q.span_residual(fam, expected) < 1e-9
    assert q.span_residual(expected, fam) < 1e-9


def test_two_unitary_degenerate_qutrit_pair():
    U1, U2 = qutrit_pair_unitaries()
    grouping, fam = q.two_unitary_family(U1, U2)
    eigs = sorted(grouping.eigenvalues, key=lambda z: z.real)
    assert abs(eigs[0] + 1) < 1e-10
    assert abs(eigs[1] - 1) < 1e-10 and abs(eigs[2] - 1) < 1e-10
    assert sorted(grouping.multiplicities) == [1, 2]
    assert fam.n_params == 5


def _degenerate_group_basis(U1, U2):
    grouping, fam = q.two_unitary_family(U1, U2)
    start = 0
    for group in grouping.groups:
        if len(group) > 1:
            return fam.basis[start:start + len(group) ** 2]
        start += len(group) ** 2
    raise AssertionError("no degenerate group")


_U1, _U2, _U3 = three_unitary_error_set()


@pytest.mark.parametrize(
    "U1, U2",
    [qutrit_pair_unitaries(), (_U1, _U2), (_U1, _U3), (_U2, _U3)],
    ids=["qutrit-pair", "units-1-2", "units-1-3", "units-2-3"],
)
def test_two_unitary_degenerate_basis_ignores_global_phase(U1, U2):
    # U2 and e^{i theta} U2 give the same channel; eigh returns a different
    # basis of the degenerate eigenspace for each theta
    reference = _degenerate_group_basis(U1, U2)
    for theta in np.linspace(-3.0, 3.0, 25):
        basis = _degenerate_group_basis(U1, np.exp(1j * theta) * U2)
        assert len(basis) == len(reference)
        for A, B in zip(basis, reference):
            assert np.linalg.norm(A - B) < 1e-12


def test_two_unitary_equal_inputs_fully_degenerate(rng):
    U = q.haar_random_unitary(3, rng)
    grouping, fam = q.two_unitary_family(U, U)
    assert grouping.multiplicities == (3,)
    assert fam.n_params == 9


def test_two_unitary_agrees_with_invariant_subspace_route():
    for U1, U2 in (qubit_pair_unitaries(), qutrit_pair_unitaries()):
        _, fam = q.two_unitary_family(U1, U2)
        es = q.UnitaryErrorSet.from_unitaries([U1, U2], guess_index=1)
        fam_ru = q.ru_correctable_family(es)
        assert q.spans_coincide(fam, fam_ru, 1e-9)


def test_two_unitary_param_count_lower_bound(rng):
    for d in (2, 3, 4):
        for _ in range(5):
            U1 = q.haar_random_unitary(d, rng)
            U2 = q.haar_random_unitary(d, rng)
            grouping, fam = q.two_unitary_family(U1, U2)
            assert fam.n_params >= d
            assert fam.n_params == sum(m * m for m in grouping.multiplicities)


@st.composite
def planted_spectra(draw):
    """``(d, multiplicities, phases)``: one phase per group, at least 1e-3 apart on the circle."""
    d = draw(st.sampled_from([2, 3, 4]))
    multiplicities = []
    while sum(multiplicities) < d:
        multiplicities.append(draw(st.integers(1, d - sum(multiplicities))))
    phases = draw(st.lists(st.floats(-np.pi, np.pi), min_size=len(multiplicities), max_size=len(multiplicities)))
    ordered = np.sort(phases)
    assume(np.diff(ordered, append=ordered[0] + 2 * np.pi).min() >= 1e-3)
    return d, multiplicities, phases


@settings(max_examples=60, deadline=None)
@given(spectrum=planted_spectra(), seed=st.integers(0, 2**32 - 1))
def test_two_unitary_family_is_the_commutant_of_a_planted_spectrum(spectrum, seed):
    d, multiplicities, phases = spectrum
    Q = q.haar_random_unitary(d, np.random.default_rng(seed))
    W = Q @ np.diag(np.exp(1j * np.repeat(phases, multiplicities))) @ Q.conj().T
    grouping, fam = q.two_unitary_family(np.eye(d), W)
    assert sorted(grouping.multiplicities) == sorted(multiplicities)
    assert fam.n_params == sum(m * m for m in multiplicities) >= d
    assert q.spans_coincide(fam, q.commutant_family([W]), 1e-9)


def test_two_unitary_rejects_bad_input():
    with pytest.raises(q.NonUnitaryError):
        q.two_unitary_family(0.5 * np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        q.two_unitary_family(np.eye(2), np.eye(3))


def test_eig_grouping_phase_convention(rng):
    W = q.haar_random_unitary(4, rng)
    grouping = q.eig_grouping(W)
    for v in grouping.eigenvectors:
        lead = v[int(np.argmax(np.abs(v)))]
        assert lead.real > 0 and abs(lead.imag) < 1e-12
    # eigenpairs reproduce the matrix action
    for lam, v in zip(grouping.eigenvalues, grouping.eigenvectors):
        assert np.linalg.norm(W @ v - lam * v) < 1e-10


def test_eig_grouping_sorts_minus_one_last(rng):
    # angles lie in (-pi, pi]; rounding used to put -1 first or last at random
    for _ in range(20):
        Q = q.haar_random_unitary(3, rng)
        grouping = q.eig_grouping(Q @ np.diag([-1.0, 1.0, 1j]) @ Q.conj().T)
        assert abs(grouping.eigenvalues[-1] + 1) < 1e-12


def _eigenphases(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "degenerate":
        return rng.choice(rng.uniform(-np.pi, np.pi, max(1, d // 2)), d)
    if kind == "conjugate-pair":
        t = rng.uniform(0.1, np.pi - 0.1, (d + 1) // 2)
        return np.concatenate([t, -t])[:d]
    if kind == "near-degenerate":
        return rng.uniform(-np.pi, np.pi) + 1e-5 * np.arange(d)
    return rng.uniform(-np.pi, np.pi, d)


def _group_projectors(groups, vecs) -> list[np.ndarray]:
    out = []
    for g in groups:
        V = np.column_stack([vecs[i] for i in g])
        out.append(V @ V.conj().T)
    return out


SPECTRUM_KINDS = ("generic", "degenerate", "conjugate-pair", "near-degenerate")


@pytest.mark.parametrize("kind", SPECTRUM_KINDS)
def test_eig_grouping_matches_schur_oracle(kind):
    # the complex Schur form of a unitary is diagonal: its vectors are an
    # independent eigenbasis, sorted and grouped here as eig_grouping does
    import scipy.linalg  # the oracle only; qdeconv itself runs on numpy alone

    rng = np.random.default_rng(SPECTRUM_KINDS.index(kind))
    for d in range(2, 7):
        for _ in range(16):
            Q = q.haar_random_unitary(d, rng)
            W = Q @ np.diag(np.exp(1j * _eigenphases(kind, d, rng))) @ Q.conj().T
            T, Z = scipy.linalg.schur(W, output="complex")
            order = sorted(range(d), key=lambda k: (round(float(np.angle(T[k, k])), 12), k))
            evals = np.diag(T)[order]
            groups = sorted(_group_indices(evals, DEFAULT_GROUPING_TOL), key=lambda g: g[0])

            grouping = q.eig_grouping(W)
            assert grouping.groups == tuple(tuple(g) for g in groups)
            assert np.max(np.abs(np.array(grouping.eigenvalues) - evals)) <= 1e-12
            expected = _group_projectors(groups, [Z[:, k] for k in order])
            got = _group_projectors(grouping.groups, grouping.eigenvectors)
            assert max(np.linalg.norm(a - b) for a, b in zip(got, expected)) <= 1e-9


@pytest.mark.parametrize("centre", [np.pi / 2, -np.pi / 2, 0.0, np.pi], ids=["+i", "-i", "+1", "-1"])
def test_eig_grouping_resolves_close_eigenvalues_anywhere_on_the_circle(rng, centre):
    # near +-i the real part of the eigenvalues separates them and the
    # imaginary part does not, near +-1 the other way round; 1e-7 apart they
    # are distinct at the 1e-8 grouping tolerance
    phases = centre + 1e-7 * np.array([0.0, 1.0, 3.0])
    Q = q.haar_random_unitary(3, rng)
    grouping = q.eig_grouping(Q @ np.diag(np.exp(1j * phases)) @ Q.conj().T)
    assert grouping.groups == ((0,), (1,), (2,))
    for lam, v in zip(grouping.eigenvalues, grouping.eigenvectors):
        k = int(np.argmin(np.abs(np.exp(1j * phases) - lam)))
        assert np.linalg.norm(np.outer(v, v.conj()) - np.outer(Q[:, k], Q[:, k].conj())) <= 1e-7


def test_mixing_with_comparison_unitary_leaves_family_invariant(rng):
    # noise (1-p) id + p W conjugation with identity guess: members commute
    # with W and the modified observable is the observable itself
    U1, U2 = qutrit_pair_unitaries()
    W = U1.conj().T @ U2
    _, fam = q.two_unitary_family(np.eye(3), W)
    p = float(rng.uniform(0.1, 0.9))
    channel = q.transfer_from_kraus(q.random_unitary_channel([1 - p, p], [np.eye(3), W]))
    gp = q.GuessPair.from_transfers(channel, q.transfer_from_kraus(q.unitary_channel(np.eye(3))))
    for A in fam.basis:
        assert np.linalg.norm(W @ A @ W.conj().T - A) < 1e-9
        assert np.linalg.norm(q.modified_observable(gp, A) - A) < 1e-9


# ---------------------------------------------------------------------------
# commutant_family
# ---------------------------------------------------------------------------

def test_commutant_pauli_generators():
    fam = q.commutant_family([SIGMA[1], SIGMA[3]])
    assert fam.n_params == 1
    assert min(
        np.linalg.norm(fam.basis[0] - np.eye(2) / np.sqrt(2)),
        np.linalg.norm(fam.basis[0] + np.eye(2) / np.sqrt(2)),
    ) < 1e-10


def test_commutant_single_diagonal_unitary():
    U = np.diag(np.exp(1j * np.array([0.1, 0.9, 2.2])))
    fam = q.commutant_family([U])
    assert fam.n_params == 3
    for A in fam.basis:
        assert np.linalg.norm(A - np.diag(np.diag(A))) < 1e-10


def test_commutant_builds_its_error_set_once(monkeypatch):
    post_init = q.UnitaryErrorSet.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(q.UnitaryErrorSet, "__post_init__", counted)
    q.commutant_family([SIGMA[1], SIGMA[3]])
    assert len(calls) == 1
    with pytest.raises(ValueError, match="need at least one unitary error operator"):
        q.commutant_family([])
    with pytest.raises(q.NonUnitaryError, match="operator 1 fails the unitarity check"):
        q.commutant_family([SIGMA[1], 0.5 * SIGMA[3]])


def test_commutant_identity_only():
    assert q.commutant_family([np.eye(3)]).n_params == 9


def test_commutant_members_commute(rng):
    U = q.haar_random_unitary(3, rng)
    fam = q.commutant_family([U])
    for A in fam.basis:
        assert np.linalg.norm(U @ A - A @ U) < 1e-9


# ---------------------------------------------------------------------------
# Hermitian kernel primitive
# ---------------------------------------------------------------------------

def _commuting_unitaries(d, n, rng):
    # shared eigenbasis with repeated phases, so the families are nontrivial
    B = q.haar_random_unitary(d, rng)
    return [B @ np.diag(np.exp(1j * rng.choice([0.0, 2.1], size=d))) @ B.conj().T for _ in range(n)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_sizes_match_complex_joint_kernel(d):
    rng = np.random.default_rng(200 + d)
    eye = np.eye(d)
    for Us in (
        _commuting_unitaries(d, 3, rng),
        _commuting_unitaries(d, 2, rng) + [q.haar_random_unitary(d, rng)],
        [q.haar_random_unitary(d, rng) for _ in range(3)],
    ):
        es = q.UnitaryErrorSet.from_unitaries(Us, guess_index=1)
        comparisons = [q.gamma_i(es, i) - np.eye(d * d) for i in (0, 2)]
        assert q.ru_correctable_family(es).n_params == len(q.joint_kernel(comparisons, d * d))
        commutators = [np.kron(U, eye) - np.kron(eye, U.T) for U in Us]
        assert q.commutant_family(Us).n_params == len(q.joint_kernel(commutators, d * d))


def _stacked_constraint_family(blocks, d):
    """Hermitian null space of stacked ``d^2 x d^2`` constraints, from the coordinate and SVD oracles."""
    W = null_coordinates_oracle([coordinates_oracle(M, d) for M in blocks], d * d, q.DEFAULT_KERNEL_RTOL)
    i1, i2, w1, w2 = _hermitian_basis(d)
    B = np.zeros((d * d, d * d), dtype=complex)
    np.add.at(B, (i1, np.arange(d * d)), w1)
    np.add.at(B, (i2, np.arange(d * d)), w2)
    return q.ObservableFamily.from_basis(d, list((B @ W).T.reshape(-1, d, d)))


def _oracle_error_sets():
    rng = np.random.default_rng(31)
    sets = [("three-unitary", list(three_unitary_error_set())), ("pauli", list(SIGMA))]
    for d in (2, 3, 4):
        sets += [(f"haar-d{d}-n{n}", [q.haar_random_unitary(d, rng) for _ in range(n)]) for n in (2, 3)]
        sets.append((f"commuting-d{d}", _commuting_unitaries(d, 3, rng)))
    return sets


@pytest.mark.parametrize("Us", [pytest.param(Us, id=name) for name, Us in _oracle_error_sets()])
def test_families_span_the_stacked_constraint_null_space(Us):
    # the families once were the null spaces of the stacked G_i - I (guess
    # block left out) and of the commutators kron(U, I) - kron(I, U^T)
    d = Us[0].shape[0]
    for g in range(len(Us)):
        es = q.UnitaryErrorSet.from_unitaries(Us, guess_index=g)
        comparisons = [q.gamma_i(es, i) - np.eye(d * d) for i in range(len(Us)) if i != g]
        assert q.spans_coincide(q.ru_correctable_family(es), _stacked_constraint_family(comparisons, d), 1e-9)
    eye = np.eye(d)
    commutators = [np.kron(U, eye) - np.kron(eye, U.T) for U in Us]
    assert q.spans_coincide(q.commutant_family(Us), _stacked_constraint_family(commutators, d), 1e-9)


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e6, 1e9])
def test_hermitian_kernel_ignores_block_scale(qutrit_set, scale):
    # the two comparison matrices have different 5-dimensional kernels
    blocks = [q.gamma_i(qutrit_set, i) - np.eye(9) for i in (1, 2)]
    ref = q.deconvolution._hermitian_kernel(blocks, 3, q.DEFAULT_KERNEL_RTOL)
    scaled = q.deconvolution._hermitian_kernel([blocks[0], scale * blocks[1]], 3, q.DEFAULT_KERNEL_RTOL)
    assert ref.n_params == scaled.n_params == 3
    assert q.spans_coincide(ref, scaled, 1e-10)
