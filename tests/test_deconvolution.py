import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdeconv as q
from qdeconv.channels import random_hermitian
from qdeconv.serialization import emit_family
from qdeconv.scenarios import (
    bitflip_correlated,
    bitflip_with_memory,
    qubit_pair_unitaries,
    qutrit_extreme_channel,
    recovery_probe_observable,
    recovery_probe_state,
)

from conftest import SIGMA, apply_kraus, kron, matrix_unit, recovery_bound


def guess_pair(true_ch, guess_ch):
    return q.GuessPair.from_transfers(
        q.transfer_from_kraus(true_ch), q.transfer_from_kraus(guess_ch)
    )


def perturbed_qutrit_family(fam):
    """``fam`` with its first member nudged along an uncorrectable direction."""
    bad = fam.basis[0] + 0.01 * (matrix_unit(3, 0, 1) + matrix_unit(3, 1, 0))
    bad = bad / np.sqrt(q.hs_inner(bad, bad).real)
    return q.ObservableFamily.from_basis(3, [bad] + list(fam.basis[1:]))


@pytest.fixture
def qutrit_pair():
    return guess_pair(qutrit_extreme_channel(np.pi / 2), qutrit_extreme_channel(0.0))


@pytest.fixture
def bitflip_pair():
    return guess_pair(bitflip_with_memory(0.25, 0.4), bitflip_correlated(0.25))


# ---------------------------------------------------------------------------
# deviation operator
# ---------------------------------------------------------------------------

def test_deviation_vanishes_with_full_knowledge(rng):
    ch = q.random_cptp_channel(3, 2, rng)
    gp = guess_pair(ch, ch)
    assert np.linalg.norm(q.deviation_operator(gp)) < 1e-12


def test_deviation_extreme_qutrit_diagonal(qutrit_pair):
    w = np.exp(1j * np.pi / 2)
    expected = np.diag(
        [0, 1 - w.conjugate(), 1 - w.conjugate(), 1 - w, 0, 0, 1 - w, 0, 0]
    )
    assert np.linalg.norm(q.deviation_operator(qutrit_pair) - expected) < 1e-12


def test_deviation_two_unitary_form(rng):
    U1, U2 = qubit_pair_unitaries()
    p = 0.35
    gp = guess_pair(q.random_unitary_channel([1 - p, p], [U1, U2]), q.unitary_channel(U2))
    W = U1.conj().T @ U2
    expected = (1 - p) * (np.eye(4) - kron(W, W.conj()))
    assert np.linalg.norm(q.deviation_operator(gp) - expected) < 1e-12


def test_guess_pair_validates_lazy_inverse(monkeypatch):
    T = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))
    gp = q.GuessPair.from_transfers(T, T)
    monkeypatch.setattr(np.linalg, "inv", lambda a: 2 * np.eye(len(a)))
    with pytest.raises(ValueError, match="phi_g_inv is not the inverse of phi_g"):
        q.modified_observable(gp, np.eye(2))


def test_correctable_family_builds_no_inverse(bitflip_pair):
    q.correctable_family(bitflip_pair)
    assert "phi_g_inv" not in vars(bitflip_pair)
    q.modified_observable(bitflip_pair, np.eye(4))
    assert "phi_g_inv" in vars(bitflip_pair)


def test_guess_pair_rejects_guess_that_breaks_hermiticity():
    T = q.TransferMatrix(2, np.eye(4))
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        q.GuessPair.from_transfers(T, q.TransferMatrix(2, np.exp(0.3j) * np.eye(4)))


def test_guess_pair_rejects_singular_guess():
    phi = q.transfer_from_kraus(bitflip_with_memory(0.5, 0.3))
    with pytest.raises(q.SingularChannelError):
        q.GuessPair.from_transfers(phi, q.transfer_from_kraus(bitflip_correlated(0.5)))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_of_zero_matrix_is_everything():
    vecs = q.kernel(np.zeros((4, 4)))
    assert len(vecs) == 4
    V = np.column_stack(vecs)
    assert np.linalg.norm(V.conj().T @ V - np.eye(4)) < 1e-12


def test_kernel_extreme_qutrit_coordinates(qutrit_pair):
    vecs = q.kernel(q.deviation_operator(qutrit_pair))
    assert len(vecs) == 5
    # spanned exactly by coordinates {0, 4, 5, 7, 8}
    live = {0, 4, 5, 7, 8}
    for v in vecs:
        for idx in range(9):
            if idx not in live:
                assert abs(v[idx]) < 1e-12


def test_kernel_bitflip_matches_sigma_x_eigenvector_span():
    p, mu = 0.3, 0.6
    gp = guess_pair(bitflip_with_memory(p, mu), bitflip_correlated(p))
    vecs = q.kernel(q.deviation_operator(gp))
    assert len(vecs) == 12

    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    basis = {"+": plus, "-": minus}
    labels = [
        "++++", "----", "+++-", "++-+", "+-++", "-+++",
        "---+", "--+-", "-+--", "+---", "+-+-", "-+-+",
    ]
    expected = [kron(*(basis[c] for c in label)) for label in labels]
    E = np.column_stack(expected)
    Qm, _ = np.linalg.qr(E)
    for v in vecs:
        r = v - Qm @ (Qm.conj().T @ v)
        assert np.linalg.norm(r) < 1e-10


def test_kernel_deterministic_ordering(qutrit_pair):
    F = q.deviation_operator(qutrit_pair)
    first = q.kernel(F)
    second = q.kernel(F.copy())
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# hermitian section
# ---------------------------------------------------------------------------

def test_hermitian_section_extreme_qutrit(qutrit_pair):
    fam = q.hermitian_section(q.kernel(q.deviation_operator(qutrit_pair)), 3)
    assert fam.n_params == 5
    pattern = [
        matrix_unit(3, 0, 0),
        matrix_unit(3, 1, 1),
        matrix_unit(3, 2, 2),
        (matrix_unit(3, 1, 2) + matrix_unit(3, 2, 1)) / np.sqrt(2),
        (-1j * matrix_unit(3, 1, 2) + 1j * matrix_unit(3, 2, 1)) / np.sqrt(2),
    ]
    expected = q.ObservableFamily.from_basis(3, pattern)
    assert q.span_residual(fam, expected) < 1e-10
    assert q.span_residual(expected, fam) < 1e-10


def test_hermitian_section_bitflip_pauli_products(bitflip_pair):
    fam = q.hermitian_section(q.kernel(q.deviation_operator(bitflip_pair)), 4)
    assert fam.n_params == 12
    prods = (
        [kron(SIGMA[i], SIGMA[j]) / 2 for i in (0, 1) for j in (2, 3)]
        + [kron(SIGMA[j], SIGMA[i]) / 2 for i in (0, 1) for j in (2, 3)]
        + [kron(SIGMA[i], SIGMA[j]) / 2 for i in (0, 1) for j in (0, 1)]
    )
    expected = q.ObservableFamily.from_basis(4, prods)
    assert q.span_residual(fam, expected) < 1e-10
    assert q.span_residual(expected, fam) < 1e-10


def test_hermitian_section_of_antihermitian_ray():
    # the complex span of vec(i*sigma_z) contains the Hermitian ray sigma_z;
    # a repeated spanning vector adds nothing
    for copies in (1, 2):
        fam = q.hermitian_section([q.vectorize(1j * SIGMA[3])] * copies, 2)
        assert fam.n_params == 1
        assert min(
            np.linalg.norm(fam.basis[0] - SIGMA[3] / np.sqrt(2)),
            np.linalg.norm(fam.basis[0] + SIGMA[3] / np.sqrt(2)),
        ) < 1e-12


def test_hermitian_section_empty_input():
    fam = q.hermitian_section([], 3)
    assert fam.n_params == 0 and fam.basis == ()


def test_hermitian_section_full_space_gives_d_squared():
    for d in (2, 3):
        fam = q.hermitian_section(q.kernel(np.zeros((d * d, d * d))), d)
        assert fam.n_params == d * d


# ---------------------------------------------------------------------------
# modified observable
# ---------------------------------------------------------------------------

def _adjoint_map_matrix(kraus, d):
    """Matrix of X -> sum_k A_k^dag X A_k, built entrywise (oracle)."""
    cols = []
    for j in range(d * d):
        E = q.devectorize(np.eye(d * d)[:, j], d)
        out = sum(A.conj().T @ E @ A for A in kraus)
        cols.append(q.vectorize(out))
    return np.column_stack(cols)


def test_modified_observable_extreme_qutrit(qutrit_pair):
    a, b, e = 0.3, -1.2, 0.7
    c = 0.5 + 0.25j
    A = np.array([[a, 0, 0], [0, b, c], [0, np.conj(c), e]], dtype=complex)
    mod = q.modified_observable(qutrit_pair, A)

    # oracle: invert the adjoint map built directly from the Kraus operators
    guess = qutrit_extreme_channel(0.0)
    adj = _adjoint_map_matrix(guess.kraus, 3)
    oracle = q.devectorize(np.linalg.solve(adj, q.vectorize(A)), 3)
    assert np.linalg.norm(mod - oracle) < 1e-12
    expected = np.array(
        [[b + e - a, 0, 0], [0, a + b - e, -2 * c], [0, -2 * np.conj(c), a + e - b]],
        dtype=complex,
    )
    assert np.linalg.norm(mod - expected) < 1e-12
    # the adjoint applied forward halves and block-mixes instead
    fwd = q.devectorize(q.adjoint_transfer(qutrit_pair.phi_g).gamma @ q.vectorize(A), 3)
    display = 0.5 * np.array(
        [[b + e, 0, 0], [0, a + b, -c], [0, -np.conj(c), a + e]], dtype=complex
    )
    assert np.linalg.norm(fwd - display) < 1e-12
    # round trip: applying the adjoint to the modified observable returns A
    assert np.linalg.norm(
        q.devectorize(q.adjoint_transfer(qutrit_pair.phi_g).gamma @ q.vectorize(mod), 3) - A
    ) < 1e-12


def test_modified_observable_unitary_guess(rng):
    U = q.haar_random_unitary(3, rng)
    ch = q.random_cptp_channel(3, 2, rng)
    gp = guess_pair(ch, q.unitary_channel(U))
    A = random_hermitian(3, rng)
    assert np.linalg.norm(q.modified_observable(gp, A) - U @ A @ U.conj().T) < 1e-11


def test_modified_observable_qubit_pair(rng):
    U1, U2 = qubit_pair_unitaries()
    a, b = 1.1, 0.4
    A = np.array([[a + 2 * b, b], [b, a]], dtype=complex)
    gp = guess_pair(q.random_unitary_channel([0.5, 0.5], [U1, U2]), q.unitary_channel(U2))
    expected = np.array([[a, b], [b, a + 2 * b]], dtype=complex)
    assert np.linalg.norm(q.modified_observable(gp, A) - expected) < 1e-12


def test_modified_observable_preserves_hermiticity(rng):
    for d in (2, 3, 4):
        ch = q.random_cptp_channel(d, 2, rng)
        guess = q.random_cptp_channel(d, 2, rng)
        gp = guess_pair(ch, guess)
        A = random_hermitian(d, rng)
        mod = q.modified_observable(gp, A)
        assert np.linalg.norm(mod - mod.conj().T) < 1e-10


# ---------------------------------------------------------------------------
# expectation / evaluate
# ---------------------------------------------------------------------------

def test_expectation_identity(rng):
    rho = q.random_density_matrix(3, rng)
    assert q.expectation(np.eye(3), rho) == pytest.approx(1.0)


def test_expectation_sigma_z_ground_state():
    assert q.expectation(SIGMA[3], np.diag([1.0, 0.0])) == pytest.approx(1.0)


def test_expectation_probe_observable_closed_form():
    # Pauli algebra gives Tr(rho(x) B) = 2x + 1
    for x in (0.25, 0.5, 1.0):
        val = q.expectation(recovery_probe_observable(), recovery_probe_state(x))
        assert val == pytest.approx(2 * x + 1, abs=1e-12)


def test_expectation_shape_mismatch():
    with pytest.raises(ValueError):
        q.expectation(np.eye(2), np.eye(3) / 3)


def test_evaluate_family_member_recovers(qutrit_pair, rng):
    fam = q.correctable_family(qutrit_pair)
    rho = q.random_density_matrix(3, rng)
    for A in fam.basis:
        report = q.evaluate(qutrit_pair, A, rho)
        assert report.delta_nd <= 1e-9


def test_evaluate_full_knowledge(rng):
    ch = q.random_cptp_channel(3, 2, rng)
    gp = guess_pair(ch, ch)
    for _ in range(5):
        A = random_hermitian(3, rng)
        rho = q.random_density_matrix(3, rng)
        assert q.evaluate(gp, A, rho).delta_nd <= 1e-10


def test_evaluate_partial_recovery_setup():
    # deviations of the recovery probe B on rho(x): 4p[(1-p)(1-mu)+x] before and
    # 4p(1-p)(1-mu) after deconvolution (derivation in the partial-recovery
    # scenario).  The oracle applies the Kraus operators directly and builds the
    # modified observable by hand: the correlated-flip guess scales the weight-1
    # strings of B by 1-2p and leaves the weight-2 strings alone, so the
    # weight-1 strings are divided by 1-2p.
    B = recovery_probe_observable()
    weight_one = sum(kron(SIGMA[0], SIGMA[i]) + kron(SIGMA[i], SIGMA[0]) for i in (2, 3))
    for p, mu, x in ((0.3, 0.5, 0.5), (0.1, 0.2, 0.9), (0.45, 0.8, 0.25)):
        true_ch, guess_ch = bitflip_with_memory(p, mu), bitflip_correlated(p)
        rho = recovery_probe_state(x)
        modified = B - weight_one + weight_one / (1 - 2 * p)
        guess_adjoint = [A.conj().T for A in guess_ch.kraus]
        assert_allclose(apply_kraus(guess_adjoint, modified), B, atol=1e-12)

        noisy = apply_kraus(true_ch.kraus, rho)
        ideal = np.trace(rho @ B).real
        oracle_exp = abs(ideal - np.trace(noisy @ B).real)
        oracle_nd = abs(ideal - np.trace(noisy @ modified).real)
        closed_exp = 4 * p * ((1 - p) * (1 - mu) + x)
        closed_nd = 4 * p * (1 - p) * (1 - mu)
        assert oracle_exp == pytest.approx(closed_exp, abs=1e-12)
        assert oracle_nd == pytest.approx(closed_nd, abs=1e-12)

        report = q.evaluate(guess_pair(true_ch, guess_ch), B, rho)
        assert report.delta_exp == pytest.approx(closed_exp, abs=1e-12)
        assert report.delta_nd == pytest.approx(closed_nd, abs=1e-12)
        assert report.improved and not report.tie
        if (p, mu, x) == (0.3, 0.5, 0.5):
            assert oracle_exp == pytest.approx(1.02, abs=1e-12)
            assert oracle_nd == pytest.approx(0.42, abs=1e-12)


def test_evaluate_report_fields(bitflip_pair, rng):
    A = random_hermitian(4, rng)
    rho = q.random_density_matrix(4, rng)
    r = q.evaluate(bitflip_pair, A, rho)
    assert r.delta_exp == pytest.approx(abs(r.ideal - r.experimental))
    assert r.delta_nd == pytest.approx(abs(r.ideal - r.deconvolved))
    assert r.improved == (r.delta_nd < r.delta_exp)


# ---------------------------------------------------------------------------
# correctable_family / verify_family
# ---------------------------------------------------------------------------

def test_correctable_family_extreme_qutrit(qutrit_pair):
    assert q.correctable_family(qutrit_pair).n_params == 5


def test_correctable_family_bitflip(bitflip_pair):
    assert q.correctable_family(bitflip_pair).n_params == 12


def test_correctable_family_pauli_channel_identity_only(rng):
    probs = rng.dirichlet(np.ones(4))
    gp = guess_pair(q.random_unitary_channel(probs, list(SIGMA)), q.unitary_channel(np.eye(2)))
    fam = q.correctable_family(gp)
    assert fam.n_params == 1
    assert min(
        np.linalg.norm(fam.basis[0] - np.eye(2) / np.sqrt(2)),
        np.linalg.norm(fam.basis[0] + np.eye(2) / np.sqrt(2)),
    ) < 1e-10


def evaluate_oracle(gp, fam, n_states, seed):
    """Per-candidate ``evaluate`` over the draws ``verify_family`` makes.

    Per state: one density matrix, then two normalized coefficient vectors;
    every basis element and both members are evaluated separately.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        rho = q.random_density_matrix(gp.dim, rng)
        candidates = list(fam.basis)
        for _ in range(2):
            coeff = rng.normal(size=fam.n_params)
            candidates.append(fam.member(coeff / np.linalg.norm(coeff)))
        for A in candidates:
            worst = max(worst, q.evaluate(gp, A, rho).delta_nd)
    return worst


def test_verify_family_reference_families(qutrit_pair):
    fam = q.correctable_family(qutrit_pair)
    sampled = q.verify_family(qutrit_pair, fam, 100, seed=5)
    assert sampled <= 1e-9
    assert sampled == pytest.approx(evaluate_oracle(qutrit_pair, fam, 100, 5), rel=1e-12, abs=1e-12)

    U1, U2 = qubit_pair_unitaries()
    gp = guess_pair(q.random_unitary_channel([0.55, 0.45], [U1, U2]), q.unitary_channel(U2))
    _, fam4 = q.two_unitary_family(U1, U2)
    sampled = q.verify_family(gp, fam4, 100, seed=5)
    assert sampled <= 1e-9
    assert sampled == pytest.approx(evaluate_oracle(gp, fam4, 100, 5), rel=1e-12, abs=1e-12)


def test_verify_family_detects_perturbed_element(qutrit_pair):
    perturbed = perturbed_qutrit_family(q.correctable_family(qutrit_pair))
    sampled = q.verify_family(qutrit_pair, perturbed, 100, seed=5)
    assert sampled > 1e-4
    assert sampled == pytest.approx(evaluate_oracle(qutrit_pair, perturbed, 100, 5), rel=1e-12)


def test_verify_family_one_pass_per_state(qutrit_pair, monkeypatch):
    import qdeconv.deconvolution as dc

    calls = {"modified_observable": 0, "apply_channel": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        pytest.fail("verify_family evaluated a candidate on its own")

    for name in calls:
        monkeypatch.setattr(dc, name, counted(name, getattr(dc, name)))
    monkeypatch.setattr(dc, "evaluate", forbidden)
    monkeypatch.setattr(dc, "expectation", forbidden)
    fam = q.correctable_family(qutrit_pair)
    q.verify_family(qutrit_pair, fam, 7, seed=1)
    assert calls == {"modified_observable": fam.n_params, "apply_channel": 7}


@pytest.mark.parametrize("n_states", [0, -3])
def test_verify_family_rejects_no_states(qutrit_pair, n_states):
    fam = q.correctable_family(qutrit_pair)
    with pytest.raises(ValueError, match="at least one state"):
        q.verify_family(qutrit_pair, fam, n_states, seed=0)


def test_verify_family_rejects_empty(qutrit_pair):
    with pytest.raises(ValueError):
        q.verify_family(qutrit_pair, q.ObservableFamily.from_basis(3, []), 10, seed=0)


def test_verify_family_rejects_dimension_mismatch(qutrit_pair):
    fam = q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)])
    with pytest.raises(ValueError, match="family dimension 2 does not match channel dimension 3"):
        q.verify_family(qutrit_pair, fam, 10, seed=0)


def test_verify_family_rejects_channel_that_breaks_hermiticity():
    # Phi(rho) = exp(0.3i) rho: the deconvolved value picks up an imaginary part
    phi = q.TransferMatrix(2, np.exp(0.3j) * np.eye(4))
    gp = q.GuessPair.from_transfers(phi, q.TransferMatrix(2, np.eye(4)))
    fam = q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)])
    with pytest.raises(ValueError, match="imaginary residual"):
        evaluate_oracle(gp, fam, 3, 0)
    with pytest.raises(ValueError, match="imaginary residual"):
        q.verify_family(gp, fam, 3, seed=0)


# ---------------------------------------------------------------------------
# recovery certificate
# ---------------------------------------------------------------------------

def test_loose_kernel_tolerance_fails_the_certificate():
    rng = np.random.default_rng(0)
    true_ch, guess_ch = q.random_cptp_channel(2, 2, rng), q.random_cptp_channel(2, 2, rng)
    gp = guess_pair(true_ch, guess_ch)
    with pytest.raises(q.FamilyVerificationError, match="pair 0: bound"):
        q.correctable_family(gp, rel_tol=0.5)
    # the exact pair constrains nothing, so only the second pair can fail
    exact = guess_pair(guess_ch, guess_ch)
    with pytest.raises(q.FamilyVerificationError, match="pair 1: bound"):
        q.common_correctable_family([exact, gp], rel_tol=0.5)
    # a mixed-unitary family names the unitary whose comparison fails; the
    # guess's own comparison is the identity and never fails
    rng = np.random.default_rng(0)
    haar = [q.haar_random_unitary(3, rng) for _ in range(2)]
    for guess_index, named in ((0, 1), (1, 0)):
        es = q.UnitaryErrorSet.from_unitaries(haar, guess_index=guess_index)
        with pytest.raises(q.FamilyVerificationError, match=f"pair {named}: bound"):
            q.ru_correctable_family(es, tol=0.5)


@pytest.mark.parametrize("rel_tol", [float("nan"), -1.0])
def test_kernel_threshold_must_be_non_negative(qutrit_pair, rel_tol):
    # NaN used to empty every family silently, and a negative threshold to
    # mean "absolute floor only"
    with pytest.raises(ValueError, match="kernel threshold must be a non-negative number"):
        q.correctable_family(qutrit_pair, rel_tol)
    with pytest.raises(ValueError, match="kernel threshold"):
        q.guess_sweep(qutrit_pair.phi, [qutrit_pair.phi_g], rel_tol)
    with pytest.raises(ValueError, match="kernel threshold"):
        q.commutant_family([np.eye(2)], rel_tol)
    assert q.correctable_family(qutrit_pair, 0.0).n_params == 5


def test_recovery_bound_on_reference_families(qutrit_pair, bitflip_pair):
    for gp in (qutrit_pair, bitflip_pair):
        fam = q.correctable_family(gp)
        assert recovery_bound(q.deviation_operator(gp), fam) <= 1e-9

    U1, U2 = qubit_pair_unitaries()
    gp = guess_pair(q.random_unitary_channel([0.55, 0.45], [U1, U2]), q.unitary_channel(U2))
    _, fam4 = q.two_unitary_family(U1, U2)
    assert recovery_bound(q.deviation_operator(gp), fam4) <= 1e-9
    assert recovery_bound(q.deviation_operator(gp), q.ObservableFamily.from_basis(2, [])) == 0.0


def test_recovery_bound_dominates_sampled_deviation(qutrit_pair):
    perturbed = perturbed_qutrit_family(q.correctable_family(qutrit_pair))
    sampled = q.verify_family(qutrit_pair, perturbed, 100, seed=5)
    assert recovery_bound(q.deviation_operator(qutrit_pair), perturbed) >= sampled > 1e-4


def test_common_correctable_family_probes(qutrit_pair):
    guess = q.transfer_from_kraus(qutrit_extreme_channel(0.0))
    gps = [
        q.GuessPair.from_transfers(q.transfer_from_kraus(qutrit_extreme_channel(ph)), guess)
        for ph in (0.9, 1.7, 2.8, 4.1, 5.3)
    ]
    fam = q.common_correctable_family(gps)
    assert fam.n_params == 5
    # holds at a phase outside the probe set
    extra = q.GuessPair.from_transfers(q.transfer_from_kraus(qutrit_extreme_channel(0.123)), guess)
    assert q.verify_family(extra, fam, 50, seed=3) <= 1e-9


def test_common_correctable_family_rejects_mixed_guesses(qutrit_pair):
    other = q.GuessPair.from_transfers(
        qutrit_pair.phi, q.transfer_from_kraus(qutrit_extreme_channel(0.5))
    )
    with pytest.raises(ValueError, match="pair 2 has a different guess from pair 0"):
        q.common_correctable_family([qutrit_pair, qutrit_pair, other, other])


def test_guess_sweep_rankings():
    U1, U2 = qubit_pair_unitaries()
    phi = q.transfer_from_kraus(q.random_unitary_channel([0.6, 0.4], [U1, U2]))
    candidates = [
        q.transfer_from_kraus(q.unitary_channel(U1)),
        q.transfer_from_kraus(q.unitary_channel(U2)),
        phi,
        q.transfer_from_kraus(bitflip_correlated(0.5)),  # wrong dim is not the point; singular
    ]
    # candidate 3 has dim 4 while phi has dim 2, so build it separately below
    ranking = q.guess_sweep(phi, candidates[:3])
    assert ranking[0] == (2, 4)  # the channel itself corrects everything
    assert {ranking[1][0], ranking[2][0]} == {0, 1}
    assert ranking[1][1] == ranking[2][1] == 2  # same family size for either unitary

    phi4 = q.transfer_from_kraus(bitflip_with_memory(0.5, 0.3))
    ranking4 = q.guess_sweep(phi4, [q.transfer_from_kraus(bitflip_correlated(0.5))])
    assert ranking4 == [(0, -1)]


def test_guess_sweep_tie_break_by_index():
    U1, U2 = qubit_pair_unitaries()
    phi = q.transfer_from_kraus(q.random_unitary_channel([0.6, 0.4], [U1, U2]))
    c1 = q.transfer_from_kraus(q.unitary_channel(U1))
    c2 = q.transfer_from_kraus(q.unitary_channel(U2))
    ranking = q.guess_sweep(phi, [c1, c2])
    assert ranking == [(0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_recovery_invariant(d, rng):
    U1 = q.haar_random_unitary(d, rng)
    U2 = q.haar_random_unitary(d, rng)
    p = float(rng.uniform(0.2, 0.8))
    gp = guess_pair(q.random_unitary_channel([1 - p, p], [U1, U2]), q.unitary_channel(U2))
    fam = q.correctable_family(gp)
    assert fam.n_params >= d
    assert q.verify_family(gp, fam, 100, seed=77) <= 1e-9


def test_deltas_agree_between_trace_and_vectorized_paths(bitflip_pair, rng):
    A = random_hermitian(4, rng)
    rho = q.random_density_matrix(4, rng)
    r = q.evaluate(bitflip_pair, A, rho)
    F = q.deviation_operator(bitflip_pair)
    bilinear = abs(q.vectorize(rho).conj() @ F @ q.vectorize(A))
    assert abs(r.delta_nd - bilinear) < 1e-10


def test_covariance_of_family_under_equivalence(rng):
    U1, U2 = qubit_pair_unitaries()
    phi = q.transfer_from_kraus(q.random_unitary_channel([0.7, 0.3], [U1, U2]))
    phi_g = q.transfer_from_kraus(q.unitary_channel(U2))
    fam = q.correctable_family(q.GuessPair.from_transfers(phi, phi_g))

    U = q.haar_random_unitary(2, rng)
    V = q.haar_random_unitary(2, rng)
    gu = q.transfer_from_kraus(q.unitary_channel(U))
    gv = q.transfer_from_kraus(q.unitary_channel(V))
    eq_pair = q.GuessPair.from_transfers(
        q.compose(gv, q.compose(phi, gu)), q.compose(gv, q.compose(phi_g, gu))
    )
    eq_fam = q.correctable_family(eq_pair)
    assert eq_fam.n_params == fam.n_params
    for A in fam.basis:
        assert q.membership_residual(eq_fam, U.conj().T @ A @ U) <= 1e-9


def test_observable_family_validation():
    with pytest.raises(ValueError):
        q.ObservableFamily.from_basis(2, [np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(ValueError):
        q.ObservableFamily.from_basis(2, [np.eye(2)])  # not unit norm
    fam = q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)])
    member = fam.member([2.0])
    assert_allclose(member, np.sqrt(2) * np.eye(2))


def test_intersect_spans_dimensions(rng):
    e = [np.eye(4)[:, k] for k in range(4)]
    a = [e[0], e[1], e[2]]
    b = [e[1], e[2], e[3]]
    inter = q.intersect_spans(a, b)
    assert len(inter) == 2
    V = np.column_stack(inter)
    # intersection is span{e1, e2}
    for v in (e[1], e[2]):
        r = v - V @ (V.conj().T @ v)
        assert np.linalg.norm(r) < 1e-12
    assert q.intersect_spans(a, []) == []
    # a repeated spanning vector adds nothing
    assert len(q.intersect_spans(a + [e[1]], b)) == 2


def test_observable_family_names_first_non_orthonormal_pair():
    X = SIGMA[1] / np.sqrt(2)
    with pytest.raises(ValueError, match="elements 1,2 "):
        q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2), X, (X + SIGMA[3] / np.sqrt(2)) / np.sqrt(2)])


# ---------------------------------------------------------------------------
# Hermitian kernel primitive
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_size_matches_complex_kernel(d):
    # F maps Hermitian matrices to Hermitian matrices, so its complex kernel
    # and its Hermitian null space have the same dimension
    rng = np.random.default_rng(100 + d)
    for _ in range(4):
        Us = [q.haar_random_unitary(d, rng) for _ in range(2)]
        pairs = (
            guess_pair(q.random_cptp_channel(d, 2, rng), q.random_cptp_channel(d, 2, rng)),
            guess_pair(q.random_unitary_channel(rng.dirichlet(np.ones(2)), Us), q.unitary_channel(Us[1])),
        )
        for gp in pairs:
            fam = q.correctable_family(gp)
            assert fam.n_params == len(q.kernel(q.deviation_operator(gp)))


def test_family_json_is_reproducible(qutrit_pair, bitflip_pair):
    for gp in (qutrit_pair, bitflip_pair):
        first = emit_family(q.correctable_family(gp))
        assert emit_family(q.correctable_family(gp)) == first


def _oracle_family(gps):
    """The family from the deviation operators, which invert the guess."""
    d = gps[0].dim
    Fs = [q.deviation_operator(gp) for gp in gps]
    vecs = q.kernel(Fs[0]) if len(Fs) == 1 else q.joint_kernel(Fs, d * d)
    return q.hermitian_section(vecs, d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_span_matches_deviation_operator_oracle(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(3):
        Us = [q.haar_random_unitary(d, rng) for _ in range(2)]
        guess = q.unitary_channel(Us[1])
        cases = (
            [guess_pair(q.random_cptp_channel(d, 2, rng), q.random_cptp_channel(d, 3, rng))],
            [guess_pair(q.random_unitary_channel(rng.dirichlet(np.ones(2)), Us), guess)],
            [guess_pair(q.random_unitary_channel(rng.dirichlet(np.ones(2)), Us), guess) for _ in range(3)],
        )
        for gps in cases:
            fam, oracle = q.common_correctable_family(gps), _oracle_family(gps)
            assert fam.n_params == oracle.n_params >= 1
            assert q.span_residual(fam, oracle) <= 1e-12
            assert q.span_residual(oracle, fam) <= 1e-12
