import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qdeconv as q
import qdeconv.deconvolution as dc
from qdeconv.channels import _cholesky_certificate, _gram_certificate, _rounding_floor, random_hermitian
from qdeconv.deconvolution import (
    MEMBERSHIP_RTOL,
    _coordinates,
    _hermitian_operators,
    _modified_observables,
    _null_coordinates,
    _recovery_bounds,
)
from qdeconv.serialization import emit_family
from qdeconv.scenarios import (
    ScenarioCheck,
    bitflip_correlated,
    bitflip_with_memory,
    qubit_pair_unitaries,
    qutrit_extreme_channel,
    recovery_probe_observable,
    recovery_probe_state,
)

from conftest import (
    SIGMA,
    apply_kraus,
    coordinates_oracle,
    deviation_coordinates_oracle,
    hs_inner,
    kron,
    matrix_unit,
    membership_oracle,
    null_coordinates_oracle,
    recovery_bound,
)


def guess_pair(true_ch, guess_ch):
    return q.GuessPair.from_transfers(
        q.transfer_from_kraus(true_ch), q.transfer_from_kraus(guess_ch)
    )


def perturbed_qutrit_family(fam):
    """``fam`` with its first member nudged along an uncorrectable direction."""
    bad = fam.basis[0] + 0.01 * (matrix_unit(3, 0, 1) + matrix_unit(3, 1, 0))
    bad = bad / np.sqrt(hs_inner(bad, bad).real)
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
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: 2 * b + 1)
    with pytest.raises(ValueError, match="solve against the guess failed"):
        q.modified_observable(gp, np.eye(2))


def test_correctable_family_builds_no_inverse(bitflip_pair, monkeypatch):
    # the kernel's own solves have d^2 x d^2 left operands too, so the guess
    # is told apart by value
    left = []
    solve = np.linalg.solve

    def recorded(a, b):
        left.append(np.array(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("correctable_family took an inverse"))
    monkeypatch.setattr(np.linalg, "solve", recorded)
    q.correctable_family(bitflip_pair)
    G = bitflip_pair._guess_coordinates
    assert not any(a.shape == G.shape and (np.allclose(a, G) or np.allclose(a, G.T)) for a in left)


def test_guess_pair_rejects_guess_that_breaks_hermiticity():
    T = q.TransferMatrix(2, np.eye(4))
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        q.GuessPair.from_transfers(T, q.TransferMatrix(2, np.exp(0.3j) * np.eye(4)))


def test_guess_pair_rejects_singular_guess():
    phi = q.transfer_from_kraus(bitflip_with_memory(0.5, 0.3))
    gp = q.GuessPair.from_transfers(phi, q.transfer_from_kraus(bitflip_correlated(0.5)))
    with pytest.raises(q.SingularChannelError):
        gp.require_invertible()


def test_the_guess_check_runs_once_per_pair_and_never_for_a_family(monkeypatch, bitflip_pair, rng):
    calls = []
    check = q.deconvolution._require_invertible
    monkeypatch.setattr(q.deconvolution, "_require_invertible", lambda M, cutoff: calls.append(cutoff) or check(M, cutoff))
    gp = q.GuessPair.from_transfers(bitflip_pair.phi, bitflip_pair.phi_g, 1e-6)
    q.correctable_family(gp)
    assert calls == []
    for _ in range(2):
        q.modified_observable(gp, random_hermitian(4, rng))
    assert calls == [1e-6]
    singular = q.GuessPair.from_transfers(bitflip_pair.phi, q.transfer_from_kraus(bitflip_correlated(0.5)))
    for _ in range(2):
        with pytest.raises(q.SingularChannelError, match="is below cutoff 1e-08$"):
            singular.require_invertible()
    assert calls == [1e-6, 1e-8]


def test_a_singular_guess_gives_its_image_of_the_kernel():
    # the correlated guess at p = 1/2 has rank 8 of 16: the probes' common
    # kernel has 12 dimensions, and the guess maps 8 of them to zero.  The
    # family is certified; a modified observable needs the inverse and fails
    guess = q.transfer_from_kraus(bitflip_correlated(0.5))
    gps = [q.GuessPair.from_transfers(q.transfer_from_kraus(bitflip_with_memory(0.5, mu)), guess) for mu in (0.1, 0.5, 0.9)]
    fam = q.common_correctable_family(gps)
    x_strings = q.ObservableFamily.from_basis(4, [kron(SIGMA[i], SIGMA[j]) / 2 for i in (0, 1) for j in (0, 1)])
    assert fam.n_params == 4 and q.spans_coincide(fam, x_strings)
    message = (
        "^transfer matrix is singular: smallest/largest singular value "
        "0.000e\\+00/1.000e\\+00 is below cutoff 1e-08$"
    )
    with pytest.raises(q.SingularChannelError, match=message):
        q.modified_observable(gps[0], fam.basis[0])


@settings(deadline=None, max_examples=40)
@given(vertex_set=st.sampled_from(["pauli", 2, 3, 4]), k=st.integers(2, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_guess_in_the_hull_gives_the_vertex_family(vertex_set, k, seed, data):
    # noise with unknown convex weights over unitary vertices U_i: if
    # U_i^dag M U_i = A at every vertex, a guess sum_i c_i U_i . U_i^dag in
    # their hull maps M to A too.  So every such guess, singular or not, gives
    # the family of a vertex guess; the guess only picks the preimage M.
    # Pauli vertices with small integer weights make singular guesses
    rng = np.random.default_rng(seed)
    if vertex_set == "pauli":
        Us = list(SIGMA[: k + 1])
        counts = data.draw(st.lists(st.integers(0, 2), min_size=k + 1, max_size=k + 1).filter(any), label="counts")
        weights = np.array(counts) / sum(counts)
    else:
        Us = [q.haar_random_unitary(vertex_set, rng) for _ in range(k)]
        weights = rng.dirichlet(np.ones(k))
    guess = q.transfer_from_kraus(q.random_unitary_channel(weights, Us))
    vertices = [q.transfer_from_kraus(q.unitary_channel(U)) for U in Us]
    hull = q.common_correctable_family([q.GuessPair.from_transfers(phi, guess) for phi in vertices])
    assert q.spans_coincide(hull, q.ru_correctable_family(q.UnitaryErrorSet.from_unitaries(Us)))


# ---------------------------------------------------------------------------
# invertibility of the guess: Gram-Cholesky certificate first, values-only SVD when it cannot decide
# ---------------------------------------------------------------------------

@pytest.fixture
def svd_calls(monkeypatch):
    """Keyword arguments of every ``np.linalg.svd`` call made while the test runs."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(kwargs)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _parity_guesses():
    rng = np.random.default_rng(20261018)
    for d in (2, 3, 4, 8):
        for n_kraus in (1, 2, 3):
            yield q.transfer_from_kraus(q.random_cptp_channel(d, n_kraus, rng))
    # rho -> tr(rho) sigma plus a unitary at weight 1e-18..1e-14: far below
    # the certificate's rounding floor, where the SVD and the LU inverse decide
    for seed in range(40):
        rng = np.random.default_rng(seed)
        replacement = np.outer(q.random_density_matrix(2, rng).reshape(-1), np.eye(2).reshape(-1))
        lam = 10.0 ** rng.uniform(-18, -14)
        U = q.haar_random_unitary(2, rng)
        yield q.TransferMatrix(2, (1 - lam) * replacement + lam * np.kron(U, U.conj()))


def _has_finite_lu_inverse(M):
    try:
        return bool(np.isfinite(np.linalg.inv(M)).all())
    except np.linalg.LinAlgError:
        return False


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-306])
def test_guess_check_decides_as_the_singular_value_rule(svd_calls, scale):
    # the ratio is scale-free; at 1e-170 squares of entries underflow, and at
    # 1e-306 the inverse's norms overflow
    paths = set()
    outcomes = set()
    for k, T in enumerate(_parity_guesses()):
        T = q.TransferMatrix(T.dim, scale * T.gamma)
        # each caller decides on its own matrix: require_invertible on G^T, the
        # matrix modified observables solve against, inverse_transfer on gamma;
        # near 1e-17 their computed ratios differ by more than the factors 0.999 and 1.001
        callers = (
            (lambda c: q.GuessPair.from_transfers(T, T, c).require_invertible(), q.GuessPair(T, T)._guess_coordinates.T),
            (lambda c: q.inverse_transfer(T, c).gamma, T.gamma),
        )
        for call, M in callers:
            s = np.linalg.svd(M, compute_uv=False)
            invertible = _has_finite_lu_inverse(M)
            for factor in (1e-3, 0.1, 0.5, 0.999, 1.001, 2, 10, 100):
                cutoff = factor * s[-1] / s[0]
                accepted = bool(s[-1] > cutoff * s[0])  # the rule of channels._checked_inverse
                svd_calls.clear()
                try:
                    call(cutoff)
                except q.SingularChannelError as err:
                    assert not accepted or not invertible, (k, factor)
                    assert ("no finite LU inverse" in str(err)) == accepted, (k, factor)
                    outcomes.add((accepted, "raised"))
                else:
                    assert accepted and invertible, (k, factor)
                    outcomes.add((accepted, "inverted"))
                paths.add((accepted, len(svd_calls)))
    # the bracket alone accepts; the SVD accepts and rejects
    assert paths == {(True, 0), (True, 1), (False, 1)}
    assert outcomes == {(True, "inverted"), (True, "raised"), (False, "raised")}


def test_inverse_transfer_of_a_clearly_invertible_channel_takes_no_svd(svd_calls):
    T = q.transfer_from_kraus(q.random_cptp_channel(3, 2, np.random.default_rng(7)))
    inv = q.inverse_transfer(T)
    assert svd_calls == []
    assert_allclose(inv.gamma @ T.gamma, np.eye(9), atol=1e-12)


def test_zero_pivot_guess_is_rejected_by_both_callers():
    # a replacement channel plus a unitary at weight 2.7e-18: s_min/s_max is
    # about 1e-19, above a zero cutoff, but the LU factorizations of both the
    # transfer matrix and the guess coordinates hit an exactly zero pivot
    T = list(_parity_guesses())[20]
    G = q.GuessPair(T, T)._guess_coordinates
    assert not _has_finite_lu_inverse(T.gamma)
    assert not _has_finite_lu_inverse(G) and not _has_finite_lu_inverse(G.T)
    assert np.linalg.svd(T.gamma, compute_uv=False)[-1] > 0
    for build in (q.inverse_transfer, lambda T, cutoff: q.GuessPair.from_transfers(T, T, cutoff).require_invertible()):
        with pytest.raises(q.SingularChannelError, match="^transfer matrix passes cutoff 0 but has no finite LU inverse$"):
            build(T, 0.0)
        with pytest.raises(q.SingularChannelError, match="is below cutoff 1e-08$"):
            build(T, 1e-8)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_inverse_transfer_rejects_non_finite_entries(entry):
    gamma = np.eye(4, dtype=complex)
    gamma[1, 2] = entry
    with pytest.raises(ValueError, match="^transfer matrix has non-finite entries$"):
        q.inverse_transfer(q.TransferMatrix(2, gamma))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 3]),
    log_weight=st.floats(-20, 0),
    log_cutoff=st.floats(-20, -2),
)
def test_an_accepted_guess_gives_finite_hermitian_modified_observables(seed, d, log_weight, log_cutoff):
    # a random CPTP guess mixed into the rank-one replacement rho -> tr(rho) sigma
    rng = np.random.default_rng(seed)
    guess = q.transfer_from_kraus(q.random_cptp_channel(d, int(rng.integers(1, 4)), rng)).gamma
    replacement = np.outer(q.random_density_matrix(d, rng).reshape(-1), np.eye(d).reshape(-1))
    weight = 10.0**log_weight
    T = q.TransferMatrix(d, (1 - weight) * replacement + weight * guess)
    gp = q.GuessPair.from_transfers(T, T, 10.0**log_cutoff)
    try:
        gp.require_invertible()
    except q.SingularChannelError:
        return
    M = q.modified_observable(gp, random_hermitian(d, rng))
    assert np.isfinite(M).all()
    assert np.array_equal(M, M.conj().T)


def test_clearly_invertible_guess_takes_no_svd(svd_calls):
    T = q.transfer_from_kraus(q.random_cptp_channel(3, 2, np.random.default_rng(7)))
    q.GuessPair.from_transfers(T, T).require_invertible()
    q.GuessPair.from_transfers(T, q.TransferMatrix(3, 1e-200 * T.gamma)).require_invertible()
    assert svd_calls == []


def test_straddling_certificate_takes_one_values_only_svd(svd_calls):
    T = q.transfer_from_kraus(q.random_cptp_channel(3, 2, np.random.default_rng(7)))
    s = np.linalg.svd(q.GuessPair(T, T)._guess_coordinates, compute_uv=False)
    cutoff = 0.999 * s[-1] / s[0]
    svd_calls.clear()
    q.GuessPair.from_transfers(T, T, cutoff).require_invertible()
    assert svd_calls == [{"compute_uv": False}]


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(4, 64),
    log_ratio=st.floats(-14, 0),
    near_cutoff=st.one_of(st.none(), st.floats(-1, 1)),
    rotated=st.booleans(),
    complex_entries=st.booleans(),
    log_scale=st.integers(-300, 300),
    cutoff=st.sampled_from([0.0, 1e-10, 1e-8, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_certificate_accepts_only_above_the_cutoff(
    n, log_ratio, near_cutoff, rotated, complex_entries, log_scale, cutoff, seed
):
    # planted singular values from 1 down to 10**log_ratio, the extremes
    # included, half the time within a decade of the cutoff; unrotated, the
    # Gram matrix is diagonal and its infinity norm is exactly s_max^2.  At
    # 1e-10 the Gram matrix's rounding exceeds 4 cutoff^2 ||H||_inf, and only
    # the rounding floor keeps the certificate sound
    rng = np.random.default_rng(seed)
    if near_cutoff is not None and cutoff > 0:
        log_ratio = np.log10(cutoff) + near_cutoff

    def haar():
        if not rotated:
            return np.eye(n)
        G = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_entries else 0)
        return np.linalg.qr(G)[0]

    planted = np.concatenate([[1.0], 10.0 ** rng.uniform(log_ratio, 0, n - 2), [10.0**log_ratio]])
    M = 10.0**log_scale * ((haar() * planted) @ haar().conj().T).astype(complex if complex_entries else float)
    accepted = _gram_certificate(M, cutoff)
    s = np.linalg.svd(M, compute_uv=False)
    ratio = s[-1] / s[0]
    if accepted:
        assert ratio > cutoff
    # and it is not vacuous: well above the cutoff and the rounding floor it accepts
    if ratio > 4 * max(cutoff * n**0.25, np.sqrt((n + 1) * n * np.finfo(float).eps)):
        assert accepted


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("cutoff", [0.0, 1e-8, 1e-3, 2.0])
def test_gram_certificate_shifts_by_max_of_its_two_bounds(monkeypatch, complex_entries, cutoff):
    # the matrix factored is H - tau I, tau = max(4 c^2 ||H||_inf, 4 (n + 1) eps tr H), to the bit
    rng = np.random.default_rng(7)
    M = rng.normal(size=(40, 40)) + (1j * rng.normal(size=(40, 40)) if complex_entries else 0)
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a.diagonal().copy()) or cholesky(a))
    _gram_certificate(M, cutoff)
    X = M / np.abs(M).max()
    H = X @ (X.conj().T if complex_entries else X.T)
    tau = max(
        4.0 * min(cutoff, 1.0) ** 2 * float(np.abs(H).sum(axis=1).max()),
        4.0 * 41 * np.finfo(float).eps * float(np.trace(H).real),
    )
    assert len(factored) == 1 and np.array_equal(factored[0], H.diagonal() - tau)


@settings(deadline=None, max_examples=60)
@given(
    n=st.sampled_from([4, 64, 256]),
    deflation=st.sampled_from([None, "leading", "full"]),
    log_bound=st.one_of(st.none(), st.floats(-16, -1)),
    below=st.floats(0, 1),
    log_spread=st.floats(-16, 0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cholesky_certificate_never_passes_at_or_below_its_bound(n, deflation, log_bound, below, log_spread, seed):
    # H = X X^T with X = Q diag(sqrt(lambda)), so H is formed from n - b term
    # products; b planted kernel directions K are deflated by U = sqrt(tr H) K,
    # either through the whole matrix or, with K zero past its first k rows,
    # through its leading k x k entries only.  The smallest other eigenvalue is
    # planted at a fraction of the bound the certificate claims, max(bound,
    # delta), and must fail it; four times above, it passes
    rng = np.random.default_rng(seed)
    b = {None: 0, "leading": 1, "full": max(1, n // 8)}[deflation]
    k = math.isqrt(n) if deflation == "leading" else n
    lead = np.zeros((n, b))
    lead[:k] = rng.normal(size=(k, b))
    Q = np.linalg.qr(np.column_stack([lead, rng.normal(size=(n, n - b))]))[0]
    spread = np.concatenate([[1.0], 10.0 ** rng.uniform(log_spread, 0, n - b - 2)])
    trace = float(np.sum(spread))
    U = None if b == 0 else np.sqrt(trace) * Q[:k, :b]
    bound = 0.0 if log_bound is None else 10.0**log_bound * trace
    delta = _rounding_floor(trace, n - b, n, b, 0.0 if U is None else float(np.sum(U**2)))
    claimed = max(bound, delta)
    for lam_min, passes in ((below * claimed, False), (4 * claimed, True)):
        if passes and lam_min > spread.min():
            continue  # the planted value would not be the smallest
        X = Q[:, b:] * np.sqrt(np.append(spread, lam_min))
        H = X @ X.T
        before = H.copy()
        assert _cholesky_certificate(H, bound, n - b, U) == passes
        assert np.array_equal(H, before)


def test_an_extract_dense_guess_takes_no_svd_and_no_inverse(svd_calls, monkeypatch):
    # d = 32, random CPTP channels of 3 (true) and 2 (guess) Kraus operators
    rng = np.random.default_rng(32)
    phi, phi_g = (q.transfer_from_kraus(q.random_cptp_channel(32, k, rng)) for k in (3, 2))
    monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("the guess check took an inverse"))
    q.GuessPair.from_transfers(phi, phi_g).require_invertible()
    assert svd_calls == []


def test_singular_guess_errors_are_unchanged():
    phi = q.transfer_from_kraus(q.random_cptp_channel(2, 2, np.random.default_rng(1)))
    singular = q.TransferMatrix(2, np.diag([1.0, 0.0, 0.0, 1.0]))
    gp = q.GuessPair.from_transfers(phi, singular)
    with pytest.raises(q.SingularChannelError) as err:
        gp.require_invertible()
    assert str(err.value) == (
        "transfer matrix is singular: smallest/largest singular value "
        "0.000e+00/1.000e+00 is below cutoff 1e-08"
    )
    gamma = phi.gamma.copy()
    gamma[1, 2] = np.nan
    with pytest.raises(ValueError, match="^guess transfer matrix has non-finite entries$"):
        q.GuessPair.from_transfers(phi, q.TransferMatrix(2, gamma))
    with pytest.raises(ValueError, match="^true channel transfer matrix has non-finite entries$"):
        q.GuessPair.from_transfers(q.TransferMatrix(2, gamma), phi)


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("channel", ["phi", "phi_g"])
@pytest.mark.parametrize("build", [q.GuessPair, q.GuessPair.from_transfers], ids=["constructor", "from_transfers"])
def test_a_non_finite_channel_fails_either_construction_path(d, entry, channel, build):
    # the constructor checks as from_transfers does, so a NaN cannot reach a
    # family's SVD, where it raised numpy.linalg.LinAlgError
    rng = np.random.default_rng(d)
    channels = {name: q.transfer_from_kraus(q.random_cptp_channel(d, 2, rng)) for name in ("phi", "phi_g")}
    gamma = channels[channel].gamma.copy()
    gamma[1, 2] = entry
    channels[channel] = q.TransferMatrix(d, gamma)
    name = "true channel" if channel == "phi" else "guess"
    with pytest.raises(ValueError, match=f"^{name} transfer matrix has non-finite entries$"):
        build(channels["phi"], channels["phi_g"])


def test_the_hermiticity_check_fails_a_nan_leak():
    # finite entries whose coordinates overflow: inf times an imaginary basis
    # weight gives a NaN leak, which fails the check instead of passing it
    T = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))
    huge = q.TransferMatrix(2, np.full((4, 4), 1.5e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^guess does not preserve Hermiticity .imaginary part nan"):
            q.GuessPair.from_transfers(T, huge)


@pytest.mark.parametrize("cutoff", [float("nan"), -1.0])
def test_singular_value_cutoff_must_be_non_negative(cutoff):
    phi = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))
    singular = q.TransferMatrix(2, np.diag([1.0, 0.0, 0.0, 1.0]))
    # the identity guess shows the check runs before the certificate could accept
    for guess in (phi, singular):
        with pytest.raises(ValueError, match="singular-value cutoff must be a non-negative number"):
            q.GuessPair.from_transfers(phi, guess, cutoff)
    with pytest.raises(ValueError, match="singular-value cutoff must be a non-negative number"):
        q.inverse_transfer(singular, cutoff)


def test_guess_sweep_ranks_singular_candidates_last():
    phi = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))

    def depolarizing(lam):
        return q.TransferMatrix(2, lam * np.eye(4) + (1 - lam) / 2 * np.outer(np.eye(2).ravel(), np.eye(2).ravel()))

    candidates = [depolarizing(1e-9), phi, depolarizing(1e-7), q.TransferMatrix(2, np.diag([1.0, 0.0, 0.0, 1.0]))]
    assert q.guess_sweep(phi, candidates) == [(1, 4), (2, 1), (0, -1), (3, -1)]


@pytest.mark.parametrize("d", [2, 3, 4, 16])
def test_coordinates_match_the_whole_array_form(d):
    rng = np.random.default_rng(d)
    preserving = q.transfer_from_kraus(q.random_cptp_channel(d, 2, rng)).gamma
    arbitrary = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    for M in (preserving, arbitrary):
        assert np.array_equal(_coordinates(M, d), coordinates_oracle(M, d))


def _basis_matrix(d):
    """The orthonormal Hermitian basis ``B`` as a dense ``d^2 x d^2`` matrix, column k the vectorized element k."""
    return _hermitian_operators(np.eye(d * d), d).reshape(d * d, d * d).T


def _phase_pair(d, rng):
    # Phi(rho) = exp(0.3i) rho breaks Hermiticity, so its constraint has an imaginary half
    return q.GuessPair.from_transfers(
        q.TransferMatrix(d, np.exp(0.3j) * np.eye(d * d)), q.transfer_from_kraus(q.random_cptp_channel(d, 2, rng))
    )


@pytest.mark.parametrize("phase", [False, True], ids=["cptp", "phase"])
@pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
def test_deviation_coordinates_match_the_oracle(d, phase):
    # one chunked pass writes Re C, C = B^dag (gamma_g - gamma_phi) B, and the
    # norm of Im C; the oracle's complex D is C^dag
    rng = np.random.default_rng(600 + d)
    if phase:
        gp = _phase_pair(d, rng)
    else:
        gp = guess_pair(q.random_cptp_channel(d, 3, rng), q.random_cptp_channel(d, 2, rng))
    D = deviation_coordinates_oracle(gp)
    scale = np.linalg.norm(D)
    real, imag_norm = dc._deviation_coordinates(gp.phi_g.gamma, gp.phi.gamma, d)
    assert_allclose(real, D.real.T, rtol=0, atol=1e-14 * scale)
    assert imag_norm == pytest.approx(np.linalg.norm(D.imag), rel=1e-12, abs=1e-14 * scale)
    imag, real_norm = dc._deviation_coordinates(gp.phi_g.gamma, gp.phi.gamma, d, imag=True)
    assert_allclose(imag, -D.imag.T, rtol=0, atol=1e-14 * scale)
    assert real_norm == pytest.approx(np.linalg.norm(D.real), rel=1e-12)
    # the imaginary norm alone decides whether the pair's constraint has an imaginary half
    constraint = dc._PairConstraint(gp.phi_g.gamma, gp.phi.gamma, d)
    halves = list(constraint.halves())
    assert len(halves) == len(constraint) == (2 if phase else 1)
    for h, want in zip(halves, (D.real, D.imag)):
        assert_allclose(np.abs(h), np.abs(want) / scale, rtol=0, atol=1e-14)
    W = _null_coordinates([dc._PairConstraint(gp.phi_g.gamma, gp.phi.gamma, d)], d * d, q.DEFAULT_KERNEL_RTOL)
    O = null_coordinates_oracle([D], d * d, q.DEFAULT_KERNEL_RTOL)
    assert W.shape == O.shape and _span_gap(W, O) <= 1e-12


@pytest.mark.parametrize("d", [3, 7])
def test_an_imaginary_half_alone_decides_the_family(d):
    # gamma_phi = I - i B M B^dag: the constraint is i M, so its real half is
    # rounding and dropped, and the family is the kernel of M^T, which a pair
    # read through its real half alone would miss
    rng = np.random.default_rng(700 + d)
    d2, k = d * d, 3
    K = np.linalg.qr(rng.normal(size=(d2, k)))[0]
    M = (np.eye(d2) - K @ K.T) @ rng.normal(size=(d2, d2))
    B = _basis_matrix(d)
    gp = q.GuessPair.from_transfers(q.TransferMatrix(d, np.eye(d2) - 1j * (B @ M @ B.conj().T)), q.TransferMatrix(d, np.eye(d2)))
    constraint = dc._PairConstraint(gp.phi_g.gamma, gp.phi.gamma, d)
    assert len(list(constraint.halves())) == len(constraint) == 1
    fam = q.correctable_family(gp)
    assert fam.n_params == k
    members = np.array([_coordinates_of(A, d) for A in fam.basis]).T
    assert _span_gap(np.linalg.qr(members)[0], K) <= 1e-12


def _coordinates_of(A, d):
    """Real Hermitian coordinates ``B^dag vec(A)`` of a Hermitian ``A``."""
    return (_basis_matrix(d).conj().T @ A.reshape(-1)).real


@pytest.mark.parametrize("d", [2, 3, 16])
def test_hermiticity_leak_is_the_imaginary_part_of_the_coordinates(d):
    # a guess that breaks Hermiticity by about 1e-12 passes the check, and the
    # leak it reports is ||Im(B^dag gamma_g B)||_F
    rng = np.random.default_rng(800 + d)
    phi = q.transfer_from_kraus(q.random_cptp_channel(d, 2, rng))
    gamma = phi.gamma + 1e-12 * (rng.normal(size=phi.gamma.shape) + 1j * rng.normal(size=phi.gamma.shape))
    gp = q.GuessPair.from_transfers(phi, q.TransferMatrix(d, gamma))
    assert gp._hermiticity_leak == pytest.approx(np.linalg.norm(coordinates_oracle(gamma, d).imag), rel=1e-12)


def test_a_constructed_pair_whose_guess_breaks_hermiticity_raises_on_first_use():
    # the constructor checks dimensions only; each family constructor and the
    # first modified observable measure the guess's leak, ||Im(exp(0.3i) I)||_F
    # = 2 sin(0.3), and raise from_transfers' error
    T = q.TransferMatrix(2, np.eye(4))
    phase = q.TransferMatrix(2, np.exp(0.3j) * np.eye(4))
    uses = [
        q.correctable_family,
        lambda gp: q.common_correctable_family([gp, gp]),
        lambda gp: q.modified_observable(gp, np.eye(2)),
        lambda gp: gp.require_invertible(),
    ]
    message = r"^guess does not preserve Hermiticity \(imaginary part 5\.910e-01 in Hermitian coordinates\)$"
    for use in uses:
        with pytest.raises(ValueError, match=message):
            use(q.GuessPair(phi=T, phi_g=phase))
    with pytest.raises(ValueError, match=message):
        q.GuessPair.from_transfers(T, phase)


def test_family_constructors_leave_the_guess_coordinates_unformed(qutrit_pair, bitflip_pair):
    # the family path works with the transfer matrices; the first modified
    # observable forms the guess's coordinates, once
    q.correctable_family(qutrit_pair)
    q.common_correctable_family([bitflip_pair, bitflip_pair])
    for gp in (qutrit_pair, bitflip_pair):
        assert "_guess_coordinates" not in gp.__dict__
    q.modified_observable(bitflip_pair, np.eye(bitflip_pair.dim))
    assert "_guess_coordinates" in bitflip_pair.__dict__
    assert "_guess_coordinates" not in qutrit_pair.__dict__


def _traced_peak(f):
    """The traced peak allocation of ``f()`` in bytes, and its result."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = f()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_dense_path_keeps_no_complex_array_and_one_real_constraint():
    # d = 32: one complex d^2 x d^2 array is 16 MiB, one real one 8 MiB.  The
    # guess check and the coordinates keep chunk buffers only; the family
    # holds the real constraint and then the Gram matrix, whose Cholesky
    # factor is the other 8 MiB, and never the two together with that factor
    d = 32
    rng = np.random.default_rng(32)
    phi = q.transfer_from_kraus(q.random_cptp_channel(d, 3, rng))
    guess = q.transfer_from_kraus(q.random_cptp_channel(d, 2, rng))
    q.correctable_family(q.GuessPair.from_transfers(phi, guess))  # warm caches before tracing

    complex_array = (d * d) ** 2 * 16
    assert _traced_peak(lambda: _coordinates(phi.gamma, d))[0] <= 1.25 * complex_array
    traced, gp = _traced_peak(lambda: q.GuessPair.from_transfers(phi, guess))
    assert traced <= 4 * 2**20
    traced, fam = _traced_peak(lambda: q.correctable_family(gp))
    assert traced <= 17 * 2**20 and fam.n_params == 1


def test_a_failed_seed_keeps_at_most_four_real_constraint_arrays():
    # d = 16, a pair of unitaries: the identity seed fails, the candidates
    # are the Gram matrix's eigenvectors, and the constraint is rebuilt for
    # the products with them; one real d^2 x d^2 array is 0.5 MiB, and the
    # Gram matrix next to its eigenvectors, the rebuilt constraint or the
    # correction's deflated copy, with the thin columns, stays within four
    d = 16
    rng = np.random.default_rng(516)
    Us = [q.haar_random_unitary(d, rng) for _ in range(2)]
    gp = guess_pair(q.random_unitary_channel([0.7, 0.3], Us), q.unitary_channel(Us[1]))
    q.correctable_family(gp)  # warm caches before tracing
    traced, fam = _traced_peak(lambda: q.correctable_family(gp))
    assert traced <= 4 * (d * d) ** 2 * 8 and fam.n_params == d


def _certificate_cases():
    for d in (2, 3, 4, 16):
        rng = np.random.default_rng(300 + d)
        gp = guess_pair(q.random_cptp_channel(d, 3, rng), q.random_cptp_channel(d, 2, rng))
        yield pytest.param([gp], id=f"random-d{d}")
    probes = [guess_pair(bitflip_with_memory(0.25, mu), bitflip_correlated(0.25)) for mu in (0.1, 0.4, 0.9)]
    yield pytest.param(probes, id="bitflip-common")


@pytest.mark.parametrize("gps", list(_certificate_cases()))
def test_recovery_bound_equals_the_dense_product(gps):
    # ||D_k X||_2 from gamma_g, gamma_phi and X equals the product with the
    # whole complex D_k, for the family's own X = W R^-1 and for arbitrary columns
    d = gps[0].dim
    G = gps[0]._guess_coordinates
    Ds = [deviation_coordinates_oracle(gp) for gp in gps]
    W = null_coordinates_oracle(Ds, d * d, q.DEFAULT_KERNEL_RTOL)
    assert W.shape[1] >= 1
    R = np.linalg.qr(G.T @ W)[1]
    family_X = np.linalg.solve(R.T, W.T).T
    arbitrary_X = np.random.default_rng(d).normal(size=(d * d, 3))
    bounds = {id(X): _recovery_bounds(gps[0].phi_g.gamma, X, d) for X in (family_X, arbitrary_X)}
    for gp, D in zip(gps, Ds):
        for X in (family_X, arbitrary_X):
            want = np.linalg.norm(D @ X, 2)
            scale = np.linalg.norm(D, 2) * np.linalg.norm(X, 2)
            assert bounds[id(X)](gp.phi.gamma) == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)
        assert bounds[id(family_X)](gp.phi.gamma) <= 1e-9


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


@settings(deadline=None, max_examples=60)
@given(
    d=st.sampled_from([2, 3, 4]),
    n_kraus=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_modified_observables_match_the_kraus_oracle(d, n_kraus, seed, data):
    rng = np.random.default_rng(seed)
    guess = q.random_cptp_channel(d, n_kraus, rng)
    gp = guess_pair(q.random_cptp_channel(d, 2, rng), guess)
    As = np.stack([random_hermitian(d, rng) for _ in range(data.draw(st.integers(1, d * d)))])
    adj = _adjoint_map_matrix(guess.kraus, d)
    batch = _modified_observables(gp, As)
    for A, M in zip(As, batch):
        oracle = q.devectorize(np.linalg.solve(adj, q.vectorize(A)), d)
        single = q.modified_observable(gp, A)
        assert np.array_equal(single, single.conj().T)
        assert np.linalg.norm(single - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert np.array_equal(M, M.conj().T)
        assert np.linalg.norm(M - single) <= 1e-12 * np.linalg.norm(single)


def _rotated_depolarizing(ratio):
    """Qubit guess ``U D(rho) U^dag``, ``D(rho) = ratio rho + (1 - ratio) tr(rho) I / 2``,
    whose transfer matrix has ``s_min / s_max == ratio`` to rounding."""
    flat = np.eye(2).reshape(-1)
    depolarizing = q.TransferMatrix(2, ratio * np.eye(4) + (1 - ratio) * np.outer(flat / 2, flat))
    U = q.haar_random_unitary(2, np.random.default_rng(7))
    return q.compose(q.transfer_from_kraus(q.unitary_channel(U)), depolarizing)


@pytest.mark.parametrize("ratio", [1e-7, 5e-8, 2.1e-8])
def test_ill_conditioned_guess_gives_modified_observables(ratio):
    # these guesses pass the invertibility cutoff; an explicit complex inverse
    # of them used to fail its own forward-residual check
    guess = _rotated_depolarizing(ratio)
    gp = q.GuessPair.from_transfers(guess, guess)
    A = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
    expected = q.devectorize(q.inverse_transfer(guess).gamma.conj().T @ q.vectorize(A), 2)
    assert np.linalg.norm(q.modified_observable(gp, A) - expected) <= 1e-8 * np.linalg.norm(expected)


def test_modified_observable_rejects_non_hermitian_observable(bitflip_pair):
    A = np.eye(4, dtype=complex)
    A[0, 1] = 1e-9
    with pytest.raises(ValueError, match="observable is not Hermitian"):
        q.modified_observable(bitflip_pair, A)
    A[0, 1] = 1e-11  # within the tolerance: the Hermitian part is modified
    hermitian_part = (A + A.conj().T) / 2
    assert_allclose(q.modified_observable(bitflip_pair, A), q.modified_observable(bitflip_pair, hermitian_part),
                    rtol=0, atol=1e-15)


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


def test_evaluate_of_an_overflowing_observable_is_a_value_error_without_a_warning(rng):
    # warnings are errors in this suite: the observable's norm overflows
    T = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))
    gp = q.GuessPair.from_transfers(T, T)
    with pytest.raises(q.NumericalOverflowError, match="overflow encountered in dot") as info:
        q.evaluate(gp, np.diag([1e300, 1.0]), q.random_density_matrix(2, rng))
    assert isinstance(info.value, ValueError)


def test_modified_observable_of_an_overflowing_observable_is_a_value_error_without_a_warning():
    # warnings are errors in this suite: the norms of the Hermiticity check overflow
    T = q.transfer_from_kraus(q.unitary_channel(np.eye(2)))
    gp = q.GuessPair.from_transfers(T, T)
    with pytest.raises(q.NumericalOverflowError, match="overflow encountered in dot"):
        q.modified_observable(gp, np.diag([1e300, 1.0]))


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
    """One solve for the whole family, no per-candidate evaluation and no
    per-state channel application: every state goes through stacked products."""
    import qdeconv.deconvolution as dc

    calls = {"solve": 0, "apply_channel": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        pytest.fail("verify_family evaluated a candidate on its own")

    fam = q.correctable_family(qutrit_pair)
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(dc, "apply_channel", counted("apply_channel", dc.apply_channel))
    for name in ("evaluate", "expectation", "modified_observable"):
        monkeypatch.setattr(dc, name, forbidden)
    q.verify_family(qutrit_pair, fam, 7, seed=1)
    assert calls == {"solve": 1, "apply_channel": 0}


@pytest.mark.parametrize("block", [1, 3])
def test_verify_family_does_not_depend_on_the_block_size(qutrit_pair, monkeypatch, block):
    import qdeconv.deconvolution as dc

    fam = q.correctable_family(qutrit_pair)
    families = (fam, perturbed_qutrit_family(fam))
    n_states = dc._VERIFY_BLOCK + 5
    default = [q.verify_family(qutrit_pair, f, n_states, seed=5) for f in families]
    monkeypatch.setattr(dc, "_VERIFY_BLOCK", block)
    for f, want in zip(families, default):
        assert q.verify_family(qutrit_pair, f, n_states, seed=5) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert default[1] == pytest.approx(evaluate_oracle(qutrit_pair, families[1], n_states, 5), rel=1e-12)


def test_verify_family_raises_for_a_failing_state_in_a_later_block(monkeypatch):
    import qdeconv.deconvolution as dc

    # Phi(rho) = exp(0.3i) rho breaks Hermiticity on every state but the zero
    # state, whose deviations are exactly 0: only the eighth state is left nonzero
    phi = q.TransferMatrix(2, np.exp(0.3j) * np.eye(4))
    gp = q.GuessPair.from_transfers(phi, q.TransferMatrix(2, np.eye(4)))
    fam = q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)])
    sample = dc._ginibre_states
    blocks = []

    def sampler(z, d):
        states = sample(z, d)
        first = sum(blocks)
        blocks.append(len(states))
        states[np.arange(first, first + len(states)) != 7] = 0
        return states

    monkeypatch.setattr(dc, "_VERIFY_BLOCK", 3)
    monkeypatch.setattr(dc, "_ginibre_states", sampler)
    # on a nonzero state the deconvolved value has imaginary part -sin(0.3) / sqrt(2)
    with pytest.raises(ValueError, match=f"imaginary residual {np.sin(0.3) / np.sqrt(2):.3e}"):
        q.verify_family(gp, fam, 8, seed=0)
    assert blocks == [3, 3, 2]
    blocks.clear()
    assert q.verify_family(gp, fam, 7, seed=0) == 0.0
    assert blocks == [3, 3, 1]


def _random_family(d, k, rng):
    """Orthonormal Hermitian family of ``k`` members with random real coordinates."""
    Q, _ = np.linalg.qr(rng.normal(size=(d * d, k)))
    return q.ObservableFamily.from_basis(d, list(_hermitian_operators(Q.T, d)))


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([2, 3]), n_states=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_verify_family_equals_the_per_candidate_oracle(d, n_states, seed, data):
    rng = np.random.default_rng(seed)
    phi = q.transfer_from_kraus(q.random_cptp_channel(d, data.draw(st.integers(1, 3)), rng))
    guess = q.transfer_from_kraus(q.random_cptp_channel(d, data.draw(st.integers(1, 3)), rng))
    try:
        gp = q.GuessPair.from_transfers(phi, guess)
    except q.SingularChannelError:
        assume(False)
    for fam in (q.correctable_family(gp), _random_family(d, data.draw(st.integers(1, d * d)), rng)):
        want = evaluate_oracle(gp, fam, n_states, seed)
        assert q.verify_family(gp, fam, n_states, seed) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_verify_family_memory_does_not_grow_with_the_state_count(bitflip_pair):
    import tracemalloc

    import qdeconv.deconvolution as dc

    fam = q.correctable_family(bitflip_pair)

    def peak(n_states):
        q.verify_family(bitflip_pair, fam, n_states, seed=1)  # warm caches before tracing
        tracemalloc.start()
        try:
            q.verify_family(bitflip_pair, fam, n_states, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a block's arrays live until the next block replaces them, so the peak
    # stops growing at two blocks and stays below two blocks' worth
    block = dc._VERIFY_BLOCK
    one, two, ten = peak(block), peak(2 * block), peak(10 * block)
    assert ten <= 1.1 * two
    assert ten < 2 * one


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


def test_verify_family_propagates_a_nan_deviation():
    # both construction paths reject a NaN channel, so the NaN is set past
    # the check, into a finite pair's frozen field
    gamma = np.eye(4, dtype=complex)
    gamma[np.diag_indices(4)] = np.nan
    gp = q.GuessPair(q.TransferMatrix(2, np.eye(4)), q.TransferMatrix(2, np.eye(4)))
    object.__setattr__(gp, "phi", q.TransferMatrix(2, gamma))
    fam = q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)])
    worst = q.verify_family(gp, fam, 5, seed=0)
    assert np.isnan(worst)
    assert not ScenarioCheck.from_residual("recovery exact on random states", worst, 1e-9).passed


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


def test_member_takes_one_real_coefficient_per_parameter():
    Z = np.diag([1.0, -1.0]).astype(complex)
    fam = q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2), Z / np.sqrt(2)])
    assert_allclose(fam.member([0.7, -0.3]), np.diag([0.4, 1.0]) / np.sqrt(2), atol=1e-15)
    # a 2-D array holding the right number of coefficients once combined the rows
    # of each basis element instead of the elements
    for bad in ([[0.7, -0.3]], [[0.7], [-0.3]], [0.7], [0.7, -0.3, 0.1], 0.7, [0.7 + 1j, -0.3]):
        with pytest.raises(ValueError, match="expected a 1-D sequence of 2 real numbers"):
            fam.member(bad)


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


def test_observable_family_elements_are_read_only_and_owned():
    source = [np.eye(2, dtype=complex) / np.sqrt(2), SIGMA[1] / np.sqrt(2)]
    fam = q.ObservableFamily.from_basis(2, source)
    source[1][0, 1] = 5.0
    assert fam.basis[1][0, 1] == 1 / np.sqrt(2)
    for A in fam.basis:
        assert not A.flags.writeable
    with pytest.raises(ValueError):
        fam.basis[1][0, 1] = 5.0
    with pytest.raises(ValueError):
        fam.basis[1].setflags(write=True)


def test_observable_family_names_the_first_bad_element():
    good = [np.eye(2) / np.sqrt(2), SIGMA[1] / np.sqrt(2), SIGMA[2] / np.sqrt(2)]
    upper = np.array([[0, 1], [0, 0]], dtype=complex)
    cases = [
        (good[:2] + [np.eye(3), np.eye(3)], r"element 2 has shape \(3, 3\)"),
        (good[:1] + [upper, good[2], upper], "element 1 is not Hermitian"),
    ]
    for basis, message in cases:
        with pytest.raises(ValueError, match=message):
            q.ObservableFamily.from_basis(2, basis)


@settings(deadline=None, max_examples=60)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_span_helpers_match_the_projection_oracle(d, seed, data):
    rng = np.random.default_rng(seed)
    fam_a, fam_b = (_random_family(d, data.draw(st.integers(0, d * d)), rng) for _ in range(2))
    # the span of fam_a in a rotated basis
    R, _ = np.linalg.qr(rng.normal(size=(fam_a.n_params,) * 2))
    fam_c = q.ObservableFamily.from_basis(d, list(np.tensordot(R, fam_a._stacked, axes=1)))
    member = fam_a.member(rng.normal(size=fam_a.n_params))
    for A in (random_hermitian(d, rng), np.zeros((d, d)), member):
        for fam in (fam_a, fam_b):
            assert abs(q.membership_residual(fam, A) - membership_oracle(fam.basis, A)) <= 1e-12

    def oracle(x, y):
        return max((membership_oracle(y.basis, A) for A in x.basis), default=0.0)

    for x, y in ((fam_a, fam_b), (fam_b, fam_a), (fam_a, fam_c), (fam_c, fam_a)):
        assert abs(q.span_residual(x, y) - oracle(x, y)) <= 1e-12
        coincide = x.n_params == y.n_params and max(oracle(x, y), oracle(y, x)) <= MEMBERSHIP_RTOL
        assert q.spans_coincide(x, y) == coincide
    assert q.spans_coincide(fam_a, fam_c)


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


def _span_gap(W, O):
    """Largest distance of either orthonormal column set from the other's span."""
    return max(np.linalg.norm(W - O @ (O.T @ W)), np.linalg.norm(O - W @ (W.T @ O)))


@settings(deadline=None, max_examples=200)
@given(
    d=st.sampled_from([2, 3, 4, 5, 6, 7, 8]),
    n_blocks=st.integers(1, 3),
    complex_blocks=st.booleans(),
    rel_tol=st.sampled_from([q.DEFAULT_KERNEL_RTOL, 0.0, 1e-12, 1e-4]),
    holds_identity=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_null_coordinates_match_the_svd_oracle(d, n_blocks, complex_blocks, rel_tol, holds_identity, seed, data):
    # a planted kernel K of every dimension, from empty (full-rank blocks) to
    # everything (blocks that are rounding and constrain nothing); at the
    # default cutoff the oracle finds exactly K.  From d = 7 on, a K that
    # holds the identity is tried as the seed first, and otherwise comes
    # from the Gram matrix's eigenvectors, or from the full SVD when they
    # hold more than half of the coordinates
    d2 = d * d
    k = data.draw(st.integers(0, d2), label="kernel dimension")
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(d2, d2))
    if holds_identity:
        M[:, 0] = _identity_coordinates(d)
    K = np.linalg.qr(M)[0][:, :k]
    P = np.eye(d2) - K @ K.T
    blocks = []
    for _ in range(n_blocks):
        X = rng.normal(size=(d2, d2)) + (1j * rng.normal(size=(d2, d2)) if complex_blocks else 0)
        blocks.append(X @ P)
    W = _null_coordinates(blocks, d2, rel_tol)
    O = null_coordinates_oracle(blocks, d2, rel_tol)
    assert W.shape == O.shape
    assert np.linalg.norm(W.T @ W - np.eye(W.shape[1])) <= 1e-12
    assert _span_gap(W, O) <= 1e-12
    if rel_tol == q.DEFAULT_KERNEL_RTOL:
        assert W.shape[1] == k and _span_gap(W, K) <= 1e-12


@pytest.fixture
def linalg_calls(monkeypatch):
    """``(name, shape)`` of every ``np.linalg`` SVD and eigendecomposition made while the test runs."""
    calls = []

    def recorded(name):
        f = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return f(a, *args, **kwargs)

        return call

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recorded(name))
    return calls


@pytest.mark.parametrize(
    "factor, svd_shapes",
    [(1.5, [(64, 3), (64, 64)]), (0.5, [(64, 3), (64, 64)]), (500.0, [(64, 2)]), (1e-3, [(64, 3)]), (2000.0, [(64, 2)])],
)
def test_planted_singular_value_decides_as_the_svd_oracle(linalg_calls, factor, svd_shapes):
    # singular values 1 (61), factor * cutoff and 0 (two).  The candidates
    # are the Gram eigenvectors at most 4 max(drop^2, delta), about
    # (2.65e-6)^2: the two zeros, and the planted value too up to factor 265.
    # Within a factor 100 of the cutoff the full SVD decides; farther above
    # or below, the thin SVD of A S does.  The eigenvectors are off by about
    # eps over the squared planted value until the correction step
    rng = np.random.default_rng(17)
    U, V = (np.linalg.qr(rng.normal(size=(64, 64)))[0] for _ in range(2))
    s = np.array([1.0] * 61 + [factor * q.DEFAULT_KERNEL_RTOL, 0.0, 0.0])
    block = (U * s) @ V.T
    W = _null_coordinates([block], 64, q.DEFAULT_KERNEL_RTOL)
    assert [shape for name, shape in linalg_calls if name == "svd"] == svd_shapes
    assert [call for call in linalg_calls if call[0] != "svd"] == [("eigh", (64, 64))]
    O = null_coordinates_oracle([block], 64, q.DEFAULT_KERNEL_RTOL)
    planted = V[:, 62:] if factor > 1 else V[:, 61:]
    assert W.shape == O.shape == planted.shape
    assert np.linalg.norm(W.T @ W - np.eye(W.shape[1])) <= 1e-14
    # either route finds the kernel to about eps over its gap to the nearest
    # dropped singular value
    tol = max(1e-12, 10 * np.finfo(float).eps / (s[61] if factor > 1 else 1.0))
    assert _span_gap(W, planted) <= tol and _span_gap(O, planted) <= tol


def test_candidates_past_half_the_coordinates_take_the_full_svd(linalg_calls, factorizations):
    # rank 3 of 64: the Gram matrix has 61 candidate eigenvectors, more than
    # half the coordinates, so the full SVD decides without a correction
    rng = np.random.default_rng(5)
    block = rng.normal(size=(64, 3)) @ rng.normal(size=(3, 64))
    W = _null_coordinates([block], 64, q.DEFAULT_KERNEL_RTOL)
    assert linalg_calls == [("eigh", (64, 64)), ("svd", (64, 64))] and factorizations == []
    assert W.shape == (64, 61) and np.linalg.norm(block @ W) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_only_kernels_up_to_d_6_take_one_svd(linalg_calls, monkeypatch, d):
    # up to d^2 = 36 one SVD is cheaper than the Gram route; at d = 8 the
    # full-rank blocks have no candidate, and the route takes one
    # eigendecomposition, a correction solve, a certificate and the thin SVD
    # of A S, here of no column
    factorized = []
    for name in ("solve", "cholesky"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, f=f, name=name: factorized.append(name) or f(*args))
    rng = np.random.default_rng(d)
    blocks = [rng.normal(size=(d * d, d * d)) for _ in range(2)]
    _null_coordinates(blocks, d * d, q.DEFAULT_KERNEL_RTOL)
    if d <= 6:
        assert factorized == [] and linalg_calls == [("svd", (2 * d * d, d * d))]
    else:
        assert factorized == ["solve", "cholesky"] and linalg_calls == [("eigh", (d * d, d * d)), ("svd", (2 * d * d, 0))]


def test_a_kernel_of_d_directions_takes_d_candidates(linalg_calls, monkeypatch):
    # d = 16 and a kernel of d directions, as for a pair of unitaries: the
    # Gram matrix has exactly d candidate eigenvectors, which one solve
    # corrects and one thin SVD decides
    rng = np.random.default_rng(4)
    K = np.linalg.qr(rng.normal(size=(256, 16)))[0]
    block = rng.normal(size=(256, 256)) @ (np.eye(256) - K @ K.T)
    widths = []
    solve = np.linalg.solve

    def recorded(a, b):
        widths.append(np.shape(b)[1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    W = _null_coordinates([block], 256, q.DEFAULT_KERNEL_RTOL)
    assert widths == [16] and linalg_calls == [("eigh", (256, 256)), ("svd", (256, 16))]
    assert W.shape == (256, 16) and _span_gap(W, K) <= 1e-12


def test_a_kernel_without_the_identity_is_certified_by_one_factorization(linalg_calls, factorizations, monkeypatch):
    # d = 8 and a random kernel of 8 directions, which does not hold the
    # identity: ||A e|| exceeds the keep bound, so the seed costs no
    # factorization; one solve corrects the eight candidate eigenvectors and
    # one Cholesky factorization certifies the corrected block
    rng = np.random.default_rng(8)
    K = np.linalg.qr(rng.normal(size=(64, 8)))[0]
    block = rng.normal(size=(64, 64)) @ (np.eye(64) - K @ K.T)
    widths = []
    solve = np.linalg.solve

    def recorded(a, b):
        widths.append(np.shape(b)[1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    W = _null_coordinates([block], 64, q.DEFAULT_KERNEL_RTOL)
    assert widths == [8] and factorizations == ["solve", "cholesky"]
    assert linalg_calls == [("eigh", (64, 64)), ("svd", (64, 8))]
    assert W.shape == (64, 8) and _span_gap(W, K) <= 1e-12


def test_candidates_under_the_rounding_floor_are_dropped_by_the_decision(linalg_calls):
    # singular values 1 (51), 2e-6 (twelve) and 0: the twelve lie above the
    # drop bound, at most 100 * 1e-8 * ||A||_2 = 1e-6, but their squares lie
    # below 4 delta, so no certificate can place them above the drop bound
    # and all thirteen are candidates; the thin SVD of A S drops the twelve
    rng = np.random.default_rng(9)
    U, V = (np.linalg.qr(rng.normal(size=(64, 64)))[0] for _ in range(2))
    s = np.array([1.0] * 51 + [2e-6] * 12 + [0.0])
    fro2 = float(np.sum(s**2))
    assert 2e-6 < np.sqrt(4 * _rounding_floor(fro2, 64, 64))
    block = (U * s) @ V.T
    W = _null_coordinates([block], 64, q.DEFAULT_KERNEL_RTOL)
    assert linalg_calls == [("eigh", (64, 64)), ("svd", (64, 13))]
    # the kernel is determined to about eps over its gap
    O = null_coordinates_oracle([block], 64, q.DEFAULT_KERNEL_RTOL)
    tol = 10 * np.finfo(float).eps / 2e-6
    assert W.shape == O.shape == (64, 1) and _span_gap(W, V[:, 63:]) <= tol and _span_gap(O, V[:, 63:]) <= tol


def test_correctable_family_takes_no_eigendecomposition_and_no_full_svd(linalg_calls):
    # d = 16: the kernel comes from the identity seed; the only SVDs are
    # thin ones, of fewer columns than coordinates
    d2 = 256
    rng = np.random.default_rng(16)
    gp = guess_pair(q.random_cptp_channel(16, 3, rng), q.random_cptp_channel(16, 2, rng))
    linalg_calls.clear()
    fam = q.correctable_family(gp)
    assert fam.n_params == 1
    assert [name for name, _ in linalg_calls if name != "svd"] == []
    assert linalg_calls and all(shape[-1] < d2 for _, shape in linalg_calls), linalg_calls


@pytest.fixture
def factorizations(monkeypatch):
    """Names of the ``np.linalg.solve`` and ``cholesky`` calls made while the test runs."""
    calls = []
    for name in ("solve", "cholesky"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, f=f, name=name: calls.append(name) or f(*args))
    return calls


def _identity_coordinates(d):
    e = np.zeros(d * d)
    e[:d] = 1 / np.sqrt(d)
    return e


@pytest.mark.parametrize("d", [8, 16, 32])
def test_random_cptp_pairs_take_the_identity_seed(factorizations, d):
    # the identity is correctable for every pair of trace-preserving maps and
    # is all of a random pair's family: one Cholesky factorization certifies
    # it, and nothing is solved
    rng = np.random.default_rng(400 + d)
    gp = guess_pair(q.random_cptp_channel(d, 3, rng), q.random_cptp_channel(d, 2, rng))
    block = deviation_coordinates_oracle(gp)
    factorizations.clear()
    W = _null_coordinates([block], d * d, q.DEFAULT_KERNEL_RTOL)
    assert factorizations == ["cholesky"]
    assert W.shape == (d * d, 1) and np.array_equal(np.abs(W[:, 0]), _identity_coordinates(d))
    fam = q.correctable_family(gp)
    assert fam.n_params == 1 and np.linalg.norm(fam.basis[0] - np.eye(d) / np.sqrt(d)) <= 1e-12


@pytest.mark.parametrize("d", [8, 16])
def test_a_second_singular_value_above_the_rounding_floor_leaves_the_seed_alone(factorizations, d):
    # the identity is the kernel, and the next singular value is 3e-6 of
    # ||A||_F: far above the drop bound and the root of the certificate's
    # rounding floor, so one Cholesky factorization decides
    d2 = d * d
    rng = np.random.default_rng(d)
    e = _identity_coordinates(d)
    V = np.linalg.qr(np.column_stack([e, rng.normal(size=(d2, d2 - 1))]))[0][:, ::-1]
    U = np.linalg.qr(rng.normal(size=(d2, d2)))[0]
    s = np.array([1.0] * (d2 - 2) + [0.0, 0.0])
    s[-2] = 3e-6 * np.linalg.norm(s)
    block = (U * s) @ V.T
    W = _null_coordinates([block], d2, q.DEFAULT_KERNEL_RTOL)
    assert factorizations == ["cholesky"]
    assert W.shape == (d2, 1) and np.array_equal(np.abs(W[:, 0]), e)


def test_a_second_singular_value_under_the_rounding_floor_takes_the_gram_eigenvectors(linalg_calls, monkeypatch):
    # d = 16, the identity is the kernel, and the next singular value lies
    # between the drop bound and sqrt(delta), as on the random d = 32 pairs
    # the seed misses: the seed's certificate fails, and the candidates come
    # from one eigendecomposition of the Gram matrix, without the full SVD
    d = 16
    d2 = d * d
    rng = np.random.default_rng(d)
    e = _identity_coordinates(d)
    V = np.linalg.qr(np.column_stack([e, rng.normal(size=(d2, d2 - 1))]))[0][:, ::-1]
    U = np.linalg.qr(rng.normal(size=(d2, d2)))[0]
    s = np.array([1.0] * (d2 - 2) + [3e-6, 0.0])
    block = (U * s) @ V.T
    fro2 = float(np.sum(s**2))
    # drop = 100 c, with c = 1e-8 times the largest column norm of A
    drop = 100 * q.DEFAULT_KERNEL_RTOL * np.linalg.norm(block, axis=0).max()
    assert drop < s[-2] < np.sqrt(_rounding_floor(fro2, d2, d2))
    factored = []
    cholesky = np.linalg.cholesky

    def recorded(a):
        try:
            cholesky(a)
        except np.linalg.LinAlgError:
            factored.append(False)
            raise
        factored.append(True)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    W = _null_coordinates([block], d2, q.DEFAULT_KERNEL_RTOL)
    assert factored == [False, True]
    assert [call for call in linalg_calls if call[0] != "svd"] == [("eigh", (d2, d2))]
    assert all(shape[-1] < d2 for name, shape in linalg_calls if name == "svd"), linalg_calls
    # the kernel is determined to about eps over its gap, as in the full SVD
    assert W.shape == (d2, 1) and np.linalg.norm(np.abs(W[:, 0]) - e) <= 10 * np.finfo(float).eps / s[-2]


def _fallback_cases():
    rng = np.random.default_rng(500)
    for d in (7, 12, 16):
        Us = [q.haar_random_unitary(d, rng) for _ in range(2)]
        gp = guess_pair(q.random_unitary_channel([0.7, 0.3], Us), q.unitary_channel(Us[1]))
        yield pytest.param([deviation_coordinates_oracle(gp)], d, True, id=f"two-unitary-d{d}")
    # III, XII and IZZ mixed, against the identity: the strings that commute with XII and IZZ
    paulis = [kron(SIGMA[0], SIGMA[0], SIGMA[0]), kron(SIGMA[1], SIGMA[0], SIGMA[0]), kron(SIGMA[0], SIGMA[3], SIGMA[3])]
    gp = guess_pair(q.random_unitary_channel([0.5, 0.3, 0.2], paulis), q.unitary_channel(np.eye(8)))
    yield pytest.param([deviation_coordinates_oracle(gp)], 8, True, id="pauli-mixture-d8")
    # a planted five-dimensional kernel orthogonal to the identity
    d2 = 81
    K = np.linalg.qr(np.column_stack([_identity_coordinates(9), rng.normal(size=(d2, 5))]))[0][:, 1:]
    blocks = [rng.normal(size=(d2, d2)) @ (np.eye(d2) - K @ K.T) for _ in range(2)]
    yield pytest.param(blocks, 9, False, id="no-identity-d9")


@pytest.mark.parametrize("blocks, d, holds_identity", list(_fallback_cases()))
def test_larger_families_take_the_gram_eigenvectors(linalg_calls, factorizations, blocks, d, holds_identity):
    # a failed seed costs one Cholesky factorization, and a kernel without the
    # identity none; then one eigendecomposition of the Gram matrix gives the
    # candidates, one solve corrects them, one factorization certifies them
    # and a thin SVD decides
    W = _null_coordinates(blocks, d * d, q.DEFAULT_KERNEL_RTOL)
    assert factorizations == ["cholesky"] * holds_identity + ["solve", "cholesky"]
    assert [call for call in linalg_calls if call[0] != "svd"] == [("eigh", (d * d, d * d))]
    assert all(shape[-1] < d * d for _, shape in linalg_calls[1:]), linalg_calls
    O = null_coordinates_oracle(blocks, d * d, q.DEFAULT_KERNEL_RTOL)
    assert W.shape == O.shape and W.shape[1] > 1
    assert np.linalg.norm(W.T @ W - np.eye(W.shape[1])) <= 1e-12 and _span_gap(W, O) <= 1e-12
    e = _identity_coordinates(d)
    assert np.linalg.norm(e - W @ (W.T @ e)) <= 1e-12 if holds_identity else np.linalg.norm(W.T @ e) <= 1e-12


def test_every_family_constructor_takes_the_one_certified_route(monkeypatch, qutrit_pair, bitflip_pair):
    calls = []

    def counted(name):
        f = getattr(q.deconvolution, name)

        def call(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return call

    for name in ("_guess_family", "_null_coordinates"):
        monkeypatch.setattr(q.deconvolution, name, counted(name))
    pauli_set = q.UnitaryErrorSet.from_unitaries(list(SIGMA))
    for construct in (
        lambda: q.correctable_family(qutrit_pair),
        lambda: q.common_correctable_family([bitflip_pair, bitflip_pair]),
        lambda: q.ru_correctable_family(pauli_set),
        lambda: q.commutant_family([SIGMA[1], SIGMA[3]]),
    ):
        calls.clear()
        construct()
        assert calls == ["_guess_family", "_null_coordinates"]


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
