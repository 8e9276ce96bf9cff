"""Informationally complete observable bases and shot-based estimation.

Deconvolution needs no extra quantum hardware: decompose the modified
observable over a measurable quorum, estimate each quorum expectation on the
noisy state from projective shots, and recombine classically.  This module
provides the generalized Gell-Mann quorum (with tensor-product variants for
multi-qubit dimensions), the change-of-basis matrix induced by the guess
inverse, Born-rule sampling, and the end-to-end estimator.

A quorum is held as one read-only ``(d*d, d, d)`` array, so decomposition,
Born probabilities and exact traces are one batched product each.  Its
eigendecomposition is computed once, on first use: a tensor-product quorum
takes it from its base's, any other quorum from one batched ``eigh``.  Shots
are counted per distinct eigenvalue, neither drawn one by one nor sorted:
each element's uniform draws, the ones ``Generator.choice`` would make with
the same seed, are counted below each cut between its distinct eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import MAX_DIM, apply_channel, is_hermitian
from .deconvolution import (
    GuessPair,
    ObservableFamily,
    _check_hermitian,
    _hermitian_stack,
    _modified_observables,
    _overflow_raises,
    modified_observable,
)

#: Born probabilities may dip below zero by at most this much before the
#: state is rejected as invalid.
PROBABILITY_FLOOR = -1e-8

#: Sorted eigenvalues of one observable closer than this times its largest
#: eigenvalue magnitude are one measurement outcome.
EIGENVALUE_MERGE_RTOL = 1e-12

#: Uniform draws per block when counting shots: the memory one element's
#: counting needs, whatever the shot count.
_SHOT_BLOCK = 2**16


@dataclass(frozen=True, eq=False)
class QuorumBasis(ObservableFamily):
    """A complete observable family: ``d*d`` orthonormal Hermitian operators.

    A quorum built by :func:`tensor_product_quorum` is certified from its base's
    Gram matrix and diagonalized from its base's eigendecomposition; any other
    is validated like any family's basis and diagonalized in one batch.
    """

    #: ``(base, n)`` for the n-fold tensor products of ``base``'s elements.
    _factors: tuple[QuorumBasis, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.dim
        if len(self.basis) != d * d:
            raise ValueError(f"a dim-{d} quorum needs {d*d} elements, got {len(self.basis)}")
        super().__post_init__()

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending eigenvalues ``(d*d, d)`` of every element and
        their eigenvectors ``(d*d, d, d)``, in columns, computed on first use.

        The eigenvalues of ``kron(P, B)`` are the products of P's and B's and
        its eigenvectors the Kronecker products of theirs (Horn & Johnson,
        *Topics in Matrix Analysis*, Thm 4.2.12), so a tensor-product quorum
        sorts those of its base's per element and diagonalizes nothing larger.
        """
        if self._factors is None:
            eigvals, eigvecs = np.linalg.eigh(self._stacked)
        else:
            base, n = self._factors
            base_vals, base_vecs = base._spectra
            (k_b, d_b), k, d = base_vals.shape, self.n_params, self.dim
            eigvals = _kron_power(base_vals, n)
            order = np.argsort(eigvals, axis=1, kind="stable")
            eigvals = np.take_along_axis(eigvals, order, axis=1)
            # factor t of element a is base element elements[t][a], and of its
            # sorted eigenvector c the base eigenvector columns[t][a, c]; the
            # vectors are built in sorted order, so no unsorted copy is made
            elements = np.unravel_index(np.arange(k), (k_b,) * n)
            columns = np.unravel_index(order, (d_b,) * n)
            rows = np.arange(d_b)[None, :, None]
            eigvecs = np.ones((k, 1, d))
            for a_t, c_t in zip(elements, columns):
                factor = base_vecs[a_t[:, None, None], rows, c_t[:, None, :]]
                eigvecs = (eigvecs[:, :, None, :] * factor[:, None, :, :]).reshape(k, -1, d)
        eigvals.setflags(write=False)
        eigvecs.setflags(write=False)
        return eigvals, eigvecs


@dataclass(frozen=True)
class ShotEstimate:
    """Sample mean of projective measurements with its standard error."""

    mean: float
    shots: int
    std_error: float
    seed: int


def quorum_basis(d: int) -> QuorumBasis:
    """Generalized Gell-Mann quorum: identity plus traceless Hermitians.

    Returns ``I/sqrt(d)`` followed by the symmetric pairs, the antisymmetric
    pairs and the diagonal ladder, all orthonormal under the
    Hilbert-Schmidt inner product.  Reduces to the normalized Pauli basis at
    ``d == 2``.
    """
    if d < 2:
        raise ValueError("quorum needs dimension at least 2")
    if d > MAX_DIM:  # checked before allocating d**2 elements of d x d
        raise ValueError(f"product dimension {d} exceeds supported maximum {MAX_DIM}")
    elements: list[np.ndarray] = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            S = np.zeros((d, d), dtype=complex)
            S[j, k] = S[k, j] = 1 / np.sqrt(2)
            elements.append(S)
    for j in range(d):
        for k in range(j + 1, d):
            A = np.zeros((d, d), dtype=complex)
            A[j, k] = -1j / np.sqrt(2)
            A[k, j] = 1j / np.sqrt(2)
            elements.append(A)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        elements.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    return QuorumBasis(dim=d, basis=tuple(elements))


def tensor_product_quorum(base: QuorumBasis, n_factors: int) -> QuorumBasis:
    """Quorum of n-fold tensor products of a base quorum's elements.

    Element order is lexicographic in the factor indices, so the all-identity
    product comes first.  Each product is checked Hermitian within 1e-10;
    orthonormality is certified from the base, since the products' Gram
    matrix is the n-th Kronecker power of the base's (see
    :func:`_product_gram_is_identity`), and only products that fail that
    certificate get the full check, which names the first bad element or
    pair as :class:`QuorumBasis` does.  The product dimension may not exceed
    ``MAX_DIM``, the largest a channel supports.
    """
    if n_factors < 1:
        raise ValueError("need at least one factor")
    dim = base.dim**n_factors
    if dim > MAX_DIM:  # checked before allocating dim**2 elements of dim x dim
        raise ValueError(f"product dimension {dim} exceeds supported maximum {MAX_DIM}")
    stack = _kron_power(base._stacked, n_factors)
    _check_hermitian(stack)
    if not _product_gram_is_identity(base, n_factors):
        stack = _hermitian_stack(stack, dim)
    stack.setflags(write=False)
    return QuorumBasis._from_certified(dim, stack, _factors=(base, n_factors))


def _kron_power(stack: np.ndarray, n: int) -> np.ndarray:
    """New array of the Kronecker products of every n-tuple of ``stack``'s entries.

    ``stack`` holds k scalars, vectors or square matrices along its first
    axis; row ``a_1 k^(n-1) + ... + a_n`` of the result is ``kron(stack[a_1],
    ..., stack[a_n])``, so the order is lexicographic in the tuple.
    """
    out = np.array(stack)
    for _ in range(n - 1):
        # for matrices, entry (a, j, i, k, l, m) is P_a[i, l] * B_j[k, m], i.e. kron(P_a, B_j)[i*d+k, l*d+m]
        left = out.reshape(len(out), 1, *(s for t in out.shape[1:] for s in (t, 1)))
        right = stack.reshape(1, len(stack), *(s for t in stack.shape[1:] for s in (1, t)))
        shape = tuple(a * b for a, b in zip(out.shape[1:], stack.shape[1:]))
        out = (left * right).reshape(len(out) * len(stack), *shape)
    return out


def _product_gram_is_identity(base: QuorumBasis, n_factors: int) -> bool:
    """Whether the Gram matrix of the n-fold products of ``base``'s elements is
    the identity within 1e-10, as :func:`~qdeconv.deconvolution._hermitian_stack`
    requires, without forming it.

    That matrix is ``G^(x)n`` for the base's Gram matrix ``G``.  Its diagonal
    is the Kronecker power of G's diagonal, and its largest off-diagonal
    magnitude is the largest ``off**s * diag**(n - s)`` over ``1 <= s <= n``,
    where ``off`` and ``diag`` are G's largest off-diagonal and diagonal
    magnitudes: the entries in the s factors whose indices differ come from
    G's off-diagonal, the others from its diagonal.
    """
    V = base._stacked.reshape(base.n_params, -1)
    gram = V.conj() @ V.T
    norms = gram.diagonal().real
    off = np.abs(gram - np.diag(gram.diagonal())).max()
    diag = np.abs(gram.diagonal()).max()
    largest_off = max(off**s * diag ** (n_factors - s) for s in range(1, n_factors + 1))
    # written so that NaN fails too
    return bool(largest_off <= 1e-10 and np.all(np.abs(_kron_power(norms, n_factors) - 1) <= 1e-10))


def pauli_product_quorum(n_qubits: int) -> QuorumBasis:
    """Normalized Pauli-product quorum for an ``n_qubits`` system."""
    return tensor_product_quorum(quorum_basis(2), n_qubits)


def decompose(A: np.ndarray, qb: QuorumBasis) -> np.ndarray:
    """Real coefficients of a Hermitian ``A`` over the quorum.

    ``a_m = <Q_m, A>``; the imaginary parts must vanish to 1e-10.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (qb.dim, qb.dim):
        raise ValueError(f"observable shape {A.shape} does not match quorum dim {qb.dim}")
    # conj(vec(Q)^T conj(vec(A))) = <Q, A> without copying the stacked quorum
    raw = np.conj(qb._stacked.reshape(qb.n_params, -1) @ A.conj().ravel())
    scale = max(1.0, float(np.abs(raw).max()))
    if np.abs(raw.imag).max() > 1e-10 * scale:
        raise ValueError(
            f"non-real quorum coefficient (imag up to {np.abs(raw.imag).max():.3e}); "
            "input is not Hermitian"
        )
    return raw.real


def chi_matrix(gp: GuessPair, qb: QuorumBasis) -> np.ndarray:
    """Matrix of the guess inverse-adjoint in the quorum basis.

    Column m holds the quorum coefficients of the modified observable built
    from ``Q_m``; real because modified observables stay Hermitian.  All of
    them come from one solve against the guess.
    """
    if qb.dim != gp.dim:
        raise ValueError(f"quorum dim {qb.dim} does not match channel dim {gp.dim}")
    return np.column_stack([decompose(M, qb) for M in _modified_observables(gp, qb._stacked)])


def _born_probabilities(rho: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Row n holds the outcome probabilities of the eigenbasis ``eigvecs[n]``."""
    probs = np.einsum("nji,nji->ni", eigvecs.conj(), rho @ eigvecs).real
    if probs.min() < PROBABILITY_FLOOR:
        raise ValueError(f"negative Born probability {probs.min():.3e}; state is not PSD")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=1, keepdims=True)
    if not np.all(total > 0):
        raise ValueError("Born probabilities sum to zero; state is invalid")
    return probs / total


def _counts_per_eigenvalue(eigvals: np.ndarray, probs: np.ndarray, shots: int, seeds: list[int]) -> np.ndarray:
    """Outcome counts of ``shots`` Born-rule shots per distinct eigenvalue.

    Row n of ``eigvals`` is ascending and row n of ``probs`` holds its outcome
    probabilities.  Eigenvalues within ``EIGENVALUE_MERGE_RTOL * max|lambda|``
    of their neighbour are one outcome, whose count sits on its last index;
    the other entries are zero.  ``Generator.choice`` on ``default_rng(seeds[n])``
    draws ``u = random(shots)`` and puts u in outcome i when ``cdf[i-1] <= u <
    cdf[i]``, so the shots below the cut closing a group are ``#{u < cdf}``.
    Each element's draws are counted against its cuts in blocks of
    ``_SHOT_BLOCK``, which keeps the stream and bounds the memory; an element
    with one distinct eigenvalue draws nothing.
    """
    n, d = eigvals.shape
    # closes[n, i]: eigenvalue i is the last of its group
    closes = np.ones((n, d), dtype=bool)
    merge_tol = EIGENVALUE_MERGE_RTOL * np.abs(eigvals).max(axis=1, keepdims=True)
    closes[:, :-1] = np.diff(eigvals, axis=1) > merge_tol
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    # shots below each closing cut; every draw is below the last cut, 1.0
    below = np.zeros((n, d), dtype=np.int64)
    below[:, -1] = shots
    buf = np.empty(min(shots, _SHOT_BLOCK))
    for k in np.flatnonzero(closes[:, :-1].any(axis=1)):
        cut_at = np.flatnonzero(closes[k, :-1])
        cuts = cdf[k, cut_at]
        rng = np.random.default_rng(seeds[k])
        for start in range(0, shots, buf.size):
            u = buf[: min(buf.size, shots - start)]
            rng.random(out=u)
            below[k, cut_at] += [np.count_nonzero(u < c) for c in cuts]
    # carry each group's cumulative count over its non-closing entries, then difference
    return np.diff(np.maximum.accumulate(below, axis=1), axis=1, prepend=0)


def _shot_estimates(
    rho: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray, shots: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and standard errors of Hermitian observables given by their spectra.

    Row n of ``eigvals`` holds observable n's eigenvalues in ascending order
    and the columns of ``eigvecs[n]`` its eigenvectors; it is measured
    ``shots`` times in that eigenbasis on the stream ``default_rng(seeds[n])``.
    Shots are counted per distinct eigenvalue (:func:`_counts_per_eigenvalue`),
    neither drawn one by one nor sorted, and each group counts at its largest
    eigenvalue.
    """
    counts = _counts_per_eigenvalue(eigvals, _born_probabilities(rho, eigvecs), shots, seeds)
    means = (counts * eigvals).sum(axis=1) / shots
    # one shot: its outcome is the mean, so the sum is exactly zero
    var = (counts * (eigvals - means[:, None]) ** 2).sum(axis=1) / max(shots - 1, 1)
    return means, np.sqrt(var) / np.sqrt(shots)


def sample_expectation(rho: np.ndarray, Q: np.ndarray, shots: int, seed: int) -> ShotEstimate:
    """Estimate ``Tr(Q rho)`` from projective shots in Q's eigenbasis.

    Deterministic given ``seed``.  Shots are counted per distinct eigenvalue
    from the same uniform draws as ``Generator.choice`` with that seed, with
    no sort, so seeded estimates equal those of earlier releases, which drew
    every shot with ``choice``, to rounding (to ``(d-1) * 1e-12 * ||Q||``
    where eigenvalues merge).  The standard error is the sample standard
    deviation (ddof 1) over ``sqrt(shots)`` (zero for a single shot or a
    deterministic outcome).
    """
    rho = np.asarray(rho, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if rho.shape != Q.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"shape mismatch: state {rho.shape} vs observable {Q.shape}")
    if not is_hermitian(Q):
        raise ValueError("observable must be Hermitian")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    eigvals, eigvecs = np.linalg.eigh(Q)
    means, errs = _shot_estimates(rho, eigvals[None], eigvecs[None], shots, [seed])
    return ShotEstimate(mean=float(means[0]), shots=shots, std_error=float(errs[0]), seed=seed)


def _element_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for child in children:
        state = child.generate_state(2)
        out.append(int(state[0]) | (int(state[1]) << 32))
    return out


@_overflow_raises()
def deconvolved_estimate(
    gp: GuessPair,
    A: np.ndarray,
    rho: np.ndarray,
    qb: QuorumBasis,
    shots_per_element: int,
    seed: int,
) -> ShotEstimate:
    """Deconvolved expectation of ``A`` estimated from shots on the noisy state.

    Simulates the noisy state, estimates every quorum expectation with an
    equal shot budget and an independent RNG stream derived from
    ``(seed, element index)``, and recombines with the weights
    ``decompose(modified_observable(gp, A))`` (by linearity, ``chi @
    decompose(A)``).  The eigendecompositions are the quorum's own, computed
    once per quorum (from the base's for a tensor-product quorum), and each
    element's shots are counted per distinct eigenvalue, with no sort, from
    the uniform draws ``Generator.choice`` would make on its stream, so
    seeded estimates equal earlier releases' to rounding.  A Pauli product
    has two distinct eigenvalues and the identity one, which draws nothing.
    Errors propagate as the root sum of squares of the weighted per-element
    errors.  ``shots_per_element == 0``
    is the exact mode: quorum expectations are taken as exact traces,
    reproducing the deconvolved value of
    :func:`qdeconv.deconvolution.evaluate`.  Quorums, like channels, stop at
    dimension ``MAX_DIM`` (64).
    """
    if qb.dim != gp.dim:
        raise ValueError(f"quorum dim {qb.dim} does not match channel dim {gp.dim}")
    if shots_per_element < 0:
        raise ValueError("shots_per_element must be nonnegative (0 selects exact mode)")
    weights = decompose(modified_observable(gp, A), qb)
    noisy = apply_channel(gp.phi, rho)

    if shots_per_element == 0:
        # Tr(Q noisy) is the plain dot product of vec(Q) with vec(noisy^T)
        exact = (qb._stacked.reshape(qb.n_params, -1) @ noisy.T.ravel()).real
        return ShotEstimate(mean=float(weights @ exact), shots=0, std_error=0.0, seed=seed)

    seeds = _element_seeds(seed, qb.n_params)
    eigvals, eigvecs = qb._spectra
    means, errs = _shot_estimates(noisy, eigvals, eigvecs, shots_per_element, seeds)
    mean = float(weights @ means)
    std_error = float(np.sqrt(np.sum((weights * errs) ** 2)))
    return ShotEstimate(mean=mean, shots=shots_per_element, std_error=std_error, seed=seed)
