"""Informationally complete observable bases and shot-based estimation.

Deconvolution needs no extra quantum hardware: decompose the modified
observable over a measurable quorum, estimate each quorum expectation on the
noisy state from projective shots, and recombine classically.  This module
provides the generalized Gell-Mann quorum (with tensor-product variants for
multi-qubit dimensions), the change-of-basis matrix induced by the guess
inverse, Born-rule sampling, and the end-to-end estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import apply_channel, hs_inner, is_hermitian
from .deconvolution import GuessPair, modified_observable

#: Born probabilities may dip below zero by at most this much before the
#: state is rejected as invalid.
PROBABILITY_FLOOR = -1e-8


@dataclass(frozen=True)
class QuorumBasis:
    """Orthogonal Hermitian operators spanning the full observable space."""

    dim: int
    elements: tuple[np.ndarray, ...]
    norms: np.ndarray

    def __post_init__(self) -> None:
        d = self.dim
        if len(self.elements) != d * d:
            raise ValueError(f"a dim-{d} quorum needs {d*d} elements, got {len(self.elements)}")
        norms = np.asarray(self.norms, dtype=float)
        if norms.shape != (d * d,) or norms.min() <= 0:
            raise ValueError("norms must be positive, one per element")
        frozen = []
        for k, Q in enumerate(self.elements):
            Q = np.asarray(Q, dtype=complex)
            if Q.shape != (d, d):
                raise ValueError(f"element {k} has shape {Q.shape}")
            if not is_hermitian(Q, 1e-10):
                raise ValueError(f"element {k} is not Hermitian")
            Q = Q.copy()
            Q.setflags(write=False)
            frozen.append(Q)
        V = np.stack(frozen).reshape(d * d, -1)
        gram = V.conj() @ V.T
        off = np.argwhere(np.triu(np.abs(gram), 1) > 1e-10)
        if off.size:
            i, j = off[0]
            raise ValueError(f"elements {i},{j} are not orthogonal")
        # decompose divides by norms[m], so it must be <Q_m, Q_m>
        wrong = np.flatnonzero(np.abs(gram.diagonal().real - norms) > 1e-10 * norms)
        if wrong.size:
            m = wrong[0]
            raise ValueError(f"norms[{m}] = {norms[m]:g} but <Q_{m}, Q_{m}> = {gram[m, m].real:g}")
        object.__setattr__(self, "elements", tuple(frozen))
        norms = norms.copy()
        norms.setflags(write=False)
        object.__setattr__(self, "norms", norms)


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
    return QuorumBasis(dim=d, elements=tuple(elements), norms=np.ones(d * d))


def tensor_product_quorum(base: QuorumBasis, n_factors: int) -> QuorumBasis:
    """Quorum of n-fold tensor products of a base quorum's elements.

    Element order is lexicographic in the factor indices, so the all-identity
    product comes first.  Products of orthogonal Hermitians stay orthogonal
    Hermitian, and the norms multiply.
    """
    if n_factors < 1:
        raise ValueError("need at least one factor")
    elements = []
    norms = []
    for combo in product(range(len(base.elements)), repeat=n_factors):
        M = base.elements[combo[0]]
        c = base.norms[combo[0]]
        for idx in combo[1:]:
            M = np.kron(M, base.elements[idx])
            c *= base.norms[idx]
        elements.append(M)
        norms.append(c)
    return QuorumBasis(dim=base.dim**n_factors, elements=tuple(elements), norms=np.array(norms))


def pauli_product_quorum(n_qubits: int) -> QuorumBasis:
    """Normalized Pauli-product quorum for an ``n_qubits`` system."""
    return tensor_product_quorum(quorum_basis(2), n_qubits)


def decompose(A: np.ndarray, qb: QuorumBasis) -> np.ndarray:
    """Real coefficients of a Hermitian ``A`` over the quorum.

    ``a_m = <Q_m, A> / c_m``; the imaginary parts must vanish to 1e-10.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (qb.dim, qb.dim):
        raise ValueError(f"observable shape {A.shape} does not match quorum dim {qb.dim}")
    raw = np.array([hs_inner(Q, A) / c for Q, c in zip(qb.elements, qb.norms)])
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
    from ``Q_m``; real because modified observables stay Hermitian.
    """
    if qb.dim != gp.dim:
        raise ValueError(f"quorum dim {qb.dim} does not match channel dim {gp.dim}")
    cols = [decompose(modified_observable(gp, Q), qb) for Q in qb.elements]
    return np.column_stack(cols)


def _born_probabilities(rho: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    probs = np.einsum("ji,jk,ki->i", eigvecs.conj(), rho, eigvecs).real
    if probs.min() < PROBABILITY_FLOOR:
        raise ValueError(f"negative Born probability {probs.min():.3e}; state is not PSD")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("Born probabilities sum to zero; state is invalid")
    return probs / total


def sample_expectation(rho: np.ndarray, Q: np.ndarray, shots: int, seed: int) -> ShotEstimate:
    """Estimate ``Tr(Q rho)`` from projective shots in Q's eigenbasis.

    Deterministic given ``seed``.  The standard error is the sample standard
    deviation over ``sqrt(shots)`` (zero for a single shot or a
    deterministic outcome).
    """
    rho = np.asarray(rho, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if rho.shape != Q.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"shape mismatch: state {rho.shape} vs observable {Q.shape}")
    if not is_hermitian(Q, 1e-9):
        raise ValueError("observable must be Hermitian")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    eigvals, eigvecs = np.linalg.eigh(Q)
    probs = _born_probabilities(rho, eigvecs)
    rng = np.random.default_rng(seed)
    samples = rng.choice(eigvals, size=shots, p=probs)
    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if shots > 1 else 0.0
    return ShotEstimate(mean=mean, shots=shots, std_error=std / np.sqrt(shots), seed=seed)


def _element_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for child in children:
        state = child.generate_state(2)
        out.append(int(state[0]) | (int(state[1]) << 32))
    return out


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
    decompose(A)``).  Errors propagate as the root sum of squares of the
    weighted per-element errors.  ``shots_per_element == 0`` is the exact
    mode: quorum expectations are taken as exact traces, reproducing the
    deconvolved value of :func:`qdeconv.deconvolution.evaluate`.
    """
    if shots_per_element < 0:
        raise ValueError("shots_per_element must be nonnegative (0 selects exact mode)")
    decompose(A, qb)  # rejects a non-Hermitian A before it is modified
    weights = decompose(modified_observable(gp, A), qb)
    noisy = apply_channel(gp.phi, rho)

    if shots_per_element == 0:
        exact = np.array([np.trace(Q @ noisy).real for Q in qb.elements])
        return ShotEstimate(mean=float(weights @ exact), shots=0, std_error=0.0, seed=seed)

    seeds = _element_seeds(seed, len(qb.elements))
    means = np.empty(len(qb.elements))
    errs = np.empty(len(qb.elements))
    for n, (Q, s) in enumerate(zip(qb.elements, seeds)):
        est = sample_expectation(noisy, Q, shots_per_element, s)
        means[n] = est.mean
        errs[n] = est.std_error
    mean = float(weights @ means)
    std_error = float(np.sqrt(np.sum((weights * errs) ** 2)))
    return ShotEstimate(mean=mean, shots=shots_per_element, std_error=std_error, seed=seed)
