"""Correctable families for mixed-unitary noise with unknown mixing weights.

When the noise is ``rho -> sum_k p_k U_k rho U_k^dag`` with known unitaries
but unknown probabilities, correctability must hold for every probability
vector at once.  With one of the error unitaries ``U_g`` as the guess, the
recovery condition ``sum_k p_k U_k^dag (U_g A U_g^dag) U_k = A`` is affine in
the probabilities, so it holds on the whole simplex exactly when it holds at
its vertices: the family is that of the pairs ``(U_k, U_g)`` at once, the
observables with ``U_k A U_k^dag`` independent of k.  The two-unitary case
has a closed form through the eigenvectors of ``U_1^dag U_2``, and the
commutant of an error set is the same family with the identity as the
guess; error sets forming an irreducible group representation admit only
multiples of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import DEFAULT_TOL, TransferMatrix, _as_complex_matrix, _kron, _require_non_negative, is_unitary
from .deconvolution import (
    DEFAULT_KERNEL_RTOL,
    GuessPair,
    ObservableFamily,
    _fix_matrix_sign,
    _fix_vector_phase,
    _hermitian_operators,
    _ordered_null_basis,
    common_correctable_family,
)
from .errors import NonUnitaryError

#: Eigenvalues closer than this are treated as degenerate when grouping.
DEFAULT_GROUPING_TOL = 1e-8

#: Default distance-from-1 threshold for invariant (unit-eigenvalue) subspaces.
DEFAULT_INVARIANT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class UnitaryErrorSet:
    """Known unitary errors with an index selecting the guess conjugation."""

    dim: int
    unitaries: tuple[np.ndarray, ...]
    guess_index: int = 0

    def __post_init__(self) -> None:
        if not self.unitaries:
            raise ValueError("need at least one unitary error operator")
        if not 0 <= self.guess_index < len(self.unitaries):
            raise ValueError(
                f"guess_index {self.guess_index} out of range for {len(self.unitaries)} unitaries"
            )
        ops = []
        for k, U in enumerate(self.unitaries):
            U = np.asarray(U, dtype=complex)
            if U.shape != (self.dim, self.dim):
                raise ValueError(f"unitary {k} has shape {U.shape}, expected ({self.dim}, {self.dim})")
            if not is_unitary(U, DEFAULT_TOL):
                raise NonUnitaryError(f"operator {k} fails the unitarity check")
            U = U.copy()
            U.setflags(write=False)
            ops.append(U)
        object.__setattr__(self, "unitaries", tuple(ops))

    @classmethod
    def from_unitaries(cls, Us: Sequence[np.ndarray], guess_index: int = 0) -> "UnitaryErrorSet":
        Us = [_as_complex_matrix(U, f"unitary {k}") for k, U in enumerate(Us)]
        return cls(dim=Us[0].shape[0] if Us else 0, unitaries=tuple(Us), guess_index=guess_index)

    @property
    def guess(self) -> np.ndarray:
        return self.unitaries[self.guess_index]


@dataclass(frozen=True, eq=False)
class EigGrouping:
    """Unit-modulus eigenvalues partitioned into degeneracy classes."""

    eigenvalues: tuple[complex, ...]
    groups: tuple[tuple[int, ...], ...]
    eigenvectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = len(self.eigenvalues)
        for lam in self.eigenvalues:
            if abs(abs(lam) - 1.0) > 1e-8:
                raise ValueError(f"eigenvalue {lam} is not unit modulus")
        covered = sorted(i for g in self.groups for i in g)
        if covered != list(range(n)):
            raise ValueError("groups must partition the eigenvalue indices")
        vecs = []
        for v in self.eigenvectors:
            v = np.asarray(v, dtype=complex).reshape(-1)
            v.setflags(write=False)
            vecs.append(v)
        V = np.column_stack(vecs)
        if np.linalg.norm(V.conj().T @ V - np.eye(n)) > 1e-8:
            raise ValueError("eigenvectors are not orthonormal")
        object.__setattr__(self, "eigenvectors", tuple(vecs))

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)


def gamma_i(es: UnitaryErrorSet, i: int) -> np.ndarray:
    """Comparison matrix ``kron(V, conj(V))`` with ``V = U_i^dag U_g``.

    Unitary, and the identity when ``i`` is the guess index.
    """
    if not 0 <= i < len(es.unitaries):
        raise IndexError(f"index {i} out of range for {len(es.unitaries)} unitaries")
    V = es.unitaries[i].conj().T @ es.guess
    return _kron(V, V.conj())


def invariant_subspace(G: np.ndarray, tol: float = DEFAULT_INVARIANT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the eigenvalue-1 eigenspace of a unitary matrix.

    Computed from the full matrix as the null space of ``G - I``; for a
    unitary ``G`` the singular values of ``G - I`` are exactly the distances
    ``|lambda - 1|``, so ``tol`` bounds how far an eigenvalue may sit from 1.
    """
    _require_non_negative(tol, "invariant-subspace tolerance")
    G = np.asarray(G, dtype=complex)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got {G.shape}")
    return _ordered_null_basis(G - np.eye(len(G)), lambda s: s <= tol)


def ru_correctable_family(es: UnitaryErrorSet, tol: float = DEFAULT_KERNEL_RTOL) -> ObservableFamily:
    """Observables correctable for every probability assignment over the set.

    The recovery condition is affine in the probabilities, so probing the
    simplex at its vertices suffices: the family is
    :func:`~qdeconv.deconvolution.common_correctable_family` over one pair
    ``(U_i, U_g)`` per unitary, with ``tol`` as the relative singular-value
    cutoff.  The guess's own pair constrains nothing.  Certified like
    :func:`~qdeconv.deconvolution.correctable_family`: above 1e-9,
    :class:`FamilyVerificationError` names unitary i as pair i.
    """
    transfers = [TransferMatrix(dim=es.dim, gamma=_kron(U, U.conj())) for U in es.unitaries]
    guess = transfers[es.guess_index]
    # a unitary guess is orthogonal in Hermitian coordinates, so always invertible
    return common_correctable_family([GuessPair(phi=phi, phi_g=guess) for phi in transfers], tol)


def _group_indices(evals: np.ndarray, grouping_tol: float) -> list[list[int]]:
    """Connected components of the eigenvalue proximity graph."""
    n = evals.size
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if abs(evals[i] - evals[j]) <= grouping_tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [sorted(g) for g in groups.values()]


def eig_grouping(W: np.ndarray, grouping_tol: float = DEFAULT_GROUPING_TOL) -> EigGrouping:
    """Eigendecomposition of a unitary through a Hermitian one, with degeneracy grouping.

    ``W`` is turned by a global phase so that the widest gap of its spectrum
    is centred on -1; then its Cayley transform ``i (I - W)(I + W)^-1`` is
    Hermitian with eigenvalues ``tan(theta / 2)``, strictly increasing in the
    eigenphase, and ``eigh`` of it gives an orthonormal eigenbasis of ``W``
    even inside degenerate clusters.  The eigenvalues are the diagonal of
    ``V^dag W V``, whose off-diagonal part must vanish to 1e-10 relative.
    Eigenvector phases are fixed by making the largest-magnitude entry real
    positive.  Indices are ordered by ascending eigenvalue phase angle, ties
    by original position; groups are listed by their first member.
    """
    _require_non_negative(grouping_tol, "grouping tolerance")
    W = np.asarray(W, dtype=complex)
    if not is_unitary(W, 1e-8):
        raise NonUnitaryError("eigendecomposition input fails the unitarity check")

    d = W.shape[0]
    phases = np.sort(np.angle(np.linalg.eigvals(W)))
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    k = int(np.argmax(gaps))
    turned = np.exp(1j * (np.pi - phases[k] - gaps[k] / 2)) * W
    cayley = 1j * np.linalg.solve(np.eye(d) + turned, np.eye(d) - turned)
    _, Q = np.linalg.eigh(0.5 * (cayley + cayley.conj().T))
    T = Q.conj().T @ W @ Q
    evals = np.diag(T).copy()
    off = np.linalg.norm(T - np.diag(evals))
    if off > 1e-10 * max(1.0, np.linalg.norm(T)):
        raise ValueError(f"eigenbasis of a unitary should diagonalize it (off-diagonal {off:.3e})")

    # angles in (-pi, pi]: -1 sorts last whichever sign rounding gives its imaginary part
    angles = [round(float(np.angle(x)), 12) for x in evals]
    angles = [-a if a == round(-np.pi, 12) else a for a in angles]
    order = sorted(range(evals.size), key=lambda k: (angles[k], k))
    evals = evals[order]
    vecs = [_fix_vector_phase(Q[:, k].copy()) for k in order]
    groups = sorted(_group_indices(evals, grouping_tol), key=lambda g: g[0])
    return EigGrouping(
        eigenvalues=tuple(complex(x) for x in evals),
        groups=tuple(tuple(g) for g in groups),
        eigenvectors=tuple(vecs),
    )


def _projector_basis(vecs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of ``span(vecs)`` that depends on the span alone.

    Gram-Schmidt over the columns of the span's projector in index order keeps
    each residual of squared norm at least ``1/(2d)``; while fewer than ``m``
    are kept, the unspanned trace (at least 1) guarantees a later column passes.
    """
    V = np.column_stack(vecs)
    kept: list[np.ndarray] = []
    for col in (V @ V.conj().T).T:
        r = col - sum((np.vdot(u, col) * u for u in kept), np.zeros_like(col))
        if len(kept) < V.shape[1] and np.vdot(r, r).real >= 1 / (2 * len(col)):
            kept.append(_fix_vector_phase(r / np.linalg.norm(r)))
    return kept


def two_unitary_family(
    U1: np.ndarray,
    U2: np.ndarray,
    tol: float = DEFAULT_GROUPING_TOL,
) -> tuple[EigGrouping, ObservableFamily]:
    """Closed-form family for noise mixing exactly two unitary conjugations.

    Eigendecomposes ``W = U1^dag U2``; the family is the commutant of ``W``
    in block form: each degeneracy group of multiplicity m, with a basis ``V``
    of its eigenspace that depends on the eigenspace alone, not on the solver,
    contributes the m^2 matrices ``V H V^dag`` over the orthonormal Hermitian
    basis ``H`` of m x m operators (diagonal units, then symmetric, then
    antisymmetric).  With a non-degenerate spectrum that is the d projectors.
    """
    U1 = np.asarray(U1, dtype=complex)
    U2 = np.asarray(U2, dtype=complex)
    if U1.shape != U2.shape:
        raise ValueError(f"dimension mismatch: {U1.shape} vs {U2.shape}")
    for name, U in (("U1", U1), ("U2", U2)):
        if not is_unitary(U, DEFAULT_TOL):
            raise NonUnitaryError(f"{name} fails the unitarity check")
    d = U1.shape[0]
    grouping = eig_grouping(U1.conj().T @ U2, tol)

    basis: list[np.ndarray] = []
    for group in grouping.groups:
        vecs = [grouping.eigenvectors[a] for a in group]
        V = np.column_stack(_projector_basis(vecs) if len(vecs) > 1 else vecs)
        basis.extend(V @ _hermitian_operators(np.eye(len(vecs) ** 2), len(vecs)) @ V.conj().T)
    basis = [_fix_matrix_sign(0.5 * (A + A.conj().T)) for A in basis]
    return grouping, ObservableFamily.from_basis(d, basis)


def commutant_family(Us: Sequence[np.ndarray], tol: float = DEFAULT_KERNEL_RTOL) -> ObservableFamily:
    """Hermitian basis of the joint commutant ``{A : U_k A == A U_k for all k}``.

    The family of :func:`ru_correctable_family` for the unitaries with the
    identity appended as the guess, with ``tol`` as the relative
    singular-value cutoff; a certificate failure names operator k as pair k.
    """
    Us = [_as_complex_matrix(U, f"unitary {k}") for k, U in enumerate(Us)]
    # an empty list has no dimension and gets no identity; the set rejects it
    identity = [np.eye(Us[0].shape[0])] if Us else []
    return ru_correctable_family(UnitaryErrorSet.from_unitaries([*Us, *identity], len(Us)), tol)
