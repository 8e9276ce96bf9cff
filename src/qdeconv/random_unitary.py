"""Correctable families for mixed-unitary noise with unknown mixing weights.

When the noise is ``rho -> sum_k p_k U_k rho U_k^dag`` with known unitaries
but unknown probabilities, correctability must hold for every probability
vector at once.  Choosing one of the error unitaries as the guess, that
reduces to finding operators invariant under every comparison matrix
``G_i = kron(V_i, conj(V_i))`` with ``V_i = U_i^dag U_g``, equivalently
observables with ``U_i A U_i^dag`` independent of i.  The two-unitary case
has a closed form through the eigenvectors of ``U_1^dag U_2``, and error
sets forming an irreducible group representation admit only multiples of
the identity (a commutant computation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import DEFAULT_TOL, is_unitary
from .deconvolution import (
    ObservableFamily,
    _certified_family,
    _constraint_coordinates,
    _fix_matrix_sign,
    _fix_vector_phase,
    _ordered_null_basis,
)
from .errors import NonUnitaryError

#: Eigenvalues closer than this are treated as degenerate when grouping.
DEFAULT_GROUPING_TOL = 1e-8

#: Default distance-from-1 threshold for invariant (unit-eigenvalue) subspaces,
#: and default relative singular-value cutoff of the family constructors.
DEFAULT_INVARIANT_TOL = 1e-8


@dataclass(frozen=True)
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
        Us = [np.asarray(U, dtype=complex) for U in Us]
        return cls(dim=Us[0].shape[0], unitaries=tuple(Us), guess_index=guess_index)

    @property
    def guess(self) -> np.ndarray:
        return self.unitaries[self.guess_index]


@dataclass(frozen=True)
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
    return np.kron(V, V.conj())


def invariant_subspace(G: np.ndarray, tol: float = DEFAULT_INVARIANT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the eigenvalue-1 eigenspace of a unitary matrix.

    Computed from the full matrix as the null space of ``G - I``; for a
    unitary ``G`` the singular values of ``G - I`` are exactly the distances
    ``|lambda - 1|``, so ``tol`` bounds how far an eigenvalue may sit from 1.
    """
    G = np.asarray(G, dtype=complex)
    n = G.shape[0]
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got {G.shape}")
    return _ordered_null_basis(G - np.eye(n), lambda s: s <= tol)


def ru_correctable_family(es: UnitaryErrorSet, tol: float = DEFAULT_INVARIANT_TOL) -> ObservableFamily:
    """Observables correctable for every probability assignment over the set.

    Takes the Hermitian null space of ``G_i - I`` stacked over every
    comparison matrix, with ``tol`` as the relative singular-value cutoff.
    The guess's block is a literal zero, which the primitive drops; computed,
    its rounding residual could be normalized into a full-weight constraint.
    ``||(G_i - I) vec(A)||`` is ``||U_i A U_i^dag - U_g A U_g^dag||_F``;
    above 1e-9 for a unit-norm member, :class:`FamilyVerificationError`
    names unitary i as pair i.
    """
    d2 = es.dim**2
    blocks = [gamma_i(es, i) - np.eye(d2) for i in range(len(es.unitaries))]
    blocks[es.guess_index] = np.zeros((d2, d2))
    return _certified_family(_constraint_coordinates(blocks, es.dim), es.dim, tol)


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

    Eigendecomposes ``W = U1^dag U2``; the family is the Hermitian span of
    ``|w_a><w_b|`` over eigenvector pairs in a common degeneracy group.
    With a non-degenerate spectrum that is the d real diagonal weights; each
    group of multiplicity m contributes m^2 real parameters, built on a basis
    of its eigenspace that depends on the eigenspace alone, not on the solver.
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
        vecs = _projector_basis(vecs) if len(vecs) > 1 else vecs
        basis.extend(np.outer(v, v.conj()) for v in vecs)
        for v, w in itertools.combinations(vecs, 2):
            cross = np.outer(v, w.conj())
            basis.append((cross + cross.conj().T) / np.sqrt(2))
            basis.append((-1j * cross + 1j * cross.conj().T) / np.sqrt(2))
    basis = [_fix_matrix_sign(0.5 * (A + A.conj().T)) for A in basis]
    return grouping, ObservableFamily.from_basis(d, basis)


def commutant_family(Us: Sequence[np.ndarray], tol: float = DEFAULT_INVARIANT_TOL) -> ObservableFamily:
    """Hermitian basis of the joint commutant ``{A : U_k A == A U_k for all k}``.

    The commutator with ``U`` acts on vectorized operators as
    ``kron(U, I) - kron(I, U.T)``; the family is the Hermitian null space of
    those superoperators stacked, with ``tol`` as the relative singular-value
    cutoff, certified as in :func:`ru_correctable_family` (pair k is operator k).
    """
    mats = []
    d = None
    for k, U in enumerate(Us):
        U = np.asarray(U, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError(f"operator {k} is not square")
        if d is None:
            d = U.shape[0]
        elif U.shape[0] != d:
            raise ValueError("all operators must share one dimension")
        if not is_unitary(U, DEFAULT_TOL):
            raise NonUnitaryError(f"operator {k} fails the unitarity check")
        mats.append(np.kron(U, np.eye(d)) - np.kron(np.eye(d), U.T))
    if d is None:
        raise ValueError("need at least one operator")
    return _certified_family(_constraint_coordinates(mats, d), d, tol)
