"""Correctable observable extraction and recovery bookkeeping.

Given the true noise ``phi`` and an invertible guess ``phi_g``, the operator

    F = I - gamma_phi^dag @ (gamma_phi_g^-1)^dag

annihilates exactly those vectorized observables whose expectation value is
recovered, for every input state, by measuring the modified observable
``adjoint(inverse(phi_g))(A)`` on the noisy state.  Since
``F gamma_phi_g^dag = (gamma_phi_g - gamma_phi)^dag``, that space is
``gamma_phi_g^dag`` applied to the kernel of ``D = (gamma_phi_g - gamma_phi)^dag``,
so it is extracted without inverting the guess.  This module extracts and
certifies an orthonormal Hermitian basis of that space, evaluates recovery
quality per (state, observable) pair, and ranks candidate guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .channels import (
    DEFAULT_SV_CUTOFF,
    TransferMatrix,
    _check_sv_cutoff,
    _ginibre_states,
    _require_invertible,
    apply_channel,
)
from .errors import FamilyVerificationError, SingularChannelError

#: Default relative singular-value threshold for numerical kernel extraction.
DEFAULT_KERNEL_RTOL = 1e-8

#: Relative residual below which an observable counts as a span member.
MEMBERSHIP_RTOL = 1e-8

#: Largest admissible recovery bound for a family returned by a constructor.
_RECOVERY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Real Hermitian coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sparse form of the orthonormal Hermitian basis ``B`` of d x d operators.

    The basis is ``E_ii``, ``(E_jk + E_kj)/sqrt2``, ``i(E_kj - E_jk)/sqrt2``
    (j < k), in that order.  Column k of ``B`` is
    ``w1[k] e_{i1[k]} + w2[k] e_{i2[k]}``; ``i1`` and ``i2`` are permutations
    of the vectorized indices.
    """
    diag = np.arange(d) * (d + 1)
    rows, cols = np.triu_indices(d, 1)
    upper, lower = rows * d + cols, cols * d + rows
    n, r = rows.size, np.sqrt(0.5)
    i1 = np.concatenate([diag, upper, lower])
    i2 = np.concatenate([diag, lower, upper])
    w1 = np.concatenate([np.full(d, 0.5), np.full(n, r), np.full(n, 1j * r)])
    w2 = np.concatenate([np.full(d, 0.5), np.full(n, r), np.full(n, -1j * r)])
    for a in (i1, i2, w1, w2):
        a.setflags(write=False)
    return i1, i2, w1, w2


def _coordinates(M: np.ndarray, d: int) -> np.ndarray:
    """``B^dag M B``: a superoperator in Hermitian coordinates on both sides.

    Real (to rounding) when ``M`` maps Hermitian operators to Hermitian ones.
    ``M`` is complex; the rows and then the columns are gathered, scaled and
    added in place, in three ``d^2 x d^2`` buffers.
    """
    i1, i2, w1, w2 = _hermitian_basis(d)
    X, buf = M[i1], M[i2]
    X *= w1.conj()[:, None]
    buf *= w2.conj()[:, None]
    X += buf
    out = np.take(X, i1, axis=1)
    out *= w1
    np.take(X, i2, axis=1, out=buf)
    buf *= w2
    out += buf
    return out


def _hermitian_operators(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Stacked operators with the real Hermitian coordinates ``coeffs`` (rows); exactly Hermitian."""
    i1, i2, w1, w2 = _hermitian_basis(d)
    vecs = np.zeros((len(coeffs), d * d), dtype=complex)
    vecs[:, i1] = coeffs * w1
    vecs[:, i2] += coeffs * w2
    return vecs.reshape(-1, d, d)


def _from_coordinates(coeffs: np.ndarray, d: int) -> ObservableFamily:
    """Family whose basis elements have the real Hermitian coordinates ``coeffs`` (rows), sign-fixed."""
    return ObservableFamily.from_basis(d, [_fix_matrix_sign(M) for M in _hermitian_operators(coeffs, d)])


# ---------------------------------------------------------------------------
# Invertibility of the guess
# ---------------------------------------------------------------------------

#: Smallest bracket that may accept without an SVD.  Above it the LU inverse's
#: relative rounding, about ``n * kappa * eps``, stays below 1e-4 for n <= 4096,
#: so the factor 2 in :func:`_require_invertible_coordinates` absorbs it at any
#: cutoff.  It lies below twice the default cutoff.
_BRACKET_FLOOR = float(np.sqrt(np.finfo(float).eps))


def _spectral_norm_bound(M: np.ndarray) -> float:
    """Upper bound on ``||M||_2`` of a nonzero ``M``: the smaller of
    ``sqrt(||M||_1 ||M||_inf)`` and the Frobenius norm (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 6.2).

    Both are evaluated so that squares and products of tiny entries cannot
    underflow to a bound of 0; a product that overflows gives ``inf``.
    """
    A = np.abs(M)
    top = A.max()
    one_inf = np.sqrt(A.sum(axis=0).max()) * np.sqrt(A.sum(axis=1).max())
    A /= top
    return min(one_inf, top * np.linalg.norm(A))


def _require_invertible_coordinates(G: np.ndarray, sv_cutoff: float) -> None:
    """:func:`~qdeconv.channels._require_invertible` on the singular values of
    the real square ``G``, without them when one LU inverse decides.

    ``1 / (u(G) u(G^-1))``, with ``u`` from :func:`_spectral_norm_bound`, is a
    lower bound on ``s_min / s_max``; when it exceeds twice the cutoff (and
    ``_BRACKET_FLOOR``) ``G`` is accepted.  Otherwise, and when the inverse
    fails or is not finite, the values-only SVD decides, so every rejection
    and its message come from ``_require_invertible``.  The inverse is dropped.
    """
    try:
        inv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        inv = None
    if inv is not None and np.isfinite(inv).all():
        with np.errstate(over="ignore"):
            lower = 1.0 / (_spectral_norm_bound(G) * _spectral_norm_bound(inv))
        if lower > max(2.0 * sv_cutoff, _BRACKET_FLOOR):
            return
    _require_invertible(np.linalg.svd(G, compute_uv=False), sv_cutoff)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GuessPair:
    """True channel and guessed channel; the guess's real Hermitian coordinates are cached.

    Build pairs with :meth:`from_transfers`, which checks that the guess is
    invertible and preserves Hermiticity; the constructor checks dimensions only.
    """

    phi: TransferMatrix
    phi_g: TransferMatrix

    def __post_init__(self) -> None:
        if self.phi.dim != self.phi_g.dim:
            raise ValueError("all transfer matrices must share one dimension")

    @property
    def dim(self) -> int:
        return self.phi.dim

    @cached_property
    def _guess_coordinates(self) -> np.ndarray:
        """The guess in real Hermitian coordinates, ``B^dag gamma_g B``.

        Raises ``ValueError`` when its imaginary part exceeds
        ``1e-10 * max(1, norm)``: the guess does not preserve Hermiticity.
        """
        G = _coordinates(self.phi_g.gamma, self.dim)
        leak = np.linalg.norm(G.imag)
        if leak > 1e-10 * max(1.0, np.linalg.norm(G)):
            raise ValueError(
                f"guess does not preserve Hermiticity (imaginary part {leak:.3e} in Hermitian coordinates)"
            )
        G = G.real.copy()
        G.setflags(write=False)
        return G

    @classmethod
    def from_transfers(
        cls,
        phi: TransferMatrix,
        phi_g: TransferMatrix,
        sv_cutoff: float = DEFAULT_SV_CUTOFF,
    ) -> "GuessPair":
        """Build a pair from transfer matrices, checking that the guess is invertible.

        A norm bracket from one LU inverse of the guess decides, and its
        values-only SVD only when the bracket cannot (see
        :func:`_require_invertible_coordinates`).

        Raises
        ------
        SingularChannelError
            If the guess is not invertible at the given relative cutoff.
        ValueError
            If the true channel or the guess has a NaN or infinite entry, the
            guess does not preserve Hermiticity, or ``sv_cutoff`` is NaN or
            negative.
        """
        _check_sv_cutoff(sv_cutoff)
        for name, t in (("true channel", phi), ("guess", phi_g)):
            if not np.isfinite(t.gamma).all():
                raise ValueError(f"{name} transfer matrix has non-finite entries")
        pair = cls(phi=phi, phi_g=phi_g)
        _require_invertible_coordinates(pair._guess_coordinates, sv_cutoff)
        return pair


def _hermitian_stack(elements: Sequence[np.ndarray], d: int) -> np.ndarray:
    """Owned, read-only ``(k, d, d)`` stack of orthonormal Hermitian ``elements``.

    Each element must be ``d x d`` and Hermitian within 1e-10 (Frobenius), and
    the Gram matrix must be the identity within 1e-10.  ``ValueError`` names
    the first element or pair that fails.
    """
    for k, A in enumerate(elements):
        if np.shape(A) != (d, d):
            raise ValueError(f"element {k} has shape {np.shape(A)}, expected ({d}, {d})")
    # an owned array, so no element view can be made writeable again
    stack = np.array(elements, dtype=complex) if len(elements) else np.zeros((0, d, d), dtype=complex)
    skew = np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2))
    # written so that NaN fails too
    bad = np.flatnonzero(~(skew <= 1e-10))
    if bad.size:
        raise ValueError(f"element {bad[0]} is not Hermitian within 1e-10")
    V = stack.reshape(len(stack), d * d)
    gram = V.conj() @ V.T
    off = np.argwhere(np.triu(np.abs(gram), 1) > 1e-10)
    if off.size:
        i, j = off[0]
        raise ValueError(f"elements {i},{j} are not orthogonal within 1e-10")
    wrong = np.flatnonzero(~(np.abs(gram.diagonal().real - 1) <= 1e-10))
    if wrong.size:
        m = wrong[0]
        raise ValueError(f"element {m} has <Q_{m}, Q_{m}> = {gram[m, m].real:g}, expected 1 within 1e-10")
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True, eq=False)
class ObservableFamily:
    """Orthonormal Hermitian basis of a space of observables.

    A correctable family is one such space; a quorum is the complete one, the
    family of a pair whose guess is the true channel.  ``basis`` holds
    read-only views of one stack from :func:`_hermitian_stack`.
    """

    dim: int
    basis: tuple[np.ndarray, ...]
    _stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        stacked = _hermitian_stack(self.basis, self.dim)
        object.__setattr__(self, "_stacked", stacked)
        object.__setattr__(self, "basis", tuple(stacked))

    @classmethod
    def from_basis(cls, dim: int, basis: Sequence[np.ndarray]) -> "ObservableFamily":
        return cls(dim=dim, basis=tuple(basis))

    @property
    def n_params(self) -> int:
        return len(self.basis)

    def member(self, coefficients: Sequence[float]) -> np.ndarray:
        """Real linear combination of the basis elements, from a 1-D sequence of ``n_params`` reals."""
        coeff = np.asarray(coefficients)
        if coeff.shape != (self.n_params,) or coeff.dtype.kind not in "iuf":
            raise ValueError(
                f"expected a 1-D sequence of {self.n_params} real numbers, got {coeff.dtype} of shape {coeff.shape}"
            )
        return np.tensordot(coeff, self._stacked, axes=1)


@dataclass(frozen=True)
class DeconvReport:
    """Ideal, raw and deconvolved expectation values for one (state, observable)."""

    ideal: float
    experimental: float
    deconvolved: float
    delta_exp: float
    delta_nd: float
    improved: bool
    #: Exact tie between the two deviations; reported as not improved.
    tie: bool


# ---------------------------------------------------------------------------
# Numerical null spaces with a deterministic ordering
# ---------------------------------------------------------------------------

def _leading_index(v: np.ndarray) -> int:
    """Index of the first entry of maximal magnitude, ties within 1e-9 relative
    included, so rounding cannot choose among entries equal in exact arithmetic."""
    mag = np.abs(v)
    return int(np.argmax(mag >= (1 - 1e-9) * mag.max()))


def _fix_vector_phase(v: np.ndarray) -> np.ndarray:
    """Rotate ``v`` so its first largest-magnitude entry is real positive."""
    z = v[_leading_index(v)]
    if abs(z) == 0.0:
        return v
    return v * (np.conj(z) / abs(z))


def _lexicographic_key(v: np.ndarray) -> tuple:
    rounded = np.round(v, 12)
    return tuple(x for entry in rounded for x in (entry.real, entry.imag))


def _ordered_null_basis(M: np.ndarray, keep: Callable[[np.ndarray], np.ndarray]) -> list[np.ndarray]:
    """Right-singular vectors of ``M`` selected by ``keep`` on the singular values.

    Vectors come out phase-fixed and sorted by ascending singular value,
    ties broken by lexicographic comparison of the rounded entries.
    """
    M = np.asarray(M, dtype=complex)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    svals = np.zeros(vh.shape[0])
    svals[: s.size] = s
    mask = keep(svals)
    picked = [(svals[i], _fix_vector_phase(vh[i].conj())) for i in np.nonzero(mask)[0]]
    picked.sort(key=lambda t: (t[0], _lexicographic_key(t[1])))
    return [v for _, v in picked]


#: Singular values below this count as zero even when the largest one is
#: itself negligible, so a numerically zero operator keeps a full kernel.
_KERNEL_ABS_FLOOR = 1e-14


def kernel(F: np.ndarray, rel_tol: float = DEFAULT_KERNEL_RTOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of a square matrix.

    Keeps right-singular vectors whose singular value is at most
    ``max(rel_tol * sigma_max, 1e-14)``; for ``F == 0`` (exactly or to
    rounding) every direction qualifies.  An empty list means the kernel is
    trivial.
    """
    F = np.asarray(F, dtype=complex)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {F.shape}")
    return _ordered_null_basis(F, lambda s: s <= max(rel_tol * s.max(), _KERNEL_ABS_FLOOR))


def joint_kernel(mats: Sequence[np.ndarray], dim2: int, rel_tol: float = DEFAULT_KERNEL_RTOL) -> list[np.ndarray]:
    """Common null space of several operators, via the stacked system.

    Each block is normalized by its largest singular value so no single
    operator dominates the cutoff.  Blocks that are numerically zero impose
    no constraint; with no effective constraint the full space is returned.
    """
    blocks = []
    for M in mats:
        M = np.asarray(M, dtype=complex)
        if M.shape != (dim2, dim2):
            raise ValueError(f"expected {dim2}x{dim2} blocks, got {M.shape}")
        top = np.linalg.norm(M, 2)
        # a numerically zero block constrains nothing; normalizing it would
        # amplify rounding noise into a fake constraint
        if top > 1e-12:
            blocks.append(M / top)
    if not blocks:
        return kernel(np.zeros((dim2, dim2)), rel_tol)
    return _ordered_null_basis(
        np.vstack(blocks), lambda s: s <= max(rel_tol * s.max(), _KERNEL_ABS_FLOOR)
    )


# ---------------------------------------------------------------------------
# Hermitian null spaces and span utilities
# ---------------------------------------------------------------------------

def _fix_matrix_sign(A: np.ndarray) -> np.ndarray:
    """Flip the overall sign so the largest-magnitude entry leads positive.

    For a Hermitian matrix only +-1 rescalings preserve Hermiticity, so the
    convention is: at the first row-major entry of maximal magnitude, make
    the real part positive (or the imaginary part, when the real part
    vanishes).
    """
    z = A.flat[_leading_index(A.reshape(-1))]
    if abs(z) == 0.0:
        return A
    lead = z.real if abs(z.real) > 1e-12 * abs(z) else z.imag
    return -A if lead < 0 else A


#: Gram eigenvalues up to this fraction of the largest are kernel candidates
#: at any cutoff.  The eigensolver resolves them only to about ``eps * w_max``;
#: this keeps every singular value below ``1e-5 * sigma_max`` a candidate.
_CANDIDATE_FLOOR = 1e-10

#: Stage-2 singular values within this factor of the cutoff send the decision
#: to the full SVD; candidate eigenvalues reach the square of this factor.
_DECISION_MARGIN = 100.0


def _null_coordinates(blocks: Sequence[np.ndarray], d2: int, rel_tol: float) -> np.ndarray:
    """Real Hermitian coordinates (columns) of the common null space of ``blocks``.

    Each block is a constraint already in Hermitian coordinates and is
    divided by its Frobenius norm; blocks of norm at most 1e-12 constrain
    nothing, and so does a scaled real or imaginary half of norm at most
    1e-12 (the imaginary half of a map that preserves Hermiticity is
    rounding).  The null space is that of the remaining halves ``h`` stacked
    into ``A``: the right-singular vectors of ``A`` with singular value at
    most ``max(rel_tol * sigma_max, 1e-14)``, returned orthonormal, smallest
    singular value (or Gram eigenvalue, when all candidates are kept) first;
    with no effective constraint every coordinate direction is returned.  A
    NaN or negative ``rel_tol`` raises ``ValueError``.

    It is found without every singular vector of ``A``.  One ``eigh`` of the
    Gram matrix ``A^T A = sum h^T h`` gives eigenpairs ``(w, v)``; those with
    ``w <= max(1e-10 * w_max, (100 * cutoff)^2)`` are the candidates ``S``.
    The Gram matrix squares the condition number, so ``S`` is first corrected
    by one step ``S - V_n diag(1 / w_n) V_n^T A^T A S`` over the other
    eigenpairs and re-orthonormalized, which restores the SVD's accuracy
    (the step's product ``A S`` is formed directly, not through the Gram).
    Then ``A S`` decides against the cutoff: all candidates are kept when its
    Frobenius norm is at most a hundredth of the cutoff, and otherwise its
    thin SVD decides.  When ``S`` holds more than half of the coordinates, or
    a singular value of ``A S`` lies within a factor 100 of the cutoff, the
    full SVD of ``A`` decides instead.
    """
    # written so that NaN fails too; it would silently empty every null space
    if not rel_tol >= 0:
        raise ValueError(f"kernel threshold must be a non-negative number, got {rel_tol}")
    halves = []
    for M in blocks:
        scale = np.linalg.norm(M)
        if scale <= 1e-12:
            continue
        halves += [h for h in (M.real / scale, M.imag / scale) if np.linalg.norm(h) > 1e-12]
    if not halves:
        return np.eye(d2)
    gram = halves[0].T @ halves[0]
    for h in halves[1:]:
        gram += h.T @ h
    w, V = np.linalg.eigh(gram)
    w_max = float(w[-1])
    cutoff = max(rel_tol * w_max**0.5, _KERNEL_ABS_FLOOR)
    n = int(np.searchsorted(w, max(_CANDIDATE_FLOOR * w_max, (_DECISION_MARGIN * cutoff) ** 2), side="right"))
    if 2 * n > d2:
        return _svd_null_coordinates(halves, rel_tol)
    S, Vn = V[:, :n], V[:, n:]
    S = S - Vn @ ((Vn.T @ sum(h.T @ (h @ S) for h in halves)) / w[n:, None])
    # S^T S - I is the step's square (the step is at most about eps / 1e-10);
    # one Newton-Schulz step squares that again
    S = 1.5 * S - 0.5 * S @ (S.T @ S)
    AS = np.vstack([h @ S for h in halves])
    # the Frobenius norm bounds every singular value: all candidates are kept
    if np.linalg.norm(AS) <= cutoff / _DECISION_MARGIN:
        return S
    _, s, vt = np.linalg.svd(AS, full_matrices=False)
    k = int(np.count_nonzero(s <= cutoff))  # the last k of the descending s
    if (k and s[-k] > cutoff / _DECISION_MARGIN) or (k < n and s[-k - 1] < _DECISION_MARGIN * cutoff):
        return _svd_null_coordinates(halves, rel_tol)
    return S @ vt[n - k:][::-1].T


def _svd_null_coordinates(halves: Sequence[np.ndarray], rel_tol: float) -> np.ndarray:
    """:func:`_null_coordinates` of the stacked ``halves`` from their full SVD."""
    _, s, vt = np.linalg.svd(np.vstack(halves), full_matrices=False)
    return vt[s <= max(rel_tol * s[0], _KERNEL_ABS_FLOOR)][::-1].T


def _hermitian_kernel(mats: Sequence[np.ndarray], d: int, rel_tol: float) -> ObservableFamily:
    """Orthonormal Hermitian basis of ``{A : M vec(A) == 0 for every M in mats}``.

    Each ``d^2 x d^2`` constraint is written in the orthonormal Hermitian
    basis ``B`` on both sides, ``B^dag M B``, and the null space is taken by
    :func:`_null_coordinates`: sign-fixed, in ascending singular-value order.
    """
    return _from_coordinates(_null_coordinates([_coordinates(M, d) for M in mats], d * d, rel_tol).T, d)


def _complement_projector(vecs: Sequence[np.ndarray], dim2: int) -> np.ndarray:
    """``I - Q Q^dag`` for an orthonormal basis ``Q`` of the span of ``vecs``.

    ``Q`` holds the left-singular vectors of the stacked ``vecs``; those with
    singular value at most 1e-10 of the largest belong to linearly dependent
    columns and are dropped.
    """
    V = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vecs])
    if V.shape[0] != dim2:
        raise ValueError(f"vector of length {V.shape[0]} does not match dimension {dim2}")
    Q, s, _ = np.linalg.svd(V, full_matrices=False)
    Q = Q[:, s > 1e-10 * s[0]]
    return np.eye(dim2) - Q @ Q.conj().T


def hermitian_section(kernel_basis: Sequence[np.ndarray], d: int) -> ObservableFamily:
    """Hermitian observables whose vectorization lies in a given complex span.

    The Hermitian null space of the projector onto the span's orthogonal
    complement, at relative cutoff 1e-10.
    """
    if len(kernel_basis) == 0:
        return ObservableFamily.from_basis(d, [])
    return _hermitian_kernel([_complement_projector(kernel_basis, d * d)], d, 1e-10)


def intersect_spans(B1: Sequence[np.ndarray], B2: Sequence[np.ndarray], tol: float = 1e-10) -> list[np.ndarray]:
    """Orthonormal basis of the intersection of two vector spans.

    The joint kernel of the projectors onto the two orthogonal complements,
    with ``tol`` as its relative cutoff.
    """
    if not B1 or not B2:
        return []
    dim2 = np.asarray(B1[0]).size
    return joint_kernel([_complement_projector(B1, dim2), _complement_projector(B2, dim2)], dim2, tol)


def _span_residual(rows: np.ndarray, span: np.ndarray) -> float:
    """Largest relative distance of the rows of ``rows`` from the span of the rows of ``span``.

    Both are stacks (operators or vectors), flattened to one row each; the
    rows of ``span`` must be linearly independent.  One QR of ``span`` and
    one orthogonal projection; a zero row, and an empty ``rows``, give 0.
    Rows of different lengths raise ``ValueError``.
    """
    X, S = (np.asarray(a, dtype=complex) for a in (rows, span))
    X, S = (a.reshape(len(a), math.prod(a.shape[1:])) for a in (X, S))
    Q = np.linalg.qr(S.T)[0]
    residual = np.linalg.norm(X - (X @ Q.conj()) @ Q.T, axis=1)
    lengths = np.linalg.norm(X, axis=1)
    return float(np.max(residual / np.where(lengths > 0, lengths, 1.0), initial=0.0))


def membership_residual(fam: ObservableFamily, A: np.ndarray) -> float:
    """Relative distance from ``A`` to the span of a family (0 for members)."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (fam.dim, fam.dim):
        raise ValueError(f"observable shape {A.shape} does not match family dimension {fam.dim}")
    return _span_residual(A[None], fam._stacked)


def span_residual(fam_a: ObservableFamily, fam_b: ObservableFamily) -> float:
    """Largest membership residual of ``fam_a`` members inside ``fam_b``'s span."""
    return _span_residual(fam_a._stacked, fam_b._stacked)


def spans_coincide(fam_a: ObservableFamily, fam_b: ObservableFamily, tol: float = MEMBERSHIP_RTOL) -> bool:
    """Whether two families span the same space (mutual residual within ``tol``)."""
    return (
        fam_a.n_params == fam_b.n_params
        and span_residual(fam_a, fam_b) <= tol
        and span_residual(fam_b, fam_a) <= tol
    )


# ---------------------------------------------------------------------------
# Deviation operator and recovery evaluation
# ---------------------------------------------------------------------------

def deviation_operator(gp: GuessPair) -> np.ndarray:
    """``I - (gamma_g^-1 gamma_phi)^dag`` from the complex transfer matrices; its kernel is the correctable space."""
    return np.eye(gp.dim**2) - np.linalg.solve(gp.phi_g.gamma, gp.phi.gamma).conj().T


def _modified_observables(gp: GuessPair, As: np.ndarray) -> np.ndarray:
    """Modified observables of the Hermitian parts of stacked ``(n, d, d)`` observables.

    ``gamma_g^-dag = B G^-T B^dag``, so one ``solve(G^T, a)`` takes all their
    real coordinates ``a = B^dag vec(A)`` (columns) at once.  Raises
    ``ValueError`` when a column's backward error ``||G^T m - a||`` exceeds
    ``1e-10 * max(1, ||G|| ||m||)``.
    """
    G = gp._guess_coordinates
    i1, i2, w1, w2 = _hermitian_basis(gp.dim)
    V = As.reshape(len(As), -1)
    a = (V[:, i1] * w1.conj() + V[:, i2] * w2.conj()).real.T
    m = np.linalg.solve(G.T, a)
    residual = np.linalg.norm(G.T @ m - a, axis=0)
    # written so that a NaN residual fails too
    if not (residual <= 1e-10 * np.maximum(1.0, np.linalg.norm(G) * np.linalg.norm(m, axis=0))).all():
        raise ValueError(f"solve against the guess failed (backward error up to {residual.max():.3e})")
    return _hermitian_operators(m.T, gp.dim)


def modified_observable(gp: GuessPair, A: np.ndarray) -> np.ndarray:
    """Observable to measure on the noisy state in place of ``A``.

    ``devec(gamma_g^-dag vec(A))``, exactly Hermitian; an ``A`` whose
    anti-Hermitian part exceeds ``1e-10 * max(1, ||A||)`` raises ``ValueError``.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (gp.dim, gp.dim):
        raise ValueError(f"observable shape {A.shape} does not match dim {gp.dim}")
    skew = np.linalg.norm(A - A.conj().T) / 2
    if skew > 1e-10 * max(1.0, np.linalg.norm(A)):
        raise ValueError(f"observable is not Hermitian (anti-Hermitian part {skew:.3e})")
    return _modified_observables(gp, A[None])[0]


def expectation(A: np.ndarray, rho: np.ndarray) -> float:
    """Real expectation value ``Tr(A rho)`` of a Hermitian observable."""
    A = np.asarray(A, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if A.shape != rho.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"shape mismatch: observable {A.shape} vs state {rho.shape}")
    value = complex(np.trace(A @ rho))
    scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(rho))
    if abs(value.imag) > 1e-10 * scale:
        raise ValueError(f"expectation value has imaginary residual {value.imag:.3e}")
    return value.real


def evaluate(gp: GuessPair, A: np.ndarray, rho: np.ndarray) -> DeconvReport:
    """Ideal, noisy and deconvolved (``Tr(modified(A) Phi(rho))``) expectation values plus their deviations."""
    ideal = expectation(A, rho)
    noisy_state = apply_channel(gp.phi, rho)
    experimental = expectation(A, noisy_state)
    deconvolved = expectation(modified_observable(gp, A), noisy_state)
    delta_exp = abs(ideal - experimental)
    delta_nd = abs(ideal - deconvolved)
    tie = delta_nd == delta_exp
    return DeconvReport(
        ideal=ideal,
        experimental=experimental,
        deconvolved=deconvolved,
        delta_exp=delta_exp,
        delta_nd=delta_nd,
        improved=delta_nd < delta_exp,
        tie=tie,
    )


# ---------------------------------------------------------------------------
# Family extraction
# ---------------------------------------------------------------------------

#: States per block in :func:`verify_family`; bounds its memory at any ``n_states``.
_VERIFY_BLOCK = 128


def _transposed_rows(X: np.ndarray, d: int) -> np.ndarray:
    """Rows ``vec(X_i^T)`` of stacked operators given as rows ``vec(X_i)``."""
    return X.reshape(-1, d, d).transpose(0, 2, 1).reshape(len(X), d * d)


def _recovery_deviations(gp: GuessPair, plain: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Recovery deviations ``Tr(A rho) - Tr(modified(A) Phi(rho))`` of stacked ``(k, d, d)`` observables.

    The modified observables are built by one solve.  The returned function
    takes stacked ``(n, d, d)`` states and gives the real ``(n, k)``
    deviations from one channel product and two deviation products; it raises
    ``ValueError`` when a state's deviations have an imaginary part above
    :func:`expectation`'s threshold (a channel that breaks Hermiticity),
    naming the residual of the first such state.
    """
    d = gp.dim
    modified = _modified_observables(gp, plain).reshape(len(plain), -1)
    plain = plain.reshape(len(plain), -1)
    modified_norm = np.linalg.norm(modified, axis=1).max()

    def deviations(rhos: np.ndarray) -> np.ndarray:
        # Tr(A X) = vec(A) . vec(X^T), so two products give every value of the block
        states = rhos.reshape(len(rhos), -1)
        noisy = states @ gp.phi.gamma.T
        deviation = _transposed_rows(states, d) @ plain.T - _transposed_rows(noisy, d) @ modified.T
        residual = np.abs(deviation.imag).max(axis=1)
        bad = residual > 1e-10 * np.maximum(1.0, modified_norm * np.linalg.norm(noisy, axis=1))
        if bad.any():
            raise ValueError(f"expectation value has imaginary residual {residual[np.argmax(bad)]:.3e}")
        return deviation.real

    return deviations


def verify_family(gp: GuessPair, fam: ObservableFamily, n_states: int, seed: int) -> float:
    """Monte-Carlo check of perfect recovery over seeded random states.

    Draws ``n_states`` (at least 1) random density matrices and, per state,
    two random unit-norm real combinations of the basis: the same draws, in
    the same order, as evaluating every basis element and both combinations
    separately on each state.  States are evaluated in bounded blocks of
    stacked states, and a combination's deviation is that combination of the
    basis deviations.  Returns the maximum observed deviation of the
    deconvolved value; raises ``ValueError`` when a deviation has an
    imaginary part above :func:`expectation`'s threshold (a channel that
    breaks Hermiticity).
    """
    if n_states < 1:
        raise ValueError(f"need at least one state to verify, got {n_states}")
    if fam.n_params == 0:
        raise ValueError("cannot verify an empty family")
    if fam.dim != gp.dim:
        raise ValueError(f"family dimension {fam.dim} does not match channel dimension {gp.dim}")
    deviations = _recovery_deviations(gp, fam._stacked)
    rng = np.random.default_rng(seed)
    n_state_draws, k = 2 * gp.dim**2, fam.n_params
    worst = 0.0
    for start in range(0, n_states, _VERIFY_BLOCK):
        # per state: the state's draws, then two coefficient vectors
        z = rng.normal(size=(min(_VERIFY_BLOCK, n_states - start), n_state_draws + 2 * k))
        deviation = deviations(_ginibre_states(z[:, :n_state_draws], gp.dim))
        coeffs = z[:, n_state_draws:].reshape(-1, 2, k)
        coeffs /= np.linalg.norm(coeffs, axis=2, keepdims=True)
        members = np.einsum("nck,nk->nc", coeffs, deviation)
        worst = max(worst, np.abs(deviation).max(), np.abs(members).max())
    return float(worst)


def correctable_family(gp: GuessPair, rel_tol: float = DEFAULT_KERNEL_RTOL) -> ObservableFamily:
    """Full family of observables with exactly recoverable expectation values.

    Takes the Hermitian null space ``W`` of ``D = (gamma_g - gamma_phi)^dag``
    and maps it by ``gamma_g^dag`` onto the null space of the deviation
    operator ``F``, without inverting the guess: the family's basis is the QR
    orthonormalization ``Q R`` of ``gamma_g^dag W``, and ``W R^-1`` holds the
    members' modified observables.  The family is certified: with ``Q`` its
    vectorized basis, ``||F Q||_2`` bounds the recovery error of every
    unit-norm member on every state.

    Raises
    ------
    FamilyVerificationError
        If the certificate exceeds 1e-9.
    """
    return _guess_family([gp], rel_tol)


def common_correctable_family(gps: Sequence[GuessPair], rel_tol: float = DEFAULT_KERNEL_RTOL) -> ObservableFamily:
    """Family correctable for every listed (true channel, guess) pair at once.

    Used when the true channel carries unknown parameters: probe it at
    several parameter values (all sharing the guess) and take the Hermitian
    null space of the stacked ``D_k``.  Certified on each pair as in
    :func:`correctable_family`; a failure names the pair.
    """
    if not gps:
        raise ValueError("need at least one pair")
    d = gps[0].dim
    if any(gp.dim != d for gp in gps):
        raise ValueError("all pairs must share one dimension")
    guess = gps[0].phi_g
    for k, gp in enumerate(gps):
        if gp.phi_g is not guess and not np.array_equal(gp.phi_g.gamma, guess.gamma):
            raise ValueError(f"pair {k} has a different guess from pair 0; all pairs must share one guess")
    return _guess_family(gps, rel_tol)


def _guess_family(gps: Sequence[GuessPair], rel_tol: float) -> ObservableFamily:
    """Certified family of pairs sharing one guess: the one route behind every family constructor.

    ``W`` is the Hermitian null space of the stacked ``D_k`` and the family is
    the QR orthonormalization ``Q R = G^T W``, with ``G`` the guess's real
    coordinates (``G^T`` is ``gamma_g^dag``).  Since ``F_k G^T = D_k``, the
    certificate ``||D_k W R^-1||_2`` equals ``||F_k Q||_2`` and bounds the
    recovery error of every unit-norm member on every state; above 1e-9,
    :class:`FamilyVerificationError` names pair k.
    """
    d = gps[0].dim
    G = gps[0]._guess_coordinates
    # the guess's own pair constrains nothing: its block is zero
    blocks = [np.zeros_like(G) if gp.phi is gp.phi_g else (G - _coordinates(gp.phi.gamma, d)).conj().T for gp in gps]
    W = _null_coordinates(blocks, d * d, rel_tol)
    if not W.shape[1]:
        return ObservableFamily.from_basis(d, [])
    Q, R = np.linalg.qr(G.T @ W)
    X = np.linalg.solve(R.T, W.T).T  # W R^-1
    for k, M in enumerate(blocks):
        bound = float(np.linalg.norm(M @ X, 2))
        # written so that a NaN bound fails too
        if not bound <= _RECOVERY_TOL:
            raise FamilyVerificationError(
                f"recovery certificate failed on pair {k}: bound {bound:.3e} > {_RECOVERY_TOL:g}; "
                "consider a tighter kernel tolerance"
            )
    return _from_coordinates(Q.T, d)


def guess_sweep(
    phi: TransferMatrix,
    candidates: Sequence[TransferMatrix],
    rel_tol: float = DEFAULT_KERNEL_RTOL,
) -> list[tuple[int, int]]:
    """Rank candidate guesses by the size of the family they make correctable.

    Returns ``(candidate index, n_params)`` pairs sorted by descending
    ``n_params`` with ties broken by ascending index.  Candidates whose
    transfer matrix is singular are kept in the ranking with ``n_params = -1``.
    """
    results = []
    for idx, cand in enumerate(candidates):
        try:
            gp = GuessPair.from_transfers(phi, cand)
        except SingularChannelError:
            results.append((idx, -1))
            continue
        fam = correctable_family(gp, rel_tol)
        results.append((idx, fam.n_params))
    results.sort(key=lambda t: (-t[1], t[0]))
    return results

