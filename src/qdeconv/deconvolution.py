"""Correctable observable extraction and recovery bookkeeping.

Given the true noise ``phi`` and an invertible guess ``phi_g``, the operator

    F = I - gamma_phi^dag @ (gamma_phi_g^-1)^dag

annihilates exactly those vectorized observables whose expectation value is
recovered, for every input state, by measuring the modified observable
``adjoint(inverse(phi_g))(A)`` on the noisy state.  Since
``F gamma_phi_g^dag = (gamma_phi_g - gamma_phi)^dag``, that space is
``gamma_phi_g^dag`` applied to the kernel of ``D = (gamma_phi_g - gamma_phi)^dag``,
so it is extracted without inverting the guess.  That image is the family
for a singular guess too: ``A = Phi_g^dag(M)`` is recovered by measuring
``M`` whenever ``Phi^dag(M) = Phi_g^dag(M)``, a preimage and not an inverse,
so the guess is checked for invertibility only where a modified observable
of an arbitrary ``A`` needs its inverse.  This module extracts and
certifies an orthonormal Hermitian basis of that space, evaluates recovery
quality per (state, observable) pair, and ranks candidate guesses.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .channels import (
    DEFAULT_SV_CUTOFF,
    TransferMatrix,
    _cholesky_certificate,
    _ginibre_states,
    _gram_certificate,
    _require_invertible,
    _require_non_negative,
    _rounding_floor,
    apply_channel,
)
from .errors import FamilyVerificationError, NumericalOverflowError, SingularChannelError

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


#: Entries per row chunk of :func:`_coordinate_chunks`; bounds its scratch space at any ``d``.
_COORDINATE_CHUNK = 1 << 13


def _coordinate_chunks(M: np.ndarray, d: int, minus: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """Row chunks of ``B^dag (M - minus) B``, a superoperator in Hermitian coordinates on both sides.

    Yields ``(rows, chunk)`` with ``chunk`` in one reused complex buffer of
    about ``_COORDINATE_CHUNK`` entries: the gathered rows of ``M`` (less
    those of ``minus``) are scaled and added into rows of ``B^dag (M -
    minus)``, whose columns are then gathered, scaled and added the same
    way.  Real (to rounding) when the difference maps Hermitian operators
    to Hermitian ones.  No ``d^2 x d^2`` buffer is allocated.

    The buffers are allocated when this is called, so callers allocate their
    ``d^2 x d^2`` output after it: in the other order the ``extract-dense``
    benchmark's peak RSS read 108.4 MB instead of 100.7 MB (2 vCPUs, one
    BLAS thread), one 8 MiB heap step, as the freed buffers split the space
    a later solve needed.
    """
    i1, i2, w1, w2 = _hermitian_basis(d)
    d2 = d * d
    rows = max(1, _COORDINATE_CHUNK // d2)
    c1, c2 = w1.conj()[:, None], w2.conj()[:, None]
    x, y, out = (np.empty((min(rows, d2), d2), dtype=complex) for _ in range(3))

    def chunks() -> Iterator[tuple[slice, np.ndarray]]:
        # the indices are in range; mode="clip" only stops take from buffering its output
        for start in range(0, d2, rows):
            r = slice(start, min(start + rows, d2))
            xs, ys, o = x[: r.stop - start], y[: r.stop - start], out[: r.stop - start]
            for idx, c, buf in ((i1[r], c1[r], xs), (i2[r], c2[r], ys)):
                M.take(idx, axis=0, out=buf, mode="clip")
                if minus is not None:
                    minus.take(idx, axis=0, out=o, mode="clip")
                    buf -= o
                buf *= c
            xs += ys
            xs.take(i1, axis=1, out=o, mode="clip")
            o *= w1
            xs.take(i2, axis=1, out=ys, mode="clip")
            ys *= w2
            o += ys
            yield r, o

    return chunks()


def _coordinates(M: np.ndarray, d: int) -> np.ndarray:
    """``B^dag M B``, complex, from :func:`_coordinate_chunks`; the output is its only ``d^2 x d^2`` array."""
    chunks = _coordinate_chunks(M, d)
    out = np.empty((d * d, d * d), dtype=complex)
    for r, chunk in chunks:
        out[r] = chunk
    return out


def _deviation_coordinates(
    gamma_g: np.ndarray, gamma_phi: np.ndarray, d: int, imag: bool = False
) -> tuple[np.ndarray, float]:
    """One half of ``C = B^dag (gamma_g - gamma_phi) B`` and the Frobenius norm of the other.

    ``Re C`` (``Im C`` when ``imag``) as a real ``d^2 x d^2`` array, written
    by one chunked pass over the two transfer matrices; of the other half
    only the norm is kept.
    """
    chunks = _coordinate_chunks(gamma_g, d, gamma_phi)
    out = np.empty((d * d, d * d))
    other = 0.0
    for r, chunk in chunks:
        half, rest = (chunk.imag, chunk.real) if imag else (chunk.real, chunk.imag)
        out[r] = half
        other += float(np.einsum("ij,ij->", rest, rest))
    return out, math.sqrt(other)


def _coordinate_rows(V: np.ndarray, d: int) -> np.ndarray:
    """Rows ``B^dag v`` of the rows ``v`` of ``V``, ``(n, d^2)``: complex Hermitian coordinates, two gathers."""
    i1, i2, w1, w2 = _hermitian_basis(d)
    return V[:, i1] * w1.conj() + V[:, i2] * w2.conj()


def _hermitian_operators(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Stacked operators with the real Hermitian coordinates ``coeffs`` (rows); exactly Hermitian."""
    i1, i2, w1, w2 = _hermitian_basis(d)
    vecs = np.zeros((len(coeffs), d * d), dtype=complex)
    vecs[:, i1] = coeffs * w1
    vecs[:, i2] += coeffs * w2
    return vecs.reshape(-1, d, d)


def _adjoint_products(X: np.ndarray, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """``gamma ->`` rows of ``(C^dag X)^T = conj(X^T C)``, ``C = B^dag gamma B``, for real coordinate columns ``X``.

    ``(B X)^dag`` is gathered once, for every ``gamma``; each transfer matrix
    then enters one product of ``k`` rows with a ``d^2 x d^2`` matrix, at
    ``O(d^4 k)``, and no ``d^2 x d^2`` array is allocated.
    """
    BX = _hermitian_operators(X.T, d).reshape(X.shape[1], -1).conj()  # rows of (B X)^dag
    return lambda gamma: _coordinate_rows((BX @ gamma).conj(), d)


def _from_coordinates(coeffs: np.ndarray, d: int) -> ObservableFamily:
    """Family whose basis elements have the real Hermitian coordinates ``coeffs`` (rows), sign-fixed."""
    return ObservableFamily.from_basis(d, [_fix_matrix_sign(M) for M in _hermitian_operators(coeffs, d)])


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GuessPair:
    """True channel and guessed channel; the guess's real Hermitian coordinates are cached once formed.

    The constructor checks that both channels are finite, their dimensions
    and ``sv_cutoff``; :meth:`from_transfers` also checks at once that the
    guess preserves Hermiticity, which a pair built by the constructor
    leaves to its first family or modified observable.  Whether the
    guess is invertible at ``sv_cutoff`` is decided once, by
    :meth:`require_invertible`, when the first modified observable needs
    it: a correctable family is a
    preimage under the guess and needs no inverse, and it works with the
    transfer matrices, so only modified observables form the coordinates.
    """

    phi: TransferMatrix
    phi_g: TransferMatrix
    #: Relative singular-value cutoff of :meth:`require_invertible`.
    sv_cutoff: float = DEFAULT_SV_CUTOFF

    def __post_init__(self) -> None:
        for name, t in (("true channel", self.phi), ("guess", self.phi_g)):
            if not np.isfinite(t.gamma).all():
                raise ValueError(f"{name} transfer matrix has non-finite entries")
        if self.phi.dim != self.phi_g.dim:
            raise ValueError("all transfer matrices must share one dimension")
        _require_non_negative(self.sv_cutoff, "singular-value cutoff")

    @property
    def dim(self) -> int:
        return self.phi.dim

    @cached_property
    def _hermiticity_leak(self) -> float:
        """``||Im(B^dag gamma_g B)||_F``, how far the guess is from preserving Hermiticity, measured once.

        One chunked pass (:func:`_coordinate_chunks`) that forms no ``d^2 x
        d^2`` array.  Raises ``ValueError`` when it exceeds ``1e-10 * max(1,
        ||gamma_g||_F)``: the guess does not preserve Hermiticity.  Every path
        that uses the guess reads it first, so a pair built by the
        constructor is checked too.
        """
        leak2 = norm2 = 0.0
        for _, chunk in _coordinate_chunks(self.phi_g.gamma, self.dim):
            leak2 += float(np.einsum("ij,ij->", chunk.imag, chunk.imag))
            norm2 += float(np.vdot(chunk, chunk).real)
        # B is unitary, so the coordinates have the norm of gamma_g
        leak = math.sqrt(leak2)
        # written so that NaN fails too
        if not leak <= 1e-10 * max(1.0, math.sqrt(norm2)):
            raise ValueError(f"guess does not preserve Hermiticity (imaginary part {leak:.3e} in Hermitian coordinates)")
        return leak

    @cached_property
    def _guess_coordinates(self) -> np.ndarray:
        """The guess in real Hermitian coordinates, the real part of ``B^dag gamma_g B``.

        Formed by the first modified observable.  Its imaginary part, which
        :attr:`_hermiticity_leak` bounds, is dropped.
        """
        self._hermiticity_leak  # raises first when the guess breaks Hermiticity
        G = _coordinates(self.phi_g.gamma, self.dim).real.copy()
        G.setflags(write=False)
        return G

    @cached_property
    def _singular_reason(self) -> str | None:
        """The message of the guess check's :class:`SingularChannelError`, or ``None`` when the guess passes."""
        try:
            _require_invertible(self._guess_coordinates.T, self.sv_cutoff)
        except SingularChannelError as exc:
            return str(exc)
        return None

    def require_invertible(self) -> None:
        """Check, once per pair, that the guess is invertible at ``sv_cutoff``.

        ``G^T``, the transposed real coordinates of the guess that
        :func:`modified_observable` solves against, must pass
        :func:`~qdeconv.channels._require_invertible`.  A guess well above the
        cutoff passes on one Gram product and one Cholesky factorization, and
        no inverse of it is formed.  The outcome is cached, so later calls
        repeat it without a factorization.

        Raises
        ------
        SingularChannelError
            If ``G^T`` is singular at ``sv_cutoff`` or has no finite LU inverse.
        """
        reason = self._singular_reason
        if reason is not None:
            raise SingularChannelError(reason)

    @classmethod
    def from_transfers(
        cls,
        phi: TransferMatrix,
        phi_g: TransferMatrix,
        sv_cutoff: float = DEFAULT_SV_CUTOFF,
    ) -> "GuessPair":
        """Build a pair from transfer matrices, checking the inputs but not the guess's invertibility.

        ``sv_cutoff`` is stored for :meth:`require_invertible`, which every
        modified observable calls first.  The guess preserves Hermiticity
        when the imaginary part of its Hermitian coordinates is at most
        ``1e-10 * max(1, ||gamma_g||_F)``; that part is measured by
        :attr:`_hermiticity_leak`, one chunked pass that forms no ``d^2 x
        d^2`` array.

        Raises
        ------
        ValueError
            If the true channel or the guess has a NaN or infinite entry, the
            guess does not preserve Hermiticity, or ``sv_cutoff`` is NaN or
            negative.
        """
        pair = cls(phi=phi, phi_g=phi_g, sv_cutoff=sv_cutoff)
        pair._hermiticity_leak  # measured now, so that a guess that breaks Hermiticity raises here
        return pair


def _check_hermitian(stack: np.ndarray) -> None:
    """``ValueError`` naming the first element of a ``(k, d, d)`` stack that is
    not Hermitian within 1e-10 (Frobenius)."""
    # in blocks of about 2^13 entries, so each temporary stays near 128 KiB
    # whatever the stack's size (faster than one stack-sized pass at d >= 16)
    step = max(1, 2**13 // max(1, stack.shape[1] * stack.shape[2]))
    for start in range(0, len(stack), step):
        block = stack[start : start + step]
        skew = np.linalg.norm(block - block.conj().transpose(0, 2, 1), axis=(1, 2))
        # written so that NaN fails too
        bad = np.flatnonzero(~(skew <= 1e-10))
        if bad.size:
            raise ValueError(f"element {start + bad[0]} is not Hermitian within 1e-10")


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
    _check_hermitian(stack)
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

    @classmethod
    def _from_certified(cls, dim: int, stack: np.ndarray, **fields: object) -> "ObservableFamily":
        """Family over ``stack``, an owned, read-only ``(k, dim, dim)`` array that
        already passes what :func:`_hermitian_stack` checks; nothing is checked
        or copied again.  ``fields`` sets the subclass's private fields."""
        family = object.__new__(cls)
        for name, value in {"dim": dim, "basis": tuple(stack), "_stacked": stack, **fields}.items():
            object.__setattr__(family, name, value)
        return family

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


def _kernel_cutoff(rel_tol: float, sigma_max: float) -> float:
    """Largest singular value that counts as zero: ``max(rel_tol * sigma_max, 1e-14)``."""
    return max(rel_tol * sigma_max, _KERNEL_ABS_FLOOR)


def kernel(F: np.ndarray, rel_tol: float = DEFAULT_KERNEL_RTOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of a square matrix.

    Keeps right-singular vectors whose singular value is at most
    ``max(rel_tol * sigma_max, 1e-14)``; for ``F == 0`` (exactly or to
    rounding) every direction qualifies.  An empty list means the kernel is
    trivial.
    """
    _require_non_negative(rel_tol, "kernel threshold")
    F = np.asarray(F, dtype=complex)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {F.shape}")
    return _ordered_null_basis(F, lambda s: s <= _kernel_cutoff(rel_tol, s.max()))


def joint_kernel(mats: Sequence[np.ndarray], dim2: int, rel_tol: float = DEFAULT_KERNEL_RTOL) -> list[np.ndarray]:
    """Common null space of several operators, via the stacked system.

    Each block is normalized by its largest singular value so no single
    operator dominates the cutoff.  Blocks that are numerically zero impose
    no constraint; with no effective constraint the full space is returned.
    """
    _require_non_negative(rel_tol, "kernel threshold")
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
    return _ordered_null_basis(np.vstack(blocks), lambda s: s <= _kernel_cutoff(rel_tol, s.max()))


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


#: Singular values within this factor of the cutoff send the decision to the
#: full SVD.
_DECISION_MARGIN = 100.0


def _null_coordinates(blocks: Iterable[np.ndarray | _Constraint], d2: int, rel_tol: float) -> np.ndarray:
    """Real Hermitian coordinates (columns) of the common null space of ``blocks``.

    Each block is a constraint: a complex ``d^2 x d^2`` array already in
    Hermitian coordinates, or a :class:`_Constraint` such as a pair's
    :class:`_PairConstraint`, which builds its halves on demand.  Each is
    divided by its Frobenius norm; blocks of norm at most 1e-12 constrain
    nothing, and so does a scaled real or imaginary half of norm at most
    1e-12 (the imaginary half of a map that preserves Hermiticity is
    rounding).  The null space is that of the remaining halves ``h``
    stacked into ``A``: the right-singular vectors of ``A`` with singular
    value at most ``max(rel_tol * sigma_max, 1e-14)``, returned orthonormal,
    smallest singular value first; with no effective constraint every
    coordinate direction is returned.  A NaN or negative ``rel_tol`` raises
    ``ValueError``.

    It is found without every singular vector of ``A``, on ``b`` orthonormal
    candidate columns ``S`` that are certified to hold the null space.  The
    halves are read once to form ``A^T A`` and ``A e``; after that, a pair's
    halves are rebuilt, one at a time, for the products ``A^T (A S)`` and
    ``A S`` and the full SVD, and dropped before any factorization.

    0. Identity seed.  ``S`` is first the coordinates ``e`` of ``I/sqrt(d)``,
       which every pair of trace-preserving channels leaves in the kernel,
       when ``||A e||`` is at most the keep bound of step 4.  Steps 3 and 4
       decide it; only when the certificate fails do steps 1-4 follow.  No
       correction step refines ``e``: it lies within about ``||A e|| /
       sigma`` of the SVD's singular vector, ``sigma`` the next singular
       value, and for trace-preserving pairs it is the exact kernel, with
       ``||A e||`` the rounding of ``A``.  As ``e`` is zero past its first
       ``d`` coordinates, its deflation touches only the leading ``d x d``
       entries of ``A^T A``.
    1. Otherwise the candidates ``S`` are the eigenvectors of ``A^T A`` with
       eigenvalue at most ``4 max(drop^2, delta)``, ``delta`` the rounding
       floor of ``A^T A``: every direction the certificate of step 3 could
       not place above the drop bound.  More candidates than half of the
       coordinates leave the decision to the full SVD.
    2. One correction step ``S - solve(A^T A + ||A||_F^2 S S^T, A^T (A S))``
       against the Gram matrix deflated by the candidates, then
       re-orthonormalized, restores the SVD's accuracy, which the Gram
       matrix's squared condition number costs the eigenvectors.
    3. Certificate: :func:`~qdeconv.channels._cholesky_certificate` of
       ``A^T A + ||A||_F^2 S S^T`` at the bound ``drop^2``, with the shift
       ``2 max(drop^2, delta)``.  A pass proves (Courant-Fischer) that every
       ``x`` orthogonal to ``S`` has ``||A x|| > drop ||x||``: no kernel
       direction and no direction at or below the drop bound lies outside
       it.  If the certificate of the corrected candidates fails, the full
       SVD decides.
    4. Decision: the thin SVD of ``A S`` keeps the directions with singular
       value at most ``c / 100`` and drops those above ``drop = max(100 c,
       c_F)``.

    ``sigma_max`` itself is not computed.  It lies in ``[sqrt(max diag A^T A),
    ||A||_F]``; ``c`` is the cutoff at the lower end and ``c_F`` the one at
    the upper end, at most ``d`` times larger.  Every cutoff the bracket
    allows therefore lies between a kept and a dropped value, so the decision
    is the full SVD's, and ``n_params`` with it.  When a singular value of
    ``A S`` lies between the two bounds, when the correction's solve meets an
    exactly singular matrix, or when ``d^2 <= 36`` (every kernel with ``d <=
    6``, where one SVD is the cheaper route), the full SVD of ``A`` decides
    instead.
    """
    _require_non_negative(rel_tol, "kernel threshold")
    constraints = [c if isinstance(c, _Constraint) else _Constraint(c) for c in blocks]
    if d2 <= 36:
        # up to d = 6 one SVD of A costs less than a failed seed and only slightly more than a passing one
        halves = [h for c in constraints for h in c.halves()]
        return _svd_null_coordinates(halves, rel_tol) if halves else np.eye(d2)
    W = _block_null_coordinates(constraints, d2, rel_tol)
    return _svd_null_coordinates([h for c in constraints for h in c.halves()], rel_tol) if W is None else W


class _Constraint:
    """A complex constraint block ``M`` in Hermitian coordinates, read through its scaled halves.

    The halves are ``Re M`` and ``Im M`` over ``||M||_F``, made once and
    kept, those that constrain nothing dropped (see :func:`_null_coordinates`).
    :func:`_null_coordinates` reads a constraint only through :meth:`halves`
    and its length, which :class:`_PairConstraint` implements without
    keeping halves.
    """

    def __init__(self, block: np.ndarray) -> None:
        scale = np.linalg.norm(block)
        halves = (block.real / scale, block.imag / scale) if scale > 1e-12 else ()
        self._halves = [h for h in halves if np.linalg.norm(h) > 1e-12]

    def __len__(self) -> int:
        """The number of halves."""
        return len(self._halves)

    def halves(self) -> Iterator[np.ndarray]:
        """The real ``d^2 x d^2`` halves, one at a time."""
        return iter(self._halves)


class _PairConstraint(_Constraint):
    """A pair's constraint ``D = C^dag``, ``C = B^dag (gamma_g - gamma_phi) B``, never held complex.

    Its halves, ``Re(C)^T`` and ``Im(C)^T`` over ``||C||_F``, are real
    ``d^2 x d^2`` arrays that :func:`_deviation_coordinates` builds on
    demand, one at a time, for the caller to drop.  The first read builds
    the real half and only the norm of the imaginary one, which alone
    decides whether an imaginary half exists; later reads rebuild.
    :func:`_null_coordinates` reads a pair once for the Gram matrix; only
    when the identity seed fails does it read it twice more, for the
    products with the candidates, and the full SVD once.  The number of
    halves is known once :meth:`halves` has been read; a pair whose true
    channel equals the guess has none.
    """

    def __init__(self, gamma_g: np.ndarray, gamma_phi: np.ndarray, d: int) -> None:
        self._gammas = (gamma_g, gamma_phi)
        self._d = d
        self._parts: tuple[int, ...] | None = None  # 0 for the real half, 1 for the imaginary one
        self._scale = 0.0

    def __len__(self) -> int:
        return len(self._parts)

    def _scaled(self, half: np.ndarray) -> np.ndarray:
        half /= self._scale
        return half.T

    def halves(self) -> Iterator[np.ndarray]:
        if self._parts is None:
            real, imag_norm = _deviation_coordinates(*self._gammas, self._d)
            norms = (float(np.linalg.norm(real)), imag_norm)
            self._scale = math.hypot(*norms)
            self._parts = tuple(p for p in (0, 1) if self._scale > 1e-12 and norms[p] / self._scale > 1e-12)
            if 0 in self._parts:
                yield self._scaled(real)
            del real
            parts = self._parts[1:] if 0 in self._parts else self._parts
        else:
            parts = self._parts
        for p in parts:
            yield self._scaled(_deviation_coordinates(*self._gammas, self._d, imag=p == 1)[0])


def _gram(constraints: Sequence[_Constraint], d: int) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """``A^T A`` and the blocks ``h e`` of ``A e``, from one read of the halves; ``None`` when there is none.

    ``e`` holds the coordinates of ``I / sqrt(d)``: ``1 / sqrt(d)`` on the
    ``d`` diagonal coordinates, which come first.  Each half is dropped once
    read.
    """
    gram, Ae = None, []
    for c in constraints:
        for h in c.halves():
            Ae.append(h[:, :d].sum(axis=1, keepdims=True) / math.sqrt(d))
            if gram is None:
                gram = h.T @ h
            else:
                gram += h.T @ h
    return gram, Ae


def _block_null_coordinates(constraints: Sequence[_Constraint], d2: int, rel_tol: float) -> np.ndarray | None:
    """Steps 0-4 of :func:`_null_coordinates`: the null space, or ``None`` when the full SVD must decide.

    ``A^T A`` is formed once, in one ``d^2 x d^2`` buffer that every
    certificate updates in place and restores exactly, and serves both
    candidate sources: the seed's certificate and the eigendecomposition.
    """
    d = math.isqrt(d2)
    gram, Ae = _gram(constraints, d)
    if gram is None:
        return np.eye(d2)
    terms = sum(len(c) for c in constraints) * d2  # the rows of A, which every entry of A^T A sums over
    # the diagonal of A^T A holds the squared column norms of A
    fro2 = float(np.trace(gram))
    cutoff = _kernel_cutoff(rel_tol, math.sqrt(gram.diagonal().max()))
    keep = cutoff / _DECISION_MARGIN
    drop = max(_DECISION_MARGIN * cutoff, _kernel_cutoff(rel_tol, math.sqrt(fro2)))
    e = np.zeros((d2, 1))
    e[:d] = 1 / math.sqrt(d)
    if math.sqrt(sum(float(np.sum(x**2)) for x in Ae)) <= keep and _deflated_certificate(gram, e[:d], fro2, drop**2, terms):
        return _decided_null_coordinates(Ae, e, keep, drop)
    eigenvalues, V = np.linalg.eigh(gram)
    # twice the certificate's shift 2 max(drop^2, delta): a direction left out
    # clears it with room for the rounding the deflation by S adds to delta
    S = V[:, eigenvalues <= 4 * max(drop**2, _rounding_floor(fro2, terms, d2))]
    del V
    if 2 * S.shape[1] > d2:
        return None
    rhs = sum(h.T @ (h @ S) for c in constraints for h in c.halves())  # A^T (A S), one half at a time
    S = _certified_correction(gram, rhs, S, fro2, drop**2, terms)
    return None if S is None else _decided_null_coordinates([h @ S for c in constraints for h in c.halves()], S, keep, drop)


def _deflated_certificate(gram: np.ndarray, S: np.ndarray, fro2: float, bound: float, terms: int) -> bool:
    """Step 3 on the block ``S``: :func:`~qdeconv.channels._cholesky_certificate` of ``gram`` deflated by ``fro2 S S^T``."""
    return _cholesky_certificate(gram, bound, terms, math.sqrt(fro2) * S)


def _certified_correction(gram: np.ndarray, rhs: np.ndarray, S: np.ndarray, fro2: float, bound: float, terms: int) -> np.ndarray | None:
    """Steps 2 and 3 of :func:`_null_coordinates`: the corrected block, or ``None`` when the certificate fails.

    ``gram`` holds ``A^T A``, ``rhs`` ``A^T (A S)`` and ``fro2``
    ``||A||_F^2``.  The solve runs against ``gram`` deflated by the block,
    ``U U^T`` with ``U = sqrt(fro2) S``, formed as a new array, and the
    certificate on ``gram`` deflated by the corrected block.
    """
    U = math.sqrt(fro2) * S
    try:
        correction = np.linalg.solve((gram + U @ U.T).T, rhs)
    except np.linalg.LinAlgError:
        return None
    S = np.linalg.qr(S - correction)[0]
    return S if _deflated_certificate(gram, S, fro2, bound, terms) else None


def _decided_null_coordinates(AS: Sequence[np.ndarray], S: np.ndarray, keep: float, drop: float) -> np.ndarray | None:
    """Step 4 of :func:`_null_coordinates` on a certified block ``S``, from the blocks ``AS`` of ``A S``.

    ``None`` when a singular value of ``A S`` lies between the two bounds.
    """
    b = S.shape[1]
    _, s, vt = np.linalg.svd(np.vstack(AS), full_matrices=False)
    k = int(np.count_nonzero(s <= keep))  # the last k of the descending s
    if k < b and s[-k - 1] <= drop:
        return None
    return S @ vt[b - k:][::-1].T


def _svd_null_coordinates(halves: Sequence[np.ndarray], rel_tol: float) -> np.ndarray:
    """:func:`_null_coordinates` of the stacked ``halves`` from their full SVD."""
    _, s, vt = np.linalg.svd(halves[0] if len(halves) == 1 else np.vstack(halves), full_matrices=False)
    return vt[s <= _kernel_cutoff(rel_tol, s[0])][::-1].T


def _hermitian_kernel(mats: Sequence[np.ndarray], d: int, rel_tol: float) -> ObservableFamily:
    """Orthonormal Hermitian basis of ``{A : M vec(A) == 0 for every M in mats}``.

    Each ``d^2 x d^2`` constraint is written in the orthonormal Hermitian
    basis ``B`` on both sides, ``B^dag M B``, and the null space is taken by
    :func:`_null_coordinates`: sign-fixed, in ascending singular-value order.
    """
    return _from_coordinates(_null_coordinates((_coordinates(M, d) for M in mats), d * d, rel_tol).T, d)


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
    _require_non_negative(tol, "kernel threshold")
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
    _require_non_negative(tol, "span tolerance")
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
    :class:`SingularChannelError` when the guess fails
    :meth:`GuessPair.require_invertible`, and ``ValueError`` when a column's
    backward error ``||G^T m - a||`` exceeds ``1e-10 * max(1, ||G|| ||m||)``.
    """
    gp.require_invertible()
    G = gp._guess_coordinates
    a = _coordinate_rows(As.reshape(len(As), -1), gp.dim).real.T
    m = np.linalg.solve(G.T, a)
    residual = np.linalg.norm(G.T @ m - a, axis=0)
    # written so that a NaN residual fails too
    if not (residual <= 1e-10 * np.maximum(1.0, np.linalg.norm(G) * np.linalg.norm(m, axis=0))).all():
        raise ValueError(f"solve against the guess failed (backward error up to {residual.max():.3e})")
    return _hermitian_operators(m.T, gp.dim)


@contextmanager
def _overflow_raises() -> Iterator[None]:
    """Raise :class:`NumericalOverflowError`, a ``ValueError``, instead of warning when a float operation overflows.

    A finite input can still be too large: the norm of an observable with an
    entry near ``1e300`` overflows.  The message names the operation.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalOverflowError(str(exc)) from None


@_overflow_raises()
def modified_observable(gp: GuessPair, A: np.ndarray) -> np.ndarray:
    """Observable to measure on the noisy state in place of ``A``.

    ``devec(gamma_g^-dag vec(A))``, exactly Hermitian; an ``A`` whose
    anti-Hermitian part exceeds ``1e-10 * max(1, ||A||)`` raises ``ValueError``,
    one whose norms or solve overflow raises :class:`NumericalOverflowError`,
    and a guess that fails :meth:`GuessPair.require_invertible` raises
    :class:`SingularChannelError`.
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


@_overflow_raises()
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

    Draws ``n_states`` random density matrices and, per state, two random
    unit-norm real combinations of the basis: the same draws, in the same
    order, as evaluating every basis element and both combinations separately
    on each state, in bounded blocks of stacked states.  Returns the largest
    absolute deviation of a deconvolved value, NaN if any is NaN.  Raises
    ``ValueError`` for fewer than one state, an empty family, a dimension
    mismatch, or an imaginary part above :func:`expectation`'s threshold (a
    channel that breaks Hermiticity).
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
        worst = np.max([worst, np.abs(deviation).max(), np.abs(members).max()])
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


def _recovery_bounds(gamma_g: np.ndarray, X: np.ndarray, d: int) -> Callable[[np.ndarray], float]:
    """``gamma_phi -> ||D X||_2`` for a pair's ``D = (G - B^dag gamma_phi B)^dag``, forming neither ``D`` nor ``G``.

    ``G`` is the real part of the guess's coordinates ``B^dag gamma_g B``, so
    ``D X = G^T X - B^dag (gamma_phi^dag (B X))`` for the ``k`` columns of
    ``X``, and ``G^T X`` is the real part of ``B^dag (gamma_g^dag (B X))``.
    ``B X`` and ``X^T G`` are formed once, for every pair of a family; each
    bound then takes one product of ``k`` rows with a ``d^2 x d^2`` matrix
    (:func:`_adjoint_products`), and no ``d^2 x d^2`` array is allocated.
    """
    rows = _adjoint_products(X, d)
    XG = rows(gamma_g).real

    def bound(gamma_phi: np.ndarray) -> float:
        return float(np.linalg.norm(XG - rows(gamma_phi), 2))

    return bound


def _guess_family(gps: Sequence[GuessPair], rel_tol: float) -> ObservableFamily:
    """Certified family of pairs sharing one guess: the one route behind every family constructor.

    ``W`` is the Hermitian null space of the stacked ``D_k`` and the family is
    the guess's image ``G^T W`` of it, with ``G`` the guess's real
    coordinates (``G^T`` is ``gamma_g^dag``): a preimage, so the guess need
    not be invertible.  Each ``D_k`` is a :class:`_PairConstraint`, read
    from the two transfer matrices, so neither ``G`` nor a complex ``D_k``
    is formed: ``G^T W`` and ``X^T G`` are products of ``k`` columns with
    ``gamma_g`` (:func:`_adjoint_products`).  The basis ``Q`` comes from the QR
    factorization ``Q R = G^T W`` when
    :func:`~qdeconv.channels._gram_certificate` proves ``R`` well
    conditioned at the first pair's ``sv_cutoff``; otherwise from the thin
    SVD ``U s V^T = G^T W``, keeping the directions with ``s`` above
    ``sv_cutoff`` times the largest, which drops those a singular guess maps
    to zero.  ``X`` (``W R^-1``, or ``W V s^-1`` on the kept part) holds the
    members' modified observables, ``G^T X = Q``, and ``||D_k X||_2`` bounds
    the recovery error of every unit-norm member on every state (it equals
    ``||F_k Q||_2`` when the guess is invertible, as ``F_k G^T = D_k``);
    :func:`_recovery_bounds` computes it from ``gamma_g``, ``gamma_phi_k``
    and ``X``.  Above 1e-9, :class:`FamilyVerificationError` names pair k.
    """
    d = gps[0].dim
    gamma_g = gps[0].phi_g.gamma
    gps[0]._hermiticity_leak  # a guess that breaks Hermiticity raises here
    # the guess's own pair constrains nothing: its D_k is zero
    W = _null_coordinates(
        (_PairConstraint(gamma_g, gp.phi.gamma, d) for gp in gps if gp.phi is not gp.phi_g), d * d, rel_tol
    )
    if not W.shape[1]:
        return ObservableFamily.from_basis(d, [])
    image = _adjoint_products(W, d)(gamma_g).real.T  # G^T W
    Q, R = np.linalg.qr(image)
    cutoff = gps[0].sv_cutoff
    if _gram_certificate(R, cutoff):
        X = np.linalg.solve(R.T, W.T).T  # W R^-1
    else:
        U, s, vt = np.linalg.svd(image, full_matrices=False)
        kept = s > cutoff * s[0]
        Q, X = U[:, kept], W @ (vt[kept].T / s[kept])
        if not Q.shape[1]:
            return ObservableFamily.from_basis(d, [])
    bound = _recovery_bounds(gamma_g, X, d)
    for k, gp in enumerate(gps):
        value = 0.0 if gp.phi is gp.phi_g else bound(gp.phi.gamma)
        # written so that a NaN bound fails too
        if not value <= _RECOVERY_TOL:
            raise FamilyVerificationError(
                f"recovery certificate failed on pair {k}: bound {value:.3e} > {_RECOVERY_TOL:g}; "
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
    _require_non_negative(rel_tol, "kernel threshold")
    results = []
    for idx, cand in enumerate(candidates):
        try:
            gp = GuessPair.from_transfers(phi, cand)
            gp.require_invertible()
        except SingularChannelError:
            results.append((idx, -1))
            continue
        fam = correctable_family(gp, rel_tol)
        results.append((idx, fam.n_params))
    results.sort(key=lambda t: (-t[1], t[0]))
    return results

