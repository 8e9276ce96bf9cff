"""Quantum channel representations and exact conversions between them.

Dense linear algebra for completely positive trace-preserving (CPTP) maps on
a d-dimensional system: the Kraus form and the d^2 x d^2 transfer matrix acting
on vectorized operators, plus the adjoint, inverse, composition and
application operations everything else builds on.

Conventions
-----------
Operators are dense complex numpy arrays.  Vectorization is row-major,
``vec(M)[i*d + j] == M[i, j]``, so a channel with Kraus operators ``{A_k}``
has transfer matrix ``sum_k kron(A_k, conj(A_k))`` and

    vec(channel(rho)) == gamma @ vec(rho).

All functions are pure; the dataclasses are frozen and their array fields
are marked read-only, so values can be shared freely between threads.  Every
tolerance or cutoff argument in the package must be a non-negative number:
NaN or a negative value raises ``ValueError`` (:func:`_require_non_negative`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidProbabilityError, NonUnitaryError, SingularChannelError

#: Tolerance of the channel validity checks (probabilities, unitarity,
#: Hermiticity, trace preservation, ...), and the default of ``is_unitary``'s.
DEFAULT_TOL = 1e-9

#: Default relative singular-value cutoff below which a transfer matrix is
#: treated as non-invertible.
DEFAULT_SV_CUTOFF = 1e-8

#: Largest supported system dimension (dense d^2 x d^2 algebra).
MAX_DIM = 64


def _pauli_matrices() -> tuple[np.ndarray, ...]:
    s0 = np.eye(2, dtype=complex)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    for s in (s0, s1, s2, s3):
        s.setflags(write=False)
    return (s0, s1, s2, s3)


#: The identity and the three Pauli matrices, indexed 0..3.
PAULIS: tuple[np.ndarray, ...] = _pauli_matrices()


def _as_complex_matrix(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {M.shape}")
    return M

def _require_non_negative(value: float, name: str) -> None:
    """Raise ``ValueError`` unless the tolerance ``value`` is a non-negative number."""
    # written so that NaN fails too: it compares false with everything
    if not value >= 0:
        raise ValueError(f"{name} must be a non-negative number, got {value}")


def _require_square(M: np.ndarray, name: str = "matrix") -> int:
    M = _as_complex_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M.shape[0]


def _frozen(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=complex)
    out.setflags(write=False)
    return out


def _kron(A: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """``np.kron`` of 2-D arrays, left to right: the same products, without its generic reshaping."""
    for B in rest:
        A = (A[:, None, :, None] * B[None, :, None, :]).reshape(A.shape[0] * B.shape[0], -1)
    return A


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def is_hermitian(M: np.ndarray) -> bool:
    """Whether ``M`` equals its conjugate transpose within ``DEFAULT_TOL`` (Frobenius)."""
    M = _as_complex_matrix(M)
    return M.shape[0] == M.shape[1] and np.linalg.norm(M - M.conj().T) <= DEFAULT_TOL


def _unitarity_residual(U: np.ndarray) -> float:
    """Frobenius norm of ``U^dag U - I`` for a square ``U``: ``inf`` or NaN,
    without a warning, when an entry is infinite or the products overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(U.conj().T @ U - np.eye(len(U))))


def is_unitary(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``M^dag M`` equals the identity within ``tol`` (Frobenius)."""
    _require_non_negative(tol, "tolerance")
    M = _as_complex_matrix(M)
    return M.shape[0] == M.shape[1] and _unitarity_residual(M) <= tol


def is_cptp(ch: KrausChannel) -> bool:
    """Whether the Kraus channel is trace preserving within ``DEFAULT_TOL``: a
    map in Kraus form is completely positive by construction.  False, without
    a warning, for a NaN or infinite entry or products that overflow."""
    return ch.trace_preservation_residual() <= DEFAULT_TOL


def is_positive_semidefinite(M: np.ndarray) -> bool:
    """Whether ``M`` is Hermitian with eigenvalue floor ``>= -DEFAULT_TOL``."""
    M = _as_complex_matrix(M)
    if not is_hermitian(M):
        return False
    eigs = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return bool(eigs.min() >= -DEFAULT_TOL)


def is_density_matrix(M: np.ndarray) -> bool:
    """Whether ``M`` is a valid state: Hermitian, PSD and unit trace within ``DEFAULT_TOL``."""
    # is_hermitian rejects a non-square M first
    return is_positive_semidefinite(M) and abs(np.trace(M) - 1.0) <= DEFAULT_TOL


# ---------------------------------------------------------------------------
# Vectorization
# ---------------------------------------------------------------------------

def vectorize(M: np.ndarray) -> np.ndarray:
    """Flatten a square operator into a d^2 vector, row-major.

    Parameters
    ----------
    M : (d, d) array
        Operator to vectorize.

    Returns
    -------
    (d*d,) array
        Vector ``v`` with ``v[i*d + j] == M[i, j]``.
    """
    _require_square(M, "operator")
    return np.asarray(M, dtype=complex).reshape(-1)


def devectorize(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vectorize`: reshape a d^2 vector into a d x d operator."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise ValueError(f"vector of length {v.size} cannot be a {d}x{d} operator")
    return v.reshape(d, d)


# ---------------------------------------------------------------------------
# Channel value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel given by a nonempty list of d x d Kraus operators.

    Construction only enforces shapes, so that operator lists that are not
    trace preserving can still be inspected; :func:`is_cptp` checks trace
    preservation.
    """

    dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.dim > MAX_DIM:
            raise ValueError(f"dimension {self.dim} exceeds supported maximum {MAX_DIM}")
        if len(self.kraus) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for A in self.kraus:
            A = _as_complex_matrix(A, "Kraus operator")
            if A.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator of shape {A.shape} does not match dim {self.dim}"
                )
            ops.append(_frozen(A))
        object.__setattr__(self, "kraus", tuple(ops))

    @classmethod
    def from_operators(cls, kraus: Sequence[np.ndarray]) -> "KrausChannel":
        ops = [_as_complex_matrix(A, "Kraus operator") for A in kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        return cls(dim=ops[0].shape[0], kraus=tuple(ops))

    def trace_preservation_residual(self) -> float:
        """Frobenius norm of ``sum_k A_k^dag A_k - I``: ``inf`` or NaN, without
        a warning, when an entry is infinite or the products overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            acc = sum(A.conj().T @ A for A in self.kraus)
            return float(np.linalg.norm(acc - np.eye(self.dim)))


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """The d^2 x d^2 matrix representation of a channel on vectorized operators."""

    dim: int
    gamma: np.ndarray

    def __post_init__(self) -> None:
        g = _as_complex_matrix(self.gamma, "gamma")
        if g.shape != (self.dim**2, self.dim**2):
            raise ValueError(
                f"gamma shape {g.shape} does not match dim {self.dim} (need {self.dim**2})"
            )
        object.__setattr__(self, "gamma", _frozen(g))

    def trace_preservation_residual(self) -> float:
        """Norm of ``vec(I)^dag gamma - vec(I)^dag`` (zero for trace-preserving maps)."""
        vi = vectorize(np.eye(self.dim))
        return float(np.linalg.norm(vi.conj() @ self.gamma - vi.conj()))


def validate_probabilities(ps: Sequence[float]) -> np.ndarray:
    """Check that ``ps`` is a probability vector within ``DEFAULT_TOL`` and
    return it as an array, with entries in ``[-DEFAULT_TOL, 0)`` set to 0.

    Raises
    ------
    InvalidProbabilityError
        If any entry is negative (beyond ``DEFAULT_TOL``) or NaN, or the sum
        deviates from 1.
    """
    p = np.asarray(ps, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidProbabilityError("probability vector must be a nonempty 1-d sequence")
    # written so that NaN fails too
    if not p.min() >= -DEFAULT_TOL:
        raise InvalidProbabilityError(f"probability {p.min()} is negative or not a number")
    if not abs(p.sum() - 1.0) <= max(DEFAULT_TOL, 1e-12 * p.size):
        raise InvalidProbabilityError(f"probabilities sum to {p.sum()}, expected 1")
    return np.clip(p, 0.0, None)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def transfer_from_kraus(ch: KrausChannel) -> TransferMatrix:
    """Transfer matrix ``gamma = sum_k kron(A_k, conj(A_k))`` of a Kraus channel.

    With ``F`` the ``m x d^2`` stack of the vectorized operators,
    ``(F^T conj(F))[(i,k),(j,l)] = sum_m A_m[i,k] conj(A_m[j,l])``: one
    product, then one copy that reorders the axes to ``(i,j),(k,l)``.
    """
    d = ch.dim
    F = np.array(ch.kraus).reshape(len(ch.kraus), d * d)
    gamma = (F.T @ F.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return TransferMatrix(dim=d, gamma=gamma)


def adjoint_transfer(T: TransferMatrix) -> TransferMatrix:
    """Transfer matrix of the adjoint (Hilbert-Schmidt dual) map: ``gamma^dag``."""
    return TransferMatrix(dim=T.dim, gamma=T.gamma.conj().T)


def _rounding_floor(trace: float, terms: int, n: int, b: int = 0, deflation: float = 0.0) -> float:
    """``delta`` of :func:`_cholesky_certificate`: how far rounding can move the eigenvalues it tests.

    In units of ``u = eps / 2`` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.5, Thm 10.3; Demmel, 1989), forming an
    ``n x n`` Gram matrix of trace ``trace`` from ``terms``-term products
    moves it by ``terms trace`` in the 2-norm, forming ``U U^T`` of a
    ``b``-column ``U`` of squared norm ``deflation`` by ``b deflation``,
    adding it and the shift by one rounding of the sum each, and factoring
    by ``n + 1`` times the sum's trace.  Counting in ``eps`` leaves a factor
    2 for second-order terms and complex arithmetic.
    """
    eps = np.finfo(float).eps
    return (terms + n + 2) * eps * trace + (b + n + 2) * eps * deflation


def _cholesky_certificate(H: np.ndarray, bound: float, terms: int, U: np.ndarray | None = None) -> bool:
    """Whether one Cholesky factorization proves every eigenvalue of the exact Gram matrix behind ``H``, plus ``U U^T``, above ``bound``.

    ``H`` is an exactly Hermitian ``n x n`` Gram matrix of ``terms``-term
    products; the real ``k x b`` block ``U`` deflates its leading ``k x k``
    entries.  The factorization of ``H + U U^T - 2 max(bound, delta) I``,
    ``delta`` the :func:`_rounding_floor` of the call, must succeed, which
    proves every eigenvalue above ``max(bound, delta)``.  ``False`` decides
    nothing.  ``H`` is updated in place and restored exactly.
    """
    n, (k, b) = len(H), (0, 0) if U is None else U.shape
    deflation = 0.0 if U is None else float(np.vdot(U, U))
    shift = 2.0 * max(bound, _rounding_floor(float(np.trace(H).real), terms, n, b, deflation))
    lead = H[:k, :k]
    saved, diagonal = lead.copy(), H.diagonal().copy()
    if k:
        lead += U @ U.T
    H.flat[:: n + 1] -= shift
    try:
        # the F-ordered view spares LAPACK a strided copy; H^T = conj(H) is
        # positive definite exactly when H is
        np.linalg.cholesky(H.T)
    except np.linalg.LinAlgError:
        return False
    finally:
        lead[...] = saved
        H.flat[:: n + 1] = diagonal
    return True


def _gram_certificate(M: np.ndarray, cutoff: float) -> bool:
    """Whether one Cholesky factorization proves ``s_min > cutoff * s_max`` for the finite square ``M``.

    With ``X = M / max|M_ij|`` and ``H = X X^dag``, :func:`_cholesky_certificate`
    must prove every eigenvalue of ``H`` above ``2 cutoff^2 ||H||_inf``, which
    is at least ``2 cutoff^2 s_max^2``.  The scaling keeps ``H`` from
    overflowing at any entry size.  ``False`` decides nothing.
    """
    top = np.abs(M).max()
    if top == 0.0:
        return False
    X = M / top
    # a transposed view of X itself lets matmul take the symmetric product
    Xh = X.conj().T if np.iscomplexobj(X) else X.T
    H = X @ Xh
    # the scaled copy is not needed past here; free it before LAPACK's own copy of H
    del X, Xh
    # a cutoff of 1 already exceeds every ratio; the min keeps its square finite
    bound = 2.0 * min(cutoff, 1.0) ** 2 * float(np.abs(H).sum(axis=1).max())
    return _cholesky_certificate(H, bound, len(H))


def _lu_inverse(M: np.ndarray, cutoff: float) -> np.ndarray:
    """The LU inverse of ``M``; :class:`SingularChannelError` when it meets a zero pivot or overflows."""
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.isfinite(inv).all():
        raise SingularChannelError(f"transfer matrix passes cutoff {cutoff:g} but has no finite LU inverse")
    return inv


def _require_invertible(M: np.ndarray, cutoff: float) -> None:
    """Check that the square ``M`` has ``s_min > cutoff * s_max`` and a finite LU inverse, without forming one when it can.

    :func:`_gram_certificate` accepts a matrix well above the cutoff in one
    Gram product and one Cholesky factorization.  Otherwise the values-only
    SVD decides, and a matrix it accepts must also have a finite LU inverse.
    Raises ``ValueError`` for a NaN or infinite entry, and
    :class:`SingularChannelError` below the cutoff or when ``M`` passes
    without a finite LU inverse (a zero pivot or an overflow).
    """
    _require_non_negative(cutoff, "singular-value cutoff")
    if not np.isfinite(M).all():
        raise ValueError("transfer matrix has non-finite entries")
    if _gram_certificate(M, cutoff):
        return
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= cutoff * s[0]:
        raise SingularChannelError(
            f"transfer matrix is singular: smallest/largest singular value "
            f"{s[-1]:.3e}/{s[0]:.3e} is below cutoff {cutoff:g}"
        )
    _lu_inverse(M, cutoff)


def _checked_inverse(M: np.ndarray, cutoff: float) -> np.ndarray:
    """The finite LU inverse of the square ``M`` once :func:`_require_invertible` has accepted it; raises as that does."""
    _require_invertible(M, cutoff)
    return _lu_inverse(M, cutoff)


def inverse_transfer(T: TransferMatrix, tol: float = DEFAULT_SV_CUTOFF) -> TransferMatrix:
    """Transfer matrix of the inverse map: the LU inverse of :func:`_checked_inverse`.

    ``tol`` is the relative singular-value cutoff.  The check is
    :func:`_require_invertible`'s, on the complex transfer matrix.  Raises
    :class:`SingularChannelError` when the map is singular at ``tol`` or has no
    finite LU inverse, and ``ValueError`` for a NaN or infinite entry.
    """
    return TransferMatrix(dim=T.dim, gamma=_checked_inverse(T.gamma, tol))


def apply_channel(T: TransferMatrix, rho: np.ndarray) -> np.ndarray:
    """Apply a channel through its transfer matrix: ``devec(gamma @ vec(rho))``."""
    rho = _as_complex_matrix(rho, "state")
    if rho.shape != (T.dim, T.dim):
        raise ValueError(f"state shape {rho.shape} does not match dim {T.dim}")
    return devectorize(T.gamma @ vectorize(rho), T.dim)


def compose(T1: TransferMatrix, T2: TransferMatrix) -> TransferMatrix:
    """Composition ``T1 after T2``: ``gamma = gamma1 @ gamma2``."""
    if T1.dim != T2.dim:
        raise ValueError(f"dimension mismatch: {T1.dim} vs {T2.dim}")
    return TransferMatrix(dim=T1.dim, gamma=T1.gamma @ T2.gamma)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def unitary_channel(U: np.ndarray) -> KrausChannel:
    """Unitary conjugation ``rho -> U rho U^dag`` as a single-Kraus channel.

    Raises
    ------
    NonUnitaryError
        If ``U^dag U`` deviates from the identity by more than ``DEFAULT_TOL``.
    """
    d = _require_square(U, "U")
    U = np.asarray(U, dtype=complex)
    residual = _unitarity_residual(U)
    # written so that a NaN residual fails too
    if not residual <= DEFAULT_TOL:
        raise NonUnitaryError(f"matrix is not unitary: residual {residual:.3e} > {DEFAULT_TOL:g}")
    return KrausChannel(dim=d, kraus=(U,))


def convex_combination(weights: Sequence[float], parts: Sequence[KrausChannel]) -> KrausChannel:
    """Mixture ``rho -> sum_k w_k part_k(rho)`` of Kraus channels on one system.

    The Kraus operators are ``sqrt(w_k) A`` for each operator ``A`` of each
    part in turn, with the weights :func:`validate_probabilities` returns; the
    mixture is trace preserving when every part is.

    Raises
    ------
    InvalidProbabilityError
        If ``weights`` is not a probability vector within ``DEFAULT_TOL``.
    ValueError
        If the number of weights and parts differ or the parts' dimensions do.
    """
    w = validate_probabilities(weights)
    if len(parts) != w.size:
        raise ValueError(f"{w.size} weights for {len(parts)} parts")
    d = parts[0].dim
    if any(part.dim != d for part in parts):
        raise ValueError("all parts must share one dimension")
    return KrausChannel(dim=d, kraus=tuple(np.sqrt(wk) * A for wk, part in zip(w, parts) for A in part.kraus))


def random_unitary_channel(ps: Sequence[float], Us: Sequence[np.ndarray]) -> KrausChannel:
    """Mixture of unitary conjugations ``rho -> sum_k p_k U_k rho U_k^dag``:
    the :func:`convex_combination` of the :func:`unitary_channel` of each ``U_k``.

    Raises
    ------
    InvalidProbabilityError
        If ``ps`` is not a probability vector within ``DEFAULT_TOL``.
    NonUnitaryError
        If any ``U_k`` fails the unitarity check at ``DEFAULT_TOL``.
    """
    return convex_combination(ps, [unitary_channel(U) for U in Us])


# ---------------------------------------------------------------------------
# Seeded random samplers used throughout the test and scenario suites
# ---------------------------------------------------------------------------

def _ginibre_states(z: np.ndarray, d: int) -> np.ndarray:
    """Stacked states ``G G^dag / Tr(G G^dag)``, one per row of standard normals ``z``.

    A row holds ``2 d^2`` draws: the real part of ``G``, then its imaginary
    part, each row-major.  Row by row this is :func:`random_density_matrix`.
    """
    d2 = d * d
    G = z[:, :d2].reshape(-1, d, d) + 1j * z[:, d2 : 2 * d2].reshape(-1, d, d)
    rho = G @ G.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank state ``G G^dag / Tr(G G^dag)`` with Ginibre ``G``: one row of :func:`_ginibre_states`."""
    return _ginibre_states(rng.normal(size=(1, 2 * d * d)), d)[0]


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition of a Ginibre matrix."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(G)
    phases = np.diag(R).copy()
    phases /= np.abs(phases)
    return Q * phases


def random_cptp_channel(d: int, n_kraus: int, rng: np.random.Generator) -> KrausChannel:
    """Random CPTP channel from a Haar isometry split into ``n_kraus`` blocks."""
    G = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    Q, _ = np.linalg.qr(G)
    kraus = tuple(Q[k * d : (k + 1) * d, :] for k in range(n_kraus))
    return KrausChannel(dim=d, kraus=kraus)


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (G + G.conj().T)
