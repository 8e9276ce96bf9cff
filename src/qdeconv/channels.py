"""Quantum channel representations and exact conversions between them.

Dense linear algebra for completely positive trace-preserving (CPTP) maps on
a d-dimensional system: the Kraus form, the d^2 x d^2 transfer matrix acting
on vectorized operators, and the Choi state, plus the adjoint, inverse,
composition and application operations everything else builds on.

Conventions
-----------
Operators are dense complex numpy arrays.  Vectorization is row-major,
``vec(M)[i*d + j] == M[i, j]``, so a channel with Kraus operators ``{A_k}``
has transfer matrix ``sum_k kron(A_k, conj(A_k))`` and

    vec(channel(rho)) == gamma @ vec(rho).

All functions are pure; the dataclasses are frozen and their array fields
are marked read-only, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidProbabilityError, NonUnitaryError, SingularChannelError

#: Default tolerance for invariant checks (Hermiticity, trace preservation, ...).
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

def _require_square(M: np.ndarray, name: str = "matrix") -> int:
    M = _as_complex_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M.shape[0]


def _frozen(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=complex)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def is_hermitian(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``M`` equals its conjugate transpose within ``tol`` (Frobenius)."""
    M = _as_complex_matrix(M)
    return M.shape[0] == M.shape[1] and np.linalg.norm(M - M.conj().T) <= tol


def is_unitary(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``M^dag M`` equals the identity within ``tol`` (Frobenius)."""
    M = _as_complex_matrix(M)
    if M.shape[0] != M.shape[1]:
        return False
    d = M.shape[0]
    return np.linalg.norm(M.conj().T @ M - np.eye(d)) <= tol


def is_positive_semidefinite(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``M`` is Hermitian with eigenvalue floor ``>= -tol``."""
    if not is_hermitian(M, tol):
        return False
    eigs = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return bool(eigs.min() >= -tol)


def is_density_matrix(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``M`` is a valid state: Hermitian, PSD and unit trace within ``tol``."""
    M = _as_complex_matrix(M)
    return (
        M.shape[0] == M.shape[1]
        and is_positive_semidefinite(M, tol)
        and abs(np.trace(M) - 1.0) <= tol
    )


# ---------------------------------------------------------------------------
# Vectorization and inner product
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


def hs_inner(X: np.ndarray, Y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``Tr(X^dag Y)``.

    Equals the ordinary inner product of the vectorized operators.
    """
    X = _as_complex_matrix(X, "X")
    Y = _as_complex_matrix(Y, "Y")
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValueError(f"operands must share a square shape, got {X.shape} and {Y.shape}")
    return complex(np.sum(X.conj() * Y))


# ---------------------------------------------------------------------------
# Channel value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausChannel:
    """A channel given by a nonempty list of d x d Kraus operators.

    Construction only enforces shapes; trace preservation and complete
    positivity are diagnosed by :func:`is_cptp` so that deliberately
    non-physical operator lists can still be inspected.
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
        ops = [np.asarray(A, dtype=complex) for A in kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        return cls(dim=ops[0].shape[0], kraus=tuple(ops))

    def trace_preservation_residual(self) -> float:
        """Frobenius norm of ``sum_k A_k^dag A_k - I``."""
        acc = sum(A.conj().T @ A for A in self.kraus)
        return float(np.linalg.norm(acc - np.eye(self.dim)))

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel in Kraus form: ``sum_k A_k rho A_k^dag``."""
        rho = _as_complex_matrix(rho, "state")
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"state shape {rho.shape} does not match dim {self.dim}")
        out = np.zeros_like(rho)
        for A in self.kraus:
            out += A @ rho @ A.conj().T
        return out


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ChoiMatrix:
    """The Choi state of a channel, normalized to unit trace for CPTP maps."""

    dim: int
    choi: np.ndarray

    def __post_init__(self) -> None:
        c = _as_complex_matrix(self.choi, "choi")
        if c.shape != (self.dim**2, self.dim**2):
            raise ValueError(
                f"choi shape {c.shape} does not match dim {self.dim} (need {self.dim**2})"
            )
        object.__setattr__(self, "choi", _frozen(c))


@dataclass(frozen=True)
class CptpReport:
    """Diagnostic result of :func:`is_cptp`."""

    trace_preserving: bool
    completely_positive: bool
    tp_residual: float
    choi_min_eigenvalue: float


def validate_probabilities(ps: Sequence[float], tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check that ``ps`` is a probability vector and return it as an array.

    Raises
    ------
    InvalidProbabilityError
        If any entry is negative (beyond ``tol``) or NaN, or the sum deviates
        from 1.
    """
    p = np.asarray(ps, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidProbabilityError("probability vector must be a nonempty 1-d sequence")
    # written so that NaN fails too
    if not p.min() >= -tol:
        raise InvalidProbabilityError(f"probability {p.min()} is negative or not a number")
    if not abs(p.sum() - 1.0) <= max(tol, 1e-12 * p.size):
        raise InvalidProbabilityError(f"probabilities sum to {p.sum()}, expected 1")
    return np.clip(p, 0.0, None)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def transfer_from_kraus(ch: KrausChannel) -> TransferMatrix:
    """Transfer matrix ``gamma = sum_k kron(A_k, conj(A_k))`` of a Kraus channel."""
    d = ch.dim
    gamma = np.zeros((d * d, d * d), dtype=complex)
    for A in ch.kraus:
        gamma += np.kron(A, A.conj())
    return TransferMatrix(dim=d, gamma=gamma)


def choi_from_channel(ch: KrausChannel) -> ChoiMatrix:
    """Choi state ``(1/d) sum_k |vec(A_k)><vec(A_k)|`` of a Kraus channel.

    This equals applying the channel to one half of the maximally entangled
    state: ``(1/d) sum_ij channel(|i><j|) (x) |i><j|``.
    """
    d = ch.dim
    C = np.zeros((d * d, d * d), dtype=complex)
    for A in ch.kraus:
        v = vectorize(A)
        C += np.outer(v, v.conj())
    return ChoiMatrix(dim=d, choi=C / d)


def reshuffle(C: ChoiMatrix) -> TransferMatrix:
    """Convert a Choi state back to the transfer matrix by index reshuffling.

    With row-major vectorization the relation is

        gamma[i*d + j, k*d + l] = d * choi[i*d + k, j*d + l],

    the inverse of :func:`choi_from_channel` composed with
    :func:`transfer_from_kraus`.
    """
    d = C.dim
    c4 = C.choi.reshape(d, d, d, d)
    gamma = d * c4.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return TransferMatrix(dim=d, gamma=gamma)


def choi_from_transfer(T: TransferMatrix) -> ChoiMatrix:
    """Choi matrix of an arbitrary linear map given by its transfer matrix.

    The index reshuffle is an involution, so this inverts :func:`reshuffle`;
    for maps that are not completely positive the result has negative
    eigenvalues, which is how such maps are diagnosed.
    """
    d = T.dim
    g4 = T.gamma.reshape(d, d, d, d)
    choi = g4.transpose(0, 2, 1, 3).reshape(d * d, d * d) / d
    return ChoiMatrix(dim=d, choi=choi)


def adjoint_transfer(T: TransferMatrix) -> TransferMatrix:
    """Transfer matrix of the adjoint (Hilbert-Schmidt dual) map: ``gamma^dag``."""
    return TransferMatrix(dim=T.dim, gamma=T.gamma.conj().T)


def _require_invertible(s: np.ndarray, tol: float) -> None:
    """Raise :class:`SingularChannelError` unless the descending singular values
    ``s`` keep their smallest above ``tol`` times their largest."""
    if s[0] == 0.0 or s[-1] <= tol * s[0]:
        raise SingularChannelError(
            f"transfer matrix is singular: smallest/largest singular value "
            f"{s[-1]:.3e}/{s[0]:.3e} is below cutoff {tol:g}"
        )


def inverse_transfer(T: TransferMatrix, tol: float = DEFAULT_SV_CUTOFF) -> TransferMatrix:
    """Transfer matrix of the inverse map.

    Parameters
    ----------
    T : TransferMatrix
        Map to invert.
    tol : float
        Relative singular-value cutoff: the map counts as singular when its
        smallest singular value is at most ``tol`` times its largest.

    Raises
    ------
    SingularChannelError
        If the transfer matrix is singular at the given cutoff.
    """
    u, s, vh = np.linalg.svd(T.gamma)
    _require_invertible(s, tol)
    inv = (vh.conj().T * (1.0 / s)) @ u.conj().T
    return TransferMatrix(dim=T.dim, gamma=inv)


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

def unitary_channel(U: np.ndarray, tol: float = DEFAULT_TOL) -> KrausChannel:
    """Unitary conjugation ``rho -> U rho U^dag`` as a single-Kraus channel.

    Raises
    ------
    NonUnitaryError
        If ``U^dag U`` deviates from the identity by more than ``tol``.
    """
    d = _require_square(U, "U")
    U = np.asarray(U, dtype=complex)
    residual = np.linalg.norm(U.conj().T @ U - np.eye(d))
    if residual > tol:
        raise NonUnitaryError(f"matrix is not unitary: residual {residual:.3e} > {tol:g}")
    return KrausChannel(dim=d, kraus=(U,))


def random_unitary_channel(
    ps: Sequence[float],
    Us: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> KrausChannel:
    """Mixture of unitary conjugations ``rho -> sum_k p_k U_k rho U_k^dag``.

    The Kraus operators are ``sqrt(p_k) U_k``, trace preserving by
    construction.

    Raises
    ------
    InvalidProbabilityError
        If ``ps`` is not a probability vector.
    NonUnitaryError
        If any ``U_k`` fails the unitarity check.
    """
    p = validate_probabilities(ps, tol)
    if len(Us) != p.size:
        raise ValueError(f"{p.size} probabilities but {len(Us)} unitaries")
    ops = []
    for U in Us:
        d = _require_square(U, "unitary")
        if ops and d != ops[0].shape[0]:
            raise ValueError("all unitaries must share one dimension")
        ops.append(unitary_channel(U, tol).kraus[0])
    kraus = tuple(np.sqrt(pk) * U for pk, U in zip(p, ops))
    return KrausChannel(dim=d, kraus=kraus)


def is_cptp(ch: KrausChannel, tol: float = DEFAULT_TOL) -> CptpReport:
    """Diagnose trace preservation and complete positivity of a Kraus channel.

    Never raises: returns the numeric residuals so callers can report them.
    """
    tp_residual = ch.trace_preservation_residual()
    eigs = np.linalg.eigvalsh(choi_from_channel(ch).choi)
    return CptpReport(
        trace_preserving=tp_residual <= tol,
        completely_positive=bool(eigs.min() >= -tol),
        tp_residual=tp_residual,
        choi_min_eigenvalue=float(eigs.min()),
    )


# ---------------------------------------------------------------------------
# Seeded random samplers used throughout the test and scenario suites
# ---------------------------------------------------------------------------

def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank state ``G G^dag / Tr(G G^dag)`` with Ginibre ``G``."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho)


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
