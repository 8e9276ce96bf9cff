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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .channels import (
    DEFAULT_SV_CUTOFF,
    TransferMatrix,
    _require_invertible,
    apply_channel,
    devectorize,
    hs_inner,
    is_hermitian,
    random_density_matrix,
    vectorize,
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
    """
    i1, i2, w1, w2 = _hermitian_basis(d)
    X = w1.conj()[:, None] * M[i1] + w2.conj()[:, None] * M[i2]
    return X[:, i1] * w1 + X[:, i2] * w2


def _from_coordinates(coeffs: np.ndarray, d: int) -> ObservableFamily:
    """Family whose basis elements have the real Hermitian coordinates ``coeffs`` (rows), sign-fixed."""
    i1, i2, w1, w2 = _hermitian_basis(d)
    vecs = np.zeros((len(coeffs), d * d), dtype=complex)
    vecs[:, i1] = coeffs * w1
    vecs[:, i2] += coeffs * w2
    return ObservableFamily.from_basis(d, [_fix_matrix_sign(v.reshape(d, d)) for v in vecs])


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GuessPair:
    """True channel and guessed channel; the guess's inverse is built on first use.

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

    @cached_property
    def phi_g_inv(self) -> TransferMatrix:
        """Inverse of the guess, by LU factorization on first use.

        Raises ``ValueError`` when ``||gamma_g gamma_g^-1 - I||`` exceeds
        ``1e-10 * max(1, ||gamma_g||)``.
        """
        inv = np.linalg.inv(self.phi_g.gamma)
        residual = np.linalg.norm(self.phi_g.gamma @ inv - np.eye(self.dim**2))
        if residual > 1e-10 * max(1.0, np.linalg.norm(self.phi_g.gamma)):
            raise ValueError(f"phi_g_inv is not the inverse of phi_g (residual {residual:.3e})")
        return TransferMatrix(dim=self.dim, gamma=inv)

    @classmethod
    def from_transfers(
        cls,
        phi: TransferMatrix,
        phi_g: TransferMatrix,
        sv_cutoff: float = DEFAULT_SV_CUTOFF,
    ) -> "GuessPair":
        """Build a pair from transfer matrices, checking the guess's singular values.

        Raises
        ------
        SingularChannelError
            If the guess is not invertible at the given relative cutoff.
        ValueError
            If the guess does not preserve Hermiticity.
        """
        pair = cls(phi=phi, phi_g=phi_g)
        _require_invertible(np.linalg.svd(pair._guess_coordinates, compute_uv=False), sv_cutoff)
        return pair


@dataclass(frozen=True)
class ObservableFamily:
    """Orthonormal Hermitian basis of a correctable-observable space."""

    dim: int
    basis: tuple[np.ndarray, ...]
    n_params: int

    def __post_init__(self) -> None:
        if self.n_params != len(self.basis):
            raise ValueError("n_params must equal the number of basis elements")
        frozen = []
        for k, A in enumerate(self.basis):
            A = np.asarray(A, dtype=complex)
            if A.shape != (self.dim, self.dim):
                raise ValueError(f"basis element {k} has shape {A.shape}, expected square {self.dim}")
            if not is_hermitian(A, 1e-10):
                raise ValueError(f"basis element {k} is not Hermitian within 1e-10")
            A = A.copy()
            A.setflags(write=False)
            frozen.append(A)
        if frozen:
            V = np.stack(frozen).reshape(len(frozen), -1)
            bad = np.argwhere(np.abs(V.conj() @ V.T - np.eye(len(frozen))) > 1e-10)
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"basis elements {i},{j} are not orthonormal within 1e-10")
        object.__setattr__(self, "basis", tuple(frozen))

    @classmethod
    def from_basis(cls, dim: int, basis: Sequence[np.ndarray]) -> "ObservableFamily":
        return cls(dim=dim, basis=tuple(basis), n_params=len(basis))

    def member(self, coefficients: Sequence[float]) -> np.ndarray:
        """Real linear combination of the basis elements."""
        coeff = np.asarray(coefficients, dtype=float)
        if coeff.size != self.n_params:
            raise ValueError(f"expected {self.n_params} coefficients, got {coeff.size}")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c, A in zip(coeff, self.basis):
            out += c * A
        return out


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


def _null_coordinates(blocks: Sequence[np.ndarray], d2: int, rel_tol: float) -> np.ndarray:
    """Real Hermitian coordinates (columns) of the common null space of ``blocks``.

    Each block is a constraint already in Hermitian coordinates and is
    divided by its Frobenius norm; blocks of norm at most 1e-12 constrain
    nothing, and so does a scaled real or imaginary half of norm at most
    1e-12 (the imaginary half of a map that preserves Hermiticity is
    rounding).  The remaining halves are stacked and the right-singular
    vectors with singular value at most ``max(rel_tol * sigma_max, 1e-14)``
    are returned, orthonormal and in ascending singular-value order; with no
    effective constraint every coordinate direction is returned.  A NaN or
    negative ``rel_tol`` raises ``ValueError``.
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
    _, s, vt = np.linalg.svd(np.vstack(halves), full_matrices=False)
    return vt[s <= max(rel_tol * s[0], _KERNEL_ABS_FLOOR)][::-1].T


def _constraint_coordinates(mats: Sequence[np.ndarray], d: int) -> list[np.ndarray]:
    """``d^2 x d^2`` constraints in Hermitian coordinates on both sides."""
    d2 = d * d
    out = []
    for M in mats:
        M = np.asarray(M, dtype=complex)
        if M.shape != (d2, d2):
            raise ValueError(f"expected {d2}x{d2} blocks, got {M.shape}")
        out.append(_coordinates(M, d))
    return out


def _hermitian_kernel(mats: Sequence[np.ndarray], d: int, rel_tol: float) -> ObservableFamily:
    """Orthonormal Hermitian basis of ``{A : M vec(A) == 0 for every M in mats}``.

    Each ``d^2 x d^2`` constraint is written in the orthonormal Hermitian
    basis ``B`` on both sides, ``B^dag M B``, and the null space is taken by
    :func:`_null_coordinates`: sign-fixed, in ascending singular-value order.
    """
    return _from_coordinates(_null_coordinates(_constraint_coordinates(mats, d), d * d, rel_tol).T, d)


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


def membership_residual(fam: ObservableFamily, A: np.ndarray) -> float:
    """Relative distance from ``A`` to the span of a family (0 for members)."""
    A = np.asarray(A, dtype=complex)
    norm = np.linalg.norm(A)
    if norm == 0.0:
        return 0.0
    proj = np.zeros_like(A)
    for B in fam.basis:
        proj += hs_inner(B, A) * B
    return float(np.linalg.norm(A - proj) / norm)


def span_residual(fam_a: ObservableFamily, fam_b: ObservableFamily) -> float:
    """Largest membership residual of ``fam_a`` members inside ``fam_b``'s span."""
    if fam_a.n_params == 0:
        return 0.0
    return max(membership_residual(fam_b, A) for A in fam_a.basis)


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
    """``I - gamma_phi^dag @ gamma_{phi_g^-1}^dag``; its kernel is the correctable space."""
    d2 = gp.dim**2
    return np.eye(d2) - gp.phi.gamma.conj().T @ gp.phi_g_inv.gamma.conj().T


def modified_observable(gp: GuessPair, A: np.ndarray) -> np.ndarray:
    """Observable to measure on the noisy state in place of ``A``.

    Applies the adjoint of the inverted guess: ``devec(gamma_inv^dag vec(A))``.
    The inverse of an invertible completely positive map preserves
    Hermiticity, so the result is checked to be Hermitian within 1e-10.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (gp.dim, gp.dim):
        raise ValueError(f"observable shape {A.shape} does not match dim {gp.dim}")
    out = devectorize(gp.phi_g_inv.gamma.conj().T @ vectorize(A), gp.dim)
    herm_residual = np.linalg.norm(out - out.conj().T)
    if herm_residual > 1e-10 * max(1.0, np.linalg.norm(out)):
        raise ValueError(
            f"modified observable lost Hermiticity (residual {herm_residual:.3e}); "
            "the guess inverse is numerically unreliable"
        )
    return out


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
    """Ideal, noisy and deconvolved expectation values plus their deviations.

    The deconvolved value is computed both as ``Tr(modified(A) Phi(rho))``
    and through the vectorized bilinear form; the two must agree to 1e-10.
    """
    ideal = expectation(A, rho)
    noisy_state = apply_channel(gp.phi, rho)
    experimental = expectation(A, noisy_state)
    deconvolved = expectation(modified_observable(gp, A), noisy_state)

    bilinear = complex(
        vectorize(rho).conj() @ (gp.phi.gamma.conj().T @ (gp.phi_g_inv.gamma.conj().T @ vectorize(A)))
    )
    scale = max(1.0, abs(deconvolved))
    if abs(bilinear.real - deconvolved) > 1e-10 * scale:
        raise ValueError(
            f"trace and vectorized deconvolution paths disagree: "
            f"{deconvolved} vs {bilinear.real}"
        )

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

def _recovery_deviations(gp: GuessPair, observables: Sequence[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Per-state recovery deviations ``Tr(A rho) - Tr(modified(A) Phi(rho))`` of several observables.

    The modified observables are built once; the returned function applies
    the channel once per state and gives the real deviations, raising
    ``ValueError`` when one has an imaginary part above
    :func:`expectation`'s threshold (a channel that breaks Hermiticity).
    """
    # Tr(A X) = vec(A) . vec(X^T), so one product per state gives every value
    plain = np.stack([np.asarray(A, dtype=complex) for A in observables]).reshape(len(observables), -1)
    modified = np.stack([modified_observable(gp, A) for A in observables]).reshape(len(observables), -1)
    modified_norm = np.linalg.norm(modified, axis=1).max()

    def deviations(rho: np.ndarray) -> np.ndarray:
        noisy = apply_channel(gp.phi, rho)
        deviation = plain @ rho.T.reshape(-1) - modified @ noisy.T.reshape(-1)
        residual = np.abs(deviation.imag).max()
        if residual > 1e-10 * max(1.0, modified_norm * np.linalg.norm(noisy)):
            raise ValueError(f"expectation value has imaginary residual {residual:.3e}")
        return deviation.real

    return deviations


def verify_family(gp: GuessPair, fam: ObservableFamily, n_states: int, seed: int) -> float:
    """Monte-Carlo check of perfect recovery over seeded random states.

    Draws ``n_states`` (at least 1) random density matrices and, per state,
    checks every basis element plus two random unit-norm real combinations in
    one pass: a combination's deviation is that combination of the basis
    deviations.  Returns the maximum observed deviation of the deconvolved
    value; raises ``ValueError`` when a deviation has an imaginary part above
    :func:`expectation`'s threshold (a channel that breaks Hermiticity).
    """
    if n_states < 1:
        raise ValueError(f"need at least one state to verify, got {n_states}")
    if fam.n_params == 0:
        raise ValueError("cannot verify an empty family")
    if fam.dim != gp.dim:
        raise ValueError(f"family dimension {fam.dim} does not match channel dimension {gp.dim}")
    deviations = _recovery_deviations(gp, fam.basis)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        deviation = deviations(random_density_matrix(gp.dim, rng))
        coeffs = rng.normal(size=(2, fam.n_params))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        worst = max(worst, np.abs(deviation).max(), np.abs(coeffs @ deviation).max())
    return float(worst)


def _certified_family(
    blocks: Sequence[np.ndarray], d: int, rel_tol: float, guess: np.ndarray | None = None
) -> ObservableFamily:
    """Hermitian null space of constraints in Hermitian coordinates, certified per block (named pair k).

    Without ``guess`` the family is the null space ``W`` of the blocks and
    block k's certificate is ``||M_k W||_2``.  With the guess's real
    coordinates ``G``, the blocks are the ``D_k`` and the family is the QR
    orthonormalization ``Q R = G^T W`` (``G^T`` is ``gamma_g^dag``); since
    ``F_k G^T = D_k``, the certificate ``||D_k W R^-1||_2`` equals
    ``||F_k Q||_2`` and bounds the recovery error of every unit-norm member on
    every state.
    """
    W = _null_coordinates(blocks, d * d, rel_tol)
    if not W.shape[1]:
        return ObservableFamily.from_basis(d, [])
    Q, X = W, W
    if guess is not None:
        Q, R = np.linalg.qr(guess.T @ W)
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
    """Certified family of pairs sharing one guess, from the stacked ``D_k``."""
    d = gps[0].dim
    G = gps[0]._guess_coordinates
    blocks = [(G - _coordinates(gp.phi.gamma, d)).conj().T for gp in gps]
    return _certified_family(blocks, d, rel_tol, G)


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

