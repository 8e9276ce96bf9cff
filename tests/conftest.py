"""Shared helpers for the test suite.

The oracle functions here deliberately avoid the package's transfer-matrix
code paths so that tests compare two independent computations.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from qdeconv import PAULIS
from qdeconv.deconvolution import _hermitian_basis
from qdeconv.serialization import unitary_spec


def kron(*mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def hs_inner(X: np.ndarray, Y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``Tr(X^dag Y)``: the inner product of the
    vectorized operators."""
    return complex(np.vdot(X, Y))


def choi_state(kraus) -> np.ndarray:
    """Choi state ``(1/d) sum_k |vec(A_k)><vec(A_k)|`` of a Kraus list, ``vec``
    row-major: the channel applied to one half of the maximally entangled
    state, ``(1/d) sum_ij channel(|i><j|) (x) |i><j|``."""
    d = len(kraus[0])
    return sum(np.outer(A.reshape(-1), A.reshape(-1).conj()) for A in kraus) / d


def reshuffle(M: np.ndarray) -> np.ndarray:
    """The index reshuffle ``R[i*d + j, k*d + l] = M[i*d + k, j*d + l]``, an
    involution.  With row-major ``vec`` it takes ``d`` times a channel's Choi
    state to its transfer matrix, and a transfer matrix to ``d`` times the
    Choi matrix of its map, completely positive or not."""
    d = int(round(np.sqrt(len(M))))
    return M.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    """Brute-force channel application, independent of vectorization."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for A in kraus:
        out += A @ rho @ A.conj().T
    return out


def recovery_bound(F: np.ndarray, fam) -> float:
    """Largest recovery error of a unit-norm family member over all states.

    For a state ``rho`` and a member ``A = Q c`` with ``Q`` the row-major
    vectorized basis and ``||c|| = 1``, the deviation of the deconvolved value
    is ``|vec(rho)^dag F Q c| <= ||F Q||_2``, since ``||vec(rho)||_2 <= 1``.
    """
    if fam.n_params == 0:
        return 0.0
    Q = np.column_stack([np.asarray(A).reshape(-1) for A in fam.basis])
    return float(np.linalg.norm(F @ Q, 2))


def choice_estimate(rho: np.ndarray, Q: np.ndarray, shots: int, seed: int) -> tuple[float, float]:
    """Per-shot Born sampler: one ``Generator.choice`` outcome per shot.

    Returns the sample mean and its standard error (``std(ddof=1)`` over
    ``sqrt(shots)``, zero for one shot).
    """
    eigvals, eigvecs = np.linalg.eigh(Q)
    probs = np.einsum("ji,jk,ki->i", eigvecs.conj(), rho, eigvecs).real
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    samples = np.random.default_rng(seed).choice(eigvals, size=shots, p=probs)
    std = samples.std(ddof=1) if shots > 1 else 0.0
    return float(samples.mean()), float(std / np.sqrt(shots))


def coordinates_oracle(M: np.ndarray, d: int) -> np.ndarray:
    """``B^dag M B`` as two whole-array expressions: the form the in-place
    ``deconvolution._coordinates`` must reproduce bit for bit."""
    i1, i2, w1, w2 = _hermitian_basis(d)
    X = w1.conj()[:, None] * M[i1] + w2.conj()[:, None] * M[i2]
    return X[:, i1] * w1 + X[:, i2] * w2


def deviation_coordinates_oracle(gp) -> np.ndarray:
    """The complex ``D = (B^dag gamma_g B - B^dag gamma_phi B)^dag`` of a pair
    from :func:`coordinates_oracle`: the constraint whose null space is the
    pair's correctable family, formed as a whole ``d^2 x d^2`` array."""
    d = gp.dim
    return (coordinates_oracle(gp.phi_g.gamma, d) - coordinates_oracle(gp.phi.gamma, d)).conj().T


def null_coordinates_oracle(blocks, d2: int, rel_tol: float) -> np.ndarray:
    """Common null space (columns) of constraints in Hermitian coordinates from
    one full SVD of the stacked scaled real and imaginary halves: the decision
    ``deconvolution._null_coordinates`` must reproduce, blocks and halves of
    norm at most 1e-12 dropped and singular values at most
    ``max(rel_tol * sigma_max, 1e-14)`` kept."""
    halves = []
    for M in blocks:
        scale = np.linalg.norm(M)
        if scale > 1e-12:
            halves += [h for h in (M.real / scale, M.imag / scale) if np.linalg.norm(h) > 1e-12]
    if not halves:
        return np.eye(d2)
    _, s, vt = np.linalg.svd(np.vstack(halves), full_matrices=False)
    return vt[s <= max(rel_tol * s[0], 1e-14)].T


def _rational(x: float, max_denominator: int) -> Fraction:
    """The fraction with denominator at most ``max_denominator`` nearest ``x``, which must lie within 1e-12 of it."""
    r = Fraction(x).limit_denominator(max_denominator)
    if abs(float(r) - x) > 1e-12:
        raise ValueError(f"{x!r} is not within 1e-12 of a fraction with denominator at most {max_denominator}")
    return r


def exact_rank(M: np.ndarray, max_denominator: int = 10**6) -> int:
    """Exact complex rank of a matrix whose entries are Gaussian rationals to rounding.

    Each real and imaginary part is replaced by the nearest fraction with a
    small denominator (:func:`_rational`), so the floats only name the exact
    matrix; the rank is then found by Gaussian elimination over
    ``fractions.Fraction``.  A complex matrix ``R + iI`` is realified as
    ``[[R, -I], [I, R]]``, whose rank is twice the complex rank.
    """
    M = np.asarray(M, dtype=complex)
    re = [[_rational(float(x), max_denominator) for x in row] for row in M.real]
    if np.any(M.imag):
        im = [[_rational(float(x), max_denominator) for x in row] for row in M.imag]
        rows = [r + [-x for x in i] for r, i in zip(re, im)] + [i + r for r, i in zip(re, im)]
        return _fraction_rank(rows) // 2
    return _fraction_rank(re)


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q, one row at a time: each row is reduced by the stored pivot
    rows, in the order they were stored, and stored if anything is left."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        for col, pivot in pivots:
            if row[col]:
                f = row[col]
                row = [a - f * b for a, b in zip(row, pivot)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            pivots.append((lead, [a / row[lead] for a in row]))
    return len(pivots)


def exact_family_size(trues, guess: np.ndarray) -> int:
    """Exact size of the family correctable for every true transfer matrix in ``trues`` under ``guess``.

    With ``D_k = (gamma_g - gamma_k)^dag`` stacked into ``D``, the family is
    the guess's image ``gamma_g^dag ker D``, whose dimension is ``dim ker D``
    less ``dim (ker D cap ker gamma_g^dag)``: ``rank [D; gamma_g^dag] - rank
    D``.  The kernels are closed under ``A -> A^dag``, so their complex
    dimensions are the real dimensions of the Hermitian families.  The
    entries must be Gaussian rationals to rounding (:func:`exact_rank`).
    """
    D = np.vstack([(guess - gamma).conj().T for gamma in trues])
    return exact_rank(np.vstack([D, guess.conj().T])) - exact_rank(D)


def membership_oracle(basis, A: np.ndarray) -> float:
    """Relative distance of ``A`` from the span of an orthonormal ``basis``,
    projected one ``hs_inner`` at a time (0 for a zero ``A``)."""
    norm = np.linalg.norm(A)
    if norm == 0.0:
        return 0.0
    proj = sum((hs_inner(B, A) * B for B in basis), np.zeros_like(A, dtype=complex))
    return float(np.linalg.norm(A - proj) / norm)


def deep_spec(levels: int) -> dict:
    """The Pauli-Z unitary wrapped in ``levels`` one-part convex combinations."""
    doc = unitary_spec("z", SIGMA[3]).document
    for k in range(levels):
        doc = {
            "schema_version": 1,
            "kind": "convex_combination",
            "dim": 2,
            "name": f"level {k}",
            "weights": [1.0],
            "parts": [doc],
        }
    return doc


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    E = np.zeros((d, d), dtype=complex)
    E[i, j] = 1.0
    return E


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)


SIGMA = PAULIS
