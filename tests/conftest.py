"""Shared helpers for the test suite.

The oracle functions here deliberately avoid the package's transfer-matrix
code paths so that tests compare two independent computations.
"""

from __future__ import annotations

import numpy as np
import pytest

from qdeconv import PAULIS


def kron(*mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


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


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    E = np.zeros((d, d), dtype=complex)
    E[i, j] = 1.0
    return E


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)


SIGMA = PAULIS
