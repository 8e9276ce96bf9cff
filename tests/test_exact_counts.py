"""Family sizes checked against exact rational arithmetic.

Every count the float route reports comes from one cutoff decision on
singular values.  Where the inputs are Gaussian rationals (bit-flip mixtures
with rational weights, Pauli and Hadamard-like unitaries, whose ``U (x) conj(U)``
has entries ``0``, ``+-1/2`` or ``+-1``), ``conftest.exact_family_size`` finds
the same count by Gaussian elimination over ``fractions.Fraction``, with no
cutoff at all.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdeconv as q
from qdeconv.scenarios import (
    bitflip_correlated,
    bitflip_with_memory,
    qubit_pair_unitaries,
    run_scenario,
)

from conftest import SIGMA, exact_family_size, exact_rank, kron


def transfer(kraus) -> np.ndarray:
    """``sum_k kron(A_k, conj(A_k))``, formed here and not by the package."""
    return sum(np.kron(A, A.conj()) for A in kraus)


def _bitflip_inputs(p):
    # the scenarios probe the memory channel at mu = 1/10, 3/10, ..., 9/10
    trues = [transfer(bitflip_with_memory(p, mu).kraus) for mu in (0.1, 0.3, 0.5, 0.7, 0.9)]
    return trues, transfer(bitflip_correlated(p).kraus)


def _unitary_inputs(Us, guess_index):
    trues = [np.kron(U, U.conj()) for U in Us]
    return trues, trues[guess_index]


@pytest.mark.parametrize(
    "name, inputs, count",
    [
        pytest.param(name, inputs, count, id=name)
        for name, inputs, count in (
            ("bitflip-memory", lambda: _bitflip_inputs(0.25), 12),
            ("partial-recovery", lambda: _bitflip_inputs(0.3), 12),
            ("pauli-irrep", lambda: _unitary_inputs(SIGMA, 0), 1),
            ("ru-two-qubit", lambda: _unitary_inputs(qubit_pair_unitaries(), 1), 2),
        )
    ],
)
def test_rational_scenario_families_have_the_exact_size(name, inputs, count):
    trues, guess = inputs()
    assert exact_family_size(trues, guess) == count
    assert run_scenario(name).family_dim == count


def test_the_correlated_guess_at_one_half_is_exactly_singular():
    trues, guess = _bitflip_inputs(0.5)
    assert exact_rank(guess) == 8
    D = np.vstack([(guess - gamma).conj().T for gamma in trues])
    assert D.shape[1] - exact_rank(D) == 12
    assert exact_family_size(trues, guess) == 4


def _pauli_strings(d):
    return list(SIGMA) if d == 2 else [kron(a, b) for a in SIGMA for b in SIGMA]


@st.composite
def pauli_mixtures(draw, d):
    """Weights ``c_P / sum c`` with small integer ``c_P``, so every denominator is at most 3 d^2."""
    counts = draw(st.lists(st.integers(0, 3), min_size=d * d, max_size=d * d).filter(any))
    total = sum(counts)
    return [c / total for c in counts]


def _has_gap(M):
    """Every singular value is rounding (at most 1e-12 of the largest) or above 1e-6 of the largest."""
    s = np.linalg.svd(M, compute_uv=False)
    return s[0] == 0 or not np.any((s > 1e-12 * s[0]) & (s <= 1e-6 * s[0]))


@settings(deadline=None, max_examples=40)
@given(d=st.sampled_from([2, 4]), n_true=st.integers(1, 2), data=st.data())
def test_pauli_mixture_families_have_the_exact_size(d, n_true, data):
    # Any guess is admitted, singular ones too: the family is the guess's
    # image of ker D, and the exact count subtracts what the guess kills.
    strings = _pauli_strings(d)
    weights = [data.draw(pauli_mixtures(d), label=f"weights {k}") for k in range(n_true + 1)]
    channels = [q.random_unitary_channel(w, strings) for w in weights]
    *trues, guess = (transfer(ch.kraus) for ch in channels)
    # The property tests the route, not the choice of cutoff: keep only draws
    # whose nonzero singular values, of the scaled constraints and of the
    # guess, all exceed 1e-6 of the largest, far from both cutoffs (1e-8).
    # With denominators at most 3 d^2 the exact nonzero values are about
    # 1e-3 of the largest or more, so the filter is a stated premise that
    # should reject no draw.
    blocks = [(guess - gamma).conj().T for gamma in trues]
    scaled = [D / np.linalg.norm(D) for D in blocks if np.linalg.norm(D) > 1e-12]
    assume(not scaled or _has_gap(np.vstack(scaled)))
    assume(_has_gap(guess))
    *phis, phi_g = (q.transfer_from_kraus(ch) for ch in channels)
    gps = [q.GuessPair.from_transfers(phi, phi_g) for phi in phis]
    assert q.common_correctable_family(gps).n_params == exact_family_size(trues, guess)
