"""Every tolerance argument of the public API rejects NaN and negative values.

A NaN compares false with everything, so a tolerance check written
``x <= tol`` passes nothing and one written ``x > tol`` passes everything;
``invariant_subspace(I, nan)`` used to return no vector and
``eig_grouping(I, -1.0)`` three singleton groups.  Each public function that
takes a tolerance raises ``ValueError`` instead, and ``CALLS`` is checked
against the functions that take one.
"""

import inspect

import numpy as np
import pytest

import qdeconv as q
from qdeconv import channels, deconvolution, quorum, random_unitary, scenarios, serialization

I2 = np.eye(2)
T2 = q.TransferMatrix(2, np.eye(4))
FAM = q.ObservableFamily.from_basis(2, [I2 / np.sqrt(2)])
VECS = [np.eye(4)[0]]

#: One call per public function, on inputs it accepts at its default tolerance.
CALLS = {
    "channels.is_hermitian": lambda tol: q.is_hermitian(I2, tol),
    "channels.is_unitary": lambda tol: q.is_unitary(I2, tol),
    "channels.is_positive_semidefinite": lambda tol: q.is_positive_semidefinite(I2, tol),
    "channels.is_density_matrix": lambda tol: q.is_density_matrix(I2 / 2, tol),
    "channels.validate_probabilities": lambda tol: q.validate_probabilities([0.5, 0.5], tol),
    "channels.inverse_transfer": lambda tol: q.inverse_transfer(T2, tol),
    "channels.unitary_channel": lambda tol: q.unitary_channel(I2, tol),
    "channels.random_unitary_channel": lambda tol: q.random_unitary_channel([1.0], [I2], tol),
    "channels.is_cptp": lambda tol: q.is_cptp(q.unitary_channel(I2), tol),
    "deconvolution.GuessPair.from_transfers": lambda tol: q.GuessPair.from_transfers(T2, T2, tol),
    "deconvolution.kernel": lambda tol: q.kernel(np.zeros((4, 4)), tol),
    "deconvolution.joint_kernel": lambda tol: q.joint_kernel([np.zeros((4, 4))], 4, tol),
    # an empty span answers without any kernel
    "deconvolution.intersect_spans": lambda tol: q.intersect_spans(VECS, [], tol),
    "deconvolution.spans_coincide": lambda tol: q.spans_coincide(FAM, FAM, tol),
    "deconvolution.correctable_family": lambda tol: q.correctable_family(q.GuessPair(T2, T2), tol),
    "deconvolution.common_correctable_family": lambda tol: q.common_correctable_family([q.GuessPair(T2, T2)], tol),
    # every candidate is singular, so no family is ever extracted
    "deconvolution.guess_sweep": lambda tol: q.guess_sweep(T2, [q.TransferMatrix(2, np.zeros((4, 4)))], tol),
    "random_unitary.invariant_subspace": lambda tol: q.invariant_subspace(np.eye(4), tol),
    "random_unitary.ru_correctable_family": lambda tol: q.ru_correctable_family(q.UnitaryErrorSet.from_unitaries([I2]), tol),
    "random_unitary.eig_grouping": lambda tol: q.eig_grouping(np.eye(3), tol),
    "random_unitary.two_unitary_family": lambda tol: q.two_unitary_family(I2, I2, tol),
    "random_unitary.commutant_family": lambda tol: q.commutant_family([I2], tol),
    "scenarios.ScenarioCheck.from_residual": lambda tol: scenarios.ScenarioCheck.from_residual("check", 0.0, tol),
    "scenarios.run_scenario": lambda tol: scenarios.run_scenario("qutrit-extreme", kernel_tol=tol),
}


@pytest.mark.parametrize("tol", [float("nan"), -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_tolerance_must_be_a_non_negative_number(name, tol):
    with pytest.raises(ValueError, match=r"must be a non-negative number, got (nan|-1\.0)$"):
        CALLS[name](tol)


def _takes_a_tolerance(f) -> bool:
    return any("tol" in p or "cutoff" in p for p in inspect.signature(f).parameters)


def test_calls_cover_every_public_function_that_takes_a_tolerance():
    found = set()
    for mod in (channels, deconvolution, random_unitary, quorum, scenarios, serialization):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                members = [(f"{name}.{k}", getattr(obj, k)) for k in vars(obj) if not k.startswith("_")]
            else:
                members = [(name, obj)]
            found |= {f"{short}.{qual}" for qual, f in members if callable(f) and _takes_a_tolerance(f)}
    assert found == set(CALLS)


def test_zero_tolerance_is_accepted_and_gives_the_exact_answers():
    assert len(q.invariant_subspace(np.eye(4), 0.0)) == 4
    assert q.eig_grouping(np.eye(3), 0.0).groups == ((0, 1, 2),)
    assert q.two_unitary_family(I2, I2, 0.0)[1].n_params == 4
    assert len(q.kernel(np.zeros((4, 4)), 0.0)) == 4
