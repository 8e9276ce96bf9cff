import pytest

import qdeconv as q
from qdeconv.scenarios import emit_report, run_scenario, scenario_names

EXPECTED_DIMS = {
    "qutrit-extreme": 5,
    "bitflip-memory": 12,
    "ru-three-unitaries": 3,
    "ru-two-qubit": 2,
    "ru-degenerate": 5,
    "pauli-irrep": 1,
    "partial-recovery": 12,
    "equivalence-covariance": 2,
}


def test_registry_contents():
    assert scenario_names() == list(EXPECTED_DIMS)


@pytest.mark.parametrize("name", list(EXPECTED_DIMS))
def test_scenario_family_dims_and_checks(name):
    result = run_scenario(name)
    assert result.family_dim == EXPECTED_DIMS[name]
    assert result.family_dim == result.expected_family_dim
    failing = {c.label for c in result.checks if not c.passed}
    assert failing == set()
    assert result.passed
    assert result.max_delta_nd <= 1e-9


def test_partial_recovery_quantifies_offset():
    # the default point (p=0.3, mu=0.5, x=0.5), then two overrides
    for overrides in (None, {"p": 0.1, "mu": 0.2, "x": 0.9}, {"p": 0.45, "mu": 0.8, "x": 0.25}):
        result = run_scenario("partial-recovery", overrides)
        p, mu, x = (result.metadata[k] for k in ("p", "mu", "x"))
        by_label = {c.label: c for c in result.checks}
        assert by_label["noisy deviation equals closed form 4p[(1-p)(1-mu)+x]"].passed
        assert by_label["deconvolved deviation equals closed form 4p(1-p)(1-mu)"].passed
        delta_exp, delta_nd = result.metadata["delta_exp"], result.metadata["delta_nd"]
        assert delta_exp == pytest.approx(4 * p * ((1 - p) * (1 - mu) + x), abs=1e-12)
        assert delta_nd == pytest.approx(4 * p * (1 - p) * (1 - mu), abs=1e-12)
        if overrides is None:
            assert delta_exp == pytest.approx(1.02, abs=1e-12)
            assert delta_nd == pytest.approx(0.42, abs=1e-12)


def test_scenarios_are_deterministic():
    a = run_scenario("ru-three-unitaries").to_document()
    b = run_scenario("ru-three-unitaries").to_document()
    assert a == b
    c = run_scenario("equivalence-covariance").to_document()
    d = run_scenario("equivalence-covariance").to_document()
    assert c == d


def test_overrides_are_applied_and_validated():
    fast = run_scenario("qutrit-extreme", {"states": 10, "seed": 99})
    assert fast.metadata["states"] == 10 and fast.metadata["seed"] == 99
    assert fast.passed
    with pytest.raises(ValueError):
        run_scenario("qutrit-extreme", {"bogus": 1})
    with pytest.raises(ValueError):
        run_scenario("qutrit-extreme", {"states": 2.5})
    # a recovery check over no sampled channel would pass vacuously
    with pytest.raises(ValueError, match="prob_draws must be at least 1, got 0"):
        run_scenario("pauli-irrep", {"prob_draws": 0})
    with pytest.raises(q.UnknownScenarioError):
        run_scenario("not-a-scenario")


def test_equivalence_covariance_needs_states_and_skips_evaluate(monkeypatch):
    with pytest.raises(ValueError, match="states must be at least 1"):
        run_scenario("equivalence-covariance", {"states": 0})

    import qdeconv.scenarios as sc

    def forbidden(*args, **kwargs):
        pytest.fail("equivalence-covariance evaluated a member on its own")

    monkeypatch.setattr(sc, "evaluate", forbidden)
    assert run_scenario("equivalence-covariance", {"tuples": 4}).passed


def test_partial_recovery_evaluates_only_the_reported_point(monkeypatch):
    import qdeconv.scenarios as sc

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return q.evaluate(*args, **kwargs)

    monkeypatch.setattr(sc, "evaluate", counting)
    assert run_scenario("partial-recovery").passed
    assert len(calls) == 1


def test_result_with_wrong_family_dimension_fails():
    with pytest.raises(ValueError, match="tuples must be at least 1"):
        run_scenario("equivalence-covariance", {"tuples": 0})
    from dataclasses import replace

    result = run_scenario("pauli-irrep")
    wrong = replace(result, family_dim=result.expected_family_dim + 1)
    assert all(c.passed for c in wrong.checks)
    assert not wrong.passed
    assert wrong.to_document()["passed"] is False
    assert "status: FAIL" in emit_report(wrong)


def test_emit_report_formats():
    result = run_scenario("pauli-irrep")
    table = emit_report(result, "table")
    assert "status: PASS" in table and "[PASS]" in table
    as_json = emit_report(result, "json")
    import json

    doc = json.loads(as_json)
    assert doc["scenario"] == "pauli-irrep" and doc["passed"] is True
    with pytest.raises(ValueError):
        emit_report(result, "yaml")


def test_report_json_roundtrip():
    from qdeconv.scenarios import result_from_document

    result = run_scenario("ru-two-qubit")
    doc = result.to_document()
    again = result_from_document(doc)
    assert again.to_document() == doc


def test_scenario_documents_match_golden_file():
    """Every field of the eight documents is pinned.  Floats computed from a
    family basis or a guess inverse (``max_delta_nd``, every check residual
    and every float in the metadata) move with the basis chosen for the same
    span and with rounding, so they may move within 1e-12; labels, verdicts,
    tolerances, dimensions and integer and string metadata must match exactly."""
    import json
    from pathlib import Path

    def close(got, pinned):
        if isinstance(pinned, float):
            assert isinstance(got, float) and got == pytest.approx(pinned, rel=0, abs=1e-12)
            return pinned
        if isinstance(pinned, list) and isinstance(got, list) and len(got) == len(pinned):
            return [close(g, p) for g, p in zip(got, pinned)]
        return got

    golden = json.loads((Path(__file__).parent / "data" / "scenario_documents.json").read_text())
    assert sorted(golden) == sorted(scenario_names())
    for name in scenario_names():
        doc, want = run_scenario(name).to_document(), golden[name]
        assert doc["max_delta_nd"] == pytest.approx(want["max_delta_nd"], rel=0, abs=1e-12), name
        assert len(doc["checks"]) == len(want["checks"]), name
        for got, pinned in zip(doc["checks"], want["checks"]):
            assert got["residual"] == pytest.approx(pinned["residual"], rel=0, abs=1e-12), name
            assert {**got, "residual": pinned["residual"]} == pinned, name
        metadata = {k: close(v, want["metadata"].get(k)) for k, v in doc["metadata"].items()}
        assert metadata == want["metadata"], name
        rest = {k: v for k, v in doc.items() if k not in ("max_delta_nd", "checks", "metadata")}
        assert rest == {k: v for k, v in want.items() if k not in ("max_delta_nd", "checks", "metadata")}, name


@pytest.mark.parametrize("name", list(EXPECTED_DIMS))
def test_kernel_tol_reaches_every_extraction(name, monkeypatch):
    import inspect

    import qdeconv.scenarios as sc

    recorded = []

    def recording(fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            recorded.append((fn.__name__, list(bound.arguments.values())[1]))
            return fn(*args, **kwargs)

        return wrapper

    for constructor in ("correctable_family", "common_correctable_family", "ru_correctable_family", "commutant_family"):
        monkeypatch.setattr(sc, constructor, recording(getattr(sc, constructor)))
    run_scenario(name, kernel_tol=3e-9)
    assert recorded, f"{name} extracted no family through the four constructors"
    assert all(tol == 3e-9 for _, tol in recorded), recorded
