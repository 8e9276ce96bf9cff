import json

import jsonschema
import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdeconv as q
from qdeconv.scenarios import (
    bitflip_correlated,
    bitflip_uncorrelated,
    bitflip_with_memory,
    qutrit_extreme_channel,
    run_scenario,
)
from qdeconv.serialization import (
    ChannelSpec,
    emit_channel_spec,
    emit_family,
    emit_hermitian_matrix,
    family_to_document,
    kraus_spec,
    load_schema,
    matrix_from_json,
    matrix_to_json,
    parse_channel_spec,
    parse_family,
    parse_hermitian_matrix,
    report_to_document,
    unitary_spec,
)

from conftest import SIGMA


def test_matrix_json_roundtrip_is_bit_exact(rng):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)


def test_parse_identity_channel_spec():
    spec = parse_channel_spec(emit_channel_spec(unitary_spec("identity", np.eye(2))))
    assert spec.kind == "unitary" and spec.dim == 2
    ch = spec.to_kraus_channel()
    assert len(ch.kraus) == 1
    assert_allclose(ch.kraus[0], np.eye(2))


def test_parse_extreme_qutrit_spec():
    ch = qutrit_extreme_channel(1.0)
    spec = parse_channel_spec(emit_channel_spec(kraus_spec("extreme qutrit", ch.kraus)))
    resolved = spec.to_kraus_channel()
    assert len(resolved.kraus) == 3
    assert resolved.trace_preservation_residual() <= 1e-12


def test_parse_rejects_non_cptp_with_residual():
    bad = kraus_spec("bad", [0.9 * np.eye(2)])
    with pytest.raises(q.CptpViolationError) as err:
        parse_channel_spec(emit_channel_spec(bad))
    assert "residual" in str(err.value)


def test_parse_rejects_malformed_json():
    with pytest.raises(q.SpecParseError):
        parse_channel_spec("{not json")


def test_parse_rejects_schema_violation():
    with pytest.raises(q.SpecParseError):
        parse_channel_spec(json.dumps({"schema_version": 1, "dim": 2, "name": "x"}))
    with pytest.raises(q.SpecParseError):
        parse_channel_spec(
            json.dumps({"schema_version": 1, "kind": "kraus", "dim": 2, "name": "x"})
        )


def test_random_unitary_spec_probabilities():
    U1 = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    doc = {
        "schema_version": 1,
        "kind": "random_unitary",
        "dim": 2,
        "name": "two-unitary",
        "unitaries": [matrix_to_json(U1), matrix_to_json(SIGMA[1])],
        "probabilities": [0.7, 0.3],
    }
    spec = parse_channel_spec(json.dumps(doc))
    ch = spec.to_kraus_channel()
    assert_allclose(ch.kraus[0], np.sqrt(0.7) * U1)
    # omitted probabilities default to uniform
    del doc["probabilities"]
    uniform = parse_channel_spec(json.dumps(doc)).to_kraus_channel()
    assert_allclose(uniform.kraus[0], np.sqrt(0.5) * U1)


def test_random_unitary_spec_rejects_bad_probabilities():
    doc = {
        "schema_version": 1,
        "kind": "random_unitary",
        "dim": 2,
        "name": "bad",
        "unitaries": [matrix_to_json(np.eye(2)), matrix_to_json(SIGMA[1])],
        "probabilities": [0.7, 0.7],
    }
    with pytest.raises(q.SpecParseError):
        parse_channel_spec(json.dumps(doc))


def _scaled_projector_document() -> dict:
    """sqrt2|0><0| and sqrt2|1><1| at 0.5/0.5: not unitary, yet the mixture is dephasing."""
    return {
        "schema_version": 1,
        "kind": "random_unitary",
        "dim": 2,
        "name": "scaled projectors",
        "unitaries": [matrix_to_json(np.sqrt(2) * np.diag([1, 0])), matrix_to_json(np.sqrt(2) * np.diag([0, 1]))],
        "probabilities": [0.5, 0.5],
    }


def test_random_unitary_spec_rejects_non_unitary_member():
    doc = _scaled_projector_document()
    with pytest.raises(q.SpecParseError, match="member 0 of 'scaled projectors' is not unitary within 1e-09"):
        parse_channel_spec(json.dumps(doc))
    doc["unitaries"][0] = matrix_to_json(np.eye(2))
    with pytest.raises(q.SpecParseError, match="member 1 of 'scaled projectors' is not unitary"):
        parse_channel_spec(json.dumps(doc))
    nested = {
        "schema_version": 1,
        "kind": "convex_combination",
        "dim": 2,
        "name": "outer",
        "weights": [0.5, 0.5],
        "parts": [unitary_spec("identity", np.eye(2)).document, _scaled_projector_document()],
    }
    with pytest.raises(q.SpecParseError, match="member 0 of 'scaled projectors' is not unitary"):
        parse_channel_spec(json.dumps(nested))


def test_convex_combination_realizes_memory_channel():
    p, mu = 0.3, 0.6
    doc = {
        "schema_version": 1,
        "kind": "convex_combination",
        "dim": 4,
        "name": "bit flip with memory",
        "weights": [1 - mu, mu],
        "parts": [
            kraus_spec("uncorrelated", bitflip_uncorrelated(p).kraus).document,
            kraus_spec("correlated", bitflip_correlated(p).kraus).document,
        ],
    }
    spec = parse_channel_spec(json.dumps(doc))
    combined = q.transfer_from_kraus(spec.to_kraus_channel())
    direct = q.transfer_from_kraus(bitflip_with_memory(p, mu))
    assert np.linalg.norm(combined.gamma - direct.gamma) < 1e-12


def test_convex_combination_rejects_dim_mismatch():
    doc = {
        "schema_version": 1,
        "kind": "convex_combination",
        "dim": 2,
        "name": "broken",
        "weights": [1.0],
        "parts": [kraus_spec("cc", bitflip_correlated(0.2).kraus).document],
    }
    with pytest.raises(q.SpecParseError):
        parse_channel_spec(json.dumps(doc))


def test_channel_spec_roundtrip_semantic_identity():
    ch = qutrit_extreme_channel(0.4)
    spec = kraus_spec("roundtrip", ch.kraus)
    again = parse_channel_spec(emit_channel_spec(spec))
    assert again.kind == spec.kind and again.dim == spec.dim and again.name == spec.name
    for A, B in zip(spec.channel.kraus, again.channel.kraus):
        assert np.max(np.abs(A - B)) <= 1e-15


def _nested_document() -> dict:
    """A convex combination whose second part is itself a convex combination."""
    U = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    inner = {
        "schema_version": 1,
        "kind": "convex_combination",
        "dim": 2,
        "name": "inner",
        "weights": [0.25, 0.75],
        "parts": [unitary_spec("x flip", SIGMA[1]).document, unitary_spec("hadamard-like", U).document],
    }
    return {
        "schema_version": 1,
        "kind": "convex_combination",
        "dim": 2,
        "name": "outer",
        "weights": [0.5, 0.5],
        "parts": [unitary_spec("identity", np.eye(2)).document, inner],
    }


def _spec_documents() -> list[dict]:
    uniform = {
        "schema_version": 1,
        "kind": "random_unitary",
        "dim": 2,
        "name": "uniform",
        "unitaries": [matrix_to_json(np.eye(2)), matrix_to_json(SIGMA[3])],
    }
    return [
        kraus_spec("extreme qutrit", qutrit_extreme_channel(0.4).kraus).document,
        unitary_spec("z", SIGMA[3]).document,
        uniform,
        dict(uniform, name="weighted", probabilities=[0.7, 0.3]),
        _nested_document(),
    ]


@pytest.mark.parametrize("doc", _spec_documents(), ids=lambda d: d["name"])
def test_emit_reproduces_parsed_document(doc):
    text = json.dumps(doc, indent=2)
    spec = parse_channel_spec(text)
    assert spec.document == doc
    assert emit_channel_spec(spec) == text
    assert (spec.kind, spec.dim, spec.name) == (doc["kind"], doc["dim"], doc["name"])


def test_spec_document_cannot_drift_from_channel():
    spec = parse_channel_spec(json.dumps(_nested_document(), indent=2))
    before = (emit_channel_spec(spec), spec.kind, spec.dim, spec.name)
    doc = spec.document
    doc["dim"] = 3
    doc["kind"] = "kraus"
    doc["name"] = "changed"
    doc["parts"][1]["weights"][0] = 0.9
    doc["parts"][0]["unitary"][0][0][0] = 7.0
    assert (emit_channel_spec(spec), spec.kind, spec.dim, spec.name) == before
    assert spec.document == _nested_document()
    # the spec keeps its own copy of the document it was built from, too
    source = unitary_spec("z", SIGMA[3]).document
    built = ChannelSpec(source, unitary_spec("z", SIGMA[3]).channel)
    source["dim"] = 3
    assert built.dim == 2 and built.document["dim"] == 2


def test_spec_holds_one_resolved_channel():
    spec = parse_channel_spec(json.dumps(_nested_document()))
    assert spec.to_kraus_channel() is spec.to_kraus_channel() is spec.channel
    # identity/2 + (x flip/4 + U * 3/4)/2 as three weighted Kraus operators
    assert [float(np.linalg.norm(A) ** 2 / 2) for A in spec.channel.kraus] == pytest.approx([0.5, 0.125, 0.375])


def test_nested_spec_builds_one_channel_per_document(monkeypatch):
    from qdeconv import serialization

    text = json.dumps(_nested_document())
    built = []

    class Counting(serialization.KrausChannel):
        def __post_init__(self):
            built.append(self.dim)
            super().__post_init__()

    monkeypatch.setattr(serialization, "KrausChannel", Counting)
    parse_channel_spec(text).to_kraus_channel()
    assert len(built) == 5  # outer, identity, inner, and the inner's two parts


def test_convex_combination_rejects_non_cptp_part_by_name():
    deficient = kraus_spec("deficient", [0.9 * np.eye(2)]).document
    excess = kraus_spec("excess", [np.sqrt(1.19) * np.eye(2)]).document
    doc = {
        "schema_version": 1,
        "kind": "convex_combination",
        "dim": 2,
        "name": "balanced",
        "weights": [0.5, 0.5],
        "parts": [deficient, excess],
    }
    # the mixture itself is trace preserving: 0.5 * 0.81 + 0.5 * 1.19 = 1
    with pytest.raises(q.CptpViolationError, match="channel 'deficient' is not CPTP"):
        parse_channel_spec(json.dumps(doc))
    doc["parts"] = [excess, deficient]
    with pytest.raises(q.CptpViolationError, match="channel 'excess' is not CPTP"):
        parse_channel_spec(json.dumps(doc))


def test_family_roundtrip(rng):
    gp = q.GuessPair.from_transfers(
        q.transfer_from_kraus(qutrit_extreme_channel(np.pi / 2)),
        q.transfer_from_kraus(qutrit_extreme_channel(0.0)),
    )
    fam = q.correctable_family(gp)
    again = parse_family(emit_family(fam))
    assert again.n_params == fam.n_params
    for A, B in zip(fam.basis, again.basis):
        assert np.max(np.abs(A - B)) <= 1e-15


def test_family_document_rejects_wrong_count():
    doc = {"schema_version": 1, "dim": 2, "n_params": 2, "basis": [matrix_to_json(np.eye(2) / np.sqrt(2))]}
    with pytest.raises(q.SpecParseError):
        parse_family(json.dumps(doc))


def test_hermitian_matrix_document_roundtrip(rng):
    from qdeconv.channels import random_hermitian

    A = random_hermitian(3, rng)
    back = parse_hermitian_matrix(emit_hermitian_matrix(A))
    assert np.array_equal(back, A)
    with pytest.raises(q.SpecParseError):
        parse_hermitian_matrix(json.dumps({"dim": 2}))


@pytest.mark.parametrize("parser", [parse_channel_spec, parse_family, parse_hermitian_matrix])
def test_parsers_reject_non_utf8_bytes(parser):
    with pytest.raises(q.SpecParseError, match="malformed JSON"):
        parser(b'{"dim": 2, \xff\xfe}')


@pytest.mark.parametrize(
    "M, reason",
    [
        (np.array([[np.nan, 0], [0, 1]]), "non-finite"),
        (np.array([[np.inf, 0], [0, 1]]), "non-finite"),
        (np.array([[1, 0.5], [0, 1]]), "not Hermitian"),
        (np.array([[1, 1j], [1j, 1]]), "not Hermitian"),
    ],
)
def test_hermitian_matrix_document_rejects_non_hermitian_or_non_finite(M, reason):
    with pytest.raises(q.SpecParseError, match=reason):
        parse_hermitian_matrix(emit_hermitian_matrix(M), "observable")


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def test_all_schemas_load():
    for name in ("channel_spec", "observable_family", "deconv_report", "scenario_result"):
        schema = load_schema(name)
        jsonschema.Draft202012Validator.check_schema(schema)


def test_documents_validate_against_schemas(rng):
    ch = qutrit_extreme_channel(1.0)
    jsonschema.validate(kraus_spec("x", ch.kraus).document, load_schema("channel_spec"))

    gp = q.GuessPair.from_transfers(
        q.transfer_from_kraus(ch), q.transfer_from_kraus(qutrit_extreme_channel(0.0))
    )
    fam = q.correctable_family(gp)
    jsonschema.validate(family_to_document(fam), load_schema("observable_family"))

    rho = q.random_density_matrix(3, rng)
    report = q.evaluate(gp, fam.basis[0], rho)
    jsonschema.validate(report_to_document(report), load_schema("deconv_report"))

    result = run_scenario("ru-two-qubit")
    jsonschema.validate(result.to_document(), load_schema("scenario_result"))


_IDENTITY_2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_INVALID_DOCUMENTS = [
    ("channel_spec", {"schema_version": 1, "dim": 2, "name": "x"}),
    ("channel_spec", {"schema_version": 2, "kind": "kraus", "dim": 2, "name": "x", "kraus": [_IDENTITY_2]}),
    ("channel_spec", {"schema_version": 1, "kind": "kraus", "dim": 0, "name": "x", "kraus": [_IDENTITY_2]}),
    ("channel_spec", {"schema_version": 1, "kind": "unitary", "dim": 2, "name": "x"}),
    ("channel_spec", {"schema_version": 1, "kind": "kraus", "dim": 2, "name": "x", "kraus": [[[[1, 0, 0]]]]}),
    ("channel_spec", {"schema_version": 1, "kind": "convex_combination", "dim": 2, "name": "x",
                      "weights": [1.0], "parts": [{"kind": "unitary"}]}),
    ("observable_family", {"schema_version": 1, "dim": 2, "n_params": -1, "basis": []}),
    ("observable_family", {"schema_version": 1, "dim": 2, "basis": []}),
    ("observable_family", {"schema_version": 1, "dim": 2, "n_params": 1, "basis": [[[["1", 0]]]]}),
    ("observable_family", [1, 2]),
]


@pytest.mark.parametrize("schema_name, doc", _INVALID_DOCUMENTS)
def test_schema_violation_message_matches_jsonschema_validate(schema_name, doc):
    with pytest.raises(jsonschema.ValidationError) as oracle:
        jsonschema.validate(doc, load_schema(schema_name))
    parse = parse_channel_spec if schema_name == "channel_spec" else parse_family
    with pytest.raises(q.SpecParseError) as got:
        parse(json.dumps(doc))
    assert str(got.value) == f"{schema_name} document violates schema: {oracle.value.message}"
    assert isinstance(got.value.__cause__, jsonschema.ValidationError)


def test_each_schema_is_checked_once_per_process(monkeypatch):
    from qdeconv import serialization

    cls = jsonschema.validators.validator_for(load_schema("channel_spec"))
    assert jsonschema.validators.validator_for(load_schema("observable_family")) is cls
    original = cls.check_schema
    checked = []

    def counting(_cls, schema, **kwargs):
        checked.append(schema["$id"])
        return original(schema, **kwargs)

    monkeypatch.setattr(cls, "check_schema", classmethod(counting))
    serialization._validator.cache_clear()
    spec = emit_channel_spec(unitary_spec("identity", np.eye(2)))
    family = emit_family(q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)]))
    for _ in range(3):
        parse_channel_spec(spec)
        parse_family(family)
        with pytest.raises(q.SpecParseError):
            parse_channel_spec(json.dumps({"schema_version": 1}))
    assert sorted(checked) == ["qdeconv/channel_spec", "qdeconv/observable_family"]
