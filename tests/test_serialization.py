import copy
import json
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    MAX_SPEC_DEPTH,
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

from conftest import SIGMA, deep_spec


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
    # ||0.81 I - I||_F = 0.19 sqrt(2)
    assert str(err.value) == "channel 'bad' is not CPTP: trace-preservation residual 2.687e-01"


def test_parse_runs_no_eigendecomposition(monkeypatch):
    # a Kraus form is completely positive by construction: the check is trace
    # preservation alone, with no eigenvalues of a d^2 x d^2 matrix
    text = emit_channel_spec(kraus_spec("d32", q.random_cptp_channel(32, 3, np.random.default_rng(1)).kraus))

    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition during a spec parse")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert parse_channel_spec(text).to_kraus_channel().dim == 32


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


@pytest.mark.parametrize("kind", ["random_unitary", "convex_combination"])
def test_mixture_with_a_weight_just_below_zero_parses_without_a_warning(kind):
    # valid within 1e-9; the mixing rule used to take the root of -1e-10
    weights = [1.0000000001, -1e-10]
    if kind == "random_unitary":
        payload = {"unitaries": [matrix_to_json(np.eye(2)), matrix_to_json(SIGMA[1])], "probabilities": weights}
    else:
        payload = {"parts": [unitary_spec("i", np.eye(2)).document, unitary_spec("x", SIGMA[1]).document], "weights": weights}
    doc = {"schema_version": 1, "kind": kind, "dim": 2, "name": "mixture", **payload}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ch = parse_channel_spec(json.dumps(doc)).channel
    assert np.array_equal(ch.kraus[0], np.sqrt(1.0000000001) * np.eye(2))
    assert np.array_equal(ch.kraus[1], np.zeros((2, 2)))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), n_parts=st.integers(1, 3), n_kraus=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_convex_combination_spec_resolves_to_the_library_mixture(d, n_parts, n_kraus, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_parts))
    parts = [q.random_cptp_channel(d, n_kraus, rng) for _ in range(n_parts)]
    doc = {
        "schema_version": 1,
        "kind": "convex_combination",
        "dim": d,
        "name": "mixture",
        "weights": weights.tolist(),
        "parts": [kraus_spec(f"part {k}", part.kraus).document for k, part in enumerate(parts)],
    }
    parsed = parse_channel_spec(json.dumps(doc)).channel
    direct = q.convex_combination(weights, parts)
    assert len(parsed.kraus) == len(direct.kraus) == n_parts * n_kraus
    assert all(np.array_equal(A, B) for A, B in zip(parsed.kraus, direct.kraus))


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


def test_spec_nesting_is_bounded():
    # 300 levels ended in a RecursionError
    spec = parse_channel_spec(json.dumps(deep_spec(MAX_SPEC_DEPTH)))
    assert np.allclose(spec.channel.kraus[0], SIGMA[3])
    path = "$" + ".parts[0]" * (MAX_SPEC_DEPTH + 1)
    for levels in (MAX_SPEC_DEPTH + 1, 300):
        with pytest.raises(q.SpecParseError) as err:
            parse_channel_spec(json.dumps(deep_spec(levels)))
        assert str(err.value) == (
            f"channel_spec document violates schema: {path} nests parts deeper than {MAX_SPEC_DEPTH} levels"
        )


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
    from qdeconv import channels, serialization

    text = json.dumps(_nested_document())
    built = []

    class Counting(serialization.KrausChannel):
        def __post_init__(self):
            built.append(self.dim)
            super().__post_init__()

    # a leaf is built in serialization, a mixture in channels.convex_combination
    monkeypatch.setattr(serialization, "KrausChannel", Counting)
    monkeypatch.setattr(channels, "KrausChannel", Counting)
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
@pytest.mark.parametrize(
    "text",
    [b'{"dim": 2, \xff\xfe}', b"[" * 100_000, b'{"dim": ' + b"1" * 5000 + b"}"],
    ids=["non-utf8", "deep nesting", "5000-digit integer"],
)
def test_parsers_reject_undecodable_text(parser, text):
    with pytest.raises(q.SpecParseError, match="malformed JSON"):
        parser(text)


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
# (schema, document, how the message begins after "<schema> document violates schema: ")
_INVALID_DOCUMENTS = [
    ("channel_spec", {"schema_version": 1, "dim": 2, "name": "x"}, "$ must have the field 'kind'"),
    ("channel_spec", {"schema_version": 2, "kind": "kraus", "dim": 2, "name": "x", "kraus": [_IDENTITY_2]},
     "$.schema_version must be 1, got 2"),
    ("channel_spec", {"schema_version": 1, "kind": "kraus", "dim": 0, "name": "x", "kraus": [_IDENTITY_2]},
     "$.dim must be an integer in [1, 64], got 0"),
    ("channel_spec", {"schema_version": 1, "kind": "unitary", "dim": 2, "name": "x"}, "$ must have the field 'unitary'"),
    ("channel_spec", {"schema_version": 1, "kind": "kraus", "dim": 2, "name": "x", "kraus": [[[[1, 0, 0]]]]},
     "$.kraus[0][0][0] must be an [re, im] pair, got [1, 0, 0]"),
    ("channel_spec", {"schema_version": 1, "kind": "convex_combination", "dim": 2, "name": "x",
                      "weights": [1.0], "parts": [{"kind": "unitary"}]}, "$.parts[0] must have the field 'schema_version'"),
    ("observable_family", {"schema_version": 1, "dim": 2, "n_params": -1, "basis": []},
     "$.n_params must be an integer >= 0, got -1"),
    ("observable_family", {"schema_version": 1, "dim": 2, "basis": []}, "$ must have the field 'n_params'"),
    ("observable_family", {"schema_version": 1, "dim": 2, "n_params": 1, "basis": [[[["1", 0]]]]},
     "$.basis[0][0][0][0] must be a finite number, got \"1\""),
    ("observable_family", [1, 2], "$ must be an object, got [1, 2]"),
]

_DELETE = object()
_UNITARY = {"schema_version": 1, "kind": "unitary", "dim": 2, "name": "x", "unitary": _IDENTITY_2}
_VALID_DOCUMENTS = {
    "kraus": ("channel_spec", {"schema_version": 1, "kind": "kraus", "dim": 2, "name": "x", "kraus": [_IDENTITY_2]}),
    "unitary": ("channel_spec", _UNITARY),
    "random_unitary": ("channel_spec", {"schema_version": 1, "kind": "random_unitary", "dim": 2, "name": "x",
                                        "unitaries": [_IDENTITY_2, _IDENTITY_2], "probabilities": [0.5, 0.5]}),
    "convex_combination": ("channel_spec", {"schema_version": 1, "kind": "convex_combination", "dim": 2, "name": "x",
                                            "weights": [0.5, 0.5], "parts": [_UNITARY, _UNITARY]}),
    "family": ("observable_family", family_to_document(q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)]))),
}
# rebuilt without shared sub-objects, so that a mutation changes one place
_VALID_DOCUMENTS = {base: (name, json.loads(json.dumps(doc))) for base, (name, doc) in _VALID_DOCUMENTS.items()}


def _replaced(doc, path: tuple, value):
    """A copy of ``doc`` with the value at ``path`` replaced by a copy of ``value``, or deleted for ``_DELETE``."""
    if not path:
        return {} if value is _DELETE else copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = copy.deepcopy(value)
    return doc


def _mutated(base: str, path: tuple, value) -> tuple[str, object]:
    schema_name, doc = _VALID_DOCUMENTS[base]
    return schema_name, _replaced(doc, path, value)


# one mutation per keyword occurrence in channel_spec.schema.json and observable_family.schema.json
_KEYWORD_MUTATIONS = {
    "spec type": (_mutated("kraus", (), "kraus"), "$ must be an object"),
    "spec required schema_version": (_mutated("kraus", ("schema_version",), _DELETE), "$ must have the field 'schema_version'"),
    "spec required kind": (_mutated("kraus", ("kind",), _DELETE), "$ must have the field 'kind'"),
    "spec required dim": (_mutated("kraus", ("dim",), _DELETE), "$ must have the field 'dim'"),
    "spec required name": (_mutated("kraus", ("name",), _DELETE), "$ must have the field 'name'"),
    "schema_version const": (_mutated("kraus", ("schema_version",), True), "$.schema_version must be 1, got true"),
    "kind enum": (_mutated("kraus", ("kind",), "depolarizing"), "$.kind must be one of kraus, unitary"),
    "dim type": (_mutated("kraus", ("dim",), "2"), "$.dim must be an integer in [1, 64]"),
    "dim minimum": (_mutated("kraus", ("dim",), 0), "$.dim must be an integer in [1, 64]"),
    "dim maximum": (_mutated("kraus", ("dim",), 65), "$.dim must be an integer in [1, 64], got 65"),
    "name type": (_mutated("kraus", ("name",), 7), "$.name must be a string, got 7"),
    "kraus $ref": (_mutated("kraus", ("kraus",), {}), "$.kraus must be a non-empty array, got {}"),
    "unitary $ref": (_mutated("unitary", ("unitary",), "I"), "$.unitary must be a non-empty array"),
    "unitaries $ref": (_mutated("random_unitary", ("unitaries",), [[]]), "$.unitaries[0] must be a non-empty array"),
    "probabilities type": (_mutated("random_unitary", ("probabilities",), "uniform"), "$.probabilities must be"),
    "probabilities minItems": (_mutated("random_unitary", ("probabilities",), []), "$.probabilities must be a non-empty"),
    "probabilities items": (_mutated("random_unitary", ("probabilities", 1), "0.5"), "$.probabilities[1] must be a finite"),
    "weights type": (_mutated("convex_combination", ("weights",), 1.0), "$.weights must be a non-empty array, got 1.0"),
    "weights minItems": (_mutated("convex_combination", ("weights",), []), "$.weights must be a non-empty array"),
    "weights items": (_mutated("convex_combination", ("weights", 0), None), "$.weights[0] must be a finite number, got null"),
    "parts type": (_mutated("convex_combination", ("parts",), {}), "$.parts must be a non-empty array"),
    "parts minItems": (_mutated("convex_combination", ("parts",), []), "$.parts must be a non-empty array"),
    "parts $ref #": (_mutated("convex_combination", ("parts", 1, "dim"), 65), "$.parts[1].dim must be an integer"),
    "kraus then required": (_mutated("kraus", ("kraus",), _DELETE), "$ must have the field 'kraus'"),
    "unitary then required": (_mutated("unitary", ("unitary",), _DELETE), "$ must have the field 'unitary'"),
    "random_unitary then required": (_mutated("random_unitary", ("unitaries",), _DELETE), "$ must have the field 'unitaries'"),
    "convex_combination then required weights": (_mutated("convex_combination", ("weights",), _DELETE),
                                                 "$ must have the field 'weights'"),
    "convex_combination then required parts": (_mutated("convex_combination", ("parts",), _DELETE),
                                               "$ must have the field 'parts'"),
    "payload of another kind": (_mutated("unitary", ("weights",), ["x"]), "$.weights[0] must be a finite number"),
    "complex type": (_mutated("kraus", ("kraus", 0, 0, 0), "1"), "$.kraus[0][0][0] must be an [re, im] pair"),
    "complex prefixItems re": (_mutated("kraus", ("kraus", 0, 0, 0, 0), "1"), "$.kraus[0][0][0][0] must be a finite"),
    "complex prefixItems im": (_mutated("kraus", ("kraus", 0, 1, 1, 1), False), "$.kraus[0][1][1][1] must be a finite"),
    "complex minItems": (_mutated("kraus", ("kraus", 0, 0, 0), [1]), "$.kraus[0][0][0] must be an [re, im] pair"),
    "complex maxItems": (_mutated("unitary", ("unitary", 1, 0), [0, 0, 0]), "$.unitary[1][0] must be an [re, im] pair"),
    "matrix type": (_mutated("kraus", ("kraus", 0), 1), "$.kraus[0] must be a non-empty array, got 1"),
    "matrix minItems": (_mutated("kraus", ("kraus", 0), []), "$.kraus[0] must be a non-empty array, got []"),
    "row type": (_mutated("kraus", ("kraus", 0, 1), 5), "$.kraus[0][1] must be an array of 2 [re, im] pairs, got 5"),
    "row minItems": (_mutated("kraus", ("kraus", 0, 0), []), "$.kraus[0][0] must be a non-empty array, got []"),
    "row items $ref": (_mutated("kraus", ("kraus", 0, 0, 1), {}), "$.kraus[0][0][1] must be an [re, im] pair, got {}"),
    "matrix_list type": (_mutated("random_unitary", ("unitaries",), 1), "$.unitaries must be a non-empty array, got 1"),
    "matrix_list minItems": (_mutated("kraus", ("kraus",), []), "$.kraus must be a non-empty array, got []"),
    "matrix_list items": (_mutated("random_unitary", ("unitaries", 1), [5]), "$.unitaries[1][0] must be a non-empty"),
    "family type": (_mutated("family", (), "family"), "$ must be an object"),
    "family required schema_version": (_mutated("family", ("schema_version",), _DELETE), "$ must have the field 'schema_version'"),
    "family required dim": (_mutated("family", ("dim",), _DELETE), "$ must have the field 'dim'"),
    "family required n_params": (_mutated("family", ("n_params",), _DELETE), "$ must have the field 'n_params'"),
    "family required basis": (_mutated("family", ("basis",), _DELETE), "$ must have the field 'basis'"),
    "family schema_version const": (_mutated("family", ("schema_version",), 0), "$.schema_version must be 1, got 0"),
    "family dim type": (_mutated("family", ("dim",), None), "$.dim must be an integer in [1, 64], got null"),
    "family dim minimum": (_mutated("family", ("dim",), 0), "$.dim must be an integer in [1, 64], got 0"),
    "family dim maximum": (_mutated("family", ("dim",), 65), "$.dim must be an integer in [1, 64], got 65"),
    "n_params type": (_mutated("family", ("n_params",), "1"), "$.n_params must be an integer >= 0"),
    "n_params minimum": (_mutated("family", ("n_params",), -1), "$.n_params must be an integer >= 0, got -1"),
    "basis type": (_mutated("family", ("basis",), {}), "$.basis must be an array, got {}"),
    "basis matrix type": (_mutated("family", ("basis", 0), 3), "$.basis[0] must be a non-empty array, got 3"),
    "basis matrix minItems": (_mutated("family", ("basis", 0), []), "$.basis[0] must be a non-empty array"),
    "basis row type": (_mutated("family", ("basis", 0, 0), 1), "$.basis[0][0] must be a non-empty array, got 1"),
    "basis row minItems": (_mutated("family", ("basis", 0, 1), []), "$.basis[0][1] must be an array of 2"),
    "basis complex type": (_mutated("family", ("basis", 0, 0, 0), 1.0), "$.basis[0][0][0] must be an [re, im] pair"),
    "basis complex prefixItems re": (_mutated("family", ("basis", 0, 0, 0, 0), True), "$.basis[0][0][0][0] must be a"),
    "basis complex prefixItems im": (_mutated("family", ("basis", 0, 0, 0, 1), "0"), "$.basis[0][0][0][1] must be a"),
    "basis complex minItems": (_mutated("family", ("basis", 0, 0, 0), [0]), "$.basis[0][0][0] must be an [re, im] pair"),
    "basis complex maxItems": (_mutated("family", ("basis", 0, 1, 1), [0, 0, 0]), "$.basis[0][1][1] must be an [re, im]"),
}

_PARITY_CORPUS = [pytest.param(*case, id=f"invalid-{k}") for k, case in enumerate(_INVALID_DOCUMENTS)] + [
    pytest.param(schema_name, doc, where, id=label)
    for label, ((schema_name, doc), where) in _KEYWORD_MUTATIONS.items()
]

_PARSERS = {"channel_spec": parse_channel_spec, "observable_family": parse_family}


def _oracle_accepts(schema_name: str, doc) -> bool:
    return jsonschema.Draft202012Validator(load_schema(schema_name)).is_valid(doc)


@pytest.mark.parametrize("schema_name, doc, where", _PARITY_CORPUS)
def test_parsers_reject_what_the_schema_rejects(schema_name, doc, where):
    assert not _oracle_accepts(schema_name, doc)
    with pytest.raises(q.SpecParseError) as err:
        _PARSERS[schema_name](json.dumps(doc))
    assert str(err.value).startswith(f"{schema_name} document violates schema: {where}")


def _stricter_than_schema(value) -> bool:
    """Whether ``value`` holds what the parsers reject though the schema admits it: a NaN or
    infinite number, an integer-valued float ``dim`` or ``n_params``, or a matrix (an array of
    arrays of [re, im] pairs) whose rows differ in length, which the parsers rejected before too."""
    if isinstance(value, float):
        return not np.isfinite(value)
    if isinstance(value, dict):
        return any(isinstance(value.get(key), float) for key in ("dim", "n_params")) or any(
            _stricter_than_schema(v) for v in value.values())
    if not isinstance(value, list):
        return False
    matrix = value and all(
        isinstance(row, list) and row and all(
            isinstance(z, list) and len(z) == 2 and not any(isinstance(x, list) for x in z) for z in row)
        for row in value)
    return bool(matrix and len({len(row) for row in value}) > 1) or any(_stricter_than_schema(v) for v in value)


def _locations(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _locations(child, (*path, key))


_REPLACEMENTS = [None, True, 0, 1, 2, -1, 65, 1.0, 2.0, 0.5, float("nan"), float("inf"), "x",
                 "unitary", "random_unitary", "convex_combination", [], {}, [0.5], [1, 0], [[[1, 0]]]]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parsers_agree_with_the_schema_on_mutated_documents(data):
    base = data.draw(st.sampled_from(sorted(_VALID_DOCUMENTS)))
    schema_name, doc = _VALID_DOCUMENTS[base]
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_locations(doc))))
        doc = _replaced(doc, path, data.draw(st.sampled_from([_DELETE, *_REPLACEMENTS])))
    try:
        _PARSERS[schema_name](json.dumps(doc))
        error = None
    except q.SpecParseError as exc:
        error = str(exc)
    if not _oracle_accepts(schema_name, doc):
        assert error is not None
    elif not _stricter_than_schema(doc):
        # a document of the schema's form fails, if at all, on what the channel or family means
        assert error is None or "violates schema" not in error, error
