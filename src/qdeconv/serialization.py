"""JSON codecs for channels, observable families, reports and results.

Complex numbers serialize as two-element ``[re, im]`` arrays and matrices as
row-major nested arrays, so fixtures stay diff-friendly and bit-exact.  All
documents carry a ``schema_version`` field.  The JSON schemas shipped in
``qdeconv/schemas`` document the formats; the parsers check the structure of
what they read themselves, and each departure is a :class:`SpecParseError`
that names its JSON path.
"""

from __future__ import annotations

import copy
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, NoReturn, Sequence

import numpy as np

from .channels import DEFAULT_TOL, MAX_DIM, KrausChannel, convex_combination, is_cptp, is_unitary
from .deconvolution import DeconvReport, ObservableFamily
from .errors import CptpViolationError, InvalidProbabilityError, SpecParseError

SCHEMA_VERSION = 1

SCHEMA_NAMES = ("channel_spec", "observable_family", "deconv_report", "scenario_result")


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by short name."""
    if name not in SCHEMA_NAMES:
        raise ValueError(f"unknown schema {name!r}, expected one of {SCHEMA_NAMES}")
    text = resources.files("qdeconv.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def _load_json(text: str | bytes) -> Any:
    """Decode UTF-8 bytes and parse JSON; either failure is a :class:`SpecParseError`."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    # decoding errors, integers past the digit limit and too deep nesting alike
    except (ValueError, RecursionError) as exc:
        raise SpecParseError(f"malformed JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Structural checks: each names the JSON path and the form it expected
# ---------------------------------------------------------------------------

def _fail(path: str, form: str, value: Any) -> NoReturn:
    shown = json.dumps(value)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    if isinstance(value, float) and not math.isfinite(value):
        shown = f"non-finite {shown}"
    raise SpecParseError(f"{path} must be {form}, got {shown}")


@contextmanager
def _violations(prefix: str):
    """Prefix the message of a :class:`SpecParseError` raised by a structural check."""
    try:
        yield
    except SpecParseError as exc:
        raise SpecParseError(f"{prefix}: {exc}") from None


def _object(value: Any, path: str, required: Sequence[str]) -> dict:
    if type(value) is not dict:
        _fail(path, "an object", value)
    for key in required:
        if key not in value:
            raise SpecParseError(f"{path} must have the field {key!r}")
    return value


def _array(value: Any, path: str, min_items: int = 1) -> list:
    if type(value) is not list or len(value) < min_items:
        _fail(path, "a non-empty array" if min_items else "an array", value)
    return value


def _integer(value: Any, path: str, low: int, high: int | None = None) -> int:
    """``value`` if it is an int, not a bool, in range; an integer-valued float such as ``2.0`` is not."""
    if type(value) is not int or value < low or (high is not None and value > high):
        _fail(path, f"an integer >= {low}" if high is None else f"an integer in [{low}, {high}]", value)
    return value


def _number(value: Any, path: str) -> None:
    """Check that ``value`` is an int or float, not a bool, that is finite as a float."""
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        _fail(path, "a finite number", value)


def _each(check):
    """The check of a non-empty array whose every item passes ``check``."""
    def check_items(value: Any, path: str) -> None:
        for k, item in enumerate(_array(value, path)):
            check(item, f"{path}[{k}]")
    return check_items


def _header(doc: Any, path: str, required: Sequence[str]) -> None:
    """Check that ``doc`` is an object with the ``required`` fields, version 1 and a ``dim`` in [1, MAX_DIM]."""
    _object(doc, path, required)
    version = doc["schema_version"]
    if type(version) is bool or version != SCHEMA_VERSION:
        _fail(f"{path}.schema_version", str(SCHEMA_VERSION), version)
    _integer(doc["dim"], f"{path}.dim", 1, MAX_DIM)


# ---------------------------------------------------------------------------
# Complex/matrix codecs
# ---------------------------------------------------------------------------

def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(M: np.ndarray) -> list[list[list[float]]]:
    M = np.asarray(M, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in M]


def matrix_from_json(data: Any, name: str = "matrix") -> np.ndarray:
    """The complex matrix of a non-empty array of equal-length, non-empty rows of
    ``[re, im]`` pairs of finite numbers (not bools).  Anything else is a
    :class:`SpecParseError` that names the entry as ``name`` and its indices."""
    rows = _array(data, name)
    width = len(_array(rows[0], f"{name}[0]"))
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != width:
            _fail(f"{name}[{i}]", f"an array of {width} [re, im] pairs", row)
        for j, z in enumerate(row):
            if type(z) is not list or len(z) != 2:
                _fail(f"{name}[{i}][{j}]", "an [re, im] pair", z)
            for k, x in enumerate(z):
                _number(x, f"{name}[{i}][{j}][{k}]")
    # the pairs' floats laid out as complex numbers: bit-exact, as complex(re, im) is
    return np.array(rows, dtype=float).view(complex)[..., 0]


# ---------------------------------------------------------------------------
# Channel specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, eq=False)
class ChannelSpec:
    """A channel-spec document together with the Kraus channel it resolves to.

    ``document["kind"]`` selects the payload: ``kraus`` operators, one ``unitary``,
    ``unitaries`` with optional ``probabilities`` (uniform when omitted), or
    ``weights`` over sub-channel ``parts``.  The spec keeps its own copy of the
    document and hands out copies, so the document cannot drift from ``channel``.
    """

    _document: dict
    channel: KrausChannel

    def __init__(self, document: dict, channel: KrausChannel) -> None:
        object.__setattr__(self, "_document", copy.deepcopy(document))
        object.__setattr__(self, "channel", channel)

    @property
    def document(self) -> dict:
        """A copy of the document; changing it leaves the spec unchanged."""
        return copy.deepcopy(self._document)

    @property
    def kind(self) -> str:
        return self._document["kind"]

    @property
    def dim(self) -> int:
        return self._document["dim"]

    @property
    def name(self) -> str:
        return self._document["name"]

    def to_kraus_channel(self) -> KrausChannel:
        """The Kraus channel the document resolves to."""
        return self.channel


#: The payload fields each kind requires.
_KIND_PAYLOAD = {
    "kraus": ("kraus",),
    "unitary": ("unitary",),
    "random_unitary": ("unitaries",),
    "convex_combination": ("weights", "parts"),
}


#: Deepest admitted nesting of ``convex_combination`` parts; the top-level spec is level 0.
MAX_SPEC_DEPTH = 32


def _check_spec(doc: Any, path: str) -> None:
    """Raise :class:`SpecParseError`, naming the JSON path, unless ``doc`` has the
    form ``channel_spec.schema.json`` describes with an ``int`` dim and finite
    numbers, and nests parts at most :data:`MAX_SPEC_DEPTH` levels deep."""
    # a spec's path is "$" and one ".parts[k]" per level
    if path.count(".parts[") > MAX_SPEC_DEPTH:
        raise SpecParseError(f"{path} nests parts deeper than {MAX_SPEC_DEPTH} levels")
    _header(doc, path, ("schema_version", "kind", "dim", "name"))
    kind = doc["kind"]
    if type(kind) is not str or kind not in _KIND_PAYLOAD:
        _fail(f"{path}.kind", "one of " + ", ".join(_KIND_PAYLOAD), kind)
    if type(doc["name"]) is not str:
        _fail(f"{path}.name", "a string", doc["name"])
    _object(doc, path, _KIND_PAYLOAD[kind])
    for key, check in _PAYLOAD_FORM.items():
        if key in doc:
            check(doc[key], f"{path}.{key}")


#: The form of each payload field, checked whenever the field is present, whatever the kind.
_PAYLOAD_FORM = {
    "kraus": _each(matrix_from_json),
    "unitary": matrix_from_json,
    "unitaries": _each(matrix_from_json),
    "probabilities": _each(_number),
    "weights": _each(_number),
    "parts": _each(_check_spec),
}


def _resolve(doc: dict) -> KrausChannel:
    """The CPTP Kraus channel a structurally checked channel-spec document describes:
    the one place that reads each ``kind``.  Both mixing kinds resolve through
    :func:`convex_combination`; the recursive call resolves and checks each part once."""
    kind, dim, name = doc["kind"], doc["dim"], doc["name"]
    try:
        if kind == "kraus":
            channel = KrausChannel(dim=dim, kraus=tuple(matrix_from_json(m, "Kraus operator") for m in doc["kraus"]))
        elif kind == "unitary":
            channel = KrausChannel(dim=dim, kraus=(matrix_from_json(doc["unitary"], "unitary"),))
        elif kind == "random_unitary":
            members = [matrix_from_json(m, "unitary") for m in doc["unitaries"]]
            for k, U in enumerate(members):
                # a wrong shape is left to the Kraus shape check of its part
                if U.shape == (dim, dim) and not is_unitary(U, DEFAULT_TOL):
                    raise SpecParseError(f"member {k} of {name!r} is not unitary within {DEFAULT_TOL:g}")
            n = len(members)
            parts = [KrausChannel(dim=dim, kraus=(U,)) for U in members]
            channel = convex_combination(doc.get("probabilities", [1.0 / n] * n), parts)
        else:  # convex_combination, the last kind _check_spec admits
            parts = [_resolve(part) for part in doc["parts"]]
            for part, part_doc in zip(parts, doc["parts"]):
                if part.dim != dim:
                    raise SpecParseError(f"part {part_doc['name']!r} has dim {part.dim}, combination declares {dim}")
            channel = convex_combination(doc["weights"], parts)
    except (ValueError, InvalidProbabilityError) as exc:
        raise SpecParseError(str(exc)) from exc
    if not is_cptp(channel):
        raise CptpViolationError(
            f"channel {name!r} is not CPTP: trace-preservation residual "
            f"{channel.trace_preservation_residual():.3e}"
        )
    return channel


def parse_channel_spec(text: str | bytes) -> ChannelSpec:
    """Parse and validate a channel-spec JSON document.

    Raises
    ------
    SpecParseError
        For malformed JSON, a document whose structure departs from the
        channel-spec schema (the message names the JSON path), and counts,
        weights, shapes or members the channel cannot have.
    CptpViolationError
        When the payload resolves to a channel that is not trace preserving
        within ``DEFAULT_TOL``; the message names the trace-preservation
        residual only.  A Kraus form is completely positive by construction,
        so there is no positivity floor to check or report.
    """
    doc = _load_json(text)
    with _violations("channel_spec document violates schema"):
        _check_spec(doc, "$")
    return ChannelSpec(doc, _resolve(doc))


def emit_channel_spec(spec: ChannelSpec) -> str:
    return json.dumps(spec._document, indent=2)


def kraus_spec(name: str, kraus: Sequence[np.ndarray]) -> ChannelSpec:
    """Wrap explicit Kraus operators as a spec (no CPTP check)."""
    ch = KrausChannel.from_operators(kraus)
    payload = [matrix_to_json(A) for A in ch.kraus]
    doc = {"schema_version": SCHEMA_VERSION, "kind": "kraus", "dim": ch.dim, "name": name, "kraus": payload}
    return ChannelSpec(doc, ch)


def unitary_spec(name: str, U: np.ndarray) -> ChannelSpec:
    """Wrap one unitary conjugation as a spec (no CPTP check)."""
    ch = KrausChannel.from_operators([U])
    payload = matrix_to_json(ch.kraus[0])
    doc = {"schema_version": SCHEMA_VERSION, "kind": "unitary", "dim": ch.dim, "name": name, "unitary": payload}
    return ChannelSpec(doc, ch)


# ---------------------------------------------------------------------------
# Observable families, reports, matrices
# ---------------------------------------------------------------------------

def family_to_document(fam: ObservableFamily) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": fam.dim,
        "n_params": fam.n_params,
        "basis": [matrix_to_json(A) for A in fam.basis],
    }


def emit_family(fam: ObservableFamily) -> str:
    return json.dumps(family_to_document(fam), indent=2)


def parse_family(text: str | bytes) -> ObservableFamily:
    doc = _load_json(text)
    with _violations("observable_family document violates schema"):
        _header(doc, "$", ("schema_version", "dim", "n_params", "basis"))
        _integer(doc["n_params"], "$.n_params", 0)
        basis = [matrix_from_json(m, f"$.basis[{k}]") for k, m in enumerate(_array(doc["basis"], "$.basis", 0))]
    if doc["n_params"] != len(basis):
        raise SpecParseError(f"n_params {doc['n_params']} does not match basis size {len(basis)}")
    try:
        return ObservableFamily.from_basis(doc["dim"], basis)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def report_to_document(report: DeconvReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "ideal": report.ideal,
        "experimental": report.experimental,
        "deconvolved": report.deconvolved,
        "delta_exp": report.delta_exp,
        "delta_nd": report.delta_nd,
        "improved": report.improved,
        "tie": report.tie,
    }


def parse_hermitian_matrix(text: str | bytes, name: str = "matrix") -> np.ndarray:
    """Parse a ``{"dim": d, "matrix": ...}`` document (``dim`` optional) into a finite
    complex array, Hermitian within ``DEFAULT_TOL`` (Frobenius), and return its
    Hermitian part (the array itself when it is exactly Hermitian); anything else
    is a :class:`SpecParseError`."""
    doc = _load_json(text)
    with _violations(f"{name} document is malformed"):
        M = matrix_from_json(_object(doc, "$", ("matrix",))["matrix"], "$.matrix")
        dim = _integer(doc["dim"], "$.dim", 1, MAX_DIM) if "dim" in doc else M.shape[0]
    if M.shape != (dim, dim):
        raise SpecParseError(f"{name} shape {M.shape} does not match declared dim {dim}")
    skew = M - M.conj().T
    residual = np.linalg.norm(skew)
    if residual > DEFAULT_TOL:
        raise SpecParseError(f"{name} is not Hermitian: residual {residual:.3e} > {DEFAULT_TOL:g}")
    # not 0.5 * (M + M^H), which can overflow near the largest float
    return M - 0.5 * skew


def emit_hermitian_matrix(M: np.ndarray) -> str:
    M = np.asarray(M, dtype=complex)
    return json.dumps({"dim": M.shape[0], "matrix": matrix_to_json(M)}, indent=2)
