"""JSON codecs for channels, observable families, reports and results.

Complex numbers serialize as two-element ``[re, im]`` arrays and matrices as
row-major nested arrays, so fixtures stay diff-friendly and bit-exact.  All
documents carry a ``schema_version`` field and validate against the JSON
schemas shipped in ``qdeconv/schemas``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, Sequence

import jsonschema
import numpy as np

from .channels import DEFAULT_TOL, KrausChannel, is_cptp, is_unitary, validate_probabilities
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


@lru_cache(maxsize=None)
def _validator(schema_name: str) -> jsonschema.protocols.Validator:
    """Validator of a shipped schema, checked against its metaschema once per process."""
    schema = load_schema(schema_name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _load_json(text: str | bytes) -> Any:
    """Decode UTF-8 bytes and parse JSON; either failure is a :class:`SpecParseError`."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecParseError(f"malformed JSON: {exc}") from exc


def _validate(document: Any, schema_name: str) -> None:
    # the error jsonschema.validate would raise, without its per-call schema check
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(document))
    if error is not None:
        raise SpecParseError(f"{schema_name} document violates schema: {error.message}") from error


# ---------------------------------------------------------------------------
# Complex/matrix codecs
# ---------------------------------------------------------------------------

def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(M: np.ndarray) -> list[list[list[float]]]:
    M = np.asarray(M, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in M]


def matrix_from_json(data: Any, name: str = "matrix") -> np.ndarray:
    try:
        M = np.asarray(
            [[complex(entry[0], entry[1]) for entry in row] for row in data],
            dtype=complex,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise SpecParseError(f"{name} is not a nested array of [re, im] pairs") from exc
    if M.ndim != 2:
        raise SpecParseError(f"{name} rows have inconsistent lengths")
    return M


# ---------------------------------------------------------------------------
# Channel specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
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


def _resolve(doc: dict) -> KrausChannel:
    """The CPTP Kraus channel a schema-valid channel-spec document describes: the one
    place that reads each ``kind``.  The recursive call resolves and checks each part once."""
    kind, dim, name = doc["kind"], doc["dim"], doc["name"]
    if kind == "kraus":
        ops = [matrix_from_json(m, "Kraus operator") for m in doc["kraus"]]
    elif kind == "unitary":
        ops = [matrix_from_json(doc["unitary"], "unitary")]
    else:
        if kind == "random_unitary":
            groups = [(matrix_from_json(m, "unitary"),) for m in doc["unitaries"]]
            for k, (U,) in enumerate(groups):
                # a wrong shape is left to the Kraus shape check below
                if U.shape == (dim, dim) and not is_unitary(U, DEFAULT_TOL):
                    raise SpecParseError(f"member {k} of {name!r} is not unitary within {DEFAULT_TOL:g}")
            n = len(groups)
            weights = [float(p) for p in doc.get("probabilities", [1.0 / n] * n)]
            counts, prefix, parts = f"{len(weights)} probabilities for {n} unitaries", "", ()
        else:  # convex_combination, the last kind the schema admits
            parts = doc["parts"]
            groups = [_resolve(part).kraus for part in parts]
            weights = [float(w) for w in doc["weights"]]
            counts, prefix = f"{len(weights)} weights for {len(groups)} parts", "mixing weights invalid: "
        if len(weights) != len(groups):
            raise SpecParseError(counts)
        try:
            validate_probabilities(weights)
        except InvalidProbabilityError as exc:
            raise SpecParseError(f"{prefix}{exc}") from exc
        for part in parts:
            if part["dim"] != dim:
                raise SpecParseError(
                    f"part {part['name']!r} has dim {part['dim']}, combination declares {dim}"
                )
        ops = [np.sqrt(w) * A for w, group in zip(weights, groups) for A in group]

    # shape sanity before the CPTP check so errors stay precise
    try:
        channel = KrausChannel(dim=dim, kraus=tuple(ops))
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc
    report = is_cptp(channel, DEFAULT_TOL)
    if not (report.trace_preserving and report.completely_positive):
        raise CptpViolationError(
            f"channel {name!r} is not CPTP: trace-preservation residual "
            f"{report.tp_residual:.3e}, Choi eigenvalue floor {report.choi_min_eigenvalue:.3e}"
        )
    return channel


def parse_channel_spec(text: str | bytes) -> ChannelSpec:
    """Parse and validate a channel-spec JSON document.

    Raises
    ------
    SpecParseError
        For malformed JSON or schema violations.
    CptpViolationError
        When the payload resolves to a non-CPTP channel; the message names
        the trace-preservation residual and the Choi eigenvalue floor.
    """
    doc = _load_json(text)
    _validate(doc, "channel_spec")
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
    _validate(doc, "observable_family")
    basis = [matrix_from_json(m, f"basis element {k}") for k, m in enumerate(doc["basis"])]
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
    """Parse a ``{"dim": d, "matrix": ...}`` document into a finite complex array,
    Hermitian within ``DEFAULT_TOL`` (Frobenius); anything else is a :class:`SpecParseError`."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SpecParseError(f"{name} document needs a 'matrix' field")
    M = matrix_from_json(doc["matrix"], name)
    dim = doc.get("dim", M.shape[0])
    if M.shape != (dim, dim):
        raise SpecParseError(f"{name} shape {M.shape} does not match declared dim {dim}")
    if not np.isfinite(M).all():
        raise SpecParseError(f"{name} has non-finite entries")
    residual = np.linalg.norm(M - M.conj().T)
    if residual > DEFAULT_TOL:
        raise SpecParseError(f"{name} is not Hermitian: residual {residual:.3e} > {DEFAULT_TOL:g}")
    return M


def emit_hermitian_matrix(M: np.ndarray) -> str:
    M = np.asarray(M, dtype=complex)
    return json.dumps({"dim": M.shape[0], "matrix": matrix_to_json(M)}, indent=2)
