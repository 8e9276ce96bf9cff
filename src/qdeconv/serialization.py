"""JSON codecs for channels, observable families, reports and results.

Complex numbers serialize as two-element ``[re, im]`` arrays and matrices as
row-major nested arrays, so fixtures stay diff-friendly and bit-exact.  All
documents carry a ``schema_version`` field and validate against the JSON
schemas shipped in ``qdeconv/schemas``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, Optional, Sequence

import jsonschema
import numpy as np

from .channels import DEFAULT_TOL, KrausChannel, is_cptp, validate_probabilities
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

@dataclass(frozen=True)
class ChannelSpec:
    """Declarative channel description, resolvable to a Kraus channel.

    ``kind`` selects the payload: explicit ``kraus`` operators, a single
    ``unitary``, ``unitaries`` with optional ``probabilities`` (uniform when
    omitted), or ``weights`` plus ``parts`` for a convex combination of
    sub-channels.
    """

    kind: str
    dim: int
    name: str
    kraus: Optional[tuple[np.ndarray, ...]] = None
    unitary: Optional[np.ndarray] = None
    unitaries: Optional[tuple[np.ndarray, ...]] = None
    probabilities: Optional[tuple[float, ...]] = None
    weights: Optional[tuple[float, ...]] = None
    parts: Optional[tuple["ChannelSpec", ...]] = None

    def to_kraus_channel(self) -> KrausChannel:
        """Resolve this description into a concrete Kraus channel."""
        if self.kind == "kraus":
            return KrausChannel(dim=self.dim, kraus=tuple(self.kraus))
        if self.kind == "unitary":
            return KrausChannel(dim=self.dim, kraus=(np.asarray(self.unitary),))
        if self.kind == "random_unitary":
            n = len(self.unitaries)
            probs = self.probabilities if self.probabilities is not None else tuple([1.0 / n] * n)
            ops = tuple(np.sqrt(p) * np.asarray(U) for p, U in zip(probs, self.unitaries))
            return KrausChannel(dim=self.dim, kraus=ops)
        if self.kind == "convex_combination":
            ops: list[np.ndarray] = []
            for w, part in zip(self.weights, self.parts):
                sub = part.to_kraus_channel()
                ops.extend(np.sqrt(w) * A for A in sub.kraus)
            return KrausChannel(dim=self.dim, kraus=tuple(ops))
        raise SpecParseError(f"unknown channel kind {self.kind!r}")


def _spec_from_document(doc: dict) -> ChannelSpec:
    kind = doc["kind"]
    dim = doc["dim"]
    name = doc.get("name", "")
    kwargs: dict[str, Any] = {}
    if kind == "kraus":
        kwargs["kraus"] = tuple(matrix_from_json(m, "Kraus operator") for m in doc["kraus"])
    elif kind == "unitary":
        kwargs["unitary"] = matrix_from_json(doc["unitary"], "unitary")
    elif kind == "random_unitary":
        kwargs["unitaries"] = tuple(matrix_from_json(m, "unitary") for m in doc["unitaries"])
        if "probabilities" in doc:
            probs = tuple(float(p) for p in doc["probabilities"])
            if len(probs) != len(kwargs["unitaries"]):
                raise SpecParseError(
                    f"{len(probs)} probabilities for {len(kwargs['unitaries'])} unitaries"
                )
            try:
                validate_probabilities(probs)
            except InvalidProbabilityError as exc:
                raise SpecParseError(str(exc)) from exc
            kwargs["probabilities"] = probs
    elif kind == "convex_combination":
        weights = tuple(float(w) for w in doc["weights"])
        parts = tuple(_spec_from_document(p) for p in doc["parts"])
        if len(weights) != len(parts):
            raise SpecParseError(f"{len(weights)} weights for {len(parts)} parts")
        try:
            validate_probabilities(weights)
        except InvalidProbabilityError as exc:
            raise SpecParseError(f"mixing weights invalid: {exc}") from exc
        for part in parts:
            if part.dim != dim:
                raise SpecParseError(
                    f"part {part.name!r} has dim {part.dim}, combination declares {dim}"
                )
        kwargs["weights"] = weights
        kwargs["parts"] = parts
    spec = ChannelSpec(kind=kind, dim=dim, name=name, **kwargs)

    # shape sanity before the CPTP check so errors stay precise
    try:
        channel = spec.to_kraus_channel()
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc
    report = is_cptp(channel, DEFAULT_TOL)
    if not (report.trace_preserving and report.completely_positive):
        raise CptpViolationError(
            f"channel {name!r} is not CPTP: trace-preservation residual "
            f"{report.tp_residual:.3e}, Choi eigenvalue floor {report.choi_min_eigenvalue:.3e}"
        )
    return spec


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
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"malformed JSON: {exc}") from exc
    _validate(doc, "channel_spec")
    return _spec_from_document(doc)


def channel_spec_to_document(spec: ChannelSpec) -> dict:
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": spec.kind,
        "dim": spec.dim,
        "name": spec.name,
    }
    if spec.kind == "kraus":
        doc["kraus"] = [matrix_to_json(A) for A in spec.kraus]
    elif spec.kind == "unitary":
        doc["unitary"] = matrix_to_json(spec.unitary)
    elif spec.kind == "random_unitary":
        doc["unitaries"] = [matrix_to_json(U) for U in spec.unitaries]
        if spec.probabilities is not None:
            doc["probabilities"] = list(spec.probabilities)
    elif spec.kind == "convex_combination":
        doc["weights"] = list(spec.weights)
        doc["parts"] = [channel_spec_to_document(p) for p in spec.parts]
    return doc


def emit_channel_spec(spec: ChannelSpec) -> str:
    return json.dumps(channel_spec_to_document(spec), indent=2)


def kraus_spec(name: str, kraus: Sequence[np.ndarray]) -> ChannelSpec:
    """Wrap explicit Kraus operators as a spec."""
    ops = tuple(np.asarray(A, dtype=complex) for A in kraus)
    return ChannelSpec(kind="kraus", dim=ops[0].shape[0], name=name, kraus=ops)


def unitary_spec(name: str, U: np.ndarray) -> ChannelSpec:
    return ChannelSpec(kind="unitary", dim=np.asarray(U).shape[0], name=name, unitary=np.asarray(U, dtype=complex))


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
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"malformed JSON: {exc}") from exc
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
    """Parse a ``{"dim": d, "matrix": ...}`` document into a complex array."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SpecParseError(f"{name} document needs a 'matrix' field")
    M = matrix_from_json(doc["matrix"], name)
    dim = doc.get("dim", M.shape[0])
    if M.shape != (dim, dim):
        raise SpecParseError(f"{name} shape {M.shape} does not match declared dim {dim}")
    return M


def emit_hermitian_matrix(M: np.ndarray) -> str:
    M = np.asarray(M, dtype=complex)
    return json.dumps({"dim": M.shape[0], "matrix": matrix_to_json(M)}, indent=2)
