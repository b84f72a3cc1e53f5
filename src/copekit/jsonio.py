"""JSON wire formats for matrices, models, and certificates.

Rationals serialize as ``"p/q"`` strings so documents survive round trips
bit-exactly; floats serialize as numbers and the document carries its eps.
Emission is canonical (sorted keys, compact separators, trailing newline),
so equal values produce equal bytes.  Every document carries its ``type``
and ``format_version``, and a parser rejects a missing or different value.
Loading a certificate here only parses it; ``certify._check``, the checker
``certify`` runs on every certificate it returns, re-derives it from its
embedded matrix.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .certify import (
    Certificate,
    EnmfModel,
    Evidence,
    ExhaustiveAbsence,
    SpernerSeparation,
    VertexForcing,
    _check,
)
from .backend import Backend, BackendError, floating, format_scalar, parse_scalar, rational
from .cope import CopeMatrix, PreconditionError, cope_matrix, validate
from .models import ModelFactorization, ModelKind
from .polytope import SpanSimplexPolytope, _Derived
from .sperner import SpernerWitness

FORMAT_VERSION = "1"


class ParseError(ValueError):
    """Malformed or invalid document; ``field`` names the offending part."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


def _loads(data: Union[bytes, str]):
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}", field="") from exc
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}", field="") from exc


def _dumps(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _require(doc: dict, field: str):
    if field not in doc:
        raise ParseError(f"missing field {field!r}", field=field)
    return doc[field]


def _require_header(doc: dict, doc_type: str) -> None:
    """Reject a document of another ``type`` or ``format_version``."""
    for field, expected in (("type", doc_type), ("format_version", FORMAT_VERSION)):
        value = _require(doc, field)
        if value != expected:
            raise ParseError(f"{field}: expected {expected!r}, got {value!r}", field=field)


def _array(value, field: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{field} is not an array", field=field)
    return value


def _int(value, field: str, limit: Optional[int] = None) -> int:
    """A JSON integer (not a bool, float, string or null), in range(limit) if given."""
    if type(value) is not int or (limit is not None and not 0 <= value < limit):
        expected = "an integer" if limit is None else f"an index below {limit}"
        raise ParseError(f"{field}: expected {expected}, got {value!r}", field=field)
    return value


def _ints(values, field: str, limit: Optional[int] = None) -> tuple:
    return tuple(_int(x, field, limit) for x in _array(values, field))


def _int_field(doc: dict, field: str) -> int:
    return _int(_require(doc, field), field)


def _backend_of(doc: dict) -> Backend:
    kind = _require(doc, "backend")
    if kind == "rational":
        return rational()
    if kind == "float":
        eps = doc.get("eps", 1e-9)
        if not isinstance(eps, (int, float)) or not (0 < eps < 1):
            raise ParseError(f"bad eps {eps!r}", field="eps")
        return floating(float(eps))
    raise ParseError(f"unknown backend {kind!r}", field="backend")


def _parse_matrix_rows(rows, backend: Backend, field: str):
    out = []
    for i, row in enumerate(_array(rows, field)):
        if not isinstance(row, list):
            raise ParseError(f"{field}[{i}] is not an array", field=field)
        try:
            out.append([parse_scalar(x, backend) for x in row])
        except BackendError as exc:
            raise ParseError(f"{field}[{i}]: {exc}", field=field) from exc
    return out


def _format_rows(rows, backend: Backend) -> list:
    return [[format_scalar(x, backend) for x in row] for row in rows]


def _rational_rows(doc: dict, field: str) -> tuple:
    return tuple(map(tuple, _parse_matrix_rows(_require(doc, field), rational(), field)))


# ---------------------------------------------------------------------------
# COPE documents
# ---------------------------------------------------------------------------


def cope_to_doc(c: CopeMatrix) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "type": "cope",
        "backend": c.backend.kind,
        "preparations": list(c.prep_labels),
        "measurements": [
            {"name": c.measurement_labels[b], "outcomes": list(c.outcome_labels[b])}
            for b in range(c.n_measurements)
        ],
        "blocks": [_format_rows(block, c.backend) for block in c.blocks],
    }
    if not c.backend.is_exact:
        doc["eps"] = c.backend.eps
    return doc


def doc_to_cope(doc) -> CopeMatrix:
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", field="")
    backend = _backend_of(doc)
    preps = _array(_require(doc, "preparations"), "preparations")
    measurements = _array(_require(doc, "measurements"), "measurements")
    blocks_raw = _require(doc, "blocks")
    if not isinstance(blocks_raw, list) or len(blocks_raw) != len(measurements):
        raise ParseError("blocks and measurements must have equal length", field="blocks")
    names = []
    outcome_labels = []
    blocks = []
    for b, (meta, rows) in enumerate(zip(measurements, blocks_raw)):
        if not isinstance(meta, dict):
            raise ParseError(f"measurements[{b}] is not an object", field="measurements")
        names.append(str(_require(meta, "name")))
        outcomes = _array(_require(meta, "outcomes"), "outcomes")
        parsed = _parse_matrix_rows(rows, backend, f"blocks[{b}]")
        if len(parsed) != len(outcomes):
            raise ParseError(
                f"blocks[{b}] has {len(parsed)} rows but {len(outcomes)} outcome labels",
                field=f"blocks[{b}]",
            )
        if any(len(row) != len(preps) for row in parsed):
            raise ParseError(
                f"blocks[{b}] row width does not match preparation count",
                field=f"blocks[{b}]",
            )
        outcome_labels.append([str(x) for x in outcomes])
        blocks.append(parsed)
    _require_header(doc, "cope")
    c = cope_matrix(
        blocks=blocks,
        backend=backend,
        prep_labels=[str(x) for x in preps],
        measurement_labels=names,
        outcome_labels=outcome_labels,
    )
    violations = validate(c)
    if violations:
        v = violations[0]
        field = f"blocks[{v.block}]" if v.block is not None else "blocks"
        raise ParseError(f"invalid matrix: {v.message}", field=field)
    return c


def parse_cope(data: Union[bytes, str]) -> CopeMatrix:
    return doc_to_cope(_loads(data))


def emit_cope(c: CopeMatrix) -> bytes:
    return _dumps(cope_to_doc(c))


# ---------------------------------------------------------------------------
# Model documents
# ---------------------------------------------------------------------------


def model_to_doc(m: ModelFactorization) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "type": "model",
        "backend": m.backend.kind,
        "kind": m.kind.value,
        "inner_dim": m.inner_dim,
        "block_sizes": list(m.block_sizes),
        "effects": _format_rows(m.effects, m.backend),
        "states": _format_rows(m.states, m.backend),
        "unit": [format_scalar(x, m.backend) for x in m.unit],
    }
    if not m.backend.is_exact:
        doc["eps"] = m.backend.eps
    return doc


def doc_to_model(doc) -> ModelFactorization:
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", field="")
    backend = _backend_of(doc)
    kind_raw = _require(doc, "kind")
    try:
        kind = ModelKind(kind_raw)
    except ValueError as exc:
        raise ParseError(f"unknown model kind {kind_raw!r}", field="kind") from exc
    effects = _parse_matrix_rows(_require(doc, "effects"), backend, "effects")
    states = _parse_matrix_rows(_require(doc, "states"), backend, "states")
    try:
        unit = [parse_scalar(x, backend) for x in _array(_require(doc, "unit"), "unit")]
    except BackendError as exc:
        raise ParseError(f"unit: {exc}", field="unit") from exc
    block_sizes = _ints(_require(doc, "block_sizes"), "block_sizes")
    inner_dim = _int_field(doc, "inner_dim")
    _require_header(doc, "model")
    try:  # the model's construction checks its shape, inner_dim included
        return ModelFactorization(
            tuple(map(tuple, effects)), tuple(map(tuple, states)), tuple(unit),
            kind=kind, inner_dim=inner_dim, block_sizes=block_sizes, backend=backend,
        )
    except PreconditionError as exc:
        raise ParseError(str(exc), field=exc.field) from exc


def parse_model(data: Union[bytes, str]) -> ModelFactorization:
    return doc_to_model(_loads(data))


def emit_model(m: ModelFactorization) -> bytes:
    return _dumps(model_to_doc(m))


# ---------------------------------------------------------------------------
# Certificate documents
# ---------------------------------------------------------------------------


def certificate_to_doc(
    cert: Certificate,
    c: CopeMatrix,
    wall_time_ms: Optional[float] = None,
) -> dict:
    evidence = cert.evidence
    if isinstance(evidence, EnmfModel):
        kind = "EnmfModel"
        payload = {"model": model_to_doc(evidence.model)}
    elif isinstance(evidence, VertexForcing):
        kind = "VertexForcing"
        payload = {
            "forced_rank": evidence.forced_rank,
            "ambient_dim": evidence.polytope.ambient_dim,
            "basis": _format_rows(evidence.polytope.basis, rational()),
            "vertices": _format_rows(evidence.polytope.vertices, rational()),
        }
    elif isinstance(evidence, SpernerSeparation):
        kind = "SpernerSeparation"
        payload = {
            "row_indices": list(evidence.witness.row_indices),
            "col_indices": list(evidence.witness.col_indices),
            "m": evidence.witness.m,
            "ontic_dim_lower_bound": evidence.witness.ontic_dim_lower_bound,
            "factor_span_lower_bound": evidence.witness.factor_span_lower_bound,
        }
    elif isinstance(evidence, ExhaustiveAbsence):
        kind = "ExhaustiveAbsence"
        payload = {"log": list(evidence.log)}
    else:
        kind = "None"
        payload = {}
    doc = {
        "format_version": FORMAT_VERSION,
        "type": "certificate",
        "verdict": cert.verdict,
        "evidence_kind": kind,
        "evidence": payload,
        "rank": cert.rank,
        "searched_k_range": list(cert.searched_k_range) if cert.searched_k_range else None,
        "notes": list(cert.notes),
        "cope": cope_to_doc(c),
    }
    if wall_time_ms is not None:
        doc["wall_time_ms"] = wall_time_ms
    return doc


def emit_certificate(
    cert: Certificate, c: CopeMatrix, wall_time_ms: Optional[float] = None
) -> bytes:
    return _dumps(certificate_to_doc(cert, c, wall_time_ms))


def parse_certificate(data: Union[bytes, str]):
    """Load a certificate and re-derive it; returns (Certificate, CopeMatrix).

    This function only parses: a field without its wire shape raises
    ParseError naming it.  The claims (verdict, rank, searched range and
    evidence) are re-derived from the embedded matrix by ``certify._check``,
    the check ``certify`` runs on its way out; the first claim that does
    not re-derive raises ParseError naming the field the check reports.
    """
    doc = _loads(data)
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", field="")
    c = doc_to_cope(_require(doc, "cope"))
    verdict = _require(doc, "verdict")
    kind = _require(doc, "evidence_kind")
    payload = _require(doc, "evidence")
    rank = _int_field(doc, "rank")
    if not isinstance(payload, dict):
        raise ParseError("evidence is not an object", field="evidence")

    evidence: Evidence
    if kind == "EnmfModel":
        evidence = EnmfModel(doc_to_model(_require(payload, "model")))
    elif kind == "VertexForcing":
        polytope = SpanSimplexPolytope(
            ambient_dim=_int_field(payload, "ambient_dim"),
            basis=_rational_rows(payload, "basis"),
            vertices=_rational_rows(payload, "vertices"),
        )
        evidence = VertexForcing(polytope, _int_field(payload, "forced_rank"))
    elif kind == "SpernerSeparation":
        witness = SpernerWitness(
            row_indices=_ints(_require(payload, "row_indices"), "row_indices", c.n_rows),
            col_indices=_ints(_require(payload, "col_indices"), "col_indices", c.n_preparations),
            m=_int_field(payload, "m"),
            ontic_dim_lower_bound=_int_field(payload, "ontic_dim_lower_bound"),
            factor_span_lower_bound=_int_field(payload, "factor_span_lower_bound"),
        )
        evidence = SpernerSeparation(witness, rank)
    elif kind == "ExhaustiveAbsence":
        log = _array(_require(payload, "log"), "log")
        evidence = ExhaustiveAbsence(tuple(str(x) for x in log))
    elif kind == "None":
        evidence = None
    else:
        raise ParseError(f"unknown evidence kind {kind!r}", field="evidence_kind")

    raw_range = doc.get("searched_k_range")
    k_range = None if raw_range is None else _ints(raw_range, "searched_k_range")
    notes = _array(doc.get("notes", []), "notes")
    if not all(isinstance(note, str) for note in notes):
        raise ParseError("notes must be strings", field="notes")
    _require_header(doc, "certificate")
    cert = Certificate(verdict, evidence, rank, k_range, tuple(notes))
    if (problem := _check(_Derived(c), cert)) is not None:
        raise ParseError(problem[1], field=problem[0])
    return cert, c
