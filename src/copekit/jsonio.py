"""JSON wire formats for matrices, models, and certificates.

Rationals serialize as ``"p/q"`` strings so documents survive round trips
bit-exactly; floats serialize as numbers and the document carries its eps.
Emission is canonical (sorted keys, compact separators, trailing newline),
so equal values produce equal bytes.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .certify import (
    Certificate,
    CONTEXTUAL,
    NONCONTEXTUAL,
    UNDETERMINED,
    EnmfModel,
    Evidence,
    ExhaustiveAbsence,
    SpernerSeparation,
    VertexForcing,
    vertex_forcing_certificate,
)
from .backend import Backend, BackendError, floating, format_scalar, parse_scalar, rational
from .cope import CopeMatrix, PreconditionError, cope_matrix, validate
from .models import ModelFactorization, ModelKind, classify_model, make_model
from .polytope import GuardExceeded, _Derived
from .sperner import SpernerWitness, sperner_span_bound, sperner_ontic_bound

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
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"{field}[{i}] is not an array", field=field)
        try:
            out.append([parse_scalar(x, backend) for x in row])
        except BackendError as exc:
            raise ParseError(f"{field}[{i}]: {exc}", field=field) from exc
    return out


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
        "blocks": [
            [[format_scalar(x, c.backend) for x in row] for row in block]
            for block in c.blocks
        ],
    }
    if not c.backend.is_exact:
        doc["eps"] = c.backend.eps
    return doc


def doc_to_cope(doc) -> CopeMatrix:
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", field="")
    backend = _backend_of(doc)
    preps = _require(doc, "preparations")
    measurements = _require(doc, "measurements")
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
        outcomes = _require(meta, "outcomes")
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
        "effects": [[format_scalar(x, m.backend) for x in row] for row in m.effects],
        "states": [[format_scalar(x, m.backend) for x in row] for row in m.states],
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
        unit = [parse_scalar(x, backend) for x in _require(doc, "unit")]
    except BackendError as exc:
        raise ParseError(f"unit: {exc}", field="unit") from exc
    block_sizes = _require(doc, "block_sizes")
    try:
        return make_model(
            effects=effects,
            states=states,
            unit=unit,
            kind=kind,
            block_sizes=tuple(int(x) for x in block_sizes),
            backend=backend,
        )
    except ValueError as exc:
        raise ParseError(str(exc), field="") from exc


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
            "basis": [
                [format_scalar(x, rational()) for x in row]
                for row in evidence.polytope.basis
            ],
            "vertices": [
                [format_scalar(x, rational()) for x in v]
                for v in evidence.polytope.vertices
            ],
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


_VERDICT_OF_EVIDENCE = {
    "EnmfModel": NONCONTEXTUAL,
    "VertexForcing": CONTEXTUAL,
    "SpernerSeparation": CONTEXTUAL,
    "ExhaustiveAbsence": CONTEXTUAL,
    "None": UNDETERMINED,
}


def parse_certificate(data: Union[bytes, str]):
    """Load and re-verify a certificate; returns (Certificate, CopeMatrix).

    The verdict must be the one its evidence kind supports.  Embedded
    models must classify with the claimed kind; forcing evidence must be
    what vertex forcing re-derives from the embedded matrix (the vertices
    of its rebuilt span-simplex polytope and their count); Sperner
    witnesses must exhibit the claimed unique-zero pattern and bounds.
    """
    doc = _loads(data)
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", field="")
    c = doc_to_cope(_require(doc, "cope"))
    verdict = _require(doc, "verdict")
    kind = _require(doc, "evidence_kind")
    payload = _require(doc, "evidence")
    rank_claim = int(_require(doc, "rank"))
    if not isinstance(kind, str) or kind not in _VERDICT_OF_EVIDENCE:
        raise ParseError(f"unknown evidence kind {kind!r}", field="evidence_kind")
    if verdict != _VERDICT_OF_EVIDENCE[kind]:
        raise ParseError(f"verdict {verdict!r} does not follow from {kind} evidence", field="verdict")

    d = _Derived(c)
    if d.rank != rank_claim:
        raise ParseError(f"rank claim {rank_claim} does not re-verify", field="rank")

    evidence: Evidence
    if kind == "EnmfModel":
        model = doc_to_model(_require(payload, "model"))
        report = classify_model(d, model)
        if ModelKind.NONCONTEXTUAL_ONTOLOGICAL not in report.inferred_kinds:
            raise ParseError("embedded model does not re-verify as equirank nonnegative", field="evidence")
        evidence = EnmfModel(model)
    elif kind == "VertexForcing":
        forced = int(_require(payload, "forced_rank"))
        vertices = {
            tuple(parse_scalar(x, rational()) for x in v)
            for v in _require(payload, "vertices")
        }
        try:
            rebuilt = vertex_forcing_certificate(d)
        except (GuardExceeded, PreconditionError) as exc:
            raise ParseError(f"span-simplex polytope not rebuilt: {exc}", field="evidence") from exc
        if rebuilt is None or set(rebuilt[0].vertices) != vertices or rebuilt[1] != forced:
            raise ParseError("forcing evidence does not re-derive from the matrix", field="evidence")
        evidence = VertexForcing(*rebuilt)
    elif kind == "SpernerSeparation":
        rows = tuple(int(x) for x in _require(payload, "row_indices"))
        cols = tuple(int(x) for x in _require(payload, "col_indices"))
        m = int(_require(payload, "m"))
        if len(rows) != m or len(cols) != m:
            raise ParseError("witness index lists do not match m", field="evidence")
        stacked = c.stacked()
        be = c.backend
        for a, ra in enumerate(rows):
            for b, cb in enumerate(cols):
                is_zero = be.is_zero(stacked[ra][cb])
                if (a == b) != is_zero:
                    raise ParseError("witness zero pattern does not re-verify", field="evidence")
        witness = SpernerWitness(
            row_indices=rows,
            col_indices=cols,
            m=m,
            ontic_dim_lower_bound=sperner_ontic_bound(m),
            factor_span_lower_bound=sperner_span_bound(m),
        )
        if witness.ontic_dim_lower_bound != int(_require(payload, "ontic_dim_lower_bound")):
            raise ParseError("ontic bound does not re-verify", field="evidence")
        if witness.factor_span_lower_bound != int(_require(payload, "factor_span_lower_bound")):
            raise ParseError("span bound does not re-verify", field="evidence")
        if witness.factor_span_lower_bound <= rank_claim:
            raise ParseError("span bound does not exceed the rank", field="evidence")
        evidence = SpernerSeparation(witness, rank_claim)
    elif kind == "ExhaustiveAbsence":
        evidence = ExhaustiveAbsence(tuple(str(x) for x in _require(payload, "log")))
    else:
        evidence = None

    raw_range = doc.get("searched_k_range")
    cert = Certificate(
        verdict=verdict,
        evidence=evidence,
        rank=rank_claim,
        searched_k_range=tuple(raw_range) if raw_range else None,
        notes=tuple(doc.get("notes", ())),
    )
    return cert, c
