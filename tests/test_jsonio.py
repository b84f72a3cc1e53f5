import json

import pytest

from copekit import (
    ParseError,
    certify,
    discrete_qubit,
    emit_certificate,
    emit_cope,
    emit_model,
    generic_directions,
    gpt,
    parse_certificate,
    parse_cope,
    parse_model,
)
from copekit.certify import SpernerSeparation, VertexForcing


def test_cope_round_trip_exact(spekkens_matrix):
    data = emit_cope(spekkens_matrix)
    again = parse_cope(data)
    assert again.equals(spekkens_matrix)
    assert again.prep_labels == spekkens_matrix.prep_labels
    assert emit_cope(again) == data


def test_cope_round_trip_float():
    q = discrete_qubit(generic_directions(3, seed=2), eps=1e-7)
    again = parse_cope(emit_cope(q))
    assert again.equals(q)
    assert not again.backend.is_exact
    assert again.backend.eps == 1e-7  # documents carry their own eps


def test_rational_entries_serialized_as_strings(spekkens_matrix):
    doc = json.loads(emit_cope(spekkens_matrix))
    assert doc["blocks"][0][0][0] == "1"
    assert doc["blocks"][0][0][2] == "1/2"
    assert doc["backend"] == "rational"


def test_deterministic_bytes(spekkens_matrix):
    assert emit_cope(spekkens_matrix) == emit_cope(spekkens_matrix)


def test_malformed_json_rejected():
    with pytest.raises(ParseError):
        parse_cope(b"{not json")


def test_missing_field_named():
    with pytest.raises(ParseError) as err:
        parse_cope(b'{"backend": "rational"}')
    assert err.value.field == "preparations"


def test_column_sum_violation_rejected_on_parse():
    doc = {
        "format_version": "1",
        "type": "cope",
        "backend": "rational",
        "preparations": ["P1"],
        "measurements": [{"name": "M1", "outcomes": ["1", "2"]}],
        "blocks": [[["1"], ["1"]]],
    }
    with pytest.raises(ParseError) as err:
        parse_cope(json.dumps(doc).encode())
    assert "blocks[0]" in err.value.field


def test_shape_mismatch_rejected():
    doc = {
        "format_version": "1",
        "type": "cope",
        "backend": "rational",
        "preparations": ["P1", "P2"],
        "measurements": [{"name": "M1", "outcomes": ["1"]}],
        "blocks": [[["1"]]],
    }
    with pytest.raises(ParseError):
        parse_cope(json.dumps(doc).encode())


def test_model_round_trip(spekkens_matrix):
    model = gpt(spekkens_matrix)
    again = parse_model(emit_model(model))
    assert again.effects == model.effects
    assert again.states == model.states
    assert again.unit == model.unit
    assert again.kind == model.kind
    assert emit_model(again) == emit_model(model)


def test_model_round_trip_float(boxworld_matrix):
    from copekit.backend import floating
    from copekit.cope import cope_matrix

    c = cope_matrix(
        [[[float(x) for x in row] for row in block] for block in boxworld_matrix.blocks],
        backend=floating(),
    )
    model = gpt(c)
    again = parse_model(emit_model(model))
    assert again.effects == model.effects


def test_certificate_round_trip_contextual(boxworld_matrix):
    cert = certify(boxworld_matrix)
    data = emit_certificate(cert, boxworld_matrix, wall_time_ms=12.5)
    doc = json.loads(data)
    assert doc["verdict"] == "Contextual"
    assert doc["evidence_kind"] == "VertexForcing"
    assert doc["wall_time_ms"] == 12.5
    loaded, c = parse_certificate(data)
    assert loaded.verdict == cert.verdict
    assert isinstance(loaded.evidence, VertexForcing)
    assert c.equals(boxworld_matrix)


def test_certificate_round_trip_noncontextual(spekkens_matrix):
    cert = certify(spekkens_matrix)
    data = emit_certificate(cert, spekkens_matrix)
    loaded, c = parse_certificate(data)
    assert loaded.verdict == "Noncontextual"
    assert c.equals(spekkens_matrix)


def test_certificate_round_trip_sperner():
    q = discrete_qubit(generic_directions(5, seed=11))
    cert = certify(q)
    data = emit_certificate(cert, q)
    loaded, _ = parse_certificate(data)
    assert isinstance(loaded.evidence, SpernerSeparation)
    assert loaded.evidence.witness.m == 10


def test_certificate_round_trip_undetermined():
    from copekit import NmfOptions
    from copekit.backend import floating
    from copekit.cope import cope_matrix

    c = cope_matrix(
        [[[0.6, 0.3, 0.5], [0.4, 0.7, 0.5]], [[0.2, 0.9, 0.4], [0.8, 0.1, 0.6]]],
        backend=floating(),
    )
    cert = certify(c, NmfOptions(inner_dim=1, max_restarts=1, max_iterations=40))
    data = emit_certificate(cert, c)
    loaded, _ = parse_certificate(data)
    assert loaded.verdict == cert.verdict
    if cert.verdict == "Undetermined":
        assert loaded.evidence is None
        assert loaded.searched_k_range == cert.searched_k_range


def test_tampered_certificate_rejected(spekkens_matrix):
    cert = certify(spekkens_matrix)
    doc = json.loads(emit_certificate(cert, spekkens_matrix))
    # Corrupt one model entry: re-verification must fail.
    doc["evidence"]["model"]["states"][0][0] = "9/10"
    with pytest.raises(ParseError):
        parse_certificate(json.dumps(doc).encode())


def test_tampered_rank_rejected(boxworld_matrix):
    cert = certify(boxworld_matrix)
    doc = json.loads(emit_certificate(cert, boxworld_matrix))
    doc["rank"] = 2
    with pytest.raises(ParseError):
        parse_certificate(json.dumps(doc).encode())


def _spekkens_certificate_doc(spekkens_matrix):
    return json.loads(emit_certificate(certify(spekkens_matrix), spekkens_matrix))


@pytest.mark.parametrize(
    "verdict, kind",
    [("Noncontextual", "None"), ("Contextual", "EnmfModel")],
)
def test_verdict_contradicting_evidence_rejected(spekkens_matrix, verdict, kind):
    doc = _spekkens_certificate_doc(spekkens_matrix)
    doc["verdict"] = verdict
    doc["evidence_kind"] = kind
    if kind == "None":
        doc["evidence"] = {}
    with pytest.raises(ParseError) as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == "verdict"


def test_forged_vertex_forcing_rejected(spekkens_matrix):
    # Five of Spekkens' own merged columns, more than its rank 4, but not the
    # vertices of its span-simplex polytope.
    from copekit.cope import merge_measurements

    merged = merge_measurements(spekkens_matrix)
    columns = list(dict.fromkeys(zip(*merged.stacked())))[:5]
    doc = _spekkens_certificate_doc(spekkens_matrix)
    doc["verdict"] = "Contextual"
    doc["evidence_kind"] = "VertexForcing"
    doc["evidence"] = {
        "forced_rank": 5,
        "ambient_dim": merged.n_rows,
        "basis": [],
        "vertices": [[str(x) for x in col] for col in columns],
    }
    with pytest.raises(ParseError, match="does not re-derive"):
        parse_certificate(json.dumps(doc).encode())


@pytest.mark.parametrize("fixture", ["boxworld_matrix", "ebw_matrix"])
def test_genuine_vertex_forcing_loads_with_rebuilt_polytope(request, fixture):
    c = request.getfixturevalue(fixture)
    cert = certify(c)
    assert isinstance(cert.evidence, VertexForcing)
    loaded, _ = parse_certificate(emit_certificate(cert, c))
    assert loaded.evidence == cert.evidence
