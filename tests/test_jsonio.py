import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copekit import (
    ExhaustiveAbsence,
    NmfOptions,
    ParseError,
    boxworld,
    cardinal_directions,
    certify,
    cope_matrix,
    discrete_qubit,
    emit_certificate,
    emit_cope,
    emit_model,
    extended_boxworld,
    generic_directions,
    gpt,
    parse_certificate,
    parse_cope,
    parse_model,
    spekkens,
)
from copekit.certify import SpernerSeparation, VertexForcing

from oracles import reference_witness_holds


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


def test_non_canonical_literals_parse_to_the_canonical_matrix():
    doc = {
        "backend": "rational",
        "blocks": [[["1", "0", "0.5", " 1/2"], ["0", "1", "2/4", "+1/2"]]],
        "format_version": "1",
        "measurements": [{"name": "M1", "outcomes": ["1", "2"]}],
        "preparations": ["P1", "P2", "P3", "P4"],
        "type": "cope",
    }
    c = parse_cope(json.dumps(doc))
    canonical = json.loads(emit_cope(c))
    assert canonical["blocks"] == [[["1", "0", "1/2", "1/2"], ["0", "1", "1/2", "1/2"]]]
    again = parse_cope(json.dumps(canonical))
    assert emit_certificate(certify(c), c) == emit_certificate(certify(again), again)
    doc["blocks"][0][0][0] = "1/0"
    with pytest.raises(ParseError, match="bad rational literal '1/0'"):
        parse_cope(json.dumps(doc))


def test_a_repeated_bad_literal_raises_each_time_it_is_loaded():
    # A failing literal is not cached: every load raises the same error.
    doc = {
        "backend": "rational",
        "blocks": [[["1/0", "1/0"], ["1/0", "1/0"]]],
        "format_version": "1",
        "measurements": [{"name": "M1", "outcomes": ["1", "2"]}],
        "preparations": ["P1", "P2"],
        "type": "cope",
    }
    errors = []
    for _ in range(3):
        with pytest.raises(ParseError, match="bad rational literal '1/0'") as err:
            parse_cope(json.dumps(doc))
        errors.append((str(err.value), err.value.field))
    assert errors == [("blocks[0][0]: bad rational literal '1/0'", "blocks[0]")] * 3


def test_a_literal_with_a_huge_exponent_is_a_parse_error():
    doc = {
        "backend": "rational",
        "blocks": [[["1e-1000000", "0"], ["1", "1"]]],
        "format_version": "1",
        "measurements": [{"name": "M1", "outcomes": ["1", "2"]}],
        "preparations": ["P1", "P2"],
        "type": "cope",
    }
    with pytest.raises(ParseError, match="bad rational literal '1e-1000000'") as err:
        parse_cope(json.dumps(doc))
    assert err.value.field == "blocks[0]"


def _bool_entry_cope_doc(backend):
    # A first column [true, false] would load as the identity column.
    one, zero, half = ("1", "0", "1/2") if backend == "rational" else (1, 0, 0.5)
    return {
        "backend": backend,
        "blocks": [[[True, zero, half], [False, one, half]]],
        "format_version": "1",
        "measurements": [{"name": "M1", "outcomes": ["1", "2"]}],
        "preparations": ["P1", "P2", "P3"],
        "type": "cope",
    }


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_boolean_matrix_entry_rejected(backend):
    with pytest.raises(ParseError, match="boolean") as err:
        parse_cope(json.dumps(_bool_entry_cope_doc(backend)))
    assert err.value.field == "blocks[0]"


@pytest.mark.parametrize("field, path", [("effects", (0, 0)), ("states", (1, 0)), ("unit", (0,))])
def test_boolean_model_entry_rejected(spekkens_matrix, boxworld_matrix, field, path):
    from copekit.backend import floating
    from copekit.cope import cope_matrix

    float_blocks = [[[float(x) for x in row] for row in block] for block in boxworld_matrix.blocks]
    models = [certify(spekkens_matrix).evidence.model, gpt(cope_matrix(float_blocks, backend=floating()))]
    for model in models:
        doc = json.loads(emit_model(model))
        parent = doc[field]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = True
        with pytest.raises(ParseError, match="boolean") as err:
            parse_model(json.dumps(doc))
        assert err.value.field == field


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


def test_forged_exhaustive_absence_rejected(spekkens_matrix):
    # Spekkens is noncontextual, so no absence of an equirank model is true
    # of it; a loader that re-derives absence evidence must refuse this log,
    # and any witness of the right shape.
    doc = _spekkens_certificate_doc(spekkens_matrix)
    doc.update(verdict="Contextual", evidence_kind="ExhaustiveAbsence", evidence={"log": ["trust me"]})
    with pytest.raises(ParseError) as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == "evidence"
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    doc["evidence"] = {"rows": [0, 1, 2, 4], "cols": [0, 1, 2, 3], "inequality": identity}
    with pytest.raises(ParseError, match="vertex pair") as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == "evidence"


def _absence_certificate_doc():
    # Drawn by the acceptance-8 recipe: rank 3, decided by the product program.
    h = Fraction(1, 2)
    c = cope_matrix([[[1, h, 1, 0, 0], [0, h, 0, 1, 1]], [[h, 1, h, 1, h], [h, 0, h, 0, h]]])
    doc = json.loads(emit_certificate(certify(c), c))
    assert doc["evidence_kind"] == "ExhaustiveAbsence"
    return doc


@pytest.mark.parametrize("edit", [
    lambda e: e.pop("inequality"),
    lambda e: e.update(inequality=e["inequality"][:-1]),
    lambda e: e.update(inequality=[row + [0] for row in e["inequality"]]),
    lambda e: e.update(rows=e["rows"][:-1]),
    lambda e: e.update(rows=[e["rows"][0]] * len(e["rows"])),
    lambda e: e.update(cols=e["cols"][:-1] + [e["cols"][0]]),
    lambda e: e.update(rows=e["rows"][:-1] + [4]),
    lambda e: e.update(cols=e["cols"][:-1] + [-1]),
    lambda e: e.update(cols=e["cols"][:-1] + [True]),
    lambda e: e["inequality"][0].__setitem__(0, "1"),
    lambda e: e["inequality"][0].__setitem__(0, 0.5),
    lambda e: e["inequality"].__setitem__(0, 7),
    lambda e: e.update(inequality=[[0] * len(row) for row in e["inequality"]]),
    lambda e: e.update(inequality=[[-v for v in row] for row in e["inequality"]]),
], ids=["no inequality", "short M", "wide M", "short rows", "repeated row", "repeated column",
        "row out of range", "negative column", "boolean column", "string entry", "float entry",
        "entry row not an array", "M = 0", "M negated"])
def test_malformed_absence_witness_raises_parse_error(edit):
    doc = _absence_certificate_doc()
    parse_certificate(json.dumps(doc).encode())
    edit(doc["evidence"])
    with pytest.raises(ParseError) as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == "evidence"


def test_a_repeated_index_is_refused_even_where_the_inequality_holds():
    # Draw 56 of random_cope(random.Random(2026)): its witness has a zero
    # column, so the inequality still holds with that column's index
    # repeated; the loader asks for distinct indices all the same.
    blocks = [[["1"] * 5], [["0", "1/4", "0", "0", "1"], ["1", "3/4", "1", "1", "0"]],
              [["1/2", "1", "1/2", "0", "0"], ["0", "0", "1/2", "1", "1"], ["1/2", "0", "0", "0", "0"]]]
    c = cope_matrix([[[Fraction(x) for x in row] for row in block] for block in blocks])
    doc = json.loads(emit_certificate(certify(c), c))
    evidence = doc["evidence"]
    assert [row[0] for row in evidence["inequality"]] == [0, 0, 0, 0]
    evidence["cols"][0] = evidence["cols"][1]
    assert reference_witness_holds(c, evidence["rows"], evidence["cols"], evidence["inequality"])
    with pytest.raises(ParseError) as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == "evidence"


@pytest.mark.parametrize("name", ["acceptance_8_absence", "rational_qubit_4"])
def test_a_witness_loads_exactly_when_it_proves_absence(name, perfbench_corpus):
    # Each entry of a genuine witness moved by one either way, or negated:
    # the loader accepts the witness exactly when the Fraction reference
    # finds every vertex pair of Q x Q* obeying it and C' violating it.
    if name == "rational_qubit_4":
        c = perfbench_corpus.rational_qubit(perfbench_corpus.rational_directions(4))
        doc = json.loads(emit_certificate(certify(c), c))
    else:
        doc = _absence_certificate_doc()
        c = parse_cope(json.dumps(doc["cope"]))
    evidence, outcomes = doc["evidence"], set()
    for row in evidence["inequality"]:
        for j, value in enumerate(row):
            for row[j] in (value + 1, value - 1, -value):
                try:
                    parse_certificate(json.dumps(doc).encode())
                    loaded = True
                except ParseError as err:
                    assert err.field == "evidence"
                    loaded = False
                holds = reference_witness_holds(c, evidence["rows"], evidence["cols"], evidence["inequality"])
                assert loaded == holds, (row, j)
                outcomes.add(loaded)
            row[j] = value
    assert outcomes == {True, False}


def test_loading_an_absence_solves_no_linear_program(monkeypatch):
    from copekit import rational_linalg as rla

    data = json.dumps(_absence_certificate_doc()).encode()
    calls = []
    solve = rla.lp_feasibility
    monkeypatch.setattr(rla, "lp_feasibility", lambda *args: calls.append(args) or solve(*args))
    cert, _ = parse_certificate(data)
    assert cert.verdict == "Contextual" and calls == []


_MUTATIONS = [0, 1, -1, 2, "1", 1.5, True, None, [], {}, 10**30]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_a_mutated_absence_certificate_is_refused_or_still_proves_absence(data):
    # One field of a genuine absence certificate, or one witness entry, is
    # replaced or moved by one.  A mutated witness that still checks is still
    # a proof (some sign flips do), so the loader may accept it; anything
    # else must be a ParseError.
    doc = _absence_certificate_doc()
    evidence = doc["evidence"]
    target = data.draw(st.sampled_from(["entry", "rows", "cols", "verdict", "rank", "evidence_kind"]))
    if target == "entry":
        row = evidence["inequality"][data.draw(st.integers(0, len(evidence["inequality"]) - 1))]
        j = data.draw(st.integers(0, len(row) - 1))
        row[j] = data.draw(st.sampled_from([row[j] + 1, row[j] - 1, -row[j], *_MUTATIONS]))
    elif target in ("rows", "cols"):
        indices = evidence[target]
        indices[data.draw(st.integers(0, len(indices) - 1))] = data.draw(st.sampled_from(_MUTATIONS))
    else:
        doc[target] = data.draw(st.sampled_from([*_MUTATIONS, "Noncontextual", "EnmfModel"]))
    try:
        cert, c = parse_certificate(json.dumps(doc).encode())
    except ParseError:
        return
    assert cert.verdict == "Contextual" and isinstance(cert.evidence, ExhaustiveAbsence)
    assert reference_witness_holds(c, cert.evidence.rows, cert.evidence.cols, cert.evidence.inequality)


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


@pytest.mark.parametrize(
    "edits",
    [{"basis": [["1"]]}, {"ambient_dim": 3}, {"basis": [["1"]], "ambient_dim": 3}],
)
def test_forged_forcing_polytope_rejected(boxworld_matrix, edits):
    # The vertices and forced rank are genuine; the claimed basis or ambient
    # dimension is not that of the rebuilt span-simplex polytope.
    doc = json.loads(emit_certificate(certify(boxworld_matrix), boxworld_matrix))
    doc["evidence"].update(edits)
    with pytest.raises(ParseError, match="does not re-derive") as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == "evidence"


@pytest.mark.parametrize("fixture", ["boxworld_matrix", "ebw_matrix"])
def test_genuine_vertex_forcing_loads_with_rebuilt_polytope(request, fixture):
    c = request.getfixturevalue(fixture)
    cert = certify(c)
    assert isinstance(cert.evidence, VertexForcing)
    loaded, _ = parse_certificate(emit_certificate(cert, c))
    assert loaded.evidence == cert.evidence


def test_empty_sperner_witness_rejected():
    # m = 0 with empty index lists has no antichain bound to re-derive.
    q = discrete_qubit(generic_directions(5, seed=11))
    doc = json.loads(emit_certificate(certify(q), q))
    doc["evidence"].update(m=0, row_indices=[], col_indices=[])
    with pytest.raises(ParseError) as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == "evidence"


_CERTIFIED = {
    "spekkens": spekkens,
    "boxworld": boxworld,
    "sperner_qubit": lambda: discrete_qubit(generic_directions(5, seed=11)),
}


@pytest.mark.parametrize(
    "theory, path, value, field",
    [
        ("boxworld", ("evidence", "forced_rank"), None, "forced_rank"),
        ("boxworld", ("rank",), "four", "rank"),
        ("boxworld", ("rank",), 3.9, "rank"),
        ("boxworld", ("evidence", "vertices", 0, 0), "x", "vertices"),
        ("sperner_qubit", ("evidence", "m"), "x", "m"),
        ("sperner_qubit", ("evidence", "row_indices", 0), 99, "row_indices"),
        ("spekkens", ("searched_k_range",), 5, "searched_k_range"),
        ("spekkens", ("notes",), 5, "notes"),
        ("spekkens", ("evidence", "model", "unit"), None, "unit"),
        ("spekkens", ("evidence", "model", "states", 1), [], "states"),
        ("spekkens", ("cope", "measurements"), None, "measurements"),
        ("spekkens", ("evidence", "model", "effects", 0), ["1"], "effects"),
        ("spekkens", ("evidence", "model", "unit"), ["1"], "unit"),
        ("spekkens", ("evidence", "model", "block_sizes"), [1], "block_sizes"),
        ("boxworld", ("evidence", "basis"), None, "basis"),
        ("boxworld", ("evidence", "basis", 0, 0), "x", "basis"),
        ("boxworld", ("evidence", "ambient_dim"), None, "ambient_dim"),
        ("boxworld", ("evidence", "ambient_dim"), "3", "ambient_dim"),
        ("spekkens", ("searched_k_range",), [9, 2], "searched_k_range"),
        ("spekkens", ("searched_k_range",), [0, 99], "searched_k_range"),
        ("spekkens", ("type",), "model", "type"),
        ("spekkens", ("format_version",), "99", "format_version"),
        ("spekkens", ("cope", "type"), "certificate", "type"),
        ("spekkens", ("cope", "format_version"), "7", "format_version"),
        ("spekkens", ("evidence", "model", "type"), "cope", "type"),
        ("spekkens", ("evidence", "model", "format_version"), 1, "format_version"),
        ("spekkens", ("evidence", "model", "inner_dim"), 99, "inner_dim"),
        ("spekkens", ("evidence", "model", "inner_dim"), "x", "inner_dim"),
        ("spekkens", ("evidence", "model", "inner_dim"), None, "inner_dim"),
        # The loader rejections of the embedded matrix, model and evidence.
        ("sperner_qubit", ("cope", "eps"), 0, "eps"),
        ("spekkens", ("cope", "backend"), "complex", "backend"),
        ("spekkens", ("cope", "blocks", 0, 0), "1", "blocks[0]"),
        ("spekkens", ("cope",), [], ""),
        ("spekkens", ("cope", "blocks"), [], "blocks"),
        ("spekkens", ("cope", "measurements", 0), "M1", "measurements"),
        ("spekkens", ("cope", "measurements", 0, "outcomes"), ["1"], "blocks[0]"),
        ("spekkens", ("evidence", "model"), [], ""),
        ("spekkens", ("evidence", "model", "kind"), "classical", "kind"),
        ("spekkens", ("evidence", "model", "unit", 0), "one", "unit"),
        ("spekkens", ("evidence",), [], "evidence"),
        ("spekkens", ("evidence_kind",), "Oracle", "evidence_kind"),
        ("spekkens", ("notes",), [5], "notes"),
        # JSON booleans are no entries: false is not read as 0.
        ("boxworld", ("evidence", "basis", 0, 0), False, "basis"),
        ("boxworld", ("evidence", "vertices", 0, 0), False, "vertices"),
    ],
)
def test_malformed_certificate_field_raises_parse_error(theory, path, value, field):
    c = _CERTIFIED[theory]()
    doc = json.loads(emit_certificate(certify(c), c))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ParseError) as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == field


@pytest.mark.parametrize("parse", [parse_cope, parse_model, parse_certificate])
def test_a_document_that_is_no_utf8_json_object_raises_parse_error(parse):
    for data, message in ((b"\xff{}", "not UTF-8"), (b"[]", "root must be an object")):
        with pytest.raises(ParseError, match=message) as err:
            parse(data)
        assert err.value.field == ""


def test_evidence_that_does_not_re_derive_names_its_claim(monkeypatch):
    import importlib

    # The witness's bounds are not those of its m.
    q = _CERTIFIED["sperner_qubit"]()
    doc = json.loads(emit_certificate(certify(q), q))
    doc["evidence"]["ontic_dim_lower_bound"] += 1
    with pytest.raises(ParseError, match="witness bounds do not re-verify") as err:
        parse_certificate(json.dumps(doc).encode())
    assert err.value.field == "evidence"

    # A genuine forcing certificate whose polytope the loader cannot rebuild.
    c = boxworld()
    data = emit_certificate(certify(c), c)
    monkeypatch.setattr(importlib.import_module("copekit.polytope"), "AMBIENT_LIMIT", 1)
    with pytest.raises(ParseError, match="span-simplex polytope not rebuilt") as err:
        parse_certificate(data)
    assert err.value.field == "evidence"


@pytest.mark.parametrize("field", ["type", "format_version"])
def test_document_without_its_header_field_raises_parse_error(spekkens_matrix, field):
    cert = certify(spekkens_matrix)
    documents = [
        (parse_cope, emit_cope(spekkens_matrix)),
        (parse_model, emit_model(cert.evidence.model)),
        (parse_certificate, emit_certificate(cert, spekkens_matrix)),
    ]
    for parse, data in documents:
        doc = json.loads(data)
        del doc[field]
        with pytest.raises(ParseError) as err:
            parse(json.dumps(doc).encode())
        assert err.value.field == field


def test_certificates_round_trip_to_the_same_bytes():
    # The parser rebuilds exactly the evidence it was given, so emitting the
    # loaded certificate gives back the input bytes.
    from copekit.backend import floating
    from copekit.cope import cope_matrix

    from test_certify import _acceptance_8_batch

    positive = cope_matrix(
        [[[0.6, 0.3, 0.5], [0.4, 0.7, 0.5]], [[0.2, 0.9, 0.4], [0.8, 0.1, 0.6]]],
        backend=floating(),
    )
    cases = [(c, None) for c in (spekkens(), boxworld(), extended_boxworld())]
    cases.append((_CERTIFIED["sperner_qubit"](), None))
    cases.append((positive, NmfOptions(inner_dim=1, max_restarts=1, max_iterations=40)))
    cases.append((discrete_qubit(cardinal_directions()), None))  # Undetermined
    cases += [(c, None) for c in _acceptance_8_batch()]
    verdicts = set()
    for c, opts in cases:
        cert = certify(c, opts)
        data = emit_certificate(cert, c)
        assert emit_certificate(*parse_certificate(data)) == data
        verdicts.add(type(cert.evidence).__name__)
    assert len(verdicts) == 5  # every evidence kind, and None
