import json

from copekit import emit_cope, parse_cope, spekkens
from copekit.cli import run_cli


def _run(capsysbinary, argv, stdin_bytes=None, monkeypatch=None):
    if stdin_bytes is not None:
        import io
        import sys

        class _Stdin:
            buffer = io.BytesIO(stdin_bytes)

        monkeypatch.setattr(sys, "stdin", _Stdin())
    code = run_cli(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def test_generate_and_info(tmp_path, capsysbinary):
    out_path = tmp_path / "spek.json"
    code, _, _ = _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(out_path)])
    assert code == 0
    c = parse_cope(out_path.read_bytes())
    assert c.equals(spekkens())

    code, out, _ = _run(capsysbinary, ["info", str(out_path)])
    assert code == 0
    text = out.decode()
    assert "rank: 4" in text
    assert "preparations: 6" in text
    assert "fiducial states possible: True" in text


def test_certify_exit_codes(tmp_path, capsysbinary):
    spek = tmp_path / "s.json"
    box = tmp_path / "b.json"
    _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(spek)])
    _run(capsysbinary, ["generate", "--theory", "boxworld", "--output", str(box)])

    code, out, _ = _run(capsysbinary, ["certify", str(spek)])
    assert code == 0
    assert json.loads(out)["verdict"] == "Noncontextual"

    code, out, _ = _run(capsysbinary, ["certify", str(box)])
    assert code == 10
    doc = json.loads(out)
    assert doc["verdict"] == "Contextual"
    assert doc["evidence_kind"] == "VertexForcing"
    assert "wall_time_ms" in doc


def test_generate_qubit_and_certify(tmp_path, capsysbinary):
    q = tmp_path / "q.json"
    code, _, _ = _run(
        capsysbinary,
        ["generate", "--theory", "qubit", "--directions", "5", "--output", str(q)],
    )
    assert code == 0
    code, out, _ = _run(capsysbinary, ["certify", str(q)])
    assert code == 10
    assert json.loads(out)["evidence_kind"] == "SpernerSeparation"


def test_generate_qubit_cardinal_matches_toy_bit(capsysbinary):
    code, out, _ = _run(capsysbinary, ["generate", "--theory", "qubit", "--cardinal"])
    assert code == 0
    q = parse_cope(out)
    assert q.n_preparations == 6 and q.n_measurements == 3
    import numpy as np

    assert np.max(np.abs(q.as_array() - spekkens().as_array())) <= 1e-9


def test_pipe_stdin(capsysbinary, monkeypatch):
    data = emit_cope(spekkens())
    code, out, _ = _run(capsysbinary, ["certify"], stdin_bytes=data, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["verdict"] == "Noncontextual"


def test_validate_ok_and_corrupted(tmp_path, capsysbinary):
    good = tmp_path / "good.json"
    _run(capsysbinary, ["generate", "--theory", "boxworld", "--output", str(good)])
    code, out, _ = _run(capsysbinary, ["validate", str(good)])
    assert code == 0 and out == b"ok\n"

    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"backend": "rational"}')
    code, _, err = _run(capsysbinary, ["validate", str(bad)])
    assert code == 2
    assert b"preparations" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_bytes(b"not json at all")
    code, _, _ = _run(capsysbinary, ["validate", str(garbage)])
    assert code == 2


def test_unknown_subcommand_and_flag(capsysbinary):
    code, _, _ = _run(capsysbinary, ["frobnicate"])
    assert code == 2
    code, _, _ = _run(capsysbinary, ["info", "--bogus-flag"])
    assert code == 2


def test_quotient_merge_restrict(tmp_path, capsysbinary):
    ebw = tmp_path / "e.json"
    _run(capsysbinary, ["generate", "--theory", "extended-boxworld", "--output", str(ebw)])

    code, out, _ = _run(capsysbinary, ["quotient", str(ebw)])
    assert code == 0
    q = parse_cope(out)
    assert q.n_preparations == 5 and q.n_rows == 6

    code, out, _ = _run(capsysbinary, ["merge", str(ebw)])
    assert code == 0
    merged = parse_cope(out)
    assert merged.n_measurements == 1

    spek = tmp_path / "s.json"
    _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(spek)])
    code, out, _ = _run(
        capsysbinary,
        ["restrict", str(spek), "--keep-preps", "0,1,2,3", "--keep-measurements", "0,1"],
    )
    assert code == 0
    frag = parse_cope(out)
    assert frag.n_preparations == 4 and frag.n_measurements == 2


def test_factorize_kinds(tmp_path, capsysbinary):
    spek = tmp_path / "s.json"
    _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(spek)])
    for kind in ("pregpt", "gpt", "quasi", "trivial", "nmf", "enmf"):
        code, out, err = _run(capsysbinary, ["factorize", str(spek), "--kind", kind])
        assert code == 0, (kind, err)
        doc = json.loads(out)
        assert doc["type"] == "model"


def test_factorize_nmf_absent_is_guard_exit(tmp_path, capsysbinary):
    box = tmp_path / "b.json"
    _run(capsysbinary, ["generate", "--theory", "boxworld", "--output", str(box)])
    code, _, err = _run(capsysbinary, ["factorize", str(box), "--kind", "enmf"])
    assert code == 3
    assert b"no equirank" in err


def test_verify_command(tmp_path, capsysbinary):
    spek = tmp_path / "s.json"
    model = tmp_path / "m.json"
    _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(spek)])
    _run(capsysbinary, ["factorize", str(spek), "--kind", "trivial", "--output", str(model)])
    code, out, _ = _run(capsysbinary, ["verify", str(spek), "--model", str(model)])
    assert code == 0
    doc = json.loads(out)
    assert doc["reconstruction_ok"] is True
    assert "ontological" in doc["inferred_kinds"]
    assert doc["equirank_ok"] is False


def test_factorize_output_bytes_deterministic(tmp_path, capsysbinary):
    spek = tmp_path / "s.json"
    _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(spek)])
    _, out1, _ = _run(capsysbinary, ["factorize", str(spek), "--kind", "nmf", "--seed", "0"])
    _, out2, _ = _run(capsysbinary, ["factorize", str(spek), "--kind", "nmf", "--seed", "0"])
    assert out1 == out2


def test_backend_conversion_flag(tmp_path, capsysbinary):
    spek = tmp_path / "s.json"
    _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(spek)])
    code, out, _ = _run(capsysbinary, ["info", str(spek), "--backend", "float"])
    assert code == 0
    assert b"backend: float" in out

    qub = tmp_path / "q.json"
    _run(capsysbinary, ["generate", "--theory", "qubit", "--directions", "3", "--output", str(qub)])
    code, _, err = _run(capsysbinary, ["info", str(qub), "--backend", "rational"])
    assert code == 2
    assert b"cannot promote" in err


def test_internal_check_failure_exits_1_without_traceback(tmp_path, capsysbinary, monkeypatch):
    import copekit.cli

    def broken(*args, **kwargs):
        raise AssertionError("kernel answer does not verify")

    path = tmp_path / "s.json"
    path.write_bytes(emit_cope(spekkens()))
    monkeypatch.setattr(copekit.cli, "certify", broken)
    code, _, err = _run(capsysbinary, ["certify", str(path)])
    assert code == 1
    assert b"Traceback" not in err
    assert err == b"error: internal check failed: kernel answer does not verify\n"


def test_missing_model_file_exits_2_without_traceback(tmp_path, capsysbinary):
    spek = tmp_path / "s.json"
    spek.write_bytes(emit_cope(spekkens()))
    missing = tmp_path / "missing.json"
    code, _, err = _run(capsysbinary, ["verify", str(spek), "--model", str(missing)])
    assert code == 2
    assert err.startswith(b"error: cannot read ")


def test_unwritable_output_exits_2_without_traceback(tmp_path, capsysbinary):
    target = tmp_path / "missing-dir" / "x.json"
    code, _, err = _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(target)])
    assert code == 2
    assert err.startswith(b"error: cannot write ")


def test_generate_qubit_honours_seed_zero(capsysbinary):
    # Seed 0 is a seed like any other; only an absent --seed means 11.
    from copekit import discrete_qubit, generic_directions

    _, seed_0, _ = _run(capsysbinary, ["generate", "--theory", "qubit", "--seed", "0"])
    _, default, _ = _run(capsysbinary, ["generate", "--theory", "qubit"])
    assert seed_0 == emit_cope(discrete_qubit(generic_directions(5, seed=0)))
    assert default == emit_cope(discrete_qubit(generic_directions(5, seed=11)))


def test_eps_zero_is_rejected_not_replaced(tmp_path, capsysbinary):
    # Only an absent --eps means 1e-9; a zero goes to the backend, which rejects it.
    message = b"error: float backend needs 0 < eps < 1, got 0.0\n"
    code, out, err = _run(capsysbinary, ["generate", "--theory", "qubit", "--eps", "0"])
    assert (code, out, err) == (2, b"", message)
    spek = tmp_path / "spekkens.json"
    spek.write_bytes(emit_cope(spekkens()))
    code, _, err = _run(capsysbinary, ["certify", str(spek), "--backend", "float", "--eps", "0"])
    assert (code, err) == (2, message)


def test_eps_applies_only_to_a_float_conversion(tmp_path, capsysbinary):
    # --eps is read only when --backend float converts a rational document.
    from copekit import discrete_qubit, generic_directions

    spek, q3 = tmp_path / "s.json", tmp_path / "q3.json"
    spek.write_bytes(emit_cope(spekkens()))
    q3.write_bytes(emit_cope(discrete_qubit(generic_directions(3, seed=11))))
    message = b"error: --eps applies only with --backend float on a rational document\n"
    for argv in (["certify", str(spek)], ["certify", str(q3)], ["certify", str(q3), "--backend", "float"],
                 ["info", str(spek)], ["validate", str(q3)], ["merge", str(spek), "--backend", "rational"]):
        assert _run(capsysbinary, [*argv, "--eps", "0.4"]) == (2, b"", message)
    code, out, _ = _run(capsysbinary, ["certify", str(spek), "--backend", "float", "--eps", "0.4"])
    assert code == 10 and json.loads(out)["cope"]["eps"] == 0.4


def test_snap_tol_zero_exits_2_without_traceback(tmp_path, capsysbinary):
    doc = tmp_path / "doc.json"
    doc.write_text(
        '{"backend":"rational","blocks":[[["0","1","1","0","0"],["1","0","0","1","1"]]],'
        '"format_version":"1","measurements":[{"name":"M1","outcomes":["1","2"]}],'
        '"preparations":["P1","P2","P3","P4","P5"],"type":"cope"}'
    )
    for snap_tol in ("0", "-1", "nan"):
        argv = ["factorize", str(doc), "--kind", "nmf", "--inner-dim", "3", "--snap-tol", snap_tol]
        code, _, err = _run(capsysbinary, argv)
        assert (code, err) == (2, b"error: snap_tol must be > 0\n")


def test_iterations_below_one_exit_2_without_traceback(tmp_path, capsysbinary):
    # No multiplicative update would run: a usage error, not "no model found"
    # (exit 3) or an Undetermined float certificate (exit 20).
    from copekit import discrete_qubit, generic_directions

    doc = tmp_path / "q3.json"
    doc.write_bytes(emit_cope(discrete_qubit(generic_directions(3, seed=11))))
    message = b"error: max_iterations must be >= 1\n"
    argv = ["factorize", str(doc), "--kind", "nmf", "--inner-dim", "5", "--iterations", "-3"]
    assert _run(capsysbinary, argv) == (2, b"", message)
    assert _run(capsysbinary, ["certify", str(doc), "--iterations", "0"]) == (2, b"", message)


def test_inner_dim_zero_is_rejected_not_replaced(tmp_path, capsysbinary):
    # Only an absent --inner-dim means rank(C); a zero goes to NmfOptions,
    # which rejects it like any other inner dimension below one.
    doc = tmp_path / "doc.json"
    doc.write_bytes(emit_cope(spekkens()))
    message = b"error: inner_dim must be >= 1\n"
    for inner_dim in ("0", "-3"):
        argv = ["factorize", str(doc), "--kind", "nmf", "--inner-dim", inner_dim]
        assert _run(capsysbinary, argv) == (2, b"", message)
    code, out, _ = _run(capsysbinary, ["factorize", str(doc), "--kind", "nmf"])
    assert code == 0
    assert json.loads(out)["inner_dim"] == 4


def test_inner_dim_is_rejected_by_every_kind_but_nmf(tmp_path, capsysbinary):
    # Only --kind nmf reads --inner-dim; any other kind refuses it rather
    # than ignore it, whatever its value.
    doc = tmp_path / "spekkens.json"
    doc.write_bytes(emit_cope(spekkens()))
    for kind in ("pregpt", "gpt", "quasi", "trivial", "enmf"):
        for inner_dim in ("-3", "4"):
            argv = ["factorize", str(doc), "--kind", kind, "--inner-dim", inner_dim]
            message = f"error: --inner-dim applies only to --kind nmf, not --kind {kind}\n"
            assert _run(capsysbinary, argv) == (2, b"", message.encode())
        code, out, _ = _run(capsysbinary, ["factorize", str(doc), "--kind", kind])
        assert code == 0 and json.loads(out)["type"] == "model"


def test_tom_columns_and_max_k_are_rejected_by_the_kinds_that_do_not_read_them(tmp_path, capsysbinary):
    # factorize reads --tom-columns only for --kind quasi and --max-k only
    # for --kind enmf; any other kind refuses the flag, whatever its value.
    doc = tmp_path / "spekkens.json"
    doc.write_bytes(emit_cope(spekkens()))
    cases = [("--tom-columns", "quasi", value) for value in ("0,1,99", "x", "0,1,2")]
    cases += [("--max-k", "enmf", value) for value in ("-5", "4")]
    for flag, reader, value in cases:
        for kind in ("pregpt", "gpt", "quasi", "trivial", "nmf", "enmf"):
            if kind == reader:
                continue
            argv = ["factorize", str(doc), "--kind", kind, flag, value]
            message = f"error: {flag} applies only to --kind {reader}, not --kind {kind}\n"
            assert _run(capsysbinary, argv) == (2, b"", message.encode())
    # The kinds that read them, and certify, still take them: columns 0, 1,
    # 2 and 4 are the ones quasi picks by default.
    default = _run(capsysbinary, ["factorize", str(doc), "--kind", "quasi"])
    assert default[0] == 0
    argv = ["factorize", str(doc), "--kind", "quasi", "--tom-columns", "0,1,2,4"]
    assert _run(capsysbinary, argv) == default
    for argv in (["factorize", str(doc), "--kind", "enmf", "--max-k", "4"],
                 ["certify", str(doc), "--max-k", "4"]):
        assert _run(capsysbinary, argv)[0] == 0


def test_generate_refuses_the_qubit_flags_on_other_theories(capsysbinary):
    # --directions, --cardinal and --no-antipodes are read only by --theory
    # qubit, and --directions not with --cardinal; a flag no branch reads is
    # refused, whatever its value.
    for theory in ("spekkens", "boxworld", "extended-boxworld"):
        for flag in (["--directions", "7"], ["--directions", "5"], ["--cardinal"], ["--no-antipodes"]):
            message = f"error: {flag[0]} applies only to --theory qubit, not --theory {theory}\n"
            assert _run(capsysbinary, ["generate", "--theory", theory, *flag]) == (2, b"", message.encode())
    for directions in ("9", "5"):
        argv = ["generate", "--theory", "qubit", "--cardinal", "--directions", directions]
        assert _run(capsysbinary, argv) == (2, b"", b"error: --directions does not apply with --cardinal\n")
    # The qubit still reads each of them, and --directions still defaults to 5.
    default = _run(capsysbinary, ["generate", "--theory", "qubit"])
    assert default[0] == 0
    assert _run(capsysbinary, ["generate", "--theory", "qubit", "--directions", "5"]) == default
    for flags in (["--cardinal"], ["--cardinal", "--no-antipodes"], ["--directions", "3", "--no-antipodes"]):
        assert _run(capsysbinary, ["generate", "--theory", "qubit", *flags])[0] == 0


def test_check_exits_with_the_verdict_of_the_certificate(tmp_path, capsysbinary, monkeypatch):
    # check re-derives a certificate through parse_certificate and exits
    # with its verdict's code, silently, from a path or from stdin.
    doc, cert = tmp_path / "doc.json", tmp_path / "cert.json"
    cases = {"spekkens": 0, "boxworld": 10, "extended-boxworld": 10, "qubit --cardinal": 20}
    for theory, expected in cases.items():
        assert _run(capsysbinary, ["generate", "--theory", *theory.split(), "--output", str(doc)])[0] == 0
        assert _run(capsysbinary, ["certify", str(doc), "--output", str(cert)])[0] == expected
        assert _run(capsysbinary, ["check", str(cert)]) == (expected, b"", b""), theory
    assert _run(capsysbinary, ["check"], stdin_bytes=cert.read_bytes(), monkeypatch=monkeypatch) == (20, b"", b"")


def test_check_exits_2_on_a_document_that_does_not_load(tmp_path, capsysbinary):
    # A malformed document, a matrix document and a certificate whose
    # verdict its evidence does not give: exit 2, no traceback.
    doc, cert = tmp_path / "doc.json", tmp_path / "cert.json"
    assert _run(capsysbinary, ["generate", "--theory", "boxworld", "--output", str(doc)])[0] == 0
    assert _run(capsysbinary, ["certify", str(doc), "--output", str(cert)])[0] == 10
    forged = json.loads(cert.read_bytes())
    forged["verdict"] = "Noncontextual"
    malformed = tmp_path / "malformed.json"
    malformed.write_bytes(b'{"type": "certificate", ')
    forged_path = tmp_path / "forged.json"
    forged_path.write_text(json.dumps(forged))
    for path, field in ((malformed, None), (doc, "cope"), (forged_path, "verdict")):
        code, out, err = _run(capsysbinary, ["check", str(path)])
        assert (code, out) == (2, b"") and err.startswith(b"error: ") and b"Traceback" not in err, path
        assert field is None or f"(field: {field})".encode() in err, err


def test_commands_refuse_the_flags_they_never_read(tmp_path, capsysbinary):
    # Only factorize and certify run the factorization search, so only they
    # take its flags; generate reads no document, so it takes no --backend.
    # argparse refuses the rest: exit 2, no traceback, nothing on stdout.
    doc = tmp_path / "doc.json"
    doc.write_bytes(emit_cope(spekkens()))
    model = tmp_path / "model.json"
    assert _run(capsysbinary, ["factorize", str(doc), "--kind", "gpt", "--output", str(model)])[0] == 0
    cert = tmp_path / "cert.json"
    assert _run(capsysbinary, ["certify", str(doc), "--output", str(cert)])[0] == 0
    commands = {
        "info": [], "validate": [], "quotient": [], "merge": [], "verify": ["--model", str(model)],
        "restrict": ["--keep-preps", "0,1", "--keep-measurements", "0"], "check": [],
    }
    search = (["--seed", "3"], ["--restarts", "0"], ["--iterations", "0"], ["--snap-tol", "0"], ["--max-k", "0"])
    for command, required in commands.items():
        source = str(cert if command == "check" else doc)
        assert _run(capsysbinary, [command, source, *required])[0] == 0
        for flag in search:
            code, out, err = _run(capsysbinary, [command, source, *required, *flag])
            assert (code, out) == (2, b"") and b"unrecognized arguments: " + flag[0].encode() in err
            assert b"Traceback" not in err
    code, out, err = _run(capsysbinary, ["generate", "--theory", "spekkens", "--backend", "float"])
    assert (code, out) == (2, b"") and b"unrecognized arguments: --backend float" in err
    # check reads no matrix and writes no document.
    for flag in (["--backend", "float"], ["--eps", "0.5"], ["--output", str(tmp_path / "out.json")]):
        code, out, err = _run(capsysbinary, ["check", str(cert), *flag])
        assert (code, out) == (2, b"") and b"unrecognized arguments: " + " ".join(flag).encode() in err
    # generate reads --seed and --eps only for the qubit, and --seed not
    # with --cardinal.
    for theory in ("spekkens", "boxworld", "extended-boxworld"):
        for flag in (["--seed", "3"], ["--eps", "0.5"]):
            message = f"error: {flag[0]} applies only to --theory qubit, not --theory {theory}\n"
            assert _run(capsysbinary, ["generate", "--theory", theory, *flag]) == (2, b"", message.encode())
    argv = ["generate", "--theory", "qubit", "--cardinal", "--seed", "3"]
    assert _run(capsysbinary, argv) == (2, b"", b"error: --seed does not apply with --cardinal\n")
    for flags in (["--seed", "3"], ["--eps", "1e-6"], ["--cardinal", "--eps", "1e-6"]):
        assert _run(capsysbinary, ["generate", "--theory", "qubit", *flags])[0] == 0


def test_quotient_exits_3_when_the_extremality_lp_stalls(tmp_path, capsysbinary, monkeypatch):
    # HiGHS status 4 (numerical difficulties) decides no column: the float
    # quotient stops at the guard, with no traceback, and keeps no column
    # it could not decide.
    import types

    import scipy.optimize

    spek = tmp_path / "s.json"
    _run(capsysbinary, ["generate", "--theory", "spekkens", "--output", str(spek)])
    stalled = types.SimpleNamespace(status=4, success=False, message="numerical difficulties")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: stalled)
    code, out, err = _run(capsysbinary, ["quotient", str(spek), "--backend", "float"])
    assert (code, out) == (3, b"")
    assert err.startswith(b"guard exceeded: extremality LP stopped with HiGHS status 4")
    assert b"Traceback" not in err


def _float_qubit_3(tmp_path, capsysbinary):
    doc = tmp_path / "q3.json"
    code, _, _ = _run(capsysbinary, ["generate", "--theory", "qubit", "--directions", "3", "--output", str(doc)])
    assert code == 0 and not parse_cope(doc.read_bytes()).backend.is_exact
    return doc


def test_float_quasi_model_verifies_as_quasiprobabilistic(tmp_path, capsysbinary):
    doc = _float_qubit_3(tmp_path, capsysbinary)
    model = tmp_path / "m.json"
    code, _, err = _run(capsysbinary, ["factorize", str(doc), "--kind", "quasi", "--output", str(model)])
    assert code == 0, err
    code, out, _ = _run(capsysbinary, ["verify", str(doc), "--model", str(model)])
    assert code == 0 and "quasiprobabilistic" in json.loads(out)["inferred_kinds"]


def test_float_quasi_with_singular_tom_columns_exits_2(tmp_path, capsysbinary):
    # Columns 0-3 are two antipodal pairs: both pairs sum to twice the
    # maximally mixed state, so the four states are linearly dependent.
    doc = _float_qubit_3(tmp_path, capsysbinary)
    argv = ["factorize", str(doc), "--kind", "quasi", "--tom-columns", "0,1,2,3"]
    assert _run(capsysbinary, argv) == (2, b"", b"error: selected state columns are singular, not tomographic\n")


def test_float_merge_divides_each_entry_by_the_measurement_count(tmp_path, capsysbinary):
    doc = _float_qubit_3(tmp_path, capsysbinary)
    c = parse_cope(doc.read_bytes())
    code, out, _ = _run(capsysbinary, ["merge", str(doc)])
    assert code == 0
    merged = parse_cope(out)
    j = c.n_measurements
    assert merged.blocks == (tuple(tuple(x / j for x in row) for row in c.stacked()),)
