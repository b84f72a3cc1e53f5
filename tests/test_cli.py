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
