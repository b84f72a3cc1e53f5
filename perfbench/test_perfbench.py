"""Self-tests of the benchmark's own code.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import corpus
import run
import tracer as tracing
from speed import SpeedScale

ck = corpus.load_program()

# A cheap slice of every in-process workload that still reaches every layer.
SLICE = {
    "exact-corpus": ("boxworld", "extended_boxworld", "rational_qubit_2", "rational_qubit_3"),
    "float-qubits": ("cardinal_qubit", "generic_qubit_5"),
    "random-exact": tuple(f"random_{i:03d}" for i in range(20)),
}


def _slice(workload):
    names = SLICE[workload]
    return [inst for inst in corpus.build(workload) if inst.name in names]


def _certificate_bytes(instances):
    return [ck.emit_certificate(ck.certify(inst.matrix), inst.matrix) for inst in instances]


def test_tracing_leaves_verdicts_and_certificate_bytes_unchanged():
    instances = _slice("exact-corpus") + _slice("float-qubits") + _slice("random-exact")[:5]
    plain = _certificate_bytes(instances)
    with tracing.Tracer() as tracer:
        traced = _certificate_bytes(instances)
    assert tracer.stats["certify.certify"]["calls"] == len(instances)
    assert traced == plain
    assert [json.loads(b)["verdict"] for b in traced] == [json.loads(b)["verdict"] for b in plain]


def test_uninstall_restores_every_binding():
    # The package re-exports functions under its submodules' names, so reach
    # the modules through sys.modules.
    nmf_mod, certify_mod = sys.modules["copekit.nmf"], sys.modules["copekit.certify"]

    def bindings():
        return ck.certify, nmf_mod.search_candidates, certify_mod.decide_enmf_existence

    before = bindings()
    with tracing.Tracer():
        during = bindings()
    assert all(a is not b for a, b in zip(before, during))
    assert bindings() == before


def test_every_layer_records_a_call_on_some_workload():
    references = corpus.load_references()
    totals = {}
    for workload in SLICE:
        tracer = tracing.Tracer()
        runner = run.RUNNERS[workload](ck, tracer)
        with tracer:
            passes = run.run_passes(_slice(workload), references[workload], {}, runner,
                                    random.Random(0), 0.0, SpeedScale(), tracer)
        assert all(s.failure is None for s in passes[0].samples)
        tracing.add_stats(totals, passes[0].stats)
    uncalled = [name for name in tracing.LAYER_NAMES if totals[name]["calls"] == 0]
    assert uncalled == []
    assert totals["rational_linalg.lp_feasibility"]["vars"] > 0
    assert totals["polytope.span_simplex_polytope"]["vertices"] > 0


def test_cli_children_report_their_layers():
    tracer = tracing.Tracer()
    runner = run.cli_runner(ck, tracer)
    boxworld = [inst for inst in corpus.build("cli") if inst.name == "boxworld"][0]
    sample = runner(boxworld, corpus.load_references()["cli"]["boxworld"])
    assert sample.failure is None and sample.verdict == corpus.CONTEXTUAL
    assert tracer.stats["jsonio.parse_cope"]["calls"] == 1
    assert tracer.stats["certify.certify"]["calls"] == 1


def test_missing_function_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (("certify", "no_such_tier"),))
    monkeypatch.setattr(tracing, "LAYER_NAMES", tracing.LAYER_NAMES + ("certify.no_such_tier",))
    assert tracing.missing_layers() == ["certify.no_such_tier"]
    with tracing.Tracer() as tracer:
        ck.certify(ck.boxworld())
    assert tracer.stats["certify.no_such_tier"]["calls"] == 0


def test_guard_passing_through_a_wrapper_is_counted():
    from copekit.polytope import GuardExceeded

    tracer = tracing.Tracer()

    def raises_guard():
        raise GuardExceeded("budget")

    wrapped = tracer._wrap("polytope.extreme_rays", raises_guard)
    with pytest.raises(GuardExceeded):
        wrapped()
    assert tracer.stats["polytope.extreme_rays"]["guard"] == 1


def test_self_time_excludes_traced_callees():
    tracer = tracing.Tracer()
    inner = tracer._wrap("cope.rank", lambda: sum(range(200000)))
    outer = tracer._wrap("certify.certify", lambda: inner())
    outer()
    rank, top = tracer.stats["cope.rank"], tracer.stats["certify.certify"]
    assert top["self_ms"] == pytest.approx(top["total_ms"] - rank["total_ms"], abs=1e-6)


def test_references_describe_the_built_instances():
    references = corpus.load_references()
    for workload in corpus.WORKLOADS:
        pool = corpus.build(workload)
        assert sorted(i.name for i in pool) == sorted(references[workload])
        assert run.stale_references(pool, references[workload]) == {}


def test_rational_fragments_have_the_recorded_shape():
    refs = corpus.load_references()["exact-corpus"]
    shape = [(refs[f"rational_qubit_{n}"]["vertices"], refs[f"rational_qubit_{n}"]["verdict"])
             for n in corpus.BLOCH_PAIRS]
    nc, c = corpus.NONCONTEXTUAL, corpus.CONTEXTUAL
    assert shape == [(4, nc), (8, nc), (12, c), (16, c)]


def test_rational_directions_are_unit_and_never_parallel():
    dirs = corpus.rational_directions(12, seed=1, span=2)
    assert all(sum(x * x for x in d) == 1 for d in dirs)
    for i, u in enumerate(dirs):
        for v in dirs[:i]:
            assert abs(sum(x * y for x, y in zip(u, v))) != 1
    # span 1 gives nine points, among them the antipodes (1, 0, 0) and (-1, 0, 0).
    with pytest.raises(ValueError):
        corpus.rational_directions(9, seed=1, span=1)


def test_random_batch_follows_the_acceptance_recipe():
    sys.path.insert(0, str(corpus.ROOT / "tests"))
    oracles = pytest.importorskip("oracles")
    rng = random.Random(corpus.RANDOM_SEED)
    expected = []
    while len(expected) < 25:
        c = oracles.random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=6, max_den=2)
        if c.n_rows + c.n_preparations <= 10:
            expected.append(corpus.digest(c))
    assert [corpus.digest(c) for c in corpus.random_batch(count=25)] == expected


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((corpus.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_run_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "float-qubits", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=corpus.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["decided_ratio"]["value"] == 0.5


def test_fails_without_program_sources(tmp_path):
    shutil.copy(corpus.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(corpus.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
