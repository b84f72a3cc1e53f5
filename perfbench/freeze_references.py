#!/usr/bin/env python3
"""Regenerate references.json, the frozen verdict of every benchmark instance.

Usage: python3 perfbench/freeze_references.py

Exact instances get the verdict of the complete existence decision
(``decide_enmf_existence``): a verified model means Noncontextual, a Farkas
certificate of absence means Contextual.  The built-ins keep the verdicts the
test suite asserts.  Float qubits cannot be decided exactly: the reference
is Contextual where the Sperner bound exceeds the rank (5 or more pairs) and
Undetermined otherwise, which is what the program reports at the commit
that froze them.  Takes about half a minute.
"""

import json

import corpus

BUILTIN_VERDICTS = {
    "spekkens": corpus.NONCONTEXTUAL,
    "boxworld": corpus.CONTEXTUAL,
    "extended_boxworld": corpus.CONTEXTUAL,
}


def exact_reference(c) -> dict:
    ck = corpus.load_program()
    from copekit.enmf_decision import AbsenceResult, decide_enmf_existence

    decision = decide_enmf_existence(c)
    merged = ck.merge_measurements(c)
    ref = {
        "digest": corpus.digest(c),
        "rank": ck.rank(c),
        "vertices": len(ck.span_simplex_polytope(merged).vertices),
    }
    if isinstance(decision, AbsenceResult):
        ref.update(verdict=corpus.CONTEXTUAL, farkas=True)
    else:
        ref.update(verdict=corpus.NONCONTEXTUAL, inner_dim=decision.model.inner_dim)
    return ref


def float_qubit_verdict(name: str) -> str:
    """Contextual where the Sperner span bound exceeds the rank (5+ generic pairs)."""
    if name.startswith("generic_qubit_") and int(name.rsplit("_", 1)[1]) >= 5:
        return corpus.CONTEXTUAL
    return corpus.UNDETERMINED


def freeze() -> dict:
    out = {}
    for workload in corpus.WORKLOADS:
        refs = {}
        for inst in corpus.build(workload):
            if inst.matrix.backend.is_exact:
                ref = exact_reference(inst.matrix)
                expected = BUILTIN_VERDICTS.get(inst.name)
                if expected is not None and ref["verdict"] != expected:
                    raise AssertionError(f"{inst.name}: decision {ref['verdict']} != tests {expected}")
            else:
                ref = {"digest": None, "verdict": float_qubit_verdict(inst.name)}
            refs[inst.name] = ref
        out[workload] = refs
    return out


def main() -> int:
    refs = freeze()
    with open(corpus.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, group in refs.items():
        verdicts = [r["verdict"] for r in group.values()]
        counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
        print(workload, len(group), counts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
