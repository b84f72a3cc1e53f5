"""Randomized factorization properties over small exact matrices.

One seeded sweep of 1000 generated instances (up to 6x6, denominators up to
4) drives the factorization postconditions; hypothesis covers structural
invariants of the matrix operations with shrinking.  Two seeded sweeps
check the certifier's evidence: every certificate survives the wire format
byte for byte, and the exhaustive decision agrees with the complete one.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from copekit import (
    GuardExceeded,
    ModelKind,
    NmfOptions,
    certify,
    classify_model,
    emit_certificate,
    exhaustive_enmf_decision,
    gpt,
    merge_measurements,
    nmf,
    parse_certificate,
    pregpt_from_svd,
    quasi_from_gpt,
    quotient_extremal,
    rank,
    validate,
)
from copekit import rational_linalg as rla
from copekit.backend import floating, rational
from copekit.certify import Exists, NotExists
from copekit.cope import cope_matrix
from copekit.enmf_decision import AbsenceResult, ExistenceResult, decide_enmf_existence

from oracles import random_cope

CASES = 1000


def _invertible_choices(model, cap=6):
    r = model.inner_dim
    found = []
    for cols in combinations(range(model.n_preparations), r):
        t = [[model.states[l][j] for j in cols] for l in range(r)]
        if rla.invert(t) is not None:
            found.append(list(cols))
            if len(found) >= cap:
                break
    return found


def _reconstructs(c, model) -> bool:
    k = model.inner_dim
    stacked = c.stacked()
    for i in range(c.n_rows):
        for j in range(c.n_preparations):
            value = sum(model.effects[i][l] * model.states[l][j] for l in range(k))
            if not model.backend.eq(value, stacked[i][j]):
                return False
    return True


def _unit_is_all_ones(model) -> bool:
    offset = 0
    for size in model.block_sizes:
        for l in range(model.inner_dim):
            total = sum(model.effects[i][l] for i in range(offset, offset + size))
            if not model.backend.eq(total, 1):
                return False
        offset += size
    return all(model.backend.eq(u, 1) for u in model.unit)


def test_factorization_property_sweep():
    rng = random.Random(2026)
    nmf_outputs = 0
    for case in range(CASES):
        c = random_cope(rng, max_blocks=3, max_outcomes=3, max_cols=6, max_den=4)
        r = rank(c)

        pre = pregpt_from_svd(c)
        report = classify_model(c, pre)
        assert report.reconstruction_ok, case
        assert report.unit_ok, case
        assert pre.inner_dim == c.n_rows

        model = gpt(c)
        report = classify_model(c, model)
        assert report.reconstruction_ok and report.unit_ok, case
        assert report.equirank_ok, case
        assert report.rank_effects == report.rank_states == r, case

        for cols in _invertible_choices(model, cap=3):
            quasi = quasi_from_gpt(model, cols)
            assert _reconstructs(c, quasi), case
            assert _unit_is_all_ones(quasi), case
            assert rla.rank([list(row) for row in quasi.effects]) == r, case
            assert rla.rank([list(row) for row in quasi.states]) == r, case

        assert rank(merge_measurements(c)) == r, case

        rep = quotient_extremal(c)
        again = quotient_extremal(rep.quotiented)
        assert rep.quotiented.equals(again.quotiented), case
        assert validate(rep.quotiented) == [], case

        if case % 7 == 0:
            found = nmf(c, NmfOptions(inner_dim=r, max_restarts=2, max_iterations=120))
            if found is not None:
                nmf_outputs += 1
                report = classify_model(c, found)
                assert report.reconstruction_ok, case
                assert report.unit_ok and report.unit_all_ones, case
                assert report.nonnegative_ok, case
                assert report.states_column_stochastic_ok, case
                assert report.equirank_ok, case  # inner dim == rank
    assert nmf_outputs >= 40


def test_every_certificate_round_trips_to_the_same_bytes():
    # 150 exact draws, and the float copy of every fifteenth.
    rng = random.Random(4242)
    verdicts = set()
    for case in range(150):
        c = random_cope(rng, max_blocks=3, max_outcomes=3, max_cols=7, max_den=3)
        copies = [c]
        if case % 15 == 0:
            blocks = [[[float(x) for x in row] for row in block] for block in c.blocks]
            copies.append(cope_matrix(blocks, backend=floating()))
        for matrix in copies:
            data = emit_certificate(certify(matrix), matrix)
            cert, loaded = parse_certificate(data)
            assert emit_certificate(cert, loaded) == data, case
            verdicts.add((cert.verdict, matrix.backend.is_exact))
    assert {verdict for verdict, _ in verdicts} >= {"Noncontextual", "Contextual"}
    assert {is_exact for _, is_exact in verdicts} == {True, False}


def test_exhaustive_decision_agrees_with_the_complete_decision():
    # Whenever the exhaustive decision answers for every inner dimension
    # (an Exists model, or a NotExists proof marked all_k), the vertex
    # program answers the same.
    rng = random.Random(4243)
    answers = set()
    compared = 0
    while compared < 150:
        c = random_cope(rng, max_blocks=2, max_outcomes=3, max_cols=6, max_den=3)
        if c.n_rows + c.n_preparations > 10:
            continue
        compared += 1
        k = min(rank(c) + compared % 3, 5)
        try:
            answer = exhaustive_enmf_decision(c, k)
        except GuardExceeded:
            continue
        if isinstance(answer, NotExists) and not answer.all_k:
            continue
        expected = ExistenceResult if isinstance(answer, Exists) else AbsenceResult
        assert isinstance(decide_enmf_existence(c), expected), compared
        answers.add(type(answer))
    assert answers == {Exists, NotExists}


# --- hypothesis strategies ----------------------------------------------------


@st.composite
def small_cope(draw):
    n_blocks = draw(st.integers(1, 2))
    sizes = [draw(st.integers(1, 3)) for _ in range(n_blocks)]
    n_cols = draw(st.integers(1, 4))
    blocks = []
    for size in sizes:
        cols = []
        for _ in range(n_cols):
            den = draw(st.integers(1, 4))
            cuts = sorted(draw(st.integers(0, den)) for _ in range(size - 1))
            parts = []
            prev = 0
            for cut in cuts:
                parts.append(cut - prev)
                prev = cut
            parts.append(den - prev)
            cols.append([Fraction(p, den) for p in parts])
        blocks.append([[cols[j][i] for j in range(n_cols)] for i in range(size)])
    return cope_matrix(blocks, backend=rational())


@settings(max_examples=60, deadline=None)
@given(small_cope())
def test_stochasticity_preserved_by_operations(c):
    assert validate(merge_measurements(c)) == []
    assert validate(quotient_extremal(c).quotiented) == []


@settings(max_examples=60, deadline=None)
@given(small_cope())
def test_merge_rank_invariant(c):
    assert rank(merge_measurements(c)) == rank(c)


@settings(max_examples=40, deadline=None)
@given(small_cope())
def test_quotient_idempotent(c):
    once = quotient_extremal(c).quotiented
    assert quotient_extremal(once).quotiented.equals(once)


@settings(max_examples=40, deadline=None)
@given(small_cope())
def test_gpt_always_equirank(c):
    report = classify_model(c, gpt(c))
    assert ModelKind.GPT in report.inferred_kinds
