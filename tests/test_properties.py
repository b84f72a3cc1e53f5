"""Randomized factorization properties over small exact matrices.

One seeded sweep of 1000 generated instances (up to 6x6, denominators up to
4) drives the factorization postconditions; hypothesis covers structural
invariants of the matrix operations with shrinking.  Three seeded sweeps
check the certifier's evidence: every certificate survives the wire format
byte for byte, the exhaustive decision agrees with the complete one, and
the complete one gives the reference vertex program's bytes without solving
it when Q is a simplex and its verdict elsewhere.  Seeded hypothesis draws
check that every absence witness checks on its matrix and fails on a noisy
copy that has a model.  One more, over the exact benchmark pools and seeded
draws, checks that the exact work certify skips could not have changed an
answer: every vertex of Q has rank - 1 zeros or more, the forcing gate
agrees with ungated forcing, and the pruned rank-r search proposes the
reference search's pairs.  The pruned Sperner search returns the witness of
the unpruned one on the pools' zero patterns and on seeded ones.  On the
same pools and draws, the contextual tiers fire only where the decision
finds no model, and certify's verdict is the decision's; and the rank,
echelon form and independent rows read off C's integer rows are those of C'.
"""

import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from copekit import (
    GuardExceeded,
    ModelKind,
    NmfOptions,
    certify,
    classify_model,
    emit_certificate,
    emit_model,
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
from copekit import cope as cope_mod
from copekit import rational_linalg as rla
from copekit.backend import floating, rational
from copekit.certify import (
    Certificate,
    Exists,
    NotExists,
    _check,
    vertex_forcing_certificate,
)
from copekit.cope import cope_matrix
from copekit.enmf_decision import AbsenceResult, ExistenceResult, decide_enmf_existence
from copekit.nmf import _plane_extremal, _simplex_pairs, equirank_simplex_model
from copekit.polytope import _Derived
from copekit.sperner import _max_unique_zero, _zero_pattern, sperner_submatrix

from oracles import (
    random_cope,
    reference_independent_rows,
    reference_max_matching,
    reference_rref,
    reference_simplex_pairs,
    reference_vertex_decision,
    reference_vertex_forcing,
)

CASES = 1000
FACE_DRAWS = 200
ZERO_PATTERNS = 400
PLANE_DRAWS = 200


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


def test_simplex_q_decision_is_identical_to_the_vertex_program():
    # On a simplex Q the decision builds no program; its model must be the
    # bytes of the reference vertex program's one solution.  Draws whose Q
    # has more vertices than the rank are decided by the product program
    # over Q x Q*, whose verdict must be the vertex program's.
    rng = random.Random(1717)
    simplex_ranks = []
    compared = 0
    while len(simplex_ranks) < 150:
        c = random_cope(rng, max_blocks=2, max_outcomes=3, max_cols=5, max_den=3)
        d = _Derived(c)
        model, _ = reference_vertex_decision(d)
        decision = decide_enmf_existence(c)
        assert isinstance(decision, AbsenceResult if model is None else ExistenceResult), compared
        if len(d.polytope.vertices) == d.rank:
            assert emit_model(decision.model) == emit_model(model), compared
            simplex_ranks.append(d.rank)
        compared += 1
    assert set(simplex_ranks) == {1, 2, 3}
    assert compared > len(simplex_ranks)


def _white_noise(c, lam):
    """(1 - lam) C + lam times each block's mean column: the same shape, and
    for lam < 1 the same rank, as C is multiplied by an invertible matrix."""
    n = c.n_preparations
    blocks = [
        [[(1 - lam) * x + lam * sum(row) / n for x in row] for row in block] for block in c.blocks
    ]
    return cope_matrix(blocks, backend=rational())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_the_product_program_decides_as_the_vertex_program_and_its_witness_checks(seed):
    # Seeded draws up to the first absence: each product verdict is the
    # reference vertex program's.  The absence's witness checks on its
    # matrix, and fails on a noisy copy of it that has a model, as a sound
    # witness must.
    rng = random.Random(seed)
    for _ in range(100):
        c = random_cope(rng, max_blocks=3, max_outcomes=2, max_cols=6, max_den=3)
        d = _Derived(c)
        model, _ = reference_vertex_decision(d)
        assert isinstance(d.decision, AbsenceResult if model is None else ExistenceResult)
        if model is None:
            break
    else:
        return
    cert = Certificate("Contextual", d.decision, d.rank)
    assert _check(d, cert) is None
    for lam in (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)):
        noisy = _Derived(_white_noise(c, lam))
        if isinstance(noisy.decision, ExistenceResult):
            assert noisy.rank == d.rank
            assert _check(noisy, cert)[0] == "evidence"
            break


# --- pruning that changes no answer -------------------------------------------


@pytest.fixture(scope="module")
def face_draws(exact_pool_matrices):
    # The exact matrices of the benchmark pools and seeded draws, each with
    # one derived view, so each Q is enumerated once for the tests below.
    rng = random.Random(2026)
    draws = exact_pool_matrices + [random_cope(rng) for _ in range(FACE_DRAWS)]
    return [_Derived(c) for c in draws]


def test_every_vertex_of_q_has_at_least_rank_minus_one_zeros(face_draws):
    # Q has dimension r - 1, so a vertex is tight at r - 1 or more of the
    # constraints x_i >= 0: the fact behind the forcing gate.
    tight = 0
    for case, d in enumerate(face_draws):
        zeros = [v.count(0) for v in d.polytope.vertices]
        assert min(zeros) >= d.rank - 1, case
        tight += min(zeros) == d.rank - 1
    assert tight > len(face_draws) // 2


def test_integer_rows_read_as_the_merged_matrix(face_draws):
    # Each integer row of C is a positive multiple of the same row of C', so
    # the rank, the echelon form and the independent rows read off them are
    # those of C', and the forcing gate's integer columns keep the merged
    # columns' distinct count and zeros.
    multi_block = 0
    for case, d in enumerate(face_draws):
        merged = d.merged.stacked()
        red, pivots = reference_rref(merged)
        assert d.echelon[1] == pivots and d.rank == len(pivots), case
        n = len(merged[0])
        rows = [[Fraction(row.get(j, 0), row[pc]) for j in range(n)] for (row, _), pc in zip(d.echelon[0], pivots)]
        assert rows == red[:len(pivots)], case
        assert d.independent_rows == reference_independent_rows(merged), case
        columns = set(zip(*merged))
        integer_columns = set(zip(*(row for row, _ in d.integer_rows)))
        assert len(integer_columns) == len(columns), case
        zeros = sorted(col.count(0) for col in columns)
        assert sorted(col.count(0) for col in integer_columns) == zeros, case
        multi_block += d.c.n_measurements > 1
    assert len(face_draws) >= FACE_DRAWS and multi_block >= FACE_DRAWS // 4


def test_forcing_gate_rejects_no_matrix_that_forcing_decides(face_draws):
    # The gate answers None before Q is built; the ungated test must agree
    # on every draw, the ones where forcing fires among them.
    fired = 0
    for case, d in enumerate(face_draws):
        expected = reference_vertex_forcing(d)
        assert vertex_forcing_certificate(d) == expected, case
        fired += expected is not None
    assert fired >= 4


def test_pruned_rank_r_search_is_the_reference_search(face_draws, monkeypatch):
    # The face filter and the extremal count that stops once decided skip
    # only candidates that give None: the same pairs come out in the same
    # order, so the models and decisions keep their bytes.
    def outputs(c):
        model = equirank_simplex_model(c)
        try:
            decision = exhaustive_enmf_decision(c, rank(c))
        except GuardExceeded as exc:
            decision = str(exc)
        if isinstance(decision, Exists):
            decision = emit_model(decision.model)
        return None if model is None else emit_model(model), repr(decision)

    pruned = []
    proposed = 0
    for case, d in enumerate(face_draws):
        pairs = [pair for pair in _simplex_pairs(d) if pair]
        assert pairs == [pair for pair in reference_simplex_pairs(d) if pair], case
        proposed += bool(pairs)
        pruned.append(outputs(d.c))
    assert proposed >= 20
    monkeypatch.setattr(importlib.import_module("copekit.nmf"), "_simplex_pairs", reference_simplex_pairs)
    assert pruned == [outputs(d.c) for d in face_draws]


def _from_columns(columns, block_sizes):
    rows = list(zip(*columns))
    starts = [sum(block_sizes[:b]) for b in range(len(block_sizes))]
    return cope_matrix([rows[s : s + size] for s, size in zip(starts, block_sizes)], backend=rational())


def test_plane_hull_reads_the_extremal_columns():
    # At rank 3 the extremal columns are read off the strict hull of their
    # points in Q's chart, an affine bijection of Q's plane: they must be the
    # columns for which the LP finds no convex combination of the others.
    half, third = Fraction(1, 2), Fraction(1, 3)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    a, b = Fraction(37, 42), Fraction(5, 42)
    qubit = [(1, 0, a, b), (0, 1, b, a), (a, b, 1, 0), (b, a, 0, 1)]
    mid = [tuple((x + y) / 2 for x, y in zip(qubit[0], q)) for q in qubit[1:3]]
    # A column on an edge, an interior one and a duplicate, on a simplex Q
    # and on the 2-pair qubit's square, whose 0-2 side is an edge and 0-1
    # side a diagonal.
    crafted = [
        (_Derived(_from_columns([e1, e2, e3, (half, half, 0), (third, third, third), e1], [3])), 3),
        (_Derived(_from_columns([*qubit, mid[1], mid[0], qubit[3]], [2, 2])), 4),
    ]
    rng = random.Random(2026)
    draws = []
    while len(draws) < PLANE_DRAWS:
        d = _Derived(random_cope(rng))
        if d.rank == 3:
            draws.append((d, None))
    dropped = 0
    for case, (d, n_extremal) in enumerate(crafted + draws):
        assert d.rank == 3, case
        cols = list(dict.fromkeys(zip(*d.merged.stacked())))
        expected = [col for j, col in enumerate(cols) if cope_mod._is_extremal(d.c.backend, cols, j)]
        assert _plane_extremal(d) == expected, case
        assert n_extremal in (None, len(expected)), case
        dropped += len(expected) < len(cols)
    assert dropped >= 50


def test_sperner_search_is_the_reference_search(exact_pool_matrices):
    # The candidate filter and the free row and column bound cut only
    # branches that cannot beat the best set, so the first largest set in
    # depth-first order, the reference's witness, comes out.  Up to 9 x 9:
    # totals above 12, where a greedy used to answer instead.
    rng = random.Random(2026)
    patterns = [_zero_pattern(c) for c in exact_pool_matrices]
    for _ in range(ZERO_PATTERNS):
        n_rows, n_cols, p = rng.randint(2, 9), rng.randint(2, 9), rng.choice((0.2, 0.35, 0.5))
        patterns.append([[rng.random() < p for _ in range(n_cols)] for _ in range(n_rows)])
    above_12 = large = 0
    for case, zero in enumerate(patterns):
        edges = [(i, j) for i, row in enumerate(zero) for j, z in enumerate(row) if z]
        expected = reference_max_matching(zero, edges)
        assert _max_unique_zero(zero, edges) == expected, case
        above_12 += len(zero) + len(zero[0]) > 12
        large += len(expected) >= 4
    assert above_12 >= 100 and large >= 50


# --- verdicts that agree across tiers -----------------------------------------


def test_contextual_tiers_imply_an_absence_and_certify_gives_the_decision(face_draws):
    # Forcing and a Sperner span bound above the rank are sound, so wherever
    # either fires the complete decision finds no model.  Every decided model
    # re-verifies as equirank noncontextual, and certify's verdict is the
    # decision's wherever no guard stopped the decision.
    fired = models = absences = 0
    for case, d in enumerate(face_draws):
        decision = d.decision
        if decision is None:
            continue
        witness = sperner_submatrix(d.c)
        if vertex_forcing_certificate(d) is not None or (witness and witness.factor_span_lower_bound > d.rank):
            assert isinstance(decision, AbsenceResult), case
            fired += 1
        if isinstance(decision, ExistenceResult):
            report = classify_model(d.c, decision.model)
            assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds, case
            models += 1
        else:
            absences += 1
        expected = "Noncontextual" if isinstance(decision, ExistenceResult) else "Contextual"
        assert certify(d.c).verdict == expected, case
    assert fired >= 5 and models >= 300 and absences >= 20


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
