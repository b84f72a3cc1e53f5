import random
from fractions import Fraction

import pytest

from copekit import (
    FragmentRestriction,
    GuardExceeded,
    ModelKind,
    NmfOptions,
    certify,
    classify_model,
    cope_matrix,
    emit_certificate,
    emit_model,
    nmf,
    rank,
    restrict_fragment,
    spekkens,
)
from copekit import enmf_decision
from copekit.cope import PreconditionError
from copekit.enmf_decision import (
    AbsenceResult,
    ExistenceResult,
    decide_enmf_existence,
)
from copekit.polytope import _Derived

from oracles import random_cope, reference_witness_holds

H = Fraction(1, 2)


def test_spekkens_existence(spekkens_matrix):
    d = decide_enmf_existence(spekkens_matrix)
    assert isinstance(d, ExistenceResult)
    report = classify_model(spekkens_matrix, d.model)
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds


def test_boxworld_absence_with_farkas(boxworld_matrix):
    # The Farkas vector of the product program, read as a 3 x 3 matrix M on
    # the independent rows and pivot columns of C': every vertex pair of
    # Q x Q* obeys q^T M w <= 0 and C' violates it, checked here in Fractions.
    d = decide_enmf_existence(boxworld_matrix)
    assert isinstance(d, AbsenceResult)
    assert (d.rows, d.cols) == ((0, 1, 2), (0, 1, 2))
    assert d.inequality == ((-1, 0, -1), (-3, -1, 1), (1, -1, 1))
    assert reference_witness_holds(boxworld_matrix, d.rows, d.cols, d.inequality)


def test_extended_boxworld_absence(ebw_matrix):
    assert isinstance(decide_enmf_existence(ebw_matrix), AbsenceResult)


def test_toy_bit_fragment_exists_at_dimension_four(spekkens_matrix):
    # The 4x4 restriction has no equirank model at inner dimension 3 (its
    # column polygon is the midpoint square of the span polygon), but the
    # span polygon's own vertices give one at inner dimension 4.
    frag = restrict_fragment(FragmentRestriction(spekkens_matrix, (0, 1, 2, 3), (0, 1)))
    d = decide_enmf_existence(frag)
    assert isinstance(d, ExistenceResult)
    assert d.model.inner_dim == 4
    report = classify_model(frag, d.model)
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds
    assert report.rank_effects == report.rank_states == 3


def test_identity_exists():
    ident = cope_matrix([[[1, 0], [0, 1]]])
    d = decide_enmf_existence(ident)
    assert isinstance(d, ExistenceResult)


def test_float_backend_rejected():
    from copekit.backend import floating

    c = cope_matrix([[[0.5, 0.5], [0.5, 0.5]]], backend=floating())
    with pytest.raises(PreconditionError):
        decide_enmf_existence(c)


def test_absence_consistent_with_heuristic_search():
    # Wherever the complete decision proves absence, the heuristic search
    # must fail too; wherever it proves existence, the witness re-verifies.
    rng = random.Random(33)
    absences = 0
    for _ in range(60):
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=4, max_den=2)
        d = decide_enmf_existence(c)
        if isinstance(d, ExistenceResult):
            report = classify_model(c, d.model)
            assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds
        else:
            absences += 1
            r = rank(c)
            heur = nmf(c, NmfOptions(inner_dim=r, max_restarts=4, max_iterations=250))
            assert heur is None
    assert absences >= 1


def test_planar_decision_consistent_with_complete_decision():
    # For rank-3 instances: the complete decision and the nested-triangle
    # decision must agree on inner dimension 3 in the only direction the
    # triangle settles alone (absence at every dimension implies absence of
    # a triangle; an existing triangle implies global existence).
    from copekit.nmf import equirank_simplex_model

    rng = random.Random(44)
    seen_rank3 = 0
    for _ in range(150):
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=4, max_den=2)
        if rank(c) != 3:
            continue
        seen_rank3 += 1
        total = decide_enmf_existence(c)
        simplex = equirank_simplex_model(c)
        if simplex is not None:
            assert isinstance(total, ExistenceResult)
        if isinstance(total, AbsenceResult):
            assert simplex is None
        if seen_rank3 >= 25:
            break
    assert seen_rank3 >= 10


def _simplex_q(c) -> bool:
    d = _Derived(c)
    return len(d.polytope.vertices) == d.rank


def test_certify_solves_the_vertex_program_only_when_q_is_not_a_simplex(monkeypatch):
    # A simplex Q fixes the program's one solution, so certifying the
    # acceptance-8 batch solves it only on the 14 instances that reach the
    # decision with more vertices than the rank.
    from test_certify import _acceptance_8_batch, _count_calls

    calls = _count_calls(monkeypatch, "copekit.rational_linalg", "lp_feasibility")
    solved = 0
    for case, c in enumerate(_acceptance_8_batch()):
        calls.clear()
        certify(c)
        if _simplex_q(c):
            assert calls == [], case
        else:
            assert len(calls) <= 1, case
            solved += len(calls)
    assert solved == 14


def test_simplex_q_is_decided_below_the_program_cap(monkeypatch):
    # Rank 2 with four columns: Q is the segment between (1, 0) and (0, 1).
    # With the cap at zero no program fits, yet the simplex answer needs
    # none, and certify emits the same bytes as with the cap left alone.
    c = cope_matrix([[[1, 0, H, H], [0, 1, H, H]]])
    assert rank(c) == 2 and _simplex_q(c)
    expected = emit_certificate(certify(c), c)
    model = decide_enmf_existence(c).model
    monkeypatch.setattr(enmf_decision, "_LP_VARIABLE_CAP", 0)
    decision = decide_enmf_existence(c)
    assert isinstance(decision, ExistenceResult)
    assert emit_model(decision.model) == emit_model(model)
    assert emit_certificate(certify(c), c) == expected
    # A Q that is not a simplex still meets the cap.
    with pytest.raises(GuardExceeded):
        decide_enmf_existence(restrict_fragment(FragmentRestriction(spekkens(), (0, 1, 2, 3), (0, 1))))
