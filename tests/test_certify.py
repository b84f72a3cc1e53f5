import hashlib
import importlib
import random
from fractions import Fraction

import pytest

from copekit import (
    CONTEXTUAL,
    NONCONTEXTUAL,
    UNDETERMINED,
    EnmfModel,
    ExhaustiveAbsence,
    FragmentRestriction,
    GuardExceeded,
    ModelKind,
    NmfOptions,
    SpernerSeparation,
    VertexForcing,
    boxworld,
    cardinal_directions,
    certify,
    classify_model,
    cope_matrix,
    discrete_qubit,
    emit_certificate,
    emit_cope,
    emit_model,
    enmf,
    exhaustive_enmf_decision,
    extended_boxworld,
    generic_directions,
    rank,
    rational,
    restrict_fragment,
    spekkens,
    sperner_submatrix,
    vertex_forcing_certificate,
)
from copekit.certify import Exists, NotExists
from copekit.cope import PreconditionError
from copekit.enmf_decision import decide_enmf_existence
from copekit.polytope import _Derived

from oracles import random_cope

H = Fraction(1, 2)


# --- vertex forcing ------------------------------------------------------------


def test_boxworld_forcing(boxworld_matrix):
    result = vertex_forcing_certificate(boxworld_matrix)
    assert result is not None
    poly, forced = result
    assert forced == 4 > rank(boxworld_matrix)


def test_extended_boxworld_forcing(ebw_matrix):
    result = vertex_forcing_certificate(ebw_matrix)
    assert result is not None
    assert result[1] == 5 > 4


def test_spekkens_forcing_absent(spekkens_matrix):
    assert vertex_forcing_certificate(spekkens_matrix) is None


def test_forcing_requires_exact_backend():
    from copekit.backend import floating

    c = cope_matrix([[[0.5, 0.5], [0.5, 0.5]]], backend=floating())
    with pytest.raises(PreconditionError):
        vertex_forcing_certificate(c)


# --- exhaustive decision ---------------------------------------------------------


def test_exhaustive_boxworld(boxworld_matrix):
    d = exhaustive_enmf_decision(boxworld_matrix, 3)
    assert isinstance(d, NotExists)
    assert d.all_k


def test_exhaustive_fragment(spekkens_matrix):
    frag = restrict_fragment(FragmentRestriction(spekkens_matrix, (0, 1, 2, 3), (0, 1)))
    d3 = exhaustive_enmf_decision(frag, 3)
    assert isinstance(d3, NotExists) and not d3.all_k
    d4 = exhaustive_enmf_decision(frag, 4)
    assert isinstance(d4, Exists)
    assert d4.model.inner_dim <= 4
    assert d4.model.kind == ModelKind.NONCONTEXTUAL_ONTOLOGICAL


def test_exhaustive_identity():
    ident = cope_matrix([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    d = exhaustive_enmf_decision(ident, 3)
    assert isinstance(d, Exists)
    assert d.model.kind == ModelKind.NONCONTEXTUAL_ONTOLOGICAL


def test_exhaustive_below_rank(spekkens_matrix):
    frag = restrict_fragment(FragmentRestriction(spekkens_matrix, (0, 1, 2, 3), (0, 1)))
    d = exhaustive_enmf_decision(frag, 2)
    assert isinstance(d, NotExists) and not d.all_k


def test_exhaustive_padding(spekkens_matrix):
    ident = cope_matrix([[[1, 0], [0, 1]]])
    d = exhaustive_enmf_decision(ident, 4)
    assert isinstance(d, Exists)
    assert d.model.inner_dim == 4
    report = classify_model(ident, d.model)
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds
    assert d.model.kind == ModelKind.NONCONTEXTUAL_ONTOLOGICAL


def test_exhaustive_guards(spekkens_matrix):
    with pytest.raises(GuardExceeded):
        exhaustive_enmf_decision(spekkens_matrix, 4)  # 6 + 6 > 10
    ident = cope_matrix([[[1, 0], [0, 1]]])
    with pytest.raises(GuardExceeded):
        exhaustive_enmf_decision(ident, 6)  # k > 5
    from copekit.backend import floating

    float_c = cope_matrix([[[0.5, 0.5], [0.5, 0.5]]], backend=floating())
    with pytest.raises(PreconditionError):
        exhaustive_enmf_decision(float_c, 2)


# --- certify pipeline -------------------------------------------------------------


def test_certify_spekkens(spekkens_matrix):
    cert = certify(spekkens_matrix)
    assert cert.verdict == NONCONTEXTUAL
    assert isinstance(cert.evidence, EnmfModel)
    report = classify_model(spekkens_matrix, cert.evidence.model)
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds
    assert report.rank_effects == 4


def test_certify_boxworld(boxworld_matrix):
    cert = certify(boxworld_matrix)
    assert cert.verdict == CONTEXTUAL
    assert isinstance(cert.evidence, VertexForcing)
    assert cert.evidence.forced_rank == 4 > cert.rank == 3


def test_certify_extended_boxworld(ebw_matrix):
    cert = certify(ebw_matrix)
    assert cert.verdict == CONTEXTUAL
    assert isinstance(cert.evidence, VertexForcing)
    assert cert.evidence.forced_rank == 5 > cert.rank == 4


def test_certify_qubit_sperner():
    q = discrete_qubit(generic_directions(5, seed=11))
    cert = certify(q)
    assert cert.verdict == CONTEXTUAL
    assert isinstance(cert.evidence, SpernerSeparation)
    assert cert.evidence.witness.factor_span_lower_bound == 5 > cert.rank == 4
    assert cert.notes  # sidedness note recorded


def test_certify_identity_and_restrictions():
    ident = cope_matrix([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert certify(ident).verdict == NONCONTEXTUAL
    sub = restrict_fragment(FragmentRestriction(ident, (0, 2), (0,)))
    assert certify(sub).verdict == NONCONTEXTUAL


def test_certify_single_prep_single_measurement(spekkens_matrix):
    frag = restrict_fragment(FragmentRestriction(spekkens_matrix, (0,), (0,)))
    assert certify(frag).verdict == NONCONTEXTUAL


def test_certify_float_without_witness_is_undetermined():
    from copekit.backend import floating

    # Strictly positive float matrix admits no Sperner witness, and the
    # geometric tiers require exact entries: honest answer is Undetermined
    # unless the heuristic finds an equirank model.
    c = cope_matrix(
        [[[0.6, 0.3, 0.5], [0.4, 0.7, 0.5]], [[0.2, 0.9, 0.4], [0.8, 0.1, 0.6]]],
        backend=floating(),
    )
    cert = certify(c, NmfOptions(inner_dim=1, max_restarts=2, max_iterations=60))
    assert cert.verdict in (NONCONTEXTUAL, UNDETERMINED)
    if cert.verdict == UNDETERMINED:
        assert cert.searched_k_range is not None


def test_nmf_absence_at_rank_agrees_with_exact_decision():
    # On matrices up to 4x4 the rank-dimension search is complete, so the
    # heuristic's absence answers must coincide with the exact decision.
    from copekit import nmf

    rng = random.Random(99)
    frag = restrict_fragment(
        FragmentRestriction(
            cope_matrix(
                [
                    [[1, 0, H, H, H, H], [0, 1, H, H, H, H]],
                    [[H, H, 1, 0, H, H], [H, H, 0, 1, H, H]],
                    [[H, H, H, H, 1, 0], [H, H, H, H, 0, 1]],
                ]
            ),
            (0, 1, 2, 3),
            (0, 1),
        )
    )
    from copekit import boxworld as bw

    cases = [bw(), frag] + [
        random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=4, max_den=2)
        for _ in range(58)
    ]
    exists_seen = absent_seen = 0
    for c in cases:
        r = rank(c)
        found = nmf(c, NmfOptions(inner_dim=r, max_restarts=2, max_iterations=100))
        decision = exhaustive_enmf_decision(c, r)
        if isinstance(decision, Exists):
            assert found is not None
            exists_seen += 1
        else:
            assert found is None
            absent_seen += 1
    assert exists_seen >= 5 and absent_seen >= 2


def test_noncontextual_certificates_always_reverify():
    rng = random.Random(51)
    for _ in range(25):
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=4, max_den=2)
        cert = certify(c, NmfOptions(inner_dim=1, max_restarts=2, max_iterations=120))
        if cert.verdict == NONCONTEXTUAL:
            report = classify_model(c, cert.evidence.model)
            assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds
        elif cert.verdict == CONTEXTUAL:
            assert cert.evidence is not None


# --- one decision program per certify --------------------------------------------


def _count_lp_solves(monkeypatch):
    from copekit import rational_linalg

    calls = []
    solve = rational_linalg.lp_feasibility

    def counted(a_eq, b_eq):
        calls.append(len(a_eq))
        return solve(a_eq, b_eq)

    monkeypatch.setattr(rational_linalg, "lp_feasibility", counted)
    return calls


def test_absence_solves_the_vertex_program_once(monkeypatch):
    # Drawn by the acceptance-8 recipe (random_cope at seed 808): neither
    # vertex forcing nor a Sperner witness decides it, so the decision's one
    # program over Q x Q* does, solved once.
    c = cope_matrix(
        [
            [[1, H, 1, 0, 0], [0, H, 0, 1, 1]],
            [[H, 1, H, 1, H], [H, 0, H, 0, H]],
        ],
        backend=rational(),
    )
    assert vertex_forcing_certificate(c) is None
    witness = sperner_submatrix(c)
    assert witness is None or witness.factor_span_lower_bound <= rank(c)
    calls = _count_lp_solves(monkeypatch)
    cert = certify(c)
    assert isinstance(cert.evidence, ExhaustiveAbsence)
    assert len(calls) == 1


def test_forcing_decides_boxworld_without_a_vertex_program(monkeypatch, boxworld_matrix):
    calls = _count_lp_solves(monkeypatch)
    cert = certify(boxworld_matrix)
    assert isinstance(cert.evidence, VertexForcing)
    assert calls == []


def test_enmf_accepts_a_precomputed_decision(monkeypatch, spekkens_matrix):
    d = _Derived(spekkens_matrix)
    d.decision = decide_enmf_existence(spekkens_matrix)
    calls = _count_lp_solves(monkeypatch)
    model = enmf(d, NmfOptions())
    assert calls == []
    report = classify_model(spekkens_matrix, model)
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds


def test_max_k_below_rank_is_clamped_to_rank(spekkens_matrix):
    # enmf searches k = rank for any smaller bound; the certificate says so.
    cert = certify(spekkens_matrix, max_k=0)
    assert cert.searched_k_range == (4, 4)
    assert cert.verdict == NONCONTEXTUAL
    assert cert.evidence.model == certify(spekkens_matrix).evidence.model


def test_decided_model_above_rank_ends_the_search(monkeypatch, rational_qubit_2):
    # Decided at inner dimension 4 > rank 3: no restart runs, and the
    # decided model is returned with or without the searched range covering it.
    def no_restarts(arr, widths, seeds, iterations):
        raise AssertionError("heuristic restarts ran on a decided exact matrix")

    monkeypatch.setattr(importlib.import_module("copekit.nmf"), "_restarts", no_restarts)
    c = rational_qubit_2
    short = certify(c, max_k=3)
    assert short.verdict == NONCONTEXTUAL
    assert short.evidence.model.inner_dim == 4
    assert short.searched_k_range == (3, 3)
    assert any("may exceed the searched range" in note for note in short.notes)
    full = certify(c)
    assert full.verdict == NONCONTEXTUAL
    assert full.evidence.model == short.evidence.model
    assert full.notes == ()
    assert enmf(c, NmfOptions(), max_k=3) is None


def test_simplex_model_at_rank_is_verified_once(monkeypatch):
    # Decided at inner dimension 4 > rank 3, with a simplex model at rank 3
    # and no trivial padding (4 preparations): enmf classifies that model
    # once, as noncontextual ontological, and returns it.
    half, third = Fraction(1, 2), Fraction(1, 3)
    blocks = [
        [[0, 0, 2 * third, third], [1, 1, third, 2 * third]],
        [[half, 1, half, half], [half, 0, half, half]],
    ]
    c = cope_matrix(blocks, backend=rational())
    d = _Derived(c)
    d.decision = decision = decide_enmf_existence(c)
    assert rank(c) == 3 and decision.model.inner_dim == 4
    models_mod = importlib.import_module("copekit.models")
    classify, checked = models_mod.classify_model, []

    def spy_classify(matrix, model):
        checked.append(model)
        return classify(matrix, model)

    monkeypatch.setattr(models_mod, "classify_model", spy_classify)
    model = enmf(d, NmfOptions())
    assert model.inner_dim == 3 and model.kind == ModelKind.NONCONTEXTUAL_ONTOLOGICAL
    assert [(m.effects, m.states) for m in checked] == [(model.effects, model.states)]


# --- derived objects, once per call ----------------------------------------------


def _count_calls(monkeypatch, module_name, fn_name):
    module = importlib.import_module(module_name)
    calls = []
    original = getattr(module, fn_name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, fn_name, counted)
    return calls


def test_certify_builds_q_and_rank_once_per_call(monkeypatch):
    # The exact rank, Q's basis and the pivot columns J read one echelon of
    # C', taken from the call's integer rows of C.  Spekkens reaches the
    # decision, which enumerates Q and Q* once each.
    c = spekkens()
    rays = _count_calls(monkeypatch, "copekit.polytope", "extreme_rays")
    eliminations = _count_calls(monkeypatch, "copekit.rational_linalg", "_echelon")
    assert certify(c).verdict == NONCONTEXTUAL
    assert (len(rays), len(eliminations)) == (2, 1)
    certify(c)  # a second call of the same object redoes the work
    assert (len(rays), len(eliminations)) == (4, 2)


def test_the_decision_is_one_slot_of_the_call(monkeypatch, perfbench_corpus, rational_qubit_2):
    # certify decides each exact instance that reaches the decision once,
    # through _Derived.decision, which asks decide_enmf_existence itself.
    decisions = _count_calls(monkeypatch, "copekit.enmf_decision", "decide_enmf_existence")
    reached = 0
    for inst in perfbench_corpus.build("exact-corpus"):
        before = len(decisions)
        decided = not isinstance(certify(inst.matrix).evidence, (VertexForcing, SpernerSeparation))
        assert len(decisions) - before == decided
        reached += decided
    assert reached >= 3

    # Float: None, and the decision is not asked.
    before = len(decisions)
    assert _Derived(discrete_qubit(cardinal_directions())).decision is None
    assert len(decisions) == before

    # A guard stops the decision: None here, while the exhaustive decision,
    # which asks it directly, still raises.
    monkeypatch.setattr(importlib.import_module("copekit.enmf_decision"), "_LP_VARIABLE_CAP", 0)
    assert _Derived(rational_qubit_2).decision is None
    with pytest.raises(GuardExceeded):
        exhaustive_enmf_decision(rational_qubit_2, rank(rational_qubit_2))


def test_certify_converts_the_rows_of_c_once(monkeypatch):
    # Spekkens is decided by a model, which the decision verifies; certify's
    # check reads that report back: one exact classification, one conversion of C.
    from functools import cached_property

    from copekit.polytope import _Derived

    conversions = []
    rows_of = _Derived.integer_rows.func

    def counted(self):
        conversions.append(self)
        return rows_of(self)

    prop = cached_property(counted)
    prop.__set_name__(_Derived, "integer_rows")
    monkeypatch.setattr(_Derived, "integer_rows", prop)
    classifications = _count_calls(monkeypatch, "copekit.models", "_exact_flags")
    assert certify(spekkens()).verdict == NONCONTEXTUAL
    assert (len(classifications), len(conversions)) == (1, 1)


def test_certify_eliminates_the_merged_matrix_once(monkeypatch):
    # Q's basis, Q*'s rows and the program's columns read one echelon form of C',
    # taken from the call's integer rows of C; no rref or rank eliminates again.
    c = spekkens()
    eliminations = _count_calls(monkeypatch, "copekit.rational_linalg", "_echelon")
    rrefs = _count_calls(monkeypatch, "copekit.rational_linalg", "rref")
    ranks = _count_calls(monkeypatch, "copekit.rational_linalg", "rank")
    assert certify(c).verdict == NONCONTEXTUAL
    assert (len(eliminations), len(rrefs), len(ranks)) == (1, 0, 0)


def test_a_loaded_certificate_classifies_its_model_again(monkeypatch):
    # The report a certify call keeps lives on that call's derived view; a
    # loaded certificate gets a fresh one and is classified in full.
    from copekit import parse_certificate

    c = spekkens()
    data = emit_certificate(certify(c), c)
    classifications = _count_calls(monkeypatch, "copekit.models", "_exact_flags")
    cert, _ = parse_certificate(data)
    assert cert.verdict == NONCONTEXTUAL and len(classifications) == 1


def test_only_accepted_models_keep_their_report(spekkens_matrix, perfbench_corpus):
    from copekit.models import _verified_model
    from copekit.nmf import _trivial_padded, equirank_simplex_model
    from copekit.polytope import _Derived

    # The trivial model of Spekkens is ontological but not equirank.
    d = _Derived(spekkens_matrix)
    trivial = _trivial_padded(d, spekkens_matrix.n_preparations)
    assert _verified_model(d, *trivial, ModelKind.NONCONTEXTUAL_ONTOLOGICAL) is None
    assert d.reports == {}
    model = _verified_model(d, *trivial, ModelKind.ONTOLOGICAL)
    assert list(d.reports.values()) == [(model, classify_model(spekkens_matrix, model))]

    # The 3-pair rational qubit: no simplex candidate at rank(C) is kept.
    corpus = perfbench_corpus
    d = _Derived(corpus.rational_qubit(corpus.rational_directions(3)))
    model = equirank_simplex_model(d)
    assert [m for m, _ in d.reports.values()] == ([] if model is None else [model])


def test_absence_builds_q_once(monkeypatch):
    # The instance of test_absence_solves_the_vertex_program_once: Q and Q*
    # are enumerated once each, for the decision and the witness check.
    c = cope_matrix(
        [
            [[1, H, 1, 0, 0], [0, H, 0, 1, 1]],
            [[H, 1, H, 1, H], [H, 0, H, 0, H]],
        ],
        backend=rational(),
    )
    rays = _count_calls(monkeypatch, "copekit.polytope", "extreme_rays")
    assert isinstance(certify(c).evidence, ExhaustiveAbsence)
    assert len(rays) == 2


def test_exhaustive_decision_builds_q_once(monkeypatch):
    # Q and Q* once each: boxworld's absence is the product program's.
    rays = _count_calls(monkeypatch, "copekit.polytope", "extreme_rays")
    exhaustive_enmf_decision(boxworld(), 3)
    assert len(rays) == 2


def _exact_corpus(corpus, name):
    return next(inst.matrix for inst in corpus.build("exact-corpus") if inst.name == name)


@pytest.mark.parametrize("name, subsets, extremal_lps", [
    # Rank 4, 8 vertices of Q, 6 distinct columns: 8 of the 70 four-vertex
    # subsets can hold every column, and the extremal count stops at 5 > 4.
    ("rational_qubit_3", 8, 5),
    # Rank 3, 4 vertices of Q: no three of them can hold every column, and
    # the extremal columns are read off the plane's hull, with no LP.
    ("rational_qubit_2", 0, 0),
])
def test_rank_r_search_builds_only_what_could_verify(name, subsets, extremal_lps, monkeypatch,
                                                      perfbench_corpus):
    c = _exact_corpus(perfbench_corpus, name)
    inverses = _count_calls(monkeypatch, "copekit.nmf", "_model_from_simplex")
    lps = _count_calls(monkeypatch, "copekit.cope", "_is_extremal")
    assert certify(c).verdict == NONCONTEXTUAL
    assert (len(inverses), len(lps)) == (subsets, extremal_lps)


def test_rank_3_builds_one_plane_per_call(monkeypatch, perfbench_corpus):
    # The extremal columns and the nested triangle read one chart of Q per
    # call, in certify's search and in the exhaustive decision's, which asks
    # the same search and then settles its rank-3 window without a chart.
    c = _exact_corpus(perfbench_corpus, "rational_qubit_2")
    charts = _count_calls(monkeypatch, "copekit.polytope", "affine_chart")
    assert certify(c).verdict == NONCONTEXTUAL
    assert len(charts) == 1
    decision = exhaustive_enmf_decision(c, 3)
    assert isinstance(decision, NotExists) and not decision.all_k
    assert len(charts) == 2
    # A simplex Q yields its model before the extremal step: no chart.
    simplex_q = cope_matrix([[[1, 0, 0, H], [0, 1, 0, H], [0, 0, 1, 0]]], backend=rational())
    assert isinstance(exhaustive_enmf_decision(simplex_q, 3), Exists)
    assert len(charts) == 2


def test_the_exhaustive_window_asks_the_nested_triangle_once(monkeypatch, rational_qubit_2):
    # The simplex search tries the triangle, whose pair verifies whenever it
    # exists; the rank-3 window reads its absence from that search.
    triangles = _count_calls(monkeypatch, "copekit.planar", "nested_triangle")
    decision = exhaustive_enmf_decision(rational_qubit_2, 3)
    assert isinstance(decision, NotExists) and not decision.all_k
    assert len(triangles) == 1


def test_a_square_matrix_decided_above_rank_gets_its_extremal_simplex(monkeypatch):
    # The first random_cope(random.Random(7)) draw with n = rank(C) whose
    # decided model lies above rank (draw 19: 6 x 4, rank 4, decided at 5).
    # Its n merged columns are independent points on the plane sum = 1, so
    # all are extremal, and the extremal route gives the model with effects
    # C and identity states: no trivial pair is padded for it.
    from copekit.enmf_decision import ExistenceResult

    rng = random.Random(7)
    for _ in range(100):
        c = random_cope(rng)
        d = _Derived(c)
        decided = d.decision.model.inner_dim if isinstance(d.decision, ExistenceResult) else 0
        if c.n_preparations == d.rank < decided:
            break
    else:
        pytest.fail("no square draw decided above its rank")
    trivial = _count_calls(monkeypatch, "copekit.nmf", "_trivial_padded")
    cert = certify(c)
    assert trivial == []
    model = cert.evidence.model
    assert model.inner_dim == c.n_preparations
    assert [list(row) for row in model.effects] == c.stacked()
    digest = hashlib.sha256(emit_certificate(cert, c)).hexdigest()
    assert digest == "8de9c494d385e0b3c344971838d6b00e3dcb6f9769f2c20386965027e39bb293"


def test_the_exhaustive_window_beyond_the_routes_raises():
    # Draw 185 is 5 x 5 of rank 4, decided at inner dimension 5: no route
    # settles k = 4, so the decision refuses to guess.
    rng = random.Random(1)
    for _ in range(186):
        c = random_cope(rng, max_blocks=2, max_outcomes=3, max_cols=6, max_den=3)
    assert (c.n_rows, c.n_preparations, rank(c)) == (5, 5, 4)
    with pytest.raises(GuardExceeded, match="window below it is not decidable"):
        exhaustive_enmf_decision(c, 4)


def test_forcing_gate_leaves_q_unbuilt_when_sperner_decides(monkeypatch, perfbench_corpus):
    # rational_qubit_5 is rank 4 and each merged column has one zero, so no
    # column can be a vertex of Q (each has 3 zeros or more) and forcing
    # cannot fire: Q is never built.
    c = _exact_corpus(perfbench_corpus, "rational_qubit_5")
    builds = _count_calls(monkeypatch, "copekit.polytope", "span_simplex_polytope")
    cert = certify(c)
    assert isinstance(cert.evidence, SpernerSeparation)
    assert builds == []


# --- certificate bytes -----------------------------------------------------------

# sha256 of emit_certificate(certify(c), c) (no wall time), recorded before the
# kernel and the tier order changed: faster must mean the same certificate,
# sooner.  Absences were re-pinned once when their evidence became a witness.
CERTIFICATE_DIGESTS = {
    "spekkens": "e46ef10000273e01a77a728bd03f80bf699d7a9f57fc9a5886fce5cdeceaf638",
    "boxworld": "06c1803575e1c98ee0a659f448fe9b2f945de302e3f5221021e66589d6410abf",
    "extended_boxworld": "adf8908e34693b1bcf5b41c8eadda092814a4a6fe919f830b2465a02362aff96",
    "cardinal_qubit": "b4f7a3680945060e865d5f9d57cf90f573d4289000cd2d44c68fbccd631fff63",
    # The rational qubits of the exact-corpus benchmark pool.  The model of
    # 3 pairs has inner dimension 7; the absence of 4 pairs carries a 4 x 4
    # integer noncontextuality inequality, the Farkas vector of the 16 x 144
    # program over Q x Q*; 5 pairs are decided by a Sperner witness.
    "rational_qubit_2": "51fdeabd58003f407761da5efafeb3770d36977ddf6eb4fafc7fae2e851b5559",
    "rational_qubit_3": "c64d5a25717158028b554a436b229e24db708b2fbd66ad7557c5031b074c5e0b",
    "rational_qubit_4": "5d22cdcd32aeb05c0fb450a801d39ab33952cda086429a10aea98052232b120c",
    "rational_qubit_5": "4ab2f5cb9c5562b300508e883d9dbd622a79b7d52419b123d4e9fbec64c39f9b",
}


# sha256 over the concatenated certificates of the acceptance-8 batch (the
# first 200 draws of random_cope at seed 808 with rows + columns <= 10).
ACCEPTANCE_8_DIGEST = "c619259541a0d9b70043a72bb590256b8c3208584c016f42a347a498ada669ab"

# sha256 over emit_model(enmf(c, NmfOptions())) of the same batch, b"None" for
# a None, recorded before the model constructors of nmf, enmf_decision and
# certify were merged into one.
ACCEPTANCE_8_ENMF_DIGEST = "66c38dffa1ae17e8a6822398b181f5eda71c0123d9ed8515b316a98dad1d1daa"


@pytest.mark.parametrize("name", sorted(CERTIFICATE_DIGESTS))
def test_certificate_bytes_are_pinned(name, perfbench_corpus):
    theories = {
        "spekkens": spekkens,
        "boxworld": boxworld,
        "extended_boxworld": extended_boxworld,
        "cardinal_qubit": lambda: discrete_qubit(cardinal_directions()),
    }
    for inst in perfbench_corpus.build("exact-corpus"):
        if inst.name.startswith("rational_qubit_"):
            theories[inst.name] = lambda c=inst.matrix: c
    c = theories[name]()
    digest = hashlib.sha256(emit_certificate(certify(c), c)).hexdigest()
    assert digest == CERTIFICATE_DIGESTS[name]


def _acceptance_8_batch() -> list:
    rng = random.Random(808)
    batch = []
    while len(batch) < 200:
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=6, max_den=2)
        if c.n_rows + c.n_preparations <= 10:
            batch.append(c)
    return batch


def test_acceptance_8_certificate_bytes_are_pinned():
    batch = _acceptance_8_batch()
    data = b"".join(emit_certificate(certify(c), c) for c in batch)
    assert hashlib.sha256(data).hexdigest() == ACCEPTANCE_8_DIGEST


def test_acceptance_8_enmf_bytes_are_pinned():
    models = (enmf(c, NmfOptions()) for c in _acceptance_8_batch())
    data = b"".join(b"None" if m is None else emit_model(m) for m in models)
    assert hashlib.sha256(data).hexdigest() == ACCEPTANCE_8_ENMF_DIGEST


def _misplaced_sperner_zeros(monkeypatch):
    # A witness whose columns are rotated by one, so the zeros leave the diagonal.
    from dataclasses import replace

    certify_mod = importlib.import_module("copekit.certify")  # copekit.certify is the function
    original = certify_mod.sperner_submatrix

    def rotated(c):
        w = original(c)
        return replace(w, col_indices=w.col_indices[1:] + w.col_indices[:1])

    monkeypatch.setattr(certify_mod, "sperner_submatrix", rotated)


def test_certify_rechecks_a_sperner_witness_on_the_way_out(monkeypatch):
    q = discrete_qubit(generic_directions(5, seed=11))
    _misplaced_sperner_zeros(monkeypatch)
    with pytest.raises(AssertionError, match="zero pattern"):
        certify(q)


def test_cli_reports_an_unchecked_sperner_witness_without_traceback(
    monkeypatch, tmp_path, capsys
):
    from copekit.cli import run_cli

    path = tmp_path / "q5.json"
    path.write_bytes(emit_cope(discrete_qubit(generic_directions(5, seed=11))))
    _misplaced_sperner_zeros(monkeypatch)
    assert run_cli(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "internal check failed" in err and "Traceback" not in err


def test_float_restarts_off_by_more_than_eps_are_not_verified(monkeypatch):
    # On the cardinal qubit every restart stalls far above eps, so none can
    # reconstruct C; handing them to classify_model only costs time.
    nmf_mod = importlib.import_module("copekit.nmf")  # copekit.nmf is the function
    models_mod = importlib.import_module("copekit.models")

    c = discrete_qubit(cardinal_directions())
    hopeless, checked = [], []
    restarts, classify = nmf_mod._restarts, models_mod.classify_model

    def spy_restarts(arr, widths, seeds, iterations):
        results = restarts(arr, widths, seeds, iterations)
        for residual, w, h in (result for per_width in results for result in per_width):
            if residual > 2 * c.backend.eps:
                _, h_s = nmf_mod._rescale(w, h, c.block_sizes[0])
                hopeless.append(tuple(map(tuple, h_s.tolist())))
        return results

    def spy_classify(matrix, model):
        checked.append(model.states)
        return classify(matrix, model)

    monkeypatch.setattr(nmf_mod, "_restarts", spy_restarts)
    monkeypatch.setattr(models_mod, "classify_model", spy_classify)
    cert = certify(c)
    assert hopeless and checked
    assert not set(hopeless) & set(checked)
    assert cert.verdict == UNDETERMINED
    digest = hashlib.sha256(emit_certificate(cert, c)).hexdigest()
    assert digest == CERTIFICATE_DIGESTS["cardinal_qubit"]


def test_float_model_found_only_by_the_restarts(monkeypatch):
    # The first draw of random_cope(random.Random(2026), max_blocks=2,
    # max_outcomes=2, max_cols=5, max_den=2), as floats: rank 2 with five
    # preparations, so no trivial padding fits at k = 2 and only the
    # restarts can find the equirank model.
    from copekit.backend import floating

    c = cope_matrix([[[0.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, 1.0]]], backend=floating())
    assert rank(c) == 2
    cert = certify(c)
    assert cert.verdict == NONCONTEXTUAL
    model = cert.evidence.model
    assert model.inner_dim == 2
    assert model.kind == ModelKind.NONCONTEXTUAL_ONTOLOGICAL
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in classify_model(c, model).inferred_kinds

    nmf_mod = importlib.import_module("copekit.nmf")  # copekit.nmf is the function
    monkeypatch.setattr(nmf_mod, "_restarts", lambda arr, widths, seeds, iterations: [[] for _ in widths])
    assert certify(c).verdict != NONCONTEXTUAL


def test_equirank_search_verifies_only_the_first_passing_restart(monkeypatch):
    # On the matrix above every restart at k = 2 would verify; nmf and enmf
    # each classify only the best one, and return that model.
    from copekit import nmf
    from copekit.backend import floating

    c = cope_matrix([[[0.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, 1.0]]], backend=floating())
    models_mod = importlib.import_module("copekit.models")
    classify = models_mod.classify_model
    checked = []

    def spy_classify(matrix, model):
        checked.append(model)
        return classify(matrix, model)

    monkeypatch.setattr(models_mod, "classify_model", spy_classify)
    found = []
    for search in (lambda: nmf(c, NmfOptions(inner_dim=2)), lambda: enmf(c, NmfOptions())):
        checked.clear()
        model = search()
        assert len(checked) == 1
        assert (checked[0].effects, checked[0].states) == (model.effects, model.states)
        found.append(model)
    assert found[0].states == found[1].states
    assert found[1].kind == ModelKind.NONCONTEXTUAL_ONTOLOGICAL


def _restart_widths(monkeypatch):
    nmf_mod = importlib.import_module("copekit.nmf")  # copekit.nmf is the function
    widths = []
    restarts = nmf_mod._restarts

    def spy_restarts(arr, ks, seeds, iterations):
        widths.append(list(ks))
        return restarts(arr, ks, seeds, iterations)

    monkeypatch.setattr(nmf_mod, "_restarts", spy_restarts)
    return widths


def test_certify_batches_the_restarts_above_rank(monkeypatch):
    # An Undetermined float certify runs the restarts at k = rank alone,
    # then at rank + 1 .. rank + 3 as one batch; a matrix decided at rank
    # runs one batch.
    cardinal = discrete_qubit(cardinal_directions())
    generic = [discrete_qubit(generic_directions(n, 11)) for n in (2, 3, 4)]
    for c in [cardinal, *generic]:
        widths = _restart_widths(monkeypatch)
        cert = certify(c)
        assert cert.verdict == UNDETERMINED
        r = rank(c)
        assert widths == [[r], [r + 1, r + 2, r + 3]]
        if c is cardinal:
            digest = hashlib.sha256(emit_certificate(cert, c)).hexdigest()
            assert digest == CERTIFICATE_DIGESTS["cardinal_qubit"]

    from copekit.backend import floating

    c = cope_matrix([[[0.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, 1.0]]], backend=floating())
    widths = _restart_widths(monkeypatch)
    assert certify(c).verdict == NONCONTEXTUAL
    assert widths == [[2]]


# --- guard-hit exact matrices ----------------------------------------------------


def test_lp_guard_hit_certifies_spekkens_by_the_simplex_route(monkeypatch, spekkens_matrix):
    # The product program is over its variable cap, so the decision raises
    # before building it and enmf scans inner dimensions; at k = rank the
    # simplex route of search_candidates finds the model before any restart.
    def no_restarts(arr, widths, seeds, iterations):
        raise AssertionError("heuristic restarts ran although a simplex route fits")

    monkeypatch.setattr(importlib.import_module("copekit.enmf_decision"), "_LP_VARIABLE_CAP", 0)
    monkeypatch.setattr(importlib.import_module("copekit.nmf"), "_restarts", no_restarts)
    solves = _count_lp_solves(monkeypatch)
    cert = certify(spekkens_matrix)
    # The extremality tests solve programs of 7 rows; the decision's would have rank**2.
    assert solves and rank(spekkens_matrix) ** 2 not in solves
    assert cert.verdict == NONCONTEXTUAL
    assert cert.evidence.model.inner_dim == rank(spekkens_matrix)
    assert cert.evidence.model.kind == ModelKind.NONCONTEXTUAL_ONTOLOGICAL


def test_polytope_guard_hit_leaves_boxworld_undetermined(monkeypatch, boxworld_matrix):
    # Q cannot be built, so neither vertex forcing nor the decision runs;
    # the restarts and their exact lifts find no equirank model.
    monkeypatch.setattr(importlib.import_module("copekit.polytope"), "AMBIENT_LIMIT", 3)
    lifts = _count_calls(monkeypatch, "copekit.nmf", "_exact_from_floats")
    cert = certify(boxworld_matrix)
    assert cert.verdict == UNDETERMINED
    assert cert.evidence is None
    assert cert.searched_k_range == (3, 6)
    assert lifts
