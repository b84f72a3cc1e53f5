import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from copekit import (
    NONCONTEXTUAL,
    certify,
    ModelKind,
    classify_model,
    cope_matrix,
    fiducial_tomography_test,
    gpt,
    gpt_to_trivial_ontological,
    pregpt_from_svd,
    quasi_from_gpt,
    reference_models,
    trivial_ontological,
)
from copekit import rational_linalg as rla
from copekit.certify import Certificate, EnmfModel, _check
from copekit.cope import PreconditionError
from copekit.models import _exact_flags, make_model
from copekit.polytope import _Derived

from oracles import random_cope, reference_classify_model, reference_exact_flags

H = Fraction(1, 2)


def _block_sums(model):
    sums = []
    offset = 0
    for size in model.block_sizes:
        sums.append(
            [
                sum(model.effects[i][l] for i in range(offset, offset + size))
                for l in range(model.inner_dim)
            ]
        )
        offset += size
    return sums


# --- pregpt ----------------------------------------------------------------


def test_pregpt_spekkens_postconditions(spekkens_matrix):
    model = pregpt_from_svd(spekkens_matrix)
    assert model.inner_dim == 6
    report = classify_model(spekkens_matrix, model)
    assert report.reconstruction_ok and report.unit_ok
    assert ModelKind.PREGPT in report.inferred_kinds
    for sums in _block_sums(model):
        assert np.allclose(
            [float(x) for x in sums], [float(u) for u in model.unit], atol=1e-9
        )


def test_pregpt_boxworld_unit_matches_reference(boxworld_matrix):
    model = pregpt_from_svd(boxworld_matrix)
    report = classify_model(boxworld_matrix, model)
    assert report.reconstruction_ok and report.unit_ok
    # The reference instance has unit (1, 0, 0, 0); ours must have the same
    # norm profile: a single unit vector shared by both blocks.
    assert model.inner_dim == 4


def test_pregpt_trivial_matrix():
    c = cope_matrix([[[1]]])
    model = pregpt_from_svd(c)
    assert abs(float(model.effects[0][0]) * float(model.states[0][0]) - 1.0) < 1e-12


# --- gpt ----------------------------------------------------------------------


def test_gpt_exact_spekkens(spekkens_matrix):
    model = gpt(spekkens_matrix)
    assert model.backend.is_exact
    assert model.inner_dim == 4
    report = classify_model(spekkens_matrix, model)
    assert ModelKind.GPT in report.inferred_kinds
    assert report.equirank_ok
    assert report.rank_effects == report.rank_states == 4
    # The exact path canonicalizes the unit to the first basis vector.
    assert model.unit == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_gpt_float_backend(boxworld_matrix):
    from copekit.backend import floating
    from copekit.cope import cope_matrix as make

    c = make(
        [[[float(x) for x in row] for row in block] for block in boxworld_matrix.blocks],
        backend=floating(),
    )
    model = gpt(c)
    assert model.inner_dim == 3
    report = classify_model(c, model)
    assert ModelKind.GPT in report.inferred_kinds


def test_gpt_extended_boxworld_equirank(ebw_matrix):
    model = gpt(ebw_matrix)
    assert model.inner_dim == 4
    report = classify_model(ebw_matrix, model)
    assert ModelKind.GPT in report.inferred_kinds


def test_gpt_equirank_on_random():
    rng = random.Random(2)
    for _ in range(40):
        c = random_cope(rng)
        model = gpt(c)
        report = classify_model(c, model)
        assert ModelKind.GPT in report.inferred_kinds, (c.blocks, report)


# --- quasi ----------------------------------------------------------------------


def test_quasi_from_gpt_spekkens(spekkens_matrix):
    base = gpt(spekkens_matrix)
    # Columns 0,2,4,5 of the exact rank factorization are independent.
    cols = _first_independent(base)
    model = quasi_from_gpt(base, cols)
    report = classify_model(spekkens_matrix, model)
    assert ModelKind.QUASIPROBABILISTIC in report.inferred_kinds
    assert report.unit_all_ones


def test_quasi_singular_selection_rejected(spekkens_matrix):
    base = gpt(spekkens_matrix)
    with pytest.raises(PreconditionError):
        quasi_from_gpt(base, [0, 0, 1, 2])
    with pytest.raises(PreconditionError):
        quasi_from_gpt(base, [0, 1])


def test_quasi_identity_selection_fixed_point():
    # A model that is already quasiprobabilistic with identity tomographic
    # block stays unchanged.
    c = cope_matrix([[[1, 0, H], [0, 1, H]]])
    base = gpt(c)
    cols = _first_independent(base)
    model = quasi_from_gpt(base, cols)
    again = quasi_from_gpt(
        _with_kind(model, ModelKind.GPT), cols
    )
    assert again.states == model.states
    assert again.effects == model.effects


def _with_kind(model, kind):
    from copekit.models import make_model

    return make_model(
        effects=model.effects,
        states=model.states,
        unit=model.unit,
        kind=kind,
        block_sizes=model.block_sizes,
        backend=model.backend,
    )


def _first_independent(model):
    from copekit import rational_linalg as rla

    chosen = []
    cols = []
    for j in range(model.n_preparations):
        cand = cols + [[model.states[l][j] for l in range(model.inner_dim)]]
        if rla.rank(cand) > len(cols):
            cols = cand
            chosen.append(j)
        if len(chosen) == model.inner_dim:
            break
    return chosen


def test_quasi_preserves_reconstruction_for_every_invertible_choice():
    from itertools import combinations

    from copekit import rational_linalg as rla

    rng = random.Random(14)
    checked = 0
    while checked < 8:
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=4, max_den=2)
        base = gpt(c)
        r = base.inner_dim
        for cols in combinations(range(c.n_preparations), r):
            t = [[base.states[l][j] for j in cols] for l in range(r)]
            if rla.invert(t) is None:
                continue
            model = quasi_from_gpt(base, list(cols))
            report = classify_model(c, model)
            assert report.reconstruction_ok
            assert report.unit_all_ones
            assert report.equirank_ok
        checked += 1


# --- ontological -------------------------------------------------------------------


def test_trivial_ontological_spekkens(spekkens_matrix):
    model = trivial_ontological(spekkens_matrix)
    report = classify_model(spekkens_matrix, model)
    assert ModelKind.ONTOLOGICAL in report.inferred_kinds
    # States rank 6 exceeds matrix rank 4: ontological but not equirank.
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL not in report.inferred_kinds
    assert report.rank_states == 6 and report.rank_c == 4


def test_trivial_ontological_single_entry():
    c = cope_matrix([[[1]]])
    model = trivial_ontological(c)
    assert model.effects == ((Fraction(1),),)
    assert model.states == ((Fraction(1),),)


def test_gpt_to_trivial_equals_trivial(spekkens_matrix, boxworld_matrix):
    for c in (spekkens_matrix, boxworld_matrix):
        base = gpt(c)
        derived = gpt_to_trivial_ontological(base, c)
        direct = trivial_ontological(c)
        assert derived.states == direct.states
        report = classify_model(c, derived)
        assert ModelKind.ONTOLOGICAL in report.inferred_kinds


def test_gpt_to_trivial_rejects_wrong_matrix(spekkens_matrix, boxworld_matrix):
    base = gpt(boxworld_matrix)
    with pytest.raises(PreconditionError):
        gpt_to_trivial_ontological(base, spekkens_matrix)


# --- classification ------------------------------------------------------------------


def test_reference_classifications(spekkens_matrix):
    models = {m.kind: m for m in reference_models("spekkens")}
    ncom = models[ModelKind.NONCONTEXTUAL_ONTOLOGICAL]
    report = classify_model(spekkens_matrix, ncom)
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds
    quasi = models[ModelKind.QUASIPROBABILISTIC]
    report_q = classify_model(spekkens_matrix, quasi)
    assert ModelKind.QUASIPROBABILISTIC in report_q.inferred_kinds
    assert ModelKind.ONTOLOGICAL not in report_q.inferred_kinds  # negative entries


def test_classify_dimension_mismatch(spekkens_matrix, boxworld_matrix):
    model = trivial_ontological(boxworld_matrix)
    with pytest.raises(PreconditionError):
        classify_model(spekkens_matrix, model)


def test_classify_exact_model_against_float_matrix(boxworld_matrix):
    # The float side's tolerance governs mixed comparisons.
    from copekit.backend import floating
    from copekit.cope import cope_matrix as make

    noisy = make(
        [
            [[float(x) + 1e-12 for x in row] for row in block]
            for block in boxworld_matrix.blocks
        ],
        backend=floating(1e-9),
    )
    model = trivial_ontological(boxworld_matrix)  # exact entries
    report = classify_model(noisy, model)
    assert report.reconstruction_ok


def test_equirank_flag_definition(spekkens_matrix):
    model = trivial_ontological(spekkens_matrix)
    report = classify_model(spekkens_matrix, model)
    assert report.equirank_ok == (
        report.rank_c == report.rank_effects == report.rank_states
    )


# --- fiducial tomography ----------------------------------------------------------------


def test_fiducial_flags(spekkens_matrix, boxworld_matrix):
    assert fiducial_tomography_test(spekkens_matrix) == (True, True)
    assert fiducial_tomography_test(boxworld_matrix) == (True, True)
    ident = cope_matrix([[[1, 0], [0, 1]]])
    assert fiducial_tomography_test(ident) == (False, False)


def _mutations(model):
    """The model and four single-entry mutations of it: an effect perturbed,
    a state entry made negative, a unit entry changed, and a state column's
    sum broken by zeroing its largest entry."""

    def remade(effects=model.effects, states=model.states, unit=model.unit):
        return make_model(effects, states, unit, model.kind, model.block_sizes, model.backend)

    effects = [list(row) for row in model.effects]
    effects[0][0] += Fraction(1, 7)
    negative = [list(row) for row in model.states]
    negative[0][0] = -negative[0][0] - Fraction(1, 3)
    unit = list(model.unit)
    unit[-1] += 1
    column = [list(row) for row in model.states]
    largest = max(range(len(column)), key=lambda l: column[l][-1])
    column[largest][-1] = Fraction(0)
    return [model, remade(effects=effects), remade(states=negative), remade(unit=unit),
            remade(states=column)]


def test_classify_model_is_identical_to_the_fraction_reference():
    rng = random.Random(808)
    flags = {}
    compared = 0
    while compared < 200:
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=6, max_den=2)
        if c.n_rows + c.n_preparations > 10:
            continue
        compared += 1
        cert = certify(c)
        if cert.verdict != NONCONTEXTUAL:
            continue
        for model in _mutations(cert.evidence.model):
            report = classify_model(c, model)
            assert report == reference_classify_model(c, model)
            for name, value in vars(report).items():
                if isinstance(value, bool):
                    flags.setdefault(name, set()).add(value)
    assert len(flags) == 6
    assert all(seen == {True, False} for seen in flags.values()), flags


# --- a model's fields are checked against its factors when it is built -------


def _spekkens_with_unused_state():
    """The noncontextual Spekkens model plus a fifth ontic state that no
    preparation uses, with effect column 1/3 (each block sums to 2/3 there)."""
    ncom = {m.kind: m for m in reference_models("spekkens")}[ModelKind.NONCONTEXTUAL_ONTOLOGICAL]
    return make_model(
        [list(row) + [Fraction(1, 3)] for row in ncom.effects],
        list(ncom.states) + [[Fraction(0)] * ncom.n_preparations],
        [Fraction(1)] * 5,
        ncom.kind,
        ncom.block_sizes,
        ncom.backend,
    )


def test_a_model_is_checked_against_its_factors_when_built(spekkens_matrix, boxworld_matrix):
    model = _spekkens_with_unused_state()
    honest = classify_model(spekkens_matrix, model)
    assert honest.reconstruction_ok and not honest.unit_ok
    assert honest.inferred_kinds == frozenset()
    forged = [
        ({"inner_dim": 4}, "inner_dim"),
        ({"inner_dim": 9}, "inner_dim"),
        ({"unit": model.unit[:4]}, "unit"),
    ]
    for fields, field in forged:
        with pytest.raises(PreconditionError, match=f"model {field}:") as err:
            dataclasses.replace(model, **fields)
        assert err.value.field == field
    # What is left to check against a matrix: its dimensions, here on load.
    d = _Derived(boxworld_matrix)
    problem = _check(d, Certificate(NONCONTEXTUAL, EnmfModel(model), d.rank))
    assert problem == ("evidence", "embedded model: model dimensions do not match the matrix")


def test_exact_flags_are_identical_to_the_rank_reference(monkeypatch, spekkens_matrix):
    # The ranks are read off rank(C), with no elimination, only for a model
    # that reconstructs C with rank(C) state rows; every other model is
    # eliminated as before.  A model padded to rank(C) + 1 state rows (an
    # unused effect column of zeros and one extra state row) cannot claim
    # inner_dim = rank(C): it is refused when built.
    rng = random.Random(4242)
    cases = [(spekkens_matrix, _spekkens_with_unused_state())]
    for _ in range(150):
        c = random_cope(rng, max_blocks=3, max_outcomes=3, max_cols=7, max_den=3)
        g = gpt(c)
        r, n = g.inner_dim, c.n_preparations
        broken = [list(row) for row in g.effects]
        broken[0][0] += Fraction(1, 5)
        padded = make_model(
            [list(row) + [Fraction(0)] for row in g.effects],
            list(g.states) + [[Fraction(int(j == 0)) for j in range(n)]],
            [Fraction(1)] * (r + 1),
            g.kind,
            g.block_sizes,
            g.backend,
        )
        with pytest.raises(PreconditionError, match="model inner_dim:"):
            dataclasses.replace(padded, inner_dim=r)
        cases += [
            (c, g),
            (c, trivial_ontological(c)),
            (c, make_model(broken, g.states, g.unit, g.kind, g.block_sizes, g.backend)),
            (c, padded),
        ]
    eliminations = []
    rank = rla.rank
    monkeypatch.setattr(rla, "rank", lambda a: eliminations.append(a) or rank(a))
    seen = set()
    for c, model in cases:
        d = _Derived(c)
        _ = d.rank, d.integer_rows  # derived before counting
        eliminations.clear()
        got = _exact_flags(d, model)
        forced = not eliminations
        assert got == reference_exact_flags(d, model)
        (reconstruction_ok, *_), ranks = got
        assert forced == (reconstruction_ok and len(model.states) == d.rank)
        if forced:
            seen.add("forced")
        elif not reconstruction_ok:
            seen.add("not reconstructed")
        else:
            seen.add("eliminated")
    assert seen == {"forced", "not reconstructed", "eliminated"}
