import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from copekit import (
    FragmentRestriction,
    GuardExceeded,
    PreconditionError,
    cope_matrix,
    distinct_columns,
    distinct_rows,
    find_equivalences,
    is_extremal_column,
    is_extremal_row,
    merge_measurements,
    quotient_extremal,
    rank,
    restrict_fragment,
    validate,
)
from copekit.backend import floating, rational
from copekit.cope import float_rank

from oracles import in_convex_hull, random_cope, reference_validate

H = Fraction(1, 2)


# --- validation -------------------------------------------------------------


def test_spekkens_validates_clean(spekkens_matrix):
    assert validate(spekkens_matrix) == []


def test_single_entry_matrix_validates():
    assert validate(cope_matrix([[[1]]])) == []


def test_column_sum_violation_is_reported():
    c = cope_matrix([[["1/2", "1/2"], ["2/5", "1/2"]]])
    report = validate(c)
    assert len(report) == 1
    v = report[0]
    assert v.kind == "column_sum" and v.block == 0 and v.column == 0


def test_entry_range_violation_is_reported():
    c = cope_matrix([[["3/2", "0"], ["-1/2", "1"]]])
    kinds = {(v.kind, v.row, v.column) for v in validate(c)}
    assert ("entry_range", 0, 0) in kinds
    assert ("entry_range", 1, 0) in kinds


def _perturbed(c, rng, backend):
    """``c`` with a few entries moved off [0, 1] or off their column sums, on ``backend``."""
    blocks = [[list(row) for row in block] for block in c.blocks]
    for _ in range(rng.randint(0, 4)):
        row = rng.choice(rng.choice(blocks))
        j = rng.randrange(len(row))
        row[j] = rng.choice([row[j] + Fraction(1, 3), -row[j] - 1, row[j] * 2, Fraction(3, 2), row[j]])
    if not backend.is_exact:
        step = rng.choice([0.0, 1e-12, 1e-6])  # below and above eps
        blocks = [[[float(x) + step for x in row] for row in block] for block in blocks]
    return cope_matrix(blocks, backend=backend)


def test_validate_is_identical_to_the_fraction_reference():
    rng = random.Random(12)
    for backend in (rational(), floating()):
        seen = set()
        for _ in range(150):
            c = _perturbed(random_cope(rng), rng, backend)
            expected = reference_validate(c)
            assert validate(c) == expected
            seen.update(v.kind for v in expected)
        assert seen == {"entry_range", "column_sum"}


def test_constructor_rejects_ragged_shapes():
    with pytest.raises(PreconditionError):
        cope_matrix([[[1, 0], [0]]])
    with pytest.raises(PreconditionError):
        cope_matrix([])


# --- rank -------------------------------------------------------------------


def test_row_and_block_of_row_read_global_indices_across_blocks():
    c = cope_matrix([[[1, 0, H], [0, 1, H]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], backend=rational())
    expected = [(0, 0, [1, 0, H]), (0, 1, [0, 1, H]), (1, 0, [1, 0, 0]), (1, 1, [0, 1, 0]), (1, 2, [0, 0, 1])]
    for i, (block, within, row) in enumerate(expected):
        assert c.block_of_row(i) == (block, within)
        assert c.row(i) == row == c.stacked()[i]
    # Past the end, and any negative index, which names no stacked row.
    for method in (c.row, c.block_of_row):
        for i in (c.n_rows, -1):
            with pytest.raises(IndexError, match="row index out of range"):
                method(i)


def test_rank_examples(spekkens_matrix, boxworld_matrix):
    assert rank(spekkens_matrix) == 4
    assert rank(boxworld_matrix) == 3
    ident = cope_matrix([[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]])
    assert rank(ident) == 4


def test_float_rank_uses_eps():
    c = cope_matrix(
        [[[0.5, 0.5 + 1e-12], [0.5, 0.5 - 1e-12]]], backend=floating(1e-9)
    )
    assert rank(c) == 1


def _inline_float_rank(arr, eps):
    # The rule as it was written out at each call site before float_rank.
    import numpy as np

    if arr.size == 0:
        return 0
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > eps * sv[0]))


def test_float_rank_matches_inline_rule():
    import numpy as np

    rng = np.random.default_rng(5)
    cases = [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((4, 5))]
    for _ in range(200):
        m, n = rng.integers(1, 9, size=2)
        k = int(rng.integers(1, min(m, n) + 1))
        low = rng.random((m, k)) @ rng.random((k, n))
        cases.append(rng.random((m, n)))
        cases.append(low)
        # Near-singular: noise just below and just above the threshold.
        for scale in (1e-13, 1e-11, 1e-9, 1e-7):
            cases.append(low + scale * rng.standard_normal((m, n)))
    for arr in cases:
        for eps in (1e-9, 1e-6):
            assert float_rank(arr, eps) == _inline_float_rank(arr, eps)
            assert float_rank(arr.tolist(), eps) == _inline_float_rank(arr, eps)
    assert float_rank([], 1e-9) == 0


# --- operational equivalences -------------------------------------------------


def test_extended_boxworld_equivalences(ebw_matrix):
    eq = find_equivalences(ebw_matrix)
    assert (4, 5) in eq.column_classes
    assert (0, 3) in eq.row_classes
    assert all(len(cls) == 1 for cls in eq.measurement_classes)


def test_spekkens_equivalences_all_singletons(spekkens_matrix):
    eq = find_equivalences(spekkens_matrix)
    assert all(len(cls) == 1 for cls in eq.column_classes)
    assert all(len(cls) == 1 for cls in eq.row_classes)
    assert all(len(cls) == 1 for cls in eq.measurement_classes)


def test_identity_equivalences_all_singletons():
    ident = cope_matrix([[[1, 0], [0, 1]]])
    eq = find_equivalences(ident)
    assert all(len(cls) == 1 for cls in eq.column_classes + eq.row_classes)


def test_duplicate_measurement_blocks_detected():
    c = cope_matrix(
        [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],  # same block up to outcome relabeling
        ]
    )
    eq = find_equivalences(c)
    assert eq.measurement_classes == ((0, 1),)


def test_float_block_equivalence_needs_backtracking():
    # Eps-equality is not transitive: u matches both p and q, while v only
    # matches p.  A greedy matcher pairing u with p strands v; the valid
    # bijection is u->q, v->p.  (Entries are deliberately eps-perturbed;
    # block equivalence is a pure function of the entries.)
    from copekit.backend import floating
    from copekit.cope import _blocks_equivalent

    eps = 1e-6
    u = (0.5, 0.5)
    v = (0.5 + 1.5e-6, 0.5 - 1.5e-6)
    p = (0.5 + 0.8e-6, 0.5 - 0.8e-6)
    q = (0.5 - 0.8e-6, 0.5 + 0.8e-6)
    assert _blocks_equivalent(floating(eps), (u, v), (p, q))
    # And a genuinely unmatchable pair stays unmatchable.
    far = (0.6, 0.4)
    assert not _blocks_equivalent(floating(eps), (u, far), (p, q))


def test_float_column_classes_depend_on_order():
    # Eps-equality (eps 1e-9) is not transitive: the middle column is 6e-10
    # from each outer one, and they are 1.2e-9 apart.  Each column joins the
    # first class whose first member it matches, so the middle column first
    # makes one class.
    low, middle, high = [0.5, 0.5], [0.5 + 6e-10, 0.5 - 6e-10], [0.5 + 1.2e-9, 0.5 - 1.2e-9]

    def column_classes(columns):
        block = [[col[0] for col in columns], [col[1] for col in columns]]
        return find_equivalences(cope_matrix([block], backend=floating())).column_classes

    assert column_classes([low, middle, high]) == ((0, 1), (2,))
    assert column_classes([middle, low, high]) == ((0, 1, 2),)


# --- extremality --------------------------------------------------------------


def test_spekkens_columns_all_extremal(spekkens_matrix):
    for j in range(6):
        assert is_extremal_column(spekkens_matrix, j)


def test_midpoint_column_not_extremal(spekkens_matrix):
    s = spekkens_matrix
    mid = [
        [(row[0] + row[1]) / 2 for _ in range(1)][0] for row in s.stacked()
    ]
    blocks = []
    offset = 0
    for size in s.block_sizes:
        block = []
        for i in range(size):
            row = list(s.stacked()[offset + i]) + [mid[offset + i]]
            block.append(row)
        blocks.append(block)
        offset += size
    extended = cope_matrix(blocks)
    assert not is_extremal_column(extended, 6)
    for j in range(6):
        assert is_extremal_column(extended, j)


def test_single_column_is_extremal():
    c = cope_matrix([[[1], [0]]])
    assert is_extremal_column(c, 0)


def test_duplicate_columns_stay_extremal():
    c = cope_matrix([[[1, 1, 0], [0, 0, 1]]])
    assert is_extremal_column(c, 0) and is_extremal_column(c, 1)


@pytest.mark.parametrize("status, extremal", [(0, False), (2, True), (1, None), (4, None)])
def test_float_extremality_reads_the_lp_status(status, extremal, monkeypatch):
    # HiGHS: 0 solved (a convex combination exists), 2 infeasible (none
    # does); an iteration limit (1) or numerical difficulties (4) decide
    # nothing, so they raise instead of reading as extremal.
    import scipy.optimize

    result = SimpleNamespace(status=status, success=status == 0, message=f"status {status}")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: result)
    c = cope_matrix([[[1, 0, H], [0, 1, H]]], backend=floating())
    if extremal is None:
        with pytest.raises(GuardExceeded, match=f"status {status}"):
            is_extremal_column(c, 2)
    else:
        assert is_extremal_column(c, 2) is extremal


def test_extremal_rows(boxworld_matrix):
    for i in range(4):
        assert is_extremal_row(boxworld_matrix, i)


def test_extremality_agrees_with_subset_oracle():
    rng = random.Random(42)
    checked = 0
    while checked < 40:
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=5, max_den=2)
        cols = [c.column(j) for j in range(c.n_preparations)]
        for j in range(c.n_preparations):
            others = [
                col
                for i, col in enumerate(cols)
                if i != j and col != cols[j]
            ]
            expected = not in_convex_hull(others, cols[j]) if others else True
            assert is_extremal_column(c, j) == expected
        checked += 1


def test_extremality_oracle_up_to_eight_columns():
    rng = random.Random(77)
    for _ in range(6):
        c = random_cope(rng, max_blocks=1, max_outcomes=3, max_cols=8, max_den=2)
        cols = [c.column(j) for j in range(c.n_preparations)]
        for j in range(c.n_preparations):
            others = [col for i, col in enumerate(cols) if i != j and col != cols[j]]
            expected = not in_convex_hull(others, cols[j]) if others else True
            assert is_extremal_column(c, j) == expected


# --- quotienting --------------------------------------------------------------


def test_extended_boxworld_quotient_reference(ebw_matrix):
    rep = quotient_extremal(ebw_matrix)
    q = rep.quotiented
    expected = cope_matrix(
        [
            [[0, 0, 0, 0, 1], [1, 0, 0, 1, 0], [0, 1, 1, 0, 0]],
            [[0, 0, 0, 0, 1], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0]],
        ]
    )
    assert q.equals(expected)
    assert (4, 5) in rep.column_classes
    assert rep.dropped_nonextremal.columns == ()


def test_spekkens_quotient_is_identity(spekkens_matrix):
    rep = quotient_extremal(spekkens_matrix)
    assert rep.quotiented.equals(spekkens_matrix)


def test_quotient_idempotent_on_random(spekkens_matrix):
    rng = random.Random(3)
    for _ in range(25):
        c = random_cope(rng)
        once = quotient_extremal(c).quotiented
        twice = quotient_extremal(once).quotiented
        assert once.equals(twice)
        assert validate(once) == []


def test_quotient_drops_nonextremal_columns():
    c = cope_matrix([[[1, 0, H], [0, 1, H]]])
    rep = quotient_extremal(c)
    assert rep.dropped_nonextremal.columns == (2,)
    assert rep.quotiented.n_preparations == 2
    assert (2,) in rep.column_classes


def test_quotient_merges_equivalent_measurements():
    c = cope_matrix([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    rep = quotient_extremal(c)
    assert rep.quotiented.n_measurements == 1
    assert rep.measurement_classes == ((0, 1),)
    assert rep.dropped_nonextremal.rows == (2, 3)


def test_quotient_classes_cover_all_columns():
    rng = random.Random(9)
    for _ in range(20):
        c = random_cope(rng)
        rep = quotient_extremal(c)
        seen = sorted(j for cls in rep.column_classes for j in cls)
        assert seen == list(range(c.n_preparations))


def test_quotient_preserves_rank_when_only_duplicates_merged(ebw_matrix):
    assert rank(quotient_extremal(ebw_matrix).quotiented) == rank(ebw_matrix) == 4


# --- fragments ----------------------------------------------------------------


def test_fragment_reference(spekkens_matrix):
    frag = restrict_fragment(
        FragmentRestriction(spekkens_matrix, (0, 1, 2, 3), (0, 1))
    )
    expected = cope_matrix(
        [
            [[1, 0, H, H], [0, 1, H, H]],
            [[H, H, 1, 0], [H, H, 0, 1]],
        ]
    )
    assert frag.equals(expected)
    assert rank(frag) == 3


def test_fragment_keep_everything_is_identity(spekkens_matrix):
    frag = restrict_fragment(
        FragmentRestriction(spekkens_matrix, tuple(range(6)), (0, 1, 2))
    )
    assert frag.equals(spekkens_matrix)


def test_fragment_empty_selection_rejected(spekkens_matrix):
    with pytest.raises(PreconditionError):
        FragmentRestriction(spekkens_matrix, (), (0,))
    with pytest.raises(PreconditionError):
        FragmentRestriction(spekkens_matrix, (0,), (7,))


def test_fragment_columns_still_stochastic(spekkens_matrix):
    frag = restrict_fragment(FragmentRestriction(spekkens_matrix, (2, 4), (1,)))
    assert validate(frag) == []


# --- measurement merging --------------------------------------------------------


def test_merge_boxworld_halves_entries(boxworld_matrix):
    merged = merge_measurements(boxworld_matrix)
    assert merged.n_measurements == 1
    assert merged.blocks[0][0] == (H, 0, 0, H)
    assert validate(merged) == []
    assert rank(merged) == 3


def test_merge_single_block_unchanged():
    c = cope_matrix([[[1, 0], [0, 1]]])
    assert merge_measurements(c) is c


def test_merge_spekkens_rank_preserved(spekkens_matrix):
    merged = merge_measurements(spekkens_matrix)
    assert merged.blocks[0][0][0] == Fraction(1, 3)
    assert rank(merged) == 4


def test_merge_preserves_rank_on_random():
    rng = random.Random(21)
    for _ in range(30):
        c = random_cope(rng)
        assert rank(merge_measurements(c)) == rank(c)
        assert validate(merge_measurements(c)) == []


# --- helpers --------------------------------------------------------------------


def test_distinct_counts(ebw_matrix):
    assert distinct_columns(ebw_matrix) == 5
    assert distinct_rows(ebw_matrix) == 5
