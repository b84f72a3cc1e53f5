import random
from fractions import Fraction

import pytest

from copekit import (
    GuardExceeded,
    cope_matrix,
    merge_measurements,
    span_simplex_polytope,
)
from copekit import rational_linalg as rla
from copekit.cope import PreconditionError
from copekit.polytope import _Derived, affine_chart, contains_point, extreme_rays

from oracles import (
    enumerate_vertices,
    random_cope,
    reference_independent_rows,
    reference_vertices,
)


def _merged(c):
    return merge_measurements(c)


def test_boxworld_vertices_are_its_columns(boxworld_matrix):
    merged = _merged(boxworld_matrix)
    poly = span_simplex_polytope(merged)
    columns = {
        tuple(merged.blocks[0][i][j] for i in range(4)) for j in range(4)
    }
    assert len(poly.vertices) == 4
    assert set(poly.vertices) == columns


def test_extended_boxworld_has_five_vertices(ebw_matrix):
    poly = span_simplex_polytope(_merged(ebw_matrix))
    assert len(poly.vertices) == 5


def test_spekkens_columns_interior(spekkens_matrix):
    merged = _merged(spekkens_matrix)
    poly = span_simplex_polytope(merged)
    columns = [
        [merged.blocks[0][i][j] for i in range(merged.n_rows)]
        for j in range(merged.n_preparations)
    ]
    for col in columns:
        assert tuple(col) not in set(poly.vertices)
        assert contains_point(poly, col)


def test_every_column_inside_hull_of_vertices():
    rng = random.Random(17)
    for _ in range(25):
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=5, max_den=3)
        merged = _merged(c)
        poly = span_simplex_polytope(merged)
        for j in range(merged.n_preparations):
            col = [merged.blocks[0][i][j] for i in range(merged.n_rows)]
            assert contains_point(poly, col)


def test_vertices_match_bruteforce_enumeration():
    rng = random.Random(23)
    for _ in range(25):
        c = random_cope(rng, max_blocks=2, max_outcomes=3, max_cols=4, max_den=2)
        merged = _merged(c)
        poly = span_simplex_polytope(merged)
        basis = [list(row) for row in poly.basis]
        assert set(poly.vertices) == enumerate_vertices(basis)


def test_vertices_match_oracle_on_degenerate_zero_one_matrices():
    # Deterministic 0/1 matrices maximize coincidental constraint
    # tightness, the regime where sloppy double-description bookkeeping
    # would emit non-extreme rays.
    rng = random.Random(29)
    for _ in range(30):
        c = random_cope(rng, max_blocks=2, max_outcomes=3, max_cols=5, max_den=1)
        merged = _merged(c)
        poly = span_simplex_polytope(merged)
        basis = [list(row) for row in poly.basis]
        assert set(poly.vertices) == enumerate_vertices(basis)


def test_vertices_with_duplicated_measurement(boxworld_matrix):
    # Duplicate blocks produce duplicate constraints; the vertex set must
    # be unaffected up to the 1/J rescaling.
    from copekit.cope import cope_matrix

    doubled = cope_matrix(
        [boxworld_matrix.blocks[0], boxworld_matrix.blocks[1],
         boxworld_matrix.blocks[0], boxworld_matrix.blocks[1]]
    )
    poly = span_simplex_polytope(_merged(doubled))
    assert len(poly.vertices) == 4
    basis = [list(row) for row in poly.basis]
    assert set(poly.vertices) == enumerate_vertices(basis)


def test_vertices_are_feasible_points(boxworld_matrix):
    poly = span_simplex_polytope(_merged(boxworld_matrix))
    for v in poly.vertices:
        assert all(x >= 0 for x in v)
        assert sum(v) == 1


def test_extreme_rays_rejects_a_rank_deficient_constraint_matrix():
    # Without full column rank the cone { t : a t >= 0 } is not pointed.
    with pytest.raises(ValueError):
        extreme_rays([[1, 2], [2, 4], [0, 0], [-1, -2]])


def test_requires_exact_backend():
    from copekit.backend import floating

    c = cope_matrix([[[0.5, 0.5], [0.5, 0.5]]], backend=floating())
    with pytest.raises(PreconditionError):
        span_simplex_polytope(c)


def test_requires_merged_matrix(spekkens_matrix):
    with pytest.raises(PreconditionError):
        span_simplex_polytope(spekkens_matrix)


def test_ambient_guard():
    n = 65
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    c = cope_matrix([rows])
    with pytest.raises(GuardExceeded):
        span_simplex_polytope(c)


def test_affine_chart_round_trip(spekkens_matrix):
    merged = _merged(spekkens_matrix)
    poly = span_simplex_polytope(merged)
    chart = affine_chart(poly)
    assert chart.dim == 3
    for v, coords in zip(poly.vertices, chart.to_plane(poly.vertices)):
        assert chart.to_ambient(coords) == tuple(v)


def test_vertices_are_identical_to_the_fraction_reference(exact_pool_matrices):
    rng = random.Random(1414)
    for c in exact_pool_matrices + [random_cope(rng) for _ in range(60)]:
        merged = _merged(c)
        stacked = merged.stacked()
        _, pivots = rla.rref(stacked)
        basis = [[row[j] for j in pivots] for row in stacked]
        poly = span_simplex_polytope(merged)
        assert poly.basis == tuple(map(tuple, basis))
        assert poly.vertices == reference_vertices(basis)
        assert all(type(x) is Fraction for v in poly.vertices for x in v)


def test_derived_independent_rows_are_those_of_the_merged_matrix(exact_pool_matrices):
    # _Derived eliminates only the pivot columns of the merged matrix; the
    # rows it picks must be the prefix-rank rows of the whole matrix.
    rng = random.Random(1415)
    for c in exact_pool_matrices + [random_cope(rng) for _ in range(150)]:
        d = _Derived(c)
        assert d.independent_rows == reference_independent_rows(d.merged.stacked())
