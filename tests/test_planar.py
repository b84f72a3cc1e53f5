import random
from fractions import Fraction
from math import lcm

import pytest

from copekit.planar import _chord_end, convex_hull, nested_triangle, point_in_hull
from copekit.polytope import _Derived

import oracles
from oracles import random_cope, reference_convex_hull, reference_nested_triangle


def F(a, b=1):
    return Fraction(a, b)


def lift(points):
    # The hull helpers take homogeneous (x, y, W) triples; W = 1 here.
    return [(x, y, 1) for x, y in points]


SQUARE = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]


def test_convex_hull_orders_ccw_and_drops_interior():
    pts = SQUARE + [(F(1, 2), F(1, 2)), (F(1, 2), F(0))]
    hull = convex_hull(lift(pts))
    assert len(hull) == 4
    assert set(hull) == set(lift(SQUARE))


def test_point_in_hull():
    hull = convex_hull(lift(SQUARE))
    assert point_in_hull((F(1, 2), F(1, 2), 1), hull)
    assert point_in_hull((F(0), F(0), 1), hull)
    assert not point_in_hull((F(2), F(0), 1), hull)
    # Homogeneous points with other W's: (3/2, 1/2) and (1/3, 2/3).
    assert not point_in_hull((3, 1, 2), hull)
    assert point_in_hull((1, 2, 3), hull)


def test_inner_triangle_returned_directly():
    inner = [(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(1, 2), F(3, 4))]
    tri = nested_triangle(inner, SQUARE)
    assert tri is not None
    assert set(tri) == set(inner)


def test_small_square_in_large_square_has_nested_triangle():
    inner = [
        (F(2, 5), F(2, 5)),
        (F(3, 5), F(2, 5)),
        (F(3, 5), F(3, 5)),
        (F(2, 5), F(3, 5)),
    ]
    tri = nested_triangle(inner, SQUARE)
    assert tri is not None
    _assert_nested(inner, SQUARE, tri)


def test_midpoint_square_admits_no_triangle():
    # The inner square on the edge midpoints fills half the outer square's
    # area; the largest triangle inside the square also has half the area,
    # so no triangle fits strictly between them.
    inner = [(F(1, 2), F(0)), (F(1), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1, 2))]
    assert nested_triangle(inner, SQUARE) is None


def test_shrunk_midpoint_square_admits_triangle():
    # A concentric diamond shrunk by factor s nests inside a triangle iff
    # s <= 2/3 (see the threshold test below); 2/5 and 9/10 sit clearly on
    # either side.
    center = (F(1, 2), F(1, 2))
    diamond = [(F(1, 2), F(0)), (F(1), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1, 2))]

    inner_small = [
        tuple(c + (p - c) * F(2, 5) for c, p in zip(center, pt)) for pt in diamond
    ]
    tri = nested_triangle(inner_small, SQUARE)
    assert tri is not None
    _assert_nested(inner_small, SQUARE, tri)

    inner_large = [
        tuple(c + (p - c) * F(9, 10) for c, p in zip(center, pt)) for pt in diamond
    ]
    assert nested_triangle(inner_large, SQUARE) is None


def test_diamond_family_critical_threshold():
    # For a concentric diamond shrunk by factor s inside the unit square,
    # a nested triangle exists iff s <= 2/3; the critical triangle is
    # ((2/3,0),(1,1),(0,2/3)) up to symmetry.  Exercises exact arithmetic
    # at the boundary of feasibility.
    center = (F(1, 2), F(1, 2))
    diamond = [(F(1, 2), F(0)), (F(1), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1, 2))]

    def shrunk(factor):
        return [
            tuple(c + (p - c) * factor for c, p in zip(center, pt)) for pt in diamond
        ]

    at_threshold = shrunk(F(2, 3))
    tri = nested_triangle(at_threshold, SQUARE)
    assert tri is not None
    _assert_nested(at_threshold, SQUARE, tri)

    below = shrunk(F(2, 3) - F(1, 1000))
    tri = nested_triangle(below, SQUARE)
    assert tri is not None
    _assert_nested(below, SQUARE, tri)

    assert nested_triangle(shrunk(F(2, 3) + F(1, 1000)), SQUARE) is None


def test_outer_triangle_short_circuit():
    outer = [(F(0), F(0)), (F(4), F(0)), (F(0), F(4))]
    inner = [(F(1), F(1)), (F(2), F(1)), (F(1), F(2)), (F(3, 2), F(3, 2))]
    tri = nested_triangle(inner, outer)
    assert tri is not None
    _assert_nested(inner, outer, tri)


def test_degenerate_input_rejected():
    with pytest.raises(ValueError):
        nested_triangle([(F(0), F(0)), (F(1), F(1))], SQUARE)


def _assert_nested(inner, outer, tri):
    outer_hull = convex_hull(lift(outer))
    tri_hull = convex_hull(lift(tri))
    assert len(tri_hull) == 3
    for v in lift(tri):
        assert point_in_hull(v, outer_hull)
    for p in lift(inner):
        assert point_in_hull(p, tri_hull)


def _random_polygon_pairs(rng, attempts):
    """(inner, outer) pairs of full-dimensional rational polygons, inner inside outer."""
    for _ in range(attempts):
        outer_pts = [
            (Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
             Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
            for _ in range(rng.randint(3, 7))
        ]
        outer = [(x, y) for x, y, _ in convex_hull(lift(outer_pts))]
        if len(outer) < 3:
            continue
        # Inner points: convex combinations of outer points.
        inner = []
        for _ in range(rng.randint(3, 6)):
            weights = [rng.randint(0, 4) for _ in outer]
            total = sum(weights) or 1
            x = sum(w * p[0] for w, p in zip(weights, outer)) / total
            y = sum(w * p[1] for w, p in zip(weights, outer)) / total
            inner.append((x, y))
        if len(convex_hull(lift(inner))) < 3:
            continue
        yield inner, outer


def test_random_returned_triangles_always_verify():
    found = 0
    for inner, outer in _random_polygon_pairs(random.Random(31), 120):
        tri = nested_triangle(inner, outer)
        if tri is not None:
            _assert_nested(inner, outer, tri)
            found += 1
    assert found > 10  # the generator produces plenty of nestable instances


def _rank_3_charts(rng, draws):
    """The (columns, Q's vertices) polygons of the rank-3 ``random_cope`` draws."""
    for _ in range(draws):
        d = _Derived(random_cope(rng))
        if d.rank == 3:
            n = d.merged.n_preparations
            points = d.plane[1]
            yield points[:n], points[n:]


def test_nested_triangle_is_identical_to_the_fraction_reference():
    # The integer geometry against the rational one it replaced: the same
    # triangle, or None from both.  Counted: pairs whose hulls both have four
    # or more vertices, so that the wrapping runs, and the triangles found there.
    pairs = [*_random_polygon_pairs(random.Random(2020), 500),
             *_rank_3_charts(random.Random(2026), 700)]
    wrapped = found = 0
    for inner, outer in pairs:
        got = nested_triangle(inner, outer)
        assert got == reference_nested_triangle(inner, outer)
        assert got is None or all(type(v) is Fraction for p in got for v in p)
        if len(convex_hull(lift(inner))) > 3 and len(convex_hull(lift(outer))) > 3:
            wrapped += 1
            found += got is not None
    assert wrapped > 100 and 0 < found < wrapped


def test_chord_end_is_the_fraction_reference_upper_bound():
    # Lines from the hull's vertices and from points inside it, so that the
    # far end is at the origin (0) or beyond it; every integer bound n / d
    # must be the rational one.
    rng = random.Random(4242)
    seen = {"at origin": 0, "beyond": 0}
    for _, outer in _random_polygon_pairs(rng, 150):
        hull = reference_convex_hull(outer)
        w = lcm(*(v.denominator for p in hull for v in p))
        int_hull = [(int(x * w), int(y * w), w) for x, y in hull]
        for _ in range(4):
            weights = [rng.randint(0, 3) * (rng.random() < 0.5) for _ in hull]
            weights[rng.randrange(len(hull))] += 1
            origin = tuple(sum(c * p[k] for c, p in zip(weights, hull)) / sum(weights) for k in (0, 1))
            direction = (0, 0)
            while direction == (0, 0):
                direction = (rng.randint(-3, 3), rng.randint(-3, 3))
            _, expected = oracles._chord_range(origin, direction, hull)
            ow = lcm(origin[0].denominator, origin[1].denominator)
            n, d = _chord_end((int(origin[0] * ow), int(origin[1] * ow), ow), direction, int_hull)
            assert d > 0 and Fraction(n, d) == expected
            seen["at origin" if n == 0 else "beyond"] += 1
    assert min(seen.values()) > 50, seen
