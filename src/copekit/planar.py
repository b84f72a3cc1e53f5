"""Exact planar geometry: nested-triangle decision between convex polygons.

Rank-3 instances reduce the equirank nonnegative factorization question to:
does a triangle T exist with inner polygon P inside T inside outer polygon
Q?  A minimal nested polygon can always be chosen with one side flush with
an edge of P, so the decision enumerates flush starting sides and wraps
greedily: extend the side to its far intersection with the boundary of Q,
then repeatedly take the supporting line of P through the current point
that advances the most.  If any chain closes in three sides the triangle is
returned; otherwise no nested triangle exists.  Points are integer triples
(X, Y, W), W > 0, for (X / W, Y / W), the inputs over one common W; only the
returned triangle is made of Fractions.  An orientation (a 3 x 3 determinant,
the rational one times the W's) keeps its sign, chord bounds n / d, d > 0,
compare by cross-multiplication, and a common W keeps the lexicographic
order and distance ratios along a line, so no branch can move.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .rational_linalg import _integer_matrix

Point = tuple  # (X, Y, W), W > 0, standing for (X / W, Y / W)


def _sub(q: Point, p: Point) -> tuple:
    """The vector q - p times p_W q_W > 0, in integers."""
    return (q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])


def _cross(u: tuple, v: tuple) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _orient(a: Point, b: Point, c: Point) -> int:
    """Positive when a->b->c turns left: the determinant of the three triples."""
    (ax, ay, aw), (bx, by, bw), (cx, cy, cw) = a, b, c
    return ax * (by * cw - cy * bw) - ay * (bx * cw - cx * bw) + aw * (bx * cy - cx * by)


def _same(p: Point, q: Point) -> bool:
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


def _along(origin: Point, direction: tuple, s: tuple) -> Point:
    """origin + (n / d) * direction, for s = (n, d) with d > 0."""
    (n, d), w = s, origin[2]
    return (origin[0] * d + n * w * direction[0], origin[1] * d + n * w * direction[1], w * d)


def _rational(points) -> tuple:
    return tuple((Fraction(x, w), Fraction(y, w)) for x, y, w in points)


def triples(points: Sequence[tuple]) -> list[Point]:
    """(x, y) pairs of ``Fraction`` (or ``int``) as triples over one W, their denominators' lcm."""
    rows, w = _integer_matrix(points)
    return [(x, y, w) for x, y in rows]


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Strict convex hull of points sharing one W, counterclockwise, no collinear interior vertices."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def point_in_hull(p: Point, hull: Sequence[Point]) -> bool:
    """Membership in a CCW convex polygon of three or more vertices (boundary counts as inside)."""
    n = len(hull)
    return all(_orient(hull[i], hull[(i + 1) % n], p) >= 0 for i in range(n))


def _chord_end(origin: Point, direction: tuple, hull: Sequence[Point]) -> tuple:
    """Largest s with origin + s * direction in hull, as (n, d) for n / d, d > 0.

    The origin must lie in the hull and the direction be nonzero, so the
    chord is never empty and s = 0 is on it: only the far end can decide.
    """
    hi = None
    for a, b in zip(hull, [*hull[1:], hull[0]]):
        # Inside condition: orient(a, b, origin) + s * coeff >= 0, both times
        # a_W b_W origin_W.
        coeff = _cross(_sub(b, a), direction) * origin[2]
        if coeff < 0:
            bound = (_orient(a, b, origin), -coeff)
            hi = bound if hi is None or bound[0] * hi[1] < hi[0] * bound[1] else hi
    return hi


def _advancing_tangent(x: Point, hull: Sequence[Point]) -> Optional[Point]:
    """Vertex t of hull with the hull weakly left of the line x -> t.

    Among admissible vertices the farthest along the tangent direction is
    chosen (maximal advance).  Returns None when x is strictly inside.
    """
    best: Optional[Point] = None
    for t in hull:
        if _same(t, x):
            continue
        if all(_orient(x, t, q) >= 0 for q in hull):
            if best is None:
                best = t
            else:
                # Same supporting line: prefer the farther contact point.
                if _orient(x, best, t) == 0:
                    # best and t share their W, so both vectors carry x_W t_W.
                    db = _sub(best, x)
                    dt = _sub(t, x)
                    if dt[0] * dt[0] + dt[1] * dt[1] > db[0] * db[0] + db[1] * db[1]:
                        best = t
                else:
                    # Distinct supporting directions can only happen at a
                    # vertex of the hull itself; take the more advanced one.
                    if _orient(x, best, t) < 0:
                        best = t
    return best


def nested_triangle(inner: Sequence[tuple], outer: Sequence[tuple]) -> Optional[tuple]:
    """A triangle T with hull(inner) inside T inside hull(outer), or None.

    Both polygons must be full-dimensional (three or more hull vertices)
    and the inner hull must lie inside the outer one.  Points are (x, y)
    pairs of ``Fraction`` (or ``int``), and so are the triangle's corners.
    """
    points = triples([*inner, *outer])
    p_hull, q_hull = convex_hull(points[: len(inner)]), convex_hull(points[len(inner) :])
    if len(p_hull) < 3 or len(q_hull) < 3:
        raise ValueError("nested_triangle expects full-dimensional polygons")
    if len(p_hull) == 3:
        return _rational(p_hull)
    if len(q_hull) == 3:
        return _rational(q_hull)

    n = len(p_hull)
    for i in range(n):
        pa, pb = p_hull[i], p_hull[(i + 1) % n]
        d0 = _sub(pb, pa)
        a = _along(pa, d0, _chord_end(pa, d0, q_hull))

        t1 = _advancing_tangent(a, p_hull)
        if t1 is None:
            continue
        d1 = _sub(t1, a)
        hi1 = _chord_end(a, d1, q_hull)
        if hi1[0] <= 0:
            continue
        b = _along(a, d1, hi1)
        if _same(b, a):
            continue

        t2 = _advancing_tangent(b, p_hull)
        if t2 is None:
            continue
        d2 = _sub(t2, b)

        # v = b + s * d2 on the line of pa and d0.
        denom = _cross(d2, d0) * b[2] * pa[2]
        if denom == 0:
            continue
        num = _cross(_sub(pa, b), d0)
        v = _along(b, d2, (num, denom) if denom > 0 else (-num, -denom))
        triangle = (a, b, v)
        if _orient(a, b, v) <= 0:
            continue
        if not point_in_hull(v, q_hull):
            continue
        if all(_orient(triangle[s], triangle[(s + 1) % 3], q) >= 0 for s in range(3) for q in p_hull):
            return _rational(triangle)
    return None
