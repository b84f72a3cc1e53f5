"""Span-simplex polytopes and exact vertex enumeration.

For a merged (single-block) column-stochastic matrix C, the polytope

    Q = column-space(C)  intersect  { x : x >= 0, sum(x) = 1 }

contains every column of C, and every column of any equirank nonnegative
left factor of C must lie inside it; its twin Q* = row-space(C) intersect
the simplex holds every normalized row of such a right factor.  Vertices
are enumerated with the double description method on the pointed cone
{ t : B t >= 0 }, where B is a basis of the span.  The arithmetic is
exact: the double description runs
on integer-scaled constraint rows and primitive integer rays, and each
vertex is an integer vector divided by its integer sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import cope as cope_mod
from . import rational_linalg as rla
from .cope import CopeMatrix, PreconditionError

AMBIENT_LIMIT = 64


class GuardExceeded(RuntimeError):
    """A computation guard (size or decidability) was exceeded."""


@dataclass(frozen=True)
class SpanSimplexPolytope:
    """Half-space data (basis of the span) plus enumerated vertices."""

    ambient_dim: int
    basis: tuple  # ambient_dim x r, columns span column-space(C)
    vertices: tuple  # each vertex: tuple of ambient_dim Fractions


def _primitive(ints) -> tuple:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def extreme_rays(a) -> list[tuple]:
    """Extreme rays of the pointed cone { t : a @ t >= 0 }.

    ``a`` must have full column rank (which makes the cone pointed).
    Standard incremental double description with the combinatorial
    adjacency test.  Tight sets are recomputed exactly against every
    processed constraint: combination rays can be accidentally tight on
    more constraints than their parents share, and an under-approximated
    tight set would let the adjacency test admit non-extreme rays.
    Each constraint row is scaled to integers first: a positive scaling
    keeps every sign and every tight set.  Rays are primitive ``int``
    tuples.
    """
    r = len(a[0])
    a = [rla._integer_row(row)[0] for row in a]
    init = rla.independent_rows(a)
    if len(init) < r:
        raise ValueError("matrix does not have full column rank")

    def exact_tight(ray, processed) -> frozenset:
        return frozenset(
            i for i in processed if sum(x * y for x, y in zip(a[i], ray)) == 0
        )

    # r independent rows: their inverse exists, as a positive multiple.
    d_inv, _ = rla._integer_inverse([a[i] for i in init])
    processed = list(init)
    rays = []
    for col in range(r):
        ray = _primitive([d_inv[row][col] for row in range(r)])
        rays.append((ray, exact_tight(ray, processed)))

    for idx, row in enumerate(a):
        if idx in init:
            continue
        evaluated = []
        for ray, tight in rays:
            s = sum(x * y for x, y in zip(row, ray))
            evaluated.append((s, ray, tight))
        processed.append(idx)
        plus = [(s, ray, tight) for s, ray, tight in evaluated if s > 0]
        zero = [(s, ray, tight | {idx}) for s, ray, tight in evaluated if s == 0]
        minus = [(s, ray, tight) for s, ray, tight in evaluated if s < 0]
        if not minus:
            rays = [(ray, tight) for _, ray, tight in plus + zero]
            continue
        new_rays = {ray: tight for _, ray, tight in plus + zero}
        all_tights = [tight for _, ray, tight in evaluated]
        for sp, rp, tp in plus:
            for sm, rm, tm in minus:
                common = tp & tm
                adjacent = True
                for other_tight in all_tights:
                    if other_tight is tp or other_tight is tm:
                        continue
                    if common <= other_tight:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = _primitive([sp * xm - sm * xp for xp, xm in zip(rp, rm)])
                if combo not in new_rays:
                    new_rays[combo] = exact_tight(combo, processed)
        rays = list(new_rays.items())
    return [ray for ray, _ in rays]


def span_simplex_polytope(c: CopeMatrix) -> SpanSimplexPolytope:
    """Vertices of column-space(C) intersected with the probability simplex.

    Requires the exact backend and a merged (single-block) matrix; apply
    :func:`copekit.cope.merge_measurements` first.  ``c`` may instead be a
    certifier call's derived view (``_Derived``), whose merged matrix and
    its echelon form are then used.
    """
    d = _derived(c)
    if not d.c.backend.is_exact:
        raise PreconditionError("vertex enumeration requires the exact backend")
    if not isinstance(c, _Derived) and c.n_measurements != 1:
        raise PreconditionError("merge measurements before enumerating vertices")
    if (ambient := d.merged.n_rows) > AMBIENT_LIMIT:
        raise GuardExceeded(f"ambient dimension {ambient} exceeds {AMBIENT_LIMIT}")
    stacked = d.merged.stacked()
    _, pivots = d.echelon
    basis = tuple(tuple(row[j] for j in pivots) for row in stacked)
    # B = B_int / den with one positive den: the same cone, in integers.
    return _simplex_section(basis, rla._integer_matrix(basis)[0])


def _simplex_section(basis: tuple, b_int) -> SpanSimplexPolytope:
    """{ B t : B t >= 0, sum(B t) = 1 } for ``basis``, enumerated on ``b_int``,
    whose columns are positive multiples of B's: the same cone and image, so
    a ray t gives the vertex (B_int t) / sum(B_int t), integers until then."""
    vertices = set()
    for ray in extreme_rays(b_int):
        x = [sum(b * t for b, t in zip(row, ray)) for row in b_int]
        total = sum(x)
        if total <= 0:
            raise AssertionError("unbounded direction in a subset of the simplex")
        vertices.add(tuple(Fraction(v, total) for v in x))
    return SpanSimplexPolytope(ambient_dim=len(b_int), basis=basis, vertices=tuple(sorted(vertices)))


class _Derived:
    """rank(c), the merged matrix C', its echelon, Q, Q* and the decision
    of one matrix, each built on first use.

    A top-level call makes one and drops it on return, so nothing derived
    outlives the call.  The tiers and ``classify_model`` take it in place
    of the matrix, so one call shares it; given a plain matrix, each makes
    its own.  An exact C is converted to integers once (``integer_rows``),
    and its ``echelon``, independent rows, Q*'s basis, forcing gate and
    model checks read that: each integer row is a positive multiple of a
    row of C' (C's rows over J, in order), so both share rank, reduced row
    echelon form and independent rows.  One Gauss-Jordan in integers
    (``echelon``) gives the exact rank, Q's basis and the pivot columns J.
    ``reports`` maps the ``id`` of each model ``models._verified_model``
    accepted to (model, report); the model is kept so its id is not
    reused, and rejected candidates are not kept.  The polytope guards
    raise again on every ask, as no exception is cached; a guard hit by
    the decision leaves ``decision`` None.  For the simplex routes of
    ``nmf`` and the decision it also holds the first rank-many independent
    rows I of C' and the merged columns restricted to I; at rank 3,
    ``plane``.
    """

    def __init__(self, c: CopeMatrix):
        self.c = c
        self.reports: dict[int, tuple] = {}

    @cached_property
    def rank(self) -> int:
        """rank(C): the pivot count of ``echelon``, or ``cope.rank`` on floats."""
        return len(self.echelon[1]) if self.c.backend.is_exact else cope_mod.rank(self.c)

    @cached_property
    def integer_rows(self) -> list[tuple[list[int], int]]:
        """Each stacked row of an exact C: integer numerators over a positive denominator."""
        return [rla._integer_row(row) for row in self.c.stacked()]

    @cached_property
    def merged(self) -> CopeMatrix:
        return cope_mod.merge_measurements(self.c)

    @cached_property
    def echelon(self) -> tuple[list, list[int]]:
        """``rla._echelon`` of ``integer_rows``: the kernel rows of the reduced row
        echelon form of C' (each row times its pivot entry) and its pivot columns."""
        return rla._echelon([row for row, _ in self.integer_rows])

    @cached_property
    def independent_rows(self) -> list[int]:
        """The first rank-many linearly independent rows I of C', from the
        integer rows at its r pivot columns: C' is those columns times the
        rows of ``echelon``, so its rows obey the same linear relations."""
        _, pivots = self.echelon
        return rla.independent_rows([[row[j] for j in pivots] for row, _ in self.integer_rows])

    def at_rows(self, points) -> list[tuple[list[int], int]]:
        """Each point at the rows I: integer numerators over a positive denominator."""
        return [rla._integer_row([p[i] for i in self.independent_rows]) for p in points]

    @cached_property
    def columns_at_rows(self) -> list[tuple[list[int], int]]:
        """The merged columns at the rows I, in column order."""
        return self.at_rows(zip(*self.merged.stacked()))

    @cached_property
    def polytope(self) -> SpanSimplexPolytope:
        """Q of the merged matrix.  Its one guard (the ambient dimension) is
        checked before any elimination, and an exception is not cached, so a
        hit raises again, at no cost, on every ask."""
        return span_simplex_polytope(self)

    @cached_property
    def state_polytope(self) -> SpanSimplexPolytope:
        """Q* = row-space(C') intersected with the simplex, on the basis of the
        integer rows I of C, positive multiples of C'[I, :], under Q's guard."""
        if (ambient := self.c.n_preparations) > AMBIENT_LIMIT:
            raise GuardExceeded(f"ambient dimension {ambient} exceeds {AMBIENT_LIMIT}")
        b_int = tuple(zip(*(self.integer_rows[i][0] for i in self.independent_rows)))
        return _simplex_section(b_int, b_int)

    @cached_property
    def plane(self) -> tuple:
        """Rank 3: Q's affine chart and the plane points of the merged columns, then of Q's vertices."""
        chart = affine_chart(self.polytope)
        return chart, chart.to_plane([*zip(*self.merged.stacked()), *self.polytope.vertices])

    @cached_property
    def decision(self):
        """``decide_enmf_existence(self)``; None on the float backend, where it
        is not called, and when a guard stopped it."""
        from .enmf_decision import decide_enmf_existence

        try:
            return decide_enmf_existence(self) if self.c.backend.is_exact else None
        except GuardExceeded:
            return None


def _derived(c) -> _Derived:
    """``c`` itself when it is already a derived view, else a new one."""
    return c if isinstance(c, _Derived) else _Derived(c)


def contains_point(poly: SpanSimplexPolytope, point) -> bool:
    """Membership of a point in the convex hull of the enumerated vertices."""
    cols = [[v[i] for v in poly.vertices] for i in range(poly.ambient_dim)]
    return rla.convex_combination(cols, list(point)) is not None


@dataclass(frozen=True)
class AffineChart:
    """Rational coordinates on the affine span { B t : sum(B t) = 1 }."""

    basis: tuple  # ambient x r
    t0: tuple  # one parameter vector with unit coordinate sum
    dirs: tuple  # r x (r-1) directions spanning the sum-zero subspace

    @property
    def dim(self) -> int:
        return len(self.dirs)

    def to_ambient(self, coords) -> tuple:
        t = [t0i + sum(alpha * d[i] for alpha, d in zip(coords, self.dirs)) for i, t0i in enumerate(self.t0)]
        return tuple(rla.mat_vec([list(row) for row in self.basis], t))

    def to_plane(self, points) -> list[tuple]:
        """Coordinates of each point: one elimination for all parameter vectors, one for all coordinates."""
        ts = rla.solve_columns([list(row) for row in self.basis], list(points))
        if None in ts:
            raise ValueError("point is not in the column space")
        dir_cols = [[d[i] for d in self.dirs] for i in range(len(self.t0))]
        coords = rla.solve_columns(dir_cols, [[ti - t0i for ti, t0i in zip(t, self.t0)] for t in ts])
        if None in coords:
            raise ValueError("point is not in the affine span")
        return [tuple(x) for x in coords]


def affine_chart(poly: SpanSimplexPolytope) -> AffineChart:
    """Build rational affine coordinates on the span of the polytope."""
    sigma = [sum(col) for col in zip(*poly.basis)]
    t0 = rla.solve_consistent([sigma], [Fraction(1)])
    if t0 is None:
        raise ValueError("degenerate span: no unit-sum parameter vector")
    return AffineChart(tuple(map(tuple, poly.basis)), tuple(t0), tuple(map(tuple, rla.nullspace([sigma]))))
