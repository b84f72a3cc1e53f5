"""Span-simplex polytopes and exact vertex enumeration.

For a merged (single-block) column-stochastic matrix C, the polytope

    Q = column-space(C)  intersect  { x : x >= 0, sum(x) = 1 }

contains every column of C, and every column of any equirank nonnegative
left factor of C must lie inside it.  Vertices are enumerated with the
double description method on the pointed cone { t : B t >= 0 }, where B is
a column basis of C.  The arithmetic is exact: the double description runs
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


def _independent_rows(a, r: int) -> list[int]:
    """Indices of r linearly independent rows of ``a``."""
    chosen: list[int] = []
    current: list = []
    for i, row in enumerate(a):
        candidate = current + [list(row)]
        if rla.rank(candidate) > len(current):
            chosen.append(i)
            current = candidate
            if len(chosen) == r:
                return chosen
    raise ValueError("matrix does not have the requested row rank")


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
    m = len(a)
    r = len(a[0])
    a = [rla._integer_row(row)[0] for row in a]
    init = _independent_rows(a, r)

    def exact_tight(ray, processed) -> frozenset:
        return frozenset(
            i for i in processed if sum(x * y for x, y in zip(a[i], ray)) == 0
        )

    inverse = rla._integer_inverse([a[i] for i in init])
    if inverse is None:
        raise ValueError("initial rows are singular")
    d_inv, _ = inverse  # a positive multiple of the inverse
    processed = list(init)
    rays = []
    for col in range(r):
        ray = _primitive([d_inv[row][col] for row in range(r)])
        rays.append((ray, exact_tight(ray, processed)))

    for idx in range(m):
        if idx in init:
            continue
        row = a[idx]
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
    ambient = d.merged.n_rows
    if ambient > AMBIENT_LIMIT:
        raise GuardExceeded(f"ambient dimension {ambient} exceeds {AMBIENT_LIMIT}")
    stacked = d.merged.stacked()
    _, pivots = d.echelon
    basis = [[stacked[i][j] for j in pivots] for i in range(ambient)]
    # B = B_int / den with one positive den, so the vertex B t / sum(B t) of
    # a ray t is (B_int t) / sum(B_int t): integers until the last division.
    flat, _ = rla._integer_row([v for row in basis for v in row])
    r = len(pivots)
    b_int = [flat[i * r:(i + 1) * r] for i in range(ambient)]
    rays = extreme_rays(b_int)
    vertices = set()
    for ray in rays:
        x = [sum(b * t for b, t in zip(row, ray)) for row in b_int]
        total = sum(x)
        if total <= 0:
            raise AssertionError("unbounded direction in a subset of the simplex")
        vertices.add(tuple(Fraction(v, total) for v in x))
    ordered = tuple(sorted(vertices))
    return SpanSimplexPolytope(
        ambient_dim=ambient,
        basis=tuple(tuple(row) for row in basis),
        vertices=ordered,
    )


class _Derived:
    """rank(c), the merged matrix C', its echelon form and Q of one matrix,
    each built on first use.

    A top-level call makes one and drops it on return, so nothing derived
    outlives the call.  The tiers and ``classify_model`` take it in place
    of the matrix, so one call shares it; given a plain matrix, each makes
    its own.  One Gauss-Jordan of C' (``echelon``) gives both Q's basis
    and the vertex program's kernel.  ``classify_model`` on the exact
    backend reads C's rows from ``integer_rows``, so every model one call
    verifies shares one conversion of C.  ``reports`` maps the ``id`` of
    each model ``models._verified_model`` accepted to (model, report); the
    model is kept so its id is not reused, and rejected candidates are not
    kept.  A guard hit while building Q is raised again on every ask.  For
    the simplex routes of ``nmf`` it also holds rank-many independent rows
    I of C' and the merged columns restricted to I.
    """

    def __init__(self, c: CopeMatrix):
        self.c = c
        self.reports: dict[int, tuple] = {}

    @cached_property
    def rank(self) -> int:
        return cope_mod.rank(self.c)

    @cached_property
    def integer_rows(self) -> list[tuple[list[int], int]]:
        """Each stacked row of C as integer numerators over a positive denominator."""
        return [rla._integer_row(row) for row in self.c.stacked()]

    @cached_property
    def merged(self) -> CopeMatrix:
        return cope_mod.merge_measurements(self.c)

    @cached_property
    def echelon(self) -> tuple[list, list[int]]:
        """The reduced row echelon form of C' and its pivot columns."""
        return rla.rref(self.merged.stacked())

    @cached_property
    def independent_rows(self) -> list[int]:
        """Rank-many linearly independent rows I of the merged matrix."""
        return _independent_rows(self.merged.stacked(), self.rank)

    def at_rows(self, points) -> list[tuple[list[int], int]]:
        """Each point at the rows I: integer numerators over a positive denominator."""
        return [rla._integer_row([p[i] for i in self.independent_rows]) for p in points]

    @cached_property
    def columns_at_rows(self) -> list[tuple[list[int], int]]:
        """The merged columns at the rows I, in column order."""
        return self.at_rows(zip(*self.merged.stacked()))

    @cached_property
    def _polytope(self):
        try:
            return span_simplex_polytope(self)
        except GuardExceeded as exc:
            return exc

    @property
    def polytope(self) -> SpanSimplexPolytope:
        """Q of the merged matrix; raises the GuardExceeded its build raised."""
        if isinstance(self._polytope, GuardExceeded):
            raise self._polytope
        return self._polytope


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
        t = list(self.t0)
        for alpha, d in zip(coords, self.dirs):
            for i in range(len(t)):
                t[i] += alpha * d[i]
        return tuple(rla.mat_vec([list(row) for row in self.basis], t))

    def to_plane(self, point) -> tuple:
        t = rla.solve_consistent([list(row) for row in self.basis], list(point))
        if t is None:
            raise ValueError("point is not in the column space")
        delta = [ti - t0i for ti, t0i in zip(t, self.t0)]
        dir_cols = [[d[i] for d in self.dirs] for i in range(len(self.t0))]
        coords = rla.solve_consistent(dir_cols, delta)
        if coords is None:
            raise ValueError("point is not in the affine span")
        return tuple(coords)


def affine_chart(poly: SpanSimplexPolytope) -> AffineChart:
    """Build rational affine coordinates on the span of the polytope."""
    basis = [list(row) for row in poly.basis]
    sigma = [sum(basis[i][j] for i in range(len(basis))) for j in range(len(basis[0]))]
    t0 = rla.solve_consistent([sigma], [Fraction(1)])
    if t0 is None:
        raise ValueError("degenerate span: no unit-sum parameter vector")
    dirs = rla.nullspace([sigma])
    return AffineChart(
        basis=tuple(tuple(row) for row in basis),
        t0=tuple(t0),
        dirs=tuple(tuple(d) for d in dirs),
    )
