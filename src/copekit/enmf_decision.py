"""Complete decision of equirank-nonnegative-factorization existence.

Reduction.  Work with the merged (single-block) matrix C'.  Any equirank
nonnegative factorization C = R P has left-factor columns inside
Q = column-space(C') intersect the simplex, so each column of R/J is a
convex combination of Q's vertex matrix V: R/J = V M with M nonnegative.
Then C' = V (M P), and the new coefficient matrix M P is nonnegative,
column stochastic, has rank exactly rank(C) (it ranges between rank(C) and
rank(P) = rank(C); its rows stay inside the row space of the original P,
which equals the row space of C).  Conversely any nonnegative column-
stochastic P* with V P* = C' and rows inside row-space(C) yields an
equirank model with R = J V.  Hence:

    an ENMF exists at some inner dimension
        iff
    { P* >= 0 : V P* = C', 1^T P* = 1^T, P* K = 0 } is nonempty,

where K spans the right kernel of C' (the kernel constraint pins the row
space, forcing rank P* = rank C).  That set is an exact linear program;
infeasibility comes with a Farkas vector, so negative answers are
machine-checkable certificates, not search failures.

A simplex Q needs no program.  Q has dimension r - 1 for r = rank(C), so
when it has exactly r vertices they are affinely independent; they lie on
the hyperplane sum = 1, which misses the origin, so they are linearly
independent too.  Then V P = C' has exactly one solution P*: every column
of C' lies in Q, so P* is nonnegative and column stochastic, its rows are
combinations of the rows of C', and all r of them are nonzero because
rank(C') = r.  The program can only return P*, which is the simplex model
on Q's vertices (``_model_from_simplex``), the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import rational_linalg as rla
from .cope import CopeMatrix, PreconditionError
from .models import ModelFactorization, ModelKind, _verified_model
from .polytope import GuardExceeded, _Derived, _derived

_LP_VARIABLE_CAP = 4096


@dataclass(frozen=True)
class ExistenceResult:
    """Positive answer: a fully verified equirank nonnegative model."""

    model: ModelFactorization


@dataclass(frozen=True)
class AbsenceResult:
    """Negative answer for every inner dimension, with a Farkas certificate."""

    log: tuple
    farkas: tuple


Existence = Union[ExistenceResult, AbsenceResult]


def _vertex_lp(c: CopeMatrix, vertices) -> tuple:
    """Equality system for { P >= 0 : V P = C', columns stochastic, P K = 0 }.

    ``c`` is the merged matrix C' or a call's derived view, whose echelon
    of C' (shared with the rank and Q's basis) gives the kernel K.  Variable P[l][j]
    is column l n + j of k n.  Row i n + j is (V P)[i][j] = C'[i][j]; the n
    stochastic rows follow, then P K = 0 kernel-vector-major: row t k + l
    of that block is (P K)[l][t] = 0.  Rows are dense, with the ``int`` 0
    wherever a row is zero, each filled from the support of its entries.
    """
    d = _derived(c)
    k = len(vertices)
    n = d.merged.n_preparations
    stacked = d.merged.stacked()
    kernel = rla._kernel(*d.echelon, n)
    a_rows = []
    b = []
    for i, row_i in enumerate(stacked):
        support = [(l * n, v[i]) for l, v in enumerate(vertices) if v[i]]
        for j in range(n):
            row = [0] * (k * n)
            for offset, value in support:
                row[offset + j] = value
            a_rows.append(row)
            b.append(row_i[j])
    for j in range(n):
        row = [0] * (k * n)
        row[j::n] = [Fraction(1)] * k
        a_rows.append(row)
        b.append(Fraction(1))
    for kv in kernel:
        support = [(j, v) for j, v in enumerate(kv) if v]
        for l in range(k):
            row = [0] * (k * n)
            for j, value in support:
                row[l * n + j] = value
            a_rows.append(row)
            b.append(Fraction(0))
    return a_rows, b


def _model_from_vertex_coefficients(
    d: _Derived, vertices, coefficients
) -> Optional[ModelFactorization]:
    """The verified model on the vertices that carry weight: it is equirank, as
    the vertices lie in column-space(C') and the rows of P in row-space(C)."""
    c = d.c
    n = c.n_preparations
    p_rows = [[coefficients[l * n + j] for j in range(n)] for l in range(len(vertices))]
    used = [l for l, row in enumerate(p_rows) if any(row)]
    effects = [[vertices[l][i] * c.n_measurements for l in used] for i in range(c.n_rows)]
    states = [p_rows[l] for l in used]
    return _verified_model(d, effects, states, ModelKind.NONCONTEXTUAL_ONTOLOGICAL)


def _model_from_simplex(d: _Derived, points, points_at_rows) -> Optional[tuple]:
    """Factor pair whose merged response columns are the given simplex points,
    or None when some column is not a convex combination of them.

    ``points`` are r = rank(C) points of column-space(C') with unit sums,
    and ``points_at_rows`` the same points at the independent rows I of
    ``d`` (``d.at_rows(points)``).  Restriction to I is one-to-one on the
    column space, so when the r x r restriction T is invertible each column
    c has the unique coefficients T^-1 c_I, which sum to one as the points
    and the columns do; a singular T spans fewer than r dimensions and
    misses some column.  T is inverted once, fraction-free, and the
    coefficients stay integers until every column has passed the sign test.
    """
    r = len(points)
    # T = U S^-1: column l of U holds point l's numerators, S its denominators.
    inverse = rla._integer_inverse([[nums[i] for nums, _ in points_at_rows] for i in range(r)])
    if inverse is None:
        return None
    inv, det = inverse
    scales = [s for _, s in points_at_rows]
    coefficients = []
    for col, den in d.columns_at_rows:
        # T^-1 c_I = S U^-1 (col / den) = S inv col / (det den).
        nums = []
        for row, s in zip(inv, scales):
            v = s * sum(a * x for a, x in zip(row, col))
            if v < 0:
                return None
            nums.append(v)
        coefficients.append((nums, det * den))
    states = [[Fraction(nums[l], q) for nums, q in coefficients] for l in range(r)]
    j_count = d.c.n_measurements
    effects = [[p[i] * j_count for p in points] for i in range(d.merged.n_rows)]
    return effects, states


def decide_enmf_existence(c: CopeMatrix) -> Existence:
    """Does any equirank nonnegative factorization of ``c`` exist?

    Exact backend only.  Complete: a positive answer carries a verified
    model, a negative answer carries a Farkas vector certifying that the
    vertex linear program is empty, which excludes every inner dimension.
    When Q has exactly rank(C) vertices the program's one solution is the
    simplex model on them, returned without building the program; this
    comes before the program's variable cap, which limits only the
    program.  Raises GuardExceeded when the instance is too large for
    exact vertex enumeration or, Q not a simplex, for the program.
    """
    d = _derived(c)
    if not d.c.backend.is_exact:
        raise PreconditionError("the existence decision requires the exact backend")
    vertices = list(d.polytope.vertices)
    if len(vertices) == d.rank:
        pair = _model_from_simplex(d, vertices, d.at_rows(vertices))
        model = pair and _verified_model(d, *pair, ModelKind.NONCONTEXTUAL_ONTOLOGICAL)
        if model is None:
            raise AssertionError("a simplex Q must yield a verifiable model")
        return ExistenceResult(model)
    n = d.merged.n_preparations
    if len(vertices) * n > _LP_VARIABLE_CAP:
        raise GuardExceeded(
            f"vertex program with {len(vertices) * n} variables exceeds the cap"
        )
    a_rows, b = _vertex_lp(d, vertices)
    solution, farkas = rla.lp_feasibility(a_rows, b)
    if solution is None:
        return AbsenceResult(
            log=(
                f"span-simplex polytope has {len(vertices)} vertices",
                "no nonnegative column-stochastic coefficient matrix with rows in "
                "the row space maps them onto the columns",
                "by convexity this excludes an equirank nonnegative factorization "
                "at every inner dimension",
            ),
            farkas=tuple(farkas),
        )
    model = _model_from_vertex_coefficients(d, vertices, solution)
    if model is None:
        raise AssertionError("feasible vertex program must yield a verifiable model")
    return ExistenceResult(model)
