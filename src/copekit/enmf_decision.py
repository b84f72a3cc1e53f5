"""Complete decision of equirank-nonnegative-factorization existence.

Reduction.  Work with the merged (single-block) matrix C' of rank r, and
let Q = column-space(C') and Q* = row-space(C'), each intersected with the
simplex.  An equirank nonnegative model C' = F S has F's columns in Q, and
each row of S is nonnegative and in the row space, a scaled point of Q*.
So C' lies in cone{ q w^T : q a vertex of Q, w a vertex of Q* }; conversely
any theta >= 0 with sum theta_ab q_a w_b^T = C' is a model, F the q_a with
weight and S's row a the sum over b of theta_ab w_b^T.  Every q w^T lies in
column-space (x) row-space, of dimension r^2, where restriction to the
independent rows I and pivot columns J is one to one.  So an ENMF exists
at some inner dimension iff the exact linear program

    { theta >= 0 : sum theta_ab q_a[I] w_b[J]^T = C'[I, J] }

with r^2 rows and |Q| |Q*| columns is feasible.  Its Farkas vector, read
entry for entry as an r x r matrix M, is a noncontextuality inequality:
q[I]^T M w[J] <= 0 on every vertex pair, while <M, C'[I, J]> > 0, which a
loader checks with no program (``certify._check``).  The columns are built
in integers: a positive scale of a column or of the right-hand side moves
no sign of either answer, and theta absorbs it.

A simplex Q needs no program.  Q has dimension r - 1, so r vertices are
affinely independent; on the hyperplane sum = 1, which misses the origin,
they are linearly independent too.  Each column of C' then has one
representation on them, nonnegative as it lies in Q: the simplex model on
Q's vertices (``_model_from_simplex``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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
    """Negative answer for every inner dimension: the noncontextuality
    inequality M (``inequality``, r x r coprime integers) on the rows I
    (``rows``) and the columns J (``cols``) of C'."""

    rows: tuple
    cols: tuple
    inequality: tuple


Existence = Union[ExistenceResult, AbsenceResult]


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
    model, a negative answer the witness M, which excludes every inner
    dimension.  A simplex Q gives its model before Q* or the program is
    built, and so before the program's cap on |Q| |Q*|.  Raises
    GuardExceeded past the polytopes' guard or, Q not a simplex, the cap.
    """
    d = _derived(c)
    if not d.c.backend.is_exact:
        raise PreconditionError("the existence decision requires the exact backend")
    vertices = list(d.polytope.vertices)
    if len(vertices) == d.rank:
        pair = _model_from_simplex(d, vertices, d.at_rows(vertices))
    else:
        states = d.state_polytope.vertices
        if len(vertices) * len(states) > _LP_VARIABLE_CAP:
            raise GuardExceeded(f"product program with {len(vertices) * len(states)} variables exceeds the cap")
        rows, cols = d.independent_rows, d.echelon[1]
        # Column (a, b) is s_a q_a[I] (x) t_b w_b[J], with q_a = x_a / s_a and
        # w_b = z_b / t_b in integers, and the right-hand side is D C'[I, J].
        qs = [rla._integer_row(q) for q in vertices]
        ws = [rla._integer_row(w) for w in states]
        a_rows = [[x[i] * z[j] for x, _ in qs for z, _ in ws] for i in rows for j in cols]
        stacked = d.merged.stacked()
        b, scale = rla._integer_row([stacked[i][j] for i in rows for j in cols])
        theta, farkas = rla.lp_feasibility(a_rows, b)
        if theta is None:
            m, _ = rla._integer_row(farkas)
            g, r = gcd(*m), len(cols)
            return AbsenceResult(tuple(rows), tuple(cols), tuple(tuple(v // g for v in m[i:i + r]) for i in range(0, r * r, r)))
        # C' is the sum of theta_ab s_a t_b / D q_a w_b^T: F is the q_a with
        # weight, and S's row a is the sum over b of those weights times w_b.
        effects, s_rows = [], []
        for a, (q, (_, s)) in enumerate(zip(vertices, qs)):
            weights = [(v * s * t, w) for v, w, (_, t) in zip(theta[a * len(ws):], states, ws) if v]
            if weights:
                effects.append([x * d.c.n_measurements for x in q])
                s_rows.append([sum(v * w[j] for v, w in weights) / scale for j in range(len(states[0]))])
        pair = [list(row) for row in zip(*effects)], s_rows
    model = pair and _verified_model(d, *pair, ModelKind.NONCONTEXTUAL_ONTOLOGICAL)
    if model is None:
        raise AssertionError("the decided model must verify")
    return ExistenceResult(model)
