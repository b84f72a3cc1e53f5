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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import rational_linalg as rla
from .cope import CopeMatrix, PreconditionError
from .models import ModelFactorization, ModelKind, classify_model, make_model
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


def _vertex_lp(merged: CopeMatrix, vertices) -> tuple:
    """Equality system for { P >= 0 : V P = C', columns stochastic, P K = 0 }."""
    k = len(vertices)
    n = merged.n_preparations
    ambient = merged.n_rows
    stacked = merged.stacked()
    kernel = rla.nullspace(stacked)

    def var(l: int, j: int) -> int:
        return l * n + j

    a_rows = []
    b = []
    for i in range(ambient):
        for j in range(n):
            row = [Fraction(0)] * (k * n)
            for l in range(k):
                row[var(l, j)] = vertices[l][i]
            a_rows.append(row)
            b.append(stacked[i][j])
    for j in range(n):
        row = [Fraction(0)] * (k * n)
        for l in range(k):
            row[var(l, j)] = Fraction(1)
        a_rows.append(row)
        b.append(Fraction(1))
    for kv in kernel:
        for l in range(k):
            row = [Fraction(0)] * (k * n)
            for j in range(n):
                row[var(l, j)] = kv[j]
            a_rows.append(row)
            b.append(Fraction(0))
    return a_rows, b


def _model_from_vertex_coefficients(
    d: _Derived, vertices, coefficients
) -> Optional[ModelFactorization]:
    """Assemble, prune unused vertices, and verify the equirank model."""
    c = d.c
    j_count = c.n_measurements
    n = c.n_preparations
    k = len(vertices)
    p_rows = [[coefficients[l * n + j] for j in range(n)] for l in range(k)]

    def build(rows_keep):
        effects = [
            [vertices[l][i] * j_count for l in rows_keep] for i in range(c.n_rows)
        ]
        states = [p_rows[l] for l in rows_keep]
        model = make_model(
            effects=effects,
            states=states,
            unit=[Fraction(1)] * len(rows_keep),
            kind=ModelKind.NONCONTEXTUAL_ONTOLOGICAL,
            block_sizes=c.block_sizes,
            backend=c.backend,
        )
        report = classify_model(d, model)
        if ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds:
            return model
        return None

    used = [l for l in range(k) if any(x != 0 for x in p_rows[l])]
    if used and len(used) < k:
        pruned = build(used)
        if pruned is not None:
            return pruned
    return build(list(range(k)))


def decide_enmf_existence(c: CopeMatrix) -> Existence:
    """Does any equirank nonnegative factorization of ``c`` exist?

    Exact backend only.  Complete: a positive answer carries a verified
    model, a negative answer carries a Farkas vector certifying that the
    vertex linear program is empty, which excludes every inner dimension.
    Raises GuardExceeded when the instance is too large for exact vertex
    enumeration or the resulting program.
    """
    d = _derived(c)
    if not d.c.backend.is_exact:
        raise PreconditionError("the existence decision requires the exact backend")
    merged = d.merged
    vertices = list(d.polytope.vertices)
    n = merged.n_preparations
    if len(vertices) * n > _LP_VARIABLE_CAP:
        raise GuardExceeded(
            f"vertex program with {len(vertices) * n} variables exceeds the cap"
        )
    a_rows, b = _vertex_lp(merged, vertices)
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
