"""Contextuality certification by rank separation.

An operational theory is noncontextual exactly when its matrix admits an
equirank nonnegative factorization.  The certifier tries its tiers cheapest
first; the first two are sound, so they never fire on a noncontextual
matrix, and their order changes no verdict and no evidence:

1. vertex forcing (exact backend): when every vertex of the span-simplex
   polytope Q is a column of the merged matrix and there are more vertices
   than the rank, every equirank left factor must contain them all, whose
   unique convex representations force disjointly supported state columns
   and a state rank above rank(C) - contextual; Q is not built for it when
   at most rank(C) distinct columns have the rank(C) - 1 zeros of a vertex;
2. a unique-zero (Sperner) witness whose span bound exceeds the rank -
   contextual;
3. the complete decision over Q x Q* (exact backend, within its guards),
   the call's ``_Derived.decision``: solved once, or not at all when Q is a
   simplex, whose vertices give a model; an infeasible program's Farkas
   vector is a noncontextuality inequality that every vertex pair obeys
   and C' violates, excluding every inner dimension - contextual;
4. a verified equirank model (noncontextual, constructive): ``enmf``'s
   model (``equirank_simplex_model``'s, if the decided one lies above
   rank), else the decided one with a note that it lies above the searched
   range.  After a decision ``enmf`` runs no heuristic restart.  Only float
   matrices, and exact ones whose decision hit a guard, search inner
   dimensions with the seeded restarts, run at rank(C) alone and then at
   every larger inner dimension as one zero-padded batch; when that finds
   nothing the verdict is an honest Undetermined carrying the searched
   inner-dimension range.

Q, Q*, the merged matrix, the rank and the decision are derived once per
call and shared by every tier and by ``_check``, the one evidence checker,
which re-derives a certificate from its matrix on the way out of
``certify`` and on load, an absence witness without a linear program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import rational_linalg as rla
from .cope import CopeMatrix, PreconditionError
from .enmf_decision import AbsenceResult, ExistenceResult, decide_enmf_existence
from .models import ModelFactorization, ModelKind, _report, _verified_model
from .nmf import NmfOptions, enmf, equirank_simplex_model
from .polytope import GuardExceeded, SpanSimplexPolytope, _Derived, _derived
from .sperner import (
    SpernerWitness,
    _zero_pattern,
    sperner_ontic_bound,
    sperner_span_bound,
    sperner_submatrix,
)

NONCONTEXTUAL = "Noncontextual"
CONTEXTUAL = "Contextual"
UNDETERMINED = "Undetermined"

_SIDEDNESS_NOTE = (
    "sperner witness uses the simultaneous row-and-column unique-zero condition; "
    "a column-only witness would still bound the span of the epistemic states"
)
_ABOVE_RANGE_NOTE = (
    "model found by the complete decision over Q x Q*; its inner dimension "
    "may exceed the searched range"
)


@dataclass(frozen=True)
class EnmfModel:
    model: ModelFactorization


@dataclass(frozen=True)
class VertexForcing:
    polytope: SpanSimplexPolytope
    forced_rank: int


@dataclass(frozen=True)
class SpernerSeparation:
    witness: SpernerWitness
    rank: int


# The decision's absence witness is the certificate's evidence as it is.
ExhaustiveAbsence = AbsenceResult


Evidence = Union[EnmfModel, VertexForcing, SpernerSeparation, ExhaustiveAbsence, None]


@dataclass(frozen=True)
class Certificate:
    verdict: str
    evidence: Evidence
    rank: int
    searched_k_range: Optional[tuple] = None
    notes: tuple = field(default=())


def vertex_forcing_certificate(
    c: CopeMatrix,
) -> Optional[tuple[SpanSimplexPolytope, int]]:
    """Geometric contextuality evidence, or None.

    Fires iff every vertex of the span-simplex polytope of the merged
    matrix appears among its columns and the number of distinct vertices
    exceeds rank(C).  Exact backend only.  Q has dimension r - 1, r =
    rank(C), so each vertex of Q is tight at r - 1 or more of the
    constraints x_i >= 0; as forcing needs more than r vertices, all of
    them columns, it gives None before Q is built when at most r distinct
    merged columns have r - 1 zero entries.  It counts them on ``integer_rows``,
    whose positive row scales map columns one-to-one and keep each zero.
    """
    d = _derived(c)
    if not d.c.backend.is_exact:
        raise PreconditionError("vertex forcing requires the exact backend")
    columns = set(zip(*(row for row, _ in d.integer_rows)))
    if sum(col.count(0) >= d.rank - 1 for col in columns) <= d.rank:
        return None
    poly = d.polytope
    vertices = set(poly.vertices)
    if not vertices <= set(zip(*d.merged.stacked())):
        return None
    forced = len(vertices)
    if forced <= d.rank:
        return None
    return poly, forced


_VERDICT_OF_EVIDENCE = {
    EnmfModel: NONCONTEXTUAL,
    VertexForcing: CONTEXTUAL,
    SpernerSeparation: CONTEXTUAL,
    ExhaustiveAbsence: CONTEXTUAL,
    type(None): UNDETERMINED,
}


def _check(d: _Derived, cert: Certificate) -> Optional[tuple[str, str]]:
    """(field, message) of the first claim of ``cert`` not re-derived from ``d``, else None.

    Checks the verdict of the evidence, the rank, the searched range, the
    model, the forcing polytope, the Sperner witness and the absence
    witness.  A model that ``d`` already accepted is not classified again.
    """
    evidence, r = cert.evidence, d.rank
    if cert.verdict != _VERDICT_OF_EVIDENCE.get(type(evidence)):
        name = type(evidence).__name__
        return "verdict", f"verdict {cert.verdict!r} does not follow from {name} evidence"
    if cert.rank != r:
        return "rank", f"rank claim {cert.rank} does not re-verify"
    k_range = cert.searched_k_range
    if k_range is not None and (len(k_range) != 2 or k_range[0] != r or k_range[1] < r):
        return "searched_k_range", f"searched range {list(k_range)} is not [{r}, bound >= {r}]"
    if isinstance(evidence, EnmfModel):
        try:
            report = _report(d, evidence.model)
        except PreconditionError as exc:
            return "evidence", f"embedded model: {exc}"
        if ModelKind.NONCONTEXTUAL_ONTOLOGICAL not in report.inferred_kinds:
            return "evidence", "model does not re-verify as equirank nonnegative"
    elif isinstance(evidence, VertexForcing):
        try:
            rebuilt = vertex_forcing_certificate(d)
        except (GuardExceeded, PreconditionError) as exc:
            return "evidence", f"span-simplex polytope not rebuilt: {exc}"
        if rebuilt is None or VertexForcing(*rebuilt) != evidence:
            return "evidence", "forcing evidence does not re-derive from the matrix"
    elif isinstance(evidence, SpernerSeparation):
        w, zero = evidence.witness, _zero_pattern(d.c)
        rows, cols = w.row_indices, w.col_indices
        if w.m < 1 or not len(rows) == len(cols) == w.m:
            return "evidence", "witness index lists do not match m"
        if any((a == b) != zero[i][j] for a, i in enumerate(rows) for b, j in enumerate(cols)):
            return "evidence", "witness zero pattern does not re-verify"
        bounds = (w.ontic_dim_lower_bound, w.factor_span_lower_bound)
        if bounds != (sperner_ontic_bound(w.m), sperner_span_bound(w.m)):
            return "evidence", "witness bounds do not re-verify"
        if evidence.rank != r or w.factor_span_lower_bound <= r:
            return "evidence", "span bound does not exceed the rank"
    elif isinstance(evidence, ExhaustiveAbsence):
        # Sound for any distinct rows I and columns J: were C' = sum theta_ab
        # q_a w_b^T with theta >= 0, <M, C'[I, J]> = sum theta_ab q_a[I]^T M
        # w_b[J] <= 0.  In integers, on positive multiples of q[I], w[J] and
        # C'[I, J]: u = q^T M once per q, then one dot per w.
        rows, cols, m = evidence.rows, evidence.cols, evidence.inequality
        bounds = ((rows, d.merged.n_rows), (cols, d.merged.n_preparations))
        if not (len(set(rows)) == len(rows) == len(set(cols)) == len(cols) == len(m) == r
                and all(len(row) == r and all(type(v) is int for v in row) for row in m)
                and all(type(i) is int and 0 <= i < n for indices, n in bounds for i in indices)):
            return "evidence", f"witness is not {r} x {r} integers on {r} distinct rows and columns in range"
        try:
            q_vertices, w_vertices = d.polytope.vertices, d.state_polytope.vertices
        except (GuardExceeded, PreconditionError) as exc:
            return "evidence", f"span-simplex polytopes not rebuilt: {exc}"
        stacked = d.merged.stacked()
        c_ij, _ = rla._integer_row([stacked[i][j] for i in rows for j in cols])
        if sum(v * x for v, x in zip((v for row in m for v in row), c_ij)) <= 0:
            return "evidence", "the matrix does not violate the witness inequality"
        ws = [rla._integer_row([w[j] for j in cols])[0] for w in w_vertices]
        for q in q_vertices:
            x, _ = rla._integer_row([q[i] for i in rows])
            u = [sum(xi * row[j] for xi, row in zip(x, m)) for j in range(r)]
            if any(sum(a * b for a, b in zip(u, z)) > 0 for z in ws):
                return "evidence", "a vertex pair of Q x Q* violates the witness inequality"
    return None


@dataclass(frozen=True)
class Exists:
    model: ModelFactorization


@dataclass(frozen=True)
class NotExists:
    log: tuple
    all_k: bool


Decision = Union[Exists, NotExists]

_GUARD_TOTAL = 10
_GUARD_K = 5


def exhaustive_enmf_decision(c: CopeMatrix, k: int) -> Decision:
    """Exact yes/no for an equirank nonnegative factorization at inner dim <= k.

    Guarded: rows + columns <= 10 and k <= 5, exact backend.  Positive
    answers carry a verified model: ``equirank_simplex_model``'s, padded
    to k, else the complete decision's if at most k.  Negative answers
    carry a proof log; ``all_k`` marks proofs (an absence witness)
    that exclude every inner dimension, not just those up to k.  The
    residual window where a model exists at some larger dimension but
    dimension k itself cannot be settled raises GuardExceeded rather than
    guessing.
    """
    if not c.backend.is_exact:
        raise PreconditionError("exhaustive decision requires the exact backend")
    total = c.n_rows + c.n_preparations
    if total > _GUARD_TOTAL or k > _GUARD_K:
        raise GuardExceeded(
            f"instance size {total} or inner dimension {k} exceeds the exhaustive guard"
        )
    d = _Derived(c)
    r = d.rank
    if k < r:
        return NotExists(
            log=(f"inner dimension {k} is below rank {r}; no factorization exists",),
            all_k=False,
        )

    model = equirank_simplex_model(d)
    if model is not None and k > r:
        padded = _pad_model(d, model.effects, model.states, k)
        model = _verified_model(d, *padded, ModelKind.NONCONTEXTUAL_ONTOLOGICAL)
    if model is not None:
        return Exists(model)

    decision = decide_enmf_existence(d)
    if isinstance(decision, AbsenceResult):
        return NotExists(log=(f"{decision} excludes every inner dimension",), all_k=True)
    if decision.model.inner_dim <= k:
        return Exists(decision.model)

    # A model exists at a larger inner dimension; settle the asked window.
    # At rank 3 the search above tried the nested triangle, whose pair verifies.
    if k == r == 3:
        return NotExists(
            log=(
                "rank 3: no triangle nests between the column polygon and the span polygon",
                "checked exactly via flush-edge greedy wrapping",
                f"a model does exist at inner dimension {decision.model.inner_dim}",
            ),
            all_k=False,
        )

    raise GuardExceeded(
        f"a model exists at inner dimension {decision.model.inner_dim} > {k} and the "
        f"window below it is not decidable by the implemented routes"
    )


def _pad_model(d: _Derived, effects, states, k: int) -> tuple:
    """Duplicate a response column (splitting its weights) up to inner dim k."""
    effects = [list(row) for row in effects]
    states = [list(row) for row in states]
    half = d.c.backend.one() / 2
    while len(states) < k:
        for row in effects:
            row.append(row[-1])
        last = states[-1]
        states[-1] = [x * half for x in last]
        states.append([x * half for x in last])
    return effects, states


def certify(
    c: CopeMatrix, opts: Optional[NmfOptions] = None, max_k: Optional[int] = None
) -> Certificate:
    """Full certification pipeline.

    Tier order: vertex forcing (contextual, exact backend), Sperner
    separation (contextual), the complete decision over Q x Q* (exact
    backend, within its guards; solved once, or not at all when Q is a
    simplex), equirank model search (noncontextual), otherwise
    Undetermined with the searched range.  The two contextual tiers are
    sound, so they never fire on a noncontextual matrix and running them
    first changes no verdict.  A proven absence is returned at once; a
    decided model is returned as it is, unless ``equirank_simplex_model``
    gives one at rank(C), with a note if above ``max_k``.  Only
    float matrices and guard-hit exact ones run the heuristic restarts:
    at rank(C) alone, then at rank(C) + 1 .. ``max_k`` as one batch.
    A certificate that ``_check`` does not re-derive raises AssertionError.
    """
    opts = opts or NmfOptions()
    d = _Derived(c)
    r = d.rank
    bound = max(max_k if max_k is not None else r + 3, r)

    def issue(verdict: str, evidence: Evidence, *notes: str) -> Certificate:
        cert = Certificate(verdict, evidence, r, (r, bound), notes)
        if (problem := _check(d, cert)) is not None:
            raise AssertionError(f"certificate does not re-derive: {problem[1]}")
        return cert

    if c.backend.is_exact:
        try:
            forcing = vertex_forcing_certificate(d)
        except GuardExceeded:
            forcing = None
        if forcing is not None:
            return issue(CONTEXTUAL, VertexForcing(*forcing))

    witness = sperner_submatrix(c)
    if witness is not None and witness.factor_span_lower_bound > r:
        return issue(CONTEXTUAL, SpernerSeparation(witness, r), _SIDEDNESS_NOTE)

    if isinstance(d.decision, AbsenceResult):
        return issue(CONTEXTUAL, d.decision)

    model = enmf(d, opts, max_k=bound)
    if model is None and isinstance(d.decision, ExistenceResult):
        model = d.decision.model
    if model is not None:
        notes = (_ABOVE_RANGE_NOTE,) if model.inner_dim > bound else ()
        return issue(NONCONTEXTUAL, EnmfModel(model), *notes)
    return issue(
        UNDETERMINED,
        None,
        "no equirank model found up to the searched inner dimension and no "
        "nonexistence proof applies; larger inner dimensions remain open",
    )
