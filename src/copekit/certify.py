"""Contextuality certification by rank separation.

An operational theory is noncontextual exactly when its matrix admits an
equirank nonnegative factorization.  The certifier tries its tiers cheapest
first; the first two are sound, so they never fire on a noncontextual
matrix, and their order changes no verdict and no evidence:

1. vertex forcing (exact backend): when every vertex of the span-simplex
   polytope is a column of the merged matrix and there are more vertices
   than the rank, every equirank left factor must contain all those
   vertices as columns, whose unique convex representations force
   disjointly supported state columns and hence a state rank above
   rank(C) - contextual;
2. a unique-zero (Sperner) witness whose span bound exceeds the rank -
   contextual;
3. the complete vertex-program decision (exact backend, within its
   guards), solved once: an infeasible program comes with a Farkas vector
   excluding every inner dimension - contextual;
4. a verified equirank model (noncontextual, constructive).  After the
   decision this is its model, or a smaller one from the deterministic
   routes at inner dimension rank(C) when the model sits above rank; no
   heuristic restart runs.  Only float matrices, and exact ones whose
   decision hit a guard, search inner dimensions with the seeded restarts,
   run at rank(C) alone and then at every larger inner dimension as one
   zero-padded batch; when that finds nothing the verdict is an honest
   Undetermined carrying the searched inner-dimension range.

Q, the merged matrix and the rank are derived once per call and shared by
every tier and by ``_check``, the one evidence checker, which re-derives a
certificate from its matrix on the way out of ``certify`` and on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .cope import CopeMatrix, PreconditionError
from .enmf_decision import AbsenceResult, ExistenceResult, decide_enmf_existence
from .models import ModelFactorization, ModelKind, _report
from .nmf import NmfOptions, _first_verified, _nested_triangle, _simplex_pairs, enmf
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


@dataclass(frozen=True)
class ExhaustiveAbsence:
    log: tuple


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
    exceeds rank(C).  Exact backend only.
    """
    d = _derived(c)
    if not d.c.backend.is_exact:
        raise PreconditionError("vertex forcing requires the exact backend")
    merged = d.merged
    poly = d.polytope
    columns = {
        tuple(merged.blocks[0][i][j] for i in range(merged.n_rows))
        for j in range(merged.n_preparations)
    }
    vertices = set(poly.vertices)
    if not vertices <= columns:
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
    model, the forcing polytope and the Sperner witness; not an absence log.
    A model that ``d`` already accepted is not classified again.
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
    return None


def _absence_log(decision: AbsenceResult) -> tuple:
    """The proof log of an infeasible vertex program, ending in its Farkas vector."""
    return decision.log + ("farkas: " + " ".join(str(y) for y in decision.farkas),)


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
    answers carry a fully verified model of inner dimension at most k.
    Negative answers carry a proof log; ``all_k`` marks proofs (an
    infeasible vertex program) that exclude every inner dimension, not
    just those up to k.  The residual window where a model exists at some
    larger dimension but dimension k itself cannot be settled raises
    GuardExceeded rather than guessing.
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

    padded = (_pad_model(d, *pair, k) for pair in filter(None, _simplex_pairs(d)))
    model = _first_verified(d, padded, ModelKind.NONCONTEXTUAL_ONTOLOGICAL)
    if model is not None:
        return Exists(model)

    decision = decide_enmf_existence(d)
    if isinstance(decision, AbsenceResult):
        return NotExists(log=_absence_log(decision), all_k=True)
    if decision.model.inner_dim <= k:
        return Exists(decision.model)

    # A model exists at a larger inner dimension; settle the asked window.
    if k == r == 3 and _nested_triangle(d)[1] is None:
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
    separation (contextual), the complete vertex-program decision (exact
    backend, within its guards; solved once), equirank model search
    (noncontextual), otherwise Undetermined with the searched range.  The
    two contextual tiers are sound, so they never fire on a noncontextual
    matrix and running them first changes no verdict.  A proven absence is
    returned at once; a decided model is returned as it is, unless a
    deterministic route at inner dimension rank(C) gives a smaller one.
    It carries a note when its inner dimension exceeds ``max_k``.  Only
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

    decision = None
    if c.backend.is_exact:
        try:
            decision = decide_enmf_existence(d)
        except GuardExceeded:
            pass
        if isinstance(decision, AbsenceResult):
            return issue(CONTEXTUAL, ExhaustiveAbsence(_absence_log(decision)))

    model = enmf(d, opts, max_k=bound, decision=decision)
    if model is not None:
        return issue(NONCONTEXTUAL, EnmfModel(model))
    if isinstance(decision, ExistenceResult):
        return issue(
            NONCONTEXTUAL,
            EnmfModel(decision.model),
            "model found by the complete vertex program; its inner dimension "
            "may exceed the searched range",
        )
    return issue(
        UNDETERMINED,
        None,
        "no equirank model found up to the searched inner dimension and no "
        "nonexistence proof applies; larger inner dimensions remain open",
    )
