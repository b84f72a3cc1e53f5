"""Nonnegative factorization search for ontological models.

Positive results must be *sound*: every model returned here has been
re-verified against the source matrix (exactly, on the rational backend).
The search itself is allowed to be heuristic - seeded restarts of
multiplicative updates, run together as one batched update and each
polished by nonnegative least squares, followed by rational snapping and
exact re-verification - plus a family of deterministic geometric routes
for the equirank case: when the span-simplex polytope is itself a
simplex, when the extremal columns already form one, when some subset of
polytope vertices encloses every column, and (rank 3) the exact planar
nested-triangle construction.  The routes only propose ``(effects,
states)`` factor pairs; the caller verifies each pair once, at the model
kind it needs (ontological for ``nmf``, noncontextual ontological for
``enmf``).  Absence of a model is reported as ``None`` and proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Optional

from . import cope as cope_mod
from . import planar
from . import rational_linalg as rla
from .cope import CopeMatrix
from .enmf_decision import AbsenceResult, ExistenceResult, decide_enmf_existence
from .models import ModelFactorization, ModelKind, _verified_model
from .polytope import GuardExceeded, _Derived, _derived, affine_chart

if TYPE_CHECKING:
    import numpy as np

_SUBSET_CAP = 3000


@dataclass(frozen=True)
class NmfOptions:
    """Search budget for the nonnegative factorization heuristics."""

    inner_dim: int = 1
    max_restarts: int = 8
    max_iterations: int = 400
    seed: int = 0
    snap_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.inner_dim < 1:
            raise ValueError("inner_dim must be >= 1")
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")


def _trivial_padded(d: _Derived, k: int) -> Optional[tuple]:
    """The one-ontic-point-per-preparation factor pair, padded to inner dim k."""
    c = d.c
    n = c.n_preparations
    if k < n:
        return None
    be = c.backend
    effects = [list(row) + [row[0]] * (k - n) for row in c.stacked()]
    states = [[be.one() if l == j else be.zero() for j in range(n)] for l in range(k)]
    return effects, states


def _first_verified(d: _Derived, pairs, kind: ModelKind) -> Optional[ModelFactorization]:
    """The model of the first factor pair (None entries skipped) verified as ``kind``."""
    for pair in filter(None, pairs):
        model = _verified_model(d, *pair, kind)
        if model is not None:
            return model
    return None


# ---------------------------------------------------------------------------
# Deterministic equirank routes (exact backend)
# ---------------------------------------------------------------------------


def _model_from_simplex(d: _Derived, points) -> Optional[tuple]:
    """Factor pair whose merged response columns are the given simplex points,
    or None when some column is not a convex combination of them."""
    merged = d.merged
    j_count = d.c.n_measurements
    r = len(points)
    ambient = merged.n_rows
    t_cols = [[points[l][i] for l in range(r)] for i in range(ambient)]
    coeff_rows = [list(row) for row in t_cols] + [[Fraction(1)] * r]
    states = []
    for j in range(merged.n_preparations):
        col = [merged.blocks[0][i][j] for i in range(ambient)]
        beta = rla.solve_consistent(coeff_rows, col + [Fraction(1)])
        if beta is None or any(b < 0 for b in beta):
            return None
        states.append(beta)
    states_t = [[states[j][l] for j in range(len(states))] for l in range(r)]
    effects = [[points[l][i] * j_count for l in range(r)] for i in range(ambient)]
    return effects, states_t


def _simplex_pairs(d: _Derived):
    """Factor pairs (or None) of the deterministic equirank routes, lazily.

    Works on the merged matrix: an equirank model at inner dimension
    rank(C) is a simplex nested between the column polytope and the
    span-simplex polytope Q.  Proposes, in order: Q itself (when it is a
    simplex), the extremal columns, simplices on subsets of Q's vertices,
    and for rank 3 the exact planar decision.  Exact backend only; yields
    nothing on floats or when building Q hits a guard.
    """
    if not d.c.backend.is_exact:
        return
    r = d.rank
    try:
        vertices = list(d.polytope.vertices)
    except GuardExceeded:
        return

    if len(vertices) == r:
        yield _model_from_simplex(d, vertices)

    cols = list(dict.fromkeys(zip(*d.merged.stacked())))
    extremal = [col for j, col in enumerate(cols) if cope_mod._is_extremal(d.c.backend, cols, j)]
    if len(extremal) == r:
        yield _model_from_simplex(d, extremal)

    if len(vertices) > r and math.comb(len(vertices), r) <= _SUBSET_CAP:
        for subset in combinations(vertices, r):
            if rla.rank([list(v) for v in subset]) == r:
                yield _model_from_simplex(d, list(subset))

    if r == 3:
        chart, triangle = _nested_triangle(d)
        if triangle is not None:
            yield _model_from_simplex(d, [chart.to_ambient(p) for p in triangle])


def equirank_simplex_model(c: CopeMatrix) -> Optional[ModelFactorization]:
    """Deterministic search for an equirank nonnegative factorization.

    Each factor pair the deterministic routes propose at inner dimension
    rank(C) is verified once, as ontological; the first that passes is
    returned.  Exact backend only.
    """
    d = _derived(c)
    return _first_verified(d, _simplex_pairs(d), ModelKind.ONTOLOGICAL)


def _nested_triangle(d: _Derived):
    """Rank 3: ``(chart, triangle)``; the triangle nests between the column
    polygon and Q's polygon, in plane coordinates, and is None if none does."""
    merged = d.merged
    chart = affine_chart(d.polytope)
    stacked = merged.stacked()
    inner = [chart.to_plane([row[j] for row in stacked]) for j in range(merged.n_preparations)]
    outer = [chart.to_plane(v) for v in d.polytope.vertices]
    return chart, planar.nested_triangle(inner, outer)


# ---------------------------------------------------------------------------
# Heuristic search
# ---------------------------------------------------------------------------


def _restarts(arr: np.ndarray, k: int, seeds: list, iterations: int) -> list:
    """Seeded restarts as one batched multiplicative update, each NNLS-polished.

    Restart s starts from ``default_rng(s)`` and runs the Lee-Seung updates
    on its slice of an ``(S, m, k) x (S, k, n)`` stack; every 32 iterations
    the restarts that already reproduce ``arr`` to 1e-13 leave the stack.
    Each slice sees the same matrix products as a restart run on its own,
    so the result does not depend on which other seeds share the batch.
    Returns ``(residual, w, h)`` per seed, in seed order.
    """
    import numpy as np

    m, n = arr.shape
    scale = np.sqrt(max(arr.mean(), 1e-3))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    w = np.stack([rng.uniform(0.2, 1.0, (m, k)) for rng in rngs]) * scale
    h = np.stack([rng.uniform(0.2, 1.0, (k, n)) for rng in rngs]) * scale
    w_out, h_out = np.empty_like(w), np.empty_like(h)
    active = np.arange(len(seeds))
    tiny = 1e-12
    for it in range(iterations):
        w_t = w.transpose(0, 2, 1)
        h *= (w_t @ arr) / (w_t @ w @ h + tiny)
        h_t = h.transpose(0, 2, 1)
        w *= (arr @ h_t) / (w @ h @ h_t + tiny)
        if it % 32 == 31:
            done = np.abs(arr - w @ h).max(axis=(1, 2)) < 1e-13
            w_out[active[done]], h_out[active[done]] = w[done], h[done]
            w, h, active = w[~done], h[~done], active[~done]
            if not active.size:
                break
    w_out[active], h_out[active] = w, h
    return [_nnls_polish(arr, w_s, h_s) for w_s, h_s in zip(w_out, h_out)]


def _nnls_polish(arr: np.ndarray, w: np.ndarray, h: np.ndarray):
    """Two alternating NNLS sweeps; returns ``(residual, w, h)``."""
    import numpy as np
    import scipy.optimize

    m, n = arr.shape
    for _ in range(2):
        for j in range(n):
            h[:, j] = scipy.optimize.nnls(w, arr[:, j])[0]
        for i in range(m):
            w[i, :] = scipy.optimize.nnls(h.T, arr[i, :])[0]
        h = np.maximum(h, 0.0)
        w = np.maximum(w, 0.0)
    residual = float(np.abs(arr - w @ h).max())
    return residual, w, h


def _rescale(w: np.ndarray, h: np.ndarray, first_block: int):
    """Diagonal rescaling making the state factor column stochastic."""
    d = w[:first_block, :].sum(axis=0)
    d[d <= 1e-12] = 1.0
    return w / d, h * d[:, None]


def _snap_matrix(arr: np.ndarray, snap_tol: float):
    cap = max(4, int(round(1.0 / math.sqrt(snap_tol))))
    return [[Fraction(float(x)).limit_denominator(cap) for x in row] for row in arr]


def _exact_from_floats(
    c: CopeMatrix, w: np.ndarray, h: np.ndarray, opts: NmfOptions, kind=ModelKind.ONTOLOGICAL
) -> Optional[ModelFactorization]:
    """The first exact lift of a float candidate that verifies as ``kind``."""
    d = _derived(c)
    return _first_verified(d, _lifted_pairs(d, w, h, opts.snap_tol), kind)


def _lifted_pairs(d: _Derived, w: np.ndarray, h: np.ndarray, snap_tol: float):
    """Snap a float candidate to rationals, then repair one side exactly.

    Yields the snapped pair as-is first.  Then one factor is held at its
    snapped value and the other recovered by exact linear feasibility (the
    problem is linear once one side is fixed): the effects row by row, then
    the states column by column.  A repair with an infeasible row or column
    is skipped.
    """
    r_ex = _snap_matrix(w, snap_tol)
    p_ex = _snap_matrix(h, snap_tol)
    yield r_ex, p_ex

    stacked = [[Fraction(x) for x in row] for row in d.c.stacked()]
    m = len(stacked)
    n = d.c.n_preparations
    k = len(p_ex)

    # Fix states, recover effects row by row.
    rows = []
    for i in range(m):
        a_eq = [[p_ex[l][j] for l in range(k)] for j in range(n)]
        sol = rla.lp_feasible(a_eq, stacked[i])
        if sol is None:
            break
        rows.append(sol)
    else:
        yield rows, p_ex

    # Fix effects, recover states column by column.
    cols = []
    for j in range(n):
        a_eq = [[r_ex[i][l] for l in range(k)] for i in range(m)]
        a_eq.append([Fraction(1)] * k)
        sol = rla.lp_feasible(a_eq, [stacked[i][j] for i in range(m)] + [Fraction(1)])
        if sol is None:
            return
        cols.append(sol)
    yield r_ex, [[cols[j][l] for j in range(n)] for l in range(k)]


def search_candidates(
    c: CopeMatrix, k: int, opts: NmfOptions, need_equirank: bool = False
) -> list[ModelFactorization]:
    """All verified models found at inner dimension k.

    The routes propose factor pairs and each is verified once: as
    noncontextual ontological with ``need_equirank``, else as ontological.
    Deterministic candidates (trivial padding, then at k = rank the
    simplex routes) come first; when none verifies, heuristic restarts
    follow, ordered by (residual, seed), so the winner is the best fit and
    ties go to the lowest seed.
    """
    d = _derived(c)
    c = d.c
    r = d.rank
    if k < r:
        return []
    kind = ModelKind.NONCONTEXTUAL_ONTOLOGICAL if need_equirank else ModelKind.ONTOLOGICAL

    found = [_first_verified(d, [_trivial_padded(d, k)], kind)]
    if k == r:
        found.append(_first_verified(d, _simplex_pairs(d), kind))
    found = [model for model in found if model is not None]
    if found:
        return found

    arr = c.as_array()
    seeds = [opts.seed + i for i in range(opts.max_restarts)]
    results = list(zip(seeds, _restarts(arr, k, seeds, opts.max_iterations)))
    results.sort(key=lambda item: (item[1][0], item[0]))

    # A float restart off by more than eps cannot reconstruct C; the factor
    # 2 covers the rounding of _rescale and of the verifier's list product.
    cutoff = 1e-4 if c.backend.is_exact else 2 * c.backend.eps
    for seed, (residual, w, h) in results:
        if residual > cutoff:
            continue
        w_s, h_s = _rescale(w, h, c.block_sizes[0])
        if c.backend.is_exact:
            model = _exact_from_floats(d, w_s, h_s, opts, kind)
        else:
            model = _verified_model(d, w_s.tolist(), h_s.tolist(), kind)
        if model is not None:
            found.append(model)
    return found


def nmf(c: CopeMatrix, opts: NmfOptions) -> Optional[ModelFactorization]:
    """Best verified nonnegative factorization at opts.inner_dim, or None.

    Absence is a value: a None only means the search budget found nothing,
    except below rank(c) where no factorization can exist at all.
    """
    candidates = search_candidates(c, opts.inner_dim, opts)
    return candidates[0] if candidates else None


_DECIDE = object()


def enmf(
    c: CopeMatrix,
    opts: NmfOptions,
    max_k: Optional[int] = None,
    *,
    decision=_DECIDE,
) -> Optional[ModelFactorization]:
    """Equirank nonnegative factorization search, up to inner dim ``max_k``.

    A returned model always classifies as noncontextual ontological: every
    candidate is verified once at that kind.  On the exact backend the
    vertex-program decision ends the search: an absence gives None, a
    model at rank(c) is returned as it is, and a model above rank gives
    way to the first deterministic candidate at rank(c) that verifies
    (trivial padding, then ``equirank_simplex_model``), else is returned
    if its inner dimension is at most ``max_k`` (default rank + 3).  Only
    float matrices, and exact ones whose decision hit a guard, scan
    k = rank .. ``max_k`` with ``search_candidates`` and its heuristic
    restarts.  ``decision`` is a precomputed ``decide_enmf_existence``
    result (None after a guard), else computed here.
    """
    d = _derived(c)
    r = d.rank
    bound = max(max_k if max_k is not None else r + 3, r)
    if d.c.backend.is_exact:
        if decision is _DECIDE:
            try:
                decision = decide_enmf_existence(d)
            except GuardExceeded:
                decision = None
        if isinstance(decision, AbsenceResult):
            return None
        if isinstance(decision, ExistenceResult):
            if decision.model.inner_dim == r:
                return decision.model
            simplex = equirank_simplex_model(d)
            pairs = [_trivial_padded(d, r), simplex and (simplex.effects, simplex.states)]
            model = _first_verified(d, pairs, ModelKind.NONCONTEXTUAL_ONTOLOGICAL)
            if model is None and decision.model.inner_dim <= bound:
                model = decision.model
            return model

    for k in range(r, bound + 1):
        found = search_candidates(d, k, opts, need_equirank=True)
        if found:
            return found[0]
    return None
