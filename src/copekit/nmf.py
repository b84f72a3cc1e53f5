"""Nonnegative factorization search for ontological models.

Positive results must be *sound*: every model returned here has been
re-verified against the source matrix (exactly, on the rational backend).
The search itself is allowed to be heuristic - seeded restarts of
multiplicative updates, each polished by nonnegative least squares,
followed by rational snapping and exact re-verification - plus a family
of deterministic geometric routes for the equirank case: when the
span-simplex polytope is itself a simplex, when the extremal columns
already form one, when some subset of polytope vertices encloses every
column, and (rank 3) the exact planar nested-triangle construction, whose
plane (``_Derived.plane``, one per call) also gives the extremal columns
with no LP.  The routes only propose ``(effects, states)`` factor pairs,
and only this module walks them (``search_candidates`` at k = rank, and
``equirank_simplex_model``), verifying each pair once, at the model kind
its caller needs, up to the first that passes: a noncontextuality verdict
needs one equirank model, not all of them.  Absence of a model is
reported as ``None`` and proves nothing.

One batch runs the restarts of several seeds and inner dimensions as one
stack of multiplicative updates: each (k, seed) slice is zero-padded to
the largest k, and since a padded column of w and row of h stay exactly 0
and add only exact zeros to each product, every slice ends bit for bit as
the same restart run on its own.  ``nmf`` batches the seeds at its one
inner dimension; ``enmf`` searches k = rank alone and, only when nothing
verifies there, k = rank + 1 .. ``max_k`` as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import TYPE_CHECKING, Optional

from . import cope as cope_mod
from . import planar
from . import rational_linalg as rla
from .cope import CopeMatrix
from .enmf_decision import AbsenceResult, ExistenceResult, _model_from_simplex
from .models import ModelFactorization, ModelKind, _verified_model
from .polytope import GuardExceeded, _Derived, _derived

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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.snap_tol > 0:  # NaN fails too
            raise ValueError("snap_tol must be > 0")


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


def _simplex_pairs(d: _Derived):
    """Factor pairs (or None) of the deterministic equirank routes, lazily.

    Works on the merged matrix: an equirank model at inner dimension
    rank(C) is a simplex nested between the column polytope and the
    span-simplex polytope Q.  Proposes, in order: Q itself (when it is a
    simplex), the extremal columns, simplices on subsets of Q's vertices,
    and for rank 3 the exact planar decision.  Exact backend only; yields
    nothing on floats or when building Q hits a guard.

    Only what could verify is built.  Rank 3 reads the extremal columns off
    ``d.plane`` (``_plane_extremal``); other ranks test each by LP while
    their count can still end at r.  A subset is skipped when, for
    some column p, fewer than two of its vertices lie on the face F of Q
    where p's zeros are, or none when F = {p}: as x >= 0, p's weight sits
    on F, and on two vertices or more unless p is one.  A skipped subset
    gives None, so the pairs proposed and the first that verifies stay.
    """
    if not d.c.backend.is_exact:
        return
    r = d.rank
    try:
        vertices = list(d.polytope.vertices)
    except GuardExceeded:
        return

    vertices_at_rows = d.at_rows(vertices)
    if len(vertices) == r:
        yield _model_from_simplex(d, vertices, vertices_at_rows)

    cols = list(dict.fromkeys(zip(*d.merged.stacked())))
    if r == 3:
        extremal = _plane_extremal(d)
    else:
        extremal, be = [], d.c.backend
        for j, col in enumerate(cols):
            if len(extremal) <= r <= len(extremal) + len(cols) - j and cope_mod._is_extremal(be, cols, j):
                extremal.append(col)
    if len(extremal) == r:
        yield _model_from_simplex(d, extremal, d.at_rows(extremal))

    if len(vertices) > r and math.comb(len(vertices), r) <= _SUBSET_CAP:
        # Each column's face F: the bitmask of the vertices zero wherever it is.
        zeros = [sum(1 << i for i, x in enumerate(p) if not x) for p in chain(vertices, cols)]
        faces = {sum(1 << l for l, zv in enumerate(zeros[: len(vertices)]) if zv & z == z)
                 for z in zeros[len(vertices) :]}
        for subset in combinations(range(len(vertices)), r):
            mask = sum(1 << l for l in subset)
            if all((mask & f).bit_count() >= min(2, f.bit_count()) for f in faces):
                points = [vertices[l] for l in subset]
                yield _model_from_simplex(d, points, [vertices_at_rows[l] for l in subset])

    if r == 3:
        chart, triangle = _nested_triangle(d)
        if triangle is not None:
            points = [chart.to_ambient(p) for p in triangle]
            yield _model_from_simplex(d, points, d.at_rows(points))


def _plane_extremal(d: _Derived) -> list:
    """Rank 3: the distinct merged columns, in column order, at a strict hull
    vertex in ``d.plane``.  The chart is an affine bijection, so these are the
    columns that are no convex combination of the other distinct ones."""
    columns = list(zip(*d.merged.stacked()))
    points = planar.triples(d.plane[1][: len(columns)])
    hull = set(planar.convex_hull(points))
    return list(dict.fromkeys(col for col, p in zip(columns, points) if p in hull))


def equirank_simplex_model(c: CopeMatrix) -> Optional[ModelFactorization]:
    """Deterministic search for an equirank nonnegative factorization.

    Each factor pair the deterministic routes propose at inner dimension
    rank(C) is verified once, as noncontextual ontological (on the exact
    backend the same test as ontological at that inner dimension); the
    first that passes is returned.  Exact backend only.
    """
    d = _derived(c)
    return _first_verified(d, _simplex_pairs(d), ModelKind.NONCONTEXTUAL_ONTOLOGICAL)


def _nested_triangle(d: _Derived):
    """Rank 3: ``(chart, triangle)``; the triangle nests between the column
    polygon and Q's polygon, in ``d.plane``'s coordinates, or is None."""
    chart, points = d.plane
    n = d.merged.n_preparations
    return chart, planar.nested_triangle(points[:n], points[n:])


# ---------------------------------------------------------------------------
# Heuristic search
# ---------------------------------------------------------------------------


def _restarts(arr: np.ndarray, widths: list, seeds: list, iterations: int) -> list:
    """Seeded restarts at each inner dimension of ``widths``, run as one
    batched multiplicative update and each NNLS-polished.

    The restart at width k and seed s starts from ``default_rng(s)`` and
    runs the Lee-Seung updates on its slice of an ``(S, m, K) x (S, K, n)``
    stack of every (k, s), zero-padded to K = max(widths); every 32
    iterations the slices that already reproduce ``arr`` to 1e-13 leave the
    stack.  A padded column of w and row of h stay 0 (their numerators are
    0) and only append exact zeros to the sums of each matrix product, so
    each slice sees the same products as a restart run on its own,
    whichever widths and seeds share the stack.  A product with a dimension
    of 1 goes to a BLAS vector routine (gemv or dot), whose sums may
    regroup when zeros are padded in, so when ``arr`` has a single row or
    column, or a width is 1, each width gets a stack of its own.  Returns
    ``(residual, w, h)`` per seed, in seed order, for each width in order.
    """
    stacks = [widths] if min(*arr.shape, *widths) > 1 else [[k] for k in widths]
    polished = []
    for stack in stacks:
        slices = [(k, seed) for k in stack for seed in seeds]
        for (k, _), w, h in zip(slices, *_updates(arr, slices, iterations)):
            polished.append(_nnls_polish(arr, w[:, :k].copy(), h[:k].copy()))
    return [polished[i : i + len(seeds)] for i in range(0, len(polished), len(seeds))]


def _updates(arr: np.ndarray, slices: list, iterations: int):
    """The multiplicative updates of ``_restarts`` on one zero-padded stack
    of ``(width, seed)`` slices: the final ``(w, h)`` stacks."""
    import numpy as np

    m, n = arr.shape
    top = max(k for k, _ in slices)
    w = np.zeros((len(slices), m, top))
    h = np.zeros((len(slices), top, n))
    for i, (k, seed) in enumerate(slices):
        rng = np.random.default_rng(seed)
        w[i, :, :k] = rng.uniform(0.2, 1.0, (m, k))
        h[i, :k] = rng.uniform(0.2, 1.0, (k, n))
    scale = np.sqrt(max(arr.mean(), 1e-3))
    w *= scale
    h *= scale
    w_out, h_out = np.empty_like(w), np.empty_like(h)
    active = np.arange(len(slices))
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
    return w_out, h_out


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
    c: CopeMatrix, widths, opts: NmfOptions, need_equirank: bool = False
) -> Optional[ModelFactorization]:
    """The first verified model at the smallest inner dimension of
    ``widths`` that has one, or None; widths below rank(c) are skipped.

    Each factor pair is verified once: as noncontextual ontological with
    ``need_equirank``, else as ontological, and the search stops at the
    first that passes.  At each k the deterministic candidates come first
    (trivial padding, then at k = rank the simplex routes); when none
    verifies, the heuristic restarts at k follow, ordered by (residual,
    seed), so the winner is the best fit that verifies and ties go to the
    lowest seed.  The restarts of every width run as one ``_restarts``
    batch, the first time the deterministic candidates fail.
    """
    d = _derived(c)
    c = d.c
    r = d.rank
    widths = [k for k in widths if k >= r]
    kind = ModelKind.NONCONTEXTUAL_ONTOLOGICAL if need_equirank else ModelKind.ONTOLOGICAL
    # A float restart off by more than eps cannot reconstruct C; the factor
    # 2 covers the rounding of _rescale and of the verifier's list product.
    cutoff = 1e-4 if c.backend.is_exact else 2 * c.backend.eps
    batch = None
    for i, k in enumerate(widths):
        simplex = _simplex_pairs(d) if k == r else ()
        model = _first_verified(d, chain([_trivial_padded(d, k)], simplex), kind)
        if model is not None:
            return model
        if batch is None:
            seeds = [opts.seed + s for s in range(opts.max_restarts)]
            batch = _restarts(c.as_array(), widths, seeds, opts.max_iterations)
        # The sort is stable, so equal residuals keep seed order.
        for residual, w, h in sorted(batch[i], key=lambda result: result[0]):
            if residual > cutoff:
                continue
            w_s, h_s = _rescale(w, h, c.block_sizes[0])
            if c.backend.is_exact:
                model = _exact_from_floats(d, w_s, h_s, opts, kind)
            else:
                model = _verified_model(d, w_s.tolist(), h_s.tolist(), kind)
            if model is not None:
                return model
    return None


def nmf(c: CopeMatrix, opts: NmfOptions) -> Optional[ModelFactorization]:
    """Best verified nonnegative factorization at opts.inner_dim, or None.

    The first candidate that verifies wins (see ``search_candidates``).
    Absence is a value: a None only means the search budget found nothing,
    except below rank(c) where no factorization can exist at all.
    """
    return search_candidates(c, [opts.inner_dim], opts)


def enmf(c: CopeMatrix, opts: NmfOptions, max_k: Optional[int] = None) -> Optional[ModelFactorization]:
    """Equirank nonnegative factorization search, up to inner dim ``max_k``.

    A returned model always classifies as noncontextual ontological: every
    candidate is verified once at that kind.  On the exact backend the
    vertex-program decision (``_Derived.decision``, shared by a caller that
    passes its call's derived view) ends the search: an absence gives None,
    a model at rank(c) is returned as it is, and a model above rank gives
    way to ``equirank_simplex_model``'s (whose extremal route gives the
    trivial pair when that fits at rank(c)), else is returned if its inner
    dimension is at most ``max_k`` (default rank + 3).  Only
    float matrices, and exact ones whose decision hit a guard, run
    ``search_candidates``: at k = rank alone, then over rank + 1 ..
    ``max_k`` as one search, so the restarts above rank share one
    zero-padded batch (see the module docstring) and the first verified
    model at the smallest k wins, as if each k ran on its own.
    """
    d = _derived(c)
    r = d.rank
    bound = max(max_k if max_k is not None else r + 3, r)
    decision = d.decision
    if isinstance(decision, AbsenceResult):
        return None
    if isinstance(decision, ExistenceResult):
        if decision.model.inner_dim == r:
            return decision.model
        model = equirank_simplex_model(d)
        if model is None and decision.model.inner_dim <= bound:
            model = decision.model
        return model

    # Most restart-decided matrices decide at k = rank, so the restarts
    # there run alone and the inner dimensions above share one batch.
    return search_candidates(d, [r], opts, True) or search_candidates(
        d, range(r + 1, bound + 1), opts, True
    )
