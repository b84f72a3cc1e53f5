"""Brute-force oracles, deliberately independent of the library's algorithms.

Each oracle re-derives a quantity by enumeration or direct linear solves so
tests can freeze expected values without trusting the code path under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

import numpy as np
import scipy.optimize

from copekit import rational_linalg as rla
from copekit.backend import rational
from copekit.cope import Violation, cope_matrix
from copekit.models import ModelKind, VerificationReport, _verified_model
from copekit.polytope import _derived, extreme_rays


def in_convex_hull(vectors, target) -> bool:
    """Exact convex-hull membership by Caratheodory subset enumeration.

    For every affinely independent subset, the weights are the unique
    solution of a linear system; membership holds iff some subset gives
    nonnegative weights.  No linear programming involved.
    """
    vectors = [list(v) for v in vectors]
    target = [Fraction(x) for x in target]
    dim = len(target)
    for size in range(1, len(vectors) + 1):
        for subset in combinations(range(len(vectors)), size):
            a = [[vectors[i][coord] for i in subset] for coord in range(dim)]
            a.append([Fraction(1)] * size)
            if rla.rank(a) < size:
                continue  # affinely dependent; smaller subsets cover it
            sol = rla.solve_consistent(a, target + [Fraction(1)])
            if sol is None:
                continue
            if all(w >= 0 for w in sol):
                return True
    return False


def enumerate_vertices(basis) -> set:
    """All vertices of { B t : B t >= 0, sum = 1 } by active-set enumeration.

    Tries every subset of zero constraints; a unique feasible solution of
    the resulting equality system is a candidate vertex.  Exponential in
    the ambient dimension, fine for ambient <= 8.
    """
    ambient = len(basis)
    r = len(basis[0])
    sigma = [sum(basis[i][j] for i in range(ambient)) for j in range(r)]
    found = set()
    for size in range(0, ambient):
        for subset in combinations(range(ambient), size):
            a = [basis[i] for i in subset] + [sigma]
            if rla.rank(a) < r:
                continue
            sol = rla.solve_consistent(a, [Fraction(0)] * size + [Fraction(1)])
            if sol is None:
                continue
            x = rla.mat_vec(basis, sol)
            if all(v >= 0 for v in x):
                found.add(tuple(x))
    # Keep only extreme points of the collected feasible basic points.
    vertices = set()
    for x in found:
        others = [list(y) for y in found if y != x]
        if not others or not in_convex_hull(others, list(x)):
            vertices.add(x)
    return vertices


def reference_vertices(basis) -> tuple:
    """Sorted vertices of { B t : B t >= 0, sum = 1 } from the extreme rays of B.

    The reference for ``polytope.span_simplex_polytope``: each ray t of
    ``polytope.extreme_rays(basis)`` gives the vertex B t / sum(B t), with
    every product and sum taken on Fraction entries.
    """
    vertices = set()
    for ray in extreme_rays(basis):
        x = rla.mat_vec(basis, ray)
        total = sum(x)
        vertices.add(tuple(v / total for v in x))
    return tuple(sorted(vertices))


def reference_model_from_simplex(d, points):
    """Factor pair on the simplex ``points``, one Fraction solve per column.

    The reference for ``enmf_decision._model_from_simplex``: each merged
    column is solved for its coefficients on the points plus a unit-sum
    row, and a column without a solution, or with a negative coefficient,
    gives None.
    """
    merged = d.merged
    r = len(points)
    ambient = merged.n_rows
    coeff_rows = [[points[l][i] for l in range(r)] for i in range(ambient)] + [[Fraction(1)] * r]
    states = []
    for j in range(merged.n_preparations):
        col = [merged.blocks[0][i][j] for i in range(ambient)]
        beta = rla.solve_consistent(coeff_rows, col + [Fraction(1)])
        if beta is None or any(b < 0 for b in beta):
            return None
        states.append(beta)
    states_t = [[states[j][l] for j in range(len(states))] for l in range(r)]
    effects = [[points[l][i] * d.c.n_measurements for l in range(r)] for i in range(ambient)]
    return effects, states_t


def vertex_lp(c, vertices) -> tuple:
    """Equality system for { P >= 0 : V P = C', columns stochastic, P K = 0 }.

    The vertex program, the complete decision before the product program
    over Q x Q* replaced it, kept as a reference.  ``c`` is the merged
    matrix C' or a derived view; K spans the right kernel of C'.  Variable
    P[l][j] is column l n + j of k n.  Row i n + j is (V P)[i][j] =
    C'[i][j]; the n stochastic rows follow, then P K = 0
    kernel-vector-major: row t k + l of that block is (P K)[l][t] = 0.
    Rows are dense, with the ``int`` 0 wherever a row is zero.
    """
    d = _derived(c)
    k = len(vertices)
    n = d.merged.n_preparations
    stacked = d.merged.stacked()
    kernel = rla.nullspace(stacked)
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


def model_from_vertex_coefficients(d, vertices, coefficients):
    """The verified model of a solution of ``vertex_lp``, on the vertices
    that carry weight, or None when it does not verify."""
    c = d.c
    n = c.n_preparations
    p_rows = [[coefficients[l * n + j] for j in range(n)] for l in range(len(vertices))]
    used = [l for l, row in enumerate(p_rows) if any(row)]
    effects = [[vertices[l][i] * c.n_measurements for l in used] for i in range(c.n_rows)]
    states = [p_rows[l] for l in used]
    return _verified_model(d, effects, states, ModelKind.NONCONTEXTUAL_ONTOLOGICAL)


def reference_vertex_decision(d):
    """(model, farkas) of the vertex program, solved by the LP on every Q.

    The reference verdict for ``enmf_decision.decide_enmf_existence``:
    ``vertex_lp``, then the exact LP, then
    ``model_from_vertex_coefficients``.  The model is None when the program
    is infeasible, and the Farkas vector None when it is feasible.
    """
    vertices = list(d.polytope.vertices)
    solution, farkas = rla.lp_feasibility(*vertex_lp(d, vertices))
    if solution is None:
        return None, farkas
    return model_from_vertex_coefficients(d, vertices, solution), None


def reference_witness_holds(c, rows, cols, inequality) -> bool:
    """Does the inequality M on rows I and columns J of C' prove absence?

    The reference for the absence branch of ``certify._check``: every
    vertex pair of Q x Q* is tested with Fraction sums, q[I]^T M w[J] <= 0,
    and so is <M, C'[I, J]> > 0.  Index lists are taken as they are.
    """
    d = _derived(c)
    merged = d.merged.stacked()
    terms = [(i, j, v) for i, row in zip(rows, inequality) for j, v in zip(cols, row)]
    if sum(v * merged[i][j] for i, j, v in terms) <= 0:
        return False
    states = d.state_polytope.vertices
    return all(sum(q[i] * v * w[j] for i, j, v in terms) <= 0 for q in d.polytope.vertices for w in states)


def reference_simplex_pairs(d):
    """``nmf._simplex_pairs`` as it was before it pruned, kept verbatim.

    Tests every distinct column for extremality and builds every rank-sized
    subset of Q's vertices, so the pruned generator must yield the same
    non-None pairs in the same order.
    """
    import math

    from copekit import cope as cope_mod
    from copekit.enmf_decision import _model_from_simplex
    from copekit.nmf import _SUBSET_CAP, _nested_triangle
    from copekit.polytope import GuardExceeded

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
    extremal = [col for j, col in enumerate(cols) if cope_mod._is_extremal(d.c.backend, cols, j)]
    if len(extremal) == r:
        yield _model_from_simplex(d, extremal, d.at_rows(extremal))

    if len(vertices) > r and math.comb(len(vertices), r) <= _SUBSET_CAP:
        for subset in combinations(range(len(vertices)), r):
            points = [vertices[l] for l in subset]
            yield _model_from_simplex(d, points, [vertices_at_rows[l] for l in subset])

    if r == 3:
        chart, triangle = _nested_triangle(d)
        if triangle is not None:
            points = [chart.to_ambient(p) for p in triangle]
            yield _model_from_simplex(d, points, d.at_rows(points))


def reference_vertex_forcing(d):
    """``certify.vertex_forcing_certificate`` without its zero-count gate:
    (Q, its vertex count) when every vertex of Q is a column and there are
    more than rank(C) of them, else None."""
    columns = set(zip(*d.merged.stacked()))
    vertices = set(d.polytope.vertices)
    if vertices <= columns and len(vertices) > d.rank:
        return d.polytope, len(vertices)
    return None


def _conflicts(zero, r: int, col: int, chosen) -> bool:
    """Would pairing (r, col) break the unique-zero condition of ``chosen``?"""
    for rr, cc in chosen:
        if zero[r][cc] or zero[rr][col]:
            return True
    return False


def reference_max_matching(zero, edges) -> list:
    """Largest unique-zero pair set, by depth-first search over ``edges``.

    Cut only by the number of edges left; the first largest set found in
    depth-first order is returned.  Exponential, fine for totals up to ~20.
    """
    best: list = []
    n_edges = len(edges)

    def extend(start: int, chosen: list) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (n_edges - start) <= len(best):
            return
        for idx in range(start, n_edges):
            r, col = edges[idx]
            if any(r == rr or col == cc for rr, cc in chosen):
                continue
            if _conflicts(zero, r, col, chosen):
                continue
            chosen.append((r, col))
            extend(idx + 1, chosen)
            chosen.pop()

    extend(0, [])
    return best


def max_antichain_size(k: int) -> int:
    """Maximum antichain in the subset lattice of a k-set, via Dilworth.

    Minimum chain cover equals n minus a maximum bipartite matching of the
    strict-containment relation; the maximum antichain equals the minimum
    chain cover.  Pure enumeration plus augmenting paths.
    """
    n = 1 << k
    succ = [[v for v in range(n) if u != v and (u & v) == u] for u in range(n)]
    match_right = [-1] * n

    def augment(u, seen) -> bool:
        for v in succ[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    matching = 0
    for u in range(n):
        seen = [False] * n
        if augment(u, seen):
            matching += 1
    return n - matching


def random_cope(rng: random.Random, max_blocks=3, max_outcomes=3, max_cols=6, max_den=4,
                max_total_rows=6):
    """Random exact column-stochastic block matrix with small denominators."""
    while True:
        n_blocks = rng.randint(1, max_blocks)
        sizes = [rng.randint(1, max_outcomes) for _ in range(n_blocks)]
        if sum(sizes) <= max_total_rows:
            break
    n_cols = rng.randint(1, max_cols)
    blocks = []
    for size in sizes:
        cols = []
        for _ in range(n_cols):
            den = rng.randint(1, max_den)
            cuts = sorted(rng.randint(0, den) for _ in range(size - 1))
            parts = []
            prev = 0
            for cut in cuts:
                parts.append(cut - prev)
                prev = cut
            parts.append(den - prev)
            cols.append([Fraction(p, den) for p in parts])
        blocks.append([[cols[j][i] for j in range(n_cols)] for i in range(size)])
    return cope_matrix(blocks, backend=rational())


def reference_validate(c):
    """``cope.validate`` on the backend's own comparisons and Fraction sums.

    The reference for the library's integer tests on exact matrices: every
    entry compared with 0 and 1 through the backend, and every column
    summed entry by entry.
    """
    out = []
    be = c.backend
    for b, block in enumerate(c.blocks):
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                if not (be.leq(0, x) and be.leq(x, 1)):
                    out.append(
                        Violation("entry_range", b, i, j, f"entry ({b},{i},{j}) = {x} outside [0, 1]")
                    )
        for j in range(c.n_preparations):
            total = sum(row[j] for row in block)
            if not be.eq(total, 1):
                out.append(
                    Violation("column_sum", b, None, j, f"block {b} column {j} sums to {total}, expected 1")
                )
    return out


def reference_lp_feasibility(a_eq, b_eq):
    """Dense all-Fraction phase-1 simplex, Dantzig's rule with Bland's after
    ``rational_linalg._DEGENERATE_RUN`` consecutive degenerate pivots.

    The reference for ``rational_linalg.lp_feasibility``: the same pivot
    rule on the textbook tableau, with every entry a Fraction, so the
    library kernel must return an identical (x, None) or (None, y).
    """
    m = len(a_eq)
    if m == 0:
        return [], None
    n = len(a_eq[0])
    # Normalize rows so the right-hand side is nonnegative.
    rows = []
    rhs = []
    flipped = []
    for row, bv in zip(a_eq, b_eq):
        bv = Fraction(bv)
        if bv < 0:
            rows.append([-Fraction(x) for x in row])
            rhs.append(-bv)
            flipped.append(True)
        else:
            rows.append([Fraction(x) for x in row])
            rhs.append(bv)
            flipped.append(False)
    # Tableau columns: n structural + m artificial + 1 rhs.
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # Phase-1 objective: minimize the sum of artificials.  Reduced-cost row.
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    for j in range(n, n + m):
        cost[j] += Fraction(1)

    total = n + m
    degenerate = 0
    while True:
        negative = [j for j in range(total) if cost[j] < 0]
        if not negative:
            break
        if degenerate < rla._DEGENERATE_RUN:
            enter = min(negative, key=lambda j: cost[j])  # the first of the most negative
        else:
            enter = negative[0]
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded below; no unbounded pivot")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
        degenerate = degenerate + 1 if best == 0 else 0

    objective = -cost[-1]
    if objective != 0:
        # Duals from the artificial reduced costs: cost[n+i] = 1 - y_i.
        y_norm = [Fraction(1) - cost[n + i] for i in range(m)]
        y = [-yv if flip else yv for yv, flip in zip(y_norm, flipped)]
        # The certificate must verify exactly; fail loudly otherwise.
        for j in range(n):
            if sum(y[i] * Fraction(a_eq[i][j]) for i in range(m)) > 0:
                raise AssertionError("invalid Farkas certificate (column test)")
        if sum(y[i] * Fraction(b_eq[i]) for i in range(m)) <= 0:
            raise AssertionError("invalid Farkas certificate (rhs test)")
        return None, y
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
    return x, None


def reference_rref(a):
    """Gauss-Jordan elimination on Fraction entries; returns (R, pivot columns).

    The reference for ``rational_linalg.rref`` and, through its pivot count,
    for ``rational_linalg.rank``: the pivot of each column is the first
    remaining row with a nonzero there, and every entry is a Fraction.
    """
    m = [[Fraction(x) for x in row] for row in a]
    if not m or not m[0]:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def reference_integer_inverse(a):
    """``(N, d)`` as ``rational_linalg._integer_inverse`` returns it, or None.

    Gauss-Jordan on the Fraction rows of [a | I], the pivot of each column
    the first remaining row with a nonzero there and no row divided by its
    pivot, as the kernel eliminates.  Row i then holds the i-th row of the
    inverse times its pivot value; written as coprime integers over their
    least denominator, its pivot numerator is p_i, d is the least common
    multiple of the p_i and N's row i is row i's inverse part times d / p_i.
    """
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                factor = m[i][col] / m[col][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    integer_rows = []
    for row in m:
        den = lcm(*(x.denominator for x in row))
        integer_rows.append([x.numerator * (den // x.denominator) for x in row])
    pivots = [row[i] for i, row in enumerate(integer_rows)]
    d = lcm(*pivots)
    return [[d // p * v for v in row[n:]] for row, p in zip(integer_rows, pivots)], d


def reference_independent_rows(a) -> list[int]:
    """The lexicographically first maximal set of linearly independent rows.

    The reference for ``rational_linalg.independent_rows``: row i is kept
    when it raises the rank of the rows kept before it, one ``rank`` of
    each growing prefix.
    """
    chosen: list[int] = []
    kept: list = []
    for i, row in enumerate(a):
        if rla.rank(kept + [list(row)]) > len(kept):
            chosen.append(i)
            kept.append(list(row))
    return chosen


def reference_classify_model(c, m):
    """``models.classify_model`` for exact matrices and models, on Fraction entries.

    The reference for the integer-row tests of the library: the same five
    entrywise tests written on Fractions, and ranks from ``reference_rref``.
    """
    k = m.inner_dim
    stacked = c.stacked()
    product = [
        [sum(m.effects[i][l] * m.states[l][j] for l in range(k)) for j in range(c.n_preparations)]
        for i in range(m.n_rows)
    ]
    reconstruction_ok = product == [list(row) for row in stacked]
    unit_ok = True
    offset = 0
    for size in m.block_sizes:
        for l in range(k):
            if sum(m.effects[i][l] for i in range(offset, offset + size)) != m.unit[l]:
                unit_ok = False
        offset += size
    nonnegative_ok = all(x >= 0 for row in m.effects + m.states for x in row)
    states_column_stochastic_ok = all(
        sum(m.states[l][j] for l in range(k)) == 1 for j in range(m.n_preparations)
    )
    unit_all_ones = all(x == 1 for x in m.unit)

    def rank(rows):
        return len(reference_rref([list(row) for row in rows])[1])

    rank_c, rank_effects, rank_states = rank(stacked), rank(m.effects), rank(m.states)
    equirank_ok = rank_c == rank_effects == rank_states
    kinds = set()
    if reconstruction_ok and unit_ok:
        kinds.add(ModelKind.PREGPT)
        if equirank_ok:
            kinds.add(ModelKind.GPT)
            if unit_all_ones:
                kinds.add(ModelKind.QUASIPROBABILISTIC)
        if nonnegative_ok and unit_all_ones and states_column_stochastic_ok:
            kinds.add(ModelKind.ONTOLOGICAL)
            if equirank_ok:
                kinds.add(ModelKind.NONCONTEXTUAL_ONTOLOGICAL)
    return VerificationReport(
        reconstruction_ok=reconstruction_ok,
        unit_ok=unit_ok,
        nonnegative_ok=nonnegative_ok,
        states_column_stochastic_ok=states_column_stochastic_ok,
        unit_all_ones=unit_all_ones,
        rank_c=rank_c,
        rank_effects=rank_effects,
        rank_states=rank_states,
        equirank_ok=equirank_ok,
        inferred_kinds=frozenset(kinds),
    )


def reference_exact_flags(d, m):
    """``models._exact_flags`` before the forced-rank shortcut: the same
    entrywise tests on integer rows, and both ranks always by elimination."""
    from copekit.models import _block_slices, _integer_matrix

    effects, e = _integer_matrix(m.effects)
    states, s = _integer_matrix(m.states)
    unit, u = rla._integer_row(m.unit)
    columns = list(zip(*states))
    scale = e * s
    reconstruction_ok = all(
        sum(x * y for x, y in zip(effect, column)) * den == row[j] * scale
        for effect, (row, den) in zip(effects, d.integer_rows)
        for j, column in enumerate(columns)
    )
    unit_ok = all(
        sum(effects[i][l] for i in range(lo, hi)) * u == unit[l] * e
        for lo, hi in _block_slices(m.block_sizes)
        for l in range(m.inner_dim)
    )
    nonnegative_ok = all(x >= 0 for row in effects + states for x in row)
    states_column_stochastic_ok = all(sum(column) == s for column in columns)
    unit_all_ones = all(x == u for x in unit)
    flags = reconstruction_ok, unit_ok, nonnegative_ok, states_column_stochastic_ok, unit_all_ones
    return flags, (rla.rank(effects), rla.rank(states))


def reference_mu_anls(arr, k: int, seed: int, iterations: int):
    """One multiplicative-update restart run on its own, then an NNLS polish.

    The reference for the batched restarts of ``nmf.search_candidates``:
    the same seeded start, updates and early exit, one restart at a time,
    so the batched kernel must return an identical ``(residual, w, h)``.
    The fourth value is the number of update iterations run.
    """
    rng = np.random.default_rng(seed)
    m, n = arr.shape
    scale = max(arr.mean(), 1e-3)
    w = rng.uniform(0.2, 1.0, (m, k)) * np.sqrt(scale)
    h = rng.uniform(0.2, 1.0, (k, n)) * np.sqrt(scale)
    tiny = 1e-12
    ran = iterations
    for it in range(iterations):
        h *= (w.T @ arr) / (w.T @ w @ h + tiny)
        w *= (arr @ h.T) / (w @ h @ h.T + tiny)
        if it % 32 == 31 and np.abs(arr - w @ h).max() < 1e-13:
            ran = it + 1
            break
    for _ in range(2):
        for j in range(n):
            h[:, j] = scipy.optimize.nnls(w, arr[:, j])[0]
        for i in range(m):
            w[i, :] = scipy.optimize.nnls(h.T, arr[i, :])[0]
        h = np.maximum(h, 0.0)
        w = np.maximum(w, 0.0)
    residual = float(np.abs(arr - w @ h).max())
    return residual, w, h, ran


# ---------------------------------------------------------------------------
# The rational nested-triangle decision: planar.nested_triangle as it was on
# Fraction points, kept verbatim (public names prefixed with reference_) to
# check the integer version branch for branch.
# ---------------------------------------------------------------------------

Point = tuple  # (Fraction, Fraction)


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _cross(u: Point, v: Point) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _orient(a: Point, b: Point, c: Point) -> Fraction:
    """Positive when a->b->c turns left."""
    return _cross(_sub(b, a), _sub(c, a))


def reference_convex_hull(points: Sequence[Point]) -> list[Point]:
    """Strict convex hull, counterclockwise, no collinear interior vertices."""
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


def reference_point_in_hull(p: Point, hull: Sequence[Point]) -> bool:
    """Membership in a CCW convex polygon (boundary counts as inside)."""
    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return p == hull[0]
    if n == 2:
        if _orient(hull[0], hull[1], p) != 0:
            return False
        lo = min(hull[0], hull[1])
        hi = max(hull[0], hull[1])
        return lo <= p <= hi
    return all(_orient(hull[i], hull[(i + 1) % n], p) >= 0 for i in range(n))


def _chord_range(origin: Point, direction: Point, hull: Sequence[Point]):
    """Parameter interval [lo, hi] of { origin + s * direction } inside hull."""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        edge = _sub(b, a)
        coeff = _cross(edge, direction)
        const = _cross(edge, _sub(origin, a))
        # Inside condition: const + s * coeff >= 0.
        if coeff == 0:
            if const < 0:
                return None
            continue
        bound = -const / coeff
        if coeff > 0:
            lo = bound if lo is None or bound > lo else lo
        else:
            hi = bound if hi is None or bound < hi else hi
    if lo is None or hi is None or lo > hi:
        return None
    return lo, hi


def _advancing_tangent(x: Point, hull: Sequence[Point]) -> Optional[Point]:
    """Vertex t of hull with the hull weakly left of the line x -> t.

    Among admissible vertices the farthest along the tangent direction is
    chosen (maximal advance).  Returns None when x is strictly inside.
    """
    best: Optional[Point] = None
    for t in hull:
        if t == x:
            continue
        if all(_orient(x, t, q) >= 0 for q in hull):
            if best is None:
                best = t
            else:
                # Same supporting line: prefer the farther contact point.
                if _orient(x, best, t) == 0:
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


def _line_intersection(p1: Point, d1: Point, p2: Point, d2: Point) -> Optional[Point]:
    denom = _cross(d1, d2)
    if denom == 0:
        return None
    s = _cross(_sub(p2, p1), d2) / denom
    return (p1[0] + s * d1[0], p1[1] + s * d1[1])


def reference_nested_triangle(
    inner: Sequence[Point], outer: Sequence[Point]
) -> Optional[tuple[Point, Point, Point]]:
    """A triangle T with hull(inner) inside T inside hull(outer), or None.

    Both polygons must be full-dimensional (three or more hull vertices)
    and the inner hull must lie inside the outer one.
    """
    p_hull = reference_convex_hull(inner)
    q_hull = reference_convex_hull(outer)
    if len(p_hull) < 3 or len(q_hull) < 3:
        raise ValueError("nested_triangle expects full-dimensional polygons")
    if len(p_hull) == 3:
        return (p_hull[0], p_hull[1], p_hull[2])
    if len(q_hull) == 3:
        return (q_hull[0], q_hull[1], q_hull[2])

    n = len(p_hull)
    for i in range(n):
        pa, pb = p_hull[i], p_hull[(i + 1) % n]
        d0 = _sub(pb, pa)
        rng = _chord_range(pa, d0, q_hull)
        if rng is None:
            continue
        _, hi = rng
        a = (pa[0] + hi * d0[0], pa[1] + hi * d0[1])

        t1 = _advancing_tangent(a, p_hull)
        if t1 is None:
            continue
        d1 = _sub(t1, a)
        rng1 = _chord_range(a, d1, q_hull)
        if rng1 is None:
            continue
        _, hi1 = rng1
        if hi1 <= 0:
            continue
        b = (a[0] + hi1 * d1[0], a[1] + hi1 * d1[1])
        if b == a:
            continue

        t2 = _advancing_tangent(b, p_hull)
        if t2 is None:
            continue
        d2 = _sub(t2, b)

        v = _line_intersection(b, d2, pa, d0)
        if v is None:
            continue
        triangle = (a, b, v)
        if _orient(a, b, v) <= 0:
            continue
        if not reference_point_in_hull(v, q_hull):
            continue
        sides_ok = all(
            _orient(triangle[s], triangle[(s + 1) % 3], q) >= 0
            for s in range(3)
            for q in p_hull
        )
        if sides_ok:
            return triangle
    return None
