"""Brute-force oracles, deliberately independent of the library's algorithms.

Each oracle re-derives a quantity by enumeration or direct linear solves so
tests can freeze expected values without trusting the code path under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import scipy.optimize

from copekit import rational_linalg as rla
from copekit.backend import rational
from copekit.cope import Violation, cope_matrix
from copekit.models import ModelKind, VerificationReport
from copekit.polytope import extreme_rays


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

    The reference for ``nmf._model_from_simplex``: each merged column is
    solved for its coefficients on the points plus a unit-sum row, and a
    column without a solution, or with a negative coefficient, gives None.
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
    """Dense all-Fraction phase-1 simplex with Bland's rule.

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
    while True:
        enter = None
        for j in range(total):
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            break
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
