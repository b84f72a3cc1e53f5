"""Sparsity-pattern lower bounds on ontic dimensionality.

A square submatrix in which every row and every column owns exactly one
zero (the zero pattern is a permutation) pins down, via antichain counting,
both the minimum number of ontic points needed by any ontological model and
the minimum dimension spanned by one of its factors.  The first bound is
the smallest k with m <= binom(k, floor(k/2)); the second is the largest l
with binom(l, floor(l/2)) <= m.  When the span bound exceeds rank(C), no
equirank nonnegative factorization can exist.

Finding the largest such submatrix is NP-hard (an induced matching of the
bipartite zero graph), so one exact depth-first search runs under a node
budget.  A branch is cut when its free rows or columns cannot beat the best
set found; on a budget hit the best set so far is returned, a smaller but
still valid witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .cope import CopeMatrix

_NODE_BUDGET = 20_000


def central_binomial(k: int) -> int:
    return comb(k, k // 2)


def sperner_ontic_bound(m: int) -> int:
    """Smallest admissible ontic dimension for an m-element unique-zero family.

    For m = 1 the counting formula gives 0; a model still needs one ontic
    point, so the reported bound is at least 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k = 0
    while central_binomial(k) < m:
        k += 1
    return max(k, 1)


def sperner_span_bound(m: int) -> int:
    """Largest l whose full antichain fits below m: binom(l, l//2) <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    l = 0
    while central_binomial(l + 1) <= m:
        l += 1
    return l


@dataclass(frozen=True)
class SpernerWitness:
    """Unique-zero square submatrix plus its derived dimension bounds."""

    row_indices: tuple
    col_indices: tuple
    m: int
    ontic_dim_lower_bound: int
    factor_span_lower_bound: int


def _zero_pattern(c: CopeMatrix):
    be = c.backend
    return [[be.is_zero(x) for x in row] for row in c.stacked()]


def _max_unique_zero(zero, edges) -> list:
    """First largest unique-zero pair set in depth-first order over ``edges``.

    A node's candidates are the later edges that fit every chosen pair: a
    new row and column, and no zero where they cross the pair just added.
    A branch ends when its candidates' distinct rows or columns cannot beat
    the best set; after ``_NODE_BUDGET`` nodes the best set so far is
    returned.
    """
    best: list = []
    nodes = 0

    def extend(chosen: list, candidates: list) -> None:
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        for idx, (r, col) in enumerate(candidates):
            rest = candidates[idx:]
            free = min(len({a for a, _ in rest}), len({b for _, b in rest}))
            if nodes >= _NODE_BUDGET or len(chosen) + free <= len(best):
                return
            chosen.append((r, col))
            extend(chosen, [(a, b) for a, b in candidates[idx + 1:]
                            if a != r and b != col and not zero[a][col] and not zero[r][b]])
            chosen.pop()

    extend([], edges)
    return best


def sperner_submatrix(c: CopeMatrix) -> Optional[SpernerWitness]:
    """Maximum unique-zero square submatrix of the stacked matrix.

    The unique-zero condition on an m x m selection forces the zero pattern
    to be a permutation: each selected row and column carries exactly one
    zero inside the selection.  The search over the zeros, row-major, is
    exact: it returns the first largest selection in depth-first order,
    unless it exceeds ``_NODE_BUDGET`` nodes, when it returns the largest
    found so far.  Returns None when no witness with m >= 2 exists.  Zero
    entries are decided by the matrix backend (floats: magnitude at most
    eps).
    """
    zero = _zero_pattern(c)
    edges = [(i, j) for i, row in enumerate(zero) for j, z in enumerate(row) if z]
    chosen = _max_unique_zero(zero, edges)
    if len(chosen) < 2:
        return None
    rows, cols = zip(*chosen)
    m = len(chosen)
    return SpernerWitness(
        row_indices=rows,
        col_indices=cols,
        m=m,
        ontic_dim_lower_bound=sperner_ontic_bound(m),
        factor_span_lower_bound=sperner_span_bound(m),
    )
