"""Exact linear algebra over rationals.

Everything here takes lists of lists of :class:`fractions.Fraction` (ints
are accepted too) and is deliberately dependency-free: certificates
produced elsewhere in the package are re-checked with these routines, so
they must be exact.

One elimination kernel serves every routine that eliminates: ``rank``,
Gauss-Jordan (``rref``, through it ``nullspace``, ``solve_consistent`` and
``rank_factorization``, and ``invert``) and the simplex of
``lp_feasibility``.  A kernel row is sparse and fraction-free: a dict from
column index to its nonzero ``int`` numerator, over one positive ``int``
denominator, reduced by the gcd after every update.  The matrices met here
stay mostly zero while they are eliminated (the vertex program of the
existence decision reaches a few hundred rows and columns), so an update
touches only the pivot row's nonzeros.  Scaling a row by a positive factor
keeps the sign of every entry and every ratio of two, so each routine makes
the pivots, and returns the Fractions, of elimination on Fraction entries.
The simplex checks both of its answers exactly, on the caller's rows,
before returning them.  Rows reach these routines as lists, and only their
nonzeros are converted; an all-``int`` row is taken as it is.  ``_integer_inverse`` gives the kernel's inverse as
``int`` numerators over one denominator, for the double description's start
and the candidate simplices of ``nmf``; ``invert`` turns it into Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Row = list
Matrix = list  # list of rows of Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def identity(n: int) -> Matrix:
    return [[F1 if i == j else F0 for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence) -> Row:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators and a positive common denominator for ``values``.

    A row whose entries are all ``int`` is returned as it is, over 1.
    """
    if all(type(x) is int for x in values):
        return values, 1
    pairs = [(x if type(x) in (Fraction, int) else Fraction(x)).as_integer_ratio() for x in values]
    den = lcm(*{d for _, d in pairs})
    return [p * (den // d) if p else 0 for p, d in pairs], den


def _sparse_row(values: Sequence) -> tuple[dict, int]:
    """``values`` as a kernel row: a dict of its nonzero numerators, and their denominator."""
    support = [j for j, v in enumerate(values) if v]
    row, den = _integer_row([values[j] for j in support])
    return dict(zip(support, row)), den


def _reduced(row: dict, den: int) -> tuple[dict, int]:
    """The same rational row with its numerators and denominator coprime."""
    g = gcd(den, *row.values())
    if g == 1:
        return row, den
    return {j: v // g for j, v in row.items()}, den // g


def _eliminate(row: dict, den: int, pivot_row: dict, col: int) -> tuple[dict, int]:
    """Row minus the multiple of the pivot row that zeroes ``row[col]``.

    The update is (p * row - f * pivot_row) / (den * p), with p the pivot
    entry and f = ``row[col]`` first divided by their gcd (and p made
    positive), so a unit pivot costs no multiplication of ``row``.  Only the
    pivot row's nonzeros are touched.  ``row`` is updated in place.
    """
    p, f = pivot_row[col], row[col]
    g = gcd(p, f) if p > 0 else -gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        for j in row:
            row[j] *= p
        den *= p
    for j, y in pivot_row.items():
        v = row.get(j, 0) - f * y
        if v:
            row[j] = v
        else:
            del row[j]
    return _reduced(row, den)


def rank(a: Matrix) -> int:
    """Rank: the pivot count of forward elimination on the kernel rows."""
    rows = [row for row in map(_sparse_row, a) if row[0]]
    r = 0
    while rows:
        pivot_row, _ = rows.pop()
        col = next(iter(pivot_row))
        r += 1
        rows = [_eliminate(row, den, pivot_row, col) if col in row else (row, den)
                for row, den in rows]
        rows = [(row, den) for row, den in rows if row]
    return r


def _gauss_jordan(rows: list, n_cols: int) -> tuple[list, list[int]]:
    """Gauss-Jordan on kernel rows, in place; returns (rows, pivot columns).

    The pivot of each column is the first remaining row with a nonzero
    there.  Row i (a dict and its denominator) ends as the i-th row of the
    reduced row echelon form times its pivot numerator over the denominator.
    """
    n_rows = len(rows)
    pivots: list[int] = []
    for col in range(n_cols):
        r = len(pivots)
        pivot_index = next((i for i in range(r, n_rows) if col in rows[i][0]), None)
        if pivot_index is None:
            continue
        rows[r], rows[pivot_index] = rows[pivot_index], rows[r]
        pivot_row = rows[r][0]
        for i, (row, den) in enumerate(rows):
            if i != r and col in row:
                rows[i] = _eliminate(row, den, pivot_row, col)
        pivots.append(col)
        if len(pivots) == n_rows:
            break
    return rows, pivots


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    The RREF of a matrix is unique, so the Fractions returned are those of
    elimination on Fraction entries.
    """
    if not a or not a[0]:
        return [list(row) for row in a], []
    n_cols = len(a[0])
    rows, pivots = _gauss_jordan([_sparse_row(values) for values in a], n_cols)
    red = [[F0] * n_cols for _ in rows]
    for out, (row, _), pc in zip(red, rows, pivots):
        p = row[pc]
        for j, v in row.items():
            out[j] = Fraction(v, p)
    return red, pivots


def rank_factorization(a: Matrix) -> tuple[Matrix, Matrix]:
    """Exact rank factorization a = F @ G with F, G of full rank.

    F collects the pivot columns of ``a``; G is the corresponding block of
    the reduced row echelon form.
    """
    red, pivots = rref(a)
    r = len(pivots)
    f = [[row[j] for j in pivots] for row in a]
    g = [red[i] for i in range(r)]
    if r == 0:
        # Degenerate all-zero matrix: keep shapes workable.
        f = [[F0] for _ in a]
        g = [[F0] * len(a[0])]
    return f, g


def nullspace(a: Matrix) -> list[Row]:
    """Basis of the right kernel of ``a``."""
    return _kernel(*rref(a), len(a[0]) if a else 0)


def _kernel(red: Matrix, pivots: list[int], n_cols: int) -> list[Row]:
    """Basis of the right kernel of a matrix with ``n_cols`` columns, read off
    its reduced row echelon form ``red`` and pivot columns."""
    free = [j for j in range(n_cols) if j not in pivots]
    basis = []
    for j in free:
        v = [F0] * n_cols
        v[j] = F1
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][j]
        basis.append(v)
    return basis


def solve_consistent(a: Matrix, b: Sequence) -> Optional[Row]:
    """One exact solution of ``a x = b``, or None when inconsistent."""
    if not a:
        return None
    n_cols = len(a[0])
    aug = [list(row) + [Fraction(bv)] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [F0] * n_cols
    pivots_in_a = [p for p in pivots if p < n_cols]
    for i, pc in enumerate(pivots_in_a):
        x[pc] = red[i][-1]
    return x


def _integer_inverse(a: Sequence) -> Optional[tuple[list, int]]:
    """``(N, d)`` with inverse(a) = N / d, N of ``int`` and d > 0, or None when singular.

    Gauss-Jordan on the kernel rows of [a | I]: row i ends as the i-th row
    of the inverse times its pivot numerator, so one common multiple of the
    pivots brings every row over d.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("invert expects a square matrix")
    rows = [_sparse_row(values) for values in a]
    for i, (row, den) in enumerate(rows):
        row[n + i] = den  # [a | I] over the row's denominator
    rows, pivots = _gauss_jordan(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    pivot_values = [row[i] for i, (row, _) in enumerate(rows)]
    d = lcm(*pivot_values)
    out = []
    for (row, _), p in zip(rows, pivot_values):
        scale = d // p
        out.append([scale * row.get(j, 0) for j in range(n, 2 * n)])
    return out, d


def invert(a: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None when singular."""
    inverse = _integer_inverse(a)
    if inverse is None:
        return None
    nums, d = inverse
    return [[Fraction(v, d) for v in row] for row in nums]


def _check_farkas(a_eq: Matrix, b_eq: Sequence, y: Row) -> None:
    """Exactly verify y^T a_eq <= 0 and y^T b_eq > 0; raise AssertionError otherwise.

    Works on integer rows scaled by positive factors, which keeps every
    sign, and touches only the nonzeros of the rows with a nonzero weight.
    """
    weighted = [(_sparse_row(list(a_eq[i]) + [b_eq[i]]), yv) for i, yv in enumerate(y) if yv]
    scale = lcm(*(den * yv.denominator for (_, den), yv in weighted))
    sums = [0] * (len(a_eq[0]) + 1)
    for (row, den), yv in weighted:
        w = yv.numerator * (scale // (den * yv.denominator))
        for j, v in row.items():
            sums[j] += w * v
    if any(s > 0 for s in sums[:-1]):
        raise AssertionError("invalid Farkas certificate (column test)")
    if sums[-1] <= 0:
        raise AssertionError("invalid Farkas certificate (rhs test)")


def _check_primal(a_eq: Matrix, b_eq: Sequence, x: Row) -> None:
    """Exactly verify x >= 0 and a_eq x = b_eq; raise AssertionError otherwise.

    Works in integers over the support of x, with x over one denominator;
    it converts the rows itself, independently of the kernel's ``_integer_row``.
    ``int`` and ``Fraction`` entries are read through their numerator and
    denominator; any other entry (a float, say) is first made a Fraction.
    """
    def exact(v):
        return v if type(v) in (int, Fraction) else Fraction(v)

    if any(v < 0 for v in x):
        raise AssertionError("invalid primal point (sign test)")
    support = [(j, exact(v)) for j, v in enumerate(x) if v]
    x_den = lcm(*(v.denominator for _, v in support))
    x_num = [(j, v.numerator * (x_den // v.denominator)) for j, v in support]
    for row, bv in zip(a_eq, b_eq):
        terms = [(exact(row[j]), xv) for j, xv in x_num if row[j]]
        den = lcm(*(a.denominator for a, _ in terms))
        total = sum(a.numerator * (den // a.denominator) * xv for a, xv in terms)
        bv = exact(bv)
        # a_eq x = total / (den x_den) must equal bv.
        if total * bv.denominator != bv.numerator * den * x_den:
            raise AssertionError("invalid primal point (equality test)")


def lp_feasibility(a_eq: Matrix, b_eq: Sequence) -> tuple[Optional[Row], Optional[Row]]:
    """Exact feasibility of {x >= 0 : a_eq x = b_eq} with dual certificate.

    Phase-1 simplex with Bland's rule (guaranteed termination).  Each
    tableau row is a kernel row: its nonzero ``int`` numerators over its
    own positive denominator, reduced by the gcd after every update, and
    only the rows with a nonzero in the entering column are updated.
    Scaling a row changes neither the sign of an entry nor a ratio of two
    entries of it, so Bland's choices, the pivot sequence and the answer
    are exactly those of the textbook all-``Fraction`` tableau.  Returns
    (x, None) on feasibility and (None, y) on infeasibility, where y is a
    Farkas vector: y^T a_eq <= 0 componentwise and y^T b_eq > 0.  Both
    answers are verified exactly before they are returned.
    """
    m = len(a_eq)
    if m == 0:
        return [], None
    n = len(a_eq[0])
    total = n + m
    # Tableau columns: n structural + m artificial + the rhs at ``total``.
    # Rows are normalized so the right-hand side is nonnegative.
    rows: list[dict] = []
    dens: list[int] = []
    flipped = []
    for i, (row_values, bv) in enumerate(zip(a_eq, b_eq)):
        # As ``_sparse_row``, but the right-hand side is converted even when zero.
        support = [j for j, v in enumerate(row_values) if v]
        values, den = _integer_row([row_values[j] for j in support] + [bv])
        rhs = values.pop()
        flip = rhs < 0
        sign = -1 if flip else 1
        flipped.append(flip)
        row = {j: sign * v for j, v in zip(support, values)}
        row[n + i] = den
        if rhs:
            row[total] = sign * rhs
        row, den = _reduced(row, den)
        rows.append(row)
        dens.append(den)
    basis = [n + i for i in range(m)]
    # Phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # over one denominator: minus the column sums, plus one per artificial.
    cost_den = lcm(*dens)
    sums = [0] * (total + 1)
    for row, den in zip(rows, dens):
        scale = cost_den // den
        for j, v in row.items():
            sums[j] -= scale * v
    for j in range(n, total):
        sums[j] += cost_den
    cost, cost_den = _reduced({j: v for j, v in enumerate(sums) if v}, cost_den)

    while True:
        enter = min((j for j, v in cost.items() if v < 0 and j < total), default=None)
        if enter is None:
            break
        # Ratio test rhs_i / a_i,enter; the row denominator cancels, and
        # ratios are compared by cross-multiplication.
        leave = None
        for i, row in enumerate(rows):
            a = row.get(enter, 0)
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = row.get(total, 0) * rows[leave][enter]
                rhs = rows[leave].get(total, 0) * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded below; no unbounded pivot")
        pivot_row = rows[leave]
        for i, row in enumerate(rows):
            if i != leave and enter in row:
                rows[i], dens[i] = _eliminate(row, dens[i], pivot_row, enter)
        cost, cost_den = _eliminate(cost, cost_den, pivot_row, enter)
        # The pivot row divided by its (positive) pivot entry.
        rows[leave], dens[leave] = _reduced(pivot_row, pivot_row[enter])
        basis[leave] = enter

    if cost.get(total):
        # Duals from the artificial reduced costs: cost[n+i] = 1 - y_i.
        y = [(-1 if flip else 1) * (1 - Fraction(cost.get(n + i, 0), cost_den))
             for i, flip in enumerate(flipped)]
        _check_farkas(a_eq, b_eq, y)
        return None, y
    x = [F0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rows[i].get(total, 0), dens[i])
    _check_primal(a_eq, b_eq, x)
    return x, None


def lp_feasible(a_eq: Matrix, b_eq: Sequence) -> Optional[Row]:
    """Exact feasibility of {x >= 0 : a_eq x = b_eq}; solution or None."""
    x, _ = lp_feasibility(a_eq, b_eq)
    return x


def convex_combination(targets: Matrix, point: Sequence) -> Optional[Row]:
    """Weights w >= 0, sum 1 with ``targets @ w = point``; columns are candidates."""
    if not targets or not targets[0]:
        return None
    n = len(targets[0])
    a = [list(row) for row in targets]
    a.append([F1] * n)
    b = list(point) + [F1]
    return lp_feasible(a, b)
