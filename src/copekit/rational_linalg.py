"""Exact linear algebra over rationals.

Everything here takes lists of lists of :class:`fractions.Fraction` and is
deliberately dependency-free: certificates produced elsewhere in the
package are re-checked with these routines, so they must be exact.  The
vertex linear program of the existence decision reaches a few hundred rows
and columns, and there per-entry cost matters: ``rank`` and the simplex in
``lp_feasibility`` work fraction-free, on integer rows (Bareiss), rather
than on Fraction entries.  The simplex checks both of its answers exactly
before returning them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Row = list
Matrix = list  # list of rows of Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def mat(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[F1 if i == j else F0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Matrix:
    return [[F0] * n for _ in range(m)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence) -> Row:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators and a positive common denominator for ``values``."""
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fracs if x))
    return [x.numerator * (den // x.denominator) if x else 0 for x in fracs], den


def rank(a: Matrix) -> int:
    """Rank via fraction-free (Bareiss) elimination on an integerized copy."""
    if not a or not a[0]:
        return 0
    m = [_integer_row(row)[0] for row in a]
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
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
        for i in range(r + 1, n_rows):
            for j in range(col + 1, n_cols):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == n_rows:
            break
    return r


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    m = [list(row) for row in a]
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
        inv = F1 / m[r][col]
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
    red, pivots = rref(a)
    n_cols = len(a[0]) if a else 0
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


def invert(a: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("invert expects a square matrix")
    aug = [list(row) + ident_row for row, ident_row in zip(a, identity(n))]
    red, pivots = rref(aug)
    if [p for p in pivots if p < n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(*row, den)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def _eliminate(row: list[int], den: int, pivot_row: list[int], col: int) -> tuple[list[int], int]:
    """Row minus a multiple of the pivot row, zeroing ``row[col]``.

    Rows are integer vectors over positive denominators; the update is
    (p * row - f * pivot_row) / (den * p) with p, f first divided by their
    gcd, so a unit pivot costs no multiplication of ``row``.
    """
    p, f = pivot_row[col], row[col]
    g = gcd(p, f)
    p, f = p // g, f // g
    if p == 1:
        return _reduced([x - f * y if y else x for x, y in zip(row, pivot_row)], den)
    return _reduced([p * x - f * y for x, y in zip(row, pivot_row)], den * p)


def _check_farkas(a_eq: Matrix, b_eq: Sequence, y: Row) -> None:
    """Exactly verify y^T a_eq <= 0 and y^T b_eq > 0; raise AssertionError otherwise.

    Works on integer rows scaled by positive factors, which keeps every
    sign, and touches only the rows with a nonzero weight.
    """
    weighted = [(_integer_row(list(a_eq[i]) + [b_eq[i]]), yv) for i, yv in enumerate(y) if yv]
    scale = lcm(*(den * yv.denominator for (_, den), yv in weighted))
    sums = [0] * (len(a_eq[0]) + 1)
    for (row, den), yv in weighted:
        w = yv.numerator * (scale // (den * yv.denominator))
        for j, v in enumerate(row):
            if v:
                sums[j] += w * v
    if any(s > 0 for s in sums[:-1]):
        raise AssertionError("invalid Farkas certificate (column test)")
    if sums[-1] <= 0:
        raise AssertionError("invalid Farkas certificate (rhs test)")


def _check_primal(a_eq: Matrix, b_eq: Sequence, x: Row) -> None:
    """Exactly verify x >= 0 and a_eq x = b_eq; raise AssertionError otherwise."""
    if any(v < 0 for v in x):
        raise AssertionError("invalid primal point (sign test)")
    support = [(j, v) for j, v in enumerate(x) if v]
    for row, bv in zip(a_eq, b_eq):
        if sum(Fraction(row[j]) * v for j, v in support if row[j]) != Fraction(bv):
            raise AssertionError("invalid primal point (equality test)")


def lp_feasibility(a_eq: Matrix, b_eq: Sequence) -> tuple[Optional[Row], Optional[Row]]:
    """Exact feasibility of {x >= 0 : a_eq x = b_eq} with dual certificate.

    Phase-1 simplex with Bland's rule (guaranteed termination).  Each
    tableau row is kept fraction-free, as a Python ``int`` vector over its
    own positive denominator, reduced by the gcd after every update (the
    integer pivoting of Bareiss elimination, row by row).  Scaling a row
    changes neither the sign of an entry nor a ratio of two entries of it,
    so Bland's choices, the pivot sequence and the answer are exactly those
    of the textbook all-``Fraction`` tableau.  Returns (x, None) on
    feasibility and (None, y) on infeasibility, where y is a Farkas vector:
    y^T a_eq <= 0 componentwise and y^T b_eq > 0.  Both answers are
    verified exactly before they are returned.
    """
    m = len(a_eq)
    if m == 0:
        return [], None
    n = len(a_eq[0])
    total = n + m
    # Tableau columns: n structural + m artificial + 1 rhs.  Rows are
    # normalized so the right-hand side is nonnegative.
    rows: list[list[int]] = []
    dens: list[int] = []
    flipped = []
    for i, (row_values, bv) in enumerate(zip(a_eq, b_eq)):
        row, den = _integer_row(list(row_values) + [bv])
        flip = row[n] < 0
        if flip:
            row = [-v for v in row]
        flipped.append(flip)
        artificial = [0] * m
        artificial[i] = den
        row, den = _reduced(row[:n] + artificial + [row[n]], den)
        rows.append(row)
        dens.append(den)
    basis = [n + i for i in range(m)]
    # Phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # over one denominator: minus the column sums, plus one per artificial.
    cost_den = lcm(*dens)
    cost = [0] * (total + 1)
    for row, den in zip(rows, dens):
        scale = cost_den // den
        for j, v in enumerate(row):
            if v:
                cost[j] -= scale * v
    for j in range(n, total):
        cost[j] += cost_den
    cost, cost_den = _reduced(cost, cost_den)

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test rhs_i / a_i,enter; the row denominator cancels, and
        # ratios are compared by cross-multiplication.
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = rows[i][-1] * rows[leave][enter]
                rhs = rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded below; no unbounded pivot")
        pivot_row = rows[leave]
        p = pivot_row[enter]
        # The pivot row divided by its (positive) pivot entry.
        rows[leave], dens[leave] = _reduced(pivot_row, p)
        for i in range(m):
            if i != leave and rows[i][enter]:
                rows[i], dens[i] = _eliminate(rows[i], dens[i], pivot_row, enter)
        cost, cost_den = _eliminate(cost, cost_den, pivot_row, enter)
        basis[leave] = enter

    if cost[-1] != 0:
        # Duals from the artificial reduced costs: cost[n+i] = 1 - y_i.
        y = [(-1 if flip else 1) * (1 - Fraction(cost[n + i], cost_den))
             for i, flip in enumerate(flipped)]
        _check_farkas(a_eq, b_eq, y)
        return None, y
    x = [F0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rows[i][-1], dens[i])
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
