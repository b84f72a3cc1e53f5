"""Exact linear algebra over rationals.

Everything here takes lists of lists of :class:`fractions.Fraction` (ints
are accepted too) and is deliberately dependency-free: certificates
produced elsewhere in the package are re-checked with these routines, so
they must be exact.

One elimination kernel serves every routine that eliminates: one
Gauss-Jordan (``_gauss_jordan``) gives the rank (its pivot count), ``rref``,
kernels, solves, inverses and ``independent_rows``, and the simplex of
``lp_feasibility`` pivots on its own.
A kernel row is sparse and fraction-free: a dict from
column index to its nonzero ``int`` numerator, over one positive ``int``
denominator.  The matrices met here stay mostly zero while they are
eliminated (the simplex of the existence decision reaches a few hundred
columns), so an update touches only the pivot row's
nonzeros.  An update scales the row by a positive factor and keeps any
common factor it brings: the row is divided by the gcd of its numerators
and denominator only once the denominator has more than ``_REDUCE_BITS``
bits.  So numerators and denominator are coprime only right after a
reduction.  Between reductions the denominator has at most ``_REDUCE_BITS``
bits, times the scale of the one update that takes it past, so the common
factor a row carries stays below 2**_REDUCE_BITS.  A positive scaling keeps
the sign of every entry and every ratio of two, so whichever updates are
reduced, each routine makes the pivots, and returns the Fractions, of
elimination on Fraction entries.
Rows reach these routines as lists, and only their nonzeros are converted;
an all-``int`` row is taken as it is.  The simplex converts each given row
once and checks both answers exactly: a Farkas vector on those rows, a
primal point on the caller's rows, read apart from the conversion so that a
fault there is caught.  ``_integer_inverse`` gives the kernel's inverse as
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

# Bits a kernel row's denominator may reach before the row is reduced.
# Measured on the vertex programs of rational qubits (4-6 pairs, Bloch
# integers up to 3, 12 and 40; 2 CPUs, Python 3.11.7): rows reduced after
# every update reach 200 bits at 12 and 480 at 40, rows never reduced 950.
# At 1024 every program solved as fast as with no reduction at all, 25-54%
# faster than reducing every update.  At 128 most updates of span 40 still
# reduced, and those programs solved 4-10% slower than reducing every
# update.  Dense Gauss-Jordan (12-20 square, 16-60-bit fractions) kept its
# time at 1024 and took up to twice as long when never reduced.
_REDUCE_BITS = 1024


# Consecutive degenerate pivots after which ``lp_feasibility`` enters by Bland's rule.
_DEGENERATE_RUN = 50


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


def _integer_matrix(rows: Sequence) -> tuple[list[list[int]], int]:
    """Integer rows of a rational matrix over one positive common denominator."""
    width = len(rows[0]) if rows else 0
    flat, den = _integer_row([x for row in rows for x in row])
    return [flat[i * width:(i + 1) * width] for i in range(len(rows))], den


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
    pivot row's nonzeros are touched.  ``row`` is updated in place.  The
    result is reduced by its gcd only when its denominator has more than
    ``_REDUCE_BITS`` bits; a common factor left in scales the row by a
    positive number, which moves no sign and no ratio within it, so no pivot.
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
    return _reduced(row, den) if den.bit_length() > _REDUCE_BITS else (row, den)


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


def independent_rows(a: Matrix) -> list[int]:
    """Indices of the lexicographically first maximal set of linearly
    independent rows of ``a``: the pivot columns of one Gauss-Jordan of its
    transpose, as many as its rank."""
    if not a or not a[0]:
        return []
    return _gauss_jordan([_sparse_row(column) for column in zip(*a)], len(a))[1]


def _echelon(a: Matrix) -> tuple[list, list[int]]:
    """One Gauss-Jordan of the kernel rows of ``a``: (rows, pivots), or ([], []) when empty."""
    if not a or not a[0]:
        return [], []
    return _gauss_jordan([_sparse_row(values) for values in a], len(a[0]))


def rank(a: Matrix) -> int:
    """Rank: the pivot count of one Gauss-Jordan (``_echelon``)."""
    return len(_echelon(a)[1])


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    The RREF of a matrix is unique, so the Fractions returned are those of
    elimination on Fraction entries.
    """
    if not a or not a[0]:
        return [list(row) for row in a], []
    rows, pivots = _echelon(a)
    red = [[F0] * len(a[0]) for _ in rows]
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
    """Basis of the right kernel of ``a``, read off its ``_echelon`` (rows,
    pivots): its RREF's R[i][j] is row[j] / row[pc]."""
    rows, pivots = _echelon(a)
    n_cols = len(a[0]) if a else 0
    free = [j for j in range(n_cols) if j not in pivots]
    basis = []
    for j in free:
        v = [F0] * n_cols
        v[j] = F1
        for (row, _), pc in zip(rows, pivots):
            v[pc] = Fraction(-row.get(j, 0), row[pc])
        basis.append(v)
    return basis


def solve_columns(a: Matrix, rhs: Sequence) -> list[Optional[Row]]:
    """``solve_consistent(a, b)`` for each ``b`` of ``rhs``: one Gauss-Jordan of [a | rhs], pivoting in a."""
    if not a:
        return [None] * len(rhs)
    n_cols = len(a[0])
    rows, pivots = _gauss_jordan([_sparse_row([*row, *(b[i] for b in rhs)]) for i, row in enumerate(a)], n_cols)
    solutions = [None] * len(rhs)
    for k, col in enumerate(range(n_cols, n_cols + len(rhs))):
        if not any(col in row for row, _ in rows[len(pivots):]):  # else a row reads 0 = b_i
            solutions[k] = x = [F0] * n_cols
            for (row, _), pc in zip(rows, pivots):
                x[pc] = Fraction(row.get(col, 0), row[pc])
    return solutions


def solve_consistent(a: Matrix, b: Sequence) -> Optional[Row]:
    """One exact solution of ``a x = b`` (free variables at 0), or None when inconsistent."""
    return solve_columns(a, [b])[0]


def _integer_inverse(a: Sequence) -> Optional[tuple[list, int]]:
    """``(N, d)`` with inverse(a) = N / d, N of ``int`` and d > 0, or None when singular.

    Gauss-Jordan on the kernel rows of [a | I]: row i ends as the i-th row
    of the inverse times its pivot numerator, so one common multiple of the
    pivots brings every row over d.  Each row is reduced once at the end, so
    (N, d) does not depend on which updates the kernel reduced.
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
    rows = [_reduced(row, den) for row, den in rows]
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


def _integer_rows(a_eq: Matrix, b_eq: Sequence) -> list:
    """Each row of [a_eq | b_eq] as (support, numerators, denominator): the
    columns of its nonzeros, and ``_integer_row`` of those entries followed
    by the right-hand side, even when zero."""
    supports = [[j for j, v in enumerate(values) if v] for values in a_eq]
    return [(s, *_integer_row([values[j] for j in s] + [bv])) for s, values, bv in zip(supports, a_eq, b_eq)]


def _check_farkas(a_eq: Matrix, b_eq: Sequence, y: Row, rows: Optional[list] = None) -> None:
    """Exactly verify y^T a_eq <= 0 and y^T b_eq > 0; raise AssertionError otherwise.

    Reads [a_eq | b_eq] as ``_integer_rows`` converts it: ``lp_feasibility``
    passes the ``rows`` it converted for its tableau.  y may hold ``int`` or
    ``Fraction``.  The weighted rows are scaled by positive factors to one
    denominator, which keeps every sign, and only their nonzeros are read.
    """
    weighted = [(row, yv) for row, yv in zip(rows or _integer_rows(a_eq, b_eq), y) if yv]
    scale = lcm(*(den * yv.denominator for (_, _, den), yv in weighted))
    sums = [0] * (len(a_eq[0]) + 1)
    for (support, values, den), yv in weighted:
        w = yv.numerator * (scale // (den * yv.denominator))
        for j, v in zip(support, values):
            sums[j] += w * v
        sums[-1] += w * values[-1]
    if any(s > 0 for s in sums[:-1]):
        raise AssertionError("invalid Farkas certificate (column test)")
    if sums[-1] <= 0:
        raise AssertionError("invalid Farkas certificate (rhs test)")


def _check_primal(a_eq: Matrix, b_eq: Sequence, x: Row) -> None:
    """Exactly verify x >= 0 and a_eq x = b_eq; raise AssertionError otherwise.

    Works in integers over the support of x, with x over one denominator and
    a running denominator per row.  It reads the rows itself, not through the
    kernel's ``_integer_row``, so a fault there cannot pass.  ``int`` and
    ``Fraction`` entries are read through their numerator and denominator;
    any other entry (a float, say) is first made a Fraction.
    """
    def exact(v):
        return v if type(v) in (int, Fraction) else Fraction(v)

    if any(v < 0 for v in x):
        raise AssertionError("invalid primal point (sign test)")
    support = [(j, exact(v)) for j, v in enumerate(x) if v]
    x_den = lcm(*(v.denominator for _, v in support))
    x_num = [(j, v.numerator * (x_den // v.denominator)) for j, v in support]
    for row, bv in zip(a_eq, b_eq):
        total, den = 0, 1
        for j, xv in x_num:
            if a := row[j]:
                a = a if type(a) in (int, Fraction) else Fraction(a)
                if den % a.denominator:
                    grow = a.denominator // gcd(den, a.denominator)
                    total, den = total * grow, den * grow
                total += a.numerator * (den // a.denominator) * xv
        bv = exact(bv)
        # a_eq x = total / (den x_den) must equal bv.
        if total * bv.denominator != bv.numerator * den * x_den:
            raise AssertionError("invalid primal point (equality test)")


def lp_feasibility(a_eq: Matrix, b_eq: Sequence) -> tuple[Optional[Row], Optional[Row]]:
    """Exact feasibility of {x >= 0 : a_eq x = b_eq} with dual certificate.

    Phase-1 simplex.  The entering column has the most negative reduced
    cost (Dantzig's rule, ties to the lowest index); after ``_DEGENERATE_RUN``
    consecutive degenerate pivots, the lowest index with a negative one
    (Bland's rule) until the next nondegenerate pivot.  The leaving row has
    the least ratio, ties to the lowest basic variable.  It terminates: a
    nondegenerate pivot lowers the phase-1 objective, so no basis recurs
    after one and there are finitely many; Bland's rule cannot cycle, so
    each degenerate run ends.  The given rows are converted once
    (``_integer_rows``) and kept.  Each tableau row is a kernel row, and
    each pivot makes one pass over the rows: it runs the ratio test and
    collects the rows with a nonzero in the entering column, the only ones
    updated.  The pivot row is divided by its pivot entry and reduced; any
    other row only past ``_REDUCE_BITS`` (see ``_eliminate``).  Positive
    scaling keeps each sign and each ratio within a row, and the cost row
    is over one denominator, which is all the ratio test and the entering
    column read, so the choices, the pivots and the answer are exactly
    those of the textbook all-``Fraction`` tableau.  Returns (x, None) on
    feasibility and (None, y) on infeasibility, where y is a Farkas vector:
    y^T a_eq <= 0 componentwise and y^T b_eq > 0.  Both are verified
    exactly before they are returned: y, as integers over the cost row's
    denominator, on the kept rows, and x by ``_check_primal`` on the caller's.
    """
    m = len(a_eq)
    if m == 0:
        return [], None
    n = len(a_eq[0])
    total = n + m
    kept = _integer_rows(a_eq, b_eq)
    # Tableau columns: n structural + m artificial + the rhs at ``total``.
    # Rows are normalized so the right-hand side is nonnegative; each is in
    # lowest terms, as reduced Fractions over the lcm of their denominators.
    signs = [-1 if values[-1] < 0 else 1 for _, values, _ in kept]
    dens = [den for _, _, den in kept]
    rows: list[dict] = []
    for i, ((support, values, den), sign) in enumerate(zip(kept, signs)):
        rows.append(row := {j: sign * v for j, v in zip(support, values)})
        row[n + i] = den
        if values[-1]:
            row[total] = sign * values[-1]
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

    degenerate = 0
    while True:
        negative = [j for j, v in cost.items() if v < 0 and j < total]
        if not negative:
            break
        if degenerate < _DEGENERATE_RUN:
            enter = min(negative, key=lambda j: (cost[j], j))
        else:
            enter = min(negative)
        # One pass: the rows to update, and the ratio test rhs_i / a_i,enter by
        # cross-multiplication (the row denominator cancels), ties by Bland.
        hits, leave = [], None
        for i, row in enumerate(rows):
            if a := row.get(enter):
                hits.append(i)
                if a > 0:
                    b = row.get(total, 0)
                    if leave is None or b * leave_a < leave_b * a or (
                            b * leave_a == leave_b * a and basis[i] < basis[leave]):
                        leave, leave_a, leave_b = i, a, b
        if leave is None:
            raise AssertionError("phase-1 objective is bounded below; no unbounded pivot")
        pivot_row = rows[leave]
        for i in hits:
            if i != leave:
                rows[i], dens[i] = _eliminate(rows[i], dens[i], pivot_row, enter)
        cost, cost_den = _eliminate(cost, cost_den, pivot_row, enter)
        # The pivot row divided by its (positive) pivot entry.
        rows[leave], dens[leave] = _reduced(pivot_row, leave_a)
        basis[leave] = enter
        degenerate = degenerate + 1 if leave_b == 0 else 0

    if cost.get(total):
        # Duals from the artificial reduced costs, cost[n+i] = D (1 - s_i y_i)
        # over D = cost_den: y_i = s_i (D - cost[n+i]) / D, checked times D.
        y = [sign * (cost_den - cost.get(n + i, 0)) for i, sign in enumerate(signs)]
        _check_farkas(a_eq, b_eq, y, kept)
        return None, [Fraction(v, cost_den) for v in y]
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
