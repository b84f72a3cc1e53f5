"""Conditional-outcome-probability (COPE) matrices and their basic surgery.

A COPE matrix stacks one block per measurement; block ``j`` has one row per
outcome of measurement ``j`` and one column per preparation.  Every block is
column stochastic.  Operational equivalence shows up as literal equality of
columns (preparations), rows (outcomes), or whole blocks up to an outcome
bijection (measurements).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Optional, Sequence

from . import rational_linalg as rla
from .backend import Backend, rational

if TYPE_CHECKING:
    import numpy as np


class PreconditionError(ValueError):
    """An operation was called outside its stated domain; ``field`` names the
    offending field of a model when its construction raised it."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class Violation:
    """One broken invariant, pinpointed by block/row/column indices."""

    kind: str
    block: Optional[int]
    row: Optional[int]
    column: Optional[int]
    message: str


@dataclass(frozen=True)
class CopeMatrix:
    """Block-structured column-stochastic matrix of outcome probabilities."""

    blocks: tuple  # tuple of blocks; block = tuple of rows; row = tuple of entries
    backend: Backend
    prep_labels: tuple
    measurement_labels: tuple
    outcome_labels: tuple  # per block, tuple of labels

    @property
    def n_preparations(self) -> int:
        return len(self.blocks[0][0])

    @property
    def n_measurements(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> tuple:
        return tuple(len(block) for block in self.blocks)

    @property
    def n_rows(self) -> int:
        return sum(self.block_sizes)

    def stacked(self) -> list:
        """All rows as one flat list of lists."""
        return [list(row) for block in self.blocks for row in block]

    def column(self, j: int) -> list:
        return [row[j] for block in self.blocks for row in block]

    def row(self, i: int) -> list:
        """Row by global (stacked) index."""
        b, i = self.block_of_row(i)
        return list(self.blocks[b][i])

    def block_of_row(self, i: int) -> tuple:
        """(block index, row-within-block) for a global row index, 0 <= i < n_rows."""
        if i >= 0:
            for b, block in enumerate(self.blocks):
                if i < len(block):
                    return b, i
                i -= len(block)
        raise IndexError("row index out of range")

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.stacked()], dtype=float)

    def equals(self, other: "CopeMatrix") -> bool:
        """Entrywise equality under this matrix's backend."""
        if self.block_sizes != other.block_sizes or self.n_preparations != other.n_preparations:
            return False
        for ba, bb in zip(self.blocks, other.blocks):
            for ra, rb in zip(ba, bb):
                for x, y in zip(ra, rb):
                    if not self.backend.eq(x, y):
                        return False
        return True


def cope_matrix(
    blocks: Sequence[Sequence[Sequence]],
    backend: Optional[Backend] = None,
    prep_labels: Optional[Sequence[str]] = None,
    measurement_labels: Optional[Sequence[str]] = None,
    outcome_labels: Optional[Sequence[Sequence[str]]] = None,
) -> CopeMatrix:
    """Build a CopeMatrix, coercing entries onto the backend.

    Structural problems (no blocks, ragged rows, label/shape mismatch) raise
    immediately; probabilistic violations are left for :func:`validate`.
    """
    backend = backend or rational()
    if not blocks or any(not block for block in blocks):
        raise PreconditionError("need at least one measurement block with one outcome row")
    width = len(blocks[0][0])
    if width == 0:
        raise PreconditionError("need at least one preparation column")
    coerced = []
    for block in blocks:
        rows = []
        for row in block:
            if len(row) != width:
                raise PreconditionError("all rows must have the same number of columns")
            rows.append(tuple(backend.coerce(x) for x in row))
        coerced.append(tuple(rows))
    n_blocks = len(coerced)
    prep_labels = tuple(prep_labels) if prep_labels else tuple(f"P{i+1}" for i in range(width))
    measurement_labels = (
        tuple(measurement_labels)
        if measurement_labels
        else tuple(f"M{j+1}" for j in range(n_blocks))
    )
    if outcome_labels:
        outcome_labels = tuple(tuple(lbls) for lbls in outcome_labels)
    else:
        outcome_labels = tuple(
            tuple(str(k + 1) for k in range(len(block))) for block in coerced
        )
    if len(prep_labels) != width:
        raise PreconditionError("preparation label count does not match column count")
    if len(measurement_labels) != n_blocks:
        raise PreconditionError("measurement label count does not match block count")
    if tuple(len(l) for l in outcome_labels) != tuple(len(b) for b in coerced):
        raise PreconditionError("outcome label shape does not match block shape")
    return CopeMatrix(
        blocks=tuple(coerced),
        backend=backend,
        prep_labels=prep_labels,
        measurement_labels=measurement_labels,
        outcome_labels=outcome_labels,
    )


def validate(c: CopeMatrix) -> list[Violation]:
    """Report every broken invariant (empty list == valid).

    Per block: every entry outside [0, 1], row by row, then every column
    whose sum is not 1.  On the exact backend an entry is tested on its
    numerator and denominator, and a column is summed as integers over one
    common denominator; the Fraction total is built only for the message
    of a column that fails.
    """
    out: list[Violation] = []
    be = c.backend
    if be.is_exact:
        def in_range(x) -> bool:
            return 0 <= x.numerator <= x.denominator

        def column_total(column):
            den = lcm(*(x.denominator for x in column))
            num = sum(x.numerator * (den // x.denominator) for x in column)
            return None if num == den else Fraction(num, den)
    else:
        def in_range(x) -> bool:
            return be.leq(0, x) and be.leq(x, 1)

        def column_total(column):
            total = sum(column)
            return None if be.eq(total, 1) else total
    for b, block in enumerate(c.blocks):
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                if not in_range(x):
                    out.append(
                        Violation(
                            "entry_range",
                            b,
                            i,
                            j,
                            f"entry ({b},{i},{j}) = {x} outside [0, 1]",
                        )
                    )
        for j, column in enumerate(zip(*block)):
            total = column_total(column)
            if total is not None:
                out.append(
                    Violation(
                        "column_sum",
                        b,
                        None,
                        j,
                        f"block {b} column {j} sums to {total}, expected 1",
                    )
                )
    return out


def float_rank(rows, eps: float) -> int:
    """Numerical rank: the singular values above ``eps`` times the largest.

    The one float-rank rule of the package; 0 for an empty or zero matrix.
    """
    import numpy as np

    arr = np.array(rows, dtype=float)
    if arr.size == 0:
        return 0
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > eps * sv[0]))


def rank(c: CopeMatrix) -> int:
    """Rank of the stacked matrix (exact elimination or SVD thresholding)."""
    if c.backend.is_exact:
        return rla.rank(c.stacked())
    return float_rank(c.as_array(), c.backend.eps)


@dataclass(frozen=True)
class EquivalenceClasses:
    """Partitions of columns, global rows, and blocks under backend equality."""

    column_classes: tuple
    row_classes: tuple
    measurement_classes: tuple


def _partition(items: list, eq) -> tuple:
    classes: list[list[int]] = []
    for idx, item in enumerate(items):
        for cls in classes:
            if eq(items[cls[0]], item):
                cls.append(idx)
                break
        else:
            classes.append([idx])
    return tuple(tuple(cls) for cls in classes)


def _block_slices(block_sizes):
    """(start, stop) of each block's rows in the stacked matrix."""
    offset = 0
    for size in block_sizes:
        yield offset, offset + size
        offset += size


def _vectors_equal(be: Backend, u, v) -> bool:
    return len(u) == len(v) and all(be.eq(x, y) for x, y in zip(u, v))


def _blocks_equivalent(be: Backend, a, b) -> bool:
    """Whole-block equality up to a bijection of outcome rows.

    Exact backend: compare sorted row tuples.  Float backend: backtracking
    row matching under eps equality (greedy can miss a valid bijection
    when one row approximately equals several others; blocks are small,
    so the worst case is harmless).
    """
    if len(a) != len(b):
        return False
    if be.is_exact:
        return sorted(a) == sorted(b)

    n = len(a)

    def assign(i: int, used: int) -> bool:
        if i == n:
            return True
        for k in range(n):
            if used & (1 << k):
                continue
            if _vectors_equal(be, a[i], b[k]) and assign(i + 1, used | (1 << k)):
                return True
        return False

    return assign(0, 0)


def find_equivalences(c: CopeMatrix) -> EquivalenceClasses:
    """Duplicate columns, duplicate rows, and equivalent measurement blocks.

    Each item joins the first class whose first member equals it.  On the
    float backend that is eps-equality, which is not transitive, so the
    classes can depend on the order of the items; on the exact backend
    they cannot.
    """
    be = c.backend
    columns = [c.column(j) for j in range(c.n_preparations)]
    rows = c.stacked()
    blocks = [tuple(tuple(r) for r in block) for block in c.blocks]
    return EquivalenceClasses(
        column_classes=_partition(columns, lambda u, v: _vectors_equal(be, u, v)),
        row_classes=_partition(rows, lambda u, v: _vectors_equal(be, u, v)),
        measurement_classes=_partition(blocks, lambda u, v: _blocks_equivalent(be, u, v)),
    )


def _is_extremal(be: Backend, vectors: list, j: int) -> bool:
    """Is vectors[j] outside the convex hull of the vectors distinct from it?"""
    target = vectors[j]
    others = [v for i, v in enumerate(vectors) if i != j and not _vectors_equal(be, v, target)]
    if not others:
        return True
    if be.is_exact:
        cols = [[others[k][i] for k in range(len(others))] for i in range(len(target))]
        return rla.convex_combination(cols, target) is None
    import scipy.optimize

    res = scipy.optimize.linprog(
        c=[0.0] * len(others),
        A_eq=[[float(v[i]) for v in others] for i in range(len(target))] + [[1.0] * len(others)],
        b_eq=[float(x) for x in target] + [1.0],
        bounds=(0, None),
        method="highs",
    )
    if res.status not in (0, 2):  # 0: a convex combination exists; 2: none does
        from .polytope import GuardExceeded

        raise GuardExceeded(f"extremality LP stopped with HiGHS status {res.status}: {res.message}")
    return res.status == 2


def is_extremal_column(c: CopeMatrix, j: int) -> bool:
    """True iff column j is not a convex combination of the other columns.

    Columns equal to j (duplicates) do not count as "other": equivalence
    classes of identical extremal columns stay extremal.
    """
    columns = [c.column(k) for k in range(c.n_preparations)]
    return _is_extremal(c.backend, columns, j)


def is_extremal_row(c: CopeMatrix, i: int) -> bool:
    """Row analogue of :func:`is_extremal_column`, by global row index."""
    rows = c.stacked()
    return _is_extremal(c.backend, rows, i)


@dataclass(frozen=True)
class DroppedNonextremal:
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class QuotientReport:
    """Result of extremal quotienting plus the bookkeeping to undo it."""

    quotiented: CopeMatrix
    column_classes: tuple
    measurement_classes: tuple
    dropped_nonextremal: DroppedNonextremal


def quotient_extremal(c: CopeMatrix) -> QuotientReport:
    """Merge identical extremal columns and equivalent measurement blocks.

    Convexly dependent (non-extremal) columns are removed entirely, matching
    the convention that only extremal preparations are displayed.  Identical
    rows inside distinct retained measurements are kept: they are distinct
    outcomes of distinct measurements.  Idempotent.
    """
    be = c.backend
    columns = [c.column(j) for j in range(c.n_preparations)]
    extremal = [j for j in range(c.n_preparations) if _is_extremal(be, columns, j)]
    dropped_cols = tuple(j for j in range(c.n_preparations) if j not in extremal)

    classes = _partition([columns[j] for j in extremal], lambda u, v: _vectors_equal(be, u, v))
    col_classes = tuple(tuple(extremal[i] for i in cls) for cls in classes)
    kept_cols = [cls[0] for cls in col_classes]
    all_col_classes = col_classes + tuple((j,) for j in dropped_cols)

    reduced_blocks = [
        tuple(tuple(row[j] for j in kept_cols) for row in block) for block in c.blocks
    ]
    block_classes = _partition(
        list(reduced_blocks), lambda u, v: _blocks_equivalent(be, u, v)
    )
    kept_blocks = [cls[0] for cls in block_classes]

    slices = enumerate(_block_slices(c.block_sizes))
    dropped_rows = [i for b, (lo, hi) in slices if b not in kept_blocks for i in range(lo, hi)]

    quotiented = CopeMatrix(
        blocks=tuple(reduced_blocks[b] for b in kept_blocks),
        backend=be,
        prep_labels=tuple(c.prep_labels[j] for j in kept_cols),
        measurement_labels=tuple(c.measurement_labels[b] for b in kept_blocks),
        outcome_labels=tuple(c.outcome_labels[b] for b in kept_blocks),
    )
    return QuotientReport(
        quotiented=quotiented,
        column_classes=all_col_classes,
        measurement_classes=block_classes,
        dropped_nonextremal=DroppedNonextremal(columns=dropped_cols, rows=tuple(dropped_rows)),
    )


@dataclass(frozen=True)
class FragmentRestriction:
    """Selection of preparations and measurements from a parent matrix."""

    parent: CopeMatrix
    kept_preparations: tuple
    kept_measurements: tuple

    def __post_init__(self):
        preps = tuple(sorted(set(self.kept_preparations)))
        meas = tuple(sorted(set(self.kept_measurements)))
        object.__setattr__(self, "kept_preparations", preps)
        object.__setattr__(self, "kept_measurements", meas)
        if not preps or not meas:
            raise PreconditionError("fragment restriction needs nonempty index sets")
        if preps[0] < 0 or preps[-1] >= self.parent.n_preparations:
            raise PreconditionError("preparation index out of range")
        if meas[0] < 0 or meas[-1] >= self.parent.n_measurements:
            raise PreconditionError("measurement index out of range")


def restrict_fragment(r: FragmentRestriction) -> CopeMatrix:
    """Submatrix on kept measurements x kept preparations.

    Whole blocks are kept or dropped, so columns of the result still sum
    to one within every retained block.
    """
    parent = r.parent
    blocks = tuple(
        tuple(tuple(row[j] for j in r.kept_preparations) for row in parent.blocks[b])
        for b in r.kept_measurements
    )
    return CopeMatrix(
        blocks=blocks,
        backend=parent.backend,
        prep_labels=tuple(parent.prep_labels[j] for j in r.kept_preparations),
        measurement_labels=tuple(parent.measurement_labels[b] for b in r.kept_measurements),
        outcome_labels=tuple(parent.outcome_labels[b] for b in r.kept_measurements),
    )


def merge_measurements(c: CopeMatrix) -> CopeMatrix:
    """Collapse all measurements into one block, scaling entries by 1/J.

    The merged matrix is column stochastic as a single block and has the
    same rank as the original.
    """
    j_count = c.n_measurements
    if j_count == 1:
        return c
    rows = tuple(tuple(x / j_count for x in row) for block in c.blocks for row in block)
    labels = tuple(
        f"{c.measurement_labels[b]}:{lbl}"
        for b, block_labels in enumerate(c.outcome_labels)
        for lbl in block_labels
    )
    return CopeMatrix(
        blocks=(rows,),
        backend=c.backend,
        prep_labels=c.prep_labels,
        measurement_labels=("merged",),
        outcome_labels=(labels,),
    )


def distinct_rows(c: CopeMatrix) -> int:
    """Number of distinct rows of the stacked matrix under backend equality."""
    return len(_partition(c.stacked(), lambda u, v: _vectors_equal(c.backend, u, v)))


def distinct_columns(c: CopeMatrix) -> int:
    cols = [c.column(j) for j in range(c.n_preparations)]
    return len(_partition(cols, lambda u, v: _vectors_equal(c.backend, u, v)))
