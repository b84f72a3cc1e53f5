"""Model classes as constrained factorizations of a COPE matrix.

A model is a pair (effects, states) with ``effects @ states`` reproducing
the source matrix, plus a unit vector that every measurement block's effect
rows sum to.  The five classes differ only in which extra constraints hold:

==========================  =================================================
preGPT                      reconstruction + common unit
GPT                         + equirank (rank effects = rank states = rank C)
quasiprobabilistic          + unit is the all-ones vector
ontological                 nonnegative, unit all-ones, states column-stochastic
noncontextual ontological   ontological + equirank
==========================  =================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import cope as cope_mod
from . import rational_linalg as rla
from .backend import Backend, floating
from .cope import CopeMatrix, PreconditionError, _block_slices
from .polytope import _Derived, _derived
from .rational_linalg import _integer_matrix

if TYPE_CHECKING:
    import numpy as np


class ModelKind(str, enum.Enum):
    PREGPT = "pregpt"
    GPT = "gpt"
    QUASIPROBABILISTIC = "quasiprobabilistic"
    ONTOLOGICAL = "ontological"
    NONCONTEXTUAL_ONTOLOGICAL = "noncontextual-ontological"


@dataclass(frozen=True)
class ModelFactorization:
    """Factor pair (effects, states), unit vector, and a model-class tag.

    ``effects`` has one row per outcome, partitioned into the same blocks
    as the source matrix; ``states`` has one column per preparation.
    Construction (``dataclasses.replace`` included) checks the shape once: a
    field that disagrees with the factors, ``inner_dim`` and ``unit`` among
    them, raises PreconditionError naming it in ``field``.
    """

    effects: tuple  # n_rows x inner_dim
    states: tuple  # inner_dim x n_preparations
    unit: tuple  # length inner_dim
    kind: ModelKind
    inner_dim: int
    block_sizes: tuple
    backend: Backend

    def __post_init__(self):
        problem = _shape_error(self)
        if problem is not None:
            raise PreconditionError(f"model {problem[0]}: {problem[1]}", field=problem[0])

    @property
    def n_rows(self) -> int:
        return len(self.effects)

    @property
    def n_preparations(self) -> int:
        return len(self.states[0]) if self.states else 0

    def effects_array(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.effects], dtype=float)

    def states_array(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.states], dtype=float)


def _shape_error(m: ModelFactorization) -> Optional[tuple[str, str]]:
    """(field, message) of the first shape rule a model breaks, else None."""
    inner = len(m.states)
    if any(len(row) != len(m.states[0]) for row in m.states):
        return "states", "state rows must have equal length"
    if any(len(row) != inner for row in m.effects):
        return "effects", "effects width must equal the number of state rows"
    if len(m.unit) != inner:
        return "unit", "unit length must equal the inner dimension"
    if sum(m.block_sizes) != len(m.effects):
        return "block_sizes", "block sizes must partition the effect rows"
    if m.inner_dim != inner:
        return "inner_dim", "inner dimension must equal the number of state rows"
    return None


def make_model(
    effects,
    states,
    unit,
    kind: ModelKind,
    block_sizes,
    backend: Backend,
) -> ModelFactorization:
    """The model of these factors over ``backend``, ``inner_dim`` their state row count."""
    eff = tuple(tuple(backend.coerce(x) for x in row) for row in effects)
    sta = tuple(tuple(backend.coerce(x) for x in row) for row in states)
    uni = tuple(backend.coerce(x) for x in unit)
    return ModelFactorization(
        effects=eff,
        states=sta,
        unit=uni,
        kind=kind,
        inner_dim=len(sta),
        block_sizes=tuple(block_sizes),
        backend=backend,
    )


def _verified_model(
    c: CopeMatrix, effects, states, kind: ModelKind
) -> Optional[ModelFactorization]:
    """A candidate (effects, states) with an all-ones unit, tagged ``kind``.

    The model takes the block sizes and backend of ``c`` (a matrix or a
    certifier call's derived view) and is returned only when ``kind`` is
    among the kinds :func:`classify_model` infers for it; else None.  The
    report of a returned model is kept on the derived view (see
    :func:`_report`).
    """
    derived = _derived(c)
    backend = derived.c.backend
    model = make_model(
        effects=effects,
        states=states,
        unit=[backend.one()] * len(states),
        kind=kind,
        block_sizes=derived.c.block_sizes,
        backend=backend,
    )
    report = classify_model(derived, model)
    if kind not in report.inferred_kinds:
        return None
    derived.reports[id(model)] = model, report
    return model


def _report(d: _Derived, m: ModelFactorization) -> VerificationReport:
    """``classify_model(d, m)``, read from ``d.reports`` when ``_verified_model``
    accepted this very model object with ``d`` (which keeps it, so its id is
    not reused)."""
    kept = d.reports.get(id(m))
    return kept[1] if kept is not None else classify_model(d, m)


@dataclass(frozen=True)
class VerificationReport:
    """Which constraints a candidate factorization actually satisfies."""

    reconstruction_ok: bool
    unit_ok: bool
    nonnegative_ok: bool
    states_column_stochastic_ok: bool
    unit_all_ones: bool
    rank_c: int
    rank_effects: int
    rank_states: int
    equirank_ok: bool
    inferred_kinds: frozenset


def _matrix_rank(rows, backend: Backend) -> int:
    if backend.is_exact:
        return rla.rank([list(r) for r in rows])
    return cope_mod.float_rank(rows, backend.eps)


def _exact_flags(d: _Derived, m: ModelFactorization) -> tuple:
    """The entrywise tests of ``classify_model`` on integer rows, and the
    ranks of the effects and the states.

    The effects, the states and the unit are each brought over one
    positive denominator (e, s and u), and every row of C over its own
    (``d.integer_rows``), so each test compares integers by
    cross-multiplication.  A positive scale keeps the rank, so the ranks
    come from the same integer matrices.  When E S = C with k = rank(C)
    state rows, rank(C) = rank(E S) <= rank(E), rank(S) <= k, so both
    ranks are rank(C) and no elimination runs.  k is the number of state
    rows, which the model's construction made its ``inner_dim``.
    """
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
    if reconstruction_ok and len(states) == d.rank:
        return flags, (d.rank, d.rank)
    return flags, (rla.rank(effects), rla.rank(states))


def _tolerant_flags(c: CopeMatrix, m: ModelFactorization, cmp: Backend) -> tuple:
    """The entrywise tests of ``classify_model``, compared through ``cmp``."""
    k = m.inner_dim
    product = [
        [sum(m.effects[i][l] * m.states[l][j] for l in range(k)) for j in range(c.n_preparations)]
        for i in range(m.n_rows)
    ]
    stacked = c.stacked()
    reconstruction_ok = all(
        cmp.eq(product[i][j], stacked[i][j])
        for i in range(m.n_rows)
        for j in range(c.n_preparations)
    )

    unit_ok = all(
        cmp.eq(sum(m.effects[i][l] for i in range(lo, hi)), m.unit[l])
        for lo, hi in _block_slices(m.block_sizes)
        for l in range(k)
    )

    nonnegative_ok = all(
        cmp.geq(x, 0) for row in m.effects for x in row
    ) and all(cmp.geq(x, 0) for row in m.states for x in row)

    states_column_stochastic_ok = all(
        cmp.eq(sum(m.states[l][j] for l in range(k)), 1) for j in range(m.n_preparations)
    )

    unit_all_ones = all(cmp.eq(x, 1) for x in m.unit)
    return reconstruction_ok, unit_ok, nonnegative_ok, states_column_stochastic_ok, unit_all_ones


def classify_model(c: CopeMatrix, m: ModelFactorization) -> VerificationReport:
    """Check a factorization against a matrix, ignoring its kind tag.

    Comparisons run on the model's backend unless both sides are exact.
    The model's shape was checked when it was built, so only its checks
    against the matrix run here: a model whose dimensions or block sizes
    differ from those of ``c`` raises PreconditionError.  ``c`` may be a
    certifier call's derived view (``polytope._Derived``), whose rank(c) is
    then reused.
    """
    derived = _derived(c)
    c = derived.c
    if m.n_rows != c.n_rows or m.n_preparations != c.n_preparations:
        raise PreconditionError("model dimensions do not match the matrix")
    if m.block_sizes != c.block_sizes:
        raise PreconditionError("model block structure does not match the matrix")
    # Exact comparisons only when both sides are exact; otherwise borrow the
    # float side's tolerance.
    if m.backend.is_exact and c.backend.is_exact:
        flags, (rank_effects, rank_states) = _exact_flags(derived, m)
    else:
        flags = _tolerant_flags(c, m, c.backend if m.backend.is_exact else m.backend)
        rank_effects = _matrix_rank(m.effects, m.backend)
        rank_states = _matrix_rank(m.states, m.backend)
    reconstruction_ok, unit_ok, nonnegative_ok, states_column_stochastic_ok, unit_all_ones = flags

    rank_c = derived.rank
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


def pregpt_from_svd(c: CopeMatrix) -> ModelFactorization:
    """Factorization from a singular value decomposition, unit-completed.

    The effect matrix is the full square U; the state matrix is sigma @ V.
    Columns of U beyond the rank multiply zero rows of the states, so they
    are free: they are replaced by their least-squares projection onto the
    space of columns with zero per-block row sums, which makes every block
    sum to one common unit.  Always a float-backed model.
    """
    import numpy as np

    arr = c.as_array()
    n_rows, n_cols = arr.shape
    u, s, vh = np.linalg.svd(arr, full_matrices=True)
    b = np.zeros((n_rows, n_cols))
    for i in range(min(n_rows, n_cols)):
        b[i, :] = s[i] * vh[i, :]
    eps = c.backend.eps if not c.backend.is_exact else floating().eps
    r = cope_mod.float_rank(arr, eps)

    for col in range(r, n_rows):
        for lo, hi in _block_slices(c.block_sizes):
            u[lo:hi, col] -= u[lo:hi, col].sum() / (hi - lo)

    block_sums = np.stack([u[lo:hi, :].sum(axis=0) for lo, hi in _block_slices(c.block_sizes)])
    unit = block_sums.mean(axis=0)

    return make_model(
        effects=u.tolist(),
        states=b.tolist(),
        unit=unit.tolist(),
        kind=ModelKind.PREGPT,
        block_sizes=c.block_sizes,
        backend=floating(eps),
    )


def gpt(c: CopeMatrix) -> ModelFactorization:
    """Equirank factorization: effects and states of the same rank as C.

    Exact backend: rank factorization from reduced row echelon form (the
    common unit comes out automatically because the state factor has full
    row rank).  Float backend: truncation of :func:`pregpt_from_svd`.
    """
    if c.backend.is_exact:
        f, g = rla.rank_factorization(c.stacked())
        r = len(g)
        lo, hi = 0, c.block_sizes[0]
        unit = [sum(f[i][l] for i in range(lo, hi)) for l in range(r)]
        # Normalize the basis so the shared unit becomes (1, 0, ..., 0).
        pivot = next((l for l, u in enumerate(unit) if u != 0), None)
        if pivot is not None:
            m_mat = rla.identity(r)
            m_mat[pivot] = list(unit)
            m_inv = rla.invert(m_mat)
            f = rla.mat_mul(f, m_inv)
            g = rla.mat_mul(m_mat, g)
            for row in f:
                row[0], row[pivot] = row[pivot], row[0]
            g[0], g[pivot] = g[pivot], g[0]
            unit = [Fraction(1)] + [Fraction(0)] * (r - 1)
        return make_model(
            effects=f,
            states=g,
            unit=unit,
            kind=ModelKind.GPT,
            block_sizes=c.block_sizes,
            backend=c.backend,
        )
    pre = pregpt_from_svd(c)
    r = cope_mod.rank(c)
    return make_model(
        effects=[row[:r] for row in pre.effects],
        states=pre.states[:r],
        unit=pre.unit[:r],
        kind=ModelKind.GPT,
        block_sizes=c.block_sizes,
        backend=c.backend,
    )


def quasi_from_gpt(g: ModelFactorization, tom_columns: Sequence[int]) -> ModelFactorization:
    """Change of basis through an invertible set of tomographic states.

    The selected state columns form T; the new model is (effects @ T,
    T^-1 @ states) and its unit is the all-ones vector.
    """
    cols = list(tom_columns)
    r = g.inner_dim
    if len(cols) != r:
        raise PreconditionError(f"need exactly {r} tomographic columns, got {len(cols)}")
    if any(j < 0 or j >= g.n_preparations for j in cols):
        raise PreconditionError("tomographic column index out of range")
    if g.backend.is_exact:
        t = [[g.states[l][j] for j in cols] for l in range(r)]
        t_inv = rla.invert(t)
        if t_inv is None:
            raise PreconditionError("selected state columns are singular, not tomographic")
        effects = rla.mat_mul([list(row) for row in g.effects], t)
        states = rla.mat_mul(t_inv, [list(row) for row in g.states])
        unit = [Fraction(1)] * r
    else:
        import numpy as np

        t = g.states_array()[:, cols]
        if cope_mod.float_rank(t, g.backend.eps) < r:
            raise PreconditionError("selected state columns are singular, not tomographic")
        t_inv = np.linalg.inv(t)
        effects = (g.effects_array() @ t).tolist()
        states = (t_inv @ g.states_array()).tolist()
        unit = [1.0] * r
    return make_model(
        effects=effects,
        states=states,
        unit=unit,
        kind=ModelKind.QUASIPROBABILISTIC,
        block_sizes=g.block_sizes,
        backend=g.backend,
    )


def trivial_ontological(c: CopeMatrix) -> ModelFactorization:
    """One ontic point per preparation: effects = C, states = identity."""
    n = c.n_preparations
    return make_model(
        effects=c.stacked(),
        states=rla.identity(n),
        unit=[Fraction(1)] * n,
        kind=ModelKind.ONTOLOGICAL,
        block_sizes=c.block_sizes,
        backend=c.backend,
    )


def gpt_to_trivial_ontological(g: ModelFactorization, c: CopeMatrix) -> ModelFactorization:
    """Ontological model induced by a GPT through its extremal states.

    Each effect is turned into a response function by evaluating it on all
    extremal states, i.e. the response rows are the rows of the reproduced
    matrix; the state assignment is single-valued on extremal preparations
    (standard basis vectors) and the result coincides with
    :func:`trivial_ontological`.  Mixed preparations would admit a whole
    equivalence class of epistemic states; only the canonical point
    (the basis vector itself) is materialized here.
    """
    report = classify_model(c, g)
    if not (report.reconstruction_ok and report.unit_ok):
        raise PreconditionError("factorization does not reproduce the matrix")
    k = g.inner_dim
    responses = [
        [sum(g.effects[i][l] * g.states[l][j] for l in range(k)) for j in range(g.n_preparations)]
        for i in range(g.n_rows)
    ]
    n = g.n_preparations
    return make_model(
        effects=responses,
        states=rla.identity(n),
        unit=[Fraction(1)] * n,
        kind=ModelKind.ONTOLOGICAL,
        block_sizes=g.block_sizes,
        backend=g.backend,
    )


def fiducial_tomography_test(c: CopeMatrix) -> tuple[bool, bool]:
    """(states fiducial, effects fiducial) for an extremal-quotiented matrix.

    A strict subset of preparations (respectively outcomes) can serve as a
    tomographic probe exactly when the column count (distinct row count)
    exceeds the rank.
    """
    r = cope_mod.rank(c)
    return (c.n_preparations > r, cope_mod.distinct_rows(c) > r)
