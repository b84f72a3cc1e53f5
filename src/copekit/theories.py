"""Built-in operational theories and their reference models.

The three finite theories (Spekkens' toy bit, boxworld, extended boxworld)
are exact rational matrices.  The discrete-qubit generator samples Bloch
directions and builds overlap probabilities (1 + u.w) / 2 on the float
backend; with antipodal preparations included, each direction's dichotomic
measurement perfectly distinguishes the pair, which is the zero pattern the
Sperner certifier feeds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .backend import floating, rational
from .cope import CopeMatrix, PreconditionError, cope_matrix
from .models import ModelFactorization, ModelKind, make_model, trivial_ontological

H = Fraction(1, 2)


def spekkens() -> CopeMatrix:
    """Toy bit: six preparations, three two-outcome measurements, rank 4."""
    return cope_matrix(
        blocks=[
            [[1, 0, H, H, H, H], [0, 1, H, H, H, H]],
            [[H, H, 1, 0, H, H], [H, H, 0, 1, H, H]],
            [[H, H, H, H, 1, 0], [H, H, H, H, 0, 1]],
        ],
        backend=rational(),
    )


def boxworld() -> CopeMatrix:
    """Four preparations, two dichotomic measurements, rank 3."""
    return cope_matrix(
        blocks=[
            [[1, 0, 0, 1], [0, 1, 1, 0]],
            [[1, 0, 1, 0], [0, 1, 0, 1]],
        ],
        backend=rational(),
    )


def extended_boxworld() -> CopeMatrix:
    """Boxworld padded with an equivalent preparation pair and a shared outcome."""
    return cope_matrix(
        blocks=[
            [[0, 0, 0, 0, 1, 1], [1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 0, 0]],
            [[0, 0, 0, 0, 1, 1], [1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0]],
        ],
        backend=rational(),
    )


def _spekkens_models() -> tuple:
    s6 = 1 / math.sqrt(6)
    s2 = 1 / math.sqrt(2)
    s32 = math.sqrt(1.5)
    gpt = make_model(
        effects=[
            [s6, 0, 0, -s2],
            [s6, 0, 0, s2],
            [s6, 0, -s2, 0],
            [s6, 0, s2, 0],
            [s6, -s2, 0, 0],
            [s6, s2, 0, 0],
        ],
        states=[
            [s32, s32, s32, s32, s32, s32],
            [0, 0, 0, 0, -s2, s2],
            [0, 0, -s2, s2, 0, 0],
            [-s2, s2, 0, 0, 0, 0],
        ],
        unit=[math.sqrt(2.0 / 3.0), 0, 0, 0],
        kind=ModelKind.GPT,
        block_sizes=(2, 2, 2),
        backend=floating(),
    )
    quasi = make_model(
        effects=[
            [1, H, H, H],
            [0, H, H, H],
            [H, 1, H, H],
            [H, 0, H, H],
            [H, H, 1, 0],
            [H, H, 0, 1],
        ],
        states=[
            [1, -1, 0, 0, 0, 0],
            [0, 0, 1, -1, 0, 0],
            [0, 1, 0, 1, 1, 0],
            [0, 1, 0, 1, 0, 1],
        ],
        unit=[1, 1, 1, 1],
        kind=ModelKind.QUASIPROBABILISTIC,
        block_sizes=(2, 2, 2),
        backend=rational(),
    )
    noncontextual = make_model(
        effects=[
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
            [1, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
        ],
        states=[
            [H, 0, 0, H, H, 0],
            [0, H, 0, H, 0, H],
            [0, H, H, 0, H, 0],
            [H, 0, H, 0, 0, H],
        ],
        unit=[1, 1, 1, 1],
        kind=ModelKind.NONCONTEXTUAL_ONTOLOGICAL,
        block_sizes=(2, 2, 2),
        backend=rational(),
    )
    trivial = trivial_ontological(spekkens())
    return (gpt, quasi, noncontextual, trivial)


def _boxworld_models() -> tuple:
    gpt = make_model(
        effects=[
            [H, H, -H],
            [H, -H, H],
            [H, -H, -H],
            [H, H, H],
        ],
        states=[
            [1, 1, 1, 1],
            [0, 0, -1, 1],
            [-1, 1, 0, 0],
        ],
        unit=[1, 0, 0],
        kind=ModelKind.GPT,
        block_sizes=(2, 2),
        backend=rational(),
    )
    quasi = make_model(
        effects=[
            [H, 1, 0],
            [H, 0, 1],
            [H, 0, 0],
            [H, 1, 1],
        ],
        states=[
            [2, 0, 2, 0],
            [0, 0, -1, 1],
            [-1, 1, 0, 0],
        ],
        unit=[1, 1, 1],
        kind=ModelKind.QUASIPROBABILISTIC,
        block_sizes=(2, 2),
        backend=rational(),
    )
    trivial = trivial_ontological(boxworld())
    return (gpt, quasi, trivial)


def _extended_boxworld_models() -> tuple:
    s2 = 1 / math.sqrt(2)
    r2 = math.sqrt(2)
    gpt = make_model(
        effects=[
            [s2, 0, 0, 0],
            [0, 0.5, 0.5, -0.5],
            [0, 0.5, -0.5, 0.5],
            [s2, 0, 0, 0],
            [0, 0.5, -0.5, -0.5],
            [0, 0.5, 0.5, 0.5],
        ],
        states=[
            [0, 0, 0, 0, r2, r2],
            [1, 1, 1, 1, 0, 0],
            [0, 0, -1, 1, 0, 0],
            [-1, 1, 0, 0, 0, 0],
        ],
        unit=[s2, 1, 0, 0],
        kind=ModelKind.GPT,
        block_sizes=(3, 3),
        backend=floating(),
    )
    quasi = make_model(
        effects=[
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 0],
        ],
        states=[
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 0, 1, -1, 0, 0],
            [0, 0, 0, 0, 1, 1],
        ],
        unit=[1, 1, 1, 1],
        kind=ModelKind.QUASIPROBABILISTIC,
        block_sizes=(3, 3),
        backend=rational(),
    )
    contextual_ontological = make_model(
        effects=[
            [0, 0, 0, 0, 1],
            [1, 0, 0, 1, 0],
            [0, 1, 1, 0, 0],
            [0, 0, 0, 0, 1],
            [1, 0, 1, 0, 0],
            [0, 1, 0, 1, 0],
        ],
        states=[
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
        ],
        unit=[1, 1, 1, 1, 1],
        kind=ModelKind.ONTOLOGICAL,
        block_sizes=(3, 3),
        backend=rational(),
    )
    trivial = trivial_ontological(extended_boxworld())
    return (gpt, quasi, contextual_ontological, trivial)


_THEORIES = {
    "spekkens": _spekkens_models,
    "boxworld": _boxworld_models,
    "extended_boxworld": _extended_boxworld_models,
}


def reference_models(theory: str) -> tuple:
    """The documented explicit models for a built-in theory.

    Each returned factorization passes :func:`copekit.models.classify_model`
    with its tagged kind against the theory's matrix.
    """
    key = theory.replace("-", "_")
    if key not in _THEORIES:
        raise KeyError(f"unknown theory {theory!r}; expected one of {sorted(_THEORIES)}")
    return _THEORIES[key]()


@dataclass(frozen=True)
class BlochDirection:
    """Unit vector on the Bloch sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(norm - 1.0) > 1e-6:
            raise PreconditionError(f"direction must have unit norm, got {norm}")

    @staticmethod
    def from_vector(x: float, y: float, z: float) -> "BlochDirection":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0:
            raise PreconditionError("cannot normalize the zero vector")
        return BlochDirection(x / norm, y / norm, z / norm)

    def dot(self, other: "BlochDirection") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def negated(self) -> "BlochDirection":
        return BlochDirection(-self.x, -self.y, -self.z)


def cardinal_directions() -> tuple:
    """The x, y, z axes, ordered so the toy-bit preparations come out aligned."""
    return (
        BlochDirection(1.0, 0.0, 0.0),
        BlochDirection(0.0, 1.0, 0.0),
        BlochDirection(0.0, 0.0, 1.0),
    )


def generic_directions(count: int, seed: int = 11) -> tuple:
    """Seeded generic Bloch directions (pairwise non-parallel, reproducible)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out: list[BlochDirection] = []
    while len(out) < count:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm < 1e-6:
            continue
        cand = BlochDirection(float(v[0]) / norm, float(v[1]) / norm, float(v[2]) / norm)
        if all(abs(cand.dot(d)) < 1.0 - 1e-6 for d in out):
            out.append(cand)
    return tuple(out)


def discrete_qubit(
    directions: Sequence[BlochDirection],
    include_antipodes: bool = True,
    eps: float = 1e-9,
) -> CopeMatrix:
    """Finite qubit fragment: overlap probabilities along chosen directions.

    Preparations are +v (and -v when antipodes are included) for each
    direction v; measurement j is the dichotomy along direction j, with
    outcome probabilities (1 + u.w) / 2 and (1 - u.w) / 2.
    """
    directions = list(directions)
    if not directions:
        raise PreconditionError("need at least one direction")
    for i in range(len(directions)):
        for j in range(i + 1, len(directions)):
            if abs(directions[i].dot(directions[j])) >= 1.0 - 1e-9:
                raise PreconditionError(
                    f"directions {i} and {j} are parallel; preparations would collapse"
                )
    preps: list[BlochDirection] = []
    prep_labels: list[str] = []
    for i, d in enumerate(directions):
        preps.append(d)
        prep_labels.append(f"+{i + 1}")
        if include_antipodes:
            preps.append(d.negated())
            prep_labels.append(f"-{i + 1}")
    blocks = []
    for u in directions:
        plus = [(1.0 + u.dot(w)) / 2.0 for w in preps]
        minus = [(1.0 - u.dot(w)) / 2.0 for w in preps]
        blocks.append([plus, minus])
    return cope_matrix(
        blocks=blocks,
        backend=floating(eps),
        prep_labels=prep_labels,
        measurement_labels=[f"M{j + 1}" for j in range(len(directions))],
        outcome_labels=[["+", "-"] for _ in directions],
    )
