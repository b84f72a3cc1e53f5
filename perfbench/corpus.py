"""The benchmark's workloads: fixed instance pools and their frozen verdicts.

Every pool is built from source at run time, by the benchmark's own code and
fixed generator seeds, so the references in ``references.json`` describe
exactly the instances that are certified.  The ``--seed`` of a run shuffles
the order in which a pool is certified, never the instances themselves: the
frozen verdicts stay exact, and runs with different seeds measure the same
work.

Workloads (see README.md for why each was chosen):

- ``exact-corpus``: the three exact built-ins and exact qubit fragments with
  2-5 antipodal pairs on rational Bloch points; the exact layers dominate.
- ``float-qubits``: the cardinal qubit and seeded generic qubits with 2-8
  pairs; the heuristic restarts dominate and the exact layers never run.
- ``random-exact``: 200 small exact matrices drawn by the acceptance-8
  recipe, each sent round the wire format; fixed per-call cost dominates.
- ``cli``: three pre-emitted documents, each certified by a cold
  ``python -m copekit.cli certify`` process.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

WORKLOADS = ("exact-corpus", "float-qubits", "random-exact", "cli")

NONCONTEXTUAL = "Noncontextual"
CONTEXTUAL = "Contextual"
UNDETERMINED = "Undetermined"

# Generator seeds of the frozen pools.  Changing one invalidates references.json.
BLOCH_SEED = 4
BLOCH_RANGE = 3
BLOCH_PAIRS = (2, 3, 4, 5)
GENERIC_SEED = 11
GENERIC_PAIRS = range(2, 9)
RANDOM_SEED = 808
RANDOM_COUNT = 200
CLI_QUBIT_PAIRS = 5

# Percentile reported as certify_tail_ms: the highest of 50/75/90/95/99 that
# leaves at least ten samples beyond it at the sample count a default-length
# run collects.  It is fixed per workload, so a faster program that fits more
# passes into a run is compared at the same percentile.  exact-corpus and cli
# certify too few instances for any tail and report the median.
TAIL_PERCENTILE = {"exact-corpus": 50, "float-qubits": 75, "random-exact": 99, "cli": 50}


class ProgramMissing(RuntimeError):
    """The checkout holds no copekit sources to benchmark."""


def load_program():
    """Import copekit from the checkout's ``src``, never from elsewhere."""
    init = SRC / "copekit" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no copekit sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import copekit

    if Path(copekit.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"copekit was imported from {copekit.__file__}, not {init}")
    return copekit


@dataclass(frozen=True)
class Instance:
    """One certification: a matrix, or for ``cli`` an emitted document."""

    name: str
    matrix: object
    document: Optional[bytes] = None


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def bloch_point(a: int, b: int) -> tuple:
    """Rational point of the unit sphere by inverse stereographic projection."""
    d = a * a + b * b + 1
    return (Fraction(2 * a, d), Fraction(2 * b, d), Fraction(a * a + b * b - 1, d))


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def rational_directions(count: int, seed: int = BLOCH_SEED, span: int = BLOCH_RANGE) -> list:
    """``count`` rational Bloch directions from integers a, b in [-span, span].

    A candidate parallel or antipodal to an earlier direction is drawn again,
    as ``discrete_qubit`` rejects such pairs; a range too small for ``count``
    directions raises ValueError.
    """
    rng = random.Random(seed)
    out: list = []
    for _ in range(100 * count):
        u = bloch_point(rng.randint(-span, span), rng.randint(-span, span))
        if all(abs(_dot(u, v)) != 1 for v in out):
            out.append(u)
            if len(out) == count:
                return out
    raise ValueError(f"could not draw {count} non-parallel directions with |a|, |b| <= {span}")


def rational_qubit(directions):
    """Exact qubit fragment: +v and -v per direction, one dichotomy per direction."""
    ck = load_program()
    preps = []
    for d in directions:
        preps += [d, tuple(-x for x in d)]
    blocks = [
        [[(1 + _dot(u, w)) / 2 for w in preps], [(1 - _dot(u, w)) / 2 for w in preps]]
        for u in directions
    ]
    return ck.cope_matrix(blocks, backend=ck.rational())


def random_cope(rng: random.Random, max_blocks=2, max_outcomes=2, max_cols=6, max_den=2,
                max_total_rows=6):
    """Random exact column-stochastic block matrix; the acceptance-8 recipe.

    Draws from ``rng`` in the same order as ``tests/oracles.random_cope``, so
    the same seed gives the same matrices.
    """
    ck = load_program()
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
    return ck.cope_matrix(blocks, backend=ck.rational())


def random_batch(seed: int = RANDOM_SEED, count: int = RANDOM_COUNT) -> list:
    """The acceptance-8 shape: rows + columns <= 10."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = random_cope(rng)
        if c.n_rows + c.n_preparations <= 10:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def build(workload: str) -> list[Instance]:
    """The fixed instance pool of a workload, in canonical order."""
    ck = load_program()
    if workload == "exact-corpus":
        pool = [
            Instance("spekkens", ck.spekkens()),
            Instance("boxworld", ck.boxworld()),
            Instance("extended_boxworld", ck.extended_boxworld()),
        ]
        dirs = rational_directions(max(BLOCH_PAIRS))
        pool += [Instance(f"rational_qubit_{n}", rational_qubit(dirs[:n])) for n in BLOCH_PAIRS]
        return pool
    if workload == "float-qubits":
        pool = [Instance("cardinal_qubit", ck.discrete_qubit(ck.cardinal_directions()))]
        pool += [
            Instance(f"generic_qubit_{n}", ck.discrete_qubit(ck.generic_directions(n, seed=GENERIC_SEED)))
            for n in GENERIC_PAIRS
        ]
        return pool
    if workload == "random-exact":
        return [Instance(f"random_{i:03d}", c) for i, c in enumerate(random_batch())]
    if workload == "cli":
        pool = [
            ("spekkens", ck.spekkens()),
            ("boxworld", ck.boxworld()),
            (f"generic_qubit_{CLI_QUBIT_PAIRS}",
             ck.discrete_qubit(ck.generic_directions(CLI_QUBIT_PAIRS, seed=GENERIC_SEED))),
        ]
        return [Instance(name, c, ck.emit_cope(c)) for name, c in pool]
    raise KeyError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def digest(c) -> Optional[str]:
    """Content hash of an exact matrix; None for floats, whose last digits may move."""
    if not c.backend.is_exact:
        return None
    text = json.dumps([[[str(x) for x in row] for row in block] for block in c.blocks])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
