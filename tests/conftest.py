import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from copekit import boxworld, cope_matrix, extended_boxworld, rational, spekkens


@pytest.fixture
def spekkens_matrix():
    return spekkens()


@pytest.fixture
def boxworld_matrix():
    return boxworld()


@pytest.fixture
def ebw_matrix():
    return extended_boxworld()


@pytest.fixture
def rational_qubit_2():
    # Two antipodal pairs on rational Bloch points: rank 3, and the vertex
    # program decides it noncontextual at inner dimension 4.
    a, b = Fraction(37, 42), Fraction(5, 42)
    blocks = [[[1, 0, a, b], [0, 1, b, a]], [[a, b, 1, 0], [b, a, 0, 1]]]
    return cope_matrix(blocks, backend=rational())


@pytest.fixture(scope="session")
def exact_pool_matrices():
    # The exact matrices of the benchmark pools (exact-corpus, random-exact
    # and the exact documents of cli), built by perfbench/corpus.py.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    pools = [corpus.build(w) for w in ("exact-corpus", "random-exact", "cli")]
    return [inst.matrix for pool in pools for inst in pool if inst.matrix.backend.is_exact]
