from fractions import Fraction

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
