import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from copekit import boxworld, extended_boxworld, merge_measurements, spekkens, span_simplex_polytope
from copekit import rational_linalg as rla
from copekit.enmf_decision import _vertex_lp

from oracles import (
    reference_independent_rows,
    reference_integer_inverse,
    reference_lp_feasibility,
    reference_rref,
)


@pytest.fixture
def kernel_branches(monkeypatch):
    """Counts the kernel's row updates that were reduced by their gcd and
    those kept over their scaled denominator."""
    counts = {"reduced": 0, "kept": 0, "_reduced calls": 0}
    reduced, eliminate = rla._reduced, rla._eliminate

    def counting_reduced(row, den):
        counts["_reduced calls"] += 1
        return reduced(row, den)

    def spying_eliminate(row, den, pivot_row, col):
        before = counts["_reduced calls"]
        out = eliminate(row, den, pivot_row, col)
        counts["reduced" if counts["_reduced calls"] > before else "kept"] += 1
        return out

    monkeypatch.setattr(rla, "_reduced", counting_reduced)
    monkeypatch.setattr(rla, "_eliminate", spying_eliminate)
    return counts


def _wide_fraction(rng, bits=60):
    """Zero in one draw of four, else a fraction whose denominator is near 2**bits."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-2**bits, 2**bits), rng.randint(2 ** (bits - 1), 2**bits))


def _random_fraction_matrix(rng, m, n, den=5):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(n)]
        for _ in range(m)
    ]


def test_rank_matches_numpy_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_fraction_matrix(rng, m, n)
        arr = np.array([[float(x) for x in row] for row in a])
        assert rla.rank(a) == np.linalg.matrix_rank(arr, tol=1e-9)


def _random_rref_matrix(rng):
    """Tall, wide or square; zero rows or columns, negative entries,
    denominators up to 12, and often rank-deficient."""
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    a = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6 else Fraction(0)
         for _ in range(n)]
        for _ in range(m)
    ]
    shape = rng.random()
    if shape < 0.2:
        a[rng.randrange(m)] = [Fraction(0)] * n
    elif shape < 0.4:
        j = rng.randrange(n)
        for row in a:
            row[j] = Fraction(0)
    elif shape < 0.7 and m > 1:
        # One row a combination of two others.
        i, k = rng.randrange(m), rng.randrange(m)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        a[-1] = [x + s * y for x, y in zip(a[i], a[k])]
    return a


def test_rref_and_rank_are_identical_to_the_fraction_reference():
    rng = random.Random(77)
    shapes, deficient = set(), 0
    for _ in range(400):
        a = _random_rref_matrix(rng)
        red, pivots = reference_rref(a)
        assert rla.rref(a) == (red, pivots)
        assert rla.rank(a) == len(pivots)
        m, n = len(a), len(a[0])
        shapes.add((m > n) - (m < n))
        deficient += len(pivots) < min(m, n)
    assert shapes == {-1, 0, 1}
    assert deficient > 50
    assert rla.rref([]) == reference_rref([])
    assert rla.rank([]) == 0


def test_independent_rows_are_identical_to_the_prefix_rank_reference():
    # Rows are combinations of fewer random rows than fit, with zero rows
    # and duplicates mixed in, so most matrices are rank-deficient.
    rng = random.Random(2024)
    seen = set()
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        basis = _random_fraction_matrix(rng, k, n)
        a = [
            [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(n)]
            for _ in range(rng.randint(1, 6))
        ]
        for _ in range(rng.randint(0, 2)):
            a.insert(rng.randint(0, len(a)), [Fraction(0)] * n)
        for _ in range(rng.randint(0, 2)):
            a.insert(rng.randint(0, len(a)), list(rng.choice(a)))
        got = rla.independent_rows(a)
        assert got == reference_independent_rows(a)
        assert len(got) == rla.rank(a)
        seen.add("zero row" if [0] * n in a else "no zero row")
        seen.add("duplicate" if len({tuple(row) for row in a}) < len(a) else "distinct")
        seen.add("deficient" if len(got) < min(len(a), n) else "full")
    assert seen == {"zero row", "no zero row", "duplicate", "distinct", "deficient", "full"}


def test_rank_factorization_reconstructs():
    rng = random.Random(11)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_fraction_matrix(rng, m, n)
        f, g = rla.rank_factorization(a)
        assert rla.mat_mul(f, g) == [[Fraction(x) for x in row] for row in a]
        r = rla.rank(a)
        if r > 0:
            assert rla.rank(f) == r
            assert rla.rank(g) == r


def test_solve_consistent_and_nullspace():
    rng = random.Random(13)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_fraction_matrix(rng, m, n)
        x_true = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        b = rla.mat_vec(a, x_true)
        x = rla.solve_consistent(a, b)
        assert x is not None
        assert rla.mat_vec(a, x) == b
        for v in rla.nullspace(a):
            assert all(s == 0 for s in rla.mat_vec(a, v))


def test_solve_columns_is_one_reference_solve_per_column():
    # Each right-hand side against the solution read off the Fraction RREF
    # of [a | b] alone (free variables at 0).  Half the right-hand sides are
    # a @ x, the others random, and inconsistent when a has dependent rows.
    rng = random.Random(1717)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_fraction_matrix(rng, m, n)
        rhs = [rla.mat_vec(a, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
               if rng.random() < 0.5 else [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
               for _ in range(rng.randint(1, 4))]
        for b, x in zip(rhs, rla.solve_columns(a, rhs)):
            red, pivots = reference_rref([list(row) + [bv] for row, bv in zip(a, b)])
            expected = None
            if n not in pivots:
                expected = [Fraction(0)] * n
                for row, pc in zip(red, pivots):
                    expected[pc] = row[-1]
            assert x == expected and rla.solve_consistent(a, b) == expected
            assert x is None or all(type(v) is Fraction for v in x)
            outcomes[x is None] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_rref_and_rank_are_identical_across_the_reduction_bound(kernel_branches):
    # Rows over denominators near 2**60 pass _REDUCE_BITS after a few
    # updates, so both the kept and the reduced updates are compared.
    rng = random.Random(1808)
    for _ in range(25):
        m, n = rng.randint(3, 8), rng.randint(3, 8)
        a = [[_wide_fraction(rng) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.4:
            a[-1] = [x - 3 * y for x, y in zip(a[0], a[1])]
        red, pivots = reference_rref(a)
        assert rla.rref(a) == (red, pivots)
        assert rla.rank(a) == len(pivots)
    assert kernel_branches["reduced"] > 0 and kernel_branches["kept"] > 0


def _leibniz_det(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_integer_inverse_is_an_inverse_over_one_denominator():
    rng = random.Random(99)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        max_den = rng.choice((1, 1, 3))  # int rows, and rows over their own denominators
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, max_den)) for _ in range(n)] for _ in range(n)]
        got = rla._integer_inverse(a)
        assert got == reference_integer_inverse(a)
        if _leibniz_det(a) == 0:
            assert got is None
            singular += 1
            continue
        numerators, den = got
        assert den > 0 and all(type(v) is int for row in numerators for v in row)
        assert rla.mat_mul(a, numerators) == [[den * (i == j) for j in range(n)] for i in range(n)]
    assert 0 < singular < 300


def test_integer_inverse_is_identical_to_the_reference_across_the_reduction_bound(kernel_branches):
    # Rows over denominators near 2**60 pass _REDUCE_BITS after a few
    # updates; (N, d) is still the one coprime rows give.
    rng = random.Random(1809)
    singular = 0
    for _ in range(40):
        n = rng.randint(1, 7)
        a = [[_wide_fraction(rng) for _ in range(n)] for _ in range(n)]
        got = rla._integer_inverse(a)
        assert got == reference_integer_inverse(a)
        if got is None:
            singular += 1
            continue
        numerators, den = got
        assert rla.mat_mul(a, numerators) == [[den * (i == j) for j in range(n)] for i in range(n)]
    assert 0 < singular < 40
    assert kernel_branches["reduced"] > 0 and kernel_branches["kept"] > 0


def test_invert():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = rla.invert(a)
    assert rla.mat_mul(a, inv) == rla.identity(2)
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rla.invert(singular) is None


def test_lp_feasibility_simple_cases():
    # x1 + x2 = 1, x1 - x2 = 0 -> x = (1/2, 1/2)
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    x, y = rla.lp_feasibility(a, [Fraction(1), Fraction(0)])
    assert y is None
    assert x == [Fraction(1, 2), Fraction(1, 2)]
    # x1 + x2 = -1 with x >= 0 is infeasible.
    x, y = rla.lp_feasibility([[Fraction(1), Fraction(1)]], [Fraction(-1)])
    assert x is None and y is not None


def test_lp_feasibility_matches_scipy_and_farkas_verifies():
    import scipy.optimize

    rng = random.Random(5)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        x, farkas = rla.lp_feasibility(a, b)
        arr = np.array([[float(v) for v in row] for row in a])
        rhs = np.array([float(v) for v in b])
        res = scipy.optimize.linprog(
            c=np.zeros(n), A_eq=arr, b_eq=rhs, bounds=(0, None), method="highs"
        )
        if x is not None:
            assert res.success
            assert all(v >= 0 for v in x)
            assert [sum(ai * xi for ai, xi in zip(row, x)) for row in a] == b
        else:
            assert not res.success
            # Farkas: y^T A <= 0 and y^T b > 0, exactly.
            for j in range(n):
                assert sum(farkas[i] * a[i][j] for i in range(m)) <= 0
            assert sum(farkas[i] * b[i] for i in range(m)) > 0


def _random_lp(rng):
    """Small LP with rational entries, mixed-sign rhs, zero and repeated rows."""
    m, n = rng.randint(1, 6), rng.randint(1, 7)
    a = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.7 else Fraction(0)
         for _ in range(n)]
        for _ in range(m)
    ]
    b = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(m)]
    shape = rng.random()
    if shape < 0.15:
        i = rng.randrange(m)
        a[i] = [Fraction(0)] * n
        b[i] = Fraction(0) if rng.random() < 0.5 else b[i]
    elif shape < 0.3 and m > 1:
        a[-1] = list(a[0])
        b[-1] = b[0]
    elif shape < 0.45:
        b = [Fraction(0)] * m
    return a, b


def test_lp_feasibility_is_identical_to_the_fraction_reference():
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(600):
        a, b = _random_lp(rng)
        got = rla.lp_feasibility(a, b)
        assert got == reference_lp_feasibility(a, b)
        outcomes.add(got[0] is None)
    assert outcomes == {True, False}
    assert rla.lp_feasibility([], []) == reference_lp_feasibility([], [])


def test_lp_feasibility_is_identical_across_the_reduction_bound(kernel_branches):
    # Entries over denominators near 2**60 take tableau rows past
    # _REDUCE_BITS, so Bland's pivots and both answers are compared on
    # reduced and on kept updates.
    rng = random.Random(1810)
    outcomes = set()
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(2, 6)
        a = [[_wide_fraction(rng) for _ in range(n)] for _ in range(m)]
        b = [_wide_fraction(rng) for _ in range(m)]
        got = rla.lp_feasibility(a, b)
        assert got == reference_lp_feasibility(a, b)
        outcomes.add(got[0] is None)
    assert outcomes == {True, False}
    assert kernel_branches["reduced"] > 0 and kernel_branches["kept"] > 0


@pytest.mark.parametrize("pairs", [2, 3])
def test_vertex_programs_do_not_depend_on_the_reduction_bound(pairs, perfbench_corpus, monkeypatch,
                                                              kernel_branches):
    # Rational qubits from Bloch integers up to 40: a feasible program for 2
    # pairs, a Farkas vector for 3.  The answer is the reference's with the
    # shipped bound, with every update reduced, and in between.
    corpus = perfbench_corpus
    merged = merge_measurements(corpus.rational_qubit(corpus.rational_directions(pairs, span=40)))
    a, b = _vertex_lp(merged, list(span_simplex_polytope(merged).vertices))
    reference = reference_lp_feasibility(a, b)
    for bits in (rla._REDUCE_BITS, 64, 0):
        monkeypatch.setattr(rla, "_REDUCE_BITS", bits)
        assert rla.lp_feasibility(a, b) == reference
    assert kernel_branches["reduced"] > 0 and kernel_branches["kept"] > 0


@pytest.mark.parametrize("theory", [spekkens, boxworld, extended_boxworld])
def test_lp_feasibility_is_identical_on_vertex_programs(theory):
    merged = merge_measurements(theory())
    a, b = _vertex_lp(merged, list(span_simplex_polytope(merged).vertices))
    assert rla.lp_feasibility(a, b) == reference_lp_feasibility(a, b)


@pytest.mark.parametrize("theory, feasible", [(boxworld, False), (spekkens, True)])
def test_lp_feasibility_converts_each_row_once(theory, feasible, monkeypatch):
    # The kernel and the Farkas check share one conversion per row; the
    # primal check reads the rows on its own and converts none.
    merged = merge_measurements(theory())
    a, b = _vertex_lp(merged, list(span_simplex_polytope(merged).vertices))
    calls = {"all": 0, "primal": 0}
    in_primal = []
    integer_row, check_primal = rla._integer_row, rla._check_primal

    def counting_integer_row(values):
        calls["all"] += 1
        calls["primal"] += bool(in_primal)
        return integer_row(values)

    def flagged_check_primal(*args):
        in_primal.append(True)
        try:
            return check_primal(*args)
        finally:
            in_primal.pop()

    monkeypatch.setattr(rla, "_integer_row", counting_integer_row)
    monkeypatch.setattr(rla, "_check_primal", flagged_check_primal)
    x, y = rla.lp_feasibility(a, b)
    assert (x is not None, y is None) == (feasible, feasible)
    assert calls == {"all": len(a), "primal": 0}


def test_primal_check_rejects_a_corrupted_solution(monkeypatch):
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    b = [Fraction(1), Fraction(0)]
    x, _ = rla.lp_feasibility(a, b)
    with pytest.raises(AssertionError, match="primal point .sign"):
        rla._check_primal(a, b, [-x[0], x[1]])
    with pytest.raises(AssertionError, match="primal point .equality"):
        rla._check_primal(a, b, [x[0], x[1] + 1])

    # A kernel that solves for the wrong right-hand side must not return.
    integer_row = rla._integer_row

    def shifted_rhs(values):
        row, den = integer_row(values)
        row[-1] += den
        return row, den

    monkeypatch.setattr(rla, "_integer_row", shifted_rhs)
    with pytest.raises(AssertionError, match="primal point .equality"):
        rla.lp_feasibility(a, b)


def test_checks_reject_corrupted_answers_to_vertex_programs_with_int_zeros():
    # The vertex program writes its zeros as the int 0, and both checks read
    # only the nonzeros; a corrupted answer must still fail them.
    merged = merge_measurements(spekkens())
    a, b = _vertex_lp(merged, list(span_simplex_polytope(merged).vertices))
    assert any(type(v) is int for v in a[0])
    x, _ = rla.lp_feasibility(a, b)
    j = next(j for j, v in enumerate(x) if v)
    with pytest.raises(AssertionError, match="primal point .equality"):
        rla._check_primal(a, b, x[:j] + [x[j] + 1] + x[j + 1:])
    with pytest.raises(AssertionError, match="primal point .sign"):
        rla._check_primal(a, b, x[:j] + [-x[j]] + x[j + 1:])

    merged = merge_measurements(boxworld())
    a, b = _vertex_lp(merged, list(span_simplex_polytope(merged).vertices))
    _, y = rla.lp_feasibility(a, b)
    rla._check_farkas(a, b, y)
    with pytest.raises(AssertionError, match="Farkas certificate .column"):
        rla._check_farkas(a, b, [-v for v in y])
    with pytest.raises(AssertionError, match="Farkas certificate .rhs"):
        rla._check_farkas(a, [0] * len(b), y)


def test_primal_check_reads_float_entries_exactly():
    # Float entries are read at their exact binary value: 0.1 is not 1/10,
    # so a point that solves the decimal system fails the float one.
    a = [[0.5, 0.25, 0], [1, 1.0, True]]
    b = [0.375, Fraction(3, 2)]
    rla._check_primal(a, b, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
    rla._check_primal(a, b, [0.5, 0.5, 0.5])
    with pytest.raises(AssertionError, match="primal point .equality"):
        rla._check_primal(a, [0.375, 1.5000000000000002], [0.5, 0.5, 0.5])
    rla._check_primal([[Fraction(1, 10)]], [Fraction(1, 10)], [1])
    with pytest.raises(AssertionError, match="primal point .equality"):
        rla._check_primal([[0.1]], [Fraction(1, 10)], [1])
    with pytest.raises(AssertionError, match="primal point .equality"):
        rla._check_primal([[Fraction(1, 10)]], [0.1], [1])
    with pytest.raises(AssertionError, match="primal point .sign"):
        rla._check_primal(a, b, [0.5, -0.0 - 1e-300, 0.5])


def test_convex_combination_basic():
    cols = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    mid = [Fraction(1, 2), Fraction(1, 2)]
    w = rla.convex_combination(cols, mid)
    assert w is not None and sum(w) == 1
    outside = [Fraction(2), Fraction(-1)]
    assert rla.convex_combination(cols, outside) is None
