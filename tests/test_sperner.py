import random
from fractions import Fraction
from math import comb

import pytest

import copekit.sperner as sperner_mod
from copekit import (
    Certificate,
    SpernerSeparation,
    certify,
    cope_matrix,
    discrete_qubit,
    emit_certificate,
    generic_directions,
    parse_certificate,
    rank,
    sperner_ontic_bound,
    sperner_span_bound,
    sperner_submatrix,
)
from copekit.backend import floating
from copekit.certify import CONTEXTUAL, _check
from copekit.polytope import _Derived
from copekit.sperner import _zero_pattern

from oracles import max_antichain_size, reference_max_matching

# Central binomial coefficients binom(k, floor(k/2)) for k = 0..8.
CENTRAL = [1, 1, 2, 3, 6, 10, 20, 35, 70]


def test_central_binomials_match_antichain_oracle():
    for k in range(0, 9):
        assert max_antichain_size(k) == CENTRAL[k] == comb(k, k // 2)


def test_bound_examples():
    assert sperner_ontic_bound(10) == 5
    assert sperner_span_bound(10) == 5
    assert sperner_ontic_bound(9) == 5
    assert sperner_span_bound(9) == 4
    # m = 1: counting alone gives 0 ontic points; report at least one.
    assert sperner_ontic_bound(1) == 1
    assert sperner_span_bound(1) == 1


def test_bounds_agree_with_oracle_inverse():
    for m in range(1, 80):
        k = sperner_ontic_bound(m)
        l = sperner_span_bound(m)
        if k >= 2:
            assert comb(k - 1, (k - 1) // 2) < m <= comb(k, k // 2)
        assert comb(l, l // 2) <= m < comb(l + 1, (l + 1) // 2)


def test_bounds_monotone():
    ks = [sperner_ontic_bound(m) for m in range(1, 100)]
    ls = [sperner_span_bound(m) for m in range(1, 100)]
    assert ks == sorted(ks)
    assert ls == sorted(ls)


def _diag_zero_matrix(n):
    # Zero diagonal, positive off-diagonal, columns sum to one.
    rows = []
    for i in range(n):
        rows.append(
            [Fraction(0) if i == j else Fraction(1, n - 1) for j in range(n)]
        )
    return cope_matrix([rows])


def test_zero_diagonal_witness():
    c = _diag_zero_matrix(10)
    w = sperner_submatrix(c)
    assert w is not None
    assert w.m == 10
    assert w.ontic_dim_lower_bound == 5
    assert w.factor_span_lower_bound == 5


def test_all_positive_matrix_has_no_witness():
    c = cope_matrix([[["1/2", "1/3"], ["1/2", "2/3"]]])
    assert sperner_submatrix(c) is None


def test_single_zero_insufficient():
    c = cope_matrix([[[1, "1/2"], [0, "1/2"]]])
    assert sperner_submatrix(c) is None  # needs m >= 2


def test_witness_validity_direct_assertion():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = []
        for i in range(n):
            col_cuts = [rng.choice([0, 1]) for _ in range(n)]
            rows.append(col_cuts)
        # Normalize columns to sum 1 (avoid zero columns).
        blocks = []
        cols = []
        for j in range(n):
            total = sum(rows[i][j] for i in range(n))
            if total == 0:
                rows[0][j] = 1
                total = 1
            cols.append([Fraction(rows[i][j], total) for i in range(n)])
        blocks = [[[cols[j][i] for j in range(n)] for i in range(n)]]
        c = cope_matrix(blocks)
        w = sperner_submatrix(c)
        if w is None:
            continue
        stacked = c.stacked()
        for a, ra in enumerate(w.row_indices):
            for b, cb in enumerate(w.col_indices):
                assert (stacked[ra][cb] == 0) == (a == b)


def test_qubit_antipodal_witness():
    q = discrete_qubit(generic_directions(5, seed=11), include_antipodes=True)
    w = sperner_submatrix(q)
    assert w is not None
    assert w.m == 10
    assert w.factor_span_lower_bound == 5


def test_float_zeros_use_eps():
    c = cope_matrix(
        [[[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]], backend=floating(1e-9)
    )
    w = sperner_submatrix(c)
    assert w is not None and w.m == 2


def _sparse_blocks(rng, n_cols, n_blocks=4, n_outcomes=3):
    # Each column of each block has one or two equal nonzeros.
    blocks = []
    for _ in range(n_blocks):
        cols = []
        for _ in range(n_cols):
            k = rng.randint(1, 2)
            hit = rng.sample(range(n_outcomes), k)
            cols.append([Fraction(1, k) if i in hit else Fraction(0) for i in range(n_outcomes)])
        blocks.append([[col[i] for col in cols] for i in range(n_outcomes)])
    return cope_matrix(blocks)


def _search_input(c):
    zero = _zero_pattern(c)
    return zero, [(i, j) for i, row in enumerate(zero) for j, z in enumerate(row) if z]


def test_search_finds_the_largest_witness_above_total_12():
    # 12 rows and 14 columns, a sparse pattern on which a greedy first-fit
    # with shuffles finds only m = 3; the exact search finds the reference's 5.
    rng = random.Random(2026)
    for _ in range(15):
        _sparse_blocks(rng, 8)
    c = _sparse_blocks(rng, 14)
    reference = reference_max_matching(*_search_input(c))
    w = sperner_submatrix(c)
    assert w.m == len(reference) == 5
    assert list(zip(w.row_indices, w.col_indices)) == reference


def test_node_budget_returns_the_best_witness_so_far(monkeypatch):
    # The first n nodes dive to n - 1 pairs, each the first that fits; the
    # full search needs more nodes and finds m = 4.  The smaller witness is
    # still a valid unique-zero submatrix, so certify stays sound.
    c = _sparse_blocks(random.Random(2026), 8)
    zero, edges = _search_input(c)
    assert len(reference_max_matching(zero, edges)) == 4
    dive = []
    for r, col in edges:
        if all(r != a and col != b and not zero[a][col] and not zero[r][b] for a, b in dive):
            dive.append((r, col))
    for budget in (3, 4):
        monkeypatch.setattr(sperner_mod, "_NODE_BUDGET", budget)
        w = sperner_submatrix(c)
        assert list(zip(w.row_indices, w.col_indices)) == dive[:budget - 1]
    r = rank(c)
    cert = Certificate(CONTEXTUAL, SpernerSeparation(w, r), r, (r, r + 3), ())
    # Every claim but the span bound re-verifies, the zero pattern among them.
    assert _check(_Derived(c), cert) == ("evidence", "span bound does not exceed the rank")
    cert = certify(c)
    assert parse_certificate(emit_certificate(cert, c)) == (cert, c)


def test_bound_input_validation():
    with pytest.raises(ValueError):
        sperner_ontic_bound(0)
    with pytest.raises(ValueError):
        sperner_span_bound(0)
