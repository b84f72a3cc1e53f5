import hashlib
import os
import random
from collections import Counter
from itertools import combinations
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from copekit import (
    ModelKind,
    NmfOptions,
    boxworld,
    cardinal_directions,
    classify_model,
    cope_matrix,
    discrete_qubit,
    emit_cope,
    emit_model,
    enmf,
    generic_directions,
    nmf,
    rank,
    spekkens,
)
from copekit import rational_linalg as rla
from copekit.enmf_decision import _model_from_simplex
from copekit.models import _verified_model
from copekit.nmf import _nested_triangle, _simplex_pairs, equirank_simplex_model
from copekit.polytope import _Derived

from oracles import random_cope, reference_model_from_simplex, reference_mu_anls

H = Fraction(1, 2)


def _opts(k, restarts=6, iterations=300, seed=0):
    return NmfOptions(inner_dim=k, max_restarts=restarts, max_iterations=iterations, seed=seed)


def test_spekkens_nmf_at_rank_found(spekkens_matrix):
    model = nmf(spekkens_matrix, _opts(4))
    assert model is not None
    report = classify_model(spekkens_matrix, model)
    assert ModelKind.ONTOLOGICAL in report.inferred_kinds
    assert report.equirank_ok  # inner dim == rank forces equirank


def test_spekkens_nmf_below_rank_absent(spekkens_matrix):
    assert nmf(spekkens_matrix, _opts(3)) is None


def test_trivial_inner_dim_always_found():
    rng = random.Random(4)
    for _ in range(10):
        c = random_cope(rng, max_cols=4)
        model = nmf(c, _opts(c.n_preparations, restarts=1, iterations=10))
        assert model is not None
        report = classify_model(c, model)
        assert ModelKind.ONTOLOGICAL in report.inferred_kinds


def test_padded_trivial_above_preparation_count(boxworld_matrix):
    model = nmf(boxworld_matrix, _opts(6, restarts=1, iterations=10))
    assert model is not None
    assert model.inner_dim == 6
    report = classify_model(boxworld_matrix, model)
    assert ModelKind.ONTOLOGICAL in report.inferred_kinds


def test_boxworld_nmf_at_rank_absent(boxworld_matrix):
    assert nmf(boxworld_matrix, _opts(3)) is None


def test_nmf_outputs_satisfy_postconditions():
    rng = random.Random(8)
    produced = 0
    for _ in range(30):
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=4, max_den=2)
        model = nmf(c, _opts(rank(c), restarts=3, iterations=150))
        if model is None:
            continue
        produced += 1
        report = classify_model(c, model)
        assert report.reconstruction_ok
        assert report.unit_ok and report.unit_all_ones
        assert report.nonnegative_ok
        assert report.states_column_stochastic_ok
    assert produced >= 15


def test_enmf_spekkens(spekkens_matrix):
    model = enmf(spekkens_matrix, _opts(1))
    assert model is not None
    assert model.kind == ModelKind.NONCONTEXTUAL_ONTOLOGICAL
    report = classify_model(spekkens_matrix, model)
    assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds
    assert report.rank_effects == report.rank_states == 4


def test_enmf_identity():
    ident = cope_matrix([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    model = enmf(ident, _opts(1))
    assert model is not None
    assert model.inner_dim == 3


def test_enmf_boxworld_absent(boxworld_matrix):
    assert enmf(boxworld_matrix, _opts(1)) is None


def test_enmf_bound_clamps_to_rank(spekkens_matrix):
    # The scan always includes k = rank, so a bound below it still finds
    # the rank-4 model.
    model = enmf(spekkens_matrix, _opts(1), max_k=3)
    assert model is not None and model.inner_dim == 4


def test_enmf_classifies_whenever_present():
    rng = random.Random(12)
    for _ in range(20):
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=4, max_den=2)
        model = enmf(c, _opts(1, restarts=2, iterations=100))
        if model is not None:
            report = classify_model(c, model)
            assert ModelKind.NONCONTEXTUAL_ONTOLOGICAL in report.inferred_kinds


def test_equirank_simplex_model_routes(spekkens_matrix, boxworld_matrix):
    model = equirank_simplex_model(spekkens_matrix)
    assert model is not None and model.inner_dim == 4
    assert equirank_simplex_model(boxworld_matrix) is None


def test_search_candidates_deterministic(spekkens_matrix):
    a = nmf(spekkens_matrix, _opts(4, seed=0))
    b = nmf(spekkens_matrix, _opts(4, seed=0))
    assert a is not None and b is not None
    assert a.effects == b.effects and a.states == b.states


def test_batched_restarts_match_reference():
    # Every (width, seed) slice of a batch equals the same restart run on
    # its own, bit for bit: at k = rank alone, and zero-padded in one call
    # for k = rank .. rank + 3 and for k = rank + 1 .. rank + 3, whether it
    # leaves the stack early or runs all iterations.
    import numpy as np

    from copekit.nmf import _restarts

    rng = random.Random(1)
    cases = []
    for _ in range(6):
        c = random_cope(rng, max_blocks=2, max_outcomes=2, max_cols=4, max_den=2)
        cases.append((c.as_array(), rank(c)))
    cases.append((discrete_qubit(cardinal_directions()).as_array(), 4))
    # 100 times a measurement whose second outcome is certain: at widths
    # 2-4 most restarts reach 1e-13 and leave a zero-padded stack early.
    cases.append((np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]]), 1))
    seeds = list(range(6))
    ran = Counter()
    for arr, r in cases:
        alone = {(k, seed): reference_mu_anls(arr, k, seed, 400) for k in range(r, r + 4) for seed in seeds}
        for widths in ([r], list(range(r, r + 4)), list(range(r + 1, r + 4))):
            batch = _restarts(arr, widths, seeds, 400)
            assert len(batch) == len(widths)
            padded = min(*arr.shape, *widths) > 1 and len(widths) > 1
            for k, results in zip(widths, batch):
                assert len(results) == len(seeds)
                for seed, got in zip(seeds, results):
                    residual, w, h, iterations = alone[k, seed]
                    assert got[0] == residual
                    assert np.array_equal(got[1], w) and np.array_equal(got[2], h)
                    ran[padded, iterations == 400] += 1
    assert len(ran) == 4 and ran[True, False] >= 10


def test_import_does_not_load_scipy_optimize():
    import copekit

    src = Path(copekit.__file__).resolve().parents[1]
    probe = "import sys, copekit, copekit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_exact_certify_does_not_load_numpy(tmp_path, rational_qubit_2):
    # Rational documents are decided in Fraction arithmetic, also when the
    # decided model sits above rank (the 2-pair rational qubit); numpy loads
    # only for float work, such as the restarts on a float qubit.
    import copekit

    theories = [spekkens(), boxworld(), rational_qubit_2, discrete_qubit(generic_directions(5))]
    paths = [tmp_path / f"{i}.json" for i in range(len(theories))]
    for path, theory in zip(paths, theories):
        path.write_bytes(emit_cope(theory))
    probe = (
        "import os, sys, copekit, copekit.cli\n"
        "def run(path):\n"
        "    return copekit.cli.run_cli(['certify', path, '--output', os.devnull])\n"
        "print(run(sys.argv[1]), run(sys.argv[2]), run(sys.argv[3]),\n"
        "      'numpy' in sys.modules, 'scipy.optimize' in sys.modules)\n"
        "print(run(sys.argv[4]), 'numpy' in sys.modules)\n"
    )
    src = Path(copekit.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", probe, *map(str, paths)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split("\n")[:2] == ["0 10 0 False False", "10 True"]


def test_exact_lift_repairs_noisy_factor(spekkens_matrix):
    # One factor carries noise beyond snapping resolution; holding the
    # clean factor fixed and re-solving the other exactly must recover a
    # verified model.
    import numpy as np

    from copekit.nmf import _exact_from_floats

    r_clean = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
            [1, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
        ],
        dtype=float,
    )
    p_clean = np.array(
        [
            [0.5, 0, 0, 0.5, 0.5, 0],
            [0, 0.5, 0, 0.5, 0, 0.5],
            [0, 0.5, 0.5, 0, 0.5, 0],
            [0.5, 0, 0.5, 0, 0, 0.5],
        ],
        dtype=float,
    )
    rng = np.random.default_rng(0)
    noisy_r = np.clip(r_clean + rng.uniform(-1e-3, 1e-3, r_clean.shape), 0, None)
    model = _exact_from_floats(spekkens_matrix, noisy_r, p_clean, _opts(4))
    assert model is not None
    report = classify_model(spekkens_matrix, model)
    assert ModelKind.ONTOLOGICAL in report.inferred_kinds


def test_float_boxworld_at_rank_absent():
    from copekit.backend import floating

    b = cope_matrix(
        [
            [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]],
            [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
        ],
        backend=floating(),
    )
    assert nmf(b, _opts(3)) is None


def test_float_backend_trivial_found():
    from copekit.backend import floating

    c = cope_matrix([[[0.3, 0.7], [0.7, 0.3]]], backend=floating())
    model = nmf(c, _opts(2, restarts=1, iterations=10))
    assert model is not None
    report = classify_model(c, model)
    assert ModelKind.ONTOLOGICAL in report.inferred_kinds


def test_options_validation():
    with pytest.raises(ValueError):
        NmfOptions(inner_dim=0)
    with pytest.raises(ValueError):
        NmfOptions(inner_dim=2, max_restarts=0)
    for iterations in (0, -3):
        with pytest.raises(ValueError, match="max_iterations"):
            NmfOptions(inner_dim=2, max_iterations=iterations)
    for snap_tol in (0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="snap_tol"):
            NmfOptions(inner_dim=2, snap_tol=snap_tol)


def test_model_from_simplex_is_identical_to_the_fraction_reference(exact_pool_matrices):
    # Every rank-sized subset of Q's vertices, singular ones included, on
    # the exact benchmark pools and seeded random draws.
    rng = random.Random(2718)
    matrices = exact_pool_matrices + [random_cope(rng) for _ in range(60)]
    outcomes = Counter()
    for c in matrices:
        d = _Derived(c)
        for subset in combinations(d.polytope.vertices, d.rank):
            points = list(subset)
            got = _model_from_simplex(d, points, d.at_rows(points))
            assert got == reference_model_from_simplex(d, points)
            if got is not None:
                assert all(type(x) is Fraction for row in got[1] for x in row)
            outcomes[rla.rank(points) < d.rank, got is None] += 1
    assert outcomes[True, True] and outcomes[False, True] and outcomes[False, False]
    assert not outcomes[True, False]


# sha256 of emit_model(equirank_simplex_model(c)) for draw 643 of
# random_cope(random.Random(2026)), recorded while planar.py still computed
# on Fractions: the first draw whose only verifying simplex candidate is the
# rank-3 nested triangle.
NESTED_TRIANGLE_MODEL_DIGEST = "08df095997dca1785f2334d77b668dbac6dd7befc7e627f00dd1214b3f6d20a4"


def test_nested_triangle_route_model_is_pinned():
    rng = random.Random(2026)
    for _ in range(644):
        c = random_cope(rng)
    d = _Derived(c)
    pairs = list(_simplex_pairs(d))
    kind = ModelKind.NONCONTEXTUAL_ONTOLOGICAL
    verified = [pair is not None and _verified_model(d, *pair, kind) is not None for pair in pairs]
    # The planar candidate comes last, and it alone verifies.
    assert d.rank == 3 and _nested_triangle(d)[1] is not None
    assert verified == [False] * (len(pairs) - 1) + [True]
    model = equirank_simplex_model(c)
    assert hashlib.sha256(emit_model(model)).hexdigest() == NESTED_TRIANGLE_MODEL_DIGEST
