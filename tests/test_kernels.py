"""Unit tests for the application kernels and their sequential
references (repro.apps.kernels / repro.apps.reference)."""

import hashlib

import numpy as np
import pytest

from repro.apps.kernels import (
    _cg_offsets,
    jacobi_row_update,
    make_cg_rows,
    particle_row_flows,
    sor_row_halfsweep,
)
from repro.apps.reference import (
    cg_matrix_dense,
    cg_reference,
    jacobi_reference,
    particle_reference,
    sor_reference,
)


# ----------------------------------------------------------------------
# Jacobi kernel
# ----------------------------------------------------------------------
def test_jacobi_row_interior_average():
    row = np.array([0.0, 4.0, 0.0])
    up = np.array([4.0, 0.0, 4.0])
    down = np.array([4.0, 0.0, 4.0])
    out = jacobi_row_update(row, up, down)
    # middle cell: (4 + 0+0 + 0+0)/5
    assert out[1] == pytest.approx(4.0 / 5)


def test_jacobi_row_boundary_counts_fewer_neighbors():
    row = np.array([2.0, 2.0])
    out = jacobi_row_update(row, None, None)
    # corner cells: (self + 1 horizontal)/2
    assert np.allclose(out, [2.0, 2.0])


def test_jacobi_constant_grid_is_fixed_point():
    grid = np.full((6, 6), 3.14)
    assert np.allclose(jacobi_reference(grid, 10), grid)


def test_jacobi_reference_smooths_peak():
    grid = np.zeros((7, 7))
    grid[3, 3] = 1.0
    out = jacobi_reference(grid, 1)
    assert out[3, 3] == pytest.approx(0.2)
    assert out[3, 4] == pytest.approx(0.2)
    assert out[0, 0] == 0.0


# ----------------------------------------------------------------------
# SOR kernel
# ----------------------------------------------------------------------
def test_sor_halfsweep_touches_only_one_color():
    row = np.arange(6, dtype=float)
    before = row.copy()
    up = np.ones(6)
    down = np.ones(6)
    sor_row_halfsweep(row, up, down, g=0, color=0)
    cols = np.arange(6)
    red = (cols % 2) == 0
    assert not np.allclose(row[red], before[red])
    assert np.array_equal(row[~red], before[~red])


def test_sor_constant_grid_is_fixed_point():
    grid = np.full((6, 6), 1.5)
    assert np.allclose(sor_reference(grid, 5), grid)


def test_sor_converges_toward_harmonic_interior():
    rng = np.random.default_rng(0)
    grid = rng.random((8, 8))
    out = sor_reference(grid, 200)
    # after many sweeps, the field is very smooth
    assert np.ptp(out) < np.ptp(grid) * 0.2


# ----------------------------------------------------------------------
# CG matrix generator
# ----------------------------------------------------------------------
def test_cg_rows_deterministic():
    c1, v1 = make_cg_rows(100, 42)
    c2, v2 = make_cg_rows(100, 42)
    assert np.array_equal(c1, c2) and np.array_equal(v1, v2)


#: sha256 over every row's cols then vals bytes of the Figure 4 CG
#: matrix (n = 14000, nnz_target = 12, seed = 1234), as generated
#: before the offsets were memoized; the memo must never change it
CG_14000_SHA256 = "fadae3e4ab2d99f29a7cddfdace71084fddabaaebe949319eafc08fd607409b9"


def _cg_digest(n, rows):
    h = hashlib.sha256()
    for g in rows:
        cols, vals = make_cg_rows(n, g, nnz_target=12, seed=1234)
        h.update(cols.tobytes())
        h.update(vals.tobytes())
    return h.hexdigest()


def test_cg_rows_golden_matrix():
    _cg_offsets.cache_clear()
    assert _cg_digest(14000, range(14000)) == CG_14000_SHA256


def test_cg_rows_independent_of_build_order():
    n = 600
    _cg_offsets.cache_clear()
    forward = {g: make_cg_rows(n, g) for g in range(n)}
    _cg_offsets.cache_clear()
    for g in [*range(n - 1, -1, -7), *range(n - 1, -1, -1)]:
        cols, vals = make_cg_rows(n, g)
        assert np.array_equal(cols, forward[g][0])
        assert np.array_equal(vals, forward[g][1])


def test_cg_offsets_hand_out_no_mutable_shared_object():
    first = _cg_offsets(42, 5, 1234)
    assert isinstance(first, frozenset)
    again = _cg_offsets(42, 5, 1234)
    assert isinstance(again, frozenset) and again == first
    assert all(1 <= d <= 16 for d in first)


def test_cg_rows_include_diagonal_and_stay_in_range():
    for g in (0, 50, 99):
        cols, vals = make_cg_rows(100, g)
        assert g in cols
        assert cols.min() >= 0 and cols.max() < 100
        diag = vals[list(cols).index(g)]
        assert diag > 0


def test_cg_matrix_spd_enough_for_cg():
    A = cg_matrix_dense(80)
    eigs = np.linalg.eigvalsh((A + A.T) / 2)
    assert eigs.min() > 0  # positive definite


def test_cg_reference_reduces_residual():
    A = cg_matrix_dense(50)
    b = np.ones(50)
    _, resid = cg_reference(A, b, 30)
    assert resid < 1e-8 * np.linalg.norm(b) * 50


def test_cg_reference_zero_matrix_guard():
    A = np.zeros((4, 4))
    x, resid = cg_reference(A, np.ones(4), 5)
    assert np.allclose(x, 0)  # breaks out on zero curvature


# ----------------------------------------------------------------------
# particle kernel
# ----------------------------------------------------------------------
def test_particle_flows_conserve_mass_per_row():
    counts = np.array([10.0, 4.0, 0.0, 7.5])
    stay, up, down = particle_row_flows(counts, g=3, step=5, seed=9)
    assert (stay.sum() + up.sum() + down.sum()) == pytest.approx(counts.sum())
    assert np.all(stay >= 0) and np.all(up >= 0) and np.all(down >= 0)


def test_particle_flows_deterministic_in_row_step_seed():
    counts = np.array([400.0, 250.0])
    a = particle_row_flows(counts, 1, 2, 3)
    b = particle_row_flows(counts, 1, 2, 3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = particle_row_flows(counts, 1, 3, 3)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_particle_reference_conserves_total_mass():
    counts = np.full((10, 6), 2.0)
    out = particle_reference(counts, steps=15)
    assert out.sum() == pytest.approx(counts.sum())
    assert np.all(out >= 0)


def test_particle_empty_grid_stays_empty():
    counts = np.zeros((5, 5))
    out = particle_reference(counts, steps=5)
    assert np.array_equal(out, counts)
