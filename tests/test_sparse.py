"""Tests for the vector-of-lists SparseMatrix and its iterator API."""

import numpy as np
import pytest

from repro.dmem import SparseMatrix
from repro.dmem.sparse import ELEM_STORE_BYTES, ELEM_WIRE_BYTES, ROW_WIRE_BYTES
from repro.errors import AllocationError


def build(n=6, m=8):
    s = SparseMatrix("s", (n, m))
    s.hold(range(n))
    return s


def test_shape_validation():
    with pytest.raises(AllocationError):
        SparseMatrix("s", (0, 5))
    with pytest.raises(AllocationError):
        SparseMatrix("s", (5, 0))


def test_get_default_zero_and_set():
    s = build()
    assert s.get(0, 3) == 0.0
    s.set(0, 3, 2.5)
    assert s.get(0, 3) == 2.5
    s.set(0, 3, 7.0)  # overwrite in place
    assert s.get(0, 3) == 7.0
    assert s.row_nnz(0) == 1


def test_set_zero_removes_element():
    s = build()
    s.set(1, 2, 4.0)
    s.set(1, 2, 0.0)
    assert s.row_nnz(1) == 0
    assert s.get(1, 2) == 0.0
    # setting an absent element to zero is a no-op
    s.set(1, 5, 0.0)
    assert s.row_nnz(1) == 0


def test_bounds_checking():
    s = build(4, 4)
    with pytest.raises(AllocationError):
        s.get(0, 4)
    with pytest.raises(AllocationError):
        s.set(4, 0, 1.0)
    with pytest.raises(AllocationError):
        s.set_row_items(0, [5], [1.0])
    with pytest.raises(AllocationError):
        s.set_row_items(0, [1, 2], [1.0])  # length mismatch


def test_unheld_row_raises():
    s = SparseMatrix("s", (4, 4))
    s.hold([0])
    with pytest.raises(AllocationError):
        s.get(2, 0)


def test_set_row_items_bulk():
    s = build()
    s.set_row_items(2, [1, 3, 5], [1.0, 3.0, 5.0])
    assert s.row_items(2) == [(1, 1.0), (3, 3.0), (5, 5.0)]
    s.set_row_items(2, [0], [9.0])  # replaces wholesale
    assert s.row_items(2) == [(0, 9.0)]


def test_store_accounting():
    s = build()
    s.set(0, 1, 1.0)
    s.set(0, 2, 2.0)
    assert s.held_nbytes == 2 * ELEM_STORE_BYTES
    s.drop([0])
    assert s.held_nbytes == 0
    assert s.stats.bytes_freed >= 2 * ELEM_STORE_BYTES


def test_pack_unpack_roundtrip():
    src = build()
    src.set_row_items(1, [0, 4], [1.5, 4.5])
    src.set_row_items(3, [2], [-2.0])
    payload, nbytes = src.pack([1, 2, 3])
    assert nbytes == 3 * ROW_WIRE_BYTES + 3 * ELEM_WIRE_BYTES

    dst = SparseMatrix("d", (6, 8))
    dst.unpack([1, 2, 3], payload)
    assert dst.row_items(1) == [(0, 1.5), (4, 4.5)]
    assert dst.row_items(2) == []
    assert dst.row_items(3) == [(2, -2.0)]


def test_unpack_validation():
    s = SparseMatrix("s", (4, 4))
    with pytest.raises(AllocationError):
        s.unpack([0], None)
    payload, _ = build().pack([0, 1])
    with pytest.raises(AllocationError):
        s.unpack([0], payload)  # row_ptr length mismatch


def test_retarget_drops_and_counts_pointer_moves():
    s = build(10, 4)
    for g in range(10):
        s.set(g, 0, float(g))
    s.retarget([2, 3, 4])
    assert s.held_rows() == [2, 3, 4]
    assert s.get(3, 0) == 3.0
    assert s.stats.pointer_moves == 10


def test_iterator_walks_rows_in_order():
    s = build(3, 6)
    s.set_row_items(0, [1, 2], [1.0, 2.0])
    s.set_row_items(2, [5], [5.0])
    it = s.iterator()
    assert it.row == 0
    assert it.has_next()
    assert it.next() == (1, 1.0)
    assert it.next() == (2, 2.0)
    assert not it.has_next()
    assert it.advance_row()
    assert it.row == 1 and not it.has_next()
    assert it.advance_row()
    assert it.next() == (5, 5.0)
    assert not it.advance_row()  # end of matrix
    it.rewind()
    assert it.row == 0 and it.next() == (1, 1.0)


def test_iterator_set_next_updates_value():
    s = build(2, 4)
    s.set_row_items(0, [1], [1.0])
    it = s.iterator()
    it.set_next(9.0)
    assert it.next() == (1, 9.0)
    assert s.get(0, 1) == 9.0
    with pytest.raises(AllocationError):
        it.set_next(1.0)  # exhausted
    with pytest.raises(AllocationError):
        it.next()


def test_iterator_start_row_and_errors():
    s = SparseMatrix("s", (4, 4))
    with pytest.raises(AllocationError):
        s.iterator()  # nothing held
    s.hold([1, 3])
    it = s.iterator(3)
    assert it.row == 3
    with pytest.raises(AllocationError):
        s.iterator(0)  # not held


def test_csr_rows_matches_contents_and_version_tracks_changes():
    s = build(4, 6)
    s.set_row_items(0, [0, 5], [1.0, 2.0])
    s.set_row_items(1, [3], [3.0])
    v0 = s.csr_version
    indptr, cols, vals = s.csr_rows([0, 1, 2])
    assert list(indptr) == [0, 2, 3, 3]
    assert list(cols) == [0, 5, 3]
    assert list(vals) == [1.0, 2.0, 3.0]
    s.set(2, 2, 1.0)
    assert s.csr_version != v0  # snapshot is stale


def test_csr_dot_equivalence():
    """A CSR snapshot must compute the same mat-vec as scipy."""
    import scipy.sparse as sp

    rng = np.random.default_rng(42)
    n = 20
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    s = SparseMatrix("s", (n, n))
    s.hold(range(n))
    for g in range(n):
        cols = np.nonzero(dense[g])[0]
        s.set_row_items(g, cols, dense[g][cols])
    indptr, cols, vals = s.csr_rows(list(range(n)))
    csr = sp.csr_matrix((vals, cols, indptr), shape=(n, n))
    x = rng.random(n)
    assert np.allclose(csr @ x, dense @ x)


def test_row_wire_nbytes():
    s = build(2, 8)
    s.set_row_items(0, [1, 2, 3], [1, 2, 3])
    assert s.row_wire_nbytes(0) == ROW_WIRE_BYTES + 3 * ELEM_WIRE_BYTES
    assert s.row_wire_nbytes(1) == ROW_WIRE_BYTES


# ----------------------------------------------------------------------
# column ids must be integers
# ----------------------------------------------------------------------
def test_set_rejects_non_integral_column():
    s = build()
    with pytest.raises(AllocationError, match="2.5"):
        s.set(0, 2.5, 1.0)
    assert s.row_nnz(0) == 0
    with pytest.raises(AllocationError):
        s.get(0, 2.5)
    with pytest.raises(AllocationError):
        s.set(0, float("nan"), 1.0)
    with pytest.raises(AllocationError):
        s.set(0, "3", 1.0)


def test_set_row_items_rejects_non_integral_column_and_keeps_row():
    s = build()
    s.set_row_items(1, [0, 4], [2.0, 4.0])
    before = s.stats.snapshot()
    with pytest.raises(AllocationError, match="1.7"):
        s.set_row_items(1, [1.7], [3.0])
    with pytest.raises(AllocationError):
        s.set_row_items(1, np.array([1.0, 2.5]), [3.0, 4.0])
    assert s.row_items(1) == [(0, 2.0), (4, 4.0)]
    assert s.stats.snapshot() == before


def test_set_row_items_names_first_bad_column_and_keeps_row():
    s = build(4, 8)
    s.set_row_items(2, [3], [1.0])
    with pytest.raises(AllocationError, match="column 9 "):
        s.set_row_items(2, np.array([1, 9, 12], dtype=np.int64), [1.0, 2.0, 3.0])
    with pytest.raises(AllocationError, match="column -1 "):
        s.set_row_items(2, [2, -1, 8], [1.0, 2.0, 3.0])
    assert s.row_items(2) == [(3, 1.0)]


def test_integral_column_ids_are_normalised_to_int():
    s = build()
    s.set(0, 2.0, 1.5)
    s.set(0, np.int64(5), 2.5)
    assert s.get(0, 2) == 1.5 and s.get(0, np.float64(5.0)) == 2.5
    s.set_row_items(1, np.array([1.0, 3.0]), np.array([1.0, 3.0], dtype=np.float32))
    s.set_row_items(2, np.array([0, 7], dtype=np.int32), [1, 2])
    for g in (0, 1, 2):
        for c, v in s.row_items(g):
            assert type(c) is int and type(v) is float
    assert s.row_items(1) == [(1, 1.0), (3, 3.0)]
    assert s.row_items(2) == [(0, 1.0), (7, 2.0)]


def test_pack_unpack_keeps_normalised_columns():
    src = build()
    src.set(0, 2.0, 1.5)
    src.set(0, np.int64(6), -1.0)
    src.set_row_items(3, np.array([1.0, 4.0]), [4.0, 5.0])
    payload, _ = src.pack([0, 3])
    dst = SparseMatrix("d", (6, 8))
    dst.unpack([0, 3], payload)
    assert dst.row_items(0) == src.row_items(0) == [(2, 1.5), (6, -1.0)]
    assert dst.row_items(3) == src.row_items(3) == [(1, 4.0), (4, 5.0)]
    for m in (src, dst):
        assert all(type(c) is int for c, _ in m.row_items(0) + m.row_items(3))


# ----------------------------------------------------------------------
# row_nnz_array
# ----------------------------------------------------------------------
def test_row_nnz_array_values_and_read_only():
    s = build(6, 8)
    s.set_row_items(1, [0, 2, 4], [1.0, 2.0, 3.0])
    s.set(3, 7, 1.0)
    nnz = s.row_nnz_array(0, 5)
    assert nnz.dtype == np.int64
    assert nnz.tolist() == [0, 3, 0, 1, 0, 0]
    assert not nnz.flags.writeable
    with pytest.raises(ValueError):
        nnz[0] = 5
    assert s.row_nnz_array(2, 1).tolist() == []


def test_row_nnz_array_memo_follows_matrix_version():
    s = build(6, 8)
    s.set(2, 1, 1.0)
    first = s.row_nnz_array(1, 4)
    assert s.row_nnz_array(1, 4) is first  # unchanged matrix: same array
    s.set(2, 3, 1.0)
    assert s.row_nnz_array(1, 4).tolist() == [0, 2, 0, 0]
    s.set(2, 1, 0.0)  # removal
    assert s.row_nnz_array(1, 4).tolist() == [0, 1, 0, 0]
    assert s.row_nnz_array(0, 2).tolist() == [0, 0, 1]  # another range


def test_row_nnz_array_requires_held_rows():
    s = SparseMatrix("s", (6, 4))
    s.hold([0, 1, 3])
    assert s.row_nnz_array(0, 1).tolist() == [0, 0]
    with pytest.raises(AllocationError, match="row 2 is not held"):
        s.row_nnz_array(0, 3)
    with pytest.raises(AllocationError):
        s.row_nnz_array(3, 6)  # past the last row
    s.drop([1])
    with pytest.raises(AllocationError):
        s.row_nnz_array(0, 1)  # memoized range, now partly dropped
