"""Gaussian elimination over F_p."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfcalc import fplinalg as la

PRIMES = (2, 3, 5, 7)


@st.composite
def fp_matrix(draw):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return np.array(rows, dtype=np.int64).reshape(m, n), p


def test_as_fp_reduces_into_range():
    m = la.as_fp([[-1, 7], [3, -9]], 5)
    assert m.tolist() == [[4, 2], [3, 1]]
    assert la.as_fp([1, 2, 3], 2).shape == (1, 3)
    with pytest.raises(ValueError):
        la.as_fp(np.zeros((2, 2, 2)), 3)


def test_rank_fixed_cases():
    assert la.rank([[1, 2], [2, 4]], 5) == 1
    assert la.rank([[1, 0], [0, 1]], 2) == 2
    assert la.rank(np.zeros((3, 4), dtype=np.int64), 3) == 0
    assert la.rank(np.zeros((0, 4), dtype=np.int64), 3) == 0


def test_rank_depends_on_the_prime():
    mat = [[2, 0], [0, 1]]
    assert la.rank(mat, 2) == 1
    assert la.rank(mat, 3) == 2
    # rank 2 for p > 3; past 2^31 the int64 products overflow, and at
    # p = 4294967311 the elimination gave 3
    rows = [[1, 3, -3], [0, -2, 2], [3, 0, 0]]
    assert la.rank(rows, 2**31 - 1) == 2
    with pytest.raises(ValueError):
        la.rank(rows, 4294967311)


def test_rref_pivot_columns_are_elementary():
    r, pivots = la.rref([[0, 2, 1], [1, 1, 0]], 3)
    assert pivots == [0, 1]
    for i, c in enumerate(pivots):
        col = r[:, c].tolist()
        assert col == [1 if j == i else 0 for j in range(r.shape[0])]


def test_left_kernel_fixed_case():
    # rows 0 and 1 sum to row 2 over F_2
    mat = [[1, 0], [0, 1], [1, 1]]
    k = la.left_kernel_basis(mat, 2)
    assert k.tolist() == [[1, 1, 1]]


def test_left_kernel_empty_input():
    assert la.left_kernel_basis(np.zeros((0, 3), dtype=np.int64), 5).shape == (0, 0)


def _combinations(mat, p: int):
    """Each coefficient vector v with v @ mat mod p, by enumeration;
    independent of the elimination code."""
    a = np.asarray(mat, dtype=np.int64) % p
    for c in itertools.product(range(p), repeat=a.shape[0]):
        v = np.array(c, dtype=np.int64)
        yield v, (v @ a) % p


def _span_size(mat, p: int) -> int:
    """Number of distinct vectors in the row span."""
    return len({tuple(x) for _, x in _combinations(mat, p)})


@given(fp_matrix())
def test_rank_matches_the_enumerated_row_span(mp):
    mat, p = mp
    size = _span_size(mat, p)
    assert p ** la.rank(mat, p) == size
    assert p ** len(la.rref(mat, p)[1]) == size


@given(fp_matrix(), st.integers(min_value=0, max_value=3), st.data())
def test_kernel_image_matches_the_enumerated_kernel(mp, q, data):
    mat, p = mp
    m = mat.shape[0]
    cells = data.draw(st.lists(st.integers(0, p - 1), min_size=m * q, max_size=m * q))
    right = np.array(cells, dtype=np.int64).reshape(m, q)
    r, rows = la.kernel_image(mat, right, p)
    assert r == la.rank(mat, p)
    image = {tuple((v @ right) % p) for v, x in _combinations(mat, p) if not x.any()}
    assert {tuple(x) for _, x in _combinations(rows, p)} == image


@given(fp_matrix())
def test_rank_plus_nullity_is_row_count(mp):
    mat, p = mp
    assert la.rank(mat, p) + la.left_kernel_basis(mat, p).shape[0] == mat.shape[0]


@given(fp_matrix())
def test_kernel_annihilates(mp):
    mat, p = mp
    k = la.left_kernel_basis(mat, p)
    if k.size:
        assert not np.any((k @ la.as_fp(mat, p)) % p)


@given(fp_matrix())
def test_kernel_rows_are_independent(mp):
    mat, p = mp
    k = la.left_kernel_basis(mat, p)
    assert la.rank(k, p) == k.shape[0]


@given(fp_matrix())
def test_rref_preserves_rank(mp):
    mat, p = mp
    r, pivots = la.rref(mat, p)
    assert len(pivots) == la.rank(mat, p)
    assert la.rank(r, p) == len(pivots)
