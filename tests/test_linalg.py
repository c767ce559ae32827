"""Sparse and dense exact linear algebra."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from diffseq import linalg

ZERO = Fraction(0)


def random_sparse(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5))
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def dense_of(rows, ncols):
    return [[row.get(c, ZERO) for c in range(ncols)] for row in rows]


def transpose(a):
    return [list(col) for col in zip(*a)]


def test_rank_of_identity_blocks():
    rows = [{i: Fraction(1)} for i in range(5)]
    assert linalg.rank(rows, 5) == 5
    assert linalg.integer_kernel(rows, 5) == ([], [])


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(11)
    for trial in range(25):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        rows = random_sparse(rng, nrows, ncols)
        rk = linalg.rank(rows, ncols)
        kernel = linalg.integer_kernel(rows, ncols)[0]
        assert rk + len(kernel) == ncols
        for vec in kernel:
            for row in rows:
                s = sum(row.get(c, ZERO) * v for c, v in vec.items())
                assert s == 0


def test_free_columns_complement_pivots():
    rng = random.Random(12)
    rows = random_sparse(rng, 4, 6)
    rk = linalg.rank(rows, 6)
    free = linalg.integer_kernel(rows, 6)[1]
    assert len(free) == 6 - rk
    assert free == sorted(free)


def test_rref_reduces_pivot_columns_fully():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 2: Fraction(3)}]
    reduced, pivots = linalg.rref(rows, 3)
    for i, prow in enumerate(reduced):
        assert prow[pivots[i]] == 1
        for j, other in enumerate(reduced):
            if i != j:
                assert pivots[i] not in other


def test_dense_rank_matches_sparse_rank():
    rng = random.Random(13)
    for trial in range(25):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = random_sparse(rng, nrows, ncols)
        assert linalg.dense_rank(dense_of(rows, ncols)) == linalg.rank(rows, ncols)


def test_invert_produces_a_two_sided_inverse():
    rng = random.Random(14)
    found = 0
    while found < 8:
        k = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(k)] for _ in range(k)]
        if linalg.dense_rank([row[:] for row in a]) < k:
            continue
        found += 1
        inv = linalg.invert(a)
        assert linalg.mat_mul(a, inv) == linalg.identity(k)
        assert linalg.mat_mul(inv, a) == linalg.identity(k)


def test_mat_mul_associativity_and_transpose():
    rng = random.Random(15)
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2)]
    b = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
    c = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(4)]
    assert linalg.mat_mul(linalg.mat_mul(a, b), c) == \
        linalg.mat_mul(a, linalg.mat_mul(b, c))
    assert transpose(linalg.mat_mul(a, b)) == \
        linalg.mat_mul(transpose(b), transpose(a))


def test_mat_vec_matches_mat_mul():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    v = [Fraction(5), Fraction(-1)]
    col = linalg.mat_mul(a, [[v[0]], [v[1]]])
    assert linalg.mat_vec(a, v) == [col[0][0], col[1][0]]


def test_invert_rejects_a_singular_matrix():
    with pytest.raises(ZeroDivisionError):
        linalg.invert([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def reference_rref(rows, ncols):
    """Dense Gauss-Jordan over Fraction: (reduced nonzero rows, pivot columns)."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][col]
        mat[r] = [v / lead for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat[:len(pivots)], pivots


def reference_kernel_vector(ref_rows, ref_pivots, f, ncols):
    """The kernel vector that is 1 at free column ``f`` and 0 at the others."""
    vec = [Fraction(int(c == f)) for c in range(ncols)]
    for ref_row, c in zip(ref_rows, ref_pivots):
        vec[c] = -ref_row[f]
    return vec


@st.composite
def sparse_matrices(draw):
    """Sparse rows up to 10 x 10: int and Fraction entries with denominators
    up to 7, stored zeros, empty rows."""
    ncols = draw(st.integers(0, 10))
    entry = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else ()
        rows.append({c: draw(entry) for c in sorted(cols)})
    return rows, ncols


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
@example(([], 0))
@example(([{}, {}], 3))
@example(([{0: 0, 2: Fraction(0)}, {}], 3))
@example(([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: Fraction(1, 3), 2: 5}], 3))
def test_sparse_elimination_matches_dense_gauss_jordan(matrix):
    rows, ncols = matrix
    before = [dict(r) for r in rows]
    ref_rows, ref_pivots = reference_rref(rows, ncols)
    ref_free = [c for c in range(ncols) if c not in ref_pivots]

    reduced, pivots = linalg.rref(rows, ncols)
    assert pivots == ref_pivots
    assert [[row.get(c, ZERO) for c in range(ncols)] for row in reduced] == ref_rows
    assert all(type(v) is Fraction and v for row in reduced for v in row.values())

    assert linalg.rank(rows, ncols) == len(ref_pivots)
    kernel, free = linalg.integer_kernel(rows, ncols)
    assert free == ref_free
    assert len(kernel) == len(ref_free)
    # each kernel vector divided by its free entry is the dense reference one
    for f, vec in zip(ref_free, kernel):
        assert [Fraction(vec.get(c, 0), vec[f]) for c in range(ncols)] == \
            reference_kernel_vector(ref_rows, ref_pivots, f, ncols)
    if ncols:
        assert linalg.dense_rank(dense_of(rows, ncols)) == len(ref_pivots)
    assert rows == before


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
@example(([], 0))
@example(([{}, {}], 3))
@example(([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: Fraction(1, 3), 2: 5}], 3))
@example(([{0: 6, 1: 4, 2: 10}, {1: Fraction(3, 7), 3: 9}], 4))
def test_integer_kernel_is_a_primitive_integer_basis_of_the_kernel(matrix):
    rows, ncols = matrix
    before = [dict(r) for r in rows]
    ref_rows, ref_pivots = reference_rref(rows, ncols)
    ref_free = [c for c in range(ncols) if c not in ref_pivots]

    vectors, free = linalg.integer_kernel(rows, ncols)
    assert free == ref_free
    assert len(vectors) == ncols - len(ref_pivots)
    for f, vec in zip(free, vectors):
        assert all(type(v) is int and v for v in vec.values())
        assert gcd(*vec.values()) == 1 and vec[f] > 0
        assert not set(vec) & (set(free) - {f})
        for row in rows:
            assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0
    # the same space as the dense reference kernel: together they gain no rank
    dense = [{c: v for c, v in enumerate(vec) if v}
             for vec in (reference_kernel_vector(ref_rows, ref_pivots, f, ncols)
                         for f in ref_free)]
    assert len(reference_rref(vectors + dense, ncols)[1]) == len(vectors)
    assert rows == before
