"""Exact sparse linear algebra, checked against dense references."""

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


def sparse_of(a):
    return [{c: v for c, v in enumerate(row) if v} for row in a]


def dense_mul(a, b):
    """Reference product of dense matrices, ``a`` being m x k and ``b`` k x n."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for row in a]


def sparse_transpose(rows, ncols):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[c][i] = v
    return out


def unit_rows(k):
    return [{i: 1} for i in range(k)]


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
        assert len(reference_rref(rows, ncols)[1]) == linalg.rank(rows, ncols)


def test_invert_produces_a_two_sided_inverse():
    rng = random.Random(14)
    found = 0
    while found < 8:
        k = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(k)] for _ in range(k)]
        if len(reference_rref(sparse_of(a), k)[1]) < k:
            continue
        found += 1
        inv = linalg.invert(a)
        assert linalg.product(sparse_of(a), sparse_of(inv)) == unit_rows(k)
        assert linalg.product(sparse_of(inv), sparse_of(a)) == unit_rows(k)


def test_product_associativity_and_transpose():
    rng = random.Random(15)
    for _ in range(25):
        m, k, n, p = (rng.randint(1, 5) for _ in range(4))
        a, b, c = (random_sparse(rng, r, w) for r, w in ((m, k), (k, n), (n, p)))
        ab = linalg.product(a, b)
        assert ab == sparse_of(dense_mul(dense_of(a, k), dense_of(b, n)))
        assert linalg.product(ab, c) == linalg.product(a, linalg.product(b, c))
        assert sparse_transpose(ab, n) == \
            linalg.product(sparse_transpose(b, n), sparse_transpose(a, k))


def test_product_with_a_column_matches_the_dense_reference():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    v = [[Fraction(5)], [Fraction(-1)]]
    assert linalg.product(sparse_of(a), sparse_of(v)) == sparse_of(dense_mul(a, v))
    assert linalg.product(sparse_of(a), sparse_of(v)) == [{0: 3}, {0: 11}]


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


ENTRIES = st.one_of(st.integers(-9, 9),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


@st.composite
def sparse_matrices(draw):
    """Sparse rows up to 10 x 10: int and Fraction entries with denominators
    up to 7, stored zeros, empty rows."""
    ncols = draw(st.integers(0, 10))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else ()
        rows.append({c: draw(ENTRIES) for c in sorted(cols)})
    return rows, ncols


@st.composite
def augmented_matrices(draw):
    """A sparse matrix and a copy whose rows also have entries in up to four
    columns at or past ``ncols``."""
    rows, ncols = draw(sparse_matrices())
    augmented = []
    for row in rows:
        cols = draw(st.sets(st.integers(ncols, ncols + 3), max_size=4))
        augmented.append({**row, **{c: draw(ENTRIES) for c in sorted(cols)}})
    return rows, ncols, augmented


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
    assert linalg.rank(sparse_of(dense_of(rows, ncols)), ncols) == len(ref_pivots)
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


@settings(deadline=None, max_examples=300)
@given(augmented_matrices())
# invert's [A | I] for a singular A
@example(([{0: 1, 1: 2}, {0: 2, 1: 4}], 2, [{0: 1, 1: 2, 2: 1}, {0: 2, 1: 4, 3: 1}]))
@example(([{}, {0: 3}], 1, [{1: 5, 2: 1}, {0: 3, 3: -2}]))
def test_columns_at_or_past_ncols_never_pivot(matrix):
    rows, ncols, augmented = matrix
    ref_rows, ref_pivots = reference_rref(rows, ncols)

    reduced, pivots = linalg.rref(augmented, ncols)
    assert pivots == ref_pivots
    assert [[row.get(c, ZERO) for c in range(ncols)] for row in reduced] == ref_rows
    assert [col for col, _ in linalg._echelon(augmented, ncols)] == ref_pivots
    assert linalg.rank(augmented, ncols) == len(ref_pivots)
    assert linalg.integer_kernel(augmented, ncols) == linalg.integer_kernel(rows, ncols)


@settings(deadline=None, max_examples=300)
@given(sparse_matrices(), st.randoms(use_true_random=False))
@example(([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: Fraction(1, 3), 2: 5}], 3), random.Random(0))
def test_row_order_changes_no_result(matrix, rng):
    rows, ncols = matrix
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert linalg.rref(shuffled, ncols) == linalg.rref(rows, ncols)
    assert linalg.rank(shuffled, ncols) == linalg.rank(rows, ncols)
    assert linalg.integer_kernel(shuffled, ncols) == linalg.integer_kernel(rows, ncols)
    # the back-substituted integer rows agree up to sign
    signed = [[(col, {c: v * (1 if row[col] > 0 else -1) for c, v in row.items()})
               for col, row in linalg._reduced(r, ncols)] for r in (shuffled, rows)]
    assert signed[0] == signed[1]
