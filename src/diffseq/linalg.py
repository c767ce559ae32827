"""Exact linear algebra over the rationals.

Elimination works on sparse rows (``dict`` column -> ``int`` or ``Fraction``)
because the constraint and delta matrices handled here are large but very
sparse.  Small dense helpers (products, inverses) operate on lists of
lists of Fractions.

All sparse elimination goes through one forward pass, ``_echelon``, which
reduces each input row as it arrives against a map from pivot column to
primitive integer row.  A row that is not all ``int`` is first scaled by
the lcm of its denominators.  While the row's leading column (its least
column) holds a pivot ``piv`` with entry ``a`` there, a row with entry
``f`` becomes ``a*row - f*piv`` (both divided by ``gcd(a, f)``, and the row
by the gcd of its entries when it was scaled).  A row left with a leading
column below ``ncols`` becomes the primitive pivot there; every other row,
zero or led by a column at or past ``ncols`` (the augmented block of
``invert``), is dropped.  Most rows of the delta matrices reduce to zero,
so this pass keeps no column index and searches no pivot.  ``rank`` stops
after it.  ``_reduced`` back-substitutes once, from the last pivot to the
first, to primitive integer rows, which ``spencer`` keeps as its symbol
constraints; ``integer_kernel`` reads one primitive integer vector per free
column off them.  Only ``rref`` (for ``invert``) divides by the pivot
entries, so its rows are ``Fraction``.

Determinism rests on the uniqueness of the reduced row echelon form, not on
the order of the rows.  The forward rows depend on that order, but the
pivot columns are the columns where the row space first gains a dimension,
and a row space has one reduced row echelon form.  So any order of the
same rows gives the same pivots, the same ``rref`` and the same kernel
bases (``_reduced`` rows up to sign), run to run.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def _primitive(row):
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g != 1:
        for c in row:
            row[c] //= g
    return row


def _integral(row):
    """``(lcm of the denominators, the row times it with int entries)``."""
    scale = lcm(*(v.denominator for v in row.values()))
    return scale, {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


def _echelon(rows, ncols):
    """Forward elimination: ``[(pivot_col, row)]`` in increasing pivot column,
    each row a primitive integer dict that is zero left of its pivot."""
    pivots = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        if not all(type(v) is int for v in row.values()):
            row = _integral(row)[1]
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                if col < ncols:
                    pivots[col] = _primitive(row)
                break
            a, f = piv[col], row[col]
            g = gcd(a, f)
            ma, mf = a // g, f // g
            if ma != 1:
                for c in row:
                    row[c] *= ma
            for c, v in piv.items():
                nv = row.get(c, 0) - mf * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            if ma != 1:
                _primitive(row)
    return sorted(pivots.items())


def _reduced(rows, ncols):
    """``_echelon`` then back-substitution, from the last pivot to the first:
    primitive integer rows, each zero at every other pivot column."""
    echelon = _echelon(rows, ncols)
    pivot_row = dict(echelon)
    for col, row in reversed(echelon):
        for c in [c for c in row if c != col and c in pivot_row]:
            other = pivot_row[c]
            g = gcd(other[c], row[c])
            mo, mf = other[c] // g, row[c] // g
            if mo != 1:
                for x in row:
                    row[x] *= mo
            for x, v in other.items():
                nv = row.get(x, 0) - mf * v
                if nv:
                    row[x] = nv
                else:
                    del row[x]
        _primitive(row)
    return echelon


def rref(rows, ncols):
    """Reduced row echelon form of sparse rows.

    Returns ``(reduced, pivot_cols)`` where ``reduced[i]`` is a sparse row of
    Fractions with leading coefficient 1 in column ``pivot_cols[i]`` and zeros
    in every other pivot column.  Input rows are not mutated.
    """
    echelon = _reduced(rows, ncols)
    reduced = [{c: Fraction(v, row[col]) for c, v in row.items()}
               for col, row in echelon]
    return reduced, [col for col, _ in echelon]


def rank(rows, ncols):
    return len(_echelon(rows, ncols))


def integer_kernel(rows, ncols):
    """``(kernel basis, free columns)`` from one elimination, without
    ``Fraction``s: one sparse primitive integer vector ``{column: int}`` per
    free column, positive there and 0 at the other free ones."""
    echelon = _reduced(rows, ncols)
    at = {}   # column -> (pivot column, pivot entry, entry) of the rows there
    for col, row in echelon:
        for c, v in row.items():
            if c != col:
                at.setdefault(c, []).append((col, row[col], v))
    taken = {col for col, _ in echelon}
    free = [c for c in range(ncols) if c not in taken]
    basis = []
    for f in free:
        entries = at.get(f, ())
        scale = lcm(*(a for _, a, _ in entries))
        vec = {f: scale}
        for col, a, v in entries:
            vec[col] = -v * (scale // a)
        basis.append(_primitive(vec))
    return basis, free


def mat_mul(a, b):
    if not a:
        return []
    nk = len(b)
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for k in range(nk):
            f = row[k]
            if f:
                brow = b[k]
                for j in range(ncols):
                    if brow[j]:
                        acc[j] += f * brow[j]
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum((row[k] * v[k] for k in range(len(v)) if v[k]), ZERO) for row in a]


def identity(k):
    return [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]


def is_zero_matrix(a):
    return all(all(v == 0 for v in row) for row in a)


def invert(a):
    """Inverse of a small dense rational matrix; raises on singular input."""
    k = len(a)
    rows = [{c: v for c, v in enumerate(list(row) + unit) if v}
            for row, unit in zip(a, identity(k))]
    reduced, pivot_cols = rref(rows, k)
    if len(pivot_cols) < k:
        raise ZeroDivisionError("singular matrix")
    return [[row.get(k + j, ZERO) for j in range(k)] for row in reduced]


def dense_rank(a):
    rows = [{j: v for j, v in enumerate(row) if v} for row in a]
    ncols = len(a[0]) if a else 0
    return rank(rows, ncols)
