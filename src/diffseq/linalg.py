"""Exact linear algebra over the rationals.

Matrices are sparse rows (``dict`` column -> ``int`` or ``Fraction``)
because the constraint, delta and constant matrices handled here are large
but very sparse: ``product`` multiplies them, and the one dense helper,
``invert``, serves the small metric matrices.

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


def _clear(row, piv, col):
    """Clear column ``col`` of the integer ``row`` with ``piv``, in place:
    scale ``row`` by piv[col] / g and subtract row[col] / g times ``piv``,
    g their gcd; a scaled row is divided back to primitive."""
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
            _clear(row, piv, col)
    return sorted(pivots.items())


def _reduced(rows, ncols):
    """``_echelon`` then back-substitution, from the last pivot to the first:
    primitive integer rows, each zero at every other pivot column."""
    echelon = _echelon(rows, ncols)
    pivot_row = dict(echelon)
    for col, row in reversed(echelon):
        for c in [c for c in row if c != col and c in pivot_row]:
            _clear(row, pivot_row[c], c)
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


def product(a, b):
    """Rows of the product of two sparse matrices, ``a[i]`` being
    ``{k: a_ik}`` and ``b[k]`` ``{j: b_kj}``; zero entries are left out."""
    out = []
    for row in a:
        acc = {}
        for k, f in row.items():
            for j, v in b[k].items():
                acc[j] = acc.get(j, 0) + f * v
        out.append({j: v for j, v in acc.items() if v})
    return out


def invert(a):
    """Inverse of a small dense rational matrix; raises on singular input."""
    k = len(a)
    rows = [{c: v for c, v in enumerate(row) if v} | {k + i: ONE}
            for i, row in enumerate(a)]
    reduced, pivot_cols = rref(rows, k)
    if len(pivot_cols) < k:
        raise ZeroDivisionError("singular matrix")
    return [[row.get(k + j, ZERO) for j in range(k)] for row in reduced]
