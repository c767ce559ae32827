"""Exact linear algebra over the rationals, on sparse rows.

A matrix is a list of rows ``{column: int or Fraction}``: the constraint,
delta and constant matrices handled here are large but very sparse.
``product`` multiplies them; ``invert`` serves the small metric matrices.

One integer kernel sits behind one rational boundary.  The kernel
(``_echelon``, ``_reduced``, ``_kernel``) takes int rows with no zero entry
and no negative column and consumes them, reducing them in place into its
pivot rows; ``spencer``, which builds every row it eliminates, calls it
directly.  The public ``rank``, ``integer_kernel`` and ``rref`` take
rational rows, zeros allowed, and leave them unchanged: ``_integer_rows``
hands the kernel a scaled copy of each and refuses a float (``TypeError``)
or a negative column (``ValueError``).

``_echelon`` takes the rows sparsest first, to keep fill-in down, and
reduces each against a map from pivot column to pivot row: while the row's
least column holds a pivot, the row becomes the integer combination that
clears it (``_clear``, which divides a row it scales back to primitive).  A
row left led by a column below ``ncols`` becomes the pivot there as it is
(few have a common factor); a zero row, or one led by a column at or past
``ncols`` (``invert``'s augmented block), is dropped.  The pass keeps no
column index.  ``_reduced`` back-substitutes once, last pivot first, to
primitive rows (``spencer``'s symbol constraints), ``_kernel`` reads one
primitive vector per free column off them, and only ``rref`` divides, so
its rows are ``Fraction``.

Results do not depend on the order of the rows: the pivot columns are where
the row space first gains a dimension, and a row space has one reduced row
echelon form, so any order gives the same pivots, ``rref`` and kernel bases
(``_reduced`` rows up to sign), run to run.
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
    """Forward elimination, sparsest row first, of integer rows with no zero
    entry, which it consumes: ``[(pivot_col, row)]`` by increasing pivot
    column, each an integer dict, not always primitive, zero left of its pivot."""
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                if col < ncols:
                    pivots[col] = row
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


def _kernel(rows, ncols):
    """``integer_kernel`` of kernel rows, which it consumes."""
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


def _integer_rows(rows):
    """The kernel's copy of each rational row: zeros dropped, scaled by the lcm
    of its denominators.  An entry whose type is not int or Fraction (a float,
    a bool) is refused, and so is a negative column."""
    for row in rows:
        kinds = set(map(type, row.values()))
        if kinds - {int, Fraction}:
            c = next(c for c, v in row.items() if type(v) not in (int, Fraction))
            raise TypeError(f"column {c} holds {row[c]!r}, not an int or Fraction")
        if row and min(row) < 0:
            raise ValueError(f"column {min(row)} is negative")
        row = {c: v for c, v in row.items() if v}
        yield _integral(row)[1] if Fraction in kinds else row


def rref(rows, ncols):
    """Reduced row echelon form ``(reduced, pivot_cols)``: ``reduced[i]`` is a
    sparse row of Fractions with leading coefficient 1 in column
    ``pivot_cols[i]`` and zeros in every other pivot column."""
    echelon = _reduced(_integer_rows(rows), ncols)
    reduced = [{c: Fraction(v, row[col]) for c, v in row.items()}
               for col, row in echelon]
    return reduced, [col for col, _ in echelon]


def rank(rows, ncols):
    return len(_echelon(_integer_rows(rows), ncols))


def integer_kernel(rows, ncols):
    """``(kernel basis, free columns)`` from one elimination, without
    ``Fraction``s: one sparse primitive integer vector ``{column: int}`` per
    free column, positive there and 0 at the other free ones."""
    return _kernel(_integer_rows(rows), ncols)


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
