"""Exact linear algebra over the rationals.

Elimination works on sparse rows (``dict`` column -> ``int`` or ``Fraction``)
because the constraint and delta matrices handled here are large but very
sparse.  Small dense helpers (products, inverses) operate on lists of lists
of Fractions.

All sparse elimination goes through one forward pass, ``_echelon``.  Each
input row is scaled by the lcm of its denominators, so the pass runs on
integers: a row with entry ``f`` in the pivot column becomes
``a*row - f*piv`` (``a`` the pivot entry, both divided by ``gcd(a, f)``),
and every changed row is divided by the gcd of its entries to stay small.
A map from each column to the active rows nonzero there means the pivot
search and the elimination touch only those rows.  Columns are taken left
to right; the pivot is the shortest such row, ties to the lowest index, to
limit fill-in.  ``rank`` and ``free_columns`` stop after this pass.
``rref`` back-substitutes once, from the last pivot to the first, and
divides each row by its pivot entry, so its entries are ``Fraction``.

Determinism does not rest on the pivot rule.  The pivot columns are the
columns where the row space first gains a dimension, and the reduced row
echelon form of a row space is unique, so every pivot order gives the same
``rref`` and the same kernel bases, run to run.
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


def _echelon(rows, ncols):
    """Forward elimination: ``[(pivot_col, row)]`` in increasing pivot column,
    each row a primitive integer dict that is zero left of its pivot."""
    active, rows_at = {}, {}
    for i, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        scale = lcm(*(v.denominator for v in row.values()))
        active[i] = _primitive(
            {c: v.numerator * (scale // v.denominator) for c, v in row.items()})
        for c in row:
            rows_at.setdefault(c, set()).add(i)
    echelon = []
    for col in range(ncols):
        if not active:
            break
        ids = rows_at.pop(col, None)
        if not ids:
            continue
        p = min(ids, key=lambda i: (len(active[i]), i))
        piv = active.pop(p)
        a = piv[col]
        tail = [(c, v) for c, v in piv.items() if c != col]
        for c, _ in tail:
            rows_at[c].discard(p)
        for i in ids:
            if i == p:
                continue
            row = active[i]
            f = row.pop(col)
            g = gcd(a, f)
            ma, mf = a // g, f // g
            if ma != 1:
                for c in row:
                    row[c] *= ma
            for c, v in tail:
                d = mf * v
                old = row.get(c)
                if old is None:
                    row[c] = -d
                    rows_at[c].add(i)
                elif old == d:
                    del row[c]
                    rows_at[c].discard(i)
                else:
                    row[c] = old - d
            if row:
                _primitive(row)
            else:
                del active[i]
        echelon.append((col, piv))
    return echelon


def rref(rows, ncols):
    """Reduced row echelon form of sparse rows.

    Returns ``(reduced, pivot_cols)`` where ``reduced[i]`` is a sparse row of
    Fractions with leading coefficient 1 in column ``pivot_cols[i]`` and zeros
    in every other pivot column.  Input rows are not mutated.
    """
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
    reduced = [{c: Fraction(v, row[col]) for c, v in row.items()}
               for col, row in echelon]
    return reduced, [col for col, _ in echelon]


def rank(rows, ncols):
    return len(_echelon(rows, ncols))


def nullspace(rows, ncols):
    """``(kernel basis, free columns)`` from one elimination.  The basis has
    one dense vector per free column, 1 there and 0 at the other free ones."""
    reduced, pivot_cols = rref(rows, ncols)
    taken = set(pivot_cols)
    free = [c for c in range(ncols) if c not in taken]
    slot = {f: j for j, f in enumerate(free)}
    basis = [[ZERO] * ncols for _ in free]
    for f, vec in zip(free, basis):
        vec[f] = ONE
    for row, c in zip(reduced, pivot_cols):
        for f, coef in row.items():
            if f != c:
                basis[slot[f]][c] = -coef
    return basis, free


def kernel_basis(rows, ncols):
    """Deterministic basis of the right kernel, one dense vector per free column."""
    return nullspace(rows, ncols)[0]


def free_columns(rows, ncols):
    taken = {col for col, _ in _echelon(rows, ncols)}
    return [c for c in range(ncols) if c not in taken]


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


def transpose(a):
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


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
