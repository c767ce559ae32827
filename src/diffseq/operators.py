"""Matrices of constant-coefficient differential operators.

An operator is stored through its full symbol: a matrix of polynomials in
the formal derivative variables, one row per target component and one
column per source component.  Substituting partial derivatives for the
variables recovers the action on sections, which :func:`apply` does for
polynomial sections.

Everything downstream (compatibility conditions, adjoints, generic rank)
works on this symbol matrix with exact rational arithmetic.
"""

from fractions import Fraction
from math import lcm

from . import groebner
from .bundles import BundleBasis, free_basis
from .config import record
from .linalg import _integral
from .poly import Poly


@record
class OperatorMatrix:
    """A differential operator between two labeled bundles."""

    name: str
    n: int
    source: BundleBasis
    target: BundleBasis
    rows: tuple   # rows[i][j]: Poly, i over target, j over source

    def __post_init__(self):
        if len(self.rows) != self.target.dim:
            raise ValueError(
                f"{self.name}: {len(self.rows)} rows for target of dim {self.target.dim}")
        for r in self.rows:
            if len(r) != self.source.dim:
                raise ValueError(
                    f"{self.name}: row width {len(r)} for source of dim {self.source.dim}")

    @property
    def shape(self):
        return (self.target.dim, self.source.dim)

    @property
    def order(self):
        """Largest total degree appearing in the symbol (zero operator: 0)."""
        return max((sum(m) for r in self.rows for _, m in groebner._sparse_of(r)), default=0)

    def is_zero(self):
        return not any(map(groebner._sparse_of, self.rows))

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (self.source.key() == other.source.key()
                and self.target.key() == other.target.key()
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.source.key(), self.target.key(), self.rows))

    def __repr__(self):
        return (f"OperatorMatrix({self.name}: {self.source.label} -> "
                f"{self.target.label}, shape {self.shape}, order {self.order})")


def make_operator(name, n, source, target, rows):
    return OperatorMatrix(
        name=name, n=n, source=source, target=target,
        rows=tuple(tuple(r) for r in rows))


def _product_rows(outer_rows, inner_rows, n, width):
    """Rows of an exact symbol product, one at a time, as ``(den, {(column,
    monomial): int})``, the row being the dict over ``den``.  Rows are sparse
    vectors ``{(column, monomial): coefficient}``; outer columns index
    ``inner_rows``, inner ones run below ``width``.  Inner rows are scaled to
    ints by one lcm and each outer row by its own, so Σ_k s_k·row_k is summed
    in ints, on terms packed (``groebner._Order``) for the top product degree."""
    top = sum(max((sum(m) for row in rows for _, m in row), default=0)
              for rows in (outer_rows, inner_rows))
    order = groebner._Order((0,) * width).layout(n, top)
    pack, unpack = order.pack, order.unpack
    scale = lcm(*(v.denominator for row in inner_rows for v in row.values()))
    inner = [[(pack(t), v.numerator * (scale // v.denominator)) for t, v in row.items()]
             for row in inner_rows]
    one = pack((0, (0,) * n))
    for row in outer_rows:
        den, coefs = _integral(row)
        acc = {}
        for (k, m), s in coefs.items():
            q = pack((0, m)) - one
            for t, v in inner[k]:
                t += q
                acc[t] = acc.get(t, 0) + s * v
        yield den * scale, {unpack(t): v for t, v in acc.items() if v}


def compose(outer, inner):
    """Operator composition (apply ``inner`` first); symbols multiply.

    The product is summed on ints by :func:`_product_rows` from the rows'
    sparse vectors; rows with no surviving term share one empty ``_Row``,
    so the zero test ``compose(outer, inner).is_zero()`` reads no zero cell."""
    if outer.source.key() != inner.target.key():
        raise ValueError(
            f"cannot compose {outer.name} o {inner.name}: "
            f"{outer.source.label} != {inner.target.label}")
    width = inner.source.dim
    zero_row = groebner._to_polys({}, width, outer.n)
    rows = tuple(
        groebner._to_polys({t: Fraction(v, den) for t, v in acc.items()},
                           width, outer.n) if acc else zero_row
        for den, acc in _product_rows([groebner._sparse_of(r) for r in outer.rows],
                                      [groebner._sparse_of(r) for r in inner.rows],
                                      outer.n, width))
    return OperatorMatrix(
        name=f"{outer.name} o {inner.name}", n=outer.n,
        source=inner.source, target=outer.target, rows=rows)


def adjoint(op):
    """Formal adjoint: transpose the symbol and negate the variables.

    Sources and targets swap and pick up the dual relabeling, so applying
    the adjoint twice returns an operator equal to the original.
    """
    n = op.n
    rows = tuple(
        tuple(op.rows[i][j].negate_vars() for i in range(op.target.dim))
        for j in range(op.source.dim))
    if op.name.startswith("ad(") and op.name.endswith(")"):
        name = op.name[3:-1]
    else:
        name = f"ad({op.name})"
    return OperatorMatrix(
        name=name, n=n, source=op.target.dual(), target=op.source.dual(),
        rows=rows)


def rows_presentation(op):
    """The rows of the symbol as a graded submodule of R^(source dim)."""
    return groebner.GradedPresentation(
        n=op.n,
        ambient_rank=op.source.dim,
        generators=op.rows,
    )


def compatibility_conditions(op, cap=None):
    """Minimal generating operator for the relations among the rows of ``op``.

    Any operator annihilating the image of ``op`` factors through the
    returned one; composing it with ``op`` gives the exact zero matrix.
    """
    syz = groebner.syzygies(rows_presentation(op), cap=cap)
    gens = groebner.minimal_graded_generators(syz, cap=cap)
    k = len(gens.generators)
    target = free_basis(f"CC({op.target.label})", op.n,
                        [f"q{i}" for i in range(1, k + 1)])
    return OperatorMatrix(
        name=f"cc({op.name})", n=op.n, source=op.target, target=target,
        rows=gens.generators)


def differential_rank(op):
    """Rank of the symbol over the rational function field."""
    return groebner.generic_rank(op.rows)


def apply(op, sections):
    """Apply the operator to polynomial sections of its source bundle.

    ``sections`` lists one polynomial (in the base coordinates) per source
    component; each symbol monomial acts as the matching mixed partial.
    """
    if len(sections) != op.source.dim:
        raise ValueError("one section component per source basis element")
    out = []
    for row in op.rows:
        acc = Poly.zero(op.n)
        for p, s in zip(row, sections):
            if p.is_zero() or s.is_zero():
                continue
            for mono, coef in p.terms.items():
                d = s.apply_derivation(mono)
                if not d.is_zero():
                    acc = acc + d.scale(coef)
        out.append(acc)
    return out


def from_scalar_matrix(name, n, source, target, matrix):
    """Order-zero operator from a rational matrix (target dim x source dim)."""
    rows = tuple(
        tuple(Poly.constant(n, c) for c in row) for row in matrix)
    return OperatorMatrix(name=name, n=n, source=source, target=target, rows=rows)
