"""Matrices of constant-coefficient differential operators.

An operator is stored through its full symbol: a matrix of polynomials in
the formal derivative variables, one row per target component and one
column per source component.  Substituting partial derivatives for the
variables recovers the action on sections, which :func:`apply` does for
polynomial sections.

Each row is stored as one integer vector ``(den, {(column, monomial): int})``
in lowest terms (``groebner``), which everything here makes and reads.
``Poly`` cells (``rows``) are a view, made once, when a caller first reads
them; :func:`make_operator` converts cells to vectors and keeps no cells.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm

from . import groebner
from .bundles import BundleBasis, dual_label, free_basis
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
    vectors: tuple   # vectors[i]: (den, {(j, monomial): int}), i over target, j over source

    def __post_init__(self):
        if len(self.vectors) != self.target.dim:
            raise ValueError(
                f"{self.name}: {len(self.vectors)} rows for target of dim {self.target.dim}")

    @cached_property
    def rows(self):
        """``rows[i][j]``: a ``Poly``, i over target, j over source."""
        return tuple(groebner._cells(self.n, self.source.dim, v) for v in self.vectors)

    @property
    def shape(self):
        return (self.target.dim, self.source.dim)

    @property
    def order(self):
        """Largest total degree appearing in the symbol (zero operator: 0)."""
        return max((sum(m) for _, vec in self.vectors for _, m in vec), default=0)

    def is_zero(self):
        return not any(vec for _, vec in self.vectors)

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (self.source.key() == other.source.key()
                and self.target.key() == other.target.key()
                and self.vectors == other.vectors)

    def __hash__(self):
        return hash((self.source.key(), self.target.key(),
                     tuple((den, frozenset(vec.items())) for den, vec in self.vectors)))

    def __repr__(self):
        return (f"OperatorMatrix({self.name}: {self.source.label} -> "
                f"{self.target.label}, shape {self.shape}, order {self.order})")


def make_operator(name, n, source, target, rows):
    """The operator with ``Poly`` entries ``rows[i][j]``."""
    rows = tuple(map(tuple, rows))
    for r in rows:
        if len(r) != source.dim:
            raise ValueError(f"{name}: row width {len(r)} for source of dim {source.dim}")
    return OperatorMatrix(name=name, n=n, source=source, target=target,
                          vectors=tuple(map(groebner._row_vector, rows)))


def _constant_row(n, coefs):
    """The integer vector of an order-zero row given as ``{column: rational}``."""
    one = (0,) * n
    return _integral({(j, one): c for j, c in coefs.items() if c})


def _product_rows(outer_rows, inner_rows, n, width):
    """The integer vectors of an exact symbol product.  Outer columns index
    ``inner_rows``, inner ones run below ``width``.  Inner rows are brought
    to one denominator, so Σ_k s_k·row_k is summed in ints, on terms packed
    (``groebner._Order``) for the top product degree, where a monomial's
    packed part is the shift that multiplies a term by it.  Rows with no
    surviving term share one empty vector."""
    top = sum(max((sum(m) for _, row in rows for _, m in row), default=0)
              for rows in (outer_rows, inner_rows))
    order = groebner._Order(n, (0,) * width, top)
    pack, mono = order.pack, order.mono
    scale = lcm(*(den for den, _ in inner_rows))
    inner = [[(pack(t), v * (scale // den)) for t, v in row.items()]
             for den, row in inner_rows]
    zero_row = (1, {})
    for den, coefs in outer_rows:
        acc = {}
        for (k, m), s in coefs.items():
            q = mono[m]
            for t, v in inner[k]:
                t += q
                acc[t] = acc.get(t, 0) + s * v
        acc = {t: v for t, v in acc.items() if v}
        yield groebner._unpacked(den * scale, acc, order) if acc else zero_row


def compose(outer, inner):
    """Operator composition (apply ``inner`` first); symbols multiply.

    The product is summed on ints by :func:`_product_rows` from the rows'
    integer vectors; the zero test ``compose(outer, inner).is_zero()`` reads
    one empty vector per row."""
    if outer.source.key() != inner.target.key():
        raise ValueError(
            f"cannot compose {outer.name} o {inner.name}: "
            f"{outer.source.label} != {inner.target.label}")
    return OperatorMatrix(
        name=f"{outer.name} o {inner.name}", n=outer.n,
        source=inner.source, target=outer.target,
        vectors=tuple(_product_rows(outer.vectors, inner.vectors,
                                    outer.n, inner.source.dim)))


def _transpose(vectors, width):
    """The transpose of the rows ``vectors`` over ``width`` columns, read off
    their nonzero terms, with ``p(chi) -> p(-chi)`` as well."""
    scale = lcm(*(den for den, _ in vectors))
    cols = [{} for _ in range(width)]
    for i, (den, vec) in enumerate(vectors):
        f = scale // den
        for (j, m), v in vec.items():
            cols[j][i, m] = -f * v if sum(m) & 1 else f * v
    return tuple(groebner._lowest_terms(scale, col) for col in cols)


def adjoint(op):
    """Formal adjoint: transpose the symbol and negate the variables.

    Sources and targets swap and pick up the dual relabeling, so applying
    the adjoint twice returns an operator equal to the original.
    """
    return OperatorMatrix(
        name=dual_label(op.name), n=op.n, source=op.target.dual(),
        target=op.source.dual(),
        vectors=_transpose(op.vectors, op.source.dim))


def rows_presentation(op):
    """The rows of the symbol as a graded submodule of R^(source dim).  Its
    columns weigh 0 unless a row then mixes degrees; then a row of degree d
    with a term x^m in column c ties w_c = d - |m|, and the least weight is
    0.  If no weighting works, the first error stands."""
    return _presentation(op.n, op.source.dim, op.vectors)


def _presentation(n, width, vectors):
    """``rows_presentation`` of the integer row vectors ``vectors``."""
    try:
        return groebner.GradedPresentation(n, width, vectors)
    except groebner.GeneratorError as error:
        weights, rows = {}, [vec for _, vec in vectors if vec]
        while rows:  # a row that meets a weighted column first, if one does
            vec = rows.pop(next((i for i, r in enumerate(rows)
                                 if any(c in weights for c, _ in r)), 0))
            deg = next((weights[c] + sum(m) for c, m in vec if c in weights), sum(min(vec)[1]))
            for c, m in vec:
                weights.setdefault(c, deg - sum(m))
        low = min(weights.values(), default=0)
        shifts = tuple(weights.get(c, low) - low for c in range(width))
        try:
            return groebner.GradedPresentation(n, width, vectors, shifts)
        except groebner.GeneratorError:
            raise error from None


def compatibility_conditions(op):
    """Minimal generating operator for the relations among the rows of ``op``.

    Any operator annihilating the image of ``op`` factors through the
    returned one; composing it with ``op`` gives the exact zero matrix.
    """
    gens = groebner.minimal_graded_generators(groebner.syzygies(rows_presentation(op)))
    k = len(gens.vectors)
    target = free_basis(f"CC({op.target.label})", op.n,
                        [f"q{i}" for i in range(1, k + 1)])
    return OperatorMatrix(
        name=f"cc({op.name})", n=op.n, source=op.target, target=target,
        vectors=gens.vectors)


def differential_rank(op):
    """Rank of the symbol over the rational function field."""
    return groebner._vector_rank(op.n, op.source.dim, op.vectors)


def apply(op, sections):
    """Apply the operator to polynomial sections of its source bundle.

    ``sections`` lists one polynomial (in the base coordinates) per source
    component; each symbol monomial acts as the matching mixed partial.
    """
    if len(sections) != op.source.dim:
        raise ValueError("one section component per source basis element")
    out = []
    for den, vec in op.vectors:
        acc = Poly.zero(op.n)
        for (j, mono), v in vec.items():
            acc = acc + sections[j].apply_derivation(mono).scale(Fraction(v, den))
        out.append(acc)
    return out


def from_scalar_matrix(name, n, source, target, matrix):
    """Order-zero operator from a rational matrix (target dim x source dim)."""
    return OperatorMatrix(
        name=name, n=n, source=source, target=target,
        vectors=tuple(_constant_row(n, dict(enumerate(row))) for row in matrix))
