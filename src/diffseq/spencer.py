"""Symbol spaces, prolongation, and delta-complex dimension counts.

The symbol of an order-q operator is the kernel of its top-degree part on
S_q T* tensor the source fiber.  Prolongation shifts the defining
equations by one derivative.  The delta map contracts one symmetric index
into the exterior factor; its cohomology dimensions identify the value
bundles of the condition sequences, and the full-jet columns give the
exactness bookkeeping behind the dimension diagrams.

The route runs on ints and builds every row it eliminates, each a fresh
dict of nonzero ints, so it hands them to the integer kernel of ``linalg``
(``_echelon``, ``_reduced``, ``_kernel``) with no copy and no type check.
A symbol space stores its constraints as the reduced primitive rows of
``_reduced``, pivot entries positive, so equal spaces are equal records for
the caches keyed on them.  delta rows come from ``_delta_images`` (each
vector contracted with each dx^i once, then placed per exterior index I)
and ``_pommaret_images`` (below), both signed by one table,
``_wedge_signs``.  The images are the rows of the transpose of delta's
matrix, and rank(A) = rank(A^T), so their rank is the rank of delta.

Columns are keyed by the exponent tuples that operator rows already hold.
``_monomials(n, q)`` lists the degree-q monomials in ``sym_tuples(n, q)``
order, and the monomial at position pos with fiber component k is column
pos * m + k of S_q T* tensor a rank-m fiber.  Prolongation adds e_i to a
monomial, contraction with dx^i subtracts it, and J_q stacks the degrees:
column ``jet_fiber_dim(n, qq - 1, m) + pos * m + k`` for degree qq.
Jet coordinates carry no multinomial factors: the component at a
monomial stands for the plain mixed partial.

On a full space wedge^r tensor S_q tensor E the route eliminates a basis
of delta's image, not the image of every unit vector.  The full symbol is
involutive, so with cls(mu) the least variable of x^mu (its multiplicative
variables are x_1..x_cls(mu)), delta(dx^I tensor x^mu e_k) for the I made
of non-multiplicative indices only, every index above cls(mu), is a basis
of that image: m * sum_mu C(n - cls(mu), r) rows (Pommaret, "Systems of
Partial Differential Equations and Lie Pseudogroups", Gordon and Breach
1978; Seiler, "Involution", Springer 2010, ch. 6).  ``_pommaret_images``
emits those rows, and the Janet tables quotient by the row space that
every unit image spans.  The full-jet columns need no trust in the basis:
each rank read is at most delta's rank, and since delta o delta = 0,
rank delta_{r-1} + rank delta_r <= dim of node r; so when the read ranks
fill every node exactly, each equals delta's rank and exactness is proven.
Symbol spaces are not full spaces, so ``delta_map`` keeps the image of
every basis vector.
"""

from itertools import combinations
from math import comb

from . import linalg
from .bundles import ext_tuples, sym_tuples
from .config import cached, record


@cached
def _monomials(n, q):
    """The degree-q exponent tuples in ``sym_tuples(n, q)`` order, and the
    position of each."""
    monos = tuple(tuple(mu.count(i) for i in range(1, n + 1)) for mu in sym_tuples(n, q))
    return monos, {mono: pos for pos, mono in enumerate(monos)}


def _shifted(mono, i, step):
    """``mono`` with ``step`` added to exponent ``i`` (0-based)."""
    return mono[:i] + (mono[i] + step,) + mono[i + 1:]


@record
class SymbolSpace:
    """Kernel of linear constraints on S_q T* tensor the source fiber."""

    n: int
    q: int
    fiber_dim: int
    constraints: tuple      # reduced integer rows over the S_q-fiber columns
    dim: int

    @cached
    def basis(self):
        """Kernel basis, one sparse primitive integer vector ``{column: int}``
        per free column; eliminated once per distinct space, do not mutate it."""
        width = comb(self.n + self.q - 1, self.q) * self.fiber_dim
        return linalg._kernel([dict(r) for r in self.constraints], width)[0]


def _make_symbol(n, q, m, rows):
    """The space cut out by ``rows``; one record per space (module docstring)."""
    width = comb(n + q - 1, q) * m
    echelon = linalg._reduced(rows, width)
    return SymbolSpace(
        n=n, q=q, fiber_dim=m, dim=width - len(echelon),
        constraints=tuple(tuple(sorted((c, v if row[col] > 0 else -v)
                                       for c, v in row.items()))
                          for col, row in echelon))


@cached
def symbol_of(op):
    """Symbol of the top-degree part of an operator (order must be >= 1).
    Built once per operator; the result is shared."""
    q = op.order
    if q < 1:
        raise ValueError("symbol needs an operator of order at least 1")
    m = op.source.dim
    pos = _monomials(op.n, q)[1]
    # one column per (monomial, k); a row's scale changes no constraint
    rows = [out for _, vec in op.vectors
            if (out := {pos[mono] * m + k: v for (k, mono), v in vec.items() if sum(mono) == q})]
    if not rows:
        raise ValueError(f"{op.name}: zero principal part")
    return _make_symbol(op.n, q, m, rows)


@cached
def prolong(g):
    """One prolongation: all first derivatives of the defining equations.
    Built once per symbol space; the result is shared."""
    n, m = g.n, g.fiber_dim
    monos, pos = _monomials(n, g.q)[0], _monomials(n, g.q + 1)[1]
    # adding e_i is injective on monomials, so no two terms share a column
    rows = [{pos[_shifted(monos[col // m], i, 1)] * m + col % m: coef for col, coef in crow}
            for crow in g.constraints for i in range(n)]
    return _make_symbol(n, g.q + 1, m, rows)


def prolong_to(g, q):
    """The q-th prolongation of ``g``; a ``q`` below its order is refused."""
    if q < g.q:
        raise ValueError(f"order {q} is below the symbol's order {g.q}")
    while g.q < q:
        g = prolong(g)
    return g


# ---------------------------------------------------------------------------
# delta maps

@cached
def _wedge_signs(n, r):
    """``I -> {i: (position of J, sign)}`` over wedge^r, for dx^i wedge dx^I =
    sign dx^J (sign: -1 to the number of I below i); do not mutate it."""
    out_pos = {J: c for c, J in enumerate(ext_tuples(n, r + 1))}
    return {I: {i: (out_pos[tuple(sorted(I + (i,)))], (-1) ** sum(j < i for j in I))
                for i in range(1, n + 1) if i not in I} for I in ext_tuples(n, r)}


def _pommaret_images(n, r, q, m, stride=None, offset=0):
    """delta(dx^I tensor x^mu e_k) on the full space wedge^r tensor S_q tensor
    a rank-m fiber (q >= 1), for the I whose indices all exceed cls(mu), the
    least variable of x^mu: a basis of delta's image there (module
    docstring).  Columns, ``stride`` and ``offset`` are those of
    ``_delta_images``."""
    signs = _wedge_signs(n, r)
    nu_pos = _monomials(n, q - 1)[1]
    stride = stride or len(nu_pos) * m
    rows = []
    for mu in _monomials(n, q)[0]:
        cls = next(i for i, e in enumerate(mu) if e) + 1
        drops = [(i, nu_pos[_shifted(mu, i - 1, -1)] * m + offset)
                 for i in range(cls, n + 1) if mu[i - 1]]
        for I in combinations(range(cls + 1, n + 1), r):
            wedge = signs[I]
            terms = [(wedge[i][0] * stride + col, wedge[i][1])
                     for i, col in drops if i in wedge]
            rows.extend({col + k: sign for col, sign in terms} for k in range(m))
    return rows


def _delta_images(n, r, q, m, vectors, stride=None, offset=0):
    """delta(I tensor v) for every I in wedge^r (outer loop) and every sparse
    vector v over S_q tensor a rank-m fiber (inner loop), as sparse rows.
    Component J of wedge^{r+1} sits at columns J_pos * stride + offset + the
    S_{q-1}-fiber column (stride defaults to the S_{q-1}-fiber width)."""
    nu_pos = _monomials(n, q - 1)[1]
    stride = stride or len(nu_pos) * m
    # contraction with dx^i: x^mu -> x^(mu - e_i) for each i with mu_i > 0
    drops = [[(i + 1, nu_pos[_shifted(mu, i, -1)] * m) for i, e in enumerate(mu) if e]
             for mu in _monomials(n, q)[0]]
    contracted = []   # per vector: i -> its contraction with dx^i, as pairs
    for v in vectors:
        w = {}
        for c, coef in v.items():
            pos, k = divmod(c, m)
            for i, col in drops[pos]:
                w.setdefault(i, []).append((col + k, coef))
        contracted.append(w)
    rows = []
    for wedge in _wedge_signs(n, r).values():
        steps = [(i, pos * stride + offset, sign) for i, (pos, sign) in wedge.items()]
        # distinct (i, mu, k) land on distinct columns, so no key repeats
        rows.extend({base + col: sign * coef
                     for i, base, sign in steps for col, coef in w.get(i, ())}
                    for w in contracted)
    return rows


@record
class DeltaComplexSlice:
    """delta restricted to the exterior-power tensor of a symbol space."""

    n: int
    r: int
    q: int
    domain_dim: int
    codomain_dim: int
    rank: int


def delta_map(r, g):
    """delta on wedge^r tensor g, with ambient codomain wedge^{r+1} tensor
    S_{q-1} tensor the fiber."""
    n, q, m = g.n, g.q, g.fiber_dim
    codomain = comb(n, r + 1) * comb(n + q - 2, q - 1) * m
    rank = len(linalg._echelon(_delta_images(n, r, q, m, g.basis()), codomain)) if g.dim else 0
    return DeltaComplexSlice(
        n=n, r=r, q=q, domain_dim=comb(n, r) * g.dim, codomain_dim=codomain,
        rank=rank)


@record
class CohomologyNode:
    r: int
    dim: int
    rank_out: int
    rank_in: int
    h: int


def delta_cohomology_detail(op, r_max, q=None):
    """Per-degree dimension, outgoing and incoming delta ranks, and the
    cohomology dimension at wedge^r tensor g_q for the symbol chain of
    ``op``."""
    if r_max < 0:
        raise ValueError(f"r_max must be non-negative, got {r_max}")
    g = symbol_of(op)
    if q is None:
        q = g.q
    g_q = prolong_to(g, q)
    g_next = prolong(g_q)
    nodes = []
    for r in range(r_max + 1):
        if r > op.n:
            nodes.append(CohomologyNode(r=r, dim=0, rank_out=0, rank_in=0, h=0))
            continue
        dim = comb(op.n, r) * g_q.dim
        rank_out = delta_map(r, g_q).rank if r < op.n else 0
        rank_in = delta_map(r - 1, g_next).rank if r >= 1 else 0
        nodes.append(CohomologyNode(
            r=r, dim=dim, rank_out=rank_out, rank_in=rank_in,
            h=dim - rank_out - rank_in))
    return nodes


def delta_cohomology_dims(op, r_max, q=None):
    return [node.h for node in delta_cohomology_detail(op, r_max, q=q)]


# ---------------------------------------------------------------------------
# full-jet columns

@record
class JetColumnReport:
    n: int
    q_top: int
    fiber_dim: int
    node_dims: tuple
    ranks: tuple     # rank of delta leaving node r, for r = 0..q_top-1
    exact: bool


def full_jet_column(n, q_top, m):
    """The delta sequence on full spaces: wedge^r tensor S_{q_top - r}
    tensor a rank-m fiber, for r = 0..q_top; checks exactness everywhere
    (injective at the left end, surjective at the right end).

    Each rank is that of ``_pommaret_images``, a subset of delta's image
    that spans it when the Pommaret basis argument of the module docstring
    holds.  When ``exact`` is True the ranks are proven to be delta's ranks;
    when it is False they are only lower bounds."""
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if q_top < 0:
        raise ValueError(f"q_top must be non-negative, got {q_top}")
    if m < 1:
        raise ValueError(f"fiber rank m must be at least 1, got {m}")
    dims = [comb(n, r) * comb(n + q_top - r - 1, q_top - r) * m for r in range(q_top + 1)]
    ranks = [len(linalg._echelon(_pommaret_images(n, r, q_top - r, m), dims[r + 1]))
             for r in range(q_top)]
    # exact at node r: the incoming and outgoing ranks add up to its dim
    padded = [0] + ranks + [0]
    exact = not ranks or all(padded[r] + padded[r + 1] == dims[r]
                             for r in range(q_top + 1))
    return JetColumnReport(
        n=n, q_top=q_top, fiber_dim=m, node_dims=tuple(dims),
        ranks=tuple(ranks), exact=exact)


# ---------------------------------------------------------------------------
# jet systems and the two canonical resolutions

def _prolonged_equation_rows(op, q):
    """Constraint rows of the order-q jet system of ``op`` over the
    coordinates of J_q (source fiber), i.e. all derivatives of the
    equations up to order q - order(op)."""
    n, m = op.n, op.source.dim
    offsets = [jet_fiber_dim(n, qq - 1, m) for qq in range(q + 1)]
    tables = [_monomials(n, qq)[1] for qq in range(q + 1)]
    shifts = [sigma for qq in range(q - op.order + 1) for sigma in _monomials(n, qq)[0]]
    rows = []
    for _, vec in op.vectors:
        for sigma in shifts:
            # adding sigma is injective on monomials, so no two terms share a column
            out = {}
            for (k, mono), coef in vec.items():
                nu = tuple(a + b for a, b in zip(mono, sigma))
                qq = sum(nu)
                out[offsets[qq] + tables[qq][nu] * m + k] = coef
            if out:
                rows.append(out)
    return rows, offsets[q] + len(tables[q]) * m


def jet_fiber_dim(n, q, m):
    return sum(comb(n + qq - 1, qq) for qq in range(q + 1)) * m


@cached
def _jet_system(op, q):
    """The part of a Janet/Spencer table that does not depend on r: the width
    of J_q, a basis of R_q (the order-q jet system of ``op``) and g_{q+1}."""
    eq_rows, width = _prolonged_equation_rows(op, q)
    g_next = prolong(prolong_to(symbol_of(op), q))
    return width, linalg._kernel(eq_rows, width)[0], g_next


def janet_spencer_bundle_dims(system, r, n, metric=None, m=1, q=None):
    """(Janet bundle dim, Spencer bundle dim) at exterior degree r.

    Supported systems: "killing" (order-1 system taken at jet order 2),
    "conformal_killing" (jet order 3), and "jet", the full jet operator
    on a trivial rank-m bundle at order q, whose two resolutions coincide.
    """
    from . import sequences

    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if r < 0:
        raise ValueError(f"exterior degree r must be non-negative, got {r}")
    if q is not None and q < 0:
        raise ValueError(f"jet order q must be non-negative, got {q}")
    if system == "killing":
        op = sequences.killing(n, metric)
        q = 2 if q is None else q
    elif system == "conformal_killing":
        op = sequences.conformal_killing(n, metric)
        q = 3 if q is None else q
    elif system == "jet":
        if q is None:
            raise ValueError("jet system needs an explicit order q")
        if m < 1:
            raise ValueError(f"fiber rank m must be at least 1, got {m}")
        op = None
    else:
        raise ValueError(f"unknown system {system!r}")

    if op is None:
        # R_q = 0: the Janet bundle is the full quotient by the delta image
        msrc, width, r_q_basis = m, jet_fiber_dim(n, q, m), []
    else:
        msrc = op.source.dim
        width, r_q_basis, g_next = _jet_system(op, q)

    # Janet bundle: full jet space modulo (wedge^r x R_q + delta image)
    gens = [{pos * width + comp: v for comp, v in b.items()}
            for pos in range(comb(n, r)) for b in r_q_basis]
    if r >= 1:
        # a basis of the delta image of wedge^{r-1} x S_{q+1} x E, placed in
        # jet coordinates (the top-order block of J_q)
        gens.extend(_pommaret_images(n, r - 1, q + 1, msrc,
                                     width, jet_fiber_dim(n, q - 1, msrc)))
    f_dim = comb(n, r) * width - len(linalg._echelon(gens, comb(n, r) * width))
    if op is None:
        return f_dim, f_dim
    # Spencer bundle: wedge^r x R_q modulo the delta image of g_{q+1}
    rank_dg = delta_map(r - 1, g_next).rank if r >= 1 else 0
    return f_dim, comb(n, r) * len(r_q_basis) - rank_dg
