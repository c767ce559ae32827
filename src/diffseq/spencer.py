"""Symbol spaces, prolongation, and delta-complex dimension counts.

The symbol of an order-q operator is the kernel of its top-degree part on
S_q T* tensor the source fiber.  Prolongation shifts the defining
equations by one derivative.  The delta map contracts one symmetric index
into the exterior factor; its cohomology dimensions identify the value
bundles of the condition sequences, and the full-jet columns give the
exactness bookkeeping behind the dimension diagrams.

The route runs on ints: it reads an operator's integer row vectors, whose
scale changes no constraint and no kernel.
A symbol space stores its constraints as the reduced primitive rows of
``linalg._reduced``, pivot entries positive, so equal spaces are equal
records for the caches keyed on them.  Symbol and R_q bases are sparse
primitive integer vectors (``linalg.integer_kernel``); scaling one changes
no rank.  delta is applied column-wise in one place, ``_delta_images``:
each vector is contracted with each dx^i once and the results are placed
per exterior index I.  The images are the rows of the transpose of delta's
matrix, and rank(A) = rank(A^T), so their rank is the rank of delta.

Jet coordinates here carry no multinomial factors: the component at a
symmetric multi-index stands for the plain mixed partial.
"""

from functools import lru_cache
from math import comb

from . import linalg
from .bundles import ext_tuples, sym_tuples
from .config import record


def _sorted_insert(mu, i):
    return tuple(sorted(mu + (i,)))


def _indices(mono):
    """The symmetric multi-index (1-based, sorted) of an exponent tuple."""
    return tuple(i + 1 for i, e in enumerate(mono) for _ in range(e))


class _Indexer:
    """Column enumeration of S_q T* tensor a rank-m fiber."""

    def __init__(self, n, q, m):
        self.n, self.q, self.m = n, q, m
        self.mus = sym_tuples(n, q)
        self.index = {}
        c = 0
        for mu in self.mus:
            for k in range(m):
                self.index[(mu, k)] = c
                c += 1
        self.dim = c

    def __call__(self, mu, k):
        return self.index[(mu, k)]


@record
class SymbolSpace:
    """Kernel of linear constraints on S_q T* tensor the source fiber."""

    n: int
    q: int
    fiber_dim: int
    constraints: tuple      # reduced integer rows over the S_q-fiber columns
    dim: int

    def basis(self):
        """Kernel basis, one sparse primitive integer vector ``{column: int}``
        per free column; eliminated once per distinct space, do not mutate it."""
        return _symbol_basis(self)


@lru_cache(maxsize=None)
def _symbol_basis(g):
    width = comb(g.n + g.q - 1, g.q) * g.fiber_dim
    return linalg.integer_kernel([dict(r) for r in g.constraints], width)[0]


def _make_symbol(n, q, m, rows):
    """The space cut out by ``rows``; one record per space (module docstring)."""
    width = _Indexer(n, q, m).dim
    echelon = linalg._reduced(rows, width)
    return SymbolSpace(
        n=n, q=q, fiber_dim=m, dim=width - len(echelon),
        constraints=tuple(tuple(sorted((c, v if row[col] > 0 else -v)
                                       for c, v in row.items()))
                          for col, row in echelon))


def symbol_of(op):
    """Symbol of the top-degree part of an operator (order must be >= 1).
    Built once per operator; the result is shared."""
    return _symbol_of(op)


@lru_cache(maxsize=None)
def _symbol_of(op):
    q = op.order
    if q < 1:
        raise ValueError("symbol needs an operator of order at least 1")
    n = op.n
    m = op.source.dim
    idx = _Indexer(n, q, m)
    rows = []
    for _, vec in op.vectors:
        # one column per (monomial, k); a row's scale changes no constraint
        out = {idx(_indices(mono), k): v for (k, mono), v in vec.items() if sum(mono) == q}
        if out:
            rows.append(out)
    if not rows:
        raise ValueError(f"{op.name}: zero principal part")
    return _make_symbol(n, q, m, rows)


def prolong(g):
    """One prolongation: all first derivatives of the defining equations.
    Built once per symbol space; the result is shared."""
    return _prolong(g)


@lru_cache(maxsize=None)
def _prolong(g):
    n, m = g.n, g.fiber_dim
    idx_new = _Indexer(n, g.q + 1, m)
    mus = sym_tuples(n, g.q)
    rows = []
    for crow in g.constraints:
        for i in range(1, n + 1):
            out = {}
            for (col, coef) in crow:
                pos, k = divmod(col, m)
                c = idx_new(_sorted_insert(mus[pos], i), k)
                out[c] = out.get(c, 0) + coef
            rows.append(out)
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

def _units(n, q, m):
    return [{c: 1} for c in range(comb(n + q - 1, q) * m)]


def _delta_images(n, r, q, m, vectors, stride=None, offset=0):
    """delta(I tensor v) for every I in wedge^r (outer loop) and every sparse
    vector v over S_q tensor a rank-m fiber (inner loop), as sparse rows.
    Component J of wedge^{r+1} sits at columns J_pos * stride + offset + the
    S_{q-1}-fiber column (stride defaults to the S_{q-1}-fiber width)."""
    out_pos = {J: c for c, J in enumerate(ext_tuples(n, r + 1))}
    mus = sym_tuples(n, q)
    nu_pos = {nu: c for c, nu in enumerate(sym_tuples(n, q - 1))}
    stride = stride or len(nu_pos) * m
    # contraction with dx^i: e_mu -> e_{mu - i} for each distinct i in mu
    drops = [[(i, nu_pos[mu[:t] + mu[t + 1:]] * m)
              for t, i in enumerate(mu) if not t or mu[t - 1] != i] for mu in mus]
    contracted = []   # per vector: i -> its contraction with dx^i, as pairs
    for v in vectors:
        w = {}
        for c, coef in v.items():
            pos, k = divmod(c, m)
            for i, col in drops[pos]:
                w.setdefault(i, []).append((col + k, coef))
        contracted.append(w)
    rows = []
    for I in ext_tuples(n, r):
        # dx^i wedge dx^I = sign dx^J, sign = (-1)^(number of I below i)
        steps = [(i, out_pos[tuple(sorted(I + (i,)))] * stride + offset,
                  (-1) ** sum(j < i for j in I))
                 for i in range(1, n + 1) if i not in I]
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
    rank = linalg.rank(_delta_images(n, r, q, m, g.basis()), codomain) if g.dim else 0
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
    (injective at the left end, surjective at the right end)."""
    dims = [comb(n, r) * _Indexer(n, q_top - r, m).dim for r in range(q_top + 1)]
    ranks = [linalg.rank(_delta_images(n, r, q_top - r, m, _units(n, q_top - r, m)),
                         dims[r + 1]) for r in range(q_top)]
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
    n = op.n
    m = op.source.dim
    cols = {}
    c = 0
    for qq in range(q + 1):
        for mu in sym_tuples(n, qq):
            for k in range(m):
                cols[(mu, k)] = c
                c += 1
    rows = []
    shifts = [mu for qq in range(q - op.order + 1)
              for mu in sym_tuples(n, qq)]
    for _, vec in op.vectors:
        base = [(_indices(mono), k, v) for (k, mono), v in vec.items()]
        for sigma in shifts:
            out = {}
            for mu, k, coef in base:
                cc = cols[(tuple(sorted(mu + sigma)), k)]
                out[cc] = out.get(cc, 0) + coef
            out = {cc: v for cc, v in out.items() if v}
            if out:
                rows.append(out)
    return rows, c


def jet_fiber_dim(n, q, m):
    return sum(comb(n + qq - 1, qq) for qq in range(q + 1)) * m


@lru_cache(maxsize=None)
def _jet_system(op, q):
    """The part of a Janet/Spencer table that does not depend on r: the width
    of J_q, a basis of R_q (the order-q jet system of ``op``) and g_{q+1}."""
    eq_rows, width = _prolonged_equation_rows(op, q)
    g_next = prolong(prolong_to(symbol_of(op), q))
    return width, linalg.integer_kernel(eq_rows, width)[0], g_next


def janet_spencer_bundle_dims(system, r, n, metric=None, m=1, q=None):
    """(Janet bundle dim, Spencer bundle dim) at exterior degree r.

    Supported systems: "killing" (order-1 system taken at jet order 2),
    "conformal_killing" (jet order 3), and "jet", the full jet operator
    on a trivial rank-m bundle at order q, whose two resolutions coincide.
    """
    from . import sequences

    if system == "killing":
        op = sequences.killing(n, metric)
        q = 2 if q is None else q
    elif system == "conformal_killing":
        op = sequences.conformal_killing(n, metric)
        q = 3 if q is None else q
    elif system == "jet":
        if q is None:
            raise ValueError("jet system needs an explicit order q")
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
        # delta image generators of wedge^{r-1} x S_{q+1} x E, placed in jet
        # coordinates (the top-order block of J_q)
        gens.extend(_delta_images(n, r - 1, q + 1, msrc, _units(n, q + 1, msrc),
                                  width, jet_fiber_dim(n, q - 1, msrc)))
    f_dim = comb(n, r) * width - linalg.rank(gens, comb(n, r) * width)
    if op is None:
        return f_dim, f_dim
    # Spencer bundle: wedge^r x R_q modulo the delta image of g_{q+1}
    rank_dg = delta_map(r - 1, g_next).rank if r >= 1 else 0
    return f_dim, comb(n, r) * len(r_q_basis) - rank_dg
