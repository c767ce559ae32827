"""Symbol spaces, prolongation, and delta-complex dimension counts.

The symbol of an order-q operator is the kernel of its top-degree part on
S_q T* tensor the source fiber.  Prolongation shifts the defining
equations by one derivative.  The delta map contracts one symmetric index
into the exterior factor; its cohomology dimensions identify the value
bundles of the condition sequences, and the full-jet columns give the
exactness bookkeeping behind the dimension diagrams.

Jet coordinates here carry no multinomial factors: the component at a
symmetric multi-index stands for the plain mixed partial.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .bundles import ext_tuples, sym_tuples
from .poly import Poly


def _sorted_insert(mu, i):
    return tuple(sorted(mu + (i,)))


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


@dataclass(frozen=True)
class SymbolSpace:
    """Kernel of linear constraints on S_q T* tensor the source fiber."""

    n: int
    q: int
    fiber_dim: int
    constraints: tuple      # sparse rows over the S_q-fiber columns
    dim: int

    def basis(self):
        width = comb(self.n + self.q - 1, self.q) * self.fiber_dim
        return linalg.kernel_basis([dict(r) for r in self.constraints], width)


def _make_symbol(n, q, m, rows):
    idx = _Indexer(n, q, m)
    reduced, pivots = linalg.rref(rows, idx.dim)
    return SymbolSpace(
        n=n, q=q, fiber_dim=m, dim=idx.dim - len(pivots),
        constraints=tuple(tuple(sorted(r.items())) for r in reduced))


def symbol_of(op):
    """Symbol of the top-degree part of an operator (order must be >= 1)."""
    q = op.order
    if q < 1:
        raise ValueError("symbol needs an operator of order at least 1")
    n = op.n
    m = op.source.dim
    idx = _Indexer(n, q, m)
    rows = []
    for row in op.rows:
        out = {}
        for k, p in enumerate(row):
            for mono, coef in p.terms.items():
                if sum(mono) != q:
                    continue
                mu = tuple(i + 1 for i, e in enumerate(mono) for _ in range(e))
                out[idx(mu, k)] = out.get(idx(mu, k), Fraction(0)) + coef
        out = {c: v for c, v in out.items() if v}
        if out:
            rows.append(out)
    if not rows:
        raise ValueError(f"{op.name}: zero principal part")
    return _make_symbol(n, q, m, rows)


def prolong(g):
    """One prolongation: all first derivatives of the defining equations."""
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
    while g.q < q:
        g = prolong(g)
    return g


# ---------------------------------------------------------------------------
# delta maps

def _ext_index(n, r):
    tuples = ext_tuples(n, r)
    return tuples, {t: c for c, t in enumerate(tuples)}


def delta_ambient(n, r, q, m):
    """Sparse matrix of delta on the full space: exterior degree r, symbol
    order q, fiber rank m.  Rows are output components, columns inputs."""
    in_tuples, in_pos = _ext_index(n, r)
    out_tuples, _ = _ext_index(n, r + 1)
    idx_in = _Indexer(n, q, m)
    idx_out = _Indexer(n, q - 1, m)
    width_in = idx_in.dim
    rows = []
    for J in out_tuples:
        for nu in sym_tuples(n, q - 1):
            for k in range(m):
                out = {}
                for t in range(len(J)):
                    i = J[t]
                    I = J[:t] + J[t + 1:]
                    sign = -1 if t % 2 else 1
                    col = in_pos[I] * width_in + idx_in(_sorted_insert(nu, i), k)
                    out[col] = out.get(col, 0) + sign
                rows.append(out)
    return rows


@dataclass(frozen=True)
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
    ext_in, _ = _ext_index(n, r)
    basis = g.basis()
    gdim = len(basis)
    amb = delta_ambient(n, r, q, m)
    width_in = _Indexer(n, q, m).dim
    # nonzero (b, basis[b][comp]) for each ambient component comp
    support = [[(b, vec[comp]) for b, vec in enumerate(basis) if vec[comp]]
               for comp in range(width_in)]
    rows = []
    for row in amb:
        out = {}
        for col, coef in row.items():
            I_pos, comp = divmod(col, width_in)
            for b, v in support[comp]:
                c = I_pos * gdim + b
                out[c] = out.get(c, 0) + coef * v
        rows.append(out)
    domain = len(ext_in) * gdim
    codomain = comb(n, r + 1) * _Indexer(n, q - 1, m).dim
    return DeltaComplexSlice(
        n=n, r=r, q=q, domain_dim=domain, codomain_dim=codomain,
        rank=linalg.rank(rows, domain))


@dataclass(frozen=True)
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

@dataclass(frozen=True)
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
    ranks = [linalg.rank(delta_ambient(n, r, q_top - r, m), dims[r])
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
    for row in op.rows:
        base = []
        for k, p in enumerate(row):
            for mono, coef in p.terms.items():
                mu = tuple(i + 1 for i, e in enumerate(mono) for _ in range(e))
                base.append((mu, k, coef))
        for sigma in shifts:
            out = {}
            for mu, k, coef in base:
                cc = cols[(tuple(sorted(mu + sigma)), k)]
                out[cc] = out.get(cc, Fraction(0)) + coef
            out = {cc: v for cc, v in out.items() if v}
            if out:
                rows.append(out)
    return rows, c


def jet_fiber_dim(n, q, m):
    return sum(comb(n + qq - 1, qq) for qq in range(q + 1)) * m


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
        jdim = jet_fiber_dim(n, q, m)
        # R_q = 0: the Janet bundle is the full quotient by the delta image
        rank_delta = 0
        if r >= 1:
            amb = delta_ambient(n, r - 1, q + 1, m)
            rank_delta = linalg.rank(
                amb, comb(n, r - 1) * _Indexer(n, q + 1, m).dim)
        f_dim = comb(n, r) * jdim - rank_delta
        return f_dim, f_dim

    msrc = op.source.dim
    jdim = jet_fiber_dim(n, q, msrc)
    eq_rows, width = _prolonged_equation_rows(op, q)
    r_q_basis = linalg.kernel_basis(eq_rows, width)
    dim_rq = len(r_q_basis)

    g = prolong_to(symbol_of(op), q)
    g_next = prolong(g)

    # Spencer bundle: wedge^r x R_q modulo the delta image of g_{q+1}
    rank_dg = delta_map(r - 1, g_next).rank if r >= 1 else 0
    c_dim = comb(n, r) * dim_rq - rank_dg

    # Janet bundle: full jet space modulo (wedge^r x R_q + delta image)
    gens = [{pos * width + comp: v for comp, v in enumerate(b) if v}
            for pos in range(comb(n, r)) for b in r_q_basis]
    if r >= 1:
        # delta image generators of wedge^{r-1} x S_{q+1} x E, pushed into
        # jet coordinates (the top-order block of J_q)
        amb = delta_ambient(n, r - 1, q + 1, msrc)
        out_dim = _Indexer(n, q, msrc).dim
        top_offset = jet_fiber_dim(n, q - 1, msrc)
        image = {}   # delta-image column -> its entries in jet coordinates
        for out_row, row in enumerate(amb):
            pos, comp = divmod(out_row, out_dim)
            for col, v in row.items():
                image.setdefault(col, {})[pos * width + top_offset + comp] = v
        gens.extend(image.values())
    rank_sum = linalg.rank(gens, comb(n, r) * width)
    f_dim = comb(n, r) * jdim - rank_sum
    return f_dim, c_dim


# ---------------------------------------------------------------------------
# finite-jet spot check of the first-order structure operator

def jet_section_prolongation(n, m, q, components):
    """Section of J_q from m base polynomials: component (mu, k) is the
    mu-th mixed partial of the k-th polynomial."""
    out = {}
    for qq in range(q + 1):
        for mu in sym_tuples(n, qq):
            for k in range(m):
                p = components[k]
                for i in mu:
                    p = p.diff(i)
                out[(mu, k)] = p
    return out


def spencer_derivative(n, m, q, r, section):
    """One step of the jet-comparison operator on form-valued jet sections.

    Input: dict (I, mu, k) -> polynomial with |I| = r and |mu| <= q (for
    r = 0 keys may be plain (mu, k)); output has keys (J, mu, k) with
    |J| = r + 1 and |mu| <= q - 1.
    """
    def get(I, mu, k):
        if r == 0:
            return section.get((mu, k), Poly.zero(n))
        return section.get((I, mu, k), Poly.zero(n))

    out = {}
    for J in ext_tuples(n, r + 1):
        for qq in range(q):
            for mu in sym_tuples(n, qq):
                for k in range(m):
                    acc = Poly.zero(n)
                    for t in range(len(J)):
                        i = J[t]
                        I = J[:t] + J[t + 1:]
                        sign = -1 if t % 2 else 1
                        term = get(I, mu, k).diff(i) \
                            - get(I, _sorted_insert(mu, i), k)
                        if not term.is_zero():
                            acc = acc + term.scale(sign)
                    out[(J, mu, k)] = acc
    return out
