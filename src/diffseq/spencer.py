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
the caches keyed on them.  delta rows come from ``_delta_images`` (the
images, rows of the transpose of delta's matrix) and ``_delta_matrix`` (the
matrix's rows, one per codomain coordinate), which share one contraction
step and are signed by ``_wedge_signs``.  rank(A) = rank(A^T), so
``delta_map`` eliminates on the shorter side.

Columns are keyed by the exponent tuples that operator rows already hold.
``_monomials(n, q)`` lists the degree-q monomials in ``sym_tuples(n, q)``
order, and the monomial at position pos with fiber component k is column
pos * m + k of S_q T* tensor a rank-m fiber.  Prolongation adds e_i to a
monomial and contraction with dx^i subtracts it.

On a full space wedge^r tensor S_q tensor E no row is eliminated: delta
there is delta tensor id_E, so a rank is m times the scalar rank, and the
scalar rank is a count.  The full symbol is involutive, so with cls(mu) the
least variable of x^mu (its multiplicative variables are x_1..x_cls(mu)),
delta(dx^I tensor x^mu) for the I made of non-multiplicative indices only,
every index above cls(mu), is a basis of the scalar image: sum_mu
C(n - cls(mu), r) rows (Pommaret, "Systems of Partial Differential
Equations and Lie Pseudogroups", Gordon and Breach 1978; Seiler,
"Involution", Springer 2010, ch. 6).  ``_image_rank`` counts them, and the
tests eliminate the rows against that count.  The counts fill every node,
so the full complex is exact.  Symbol spaces are not full spaces, so
``delta_map`` takes delta of every basis vector, once per (r, g) in a
process.

The Janet and Spencer tables are symbol-dimension sums.  Every row of the
operators they serve has one order s, so the equations of the order-q jet
system R_q split by jet order, and those of order j >= s are the
constraints of g_j: dim R_q is sum_{j<s} C(n+j-1, j) * m plus dim g_s + ...
+ dim g_q, read off the prolongation chain, and a zero space prolongs to
the zero space.  delta's image B_r of wedge^{r-1} tensor S_{q+1} tensor E
lies in the top jet order, which wedge^r tensor R_q meets in wedge^r tensor
g_q, so the Janet bundle is C(n, r) * (dim J_q - dim R_q + dim g_q) minus
the rank of B_r + wedge^r tensor g_q.  Two facts of the full spaces give
that rank: B_r has rank m * ``_image_rank(n, r, q)``, the Pommaret count,
and the full complex is exact, so for r >= 1 B_r is the kernel of delta on
wedge^r tensor S_q tensor E (at r = 0, B_0 = 0 and delta is injective on
S_q for q >= 1).  B_r meets wedge^r tensor g_q in delta's kernel there, so
the sum has rank m * ``_image_rank(n, r, q)`` + ``delta_map(r, g_q).rank``,
the cached rank that the cohomology reads too.
"""

from itertools import combinations_with_replacement
from math import comb

from . import linalg
from .bundles import ext_tuples
from .config import cached, record


@cached
def _monomials(n, q):
    """The degree-q exponent tuples in ``sym_tuples(n, q)`` order, and the
    position of each."""
    monos = []
    for mu in combinations_with_replacement(range(n), q):
        exps = [0] * n
        for i in mu:
            exps[i] += 1
        monos.append(tuple(exps))
    return tuple(monos), {mono: pos for pos, mono in enumerate(monos)}


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
    if not g.dim:   # g_{q+1} lies in T* tensor g_q: every column is constrained
        return SymbolSpace(n=n, q=g.q + 1, fiber_dim=m, dim=0, constraints=tuple(
            ((c, 1),) for c in range(comb(n + g.q, g.q + 1) * m)))
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


def _image_rank(n, r, q):
    """The rank of delta from wedge^{r-1} tensor S_{q+1} into wedge^r tensor
    S_q on the scalar fiber, 0 at r = 0: the number of its Pommaret rows, sum
    over the class k of C(n - k + q, q) monomials times C(n - k, r - 1)
    index sets (module docstring)."""
    return sum(comb(n - k + q, q) * comb(n - k, r - 1) for k in range(1, n + 1)) if r else 0


def _contractions(n, q, m, vectors):
    """``(v, i, column, coef)`` for every term of the contraction of the v-th
    sparse vector over S_q tensor a rank-m fiber with dx^i, x^mu -> x^(mu -
    e_i) for each i with mu_i > 0, in the columns of S_{q-1} tensor the fiber."""
    nu_pos = _monomials(n, q - 1)[1]
    drops = [[(i + 1, nu_pos[_shifted(mu, i, -1)] * m) for i, e in enumerate(mu) if e]
             for mu in _monomials(n, q)[0]]
    return [(v, i, col + c % m, coef) for v, vec in enumerate(vectors)
            for c, coef in vec.items() for i, col in drops[c // m]]


def _delta_images(n, r, q, m, vectors):
    """delta(I tensor v) for every I in wedge^r (outer loop) and every sparse
    vector v over S_q tensor a rank-m fiber (inner loop), as sparse rows.
    Component J of wedge^{r+1} starts at J_pos times the S_{q-1}-fiber width."""
    stride = comb(n + q - 2, q - 1) * m
    contracted = [{} for _ in vectors]   # per vector: i -> its contraction with dx^i
    for v, i, col, coef in _contractions(n, q, m, vectors):
        contracted[v].setdefault(i, []).append((col, coef))
    rows = []
    for wedge in _wedge_signs(n, r).values():
        steps = [(i, pos * stride, sign) for i, (pos, sign) in wedge.items()]
        # distinct (i, mu, k) land on distinct columns, so no key repeats
        rows.extend({base + col: sign * coef
                     for i, base, sign in steps for col, coef in w.get(i, ())}
                    for w in contracted)
    return rows


def _delta_matrix(n, r, q, m, vectors):
    """The transpose of ``_delta_images``: a sparse row per codomain
    coordinate (J, nu, k) that an image reaches, with delta(I tensor v)'s
    entry in column I_pos * len(vectors) + v; J and i fix I, so no key repeats."""
    into = {}   # (i, codomain column) -> [(v, coef)]
    for v, i, col, coef in _contractions(n, q, m, vectors):
        into.setdefault((i, col), []).append((v, coef))
    faces = {}   # J_pos -> [(i, I_pos * len(vectors), sign)], dx^i wedge dx^I = sign dx^J
    for I_pos, wedge in enumerate(_wedge_signs(n, r).values()):
        for i, (J_pos, sign) in wedge.items():
            faces.setdefault(J_pos, []).append((i, I_pos * len(vectors), sign))
    return [row for steps in faces.values() for col in range(comb(n + q - 2, q - 1) * m)
            if (row := {base + v: sign * coef
                        for i, base, sign in steps for v, coef in into.get((i, col), ())})]


@record
class DeltaComplexSlice:
    """delta restricted to the exterior-power tensor of a symbol space."""

    n: int
    r: int
    q: int
    domain_dim: int
    codomain_dim: int
    rank: int


@cached
def delta_map(r, g):
    """delta on wedge^r tensor g, with ambient codomain wedge^{r+1} tensor
    S_{q-1} tensor the fiber.  Eliminated once per (r, g); the result is
    shared."""
    n, q, m = g.n, g.q, g.fiber_dim
    domain, codomain = comb(n, r) * g.dim, comb(n, r + 1) * comb(n + q - 2, q - 1) * m
    # rank A = rank A^T: one row per coordinate on the shorter side, over the longer
    side = _delta_images if domain <= codomain else _delta_matrix
    rank = len(linalg._echelon(side(n, r, q, m, g.basis()), max(domain, codomain))) if g.dim else 0
    return DeltaComplexSlice(n=n, r=r, q=q, domain_dim=domain, codomain_dim=codomain, rank=rank)


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
    tensor a rank-m fiber, for r = 0..q_top.  Each rank is m times the
    Pommaret count ``_image_rank`` (module docstring), with no elimination;
    ``exact`` checks that the incoming and outgoing ranks fill every node
    (injective at the left end, surjective at the right end)."""
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if q_top < 0:
        raise ValueError(f"q_top must be non-negative, got {q_top}")
    if m < 1:
        raise ValueError(f"fiber rank m must be at least 1, got {m}")
    dims = [comb(n, r) * comb(n + q_top - r - 1, q_top - r) * m for r in range(q_top + 1)]
    ranks = [m * _image_rank(n, r + 1, q_top - r - 1) for r in range(q_top)]
    # exact at node r: the incoming and outgoing ranks add up to its dim
    padded = [0] + ranks + [0]
    exact = not ranks or all(padded[r] + padded[r + 1] == dims[r]
                             for r in range(q_top + 1))
    return JetColumnReport(
        n=n, q_top=q_top, fiber_dim=m, node_dims=tuple(dims),
        ranks=tuple(ranks), exact=exact)


# ---------------------------------------------------------------------------
# jet systems and the two canonical resolutions

def jet_fiber_dim(n, q, m):
    return sum(comb(n + qq - 1, qq) for qq in range(q + 1)) * m


@cached
def _jet_system(op, q):
    """The part of a Janet/Spencer table that does not depend on r: dim J_q,
    dim R_q (the order-q jet system of ``op``), g_q and g_{q+1}.  dim R_q is
    a sum of symbol dims (module docstring) only when every row of ``op``
    has one order, so an operator whose rows mix orders is refused."""
    if any(sum(mono) != op.order for _, vec in op.vectors for _, mono in vec):
        raise ValueError(f"{op.name}: the jet system needs rows of one order")
    chain = [symbol_of(op)]
    while chain[-1].q < q:
        chain.append(prolong(chain[-1]))
    g_q = prolong_to(chain[-1], q)   # refuses a q below the order
    m = g_q.fiber_dim
    r_q_dim = jet_fiber_dim(op.n, chain[0].q - 1, m) + sum(g.dim for g in chain)
    return jet_fiber_dim(op.n, q, m), r_q_dim, g_q, prolong(g_q)


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
    if system == "jet":
        if q is None:
            raise ValueError("jet system needs an explicit order q")
        if m < 1:
            raise ValueError(f"fiber rank m must be at least 1, got {m}")
        op, width, r_q_dim, g_dim = None, jet_fiber_dim(n, q, m), 0, 0   # R_q = 0
    elif system in ("killing", "conformal_killing"):
        op = getattr(sequences, system)(n, metric)
        q = (2 if system == "killing" else 3) if q is None else q
        m = op.source.dim
        width, r_q_dim, g_q, g_next = _jet_system(op, q)
        g_dim = g_q.dim
    else:
        raise ValueError(f"unknown system {system!r}")

    # Janet bundle: wedge^r x J_q modulo wedge^r x R_q + B_r; B_r + wedge^r
    # x g_q has rank m * P(n, r, q) + rank delta_r(g_q) (module docstring)
    rank = m * _image_rank(n, r, q) + (delta_map(r, g_q).rank if g_dim else 0)
    f_dim = comb(n, r) * (width - r_q_dim + g_dim) - rank
    if op is None:
        return f_dim, f_dim
    # Spencer bundle: wedge^r x R_q modulo the delta image of g_{q+1}
    rank_dg = delta_map(r - 1, g_next).rank if r >= 1 else 0
    return f_dim, comb(n, r) * r_q_dim - rank_dg
