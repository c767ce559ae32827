"""Labeled bases for the tensor bundles of a flat metric.

Free bundles (tangent, symmetric and exterior powers, plain tensor products)
enumerate index tuples in a fixed lexicographic order.  Constrained bundles
(the Riemann/Weyl curvature candidate spaces, the potential space with its
cyclic condition, trace-free symmetric tensors, the second-identity space)
are cut out of an ambient free bundle by rational linear constraints; their
basis is produced by row reduction with the fixed column order, so each
basis element is tagged by the ambient component it represents and the
coordinates of a constrained tensor are simply its values at those free
components.

All dimension formulas quoted in tests are recomputed here from the
constraint ranks, never assumed.
"""

from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, product
from types import MappingProxyType

from . import linalg
from .config import cached, record
from .poly import metric_cache


def sym_tuples(n, q):
    """Nondecreasing index tuples of length q over 1..n (basis of S_q)."""
    return list(combinations_with_replacement(range(1, n + 1), q))


def ext_tuples(n, r):
    """Strictly increasing index tuples of length r over 1..n (basis of L^r)."""
    return list(combinations(range(1, n + 1), r))


def all_tuples(n, q):
    return list(product(range(1, n + 1), repeat=q))


def _digits(t):
    return "".join(str(i) for i in t)


@record
class BundleBasis:
    """A finite labeled basis, possibly realized inside an ambient bundle."""

    label: str
    n: int
    element_labels: tuple
    ambient_labels: tuple = None
    ambient_from_coords: tuple = None   # one read-only row {coordinate: rational} per ambient component
    free_columns: tuple = None          # coordinate i = ambient component free_columns[i]
    constraints: tuple = None           # sparse integer rows over ambient columns

    @property
    def dim(self):
        return len(self.element_labels)

    @property
    def is_free(self):
        return self.ambient_labels is None

    @property
    def ambient_dim(self):
        return self.dim if self.is_free else len(self.ambient_labels)

    def key(self):
        return (self.label, self.element_labels)

    def __eq__(self, other):
        """Label-based: a document holds labels only, and the space it loads
        must equal the builder's, so embeddings are not compared here.
        ``operators.compose`` compares them where both sides carry one."""
        return isinstance(other, BundleBasis) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def dual(self):
        """Adjoint-side relabeling; applying it twice returns the original."""
        return BundleBasis(label=dual_label(self.label), n=self.n,
                           element_labels=self.element_labels)

    def from_ambient(self, ambient_vec):
        """Coordinates ``{coordinate: value}`` of a sparse ambient vector
        ``{component: value}`` assumed to satisfy the constraints."""
        if self.is_free:
            return dict(ambient_vec)
        return {i: ambient_vec[c] for i, c in enumerate(self.free_columns) if c in ambient_vec}


def balanced(label):
    """Does every parenthesis of ``label`` close, and none close unopened?"""
    depths = [0, *accumulate((ch == "(") - (ch == ")") for ch in label)]
    return min(depths) == 0 == depths[-1]


def dual_label(label):
    """The adjoint side of an operator name or a bundle label: ``ad(x)``
    unwraps to ``x`` only when its parenthesis closes at the end, so
    ``ad(a) o ad(b)``, a composition, becomes ``ad(ad(a) o ad(b))``.  A
    second call undoes the first on ``balanced`` labels other than
    ``ad(ad(x))``, but not on others: ``a(`` gives ``ad(a()``, then ``ad(ad(a())``.
    Documents with such a name or label are refused (``serialize``)."""
    whole = label.startswith("ad(") and label.endswith(")") and balanced(label[3:-1])
    return label[3:-1] if whole else f"ad({label})"


def free_basis(label, n, element_labels):
    return BundleBasis(label=label, n=n, element_labels=tuple(element_labels))


def constrained_basis(label, n, ambient_labels, constraint_rows):
    """Basis of the solution space of ``constraint_rows . x = 0``.

    Deterministic: pivots scan ambient columns left to right, so the free
    components (and hence the labels) depend only on the constraints,
    which the space keeps as the integer rows the kernel reads.
    """
    ambient_labels = tuple(ambient_labels)
    ncols = len(ambient_labels)
    rows = [r for r in linalg._integer_rows(constraint_rows) if r]
    kernel, free_cols = linalg._kernel([dict(r) for r in rows], ncols)
    a_rows = [{} for _ in range(ncols)]
    for j, (f, vec) in enumerate(zip(free_cols, kernel)):
        for c, v in vec.items():
            a_rows[c][j] = Fraction(v, vec[f])
    return BundleBasis(
        label=label,
        n=n,
        element_labels=tuple(ambient_labels[c] for c in free_cols),
        ambient_labels=ambient_labels,
        ambient_from_coords=tuple(map(MappingProxyType, a_rows)),
        free_columns=tuple(free_cols),
        constraints=tuple(tuple(sorted(r.items())) for r in rows),
    )


def constraint_rows(basis):
    return [dict(r) for r in (basis.constraints or ())]


# ---------------------------------------------------------------------------
# free bundles

def tangent_space(n):
    return free_basis("T", n, [f"e{i}" for i in range(1, n + 1)])


def sym2_space(n):
    return free_basis("S2T*", n, [f"s{_digits(p)}" for p in sym_tuples(n, 2)])


def ext_space(n, r):
    return free_basis(f"L{r}T*", n, [f"w{_digits(p)}" for p in ext_tuples(n, r)])


# ---------------------------------------------------------------------------
# constrained bundles

def _pair_slot(i, j):
    """(sorted pair, sign) for an antisymmetric pair component."""
    if i == j:
        return None, 0
    return ((i, j), 1) if i < j else ((j, i), -1)


@cached
def riemann_candidate_space(n):
    """Solution space of the linearized curvature symmetries in (T*)^4.

    Constraints: antisymmetry in the first and in the second index pair,
    symmetry under pair exchange, and the cyclic first identity.  The
    dimension comes out to n^2 (n^2 - 1) / 12.
    """
    idx, col = _riemann_ambient_index(n)
    rows = []
    for k, l, i, j in idx:
        if k <= l:
            rows.append({col[(k, l, i, j)]: 1, col[(l, k, i, j)]: 1}
                        if k != l else {col[(k, l, i, j)]: 1})
        if i <= j:
            rows.append({col[(k, l, i, j)]: 1, col[(k, l, j, i)]: 1}
                        if i != j else {col[(k, l, i, j)]: 1})
        if (k, l) < (i, j):
            rows.append({col[(k, l, i, j)]: 1, col[(i, j, k, l)]: -1})
    for k in range(1, n + 1):
        for l, i, j in ext_tuples(n, 3):
            row = {}
            for a, b, c, d in ((k, l, i, j), (k, i, j, l), (k, j, l, i)):
                cidx = col[(a, b, c, d)]
                row[cidx] = row.get(cidx, 0) + 1
            rows.append({c: v for c, v in row.items() if v})
    labels = [f"R{_digits(t)}" for t in idx]
    return constrained_basis("RiemannSpace", n, labels, rows)


def _riemann_ambient_index(n):
    idx = all_tuples(n, 4)
    return idx, {t: c for c, t in enumerate(idx)}


def riemann_trace_rows(n, metric):
    """Sparse rows computing the Ricci trace R_ij = w^{rk} R_{ki,rj} from ambient."""
    _, col = _riemann_ambient_index(n)
    rows = {}
    for i, j in sym_tuples(n, 2):
        row = {}
        for r in range(1, n + 1):
            for k in range(1, n + 1):
                w = metric.upper(r, k)
                if w:
                    c = col[(k, i, r, j)]
                    row[c] = row.get(c, 0) + w
        rows[(i, j)] = {c: v for c, v in row.items() if v}
    return rows


@metric_cache
def weyl_candidate_space(n, metric=None):
    """Trace-free part of the curvature candidate space."""
    base = riemann_candidate_space(n)
    rows = constraint_rows(base)
    rows.extend(r for r in riemann_trace_rows(n, metric).values() if r)
    labels = [lab.replace("R", "W", 1) for lab in base.ambient_labels]
    return constrained_basis("WeylSpace", n, labels, rows)


def pair_trace(n, metric):
    """The metric trace w^{ij} T_ij as one coefficient per pair of
    ``sym_tuples(n, 2)``: an off-diagonal pair stands for T_ij and T_ji, so
    it counts twice."""
    return [metric.upper(i, j) * (2 if i != j else 1) for i, j in sym_tuples(n, 2)]


@metric_cache
def trace_free_sym2(n, metric=None):
    pairs = sym_tuples(n, 2)
    row = {c: t for c, t in enumerate(pair_trace(n, metric)) if t}
    return constrained_basis(
        "S2T*_0", n, [f"s{_digits(p)}" for p in pairs], [row])


@cached
def lanczos_constraint_space(n):
    """Antisymmetric-pair potentials L_{ij,k} with vanishing cyclic sum."""
    idx, col = lanczos_ambient_index(n)
    rows = []
    for i, j, k in ext_tuples(n, 3):
        row = {}
        for (a, b), c in (((i, j), k), ((j, k), i), ((k, i), j)):
            slot, sign = _pair_slot(a, b)
            cc = col[(slot, c)]
            row[cc] = row.get(cc, 0) + sign
        rows.append({c: v for c, v in row.items() if v})
    labels = [f"L{_digits(p)}_{k}" for p, k in idx]
    return constrained_basis("LanczosSpace", n, labels, rows)


def lanczos_ambient_index(n):
    pairs = ext_tuples(n, 2)
    idx = [(p, k) for p in pairs for k in range(1, n + 1)]
    return idx, {t: c for c, t in enumerate(idx)}


@metric_cache
def bianchi_candidate_space(n, metric=None):
    """Value space of the second identity: pairs x triples, alternation killed.

    Inside L^3 T* tensor the first-order symbol space (antisymmetric pairs),
    the constraints demand that the full four-index alternation of
    B^k_{l,(triple)} vanishes; the metric raises the first pair index.
    """
    pairs = ext_tuples(n, 2)
    triples = ext_tuples(n, 3)
    idx = [(p, t) for p in pairs for t in triples]
    col = {pt: c for c, pt in enumerate(idx)}
    rows = []
    for k in range(1, n + 1):
        for quad in ext_tuples(n, 4):
            row = {}
            for pos in range(4):
                l = quad[pos]
                triple = tuple(q for q in quad if q != l)
                alt = -1 if pos % 2 else 1
                for m in range(1, n + 1):
                    w = metric.upper(k, m)
                    if not w:
                        continue
                    slot, sign = _pair_slot(m, l)
                    if not sign:
                        continue
                    c = col[(slot, triple)]
                    row[c] = row.get(c, 0) + alt * w * sign
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    labels = [f"B{_digits(p)}_{_digits(t)}" for p, t in idx]
    return constrained_basis("BianchiSpace", n, labels, rows)


# ---------------------------------------------------------------------------
# Ricci/Weyl splitting

@record
class SplittingMaps:
    """Rational projectors realizing curvature = Ricci part + Weyl part,
    each one read-only sparse row ``{column: rational}`` per target
    coordinate."""

    n: int
    riemann_space: BundleBasis
    sym2_space: BundleBasis
    weyl_space: BundleBasis
    inject_ricci: tuple    # riemann_dim rows over sym2 coordinates
    project_ricci: tuple   # sym2_dim rows over riemann coordinates
    inject_weyl: tuple     # riemann_dim rows over weyl coordinates
    project_weyl: tuple    # weyl_dim rows over riemann coordinates


def _ricci_inject_ambient(n, metric):
    """Sparse rows (one per ambient component, over sym2 coordinates) of the
    metric-built curvature of a symmetric tensor: the unique candidate
    tensor whose trace returns it."""
    idx, _ = _riemann_ambient_index(n)
    pairs = sym_tuples(n, 2)
    pcol = {p: c for c, p in enumerate(pairs)}
    inv_nm2 = Fraction(1, n - 2)
    inv_sc = Fraction(1, (n - 1) * (n - 2))
    trace = pair_trace(n, metric)
    rows = []
    for k, l, i, j in idx:
        row = {}

        def add_s(a, b, coef):
            if coef:
                c = pcol[(min(a, b), max(a, b))]
                row[c] = row.get(c, 0) + coef

        add_s(l, j, inv_nm2 * metric.lower(k, i))
        add_s(l, i, -inv_nm2 * metric.lower(k, j))
        add_s(k, i, inv_nm2 * metric.lower(l, j))
        add_s(k, j, -inv_nm2 * metric.lower(l, i))
        gterm = metric.lower(k, i) * metric.lower(l, j) \
            - metric.lower(k, j) * metric.lower(l, i)
        if gterm:
            for (a, b), t in zip(pairs, trace):
                add_s(a, b, -inv_sc * gterm * t)
        rows.append({c: v for c, v in row.items() if v})
    return rows


def _unit_rows(k):
    return [{i: 1} for i in range(k)]


def _difference(a, b):
    """The sparse row ``a - b``."""
    out = dict(a)
    for j, v in b.items():
        out[j] = out.get(j, 0) - v
    return {j: v for j, v in out.items() if v}


@metric_cache
def split_riemann(n, metric=None):
    """Exact splitting of the curvature candidate space at n >= 3.

    Verifies, at construction time, that the four maps are a complementary
    pair of projectors: trace o inject = id, the Weyl part is trace free,
    and the two images recompose to the identity.
    """
    if n < 3:
        raise ValueError("splitting needs n >= 3")
    r_space = riemann_candidate_space(n)
    w_space = weyl_candidate_space(n, metric)
    s2 = sym2_space(n)
    mul = linalg.product

    a_r = r_space.ambient_from_coords
    trace_rows = riemann_trace_rows(n, metric)
    u_amb = [trace_rows[p] for p in sym_tuples(n, 2)]
    project_ricci = mul(u_amb, a_r)

    f_amb = _ricci_inject_ambient(n, metric)
    inject_ricci = [f_amb[c] for c in r_space.free_columns]
    # safety: the injected tensor must satisfy every candidate symmetry
    if mul(a_r, inject_ricci) != f_amb:
        raise AssertionError("metric-built curvature leaves the candidate space")
    # trace o inject = identity on symmetric tensors
    if mul(u_amb, f_amb) != _unit_rows(s2.dim):
        raise AssertionError("trace does not invert the metric injection")

    a_w = list(w_space.ambient_from_coords)
    inject_weyl = [a_w[c] for c in r_space.free_columns]
    if mul(a_r, inject_weyl) != a_w:
        raise AssertionError("Weyl space is not inside the candidate space")

    resid_amb = [_difference(a, fu) for a, fu in zip(a_r, mul(f_amb, project_ricci))]
    project_weyl = [resid_amb[c] for c in w_space.free_columns]
    if mul(a_w, project_weyl) != resid_amb:
        raise AssertionError("trace-free remainder leaves the Weyl space")

    rest = [_difference(u, a) for u, a in zip(
        _unit_rows(r_space.dim), mul(inject_ricci, project_ricci))]
    if rest != mul(inject_weyl, project_weyl):
        raise AssertionError("splitting does not recompose to the identity")
    if mul(project_ricci, inject_ricci) != _unit_rows(s2.dim):
        raise AssertionError("Ricci projector is not a retraction")
    if mul(project_weyl, inject_weyl) != _unit_rows(w_space.dim):
        raise AssertionError("Weyl projector is not a retraction")
    if any(mul(project_ricci, inject_weyl)):
        raise AssertionError("Weyl image has nonzero trace")
    if any(mul(project_weyl, inject_ricci)):
        raise AssertionError("Ricci image has nonzero Weyl part")

    freeze = lambda rows: tuple(map(MappingProxyType, rows))
    return SplittingMaps(
        n=n,
        riemann_space=r_space,
        sym2_space=s2,
        weyl_space=w_space,
        inject_ricci=freeze(inject_ricci),
        project_ricci=freeze(project_ricci),
        inject_weyl=freeze(inject_weyl),
        project_weyl=freeze(project_weyl),
    )


# ---------------------------------------------------------------------------
# volume-form relabeling

def perm_sign(seq):
    """Sign of a permutation given as a tuple; 0 if any index repeats."""
    if len(set(seq)) != len(seq):
        return 0
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


def eps_contraction_matrix():
    """Sparse rows: directions l; columns: sorted triples; entry eps(l, triple).

    Realizes the volume-form relabeling L^3 T* -> T at n = 4 with
    eps_{1234} = +1; the matrix is a signed permutation and composing with
    its transpose gives the identity.
    """
    return [_signed_row((l,), ext_tuples(4, 3)) for l in range(1, 5)]


def pair_complement_matrix():
    """Signed involution of sorted pairs at n = 4, as sparse rows:
    (a,b) -> eps(a,b,k,l) (k,l)."""
    pairs = ext_tuples(4, 2)
    return [_signed_row(p, pairs) for p in pairs]


def _signed_row(head, tails):
    """``{c: eps(head + tails[c])}`` over the nonzero signs."""
    return {c: Fraction(s) for c, t in enumerate(tails) if (s := perm_sign(head + t))}


def bianchi_to_potential_relabel():
    """Signed permutation carrying the second-identity space onto the
    cyclic potential space at n = 4, as sparse rows.

    Acts as the pair complement on the value factor and the volume
    contraction on the form factor; basis order is pair-major on both
    sides, matching the ambient orders of the two constrained spaces.
    """
    eps = eps_contraction_matrix()   # four triples per pair
    return [{4 * j + q: f * v for j, f in prow.items() for q, v in erow.items()}
            for prow in pair_complement_matrix() for erow in eps]
