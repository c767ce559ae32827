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
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from . import linalg
from .config import record
from .poly import metric_cache

ZERO = Fraction(0)
ONE = Fraction(1)


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
    ambient_from_coords: tuple = None   # dense (ambient_dim x dim) rational matrix
    free_columns: tuple = None          # coordinate i = ambient component free_columns[i]
    constraints: tuple = None           # sparse rows over ambient columns

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
        return isinstance(other, BundleBasis) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def dual(self):
        """Adjoint-side relabeling; applying it twice returns the original."""
        if self.label.startswith("ad(") and self.label.endswith(")"):
            new = self.label[3:-1]
        else:
            new = f"ad({self.label})"
        return BundleBasis(label=new, n=self.n, element_labels=self.element_labels)

    def from_ambient(self, ambient_vec):
        """Coordinates of an ambient vector assumed to satisfy the constraints."""
        if self.is_free:
            return list(ambient_vec)
        return [ambient_vec[c] for c in self.free_columns]


def free_basis(label, n, element_labels):
    return BundleBasis(label=label, n=n, element_labels=tuple(element_labels))


def constrained_basis(label, n, ambient_labels, constraint_rows):
    """Basis of the solution space of ``constraint_rows . x = 0``.

    Deterministic: pivots scan ambient columns left to right, so the free
    components (and hence the labels) depend only on the constraints.
    """
    ambient_labels = tuple(ambient_labels)
    ncols = len(ambient_labels)
    rows = [dict(r) for r in constraint_rows if r]
    kernel, free_cols = linalg.integer_kernel(rows, ncols)
    a_matrix = [[ZERO] * len(kernel) for _ in range(ncols)]
    for j, (f, vec) in enumerate(zip(free_cols, kernel)):
        for c, v in vec.items():
            a_matrix[c][j] = Fraction(v, vec[f])
    return BundleBasis(
        label=label,
        n=n,
        element_labels=tuple(ambient_labels[c] for c in free_cols),
        ambient_labels=ambient_labels,
        ambient_from_coords=tuple(map(tuple, a_matrix)),
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


@lru_cache(maxsize=None)
def riemann_candidate_space(n):
    """Solution space of the linearized curvature symmetries in (T*)^4.

    Constraints: antisymmetry in the first and in the second index pair,
    symmetry under pair exchange, and the cyclic first identity.  The
    dimension comes out to n^2 (n^2 - 1) / 12.
    """
    idx = all_tuples(n, 4)
    col = {t: c for c, t in enumerate(idx)}
    rows = []
    for k, l, i, j in idx:
        if k <= l:
            rows.append({col[(k, l, i, j)]: ONE, col[(l, k, i, j)]: ONE}
                        if k != l else {col[(k, l, i, j)]: ONE})
        if i <= j:
            rows.append({col[(k, l, i, j)]: ONE, col[(k, l, j, i)]: ONE}
                        if i != j else {col[(k, l, i, j)]: ONE})
        if (k, l) < (i, j):
            rows.append({col[(k, l, i, j)]: ONE, col[(i, j, k, l)]: -ONE})
    for k in range(1, n + 1):
        for l, i, j in ext_tuples(n, 3):
            row = {}
            for a, b, c, d in ((k, l, i, j), (k, i, j, l), (k, j, l, i)):
                cidx = col[(a, b, c, d)]
                row[cidx] = row.get(cidx, ZERO) + ONE
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
                    row[c] = row.get(c, ZERO) + w
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


@metric_cache
def trace_free_sym2(n, metric=None):
    pairs = sym_tuples(n, 2)
    row = {}
    for c, (i, j) in enumerate(pairs):
        w = metric.upper(i, j)
        if w:
            row[c] = w * (2 if i != j else 1)
    return constrained_basis(
        "S2T*_0", n, [f"s{_digits(p)}" for p in pairs], [row])


@lru_cache(maxsize=None)
def lanczos_constraint_space(n):
    """Antisymmetric-pair potentials L_{ij,k} with vanishing cyclic sum."""
    pairs = ext_tuples(n, 2)
    idx = [(p, k) for p in pairs for k in range(1, n + 1)]
    col = {t: c for c, t in enumerate(idx)}
    rows = []
    for i, j, k in ext_tuples(n, 3):
        row = {}
        for (a, b), c in (((i, j), k), ((j, k), i), ((k, i), j)):
            slot, sign = _pair_slot(a, b)
            cc = col[(slot, c)]
            row[cc] = row.get(cc, ZERO) + sign
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
                alt = -ONE if pos % 2 else ONE
                for m in range(1, n + 1):
                    w = metric.upper(k, m)
                    if not w:
                        continue
                    slot, sign = _pair_slot(m, l)
                    if not sign:
                        continue
                    c = col[(slot, triple)]
                    row[c] = row.get(c, ZERO) + alt * w * sign
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    labels = [f"B{_digits(p)}_{_digits(t)}" for p, t in idx]
    return constrained_basis("BianchiSpace", n, labels, rows)


# ---------------------------------------------------------------------------
# Ricci/Weyl splitting

@record
class SplittingMaps:
    """Rational projectors realizing curvature = Ricci part + Weyl part."""

    n: int
    riemann_space: BundleBasis
    sym2_space: BundleBasis
    weyl_space: BundleBasis
    inject_ricci: tuple    # riemann_dim x sym2_dim
    project_ricci: tuple   # sym2_dim x riemann_dim
    inject_weyl: tuple     # riemann_dim x weyl_dim
    project_weyl: tuple    # weyl_dim x riemann_dim


def _ricci_inject_ambient(n, metric):
    """Dense (ambient x sym2) matrix of the metric-built curvature of a
    symmetric tensor: the unique candidate tensor whose trace returns it."""
    idx, _ = _riemann_ambient_index(n)
    pairs = sym_tuples(n, 2)
    pcol = {p: c for c, p in enumerate(pairs)}
    inv_nm2 = Fraction(1, n - 2)
    inv_sc = Fraction(1, (n - 1) * (n - 2))
    rows = []
    for k, l, i, j in idx:
        row = [ZERO] * len(pairs)

        def add_s(a, b, coef):
            if coef:
                row[pcol[(min(a, b), max(a, b))]] += coef

        add_s(l, j, inv_nm2 * metric.lower(k, i))
        add_s(l, i, -inv_nm2 * metric.lower(k, j))
        add_s(k, i, inv_nm2 * metric.lower(l, j))
        add_s(k, j, -inv_nm2 * metric.lower(l, i))
        gterm = metric.lower(k, i) * metric.lower(l, j) \
            - metric.lower(k, j) * metric.lower(l, i)
        if gterm:
            for a, b in pairs:
                w = metric.upper(a, b) * (2 if a != b else 1)
                if w:
                    row[pcol[(a, b)]] -= inv_sc * gterm * w
        rows.append(row)
    return rows


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
    pairs = sym_tuples(n, 2)

    a_r = [list(row) for row in r_space.ambient_from_coords]
    trace_rows = riemann_trace_rows(n, metric)
    u_amb = []
    for p in pairs:
        row = [ZERO] * len(r_space.ambient_labels)
        for c, v in trace_rows[p].items():
            row[c] = v
        u_amb.append(row)
    project_ricci = linalg.mat_mul(u_amb, a_r)

    f_amb = _ricci_inject_ambient(n, metric)
    inject_ricci = [[f_amb[c][j] for j in range(s2.dim)]
                    for c in r_space.free_columns]
    # safety: the injected tensor must satisfy every candidate symmetry
    back = linalg.mat_mul([list(r) for r in r_space.ambient_from_coords], inject_ricci)
    if back != [list(r) for r in f_amb]:
        raise AssertionError("metric-built curvature leaves the candidate space")
    # trace o inject = identity on symmetric tensors
    if linalg.mat_mul(u_amb, f_amb) != linalg.identity(s2.dim):
        raise AssertionError("trace does not invert the metric injection")

    a_w = [list(row) for row in w_space.ambient_from_coords]
    inject_weyl = [[a_w[c][j] for j in range(w_space.dim)]
                   for c in r_space.free_columns]
    if linalg.mat_mul([list(r) for r in r_space.ambient_from_coords], inject_weyl) != a_w:
        raise AssertionError("Weyl space is not inside the candidate space")

    fu = linalg.mat_mul(f_amb, project_ricci)
    resid_amb = [[a_r[c][j] - fu[c][j] for j in range(r_space.dim)]
                 for c in range(len(a_r))]
    project_weyl = [[resid_amb[c][j] for j in range(r_space.dim)]
                    for c in w_space.free_columns]
    if w_space.dim == 0:
        if not linalg.is_zero_matrix(resid_amb):
            raise AssertionError("trace-free remainder leaves the Weyl space")
    elif linalg.mat_mul([list(r) for r in w_space.ambient_from_coords],
                        project_weyl) != resid_amb:
        raise AssertionError("trace-free remainder leaves the Weyl space")

    ir_pr = linalg.mat_mul(inject_ricci, project_ricci)
    if w_space.dim == 0:
        iw_pw = [[ZERO] * r_space.dim for _ in range(r_space.dim)]
    else:
        iw_pw = linalg.mat_mul(inject_weyl, project_weyl)
    total = [[ir_pr[i][j] + iw_pw[i][j] for j in range(r_space.dim)]
             for i in range(r_space.dim)]
    if total != linalg.identity(r_space.dim):
        raise AssertionError("splitting does not recompose to the identity")
    if linalg.mat_mul(project_ricci, inject_ricci) != linalg.identity(s2.dim):
        raise AssertionError("Ricci projector is not a retraction")
    if w_space.dim and linalg.mat_mul(project_weyl, inject_weyl) != linalg.identity(w_space.dim):
        raise AssertionError("Weyl projector is not a retraction")
    if w_space.dim and not linalg.is_zero_matrix(linalg.mat_mul(project_ricci, inject_weyl)):
        raise AssertionError("Weyl image has nonzero trace")
    if w_space.dim and not linalg.is_zero_matrix(linalg.mat_mul(project_weyl, inject_ricci)):
        raise AssertionError("Ricci image has nonzero Weyl part")

    freeze = lambda m: tuple(tuple(v for v in row) for row in m)
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
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def eps_contraction_matrix(n=4):
    """Rows: directions l; columns: sorted triples; entry eps(l, triple).

    Realizes the volume-form relabeling L^3 T* -> T at n = 4 with
    eps_{1234} = +1; the matrix is a signed permutation and composing with
    its transpose gives the identity.
    """
    if n != 4:
        raise ValueError("volume relabeling implemented for n = 4")
    triples = ext_tuples(n, 3)
    mat = []
    for l in range(1, n + 1):
        mat.append([Fraction(perm_sign((l,) + t)) for t in triples])
    return mat


def pair_complement_matrix(n=4):
    """Signed involution of sorted pairs: (a,b) -> eps(a,b,k,l) (k,l)."""
    if n != 4:
        raise ValueError("pair complement implemented for n = 4")
    pairs = ext_tuples(n, 2)
    return [[Fraction(perm_sign(p + q)) for q in pairs] for p in pairs]


def bianchi_to_potential_relabel(n=4):
    """Signed permutation carrying the second-identity space onto the
    cyclic potential space at n = 4.

    Acts as the pair complement on the value factor and the volume
    contraction on the form factor; basis order is pair-major on both
    sides, matching the ambient orders of the two constrained spaces.
    """
    return kron(pair_complement_matrix(n), eps_contraction_matrix(n))


def kron(a, b):
    """Kronecker product of dense rational matrices (a outer, b inner)."""
    if not a or not b:
        return []
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[ZERO] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            f = a[i][j]
            if f:
                for p in range(rb):
                    for q in range(cb):
                        if b[p][q]:
                            out[i * rb + p][j * cb + q] = f * b[p][q]
    return out
