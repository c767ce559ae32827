"""Module Groebner bases, syzygies, and minimal generators over Q[x1..xn].

Vectors live in a free module R^m.  The term order is term-over-position:
compare monomials degrevlex first, then prefer the lower component index.
Graded bookkeeping allows a degree shift per ambient component, so syzygy
modules of rows of different orders stay honestly graded.

Syzygies use tagged generators: each generator is augmented with a fresh
tracking component, a basis is completed under a block order that makes
every original component beat every tracking component, and the elements
supported purely on tracking components are exactly a reduced basis of the
syzygy module.

Completion is staged by degree.  Since all inputs are homogeneous, the basis
completed through all S-pairs of degree <= d decides membership for any
vector of degree <= d; ``minimal_graded_generators`` leans on that to filter
candidates in one ascending sweep (graded Nakayama).

S-pairs are pruned by the Gebauer-Moeller update (Gebauer & Moeller 1988),
which drops a pair only when pairs of strictly smaller lcm, hence lower
degree, cover it, so staging by degree stays sound.  Buchberger's product
criterion is wrong for module elements and is left out: (x1, 0) and
(x2, x2) have coprime leads x1*e0 and x2*e0, yet their S-pair yields the
new basis element (0, x1*x2).
"""

import heapq
from fractions import Fraction

from .config import DegreeCapExceeded, degree_cap, record
from .poly import Poly, mono_divides, mono_lcm, mono_mul, mono_sub

ORDER_TAG = "degrevlex, term over position, low component wins ties"


# ---------------------------------------------------------------------------
# sparse module vectors: dict (component, monomial) -> Fraction

def _to_sparse(vec):
    out = {}
    for c, p in enumerate(vec):
        for m, v in p.terms.items():
            out[(c, m)] = v
    return out


def _to_polys(sparse, ambient_rank, n):
    cols = [dict() for _ in range(ambient_rank)]
    for (c, m), v in sparse.items():
        cols[c][m] = v
    return tuple(Poly(n, terms) for terms in cols)


def _vec_degree(sparse, shifts):
    return max(sum(m) + shifts[c] for (c, m) in sparse)


def _is_homogeneous(sparse, shifts):
    degs = {sum(m) + shifts[c] for (c, m) in sparse}
    return len(degs) <= 1


def _canonical_rep(sparse):
    return tuple(sorted(
        (c, m, v.numerator, v.denominator) for (c, m), v in sparse.items()
    ))


class _Order:
    """Shifted TOP order on R^m terms, optionally with an elimination block.

    Terms in components below ``block_start`` always exceed terms at or above
    it; that is the elimination property the syzygy harvest relies on.
    """

    def __init__(self, shifts, block_start=None):
        self.shifts = shifts
        self.block_start = block_start
        self._keys = {}

    def key(self, term):
        """Memoized sort key; the larger term has the smaller key."""
        k = self._keys.get(term)
        if k is None:
            c, m = term
            k = (-sum(m) - self.shifts[c],) + tuple(reversed(m)) + (c,)
            if self.block_start is not None:
                k = (0 if c < self.block_start else 1,) + k
            self._keys[term] = k
        return k


# ---------------------------------------------------------------------------
# presentations

@record
class GradedPresentation:
    """Homogeneous generators of a graded submodule of R^ambient_rank.

    ``_sparse`` holds the generators as sparse vectors, converted once here;
    the engines read it and never mutate it."""

    n: int
    ambient_rank: int
    generators: tuple
    shifts: tuple = None

    def __post_init__(self):
        shifts = self.shifts if self.shifts is not None else (0,) * self.ambient_rank
        object.__setattr__(self, "shifts", tuple(shifts))
        object.__setattr__(self, "generators", tuple(tuple(g) for g in self.generators))
        if len(self.shifts) != self.ambient_rank:
            raise ValueError("one shift per ambient component required")
        sparse = []
        for g in self.generators:
            if len(g) != self.ambient_rank:
                raise ValueError("generator arity does not match ambient rank")
            s = _to_sparse(g)
            if not s:
                raise ValueError("zero generator not allowed")
            if not _is_homogeneous(s, self.shifts):
                raise ValueError("generator is not homogeneous")
            sparse.append(s)
        object.__setattr__(self, "_sparse", tuple(sparse))

    def generator_degrees(self):
        return tuple(_vec_degree(s, self.shifts) for s in self._sparse)


@record
class GroebnerBasis:
    """Reduced basis: monic elements, sorted by leading term, autoreduced."""

    n: int
    ambient_rank: int
    elements: tuple
    shifts: tuple
    order_tag: str = ORDER_TAG


# ---------------------------------------------------------------------------
# the worker

def _reduce_sparse(vec, by_component, order):
    """Full normal form of a sparse vector against monic reducers.

    Pending terms sit in a heap, largest first; a reduction only adds terms
    below the one it reduces, so a popped term no longer pending is stale."""
    work = dict(vec)
    out = {}
    key = order.key
    heap = [(key(t), t) for t in work]
    heapq.heapify(heap)
    while heap:
        term = heapq.heappop(heap)[1]
        coef = work.pop(term, None)
        if coef is None:
            continue
        c, m = term
        for lead_m, red in by_component.get(c, ()):
            if mono_divides(lead_m, m):
                break
        else:
            out[term] = coef
            continue
        q = mono_sub(m, lead_m)
        for (c2, m2), v in red.items():
            t = (c2, mono_mul(q, m2))
            if t == term:
                continue
            nv = work.get(t, _ZERO) - coef * v
            if not nv:
                del work[t]
                continue
            if t not in work:
                heapq.heappush(heap, (key(t), t))
            work[t] = nv
    return out


_ZERO = Fraction(0)


class ModuleGB:
    """Incremental Buchberger completion, staged by (shifted) degree.

    ``stats`` counts S-pairs: ``queued`` formed, ``pruned`` dropped by the
    pair criteria, ``processed`` reduced, ``zero`` of those reduced to zero.
    """

    def __init__(self, ambient_rank, order, cap):
        self.ambient_rank = ambient_rank
        self.order = order
        self.cap = cap
        self.basis = []
        self.by_component = {}  # component -> [(lead monomial, element)]
        self.pairs = []     # heap of (degree, serial, component, a, b)
        self.live = {}      # component -> {(a, b): lcm} of pairs still due
        self.stats = {"queued": 0, "pruned": 0, "processed": 0, "zero": 0}
        self._counter = 0

    def _register(self, vec):
        comp, mono = lead = min(vec, key=self.order.key)
        lc = vec[lead]
        if lc != 1:
            inv = Fraction(1) / lc
            vec = {t: v * inv for t, v in vec.items()}
        self.basis.append(vec)
        members = self.by_component.setdefault(comp, [])
        live = self.live.setdefault(comp, {})
        # B: a due pair whose lcm the new lead divides is covered by the two
        # pairs with the new element, unless one of them has the same lcm.
        covered = [(a, b) for (a, b), lcm in live.items() if mono_divides(mono, lcm)
                   and mono_lcm(members[a][0], mono) != lcm
                   and mono_lcm(members[b][0], mono) != lcm]
        for pair in covered:
            del live[pair]
        # M and F: keep one new pair per minimal lcm.  Ascending degree puts
        # every strict divisor first, and divisibility is transitive.
        new = sorted((sum(lcm), a, lcm) for a, lcm in enumerate(
            mono_lcm(m, mono) for m, _ in members))
        kept = []
        for deg, a, lcm in new:
            if not any(mono_divides(k, lcm) for k in kept):
                kept.append(lcm)
                live[(a, len(members))] = lcm
                self._counter += 1
                heapq.heappush(self.pairs, (deg + self.order.shifts[comp],
                                            self._counter, comp, a, len(members)))
        self.stats["queued"] += len(new)
        self.stats["pruned"] += len(covered) + len(new) - len(kept)
        members.append((mono, vec))

    def add(self, vec):
        """Reduce against the current basis and insert if nonzero."""
        red = _reduce_sparse(vec, self.by_component, self.order)
        if not red:
            return False
        self._register(red)
        return True

    def ensure_degree(self, deg):
        """Process every due S-pair of shifted degree <= deg."""
        while self.pairs and self.pairs[0][0] <= deg:
            _, _, comp, a, b = heapq.heappop(self.pairs)
            lcm = self.live[comp].pop((a, b), None)
            if lcm is None:
                continue  # pruned after it was queued
            (ma, va), (mb, vb) = self.by_component[comp][a], self.by_component[comp][b]
            qa, qb = mono_sub(lcm, ma), mono_sub(lcm, mb)
            s = {}
            for (c, m), v in va.items():
                s[(c, mono_mul(qa, m))] = v
            for (c, m), v in vb.items():
                t = (c, mono_mul(qb, m))
                nv = s.get(t, _ZERO) - v
                if nv:
                    s[t] = nv
                else:
                    s.pop(t, None)
            red = _reduce_sparse(s, self.by_component, self.order)
            self.stats["processed"] += 1
            if red:
                self._register(red)
            else:
                self.stats["zero"] += 1

    def complete(self):
        self.ensure_degree(self.cap)
        due = [sum(lcm) + self.order.shifts[c]
               for c, pairs in self.live.items() for lcm in pairs.values()]
        if due:
            raise DegreeCapExceeded(
                f"completion needs S-pairs of degree {min(due)}, above cap {self.cap}",
                degree=min(due))

    def normal_form(self, vec, deg=None):
        if deg is None:
            self.complete()
        else:
            self.ensure_degree(deg)
        return _reduce_sparse(vec, self.by_component, self.order)

    def reduced_elements(self):
        """Unique reduced basis: minimal leads, tails fully reduced, monic.

        Leads are distinct, so minimality is checked within each component.
        An element never reduces its own tail, which lies below its lead.
        """
        self.complete()
        keep = {}
        for comp, members in self.by_component.items():
            leads = [m for m, _ in members]
            keep[comp] = [
                (m, vec) for m, vec in members
                if not any(m2 != m and mono_divides(m2, m) for m2 in leads)]
        final = []
        for comp, members in keep.items():
            for m, vec in members:
                tail = dict(vec)
                red = {(comp, m): tail.pop((comp, m))}
                red.update(_reduce_sparse(tail, keep, self.order))
                final.append(red)
        final.sort(key=lambda v: self.order.key(next(iter(v))), reverse=True)
        return final


def _worker_for(pres, cap=None):
    order = _Order(pres.shifts)
    gb = ModuleGB(pres.ambient_rank, order, degree_cap(cap))
    for s in pres._sparse:
        gb.add(s)
    return gb


# ---------------------------------------------------------------------------
# public operations

def reduced_groebner(pres, cap=None):
    gb = _worker_for(pres, cap)
    elems = gb.reduced_elements()
    return GroebnerBasis(
        n=pres.n,
        ambient_rank=pres.ambient_rank,
        elements=tuple(_to_polys(e, pres.ambient_rank, pres.n) for e in elems),
        shifts=pres.shifts,
    )


def normal_form(vec, gb):
    """Full remainder of a vector of polynomials against a reduced basis."""
    order = _Order(gb.shifts)
    by_comp = {}
    for e in gb.elements:
        s = _to_sparse(e)
        lead = min(s, key=order.key)
        by_comp.setdefault(lead[0], []).append((lead[1], s))
    red = _reduce_sparse(_to_sparse(tuple(vec)), by_comp, order)
    return _to_polys(red, gb.ambient_rank, gb.n)


def syzygies(pres, cap=None):
    """Reduced generating set of the relation module of ``pres``'s generators.

    The result lives in R^k (k = number of generators) with shifts equal to
    the generator degrees, so its own grading is honest.
    """
    m = pres.ambient_rank
    gens = pres._sparse
    k = len(gens)
    degs = tuple(_vec_degree(g, pres.shifts) for g in gens)
    order = _Order(pres.shifts + degs, block_start=m)
    gb = ModuleGB(m + k, order, degree_cap(cap))
    for i, g in enumerate(gens):
        tagged = dict(g)
        tagged[(m + i, (0,) * pres.n)] = Fraction(1)
        gb.add(tagged)
    harvested = []
    for e in gb.reduced_elements():
        if all(c >= m for (c, _) in e):
            harvested.append({(c - m, mono): v for (c, mono), v in e.items()})
    return GradedPresentation(
        n=pres.n,
        ambient_rank=k,
        generators=tuple(_to_polys(h, k, pres.n) for h in harvested),
        shifts=degs,
    )


def minimal_graded_generators(pres, cap=None):
    """Greedy minimal generating subset, ascending by degree (graded Nakayama).

    An element is kept exactly when it is not a combination of elements kept
    before it; processing degrees in increasing order makes the count per
    degree equal to dim M_d / (R_+ M)_d, which is the minimal possible.
    """
    gens = pres._sparse
    order = _Order(pres.shifts)
    decorated = sorted(
        (( _vec_degree(g, pres.shifts), _canonical_rep(g)), i)
        for i, g in enumerate(gens)
    )
    gb = ModuleGB(pres.ambient_rank, order, degree_cap(cap))
    kept = []
    for (deg, _), i in decorated:
        red = gb.normal_form(gens[i], deg=deg)
        if red:
            gb._register(red)
            kept.append(pres.generators[i])
    return GradedPresentation(
        n=pres.n,
        ambient_rank=pres.ambient_rank,
        generators=tuple(kept),
        shifts=pres.shifts,
    )


def module_equality(a, b, cap=None):
    """Do two presentations generate the same submodule of R^m?"""
    if a.n != b.n or a.ambient_rank != b.ambient_rank:
        raise ValueError("presentations live in different ambient modules")
    # zero shifts, not the presentations' own: the cap bounds unshifted degrees
    zero_shifts = (0,) * a.ambient_rank
    wa = ModuleGB(a.ambient_rank, _Order(zero_shifts), degree_cap(cap))
    for s in a._sparse:
        wa.add(s)
    wb = ModuleGB(b.ambient_rank, _Order(zero_shifts), degree_cap(cap))
    for s in b._sparse:
        wb.add(s)
    wa.complete()
    wb.complete()
    return (not any(wa.normal_form(s) for s in b._sparse)
            and not any(wb.normal_form(s) for s in a._sparse))


def generic_rank(rows, n=None):
    """Rank over the fraction field, by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    if n is None:
        n = rows[0][0].n
    ncols = len(rows[0])
    mat = [row[:] for row in rows]
    prev = Poly.one(n)
    r = 0
    limit = min(len(mat), ncols)
    while r < limit:
        best = None
        for i in range(r, len(mat)):
            for j in range(r, ncols):
                p = mat[i][j]
                if p.is_zero():
                    continue
                cand = (p.degree(), len(p.terms), i, j)
                if best is None or cand < best:
                    best = cand
        if best is None:
            break
        _, _, bi, bj = best
        if bi != r:
            mat[r], mat[bi] = mat[bi], mat[r]
        if bj != r:
            for row in mat:
                row[r], row[bj] = row[bj], row[r]
        piv = mat[r][r]
        for i in range(r + 1, len(mat)):
            head = mat[i][r]
            for j in range(r + 1, ncols):
                num = mat[i][j] * piv - head * mat[r][j]
                mat[i][j] = num.divexact(prev) if num else num
            mat[i][r] = Poly.zero(n)
        prev = piv
        r += 1
    return r
