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
candidates in one ascending sweep (graded Nakayama).  It skips that sweep
when told its input is a reduced basis lying in one degree d, as
``minimal_syzygies`` does for the chain steps: the leads are distinct and
divide no term of another element, and the S-pairs of two degree-d
elements lie above d, so the sweep would keep every element as its own
normal form and meet no cap that ``syzygies`` did not.  A reduced basis
in one degree is already minimal (Eisenbud, "The Geometry of Syzygies",
2005, ch. 1).

The completion runs on integers: inputs are scaled by their denominators'
lcm on entry, basis elements are primitive with a positive lead, S-pairs
are ``(lb/g) x^qa a - (la/g) x^qb b`` for leads ``la``, ``lb`` with gcd
``g``, and reduction is pseudo-reduction to a remainder of ``scale * vec``
(Greuel & Pfister, "A Singular Introduction to Commutative Algebra", 2008).
Fractions return only with results: ``reduced_elements`` divides tails by
``lead * scale``, public ``normal_form`` by the input's lcm times ``scale``.

Inside the engine a term is one int (Monagan & Pearce, J. Symb. Comp. 46,
2011).  Its fields, from the least significant: component, m[0]..m[n-1],
bias minus shifted degree, block bit.  Read from the top they are the sort
key (block, -degree, m[n-1], ..., m[0], component) of the order, so the
larger term is the smaller int and a heap of bare ints pops it first.  Each
exponent field has a guard bit over its value, so a lead l divides a term t
of its component exactly when ``(t - l) & guard`` is 0: the lowest exponent
of t below l's borrows into its guard.  Packing is linear, so a tail term u
times t / l packs to ``u + (t - l)``.  Fields hold shifted degrees up to
``top`` above the lowest shift: ``EXPONENT_CAP`` in ``ModuleGB``, whose
``_admit`` holds every entering vector to it, the data's bound elsewhere.

``generic_rank`` counts lead components.  The zero-shift TOP degrevlex
order is degree-compatible, so by Macaulay's basis theorem (Eisenbud,
"Commutative Algebra", 1995, ch. 15) R^m/M and R^m/in(M) have the same
Hilbert function, and in(M) is a sum of monomial ideals I_c e_c; hence
rank M over Q(x) is the number of components c with I_c != 0, which are
the components carrying a lead in a completed basis.

S-pairs are pruned by the Gebauer-Moeller update (Gebauer & Moeller 1988),
which drops a pair only when pairs of strictly smaller lcm, hence lower
degree, cover it, so staging by degree stays sound.  Buchberger's product
criterion is wrong for module elements and is left out: (x1, 0) and
(x2, x2) have coprime leads x1*e0 and x2*e0, yet their S-pair yields the
new basis element (0, x1*x2).
"""

import heapq
from fractions import Fraction
from math import gcd, inf
from operator import lshift

from .config import (EXPONENT_CAP, DegreeCapExceeded, ExponentCapExceeded,
                     degree_cap, record)
from .linalg import _integral, _primitive
from .poly import Poly, mono_divides, mono_lcm

ORDER_TAG = "degrevlex, term over position, low component wins ties"


# ---------------------------------------------------------------------------
# sparse module vectors: dict (component, monomial) -> Fraction or int

def _to_sparse(vec):
    return {(c, m): v for c, p in enumerate(vec) for m, v in p.terms.items()}


class _Row(tuple):
    """A generator row of ``Poly`` made by the engines; ``sparse`` is the
    vector of ``Fraction``s it was made from, so it is never converted back."""


def _sparse_of(row):
    return row.sparse if isinstance(row, _Row) else _to_sparse(row)


def _to_polys(sparse, ambient_rank, n):
    """The row of ``Poly`` of a sparse vector of ``Fraction``s, made without
    ``Poly``'s per-term checks; its zero cells share one zero ``Poly``."""
    zero = Poly.zero(n)
    row = [zero] * ambient_rank
    for (c, m), v in sparse.items():
        if row[c] is zero:
            row[c] = Poly.__new__(Poly)
            row[c].n, row[c].terms = n, {}
        row[c].terms[m] = v
    row = _Row(row)
    row.sparse = sparse
    return row


def _vec_degree(sparse, shifts):
    return max(sum(m) + shifts[c] for (c, m) in sparse)


def _canonical_rep(sparse):
    return tuple(sorted(
        (c, m, v.numerator, v.denominator) for (c, m), v in sparse.items()
    ))


class _Order:
    """Shifted TOP order on R^m terms in n variables, optionally with an
    elimination block, packed into ints for shifted degrees up to ``top``
    above the lowest shift (see the module docstring).

    Terms in components below ``block_start`` always exceed terms at or above
    it; that is the elimination property the syzygy harvest relies on."""

    def __init__(self, n, shifts, top, block_start=None):
        c, v = max(len(shifts) - 1, 1).bit_length(), top.bit_length()
        self.shifts, self.block_start = shifts, block_start
        self.bias, self.deg_at = top + min(shifts, default=0), c + n * (v + 1)
        self.offsets = tuple(range(c, self.deg_at, v + 1))
        self.cmask, self.emask = (1 << c) - 1, (1 << v) - 1
        self.guard = sum(1 << o + v for o in self.offsets)
        self.block = block_start is not None and 1 << self.deg_at + v

    def pack(self, term):
        c, m = term
        p = c + sum(map(lshift, m, self.offsets)) + (
            self.bias - sum(m) - self.shifts[c] << self.deg_at)
        return p + self.block if self.block and c >= self.block_start else p

    def unpack(self, p):
        return p & self.cmask, tuple([p >> o & self.emask for o in self.offsets])


# ---------------------------------------------------------------------------
# presentations

class GeneratorError(ValueError):
    """A generator row is zero or not homogeneous; the engines take neither."""


@record
class GradedPresentation:
    """Homogeneous generators of a graded submodule of R^ambient_rank.

    ``_sparse`` holds the generators as sparse vectors, converted once here
    or taken from engine-made rows, and ``_degrees`` their shifted degrees,
    computed once here; the engines read both and never mutate them."""

    n: int
    ambient_rank: int
    generators: tuple
    shifts: tuple = None

    def __post_init__(self):
        shifts = self.shifts if self.shifts is not None else (0,) * self.ambient_rank
        object.__setattr__(self, "shifts", tuple(shifts))
        object.__setattr__(self, "generators", tuple(
            g if isinstance(g, _Row) else tuple(g) for g in self.generators))
        if len(self.shifts) != self.ambient_rank:
            raise ValueError("one shift per ambient component required")
        sparse, degrees = [], []
        for i, g in enumerate(self.generators):
            if len(g) != self.ambient_rank:
                raise ValueError("generator arity does not match ambient rank")
            s = _sparse_of(g)
            if not s:
                raise GeneratorError(f"row {i} is zero")
            degs = {sum(m) + self.shifts[c] for (c, m) in s}
            if len(degs) > 1:
                raise GeneratorError(f"row {i} mixes shifted degrees {sorted(degs)}")
            sparse.append(s)
            degrees.append(degs.pop())
        object.__setattr__(self, "_sparse", tuple(sparse))
        object.__setattr__(self, "_degrees", tuple(degrees))


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
    """Pseudo-reduction of a packed integer vector: ``(scale, remainder)``,
    with ``scale * vec - remainder`` in the span of the reducers and no term
    of ``remainder`` divisible by a lead.  ``by_component`` maps a component
    to ``(packed lead, lead coefficient, tail)`` with integer leads above 0.

    To cancel a term ``f`` by a lead ``l``, the pending terms and ``scale``
    are first multiplied by ``l / gcd(l, f)``; finished terms catch up with
    ``scale`` at the end.  Pending terms sit in a heap, largest first; a
    reduction only adds terms below the one it reduces, so a popped term no
    longer pending is stale."""
    work = dict(vec)
    out = []
    scale = 1
    cmask, guard = order.cmask, order.guard
    heap = list(work)
    heapq.heapify(heap)
    while heap:
        term = heapq.heappop(heap)
        coef = work.pop(term, None)
        if coef is None:
            continue
        for lead, lc, tail in by_component.get(term & cmask, ()):
            if not term - lead & guard:
                break
        else:
            out.append((term, coef, scale))
            continue
        g = gcd(lc, coef)
        if g != lc:
            a = lc // g
            scale *= a
            for t in work:
                work[t] *= a
        f = coef // g
        q = term - lead
        for t, v in tail:
            t += q
            nv = work.get(t, 0) - f * v
            if not nv:
                del work[t]
                continue
            if t not in work:
                heapq.heappush(heap, t)
            work[t] = nv
    return scale, {t: v * (scale // s) for t, v, s in out}


def _reducer(vec, order):
    """``(component, (packed lead, lead coefficient > 0, tail))``, primitive."""
    lead = min(vec)
    vec = _primitive(vec)
    sign = 1 if vec[lead] > 0 else -1
    tail = tuple((t, sign * v) for t, v in vec.items() if t != lead)
    return lead & order.cmask, (lead, sign * vec[lead], tail)


class ModuleGB:
    """Incremental Buchberger completion, staged by (shifted) degree, of the
    sparse vectors ``gens`` in n variables under the TOP order with
    ``shifts`` (and an elimination block from ``block_start``, if given).

    Reduction keeps the shifted degree of every term it replaces, so the
    exponent cap is checked once per vector that enters (input or S-pair),
    against its shifted degree less the lowest shift, and not per product.
    The degree cap is read once, here, from ``config.degree_cap``.  ``stats``
    counts S-pairs: ``queued`` formed, ``pruned`` dropped by the pair
    criteria, ``processed`` reduced, ``zero`` of those reduced to zero.
    """

    def __init__(self, n, shifts, gens=(), block_start=None):
        self.order = _Order(n, shifts, EXPONENT_CAP, block_start)
        self.cap = degree_cap()
        self.basis = []
        self.by_component = {}  # component -> [(packed lead, lead coef, tail)]
        self.leads = {}     # component -> [lead monomial], for the pair criteria
        self.pairs = []     # heap of (degree, serial, component, a, b)
        self.live = {}      # component -> {(a, b): lcm} of pairs still due
        self.stats = {"queued": 0, "pruned": 0, "processed": 0, "zero": 0}
        self._counter = 0
        self._top = EXPONENT_CAP + min(shifts, default=0)
        for vec in gens:
            self.add(vec)

    def _admit(self, deg):
        if deg > self._top:
            raise ExponentCapExceeded(f"degree {deg} allows exponents above {EXPONENT_CAP}")

    def _register(self, vec):
        comp, member = _reducer(vec, self.order)
        mono = self.order.unpack(member[0])[1]
        self.basis.append(member)
        monos = self.leads.setdefault(comp, [])
        live = self.live.setdefault(comp, {})
        # B: a due pair whose lcm the new lead divides is covered by the two
        # pairs with the new element, unless one of them has the same lcm.
        covered = [(a, b) for (a, b), lcm in live.items() if mono_divides(mono, lcm)
                   and mono_lcm(monos[a], mono) != lcm
                   and mono_lcm(monos[b], mono) != lcm]
        for pair in covered:
            del live[pair]
        # M and F: keep one new pair per minimal lcm.  Ascending degree puts
        # every strict divisor first, and divisibility is transitive.
        new = sorted((sum(lcm), a, lcm) for a, lcm in enumerate(
            mono_lcm(m, mono) for m in monos))
        kept = []
        for deg, a, lcm in new:
            if not any(mono_divides(k, lcm) for k in kept):
                kept.append(lcm)
                live[(a, len(monos))] = lcm
                self._counter += 1
                heapq.heappush(self.pairs, (deg + self.order.shifts[comp],
                                            self._counter, comp, a, len(monos)))
        self.stats["queued"] += len(new)
        self.stats["pruned"] += len(covered) + len(new) - len(kept)
        self.by_component.setdefault(comp, []).append(member)
        monos.append(mono)

    def add(self, vec):
        """Reduce against the current basis and insert if nonzero."""
        red = self.normal_form(vec)
        if not red:
            return False
        self._register(red)
        return True

    def ensure_degree(self, deg):
        """Process every due S-pair of shifted degree <= deg; the lowest one
        due above the degree cap raises ``DegreeCapExceeded``."""
        while self.pairs and self.pairs[0][0] <= deg:
            d, _, comp, a, b = heapq.heappop(self.pairs)
            lcm = self.live[comp].pop((a, b), None)
            if lcm is None:
                continue  # pruned after it was queued
            if d > self.cap:
                raise DegreeCapExceeded(
                    f"completion needs S-pairs of degree {d}, above cap {self.cap}",
                    degree=d)
            self._admit(d)
            (pa, la, ta), (pb, lb, tb) = self.by_component[comp][a], self.by_component[comp][b]
            at = self.order.pack((comp, lcm))
            qa, qb = at - pa, at - pb
            g = gcd(la, lb)
            fa, fb = lb // g, la // g  # fa * la == fb * lb: the leads cancel
            s = {qa + t: fa * v for t, v in ta}
            for t, v in tb:
                t += qb
                nv = s.get(t, 0) - fb * v
                if nv:
                    s[t] = nv
                else:
                    del s[t]
            red = _reduce_sparse(s, self.by_component, self.order)[1]
            self.stats["processed"] += 1
            if red:
                self._register(red)
            else:
                self.stats["zero"] += 1

    def complete(self):
        self.ensure_degree(inf)

    def normal_form(self, vec):
        """Packed integer remainder of an incoming vector (a positive multiple of
        its normal form)."""
        self._admit(_vec_degree(vec, self.order.shifts))
        ints = {self.order.pack(t): v for t, v in _integral(vec)[1].items()}
        return _reduce_sparse(ints, self.by_component, self.order)[1]

    def reduced_elements(self):
        """Unique reduced basis: minimal leads, tails fully reduced, monic.

        Leads are distinct, so minimality is checked within each component.
        An element never reduces its own tail, which lies below its lead.
        Under an elimination order only elements led from ``block_start`` on
        are kept: all their terms lie there, where no other lead divides them.
        """
        self.complete()
        guard = self.order.guard
        keep = {comp: [e for e in members if not any(
                    p != e[0] and not e[0] - p & guard for p, _, _ in members)]
                for comp, members in self.by_component.items()
                if comp >= (self.order.block_start or 0)}
        final = []
        for members in keep.values():
            for lead, lc, tail in members:
                scale, red = _reduce_sparse(tail, keep, self.order)
                final.append((lead, lc * scale, red))
        final.sort(key=lambda e: e[0], reverse=True)
        unpack = self.order.unpack
        return [{unpack(lead): Fraction(1), **{
                    unpack(t): Fraction(v, den) for t, v in red.items()}}
                for lead, den, red in final]


# ---------------------------------------------------------------------------
# public operations

def reduced_groebner(pres):
    elems = ModuleGB(pres.n, pres.shifts, pres._sparse).reduced_elements()
    return GroebnerBasis(
        n=pres.n,
        ambient_rank=pres.ambient_rank,
        elements=tuple(_to_polys(e, pres.ambient_rank, pres.n) for e in elems),
        shifts=pres.shifts,
    )


def normal_form(vec, gb):
    """Full (exact rational) remainder of a vector of polynomials against a
    reduced basis; no cap is checked, so the packing is laid out for the
    highest shifted degree of the input and the basis, which reduction keeps."""
    elems = [_integral(_to_sparse(e))[1] for e in gb.elements]
    den, ints = _integral(_to_sparse(tuple(vec)))
    lo = min(gb.shifts, default=0)
    order = _Order(gb.n, gb.shifts, max(
        (sum(m) + gb.shifts[c] - lo for s in elems + [ints] for c, m in s), default=0))
    by_comp = {}
    for e in elems:
        comp, member = _reducer({order.pack(t): v for t, v in e.items()}, order)
        by_comp.setdefault(comp, []).append(member)
    scale, red = _reduce_sparse({order.pack(t): v for t, v in ints.items()}, by_comp, order)
    return _to_polys({order.unpack(t): Fraction(v, den * scale) for t, v in red.items()},
                     gb.ambient_rank, gb.n)


def syzygies(pres):
    """Reduced generating set of the relation module of ``pres``'s generators.

    The result lives in R^k (k = number of generators) with shifts equal to
    the generator degrees, so its own grading is honest.
    """
    m, k, degs = pres.ambient_rank, len(pres._sparse), pres._degrees
    one = (0,) * pres.n
    gb = ModuleGB(pres.n, pres.shifts + degs, (
        {**g, (m + i, one): Fraction(1)} for i, g in enumerate(pres._sparse)),
        block_start=m)
    return GradedPresentation(
        n=pres.n,
        ambient_rank=k,
        generators=tuple(_to_polys({(c - m, mono): v for (c, mono), v in e.items()},
                                   k, pres.n) for e in gb.reduced_elements()),
        shifts=degs,
    )


def minimal_graded_generators(pres, reduced=False):
    """Greedy minimal generating subset, ascending by degree (graded Nakayama).

    An element is kept exactly when it is not a combination of elements kept
    before it; processing degrees in increasing order makes the count per
    degree equal to dim M_d / (R_+ M)_d, which is the minimal possible.
    ``reduced``: the generators are a reduced basis (as ``syzygies`` returns
    them), so in one degree all are kept with no completion.
    """
    gens = pres._sparse
    decorated = sorted(((deg, _canonical_rep(g)), i)
                       for i, (deg, g) in enumerate(zip(pres._degrees, gens)))
    if reduced and len(set(pres._degrees)) <= 1:
        kept = [pres.generators[i] for _, i in decorated]
    else:
        gb = ModuleGB(pres.n, pres.shifts)
        kept = []
        for (deg, _), i in decorated:
            gb.ensure_degree(deg)
            if gb.add(gens[i]):
                kept.append(pres.generators[i])
    return GradedPresentation(
        n=pres.n,
        ambient_rank=pres.ambient_rank,
        generators=tuple(kept),
        shifts=pres.shifts,
    )


def minimal_syzygies(pres):
    """``minimal_graded_generators(syzygies(pres))``: the same rows in the same
    order, with no second completion when the syzygies lie in one degree."""
    return minimal_graded_generators(syzygies(pres), reduced=True)


def module_equality(a, b):
    """Do two presentations generate the same submodule of R^m?"""
    if a.n != b.n or a.ambient_rank != b.ambient_rank:
        raise ValueError("presentations live in different ambient modules")
    # zero shifts, not the presentations' own: the cap bounds unshifted degrees
    zero_shifts = (0,) * a.ambient_rank
    wa, wb = (ModuleGB(p.n, zero_shifts, p._sparse) for p in (a, b))
    wa.complete()
    wb.complete()
    return (not any(wa.normal_form(s) for s in b._sparse)
            and not any(wb.normal_form(s) for s in a._sparse))


def generic_rank(rows):
    """Rank over the fraction field of a matrix of ``Poly`` rows: the number
    of components that carry a lead once the nonzero rows' basis is complete."""
    gens = [s for s in map(_sparse_of, rows) if s]
    if not gens:
        return 0
    gb = ModuleGB(rows[0][0].n, (0,) * len(rows[0]), gens)
    gb.complete()
    return len(gb.by_component)
