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
candidates in one ascending sweep (graded Nakayama).  ``minimal_syzygies``
mostly skips it.  A syzygy is born from an input row or a pair led in the
original block; one from a pair of syzygies lies in the module of those
before it, so the born ones generate it.  If all births have one degree d0,
the minimal generators are the reduced elements of degree d0 (Eisenbud,
"The Geometry of Syzygies", 2005, ch. 1).  So ``ensure_degree`` completes
the original block only: a birth reduces later vectors at once, but its
pairs wait, and a pair of syzygies is cap-checked and set aside.  No pair
of syzygies has degree <= d0 (two leads of one degree have a higher lcm),
and original-block reduction never reads a syzygy lead, which lies on
another component.  The waiting births pair, in arrival order, and the
pairs set aside queue again, when (a) a pair of degree d > d0 leaves a
syzygy, which is reduced again once every pair of syzygies through d is,
so a birth above d0 is a minimal generator there and the sweep runs; (b)
``complete`` finishes; (c) at the end, a pair of births could pass a cap:
they are then set aside too, once cap-checked.  While completing, the
syzygy block is only top-reduced: a reduction stops at its first term
there that no lead divides, which keeps every lead and zero test;
``reduced_elements`` reduces fully.

The completion runs on integers: basis elements are primitive with a
positive lead, S-pairs are ``(lb/g) x^qa a - (la/g) x^qb b`` for leads
``la``, ``lb`` with gcd ``g``, and reduction is pseudo-reduction to a
remainder of ``scale * vec`` (Greuel & Pfister, "A Singular Introduction to
Commutative Algebra", 2008).  A generator is stored as one integer vector
``(den, {(component, monomial): int})``, the row times ``den``, in lowest
terms: ``den`` and the entries share no factor, so ``den`` is the lcm of the
row's denominators and equal rows have equal vectors.  A
``GradedPresentation`` holds these vectors, made by the engines
(``reduced_elements`` unpacks each basis element, monic, straight to its
vector) or by ``from_rows``, which converts a row of ``Poly`` cells once.
So a syzygy step hands its rows to the next step, and to ``operators``, as
integer vectors, and ``Poly`` cells are made only when a caller reads
``generators`` (``_cells``).

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
Each order packs through two tables: one per component (the component, its
shifted bias and the block bit) and one per monomial (its exponent fields
less its degree), so a term packs to the sum of two lookups, and a
monomial's entry is also the shift that multiplies a packed term by it.
Unpacking reads the exponent fields through a third table keyed by their
bits.  The monomial tables fill on first use, so they hold only the
monomials an order meets.

``_vector_rank`` counts lead components.  The zero-shift TOP degrevlex
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
from functools import cached_property
from math import gcd, inf
from operator import lshift

from .config import (EXPONENT_CAP, DegreeCapExceeded, ExponentCapExceeded,
                     degree_cap, record)
from .linalg import _integral, _primitive
from .poly import Poly, mono_divides, mono_lcm


# ---------------------------------------------------------------------------
# rows: integer vectors, with Poly cells at the edges

def _row_vector(n, width, row):
    """The integer vector of a row of ``width`` ``Poly`` cells in n variables,
    the one edge from cells to vectors; another width or ring is refused."""
    row = tuple(row)
    if len(row) != width:
        raise ValueError(f"row arity {len(row)} does not match width {width}")
    for p in row:
        if p.n != n:
            raise ValueError(f"a cell in {p.n} variables in a row over n={n}")
    return _integral({(c, m): v for c, p in enumerate(row) for m, v in p.terms.items()})


def _lowest_terms(den, ints):
    """``(den, ints)`` divided through by the gcd of ``den`` and the entries."""
    g = gcd(den, *ints.values())
    if g == 1:
        return den, ints
    return den // g, {t: v // g for t, v in ints.items()}


def _unpacked(den, vec, order, start=0):
    """The integer vector, in lowest terms, of the packed vector ``vec`` over
    ``den > 0``, with components counted from ``start``."""
    den, vec = _lowest_terms(den, vec)
    cmask, cbits, fmask, exps = order.cmask, order.cbits, order.fmask, order.exps
    return den, {((t & cmask) - start, exps[t >> cbits & fmask]): v for t, v in vec.items()}


def _cells(n, rank, vector):
    """The row of ``Poly`` cells of an integer vector; zero cells share one."""
    den, cells = vector[0], {}
    for (c, m), v in vector[1].items():
        cells.setdefault(c, {})[m] = Fraction(v, den)
    zero = Poly.zero(n)
    return tuple(Poly(n, cells[c]) if c in cells else zero for c in range(rank))


def _canonical_rep(vector):
    """A row's terms with their coefficients as reduced fractions, sorted."""
    den, ints = vector
    return tuple(sorted((c, m, v // g, den // g)
                        for (c, m), v in ints.items() for g in (gcd(v, den),)))


class _Memo(dict):
    """A dict that fills itself: a missing key maps to ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Order:
    """Shifted TOP order on R^m terms in n variables, optionally with an
    elimination block, packed into ints for shifted degrees up to ``top``
    above the lowest shift (see the module docstring).

    Terms in components below ``block_start`` always exceed terms at or above
    it; that is the elimination property the syzygy harvest relies on.

    A packed term is the sum of a component part, ``comp[c]``, and a
    monomial part, ``mono[m]``, which is also the shift that multiplies a
    packed term by m.  ``mono`` and the table behind ``unpack``, keyed by
    the exponent bits, fill on first use."""

    def __init__(self, n, shifts, top, block_start=None):
        c, v = max(len(shifts) - 1, 1).bit_length(), top.bit_length()
        deg_at = c + n * (v + 1)
        bias, block = top + min(shifts, default=0), 1 << deg_at + v
        offsets, fields = range(c, deg_at, v + 1), range(0, deg_at - c, v + 1)
        emask = (1 << v) - 1
        self.shifts, self.block_start = shifts, block_start
        self.block = inf if block_start is None else block  # the least block term
        self.cbits, self.cmask, self.fmask = c, (1 << c) - 1, (1 << deg_at - c) - 1
        self.guard = sum(1 << o + v for o in offsets)
        self.comp = tuple(i + (bias - s << deg_at)
                          + (block if block_start is not None and i >= block_start else 0)
                          for i, s in enumerate(shifts))
        self.mono = _Memo(lambda m: sum(map(lshift, m, offsets)) - (sum(m) << deg_at))
        self.exps = _Memo(lambda bits: tuple([bits >> o & emask for o in fields]))

    def pack(self, term):
        c, m = term
        return self.comp[c] + self.mono[m]

    def unpack(self, p):
        return p & self.cmask, self.exps[p >> self.cbits & self.fmask]


# ---------------------------------------------------------------------------
# presentations

class GeneratorError(ValueError):
    """Generator ``row`` is zero or not homogeneous; the engines take neither."""

    def __init__(self, row, reason):
        super().__init__(f"row {row} {reason}")
        self.row, self.reason = row, reason


@record
class GradedPresentation:
    """Homogeneous generators of a graded submodule of R^ambient_rank.

    ``vectors`` holds one integer vector ``(den, {(c, m): int})`` per
    generator, and ``_degrees`` their shifted degrees, checked here; the
    engines read both and never mutate them.  Rows of ``Poly`` cells come in
    through ``from_rows``, and ``generators``, the rows as ``Poly`` cells, is
    made from the vectors on first read."""

    n: int
    ambient_rank: int
    vectors: tuple
    shifts: tuple = None

    def __post_init__(self):
        """Every term of a row must have the row's shifted degree."""
        shifts = tuple(self.shifts if self.shifts is not None else (0,) * self.ambient_rank)
        if len(shifts) != self.ambient_rank:
            raise ValueError("one shift per ambient component required")
        vectors, degrees = tuple(self.vectors), []
        for i, (_, vec) in enumerate(vectors):
            if not vec:
                raise GeneratorError(i, "is zero")
            degs = {sum(m) + shifts[c] for (c, m) in vec}
            if len(degs) > 1:
                raise GeneratorError(i, f"mixes shifted degrees {sorted(degs)}")
            degrees.append(degs.pop())
        self.__dict__.update(shifts=shifts, vectors=vectors, _degrees=tuple(degrees))

    @classmethod
    def from_rows(cls, n, ambient_rank, rows, shifts=None):
        """The presentation of rows of ``Poly`` cells, ``ambient_rank`` each."""
        return cls(n, ambient_rank,
                   tuple(_row_vector(n, ambient_rank, row) for row in rows), shifts)

    @cached_property
    def generators(self):
        return tuple(_cells(self.n, self.ambient_rank, v) for v in self.vectors)

    def __hash__(self):
        return hash((self.n, self.ambient_rank, self.shifts,
                     tuple((den, frozenset(vec.items())) for den, vec in self.vectors)))

    def __repr__(self):
        return (f"GradedPresentation(n={self.n!r}, ambient_rank={self.ambient_rank!r}, "
                f"generators={self.generators!r}, shifts={self.shifts!r})")


# ---------------------------------------------------------------------------
# the worker

def _reduce_sparse(vec, by_component, order, stop=inf):
    """Pseudo-reduction of a packed integer vector: ``(scale, remainder)``,
    with ``scale * vec - remainder`` in the span of the reducers and no term
    of ``remainder`` divisible by a lead.  ``by_component`` maps a component
    to ``(packed lead, lead coefficient, tail)`` with integer leads above 0.
    A term from ``stop`` on that no lead divides ends the reduction, and the
    terms below it are returned as they stand (a top-reduction).

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
            if term >= stop:
                break
            continue
        if lc == 1:
            f = coef
        else:
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
            nv = work.get(t)
            if nv is None:
                heapq.heappush(heap, t)
                work[t] = -f * v
                continue
            nv -= f * v
            if nv:
                work[t] = nv
            else:
                del work[t]
    work.update((t, v * (scale // s)) for t, v, s in out)  # work holds what a stop left
    return scale, work


def _reducer(vec, order):
    """``(component, (packed lead, lead coefficient > 0, tail))``, primitive."""
    lead = min(vec)
    vec = _primitive(vec)
    sign = 1 if vec[lead] > 0 else -1
    tail = tuple((t, sign * v) for t, v in vec.items() if t != lead)
    return lead & order.cmask, (lead, sign * vec[lead], tail)


class ModuleGB:
    """Incremental Buchberger completion, staged by (shifted) degree, of the
    integer vectors ``gens`` (``{(component, monomial): int}``) in n
    variables under the TOP order with ``shifts`` (and an elimination block
    from ``block_start``, if given).

    Reduction keeps the shifted degree of every term it replaces, so the
    exponent cap is checked once per vector that enters (input or S-pair),
    against its shifted degree less the lowest shift, and not per product.
    The degree cap is read once, here, from ``config.degree_cap``.  Pairs
    queue by (degree, block side, serial), tracking-led first in a degree.
    ``stats`` counts S-pairs: ``queued``, ``pruned`` by the pair criteria,
    ``processed`` (``zero`` of them to zero), ``skipped`` (set aside and
    never queued again); a birth's pairs count once it is paired.
    """

    def __init__(self, n, shifts, gens=(), block_start=None):
        self.order = _Order(n, shifts, EXPONENT_CAP, block_start)
        self.cap = degree_cap()
        self.basis = []
        self.by_component = {}  # component -> [(packed lead, lead coef, tail)]
        self.leads = {}     # component -> [lead monomial], for the pair criteria
        self.pairs = []     # heap of (degree, original side, serial, component, a, b)
        self.live = {}      # component -> {(a, b): lcm} of pairs still due
        self.births = {}    # birth degree -> {component: [(packed lead, lead coef, tail)]}
        self._waiting = []  # (component, lead monomial) of births not yet paired
        self.stats = {"queued": 0, "pruned": 0, "processed": 0, "zero": 0, "skipped": 0}
        self._deferred = []  # (heap entry, lcm) of pairs of syzygies set aside
        self._counter = 0
        self._tracking = inf if block_start is None else block_start
        self._top = EXPONENT_CAP + min(shifts, default=0)
        for vec in gens:
            self.add(vec)

    def _admit(self, deg):
        if deg > self._top:
            raise ExponentCapExceeded(f"degree {deg} allows exponents above {EXPONENT_CAP}")

    def _register(self, vec, born=True):
        comp, member = _reducer(vec, self.order)
        mono = self.order.unpack(member[0])[1]
        self.basis.append(member)
        self.by_component.setdefault(comp, []).append(member)
        if born and comp >= self._tracking:
            deg = sum(mono) + self.order.shifts[comp]
            self.births.setdefault(deg, {}).setdefault(comp, []).append(member)
            if self._waiting is not None:
                self._waiting.append((comp, mono))
                return
        self._pair(comp, mono)

    def _pair(self, comp, mono):
        """Queue, and prune, the pairs of a new lead ``mono`` of ``comp``."""
        original = comp < self._tracking
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
                heapq.heappush(self.pairs, (deg + self.order.shifts[comp], original,
                                            self._counter, comp, a, len(monos)))
        self.stats["queued"] += len(new)
        self.stats["pruned"] += len(covered) + len(new) - len(kept)
        monos.append(mono)

    def _pair_births(self):
        """Pair the waiting births in arrival order; queue those set aside again."""
        for comp, mono in self._waiting or ():
            self._pair(comp, mono)
        self._waiting = None
        for pair, lcm in self._deferred:
            heapq.heappush(self.pairs, pair)
            self.live[pair[3]][pair[4:]] = lcm
        self.stats["skipped"] -= len(self._deferred)
        self._deferred = []

    def add(self, vec, deg=None):
        """Reduce against the basis and insert if nonzero (``deg``: see ``normal_form``)."""
        red = self.normal_form(vec, deg)
        if not red:
            return False
        self._register(red)
        return True

    def ensure_degree(self, deg):
        """Process every due original-block S-pair of shifted degree <= deg and
        set the pairs of syzygies aside (module docstring); the lowest pair due
        above the degree cap raises ``DegreeCapExceeded``."""
        self._process((deg, True))
        if self._waiting and len(self.births) == 1:
            ((d0, comps),) = self.births.items()  # (c): a pair of births has degree <= 2 d0 - shift
            if 2 * d0 - min(self.order.shifts[c] for c in comps) > min(self.cap, self._top):
                self._pair_births()
                self._process((deg, True))

    def _process(self, bound):
        """Process the due pairs whose (degree, block side) is at most
        ``bound``; on the original side, pairs of syzygies are set aside."""
        pairs, order = self.pairs, self.order
        while pairs and pairs[0][:2] <= bound:
            d, original, _, comp, a, b = pair = heapq.heappop(pairs)
            lcm = self.live[comp].pop((a, b), None)
            if lcm is None:
                continue  # pruned after it was queued
            if d > self.cap:
                raise DegreeCapExceeded(
                    f"completion needs S-pairs of degree {d}, above cap {self.cap}",
                    degree=d)
            self._admit(d)
            if bound[1] and not original:
                self._deferred.append((pair, lcm))
                self.stats["skipped"] += 1
                continue
            (pa, la, ta), (pb, lb, tb) = self.by_component[comp][a], self.by_component[comp][b]
            at = order.pack((comp, lcm))
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
            red = _reduce_sparse(s, self.by_component, order, order.block)[1]
            self.stats["processed"] += 1
            if original and red and d > min(self.births, default=d) and min(red) >= order.block:
                # (a): complete the syzygy block through d
                self._pair_births()
                self._process((d, False))
                red = _reduce_sparse(red, self.by_component, order, order.block)[1]
            if red:
                self._register(red, original)
            else:
                self.stats["zero"] += 1

    def complete(self):
        """``ensure_degree(inf)``, then (b): every pair of syzygies."""
        self.ensure_degree(inf)
        self._pair_births()
        self._process((inf, False))

    def normal_form(self, vec, deg=None):
        """Packed integer remainder of an incoming integer vector (a positive
        multiple of its normal form; under a block, its top-reduction).  ``deg``
        is its highest shifted degree, which a presentation holds, and is read
        off its terms if not given.  A vector no lead reduces skips the heap."""
        order, by_component = self.order, self.by_component
        comp, mono, cmask, guard = order.comp, order.mono, order.cmask, order.guard
        self._admit(max(sum(m) + order.shifts[c] for c, m in vec) if deg is None else deg)
        packed = {comp[c] + mono[m]: v for (c, m), v in vec.items()}
        if any(not t - lead & guard for t in packed
               for lead, _, _ in by_component.get(t & cmask, ())):
            return _reduce_sparse(packed, by_component, order, order.block)[1]
        return packed

    def reduced_elements(self, keep=None):
        """Unique reduced basis as integer vectors: minimal leads, tails fully
        reduced, monic.

        Leads are distinct, so minimality is checked within each component.
        An element never reduces its own tail, which lies below its lead.
        Under an elimination order only elements led from ``block_start`` on
        are kept: all their terms lie there, where no other lead divides them,
        and their components are counted from there.  ``keep``, if given,
        maps components to the elements kept instead, and nothing is completed.
        """
        order = self.order
        start, guard = order.block_start or 0, order.guard
        if keep is None:
            self.complete()
            keep = {comp: [e for e in members if not any(
                        p != e[0] and not e[0] - p & guard for p, _, _ in members)]
                    for comp, members in self.by_component.items() if comp >= start}
        final = []
        for members in keep.values():
            for lead, lc, tail in members:
                scale, red = _reduce_sparse(tail, keep, order)
                final.append((lead, lc * scale, red))
        final.sort(key=lambda e: e[0], reverse=True)
        return [_unpacked(den, {lead: den, **red}, order, start) for lead, den, red in final]


# ---------------------------------------------------------------------------
# public operations

def reduced_groebner(pres):
    """The reduced basis of ``pres``, monic and sorted by lead, as a presentation."""
    gb = ModuleGB(pres.n, pres.shifts)
    for (_, vec), deg in zip(pres.vectors, pres._degrees):
        gb.add(vec, deg)
    return GradedPresentation(pres.n, pres.ambient_rank, gb.reduced_elements(), pres.shifts)


def normal_form(vec, basis):
    """Full (exact rational) remainder of a vector of polynomials against a
    reduced basis; no cap is checked, so the packing is laid out for the
    highest shifted degree of the input and the basis, which reduction keeps."""
    elems = [e for _, e in basis.vectors]
    den, ints = _row_vector(basis.n, basis.ambient_rank, vec)
    lo = min(basis.shifts, default=0)
    order = _Order(basis.n, basis.shifts, max(
        (sum(m) + basis.shifts[c] - lo for s in elems + [ints] for c, m in s), default=0))
    pack = order.pack
    by_comp = {}
    for e in elems:
        comp, member = _reducer({pack(t): v for t, v in e.items()}, order)
        by_comp.setdefault(comp, []).append(member)
    scale, red = _reduce_sparse({pack(t): v for t, v in ints.items()}, by_comp, order)
    return _cells(basis.n, basis.ambient_rank, _unpacked(den * scale, red, order))


def _tagged(pres):
    """A basis, not completed, of ``pres``'s rows tagged for syzygies: row i
    enters as ``den * (g_i + e_i)``, tagged with ``den`` on component ``e_i``."""
    m, one = pres.ambient_rank, (0,) * pres.n
    gb = ModuleGB(pres.n, pres.shifts + pres._degrees, block_start=m)
    for i, ((den, vec), deg) in enumerate(zip(pres.vectors, pres._degrees)):
        gb.add({**vec, (m + i, one): den}, deg)
    return gb


def syzygies(pres):
    """Reduced generating set of the relation module of ``pres``'s generators.

    The result lives in R^k (k = number of generators) with shifts equal to
    the generator degrees, so its own grading is honest.
    """
    degs = pres._degrees
    return GradedPresentation(pres.n, len(degs), _tagged(pres).reduced_elements(), degs)


def minimal_syzygies(pres):
    """The vectors of ``minimal_graded_generators(syzygies(pres))``, from one
    completion and not checked again: with births in one degree (the module
    docstring), the reduced syzygies of that degree in ``canonical_order``,
    by ``_canonical_rep`` alone; else the sweep."""
    gb, degs = _tagged(pres), pres._degrees
    gb.ensure_degree(inf)
    if len(gb.births) > 1:
        return minimal_graded_generators(
            GradedPresentation(pres.n, len(degs), gb.reduced_elements(), degs)).vectors
    (keep,) = gb.births.values() or ({},)
    return tuple(sorted(gb.reduced_elements(keep), key=_canonical_rep))


def canonical_order(pres):
    """``(degree, vector)`` for each generator of ``pres``, ascending by
    degree and by ``_canonical_rep`` within a degree; equal keys keep their
    order.  Minimal generators are kept, and printed, in this order."""
    return sorted(zip(pres._degrees, pres.vectors),
                  key=lambda g: (g[0], _canonical_rep(g[1])))


def minimal_graded_generators(pres):
    """Greedy minimal generating subset, ascending by degree (graded Nakayama).

    An element is kept exactly when it is not a combination of elements kept
    before it; processing degrees in increasing order makes the count per
    degree equal to dim M_d / (R_+ M)_d, which is the minimal possible.
    Generators are taken in ``canonical_order``.
    """
    gb = ModuleGB(pres.n, pres.shifts)
    kept = []
    for deg, vector in canonical_order(pres):
        gb.ensure_degree(deg)
        if gb.add(vector[1], deg):
            kept.append(vector)
    return GradedPresentation(pres.n, pres.ambient_rank, kept, pres.shifts)


def module_contains(a, b):
    """Does the submodule of R^m generated by ``a`` contain every row of ``b``?"""
    if a.n != b.n or a.ambient_rank != b.ambient_rank:
        raise ValueError("presentations live in different ambient modules")
    # zero shifts, not the presentations' own: the cap bounds unshifted
    # degrees, which the presentations do not hold, so they are read off
    gb = ModuleGB(a.n, (0,) * a.ambient_rank, [v for _, v in a.vectors])
    gb.complete()
    return not any(gb.normal_form(v) for _, v in b.vectors)


def module_equality(a, b):
    """Do two presentations generate the same submodule of R^m?"""
    return module_contains(a, b) and module_contains(b, a)


def _vector_rank(n, width, vectors):
    """Rank over the fraction field of a matrix of integer row vectors: the
    number of components that carry a lead once the nonzero rows' basis is
    complete."""
    gens = [v for _, v in vectors if v]
    if not gens:
        return 0
    gb = ModuleGB(n, (0,) * width, gens)
    gb.complete()
    return len(gb.by_component)
