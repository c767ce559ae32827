"""Named geometric operators, their sequences, and the headline checks.

Builders return exact symbol matrices for the classical flat-metric
operators (Killing, linearized curvature, second identity, traces, the
conformal variant, exterior derivatives, the potential candidate).  On top
of those sit the sequence constructor, the parametrization test via module
duality, and the verification reports for the splitting, the potential
contradiction, and the contracted-trace identity.
"""

from fractions import Fraction
from math import prod
from types import MappingProxyType

from . import bundles, config, groebner, linalg, operators
from .bundles import (
    bianchi_candidate_space,
    ext_space,
    ext_tuples,
    lanczos_ambient_index,
    lanczos_constraint_space,
    riemann_candidate_space,
    split_riemann,
    sym2_space,
    sym_tuples,
    tangent_space,
    trace_free_sym2,
)
from .config import cached, record
from .operators import OperatorMatrix, adjoint, compose
from .poly import metric_cache, resolve_metric

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def _mono(n, *symbols):
    """Exponent tuple of the product of the given 1-based symbols."""
    exps = [0] * n
    for i in symbols:
        exps[i - 1] += 1
    return tuple(exps)


def _add_term(terms, key, coef):
    """``terms[key] += coef``, dropping a cancelled term as ``Poly.__add__`` does."""
    s = terms.get(key, 0) + coef
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def _constrained_rows(space, rows, width):
    """Coordinate rows of an operator landing in a constrained space: checks
    on integers that the ambient rows (integer vectors over ``width``
    columns) satisfy every integer constraint row of the space, then keeps
    the rows at the free components."""
    one = (0,) * space.n
    constraints = [(1, {(c, one): v for c, v in crow}) for crow in space.constraints]
    if any(vec for _, vec in operators._product_rows(constraints, rows, space.n, width)):
        raise AssertionError(
            f"operator image violates a constraint of {space.label}")
    return tuple(rows[c] for c in space.free_columns)


# ---------------------------------------------------------------------------
# operator builders

@metric_cache
def killing(n, metric=None):
    """Lie derivative of the metric: vector fields to symmetric 2-tensors."""
    rows = []
    for i, j in sym_tuples(n, 2):
        row = {}
        for k in range(1, n + 1):
            _add_term(row, (k - 1, _mono(n, i)), metric.lower(k, j))
            _add_term(row, (k - 1, _mono(n, j)), metric.lower(i, k))
        rows.append(linalg._integral(row))
    return OperatorMatrix("killing", n, tangent_space(n), sym2_space(n), tuple(rows))


@metric_cache
def conformal_killing(n, metric=None):
    """Trace-free part of the Killing operator (needs n >= 3): each row of
    ``killing`` less 2/n w_ij times the divergence."""
    if n < 3:
        raise ValueError("conformal variant needs n >= 3")
    tgt, frac = trace_free_sym2(n, metric), Fraction(2, n)
    ambient = []
    for (i, j), (den, vec) in zip(sym_tuples(n, 2), killing(n, metric).vectors):
        row = {t: Fraction(v, den) for t, v in vec.items()}
        for k in range(n):
            _add_term(row, (k, _mono(n, k + 1)), -frac * metric.lower(i, j))
        ambient.append(linalg._integral(row))
    return OperatorMatrix("conformal_killing", n, tangent_space(n), tgt,
                          _constrained_rows(tgt, ambient, n))


@cached
def _riemann_ambient_terms(n):
    """Ambient symbol rows of the linearized curvature, one per 4-tuple, as
    integer vectors with read-only term maps, shared by every caller: the
    +-1/2 terms are summed as +-1 over the denominator 2."""
    pcol = {p: c for c, p in enumerate(sym_tuples(n, 2))}
    rows = []
    for k, l, i, j in bundles.all_tuples(n, 4):
        row = {}
        for a, b, h1, h2, coef in ((l, i, k, j, 1), (l, j, k, i, -1),
                                   (k, i, l, j, -1), (k, j, l, i, 1)):
            _add_term(row, (pcol[(min(h1, h2), max(h1, h2))], _mono(n, a, b)), coef)
        den, vec = groebner._lowest_terms(2, row)
        rows.append((den, MappingProxyType(vec)))
    return tuple(rows)


@metric_cache
def riemann_linearized(n, metric=None):
    """Second-order symbol of the curvature of a perturbed flat metric."""
    tgt, src = riemann_candidate_space(n), sym2_space(n)
    return OperatorMatrix("riemann", n, src, tgt,
                          _constrained_rows(tgt, _riemann_ambient_terms(n), src.dim))


@metric_cache
def bianchi(n, metric=None):
    """Cyclic-derivative identity operator on curvature candidates."""
    if n < 3:
        raise ValueError("second identity needs n >= 3")
    src = riemann_candidate_space(n)
    tgt = bianchi_candidate_space(n, metric)
    _, rcol = bundles._riemann_ambient_index(n)
    a_r = src.ambient_from_coords
    ambient = []
    for k, l in ext_tuples(n, 2):
        for i, j, r in ext_tuples(n, 3):
            row = {}
            for d, (a, b) in ((r, (i, j)), (i, (j, r)), (j, (r, i))):
                mono = _mono(n, d)
                for c, coef in a_r[rcol[(k, l, a, b)]].items():
                    _add_term(row, (c, mono), coef)
            ambient.append(linalg._integral(row))
    return OperatorMatrix("bianchi", n, src, tgt, _constrained_rows(tgt, ambient, src.dim))


@metric_cache
def ricci(n, metric=None):
    """Metric trace of the linearized curvature (symmetric 2-tensor valued)."""
    if n < 3:
        raise ValueError("trace operator needs n >= 3")
    traces = [operators._constant_row(n, trace)
              for trace in bundles.riemann_trace_rows(n, metric).values()]
    sym2 = sym2_space(n)
    return OperatorMatrix("ricci", n, sym2, sym2, tuple(operators._product_rows(
        traces, _riemann_ambient_terms(n), n, sym2.dim)))


@metric_cache
def einstein(n, metric=None):
    """Trace-reverted curvature trace; divergence-free by construction:
    Ric - (1/2) w S, with S the metric trace of Ric, one constant matrix
    applied to the rows of ``ricci``."""
    if n < 3:
        raise ValueError("trace-reverted operator needs n >= 3")
    ric, trace = ricci(n, metric), bundles.pair_trace(n, metric)
    revert = [operators._constant_row(n, {k: (c == k) - HALF * metric.lower(i, j) * t
                                          for k, t in enumerate(trace)})
              for c, (i, j) in enumerate(sym_tuples(n, 2))]
    return OperatorMatrix("einstein", n, ric.source, ric.target, tuple(
        operators._product_rows(revert, ric.vectors, n, ric.source.dim)))


@cached
def exterior_derivative(n, r):
    """Alternating first-derivative map on r-forms."""
    if not 0 <= r < n:
        raise ValueError(f"form degree {r} out of range for n={n}")
    src = ext_space(n, r)
    scol = {t: c for c, t in enumerate(ext_tuples(n, r))}
    rows = []
    for tup in ext_tuples(n, r + 1):
        row = {}
        for t in range(r + 1):
            _add_term(row, (scol[tup[:t] + tup[t + 1:]], _mono(n, tup[t])), -1 if t % 2 else 1)
        rows.append(linalg._integral(row))
    return OperatorMatrix(f"d{r}", n, src, ext_space(n, r + 1), tuple(rows))


@metric_cache
def lanczos_candidate(n=4, metric=None):
    """Antisymmetrized gradient of the constrained potential, aimed at the
    curvature candidate space; deliberately order 1."""
    if n != 4:
        raise ValueError("potential candidate implemented for n = 4")
    src = lanczos_constraint_space(n)
    tgt = riemann_candidate_space(n)
    _, lcol = lanczos_ambient_index(n)
    a_l = src.ambient_from_coords

    ambient = []
    for k, l, i, j in bundles.all_tuples(n, 4):
        terms = ((1, j, (k, l, i)), (-1, i, (k, l, j)),
                 (1, l, (i, j, k)), (-1, k, (i, j, l)))
        row = {}
        for sign, d, (a, b, c) in terms:
            slot, slot_sign = bundles._pair_slot(a, b)
            if not slot_sign:
                continue
            mono = _mono(n, d)
            for col, coef in a_l[lcol[(slot, c)]].items():
                _add_term(row, (col, mono), sign * slot_sign * coef)
        ambient.append(linalg._integral(row))
    return OperatorMatrix("lanczos_candidate", n, src, tgt,
                          _constrained_rows(tgt, ambient, src.dim))


BUILDERS = {
    "killing": killing,
    "conformal_killing": conformal_killing,
    "riemann": riemann_linearized,
    "bianchi": bianchi,
    "ricci": ricci,
    "einstein": einstein,
    "lanczos_candidate": lanczos_candidate,
}


# ---------------------------------------------------------------------------
# sequences

@record
class SequenceStep:
    operator: OperatorMatrix


@record
class SequenceReport:
    name: str
    n: int
    steps: tuple
    dims: tuple
    orders: tuple
    terminated: bool
    euler_characteristic: object   # int when terminated, else None


def build_sequence(op, max_steps=None):
    """Iterate compatibility conditions until they vanish.

    Verifies each consecutive composition is exactly zero.  The Euler
    characteristic (alternating dimension sum) is recorded only when the
    chain reached a vanishing condition within ``max_steps``.
    """
    if max_steps is None:
        max_steps = op.n + 1
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    ops = [op]
    terminated = False
    while len(ops) < max_steps + 1:
        try:
            cc = operators.compatibility_conditions(ops[-1])
        except config.DegreeCapExceeded as exc:
            raise config.DegreeCapExceeded(
                f"conditions of {ops[-1].name} (step {len(ops) - 1}): {exc}",
                degree=exc.degree) from exc
        if cc.target.dim == 0:
            terminated = True
            break
        if not compose(cc, ops[-1]).is_zero():
            raise AssertionError(
                f"conditions for {ops[-1].name} do not annihilate it")
        ops.append(cc)
    dims = (op.source.dim,) + tuple(o.target.dim for o in ops)
    orders = tuple(o.order for o in ops)
    euler = None
    if terminated:
        euler = sum(d if i % 2 == 0 else -d for i, d in enumerate(dims))
    return SequenceReport(
        name=op.name, n=op.n, steps=tuple(map(SequenceStep, ops)), dims=dims,
        orders=orders, terminated=terminated, euler_characteristic=euler)


# ---------------------------------------------------------------------------
# parametrization checks

@record
class ParametrizationVerdict:
    ok: bool
    composes_to_zero: bool
    target_name: str
    candidate_name: str


def check_parametrization(target, candidate):
    """Does ``candidate`` parametrize the kernel of ``target``?

    True exactly when the composition vanishes and the rows of ``target``
    generate every relation among the rows of ``candidate``, that is the
    rows of its compatibility conditions; by module duality this makes
    solutions of ``target`` precisely the image of ``candidate``.  A zero
    composition makes every row of ``target`` such a relation, so only the
    other inclusion is tested then.
    """
    zero = compose(target, candidate).is_zero()
    full = zero and groebner.module_contains(
        operators.rows_presentation(target),
        operators.rows_presentation(operators.compatibility_conditions(candidate)))
    return ParametrizationVerdict(
        ok=full,
        composes_to_zero=zero,
        target_name=target.name,
        candidate_name=candidate.name)


def parametrization_generators(op):
    """Minimal generating set of column relations as an operator: ad(CC(ad(op))).

    The returned operator maps a fresh potential bundle into the source of
    ``op`` and satisfies ``op o result = 0``; its columns generate every
    vector annihilated by ``op`` from the right.  It is the transpose of
    ``compatibility_conditions(adjoint(op))``, so a zero column of ``op``
    gets its unit potential last.
    """
    cc = operators.compatibility_conditions(adjoint(op))
    src = bundles.free_basis(f"P({op.source.label})", op.n,
                             [f"p{i}" for i in range(1, cc.target.dim + 1)])
    return OperatorMatrix(f"potential({op.name})", op.n, src, op.source,
                          operators._transpose(cc.vectors, op.source.dim))


@record
class DoubleDualityReport:
    """Value spaces and their adjoint-side counterparts share fiber dimensions
    in fixed coordinates; transition-rule distinctions between the two are
    not modeled here."""

    name: str
    n: int
    verdicts: tuple   # one ParametrizationVerdict per adjoint position
    ok: bool


def double_duality_report(op, depth=2):
    """Adjoint-side exactness verdicts along the condition chain of ``op``.

    Builds the chain op, cc(op), cc(cc(op)), ... to the requested depth and
    checks at each position that the adjoint of the earlier operator is
    parametrized by the adjoint of the later one.  A chain that terminates
    before the requested depth is checked at the positions it has.
    """
    seq = build_sequence(op, max_steps=depth)
    ads = [adjoint(s.operator) for s in seq.steps]
    verdicts = tuple(map(check_parametrization, ads, ads[1:]))
    return DoubleDualityReport(
        name=op.name, n=op.n, verdicts=verdicts, ok=all(v.ok for v in verdicts))


# ---------------------------------------------------------------------------
# self-adjointness and splitting reports

def sym2_pairing_weights(n, metric=None):
    """Diagonal of the metric pairing on pair coordinates.

    The full two-index contraction A_{ij} B^{ij} gives each off-diagonal
    pair weight 2, and raising both indices contributes the inverse-metric
    diagonal (a sign under an indefinite signature).
    """
    w = resolve_metric(n, metric)
    return [Fraction(2 if i != j else 1) * w.upper(i, i) * w.upper(j, j)
            for i, j in sym_tuples(n, 2)]


def is_self_adjoint_sym2(op, metric=None):
    """Self-adjointness for endomorphism symbols on symmetric 2-tensors,
    with respect to the two-index contraction pairing of ``metric``."""
    if op.source.key() != op.target.key():
        return False
    # weighting row i by w_i must give a matrix equal to its own adjoint
    weights = [operators._constant_row(op.n, {i: w})
               for i, w in enumerate(sym2_pairing_weights(op.n, metric))]
    weighted = tuple(operators._product_rows(weights, op.vectors, op.n, op.source.dim))
    return weighted == operators._transpose(weighted, op.source.dim)


@record
class WeylRelationsReport:
    n: int
    relation_count: int
    relation_order: int
    cc_count: int
    cc_degrees: tuple
    differential_rank: int
    diagram_rows: tuple
    ok: bool


def weyl_relations_report(metric=None):
    """First-order system forced on trace-free curvature components at n=4.

    Restricting the second-identity operator to the trace-free summand,
    minimal row generators count the independent equations; their own
    conditions and the generic rank complete the bookkeeping.
    """
    n = 4
    w = resolve_metric(n, metric)
    split = split_riemann(n, w)
    inj = operators.from_scalar_matrix(
        "inject_weyl", n, split.weyl_space, split.riemann_space, split.inject_weyl)
    composed = compose(bianchi(n, w), inj)
    pres = operators.rows_presentation(composed)
    gens = groebner.minimal_graded_generators(pres).vectors
    k = len(gens)
    rel_op = OperatorMatrix(
        "weyl_relations", n, split.weyl_space,
        bundles.free_basis("WeylRelations", n, [f"q{i}" for i in range(1, k + 1)]),
        gens)
    cc = operators.compatibility_conditions(rel_op)
    rank = operators.differential_rank(rel_op)
    rows = (
        (split.weyl_space.dim, k, cc.target.dim),
        (split.sym2_space.dim, split.riemann_space.dim,
         bianchi_candidate_space(n, w).dim,
         operators.compatibility_conditions(bianchi(n, w)).target.dim),
        (split.sym2_space.dim, split.sym2_space.dim,
         operators.compatibility_conditions(einstein(n, w)).target.dim),
    )
    cc_degrees = tuple(max(sum(m) for _, m in vec) for _, vec in cc.vectors)
    ok = (k == 16 and cc.target.dim == 6 and rank == 10
          and all(d == 1 for d in cc_degrees))
    return WeylRelationsReport(
        n=n, relation_count=k, relation_order=rel_op.order,
        cc_count=cc.target.dim, cc_degrees=cc_degrees,
        differential_rank=rank, diagram_rows=rows, ok=ok)


# ---------------------------------------------------------------------------
# contracted-trace identity

@record
class TraceContractionReport:
    n: int
    identity_ok: bool
    relabel_factor: object
    relabel_matches: bool
    trace_kernel_dim: int
    probe_ok: bool
    ok: bool


def _double_trace_matrix(n, w):
    """Sparse rows r: coefficients of S ω^{ij} ω^{sm} B_{(mi),(jrs)} over the
    pair-triple ambient components."""
    pairs = ext_tuples(n, 2)
    triples = ext_tuples(n, 3)
    col = {(p, t): c for c, (p, t) in enumerate(
        [(p, t) for p in pairs for t in triples])}
    rows = []
    for r in range(1, n + 1):
        row = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                wij = w.upper(i, j)
                if not wij:
                    continue
                for s in range(1, n + 1):
                    for m in range(1, n + 1):
                        wsm = w.upper(s, m)
                        if not wsm:
                            continue
                        slot, sg1 = bundles._pair_slot(m, i)
                        if not sg1:
                            continue
                        trip = (j, r, s)
                        sg2 = bundles.perm_sign(trip)
                        if not sg2:
                            continue
                        _add_term(row, col[(slot, tuple(sorted(trip)))], wij * wsm * sg1 * sg2)
        rows.append(row)
    return rows


def trace_contraction_check(metric=None):
    """Verify the contracted second identity and the relabeled trace arrow.

    Part one: on curvature candidates, the double metric trace of the second
    identity equals the gradient of the scalar trace minus twice the
    divergence of the Ricci trace, an exact identity of first-order symbols.
    Part two: on the value space, the same double trace factors through the
    signed relabeling onto the potential space as a constant multiple of the
    potential trace L_i = w^{jk} L_{ij,k}; the constant is recorded.  The
    relabel carries the volume form, so row r of the potential trace picks
    up det(w) w_rr; that holds for diagonal metrics with entries ±1, and
    any other metric is refused.  Implemented at n = 4, where the
    relabeling exists.
    """
    n = 4
    w = resolve_metric(n, metric)
    diagonal = [w.lower(r, r) for r in range(1, n + 1)]
    if any(w.lower(i, j) for i, j in ext_tuples(n, 2)) or \
            any(d not in (1, -1) for d in diagonal):
        raise ValueError("the relabeled trace needs a diagonal metric with entries ±1")
    b_space = bianchi_candidate_space(n, w)
    a_b = b_space.ambient_from_coords
    tau = linalg.product(_double_trace_matrix(n, w), a_b)   # 4 rows over F2 coordinates

    covector = bundles.free_basis("T*", n, [f"a{i}" for i in range(1, n + 1)])
    tau_op = operators.from_scalar_matrix(
        "double_trace", n, b_space, covector, tau)
    lhs = compose(tau_op, bianchi(n, w))

    # d_r S - 2 w^{sm} d_s Ric_{mr}, a first-order operator on symmetric
    # tensors, applied to the Ricci trace of a curvature candidate
    r_space, trace = riemann_candidate_space(n), bundles.pair_trace(n, w)
    pcol = {p: c for c, p in enumerate(sym_tuples(n, 2))}
    grad_div = []
    for r in range(1, n + 1):
        row = {}
        for k, t in enumerate(trace):
            _add_term(row, (k, _mono(n, r)), t)
        for s in range(1, n + 1):
            for m in range(1, n + 1):
                _add_term(row, (pcol[(min(m, r), max(m, r))], _mono(n, s)), -2 * w.upper(s, m))
        grad_div.append(linalg._integral(row))
    ricci_trace = [operators._constant_row(n, row) for row in linalg.product(
        list(bundles.riemann_trace_rows(n, w).values()), r_space.ambient_from_coords)]
    identity_ok = lhs.vectors == tuple(
        operators._product_rows(grad_div, ricci_trace, n, r_space.dim))

    l_space = lanczos_constraint_space(n)
    img = linalg.product(bundles.bianchi_to_potential_relabel(), a_b)
    if any(linalg.product(bundles.constraint_rows(l_space), img)):
        raise AssertionError(
            "relabeled second-identity space misses the potential space")
    lam = [img[c] for c in l_space.free_columns]

    _, lcol = lanczos_ambient_index(n)
    trace_amb = []
    for r in range(1, n + 1):
        row = {}
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                coef = w.upper(j, k)
                if not coef:
                    continue
                slot, sg = bundles._pair_slot(r, j)
                if not sg:
                    continue
                _add_term(row, lcol[(slot, k)], coef * sg)
        trace_amb.append(row)
    trace_l = linalg.product(trace_amb, l_space.ambient_from_coords)   # 4 rows over 20 coordinates

    det = prod(diagonal)
    composed = [{j: det * d * v for j, v in row.items()}
                for d, row in zip(diagonal, linalg.product(trace_l, lam))]
    factor = None
    for t, row in zip(tau, composed):
        if row:
            j = min(row)
            factor = t.get(j, ZERO) / row[j]
            break
    relabel_matches = factor is not None and tau == [
        {j: factor * v for j, v in row.items() if factor} for row in composed]

    kernel_dim = l_space.dim - linalg.rank(trace_l, l_space.dim)

    probe_amb = {lcol[((1, 2), 2)]: Fraction(1)}
    if any(sum(v * probe_amb.get(c, 0) for c, v in crow) for crow in l_space.constraints):
        raise AssertionError("probe element violates the cyclic constraint")
    probe = l_space.from_ambient(probe_amb)
    out = [sum(v * probe.get(c, 0) for c, v in row.items()) for row in trace_l]
    probe_ok = out[0] != 0 and all(v == 0 for v in out[1:])

    ok = identity_ok and relabel_matches and kernel_dim == 16 and probe_ok
    return TraceContractionReport(
        n=n, identity_ok=identity_ok, relabel_factor=factor,
        relabel_matches=relabel_matches, trace_kernel_dim=kernel_dim,
        probe_ok=probe_ok, ok=ok)


# ---------------------------------------------------------------------------
# potential contradiction

@record
class PotentialContradictionReport:
    n: int
    candidate_composition_nonzero: bool
    curvature_composition_zero: bool
    image_in_candidate_space: bool
    candidate_rank: int
    ok: bool


def potential_contradiction_report(metric=None):
    """The order-1 potential candidate is not annihilated by the second
    identity, while actual linearized curvature is: both checked exactly."""
    n = 4
    w = resolve_metric(n, metric)
    b = bianchi(n, w)
    lc = lanczos_candidate(n, w)
    riem = riemann_linearized(n, w)
    nonzero = not compose(b, lc).is_zero()
    zero = compose(b, riem).is_zero()
    # informational: the candidate has a 6-dimensional gauge kernel, so its
    # generic rank is 14 rather than full
    rank = operators.differential_rank(lc)
    return PotentialContradictionReport(
        n=n,
        candidate_composition_nonzero=nonzero,
        curvature_composition_zero=zero,
        image_in_candidate_space=True,   # enforced when the builder runs
        candidate_rank=rank,
        ok=nonzero and zero)


# ---------------------------------------------------------------------------
# auxiliary counts

def hessian_system_cc_count(n):
    """Minimal condition count for the full second-gradient system on
    vector fields (one unknown per direction, one equation per symmetric
    index pair and component)."""
    src = tangent_space(n)
    pairs = sym_tuples(n, 2)
    labels = [f"h{bundles._digits(p)}_{k}"
              for p in pairs for k in range(1, n + 1)]
    tgt = bundles.free_basis("S2T*xT", n, labels)
    op = OperatorMatrix("second_gradient", n, src, tgt, tuple(
        (1, {(k, _mono(n, i, j)): 1}) for i, j in pairs for k in range(n)))
    cc = operators.compatibility_conditions(op)
    return cc.target.dim
