"""Named geometric operators, their sequences, and the headline checks.

Builders return exact symbol matrices for the classical flat-metric
operators (Killing, linearized curvature, second identity, traces, the
conformal variant, exterior derivatives, the potential candidate).  On top
of those sit the sequence constructor, the parametrization test via module
duality, and the verification reports for the splitting, the potential
contradiction, and the contracted-trace identity.
"""

from fractions import Fraction
from functools import lru_cache
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
from .config import record
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
    columns) satisfy every constraint of the space, then keeps the rows at
    the free components."""
    constraints = [operators._constant_row(space.n, crow)
                   for crow in bundles.constraint_rows(space)]
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


@lru_cache(maxsize=None)
def _riemann_ambient_terms(n):
    """Ambient symbol rows of the linearized curvature, one per 4-tuple, as
    integer vectors with read-only term maps, shared by every caller."""
    pcol = {p: c for c, p in enumerate(sym_tuples(n, 2))}
    rows = []
    for k, l, i, j in bundles.all_tuples(n, 4):
        row = {}
        for a, b, h1, h2, coef in ((l, i, k, j, HALF), (l, j, k, i, -HALF),
                                   (k, i, l, j, -HALF), (k, j, l, i, HALF)):
            _add_term(row, (pcol[(min(h1, h2), max(h1, h2))], _mono(n, a, b)), coef)
        den, vec = linalg._integral(row)
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
    idx4 = bundles.all_tuples(n, 4)
    rcol = {t: c for c, t in enumerate(idx4)}
    a_r = src.ambient_from_coords
    ambient = []
    for k, l in ext_tuples(n, 2):
        for i, j, r in ext_tuples(n, 3):
            row = {}
            for d, (a, b) in ((r, (i, j)), (i, (j, r)), (j, (r, i))):
                mono = _mono(n, d)
                for c, coef in enumerate(a_r[rcol[(k, l, a, b)]]):
                    if coef:
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


def _pair_trace(n, w):
    """Coefficients of the metric trace w^{ab} T_ab over the pair components."""
    pcol = {p: c for c, p in enumerate(sym_tuples(n, 2))}
    out = [ZERO] * len(pcol)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            out[pcol[(min(a, b), max(a, b))]] += w.upper(a, b)
    return out


@metric_cache
def einstein(n, metric=None):
    """Trace-reverted curvature trace; divergence-free by construction:
    Ric - (1/2) w S, with S the metric trace of Ric, one constant matrix
    applied to the rows of ``ricci``."""
    if n < 3:
        raise ValueError("trace-reverted operator needs n >= 3")
    ric, trace = ricci(n, metric), _pair_trace(n, metric)
    revert = [operators._constant_row(n, {k: (c == k) - HALF * metric.lower(i, j) * t
                                          for k, t in enumerate(trace)})
              for c, (i, j) in enumerate(sym_tuples(n, 2))]
    return OperatorMatrix("einstein", n, ric.source, ric.target, tuple(
        operators._product_rows(revert, ric.vectors, n, ric.source.dim)))


def exterior_derivative(n, r):
    """Alternating first-derivative map on r-forms."""
    if not 0 <= r < n:
        raise ValueError(f"form degree {r} out of range for n={n}")
    return _exterior_derivative(n, r)


@lru_cache(maxsize=None)
def _exterior_derivative(n, r):
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
            for col, coef in enumerate(a_l[lcol[(slot, c)]]):
                if coef:
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
    order: int
    source_dim: int
    target_dim: int


@record
class SequenceReport:
    name: str
    n: int
    steps: tuple
    dims: tuple
    orders: tuple
    terminated: bool
    euler_characteristic: object   # int when terminated, else None
    verdicts: dict

    def chain_string(self):
        return " -> ".join(str(d) for d in self.dims)


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
    steps = tuple(SequenceStep(o, d, o.source.dim, o.target.dim)
                  for o, d in zip(ops, orders))
    return SequenceReport(
        name=op.name, n=op.n, steps=steps, dims=dims, orders=orders,
        terminated=terminated, euler_characteristic=euler,
        verdicts={"zero_compositions": True, "terminated": terminated})


# ---------------------------------------------------------------------------
# parametrization checks

@record
class ParametrizationVerdict:
    ok: bool
    composes_to_zero: bool
    generates_all_relations: bool
    target_name: str
    candidate_name: str


def check_parametrization(target, candidate):
    """Does ``candidate`` parametrize the kernel of ``target``?

    True exactly when the composition vanishes and the rows of ``target``
    generate every relation among the rows of ``candidate``; by module
    duality this makes solutions of ``target`` precisely the image of
    ``candidate``.  A zero composition makes every row of ``target`` such a
    relation, so only the other inclusion is tested then.  Zero rows of
    ``target`` generate nothing and are left out of that test.
    """
    zero = compose(target, candidate).is_zero()
    full = zero and groebner.module_contains(
        operators._presentation(target.n, target.source.dim,
                                [v for v in target.vectors if v[1]]),
        groebner.syzygies(operators.rows_presentation(candidate)))
    return ParametrizationVerdict(
        ok=full,
        composes_to_zero=zero,
        generates_all_relations=full,
        target_name=target.name,
        candidate_name=candidate.name)


def parametrization_generators(op):
    """Minimal generating set of column relations as an operator: ad(CC(ad(op))).

    The returned operator maps a fresh potential bundle into the source of
    ``op`` and satisfies ``op o result = 0``; its columns generate every
    vector annihilated by ``op`` from the right.
    """
    pot = adjoint(operators.compatibility_conditions(adjoint(op)))
    src = bundles.free_basis(f"P({op.source.label})", op.n,
                             [f"p{i}" for i in range(1, pot.source.dim + 1)])
    return OperatorMatrix(f"potential({op.name})", op.n, src, op.source, pot.vectors)


@record
class DoubleDualityReport:
    name: str
    n: int
    depth: int
    verdicts: tuple   # one ParametrizationVerdict per adjoint position
    ok: bool
    note: str = ("value spaces and their adjoint-side counterparts share "
                 "fiber dimensions in fixed coordinates; transition-rule "
                 "distinctions between the two are not modeled here")


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
        name=op.name, n=op.n, depth=len(ads) - 1,
        verdicts=verdicts, ok=all(v.ok for v in verdicts))


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
        "inject_weyl", n, split.weyl_space, split.riemann_space,
        [list(r) for r in split.inject_weyl])
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
    """Rows r: coefficients of S ω^{ij} ω^{sm} B_{(mi),(jrs)} over the
    pair-triple ambient components."""
    pairs = ext_tuples(n, 2)
    triples = ext_tuples(n, 3)
    col = {(p, t): c for c, (p, t) in enumerate(
        [(p, t) for p in pairs for t in triples])}
    rows = []
    for r in range(1, n + 1):
        row = [ZERO] * (len(pairs) * len(triples))
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
                        c = col[(slot, tuple(sorted(trip)))]
                        row[c] += wij * wsm * sg1 * sg2
        rows.append(row)
    return rows


def trace_contraction_check(metric=None):
    """Verify the contracted second identity and the relabeled trace arrow.

    Part one: the double metric trace of the second identity, applied to
    linearized curvature, equals twice the divergence of the mixed trace
    minus the gradient of the scalar trace, an exact matrix identity.
    Part two: on the value space, the same double trace factors through the
    signed relabeling onto the potential space as a constant multiple of the
    potential trace L_i = w^{jk} L_{ij,k}; the constant is recorded.
    Implemented at n = 4, where the relabeling exists.
    """
    n = 4
    w = resolve_metric(n, metric)
    b_space = bianchi_candidate_space(n, w)
    tau_amb = _double_trace_matrix(n, w)
    a_b = [list(r) for r in b_space.ambient_from_coords]
    tau = linalg.mat_mul(tau_amb, a_b)   # 4 x dim(F2)

    covector = bundles.free_basis("T*", n, [f"a{i}" for i in range(1, n + 1)])
    tau_op = operators.from_scalar_matrix(
        "double_trace", n, b_space, covector, tau)
    lhs = compose(tau_op, compose(bianchi(n, w), riemann_linearized(n, w)))

    # 2 w^{sm} d_s Ric_{mr} - d_r S, a first-order operator applied to Ric
    ric, trace = ricci(n, w), _pair_trace(n, w)
    pcol = {p: c for c, p in enumerate(sym_tuples(n, 2))}
    div_grad = []
    for r in range(1, n + 1):
        row = {}
        for k, t in enumerate(trace):
            _add_term(row, (k, _mono(n, r)), -t)
        for s in range(1, n + 1):
            for m in range(1, n + 1):
                _add_term(row, (pcol[(min(m, r), max(m, r))], _mono(n, s)), 2 * w.upper(s, m))
        div_grad.append(linalg._integral(row))
    identity_ok = lhs.vectors == tuple(
        operators._product_rows(div_grad, ric.vectors, n, ric.source.dim))

    l_space = lanczos_constraint_space(n)
    relabel = bundles.bianchi_to_potential_relabel()
    img = linalg.mat_mul(relabel, a_b)
    for crow in bundles.constraint_rows(l_space):
        for jdx in range(b_space.dim):
            if sum(coef * img[cidx][jdx] for cidx, coef in crow.items()):
                raise AssertionError(
                    "relabeled second-identity space misses the potential space")
    lam = [[img[c][jdx] for jdx in range(b_space.dim)]
           for c in l_space.free_columns]

    idx_l, lcol = lanczos_ambient_index(n)
    trace_amb = []
    for r in range(1, n + 1):
        row = [ZERO] * len(idx_l)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                coef = w.upper(j, k)
                if not coef:
                    continue
                slot, sg = bundles._pair_slot(r, j)
                if not sg:
                    continue
                row[lcol[(slot, k)]] += coef * sg
        trace_amb.append(row)
    a_l = [list(r) for r in l_space.ambient_from_coords]
    trace_l = linalg.mat_mul(trace_amb, a_l)   # 4 x 20

    composed = linalg.mat_mul(trace_l, lam)
    factor = None
    for i in range(4):
        for j in range(b_space.dim):
            if composed[i][j]:
                factor = tau[i][j] / composed[i][j]
                break
        if factor is not None:
            break
    relabel_matches = factor is not None and all(
        tau[i][j] == factor * composed[i][j]
        for i in range(4) for j in range(b_space.dim))

    kernel_dim = l_space.dim - linalg.dense_rank(trace_l)

    probe_amb = [ZERO] * len(idx_l)
    probe_amb[lcol[((1, 2), 2)]] = Fraction(1)
    for crow in bundles.constraint_rows(l_space):
        if sum(coef * probe_amb[cidx] for cidx, coef in crow.items()):
            raise AssertionError("probe element violates the cyclic constraint")
    probe = l_space.from_ambient(probe_amb)
    out = linalg.mat_vec(trace_l, probe)
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
