"""Condition chains, parametrizations, and the named verification reports."""

import hashlib
from fractions import Fraction
from itertools import product

import pytest

from diffseq import linalg, operators, sequences
from diffseq.config import DegreeCapExceeded
from diffseq.bundles import ext_tuples, free_basis, perm_sign, trace_free_sym2
from diffseq.groebner import (GeneratorError, GradedPresentation, minimal_graded_generators,
                              module_equality, syzygies)
from diffseq.operators import adjoint, apply, compatibility_conditions, compose, \
    make_operator, rows_presentation
from diffseq.poly import ConstantMetric, Poly
from diffseq.sequences import (
    BUILDERS,
    _constrained_rows,
    bianchi,
    build_sequence,
    check_parametrization,
    conformal_killing,
    double_duality_report,
    einstein,
    exterior_derivative,
    hessian_system_cc_count,
    is_self_adjoint_sym2,
    killing,
    lanczos_candidate,
    parametrization_generators,
    potential_contradiction_report,
    ricci,
    riemann_linearized,
    trace_contraction_check,
    weyl_relations_report,
)
from polyref import degree, monomial, mul, variable

CHAINS = {
    ("killing", 2): ((2, 3, 1), (1, 2)),
    ("killing", 3): ((3, 6, 6, 3), (1, 2, 1)),
    ("killing", 4): ((4, 10, 20, 20, 6), (1, 2, 1, 1)),
    ("conformal_killing", 3): ((3, 5, 5, 3), (1, 3, 1)),
    ("conformal_killing", 4): ((4, 9, 10, 9, 4), (1, 2, 2, 1)),
}

BUILD = {"killing": killing, "conformal_killing": conformal_killing}


def test_chains_reproduce_the_classical_tables():
    for (name, n), (dims, orders) in CHAINS.items():
        rep = build_sequence(BUILD[name](n))
        assert rep.dims == dims, (name, n)
        assert rep.orders == orders, (name, n)
        assert rep.terminated
        assert rep.euler_characteristic == 0


@pytest.mark.parametrize("builder, dims, orders", [
    (killing, (7, 28, 196, 490, 588, 392, 140, 21), (1, 2, 1, 1, 1, 1, 1)),
    (conformal_killing, (7, 27, 168, 378, 378, 168, 27, 7), (1, 2, 1, 1, 1, 2, 1)),
], ids=["killing", "conformal_killing"])
def test_chains_at_n7(builder, dims, orders):
    # 686 tagged components at the widest step: a 10-bit component field
    rep = build_sequence(builder(7))
    assert rep.dims == dims
    assert rep.orders == orders
    assert rep.terminated and rep.euler_characteristic == 0


def test_consecutive_operators_compose_to_zero():
    rep = build_sequence(killing(3))
    for a, b in zip(rep.steps, rep.steps[1:]):
        assert compose(b.operator, a.operator).is_zero()


def test_conditions_of_the_exterior_derivative_are_the_next_one():
    for n, r in ((3, 0), (3, 1), (4, 0), (4, 1), (4, 2)):
        cc = compatibility_conditions(exterior_derivative(n, r))
        nxt = exterior_derivative(n, r + 1)
        assert cc.shape == nxt.shape
        assert module_equality(rows_presentation(cc), rows_presentation(nxt))


def _hodge_relabeled_adjoint(n, r):
    """ad(d_r) with rows and columns relabeled by basis complements."""
    ad = adjoint(exterior_derivative(n, r))
    src_t = ext_tuples(n, r + 1)
    tgt_t = ext_tuples(n, r)
    comp_src = {t: tuple(i for i in range(1, n + 1) if i not in t)
                for t in src_t}
    comp_tgt = {t: tuple(i for i in range(1, n + 1) if i not in t)
                for t in tgt_t}
    out_rows = ext_tuples(n, n - r)
    out_cols = ext_tuples(n, n - r - 1)
    mat = [[Poly.zero(n) for _ in out_cols] for _ in out_rows]
    for i, ti in enumerate(tgt_t):
        si = perm_sign(ti + comp_tgt[ti])
        for j, tj in enumerate(src_t):
            sj = perm_sign(tj + comp_src[tj])
            entry = ad.rows[i][j].scale(si * sj)
            mat[out_rows.index(comp_tgt[ti])][out_cols.index(comp_src[tj])] = entry
    return mat


def test_adjoint_of_exterior_derivative_is_its_complement_up_to_sign():
    for n, r in ((3, 0), (3, 1), (4, 1)):
        relabeled = _hodge_relabeled_adjoint(n, r)
        direct = exterior_derivative(n, n - r - 1).rows
        same = all(relabeled[i][j] == direct[i][j]
                   for i in range(len(direct)) for j in range(len(direct[0])))
        negated = all(relabeled[i][j] == direct[i][j].scale(-1)
                      for i in range(len(direct)) for j in range(len(direct[0])))
        assert same or negated, (n, r)


def test_curvature_rows_generate_the_killing_conditions():
    for n in (3, 4):
        cc = compatibility_conditions(killing(n))
        riem = riemann_linearized(n)
        assert module_equality(rows_presentation(cc), rows_presentation(riem))


def _two_orders():
    """Rows x1 and x2^2 on one unknown: its conditions mix orders in a row."""
    x1, x2 = variable(2, 1), variable(2, 2)
    return make_operator("two", 2, free_basis("U", 2, ["u"]),
                         free_basis("S", 2, ["s1", "s2"]), [[x1], [mul(x2, x2)]])


def test_a_row_of_two_orders_is_weighted_by_column():
    x1, x2 = variable(2, 1), variable(2, 2)
    cc = compatibility_conditions(_two_orders())
    assert cc.rows == ((mul(x2, x2).scale(-1), x1),)
    assert rows_presentation(cc).shifts == (0, 1)
    rep = build_sequence(_two_orders())
    assert (rep.dims, rep.orders) == ((1, 2, 1), (2, 2))
    assert rep.terminated and rep.euler_characteristic == 0


def test_a_candidate_whose_conditions_mix_orders_gets_a_verdict():
    op = _two_orders()
    assert check_parametrization(compatibility_conditions(op), op).ok


def test_rows_that_no_column_weighting_makes_homogeneous_keep_the_first_error():
    x1, x2 = variable(2, 1), variable(2, 2)
    src, tgt = free_basis("U", 2, ["u1", "u2"]), free_basis("S", 2, ["s1", "s2"])
    # row 0 ties w_1 = w_0 + 1, row 1 ties w_1 = w_0
    op = make_operator("clash", 2, src, tgt, [[mul(x1, x1), x2], [x1, x2]])
    with pytest.raises(GeneratorError, match=r"row 0 mixes shifted degrees \[1, 2\]"):
        rows_presentation(op)


def test_second_identity_annihilates_curvature():
    for n in (3, 4):
        assert compose(bianchi(n), riemann_linearized(n)).is_zero()


def _columns_presentation(op):
    cols = tuple(tuple(op.rows[i][j] for i in range(op.target.dim))
                 for j in range(op.source.dim))
    return GradedPresentation.from_rows(n=op.n, ambient_rank=op.target.dim, rows=cols)


def test_airy_parametrization():
    """Plane stress: one degree-2 potential generates the whole kernel."""
    cauchy = adjoint(killing(2))
    pot = parametrization_generators(cauchy)
    assert pot.source.dim == 1
    assert pot.order == 2
    assert compose(cauchy, pot).is_zero()
    assert module_equality(_columns_presentation(pot),
                           _columns_presentation(adjoint(riemann_linearized(2))))
    assert check_parametrization(cauchy, adjoint(riemann_linearized(2))).ok


def test_beltrami_parametrization():
    assert check_parametrization(adjoint(killing(3)),
                                 adjoint(riemann_linearized(3))).ok


def test_lanczos_parametrization():
    assert check_parametrization(adjoint(riemann_linearized(4)),
                                 adjoint(bianchi(4))).ok


def test_a_candidate_that_misses_relations_is_refused():
    # x1 times the stress divergence: the Airy potential still composes to
    # zero with it, but its rows generate only x1 times the relations
    cauchy = adjoint(killing(2))
    x1 = variable(2, 1)
    scaled = make_operator("x1 ad(killing)", 2, cauchy.source, cauchy.target,
                           [[mul(p, x1) for p in row] for row in cauchy.rows])
    verdict = check_parametrization(scaled, adjoint(riemann_linearized(2)))
    assert (verdict.composes_to_zero, verdict.ok) == (True, False)


def _killing_without_column_0():
    k = killing(2)
    return make_operator("killing(2) no col 0", 2, k.source, k.target,
                         [[p.scale(0) if j == 0 else p for j, p in enumerate(row)]
                          for row in k.rows])


def test_zero_rows_of_the_target_generate_nothing():
    # the adjoint of killing(2) with column 0 cleared has a zero row 0; the
    # Airy potential composes to zero with it but misses the relation of row 0
    verdict = check_parametrization(adjoint(_killing_without_column_0()),
                                    adjoint(riemann_linearized(2)))
    assert (verdict.composes_to_zero, verdict.ok) == (True, False)


def test_a_zero_row_of_the_candidate_is_refused():
    # its unit condition is a relation the target would have to generate
    verdict = check_parametrization(riemann_linearized(2), _killing_without_column_0())
    assert (verdict.composes_to_zero, verdict.ok) == (True, False)


def test_potentials_of_an_operator_with_a_zero_column():
    # curl with an extra component it ignores: the gradient potentials, and
    # one unit potential on the ignored component
    curl = exterior_derivative(3, 1)
    source = free_basis("T*+", 3, [*curl.source.element_labels, "z"])
    op = make_operator("curl+", 3, source, curl.target,
                       [[*row, Poly.zero(3)] for row in curl.rows])
    pot = parametrization_generators(op)
    x = [variable(3, i) for i in (1, 2, 3)]
    zero, unit = Poly.zero(3), monomial(3)
    assert pot.rows == ((x[0].scale(-1), zero), (x[1].scale(-1), zero),
                        (x[2].scale(-1), zero), (zero, unit))
    assert check_parametrization(op, pot).ok
    assert compose(_killing_without_column_0(),
                   parametrization_generators(_killing_without_column_0())).is_zero()


def test_a_candidate_into_another_bundle_is_a_value_error():
    with pytest.raises(ValueError):
        check_parametrization(adjoint(killing(2)), adjoint(killing(2)))


METRICS = (None, "minkowski")


def _metric(n, name):
    return ConstantMetric.minkowski(n) if name else None


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n", (5, 6))
@pytest.mark.parametrize("builder", (killing, conformal_killing))
def test_full_depth_double_duality(builder, n, metric):
    rep = double_duality_report(builder(n, _metric(n, metric)), depth=n + 1)
    # the chain has n operators, so n - 1 adjoint positions
    assert len(rep.verdicts) == n - 1
    assert rep.ok and all(v.ok for v in rep.verdicts)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("builder", (killing, conformal_killing))
def test_the_potentials_of_each_adjoint_are_the_next_adjoint(builder, n, metric):
    ops = [s.operator for s in build_sequence(builder(n, _metric(n, metric))).steps]
    for op, nxt in zip(ops, ops[1:]):
        assert parametrization_generators(adjoint(op)).vectors == adjoint(nxt).vectors


def _column_route(op):
    """Potentials of ``op`` from its columns, unnegated: the minimal
    relations among the columns, as the columns of an operator."""
    cols = [[op.rows[i][j] for i in range(op.target.dim)] for j in range(op.source.dim)]
    pres = GradedPresentation.from_rows(op.n, op.target.dim, cols)
    gens = minimal_graded_generators(syzygies(pres)).generators
    return [[g[j] for g in gens] for j in range(op.source.dim)]


def _reference_operators():
    for builder in BUILDERS.values():
        for n, metric in product((2, 3, 4, 5), METRICS):
            try:
                yield builder(n, _metric(n, metric))
            except ValueError:  # a builder that does not exist at this n
                pass
    for n in (2, 3, 4, 5):
        yield from (exterior_derivative(n, r) for r in range(n))


def test_potentials_match_the_column_route():
    ops = list(_reference_operators())
    assert lanczos_candidate(4) in ops and len(ops) > 50
    for op in ops:
        pot, ref = parametrization_generators(op), _column_route(op)
        assert pot.shape == (len(ref), len(ref[0])), op.name
        assert pot.order == max((degree(p) for row in ref for p in row), default=0), op.name
        assert compose(op, pot).is_zero(), op.name
        assert module_equality(_columns_presentation(pot),
                               GradedPresentation.from_rows(op.n, op.source.dim, zip(*ref)))


def test_double_duality_of_the_acceptance_cases():
    for op in (killing(2), killing(3), killing(4),
               conformal_killing(4), exterior_derivative(3, 0)):
        rep = double_duality_report(op)
        assert rep.ok, op.name
    assert len(double_duality_report(killing(2)).verdicts) == 1


def test_einstein_is_self_adjoint_and_ricci_is_not():
    assert is_self_adjoint_sym2(einstein(4))
    assert is_self_adjoint_sym2(einstein(3))
    assert not is_self_adjoint_sym2(ricci(4))


def test_einstein_conditions_are_the_divergence():
    cc = compatibility_conditions(einstein(4))
    assert cc.target.dim == 4
    assert cc.order == 1
    assert all(degree(p) in (-1, 1) for row in cc.rows for p in row)


def test_weyl_relations_bookkeeping():
    rep = weyl_relations_report()
    assert rep.relation_count == 16
    assert rep.cc_count == 6
    assert rep.differential_rank == 10
    assert rep.cc_degrees == (1,) * 6
    assert rep.diagram_rows == ((10, 16, 6), (10, 20, 20, 6), (10, 10, 4))
    assert rep.ok


def test_trace_contraction_identity():
    rep = trace_contraction_check()
    assert rep.identity_ok
    assert rep.relabel_matches
    assert rep.relabel_factor == -2
    assert rep.trace_kernel_dim == 16
    assert rep.probe_ok
    assert rep.ok


@pytest.mark.parametrize("metric", [None, ConstantMetric.minkowski(4)],
                         ids=["euclidean", "minkowski"])
def test_trace_contraction_identity_sees_the_double_trace(monkeypatch, metric):
    # part one compares nonzero symbols on curvature candidates, so a double
    # trace taken twice over breaks it; the relabel factor follows tau
    plain = sequences._double_trace_matrix
    monkeypatch.setattr(sequences, "_double_trace_matrix", lambda n, w: [
        {c: 2 * v for c, v in row.items()} for row in plain(n, w)])
    rep = trace_contraction_check(metric)
    assert not rep.identity_ok and not rep.ok
    assert rep.relabel_matches and rep.relabel_factor == -4


def _diagonal_metric(*entries):
    return ConstantMetric([[v if i == j else 0 for j in range(4)]
                           for i, v in enumerate(entries)])


def test_trace_contraction_under_diagonal_sign_metrics():
    # the relabel carries the volume form, so every ±1 diagonal metric gives
    # the euclidean factor
    for metric in (ConstantMetric.minkowski(4), _diagonal_metric(-1, 1, 1, 1),
                   _diagonal_metric(1, -1, 1, -1)):
        rep = trace_contraction_check(metric)
        assert rep.relabel_matches and rep.relabel_factor == -2, metric.entries
        assert rep.ok, metric.entries


def test_trace_contraction_refuses_other_metrics():
    with pytest.raises(ValueError, match="diagonal metric"):
        trace_contraction_check(_diagonal_metric(2, 1, 3, -1))
    with pytest.raises(ValueError, match="diagonal metric"):
        # off-diagonal, though every entry is 0 or 1
        trace_contraction_check(ConstantMetric(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_potential_contradiction():
    rep = potential_contradiction_report()
    assert rep.candidate_composition_nonzero
    assert rep.curvature_composition_zero
    assert rep.image_in_candidate_space
    assert rep.candidate_rank == 14
    assert rep.ok


def test_lanczos_candidate_image_is_annihilated_by_nothing_weaker():
    lc = lanczos_candidate(4)
    assert not compose(bianchi(4), lc).is_zero()


def test_hessian_system_relation_counts():
    assert hessian_system_cc_count(2) == 4
    assert hessian_system_cc_count(3) == 24
    assert hessian_system_cc_count(4) == 80


def test_minkowski_chains_match_euclidean_dimensions():
    w3 = ConstantMetric.minkowski(3)
    rep = build_sequence(killing(3, w3))
    assert rep.dims == (3, 6, 6, 3)
    assert rep.orders == (1, 2, 1)
    w4 = ConstantMetric.minkowski(4)
    assert is_self_adjoint_sym2(einstein(4, w4), w4)
    assert potential_contradiction_report(metric=w4).ok


def test_builders_are_cached():
    assert killing(4) is killing(4)
    assert conformal_killing(3) is conformal_killing(3)


def test_rotation_field_is_killing():
    rot = [variable(2, 2).scale(-1), variable(2, 1)]
    out = apply(killing(2), rot)
    assert all(p.is_zero() for p in out)
    shear = [variable(2, 2), Poly.zero(2)]
    assert any(not p.is_zero() for p in apply(killing(2), shear))


def test_flat_killing_solutions_of_low_degree():
    """Polynomial vector fields of degree at most two in the plane:
    the solution space is spanned by two translations and one rotation."""
    n = 2
    monos = [m for m in product(range(3), repeat=n) if sum(m) <= 2]
    unknowns = [(k, m) for k in range(n) for m in monos]
    rows = {}
    op = killing(n)
    for col, (k, m) in enumerate(unknowns):
        section = [Poly.zero(n), Poly.zero(n)]
        section[k] = monomial(n, m)
        out = apply(op, section)
        for comp, p in enumerate(out):
            for mono, coef in p.terms.items():
                rows.setdefault((comp, mono), {})[col] = coef
    sparse = list(rows.values())
    kernel = linalg.integer_kernel(sparse, len(unknowns))[0]
    assert len(kernel) == 3


def test_degree_cap_error_names_operator_step_and_degree(monkeypatch):
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", "1")
    with pytest.raises(DegreeCapExceeded) as info:
        build_sequence(killing(3))
    assert info.value.degree == 2
    assert str(info.value) == (
        "conditions of killing (step 0): "
        "completion needs S-pairs of degree 2, above cap 1")


def test_build_sequence_rejects_conditions_that_do_not_annihilate(monkeypatch):
    real = operators.compatibility_conditions

    def perturbed(op):
        cc = real(op)
        rows = [list(r) for r in cc.rows]
        rows[0][0] = rows[0][0] + monomial(op.n, (2,) + (0,) * (op.n - 1),
                                           Fraction(1, 3))
        return operators.make_operator(cc.name, cc.n, cc.source, cc.target, rows)

    monkeypatch.setattr(operators, "compatibility_conditions", perturbed)
    with pytest.raises(AssertionError, match="do not annihilate"):
        build_sequence(killing(3))


def test_constrained_rows_refuse_an_image_outside_the_space():
    space = trace_free_sym2(3)
    ambient = [(1, {})] * space.ambient_dim
    ambient[0] = (2, {(0, (1, 0, 0)): 1})
    with pytest.raises(AssertionError, match="violates a constraint"):
        _constrained_rows(space, ambient, 3)


# the chains the benchmark times: killing and conformal_killing at n = 4..6,
# and both at n = 5 under the Minkowski metric
BENCHMARKED_CHAINS = ([(killing, n, False) for n in (4, 5, 6)]
                      + [(conformal_killing, n, False) for n in (4, 5, 6)]
                      + [(killing, 5, True), (conformal_killing, 5, True)])


def test_benchmarked_chains_are_pinned():
    """Dims, orders and every step's integer vectors, each as sorted items."""
    digest = hashlib.sha256()
    for builder, n, minkowski in BENCHMARKED_CHAINS:
        rep = build_sequence(builder(n, ConstantMetric.minkowski(n) if minkowski else None))
        digest.update(repr((rep.dims, rep.orders)).encode("utf-8"))
        for step in rep.steps:
            for den, vec in step.operator.vectors:
                digest.update(repr((den, sorted(vec.items()))).encode("utf-8"))
    assert digest.hexdigest() == BENCHMARKED_CHAINS_SHA256


# any change to a benchmarked chain's dims, orders or condition rows changes it
BENCHMARKED_CHAINS_SHA256 = "93a292c06420e0782e79e36c1a85f93075b276d672e122c4c42d6fe4ffc1b238"
