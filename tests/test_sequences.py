"""Condition chains, parametrizations, and the named verification reports."""

from fractions import Fraction
from itertools import product

import pytest

from diffseq import linalg, operators
from diffseq.config import DegreeCapExceeded
from diffseq.bundles import ext_tuples, perm_sign, trace_free_sym2
from diffseq.groebner import module_equality
from diffseq.operators import adjoint, apply, compatibility_conditions, compose, \
    rows_presentation
from diffseq.poly import ConstantMetric, Poly
from diffseq.sequences import (
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


def test_second_identity_annihilates_curvature():
    for n in (3, 4):
        assert compose(bianchi(n), riemann_linearized(n)).is_zero()


def _columns_presentation(op):
    from diffseq.groebner import GradedPresentation
    cols = tuple(tuple(op.rows[i][j] for i in range(op.target.dim))
                 for j in range(op.source.dim))
    return GradedPresentation(n=op.n, ambient_rank=op.target.dim,
                              generators=cols)


def test_airy_parametrization():
    """Plane stress: one degree-2 potential generates the whole kernel."""
    cauchy = adjoint(killing(2))
    pot = parametrization_generators(cauchy)
    assert pot.source.dim == 1
    assert pot.order == 2
    assert compose(cauchy, pot).is_zero()
    assert module_equality(_columns_presentation(pot),
                           _columns_presentation(adjoint(riemann_linearized(2))))
    assert check_parametrization(cauchy, adjoint(riemann_linearized(2)))


def test_beltrami_parametrization():
    assert check_parametrization(adjoint(killing(3)),
                                 adjoint(riemann_linearized(3)))


def test_lanczos_parametrization():
    assert check_parametrization(adjoint(riemann_linearized(4)),
                                 adjoint(bianchi(4)))


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
    assert all(p.degree() in (-1, 1) for row in cc.rows for p in row)


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
    rot = [Poly.variable(2, 2).scale(-1), Poly.variable(2, 1)]
    out = apply(killing(2), rot)
    assert all(p.is_zero() for p in out)
    shear = [Poly.variable(2, 2), Poly.zero(2)]
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
        section[k] = Poly.monomial(n, m)
        out = apply(op, section)
        for comp, p in enumerate(out):
            for mono, coef in p.terms.items():
                rows.setdefault((comp, mono), {})[col] = coef
    sparse = list(rows.values())
    kernel = linalg.integer_kernel(sparse, len(unknowns))[0]
    assert len(kernel) == 3


def test_degree_cap_error_names_operator_step_and_degree():
    with pytest.raises(DegreeCapExceeded) as info:
        build_sequence(killing(3), cap=1)
    assert info.value.degree == 2
    assert str(info.value) == (
        "conditions of killing (step 0): "
        "completion needs S-pairs of degree 2, above cap 1")


def test_build_sequence_rejects_conditions_that_do_not_annihilate(monkeypatch):
    real = operators.compatibility_conditions

    def perturbed(op, cap=None):
        cc = real(op, cap=cap)
        rows = [list(r) for r in cc.rows]
        rows[0][0] = rows[0][0] + Poly.monomial(op.n, (2,) + (0,) * (op.n - 1),
                                                Fraction(1, 3))
        return operators.make_operator(cc.name, cc.n, cc.source, cc.target, rows)

    monkeypatch.setattr(operators, "compatibility_conditions", perturbed)
    with pytest.raises(AssertionError, match="do not annihilate"):
        build_sequence(killing(3))


def test_constrained_rows_refuse_an_image_outside_the_space():
    space = trace_free_sym2(3)
    ambient = [[{} for _ in range(3)] for _ in range(space.ambient_dim)]
    ambient[0][0] = {(1, 0, 0): Fraction(1, 2)}
    with pytest.raises(AssertionError, match="violates a constraint"):
        _constrained_rows(space, ambient)
