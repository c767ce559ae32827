"""Acceptance checks, one test per criterion, all with exact arithmetic.

Each test is self-contained and asserts the frozen integer values the
package is required to reproduce; ``pytest -v`` prints one verdict line
per criterion.
"""

import random
from fractions import Fraction

from diffseq import linalg, spencer
from diffseq.bundles import (
    lanczos_constraint_space,
    riemann_trace_rows,
    split_riemann,
)
from diffseq.operators import adjoint, apply, compatibility_conditions, compose
from diffseq.poly import Poly
from diffseq.sequences import (
    bianchi,
    build_sequence,
    check_parametrization,
    conformal_killing,
    double_duality_report,
    einstein,
    exterior_derivative,
    is_self_adjoint_sym2,
    killing,
    lanczos_candidate,
    parametrization_generators,
    potential_contradiction_report,
    riemann_linearized,
    trace_contraction_check,
    weyl_relations_report,
)


CLASSICAL = {
    2: ((2, 3, 1), (1, 2)),
    3: ((3, 6, 6, 3), (1, 2, 1)),
    4: ((4, 10, 20, 20, 6), (1, 2, 1, 1)),
    5: ((5, 15, 50, 75, 45, 10), (1, 2, 1, 1, 1)),
}

CONFORMAL = {
    3: ((3, 5, 5, 3), (1, 3, 1)),
    4: ((4, 9, 10, 9, 4), (1, 2, 2, 1)),
    5: ((5, 14, 35, 35, 14, 5), (1, 2, 1, 2, 1)),
}


def test_criterion_01_killing_sequence_tables():
    for n, (dims, orders) in CLASSICAL.items():
        rep = build_sequence(killing(n))
        assert rep.dims == dims, f"n={n}"
        assert rep.orders == orders, f"n={n}"
        assert rep.terminated


def test_criterion_02_conformal_sequence_tables():
    for n, (dims, orders) in CONFORMAL.items():
        rep = build_sequence(conformal_killing(n))
        assert rep.dims == dims, f"n={n}"
        assert rep.orders == orders, f"n={n}"
    # the second-order conditions on the conformal curvature at n=4
    assert build_sequence(conformal_killing(4)).orders[2] == 2


def test_criterion_03_euler_characteristics_vanish():
    assert 4 - 10 + 20 - 20 + 6 == 0
    for n in CLASSICAL:
        assert build_sequence(killing(n)).euler_characteristic == 0, f"n={n}"
    for n in CONFORMAL:
        rep = build_sequence(conformal_killing(n))
        assert rep.euler_characteristic == 0, f"n={n}"


def test_criterion_04_delta_cohomology_dimensions():
    detail = spencer.delta_cohomology_detail(killing(4), 3)
    assert (detail[2].dim, detail[2].rank_out, detail[2].h) == (36, 16, 20)
    assert (detail[3].dim, detail[3].rank_out, detail[3].h) == (24, 4, 20)
    for n in range(2, 6):
        dims = spencer.delta_cohomology_dims(killing(n), min(n, 3))
        assert dims[2] == n * n * (n * n - 1) // 12, f"n={n}"
        if n >= 3:
            assert dims[3] == n * n * (n * n - 1) * (n - 2) // 24, f"n={n}"
    conf = spencer.delta_cohomology_detail(conformal_killing(4), 3, q=2)
    assert (conf[3].dim, conf[3].rank_out, conf[3].h) == (16, 7, 9)


def test_criterion_05_double_duality():
    cases = (killing(2), killing(3), killing(4),
             conformal_killing(4), exterior_derivative(3, 0))
    for op in cases:
        rep = double_duality_report(op)
        assert rep.ok, f"{op.name}: {rep.verdicts}"


def test_criterion_06_named_parametrizations():
    # plane stress: a single degree-2 potential, and it is the adjoint
    # of the linearized curvature
    cauchy = adjoint(killing(2))
    pot = parametrization_generators(cauchy)
    assert pot.source.dim == 1
    assert pot.order == 2
    assert check_parametrization(cauchy, adjoint(riemann_linearized(2)))
    # three dimensions: the stress potential has six components
    assert check_parametrization(adjoint(killing(3)),
                                 adjoint(riemann_linearized(3)))
    # four dimensions: the adjoint of the second identity parametrizes
    # the adjoint of the curvature
    assert check_parametrization(adjoint(riemann_linearized(4)),
                                 adjoint(bianchi(4)))


def test_criterion_07_potential_candidate_contradiction():
    rep = potential_contradiction_report()
    assert rep.candidate_composition_nonzero
    assert rep.curvature_composition_zero
    assert rep.image_in_candidate_space
    assert rep.ok
    assert not compose(bianchi(4), lanczos_candidate(4)).is_zero()
    assert compose(bianchi(4), riemann_linearized(4)).is_zero()


def test_criterion_08_curvature_splitting_and_einstein():
    split = split_riemann(4)
    pr, ir = split.project_ricci, split.inject_ricci
    pw, iw = split.project_weyl, split.inject_weyl
    assert linalg.mat_mul(pr, ir) == linalg.identity(10)
    assert linalg.mat_mul(pw, iw) == linalg.identity(10)
    assert not any(any(row) for row in linalg.mat_mul(pr, iw))
    assert not any(any(row) for row in linalg.mat_mul(pw, ir))
    recompose = linalg.mat_mul(ir, pr)
    wpart = linalg.mat_mul(iw, pw)
    total = [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(recompose, wpart)]
    assert total == linalg.identity(20)
    assert split.riemann_space.dim == 20
    assert split.sym2_space.dim == 10
    assert split.weyl_space.dim == 10
    # every column of the trace-free injection has vanishing contraction
    traces = riemann_trace_rows(4, _euclid4())
    for j in range(split.weyl_space.dim):
        col = [iw[i][j] for i in range(split.riemann_space.dim)]
        amb = linalg.mat_vec(split.riemann_space.ambient_from_coords, col)
        for row in traces.values():
            assert sum(amb[c] * v for c, v in row.items()) == 0
    assert is_self_adjoint_sym2(einstein(4))
    cc = compatibility_conditions(einstein(4))
    assert cc.target.dim == 4
    assert cc.order == 1
    assert all(p.degree() in (-1, 1) for row in cc.rows for p in row)
    wr = weyl_relations_report()
    assert wr.relation_count == 16
    assert wr.cc_count == 6
    assert wr.differential_rank == 10
    assert wr.ok


def _euclid4():
    from diffseq.poly import ConstantMetric
    return ConstantMetric.euclidean(4)


def test_criterion_09_contracted_identity_and_kernel():
    rep = trace_contraction_check()
    assert rep.identity_ok
    assert rep.trace_kernel_dim == 16
    assert rep.ok


def test_criterion_10_potential_constraint_count():
    space = lanczos_constraint_space(4)
    assert space.ambient_dim == 24
    assert space.ambient_dim - space.dim == 4
    assert space.dim == 20


def _random_section(rng, n, dim):
    out = []
    for _ in range(dim):
        p = Poly.zero(n)
        for _ in range(6):
            deg = rng.randint(0, 5)
            exps = [0] * n
            for _ in range(deg):
                exps[rng.randrange(n)] += 1
            c = rng.randint(-9, 9)
            if c:
                p = p + Poly.monomial(n, tuple(exps), Fraction(c))
        out.append(p)
    return out


def test_criterion_11_random_section_oracle():
    rng = random.Random(20260823)
    chains = [build_sequence(killing(n)) for n in (2, 3, 4, 5)]
    chains += [build_sequence(conformal_killing(n)) for n in (3, 4, 5)]
    for rep in chains:
        pairs = list(zip(rep.steps, rep.steps[1:]))
        assert pairs, rep.name
        for k in range(100):
            first, second = pairs[k % len(pairs)]
            section = _random_section(rng, first.operator.n,
                                      first.operator.source.dim)
            image = apply(first.operator, section)
            residue = apply(second.operator, image)
            assert all(p.is_zero() for p in residue), (rep.name, k)
