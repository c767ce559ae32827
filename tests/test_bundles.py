"""Tensor bundle bases: dimensions, embeddings, and the curvature split."""

from fractions import Fraction

import pytest

from diffseq import linalg
from diffseq.bundles import (
    bianchi_candidate_space,
    constrained_basis,
    constraint_rows,
    eps_contraction_matrix,
    ext_space,
    lanczos_constraint_space,
    pair_complement_matrix,
    riemann_candidate_space,
    split_riemann,
    sym2_space,
    tangent_space,
    trace_free_sym2,
    weyl_candidate_space,
)
from diffseq.poly import ConstantMetric

RIEMANN_DIMS = {2: 1, 3: 6, 4: 20, 5: 50}
WEYL_DIMS = {3: 0, 4: 10, 5: 35}


def test_free_space_dimensions():
    assert tangent_space(4).dim == 4
    assert sym2_space(4).dim == 10
    assert ext_space(4, 2).dim == 6
    assert ext_space(4, 4).dim == 1


def test_riemann_candidate_dimensions():
    for n, d in RIEMANN_DIMS.items():
        assert riemann_candidate_space(n).dim == d


def test_weyl_candidate_dimensions():
    for n, d in WEYL_DIMS.items():
        assert weyl_candidate_space(n).dim == d


def test_trace_free_sym2_dimension():
    for n in (3, 4, 5):
        assert trace_free_sym2(n).dim == n * (n + 1) // 2 - 1


def test_lanczos_constraint_count():
    space = lanczos_constraint_space(4)
    assert space.ambient_dim == 24
    assert space.ambient_dim - space.dim == 4
    assert space.dim == 20


def test_bianchi_candidate_dimensions():
    assert bianchi_candidate_space(3).dim == 3
    assert bianchi_candidate_space(4).dim == 20
    assert bianchi_candidate_space(5).dim == 75


def test_constrained_basis_round_trip():
    space = riemann_candidate_space(4)
    coords = [Fraction(i + 1) for i in range(space.dim)]
    ambient = linalg.mat_vec(space.ambient_from_coords, coords)
    assert space.from_ambient(ambient) == coords
    for row in constraint_rows(space):
        assert sum(row[c] * ambient[c] for c in row) == 0


def test_constrained_basis_rejects_nothing_but_satisfies_all_rows():
    rows = [{0: Fraction(1), 1: Fraction(-1)}]
    space = constrained_basis("Pair", 2, ("a", "b"), rows)
    assert space.dim == 1
    amb = linalg.mat_vec(space.ambient_from_coords, [Fraction(3)])
    assert amb[0] == amb[1]


def test_split_riemann_projector_identities():
    for n in (3, 4, 5):
        for metric in (None, ConstantMetric.minkowski(n)):
            split = split_riemann(n, metric)
            dim = split.riemann_space.dim
            pr, pw = split.project_ricci, split.project_weyl
            ir, iw = split.inject_ricci, split.inject_weyl
            assert linalg.mat_mul(pr, ir) == linalg.identity(split.sym2_space.dim)
            if split.weyl_space.dim:
                assert linalg.mat_mul(pw, iw) == \
                    linalg.identity(split.weyl_space.dim)
                assert linalg.is_zero_matrix(linalg.mat_mul(pr, iw))
            assert linalg.is_zero_matrix(linalg.mat_mul(pw, ir))
            total = linalg.mat_mul(ir, pr)
            if split.weyl_space.dim:
                total = [[a + b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(total, linalg.mat_mul(iw, pw))]
            assert total == linalg.identity(dim)


def test_split_riemann_dimension_bookkeeping():
    split3 = split_riemann(3)
    assert (split3.riemann_space.dim, split3.sym2_space.dim,
            split3.weyl_space.dim) == (6, 6, 0)
    split4 = split_riemann(4)
    assert (split4.riemann_space.dim, split4.sym2_space.dim,
            split4.weyl_space.dim) == (20, 10, 10)
    split5 = split_riemann(5)
    assert (split5.riemann_space.dim, split5.sym2_space.dim,
            split5.weyl_space.dim) == (50, 15, 35)


def test_eps_contraction_is_orthogonal():
    e = eps_contraction_matrix(4)
    et = [list(col) for col in zip(*e)]
    assert linalg.mat_mul(e, et) == linalg.identity(4)


def test_pair_complement_is_an_involution():
    p = pair_complement_matrix(4)
    assert linalg.mat_mul(p, p) == linalg.identity(6)


def test_spaces_are_cached_and_hashable():
    a = riemann_candidate_space(4)
    b = riemann_candidate_space(4)
    assert a is b
    assert hash(a) == hash(b)
    assert a.dual().dual() == a


def test_minkowski_weyl_dimension_matches_euclidean():
    w = ConstantMetric.minkowski(4)
    assert weyl_candidate_space(4, w).dim == 10
    assert trace_free_sym2(4, w).dim == 9


def test_unsupported_dimensions_raise():
    from diffseq.sequences import conformal_killing, lanczos_candidate
    with pytest.raises(ValueError):
        lanczos_candidate(3)
    with pytest.raises(ValueError):
        conformal_killing(2)
    assert lanczos_constraint_space(3).dim == 8
