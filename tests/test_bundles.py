"""Tensor bundle bases: dimensions, embeddings, and the curvature split."""

import hashlib
from fractions import Fraction

import pytest

from diffseq import linalg
from diffseq.bundles import (
    balanced,
    bianchi_candidate_space,
    constrained_basis,
    constraint_rows,
    dual_label,
    eps_contraction_matrix,
    free_basis,
    ext_space,
    lanczos_constraint_space,
    pair_complement_matrix,
    pair_trace,
    riemann_candidate_space,
    split_riemann,
    sym2_space,
    sym_tuples,
    tangent_space,
    trace_free_sym2,
    weyl_candidate_space,
)
from diffseq.poly import ConstantMetric

RIEMANN_DIMS = {2: 1, 3: 6, 4: 20, 5: 50}
WEYL_DIMS = {3: 0, 4: 10, 5: 35}


def apply_rows(rows, vec):
    """The sparse image of the sparse vector ``vec`` under sparse rows."""
    out = {}
    for r, row in enumerate(rows):
        s = sum(v * vec.get(c, 0) for c, v in row.items())
        if s:
            out[r] = s
    return out


def unit_rows(k):
    return [{i: 1} for i in range(k)]


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


@pytest.mark.parametrize("n", (3, 4, 5))
def test_pair_trace_sums_the_inverse_metric_over_ordered_index_pairs(n):
    skew = [[2 if i == j == 0 else int(i == j or {i, j} == {0, 1}) for j in range(n)]
            for i in range(n)]
    pairs = sym_tuples(n, 2)
    for w in (ConstantMetric.euclidean(n), ConstantMetric.minkowski(n), ConstantMetric(skew)):
        want = [0] * len(pairs)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                want[pairs.index((min(a, b), max(a, b)))] += w.upper(a, b)
        assert pair_trace(n, w) == want
    assert ConstantMetric(skew).upper(1, 2) != 0


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
    coords = {i: Fraction(i + 1) for i in range(space.dim)}
    ambient = apply_rows(space.ambient_from_coords, coords)
    assert space.from_ambient(ambient) == coords
    for row in constraint_rows(space):
        assert sum(row[c] * ambient.get(c, 0) for c in row) == 0


def test_constrained_basis_rejects_nothing_but_satisfies_all_rows():
    rows = [{0: Fraction(1), 1: Fraction(-1)}]
    space = constrained_basis("Pair", 2, ("a", "b"), rows)
    assert space.dim == 1
    amb = apply_rows(space.ambient_from_coords, {0: Fraction(3)})
    assert amb[0] == amb[1]


def test_split_riemann_projector_identities():
    for n in (3, 4, 5):
        for metric in (None, ConstantMetric.minkowski(n)):
            split = split_riemann(n, metric)
            dim = split.riemann_space.dim
            pr, pw = split.project_ricci, split.project_weyl
            ir, iw = split.inject_ricci, split.inject_weyl
            assert linalg.product(pr, ir) == unit_rows(split.sym2_space.dim)
            assert linalg.product(pw, iw) == unit_rows(split.weyl_space.dim)
            assert not any(linalg.product(pr, iw))
            assert not any(linalg.product(pw, ir))
            total = [{c: r1.get(c, 0) + r2.get(c, 0) for c in r1.keys() | r2.keys()}
                     for r1, r2 in zip(linalg.product(ir, pr), linalg.product(iw, pw))]
            assert [{c: v for c, v in row.items() if v} for row in total] == unit_rows(dim)


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
    e = eps_contraction_matrix()
    et = [{l: row[t] for l, row in enumerate(e) if t in row} for t in range(4)]
    assert linalg.product(e, et) == unit_rows(4)


def test_pair_complement_is_an_involution():
    p = pair_complement_matrix()
    assert linalg.product(p, p) == unit_rows(6)


def _entries(rows):
    """The nonzero entries of sparse rows as ``(row, col, "p/q")``."""
    return [(r, c, f"{v.numerator}/{v.denominator}")
            for r, row in enumerate(rows) for c, v in sorted(row.items()) if v]


def test_constant_maps_are_pinned():
    digest = hashlib.sha256()
    for n in (3, 4, 5):
        for metric in (ConstantMetric.euclidean(n), ConstantMetric.minkowski(n)):
            spaces = [riemann_candidate_space(n), weyl_candidate_space(n, metric),
                      trace_free_sym2(n, metric), bianchi_candidate_space(n, metric),
                      lanczos_constraint_space(n)]
            split = split_riemann(n, metric)
            maps = [(s.label, s.ambient_from_coords) for s in spaces] + [
                (k, getattr(split, k))
                for k in ("inject_ricci", "project_ricci", "inject_weyl", "project_weyl")]
            for name, rows in maps:
                digest.update(f"{name} n={n} {metric.name}\n{_entries(rows)!r}\n".encode())
    assert digest.hexdigest() == CONSTANT_MAPS_SHA256


# nonzero entries of the embeddings of the five constrained spaces and of the
# four splitting maps at n = 3..5 under both metrics, from the dense matrices
# these rows replaced
CONSTANT_MAPS_SHA256 = "e15190e564788dca0f284a3da8fb57175c73f35bf43dfcc188fb567871e5996b"


def test_cached_rows_are_read_only():
    space = riemann_candidate_space(4)
    split = split_riemann(4)
    for row in (space.ambient_from_coords[0], split.inject_ricci[0], split.project_weyl[0]):
        with pytest.raises(TypeError):
            row[0] = Fraction(1)


def test_dual_unwraps_only_a_whole_adjoint_label():
    composed = free_basis("ad(T) o ad(S)", 2, ["a", "b"])
    assert composed.dual().label == "ad(ad(T) o ad(S))"
    assert composed.dual().dual() == composed
    assert free_basis("ad(T)", 2, ["a"]).dual().label == "T"
    for label in ("T", "ad(T)", "ad(T) o ad(S)", "ad(ad(T) o ad(S))", "S2(T*)"):
        assert dual_label(dual_label(label)) == label


def test_balanced_labels_and_dual_label():
    for label in ("", "T", "S2(T*)", "ad(T) o ad(S)", "(a)(b)"):
        assert balanced(label)
        assert dual_label(dual_label(label)) == label
    for label in ("a(", "a)", "a)(", "ad(a", ")(", "(a))("):
        assert not balanced(label)
    # why unbalanced labels are refused: two calls do not undo each other
    assert dual_label("a(") == "ad(a()" and dual_label("ad(a()") == "ad(ad(a())"


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
