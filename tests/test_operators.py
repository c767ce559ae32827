"""Operator algebra: composition, adjoints, conditions, application."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffseq import operators
from diffseq.bundles import free_basis
from diffseq.operators import (
    adjoint,
    apply,
    compatibility_conditions,
    compose,
    differential_rank,
    make_operator,
    rows_presentation,
)
from diffseq.poly import Poly
from diffseq.sequences import exterior_derivative, killing

ZERO2 = Poly.zero(2)


def rand_poly(rng, n, deg):
    p = Poly.zero(n)
    for _ in range(3):
        mono = tuple(rng.randint(0, deg) for _ in range(n))
        if sum(mono) > deg:
            continue
        p = p + Poly.monomial(n, mono, Fraction(rng.randint(-5, 5)))
    return p


def rand_operator(rng, n, rows, cols, deg, name, src_label, tgt_label):
    src = free_basis(src_label, n, [f"{src_label}{j}" for j in range(cols)])
    tgt = free_basis(tgt_label, n, [f"{tgt_label}{i}" for i in range(rows)])
    mat = tuple(tuple(rand_poly(rng, n, deg) for _ in range(cols))
                for _ in range(rows))
    return make_operator(name, n, src, tgt, mat)


def test_compose_is_associative_on_random_operators():
    rng = random.Random(21)
    for _ in range(10):
        a = rand_operator(rng, 2, 2, 3, 2, "a", "U", "V")
        b = rand_operator(rng, 2, 3, 2, 2, "b", "W", "U")
        c = rand_operator(rng, 2, 2, 2, 2, "c", "X", "W")
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.rows == right.rows


def test_adjoint_is_an_involution():
    rng = random.Random(22)
    op = rand_operator(rng, 3, 3, 2, 2, "op", "S", "T")
    assert adjoint(adjoint(op)) == op


def test_adjoint_reverses_composition():
    rng = random.Random(23)
    a = rand_operator(rng, 2, 2, 3, 2, "a", "U", "V")
    b = rand_operator(rng, 2, 3, 2, 1, "b", "W", "U")
    assert adjoint(compose(a, b)).rows == compose(adjoint(b), adjoint(a)).rows


def test_apply_matches_composition():
    rng = random.Random(24)
    a = rand_operator(rng, 2, 2, 3, 2, "a", "U", "V")
    b = rand_operator(rng, 2, 3, 2, 2, "b", "W", "U")
    sections = [rand_poly(rng, 2, 4) for _ in range(2)]
    once = apply(b, sections)
    twice = apply(a, once)
    direct = apply(compose(a, b), sections)
    assert twice == direct


def test_compatibility_conditions_annihilate_their_operator():
    op = killing(3)
    cc = compatibility_conditions(op)
    assert compose(cc, op).is_zero()
    assert cc.source == op.target


def test_conditions_of_gradient_are_curl():
    grad = exterior_derivative(3, 0)
    cc = compatibility_conditions(grad)
    curl = exterior_derivative(3, 1)
    assert cc.shape == (3, 3)
    a = rows_presentation(cc)
    b = rows_presentation(curl)
    from diffseq.groebner import module_equality
    assert module_equality(a, b)


def test_differential_rank_of_classical_operators():
    assert differential_rank(killing(3)) == 3
    assert differential_rank(exterior_derivative(3, 0)) == 1
    assert differential_rank(exterior_derivative(3, 1)) == 2


def test_operator_shape_validation():
    src = free_basis("S", 2, ("s1", "s2"))
    tgt = free_basis("T", 2, ("t1",))
    with pytest.raises(ValueError):
        make_operator("bad", 2, src, tgt, ((ZERO2,),))


def test_compose_requires_matching_bases():
    rng = random.Random(25)
    a = rand_operator(rng, 2, 2, 3, 1, "a", "U", "V")
    b = rand_operator(rng, 2, 3, 2, 1, "b", "W", "X")
    with pytest.raises(ValueError):
        compose(a, b)


def test_zero_operator_and_order():
    z = operators.zero_operator("z", 2,
                                free_basis("A", 2, ("a1",)),
                                free_basis("B", 2, ("b1", "b2")))
    assert z.is_zero()
    grad = exterior_derivative(3, 0)
    assert grad.order == 1
    assert killing(4).order == 1


def test_equality_ignores_name_but_not_entries():
    rng = random.Random(26)
    op = rand_operator(rng, 2, 2, 2, 1, "one", "S", "T")
    clone = make_operator("two", 2, op.source, op.target, op.rows)
    assert op == clone
    bumped = [list(r) for r in op.rows]
    bumped[0][0] = bumped[0][0] + Poly.one(2)
    changed = make_operator("three", 2, op.source, op.target,
                            tuple(tuple(r) for r in bumped))
    assert op != changed


def test_equal_operators_hash_alike():
    op = killing(3)
    renamed = make_operator("renamed", 3, op.source, op.target, op.rows)
    assert renamed == op
    assert hash(renamed) == hash(op)
    assert renamed in {op}


def _sparse_polys(n):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(-3, 3))
    return st.one_of(
        st.just(Poly.zero(n)),
        st.lists(term, min_size=1, max_size=3).map(
            lambda ts: sum((Poly.monomial(n, m, c) for m, c in ts), Poly.zero(n))))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_sparse_compose_matches_the_dense_product(data):
    n = data.draw(st.integers(1, 3))
    a, b, c = data.draw(st.tuples(*[st.integers(1, 4)] * 3))
    src, mid, tgt = (free_basis(lab, n, [f"{lab}{i}" for i in range(d)])
                     for lab, d in (("U", c), ("V", b), ("W", a)))
    entry = _sparse_polys(n)
    inner = make_operator("P", n, src, mid, data.draw(
        st.lists(st.lists(entry, min_size=c, max_size=c), min_size=b, max_size=b)))
    outer = make_operator("Q", n, mid, tgt, data.draw(
        st.lists(st.lists(entry, min_size=b, max_size=b), min_size=a, max_size=a)))
    got = compose(outer, inner)
    assert got.shape == (a, c)
    for i in range(a):
        for j in range(c):
            want = Poly.zero(n)
            for k in range(b):
                want = want + outer.rows[i][k] * inner.rows[k][j]
            assert got.rows[i][j] == want
