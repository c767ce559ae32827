"""Operator algebra: composition, adjoints, conditions, application."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from diffseq import groebner, sequences, serialize
from diffseq.bundles import free_basis
from diffseq.groebner import GradedPresentation
from diffseq.operators import (
    OperatorMatrix,
    adjoint,
    apply,
    compatibility_conditions,
    compose,
    differential_rank,
    make_operator,
    rows_presentation,
)
from diffseq.poly import ConstantMetric, Poly
from diffseq.sequences import build_sequence, conformal_killing, exterior_derivative, killing
from polyref import degree, monomial, mul, negate_vars, random_poly, sub, variable

ZERO2 = Poly.zero(2)


def rand_operator(rng, n, rows, cols, deg, name, src_label, tgt_label):
    src = free_basis(src_label, n, [f"{src_label}{j}" for j in range(cols)])
    tgt = free_basis(tgt_label, n, [f"{tgt_label}{i}" for i in range(rows)])
    mat = tuple(tuple(random_poly(rng, n, deg, 3, 5) for _ in range(cols))
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


def test_adjoint_names_unwrap_only_a_whole_adjoint():
    op = killing(3)
    cc = compatibility_conditions(op)
    both = compose(adjoint(op), adjoint(cc))
    assert both.name == "ad(killing) o ad(cc(killing))"
    assert adjoint(both).name == "ad(ad(killing) o ad(cc(killing)))"
    assert adjoint(adjoint(both)).name == both.name
    assert adjoint(adjoint(op)).name == "killing"
    assert adjoint(adjoint(cc)).name == "cc(killing)"


def test_adjoint_reverses_composition():
    rng = random.Random(23)
    a = rand_operator(rng, 2, 2, 3, 2, "a", "U", "V")
    b = rand_operator(rng, 2, 3, 2, 1, "b", "W", "U")
    assert adjoint(compose(a, b)).rows == compose(adjoint(b), adjoint(a)).rows


def test_apply_matches_composition():
    rng = random.Random(24)
    a = rand_operator(rng, 2, 2, 3, 2, "a", "U", "V")
    b = rand_operator(rng, 2, 3, 2, 2, "b", "W", "U")
    sections = [random_poly(rng, 2, 4, 3, 5) for _ in range(2)]
    once = apply(b, sections)
    twice = apply(a, once)
    direct = apply(compose(a, b), sections)
    assert twice == direct


def test_compatibility_conditions_annihilate_their_operator():
    op = killing(3)
    cc = compatibility_conditions(op)
    assert compose(cc, op).is_zero()
    assert cc.source == op.target


def _homogeneous_operator(rng, n, rows, cols):
    """Rows of order 1 or 2 over ``cols`` columns, each cell up to two terms
    of its row's order; every row is nonzero."""
    monos = {d: [m for m in product(range(d + 1), repeat=n) if sum(m) == d] for d in (1, 2)}
    cells = []
    while len(cells) < rows:
        d = rng.randint(1, 2)
        row = [Poly(n, {m: rng.choice((-2, -1, 1, 3)) for m in
                        rng.sample(monos[d], min(len(monos[d]), rng.randint(0, 2)))})
               for _ in range(cols)]
        if any(row):
            cells.append(row)
    return make_operator("rand", n, free_basis("U", n, [f"u{j}" for j in range(cols)]),
                         free_basis("S", n, [f"s{i}" for i in range(rows)]), cells)


def test_zero_rows_bring_their_unit_conditions_last():
    rng = random.Random(26)
    for _ in range(12):
        n, rows, zeros = rng.randint(1, 3), rng.randint(2, 4), rng.randint(1, 2)
        stripped = _homogeneous_operator(rng, n, rows, rng.randint(1, 2))
        at = sorted(rng.sample(range(rows + zeros), zeros))
        keep = [i for i in range(rows + zeros) if i not in at]
        cells = iter(stripped.rows)
        op = make_operator("padded", n, stripped.source,
                           free_basis("S", n, [f"s{i}" for i in range(rows + zeros)]),
                           [[Poly.zero(n)] * stripped.source.dim if i in at else next(cells)
                            for i in range(rows + zeros)])
        cc = compatibility_conditions(op)
        want = [(den, {(keep[k], m): v for (k, m), v in vec.items()})
                for den, vec in compatibility_conditions(stripped).vectors]
        want += [(1, {(i, (0,) * n): 1}) for i in at]
        assert cc.vectors == tuple(want), (n, at)
        assert compose(cc, op).is_zero()


def test_conditions_of_gradient_are_curl():
    grad = exterior_derivative(3, 0)
    cc = compatibility_conditions(grad)
    curl = exterior_derivative(3, 1)
    assert cc.shape == (3, 3)
    a = rows_presentation(cc)
    b = rows_presentation(curl)
    from diffseq.groebner import module_equality
    assert module_equality(a, b)


def _trace_free_count(n):
    return n * (n + 1) // 2 - n


# closed-form generic ranks of the metric builders
RANK_CLOSED_FORMS = {
    "killing": lambda n: n,
    "conformal_killing": lambda n: n,
    "riemann_linearized": _trace_free_count,
    "ricci": _trace_free_count,
    "einstein": _trace_free_count,
    "bianchi": lambda n: n * n * (n * n - 1) // 12 - _trace_free_count(n),
}

RANK_CASES = [
    pytest.param(name, (n, getattr(ConstantMetric, metric)(n)), form(n),
                 id=f"{name}-{n}-{metric}")
    for name, form in RANK_CLOSED_FORMS.items()
    for n in range(3, 7)
    for metric in ("euclidean", "minkowski")
] + [
    pytest.param("lanczos_candidate", (4,), 14, id="lanczos_candidate-4"),
    pytest.param("exterior_derivative", (3, 0), 1, id="exterior_derivative-3-0"),
    pytest.param("exterior_derivative", (3, 1), 2, id="exterior_derivative-3-1"),
]


@pytest.mark.parametrize("name,args,rank", RANK_CASES)
def test_differential_rank_of_classical_operators(name, args, rank):
    assert differential_rank(getattr(sequences, name)(*args)) == rank


def test_operator_shape_validation():
    src = free_basis("S", 2, ("s1", "s2"))
    tgt = free_basis("T", 2, ("t1",))
    with pytest.raises(ValueError, match="arity 1 does not match width 2"):
        make_operator("bad", 2, src, tgt, ((ZERO2,),))
    # unchecked, a cell in 3 variables passes as a 3-exponent monomial
    with pytest.raises(ValueError, match="a cell in 3 variables in a row over n=2"):
        make_operator("bad", 2, src, tgt, ((variable(3, 1), ZERO2),))


def test_apply_refuses_sections_in_another_number_of_variables():
    op = killing(2)
    for n in (1, 3):
        with pytest.raises(ValueError, match=f"a section in {n} variables, operator over n=2"):
            apply(op, [variable(n, 1), variable(n, 1)])


def test_the_benchmark_read_surface_of_poly_cells():
    """What the benchmark reads: ``is_zero`` and ``evaluate`` on every cell of
    ``rows``, and ``len(generators)`` of a presentation."""
    op = killing(3)
    point = (3, -7, 11)
    values = [[p.evaluate(point) for p in row if not p.is_zero()] for row in op.rows]
    assert values == [[6], [-7, 3], [11, 3], [-14], [11, -7], [22]]
    syz = groebner.syzygies(rows_presentation(op))
    assert len(syz.generators) == len(syz.vectors) == 6
    assert all(type(p.evaluate(point)) is Fraction for g in syz.generators for p in g)


def test_compose_requires_matching_bases():
    rng = random.Random(25)
    a = rand_operator(rng, 2, 2, 3, 1, "a", "U", "V")
    b = rand_operator(rng, 2, 3, 2, 1, "b", "W", "X")
    with pytest.raises(ValueError):
        compose(a, b)


def test_compose_refuses_spaces_cut_out_by_different_constraints():
    """The trace-free spaces of two metrics share their labels, so they
    compare equal, but their coordinates stand for different tensors."""
    mink = ConstantMetric.minkowski(4)
    cc = compatibility_conditions(conformal_killing(4, mink))
    assert cc.source == conformal_killing(4).target
    with pytest.raises(ValueError, match="cut out of their ambient bundle by different constraints"):
        compose(cc, conformal_killing(4))
    assert compose(cc, conformal_killing(4, mink)).is_zero()
    # a document holds labels only; it still composes with the builder's operator
    loaded = serialize.document_to_operator(serialize.operator_to_document(conformal_killing(4)))
    assert compose(compatibility_conditions(conformal_killing(4)), loaded).is_zero()


def test_zero_operator_and_order():
    z = make_operator("z", 2, free_basis("A", 2, ("a1",)),
                      free_basis("B", 2, ("b1", "b2")), [[ZERO2]] * 2)
    assert z.is_zero()
    grad = exterior_derivative(3, 0)
    assert grad.order == 1
    assert killing(4).order == 1


def test_order_scans_the_terms_once():
    op = sequences.riemann_linearized(4)
    scans = []

    class Counted(dict):
        def __iter__(self):
            scans.append(1)
            return super().__iter__()

    counted = OperatorMatrix(name=op.name, n=op.n, source=op.source, target=op.target,
                             vectors=tuple((den, Counted(vec)) for den, vec in op.vectors))
    assert counted.order == op.order == 2
    assert len(scans) == op.target.dim
    assert counted.order == 2 and len(scans) == op.target.dim


def test_equality_ignores_name_but_not_entries():
    rng = random.Random(26)
    op = rand_operator(rng, 2, 2, 2, 1, "one", "S", "T")
    clone = make_operator("two", 2, op.source, op.target, op.rows)
    assert op == clone
    bumped = [list(r) for r in op.rows]
    bumped[0][0] = bumped[0][0] + monomial(2)
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
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), coef)
    return st.one_of(
        st.just(Poly.zero(n)),
        st.lists(term, min_size=1, max_size=3).map(
            lambda ts: sum((monomial(n, m, c) for m, c in ts), Poly.zero(n))))


def _dense_product(outer, inner):
    """``outer o inner`` by the triple loop over ``Poly`` products."""
    return tuple(
        tuple(sum((mul(row[k], inner.rows[k][j]) for k in range(len(row))),
                  Poly.zero(outer.n)) for j in range(inner.source.dim))
        for row in outer.rows)


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
    assert got.rows == _dense_product(outer, inner)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_zero_test_on_koszul_pairs(data):
    # The Koszul rows f * (col[j] e_i - col[i] e_j) annihilate a column
    # operator, so the product is zero by construction; perturbing one entry
    # of the rows may leave a nonzero product, checked against the dense one.
    n = data.draw(st.integers(1, 3))
    entry = _sparse_polys(n)
    b = data.draw(st.integers(2, 3))
    col = data.draw(st.lists(entry, min_size=b, max_size=b))
    outer_rows = []
    for i in range(b):
        for j in range(i + 1, b):
            f = data.draw(entry)
            row = [Poly.zero(n)] * b
            row[i], row[j] = mul(f, col[j]), mul(f, col[i]).scale(-1)
            outer_rows.append(row)
    perturbed = data.draw(st.booleans())
    if perturbed:
        r, k = data.draw(st.integers(0, len(outer_rows) - 1)), data.draw(st.integers(0, b - 1))
        outer_rows[r][k] = outer_rows[r][k] + data.draw(entry)
    src, mid, tgt = (free_basis(lab, n, [f"{lab}{i}" for i in range(d)])
                     for lab, d in (("U", 1), ("V", b), ("W", len(outer_rows))))
    inner = make_operator("P", n, src, mid, [[p] for p in col])
    outer = make_operator("Q", n, mid, tgt, outer_rows)
    got = compose(outer, inner)
    dense = _dense_product(outer, inner)
    assert got.rows == dense
    assert got.is_zero() == all(not p for row in dense for p in row)
    assert perturbed or got.is_zero()


def test_zero_test_on_a_chain_and_a_perturbed_condition():
    op = killing(3)
    cc = compatibility_conditions(op)
    assert compose(cc, op).is_zero()
    rows = [list(r) for r in cc.rows]
    rows[-1][-1] = rows[-1][-1] + monomial(3, (0, 1, 1), Fraction(1, 3))
    bumped = make_operator("bumped", 3, cc.source, cc.target, rows)
    assert not compose(bumped, op).is_zero()
    with pytest.raises(ValueError):
        compose(op, op)


def test_compose_is_exact_beyond_the_exponent_cap():
    # the product's packing is sized from the operands: exponents reach 80
    def mono(e1, e2, c=1):
        return monomial(2, (e1, e2), c)

    src, mid, tgt = (free_basis(lab, 2, [f"{lab}{i}" for i in range(d)])
                     for lab, d in (("U", 2), ("V", 2), ("W", 1)))
    inner = make_operator("P", 2, src, mid, [[mono(30, 5), mono(0, 40, Fraction(3, 2))],
                                             [mono(40, 0, -1), mono(34, 0)]])
    outer = make_operator("Q", 2, mid, tgt, [[mono(40, 0), mono(0, 30)]])
    got = compose(outer, inner)
    assert got.rows == ((sub(mono(70, 5), mono(40, 30)),
                         mono(40, 40, Fraction(3, 2)) + mono(34, 30)),)
    assert got.order == 80 and not got.is_zero()
    bumped = make_operator("R", 2, mid, tgt, [[mono(40, 30), mono(70, 5)]])
    assert compose(bumped, make_operator("S", 2, src, mid, [
        [mono(30, 0), Poly.zero(2)], [mono(0, 25, -1), Poly.zero(2)]])).is_zero()


@pytest.mark.parametrize("metric", ["euclidean", "minkowski"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("builder", [killing, conformal_killing], ids=lambda b: b.__name__)
def test_engine_built_conditions_equal_user_built_ones(builder, n, metric):
    """Conditions are made from the engine's integer vectors without
    ``Poly``'s checks; they must equal what a user would build from the same
    rows, with ``Fraction`` coefficients only (``Fraction(1) == 1`` hides an
    int), and each row is handed on as ``(den, ints)``: ``den`` times its
    ``Fraction`` cells, ``den`` their lcm, as converting the rows gives."""
    w = ConstantMetric.minkowski(n) if metric == "minkowski" else None
    for step in build_sequence(builder(n, w)).steps[1:]:
        cc = step.operator
        rows = tuple(tuple(r) for r in cc.rows)   # plain tuples, as a user passes them
        pres = rows_presentation(cc)
        plain = GradedPresentation.from_rows(cc.n, cc.source.dim, rows)
        assert pres == plain and hash(pres) == hash(plain)
        assert pres.vectors == plain.vectors
        assert pres._degrees == plain._degrees
        for row, (den, ints) in zip(cc.rows, cc.vectors):
            assert ints == {(c, m): v * den for c, p in enumerate(row) for m, v in p.terms.items()}
        again = make_operator(cc.name, cc.n, cc.source, cc.target, rows)
        assert cc == again and hash(cc) == hash(again)
        cells = [p for row in cc.rows for p in row]
        assert all(type(v) is Fraction and v and len(m) == n
                   for p in cells for m, v in p.terms.items())
        assert cc.order == max(degree(p) for p in cells)


def _all_builders(n, w):
    """Every builder that takes ``(n, metric)`` at this n, and each exterior
    derivative."""
    ops = [exterior_derivative(n, r) for r in range(n)]
    for builder in sequences.BUILDERS.values():
        try:
            ops.append(builder(n, w))
        except ValueError:   # not defined at this n
            pass
    return ops


@pytest.mark.parametrize("metric", ["euclidean", "minkowski"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_adjoint_of_vectors_matches_the_cellwise_transpose(n, metric):
    w = ConstantMetric.minkowski(n) if metric == "minkowski" else None
    for op in _all_builders(n, w):
        ad = adjoint(op)
        reference = tuple(tuple(negate_vars(op.rows[i][j]) for i in range(op.target.dim))
                          for j in range(op.source.dim))
        assert ad.rows == reference
        rebuilt = make_operator(ad.name, n, ad.source, ad.target, reference)
        assert ad.vectors == rebuilt.vectors and ad == rebuilt
        assert adjoint(ad) == op and adjoint(ad).name == op.name


@pytest.mark.parametrize("metric", ["euclidean", "minkowski"])
def test_builder_document_and_engine_rows_agree(metric):
    """One operator made three ways: by its builder, read back from its
    document, and from its vectors scaled by 6 and packed, as the engine
    hands rows on; all compare and hash equal."""
    w = ConstantMetric.minkowski(3) if metric == "minkowski" else None
    for op in _all_builders(3, w):
        doc = serialize.document_to_operator(serialize.operator_to_document(op, metric))
        order = groebner._Order(3, (0,) * op.source.dim, op.order)
        engine = OperatorMatrix(op.name, 3, op.source, op.target, tuple(
            groebner._unpacked(6 * den, {order.pack(t): 6 * v for t, v in vec.items()}, order)
            for den, vec in op.vectors))
        for other in (doc, engine):
            assert other == op and hash(other) == hash(op) and other.vectors == op.vectors
        assert engine.rows == op.rows


def test_a_chain_build_makes_no_poly(monkeypatch):
    op = killing(4)
    made = []

    class Counting(Poly):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            made.append(cls)
            return super().__new__(cls)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("diffseq")
                and getattr(module, "Poly", None) is Poly):
            monkeypatch.setattr(module, "Poly", Counting)
    rep = build_sequence(op)
    assert rep.dims == (4, 10, 20, 20, 6) and made == []
    assert rep.steps[-1].operator.rows and made   # cells are made when read
