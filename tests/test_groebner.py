"""Module bases, syzygies, and ranks, cross-checked degree by degree.

The syzygy oracle here is independent of the basis machinery: for graded
input it enumerates each degree slice as a plain linear system and
compares dimensions against the span of the computed generators.
"""

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from diffseq import groebner, linalg, operators
from diffseq.config import EXPONENT_CAP, ConfigError, DegreeCapExceeded, ExponentCapExceeded
from diffseq.groebner import (
    GradedPresentation,
    minimal_graded_generators,
    module_contains,
    module_equality,
    normal_form,
    reduced_groebner,
    syzygies,
)
from diffseq.bundles import free_basis
from diffseq.operators import (adjoint, compatibility_conditions, differential_rank, make_operator,
                               rows_presentation)
from diffseq.poly import ConstantMetric, Poly, mono_divides, mono_key
from diffseq.sequences import (BUILDERS, build_sequence, conformal_killing,
                               exterior_derivative, killing)
from polyref import degree, monomial, mul, sub, variable

def monomials_of_degree(n, d):
    return [m for m in product(range(d + 1), repeat=n) if sum(m) == d]


def generator_degrees(pres):
    """Graded degree of each generator: entry degree plus component shift."""
    degs = []
    for g in pres.generators:
        vals = {degree(p) + pres.shifts[c]
                for c, p in enumerate(g) if not p.is_zero()}
        assert len(vals) == 1, "generator is not graded"
        degs.append(vals.pop())
    return degs


def syzygy_slice_dim(pres, gendegs, d):
    """dim of graded syzygies of degree d, by brute-force linear algebra.

    Unknowns are the coefficients of a_i with deg(a_i) = d - gendegs[i];
    constraints come from the monomial coefficients of sum a_i g_i.
    """
    n = pres.n
    unknowns = []
    for i, s in enumerate(gendegs):
        if d - s < 0:
            continue
        for m in monomials_of_degree(n, d - s):
            unknowns.append((i, m))
    col_of = {u: c for c, u in enumerate(unknowns)}
    rows = {}
    for (i, m), c in col_of.items():
        for comp, p in enumerate(pres.generators[i]):
            shifted = mul(monomial(n, m), p)
            for mono, coef in shifted.terms.items():
                rows.setdefault((comp, mono), {})[c] = coef
    sparse = [r for r in rows.values() if r]
    return len(unknowns) - linalg.rank(sparse, len(unknowns))


def span_slice_dim(syz, gendegs, d):
    """dim of the degree-d slice of the module spanned by computed syzygies."""
    n = syz.n
    k = syz.ambient_rank
    vectors = []
    for g, s in zip(syz.generators, generator_degrees(syz)):
        if d - s < 0:
            continue
        for m in monomials_of_degree(n, d - s):
            vec = {}
            for i in range(k):
                p = mul(monomial(n, m), g[i])
                for mono, coef in p.terms.items():
                    vec[(i, mono)] = coef
            vectors.append(vec)
    cols = sorted({c for v in vectors for c in v})
    col_of = {c: j for j, c in enumerate(cols)}
    sparse = [{col_of[c]: v for c, v in vec.items()} for vec in vectors]
    return linalg.rank(sparse, len(cols))


def assert_syzygies_complete(pres, max_degree):
    syz = syzygies(pres)
    for g in syz.generators:
        total = [Poly.zero(pres.n) for _ in range(pres.ambient_rank)]
        for i, p in enumerate(g):
            for comp in range(pres.ambient_rank):
                total[comp] = total[comp] + mul(p, pres.generators[i][comp])
        assert all(t.is_zero() for t in total), "computed syzygy is not a relation"
    gendegs = generator_degrees(pres)
    assert tuple(syz.shifts) == tuple(gendegs)
    for d in range(max_degree + 1):
        want = syzygy_slice_dim(pres, gendegs, d)
        got = span_slice_dim(syz, gendegs, d)
        assert got == want, f"degree {d}: span {got} != oracle {want}"


def _vars(n):
    return [variable(n, i) for i in range(1, n + 1)]


def _rank(n, width, rows):
    """``differential_rank`` of the operator with ``Poly`` entries ``rows``."""
    src, tgt = (free_basis(s, n, [f"{s}{i}" for i in range(k)])
                for s, k in (("S", width), ("T", len(rows))))
    return differential_rank(make_operator("m", n, src, tgt, rows))


def test_syzygy_of_two_variables_is_the_koszul_relation():
    x1, x2 = _vars(2)
    pres = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((x1,), (x2,)))
    syz = syzygies(pres)
    assert len(syz.generators) == 1
    assert_syzygies_complete(pres, 5)


def test_syzygies_of_killing_rows_match_the_degree_oracle():
    for n in (2, 3):
        op = killing(n)
        pres = GradedPresentation.from_rows(
            n=n, ambient_rank=op.source.dim,
            rows=tuple(tuple(r) for r in op.rows))
        assert_syzygies_complete(pres, 5)


def test_second_level_syzygies_match_the_degree_oracle():
    op = killing(3)
    pres = GradedPresentation.from_rows(
        n=3, ambient_rank=op.source.dim,
        rows=tuple(tuple(r) for r in op.rows))
    level1 = syzygies(pres)
    assert_syzygies_complete(level1, 5)


def test_free_rows_have_no_relations():
    n = 2
    e1 = (monomial(n), Poly.zero(n))
    e2 = (Poly.zero(n), monomial(n))
    pres = GradedPresentation.from_rows(n=n, ambient_rank=2, rows=(e1, e2), shifts=(0, 0))
    assert syzygies(pres).generators == ()


def test_groebner_membership_of_original_generators():
    x1, x2, x3 = _vars(3)
    gens = ((mul(x1, x2) + mul(x3, x3),), (mul(x2, x3),), (x1 + x2,))
    pres = GradedPresentation.from_rows(n=3, ambient_rank=1, rows=gens)
    gb = reduced_groebner(pres)
    for g in gens:
        assert all(p.is_zero() for p in normal_form(list(g), gb))


def test_normal_form_is_idempotent_and_linear():
    x1, x2 = _vars(2)
    pres = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((mul(x1, x1),), (mul(x1, x2),)))
    gb = reduced_groebner(pres)
    u = [mul(x1, x1, x2) + x2]
    v = [mul(x2, x2) + x1]
    nf_u = normal_form(u, gb)
    assert normal_form(list(nf_u), gb) == nf_u
    sum_nf = normal_form([u[0] + v[0]], gb)
    assert list(sum_nf) == [normal_form(u, gb)[0] + normal_form(v, gb)[0]]


def test_module_equality_distinguishes_modules():
    x1, x2 = _vars(2)
    a = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((x1,), (x2,)))
    b = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((x1 + x2,), (x1,), (x2,)))
    c = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((x1,),))
    assert module_equality(a, b)
    assert not module_equality(a, c)
    assert not module_equality(c, a)


def test_module_contains_is_one_inclusion():
    x1, x2 = _vars(2)
    a = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((x1,), (x2,)))
    c = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((x1,),))
    assert module_contains(a, c)
    assert not module_contains(c, a)
    with pytest.raises(ValueError):
        module_contains(a, GradedPresentation.from_rows(n=2, ambient_rank=2, rows=()))


def test_minimal_generators_drop_redundant_ones():
    x1, x2 = _vars(2)
    g1 = (mul(x1, x1),)
    g2 = (x2,)
    g3 = (mul(x1, x1) + mul(x1, x2),)   # g1 + x1*g2
    pres = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=(g1, g2, g3))
    minimal = minimal_graded_generators(pres)
    assert len(minimal.generators) == 2
    assert module_equality(minimal, pres)


def test_generic_rank_detects_dependent_rows():
    x1, x2 = _vars(2)
    rows = [[x1, x2], [mul(x1, x2), mul(x2, x2)]]
    assert _rank(2, 2, rows) == 1
    rows2 = [[x1, x2], [x2, x1]]
    assert _rank(2, 2, rows2) == 2


def test_generic_rank_matches_evaluation_at_a_generic_point():
    op = killing(3)
    rows = [list(r) for r in op.rows]
    pt = [Fraction(3), Fraction(-7), Fraction(11)]
    dense = [[p.evaluate(pt) for p in row] for row in rows]
    assert differential_rank(op) == linalg.rank(
        [{c: v for c, v in enumerate(row) if v} for row in dense], len(rows[0]))


def test_generic_rank_of_inhomogeneous_rows():
    x1, x2 = _vars(2)
    unit, zero = monomial(2), Poly.zero(2)
    # rank 1: the second row is (x1 + 1) times the first
    rows = [[x1 + unit, mul(x2, x2)], [mul(x1 + unit, x1 + unit), mul(x1 + unit, x2, x2)]]
    assert _rank(2, 2, rows) == 1
    # rank 2, with a zero row: the 2x2 minor of the first two rows is x1^2 - 1 - x2^3
    rows = [[x1 + unit, x2, zero], [mul(x2, x2), sub(x1, unit), unit], [zero, zero, zero]]
    assert _rank(2, 3, rows) == 2


def test_degree_cap_is_a_loud_error(monkeypatch):
    op = killing(2)
    pres = GradedPresentation.from_rows(
        n=2, ambient_rank=op.source.dim,
        rows=tuple(tuple(r) for r in op.rows))
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", "1")
    with pytest.raises(DegreeCapExceeded):
        syzygies(pres)


def test_exponent_cap_is_checked_on_inputs_and_s_pairs(monkeypatch):
    top = EXPONENT_CAP + 1
    pres = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=(
        (monomial(2, (top, 0)),), (monomial(2, (0, top)),)))
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", str(4 * top))
    with pytest.raises(ExponentCapExceeded):
        syzygies(pres)
    # inputs within the cap whose S-pair's shifted degree is not
    half = EXPONENT_CAP // 2 + 1
    gb = groebner.ModuleGB(2, (0,))
    assert gb.add({(0, (half, 0)): 1})
    assert gb.add({(0, (0, half)): 2})
    with pytest.raises(ExponentCapExceeded):
        gb.complete()


def test_presentations_with_no_generators_have_empty_results():
    pres = GradedPresentation.from_rows(n=2, ambient_rank=3, rows=())
    syz = syzygies(pres)
    assert (syz.ambient_rank, syz.generators, syz.shifts) == (0, (), ())
    assert reduced_groebner(pres).generators == ()
    assert minimal_graded_generators(pres).generators == ()


def test_engine_rows_are_graded_by_the_presentation_shifts():
    x1, x2 = _vars(2)
    syz = syzygies(GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((x1,), (mul(x2, x2),))))
    assert syz.shifts == (1, 2) and syz._degrees == (3,)
    moved = GradedPresentation(n=2, ambient_rank=2, vectors=syz.vectors, shifts=(3, 4))
    assert moved._degrees == (5,)
    # under zero shifts the row x2^2 e0 - x1 e1 mixes degrees 2 and 1
    with pytest.raises(groebner.GeneratorError, match=r"row 0 mixes shifted degrees \[1, 2\]"):
        GradedPresentation.from_rows(n=2, ambient_rank=2, rows=syz.generators)


def test_one_degree_cap_setting_governs_every_entry_point(monkeypatch):
    pres = rows_presentation(killing(3))
    mixed = syzygies(rows_presentation(conformal_killing(4)))
    assert len(set(mixed._degrees)) == 2
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", "1")
    for call in (lambda: syzygies(pres),
                 lambda: module_equality(pres, pres),
                 lambda: differential_rank(killing(3)),
                 lambda: reduced_groebner(pres),
                 lambda: minimal_graded_generators(mixed)):
        with pytest.raises(DegreeCapExceeded):
            call()


@pytest.mark.parametrize("e, want", [
    (33, {(1, 32): 2}),
    (64, {(1, 63): 1, (0, 64): 1}),
    (70, {(1, 69): 1, (0, 70): -1}),
])
def test_normal_form_is_exact_beyond_the_exponent_cap(e, want):
    # public normal_form admits no cap: the packing is sized from its data
    x1, x2 = _vars(2)
    gb = reduced_groebner(GradedPresentation.from_rows(n=2, ambient_rank=1,
                                                       rows=((mul(x1, x1) + mul(x2, x2),),)))
    vec = [monomial(2, (e, 0)) + monomial(2, (1, e - 1))]
    assert normal_form(vec, gb)[0].terms == want


def test_rows_of_another_width_or_ring_are_refused():
    x1, x2 = _vars(2)
    with pytest.raises(ValueError, match="in 2 and 3 variables"):
        x1 + variable(3, 1)   # would hold a 3-exponent term in an n=2 cell
    with pytest.raises(ValueError, match="a cell in 3 variables in a row over n=2"):
        GradedPresentation.from_rows(2, 1, [[variable(3, 1)], [variable(3, 2)]])
    gb = reduced_groebner(GradedPresentation.from_rows(n=2, ambient_rank=2, rows=((x1, x2),)))
    for row in ([x1], [x1, x2, x1]):
        with pytest.raises(ValueError, match=f"arity {len(row)} does not match width 2"):
            normal_form(row, gb)
    with pytest.raises(ValueError, match="a cell in 3 variables in a row over n=2"):
        normal_form([variable(3, 1), Poly.zero(3)], gb)


def _non_unit_leads():
    """Integer generators with non-unit leads and content: the engine keeps
    leads above 1, and the reduced basis has fractional tails."""
    x1, x2, x3 = _vars(3)
    return GradedPresentation.from_rows(n=3, ambient_rank=2, rows=(
        (x1.scale(3) + x2.scale(2), x3.scale(4)),
        (x2.scale(6), sub(x1.scale(4), x3.scale(10))),
        (x3.scale(9), x2.scale(3))))


def test_normal_form_is_the_exact_rational_remainder():
    x1, x2, x3 = _vars(3)
    pres = _non_unit_leads()
    gb = reduced_groebner(pres)
    assert any(v.denominator > 1 for e in gb.generators for p in e
               for v in p.terms.values())
    vec = (mul(x1, x1.scale(Fraction(1, 2))) + mul(x2, x3.scale(Fraction(2, 7))),
           mul(x1, x3.scale(Fraction(-5, 3))) + mul(x2, x2.scale(Fraction(3, 4))))
    rem = normal_form(vec, gb)
    diff = tuple(sub(v, r) for v, r in zip(vec, rem))
    assert any(diff)
    grown = GradedPresentation.from_rows(n=3, ambient_rank=2, rows=pres.generators + (diff,))
    assert module_equality(pres, grown)
    leads = [_lead(e, gb.shifts) for e in gb.generators]
    for c, p in enumerate(rem):
        for m in p.terms:
            assert not any(lc == c and all(a <= b for a, b in zip(lm, m))
                           for lc, lm in leads)
    assert normal_form([p.scale(Fraction(7, 5)) for p in vec], gb) == tuple(
        p.scale(Fraction(7, 5)) for p in rem)


def _recording_bases(monkeypatch):
    made = []

    class Recording(groebner.ModuleGB):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(groebner, "ModuleGB", Recording)
    return made


def test_pair_counters_of_the_killing_syzygy_completion(monkeypatch):
    made = _recording_bases(monkeypatch)
    syzygies(rows_presentation(killing(4)))
    (gb,) = made
    stats = gb.stats
    assert stats == {"queued": 75, "pruned": 20, "processed": 55, "zero": 25, "skipped": 0}
    assert stats["pruned"] > 0
    assert stats["zero"] < stats["processed"]
    assert stats["queued"] == stats["pruned"] + stats["processed"] + stats["skipped"]


@pytest.mark.parametrize("builder, want", [
    (killing, {"queued": 313, "pruned": 98, "processed": 215, "zero": 15, "skipped": 0}),
    (conformal_killing, {"queued": 396, "pruned": 134, "processed": 228, "zero": 84,
                         "skipped": 34}),
], ids=["killing", "conformal_killing"])
def test_pair_counters_summed_over_a_chain_build(monkeypatch, builder, want):
    made = _recording_bases(monkeypatch)
    build_sequence(builder(5))
    total = {k: sum(gb.stats[k] for gb in made) for k in want}
    assert total == want
    for gb in made:
        assert gb.stats["queued"] == (gb.stats["pruned"] + gb.stats["processed"]
                                      + gb.stats["skipped"])


def _reference_minimal_generators(pres):
    """The sweep with no shortcut: ascending by (degree, canonical row), a
    generator is kept when the basis of those kept before it, completed
    through its degree, does not reduce it to zero."""
    gb = groebner.ModuleGB(pres.n, pres.shifts)
    kept = []
    for (deg, _), i in sorted(((deg, groebner._canonical_rep(v)), i) for i, (deg, v)
                              in enumerate(zip(pres._degrees, pres.vectors))):
        gb.ensure_degree(deg)
        if gb.add(pres.vectors[i][1]):
            kept.append(pres.generators[i])
    return tuple(kept)


def test_minimal_generators_match_the_reference_sweep():
    for pres in _seeded_presentations():
        for p in (pres, syzygies(pres)):
            assert minimal_graded_generators(p).generators == _reference_minimal_generators(p)


@pytest.mark.parametrize("builder", [killing, conformal_killing])
def test_minimal_syzygies_match_on_every_chain_step(builder):
    for n in range(3, 7):
        for metric in (None, ConstantMetric.minkowski(n)):
            for step in build_sequence(builder(n, metric)).steps:
                syz = syzygies(rows_presentation(step.operator))
                assert (minimal_graded_generators(syz).generators
                        == _reference_minimal_generators(syz))


def test_one_degree_input_with_a_repeated_lead_is_swept(monkeypatch):
    x1, x2 = _vars(2)
    a, b = (mul(x1, x1), mul(x2, x2)), (mul(x1, x1) + mul(x1, x2), Poly.zero(2))
    # a and b both lead with x1^2 e0, and the third row is a - b
    pres = GradedPresentation.from_rows(n=2, ambient_rank=2, rows=(
        a, b, (sub(a[0], b[0]), sub(a[1], b[1]))))
    assert set(pres._degrees) == {2}
    made = _recording_bases(monkeypatch)
    out = minimal_graded_generators(pres).generators
    assert len(made) == 1 and len(out) == 2
    assert out == _reference_minimal_generators(pres)


def test_one_degree_input_above_the_exponent_cap_raises():
    big = monomial(2, (EXPONENT_CAP + 1, 0), Fraction(1))
    pres = GradedPresentation.from_rows(n=2, ambient_rank=1, rows=((big,),))
    with pytest.raises(ExponentCapExceeded):
        minimal_graded_generators(pres)
    with pytest.raises(ExponentCapExceeded):
        _reference_minimal_generators(pres)


def test_one_degree_input_reads_the_degree_cap_setting(monkeypatch):
    pres = rows_presentation(killing(3))
    assert len(set(pres._degrees)) == 1
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", "abc")
    for call in (minimal_graded_generators, _reference_minimal_generators):
        with pytest.raises(ConfigError):
            call(pres)


def _minimal_syzygies(pres):
    """``groebner.minimal_syzygies`` as a presentation, its rows checked."""
    return GradedPresentation(pres.n, len(pres._degrees), groebner.minimal_syzygies(pres),
                              pres._degrees)


def _recording_minimal_generators(monkeypatch):
    calls = []

    def recording(p):
        calls.append(p)
        return minimal_graded_generators(p)

    monkeypatch.setattr(groebner, "minimal_graded_generators", recording)
    return calls


def test_one_degree_syzygies_build_one_basis(monkeypatch):
    op = killing(4)
    syz = syzygies(rows_presentation(op))
    assert set(syz._degrees) == {3}
    calls = _recording_minimal_generators(monkeypatch)
    made = _recording_bases(monkeypatch)
    # a reduced basis in one degree is minimal, so no second basis is built
    assert compatibility_conditions(op).target.dim == 20
    assert calls == [] and len(made) == 1


def test_mixed_degree_syzygies_born_in_one_degree_need_no_sweep(monkeypatch):
    op = conformal_killing(4)
    syz = syzygies(rows_presentation(op))
    assert sorted(syz._degrees) == [3] * 10 + [4] * 6
    want = minimal_graded_generators(syz).vectors
    calls = _recording_minimal_generators(monkeypatch)
    made = _recording_bases(monkeypatch)
    out = compatibility_conditions(op)
    (gb,) = made
    assert calls == [] and list(gb.births) == [3]
    # a pair above degree 3 left a syzygy, so the births were paired
    # and the syzygy block completed through its degree before deciding
    assert gb._waiting is None
    assert gb.stats["skipped"] > 0
    assert out.vectors == want and out.target.dim == 10 and out.order == 2


def test_no_killing_chain_step_pairs_a_birth(monkeypatch):
    made = _recording_bases(monkeypatch)
    build_sequence(killing(5))
    assert len(made) == 5
    for gb in made:
        assert gb._waiting is not None
        assert gb.stats["skipped"] == 0
        assert gb.stats["queued"] == gb.stats["pruned"] + gb.stats["processed"]


def test_a_degree_cap_above_every_pair_of_births_leaves_them_unpaired(monkeypatch):
    want = compatibility_conditions(killing(3))
    made = _recording_bases(monkeypatch)
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", "6")
    out = compatibility_conditions(killing(3))
    (gb,) = made
    # births of degree 3 in components of shift 1 pair in degree <= 5
    assert list(gb.births) == [3] and gb._waiting
    assert gb.stats["skipped"] == 0
    assert gb.stats["queued"] == gb.stats["pruned"] + gb.stats["processed"]
    assert out == want


def test_a_chain_step_checks_its_condition_rows_once(monkeypatch):
    made, steps = [], []
    init, cc = GradedPresentation.__init__, operators.compatibility_conditions

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counting_cc(op):
        steps.append(op)
        return cc(op)

    monkeypatch.setattr(GradedPresentation, "__init__", counting_init)
    monkeypatch.setattr(operators, "compatibility_conditions", counting_cc)
    rep = build_sequence(killing(4))
    # one presentation per step, its rows_presentation: the conditions are
    # checked there, as the next step's rows, and not when they are made
    assert len(steps) == len(rep.steps) == 4
    assert len(made) == len(steps)
    assert _minimal_syzygies(rows_presentation(killing(4))).vectors == (
        compatibility_conditions(killing(4)).vectors)


def test_each_chain_step_calls_the_public_minimal_syzygies_once(monkeypatch):
    calls, minimal_syzygies = [], groebner.minimal_syzygies

    def counting(pres):
        calls.append(pres)
        return minimal_syzygies(pres)

    monkeypatch.setattr(groebner, "minimal_syzygies", counting)
    build_sequence(killing(4))
    # one public call per compatibility_conditions step, which a tracer
    # wrapping public names sees as the step's syzygy work
    assert len(calls) == 4


def test_syzygies_born_in_two_degrees_are_swept(monkeypatch):
    x1, x2, x3 = _vars(3)
    op = make_operator("koszul", 3, free_basis("U", 3, ["u"]),
                       free_basis("S", 3, ["s1", "s2", "s3"]),
                       [[x1], [x2], [mul(x3, x3)]])
    assert sorted(syzygies(rows_presentation(op))._degrees) == [2, 3, 3]
    calls = _recording_minimal_generators(monkeypatch)
    made = _recording_bases(monkeypatch)
    out = compatibility_conditions(op)
    assert sorted(made[0].births) == [2, 3]
    assert len(calls) == 1 and len(made) == 2
    assert out.target.dim == 3 and out.vectors == minimal_graded_generators(calls[0]).vectors
    # the sweep's full completion queued again every pair of syzygies set aside
    gb = made[0]
    assert gb.stats["skipped"] == 0
    assert gb.stats["queued"] == gb.stats["pruned"] + gb.stats["processed"] + gb.stats["skipped"]


def test_an_input_row_gives_a_birth(monkeypatch):
    (x1,) = _vars(1)
    pres = GradedPresentation.from_rows(n=1, ambient_rank=1, rows=((x1,), (x1 + x1,)))
    made = _recording_bases(monkeypatch)
    out = _minimal_syzygies(pres)
    (gb,) = made
    assert list(gb.births) == [1] and gb.stats["queued"] == 0
    assert out == minimal_graded_generators(syzygies(pres))
    assert out.generators == ((Poly(1, {(0,): Fraction(1)}), Poly(1, {(0,): Fraction(-1, 2)})),)


def test_minimal_syzygies_equal_the_sweep_of_the_syzygies(monkeypatch):
    calls = _recording_minimal_generators(monkeypatch)
    certified = 0
    for pres in _seeded_presentations():
        before = len(calls)
        out = _minimal_syzygies(pres)
        certified += len(calls) == before
        want = minimal_graded_generators(syzygies(pres))
        assert out == want and out.generators == want.generators
        # the sweep runs exactly when minimal generators span several degrees
        assert (len(calls) > before) == (len(set(want._degrees)) > 1)
    assert certified == 31


@pytest.mark.parametrize("metric", ["euclidean", "minkowski"])
def test_minimal_syzygies_equal_the_sweep_on_every_builder(metric):
    for n in range(2, 6):
        w = ConstantMetric.minkowski(n) if metric == "minkowski" else None
        ops = [exterior_derivative(n, r) for r in range(n)]
        for builder in BUILDERS.values():
            try:
                ops.append(builder(n, w))
            except ValueError:   # not defined at this n
                pass
        for op in ops:
            for pres in (rows_presentation(op), rows_presentation(adjoint(op))):
                assert (_minimal_syzygies(pres)
                        == minimal_graded_generators(syzygies(pres)))


def test_the_degree_cap_is_checked_on_pairs_left_when_the_completion_stops(monkeypatch):
    made = _recording_bases(monkeypatch)
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", "3")
    with pytest.raises(DegreeCapExceeded) as info:
        compatibility_conditions(killing(3))
    assert str(info.value) == "completion needs S-pairs of degree 4, above cap 3"
    assert info.value.degree == 4
    # the completion had stopped: nothing led in the original block was due
    (gb,) = made
    assert not any(live for c, live in gb.live.items() if c < gb.order.block_start)
    assert list(gb.births) == [3]


def test_the_exponent_cap_is_checked_on_pairs_left_when_the_completion_stops(monkeypatch):
    # syzygies of x1^a, x2^a, x3^a are born in degree 2a, and the pair of
    # syzygies left has degree 3a, above the exponent cap
    a = EXPONENT_CAP // 2
    rows = tuple((monomial(3, m),) for m in ((a, 0, 0), (0, a, 0), (0, 0, a)))
    pres = GradedPresentation.from_rows(n=3, ambient_rank=1, rows=rows)
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", str(3 * a))
    made = _recording_bases(monkeypatch)
    message = f"degree {3 * a} allows exponents above {EXPONENT_CAP}"
    for call in (groebner.minimal_syzygies, syzygies):
        with pytest.raises(ExponentCapExceeded, match=message):
            call(pres)
    assert not any(live for c, live in made[0].live.items() if c < made[0].order.block_start)
    assert list(made[0].births) == [2 * a]


def test_basis_elements_are_primitive_integer_vectors():
    leads = []
    for pres in (rows_presentation(conformal_killing(4)), _non_unit_leads()):
        gb = groebner.ModuleGB(pres.n, pres.shifts, [v for _, v in pres.vectors])
        gb.complete()
        assert gb.stats["processed"] > 0
        for members in gb.by_component.values():
            for _, lc, tail in members:
                values = [lc] + [v for _, v in tail]
                assert all(type(v) is int for v in values)
                assert gcd(*values) == 1
                leads.append(lc)
    assert min(leads) > 0 and max(leads) > 1


def test_coprime_leads_still_need_their_s_pair():
    # Buchberger's product criterion would skip this pair: the leads x2*e0
    # and x1*e0 are coprime, yet the S-pair yields (0, x1*x2).
    x1, x2 = _vars(2)
    zero = Poly.zero(2)
    pres = GradedPresentation.from_rows(n=2, ambient_rank=2, rows=((x1, zero), (x2, x2)))
    gb = reduced_groebner(pres)
    assert len(gb.generators) == 3
    assert (zero, mul(x1, x2)) in gb.generators


def test_chain_criterion_keeps_pairs_sharing_the_new_lcm():
    # All three leads have pairwise lcm x1*x2*x3.  A chain criterion that
    # also dropped the queued pair when a new pair has the same lcm would
    # keep only one of the three pairs and miss x3^3.
    x1, x2, x3 = _vars(3)
    pres = GradedPresentation.from_rows(
        n=3, ambient_rank=1,
        rows=((mul(x1, x3),), (mul(x1, x2) + mul(x3, x3),), (mul(x2, x3),)))
    gb = reduced_groebner(pres)
    assert len(gb.generators) == 4
    assert (mul(x3, x3, x3),) in gb.generators


@st.composite
def homogeneous_presentations(draw):
    """n <= 3, rank <= 3, entries of degree <= 2, component shifts 0 or 1."""
    n = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    shifts = tuple(draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank)))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.integers(max(shifts), min(shifts) + 2))
        vec = []
        for c in range(rank):
            monos = monomials_of_degree(n, deg - shifts[c])
            terms = draw(st.lists(st.tuples(st.sampled_from(monos),
                                            st.sampled_from((-2, -1, 1, 2))),
                                  max_size=2))
            vec.append(sum((monomial(n, m, v) for m, v in terms),
                           Poly.zero(n)))
        if any(vec):
            gens.append(tuple(vec))
    assume(gens)
    return GradedPresentation.from_rows(n=n, ambient_rank=rank, rows=tuple(gens),
                                        shifts=shifts)


def _lead(vec, shifts):
    def key(cm):
        c, m = cm
        k = mono_key(m)
        return (k[0] + shifts[c],) + k[1:] + (-c,)
    return max(((c, m) for c, p in enumerate(vec) for m in p.terms), key=key)


@settings(deadline=None, max_examples=80)
@given(homogeneous_presentations())
def test_every_s_pair_of_the_reduced_basis_reduces_to_zero(pres):
    gb = reduced_groebner(pres)
    n = pres.n
    leads = [_lead(e, pres.shifts) for e in gb.generators]
    for i, (ci, mi) in enumerate(leads):
        assert gb.generators[i][ci].terms[mi] == 1
        for j in range(i + 1, len(leads)):
            cj, mj = leads[j]
            if cj != ci:
                continue
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            qi = monomial(n, tuple(a - b for a, b in zip(lcm, mi)))
            qj = monomial(n, tuple(a - b for a, b in zip(lcm, mj)))
            s = tuple(sub(mul(qi, p), mul(qj, q))
                      for p, q in zip(gb.generators[i], gb.generators[j]))
            assert not any(normal_form(s, gb))
    for g in pres.generators:
        assert not any(normal_form(g, gb))


@settings(deadline=None, max_examples=60)
@given(homogeneous_presentations())
def test_every_syzygy_annihilates_the_generators(pres):
    for h in syzygies(pres).generators:
        total = [Poly.zero(pres.n)] * pres.ambient_rank
        for hi, g in zip(h, pres.generators):
            total = [t + mul(hi, p) for t, p in zip(total, g)]
        assert not any(total)


@settings(deadline=None, max_examples=60)
@given(homogeneous_presentations())
def test_generic_rank_is_exact_on_generators_and_syzygies(pres):
    # under the zero-shift order these rows are inhomogeneous when shifts differ
    gens = pres.generators
    rank = _rank(pres.n, pres.ambient_rank, gens)
    assert rank + _rank(pres.n, len(gens), syzygies(pres).generators) == len(gens)
    point = [Fraction(p) for p in (3, -7, 11)[:pres.n]]
    values = [{c: v for c, p in enumerate(g) if (v := p.evaluate(point))} for g in gens]
    assert linalg.rank(values, pres.ambient_rank) <= rank


def _documented_key(term, shifts, block_start):
    """The TOP degrevlex sort key: the larger term has the smaller key."""
    c, m = term
    key = (-sum(m) - shifts[c],) + tuple(reversed(m)) + (c,)
    return key if block_start is None else (int(c >= block_start),) + key


@st.composite
def packed_layouts(draw):
    """An order on up to 7 variables and 12 components, shifts in -3..3,
    any ``top`` from 6 (past ``EXPONENT_CAP``), with and without a block,
    and terms whose shifted degree is within ``top`` of the lowest shift, as
    ``_Order`` allows."""
    n = draw(st.integers(1, 7))
    rank = draw(st.integers(1, 12))
    shifts = tuple(draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)))
    top = draw(st.integers(6, 2 * EXPONENT_CAP))
    block_start = draw(st.one_of(st.none(), st.integers(0, rank)))

    def monomial(budget):
        exps = []
        for _ in range(n):
            exps.append(draw(st.integers(0, budget)))
            budget -= exps[-1]
        return tuple(draw(st.permutations(exps)))

    def budget(c):
        return top - shifts[c] + min(shifts)

    terms = []
    for _ in range(draw(st.integers(2, 8))):
        c = draw(st.integers(0, rank - 1))
        terms.append((c, monomial(budget(c))))
    # a lead l, a multiple t = l * x^q and a term u with room for u * x^q
    cl, cu = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
    lead, u = monomial(budget(cl)), monomial(budget(cu))
    q = monomial(min(budget(cl) - sum(lead), budget(cu) - sum(u)))
    multiple = (cl, tuple(a + b for a, b in zip(lead, q)))
    terms += [(cl, lead), multiple, (cu, u)]
    order = groebner._Order(n, shifts, top, block_start)
    return n, top, order, terms, (cl, lead), multiple, (cu, u), q


def _field_formula(n, shifts, top, block_start, term):
    """The packed term of the module docstring, field by field from the least
    significant: component, exponents (each under a guard bit), bias minus
    shifted degree, block bit."""
    c, m = term
    cbits, v = max(len(shifts) - 1, 1).bit_length(), top.bit_length()
    deg_at = cbits + n * (v + 1)
    packed = c
    for i, e in enumerate(m):
        packed |= e << cbits + i * (v + 1)
    packed |= top + min(shifts) - sum(m) - shifts[c] << deg_at
    if block_start is not None and c >= block_start:
        packed |= 1 << deg_at + v
    return packed


@settings(deadline=None, max_examples=200)
@given(packed_layouts())
def test_packed_terms_follow_the_order_and_divisibility(case):
    n, top, order, terms, lead, multiple, u, q = case
    pack = order.pack
    for a in terms:
        packed = pack(a)
        assert packed == _field_formula(n, order.shifts, top, order.block_start, a)
        assert order.unpack(packed) == a
        # the second calls read the tables the first ones filled
        assert pack(a) == packed and order.unpack(packed) == a
        for b in terms:
            ka = _documented_key(a, order.shifts, order.block_start)
            kb = _documented_key(b, order.shifts, order.block_start)
            assert (pack(a) < pack(b)) == (ka < kb)
            assert (pack(a) == pack(b)) == (a == b)
            if a[0] == b[0]:
                assert (not (pack(a) - pack(b)) & order.guard) == mono_divides(b[1], a[1])
    assert not (pack(multiple) - pack(lead)) & order.guard
    assert pack(u) + (pack(multiple) - pack(lead)) == pack(
        (u[0], tuple(a + b for a, b in zip(u[1], q))))


def _seeded_presentations(seed=7, count=40):
    """Random homogeneous presentations: n <= 3, rank <= 3, entries of degree
    <= 2, component shifts 0 or 1, coefficients with denominators <= 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, rank = rng.randint(1, 3), rng.randint(1, 3)
        shifts = tuple(rng.randint(0, 1) for _ in range(rank))
        gens = []
        for _ in range(rng.randint(2, 5)):
            deg = rng.randint(max(shifts), min(shifts) + 2)
            vec = []
            for s in shifts:
                monos = monomials_of_degree(n, deg - s)
                picked = rng.sample(monos, min(len(monos), rng.randint(0, 3)))
                vec.append(sum((monomial(n, m, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                                             rng.randint(1, 3)))
                                for m in picked), Poly.zero(n)))
            if any(vec):
                gens.append(tuple(vec))
        if gens:
            out.append(GradedPresentation.from_rows(n=n, ambient_rank=rank,
                                                    rows=tuple(gens), shifts=shifts))
    return out


def test_engine_outputs_are_pinned():
    """Syzygies and minimal generators of fixed random presentations, as the
    chain pipeline takes them (syzygies, then their minimal generators)."""
    digest = hashlib.sha256()
    for pres in _seeded_presentations():
        syz = syzygies(pres)
        for out in (syz, minimal_graded_generators(syz), minimal_graded_generators(pres)):
            digest.update(repr(out).encode("utf-8"))
    assert digest.hexdigest() == ENGINE_OUTPUTS_SHA256


# repr of every presentation above; any change to the engine's output changes it
ENGINE_OUTPUTS_SHA256 = "ab0e000a3a60a97133e8f538c26b0a76f6ecca72c44fc41ac9976b448113cc1c"
