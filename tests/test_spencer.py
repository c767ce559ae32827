"""Symbols, prolongations, delta complexes, and the two resolutions."""

import hashlib
import random
import sys
from fractions import Fraction
from math import comb, gcd

import pytest

from diffseq import linalg, spencer
from diffseq.bundles import ext_tuples, riemann_candidate_space, sym_tuples
from diffseq.poly import ConstantMetric, Poly
from diffseq.sequences import conformal_killing, exterior_derivative, killing


def test_symbol_dimensions_of_the_classical_systems():
    assert spencer.symbol_of(killing(4)).dim == 6
    assert spencer.symbol_of(conformal_killing(4)).dim == 7
    assert spencer.symbol_of(exterior_derivative(3, 0)).dim == 0


def test_prolongation_chains_terminate():
    g = spencer.symbol_of(killing(4))
    assert [g.dim, spencer.prolong(g).dim] == [6, 0]
    h = spencer.symbol_of(conformal_killing(4))
    h2 = spencer.prolong(h)
    h3 = spencer.prolong(h2)
    assert [h.dim, h2.dim, h3.dim] == [7, 4, 0]


def test_symbol_constraints_are_reduced_primitive_integer_rows(monkeypatch):
    ops = [builder(n, metric) for n in (3, 4) for builder in (killing, conformal_killing)
           for metric in (None, ConstantMetric.minkowski(n))]
    for cache in (spencer.symbol_of, spencer.prolong, spencer.SymbolSpace.basis):
        cache.cache_clear()
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw))
    for op in ops:
        g = spencer.symbol_of(op)
        for _ in range(3):
            for r in range(op.n):
                spencer.delta_map(r, g)
            g = spencer.prolong(g)
    monkeypatch.undo()
    assert made == []
    for op in ops:
        g = spencer.symbol_of(op)
        for g in (g, spencer.prolong(g)):
            pivots = [row[0] for row in g.constraints]   # (column, entry)
            assert pivots == sorted(set(pivots))
            for row, (col, lead) in zip(g.constraints, pivots):
                assert all(type(v) is int and v for _, v in row)
                assert gcd(*(v for _, v in row)) == 1 and lead > 0
                assert not any(c in dict(row) for c, _ in pivots if c != col)
            # the same space from scaled and reordered rows is the same record
            rows = [{c: -3 * v for c, v in row} for row in reversed(g.constraints)]
            again = spencer._make_symbol(g.n, g.q, g.fiber_dim, rows)
            assert again == g and hash(again) == hash(g)


def test_symbol_requires_an_actual_operator():
    from diffseq.operators import make_operator
    src = killing(2).source
    zero = make_operator("zero", 2, src, src, [[Poly.zero(2)] * src.dim] * src.dim)
    with pytest.raises(ValueError):
        spencer.symbol_of(zero)


def _units(n, q, m):
    """Every unit vector of S_q tensor a rank-m fiber."""
    return [{c: 1} for c in range(comb(n + q - 1, q) * m)]


def test_delta_squared_vanishes_on_full_spaces():
    for n in (2, 3):
        for q in (2, 3):
            for r in range(n - 1):
                first = spencer._delta_images(n, r, q, 2, _units(n, q, 2))
                # unit-vector images list I outer, column inner, so the image of
                # output column c of the first delta is row c of the second
                second = spencer._delta_images(n, r + 1, q - 1, 2, _units(n, q - 1, 2))
                assert any(first)
                for image in first:
                    acc = {}
                    for c, coef in image.items():
                        for c2, v in second[c].items():
                            acc[c2] = acc.get(c2, 0) + coef * v
                    assert not any(acc.values())


def _cls(mu):
    """The least variable (1-based) with a nonzero exponent in ``mu``."""
    return next(i for i, e in enumerate(mu) if e) + 1


def test_pommaret_rows_are_a_basis_of_the_delta_image():
    for n in range(2, 6):
        for q in range(1, 5):
            for m in (1, 2):
                count = [m * sum(comb(n - _cls(mu), r) for mu in spencer._monomials(n, q)[0])
                         for r in range(n + 1)]
                for r in range(n + 1):
                    width = comb(n, r + 1) * comb(n + q - 2, q - 1) * m
                    rows = spencer._pommaret_images(n, r, q, m)
                    every = spencer._delta_images(n, r, q, m, _units(n, q, m))
                    assert len(rows) == linalg.rank(rows, width) == count[r]
                    assert linalg.rank(every, width) == count[r]
                # delta_0 is injective on S_q tensor E for q >= 1, and
                # wedge^{n+1} = 0 leaves delta_n nothing to hit
                assert count[n] == 0 and count[0] == comb(n + q - 1, q) * m


def unit_route_janet_dim(system, r, n, metric=None, m=1, q=None):
    """The Janet bundle dim with the image of every unit vector of
    wedge^{r-1} tensor S_{q+1} tensor E among the generators."""
    if system == "jet":
        width, r_q_basis = spencer.jet_fiber_dim(n, q, m), []
    else:
        op = {"killing": killing, "conformal_killing": conformal_killing}[system](n, metric)
        m = op.source.dim
        width, r_q_basis = spencer._jet_system(op, q)[:2]
    gens = [{pos * width + comp: v for comp, v in b.items()}
            for pos in range(comb(n, r)) for b in r_q_basis]
    if r >= 1:
        gens.extend(spencer._delta_images(n, r - 1, q + 1, m, _units(n, q + 1, m),
                                          width, spencer.jet_fiber_dim(n, q - 1, m)))
    return comb(n, r) * width - linalg.rank(gens, comb(n, r) * width)


def test_janet_tables_match_the_unit_image_route():
    for n in range(3, 6):
        for metric in (ConstantMetric.euclidean(n), ConstantMetric.minkowski(n)):
            for system, q in (("killing", 2), ("conformal_killing", 3)):
                for r in range(n + 1):
                    f_dim = spencer.janet_spencer_bundle_dims(system, r, n, metric)[0]
                    assert f_dim == unit_route_janet_dim(system, r, n, metric, q=q)
    for n, q, m in ((3, 2, 1), (4, 3, 2), (3, 3, 3)):
        for r in range(n + 1):
            f_dim, c_dim = spencer.janet_spencer_bundle_dims("jet", r, n, m=m, q=q)
            assert f_dim == c_dim == unit_route_janet_dim("jet", r, n, m=m, q=q)


def test_a_negative_column_height_is_refused():
    with pytest.raises(ValueError, match="q_top"):
        spencer.full_jet_column(3, -1, 1)


def test_a_fiber_of_rank_below_one_is_refused():
    with pytest.raises(ValueError, match="fiber rank m"):
        spencer.full_jet_column(3, 2, 0)
    with pytest.raises(ValueError, match="fiber rank m"):
        spencer.janet_spencer_bundle_dims("jet", 1, 3, m=0, q=2)


def test_a_negative_exterior_degree_is_refused():
    with pytest.raises(ValueError, match="exterior degree r"):
        spencer.janet_spencer_bundle_dims("killing", -1, 3)


def test_a_negative_jet_order_is_refused():
    with pytest.raises(ValueError, match="jet order q"):
        spencer.janet_spencer_bundle_dims("jet", 1, 3, q=-1)


def test_a_dimension_below_one_is_refused():
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension n"):
            spencer.full_jet_column(n, 2, 1)
        for system in ("killing", "conformal_killing"):
            with pytest.raises(ValueError, match="dimension n"):
                spencer.janet_spencer_bundle_dims(system, 1, n)
        with pytest.raises(ValueError, match="dimension n"):
            spencer.janet_spencer_bundle_dims("jet", 0, n, q=1)


def test_a_negative_r_max_is_refused():
    with pytest.raises(ValueError, match="r_max"):
        spencer.delta_cohomology_detail(killing(3), -1)
    with pytest.raises(ValueError, match="r_max"):
        spencer.delta_cohomology_dims(conformal_killing(3), -2)
    assert spencer.delta_cohomology_dims(killing(3), 0) == [0]


def test_the_wedge_sign_table_matches_the_direct_computation():
    for n in range(1, 7):
        for r in range(n + 2):
            out = ext_tuples(n, r + 1)
            direct = {}
            for I in ext_tuples(n, r):
                direct[I] = {}
                for i in range(1, n + 1):
                    if i not in I:
                        J = tuple(sorted(I + (i,)))
                        # moving dx^i to its place in J passes J.index(i) factors
                        direct[I][i] = (out.index(J), (-1) ** J.index(i))
            assert spencer._wedge_signs(n, r) == direct


def test_the_spencer_route_hands_the_kernel_fresh_nonzero_int_rows(monkeypatch):
    """Every row that the delta images, the Pommaret images, the jet system's
    equations, prolongation and the Janet generators hand to the kernel,
    which consumes them: a dict of its own with nonzero int entries in
    columns 0..ncols-1."""
    systems = {"killing": killing, "conformal_killing": conformal_killing}
    # built first: the operator builders reach the kernel through the boundary
    ops = {(system, n): builder(n) for n in range(2, 6) for system, builder in systems.items()
           if n >= 3 or system == "killing"}
    for cache in (spencer.symbol_of, spencer.prolong, spencer._jet_system,
                  spencer.SymbolSpace.basis):
        cache.cache_clear()
    callers, handed = set(), []
    echelon = linalg._echelon

    def checked(rows, ncols):
        rows = list(rows)
        handed.extend(rows)
        for row in rows:
            assert type(row) is dict
            assert all(type(v) is int and v for v in row.values())
            assert all(0 <= c < ncols for c in row)
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):   # a comprehension's own frame
            caller = caller.f_back
        callers.add(caller.f_code.co_name)
        return echelon(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", checked)
    for (system, n), op in ops.items():
        spencer.delta_cohomology_detail(op, n)   # symbol_of, prolong, delta_map
        for r in range(n + 1):   # _prolonged_equation_rows, the Janet generators
            spencer.janet_spencer_bundle_dims(system, r, n)
    for n in range(2, 6):
        for r in range(n + 1):
            spencer.janet_spencer_bundle_dims("jet", r, n, m=2, q=2)
        spencer.full_jet_column(n, 3, 2)   # _pommaret_images alone
    assert spencer.prolong.cache_info().misses > 0
    # each row is consumed once: no dict is handed over twice, and none is
    # a basis vector that a cache keeps
    handed_ids = {id(row) for row in handed}
    assert len(handed_ids) == len(handed)
    for (system, n), op in ops.items():
        g = spencer.symbol_of(op)
        q = {"killing": 2, "conformal_killing": 3}[system]   # the tables' jet orders
        kept = spencer._jet_system(op, q)[1] + g.basis() + spencer.prolong(g).basis()
        assert not {id(v) for v in kept} & handed_ids
    # _reduced: symbols, prolongations, symbol bases and the R_q bases
    assert callers == {"_reduced", "delta_map", "full_jet_column", "janet_spencer_bundle_dims"}


def ambient_delta(n, r, q, m):
    """delta on the full space wedge^r x S_q x E as a sparse matrix: one row per
    output component (J, nu, k), columns I_pos * width + (mu, k) position."""
    in_pos = {I: c for c, I in enumerate(ext_tuples(n, r))}
    mu_pos = {mu: c for c, mu in enumerate(sym_tuples(n, q))}
    width = len(mu_pos) * m
    rows = []
    for J in ext_tuples(n, r + 1):
        for nu in sym_tuples(n, q - 1):
            for k in range(m):
                row = {}
                for t, i in enumerate(J):
                    col = (in_pos[J[:t] + J[t + 1:]] * width
                           + mu_pos[tuple(sorted(nu + (i,)))] * m + k)
                    row[col] = row.get(col, 0) + (-1) ** t
                rows.append(row)
    return rows, width


def ambient_route_rank(r, g):
    """rank of delta on wedge^r x g: the ambient matrix times a kernel basis."""
    amb, width = ambient_delta(g.n, r, g.q, g.fiber_dim)
    basis = linalg.integer_kernel([dict(c) for c in g.constraints], width)[0]
    rows = []
    for row in amb:
        out = {}
        for col, coef in row.items():
            pos, comp = divmod(col, width)
            for b, vec in enumerate(basis):
                if comp in vec:
                    c = pos * len(basis) + b
                    out[c] = out.get(c, 0) + coef * vec[comp]
        rows.append(out)
    return linalg.rank(rows, comb(g.n, r) * len(basis))


@pytest.mark.parametrize("n", range(3, 7))
def test_delta_ranks_match_the_ambient_matrix_route(n):
    for builder in (killing, conformal_killing):
        for metric in (ConstantMetric.euclidean(n), ConstantMetric.minkowski(n)):
            g = spencer.symbol_of(builder(n, metric))
            for q in range(g.q, g.q + 3):
                g_q = spencer.prolong_to(g, q)
                assert g_q.basis() is g_q.basis()
                for r in range(n):
                    assert spencer.delta_map(r, g_q).rank == ambient_route_rank(r, g_q)
    for q_top, m in ((3, 1), (2, 2)):
        ranks = []
        for r in range(q_top):
            amb, width = ambient_delta(n, r, q_top - r, m)
            ranks.append(linalg.rank(amb, comb(n, r) * width))
        assert spencer.full_jet_column(n, q_top, m).ranks == tuple(ranks)


def test_delta_cohomology_closed_forms():
    for n in range(2, 6):
        dims = spencer.delta_cohomology_dims(killing(n), min(n, 3))
        assert dims[0] == 0 and dims[1] == 0
        assert dims[2] == n * n * (n * n - 1) // 12
        if n >= 3:
            assert dims[3] == n * n * (n * n - 1) * (n - 2) // 24


def test_cohomology_matches_candidate_space_dimension():
    for n in range(2, 6):
        dims = spencer.delta_cohomology_dims(killing(n), 2)
        assert dims[2] == riemann_candidate_space(n).dim


def test_witness_ranks_at_dimension_four():
    detail = spencer.delta_cohomology_detail(killing(4), 4)
    assert (detail[2].dim, detail[2].rank_out, detail[2].h) == (36, 16, 20)
    assert (detail[3].dim, detail[3].rank_out, detail[3].h) == (24, 4, 20)
    assert detail[4].h == 6
    conf = spencer.delta_cohomology_detail(conformal_killing(4), 3, q=2)
    assert (conf[3].dim, conf[3].rank_out, conf[3].h) == (16, 7, 9)


def test_an_order_below_the_symbol_is_refused():
    op = killing(3)
    with pytest.raises(ValueError, match="below the symbol's order 1"):
        spencer.delta_cohomology_detail(op, 3, q=0)
    with pytest.raises(ValueError):
        spencer.delta_cohomology_dims(op, 3, q=0)
    assert spencer.delta_cohomology_dims(op, 3, q=1) == [0, 0, 6, 3]


# the largest sizes the benchmark's Spencer workload checks (bench/references.json)
@pytest.mark.parametrize("builder, n, dims", [
    (killing, 6, [0, 0, 105, 210, 189, 84, 15]),
    (killing, 7, [0, 0, 196, 490, 588, 392, 140, 21]),
    (conformal_killing, 6, [0, 0, 84, 140, 84, 0, 0]),
    (conformal_killing, 7, [0, 0, 168, 378, 378, 168, 0, 0]),
])
def test_delta_cohomology_at_benchmark_sizes(builder, n, dims):
    assert spencer.delta_cohomology_dims(builder(n), n) == dims


@pytest.mark.parametrize("n, q_top, m, ranks", [
    (5, 5, 5, (630, 1120, 630, 120, 5)),
    (6, 4, 6, (756, 1260, 630, 90)),
])
def test_full_jet_column_ranks_at_benchmark_sizes(n, q_top, m, ranks):
    col = spencer.full_jet_column(n, q_top, m)
    assert col.ranks == ranks and col.exact


def test_full_jet_columns_are_exact():
    col1 = spencer.full_jet_column(4, 3, 4)
    assert col1.node_dims == (80, 160, 96, 16)
    assert col1.exact
    col2 = spencer.full_jet_column(4, 4, 4)
    assert col2.node_dims == (140, 320, 240, 64, 4)
    assert col2.exact


def test_janet_and_spencer_bundle_dimensions():
    kil = [spencer.janet_spencer_bundle_dims("killing", r, 4) for r in range(5)]
    assert [p[1] for p in kil] == [comb(4, r) * 10 for r in range(5)]
    assert [p[0] for p in kil] == [50, 120, 120, 56, 10]
    con = [spencer.janet_spencer_bundle_dims("conformal_killing", r, 4)
           for r in range(5)]
    assert [p[1] for p in con] == [comb(4, r) * 15 for r in range(5)]
    assert [p[0] for p in con] == [125, 360, 414, 220, 45]


def test_janet_and_spencer_bundle_dimensions_at_n5():
    """Janet (F) and Spencer (C) tables at n = 5, as in bench/references.json."""
    tables = {
        "killing": {"C": [15, 75, 150, 150, 75, 15],
                    "F": [90, 275, 375, 270, 100, 15]},
        "conformal_killing": {"C": [21, 105, 210, 210, 105, 21],
                              "F": [259, 945, 1470, 1190, 495, 84]},
    }
    for system, want in tables.items():
        pairs = [spencer.janet_spencer_bundle_dims(system, r, 5) for r in range(6)]
        assert [p[0] for p in pairs] == want["F"]
        assert [p[1] for p in pairs] == want["C"]


def test_bundles_fit_the_jet_quotient_exact_sequence():
    """The two resolutions sit in one short exact sequence per degree."""
    full = [spencer.janet_spencer_bundle_dims("jet", r, 4, m=4, q=2)
            for r in range(5)]
    kil = [spencer.janet_spencer_bundle_dims("killing", r, 4) for r in range(5)]
    for r in range(5):
        assert kil[r][0] + kil[r][1] == full[r][1]


def test_jet_system_resolutions_coincide():
    for r in range(4):
        f, c = spencer.janet_spencer_bundle_dims("jet", r, 3, m=1, q=2)
        assert f == c
    assert [spencer.janet_spencer_bundle_dims("jet", r, 3, m=1, q=2)[0]
            for r in range(4)] == [10, 20, 15, 4]


def test_alternating_sums_of_both_resolutions():
    kil = [spencer.janet_spencer_bundle_dims("killing", r, 4) for r in range(5)]
    assert sum((-1) ** r * p[1] for r, p in enumerate(kil)) == 0
    assert sum((-1) ** r * p[0] for r, p in enumerate(kil)) == 4
    con = [spencer.janet_spencer_bundle_dims("conformal_killing", r, 4)
           for r in range(5)]
    assert sum((-1) ** r * p[1] for r, p in enumerate(con)) == 0
    assert sum((-1) ** r * p[0] for r, p in enumerate(con)) == 4


def _rand_poly(rng, n, deg):
    p = Poly.zero(n)
    for _ in range(5):
        mono = tuple(rng.randint(0, deg) for _ in range(n))
        if sum(mono) > deg:
            continue
        p = p + Poly.monomial(n, mono, Fraction(rng.randint(-9, 9)))
    return p


def jet_section_prolongation(n, m, q, components):
    """Section of J_q from m base polynomials: component (mu, k) is the
    mu-th mixed partial of the k-th polynomial."""
    out = {}
    for qq in range(q + 1):
        for mu in sym_tuples(n, qq):
            for k in range(m):
                p = components[k]
                for i in mu:
                    p = p.diff(i)
                out[(mu, k)] = p
    return out


def spencer_derivative(n, m, q, r, section):
    """One step of the jet-comparison operator on form-valued jet sections.

    Input: dict (I, mu, k) -> polynomial with |I| = r and |mu| <= q (for
    r = 0 keys may be plain (mu, k)); output has keys (J, mu, k) with
    |J| = r + 1 and |mu| <= q - 1.
    """
    def get(I, mu, k):
        if r == 0:
            return section.get((mu, k), Poly.zero(n))
        return section.get((I, mu, k), Poly.zero(n))

    out = {}
    for J in ext_tuples(n, r + 1):
        for qq in range(q):
            for mu in sym_tuples(n, qq):
                for k in range(m):
                    acc = Poly.zero(n)
                    for t in range(len(J)):
                        i = J[t]
                        I = J[:t] + J[t + 1:]
                        sign = -1 if t % 2 else 1
                        term = get(I, mu, k).diff(i) \
                            - get(I, tuple(sorted(mu + (i,))), k)
                        if not term.is_zero():
                            acc = acc + term.scale(sign)
                    out[(J, mu, k)] = acc
    return out


def test_jet_comparison_operator_squares_to_zero():
    rng = random.Random(31)
    n, m, q = 3, 2, 2
    section = {}
    for qq in range(q + 2):
        for mu in sym_tuples(n, qq):
            for k in range(m):
                section[(mu, k)] = _rand_poly(rng, n, 3)
    d1 = spencer_derivative(n, m, q + 1, 0, section)
    assert any(not p.is_zero() for p in d1.values())
    d2 = spencer_derivative(n, m, q, 1, d1)
    assert all(p.is_zero() for p in d2.values())


def test_jet_comparison_operator_kills_true_jets():
    rng = random.Random(32)
    n, m, q = 2, 2, 3
    fs = [_rand_poly(rng, n, 4) for _ in range(m)]
    jet = jet_section_prolongation(n, m, q, fs)
    dj = spencer_derivative(n, m, q, 0, jet)
    assert all(p.is_zero() for p in dj.values())


def _sorted_rows(rows):
    """Sparse rows as lists of (column, entry) in column order: the digest
    below pins columns and entries, not the insertion order of a dict."""
    return [sorted(row.items() if isinstance(row, dict) else row) for row in rows]


def test_spencer_columns_are_pinned():
    digest = hashlib.sha256()
    for n in (3, 4, 5):
        for metric in (ConstantMetric.euclidean(n), ConstantMetric.minkowski(n)):
            for builder in (killing, conformal_killing):
                op = builder(n, metric)
                g = spencer.symbol_of(op)
                parts = [g.constraints]
                for q in range(g.q, g.q + 3):
                    g_q = spencer.prolong_to(g, q)
                    parts += [g_q.constraints, _sorted_rows(g_q.basis()),
                              _sorted_rows(spencer._delta_images(
                                  n, 1, q, g.fiber_dim, g_q.basis()))]
                for q in (2, 3):
                    width, r_q_basis = spencer._jet_system(op, q)[:2]
                    rows, jet_width = spencer._prolonged_equation_rows(op, q)
                    parts += [width, _sorted_rows(r_q_basis), jet_width,
                              _sorted_rows(rows)]
                digest.update(f"{op.name} n={n} {metric.name}\n{parts!r}\n".encode())
    assert digest.hexdigest() == SPENCER_COLUMNS_SHA256


# symbol constraints, prolongations, R_q bases, delta images and jet equation
# rows of killing and conformal_killing at n = 3..5 under both metrics, from
# the column enumeration by sorted index tuples; any moved column changes it
SPENCER_COLUMNS_SHA256 = "386e02e3561a745b23794a654da0b93dc58b34e5283777cd9fa1ba92f95b2ce7"
