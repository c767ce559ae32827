"""Frozen expected values and the runner that recomputes each one.

Every number here was produced by the engine itself and cross-checked
against independent derivations (closed-form dimension counts, rank
bookkeeping, classical tables).  The runner rebuilds each quantity from
scratch and reports a diff for anything that moved, so a regression in
any layer of the stack surfaces as a named mismatch.
"""

from math import comb

from . import sequences, spencer
from .config import record

# chain dims and operator orders per (builder, n)
CHAINS = {
    ("killing", 2): ((2, 3, 1), (1, 2)),
    ("killing", 3): ((3, 6, 6, 3), (1, 2, 1)),
    ("killing", 4): ((4, 10, 20, 20, 6), (1, 2, 1, 1)),
    ("killing", 5): ((5, 15, 50, 75, 45, 10), (1, 2, 1, 1, 1)),
    ("conformal_killing", 3): ((3, 5, 5, 3), (1, 3, 1)),
    ("conformal_killing", 4): ((4, 9, 10, 9, 4), (1, 2, 2, 1)),
    ("conformal_killing", 5): ((5, 14, 35, 35, 14, 5), (1, 2, 1, 2, 1)),
}

# (dim of the cochain space, rank of the outgoing delta) witnesses at n=4
DELTA_WITNESSES = {
    ("killing", 4, 2): (36, 16, 20),
    ("killing", 4, 3): (24, 4, 20),
    ("killing", 4, 4): (6, 0, 6),
    ("conformal_killing", 4, 3): (16, 7, 9),
}


def h2_closed_form(n):
    return n * n * (n * n - 1) // 12


def h3_closed_form(n):
    return n * n * (n * n - 1) * (n - 2) // 24


# Dimension-diagram rows.  Each entry is (exterior degree, symmetric
# degree, fiber key); its dimension is C(n,r) * C(n+a-1,a) * dim(fiber).
# Fiber dims are recomputed from the engine at check time.
DIAGRAM_FORMULAS = {
    "classical_first": (
        ((0, 0, "g3"), (0, 3, "T"), (0, 2, "F0"), (0, 0, "F1")),
        ((1, 0, "g2"), (1, 2, "T"), (1, 1, "F0")),
        ((2, 0, "g1"), (2, 1, "T"), (2, 0, "F0")),
        ((3, 0, "T"), (3, 0, "T")),
    ),
    "classical_second": (
        ((0, 0, "g4"), (0, 4, "T"), (0, 3, "F0"), (0, 1, "F1"), (0, 0, "F2")),
        ((1, 0, "g3"), (1, 3, "T"), (1, 2, "F0"), (1, 0, "F1")),
        ((2, 0, "g2"), (2, 2, "T"), (2, 1, "F0")),
        ((3, 0, "g1"), (3, 1, "T"), (3, 0, "F0")),
        ((4, 0, "T"), (4, 0, "T")),
    ),
    "conformal": (
        ((0, 0, "hg5"), (0, 5, "T"), (0, 4, "hF0"), (0, 2, "hF1"), (0, 0, "hF2")),
        ((1, 0, "hg4"), (1, 4, "T"), (1, 3, "hF0"), (1, 1, "hF1")),
        ((2, 0, "hg3"), (2, 3, "T"), (2, 2, "hF0"), (2, 0, "hF1")),
        ((3, 0, "hg2"), (3, 2, "T"), (3, 1, "hF0")),
        ((4, 0, "hg1"), (4, 1, "T"), (4, 0, "hF0")),
    ),
}

DIAGRAM_ROWS = {
    "classical_first": ((0, 80, 100, 20), (0, 160, 160), (36, 96, 60), (16, 16)),
    "classical_second": ((0, 140, 200, 80, 20), (0, 320, 400, 80),
                         (0, 240, 240), (24, 64, 40), (4, 4)),
    "conformal": ((0, 224, 315, 100, 9), (0, 560, 720, 160),
                  (0, 480, 540, 60), (16, 160, 144), (7, 16, 9)),
}

# rows 1 and 2 begin the exact sequences one step in, so their alternating
# sums are taken without a leading kernel term of nonzero dimension
TRACE_FREE_ROWS = ((10, 16, 6), (10, 20, 20, 6), (10, 10, 4))

FULL_JET_COLUMNS = {
    ("classical_first", 4): (80, 160, 96, 16),
    ("classical_second", 4): (140, 320, 240, 64, 4),
}

LANCZOS_COUNT = {"ambient": 24, "constraints": 4, "dim": 20}

SPLITTING = {"riemann": 20, "ricci_part": 10, "weyl_part": 10}

JANET_SPENCER = {
    "killing": {"F": (50, 120, 120, 56, 10), "C": (10, 40, 60, 40, 10)},
    "conformal_killing": {"F": (125, 360, 414, 220, 45),
                          "C": (15, 60, 90, 60, 15)},
}

# informational: one generating-relation count per source component of the
# order-2 full-derivative system; the engine's count is the frozen value
HESSIAN_CC = {2: 4, 3: 24}


@record
class GoldenResult:
    key: str
    expected: object
    got: object

    @property
    def ok(self):
        return self.expected == self.got


@record
class GoldenReport:
    results: tuple

    @property
    def ok(self):
        return all(r.ok for r in self.results)


def _fiber_dims(k_chain, c_chain):
    """Live recomputation of every fiber dimension used in the diagrams, given
    the killing and conformal_killing n=4 sequences."""
    g = spencer.symbol_of(sequences.killing(4))
    gs = {}
    for i in range(1, 5):
        gs[f"g{i}"] = g.dim
        g = spencer.prolong(g)
    h = spencer.symbol_of(sequences.conformal_killing(4))
    for i in range(1, 6):
        gs[f"hg{i}"] = h.dim
        h = spencer.prolong(h)
    fibers = {"T": 4,
              "F0": k_chain.dims[1], "F1": k_chain.dims[2],
              "F2": k_chain.dims[3],
              "hF0": c_chain.dims[1], "hF1": c_chain.dims[2],
              "hF2": c_chain.dims[3]}
    fibers.update(gs)
    return fibers


def run_golden_checks(ns=(2, 3, 4, 5)):
    """Recompute every frozen value whose dimension is in ``ns``."""
    results = []
    chains = {}

    for (name, n), (dims, orders) in sorted(CHAINS.items()):
        if n not in ns:
            continue
        rep = chains[name, n] = sequences.build_sequence(getattr(sequences, name)(n))
        results.append(GoldenResult(
            key=f"chain {name} n={n} dims", expected=dims, got=rep.dims))
        results.append(GoldenResult(
            key=f"chain {name} n={n} orders", expected=orders, got=rep.orders))
        results.append(GoldenResult(
            key=f"chain {name} n={n} euler", expected=0,
            got=rep.euler_characteristic))

    for n in ns:
        if not 2 <= n <= 5:
            continue
        dims = spencer.delta_cohomology_dims(
            sequences.killing(n), min(3, n))
        results.append(GoldenResult(
            key=f"delta H2 killing n={n}", expected=h2_closed_form(n),
            got=dims[2] if len(dims) > 2 else 0))
        if n >= 3:
            results.append(GoldenResult(
                key=f"delta H3 killing n={n}", expected=h3_closed_form(n),
                got=dims[3]))

    if 4 in ns:
        for (name, n, r), (dim, rank_out, h) in sorted(DELTA_WITNESSES.items()):
            q = 2 if name == "conformal_killing" else None
            node = spencer.delta_cohomology_detail(
                getattr(sequences, name)(n), r, q=q)[r]
            results.append(GoldenResult(
                key=f"delta witness {name} n={n} r={r}",
                expected=(dim, rank_out, h),
                got=(node.dim, node.rank_out, node.h)))

    if 4 in ns:
        fibers = _fiber_dims(chains["killing", 4], chains["conformal_killing", 4])
        for diagram, rows in sorted(DIAGRAM_FORMULAS.items()):
            got_rows = tuple(
                tuple(comb(4, r) * comb(4 + a - 1, a) * fibers[f]
                      for (r, a, f) in row)
                for row in rows)
            results.append(GoldenResult(
                key=f"diagram {diagram} rows",
                expected=DIAGRAM_ROWS[diagram], got=got_rows))
            alt = tuple(sum((-1) ** i * v for i, v in enumerate(row))
                        for row in got_rows)
            results.append(GoldenResult(
                key=f"diagram {diagram} exact rows",
                expected=tuple(0 for _ in got_rows), got=alt))
        for (diagram, n), dims in sorted(FULL_JET_COLUMNS.items()):
            col = spencer.full_jet_column(n, len(dims) - 1, n)
            results.append(GoldenResult(
                key=f"diagram {diagram} jet column",
                expected=(dims, True), got=(col.node_dims, col.exact)))

        wr = sequences.weyl_relations_report()
        results.append(GoldenResult(
            key="trace-free relations bookkeeping", expected=(16, 6, 10),
            got=(wr.relation_count, wr.cc_count, wr.differential_rank)))
        results.append(GoldenResult(
            key="trace-free diagram rows", expected=TRACE_FREE_ROWS,
            got=wr.diagram_rows))

        from . import bundles
        lz = bundles.lanczos_constraint_space(4)
        results.append(GoldenResult(
            key="potential constraint count",
            expected=(LANCZOS_COUNT["ambient"], LANCZOS_COUNT["constraints"],
                      LANCZOS_COUNT["dim"]),
            got=(lz.ambient_dim, lz.ambient_dim - lz.dim, lz.dim)))

        split = sequences.split_riemann(4)
        results.append(GoldenResult(
            key="curvature splitting 20 = 10 + 10",
            expected=(SPLITTING["riemann"], SPLITTING["ricci_part"],
                      SPLITTING["weyl_part"]),
            got=(split.riemann_space.dim, split.sym2_space.dim,
                 split.weyl_space.dim)))

        for system, tables in sorted(JANET_SPENCER.items()):
            pairs = [spencer.janet_spencer_bundle_dims(system, r, 4)
                     for r in range(5)]
            results.append(GoldenResult(
                key=f"janet bundles {system}", expected=tables["F"],
                got=tuple(p[0] for p in pairs)))
            results.append(GoldenResult(
                key=f"spencer bundles {system}", expected=tables["C"],
                got=tuple(p[1] for p in pairs)))

    for n in sorted(HESSIAN_CC):
        if n in ns:
            results.append(GoldenResult(
                key=f"full-hessian relation count n={n}",
                expected=HESSIAN_CC[n],
                got=sequences.hessian_system_cc_count(n)))

    return GoldenReport(results=tuple(results))
