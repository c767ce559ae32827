"""Process-wide caching: one entry per (n, metric), computed once."""

import importlib
import inspect
import json
import os
import pkgutil
from math import comb

import pytest

import diffseq
from diffseq import bundles, golden, linalg, sequences, spencer
from diffseq.poly import ConstantMetric

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

METRIC_CACHED = [
    sequences.killing, sequences.conformal_killing, sequences.riemann_linearized,
    sequences.bianchi, sequences.ricci, sequences.einstein,
    sequences.lanczos_candidate, bundles.weyl_candidate_space,
    bundles.trace_free_sym2, bundles.bianchi_candidate_space, bundles.split_riemann,
]


@pytest.mark.parametrize("fn", METRIC_CACHED, ids=lambda fn: fn.__name__)
def test_none_and_the_euclidean_metric_share_one_entry(fn):
    assert fn(4) is fn(4, ConstantMetric.euclidean(4))
    assert fn(4, metric=None) is fn(n=4, metric=ConstantMetric.euclidean(4))
    with pytest.raises(ValueError, match="metric is for n=3"):
        fn(4, ConstantMetric.euclidean(3))


def test_lanczos_candidate_keeps_its_default_dimension():
    assert sequences.lanczos_candidate() is sequences.lanczos_candidate(4)


def test_ricci_reuses_the_curvature_ambient_rows():
    info = sequences._riemann_ambient_terms.cache_info
    w = ConstantMetric([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    sequences.riemann_linearized(3, w)
    before = info()
    sequences.ricci(3, w)
    after = info()
    assert after.misses == before.misses and after.hits > before.hits
    rows = sequences._riemann_ambient_terms(3)
    with pytest.raises(TypeError):
        rows[0][1][0, (0, 0, 2)] = 1


def test_janet_spencer_table_eliminates_each_symbol_once(monkeypatch):
    """A table reads dim R_q off the symbol chain: it eliminates no jet
    system, each symbol space once, and a basis only where g_q != 0."""
    n = 3
    w = ConstantMetric([[3, 0, 0], [0, 1, 0], [0, 0, 1]])
    tables = {system: [spencer.janet_spencer_bundle_dims(system, r, n, w, q=2)
                       for r in range(n + 1)] for system in ("killing", "conformal_killing")}
    # delta_map too: its warm ranks would skip the basis read of g_2
    for cache in (spencer.symbol_of, spencer.prolong, spencer._jet_system,
                  spencer.SymbolSpace.basis, spencer.delta_map):
        cache.cache_clear()
    made, widths, symbols = [], [], []
    make = spencer._make_symbol
    monkeypatch.setattr(spencer, "_make_symbol",
                        lambda n, q, m, rows: made.append(q) or make(n, q, m, rows))
    kernel = linalg._kernel   # the kernel entry of a symbol basis
    monkeypatch.setattr(linalg, "_kernel",
                        lambda rows, ncols: widths.append(ncols) or kernel(rows, ncols))
    symbol_of = spencer.symbol_of
    monkeypatch.setattr(spencer, "symbol_of",
                        lambda op: symbols.append(op) or symbol_of(op))

    for _ in range(2):   # the second pass eliminates nothing
        assert [spencer.janet_spencer_bundle_dims("killing", r, n, w, q=2)
                for r in range(n + 1)] == tables["killing"]
        # g_1 and g_2; g_2 = 0, so g_3 is built as the zero space and no
        # basis is eliminated
        assert made == [1, 2] and widths == [] and len(symbols) == 1
    for _ in range(2):
        assert [spencer.janet_spencer_bundle_dims("conformal_killing", r, n, w, q=2)
                for r in range(n + 1)] == tables["conformal_killing"]
        # g_1, g_2 and g_3 of the conformal symbol, and the one basis of
        # g_2 != 0 that every exterior degree reads
        assert made == [1, 2, 1, 2, 3] and widths == [comb(n + 1, 2) * n]
        assert len(symbols) == 2


def test_prolong_is_built_once_per_symbol_space(monkeypatch):
    calls = []
    prolong = spencer.prolong
    monkeypatch.setattr(spencer, "prolong",
                        lambda g: calls.append(g) or prolong(g))
    # the callers of prolong are cached too; a warm cache would skip it
    for cache in (prolong, spencer._jet_system, spencer.symbol_of):
        cache.cache_clear()
    for r in range(5):
        spencer.janet_spencer_bundle_dims("killing", r, 4)
    spencer.delta_cohomology_dims(sequences.killing(4), 4)
    spencer.delta_cohomology_detail(sequences.conformal_killing(4), 3, q=2)
    assert len(set(calls)) < len(calls)
    assert prolong.cache_info().misses == len(set(calls))
    assert prolong(calls[0]) is prolong(calls[0])


def test_delta_map_eliminates_each_slice_once(monkeypatch):
    """A scan over consecutive q meets delta on g_{q+1} twice, as rank_in at
    q and rank_out at q + 1; its rows are built once."""
    op = sequences.einstein(4)
    spencer.delta_map.cache_clear()
    built = []
    for name in ("_delta_images", "_delta_matrix"):
        side = getattr(spencer, name)
        monkeypatch.setattr(spencer, name,
                            lambda *args, side=side: built.append(args[1:3]) or side(*args))
    scan = [spencer.delta_cohomology_detail(op, 4, q=q) for q in (2, 3)]
    # r = 0..3 on each of g_2, g_3 and g_4
    assert sorted(built) == [(r, q) for r in range(4) for q in (2, 3, 4)]
    assert [spencer.delta_cohomology_detail(op, 4, q=q) for q in (2, 3)] == scan
    assert len(built) == 12


def test_symbol_of_is_built_once_per_operator(monkeypatch):
    calls = []
    symbol_of = spencer.symbol_of
    monkeypatch.setattr(spencer, "symbol_of",
                        lambda op: calls.append(op) or symbol_of(op))
    symbol_of.cache_clear()
    assert golden.run_golden_checks(ns=(4,)).ok
    # killing and conformal_killing at n = 4, each asked for several times
    assert symbol_of.cache_info().misses == len(set(calls)) == 2
    assert len(calls) > 2
    assert symbol_of(calls[0]) is symbol_of(calls[0])


def test_benchmark_trace_targets_are_plain_functions():
    """Each per-layer target ``<module>.<function>.<metric>`` or
    ``<module>.<Class>.<method>.<metric>`` is what the benchmark tracer wraps:
    a public plain function defined in that diffseq module, or a public
    method defined in a class of it.  A target that was deleted, became a
    cache object or moved to another module would drop out of the trace."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for metric in spec["per_layer"]:
        layer, *target, _ = metric["name"].split(".")
        if layer in ("trace", "host") or not target:
            continue   # a layer total, or a trace or host figure
        module = importlib.import_module(f"diffseq.{layer}")
        obj = module
        for attr in target:
            assert not attr.startswith("_") and attr in vars(obj), metric["name"]
            obj = vars(obj)[attr]
        assert inspect.isfunction(obj), metric["name"]
        assert obj.__module__ == module.__name__, metric["name"]


PROCESS_CACHES = {
    "bundles.riemann_candidate_space", "bundles.weyl_candidate_space",
    "bundles.trace_free_sym2", "bundles.lanczos_constraint_space",
    "bundles.bianchi_candidate_space", "bundles.split_riemann",
    "poly.ConstantMetric.euclidean",
    "sequences.killing", "sequences.conformal_killing",
    "sequences._riemann_ambient_terms", "sequences.riemann_linearized",
    "sequences.bianchi", "sequences.ricci", "sequences.einstein",
    "sequences.exterior_derivative", "sequences.lanczos_candidate",
    "spencer._monomials", "spencer.SymbolSpace.basis", "spencer.symbol_of",
    "spencer.prolong", "spencer._jet_system", "spencer._wedge_signs",
    "spencer.delta_map",
}


def test_every_process_cache_is_a_plain_function():
    """``config.cached`` is the one memoizer: each cache in the package is a
    plain function (so the benchmark tracer can wrap a public one) that
    exposes ``cache_clear`` and ``cache_info``; a bare ``lru_cache`` object
    or a cache missing from the list above fails."""
    found = {}
    for info in pkgutil.iter_modules(diffseq.__path__):
        module = importlib.import_module(f"diffseq.{info.name}")
        owners = [(info.name, module)] + [
            (f"{info.name}.{attr}", value) for attr, value in vars(module).items()
            if inspect.isclass(value) and value.__module__ == module.__name__]
        for prefix, owner in owners:
            for attr, value in vars(owner).items():
                value = getattr(value, "__func__", value)   # a classmethod
                if hasattr(value, "cache_info") and getattr(
                        value, "__module__", None) == module.__name__:
                    found[f"{prefix}.{attr}"] = value
    assert set(found) == PROCESS_CACHES
    for name, fn in found.items():
        assert inspect.isfunction(fn), name
        assert callable(fn.cache_clear), name
        assert fn.cache_info().maxsize is None, name
