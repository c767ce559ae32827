"""Tests of the benchmark itself: repeatable counters, wrapping, references.

    python3 -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [BENCH, SRC]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTERS = (
    "operators.compose.calls", "operators.compose.cells",
    "groebner.syzygies.in_gens", "groebner.syzygies.out_gens",
    "groebner.ModuleGB.reduced_elements.basis_in",
    "groebner.ModuleGB.reduced_elements.kept",
    "groebner.minimal_graded_generators.kept",
    "linalg.rref.calls", "linalg.rref.nnz_in", "linalg.rref.pivots",
)

KILLING_4 = """
import json, sys
sys.path.insert(0, {bench!r})
import tracer
import diffseq
t = tracer.Tracer()
t.install()
op = diffseq.killing(4)
diffseq.build_sequence(op)
diffseq.delta_cohomology_dims(op, 4)
funcs = t.summary()["functions"]
out = {{}}
for name in {names!r}:
    target, field = name.rsplit(".", 1)
    out[name] = funcs.get(target, {{}}).get(field, 0)
print(json.dumps(out))
"""


def _traced_killing_4():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("DIFFSEQ_DEGREE_CAP", None)
    code = KILLING_4.format(bench=BENCH, names=EXACT_COUNTERS)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stdout)


def test_exact_counters_repeat_across_cold_traced_runs():
    first, second = _traced_killing_4(), _traced_killing_4()
    assert first == second
    assert all(first[name] > 0 for name in EXACT_COUNTERS), first


def test_every_binding_site_is_wrapped_and_restored():
    from diffseq import operators, sequences
    original = operators.compose
    t = tracer.Tracer()
    t.install()
    try:
        assert sequences.compose is operators.compose
        assert sequences.compose.__wrapped__ is original
        sequences.build_sequence(sequences.killing(3))
    finally:
        t.uninstall()
    assert operators.compose is original and sequences.compose is original
    assert t.summary()["functions"]["operators.compose"]["calls"] > 0


def test_missing_target_is_reported_absent_not_fatal():
    spec = [{"name": "groebner.ModuleGB.reduced_elements.kept_ratio"},
            {"name": "groebner.ModuleGB.reduced_elements.calls"},
            {"name": "groebner.time_s"},
            {"name": "trace.absent_targets"}]
    summary = {"functions": {}, "layers": {}, "targets": [], "spans": 0}
    values, absent = run.per_layer(spec, {"work_s": 1.0},
                                   {"work_s": 1.0, "trace": summary},
                                   [run.CAL_REF_S])
    assert absent == ["groebner.ModuleGB.reduced_elements"]
    assert values["groebner.ModuleGB.reduced_elements.calls"] == 0
    assert values["groebner.ModuleGB.reduced_elements.kept_ratio"] == 0.0
    assert values["trace.absent_targets"] == 1


def test_references_agree_between_the_two_routes():
    refs = workloads.REFS
    for n in range(3, 8):
        chain = refs["chains"][f"killing/{n}"]["dims"]
        assert chain[2:] == refs["delta"][f"killing/{n}"][2:]
        assert chain[2] == workloads.h2_closed_form(n)
        assert chain[3] == workloads.h3_closed_form(n)


def test_cli_draw_is_seeded_and_long_enough_for_p90():
    draw = workloads.cli_draw(7)
    assert draw == workloads.cli_draw(7) != workloads.cli_draw(8)
    assert len(draw) >= 100            # at least ten requests beyond p90
    assert len(draw) - len(set(draw)) >= len(workloads.CLI_COMMANDS)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    passes = [{"work_s": 1.0, "rss_mb": 1.0,
               "units": [("a", 1.0, None), ("b", 2.0, None)]}]
    assert set(run.end_to_end([0.5], passes)) == {
        m["name"] for m in spec["end_to_end"]}
