"""Command-line behavior: artifacts, formats, determinism, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import diffseq
from diffseq import cli, golden, serialize
from diffseq.operators import compose
from diffseq.sequences import killing


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_build_emits_a_parseable_document():
    code, out = run_cli(["build", "killing", "--n", "3"])
    assert code == 0
    doc = serialize.loads(out)
    op = serialize.document_to_operator(doc)
    assert op == killing(3)
    assert doc["metric"] == "euclidean"


def test_document_round_trip_through_files(tmp_path):
    code, out = run_cli(["build", "exterior_derivative", "--n", "3",
                         "--form-degree", "0"])
    assert code == 0
    path = tmp_path / "grad.json"
    path.write_text(out, encoding="utf-8")
    code, adj = run_cli(["adjoint", str(path)])
    assert code == 0
    adj_doc = serialize.loads(adj)
    assert adj_doc["source"]["label"].startswith("ad(")
    code, cc = run_cli(["cc", str(path)])
    assert code == 0
    cc_op = serialize.document_to_operator(serialize.loads(cc))
    assert cc_op.shape == (3, 3)


def test_output_bytes_are_deterministic():
    _, a = run_cli(["sequence", "killing", "--n", "3", "--json"])
    _, b = run_cli(["sequence", "killing", "--n", "3", "--json"])
    assert a == b
    _, c = run_cli(["build", "riemann", "--n", "3"])
    _, d = run_cli(["build", "riemann", "--n", "3"])
    assert c == d


def test_sequence_report_contents():
    code, out = run_cli(["sequence", "killing", "--n", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [4, 10, 20, 20, 6]
    assert doc["orders"] == [1, 2, 1, 1]
    assert doc["euler"] == 0
    code, md = run_cli(["sequence", "killing", "--n", "4"])
    assert "4 -> 10 -> 20 -> 20 -> 6" in md


def test_markdown_operator_table():
    code, out = run_cli(["build", "killing", "--n", "2", "--markdown"])
    assert code == 0
    assert "| s11 |" in out or "s11" in out
    assert "2*x1" in out


def test_checks_pass_with_exit_zero():
    for which in ("lemma41", "lanczos-contradiction"):
        code, out = run_cli(["check", which])
        assert code == 0, which
        assert "result: pass" in out


def test_golden_tables_filtered_by_dimension():
    code, out = run_cli(["check", "golden-tables", "--n", "3"])
    assert code == 0
    assert "killing n=3" in out
    assert "n=4" not in out


def test_failing_check_exits_one_with_a_diff(monkeypatch):
    monkeypatch.setitem(golden.CHAINS, ("killing", 2), ((9, 9, 9), (9, 9)))
    code, out = run_cli(["check", "golden-tables", "--n", "2"])
    assert code == 1
    assert "FAIL" in out
    assert "expected (9, 9, 9)" in out


def test_usage_errors_exit_two():
    for n in ("1", "7", "9"):
        code, _ = run_cli(["build", "killing", "--n", n])
        assert code == 2
    code, _ = run_cli(["build", "lanczos_candidate", "--n", "3"])
    assert code == 2
    code, _ = run_cli(["check", "golden-tables", "--n", "1"])
    assert code == 2


@pytest.mark.parametrize("fmt", ["--json", "--markdown"])
def test_golden_tables_with_no_frozen_values_is_a_usage_error(capsys, fmt):
    code, out = run_cli(["check", "golden-tables", "--n", "6", fmt])
    assert (code, out) == (2, "")
    assert "no frozen values exist for n=6" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", [[], ["--json"]])
@pytest.mark.parametrize("which", ["double-duality", "lemma41", "lanczos-contradiction"])
def test_checks_without_a_dimension_reject_n(capsys, which, fmt):
    code, out = run_cli(["check", which, "--n", "3"] + fmt)
    assert (code, out) == (2, "")
    assert f"check {which} takes no --n" in capsys.readouterr().err


def test_cap_errors_exit_three(tmp_path, monkeypatch):
    _, out = run_cli(["build", "killing", "--n", "3"])
    path = tmp_path / "k3.json"
    path.write_text(out, encoding="utf-8")
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", "1")
    code, _ = run_cli(["cc", str(path)])
    assert code == 3


def test_double_duality_check_exits_three_under_a_cap_of_one(monkeypatch, capsys):
    monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", "1")
    code, out = run_cli(["check", "double-duality"])
    assert (code, out) == (3, "")
    assert "above cap 1" in capsys.readouterr().err


def test_cc_runs_to_the_end_of_the_chain(tmp_path):
    code, out = run_cli(["build", "killing", "--n", "2"])
    for step in range(3):
        assert code == 0, step
        path = tmp_path / f"step{step}.json"
        path.write_text(out, encoding="utf-8")
        code, out = run_cli(["cc", str(path)])
    assert code == 0
    assert serialize.document_to_operator(serialize.loads(out)).shape == (0, 0)


def _zero_row_document(tmp_path):
    """The adjoint of killing(2) with its first column cleared: row 0 is zero."""
    _, out = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(out)
    doc["entries"] = [e for e in doc["entries"] if e["col"] != 0]
    path = tmp_path / "cleared.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _, out = run_cli(["adjoint", str(path)])
    return json.loads(out)


def _mixed_order_document(tmp_path):
    """killing(2) with an order-2 term added to an order-1 entry of row 0."""
    _, out = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(out)
    doc["entries"][0]["terms"].append({"coef": "1", "exp": [1, 1]})
    return doc


def test_cc_of_a_zero_row_exits_zero_with_its_unit_condition_last(tmp_path):
    doc = _zero_row_document(tmp_path)
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(["cc", str(path)])
    assert code == 0
    cc = serialize.document_to_operator(serialize.loads(out))
    last = cc.target.dim - 1
    assert [e for e in json.loads(out)["entries"] if e["row"] == last] == [
        {"row": last, "col": 0, "terms": [{"coef": "1", "exp": [0, 0]}]}]
    assert compose(cc, serialize.document_to_operator(doc)).is_zero()


def _zero_row_then_mixed_document(tmp_path):
    """Row 0 is zero and row 1 is the one cell x1 + x1^2."""
    return {"schema_version": 1, "kind": "operator", "name": "zm", "n": 2,
            "source": {"label": "U", "elements": ["u"]},
            "target": {"label": "S", "elements": ["s1", "s2"]},
            "entries": [{"row": 1, "col": 0, "terms": [{"coef": "1", "exp": [1, 0]},
                                                       {"coef": "1", "exp": [2, 0]}]}]}


@pytest.mark.parametrize("make, problem", [
    (_mixed_order_document, "killing needs rows of one order each: "
                            "row 0 mixes shifted degrees [1, 2]"),
    (_zero_row_then_mixed_document, "zm needs rows of one order each: "
                                    "row 1 mixes shifted degrees [1, 2]"),
], ids=["mixed-orders", "zero-row-then-mixed-orders"])
def test_cc_of_a_row_the_engine_cannot_take_exits_two(tmp_path, capsys, make, problem):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(make(tmp_path)), encoding="utf-8")
    capsys.readouterr()
    code, stdout = run_cli(["cc", str(path)])
    assert (code, stdout) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("diffseq: ") and problem in err


TWO_ORDERS = ('{"schema_version": 1, "kind": "operator", "name": "two", "n": 2, '
              '"source": {"label": "U", "elements": ["u"]}, '
              '"target": {"label": "S", "elements": ["s1", "s2"]}, "entries": ['
              '{"row": 0, "col": 0, "terms": [{"coef": "1", "exp": [1, 0]}]}, '
              '{"row": 1, "col": 0, "terms": [{"coef": "1", "exp": [0, 2]}]}]}')


def test_cc_of_its_own_output_exits_zero(tmp_path):
    # the first cc has the row (-x2^2, x1), whose columns weigh 0 and 1
    path = tmp_path / "two.json"
    path.write_text(TWO_ORDERS, encoding="utf-8")
    code, out = run_cli(["cc", str(path)])
    assert code == 0
    assert [e["col"] for e in json.loads(out)["entries"]] == [0, 1]
    path.write_text(out, encoding="utf-8")
    code, out = run_cli(["cc", str(path)])
    assert code == 0
    assert json.loads(out)["entries"] == []


def test_malformed_degree_cap_is_a_usage_error(monkeypatch, capsys):
    for value in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("DIFFSEQ_DEGREE_CAP", value)
        code, out = run_cli(["sequence", "killing", "--n", "3"])
        assert code == 2
        assert out == ""
        assert "DIFFSEQ_DEGREE_CAP must be a positive integer" in capsys.readouterr().err


def test_malformed_document_is_a_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"schema_version\": 99}", encoding="utf-8")
    code, _ = run_cli(["cc", str(path)])
    assert code == 2
    path2 = tmp_path / "nonjson.json"
    path2.write_text("not json at all", encoding="utf-8")
    code, _ = run_cli(["adjoint", str(path2)])
    assert code == 2


def test_undecodable_document_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bytes.json"
    bad.write_bytes(b"\xff\xfe{")
    for command in ("adjoint", "cc"):
        code, stdout = run_cli([command, str(bad)])
        assert (code, stdout) == (2, "")
        assert capsys.readouterr().err.startswith(f"diffseq: cannot read {bad}: ")


@pytest.mark.parametrize("command, text", [
    ("cc", "[" * 100000),
    ("adjoint", '{"a": ' * 3000 + "1" + "}" * 3000),
    ("cc", '{"n": ' + "1" * 5000 + "}"),
], ids=["cc-nested-array", "adjoint-nested-object", "cc-5000-digit-integer"])
def test_a_document_past_the_json_reader_limits_exits_two(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, stdout = run_cli([command, str(path)])
    assert (code, stdout) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("diffseq: ") and err.count("\n") == 1


def _empty_document(n):
    return {"schema_version": 1, "kind": "operator", "name": "empty", "n": n,
            "source": {"label": "U", "elements": []},
            "target": {"label": "S", "elements": []}, "entries": []}


@pytest.mark.parametrize("n", [1, 7, 10 ** 30])
def test_a_document_outside_the_supported_n_exits_two(tmp_path, capsys, n):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_empty_document(n)), encoding="utf-8")
    for command in ("cc", "adjoint"):
        code, stdout = run_cli([command, str(path)])
        assert (code, stdout) == (2, "")
        assert capsys.readouterr().err == f"diffseq: n must be between 2 and 6, got {n}\n"


def test_documents_at_both_ends_of_the_supported_n_are_read(tmp_path):
    assert (cli.SUPPORTED_N[0], cli.SUPPORTED_N[-1]) == (2, 6)
    path = tmp_path / "empty.json"
    for n in (2, 6):
        path.write_text(json.dumps(_empty_document(n)), encoding="utf-8")
        for command in ("cc", "adjoint"):
            code, stdout = run_cli([command, str(path)])
            assert code == 0 and json.loads(stdout)["n"] == n


def test_adjoint_wraps_a_composed_label_and_a_second_adjoint_restores_it(tmp_path):
    _, out = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(out)
    doc["source"]["label"] = "ad(T) o ad(S)"
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, adj = run_cli(["adjoint", str(path)])
    assert code == 0
    assert json.loads(adj)["target"]["label"] == "ad(ad(T) o ad(S))"
    path.write_text(adj, encoding="utf-8")
    code, back = run_cli(["adjoint", str(path)])
    assert code == 0 and json.loads(back) == doc


@pytest.mark.parametrize("metric", ["euclidean", "minkowski"])
def test_two_adjoints_restore_every_builder_document(tmp_path, metric):
    path = tmp_path / "op.json"
    for name in cli.BUILDER_NAMES:
        for r in range(3) if name == "exterior_derivative" else (0,):
            code, doc = run_cli(["build", name, "--n", "3", "--metric", metric,
                                 "--form-degree", str(r)])
            if code != 0:   # lanczos_candidate exists at n = 4 only
                continue
            text = doc
            for _ in range(2):
                path.write_text(text, encoding="utf-8")
                code, text = run_cli(["adjoint", str(path)])
                assert code == 0
            assert text == doc, (name, r)


@pytest.mark.parametrize("path, value", [
    (("name",), "killing("),
    (("source", "label"), "T)"),
    (("target", "label"), ")S("),
    (("source", "label"), "ad(T"),
    (("name",), "ad(ad(k))"),     # balanced, but two adjoints would unwrap it to k
], ids=["name-open", "label-close", "label-crossed", "label-ad-open", "name-nested-ad"])
def test_unbalanced_label_or_name_exits_two(tmp_path, capsys, path, value):
    _, out = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(out)
    _edit(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in ("adjoint", "cc"):
        code, stdout = run_cli([command, str(bad)])
        assert (code, stdout) == (2, "")
        assert capsys.readouterr().err.startswith("diffseq: two adjoints would not give back ")


def test_a_composed_adjoint_name_survives_two_adjoints(tmp_path):
    # the form adjoint gives a composition's name: it wraps, it does not unwrap
    _, text = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(text)
    doc["name"] = "ad(ad(a) o ad(b))"
    text = serialize.dumps(doc)
    path = tmp_path / "op.json"
    path.write_text(text, encoding="utf-8")
    for _ in range(2):
        code, out = run_cli(["adjoint", str(path)])
        assert code == 0
        path.write_text(out, encoding="utf-8")
    assert out == text


def test_a_document_without_a_name_reads_as_operator(tmp_path):
    _, text = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(text)
    del doc["name"]
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(["adjoint", str(path)])
    assert code == 0 and json.loads(out)["name"] == "ad(operator)"


def test_json_and_markdown_flags_conflict():
    code, _ = run_cli(["sequence", "killing", "--n", "3",
                       "--json", "--markdown"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    [],                                                      # no command
    ["frobnicate"],                                          # unknown command
    ["build", "nosuch", "--n", "3"],                         # unknown builder
    ["check", "nosuch"],                                     # unknown check
    ["build", "killing", "--n", "3", "--metric", "lorentz"], # bad --metric
    ["build", "killing", "--n", "three"],                    # non-integer --n
    ["build", "killing"],                                    # missing --n
    ["sequence", "killing", "--metric", "minkowski"],        # missing --n
    ["build", "killing", "--n"],                             # no value
    ["build", "killing", "--metric", "--n", "3"],            # no value
    ["cc"],                                                  # no FILE
    ["cc", "op.json", "--verbose"],                          # unknown flag
    ["check", "lemma41", "-x"],                              # unknown flag
    ["build", "killing", "extra", "--n", "3"],               # extra positional
    ["check", "golden-tables", "--n", "3", "--n", "4"],      # repeated option
    ["sequence", "killing", "--n", "3", "--json", "--json"], # repeated switch
    ["build", "killing", "--n", "3", "--js"],                # abbreviation
    ["build", "killing", "--n", "3", "--met", "minkowski"],  # abbreviation
    ["build", "killing", "--n", "3", "--json=yes"],          # value on a switch
])
def test_malformed_argv_exits_two_with_one_stderr_line(capsys, argv):
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("diffseq: ") and err.count("\n") == 1, err


# every option and choice of each command, written out apart from cli.COMMANDS
OPERATOR_OPTIONS = ["--n", "--metric", "--form-degree", "--json", "--markdown",
                    "euclidean", "minkowski"]
HELP_WORDS = {
    "build": OPERATOR_OPTIONS + cli.BUILDER_NAMES,
    "cc": ["--json", "--markdown"],
    "adjoint": ["--json", "--markdown"],
    "sequence": OPERATOR_OPTIONS + cli.BUILDER_NAMES,
    "check": ["--n", "--json", "--markdown", "double-duality",
              "lanczos-contradiction", "lemma41", "golden-tables"],
}


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["build", "killing", "-h"]]
                         + [[command, "--help"] for command in HELP_WORDS])
def test_help_exits_zero_and_names_every_command_option_and_choice(capsys, argv):
    code, out = run_cli(argv)
    assert code == 0 and capsys.readouterr().err == ""
    commands = [argv[0]] if argv[0] in HELP_WORDS else list(HELP_WORDS)
    for command in commands:
        for word in [f"diffseq {command} "] + HELP_WORDS[command]:
            assert word in out, (command, word)


@pytest.mark.parametrize("spaced, joined", [
    (["sequence", "killing", "--n", "3", "--json"],
     ["sequence", "killing", "--n=3", "--json"]),
    (["build", "exterior_derivative", "--n", "3", "--form-degree", "1",
      "--metric", "minkowski"],
     ["build", "--metric=minkowski", "--form-degree=1", "exterior_derivative",
      "--n=3"]),
    (["check", "golden-tables", "--n", "2"], ["check", "--n=2", "golden-tables"]),
])
def test_option_spellings_and_order_give_the_same_bytes(spaced, joined):
    assert run_cli(spaced) == run_cli(joined)


FOOTPRINT = """
import sys
import diffseq.cli
print(sorted(m for m in ("argparse", "diffseq.golden", "diffseq.spencer")
             if m in sys.modules))
import diffseq
print(diffseq.spencer.__name__, diffseq.run_golden_checks.__module__)
"""


def test_cli_import_leaves_out_argparse_golden_and_spencer():
    src = os.path.dirname(os.path.dirname(diffseq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "[]\ndiffseq.spencer diffseq.golden\n"


def test_every_export_is_the_object_its_module_defines():
    star = {}
    exec("from diffseq import *", star)
    for name in diffseq.__all__:
        value = getattr(diffseq, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("diffseq.") and getattr(module, name) is value
        assert star[name] is value and name in dir(diffseq)
    assert not hasattr(diffseq, "no_such_name")


APPEND = object()   # marker: repeat the first element of the list at path


def _edit(doc, path, value):
    """Set ``doc[path[0]][path[1]]...`` to ``value`` (or apply ``APPEND``)."""
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is APPEND:
        target[path[-1]].append(target[path[-1]][0])
    else:
        target[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("n",), "abc"),                                   # not a number at all
    (("entries", 0, "terms", 0, "coef"), 0.1),         # float coefficient
    (("entries", 0, "terms", 0, "exp"), [1.5, 0]),     # float exponent
    (("entries", 0, "row"), 0.9),                      # float row index
    (("n",), 2.7),                                     # float dimension
    (("entries", 0, "col"), False),                    # boolean as integer
    (("source", "elements"), "abc"),                   # string, not a list
    (("source", "label"), 5),                          # label not a string
    (("name",), 12),                                   # name not a string
    (("entries",), APPEND),                            # repeated (row, col)
    (("entries", 0, "terms"), APPEND),                 # repeated exp in one entry
], ids=["n-string", "coef-float", "exp-float", "row-float", "n-float",
        "col-bool", "elements-string", "label-number", "name-number", "duplicate-entry",
        "duplicate-exponent"])
def test_malformed_document_fields_exit_two(tmp_path, capsys, path, value):
    _, out = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(out)
    _edit(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in ("adjoint", "cc"):
        code, stdout = run_cli([command, str(bad)])
        assert (code, stdout) == (2, "")
        assert capsys.readouterr().err.startswith("diffseq: ")


@pytest.mark.parametrize("exp, message", [
    ([True, 0], "exponent must be an integer >= 0, got True"),
    ([-1, 0], "exponent must be an integer >= 0, got -1"),
    ([0, "1"], "exponent must be an integer >= 0, got '1'"),
    ([0, -1, 0], "exponent must be an integer >= 0, got -1"),   # named before the length
    ([0], "bad exponent list [0]"),
    ([0, 0, 0], "bad exponent list [0, 0, 0]"),
    ("ab", "exponent must be an integer >= 0, got 'a'"),
    (5, "missing or malformed field: 'int' object is not iterable"),
])
def test_a_bad_exponent_list_names_its_first_fault(exp, message):
    _, out = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(out)
    doc["entries"][0]["terms"][0]["exp"] = exp
    with pytest.raises(serialize.DocumentError) as err:
        serialize.document_to_operator(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("coef", ["1e4400", "1e10000000", "0.5", " 1/2 ", "+1", "1/0"])
def test_a_coef_not_of_the_writer_form_exits_two_at_once(tmp_path, capsys, coef):
    # Fraction would read every one of these but the last; an exponent form
    # costs time superlinear in its exponent, and "1e4400" has more digits
    # than str() writes
    _, out = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(out)
    doc["entries"][0]["terms"][0]["coef"] = coef
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in ("adjoint", "cc"):
        start = time.perf_counter()
        code, stdout = run_cli([command, str(bad)])
        assert time.perf_counter() - start < 1
        assert (code, stdout) == (2, "")
        assert capsys.readouterr().err.startswith(f"diffseq: bad rational {coef!r}")


def test_a_coef_reads_as_a_json_integer_or_any_p_over_q_string():
    _, out = run_cli(["build", "killing", "--n", "2"])
    doc = json.loads(out)
    want = serialize.document_to_operator(doc)
    term = doc["entries"][0]["terms"][0]
    assert term["coef"] == "2"
    for same in (2, "02", "4/2", "0006/003"):
        term["coef"] = same
        assert serialize.document_to_operator(doc) == want


_characters = st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é😀')
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | st.text(_characters),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(_characters), inner),
    max_leaves=20)


@settings(deadline=None, max_examples=100)
@given(_json_values)
def test_dumps_writes_the_bytes_of_json_dumps_with_indent_two(value):
    assert serialize.dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [0.5, {"a": [1, 2.0]}, {1: "a"}, {"a": {1, 2}}],
                         ids=["float", "nested-float", "int-key", "set"])
def test_dumps_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        serialize.dumps(value)


def _pinned_invocations(tmp_path):
    """build/sequence/cc/adjoint for every builder at n = 2..4 under both
    metrics in JSON and markdown, plus three checks."""
    doc = tmp_path / "op.json"
    for n in (2, 3, 4):
        for metric in ("euclidean", "minkowski"):
            for name in cli.BUILDER_NAMES:
                for r in range(n) if name == "exterior_derivative" else (0,):
                    args = [name, "--n", str(n), "--metric", metric,
                            "--form-degree", str(r)]
                    code, out = run_cli(["build"] + args)
                    doc.write_text(out, encoding="utf-8")
                    for fmt in ("--json", "--markdown"):
                        yield ["build"] + args + [fmt]
                        yield ["sequence"] + args + [fmt]
                        if code == 0:
                            yield ["cc", str(doc), fmt]
                            yield ["adjoint", str(doc), fmt]
    yield ["check", "lemma41"]
    yield ["check", "double-duality"]
    yield ["check", "golden-tables", "--n", "3"]


def test_cli_output_bytes_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for argv in _pinned_invocations(tmp_path):
        code, out = run_cli(argv)
        digest.update(f"{code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == PINNED_CLI_SHA256


# exit codes and stdout of every invocation above; any change to the CLI's
# output bytes changes it
PINNED_CLI_SHA256 = "f35170bdc1836a3b56b18cbbf632cc9d166a24355f84769b9eb3aeac2f757f1a"


def _builder_invocations():
    """build for every builder at n=5 (each form degree) and for the five
    chain builders at n=6, under both metrics."""
    for n, names in ((5, cli.BUILDER_NAMES),
                     (6, ("killing", "conformal_killing", "riemann", "ricci", "einstein"))):
        for metric in ("euclidean", "minkowski"):
            for name in names:
                for r in range(n) if name == "exterior_derivative" else (0,):
                    yield ["build", name, "--n", str(n), "--metric", metric,
                           "--form-degree", str(r)]


def test_builder_documents_at_n5_and_n6_are_pinned():
    digest = hashlib.sha256()
    for argv in _builder_invocations():
        code, out = run_cli(argv)
        digest.update(f"{code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == PINNED_BUILDER_SHA256


# exit codes and documents of every build above
PINNED_BUILDER_SHA256 = "efd31ab50e21bac4c8458dee4a6cc9b3a89aef7a786279bb5a7599f945d9fe17"
