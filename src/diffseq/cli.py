"""Command-line front end.

Subcommands build operators, chain their conditions, take adjoints, and
run the bundled verification suites.  Output is deterministic: the same
invocation always produces the same bytes.  Exit codes: 0 success, 1 a
check failed, 2 usage error, 3 a computation hit the degree cap.

One table, ``COMMANDS``, gives each command its argument, options and help
line; ``_parse`` reads argv by it and ``_help`` prints from it.  Argv the
table does not describe, a repeated option or an abbreviated one prints
``diffseq: <reason>`` on stderr and exits 2.
"""

import sys
from types import SimpleNamespace

from . import config, groebner, operators, sequences, serialize
from .poly import ConstantMetric

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DESCRIPTION = "exact condition sequences for flat-space geometric operators"
BUILDER_NAMES = sorted(sequences.BUILDERS) + ["exterior_derivative"]
CHECK_NAMES = ("double-duality", "lanczos-contradiction", "lemma41",
               "golden-tables")

SUPPORTED_N = range(2, 7)   # the n every command takes, built in or read from a document
_REQUIRED = object()   # the default of an option that must be given
_HELP = ("-h", "--help")
_FORMAT = (("--json", bool, False, "emit a JSON document"),
           ("--markdown", bool, False, "emit a markdown report"))
_BUILT_IN = (("--n", int, _REQUIRED, f"dimension, {SUPPORTED_N[0]}..{SUPPORTED_N[-1]}"),
             ("--metric", ("euclidean", "minkowski"), "euclidean", "flat metric"),
             ("--form-degree", int, 0,
              "r for exterior_derivative (ignored otherwise)")) + _FORMAT

# command -> (positional field, its choices or None for a path, help line,
# options); an option is (flag, kind, default, help), its kind bool for a
# switch, int, or a tuple of choices
COMMANDS = {
    "build": ("name", BUILDER_NAMES, "emit a built-in operator", _BUILT_IN),
    "cc": ("file", None, "conditions of an operator document", _FORMAT),
    "adjoint": ("file", None, "formal adjoint of an operator document", _FORMAT),
    "sequence": ("name", BUILDER_NAMES,
                 "full condition chain of a built-in operator", _BUILT_IN),
    "check": ("which", CHECK_NAMES, "run a bundled verification suite",
              (("--n", int, None, "restrict golden tables to one dimension"),)
              + _FORMAT),
}


class UsageError(ValueError):
    pass


def _supported(n):
    if n not in SUPPORTED_N:
        raise UsageError(f"n must be between {SUPPORTED_N[0]} and {SUPPORTED_N[-1]}, got {n}")


def _build_named(name, n, metric_name, form_degree):
    _supported(n)
    metric = ConstantMetric.minkowski(n) if metric_name == "minkowski" else None
    try:
        if name == "exterior_derivative":
            return sequences.exterior_derivative(n, form_degree)
        return sequences.BUILDERS[name](n, metric)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _format_flag(args):
    if args.json and args.markdown:
        raise UsageError("choose at most one of --json / --markdown")
    return "json" if args.json else "markdown" if args.markdown else None


def _operator_markdown(op, metric_name):
    lines = [f"# operator {op.name}", "",
             f"- n: {op.n}",
             f"- metric: {metric_name}",
             f"- source: {op.source.label} ({op.source.dim})",
             f"- target: {op.target.label} ({op.target.dim})",
             f"- order: {op.order}", ""]
    header = "| | " + " | ".join(op.source.element_labels) + " |"
    sep = "|" + "---|" * (op.source.dim + 1)
    lines += [header, sep]
    for i, lab in enumerate(op.target.element_labels):
        cells = [repr(op.rows[i][j]) for j in range(op.source.dim)]
        lines.append(f"| {lab} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _emit_operator(op, metric_name, fmt):
    if fmt == "markdown":
        _emit(_operator_markdown(op, metric_name))
    else:
        _emit(serialize.dumps(serialize.operator_to_document(op, metric_name)))


def _sequence_dict(rep):
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "sequence",
        "name": rep.name,
        "n": rep.n,
        "dims": list(rep.dims),
        "orders": list(rep.orders),
        "terminated": rep.terminated,
        "euler": rep.euler_characteristic,
        "steps": [{"operator": op.name,
                   "source_dim": op.source.dim,
                   "target_dim": op.target.dim,
                   "order": op.order} for op in (s.operator for s in rep.steps)],
    }


def _sequence_markdown(rep):
    lines = [f"# sequence {rep.name} (n={rep.n})", "",
             "chain: " + " -> ".join(str(d) for d in rep.dims),
             "orders: " + ", ".join(str(o) for o in rep.orders),
             f"terminated: {'yes' if rep.terminated else 'no'}",
             f"euler characteristic: {rep.euler_characteristic}", "",
             "| step | operator | shape | order |", "|---|---|---|---|"]
    for i, op in enumerate(s.operator for s in rep.steps):
        lines.append(f"| {i} | {op.name} "
                     f"| {op.target.dim} x {op.source.dim} | {op.order} |")
    return "\n".join(lines) + "\n"


def _check_lines_double_duality():
    cases = [sequences.killing(2), sequences.killing(3), sequences.killing(4),
             sequences.conformal_killing(4), sequences.exterior_derivative(3, 0)]
    lines, ok = [], True
    for op in cases:
        rep = sequences.double_duality_report(op)
        ok = ok and rep.ok
        verdicts = ", ".join(
            f"position {i + 1}: {'pass' if v.ok else 'FAIL'}"
            for i, v in enumerate(rep.verdicts))
        lines.append((f"{op.name} n={op.n}", rep.ok, verdicts))
    return lines, ok, "adjoint chains stay exact at every tested position"


def _check_lines_contradiction():
    rep = sequences.potential_contradiction_report()
    lines = [
        ("order-1 candidate is not annihilated by the second identity",
         rep.candidate_composition_nonzero, ""),
        ("linearized curvature is annihilated",
         rep.curvature_composition_zero, ""),
        ("candidate image satisfies all curvature symmetries",
         rep.image_in_candidate_space, ""),
        ("candidate differential rank",
         True, str(rep.candidate_rank)),
    ]
    return lines, rep.ok, "no first-order potential induces the curvature space"


def _check_lines_lemma41():
    rep = sequences.trace_contraction_check()
    lines = [
        ("contracted second identity equals the divergence identity",
         rep.identity_ok, ""),
        ("double trace factors through the potential relabeling",
         rep.relabel_matches, f"factor {rep.relabel_factor}"),
        ("relabeled trace kernel dimension",
         rep.trace_kernel_dim == 16, str(rep.trace_kernel_dim)),
        ("single-component probe lands on the expected slot",
         rep.probe_ok, ""),
    ]
    return lines, rep.ok, "trace of the second identity reduces to a divergence"


def _check_lines_golden(n):
    from . import golden   # the only check that needs the Spencer route
    frozen = tuple(sorted({k for _, k in golden.CHAINS}))
    if n is not None and n not in frozen:
        raise UsageError(f"no frozen values exist for n={n}; "
                         f"they exist for n={frozen[0]}..{frozen[-1]}")
    rep = golden.run_golden_checks(ns=frozen if n is None else (n,))
    lines = [(r.key, r.ok,
              "" if r.ok else f"expected {r.expected}, got {r.got}")
             for r in rep.results]
    return lines, rep.ok, f"{len(rep.results)} frozen values recomputed"


def _run_check(which, n):
    if which == "golden-tables":
        return _check_lines_golden(n)
    if n is not None:
        raise UsageError(f"check {which} takes no --n")
    return {"double-duality": _check_lines_double_duality,
            "lanczos-contradiction": _check_lines_contradiction,
            "lemma41": _check_lines_lemma41}[which]()


def _check_markdown(which, lines, ok, summary):
    out = [f"# check {which}", ""]
    for key, passed, extra in lines:
        mark = "pass" if passed else "FAIL"
        suffix = f" ({extra})" if extra else ""
        out.append(f"- {mark}: {key}{suffix}")
    out += ["", f"summary: {summary}",
            f"result: {'pass' if ok else 'FAIL'}"]
    return "\n".join(out) + "\n"


def _check_dict(which, lines, ok, summary):
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "check",
        "check": which,
        "results": [{"key": key, "ok": passed, "detail": extra}
                    for key, passed, extra in lines],
        "summary": summary,
        "ok": ok,
    }


def _option_value(flag, kind, text):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"{flag} needs an integer, got {text!r}") from None
    if text not in kind:
        raise UsageError(f"{flag} must be one of {', '.join(kind)}, got {text!r}")
    return text


def _parse(argv):
    """Read ``argv`` into the fields ``main`` uses, by the ``COMMANDS`` table.

    ``help`` is true when -h or --help asks for the help text instead.
    Options come in any order, as ``--opt value`` or ``--opt=value``, each
    at most once and spelled in full; anything else raises ``UsageError``.
    """
    if argv and argv[0] in _HELP:
        return SimpleNamespace(command=None, help=True)
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise UsageError(f"{got}; choose one of {', '.join(COMMANDS)}")
    command, rest = argv[0], iter(argv[1:])
    field, choices, _, options = COMMANDS[command]
    kinds = {flag: kind for flag, kind, _, _ in options}
    values, positional = {}, []
    for arg in rest:
        if arg in _HELP:
            return SimpleNamespace(command=command, help=True)
        if not arg.startswith("-"):
            positional.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        kind = kinds.get(flag)
        if kind is None:
            raise UsageError(f"{command} has no option {flag}")
        if flag in values:
            raise UsageError(f"{flag} given more than once")
        if kind is bool:
            if eq:
                raise UsageError(f"{flag} takes no value")
            values[flag] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{flag} needs a value")
        values[flag] = _option_value(flag, kind, value)
    if not positional:
        raise UsageError(f"{command} needs {field.upper()}")
    if len(positional) > 1:
        raise UsageError(f"unexpected argument {positional[1]!r}")
    if choices is not None and positional[0] not in choices:
        raise UsageError(f"{field.upper()} must be one of {', '.join(choices)}, "
                         f"got {positional[0]!r}")
    fields = {"command": command, "help": False, field: positional[0]}
    for flag, _, default, _ in options:
        if flag not in values and default is _REQUIRED:
            raise UsageError(f"{command} needs {flag}")
        fields[flag[2:].replace("-", "_")] = values.get(flag, default)
    return SimpleNamespace(**fields)


def _help(command=None):
    """Usage and help text of one command, or of every command."""
    from textwrap import fill

    lines = [] if command else [
        "usage: diffseq COMMAND ARGUMENT [OPTIONS]", "", DESCRIPTION, ""]
    for name in [command] if command else COMMANDS:
        field, choices, text, options = COMMANDS[name]
        synopsis = ["usage: diffseq", name, field.upper()]
        rows = [(field.upper(), ", ".join(choices))] if choices else []
        for flag, kind, default, about in options:
            usage = flag if kind is bool else f"{flag} {flag[2:].upper()}"
            if isinstance(kind, tuple):
                about += ": " + ", ".join(kind)
            if default is _REQUIRED:
                synopsis.append(usage)
                about += " (required)"
            elif default is not None and kind is not bool:
                about += f" (default {default})"
            rows.append((usage, about))
        lines += [" ".join(synopsis + ["[OPTIONS]"]), f"  {text}"]
        for key, about in rows:
            if len(key) > 20:
                lines.append(f"  {key}")
                key = ""
            lines.append(fill(f"  {key:<22}{about}", 79, subsequent_indent=" " * 24,
                              break_on_hyphens=False))
        lines.append("")
    lines += ["Options come in any order, as --opt VALUE or --opt=VALUE, each at",
              "most once and spelled in full.  Exit codes: 0 success, 1 a check",
              "failed, 2 usage or document error, 3 degree cap exceeded."]
    return "\n".join(lines)


def _read_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return serialize.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args.help:
            _emit(_help(args.command))
            return EXIT_OK
        fmt = _format_flag(args)

        if args.command == "build":
            op = _build_named(args.name, args.n, args.metric, args.form_degree)
            _emit_operator(op, args.metric, fmt or "json")
            return EXIT_OK

        if args.command in ("cc", "adjoint"):
            doc = _read_document(args.file)
            metric_name = serialize.document_metric_name(doc)
            op = serialize.document_to_operator(doc)
            _supported(op.n)
            if args.command == "cc":
                try:
                    out = operators.compatibility_conditions(op)
                except groebner.GeneratorError as exc:
                    raise UsageError(f"cc of {op.name} needs rows of one order each: "
                                     f"{exc}") from None
            else:
                out = operators.adjoint(op)
            _emit_operator(out, metric_name, fmt or "json")
            return EXIT_OK

        if args.command == "sequence":
            op = _build_named(args.name, args.n, args.metric, args.form_degree)
            rep = sequences.build_sequence(op)
            if (fmt or "markdown") == "json":
                _emit(serialize.dumps(_sequence_dict(rep)))
            else:
                _emit(_sequence_markdown(rep))
            return EXIT_OK

        # the table leaves "check" as the one command not handled above
        lines, ok, summary = _run_check(args.which, args.n)
        if (fmt or "markdown") == "json":
            _emit(serialize.dumps(_check_dict(args.which, lines, ok, summary)))
        else:
            _emit(_check_markdown(args.which, lines, ok, summary))
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except (UsageError, serialize.DocumentError, config.ConfigError) as exc:
        print(f"diffseq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (config.DegreeCapExceeded, config.ExponentCapExceeded) as exc:
        print(f"diffseq: degree cap: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
