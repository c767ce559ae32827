"""Command-line front end.

Subcommands build operators, chain their conditions, take adjoints, and
run the bundled verification suites.  Output is deterministic: the same
invocation always produces the same bytes.  Exit codes: 0 success, 1 a
check failed, 2 usage error, 3 a computation hit the degree cap.
"""

import argparse
import sys

from . import config, golden, groebner, operators, sequences, serialize
from .poly import ConstantMetric

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

BUILDER_NAMES = sorted(sequences.BUILDERS) + ["exterior_derivative"]
CHECK_NAMES = ("double-duality", "lanczos-contradiction", "lemma41",
               "golden-tables")


class UsageError(ValueError):
    pass


def _build_named(name, n, metric_name, form_degree):
    if not 2 <= n <= 6:
        raise UsageError(f"n must be between 2 and 6, got {n}")
    metric = ConstantMetric.minkowski(n) if metric_name == "minkowski" else None
    try:
        if name == "exterior_derivative":
            return sequences.exterior_derivative(n, form_degree)
        return sequences.BUILDERS[name](n, metric)
    except KeyError:
        raise UsageError(f"unknown operator {name!r}") from None
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
        "steps": [{"operator": s.operator.name,
                   "source_dim": s.source_dim,
                   "target_dim": s.target_dim,
                   "order": s.order} for s in rep.steps],
    }


def _sequence_markdown(rep):
    lines = [f"# sequence {rep.name} (n={rep.n})", "",
             f"chain: {rep.chain_string()}",
             "orders: " + ", ".join(str(o) for o in rep.orders),
             f"terminated: {'yes' if rep.terminated else 'no'}",
             f"euler characteristic: {rep.euler_characteristic}", "",
             "| step | operator | shape | order |", "|---|---|---|---|"]
    for i, s in enumerate(rep.steps):
        lines.append(f"| {i} | {s.operator.name} "
                     f"| {s.target_dim} x {s.source_dim} | {s.order} |")
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


def _check_lines_golden(ns):
    rep = golden.run_golden_checks(ns=ns)
    lines = [(r.key, r.ok,
              "" if r.ok else f"expected {r.expected}, got {r.got}")
             for r in rep.results]
    return lines, rep.ok, f"{len(rep.results)} frozen values recomputed"


def _run_check(which, ns):
    if which == "double-duality":
        return _check_lines_double_duality()
    if which == "lanczos-contradiction":
        return _check_lines_contradiction()
    if which == "lemma41":
        return _check_lines_lemma41()
    if which == "golden-tables":
        return _check_lines_golden(ns)
    raise UsageError(f"unknown check {which!r}")


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


def _parser():
    p = argparse.ArgumentParser(
        prog="diffseq",
        description="exact condition sequences for flat-space geometric operators")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--json", action="store_true",
                     help="emit a JSON document")
    fmt.add_argument("--markdown", action="store_true",
                     help="emit a markdown report")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", parents=[fmt],
                       help="emit a built-in operator")
    b.add_argument("name", choices=BUILDER_NAMES)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--metric", choices=("euclidean", "minkowski"),
                   default="euclidean")
    b.add_argument("--form-degree", type=int, default=0,
                   help="r for exterior_derivative (ignored otherwise)")

    c = sub.add_parser("cc", parents=[fmt],
                       help="conditions of an operator document")
    c.add_argument("file")

    a = sub.add_parser("adjoint", parents=[fmt],
                       help="formal adjoint of an operator document")
    a.add_argument("file")

    s = sub.add_parser("sequence", parents=[fmt],
                       help="full condition chain of a built-in operator")
    s.add_argument("name", choices=BUILDER_NAMES)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--metric", choices=("euclidean", "minkowski"),
                   default="euclidean")
    s.add_argument("--form-degree", type=int, default=0)

    k = sub.add_parser("check", parents=[fmt],
                       help="run a bundled verification suite")
    k.add_argument("which", choices=CHECK_NAMES)
    k.add_argument("--n", type=int, default=None,
                   help="restrict golden tables to one dimension")
    return p


def _read_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return serialize.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    try:
        fmt = _format_flag(args)

        if args.command == "build":
            op = _build_named(args.name, args.n, args.metric, args.form_degree)
            _emit_operator(op, args.metric, fmt or "json")
            return EXIT_OK

        if args.command in ("cc", "adjoint"):
            doc = _read_document(args.file)
            metric_name = serialize.document_metric_name(doc)
            op = serialize.document_to_operator(doc)
            if args.command == "cc":
                try:
                    out = operators.compatibility_conditions(op)
                except groebner.GeneratorError as exc:
                    raise UsageError(f"cc of {op.name} needs nonzero rows "
                                     f"of one order each: {exc}") from None
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

        if args.command == "check":
            if args.n is not None and args.which != "golden-tables":
                raise UsageError(f"check {args.which} takes no --n")
            frozen = tuple(sorted({n for _, n in golden.CHAINS}))
            if args.n is not None and args.n not in frozen:
                raise UsageError(f"no frozen values exist for n={args.n}; "
                                 f"they exist for n={frozen[0]}..{frozen[-1]}")
            ns = (args.n,) if args.n is not None else frozen
            lines, ok, summary = _run_check(args.which, ns)
            if (fmt or "markdown") == "json":
                _emit(serialize.dumps(_check_dict(args.which, lines, ok, summary)))
            else:
                _emit(_check_markdown(args.which, lines, ok, summary))
            return EXIT_OK if ok else EXIT_CHECK_FAILED

        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, serialize.DocumentError, config.ConfigError) as exc:
        print(f"diffseq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (config.DegreeCapExceeded, config.ExponentCapExceeded) as exc:
        print(f"diffseq: degree cap: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
