"""Lossless JSON documents for operators, with deterministic bytes.

Coefficients travel as "p/q" strings so no float ever appears, and only
those or JSON integers are read back; exponent lists have fixed length n;
entries are sorted by (row, col) and terms by the monomial order the algebra
uses.  A document built from an operator parses to an equal operator.  The
name must be a string, and the name and labels must be ones that two
``bundles.dual_label`` calls give back, so two adjoints restore a document.
``dumps`` writes ``json.dumps(doc, indent=2)`` without its Python encoder.
"""

import json
import re
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .bundles import dual_label, free_basis
from .linalg import _integral
from .operators import OperatorMatrix
from .poly import mono_key

SCHEMA_VERSION = 1
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_SCALARS = {str: _quote, int: int.__repr__, bool: json.dumps, type(None): json.dumps}


class DocumentError(ValueError):
    """Malformed or unsupported operator document."""


def _integer(value, what, low=0):
    if type(value) is not int or value < low:
        raise DocumentError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _parse_coef(s, parsed):
    """The value of a ``coef``; ``parsed`` maps each string read so far to its value."""
    if type(s) is int:
        return s
    if type(s) is not str or not _RATIONAL.fullmatch(s):
        raise DocumentError(f"bad rational {s!r}: a coef is an integer or a p or p/q string")
    if s not in parsed:
        try:
            parsed[s] = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:   # q = 0, or too many digits
            raise DocumentError(f"bad rational {s!r}") from exc
    return parsed[s]


def _basis_block(basis):
    return {"label": basis.label, "elements": list(basis.element_labels)}


def operator_to_document(op, metric="euclidean"):
    key, text = cache(mono_key), cache(lambda v, den: str(Fraction(v, den)))
    entries = []
    for i, (den, vec) in enumerate(op.vectors):
        cells = {}
        for (j, mono), v in vec.items():
            cells.setdefault(j, []).append((key(mono), mono, v))
        for j in sorted(cells):
            terms = [{"coef": text(v, den), "exp": list(mono)}
                     for _, mono, v in sorted(cells[j], reverse=True)]
            entries.append({"row": i, "col": j, "terms": terms})
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "operator",
        "name": op.name,
        "n": op.n,
        "metric": metric,
        "source": _basis_block(op.source),
        "target": _basis_block(op.target),
        "entries": entries,
    }


def document_to_operator(doc):
    try:
        version = doc["schema_version"]
        if version != SCHEMA_VERSION:
            raise DocumentError(f"unsupported schema_version {version!r}")
        if doc.get("kind", "operator") != "operator":
            raise DocumentError(f"not an operator document: {doc.get('kind')!r}")
        n = _integer(doc["n"], "n", low=1)
        name = doc.get("name", "operator")
        if type(name) is not str:
            raise DocumentError(f"name must be a string, got {name!r}")
        bases = []
        for block in (doc["source"], doc["target"]):
            label, elements = block["label"], block["elements"]
            if type(label) is not str or type(elements) is not list or any(
                    type(e) is not str for e in elements):
                raise DocumentError(f"bad label {label!r} or elements {elements!r}")
            bases.append(free_basis(label, n, elements))
        source, target = bases
        for text in (name, source.label, target.label):
            if dual_label(dual_label(text)) != text:
                raise DocumentError(f"two adjoints would not give back {text!r}")
        rows, width = [{} for _ in range(target.dim)], source.dim
        seen, parsed = set(), {}
        for entry in doc["entries"]:
            i, j = _integer(entry["row"], "row"), _integer(entry["col"], "col")
            if i >= len(rows) or j >= width or (i, j) in seen:
                raise DocumentError(f"entry ({i},{j}) repeated or outside the matrix shape")
            seen.add((i, j))
            exps = set()
            for term in entry["terms"]:
                exp = tuple(term["exp"])
                if len(exp) != n or set(map(type, exp)) != {int} or min(exp) < 0:
                    for e in exp:   # names the first bad exponent, if any
                        _integer(e, "exponent")
                    raise DocumentError(f"bad exponent list {term['exp']!r}")
                if exp in exps:
                    raise DocumentError(f"exponent {list(exp)} repeated in entry ({i},{j})")
                exps.add(exp)
                coef = _parse_coef(term["coef"], parsed)
                if coef:
                    rows[i][j, exp] = coef
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"missing or malformed field: {exc}") from exc
    return OperatorMatrix(name=name, n=n, source=source, target=target,
                          vectors=tuple(map(_integral, rows)))


def document_metric_name(doc):
    m = doc.get("metric", "euclidean")
    if m not in ("euclidean", "minkowski"):
        raise DocumentError(f"unknown metric descriptor {m!r}")
    return m


def _text(value, nl):
    """``json.dumps(value, indent=2)`` for ``value`` nested where lines start
    with ``nl``: dicts with str keys, lists, tuples, str, int, bool, None."""
    scalar = _SCALARS.get(type(value))
    if scalar:
        return scalar(value)
    inner = nl + "  "
    if type(value) is dict:   # _quote refuses a key that is not a str
        items, ends = [f"{inner}{_quote(k)}: {_text(v, inner)}" for k, v in value.items()], "{}"
    elif type(value) in (list, tuple):
        items, ends = [inner + _text(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"cannot write {type(value).__name__} {value!r:.60} as JSON")
    return f"{ends[0]}{','.join(items)}{nl}{ends[1]}" if items else ends


def dumps(doc):
    """Canonical text for any report dict: fixed key order, trailing newline."""
    return _text(doc, "\n") + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:   # also too deep, or too many digits
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    return doc
