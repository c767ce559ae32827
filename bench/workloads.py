"""The three benchmark workloads: their inputs, set-up and correctness checks.

Every expected value comes from ``references.json`` in this directory, not
from the code under test.  Importing this module does not import diffseq;
``setup_*`` functions do, so a worker can time the import as set-up.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "references.json"), encoding="utf-8") as _fh:
    REFS = json.load(_fh)

METRICS = ("euclidean", "minkowski")


def h2_closed_form(n):
    return n * n * (n * n - 1) // 12


def h3_closed_form(n):
    return n * n * (n * n - 1) * (n - 2) // 24


def _metric(n, name):
    from diffseq import ConstantMetric
    return ConstantMetric.minkowski(n) if name == "minkowski" else None


def _expect(label, got, want):
    if got != want:
        raise AssertionError(f"{label}: expected {want}, got {got}")


# ---------------------------------------------------------------------------
# chains: full compatibility sequences, the syzygy route

# n = 7 is left out: its 110-MB tasks run 20-30% slower or faster with the
# host's memory load, which no in-run median removes; oracle still checks the
# delta route at n = 7 against the stored n = 7 chain
CHAIN_SPECS = ([("killing", n, "euclidean") for n in (4, 5, 6)]
               + [("conformal_killing", n, "euclidean") for n in (4, 5, 6)]
               + [("killing", 5, "minkowski"),
                  ("conformal_killing", 5, "minkowski")])


def _evaluate(op, point):
    """Symbol matrix of ``op`` at an integer covector, as sparse rows."""
    rows = []
    for row in op.rows:
        out = {}
        for j, p in enumerate(row):
            if not p.is_zero():
                v = p.evaluate(point)
                if v:
                    out[j] = v
        rows.append(out)
    return rows


def _product_vanishes(a, b):
    for row in a:
        acc = {}
        for k, v in row.items():
            for j, w in b[k].items():
                acc[j] = acc.get(j, 0) + v * w
        if any(acc.values()):
            return False
    return True


def check_chain(name, n, rep, point):
    ref = REFS["chains"][f"{name}/{n}"]
    _expect("dims", list(rep.dims), ref["dims"])
    _expect("orders", list(rep.orders), ref["orders"])
    _expect("terminated", rep.terminated, True)
    euler = sum((-1) ** i * d for i, d in enumerate(rep.dims))
    _expect("euler characteristic", (rep.euler_characteristic, euler), (0, 0))
    if name == "killing":
        _expect("H2 closed form", rep.dims[2], h2_closed_form(n))
        _expect("H3 closed form", rep.dims[3], h3_closed_form(n))
        _expect("delta oracle", list(rep.dims[2:]),
                REFS["delta"][f"killing/{n}"][2:])
    # cc o op = 0 implies the product of the symbols vanishes at any point
    mats = [_evaluate(s.operator, point) for s in rep.steps]
    for i in range(1, len(mats)):
        if not _product_vanishes(mats[i], mats[i - 1]):
            raise AssertionError(f"step {i} does not annihilate step {i - 1}")


def setup_chains(seed):
    """Build every operator; return the seeded list of timed tasks."""
    from diffseq import build_sequence, sequences
    rng = random.Random(seed)
    tasks = []
    for name, n, metric in CHAIN_SPECS:
        op = getattr(sequences, name)(n, _metric(n, metric))
        point = [rng.randint(1, 97) for _ in range(n)]

        def run(op=op):
            return build_sequence(op)

        def check(rep, name=name, n=n, point=point):
            check_chain(name, n, rep, point)

        tasks.append((f"sequence {name} n={n} {metric}", run, check))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# oracle: Spencer delta-cohomology and jet tables, pure linear algebra

def setup_oracle(seed):
    from math import comb

    from diffseq import sequences, spencer
    names = ("killing", "conformal_killing")
    ops = {(name, n): getattr(sequences, name)(n)
           for name in names for n in range(3, 8)}
    tasks = []
    for n in range(3, 8):
        def run(n=n):
            return {name: spencer.delta_cohomology_dims(ops[(name, n)], n)
                    for name in names}

        def check(dims, n=n):
            for name, h in dims.items():
                _expect(f"{name} delta dims", list(h),
                        REFS["delta"][f"{name}/{n}"])
            h = dims["killing"]
            _expect("H2/H3 closed forms", (h[2], h[3]),
                    (h2_closed_form(n), h3_closed_form(n)))
            _expect("syzygy chain", list(h[2:]),
                    REFS["chains"][f"killing/{n}"]["dims"][2:])

        tasks.append((f"delta cohomology n={n}", run, check))

    def witnesses():
        out = {}
        for key in REFS["delta_witnesses"]:
            name, n, r = key.split("/")
            n, r = int(n), int(r)
            q = 2 if name == "conformal_killing" else None
            node = spencer.delta_cohomology_detail(ops[(name, n)], r, q=q)[r]
            out[key] = [node.dim, node.rank_out, node.h]
        return out

    tasks.append(("delta witnesses n=4", witnesses,
                  lambda got: _expect("witnesses", got, REFS["delta_witnesses"])))
    for key, want in sorted(REFS["janet_spencer"].items()):
        system, n = key.split("/")
        n = int(n)

        def run(system=system, n=n):
            return [spencer.janet_spencer_bundle_dims(system, r, n)
                    for r in range(n + 1)]

        tasks.append((f"janet/spencer {key}", run,
                      lambda pairs, want=want: _expect(
                          "tables", {"F": [p[0] for p in pairs],
                                     "C": [p[1] for p in pairs]}, want)))
    for key, want in sorted(REFS["jet_columns"].items()):
        n, q = (int(x) for x in key.split("/"))

        def check(col, n=n, q=q, want=want):
            dims = [comb(n, r) * comb(n + q - r - 1, q - r) * n
                    for r in range(q + 1)]
            ranks = list(col.ranks)
            _expect("node dims", list(col.node_dims), dims)
            _expect("ranks", ranks, want["ranks"])
            exact = ([ranks[0]] + [ranks[r - 1] + ranks[r] for r in range(1, q)]
                     + [ranks[-1]]) == dims
            _expect("exact", (col.exact, exact), (True, True))

        tasks.append((f"jet column n={n} q={q}",
                      lambda n=n, q=q: spencer.full_jet_column(n, q, n), check))
    random.Random(seed).shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# cli: fresh diffseq processes, one per request

CLI_OPERATORS = {
    "killing": (2, 3, 4, 5),
    "conformal_killing": (3, 4, 5),
    "riemann": (2, 3, 4, 5),
    "bianchi": (3, 4, 5),
    "ricci": (3, 4, 5),
    "einstein": (3, 4, 5),
    "lanczos_candidate": (4,),
    "exterior_derivative": (2, 3, 4, 5),
}
CLI_COMMANDS = ("build", "cc", "adjoint", "sequence")
CLI_CHECKS = (("double-duality",), ("lemma41",), ("lanczos-contradiction",),
              ("golden-tables", "--n", "2"), ("golden-tables", "--n", "3"),
              ("golden-tables", "--n", "4"), ("golden-tables", "--n", "5"))
REPEATS_PER_COMMAND = 3


def cli_draw(seed):
    """Seeded request list: every command on every operator under both
    metrics and every check once, plus repeats, in seeded order.  Each
    request is a tuple (command, builder, n, metric, form_degree) or
    ("check", *args).

    The seed draws the order, the exterior form degrees and which cheap
    n <= 3 requests repeat.  Which requests make up the slow tail that sets
    req_p90_s does not depend on it."""
    rng = random.Random(seed)
    by_command = {}
    for command in CLI_COMMANDS:
        for builder, ns in CLI_OPERATORS.items():
            for n in ns:
                r = rng.randrange(n) if builder == "exterior_derivative" else 0
                by_command.setdefault(command, []).extend(
                    (command, builder, n, metric, r) for metric in METRICS)
    draw = [req for reqs in by_command.values() for req in reqs]
    draw += [("check",) + c for c in CLI_CHECKS]
    for command in CLI_COMMANDS:
        cheap = [req for req in by_command[command] if req[2] <= 3]
        draw += rng.sample(cheap, REPEATS_PER_COMMAND)
    rng.shuffle(draw)
    return draw


def doc_path(workdir, req):
    _, builder, n, metric, r = req
    return os.path.join(workdir, f"{builder}_{n}_{metric}_{r}.json")


def cli_argv(req, workdir):
    if req[0] == "check":
        return list(req) + ["--json"]
    command, builder, n, metric, r = req
    if command in ("cc", "adjoint"):
        return [command, doc_path(workdir, req)]
    argv = [command, builder, "--n", str(n), "--metric", metric]
    if builder == "exterior_derivative":
        argv += ["--form-degree", str(r)]
    return argv + (["--json"] if command == "sequence" else [])


def setup_cli(draw, workdir):
    """Build every operator the draw reads from a document and write it."""
    from diffseq import sequences, serialize
    for req in draw:
        if req[0] not in ("cc", "adjoint"):
            continue
        _, builder, n, metric, r = req
        if builder == "exterior_derivative":
            op = sequences.exterior_derivative(n, r)
        else:
            op = sequences.BUILDERS[builder](n, _metric(n, metric))
        text = serialize.dumps(serialize.operator_to_document(op, metric))
        with open(doc_path(workdir, req), "w", encoding="utf-8") as fh:
            fh.write(text)


def _chain_ref(builder, n, r):
    key = f"{builder}/{n}" + (f"/{r}" if builder == "exterior_derivative" else "")
    return REFS["chains"][key]


def check_cli(req, stdout):
    """Raise unless ``stdout`` is the right answer to ``req``."""
    from diffseq import serialize
    text = stdout.decode("utf-8")
    doc = json.loads(text)
    if req[0] == "check":
        _expect("check verdict", doc["ok"], True)
        return
    command, builder, n, metric, r = req
    ref = _chain_ref(builder, n, r)
    if command == "sequence":
        _expect("sequence", (doc["dims"], doc["orders"], doc["euler"],
                             doc["terminated"]),
                (ref["dims"], ref["orders"],
                 sum((-1) ** i * d for i, d in enumerate(ref["dims"])), True))
        return
    dims = ref["dims"] + [0]
    want = {"build": (dims[0], dims[1]), "cc": (dims[1], dims[2]),
            "adjoint": (dims[1], dims[0])}[command]
    _expect(f"{command} shape",
            (len(doc["source"]["elements"]), len(doc["target"]["elements"])),
            want)
    _expect("metric", doc["metric"], metric)
    again = serialize.dumps(serialize.operator_to_document(
        serialize.document_to_operator(serialize.loads(text)), metric))
    _expect("document round trip", again == text, True)


SETUPS = {"chains": setup_chains, "oracle": setup_oracle}
