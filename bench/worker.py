"""One cold benchmark process.  Started by run.py, never imported.

    worker.py setup-cli SEED WORKDIR          time cli set-up only
    worker.py task WORKLOAD SEED INDEX TRACE  set up, run and check one task
    worker.py cli-request OUT ARGS...         one traced diffseq CLI request

``setup-cli`` and ``task`` print one JSON object on stdout, with times in
CPU seconds of this process.  ``cli-request`` prints what the CLI prints,
exits with its code, and writes its trace summary to OUT.
"""

import json
import sys
import time
import traceback

import workloads
from tracer import Tracer

clock = time.process_time


def setup_cli(seed, workdir):
    start = clock()
    import diffseq.cli  # noqa: F401  (what every CLI request loads)
    workloads.setup_cli(workloads.cli_draw(seed), workdir)
    return {"setup_s": clock() - start}


def run_task(workload, seed, index, trace):
    """Set up the whole workload, then run and check its task ``index``
    once, cold."""
    start = clock()
    import diffseq  # noqa: F401
    import_s = clock() - start
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.request = "setup"
    build_start = clock()
    tasks = workloads.SETUPS[workload](seed)
    setup_s = import_s + clock() - build_start
    label, run, check = tasks[index]
    if tracer is not None:
        tracer.request = label
    seconds, error = 0.0, None
    try:
        start = clock()
        out = run()
        seconds = clock() - start
        if tracer is not None:
            tracer.request = None
        check(out)
    except Exception:
        error = traceback.format_exc(limit=3)
    return {"setup_s": setup_s, "of": len(tasks), "task": [label, seconds, error],
            "trace": tracer.summary() if tracer is not None else None}


def cli_request(out_path, argv):
    start = clock()
    import diffseq.cli
    import_s = clock() - start
    tracer = Tracer()
    tracer.install()
    tracer.request = "request"
    try:
        code = diffseq.cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


def main(argv):
    mode = argv[0]
    if mode == "cli-request":
        return cli_request(argv[1], argv[2:])
    if mode == "setup-cli":
        out = setup_cli(int(argv[1]), argv[2])
    elif mode == "task":
        out = run_task(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
