"""diffseq benchmark: one workload, run cold, checked against stored references.

    python3 bench/run.py --workload chains|oracle|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; diffseq is imported from ``src/``.
Every timed unit of work runs in a fresh process started from here, so no
in-process cache of diffseq survives from one pass or request to the next.
Children get ``PYTHONHASHSEED=0`` and no ``DIFFSEQ_DEGREE_CAP``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics of a
traced pass, and the tracing overhead against an untraced pass of the same
inputs.  Lines before it, prefixed with ``#``, are for people.  See
bench/README.md.

Times are CPU seconds at a reference host speed.  The harness and every
child run on one CPU.  Right before and right after each child, the harness
times a fixed loop (``calibrate``) on that CPU; the mean of the two is the
child's speed reading.  Once the run is over, each CPU time of a child is
multiplied by (``CAL_REF_S`` over the median reading of the children around
it) to the power ``CAL_EXPONENT`` (``Spawner.scale``).  A shared host runs
the same loop up to twice as slowly from one minute to the next, and the
scaling takes most of that swing out of the figures.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

sys.path.insert(0, BENCH)
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5          # cli set-up processes per run, about half before and
                        # half after the requests, so the median spans the run
PROCESS_TIMEOUT_S = 170
SHORT_TASK_S = 0.6      # a chains or oracle task shorter than this gets ...
MAX_SAMPLES = 3         # ... up to this many cold samples per pass
CAL_LOOPS = 20000       # one calibration: about 4 ms of dict and int work
CAL_REF_S = 0.00400     # CPU seconds of one calibration at reference speed
CAL_WINDOW = 5          # a child is scaled by the readings of the children
                        # this far before and after it, and its own
CAL_EXPONENT = 0.8      # diffseq slows by about this power of the loop's
                        # slowdown (fitted over 31 runs, all three workloads)


def calibrate():
    """Thread CPU seconds of a fixed loop: a reading of how fast the host
    runs Python right now."""
    start = time.thread_time()
    table = {}
    for i in range(CAL_LOOPS):
        key = (i % 61, i % 67)
        table[key] = table.get(key, 0) + i * i % 7
    return time.thread_time() - start


def pin_to_one_cpu():
    """Pin this process, and so every child, to one CPU; return it or None."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Spawner:
    """Starts child processes; records each one's CPU time, peak RSS and the
    host speed around it."""

    def __init__(self, workdir, env):
        self.workdir = workdir
        self.env = env
        self.readings = []      # per child: mean calibration around it

    def run(self, argv):
        """Return (exit code, CPU seconds, child id, peak RSS in MB, stdout,
        stderr).  The child id is for ``scale``."""
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            before = calibrate()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.readings.append((before + calibrate()) / 2)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, usage.ru_utime + usage.ru_stime,
                    len(self.readings) - 1, usage.ru_maxrss / 1024.0,
                    out.read(), err.read())

    def worker(self, *args):
        """Run worker.py; return its JSON result, child id and peak RSS."""
        code, _, child, rss, out, err = self.run(
            [sys.executable, WORKER] + [str(a) for a in args])
        if code != 0:
            raise RuntimeError(f"worker {args} exited {code}:\n"
                               + err.decode("utf-8", "replace"))
        return json.loads(out.decode("utf-8").splitlines()[-1]), child, rss

    def scale(self, child):
        """Factor that turns CPU seconds of ``child`` into seconds at
        reference speed.  A single reading is a few milliseconds of a
        changing host; the median over neighbouring children is steadier."""
        near = self.readings[max(0, child - CAL_WINDOW):child + CAL_WINDOW + 1]
        return (CAL_REF_S / statistics.median(near)) ** CAL_EXPONENT


def _passes(seconds, run_pass):
    """Whole passes, at least one, while another is expected to fit."""
    out, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(run_pass())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return out


def _merge_summaries(summaries):
    """Sum trace summaries given as (summary, scale) pairs; times (keys
    ending in ``_s``, and per-request layer times) are scaled.  A summary's
    ``import_s`` (cli requests) is reported as the median."""
    funcs, layers, requests, targets = {}, {}, {}, set()
    imports = [s["import_s"] * scale for s, scale in summaries
               if "import_s" in s]
    for s, scale in summaries:
        for table, into in ((s["functions"], funcs), (s["layers"], layers),
                            (s["requests"], requests)):
            for name, fields in table.items():
                acc = into.setdefault(name, {})
                for key, value in fields.items():
                    if table is s["requests"] or key.endswith("_s"):
                        value *= scale
                    acc[key] = acc.get(key, 0) + value
        targets.update(s["targets"])
    return {"functions": funcs, "layers": layers, "requests": requests,
            "targets": sorted(targets),
            "spans": sum(s["spans"] for s, _ in summaries),
            "import_s": statistics.median(imports) if imports else 0.0}


def to_reference(spawner, setups, passes):
    """Scale the run's raw CPU times, each tagged with its child id, to
    reference speed; merge the trace summaries.  Return the set-up times."""
    for p in passes:
        p["units"] = [(label, seconds * spawner.scale(child), error)
                      for label, seconds, error, child in p["units"]]
        p["work_s"] = sum(seconds for _, seconds, _ in p["units"])
        if "summaries" in p:
            p["trace"] = _merge_summaries(
                [(s, spawner.scale(child)) for s, child in p.pop("summaries")])
    return [seconds * spawner.scale(child) for seconds, child in setups]


# ---------------------------------------------------------------------------
# chains and oracle: each task in a fresh process that sets up the workload

def run_tasks(args, spawner):
    setups = []
    samples = {}    # task index -> cold samples per pass, set after pass 1
    start = time.perf_counter()

    def one_pass(trace, until=None):
        """One sample of every task, more of short ones; a pass with a
        deadline ``until`` stops at it, between two samples."""
        units, rss, summaries = [], [], []
        index, total = 0, 1
        while index < total:
            for _ in range(samples.get(index, 1)):
                if until is not None and time.perf_counter() >= until:
                    return {"units": units, "rss_mb": max(rss, default=0.0)}
                res, child, peak = spawner.worker(
                    "task", args.workload, args.seed, index, int(trace))
                total = res["of"]
                units.append(tuple(res["task"]) + (child,))
                rss.append(peak)
                setups.append((res["setup_s"], child))
                if trace:
                    summaries.append((res["trace"], child))
            index += 1
        out = {"units": units, "rss_mb": max(rss)}
        if trace:
            out["summaries"] = summaries
        return out

    if args.trace:
        # one sample of each task per pass, so the two passes compare
        return setups, [one_pass(False), one_pass(True)]
    passes = [one_pass(False)]
    for index, (_, seconds, _, _) in enumerate(passes[0]["units"]):
        samples[index] = max(1, min(MAX_SAMPLES,
                                    int(SHORT_TASK_S / max(seconds, 1e-3))))
    until = start + args.seconds
    while time.perf_counter() < until:
        passes.append(one_pass(False, until))
    return setups, passes


# ---------------------------------------------------------------------------
# cli: each request is a fresh `python -m diffseq.cli` process

def run_cli(args, spawner):
    draw = workloads.cli_draw(args.seed)
    setups = []

    def setup():
        res, child, _ = spawner.worker("setup-cli", args.seed, spawner.workdir)
        setups.append((res["setup_s"], child))

    setup()  # writes the documents that cc and adjoint requests read
    first_stdout = {}
    trace_out = os.path.join(spawner.workdir, "request-trace.json")

    def one_pass(trace):
        units, rss, summaries = [], [], []
        for req in draw:
            argv = workloads.cli_argv(req, spawner.workdir)
            head = ([WORKER, "cli-request", trace_out] if trace
                    else ["-m", "diffseq.cli"])
            if trace and os.path.exists(trace_out):
                os.remove(trace_out)
            code, cpu_s, child, peak, out, err = spawner.run(
                [sys.executable] + head + argv)
            rss.append(peak)
            error = None
            try:
                if trace:
                    with open(trace_out, encoding="utf-8") as fh:
                        summaries.append((json.load(fh), child))
                if code != 0:
                    raise AssertionError(
                        f"exit {code}: {err.decode('utf-8', 'replace')}")
                workloads.check_cli(req, out)
                seen = first_stdout.setdefault(tuple(argv), out)
                if seen != out:
                    raise AssertionError("repeated request changed its output")
            except Exception as exc:  # one failed request, keep measuring
                error = f"{type(exc).__name__}: {exc}"
            units.append((" ".join(argv), cpu_s, error, child))
        res = {"units": units, "rss_mb": max(rss)}
        if trace:
            res["summaries"] = summaries
        return res

    if args.trace:
        passes = [one_pass(False), one_pass(True)]
    else:
        for _ in range(SETUP_RUNS // 2 - 1):
            setup()
        passes = _passes(args.seconds, lambda: one_pass(False))
        for _ in range(SETUP_RUNS - SETUP_RUNS // 2):
            setup()
    return setups, passes


# ---------------------------------------------------------------------------
# reporting

def end_to_end(setups, passes):
    # a unit's latency is the median of its samples over the whole run, so
    # the percentiles' sample count does not depend on how many passes fit
    samples = {}
    for p in passes:
        for label, seconds, _ in p["units"]:
            samples.setdefault(label, []).append(seconds)
    latencies = [statistics.median(v) for v in samples.values()]
    attempted = sum(len(p["units"]) for p in passes)
    failed = sum(1 for p in passes for _, _, e in p["units"] if e)
    return {
        "work_s": sum(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
        "req_p50_s": statistics.median(latencies),
        "req_p90_s": statistics.quantiles(latencies, n=10,
                                          method="inclusive")[-1],
    }


def per_layer(spec, plain, traced, readings):
    """Resolve each per-layer metric name against the traced pass."""
    summary = traced["trace"]
    funcs, layers = summary["functions"], summary["layers"]
    extra = {
        "cli.import_s": summary.get("import_s", 0.0),
        "trace.work_s": traced["work_s"],
        "trace.overhead_s": traced["work_s"] - plain["work_s"],
        "trace.overhead_ratio": traced["work_s"] / plain["work_s"] - 1.0,
        "trace.spans": summary["spans"],
        "host.slowdown": statistics.median(readings) / CAL_REF_S,
    }
    values, absent = {}, []
    for m in spec:
        name = m["name"]
        if name in extra or name.startswith(("trace.", "host.")):
            continue
        target, field = name.rsplit(".", 1)
        if target in tracer.LAYERS:
            values[name] = layers.get(target, {}).get(field, 0.0)
            continue
        if target not in summary["targets"] and target not in absent:
            absent.append(target)
        f = funcs.get(target, {})
        if field == "kept_ratio":
            base = f.get("basis_in", f.get("in_gens", 0))
            values[name] = f.get("kept", 0) / base if base else 0.0
        else:
            values[name] = f.get(field, 0)
    extra["trace.absent_targets"] = len(absent)
    values.update(extra)
    return values, absent


def _provenance():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "diffseq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or "none"
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"commit={commit} src_sha256={digest.hexdigest()[:16]}")


def _raw_line(spawner, values):
    """A line for people: the host's speed during the run, and the work
    figure in plain CPU seconds."""
    slowdown = statistics.median(spawner.readings) / CAL_REF_S
    return (f"# host slowdown {slowdown:.3f} x reference (median over "
            f"{len(spawner.readings)} children); work_s is about "
            f"{values['work_s'] * slowdown ** CAL_EXPONENT:.3f} s of plain CPU "
            "time")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("chains", "oracle", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diffseq", "__init__.py")):
        print("bench: no diffseq sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    compileall.compile_dir(SRC, quiet=2)
    compileall.compile_dir(BENCH, quiet=2)
    sys.path.insert(0, SRC)

    env = {k: v for k, v in os.environ.items()
           if k not in ("DIFFSEQ_DEGREE_CAP", "PYTHONPATH")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cpu = pin_to_one_cpu()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        spawner = Spawner(workdir, env)
        runner = run_cli if args.workload == "cli" else run_tasks
        try:
            setups, passes = runner(args, spawner)
            setups = to_reference(spawner, setups, passes)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = [u for pss in passes for u in pss["units"]]
    failed = [u for u in units if u[2]]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"{_provenance()} cpu={cpu}")
    print(f"# passes={len(passes)} units={len(units)} failed={len(failed)} "
          f"setup_samples={len(setups)}")
    for label, _, error in failed[:5]:
        print(f"# FAILED {label}: {error.strip().splitlines()[-1]}")
        print(f"FAILED {label}:\n{error}", file=sys.stderr)

    if args.trace:
        values, absent = per_layer(spec["per_layer"], passes[0], passes[1],
                                   spawner.readings)
        metrics = spec["per_layer"]
        if absent:
            print("# absent trace targets (reported as 0): " + ", ".join(absent))
        for label, by_layer in passes[1]["trace"]["requests"].items():
            top = sorted(by_layer.items(), key=lambda kv: -kv[1])[:3]
            print(f"# self time in {label}: "
                  + ", ".join(f"{layer} {t:.3f} s" for layer, t in top))
    else:
        values = end_to_end(setups, passes)
        metrics = spec["end_to_end"]
        print(_raw_line(spawner, values))
    for m in metrics:
        print(f"#   {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
