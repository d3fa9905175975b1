"""cnotpac benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload {pipeline,sweep,learn} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from its
``src`` directory.  One client runs the workload's operations in order,
each after the previous one has ended, and repeats the whole list (a
pass) until ``--seconds`` have gone by.  Every operation's output is
checked in every pass.

``--trace 0`` prints the end-to-end metrics.  The host this was tuned on
(2 vCPUs shared with other tenants) runs the same code up to 1.7 times
slower for stretches of seconds to minutes, and CPU time slows with wall
time.  So before and after each operation the benchmark times a fixed
pure-Python reference routine that never calls the program, scales the
operation's latency by REFERENCE_S over that reference time, and takes
each operation's median over the passes.  Set-up is scaled the same way.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see tracing.py) plus
``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the seed, the machine and the source size.
"""

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
# Seconds the reference routine takes on the machine the benchmark was
# tuned on (Intel Xeon vCPU, Python 3.11) when nothing slows it down.
REFERENCE_S = 0.0005


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def _reference_work():
    """Fixed interpreter work that never touches the program: packed-int
    elimination plus small objects, the same kind of work cnotpac does."""
    acc = 0
    for seed in range(40):
        rows = [((seed * 40503 + i * 2654435761) >> 7) & 0xFFF for i in range(12)]
        table = {}
        for v in rows:
            while v:
                p = v.bit_length() - 1
                if p not in table:
                    table[p] = v
                    break
                v ^= table[p]
        cells = [_Cell(r, r & 7, (r ^ seed).bit_count()) for r in rows]
        acc += len(table) + sum(c.c for c in cells)
    return acc


def reference_s():
    """Best of three timings of the reference routine: how fast the host is now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def fresh_import():
    """A new interpreter imports the CLI and everything under it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c", "import cnotpac.cli"],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )


def timed_setup(make, seed, workdir):
    """One set-up, a fresh import plus input generation.

    Returns (ops, seconds scaled to reference speed, input digest)."""
    before = reference_s()
    t0 = time.perf_counter()
    fresh_import()
    ops = make(seed, workdir)
    seconds = time.perf_counter() - t0
    scale = 2 * REFERENCE_S / (before + reference_s())
    return ops, seconds * scale, hashlib.sha256(pickle.dumps(ops)).hexdigest()


class Stopwatch:
    """Times the calls into the program, and traces them in a traced pass.

    A workload's run function puts each call into the program inside
    ``with watch():``, so the benchmark's own work between the calls is
    neither timed nor traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    @contextlib.contextmanager
    def __call__(self):
        with tracing.traced(self.tracer) if self.tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.seconds += time.perf_counter() - t0


def run_pass(ops, run, check, workdir, tracer=None):
    """One pass over the operations.

    Returns (latency per op scaled to reference speed, None for a failed
    op; failure messages; the host's slowdown, the median reference time
    over REFERENCE_S).  An op's scale uses the reference timed just
    before and just after it."""
    raw, refs, failures = [], [reference_s()], []
    for i, op in enumerate(ops):
        watch = Stopwatch(tracer)
        try:
            error = check(op, run(op, workdir, watch))
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc(limit=3)
        raw.append(watch.seconds if error is None else None)
        if error is not None:
            failures.append("op %d: %s" % (i, error))
        refs.append(reference_s())
    latencies = [
        None if s is None else s * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
        for i, s in enumerate(raw)
    ]
    return latencies, failures, statistics.median(refs) / REFERENCE_S


def end_to_end(passes, setup_times):
    """Each op's latency is its median over the passes."""
    typical = []
    for per_op in zip(*passes):
        done = [s for s in per_op if s is not None]
        if done:
            typical.append(statistics.median(done))
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    if len(typical) >= 2:
        metrics["ops_per_s"] = (len(typical) / sum(typical), "1/s")
        metrics["op_p50_ms"] = (1000.0 * statistics.median(typical), "ms")
        metrics["op_p90_ms"] = (1000.0 * statistics.quantiles(typical, n=10)[8], "ms")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics


def per_layer(traced_runs, untraced_walls):
    """Median of each timed layer metric over the traced passes; counts must repeat."""
    counts = [tracing.counts_of(t) for t, _ in traced_runs]
    problems = [] if all(c == counts[0] for c in counts) else ["layer counts differ between passes"]
    metrics = {name: (value, "ratio" if name.endswith("ratio") else "count")
               for name, value in counts[0].items()}
    times = [tracing.times_of(t) for t, _ in traced_runs]
    for name in times[0]:
        unit = "1/s" if name.endswith("_per_s") else "ms"
        metrics[name] = (statistics.median(t[name] for t in times), unit)
    wall = statistics.median(w for _, w in traced_runs) / statistics.median(untraced_walls)
    metrics["trace.overhead_ratio"] = (wall, "ratio")
    return metrics, problems


def net_source_lines():
    total = 0
    pkg = os.path.join(SRC, "cnotpac")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for line in fh if line.strip() and not line.strip().startswith("#"))
    return total


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Run:
    """What one run measured; filled in by measure()."""

    def __init__(self):
        self.setup_times = []
        self.digests = set()
        self.passes = []  # latencies of the untraced passes
        self.slowdowns = []  # host slowdown during each untraced pass
        self.traced = []  # (tracer, summed latency) of the traced passes
        self.attempted = 0
        self.failures = []  # failed operations
        self.problems = []  # failures of the run as a whole


def measure(make, run, check, seed, seconds, trace, workdir):
    r = Run()

    def set_up():
        ops, took, digest = timed_setup(make, seed, workdir)
        r.setup_times.append(took)
        r.digests.add(digest)
        return ops

    ops = set_up()
    start = time.perf_counter()
    while True:
        latencies, failed, slowdown = run_pass(ops, run, check, workdir)
        r.passes.append(latencies)
        r.slowdowns.append(slowdown)
        r.attempted += len(ops)
        r.failures += failed
        if trace:
            tracer = tracing.Tracer()
            latencies, failed, _ = run_pass(ops, run, check, workdir, tracer)
            r.traced.append((tracer, sum(s for s in latencies if s is not None)))
            r.attempted += len(ops)
            r.failures += failed
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        # spread the set-up repeats over the run, as the passes are
        if elapsed >= len(r.setup_times) * seconds / SETUP_REPS:
            set_up()
    while len(r.setup_times) < SETUP_REPS:
        set_up()
    if len(r.digests) != 1:
        r.problems.append("the same seed gave different inputs")
    return ops, r


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "sweep", "learn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cnotpac", "__init__.py")):
        print("error: no cnotpac sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cnotpac
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(cnotpac.__file__)) != os.path.join(SRC, "cnotpac"):
        print("error: cnotpac was imported from %s" % cnotpac.__file__, file=sys.stderr)
        return 2

    make, run, check = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        ops, r = measure(make, run, check, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
        except OSError:
            pass
    if args.trace:
        untraced = [sum(s for s in p if s is not None) for p in r.passes]
        metrics, differ = per_layer(r.traced, untraced)
        r.problems += differ
    else:
        metrics = end_to_end(r.passes, r.setup_times)

    for message in r.problems + r.failures[:10]:
        print("FAILED %s" % message.rstrip())
    print("workload %s seed %d: %d operations, %d passes, %d attempted, %d failed"
          % (args.workload, args.seed, len(ops), len(r.passes), r.attempted, len(r.failures)))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-44s %14.4f %s" % (name, value, unit))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "operations": len(ops),
        "passes": len(r.passes),
        "host_slowdown": statistics.median(r.slowdowns),
        "failed_op_ratio": len(r.failures) / r.attempted,
        "inputs_sha256": sorted(r.digests)[0],
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "src.net_lines": net_source_lines(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not r.failures and not r.problems,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
