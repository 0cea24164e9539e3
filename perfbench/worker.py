"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --bound B --trace 0|1

Every repetition starts cold: the structure and terms caches are empty, as
they are for every CLI call.  The worker imports rlw, builds its inputs, runs
the queries in order, and only then summarizes and checks the answers.  It
prints one JSON line: when its interpreter had started and when its inputs
were ready (on the perf_counter clock, CLOCK_MONOTONIC on Linux, which the
spawning process shares), each query's latency, the machine speed measured
after set-up and near each query (see SpeedMeter), a digest of each answer,
the failed queries, its peak resident set and, when traced, the layer stats.
"""
from __future__ import annotations

import time

# taken before anything else is imported: the interpreter's own start ends here
STARTED = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SPEED_PERIOD_S = 0.05
SPEED_WINDOW_S = 0.25
# Times are reported in reference seconds: a measured time is scaled by the
# reference over the speed samples taken near it, so that it reads as on a
# machine where speed_kernel takes KERNEL_REF_S and a bare interpreter starts
# and stops (spawn_kernel) in SPAWN_REF_S.  Those are the fast state of a
# 2-vCPU VM running Python 3.11.7.  Python work is scaled by speed_kernel.
# CLI calls are scaled by spawn_kernel: most of a call is starting an
# interpreter, which a loaded host slows far more than it slows speed_kernel.
KERNEL_REF_S = 0.0009
SPAWN_REF_S = 0.06


def digest(summary):
    text = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def speed_kernel():
    """About a millisecond of fixed pure-Python work that does not touch rlw:
    nested-tuple table lookups, like the program's inner loops."""
    n = 12
    t = tuple(tuple((i * j + i + j) % n for j in range(n)) for i in range(n))
    hits = 0
    for _ in range(6):
        for x in range(n):
            row = t[x]
            for y in range(n):
                v = row[y]
                for z in range(n):
                    hits += t[v][z] == t[x][t[y][z]]
    return hits


def spawn_kernel():
    """Start and stop a bare interpreter, as every CLI call does."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


def kernel_seconds(kernel):
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples how fast the machine runs Python during the timed phase.

    A shared virtual machine can alternate between a fast state and one about
    1.5x slower for seconds at a time (seen on a 2-vCPU VM with Python
    3.11.7), which moves every measured time alike.  A SIGALRM handler times
    the kernel every SPEED_PERIOD_S; the handler's own time is taken out of
    the query it interrupted, and a time is scaled by the samples taken near
    it.  Without `periodic`, samples are taken only when sample() is called.
    """

    def __init__(self, tracer=None, periodic=True, kernel=speed_kernel):
        self.samples = []   # (start, seconds)
        self.tracer = tracer
        self.periodic = periodic
        self.kernel = kernel

    def sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        seconds = time.perf_counter() - t0
        self.samples.append((t0, seconds))
        if self.tracer is not None:
            self.tracer.exclude(seconds)

    def __enter__(self):
        if self.periodic:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def within(self, t0, t1):
        """Seconds the handler spent inside [t0, t1]."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def near(self, t0, t1):
        """Mean sample time within SPEED_WINDOW_S of [t0, t1]."""
        near = [d for s, d in self.samples
                if t0 - SPEED_WINDOW_S <= s <= t1 + SPEED_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sd: abs(sd[0] - t0))[1]]
        return statistics.mean(near)


def run_queries(queries, tracer, in_children):
    """The timed phase: (answer, error, seconds) per query, with the speed
    samples near each query.  Queries that run in child processes on the same
    CPU are sampled between queries only, since a sample taken while a child
    runs would time the CPU being shared, and by spawn_kernel."""
    results, spans = [], []
    kernel = spawn_kernel if in_children else speed_kernel
    with SpeedMeter(tracer, periodic=not in_children, kernel=kernel) as meter:
        for i, q in enumerate(queries):
            if in_children and i:
                meter.sample()
            t0 = time.perf_counter()
            try:
                answer, error = q.run(), None
            except Exception as exc:  # a raising query is a failed query
                answer, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            results.append((answer, error, t1 - t0 - meter.within(t0, t1)))
            spans.append((t0, t1))
    return results, [meter.near(*span) for span in spans]


def check_answers(queries, results, pins):
    """Summaries' digests and the failed queries, checked after timing."""
    summaries, answers, failures = {}, {}, []
    for q, (answer, error, _) in zip(queries, results):
        msg = error
        if error is None:
            try:
                summary = q.summarize(answer)
                msg = q.check(summary, summaries)
            except Exception as exc:  # an answer that cannot be read is wrong
                summary, msg = None, f"answer unreadable: {type(exc).__name__}: {exc}"
            if msg is None and q.qid in pins and digest(summary) != pins[q.qid]:
                msg = "answer differs from the pinned seed answer"
        else:
            summary = {"error": error}
        summaries[q.qid] = summary
        answers[q.qid] = digest(summary)
        if msg is not None:
            failures.append({"query": q.qid, "message": msg,
                             "known_defect": q.known_defect})
    return answers, failures


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # the worker and the CLI processes it starts share one CPU, so that the
    # speed samples describe the CPU the measured code runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import rlw  # noqa: F401  (set-up includes importing the program)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ctx = workloads.Context(args.seed, args.bound, ROOT, workdir, bool(args.trace))
        queries = workloads.SETUP[args.workload](ctx)
        ready = time.perf_counter()
        # set-up past the interpreter's start is Python work, in any workload
        setup_speed = statistics.median(kernel_seconds(speed_kernel) for _ in range(5))
        in_children = args.workload in workloads.IN_CHILD_PROCESSES
        results, speed = run_queries(queries, tracer, in_children)
    finally:
        shutil.rmtree(workdir)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh).get(args.workload, {})
    answers, failures = check_answers(queries, results, pins)
    from rlw import structure
    caches = {name: getattr(structure, name).cache_info()._asdict()
              for name in ("congruences", "subuniverses")}
    record = {"started": STARTED, "ready": ready, "setup_speed_s": setup_speed,
              "speed_s": speed, "speed_ref_s": SPAWN_REF_S if in_children else KERNEL_REF_S,
              "rss_kb": rss_kb,
              "queries": [q.qid for q in queries],
              "latencies": [r[2] for r in results],
              "pin": [q.qid for q in queries if q.pin],
              "answers": answers, "failures": failures, "caches": caches}
    if tracer is not None:
        from tracer import merge_stats
        layers = tracer.stats()
        for part in ctx.child_stats:
            merge_stats(layers, part)
        record["layers"] = layers
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
