"""Benchmark of rlw: end-to-end metrics per workload, and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--bound B]

NAME is a workload of BENCHMARK.json, or `all` for each of them in turn.  Run
it from the root of a checkout; the program is imported from src/.  Every
repetition runs in a fresh worker process (perfbench/worker.py), one after
another, until S seconds have passed; each metric is the median over the
repetitions.  The seed and the search bound are passed to the workers as
arguments, and RLW_* variables of the caller's environment are not passed on.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, the tracing overhead and
the cost of starting the CLI; it also checks that tracing changes no answer
and no work count.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; attempted and failed count
the queries of one repetition, so they depend on the seed and not on how many
repetitions fit in the run.  `correct` is false when a
query fails other than by a known defect that the workload names, or when
repetitions disagree on an answer or a work count.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from worker import KERNEL_REF_S, SPAWN_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEARCH_BOUND = 6
# Times are reported in reference seconds (see worker.py); measured seconds
# are printed too.
WORKER_TIMEOUT_S = 170
SPAWN_SAMPLES = 5
# bare interpreter starts timed before each worker, to scale the part of its
# set-up time that is the interpreter's own start
SETUP_SPAWN_SAMPLES = 3
MIN_REPETITIONS = 3


class BenchError(Exception):
    pass


def worker_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("RLW_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def git_commit():
    """HEAD of the checkout's git repository, or None when it is not one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    """sha256 over src/rlw/*.py, naming the program when git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "rlw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(args):
    return {"python": platform.python_version(), "platform": platform.platform(),
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "src_sha256": source_digest(),
            "bound": args.bound, "seed": args.seed, "seconds": args.seconds}


def run_worker(workload, seed, bound, trace):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--bound", str(bound), "--trace", str(trace)]
    spawn_s = spawn_seconds("pass", SETUP_SPAWN_SAMPLES)
    spawned = time.perf_counter()
    # a session of its own, so that a worker that runs over is stopped with
    # the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker ran over {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err[-3000:]}")
    record = json.loads(out.splitlines()[-1])
    record["spawned"], record["spawn_s"] = spawned, spawn_s
    return record


def repetitions(workload, args, with_traced):
    """Fresh workers while another one is expected to end within the run's
    seconds; with_traced alternates untraced and traced ones.  At least
    MIN_REPETITIONS untraced ones run, or one of each kind when traced, so
    that a median is never taken over one or two slow repetitions."""
    records = []
    start = time.perf_counter()
    while True:
        trace = int(with_traced and len(records) % 2 == 1)
        records.append(run_worker(workload, args.seed, args.bound, trace))
        elapsed = time.perf_counter() - start
        enough = len(records) >= (2 if with_traced else MIN_REPETITIONS)
        if enough and elapsed * (len(records) + 1) / len(records) > args.seconds:
            return records


# -- end-to-end metrics -------------------------------------------------------

def tail_index(n):
    """Index of the highest percentile with ten queries beyond it; the
    slowest query when a repetition has fewer than 11."""
    return n - 11 if n >= 11 else n - 1


def scaled(record):
    """Set-up time and query latencies of a repetition in reference seconds.
    Set-up is the worker's interpreter start, scaled by the bare interpreter
    starts timed before it, and then its Python work up to ready, scaled by
    the speed kernel."""
    start = (record["started"] - record["spawned"]) * SPAWN_REF_S / record["spawn_s"]
    work = (record["ready"] - record["started"]) * KERNEL_REF_S / record["setup_speed_s"]
    ref = record["speed_ref_s"]
    latencies = [t * ref / s for t, s in zip(record["latencies"], record["speed_s"])]
    return start + work, latencies


def end_to_end(record):
    setup, latencies = scaled(record)
    lat = sorted(latencies)
    n = len(lat)
    return {"setup_s": setup, "wall_s": sum(lat),
            "query_p50_s": statistics.median(lat), "query_tail_s": lat[tail_index(n)],
            "ok_share": (n - len(record["failures"])) / n,
            "peak_rss_mb": record["rss_kb"] / 1024}


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# -- per-layer metrics --------------------------------------------------------

def layer_values(record):
    """Per-layer metrics of one traced repetition: calls, self time in
    reference seconds (scaled by the repetition's median speed sample) and
    work counts, with the two ratios."""
    stats = record["layers"]
    calls, counts = stats["calls"], stats["counts"]
    factor = record["speed_ref_s"] / statistics.median(record["speed_s"])
    self_s = {name: t * factor for name, t in stats["self_s"].items()}
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(counts)
    members = counts["completion.enumerate_chains.members"]
    out["completion.enumerate_chains.s_per_member"] = (
        self_s["completion.enumerate_chains"] / members if members else 0.0)
    homs = calls["morphisms.homs"]
    out["morphisms.homs.hit_ratio"] = counts["morphisms.homs.hits"] / homs if homs else 0.0
    return out


def work_counts(record):
    layers = record["layers"]
    return {"calls": layers["calls"], "counts": layers["counts"]}


def spawn_seconds(code, samples=SPAWN_SAMPLES):
    """Median wall time of `python -c code` over `samples` runs."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=worker_env(),
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def consistency_problems(records):
    """Repetitions must agree on every answer, and traced ones on every work
    count, and on the structure cache counts with untraced ones."""
    problems = []
    first = records[0]
    for i, r in enumerate(records[1:], 1):
        kind = "traced" if "layers" in r else "untraced"
        diff = [q for q, d in first["answers"].items() if r["answers"].get(q) != d]
        if diff:
            problems.append(f"repetition {i} ({kind}) answered differently: "
                            + ", ".join(diff[:5]))
        if [f["query"] for f in r["failures"]] != [f["query"] for f in first["failures"]]:
            problems.append(f"repetition {i} ({kind}) failed on other queries")
        if r["caches"] != first["caches"]:
            problems.append(f"repetition {i} ({kind}) has other structure cache counts")
    traced = [r for r in records if "layers" in r]
    for i, r in enumerate(traced[1:], 1):
        if work_counts(r) != work_counts(traced[0]):
            problems.append(f"traced repetition {i} has other layer work counts")
    return problems


# -- one workload -------------------------------------------------------------

def run_workload(workload, spec, args):
    """Run one workload; print its report and return its result object."""
    records = repetitions(workload, args, with_traced=bool(args.trace))
    untraced = [r for r in records if "layers" not in r]
    traced = [r for r in records if "layers" in r]
    problems = consistency_problems(records)
    failures = records[0]["failures"]
    unknown = [f for f in failures if not f["known_defect"]]
    # every repetition runs the same queries, and consistency_problems checks
    # that they answer alike; so attempted and failed count the distinct
    # queries of one repetition, which the seed fixes and the speed does not
    attempted = len(records[0]["queries"])
    failed = len(failures)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload]

    print(f"== {workload}: {len(untraced)} untraced and {len(traced)} traced "
          f"repetitions, {len(records[0]['queries'])} queries each")
    print(f"why: {why}")
    print("env: " + json.dumps(environment(args), sort_keys=True))
    per_rep = [end_to_end(r) for r in untraced]
    e2e = {}
    for m in spec["end_to_end"]:
        values = [x[m["name"]] for x in per_rep]
        e2e[m["name"]] = statistics.median(values)
        q1, q3 = spread(values)
        print(f"  {m['name']:<14} {e2e[m['name']]:.6g} {m['unit']}  "
              f"(median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g})")
    measured = [sum(r["latencies"]) for r in untraced]
    speed = statistics.median(x for r in untraced for x in r["speed_s"])
    ref = untraced[0]["speed_ref_s"]
    print(f"  measured wall_s {statistics.median(measured):.6g} s; speed sample "
          f"median {speed * 1000:.3f} ms against {ref * 1000:.3f} ms reference")
    n = len(records[0]["queries"])
    k = tail_index(n)
    print(f"  query_tail_s is query {k + 1} of {n} by latency "
          f"(percentile {100 * (k + 1) / n:.1f})")
    print(f"  fail_share {failed / attempted:.4f} ({failed} of {attempted} queries "
          f"in each repetition)")
    for f in failures:
        tag = f"  [known defect, {f['known_defect']}]" if f["known_defect"] else ""
        print(f"  FAIL {f['query']}: {f['message']}{tag}")
    for p in problems:
        print(f"  INCONSISTENT {p}")

    metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    if args.trace:
        metrics = trace_report(workload, spec, untraced, traced)
    return {"correct": not unknown and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def trace_report(workload, spec, untraced, traced):
    from tracer import SHOULD_MOVE
    per_rep = [layer_values(r) for r in traced]
    values = {k: statistics.median(x[k] for x in per_rep) for k in per_rep[0]}
    interpreter = spawn_seconds("pass")
    values["cli.interpreter_s"] = interpreter
    values["cli.import_s"] = spawn_seconds("import rlw.cli") - interpreter
    if workload == "cli-calls":
        p50 = statistics.median(statistics.median(r["latencies"]) for r in untraced)
        values["cli.command_s"] = p50 - values["cli.import_s"] - interpreter
    wall_traced = statistics.median(end_to_end(r)["wall_s"] for r in traced)
    wall_plain = statistics.median(end_to_end(r)["wall_s"] for r in untraced)
    values["trace.overhead_s"] = wall_traced - wall_plain
    print(f"  tracing overhead {values['trace.overhead_s']:.4f} reference s on wall_s "
          f"({wall_traced:.4f} traced, {wall_plain:.4f} untraced); "
          f"{traced[-1]['layers']['spans']} spans recorded, the worker's own "
          f"written to .perfbench/")
    print(f"  {'layer metric':<46} {'value':>12}  should move")
    for name in sorted(values):
        fn = name.rsplit(".", 1)[0]
        print(f"  {name:<46} {values[name]:>12.6g}  {SHOULD_MOVE.get(fn, '')}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--bound", type=int, default=SEARCH_BOUND)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rlw", "__init__.py")):
        print(f"error: no rlw sources at {os.path.join(ROOT, 'src', 'rlw')}; "
              "run from the root of an rlw checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        p.error(f"--workload must be one of {names} or all")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, spec, args)
        else:
            results = {w: run_workload(w, spec, args) for w in names}
            result = {"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}.{k}": v for w, r in results.items()
                                  for k, v in r["metrics"].items()}}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
