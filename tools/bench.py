"""Paired benchmark of this checkout against a base revision: writes BENCH_<n>.json.

    python3 tools/bench.py --base REV --out BENCH_16.json [--pairs 3]
        [--workload-pairs ap-ladder=10]

Run it from anywhere; it uses only the standard library and git, and reads
the checkout that holds it.
The base tree is `git archive REV`, extracted into a fresh temporary
directory.  The change is a copy of this checkout's working tree, committed or
not: the files git tracks or would track, without what .gitignore excludes.
So neither tree starts with compiled bytecode (`__pycache__`), whatever
PYTHONDONTWRITEBYTECODE says.  Both are removed at the end.

Workloads.  For every workload in BENCHMARK.json, each pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once on each
tree, with identical arguments, one after the other (T is BENCHMARK.json's
run_seconds); even pairs run the base first and odd pairs the change first.
Pair i uses seed i + 1.  A workload runs --pairs pairs unless
--workload-pairs names another count for it.  For every run the file keeps the
printed env line, the printed median and quartiles of each metric, and the
final JSON line.  Per metric it then gives, for each tree, the median and
quartiles over that tree's runs (statistics.quantiles, n=4), and how many
pairs the change won, in the direction BENCHMARK.json names.

Source size.  For each tree the file records `src_lines`, the newlines in
src/rlw/*.py (what `cat src/rlw/*.py | wc -l` prints), the figure ROADMAP and
CHANGES.md track.

Start-up.  For each tree, the seconds of fresh processes that run
`python -c pass`, `python -c "import rlw.cli"` and
`python -m rlw.cli con catalog:goedel:3 --json`, with that tree's src on
PYTHONPATH and bytecode writing off, as in the benchmark; 25 rounds, each
running every command on both trees, alternating which tree runs first.  It
records each command's seconds and their median and quartiles per tree: the
interpreter, import and command layers under the cli-calls figure.

Cold decide_ap.  For each m from 10 to 16, with and without cross_check, each
tree times `decide_ap(variety(make_goedel(m)))` in a fresh interpreter and
reports the seconds of the call and the process's peak RSS (ru_maxrss); the
trees alternate which runs first.  The rungs below G_13 run nine times, since
single runs of under a second spread by up to 50% on a 2-vCPU machine, and
the others three times.  Verdicts must agree.

Repro at bound 8.  `rlw repro fig5 --json` and `rlw repro fig3 --json` run
with RLW_BOUND=8 in fresh processes on both trees, in 3 rounds that alternate
which tree runs first.  It records each run's seconds and its peak RSS
(ru_maxrss of that process, read by os.wait4), with their medians per tree.
Exit codes and manifests (without wall_time_s) must agree between the trees.
"""
from __future__ import annotations

import argparse
import glob
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(\S+) \S+\s+\(median of (\d+), quartiles (\S+) \.\. (\S+)\)$")
LADDER = range(10, 17)
REPEATS = {m: 9 if m < 13 else 3 for m in LADDER}
STARTUP = {"interpreter": ["-c", "pass"],
           "import rlw.cli": ["-c", "import rlw.cli"],
           "con catalog:goedel:3": ["-m", "rlw.cli", "con", "catalog:goedel:3", "--json"]}
STARTUP_ROUNDS = 25
REPRO_TARGETS = ("fig5", "fig3")
REPRO_ROUNDS = 3
COLD = """
import json, resource, sys, time
from rlw import decide_ap, variety
from rlw.catalog import make_goedel
m, cross_check = int(sys.argv[1]), sys.argv[2] == "1"
V = variety(make_goedel(m))
start = time.perf_counter()
verdict = decide_ap(V, cross_check=cross_check).verdict
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "peak_rss_mb": rss, "verdict": verdict}))
"""


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True,
                          cwd=ROOT).stdout.strip()


def extract(rev, workdir):
    """The tree of rev, from `git archive`, in a new directory under workdir."""
    tree = tempfile.mkdtemp(prefix="base-", dir=workdir)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], capture_output=True,
                             check=True, cwd=ROOT).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)
    return tree


def snapshot(workdir):
    """A copy of the working tree's files that git tracks or would track, in a
    new directory under workdir."""
    tree = tempfile.mkdtemp(prefix="change-", dir=workdir)
    for path in git("ls-files", "--cached", "--others", "--exclude-standard").splitlines():
        if os.path.isfile(os.path.join(ROOT, path)):
            os.makedirs(os.path.join(tree, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, path), os.path.join(tree, path))
    return tree


def src_lines(tree):
    """The newlines in tree's src/rlw/*.py, as `cat src/rlw/*.py | wc -l` counts them."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "rlw", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run_workload(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(ln[5:]) for ln in lines if ln.startswith("env: "))
    printed = {}
    for ln in lines:
        hit = METRIC_LINE.match(ln)
        if hit:
            name, median, count, q1, q3 = hit.groups()
            printed[name] = {"median": float(median), "q1": float(q1), "q3": float(q3),
                             "repetitions": int(count)}
    return {"env": env, "printed": printed, "result": json.loads(lines[-1])}


def bench_workload(trees, workload, pairs, seconds, better):
    runs = []
    for i in range(pairs):
        seed = i + 1
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            run = run_workload(trees[side], workload, seed, seconds)
            runs.append({"pair": i, "tree": side, "first": order[0], "seed": seed, **run})
            print(f"{workload} pair {i} seed {seed} {side}: "
                  f"wall_s {run['result']['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    summary = {}
    for name, direction in better.items():
        value = {side: [r["result"]["metrics"][name]["value"] for r in runs if r["tree"] == side]
                 for side in trees}
        won = sum((c < b) if direction == "lower" else (c > b)
                  for b, c in zip(value["base"], value["change"]))
        stats = {side: quartiles(v) for side, v in value.items()}
        summary[name] = {**stats, "better": direction, "change_won_pairs": won, "pairs": pairs,
                         "base_iqr": stats["base"]["q3"] - stats["base"]["q1"],
                         "median_change": stats["change"]["median"] - stats["base"]["median"]}
    incorrect = [(r["pair"], r["tree"]) for r in runs if not r["result"]["correct"]]
    return {"seconds": seconds, "runs": runs, "summary": summary, "incorrect_runs": incorrect}


def startup(trees):
    seconds = {(side, label): [] for side in trees for label in STARTUP}
    for k in range(STARTUP_ROUNDS):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for label, args in STARTUP.items():
            for side in order:
                env = dict(os.environ, PYTHONPATH=os.path.join(trees[side], "src"),
                           PYTHONDONTWRITEBYTECODE="1")
                start = time.perf_counter()
                subprocess.run([sys.executable, *args], env=env, cwd=trees[side], check=True,
                               stdout=subprocess.DEVNULL)
                seconds[side, label].append(time.perf_counter() - start)
    return [{"tree": side, "command": label, "seconds": got, **quartiles(got)}
            for (side, label), got in seconds.items()]


def cold_ladder(trees):
    rows = {(side, m, cc): [] for side in trees for m in LADDER for cc in (False, True)}
    for k in range(max(REPEATS.values())):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for m in LADDER:
            if k >= REPEATS[m]:
                continue
            for cc in (False, True):
                for side in order:
                    env = dict(os.environ, PYTHONPATH=os.path.join(trees[side], "src"))
                    proc = subprocess.run([sys.executable, "-c", COLD, str(m), str(int(cc))],
                                          capture_output=True, text=True, env=env, check=True)
                    rows[side, m, cc].append(json.loads(proc.stdout))
                    print(f"G_{m} cross_check={cc} {side}: {rows[side, m, cc][-1]}",
                          file=sys.stderr)
    out = []
    for (side, m, cc), got in rows.items():
        verdicts = {g["verdict"] for g in got} | {g["verdict"] for g in rows["base", m, cc]}
        if len(verdicts) != 1:
            raise SystemExit(f"G_{m}: verdicts differ: {sorted(verdicts)}")
        out.append({"tree": side, "m": m, "cross_check": cc, "verdict": got[0]["verdict"],
                    "seconds": [g["seconds"] for g in got],
                    "seconds_median": statistics.median(g["seconds"] for g in got),
                    "peak_rss_mb": [g["peak_rss_mb"] for g in got],
                    "peak_rss_mb_median": statistics.median(g["peak_rss_mb"] for g in got)})
    return out


def repro_bound8(trees):
    rows = {(side, target): [] for side in trees for target in REPRO_TARGETS}
    for k in range(REPRO_ROUNDS):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for target in REPRO_TARGETS:
            for side in order:
                env = dict(os.environ, PYTHONPATH=os.path.join(trees[side], "src"),
                           RLW_BOUND="8")
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable, "-m", "rlw.cli", "repro", target, "--json"],
                                        env=env, cwd=trees[side], stdout=subprocess.PIPE)
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4
                manifest = json.loads(out)
                manifest.pop("wall_time_s")
                rows[side, target].append({"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024,
                                           "exit": proc.returncode, "manifest": manifest})
                print(f"repro {target} RLW_BOUND=8 {side}: {seconds:.2f} s", file=sys.stderr)
    out = []
    for (side, target), got in rows.items():
        outcomes = {json.dumps([g["exit"], g["manifest"]], sort_keys=True)
                    for g in got + rows["base", target]}
        if len(outcomes) != 1:
            raise SystemExit(f"repro {target}: the trees' exit codes or manifests differ")
        out.append({"tree": side, "target": target, "exit": got[0]["exit"],
                    "verdict": got[0]["manifest"]["verdict"],
                    "seconds": [g["seconds"] for g in got],
                    "seconds_median": statistics.median(g["seconds"] for g in got),
                    "peak_rss_mb": [g["peak_rss_mb"] for g in got],
                    "peak_rss_mb_median": statistics.median(g["peak_rss_mb"] for g in got)})
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="the base revision")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--pairs", type=int, default=3, help="pairs per workload")
    p.add_argument("--workload-pairs", default="",
                   help="per-workload pair counts, as name=count,...")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    counts = dict((k, int(v)) for k, v in (kv.split("=") for kv in args.workload_pairs.split(",")
                                           if kv))
    workdir = tempfile.mkdtemp(prefix="rlw-bench-")
    try:
        trees = {"base": extract(args.base, workdir), "change": snapshot(workdir)}
        doc = {"format": "rlw-bench/1",
               "base": {"rev": args.base, "commit": git("rev-parse", args.base),
                        "src_lines": src_lines(trees["base"])},
               "change": {"head": git("rev-parse", "HEAD"),
                          "src_lines": src_lines(trees["change"]),
                          "uncommitted_changes": bool(git("status", "--porcelain", "--", "src",
                                                          "perfbench"))},
               "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
               "workloads": {}}
        for w in (w["name"] for w in spec["workloads"]):
            doc["workloads"][w] = bench_workload(trees, w, counts.get(w, args.pairs),
                                                 spec["run_seconds"], better)
        doc["startup"] = startup(trees)
        doc["cold_decide_ap"] = cold_ladder(trees)
        doc["repro_bound8"] = repro_bound8(trees)
    finally:
        shutil.rmtree(workdir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

if __name__ == "__main__":
    main()
