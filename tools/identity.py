"""Output identity of this checkout against a base revision: one md5 per record family.

    python3 tools/identity.py --base REV

Run it from anywhere; it uses only the standard library and git, and reads
the checkout that holds it.  The two trees are made as `tools/bench.py` makes
them: `git archive REV` for the base, and a copy of the working tree (the
files git tracks or would track) for the change.  Each family of each tree is
dumped by a fresh interpreter that imports that tree's `src` and `perfbench`,
so no cache of one family reaches another.  A dump writes one canonical JSON
record per line, in a fixed order.  The families:

  cli       the 35 CLI_CALLS of perfbench/workloads.py, each in its own process
            with --json: exit code, manifest without wall_time_s, stderr;
  cli-text  the same calls without --json: exit code, stdout with repro's
            "(0.1s)" masked, stderr;
  repro     `rlw repro T --json` for every target at RLW_BOUND=7, likewise;
  figures   figure_completions of every figure: nodes and the completed
            tables with their names and labels;
  chains    enumerate_chains(n) for n <= 6, signatures () and (f,), filters
            {}, {idempotent} and {commutative};
  profiles  property_profile of every catalog_all(9) algebra, in its own
            coding and as a matrix order with its elements in reverse;
  ap        decide_ap(cross_check=True) on the 36 ap-ladder rungs;
  structure on every catalog_all(9) algebra in both codings of `profiles`:
            has_cep with its witness, convex_normal_subalgebras, each
            subalgebra (name, labels, key, inclusion) with is_essential of its
            inclusion, the natural_projection of each congruence (name,
            labels, key, map), and check_identity of x*y=y*x and x*x=x.

For each family it prints the md5 of each tree's records and, where they
differ, the first record that differs.  Exit status 0 when every family is
identical, 1 otherwise.  Both trees are removed at the end.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

from bench import extract, snapshot

FAMILIES = ("cli", "cli-text", "repro", "figures", "chains", "profiles", "ap", "structure")
DUMP = r"""
import dataclasses, json, os, re, subprocess, sys, tempfile
sys.path.insert(0, "perfbench")
import workloads
from rlw import algebra, amalgam, catalog, completion, morphisms, properties, repro, structure, terms

def emit(record):
    print(json.dumps(record, sort_keys=True))

def codings(A):   # A as coded, and as a matrix order with its elements in reverse
    R = algebra.load_algebra(workloads.relabelled_text(A, list(reversed(range(A.size)))))
    return (("own", A), ("reversed matrix", R))

def run_cli(argv, env):
    with tempfile.TemporaryDirectory() as workdir:
        workloads.write_cli_files(workdir)
        return subprocess.run([sys.executable, "-m", "rlw.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True)

def cli(argv, env):
    proc = run_cli([*argv, "--json"], env)
    manifest = json.loads(proc.stdout) if proc.returncode in (0, 1) else proc.stdout
    if isinstance(manifest, dict):
        manifest.pop("wall_time_s")
    return {"argv": argv, "exit": proc.returncode, "manifest": manifest, "stderr": proc.stderr}

family = sys.argv[1]
env = {k: v for k, v in os.environ.items() if not k.startswith("RLW_")}
env["PYTHONPATH"] = os.path.abspath("src")
if family == "cli":
    for label, argv, *_ in workloads.CLI_CALLS:
        emit([label, cli(argv, env)])
elif family == "cli-text":
    for label, argv, *_ in workloads.CLI_CALLS:
        proc = run_cli(argv, env)
        emit([label, argv, proc.returncode, re.sub(r"\(\d+\.\d+s\)", "(s)", proc.stdout),
              proc.stderr])
elif family == "repro":
    for target in repro.TARGETS:
        emit(cli(["repro", target], dict(env, RLW_BOUND="7")))
elif family == "figures":
    for name in catalog.FIGURES:
        res = catalog.figure_completions(name)
        emit([name, res.nodes, [[json.loads(A.save()), A.labels] for A in res.algebras]])
elif family == "chains":
    for n in range(1, 7):
        for sig in ((), ("f",)):
            for require in ({}, {"idempotent": True}, {"commutative": True}):
                for A in completion.enumerate_chains(n, require, sig):
                    emit([n, sig, require, A.name, A.unit, A.mult, A.constants])
elif family == "profiles":
    for A in catalog.catalog_all(9):
        for coding, X in codings(A):
            emit([A.name, coding, dataclasses.asdict(properties.property_profile(X))])
elif family == "ap":
    for name, gens in workloads.ladder_rungs():
        emit([name, workloads._ap_summary(
            amalgam.decide_ap(amalgam.variety(*gens), cross_check=True))])
elif family == "structure":
    for A in catalog.catalog_all(9):
        for coding, X in codings(A):
            at = [A.name, coding]
            cep = structure.has_cep(X)
            emit([*at, "has_cep", cep.holds,
                  cep.witness and [sorted(cep.witness[0]), cep.witness[1].blocks]])
            emit([*at, "cns", [sorted(M) for M in structure.convex_normal_subalgebras(X)]])
            for sub, S, inclusion in structure.subalgebras(X):
                emit([*at, "subalgebra", S.name, S.labels, S.key(), inclusion])
                res = morphisms.is_essential(morphisms.Morphism(S, X, inclusion))
                # bool(res): older revisions name the flag `essential`, not `holds`
                emit([*at, "is_essential", bool(res), res.witness and res.witness.blocks])
            for theta in structure.congruences(X):
                Q, projection = structure.natural_projection(X, theta)
                emit([*at, "natural_projection", Q.name, Q.labels, Q.key(), projection])
            for lhs, rhs in (("x*y", "y*x"), ("x*x", "x")):
                res = terms.check_identity(X, lhs, rhs)
                emit([*at, "check_identity", lhs, rhs, res.holds, res.witness])
else:
    raise SystemExit(f"unknown family {family!r}")
"""


def dump(tree, family):
    """The records of family in tree, one JSON text per line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", DUMP, family], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"dumping {family} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def md5(records):
    return hashlib.md5("\n".join(records).encode()).hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="the base revision")
    args = p.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="rlw-identity-")
    status = 0
    try:
        trees = {"base": extract(args.base, workdir), "change": snapshot(workdir)}
        for family in FAMILIES:
            got = {side: dump(tree, family) for side, tree in trees.items()}
            base, change = got["base"], got["change"]
            same = base == change
            print(f"{family:9} {len(base):6} records  base {md5(base)}  change {md5(change)}  "
                  + ("identical" if same else "DIFFER"))
            if not same:
                status = 1
                i = next((i for i, (b, c) in enumerate(zip(base, change)) if b != c),
                         min(len(base), len(change)))
                for side, records in got.items():
                    print(f"  first difference, record {i}, {side}: "
                          + (records[i] if i < len(records) else "(none)"))
    finally:
        shutil.rmtree(workdir)
    return status


if __name__ == "__main__":
    sys.exit(main())
