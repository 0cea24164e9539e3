"""The benchmark's four workloads.

Each `setup_*` function builds its workload's inputs and returns its queries
in a fixed order.  The worker times each query as one call of `Query.run`;
only after the timed phase does it turn each answer into a JSON summary
(`Query.summarize`) and check it (`Query.check`, which returns a failure
message or None).  Library functions are looked up on their modules at call
time, so the layer wrappers of a traced run see every call.
"""
from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from typing import Callable

from rlw import algebra, amalgam, catalog, morphisms, nsum, properties, repro, structure


@dataclasses.dataclass
class Context:
    seed: int
    bound: int
    root: str            # checkout root; the program is imported from root/src
    workdir: str         # directory for files written at set-up, in the checkout
    trace: bool
    child_stats: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Query:
    qid: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    # (summary, summaries of the queries before it) -> failure message or None
    check: Callable[[object, dict], str | None]
    known_defect: str | None = None
    pin: bool = True     # seed-independent: pins.json holds the seed's answer


# -- ap-ladder ----------------------------------------------------------------

# Verdicts asserted by the repro targets and the acceptance tests; the other
# rungs (the L_n ladder) are checked against the pinned seed answers only.
PAPER_VERDICTS = {"G_2": "AP", "G_3": "AP", "S_2": "AP", "S_3": "AP", "S_4": "AP",
                  "R_2": "AP", "R_3": "NotAP", "M_2": "AP", "M_3": "AP",
                  "strictsimp": "AP", "S_2,S_3": "AP"}
PAPER_VERDICTS.update({f"G_{m}": "NotAP" for m in range(4, 10)})
PAPER_VERDICTS.update({f"S_{n}": "NotAP" for n in range(5, 13)})


def ladder_rungs():
    """Generator tuples of the AP ladder, in its fixed order."""
    rungs = [(f"G_{m}", (catalog.make_goedel(m),)) for m in range(2, 10)]
    rungs += [(f"S_{n}", (catalog.make_sugihara(n),)) for n in range(2, 13)]
    rungs += [(f"L_{n}", (catalog.make_luk(n, "mv"),)) for n in range(2, 13)]
    rungs += [("R_2", (catalog.make_rsa(2),)), ("R_3", (catalog.make_rsa(3),)),
              ("M_2", (catalog.make_dmm(2),)), ("M_3", (catalog.make_dmm(3),)),
              ("strictsimp", (catalog.make_figure("strictsimp"),)),
              ("S_2,S_3", (catalog.make_sugihara(2), catalog.make_sugihara(3)))]
    return rungs


def _ap_summary(r):
    cep = None
    if r.cep_witness is not None:
        A, sub, blocks = r.cep_witness
        cep = [A.name, list(sub), [list(b) for b in blocks]]
    return {"verdict": r.verdict, "reason": r.reason,
            "chains": [c.name for c in r.chains], "cep_witness": cep,
            "span_witness": repr(r.span_witness) if r.span_witness else None}


def setup_ap_ladder(ctx):
    queries = []
    for name, gens in ladder_rungs():
        V = amalgam.variety(*gens)
        want = PAPER_VERDICTS.get(name)

        def check(summary, summaries, want=want):
            if want is not None and summary["verdict"] != want:
                return f"verdict {summary['verdict']}, the paper gives {want}"
            return None

        queries.append(Query(f"decide_ap:V({name})",
                             lambda V=V: amalgam.decide_ap(V), _ap_summary, check))
    return queries


# -- bounded-search -----------------------------------------------------------

def _span_by_labels(names):
    A, B, C = (catalog.make_figure(n) for n in names)
    return amalgam.span(A, B, C, [B.labels.index(x) for x in A.labels],
                        [C.labels.index(x) for x in A.labels])


def fig3_span():
    B, C = catalog.make_figure("idem-B"), catalog.make_figure("idem-C")
    T = structure.subalgebra(B, (B.unit,), name="T")
    return amalgam.Span(T, B, C, morphisms.morphism(T, B, (B.unit,)),
                        morphisms.morphism(T, C, (C.unit,)))


def _report_summary(rep):
    found = None
    if rep.amalgam is not None:
        D, psi1, psi2 = rep.amalgam
        found = {"D": D.name, "D_unit": D.unit, "psi1": list(psi1.mapping),
                 "psi2": list(psi2.mapping)}
    return {"verdict": rep.verdict, "amalgam": found,
            "trace": [list(st) for st in rep.trace] if rep.trace else None,
            "class": rep.class_info}


def _want(verdict, extra=None):
    def check(summary, summaries):
        got = summary["verdict"] if isinstance(summary, dict) else summary
        if got != verdict:
            return f"answer {got!r}, expected {verdict!r}"
        return extra(summary) if extra is not None else None
    return check


def _collapse(summary):
    """One-sided fig3 amalgam: psi2 must be the collapse onto the unit."""
    found = summary["amalgam"]
    if any(v != found["D_unit"] for v in found["psi2"]):
        return f"psi2 {found['psi2']} is not the collapse homomorphism"
    return None


TRACE_STEPS = {"fig5": 7, "fig6": 10}


def setup_bounded_search(ctx):
    spans = {"fig5": _span_by_labels(("A1", "B1", "C1")),
             "fig6": _span_by_labels(("A2", "B2", "C2"))}
    fig3 = fig3_span()
    f_chains = amalgam.ClassSpec.bounded(ctx.bound, signature=("f",))
    idem_chains = amalgam.ClassSpec.bounded(ctx.bound, require={"idempotent": True})
    queries = []
    for fig, s in spans.items():
        def certify(s=s):
            rep = amalgam.refute_chain_amalgam(s)
            return rep, amalgam.replay_refutation(s, rep)

        def check(summary, summaries, fig=fig):
            if summary["verdict"] != "Refuted" or not summary["replayed"]:
                return f"{summary['verdict']}, replayed {summary['replayed']}"
            n = len(summary["trace"])
            return None if n == TRACE_STEPS[fig] else f"{n} trace steps, seed has {TRACE_STEPS[fig]}"

        queries += [
            Query(f"{fig}:refute_and_replay", certify,
                  lambda r: dict(_report_summary(r[0]), replayed=r[1]), check),
            Query(f"{fig}:find_amalgam:bound={ctx.bound}",
                  lambda s=s: amalgam.find_amalgam(s, f_chains),
                  _report_summary, _want("NotFoundExhaustive"))]
    queries += [
        Query(f"fig3:find_amalgam:one_sided:bound={ctx.bound}",
              lambda: amalgam.find_amalgam(fig3, idem_chains, one_sided=True),
              _report_summary, _want("Found", _collapse)),
        Query(f"fig3:find_amalgam:two_sided:bound={ctx.bound}",
              lambda: amalgam.find_amalgam(fig3, idem_chains),
              _report_summary, _want("NotFoundExhaustive"))]
    return queries


# -- catalog-sweep ------------------------------------------------------------

SWEEP = (("congruences", structure), ("convex_normal_subalgebras", structure),
         ("subuniverses", structure), ("classify", structure),
         ("has_cep", structure), ("property_profile", properties))
RELABEL_DEFECT = ("ROADMAP item 1: chain algorithms read index order as the "
                  "algebra order")


def relabelled_text(A, perm):
    """A in the file format, element x renamed perm[x], order as a matrix."""
    n = A.size
    mult = [[0] * n for _ in range(n)]
    leq = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mult[perm[x]][perm[y]] = perm[A.mult[x][y]]
            leq[perm[x]][perm[y]] = int(A.leq[x][y])
    doc = {"format": algebra.FILE_FORMAT, "name": A.name, "size": n, "leq": leq,
           "unit": perm[A.unit], "mult": mult,
           "constants": {k: perm[v] for k, v in A.constants}}
    return json.dumps(doc, separators=(",", ":"))


def _sweep(A):
    out = {}
    for name, module in SWEEP:
        try:
            out[name] = getattr(module, name)(A)
        except Exception as exc:  # recorded per function, checked after timing
            out[name] = exc
    return out


def _sweep_summary(results, back=None):
    """Coding-independent summary: elements mapped through `back` to the
    canonical coding (None for the canonical coding itself), collections
    sorted."""
    def elems(xs):
        return sorted(xs if back is None else (back[x] for x in xs))

    def part(blocks):
        return sorted(elems(b) for b in blocks)

    out = {}
    for name, res in results.items():
        if isinstance(res, Exception):
            out[name] = {"error": f"{type(res).__name__}: {res}"}
        elif name == "congruences":
            out[name] = sorted(part(c.blocks) for c in res)
        elif name in ("convex_normal_subalgebras", "subuniverses"):
            out[name] = sorted(elems(s) for s in res)
        elif name == "classify":
            out[name] = {"fsi": res.fsi, "si": res.si, "simple": res.simple,
                         "strictly_simple": res.strictly_simple,
                         "monolith": part(res.monolith.blocks) if res.monolith else None}
        elif name == "has_cep":
            out[name] = res.holds
        else:
            out[name] = dataclasses.asdict(res)
    return out


def _errors(summary):
    bad = [f"{k} raised {v['error']}" for k, v in summary.items()
           if isinstance(v, dict) and "error" in v]
    return "; ".join(bad) or None


def setup_catalog_sweep(ctx):
    algebras = catalog.catalog_all(9)
    rng = random.Random(f"relabel-{ctx.seed}")
    texts = {}
    for A in algebras:
        perm = list(range(A.size))
        while A.size > 1 and perm == sorted(perm):   # not the identity
            rng.shuffle(perm)
        texts[A.name] = (relabelled_text(A, perm), perm)
    if len(texts) != len(algebras):
        raise ValueError("catalog names are not unique")

    def canon_summary(results):
        summary = _sweep_summary(results)
        cep = results["has_cep"]
        if not isinstance(cep, Exception) and cep.witness is not None:
            sub, theta = cep.witness
            summary["cep_witness"] = [list(sub), [list(b) for b in theta.blocks]]
        return summary

    queries = [Query(f"canonical:{A.name}", lambda A=A: _sweep(A), canon_summary,
                     lambda summary, summaries: _errors(summary)) for A in algebras]
    for A in algebras:
        text, perm = texts[A.name]
        back = {y: x for x, y in enumerate(perm)}

        def relab_check(summary, summaries, name=A.name):
            if (msg := _errors(summary)):
                return msg
            canon = summaries[f"canonical:{name}"]
            diff = [k for k in summary if summary[k] != canon.get(k)]
            return f"{', '.join(diff)} differ from the canonical coding" if diff else None

        queries.append(Query(
            f"relabelled:{A.name}", lambda text=text: _sweep(algebra.load_algebra(text)),
            lambda res, back=back: _sweep_summary(res, back), relab_check,
            known_defect=RELABEL_DEFECT, pin=False))

    # nested-sum round trips drawn as the comdecomp reproduction target does,
    # ten to a query so that the seed's draw moves the latencies little
    trip_rng = random.Random(ctx.seed)
    admissible, finals = repro.admissible_components(), repro.final_components()
    trips = []
    for _ in range(100):
        size = trip_rng.randint(1, 3)
        comps = [trip_rng.choice(admissible) for _ in range(size - 1)]
        trips.append(comps + [trip_rng.choice(finals)])
    for k in range(0, 100, 10):
        def round_trips(group=trips[k:k + 10]):
            out = []
            for comps in group:
                parts = nsum.factor_nested_sum(nsum.nested_sum(comps))
                out.append([nsum.components_isomorphic(parts, comps),
                            [p.size for p in parts]])
            return out

        def check(summary, summaries, k=k):
            bad = [k + i for i, (ok, _) in enumerate(summary) if not ok]
            return f"round trips {bad} did not factor back" if bad else None

        queries.append(Query(f"nsum:round_trips_{k}-{k + 9}", round_trips,
                             lambda r: r, check, pin=False))
    return queries


# -- cli-calls ----------------------------------------------------------------

CLI_DEFECT = "ROADMAP item 1: malformed input ends in a traceback, not exit 2"

# (label, arguments, exit code, manifest verdict or None for an error exit,
#  known defect)
CLI_CALLS = (
    ("catalog-family", ["catalog", "goedel", "3"], 0, "ok", None),
    ("catalog-out", ["catalog", "sugihara", "4", "-o", "out-s4.json"], 0, "ok", None),
    ("catalog-figure", ["catalog", "strictsimp"], 0, "ok", None),
    ("enumerate-prop", ["enumerate", "--size", "4", "--prop", "idempotent"], 0,
     "6 chains", None),
    ("enumerate-sig", ["enumerate", "--size", "3", "--sig", "f"], 0, "9 chains", None),
    ("complete", ["complete", "partial.json", "--all"], 0, "1 completions", None),
    ("con-address", ["con", "catalog:goedel:4"], 0, "4 congruences", None),
    ("con-file", ["con", "g3.json"], 0, "3 congruences", None),
    ("sub", ["sub", "catalog:dmm:2"], 0, "2 subuniverses", None),
    ("cep-fails", ["cep", "catalog:cepfail"], 1, "CEP fails", None),
    ("cep-holds", ["cep", "catalog:sugihara:4"], 0, "has CEP", None),
    ("classify-figure", ["classify", "catalog:strictsimp"], 0, "classified", None),
    ("classify-luk", ["classify", "catalog:luk:4:mv"], 0, "classified", None),
    ("hom-injective", ["hom", "catalog:goedel:2", "catalog:goedel:3", "--injective"],
     0, "1 homomorphisms", None),
    ("hom-commute", ["hom", "catalog:goedel:4", "catalog:goedel:4", "--commute",
                     "catalog:goedel:3", "0,1,3", "0,2,3"], 0, "1 homomorphisms", None),
    ("iso-same", ["iso", "g3.json", "catalog:goedel:3"], 0, "isomorphic", None),
    ("iso-differ", ["iso", "catalog:goedel:3", "catalog:rsa:3"], 1,
     "not isomorphic", None),
    ("nsum", ["nsum", "s3.json", "s3.json", "-o", "out-sum.json"], 0, "ok", None),
    ("factor", ["factor", "sum.json"], 0, "2 components", None),
    ("amalgamate-list", ["amalgamate", "--span", "id-span.json", "--class", "list",
                         "catalog:goedel:3"], 0, "Found", None),
    ("amalgamate-bounded", ["amalgamate", "--span", "g2-g3-span.json", "--class",
                            "bounded", "4", "--sig", "bot"], 0, "Found", None),
    ("refute-fig5", ["refute", "--span", "knotted-span-1.json"], 1, "Refuted", None),
    ("refute-fig6", ["refute", "--span", "knotted-span-2.json"], 1, "Refuted", None),
    ("refute-unknown", ["refute", "--span", "id-span.json"], 0, "Unknown", None),
    ("decide-ap-AP", ["decide-ap", "catalog:goedel:3"], 0, "AP", None),
    ("decide-ap-NotAP", ["decide-ap", "catalog:sugihara:5"], 1, "NotAP", None),
    ("decide-ap-fast-path", ["decide-ap", "catalog:strictsimp", "--fast-path", "auto"],
     0, "AP", None),
    ("class-check-1ap", ["class-check", "--1ap", "catalog:goedel:1", "catalog:goedel:2",
                         "catalog:goedel:3"], 0, "holds", None),
    ("class-check-eap", ["class-check", "--eap", "catalog:goedel:1", "catalog:goedel:2",
                         "catalog:goedel:3", "catalog:goedel:4"], 1, "fails", None),
    ("repro", ["repro", "rsa"], 0, "pass", None),
    ("usage-error", ["con"], 2, None, None),
    ("bad-family-parameter", ["catalog", "goedel", "x"], 2, None, CLI_DEFECT),
    ("complete-json-list", ["complete", "list.json"], 2, None, CLI_DEFECT),
    ("null-mult-entry", ["con", "bad-null-mult.json"], 2, None, CLI_DEFECT),
    ("constants-list", ["con", "bad-constants-list.json"], 2, None, CLI_DEFECT),
)


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))


def write_cli_files(workdir):
    """The input files the CLI calls read, written into workdir."""
    s3 = catalog.make_sugihara(3).reduct()
    _write(os.path.join(workdir, "g3.json"), catalog.make_goedel(3).save())
    _write(os.path.join(workdir, "s3.json"), s3.save())
    _write(os.path.join(workdir, "sum.json"), nsum.nested_sum([s3, s3]).save())
    _write(os.path.join(workdir, "partial.json"), {
        "format": "rlw-partial/1", "name": "p", "size": 4, "leq": "chain", "unit": 1,
        "mult": [[None] * 4 for _ in range(4)], "constants": {"f": 2},
        "labels": ["bot", "e", "f", "top"],
        "constraints": {"commutative": True, "involutive_f": True,
                        "idempotent": [0, 1, 3], "non_idempotent": [2],
                        "equations": ["f*f=top"]}})
    for k, names in ((1, ("A1", "B1", "C1")), (2, ("A2", "B2", "C2"))):
        s = _span_by_labels(names)
        _write(os.path.join(workdir, f"knotted-span-{k}.json"), {
            "format": algebra.SPAN_FORMAT, "A": f"catalog:{names[0]}",
            "B": f"catalog:{names[1]}", "C": f"catalog:{names[2]}",
            "phi1": list(s.phi1.mapping), "phi2": list(s.phi2.mapping)})
    g3 = "catalog:goedel:3"
    _write(os.path.join(workdir, "id-span.json"), {
        "format": algebra.SPAN_FORMAT, "A": g3, "B": g3, "C": g3,
        "phi1": [0, 1, 2], "phi2": [0, 1, 2]})
    _write(os.path.join(workdir, "g2-g3-span.json"), {
        "format": algebra.SPAN_FORMAT, "A": "catalog:goedel:2", "B": g3, "C": g3,
        "phi1": [0, 2], "phi2": [0, 2]})
    _write(os.path.join(workdir, "list.json"), [1, 2])
    doc = json.loads(catalog.make_goedel(3).save())
    doc["mult"][0][1] = None
    _write(os.path.join(workdir, "bad-null-mult.json"), doc)
    doc = json.loads(catalog.make_goedel(3).save())
    doc["constants"] = [0]
    _write(os.path.join(workdir, "bad-constants-list.json"), doc)


def _manifest_summary(proc):
    code, out, err = proc
    summary = {"exit": code, "verdict": None, "manifest": None,
               "traceback": "Traceback" in err}
    if code in (0, 1) and out:   # a traceback exit prints no manifest
        manifest = json.loads(out)
        manifest.pop("wall_time_s")
        summary["verdict"] = manifest["verdict"]
        summary["manifest"] = manifest
    return summary


def setup_cli_calls(ctx):
    write_cli_files(ctx.workdir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RLW_")}
    env["PYTHONPATH"] = os.path.join(ctx.root, "src")
    tracer_script = os.path.join(ctx.root, "perfbench", "tracer.py")
    queries = []
    for i, (label, argv, code, verdict, defect) in enumerate(CLI_CALLS):
        args = argv + ["--json"]

        def call(args=args, i=i):
            if ctx.trace:
                stats = os.path.join(ctx.workdir, f"stats-{i}.json")
                cmd = [sys.executable, tracer_script, stats] + args
            else:
                cmd = [sys.executable, "-m", "rlw.cli"] + args
            proc = subprocess.run(cmd, cwd=ctx.workdir, env=env, capture_output=True,
                                  text=True, timeout=120)
            if ctx.trace:
                with open(stats, encoding="utf-8") as fh:
                    ctx.child_stats.append(json.load(fh))
            return proc.returncode, proc.stdout, proc.stderr

        def check(summary, summaries, code=code, verdict=verdict):
            if summary["exit"] != code:
                tb = " with a traceback" if summary["traceback"] else ""
                return f"exit {summary['exit']}{tb}, expected {code}"
            if summary["verdict"] != verdict:
                return f"verdict {summary['verdict']!r}, expected {verdict!r}"
            return None

        queries.append(Query(f"cli:{label}", call, _manifest_summary, check,
                             known_defect=defect, pin=defect is None))
    return queries


# workloads whose queries run the program in child processes
IN_CHILD_PROCESSES = ("cli-calls",)
SETUP = {"ap-ladder": setup_ap_ladder, "bounded-search": setup_bounded_search,
         "catalog-sweep": setup_catalog_sweep, "cli-calls": setup_cli_calls}
