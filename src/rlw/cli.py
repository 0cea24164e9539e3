"""Command-line interface.

Exit codes: 0 for affirmative verdicts (Holds/AP/Found/true), 1 for negative
verdicts with certificate, 2 for usage or validation errors, 141 (128 +
SIGPIPE) when the reader closes the output pipe early.  --json writes a run
manifest (identical inputs give byte-identical manifests modulo the wall-time
field).  Inputs are file paths or catalog addresses like catalog:goedel:3,
catalog:luk:4:mv, catalog:A1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

# catalog and nsum load here for perfbench's tracer (tests/test_perfbench_contract.py)
from . import catalog, morphisms, nsum, properties, structure
from .algebra import (AlgebraError, SPAN_FORMAT, load_algebra, ParseError, read_document,
                      save_algebra_file)

MANIFEST_FORMAT = "rlw-manifest/1"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_text(path):
    """The text of a UTF-8 file; ParseError for bytes that are not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_ref(spec, base=""):
    """The algebra at a catalog:/figure: address or a file path (relative
    paths taken from `base`), with the text its manifest hash is taken of."""
    if spec.startswith(("catalog:", "figure:")):
        A = catalog.resolve_catalog_name(spec)
        return A, A.save()
    text = _read_text(os.path.join(base, spec))
    return load_algebra(text), text


class Run:
    """Collects the inputs, parameters and certificates of a command."""

    def __init__(self, command):
        self.command = command
        self.inputs = []
        self.parameters = {}
        self.certificates = {}
        self.t0 = time.perf_counter()

    def load(self, spec):
        A, text = _load_ref(spec)
        self.inputs.append({"path": spec, "sha256": _sha256(text)})
        return A

    def manifest(self, verdict):
        return {"format": MANIFEST_FORMAT, "command": self.command,
                "inputs": self.inputs, "parameters": self.parameters,
                "verdict": verdict, "certificates": self.certificates,
                "wall_time_s": round(time.perf_counter() - self.t0, 6)}


def _read_map(values, A, B, what):
    """The homomorphism A -> B given by a comma list of integers, checked by
    `morphisms.morphism`."""
    try:
        values = [int(v) for v in values.split(",")]
    except ValueError:
        raise ParseError(f"{what}: {values!r} is not a comma list of integers") from None
    return morphisms.morphism(A, B, values)


def _morphism_cert(m):
    return {"source": m.source.name, "target": m.target.name,
            "mapping": list(m.mapping)}


def _span_cert(s):
    return {"B": s.B.name, "C": s.C.name,
            "phi1": list(s.phi1.mapping), "phi2": list(s.phi2.mapping)}


# -- subcommands --------------------------------------------------------------
# Each fills run.parameters and run.certificates and returns
# (verdict, affirmative, lines); `main` writes the manifest or the lines.

def cmd_catalog(args, run):
    A = catalog.make_entry(args.family, *args.params)
    run.parameters = {"family": args.family, "params": args.params}
    run.certificates["algebra"] = json.loads(A.save())
    if args.family in catalog.FIGURES:
        run.certificates["completions"] = catalog.figure_completions(args.family).multiplicity
    if args.out:
        save_algebra_file(A, args.out)
    return "ok", True, [A.save()]


def cmd_complete(args, run):
    from . import completion
    text = _read_text(args.file)
    run.inputs.append({"path": args.file, "sha256": _sha256(text)})
    P = completion.load_partial(text)
    limit = None if args.all else args.limit
    res = completion.complete_partial(P, limit=limit)
    run.parameters = {"limit": limit}
    run.certificates["completions"] = [json.loads(A.save()) for A in res.algebras]
    run.certificates["nodes"] = res.nodes
    verdict = f"{res.multiplicity} completions"
    return verdict, res.multiplicity > 0, [verdict] + [A.save() for A in res.algebras]


def cmd_enumerate(args, run):
    from . import completion
    sig = tuple(s for s in (args.sig or "").split(",") if s)
    out = list(completion.enumerate_chains(args.size, dict.fromkeys(args.prop, True), sig))
    run.parameters = {"size": args.size, "prop": args.prop, "sig": list(sig)}
    run.certificates["count"] = len(out)
    verdict = f"{len(out)} chains"
    return verdict, True, [verdict] + [A.save() for A in out]


def cmd_con(args, run):
    A = run.load(args.file)
    con = structure.congruences(A)
    run.certificates["congruences"] = [[list(b) for b in c.blocks] for c in con]
    run.certificates["cns"] = [sorted(s) for s in structure.convex_normal_subalgebras(A)]
    lines = [f"{len(con)} congruences of {A.name}"]
    lines += ["  " + repr(c) for c in con]
    return f"{len(con)} congruences", True, lines


def cmd_sub(args, run):
    A = run.load(args.file)
    subs = structure.subuniverses(A)
    run.certificates["subuniverses"] = [list(s) for s in subs]
    return (f"{len(subs)} subuniverses", True,
            [f"{len(subs)} subuniverses of {A.name}"] + [f"  {list(s)}" for s in subs])


def cmd_cep(args, run):
    A = run.load(args.file)
    res = structure.has_cep(A)
    if res.holds:
        return "has CEP", True, [f"{A.name}: has the CEP"]
    sub, theta = res.witness
    run.certificates["witness"] = {"subalgebra": list(sub),
                                   "theta": [list(b) for b in theta.blocks]}
    return "CEP fails", False, [f"{A.name}: CEP fails, witness subalgebra "
                                f"{list(sub)} with {theta!r}"]


def cmd_hom(args, run):
    B = run.load(args.B)
    D = run.load(args.D)
    commute = None
    if args.commute:
        A = run.load(args.commute[0])
        commute = (_read_map(args.commute[1], A, B, "PHI"),
                   _read_map(args.commute[2], A, D, "CHI"))
    out = morphisms.homs(B, D, injective=args.injective, commute_with=commute)
    run.parameters = {"injective": args.injective}
    run.certificates["homs"] = [_morphism_cert(m) for m in out]
    verdict = f"{len(out)} homomorphisms"
    return verdict, len(out) > 0, [verdict] + [f"  {list(m.mapping)}" for m in out]


def cmd_iso(args, run):
    A = run.load(args.A)
    B = run.load(args.B)
    iso = morphisms.are_isomorphic(A, B)
    if iso is None:
        return "not isomorphic", False, ["not isomorphic"]
    run.certificates["iso"] = _morphism_cert(iso)
    return "isomorphic", True, [f"isomorphic via {list(iso.mapping)}"]


def cmd_classify(args, run):
    A = run.load(args.file)
    cls = structure.classify(A)
    profile = properties.property_profile(A)
    run.certificates["classification"] = {
        "fsi": cls.fsi, "si": cls.si, "simple": cls.simple,
        "strictly_simple": cls.strictly_simple,
        "monolith": [list(b) for b in cls.monolith.blocks] if cls.monolith else None}
    run.certificates["profile"] = {k: v for k, v in vars(profile).items()}
    lines = [f"{A.name}: fsi={cls.fsi} si={cls.si} simple={cls.simple} "
             f"strictly_simple={cls.strictly_simple}"]
    lines.append("profile: " + ", ".join(f"{k}={v}" for k, v in vars(profile).items()))
    return "classified", True, lines


def cmd_nsum(args, run):
    comps = [run.load(f) for f in args.files]
    glued = nsum.nested_sum(comps)
    run.certificates["algebra"] = json.loads(glued.save())
    if args.out:
        save_algebra_file(glued, args.out)
    return "ok", True, [glued.save()]


def cmd_factor(args, run):
    A = run.load(args.file)
    parts = nsum.factor_nested_sum(A)
    run.certificates["components"] = [json.loads(X.save()) for X in parts]
    run.certificates["assembly"] = [X.name for X in parts]
    if args.out:
        for i, X in enumerate(parts):
            save_algebra_file(X, f"{args.out}.{i}.json")
    verdict = f"{len(parts)} components"
    return verdict, True, [verdict] + [X.save() for X in parts]


def _load_span(run, path):
    from . import amalgam
    doc = read_document(_read_text(path), SPAN_FORMAT)
    run.inputs.append({"path": path, "sha256": _sha256(json.dumps(doc, sort_keys=True))})
    base = os.path.dirname(os.path.abspath(path))
    A, B, C = (_load_ref(doc[k], base)[0] for k in ("A", "B", "C"))
    return amalgam.span(A, B, C, doc["phi1"], doc["phi2"])


def _class_spec(args):
    from . import amalgam
    if not args.klass:
        raise ParseError("--class is required")
    kind = args.klass[0]
    if kind == "list":
        return amalgam.ClassSpec.explicit([_load_ref(spec)[0] for spec in args.klass[1:]])
    if kind == "bounded":
        if len(args.klass) != 2 or not args.klass[1].isdigit():
            raise ParseError("--class bounded takes one integer bound")
        bound = int(args.klass[1])
        sig = tuple(s for s in (args.sig or "").split(",") if s)
        return amalgam.ClassSpec.bounded(bound, sig, dict.fromkeys(args.prop, True))
    raise ParseError("--class must start with 'list' or 'bounded'")


def cmd_amalgamate(args, run):
    from . import amalgam
    s = _load_span(run, args.span)
    K = _class_spec(args)
    rep = amalgam.find_amalgam(s, K, one_sided=args.one_sided)
    run.parameters = {"one_sided": args.one_sided, "class": rep.class_info}
    if not rep.found:
        info = rep.class_info or {}
        note = f" (bound {info['bound']})" if info.get("kind") == "bounded" else ""
        return rep.verdict, False, [rep.verdict + note]
    D, psi1, psi2 = rep.amalgam
    run.certificates["amalgam"] = {"D": json.loads(D.save()),
                                   "psi1": _morphism_cert(psi1),
                                   "psi2": _morphism_cert(psi2)}
    return rep.verdict, True, [f"Found: D={D.name}, psi1={list(psi1.mapping)}, "
                               f"psi2={list(psi2.mapping)}"]


def cmd_refute(args, run):
    from . import amalgam
    s = _load_span(run, args.span)
    rep = amalgam.refute_chain_amalgam(s, mirror_rule=args.mirror_rule)
    run.parameters = {"mirror_rule": args.mirror_rule}
    run.certificates["trace"] = [list(st) for st in rep.trace]
    # Refuted is a certified negative verdict (exit 1 with the trace)
    refuted = rep.verdict == "Refuted"
    if refuted:
        run.certificates["replayed"] = amalgam.replay_refutation(s, rep)
    lines = [rep.verdict] + ["  " + " ".join(str(x) for x in st) for st in rep.trace]
    return rep.verdict, not refuted, lines


def cmd_decide_ap(args, run):
    from . import amalgam
    gens = [run.load(f) for f in args.generators]
    V = amalgam.variety(*gens)
    if (args.fast_path == "auto" and len(gens) == 1
            and amalgam.strictly_simple_ap(gens[0]) is not None):
        run.certificates["fast_path"] = "strictly_simple"
        return "AP", True, ["AP (strictly simple generator)"]
    res = amalgam.decide_ap(V, cross_check=args.cross_check)
    run.parameters = {"cross_check": args.cross_check}
    run.certificates["chains"] = [c.name for c in res.chains]
    lines = [f"{res.verdict} for {V!r}"]
    if res.reason == "cep_failure":
        A, sub, blocks = res.cep_witness
        run.certificates["cep_witness"] = {"chain": A.name, "subalgebra": list(sub),
                                           "theta": [list(b) for b in blocks]}
    if res.reason == "span_failure":
        s = res.span_witness
        run.certificates["span_witness"] = {"A": s.A.size, **_span_cert(s)}
        lines.append(f"  witness span: {s!r}")
    if res.cross_check:
        run.certificates["cross_check"] = res.cross_check
    return res.verdict, res.has_ap, lines


def cmd_class_check(args, run):
    from . import amalgam
    algebras = [run.load(f) for f in args.files]
    check = amalgam.class_has_1ap if args.mode == "1ap" else amalgam.class_has_eap
    res = check(algebras)
    run.parameters = {"mode": args.mode}
    verdict = "holds" if res.holds else "fails"
    lines = [f"{args.mode.upper()} {verdict}"]
    if res.witness is not None:
        run.certificates["witness"] = _span_cert(res.witness)
        lines.append(f"  witness span: {res.witness!r}")
    return verdict, res.holds, lines


def cmd_repro(args, run):
    from . import repro
    run.parameters = {"target": args.target, "bound": repro.search_bound(),
                      "seed": repro.repro_seed()}
    rep = repro.run_repro(args.target)
    run.certificates = rep.certificates
    verdict = "pass" if rep.ok else "fail"
    return verdict, rep.ok, ([f"repro {args.target}: {verdict.upper()} ({rep.seconds:.1f}s)"]
                             + ["  " + l for l in rep.lines])


def make_parser():
    p = argparse.ArgumentParser(prog="rlw", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        q = sub.add_parser(name, **kw)
        q.set_defaults(fn=fn)
        q.add_argument("--json", action="store_true", help="emit a run manifest")
        return q

    q = add("catalog", cmd_catalog, help="build a family or figure algebra")
    q.add_argument("family")
    q.add_argument("params", nargs="*")
    q.add_argument("-o", "--out")

    q = add("complete", cmd_complete, help="complete a partial algebra file")
    q.add_argument("file")
    q.add_argument("--all", action="store_true")
    q.add_argument("--limit", type=int, default=None)

    q = add("enumerate", cmd_enumerate, help="enumerate residuated chains")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--prop", action="append", default=[])
    q.add_argument("--sig", default="")

    for name, fn in (("con", cmd_con), ("sub", cmd_sub), ("cep", cmd_cep),
                     ("classify", cmd_classify)):
        q = add(name, fn, help=f"{name} of an algebra")
        q.add_argument("file")

    q = add("hom", cmd_hom, help="enumerate homomorphisms B -> D")
    q.add_argument("B")
    q.add_argument("D")
    q.add_argument("--injective", action="store_true")
    q.add_argument("--commute", nargs=3, metavar=("A", "PHI", "CHI"),
                   help="restrict to psi with psi o phi = chi (maps as comma lists)")

    q = add("iso", cmd_iso, help="isomorphism test")
    q.add_argument("A")
    q.add_argument("B")

    q = add("nsum", cmd_nsum, help="nested sum of chain files")
    q.add_argument("files", nargs="+")
    q.add_argument("-o", "--out")

    q = add("factor", cmd_factor, help="nested-sum factorization")
    q.add_argument("file")
    q.add_argument("-o", "--out")

    q = add("amalgamate", cmd_amalgamate, help="search a class for an amalgam")
    q.add_argument("--span", required=True)
    q.add_argument("--class", dest="klass", nargs="+", required=True,
                   metavar="SPEC", help="list f1 f2 ... | bounded N")
    q.add_argument("--one-sided", action="store_true", dest="one_sided")
    q.add_argument("--prop", action="append", default=[])
    q.add_argument("--sig", default="")

    q = add("refute", cmd_refute, help="forced-identification chain refuter")
    q.add_argument("--span", required=True)
    q.add_argument("--mirror-rule", action="store_true", dest="mirror_rule")

    q = add("decide-ap", cmd_decide_ap, help="decide AP of a finitely generated "
            "semilinear variety")
    q.add_argument("generators", nargs="+")
    q.add_argument("--cross-check", action="store_true", dest="cross_check")
    q.add_argument("--fast-path", choices=("off", "auto"), default="off",
                   dest="fast_path")

    q = add("class-check", cmd_class_check, help="1AP/EAP of an explicit class")
    q.add_argument("files", nargs="+")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--1ap", dest="mode", action="store_const", const="1ap")
    g.add_argument("--eap", dest="mode", action="store_const", const="eap")

    q = add("repro", cmd_repro, help="run a reproduction target")
    q.add_argument("target", help="a reproduction target (an unknown name lists them)")
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    run = Run(argv)
    try:
        verdict, affirmative, lines = args.fn(args, run)
        print(json.dumps(run.manifest(verdict), sort_keys=True) if args.json
              else "\n".join(lines))
    except BrokenPipeError:   # reader gone: send the flush at exit to devnull, not stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if affirmative else 1


if __name__ == "__main__":
    sys.exit(main())
