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

from . import amalgam, catalog, completion, morphisms, nsum, properties, repro, structure
from .algebra import (AlgebraError, SPAN_FORMAT, _is_indices, load_algebra,
                      ParseError, read_document, save_algebra_file)

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
    """Collects inputs, parameters, verdicts, and certificates for a command."""

    def __init__(self, args):
        self.command = args._command_line
        self.inputs = []
        self.parameters = {}
        self.verdict = None
        self.affirmative = None
        self.certificates = {}
        self.t0 = time.perf_counter()

    def load(self, spec):
        A, text = _load_ref(spec)
        self.inputs.append({"path": spec, "sha256": _sha256(text)})
        return A

    def manifest(self):
        return {"format": MANIFEST_FORMAT, "command": self.command,
                "inputs": self.inputs, "parameters": self.parameters,
                "verdict": self.verdict, "certificates": self.certificates,
                "wall_time_s": round(time.perf_counter() - self.t0, 6)}


def _finish(run, args, human_lines):
    if getattr(args, "json", False):
        print(json.dumps(run.manifest(), sort_keys=True))
    else:
        for line in human_lines:
            print(line)
    return 0 if run.affirmative else 1


def _read_map(values, A, B, what):
    """The homomorphism A -> B given by a comma list or a JSON list of indices."""
    if isinstance(values, str):
        try:
            values = [int(v) for v in values.split(",")]
        except ValueError:
            raise ParseError(f"{what}: {values!r} is not a comma list of integers") from None
    if not (_is_indices(values, B.size) and len(values) == A.size):
        raise ParseError(f"{what} must list {A.size} indices 0..{B.size - 1}, "
                         f"got {values!r}")
    return morphisms.morphism(A, B, values)


def _morphism_cert(m):
    return {"source": m.source.name, "target": m.target.name,
            "mapping": list(m.mapping)}


# -- subcommands --------------------------------------------------------------

def cmd_catalog(args, run):
    A = catalog.make_entry(args.family, *args.params)
    run.parameters = {"family": args.family, "params": args.params}
    run.verdict = "ok"
    run.affirmative = True
    run.certificates["algebra"] = json.loads(A.save())
    if args.family in catalog.FIGURES:
        run.certificates["completions"] = catalog.figure_completions(args.family).multiplicity
    if args.out:
        save_algebra_file(A, args.out)
    return _finish(run, args, [A.save()])


def cmd_complete(args, run):
    text = _read_text(args.file)
    run.inputs.append({"path": args.file, "sha256": _sha256(text)})
    P = completion.load_partial(text)
    limit = None if args.all else args.limit
    res = completion.complete_partial(P, limit=limit)
    run.parameters = {"limit": limit}
    run.verdict = f"{res.multiplicity} completions"
    run.affirmative = res.multiplicity > 0
    run.certificates["completions"] = [json.loads(A.save()) for A in res.algebras]
    run.certificates["nodes"] = res.nodes
    return _finish(run, args, [f"{res.multiplicity} completions"] +
                   [A.save() for A in res.algebras])


def cmd_enumerate(args, run):
    sig = tuple(s for s in (args.sig or "").split(",") if s)
    out = list(completion.enumerate_chains(args.size, dict.fromkeys(args.prop, True), sig))
    run.parameters = {"size": args.size, "prop": args.prop, "sig": list(sig)}
    run.verdict = f"{len(out)} chains"
    run.affirmative = True
    run.certificates["count"] = len(out)
    return _finish(run, args, [f"{len(out)} chains"] + [A.save() for A in out])


def cmd_con(args, run):
    A = run.load(args.file)
    con = structure.congruences(A)
    run.verdict = f"{len(con)} congruences"
    run.affirmative = True
    run.certificates["congruences"] = [[list(b) for b in c.blocks] for c in con]
    run.certificates["cns"] = [sorted(s) for s in structure.convex_normal_subalgebras(A)]
    lines = [f"{len(con)} congruences of {A.name}"]
    lines += ["  " + repr(c) for c in con]
    return _finish(run, args, lines)


def cmd_sub(args, run):
    A = run.load(args.file)
    subs = structure.subuniverses(A)
    run.verdict = f"{len(subs)} subuniverses"
    run.affirmative = True
    run.certificates["subuniverses"] = [list(s) for s in subs]
    return _finish(run, args, [f"{len(subs)} subuniverses of {A.name}"] +
                   [f"  {list(s)}" for s in subs])


def cmd_cep(args, run):
    A = run.load(args.file)
    res = structure.has_cep(A)
    run.verdict = "has CEP" if res.holds else "CEP fails"
    run.affirmative = res.holds
    if not res.holds:
        sub, theta = res.witness
        run.certificates["witness"] = {"subalgebra": list(sub),
                                       "theta": [list(b) for b in theta.blocks]}
        return _finish(run, args, [f"{A.name}: CEP fails, witness subalgebra "
                                   f"{list(sub)} with {theta!r}"])
    return _finish(run, args, [f"{A.name}: has the CEP"])


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
    run.verdict = f"{len(out)} homomorphisms"
    run.affirmative = len(out) > 0
    run.certificates["homs"] = [_morphism_cert(m) for m in out]
    return _finish(run, args, [f"{len(out)} homomorphisms"] +
                   [f"  {list(m.mapping)}" for m in out])


def cmd_iso(args, run):
    A = run.load(args.A)
    B = run.load(args.B)
    iso = morphisms.are_isomorphic(A, B)
    run.verdict = "isomorphic" if iso else "not isomorphic"
    run.affirmative = iso is not None
    if iso:
        run.certificates["iso"] = _morphism_cert(iso)
        return _finish(run, args, [f"isomorphic via {list(iso.mapping)}"])
    return _finish(run, args, ["not isomorphic"])


def cmd_classify(args, run):
    A = run.load(args.file)
    cls = structure.classify(A)
    profile = properties.property_profile(A)
    run.verdict = "classified"
    run.affirmative = True
    run.certificates["classification"] = {
        "fsi": cls.fsi, "si": cls.si, "simple": cls.simple,
        "strictly_simple": cls.strictly_simple,
        "monolith": [list(b) for b in cls.monolith.blocks] if cls.monolith else None}
    run.certificates["profile"] = {k: v for k, v in vars(profile).items()}
    lines = [f"{A.name}: fsi={cls.fsi} si={cls.si} simple={cls.simple} "
             f"strictly_simple={cls.strictly_simple}"]
    lines.append("profile: " + ", ".join(f"{k}={v}" for k, v in vars(profile).items()))
    return _finish(run, args, lines)


def cmd_nsum(args, run):
    comps = [run.load(f) for f in args.files]
    glued = nsum.nested_sum(comps)
    run.verdict = "ok"
    run.affirmative = True
    run.certificates["algebra"] = json.loads(glued.save())
    if args.out:
        save_algebra_file(glued, args.out)
    return _finish(run, args, [glued.save()])


def cmd_factor(args, run):
    A = run.load(args.file)
    parts = nsum.factor_nested_sum(A)
    run.verdict = f"{len(parts)} components"
    run.affirmative = True
    run.certificates["components"] = [json.loads(X.save()) for X in parts]
    run.certificates["assembly"] = [X.name for X in parts]
    if args.out:
        for i, X in enumerate(parts):
            save_algebra_file(X, f"{args.out}.{i}.json")
    return _finish(run, args, [f"{len(parts)} components"] +
                   [X.save() for X in parts])


def _load_span(run, path):
    doc = read_document(_read_text(path), SPAN_FORMAT)
    run.inputs.append({"path": path, "sha256": _sha256(json.dumps(doc, sort_keys=True))})
    base = os.path.dirname(os.path.abspath(path))
    A, B, C = (_load_ref(doc[k], base)[0] for k in ("A", "B", "C"))
    return amalgam.Span(A, B, C, _read_map(doc["phi1"], A, B, "phi1"),
                        _read_map(doc["phi2"], A, C, "phi2"))


def _class_spec(args):
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
    s = _load_span(run, args.span)
    K = _class_spec(args)
    rep = amalgam.find_amalgam(s, K, one_sided=args.one_sided)
    run.parameters = {"one_sided": args.one_sided, "class": rep.class_info}
    run.verdict = rep.verdict
    run.affirmative = rep.found
    if rep.found:
        D, psi1, psi2 = rep.amalgam
        run.certificates["amalgam"] = {"D": json.loads(D.save()),
                                       "psi1": _morphism_cert(psi1),
                                       "psi2": _morphism_cert(psi2)}
        return _finish(run, args, [f"Found: D={D.name}, psi1={list(psi1.mapping)}, "
                                   f"psi2={list(psi2.mapping)}"])
    info = rep.class_info or {}
    note = f" (bound {info['bound']})" if info.get("kind") == "bounded" else ""
    return _finish(run, args, [rep.verdict + note])


def cmd_refute(args, run):
    s = _load_span(run, args.span)
    rep = amalgam.refute_chain_amalgam(s, mirror_rule=args.mirror_rule)
    run.parameters = {"mirror_rule": args.mirror_rule}
    run.verdict = rep.verdict
    # Refuted is a certified negative verdict (exit 1 with the trace)
    run.affirmative = rep.verdict != "Refuted"
    run.certificates["trace"] = [list(st) for st in rep.trace]
    if rep.verdict == "Refuted":
        run.certificates["replayed"] = amalgam.replay_refutation(s, rep)
    lines = [rep.verdict] + ["  " + " ".join(str(x) for x in st) for st in rep.trace]
    return _finish(run, args, lines)


def cmd_decide_ap(args, run):
    gens = [run.load(f) for f in args.generators]
    V = amalgam.variety(*gens)
    if args.fast_path == "auto" and len(gens) == 1:
        A = gens[0]
        if amalgam.strictly_simple_ap(A) is not None:
            run.verdict = "AP"
            run.affirmative = True
            run.certificates["fast_path"] = "strictly_simple"
            return _finish(run, args, ["AP (strictly simple generator)"])
    res = amalgam.decide_ap(V, cross_check=args.cross_check)
    run.parameters = {"cross_check": args.cross_check}
    run.verdict = res.verdict
    run.affirmative = res.has_ap
    run.certificates["chains"] = [c.name for c in res.chains]
    if res.reason == "cep_failure":
        A, sub, blocks = res.cep_witness
        run.certificates["cep_witness"] = {"chain": A.name, "subalgebra": list(sub),
                                           "theta": [list(b) for b in blocks]}
    if res.reason == "span_failure":
        s = res.span_witness
        run.certificates["span_witness"] = {
            "A": s.A.size, "B": s.B.name, "C": s.C.name,
            "phi1": list(s.phi1.mapping), "phi2": list(s.phi2.mapping)}
    if res.cross_check:
        run.certificates["cross_check"] = res.cross_check
    lines = [f"{res.verdict} for {V!r}"]
    if res.span_witness is not None:
        lines.append(f"  witness span: {res.span_witness!r}")
    return _finish(run, args, lines)


def cmd_class_check(args, run):
    algebras = [run.load(f) for f in args.files]
    check = amalgam.class_has_1ap if args.mode == "1ap" else amalgam.class_has_eap
    ok, witness = check(algebras)
    run.parameters = {"mode": args.mode}
    run.verdict = "holds" if ok else "fails"
    run.affirmative = ok
    if witness is not None:
        run.certificates["witness"] = {
            "B": witness.B.name, "C": witness.C.name,
            "phi1": list(witness.phi1.mapping), "phi2": list(witness.phi2.mapping)}
    lines = [f"{args.mode.upper()} {run.verdict}"]
    if witness is not None:
        lines.append(f"  witness span: {witness!r}")
    return _finish(run, args, lines)


def cmd_repro(args, run):
    run.parameters = {"target": args.target, "bound": repro.search_bound(),
                      "seed": repro.repro_seed()}
    rep = repro.run_repro(args.target)
    run.verdict = "pass" if rep.ok else "fail"
    run.affirmative = rep.ok
    run.certificates = rep.certificates
    lines = [f"repro {args.target}: {'PASS' if rep.ok else 'FAIL'} "
             f"({rep.seconds:.1f}s)"] + ["  " + l for l in rep.lines]
    return _finish(run, args, lines)


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
    q.add_argument("target", choices=repro.TARGETS)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    args._command_line = argv
    run = Run(args)
    try:
        return args.fn(args, run)
    except BrokenPipeError:   # reader gone: send the flush at exit to devnull, not stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
