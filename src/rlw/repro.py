"""Reproduction driver: each target runs one of the desk-scale headline checks
end to end and reports pass/fail with certificates.

Bounded searches read their bound from RLW_BOUND (default 7, the full
bound).  Refuter certificates are unbounded claims; bounded search results
always carry their bound.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from . import amalgam, catalog, nsum, properties, structure
from .algebra import BadParameter
from .completion import enumerate_chains
from .morphisms import are_isomorphic


def _env_int(name, default):
    value = os.environ.get(name, str(default))
    try:
        return int(value)
    except ValueError:
        raise BadParameter(f"{name}={value!r} is not an integer") from None


def search_bound():
    """RLW_BOUND, at least 1; BadParameter otherwise."""
    bound = _env_int("RLW_BOUND", 7)
    if bound < 1:
        raise BadParameter(f"RLW_BOUND={bound} is below 1")
    return bound


def repro_seed():
    """RLW_SEED, an integer; BadParameter otherwise."""
    return _env_int("RLW_SEED", 0)


@dataclass
class ReproReport:
    target: str
    ok: bool = True
    lines: list = field(default_factory=list)
    certificates: dict = field(default_factory=dict)
    seconds: float = 0.0

    def check(self, label, cond):
        self.lines.append(f"{'PASS' if cond else 'FAIL'}  {label}")
        self.ok = self.ok and bool(cond)
        return cond


def _figure_embedding_by_labels(A, B):
    return [B.labels.index(lbl) for lbl in A.labels]


def repro_fig1(report):
    """Every completion of the cepfail diagram fails the CEP with the known
    witness: CNS analysis {e,a,b} against {e,a}."""
    res = catalog.figure_completions("cepfail")
    report.check("cepfail has at least one completion", res.multiplicity >= 1)
    report.certificates["completions"] = res.multiplicity
    for X in res.algebras:
        lbl = {name: X.labels.index(name) for name in ("bot", "c", "b", "a", "e")}
        cep = structure.has_cep(X)
        report.check(f"{X.name}: has_cep is false", not cep.holds)
        sub = (lbl["b"], lbl["a"], lbl["e"])
        report.check("witness subalgebra is {e,a,b}",
                     structure.is_subuniverse(X, sub))
        B, in_X = structure.subalgebra_with_map(X, sub)
        a_in_B, e_in_B = B.labels.index("a"), B.labels.index("e")
        theta = structure.principal_congruence(B, a_in_B, e_in_B)
        eclass = [in_X[i] for i in theta.unit_class()]
        report.check("Theta_B(a,e) does not extend",
                     not structure.extends(X, sub, eclass))
        cns_A = structure.cns_generated(X, {lbl["a"]})
        cns_B = structure.cns_generated(B, {a_in_B})
        report.check("CNS_A(a) = {e,a,b}",
                     cns_A == {lbl["e"], lbl["a"], lbl["b"]})
        report.check("CNS_B(a) = {e,a}", cns_B == {e_in_B, a_in_B})
        report.certificates.setdefault("witnesses", []).append(
            {"algebra": X.name, "subalgebra": list(sub),
             "theta": [list(b) for b in theta.blocks]})


def fig3_span():
    B = catalog.make_figure("idem-B")
    C = catalog.make_figure("idem-C")
    triv = structure.subalgebra(B, (B.unit,), name="T")
    return amalgam.span(triv, B, C, (B.unit,), (C.unit,))


def repro_fig3(report):
    """Bounded check of the Fig. 3 claim.  The literal one-sided criterion is
    unattainable: collapsing everything to the unit is a homomorphism, so any
    span out of the trivial algebra has the one-sided amalgam (D = B, psi1 =
    id, psi2 = constant).  The literal search is run and reported faithfully;
    the sound neighbouring claim (no two-sided amalgam, i.e. no idempotent
    chain extends both B and C) is checked as supplementary evidence."""
    bound = search_bound()
    s = fig3_span()
    K = amalgam.ClassSpec.bounded(bound, require={"idempotent": True})
    rep = amalgam.find_amalgam(s, K, one_sided=True)
    report.certificates["bound"] = bound
    report.certificates["class"] = rep.class_info
    ok = report.check(
        f"LITERAL criterion: no one-sided amalgam among idempotent chains of "
        f"size <= {bound}", rep.verdict == "NotFoundExhaustive")
    if not ok and rep.amalgam is not None:
        D, psi1, psi2 = rep.amalgam
        report.lines.append(
            f"      analysis: the collapse map is always a one-sided amalgam "
            f"(D={D.name}, psi2={list(psi2.mapping)}); see decisions ledger")
        report.certificates["literal_amalgam"] = {
            "D": D.name, "psi1": list(psi1.mapping), "psi2": list(psi2.mapping)}
    rep2 = amalgam.find_amalgam(s, K, one_sided=False)
    report.check(
        f"supplementary: no two-sided amalgam among idempotent chains of "
        f"size <= {bound}", rep2.verdict == "NotFoundExhaustive")


def repro_fig4(report):
    A = catalog.make_figure("strictsimp")
    cls = structure.classify(A)
    report.check("strictsimp is strictly simple", cls.strictly_simple)
    report.check("strictly_simple_ap = AP", amalgam.strictly_simple_ap(A) is not None)
    report.check("simple_chain_ap = AP", amalgam.simple_chain_ap(A).has_ap)
    report.check("decide_ap agrees", amalgam.decide_ap(amalgam.variety(A)).has_ap)


def _knotted_span(which):
    if which == 1:
        A, B, C = (catalog.make_figure(n) for n in ("A1", "B1", "C1"))
    else:
        A, B, C = (catalog.make_figure(n) for n in ("A2", "B2", "C2"))
    return amalgam.span(A, B, C, _figure_embedding_by_labels(A, B),
                        _figure_embedding_by_labels(A, C))


def _trace_mentions(trace, B, C, merges, conflict_labels):
    """Did the trace merge each (label_B ~ label_C) pair and end in a
    contradiction among the given C-side labels?"""
    merged = {(B.labels[st[1]], C.labels[st[2]])
              for st in trace if st[0] in ("init", "R1", "R2", "R2'")}
    ok = all(pair in merged for pair in merges)
    last = trace[-1]
    if last[0] == "C1":
        side = B if last[1] == "B" else C
        ok = ok and {side.labels[last[2]], side.labels[last[3]]} <= set(conflict_labels)
    return ok


def _repro_knotted(report, which):
    s = _knotted_span(which)
    rep = amalgam.refute_chain_amalgam(s)
    report.check(f"refuter: Refuted for span {which}", rep.verdict == "Refuted")
    report.check("trace replays", amalgam.replay_refutation(s, rep))
    if which == 1:
        report.check("trace merges a ~ b then hits a ~ f",
                     _trace_mentions(rep.trace, s.B, s.C, {("a", "b")}, {"b", "f"}))
    else:
        report.check("trace merges x ~ y then hits y ~ z",
                     _trace_mentions(rep.trace, s.B, s.C, {("x", "y")}, {"y", "z"}))
    report.certificates["trace"] = [list(st) for st in rep.trace]
    bound = search_bound()
    K = amalgam.ClassSpec.bounded(bound, signature=("f",))
    search = amalgam.find_amalgam(s, K)
    report.certificates["bound"] = bound
    report.check(f"no amalgam among f-chains of size <= {bound}",
                 search.verdict == "NotFoundExhaustive")


def repro_fig5(report):
    _repro_knotted(report, 1)


def repro_fig6(report):
    _repro_knotted(report, 2)


def repro_godel(report):
    expected = {2: True, 3: True, 4: False, 5: False}
    for m, want in expected.items():
        r = amalgam.decide_ap(amalgam.variety(catalog.make_goedel(m)))
        report.check(f"V(G_{m}) is {'AP' if want else 'NotAP'}", r.has_ap == want)
        if not want:
            s = r.span_witness
            report.check(f"V(G_{m}) witness has |A| = 3 and |C| = 4",
                         s is not None and s.A.size == 3 and s.C.size == 4)
            report.certificates[f"G_{m}_witness"] = repr(s)


def repro_rsa(report):
    r2 = amalgam.decide_ap(amalgam.variety(catalog.make_rsa(2)))
    r3 = amalgam.decide_ap(amalgam.variety(catalog.make_rsa(3)))
    report.check("V(R_2) is AP", r2.has_ap)
    report.check("V(R_3) is NotAP", not r3.has_ap)
    report.certificates["R_3_witness"] = repr(r3.span_witness)


def repro_sugihara(report):
    for n, want in ((2, True), (3, True), (4, True), (5, False), (6, False)):
        r = amalgam.decide_ap(amalgam.variety(catalog.make_sugihara(n)))
        report.check(f"V(S_{n}) is {'AP' if want else 'NotAP'}", r.has_ap == want)
    r = amalgam.decide_ap(amalgam.variety(catalog.make_sugihara(2),
                                          catalog.make_sugihara(3)))
    report.check("V(S_2, S_3) is AP", r.has_ap)


def repro_dmm(report):
    for p in (2, 3):
        M = catalog.make_dmm(p)
        subs = structure.subuniverses(M)
        want = ((0, 1, M.size - 2, M.size - 1), tuple(M.elements))
        report.check(f"M_{p} subuniverses are {{0,1,2^p,2^(p+1)}} and full",
                     subs == want)
        report.check(f"M_{p} is simple", structure.classify(M).simple)
        report.check(f"simple_chain_ap(M_{p}) = AP", amalgam.simple_chain_ap(M).has_ap)
        report.check(f"decide_ap(V(M_{p})) agrees",
                     amalgam.decide_ap(amalgam.variety(M)).has_ap)


def admissible_components():
    """Admissible, nested-sum-indecomposable catalog components (the round
    trip can only hold componentwise for sum atoms: S_5 is itself S_3 + S_3)."""
    out = [catalog.make_com(m, n).reduct() for m in range(0, 2) for n in range(0, 2)]
    out.append(catalog.make_sugihara(3).reduct())
    out.append(catalog.make_figure("strictsimp").reduct())
    out.append(catalog.make_figure("A1").reduct())
    return [c for c in out if properties.is_admissible(c)]


def final_components():
    """Atoms allowed in the last slot (integral ones included)."""
    pool = admissible_components()
    pool.append(catalog.make_luk(2, "hoop").reduct())
    pool.append(catalog.make_luk(3, "hoop").reduct())
    pool.append(catalog.make_rsa(2).reduct())
    return pool


def repro_comdecomp(report):
    rng = random.Random(repro_seed())
    admissible = admissible_components()
    finals = final_components()
    trips = 0
    for _ in range(100):
        k = rng.randint(1, 3)
        comps = [rng.choice(admissible) for _ in range(k - 1)] + [rng.choice(finals)]
        glued = nsum.nested_sum(comps)
        parts = nsum.factor_nested_sum(glued)
        ok = nsum.components_isomorphic(parts, comps)
        trips += ok
        if not ok:
            report.check(f"round trip failed for {[c.name for c in comps]}", False)
    report.check("100 seeded random admissible compositions round-trip",
                 trips == 100)
    report.certificates["round_trips"] = trips

    checked, decomposed = 0, 0
    for n in range(1, 7):
        for A in enumerate_chains(n, require={"commutative": True,
                                              "idempotent": True}):
            checked += 1
            decomposed += bool(_com_decomposition_ok(A))
    report.check(f"all {checked} commutative idempotent chains of size <= 6 "
                 "factor as (sum of C(m,n)) + R_p", decomposed == checked)
    report.certificates["com_idem_chains"] = checked


def _is_com_shape(X):
    for m in range(X.size):
        for n in range(X.size):
            if m + n + 3 == X.size:
                if are_isomorphic(X, catalog.make_com(m, n)) is not None:
                    return True
    return False


def _is_rsa_shape(X):
    return are_isomorphic(X, catalog.make_rsa(X.size)) is not None


def _com_decomposition_ok(A):
    """Does A factor per the commutative idempotent decomposition lemma:
    C(m_i, n_i) components followed by a final R_p (possibly trivial)?"""
    if properties.is_integral(A):
        return _is_rsa_shape(A)   # pure R_p case (k = 0)
    parts = nsum.factor_nested_sum(A)
    for i, X in enumerate(parts):
        last = i == len(parts) - 1
        if _is_com_shape(X):
            continue
        if last and _is_rsa_shape(X):
            continue
        return False
    return True


RUNNERS = {
    "fig1": repro_fig1, "fig3": repro_fig3, "fig4": repro_fig4,
    "fig5": repro_fig5, "fig6": repro_fig6, "godel": repro_godel,
    "rsa": repro_rsa, "sugihara": repro_sugihara, "dmm": repro_dmm,
    "comdecomp": repro_comdecomp,
}
TARGETS = tuple(RUNNERS)


def run_repro(target):
    if target not in RUNNERS:
        raise BadParameter(f"unknown repro target {target!r} (one of {TARGETS})")
    report = ReproReport(target)
    t0 = time.perf_counter()
    RUNNERS[target](report)
    report.seconds = time.perf_counter() - t0
    return report
