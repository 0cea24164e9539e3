"""Acceptance criteria, one test (and one printed pass/fail line) each.

Bounded searches honour RLW_BOUND (8 unless set, by conftest).  Criterion 8's
literal one-sided reading is asserted under strict xfail: the collapse
homomorphism makes it unattainable (see the decisions ledger); its sound
two-sided variant is criterion 8s.
"""
import time

import pytest

from rlw import (congruences, decide_ap, has_cep, principal_congruence,
                 variety)
from rlw import amalgam, catalog, properties, repro, structure
from rlw.catalog import catalog_all, make_dmm, make_goedel, make_rsa, make_sugihara

from oracles import congruences_bruteforce

# time limit, in seconds, for each bounded amalgam search at any bound
BOUNDED_SEARCH_LIMIT_S = 120


def report(criterion, ok, seconds, limit, detail=""):
    line = (f"criterion {criterion}: {'PASS' if ok else 'FAIL'} "
            f"({seconds:.1f}s, limit {limit}s){' - ' + detail if detail else ''}")
    print(line)
    assert ok, line
    assert seconds < limit, f"criterion {criterion} exceeded {limit}s"


def run_target(name):
    rep = repro.run_repro(name)
    detail = "; ".join(l for l in rep.lines if l.startswith("FAIL"))
    return rep, detail


def test_criterion_01_cep_failure_fig1():
    t0 = time.perf_counter()
    rep, detail = run_target("fig1")
    report("01 fig1 CEP failure", rep.ok, time.perf_counter() - t0, 5, detail)


def test_criterion_02_goedel_classification():
    t0 = time.perf_counter()
    rep, detail = run_target("godel")
    report("02 Goedel classification", rep.ok, time.perf_counter() - t0, 60, detail)


def test_criterion_03_relative_stone():
    t0 = time.perf_counter()
    rep, detail = run_target("rsa")
    report("03 relative Stone", rep.ok, time.perf_counter() - t0, 30, detail)


def test_criterion_04_sugihara():
    t0 = time.perf_counter()
    rep, detail = run_target("sugihara")
    report("04 Sugihara classification", rep.ok, time.perf_counter() - t0, 300, detail)


def test_criterion_05_strictly_simple():
    t0 = time.perf_counter()
    rep, detail = run_target("fig4")
    report("05 strictly simple (fig4)", rep.ok, time.perf_counter() - t0, 10, detail)


def test_criterion_06_de_morgan():
    t0 = time.perf_counter()
    rep, detail = run_target("dmm")
    report("06 De Morgan chains", rep.ok, time.perf_counter() - t0, 60, detail)


def test_criterion_07_knotted_refutations():
    t0 = time.perf_counter()
    for which, target in ((1, "fig5"), (2, "fig6")):
        t1 = time.perf_counter()
        s = repro._knotted_span(which)
        rep = amalgam.refute_chain_amalgam(s)
        refuter_seconds = time.perf_counter() - t1
        assert rep.verdict == "Refuted" and refuter_seconds < 1.0
        full, detail = run_target(target)
        assert full.ok, detail
    bound = repro.search_bound()
    report("07 knotted refutations", True, time.perf_counter() - t0,
           2 * BOUNDED_SEARCH_LIMIT_S, f"bound {bound}")


@pytest.mark.xfail(strict=True,
                   reason="paper/spec defect: the collapse homomorphism is "
                          "always a one-sided amalgam for a trivial-source "
                          "span (see decisions ledger)")
def test_criterion_08_idempotent_counterexample_literal():
    t0 = time.perf_counter()
    bound = repro.search_bound()
    s = repro.fig3_span()
    K = amalgam.ClassSpec.bounded(bound, require={"idempotent": True})
    rep = amalgam.find_amalgam(s, K, one_sided=True)
    ok = rep.verdict == "NotFoundExhaustive"
    print(f"criterion 08 (literal one-sided): {'PASS' if ok else 'FAIL'} "
          f"({time.perf_counter() - t0:.1f}s, bound {bound}) - unattainable, "
          f"expected failure")
    assert ok


def test_criterion_08s_idempotent_counterexample_two_sided():
    t0 = time.perf_counter()
    bound = repro.search_bound()
    s = repro.fig3_span()
    K = amalgam.ClassSpec.bounded(bound, require={"idempotent": True})
    rep = amalgam.find_amalgam(s, K, one_sided=False)
    report("08s fig3 two-sided (supplementary)",
           rep.verdict == "NotFoundExhaustive", time.perf_counter() - t0,
           BOUNDED_SEARCH_LIMIT_S, f"bound {bound}")


def test_criterion_09_nested_sum():
    t0 = time.perf_counter()
    rep, detail = run_target("comdecomp")
    report("09 nested-sum round trip + decomposition", rep.ok,
           time.perf_counter() - t0, 600, detail)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    pool = catalog_all(max_size=9)
    failures = []
    for A in pool:
        # residuation law, all triples
        for x in A.elements:
            for y in A.elements:
                for z in A.elements:
                    if (A.mult[x][y] <= z if A.chain else A.leq[A.mult[x][y]][z]) != \
                            (y <= A.lres[x][z] if A.chain else A.leq[y][A.lres[x][z]]):
                        failures.append((A.name, "residuation", (x, y, z)))
        # congruence <-> CNS bijection
        if len(congruences(A)) != len(set(structure.convex_normal_subalgebras(A))):
            failures.append((A.name, "cns"))
        # handy-lemma fixed-point bound on chains
        if A.is_totally_ordered:
            for d in A.elements:
                if len(properties.handy_fixed_points(A, d)) > 1:
                    failures.append((A.name, "handy", d))
            if not structure.classify(A).fsi:
                failures.append((A.name, "fsi"))
        # commutative implies CEP
        if properties.is_commutative(A) and not has_cep(A).holds:
            failures.append((A.name, "cep"))
    # Sugihara / De Morgan involutivity
    for A in [make_sugihara(n) for n in range(1, 10)] + [make_dmm(2), make_dmm(3)]:
        f = A.constant("f")
        for x in A.elements:
            if A.lres[A.lres[x][f]][f] != x:
                failures.append((A.name, "involution", x))
    report("10 property suites", not failures, time.perf_counter() - t0, 300,
           f"{len(pool)} algebras" + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_11_oracle_equivalence():
    t0 = time.perf_counter()
    # congruences against the partition brute force, size <= 6
    for A in catalog_all(max_size=6):
        if A.size > 6:
            continue
        fast = {c.blocks for c in congruences(A)}
        slow = {c.blocks for c in congruences_bruteforce(A)}
        assert fast == slow, A.name
        for a in A.elements:
            for b in A.elements:
                th = principal_congruence(A, a, b)
                least = min((c for c in congruences_bruteforce(A)
                             if c.block_of(a) == c.block_of(b)),
                            key=lambda c: A.size - c.nblocks)
                assert th.blocks == least.blocks
    # decide_ap cross-check mode on the criteria 2-6 varieties
    gens = ([make_goedel(m) for m in (2, 3, 4, 5)]
            + [make_rsa(2), make_rsa(3)]
            + [make_sugihara(n) for n in (2, 3, 4, 5, 6)]
            + [catalog.make_figure("strictsimp"), make_dmm(2), make_dmm(3)])
    for g in gens:
        res = decide_ap(variety(g), cross_check=True)
        assert res.cross_check["eap"] == res.has_ap, g.name
    report("11 oracle equivalence", True, time.perf_counter() - t0, 600)
