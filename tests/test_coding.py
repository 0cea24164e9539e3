"""Results must not depend on how a totally ordered algebra numbers its
elements: a chain written as a matrix order with its elements permuted gives
the results of its canonical coding, mapped back through the permutation."""
import random

from hypothesis import given, strategies as st

from rlw import (ClassSpec, class_has_1ap, classify, congruences, convex_normal_subalgebras,
                 decide_ap, find_amalgam, has_cep, property_profile, refute_chain_amalgam,
                 replay_refutation, span, subuniverses, variety)
from rlw.amalgam import _dedup_by_iso
from rlw.catalog import catalog_all, make_figure, make_goedel, make_sugihara

import oracles

CATALOG = [A for A in catalog_all(6) if A.size > 1]


def _non_identity(n):
    return st.permutations(range(n)).filter(lambda p: list(p) != list(range(n)))


@st.composite
def recodings(draw, algebras):
    """(A, perm) with perm a non-identity permutation of A's carrier."""
    A = draw(st.sampled_from(algebras))
    return A, list(draw(_non_identity(A.size)))


def _mapped(sets, back):
    return {frozenset(back[x] for x in s) for s in sets}


@given(recodings(CATALOG))
def test_structure_invariant_under_recoding(case):
    A, perm = case
    R = oracles.relabelled(A, perm)
    assert not R.chain and R.is_totally_ordered
    back = {y: x for x, y in enumerate(perm)}
    assert ({frozenset(_mapped(c.blocks, back)) for c in congruences(R)}
            == {frozenset(map(frozenset, c.blocks)) for c in congruences(A)})
    assert _mapped(subuniverses(R), back) == {frozenset(s) for s in subuniverses(A)}
    assert has_cep(R).holds == has_cep(A).holds
    assert decide_ap(variety(R)).verdict == decide_ap(variety(A)).verdict


def test_classification_cns_and_profile_invariant_under_recoding():
    # every catalog_all(9) algebra with more than one element, under one
    # fixed non-identity permutation each
    rng = random.Random(9)
    checked = 0
    for A in catalog_all(9):
        if A.size == 1:
            continue
        perm = list(A.elements)
        while perm == sorted(perm):
            rng.shuffle(perm)
        R = oracles.relabelled(A, perm)
        back = {y: x for x, y in enumerate(perm)}
        assert property_profile(R) == property_profile(A), A.name
        assert (_mapped(convex_normal_subalgebras(R), back)
                == set(convex_normal_subalgebras(A))), A.name
        got, want = classify(R), classify(A)
        assert ((got.fsi, got.si, got.simple, got.strictly_simple)
                == (want.fsi, want.si, want.simple, want.strictly_simple)), A.name
        assert ((got.monolith and _mapped(got.monolith.blocks, back))
                == (want.monolith and set(map(frozenset, want.monolith.blocks)))), A.name
        checked += 1
    assert checked == 81


def _by_labels(X, Y):
    return [Y.labels.index(lbl) for lbl in X.labels]


def _span_cases():
    """(span, class, one_sided) triples over canonical codings."""
    cases = []
    for names in (("A1", "B1", "C1"), ("A2", "B2", "C2")):
        A, B, C = (make_figure(n) for n in names)
        cases.append((span(A, B, C, _by_labels(A, B), _by_labels(A, C)),
                      [B, C], False))
    G2, G3, G4 = make_goedel(2), make_goedel(3), make_goedel(4)
    goedel = [make_goedel(m) for m in range(1, 6)]
    cases.append((span(G3, G4, G4, [0, 1, 3], [0, 2, 3]), goedel[:4], True))
    cases.append((span(G3, G4, G4, [0, 1, 3], [0, 2, 3]), goedel, False))
    cases.append((span(G2, G3, G3, [0, 2], [0, 2]), goedel[:3], False))
    cases.append((span(G3, G3, G3, [0, 1, 2], [0, 1, 2]), [G3], False))
    S3, S5 = make_sugihara(3), make_sugihara(5)
    cases.append((span(S3, S5, S5, [0, 2, 4], [0, 2, 4]), [S5], False))
    return cases


SPANS = _span_cases()


@given(st.sampled_from(range(len(SPANS))), st.sampled_from(("B", "C", "BC")), st.data())
def test_span_verdicts_invariant_under_recoding(which, sides, data):
    s, members, one_sided = SPANS[which]
    legs = {"B": (s.B, s.phi1.mapping), "C": (s.C, s.phi2.mapping)}
    for side in sides:
        X, phi = legs[side]
        perm = data.draw(_non_identity(X.size))
        legs[side] = (oracles.relabelled(X, perm), [perm[v] for v in phi])
    (B, phi1), (C, phi2) = legs["B"], legs["C"]
    r = span(s.A, B, C, phi1, phi2)

    want, got = refute_chain_amalgam(s), refute_chain_amalgam(r)
    assert got.verdict == want.verdict
    if want.verdict == "Refuted":
        assert replay_refutation(r, got) and replay_refutation(s, want)
    K = ClassSpec.explicit(members)
    assert (find_amalgam(r, K, one_sided).verdict
            == find_amalgam(s, K, one_sided).verdict)


def test_reversed_goedel_span_is_amalgamable():
    # G_3 -> (G_3, G_3 numbered top to bottom): the identity amalgamates it,
    # so the refuter must not certify that no chain amalgam exists
    G3 = make_goedel(3)
    R = oracles.relabelled(G3, [2, 1, 0])
    s = span(G3, G3, R, [0, 1, 2], [2, 1, 0])
    rep = refute_chain_amalgam(s)
    assert rep.verdict != "Refuted"
    assert not replay_refutation(s, rep)
    assert find_amalgam(s, ClassSpec.explicit([G3])).verdict == "Found"


def test_recoded_member_is_deduplicated():
    chains = [make_goedel(m) for m in (1, 2, 3)]
    R = oracles.relabelled(chains[2], [2, 1, 0])
    assert len(_dedup_by_iso([chains[2], R])) == 1
    assert class_has_1ap(chains + [R]) == class_has_1ap(chains)
    chains4 = [make_goedel(m) for m in (1, 2, 3, 4)]
    R4 = oracles.relabelled(chains4[3], [1, 3, 0, 2])
    res = class_has_1ap(chains4 + [R4])
    assert not res.holds
    assert repr(res.witness) == repr(class_has_1ap(chains4).witness)
