import os
import random
import subprocess
import sys

import pytest

from rlw import (ClassSpec, NotAChain, NotSemilinear, NotSimple, SignatureMismatch,
                 class_has_1ap, class_has_eap, decide_ap, find_amalgam,
                 fsi_chains, is_essential, refute_chain_amalgam,
                 replay_refutation, simple_chain_ap, span, strictly_simple_ap,
                 variety)
from rlw.algebra import NotAHomomorphism, NotAnEmbedding
from rlw.amalgam import _ExplicitClass, _Merge, _dedup_by_iso, _span, _spans_of
from rlw.catalog import (catalog_all, make_dmm, make_entry, make_figure, make_goedel,
                         make_luk, make_rsa, make_sugihara)
from rlw.properties import is_semilinear
from rlw.structure import subalgebra, subalgebras, subuniverses

import oracles


def by_labels(A, B):
    return [B.labels.index(lbl) for lbl in A.labels]


def ladder(goedel_to=9):
    """Generator tuples of the ap-ladder: G_2 up to G_goedel_to, S_2-S_12,
    L_2-L_12 (MV), R_2, R_3, M_2, M_3, strictsimp and (S_2, S_3)."""
    out = [(make_goedel(m),) for m in range(2, goedel_to + 1)]
    out += [(make_sugihara(n),) for n in range(2, 13)]
    out += [(make_luk(n, "mv"),) for n in range(2, 13)]
    return out + [(make_rsa(2),), (make_rsa(3),), (make_dmm(2),), (make_dmm(3),),
                  (make_figure("strictsimp"),), (make_sugihara(2), make_sugihara(3))]


def knotted_span(which):
    if which == 1:
        A, B, C = (make_figure(n) for n in ("A1", "B1", "C1"))
    else:
        A, B, C = (make_figure(n) for n in ("A2", "B2", "C2"))
    return span(A, B, C, by_labels(A, B), by_labels(A, C))


def test_identity_span_found():
    A = make_goedel(3)
    s = span(A, A, A, list(A.elements), list(A.elements))
    rep = find_amalgam(s, ClassSpec.explicit([make_goedel(1), A]))
    assert rep.verdict == "Found"
    D, psi1, psi2 = rep.amalgam
    assert D.key() == A.key()
    assert psi1.mapping == psi2.mapping == tuple(A.elements)


def test_goedel_counterexample_span_not_found():
    # the classical Goedel counterexample span for m = 4 has no one-sided
    # amalgam among
    # the chains of V(G_4)
    G3, G4 = make_goedel(3), make_goedel(4)
    s = span(G3, G4, G4, [0, 1, 3], [0, 2, 3])
    K = ClassSpec.explicit([make_goedel(m) for m in (1, 2, 3, 4)])
    assert find_amalgam(s, K, one_sided=True).verdict == "NotFoundExhaustive"
    # but it is found once G_5 enters the class
    K5 = ClassSpec.explicit([make_goedel(m) for m in (1, 2, 3, 4, 5)])
    assert find_amalgam(s, K5, one_sided=True).verdict == "Found"


def test_refuter_on_both_knotted_spans():
    for which in (1, 2):
        s = knotted_span(which)
        rep = refute_chain_amalgam(s)
        assert rep.verdict == "Refuted"
        assert replay_refutation(s, rep)


def test_refuter_trace_contents():
    s1 = knotted_span(1)
    rep = refute_chain_amalgam(s1)
    merged = {(s1.B.labels[st[1]], s1.C.labels[st[2]])
              for st in rep.trace if st[0] != "C1"}
    assert ("a", "b") in merged
    last = rep.trace[-1]
    assert last[0] == "C1"
    s2 = knotted_span(2)
    rep2 = refute_chain_amalgam(s2)
    merged2 = {(s2.B.labels[st[1]], s2.C.labels[st[2]])
               for st in rep2.trace if st[0] != "C1"}
    assert ("x", "y") in merged2


def test_refuter_unknown_on_amalgamable_span():
    A = make_goedel(3)
    s = span(A, A, A, list(A.elements), list(A.elements))
    assert refute_chain_amalgam(s).verdict == "Unknown"
    s2 = span(make_goedel(2), make_goedel(3), make_goedel(3), [0, 2], [0, 2])
    assert refute_chain_amalgam(s2).verdict == "Unknown"


def test_refuter_mirror_rule_toggle():
    s = knotted_span(1)
    rep = refute_chain_amalgam(s, mirror_rule=True)
    assert rep.verdict == "Refuted"
    assert replay_refutation(s, rep)


def test_merge_c2_note_states_the_flip():
    # each flip direction is reported as found: the B-side pair in B's order,
    # then their partners in the opposite order in C
    G3 = make_goedel(3)
    m = _Merge(G3, G3)
    assert m.add(0, 2, "init", "") is None
    assert m.add(2, 0, "init", "") == \
        ("C2", "-", (2, 0), (0, 2), "-2 < 0 in B but -2 < 0 in C")
    B, C = make_goedel(3), make_goedel(4)
    for first, second in (((0, 3), (2, 1)), ((2, 1), (0, 3)),
                          ((0, 1), (2, 0)), ((2, 0), (0, 1))):
        m = _Merge(B, C)
        assert m.add(*first, "init", "") is None
        rule, _, p, q, note = m.add(*second, "init", "")
        assert rule == "C2"
        b_side, c_side = note.removesuffix(" in C").split(" in B but ")
        b_lo, b_hi = (B.labels.index(x) for x in b_side.split(" < "))
        c_hi, c_lo = (C.labels.index(x) for x in c_side.split(" < "))
        assert B.leq[b_lo][b_hi] and b_lo != b_hi
        assert C.leq[c_hi][c_lo] and c_lo != c_hi
        assert {p, q} == {(b_lo, c_lo), (b_hi, c_hi)}


def test_refuter_requires_chains():
    B22 = oracles.boolean_square()
    triv = subalgebra(B22, (3,), name="T")
    s = span(triv, B22, B22, [3], [3])
    with pytest.raises(NotAChain):
        refute_chain_amalgam(s)


def test_span_checks_its_legs():
    # span() checks each leg with morphism(); Span rejects a non-injective
    # leg with NotAnEmbedding, as is_essential and essentialize do
    G2, G3 = make_goedel(2), make_goedel(3)
    with pytest.raises(NotAHomomorphism):   # [0, 1] does not keep the unit
        span(G2, G3, G3, [0, 1], [0, 2])
    R2, R3 = make_rsa(2), make_rsa(3)
    with pytest.raises(NotAnEmbedding):
        span(R3, R2, R3, [0, 1, 1], [0, 1, 2])
    # is_essential on that leg: test_morphisms.test_not_an_embedding


def test_refuted_implies_bounded_not_found():
    # soundness of Refuted against the bounded search, at a small bound
    s = knotted_span(1)
    K = ClassSpec.bounded(5, signature=("f",))
    assert find_amalgam(s, K).verdict == "NotFoundExhaustive"


def _report(rep):
    """Everything a report of `find_amalgam` says, as plain data."""
    found = rep.amalgam and (rep.amalgam[0].name, rep.amalgam[0].unit,
                             rep.amalgam[1].mapping, rep.amalgam[2].mapping)
    return rep.verdict, found, rep.class_info


def test_find_amalgam_matches_every_member_oracle(monkeypatch):
    # completing only the chains that extend B, and listing only the first
    # (size, unit) with an amalgam, changes no report: one-sided and
    # two-sided, on the knotted spans, fig3, the spans over the chains of
    # catalog_all(4) (figures of up to 10 elements among them, so B or C above
    # the bound), explicit classes, spans with a matrix-coded B or C, with
    # bot, top and f, over filtered classes, and out of a B that is not a
    # chain.  The oracle lists each size of a bounded class once per test
    from functools import lru_cache
    from rlw import completion, repro
    enumerate_chains = completion.enumerate_chains
    listed = lru_cache(None)(lambda n, require, sig: tuple(
        enumerate_chains(n, dict(require), sig)))
    memo = lambda n, require=None, constants=(): iter(
        listed(n, tuple(sorted((require or {}).items())), tuple(constants)))
    monkeypatch.setattr(completion, "enumerate_chains", memo)
    G3, G4 = make_goedel(3), make_goedel(4)
    goedel = span(G3, G4, G4, [0, 1, 3], [0, 2, 3])
    cases = [(knotted_span(w), ClassSpec.bounded(5, signature=k))
             for w in (1, 2) for k in (("f",), ())]
    cases.append((repro.fig3_span(), ClassSpec.bounded(6, require={"idempotent": True})))
    cases += [(goedel, ClassSpec.explicit([make_goedel(m) for m in range(1, top)]))
              for top in (5, 6)]
    groups = {}
    for A in catalog_all(4):
        if A.is_totally_ordered:
            groups.setdefault(tuple(sorted(dict(A.constants))), []).append(A)
    # bot and top, with and without f
    groups[("bot", "top")] = [G.with_constants(G.name, {"bot": 0, "top": G.size - 1})
                              for G in groups[("bot",)]]
    groups[("bot", "f", "top")] = [L.with_constants(L.name, dict(L.constants, top=L.size - 1))
                                   for L in groups[("bot", "f")]]
    spans = {}
    for sig, chains in groups.items():
        K = _dedup_by_iso(chains)
        spans[sig] = [_span(K, *entry) for entry in _spans_of(K)]
        cases += [(s, ClassSpec.bounded(bound, sig)) for bound in (3, 5) for s in spans[sig]]
    # B or C coded by a matrix in another numbering
    recoded = [(knotted_span(1), None), (goedel, None),
               (repro.fig3_span(), {"idempotent": True})]
    for s, require in recoded + [(s, None) for s in spans[()][::25]]:
        perm_B = list(reversed(s.B.elements))
        perm_C = [(x + 1) % s.C.size for x in s.C.elements]
        B, C = oracles.relabelled(s.B, perm_B), oracles.relabelled(s.C, perm_C)
        K = ClassSpec.bounded(5, s.B.signature, require)
        cases += [(span(s.A, B, s.C, [perm_B[b] for b in s.phi1.mapping], s.phi2.mapping), K),
                  (span(s.A, s.B, C, s.phi1.mapping, [perm_C[c] for c in s.phi2.mapping]), K)]
    # filters built into the search, and two checked on members only
    for require in ({"idempotent": True}, {"commutative": True}, {"integral": True},
                    {"square_decreasing": True}, {"integral": False}):
        cases += [(s, ClassSpec.bounded(5, (), require)) for s in spans[()][::6]]
    # B not a chain: no placement, so no member is an amalgam
    square = oracles.boolean_square()
    triv = subalgebra(square, (square.unit,), name="T")
    cases.append((span(triv, square, make_rsa(2), [square.unit], [1]), ClassSpec.bounded(4)))
    assert any(max(s.B.size, s.C.size) > K.bound for s, K in cases if K.bound)
    reports = []
    for s, K in cases:
        for one_sided in (True, False):
            got = _report(find_amalgam(s, K, one_sided))
            assert got == _report(oracles.find_amalgam_every_member(s, K, one_sided)), (
                repr(s), K, one_sided)
            reports.append((one_sided, got))
    # among them a one-sided amalgam whose psi2 is not injective; and the B
    # that is not a chain has no amalgam, one-sided or two-sided
    assert any(one_sided and found and len(set(found[3])) < len(found[3])
               for one_sided, (_, found, _) in reports)
    assert [verdict for _, (verdict, _, _) in reports[-2:]] == ["NotFoundExhaustive"] * 2


def test_bounded_search_lists_chains_only_where_it_reports(monkeypatch):
    # the chains of one (size, unit) are listed only where one of them is an
    # amalgam: fig3's one-sided search lists those of its witness alone, and
    # fig5's exhaustive search lists none
    from rlw import amalgam, repro
    listed = []
    chains_at = amalgam.chains_at
    monkeypatch.setattr(amalgam, "chains_at",
                        lambda n, e, *args: listed.append((n, e)) or chains_at(n, e, *args))
    idem_chains = ClassSpec.bounded(6, require={"idempotent": True})
    rep = find_amalgam(repro.fig3_span(), idem_chains, one_sided=True)
    assert rep.found and rep.amalgam[0].name == "chain4u2n1" and listed == [(4, 2)]
    listed.clear()
    rep = find_amalgam(repro._knotted_span(1), ClassSpec.bounded(6, signature=("f",)))
    assert rep.verdict == "NotFoundExhaustive" and listed == []


def test_bounded_class_checks_its_filter():
    # the filter is checked when the class is made, with satisfies_flags'
    # messages, so an error is not lost when no member is built
    from rlw.algebra import BadParameter, ParseError
    for require in ({"bogus": True}, {"n_potent": -1}, {"equations": "x=x"}):
        with pytest.raises(BadParameter):
            ClassSpec.bounded(6, require=require)
    with pytest.raises(ParseError):
        ClassSpec.bounded(6, require={"equations": ["x*x=x", "x*=x"]})
    with pytest.raises(BadParameter, match="unknown property flag 'bogus'"):
        find_amalgam(knotted_span(2), ClassSpec.bounded(6, require={"bogus": True}))
    # whatever members the span lets the search build: an f-property needs
    # f in the signature, and '->' needs commutative: true
    with pytest.raises(BadParameter, match="needs the constant f"):
        ClassSpec.bounded(5, require={"involutive_f": True})
    with pytest.raises(ParseError, match="'->' needs commutative: true"):
        ClassSpec.bounded(6, signature=("f",), require={"equations": ["x->y=x->y"]})
    K = ClassSpec.bounded(6, signature=("f",),
                          require={"commutative": True, "equations": ["x->y=x->y"]})
    assert find_amalgam(knotted_span(2), K).verdict == "NotFoundExhaustive"


@pytest.mark.parametrize("bound", [-2, 0, 2.5, True, "6"])
def test_bounded_class_refuses_a_bad_bound(bound):
    # an empty class would make every search NotFoundExhaustive
    from rlw.algebra import BadParameter
    with pytest.raises(BadParameter, match="bound must be an integer >= 1"):
        ClassSpec.bounded(bound)


def test_essential_spans():
    s1 = knotted_span(1)
    assert is_essential(s1.phi2)
    A = make_goedel(3)
    assert is_essential(span(A, A, A, list(A.elements), list(A.elements)).phi2)
    triv = subalgebra(make_rsa(2), (1,), name="T")
    s = span(triv, make_rsa(2), make_rsa(3), [1], [2])
    assert not is_essential(s.phi2)


def test_span_enumeration_order():
    K = [make_goedel(m) for m in (1, 2, 3)]
    spans = [_span(K, *entry) for entry in _spans_of(K)]
    sizes = [(s.B.size + s.C.size, s.C.size) for s in spans]
    assert sizes == sorted(sizes)


def test_class_checks_goedel():
    chains3 = [make_goedel(m) for m in (1, 2, 3)]
    assert class_has_1ap(chains3).holds
    assert class_has_eap(chains3).holds
    chains4 = [make_goedel(m) for m in (1, 2, 3, 4)]
    res = class_has_1ap(chains4)
    assert not res.holds
    witness = res.witness
    assert witness.A.size == 3 and witness.C.size == 4
    assert witness.phi1.mapping == (0, 1, 3) and witness.phi2.mapping == (0, 2, 3)
    assert not class_has_eap(chains4).holds


def _through_first_failure(answers):
    """(span, amalgam) pairs, an amalgam as (D's name, psi1, psi2) mappings
    or None, as (repr, amalgamates, amalgam) up to the first None."""
    out = []
    for s, amalgam in answers:
        out.append((repr(s), amalgam is not None, amalgam))
        if amalgam is None:
            break
    return out


@pytest.mark.parametrize("family", ["ladders", "catalog"])
def test_span_verdicts_match_find_amalgam_oracle(family):
    # restriction sets and the onto skip answer each span as one find_amalgam
    # search through the class does, one-sided and essential/two-sided, on
    # every span a class check examines (all spans up to the first failure);
    # the amalgam found is find_amalgam's too: the same D, psi1 and psi2
    if family == "ladders":
        gens = [make_goedel(m) for m in range(2, 10)]
        gens += [make_sugihara(n) for n in range(2, 13)]
    else:
        gens = [A for A in catalog_all(7) if is_semilinear(A)]
    classes = {}
    for g in gens:
        chains = fsi_chains(variety(g))
        classes.setdefault(tuple(c.key() for c in chains), chains)
    for chains in classes.values():
        K = _ExplicitClass(chains)
        for one_sided in (True, False):
            got = []
            for entry, ok in K.span_verdicts(one_sided):
                found = K._amalgam(*entry, one_sided)
                assert ok == (found is not None), (entry, one_sided)
                got.append((_span(K.K, *entry), found and (found[0].name, *found[1:])))
                if not ok:
                    break
            want = oracles.span_amalgams_by_find_amalgam(chains, one_sided)
            assert (_through_first_failure(got) == _through_first_failure(want)
                    ), (chains[-1].name, one_sided)


def _relabel_members(chains):
    # matrix-coded, with a numbering that is not the order
    return [oracles.relabelled(c, [(x * 3 + 1) % c.size if c.size % 3 else c.size - 1 - x
                                   for x in range(c.size)]) for c in chains]


def test_class_hom_lists_match_homs():
    # the hom lists read off Con x Sub, and the span embeddings read off Sub,
    # equal the backtracking search's lists in order, on every pair of
    # members, in the chain coding and relabelled as matrices
    from rlw.morphisms import embeddings, hom_maps, homs
    classes = {}
    for gens in ladder() + [(A,) for A in catalog_all(7) if is_semilinear(A)]:
        chains = fsi_chains(variety(*gens))
        classes.setdefault(tuple(c.key() for c in chains), chains)
    cases = [members for chains in classes.values()
             for members in (chains, _relabel_members(chains))]
    # not all chains: the boolean square's lists come from the search
    cases.append([make_goedel(1).reduct(), make_goedel(2).reduct(), oracles.boolean_square()])
    pairs = 0
    for members in cases:
        K = _ExplicitClass(members)
        for i, C in enumerate(K.K):
            for j, D in enumerate(K.K):
                for injective in (True, False):
                    got = list(hom_maps(C, D, injective))
                    want = [m.mapping for m in homs(C, D, injective=injective)]
                    assert got == want, (C.name, D.name, injective)
                pairs += 1
        spans = {}
        for bi, leg, ci, phi2 in _spans_of(K.K):
            s = _span(K.K, bi, leg, ci, phi2)
            assert (s.B, s.C, s.phi2.mapping) == (K.K[bi], K.K[ci], phi2)
            spans.setdefault((bi, leg, ci), []).append(s.phi2.mapping)
        for bi, B in enumerate(K.K):
            for leg, (_, A, _) in enumerate(subalgebras(B)):
                for ci, C in enumerate(K.K):
                    want = [m.mapping for m in embeddings(A, C)]
                    assert spans.get((bi, leg, ci), []) == want, (A.name, C.name)
    assert (len(classes), pairs) == (72, 2 * 2189 + 9)   # 983 pairs of the 36 ladder classes


def test_span_amalgams_match_per_span_oracle():
    # the shared R1 and R2 answer every span of the ladder classes, chain-coded
    # and relabelled as matrices, as restriction sets built per span from the
    # backtracking search do, and report find_amalgam's amalgam: first D,
    # then the first psi1 in homs order whose restriction R2 holds, then the
    # first psi2 with it (G_9 is left out: its 25,740 spans per coding and side
    # would triple the test's time).  On the ladder classes R1 and R2 never
    # share more than one restriction; the boolean square's automorphism gives
    # two, and its first psi1 does not have the least of them.
    classes = {}
    for gens in ladder(goedel_to=8):
        chains = fsi_chains(variety(*gens))
        classes.setdefault(tuple(c.key() for c in chains), chains)
    cases = [members for chains in classes.values()
             for members in (chains, _relabel_members(chains))]
    cases.append([make_goedel(1).reduct(), make_goedel(2).reduct(), oracles.boolean_square()])
    spans = 0
    for members in cases:
        for one_sided in (True, False):
            K = _ExplicitClass(members)
            got = list(_spans_of(K.K))
            want = list(oracles.span_amalgams(members, one_sided))
            assert [repr(_span(K.K, *entry)) for entry in got] == [repr(s) for s, _ in want]
            for entry, (s, amalgam) in zip(got, want):
                found = K._amalgam(*entry, one_sided)
                if amalgam is None:
                    assert found is None, (s, one_sided)
                else:
                    assert found is not None and found[0] is amalgam[0], (s, one_sided)
                    assert list(found[1:]) == [m.mapping for m in amalgam[1:]]
            spans += len(got)
    assert spans > 0


def test_decide_ap_searches_no_homs(monkeypatch):
    # on the ap-ladder every hom list is read off Con x Sub, so hom_maps never
    # falls back to the search, and each distinct certificate map is checked
    # by is_hom at most once per decide_ap call
    import rlw.amalgam
    import rlw.morphisms

    def no_search(*args, **kwargs):
        raise AssertionError("hom search")

    checked = []

    def recording(B, D, mapping, original=rlw.amalgam.is_hom):
        checked.append((id(B), id(D), tuple(mapping)))
        return original(B, D, mapping)

    monkeypatch.setattr("rlw.morphisms.homs", no_search)
    rlw.morphisms._hom_maps.cache_clear()   # lists from earlier calls would hide a search
    monkeypatch.setattr("rlw.amalgam.is_hom", recording)
    total = 0
    for gens in ladder():
        checked.clear()
        decide_ap(variety(*gens), cross_check=True)
        assert len(checked) == len(set(checked)), gens[0].name
        total += len(checked)
    assert total > 0


def test_bounded_searches_register_no_table_ids():
    # the table-id registry keeps one entry per table it has seen, so the
    # bounded searches, which meet each of thousands of chains once, must
    # not feed it: the refuter and find_amalgam at bound 6 (the
    # bounded-search workload's queries) and chain enumeration
    from rlw import repro
    from rlw.algebra import by_table_id
    from rlw.completion import enumerate_chains
    knotted = [repro._knotted_span(which) for which in (1, 2)]
    fig3 = repro.fig3_span()
    f_chains = ClassSpec.bounded(6, signature=("f",))
    idem_chains = ClassSpec.bounded(6, require={"idempotent": True})
    size = len(by_table_id)
    for s in knotted:
        assert replay_refutation(s, refute_chain_amalgam(s))
        assert find_amalgam(s, f_chains).verdict == "NotFoundExhaustive"
    assert find_amalgam(fig3, idem_chains, one_sided=True).found
    assert find_amalgam(fig3, idem_chains).verdict == "NotFoundExhaustive"
    assert len(list(enumerate_chains(5))) > 0
    assert len(by_table_id) == size


def test_verify_amalgam_raises_under_optimize():
    # the certificate check is explicit raises, not asserts, so -O keeps it
    code = """
from rlw import span
from rlw.amalgam import _verify_amalgam
from rlw.catalog import make_goedel
G2, G3, G4 = make_goedel(2), make_goedel(3), make_goedel(4)
def legs(s):
    return s.B, s.C, s.phi1.mapping, s.phi2.mapping
s = legs(span(G2, G3, G3, [0, 2], [0, 2]))
ident, collapse, non_hom = (0, 1, 2), (0, 2, 2), (0, 0, 2)
_verify_amalgam(*s, G3, ident, ident, False)
_verify_amalgam(*s, G3, ident, collapse, True)
knotted = legs(span(G3, G4, G4, [0, 1, 3], [0, 2, 3]))
ident4 = (0, 1, 2, 3)
bad = [(s, G3, collapse, collapse, True),    # psi1 not injective
       (s, G3, ident, non_hom, True),        # psi2 not a homomorphism
       (s, G3, ident, collapse, False),      # psi2 not injective, two-sided
       (knotted, G4, ident4, ident4, True)]  # psi1 o phi1 != psi2 o phi2
for legs_, *case in bad:
    try:
        _verify_amalgam(*legs_, *case)
    except AssertionError:
        continue
    raise SystemExit("accepted " + repr(case[1:]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_class_check_requires_subalgebra_closure():
    from rlw import NotSubalgebraClosed
    for check in (class_has_1ap, class_has_eap):
        with pytest.raises(NotSubalgebraClosed):
            check([make_goedel(3)])   # G_2-shaped subalgebra missing


def test_class_check_closure_is_up_to_relabelling():
    # B8 = 2^3 with mult = meet: its square subalgebra on {0, 1, 6, 7} is
    # numbered 0 < 1, 6 < 7; a member that codes the same square top-first
    # has another table, and the class is still closed up to isomorphism
    from rlw.algebra import finite_algebra
    B8 = finite_algebra("B8", 8, [[int(x & y == x) for y in range(8)] for x in range(8)],
                        7, [[x & y for y in range(8)] for x in range(8)])
    square = subalgebra(B8, (0, 1, 6, 7))
    top_first = oracles.relabelled(square, [3, 1, 2, 0])
    assert top_first.key() != square.key()
    for check in (class_has_1ap, class_has_eap):
        verdicts = [check([make_rsa(1), make_rsa(2), B8, sq]).holds for sq in (square, top_first)]
        assert verdicts == [True, True], check.__name__


def test_fsi_chains_goedel():
    chains = fsi_chains(variety(make_goedel(4)))
    assert [c.size for c in chains] == [1, 2, 3, 4]
    for c, m in zip(chains, (1, 2, 3, 4)):
        from rlw.morphisms import are_isomorphic
        assert are_isomorphic(c, make_goedel(m)) is not None


def test_fsi_chains_sugihara5():
    chains = fsi_chains(variety(make_sugihara(5)))
    assert [c.size for c in chains] == [1, 3, 5]
    # S_3 occurs (both the quotient and the {-2,0,2} subalgebra, deduped)
    from rlw.morphisms import are_isomorphic
    assert are_isomorphic(chains[1], make_sugihara(3)) is not None


def test_fsi_chains_trivial():
    chains = fsi_chains(variety(make_goedel(1)))
    assert len(chains) == 1 and chains[0].is_trivial


def test_fsi_chains_on_semilinear_product():
    # the boolean square with meet product is semilinear (product of 2-chains)
    B22 = oracles.boolean_square()
    chains = fsi_chains(variety(B22))
    assert [c.size for c in chains] == [1, 2]   # chains of HS(2x2)


# Factor pairs for V(A x B) = V(A, B), as catalog addresses, fixed in
# advance: at least one pair for each pair of catalog families that designate
# the same constants (goedel: bot; sugihara: f; luk mv: bot, f; dmm: f, bot,
# top; rsa, com and luk hoop: none), cepfail x R_2 for the CEP-failure
# verdict, and A1 x S_2 for a figure with f.
JONSSON_PAIRS = [
    (("goedel", 3), ("goedel", 4)), (("goedel", 4), ("goedel", 5)),
    (("sugihara", 3), ("sugihara", 4)), (("luk", 2), ("luk", 3)), (("luk", 4), ("luk", 6)),
    (("dmm", 2), ("dmm", 3)), (("rsa", 2), ("rsa", 3)), (("com", 0, 0), ("com", 1, 0)),
    (("luk", 2, "hoop"), ("luk", 3, "hoop")), (("rsa", 3), ("com", 0, 1)),
    (("rsa", 2), ("luk", 2, "hoop")), (("com", 1, 0), ("luk", 2, "hoop")),
    (("cepfail",), ("rsa", 2)), (("A1",), ("sugihara", 2)),
]


@pytest.mark.parametrize("a, b, relabel", [(a, b, False) for a, b in JONSSON_PAIRS]
                         + [(("sugihara", 3), ("sugihara", 4), True)],
                         ids=lambda v: ":".join(map(str, v)) if isinstance(v, tuple) else
                         ("relabelled" if v else "coded"))
def test_direct_product_generates_the_same_variety(a, b, relabel):
    # Jonsson's lemma: the FSI members of V(A x B) and of V(A, B) both lie in
    # HS(A, B), so they list the same chains and decide_ap gives the same
    # verdict; the product is no chain, so its subuniverses come from the
    # five-operation closure
    A, B = make_entry(*a), make_entry(*b)
    P = oracles.direct_product(A, B)
    if relabel:
        perm = list(P.elements)
        random.Random(3).shuffle(perm)
        P = oracles.relabelled(P, perm)
    assert not P.is_totally_ordered
    assert subuniverses(P) == oracles.subuniverses_by_closure(P)
    assert [c.key() for c in fsi_chains(variety(P))] == \
        [c.key() for c in fsi_chains(variety(A, B))]
    got, want = decide_ap(variety(P)), decide_ap(variety(A, B))
    assert (got.verdict, got.reason) == (want.verdict, want.reason)


def test_fsi_chains_match_all_subalgebras_oracle():
    # skipping isomorphic subalgebras changes no name, table or position
    presentations = [(A,) for A in catalog_all(6) if is_semilinear(A)]
    presentations += [(make_goedel(m),) for m in range(2, 9)]
    presentations += [(make_sugihara(n),) for n in range(2, 11)]
    presentations += [(make_luk(n, "mv"),) for n in range(2, 11)]
    presentations.append((make_sugihara(2), make_sugihara(3)))
    for gens in presentations:
        V = variety(*gens)
        got = [(c.name, c.key()) for c in fsi_chains(V)]
        want = [(c.name, c.key()) for c in oracles.fsi_chains_all_subalgebras(V)]
        assert got == want, V


def test_fsi_chains_rejects_nonsemilinear():
    with pytest.raises(NotSemilinear):
        fsi_chains(variety(oracles.square_nonsemilinear()))
    with pytest.raises(NotSemilinear):
        decide_ap(variety(make_goedel(2), oracles.square_nonsemilinear()))


def test_decide_ap_classifications():
    assert decide_ap(variety(make_goedel(2))).has_ap
    assert decide_ap(variety(make_goedel(3))).has_ap
    assert not decide_ap(variety(make_goedel(4))).has_ap
    assert decide_ap(variety(make_rsa(2))).has_ap
    assert not decide_ap(variety(make_rsa(3))).has_ap
    assert decide_ap(variety(make_sugihara(4))).has_ap
    assert not decide_ap(variety(make_sugihara(5))).has_ap


def test_decide_ap_presentation_independent():
    # decide_ap(<A>) = decide_ap(<A, B>) for B in HS(A)
    for gen, extra in ((make_goedel(3), make_goedel(2)),
                       (make_goedel(4), make_goedel(3)),
                       (make_sugihara(4), make_sugihara(3))):
        assert decide_ap(variety(gen)).has_ap == \
            decide_ap(variety(gen, extra)).has_ap


# decide_ap(V(A)): verdict, reason, chain names and span witness.  G_2-G_8 and
# S_2-S_10 as first computed, before hom search used the chain order; G_9-G_11
# and S_11-S_12 as computed by one find_amalgam search per span; L_2-L_12,
# R_2, R_3, M_2, M_3, strictsimp and V(S_2, S_3) as computed by backtracking
# hom search, before hom lists were read off Con x Sub
DECIDE_AP_GOLDEN = {
    "G_2": ("AP", None, ["G_2/~1", "G_2"], None),
    "G_3": ("AP", None, ["G_3|02/~1", "G_3|02", "G_3"], None),
    "G_4": ("NotAP", "span_failure", ["G_4|03/~1", "G_4|03", "G_4|013", "G_4"],
            "<Span G_4|0,1,3 -> G_4 [0, 1, 3], G_4|0,1,3 -> G_4 [0, 2, 3]>"),
    "G_5": ("NotAP", "span_failure",
            ["G_5|04/~1", "G_5|04", "G_5|014", "G_5|0124", "G_5"],
            "<Span G_5|0,1,4 -> G_5 [0, 1, 4], G_5|0,1,4 -> G_5|0124 [0, 2, 3]>"),
    "G_6": ("NotAP", "span_failure",
            ["G_6|05/~1", "G_6|05", "G_6|015", "G_6|0125", "G_6|01235", "G_6"],
            "<Span G_6|0,1,5 -> G_6 [0, 1, 5], G_6|0,1,5 -> G_6|0125 [0, 2, 3]>"),
    "G_7": ("NotAP", "span_failure",
            ["G_7|06/~1", "G_7|06", "G_7|016", "G_7|0126", "G_7|01236",
             "G_7|012346", "G_7"],
            "<Span G_7|0,1,6 -> G_7 [0, 1, 6], G_7|0,1,6 -> G_7|0126 [0, 2, 3]>"),
    "G_8": ("NotAP", "span_failure",
            ["G_8|07/~1", "G_8|07", "G_8|017", "G_8|0127", "G_8|01237",
             "G_8|012347", "G_8|0123457", "G_8"],
            "<Span G_8|0,1,7 -> G_8 [0, 1, 7], G_8|0,1,7 -> G_8|0127 [0, 2, 3]>"),
    "S_2": ("AP", None, ["S_2/~1", "S_2"], None),
    "S_3": ("AP", None, ["S_3|1", "S_3"], None),
    "S_4": ("AP", None, ["S_4|12/~1", "S_4|12", "S_4/~3", "S_4"], None),
    "S_5": ("NotAP", "span_failure", ["S_5|2", "S_5|024", "S_5"],
            "<Span S_5|0,2,4 -> S_5 [0, 2, 4], S_5|0,2,4 -> S_5 [1, 2, 3]>"),
    "S_6": ("NotAP", "span_failure",
            ["S_6|23/~1", "S_6|23", "S_6|0235/~3", "S_6|0235", "S_6/~5", "S_6"],
            "<Span S_6/~5|0,2,4 -> S_6/~5 [0, 2, 4], "
            "S_6/~5|0,2,4 -> S_6/~5 [1, 2, 3]>"),
    "S_7": ("NotAP", "span_failure", ["S_7|3", "S_7|036", "S_7|01356", "S_7"],
            "<Span S_7|0,3,6 -> S_7 [0, 3, 6], S_7|0,3,6 -> S_7|01356 [1, 2, 3]>"),
    "S_8": ("NotAP", "span_failure",
            ["S_8|34/~1", "S_8|34", "S_8|0347/~3", "S_8|0347", "S_8|013467/~5",
             "S_8|013467", "S_8/~7", "S_8"],
            "<Span S_8/~7|0,3,6 -> S_8/~7 [0, 3, 6], "
            "S_8/~7|0,3,6 -> S_8|013467/~5 [1, 2, 3]>"),
    "S_9": ("NotAP", "span_failure",
            ["S_9|4", "S_9|048", "S_9|01478", "S_9|0124678", "S_9"],
            "<Span S_9|0,4,8 -> S_9 [0, 4, 8], S_9|0,4,8 -> S_9|01478 [1, 2, 3]>"),
    "S_10": ("NotAP", "span_failure",
             ["S_10|45/~1", "S_10|45", "S_10|0459/~3", "S_10|0459",
              "S_10|014589/~5", "S_10|014589", "S_10|01245789/~7",
              "S_10|01245789", "S_10/~9", "S_10"],
             "<Span S_10/~9|0,4,8 -> S_10/~9 [0, 4, 8], "
             "S_10/~9|0,4,8 -> S_10|014589/~5 [1, 2, 3]>"),
    "G_9": ("NotAP", "span_failure",
            ["G_9|08/~1", "G_9|08", "G_9|018", "G_9|0128", "G_9|01238",
             "G_9|012348", "G_9|0123458", "G_9|01234568", "G_9"],
            "<Span G_9|0,1,8 -> G_9 [0, 1, 8], G_9|0,1,8 -> G_9|0128 [0, 2, 3]>"),
    "G_10": ("NotAP", "span_failure",
             ["G_10|09/~1", "G_10|09", "G_10|019", "G_10|0129", "G_10|01239",
              "G_10|012349", "G_10|0123459", "G_10|01234569", "G_10|012345679",
              "G_10"],
             "<Span G_10|0,1,9 -> G_10 [0, 1, 9], "
             "G_10|0,1,9 -> G_10|0129 [0, 2, 3]>"),
    "G_11": ("NotAP", "span_failure",
             ["G_11|010/~1", "G_11|010", "G_11|0110", "G_11|01210", "G_11|012310",
              "G_11|0123410", "G_11|01234510", "G_11|012345610",
              "G_11|0123456710", "G_11|01234567810", "G_11"],
             "<Span G_11|0,1,10 -> G_11 [0, 1, 10], "
             "G_11|0,1,10 -> G_11|01210 [0, 2, 3]>"),
    "S_11": ("NotAP", "span_failure",
             ["S_11|5", "S_11|0510", "S_11|015910", "S_11|01258910",
              "S_11|0123578910", "S_11"],
             "<Span S_11|0,5,10 -> S_11 [0, 5, 10], "
             "S_11|0,5,10 -> S_11|015910 [1, 2, 3]>"),
    "S_12": ("NotAP", "span_failure",
             ["S_12|56/~1", "S_12|56", "S_12|05611/~3", "S_12|05611",
              "S_12|01561011/~5", "S_12|01561011", "S_12|0125691011/~7",
              "S_12|0125691011", "S_12|012356891011/~9", "S_12|012356891011",
              "S_12/~11", "S_12"],
             "<Span S_12/~11|0,5,10 -> S_12/~11 [0, 5, 10], "
             "S_12/~11|0,5,10 -> S_12|01561011/~5 [1, 2, 3]>"),
    "L_2": ("AP", None, ["L_2|02/~1", "L_2|02", "L_2"], None),
    "L_3": ("AP", None, ["L_3|03/~1", "L_3|03", "L_3"], None),
    "L_4": ("AP", None, ["L_4|04/~1", "L_4|04", "L_4|024", "L_4"], None),
    "L_5": ("AP", None, ["L_5|05/~1", "L_5|05", "L_5"], None),
    "L_6": ("AP", None, ["L_6|06/~1", "L_6|06", "L_6|036", "L_6|0246", "L_6"], None),
    "L_7": ("AP", None, ["L_7|07/~1", "L_7|07", "L_7"], None),
    "L_8": ("AP", None, ["L_8|08/~1", "L_8|08", "L_8|048", "L_8|02468", "L_8"], None),
    "L_9": ("AP", None, ["L_9|09/~1", "L_9|09", "L_9|0369", "L_9"], None),
    "L_10": ("AP", None, ["L_10|010/~1", "L_10|010", "L_10|0510", "L_10|0246810",
                          "L_10"], None),
    "L_11": ("AP", None, ["L_11|011/~1", "L_11|011", "L_11"], None),
    "L_12": ("AP", None, ["L_12|012/~1", "L_12|012", "L_12|0612", "L_12|04812",
                          "L_12|036912", "L_12|024681012", "L_12"], None),
    "R_2": ("AP", None, ["R_2|1", "R_2"], None),
    "R_3": ("NotAP", "span_failure", ["R_3|2", "R_3|02", "R_3"],
            "<Span R_3|0,2 -> R_3 [0, 2], R_3|0,2 -> R_3 [1, 2]>"),
    "M_2": ("AP", None, ["M_2|0134/~1", "M_2|0134", "M_2"], None),
    "M_3": ("AP", None, ["M_3|0145/~1", "M_3|0145", "M_3"], None),
    "strictsimp": ("AP", None, ["strictsimp|2", "strictsimp"], None),
    "S_2,S_3": ("AP", None, ["S_2/~1", "S_2", "S_3"], None),
}


def test_decide_ap_golden():
    presentations = ladder(goedel_to=11)
    assert len(presentations) == len(DECIDE_AP_GOLDEN)
    for gens in presentations:
        name = ",".join(g.name for g in gens)
        r = decide_ap(variety(*gens))
        got = (r.verdict, r.reason, [c.name for c in r.chains],
               repr(r.span_witness) if r.span_witness else None)
        assert got == DECIDE_AP_GOLDEN[name], name
        assert r.cep_witness is None


def test_decide_ap_cross_check():
    for gen in (make_goedel(3), make_goedel(4), make_rsa(3), make_sugihara(4)):
        res = decide_ap(variety(gen), cross_check=True)
        assert res.cross_check is not None
        assert res.cross_check["eap"] == res.has_ap


def test_mixed_signatures_rejected():
    # a class whose members designate different constants has no spans
    # between them: the class checks and decide_ap refuse it outright
    G2 = make_goedel(2)
    with pytest.raises(SignatureMismatch):
        decide_ap(variety(G2, G2.reduct()))
    with pytest.raises(SignatureMismatch):
        class_has_1ap([make_goedel(1), G2, make_goedel(1).reduct(), G2.reduct()])
    with pytest.raises(SignatureMismatch):
        class_has_eap([make_goedel(1), G2, make_goedel(1).reduct(), G2.reduct()])


def test_decide_ap_cep_failure_path():
    res = decide_ap(variety(make_figure("cepfail")))
    assert not res.has_ap and res.reason == "cep_failure"
    A, sub, blocks = res.cep_witness
    assert len(sub) == 3


def test_decide_ap_derives_each_table_once():
    # the CEP step, the subalgebra-closure check and the 1AP/EAP checks read
    # one cached subalgebra listing per table: a cold decide_ap derives the
    # subalgebras of each distinct table of its chains and generators exactly
    # once, and a repeated call derives none
    from rlw import structure
    caches = (structure.congruences, structure.subuniverses, structure.interned_subalgebras,
              structure.subalgebra_index, structure.quotient_maps)

    def cold_misses(call):
        for cache in caches:
            cache.cache_clear()
        result = call()
        return result, structure.interned_subalgebras.cache_info().misses

    X = make_figure("cepfail")
    sub, theta = structure.has_cep(X).witness
    G5m = oracles.relabelled(make_goedel(5), [3, 0, 4, 1, 2])
    for g, cross in ((make_goedel(7), True), (X, False), (G5m, True)):
        res, misses = cold_misses(lambda: decide_ap(variety(g), cross_check=cross))
        assert g.name in [c.name for c in res.chains]
        assert misses == len({A.key() for A in res.chains + (g,)}), g.name
        assert decide_ap(variety(g), cross_check=cross) == res
        assert structure.interned_subalgebras.cache_info().misses == misses, g.name
        if g is X:
            assert res.reason == "cep_failure"
            assert (res.cep_witness[1:], res.cep_witness[0].key()) == \
                ((sub, theta.blocks), X.key())
        if g is G5m:
            assert res.reason == "span_failure"
    res, misses = cold_misses(lambda: simple_chain_ap(make_dmm(2)))
    assert res.has_ap and misses == 1


def test_decide_ap_builds_only_what_it_reports(monkeypatch):
    # spans are index tuples and quotients table ids: decide_ap projects once
    # per chain it returns, and names one subalgebra per chain and one leg
    # per reported span (the 1AP and the EAP witness under cross_check)
    import rlw.amalgam
    calls = {"named_subalgebra": 0, "natural_projection": 0}

    def counting(name):
        original = getattr(rlw.amalgam, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(rlw.amalgam, name, counting(name))
    for g, witnesses in ((make_goedel(6), 2), (make_sugihara(8), 2), (make_sugihara(4), 0)):
        for name in calls:
            calls[name] = 0
        res = decide_ap(variety(g), cross_check=True)
        assert res.has_ap == (witnesses == 0), g.name
        n = len(res.chains)
        assert calls == {"named_subalgebra": n + witnesses, "natural_projection": n}, g.name


def test_simple_chain_ap():
    assert simple_chain_ap(make_figure("strictsimp")).has_ap
    assert simple_chain_ap(make_dmm(2)).has_ap
    assert simple_chain_ap(make_goedel(1)).has_ap
    with pytest.raises(NotSimple):
        simple_chain_ap(make_goedel(3))


def test_simple_chain_ap_iso_subalgebras_fail():
    # S_5 is not simple, so build the two-isomorphic-subalgebras failure on a
    # simple chain: none in the catalog fails this way with CEP holding, so
    # check the contract indirectly: strictsimp has no two isomorphic
    # distinct subalgebras
    from rlw.structure import subuniverses
    A = make_figure("strictsimp")
    assert len(subuniverses(A)) == 2


def test_simple_chain_ap_span_failure_matches_iso_search():
    # simple chains with the CEP and two distinct isomorphic subalgebras
    # exist from size 4 on ({0, 3} and {2, 3} of chain4u3n3): the span
    # simple_chain_ap reads off equal subalgebra tables is the one the
    # isomorphism search finds, in the chain coding and relabelled
    from rlw.completion import enumerate_chains
    from rlw.structure import classify
    failures = 0
    for n in range(2, 6):
        for sig in ((), ("f",)):
            for A in enumerate_chains(n, None, sig):
                if not classify(A).simple:
                    continue
                for X in (A, oracles.relabelled(A, [n - 1 - x for x in A.elements])):
                    res = simple_chain_ap(X)
                    if res.reason == "cep_failure":
                        continue
                    want = oracles.simple_chain_iso_span(X)
                    assert res.has_ap == (want is None), X.name
                    if want is not None:
                        got = res.span_witness
                        assert (repr(got), got.A.labels, got.A.key()) == \
                            (repr(want), want.A.labels, want.A.key()), X.name
                        failures += 1
    assert failures > 0


def test_strictly_simple_ap():
    assert strictly_simple_ap(make_figure("strictsimp")).has_ap
    assert strictly_simple_ap(make_dmm(2)) is None
    assert strictly_simple_ap(make_goedel(3)) is None


def test_fast_paths_agree_with_decider():
    for A in (make_figure("strictsimp"), make_dmm(2), make_dmm(3)):
        assert simple_chain_ap(A).has_ap == decide_ap(variety(A)).has_ap


def test_mv_and_wajsberg_chain_varieties():
    # every single finite Lukasiewicz chain generates a variety with the AP,
    # in both the bounded (mv) and bottom-free (hoop) signatures; the FSI
    # chain sizes follow the divisor structure of the chain
    from rlw.catalog import make_luk
    for n in (1, 2, 3, 4):
        r = decide_ap(variety(make_luk(n, "mv")), cross_check=True)
        assert r.has_ap
        assert [c.size for c in r.chains] == \
            sorted({1} | {d + 1 for d in range(1, n + 1) if n % d == 0})
    for n in (1, 2, 3):
        assert decide_ap(variety(make_luk(n, "hoop"))).has_ap
