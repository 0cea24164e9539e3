import dataclasses
import itertools
import random

import pytest

from rlw import (FiniteAlgebra, NotASubuniverse, classify, cns_generated,
                 congruences, convex_normal_subalgebras, finite_algebra,
                 fsi_chains, has_cep, natural_projection, principal_congruence,
                 quotient, subalgebra, subuniverses, variety)
from rlw.algebra import OPS
from rlw.catalog import (catalog_all, make_dmm, make_figure, make_goedel,
                         make_sugihara)
from rlw.completion import enumerate_chains
from rlw.morphisms import is_hom
from rlw.structure import (congruence_leq, interned_subalgebras, is_subuniverse,
                           named_subalgebra, subalgebra_with_map, subalgebras)

import oracles


def test_principal_congruence_examples():
    G3 = make_goedel(3)
    th = principal_congruence(G3, 1, 2)       # Theta(-1, 0)
    assert th.blocks == ((0,), (1, 2))
    assert principal_congruence(G3, 1, 1).is_identity
    ss = make_figure("strictsimp")
    for a in ss.elements:
        for b in ss.elements:
            if a != b:
                assert principal_congruence(ss, a, b).nblocks == 1


def test_congruence_counts():
    assert len(congruences(make_goedel(3))) == 3
    assert len(congruences(make_goedel(1))) == 1
    assert len(congruences(make_figure("strictsimp"))) == 2


def test_congruences_match_bruteforce_small():
    # congruences() closes only the pairs (m, e) with m <= e; the oracle tries
    # every partition.  Relabelled codings and a non-chain lattice exercise
    # negative cones that are not index intervals.
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    B22 = finite_algebra("2x2", 4, leq, 3, meet)
    small = [A for A in catalog_all(max_size=5) if A.size <= 5]
    rng = random.Random(0)
    recoded = []
    for A in small + [B22]:
        perm = list(A.elements)
        rng.shuffle(perm)
        recoded.append(oracles.relabelled(A, perm))
    for A in small + [B22, oracles.square_nonsemilinear()] + recoded:
        fast = {c.blocks for c in congruences(A)}
        slow = {c.blocks for c in oracles.congruences_bruteforce(A)}
        assert fast == slow, A.name


def test_con_lattice_structure():
    con = congruences(make_goedel(4))
    assert con.identity.is_identity and con.full.nblocks == 1
    for c in con:
        assert congruence_leq(con.identity, c) and congruence_leq(c, con.full)
    j = oracles.congruence_join(con.congruences[1], con.congruences[1])
    assert j.blocks == con.congruences[1].blocks
    # the refinement order against inclusion of the related pairs, and the
    # atoms against their definition, on lattices with more than one atom too
    for A in (make_goedel(4), make_figure("cepfail"), make_dmm(2), _b22(),
              oracles.square_nonsemilinear()):
        con = congruences(A)
        related = {c: {(x, y) for b in c.blocks for x in b for y in b} for c in con}
        for c in con:
            for d in con:
                assert congruence_leq(d, c) == (related[d] <= related[c])
        nontrivial = [c for c in con if not c.is_identity]
        assert con.atoms() == [c for c in nontrivial
                               if not any(related[d] < related[c] for d in nontrivial)]


def test_congruences_match_covers_and_joins_oracle():
    # Theta(m, e) over the negative cone against closing every covering pair
    # and then every join: same congruences in the same order, same atoms
    rng = random.Random(2)
    pool = []
    for A in catalog_all(max_size=9):
        perm = list(A.elements)
        rng.shuffle(perm)
        pool += [A, oracles.relabelled(A, perm)]
    pool += [_b22(), oracles.square_nonsemilinear()]
    for n in range(1, 6):
        pool += enumerate_chains(n, constants=("f",))
    for A in pool:
        fast = congruences(A)
        slow = oracles.congruences_by_covers_and_joins(A)
        assert [c.blocks for c in fast] == [c.blocks for c in slow], A.name
        assert [c.blocks for c in fast.atoms()] == [c.blocks for c in slow.atoms()], A.name


def test_principal_congruence_matches_partition_oracle():
    # the closure against every partition: Theta(a, b) is the least
    # congruence containing (a, b), for every pair.  The four figure chains
    # and the enumerated ones are not commutative, so the column translations
    # are exercised too: on the figures alone, a closure without them passes.
    # The partition oracle limits the sizes to 6.
    def commutative(A):
        return all(A.mult[x][y] == A.mult[y][x] for x in A.elements for y in A.elements)
    figures = [make_figure(nm) for nm in ("cepfail", "strictsimp", "idem-B", "idem-C")]
    assert not any(commutative(A) for A in figures)
    chains = [A for n in range(2, 6) for A in enumerate_chains(n) if not commutative(A)]
    rng = random.Random(3)
    pool = []
    for A in [A for A in catalog_all(max_size=5) if A.size <= 6] + figures + chains + [_b22()]:
        perm = list(A.elements)
        rng.shuffle(perm)
        pool += [A, oracles.relabelled(A, perm)]
    for A in pool:
        con = oracles.congruences_bruteforce(A)
        for a in A.elements:
            for b in A.elements:
                holding = [c for c in con if c.block_of(a) == c.block_of(b)]
                least = holding[0]
                assert all(congruence_leq(least, c) for c in holding)
                assert principal_congruence(A, a, b).blocks == least.blocks, (A.name, a, b)


def test_congruences_on_the_callers_algebra():
    # Con is cached by table, so a copy that differs in labels or name only
    # gets its lattice on itself, with its own labels
    A = make_goedel(3)
    assert [repr(c) for c in congruences(A)] == ["Con-2|-1|0", "Con-2|-10", "Con-2-10"]
    B = dataclasses.replace(A, labels=("x", "y", "z"))
    C = dataclasses.replace(A, name="G3 copy")
    for X, reprs in ((B, ["Conx|y|z", "Conx|yz", "Conxyz"]),
                     (C, ["Con-2|-1|0", "Con-2|-10", "Con-2-10"])):
        con = congruences(X)
        assert con.algebra is X and all(c.algebra is X for c in con)
        assert [repr(c) for c in con] == reprs
    # the CEP witness is a congruence of the caller's subalgebra, too
    X = make_figure("cepfail")
    Y = dataclasses.replace(X, labels=tuple(s.upper() for s in X.labels))
    assert repr(has_cep(X).witness[1]) == "Conb|ae"
    assert repr(has_cep(Y).witness[1]) == "ConB|AE"


def test_structure_caches_keyed_by_table():
    # a renamed copy and a subalgebra with the same tables add no miss and
    # get the same blocks and subuniverses; a relabelled coding has its own
    # key and its own entry
    congruences.cache_clear()
    subuniverses.cache_clear()
    G4, G6 = make_goedel(4), make_goedel(6)
    blocks = [c.blocks for c in congruences(G4)]
    subs = subuniverses(G4)
    S = next(B for sub, B, _ in subalgebras(G6) if len(sub) == 4)
    assert S.key() == G4.key() and S.name != G4.name
    for X in (dataclasses.replace(G4, name="renamed"), S):
        misses = congruences.cache_info().misses, subuniverses.cache_info().misses
        assert [c.blocks for c in congruences(X)] == blocks
        assert subuniverses(X) == subs
        assert (congruences.cache_info().misses, subuniverses.cache_info().misses) == misses
    perm = [2, 0, 3, 1]
    R = oracles.relabelled(G4, perm)
    assert R.key() != G4.key()
    misses = congruences.cache_info().misses, subuniverses.cache_info().misses
    con = congruences(R)
    inverse = {perm[x]: x for x in G4.elements}
    assert {tuple(sorted(inverse[y] for y in s)) for s in subuniverses(R)} == set(subs)
    assert (congruences.cache_info().misses, subuniverses.cache_info().misses) \
        == (misses[0] + 1, misses[1] + 1)
    assert ([c.blocks for c in con]
            == [c.blocks for c in oracles.congruences_by_covers_and_joins(R)])


def test_table_id_names_the_tables():
    # copies that differ only in name or labels share one id, however they
    # were made; other constants or another coding of the order get another
    X = make_figure("cepfail")
    assert dataclasses.replace(X, name="copy", labels=None).table_id == X.table_id
    R = oracles.relabelled(X, [3, 0, 4, 1, 2])
    assert R.table_id != X.table_id
    assert R.as_chain().labels == X.labels and R.as_chain().table_id == X.table_id
    G4, G6 = make_goedel(4), make_goedel(6)
    sub, S, incl = next(e for e in interned_subalgebras(G6) if len(e[0]) == 4)
    named = named_subalgebra(G6, sub, S, incl, "G6|four")
    assert named is not S and named.table_id == S.table_id == G4.table_id
    F = G4.with_constants("G4f", {"f": 0})
    assert F.table_id != G4.table_id
    assert F.with_constants("again", {"f": 0}).table_id == F.table_id
    assert G4.with_constants("renamed", dict(G4.constants)).table_id == G4.table_id
    # a matrix coding in index order has G4's key but not its "chain" tag, so
    # an interned subalgebra read under the id is always tagged as it was made
    M = oracles.relabelled(G4, list(G4.elements))
    assert M.key() == G4.key() and M.table_id != G4.table_id


def test_cns_bijection():
    for A in catalog_all(max_size=6):
        cns = convex_normal_subalgebras(A)
        con = congruences(A)
        assert len(set(cns)) == len(con)


def test_cns_generated_cepfail():
    X = make_figure("cepfail")
    lbl = {X.labels[i]: i for i in X.elements}
    assert cns_generated(X, {lbl["a"]}) == {lbl["e"], lbl["a"], lbl["b"]}
    B = subalgebra(X, (lbl["b"], lbl["a"], lbl["e"]))
    blbl = {B.labels[i]: i for i in B.elements}
    assert cns_generated(B, {blbl["a"]}) == {blbl["e"], blbl["a"]}
    assert cns_generated(X, {X.unit}) == {X.unit}


def test_quotient_examples():
    A = make_goedel(4)
    con = congruences(A)
    assert quotient(A, con.identity).size == A.size
    assert quotient(A, con.full).is_trivial
    for theta in con:
        Q, proj = natural_projection(A, theta)
        assert Q.size == theta.nblocks
        assert is_hom(A, Q, proj)


def test_subuniverses_examples():
    M2 = make_dmm(2)
    assert subuniverses(M2) == ((0, 1, 3, 4), (0, 1, 2, 3, 4))
    S5 = make_sugihara(5)
    assert subuniverses(S5) == ((2,), (0, 2, 4), (1, 2, 3), (0, 1, 2, 3, 4))
    with pytest.raises(NotASubuniverse):
        subalgebra(S5, (0, 1))
    # {0, 1, 4} of M_2 is closed under the five operations but misses f = 3
    assert all(getattr(M2, op)[x][y] in (0, 1, 4) for op in OPS
               for x in (0, 1, 4) for y in (0, 1, 4))
    with pytest.raises(NotASubuniverse, match=r"\[0, 1, 4\] is not a subuniverse of M_2"):
        subalgebra(M2, (0, 1, 4))
    # is_subuniverse is the one closure test: it and subalgebra agree with
    # the subuniverses listing on every subset
    G5 = oracles.relabelled(make_goedel(5), [3, 0, 4, 1, 2])
    for A in (S5, M2, G5):
        subs = set(subuniverses(A))
        for k in range(A.size + 1):
            for s in itertools.combinations(A.elements, k):
                assert is_subuniverse(A, s) == (tuple(sorted(s)) in subs), (A.name, s)
                if is_subuniverse(A, s):
                    subalgebra(A, s)
                else:
                    with pytest.raises(NotASubuniverse):
                        subalgebra(A, s)


@pytest.mark.parametrize("subset", [[0, 5], [-1, 2], [0, 1.0], [True, 2]])
def test_subalgebra_refuses_what_is_not_an_element(subset):
    # an entry that is not an element index of A is no subuniverse, not an IndexError
    G3 = make_goedel(3)
    assert not is_subuniverse(G3, subset)
    with pytest.raises(NotASubuniverse):
        subalgebra(G3, subset)


def test_subuniverses_match_closure_from_scratch():
    # Close-by-One with the semi-naive closure (min and max skipped on chains)
    # lists the same subuniverses as closing each s + {x} from scratch under
    # all five operations, on every catalog algebra of size <= 9 in its own
    # coding and relabelled; is_subuniverse agrees with that closure on every
    # subset of size <= 7; on the non-chain 2x2+1 a subset closed under mult
    # and the residuals need not be closed under join
    rng = random.Random(2)
    pool = [_b22(), oracles.square_nonsemilinear(), oracles.boolean_square_with_top()]
    for A in catalog_all(max_size=9):
        perm = list(A.elements)
        rng.shuffle(perm)
        pool += [A, oracles.relabelled(A, perm)]
    for A in pool:
        assert subuniverses(A) == oracles.subuniverses_by_closure(A), A.name
        if A.size > 7:
            continue
        for k in range(A.size + 1):
            for s in itertools.combinations(A.elements, k):
                want = oracles.subuniverse_closure(A, s) == frozenset(s)
                assert is_subuniverse(A, s) == want, (A.name, s)


def test_subalgebra_keeps_constants():
    S5 = make_sugihara(5)
    sub = subalgebra(S5, (0, 2, 4))
    assert sub.size == 3 and sub.constants == (("f", 1),)
    from rlw.morphisms import are_isomorphic
    assert are_isomorphic(sub, make_sugihara(3)) is not None


def test_classify_examples():
    assert classify(make_figure("strictsimp")).strictly_simple
    m2 = classify(make_dmm(2))
    assert m2.simple and not m2.strictly_simple
    for A in catalog_all(max_size=6):
        if A.is_totally_ordered:
            assert classify(A).fsi, A.name
    # chains of size > 1 are subdirectly irreducible
    assert classify(make_goedel(4)).si
    assert not classify(make_goedel(1)).si


def test_classify_stable_under_iso():
    # the {-2,0,2} subalgebra of S_5 is isomorphic to S_3 and classifies alike
    S5 = make_sugihara(5)
    sub = subalgebra(S5, (0, 2, 4))
    assert classify(sub) == classify(make_sugihara(3))


def test_has_cep_examples():
    assert not has_cep(make_figure("cepfail")).holds
    for m in range(1, 6):
        assert has_cep(make_goedel(m)).holds     # commutative
    assert has_cep(make_goedel(1)).holds


def test_cepfail_witness_detail():
    X = make_figure("cepfail")
    res = has_cep(X)
    sub, theta = res.witness
    lbl = {X.labels[i]: i for i in X.elements}
    assert set(sub) == {lbl["e"], lbl["a"], lbl["b"]}
    B = subalgebra(X, sub)
    assert theta.blocks == principal_congruence(
        B, B.labels.index("a"), B.labels.index("e")).blocks


def test_has_cep_matches_block_oracle():
    # has_cep compares e-classes with CNS traces; the oracle lifts every block
    # and compares it with the restriction of every congruence of A
    rng = random.Random(0)
    for A in catalog_all(max_size=7) + [_b22(), oracles.square_nonsemilinear()]:
        perm = list(A.elements)
        rng.shuffle(perm)
        for X in (A, oracles.relabelled(A, perm)):
            res = has_cep(X)
            assert (res.holds, res.witness) == oracles.cep_by_blocks(X), X.name


def test_has_cep_reuse_matches_per_subuniverse_oracle():
    # Con(S) taken once per S.key() gives the same verdict and the same
    # witness, labels included, in both codings; sizes <= 7 also against the
    # block-lifting oracle
    rng = random.Random(1)
    chains = fsi_chains(variety(make_goedel(9))) + fsi_chains(variety(make_sugihara(12)))
    for A in chains + [make_figure("cepfail")]:
        perm = list(A.elements)
        rng.shuffle(perm)
        for X in (A, oracles.relabelled(A, perm)):
            res = has_cep(X)
            want = oracles.has_cep_per_subuniverse(X)
            assert (res.holds, repr(res.witness)) == (want.holds, repr(want.witness))
            if X.size <= 7:
                assert (res.holds, res.witness) == oracles.cep_by_blocks(X), X.name


def test_cns_traces_are_distinct_subalgebra_eclasses():
    # has_cep's count: on each subuniverse, every trace M & sub of a CNS M of
    # A is the lifted e-class of a congruence of the subalgebra S, and
    # distinct congruences of S have distinct e-classes, so the traces are
    # in one-to-one correspondence with the congruences of S that extend
    rng = random.Random(2)
    for A in catalog_all(7) + [_b22(), oracles.square_nonsemilinear()]:
        perm = list(A.elements)
        rng.shuffle(perm)
        for X in (A, oracles.relabelled(A, perm)):
            cns = convex_normal_subalgebras(X)
            assert cns == tuple(frozenset(c.unit_class()) for c in congruences(X))
            for sub, S, inclusion in subalgebras(X):
                lifted = [frozenset(inclusion[x] for x in theta.unit_class())
                          for theta in congruences(S)]
                assert len(set(lifted)) == len(lifted), (X.name, sub)
                for M in cns:
                    assert M & frozenset(sub) in lifted, (X.name, sub, sorted(M))


def _b22():
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    return finite_algebra("2x2", 4, leq, 3, meet)


def test_cached_subalgebras_match_checked_constructor():
    # subalgebras() reads one listing per table, which holds one object per
    # distinct subalgebra table, and names and labels every entry for the
    # caller: a renamed or label-changed copy of a table met before gets the
    # name, labels, key and inclusion the checked subalgebra_with_map gives
    for A in catalog_all(7):
        perm = [(x * 3 + 1) % A.size if A.size % 3 else A.size - 1 - x for x in A.elements]
        for X in (A, oracles.relabelled(A, perm)):
            labelled = dataclasses.replace(X, labels=tuple(f"<{X.label(x)}>" for x in X.elements))
            for Y in (X, labelled, dataclasses.replace(X, name=X.name + "*")):
                for sub, B, inclusion in subalgebras(Y):
                    C, want = subalgebra_with_map(Y, sub)
                    assert (B.name, B.labels, B.key(), inclusion) == \
                        (C.name, C.labels, C.key(), want), (Y.name, sub)
            entries = interned_subalgebras(X)
            assert len({id(S) for _, S, _ in entries}) == len({S.key() for _, S, _ in entries})
    # 2^(m-2) subuniverses of G_m, but m - 1 distinct subalgebra tables
    entries = interned_subalgebras(make_goedel(9))
    assert (len(entries), len({id(S) for _, S, _ in entries})) == (128, 8)


def test_derived_builds_only_new_tables(monkeypatch):
    # derived reads a table's key before it builds: Sub(G_9) has 128 members
    # but 8 distinct tables, and once they are known the quotients of G_9
    # add one new table only (the trivial one)
    import rlw.algebra
    from rlw.structure import quotient_maps
    original, built = rlw.algebra.FiniteAlgebra, []

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    G9 = make_goedel(9)
    interned_subalgebras.cache_clear()
    quotient_maps.cache_clear()
    monkeypatch.setattr(rlw.algebra, "FiniteAlgebra", counting)
    entries = interned_subalgebras(G9)
    assert len(entries) == 128 and len({S.table_id for _, S, _ in entries}) == 8
    assert len(built) <= 8
    del built[:]
    assert len(quotient_maps(G9)) == 9 and len(built) <= 1


def test_derived_algebras_match_full_validation(monkeypatch):
    # subalgebras, quotients and as_chain read their tables from a valid
    # parent without validating again; rebuilding each from scratch must give
    # the same twelve fields, meet/join/lres/rres included (which == skips)
    # the derive-only subalgebras() listing is compared with the checked
    # subalgebra_with_map, its oracle, on the inclusion, name and all fields
    rng = random.Random(0)
    parents = []
    for A in catalog_all(max_size=6) + [_b22(), oracles.square_nonsemilinear()]:
        perm = list(A.elements)
        rng.shuffle(perm)
        parents += [A, oracles.relabelled(A, perm)]
    names = [f.name for f in dataclasses.fields(FiniteAlgebra)]
    assert len(names) == 12
    derived = []
    with monkeypatch.context() as m:
        def no_validation(*args, **kwargs):
            raise AssertionError("finite_algebra called on the derive path")
        m.setattr("rlw.algebra.finite_algebra", no_validation)
        for A in parents:
            listing = list(subalgebras(A))
            assert [sub for sub, _, _ in listing] == list(subuniverses(A))
            for sub, B, inclusion in listing:
                C, want = subalgebra_with_map(A, sub)
                assert is_hom(C, A, want) and sorted(want) == list(sub)
                assert inclusion == want and B.name == C.name, (A.name, sub)
                for name in names:
                    assert getattr(B, name) == getattr(C, name), (A.name, sub, name)
                derived += [B, C]
            for theta in congruences(A):
                Q, proj = natural_projection(A, theta)
                assert is_hom(A, Q, proj)
                derived.append(Q)
            if A.is_totally_ordered:
                derived.append(A.as_chain())
    for B in derived:
        R = oracles.rebuilt(B)
        for name in names:
            assert getattr(B, name) == getattr(R, name), (B.name, name)
