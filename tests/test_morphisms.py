from collections import Counter

import pytest

from rlw import (NotAnEmbedding, SignatureMismatch, are_isomorphic, embeddings,
                 essentialize, homs, identity, is_essential, morphism,
                 subalgebra)
from rlw.algebra import BadParameter, NotAHomomorphism, induced_order
from rlw.catalog import (catalog_all, make_figure, make_goedel, make_rsa,
                         make_sugihara)
from rlw.morphisms import compose
from rlw.structure import subuniverses

import oracles


def _codings(X):
    """X as coded, and X relabelled by a reversal into a matrix order."""
    return (X, oracles.relabelled(X, list(reversed(X.elements))))


def _non_chains():
    return (oracles.boolean_square(), oracles.square_nonsemilinear())


def test_homs_against_bruteforce():
    # homs lists maps in the oracle's (lexicographic) order, because
    # find_amalgam takes the first hit; chain-coded pairs take the interval
    # search, pairs with a relabelled side the general one.  homs does not
    # re-check its results, so the non-chain pairs test the propagation of
    # all five operations against the oracle.
    chains = [A for A in catalog_all(4, include_figures=False)
              if A.is_totally_ordered]
    pairs = [(B, D) for B in chains for D in chains
             if dict(B.constants).keys() == dict(D.constants).keys()]
    pairs.append((make_sugihara(3), make_sugihara(5)))
    plain = [A for A in chains if not A.constants] + list(_non_chains())
    pairs += [(X, Y) for X in _non_chains() for Y in plain]
    pairs += [(Y, X) for X in _non_chains() for Y in plain if Y.is_totally_ordered]
    for B0, D0 in pairs:
        for B in _codings(B0):
            for D in _codings(D0):
                for inj in (False, True):
                    got = [m.mapping for m in homs(B, D, injective=inj)]
                    assert got == oracles.brute_homs(B, D, inj), (B.name, D.name, inj)


def test_homs_commute_with_match_bruteforce_in_order():
    # pins from every subalgebra inclusion A -> B and every hom A -> D, on
    # chains and on the non-chain pairs
    chains = [A for A in catalog_all(3, include_figures=False)
              if A.is_totally_ordered]
    pairs = [(B, D) for B in chains for D in chains
             if dict(B.constants).keys() == dict(D.constants).keys()]
    pairs += [(X, Y) for X in _non_chains() for Y in _non_chains()]
    checked = Counter()
    for B0, D0 in pairs:
        for B in _codings(B0):
            for D in _codings(D0):
                for sub in subuniverses(B):
                    A = subalgebra(B, sub)
                    phi = morphism(A, B, induced_order(B.leq, sub)[0])
                    for chi in homs(A, D):
                        for inj in (False, True):
                            got = [m.mapping for m in homs(
                                B, D, injective=inj, commute_with=(phi, chi))]
                            want = [f for f in oracles.brute_homs(B, D, inj)
                                    if tuple(f[v] for v in phi.mapping) == chi.mapping]
                            assert got == want, (B.name, D.name, sub, chi, inj)
                            checked[B0.is_totally_ordered, A.size > 1] += 1
    assert sum(checked.values()) > 100
    assert checked[False, True] > 10   # non-chain B, pinned beyond the unit


def test_goedel_embedding_unique():
    assert [m.mapping for m in homs(make_goedel(2), make_goedel(3),
                                    injective=True)] == [(0, 2)]


def test_identity_always_a_hom():
    for A in (make_goedel(4), make_sugihara(4), make_figure("cepfail")):
        assert identity(A).mapping in {m.mapping for m in homs(A, A)}


def test_rsa_collapse_hom():
    got = {m.mapping for m in homs(make_rsa(3), make_rsa(2))}
    assert (0, 1, 1) in got  # collapses the top pair; quotient of R_3 is R_2


def test_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        homs(make_goedel(2), make_rsa(2))
    with pytest.raises(SignatureMismatch):   # before the pigeonhole answer []
        homs(make_goedel(3), make_rsa(2), injective=True)


def test_commute_with_pins():
    G3, G4 = make_goedel(3), make_goedel(4)
    phi = morphism(G3, G4, (0, 1, 3))
    chi = morphism(G3, G4, (0, 2, 3))
    out = homs(G4, G4, commute_with=(phi, chi))
    for psi in out:
        assert compose(psi, phi).mapping == chi.mapping
    assert (0, 2, 3, 3) in {m.mapping for m in out}


def test_are_isomorphic():
    assert are_isomorphic(make_goedel(3), make_goedel(3))
    assert are_isomorphic(make_goedel(3), make_goedel(4)) is None
    assert are_isomorphic(make_goedel(3), make_rsa(3)) is None  # signature
    S5 = make_sugihara(5)
    sub = subalgebra(S5, (0, 2, 4))
    assert are_isomorphic(sub, make_sugihara(3)) is not None


def test_chains_admit_one_embedding_per_image():
    # finite chains have a unique order automorphism
    for B in (make_goedel(4), make_sugihara(5)):
        for C in (B,):
            by_image = {}
            for m in embeddings(B, C):
                by_image.setdefault(m.image(), []).append(m)
            for image, ms in by_image.items():
                assert len(ms) == 1


def test_is_essential():
    A1, B1 = make_figure("A1"), make_figure("B1")
    incl = morphism(A1, B1, (0, 1, 3, 4))
    assert is_essential(incl)
    # trivial into R_3 is not essential: the monolith misses the image
    triv = subalgebra(make_rsa(2), (1,), name="T")
    phi = morphism(triv, make_rsa(3), (2,))
    res = is_essential(phi)
    assert not res.holds and res.witness is not None


def test_identity_essential():
    A = make_goedel(3)
    assert is_essential(identity(A))


def test_essentialize():
    triv = subalgebra(make_rsa(2), (1,), name="T")
    R3 = make_rsa(3)
    theta, psi = essentialize(morphism(triv, R3, (2,)))
    assert theta.nblocks == 1 and psi.target.is_trivial
    assert is_essential(psi)
    # essentialize of an essential embedding is trivial
    A1, B1 = make_figure("A1"), make_figure("B1")
    theta, psi = essentialize(morphism(A1, B1, (0, 1, 3, 4)))
    assert theta.is_identity and psi.target.size == B1.size


def test_not_an_embedding():
    R3, R2 = make_rsa(3), make_rsa(2)
    with pytest.raises(NotAnEmbedding):
        is_essential(morphism(R3, R2, (0, 1, 1)))


def test_morphism_refuses_a_mapping_that_is_not_elements_of_the_target():
    # morphism() is the one check of maps from outside: a mapping of the
    # wrong length or with an index outside D is refused like a map that is
    # not a homomorphism, and never reaches is_hom's table lookups
    G3 = make_goedel(3)
    for mapping in ([0, 1, 2, 0], [0, 5, 2], [0, 1], [0, -1, 2], [0, True, 2]):
        with pytest.raises(NotAHomomorphism):
            morphism(G3, G3, mapping)
    assert morphism(G3, G3, [0, 1, 2]).mapping == (0, 1, 2)


def test_homs_refuses_a_limit_below_one():
    G3, G4 = make_goedel(3), make_goedel(4)
    for limit in (0, -1):
        with pytest.raises(BadParameter):
            homs(G3, G3, limit=limit)
        with pytest.raises(BadParameter):
            homs(G3, G4, injective=True, limit=limit)
    assert len(homs(G3, G4, injective=True, limit=1)) == 1
