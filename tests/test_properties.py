import random

import pytest
from hypothesis import given, strategies as st

from rlw import (BadParameter, NotAChain, is_admissible, is_semilinear, property_profile,
                 satisfies_knotted)
from rlw.catalog import (catalog_all, make_com, make_dmm, make_figure,
                         make_goedel, make_luk, make_rsa, make_sugihara)
from rlw.algebra import ParseError, is_commutative
from rlw.completion import enumerate_chains
from rlw.properties import (FLAG_PREDICATES, PROFILE, PropertyProfile, check_flags,
                            handy_fixed_points, is_lower_involutive, is_n_potent,
                            n_potent_degree, satisfies_flags, wedge_value)

import oracles


def test_s3_profile():
    p = property_profile(make_sugihara(3))
    assert p.commutative and p.idempotent and p.involutive_f and p.semilinear


def test_trivial_profile_vacuous():
    p = property_profile(make_goedel(1))
    assert p.commutative and p.idempotent and p.integral and p.semilinear
    assert p.n_potent == 0 and p.lower_involutive


def test_a1_potency():
    # A1 satisfies the square-increasing law and x^4 = x^3 (3-potent); its
    # least potency degree is 2 (f^3 = f^2 = top)
    A = make_figure("A1")
    p = property_profile(A)
    assert p.square_increasing
    assert is_n_potent(A, 3)
    assert p.n_potent == 2
    assert n_potent_degree(make_figure("C1")) == 3


def test_knotted_on_figures():
    # A1/B1 satisfy x^m <= x^n for 2 <= n <= m and 1 <= m <= n; C1 fails
    # (m, n) = (3, 2) because b^3 = top > f = b^2 is forced by ~b = b, so its
    # guaranteed region starts at n >= 3 (the Fig. 6 span covers the rest)
    for name in ("A1", "B1"):
        A = make_figure(name)
        for m in range(1, 5):
            for n in range(1, 5):
                if (2 <= n <= m) or (1 <= m <= n):
                    assert satisfies_knotted(A, m, n), (name, m, n)
    C1 = make_figure("C1")
    assert not satisfies_knotted(C1, 3, 2)
    for m in range(1, 6):
        for n in range(1, 6):
            if (3 <= n <= m) or (1 <= m <= n):
                assert satisfies_knotted(C1, m, n), (m, n)


def test_semilinear_on_chains():
    # is_semilinear answers True on a chain without evaluating the equation;
    # the oracle evaluates it on every catalog chain, in the library's own
    # coding and relabelled as a matrix order
    rng = random.Random(3)
    for A in catalog_all(max_size=9):
        perm = list(A.elements)
        rng.shuffle(perm)
        for B in (A, oracles.relabelled(A, perm)):
            assert B.is_totally_ordered, B.name
            assert oracles.semilinear_by_equation(B) and is_semilinear(B), B.name


def test_semilinear_off_chains():
    # the boolean square with meet product is a product of 2-chains, hence
    # semilinear; moving the unit to a coatom breaks it (the algebra becomes
    # simple and non-chain, and semilinear FSIs are chains)
    B22, sq = oracles.boolean_square(), oracles.square_nonsemilinear()
    assert is_semilinear(B22) and oracles.semilinear_by_equation(B22)
    assert not is_semilinear(sq) and not oracles.semilinear_by_equation(sq)


def test_admissibility():
    assert is_admissible(make_sugihara(3))          # a\e = -a != e
    assert is_admissible(make_goedel(1))            # vacuous
    assert not is_admissible(make_luk(2, "hoop"))   # integral: a\e = e
    assert not is_admissible(make_rsa(3))
    assert is_admissible(make_com(1, 1))
    with pytest.raises(NotAChain):
        from rlw import finite_algebra
        leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
        meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
        is_admissible(finite_algebra("2x2", 4, leq, 3, meet))


def test_lower_involutive():
    assert is_lower_involutive(make_sugihara(3))
    assert is_lower_involutive(make_goedel(1))
    assert not is_lower_involutive(make_goedel(3))
    # the wedge on S_3 is integer negation
    S3 = make_sugihara(3)
    assert [wedge_value(S3, x) for x in S3.elements] == [2, 1, 0]


def test_handy_lemma_on_catalog_chains():
    # |{x : x\d = x}| <= 1 for every d, on every catalog chain
    for A in catalog_all(max_size=7):
        if not A.is_totally_ordered:
            continue
        for d in A.elements:
            assert len(handy_fixed_points(A, d)) <= 1, (A.name, d)


def test_dmm_square_increasing_involutive():
    for p in (2, 3):
        M = make_dmm(p)
        prof = property_profile(M)
        assert prof.square_increasing and prof.involutive_f and prof.commutative


def test_chains_are_semilinear():
    # the non-commutative chains, which the catalog has few of, satisfy the
    # equation as the proof in is_semilinear's docstring says
    chains = [A for n in range(1, 6) for A in enumerate_chains(n) if not is_commutative(A)]
    assert chains
    for A in chains:
        assert oracles.semilinear_by_equation(A) and is_semilinear(A), A.name


@given(st.sampled_from([make_luk(n, "mv") for n in range(1, 5)]))
def test_luk_involutive(A):
    p = property_profile(A)
    assert p.involutive_f and p.integral and p.bounded


@pytest.mark.parametrize("require", [
    {"n_potent": True}, {"n_potent": "2"}, {"n_potent": 2.0}, {"n_potent": -1},
    {"equations": True}, {"equations": "x=x"}, {"equations": ["x"]},
    {"equations": ["x=y=z"]}, {"equations": [1]}, {"no-such-flag": True},
    {"commutative": "no"}])
def test_satisfies_flags_rejects_malformed_filters(require):
    with pytest.raises(BadParameter):
        satisfies_flags(make_goedel(3), require)


def test_satisfies_flags_n_potent_and_equations():
    G3 = make_goedel(3)
    assert satisfies_flags(G3, {"n_potent": 1, "equations": ["x*x=x", "x*y=y*x"]})
    assert not satisfies_flags(make_luk(3, "mv"), {"n_potent": 1})


def test_profile_table_wires_every_entry_once():
    # one table, in field order, read by the profile and by the filters
    fields = list(PropertyProfile.__dataclass_fields__)
    assert list(PROFILE) == fields
    assert list(FLAG_PREDICATES) == [k for k in fields if k != "n_potent"]
    L3 = make_luk(3, "mv")
    p = property_profile(L3)
    for key in FLAG_PREDICATES:
        assert satisfies_flags(L3, {key: getattr(p, key)}), key


def test_check_flags_refuses_what_the_signature_lacks():
    for key in ("cyclic_f", "left_involutive_f", "right_involutive_f", "involutive_f"):
        for want in (True, False):
            with pytest.raises(BadParameter, match="needs the constant f"):
                check_flags({key: want})
            check_flags({key: want}, ("f",))
    # equation constants must be e or designated
    with pytest.raises(ParseError, match="'top' is not designated"):
        check_flags({"equations": ["x*top=top"]}, ("f",))
    check_flags({"equations": ["x*top=top", "x*e=x"]}, ("top",))
    # '->' only with commutative: true in the same filter
    for require in ({"equations": ["x->y=x\\y"]},
                    {"commutative": False, "equations": ["x->y=x\\y"]}):
        with pytest.raises(ParseError, match="'->' needs commutative: true"):
            check_flags(require)
    check_flags({"equations": ["x->y=x\\y"], "commutative": True})
    assert satisfies_flags(make_goedel(3), {"equations": ["x->y=x\\y"], "commutative": True})
