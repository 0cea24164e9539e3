import dataclasses
import itertools
import json
import random

import pytest

from rlw import (BadConstant, MissingConstant, NotAMonoid, NotALattice,
                 NotResiduated, ParseError, enumerate_chains, finite_algebra, load_algebra)
from rlw.algebra import (_chain_lattice_tables, _residual_tables, chain_leq,
                         induced_order, lattice_order)
from rlw.catalog import catalog_all, make_goedel, make_sugihara

import oracles


def test_goedel3_from_file():
    text = ('{"format":"rlw-algebra/1","name":"G_3","size":3,"leq":"chain",'
            '"unit":2,"mult":[[0,0,0],[0,1,1],[0,1,2]],"constants":{"bot":0}}')
    A = load_algebra(text)
    assert A.size == 3 and A.unit == 2
    assert A.mult == tuple(tuple(min(i, j) for j in range(3)) for i in range(3))
    assert A.constants == (("bot", 0),)
    assert A.save() == text  # canonical serialization round trip


def test_null_constants_mean_none():
    doc = json.loads(make_goedel(3).save())
    doc.pop("constants", None)
    absent = load_algebra(json.dumps(doc))
    assert load_algebra(json.dumps(dict(doc, constants=None))) == absent


def test_one_element_algebra():
    A = finite_algebra("triv", 1, "chain", 0, [[0]])
    assert A.is_trivial and A.lres == ((0,),) and A.rres == ((0,),)


def test_save_load_identity_on_catalog():
    for A in (make_goedel(4), make_sugihara(5)):
        text = A.save()
        assert load_algebra(text).save() == text


def test_mutated_goedel_rejected():
    # altering mult[0][2] to 1 breaks the unit law
    mut = [[0, 0, 1], [0, 1, 1], [0, 1, 2]]
    assert oracles.law_violation(3, 2, mut) is not None
    with pytest.raises((NotAMonoid, NotResiduated)):
        finite_algebra("mut", 3, "chain", 2, mut, {"bot": 0})
    # every single mutation: validator verdict must agree with the oracle
    # (one mutation, the diagonal 1*1 -> 0, yields the Lukasiewicz table and
    # is legitimately accepted)
    base = [[min(i, j) for j in range(3)] for i in range(3)]
    accepted = []
    for i in range(3):
        for j in range(3):
            for v in range(3):
                if v == base[i][j]:
                    continue
                mut = [row[:] for row in base]
                mut[i][j] = v
                broken = oracles.law_violation(3, 2, mut)
                try:
                    finite_algebra("mut", 3, "chain", 2, mut, {"bot": 0})
                    ok = True
                except (NotAMonoid, NotResiduated):
                    ok = False
                assert ok == (broken is None), (i, j, v, broken)
                if ok:
                    accepted.append((i, j, v))
    assert accepted == [(1, 1, 0)]


def test_residuation_law_exhaustive():
    for A in (make_goedel(5), make_sugihara(6)):
        lres, rres = oracles.chain_residuals(A.size, A.mult)
        assert A.lres == tuple(tuple(r) for r in lres)
        assert A.rres == tuple(tuple(r) for r in rres)
        for x in A.elements:
            for y in A.elements:
                for z in A.elements:
                    assert (A.mult[x][y] <= z) == (y <= A.lres[x][z])
                    assert (A.mult[x][y] <= z) == (x <= A.rres[z][y])


def test_galois_laws():
    for A in (make_goedel(4), make_sugihara(4)):
        for x in A.elements:
            for y in A.elements:
                assert A.lres[x][A.mult[x][y]] >= y
                assert A.mult[x][A.lres[x][y]] <= y


def test_bad_constant():
    with pytest.raises(BadConstant):
        finite_algebra("bad", 2, "chain", 1, [[0, 0], [0, 1]], {"bot": 1})
    with pytest.raises(BadConstant):
        finite_algebra("bad", 2, "chain", 1, [[0, 0], [0, 1]], {"top": 0})


def test_missing_constant():
    A = make_goedel(3)
    with pytest.raises(MissingConstant):
        A.constant("f")


def test_parse_errors():
    with pytest.raises(ParseError):
        load_algebra("not json at all {")
    with pytest.raises(ParseError):
        load_algebra('{"format":"other/1"}')
    with pytest.raises(ParseError):
        load_algebra('{"format":"rlw-algebra/1","name":"x","size":2,'
                     '"leq":"chain","unit":0,"mult":[[0,1]]}')


@pytest.mark.parametrize("size,unit,mult", [
    (2, 1, [[0, 0], [0.9, 1]]),      # int() would truncate 0.9 to 0
    (2, 1, [[0, 0], ["0", 1]]),
    (2, 1, [[0, 0], [0, True]]),
    (2, True, [[0, 0], [0, 1]]),
    (True, 0, [[0]]),
    (1.0, 0, [[0]]),
])
def test_finite_algebra_rejects_non_int_entries(size, unit, mult):
    # finite_algebra validates outside input: sizes, units and mult entries
    # must be ints (bool is not), as read_document requires of files
    with pytest.raises(ParseError):
        finite_algebra("bad", size, "chain", unit, mult)


def test_matrix_order_lattice_checks():
    # 2x2 boolean square as a matrix order, product = meet
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    A = finite_algebra("2x2", 4, leq, 3, meet)
    assert not A.chain and not A.is_totally_ordered
    assert A.bottom == 0 and A.top == 3
    # broken order: missing transitivity
    bad = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    with pytest.raises(NotALattice):
        finite_algebra("bad", 3, bad, 2, [[0] * 3] * 3)


def test_non_lattice_rejected():
    # antichain pair with no join
    leq = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(NotALattice):
        finite_algebra("anti", 3, leq, 0, [[0, 1, 2], [1, 1, 1], [2, 1, 2]])


def test_as_chain_recode():
    # same algebra given with a scrambled matrix order
    leq = [[1, 0, 1], [1, 1, 1], [0, 0, 1]]  # order: 1 < 0 < 2
    mult = [[0, 1, 0], [1, 1, 1], [0, 1, 2]]  # meet under that order
    A = finite_algebra("scrambled", 3, leq, 2, mult)
    B = A.as_chain()
    assert B.chain and B.mult == ((0, 0, 0), (0, 1, 1), (0, 1, 2))


def test_induced_order_matches_pairs_oracle():
    # every subset of relabelled catalog chains and of the non-chain lattices:
    # a sort by leq that only checks neighbours, against every pair
    rng = random.Random(5)
    pool = [oracles.boolean_square(), oracles.boolean_square_with_top(),
            oracles.square_nonsemilinear()]
    for A in catalog_all(max_size=6):
        perm = list(A.elements)
        rng.shuffle(perm)
        pool.append(oracles.relabelled(A, perm))
    for A in pool:
        for k in range(A.size + 1):
            for items in itertools.combinations(reversed(A.elements), k):
                assert induced_order(A.leq, items) == \
                    oracles.induced_order_by_pairs(A.leq, items), (A.name, items)


def test_reduct_drops_constants():
    A = make_sugihara(4)
    assert A.reduct().constants == ()
    assert A.reduct(keep=("f",)).constants == A.constants


def test_chain_lattice_tables_match_general_search():
    # the min/max fast path for chains against the candidate-search oracle
    for n in range(1, 9):
        assert _chain_lattice_tables(n) == oracles.lattice_tables(n, chain_leq(n))


def _outcome(f, *args):
    """f(*args), or the class of the NotALattice / NotResiduated it raises."""
    try:
        return f(*args)
    except (NotALattice, NotResiduated) as exc:
        return type(exc)


def _partial_orders(n):
    """Every partial order on 0..n-1 as a 0/1 matrix."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        leq = [[int(x == y) for y in range(n)] for x in range(n)]
        for (x, y), b in zip(pairs, bits):
            leq[x][y] = b
        if all(not (leq[x][y] and leq[y][x]) for x, y in pairs) and \
                all(leq[x][z] or not (leq[x][y] and leq[y][z])
                    for x in range(n) for y in range(n) for z in range(n)):
            yield leq


def test_lattice_tables_match_oracle():
    # meet and join read off principal sets against the candidate search
    orders = [(n, leq) for n in range(1, 5) for leq in _partial_orders(n)]
    assert len(orders) == 1 + 3 + 19 + 219   # labelled posets on 1..4 points
    rng = random.Random(1)
    for A in catalog_all(9):
        perm = list(A.elements)
        rng.shuffle(perm)
        orders += [(A.size, A.leq), (A.size, oracles.relabelled(A, perm).leq)]
    outcomes = set()
    for n, leq in orders:
        got = _outcome(lambda: lattice_order(n, leq)[1:])
        assert got == _outcome(oracles.lattice_tables, n, leq), (n, leq)
        outcomes.add(got is NotALattice)
    assert outcomes == {True, False}


def test_residual_tables_match_oracle():
    # both residuals read off principal down-sets against the witness-list
    # join fold plus the residuation-law loop
    le, (_, join) = chain_leq(3), _chain_lattice_tables(3)
    cases = [(3, le, mult, join) for mult in
             (tuple(zip(*[iter(cells)] * 3))
              for cells in itertools.product(range(3), repeat=9))]
    square = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    for A in (finite_algebra("2x2", 4, square, 3, meet), oracles.square_nonsemilinear()):
        for i, j, v in itertools.product(A.elements, A.elements, A.elements):
            mult = [list(row) for row in A.mult]
            mult[i][j] = v
            cases.append((4, A.leq, tuple(map(tuple, mult)), A.join))
    outcomes = set()
    for n, leq, mult, join in cases:
        got = _outcome(_residual_tables, n, leq, mult)
        assert got == _outcome(oracles.residual_tables, n, leq, mult, join), mult
        outcomes.add(got is NotResiduated)
    assert outcomes == {True, False}


def test_with_constants_checks_only_constants():
    G = make_goedel(3)
    A = G.with_constants("G3f", {"bot": 0, "f": 1})
    assert (A.name, A.constants) == ("G3f", (("f", 1), ("bot", 0)))
    assert (A.mult, A.meet, A.join, A.lres, A.rres) == (G.mult, G.meet, G.join,
                                                        G.lres, G.rres)
    with pytest.raises(BadConstant):
        G.with_constants("bad", {"bot": 1})
    with pytest.raises(ParseError):
        G.with_constants("bad", {"f": 3})
    # every other field is carried over unchanged
    same = [f.name for f in dataclasses.fields(G) if f.name not in ("name", "constants")]
    assert [getattr(A, k) for k in same] == [getattr(G, k) for k in same]


def test_chain_residuals_match_general_path():
    # the chain tag reads x\z and z/x off monotone rows and columns; the
    # general principal-set path is the oracle
    for n in range(1, 6):
        for A in enumerate_chains(n):
            mult = [list(row) for row in A.mult]
            B = finite_algebra(A.name, n, "chain", A.unit, mult)
            assert (B.lres, B.rres) == _residual_tables(n, chain_leq(n), B.mult)


@pytest.mark.parametrize("unit, mult, message", [
    # x*0 != 0: max on 0 < 1, though its rows and columns are monotone
    (0, [[0, 1], [1, 1]],
     "1\\0 does not exist: {y : 1*y <= 0} is not a principal down-set"),
    # a non-monotone row: x*y = y on {1, 2}
    (3, [[0, 0, 0, 0], [0, 1, 2, 1], [0, 1, 2, 2], [0, 1, 2, 3]],
     "1\\1 does not exist: {y : 1*y <= 1} is not a principal down-set"),
    # a non-monotone column, all rows monotone: x*y = x on {1, 2}
    (3, [[0, 0, 0, 0], [0, 1, 1, 1], [0, 2, 2, 2], [0, 1, 2, 3]],
     "1/1 does not exist: {w : w*1 <= 1} is not a principal down-set"),
])
def test_non_residuated_chain_tables(unit, mult, message):
    # the same message on the chain tag as through the general path
    n = len(mult)
    for leq in ("chain", [[int(b) for b in row] for row in chain_leq(n)]):
        with pytest.raises(NotResiduated) as exc:
            finite_algebra("t", n, leq, unit, mult)
        assert str(exc.value) == message
