import hashlib
import json

import pytest

from rlw import ClassSpec, ParseError, complete_partial, enumerate_chains, load_partial
from rlw.catalog import figure_completions, make_goedel, make_rsa
from rlw.completion import PartialAlgebra, _Search
from rlw.morphisms import are_isomorphic
from rlw.properties import satisfies_flags

import oracles


def test_enumerate_counts_match_bruteforce():
    # oracle-computed counts; note only one 2-chain exists (e must be top)
    for n in (1, 2, 3):
        want = {(u, m) for (u, m) in oracles.brute_chains(n)}
        got = {(A.unit, A.mult) for A in enumerate_chains(n)}
        assert got == want
    assert len(list(enumerate_chains(2))) == 1


def test_enumerate_matches_from_scratch_validation():
    # members are derived from tables validated once; each must equal a
    # from-scratch validation of the same table and constants, in order
    def fields(A):
        return (A.name, A.unit, A.constants, A.mult, A.meet, A.join, A.lres, A.rres)

    for n in range(1, 6):
        bases = list(enumerate_chains(n))
        for sig in ((), ("f",), ("bot", "top", "f")):
            got = [fields(A) for A in enumerate_chains(n, constants=sig)]
            want = [fields(A) for A in oracles.chain_members_from_scratch(bases, sig)]
            assert got == want


def test_no_leaf_fails_associativity(monkeypatch):
    # each placed cell is checked against every associativity triple it
    # completes, those that read it twice included, so every completed table
    # is a monoid, and deriving its residuals alone builds what a from-scratch
    # validation of the table builds
    import rlw.completion
    leaves = []

    def recording(*args, original=rlw.completion.from_monoid):
        leaves.append(original(*args))
        return leaves[-1]

    monkeypatch.setattr("rlw.completion.from_monoid", recording)
    for n in range(1, 7):
        leaves.clear()
        members = list(enumerate_chains(n))
        assert len(members) == len(leaves) == (1, 1, 3, 15, 84, 575)[n - 1], n
        assert ([oracles.fields(A) for A in leaves]
                == [oracles.fields(oracles.rebuilt(A)) for A in leaves]), n


def test_every_yield_validates():
    # enumerate_chains output passes the independent law checker
    for n in (4, 5):
        for A in enumerate_chains(n):
            assert oracles.law_violation(n, A.unit, [list(r) for r in A.mult]) is None


def test_filtered_enumeration_is_subset():
    for n in (4, 5):
        plain = {A.mult for A in enumerate_chains(n)}
        for flags in ({"idempotent": True}, {"commutative": True},
                      {"integral": True}, {"square_increasing": True}):
            sub = {A.mult for A in enumerate_chains(n, flags)}
            assert sub <= plain
            # exactness: the filtered set is exactly the satisfying subset
            manual = {A.mult for A in enumerate_chains(n)
                      if satisfies_flags(A, flags)}
            assert sub == manual


def test_integral_meet_chain_unique():
    got = list(enumerate_chains(3, {"integral": True,
                                    "equations": ("x*y=x/\\y",)}))
    assert len(got) == 1
    assert are_isomorphic(got[0], make_rsa(3)) is not None


def test_f_signature_enumeration():
    plain = list(enumerate_chains(3))
    with_f = list(enumerate_chains(3, constants=("f",)))
    assert len(with_f) == 3 * len(plain)   # every placement of f
    assert all(A.has_constant("f") for A in with_f)


def test_figure_multiplicities():
    # frozen from the brute-force oracle (see test_figures_vs_oracle)
    for name in ("cepfail", "strictsimp", "idem-B", "idem-C",
                 "A1", "B1", "C1", "A2", "B2", "C2"):
        assert figure_completions(name).multiplicity == 1, name


def test_a1_against_bruteforce_oracle():
    def c_nonidem(t):
        return t[2][2] != 2

    def c_comm(t):
        return all(t[i][j] == t[j][i] for i in range(4) for j in range(4))

    def c_neg(t):
        lres, rres = oracles.chain_residuals(4, t)
        inv = all(rres[2][lres[x][2]] == x and lres[rres[2][x]][2] == x
                  for x in range(4))
        return lres[2][2] == 1 and lres[3][2] == 0 and inv

    def c_sqinc(t):
        return all(t[x][x] >= x for x in range(4))

    want = oracles.brute_completions(4, 1, {(2, 2): 3, (3, 3): 3},
                                     [c_nonidem, c_comm, c_neg, c_sqinc])
    res = figure_completions("A1")
    assert [A.mult for A in res.algebras] == want == [
        ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3))]


def test_cepfail_against_bruteforce_oracle():
    def c_nonidem(t):
        return t[1][1] != 1

    def c_central_b(t):
        return all(t[2][x] == t[x][2] for x in range(5))

    def c_noncentral(t):
        return (any(t[3][x] != t[x][3] for x in range(5))
                and any(t[1][x] != t[x][1] for x in range(5)))

    want = oracles.brute_completions(
        5, 4, {(1, 3): 1, (3, 1): 0, (2, 2): 2, (3, 3): 3},
        [c_nonidem, c_central_b, c_noncentral])
    res = figure_completions("cepfail")
    assert [A.mult for A in res.algebras] == want
    assert res.multiplicity == 1


def test_fully_specified_completion():
    G3 = make_goedel(3)
    P = PartialAlgebra(name="G_3", size=3, leq="chain", unit=2,
                       mult=[list(r) for r in G3.mult], constants={"bot": 0})
    res = complete_partial(P)
    assert res.multiplicity == 1 and res.algebras[0].mult == G3.mult


def test_contradictory_partial_has_no_completion():
    P = PartialAlgebra(name="bad", size=3, leq="chain", unit=2,
                       mult=[[None, 2, None], [None, None, None],
                             [None, None, None]])   # 0*1 = 2 breaks monotony
    assert complete_partial(P).multiplicity == 0


def test_given_cells_checked_against_their_windows():
    # 2*1 = 2 exceeds e*1 = 1 below it in column 1, and 1*2 = 2 exceeds 1*e = 1
    # after it in row 1: the search does not start
    for cell in ((2, 1), (1, 2)):
        mult = [[None] * 4 for _ in range(4)]
        mult[cell[0]][cell[1]] = 2
        res = complete_partial(PartialAlgebra(name="bad", size=4, leq="chain", unit=3,
                                              mult=mult))
        assert (res.multiplicity, res.nodes) == (0, 0), cell


def test_python_partial_values_refused_before_the_search():
    # a partial built in Python is checked as a partial file is, once, before
    # the search: a value that is not well formed raises an AlgebraError,
    # never reads as "0 completions"
    from rlw.algebra import BadConstant

    def partial(**values):
        return PartialAlgebra(**{"name": "p", "size": 3, "leq": "chain", "unit": 2,
                                 "mult": [[None] * 3 for _ in range(3)], **values})
    assert complete_partial(partial()).multiplicity == 2
    cell = [[None] * 3 for _ in range(3)]
    cell[0][1] = 9
    for values, error in (({"constants": {"bot": 2}}, BadConstant),
                          ({"constants": {"f": 7}}, ParseError),
                          ({"constants": {"zz": 0}}, ParseError),
                          ({"labels": ("a", "e")}, ParseError),
                          ({"unit": 5}, ParseError),
                          ({"mult": cell}, ParseError),
                          ({"idempotent": frozenset({7})}, ParseError)):
        with pytest.raises(error):
            complete_partial(partial(**values))


def test_partial_file_roundtrip():
    text = ('{"format":"rlw-partial/1","name":"p","size":3,"leq":"chain",'
            '"unit":2,"mult":[[null,null,null],[null,null,null],'
            '[null,null,null]],"constants":{},"labels":["bot","a","e"],'
            '"constraints":{"idempotent":[1],"equations":["a*a=a"]}}')
    P = load_partial(text)
    res = complete_partial(P)
    assert res.multiplicity >= 1
    for A in res.algebras:
        assert A.mult[1][1] == 1


def test_null_constraints_and_absent_name():
    doc = {"format": "rlw-partial/1", "size": 2, "leq": "chain", "unit": 1,
           "mult": [[None, None], [None, None]], "constraints": None}
    P = load_partial(json.dumps(doc))
    assert P.name == "partial" and complete_partial(P).multiplicity == 1


def test_enumeration_deterministic():
    first = [(A.unit, A.mult, A.constants) for A in enumerate_chains(5, constants=("f",))]
    second = [(A.unit, A.mult, A.constants) for A in enumerate_chains(5, constants=("f",))]
    assert first == second


def test_limit_stops_early():
    P = PartialAlgebra(name="free", size=4, leq="chain", unit=3,
                       mult=[[None] * 4 for _ in range(4)])
    res = complete_partial(P, limit=2)
    assert res.multiplicity == 2


def test_finish_lets_programming_errors_through(monkeypatch):
    # only NotResiduated drops a candidate completion; anything else is a
    # fault and must not be read as "not a completion"
    import rlw.completion

    def broken(*args, **kwargs):
        raise RuntimeError("broken")
    monkeypatch.setattr(rlw.completion, "from_monoid", broken)
    with pytest.raises(RuntimeError):
        list(enumerate_chains(3))


def _empty_chain(n, unit=None, **constraints):
    return PartialAlgebra(name="free", size=n, leq="chain",
                          unit=n - 1 if unit is None else unit,
                          mult=[[None] * n for _ in range(n)], **constraints)


def test_search_nodes_and_leaves_pinned(monkeypatch):
    # `nodes` is recorded by `rlw complete --json`: n per visited cell, or up
    # to the value at which the limit stopped, however candidates are narrowed
    import rlw.completion
    leaves = []

    def counting(*args, original=rlw.completion.from_monoid):
        leaves.append(args[0])
        return original(*args)

    monkeypatch.setattr("rlw.completion.from_monoid", counting)
    for n, nodes, n_leaves, limited in ((4, 44, 8, 6), (5, 540, 44, 11),
                                        (6, 6876, 308, 18)):
        leaves.clear()
        res = complete_partial(_empty_chain(n))
        assert (res.nodes, len(leaves), res.multiplicity) == (nodes, n_leaves, n_leaves)
        assert complete_partial(_empty_chain(n), limit=3).nodes == limited
    got = {name: figure_completions(name).nodes
           for name in ("A1", "B1", "C1", "cepfail", "idem-C")}
    assert got == {"A1": 4, "B1": 25, "C1": 15, "cepfail": 15, "idem-C": 42}


def test_f_chains_of_size_5_pinned():
    got = [[A.name, A.mult, A.constants] for A in enumerate_chains(5, constants=("f",))]
    assert len(got) == 420
    assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == \
        "ace6bfa3799b0bc488e43a759c0987b054e1f4a3bd9afa5aafaa1a4045aeedf6"


class _WindowCheck(_Search):
    """Records each window the search computes (at a visited cell, or to
    check a given or tied cell) next to the values `oracles.mono_ok` accepts
    there with the cell placed."""

    def __init__(self, P):
        self.visits = []
        super().__init__(P)

    def _window(self, i, j):
        window = super()._window(i, j)
        accepted = []
        for v in range(self.n):
            self.m[i][j] = v
            if oracles.mono_ok(self.m, self.leq, i, j, v):
                accepted.append(v)
        self.m[i][j] = None
        self.visits.append((list(window), accepted))
        return window


def test_window_is_what_mono_ok_accepts():
    for n in range(1, 6):
        for constraints in ({}, {"require": {"commutative": True}},
                            {"central": frozenset({n // 2})}):
            for e in range(1, n) if n > 1 else (0,):
                s = _WindowCheck(_empty_chain(n, e, **constraints))
                assert s.visits or n < 3, (n, constraints, e)
                for window, accepted in s.visits:
                    assert window == accepted, (n, constraints, e)
    # a matrix order: the square 0 < a, b < 1, unit at each element above 0
    leq = [list(map(int, row)) for row in oracles.boolean_square().leq]
    for require in ({}, {"commutative": True}):
        for e in (1, 2, 3):
            s = _WindowCheck(PartialAlgebra(name="sq", size=4, leq=leq, unit=e,
                                            mult=[[None] * 4 for _ in range(4)],
                                            require=require))
            assert s.visits, (require, e)
            for window, accepted in s.visits:
                assert window == accepted, (require, e)


def test_demands_checked_before_the_search(monkeypatch):
    # a demand that names what the partial or the signature lacks is refused
    # before any cell is placed, whether or not a completion exists
    import rlw.completion
    from rlw.algebra import BadParameter
    monkeypatch.setattr(rlw.completion, "_Search", None)
    free = [[None] * 3 for _ in range(3)]
    contradictory = [[None, 2, None], [None] * 3, [None] * 3]
    for mult in (free, contradictory):
        for demands, error in (({"equations": ("top=top",)}, ParseError),
                               ({"equations": ("q*q=q",)}, ParseError),
                               ({"equations": ("a->b=a",)}, ParseError),
                               ({"equations": ("a*f=a",), "constants": {"bot": 0}}, ParseError),
                               ({"require": {"involutive_f": True}}, BadParameter),
                               ({"require": {"cyclic_f": False}}, BadParameter)):
            P = PartialAlgebra(name="p", size=3, leq="chain", unit=2, mult=mult,
                               labels=("a", "b", "e"), **demands)
            with pytest.raises(error):
                complete_partial(P)
    with pytest.raises(BadParameter, match="needs the constant f"):
        next(enumerate_chains(2, {"cyclic_f": True}))
    with pytest.raises(ParseError, match="'->' needs commutative: true"):
        next(enumerate_chains(2, {"equations": ["x->y=y->x"]}))


def test_chain_demand_needs_a_total_order():
    # admissibility is defined on chains: on the Boolean square's order the
    # demand is refused before the search, with a completion (the square
    # itself) and without one (a*b set to the top, above a); on a chain it
    # is taken
    from rlw.algebra import BadParameter
    leq = [[int(b) for b in row] for row in oracles.boolean_square().leq]
    free = [[None] * 4 for _ in range(4)]
    contradictory = [[None] * 4, [None, None, 3, None], [None] * 4, [None] * 4]
    for mult, exists in ((free, True), (contradictory, False)):
        P = PartialAlgebra(name="p", size=4, leq=leq, unit=3, mult=mult)
        assert (complete_partial(P).multiplicity > 0) == exists
        for want in (True, False):
            P.require = {"admissible": want}
            with pytest.raises(BadParameter, match="admissible needs a total order"):
                complete_partial(P)
    P = PartialAlgebra(name="p", size=3, leq="chain", unit=1, mult=[[None] * 3 for _ in range(3)],
                       require={"admissible": True})
    assert complete_partial(P).multiplicity > 0
    assert list(enumerate_chains(3, {"admissible": True}))


def test_equation_constants_may_be_labels_or_designated():
    # a label shadows a constant name; e is always there
    for demands in ({"labels": ("bot", "top", "e")},
                    {"constants": {"top": 2}, "labels": ("a", "b", "e")}):
        P = PartialAlgebra(name="p", size=3, leq="chain", unit=2,
                           mult=[[None] * 3 for _ in range(3)],
                           equations=("top*e=top",), **demands)
        assert complete_partial(P).multiplicity == 2
    P = PartialAlgebra(name="p", size=3, leq="chain", unit=2,
                       mult=[[None] * 3 for _ in range(3)],
                       labels=("a", "b", "e"), equations=("b->a=a",),
                       require={"commutative": True})
    assert complete_partial(P).multiplicity == 1


def test_unknown_or_repeated_constant_names_rejected():
    for sig in (("foo",), ("f", "f"), ("bot", "top", "bot")):
        with pytest.raises(ParseError):
            list(enumerate_chains(3, constants=sig))
        with pytest.raises(ParseError):
            ClassSpec.bounded(3, signature=sig)
