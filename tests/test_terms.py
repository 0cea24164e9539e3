import pytest

from rlw import ParseError, check_identity, enumerate_chains, eval_term, parse_term
from rlw.catalog import make_figure, make_goedel, make_sugihara
from rlw.terms import free_vars


def test_parse_precedence():
    t = parse_term("x \\/ y /\\ z * w")
    assert t.op == "\\/"
    assert t.args[1].op == "/\\"
    assert t.args[1].args[1].op == "*"


def test_parse_power_and_shorthands():
    assert parse_term("x^2") == parse_term("x * x")
    assert parse_term("x^1") == parse_term("x")
    assert parse_term("x^0") == parse_term("e")
    assert parse_term("~x") == parse_term("x \\ f")
    assert parse_term("x^l") == parse_term("e / x")
    assert parse_term("x^r") == parse_term("x \\ e")
    assert parse_term("x^w") == parse_term("(e/x) /\\ (x\\e)")


def test_parse_errors():
    for bad in ("x +", "(x", "x^q", "* x", ""):
        with pytest.raises(ParseError):
            parse_term(bad)


def test_eval_goedel_arrow():
    # in G_3 (-2 < -1 < 0 coded 0,1,2): (-2) -> (-1) = e
    A = make_goedel(3)
    assert eval_term(A, parse_term("x -> y"), {"x": 0, "y": 1}) == A.unit


def test_unit_law_term():
    for A in (make_goedel(3), make_sugihara(4)):
        assert check_identity(A, "e * x", "x")


def test_eval_sugihara():
    # in S_4: (-2) * 2 = -2
    A = make_sugihara(4)
    assert eval_term(A, parse_term("x * y"), {"x": 0, "y": 3}) == 0


def test_arrow_rejected_on_noncommutative():
    A = make_figure("strictsimp")
    with pytest.raises(ParseError):
        eval_term(A, parse_term("x -> y"), {"x": 0, "y": 1})


def test_check_identity_witness():
    A = make_figure("strictsimp")
    res = check_identity(A, "x * y", "y * x")
    assert not res.holds
    # ab = a != b = ba
    w = res.witness
    assert A.mult[w["x"]][w["y"]] != A.mult[w["y"]][w["x"]]
    assert {A.labels[w["x"]], A.labels[w["y"]]} == {"a", "b"}


def test_check_identity_le():
    A = make_goedel(4)
    assert check_identity(A, "x", "e", "le")  # integral
    assert check_identity(A, "x", "x")


def test_missing_constant_in_term():
    A = make_goedel(3).reduct()   # drops bot
    from rlw import MissingConstant
    with pytest.raises(MissingConstant):
        eval_term(A, parse_term("bot"), {})


def test_free_vars():
    assert free_vars(parse_term("x * (y \\ x) /\\ e")) == {"x", "y"}


def test_eval_residuals_and_shorthands_against_tables():
    # x/y, x\y and the shorthands that expand to them, on a chain with f
    # where x\y and y/x differ, against direct reads of its tables
    A = next(A for A in enumerate_chains(4, {"commutative": False}, ("f",))
             if A.name == "chain4u2n2f0")
    e, f = A.unit, A.constant("f")
    assert any(A.lres[x][y] != A.rres[y][x] for x in A.elements for y in A.elements)
    for x in A.elements:
        env = {"x": x}
        value = lambda text: eval_term(A, parse_term(text), env)
        assert value("x^l") == A.rres[e][x]
        assert value("x^r") == A.lres[x][e]
        assert value("x^w") == A.meet[A.rres[e][x]][A.lres[x][e]]
        assert value("~x") == A.lres[x][f]
        assert value("x^3") == A.mult[A.mult[x][x]][x]
        for y in A.elements:
            env["y"] = y
            assert value("x/y") == A.rres[x][y]
            assert value("x\\y") == A.lres[x][y]


def test_arrow_tests_commutativity_once_per_check(monkeypatch):
    # '->' is tested against the algebra once per check_identity, not at every
    # '->' node under every assignment, and only when a term uses it
    import rlw.terms
    calls = []
    real = rlw.terms.is_commutative
    monkeypatch.setattr(rlw.terms, "is_commutative", lambda A: calls.append(A) or real(A))
    C2 = make_figure("C2")
    assert check_identity(C2, "x->(y->z)", "(x*y)->z")
    assert len(calls) == 1
    assert check_identity(C2, "x*y", "y*x")
    assert len(calls) == 1
    with pytest.raises(ParseError, match="only defined on commutative algebras"):
        check_identity(make_figure("strictsimp"), "x->y", "x->y")
    assert len(calls) == 2


@pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000, "*".join(["x"] * 5000),
                                  "~" * 3000 + "x", "x^5000"])
def test_deep_terms_are_parse_errors(text):
    # nesting the parser cannot follow, or deeper than MAX_DEPTH levels that
    # evaluation would recurse through, is refused where the text is parsed
    with pytest.raises(ParseError, match="nested too deep"):
        parse_term(text)
    with pytest.raises(ParseError, match="nested too deep"):
        check_identity(make_goedel(3), text, "x")
    assert check_identity(make_goedel(3), "x^200", "x")
