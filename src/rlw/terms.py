"""Terms over the residuated-lattice signature and exhaustive identity checks.

Infix syntax (CLI and constraint files):  *  \\  /  /\\  \\/  ->  with constants
e f bot top, variables/element names as identifiers, ~t for t\\f, and postfix
powers t^3, t^l (= e/t), t^r (= t\\e), t^w (= t^l /\\ t^r).  Shorthands expand
to core symbols at parse time; -> stays in the tree so it can be rejected on
non-commutative algebras.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .algebra import CONSTANT_NAMES, BadParameter, Check, ParseError, is_commutative

CONSTS = ("e",) + CONSTANT_NAMES


@dataclass(frozen=True)
class Term:
    op: str            # "var", "const", or an operation symbol (incl. "->")
    name: str = ""
    args: tuple = ()


def var(name):
    return Term("var", name)


def const(name):
    if name not in CONSTS:
        raise ParseError(f"unknown constant {name!r}")
    return Term("const", name)


def binop(op, left, right):
    return Term(op, args=(left, right))


def power(t, n):
    out = const("e")
    for _ in range(n):
        out = binop("*", out, t) if out != const("e") else t
    return out


def neg(t):
    return binop("\\", t, const("f"))


def wedge_l(t):
    return binop("/", const("e"), t)


def wedge_r(t):
    return binop("\\", t, const("e"))


def wedge(t):
    return binop("/\\", wedge_l(t), wedge_r(t))


def subterms(t):
    yield t
    for a in t.args:
        yield from subterms(a)


def free_vars(t):
    return {s.name for s in subterms(t) if s.op == "var"}


_TOKEN = re.compile(r"\s*(/\\|\\/|->|\^|[*\\/()~]|[A-Za-z_][A-Za-z0-9_']*|\d+)")


def _tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    out.append(None)  # end marker
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        t = self.join_()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return t

    def join_(self):
        t = self.meet_()
        while self.peek() == "\\/":
            self.take()
            t = binop("\\/", t, self.meet_())
        return t

    def meet_(self):
        t = self.resid()
        while self.peek() == "/\\":
            self.take()
            t = binop("/\\", t, self.resid())
        return t

    def resid(self):
        t = self.prod()
        while self.peek() in ("\\", "/", "->"):
            op = self.take()
            rhs = self.prod()
            t = binop(op, t, rhs)
        return t

    def prod(self):
        t = self.unary()
        while self.peek() == "*":
            self.take()
            t = binop("*", t, self.unary())
        return t

    def unary(self):
        if self.peek() == "~":
            self.take()
            return neg(self.unary())
        return self.postfix()

    def postfix(self):
        t = self.atom()
        while self.peek() == "^":
            self.take()
            x = self.take()
            if x == "l":
                t = wedge_l(t)
            elif x == "r":
                t = wedge_r(t)
            elif x == "w":
                t = wedge(t)
            elif x is not None and x.isdigit():
                t = power(t, int(x))
            else:
                raise ParseError(f"bad exponent {x!r}")
        return t

    def atom(self):
        tok = self.take()
        if tok == "(":
            t = self.join_()
            self.expect(")")
            return t
        if tok is None or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", tok or ""):
            raise ParseError(f"expected term, got {tok!r}")
        if tok in CONSTS:
            return const(tok)
        return var(tok)


MAX_DEPTH = 256   # levels of a term's tree; the walks over a term recurse once per level


class _TooDeep(ParseError):
    """A term nested deeper than the parser or MAX_DEPTH allow."""


def _depth(t):
    depth, level = 0, (t,)
    while level:
        depth += 1
        level = [a for s in level for a in s.args]
    return depth


def parse_term(text):
    """The term `text` spells; ParseError for bad syntax, and for nesting
    deeper than the recursive-descent parser follows or than MAX_DEPTH."""
    try:
        t = _Parser(_tokenize(text)).parse()
        if _depth(t) <= MAX_DEPTH:
            return t
    except RecursionError:
        pass
    raise _TooDeep(f"term {text[:40]!r}... is nested too deep")


def check_equations(equations, constants, commutative, labels=None):
    """Check 'lhs=rhs' strings before any algebra they constrain is built:
    BadParameter unless `equations` is a list (or tuple) of them; ParseError
    for a bad term, a constant other than e that is not designated (named in
    `constants`) or a label, and '->' unless `commutative`.  With `labels` the
    equations are about named elements, and every variable must be a label;
    without, they are identities in free variables.  Returns the parsed
    (lhs, rhs) pairs, in order."""
    if not (isinstance(equations, (list, tuple))
            and all(isinstance(eq, str) and eq.count("=") == 1 for eq in equations)):
        raise BadParameter(f"equations must be a list of 'lhs=rhs' strings, got {equations!r}")
    names = {"e", *constants, *(labels or ())}
    pairs = []
    for eq in equations:
        sides = []
        for side in eq.split("="):   # each side parsed, then checked
            try:
                sides.append(parse_term(side))
            except _TooDeep:
                raise ParseError(f"equation {eq[:40]!r}... is nested too deep") from None
            for t in subterms(sides[-1]):
                if t.op == "const" and t.name not in names:
                    raise ParseError(f"equation {eq!r}: constant {t.name!r} is not designated")
                if t.op == "->" and not commutative:
                    raise ParseError(f"equation {eq!r}: '->' needs commutative: true")
                if t.op == "var" and labels is not None and t.name not in labels:
                    raise ParseError(f"equation {eq!r}: variable {t.name!r} is not a label")
        pairs.append(tuple(sides))
    return pairs


def _check_arrows(A, terms):
    """ParseError if a term uses '->', sugar for \\ on commutative algebras
    only, and A is not commutative; A is tested once, and only then."""
    if any(s.op == "->" for t in terms for s in subterms(t)) and not is_commutative(A):
        raise ParseError("'->' is only defined on commutative algebras")


def eval_term(A, t, env):
    """Value of term t in algebra A under env (variable name -> element)."""
    _check_arrows(A, (t,))
    return _value(A, t, env)


def equations_hold(A, pairs, env):
    """Whether lhs = rhs in A under env for each parsed (lhs, rhs) pair."""
    _check_arrows(A, [t for pair in pairs for t in pair])
    return all(_value(A, lhs, env) == _value(A, rhs, env) for lhs, rhs in pairs)


def _value(A, t, env):
    if t.op == "var":
        if t.name not in env:
            raise ParseError(f"unbound variable {t.name!r}")
        return env[t.name]
    if t.op == "const":
        # element names in constraint files may shadow constants ("bot" as a
        # label of an undesignated least element); labels are truthful
        if t.name in env:
            return env[t.name]
        return A.unit if t.name == "e" else A.constant(t.name)
    a = _value(A, t.args[0], env)
    b = _value(A, t.args[1], env)
    if t.op == "*":
        return A.mult[a][b]
    if t.op == "/\\":
        return A.meet[a][b]
    if t.op == "\\/":
        return A.join[a][b]
    if t.op in ("\\", "->"):   # '->' checked by `_check_arrows`
        return A.lres[a][b]
    if t.op == "/":
        return A.rres[a][b]
    raise ParseError(f"unknown operation {t.op!r}")


def check_identity(A, lhs, rhs, relation="eq"):
    """Exhaustively check lhs = rhs ("eq") or lhs <= rhs ("le"); witness on failure."""
    if isinstance(lhs, str):
        lhs = parse_term(lhs)
    if isinstance(rhs, str):
        rhs = parse_term(rhs)
    if relation == "eq":
        ok = lambda a, b: a == b
    elif relation == "le":
        ok = lambda a, b: A.leq[a][b]
    else:
        raise ParseError(f"unknown relation {relation!r}")
    _check_arrows(A, (lhs, rhs))
    names = sorted(free_vars(lhs) | free_vars(rhs))
    for vals in itertools.product(A.elements, repeat=len(names)):
        env = dict(zip(names, vals))
        if not ok(_value(A, lhs, env), _value(A, rhs, env)):
            return Check(False, env)
    return Check(True)
