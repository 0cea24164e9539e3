"""Finite residuated lattices as explicit tables, plus the canonical file format.

Elements of an algebra of size n are the indices 0..n-1.  The order is either
the tag "chain" (index order is the algebra order) or a boolean matrix.  Index
order is read as the algebra order only under the "chain" tag: everything else
compares through `leq`, so a totally ordered algebra given as a matrix may
number its elements in any order.  Outside input (files, partial completions,
catalog tables, nested sums) is validated by `finite_algebra`, which derives
the lattice and residual tables (never stored in files).  Algebras derived
from a valid one (subalgebras, quotients, `as_chain`) read all five tables
from it through `derived`, and number their elements by `induced_order`: in
the algebra order when that is total (tagged "chain"), else in ascending
index order.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace

FILE_FORMAT = "rlw-algebra/1"
SPAN_FORMAT = "rlw-span/1"
CONSTANT_NAMES = ("f", "bot", "top")
OPS = ("mult", "meet", "join", "lres", "rres")  # the five operation tables


class AlgebraError(Exception):
    pass


class ParseError(AlgebraError):
    pass


class NotALattice(AlgebraError):
    pass


class NotAMonoid(AlgebraError):
    pass


class NotResiduated(AlgebraError):
    pass


class BadConstant(AlgebraError):
    pass


class MissingConstant(AlgebraError):
    pass


class BadParameter(AlgebraError):
    pass


class NotAChain(AlgebraError):
    pass


class NotAdmissible(AlgebraError):
    pass


class NotASubuniverse(AlgebraError):
    pass


class SignatureMismatch(AlgebraError):
    pass


class NotAnEmbedding(AlgebraError):
    pass


class NotAHomomorphism(AlgebraError):
    pass


class NotSimple(AlgebraError):
    pass


class NotSubalgebraClosed(AlgebraError):
    pass


class NotSemilinear(AlgebraError):
    pass


class NoCompletion(AlgebraError):
    pass


@dataclass(frozen=True)
class FiniteAlgebra:
    """A validated finite residuated lattice, possibly with f/bot/top constants.

    mult/meet/join/lres/rres are n x n tuples; lres[x][z] = x\\z and
    rres[z][y] = z/y.  `chain` records whether the file/order tag was "chain"
    (index order = algebra order); it is preserved by serialization.
    """

    name: str
    size: int
    unit: int
    mult: tuple
    chain: bool
    leq: tuple
    constants: tuple  # ((name, index), ...) in f, bot, top order
    meet: tuple = field(compare=False)
    join: tuple = field(compare=False)
    lres: tuple = field(compare=False)
    rres: tuple = field(compare=False)
    labels: tuple | None = field(default=None, compare=False)

    # -- basic access -------------------------------------------------------

    @property
    def elements(self):
        return range(self.size)

    def has_constant(self, nm):
        return any(k == nm for k, _ in self.constants)

    def constant(self, nm):
        for k, v in self.constants:
            if k == nm:
                return v
        raise MissingConstant(f"{self.name}: constant '{nm}' is not designated")

    @property
    def bottom(self):
        x = least_element(self.leq, self.size)
        if x is None:
            raise NotALattice(f"{self.name}: no least element")
        return x

    @property
    def top(self):
        for x in self.elements:
            if all(self.leq[y][x] for y in self.elements):
                return x
        raise NotALattice(f"{self.name}: no greatest element")

    @property
    def is_trivial(self):
        return self.size == 1

    @property
    def is_totally_ordered(self):
        if self.chain:
            return True
        n = self.size
        return all(self.leq[x][y] or self.leq[y][x] for x in range(n) for y in range(n))

    def label(self, x):
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    def key(self):
        """Identity of the algebra up to renaming/labels (used for dedup)."""
        return (self.size, self.unit, self.mult, self.leq, self.constants)

    # -- derived views ------------------------------------------------------

    def with_constants(self, name, constants):
        """The same (already validated) tables under a new name and constants.

        Only the constants are checked; nothing is derived again.
        """
        return replace(self, name=str(name),
                       constants=_constant_tuple(self.size, self.leq, constants))

    def reduct(self, keep=()):
        """Drop designated constants not listed in `keep` (the unit stays)."""
        return self.with_constants(self.name,
                                   [(k, v) for k, v in self.constants if k in keep])

    def as_chain(self):
        """Re-code a totally ordered algebra so index order = algebra order."""
        if self.chain:
            return self
        order, total = induced_order(self.leq, self.elements)
        if not total:
            raise NotAChain(f"{self.name} is not totally ordered")
        pos = {x: i for i, x in enumerate(order)}
        labels = tuple(self.label(x) for x in order) if self.labels else None
        return derived(self, self.name, order, pos, True, labels)

    def save(self):
        """Canonical one-line JSON (fixed key order, no whitespace variation)."""
        leq = "chain" if self.chain else [[1 if b else 0 for b in row] for row in self.leq]
        doc = {"format": FILE_FORMAT, "name": self.name, "size": self.size,
               "leq": leq, "unit": self.unit,
               "mult": [list(row) for row in self.mult],
               "constants": {k: v for k, v in self.constants}}
        return json.dumps(doc, separators=(",", ":"))

    def __repr__(self):
        return f"<FiniteAlgebra {self.name} n={self.size}>"


def derived(A, name, elements, index, chain, labels=None):
    """The algebra whose element i is `elements[i]` of the valid algebra A: a
    subuniverse, or one representative per congruence block.  Its tables, unit
    and constants are A's, read through `index` (element of A -> new
    position); nothing is checked again.  With `chain` set the order is index
    order and meet/join are the shared min/max tables; otherwise the order is
    read off the derived meet."""
    def read(t):   # from lists, so that each tuple is allocated at its exact size
        return tuple([tuple([index[t[x][y]] for y in elements]) for x in elements])
    k = len(elements)
    if chain:
        leq, (meet, join) = chain_leq(k), _chain_lattice_tables(k)
    else:
        meet, join = read(A.meet), read(A.join)
        leq = tuple(tuple(meet[i][j] == i for j in range(k)) for i in range(k))
    constants = tuple((nm, index[v]) for nm, v in A.constants)
    return FiniteAlgebra(str(name), k, index[A.unit], read(A.mult), chain, leq, constants,
                         meet, join, read(A.lres), read(A.rres), labels)


def least_element(leq, n):
    """The least of 0..n-1 under the 0/1 matrix `leq`, or None."""
    return next((x for x in range(n) if all(leq[x][y] for y in range(n))), None)


def induced_order(leq, items):
    """The items in the order `leq` induces on them when that order is total,
    else in ascending index order; returns (order, total)."""
    items = sorted(items)
    total = all(leq[x][y] or leq[y][x] for x in items for y in items)
    if total:
        items = sorted(items, key=lambda x: sum(leq[y][x] for y in items))
    return items, total


@functools.lru_cache(maxsize=32)
def chain_leq(n):
    return tuple(tuple(i <= j for j in range(n)) for i in range(n))


@functools.lru_cache(maxsize=32)
def _chain_lattice_tables(n):
    """Meet and join of the chain 0 < 1 < ... < n-1: min and max."""
    meet = tuple(tuple(min(x, y) for y in range(n)) for x in range(n))
    join = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    return meet, join


def _lattice_tables(n, leq):
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            glb = [z for z in lower if all(leq[w][z] for w in lower)]
            if len(glb) != 1:
                raise NotALattice(f"no meet for ({x},{y})")
            meet[x][y] = glb[0]
            upper = [z for z in range(n) if leq[x][z] and leq[y][z]]
            lub = [z for z in upper if all(leq[z][w] for w in upper)]
            if len(lub) != 1:
                raise NotALattice(f"no join for ({x},{y})")
            join[x][y] = lub[0]
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def _residual_tables(n, leq, mult, join):
    # x\z exists iff {y : x*y <= z} is nonempty and contains its own join;
    # afterwards the full residuation law is checked for every triple.
    lres = [[None] * n for _ in range(n)]
    rres = [[None] * n for _ in range(n)]
    for x in range(n):
        for z in range(n):
            ys = [y for y in range(n) if leq[mult[x][y]][z]]
            if not ys:
                raise NotResiduated(f"{x}\\{z} does not exist: no y with {x}*y <= {z}")
            m = ys[0]
            for y in ys[1:]:
                m = join[m][y]
            if not leq[mult[x][m]][z]:
                raise NotResiduated(f"{x}\\{z} does not exist: witness set has no maximum")
            lres[x][z] = m
            xs = [w for w in range(n) if leq[mult[w][x]][z]]
            if not xs:
                raise NotResiduated(f"{z}/{x} does not exist: no w with w*{x} <= {z}")
            m = xs[0]
            for w in xs[1:]:
                m = join[m][w]
            if not leq[mult[m][x]][z]:
                raise NotResiduated(f"{z}/{x} does not exist: witness set has no maximum")
            rres[z][x] = m
    for x in range(n):
        for y in range(n):
            for z in range(n):
                prod_le = leq[mult[x][y]][z]
                if prod_le != leq[y][lres[x][z]]:
                    raise NotResiduated(f"residuation law fails at x={x}, y={y}, z={z} (left)")
                if prod_le != leq[x][rres[z][y]]:
                    raise NotResiduated(f"residuation law fails at x={x}, y={y}, z={z} (right)")
    return tuple(map(tuple, lres)), tuple(map(tuple, rres))


def _constant_tuple(n, le, constants):
    """Check designated constants against the order; return them as
    ((name, index), ...) in f, bot, top order."""
    consts = dict(constants or {})
    for k in consts:
        if k not in CONSTANT_NAMES:
            raise ParseError(f"unknown constant name {k!r}")
        if not isinstance(consts[k], int) or not 0 <= consts[k] < n:
            raise ParseError(f"constant {k}={consts[k]!r} out of range")
    if "bot" in consts:
        b = consts["bot"]
        if not all(le[b][x] for x in range(n)):
            raise BadConstant(f"bot={b} is not the least element")
    if "top" in consts:
        t = consts["top"]
        if not all(le[x][t] for x in range(n)):
            raise BadConstant(f"top={t} is not the greatest element")
    return tuple((k, consts[k]) for k in CONSTANT_NAMES if k in consts)


def finite_algebra(name, size, leq, unit, mult, constants=None, labels=None):
    """Validate raw tables and return a FiniteAlgebra with derived tables.

    The constructor for outside input: the order, the monoid laws, the
    residuals and the constants are all checked.  Algebras derived from one
    already valid go through `derived` instead.  `leq` is either the string
    "chain" or an n x n 0/1 (or bool) matrix.
    Raises ParseError / NotALattice / NotAMonoid / NotResiduated / BadConstant.
    """
    if not isinstance(size, int) or size < 1:
        raise ParseError(f"bad size {size!r}")
    n = size
    chain = leq == "chain"
    if chain:
        le = chain_leq(n)
    else:
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ParseError("leq matrix has wrong shape")
        le = tuple(tuple(bool(v) for v in row) for row in leq)
        for x in range(n):
            if not le[x][x]:
                raise NotALattice(f"leq not reflexive at {x}")
            for y in range(n):
                if x != y and le[x][y] and le[y][x]:
                    raise NotALattice(f"leq not antisymmetric at ({x},{y})")
                for z in range(n):
                    if le[x][y] and le[y][z] and not le[x][z]:
                        raise NotALattice(f"leq not transitive at ({x},{y},{z})")
    if len(mult) != n or any(len(row) != n for row in mult):
        raise ParseError("mult table has wrong shape")
    mt = tuple(tuple(int(v) for v in row) for row in mult)
    for row in mt:
        for v in row:
            if not 0 <= v < n:
                raise ParseError(f"mult entry {v} out of range")
    if not isinstance(unit, int) or not 0 <= unit < n:
        raise ParseError(f"unit {unit!r} out of range")

    # a chain is always a lattice: its meet and join are min and max
    meet, join = _chain_lattice_tables(n) if chain else _lattice_tables(n, le)

    for x in range(n):
        if mt[unit][x] != x or mt[x][unit] != x:
            raise NotAMonoid(f"unit law fails: e*{x}={mt[unit][x]}, {x}*e={mt[x][unit]}")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mt[mt[x][y]][z] != mt[x][mt[y][z]]:
                    raise NotAMonoid(f"associativity fails at ({x},{y},{z})")

    lres, rres = _residual_tables(n, le, mt, join)

    const_tuple = _constant_tuple(n, le, constants)
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ParseError("labels have wrong length")

    return FiniteAlgebra(str(name), n, unit, mt, chain, le, const_tuple,
                         meet, join, lres, rres, labels)


def read_document(text, fmt, holes=False):
    """Parse an algebra document, or with `holes` a partial one whose `mult`
    may hold nulls, and check the JSON shape of its tables; the algebra laws
    are left to `finite_algebra`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ParseError(f"missing or wrong format tag (want {fmt!r})")
    for key in ("size", "leq", "unit", "mult"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    n, unit = doc["size"], doc["unit"]
    if type(n) is not int or n < 1:
        raise ParseError(f"bad size {n!r}")
    if type(unit) is not int or not 0 <= unit < n:
        raise ParseError(f"unit {unit!r} out of range")

    def table(key, cell_ok, what):
        rows = doc[key]
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(r, list) and len(r) == n and all(map(cell_ok, r))
                        for r in rows)):
            raise ParseError(f"{key} must be a {n} x {n} table of {what}")

    table("mult", lambda v: (holes and v is None) or (type(v) is int and 0 <= v < n),
          f"indices 0..{n - 1}" + (" or null" if holes else ""))
    if doc["leq"] != "chain":
        table("leq", lambda v: v in (0, 1), "0/1 entries")
    if not isinstance(doc.get("constants") or {}, dict):
        raise ParseError("constants must be an object mapping names to indices")
    return doc


def load_algebra(text):
    """Parse and fully validate an algebra file (UTF-8 JSON, rlw-algebra/1)."""
    doc = read_document(text, FILE_FORMAT)
    if "name" not in doc:
        raise ParseError("missing field 'name'")
    return finite_algebra(doc["name"], doc["size"], doc["leq"], doc["unit"],
                          doc["mult"], doc.get("constants") or {})


def load_algebra_file(path):
    with open(path, encoding="utf-8") as fh:
        return load_algebra(fh.read())


def save_algebra_file(algebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra.save())
