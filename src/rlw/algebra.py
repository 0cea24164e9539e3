"""Finite residuated lattices as explicit tables, plus the canonical file format.

Elements of an algebra of size n are the indices 0..n-1.  The order is either
the tag "chain" (index order is the algebra order) or a boolean matrix.  Index
order is read as the algebra order only under the "chain" tag: everything else
compares through `leq`, so a totally ordered algebra given as a matrix may
number its elements in any order.  Outside input (files, catalog tables) is
validated by `finite_algebra`, which derives the lattice and residual tables
(never stored in files).  A table whose monoid laws are already checked (a
completed partial table, a nested sum, a submonoid of a valid chain) goes
through `from_monoid`, the derivation `finite_algebra` ends with, which
decides residuation and nothing else: `finite_algebra` checks the constants
and labels it is given, and `completion.complete_partial` those of a partial.
Algebras derived from a valid one (subalgebras, quotients, `as_chain`) go
through `derived`, which reads their key first and all five tables only for
a new table, and number their elements by `induced_order`: in the algebra
order when that is total (tagged "chain"), else in ascending index order.

`lattice_order` and `from_monoid` read each table they derive off principal
sets: x meet y is the top of the common lower bounds of x and y, x join y the
bottom of their common upper bounds, x\\z the top of {y : x*y <= z} and z/x
the top of {w : w*x <= z}.  The order is a lattice, and the multiplication
residuated, exactly when each of these sets is principal: a principal
down-set (an up-set for joins).  See Galatos, Jipsen, Kowalski and Ono,
Residuated Lattices (2007).
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace

FILE_FORMAT = "rlw-algebra/1"
PARTIAL_FORMAT = "rlw-partial/1"
SPAN_FORMAT = "rlw-span/1"
CONSTANT_NAMES = ("f", "bot", "top")
OPS = ("mult", "meet", "join", "lres", "rres")  # the five operation tables


def ops_to_check(chain):
    """The tables a closure or homomorphism check reads: on a chain only
    mult, lres and rres, since meet and join are min and max, which keep
    every subset closed and are preserved by every monotone map."""
    return ("mult", "lres", "rres") if chain else OPS


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
class Check:
    """A yes/no answer, true when it holds, with a witness when it does not."""
    holds: bool
    witness: object = None

    def __bool__(self):
        return self.holds


_table_ids = {}   # (key(), chain) -> table id
by_table_id = []  # table id -> the first algebra whose `table_id` was read


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

    @property
    def signature(self):
        """The designated constant names, in f, bot, top order."""
        return tuple(k for k, _ in self.constants)

    def has_constant(self, nm):
        return nm in self.signature

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

    @functools.cached_property
    def is_totally_ordered(self):
        return self.chain or induced_order(self.leq, self.elements)[1]

    def label(self, x):
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    def key(self):
        """Identity of the algebra up to renaming/labels (used for dedup)."""
        return (self.size, self.unit, self.mult, self.leq, self.constants)

    @functools.cached_property
    def table_id(self):
        """A small int naming `key()` and the `chain` tag, shared by copies that
        differ in name or labels only.  The registry has one entry per table a
        cache of facts on tables alone asks for or `derived` builds.  Ids are
        process-local (nothing pickles a FiniteAlgebra)."""
        tid = _table_ids.setdefault((self.key(), self.chain), len(by_table_id))
        if tid == len(by_table_id):
            by_table_id.append(self)
        return tid

    # -- derived views ------------------------------------------------------

    def with_constants(self, name, constants):
        """The same (already validated) tables under a new name and constants.

        Only the constants are checked; nothing is derived again.
        """
        return FiniteAlgebra(str(name), self.size, self.unit, self.mult, self.chain,
                             self.leq, _constant_tuple(self.size, self.leq, constants),
                             self.meet, self.join, self.lres, self.rres, self.labels)

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
        return replace(derived(self, order, pos, True), name=self.name, labels=labels)

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


def derived(A, elements, index, chain):
    """The algebra whose element i is `elements[i]` of the valid algebra A: a
    subuniverse, or one representative per congruence block.  Its tables, unit
    and constants are A's, read through `index` (element of A -> new
    position), with no check.  With `chain` set the order is index order and
    meet/join are the shared min/max tables; otherwise the order is read off
    the derived meet.  Once the key is read, a registered table (`table_id`) is
    returned under any name and labels; only a new one is built whole and
    registered, under A's name.  Callers that report it rename it."""
    def read(t):   # from lists, so that each tuple is allocated at its exact size
        return tuple([tuple([index[t[x][y]] for y in elements]) for x in elements])
    k = len(elements)
    if chain:
        leq, (meet, join) = chain_leq(k), _chain_lattice_tables(k)
    else:
        meet = read(A.meet)
        leq = tuple(tuple(meet[i][j] == i for j in range(k)) for i in range(k))
    unit, mult = index[A.unit], read(A.mult)
    constants = tuple((nm, index[v]) for nm, v in A.constants)
    tid = _table_ids.get(((k, unit, mult, leq, constants), chain))
    if tid is None:   # a new table: read the rest and register it
        tid = FiniteAlgebra(A.name, k, unit, mult, chain, leq, constants, meet,
                            join if chain else read(A.join), read(A.lres), read(A.rres)).table_id
    return by_table_id[tid]


def least_element(leq, n):
    """The least of 0..n-1 under the 0/1 matrix `leq`, or None."""
    return next((x for x in range(n) if all(leq[x][y] for y in range(n))), None)


def is_commutative(A):
    n = A.size
    return all(A.mult[x][y] == A.mult[y][x] for x in range(n) for y in range(n))


def induced_order(leq, items):
    """The items in the order `leq` induces on them when that order is total,
    else in ascending index order; returns (order, total).  Whatever a sort
    by `leq` makes of items that are not a chain, its result is a chain
    exactly when each item is below the next (by transitivity)."""
    items = sorted(items)
    order = sorted(items, key=functools.cmp_to_key(lambda x, y: -1 if leq[x][y] else 1))
    if all(leq[x][y] for x, y in zip(order, order[1:])):
        return order, True
    return items, False


@functools.lru_cache(maxsize=32)
def chain_leq(n):
    return tuple(tuple(i <= j for j in range(n)) for i in range(n))


@functools.lru_cache(maxsize=32)
def _chain_lattice_tables(n):
    """Meet and join of the chain 0 < 1 < ... < n-1: min and max."""
    meet = tuple(tuple(min(x, y) for y in range(n)) for x in range(n))
    join = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    return meet, join


def _principal_table(principal, sets, error, what):
    """Read a table off principal sets: `principal[x]` is the principal set
    of element x, and cell (a, b) of the result is the element whose
    principal set is `sets[a][b]` (all as bit sets).  A cell whose set is not
    principal raises `error(what(a, b))`."""
    index = {s: x for x, s in enumerate(principal)}
    # from lists, so that each tuple is allocated at its exact size
    table = tuple([tuple([index.get(s) for s in row]) for row in sets])
    for a, row in enumerate(table):
        if None in row:
            raise error(what(a, row.index(None)))
    return table


def lattice_order(n, leq):
    """Check the order of an n-element algebra and return it as a boolean
    matrix with its meet and join tables.

    `leq` is "chain" or a checked n x n 0/1 (or bool) matrix: a partial order in
    which the common lower (upper) bounds of any x, y form a principal down-set
    (up-set), whose top is x meet y (whose bottom is x join y).  Raises NotALattice.
    """
    if leq == "chain":   # a chain is always a lattice: meet and join are min and max
        return (chain_leq(n),) + _chain_lattice_tables(n)
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
    down = [sum(1 << w for w in range(n) if le[w][x]) for x in range(n)]
    up = [sum(1 << w for w in range(n) if le[x][w]) for x in range(n)]
    meet = _principal_table(down, [[a & b for b in down] for a in down], NotALattice,
                            lambda x, y: f"no meet for ({x},{y})")
    join = _principal_table(up, [[a & b for b in up] for a in up], NotALattice,
                            lambda x, y: f"no join for ({x},{y})")
    return le, meet, join


def _residual_tables(n, le, mult):
    """x\\z and z/x as the tops of {y : x*y <= z} and {w : w*x <= z}; `mult` is
    residuated iff all these sets are principal down-sets.  Raises
    NotResiduated."""
    below = [[w for w in range(n) if le[w][z]] for z in range(n)]

    def witnesses(rows):   # [[{i : row[i] <= z} for z] for row in rows] as bit sets
        out = []
        for row in rows:
            preimage = [0] * n   # value -> the positions in row that hold it
            for i, v in enumerate(row):
                preimage[v] |= 1 << i
            # the preimages are disjoint, so their sum is their union
            out.append([sum(map(preimage.__getitem__, ws)) for ws in below])
        return out

    down = [sum(1 << w for w in ws) for ws in below]
    lres = _principal_table(
        down, witnesses(mult), NotResiduated, lambda x, z:
        f"{x}\\{z} does not exist: {{y : {x}*y <= {z}}} is not a principal down-set")
    rres = _principal_table(   # witnesses of the columns give {w : w*x <= z} at [x][z]
        down, list(zip(*witnesses(zip(*mult)))), NotResiduated, lambda z, x:
        f"{z}/{x} does not exist: {{w : w*{x} <= {z}}} is not a principal down-set")
    return lres, rres


def _chain_residual_tables(n, mult):
    """x\\z and z/x of a table on the chain 0 < ... < n-1, or None when it is
    not residuated.  On a finite chain `mult` is residuated exactly when every
    row and column is monotone with 0 absorbing; then x\\z is the last y with
    x*y <= z, read off row x by one two-pointer pass, and z/x likewise off
    column x."""
    cols = tuple(zip(*mult))
    for line in mult + cols:
        if line[0] != 0 or list(line) != sorted(line):
            return None

    def tops(line):   # [max {y : line[y] <= z} for z], in one pass over line
        out, y = [], 0
        for z in range(n):
            while y + 1 < n and line[y + 1] <= z:
                y += 1
            out.append(y)
        return tuple(out)
    return tuple(map(tops, mult)), tuple(zip(*map(tops, cols)))


def _signature(names):
    """The constant names of a chain-class signature as a tuple; ParseError
    for a name outside CONSTANT_NAMES or a repeated one."""
    sig = tuple(names)
    for i, k in enumerate(sig):
        if k not in CONSTANT_NAMES:
            raise ParseError(f"unknown constant name {k!r}")
        if k in sig[:i]:
            raise ParseError(f"constant name {k!r} repeated")
    return sig


def _constant_tuple(n, le, constants):
    """Check designated constants against the order; return them as
    ((name, index), ...) in f, bot, top order."""
    consts = dict(constants or {})
    for k in consts:
        if k not in CONSTANT_NAMES:
            raise ParseError(f"unknown constant name {k!r}")
        if not _is_index(consts[k], n):
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


def _is_index(v, n):
    return type(v) is int and 0 <= v < n


def _is_indices(xs, n):
    return type(xs) is list and all(_is_index(x, n) for x in xs)


def _is_table(rows, n, top, holes=False):
    """Whether rows is an n x n list (or tuple) of the ints 0..top, or nulls with `holes`."""
    if type(rows) not in (list, tuple) or len(rows) != n:
        return False
    for row in rows:
        if type(row) not in (list, tuple) or len(row) != n:
            return False
        for v in row:
            if not (type(v) is int and 0 <= v <= top or holes and v is None):
                return False
    return True


# Key tables of the JSON objects rlw reads: key -> (required, test(value, n),
# what the value must be, a format of n), in test order, `size` (n) first.  A
# document's `format` is checked apart; null passes only where absent is meant.
_STR, _LIST = (lambda v, n: type(v) is str), (lambda v, n: type(v) is list)
ALGEBRA_KEYS = {
    "size": (True, lambda v, n: type(v) is int and v >= 1, "an integer >= 1"),
    "leq": (True, lambda v, n: v == "chain" or _is_table(v, n, 1),
            '"chain" or a {n} x {n} table of the integers 0 and 1'),
    "unit": (True, _is_index, "an index below {n}"),
    "mult": (True, lambda v, n: _is_table(v, n, n - 1), "a {n} x {n} table of indices below {n}"),
    "name": (True, _STR, "a string"),
    "constants": (False, lambda v, n: v is None or type(v) is dict, "an object of indices")}
CONSTRAINT_KEYS = {"equations": (False, _LIST, "a list of 'lhs=rhs' strings"),
                   **dict.fromkeys(("idempotent", "non_idempotent", "central", "non_central"),
                                   (False, _is_indices, "a list of indices below {n}")),
                   **dict.fromkeys(("commutative", "involutive_f"),
                                   (False, lambda v, n: v is None or type(v) is bool,
                                    "true, false or null"))}
PARTIAL_KEYS = {**ALGEBRA_KEYS,
                "mult": (True, lambda v, n: _is_table(v, n, n - 1, holes=True),
                         "a {n} x {n} table of indices below {n} or null"),
                "name": (False, _STR, "a string"),
                "labels": (False, lambda v, n: v is None or _LIST(v, n)
                           and all(type(x) is str for x in v) and len(set(v)) == len(v) == n,
                           "a list of {n} distinct strings"),
                "constraints": (False, lambda v, n: v is None or type(v) is dict
                                and _check_keys(v, CONSTRAINT_KEYS, n, "constraint "),
                                "an object")}
SPAN_KEYS = {**dict.fromkeys("ABC", (True, _STR, "a path or catalog address")),
             **dict.fromkeys(("phi1", "phi2"), (True, _LIST, "a list of indices"))}
DOCUMENT_KEYS = {FILE_FORMAT: ALGEBRA_KEYS, PARTIAL_FORMAT: PARTIAL_KEYS, SPAN_FORMAT: SPAN_KEYS}


def _check_keys(obj, keys, n=None, where=""):
    """True, or ParseError for a key `keys` does not list, a missing one or a failed test."""
    if not obj.keys() <= keys.keys():
        raise ParseError(f"unknown {where}key {next(k for k in obj if k not in keys)!r}")
    n = obj.get("size", n)   # tested first, so no other test reads a bad size
    for key, (required, test, what) in keys.items():
        if required and key not in obj:
            raise ParseError(f"missing {where}field {key!r}")
        if key in obj and not test(obj[key], n):
            raise ParseError(f"{where}{key} must be " + what.format(n=n))
    return True


def finite_algebra(name, size, leq, unit, mult, constants=None, labels=None):
    """Validate raw tables and return a FiniteAlgebra with derived tables.

    The constructor for outside input: the shapes of size, leq, unit and mult
    (by `ALGEBRA_KEYS`, as in a file), the order, the monoid laws, the
    constants and the labels are checked here, and residuation by
    `from_monoid`, which derives the remaining tables.  Algebras derived from
    one already valid go through `derived` instead.
    Raises ParseError / NotALattice / NotAMonoid / NotResiduated / BadConstant.
    """
    for key, value in (("size", size), ("leq", leq), ("unit", unit), ("mult", mult)):
        _, test, what = ALGEBRA_KEYS[key]
        if not test(value, size):   # size first, so no other test reads a bad size
            raise ParseError(f"{key} must be " + what.format(n=size))
    n = size
    lattice = lattice_order(n, leq)
    mt = tuple(map(tuple, mult))

    for x in range(n):
        if mt[unit][x] != x or mt[x][unit] != x:
            raise NotAMonoid(f"unit law fails: e*{x}={mt[unit][x]}, {x}*e={mt[x][unit]}")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mt[mt[x][y]][z] != mt[x][mt[y][z]]:
                    raise NotAMonoid(f"associativity fails at ({x},{y},{z})")
    if labels is not None and len(labels) != n:
        raise ParseError("labels have wrong length")
    return from_monoid(name, n, leq, lattice, unit, mt, _constant_tuple(n, lattice[0], constants),
                       labels and tuple(map(str, labels)))


def from_monoid(name, n, leq, lattice, unit, mult, constants=(), labels=None):
    """The FiniteAlgebra of a table `mult` (a tuple of tuples) already known
    to be a monoid with unit `unit` on the order `leq`, whose
    `lattice_order(n, leq)` is `lattice`, with the checked `constants`
    (((name, index), ...), as `_constant_tuple` returns them) and `labels`
    (a tuple of n strings, or None): only residuation is decided.  Meet and
    join are the lattice's; x\\z and z/x are the tops of {y : x*y <= z} and
    {w : w*x <= z}, and a table where any of these sets is not a principal
    down-set is not residuated.  On the "chain" tag a table whose rows and
    columns are monotone with 0 absorbing is residuated, and its residuals
    are read off those rows and columns in one pass; any other table takes
    the general path, which names the failing residual.  For tables built by
    a search or restriction that has checked the monoid laws itself.
    Raises NotResiduated.
    """
    le, meet, join = lattice
    tables = _chain_residual_tables(n, mult) if leq == "chain" else None
    lres, rres = tables or _residual_tables(n, le, mult)
    return FiniteAlgebra(str(name), n, unit, mult, leq == "chain", le, constants,
                         meet, join, lres, rres, labels)


def read_document(text, fmt):
    """Parse a `fmt` document and check it by its key table in `DOCUMENT_KEYS`."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deep
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ParseError(f"missing or wrong format tag (want {fmt!r})")
    _check_keys({k: v for k, v in doc.items() if k != "format"}, DOCUMENT_KEYS[fmt])
    return doc


def load_algebra(text):
    """Parse and fully validate an algebra file (UTF-8 JSON, rlw-algebra/1)."""
    doc = read_document(text, FILE_FORMAT)
    return finite_algebra(doc["name"], doc["size"], doc["leq"], doc["unit"],
                          doc["mult"], doc.get("constants"))


def save_algebra_file(algebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra.save())
