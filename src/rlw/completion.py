"""Backtracking completion of partial multiplication tables, and exhaustive
enumeration of residuated chains.

The search fills unknown cells in growing-principal-submatrix order, so the
left and upper neighbours of a cell are always decided first:

  * unit row/column and the absorbing row/column of the least element are
    pre-filled (residuals cannot exist otherwise);
  * monotonicity is the window of a cell: the values no less than any
    decided cell before it in its row or column, and no greater than any
    after it (on a chain, a range of indices).  A free cell is tried only
    with the values of its window, and a given or tied mirror cell is
    placed only if its value is in its window;
  * associativity is enforced incrementally: setting m[i][j] checks every
    triple whose four lookups just became available, those that read m[i][j]
    twice included, since the cell is placed before it is checked (a product
    index maps each value to the pairs producing it);
  * centrality/commutativity ties force the mirror cell.

Every demand is checked once before the search (`complete_partial`), and so
are the partial's values, as a partial file's are.  Demands that cannot be
propagated cheaply (non-central witnesses, equations, the property filter
`require`) are then checked on completed tables.  A completed table has had
its unit row and column, its monotonicity and every associativity triple
checked cell by cell, so it is a monoid on the given order;
`algebra.from_monoid` derives its residuals, dropping a table that is not
residuated (none on a chain, where monotone with 0 absorbing suffices).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (PARTIAL_FORMAT, PARTIAL_KEYS, BadParameter, NotResiduated, ParseError,
                      _check_keys, _constant_tuple, _is_indices, _signature, from_monoid,
                      induced_order, lattice_order, least_element, read_document)
from . import properties, terms


@dataclass
class PartialAlgebra:
    name: str
    size: int
    leq: object                     # "chain" or boolean matrix
    unit: int
    mult: list                      # n x n entries: int or None
    constants: dict = field(default_factory=dict)
    labels: tuple | None = None
    idempotent: frozenset = frozenset()
    non_idempotent: frozenset = frozenset()
    central: frozenset = frozenset()
    non_central: frozenset = frozenset()
    equations: tuple = ()           # strings in term syntax over labels
    require: dict = field(default_factory=dict)   # property filter (`properties.check_flags`)


@dataclass(frozen=True)
class CompletionResult:
    """`nodes` counts the values the search considered, n per visited cell (or
    up to the value at which `limit` stopped it), whether or not they were
    tried; so it does not depend on how candidates are narrowed."""
    algebras: tuple
    nodes: int

    @property
    def multiplicity(self):
        return len(self.algebras)


def load_partial(text):
    """Read a partial algebra file.  The constraints `commutative` and
    `involutive_f` go into `require`; `complete_partial` checks the partial,
    as one built in Python, and every demand before its search."""
    doc = read_document(text, PARTIAL_FORMAT)
    n, labels = doc["size"], doc.get("labels")
    cs = doc.get("constraints") or {}
    return PartialAlgebra(
        doc.get("name", "partial"), n, doc["leq"], doc["unit"], doc["mult"],
        doc.get("constants") or {}, tuple(labels) if labels else None,
        **{k: frozenset(cs.get(k, ())) for k in ("idempotent", "non_idempotent",
                                                   "central", "non_central")},
        equations=tuple(cs.get("equations", ())),
        require={k: cs[k] for k in ("commutative", "involutive_f") if cs.get(k) is not None})


class _Search:
    """The completions of P, up to `limit`, found on construction in `out`."""

    def __init__(self, P: PartialAlgebra, lattice, limit=None, equations=()):
        self.P = P
        self.equations = equations   # P.equations parsed, by `terms.check_equations`
        self.n = P.size
        self.lattice = lattice   # lattice_order(P.size, P.leq)
        self.leq = self.lattice[0]
        self.constants = _constant_tuple(P.size, self.leq, P.constants)   # checked here alone
        self.chain = P.leq == "chain"
        self.limit = limit
        self.nodes = 0
        self.out = []
        n = self.n
        self.m = [[None] * n for _ in range(n)]
        self.pairs_for = [[] for _ in range(n)]   # value -> [(i, j)] with m[i][j] = value
        # ties: mirror cell forced equal (commutative globally, or central element)
        self.tied = P.require.get("commutative") is True
        self.central = set(P.central)
        e, bot = P.unit, least_element(self.leq, n)
        # the unit and bottom rows and columns and the idempotent diagonal are
        # monotone in any order, so only the given cells, placed after them,
        # are checked against their windows
        known = [c for x in range(n) for c in ((e, x, x), (x, e, x))]
        if bot is not None:   # the least element absorbs
            known += [c for x in range(n) for c in ((bot, x, bot), (x, bot, bot))]
        known += [(x, x, x) for x in P.idempotent]
        given = [(i, j, v) for i, row in enumerate(P.mult)
                 for j, v in enumerate(row) if v is not None]
        if (all(self._set(i, j, v, in_window=True) for i, j, v in known)
                and all(self._set(i, j, v) for i, j, v in given)):
            order = sorted(((i, j) for i in range(n) for j in range(n)),
                           key=lambda c: (max(c), c[0], c[1]))
            self.cells = [c for c in order if self.m[c[0]][c[1]] is None]
            self._dfs(0)

    # -- incremental constraint checks --------------------------------------

    def _assoc_ok(self, i, j, v):
        m = self.m
        for k in range(self.n):
            jk = m[j][k]
            if jk is not None:
                left, right = m[v][k], m[i][jk]
                if left is not None and right is not None and left != right:
                    return False
            ki = m[k][i]
            if ki is not None:
                left, right = m[ki][j], m[k][v]
                if left is not None and right is not None and left != right:
                    return False
        for (a, b) in self.pairs_for[i]:
            bj = m[b][j]
            if bj is not None:
                r = m[a][bj]
                if r is not None and r != v:
                    return False
        for (b, c) in self.pairs_for[j]:
            ib = m[i][b]
            if ib is not None:
                l = m[ib][c]
                if l is not None and l != v:
                    return False
        return True

    def _set(self, i, j, v, trail=None, in_window=False):
        """Place v at (i,j) plus the tied mirror; False on conflict.  With
        `in_window`, v is known to be in the window of (i,j); any other
        placement is first checked against its own window, but for the mirror
        of a commutative table, which stays symmetric: its window is (i,j)'s."""
        queue = [(i, j, v)]
        if self.tied or i in self.central or j in self.central:
            queue.append((j, i, v))
        for q, (a, b, w) in enumerate(queue):
            cur = self.m[a][b]
            if cur is not None:
                if cur != w:
                    return False
                continue
            if (q > 0 and not self.tied or not in_window) and w not in self._window(a, b):
                return False
            # placed before the check, so that the triples that read this
            # cell twice are checked too; on False, _dfs unsets the trail
            self.m[a][b] = w
            self.pairs_for[w].append((a, b))
            if trail is not None:
                trail.append((a, b))
            if a == b == w and w in self.P.non_idempotent or not self._assoc_ok(a, b, w):
                return False
        return True

    def _unset(self, trail):
        for (a, b) in trail:
            v = self.m[a][b]
            self.m[a][b] = None
            self.pairs_for[v].pop()

    # -- completion-time checks ----------------------------------------------

    def _finish(self):
        P = self.P
        try:
            A = from_monoid(P.name, self.n, P.leq, self.lattice, P.unit,
                            tuple(map(tuple, self.m)), self.constants, P.labels)
        except NotResiduated:
            return
        if any(properties.is_central(A, c) != (c in P.central) for c in P.central | P.non_central):
            return
        if P.require and not properties.satisfies_flags(A, P.require):
            return
        if self.equations and not terms.equations_hold(A, self.equations,
                                                       {A.label(x): x for x in A.elements}):
            return
        self.out.append(A)

    def _dfs(self, idx):
        if self.limit is not None and len(self.out) >= self.limit:
            return
        while idx < len(self.cells) and self.m[self.cells[idx][0]][self.cells[idx][1]] is not None:
            idx += 1
        if idx == len(self.cells):
            self._finish()
            return
        i, j = self.cells[idx]
        for v in self._window(i, j):
            trail = []
            if self._set(i, j, v, trail, in_window=True):
                self._dfs(idx + 1)
            self._unset(trail)
            if self.limit is not None and len(self.out) >= self.limit:
                self.nodes += v + 1
                return
        self.nodes += self.n

    def _window(self, i, j):
        """The values monotone at the undecided cell (i,j): no less than any
        decided cell before it in its row and column, and no greater than any
        after it, in the order of P."""
        n, m = self.n, self.m
        if self.chain:
            row, col = m[i], [r[j] for r in m]
            lo = max([w for w in row[:j] + col[:i] if w is not None], default=0)
            hi = min([w for w in row[j + 1:] + col[i + 1:] if w is not None], default=n - 1)
            return range(lo, hi + 1)
        leq, ks = self.leq, range(n)
        below = [m[k][j] for k in ks if leq[k][i]] + [m[i][k] for k in ks if leq[k][j]]
        above = [m[k][j] for k in ks if leq[i][k]] + [m[i][k] for k in ks if leq[j][k]]
        return [v for v in ks if all(w is None or leq[w][v] for w in below)
                and all(w is None or leq[v][w] for w in above)]


def complete_partial(P, limit=None):
    """All completions of the partial algebra (up to `limit`), canonically
    sorted by multiplication table.  Raises BadParameter for a limit below 1,
    and before the search the errors of `properties.check_flags` for P.require
    over P's constants and order and of `terms.check_equations` for
    P.equations over P's labels.  P itself is checked first, as a partial
    file is: by `PARTIAL_KEYS`, its index sets by `_is_indices`, and its
    constants against its order."""
    if limit is not None and limit < 1:
        raise BadParameter(f"limit must be >= 1, got {limit}")
    _check_keys({"size": P.size, "leq": P.leq, "unit": P.unit, "mult": P.mult,
                 "constants": P.constants, "labels": P.labels and list(P.labels)}, PARTIAL_KEYS)
    if not _is_indices(list(P.idempotent | P.non_idempotent | P.central | P.non_central), P.size):
        raise ParseError(f"constraint index sets must hold indices below {P.size}")
    lattice = lattice_order(P.size, P.leq)
    total = P.leq == "chain" or induced_order(lattice[0], range(P.size))[1]
    properties.check_flags(P.require, P.constants, total)
    equations = terms.check_equations(P.equations, P.constants,
                                      P.require.get("commutative") is True, P.labels or ())
    s = _Search(P, lattice, limit, equations)
    algebras = tuple(sorted(s.out, key=lambda A: (A.mult, A.constants)))
    return CompletionResult(algebras, s.nodes)


def chain_flags(require):
    """(pre, post) for a property filter of `enumerate_chains`: the flags the
    search builds in, and the rest, checked on each member.  commutative stays
    in the member filter beside equations, whose '->' needs it."""
    pre = {k for k in ("idempotent", "commutative", "integral") if require.get(k) is True}
    post = {k: v for k, v in require.items()
            if k not in pre or k == "commutative" and "equations" in require}
    return pre, post


def chain_units(n, pre):
    """The unit positions of the chains of size n, in enumeration order: the
    top alone under integral, else any element above the bottom."""
    return range(n - 1, n) if "integral" in pre or n == 1 else range(1, n)


def chain_partial(n, e, pre):
    """The partial chain that `enumerate_chains` completes at size n and unit
    e: no cell given, the built-in flags `pre` as the idempotent diagonal and
    the commutative tie."""
    return PartialAlgebra(
        name="tmp", size=n, leq="chain", unit=e,
        mult=[[None] * n for _ in range(n)],
        idempotent=frozenset(range(n)) if "idempotent" in pre else frozenset(),
        require={"commutative": True} if "commutative" in pre else {},
    )


def chains_at(n, e, require, sig):
    """The members of `enumerate_chains(n, require, sig)` with unit e, in its
    order and under its names; `require` and `sig` are taken as checked."""
    pre, post = chain_flags(require)
    pinned = {nm: v for nm, v in (("bot", 0), ("top", n - 1)) if nm in sig}
    options = [dict(pinned, f=pos) for pos in range(n)] if "f" in sig else [pinned]
    for k, A in enumerate(complete_partial(chain_partial(n, e, pre)).algebras):
        for consts in options:
            # A is derived once per table; only the constants are new
            suffix = "".join(f"{k2}{v2}" for k2, v2 in sorted(consts.items()))
            out = A.with_constants(f"chain{n}u{e}n{k}{suffix}", consts)
            if properties.satisfies_flags(out, post):
                yield out


def enumerate_chains(n, require=None, constants=()):
    """Every residuated chain of size n over the given constant set satisfying
    the property filter, exactly once per (table, constants) assignment.

    Yields in deterministic order: unit position ascending, multiplication
    tables in row-major lexicographic order, then f placement.  bot/top, when
    in the signature, are pinned to the endpoints.  An unknown or repeated
    constant name raises ParseError, and a filter `properties.check_flags`
    refuses over the signature raises before any chain is built.
    """
    require = dict(require or {})
    if n < 1:
        raise ParseError("size must be >= 1")
    sig = _signature(constants)
    properties.check_flags(require, sig)
    for e in chain_units(n, chain_flags(require)[0]):
        yield from chains_at(n, e, require, sig)
