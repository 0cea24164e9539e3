"""Backtracking completion of partial multiplication tables, and exhaustive
enumeration of residuated chains.

The search fills unknown cells in growing-principal-submatrix order, so the
left and upper neighbours of a cell are always decided first:

  * unit row/column and the absorbing row/column of the least element are
    pre-filled (residuals cannot exist otherwise);
  * on a chain, a cell is tried only with the values of its monotone window:
    no less than any decided cell before it in its row or column, and no
    greater than any after it.  These are exactly the values the
    monotonicity check accepts there, so that check runs only on a tied
    mirror cell, and on other orders, where every value is tried;
  * associativity is enforced incrementally: setting m[i][j] checks every
    triple whose four lookups just became available, those that read m[i][j]
    twice included, since the cell is placed before it is checked (a product
    index maps each value to the pairs producing it);
  * centrality/commutativity ties force the mirror cell.

Constraint flags that cannot be propagated cheaply (non-central witnesses,
equations, involutivity, profile filters) are checked on completed tables,
and every completed table passes full validation before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (PARTIAL_FORMAT, AlgebraError, BadParameter, ParseError, _constant_tuple,
                      _signature, finite_algebra, lattice_order, least_element, read_document)
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
    commutative: bool | None = None
    involutive_f: bool | None = None
    equations: tuple = ()           # strings in term syntax over labels
    require: dict = field(default_factory=dict)


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
    """Parse a partial algebra file, checking its order and constants as
    `finite_algebra` does, and its equations' terms, whose variables must be
    labels; the laws of the completed tables are checked on each completion."""
    doc = read_document(text, PARTIAL_FORMAT)
    n, labels = doc["size"], doc.get("labels")
    _constant_tuple(n, lattice_order(n, doc["leq"])[0], doc.get("constants"))
    cs = doc.get("constraints") or {}
    equations = cs.get("equations", [])
    properties.check_flags({"equations": equations})
    unbound = {x for eq in equations for side in eq.split("=")
               for x in terms.free_vars(terms.parse_term(side))} - set(labels or ())
    if unbound:
        raise ParseError(f"equation variables {sorted(unbound)} are not labels")
    return PartialAlgebra(
        doc.get("name", "partial"), n, doc["leq"], doc["unit"], doc["mult"],
        doc.get("constants") or {}, tuple(labels) if labels else None,
        **{k: frozenset(cs.get(k, ())) for k in ("idempotent", "non_idempotent",
                                                   "central", "non_central")},
        commutative=cs.get("commutative"), involutive_f=cs.get("involutive_f"),
        equations=tuple(equations))


class _Search:
    """The completions of P, up to `limit`, found on construction in `out`."""

    def __init__(self, P: PartialAlgebra, limit=None):
        self.P = P
        self.n = P.size
        self.leq = lattice_order(P.size, P.leq)[0]
        self.chain = P.leq == "chain"
        self.limit = limit
        self.nodes = 0
        self.out = []
        n = self.n
        self.m = [[None] * n for _ in range(n)]
        self.pairs_for = [[] for _ in range(n)]   # value -> [(i, j)] with m[i][j] = value
        # ties: mirror cell forced equal (commutative globally, or central element)
        self.tied = P.commutative is True
        self.central = set(P.central)
        e, bot = P.unit, least_element(self.leq, n)
        forced = [(i, j, v) for i, row in enumerate(P.mult)
                  for j, v in enumerate(row) if v is not None]
        forced += [c for x in range(n) for c in ((e, x, x), (x, e, x))]
        if bot is not None:   # the least element absorbs
            forced += [c for x in range(n) for c in ((bot, x, bot), (x, bot, bot))]
        forced += [(x, x, x) for x in P.idempotent]
        if all(self._set(i, j, v) for i, j, v in forced):
            order = sorted(((i, j) for i in range(n) for j in range(n)),
                           key=lambda c: (max(c), c[0], c[1]))
            self.cells = [c for c in order if self.m[c[0]][c[1]] is None]
            self._dfs(0)

    # -- incremental constraint checks --------------------------------------

    def _mono_ok(self, i, j, v):
        m, leq, n = self.m, self.leq, self.n
        for k in range(n):
            w = m[k][j]
            if w is not None:
                if leq[k][i] and not leq[w][v]:
                    return False
                if leq[i][k] and not leq[v][w]:
                    return False
            w = m[i][k]
            if w is not None:
                if leq[k][j] and not leq[w][v]:
                    return False
                if leq[j][k] and not leq[v][w]:
                    return False
        return True

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

    def _cell_ok(self, i, j, v, mono=True):
        if i == j:
            if i in self.P.non_idempotent and v == i:
                return False
            if i in self.P.idempotent and v != i:
                return False
        return (not mono or self._mono_ok(i, j, v)) and self._assoc_ok(i, j, v)

    def _set(self, i, j, v, trail=None, in_window=False):
        """Place v at (i,j) plus the tied mirror; False on conflict.  With
        `in_window`, v is known monotone at (i,j)."""
        queue = [(i, j, v)]
        if self.tied or i in self.central or j in self.central:
            queue.append((j, i, v))
        for q, (a, b, w) in enumerate(queue):
            cur = self.m[a][b]
            if cur is not None:
                if cur != w:
                    return False
                continue
            # placed before the check, so that the triples that read this
            # cell twice are checked too; on False, _dfs unsets the trail
            self.m[a][b] = w
            self.pairs_for[w].append((a, b))
            if trail is not None:
                trail.append((a, b))
            if not self._cell_ok(a, b, w, mono=q > 0 or not in_window):
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
            A = finite_algebra(P.name, self.n, P.leq, P.unit,
                               [list(row) for row in self.m], P.constants, P.labels)
        except AlgebraError:
            return
        for c in P.central:
            if not properties.is_central(A, c):
                return
        for c in P.non_central:
            if properties.is_central(A, c):
                return
        if P.commutative is not None and properties.is_commutative(A) != P.commutative:
            return
        if P.involutive_f is not None and properties.is_involutive_f(A) != P.involutive_f:
            return
        if P.equations:
            env = {A.label(x): x for x in A.elements}
            for eq in P.equations:
                lhs, rhs = (terms.eval_term(A, terms.parse_term(t), env) for t in eq.split("="))
                if lhs != rhs:
                    return
        if P.require and not properties.satisfies_flags(A, P.require):
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
            if self._set(i, j, v, trail, in_window=self.chain):
                self._dfs(idx + 1)
            self._unset(trail)
            if self.limit is not None and len(self.out) >= self.limit:
                self.nodes += v + 1
                return
        self.nodes += self.n

    def _window(self, i, j):
        """The values to try at the undecided cell (i,j): on a chain those
        between the decided cells before it and after it in its row and
        column, else all."""
        n = self.n
        if not self.chain:
            return range(n)
        row, col = self.m[i], [r[j] for r in self.m]
        lo = max([w for w in row[:j] + col[:i] if w is not None], default=0)
        hi = min([w for w in row[j + 1:] + col[i + 1:] if w is not None], default=n - 1)
        return range(lo, hi + 1)


def complete_partial(P, limit=None):
    """All completions of the partial algebra (up to `limit`), canonically
    sorted by multiplication table.  Raises BadParameter for a limit below 1."""
    if limit is not None and limit < 1:
        raise BadParameter(f"limit must be >= 1, got {limit}")
    s = _Search(P, limit=limit)
    algebras = tuple(sorted(s.out, key=lambda A: (A.mult, A.constants)))
    return CompletionResult(algebras, s.nodes)


def enumerate_chains(n, require=None, constants=()):
    """Every residuated chain of size n over the given constant set satisfying
    the property filter, exactly once per (table, constants) assignment.

    Yields in deterministic order: unit position ascending, multiplication
    tables in row-major lexicographic order, then f placement.  bot/top, when in the signature, are
    pinned to the endpoints.  An unknown or repeated constant name raises
    ParseError.
    """
    require = dict(require or {})
    if n < 1:
        raise ParseError("size must be >= 1")
    sig = _signature(constants)
    pre, post = {}, {}
    for key, want in require.items():
        if key in ("idempotent", "commutative", "integral") and want:
            pre[key] = True
        else:
            post[key] = want
    units = range(n - 1, n) if pre.get("integral") or n == 1 else range(1, n)
    pinned = {nm: v for nm, v in (("bot", 0), ("top", n - 1)) if nm in sig}
    options = [dict(pinned, f=pos) for pos in range(n)] if "f" in sig else [pinned]
    for e in units:
        P = PartialAlgebra(
            name="tmp", size=n, leq="chain", unit=e,
            mult=[[None] * n for _ in range(n)],
            idempotent=frozenset(range(n)) if pre.get("idempotent") else frozenset(),
            commutative=True if pre.get("commutative") else None,
        )
        for k, A in enumerate(complete_partial(P).algebras):
            for consts in options:
                # A passed full validation in _Search._finish; only the
                # constants are new
                suffix = "".join(f"{k2}{v2}" for k2, v2 in sorted(consts.items()))
                out = A.with_constants(f"chain{n}u{e}n{k}{suffix}", consts)
                if properties.satisfies_flags(out, post):
                    yield out
