"""Congruence lattices, convex normal subalgebras, quotients, subalgebras,
simplicity classification, and the congruence extension property.

A congruence of a residuated lattice is determined by its e-class, a convex
normal subalgebra (CNS) (Blount-Tsinakis 2003; Galatos-Jipsen-Kowalski-Ono
2007, ch. 3).  In a finite algebra that e-class meets the negative cone in an
interval [m, e], so every congruence is the principal congruence Theta(m, e)
of some m <= e, and `congruences` computes exactly these, each closure
seeded with the Theta(m', e) of an m' just above m (`_congruence_blocks`).
The partition brute-force oracle they are cross-checked against lives in
the tests (oracles.congruences_bruteforce).

The CEP is tested through the same correspondence: theta in Con(S) extends
to A exactly when its e-class is M & S for some CNS M of A, so `has_cep`
counts these traces against Con(S).

Con(A), Sub(A), the subalgebras and the quotient maps depend on A's tables
alone, so each is computed once per table (`table_id`) per process: copies
that differ in name or labels only share one entry, and `congruences` and
`subalgebras` name what they return after the caller's algebra and labels.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, wraps

from .algebra import (OPS, Check, FiniteAlgebra, NotASubuniverse, _is_index, by_table_id,
                      derived, induced_order, ops_to_check)


def _canon_blocks(rep, n):
    by_rep = {}
    for x in range(n):
        by_rep.setdefault(rep(x), []).append(x)
    return tuple(tuple(sorted(b)) for b in sorted(by_rep.values(), key=min))


@dataclass(frozen=True)
class Congruence:
    blocks: tuple
    algebra: FiniteAlgebra = field(compare=False, repr=False)

    def __post_init__(self):
        index = {}
        for i, block in enumerate(self.blocks):
            for x in block:
                index[x] = i
        object.__setattr__(self, "_index", index)

    def block_of(self, x):
        return self._index[x]

    @property
    def nblocks(self):
        return len(self.blocks)

    @property
    def is_identity(self):
        return self.nblocks == self.algebra.size

    def unit_class(self):
        return self.blocks[self.block_of(self.algebra.unit)]

    def __repr__(self):
        return "Con" + "|".join("".join(self.algebra.label(x) for x in b) for b in self.blocks)


def _translations(A, ops=OPS):
    """The distinct translation tables of A's operations `ops`: for each
    operation table its rows (x -> t[x][c]) and its columns (x -> t[c][x]),
    so that row x of each gives the images of x under one family of unary
    translations.  A commutative table's columns are its rows, and are listed
    once."""
    tables = []
    for op in ops:
        t = getattr(A, op)
        for u in (t, tuple(zip(*t))):
            if u not in tables:
                tables.append(u)
    return tables


def _merge(tables, rep, pairs):
    """The closure under the translation tables of the relation `rep` with
    the given pairs added, where `rep` is a congruence or the identity.

    `rep[x]` is the least element of x's class.  Each merge of two classes
    translates the pair of their representatives once by every translation
    table; those pairs generate the same equivalence as the merged ones, and
    the pairs of a congruence already translate into it."""
    work = list(pairs)
    while work:
        x, y = work.pop()
        x, y = rep[x], rep[y]
        if x == y:
            continue
        if y < x:
            x, y = y, x
        rep = [x if r == y else r for r in rep]
        for t in tables:
            work.extend(zip(t[x], t[y]))
    return rep


def _close_pairs(A, pairs):
    """Least congruence containing the given pairs (translation closure)."""
    rep = _merge(_translations(A), A.elements, pairs)
    return Congruence(_canon_blocks(rep.__getitem__, A.size), A)


def principal_congruence(A, a, b):
    """Theta(a,b): least congruence of A containing (a,b)."""
    return _close_pairs(A, [(a, b)])


def congruence_leq(c1, c2):
    """Refinement order: every c1 block inside some c2 block."""
    block_of = c2.block_of
    return all(block_of(x) == block_of(b[0]) for b in c1.blocks for x in b[1:])


@dataclass(frozen=True)
class ConLattice:
    algebra: FiniteAlgebra
    congruences: tuple  # sorted by _con_key: identity first, full last

    def __len__(self):
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    @property
    def identity(self):
        return self.congruences[0]

    @property
    def full(self):
        return self.congruences[-1]

    def atoms(self):
        return list(self._atoms)

    @cached_property
    def _atoms(self):
        # a congruence strictly below c has more blocks, so it comes before c;
        # c is an atom iff no atom found before it is below it
        found = []
        for c in self.congruences:
            if not c.is_identity and not any(congruence_leq(a, c) for a in found):
                found.append(c)
        return found

    def monolith(self):
        """Least nontrivial congruence, or None (A is SI iff it exists)."""
        ats = self.atoms()
        if len(ats) == 1 and self.algebra.size > 1:
            return ats[0]
        return None


def _con_key(c):
    return (c.algebra.size - c.nblocks, c.blocks)


def _per_table(fn):
    """fn(A), computed once per table per process, on the first algebra seen
    with A's table: an lru_cache keyed by A.table_id, whose cache_info() and
    cache_clear() the wrapper exposes."""
    cached = lru_cache(maxsize=512)(lambda tid: fn(by_table_id[tid]))

    @wraps(fn)
    def by_table(A):
        return cached(A.table_id)
    by_table.cache_info, by_table.cache_clear = cached.cache_info, cached.cache_clear
    return by_table


@_per_table
def _congruence_blocks(A):
    """The blocks of each Theta(m, e), m <= e, in `congruences` order.

    The m are walked from e down, and each closure starts from the closed
    Theta(m', e) of the m' in (m, e] walked last, an upper cover of m: a
    lattice congruence has convex classes, so m ~ e forces m' ~ e, and
    Theta(m', e) is below Theta(m, e).  On a chain Con(A) is a chain, and
    all the closures together merge at most n - 1 times."""
    e, leq = A.unit, A.leq
    tables = _translations(A)
    closed = []   # (m, the representatives of Theta(m, e)), as walked
    found = {}
    for m in sorted((m for m in A.elements if leq[m][e]),
                    key=lambda m: -sum(leq[y][m] for y in A.elements)):
        seed = next((rep for m2, rep in reversed(closed) if leq[m][m2]), A.elements)
        rep = _merge(tables, seed, [(m, e)])
        closed.append((m, rep))
        blocks = _canon_blocks(rep.__getitem__, A.size)
        if blocks not in found:
            found[blocks] = Congruence(blocks, A)
    return tuple(c.blocks for c in sorted(found.values(), key=_con_key))


def congruences(A):
    """The full congruence lattice, on A itself: Theta(m, e) for each m <= e,
    by the congruence-CNS correspondence (Blount-Tsinakis 2003;
    Galatos-Jipsen-Kowalski-Ono 2007, ch. 3).  The blocks are computed once
    per table (`table_id`) per process; the cache_info() and cache_clear()
    are theirs.

    Let theta have e-class M, and m the meet of M & down(e) (so m is in M).
    Then Theta(m, e) <= theta, and its e-class contains [m, e], which
    contains M & down(e).  In any congruence phi, x phi e iff
    |x| = x /\\ (x\\e) /\\ e phi e, with |x| <= e; so both e-classes equal M,
    and theta = Theta(m, e).
    """
    return ConLattice(A, tuple(Congruence(blocks, A) for blocks in _congruence_blocks(A)))


congruences.cache_info = _congruence_blocks.cache_info
congruences.cache_clear = _congruence_blocks.cache_clear


# -- convex normal subalgebras ----------------------------------------------

def convex_normal_subalgebras(A):
    """e-classes of all congruences, in the same order as congruences(A)."""
    return tuple(frozenset(next(b for b in blocks if A.unit in b))
                 for blocks in _congruence_blocks(A))


def cns_generated(A, seed):
    """Least convex normal subalgebra containing the seed set (via Theta(s,e))."""
    pairs = [(s, A.unit) for s in seed]
    return frozenset(_close_pairs(A, pairs).unit_class())


# -- quotients and subalgebras ----------------------------------------------

def natural_projection(A, theta):
    """Quotient algebra plus the projection map A -> A/theta.

    Blocks are numbered by `induced_order` of their least elements; the
    projection is returned as an index mapping.  The quotient's tables are
    A's, read on one representative per block (`algebra.derived`).
    """
    blocks = theta.blocks
    k = len(blocks)
    reps = [b[0] for b in blocks]
    bl = theta.block_of
    # [x] <= [y] iff x /\ y ~ x
    leq = [[bl(A.meet[reps[i]][reps[j]]) == i for j in range(k)] for i in range(k)]
    order, chainlike = induced_order(leq, range(k))
    pos = {b: i for i, b in enumerate(order)}
    mapping = tuple(pos[bl(x)] for x in A.elements)
    labels = None
    if A.labels is not None:
        labels = tuple("".join(A.label(x) for x in blocks[b]) for b in order)
    name = A.name if k == A.size else f"{A.name}/~{k}"
    Q = derived(A, [reps[b] for b in order], mapping, chainlike)
    return replace(Q, name=name, labels=labels), mapping


def quotient(A, theta):
    return natural_projection(A, theta)[0]


def _closure_tables(A):
    """The translation tables a closure in A reads: of all five operations,
    or of `ops_to_check(True)` when A is totally ordered."""
    return _translations(A, ops_to_check(A.is_totally_ordered))


def _close(tables, closed, new):
    """The least set containing `closed` and `new` and closed under the
    translation tables, where `closed` is already closed.  Semi-naive: each
    round applies the translations to the elements new in the round before
    only (their products with every element reached so far), so no product
    of two elements of `closed` is computed; UACalc's closure works the same
    way (Freese, Kiss and Valeriote, uacalc.org)."""
    current = set(closed)
    new = set(new) - current
    while new:
        current |= new
        reached = list(current)
        fresh = set()
        for t in tables:
            for x in new:
                fresh.update(map(t[x].__getitem__, reached))
        new = fresh - current
    return frozenset(current)


def subuniverse_closure(A, seed):
    """Closure of seed + designated constants + unit under the operations."""
    return _close(_closure_tables(A), (), {A.unit, *seed, *(v for _, v in A.constants)})


@_per_table
def subuniverses(A):
    """All subuniverses, sorted by (size, tuple): the closure of the unit and
    constants, then each s + {x} closed from the subuniverse s; computed once
    per table per process."""
    tables = _closure_tables(A)
    base = subuniverse_closure(A, ())
    found = {base}
    frontier = [base]
    while frontier:
        fresh = []
        for s in frontier:
            for x in A.elements:
                if x not in s:
                    s2 = _close(tables, s, (x,))
                    if s2 not in found:
                        found.add(s2)
                        fresh.append(s2)
        frontier = fresh
    return tuple(tuple(sorted(s)) for s in sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))


def is_subuniverse(A, subset):
    """The one closure test (its closure adds the unit and the constants);
    false for a subset with an entry that is not an element index of A."""
    return (all(_is_index(x, A.size) for x in subset)
            and subuniverse_closure(A, subset) == frozenset(subset))


def _subalgebra(A, sub):
    """The registered subalgebra on a sorted subuniverse (`algebra.derived`)
    and its inclusion, with no check.  A chain-coded A lists it in order."""
    order, chainlike = (sub, True) if A.chain else induced_order(A.leq, sub)
    pos = {x: i for i, x in enumerate(order)}
    return derived(A, order, pos, chainlike), tuple(order)


def subalgebra_with_map(A, subset, name=None):
    """Checked constructor for a subset from outside: the subalgebra on it,
    tables read from A (`algebra.derived`), and the inclusion map: element i
    of the result is `inclusion[i] = induced_order(A.leq, subset)[0][i]` of
    A.  Raises NotASubuniverse unless `is_subuniverse` accepts the subset."""
    members = sorted(set(subset))
    if not is_subuniverse(A, members):
        raise NotASubuniverse(f"{members} is not a subuniverse of {A.name}")
    S, inclusion = _subalgebra(A, members)
    return named_subalgebra(A, members, S, inclusion, name), inclusion


def subalgebra(A, subset, name=None):
    """The subalgebra on a subuniverse, as numbered by `subalgebra_with_map`."""
    return subalgebra_with_map(A, subset, name)[0]


@_per_table
def interned_subalgebras(A):
    """(subuniverse, subalgebra, inclusion) for each subuniverse of A, in
    `subuniverses` order and numbered as by `subalgebra_with_map`, but
    derive-only: each subalgebra is the registered one with its table, under
    any name and labels, and is built only when its key is new; once per
    table.  `named_subalgebra` names an entry."""
    return tuple((sub,) + _subalgebra(A, sub) for sub in subuniverses(A))


def named_subalgebra(A, sub, S, inclusion, name=None):
    """The subalgebra S of A on sub, with that inclusion, under the given
    name, or A's for the full carrier and A|013 for {0, 1, 3} by default,
    and under A's labels."""
    if name is None:
        name = A.name if len(sub) == A.size else f"{A.name}|{''.join(map(str, sub))}"
    labels = tuple(A.label(x) for x in inclusion) if A.labels is not None else None
    return replace(S, name=name, labels=labels)


def subalgebras(A):
    """(subuniverse, subalgebra, inclusion) for each subuniverse of A, in
    `subuniverses` order, named and numbered as by `subalgebra_with_map`:
    the `interned_subalgebras` entries, each under its own name."""
    for sub, S, inclusion in interned_subalgebras(A):
        yield sub, named_subalgebra(A, sub, S, inclusion), inclusion


@_per_table
def subalgebra_index(A):
    """{S.table_id: the inclusions of A's subalgebras S with that table}, in
    `subuniverses` order; computed once per table.  Read-only."""
    index = {}
    for _, S, inclusion in interned_subalgebras(A):
        index.setdefault(S.table_id, []).append(inclusion)
    return index


@_per_table
def quotient_maps(A):
    """(table id of A/theta, projection) for each theta in `congruences(A)`,
    the identity first; computed once per table."""
    return tuple((Q.table_id, q) for Q, q in (natural_projection(A, theta)
                                              for theta in congruences(A)))


@_per_table
def atom_indices(A):
    """(blocks, block number of each element) for each atom of Con(A), in
    `congruences` order; computed once per table."""
    return tuple((c.blocks, tuple(map(c.block_of, A.elements)))
                 for c in congruences(A).atoms())


# -- classification and CEP ---------------------------------------------------

@dataclass(frozen=True)
class Classification:
    fsi: bool
    si: bool
    simple: bool
    strictly_simple: bool
    monolith: Congruence | None


def classify(A):
    con = congruences(A)
    atoms = con.atoms()
    fsi = len(atoms) <= 1       # identity congruence is meet-irreducible
    mono = con.monolith()
    si = mono is not None
    simple = len(con) == 2
    strictly = False
    if simple:
        proper = [s for s in subuniverses(A) if len(s) < A.size]
        strictly = (all(len(s) == 1 for s in proper)
                    and all(v == A.unit for _, v in A.constants))
    return Classification(fsi, si, simple, strictly, mono)


def extends(A, sub, eclass):
    """Does some congruence Phi of A restrict to the subuniverse sub with
    the given e-class (elements of A)?  Phi's restriction has e-class
    M_Phi & sub, and a congruence is determined by its e-class."""
    return frozenset(eclass) in {M.intersection(sub) for M in convex_normal_subalgebras(A)}


def has_cep(A):
    """Exhaustive congruence extension property check with witness: the
    first (proper subuniverse, congruence) pair, in `subuniverses` and
    `congruences` order, whose e-class is not the trace of a CNS of A, as
    the `Check` witness (subuniverse, Congruence of the subalgebra).

    Each trace M & sub of a CNS M of A is the e-class of a congruence of the
    subalgebra S on sub, the restriction of M's, and distinct congruences
    have distinct e-classes; so all of Con(S) extends exactly when there are
    |Con(S)| traces, as on the full carrier, where they are the CNS of A.
    Only where there are fewer are S's e-classes lifted to find the witness,
    and only a witness's subalgebra is named."""
    cns = convex_normal_subalgebras(A)
    for sub, S, back in interned_subalgebras(A):
        traces = {M.intersection(sub) for M in cns}
        con = _congruence_blocks(S)
        if len(traces) != len(con):
            for blocks in con:
                eclass = next(b for b in blocks if S.unit in b)
                if frozenset(back[x] for x in eclass) not in traces:
                    B = named_subalgebra(A, sub, S, back)
                    return Check(False, (sub, Congruence(blocks, B)))
    return Check(True)
